//! Host fingerprint, the reference kernel, and child processes measured
//! with `wait4` (exit status and peak resident set in one call).

use std::io;
use std::process::Child;
use std::time::{Duration, Instant};

use crate::stats::median;

/// Iterations of the reference kernel (about 20 ms on a current core).
const REF_KERNEL_ITERS: u64 = 1 << 23;
/// Repetitions of the reference kernel; the median is reported.
const REF_KERNEL_REPS: usize = 5;

/// What a reader needs to tell host drift from a change in the code.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Median time of [`ref_kernel`], a fixed integer loop that is not code
    /// under test: it moves only when the host does.
    pub ref_kernel_s: f64,
}

impl Fingerprint {
    /// Reads the host and times the reference kernel.
    pub fn take() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let times: Vec<f64> = (0..REF_KERNEL_REPS)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(ref_kernel(std::hint::black_box(REF_KERNEL_ITERS)));
                t0.elapsed().as_secs_f64()
            })
            .collect();
        Self {
            nproc,
            cpu_model,
            ref_kernel_s: median(&times),
        }
    }
}

/// A xorshift walk scattering adds over a 64 KiB table: integer ALU work
/// plus L1/L2 traffic, independent of every crate in the repository.
fn ref_kernel(iters: u64) -> u64 {
    let mut table = vec![0u64; 8192];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & (table.len() - 1);
        table[i] = table[i].wrapping_add(x);
    }
    table.iter().fold(0, |a, b| a ^ b)
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn own_peak_rss_mb() -> f64 {
    peak_rss_mb("self")
}

/// Peak resident set (`VmHWM`) of the running process `pid` (a number, or
/// `self`), MiB; `NaN`, which the report rejects, when it cannot be read.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen longs
/// of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

const WNOHANG: i32 = 1;

/// How a measured child ended.
#[derive(Debug, Clone, Copy)]
pub struct Exited {
    /// Exit code, or `None` when a signal ended it.
    pub code: Option<i32>,
    /// Peak resident set of the child and every descendant it waited for,
    /// MiB (the kernel's `ru_maxrss` for a reaped child). Linux carries the
    /// spawning process's resident set across `exec` into this figure, so
    /// it reads at least what this process held when it spawned the child.
    pub peak_rss_mb: f64,
}

impl Exited {
    /// Exited normally with code 0.
    pub fn success(&self) -> bool {
        self.code == Some(0)
    }
}

/// A child process that is killed and reaped if dropped while running, so
/// no early return or panic leaves a process behind.
#[derive(Debug)]
pub struct Guarded {
    child: Child,
    reaped: bool,
}

impl Guarded {
    /// Takes ownership of a spawned child.
    pub fn new(child: Child) -> Self {
        Self {
            child,
            reaped: false,
        }
    }

    /// The child's process id.
    pub fn id(&self) -> u32 {
        self.child.id()
    }

    /// The underlying child (to take its pipes).
    pub fn child_mut(&mut self) -> &mut Child {
        &mut self.child
    }

    /// Blocks until the child exits and reaps it.
    pub fn wait(&mut self) -> io::Result<Exited> {
        self.wait4(0)?
            .ok_or_else(|| io::Error::other("wait4 returned without a child"))
    }

    /// Reaps the child if it has exited, without blocking.
    pub fn try_wait(&mut self) -> io::Result<Option<Exited>> {
        self.wait4(WNOHANG)
    }

    /// Waits up to `timeout`; on expiry kills the child and reports an
    /// error after reaping it.
    pub fn wait_timeout(&mut self, timeout: Duration) -> io::Result<Exited> {
        let t0 = Instant::now();
        loop {
            if let Some(exited) = self.try_wait()? {
                return Ok(exited);
            }
            if t0.elapsed() > timeout {
                self.kill();
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("process {} did not exit within {timeout:?}", self.id()),
                ));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn wait4(&mut self, options: i32) -> io::Result<Option<Exited>> {
        if self.reaped {
            return Err(io::Error::other("child already reaped"));
        }
        let pid = i32::try_from(self.child.id()).map_err(io::Error::other)?;
        let mut status = 0i32;
        let mut usage = RUsage {
            utime: [0; 2],
            stime: [0; 2],
            maxrss: 0,
            rest: [0; 13],
        };
        loop {
            // SAFETY: `status` and `usage` are live, writable locals of the
            // exact C layout `wait4(2)` fills in; `pid` is our own unreaped
            // child, so the call cannot reap anything else.
            let r = unsafe { wait4(pid, &mut status, options, &mut usage) };
            if r == pid {
                break;
            }
            if r == 0 {
                return Ok(None);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
        self.reaped = true;
        let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
        Ok(Some(Exited {
            code,
            peak_rss_mb: usage.maxrss as f64 / 1024.0,
        }))
    }

    fn kill(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = self.child.wait();
            self.reaped = true;
        }
    }
}

impl Drop for Guarded {
    fn drop(&mut self) {
        self.kill();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::process::Command;

    #[test]
    fn wait4_reports_exit_code_and_rss() {
        let mut ok = Guarded::new(Command::new("true").spawn().expect("spawn true"));
        let e = ok.wait().expect("wait");
        assert!(e.success());
        assert!(e.peak_rss_mb > 0.0);
        let mut bad = Guarded::new(Command::new("false").spawn().expect("spawn false"));
        assert_eq!(bad.wait().expect("wait").code, Some(1));
    }

    #[test]
    fn timeout_kills_the_child() {
        let mut slow = Guarded::new(Command::new("sleep").arg("5").spawn().expect("spawn"));
        assert!(slow.wait_timeout(Duration::from_millis(50)).is_err());
    }
}

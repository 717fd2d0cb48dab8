//! `perfbench` — the repository benchmark harness.
//!
//! ```text
//! perfbench --workload eval|sim-full|sim-sampled|serve-closed
//!           --seed N --seconds S --trace 0|1
//!           --bin-dir DIR --work-dir DIR
//! ```
//!
//! `perfbench/run.py` builds the release binaries and this harness, then
//! calls it with `--bin-dir` pointing at them. Every run prints the host
//! fingerprint and one `metric` line per measurement, then, as its last
//! line, one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones (see README.md for every name, its unit and its meaning).

mod eval;
mod host;
mod metrics;
mod report;
mod serve_closed;
mod sim_full;
mod sim_sampled;
mod stats;
mod timed;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use report::Report;

/// Parsed command line, shared by every workload.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed (ignored by `eval`, whose binaries hard-code their seed).
    pub seed: u64,
    /// Measurement budget.
    pub seconds: Duration,
    /// Per-layer (traced) pass instead of the end-to-end pass.
    pub trace: bool,
    /// Directory holding the repository's release binaries.
    pub bin_dir: PathBuf,
    /// Scratch directory for generated files (traces, port files).
    pub work_dir: PathBuf,
}

fn usage() -> &'static str {
    "usage: perfbench --workload eval|sim-full|sim-sampled|serve-closed --seed N \
     --seconds S --trace 0|1 --bin-dir DIR --work-dir DIR"
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut bin_dir = None;
    let mut work_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?);
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds must be positive, got {value:?}"))?;
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                });
            }
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        bin_dir: bin_dir.ok_or("--bin-dir is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.work_dir.display());
        return ExitCode::FAILURE;
    }
    let host = host::Fingerprint::take();
    println!(
        "host: nproc={} cpu={:?} ref_kernel_s={:.6}",
        host.nproc, host.cpu_model, host.ref_kernel_s
    );
    let mut report = Report::new(args.trace);
    let outcome = match args.workload.as_str() {
        "eval" => eval::run(&args, &mut report),
        "sim-full" => sim_full::run(&args, &mut report),
        "sim-sampled" => sim_sampled::run(&args, &mut report),
        "serve-closed" => serve_closed::run(&args, &mut report),
        other => Err(format!("unknown workload {other:?}\n{}", usage())),
    };
    if let Err(e) = outcome {
        // A workload that cannot run (missing binary, failed launch) prints
        // no result: the run fails loudly instead of reporting partial data.
        eprintln!("perfbench: {}: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    if args.trace {
        report.layer("host.nproc", host.nproc as f64, "count");
        report.layer("host.ref_kernel_s", host.ref_kernel_s, "s");
    }
    match report.finish() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

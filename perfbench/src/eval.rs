//! `eval`: the paper's whole evaluation, `all_experiments`, in full-trace
//! mode at a reduced trace length.
//!
//! The figure binaries hard-code their generation seed, so this workload
//! is fixed-seed: `--seed` is accepted and ignored. The untraced pass
//! repeats `all_experiments`; the traced pass alternates it with running
//! its sixteen children one by one, each timed as its own process, and
//! checks that their concatenated output is what `all_experiments` printed.

use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use mascot_bench::DEFAULT_SEED;
use mascot_workloads::{generate, spec, WorkloadProfile};

use crate::host::{own_peak_rss_mb, Guarded};
use crate::report::Report;
use crate::stats::{median, spread_pct};
use crate::Args;

/// Trace length of every simulated cell (`MASCOT_TRACE_UOPS`).
pub const EVAL_UOPS: usize = 12_000;
/// The children of `all_experiments`, in the order it runs them.
pub const CHILDREN: [&str; 16] = [
    "table01",
    "table02",
    "counter_decay",
    "figure02",
    "figure07",
    "figure08",
    "figure09",
    "figure10",
    "figure11",
    "figure12",
    "figure13",
    "figure14",
    "figure15",
    "ablations",
    "window_sweep",
    "bottleneck",
];
/// Fewest `all_experiments` runs per pass: the output check needs two.
const MIN_REPS: usize = 3;
/// Set-ups timed before the first `all_experiments` run and after each
/// one, so the samples span the run; the median is reported.
const SETUP_REPS: usize = 3;
/// The line `all_experiments` ends with; it holds a wall time, so the
/// output check stops before it.
const COMPLETED: &str = "\nall experiments completed in";

/// One finished process.
struct Run {
    ok: bool,
    secs: f64,
    stdout: Vec<u8>,
    peak_rss_mb: f64,
}

fn run_binary(bin: &Path, work_dir: &Path) -> Result<Run, String> {
    let t0 = Instant::now();
    let child = Command::new(bin)
        .env("MASCOT_TRACE_UOPS", EVAL_UOPS.to_string())
        .env_remove("MASCOT_SAMPLED")
        .current_dir(work_dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot launch {}: {e}", bin.display()))?;
    let mut child = Guarded::new(child);
    let mut stdout = Vec::new();
    child
        .child_mut()
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_end(&mut stdout)
        .map_err(|e| format!("reading {}: {e}", bin.display()))?;
    let exited = child
        .wait()
        .map_err(|e| format!("waiting for {}: {e}", bin.display()))?;
    Ok(Run {
        ok: exited.success(),
        secs: t0.elapsed().as_secs_f64(),
        stdout,
        peak_rss_mb: exited.peak_rss_mb,
    })
}

/// `all_experiments` output up to its timing line, or `None` when the
/// line is missing.
fn strip_completed(stdout: &[u8]) -> Option<&[u8]> {
    let text = std::str::from_utf8(stdout).ok()?;
    text.rfind(COMPLETED).map(|i| &stdout[..i])
}

/// What `all_experiments` prints for a sequence of child outputs.
fn concatenated(children: &[Run]) -> Vec<u8> {
    let mut out = Vec::new();
    for (name, run) in CHILDREN.iter().zip(children) {
        out.extend_from_slice(format!("\n######## {name} ########\n\n").as_bytes());
        out.extend_from_slice(&run.stdout);
    }
    out
}

/// Generates, in-process and with the figures' seed, the eval-length trace
/// of every profile `SETUP_REPS` times: the input preparation each child
/// repeats for itself. Appends the time of each to `times`.
fn setup(profiles: &[WorkloadProfile], times: &mut Vec<f64>) {
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        for p in profiles {
            std::hint::black_box(generate(p, DEFAULT_SEED, EVAL_UOPS));
        }
        times.push(t0.elapsed().as_secs_f64());
    }
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let all = args.bin_dir.join("all_experiments");
    for bin in std::iter::once(all.clone()).chain(CHILDREN.iter().map(|c| args.bin_dir.join(c))) {
        if !bin.is_file() {
            return Err(format!("missing release binary {}", bin.display()));
        }
    }
    if args.seed != DEFAULT_SEED {
        println!(
            "eval: fixed-seed workload; --seed {} ignored (figures use {DEFAULT_SEED})",
            args.seed
        );
    }
    let profiles = spec::all_profiles();
    let mut setup_times = Vec::new();
    setup(&profiles, &mut setup_times);

    let mut expected: Option<Vec<u8>> = None;
    let mut walls = Vec::new();
    let mut child_secs: Vec<Vec<f64>> = vec![Vec::new(); CHILDREN.len()];
    let mut pass_secs = Vec::new();
    let mut peak_rss: f64 = 0.0;
    let t0 = Instant::now();
    while walls.len() < MIN_REPS || t0.elapsed() < args.seconds {
        let r = run_binary(&all, &args.work_dir)?;
        peak_rss = peak_rss.max(r.peak_rss_mb);
        report.check(r.ok, || "all_experiments exited with failure".into());
        let body = strip_completed(&r.stdout).map(<[u8]>::to_vec);
        match (&expected, body) {
            (_, None) => report.check(false, || {
                "all_experiments printed no completion line".into()
            }),
            (None, Some(b)) => expected = Some(b),
            (Some(e), Some(b)) => report.check(*e == b, || {
                "all_experiments output differs between repeats".into()
            }),
        }
        walls.push(r.secs);
        setup(&profiles, &mut setup_times);

        if report.traced() {
            let mut runs = Vec::with_capacity(CHILDREN.len());
            for (i, name) in CHILDREN.iter().enumerate() {
                let r = run_binary(&args.bin_dir.join(name), &args.work_dir)?;
                peak_rss = peak_rss.max(r.peak_rss_mb);
                report.check(r.ok, || format!("{name} exited with failure"));
                child_secs[i].push(r.secs);
                runs.push(r);
            }
            pass_secs.push(runs.iter().map(|r| r.secs).sum::<f64>());
            let joined = concatenated(&runs);
            report.check(expected.as_deref() == Some(joined.as_slice()), || {
                "children run one by one print other output than all_experiments".into()
            });
        }
    }
    // A child's peak resident set also counts what this process held when
    // it spawned the child (see `Exited`); printed so a reader can see that
    // the children's own figure is the larger.
    println!(
        "eval: {} runs of all_experiments at {EVAL_UOPS} uops; spread {:.2}%; \
         harness peak RSS {:.1} MB",
        walls.len(),
        spread_pct(&walls),
        own_peak_rss_mb()
    );
    report.e2e("wall_s", median(&walls), "s");
    let setup_s = median(&setup_times);
    report.e2e("setup_s", setup_s, "s");
    report.layer(
        "workloads.generate_ns_per_uop",
        setup_s * 1e9 / (profiles.len() * EVAL_UOPS) as f64,
        "ns",
    );
    report.e2e("peak_rss_mb", peak_rss, "MB");
    if report.traced() {
        for (name, secs) in CHILDREN.iter().zip(&child_secs) {
            report.layer(&format!("bench.child_s.{name}"), median(secs), "s");
        }
        report.layer(
            "trace_overhead_pct",
            (median(&pass_secs) / median(&walls) - 1.0) * 100.0,
            "%",
        );
    }
    Ok(())
}

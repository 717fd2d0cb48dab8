//! `sim-sampled`: cluster-and-project runs at 1.5M uops over three
//! profiles and two predictor kinds, with plan and warm-up charged.
//!
//! The untraced pass times the one-shot `run_sampled` call per cell. The
//! traced pass alternates those sweeps with sweeps that make the same
//! three public calls one by one (`plan`, `warm_checkpoints`,
//! `run_sampled_with`) and time each. Full-trace reference runs, used for
//! the projection error, are made before the timed region.

use std::time::Instant;

use mascot_predictors::PredictorKind;
use mascot_sampling::{plan, run_sampled, run_sampled_with, warm_checkpoints, SamplingConfig};
use mascot_sim::{simulate, CoreConfig, FunctionalWarmer, SimStats, Trace};

use crate::host::own_peak_rss_mb;
use crate::report::Report;
use crate::sim_full::{check_cell, profiles, regenerate};
use crate::stats::{median, spread_pct};
use crate::Args;

/// High bypass opportunity, streaming, and pointer chasing.
const PROFILES: [&str; 3] = ["perlbench2", "bwaves", "mcf"];
/// The paper's predictor and the classic baseline.
const KINDS: [PredictorKind; 2] = [PredictorKind::Mascot, PredictorKind::StoreSets];
/// Trace length per profile.
const TRACE_UOPS: usize = 1_500_000;
/// Trace generations timed before the first sweep; one more follows every
/// sweep, so the samples see the same host as the sweeps: over ten seeds
/// the median spread 24 % with every set-up up front and 8 % interleaved.
/// The median is reported.
const SETUP_REPS: usize = 3;
/// Fewest sweeps per pass.
const MIN_SWEEPS: usize = 3;

/// One sampled cell.
struct Cell {
    plan_s: f64,
    warm_s: f64,
    measure_s: f64,
    projected: SimStats,
    simulated_uops: u64,
    represented_uops: u64,
}

impl Cell {
    fn secs(&self) -> f64 {
        self.plan_s + self.warm_s + self.measure_s
    }
}

/// Every (trace, kind) cell in order: one `run_sampled` call each, or,
/// when `split`, its three public steps timed one by one.
fn sweep(traces: &[Trace], core: &CoreConfig, cfg: &SamplingConfig, split: bool) -> Vec<Cell> {
    let mut cells = Vec::with_capacity(traces.len() * KINDS.len());
    for trace in traces {
        for kind in KINDS {
            if split {
                let t0 = Instant::now();
                let plan = plan(trace, cfg);
                let t1 = Instant::now();
                let warm = warm_checkpoints(trace, &plan, kind, core, cfg);
                let t2 = Instant::now();
                let out = run_sampled_with(trace, &plan, &warm, core, cfg);
                let t3 = Instant::now();
                cells.push(Cell {
                    plan_s: (t1 - t0).as_secs_f64(),
                    warm_s: (t2 - t1).as_secs_f64(),
                    measure_s: (t3 - t2).as_secs_f64(),
                    projected: out.projected,
                    simulated_uops: out.simulated_uops,
                    represented_uops: out.represented_uops,
                });
            } else {
                let t0 = Instant::now();
                let out = run_sampled(trace, kind, core, cfg);
                cells.push(Cell {
                    plan_s: 0.0,
                    warm_s: 0.0,
                    measure_s: t0.elapsed().as_secs_f64(),
                    projected: out.projected,
                    simulated_uops: out.simulated_uops,
                    represented_uops: out.represented_uops,
                });
            }
        }
    }
    cells
}

/// Full-trace reference runs of every cell, two at a time, with the host
/// time of each. Outside the timed region.
fn reference(traces: &[Trace], core: &CoreConfig) -> Vec<(SimStats, f64)> {
    let jobs: Vec<(&Trace, PredictorKind)> = traces
        .iter()
        .flat_map(|t| KINDS.iter().map(move |&k| (t, k)))
        .collect();
    let half = jobs.len().div_ceil(2);
    std::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .chunks(half)
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|&(trace, kind)| {
                            let t0 = Instant::now();
                            let stats = simulate(trace, core, &mut kind.build());
                            (stats, t0.elapsed().as_secs_f64())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread panicked"))
            .collect()
    })
}

fn check_sweep(report: &mut Report, traces: &[Trace], first: &[Cell], cells: &[Cell]) {
    for (i, cell) in cells.iter().enumerate() {
        let trace = &traces[i / KINDS.len()];
        let what = format!(
            "sampled {}/{}",
            PROFILES[i / KINDS.len()],
            KINDS[i % KINDS.len()].label()
        );
        report.check(
            cell.represented_uops == trace.len() as u64
                && cell.simulated_uops > 0
                && cell.simulated_uops < trace.len() as u64,
            || {
                format!(
                    "{what}: simulated {} / represented {} of {} uops",
                    cell.simulated_uops,
                    cell.represented_uops,
                    trace.len()
                )
            },
        );
        report.check(cell.projected == first[i].projected, || {
            format!("{what}: projection differs from the first sweep")
        });
    }
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let core = CoreConfig::golden_cove();
    let cfg = SamplingConfig::default();
    let profiles = profiles(&PROFILES)?;
    let mut traces = Vec::new();
    let mut setup_times: Vec<f64> = (0..SETUP_REPS)
        .map(|_| regenerate(&profiles, args.seed, TRACE_UOPS, &mut traces))
        .collect();
    let uops: u64 = traces.iter().map(|t| t.len() as u64).sum();

    let full = reference(&traces, &core);
    for (i, (stats, _)) in full.iter().enumerate() {
        let what = format!(
            "full {}/{}",
            PROFILES[i / KINDS.len()],
            KINDS[i % KINDS.len()].label()
        );
        check_cell(report, &what, &traces[i / KINDS.len()], stats);
    }

    let first = sweep(&traces, &core, &cfg, report.traced());
    check_sweep(report, &traces, &first, &first);
    let mut whole: Vec<Vec<Cell>> = Vec::new();
    let mut split: Vec<Vec<Cell>> = Vec::new();
    let t0 = Instant::now();
    while whole.len() < MIN_SWEEPS || t0.elapsed() < args.seconds {
        let cells = sweep(&traces, &core, &cfg, false);
        check_sweep(report, &traces, &first, &cells);
        whole.push(cells);
        if report.traced() {
            let cells = sweep(&traces, &core, &cfg, true);
            check_sweep(report, &traces, &first, &cells);
            split.push(cells);
        }
        setup_times.push(regenerate(&profiles, args.seed, TRACE_UOPS, &mut traces));
    }
    let setup_s = median(&setup_times);
    report.e2e("setup_s", setup_s, "s");
    report.layer(
        "workloads.generate_ns_per_uop",
        setup_s * 1e9 / uops as f64,
        "ns",
    );

    let represented = KINDS.len() as f64 * uops as f64;
    // Mean seconds per sweep over the run (see sim-full on why a mean).
    let per_sweep = |sweeps: &[Vec<Cell>]| {
        sweeps.iter().flatten().map(Cell::secs).sum::<f64>() / sweeps.len() as f64
    };
    let sweep_secs: Vec<f64> = whole
        .iter()
        .map(|c| c.iter().map(Cell::secs).sum::<f64>())
        .collect();
    let errs: Vec<f64> = first
        .iter()
        .zip(&full)
        .map(|(cell, (stats, _))| (cell.projected.ipc() / stats.ipc() - 1.0).abs() * 100.0)
        .collect();
    let err_max = errs.iter().copied().fold(0.0, f64::max);
    let err_mean = errs.iter().sum::<f64>() / errs.len() as f64;
    println!(
        "sim-sampled: {} sweeps of {} cells; {:.0} represented uops/s over the run, \
         per-sweep spread {:.2}%; projected IPC error max {err_max:.3}% mean {err_mean:.3}% \
         against full-trace runs",
        whole.len(),
        first.len(),
        represented / per_sweep(&whole),
        spread_pct(&sweep_secs)
    );
    // One sweep, plan and warm-up charged, is the workload's unit of work.
    report.e2e("wall_s", per_sweep(&whole), "s");
    report.e2e("peak_rss_mb", own_peak_rss_mb(), "MB");
    if !report.traced() {
        return Ok(());
    }

    // Mean seconds per sweep of one phase.
    let phase = |f: fn(&Cell) -> f64| -> f64 {
        split.iter().flatten().map(f).sum::<f64>() / split.len() as f64
    };
    let measure_s = phase(|c| c.measure_s);
    let full_s: f64 = full.iter().map(|(_, s)| s).sum();
    report.layer("sampling.plan_s", phase(|c| c.plan_s), "s");
    report.layer("sampling.warm_s", phase(|c| c.warm_s), "s");
    report.layer("sampling.measure_s", measure_s, "s");
    report.layer(
        "sampling.simulated_uops",
        first.iter().map(|c| c.simulated_uops).sum::<u64>() as f64,
        "uops",
    );
    report.layer(
        "sampling.represented_uops",
        first.iter().map(|c| c.represented_uops).sum::<u64>() as f64,
        "uops",
    );
    report.layer("sampling.marginal_speedup", full_s / measure_s, "x");
    report.layer("sampling.ipc_err_mean_pct", err_mean, "%");
    report.layer("sampling.ipc_err_max_pct", err_max, "%");

    // FunctionalWarmer::replay on its own: one uninterrupted pass per cell.
    let t_warm = Instant::now();
    for trace in &traces {
        for kind in KINDS {
            let mut warmer = FunctionalWarmer::new(&core, kind.build());
            warmer.replay(&trace.uops);
            std::hint::black_box(warmer.warmed_uops());
        }
    }
    report.layer(
        "sim.functional_warm_ns_per_uop",
        t_warm.elapsed().as_secs_f64() * 1e9 / represented,
        "ns",
    );
    report.layer(
        "trace_overhead_pct",
        (per_sweep(&split) / per_sweep(&whole) - 1.0) * 100.0,
        "%",
    );
    Ok(())
}

//! `sim-full`: sequential, single-threaded `simulate` over five profiles
//! and five predictor kinds at 150k uops on Golden Cove.
//!
//! The untraced pass repeats the 25-cell sweep and reports its mean wall
//! time. The traced pass runs every cell twice in a row, plain
//! and through [`TimedPredictor`], splitting `simulate` into predictor time
//! and the cycle loop (the rest), and checks that the wrapper changed
//! nothing.

use std::time::Instant;

use mascot_predictors::PredictorKind;
use mascot_sim::{simulate, CoreConfig, SimStats, Trace};
use mascot_workloads::{generate, spec, WorkloadProfile};

use crate::host::own_peak_rss_mb;
use crate::metrics::bypasses;
use crate::report::Report;
use crate::stats::{geomean, median, spread_pct};
use crate::timed::{Clock, TimedPredictor, Timings};
use crate::Args;

/// High and low bypass opportunity, streaming, pointer chasing, and a
/// branch-heavy profile with frequent history rewinds.
pub const PROFILES: [&str; 5] = ["perlbench2", "lbm", "bwaves", "mcf", "exchange2"];
/// The paper's predictor, two baselines of each family, and the
/// near-free oracle that gives the core-only floor.
pub const KINDS: [PredictorKind; 5] = [
    PredictorKind::Mascot,
    PredictorKind::Phast,
    PredictorKind::NoSq,
    PredictorKind::StoreSets,
    PredictorKind::PerfectMdp,
];
/// Trace length per profile.
pub const TRACE_UOPS: usize = 150_000;
/// Trace generations timed before the first sweep; the median is reported.
/// None follow the sweeps: regenerating between them makes how the
/// allocator reuses the freed traces vary from run to run, and with it the
/// generation time and peak resident set (52 or 80 MB).
const SETUP_REPS: usize = 7;
/// Fewest sweeps per pass, however short `--seconds` is.
const MIN_SWEEPS: usize = 3;

/// The workload profiles called `names`.
pub fn profiles(names: &[&str]) -> Result<Vec<WorkloadProfile>, String> {
    names
        .iter()
        .map(|n| spec::profile(n).ok_or_else(|| format!("unknown profile {n}")))
        .collect()
}

/// Generates every profile at `uops` from `seed` into `traces` and returns
/// the wall time. The previous set is freed first, so the peak resident
/// set holds one; generation is deterministic, so the new set equals it.
pub fn regenerate(
    profiles: &[WorkloadProfile],
    seed: u64,
    uops: usize,
    traces: &mut Vec<Trace>,
) -> f64 {
    traces.clear();
    let t0 = Instant::now();
    traces.extend(profiles.iter().map(|p| generate(p, seed, uops)));
    t0.elapsed().as_secs_f64()
}

/// The checks every simulated cell must pass: the model's accounting
/// identities hold and every trace uop committed.
pub fn check_cell(report: &mut Report, what: &str, trace: &Trace, stats: &SimStats) {
    let identities = stats.check_identities();
    let committed = stats.committed_uops == trace.len() as u64;
    report.check(identities.is_ok() && committed, || {
        format!(
            "{what}: identities {:?}, committed {} of {} uops",
            identities.err(),
            stats.committed_uops,
            trace.len()
        )
    });
}

/// One cell of a sweep.
struct Cell {
    secs: f64,
    stats: SimStats,
    timings: Option<Timings>,
}

/// Simulates one cell, through the timing wrapper when `timed`.
fn run_cell(trace: &Trace, core: &CoreConfig, kind: PredictorKind, timed: bool) -> Cell {
    if timed {
        let mut pred = TimedPredictor::new(kind.build());
        let t0 = Instant::now();
        let stats = simulate(trace, core, &mut pred);
        let secs = t0.elapsed().as_secs_f64();
        Cell {
            secs,
            stats,
            timings: Some(pred.timings),
        }
    } else {
        let mut pred = kind.build();
        let t0 = Instant::now();
        let stats = simulate(trace, core, &mut pred);
        let secs = t0.elapsed().as_secs_f64();
        Cell {
            secs,
            stats,
            timings: None,
        }
    }
}

/// Runs the 25 cells in order. When `paired`, each cell also runs through
/// the wrapper right after its plain run, so the two see the same host
/// state; the wrapped cells are the second vector.
fn sweep(traces: &[Trace], core: &CoreConfig, paired: bool) -> (Vec<Cell>, Vec<Cell>) {
    let mut plain = Vec::with_capacity(traces.len() * KINDS.len());
    let mut wrapped = Vec::new();
    for trace in traces {
        for kind in KINDS {
            plain.push(run_cell(trace, core, kind, false));
            if paired {
                wrapped.push(run_cell(trace, core, kind, true));
            }
        }
    }
    (plain, wrapped)
}

/// Index of `(profile, kind)` in a sweep.
fn at(p: usize, k: usize) -> usize {
    p * KINDS.len() + k
}

/// Checks a sweep: every cell's own identities, and bit-equality with the
/// first sweep (the simulation is deterministic; the wrapper must not
/// change it).
fn check_sweep(
    report: &mut Report,
    traces: &[Trace],
    reference: &[Cell],
    cells: &[Cell],
    label: &str,
) {
    for (p, trace) in traces.iter().enumerate() {
        for (k, kind) in KINDS.iter().enumerate() {
            let cell = &cells[at(p, k)];
            let what = format!("{label} {}/{}", PROFILES[p], kind.label());
            check_cell(report, &what, trace, &cell.stats);
            report.check(cell.stats == reference[at(p, k)].stats, || {
                format!("{what}: SimStats differ from the first plain sweep")
            });
        }
    }
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let core = CoreConfig::golden_cove();
    let profiles = profiles(&PROFILES)?;
    let mut traces = Vec::new();
    let setup_times: Vec<f64> = (0..SETUP_REPS)
        .map(|_| regenerate(&profiles, args.seed, TRACE_UOPS, &mut traces))
        .collect();
    let uops: u64 = traces.iter().map(|t| t.len() as u64).sum();
    let setup_s = median(&setup_times);
    report.e2e("setup_s", setup_s, "s");
    report.layer(
        "workloads.generate_ns_per_uop",
        setup_s * 1e9 / uops as f64,
        "ns",
    );

    let (reference, _) = sweep(&traces, &core, false);
    check_sweep(report, &traces, &reference, &reference, "plain");
    let mut plain: Vec<Vec<Cell>> = Vec::new();
    let mut wrapped: Vec<Vec<Cell>> = Vec::new();
    let t0 = Instant::now();
    while plain.len() < MIN_SWEEPS || t0.elapsed() < args.seconds {
        let (cells, timed) = sweep(&traces, &core, report.traced());
        check_sweep(report, &traces, &reference, &cells, "plain");
        plain.push(cells);
        if report.traced() {
            check_sweep(report, &traces, &reference, &timed, "wrapped");
            wrapped.push(timed);
        }
    }

    // One sweep is the workload's unit of work. Its wall time is the mean
    // over the run, all sweeps' time over their count: the host alternates
    // between two speeds in bursts of up to seconds, and a mean follows the
    // mix smoothly where a median of repeats jumps between the two.
    let sweep_uops = (uops * KINDS.len() as u64) as f64;
    let secs = |cells: &[Cell]| cells.iter().map(|x| x.secs).sum::<f64>();
    let sweep_s = plain.iter().map(|c| secs(c)).sum::<f64>() / plain.len() as f64;
    let per_sweep: Vec<f64> = plain.iter().map(|c| secs(c)).collect();
    println!(
        "sim-full: {} sweeps of {} cells, {sweep_uops} uops each; {:.0} uops/s over the run; \
         per-sweep spread {:.2}%",
        plain.len(),
        reference.len(),
        sweep_uops / sweep_s,
        spread_pct(&per_sweep)
    );
    report.e2e("wall_s", sweep_s, "s");
    report.e2e("peak_rss_mb", own_peak_rss_mb(), "MB");
    if report.traced() {
        traced_metrics(report, &traces, &reference, &plain, &wrapped, uops);
    }
    Ok(())
}

fn traced_metrics(
    report: &mut Report,
    traces: &[Trace],
    reference: &[Cell],
    plain: &[Vec<Cell>],
    wrapped: &[Vec<Cell>],
    uops: u64,
) {
    let clock = Clock::calibrate();
    // Seconds of kind `k` over every profile and sweep.
    let kind_secs = |sweeps: &[Vec<Cell>], k: usize| -> f64 {
        sweeps
            .iter()
            .flat_map(|cells| (0..traces.len()).map(move |p| cells[at(p, k)].secs))
            .sum()
    };
    let plain_uops = uops as f64 * plain.len() as f64;
    let wrapped_uops = uops as f64 * wrapped.len() as f64;
    let mut ns_per_uop = [0.0; KINDS.len()];
    let mut pred_per_uop = [0.0; KINDS.len()];
    let mut timing_err: f64 = 0.0;
    let mut addback_gap: f64 = 0.0;
    for (k, kind) in KINDS.iter().enumerate() {
        let label = kind.label();
        ns_per_uop[k] = kind_secs(plain, k) * 1e9 / plain_uops;
        // The traced run's own timing error: the spread of this kind's
        // time over the plain sweeps.
        let per_sweep: Vec<f64> = plain
            .iter()
            .map(|cells| kind_secs(std::slice::from_ref(cells), k))
            .collect();
        timing_err = timing_err.max(spread_pct(&per_sweep));

        let mut t = Timings::default();
        for cells in wrapped {
            for p in 0..traces.len() {
                t.accumulate(&cells[at(p, k)].timings.expect("wrapped cell has timings"));
            }
        }
        let wrapped_ns = kind_secs(wrapped, k) * 1e9;
        let pred_ns = t.self_ns(&clock);
        // Each timed interval holds one stopwatch read; the other read of
        // the pair falls outside it, in what would otherwise count as the
        // loop.
        let cycle_ns = wrapped_ns - t.raw_ns(&clock) - t.timed() as f64 * clock.read_ns();
        pred_per_uop[k] = pred_ns / wrapped_uops;
        let cycle_per_uop = cycle_ns / wrapped_uops;
        addback_gap = addback_gap
            .max(((cycle_per_uop + pred_per_uop[k]) / ns_per_uop[k] - 1.0).abs() * 100.0);
        report.layer(&format!("sim.ns_per_uop.{label}"), ns_per_uop[k], "ns");
        report.layer(
            &format!("sim.cycle_loop_ns_per_uop.{label}"),
            cycle_per_uop,
            "ns",
        );
        report.layer(
            &format!("predictors.predict_ns.{label}"),
            t.predict.ns_per_call(&clock),
            "ns",
        );
        report.layer(
            &format!("predictors.train_ns.{label}"),
            t.train.ns_per_call(&clock),
            "ns",
        );
        report.layer(
            &format!("predictors.branch_ns.{label}"),
            t.branch.ns_per_call(&clock),
            "ns",
        );
        // The oracle never mispredicts a dependence, so no squash rewinds
        // its history.
        if *kind != PredictorKind::PerfectMdp {
            report.layer(
                &format!("predictors.rewind_ns.{label}"),
                t.rewind.ns_per_call(&clock),
                "ns",
            );
        }
        report.layer(
            &format!("predictors.store_ns.{label}"),
            t.store.ns_per_call(&clock),
            "ns",
        );
        report.layer(
            &format!("predictors.calls.{label}"),
            (t.calls() / wrapped.len() as u64) as f64,
            "count",
        );
        report.layer(
            &format!("predictors.share.{label}"),
            pred_ns / (cycle_ns + pred_ns),
            "ratio",
        );

        let stats: Vec<&SimStats> = (0..traces.len())
            .map(|p| &reference[at(p, k)].stats)
            .collect();
        let ipcs: Vec<f64> = stats.iter().map(|s| s.ipc()).collect();
        let sum = |f: fn(&SimStats) -> u64| stats.iter().map(|s| f(s)).sum::<u64>() as f64;
        report.layer(&format!("sim.ipc.{label}"), geomean(&ipcs), "ipc");
        report.layer(&format!("sim.cycles.{label}"), sum(|s| s.cycles), "cycles");
        report.layer(
            &format!("sim.mispredictions.{label}"),
            sum(SimStats::total_mispredictions),
            "count",
        );
        // Counts a kind cannot produce (squashes of bypasses it never
        // makes, or of an oracle that never errs) are left out.
        if bypasses(*kind) {
            report.layer(
                &format!("sim.smb_squashes.{label}"),
                sum(|s| s.smb_squashes),
                "count",
            );
        }
        if *kind != PredictorKind::PerfectMdp {
            report.layer(
                &format!("sim.mem_order_squashes.{label}"),
                sum(|s| s.mem_order_squashes),
                "count",
            );
        }
    }
    let floor = KINDS
        .iter()
        .position(|&k| k == PredictorKind::PerfectMdp)
        .expect("perfect-mdp is a sim-full kind");
    for (k, kind) in KINDS.iter().enumerate() {
        if k == floor {
            continue;
        }
        let differential = ns_per_uop[k] - ns_per_uop[floor];
        let wrapper_differential = pred_per_uop[k] - pred_per_uop[floor];
        report.layer(
            &format!("predictors.differential_ns_per_uop.{}", kind.label()),
            differential,
            "ns",
        );
        report.layer(
            &format!("predictors.wrapper_gap_ns_per_uop.{}", kind.label()),
            differential - wrapper_differential,
            "ns",
        );
    }
    report.layer("sim.addback_gap_pct", addback_gap, "%");
    report.layer("sim.timing_err_pct", timing_err, "%");
    println!(
        "sim-full: cycle loop + predictor adds back to ns_per_uop within {addback_gap:.2}% \
         (plain-sweep spread up to {timing_err:.2}%, stopwatch read {:.1} ns)",
        clock.read_ns()
    );

    let total = |sweeps: &[Vec<Cell>]| (0..KINDS.len()).map(|k| kind_secs(sweeps, k)).sum::<f64>();
    report.layer(
        "trace_overhead_pct",
        (total(wrapped) / wrapped_uops / (total(plain) / plain_uops) - 1.0) * 100.0,
        "%",
    );
}

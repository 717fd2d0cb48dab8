//! Experiment harness: builds predictors, runs (benchmark × predictor ×
//! core) simulations in parallel, and aggregates results.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use mascot::MemDepPredictor;
use mascot_predictors::AnyPredictor;
// The registry of buildable predictor configurations lives in
// `mascot-predictors` (shared with `mascot-serve`); re-exported here so
// every figure/table binary keeps importing it from the harness.
pub use mascot_predictors::PredictorKind;
pub use mascot_sampling::SamplingConfig;
use mascot_sampling::{ClusterPlan, WarmSet};
use mascot_sim::{CoreConfig, SimStats, Simulator, Trace};
use mascot_workloads::{generate, spec, WorkloadProfile};

/// Default trace length per benchmark (micro-ops).
pub const DEFAULT_TRACE_UOPS: usize = 150_000;
/// Default generation seed.
pub const DEFAULT_SEED: u64 = 2025;

/// Entry cap for the process-wide trace cache.
const TRACE_CACHE_MAX_ENTRIES: usize = 48;
/// Total requested-uop budget for the process-wide trace cache. Long-trace
/// sweeps (sampled-simulation gates run 10× traces) would otherwise pin
/// tens of millions of uops per distinct key for the process lifetime.
const TRACE_CACHE_MAX_UOPS: usize = 24_000_000;

#[derive(Debug)]
struct SlotEntry<K, V> {
    key: K,
    weight: usize,
    slot: Arc<OnceLock<Arc<V>>>,
    last_used: u64,
}

/// A bounded LRU of values built at most once per key: the one cache
/// mechanism behind the trace cache, the sampling-prep cache and the
/// [`Evaluation`] result memo. Retention is bounded by an entry count and
/// by a total weight (whatever unit the caller charges per key).
///
/// The registry lock is held only to find/insert a key's slot, never while
/// building, so workers building *different* values proceed in parallel;
/// workers racing for the *same* key rendezvous on the slot's `OnceLock`
/// and build it exactly once. Eviction drops only the registry's reference
/// — a worker holding a slot for an evicted key finishes building into its
/// own `Arc`s. Lookup is a linear scan: at these entry caps that is
/// trivially cheaper than the milliseconds a hit saves.
#[derive(Debug)]
struct SlotCache<K, V> {
    /// Entries plus a monotonic access tick, under one lock.
    inner: Mutex<(Vec<SlotEntry<K, V>>, u64)>,
    max_entries: usize,
    max_weight: usize,
}

impl<K: PartialEq, V> SlotCache<K, V> {
    const fn new(max_entries: usize, max_weight: usize) -> Self {
        Self {
            inner: Mutex::new((Vec::new(), 0)),
            max_entries,
            max_weight,
        }
    }

    /// Returns the value for `key`, building it with `build` unless it is
    /// cached. `weight` is what the entry charges against the weight bound.
    fn get_or_init(&self, key: K, weight: usize, build: impl FnOnce() -> V) -> Arc<V> {
        let slot = {
            let mut guard = self.inner.lock().expect("slot cache poisoned");
            let (entries, tick) = &mut *guard;
            *tick += 1;
            let now = *tick;
            match entries.iter_mut().find(|e| e.key == key) {
                Some(entry) => {
                    entry.last_used = now;
                    Arc::clone(&entry.slot)
                }
                None => {
                    // Evict least-recently-used entries until the new one
                    // fits both bounds (an oversized single value still
                    // gets cached — the bounds limit *retention*, not
                    // admission, so the build-once rendezvous works for
                    // any size).
                    while !entries.is_empty()
                        && (entries.len() >= self.max_entries
                            || entries.iter().map(|e| e.weight).sum::<usize>() + weight
                                > self.max_weight)
                    {
                        let lru = entries
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, e)| e.last_used)
                            .map(|(i, _)| i)
                            .expect("checked non-empty");
                        entries.swap_remove(lru);
                    }
                    let slot = Arc::default();
                    entries.push(SlotEntry {
                        key,
                        weight,
                        slot: Arc::clone(&slot),
                        last_used: now,
                    });
                    slot
                }
            }
        };
        Arc::clone(slot.get_or_init(|| Arc::new(build())))
    }
}

/// The trace cache, keyed by `(profile, seed, uops)` and weighted by uops.
type TraceCache = SlotCache<(WorkloadProfile, u64, usize), Trace>;

impl TraceCache {
    fn get(&self, profile: &WorkloadProfile, seed: u64, trace_uops: usize) -> Arc<Trace> {
        self.get_or_init((profile.clone(), seed, trace_uops), trace_uops, || {
            generate(profile, seed, trace_uops)
        })
    }
}

/// Returns the trace for `(profile, seed, uops)`, generating it at most
/// once and sharing it read-only while it stays cached. A full suite run
/// is `|profiles| × |kinds|` simulations but only `|profiles|` distinct
/// traces; generation is a double-digit share of short runs, so every
/// caller on the (benchmark × predictor) cross product goes through here.
///
/// Keyed by the full profile (not just its name), so ad-hoc profiles with
/// colliding names stay distinct. The cache is a bounded LRU
/// (`TRACE_CACHE_MAX_ENTRIES` entries, `TRACE_CACHE_MAX_UOPS` total
/// requested uops): least-recently-used traces are dropped once either
/// bound is exceeded, so long-lived processes sweeping many long traces
/// don't accumulate every trace they ever touched.
pub fn cached_trace(profile: &WorkloadProfile, seed: u64, trace_uops: usize) -> Arc<Trace> {
    static CACHE: TraceCache = TraceCache::new(TRACE_CACHE_MAX_ENTRIES, TRACE_CACHE_MAX_UOPS);
    CACHE.get(profile, seed, trace_uops)
}

/// Entry cap for the process-wide sampling-prep cache. Each entry holds one
/// warm-up checkpoint per cluster (~1–2 MiB of cache tags and predictor
/// tables each), so the cap bounds resident memory to a few hundred MiB in
/// the worst case while still covering a whole benchmark × predictor sweep
/// at one configuration.
const PREP_CACHE_MAX_ENTRIES: usize = 6;

/// The reusable half of a sampled run for one `(trace, predictor, core,
/// config)` cell: the cluster plan and the per-cluster functional warm-up
/// checkpoints. Building this walks the trace twice (fingerprinting, then
/// the architectural warm pass, one lane per warmed structure); measuring
/// with it simulates only `clusters × (warmup + interval)` uops.
#[derive(Debug)]
pub struct SamplingPrep {
    /// The clustering decision (predictor-independent).
    pub plan: ClusterPlan,
    /// Per-cluster warm-up checkpoints for this predictor kind.
    pub warm: WarmSet,
}

type PrepKey = (WorkloadProfile, u64, usize, PredictorKind, CoreConfig, SamplingConfig);

/// Returns the sampling prep for a cell, building it at most once while it
/// stays cached (a `PREP_CACHE_MAX_ENTRIES`-entry LRU of the same kind as
/// [`cached_trace`]'s). This is what makes sampled *sweeps* fast: the plan
/// and warm checkpoints are a per-trace/per-predictor investment — itself
/// several times cheaper than one full simulation — after which every
/// further sampled run of that cell costs only its representative windows.
/// The SimPoint checkpoint workflow, in-process.
pub fn cached_sampling_prep(
    profile: &WorkloadProfile,
    trace: &Trace,
    kind: PredictorKind,
    core: &CoreConfig,
    seed: u64,
    trace_uops: usize,
    cfg: &SamplingConfig,
) -> Arc<SamplingPrep> {
    static CACHE: SlotCache<PrepKey, SamplingPrep> =
        SlotCache::new(PREP_CACHE_MAX_ENTRIES, usize::MAX);
    let key = (profile.clone(), seed, trace_uops, kind, core.clone(), *cfg);
    CACHE.get_or_init(key, 0, || {
        let plan = mascot_sampling::plan(trace, cfg);
        let warm = mascot_sampling::warm_checkpoints(trace, &plan, kind, core, cfg);
        SamplingPrep { plan, warm }
    })
}

/// The outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Benchmark name.
    pub benchmark: String,
    /// Predictor label.
    pub predictor: String,
    /// Core configuration name.
    pub core: String,
    /// Full simulator statistics.
    pub stats: SimStats,
    /// Predictor storage (KiB).
    pub storage_kib: f64,
    /// Wall-clock time of the simulation itself (milliseconds), excluding
    /// trace generation and predictor construction.
    pub wall_ms: f64,
    /// Simulated micro-ops committed per wall-clock second.
    pub uops_per_sec: f64,
}

/// `n` per second of `secs`, or 0 for an unmeasurably short run.
fn per_sec(n: u64, secs: f64) -> f64 {
    if secs > 0.0 {
        n as f64 / secs
    } else {
        0.0
    }
}

/// Simulates `trace` on `predictor` (the simulator set up by `configure`),
/// timing the simulation but not the predictor's construction.
fn timed_run(
    trace: &Trace,
    core: &CoreConfig,
    predictor: &mut AnyPredictor,
    label: String,
    configure: impl for<'s> FnOnce(Simulator<'s, AnyPredictor>) -> Simulator<'s, AnyPredictor>,
) -> RunResult {
    let t0 = Instant::now();
    let stats = configure(Simulator::new(trace, core, predictor)).run();
    let secs = t0.elapsed().as_secs_f64();
    RunResult {
        benchmark: trace.name.clone(),
        predictor: label,
        core: core.name.clone(),
        storage_kib: predictor.storage_kib(),
        wall_ms: secs * 1e3,
        uops_per_sec: per_sec(stats.committed_uops, secs),
        stats,
    }
}

/// Runs one simulation against a caller-owned predictor (used by the
/// Figs. 13–14 experiments, which inspect predictor-internal state after
/// the run). `tuning_period` enables periodic §IV-F snapshots.
pub fn run_with_predictor(
    profile: &WorkloadProfile,
    predictor: &mut AnyPredictor,
    core: &CoreConfig,
    trace_uops: usize,
    seed: u64,
    tuning_period: Option<u64>,
) -> RunResult {
    let trace = cached_trace(profile, seed, trace_uops);
    let label = predictor.name().to_string();
    timed_run(&trace, core, predictor, label, |sim| match tuning_period {
        Some(p) => sim.with_tuning_period(p),
        None => sim,
    })
}

/// Runs a caller-supplied trace (adversarial composers and other traces
/// that do not come from a [`WorkloadProfile`]) with a fresh predictor.
/// `tenant_split` enables per-tenant misprediction attribution at the
/// given PC boundary (see `mascot_sim::Simulator::with_tenant_split`).
pub fn run_trace(
    trace: &Trace,
    kind: PredictorKind,
    core: &CoreConfig,
    tenant_split: Option<u64>,
) -> RunResult {
    let label = kind.label().into_owned();
    timed_run(trace, core, &mut kind.build(), label, |sim| match tenant_split {
        Some(boundary) => sim.with_tenant_split(boundary),
        None => sim,
    })
}

/// Runs one (benchmark, predictor, core) combination over the whole trace.
/// Every call simulates: results are memoised only inside an
/// [`Evaluation`].
pub fn run_one(
    profile: &WorkloadProfile,
    kind: PredictorKind,
    core: &CoreConfig,
    trace_uops: usize,
    seed: u64,
) -> RunResult {
    #[cfg(test)]
    tests::SIMULATIONS.with(|n| n.set(n.get() + 1));
    let trace = cached_trace(profile, seed, trace_uops);
    timed_run(&trace, core, &mut kind.build(), kind.label().into_owned(), |sim| sim)
}

/// Runs the full cross product over whole traces, in parallel and in
/// cross-product order ([`Evaluation::run_suite`] on a fresh evaluation).
pub fn run_suite(
    profiles: &[WorkloadProfile],
    kinds: &[PredictorKind],
    core: &CoreConfig,
    trace_uops: usize,
    seed: u64,
) -> Vec<RunResult> {
    Evaluation::new(trace_uops, seed, false).run_suite(profiles, kinds, core)
}

/// Entry cap for an [`Evaluation`]'s result memo: the whole paper
/// evaluation touches about 480 distinct cells.
const MEMO_MAX_ENTRIES: usize = 1024;

type CellKey = (WorkloadProfile, PredictorKind, CoreConfig, usize, u64, bool);

/// The context every experiment renders from: trace length, seed, full or
/// sampled mode, and a memo of finished cells, so an experiment that asks
/// for a (benchmark, predictor, core) cell another one already ran gets
/// the stored result instead of a second simulation.
#[derive(Debug)]
pub struct Evaluation {
    /// Trace length of every cell (micro-ops).
    pub trace_uops: usize,
    /// Generation seed of every trace.
    pub seed: u64,
    /// Whether cells are projected from representative intervals
    /// ([`run_one_sampled`] with the default [`SamplingConfig`]) instead
    /// of simulated over the whole trace.
    pub sampled: bool,
    memo: SlotCache<CellKey, RunResult>,
}

impl Evaluation {
    /// An evaluation with an empty memo.
    pub fn new(trace_uops: usize, seed: u64, sampled: bool) -> Self {
        Self {
            trace_uops,
            seed,
            sampled,
            memo: SlotCache::new(MEMO_MAX_ENTRIES, usize::MAX),
        }
    }

    /// The paper evaluation's context: [`DEFAULT_SEED`] and the trace
    /// length from `MASCOT_TRACE_UOPS`, else [`DEFAULT_TRACE_UOPS`].
    pub fn from_env(sampled: bool) -> Self {
        let trace_uops = std::env::var("MASCOT_TRACE_UOPS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_TRACE_UOPS);
        Self::new(trace_uops, DEFAULT_SEED, sampled)
    }

    /// The result of one (benchmark, predictor, core) cell, simulated (or
    /// projected) the first time it is asked for.
    pub fn run(
        &self,
        profile: &WorkloadProfile,
        kind: PredictorKind,
        core: &CoreConfig,
    ) -> Arc<RunResult> {
        let (uops, seed, sampled) = (self.trace_uops, self.seed, self.sampled);
        let key = (profile.clone(), kind, core.clone(), uops, seed, sampled);
        self.memo.get_or_init(key, 0, || {
            if sampled {
                run_one_sampled(profile, kind, core, uops, seed, &SamplingConfig::default()).run
            } else {
                run_one(profile, kind, core, uops, seed)
            }
        })
    }

    /// Every benchmark profile on Golden Cove: the sweep most figures plot.
    pub fn golden_cove_suite(&self, kinds: &[PredictorKind]) -> Vec<RunResult> {
        self.run_suite(&spec::all_profiles(), kinds, &CoreConfig::golden_cove())
    }

    /// The (profile × kind) cross product through the memo, in parallel on
    /// the shared scoped worker pool ([`mascot_sampling::parallel_map`]),
    /// results in cross-product order.
    pub fn run_suite(
        &self,
        profiles: &[WorkloadProfile],
        kinds: &[PredictorKind],
        core: &CoreConfig,
    ) -> Vec<RunResult> {
        let jobs: Vec<(&WorkloadProfile, PredictorKind)> = profiles
            .iter()
            .flat_map(|p| kinds.iter().map(move |&k| (p, k)))
            .collect();
        let cells = mascot_sampling::parallel_map(&jobs, |_, &(p, k)| self.run(p, k, core));
        // Copied out on this thread, not in the workers, so the figures'
        // short-lived copies stay out of the allocator arenas that hold the
        // cached traces.
        cells.iter().map(|r| RunResult::clone(r)).collect()
    }
}

/// The outcome of one *sampled* simulation run (DESIGN.md §13): projected
/// full-trace stats plus the sampling cost accounting.
#[derive(Debug, Clone)]
pub struct SampledRunResult {
    /// The projected result, shaped like a normal [`RunResult`] so every
    /// downstream table/figure helper works unchanged. `stats` holds the
    /// cluster-weighted projection; `wall_ms`/`uops_per_sec` measure the
    /// *measurement* (representative-window simulation + projection)
    /// against the uops it represents — the marginal trace-volume
    /// throughput once the cell's prep is built, which is what the
    /// speedup gate compares. One-time prep cost is reported separately in
    /// [`prep_wall_ms`](Self::prep_wall_ms).
    pub run: RunResult,
    /// Uops actually simulated in detail (detailed warm-ups included).
    pub simulated_uops: u64,
    /// Uops the projection stands in for (the full trace).
    pub represented_uops: u64,
    /// Wall-clock spent building this cell's [`SamplingPrep`]
    /// (fingerprinting, clustering, and the functional warm pass run as
    /// one lane per warmed structure) — `0.0` when the prep cache already
    /// held it. Amortised across every sampled run of the same cell, the
    /// SimPoint checkpoint economics.
    pub prep_wall_ms: f64,
}

/// Runs one (benchmark, predictor, core) combination in sampled mode:
/// cluster the trace's intervals, functionally warm one checkpoint per
/// cluster (cached via [`cached_sampling_prep`]), simulate each cluster's
/// representative window and project full-trace stats
/// ([`mascot_sampling::run_sampled_with`]).
pub fn run_one_sampled(
    profile: &WorkloadProfile,
    kind: PredictorKind,
    core: &CoreConfig,
    trace_uops: usize,
    seed: u64,
    cfg: &SamplingConfig,
) -> SampledRunResult {
    let trace = cached_trace(profile, seed, trace_uops);
    let p0 = Instant::now();
    let prep = cached_sampling_prep(profile, &trace, kind, core, seed, trace_uops, cfg);
    let prep_wall_ms = p0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let out = mascot_sampling::run_sampled_with(&trace, &prep.plan, &prep.warm, core, cfg);
    let secs = t0.elapsed().as_secs_f64();
    SampledRunResult {
        run: RunResult {
            benchmark: profile.name.to_string(),
            predictor: kind.label().into_owned(),
            core: core.name.clone(),
            stats: out.projected,
            storage_kib: kind.build().storage_kib(),
            wall_ms: secs * 1e3,
            uops_per_sec: per_sec(out.represented_uops, secs),
        },
        simulated_uops: out.simulated_uops,
        represented_uops: out.represented_uops,
        prep_wall_ms,
    }
}

/// Finds the result for (benchmark, predictor) in a result set.
pub fn find<'a>(results: &'a [RunResult], benchmark: &str, predictor: &str) -> Option<&'a RunResult> {
    results
        .iter()
        .find(|r| r.benchmark == benchmark && r.predictor == predictor)
}

/// Per-benchmark IPC of `predictor` normalised to `baseline`.
pub fn normalized_ipc(results: &[RunResult], benchmark: &str, predictor: &str, baseline: &str) -> Option<f64> {
    let p = find(results, benchmark, predictor)?.stats.ipc();
    let b = find(results, benchmark, baseline)?.stats.ipc();
    mascot_stats::summary::normalize(p, b)
}

/// Geometric-mean normalised IPC of `predictor` vs `baseline` across all
/// benchmarks present in `results`.
pub fn geomean_normalized_ipc(
    results: &[RunResult],
    benchmarks: &[String],
    predictor: &str,
    baseline: &str,
) -> Option<f64> {
    let ratios: Option<Vec<f64>> = benchmarks
        .iter()
        .map(|b| normalized_ipc(results, b, predictor, baseline))
        .collect();
    mascot_stats::summary::geometric_mean(ratios?)
}

/// The distinct benchmark names in a result set, in first-seen order.
pub fn benchmarks(results: &[RunResult]) -> Vec<String> {
    let mut seen: std::collections::HashSet<&str> = std::collections::HashSet::new();
    let mut out = Vec::new();
    for r in results {
        // Dedupe on the borrowed name; clone only the first occurrence.
        if seen.insert(r.benchmark.as_str()) {
            out.push(r.benchmark.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// Full-trace simulations [`run_one`] started on this thread.
        pub(super) static SIMULATIONS: Cell<u64> = const { Cell::new(0) };
    }

    #[test]
    fn evaluation_memo_is_transparent_and_run_one_is_uncached() {
        let profile = spec::profile("exchange2").unwrap();
        let core = CoreConfig::golden_cove();
        let eval = Evaluation::new(10_000, 1, false);
        let sims = || SIMULATIONS.with(Cell::get);
        let start = sims();
        let first = eval.run(&profile, PredictorKind::Mascot, &core);
        assert_eq!(sims(), start + 1, "first request simulates");
        let fresh = run_one(&profile, PredictorKind::Mascot, &core, 10_000, 1);
        assert_eq!(first.stats, fresh.stats, "memoised cell equals a fresh run");
        let again = eval.run(&profile, PredictorKind::Mascot, &core);
        assert!(Arc::ptr_eq(&first, &again), "second request is served from the memo");
        assert_eq!(sims(), start + 2, "only the plain run_one simulated since");
        // A different cell of the same evaluation is a new simulation.
        let _ = eval.run(&profile, PredictorKind::PerfectMdp, &core);
        assert_eq!(sims(), start + 3);
        // Plain run_one never memoises: two calls, two simulations.
        let _ = run_one(&profile, PredictorKind::Mascot, &core, 10_000, 1);
        let _ = run_one(&profile, PredictorKind::Mascot, &core, 10_000, 1);
        assert_eq!(sims(), start + 5);
    }

    #[test]
    fn kinds_build_and_have_expected_sizes() {
        assert!((PredictorKind::Mascot.build().storage_kib() - 14.0).abs() < 0.01);
        assert!((PredictorKind::Phast.build().storage_kib() - 14.5).abs() < 0.01);
        assert!((PredictorKind::NoSq.build().storage_kib() - 19.0).abs() < 0.01);
        assert!((PredictorKind::MascotOpt(4).build().storage_kib() - 10.125).abs() < 0.01);
        assert_eq!(PredictorKind::PerfectMdp.build().storage_kib(), 0.0);
    }

    #[test]
    fn labels_are_distinct() {
        let kinds = [
            PredictorKind::Mascot,
            PredictorKind::MascotMdp,
            PredictorKind::MascotOpt(0),
            PredictorKind::MascotOpt(4),
            PredictorKind::TageNoNd,
            PredictorKind::Phast,
            PredictorKind::NoSq,
            PredictorKind::StoreSets,
            PredictorKind::PerfectMdp,
            PredictorKind::PerfectMdpSmb,
        ];
        let labels: std::collections::HashSet<_> = kinds.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), kinds.len());
    }

    #[test]
    fn run_one_produces_complete_stats() {
        let profile = spec::profile("exchange2").unwrap();
        let r = run_one(
            &profile,
            PredictorKind::PerfectMdp,
            &CoreConfig::golden_cove(),
            20_000,
            1,
        );
        assert!(r.stats.committed_uops >= 20_000);
        assert!(r.stats.ipc() > 0.1);
        assert_eq!(r.benchmark, "exchange2");
    }

    #[test]
    fn suite_runner_covers_cross_product() {
        let profiles = vec![
            spec::profile("exchange2").unwrap(),
            spec::profile("bwaves").unwrap(),
        ];
        let kinds = [PredictorKind::PerfectMdp, PredictorKind::StoreSets];
        let results = run_suite(&profiles, &kinds, &CoreConfig::golden_cove(), 15_000, 3);
        assert_eq!(results.len(), 4);
        assert!(find(&results, "bwaves", "store-sets").is_some());
        let bs = benchmarks(&results);
        assert_eq!(bs, vec!["exchange2".to_string(), "bwaves".to_string()]);
    }

    #[test]
    fn normalized_ipc_handles_missing_entries() {
        let results: Vec<RunResult> = Vec::new();
        assert!(normalized_ipc(&results, "x", "mascot", "perfect-mdp").is_none());
        assert!(geomean_normalized_ipc(&results, &["x".to_string()], "mascot", "perfect-mdp")
            .is_none());
    }

    #[test]
    fn trace_cache_caps_entries_and_evicts_lru() {
        let cache = TraceCache::new(4, usize::MAX);
        let profile = spec::profile("exchange2").unwrap();
        // Fill the cache with 4 distinct keys (seeds 0..4).
        let traces: Vec<Arc<Trace>> = (0..4).map(|s| cache.get(&profile, s, 200)).collect();
        // Touch seed 0 so seed 1 becomes the least recently used.
        assert!(Arc::ptr_eq(&cache.get(&profile, 0, 200), &traces[0]));
        // A fifth key evicts exactly one entry: seed 1.
        let _ = cache.get(&profile, 4, 200);
        assert!(
            Arc::ptr_eq(&cache.get(&profile, 0, 200), &traces[0]),
            "recently touched entry survives"
        );
        // Seed 1 was evicted, so this access regenerates (which in turn
        // evicts the new LRU) — a fresh allocation, not the cached one.
        assert!(
            !Arc::ptr_eq(&cache.get(&profile, 1, 200), &traces[1]),
            "LRU entry was evicted and regenerated"
        );
    }

    #[test]
    fn trace_cache_respects_uop_budget_but_admits_oversized_traces() {
        let cache = TraceCache::new(usize::MAX, 1_000);
        let profile = spec::profile("exchange2").unwrap();
        let small = cache.get(&profile, 1, 400);
        let _ = cache.get(&profile, 2, 400);
        // 400 + 400 + 400 > 1000: inserting a third evicts the oldest.
        let _ = cache.get(&profile, 3, 400);
        assert!(!Arc::ptr_eq(&cache.get(&profile, 1, 400), &small));
        // A single trace over the whole budget is still generated once and
        // cached (bounds limit retention, not admission)…
        let big = cache.get(&profile, 9, 2_000);
        assert!(Arc::ptr_eq(&cache.get(&profile, 9, 2_000), &big));
        // …at the cost of evicting everything else.
        let (entries, _) = &*cache.inner.lock().unwrap();
        assert_eq!(entries.len(), 1);
    }

    #[test]
    fn sampled_run_projects_plausible_stats() {
        let profile = spec::profile("exchange2").unwrap();
        let cfg = SamplingConfig {
            interval_uops: 2_000,
            clusters: 5,
            warmup_uops: 1_000,
            ..SamplingConfig::default()
        };
        let sampled = run_one_sampled(
            &profile,
            PredictorKind::Mascot,
            &CoreConfig::golden_cove(),
            30_000,
            1,
            &cfg,
        );
        assert!(sampled.simulated_uops < sampled.represented_uops);
        assert_eq!(sampled.run.benchmark, "exchange2");
        let full = run_one(
            &profile,
            PredictorKind::Mascot,
            &CoreConfig::golden_cove(),
            30_000,
            1,
        );
        // Projected committed-uop total equals the trace length by
        // construction (weights cover the trace; every uop commits).
        assert_eq!(
            sampled.run.stats.committed_uops,
            full.stats.committed_uops
        );
        let err = mascot_stats::projection::relative_error(
            sampled.run.stats.ipc(),
            full.stats.ipc(),
        );
        assert!(err.abs() < 0.25, "projected IPC off by {err:+.3}");
    }

    #[test]
    fn trace_uops_env_override() {
        // No env var set in the test environment: default applies.
        assert_eq!(Evaluation::from_env(false).trace_uops, DEFAULT_TRACE_UOPS);
    }

    #[test]
    fn run_with_predictor_reports_inner_name_and_size() {
        let profile = spec::profile("exchange2").unwrap();
        let mut p = PredictorKind::MascotOpt(4).build();
        let r = run_with_predictor(
            &profile,
            &mut p,
            &CoreConfig::golden_cove(),
            10_000,
            1,
            None,
        );
        assert_eq!(r.predictor, "mascot");
        assert!((r.storage_kib - 10.125).abs() < 0.01);
        assert!(r.stats.committed_uops >= 10_000);
    }

    #[test]
    fn mdp_tage_kind_builds() {
        use mascot::MemDepPredictor;
        let p = PredictorKind::MdpTage.build();
        assert_eq!(p.name(), "mdp-tage");
        assert!((p.storage_kib() - 10.0).abs() < 0.01);
    }
}

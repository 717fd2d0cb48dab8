//! A timing wrapper around [`AnyPredictor`]: implements
//! [`MemDepPredictor`] by forwarding every call, and times the calls the
//! simulator makes into the predictor. Used only by the traced pass.

use std::time::Instant;

use mascot::history::BranchEvent;
use mascot::prediction::{
    GroundTruth, LoadOutcome, MemDepPrediction, MemDepPredictor, PredictReq, StoreDistance,
    TrainReq,
};
use mascot_predictors::{AnyMeta, AnyPredictor};

/// The wrapper's stopwatch: the time-stamp counter on x86-64, read
/// without serialising the pipeline, at half the cost of `Instant::now()`
/// (about 22 against 45 ns on the reference host).
#[cfg(target_arch = "x86_64")]
fn ticks() -> u64 {
    // SAFETY: `rdtsc` reads a counter; it has no memory-safety
    // preconditions and exists on every x86-64 CPU.
    unsafe { core::arch::x86_64::_rdtsc() }
}

/// The wrapper's stopwatch elsewhere: nanoseconds since first use.
#[cfg(not(target_arch = "x86_64"))]
fn ticks() -> u64 {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Converts stopwatch ticks to nanoseconds and knows what one read costs.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    ns_per_tick: f64,
    /// Mean ticks one stopwatch read takes; every timed interval holds
    /// one read, and the other read of the pair falls outside it.
    read_ticks: f64,
}

impl Clock {
    /// Measures the tick rate against `Instant` over 50 ms and the cost
    /// of one read over a tight loop (median of five).
    pub fn calibrate() -> Self {
        let (t0, c0) = (Instant::now(), ticks());
        std::thread::sleep(std::time::Duration::from_millis(50));
        let (t1, c1) = (Instant::now(), ticks());
        let ns_per_tick = (t1 - t0).as_nanos() as f64 / (c1 - c0).max(1) as f64;
        const READS: u32 = 200_000;
        let samples: Vec<f64> = (0..5)
            .map(|_| {
                let start = ticks();
                for _ in 0..READS {
                    std::hint::black_box(ticks());
                }
                (ticks() - start) as f64 / f64::from(READS)
            })
            .collect();
        Self {
            ns_per_tick,
            read_ticks: crate::stats::median(&samples),
        }
    }

    /// Nanoseconds in `ticks`.
    pub fn ns(&self, ticks: f64) -> f64 {
        ticks * self.ns_per_tick
    }

    /// Nanoseconds one stopwatch read costs.
    pub fn read_ns(&self) -> f64 {
        self.ns(self.read_ticks)
    }
}

/// Calls of one kind and the host time they took.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Calls (items, for batched calls).
    pub calls: u64,
    /// Timed calls (a batch is one timed call).
    pub timed: u64,
    /// Ticks between the two stopwatch reads around each timed call.
    pub ticks: u64,
}

impl Tally {
    fn add(&mut self, calls: u64, t0: u64) {
        self.ticks += ticks().wrapping_sub(t0);
        self.calls += calls;
        self.timed += 1;
    }

    /// Mean host time per call, ns, with the stopwatch read every timed
    /// interval holds taken out.
    pub fn ns_per_call(&self, clock: &Clock) -> f64 {
        if self.calls == 0 {
            return 0.0;
        }
        let ticks = (self.ticks as f64 - self.timed as f64 * clock.read_ticks).max(0.0);
        clock.ns(ticks) / self.calls as f64
    }
}

/// Per-call-kind timing of one predictor over one or more runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timings {
    /// `predict` and `predict_batch`.
    pub predict: Tally,
    /// `train` and `train_batch`.
    pub train: Tally,
    /// `on_branch`.
    pub branch: Tally,
    /// `rewind_history`.
    pub rewind: Tally,
    /// `on_store_dispatch` and `predict_store_wait`.
    pub store: Tally,
}

impl Timings {
    /// All five tallies.
    pub fn all(&self) -> [Tally; 5] {
        [
            self.predict,
            self.train,
            self.branch,
            self.rewind,
            self.store,
        ]
    }

    /// Total calls across kinds.
    pub fn calls(&self) -> u64 {
        self.all().iter().map(|t| t.calls).sum()
    }

    /// Total timed intervals across kinds.
    pub fn timed(&self) -> u64 {
        self.all().iter().map(|t| t.timed).sum()
    }

    /// Time inside the timed intervals, ns, stopwatch reads included.
    pub fn raw_ns(&self, clock: &Clock) -> f64 {
        clock.ns(self.all().iter().map(|t| t.ticks).sum::<u64>() as f64)
    }

    /// Predictor self time, ns, with one stopwatch read per timed interval
    /// taken out.
    pub fn self_ns(&self, clock: &Clock) -> f64 {
        (self.raw_ns(clock) - self.timed() as f64 * clock.read_ns()).max(0.0)
    }

    /// Adds another run's tallies.
    pub fn accumulate(&mut self, other: &Timings) {
        for (mine, theirs) in [
            (&mut self.predict, other.predict),
            (&mut self.train, other.train),
            (&mut self.branch, other.branch),
            (&mut self.rewind, other.rewind),
            (&mut self.store, other.store),
        ] {
            mine.calls += theirs.calls;
            mine.timed += theirs.timed;
            mine.ticks += theirs.ticks;
        }
    }
}

/// [`AnyPredictor`] behind a stopwatch. Every trait method forwards to the
/// inner predictor unchanged, so a simulation through the wrapper is the
/// same simulation (the transparency test checks this bit for bit).
#[derive(Debug)]
pub struct TimedPredictor {
    inner: AnyPredictor,
    /// What the calls cost so far.
    pub timings: Timings,
}

impl TimedPredictor {
    /// Wraps `inner` with zeroed tallies.
    pub fn new(inner: AnyPredictor) -> Self {
        Self {
            inner,
            timings: Timings::default(),
        }
    }
}

impl MemDepPredictor for TimedPredictor {
    type Meta = AnyMeta;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn predict(
        &mut self,
        pc: u64,
        store_seq: u64,
        oracle: Option<&GroundTruth>,
    ) -> (MemDepPrediction, AnyMeta) {
        let t0 = ticks();
        let r = self.inner.predict(pc, store_seq, oracle);
        self.timings.predict.add(1, t0);
        r
    }

    fn predict_batch(&mut self, reqs: &[PredictReq], out: &mut Vec<(MemDepPrediction, AnyMeta)>) {
        let t0 = ticks();
        self.inner.predict_batch(reqs, out);
        self.timings.predict.add(reqs.len() as u64, t0);
    }

    fn train(
        &mut self,
        pc: u64,
        meta: AnyMeta,
        predicted: MemDepPrediction,
        outcome: &LoadOutcome,
    ) {
        let t0 = ticks();
        self.inner.train(pc, meta, predicted, outcome);
        self.timings.train.add(1, t0);
    }

    fn train_batch(&mut self, reqs: &mut Vec<TrainReq<AnyMeta>>) {
        let n = reqs.len() as u64;
        let t0 = ticks();
        self.inner.train_batch(reqs);
        self.timings.train.add(n, t0);
    }

    fn on_branch(&mut self, event: &BranchEvent) {
        let t0 = ticks();
        self.inner.on_branch(event);
        self.timings.branch.add(1, t0);
    }

    fn rewind_history(&mut self, recent: &[BranchEvent]) {
        let t0 = ticks();
        self.inner.rewind_history(recent);
        self.timings.rewind.add(1, t0);
    }

    fn on_store_dispatch(&mut self, pc: u64, store_seq: u64) {
        let t0 = ticks();
        self.inner.on_store_dispatch(pc, store_seq);
        self.timings.store.add(1, t0);
    }

    fn predict_store_wait(&mut self, pc: u64, store_seq: u64) -> Option<StoreDistance> {
        let t0 = ticks();
        let r = self.inner.predict_store_wait(pc, store_seq);
        self.timings.store.add(1, t0);
        r
    }

    fn bypass_supports_offset(&self) -> bool {
        self.inner.bypass_supports_offset()
    }

    fn storage_bits(&self) -> u64 {
        self.inner.storage_bits()
    }

    fn storage_kib(&self) -> f64 {
        self.inner.storage_kib()
    }

    fn end_tuning_period(&mut self) {
        self.inner.end_tuning_period();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim_full::{KINDS, PROFILES};
    use mascot_sim::{simulate, CoreConfig};
    use mascot_workloads::{generate, spec};

    /// The traced pass measures the same program: for every sim-full kind
    /// and profile, a run through the wrapper yields bit-identical
    /// `SimStats` to the unwrapped run, and the wrapper saw the calls.
    #[test]
    fn wrapper_is_transparent_for_every_sim_full_kind() {
        let core = CoreConfig::golden_cove();
        for name in PROFILES {
            let profile = spec::profile(name).expect("known profile");
            let trace = generate(&profile, 7, 20_000);
            for kind in KINDS {
                let plain = simulate(&trace, &core, &mut kind.build());
                let mut timed = TimedPredictor::new(kind.build());
                let wrapped = simulate(&trace, &core, &mut timed);
                assert_eq!(plain, wrapped, "{name}/{} differs", kind.label());
                assert!(timed.timings.predict.calls > 0, "{name}/{}", kind.label());
                assert!(timed.timings.branch.calls > 0, "{name}/{}", kind.label());
            }
        }
    }

    #[test]
    fn clock_correction_never_goes_negative() {
        let t = Tally {
            calls: 10,
            timed: 10,
            ticks: 50,
        };
        let clock = |read_ticks| Clock {
            ns_per_tick: 0.5,
            read_ticks,
        };
        assert_eq!(t.ns_per_call(&clock(20.0)), 0.0);
        assert_eq!(t.ns_per_call(&clock(2.0)), 1.5);
    }
}

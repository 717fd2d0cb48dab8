//! Shared prediction vocabulary: predictions, outcomes and the
//! [`MemDepPredictor`] trait implemented by MASCOT and every baseline.
//!
//! The three-way prediction mirrors Fig. 5 of the paper: a load is predicted
//! either independent, dependent on a specific prior store (MDP), or
//! dependent with a bypassable value (SMB).

use std::fmt;

use crate::history::BranchEvent;

/// Program-order distance from a load back to a prior store.
///
/// A distance of 1 names the store immediately preceding the load in program
/// order; MASCOT's 7-bit field encodes 1..=127 (0 is reserved inside the
/// predictor to mean "non-dependence" and is not representable here).
///
/// # Examples
///
/// ```
/// use mascot::StoreDistance;
///
/// let d = StoreDistance::new(3).unwrap();
/// assert_eq!(d.get(), 3);
/// assert!(StoreDistance::new(0).is_none());
/// assert!(StoreDistance::new(128).is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StoreDistance(u8);

impl StoreDistance {
    /// Maximum encodable distance (7-bit field, 0 reserved).
    pub const MAX: u8 = 127;

    /// Creates a distance; `None` if `raw` is 0 or exceeds [`Self::MAX`].
    pub fn new(raw: u32) -> Option<Self> {
        if raw >= 1 && raw <= u32::from(Self::MAX) {
            Some(Self(raw as u8))
        } else {
            None
        }
    }

    /// The distance as an integer (1..=127).
    #[inline]
    pub fn get(self) -> u8 {
        self.0
    }
}

impl fmt::Display for StoreDistance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// How a load's bytes relate to the prior store it depends on (Fig. 2).
///
/// The discriminants are the class's byte code ([`BypassClass::code`]) in
/// the trace and wire formats, so they are frozen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BypassClass {
    /// Same address, same size: the value can be bypassed verbatim.
    DirectBypass = 0,
    /// Same address, load smaller than the store: bypass with truncation.
    NoOffset = 1,
    /// Load fully contained in the store but at a non-zero offset: bypass
    /// would require shifting; MASCOT's default microarchitecture does not
    /// bypass these (§IV-E).
    Offset = 2,
    /// Partial overlap: a memory dependence with no bypass opportunity.
    MdpOnly = 3,
}

impl BypassClass {
    /// Every class, indexed by its byte code: `ALL[c.code() as usize] == c`.
    pub const ALL: [BypassClass; 4] = [
        BypassClass::DirectBypass,
        BypassClass::NoOffset,
        BypassClass::Offset,
        BypassClass::MdpOnly,
    ];

    /// The class's one-byte code in the trace and wire formats.
    #[inline]
    pub fn code(self) -> u8 {
        self as u8
    }

    /// The class with byte code `code`, or `None` for an out-of-range byte.
    #[inline]
    pub fn from_code(code: u8) -> Option<Self> {
        Self::ALL.get(usize::from(code)).copied()
    }

    /// Whether this dependence can be bypassed on a microarchitecture that
    /// supports same-address bypassing (the paper's default: `DirectBypass`
    /// and `NoOffset`, §IV-E).
    #[inline]
    pub fn is_bypassable(self) -> bool {
        matches!(self, BypassClass::DirectBypass | BypassClass::NoOffset)
    }
}

/// The three-way prediction MASCOT makes for each load (Fig. 5, left).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemDepPrediction {
    /// The load does not depend on any in-flight prior store; issue as soon
    /// as its address is ready.
    NoDependence,
    /// The load depends on the store `distance` stores back; wait for that
    /// store to resolve, then forward (MDP).
    Dependence {
        /// Program-order distance to the predicted source store.
        distance: StoreDistance,
    },
    /// The load depends on the store `distance` stores back and the value
    /// can be obtained through speculative memory bypassing (SMB).
    Bypass {
        /// Program-order distance to the predicted source store.
        distance: StoreDistance,
    },
}

impl MemDepPrediction {
    /// The predicted store distance, if a dependence was predicted.
    #[inline]
    pub fn distance(self) -> Option<StoreDistance> {
        match self {
            MemDepPrediction::NoDependence => None,
            MemDepPrediction::Dependence { distance } | MemDepPrediction::Bypass { distance } => {
                Some(distance)
            }
        }
    }

    /// True when a dependence (MDP or SMB) was predicted.
    #[inline]
    pub fn is_dependence(self) -> bool {
        self.distance().is_some()
    }

    /// True when speculative memory bypassing was predicted.
    #[inline]
    pub fn is_bypass(self) -> bool {
        matches!(self, MemDepPrediction::Bypass { .. })
    }

    /// Demotes a bypass prediction to a plain dependence (used by the
    /// MDP-only configurations of Figs. 9 and 11).
    #[inline]
    pub fn demote_bypass(self) -> Self {
        match self {
            MemDepPrediction::Bypass { distance } => MemDepPrediction::Dependence { distance },
            other => other,
        }
    }
}

/// The dependence a load was *observed* to have when it executed: the
/// youngest older in-flight store whose bytes overlap the load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObservedDependence {
    /// Program-order store distance to the conflicting store.
    pub distance: StoreDistance,
    /// Size/alignment relation between the load and the store.
    pub class: BypassClass,
    /// PC of the conflicting store (used by Store Sets training).
    pub store_pc: u64,
    /// Number of branches between the store and the load in program order
    /// (used by PHAST's allocation policy).
    pub branches_between: u32,
}

/// The commit-time training record for one load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoadOutcome {
    /// The observed in-flight dependence, or `None` if the load had no
    /// conflict with any in-flight store.
    pub dependence: Option<ObservedDependence>,
}

impl LoadOutcome {
    /// An outcome with no observed dependence.
    pub fn independent() -> Self {
        Self { dependence: None }
    }

    /// An outcome with the given observed dependence.
    pub fn dependent(dep: ObservedDependence) -> Self {
        Self {
            dependence: Some(dep),
        }
    }

    /// True when an in-flight dependence was observed.
    #[inline]
    pub fn is_dependent(&self) -> bool {
        self.dependence.is_some()
    }
}

/// Static, trace-level ground truth about a load's memory dependence,
/// supplied to oracle ("perfect") predictors only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroundTruth {
    /// Program-order distance to the youngest prior store writing any byte
    /// the load reads, if within the encodable window.
    pub distance: StoreDistance,
    /// Size/alignment relation of that pair.
    pub class: BypassClass,
}

/// One prediction request of a batch (see
/// [`MemDepPredictor::predict_batch`]). Mirrors the arguments of
/// [`MemDepPredictor::predict`] exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictReq {
    /// Load PC.
    pub pc: u64,
    /// Count of stores dispatched before this load.
    pub store_seq: u64,
    /// Trace-level ground truth, read only by the §VI oracles.
    pub oracle: Option<GroundTruth>,
}

/// One training record of a batch (see [`MemDepPredictor::train_batch`]).
/// Mirrors the arguments of [`MemDepPredictor::train`] exactly.
#[derive(Debug)]
pub struct TrainReq<M> {
    /// Load PC.
    pub pc: u64,
    /// The metadata returned by the matching predict call.
    pub meta: M,
    /// The prediction that was acted upon.
    pub predicted: MemDepPrediction,
    /// The observed commit-time outcome.
    pub outcome: LoadOutcome,
}

/// A memory-dependence / bypassing predictor as seen by the simulator.
///
/// One `predict` call is made per dynamic load (at decode, per Fig. 4) and
/// the returned [`Self::Meta`] is carried in the load's ROB entry and handed
/// back verbatim to [`Self::train`] at commit — this is how hardware TAGE
/// predictors carry their lookup indices in the instruction's payload, and
/// it frees implementations from having to reconstruct speculative history.
///
/// `oracle` carries the trace's static ground truth and **must be ignored**
/// by every realistic predictor; only the perfect-MDP/perfect-SMB oracles of
/// §VI read it.
pub trait MemDepPredictor {
    /// Opaque per-prediction metadata threaded from `predict` to `train`.
    type Meta: fmt::Debug;

    /// Short human-readable identifier (e.g. `"mascot"`, `"phast"`).
    fn name(&self) -> &'static str;

    /// Predicts for the load at `pc`. `store_seq` is the count of stores
    /// dispatched so far (used by sequence-based predictors such as Store
    /// Sets to convert an absolute store id into a distance).
    fn predict(
        &mut self,
        pc: u64,
        store_seq: u64,
        oracle: Option<&GroundTruth>,
    ) -> (MemDepPrediction, Self::Meta);

    /// Predicts for a micro-batch of loads, appending one
    /// `(prediction, meta)` pair per request — **in request order** — to
    /// `out` (which is cleared first).
    ///
    /// The contract is strict sequential equivalence: the results, metas and
    /// post-call predictor state must be identical to calling
    /// [`Self::predict`] once per request in order. The default
    /// implementation is exactly that scalar loop; predictors whose
    /// `predict` does not write table state (MASCOT) override it with a
    /// table-major sweep that probes each table once for the whole batch.
    fn predict_batch(
        &mut self,
        reqs: &[PredictReq],
        out: &mut Vec<(MemDepPrediction, Self::Meta)>,
    ) {
        out.clear();
        out.reserve(reqs.len());
        for req in reqs {
            out.push(self.predict(req.pc, req.store_seq, req.oracle.as_ref()));
        }
    }

    /// Trains the predictor at commit with the observed outcome.
    fn train(
        &mut self,
        pc: u64,
        meta: Self::Meta,
        predicted: MemDepPrediction,
        outcome: &LoadOutcome,
    );

    /// Trains on a micro-batch of commit records, draining `reqs`.
    ///
    /// Same sequential-equivalence contract as [`Self::predict_batch`]:
    /// behaviour must match calling [`Self::train`] once per record in
    /// order (training mutates table state, so the records are applied
    /// strictly in sequence). The default implementation is that loop;
    /// `reqs` is drained rather than consumed so callers can recycle the
    /// buffer allocation.
    fn train_batch(&mut self, reqs: &mut Vec<TrainReq<Self::Meta>>) {
        for req in reqs.drain(..) {
            self.train(req.pc, req.meta, req.predicted, &req.outcome);
        }
    }

    /// Notifies the predictor of a committed-path branch (decode order).
    fn on_branch(&mut self, event: &BranchEvent);

    /// Restores speculative history after a pipeline squash. `recent` holds
    /// the branch events on the now-architectural path, oldest first; it is
    /// at least as long as the predictor's longest history (or the whole
    /// execution if shorter).
    fn rewind_history(&mut self, recent: &[BranchEvent]);

    /// Notifies the predictor that a store at `pc` was dispatched with
    /// sequence number `store_seq`. Default: ignored.
    fn on_store_dispatch(&mut self, _pc: u64, _store_seq: u64) {}

    /// Predicts a *store-store* ordering constraint for the store at `pc`:
    /// the distance to a prior store it must wait for. Store Sets enforces
    /// serialisation within a set this way (§V); other predictors do not
    /// constrain stores. Called before [`Self::on_store_dispatch`].
    fn predict_store_wait(&mut self, _pc: u64, _store_seq: u64) -> Option<StoreDistance> {
        None
    }

    /// Whether the predictor's bypass datapath can shift offset loads
    /// (NoSQ supports partial-word bypassing; MASCOT's default
    /// microarchitecture bypasses only same-address pairs, §IV-E).
    fn bypass_supports_offset(&self) -> bool {
        false
    }

    /// Total storage in bits (tables only, as in Table II).
    fn storage_bits(&self) -> u64;

    /// Storage in KiB, as reported in Table II.
    fn storage_kib(&self) -> f64 {
        self.storage_bits() as f64 / 8192.0
    }

    /// Ends a tuning period (§IV-F). Default: no-op.
    fn end_tuning_period(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_distance_bounds() {
        assert!(StoreDistance::new(1).is_some());
        assert!(StoreDistance::new(127).is_some());
        assert!(StoreDistance::new(0).is_none());
        assert!(StoreDistance::new(128).is_none());
        assert_eq!(StoreDistance::new(42).unwrap().to_string(), "42");
    }

    #[test]
    fn bypass_class_codes_index_all() {
        for (i, class) in BypassClass::ALL.into_iter().enumerate() {
            assert_eq!(usize::from(class.code()), i);
            assert_eq!(BypassClass::from_code(class.code()), Some(class));
        }
        assert_eq!(BypassClass::from_code(4), None);
        assert_eq!(BypassClass::MdpOnly.code(), 3, "codes are a frozen format");
    }

    #[test]
    fn bypass_class_bypassability() {
        assert!(BypassClass::DirectBypass.is_bypassable());
        assert!(BypassClass::NoOffset.is_bypassable());
        assert!(!BypassClass::Offset.is_bypassable());
        assert!(!BypassClass::MdpOnly.is_bypassable());
    }

    #[test]
    fn prediction_accessors() {
        let d = StoreDistance::new(5).unwrap();
        let none = MemDepPrediction::NoDependence;
        let dep = MemDepPrediction::Dependence { distance: d };
        let byp = MemDepPrediction::Bypass { distance: d };
        assert_eq!(none.distance(), None);
        assert_eq!(dep.distance(), Some(d));
        assert_eq!(byp.distance(), Some(d));
        assert!(!none.is_dependence());
        assert!(dep.is_dependence() && !dep.is_bypass());
        assert!(byp.is_dependence() && byp.is_bypass());
    }

    #[test]
    fn demote_bypass_maps_only_bypass() {
        let d = StoreDistance::new(2).unwrap();
        assert_eq!(
            MemDepPrediction::Bypass { distance: d }.demote_bypass(),
            MemDepPrediction::Dependence { distance: d }
        );
        assert_eq!(
            MemDepPrediction::NoDependence.demote_bypass(),
            MemDepPrediction::NoDependence
        );
        assert_eq!(
            MemDepPrediction::Dependence { distance: d }.demote_bypass(),
            MemDepPrediction::Dependence { distance: d }
        );
    }

    #[test]
    fn outcome_constructors() {
        assert!(!LoadOutcome::independent().is_dependent());
        let dep = ObservedDependence {
            distance: StoreDistance::new(1).unwrap(),
            class: BypassClass::DirectBypass,
            store_pc: 0x40,
            branches_between: 0,
        };
        assert!(LoadOutcome::dependent(dep).is_dependent());
    }
}

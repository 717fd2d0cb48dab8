//! Type-erased predictor dispatch for the benchmark harness.
//!
//! [`MemDepPredictor`] has an associated `Meta` type, so the simulator is
//! generic over the predictor. The harness, however, wants to iterate over a
//! runtime list of predictor kinds; [`AnyPredictor`] wraps every evaluated
//! predictor behind a single enum with a unified [`AnyMeta`].

use mascot::history::BranchEvent;
use mascot::prediction::{
    GroundTruth, LoadOutcome, MemDepPredictor, MemDepPrediction, PredictReq, TrainReq,
};
use mascot::predictor::{Mascot, MascotMeta};
use mascot_snapshot::{SnapError, SnapReader, SnapWriter};

use crate::mdp_tage::{MdpTage, MdpTageMeta};
use crate::nosq::{NoSq, NoSqMeta};
use crate::oracle::{PerfectMdp, PerfectMdpSmb};
use crate::phast::{Phast, PhastMeta};
use crate::randomized::RandomizedMascot;
use crate::store_sets::StoreSets;

/// Metadata variants for [`AnyPredictor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AnyMeta {
    /// MASCOT-family metadata.
    Mascot(MascotMeta),
    /// PHAST metadata.
    Phast(PhastMeta),
    /// NoSQ metadata.
    NoSq(NoSqMeta),
    /// MDP-TAGE metadata.
    MdpTage(MdpTageMeta),
    /// Metadata-free predictors (Store Sets, oracles).
    Unit,
}

/// A runtime-selected predictor, wrapping every kind evaluated in §VI.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
pub enum AnyPredictor {
    /// MASCOT (MDP + SMB), or one of its modes: MDP only (Fig. 9) or the
    /// Fig. 11 ablation without non-dependence allocation.
    Mascot(Mascot),
    /// PHAST (Kim & Ros 2024).
    Phast(Phast),
    /// NoSQ-style GShare MDP/SMB predictor.
    NoSq(NoSq),
    /// Historical MDP-TAGE baseline (§II).
    MdpTage(MdpTage),
    /// Store Sets (Chrysos & Emer 1998).
    StoreSets(StoreSets),
    /// Perfect memory-dependence oracle (no bypassing).
    PerfectMdp(PerfectMdp),
    /// Perfect memory-dependence + bypassing oracle.
    PerfectMdpSmb(PerfectMdpSmb),
    /// MASCOT behind keyed index randomization (DESIGN.md §12).
    RandomizedMascot(RandomizedMascot),
}

// Sharded serving moves whole predictor instances onto worker threads;
// keep the enum (and thus every wrapped predictor) `Send` + `'static`.
const _: () = {
    const fn assert_send_static<T: Send + 'static>() {}
    assert_send_static::<AnyPredictor>();
};

/// Snapshot-payload variant tags for [`AnyPredictor`] — part of the
/// persisted format, so the values are frozen: renumbering breaks every
/// existing snapshot. An MDP-only [`Mascot`] is written as `MASCOT_MDP`.
mod variant {
    pub const MASCOT: u8 = 0;
    pub const MASCOT_MDP: u8 = 1;
    pub const PHAST: u8 = 2;
    pub const NOSQ: u8 = 3;
    pub const MDP_TAGE: u8 = 4;
    pub const STORE_SETS: u8 = 5;
    pub const PERFECT_MDP: u8 = 6;
    pub const PERFECT_MDP_SMB: u8 = 7;
    pub const RANDOMIZED_MASCOT: u8 = 8;
}

impl AnyPredictor {
    /// The wrapped MASCOT instance in any of its modes (used by the
    /// Figs. 13–14 tuning reports).
    pub fn as_mascot(&self) -> Option<&Mascot> {
        match self {
            AnyPredictor::Mascot(m) => Some(m),
            _ => None,
        }
    }

    /// Total valid entries resident in the predictor's tables (0 for the
    /// stateless oracles) — the snapshot/restore observability unit.
    pub fn entry_count(&self) -> u64 {
        match self {
            AnyPredictor::Mascot(p) => p.entry_count(),
            AnyPredictor::Phast(p) => p.entry_count(),
            AnyPredictor::NoSq(p) => p.entry_count(),
            AnyPredictor::MdpTage(p) => p.entry_count(),
            AnyPredictor::StoreSets(p) => p.entry_count(),
            AnyPredictor::RandomizedMascot(p) => p.entry_count(),
            AnyPredictor::PerfectMdp(_) | AnyPredictor::PerfectMdpSmb(_) => 0,
        }
    }

    /// Serializes the predictor to an opaque snapshot payload: a one-byte
    /// variant tag followed by the wrapped predictor's own encoding (empty
    /// for the stateless oracles).
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        match self {
            AnyPredictor::Mascot(p) => {
                w.u8(if p.is_mdp_only() {
                    variant::MASCOT_MDP
                } else {
                    variant::MASCOT
                });
                p.snap_encode(&mut w);
            }
            AnyPredictor::Phast(p) => {
                w.u8(variant::PHAST);
                p.snap_encode(&mut w);
            }
            AnyPredictor::NoSq(p) => {
                w.u8(variant::NOSQ);
                p.snap_encode(&mut w);
            }
            AnyPredictor::MdpTage(p) => {
                w.u8(variant::MDP_TAGE);
                p.snap_encode(&mut w);
            }
            AnyPredictor::StoreSets(p) => {
                w.u8(variant::STORE_SETS);
                p.snap_encode(&mut w);
            }
            AnyPredictor::PerfectMdp(_) => w.u8(variant::PERFECT_MDP),
            AnyPredictor::PerfectMdpSmb(_) => w.u8(variant::PERFECT_MDP_SMB),
            AnyPredictor::RandomizedMascot(p) => {
                w.u8(variant::RANDOMIZED_MASCOT);
                p.snap_encode(&mut w);
            }
        }
        w.into_bytes()
    }

    /// Restores a predictor from a payload produced by
    /// [`AnyPredictor::snapshot_bytes`], fail-closed: unknown variant tags,
    /// truncation, trailing bytes, or any inner inconsistency reject the
    /// whole payload.
    ///
    /// # Errors
    ///
    /// Any [`SnapError`] from the inner decode, or
    /// [`SnapError::Corrupt`] for an unknown variant tag.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, SnapError> {
        let mut r = SnapReader::new(bytes);
        let p = match r.u8("predictor variant tag")? {
            variant::MASCOT => AnyPredictor::Mascot(Mascot::snap_decode(&mut r)?),
            variant::MASCOT_MDP => AnyPredictor::Mascot(Mascot::snap_decode_mdp_only(&mut r)?),
            variant::PHAST => AnyPredictor::Phast(Phast::snap_decode(&mut r)?),
            variant::NOSQ => AnyPredictor::NoSq(NoSq::snap_decode(&mut r)?),
            variant::MDP_TAGE => AnyPredictor::MdpTage(MdpTage::snap_decode(&mut r)?),
            variant::STORE_SETS => AnyPredictor::StoreSets(StoreSets::snap_decode(&mut r)?),
            variant::PERFECT_MDP => AnyPredictor::PerfectMdp(PerfectMdp::new()),
            variant::PERFECT_MDP_SMB => AnyPredictor::PerfectMdpSmb(PerfectMdpSmb::new()),
            variant::RANDOMIZED_MASCOT => {
                AnyPredictor::RandomizedMascot(RandomizedMascot::snap_decode(&mut r)?)
            }
            _ => return Err(SnapError::Corrupt("unknown predictor variant tag")),
        };
        r.finish()?;
        Ok(p)
    }

    /// Folds another predictor's state into this one — the warm-resharding
    /// merge. Both must wrap the same variant (and, transitively, the same
    /// configuration). Returns the number of entries written from `other`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] on a variant or configuration mismatch.
    pub fn merge_from(&mut self, other: &Self) -> Result<u64, SnapError> {
        match (self, other) {
            (AnyPredictor::Mascot(a), AnyPredictor::Mascot(b)) => a.merge_from(b),
            (AnyPredictor::Phast(a), AnyPredictor::Phast(b)) => a.merge_from(b),
            (AnyPredictor::NoSq(a), AnyPredictor::NoSq(b)) => a.merge_from(b),
            (AnyPredictor::MdpTage(a), AnyPredictor::MdpTage(b)) => a.merge_from(b),
            (AnyPredictor::StoreSets(a), AnyPredictor::StoreSets(b)) => a.merge_from(b),
            (AnyPredictor::RandomizedMascot(a), AnyPredictor::RandomizedMascot(b)) => {
                a.merge_from(b)
            }
            (AnyPredictor::PerfectMdp(_), AnyPredictor::PerfectMdp(_))
            | (AnyPredictor::PerfectMdpSmb(_), AnyPredictor::PerfectMdpSmb(_)) => Ok(0),
            _ => Err(SnapError::Corrupt(
                "cannot merge different predictor kinds",
            )),
        }
    }
}

impl MemDepPredictor for AnyPredictor {
    type Meta = AnyMeta;

    fn name(&self) -> &'static str {
        match self {
            AnyPredictor::Mascot(p) => p.name(),
            AnyPredictor::Phast(p) => p.name(),
            AnyPredictor::NoSq(p) => p.name(),
            AnyPredictor::MdpTage(p) => p.name(),
            AnyPredictor::StoreSets(p) => p.name(),
            AnyPredictor::PerfectMdp(p) => p.name(),
            AnyPredictor::PerfectMdpSmb(p) => p.name(),
            AnyPredictor::RandomizedMascot(p) => p.name(),
        }
    }

    fn predict(
        &mut self,
        pc: u64,
        store_seq: u64,
        oracle: Option<&GroundTruth>,
    ) -> (MemDepPrediction, AnyMeta) {
        match self {
            AnyPredictor::Mascot(p) => {
                let (pred, m) = p.predict(pc, store_seq, oracle);
                (pred, AnyMeta::Mascot(m))
            }
            AnyPredictor::Phast(p) => {
                let (pred, m) = p.predict(pc, store_seq, oracle);
                (pred, AnyMeta::Phast(m))
            }
            AnyPredictor::NoSq(p) => {
                let (pred, m) = p.predict(pc, store_seq, oracle);
                (pred, AnyMeta::NoSq(m))
            }
            AnyPredictor::MdpTage(p) => {
                let (pred, m) = p.predict(pc, store_seq, oracle);
                (pred, AnyMeta::MdpTage(m))
            }
            AnyPredictor::StoreSets(p) => {
                let (pred, ()) = p.predict(pc, store_seq, oracle);
                (pred, AnyMeta::Unit)
            }
            AnyPredictor::PerfectMdp(p) => {
                let (pred, ()) = p.predict(pc, store_seq, oracle);
                (pred, AnyMeta::Unit)
            }
            AnyPredictor::PerfectMdpSmb(p) => {
                let (pred, ()) = p.predict(pc, store_seq, oracle);
                (pred, AnyMeta::Unit)
            }
            AnyPredictor::RandomizedMascot(p) => {
                let (pred, m) = p.predict(pc, store_seq, oracle);
                (pred, AnyMeta::Mascot(m))
            }
        }
    }

    fn predict_batch(
        &mut self,
        reqs: &[PredictReq],
        out: &mut Vec<(MemDepPrediction, AnyMeta)>,
    ) {
        out.clear();
        out.reserve(reqs.len());
        // MASCOT-family predictors get the table-major batched probe via a
        // sink closure (no intermediate allocation for the meta rewrap);
        // predictors whose `predict` mutates per-hit state (LRU bits) keep
        // the sequential scalar loop, preserving exact behaviour.
        match self {
            AnyPredictor::Mascot(p) => {
                p.predict_batch_into(reqs, |pred, m| out.push((pred, AnyMeta::Mascot(m))));
            }
            AnyPredictor::Phast(p) => {
                for r in reqs {
                    let (pred, m) = p.predict(r.pc, r.store_seq, r.oracle.as_ref());
                    out.push((pred, AnyMeta::Phast(m)));
                }
            }
            AnyPredictor::NoSq(p) => {
                for r in reqs {
                    let (pred, m) = p.predict(r.pc, r.store_seq, r.oracle.as_ref());
                    out.push((pred, AnyMeta::NoSq(m)));
                }
            }
            AnyPredictor::MdpTage(p) => {
                for r in reqs {
                    let (pred, m) = p.predict(r.pc, r.store_seq, r.oracle.as_ref());
                    out.push((pred, AnyMeta::MdpTage(m)));
                }
            }
            AnyPredictor::StoreSets(p) => {
                for r in reqs {
                    let (pred, ()) = p.predict(r.pc, r.store_seq, r.oracle.as_ref());
                    out.push((pred, AnyMeta::Unit));
                }
            }
            AnyPredictor::PerfectMdp(p) => {
                for r in reqs {
                    let (pred, ()) = p.predict(r.pc, r.store_seq, r.oracle.as_ref());
                    out.push((pred, AnyMeta::Unit));
                }
            }
            AnyPredictor::PerfectMdpSmb(p) => {
                for r in reqs {
                    let (pred, ()) = p.predict(r.pc, r.store_seq, r.oracle.as_ref());
                    out.push((pred, AnyMeta::Unit));
                }
            }
            AnyPredictor::RandomizedMascot(p) => {
                p.predict_batch_into(reqs, |pred, m| out.push((pred, AnyMeta::Mascot(m))));
            }
        }
    }

    fn train_batch(&mut self, reqs: &mut Vec<TrainReq<AnyMeta>>) {
        // Hoist the variant dispatch out of the per-record loop; each arm
        // drains with its own meta unwrap (training order is preserved).
        match self {
            AnyPredictor::Mascot(p) => {
                for r in reqs.drain(..) {
                    if let AnyMeta::Mascot(m) = r.meta {
                        p.train(r.pc, m, r.predicted, &r.outcome);
                    } else {
                        debug_assert!(false, "meta kind mismatch for mascot");
                    }
                }
            }
            AnyPredictor::Phast(p) => {
                for r in reqs.drain(..) {
                    if let AnyMeta::Phast(m) = r.meta {
                        p.train(r.pc, m, r.predicted, &r.outcome);
                    } else {
                        debug_assert!(false, "meta kind mismatch for phast");
                    }
                }
            }
            AnyPredictor::NoSq(p) => {
                for r in reqs.drain(..) {
                    if let AnyMeta::NoSq(m) = r.meta {
                        p.train(r.pc, m, r.predicted, &r.outcome);
                    } else {
                        debug_assert!(false, "meta kind mismatch for nosq");
                    }
                }
            }
            AnyPredictor::MdpTage(p) => {
                for r in reqs.drain(..) {
                    if let AnyMeta::MdpTage(m) = r.meta {
                        p.train(r.pc, m, r.predicted, &r.outcome);
                    } else {
                        debug_assert!(false, "meta kind mismatch for mdp-tage");
                    }
                }
            }
            AnyPredictor::StoreSets(p) => {
                for r in reqs.drain(..) {
                    p.train(r.pc, (), r.predicted, &r.outcome);
                }
            }
            AnyPredictor::PerfectMdp(p) => {
                for r in reqs.drain(..) {
                    p.train(r.pc, (), r.predicted, &r.outcome);
                }
            }
            AnyPredictor::PerfectMdpSmb(p) => {
                for r in reqs.drain(..) {
                    p.train(r.pc, (), r.predicted, &r.outcome);
                }
            }
            AnyPredictor::RandomizedMascot(p) => {
                for r in reqs.drain(..) {
                    if let AnyMeta::Mascot(m) = r.meta {
                        p.train(r.pc, m, r.predicted, &r.outcome);
                    } else {
                        debug_assert!(false, "meta kind mismatch for randomized-mascot");
                    }
                }
            }
        }
    }

    fn train(
        &mut self,
        pc: u64,
        meta: AnyMeta,
        predicted: MemDepPrediction,
        outcome: &LoadOutcome,
    ) {
        match (self, meta) {
            (AnyPredictor::Mascot(p), AnyMeta::Mascot(m)) => p.train(pc, m, predicted, outcome),
            (AnyPredictor::Phast(p), AnyMeta::Phast(m)) => p.train(pc, m, predicted, outcome),
            (AnyPredictor::NoSq(p), AnyMeta::NoSq(m)) => p.train(pc, m, predicted, outcome),
            (AnyPredictor::MdpTage(p), AnyMeta::MdpTage(m)) => p.train(pc, m, predicted, outcome),
            (AnyPredictor::StoreSets(p), AnyMeta::Unit) => p.train(pc, (), predicted, outcome),
            (AnyPredictor::PerfectMdp(p), AnyMeta::Unit) => p.train(pc, (), predicted, outcome),
            (AnyPredictor::PerfectMdpSmb(p), AnyMeta::Unit) => p.train(pc, (), predicted, outcome),
            (AnyPredictor::RandomizedMascot(p), AnyMeta::Mascot(m)) => {
                p.train(pc, m, predicted, outcome)
            }
            (this, meta) => {
                debug_assert!(
                    false,
                    "metadata kind {meta:?} does not match predictor {}",
                    this.name()
                );
            }
        }
    }

    fn on_branch(&mut self, event: &BranchEvent) {
        match self {
            AnyPredictor::Mascot(p) => p.on_branch(event),
            AnyPredictor::Phast(p) => p.on_branch(event),
            AnyPredictor::NoSq(p) => p.on_branch(event),
            AnyPredictor::MdpTage(p) => p.on_branch(event),
            AnyPredictor::StoreSets(p) => p.on_branch(event),
            AnyPredictor::PerfectMdp(p) => p.on_branch(event),
            AnyPredictor::PerfectMdpSmb(p) => p.on_branch(event),
            AnyPredictor::RandomizedMascot(p) => p.on_branch(event),
        }
    }

    fn rewind_history(&mut self, recent: &[BranchEvent]) {
        match self {
            AnyPredictor::Mascot(p) => p.rewind_history(recent),
            AnyPredictor::Phast(p) => p.rewind_history(recent),
            AnyPredictor::NoSq(p) => p.rewind_history(recent),
            AnyPredictor::MdpTage(p) => p.rewind_history(recent),
            AnyPredictor::StoreSets(p) => p.rewind_history(recent),
            AnyPredictor::PerfectMdp(p) => p.rewind_history(recent),
            AnyPredictor::PerfectMdpSmb(p) => p.rewind_history(recent),
            AnyPredictor::RandomizedMascot(p) => p.rewind_history(recent),
        }
    }

    fn predict_store_wait(&mut self, pc: u64, store_seq: u64) -> Option<mascot::StoreDistance> {
        match self {
            AnyPredictor::Mascot(p) => p.predict_store_wait(pc, store_seq),
            AnyPredictor::Phast(p) => p.predict_store_wait(pc, store_seq),
            AnyPredictor::NoSq(p) => p.predict_store_wait(pc, store_seq),
            AnyPredictor::MdpTage(p) => p.predict_store_wait(pc, store_seq),
            AnyPredictor::StoreSets(p) => p.predict_store_wait(pc, store_seq),
            AnyPredictor::PerfectMdp(p) => p.predict_store_wait(pc, store_seq),
            AnyPredictor::PerfectMdpSmb(p) => p.predict_store_wait(pc, store_seq),
            AnyPredictor::RandomizedMascot(p) => p.predict_store_wait(pc, store_seq),
        }
    }

    fn on_store_dispatch(&mut self, pc: u64, store_seq: u64) {
        match self {
            AnyPredictor::Mascot(p) => p.on_store_dispatch(pc, store_seq),
            AnyPredictor::Phast(p) => p.on_store_dispatch(pc, store_seq),
            AnyPredictor::NoSq(p) => p.on_store_dispatch(pc, store_seq),
            AnyPredictor::MdpTage(p) => p.on_store_dispatch(pc, store_seq),
            AnyPredictor::StoreSets(p) => p.on_store_dispatch(pc, store_seq),
            AnyPredictor::PerfectMdp(p) => p.on_store_dispatch(pc, store_seq),
            AnyPredictor::PerfectMdpSmb(p) => p.on_store_dispatch(pc, store_seq),
            AnyPredictor::RandomizedMascot(p) => p.on_store_dispatch(pc, store_seq),
        }
    }

    fn bypass_supports_offset(&self) -> bool {
        match self {
            AnyPredictor::Mascot(p) => p.bypass_supports_offset(),
            AnyPredictor::Phast(p) => p.bypass_supports_offset(),
            AnyPredictor::NoSq(p) => p.bypass_supports_offset(),
            AnyPredictor::MdpTage(p) => p.bypass_supports_offset(),
            AnyPredictor::StoreSets(p) => p.bypass_supports_offset(),
            AnyPredictor::PerfectMdp(p) => p.bypass_supports_offset(),
            AnyPredictor::PerfectMdpSmb(p) => p.bypass_supports_offset(),
            AnyPredictor::RandomizedMascot(p) => p.bypass_supports_offset(),
        }
    }

    fn storage_bits(&self) -> u64 {
        match self {
            AnyPredictor::Mascot(p) => p.storage_bits(),
            AnyPredictor::Phast(p) => p.storage_bits(),
            AnyPredictor::NoSq(p) => p.storage_bits(),
            AnyPredictor::MdpTage(p) => p.storage_bits(),
            AnyPredictor::StoreSets(p) => p.storage_bits(),
            AnyPredictor::PerfectMdp(p) => p.storage_bits(),
            AnyPredictor::PerfectMdpSmb(p) => p.storage_bits(),
            AnyPredictor::RandomizedMascot(p) => p.storage_bits(),
        }
    }

    fn end_tuning_period(&mut self) {
        match self {
            AnyPredictor::Mascot(p) => p.end_tuning_period(),
            AnyPredictor::Phast(p) => p.end_tuning_period(),
            AnyPredictor::NoSq(p) => p.end_tuning_period(),
            AnyPredictor::MdpTage(p) => p.end_tuning_period(),
            AnyPredictor::StoreSets(p) => p.end_tuning_period(),
            AnyPredictor::PerfectMdp(p) => p.end_tuning_period(),
            AnyPredictor::PerfectMdpSmb(p) => p.end_tuning_period(),
            AnyPredictor::RandomizedMascot(p) => p.end_tuning_period(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mascot::config::MascotConfig;

    #[test]
    fn names_are_distinct() {
        let ps = [
            AnyPredictor::Mascot(Mascot::new(MascotConfig::default()).unwrap()),
            AnyPredictor::Mascot(Mascot::mdp_only(MascotConfig::default()).unwrap()),
            AnyPredictor::Phast(Phast::default()),
            AnyPredictor::NoSq(NoSq::default()),
            AnyPredictor::StoreSets(StoreSets::default()),
            AnyPredictor::PerfectMdp(PerfectMdp::new()),
            AnyPredictor::PerfectMdpSmb(PerfectMdpSmb::new()),
        ];
        let names: std::collections::HashSet<_> = ps.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), ps.len());
    }

    #[test]
    fn dispatch_roundtrip() {
        let mut p = AnyPredictor::Phast(Phast::default());
        let (pred, meta) = p.predict(0x100, 0, None);
        assert_eq!(pred, MemDepPrediction::NoDependence);
        p.train(0x100, meta, pred, &LoadOutcome::independent());
    }

    #[test]
    fn ablation_is_named_through_any() {
        let p = AnyPredictor::Mascot(
            Mascot::without_non_dependence_allocation(MascotConfig::default()).unwrap(),
        );
        assert_eq!(p.name(), "tage-no-nd");
    }

    use mascot::history::BranchKind;
    use mascot::prediction::{BypassClass, ObservedDependence, StoreDistance};

    fn drive(p: &mut AnyPredictor, rounds: u64, salt: u64) {
        let mut rng = 0x243f_6a88_85a3_08d3_u64 ^ salt;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut store_seq = 0u64;
        for r in 0..rounds {
            p.on_branch(&BranchEvent {
                pc: 0x600 + (r % 32) * 4,
                kind: BranchKind::Conditional,
                taken: r % 3 != 0,
                target: 0,
            });
            let store_pc = 0x7000 + (next() % 16) * 8;
            p.on_store_dispatch(store_pc, store_seq);
            store_seq += 1;
            let pc = 0x4000 + (next() % 24) * 4;
            let (pred, meta) = p.predict(pc, store_seq, None);
            let outcome = if next() % 3 == 0 {
                LoadOutcome::independent()
            } else {
                LoadOutcome::dependent(ObservedDependence {
                    distance: StoreDistance::new(1 + (next() % 7) as u32).unwrap(),
                    class: BypassClass::DirectBypass,
                    store_pc,
                    branches_between: (next() % 4) as u32,
                })
            };
            p.train(pc, meta, pred, &outcome);
        }
    }

    #[test]
    fn snapshot_roundtrip_every_kind() {
        use crate::kind::PredictorKind;
        for kind in PredictorKind::ALL {
            let mut p = kind.build();
            drive(&mut p, 300, 0x11);
            let bytes = p.snapshot_bytes();
            let mut q = AnyPredictor::from_snapshot_bytes(&bytes)
                .unwrap_or_else(|e| panic!("{kind:?}: restore failed: {e}"));
            assert_eq!(q.snapshot_bytes(), bytes, "{kind:?}: re-encode differs");
            assert_eq!(q.entry_count(), p.entry_count(), "{kind:?}");
            drive(&mut p, 150, 0x22);
            drive(&mut q, 150, 0x22);
            assert_eq!(
                q.snapshot_bytes(),
                p.snapshot_bytes(),
                "{kind:?}: diverged after identical post-restore traffic"
            );
        }
    }

    #[test]
    fn snapshot_decode_rejects_bad_variants() {
        assert!(AnyPredictor::from_snapshot_bytes(&[]).is_err());
        assert!(AnyPredictor::from_snapshot_bytes(&[0xff]).is_err());
        // A stateless oracle body must be exactly empty.
        assert!(AnyPredictor::from_snapshot_bytes(&[6, 0]).is_err());
        // The MDP-only tag over a Fig. 11 ablation body is not a payload
        // any build writes.
        let mut ablation = crate::kind::PredictorKind::TageNoNd.build().snapshot_bytes();
        ablation[0] = variant::MASCOT_MDP;
        assert!(AnyPredictor::from_snapshot_bytes(&ablation).is_err());
        let mut p = AnyPredictor::StoreSets(StoreSets::default());
        drive(&mut p, 50, 0x33);
        let bytes = p.snapshot_bytes();
        for cut in [1, 2, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                AnyPredictor::from_snapshot_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn merge_rejects_kind_mismatch() {
        let mut a = AnyPredictor::Phast(Phast::default());
        let b = AnyPredictor::NoSq(NoSq::default());
        assert!(a.merge_from(&b).is_err());
        let mut o = AnyPredictor::PerfectMdp(PerfectMdp::new());
        assert_eq!(
            o.merge_from(&AnyPredictor::PerfectMdp(PerfectMdp::new()))
                .unwrap(),
            0
        );
    }

    #[test]
    fn as_mascot_exposes_family_members() {
        let m = AnyPredictor::Mascot(Mascot::new(MascotConfig::default()).unwrap());
        assert!(m.as_mascot().is_some());
        let p = AnyPredictor::Phast(Phast::default());
        assert!(p.as_mascot().is_none());
    }
}

//! Frontend branch prediction: a TAGE direction predictor plus a last-target
//! table for indirect branches.
//!
//! The paper's core uses TAGE-SC-L; we model the TAGE component (the
//! statistical corrector and loop predictor move branch MPKI by fractions
//! that do not change the history structure MASCOT consumes). Because the
//! simulator is trace-driven, the predictor is queried and trained at decode
//! with the architectural outcome; a mispredicted branch stalls fetch until
//! the branch resolves plus the redirect penalty.

use mascot::history::{rewind_hashers, BranchEvent, BranchKind, GlobalHistory, TableHasher};
use mascot::table::AssocTable;
use mascot_stats::SaturatingCounter;

/// Configuration for [`TagePredictor`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchPredictorConfig {
    /// Bimodal (base) predictor entries (power of two).
    pub bimodal_entries: usize,
    /// Global-history length per tagged table.
    pub history_lengths: Vec<u32>,
    /// Entries per tagged table.
    pub table_entries: u32,
    /// Tag width in bits.
    pub tag_bits: u8,
    /// Entries in the indirect-target table (power of two).
    pub btb_entries: usize,
}

impl Default for BranchPredictorConfig {
    fn default() -> Self {
        // Sized to approximate TAGE-SC-L accuracy (the Table-I frontend)
        // with a plain TAGE: more tables, longer histories, bigger tag
        // arrays than a minimal TAGE.
        Self {
            bimodal_entries: 8192,
            history_lengths: vec![2, 4, 8, 16, 32, 64, 128, 256],
            table_entries: 2048,
            tag_bits: 13,
            btb_entries: 2048,
        }
    }
}

/// Entry payload; the tag lives in the table's SoA tag lane.
#[derive(Debug, Clone)]
struct TageEntry {
    /// 3-bit direction counter; taken when >= 4.
    ctr: SaturatingCounter,
    /// 2-bit usefulness.
    useful: SaturatingCounter,
}

/// A TAGE branch-direction predictor with an indirect-target side table.
#[derive(Debug, Clone)]
pub struct TagePredictor {
    bimodal: Vec<SaturatingCounter>,
    tables: Vec<AssocTable<TageEntry>>,
    hashers: Vec<TableHasher>,
    history: GlobalHistory,
    /// Indirect-branch last-target table: (pc, target).
    btb: Vec<Option<(u64, u64)>>,
    alloc_rotor: usize,
    /// Lifetime statistics.
    pub stats: BranchStats,
}

/// Branch predictor statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchStats {
    /// Conditional branches predicted.
    pub conditional: u64,
    /// Conditional direction mispredictions.
    pub cond_mispredicts: u64,
    /// Indirect branches predicted.
    pub indirect: u64,
    /// Indirect target mispredictions.
    pub indirect_mispredicts: u64,
}

impl Default for TagePredictor {
    fn default() -> Self {
        Self::new(BranchPredictorConfig::default())
    }
}

impl TagePredictor {
    /// Creates a predictor.
    ///
    /// # Panics
    ///
    /// Panics if table sizes are not powers of two.
    pub fn new(cfg: BranchPredictorConfig) -> Self {
        assert!(cfg.bimodal_entries.is_power_of_two());
        assert!(cfg.btb_entries.is_power_of_two());
        let fill = TageEntry {
            ctr: SaturatingCounter::new(3, 0),
            useful: SaturatingCounter::new(2, 0),
        };
        let tables: Vec<_> = cfg
            .history_lengths
            .iter()
            .map(|_| AssocTable::new(cfg.table_entries as usize / 4, 4, fill.clone()))
            .collect();
        let hashers: Vec<_> = cfg
            .history_lengths
            .iter()
            .zip(&tables)
            .map(|(&h, t)| TableHasher::new(h, t.index_bits(), u32::from(cfg.tag_bits)))
            .collect();
        let max_hist = cfg.history_lengths.last().copied().unwrap_or(8) as usize;
        Self {
            bimodal: vec![SaturatingCounter::new(2, 2); cfg.bimodal_entries],
            tables,
            hashers,
            history: GlobalHistory::new((max_hist * 2).max(64)),
            btb: vec![None; cfg.btb_entries],
            alloc_rotor: 0,
            stats: BranchStats::default(),
        }
    }

    #[inline]
    fn bimodal_index(&self, pc: u64) -> usize {
        ((pc >> 2) ^ (pc >> 14)) as usize & (self.bimodal.len() - 1)
    }

    #[inline]
    fn btb_index(&self, pc: u64) -> usize {
        ((pc >> 2) ^ (pc >> 12)) as usize & (self.btb.len() - 1)
    }

    /// Predicts the direction of the conditional branch at `pc`, then
    /// immediately trains with `actual` (trace-driven decode-time update).
    /// Returns `true` when the prediction was correct.
    pub fn predict_and_train(&mut self, pc: u64, actual: bool) -> bool {
        self.stats.conditional += 1;
        // Lookup: longest-history hit provides, bimodal is the fallback.
        let mut provider: Option<(usize, u64, u64)> = None; // (table, index, tag)
        let mut prediction = None;
        for t in (0..self.tables.len()).rev() {
            let index = self.hashers[t].index(pc);
            let tag = self.hashers[t].tag(pc);
            if let Some((_, e)) = self.tables[t].find(index, tag) {
                provider = Some((t, index, tag));
                prediction = Some(e.ctr.value() >= 4);
                break;
            }
        }
        let bim_idx = self.bimodal_index(pc);
        let bimodal_pred = self.bimodal[bim_idx].value() >= 2;
        let predicted = prediction.unwrap_or(bimodal_pred);
        let correct = predicted == actual;
        if !correct {
            self.stats.cond_mispredicts += 1;
        }

        // Train the provider (or bimodal).
        match provider {
            Some((t, index, tag)) => {
                let alt_differs = prediction != Some(bimodal_pred);
                if let Some((_, e)) = self.tables[t].find_mut(index, tag) {
                    if actual {
                        e.ctr.increment();
                    } else {
                        e.ctr.decrement();
                    }
                    if alt_differs {
                        if correct {
                            e.useful.increment();
                        } else {
                            e.useful.decrement();
                        }
                    }
                }
            }
            None => {
                if actual {
                    self.bimodal[bim_idx].increment();
                } else {
                    self.bimodal[bim_idx].decrement();
                }
            }
        }

        // Allocate a longer-history entry on a misprediction.
        if !correct {
            let start = provider.map_or(0, |(t, _, _)| t + 1);
            self.allocate(pc, start, actual);
        }
        correct
    }

    fn allocate(&mut self, pc: u64, start: usize, actual: bool) {
        if start >= self.tables.len() {
            return;
        }
        // Rotate the first candidate table to avoid pathological ping-pong.
        let span = self.tables.len() - start;
        let first = start + self.alloc_rotor % span.min(2);
        self.alloc_rotor = self.alloc_rotor.wrapping_add(1);
        for t in first..self.tables.len() {
            let index = self.hashers[t].index(pc);
            let tag = self.hashers[t].tag(pc);
            let entry = TageEntry {
                ctr: SaturatingCounter::new(3, if actual { 4 } else { 3 }),
                useful: SaturatingCounter::new(2, 0),
            };
            if self.tables[t]
                .try_insert(index, tag, entry, |e| e.useful.is_zero())
                .is_some()
            {
                return;
            }
            self.tables[t].for_each_valid_mut(index, |_, e| e.useful.decrement());
        }
    }

    /// Predicts the target of the indirect branch at `pc`, trains with the
    /// actual target, and returns `true` when the prediction was correct.
    pub fn predict_indirect_and_train(&mut self, pc: u64, actual_target: u64) -> bool {
        self.stats.indirect += 1;
        let idx = self.btb_index(pc);
        let correct = matches!(self.btb[idx], Some((p, t)) if p == pc && t == actual_target);
        if !correct {
            self.stats.indirect_mispredicts += 1;
        }
        self.btb[idx] = Some((pc, actual_target));
        correct
    }

    /// Advances speculative history with a decoded branch.
    pub fn on_branch(&mut self, event: &BranchEvent) {
        for h in &mut self.hashers {
            h.on_branch(&self.history, event);
        }
        self.history.push(*event);
    }

    /// Restores history after a pipeline squash.
    pub fn rewind_history(&mut self, recent: &[BranchEvent]) {
        rewind_hashers(&mut self.history, &mut self.hashers, recent);
    }

    /// Conditional misprediction rate over the predictor's lifetime.
    pub fn mispredict_rate(&self) -> f64 {
        if self.stats.conditional == 0 {
            0.0
        } else {
            self.stats.cond_mispredicts as f64 / self.stats.conditional as f64
        }
    }
}

/// Helper: the history event for a decoded branch.
pub fn event_for(pc: u64, kind: BranchKind, taken: bool, target: u64) -> BranchEvent {
    BranchEvent {
        pc,
        kind,
        taken,
        target,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_pattern<F>(p: &mut TagePredictor, pc: u64, n: usize, mut outcome: F) -> f64
    where
        F: FnMut(usize) -> bool,
    {
        let mut correct = 0usize;
        for i in 0..n {
            let taken = outcome(i);
            if p.predict_and_train(pc, taken) {
                correct += 1;
            }
            p.on_branch(&event_for(pc, BranchKind::Conditional, taken, pc + 32));
        }
        correct as f64 / n as f64
    }

    #[test]
    fn always_taken_is_nearly_perfect() {
        let mut p = TagePredictor::default();
        let acc = run_pattern(&mut p, 0x100, 500, |_| true);
        assert!(acc > 0.98, "accuracy {acc}");
    }

    #[test]
    fn alternating_pattern_is_learned_by_history_tables() {
        let mut p = TagePredictor::default();
        // Warmup then measure.
        run_pattern(&mut p, 0x200, 600, |i| i % 2 == 0);
        let acc = run_pattern(&mut p, 0x200, 400, |i| i % 2 == 0);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn period_four_pattern_is_learned() {
        let mut p = TagePredictor::default();
        run_pattern(&mut p, 0x300, 1200, |i| i % 4 == 0);
        let acc = run_pattern(&mut p, 0x300, 400, |i| i % 4 == 0);
        assert!(acc > 0.85, "accuracy {acc}");
    }

    #[test]
    fn biased_random_tracks_bias() {
        let mut p = TagePredictor::default();
        // Deterministic pseudo-random 85/15 bias.
        let mut state = 0x2837_1923u64;
        let mut gen = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) % 100 < 85
        };
        run_pattern(&mut p, 0x400, 1000, |_| gen());
        let acc = run_pattern(&mut p, 0x400, 1000, |_| gen());
        assert!(acc > 0.75, "accuracy {acc}");
    }

    #[test]
    fn indirect_last_target_behaviour() {
        let mut p = TagePredictor::default();
        assert!(!p.predict_indirect_and_train(0x500, 0x1000), "cold miss");
        assert!(p.predict_indirect_and_train(0x500, 0x1000), "repeat hit");
        assert!(!p.predict_indirect_and_train(0x500, 0x2000), "target change");
        assert!(p.predict_indirect_and_train(0x500, 0x2000));
        assert_eq!(p.stats.indirect, 4);
        assert_eq!(p.stats.indirect_mispredicts, 2);
    }

    #[test]
    fn rewind_is_consistent_with_replay() {
        let mut p = TagePredictor::default();
        let mut log = Vec::new();
        for i in 0..30u64 {
            let ev = event_for(0x600 + i * 4, BranchKind::Conditional, i % 3 == 0, 0x700);
            p.on_branch(&ev);
            log.push(ev);
        }
        let mut q = p.clone();
        // p takes wrong-path history then rewinds; q never diverges.
        for i in 0..4u64 {
            p.on_branch(&event_for(0x900 + i * 4, BranchKind::Conditional, true, 0xa00));
        }
        p.rewind_history(&log);
        // Both must produce identical predictions afterwards.
        for i in 0..20u64 {
            let taken = i % 2 == 0;
            let a = p.predict_and_train(0x123456, taken);
            let b = q.predict_and_train(0x123456, taken);
            assert_eq!(a, b, "diverged at {i}");
            let ev = event_for(0x123456, BranchKind::Conditional, taken, 0x20);
            p.on_branch(&ev);
            q.on_branch(&ev);
        }
    }
}

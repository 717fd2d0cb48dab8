//! NoSQ-style combined MDP/SMB predictor (Sha, Martin & Roth, MICRO 2006),
//! as configured in §V / Table II of the MASCOT paper.
//!
//! Two 4-way tables of 2 K entries each: a *path-dependent* table indexed by
//! a GShare-style hash of the load PC with folded global history, and a
//! *path-independent* table indexed by PC alone. Entries carry a 22-bit tag,
//! a 7-bit confidence counter, a 7-bit store distance and 2 LRU bits (19 KB
//! total).
//!
//! Prediction policy (§V): a saturated-confidence hit in the path-dependent
//! table performs SMB; a lower-confidence path-dependent hit makes the load
//! wait for the predicted store only; a path-independent hit is never
//! allowed to bypass; a miss lets the load execute speculatively. NoSQ's
//! bypass datapath supports offset (partial-word) bypassing.

use mascot::history::{rewind_hashers, BranchEvent, GlobalHistory, TableHasher};
use mascot::prediction::{
    GroundTruth, LoadOutcome, MemDepPredictor, MemDepPrediction, StoreDistance,
};
use mascot::predictor::TableLookup;
use mascot::table::AssocTable;
use mascot_snapshot::{SnapError, SnapReader, SnapWriter};
use mascot_stats::SaturatingCounter;

/// Configuration for [`NoSq`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NoSqConfig {
    /// Entries per table (Table II: 2048 each, 4096 total).
    pub entries_per_table: u32,
    /// Associativity (4).
    pub associativity: u32,
    /// Tag width (22 bits).
    pub tag_bits: u8,
    /// Confidence counter width (7 bits).
    pub confidence_bits: u8,
    /// Branches of global history hashed into the path-dependent index.
    pub history_len: u32,
}

impl Default for NoSqConfig {
    fn default() -> Self {
        Self {
            entries_per_table: 2048,
            associativity: 4,
            tag_bits: 22,
            confidence_bits: 7,
            history_len: 10,
        }
    }
}

impl NoSqConfig {
    fn check(&self) -> Result<(), SnapError> {
        if self.associativity == 0
            || self.entries_per_table == 0
            || self.entries_per_table % self.associativity != 0
            || !(self.entries_per_table / self.associativity).is_power_of_two()
        {
            return Err(SnapError::Corrupt("nosq table geometry is invalid"));
        }
        if self.tag_bits == 0 || self.tag_bits > 30 {
            return Err(SnapError::Corrupt("nosq tag width out of range"));
        }
        if !(1..=7).contains(&self.confidence_bits) {
            return Err(SnapError::Corrupt("nosq confidence width out of range"));
        }
        if self.history_len > 1 << 20 {
            return Err(SnapError::Corrupt("nosq history length out of range"));
        }
        Ok(())
    }

    fn snap_encode(&self, w: &mut SnapWriter) {
        w.u32(self.entries_per_table);
        w.u32(self.associativity);
        w.u8(self.tag_bits);
        w.u8(self.confidence_bits);
        w.u32(self.history_len);
    }

    fn snap_decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let cfg = Self {
            entries_per_table: r.u32("nosq entries per table")?,
            associativity: r.u32("nosq associativity")?,
            tag_bits: r.u8("nosq tag width")?,
            confidence_bits: r.u8("nosq confidence width")?,
            history_len: r.u32("nosq history length")?,
        };
        cfg.check()?;
        Ok(cfg)
    }
}

/// Entry payload; the tag lives in the table's SoA tag lane.
#[derive(Debug, Clone, PartialEq, Eq)]
struct NoSqEntry {
    distance: u8,
    confidence: SaturatingCounter,
    lru: u8,
}

impl NoSqEntry {
    fn snap_encode(&self, w: &mut SnapWriter) {
        w.u8(self.distance);
        self.confidence.snap_encode(w);
        w.u8(self.lru);
    }

    fn snap_decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let distance = r.u8("nosq entry distance")?;
        if !(1..=127).contains(&distance) {
            return Err(SnapError::Corrupt("nosq entry distance out of range"));
        }
        let confidence = SaturatingCounter::snap_decode(r)?;
        let lru = r.u8("nosq entry lru")?;
        if lru > 3 {
            return Err(SnapError::Corrupt("nosq entry lru exceeds 2 bits"));
        }
        Ok(Self {
            distance,
            confidence,
            lru,
        })
    }
}

/// Which table provided a prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Provider {
    PathDependent,
    PathIndependent,
    None,
}

/// Per-prediction metadata for [`NoSq`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoSqMeta {
    path_dep: TableLookup,
    path_indep: TableLookup,
    provider: Provider,
}

/// The NoSQ-style predictor.
///
/// # Examples
///
/// ```
/// use mascot_predictors::NoSq;
/// use mascot::MemDepPredictor;
///
/// let p = NoSq::default();
/// assert!((p.storage_kib() - 19.0).abs() < 0.01); // Table II
/// assert!(p.bypass_supports_offset());
/// ```
#[derive(Debug, Clone)]
pub struct NoSq {
    cfg: NoSqConfig,
    path_dep: AssocTable<NoSqEntry>,
    path_indep: AssocTable<NoSqEntry>,
    dep_hasher: TableHasher,
    indep_hasher: TableHasher,
    history: GlobalHistory,
}

impl Default for NoSq {
    fn default() -> Self {
        Self::new(NoSqConfig::default())
    }
}

impl NoSq {
    /// Creates a predictor from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if entries/associativity do not yield power-of-two set counts.
    pub fn new(cfg: NoSqConfig) -> Self {
        let sets = (cfg.entries_per_table / cfg.associativity) as usize;
        let fill = NoSqEntry {
            distance: 0,
            confidence: SaturatingCounter::new(cfg.confidence_bits, 0),
            lru: 0,
        };
        let path_dep = AssocTable::new(sets, cfg.associativity as usize, fill.clone());
        let path_indep = AssocTable::new(sets, cfg.associativity as usize, fill);
        let dep_hasher = TableHasher::new(cfg.history_len, path_dep.index_bits(), u32::from(cfg.tag_bits));
        let indep_hasher = TableHasher::new(0, path_indep.index_bits(), u32::from(cfg.tag_bits));
        Self {
            path_dep,
            path_indep,
            dep_hasher,
            indep_hasher,
            history: GlobalHistory::new((cfg.history_len as usize * 2).max(64)),
            cfg,
        }
    }

    fn touch_lru(table: &mut AssocTable<NoSqEntry>, index: u64, tag: u64) {
        let hit_way = table.set_tags(index).iter().rposition(|&t| t == tag);
        if let Some(hit) = hit_way {
            table.for_each_valid_mut(index, |way, e| {
                if way == hit {
                    e.lru = 3;
                } else {
                    e.lru = e.lru.saturating_sub(1);
                }
            });
        }
    }

    /// Inserts or updates `(index, tag)` with the observed distance.
    /// Existing entries are retargeted with confidence reset; new entries
    /// replace an invalid way, else the LRU way.
    fn upsert(&mut self, table: Table, lk: TableLookup, distance: StoreDistance) {
        let cfg_conf = self.cfg.confidence_bits;
        let t = match table {
            Table::PathDep => &mut self.path_dep,
            Table::PathIndep => &mut self.path_indep,
        };
        let (index, tag) = (u64::from(lk.index), u64::from(lk.tag));
        if let Some((_, e)) = t.find_mut(index, tag) {
            if e.distance == distance.get() {
                e.confidence.increment();
            } else {
                e.distance = distance.get();
                e.confidence.reset();
            }
            Self::touch_lru(t, index, tag);
            return;
        }
        let ways = t.assoc();
        let victim = (0..ways)
            .find(|&w| !t.is_valid(index, w))
            .unwrap_or_else(|| {
                (0..ways)
                    .min_by_key(|&w| {
                        let e = t.payload(index, w);
                        (e.lru, e.confidence.value())
                    })
                    .expect("associativity is non-zero")
            });
        t.insert_at(
            index,
            victim,
            tag,
            NoSqEntry {
                distance: distance.get(),
                confidence: SaturatingCounter::new(cfg_conf, 0),
                lru: 3,
            },
        );
        t.for_each_valid_mut(index, |way, e| {
            if way != victim {
                e.lru = e.lru.saturating_sub(1);
            }
        });
    }

    /// Total valid entries across both tables.
    pub fn entry_count(&self) -> u64 {
        (self.path_dep.occupancy() + self.path_indep.occupancy()) as u64
    }

    /// Serializes the full state (configuration, both tables, history).
    /// Hashers are recomputed from the history on decode.
    pub fn snap_encode(&self, w: &mut SnapWriter) {
        self.cfg.snap_encode(w);
        self.history.snap_encode(w);
        self.path_dep.snap_encode_with(w, |e, w| e.snap_encode(w));
        self.path_indep.snap_encode_with(w, |e, w| e.snap_encode(w));
    }

    /// Decodes a predictor from a snapshot payload, fail-closed.
    ///
    /// # Errors
    ///
    /// [`SnapError`] on truncation or any field inconsistent with the
    /// embedded configuration.
    pub fn snap_decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let cfg = NoSqConfig::snap_decode(r)?;
        let mut p = Self::new(cfg);
        let history = GlobalHistory::snap_decode(r)?;
        if history.capacity() != p.history.capacity() {
            return Err(SnapError::Corrupt("nosq history capacity mismatch"));
        }
        p.history = history;
        p.dep_hasher.recompute(&p.history);
        p.indep_hasher.recompute(&p.history);
        let fill = NoSqEntry {
            distance: 0,
            confidence: SaturatingCounter::new(p.cfg.confidence_bits, 0),
            lru: 0,
        };
        let sets = (p.cfg.entries_per_table / p.cfg.associativity) as usize;
        let assoc = p.cfg.associativity as usize;
        let tag_limit = 1u64 << p.cfg.tag_bits;
        p.path_dep = AssocTable::snap_decode_with(
            r,
            sets,
            assoc,
            fill.clone(),
            |t| t < tag_limit,
            NoSqEntry::snap_decode,
        )?;
        p.path_indep = AssocTable::snap_decode_with(
            r,
            sets,
            assoc,
            fill,
            |t| t < tag_limit,
            NoSqEntry::snap_decode,
        )?;
        Ok(p)
    }

    /// Folds another predictor's tables into this one (warm resharding),
    /// preferring the higher-confidence entry on collision.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] when the configurations differ.
    pub fn merge_from(&mut self, other: &Self) -> Result<u64, SnapError> {
        if self.cfg != other.cfg {
            return Err(SnapError::Corrupt(
                "cannot merge nosq predictors with different configurations",
            ));
        }
        let prefer = |incoming: &NoSqEntry, incumbent: &NoSqEntry| {
            incoming.confidence.value() > incumbent.confidence.value()
        };
        let mut written = self.path_dep.merge_from_with(&other.path_dep, prefer)?;
        written += self.path_indep.merge_from_with(&other.path_indep, prefer)?;
        Ok(written)
    }
}

#[derive(Debug, Clone, Copy)]
enum Table {
    PathDep,
    PathIndep,
}

impl MemDepPredictor for NoSq {
    type Meta = NoSqMeta;

    fn name(&self) -> &'static str {
        "nosq"
    }

    fn predict(
        &mut self,
        pc: u64,
        _store_seq: u64,
        _oracle: Option<&GroundTruth>,
    ) -> (MemDepPrediction, NoSqMeta) {
        let pd = TableLookup {
            index: self.dep_hasher.index(pc) as u32,
            tag: self.dep_hasher.tag(pc) as u32,
        };
        let pi = TableLookup {
            index: self.indep_hasher.index(pc) as u32,
            tag: self.indep_hasher.tag(pc) as u32,
        };
        let mut provider = Provider::None;
        let mut prediction = MemDepPrediction::NoDependence;
        if let Some((_, e)) = self.path_dep.find(u64::from(pd.index), u64::from(pd.tag)) {
            provider = Provider::PathDependent;
            let distance = StoreDistance::new(u32::from(e.distance)).expect("stored distances are valid");
            prediction = if e.confidence.is_saturated() {
                MemDepPrediction::Bypass { distance }
            } else {
                MemDepPrediction::Dependence { distance }
            };
            Self::touch_lru(&mut self.path_dep, u64::from(pd.index), u64::from(pd.tag));
        } else if let Some((_, e)) = self.path_indep.find(u64::from(pi.index), u64::from(pi.tag)) {
            provider = Provider::PathIndependent;
            let distance = StoreDistance::new(u32::from(e.distance)).expect("stored distances are valid");
            // Path-independent predictions never bypass (§V).
            prediction = MemDepPrediction::Dependence { distance };
            Self::touch_lru(&mut self.path_indep, u64::from(pi.index), u64::from(pi.tag));
        }
        (
            prediction,
            NoSqMeta {
                path_dep: pd,
                path_indep: pi,
                provider,
            },
        )
    }

    fn train(
        &mut self,
        _pc: u64,
        meta: NoSqMeta,
        predicted: MemDepPrediction,
        outcome: &LoadOutcome,
    ) {
        match outcome.dependence {
            Some(dep) => {
                if predicted.distance() == Some(dep.distance) {
                    // Correct: reinforce the provider.
                    match meta.provider {
                        Provider::PathDependent => {
                            let lk = meta.path_dep;
                            if let Some((_, e)) = self
                                .path_dep
                                .find_mut(u64::from(lk.index), u64::from(lk.tag))
                            {
                                e.confidence.increment();
                            }
                        }
                        Provider::PathIndependent => {
                            let lk = meta.path_indep;
                            if let Some((_, e)) = self
                                .path_indep
                                .find_mut(u64::from(lk.index), u64::from(lk.tag))
                            {
                                e.confidence.increment();
                            }
                        }
                        Provider::None => {}
                    }
                    // Grow path-dependent coverage even when the
                    // path-independent table provided.
                    if meta.provider == Provider::PathIndependent {
                        self.upsert(Table::PathDep, meta.path_dep, dep.distance);
                    }
                } else {
                    // Missed or mis-targeted: (re)install in both tables.
                    self.upsert(Table::PathDep, meta.path_dep, dep.distance);
                    self.upsert(Table::PathIndep, meta.path_indep, dep.distance);
                }
            }
            None => {
                // False dependence: reset the provider's confidence so the
                // entry stops bypassing and soon falls to LRU replacement.
                if predicted.is_dependence() {
                    match meta.provider {
                        Provider::PathDependent => {
                            let lk = meta.path_dep;
                            if let Some((_, e)) = self
                                .path_dep
                                .find_mut(u64::from(lk.index), u64::from(lk.tag))
                            {
                                e.confidence.reset();
                            }
                        }
                        Provider::PathIndependent => {
                            let lk = meta.path_indep;
                            if let Some((_, e)) = self
                                .path_indep
                                .find_mut(u64::from(lk.index), u64::from(lk.tag))
                            {
                                e.confidence.reset();
                            }
                        }
                        Provider::None => {}
                    }
                }
            }
        }
    }

    fn on_branch(&mut self, event: &BranchEvent) {
        self.dep_hasher.on_branch(&self.history, event);
        self.indep_hasher.on_branch(&self.history, event);
        self.history.push(*event);
    }

    fn rewind_history(&mut self, recent: &[BranchEvent]) {
        // Two hashers share one log; borrow them as a slice so the shared
        // squash-undo fast path applies (see `rewind_hashers`).
        let mut hashers = [
            std::mem::replace(&mut self.dep_hasher, TableHasher::new(0, 1, 1)),
            std::mem::replace(&mut self.indep_hasher, TableHasher::new(0, 1, 1)),
        ];
        rewind_hashers(&mut self.history, &mut hashers, recent);
        let [dep, indep] = hashers;
        self.dep_hasher = dep;
        self.indep_hasher = indep;
    }

    fn bypass_supports_offset(&self) -> bool {
        true
    }

    fn storage_bits(&self) -> u64 {
        // Table II: 22-bit tag + 7-bit counter + 7-bit distance + 2-bit LRU.
        let per_entry = u64::from(self.cfg.tag_bits) + u64::from(self.cfg.confidence_bits) + 7 + 2;
        u64::from(self.cfg.entries_per_table) * 2 * per_entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mascot::prediction::{BypassClass, ObservedDependence};

    fn dep(distance: u32) -> LoadOutcome {
        LoadOutcome::dependent(ObservedDependence {
            distance: StoreDistance::new(distance).unwrap(),
            class: BypassClass::DirectBypass,
            store_pc: 0x2000,
            branches_between: 0,
        })
    }

    #[test]
    fn table_ii_size_is_19kb() {
        let p = NoSq::default();
        assert_eq!(p.storage_bits(), 4096 * 38);
        assert!((p.storage_kib() - 19.0).abs() < 0.01);
    }

    #[test]
    fn learns_dependence_and_needs_full_confidence_to_bypass() {
        let mut p = NoSq::default();
        let pc = 0x4400;
        let (pred, meta) = p.predict(pc, 0, None);
        assert_eq!(pred, MemDepPrediction::NoDependence);
        p.train(pc, meta, pred, &dep(3));
        // Learned, but confidence 0: wait-only prediction.
        let (pred, _) = p.predict(pc, 0, None);
        assert_eq!(
            pred,
            MemDepPrediction::Dependence {
                distance: StoreDistance::new(3).unwrap()
            }
        );
        // The 7-bit counter must saturate (127 correct) before bypassing.
        for _ in 0..127 {
            let (pr, meta) = p.predict(pc, 0, None);
            p.train(pc, meta, pr, &dep(3));
        }
        assert!(p.predict(pc, 0, None).0.is_bypass());
    }

    #[test]
    fn false_dependence_resets_confidence() {
        let mut p = NoSq::default();
        let pc = 0x4400;
        let (pred, meta) = p.predict(pc, 0, None);
        p.train(pc, meta, pred, &dep(3));
        for _ in 0..127 {
            let (pr, meta) = p.predict(pc, 0, None);
            p.train(pc, meta, pr, &dep(3));
        }
        assert!(p.predict(pc, 0, None).0.is_bypass());
        let (pr, meta) = p.predict(pc, 0, None);
        p.train(pc, meta, pr, &LoadOutcome::independent());
        // Back to a wait-only prediction.
        let (after, _) = p.predict(pc, 0, None);
        assert!(matches!(after, MemDepPrediction::Dependence { .. }));
    }

    #[test]
    fn distance_change_retargets_entry() {
        let mut p = NoSq::default();
        let pc = 0x8800;
        let (pr, meta) = p.predict(pc, 0, None);
        p.train(pc, meta, pr, &dep(3));
        let (pr, meta) = p.predict(pc, 0, None);
        p.train(pc, meta, pr, &dep(9));
        let (pred, _) = p.predict(pc, 0, None);
        assert_eq!(pred.distance().unwrap().get(), 9);
    }

    #[test]
    fn supports_offset_bypass() {
        assert!(NoSq::default().bypass_supports_offset());
    }

    #[test]
    fn history_separates_contexts() {
        use mascot::history::BranchKind;
        let mut p = NoSq::default();
        let pc = 0x7000;
        let branch = |taken: bool| BranchEvent {
            pc: 0x100,
            kind: BranchKind::Conditional,
            taken,
            target: 0x180,
        };
        // Context taken -> distance 2; context not-taken -> independent.
        for i in 0..200u32 {
            let taken = i % 2 == 0;
            p.on_branch(&branch(taken));
            let (pr, meta) = p.predict(pc, 0, None);
            let out = if taken { dep(2) } else { LoadOutcome::independent() };
            p.train(pc, meta, pr, &out);
        }
        // With history in the index, the two contexts hit different entries,
        // so the taken context should predict dependence.
        p.on_branch(&branch(true));
        let (pred_taken, _) = p.predict(pc, 0, None);
        assert!(pred_taken.is_dependence());
    }

    #[test]
    fn snap_roundtrip_is_bit_identical() {
        use mascot::history::BranchKind;
        let mut p = NoSq::default();
        for i in 0..150u64 {
            p.on_branch(&BranchEvent {
                pc: 0x100 + (i % 16) * 4,
                kind: BranchKind::Conditional,
                taken: i % 2 == 0,
                target: 0x180,
            });
            let pc = 0x4400 + (i % 8) * 16;
            let (pr, meta) = p.predict(pc, i, None);
            let out = if i % 5 == 0 {
                LoadOutcome::independent()
            } else {
                dep(1 + (i % 7) as u32)
            };
            p.train(pc, meta, pr, &out);
        }
        let mut w = SnapWriter::new();
        p.snap_encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut q = NoSq::snap_decode(&mut r).unwrap();
        r.finish().unwrap();
        let mut w2 = SnapWriter::new();
        q.snap_encode(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
        for i in 0..8u64 {
            let pc = 0x4400 + i * 16;
            assert_eq!(p.predict(pc, 200, None).0, q.predict(pc, 200, None).0);
        }
        for cut in [0, 3, bytes.len() / 2, bytes.len() - 1] {
            let mut r = SnapReader::new(&bytes[..cut]);
            let decoded = NoSq::snap_decode(&mut r);
            assert!(decoded.is_err() || r.finish().is_err(), "cut {cut}");
        }
    }

    #[test]
    fn merge_unions_disjoint_entries() {
        let mut a = NoSq::default();
        let mut b = NoSq::default();
        let (pr, meta) = a.predict(0x1000, 0, None);
        a.train(0x1000, meta, pr, &dep(2));
        let (pr, meta) = b.predict(0x8000, 0, None);
        b.train(0x8000, meta, pr, &dep(5));
        let written = a.merge_from(&b).unwrap();
        assert!(written >= 2, "path-dep + path-indep entries: {written}");
        assert!(a.predict(0x1000, 6, None).0.is_dependence());
        assert!(a.predict(0x8000, 6, None).0.is_dependence());
    }

    /// Replacement prefers an invalid way before evicting live entries.
    #[test]
    fn replacement_prefers_invalid_ways() {
        let mut p = NoSq::default();
        // Train one entry, then another with a colliding PC family: both
        // must coexist (4-way sets have room).
        for pc in [0x1000u64, 0x2000, 0x3000] {
            let (pr, meta) = p.predict(pc, 0, None);
            p.train(pc, meta, pr, &dep(2));
        }
        for pc in [0x1000u64, 0x2000, 0x3000] {
            assert!(
                p.predict(pc, 0, None).0.is_dependence(),
                "{pc:#x} must still be resident"
            );
        }
    }

    /// The path-independent table provides when the path-dependent entry is
    /// missing, and such predictions never bypass.
    #[test]
    fn path_independent_fallback_never_bypasses() {
        use mascot::history::BranchKind;
        let mut p = NoSq::default();
        let pc = 0x5000;
        // Learn under one history.
        let (pr, meta) = p.predict(pc, 0, None);
        p.train(pc, meta, pr, &dep(4));
        // Saturate confidence under the same history.
        for _ in 0..130 {
            let (pr, meta) = p.predict(pc, 0, None);
            p.train(pc, meta, pr, &dep(4));
        }
        assert!(p.predict(pc, 0, None).0.is_bypass());
        // Shift the global history: the path-dependent index changes, the
        // path-independent entry still provides a wait-only prediction.
        for i in 0..12u64 {
            p.on_branch(&BranchEvent {
                pc: 0x100 + i * 4,
                kind: BranchKind::Conditional,
                taken: i % 2 == 0,
                target: 0x200,
            });
        }
        let pred = p.predict(pc, 0, None).0;
        assert!(pred.is_dependence(), "fallback must still predict: {pred:?}");
        assert!(!pred.is_bypass(), "path-independent hits never bypass");
    }
}

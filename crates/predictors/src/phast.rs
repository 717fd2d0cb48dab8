//! PHAST context-sensitive memory-dependence predictor (Kim & Ros, HPCA
//! 2024), as configured in Table II of the MASCOT paper.
//!
//! PHAST organises entries into eight 4-way tables with geometrically
//! increasing global-history lengths, looked up in parallel with the
//! longest-history hit providing the prediction. Entries carry a 16-bit
//! tag, 4-bit usefulness counter, 7-bit distance and 2 LRU bits (29 bits;
//! 4 K entries = 14.5 KB).
//!
//! Its distinctive allocation policy picks the destination table by the
//! number of branches *between* the conflicting store and the load: the
//! smallest history window that covers the whole load–store span. Unlike
//! MASCOT it records only dependencies — a false dependence merely
//! decrements the provider's usefulness.

use mascot::history::{rewind_hashers, BranchEvent, GlobalHistory, TableHasher};
use mascot::prediction::{
    GroundTruth, LoadOutcome, MemDepPredictor, MemDepPrediction, StoreDistance,
};
use mascot::predictor::TableLookup;
use mascot::table::AssocTable;
use mascot_snapshot::{SnapError, SnapReader, SnapWriter};
use mascot_stats::SaturatingCounter;

/// Maximum tables supported by the fixed-size metadata.
pub const MAX_TABLES: usize = 16;

/// Configuration for [`Phast`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhastConfig {
    /// History length per table (branches), starting at 0.
    pub history_lengths: Vec<u32>,
    /// Entries per table.
    pub table_entries: Vec<u32>,
    /// Tag width (16 bits in Table II).
    pub tag_bits: u8,
    /// Usefulness counter width (4 bits in Table II).
    pub usefulness_bits: u8,
    /// Associativity (4).
    pub associativity: u32,
    /// Initial usefulness of a freshly allocated entry.
    pub alloc_usefulness: u8,
}

impl Default for PhastConfig {
    fn default() -> Self {
        Self {
            history_lengths: vec![0, 2, 4, 8, 16, 32, 64, 128],
            table_entries: vec![512; 8],
            tag_bits: 16,
            usefulness_bits: 4,
            associativity: 4,
            alloc_usefulness: 7,
        }
    }
}

impl PhastConfig {
    /// The constraints [`Phast::new`] enforces by panicking, as a result —
    /// used by the snapshot decoder, which must fail closed instead.
    fn check(&self) -> Result<(), SnapError> {
        let n = self.history_lengths.len();
        if n == 0 || n > MAX_TABLES || self.table_entries.len() != n {
            return Err(SnapError::Corrupt("phast config shape is invalid"));
        }
        if self.associativity == 0 {
            return Err(SnapError::Corrupt("phast associativity is zero"));
        }
        for &e in &self.table_entries {
            if e == 0 || e % self.associativity != 0 {
                return Err(SnapError::Corrupt("phast table size is invalid"));
            }
            if !(e / self.associativity).is_power_of_two() {
                return Err(SnapError::Corrupt("phast set count is not a power of two"));
            }
        }
        if self.history_lengths.iter().any(|&h| h > 1 << 20) {
            return Err(SnapError::Corrupt("phast history length out of range"));
        }
        if self.tag_bits == 0 || self.tag_bits > 30 {
            return Err(SnapError::Corrupt("phast tag width out of range"));
        }
        if !(1..=7).contains(&self.usefulness_bits)
            || self.alloc_usefulness > (1 << self.usefulness_bits) - 1
        {
            return Err(SnapError::Corrupt("phast counter widths are invalid"));
        }
        Ok(())
    }

    fn snap_encode(&self, w: &mut SnapWriter) {
        w.u32(self.history_lengths.len() as u32);
        for &h in &self.history_lengths {
            w.u32(h);
        }
        for &e in &self.table_entries {
            w.u32(e);
        }
        w.u8(self.tag_bits);
        w.u8(self.usefulness_bits);
        w.u32(self.associativity);
        w.u8(self.alloc_usefulness);
    }

    fn snap_decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.u32("phast config table count")? as usize;
        if n == 0 || n > MAX_TABLES {
            return Err(SnapError::Corrupt("phast config table count out of range"));
        }
        let mut history_lengths = Vec::with_capacity(n);
        for _ in 0..n {
            history_lengths.push(r.u32("phast history length")?);
        }
        let mut table_entries = Vec::with_capacity(n);
        for _ in 0..n {
            table_entries.push(r.u32("phast table entries")?);
        }
        let cfg = Self {
            history_lengths,
            table_entries,
            tag_bits: r.u8("phast tag width")?,
            usefulness_bits: r.u8("phast usefulness width")?,
            associativity: r.u32("phast associativity")?,
            alloc_usefulness: r.u8("phast allocation usefulness")?,
        };
        cfg.check()?;
        Ok(cfg)
    }
}

/// Entry payload; the tag lives in the table's SoA tag lane.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PhastEntry {
    distance: u8,
    usefulness: SaturatingCounter,
    lru: u8,
}

impl PhastEntry {
    fn snap_encode(&self, w: &mut SnapWriter) {
        w.u8(self.distance);
        self.usefulness.snap_encode(w);
        w.u8(self.lru);
    }

    fn snap_decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let distance = r.u8("phast entry distance")?;
        // PHAST records dependencies only: valid entries always carry a
        // real distance.
        if !(1..=127).contains(&distance) {
            return Err(SnapError::Corrupt("phast entry distance out of range"));
        }
        let usefulness = SaturatingCounter::snap_decode(r)?;
        let lru = r.u8("phast entry lru")?;
        if lru > 3 {
            return Err(SnapError::Corrupt("phast entry lru exceeds 2 bits"));
        }
        Ok(Self {
            distance,
            usefulness,
            lru,
        })
    }
}

/// Per-prediction metadata for [`Phast`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhastMeta {
    lookups: [TableLookup; MAX_TABLES],
    num_tables: u8,
    provider: Option<u8>,
}

impl PhastMeta {
    fn lookup(&self, table: usize) -> TableLookup {
        debug_assert!(table < usize::from(self.num_tables));
        self.lookups[table]
    }
}

/// The PHAST predictor.
///
/// # Examples
///
/// ```
/// use mascot_predictors::Phast;
/// use mascot::MemDepPredictor;
///
/// let p = Phast::default();
/// assert!((p.storage_kib() - 14.5).abs() < 0.01); // Table II
/// ```
#[derive(Debug, Clone)]
pub struct Phast {
    cfg: PhastConfig,
    tables: Vec<AssocTable<PhastEntry>>,
    hashers: Vec<TableHasher>,
    history: GlobalHistory,
}

impl Default for Phast {
    fn default() -> Self {
        Self::new(PhastConfig::default())
    }
}

impl Phast {
    /// Creates a predictor from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the per-table vectors disagree in length, exceed
    /// [`MAX_TABLES`], or yield non-power-of-two set counts.
    pub fn new(cfg: PhastConfig) -> Self {
        assert_eq!(
            cfg.history_lengths.len(),
            cfg.table_entries.len(),
            "history/table shape mismatch"
        );
        assert!(cfg.history_lengths.len() <= MAX_TABLES, "too many tables");
        let fill = PhastEntry {
            distance: 0,
            usefulness: SaturatingCounter::new(cfg.usefulness_bits, 0),
            lru: 0,
        };
        let tables: Vec<_> = cfg
            .table_entries
            .iter()
            .map(|&e| {
                AssocTable::new(
                    (e / cfg.associativity) as usize,
                    cfg.associativity as usize,
                    fill.clone(),
                )
            })
            .collect();
        let hashers: Vec<_> = cfg
            .history_lengths
            .iter()
            .zip(&tables)
            .map(|(&h, t)| TableHasher::new(h, t.index_bits(), u32::from(cfg.tag_bits)))
            .collect();
        let max_hist = *cfg.history_lengths.last().expect("at least one table") as usize;
        Self {
            tables,
            hashers,
            history: GlobalHistory::new((max_hist * 2).max(64)),
            cfg,
        }
    }

    fn compute_lookups(&self, pc: u64) -> ([TableLookup; MAX_TABLES], u8) {
        let mut lookups = [TableLookup::default(); MAX_TABLES];
        for (i, h) in self.hashers.iter().enumerate() {
            lookups[i] = TableLookup {
                index: h.index(pc) as u32,
                tag: h.tag(pc) as u32,
            };
        }
        (lookups, self.hashers.len() as u8)
    }

    /// The table whose history window covers `branches_between` branches:
    /// PHAST's signature allocation rule.
    fn table_for_span(&self, branches_between: u32) -> usize {
        self.cfg
            .history_lengths
            .iter()
            .position(|&h| h >= branches_between)
            .unwrap_or(self.cfg.history_lengths.len() - 1)
    }

    fn touch_lru(table: &mut AssocTable<PhastEntry>, index: u64, hit_way: usize) {
        table.for_each_valid_mut(index, |way, e| {
            if way == hit_way {
                e.lru = 3;
            } else {
                e.lru = e.lru.saturating_sub(1);
            }
        });
    }

    /// Installs a dependence at the span-selected table. Existing entries
    /// are retargeted; otherwise the victim is an invalid way, else the LRU
    /// way among zero-usefulness entries. If no way is replaceable, all ways
    /// decay (so stale sets eventually open up).
    fn allocate(&mut self, meta: &PhastMeta, branches_between: u32, distance: StoreDistance) {
        let t = self.table_for_span(branches_between);
        let lk = meta.lookup(t);
        let (index, tag) = (u64::from(lk.index), u64::from(lk.tag));
        if let Some((way, e)) = self.tables[t].find_mut(index, tag) {
            e.distance = distance.get();
            e.usefulness.set(self.cfg.alloc_usefulness);
            Self::touch_lru(&mut self.tables[t], index, way);
            return;
        }
        let entry = PhastEntry {
            distance: distance.get(),
            usefulness: SaturatingCounter::new(self.cfg.usefulness_bits, self.cfg.alloc_usefulness),
            lru: 3,
        };
        let table = &mut self.tables[t];
        let ways = table.assoc();
        // Victim: first invalid way, else the LRU way among zero-usefulness
        // entries (first-minimal on ties, matching `min_by_key`).
        let victim = (0..ways).find(|&w| !table.is_valid(index, w)).or_else(|| {
            (0..ways)
                .filter(|&w| table.is_valid(index, w) && table.payload(index, w).usefulness.is_zero())
                .min_by_key(|&w| table.payload(index, w).lru)
        });
        match victim {
            Some(w) => {
                table.insert_at(index, w, tag, entry);
                Self::touch_lru(table, index, w);
            }
            None => {
                table.for_each_valid_mut(index, |_, e| e.usefulness.decrement());
            }
        }
    }

    /// Total valid entries across all tables.
    pub fn entry_count(&self) -> u64 {
        self.tables.iter().map(|t| t.occupancy() as u64).sum()
    }

    /// Serializes the full state (configuration, tables, history). Hashers
    /// are recomputed from the history on decode.
    pub fn snap_encode(&self, w: &mut SnapWriter) {
        self.cfg.snap_encode(w);
        self.history.snap_encode(w);
        for table in &self.tables {
            table.snap_encode_with(w, |e, w| e.snap_encode(w));
        }
    }

    /// Decodes a predictor from a snapshot payload, fail-closed.
    ///
    /// # Errors
    ///
    /// [`SnapError`] on truncation or any field inconsistent with the
    /// embedded configuration.
    pub fn snap_decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let cfg = PhastConfig::snap_decode(r)?;
        let mut p = Self::new(cfg);
        let history = GlobalHistory::snap_decode(r)?;
        if history.capacity() != p.history.capacity() {
            return Err(SnapError::Corrupt("phast history capacity mismatch"));
        }
        p.history = history;
        for hasher in &mut p.hashers {
            hasher.recompute(&p.history);
        }
        let fill = PhastEntry {
            distance: 0,
            usefulness: SaturatingCounter::new(p.cfg.usefulness_bits, 0),
            lru: 0,
        };
        let tag_limit = 1u64 << p.cfg.tag_bits;
        for i in 0..p.tables.len() {
            p.tables[i] = AssocTable::snap_decode_with(
                r,
                (p.cfg.table_entries[i] / p.cfg.associativity) as usize,
                p.cfg.associativity as usize,
                fill.clone(),
                |t| t < tag_limit,
                PhastEntry::snap_decode,
            )?;
        }
        Ok(p)
    }

    /// Folds another predictor's tables into this one (warm resharding),
    /// preferring the higher-usefulness entry on collision.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] when the configurations differ.
    pub fn merge_from(&mut self, other: &Self) -> Result<u64, SnapError> {
        if self.cfg != other.cfg {
            return Err(SnapError::Corrupt(
                "cannot merge phast predictors with different configurations",
            ));
        }
        let mut written = 0;
        for (mine, theirs) in self.tables.iter_mut().zip(&other.tables) {
            written += mine.merge_from_with(theirs, |incoming, incumbent| {
                incoming.usefulness.value() > incumbent.usefulness.value()
            })?;
        }
        Ok(written)
    }
}

impl MemDepPredictor for Phast {
    type Meta = PhastMeta;

    fn name(&self) -> &'static str {
        "phast"
    }

    fn predict(
        &mut self,
        pc: u64,
        _store_seq: u64,
        _oracle: Option<&GroundTruth>,
    ) -> (MemDepPrediction, PhastMeta) {
        let (lookups, num_tables) = self.compute_lookups(pc);
        let mut provider = None;
        let mut prediction = MemDepPrediction::NoDependence;
        for t in (0..self.tables.len()).rev() {
            let lk = lookups[t];
            if let Some((way, e)) = self.tables[t].find(u64::from(lk.index), u64::from(lk.tag)) {
                let distance =
                    StoreDistance::new(u32::from(e.distance)).expect("stored distances valid");
                provider = Some(t as u8);
                prediction = MemDepPrediction::Dependence { distance };
                Self::touch_lru(&mut self.tables[t], u64::from(lk.index), way);
                break;
            }
        }
        (
            prediction,
            PhastMeta {
                lookups,
                num_tables,
                provider,
            },
        )
    }

    fn train(
        &mut self,
        _pc: u64,
        meta: PhastMeta,
        predicted: MemDepPrediction,
        outcome: &LoadOutcome,
    ) {
        let provider = meta.provider.map(usize::from);
        match outcome.dependence {
            Some(dep) => {
                if predicted.distance() == Some(dep.distance) {
                    // Correct: reinforce.
                    if let Some(p) = provider {
                        let lk = meta.lookup(p);
                        if let Some((_, e)) =
                            self.tables[p].find_mut(u64::from(lk.index), u64::from(lk.tag))
                        {
                            e.usefulness.increment();
                        }
                    }
                } else {
                    // Missed or mis-targeted dependence: punish the provider
                    // and install the pair at the span-selected table.
                    if let Some(p) = provider {
                        let lk = meta.lookup(p);
                        if let Some((_, e)) =
                            self.tables[p].find_mut(u64::from(lk.index), u64::from(lk.tag))
                        {
                            e.usefulness.decrement();
                        }
                    }
                    self.allocate(&meta, dep.branches_between, dep.distance);
                }
            }
            None => {
                // False dependence: PHAST only decays confidence (no
                // non-dependence entries — MASCOT's key difference).
                if predicted.is_dependence() {
                    if let Some(p) = provider {
                        let lk = meta.lookup(p);
                        if let Some((_, e)) =
                            self.tables[p].find_mut(u64::from(lk.index), u64::from(lk.tag))
                        {
                            e.usefulness.decrement();
                        }
                    }
                }
            }
        }
    }

    fn on_branch(&mut self, event: &BranchEvent) {
        for h in &mut self.hashers {
            h.on_branch(&self.history, event);
        }
        self.history.push(*event);
    }

    fn rewind_history(&mut self, recent: &[BranchEvent]) {
        rewind_hashers(&mut self.history, &mut self.hashers, recent);
    }

    fn storage_bits(&self) -> u64 {
        // Table II: 16-bit tag + 4-bit counter + 7-bit distance + 2-bit LRU.
        let per_entry =
            u64::from(self.cfg.tag_bits) + u64::from(self.cfg.usefulness_bits) + 7 + 2;
        self.cfg.table_entries.iter().map(|&e| u64::from(e) * per_entry).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mascot::prediction::{BypassClass, ObservedDependence};

    fn dep(distance: u32, branches_between: u32) -> LoadOutcome {
        LoadOutcome::dependent(ObservedDependence {
            distance: StoreDistance::new(distance).unwrap(),
            class: BypassClass::MdpOnly,
            store_pc: 0x2000,
            branches_between,
        })
    }

    #[test]
    fn table_ii_size_is_14_5_kb() {
        let p = Phast::default();
        assert_eq!(p.storage_bits(), 4096 * 29);
        assert!((p.storage_kib() - 14.5).abs() < 0.01);
    }

    #[test]
    fn never_predicts_bypass() {
        let mut p = Phast::default();
        let pc = 0x4000;
        for _ in 0..50 {
            let (pr, meta) = p.predict(pc, 0, None);
            assert!(!pr.is_bypass());
            p.train(pc, meta, pr, &dep(2, 0));
        }
        assert!(!p.predict(pc, 0, None).0.is_bypass());
    }

    #[test]
    fn span_selects_allocation_table() {
        let p = Phast::default();
        assert_eq!(p.table_for_span(0), 0);
        assert_eq!(p.table_for_span(1), 1);
        assert_eq!(p.table_for_span(2), 1);
        assert_eq!(p.table_for_span(3), 2);
        assert_eq!(p.table_for_span(100), 7);
        assert_eq!(p.table_for_span(1000), 7); // clamps to the last table
    }

    #[test]
    fn learns_dependence_at_spanning_table() {
        let mut p = Phast::default();
        let pc = 0x4000;
        // Span of 5 branches -> table 3 (history 8).
        let (pr, meta) = p.predict(pc, 0, None);
        p.train(pc, meta, pr, &dep(4, 5));
        let (pred, meta) = p.predict(pc, 0, None);
        assert_eq!(pred.distance().unwrap().get(), 4);
        assert_eq!(meta.provider, Some(3));
    }

    #[test]
    fn false_dependence_only_decays() {
        let mut p = Phast::default();
        let pc = 0x4000;
        let (pr, meta) = p.predict(pc, 0, None);
        p.train(pc, meta, pr, &dep(2, 0));
        // A single false dependence must NOT unlearn the entry (4-bit
        // counter allocated at 7).
        let (pr, meta) = p.predict(pc, 0, None);
        assert!(pr.is_dependence());
        p.train(pc, meta, pr, &LoadOutcome::independent());
        assert!(p.predict(pc, 0, None).0.is_dependence());
    }

    #[test]
    fn repeated_false_dependencies_eventually_allow_eviction() {
        let mut p = Phast::default();
        let pc = 0x4000;
        let (pr, meta) = p.predict(pc, 0, None);
        p.train(pc, meta, pr, &dep(2, 0));
        for _ in 0..8 {
            let (pr, meta) = p.predict(pc, 0, None);
            p.train(pc, meta, pr, &LoadOutcome::independent());
        }
        // Usefulness has decayed to zero; the entry still predicts (PHAST
        // has no non-dependence state) but is now replaceable.
        let t0 = &p.tables[0];
        let any_zero = t0
            .iter_occupied()
            .any(|(_, e)| e.usefulness.is_zero());
        assert!(any_zero);
    }

    #[test]
    fn snap_roundtrip_is_bit_identical() {
        use mascot::history::BranchKind;
        let mut p = Phast::default();
        for i in 0..120u64 {
            p.on_branch(&BranchEvent {
                pc: 0x100 + (i % 32) * 4,
                kind: BranchKind::Conditional,
                taken: i % 3 == 0,
                target: 0x200,
            });
            let pc = 0x4000 + (i % 10) * 8;
            let (pr, meta) = p.predict(pc, 0, None);
            let out = if i % 4 == 0 {
                LoadOutcome::independent()
            } else {
                dep(1 + (i % 6) as u32, (i % 9) as u32)
            };
            p.train(pc, meta, pr, &out);
        }
        let mut w = SnapWriter::new();
        p.snap_encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut q = Phast::snap_decode(&mut r).unwrap();
        r.finish().unwrap();
        let mut w2 = SnapWriter::new();
        q.snap_encode(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
        for i in 0..10u64 {
            let pc = 0x4000 + i * 8;
            assert_eq!(p.predict(pc, 0, None).0, q.predict(pc, 0, None).0);
        }
        // Fail-closed on truncation.
        for cut in [0, 1, 5, bytes.len() / 2, bytes.len() - 1] {
            let mut r = SnapReader::new(&bytes[..cut]);
            let decoded = Phast::snap_decode(&mut r);
            assert!(decoded.is_err() || r.finish().is_err(), "cut {cut}");
        }
    }

    #[test]
    fn merge_unions_disjoint_entries() {
        let mut a = Phast::default();
        let mut b = Phast::default();
        for pc in [0x1000u64, 0x1040] {
            let (pr, meta) = a.predict(pc, 0, None);
            a.train(pc, meta, pr, &dep(2, 0));
        }
        for pc in [0x8000u64, 0x8040] {
            let (pr, meta) = b.predict(pc, 0, None);
            b.train(pc, meta, pr, &dep(5, 0));
        }
        let written = a.merge_from(&b).unwrap();
        assert_eq!(written, 2);
        assert!(a.predict(0x1000, 0, None).0.is_dependence());
        assert!(a.predict(0x8000, 0, None).0.is_dependence());
    }

    #[test]
    fn wrong_distance_retargets() {
        let mut p = Phast::default();
        let pc = 0x4000;
        let (pr, meta) = p.predict(pc, 0, None);
        p.train(pc, meta, pr, &dep(2, 0));
        let (pr, meta) = p.predict(pc, 0, None);
        p.train(pc, meta, pr, &dep(6, 0));
        assert_eq!(p.predict(pc, 0, None).0.distance().unwrap().get(), 6);
    }
}

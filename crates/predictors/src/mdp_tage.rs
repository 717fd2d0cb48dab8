//! MDP-TAGE (Perais & Seznec; described in §II of the MASCOT paper): the
//! minimal TAGE-for-memory-dependence augmentation that predates PHAST.
//!
//! A TAGE branch predictor is repurposed by using its 3-bit saturating
//! counter as the *store distance* and adding a single usefulness bit `u`:
//! "If u is not 0, the entry can be used for predicting a memory
//! dependence." The 3-bit distance limits predictions to the seven nearest
//! stores, and the single-bit confidence makes entries fragile — both
//! weaknesses MASCOT's 7-bit distance and richer counters address. Included
//! as a historical baseline beyond the paper's Table II set.

use mascot::history::{rewind_hashers, BranchEvent, GlobalHistory, TableHasher};
use mascot::prediction::{
    GroundTruth, LoadOutcome, MemDepPredictor, MemDepPrediction, StoreDistance,
};
use mascot::predictor::TableLookup;
use mascot::table::AssocTable;
use mascot_snapshot::{SnapError, SnapReader, SnapWriter};

/// Maximum tables supported by the fixed-size metadata.
pub const MAX_TABLES: usize = 16;

/// Configuration for [`MdpTage`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MdpTageConfig {
    /// History length per table (branches), starting at 0.
    pub history_lengths: Vec<u32>,
    /// Entries per table.
    pub table_entries: Vec<u32>,
    /// Tag width in bits.
    pub tag_bits: u8,
    /// Associativity.
    pub associativity: u32,
}

impl Default for MdpTageConfig {
    fn default() -> Self {
        // Sized comparably to the Table II predictors.
        Self {
            history_lengths: vec![0, 2, 4, 8, 16, 32, 64, 128],
            table_entries: vec![512; 8],
            tag_bits: 16,
            associativity: 4,
        }
    }
}

impl MdpTageConfig {
    fn check(&self) -> Result<(), SnapError> {
        let n = self.history_lengths.len();
        if n == 0 || n > MAX_TABLES || self.table_entries.len() != n {
            return Err(SnapError::Corrupt("mdp-tage config shape is invalid"));
        }
        if self.associativity == 0 {
            return Err(SnapError::Corrupt("mdp-tage associativity is zero"));
        }
        for &e in &self.table_entries {
            if e == 0
                || e % self.associativity != 0
                || !(e / self.associativity).is_power_of_two()
            {
                return Err(SnapError::Corrupt("mdp-tage table size is invalid"));
            }
        }
        if self.history_lengths.iter().any(|&h| h > 1 << 20) {
            return Err(SnapError::Corrupt("mdp-tage history length out of range"));
        }
        if self.tag_bits == 0 || self.tag_bits > 30 {
            return Err(SnapError::Corrupt("mdp-tage tag width out of range"));
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
        w.u32(self.associativity);
    }

    fn snap_decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.u32("mdp-tage config table count")? as usize;
        if n == 0 || n > MAX_TABLES {
            return Err(SnapError::Corrupt("mdp-tage config table count out of range"));
        }
        let mut history_lengths = Vec::with_capacity(n);
        for _ in 0..n {
            history_lengths.push(r.u32("mdp-tage history length")?);
        }
        let mut table_entries = Vec::with_capacity(n);
        for _ in 0..n {
            table_entries.push(r.u32("mdp-tage table entries")?);
        }
        let cfg = Self {
            history_lengths,
            table_entries,
            tag_bits: r.u8("mdp-tage tag width")?,
            associativity: r.u32("mdp-tage associativity")?,
        };
        cfg.check()?;
        Ok(cfg)
    }
}

/// Entry payload; the tag lives in the table's SoA tag lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MdpTageEntry {
    /// The repurposed 3-bit counter: store distance 1..=7.
    distance: u8,
    /// Single usefulness bit.
    useful: bool,
}

impl MdpTageEntry {
    fn snap_encode(&self, w: &mut SnapWriter) {
        w.u8(self.distance);
        w.bool(self.useful);
    }

    fn snap_decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let distance = r.u8("mdp-tage entry distance")?;
        if !(1..=7).contains(&distance) {
            return Err(SnapError::Corrupt("mdp-tage entry distance out of range"));
        }
        Ok(Self {
            distance,
            useful: r.bool("mdp-tage entry usefulness bit")?,
        })
    }
}

/// Per-prediction metadata for [`MdpTage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MdpTageMeta {
    lookups: [TableLookup; MAX_TABLES],
    num_tables: u8,
    provider: Option<u8>,
}

/// The MDP-TAGE predictor.
///
/// # Examples
///
/// ```
/// use mascot_predictors::MdpTage;
/// use mascot::MemDepPredictor;
///
/// let p = MdpTage::default();
/// // 4K entries × (16-bit tag + 3-bit distance + 1 u bit) = 10 KiB.
/// assert!((p.storage_kib() - 10.0).abs() < 0.01);
/// ```
#[derive(Debug, Clone)]
pub struct MdpTage {
    cfg: MdpTageConfig,
    tables: Vec<AssocTable<MdpTageEntry>>,
    hashers: Vec<TableHasher>,
    history: GlobalHistory,
}

impl Default for MdpTage {
    fn default() -> Self {
        Self::new(MdpTageConfig::default())
    }
}

impl MdpTage {
    /// Creates a predictor from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the per-table vectors disagree in length, exceed
    /// [`MAX_TABLES`], or yield non-power-of-two set counts.
    pub fn new(cfg: MdpTageConfig) -> Self {
        assert_eq!(
            cfg.history_lengths.len(),
            cfg.table_entries.len(),
            "history/table shape mismatch"
        );
        assert!(cfg.history_lengths.len() <= MAX_TABLES, "too many tables");
        let fill = MdpTageEntry {
            distance: 0,
            useful: false,
        };
        let tables: Vec<_> = cfg
            .table_entries
            .iter()
            .map(|&e| {
                AssocTable::new(
                    (e / cfg.associativity) as usize,
                    cfg.associativity as usize,
                    fill,
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

    fn allocate(&mut self, meta: &MdpTageMeta, start: usize, distance: u8) {
        for t in start..self.tables.len() {
            let lk = meta.lookups[t];
            let entry = MdpTageEntry {
                distance,
                useful: true,
            };
            if self.tables[t]
                .try_insert(u64::from(lk.index), u64::from(lk.tag), entry, |e| !e.useful)
                .is_some()
            {
                return;
            }
            self.tables[t].for_each_valid_mut(u64::from(lk.index), |_, e| e.useful = false);
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
        let cfg = MdpTageConfig::snap_decode(r)?;
        let mut p = Self::new(cfg);
        let history = GlobalHistory::snap_decode(r)?;
        if history.capacity() != p.history.capacity() {
            return Err(SnapError::Corrupt("mdp-tage history capacity mismatch"));
        }
        p.history = history;
        for hasher in &mut p.hashers {
            hasher.recompute(&p.history);
        }
        let fill = MdpTageEntry {
            distance: 0,
            useful: false,
        };
        let tag_limit = 1u64 << p.cfg.tag_bits;
        for i in 0..p.tables.len() {
            p.tables[i] = AssocTable::snap_decode_with(
                r,
                (p.cfg.table_entries[i] / p.cfg.associativity) as usize,
                p.cfg.associativity as usize,
                fill,
                |t| t < tag_limit,
                MdpTageEntry::snap_decode,
            )?;
        }
        Ok(p)
    }

    /// Folds another predictor's tables into this one (warm resharding),
    /// preferring useful entries over un-useful ones on collision.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] when the configurations differ.
    pub fn merge_from(&mut self, other: &Self) -> Result<u64, SnapError> {
        if self.cfg != other.cfg {
            return Err(SnapError::Corrupt(
                "cannot merge mdp-tage predictors with different configurations",
            ));
        }
        let mut written = 0;
        for (mine, theirs) in self.tables.iter_mut().zip(&other.tables) {
            written += mine.merge_from_with(theirs, |incoming, incumbent| {
                incoming.useful && !incumbent.useful
            })?;
        }
        Ok(written)
    }
}

impl MemDepPredictor for MdpTage {
    type Meta = MdpTageMeta;

    fn name(&self) -> &'static str {
        "mdp-tage"
    }

    fn predict(
        &mut self,
        pc: u64,
        _store_seq: u64,
        _oracle: Option<&GroundTruth>,
    ) -> (MemDepPrediction, MdpTageMeta) {
        let (lookups, num_tables) = self.compute_lookups(pc);
        let mut provider = None;
        let mut prediction = MemDepPrediction::NoDependence;
        for t in (0..self.tables.len()).rev() {
            let lk = lookups[t];
            if let Some((_, e)) = self.tables[t].find(u64::from(lk.index), u64::from(lk.tag)) {
                provider = Some(t as u8);
                // Only useful entries may predict ("if u is not 0").
                if e.useful {
                    let distance =
                        StoreDistance::new(u32::from(e.distance)).expect("1..=7 in range");
                    prediction = MemDepPrediction::Dependence { distance };
                }
                break;
            }
        }
        (
            prediction,
            MdpTageMeta {
                lookups,
                num_tables,
                provider,
            },
        )
    }

    fn train(
        &mut self,
        _pc: u64,
        meta: MdpTageMeta,
        predicted: MemDepPrediction,
        outcome: &LoadOutcome,
    ) {
        let provider = meta.provider.map(usize::from);
        // Only near dependencies are encodable in the 3-bit field.
        let encodable = outcome
            .dependence
            .filter(|d| (1..=7).contains(&d.distance.get()));
        match encodable {
            Some(dep) => {
                if predicted.distance() == Some(dep.distance) {
                    if let Some(p) = provider {
                        let lk = meta.lookups[p];
                        if let Some((_, e)) =
                            self.tables[p].find_mut(u64::from(lk.index), u64::from(lk.tag))
                        {
                            e.useful = true;
                        }
                    }
                } else {
                    if let Some(p) = provider {
                        let lk = meta.lookups[p];
                        if let Some((_, e)) =
                            self.tables[p].find_mut(u64::from(lk.index), u64::from(lk.tag))
                        {
                            e.useful = false;
                        }
                    }
                    let start = provider.map_or(0, |p| p + 1);
                    self.allocate(&meta, start, dep.distance.get());
                }
            }
            None => {
                // False dependence (or unencodable distance): clear the
                // single confidence bit — the scheme's whole unlearning
                // mechanism, and its weakness (§III).
                if predicted.is_dependence() {
                    if let Some(p) = provider {
                        let lk = meta.lookups[p];
                        if let Some((_, e)) =
                            self.tables[p].find_mut(u64::from(lk.index), u64::from(lk.tag))
                        {
                            e.useful = false;
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
        // tag + 3-bit distance + 1 usefulness bit.
        let per_entry = u64::from(self.cfg.tag_bits) + 3 + 1;
        self.cfg.table_entries.iter().map(|&e| u64::from(e) * per_entry).sum()
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
            store_pc: 0x900,
            branches_between: 0,
        })
    }

    #[test]
    fn storage_is_10kib() {
        assert_eq!(MdpTage::default().storage_bits(), 4096 * 20);
    }

    #[test]
    fn learns_near_dependence() {
        let mut p = MdpTage::default();
        let pc = 0x2000;
        let (pr, m) = p.predict(pc, 0, None);
        assert_eq!(pr, MemDepPrediction::NoDependence);
        p.train(pc, m, pr, &dep(3));
        let (pr, _) = p.predict(pc, 0, None);
        assert_eq!(pr.distance().unwrap().get(), 3);
    }

    #[test]
    fn cannot_encode_far_dependencies() {
        let mut p = MdpTage::default();
        let pc = 0x2000;
        for _ in 0..10 {
            let (pr, m) = p.predict(pc, 0, None);
            p.train(pc, m, pr, &dep(20)); // beyond the 3-bit field
        }
        assert_eq!(
            p.predict(pc, 0, None).0,
            MemDepPrediction::NoDependence,
            "distance 20 does not fit a 3-bit field"
        );
    }

    #[test]
    fn single_bit_confidence_flips_on_one_false_dependence() {
        let mut p = MdpTage::default();
        let pc = 0x2000;
        let (pr, m) = p.predict(pc, 0, None);
        p.train(pc, m, pr, &dep(2));
        assert!(p.predict(pc, 0, None).0.is_dependence());
        // One false dependence disables the entry entirely.
        let (pr, m) = p.predict(pc, 0, None);
        p.train(pc, m, pr, &LoadOutcome::independent());
        assert_eq!(p.predict(pc, 0, None).0, MemDepPrediction::NoDependence);
        // ...and one correct outcome re-arms it (the entry persists).
        let (pr, m) = p.predict(pc, 0, None);
        p.train(pc, m, pr, &dep(2));
        let _ = pr;
        // The provider matched but was unuseful; a conflicting distance of 2
        // re-allocates/re-arms, so the dependence comes back.
        assert!(p.predict(pc, 0, None).0.is_dependence());
    }

    #[test]
    fn snap_roundtrip_is_bit_identical() {
        use mascot::history::BranchKind;
        let mut p = MdpTage::default();
        for i in 0..100u64 {
            p.on_branch(&BranchEvent {
                pc: 0x100 + (i % 16) * 4,
                kind: BranchKind::Conditional,
                taken: i % 2 == 0,
                target: 0x180,
            });
            let pc = 0x2000 + (i % 6) * 8;
            let (pr, m) = p.predict(pc, 0, None);
            let out = if i % 4 == 0 {
                LoadOutcome::independent()
            } else {
                dep(1 + (i % 7) as u32)
            };
            p.train(pc, m, pr, &out);
        }
        let mut w = SnapWriter::new();
        p.snap_encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut q = MdpTage::snap_decode(&mut r).unwrap();
        r.finish().unwrap();
        let mut w2 = SnapWriter::new();
        q.snap_encode(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
        for i in 0..6u64 {
            let pc = 0x2000 + i * 8;
            assert_eq!(p.predict(pc, 0, None).0, q.predict(pc, 0, None).0);
        }
        for cut in [0, 2, bytes.len() / 2, bytes.len() - 1] {
            let mut r = SnapReader::new(&bytes[..cut]);
            let decoded = MdpTage::snap_decode(&mut r);
            assert!(decoded.is_err() || r.finish().is_err(), "cut {cut}");
        }
    }

    #[test]
    fn merge_unions_disjoint_entries() {
        let mut a = MdpTage::default();
        let mut b = MdpTage::default();
        let (pr, m) = a.predict(0x2000, 0, None);
        a.train(0x2000, m, pr, &dep(3));
        let (pr, m) = b.predict(0x7000, 0, None);
        b.train(0x7000, m, pr, &dep(5));
        let written = a.merge_from(&b).unwrap();
        assert_eq!(written, 1);
        assert!(a.predict(0x2000, 0, None).0.is_dependence());
        assert!(a.predict(0x7000, 0, None).0.is_dependence());
    }

    #[test]
    fn never_bypasses() {
        let mut p = MdpTage::default();
        for i in 0..50u64 {
            let (pr, m) = p.predict(0x100, i, None);
            assert!(!pr.is_bypass());
            p.train(0x100, m, pr, &dep(1));
        }
    }
}

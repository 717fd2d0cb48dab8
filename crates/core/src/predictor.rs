//! The MASCOT predictor (§IV).
//!
//! MASCOT looks up all tables in parallel with indices/tags hashed from the
//! load PC and geometrically increasing windows of global branch + path
//! history; the longest-history hit provides the prediction, and a miss in
//! every table falls back to the base prediction of *non-dependence*.
//!
//! Its distinguishing feature (§IV-D) is that on a **false dependence** it
//! allocates an explicit *non-dependence entry* (distance 0) in the next
//! longer-history table, so conditional non-dependencies are learned as
//! first-class context patterns instead of waiting ~1,625 predictions for a
//! confidence counter to decay (§III-A).

use mascot_snapshot::{SnapError, SnapReader, SnapWriter};

use crate::config::MascotConfig;
use crate::entry::MascotEntry;
use crate::history::{rewind_hashers, BranchEvent, GlobalHistory, TableHasher};
use crate::prediction::{
    GroundTruth, LoadOutcome, MemDepPredictor, MemDepPrediction, PredictReq, StoreDistance,
};
use crate::table::AssocTable;
use crate::tuning::TuningState;

/// Upper bound on the number of tagged tables supported by the fixed-size
/// prediction metadata.
pub const MAX_TABLES: usize = 16;

/// One table's lookup coordinates, captured at prediction time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableLookup {
    /// Set index within the table.
    pub index: u32,
    /// Partial tag.
    pub tag: u32,
}

/// Per-prediction metadata carried in the load's ROB entry and handed back
/// at commit, so training uses exactly the speculative-history hashes the
/// prediction used (as the hardware would).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MascotMeta {
    lookups: [TableLookup; MAX_TABLES],
    num_tables: u8,
    /// Providing table, or `None` for the base (all-miss) prediction.
    provider: Option<u8>,
    /// Way of the providing entry at prediction time.
    provider_way: u8,
}

impl MascotMeta {
    /// The providing table index, or `None` if the base predictor provided.
    pub fn provider(&self) -> Option<usize> {
        self.provider.map(usize::from)
    }

    /// The lookup coordinates captured for `table`.
    pub fn lookup(&self, table: usize) -> TableLookup {
        debug_assert!(table < usize::from(self.num_tables));
        self.lookups[table]
    }
}

/// Aggregate counters exposed for the Figs. 8, 10 and 13 analyses.
#[derive(Debug, Clone, Default)]
pub struct MascotStats {
    /// Predictions provided by each tagged table (Fig. 13).
    pub table_predictions: Vec<u64>,
    /// Predictions provided by the base (all-miss) predictor (Fig. 13).
    pub base_predictions: u64,
    /// Successful allocations of dependent entries.
    pub dep_allocations: u64,
    /// Successful allocations of non-dependence entries.
    pub nondep_allocations: u64,
    /// Tables that refused an allocation (all ways useful), triggering the
    /// try-again policy's usefulness decrement.
    pub allocation_failures: u64,
    /// Allocations abandoned entirely (every table from the target up
    /// refused).
    pub allocations_dropped: u64,
}

/// What kind of entry an allocation should create.
#[derive(Debug, Clone, Copy)]
enum EntryProto {
    Dependent {
        distance: StoreDistance,
        bypassable: bool,
    },
    NonDependent,
}

/// Which member of the MASCOT family an instance is. Only these three are
/// evaluated, so only these three can be built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// MASCOT proper: MDP + SMB, allocating non-dependence entries.
    Mascot,
    /// The Fig. 11 ablation, which on a false dependence only decays the
    /// provider.
    TageNoNd,
    /// MASCOT used solely as a memory-dependence predictor (§VI-A, Fig. 9):
    /// trained exactly like MASCOT (bypass counters included, so the tables
    /// age the same way), but every bypass prediction is demoted to a plain
    /// dependence when it is emitted.
    MdpOnly,
}

/// The MASCOT predictor.
///
/// # Examples
///
/// ```
/// use mascot::{Mascot, MascotConfig, MemDepPredictor, MemDepPrediction};
///
/// let mut p = Mascot::new(MascotConfig::default()).expect("valid config");
/// let (pred, _meta) = p.predict(0x400_100, 0, None);
/// assert_eq!(pred, MemDepPrediction::NoDependence); // cold predictor
/// assert!((p.storage_kib() - 14.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct Mascot {
    cfg: MascotConfig,
    tables: Vec<AssocTable<MascotEntry>>,
    hashers: Vec<TableHasher>,
    history: GlobalHistory,
    tuning: Option<TuningState>,
    stats: MascotStats,
    mode: Mode,
    /// Updates since the last periodic decay (when enabled).
    updates_since_decay: u32,
    /// Scratch for the table-major batched probe (not part of the
    /// architectural state).
    batch_scratch: Vec<BatchSlot>,
}

/// Per-request scratch state for [`Mascot::predict_batch_into`].
#[derive(Debug, Clone)]
struct BatchSlot {
    meta: MascotMeta,
    prediction: MemDepPrediction,
    resolved: bool,
}

impl Mascot {
    /// Builds a predictor from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`crate::config::ConfigError`] if the
    /// configuration is inconsistent, or a shape error if it exceeds
    /// [`MAX_TABLES`] tables.
    pub fn new(cfg: MascotConfig) -> Result<Self, crate::config::ConfigError> {
        cfg.validate()?;
        if cfg.num_tables() > MAX_TABLES {
            return Err(crate::config::ConfigError::ShapeMismatch(format!(
                "at most {MAX_TABLES} tables supported, got {}",
                cfg.num_tables()
            )));
        }
        // The fill payload seeds the SoA data lane; it is never read while
        // a way's tag is invalid.
        let fill = MascotEntry::non_dependent(cfg.usefulness_bits, 0, cfg.bypass_bits);
        let tables: Vec<_> = (0..cfg.num_tables())
            .map(|i| AssocTable::new(cfg.sets(i), cfg.associativity as usize, fill.clone()))
            .collect();
        let hashers: Vec<_> = (0..cfg.num_tables())
            .map(|i| {
                TableHasher::new(
                    cfg.history_lengths[i],
                    tables[i].index_bits(),
                    u32::from(cfg.tag_bits[i]),
                )
            })
            .collect();
        let max_hist = *cfg.history_lengths.last().expect("validated non-empty") as usize;
        let tuning = cfg
            .tuning
            .then(|| TuningState::new(tables.iter().map(AssocTable::capacity)));
        let stats = MascotStats {
            table_predictions: vec![0; cfg.num_tables()],
            ..MascotStats::default()
        };
        Ok(Self {
            cfg,
            tables,
            hashers,
            history: GlobalHistory::new((max_hist * 2).max(64)),
            tuning,
            stats,
            mode: Mode::Mascot,
            updates_since_decay: 0,
            batch_scratch: Vec::new(),
        })
    }

    /// Builds the Fig. 11 ablation: structurally identical to MASCOT but it
    /// never allocates non-dependence entries — on a false dependence it
    /// only decays the provider's confidence, like prior TAGE-based MDP/SMB
    /// predictors.
    ///
    /// # Errors
    ///
    /// Same as [`Mascot::new`].
    pub fn without_non_dependence_allocation(
        cfg: MascotConfig,
    ) -> Result<Self, crate::config::ConfigError> {
        let mut p = Self::new(cfg)?;
        p.mode = Mode::TageNoNd;
        Ok(p)
    }

    /// Builds MASCOT used solely as a memory-dependence predictor (§VI-A,
    /// Fig. 9): it trains exactly like [`Mascot::new`], but never requests
    /// speculative memory bypassing.
    ///
    /// # Errors
    ///
    /// Same as [`Mascot::new`].
    ///
    /// # Examples
    ///
    /// ```
    /// use mascot::{Mascot, MascotConfig, MemDepPredictor};
    ///
    /// let mut p = Mascot::mdp_only(MascotConfig::default()).expect("valid config");
    /// let (pred, _meta) = p.predict(0x400, 0, None);
    /// assert!(!pred.is_bypass());
    /// assert_eq!(p.name(), "mascot-mdp");
    /// ```
    pub fn mdp_only(cfg: MascotConfig) -> Result<Self, crate::config::ConfigError> {
        let mut p = Self::new(cfg)?;
        p.mode = Mode::MdpOnly;
        Ok(p)
    }

    /// The active configuration.
    pub fn config(&self) -> &MascotConfig {
        &self.cfg
    }

    /// Aggregate prediction/allocation counters.
    pub fn stats(&self) -> &MascotStats {
        &self.stats
    }

    /// Whether non-dependence entries are allocated (false for the Fig. 11
    /// ablation).
    pub fn allocates_non_dependencies(&self) -> bool {
        self.mode != Mode::TageNoNd
    }

    /// Whether bypass predictions are demoted to plain dependencies (true
    /// only for [`Mascot::mdp_only`]).
    pub fn is_mdp_only(&self) -> bool {
        self.mode == Mode::MdpOnly
    }

    /// A table's prediction as this mode emits it.
    fn emit(&self, prediction: MemDepPrediction) -> MemDepPrediction {
        if self.mode == Mode::MdpOnly {
            prediction.demote_bypass()
        } else {
            prediction
        }
    }

    /// The tuning state (per-slot F1 accounting), if enabled in the config.
    pub fn tuning(&self) -> Option<&TuningState> {
        self.tuning.as_ref()
    }

    /// Occupancy of each table (diagnostics).
    pub fn occupancy(&self) -> Vec<usize> {
        self.tables.iter().map(AssocTable::occupancy).collect()
    }

    fn compute_lookups(&self, pc: u64) -> ([TableLookup; MAX_TABLES], u8) {
        let mut lookups = [TableLookup::default(); MAX_TABLES];
        for (i, hasher) in self.hashers.iter().enumerate() {
            lookups[i] = TableLookup {
                index: hasher.index(pc) as u32,
                tag: hasher.tag(pc) as u32,
            };
        }
        (lookups, self.hashers.len() as u8)
    }

    /// Interprets a providing entry as a three-way prediction (Fig. 5 left).
    fn entry_prediction(entry: &MascotEntry) -> MemDepPrediction {
        match entry.distance() {
            None => MemDepPrediction::NoDependence,
            Some(distance) => {
                if entry.predicts_bypass() {
                    MemDepPrediction::Bypass { distance }
                } else {
                    MemDepPrediction::Dependence { distance }
                }
            }
        }
    }

    /// Runs `f` on the providing entry if it still resides where the
    /// prediction found it (it may have been evicted in the interim).
    fn with_provider_entry(&mut self, meta: &MascotMeta, f: impl FnOnce(&mut MascotEntry)) {
        if let Some(p) = meta.provider() {
            let lk = meta.lookup(p);
            if let Some((_, e)) = self.tables[p].find_mut(u64::from(lk.index), u64::from(lk.tag)) {
                f(e);
            }
        }
    }

    /// Whether a conflict of this class is a bypass opportunity on the
    /// configured datapath (§IV-E).
    fn class_bypassable(&self, class: crate::prediction::BypassClass) -> bool {
        class.is_bypassable()
            || (self.cfg.offset_bypass && class == crate::prediction::BypassClass::Offset)
    }

    fn periodic_decay(&mut self) {
        let Some(period) = self.cfg.periodic_decay else {
            return;
        };
        self.updates_since_decay += 1;
        if self.updates_since_decay < period {
            return;
        }
        self.updates_since_decay = 0;
        for table in &mut self.tables {
            table.for_each_valid_slot_mut(|_, _, e| e.decay());
        }
    }

    fn build_entry(&self, proto: EntryProto) -> MascotEntry {
        match proto {
            EntryProto::Dependent {
                distance,
                bypassable,
            } => MascotEntry::dependent(
                distance,
                self.cfg.usefulness_bits,
                self.cfg.dep_alloc_usefulness,
                self.cfg.bypass_bits,
                u8::from(bypassable),
            ),
            EntryProto::NonDependent => MascotEntry::non_dependent(
                self.cfg.usefulness_bits,
                self.cfg.nondep_alloc_usefulness,
                self.cfg.bypass_bits,
            ),
        }
    }

    /// Allocates a new entry using the try-again policy (§IV-C): starting at
    /// `start_table`, attempt each longer-history table in turn; a table
    /// refuses when all its ways are useful, in which case all of its ways
    /// in the indexed set are decayed and the next table is tried.
    fn allocate(&mut self, meta: &MascotMeta, start_table: usize, proto: EntryProto) {
        for t in start_table..self.tables.len() {
            let lk = meta.lookup(t);
            let entry = self.build_entry(proto);
            match self.tables[t].try_insert(
                u64::from(lk.index),
                u64::from(lk.tag),
                entry,
                MascotEntry::is_evictable,
            ) {
                Some(_way) => {
                    match proto {
                        EntryProto::Dependent { .. } => self.stats.dep_allocations += 1,
                        EntryProto::NonDependent => self.stats.nondep_allocations += 1,
                    }
                    return;
                }
                None => {
                    self.stats.allocation_failures += 1;
                    self.tables[t].for_each_valid_mut(u64::from(lk.index), |_, e| e.decay());
                }
            }
        }
        self.stats.allocations_dropped += 1;
    }

    /// Total valid entries across all tables (the snapshot/restore
    /// "restored entries" accounting unit).
    pub fn entry_count(&self) -> u64 {
        self.tables.iter().map(|t| t.occupancy() as u64).sum()
    }

    /// Serializes the full architectural state: configuration, tables,
    /// global history, decay phase and aggregate stats.
    ///
    /// The table hashers are *not* serialized — they are a pure function of
    /// (config, history) and are recomputed on decode, which both shrinks
    /// the payload and makes "hashers match history" true by construction.
    /// The tuning state and batch scratch are instrumentation/scratch, not
    /// architectural state, and are likewise rebuilt fresh.
    pub fn snap_encode(&self, w: &mut SnapWriter) {
        self.cfg.snap_encode(w);
        w.bool(self.allocates_non_dependencies());
        w.u32(self.updates_since_decay);
        self.history.snap_encode(w);
        w.u32(self.stats.table_predictions.len() as u32);
        for &c in &self.stats.table_predictions {
            w.u64(c);
        }
        w.u64(self.stats.base_predictions);
        w.u64(self.stats.dep_allocations);
        w.u64(self.stats.nondep_allocations);
        w.u64(self.stats.allocation_failures);
        w.u64(self.stats.allocations_dropped);
        for table in &self.tables {
            table.snap_encode_with(w, |e, w| e.snap_encode(w));
        }
    }

    /// Decodes a predictor from a snapshot payload, fail-closed: the
    /// embedded configuration must validate, every table must match the
    /// geometry that configuration implies, every tag must fit its table's
    /// tag width, and the decay phase must be consistent with the decay
    /// period. Hashers are recomputed from the restored history.
    ///
    /// # Errors
    ///
    /// [`SnapError`] on truncation or any out-of-range or inconsistent
    /// field; no partially restored predictor is ever produced.
    pub fn snap_decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let cfg = MascotConfig::snap_decode(r)?;
        let mut p = Self::new(cfg)
            .map_err(|_| SnapError::Corrupt("snapshot configuration rejected by the predictor"))?;
        if !r.bool("non-dependence allocation flag")? {
            p.mode = Mode::TageNoNd;
        }
        let updates = r.u32("decay phase")?;
        match p.cfg.periodic_decay {
            Some(period) if updates >= period => {
                return Err(SnapError::Corrupt("decay phase exceeds its period"));
            }
            None if updates != 0 => {
                return Err(SnapError::Corrupt("decay phase without periodic decay"));
            }
            _ => p.updates_since_decay = updates,
        }
        let history = GlobalHistory::snap_decode(r)?;
        if history.capacity() != p.history.capacity() {
            return Err(SnapError::Corrupt("history capacity does not match config"));
        }
        p.history = history;
        for hasher in &mut p.hashers {
            hasher.recompute(&p.history);
        }
        let nt = r.u32("stats table count")? as usize;
        if nt != p.tables.len() {
            return Err(SnapError::Corrupt("stats table count does not match config"));
        }
        let mut table_predictions = Vec::with_capacity(nt);
        for _ in 0..nt {
            table_predictions.push(r.u64("table prediction counter")?);
        }
        p.stats = MascotStats {
            table_predictions,
            base_predictions: r.u64("base prediction counter")?,
            dep_allocations: r.u64("dependent allocation counter")?,
            nondep_allocations: r.u64("non-dependence allocation counter")?,
            allocation_failures: r.u64("allocation failure counter")?,
            allocations_dropped: r.u64("dropped allocation counter")?,
        };
        let fill = MascotEntry::non_dependent(p.cfg.usefulness_bits, 0, p.cfg.bypass_bits);
        for i in 0..p.tables.len() {
            let tag_limit = 1u64 << p.cfg.tag_bits[i];
            p.tables[i] = AssocTable::snap_decode_with(
                r,
                p.cfg.sets(i),
                p.cfg.associativity as usize,
                fill.clone(),
                |t| t < tag_limit,
                MascotEntry::snap_decode,
            )?;
        }
        Ok(p)
    }

    /// Decodes an MDP-only predictor: the same payload as
    /// [`Mascot::snap_decode`] (the snapshot variant tag, not the payload,
    /// records the mode), which must have non-dependence allocation on.
    ///
    /// # Errors
    ///
    /// As [`Mascot::snap_decode`], plus [`SnapError::Corrupt`] for a payload
    /// of the Fig. 11 ablation.
    pub fn snap_decode_mdp_only(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut p = Self::snap_decode(r)?;
        if p.mode != Mode::Mascot {
            return Err(SnapError::Corrupt(
                "MDP-only payload without non-dependence allocation",
            ));
        }
        p.mode = Mode::MdpOnly;
        Ok(p)
    }

    /// Folds another predictor's tables into this one — the warm-resharding
    /// merge. Both predictors must share a configuration and mode.
    ///
    /// For every valid entry of `other`, the entry is unioned into the same
    /// (table, set) of `self`; on a tag collision or a full set the entry
    /// with the higher usefulness (MDP confidence) wins. A tie keeps the
    /// incumbent but *decays* it one usefulness step: a pure
    /// ties-keep-the-incumbent rule let a flooding tenant's equal-usefulness
    /// entries survive every resharding union merge indefinitely (they were
    /// never preferred *over*, so they were never aged *out*); with the
    /// decay tiebreak a tied entry loses ground each round and becomes
    /// evictable. Aggregate stats are summed; the global history keeps
    /// `self`'s copy (shards see an identical broadcast branch stream, so
    /// the histories agree whenever the shards come from one serve run).
    ///
    /// Returns the number of entries written from `other` into `self`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] when the configurations or modes differ.
    pub fn merge_from(&mut self, other: &Self) -> Result<u64, SnapError> {
        if self.cfg != other.cfg || self.mode != other.mode {
            return Err(SnapError::Corrupt(
                "cannot merge predictors with different configurations",
            ));
        }
        let mut written = 0;
        for (mine, theirs) in self.tables.iter_mut().zip(&other.tables) {
            written += mine.merge_from_resolve(theirs, |incoming, incumbent| {
                let inc = incoming.usefulness().value();
                let cur = incumbent.usefulness().value();
                if inc == cur {
                    incumbent.decay();
                }
                inc > cur
            })?;
        }
        for (mine, theirs) in self
            .stats
            .table_predictions
            .iter_mut()
            .zip(&other.stats.table_predictions)
        {
            *mine += *theirs;
        }
        self.stats.base_predictions += other.stats.base_predictions;
        self.stats.dep_allocations += other.stats.dep_allocations;
        self.stats.nondep_allocations += other.stats.nondep_allocations;
        self.stats.allocation_failures += other.stats.allocation_failures;
        self.stats.allocations_dropped += other.stats.allocations_dropped;
        Ok(written)
    }

    /// Table-major batched probe: computes every request's lookups up front,
    /// then sweeps each table once — longest history first — across all
    /// still-unresolved requests, so a batch makes one pass over each tag
    /// lane instead of N dependent random walks.
    ///
    /// Behaviourally identical to calling [`MemDepPredictor::predict`] per
    /// request in order: `predict` never writes the tables (only the
    /// commutative stats counters), so probe order cannot change any
    /// prediction, and results are emitted to `sink` in request order.
    pub fn predict_batch_into(
        &mut self,
        reqs: &[PredictReq],
        mut sink: impl FnMut(MemDepPrediction, MascotMeta),
    ) {
        let mut slots = std::mem::take(&mut self.batch_scratch);
        slots.clear();
        for req in reqs {
            let (lookups, num_tables) = self.compute_lookups(req.pc);
            slots.push(BatchSlot {
                meta: MascotMeta {
                    lookups,
                    num_tables,
                    provider: None,
                    provider_way: 0,
                },
                prediction: MemDepPrediction::NoDependence,
                resolved: false,
            });
        }
        for t in (0..self.tables.len()).rev() {
            let table = &self.tables[t];
            let mut hits = 0u64;
            for slot in slots.iter_mut().filter(|s| !s.resolved) {
                let lk = slot.meta.lookups[t];
                if let Some((way, entry)) = table.find(u64::from(lk.index), u64::from(lk.tag)) {
                    slot.meta.provider = Some(t as u8);
                    slot.meta.provider_way = way as u8;
                    slot.prediction = Self::entry_prediction(entry);
                    slot.resolved = true;
                    hits += 1;
                }
            }
            self.stats.table_predictions[t] += hits;
        }
        for slot in &slots {
            if !slot.resolved {
                self.stats.base_predictions += 1;
            }
            sink(self.emit(slot.prediction), slot.meta);
        }
        self.batch_scratch = slots;
    }
}

impl MemDepPredictor for Mascot {
    type Meta = MascotMeta;

    fn name(&self) -> &'static str {
        match self.mode {
            Mode::Mascot => "mascot",
            Mode::TageNoNd => "tage-no-nd",
            Mode::MdpOnly => "mascot-mdp",
        }
    }

    fn predict(
        &mut self,
        pc: u64,
        _store_seq: u64,
        _oracle: Option<&GroundTruth>,
    ) -> (MemDepPrediction, MascotMeta) {
        let (lookups, num_tables) = self.compute_lookups(pc);
        let mut provider = None;
        let mut provider_way = 0u8;
        let mut prediction = MemDepPrediction::NoDependence;
        for t in (0..self.tables.len()).rev() {
            let lk = lookups[t];
            if let Some((way, entry)) = self.tables[t].find(u64::from(lk.index), u64::from(lk.tag))
            {
                provider = Some(t as u8);
                provider_way = way as u8;
                prediction = Self::entry_prediction(entry);
                self.stats.table_predictions[t] += 1;
                break;
            }
        }
        if provider.is_none() {
            self.stats.base_predictions += 1;
        }
        (
            self.emit(prediction),
            MascotMeta {
                lookups,
                num_tables,
                provider,
                provider_way,
            },
        )
    }

    fn predict_batch(
        &mut self,
        reqs: &[PredictReq],
        out: &mut Vec<(MemDepPrediction, Self::Meta)>,
    ) {
        out.clear();
        out.reserve(reqs.len());
        self.predict_batch_into(reqs, |p, m| out.push((p, m)));
    }

    fn train(
        &mut self,
        _pc: u64,
        meta: MascotMeta,
        predicted: MemDepPrediction,
        outcome: &LoadOutcome,
    ) {
        self.periodic_decay();
        // Tuning: attribute this outcome to the providing slot (§IV-F).
        if let Some(tuning) = &mut self.tuning {
            if let Some(p) = meta.provider() {
                let lk = meta.lookup(p);
                let slot = self.tables[p].slot_id(u64::from(lk.index), usize::from(meta.provider_way));
                tuning.record(p, slot, predicted.is_dependence(), outcome.is_dependent());
            }
        }

        match predicted {
            MemDepPrediction::NoDependence => match outcome.dependence {
                None => {
                    // Correct non-dependence: reinforce a providing
                    // non-dependence entry so it survives eviction pressure.
                    self.with_provider_entry(&meta, |e| {
                        if e.is_non_dependence() {
                            e.reward_dependence();
                        }
                    });
                }
                Some(dep) => {
                    // Missed dependence: punish a providing non-dependence
                    // entry and allocate the true dependence with longer
                    // context (base provider allocates into N0, §IV-C).
                    self.with_provider_entry(&meta, MascotEntry::punish_dependence);
                    let start = meta.provider().map_or(0, |p| p + 1);
                    self.allocate(
                        &meta,
                        start,
                        EntryProto::Dependent {
                            distance: dep.distance,
                            bypassable: self.class_bypassable(dep.class),
                        },
                    );
                }
            },
            MemDepPrediction::Dependence { distance } | MemDepPrediction::Bypass { distance } => {
                match outcome.dependence {
                    Some(dep) if dep.distance == distance => {
                        // Correct MDP; bypass confidence tracks whether the
                        // conflict was a bypass opportunity (§IV-E).
                        let bypassable = self.class_bypassable(dep.class);
                        self.with_provider_entry(&meta, |e| {
                            e.reward_dependence();
                            if bypassable {
                                e.reward_bypass();
                            } else {
                                e.punish_bypass();
                            }
                        });
                    }
                    Some(dep) => {
                        // Conflict with a different store: punish and
                        // allocate the corrected distance in the next table.
                        self.with_provider_entry(&meta, |e| {
                            e.punish_dependence();
                            e.punish_bypass();
                        });
                        let start = meta.provider().map_or(0, |p| p + 1);
                        self.allocate(
                            &meta,
                            start,
                            EntryProto::Dependent {
                                distance: dep.distance,
                                bypassable: self.class_bypassable(dep.class),
                            },
                        );
                    }
                    None => {
                        // False dependence: THE key case (§IV-D). Punish the
                        // provider, and (MASCOT only) allocate an explicit
                        // non-dependence entry with longer context.
                        self.with_provider_entry(&meta, |e| {
                            e.punish_dependence();
                            e.punish_bypass();
                        });
                        if self.allocates_non_dependencies() {
                            let start = meta.provider().map_or(0, |p| p + 1);
                            self.allocate(&meta, start, EntryProto::NonDependent);
                        }
                    }
                }
            }
        }
    }

    fn on_branch(&mut self, event: &BranchEvent) {
        for hasher in &mut self.hashers {
            hasher.on_branch(&self.history, event);
        }
        self.history.push(*event);
    }

    fn rewind_history(&mut self, recent: &[BranchEvent]) {
        rewind_hashers(&mut self.history, &mut self.hashers, recent);
    }

    fn bypass_supports_offset(&self) -> bool {
        self.cfg.offset_bypass && self.mode != Mode::MdpOnly
    }

    fn storage_bits(&self) -> u64 {
        self.cfg.storage_bits()
    }

    fn end_tuning_period(&mut self) {
        if let Some(t) = &mut self.tuning {
            t.end_period();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prediction::{BypassClass, ObservedDependence};

    fn dep(distance: u32, class: BypassClass) -> ObservedDependence {
        ObservedDependence {
            distance: StoreDistance::new(distance).unwrap(),
            class,
            store_pc: 0x900,
            branches_between: 0,
        }
    }

    fn small_cfg() -> MascotConfig {
        MascotConfig {
            history_lengths: vec![0, 2, 4, 8],
            table_entries: vec![64; 4],
            tag_bits: vec![12; 4],
            ..MascotConfig::default()
        }
    }

    fn predictor() -> Mascot {
        Mascot::new(small_cfg()).unwrap()
    }

    const PC: u64 = 0x40_1000;

    /// Trains one (prediction, outcome) round at `pc` and returns the
    /// *next* prediction.
    fn step(p: &mut Mascot, pc: u64, outcome: LoadOutcome) -> MemDepPrediction {
        let (pred, meta) = p.predict(pc, 0, None);
        p.train(pc, meta, pred, &outcome);
        let (next, _) = p.predict(pc, 0, None);
        next
    }

    #[test]
    fn cold_predictor_defaults_to_non_dependence() {
        let mut p = predictor();
        let (pred, meta) = p.predict(PC, 0, None);
        assert_eq!(pred, MemDepPrediction::NoDependence);
        assert_eq!(meta.provider(), None);
        assert_eq!(p.stats().base_predictions, 1);
    }

    #[test]
    fn learns_dependence_after_one_miss() {
        let mut p = predictor();
        let out = LoadOutcome::dependent(dep(3, BypassClass::MdpOnly));
        let next = step(&mut p, PC, out);
        assert_eq!(
            next,
            MemDepPrediction::Dependence {
                distance: StoreDistance::new(3).unwrap()
            }
        );
        assert_eq!(p.stats().dep_allocations, 1);
    }

    /// A dependent entry must reach saturation of both counters before
    /// predicting bypass: allocated at u=6/b=1, it needs one u increment
    /// and two b increments.
    #[test]
    fn bypass_requires_confidence_buildup() {
        let mut p = predictor();
        let out = LoadOutcome::dependent(dep(2, BypassClass::DirectBypass));
        let mut pred = step(&mut p, PC, out);
        assert!(matches!(pred, MemDepPrediction::Dependence { .. }));
        // Keep confirming until it upgrades to a bypass prediction.
        for _ in 0..3 {
            let (pr, meta) = p.predict(PC, 0, None);
            p.train(PC, meta, pr, &out);
        }
        pred = p.predict(PC, 0, None).0;
        assert_eq!(
            pred,
            MemDepPrediction::Bypass {
                distance: StoreDistance::new(2).unwrap()
            }
        );
    }

    #[test]
    fn mdp_only_class_never_upgrades_to_bypass() {
        let mut p = predictor();
        let out = LoadOutcome::dependent(dep(2, BypassClass::MdpOnly));
        for _ in 0..20 {
            let (pr, meta) = p.predict(PC, 0, None);
            p.train(PC, meta, pr, &out);
        }
        let pred = p.predict(PC, 0, None).0;
        assert!(
            matches!(pred, MemDepPrediction::Dependence { .. }),
            "got {pred:?}"
        );
    }

    #[test]
    fn mdp_only_never_predicts_bypass() {
        let mut p = Mascot::mdp_only(small_cfg()).unwrap();
        let out = LoadOutcome::dependent(dep(2, BypassClass::DirectBypass));
        for _ in 0..30 {
            let (pred, meta) = p.predict(PC, 0, None);
            assert!(!pred.is_bypass());
            p.train(PC, meta, pred, &out);
        }
        // The tables have saturated counters and would bypass...
        let mut full = p.clone();
        full.mode = Mode::Mascot;
        assert!(full.predict(PC, 0, None).0.is_bypass());
        // ...but the MDP-only mode still demotes, on both probe paths.
        assert!(!p.predict(PC, 0, None).0.is_bypass());
        let mut batch = Vec::new();
        let req = PredictReq {
            pc: PC,
            store_seq: 0,
            oracle: None,
        };
        p.predict_batch(&[req], &mut batch);
        assert!(!batch[0].0.is_bypass());
        // No bypasses, so no offset bypasses either.
        let offset = small_cfg().with_offset_bypass();
        assert!(Mascot::new(offset.clone()).unwrap().bypass_supports_offset());
        assert!(!Mascot::mdp_only(offset).unwrap().bypass_supports_offset());
    }

    /// §IV-D: a false dependence allocates a non-dependence entry in a
    /// longer-history table, which then provides a NoDependence prediction.
    #[test]
    fn false_dependence_allocates_non_dependence_entry() {
        let mut p = predictor();
        // Learn a dependence in table 0.
        step(&mut p, PC, LoadOutcome::dependent(dep(1, BypassClass::MdpOnly)));
        // Now the load stops depending: one false dependence should allocate
        // a non-dependence entry in the next table.
        let next = step(&mut p, PC, LoadOutcome::independent());
        assert_eq!(next, MemDepPrediction::NoDependence);
        assert_eq!(p.stats().nondep_allocations, 1);
    }

    /// The Fig. 11 ablation decays confidence instead: after a single false
    /// dependence it still predicts the (stale) dependence.
    #[test]
    fn ablation_keeps_predicting_after_false_dependence() {
        let mut p = Mascot::without_non_dependence_allocation(small_cfg()).unwrap();
        assert_eq!(p.name(), "tage-no-nd");
        step(&mut p, PC, LoadOutcome::dependent(dep(1, BypassClass::MdpOnly)));
        let next = step(&mut p, PC, LoadOutcome::independent());
        assert!(
            matches!(next, MemDepPrediction::Dependence { .. }),
            "ablation should keep the dependent entry alive; got {next:?}"
        );
        assert_eq!(p.stats().nondep_allocations, 0);
    }

    /// §III-A's example end-to-end: a dependence conditioned on the most
    /// recent branch direction becomes predictable once the non-dependence
    /// context is allocated.
    #[test]
    fn learns_branch_conditional_dependence() {
        use crate::history::{BranchEvent, BranchKind};
        let mut p = predictor();
        let branch = |taken| BranchEvent {
            pc: 0x500,
            kind: BranchKind::Conditional,
            taken,
            target: 0x600,
        };
        let dep_out = LoadOutcome::dependent(dep(1, BypassClass::DirectBypass));
        let indep_out = LoadOutcome::independent();
        // Train: taken -> dependent, not-taken -> independent.
        for round in 0..60u32 {
            let taken = round % 2 == 0;
            p.on_branch(&branch(taken));
            let (pred, meta) = p.predict(PC, 0, None);
            let out = if taken { dep_out } else { indep_out };
            p.train(PC, meta, pred, &out);
        }
        // Evaluate: after warmup both contexts should predict correctly.
        let mut correct = 0;
        for round in 0..40u32 {
            let taken = round % 2 == 0;
            p.on_branch(&branch(taken));
            let (pred, meta) = p.predict(PC, 0, None);
            let out = if taken { dep_out } else { indep_out };
            if pred.is_dependence() == out.is_dependent() {
                correct += 1;
            }
            p.train(PC, meta, pred, &out);
        }
        assert!(correct >= 36, "only {correct}/40 correct");
    }

    #[test]
    fn wrong_distance_reallocates_with_correct_distance() {
        let mut p = predictor();
        step(&mut p, PC, LoadOutcome::dependent(dep(1, BypassClass::MdpOnly)));
        // Conflict with a different store (distance 4).
        let next = step(&mut p, PC, LoadOutcome::dependent(dep(4, BypassClass::MdpOnly)));
        assert_eq!(
            next,
            MemDepPrediction::Dependence {
                distance: StoreDistance::new(4).unwrap()
            }
        );
    }

    #[test]
    fn incorrect_bypass_resets_bypass_confidence() {
        let mut p = predictor();
        let byp = LoadOutcome::dependent(dep(2, BypassClass::DirectBypass));
        // Build up to a bypass prediction.
        for _ in 0..5 {
            let (pr, meta) = p.predict(PC, 0, None);
            p.train(PC, meta, pr, &byp);
        }
        assert!(p.predict(PC, 0, None).0.is_bypass());
        // Same store, but only a partial overlap: correct MDP, failed SMB.
        let partial = LoadOutcome::dependent(dep(2, BypassClass::MdpOnly));
        let (pr, meta) = p.predict(PC, 0, None);
        p.train(PC, meta, pr, &partial);
        let after = p.predict(PC, 0, None).0;
        assert!(
            matches!(after, MemDepPrediction::Dependence { .. }),
            "bypass confidence must reset after a failed bypass; got {after:?}"
        );
    }

    #[test]
    fn rewind_restores_hashing() {
        use crate::history::{BranchEvent, BranchKind};
        let mut p = predictor();
        let events: Vec<BranchEvent> = (0..20u64)
            .map(|i| BranchEvent {
                pc: i * 4,
                kind: BranchKind::Conditional,
                taken: i % 3 == 0,
                target: i * 4 + 16,
            })
            .collect();
        for ev in &events {
            p.on_branch(ev);
        }
        let (_, meta_before) = p.predict(PC, 0, None);
        // Wrong-path traffic, then rewind to the architectural history.
        for i in 0..5u64 {
            p.on_branch(&BranchEvent {
                pc: 0x9000 + i * 4,
                kind: BranchKind::Conditional,
                taken: true,
                target: 0x9100,
            });
        }
        p.rewind_history(&events);
        let (_, meta_after) = p.predict(PC, 0, None);
        for t in 0..4 {
            assert_eq!(meta_before.lookup(t), meta_after.lookup(t), "table {t}");
        }
    }

    #[test]
    fn storage_matches_config() {
        let p = predictor();
        assert_eq!(p.storage_bits(), small_cfg().storage_bits());
    }

    #[test]
    fn allocation_pressure_decays_sets() {
        // Fill one set of the last table completely with useful entries,
        // then force repeated allocation attempts targeting it: failures
        // must decrement usefulness until an entry becomes evictable.
        let cfg = MascotConfig {
            history_lengths: vec![0],
            table_entries: vec![4], // a single 4-way set
            tag_bits: vec![10],
            ..MascotConfig::default()
        };
        let mut p = Mascot::new(cfg).unwrap();
        // Distinct PCs hash to distinct tags within the single set.
        let pcs: Vec<u64> = (0..12u64).map(|i| 0x1000 + i * 64).collect();
        let out = LoadOutcome::dependent(dep(1, BypassClass::MdpOnly));
        for &pc in &pcs {
            let (pr, meta) = p.predict(pc, 0, None);
            p.train(pc, meta, pr, &out);
        }
        let s = p.stats();
        assert!(s.allocation_failures > 0, "expected allocation pressure");
        assert!(s.dep_allocations >= 4, "some allocations must succeed");
    }

    /// §IV-E extension: with offset bypassing enabled, Offset-class
    /// conflicts build bypass confidence; without it they never do.
    #[test]
    fn offset_bypass_extension_changes_bypassability() {
        let out = LoadOutcome::dependent(dep(2, BypassClass::Offset));
        let mut plain = Mascot::new(small_cfg()).unwrap();
        let mut extended = Mascot::new(small_cfg().with_offset_bypass()).unwrap();
        assert!(!plain.bypass_supports_offset());
        assert!(extended.bypass_supports_offset());
        for _ in 0..20 {
            let (pr, meta) = plain.predict(PC, 0, None);
            plain.train(PC, meta, pr, &out);
            let (pr, meta) = extended.predict(PC, 0, None);
            extended.train(PC, meta, pr, &out);
        }
        assert!(
            !plain.predict(PC, 0, None).0.is_bypass(),
            "default datapath must not bypass offset loads"
        );
        assert!(
            extended.predict(PC, 0, None).0.is_bypass(),
            "the shifting-field extension bypasses offset loads"
        );
    }

    /// §IV-C: periodic decay eventually makes even a saturated entry
    /// evictable without any misprediction.
    #[test]
    fn periodic_decay_ages_entries() {
        let mut p = Mascot::new(small_cfg().with_periodic_decay(5)).unwrap();
        // Learn a dependence and saturate it.
        let out = LoadOutcome::dependent(dep(1, BypassClass::DirectBypass));
        for _ in 0..4 {
            let (pr, meta) = p.predict(PC, 0, None);
            p.train(PC, meta, pr, &out);
        }
        // Train an unrelated PC repeatedly: decay ticks with every update
        // while the victim entry receives no reinforcement.
        for _ in 0..60 {
            let (pr, meta) = p.predict(0x99_0000, 0, None);
            p.train(0x99_0000, meta, pr, &LoadOutcome::independent());
        }
        let occupancy_before: usize = p.occupancy().iter().sum();
        assert!(occupancy_before >= 1);
        // The aged entry still predicts (distance survives) but is now
        // evictable; verify by exhausting its set with fresh allocations.
        let (pred, _) = p.predict(PC, 0, None);
        assert!(pred.is_dependence(), "decay must not erase the prediction");
    }

    /// Drives a deterministic mixed workload (branches, dependent and
    /// independent loads) so the predictor has non-trivial state in every
    /// structure: tables, history, hashers, stats.
    fn warm(p: &mut Mascot, rounds: u32) {
        use crate::history::{BranchEvent, BranchKind};
        let mut rng = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for _ in 0..rounds {
            let r = next();
            p.on_branch(&BranchEvent {
                pc: 0x500 + (r % 64) * 4,
                kind: if r % 5 == 0 {
                    BranchKind::Indirect
                } else {
                    BranchKind::Conditional
                },
                taken: r % 2 == 0,
                target: 0x600 + (r % 16) * 4,
            });
            let pc = PC + (next() % 24) * 4;
            let (pred, meta) = p.predict(pc, 0, None);
            let out = if next() % 3 == 0 {
                LoadOutcome::independent()
            } else {
                LoadOutcome::dependent(dep(
                    1 + (next() % 7) as u32,
                    BypassClass::DirectBypass,
                ))
            };
            p.train(pc, meta, pred, &out);
        }
    }

    /// Snapshot → restore must reproduce the exact architectural state:
    /// re-encoding the restored predictor yields the original bytes, and
    /// continued identical traffic produces identical predictions.
    #[test]
    fn snap_roundtrip_is_bit_identical() {
        let mut p = predictor();
        warm(&mut p, 400);
        let mut w = SnapWriter::new();
        p.snap_encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut q = Mascot::snap_decode(&mut r).unwrap();
        r.finish().unwrap();
        let mut w2 = SnapWriter::new();
        q.snap_encode(&mut w2);
        assert_eq!(w2.into_bytes(), bytes, "restored state must re-encode identically");
        // Continued traffic diverges if any hidden state (hashers, history,
        // decay phase) was restored wrong.
        warm(&mut p, 200);
        warm(&mut q, 200);
        for i in 0..24u64 {
            let pc = PC + i * 4;
            assert_eq!(
                p.predict(pc, 0, None).0,
                q.predict(pc, 0, None).0,
                "divergence at pc {pc:#x}"
            );
        }
    }

    #[test]
    fn snap_roundtrip_preserves_decay_phase_and_ablation() {
        let mut p =
            Mascot::without_non_dependence_allocation(small_cfg().with_periodic_decay(7)).unwrap();
        warm(&mut p, 50);
        let mut w = SnapWriter::new();
        p.snap_encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let q = Mascot::snap_decode(&mut r).unwrap();
        assert!(!q.allocates_non_dependencies());
        assert_eq!(q.name(), "tage-no-nd");
        let mut w2 = SnapWriter::new();
        q.snap_encode(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
    }

    #[test]
    fn snap_decode_is_fail_closed() {
        let mut p = predictor();
        warm(&mut p, 100);
        let mut w = SnapWriter::new();
        p.snap_encode(&mut w);
        let good = w.into_bytes();
        for cut in 0..good.len() {
            let mut r = SnapReader::new(&good[..cut]);
            let decoded = Mascot::snap_decode(&mut r);
            assert!(
                decoded.is_err() || r.finish().is_err(),
                "truncation to {cut} bytes must not decode cleanly"
            );
        }
        // A decay phase at or past the period is inconsistent.
        let mut p = Mascot::new(small_cfg().with_periodic_decay(3)).unwrap();
        warm(&mut p, 10);
        let mut w = SnapWriter::new();
        p.snap_encode(&mut w);
        let mut bytes = w.into_bytes();
        // The decay phase is the u32 right after the config and the
        // ablation flag; locate it by re-encoding just the config.
        let mut cw = SnapWriter::new();
        p.config().snap_encode(&mut cw);
        let off = cw.len() + 1;
        bytes[off..off + 4].copy_from_slice(&99u32.to_le_bytes());
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(
            Mascot::snap_decode(&mut r),
            Err(SnapError::Corrupt("decay phase exceeds its period"))
        ));
    }

    /// Warm resharding: predictors trained on disjoint PC sets union into
    /// one that serves both, preferring the higher-confidence entry on
    /// collision.
    #[test]
    fn merge_unions_disjoint_knowledge() {
        let mut a = predictor();
        let mut b = predictor();
        let out = |d| LoadOutcome::dependent(dep(d, BypassClass::MdpOnly));
        for i in 0..8u64 {
            let pc = 0x1000 + i * 64;
            for _ in 0..3 {
                let (pr, meta) = a.predict(pc, 0, None);
                a.train(pc, meta, pr, &out(2));
            }
        }
        for i in 0..8u64 {
            let pc = 0x9000 + i * 64;
            for _ in 0..3 {
                let (pr, meta) = b.predict(pc, 0, None);
                b.train(pc, meta, pr, &out(5));
            }
        }
        let before = a.entry_count();
        let written = a.merge_from(&b).unwrap();
        assert!(written > 0);
        assert!(a.entry_count() > before);
        assert!(a
            .predict(0x1000, 0, None)
            .0
            .is_dependence());
        assert!(a
            .predict(0x9000, 0, None)
            .0
            .is_dependence());
        // Stats are summed (each side allocated once per PC, then only
        // reinforced).
        assert_eq!(a.stats().dep_allocations, 16);
        // Mismatched configurations are rejected.
        let other = Mascot::new(MascotConfig::default()).unwrap();
        assert!(a.merge_from(&other).is_err());
    }

    /// Regression: a flooding tenant's equal-usefulness entries must not
    /// survive resharding union merges indefinitely. Under the old
    /// ties-keep-the-incumbent rule, an entry whose usefulness exactly
    /// matched every incoming rival was never replaced *and* never aged, so
    /// repeated merges pinned it forever; the decay tiebreak makes each tied
    /// round cost one usefulness step until the entry is evictable.
    #[test]
    fn merge_ties_decay_instead_of_pinning() {
        // Train the same PC in two predictors with *different* distances:
        // the entries collide at the same (table, set, tag) with equal
        // usefulness, so under the old rule the incumbent's stale distance
        // won every merge forever.
        let train_once = |p: &mut Mascot, d: u32| {
            let out = LoadOutcome::dependent(dep(d, BypassClass::MdpOnly));
            let (pr, meta) = p.predict(PC, 0, None);
            p.train(PC, meta, pr, &out);
        };
        let mut incumbent = predictor();
        train_once(&mut incumbent, 2);
        let mut rival = predictor();
        train_once(&mut rival, 5);
        let useful_of = |p: &mut Mascot| {
            let (_, meta) = p.predict(PC, 0, None);
            let t = meta.provider().expect("trained entry provides");
            let lk = meta.lookup(t);
            p.tables[t]
                .find(u64::from(lk.index), u64::from(lk.tag))
                .expect("entry resides where predicted")
                .1
                .usefulness()
                .value()
        };
        let tied = useful_of(&mut incumbent);
        assert_eq!(tied, useful_of(&mut rival), "setup: a genuine tie");
        // Round 1: the tie keeps the incumbent but decays it one step —
        // under the old rule this round left it untouched at `tied`.
        let written = incumbent.merge_from(&rival).unwrap();
        assert_eq!(written, 0);
        assert_eq!(useful_of(&mut incumbent), tied - 1, "tie must cost a decay step");
        assert!(
            matches!(
                incumbent.predict(PC, 0, None).0,
                MemDepPrediction::Dependence { distance } if distance.get() == 2
            ),
            "incumbent survives the first tied round"
        );
        // Round 2: the decayed incumbent now loses outright, so the rival's
        // entry replaces it instead of being pinned out forever.
        let written = incumbent.merge_from(&rival).unwrap();
        assert!(written >= 1, "a repeatedly tied incumbent must lose its slot");
        assert!(
            matches!(
                incumbent.predict(PC, 0, None).0,
                MemDepPrediction::Dependence { distance } if distance.get() == 5
            ),
            "the rival's entry takes over after the decayed tie"
        );
    }

    /// Periodic decay leaves the headline behaviour intact (the paper
    /// "did not find any meaningful changes in performance").
    #[test]
    fn periodic_decay_does_not_break_learning() {
        let mut with = Mascot::new(small_cfg().with_periodic_decay(64)).unwrap();
        let mut without = Mascot::new(small_cfg()).unwrap();
        let out = LoadOutcome::dependent(dep(3, BypassClass::DirectBypass));
        let mut agree = 0;
        for i in 0..200u32 {
            let o = if i % 4 == 0 { LoadOutcome::independent() } else { out };
            let (p1, m1) = with.predict(PC, 0, None);
            with.train(PC, m1, p1, &o);
            let (p2, m2) = without.predict(PC, 0, None);
            without.train(PC, m2, p2, &o);
            if p1.is_dependence() == p2.is_dependence() {
                agree += 1;
            }
        }
        assert!(agree > 180, "decay changed behaviour materially: {agree}/200");
    }
}

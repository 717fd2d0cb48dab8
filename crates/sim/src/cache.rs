//! Multi-level cache hierarchy with MSHRs and an IP-stride prefetcher.
//!
//! Models the Table-I memory system: private L1I/L1D and L2, a shared-L3
//! share, and flat-latency DRAM. Latency modelling is hit-level based: an
//! access completes after the hit latency of the closest level holding the
//! line (the paper's Table I gives core-to-data latencies per level), and a
//! miss fills every level on the way in (inclusive hierarchy). Outstanding
//! misses occupy MSHRs at the L1D; a full MSHR file is a structural hazard
//! that delays load issue. Demand accesses that find their line already
//! in flight (e.g. behind a prefetch) merge with the existing MSHR.

use crate::config::{CacheConfig, CoreConfig};

/// Hit/miss counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand accesses that hit.
    pub hits: u64,
    /// Demand accesses that missed.
    pub misses: u64,
    /// Lines installed by the prefetcher.
    pub prefetch_fills: u64,
}

/// One cache level: a tag array with per-set LRU.
#[derive(Debug, Clone)]
pub struct CacheLevel {
    cfg: CacheConfig,
    sets: u64,
    /// `sets * ways` tags; `u64::MAX` = invalid.
    tags: Vec<u64>,
    /// Per-slot LRU stamps (bigger = more recent).
    stamps: Vec<u64>,
    stamp: u64,
    /// Aggregate statistics.
    pub stats: CacheStats,
}

const INVALID: u64 = u64::MAX;

impl CacheLevel {
    /// Creates an empty level.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        let slots = (sets * u64::from(cfg.ways)) as usize;
        Self {
            cfg,
            sets,
            tags: vec![INVALID; slots],
            stamps: vec![0; slots],
            stamp: 0,
            stats: CacheStats::default(),
        }
    }

    /// This level's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    fn set_range(&self, line: u64) -> std::ops::Range<usize> {
        let set = (line % self.sets) as usize;
        let ways = self.cfg.ways as usize;
        set * ways..(set + 1) * ways
    }

    /// Probes for `line`; updates LRU on hit. Does not count stats.
    pub fn probe(&mut self, line: u64) -> bool {
        self.probe_slot(line).is_some()
    }

    /// Probes for `line`; on a hit, updates LRU and returns the slot index
    /// so callers with locality (e.g. sequential instruction fetch) can
    /// revalidate the same slot without rescanning the set.
    fn probe_slot(&mut self, line: u64) -> Option<usize> {
        self.stamp += 1;
        let stamp = self.stamp;
        let range = self.set_range(line);
        for i in range {
            if self.tags[i] == line {
                self.stamps[i] = stamp;
                return Some(i);
            }
        }
        None
    }

    /// Re-touches a known slot if it still holds `line`. Identical
    /// observable effect to a hitting [`CacheLevel::probe`] (one stamp tick,
    /// slot refreshed), but O(1).
    fn retouch(&mut self, slot: usize, line: u64) -> bool {
        if self.tags[slot] == line {
            self.stamp += 1;
            self.stamps[slot] = self.stamp;
            true
        } else {
            false
        }
    }

    /// Installs `line`, evicting the LRU way of its set if needed.
    pub fn fill(&mut self, line: u64) {
        self.stamp += 1;
        let stamp = self.stamp;
        let range = self.set_range(line);
        let mut victim = range.start;
        let mut best = u64::MAX;
        for i in range {
            if self.tags[i] == line {
                self.stamps[i] = stamp;
                return;
            }
            if self.tags[i] == INVALID {
                victim = i;
                break;
            }
            if self.stamps[i] < best {
                best = self.stamps[i];
                victim = i;
            }
        }
        self.tags[victim] = line;
        self.stamps[victim] = stamp;
    }
}

/// An outstanding miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Mshr {
    line: u64,
    ready: u64,
}

/// IP-stride prefetcher state for one load PC.
#[derive(Debug, Clone, Copy, Default)]
struct StrideEntry {
    pc: u64,
    last_addr: u64,
    stride: i64,
    confidence: u8,
}

/// The full data/instruction hierarchy.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    /// L1 instruction cache.
    pub l1i: CacheLevel,
    /// L1 data cache.
    pub l1d: CacheLevel,
    /// Private L2.
    pub l2: CacheLevel,
    /// L3 share.
    pub l3: CacheLevel,
    memory_latency: u32,
    line_bytes: u64,
    mshrs: Vec<Mshr>,
    /// Earliest `ready` among outstanding MSHRs (`u64::MAX` when empty);
    /// lets [`Hierarchy::retire_mshrs`] skip the scan while nothing can
    /// possibly retire.
    mshr_min_ready: u64,
    /// Last instruction line resolved by [`Hierarchy::access_inst`] and the
    /// L1I slot it hit, for the sequential-fetch fast path.
    last_inst: (u64, usize),
    mshr_capacity: usize,
    prefetch_degree: u32,
    stride_table: Vec<StrideEntry>,
    /// Prefetches issued.
    pub prefetches_issued: u64,
}

impl Hierarchy {
    /// Builds the hierarchy from a core configuration.
    pub fn new(cfg: &CoreConfig) -> Self {
        Self {
            l1i: CacheLevel::new(cfg.l1i),
            l1d: CacheLevel::new(cfg.l1d),
            l2: CacheLevel::new(cfg.l2),
            l3: CacheLevel::new(cfg.l3),
            memory_latency: cfg.memory_latency,
            line_bytes: u64::from(cfg.l1d.line_bytes),
            mshrs: Vec::new(),
            mshr_min_ready: u64::MAX,
            last_inst: (INVALID, 0),
            mshr_capacity: cfg.l1d.mshrs as usize,
            prefetch_degree: cfg.prefetch_degree,
            stride_table: vec![StrideEntry::default(); 256],
            prefetches_issued: 0,
        }
    }

    #[inline]
    fn line_of(&self, addr: u64) -> u64 {
        addr / self.line_bytes
    }

    fn retire_mshrs(&mut self, now: u64) {
        if now < self.mshr_min_ready {
            return;
        }
        self.mshrs.retain(|m| m.ready > now);
        self.mshr_min_ready = self.mshrs.iter().map(|m| m.ready).min().unwrap_or(u64::MAX);
    }

    /// The latency of a data access that misses the L1, walking L2 → L3 →
    /// memory and filling inclusive copies.
    fn miss_path_latency(&mut self, line: u64) -> u32 {
        let latency = if self.l2.probe(line) {
            self.l2.stats.hits += 1;
            self.l2.cfg.hit_latency
        } else if self.l3.probe(line) {
            self.l2.stats.misses += 1;
            self.l3.stats.hits += 1;
            self.l3.cfg.hit_latency
        } else {
            self.l2.stats.misses += 1;
            self.l3.stats.misses += 1;
            self.l3.fill(line);
            self.memory_latency
        };
        self.l2.fill(line);
        latency
    }

    /// Architecturally touches the data line containing `addr` without any
    /// timing machinery: a hit promotes recency, a miss walks the miss path
    /// and fills, but no MSHR is allocated. This is the functional warm-up
    /// path of sampled simulation (DESIGN.md §13) — it reproduces the cache
    /// *contents* a full run would have left, at a fraction of
    /// detailed-simulation cost.
    pub fn warm_data(&mut self, addr: u64) {
        let line = self.line_of(addr);
        if self.l1d.probe(line) {
            self.l1d.stats.hits += 1;
        } else {
            self.l1d.stats.misses += 1;
            let _ = self.miss_path_latency(line);
            self.l1d.fill(line);
        }
    }

    /// Architecturally touches the instruction line containing `pc`
    /// (functional-warm-up counterpart of [`Self::access_inst`], including
    /// its sequential-fetch fast path).
    pub fn warm_inst(&mut self, pc: u64) {
        let line = self.line_of(pc);
        if line == self.last_inst.0 && self.l1i.retouch(self.last_inst.1, line) {
            self.l1i.stats.hits += 1;
            return;
        }
        if let Some(slot) = self.l1i.probe_slot(line) {
            self.last_inst = (line, slot);
            self.l1i.stats.hits += 1;
        } else {
            self.l1i.stats.misses += 1;
            let _ = self.miss_path_latency(line);
            self.l1i.fill(line);
        }
    }

    /// Functional-warm-up counterpart of the prefetcher: trains the stride
    /// table exactly like a demand load does and installs confident
    /// prefetch targets directly (no MSHRs, no timing), so a sampled
    /// window starts with both the stride table and the prefetched lines
    /// a full run would have resident.
    pub fn warm_prefetch(&mut self, pc: u64, addr: u64) {
        if self.prefetch_degree == 0 {
            return;
        }
        if let Some(stride) = self.train_stride(pc, addr) {
            for k in 1..=i64::from(self.prefetch_degree) {
                let line = self.line_of(addr.wrapping_add_signed(stride * k));
                if !self.l1d.probe(line) {
                    let _ = self.miss_path_latency(line);
                    self.l1d.fill(line);
                    self.l1d.stats.prefetch_fills += 1;
                    self.prefetches_issued += 1;
                }
            }
        }
    }

    /// A demand data access (load or store-drain). Returns the completion
    /// cycle, or `None` when no L1D MSHR is available (structural stall —
    /// retry next cycle).
    pub fn access_data(&mut self, pc: u64, addr: u64, now: u64, is_store: bool) -> Option<u64> {
        self.retire_mshrs(now);
        let line = self.line_of(addr);
        let completion = if self.l1d.probe(line) {
            self.l1d.stats.hits += 1;
            // A line still being filled (demand miss or prefetch in flight)
            // is usable only once the fill lands.
            let fill_ready = self
                .mshrs
                .iter()
                .find(|m| m.line == line)
                .map_or(0, |m| m.ready);
            fill_ready.max(now + u64::from(self.l1d.cfg.hit_latency))
        } else if let Some(m) = self.mshrs.iter().find(|m| m.line == line) {
            // Merge with the in-flight fill (e.g. a prefetch).
            self.l1d.stats.hits += 1;
            m.ready.max(now + u64::from(self.l1d.cfg.hit_latency))
        } else {
            self.l1d.stats.misses += 1;
            if !is_store && self.mshrs.len() >= self.mshr_capacity {
                return None;
            }
            let lat = self.miss_path_latency(line);
            let ready = now + u64::from(lat);
            self.l1d.fill(line);
            if !is_store {
                self.mshrs.push(Mshr { line, ready });
                self.mshr_min_ready = self.mshr_min_ready.min(ready);
            }
            ready
        };
        if !is_store && self.prefetch_degree > 0 {
            self.train_prefetcher(pc, addr, now);
        }
        Some(completion)
    }

    /// An instruction fetch for the line containing `pc`. Returns the cycle
    /// the line is available (L1I hits return `now`: fetch latency is part
    /// of the pipeline depth, only *misses* stall the frontend).
    pub fn access_inst(&mut self, pc: u64, now: u64) -> u64 {
        let line = self.line_of(pc);
        // Sequential fetch fast path: consecutive micro-ops usually fetch
        // from the line just resolved, so revalidate that slot instead of
        // rescanning the set (identical stamp/stat effects to a hit probe).
        if line == self.last_inst.0 && self.l1i.retouch(self.last_inst.1, line) {
            self.l1i.stats.hits += 1;
            return now;
        }
        if let Some(slot) = self.l1i.probe_slot(line) {
            self.last_inst = (line, slot);
            self.l1i.stats.hits += 1;
            now
        } else {
            self.l1i.stats.misses += 1;
            let lat = self.miss_path_latency(line);
            self.l1i.fill(line);
            now + u64::from(lat)
        }
    }

    /// Updates the stride entry for `pc`/`addr`; returns the confirmed
    /// stride when confidence is high enough to prefetch.
    fn train_stride(&mut self, pc: u64, addr: u64) -> Option<i64> {
        let slot = (pc >> 2) as usize % self.stride_table.len();
        let e = &mut self.stride_table[slot];
        if e.pc != pc {
            *e = StrideEntry {
                pc,
                last_addr: addr,
                stride: 0,
                confidence: 0,
            };
            return None;
        }
        let stride = addr as i64 - e.last_addr as i64;
        if stride != 0 && stride == e.stride {
            e.confidence = (e.confidence + 1).min(3);
        } else {
            e.stride = stride;
            e.confidence = 0;
        }
        e.last_addr = addr;
        (e.confidence >= 2).then_some(e.stride)
    }

    fn train_prefetcher(&mut self, pc: u64, addr: u64, now: u64) {
        if let Some(stride) = self.train_stride(pc, addr) {
            for k in 1..=i64::from(self.prefetch_degree) {
                let target = addr.wrapping_add_signed(stride * k);
                self.prefetch_line(self.line_of(target), now);
            }
        }
    }

    fn prefetch_line(&mut self, line: u64, now: u64) {
        if self.l1d.probe(line) || self.mshrs.iter().any(|m| m.line == line) {
            return;
        }
        if self.mshrs.len() >= self.mshr_capacity {
            return; // prefetches never block demand traffic
        }
        let lat = self.miss_path_latency(line);
        self.l1d.fill(line);
        self.l1d.stats.prefetch_fills += 1;
        self.prefetches_issued += 1;
        let ready = now + u64::from(lat);
        self.mshrs.push(Mshr { line, ready });
        self.mshr_min_ready = self.mshr_min_ready.min(ready);
    }

    /// Number of occupied L1D MSHRs (after retiring completed ones).
    pub fn mshrs_in_use(&mut self, now: u64) -> usize {
        self.retire_mshrs(now);
        self.mshrs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy() -> Hierarchy {
        Hierarchy::new(&CoreConfig::golden_cove())
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut h = hierarchy();
        let t1 = h.access_data(0x100, 0x8000, 0, false).unwrap();
        assert_eq!(t1, 100, "cold access goes to memory");
        assert_eq!(h.l1d.stats.misses, 1);
        let t2 = h.access_data(0x100, 0x8000, 200, false).unwrap();
        assert_eq!(t2, 205, "L1 hit latency is 5");
        assert_eq!(h.l1d.stats.hits, 1);
    }

    #[test]
    fn same_line_merges_mshr() {
        let mut h = hierarchy();
        let t1 = h.access_data(0x100, 0x8000, 0, false).unwrap();
        // Second access to the same line while the fill is outstanding.
        let t2 = h.access_data(0x104, 0x8010, 3, false).unwrap();
        assert_eq!(t2, t1, "merged access completes with the fill");
    }

    #[test]
    fn l2_hit_latency_after_l1_eviction() {
        let mut h = hierarchy();
        // Fill the L1 set containing line 0 beyond capacity (12 ways,
        // 64 sets: lines k*64 all map to set 0).
        for k in 0..13u64 {
            let addr = k * 64 * 64;
            h.access_data(0x100 + k, addr, 1000 * (k + 1), false).unwrap();
        }
        // Line 0 was evicted from L1 but lives in L2.
        let t = h.access_data(0x100, 0, 100_000, false).unwrap();
        assert_eq!(t, 100_000 + 14, "L2 hit latency is 14");
    }

    #[test]
    fn mshr_exhaustion_stalls_loads_not_stores() {
        let mut cfg = CoreConfig::golden_cove();
        cfg.l1d.mshrs = 2;
        cfg.prefetch_degree = 0;
        let mut h = Hierarchy::new(&cfg);
        assert!(h.access_data(1, 0x10000, 0, false).is_some());
        assert!(h.access_data(2, 0x20000, 0, false).is_some());
        assert!(h.access_data(3, 0x30000, 0, false).is_none(), "MSHRs full");
        assert!(h.access_data(4, 0x40000, 0, true).is_some(), "stores do not stall");
        // After the fills complete, MSHRs free up.
        assert!(h.access_data(3, 0x30000, 200, false).is_some());
    }

    #[test]
    fn stride_prefetcher_hides_latency() {
        let mut cfg = CoreConfig::golden_cove();
        cfg.prefetch_degree = 3;
        let mut h = Hierarchy::new(&cfg);
        let pc = 0x400;
        let mut now = 0u64;
        let stride = 64u64;
        let mut miss_latencies = Vec::new();
        for i in 0..32u64 {
            let addr = 0x10_0000 + i * stride;
            let done = h.access_data(pc, addr, now, false).unwrap();
            miss_latencies.push(done - now);
            now += 300; // enough for fills to land
        }
        assert!(h.prefetches_issued > 0);
        // Later iterations should be L1 hits thanks to the prefetcher.
        let tail: Vec<_> = miss_latencies[10..].to_vec();
        assert!(
            tail.iter().filter(|&&l| l <= 5).count() > tail.len() / 2,
            "prefetching should convert most steady-state accesses to hits: {tail:?}"
        );
    }

    #[test]
    fn icache_miss_then_hit() {
        let mut h = hierarchy();
        let t = h.access_inst(0x1000, 0);
        assert!(t > 0, "cold I-fetch stalls");
        let t2 = h.access_inst(0x1004, 500);
        assert_eq!(t2, 500, "same line hits");
    }
}

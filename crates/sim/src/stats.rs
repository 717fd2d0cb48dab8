//! Simulation statistics: IPC, prediction/misprediction taxonomy, squash
//! counts and the per-class dependence census used by Fig. 2.

use mascot::prediction::BypassClass;

/// Per-tenant misprediction taxonomy for cross-context pollution analysis
/// (DESIGN.md §12). Attribution is by load PC against
/// [`SimStats::tenant_boundary`]; every counter here mirrors a subset of
/// the corresponding global counter, so the per-tenant pair sums back to
/// the global total (checked by [`SimStats::check_identities`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantCounters {
    /// Committed loads attributed to this tenant.
    pub loads: u64,
    /// This tenant's share of `missed_dependencies`.
    pub missed_dependencies: u64,
    /// This tenant's share of `false_dependencies`.
    pub false_dependencies: u64,
    /// This tenant's share of wrong speculative bypasses — the
    /// squash-causing shape a mistraining attacker aims for. Counts both
    /// pre-commit `BypassFail` squashes (the load then replays and usually
    /// commits demoted, i.e. as a false dependence) and commit-time
    /// `smb_errors`, so the pair sums to `smb_squashes + smb_errors`.
    pub false_bypasses: u64,
}

impl TenantCounters {
    /// False bypasses per committed load of this tenant.
    pub fn false_bypass_rate(&self) -> f64 {
        mascot_stats::pollution::rate(self.false_bypasses, self.loads)
    }

    /// False dependencies per committed load of this tenant.
    pub fn false_dependency_rate(&self) -> f64 {
        mascot_stats::pollution::rate(self.false_dependencies, self.loads)
    }

    /// Missed dependencies per committed load of this tenant.
    pub fn missed_dependency_rate(&self) -> f64 {
        mascot_stats::pollution::rate(self.missed_dependencies, self.loads)
    }

    /// All mispredictions tracked per tenant, per committed load — the
    /// quantity whose attacker-induced *increase* is the attack success
    /// rate (`mascot_stats::pollution::induced`).
    pub fn misprediction_rate(&self) -> f64 {
        mascot_stats::pollution::rate(
            self.false_bypasses + self.false_dependencies + self.missed_dependencies,
            self.loads,
        )
    }
}

/// Counters produced by one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Committed micro-ops.
    pub committed_uops: u64,
    /// Committed loads.
    pub committed_loads: u64,
    /// Committed stores.
    pub committed_stores: u64,
    /// Committed branches.
    pub committed_branches: u64,

    /// Loads predicted independent (Fig. 10 left).
    pub pred_no_dep: u64,
    /// Loads predicted dependent without bypassing (MDP).
    pub pred_mdp: u64,
    /// Loads predicted dependent with bypassing (SMB).
    pub pred_smb: u64,

    /// Committed loads predicted independent that had an in-flight
    /// dependence (speculative errors; cause squashes).
    pub missed_dependencies: u64,
    /// Committed loads predicted dependent that had no in-flight dependence
    /// (false dependencies; MDP-only cost is a needless stall).
    pub false_dependencies: u64,
    /// Committed loads predicted dependent on the wrong store.
    pub wrong_store: u64,
    /// Committed loads whose bypass prediction was wrong in any way
    /// (always squashes).
    pub smb_errors: u64,
    /// Correct dependence predictions.
    pub correct_mdp: u64,
    /// Correct bypass predictions.
    pub correct_smb: u64,
    /// Correct independence predictions.
    pub correct_no_dep: u64,

    /// Pipeline squashes from memory-order violations.
    pub mem_order_squashes: u64,
    /// Pipeline squashes from failed speculative bypasses.
    pub smb_squashes: u64,
    /// Conditional-branch mispredictions (frontend stalls).
    pub branch_mispredicts: u64,
    /// Indirect-target mispredictions.
    pub indirect_mispredicts: u64,

    /// Loads that obtained their value through speculative bypassing.
    pub loads_bypassed: u64,
    /// Loads that forwarded from an in-flight store (STLF).
    pub loads_forwarded: u64,
    /// Loads serviced by the cache hierarchy.
    pub loads_from_cache: u64,

    /// Ground-truth dependence census at commit (Fig. 2): in-flight
    /// dependencies by class.
    pub class_direct_bypass: u64,
    /// In-flight `NoOffset` dependencies.
    pub class_no_offset: u64,
    /// In-flight `Offset` dependencies.
    pub class_offset: u64,
    /// In-flight partial (`MdpOnly`) dependencies.
    pub class_mdp_only: u64,

    /// Σ cycles spent between dispatch and issue by committed uops that
    /// consume at least one load result (§VI-A's issue-wait analysis).
    pub dependent_wait_cycles: u64,
    /// Count of such uops.
    pub dependent_wait_count: u64,

    /// Cycles the frontend dispatched nothing because fetch was redirected
    /// or stalled (branch mispredicts, squash refills, I-cache misses).
    pub stall_frontend: u64,
    /// Cycles dispatch was blocked by a full ROB.
    pub stall_rob: u64,
    /// Cycles dispatch was blocked by a full issue queue.
    pub stall_iq: u64,
    /// Cycles dispatch was blocked by a full load queue.
    pub stall_lq: u64,
    /// Cycles dispatch was blocked by a full store buffer.
    pub stall_sb: u64,

    /// L1 instruction-cache demand misses.
    pub l1i_misses: u64,
    /// L1 data-cache demand misses.
    pub l1d_misses: u64,
    /// L2 demand misses.
    pub l2_misses: u64,
    /// L3 demand misses (DRAM accesses).
    pub l3_misses: u64,

    /// PC boundary for per-tenant attribution
    /// (`Simulator::with_tenant_split`): loads below it are the victim's,
    /// at or above it the attacker's. `0` disables attribution and both
    /// [`TenantCounters`] stay zero.
    pub tenant_boundary: u64,
    /// Victim-tenant share of the misprediction taxonomy.
    pub victim: TenantCounters,
    /// Attacker-tenant share of the misprediction taxonomy.
    pub attacker: TenantCounters,
}

/// Applies `f` pairwise to every counter field of two stat blocks and
/// builds the combined [`SimStats`] as an exhaustive struct literal — all
/// of `delta_since`, `scaled` and `accumulate` route through here, so
/// adding a counter to [`SimStats`] without deciding how it combines is a
/// compile error, not a silently-wrong projection.
macro_rules! map_counters {
    ($a:expr, $b:expr, $f:expr) => {{
        let (a, b) = ($a, $b);
        let f = $f;
        let tenant = |x: &TenantCounters, y: &TenantCounters| TenantCounters {
            loads: f(x.loads, y.loads),
            missed_dependencies: f(x.missed_dependencies, y.missed_dependencies),
            false_dependencies: f(x.false_dependencies, y.false_dependencies),
            false_bypasses: f(x.false_bypasses, y.false_bypasses),
        };
        SimStats {
            cycles: f(a.cycles, b.cycles),
            committed_uops: f(a.committed_uops, b.committed_uops),
            committed_loads: f(a.committed_loads, b.committed_loads),
            committed_stores: f(a.committed_stores, b.committed_stores),
            committed_branches: f(a.committed_branches, b.committed_branches),
            pred_no_dep: f(a.pred_no_dep, b.pred_no_dep),
            pred_mdp: f(a.pred_mdp, b.pred_mdp),
            pred_smb: f(a.pred_smb, b.pred_smb),
            missed_dependencies: f(a.missed_dependencies, b.missed_dependencies),
            false_dependencies: f(a.false_dependencies, b.false_dependencies),
            wrong_store: f(a.wrong_store, b.wrong_store),
            smb_errors: f(a.smb_errors, b.smb_errors),
            correct_mdp: f(a.correct_mdp, b.correct_mdp),
            correct_smb: f(a.correct_smb, b.correct_smb),
            correct_no_dep: f(a.correct_no_dep, b.correct_no_dep),
            mem_order_squashes: f(a.mem_order_squashes, b.mem_order_squashes),
            smb_squashes: f(a.smb_squashes, b.smb_squashes),
            branch_mispredicts: f(a.branch_mispredicts, b.branch_mispredicts),
            indirect_mispredicts: f(a.indirect_mispredicts, b.indirect_mispredicts),
            loads_bypassed: f(a.loads_bypassed, b.loads_bypassed),
            loads_forwarded: f(a.loads_forwarded, b.loads_forwarded),
            loads_from_cache: f(a.loads_from_cache, b.loads_from_cache),
            class_direct_bypass: f(a.class_direct_bypass, b.class_direct_bypass),
            class_no_offset: f(a.class_no_offset, b.class_no_offset),
            class_offset: f(a.class_offset, b.class_offset),
            class_mdp_only: f(a.class_mdp_only, b.class_mdp_only),
            dependent_wait_cycles: f(a.dependent_wait_cycles, b.dependent_wait_cycles),
            dependent_wait_count: f(a.dependent_wait_count, b.dependent_wait_count),
            stall_frontend: f(a.stall_frontend, b.stall_frontend),
            stall_rob: f(a.stall_rob, b.stall_rob),
            stall_iq: f(a.stall_iq, b.stall_iq),
            stall_lq: f(a.stall_lq, b.stall_lq),
            stall_sb: f(a.stall_sb, b.stall_sb),
            l1i_misses: f(a.l1i_misses, b.l1i_misses),
            l1d_misses: f(a.l1d_misses, b.l1d_misses),
            l2_misses: f(a.l2_misses, b.l2_misses),
            l3_misses: f(a.l3_misses, b.l3_misses),
            tenant_boundary: a.tenant_boundary.max(b.tenant_boundary),
            victim: tenant(&a.victim, &b.victim),
            attacker: tenant(&a.attacker, &b.attacker),
        }
    }};
}

impl SimStats {
    /// Instructions (micro-ops) per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed_uops as f64 / self.cycles as f64
        }
    }

    /// Total memory-dependence mispredictions (Fig. 8's bar height):
    /// missed + false + wrong-store + SMB errors.
    pub fn total_mispredictions(&self) -> u64 {
        self.missed_dependencies + self.false_dependencies + self.wrong_store + self.smb_errors
    }

    /// Mispredictions that require a squash ("speculative errors" in
    /// Fig. 8): missed dependencies, wrong-store conflicts and SMB errors.
    pub fn speculative_errors(&self) -> u64 {
        self.missed_dependencies + self.wrong_store + self.smb_errors
    }

    /// Memory-dependence mispredictions per kilo-instruction.
    pub fn mdp_mpki(&self) -> f64 {
        mascot_stats::summary::mpki(self.total_mispredictions(), self.committed_uops)
    }

    /// Average dispatch→issue wait of load-consuming uops (§VI-A).
    pub fn avg_dependent_wait(&self) -> f64 {
        if self.dependent_wait_count == 0 {
            0.0
        } else {
            self.dependent_wait_cycles as f64 / self.dependent_wait_count as f64
        }
    }

    /// Fraction of committed loads with an in-flight dependence of `class`.
    pub fn class_fraction(&self, class: BypassClass) -> f64 {
        if self.committed_loads == 0 {
            return 0.0;
        }
        let n = match class {
            BypassClass::DirectBypass => self.class_direct_bypass,
            BypassClass::NoOffset => self.class_no_offset,
            BypassClass::Offset => self.class_offset,
            BypassClass::MdpOnly => self.class_mdp_only,
        };
        n as f64 / self.committed_loads as f64
    }

    /// The tenant counters `pc` falls on, or `None` when tenant
    /// attribution is disabled (`tenant_boundary == 0`).
    pub fn tenant_mut(&mut self, pc: u64) -> Option<&mut TenantCounters> {
        if self.tenant_boundary == 0 {
            None
        } else if pc >= self.tenant_boundary {
            Some(&mut self.attacker)
        } else {
            Some(&mut self.victim)
        }
    }

    /// Cycles with zero dispatch, attributed to the first blocking reason.
    pub fn total_dispatch_stalls(&self) -> u64 {
        self.stall_frontend + self.stall_rob + self.stall_iq + self.stall_lq + self.stall_sb
    }

    /// Verifies the accounting identities that relate these counters to one
    /// another, returning a description of the first violated identity.
    ///
    /// Every committed load is counted exactly once by the prediction
    /// census, the served-path census and the misprediction taxonomy, so
    /// their sums must all equal `committed_loads`; the in-flight class
    /// census and the stall taxonomy are bounded sums. The identities hold
    /// mid-run too (the cycle auditor checks them every cycle);
    /// cycle-relative bounds are skipped while `cycles` is still zero.
    pub fn check_identities(&self) -> Result<(), String> {
        let check = |name: &str, lhs: u64, rhs: u64| {
            if lhs == rhs {
                Ok(())
            } else {
                Err(format!("{name}: {lhs} != {rhs}"))
            }
        };
        check(
            "prediction census covers committed loads \
             (pred_no_dep + pred_mdp + pred_smb == committed_loads)",
            self.pred_no_dep + self.pred_mdp + self.pred_smb,
            self.committed_loads,
        )?;
        check(
            "served-path census covers committed loads \
             (cache + forwarded + bypassed == committed_loads)",
            self.loads_from_cache + self.loads_forwarded + self.loads_bypassed,
            self.committed_loads,
        )?;
        check(
            "no-dependence taxonomy (correct_no_dep + missed == pred_no_dep)",
            self.correct_no_dep + self.missed_dependencies,
            self.pred_no_dep,
        )?;
        check(
            "dependence taxonomy (correct_mdp + wrong_store + false_deps \
             + correct_smb + smb_errors == pred_mdp + pred_smb)",
            self.correct_mdp
                + self.wrong_store
                + self.false_dependencies
                + self.correct_smb
                + self.smb_errors,
            self.pred_mdp + self.pred_smb,
        )?;
        if self.tenant_boundary != 0 {
            check(
                "tenant loads cover committed loads \
                 (victim.loads + attacker.loads == committed_loads)",
                self.victim.loads + self.attacker.loads,
                self.committed_loads,
            )?;
            check(
                "tenant missed-dependency split sums to the total",
                self.victim.missed_dependencies + self.attacker.missed_dependencies,
                self.missed_dependencies,
            )?;
            check(
                "tenant false-dependency split sums to the total",
                self.victim.false_dependencies + self.attacker.false_dependencies,
                self.false_dependencies,
            )?;
            check(
                "tenant false-bypass split sums to smb_squashes + smb_errors",
                self.victim.false_bypasses + self.attacker.false_bypasses,
                self.smb_squashes + self.smb_errors,
            )?;
        } else if self.victim != TenantCounters::default()
            || self.attacker != TenantCounters::default()
        {
            return Err(format!(
                "tenant counters nonzero without a tenant boundary: \
                 victim {:?}, attacker {:?}",
                self.victim, self.attacker
            ));
        }
        let class_census = self.class_direct_bypass
            + self.class_no_offset
            + self.class_offset
            + self.class_mdp_only;
        if class_census > self.committed_loads {
            return Err(format!(
                "class census exceeds committed loads: {class_census} > {}",
                self.committed_loads
            ));
        }
        if self.committed_loads + self.committed_stores + self.committed_branches
            > self.committed_uops
        {
            return Err(format!(
                "per-kind commits exceed total: {} loads + {} stores + {} branches > {} uops",
                self.committed_loads,
                self.committed_stores,
                self.committed_branches,
                self.committed_uops
            ));
        }
        if self.dependent_wait_count > self.committed_uops {
            return Err(format!(
                "dependent-wait count exceeds commits: {} > {}",
                self.dependent_wait_count, self.committed_uops
            ));
        }
        if self.cycles > 0 {
            if self.total_dispatch_stalls() > self.cycles {
                return Err(format!(
                    "dispatch stalls exceed cycles: {} > {}",
                    self.total_dispatch_stalls(),
                    self.cycles
                ));
            }
            if self.stall_frontend > self.cycles {
                return Err(format!(
                    "frontend stalls exceed cycles: {} > {}",
                    self.stall_frontend, self.cycles
                ));
            }
        }
        Ok(())
    }

    /// Counter-wise difference `self - start`, for measuring a window of a
    /// longer run: snapshot the stats at the window's start, run on, and
    /// diff. Every counter must be monotonic between the two snapshots
    /// (they all are — the engine only ever increments them).
    ///
    /// `tenant_boundary` is configuration, not a counter; the larger of the
    /// two is kept (they are equal in practice — a window cannot change the
    /// boundary mid-run).
    ///
    /// # Panics
    ///
    /// Panics if any counter of `start` exceeds its counterpart in `self`
    /// (the snapshots are not from the same monotonic run).
    pub fn delta_since(&self, start: &SimStats) -> SimStats {
        map_counters!(self, start, |a: u64, b: u64| {
            a.checked_sub(b)
                .expect("stats snapshots must come from one monotonic run")
        })
    }

    /// Counter-wise scaling by the exact rational `represented / measured`,
    /// rounded to the nearest integer: the cluster-weighted projection step
    /// of sampled simulation (DESIGN.md §13). A representative window of
    /// `measured` committed uops stands in for `represented` uops of the
    /// full trace. When `represented == measured` the result is bit-exact
    /// (`scale == 1.0` and every counter round-trips through `f64`
    /// unchanged — counters are far below 2^53).
    ///
    /// # Panics
    ///
    /// Panics if `measured` is zero.
    pub fn scaled(&self, represented: u64, measured: u64) -> SimStats {
        assert!(measured > 0, "cannot scale a zero-uop measurement");
        let scale = represented as f64 / measured as f64;
        map_counters!(self, self, |a: u64, _| (a as f64 * scale).round() as u64)
    }

    /// Counter-wise accumulation of `other` into `self` (the Σ of the
    /// cluster-weighted projection, and of per-interval deltas back into a
    /// full-run total).
    pub fn accumulate(&mut self, other: &SimStats) {
        *self = map_counters!(&*self, other, |a: u64, b: u64| a + b);
    }

    /// Fraction of committed loads with any in-flight dependence (Fig. 2's
    /// bar height).
    pub fn dependent_load_fraction(&self) -> f64 {
        if self.committed_loads == 0 {
            return 0.0;
        }
        (self.class_direct_bypass + self.class_no_offset + self.class_offset + self.class_mdp_only)
            as f64
            / self.committed_loads as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_handles_zero_cycles() {
        assert_eq!(SimStats::default().ipc(), 0.0);
    }

    #[test]
    fn taxonomy_sums() {
        let s = SimStats {
            missed_dependencies: 3,
            false_dependencies: 5,
            wrong_store: 2,
            smb_errors: 1,
            committed_uops: 1000,
            ..Default::default()
        };
        assert_eq!(s.total_mispredictions(), 11);
        assert_eq!(s.speculative_errors(), 6);
        assert!((s.mdp_mpki() - 11.0).abs() < 1e-12);
    }

    #[test]
    fn identities_accept_consistent_counters() {
        let s = SimStats {
            cycles: 100,
            committed_uops: 30,
            committed_loads: 10,
            pred_no_dep: 6,
            pred_mdp: 3,
            pred_smb: 1,
            correct_no_dep: 5,
            missed_dependencies: 1,
            correct_mdp: 2,
            wrong_store: 1,
            correct_smb: 1,
            loads_from_cache: 7,
            loads_forwarded: 2,
            loads_bypassed: 1,
            class_direct_bypass: 3,
            ..Default::default()
        };
        assert_eq!(s.check_identities(), Ok(()));
        // The zeroed struct is trivially consistent too.
        assert_eq!(SimStats::default().check_identities(), Ok(()));
    }

    #[test]
    fn identities_reject_served_census_undercount() {
        let s = SimStats {
            committed_loads: 10,
            pred_no_dep: 10,
            correct_no_dep: 10,
            loads_from_cache: 9, // one load unaccounted
            ..Default::default()
        };
        let err = s.check_identities().unwrap_err();
        assert!(err.contains("served-path census"), "{err}");
    }

    #[test]
    fn identities_reject_stall_overcount() {
        let s = SimStats {
            cycles: 10,
            stall_rob: 11,
            ..Default::default()
        };
        let err = s.check_identities().unwrap_err();
        assert!(err.contains("dispatch stalls"), "{err}");
    }

    #[test]
    fn delta_and_accumulate_are_inverse() {
        let start = SimStats {
            cycles: 100,
            committed_uops: 30,
            committed_loads: 10,
            stall_rob: 7,
            l2_misses: 3,
            tenant_boundary: 1 << 34,
            victim: TenantCounters {
                loads: 6,
                false_bypasses: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let end = SimStats {
            cycles: 250,
            committed_uops: 90,
            committed_loads: 31,
            stall_rob: 11,
            l2_misses: 8,
            tenant_boundary: 1 << 34,
            victim: TenantCounters {
                loads: 20,
                false_bypasses: 4,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut window = end.delta_since(&start);
        assert_eq!(window.cycles, 150);
        assert_eq!(window.victim.loads, 14);
        assert_eq!(window.tenant_boundary, 1 << 34);
        window.accumulate(&start);
        assert_eq!(window, end);
    }

    #[test]
    #[should_panic(expected = "monotonic")]
    fn delta_rejects_non_monotonic_snapshots() {
        let big = SimStats {
            cycles: 10,
            ..Default::default()
        };
        let _ = SimStats::default().delta_since(&big);
    }

    #[test]
    fn scaling_by_one_is_exact_and_by_weight_rounds() {
        let s = SimStats {
            cycles: 12_345,
            committed_uops: 10_000,
            committed_loads: 2_001,
            smb_squashes: 3,
            ..Default::default()
        };
        assert_eq!(s.scaled(10_000, 10_000), s);
        let tripled = s.scaled(30_000, 10_000);
        assert_eq!(tripled.cycles, 37_035);
        assert_eq!(tripled.committed_loads, 6_003);
        // Non-integral scale rounds to nearest.
        let s = SimStats {
            smb_squashes: 3,
            ..Default::default()
        };
        assert_eq!(s.scaled(1, 2).smb_squashes, 2); // 1.5 rounds up
    }

    #[test]
    fn class_fractions() {
        let s = SimStats {
            committed_loads: 100,
            class_direct_bypass: 30,
            class_no_offset: 10,
            class_offset: 5,
            class_mdp_only: 5,
            ..Default::default()
        };
        assert!((s.class_fraction(BypassClass::DirectBypass) - 0.3).abs() < 1e-12);
        assert!((s.dependent_load_fraction() - 0.5).abs() < 1e-12);
    }
}

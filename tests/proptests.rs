//! Randomised property tests over the full stack: arbitrary (but
//! well-formed) traces and outcome streams must never break the simulator
//! or the predictors, and core invariants must hold for all inputs.
//!
//! These were originally written against the `proptest` crate; the build
//! environment is offline, so they now drive the same properties from a
//! seeded deterministic RNG (fixed case counts, reproducible failures — the
//! failing seed is part of the assertion message).

use mascot::{
    BypassClass, LoadOutcome, Mascot, MascotConfig, MemDepPredictor, MemDepPrediction,
    ObservedDependence, StoreDistance,
};
use mascot_predictors::{NoSq, Phast, StoreSets};
use mascot_sim::{simulate, CoreConfig, Trace};
use mascot_workloads::{generate, WorkloadProfile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Uniform integer in `[0, bound)` from the test RNG.
fn below(rng: &mut StdRng, bound: u64) -> u64 {
    (rng.random::<f64>() * bound as f64) as u64 % bound
}

/// A random well-formed micro-op stream: stores and loads over a small slot
/// space (creating genuine aliasing), branches, and ALU ops.
fn arb_trace(rng: &mut StdRng, max_len: usize) -> Trace {
    let len = 1 + below(rng, max_len as u64 - 1) as usize;
    let mut b = mascot_workloads::TraceBuilder::new();
    for i in 0..len {
        let kind = below(rng, 4) as u8;
        let slot = below(rng, 12);
        let reg = below(rng, 16) as u8;
        let taken = rng.random::<bool>();
        let pc = 0x1000 + (i as u64 % 97) * 4;
        let addr = 0x10_0000 + slot * 8;
        match kind {
            0 => b.alu(
                pc,
                [Some(reg), None],
                Some(reg.wrapping_add(1) % 16),
                1 + (slot as u8 % 3),
            ),
            1 => b.store(pc, addr, 8, reg),
            2 => b.load(pc, addr, 8, reg, None),
            _ => b.branch(pc, taken, None),
        }
    }
    b.build("prop")
}

/// Any well-formed trace commits fully under any predictor, and the
/// census counters stay consistent.
#[test]
fn simulator_commits_every_wellformed_trace() {
    for case in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0xA11CE + case);
        let trace = arb_trace(&mut rng, 400);
        trace
            .validate()
            .expect("builder produces consistent ground truth");
        let core = CoreConfig::golden_cove();
        let mut p = Mascot::new(MascotConfig::default()).unwrap();
        let stats = simulate(&trace, &core, &mut p);
        assert_eq!(stats.committed_uops, trace.len() as u64, "case {case}");
        assert_eq!(stats.committed_loads, trace.num_loads() as u64, "case {case}");
        assert_eq!(stats.committed_stores, trace.num_stores() as u64, "case {case}");
        assert_eq!(
            stats.committed_branches,
            trace.num_branches() as u64,
            "case {case}"
        );
        // Every committed load is classified exactly once.
        let classified = stats.correct_no_dep
            + stats.correct_mdp
            + stats.correct_smb
            + stats.missed_dependencies
            + stats.false_dependencies
            + stats.wrong_store
            + stats.smb_errors;
        assert_eq!(classified, stats.committed_loads, "case {case}");
        // Prediction census covers every load too.
        assert_eq!(
            stats.pred_no_dep + stats.pred_mdp + stats.pred_smb,
            stats.committed_loads,
            "case {case}"
        );
        assert_eq!(
            stats.loads_bypassed + stats.loads_forwarded + stats.loads_from_cache,
            stats.committed_loads,
            "case {case}"
        );
    }
}

/// Arbitrary (prediction, outcome) streams never panic any predictor,
/// and storage cost is invariant under training.
#[test]
fn predictors_survive_arbitrary_training() {
    for case in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0xB0B + case);
        let steps = 1 + below(&mut rng, 299) as usize;
        let mut mascot = Mascot::new(MascotConfig::default()).unwrap();
        let mut phast = Phast::default();
        let mut nosq = NoSq::default();
        let mut sets = StoreSets::default();
        let bits = (
            mascot.storage_bits(),
            phast.storage_bits(),
            nosq.storage_bits(),
            sets.storage_bits(),
        );
        for _ in 0..steps {
            let pc = 0x4000 + below(&mut rng, 64) * 4;
            let outcome = if rng.random::<bool>() {
                LoadOutcome::independent()
            } else {
                let class = BypassClass::ALL[below(&mut rng, 4) as usize];
                LoadOutcome::dependent(ObservedDependence {
                    distance: StoreDistance::new(1 + below(&mut rng, 99) as u32).unwrap(),
                    class,
                    store_pc: 0x9000 + below(&mut rng, 32) * 4,
                    branches_between: below(&mut rng, 40) as u32,
                })
            };
            let (p1, m1) = mascot.predict(pc, 1000, None);
            mascot.train(pc, m1, p1, &outcome);
            let (p2, m2) = phast.predict(pc, 1000, None);
            phast.train(pc, m2, p2, &outcome);
            let (p3, m3) = nosq.predict(pc, 1000, None);
            nosq.train(pc, m3, p3, &outcome);
            let (p4, m4) = sets.predict(pc, 1000, None);
            sets.train(pc, m4, p4, &outcome);
        }
        assert_eq!(bits.0, mascot.storage_bits(), "case {case}");
        assert_eq!(bits.1, phast.storage_bits(), "case {case}");
        assert_eq!(bits.2, nosq.storage_bits(), "case {case}");
        assert_eq!(bits.3, sets.storage_bits(), "case {case}");
    }
}

/// MASCOT's prediction is always internally consistent: bypass implies
/// dependence, and non-dependence carries no distance.
#[test]
fn mascot_prediction_invariants() {
    for case in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0xCAFE + case);
        let n = 1 + below(&mut rng, 199) as usize;
        let dep_every = 1 + below(&mut rng, 4);
        let mut p = Mascot::new(MascotConfig::default()).unwrap();
        for i in 0..n {
            let pc = 0x100 + below(&mut rng, 32) * 4;
            let (pred, meta) = p.predict(pc, i as u64, None);
            match pred {
                MemDepPrediction::NoDependence => assert!(pred.distance().is_none()),
                MemDepPrediction::Dependence { .. } => assert!(!pred.is_bypass()),
                MemDepPrediction::Bypass { .. } => assert!(pred.is_dependence()),
            }
            let outcome = if (i as u64).is_multiple_of(dep_every) {
                LoadOutcome::dependent(ObservedDependence {
                    distance: StoreDistance::new(1 + (i as u32 % 7)).unwrap(),
                    class: BypassClass::DirectBypass,
                    store_pc: 0x900,
                    branches_between: 0,
                })
            } else {
                LoadOutcome::independent()
            };
            p.train(pc, meta, pred, &outcome);
        }
    }
}

/// Workload generation is total over the valid profile space and always
/// yields consistent ground truth.
#[test]
fn generator_is_total_over_profiles() {
    for case in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0xD00D + case);
        let profile = WorkloadProfile {
            hammocks: below(&mut rng, 4) as usize,
            spill_fills: below(&mut rng, 4) as usize,
            stream_loads: 1 + below(&mut rng, 5) as usize,
            chase_loads: below(&mut rng, 3) as usize,
            noise_branches: below(&mut rng, 4) as usize,
            code_contexts: 1 + below(&mut rng, 5) as usize,
            store_chase: below(&mut rng, 4) as usize,
            ..WorkloadProfile::base("prop")
        };
        if profile.validate().is_err() {
            continue;
        }
        let trace = generate(&profile, below(&mut rng, 1000), 3_000);
        assert!(trace.len() >= 3_000, "case {case}");
        trace.validate().unwrap_or_else(|e| panic!("case {case}: {e}"));
    }
}

/// The binary trace codec is lossless over arbitrary generated workloads.
#[test]
fn codec_roundtrips_generated_traces() {
    for case in 0..16u64 {
        let mut rng = StdRng::seed_from_u64(0xC0DEC + case);
        let profile = WorkloadProfile {
            hammocks: below(&mut rng, 3) as usize,
            store_chase: below(&mut rng, 3) as usize,
            ..WorkloadProfile::base("codec-prop")
        };
        let trace = generate(&profile, below(&mut rng, 500), 2_000);
        let bytes = mascot_sim::codec::encode(&trace);
        let back = mascot_sim::codec::decode(&bytes)
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(trace.name, back.name, "case {case}");
        assert_eq!(trace.uops, back.uops, "case {case}");
    }
}

/// Single-byte corruption of an encoded trace never panics the decoder:
/// it either errors out or yields a (different but) well-formed trace.
#[test]
fn codec_survives_corruption() {
    let profile = WorkloadProfile::base("codec-corrupt");
    let trace = generate(&profile, 7, 500);
    let clean = mascot_sim::codec::encode(&trace);
    let mut rng = StdRng::seed_from_u64(0xBADC0DE);
    for _ in 0..64 {
        let mut bytes = clean.clone();
        let pos = below(&mut rng, bytes.len() as u64) as usize;
        bytes[pos] = below(&mut rng, 256) as u8;
        let _ = mascot_sim::codec::decode(&bytes); // must not panic
    }
}

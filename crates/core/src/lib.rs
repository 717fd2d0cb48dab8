//! # MASCOT — Memory-dependence And Short-Circuit Optimising TAGE
//!
//! A faithful reproduction of the predictor proposed in *"MASCOT: Predicting
//! Memory Dependencies and Opportunities for Speculative Memory Bypassing"*
//! (HPCA 2025). MASCOT is a TAGE-like predictor that unifies
//! **memory-dependence prediction (MDP)** and **speculative memory bypassing
//! (SMB)** in a single 14 KiB structure by learning *context-dependent
//! non-dependencies* alongside load–store dependencies.
//!
//! ## Quick start
//!
//! ```
//! use mascot::{Mascot, MascotConfig, MemDepPredictor, MemDepPrediction};
//! use mascot::{BypassClass, LoadOutcome, ObservedDependence, StoreDistance};
//!
//! let mut predictor = Mascot::new(MascotConfig::default())?;
//!
//! // A load at PC 0x401000 turns out to depend on the store 2 back.
//! let pc = 0x40_1000;
//! let (prediction, meta) = predictor.predict(pc, 0, None);
//! assert_eq!(prediction, MemDepPrediction::NoDependence); // cold
//!
//! let outcome = LoadOutcome::dependent(ObservedDependence {
//!     distance: StoreDistance::new(2).expect("in range"),
//!     class: BypassClass::DirectBypass,
//!     store_pc: 0x40_0ff0,
//!     branches_between: 1,
//! });
//! predictor.train(pc, meta, prediction, &outcome);
//!
//! // The dependence is learned after a single mispredict.
//! let (next, _) = predictor.predict(pc, 0, None);
//! assert!(next.is_dependence());
//! # Ok::<(), mascot::ConfigError>(())
//! ```
//!
//! ## Crate layout
//!
//! * [`predictor::Mascot`] — the predictor itself, including the §IV-C
//!   try-again allocation policy and §IV-D non-dependence tracking. Two
//!   constructors build the paper's variants of it: the MDP-only mode of
//!   Fig. 9 ([`Mascot::mdp_only`]) and the Fig. 11 ablation without
//!   non-dependence allocation
//!   ([`Mascot::without_non_dependence_allocation`]).
//! * [`config::MascotConfig`] — geometry presets: the default 14 KiB
//!   configuration, MASCOT-OPT and the Fig. 15 tag-reduction sweep.
//! * [`history`] — global branch/path history and TAGE folded registers.
//! * [`table`] — the generic 4-way associative tagged table in
//!   struct-of-arrays layout (shared with the baseline predictors).
//! * [`tuning`] — §IV-F per-slot F1 instrumentation (Figs. 13–14).
//! * [`prediction`] — the [`MemDepPredictor`] trait and shared vocabulary
//!   types used by the simulator and every baseline predictor.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod entry;
pub mod history;
pub mod prediction;
pub mod predictor;
pub mod table;
pub mod tuning;

pub use config::{ConfigError, MascotConfig};
pub use entry::MascotEntry;
pub use history::{
    rewind_hashers, BranchEvent, BranchKind, FoldedHistory, GlobalHistory, TableHasher,
};
pub use prediction::{
    BypassClass, GroundTruth, LoadOutcome, MemDepPrediction, MemDepPredictor,
    ObservedDependence, PredictReq, StoreDistance, TrainReq,
};
pub use predictor::{Mascot, MascotMeta, MascotStats};
pub use tuning::TuningState;

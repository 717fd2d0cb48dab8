//! Runtime predictor selection: [`PredictorKind`] names every predictor
//! configuration evaluated in the paper and builds fresh instances.
//!
//! Lives here (rather than in the benchmark harness) so that every
//! consumer that owns predictors at runtime — the experiment harness, the
//! `mascot-serve` prediction service, ad-hoc tools — shares one registry
//! of buildable configurations and one label/parse vocabulary.

use std::borrow::Cow;
use std::fmt;
use std::str::FromStr;

use mascot::config::MascotConfig;
use mascot::predictor::Mascot;

use crate::any::AnyPredictor;
use crate::mdp_tage::MdpTage;
use crate::nosq::NoSq;
use crate::oracle::{PerfectMdp, PerfectMdpSmb};
use crate::phast::Phast;
use crate::randomized::RandomizedMascot;
use crate::store_sets::StoreSets;

/// Every predictor configuration evaluated across the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredictorKind {
    /// MASCOT, default 14 KiB geometry, MDP + SMB.
    Mascot,
    /// MASCOT used for MDP only (Fig. 9).
    MascotMdp,
    /// MASCOT-OPT (§VI-D) with the tag width reduced by the given number of
    /// bits (0 = plain MASCOT-OPT; 4 = the paper's 10.1 KiB point).
    MascotOpt(u8),
    /// The Fig. 11 ablation: MASCOT without non-dependence allocation.
    TageNoNd,
    /// PHAST (MDP only).
    Phast,
    /// NoSQ-style MDP + SMB.
    NoSq,
    /// Historical MDP-TAGE baseline (§II): 3-bit distance, 1-bit usefulness.
    MdpTage,
    /// Store Sets (MDP only).
    StoreSets,
    /// Perfect MDP oracle (the normalisation baseline).
    PerfectMdp,
    /// Perfect MDP + SMB oracle.
    PerfectMdpSmb,
    /// MASCOT behind keyed index randomization + noisy bypass confidence —
    /// the SPOILER-GUARD-style mistraining defense (DESIGN.md §12). Built
    /// with the deployment-default key; per-boot keys go through
    /// [`RandomizedMascot::with_key`].
    RandomizedMascot,
}

impl PredictorKind {
    /// The fixed (non-parameterised) kinds, in canonical order — used for
    /// `--help` text and exhaustive sweeps.
    pub const ALL: [PredictorKind; 11] = [
        PredictorKind::Mascot,
        PredictorKind::MascotMdp,
        PredictorKind::MascotOpt(0),
        PredictorKind::TageNoNd,
        PredictorKind::Phast,
        PredictorKind::NoSq,
        PredictorKind::MdpTage,
        PredictorKind::StoreSets,
        PredictorKind::PerfectMdp,
        PredictorKind::PerfectMdpSmb,
        PredictorKind::RandomizedMascot,
    ];

    /// Builds a fresh predictor instance.
    ///
    /// # Panics
    ///
    /// Panics if a MASCOT configuration fails validation (indicates a bug in
    /// the preset, not user input).
    pub fn build(self) -> AnyPredictor {
        match self {
            PredictorKind::Mascot => {
                AnyPredictor::Mascot(Mascot::new(MascotConfig::default()).expect("valid preset"))
            }
            PredictorKind::MascotMdp => AnyPredictor::Mascot(
                Mascot::mdp_only(MascotConfig::default()).expect("valid preset"),
            ),
            PredictorKind::MascotOpt(tag_reduction) => {
                let cfg = if tag_reduction == 0 {
                    MascotConfig::opt()
                } else {
                    MascotConfig::opt_with_tag_reduction(tag_reduction)
                };
                AnyPredictor::Mascot(Mascot::new(cfg).expect("valid preset"))
            }
            PredictorKind::TageNoNd => AnyPredictor::Mascot(
                Mascot::without_non_dependence_allocation(MascotConfig::default())
                    .expect("valid preset"),
            ),
            PredictorKind::Phast => AnyPredictor::Phast(Phast::default()),
            PredictorKind::NoSq => AnyPredictor::NoSq(NoSq::default()),
            PredictorKind::MdpTage => AnyPredictor::MdpTage(MdpTage::default()),
            PredictorKind::StoreSets => AnyPredictor::StoreSets(StoreSets::default()),
            PredictorKind::PerfectMdp => AnyPredictor::PerfectMdp(PerfectMdp::new()),
            PredictorKind::PerfectMdpSmb => AnyPredictor::PerfectMdpSmb(PerfectMdpSmb::new()),
            PredictorKind::RandomizedMascot => AnyPredictor::RandomizedMascot(
                RandomizedMascot::new(MascotConfig::default()).expect("valid preset"),
            ),
        }
    }

    /// Display label used in tables. Borrowed for every fixed kind; only
    /// the parameterised `MascotOpt(n > 0)` labels allocate.
    pub fn label(self) -> Cow<'static, str> {
        match self {
            PredictorKind::Mascot => Cow::Borrowed("mascot"),
            PredictorKind::MascotMdp => Cow::Borrowed("mascot-mdp"),
            PredictorKind::MascotOpt(0) => Cow::Borrowed("mascot-opt"),
            PredictorKind::MascotOpt(n) => Cow::Owned(format!("mascot-opt-tag-{n}")),
            PredictorKind::TageNoNd => Cow::Borrowed("tage-no-nd"),
            PredictorKind::Phast => Cow::Borrowed("phast"),
            PredictorKind::NoSq => Cow::Borrowed("nosq"),
            PredictorKind::MdpTage => Cow::Borrowed("mdp-tage"),
            PredictorKind::StoreSets => Cow::Borrowed("store-sets"),
            PredictorKind::PerfectMdp => Cow::Borrowed("perfect-mdp"),
            PredictorKind::PerfectMdpSmb => Cow::Borrowed("perfect-mdp-smb"),
            PredictorKind::RandomizedMascot => Cow::Borrowed("randomized-mascot"),
        }
    }
}

/// Error from parsing a [`PredictorKind`] label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseKindError(String);

impl fmt::Display for ParseKindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown predictor kind {:?} (expected one of: ", self.0)?;
        for (i, k) in PredictorKind::ALL.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            f.write_str(&k.label())?;
        }
        f.write_str(", mascot-opt-tag-<n>)")
    }
}

impl std::error::Error for ParseKindError {}

impl FromStr for PredictorKind {
    type Err = ParseKindError;

    /// Parses the labels produced by [`PredictorKind::label`].
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(n) = s.strip_prefix("mascot-opt-tag-") {
            return n
                .parse::<u8>()
                .ok()
                .filter(|&n| n > 0)
                .map(PredictorKind::MascotOpt)
                .ok_or_else(|| ParseKindError(s.to_string()));
        }
        PredictorKind::ALL
            .into_iter()
            .find(|k| k.label() == s)
            .ok_or_else(|| ParseKindError(s.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_label_parses_back() {
        for kind in PredictorKind::ALL {
            assert_eq!(kind.label().parse::<PredictorKind>().unwrap(), kind);
        }
        assert_eq!(
            "mascot-opt-tag-4".parse::<PredictorKind>().unwrap(),
            PredictorKind::MascotOpt(4)
        );
    }

    #[test]
    fn parse_rejects_unknown_and_degenerate() {
        assert!("nope".parse::<PredictorKind>().is_err());
        // tag reduction of 0 is spelled "mascot-opt", not "...-tag-0"
        assert!("mascot-opt-tag-0".parse::<PredictorKind>().is_err());
        assert!("mascot-opt-tag-x".parse::<PredictorKind>().is_err());
        let err = "nope".parse::<PredictorKind>().unwrap_err();
        assert!(err.to_string().contains("nope"));
        assert!(err.to_string().contains("mascot"));
    }
}

//! Fig. 9: MDP-only comparison — Store Sets, PHAST and MDP-only MASCOT,
//! normalised to perfect MDP.
//!
//! Paper headline: MASCOT-MDP out-performs Store Sets by 6.2 % and PHAST by
//! 0.4 %; on a few benchmarks imperfect predictors beat "perfect" MDP
//! because an occasional missed dependence resolves in time anyway.

use super::normalized_ipc_table;
use crate::{benchmarks, normalized_ipc, Evaluation, PredictorKind};

pub fn run(eval: &Evaluation) {
    let kinds = [
        PredictorKind::PerfectMdp,
        PredictorKind::StoreSets,
        PredictorKind::MdpTage,
        PredictorKind::Phast,
        PredictorKind::MascotMdp,
    ];
    let results = eval.golden_cove_suite(&kinds);
    let (t, gm) = normalized_ipc_table(&results, &["store-sets", "mdp-tage", "phast", "mascot-mdp"]);
    println!("== Fig. 9 — MDP-only IPC normalised to perfect MDP ==");
    println!("{}", t.render());
    println!("mascot-mdp vs store-sets: {:+.2}% (paper: +6.18%)", (gm[3] / gm[0] - 1.0) * 100.0);
    println!("mascot-mdp vs mdp-tage:   {:+.2}% (historical baseline, beyond the paper)", (gm[3] / gm[1] - 1.0) * 100.0);
    println!("mascot-mdp vs phast:      {:+.2}% (paper: +0.36%)", (gm[3] / gm[2] - 1.0) * 100.0);
    let above: Vec<String> = benchmarks(&results)
        .into_iter()
        .filter(|b| normalized_ipc(&results, b, "mascot-mdp", "perfect-mdp").unwrap_or(0.0) > 1.0)
        .collect();
    println!("benchmarks where MDP-only MASCOT beats perfect MDP: {above:?}");
}

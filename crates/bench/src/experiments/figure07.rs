//! Fig. 7: IPC of NoSQ, PHAST and MASCOT (MDP + SMB), normalised to a
//! perfect memory-dependence predictor that does no bypassing.
//!
//! Paper headline: MASCOT out-performs NoSQ by 4.9 %, PHAST by 1.9 % and
//! perfect MDP by 1.0 % on the geometric mean; peak gains on perlbench2.

use super::normalized_ipc_table;
use crate::{benchmarks, geomean_normalized_ipc, Evaluation, PredictorKind};

pub fn run(eval: &Evaluation) {
    let kinds = [
        PredictorKind::PerfectMdp,
        PredictorKind::NoSq,
        PredictorKind::Phast,
        PredictorKind::Mascot,
        PredictorKind::PerfectMdpSmb,
    ];
    let results = eval.golden_cove_suite(&kinds);
    let (t, gm) = normalized_ipc_table(&results, &["nosq", "phast", "mascot"]);
    println!("== Fig. 7 — IPC normalised to perfect MDP (no SMB) ==");
    println!("{}", t.render());
    let benches = benchmarks(&results);
    let ceiling =
        geomean_normalized_ipc(&results, &benches, "perfect-mdp-smb", "perfect-mdp").unwrap();
    println!("mascot vs nosq:  {:+.2}%", (gm[2] / gm[0] - 1.0) * 100.0);
    println!("mascot vs phast: {:+.2}%", (gm[2] / gm[1] - 1.0) * 100.0);
    println!("mascot vs perfect MDP: {:+.2}%", (gm[2] - 1.0) * 100.0);
    println!(
        "perfect MDP+SMB ceiling: {:+.2}% (mascot is {:+.2}% below it)",
        (ceiling - 1.0) * 100.0,
        (gm[2] / ceiling - 1.0) * 100.0
    );
    println!("paper: mascot +4.9% vs NoSQ, +1.9% vs PHAST, +1.0% vs perfect MDP, -1.0% vs perfect MDP+SMB");
}

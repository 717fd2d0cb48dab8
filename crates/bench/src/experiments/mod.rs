//! The paper's evaluation as one registry of experiments, each rendering
//! its table or figure from a shared [`Evaluation`].
//!
//! `all_experiments` runs the whole [`REGISTRY`] in one process, so a
//! cell several figures need (perfect MDP on Golden Cove, say) is
//! simulated once; each per-experiment binary runs its own entry.

use crate::{benchmarks, geomean_normalized_ipc, normalized_ipc, table, Evaluation};
use crate::{RunResult, TextTable};

/// Declares each experiment module and lists it in [`REGISTRY`] under its
/// binary name, so the order is written once.
macro_rules! registry {
    ($($name:ident),* $(,)?) => {
        $(mod $name;)*

        /// Every experiment, by binary name, in the order `all_experiments`
        /// runs them (the order of the paper's evaluation section). Each
        /// prints its table or figure to stdout.
        pub const REGISTRY: &[(&str, fn(&Evaluation))] = &[$((stringify!($name), $name::run)),*];
    };
}

registry!(
    table01,
    table02,
    counter_decay,
    figure02,
    figure07,
    figure08,
    figure09,
    figure10,
    figure11,
    figure12,
    figure13,
    figure14,
    figure15,
    ablations,
    window_sweep,
    bottleneck,
);

/// The table of Figs. 7 and 9: each `shown` predictor's per-benchmark IPC
/// normalised to perfect MDP, then a GEOMEAN row. Returns the table and
/// the geomeans in `shown` order.
fn normalized_ipc_table(results: &[RunResult], shown: &[&str]) -> (TextTable, Vec<f64>) {
    let benches = benchmarks(results);
    let mut t = TextTable::new(std::iter::once("benchmark").chain(shown.iter().copied()));
    for b in &benches {
        let cells = shown
            .iter()
            .map(|p| normalized_ipc(results, b, p, "perfect-mdp").unwrap_or(f64::NAN));
        t.row(std::iter::once(b.clone()).chain(cells.map(table::ratio)));
    }
    let gm: Vec<f64> = shown
        .iter()
        .map(|p| geomean_normalized_ipc(results, &benches, p, "perfect-mdp").unwrap_or(f64::NAN))
        .collect();
    t.row(std::iter::once("GEOMEAN".to_string()).chain(gm.iter().copied().map(table::ratio)));
    (t, gm)
}

/// Parses an experiment binary's command line, `[--sampled]`, into its
/// [`Evaluation`] (see [`Evaluation::from_env`]); exits with a usage
/// message on any other argument.
pub fn evaluation_from_args(bin: &str) -> Evaluation {
    let mut sampled = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--sampled" => sampled = true,
            other => {
                eprintln!("unknown argument `{other}`; usage: {bin} [--sampled]");
                std::process::exit(2);
            }
        }
    }
    Evaluation::from_env(sampled)
}

/// The `main` of the per-experiment binary `name`: runs its registry
/// entry.
///
/// # Panics
///
/// Panics if `name` is not in [`REGISTRY`].
pub fn main(name: &str) {
    let eval = evaluation_from_args(name);
    let (_, run) = REGISTRY
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no experiment named {name}"));
    run(&eval);
}

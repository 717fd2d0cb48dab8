//! Runs every experiment of the paper's evaluation in one process, in
//! registry order (`mascot_bench::experiments::REGISTRY`; DESIGN.md §3),
//! printing each under a `######## name ########` header. Its output is
//! what running each `table*` / `figure*` binary in turn prints, but a
//! cell several experiments need is simulated only once.
//!
//! `all_experiments [--sampled]`: `--sampled` projects every (benchmark,
//! predictor, core) cell from representative intervals (DESIGN.md §13)
//! instead of simulating it end to end. Useful for a fast smoke pass over
//! the full evaluation; headline numbers should still come from the
//! default full-trace run.

use mascot_bench::experiments;

fn main() {
    let eval = experiments::evaluation_from_args("all_experiments");
    if eval.sampled {
        println!("sampled mode: projecting every cell from representative intervals");
    }
    let started = std::time::Instant::now();
    for (name, run) in experiments::REGISTRY {
        println!("\n######## {name} ########\n");
        run(&eval);
    }
    println!("\nall experiments completed in {:?}", started.elapsed());
}

//! Table II: configuration and storage of the evaluated predictors.
fn main() {
    mascot_bench::experiments::main("table02");
}

//! Fig. 11: MASCOT vs TAGE without non-dependence allocation.
fn main() {
    mascot_bench::experiments::main("figure11");
}

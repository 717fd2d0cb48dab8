//! Fig. 14: per-slot F1 scores, ranked within each MASCOT table.
fn main() {
    mascot_bench::experiments::main("figure14");
}

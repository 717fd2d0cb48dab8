//! Ablation studies for the design choices DESIGN.md calls out.
fn main() {
    mascot_bench::experiments::main("ablations");
}

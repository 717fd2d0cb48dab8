//! Fig. 8: total mispredictions and their split by type.
fn main() {
    mascot_bench::experiments::main("figure08");
}

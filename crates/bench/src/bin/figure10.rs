//! Fig. 10: MASCOT's prediction and misprediction types per benchmark.
fn main() {
    mascot_bench::experiments::main("figure10");
}

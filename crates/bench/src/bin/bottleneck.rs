//! Cycle accounting: where each benchmark's cycles go.
fn main() {
    mascot_bench::experiments::main("bottleneck");
}

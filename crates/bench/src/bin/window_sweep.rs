//! Out-of-order window sweep: prediction quality vs core size.
fn main() {
    mascot_bench::experiments::main("window_sweep");
}

//! Table I: system configuration.
fn main() {
    mascot_bench::experiments::main("table01");
}

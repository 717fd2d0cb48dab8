//! Fig. 13: distribution of MASCOT predictions across its tables.
fn main() {
    mascot_bench::experiments::main("figure13");
}

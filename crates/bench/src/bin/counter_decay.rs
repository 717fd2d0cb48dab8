//! §III-A / footnote 1: how long a saturating counter takes to unlearn.
fn main() {
    mascot_bench::experiments::main("counter_decay");
}

//! Fig. 2: loads with an in-flight store dependence, by bypass class.
fn main() {
    mascot_bench::experiments::main("figure02");
}

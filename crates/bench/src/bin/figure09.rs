//! Fig. 9: MDP-only comparison normalised to perfect MDP.
fn main() {
    mascot_bench::experiments::main("figure09");
}

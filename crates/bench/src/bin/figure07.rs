//! Fig. 7: NoSQ, PHAST and MASCOT IPC normalised to perfect MDP.
fn main() {
    mascot_bench::experiments::main("figure07");
}

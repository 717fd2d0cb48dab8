//! Fig. 15: MASCOT-OPT and its tag-reduced variants, area vs IPC.
fn main() {
    mascot_bench::experiments::main("figure15");
}

//! Fig. 12: SMB opportunity on Golden Cove vs Lion Cove.
fn main() {
    mascot_bench::experiments::main("figure12");
}

//! **Ablation A2** — the classical baseline: strict two-phase locking
//! versus SI (the paper's introduction cites folklore of SI reaching up
//! to 3× 2PL's throughput because readers never block), in a uniform and
//! a contended regime. The row lives in `sicost_bench::figures::table`.

fn main() {
    sicost_bench::figures::main("ablation_2pl");
}

//! **Ablation A1** — engine-side serializability (SSI) versus
//! program-modification strategies.
//!
//! The paper's conclusion hopes for a mechanism that removes the DBA
//! burden; Cahill-style SSI (implemented in `sicost-engine`) is that
//! mechanism. This harness runs *unmodified* SmallBank on the SSI engine
//! against plain SI and the best/worst strategies on the PostgreSQL
//! profile. The row lives in `sicost_bench::figures::table`.

fn main() {
    sicost_bench::figures::main("ablation_ssi");
}

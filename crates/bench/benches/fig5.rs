//! **Figure 5** — eliminating the BW and WT vulnerabilities
//! (PostgreSQL profile): absolute TPS over MPL (panel a) and throughput
//! relative to SI (panel b), with every line certified. The row lives in
//! `sicost_bench::figures::table`.

fn main() {
    sicost_bench::figures::main("fig5");
}

//! **Figure 4** — costs for SI-serializability when eliminating ALL
//! vulnerable edges (PostgreSQL profile): SI vs MaterializeALL vs
//! PromoteALL, throughput over MPL. The row lives in
//! `sicost_bench::figures::table`.

fn main() {
    sicost_bench::figures::main("fig4");
}

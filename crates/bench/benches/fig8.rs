//! **Figure 8** — eliminating the WriteCheck→TransactSaving vulnerability
//! on the commercial platform (First-Committer-Wins, sfu-as-write, load
//! penalty): absolute TPS (panel a) and relative-to-SI (panel b). The row
//! lives in `sicost_bench::figures::table`.

fn main() {
    sicost_bench::figures::main("fig8");
}

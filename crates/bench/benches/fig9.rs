//! **Figure 9** — eliminating the Balance→WriteCheck vulnerability on
//! the commercial platform: absolute TPS (panel a) and relative-to-SI
//! (panel b). The row lives in `sicost_bench::figures::table`.

fn main() {
    sicost_bench::figures::main("fig9");
}

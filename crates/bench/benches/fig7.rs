//! **Figure 7** — costs with high contention (PostgreSQL profile):
//! hotspot of 10 customers, 60 % Balance mix, with every line certified.
//! The row lives in `sicost_bench::figures::table`.

fn main() {
    sicost_bench::figures::main("fig7");
}

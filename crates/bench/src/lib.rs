//! Benchmark harnesses for every table and figure in the paper's
//! evaluation (§IV), plus ablations.
//!
//! Each figure has a `harness = false` bench target under `benches/`
//! that builds the workload, sweeps MPL (or another parameter), and
//! prints the series as a table, a CSV block, and an ASCII chart — the
//! same rows/lines the paper reports. `EXPERIMENTS.md` records the paper
//! expectation vs. a measured run for each.
//!
//! Fidelity is selected with `SICOST_BENCH_MODE`:
//! * `smoke` — seconds-long sanity sweep (2 MPL points, 1 repeat);
//! * `quick` — the default: full MPL grid, short intervals, 2 repeats;
//! * `full`  — longer intervals and the paper's 5 repeats.

//!
//! Besides its text tables, every harness writes a versioned JSON
//! [`BenchReport`] to `bench_results/<name>.json`; the `bench_summary`
//! binary validates the set and folds it into `BENCH_smallbank.json`.

pub mod figures;
pub mod mode;
pub mod report;

pub use figures::{
    abort_profile, certify_figure, certify_run, print_certification, print_figure, run_figure,
    CertifyOptions, FigureSpec, StrategyLine,
};
pub use mode::BenchMode;
pub use report::{
    expected_harnesses, results_dir, BenchReport, CertRecord, LatencyRecord, ReportPoint,
    ReportSeries, ReportTable, SCHEMA_VERSION,
};

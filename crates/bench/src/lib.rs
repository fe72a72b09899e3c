//! Benchmark harnesses for every table and figure in the paper's
//! evaluation (§IV), plus ablations.
//!
//! Each harness is a `harness = false` bench target under `benches/`.
//! The seven MPL sweeps (Figures 4, 5, 7, 8, 9 and ablations A1, A2) are
//! rows of one table, [`figures::table`]; their bench targets are one
//! call, `figures::main("<name>")`. Every other harness builds its own
//! workload and fills a [`BenchReport`] itself. `EXPERIMENTS.md` records
//! the paper expectation vs. a measured run for each.
//!
//! Fidelity is selected with `SICOST_BENCH_MODE`:
//! * `smoke` — seconds-long sanity sweep (2 MPL points, 1 repeat);
//! * `quick` — the default: full MPL grid, short intervals, 2 repeats;
//! * `full`  — longer intervals and the paper's 5 repeats.
//!
//! Every harness ends with [`BenchReport::emit`]: it prints the report
//! as text (series table, relative panel, chart and CSV; every table;
//! the certification panel) and writes it as versioned JSON to
//! `bench_results/<name>.json`. The `bench_summary` binary validates the
//! set and folds it into `BENCH_smallbank.json`.

pub mod figures;
pub mod mode;
pub mod report;

pub use figures::{
    abort_profile, certify_figure, certify_run, run_figure, CertifyOptions, FigureSpec, Regime,
    StrategyLine,
};
pub use mode::BenchMode;
pub use report::{
    expected_harnesses, results_dir, BenchReport, CertRecord, LatencyRecord, ReportPoint,
    ReportSeries, ReportTable, SCHEMA_VERSION,
};

/// Mean ± 95 % CI of a few samples, for harnesses that build their
/// series points by hand.
pub fn summarize(vals: &[f64]) -> sicost_common::Summary {
    let mut s = sicost_common::OnlineStats::new();
    for &v in vals {
        s.push(v);
    }
    s.summary()
}

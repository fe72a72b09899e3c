//! **Ablation A5** — §II-D's third road to serializability: run the pivot
//! (WriteCheck) under simulated 2PL using explicit **table-granularity**
//! locks, on an engine where DML takes table intent locks.
//!
//! The paper: *"it is possible to explicitly set locks, and so one can
//! simulate 2PL; however the explicit locks are all of table granularity
//! and thus will have very poor performance."* This harness quantifies
//! "very poor".

use sicost_bench::{BenchMode, BenchReport};
use sicost_driver::{repeat_summary, RetryPolicy, RunConfig, Series};
use sicost_engine::EngineConfig;
use sicost_smallbank::{
    SmallBank, SmallBankConfig, SmallBankDriver, SmallBankWorkload, Strategy, WorkloadParams,
};
use std::sync::Arc;

fn main() {
    let mode = BenchMode::from_env();
    let params =
        WorkloadParams::paper_default().scaled(mode.customers(), (mode.customers() / 18).max(2));
    let mut engine = EngineConfig::postgres_like();
    engine.table_intent_locks = true; // LOCK TABLE has teeth

    let lines: Vec<(&str, Strategy, bool)> = vec![
        ("SI (unsafe)", Strategy::BaseSI, false),
        ("PromoteWT-upd", Strategy::PromoteWTUpd, false),
        ("2PL-pivot (LOCK TABLE)", Strategy::BaseSI, true),
    ];
    let mut all = Vec::new();
    for (label, strategy, table_lock) in lines {
        let mut series = Series::new(label);
        for &mpl in &mode.mpls() {
            let engine = engine.clone();
            let (summary, _) = repeat_summary(
                |r| {
                    let mut cfg = SmallBankConfig::paper();
                    cfg.customers = params.customers;
                    cfg.seed ^= r;
                    let bank = Arc::new(SmallBank::new(&cfg, engine.clone(), strategy));
                    let mut wl = SmallBankWorkload::new(params);
                    if table_lock {
                        wl = wl.with_wc_table_lock();
                    }
                    SmallBankDriver::new(bank, wl)
                },
                RunConfig::new(mpl)
                    .with_ramp_up(mode.ramp_up())
                    .with_measure(mode.measure())
                    .with_seed(0x2B1 ^ mpl as u64)
                    .with_retry(RetryPolicy::disabled()),
                mode.repeats(),
            );
            series.push(mpl as f64, summary);
            eprintln!("  [A5] {label} mpl={mpl}: {:.0} tps", summary.mean);
        }
        all.push(series);
    }
    let expectation = "The LOCK TABLE variant serialises every WriteCheck \
         against every writer of Saving — throughput collapses as MPL \
         grows, while PromoteWT-upd (same guarantee via a single row \
         identity write) stays at SI's level. This is why the paper \
         dismisses the approach in one paragraph.";
    let mut report = BenchReport::new(
        "ablation_tablelock",
        "Ablation A5 — simulated 2PL on the pivot via table locks (§II-D)",
        mode,
    );
    report.expectation = expectation.into();
    report.push_series("MPL", &all);
    report.emit();
}

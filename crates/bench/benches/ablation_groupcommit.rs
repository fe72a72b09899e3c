//! **Ablation A3** — the disk-write dominance claim (§IV-D).
//!
//! The paper's cost analysis rests on "once a transaction needs one
//! write, extra writes have negligible extra cost" and on group commit
//! amortising the log sync. This harness sweeps the group-commit window
//! (`commit_delay`) at fixed MPL and reports throughput and the mean
//! sync batch size.

use sicost_bench::{BenchMode, BenchReport};
use sicost_driver::{run, RetryPolicy, RunConfig};
use sicost_engine::EngineConfig;
use sicost_smallbank::{
    SmallBank, SmallBankConfig, SmallBankDriver, SmallBankWorkload, Strategy, WorkloadParams,
};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let mode = BenchMode::from_env();
    let params = WorkloadParams::paper_default().scaled(mode.customers(), mode.customers() / 18);
    let mpl = 10;
    let mut rows = Vec::new();
    for delay_us in [0u64, 250, 500, 1000, 2000, 4000] {
        let mut engine = EngineConfig::postgres_like();
        engine.wal.commit_delay = Duration::from_micros(delay_us);
        let mut cfg = SmallBankConfig::paper();
        cfg.customers = params.customers;
        let bank = Arc::new(SmallBank::new(&cfg, engine, Strategy::BaseSI));
        let driver = SmallBankDriver::new(Arc::clone(&bank), SmallBankWorkload::new(params));
        let metrics = run(
            &driver,
            &RunConfig::new(mpl)
                .with_ramp_up(mode.ramp_up())
                .with_measure(mode.measure())
                .with_seed(0x6C)
                .with_retry(RetryPolicy::disabled()),
        );
        let wal = bank.db().wal_stats();
        let dev = bank.db().device_stats();
        let secs = metrics.measured.as_secs_f64();
        let batch_avg = if wal.batches > 0 {
            wal.records as f64 / wal.batches as f64
        } else {
            0.0
        };
        rows.push(vec![
            delay_us.to_string(),
            format!("{:.0}", metrics.tps()),
            format!("{:.0}", dev.syncs as f64 / secs.max(1e-9)),
            format!("{batch_avg:.2}"),
            wal.max_batch.to_string(),
        ]);
    }
    let expectation = "Larger windows batch more commits per sync; \
         throughput first improves (fewer 4ms syncs) then flattens as the \
         added commit latency offsets the batching gain — the regime in \
         which the paper ran (commit_delay enabled).";
    let mut report = BenchReport::new(
        "ablation_groupcommit",
        format!("Ablation A3 — group-commit window sweep (SI, MPL {mpl})"),
        mode,
    );
    report.expectation = expectation.into();
    report.push_table(
        "group-commit sweep",
        ["delay (µs)", "TPS", "syncs/s", "batch avg", "batch max"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        rows,
    );
    report.emit();
}

//! **Ablation A4** — hotspot-size sweep between the Figure 4/5 regime
//! (hotspot 1000) and the Figure 7 regime (hotspot 10): where does the
//! gap between well-chosen and blunt strategies open up?

use sicost_bench::{BenchMode, BenchReport};
use sicost_driver::{repeat_summary, RetryPolicy, RunConfig, Series};
use sicost_engine::EngineConfig;
use sicost_smallbank::{
    SmallBank, SmallBankConfig, SmallBankDriver, SmallBankWorkload, Strategy, WorkloadParams,
};
use std::sync::Arc;

fn main() {
    let mode = BenchMode::from_env();
    let mpl = 20;
    let strategies = [
        Strategy::BaseSI,
        Strategy::PromoteWTUpd,
        Strategy::MaterializeALL,
    ];
    let hotspots: &[u64] = if mode == BenchMode::Smoke {
        &[10, 1000]
    } else {
        &[10, 50, 100, 1000, 17_999]
    };
    let mut all = Vec::new();
    for strategy in strategies {
        let mut series = Series::new(strategy.name());
        for &hotspot in hotspots {
            let params = WorkloadParams {
                customers: 18_000,
                hotspot,
                p_hot: 0.9,
                mix: sicost_smallbank::MixWeights::high_contention(),
            };
            let (summary, _) = repeat_summary(
                |r| {
                    let mut cfg = SmallBankConfig::paper();
                    cfg.seed ^= r;
                    let bank = Arc::new(SmallBank::new(
                        &cfg,
                        EngineConfig::postgres_like(),
                        strategy,
                    ));
                    SmallBankDriver::new(bank, SmallBankWorkload::new(params))
                },
                RunConfig::new(mpl)
                    .with_ramp_up(mode.ramp_up())
                    .with_measure(mode.measure())
                    .with_seed(0x407 ^ hotspot)
                    .with_retry(RetryPolicy::disabled()),
                mode.repeats(),
            );
            series.push(hotspot as f64, summary);
            eprintln!(
                "  [A4] {} hotspot={hotspot}: {:.0} tps",
                strategy.name(),
                summary.mean
            );
        }
        all.push(series);
    }
    let expectation = "At hotspot 1000+ all three run close together (the \
         Figure 4/5 regime); as the hotspot shrinks toward 10 the \
         MaterializeALL line collapses (every pair of transactions on a \
         hot customer now conflicts through the Conflict table) while \
         PromoteWT-upd stays near SI — interpolating between Figures 5 \
         and 7.";
    let mut report = BenchReport::new(
        "ablation_hotspot",
        format!("Ablation A4 — hotspot-size sweep (60% Balance mix, MPL {mpl})"),
        mode,
    );
    report.expectation = expectation.into();
    report.push_series("hotspot", &all);
    report.emit();
}

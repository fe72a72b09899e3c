//! **Ablation A6** — engine-sharding sweep: throughput of the BaseSI
//! hot path (zero simulated cost, uniform access, so the engine's own
//! serialization points dominate) as MPL and the serialization-point
//! stripe count vary. `shards=1` degenerates to the old global commit
//! mutex / global lock-manager / global SSI maps; the per-lock-class
//! wait breakdown printed at the end shows where the blocked wall-clock
//! went in each extreme.

use sicost_bench::{BenchMode, BenchReport};
use sicost_driver::{repeat_summary, run, LockWaitReport, Report, RetryPolicy, RunConfig, Series};
use sicost_engine::EngineConfig;
use sicost_smallbank::{
    MixWeights, SmallBank, SmallBankConfig, SmallBankDriver, SmallBankWorkload, Strategy,
    WorkloadParams,
};
use std::sync::Arc;

fn params(customers: u64) -> WorkloadParams {
    // Uniform access over the whole population: data conflicts are rare,
    // so any throughput difference comes from the engine's serialization
    // points — the thing this ablation varies.
    WorkloadParams {
        customers,
        hotspot: customers,
        p_hot: 0.5,
        mix: MixWeights::uniform(),
    }
}

fn make_driver(customers: u64, shards: usize, seed_mix: u64) -> SmallBankDriver {
    let mut cfg = SmallBankConfig::small(customers);
    cfg.seed ^= seed_mix;
    let engine = EngineConfig::functional().with_shards(shards);
    let bank = Arc::new(SmallBank::new(&cfg, engine, Strategy::BaseSI));
    SmallBankDriver::new(bank, SmallBankWorkload::new(params(customers)))
}

fn main() {
    let mode = BenchMode::from_env();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let customers = mode.customers();
    let (shard_counts, mpls): (&[usize], &[usize]) = if mode == BenchMode::Smoke {
        (&[1, 16], &[1, 8])
    } else {
        (&[1, 4, 8, 16], &[1, 4, 8, 16, 32])
    };

    let mut all = Vec::new();
    for &shards in shard_counts {
        let mut series = Series::new(format!("shards={shards}"));
        for &mpl in mpls {
            let (summary, _) = repeat_summary(
                |r| make_driver(customers, shards, r),
                RunConfig::new(mpl)
                    .with_ramp_up(mode.ramp_up())
                    .with_measure(mode.measure())
                    .with_seed(0xA6 ^ (shards as u64) << 8 ^ mpl as u64)
                    .with_retry(RetryPolicy::disabled()),
                mode.repeats(),
            );
            series.push(mpl as f64, summary);
            eprintln!("  [A6] shards={shards} mpl={mpl}: {:.0} tps", summary.mean);
        }
        all.push(series);
    }

    let top_mpl = *mpls.last().unwrap() as f64;
    let single = all.first().and_then(|s| s.at(top_mpl)).unwrap_or(0.0);
    let striped = all.last().and_then(|s| s.at(top_mpl)).unwrap_or(0.0);
    let mut report = BenchReport::new(
        "ablation_sharding",
        "Ablation A6 — serialization-point sharding sweep (BaseSI, uniform mix)",
        mode,
    );
    report.push_series("MPL", &all);
    report.notes.push(format!(
        "speedup at MPL {top_mpl:.0}: {:.2}x ({} vs {})",
        striped / single.max(1e-9),
        all.last().unwrap().label,
        all.first().unwrap().label,
    ));

    // Where did the blocked wall-clock go? One dedicated run per extreme
    // at the highest MPL, reading the engine's lock-class counters.
    for &shards in [shard_counts[0], *shard_counts.last().unwrap()].iter() {
        let driver = make_driver(customers, shards, 0xBEEF);
        run(
            &driver,
            &RunConfig::new(*mpls.last().unwrap())
                .with_ramp_up(mode.ramp_up())
                .with_measure(mode.measure())
                .with_seed(0xA6)
                .with_retry(RetryPolicy::disabled()),
        );
        let breakdown = LockWaitReport(&driver.bank().db().metrics().lock_waits).render();
        report.notes.push(format!(
            "lock-wait breakdown, shards={shards}, MPL {top_mpl:.0}:\n{breakdown}"
        ));
    }
    report.expectation = "See the printed expectation: shards=1 flattens against the \
         global commit/install serialization points; striping dissolves the wait."
        .into();
    report.emit();
    println!(
        "Expectation ({cores} hardware threads): at MPL 1 the stripe count \
         is irrelevant (every lock is uncontended); as MPL grows the \
         shards=1 line flattens against the global commit/install \
         serialization points while striped engines keep scaling — the \
         breakdown shows shards=1 concentrating its wait in \
         commit.install/lock.entries, and striping dissolving it (>=1.5x \
         at MPL >= 8 with >= 8 shards on a multicore host; on a single \
         hardware thread the clients cannot physically overlap, so the \
         curves coincide and only the wait breakdown distinguishes the \
         layouts)."
    );
}

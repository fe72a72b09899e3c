//! **A9** — open-system harness: goodput and tail latency vs offered
//! load, under contrasting admission policies.
//!
//! The paper's closed-system driver (Figures 4–9) cannot show what
//! overload does to latency: its `mpl` clients stop submitting while
//! they wait, so latency is bounded by `mpl × service time` no matter
//! how slow the system gets. This harness measures the closed-system
//! peak first, then replays seeded Poisson arrival schedules at
//! 0.5×–2× of that peak against the same postgres-like engine, for
//! Base SI and the PromoteALL fix, under an unbounded admission queue
//! and under drop-on-full load shedding.
//!
//! The headline property — asserted per run at the 2× point — is that
//! the unbounded queue's p99 end-to-end latency diverges with the
//! backlog (and keeps growing with the horizon), while drop-on-full
//! sheds the excess and keeps p99 bounded by the queue capacity at
//! roughly the same goodput.

use sicost_bench::{summarize, BenchMode, BenchReport};
use sicost_driver::{
    run, run_open, AdmissionPolicy, ArrivalProcess, OpenConfig, RunConfig, Series,
};
use sicost_engine::EngineConfig;
use sicost_smallbank::{
    SmallBank, SmallBankConfig, SmallBankDriver, SmallBankWorkload, Strategy, WorkloadParams,
};
use std::sync::Arc;
use std::time::Duration;

/// Worker-pool size of the open system — and the MPL of the closed
/// calibration run, so "1× offered load" means "what this many clients
/// can push when perfectly coupled".
const WORKERS: usize = 4;
/// Drop-on-full queue capacity: bounds queue delay at roughly
/// `capacity / peak` seconds regardless of how far past saturation the
/// offered load goes (a few tens of ms at this platform's peak, far
/// under the horizon-scale backlog an unbounded queue accumulates).
const QUEUE_CAPACITY: usize = 16;

struct PointStats {
    offered: f64,
    shed_pct: f64,
    /// Per-repeat samples, so the report carries real error bars.
    goodput_runs: Vec<f64>,
    p99_runs: Vec<f64>,
    goodput: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
}

fn build_driver(strategy: Strategy, customers: u64, hotspot: u64, seed: u64) -> SmallBankDriver {
    let mut config = SmallBankConfig::paper();
    config.customers = customers;
    config.seed ^= seed;
    let bank = Arc::new(SmallBank::new(
        &config,
        EngineConfig::postgres_like(),
        strategy,
    ));
    let params = WorkloadParams::paper_default().scaled(customers, hotspot);
    SmallBankDriver::new(bank, SmallBankWorkload::new(params))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn measure_point(
    driver: &SmallBankDriver,
    offered_tps: f64,
    horizon: Duration,
    admission: AdmissionPolicy,
    repeats: u64,
) -> PointStats {
    let mut shed_pct = Vec::new();
    let mut goodput = Vec::new();
    let mut p50 = Vec::new();
    let mut p95 = Vec::new();
    let mut p99 = Vec::new();
    for r in 0..repeats {
        let cfg = OpenConfig::new(offered_tps)
            .with_process(ArrivalProcess::Poisson)
            .with_horizon(horizon)
            .with_workers(WORKERS)
            .with_admission(admission)
            .with_seed(0xA9_0000 + r);
        let m = run_open(driver, &cfg);
        assert_eq!(
            m.served() + m.shed() + m.timed_out(),
            m.offered(),
            "every arrival is served or refused"
        );
        shed_pct.push(100.0 * m.shed() as f64 / m.offered().max(1) as f64);
        goodput.push(m.goodput());
        let e2e = m.e2e();
        p50.push(ms(e2e.quantile(0.50)));
        p95.push(ms(e2e.quantile(0.95)));
        p99.push(ms(e2e.quantile(0.99)));
    }
    PointStats {
        offered: offered_tps,
        shed_pct: shed_pct.iter().sum::<f64>() / shed_pct.len() as f64,
        goodput: goodput.iter().sum::<f64>() / goodput.len() as f64,
        p50_ms: p50.iter().sum::<f64>() / p50.len() as f64,
        p95_ms: p95.iter().sum::<f64>() / p95.len() as f64,
        p99_ms: p99.iter().sum::<f64>() / p99.len() as f64,
        goodput_runs: goodput,
        p99_runs: p99,
    }
}

fn main() {
    let mode = BenchMode::from_env();
    let (customers, hotspot, horizon, multipliers): (u64, u64, Duration, Vec<f64>) = match mode {
        BenchMode::Smoke => (
            400,
            40,
            Duration::from_millis(250),
            vec![0.5, 1.0, 1.5, 2.0],
        ),
        BenchMode::Quick => (
            2_000,
            200,
            Duration::from_millis(500),
            vec![0.5, 1.0, 1.5, 2.0],
        ),
        BenchMode::Full => (
            2_000,
            200,
            Duration::from_millis(1000),
            vec![0.5, 1.0, 1.5, 2.0],
        ),
    };
    let repeats = mode.repeats();
    let policies: [(&str, AdmissionPolicy); 2] = [
        ("unbounded", AdmissionPolicy::Unbounded),
        (
            "drop-on-full",
            AdmissionPolicy::DropOnFull {
                capacity: QUEUE_CAPACITY,
            },
        ),
    ];

    let mut report = BenchReport::new(
        "openloop",
        "A9 — open-system goodput and tail latency vs offered load, by admission policy",
        mode,
    );
    let mut series = Vec::new();
    let mut rows = Vec::new();
    let mut peaks = Vec::new();

    for strategy in [Strategy::BaseSI, Strategy::PromoteALL] {
        let driver = build_driver(strategy, customers, hotspot, 0xA9);
        // Closed-system calibration: WORKERS perfectly-coupled clients
        // define the 1× point of the offered-load axis.
        let closed_cfg = RunConfig::new(WORKERS)
            .with_ramp_up(mode.ramp_up() / 2)
            .with_measure(mode.measure() / 2)
            .with_seed(0xA9);
        let peak = run(&driver, &closed_cfg).tps();
        assert!(peak > 0.0, "{strategy} closed run made no progress");
        peaks.push(format!(
            "{strategy} closed peak: {peak:.0} tps at MPL {WORKERS}"
        ));

        let mut goodput_series: Vec<Series> = policies
            .iter()
            .map(|(pname, _)| Series::new(format!("{strategy}/{pname} goodput tps")))
            .collect();
        let mut p99_series: Vec<Series> = policies
            .iter()
            .map(|(pname, _)| Series::new(format!("{strategy}/{pname} p99 ms")))
            .collect();

        for &mult in &multipliers {
            let mut at_point = Vec::new();
            for (pi, (pname, policy)) in policies.iter().enumerate() {
                let stats = measure_point(&driver, peak * mult, horizon, *policy, repeats);
                goodput_series[pi].push(mult, summarize(&stats.goodput_runs));
                p99_series[pi].push(mult, summarize(&stats.p99_runs));
                rows.push(vec![
                    strategy.to_string(),
                    (*pname).to_string(),
                    format!("{mult:.1}"),
                    format!("{:.0}", stats.offered),
                    format!("{:.1}", stats.shed_pct),
                    format!("{:.0}", stats.goodput),
                    format!("{:.2}", stats.p50_ms),
                    format!("{:.2}", stats.p95_ms),
                    format!("{:.2}", stats.p99_ms),
                ]);
                at_point.push(stats);
            }
            // The PR's headline claim, checked at the 2×-saturation
            // point of every strategy: shedding keeps the tail bounded
            // where the unbounded backlog lets it diverge.
            if (mult - 2.0).abs() < 1e-9 {
                let (unbounded, dropping) = (&at_point[0], &at_point[1]);
                assert!(
                    dropping.p99_ms < unbounded.p99_ms,
                    "{strategy}: drop-on-full p99 {:.1} ms must beat unbounded {:.1} ms at 2×",
                    dropping.p99_ms,
                    unbounded.p99_ms
                );
                assert!(
                    dropping.shed_pct > 0.0,
                    "{strategy}: 2× overload must shed under drop-on-full"
                );
            }
        }
        series.extend(goodput_series);
        series.extend(p99_series);
    }
    report.push_series("offered load (× closed-system peak)", &series);
    report.push_table(
        "open-loop sweep",
        vec![
            "strategy".into(),
            "policy".into(),
            "x peak".into(),
            "offered tps".into(),
            "shed %".into(),
            "goodput tps".into(),
            "p50 ms".into(),
            "p95 ms".into(),
            "p99 ms".into(),
        ],
        rows,
    );
    let expectation = "Below saturation the two admission policies are \
         indistinguishable: nothing is shed and latency sits at the \
         service time. Past saturation they diverge — the unbounded \
         queue accepts everything, so its backlog and p99 end-to-end \
         latency grow with the horizon while goodput pays the drain \
         time; drop-on-full sheds the excess offered load and keeps \
         p99 bounded by queue capacity at essentially peak goodput. \
         Asserted at the 2× point for both strategies.";
    report.expectation = expectation.into();
    report.notes.push(format!(
        "postgres-like engine, {customers} customers (hotspot {hotspot}), {WORKERS} workers, \
         queue capacity {QUEUE_CAPACITY}, {horizon:?} horizon, Poisson arrivals, {repeats} repeats"
    ));
    for p in peaks {
        report.notes.push(p);
    }
    report.emit();
}

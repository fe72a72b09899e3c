//! Shared figure-running machinery.

use crate::mode::BenchMode;
use crate::report::{CertRecord, LatencyRecord};
use sicost_driver::{
    ascii_chart, csv_table, render_table, repeat_summary, run, RetryPolicy, RunConfig, Series,
};
use sicost_engine::{CcMode, EngineConfig, HistoryEvent, HistoryObserver, SfuSemantics};
use sicost_mvsg::SamplingCertifier;
use sicost_smallbank::{
    SmallBank, SmallBankConfig, SmallBankDriver, SmallBankWorkload, Strategy, WorkloadParams,
};
use sicost_trace::TraceSink;
use std::sync::Arc;
use std::time::Duration;

/// One line of a figure: a strategy run on an engine configuration.
#[derive(Clone)]
pub struct StrategyLine {
    /// Legend label.
    pub label: String,
    /// Program variant.
    pub strategy: Strategy,
    /// Engine the line runs on.
    pub engine: EngineConfig,
}

/// A figure: several strategy lines swept over MPL on one workload.
pub struct FigureSpec {
    /// Figure identifier ("Figure 4", …).
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Workload parameters (population is overridden by the mode).
    pub params: WorkloadParams,
    /// The lines.
    pub lines: Vec<StrategyLine>,
}

fn build_driver(
    engine: &EngineConfig,
    strategy: Strategy,
    params: &WorkloadParams,
    seed: u64,
) -> SmallBankDriver {
    let mut config = SmallBankConfig::paper();
    config.customers = params.customers;
    config.seed ^= seed;
    let bank = Arc::new(SmallBank::new(&config, engine.clone(), strategy));
    SmallBankDriver::new(bank, SmallBankWorkload::new(*params))
}

/// Runs a figure: per line, per MPL, `repeats` independent runs on fresh
/// databases; returns one [`Series`] per line.
pub fn run_figure(spec: &FigureSpec, mode: BenchMode) -> Vec<Series> {
    let mut params = spec.params;
    // Scale the population with the mode, keeping the hotspot ratio.
    if params.customers != mode.customers() {
        let hotspot = (params.hotspot as f64 * mode.customers() as f64 / params.customers as f64)
            .round()
            .max(2.0) as u64;
        params = params.scaled(mode.customers(), hotspot);
    }
    let mut series = Vec::new();
    for line in &spec.lines {
        let mut s = Series::new(line.label.clone());
        for &mpl in &mode.mpls() {
            let cfg = RunConfig::new(mpl)
                .with_ramp_up(mode.ramp_up())
                .with_measure(mode.measure())
                .with_seed(0xF1_60 ^ mpl as u64)
                .with_retry(RetryPolicy::disabled());
            let (summary, _) = repeat_summary(
                |r| build_driver(&line.engine, line.strategy, &params, r),
                cfg,
                mode.repeats(),
            );
            s.push(mpl as f64, summary);
            eprintln!(
                "  [{}] {} mpl={mpl}: {:.0} ± {:.0} tps",
                spec.id, line.label, summary.mean, summary.ci95
            );
        }
        series.push(s);
    }
    series
}

/// Prints a completed figure: table, relative-to-first-line table (the
/// paper's "(b)" panels), CSV, chart.
pub fn print_figure(spec: &FigureSpec, series: &[Series], expectation: &str) {
    println!("\n==================================================================");
    println!("{} — {}", spec.id, spec.title);
    println!("==================================================================");
    println!("{}", render_table("MPL", series));
    if series.len() > 1 {
        println!("Relative to {} (the paper's (b) panel):", series[0].label);
        let base = &series[0];
        let rel: Vec<Series> = series[1..]
            .iter()
            .map(|s| {
                let mut r = Series::new(s.label.clone());
                for p in &s.points {
                    if let Some(b) = base.at(p.x) {
                        if b > 0.0 {
                            let mut y = p.y;
                            y.mean = 100.0 * p.y.mean / b;
                            y.ci95 = 100.0 * p.y.ci95 / b;
                            r.push(p.x, y);
                        }
                    }
                }
                r
            })
            .collect();
        println!("{}", render_table("MPL", &rel));
    }
    println!("{}", ascii_chart(series, 16));
    println!("--- CSV ---\n{}", csv_table("mpl", series));
    println!("Paper expectation: {expectation}");
}

/// Measures the per-type serialization-failure abort *rates* at one MPL
/// (Figure 6): returns `(kind name, abort fraction)` pairs.
pub fn abort_profile(
    engine: &EngineConfig,
    strategy: Strategy,
    params: &WorkloadParams,
    mode: BenchMode,
    mpl: usize,
) -> Vec<(&'static str, f64)> {
    let driver = build_driver(engine, strategy, params, 7);
    let cfg = RunConfig::new(mpl)
        .with_ramp_up(mode.ramp_up())
        .with_measure(mode.measure() * 2)
        .with_seed(0xAB0)
        .with_retry(RetryPolicy::disabled());
    let metrics = run(&driver, &cfg);
    metrics
        .kind_names
        .iter()
        .zip(&metrics.per_kind)
        .map(|(name, k)| (*name, k.serialization_abort_rate()))
        .collect()
}

/// Forwards engine history events to several observers — the sampling
/// certifier and the trace sink share the engine's single observer slot.
struct Fanout(Vec<Arc<dyn HistoryObserver>>);

impl HistoryObserver for Fanout {
    fn on_event(&self, event: HistoryEvent) {
        for obs in &self.0 {
            obs.on_event(event.clone());
        }
    }

    fn on_wal_sync(&self, txn: sicost_common::TxnId, wait: Duration) {
        for obs in &self.0 {
            obs.on_wal_sync(txn, wait);
        }
    }

    fn on_lock_wait(&self, txn: sicost_common::TxnId, wait: Duration) {
        for obs in &self.0 {
            obs.on_lock_wait(txn, wait);
        }
    }
}

/// Parameters of one instrumented (certified + traced) run.
#[derive(Clone)]
pub struct CertifyOptions {
    /// Label recorded in the [`CertRecord`].
    pub label: String,
    /// Program variant under test.
    pub strategy: Strategy,
    /// Engine configuration (`trace_timings` is enabled internally).
    pub engine: EngineConfig,
    /// Database population.
    pub config: SmallBankConfig,
    /// Workload shape.
    pub params: WorkloadParams,
    /// Concurrency of the run.
    pub mpl: usize,
    /// Warm-up excluded from certification relevance (events are still
    /// observed; windows simply accumulate earlier).
    pub ramp_up: Duration,
    /// Measured interval per burst.
    pub measure: Duration,
    /// Independently seeded bursts, accumulated into one set of stats.
    pub bursts: u64,
    /// Base seed; burst `i` perturbs it deterministically.
    pub base_seed: u64,
}

impl CertifyOptions {
    /// Defaults for certifying one figure line at a fixed MPL.
    pub fn for_line(
        line: &StrategyLine,
        params: &WorkloadParams,
        mode: BenchMode,
        mpl: usize,
    ) -> Self {
        let mut config = SmallBankConfig::paper();
        config.customers = params.customers;
        Self {
            label: line.label.clone(),
            strategy: line.strategy,
            engine: line.engine.clone(),
            config,
            params: *params,
            mpl,
            ramp_up: mode.ramp_up(),
            measure: mode.measure(),
            bursts: match mode {
                BenchMode::Smoke => 3,
                BenchMode::Quick => 2,
                BenchMode::Full => 2,
            },
            base_seed: 0xCE27,
        }
    }
}

/// Runs one strategy with the sampling MVSG certifier **and** the span
/// trace sink attached (engine timing hooks enabled), over
/// `opts.bursts` independently seeded bursts on fresh databases, and
/// returns the accumulated certification record plus the per-program
/// latency aggregation and the sink itself (for JSONL export).
///
/// The certifier is flushed ([`SamplingCertifier::finish`]) between
/// bursts so windows never span two databases' transaction-id spaces.
pub fn certify_run(opts: &CertifyOptions) -> (CertRecord, Vec<LatencyRecord>, Arc<TraceSink>) {
    let certifier = SamplingCertifier::with_defaults();
    let sink = TraceSink::with_capacity(4096);
    let fanout: Arc<dyn HistoryObserver> = Arc::new(Fanout(vec![
        certifier.clone() as Arc<dyn HistoryObserver>,
        sink.clone() as Arc<dyn HistoryObserver>,
    ]));
    let engine = opts.engine.clone().with_trace_timings(true);
    for burst in 0..opts.bursts.max(1) {
        let mut config = opts.config;
        config.seed ^= burst;
        let bank = Arc::new(SmallBank::with_observer(
            &config,
            engine.clone(),
            opts.strategy,
            Some(fanout.clone()),
        ));
        let driver = SmallBankDriver::new(bank, SmallBankWorkload::new(opts.params));
        let cfg = RunConfig::new(opts.mpl)
            .with_ramp_up(opts.ramp_up)
            .with_measure(opts.measure)
            .with_seed(opts.base_seed ^ (burst.wrapping_mul(0x9E37_79B9)))
            .with_retry(RetryPolicy::disabled())
            .with_observer(sink.clone());
        run(&driver, &cfg);
        certifier.finish();
    }
    let cert = CertRecord::from_stats(opts.label.clone(), &certifier.stats());
    let latency = sink
        .summary()
        .iter()
        .map(|s| LatencyRecord::from_summary(None, s))
        .collect();
    (cert, latency, sink)
}

/// Certifies every line of a figure at the sweep's top MPL: one
/// instrumented run per line, producing the report's `certification`
/// and `latency` sections (latency kinds are prefixed with the line
/// label). Optionally dumps each line's span JSONL next to the reports
/// when `SICOST_TRACE_JSONL` is set.
pub fn certify_figure(
    name: &str,
    spec: &FigureSpec,
    mode: BenchMode,
) -> (Vec<CertRecord>, Vec<LatencyRecord>) {
    let mut params = spec.params;
    if params.customers != mode.customers() {
        let hotspot = (params.hotspot as f64 * mode.customers() as f64 / params.customers as f64)
            .round()
            .max(2.0) as u64;
        params = params.scaled(mode.customers(), hotspot);
    }
    let mpl = mode.mpls().into_iter().max().unwrap_or(1);
    let mut certs = Vec::new();
    let mut latency = Vec::new();
    for line in &spec.lines {
        let opts = CertifyOptions::for_line(line, &params, mode, mpl);
        let (cert, _, sink) = certify_run(&opts);
        eprintln!(
            "  [{}] certify {}: {} windows, {} txns, {} anomalies",
            spec.id,
            line.label,
            cert.windows_certified,
            cert.txns_certified,
            cert.anomalies()
        );
        latency.extend(
            sink.summary()
                .iter()
                .map(|s| LatencyRecord::from_summary(Some(&line.label), s)),
        );
        if std::env::var_os("SICOST_TRACE_JSONL").is_some() {
            let dir = crate::report::results_dir();
            let _ = std::fs::create_dir_all(&dir);
            let slug: String = line
                .label
                .chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() {
                        c.to_ascii_lowercase()
                    } else {
                        '_'
                    }
                })
                .collect();
            let path = dir.join(format!("{name}.{slug}.trace.jsonl"));
            if let Err(e) = sink.write_jsonl(&path) {
                eprintln!("  [{}] trace export failed: {e}", spec.id);
            }
        }
        certs.push(cert);
    }
    (certs, latency)
}

/// Prints the certification panel that accompanies a certified figure.
pub fn print_certification(certs: &[CertRecord]) {
    if certs.is_empty() {
        return;
    }
    println!("Online MVSG certification (sampled windows, top MPL):");
    println!(
        "{:>16} | {:>8} {:>10} {:>10} {:>10} {:>8} {:>10}",
        "line", "windows", "txns", "write-skew", "dangerous", "other", "per-1k"
    );
    for c in certs {
        println!(
            "{:>16} | {:>8} {:>10} {:>10} {:>10} {:>8} {:>10.3}",
            c.label,
            c.windows_certified,
            c.txns_certified,
            c.write_skew,
            c.dangerous_structure,
            c.other_cycles,
            c.anomalies_per_1k()
        );
    }
    for c in certs {
        for w in &c.witnesses {
            println!("  witness [{}]: {w}", c.label);
        }
    }
}

/// The standard platform profiles used by the figures.
pub mod platforms {
    use super::*;

    /// PostgreSQL-like (§IV-A–E).
    pub fn postgres() -> EngineConfig {
        EngineConfig::postgres_like()
    }

    /// Commercial-like (§IV-F).
    pub fn commercial() -> EngineConfig {
        EngineConfig::commercial_like()
    }

    /// SSI engine on the PostgreSQL cost model (ablation A1).
    pub fn postgres_ssi() -> EngineConfig {
        EngineConfig::postgres_like().with_cc(CcMode::Ssi)
    }

    /// S2PL engine on the PostgreSQL cost model (ablation A2).
    pub fn postgres_s2pl() -> EngineConfig {
        EngineConfig::postgres_like().with_cc(CcMode::S2pl)
    }

    /// PostgreSQL profile but with sfu treated as a write — used to show
    /// what the sfu strategies *would* do if PostgreSQL promoted locks.
    pub fn postgres_sfu_write() -> EngineConfig {
        EngineConfig::postgres_like().with_sfu(SfuSemantics::IdentityWrite)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_machinery_smoke() {
        // One tiny figure, functional engine (no simulated costs), to keep
        // the test fast while exercising the whole path.
        let spec = FigureSpec {
            id: "test",
            title: "machinery smoke test",
            params: WorkloadParams::paper_default().scaled(300, 30),
            lines: vec![StrategyLine {
                label: "SI".into(),
                strategy: Strategy::BaseSI,
                engine: EngineConfig::functional(),
            }],
        };
        let mode = BenchMode::Smoke;
        let mut params_mode = mode;
        let _ = &mut params_mode;
        let series = run_figure(&spec, BenchMode::Smoke);
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].points.len(), BenchMode::Smoke.mpls().len());
        assert!(
            series[0].peak() > 0.0,
            "functional engine must commit a lot"
        );
        print_figure(&spec, &series, "n/a (machinery test)");
    }

    #[test]
    fn abort_profile_reports_all_kinds() {
        let profile = abort_profile(
            &EngineConfig::functional(),
            Strategy::BaseSI,
            &WorkloadParams::paper_default().scaled(100, 10),
            BenchMode::Smoke,
            4,
        );
        assert_eq!(profile.len(), 5);
        for (_, rate) in &profile {
            assert!((0.0..=1.0).contains(rate));
        }
    }
}

//! Shared figure-running machinery, and the table of MPL-sweep figures.
//!
//! Figures 4, 5, 7, 8 and 9 and ablations A1 and A2 are one experiment:
//! strategy lines on a platform profile, swept over MPL under one
//! workload mix. [`table`] holds one [`FigureSpec`] row per harness, and
//! each of those bench targets is just `figures::main("<name>")`.

use crate::mode::BenchMode;
use crate::report::{BenchReport, CertRecord, LatencyRecord, ReportSeries};
use sicost_driver::{repeat_summary, run, RetryPolicy, RunConfig};
use sicost_engine::{CcMode, EngineConfig, HistoryEvent, HistoryObserver};
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
    pub label: &'static str,
    /// Program variant.
    pub strategy: Strategy,
    /// Engine the line runs on.
    pub engine: EngineConfig,
}

/// One workload a figure's lines are swept under.
pub struct Regime {
    /// Identifier ("Figure 4", "Ablation A2 (uniform)", …).
    pub id: &'static str,
    /// Human title of the sweep.
    pub title: &'static str,
    /// Workload parameters (population is overridden by the mode).
    pub params: WorkloadParams,
}

/// A row of the figure table: several strategy lines swept over MPL
/// under each regime, written to one report.
pub struct FigureSpec {
    /// Harness and report name (`fig4`, `ablation_2pl`, …).
    pub name: &'static str,
    /// Report title.
    pub title: &'static str,
    /// The workloads; with more than one, series labels are prefixed
    /// `"{id}: "`.
    pub regimes: Vec<Regime>,
    /// The lines.
    pub lines: Vec<StrategyLine>,
    /// The paper expectation the report states.
    pub expectation: &'static str,
    /// Whether every line is also certified at the top MPL
    /// ([`certify_figure`]).
    pub certified: bool,
}

impl FigureSpec {
    /// A row with one regime whose title is the report title; lines,
    /// expectation and certification are filled in by the caller.
    fn single(
        name: &'static str,
        id: &'static str,
        title: &'static str,
        params: WorkloadParams,
    ) -> Self {
        Self {
            name,
            title,
            regimes: vec![Regime { id, title, params }],
            lines: Vec::new(),
            expectation: "",
            certified: false,
        }
    }

    /// The legend label of `line` under `regime`.
    fn label(&self, regime: &Regime, line: &StrategyLine) -> String {
        if self.regimes.len() > 1 {
            format!("{}: {}", regime.id, line.label)
        } else {
            line.label.to_string()
        }
    }
}

/// The seven MPL-sweep figures, one row per harness.
pub fn table() -> Vec<FigureSpec> {
    let line = |label, strategy, engine| StrategyLine {
        label,
        strategy,
        engine,
    };
    let pg = |label, strategy| line(label, strategy, EngineConfig::postgres_like());
    let com = |label, strategy| line(label, strategy, EngineConfig::commercial_like());
    vec![
        FigureSpec {
            lines: vec![
                pg("SI", Strategy::BaseSI),
                pg("MaterializeALL", Strategy::MaterializeALL),
                pg("PromoteALL", Strategy::PromoteALL),
            ],
            expectation: "SI rises to a ~1150 TPS plateau; PromoteALL starts ~20% lower \
                 (Balance now writes, so every transaction pays a disk write) and \
                 converges to ~95% of SI; MaterializeALL peaks ~25% below SI \
                 (conflict-table contention between any pair sharing a customer).",
            ..FigureSpec::single(
                "fig4",
                "Figure 4",
                "Eliminating ALL vulnerable edges (PostgreSQL profile)",
                WorkloadParams::paper_default(),
            )
        },
        FigureSpec {
            lines: vec![
                pg("SI", Strategy::BaseSI),
                pg("MaterializeBW", Strategy::MaterializeBW),
                pg("PromoteBW-upd", Strategy::PromoteBWUpd),
                pg("MaterializeWT", Strategy::MaterializeWT),
                pg("PromoteWT-upd", Strategy::PromoteWTUpd),
            ],
            expectation: "PromoteWT-upd indistinguishable from SI; MaterializeWT matches SI \
                 at low MPL then plateaus ~10% below; the BW variants lose ~20% at \
                 MPL 1 (Balance becomes an updater: 5/4 more disk-writing \
                 transactions) and recover toward SI at high MPL — BW costs are \
                 highest at LOW MPL, the reverse of WT.",
            certified: true,
            ..FigureSpec::single(
                "fig5",
                "Figure 5",
                "Eliminating the BW and WT vulnerabilities (PostgreSQL profile)",
                WorkloadParams::paper_default(),
            )
        },
        FigureSpec {
            lines: vec![
                pg("SI", Strategy::BaseSI),
                pg("MaterializeBW", Strategy::MaterializeBW),
                pg("MaterializeWT", Strategy::MaterializeWT),
                pg("PromoteWT-upd", Strategy::PromoteWTUpd),
                pg("PromoteBW-upd", Strategy::PromoteBWUpd),
                pg("MaterializeALL", Strategy::MaterializeALL),
            ],
            expectation: "SI peaks ~1100 TPS; eliminating the WT edge costs almost nothing; \
                 MaterializeBW drops to ~560 TPS (~50%); MaterializeALL to ~460 \
                 TPS (~60% below SI) — the 'simple' no-SDG strategies are the \
                 most expensive under contention.",
            certified: true,
            ..FigureSpec::single(
                "fig7",
                "Figure 7",
                "High contention: hotspot 10 customers, 60% Balance mix (PostgreSQL profile)",
                WorkloadParams::paper_high_contention(),
            )
        },
        FigureSpec {
            lines: vec![
                com("SI", Strategy::BaseSI),
                com("MaterializeWT", Strategy::MaterializeWT),
                com("PromoteWT-sfu", Strategy::PromoteWTSfu),
                com("PromoteWT-upd", Strategy::PromoteWTUpd),
            ],
            expectation: "The commercial platform peaks around 800 TPS near MPL 20–25 and \
                 then DECLINES (unlike PostgreSQL's plateau). PromoteWT-sfu \
                 reaches essentially SI's peak, declining a bit faster past MPL \
                 20; PromoteWT-upd matches to the peak then declines faster; \
                 materialization does relatively better than promotion here (the \
                 reverse of PostgreSQL).",
            ..FigureSpec::single(
                "fig8",
                "Figure 8",
                "Eliminating WT vulnerability (commercial profile)",
                WorkloadParams::paper_default(),
            )
        },
        FigureSpec {
            lines: vec![
                com("SI", Strategy::BaseSI),
                com("MaterializeBW", Strategy::MaterializeBW),
                com("PromoteBW-sfu", Strategy::PromoteBWSfu),
                com("PromoteBW-upd", Strategy::PromoteBWUpd),
            ],
            expectation: "All BW eliminations do substantially worse on the commercial \
                 platform: peak throughput at least ~10% below SI, with \
                 PromoteBW-upd worst at ~630 TPS (~80% of SI's peak).",
            ..FigureSpec::single(
                "fig9",
                "Figure 9",
                "Eliminating BW vulnerability (commercial profile)",
                WorkloadParams::paper_default(),
            )
        },
        // A1: the paper's conclusion hopes for a mechanism that removes the
        // DBA burden; SSI is that mechanism, run on unmodified programs.
        FigureSpec {
            lines: vec![
                pg("SI (unsafe)", Strategy::BaseSI),
                line(
                    "SSI engine",
                    Strategy::BaseSI,
                    EngineConfig::postgres_like().with_cc(CcMode::Ssi),
                ),
                pg("PromoteWT-upd", Strategy::PromoteWTUpd),
                pg("MaterializeALL", Strategy::MaterializeALL),
            ],
            expectation: "(No paper counterpart — forward-looking ablation.) Expected: SSI \
                 tracks SI closely with a small abort overhead under contention, \
                 beating the blunt MaterializeALL while requiring no program \
                 changes; the well-chosen PromoteWT-upd remains competitive.",
            ..FigureSpec::single(
                "ablation_ssi",
                "Ablation A1",
                "SSI engine vs program-modification strategies (PostgreSQL profile)",
                WorkloadParams::paper_high_contention(),
            )
        },
        // A2: the §I folklore of SI reaching up to 3× 2PL's throughput
        // because readers never block.
        FigureSpec {
            name: "ablation_2pl",
            title: "Ablation A2 — S2PL vs SI, uniform and contended regimes",
            regimes: vec![
                Regime {
                    id: "Ablation A2 (uniform)",
                    title: "S2PL vs SI, uniform mix, hotspot 1000",
                    params: WorkloadParams::paper_default(),
                },
                Regime {
                    id: "Ablation A2 (contended)",
                    title: "S2PL vs SI, 60% Balance, hotspot 10",
                    params: WorkloadParams::paper_high_contention(),
                },
            ],
            lines: vec![
                pg("SI", Strategy::BaseSI),
                line(
                    "S2PL",
                    Strategy::BaseSI,
                    EngineConfig::postgres_like().with_cc(CcMode::S2pl),
                ),
            ],
            expectation: "(No paper counterpart — §I folklore check.) Expected: similar \
                 at low MPL; under contention S2PL falls behind because \
                 readers block behind writers and deadlocks appear, while SI \
                 readers never block.",
            certified: false,
        },
    ]
}

/// Runs the table row `name` in the mode `SICOST_BENCH_MODE` selects:
/// the MPL sweep of every line under every regime, then, if the row is
/// certified, one instrumented run per line; then prints and writes the
/// report. This is the whole body of each figure's bench target.
pub fn main(name: &str) {
    let spec = table()
        .into_iter()
        .find(|f| f.name == name)
        .unwrap_or_else(|| panic!("no figure `{name}` in the table"));
    let mode = BenchMode::from_env();
    let mut report = BenchReport::new(spec.name, spec.title, mode);
    report.expectation = spec.expectation.into();
    report.push_series("MPL", run_figure(&spec, mode));
    if spec.certified {
        (report.certification, report.latency) = certify_figure(&spec, mode);
    }
    report.emit();
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

/// Scales a regime's population to the mode, keeping the hotspot ratio.
fn scaled(params: WorkloadParams, mode: BenchMode) -> WorkloadParams {
    if params.customers == mode.customers() {
        return params;
    }
    let hotspot = (params.hotspot as f64 * mode.customers() as f64 / params.customers as f64)
        .round()
        .max(2.0) as u64;
    params.scaled(mode.customers(), hotspot)
}

/// Runs a figure: per regime, per line, per MPL, `repeats` independent
/// runs on fresh databases; returns one [`ReportSeries`] per regime and
/// line.
pub fn run_figure(spec: &FigureSpec, mode: BenchMode) -> Vec<ReportSeries> {
    let mut series = Vec::new();
    for regime in &spec.regimes {
        eprintln!("{} — {}", regime.id, regime.title);
        let params = scaled(regime.params, mode);
        for line in &spec.lines {
            let mut s = ReportSeries::new(spec.label(regime, line));
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
                    regime.id, line.label, summary.mean, summary.ci95
                );
            }
            series.push(s);
        }
    }
    series
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
    /// Defaults for certifying one figure line, labelled `label`, at a
    /// fixed MPL.
    pub fn for_line(
        label: String,
        line: &StrategyLine,
        params: &WorkloadParams,
        mode: BenchMode,
        mpl: usize,
    ) -> Self {
        let mut config = SmallBankConfig::paper();
        config.customers = params.customers;
        Self {
            label,
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

/// Certifies every line of a figure, under every regime, at the sweep's
/// top MPL: one instrumented run per line, producing the report's
/// `certification` and `latency` sections (latency kinds are prefixed
/// with the line label). Optionally dumps each line's span JSONL next to
/// the reports when `SICOST_TRACE_JSONL` is set.
pub fn certify_figure(spec: &FigureSpec, mode: BenchMode) -> (Vec<CertRecord>, Vec<LatencyRecord>) {
    let mpl = mode.mpls().into_iter().max().unwrap_or(1);
    let mut certs = Vec::new();
    let mut latency = Vec::new();
    for regime in &spec.regimes {
        let params = scaled(regime.params, mode);
        for line in &spec.lines {
            let label = spec.label(regime, line);
            let opts = CertifyOptions::for_line(label.clone(), line, &params, mode, mpl);
            let (cert, _, sink) = certify_run(&opts);
            eprintln!(
                "  [{}] certify {}: {} windows, {} txns, {} anomalies",
                regime.id,
                line.label,
                cert.windows_certified,
                cert.txns_certified,
                cert.anomalies()
            );
            latency.extend(
                sink.summary()
                    .iter()
                    .map(|s| LatencyRecord::from_summary(Some(&label), s)),
            );
            if std::env::var_os("SICOST_TRACE_JSONL").is_some() {
                let dir = crate::report::results_dir();
                let _ = std::fs::create_dir_all(&dir);
                let slug: String = label
                    .chars()
                    .map(|c| {
                        if c.is_ascii_alphanumeric() {
                            c.to_ascii_lowercase()
                        } else {
                            '_'
                        }
                    })
                    .collect();
                let path = dir.join(format!("{}.{slug}.trace.jsonl", spec.name));
                if let Err(e) = sink.write_jsonl(&path) {
                    eprintln!("  [{}] trace export failed: {e}", regime.id);
                }
            }
            certs.push(cert);
        }
    }
    (certs, latency)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_machinery_smoke() {
        // One tiny figure, functional engine (no simulated costs), to keep
        // the test fast while exercising the whole path.
        let spec = FigureSpec {
            lines: vec![StrategyLine {
                label: "SI",
                strategy: Strategy::BaseSI,
                engine: EngineConfig::functional(),
            }],
            expectation: "n/a (machinery test)",
            ..FigureSpec::single(
                "test",
                "test",
                "machinery smoke test",
                WorkloadParams::paper_default().scaled(300, 30),
            )
        };
        let series = run_figure(&spec, BenchMode::Smoke);
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].points.len(), BenchMode::Smoke.mpls().len());
        assert!(
            series[0].peak() > 0.0,
            "functional engine must commit a lot"
        );
        let mut report = BenchReport::new(spec.name, spec.title, BenchMode::Smoke);
        report.push_series("MPL", series);
        assert!(report.render().contains("machinery smoke test"));
    }

    #[test]
    fn every_figure_row_names_a_registered_harness() {
        let harnesses = crate::report::expected_harnesses();
        let rows = table();
        assert_eq!(rows.len(), 7);
        for row in &rows {
            assert!(
                harnesses.iter().any(|h| h == row.name),
                "figure row `{}` names no harness in harnesses.txt",
                row.name
            );
            assert!(!row.regimes.is_empty() && !row.lines.is_empty());
        }
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

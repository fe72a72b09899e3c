//! **Ablation A7** — measured anomaly rates under online certification.
//!
//! The paper argues from the SDG that plain SI on SmallBank admits
//! non-serializable executions and that each option (and SSI) removes
//! them. This harness measures that claim directly: every strategy runs
//! on a furiously hot workload with the sampling MVSG certifier
//! attached, and the report records write-skew / dangerous-structure
//! witnesses per thousand certified transactions.
//!
//! The functional engine (no simulated I/O costs) is used so each burst
//! certifies as many transactions as possible; anomaly *rates* are a
//! property of the interleavings, not of the cost model.

use sicost_bench::{certify_run, BenchMode, BenchReport, CertifyOptions};
use sicost_engine::{CcMode, EngineConfig};
use sicost_smallbank::{MixWeights, SmallBankConfig, Strategy, WorkloadParams};
use std::time::Duration;

fn main() {
    let mode = BenchMode::from_env();
    // A small hot set at high MPL: the interleaving density that makes
    // write skew likely within a short certified run.
    let params = WorkloadParams {
        customers: 32,
        hotspot: 4,
        p_hot: 0.95,
        mix: MixWeights::uniform(),
    };
    let bursts = match mode {
        BenchMode::Smoke => 3,
        BenchMode::Quick => 4,
        BenchMode::Full => 6,
    };
    let lines: Vec<(&str, Strategy, EngineConfig)> = vec![
        ("SI", Strategy::BaseSI, EngineConfig::functional()),
        (
            "SSI",
            Strategy::BaseSI,
            EngineConfig::functional().with_cc(CcMode::Ssi),
        ),
        (
            "MaterializeWT",
            Strategy::MaterializeWT,
            EngineConfig::functional(),
        ),
        (
            "PromoteWT-upd",
            Strategy::PromoteWTUpd,
            EngineConfig::functional(),
        ),
        (
            "MaterializeBW",
            Strategy::MaterializeBW,
            EngineConfig::functional(),
        ),
        (
            "PromoteBW-upd",
            Strategy::PromoteBWUpd,
            EngineConfig::functional(),
        ),
        (
            "MaterializeALL",
            Strategy::MaterializeALL,
            EngineConfig::functional(),
        ),
    ];

    let mut report = BenchReport::new(
        "ablation_certify",
        "Ablation A7 — measured anomaly rates under online MVSG certification",
        mode,
    );
    let mut rows = Vec::new();
    for (label, strategy, engine) in &lines {
        let opts = CertifyOptions {
            label: (*label).into(),
            strategy: *strategy,
            engine: engine.clone(),
            config: SmallBankConfig::small(params.customers),
            params,
            mpl: 8,
            ramp_up: Duration::from_millis(10),
            measure: mode.measure(),
            bursts,
            base_seed: 0xA7,
        };
        let (cert, latency, _) = certify_run(&opts);
        rows.push(vec![
            cert.label.clone(),
            cert.windows_certified.to_string(),
            cert.txns_certified.to_string(),
            format!("{:.3}", cert.anomalies_per_1k()),
        ]);
        report.latency.extend(latency);
        report.certification.push(cert);
    }
    let expectation = "Plain SI scores a non-zero anomaly rate (the Bal-WC-TS \
         dangerous structure, often window-compressed to a write-skew \
         witness); SSI and every option score exactly zero — the sampler \
         never false-positives, so a zero here is evidence of safety and \
         a non-zero is proof of a non-serializable execution.";
    report.expectation = expectation.into();
    report.push_table(
        "anomaly rates",
        vec![
            "strategy".into(),
            "windows".into(),
            "txns certified".into(),
            "anomalies per 1k".into(),
        ],
        rows,
    );
    report.notes.push(format!(
        "functional engine, {} customers, hotspot {} @ {:.2}, uniform mix, MPL 8, {} bursts",
        params.customers, params.hotspot, params.p_hot, bursts
    ));
    report.emit();
}

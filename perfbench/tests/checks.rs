//! The benchmark's own checks: certification of the traced SSI runs,
//! same-seed determinism of the modelled workload, and that the
//! correctness gate rejects what it should.

use sicost_common::Money;
use sicost_perfbench::audit::{check_durability, AuditedBank};
use sicost_perfbench::spec::{set_up, Workload};
use sicost_perfbench::{model, real};
use sicost_smallbank::SmallBankWorkload;
use std::sync::Arc;
use std::time::Duration;

const WINDOW: Duration = Duration::from_secs(1);

#[test]
fn traced_ssi_mem_history_certifies_serializable() {
    let (pass, _) = real::pass(Workload::SsiMem, 11, WINDOW, true, 1).expect("checks pass");
    let cert = pass.cert.expect("SSI workloads are certified");
    assert!(cert.transactions_certified > 1_000, "{cert:?}");
    assert_eq!(cert.anomalies(), 0, "{cert:?}");
}

#[test]
fn traced_ssi_model_history_certifies_serializable() {
    let pass = model::pass(Workload::SsiHotModel, 11, WINDOW, true).expect("checks pass");
    let cert = pass.cert.expect("SSI workloads are certified");
    assert!(cert.transactions_certified > 500, "{cert:?}");
    assert_eq!(cert.anomalies(), 0, "{cert:?}");
}

/// Commits per second and failed share of one modelled pass.
fn model_figures(pass: &model::ModelPass) -> (f64, f64) {
    let failed = pass.run.serialization_failures() + pass.run.deadlocks();
    (pass.run.tps(), failed as f64 / pass.run.attempts() as f64)
}

#[test]
fn model_replays_bit_for_bit_and_spreads_little_across_seeds() {
    let a = model::pass(Workload::SsiHotModel, 5, WINDOW, false).expect("checks pass");
    let b = model::pass(Workload::SsiHotModel, 5, WINDOW, true).expect("checks pass");
    assert_eq!(
        a.report, b.report,
        "same seed, traced or not, same schedule"
    );
    assert_eq!(model_figures(&a), model_figures(&b));
    assert_eq!(a.latency.quantile_us(0.99), b.latency.quantile_us(0.99));

    // Across seeds the figures move only as much as the sampled
    // requests do.
    let figures: Vec<(f64, f64)> = [1, 2, 3]
        .into_iter()
        .map(|seed| {
            model_figures(&model::pass(Workload::SsiHotModel, seed, WINDOW, false).unwrap())
        })
        .collect();
    eprintln!(
        "smallbank-ssi-hot-model, 1 s windows, seeds 1-3 (commit_tps, failed_ratio): {figures:?}"
    );
    let spread = |f: fn(&(f64, f64)) -> f64| {
        let xs: Vec<f64> = figures.iter().map(f).collect();
        let (lo, hi) = xs
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        (hi - lo) / hi
    };
    assert!(spread(|f| f.0) < 0.10, "commit_tps spread: {figures:?}");
    assert!(spread(|f| f.1) < 0.25, "failed_ratio spread: {figures:?}");
}

#[test]
fn money_audit_rejects_a_ledger_that_does_not_add_up() {
    let (bank, _) = set_up(Workload::SsiMem, 3, None);
    let initial = bank.total_balance();
    let audited = AuditedBank::new(
        Arc::clone(&bank),
        SmallBankWorkload::new(Workload::SsiMem.params()),
    );
    assert!(audited.audit(initial).is_ok());
    assert!(audited.audit(initial + Money::cents(1)).is_err());
    assert!(audited.audit(initial - Money::cents(1)).is_err());
}

#[test]
fn durability_check_recovers_every_row() {
    for workload in [Workload::SsiMem, Workload::SiPaged8x] {
        let (bank, _) = set_up(workload, 3, None);
        bank.deposit_checking("c0000007", Money::cents(250))
            .expect("deposit commits");
        let recovered = check_durability(bank.db(), workload.engine()).expect("rows match");
        assert!(
            recovered.replayed_bytes > 0,
            "the deposit is replayed from the log"
        );
    }
}

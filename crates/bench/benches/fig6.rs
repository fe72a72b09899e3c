//! **Figure 6** — serialization-failure abort rates per transaction type
//! at MPL 20 (PostgreSQL profile), for SI and the four single-edge
//! strategies.

use sicost_bench::{abort_profile, BenchMode, BenchReport};
use sicost_engine::EngineConfig;
use sicost_smallbank::{Strategy, WorkloadParams};

fn main() {
    let mode = BenchMode::from_env();
    let pg = EngineConfig::postgres_like();
    let params = WorkloadParams::paper_default();
    let strategies = [
        Strategy::BaseSI,
        Strategy::MaterializeBW,
        Strategy::PromoteBWUpd,
        Strategy::MaterializeWT,
        Strategy::PromoteWTUpd,
    ];
    let kinds = [
        "Balance",
        "WriteCheck",
        "TransactSaving",
        "Amalgamate",
        "DepositChecking",
    ];
    let mut rows = Vec::new();
    for strategy in strategies {
        let profile = abort_profile(&pg, strategy, &params, mode, 20);
        let get = |name: &str| {
            profile
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, r)| *r)
                .unwrap_or(0.0)
        };
        let mut row = vec![strategy.name().to_string()];
        for kind in kinds {
            row.push(format!("{:.4}", get(kind)));
        }
        rows.push(row);
    }
    let expectation = "PromoteBW-upd shows clearly higher abort rates \
         for Balance, DepositChecking and Amalgamate (Bal's promoted \
         Checking write now contends with DC and Amg); the WT strategies \
         and MaterializeBW stay near SI's profile.";
    let mut report = BenchReport::new(
        "fig6",
        "Figure 6 — serialization-failure abort rate per transaction type (MPL 20)",
        mode,
    );
    report.expectation = expectation.into();
    let mut columns = vec!["strategy".to_string()];
    columns.extend(kinds.iter().map(|k| format!("{k} abort fraction")));
    report.push_table("abort rates at MPL 20", columns, rows);
    report.emit();
}

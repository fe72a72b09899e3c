//! **Table I** — "Overview of tables updated with each option."
//!
//! Derives, from the SDG toolkit (not hand-written), which tables each
//! strategy makes each of the five programs additionally update, and
//! prints the table in the paper's layout.

use sicost_bench::{BenchMode, BenchReport};
use sicost_core::SfuTreatment;
use sicost_smallbank::sdg_spec::{table_i_row, AMG, BAL, DC, TS, WC};
use sicost_smallbank::Strategy;

fn main() {
    let mut report_rows = Vec::new();
    for strategy in Strategy::all() {
        if strategy == Strategy::BaseSI {
            continue;
        }
        // The sfu variants are defined on the commercial platform.
        let sfu = if strategy.uses_sfu() {
            SfuTreatment::AsWrite
        } else {
            SfuTreatment::AsLockOnly
        };
        let rows = table_i_row(strategy, sfu);
        let cell = |p: &str| {
            rows.iter()
                .find(|(n, _)| n == p)
                .map(|(_, extra)| {
                    if extra.is_empty() {
                        "-".to_string()
                    } else {
                        extra.join("+")
                    }
                })
                .unwrap_or_default()
        };
        report_rows.push(vec![
            strategy.name().to_string(),
            cell(BAL),
            cell(WC),
            cell(TS),
            cell(AMG),
            cell(DC),
        ]);
    }
    let expectation = "WT options touch only WC/TS; BW options and the ALL \
         options add writes to the read-only Balance; MaterializeALL puts a \
         Conflict update in every program (two rows in Amalgamate).";
    let mut report = BenchReport::new(
        "table1",
        "Table I — tables updated by each option (derived from the SDG toolkit)",
        BenchMode::from_env(),
    );
    report.expectation = expectation.into();
    report.push_table(
        "tables updated by each option",
        ["option", BAL, WC, TS, AMG, DC]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        report_rows,
    );
    report.emit();
}

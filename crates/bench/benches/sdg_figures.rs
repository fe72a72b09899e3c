//! **Figures 1–3** — the SmallBank SDG and the SDGs after each option.
//!
//! Reports the ASCII edge listing (dashed `--v-->` = vulnerable, as in the
//! paper's dashed edges) and prints GraphViz DOT for: the base mix (Figure 1),
//! Option WT (Figure 2), and Option BW (Figure 3, both sub-figures),
//! each produced by *applying* the strategy through the toolkit and
//! re-analysing.

use sicost_bench::{BenchMode, BenchReport};
use sicost_core::{verify_safe, SfuTreatment};
use sicost_smallbank::sdg_spec::{plan_for, smallbank_sdg};
use sicost_smallbank::Strategy;

fn show(rows: &mut Vec<Vec<String>>, title: &str, sdg: &sicost_core::Sdg) {
    println!("DOT for {title}:\n{}", sdg.to_dot());
    rows.push(vec![
        title.to_string(),
        sdg.to_ascii(),
        sdg.is_si_serializable().to_string(),
    ]);
}

fn main() {
    let mut rows = Vec::new();
    let base = smallbank_sdg(SfuTreatment::AsLockOnly);
    show(
        &mut rows,
        "Figure 1 — SDG for the SmallBank benchmark",
        &base,
    );

    for (figure, strategy) in [
        (
            "Figure 2 — SDG for Option WT (MaterializeWT)",
            Strategy::MaterializeWT,
        ),
        (
            "Figure 2 — SDG for Option WT (PromoteWT-upd)",
            Strategy::PromoteWTUpd,
        ),
        (
            "Figure 3(a) — SDG for MaterializeBW",
            Strategy::MaterializeBW,
        ),
        (
            "Figure 3(b) — SDG for PromoteBW-upd",
            Strategy::PromoteBWUpd,
        ),
    ] {
        let (_, re) = verify_safe(&base, &plan_for(strategy), SfuTreatment::AsLockOnly)
            .expect("strategy applies");
        show(&mut rows, figure, &re);
        assert!(re.is_si_serializable(), "{figure} must be safe");
    }

    // The sfu variants, on the platform where they work.
    let base_w = smallbank_sdg(SfuTreatment::AsWrite);
    for (figure, strategy) in [
        (
            "Figure 2 (commercial) — PromoteWT-sfu",
            Strategy::PromoteWTSfu,
        ),
        (
            "Figure 3 (commercial) — PromoteBW-sfu",
            Strategy::PromoteBWSfu,
        ),
    ] {
        let (_, re) =
            verify_safe(&base_w, &plan_for(strategy), SfuTreatment::AsWrite).expect("applies");
        show(&mut rows, figure, &re);
        assert!(re.is_si_serializable(), "{figure} must be safe");
    }

    let expectation = "Figure 1 has vulnerable edges Bal→WC, Bal→TS, \
         Bal→DC, Bal→Amg, WC→TS and exactly one dangerous structure \
         Bal→WC→TS; every option's SDG has none.";
    let mut report = BenchReport::new(
        "sdg_figures",
        "Figures 1–3 — the SmallBank SDG and the SDGs after each option",
        BenchMode::from_env(),
    );
    report.expectation = expectation.into();
    report.push_table(
        "SDG edge listings",
        vec![
            "figure".into(),
            "edges (ascii, dashed = vulnerable)".into(),
            "SI-serializable".into(),
        ],
        rows,
    );
    report.emit();
}

//! The data-driven harness registry stays in sync with reality: every
//! name in `src/harnesses.txt` has a bench target under `benches/`, and
//! every bench target is registered — adding a harness without listing it
//! (or vice versa) fails here, not in CI's `bench_summary` gate.

use sicost_bench::expected_harnesses;
use sicost_common::Json;
use std::collections::BTreeSet;
use std::path::PathBuf;

fn bench_target_stems() -> BTreeSet<String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("benches");
    std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .map(|entry| entry.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "rs"))
        .map(|p| {
            p.file_stem()
                .expect("bench file has a stem")
                .to_string_lossy()
                .into_owned()
        })
        .collect()
}

#[test]
fn registry_matches_bench_targets() {
    let registered: BTreeSet<String> = expected_harnesses().into_iter().collect();
    assert_eq!(
        registered.len(),
        expected_harnesses().len(),
        "harnesses.txt contains duplicates"
    );
    let targets = bench_target_stems();
    let unregistered: Vec<_> = targets.difference(&registered).collect();
    let phantom: Vec<_> = registered.difference(&targets).collect();
    assert!(
        unregistered.is_empty(),
        "bench targets missing from src/harnesses.txt: {unregistered:?}"
    );
    assert!(
        phantom.is_empty(),
        "harnesses.txt lists names with no benches/*.rs target: {phantom:?}"
    );
}

#[test]
fn registry_includes_recovery_and_keeps_order() {
    let names = expected_harnesses();
    assert!(names.iter().any(|n| n == "recovery"));
    assert_eq!(names.first().map(String::as_str), Some("table1"));
}

#[test]
fn committed_summary_folds_every_registered_harness() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_smallbank.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let summary = Json::parse(&text).expect("summary parses");
    let Some(Json::Obj(reports)) = summary.get("reports") else {
        panic!("summary has no `reports` object");
    };
    let folded: Vec<&str> = reports.iter().map(|(name, _)| name.as_str()).collect();
    let expected = expected_harnesses();
    assert_eq!(
        folded, expected,
        "BENCH_smallbank.json is stale: regenerate it with scripts/bench_summary.sh"
    );
    assert_eq!(
        summary.get("harnesses").and_then(|h| h.as_u64()),
        Some(expected.len() as u64)
    );
}

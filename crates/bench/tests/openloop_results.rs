//! The committed `bench_results/openloop.json` report carries the full
//! open-system story: goodput and p50/p95/p99 end-to-end latency per
//! offered-load point, for every strategy × admission-policy line, and
//! the headline claim — drop-on-full bounds the p99 tail that the
//! unbounded queue lets diverge at 2× saturation — holds in the data,
//! not just in the harness's own assertions.

use sicost_bench::{results_dir, BenchReport, ReportSeries};

const STRATEGIES: [&str; 2] = ["SI", "PromoteALL"];
const POLICIES: [&str; 2] = ["unbounded", "drop-on-full"];

fn committed_report() -> BenchReport {
    let path = results_dir().join("openloop.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing committed report {}: {e}", path.display()));
    BenchReport::parse(&text).expect("committed openloop report parses")
}

fn series<'a>(report: &'a BenchReport, label: &str) -> &'a ReportSeries {
    report
        .series
        .iter()
        .find(|s| s.label == label)
        .unwrap_or_else(|| {
            panic!(
                "series `{label}` missing; have {:?}",
                report.series.iter().map(|s| &s.label).collect::<Vec<_>>()
            )
        })
}

#[test]
fn report_identifies_itself_and_the_axis() {
    let report = committed_report();
    assert_eq!(report.name, "openloop");
    assert!(
        report.x_label.contains("offered load"),
        "x axis is offered load: {:?}",
        report.x_label
    );
    assert!(!report.expectation.is_empty());
}

#[test]
fn every_line_has_goodput_and_p99_across_the_sweep() {
    let report = committed_report();
    for strategy in STRATEGIES {
        for policy in POLICIES {
            for metric in ["goodput tps", "p99 ms"] {
                let s = series(&report, &format!("{strategy}/{policy} {metric}"));
                assert!(
                    s.points.len() >= 2,
                    "`{}` needs at least the 0.5× and 2× endpoints",
                    s.label
                );
                assert!(
                    s.points.windows(2).all(|w| w[0].x < w[1].x),
                    "`{}` x values ascend",
                    s.label
                );
                assert!(
                    s.points.iter().all(|p| p.mean.is_finite() && p.mean > 0.0),
                    "`{}` means are positive and finite",
                    s.label
                );
                // The sweep reaches 2× saturation, where the policies split.
                assert!(s.points.iter().any(|p| (p.x - 2.0).abs() < 1e-9));
            }
        }
    }
}

/// The acceptance claim, re-checked from the committed artifact: at the
/// 2×-saturation point, load shedding keeps p99 end-to-end latency
/// strictly below the unbounded queue's for every strategy.
#[test]
fn drop_on_full_bounds_p99_at_twice_saturation() {
    let report = committed_report();
    for strategy in STRATEGIES {
        let p99_at_2x = |policy: &str| {
            series(&report, &format!("{strategy}/{policy} p99 ms"))
                .at(2.0)
                .unwrap_or_else(|| panic!("{strategy}/{policy} has no point at 2×"))
        };
        let (unbounded, dropping) = (p99_at_2x("unbounded"), p99_at_2x("drop-on-full"));
        assert!(
            dropping < unbounded,
            "{strategy}: committed report must show drop-on-full p99 \
             ({dropping:.1} ms) below unbounded ({unbounded:.1} ms) at 2×"
        );
    }
}

#[test]
fn sweep_table_rows_are_complete_and_coherent() {
    let report = committed_report();
    let table = report
        .tables
        .iter()
        .find(|t| t.title == "open-loop sweep")
        .expect("sweep table present");
    assert_eq!(
        table.columns,
        vec![
            "strategy",
            "policy",
            "x peak",
            "offered tps",
            "shed %",
            "goodput tps",
            "p50 ms",
            "p95 ms",
            "p99 ms"
        ]
    );
    // One row per strategy × policy × offered-load point.
    let points = report.series[0].points.len();
    assert_eq!(table.rows.len(), STRATEGIES.len() * POLICIES.len() * points);
    for row in &table.rows {
        assert_eq!(row.len(), table.columns.len());
        let num = |i: usize| -> f64 {
            row[i]
                .parse()
                .unwrap_or_else(|e| panic!("cell {:?} is numeric: {e}", row[i]))
        };
        assert!(num(5) > 0.0, "goodput is positive: {row:?}");
        // Quantiles are monotone per run, so their per-point means are too.
        assert!(num(6) <= num(7) && num(7) <= num(8), "p50≤p95≤p99: {row:?}");
    }
}

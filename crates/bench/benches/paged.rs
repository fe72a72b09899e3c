//! **A14** — paged storage: buffer-pool hit rate and throughput as the
//! working set outgrows the pool, for BaseSI, SSI, and a paper fix.
//!
//! The paper's engines hold everything in memory; this harness asks what
//! the strategies cost when SmallBank's version chains live on pages
//! behind a bounded buffer pool. One calibration build measures the
//! workload's working set in pages; the sweep then shrinks the pool to
//! 1×, 2×, 4× and 8× *undersized* (working-set-to-pool ratio) and runs
//! each strategy line twice per cell:
//!
//! * **cold** — right after [`cool_pages`] drops every resident frame
//!   (the `drop_caches` analogue), so the window starts by faulting its
//!   pages in from the heap;
//! * **warm** — the same window again, with whatever the pool retained.
//!
//! Page I/O charges a simulated per-page device latency and the pool
//! serializes it like a single data disk, so hit rate is throughput:
//! the full-size pool must beat the 8×-undersized one, and its warm
//! window must run miss-free.
//!
//! Every cell also appends a JSONL line to
//! `target/paged-trace/trace.jsonl`; CI uploads the file when the
//! harness fails, so a regressed cell's pool counters survive the run.
//!
//! [`cool_pages`]: sicost_engine::Database::cool_pages

use sicost_bench::{summarize, BenchMode, BenchReport, ReportSeries};
use sicost_driver::{run, RetryPolicy, RunConfig};
use sicost_engine::{CcMode, EngineConfig};
use sicost_smallbank::{
    SmallBank, SmallBankConfig, SmallBankDriver, SmallBankWorkload, Strategy, WorkloadParams,
};
use sicost_storage::{PagedConfig, PoolStats, StoragePolicy};
use std::io::Write as _;
use std::sync::Arc;
use std::time::Duration;

const MPL: usize = 4;
/// Simulated device latency per page read/write. The functional engine
/// is otherwise free, so misses are the dominant cost and the hit-rate
/// curve shows up in throughput.
const PAGE_LATENCY: Duration = Duration::from_micros(100);

/// Strategy lines: the baseline, the serializable certifier, and one
/// paper fix whose Conflict-table rows also live on pages.
const LINES: &[(&str, CcMode, Strategy)] = &[
    ("BaseSI", CcMode::SiFirstUpdaterWins, Strategy::BaseSI),
    ("SSI", CcMode::Ssi, Strategy::BaseSI),
    (
        "MaterializeWT",
        CcMode::SiFirstUpdaterWins,
        Strategy::MaterializeWT,
    ),
];

/// Working-set-to-pool ratios swept per line (1 = pool fits everything).
const RATIOS: &[u64] = &[1, 2, 4, 8];

struct Cell {
    ratio: u64,
    pool_pages: u64,
    cold_tps: f64,
    warm_tps: f64,
    cold_hit: f64,
    warm_hit: f64,
    warm_misses: u64,
    evictions: u64,
}

fn paged(pages_per_table: u64, pool_pages: u64) -> StoragePolicy {
    StoragePolicy::Paged(
        PagedConfig::default()
            .with_pages_per_table(pages_per_table as u32)
            .with_pool_pages(pool_pages as usize)
            .with_page_read_latency(PAGE_LATENCY)
            .with_page_write_latency(PAGE_LATENCY),
    )
}

fn build(
    customers: u64,
    pages_per_table: u64,
    pool_pages: u64,
    cc: CcMode,
    strategy: Strategy,
) -> (Arc<SmallBank>, SmallBankDriver) {
    let engine = EngineConfig::functional()
        .with_cc(cc)
        .with_storage(paged(pages_per_table, pool_pages));
    let bank = Arc::new(SmallBank::new(
        &SmallBankConfig::small(customers),
        engine,
        strategy,
    ));
    // Hot set == population: effectively uniform access, so an
    // undersized pool cannot hide behind a cacheable hotspot.
    let params = WorkloadParams::paper_default().scaled(customers, customers);
    let driver = SmallBankDriver::new(Arc::clone(&bank), SmallBankWorkload::new(params));
    (bank, driver)
}

/// The workload's working set in pages: population touches every page
/// its keys hash to, and an oversized pool retains all of them.
fn working_set_pages(customers: u64, pages_per_table: u64, strategy: Strategy) -> u64 {
    let (bank, _driver) = build(
        customers,
        pages_per_table,
        pages_per_table * 8,
        CcMode::SiFirstUpdaterWins,
        strategy,
    );
    bank.db()
        .metrics()
        .pool
        .expect("paged backend exports the pool gauge")
        .resident
}

fn window(seed: u64, mode: BenchMode) -> RunConfig {
    RunConfig::new(MPL)
        .with_ramp_up(Duration::from_millis(10))
        .with_measure(mode.measure() / 2)
        .with_seed(seed)
        .with_retry(RetryPolicy::disabled())
}

fn pool_of(bank: &SmallBank) -> PoolStats {
    bank.db()
        .metrics()
        .pool
        .expect("paged backend exports the pool gauge")
}

fn hit_rate_delta(before: &PoolStats, after: &PoolStats) -> f64 {
    let hits = after.hits - before.hits;
    let total = hits + (after.misses - before.misses);
    if total == 0 {
        1.0
    } else {
        hits as f64 / total as f64
    }
}

fn run_cell(
    line: &(&str, CcMode, Strategy),
    customers: u64,
    pages_per_table: u64,
    ws: u64,
    ratio: u64,
    mode: BenchMode,
) -> Cell {
    let (label, cc, strategy) = *line;
    let pool_pages = (ws / ratio).max(2);
    let (bank, driver) = build(customers, pages_per_table, pool_pages, cc, strategy);
    bank.db()
        .checkpoint()
        .expect("post-population checkpoint flushes the pool");
    let dropped = bank
        .db()
        .cool_pages()
        .expect("paged backend supports cool-down");
    assert!(
        dropped > 0,
        "{label}/{ratio}x: nothing was resident to drop"
    );

    let s0 = pool_of(&bank);
    assert_eq!(s0.resident, 0, "{label}/{ratio}x: cool-down left residents");
    assert_eq!(s0.capacity, pool_pages, "{label}/{ratio}x");
    let cold = run(&driver, &window(0xA14 ^ ratio, mode));
    let s1 = pool_of(&bank);
    let warm = run(&driver, &window(0xA1400 ^ ratio, mode));
    let s2 = pool_of(&bank);

    Cell {
        ratio,
        pool_pages,
        cold_tps: cold.tps(),
        warm_tps: warm.tps(),
        cold_hit: hit_rate_delta(&s0, &s1),
        warm_hit: hit_rate_delta(&s1, &s2),
        warm_misses: s2.misses - s1.misses,
        evictions: s2.evictions - s0.evictions,
    }
}

fn main() {
    let mode = BenchMode::from_env();
    let (customers, pages_per_table): (u64, u64) = match mode {
        BenchMode::Smoke => (128, 16),
        BenchMode::Quick => (512, 32),
        BenchMode::Full => (1024, 64),
    };

    // Anchored at the workspace root (cargo runs benches from the
    // package dir), matching the CI artifact path target/paged-trace/.
    let trace_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/paged-trace");
    std::fs::create_dir_all(trace_dir).expect("create trace dir");
    let mut trace = std::io::BufWriter::new(
        std::fs::File::create(format!("{trace_dir}/trace.jsonl")).expect("create pool trace"),
    );

    let mut report = BenchReport::new(
        "paged",
        "A14 — paged storage: buffer-pool hit rate and throughput as the working set \
         outgrows the pool (BaseSI vs SSI vs MaterializeWT)",
        mode,
    );
    let mut hit_series = Vec::new();
    let mut tps_series = Vec::new();
    let mut rows = Vec::new();
    for &(label, cc, strategy) in LINES {
        let ws = working_set_pages(customers, pages_per_table, strategy);
        assert!(ws > 8, "{label}: working set of {ws} pages is too small");
        let mut hits = ReportSeries::new(format!("{label} warm hit rate"));
        let mut tps = ReportSeries::new(format!("{label} warm tps"));
        let mut cells = Vec::new();
        for &ratio in RATIOS {
            let cell = run_cell(
                &(label, cc, strategy),
                customers,
                pages_per_table,
                ws,
                ratio,
                mode,
            );
            writeln!(
                trace,
                "{{\"line\":\"{label}\",\"ratio\":{},\"ws_pages\":{ws},\"pool_pages\":{},\
                 \"cold_tps\":{:.1},\"warm_tps\":{:.1},\"cold_hit\":{:.4},\"warm_hit\":{:.4},\
                 \"warm_misses\":{},\"evictions\":{}}}",
                cell.ratio,
                cell.pool_pages,
                cell.cold_tps,
                cell.warm_tps,
                cell.cold_hit,
                cell.warm_hit,
                cell.warm_misses,
                cell.evictions,
            )
            .expect("append pool trace");
            hits.push(ratio as f64, summarize(&[cell.warm_hit]));
            tps.push(ratio as f64, summarize(&[cell.warm_tps]));
            rows.push(vec![
                label.to_string(),
                format!("{}x", cell.ratio),
                ws.to_string(),
                cell.pool_pages.to_string(),
                format!("{:.0}", cell.cold_tps),
                format!("{:.0}", cell.warm_tps),
                format!("{:.3}", cell.cold_hit),
                format!("{:.3}", cell.warm_hit),
                cell.warm_misses.to_string(),
                cell.evictions.to_string(),
            ]);
            cells.push(cell);
        }

        // --- Structural claims, per line. The trace is flushed first so
        // a failing cell still leaves its counters on disk for CI.
        trace.flush().expect("flush pool trace");
        let full = &cells[0];
        let tight = cells.last().expect("at least one ratio");
        assert_eq!(
            full.warm_misses, 0,
            "{label}: a pool the size of the working set must run its warm window miss-free"
        );
        assert!(
            full.cold_hit < 1.0,
            "{label}: the cold window must fault pages in"
        );
        assert!(
            tight.evictions > 0,
            "{label}: an 8x-undersized pool must evict"
        );
        assert!(
            full.warm_hit > tight.warm_hit,
            "{label}: warm hit rate must fall with pool pressure \
             ({:.3} at 1x vs {:.3} at {}x)",
            full.warm_hit,
            tight.warm_hit,
            tight.ratio
        );
        assert!(
            full.warm_tps > tight.warm_tps,
            "{label}: page latency must make the undersized pool slower \
             ({:.0} tps at 1x vs {:.0} tps at {}x)",
            full.warm_tps,
            tight.warm_tps,
            tight.ratio
        );
        hit_series.push(hits);
        tps_series.push(tps);
    }
    report.push_series("working-set-to-pool ratio", hit_series);
    report.push_series("working-set-to-pool ratio", tps_series);
    report.push_table(
        "pool pressure sweep",
        vec![
            "line".into(),
            "ws/pool".into(),
            "working set (pages)".into(),
            "pool (pages)".into(),
            "cold tps".into(),
            "warm tps".into(),
            "cold hit rate".into(),
            "warm hit rate".into(),
            "warm misses".into(),
            "evictions".into(),
        ],
        rows,
    );
    let expectation = "With the pool at working-set size, the warm window runs \
         miss-free at full throughput for every strategy; as the pool shrinks to \
         8x undersized, hit rate falls and the charged page latency drags \
         throughput down with it. SSI pays the same paging bill as BaseSI (its \
         certifier state is not paged), and MaterializeWT's hot Conflict rows \
         stay cached even under pressure because materialization concentrates \
         writes on few pages.";
    report.expectation = expectation.into();
    report.notes.push(format!(
        "functional engine, paged backend, {customers} customers (uniform access), \
         {pages_per_table} pages/table, {PAGE_LATENCY:?}/page i/o, MPL {MPL}, \
         cold window measured right after Database::cool_pages"
    ));
    report.emit();
}

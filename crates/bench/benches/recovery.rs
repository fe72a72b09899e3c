//! **A8** — recovery-time harness: restart cost with and without
//! steady-state checkpointing.
//!
//! A SmallBank instance runs a deterministic single-threaded workload,
//! then recovery is measured from its durable image (checkpoint slots,
//! manifests, WAL). The baseline takes exactly one checkpoint right
//! after population (bulk load bypasses the WAL, so some checkpoint must
//! cover it) and recovery replays the *entire* workload history; the
//! other scenarios auto-checkpoint every k commits, and recovery replays
//! only the suffix since the last one — the O(history) → O(delta) claim,
//! measured in replayed bytes, replayed records, and restart wall-clock.
//!
//! Every recovered instance is audited with the SmallBank
//! balance-conservation oracle before its numbers are reported.
//!
//! A second section compares what one mid-run checkpoint *writes* on the
//! two storage backends: the in-memory engine snapshots every table into
//! the checkpoint frame, while the paged engine flushes only the dirty
//! pages and writes a fixed-size frame — the incremental-checkpoint
//! claim, asserted as a >10x frame-size gap on the same workload.

use sicost_bench::{summarize, BenchMode, BenchReport, ReportSeries};
use sicost_common::{Money, Xoshiro256};
use sicost_engine::{CheckpointPolicy, EngineConfig};
use sicost_smallbank::schema::{customer_name, recover_database, total_balance};
use sicost_smallbank::{SmallBank, SmallBankConfig, Strategy};
use sicost_storage::{PagedConfig, StoragePolicy};
use std::time::Instant;

struct RunStats {
    appended_bytes: f64,
    replayed_bytes: f64,
    replayed_records: f64,
    recovery_us: f64,
    checkpoints: f64,
}

fn run_once(checkpoint_every: Option<u64>, ops: u64, customers: u64, seed: u64) -> RunStats {
    let engine = match checkpoint_every {
        Some(k) => EngineConfig::functional().with_checkpoints(CheckpointPolicy::every_commits(k)),
        None => EngineConfig::functional(),
    };
    let bank = SmallBank::new(&SmallBankConfig::small(customers), engine, Strategy::BaseSI);
    bank.db()
        .checkpoint()
        .expect("initial checkpoint covering the bulk-loaded population");

    let mut rng = Xoshiro256::seed_from_u64(seed);
    for _ in 0..ops {
        let c = customer_name(rng.range_inclusive(0, customers as i64 - 1) as u64);
        let amount = Money::cents(rng.range_inclusive(1, 500));
        // Deposits only: always valid, so the single-threaded run commits
        // every op and the workload is identical across scenarios.
        if rng.next_u64() % 2 == 0 {
            bank.deposit_checking(&c, amount).expect("deposit commits");
        } else {
            bank.transact_saving(&c, amount).expect("transact commits");
        }
    }

    let live_balance = bank.total_balance();
    let metrics = bank.db().metrics();
    let image = bank.db().durable_image();
    let t0 = Instant::now();
    let (rdb, rtables, outcome) =
        recover_database(EngineConfig::functional(), &image).expect("recovery succeeds");
    let recovery_us = t0.elapsed().as_secs_f64() * 1e6;
    assert!(
        outcome.checkpoint.is_some(),
        "every scenario has at least the post-population checkpoint"
    );
    assert_eq!(
        total_balance(&rdb, &rtables),
        live_balance,
        "balance conservation across recovery"
    );
    RunStats {
        appended_bytes: bank.db().wal_stats().appended_bytes as f64,
        replayed_bytes: outcome.replayed_bytes as f64,
        replayed_records: outcome.replayed_records as f64,
        recovery_us,
        checkpoints: metrics.checkpoints_taken as f64,
    }
}

/// What one mid-run checkpoint costs on a backend: the frame it wrote
/// (a whole-table image in memory, a fixed-size page manifest on the
/// paged backend) and the dirty pages it flushed.
struct CheckpointCost {
    image_bytes: u64,
    rows: u64,
    pages_flushed: u64,
}

/// Runs the same deterministic deposit prefix on `storage`, takes one
/// measured checkpoint, then recovers and audits the balance.
fn checkpoint_cost(storage: StoragePolicy, ops: u64, customers: u64) -> CheckpointCost {
    let engine = || EngineConfig::functional().with_storage(storage);
    let bank = SmallBank::new(
        &SmallBankConfig::small(customers),
        engine(),
        Strategy::BaseSI,
    );
    bank.db().checkpoint().expect("post-population checkpoint");
    let mut rng = Xoshiro256::seed_from_u64(0xA8F1);
    for _ in 0..ops {
        let c = customer_name(rng.range_inclusive(0, customers as i64 - 1) as u64);
        bank.deposit_checking(&c, Money::cents(rng.range_inclusive(1, 99)))
            .expect("single-threaded deposit");
    }
    let out = bank.db().checkpoint().expect("measured checkpoint");
    let live = bank.total_balance();
    let (rdb, rtables, _) =
        recover_database(engine(), &bank.db().durable_image()).expect("recovery succeeds");
    assert_eq!(
        total_balance(&rdb, &rtables),
        live,
        "balance conservation across recovery on {storage}"
    );
    CheckpointCost {
        image_bytes: out.image_bytes,
        rows: out.rows as u64,
        pages_flushed: out.pages_flushed,
    }
}

fn main() {
    let mode = BenchMode::from_env();
    let (ops, customers) = match mode {
        BenchMode::Smoke => (300u64, 32u64),
        BenchMode::Quick => (2_000, 64),
        BenchMode::Full => (8_000, 64),
    };
    // x = checkpoint interval in commits; 0 = the init-only baseline,
    // which must run first. Scenarios run in ascending x, the order a
    // report series requires.
    let scenarios: Vec<(String, Option<u64>)> = vec![
        ("init-only".into(), None),
        (format!("every-{}", ops / 32), Some(ops / 32)),
        (format!("every-{}", ops / 8), Some(ops / 8)),
    ];

    let mut report = BenchReport::new(
        "recovery",
        "A8 — restart cost: full-history replay vs post-checkpoint suffix replay",
        mode,
    );
    let mut bytes_series = ReportSeries::new("replayed bytes");
    let mut time_series = ReportSeries::new("recovery µs");
    let mut rows = Vec::new();
    let mut baseline_bytes = f64::NAN;
    for (label, every) in &scenarios {
        let runs: Vec<RunStats> = (0..mode.repeats())
            .map(|r| run_once(*every, ops, customers, 0xA8_0000 + r))
            .collect();
        let bytes = summarize(&runs.iter().map(|r| r.replayed_bytes).collect::<Vec<_>>());
        let recs = summarize(&runs.iter().map(|r| r.replayed_records).collect::<Vec<_>>());
        let us = summarize(&runs.iter().map(|r| r.recovery_us).collect::<Vec<_>>());
        let appended = runs[0].appended_bytes;
        let ckpts = runs[0].checkpoints;
        if every.is_none() {
            baseline_bytes = bytes.mean;
        } else {
            assert!(
                bytes.mean < baseline_bytes,
                "suffix replay ({}) must read fewer bytes than full-history replay ({baseline_bytes})",
                bytes.mean
            );
        }
        let x = every.unwrap_or(0) as f64;
        bytes_series.push(x, bytes);
        time_series.push(x, us);
        let delta = 100.0 * bytes.mean / baseline_bytes;
        rows.push(vec![
            label.clone(),
            format!("{ckpts:.0}"),
            format!("{appended:.0}"),
            format!("{:.0}", bytes.mean),
            format!("{:.0}", recs.mean),
            format!("{:.0}", us.mean),
            format!("{delta:.1}"),
        ]);
    }

    // --- Incremental vs full-image checkpoint cost. The same deposit
    // prefix runs on both backends; the mid-run checkpoint then writes a
    // whole-table image in memory but only the dirty pages plus a
    // fixed-size frame on the paged backend.
    let ckpt_ops = ops / 4;
    let full_img = checkpoint_cost(StoragePolicy::InMemory, ckpt_ops, customers);
    let paged_img = checkpoint_cost(
        StoragePolicy::Paged(PagedConfig::default()),
        ckpt_ops,
        customers,
    );
    assert!(
        paged_img.image_bytes < full_img.image_bytes / 10,
        "the paged checkpoint frame ({} bytes) must be a small fraction of the \
         full-table image ({} bytes)",
        paged_img.image_bytes,
        full_img.image_bytes
    );
    assert_eq!(paged_img.rows, 0, "paged checkpoints snapshot no rows");
    assert!(paged_img.pages_flushed > 0, "dirty pages must have flushed");
    assert_eq!(full_img.pages_flushed, 0, "in-memory flushes no pages");
    eprintln!("  [A8] checkpoint frames measured after {ckpt_ops} commits");

    report.push_series(
        "checkpoint interval (commits; 0 = init-only)",
        [bytes_series, time_series],
    );
    report.push_table(
        "recovery cost",
        vec![
            "scenario".into(),
            "checkpoints".into(),
            "wal bytes appended".into(),
            "bytes replayed".into(),
            "records replayed".into(),
            "recovery µs".into(),
            "% of full replay".into(),
        ],
        rows,
    );
    report.push_table(
        "incremental vs full-image checkpoint",
        vec![
            "backend".into(),
            "frame bytes".into(),
            "rows snapshotted".into(),
            "dirty pages flushed".into(),
        ],
        vec![
            vec![
                "in-memory".into(),
                full_img.image_bytes.to_string(),
                full_img.rows.to_string(),
                full_img.pages_flushed.to_string(),
            ],
            vec![
                "paged".into(),
                paged_img.image_bytes.to_string(),
                paged_img.rows.to_string(),
                paged_img.pages_flushed.to_string(),
            ],
        ],
    );
    let expectation = "Replayed bytes scale with the checkpoint interval, not the \
         run length: the init-only baseline replays the whole workload \
         history, while every auto-checkpointing scenario replays only \
         the tail since its last checkpoint — strictly fewer bytes, \
         asserted per run after the balance-conservation audit passes.";
    report.expectation = expectation.into();
    report.notes.push(format!(
        "functional engine, {customers} customers, {ops} single-threaded deposit ops, {} repeats",
        mode.repeats()
    ));
    report.emit();
}

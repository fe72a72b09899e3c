//! Micro-benchmarks of the engine primitives: the costs the macro
//! figures are built from. Self-harnessed (`harness = false`) with a
//! plain timing loop so the suite builds offline with no external
//! benchmarking crate.
//!
//! ```sh
//! cargo bench --bench micro
//! ```

use sicost_bench::{BenchMode, BenchReport};
use sicost_common::Xoshiro256;
use sicost_core::SfuTreatment;
use sicost_engine::{Database, EngineConfig};
use sicost_mvsg::Mvsg;
use sicost_smallbank::sdg_spec;
use sicost_storage::{ColumnDef, ColumnType, Row, TableSchema, Value};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Warm up briefly, then time `iters` calls of `f` and append a report
/// row with its ns/op.
fn bench(rows: &mut Vec<Vec<String>>, name: &str, mut f: impl FnMut()) {
    for _ in 0..1_000 {
        f();
    }
    // Grow the batch until a run takes long enough to time reliably.
    let mut iters = 1_000u64;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        if elapsed >= Duration::from_millis(200) || iters >= 1 << 24 {
            let ns = elapsed.as_nanos() as f64 / iters as f64;
            rows.push(vec![
                name.to_string(),
                format!("{ns:.1}"),
                iters.to_string(),
            ]);
            return;
        }
        iters *= 4;
    }
}

fn test_db(rows: i64) -> Database {
    let db = Database::builder()
        .table(
            TableSchema::new(
                "T",
                vec![
                    ColumnDef::new("id", ColumnType::Int),
                    ColumnDef::new("v", ColumnType::Int),
                ],
                0,
                vec![],
            )
            .unwrap(),
        )
        .unwrap()
        .config(EngineConfig::functional())
        .build();
    let tid = db.table_id("T").unwrap();
    db.bulk_load(
        tid,
        (0..rows).map(|i| Row::new(vec![Value::int(i), Value::int(i)])),
    )
    .unwrap();
    db
}

fn bench_engine_ops(rows: &mut Vec<Vec<String>>) {
    let db = test_db(10_000);
    let tid = db.table_id("T").unwrap();

    let mut i = 0i64;
    bench(rows, "engine/read_only_txn_3_reads", || {
        let mut tx = db.begin();
        for k in 0..3 {
            black_box(tx.read(tid, &Value::int((i + k) % 10_000)).unwrap());
        }
        tx.commit().unwrap();
        i = (i + 7) % 10_000;
    });

    let mut i = 0i64;
    bench(rows, "engine/update_txn_read_write_commit", || {
        let mut tx = db.begin();
        let key = Value::int(i % 10_000);
        let row = tx.read(tid, &key).unwrap().unwrap();
        let v = row.int(1);
        tx.update(tid, &key, Row::new(vec![key.clone(), Value::int(v + 1)]))
            .unwrap();
        black_box(tx.commit().unwrap());
        i = (i + 13) % 10_000;
    });
}

fn bench_lock_manager(rows: &mut Vec<Vec<String>>) {
    use sicost_common::{TableId, TxnId};
    use sicost_engine::locks::{LockManager, LockMode, LockTarget};
    let lm = LockManager::new();
    let mut i = 0u64;
    bench(rows, "locks/acquire_release_uncontended", || {
        let txn = TxnId(i);
        let t = LockTarget::row(TableId(0), Value::int((i % 1_000) as i64));
        lm.acquire(txn, &t, LockMode::X).unwrap();
        lm.release_all(txn);
        i += 1;
    });
}

fn bench_wal(rows: &mut Vec<Vec<String>>) {
    use sicost_common::{TableId, TxnId};
    use sicost_wal::{LogEntry, Wal, WalConfig};
    // One DepositChecking-sized commit record (the after-image of one
    // two-column balance row) on a log with no device latency: the
    // WAL's own CPU cost. The log is cut back every 4096 commits so it
    // stays small; the cut is amortised into the figure.
    let wal = Wal::new(WalConfig::instant());
    let mut i = 0u64;
    bench(rows, "wal/commit_instant", || {
        let key = Value::int((i % 18_000) as i64);
        let image = Some(Row::new(vec![key.clone(), Value::int(i as i64)]));
        let entry = LogEntry {
            table: TableId(2),
            key,
            image,
        };
        black_box(wal.commit(TxnId(i), vec![entry]).unwrap());
        i += 1;
        if i % 4096 == 0 {
            wal.truncate_to(wal.log_end_offset()).unwrap();
        }
    });
}

fn bench_mvsg(rows: &mut Vec<Vec<String>>) {
    use sicost_common::{TableId, Ts, TxnId};
    use sicost_engine::HistoryEvent;
    // A 10k-transaction history over 100 keys.
    let mut rng = Xoshiro256::seed_from_u64(5);
    let mut events = Vec::new();
    for t in 0..10_000u64 {
        let key = Value::int(rng.next_below(100) as i64);
        events.push(HistoryEvent::Read {
            txn: TxnId(t),
            table: TableId(0),
            key: key.clone(),
            observed: if t == 0 { None } else { Some(Ts(t)) },
        });
        events.push(HistoryEvent::Commit {
            txn: TxnId(t),
            commit_ts: Ts(t + 1),
            writes: vec![(TableId(0), key)],
        });
    }
    bench(rows, "mvsg/build_and_certify_10k_txns", || {
        let g = Mvsg::from_events(black_box(&events));
        black_box(g.certify().serializable);
    });
}

fn bench_sdg(rows: &mut Vec<Vec<String>>) {
    bench(rows, "sdg/analyse_smallbank", || {
        let sdg = sdg_spec::smallbank_sdg(black_box(SfuTreatment::AsLockOnly));
        black_box(sdg.dangerous_structures().len());
    });
}

fn bench_sampling(rows: &mut Vec<Vec<String>>) {
    use sicost_smallbank::{SmallBankWorkload, WorkloadParams};
    let wl = SmallBankWorkload::new(WorkloadParams::paper_default());
    let mut rng = Xoshiro256::seed_from_u64(9);
    bench(rows, "workload/sample_request", || {
        black_box(wl.sample(&mut rng));
    });
}

fn main() {
    let mut rows = Vec::new();
    bench_engine_ops(&mut rows);
    bench_lock_manager(&mut rows);
    bench_wal(&mut rows);
    bench_mvsg(&mut rows);
    bench_sdg(&mut rows);
    bench_sampling(&mut rows);
    let mut report = BenchReport::new(
        "micro",
        "Micro-benchmarks of the engine primitives",
        BenchMode::from_env(),
    );
    report.push_table(
        "primitive costs",
        vec!["benchmark".into(), "ns/op".into(), "iters".into()],
        rows,
    );
    report.emit();
}

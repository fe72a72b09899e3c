//! Leader-based group commit under the deterministic simulator: waves
//! of committers at chosen virtual instants, so which records share a
//! flush, and which wait behind a leader, is a pure function of the seed.

use sicost_common::sync::{sim_sleep, sim_spawn};
use sicost_common::{CrashPoint, FaultConfig, FaultInjector, TableId, TxnId};
use sicost_sim::{Sim, SimReport};
use sicost_storage::{Row, Value};
use sicost_wal::{scan_log, LogEntry, Lsn, Wal, WalConfig, WalError};
use std::sync::Arc;
use std::time::Duration;

fn entry(key: i64, val: i64) -> LogEntry {
    LogEntry {
        table: TableId(0),
        key: Value::int(key),
        image: Some(Row::new(vec![Value::int(key), Value::int(val)])),
    }
}

/// Runs one simulated task per committer under `Sim::new(seed)`. The
/// committers of wave `w` sleep `w * gap` of virtual time, then commit
/// one record each. Returns every wave's results, in spawn order.
fn commit_in_waves(
    seed: u64,
    wal: &Arc<Wal>,
    waves: &[usize],
    gap: Duration,
) -> (Vec<Vec<Result<Lsn, WalError>>>, SimReport) {
    Sim::new(seed).run(|| {
        let mut txn = 0u64;
        let handles: Vec<Vec<_>> = waves
            .iter()
            .enumerate()
            .map(|(w, &n)| {
                (0..n)
                    .map(|_| {
                        txn += 1;
                        let (wal, id) = (Arc::clone(wal), txn);
                        sim_spawn(&format!("committer-{id}"), move || {
                            sim_sleep(gap * w as u32);
                            wal.commit(TxnId(id), vec![entry(id as i64, 0)])
                        })
                    })
                    .collect()
            })
            .collect();
        handles
            .into_iter()
            .map(|wave| wave.into_iter().map(|h| h.join().unwrap()).collect())
            .collect()
    })
}

/// Gather 1 ms, sync 4 ms: a wave 2 ms behind the first queues while
/// the first wave's leader is syncing.
const WAVES: WalConfig = WalConfig {
    sync_latency: Duration::from_millis(4),
    per_record_cost: Duration::ZERO,
    commit_delay: Duration::from_millis(1),
};

#[test]
fn crash_mid_sync_fails_every_waiter_behind_the_leader() {
    // The second flush crashes. Wave 1 is durable; wave 2 waits behind
    // wave 1's leader and then leads and fills the torn batch; wave 3
    // arrives as that batch crashes.
    let f = Arc::new(FaultInjector::new(FaultConfig::crash(
        CrashPoint::DuringWalSync,
        2,
    )));
    let wal = Arc::new(Wal::with_faults(WAVES, Some(Arc::clone(&f))));
    let (results, _) = commit_in_waves(7, &wal, &[3, 3, 3], Duration::from_millis(3));
    assert!(results[0].iter().all(Result::is_ok), "{results:?}");
    for r in results[1..].iter().flatten() {
        assert_eq!(*r, Err(WalError::Crashed));
    }
    assert!(f.crashed());

    let scan = scan_log(&wal.disk_snapshot());
    assert!(scan.truncated.is_some(), "the torn tail is cut off");
    assert_eq!(scan.records, wal.log_snapshot());
    let durable: Vec<Lsn> = scan.records.iter().map(|r| r.lsn).collect();
    let mut wave_1: Vec<Lsn> = results[0].iter().map(|r| r.unwrap()).collect();
    wave_1.sort();
    assert_eq!(&durable[..3], &wave_1[..], "wave 1 leads the log");
    assert!(
        durable.len() >= 3 + 2,
        "the crashed batch wrote all but its last record: {durable:?}"
    );
}

#[test]
fn a_failed_sync_fails_only_its_own_batch() {
    // A seed whose first sync-error draw fails and second passes: one
    // draw per device sync.
    let faults = |seed| FaultInjector::new(FaultConfig::transient(seed, 0.0, 0.5));
    let seed = (0..)
        .find(|&s| {
            let f = faults(s);
            f.wal_sync_error() && !f.wal_sync_error()
        })
        .unwrap();
    let wal = Arc::new(Wal::with_faults(WAVES, Some(Arc::new(faults(seed)))));
    let (results, _) = commit_in_waves(3, &wal, &[3, 3], Duration::from_millis(2));
    for r in &results[0] {
        assert_eq!(*r, Err(WalError::SyncFailed));
    }
    let lsns: Vec<Lsn> = results[1].iter().map(|r| r.unwrap()).collect();

    let scan = scan_log(&wal.disk_snapshot());
    assert!(scan.truncated.is_none(), "every frame on disk decodes");
    let decoded: Vec<Lsn> = scan.records.iter().map(|r| r.lsn).collect();
    let mut in_order = lsns;
    in_order.sort();
    assert_eq!(decoded, in_order, "only the second batch, in LSN order");
    let stats = wal.stats();
    assert_eq!((stats.batches, stats.failed_batches), (2, 1));
    assert_eq!(stats.records, 3);
}

#[test]
fn simulated_committers_share_few_flushes_and_replay_exactly() {
    let run = |seed| {
        let wal = Arc::new(Wal::new(WalConfig::paper_default()));
        let (results, report) = commit_in_waves(seed, &wal, &[8], Duration::ZERO);
        assert!(results.iter().flatten().all(Result::is_ok));
        let stats = wal.stats();
        assert_eq!(stats.records, 8);
        assert!(stats.batches <= 3, "{} batches", stats.batches);
        (report, wal.log_snapshot())
    };
    for seed in [1, 2, 3] {
        assert_eq!(run(seed), run(seed), "seed {seed} replays exactly");
    }
}

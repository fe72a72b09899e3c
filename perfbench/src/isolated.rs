//! Per-layer costs measured alone: direct calls into one layer's public
//! functions, with keys drawn by the workload's own customer sampler.
//!
//! Each timing runs [`BATCHES`] batches and reports the median of the
//! per-call batch means, in nanoseconds. Stateless calls are batched to
//! take about [`BATCH_TIME`] each, so a timing costs about the same on
//! every backend.

use crate::latency::median;
use sicost_common::{HotspotSampler, TableId, Ts, TxnId, Xoshiro256};
use sicost_engine::locks::{LockManager, LockMode, LockTarget};
use sicost_engine::ssi::SsiManager;
use sicost_engine::Database;
use sicost_smallbank::WorkloadParams;
use sicost_storage::{Row, Value};
use sicost_wal::{LogEntry, Wal, WalConfig};
use std::time::{Duration, Instant};

/// Batches per timing.
const BATCHES: usize = 9;
/// Target length of one batch of stateless calls.
const BATCH_TIME: Duration = Duration::from_millis(20);
/// SSI cycles per batch. SIREAD marks pile up within a batch and are
/// collected between batches, so this is fixed rather than timed.
const SSI_CYCLES: usize = 2_000;

/// Draws customer ids the way the workload does.
pub struct Keys {
    sampler: HotspotSampler,
    rng: Xoshiro256,
}

impl Keys {
    /// The workload's sampler, seeded.
    pub fn new(params: &WorkloadParams, seed: u64) -> Self {
        Self {
            sampler: HotspotSampler::new(params.customers, params.hotspot, params.p_hot),
            rng: Xoshiro256::seed_from_u64(seed ^ 0x0150_1A7E),
        }
    }

    fn next(&mut self) -> i64 {
        self.sampler.sample(&mut self.rng) as i64
    }

    /// `n` keys, drawn before timing starts.
    fn batch(&mut self, n: usize) -> Vec<Value> {
        (0..n).map(|_| Value::int(self.next())).collect()
    }
}

/// Times `per_batch` calls of `op` per batch (`None`: as many as take
/// [`BATCH_TIME`], going by 256 untimed warm-up calls); `between` runs
/// untimed after each batch. `op` gets a call number that is new each call.
fn time_batches(
    keys: &mut Keys,
    per_batch: Option<usize>,
    mut op: impl FnMut(usize, &Value),
    mut between: impl FnMut(),
) -> f64 {
    let mut done = 0;
    let per_batch = per_batch.unwrap_or_else(|| {
        let warm_up = keys.batch(256);
        let t0 = Instant::now();
        for key in &warm_up {
            op(done, key);
            done += 1;
        }
        let per_call = t0.elapsed().as_secs_f64() / warm_up.len() as f64;
        (BATCH_TIME.as_secs_f64() / per_call).clamp(256.0, 200_000.0) as usize
    });
    let mut means = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let batch = keys.batch(per_batch);
        let t0 = Instant::now();
        for key in &batch {
            op(done, key);
            done += 1;
        }
        means.push(t0.elapsed().as_nanos() as f64 / per_batch as f64);
        between();
    }
    median(means)
}

/// `TableStore::read_at` on a table of the post-run database.
pub fn storage_read_ns(db: &Database, table: TableId, keys: &mut Keys) -> f64 {
    let store = db.catalog().table(table);
    let snap = db.clock();
    time_batches(
        keys,
        None,
        |_, key| {
            std::hint::black_box(store.read_at(key, snap));
        },
        || {},
    )
}

/// One SSI transaction cycle: `begin` → `on_read` → `on_write` →
/// `pre_commit` → `finish_commit`, back to back as at MPL 1. A cycle the
/// manager refuses is aborted (`on_abort`) inside the timing.
pub fn ssi_cycle_ns(table: TableId, keys: &mut Keys) -> f64 {
    let ssi = SsiManager::new();
    let last_commit = std::cell::Cell::new(0u64);
    time_batches(
        keys,
        Some(SSI_CYCLES),
        |i, key| {
            let txn = TxnId(i as u64);
            let start = Ts(last_commit.get());
            let read_key = (table, key.clone());
            ssi.begin(txn, start);
            let ok = ssi
                .on_read(txn, read_key.clone(), &[])
                .and_then(|()| ssi.on_write(txn, &read_key))
                .and_then(|()| ssi.pre_commit(txn, std::slice::from_ref(&read_key)));
            match ok {
                Ok(()) => {
                    last_commit.set(last_commit.get() + 1);
                    ssi.finish_commit(txn, Ts(last_commit.get()));
                }
                Err(_) => ssi.on_abort(txn),
            }
        },
        || {
            ssi.gc(Ts(last_commit.get()));
        },
    )
}

/// One exclusive row-lock acquisition and release.
pub fn lock_cycle_ns(table: TableId, keys: &mut Keys) -> f64 {
    let locks = LockManager::new();
    time_batches(
        keys,
        None,
        |i, key| {
            let txn = TxnId(i as u64);
            locks
                .acquire(txn, &LockTarget::row(table, key.clone()), LockMode::X)
                .expect("an uncontended lock is granted");
            locks.release_all(txn);
        },
        || {},
    )
}

/// One `Wal::commit` on a zero-latency log with a DepositChecking-sized
/// record: one after-image of a two-column balance row.
pub fn wal_commit_ns(table: TableId, keys: &mut Keys) -> f64 {
    let wal = Wal::new(WalConfig::instant());
    time_batches(
        keys,
        None,
        |i, key| {
            let entry = LogEntry {
                table,
                key: key.clone(),
                image: Some(Row::new(vec![key.clone(), Value::int(i as i64)])),
            };
            wal.commit(TxnId(i as u64), vec![entry])
                .expect("an instant log never fails");
        },
        || {},
    )
}

//! Engine, storage and WAL counters, read at the edges of the measured
//! window and diffed.

use crate::ratio;
use sicost_engine::{Database, EngineMetrics};
use sicost_storage::PoolStats;
use sicost_wal::{DeviceStats, WalStats};

/// Every counter the per-layer metrics are derived from, at one instant.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// Engine counters, lock classes and live gauges.
    pub engine: EngineMetrics,
    /// WAL front-end counters.
    pub wal: WalStats,
    /// Log-device counters.
    pub device: DeviceStats,
}

impl Counters {
    /// Reads every counter of `db`.
    pub fn read(db: &Database) -> Self {
        Self {
            engine: db.metrics(),
            wal: db.wal_stats(),
            device: db.device_stats(),
        }
    }
}

/// Appends the counter-derived per-layer metrics for the window between
/// `before` and `after`, which lasted `window_s` seconds.
pub fn layer_metrics(before: &Counters, after: &Counters, window_s: f64, out: &mut crate::Report) {
    let (b, a) = (&before.engine, &after.engine);
    let commits = (a.commits - b.commits) as f64;
    let attempts = commits + (a.total_aborts() - b.total_aborts()) as f64;
    let per_1k = |x: u64, y: u64| ratio((x - y) as f64 * 1000.0, attempts);
    out.layer(
        "engine.aborts.fuw_per_1k",
        per_1k(a.aborts_first_updater, b.aborts_first_updater),
        "count/1k",
    );
    out.layer(
        "engine.aborts.fcw_per_1k",
        per_1k(a.aborts_first_committer, b.aborts_first_committer),
        "count/1k",
    );
    out.layer(
        "engine.aborts.ssi_per_1k",
        per_1k(a.aborts_ssi, b.aborts_ssi),
        "count/1k",
    );
    out.layer(
        "engine.aborts.deadlock_per_1k",
        per_1k(a.aborts_deadlock, b.aborts_deadlock),
        "count/1k",
    );

    for lock in &a.lock_waits {
        let earlier = b.lock_wait(&lock.class).cloned().unwrap_or_default();
        let wait_us = (lock.wait - earlier.wait).as_secs_f64() * 1e6;
        let name = format!("engine.lock.{}", lock.class);
        out.layer(
            &format!("{name}.wait_us_per_commit"),
            ratio(wait_us, commits),
            "us",
        );
        out.layer(
            &format!("{name}.contended_ratio"),
            ratio(
                (lock.contended - earlier.contended) as f64,
                (lock.acquisitions - earlier.acquisitions) as f64,
            ),
            "ratio",
        );
    }

    out.layer(
        "engine.publish.mean_batch",
        ratio(
            (a.publish_batched_commits - b.publish_batched_commits) as f64,
            (a.publish_batches - b.publish_batches) as f64,
        ),
        "count",
    );
    let runs = (a.vacuum_runs - b.vacuum_runs) as f64;
    let pause_s = (a.vacuum_pause - b.vacuum_pause).as_secs_f64();
    out.layer("engine.vacuum.runs", runs, "count");
    out.layer(
        "engine.vacuum.mean_pause_ms",
        ratio(pause_s * 1e3, runs),
        "ms",
    );
    out.layer(
        "engine.vacuum.pause_share",
        ratio(pause_s, window_s),
        "ratio",
    );
    out.layer(
        "engine.vacuum.versions_pruned_per_commit",
        ratio((a.versions_pruned - b.versions_pruned) as f64, commits),
        "count",
    );
    out.layer(
        "engine.checkpoint.runs",
        (a.checkpoints_taken - b.checkpoints_taken) as f64,
        "count",
    );
    out.layer(
        "engine.checkpoint.pages_flushed",
        (a.checkpoint_pages_flushed - b.checkpoint_pages_flushed) as f64,
        "count",
    );
    out.layer(
        "engine.ssi.siread_entries",
        a.siread_entries as f64,
        "count",
    );
    out.layer("storage.max_chain_len", a.max_chain_len as f64, "count");

    let pool_b = b.pool.unwrap_or_default();
    let pool_a = a.pool.unwrap_or_default();
    let delta = |f: fn(&PoolStats) -> u64| (f(&pool_a) - f(&pool_b)) as f64;
    let (hits, misses) = (delta(|p| p.hits), delta(|p| p.misses));
    out.layer(
        "storage.pool.hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    );
    out.layer(
        "storage.pool.misses_per_commit",
        ratio(misses, commits),
        "count",
    );
    out.layer(
        "storage.pool.evictions_per_commit",
        ratio(delta(|p| p.evictions), commits),
        "count",
    );
    out.layer(
        "storage.pool.dirty_writebacks_per_commit",
        ratio(delta(|p| p.dirty_writebacks), commits),
        "count",
    );

    let (wb, wa) = (&before.wal, &after.wal);
    out.layer(
        "wal.records_per_batch",
        ratio(
            (wa.records - wb.records) as f64,
            (wa.batches - wb.batches) as f64,
        ),
        "count",
    );
    out.layer(
        "wal.syncs_per_commit",
        ratio((after.device.syncs - before.device.syncs) as f64, commits),
        "count",
    );
    out.layer(
        "wal.bytes_per_commit",
        ratio((wa.appended_bytes - wb.appended_bytes) as f64, commits),
        "B",
    );
}

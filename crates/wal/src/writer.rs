//! The WAL front end and its leader-based group commit.

use crate::checkpoint::{DurableImage, Manifest};
use crate::device::{DeviceStats, LogDevice};
use crate::record::{LogEntry, LogRecord, Lsn};
use sicost_common::sync::{sim_sleep, Condvar, Mutex};
use sicost_common::{CrashPoint, FaultInjector, TxnId};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// WAL tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalConfig {
    /// Fixed cost of one device sync (rotational + flush latency).
    pub sync_latency: Duration,
    /// Incremental cost per record in a sync batch (transfer).
    pub per_record_cost: Duration,
    /// Group-commit gather window: the committer that leads a flush waits
    /// this long for others to join its batch (PostgreSQL's
    /// `commit_delay`, which the paper enables).
    pub commit_delay: Duration,
}

impl WalConfig {
    /// Zero-latency configuration for functional tests: group commit still
    /// batches, but no simulated time is charged.
    pub fn instant() -> Self {
        Self {
            sync_latency: Duration::ZERO,
            per_record_cost: Duration::ZERO,
            commit_delay: Duration::ZERO,
        }
    }

    /// Parameters calibrated against the paper's platform (dedicated log
    /// disk, write cache off, group commit on). See `EXPERIMENTS.md` for the
    /// calibration runs.
    pub fn paper_default() -> Self {
        Self {
            sync_latency: Duration::from_micros(4000),
            per_record_cost: Duration::from_micros(150),
            commit_delay: Duration::from_micros(500),
        }
    }
}

impl Default for WalConfig {
    fn default() -> Self {
        Self::instant()
    }
}

/// Cumulative WAL statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Commit records made durable.
    pub records: u64,
    /// Sync batches issued.
    pub batches: u64,
    /// Largest batch.
    pub max_batch: u64,
    /// Batches whose sync failed transiently (no record durable).
    pub failed_batches: u64,
    /// Total framed bytes appended to the durable log image (monotone;
    /// unaffected by truncation).
    pub appended_bytes: u64,
    /// Log-prefix bytes dropped by checkpoint truncation.
    pub truncated_bytes: u64,
}

/// Why a WAL commit did not make the record durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalError {
    /// The device sync for this batch failed transiently. Nothing from the
    /// batch is durable; the transaction may retry from scratch.
    SyncFailed,
    /// The simulated process crashed. The record may or may not be durable
    /// — only recovery can say.
    Crashed,
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::SyncFailed => write!(f, "wal sync failed"),
            WalError::Crashed => write!(f, "process crashed during wal write"),
        }
    }
}

impl std::error::Error for WalError {}

/// What a waiting committer is told: keep waiting, lead the next flush,
/// or its batch's fate.
#[derive(Clone, Copy)]
enum Wake {
    Waiting,
    Lead,
    Done(Result<(), WalError>),
}

struct Completion {
    wake: Mutex<Wake>,
    cv: Condvar,
}

impl Completion {
    fn signal(&self, wake: Wake) {
        *self.wake.lock() = wake;
        self.cv.notify_one();
    }
}

struct Pending {
    record: LogRecord,
    completion: Arc<Completion>,
}

/// Records waiting for a flush, and whether a leader is flushing now.
/// While `flushing` is set every new committer waits; otherwise the next
/// one to enqueue leads.
struct Queue {
    pending: Vec<Pending>,
    flushing: bool,
}

/// The durable log window under one lock, so a reader can take the base
/// offset, the byte image, and the decoded record list as one consistent
/// snapshot (sampling them from separate locks would race with a
/// leader's append).
struct DiskImage {
    /// Logical byte offset of `bytes[0]`. Starts at 0 and only advances
    /// when checkpoint truncation drops a prefix.
    base: u64,
    /// The surviving framed bytes: what crash-recovery scans (and where a
    /// torn tail lives).
    bytes: Vec<u8>,
    /// Durable records still inside the window, in LSN order, each with
    /// the logical end offset of its frame — exactly what `bytes` decodes
    /// to.
    records: Vec<(LogRecord, u64)>,
}

impl DiskImage {
    /// Logical offset one past the last durable byte. Monotone: truncation
    /// advances `base` and shrinks `bytes` by the same amount.
    fn end(&self) -> u64 {
        self.base + self.bytes.len() as u64
    }
}

/// The durable checkpoint area: two frame slots, the live manifest, and
/// the previous manifest (retained across a swap so a torn current
/// generation can fall back).
struct CheckpointArea {
    slots: [Vec<u8>; 2],
    manifest: Vec<u8>,
    prev_manifest: Vec<u8>,
    /// The slot the *next* checkpoint frame goes into — always the one
    /// the live manifest does not reference, so a torn write can never
    /// damage the recoverable generation.
    next_slot: u8,
}

/// The write-ahead log. One instance per database. There is no WAL
/// thread: group commit is leader-based, as in PostgreSQL. The first
/// committer to find no flush in progress leads — it waits out the
/// gather window, syncs everything queued by then, and hands the lead to
/// the oldest committer that queued behind it.
pub struct Wal {
    device: LogDevice,
    commit_delay: Duration,
    queue: Mutex<Queue>,
    /// The durable log window (base offset + bytes + decoded records).
    image: Mutex<DiskImage>,
    /// The durable checkpoint slots and manifests.
    ckpt: Mutex<CheckpointArea>,
    stats: Mutex<WalStats>,
    next_lsn: Mutex<u64>,
    faults: Option<Arc<FaultInjector>>,
}

impl Wal {
    /// Creates an empty WAL.
    pub fn new(config: WalConfig) -> Self {
        Self::with_faults(config, None)
    }

    /// Creates an empty WAL with an optional fault injector shared with
    /// the engine, so WAL-level faults and commit-pipeline faults draw from
    /// one seeded schedule.
    pub fn with_faults(config: WalConfig, faults: Option<Arc<FaultInjector>>) -> Self {
        Self {
            device: LogDevice::new(config.sync_latency, config.per_record_cost)
                .with_faults(faults.clone()),
            commit_delay: config.commit_delay,
            queue: Mutex::new(Queue {
                pending: Vec::new(),
                flushing: false,
            }),
            image: Mutex::new(DiskImage {
                base: 0,
                bytes: Vec::new(),
                records: Vec::new(),
            }),
            ckpt: Mutex::new(CheckpointArea {
                slots: [Vec::new(), Vec::new()],
                manifest: Vec::new(),
                prev_manifest: Vec::new(),
                next_slot: 0,
            }),
            stats: Mutex::new(WalStats::default()),
            next_lsn: Mutex::new(0),
            faults,
        }
    }

    fn crashed(&self) -> bool {
        self.faults.as_ref().is_some_and(|f| f.crashed())
    }

    /// Makes a transaction's redo entries durable, blocking until the sync
    /// batch containing them completes. Returns the record's LSN on
    /// success; [`WalError::SyncFailed`] when the batch's device sync
    /// failed transiently (nothing durable), [`WalError::Crashed`] when the
    /// simulated process died (durability undecided — ask recovery).
    ///
    /// Callers must not invoke this for read-only transactions — an empty
    /// entry list is a caller bug.
    pub fn commit(&self, txn: TxnId, entries: Vec<LogEntry>) -> Result<Lsn, WalError> {
        assert!(
            !entries.is_empty(),
            "read-only transactions must not write the WAL"
        );
        if self.crashed() {
            return Err(WalError::Crashed);
        }
        let completion = Arc::new(Completion {
            wake: Mutex::new(Wake::Waiting),
            cv: Condvar::new(),
        });
        let lsn;
        let lead;
        {
            let mut next = self.next_lsn.lock();
            lsn = Lsn(*next);
            *next += 1;
            // Enqueue while still holding the LSN lock so queue order always
            // matches LSN order.
            let mut queue = self.queue.lock();
            queue.pending.push(Pending {
                record: LogRecord { lsn, txn, entries },
                completion: Arc::clone(&completion),
            });
            lead = !std::mem::replace(&mut queue.flushing, true);
        }
        if !lead {
            let mut wake = completion.wake.lock();
            loop {
                match *wake {
                    Wake::Waiting => completion.cv.wait(&mut wake),
                    Wake::Lead => break,
                    Wake::Done(result) => return result.map(|()| lsn),
                }
            }
        }
        // A leader's own record is always in the batch it flushes: it is
        // the queue's oldest entry.
        self.flush().map(|()| lsn)
    }

    /// One group commit, run by the leader on its own thread: gather,
    /// sync, complete every waiter in the batch, then pass the lead on.
    fn flush(&self) -> Result<(), WalError> {
        // Gather window: let concurrent committers join the batch.
        if !self.commit_delay.is_zero() {
            sim_sleep(self.commit_delay);
        }
        let batch = std::mem::take(&mut self.queue.lock().pending);
        let result = self.sync_batch(&batch);
        for p in &batch {
            p.completion.signal(Wake::Done(result));
        }
        // Hand off rather than loop, so the leader waits for one flush
        // only. The next flush starts at the instant this one ends, with
        // the oldest waiter's record in it.
        let mut queue = self.queue.lock();
        match queue.pending.first() {
            Some(next) => next.completion.signal(Wake::Lead),
            None => queue.flushing = false,
        }
        result
    }

    /// Writes one batch to the device and the disk image.
    fn sync_batch(&self, batch: &[Pending]) -> Result<(), WalError> {
        debug_assert!(!batch.is_empty());
        // A crash armed at DuringWalSync tears the batch: every record but
        // the last reaches the disk image in full, then the write stops
        // half-way through the last record's frame. No waiter learns its
        // fate — they all see Crashed — and recovery must truncate the
        // partial frame by checksum.
        let crash_mid_sync = self
            .faults
            .as_ref()
            .is_some_and(|f| f.at_crash_point(CrashPoint::DuringWalSync));
        if crash_mid_sync {
            let mut image = self.image.lock();
            let mut appended = 0u64;
            for (i, p) in batch.iter().enumerate() {
                let frame = p.record.encode();
                if i + 1 < batch.len() {
                    image.bytes.extend_from_slice(&frame);
                    let end = image.end();
                    image.records.push((p.record.clone(), end));
                    appended += frame.len() as u64;
                } else {
                    image.bytes.extend_from_slice(&frame[..frame.len() / 2]);
                    appended += (frame.len() / 2) as u64;
                }
            }
            drop(image);
            self.stats.lock().appended_bytes += appended;
            return Err(WalError::Crashed);
        }
        if self.crashed() {
            return Err(WalError::Crashed);
        }

        let bytes: u64 = batch.iter().map(|p| p.record.size_bytes() as u64).sum();
        let synced = self.device.sync(batch.len() as u64, bytes);
        let mut appended = 0u64;
        let result = match synced {
            Ok(()) => {
                let mut image = self.image.lock();
                for p in batch {
                    let before = image.bytes.len();
                    p.record.encode_into(&mut image.bytes);
                    appended += (image.bytes.len() - before) as u64;
                    let end = image.end();
                    image.records.push((p.record.clone(), end));
                }
                Ok(())
            }
            Err(_) => Err(WalError::SyncFailed),
        };
        let mut stats = self.stats.lock();
        stats.batches += 1;
        if result.is_ok() {
            stats.records += batch.len() as u64;
            stats.max_batch = stats.max_batch.max(batch.len() as u64);
            stats.appended_bytes += appended;
        } else {
            stats.failed_batches += 1;
        }
        result
    }

    /// Snapshot of the durable log records still inside the surviving
    /// window, in LSN order (recovery and tests). Checkpoint truncation
    /// drops the covered prefix from this view too.
    pub fn log_snapshot(&self) -> Vec<LogRecord> {
        self.image
            .lock()
            .records
            .iter()
            .map(|(r, _)| r.clone())
            .collect()
    }

    /// Snapshot of the durable byte image — the "disk" window that crash
    /// recovery scans. After a mid-sync crash this ends in a torn tail.
    pub fn disk_snapshot(&self) -> Vec<u8> {
        self.image.lock().bytes.clone()
    }

    /// Logical byte offset of the first surviving log byte (0 until the
    /// first truncation).
    pub fn wal_base(&self) -> u64 {
        self.image.lock().base
    }

    /// Logical byte offset one past the last durable log byte. Monotone
    /// across truncation; the checkpointer reads this as the redo
    /// resume-point `O` before choosing its snapshot timestamp.
    pub fn log_end_offset(&self) -> u64 {
        self.image.lock().end()
    }

    /// The complete durable state — log window, checkpoint slots, and
    /// manifests — as crash recovery would find it.
    pub fn durable_image(&self) -> DurableImage {
        let ckpt = self.ckpt.lock();
        let image = self.image.lock();
        DurableImage {
            manifest: ckpt.manifest.clone(),
            prev_manifest: ckpt.prev_manifest.clone(),
            slots: [ckpt.slots[0].clone(), ckpt.slots[1].clone()],
            wal_base: image.base,
            wal: image.bytes.clone(),
            // The WAL doesn't own the heap; a paged engine merges the
            // catalog's heap snapshot into this image itself.
            heap: Default::default(),
        }
    }

    /// Step 1 of a checkpoint: write the encoded checkpoint frame into the
    /// inactive slot and sync it. Returns the slot written, for the
    /// manifest. The live manifest's slot is never touched, so a crash or
    /// torn write here ([`sicost_common::CrashPoint::DuringCheckpointWrite`])
    /// leaves the previous generation fully recoverable.
    pub fn write_checkpoint(&self, frame: &[u8]) -> Result<u8, WalError> {
        if self.crashed() {
            return Err(WalError::Crashed);
        }
        let mut ckpt = self.ckpt.lock();
        let slot = ckpt.next_slot;
        if let Some(f) = &self.faults {
            if f.at_crash_point(CrashPoint::DuringCheckpointWrite) {
                // The crash lands mid-write: the slot holds a torn prefix.
                ckpt.slots[slot as usize] = frame[..frame.len() / 2].to_vec();
                return Err(WalError::Crashed);
            }
        }
        self.device
            .sync(1, frame.len() as u64)
            .map_err(|_| WalError::SyncFailed)?;
        ckpt.slots[slot as usize] = frame.to_vec();
        Ok(slot)
    }

    /// Step 2 of a checkpoint: atomically swap the manifest to point at
    /// the freshly written slot, retaining the previous manifest bytes for
    /// fallback. A crash armed at
    /// [`sicost_common::CrashPoint::BeforeManifestSwap`] fires before any
    /// byte changes, so recovery still sees the old generation.
    pub fn swap_manifest(&self, manifest: &Manifest) -> Result<(), WalError> {
        if self.crashed() {
            return Err(WalError::Crashed);
        }
        if let Some(f) = &self.faults {
            if f.at_crash_point(CrashPoint::BeforeManifestSwap) {
                return Err(WalError::Crashed);
            }
        }
        let encoded = manifest.encode();
        self.device
            .sync(1, encoded.len() as u64)
            .map_err(|_| WalError::SyncFailed)?;
        let mut ckpt = self.ckpt.lock();
        ckpt.prev_manifest = std::mem::take(&mut ckpt.manifest);
        ckpt.manifest = encoded;
        // The slot the new manifest references is now live; the other one
        // is free for the next generation.
        ckpt.next_slot = 1 - manifest.slot;
        Ok(())
    }

    /// Step 3 of a checkpoint: drop the log prefix below logical offset
    /// `cut`. Must only be called once the manifest naming `cut` as its
    /// resume point is durable — which is why the armed crash point
    /// ([`sicost_common::CrashPoint::AfterManifestSwapBeforeTruncate`])
    /// fires *before* any byte is dropped: a crash there recovers from the
    /// new manifest over the still-intact log. Returns the bytes dropped.
    pub fn truncate_to(&self, cut: u64) -> Result<u64, WalError> {
        if self.crashed() {
            return Err(WalError::Crashed);
        }
        if let Some(f) = &self.faults {
            if f.at_crash_point(CrashPoint::AfterManifestSwapBeforeTruncate) {
                return Err(WalError::Crashed);
            }
        }
        let mut image = self.image.lock();
        if cut <= image.base {
            return Ok(0);
        }
        assert!(
            cut <= image.end(),
            "truncate_to({cut}) past log end {}",
            image.end()
        );
        let dropped = (cut - image.base) as usize;
        image.bytes.drain(..dropped);
        image.base = cut;
        image.records.retain(|(_, end)| *end > cut);
        drop(image);
        self.stats.lock().truncated_bytes += dropped as u64;
        Ok(dropped as u64)
    }

    /// Cumulative WAL statistics.
    pub fn stats(&self) -> WalStats {
        *self.stats.lock()
    }

    /// Cumulative device statistics.
    pub fn device_stats(&self) -> DeviceStats {
        self.device.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::LogRecord;
    use sicost_common::{FaultConfig, TableId};
    use sicost_storage::{Row, Value};
    use std::time::Instant;

    fn entry(key: i64, val: i64) -> LogEntry {
        LogEntry {
            table: TableId(0),
            key: Value::int(key),
            image: Some(Row::new(vec![Value::int(key), Value::int(val)])),
        }
    }

    #[test]
    fn commit_is_durable_and_ordered() {
        let wal = Wal::new(WalConfig::instant());
        let l1 = wal.commit(TxnId(1), vec![entry(1, 10)]).unwrap();
        let l2 = wal.commit(TxnId(2), vec![entry(2, 20)]).unwrap();
        assert!(l1 < l2);
        let log = wal.log_snapshot();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].lsn, l1);
        assert_eq!(log[1].lsn, l2);
        assert_eq!(log[0].txn, TxnId(1));
    }

    #[test]
    fn disk_image_decodes_back_to_the_log() {
        let wal = Wal::new(WalConfig::instant());
        wal.commit(TxnId(1), vec![entry(1, 10)]).unwrap();
        wal.commit(TxnId(2), vec![entry(2, 20), entry(3, 30)])
            .unwrap();
        let disk = wal.disk_snapshot();
        let mut decoded = Vec::new();
        let mut pos = 0;
        while pos < disk.len() {
            let (rec, used) = LogRecord::decode(&disk[pos..]).unwrap();
            decoded.push(rec);
            pos += used;
        }
        assert_eq!(decoded, wal.log_snapshot());
    }

    #[test]
    #[should_panic(expected = "read-only")]
    fn empty_commit_rejected() {
        let wal = Wal::new(WalConfig::instant());
        let _ = wal.commit(TxnId(1), vec![]);
    }

    #[test]
    fn group_commit_batches_concurrent_commits() {
        let cfg = WalConfig {
            sync_latency: Duration::from_millis(4),
            per_record_cost: Duration::ZERO,
            commit_delay: Duration::from_millis(2),
        };
        let wal = Arc::new(Wal::new(cfg));
        let n = 8;
        let t0 = Instant::now();
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || {
                    wal.commit(TxnId(i), vec![entry(i as i64, 0)]).unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let elapsed = t0.elapsed();
        let stats = wal.stats();
        assert_eq!(stats.records, n);
        // All 8 should fit in one or two batches, far fewer than 8 syncs.
        assert!(
            stats.batches <= 3,
            "expected grouped commits, got {} batches",
            stats.batches
        );
        assert!(stats.max_batch >= 3);
        // And wall-clock must be far below 8 serial syncs (8 * 6ms).
        assert!(
            elapsed < Duration::from_millis(30),
            "group commit too slow: {elapsed:?}"
        );
    }

    #[test]
    fn sequential_commits_each_pay_the_sync() {
        let cfg = WalConfig {
            sync_latency: Duration::from_millis(3),
            per_record_cost: Duration::ZERO,
            commit_delay: Duration::ZERO,
        };
        let wal = Wal::new(cfg);
        let t0 = Instant::now();
        for i in 0..3 {
            wal.commit(TxnId(i), vec![entry(i as i64, 0)]).unwrap();
        }
        assert!(t0.elapsed() >= Duration::from_millis(9));
        assert_eq!(wal.stats().batches, 3);
    }

    #[test]
    fn stats_track_device() {
        let wal = Wal::new(WalConfig::instant());
        wal.commit(TxnId(1), vec![entry(1, 1), entry(2, 2)])
            .unwrap();
        let ds = wal.device_stats();
        assert_eq!(ds.syncs, 1);
        assert_eq!(ds.records, 1, "device counts records (commit groups)");
        assert!(ds.bytes > 0);
    }

    #[test]
    fn drop_joins_daemon_cleanly() {
        let wal = Wal::new(WalConfig::instant());
        wal.commit(TxnId(1), vec![entry(1, 1)]).unwrap();
        drop(wal); // must not hang or panic
    }

    #[test]
    fn sync_error_fails_every_waiter_and_leaves_disk_untouched() {
        let f = Arc::new(FaultInjector::new(FaultConfig::transient(3, 0.0, 1.0)));
        let wal = Wal::with_faults(WalConfig::instant(), Some(f));
        assert_eq!(
            wal.commit(TxnId(1), vec![entry(1, 1)]),
            Err(WalError::SyncFailed)
        );
        assert!(wal.disk_snapshot().is_empty());
        assert!(wal.log_snapshot().is_empty());
        let stats = wal.stats();
        assert_eq!(stats.failed_batches, 1);
        assert_eq!(stats.records, 0);
    }

    #[test]
    fn checkpoint_protocol_truncates_and_survives_recovery() {
        use crate::checkpoint::{recover_image, CheckpointImage, Manifest};
        use sicost_common::Ts;

        let wal = Wal::new(WalConfig::instant());
        wal.commit(TxnId(1), vec![entry(1, 10)]).unwrap();
        wal.commit(TxnId(2), vec![entry(2, 20)]).unwrap();
        let cut = wal.log_end_offset();
        assert_eq!(wal.wal_base(), 0);

        // Checkpoint covering both records.
        let frame = CheckpointImage {
            ts: Ts(2),
            tables: vec![(
                TableId(0),
                vec![
                    (Value::int(1), Row::new(vec![Value::int(1), Value::int(10)])),
                    (Value::int(2), Row::new(vec![Value::int(2), Value::int(20)])),
                ],
            )],
        }
        .encode();
        let slot = wal.write_checkpoint(&frame).unwrap();
        assert_eq!(slot, 0);
        wal.swap_manifest(&Manifest {
            slot,
            checkpoint_ts: Ts(2),
            wal_offset: cut,
        })
        .unwrap();
        assert_eq!(wal.truncate_to(cut).unwrap(), cut);
        assert_eq!(wal.wal_base(), cut);
        assert_eq!(wal.log_end_offset(), cut, "end offset is monotone");
        assert!(wal.disk_snapshot().is_empty());
        assert!(wal.log_snapshot().is_empty());
        let stats = wal.stats();
        assert_eq!(stats.truncated_bytes, cut);
        assert_eq!(stats.appended_bytes, cut);

        // A commit after the checkpoint lands in the suffix.
        wal.commit(TxnId(3), vec![entry(1, 11)]).unwrap();
        assert_eq!(wal.log_snapshot().len(), 1);
        assert!(wal.log_end_offset() > cut);

        // And the durable image recovers: checkpoint rows + suffix only.
        let mut cat = sicost_storage::Catalog::new();
        cat.create_table(
            sicost_storage::TableSchema::new(
                "T",
                vec![
                    sicost_storage::ColumnDef::new("id", sicost_storage::ColumnType::Int),
                    sicost_storage::ColumnDef::new("v", sicost_storage::ColumnType::Int),
                ],
                0,
                vec![],
            )
            .unwrap(),
        )
        .unwrap();
        let out = recover_image(&wal.durable_image(), &cat).unwrap();
        assert_eq!(out.checkpoint_rows, 2);
        assert_eq!(out.replayed_records, 1);
        assert!(out.replayed_bytes < stats.appended_bytes + frame.len() as u64);
        let t = cat.table(TableId(0));
        assert_eq!(
            t.read_at(&Value::int(1), out.end_ts)
                .unwrap()
                .row
                .unwrap()
                .int(1),
            11
        );
        assert_eq!(
            t.read_at(&Value::int(2), out.end_ts)
                .unwrap()
                .row
                .unwrap()
                .int(1),
            20
        );
    }

    #[test]
    fn checkpoint_slots_alternate_across_generations() {
        use crate::checkpoint::{CheckpointImage, Manifest};
        use sicost_common::Ts;

        let wal = Wal::new(WalConfig::instant());
        for gen in 0..4u64 {
            let frame = CheckpointImage {
                ts: Ts(gen + 1),
                tables: vec![],
            }
            .encode();
            let slot = wal.write_checkpoint(&frame).unwrap();
            assert_eq!(u64::from(slot), gen % 2, "slots must alternate");
            wal.swap_manifest(&Manifest {
                slot,
                checkpoint_ts: Ts(gen + 1),
                wal_offset: 0,
            })
            .unwrap();
        }
        let image = wal.durable_image();
        let current = Manifest::decode(&image.manifest).unwrap();
        let prev = Manifest::decode(&image.prev_manifest).unwrap();
        assert_eq!(current.checkpoint_ts, Ts(4));
        assert_eq!(prev.checkpoint_ts, Ts(3));
        assert_ne!(current.slot, prev.slot);
    }

    #[test]
    fn crash_during_checkpoint_write_tears_only_the_inactive_slot() {
        use crate::checkpoint::{CheckpointImage, Manifest};
        use sicost_common::Ts;

        // Arm the crash for the *second* checkpoint write: generation 1
        // lands intact in slot 0, generation 2 tears in slot 1.
        let f = Arc::new(FaultInjector::new(FaultConfig::crash(
            sicost_common::CrashPoint::DuringCheckpointWrite,
            2,
        )));
        let wal = Wal::with_faults(WalConfig::instant(), Some(f));
        let g1 = CheckpointImage {
            ts: Ts(1),
            tables: vec![],
        }
        .encode();
        let slot = wal.write_checkpoint(&g1).unwrap();
        wal.swap_manifest(&Manifest {
            slot,
            checkpoint_ts: Ts(1),
            wal_offset: 0,
        })
        .unwrap();
        let g2 = CheckpointImage {
            ts: Ts(2),
            tables: vec![],
        }
        .encode();
        assert_eq!(wal.write_checkpoint(&g2), Err(WalError::Crashed));
        let image = wal.durable_image();
        // Slot 1 is torn; slot 0 and the manifest naming it are intact.
        assert!(CheckpointImage::decode(&image.slots[1]).is_err());
        assert_eq!(CheckpointImage::decode(&image.slots[0]).unwrap().ts, Ts(1));
        assert_eq!(Manifest::decode(&image.manifest).unwrap().slot, 0);
    }

    #[test]
    fn truncate_below_base_is_a_noop() {
        let wal = Wal::new(WalConfig::instant());
        wal.commit(TxnId(1), vec![entry(1, 1)]).unwrap();
        let cut = wal.log_end_offset();
        assert_eq!(wal.truncate_to(cut).unwrap(), cut);
        assert_eq!(wal.truncate_to(cut).unwrap(), 0, "idempotent");
        assert_eq!(wal.truncate_to(cut - 1).unwrap(), 0, "stale cut ignored");
    }

    #[test]
    fn mid_sync_crash_tears_the_tail_record() {
        let f = Arc::new(FaultInjector::new(FaultConfig::crash(
            CrashPoint::DuringWalSync,
            1,
        )));
        // Large commit_delay so both commits land in one batch.
        let cfg = WalConfig {
            sync_latency: Duration::ZERO,
            per_record_cost: Duration::ZERO,
            commit_delay: Duration::from_millis(20),
        };
        let wal = Arc::new(Wal::with_faults(cfg, Some(Arc::clone(&f))));
        let handles: Vec<_> = (0..2)
            .map(|i| {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || wal.commit(TxnId(i), vec![entry(i as i64, 0)]))
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(results.iter().all(|r| *r == Err(WalError::Crashed)));
        assert!(f.crashed());

        // The first record of the batch is intact, the second is torn.
        let disk = wal.disk_snapshot();
        let (first, used) = LogRecord::decode(&disk).expect("head record intact");
        assert_eq!(wal.log_snapshot(), vec![first]);
        assert!(used < disk.len(), "a torn tail must remain");
        assert!(LogRecord::decode(&disk[used..]).is_err());

        // The WAL is dead: later commits fail fast.
        assert_eq!(
            wal.commit(TxnId(9), vec![entry(9, 9)]),
            Err(WalError::Crashed)
        );
    }
}

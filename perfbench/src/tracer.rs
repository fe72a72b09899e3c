//! Attempt spans, recorded from outside the program through its two
//! public observer hooks.
//!
//! * The driver's [`AttemptObserver`] marks each attempt at the
//!   driver→smallbank boundary: program kind, attempt number, outcome
//!   and wall-clock duration.
//! * The engine's [`HistoryObserver`], with
//!   `EngineConfig::with_trace_timings(true)`, reports every lock
//!   acquisition and WAL group-commit wait of the transaction running on
//!   the same thread. These are the attempt's child spans.
//!
//! An attempt's self time is its duration minus its child spans. Spans
//! stay in memory until [`SpanTracer::spans`] collects them at the end.

use crate::lanes::Lanes;
use crate::latency::Window;
use sicost_common::TxnId;
use sicost_driver::{AttemptObserver, Outcome};
use sicost_engine::{HistoryEvent, HistoryObserver};
use sicost_mvsg::SamplingCertifier;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// One completed attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index into `TxnKind::ALL`.
    pub kind: usize,
    /// 1-based attempt number from the driver.
    pub attempt: u32,
    /// How the attempt ended.
    pub outcome: Outcome,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Wall-clock duration.
    pub dur_ns: u64,
    /// Virtual-time duration (modelled runs only; 0 otherwise).
    pub virtual_ns: u64,
    /// Total of the lock-acquisition child spans.
    pub lock_wait_ns: u64,
    /// Number of lock-acquisition child spans.
    pub lock_waits: u32,
    /// Total of the WAL group-commit child spans.
    pub wal_sync_ns: u64,
    /// Number of WAL group-commit child spans.
    pub wal_syncs: u32,
    /// True when the attempt lies inside the measured window.
    pub measured: bool,
}

impl Span {
    /// Duration minus the child spans.
    pub fn self_ns(&self) -> u64 {
        self.dur_ns
            .saturating_sub(self.lock_wait_ns + self.wal_sync_ns)
    }
}

#[derive(Default)]
struct Lane {
    open: Option<Open>,
    done: Vec<Span>,
}

struct Open {
    kind: usize,
    attempt: u32,
    started: Instant,
    lock_wait_ns: u64,
    lock_waits: u32,
    wal_sync_ns: u64,
    wal_syncs: u32,
}

/// Records one [`Span`] per attempt. Attach the same `Arc` to the driver
/// (`RunConfig::with_observer`) and to the engine
/// (`DatabaseBuilder::observer`); history events are forwarded to the
/// certifier, if one is given.
pub struct SpanTracer {
    epoch: Instant,
    window: OnceLock<Window>,
    certifier: Option<Arc<SamplingCertifier>>,
    lanes: Lanes<Lane>,
}

impl SpanTracer {
    /// A tracer forwarding history events to `certifier`, if given.
    pub fn new(certifier: Option<Arc<SamplingCertifier>>) -> Arc<Self> {
        Arc::new(Self {
            epoch: Instant::now(),
            window: OnceLock::new(),
            certifier,
            lanes: Lanes::default(),
        })
    }

    /// Spans that fall in `window` count as measured. Without a window
    /// the caller says so per attempt (see [`SpanTracer::end_attempt`]).
    pub fn set_window(&self, window: Window) {
        let _ = self.window.set(window);
    }

    /// Closes the calling thread's open attempt.
    pub fn end_attempt(&self, outcome: Outcome, wall: Duration, virtual_ns: u64, measured: bool) {
        let now = Instant::now();
        let measured = measured || self.window.get().is_some_and(|w| w.contains(now, wall));
        let epoch = self.epoch;
        self.lanes.with(|lane| {
            let Some(open) = lane.open.take() else {
                return;
            };
            lane.done.push(Span {
                kind: open.kind,
                attempt: open.attempt,
                outcome,
                start_ns: open.started.saturating_duration_since(epoch).as_nanos() as u64,
                dur_ns: wall.as_nanos() as u64,
                virtual_ns,
                lock_wait_ns: open.lock_wait_ns,
                lock_waits: open.lock_waits,
                wal_sync_ns: open.wal_sync_ns,
                wal_syncs: open.wal_syncs,
                measured,
            });
        });
    }

    /// Every completed span, in per-thread order.
    pub fn spans(&self) -> Vec<Span> {
        self.lanes
            .drain()
            .into_iter()
            .flat_map(|lane| lane.done)
            .collect()
    }

    fn child(&self, wait: Duration, wal: bool) {
        self.lanes.with(|lane| {
            if let Some(open) = lane.open.as_mut() {
                let ns = wait.as_nanos() as u64;
                if wal {
                    open.wal_sync_ns += ns;
                    open.wal_syncs += 1;
                } else {
                    open.lock_wait_ns += ns;
                    open.lock_waits += 1;
                }
            }
        });
    }
}

impl AttemptObserver for SpanTracer {
    fn attempt_begin(&self, kind: usize, _kind_name: &'static str, attempt: u32) {
        self.lanes.with(|lane| {
            lane.open = Some(Open {
                kind,
                attempt,
                started: Instant::now(),
                lock_wait_ns: 0,
                lock_waits: 0,
                wal_sync_ns: 0,
                wal_syncs: 0,
            });
        });
    }

    fn attempt_end(&self, outcome: Outcome, latency: Duration) {
        self.end_attempt(outcome, latency, 0, false);
    }
}

impl HistoryObserver for SpanTracer {
    fn on_event(&self, event: HistoryEvent) {
        if let Some(c) = &self.certifier {
            c.on_event(event);
        }
    }

    fn on_wal_sync(&self, _txn: TxnId, wait: Duration) {
        self.child(wait, true);
    }

    fn on_lock_wait(&self, _txn: TxnId, wait: Duration) {
        self.child(wait, false);
    }
}

/// Writes spans as CSV, one attempt per line.
pub fn write_csv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "kind,attempt,outcome,start_ns,dur_ns,virtual_ns,lock_wait_ns,lock_waits,wal_sync_ns,wal_syncs,measured"
    )?;
    for s in spans {
        writeln!(
            out,
            "{},{},{:?},{},{},{},{},{},{},{},{}",
            sicost_smallbank::TxnKind::ALL[s.kind].name(),
            s.attempt,
            s.outcome,
            s.start_ns,
            s.dur_ns,
            s.virtual_ns,
            s.lock_wait_ns,
            s.lock_waits,
            s.wal_sync_ns,
            s.wal_syncs,
            u8::from(s.measured)
        )?;
    }
    out.flush()
}

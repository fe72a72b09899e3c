//! Measurement counters.

use sicost_common::{CountHistogram, LatencyHistogram};
use std::time::Duration;

/// How one transaction attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Committed.
    Committed,
    /// Aborted with a serialization failure (the paper's Figure 6 metric).
    SerializationFailure,
    /// Aborted as a deadlock victim.
    Deadlock,
    /// Rolled back by an application rule.
    ApplicationRollback,
    /// Aborted by an injected transient fault (forced abort, WAL sync
    /// failure): retryable, like a serialization failure, but counted
    /// separately so fault-injection runs can tell the two apart.
    TransientFault,
    /// The commit's fate is unknown — the request reached the server but
    /// the acknowledgement was lost (e.g. the connection died after the
    /// commit frame went out). **Never retryable**: the commit may have
    /// applied, and re-running the transaction could double-apply its
    /// effects. Resolution needs an application-level read-back, not a
    /// blind retry.
    Indeterminate,
}

/// Counters for one transaction kind.
#[derive(Debug, Clone, Default)]
pub struct KindMetrics {
    /// Commits observed in the measurement interval.
    pub commits: u64,
    /// Serialization-failure aborts.
    pub serialization_failures: u64,
    /// Deadlock aborts.
    pub deadlocks: u64,
    /// Application rollbacks.
    pub app_rollbacks: u64,
    /// Transient-fault aborts (injected faults absorbed by retry).
    pub transient_faults: u64,
    /// Attempts whose commit fate is unknown (lost acknowledgement).
    pub indeterminates: u64,
    /// Operations abandoned after the retry budget ran out.
    pub give_ups: u64,
    /// Attempts each *committed* operation needed (1 = first try).
    pub attempts_per_commit: CountHistogram,
    /// Response times of *committed* operations, measured from the first
    /// attempt's start — so they include retry backoff.
    pub latency: LatencyHistogram,
    /// Per committed operation that needed more than one attempt: the
    /// time lost to failed attempts and backoff before the final one.
    pub retry_latency: LatencyHistogram,
}

impl KindMetrics {
    /// Total attempts.
    pub fn attempts(&self) -> u64 {
        self.commits
            + self.serialization_failures
            + self.deadlocks
            + self.app_rollbacks
            + self.transient_faults
            + self.indeterminates
    }

    /// Serialization-failure abort rate among attempts (Figure 6's
    /// y-axis), 0 when nothing ran.
    pub fn serialization_abort_rate(&self) -> f64 {
        let attempts = self.attempts();
        if attempts == 0 {
            0.0
        } else {
            self.serialization_failures as f64 / attempts as f64
        }
    }

    /// Records one attempt.
    pub fn record(&mut self, outcome: Outcome, latency: Duration) {
        match outcome {
            Outcome::Committed => {
                self.commits += 1;
                self.latency.record(latency);
            }
            Outcome::SerializationFailure => self.serialization_failures += 1,
            Outcome::Deadlock => self.deadlocks += 1,
            Outcome::ApplicationRollback => self.app_rollbacks += 1,
            Outcome::TransientFault => self.transient_faults += 1,
            Outcome::Indeterminate => self.indeterminates += 1,
        }
    }

    /// Records the retry profile of one *committed* operation: how many
    /// attempts it took and how much time the failed ones (plus backoff)
    /// cost. Call alongside [`Self::record`] of the final attempt.
    pub fn record_commit_op(&mut self, attempts: u64, retry_lost: Duration) {
        self.attempts_per_commit.record(attempts);
        if attempts > 1 {
            self.retry_latency.record(retry_lost);
        }
    }

    /// Records one operation abandoned after exhausting its retry budget.
    pub fn record_give_up(&mut self) {
        self.give_ups += 1;
    }

    /// Mean retries per committed operation (0 when every commit landed
    /// on the first try).
    pub fn retries_per_commit(&self) -> f64 {
        if self.attempts_per_commit.count() == 0 {
            0.0
        } else {
            (self.attempts_per_commit.mean() - 1.0).max(0.0)
        }
    }

    /// Merges another kind's counters (thread aggregation).
    pub fn merge(&mut self, other: &KindMetrics) {
        self.commits += other.commits;
        self.serialization_failures += other.serialization_failures;
        self.deadlocks += other.deadlocks;
        self.app_rollbacks += other.app_rollbacks;
        self.transient_faults += other.transient_faults;
        self.indeterminates += other.indeterminates;
        self.give_ups += other.give_ups;
        self.attempts_per_commit.merge(&other.attempts_per_commit);
        self.latency.merge(&other.latency);
        self.retry_latency.merge(&other.retry_latency);
    }
}

/// Result of one measured run.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Kind names, index-aligned with `per_kind`.
    pub kind_names: Vec<&'static str>,
    /// Per-kind counters.
    pub per_kind: Vec<KindMetrics>,
    /// Length of the measurement interval.
    pub measured: Duration,
    /// MPL the run used.
    pub mpl: usize,
}

impl RunMetrics {
    /// New empty metrics for the given kinds.
    pub fn new(kind_names: Vec<&'static str>, mpl: usize) -> Self {
        let per_kind = kind_names.iter().map(|_| KindMetrics::default()).collect();
        Self {
            kind_names,
            per_kind,
            measured: Duration::ZERO,
            mpl,
        }
    }

    /// Total commits across kinds.
    pub fn commits(&self) -> u64 {
        self.per_kind.iter().map(|k| k.commits).sum()
    }

    /// Total serialization failures across kinds.
    pub fn serialization_failures(&self) -> u64 {
        self.per_kind.iter().map(|k| k.serialization_failures).sum()
    }

    /// Total deadlocks.
    pub fn deadlocks(&self) -> u64 {
        self.per_kind.iter().map(|k| k.deadlocks).sum()
    }

    /// Total application rollbacks.
    pub fn app_rollbacks(&self) -> u64 {
        self.per_kind.iter().map(|k| k.app_rollbacks).sum()
    }

    /// Total transient-fault aborts.
    pub fn transient_faults(&self) -> u64 {
        self.per_kind.iter().map(|k| k.transient_faults).sum()
    }

    /// Total attempts whose commit fate is unknown.
    pub fn indeterminates(&self) -> u64 {
        self.per_kind.iter().map(|k| k.indeterminates).sum()
    }

    /// Total operations abandoned after exhausting the retry budget.
    pub fn give_ups(&self) -> u64 {
        self.per_kind.iter().map(|k| k.give_ups).sum()
    }

    /// Total attempts across kinds (commits + every abort class).
    pub fn attempts(&self) -> u64 {
        self.per_kind.iter().map(|k| k.attempts()).sum()
    }

    /// Mean retries per committed operation across kinds.
    pub fn retries_per_commit(&self) -> f64 {
        let commits = self.commits();
        if commits == 0 {
            return 0.0;
        }
        let extra: f64 = self
            .per_kind
            .iter()
            .map(|k| k.retries_per_commit() * k.attempts_per_commit.count() as f64)
            .sum();
        extra / commits as f64
    }

    /// Committed transactions per second over the measurement interval.
    pub fn tps(&self) -> f64 {
        if self.measured.is_zero() {
            return 0.0;
        }
        self.commits() as f64 / self.measured.as_secs_f64()
    }

    /// Mean response time of committed transactions, across kinds.
    pub fn mean_latency(&self) -> Duration {
        let total: u64 = self.per_kind.iter().map(|k| k.latency.count()).sum();
        if total == 0 {
            return Duration::ZERO;
        }
        let sum_micros: u128 = self
            .per_kind
            .iter()
            .map(|k| k.latency.mean().as_micros() * u128::from(k.latency.count()))
            .sum();
        Duration::from_micros((sum_micros / u128::from(total)) as u64)
    }

    /// Metrics for a named kind.
    pub fn kind(&self, name: &str) -> Option<&KindMetrics> {
        self.kind_names
            .iter()
            .position(|n| *n == name)
            .map(|i| &self.per_kind[i])
    }
}

/// Per-kind counters of one open-system run. Unlike [`KindMetrics`],
/// these separate what *arrived* from what was *served*: arrivals the
/// admission controller rejected (shed, timed out) never reach a worker
/// and appear only in their counters, while every served operation
/// contributes to all three latency histograms whatever its final
/// outcome.
#[derive(Debug, Clone, Default)]
pub struct OpenKindMetrics {
    /// Arrivals of this kind the generator offered.
    pub offered: u64,
    /// Arrivals rejected immediately by drop-on-full shedding.
    pub shed: u64,
    /// Arrivals whose submitter gave up waiting for queue space.
    pub timed_out: u64,
    /// Served operations that committed.
    pub commits: u64,
    /// Serialization-failure attempt aborts.
    pub serialization_failures: u64,
    /// Deadlock attempt aborts.
    pub deadlocks: u64,
    /// Application-rollback attempts.
    pub app_rollbacks: u64,
    /// Transient-fault attempt aborts.
    pub transient_faults: u64,
    /// Attempts whose commit fate is unknown (lost acknowledgement).
    pub indeterminates: u64,
    /// Served operations abandoned after the retry budget ran out.
    pub give_ups: u64,
    /// Time between admission and a worker dequeuing the request (for
    /// block-with-timeout admissions this includes the submitter's wait
    /// for space).
    pub queue_delay: LatencyHistogram,
    /// Pure execution time across the operation's attempts (excludes
    /// queue delay and retry backoff sleeps).
    pub service: LatencyHistogram,
    /// End-to-end: arrival at the admission controller to final outcome.
    pub e2e: LatencyHistogram,
}

impl OpenKindMetrics {
    /// Records one attempt's outcome (latency histograms are recorded at
    /// operation granularity by [`Self::record_served`]).
    pub fn record_attempt(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Committed => self.commits += 1,
            Outcome::SerializationFailure => self.serialization_failures += 1,
            Outcome::Deadlock => self.deadlocks += 1,
            Outcome::ApplicationRollback => self.app_rollbacks += 1,
            Outcome::TransientFault => self.transient_faults += 1,
            Outcome::Indeterminate => self.indeterminates += 1,
        }
    }

    /// Records the latency profile of one served operation.
    pub fn record_served(&mut self, queue_delay: Duration, service: Duration, e2e: Duration) {
        self.queue_delay.record(queue_delay);
        self.service.record(service);
        self.e2e.record(e2e);
    }

    /// Operations served (admitted and run to a final outcome).
    pub fn served(&self) -> u64 {
        self.e2e.count()
    }

    /// Total attempts (commits + every abort class).
    pub fn attempts(&self) -> u64 {
        self.commits
            + self.serialization_failures
            + self.deadlocks
            + self.app_rollbacks
            + self.transient_faults
            + self.indeterminates
    }

    /// Merges another kind's counters (worker/generator aggregation).
    pub fn merge(&mut self, other: &OpenKindMetrics) {
        self.offered += other.offered;
        self.shed += other.shed;
        self.timed_out += other.timed_out;
        self.commits += other.commits;
        self.serialization_failures += other.serialization_failures;
        self.deadlocks += other.deadlocks;
        self.app_rollbacks += other.app_rollbacks;
        self.transient_faults += other.transient_faults;
        self.indeterminates += other.indeterminates;
        self.give_ups += other.give_ups;
        self.queue_delay.merge(&other.queue_delay);
        self.service.merge(&other.service);
        self.e2e.merge(&other.e2e);
    }
}

/// Result of one open-system run.
#[derive(Debug, Clone)]
pub struct OpenMetrics {
    /// Kind names, index-aligned with `per_kind`.
    pub kind_names: Vec<&'static str>,
    /// Per-kind counters.
    pub per_kind: Vec<OpenKindMetrics>,
    /// The arrival-generation window the offered rate applied over.
    pub horizon: Duration,
    /// Run start to last served completion — `horizon` plus drain time,
    /// which is how long the backlog took to clear.
    pub elapsed: Duration,
    /// Target offered load (arrivals per second).
    pub offered_tps: f64,
    /// Name of the admission policy the run used.
    pub policy: &'static str,
    /// Deepest the admission queue ever got.
    pub max_queue_depth: u64,
}

impl OpenMetrics {
    /// New empty metrics for the given kinds.
    pub fn new(kind_names: Vec<&'static str>) -> Self {
        let per_kind = kind_names
            .iter()
            .map(|_| OpenKindMetrics::default())
            .collect();
        Self {
            kind_names,
            per_kind,
            horizon: Duration::ZERO,
            elapsed: Duration::ZERO,
            offered_tps: 0.0,
            policy: "unbounded",
            max_queue_depth: 0,
        }
    }

    /// Total arrivals offered.
    pub fn offered(&self) -> u64 {
        self.per_kind.iter().map(|k| k.offered).sum()
    }

    /// Total arrivals shed.
    pub fn shed(&self) -> u64 {
        self.per_kind.iter().map(|k| k.shed).sum()
    }

    /// Total arrivals that timed out awaiting admission.
    pub fn timed_out(&self) -> u64 {
        self.per_kind.iter().map(|k| k.timed_out).sum()
    }

    /// Total operations served to a final outcome.
    pub fn served(&self) -> u64 {
        self.per_kind.iter().map(|k| k.served()).sum()
    }

    /// Total commits.
    pub fn commits(&self) -> u64 {
        self.per_kind.iter().map(|k| k.commits).sum()
    }

    /// Total give-ups.
    pub fn give_ups(&self) -> u64 {
        self.per_kind.iter().map(|k| k.give_ups).sum()
    }

    /// Committed transactions per second of wall-clock (the run's
    /// *goodput* — commits over `elapsed`, so an overloaded unbounded
    /// queue pays for its drain time here).
    pub fn goodput(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.commits() as f64 / self.elapsed.as_secs_f64()
    }

    /// All kinds' end-to-end latency merged into one histogram.
    pub fn e2e(&self) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for k in &self.per_kind {
            h.merge(&k.e2e);
        }
        h
    }

    /// All kinds' queue delay merged into one histogram.
    pub fn queue_delay(&self) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for k in &self.per_kind {
            h.merge(&k.queue_delay);
        }
        h
    }

    /// All kinds' service time merged into one histogram.
    pub fn service(&self) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for k in &self.per_kind {
            h.merge(&k.service);
        }
        h
    }

    /// Metrics for a named kind.
    pub fn kind(&self, name: &str) -> Option<&OpenKindMetrics> {
        self.kind_names
            .iter()
            .position(|n| *n == name)
            .map(|i| &self.per_kind[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_rates() {
        let mut k = KindMetrics::default();
        k.record(Outcome::Committed, Duration::from_millis(2));
        k.record(Outcome::Committed, Duration::from_millis(4));
        k.record(Outcome::SerializationFailure, Duration::ZERO);
        k.record(Outcome::Deadlock, Duration::ZERO);
        k.record(Outcome::ApplicationRollback, Duration::ZERO);
        assert_eq!(k.attempts(), 5);
        assert_eq!(k.commits, 2);
        assert!((k.serialization_abort_rate() - 0.2).abs() < 1e-12);
        assert_eq!(k.latency.count(), 2, "only commits count for latency");
    }

    #[test]
    fn merge_accumulates() {
        let mut a = KindMetrics::default();
        let mut b = KindMetrics::default();
        a.record(Outcome::Committed, Duration::from_millis(1));
        b.record(Outcome::SerializationFailure, Duration::ZERO);
        b.record(Outcome::Committed, Duration::from_millis(3));
        a.merge(&b);
        assert_eq!(a.commits, 2);
        assert_eq!(a.serialization_failures, 1);
    }

    #[test]
    fn run_metrics_tps() {
        let mut m = RunMetrics::new(vec!["A", "B"], 4);
        m.per_kind[0].record(Outcome::Committed, Duration::from_millis(1));
        m.per_kind[1].record(Outcome::Committed, Duration::from_millis(1));
        m.measured = Duration::from_secs(2);
        assert_eq!(m.commits(), 2);
        assert!((m.tps() - 1.0).abs() < 1e-12);
        assert!(m.kind("A").is_some());
        assert!(m.kind("Z").is_none());
    }

    #[test]
    fn empty_run_is_zero() {
        let m = RunMetrics::new(vec!["A"], 1);
        assert_eq!(m.tps(), 0.0);
        assert_eq!(m.mean_latency(), Duration::ZERO);
    }

    /// A window in which every attempt aborted (no commits, no latency
    /// or retry samples), and a zero-length window, yield zero rates,
    /// never NaN.
    #[test]
    fn a_window_with_only_aborted_attempts_is_zero_safe() {
        let mut m = RunMetrics::new(vec!["bal", "wc"], 4);
        for _ in 0..7 {
            m.per_kind[0].record(Outcome::SerializationFailure, Duration::ZERO);
        }
        m.per_kind[1].record(Outcome::Deadlock, Duration::ZERO);
        m.per_kind[1].record_give_up();
        m.measured = Duration::from_millis(250);
        assert_eq!(m.commits(), 0);
        assert_eq!(m.tps(), 0.0, "zero commits must yield 0 tps, not NaN");
        assert_eq!(m.retries_per_commit(), 0.0);
        assert_eq!(m.mean_latency(), Duration::ZERO);
        m.measured = Duration::ZERO;
        assert_eq!(m.tps(), 0.0, "a zero-length window must yield 0 tps");
        assert_eq!(m.retries_per_commit(), 0.0);
        assert_eq!(m.mean_latency(), Duration::ZERO);
    }

    #[test]
    fn open_metrics_separate_offered_from_served() {
        let mut m = OpenMetrics::new(vec!["A", "B"]);
        let a = &mut m.per_kind[0];
        a.offered = 10;
        a.shed = 3;
        a.record_attempt(Outcome::SerializationFailure);
        a.record_attempt(Outcome::Committed);
        a.record_served(
            Duration::from_millis(2),
            Duration::from_millis(1),
            Duration::from_millis(3),
        );
        m.per_kind[1].offered = 5;
        m.per_kind[1].timed_out = 5;
        m.elapsed = Duration::from_secs(1);
        m.horizon = Duration::from_secs(1);
        assert_eq!(m.offered(), 15);
        assert_eq!(m.shed(), 3);
        assert_eq!(m.timed_out(), 5);
        assert_eq!(m.served(), 1);
        assert_eq!(m.commits(), 1);
        assert!((m.goodput() - 1.0).abs() < 1e-12);
        assert_eq!(m.e2e().count(), 1);
        assert_eq!(m.queue_delay().count(), 1);
        assert_eq!(m.kind("A").unwrap().attempts(), 2);
        assert!(m.kind("Z").is_none());
    }

    #[test]
    fn open_kind_metrics_merge_accumulates() {
        let mut a = OpenKindMetrics::default();
        let mut b = OpenKindMetrics::default();
        a.offered = 2;
        a.record_attempt(Outcome::Committed);
        b.offered = 3;
        b.shed = 1;
        b.give_ups = 1;
        b.record_served(Duration::ZERO, Duration::ZERO, Duration::from_millis(1));
        a.merge(&b);
        assert_eq!(a.offered, 5);
        assert_eq!(a.shed, 1);
        assert_eq!(a.give_ups, 1);
        assert_eq!(a.served(), 1);
        assert_eq!(a.commits, 1);
    }

    #[test]
    fn empty_open_run_is_zero_safe() {
        let m = OpenMetrics::new(vec!["A"]);
        assert_eq!(m.goodput(), 0.0);
        assert_eq!(m.e2e().quantile(0.99), Duration::ZERO);
        assert_eq!(m.served(), 0);
    }
}

//! The three workloads and how each one is built.

use sicost_engine::{CcMode, CheckpointPolicy, EngineConfig, HistoryObserver, VacuumPolicy};
use sicost_smallbank::{SmallBank, SmallBankConfig, Strategy, WorkloadParams};
use sicost_storage::{PagedConfig, StoragePolicy};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Warm-up before the measured window (virtual time on the model).
pub const RAMP: Duration = Duration::from_millis(500);

/// The paper's population.
pub const CUSTOMERS: u64 = 18_000;
/// Buffer-pool frames of the paged workload.
pub const POOL_FRAMES: usize = 128;
/// Page slots per table of the paged workload. SmallBank has 4 tables, so
/// the working set is 1,024 pages: 8× the pool.
pub const PAGES_PER_TABLE: u32 = 256;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// SSI at CPU speed on the in-memory backend, paper-default mix.
    SsiMem,
    /// SI (first-updater-wins) on the paged backend, working set 8× the
    /// buffer pool.
    SiPaged8x,
    /// SSI on the modelled paper platform with the 10-customer hotspot, in
    /// virtual time under the deterministic simulator.
    SsiHotModel,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [Workload::SsiMem, Workload::SiPaged8x, Workload::SsiHotModel];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SsiMem => "smallbank-ssi-mem",
            Workload::SiPaged8x => "smallbank-si-paged8x",
            Workload::SsiHotModel => "smallbank-ssi-hot-model",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True for the workload that runs in virtual time.
    pub fn is_model(self) -> bool {
        self == Workload::SsiHotModel
    }

    /// True for the workloads whose histories are certified.
    pub fn is_ssi(self) -> bool {
        self.engine().cc == CcMode::Ssi
    }

    /// Closed-loop clients. On real CPU: one per core of the two-core
    /// reference host. More clients than cores measured the host's
    /// scheduler: with 4 on the paged workload, `commit_tps` and
    /// `latency_p99_us` spread by up to 0.29 of their median from run to
    /// run, against 0.04–0.08 with 2.
    /// Modelled: the paper's MPL 10.
    pub fn clients(self) -> usize {
        if self.is_model() {
            10
        } else {
            2
        }
    }

    /// The engine configuration, untraced.
    pub fn engine(self) -> EngineConfig {
        let real_cpu = EngineConfig::functional()
            .with_vacuum(VacuumPolicy::every_commits(20_000))
            .with_checkpoints(CheckpointPolicy::every_wal_bytes(8 << 20));
        match self {
            Workload::SsiMem => real_cpu.with_cc(CcMode::Ssi),
            Workload::SiPaged8x => {
                real_cpu
                    .with_cc(CcMode::SiFirstUpdaterWins)
                    .with_storage(StoragePolicy::Paged(
                        PagedConfig::default()
                            .with_pages_per_table(PAGES_PER_TABLE)
                            .with_pool_pages(POOL_FRAMES),
                    ))
            }
            Workload::SsiHotModel => EngineConfig::postgres_like().with_cc(CcMode::Ssi),
        }
    }

    /// The transaction mix and customer distribution: the paper's uniform
    /// mix everywhere, with 90 % of requests on a hotspot. In memory the
    /// hotspot holds 1,000 customers. Paged it holds 100: with 1,000 and
    /// two clients, first-updater-wins conflicts are so rare (about 30 in
    /// a 15 s window) that `failed_ratio` varies by more than its bound
    /// from seed to seed. The pool still misses on about a third of its
    /// fetches, 2 per commit. Modelled it is the paper's
    /// 10-customer high-contention hotspot. (The paper's high-contention
    /// mix of 60 % Balance is not used: under it about half of all
    /// commits are read-only Balances that finish in exactly 550 µs of
    /// virtual time, so the median latency sits on the edge of that one
    /// value and jumps between 0.6 and 1.2 ms from seed to seed.)
    pub fn params(self) -> WorkloadParams {
        let hotspot = match self {
            Workload::SsiMem => 1_000,
            Workload::SiPaged8x => 100,
            Workload::SsiHotModel => 10,
        };
        WorkloadParams::paper_default().scaled(CUSTOMERS, hotspot)
    }
}

/// The population drawn from the run's seed.
fn population(seed: u64) -> SmallBankConfig {
    SmallBankConfig {
        seed: seed ^ 0x5B5B_5B5B,
        ..SmallBankConfig::paper()
    }
}

/// Builds and populates the database and takes the initial checkpoint;
/// returns the bank and the time that took. With `observer`, the engine
/// reports history events and lock/WAL timings to it.
pub fn set_up(
    workload: Workload,
    seed: u64,
    observer: Option<Arc<dyn HistoryObserver>>,
) -> (Arc<SmallBank>, Duration) {
    let t0 = Instant::now();
    let engine = workload.engine().with_trace_timings(observer.is_some());
    let bank = SmallBank::with_observer(&population(seed), engine, Strategy::BaseSI, observer);
    bank.db()
        .checkpoint()
        .expect("initial checkpoint of a fresh database");
    (Arc::new(bank), t0.elapsed())
}

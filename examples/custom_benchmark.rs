//! Benchmarking your own workload with the closed-system driver: a
//! three-way engine comparison (SI vs SSI vs S2PL) on a custom
//! read-mostly counter workload with simulated disk and CPU costs.
//!
//! ```sh
//! cargo run --release --example custom_benchmark
//! ```

use sicost::common::Xoshiro256;
use sicost::driver::{run, Outcome, RetryPolicy, RunConfig, Workload};
use sicost::engine::{CcMode, CostModel, Database, EngineConfig};
use sicost::storage::{ColumnDef, ColumnType, Row, TableSchema, Value};
use sicost::wal::WalConfig;
use sicost_bench::{summarize, BenchMode, BenchReport, ReportSeries};
use std::time::Duration;

/// A custom workload: 80% point reads, 20% read-modify-write increments
/// over a small counter table.
struct Counters {
    db: Database,
    table: sicost::common::TableId,
    rows: i64,
}

impl Counters {
    fn new(cc: CcMode) -> Self {
        let engine = EngineConfig {
            cc,
            sfu: sicost::engine::SfuSemantics::LockOnly,
            wal: WalConfig {
                sync_latency: Duration::from_millis(2),
                per_record_cost: Duration::from_micros(50),
                commit_delay: Duration::from_micros(300),
            },
            cost: CostModel {
                cpu_per_op: Duration::from_micros(60),
                cpu_per_commit: Duration::from_micros(120),
                cpu_contention_factor: 0.0,
                contention_knee: 0,
            },
            vacuum: sicost::engine::VacuumPolicy::every_commits(10_000),
            checkpoints: sicost::engine::CheckpointPolicy::disabled(),
            storage: sicost::storage::StoragePolicy::InMemory,
            table_intent_locks: false,
            faults: None,
            shards: EngineConfig::DEFAULT_SHARDS,
            trace_timings: false,
        };
        let db = Database::builder()
            .table(
                TableSchema::new(
                    "Counters",
                    vec![
                        ColumnDef::new("id", ColumnType::Int),
                        ColumnDef::new("n", ColumnType::Int),
                    ],
                    0,
                    vec![],
                )
                .unwrap(),
            )
            .unwrap()
            .config(engine)
            .build();
        let table = db.table_id("Counters").unwrap();
        let rows = 256;
        db.bulk_load(
            table,
            (0..rows).map(|i| Row::new(vec![Value::int(i), Value::int(0)])),
        )
        .unwrap();
        Self { db, table, rows }
    }
}

impl Workload for Counters {
    /// `(is_read, key)`: the sampled request, replayed verbatim on retry.
    type Request = (bool, Value);

    fn kinds(&self) -> Vec<&'static str> {
        vec!["read", "increment"]
    }

    fn sample(&self, rng: &mut Xoshiro256) -> (usize, (bool, Value)) {
        let key = Value::int(rng.next_below(self.rows as u64) as i64);
        let is_read = rng.next_bool(0.8);
        (usize::from(!is_read), (is_read, key))
    }

    fn execute(&self, (is_read, key): &(bool, Value), _attempt: u32) -> Outcome {
        if *is_read {
            let mut tx = self.db.begin();
            let r = tx.read(self.table, key).and_then(|_| tx.commit());
            classify(r.map(|_| ()))
        } else {
            let mut tx = self.db.begin();
            let r = (|| {
                let row = tx.read(self.table, key)?.expect("populated");
                let n = row.int(1);
                tx.update(
                    self.table,
                    key,
                    Row::new(vec![key.clone(), Value::int(n + 1)]),
                )?;
                tx.commit().map(|_| ())
            })();
            classify(r)
        }
    }
}

fn classify(r: Result<(), sicost::engine::TxnError>) -> Outcome {
    match r {
        Ok(()) => Outcome::Committed,
        Err(sicost::engine::TxnError::Deadlock) => Outcome::Deadlock,
        Err(e) if e.is_serialization_failure() => Outcome::SerializationFailure,
        Err(_) => Outcome::ApplicationRollback,
    }
}

fn main() {
    let mpls = [1usize, 4, 8, 16];
    let mut report = BenchReport::new(
        "custom_benchmark",
        "Counter workload: SI vs SSI vs S2PL throughput (tps) by MPL",
        BenchMode::Smoke,
    );
    report.expectation = "SI and SSI scale with MPL (readers never block; SSI pays a \
         small validation overhead); S2PL trails once readers start queueing behind writers."
        .into();
    for cc in [CcMode::SiFirstUpdaterWins, CcMode::Ssi, CcMode::S2pl] {
        let mut series = ReportSeries::new(format!("{cc:?}"));
        for &mpl in &mpls {
            let wl = Counters::new(cc);
            let metrics = run(
                &wl,
                &RunConfig::new(mpl)
                    .with_ramp_up(Duration::from_millis(100))
                    .with_measure(Duration::from_millis(600))
                    .with_seed(42)
                    .with_retry(RetryPolicy::disabled()),
            );
            series.push(mpl as f64, summarize(&[metrics.tps()]));
            println!(
                "{cc:?} mpl={mpl}: {:.0} tps, {} serialization aborts, {} deadlocks, mean latency {:?}",
                metrics.tps(),
                metrics.serialization_failures(),
                metrics.deadlocks(),
                metrics.mean_latency(),
            );
        }
        report.push_series("MPL", [series]);
    }
    print!("{}", report.render());
}

//! The correctness gate: a money audit over every committed request and a
//! durability check by crash recovery.

use sicost_common::{Money, Xoshiro256};
use sicost_driver::{Outcome, Workload};
use sicost_engine::{Database, EngineConfig};
use sicost_smallbank::workload::TxnRequest;
use sicost_smallbank::{SmallBank, SmallBankDriver, SmallBankWorkload};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// SmallBank for the driver, keeping a ledger of the money every
/// committed request moved in or out of the bank.
pub struct AuditedBank {
    inner: SmallBankDriver,
    /// Committed DepositChecking and TransactSaving amounts, in cents.
    credited: AtomicI64,
    /// Committed WriteCheck amounts, in cents, before any penalty.
    checks: AtomicI64,
    /// Committed WriteChecks (each may add a $1 overdraft penalty).
    check_count: AtomicU64,
}

impl AuditedBank {
    /// Wraps `bank` under `workload`'s request generator.
    pub fn new(bank: Arc<SmallBank>, workload: SmallBankWorkload) -> Self {
        Self {
            inner: SmallBankDriver::new(bank, workload),
            credited: AtomicI64::new(0),
            checks: AtomicI64::new(0),
            check_count: AtomicU64::new(0),
        }
    }

    /// The bank under test.
    pub fn bank(&self) -> &Arc<SmallBank> {
        self.inner.bank()
    }

    /// Checks the bank's total against the ledger, given the total before
    /// the first request. A WriteCheck charges its amount plus $1 when
    /// the customer is overdrawn, so the total must lie in
    /// `[expected − $1 × checks, expected]`.
    pub fn audit(&self, initial: Money) -> Result<(), String> {
        let expected = initial.as_cents() + self.credited.load(Ordering::SeqCst)
            - self.checks.load(Ordering::SeqCst);
        let penalties =
            Money::dollars(1).as_cents() * self.check_count.load(Ordering::SeqCst) as i64;
        let actual = self.bank().total_balance().as_cents();
        if (expected - penalties..=expected).contains(&actual) {
            Ok(())
        } else {
            Err(format!(
                "money audit failed: total {actual} cents outside [{}, {expected}]",
                expected - penalties
            ))
        }
    }
}

impl Workload for AuditedBank {
    type Request = TxnRequest;

    fn kinds(&self) -> Vec<&'static str> {
        self.inner.kinds()
    }

    fn sample(&self, rng: &mut Xoshiro256) -> (usize, TxnRequest) {
        self.inner.sample(rng)
    }

    fn execute(&self, request: &TxnRequest, attempt: u32) -> Outcome {
        let outcome = self.inner.execute(request, attempt);
        if outcome == Outcome::Committed {
            match request {
                TxnRequest::DepositChecking { v, .. } | TxnRequest::TransactSaving { v, .. } => {
                    self.credited.fetch_add(v.as_cents(), Ordering::Relaxed);
                }
                TxnRequest::WriteCheck { v, .. } => {
                    self.checks.fetch_add(v.as_cents(), Ordering::Relaxed);
                    self.check_count.fetch_add(1, Ordering::Relaxed);
                }
                TxnRequest::Balance { .. } | TxnRequest::Amalgamate { .. } => {}
            }
        }
        outcome
    }
}

/// What the durability check measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct Recovered {
    /// Wall-clock time of the recovery.
    pub elapsed: Duration,
    /// Log bytes replayed past the last checkpoint.
    pub replayed_bytes: u64,
}

/// Recovers a fresh database from `db`'s durable image and checks that
/// every table's visible rows equal the live database's. `db` must be
/// quiescent.
pub fn check_durability(db: &Database, engine: EngineConfig) -> Result<Recovered, String> {
    let image = db.durable_image();
    let t0 = Instant::now();
    let (recovered, _, outcome) = sicost_smallbank::recover_database(engine, &image)
        .map_err(|e| format!("durability check: recovery failed: {e:?}"))?;
    let elapsed = t0.elapsed();
    for table in db.catalog().tables() {
        let name = &table.schema().name;
        let copy = recovered
            .catalog()
            .table_by_name(name)
            .ok_or_else(|| format!("durability check: table {name} missing after recovery"))?;
        let live = table.snapshot_at(db.clock());
        let back = copy.snapshot_at(recovered.clock());
        if live != back {
            return Err(format!(
                "durability check: table {name} differs after recovery ({} live rows, {} recovered)",
                live.len(),
                back.len()
            ));
        }
    }
    Ok(Recovered {
        elapsed,
        replayed_bytes: outcome.replayed_bytes,
    })
}

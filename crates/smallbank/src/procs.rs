//! The five SmallBank transaction programs (§III-B), with the strategy
//! modifications woven in exactly where the paper's Table I puts them.
//!
//! Each program is written once, generic over a [`Session`]: the three
//! statements the programs issue. The engine's [`Transaction`] is one
//! session (the in-process [`SmallBank`]); the wire client's transaction
//! in `sicost-server` is the other.

use crate::schema::{build_database, SmallBankConfig, Tables};
use crate::strategy::{Mods, Strategy};
use crate::workload::TxnRequest;
use sicost_common::{Money, TableId};
use sicost_engine::{Database, EngineConfig, HistoryObserver, Transaction, TxnError};
use sicost_storage::{Row, Value};
use std::sync::Arc;

/// The statements a SmallBank program issues inside one open
/// transaction. Opening and ending the transaction is the caller's job.
pub trait Session {
    /// `SELECT * FROM table WHERE pk = :key`.
    fn read(&mut self, table: TableId, key: &Value) -> Result<Option<Row>, TxnError>;

    /// `SELECT * FROM table WHERE pk = :key FOR UPDATE`.
    fn read_for_update(&mut self, table: TableId, key: &Value) -> Result<Option<Row>, TxnError>;

    /// `UPDATE table SET … WHERE pk = :key`, replacing the row image.
    fn update(&mut self, table: TableId, key: &Value, row: Row) -> Result<(), TxnError>;
}

impl Session for Transaction<'_> {
    fn read(&mut self, table: TableId, key: &Value) -> Result<Option<Row>, TxnError> {
        Transaction::read(self, table, key)
    }

    fn read_for_update(&mut self, table: TableId, key: &Value) -> Result<Option<Row>, TxnError> {
        Transaction::read_for_update(self, table, key)
    }

    fn update(&mut self, table: TableId, key: &Value, row: Row) -> Result<(), TxnError> {
        Transaction::update(self, table, key, row)
    }
}

/// Outcome domain of the procedures: either the engine aborted us
/// (serialization failure / deadlock) or the application rolled back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SbError {
    /// Engine-level abort (serialization failure, deadlock, constraint).
    Txn(TxnError),
    /// The customer name does not exist (DC/WC/TS/Amg rollback rule).
    AccountMissing,
    /// Negative deposit amount (DC rollback rule).
    InvalidAmount,
    /// TransactSaving would drive savings negative (rollback rule).
    InsufficientFunds,
}

impl From<TxnError> for SbError {
    fn from(e: TxnError) -> Self {
        SbError::Txn(e)
    }
}

impl SbError {
    /// True for engine serialization failures (the aborts Figure 6 counts).
    pub fn is_serialization_failure(&self) -> bool {
        matches!(self, SbError::Txn(e) if e.is_serialization_failure())
    }

    /// True for application-rule rollbacks.
    pub fn is_application_rollback(&self) -> bool {
        matches!(
            self,
            SbError::AccountMissing | SbError::InvalidAmount | SbError::InsufficientFunds
        )
    }
}

impl std::fmt::Display for SbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SbError::Txn(e) => write!(f, "{e}"),
            SbError::AccountMissing => write!(f, "account not found"),
            SbError::InvalidAmount => write!(f, "invalid amount"),
            SbError::InsufficientFunds => write!(f, "insufficient funds"),
        }
    }
}

impl std::error::Error for SbError {}

/// The SmallBank application: a database, its table handles, and the
/// strategy the procedures run with. Share behind an `Arc` across client
/// threads.
pub struct SmallBank {
    db: Database,
    tables: Tables,
    strategy: Strategy,
    mods: Mods,
}

impl SmallBank {
    /// Builds and populates a SmallBank instance.
    pub fn new(config: &SmallBankConfig, engine: EngineConfig, strategy: Strategy) -> Self {
        Self::with_observer(config, engine, strategy, None)
    }

    /// As [`SmallBank::new`], with a history observer for MVSG capture.
    pub fn with_observer(
        config: &SmallBankConfig,
        engine: EngineConfig,
        strategy: Strategy,
        observer: Option<Arc<dyn HistoryObserver>>,
    ) -> Self {
        let (db, tables) = build_database(config, engine, observer);
        Self::adopt(db, tables, strategy)
    }

    /// Wraps an existing database (e.g. one rebuilt by crash recovery
    /// via [`crate::schema::recover_database`]) without repopulating it.
    pub fn adopt(db: Database, tables: Tables, strategy: Strategy) -> Self {
        Self {
            db,
            tables,
            strategy,
            mods: strategy.mods(),
        }
    }

    /// The underlying database (metrics, vacuum, log).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Table handles.
    pub fn tables(&self) -> &Tables {
        &self.tables
    }

    /// The strategy in force.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Total money in the bank (conservation oracle).
    pub fn total_balance(&self) -> Money {
        crate::schema::total_balance(&self.db, &self.tables)
    }

    /// Runs `program` in a fresh transaction: commits on `Ok`, rolls
    /// back on `Err`.
    fn transact<R>(
        &self,
        program: impl FnOnce(&mut Transaction<'_>) -> Result<R, SbError>,
    ) -> Result<R, SbError> {
        let mut tx = self.db.begin();
        match program(&mut tx) {
            Ok(r) => {
                tx.commit()?;
                Ok(r)
            }
            Err(e) => {
                tx.rollback();
                Err(e)
            }
        }
    }

    /// Runs one sampled request with this bank's strategy.
    pub fn execute(&self, req: &TxnRequest) -> Result<(), SbError> {
        precheck(req)?;
        self.transact(|tx| execute(tx, &self.tables, &self.mods, req))
    }

    /// `Balance(N)`; see [`balance`].
    pub fn balance(&self, name: &str) -> Result<Money, SbError> {
        self.transact(|tx| balance(tx, &self.tables, &self.mods, name))
    }

    /// `DepositChecking(N, V)`; see [`deposit_checking`]. A negative `V`
    /// is rejected before any transaction opens.
    pub fn deposit_checking(&self, name: &str, v: Money) -> Result<(), SbError> {
        check_deposit(v)?;
        self.transact(|tx| deposit_checking(tx, &self.tables, &self.mods, name, v))
    }

    /// `TransactSaving(N, V)`; see [`transact_saving`].
    pub fn transact_saving(&self, name: &str, v: Money) -> Result<(), SbError> {
        self.transact(|tx| transact_saving(tx, &self.tables, &self.mods, name, v))
    }

    /// `Amalgamate(N1, N2)`; see [`amalgamate`].
    pub fn amalgamate(&self, n1: &str, n2: &str) -> Result<(), SbError> {
        self.transact(|tx| amalgamate(tx, &self.tables, &self.mods, n1, n2))
    }

    /// `WriteCheck(N, V)`; see [`write_check`].
    pub fn write_check(&self, name: &str, v: Money) -> Result<(), SbError> {
        self.transact(|tx| write_check(tx, &self.tables, &self.mods, name, v))
    }

    /// `WriteCheck` run with §II-D's third approach: the *pivot*
    /// transaction executes under (simulated) 2PL by taking an explicit
    /// table-granularity exclusive lock on `Saving` before its reads.
    /// By Fekete's allocation theorem (running every pivot with 2PL makes
    /// all executions serializable), this removes the dangerous structure
    /// without touching the other four programs — at the price the paper
    /// predicts: "the explicit locks are all of table granularity and
    /// thus will have very poor performance."
    ///
    /// Only effective when the engine runs with
    /// [`sicost_engine::EngineConfig::table_intent_locks`] so that other
    /// writers conflict with the table lock.
    pub fn write_check_with_table_lock(&self, name: &str, v: Money) -> Result<(), SbError> {
        self.transact(|tx| {
            tx.lock_table(self.tables.saving, true)?;
            // PostgreSQL pattern: LOCK TABLE as the first statement means
            // the snapshot is established only after the lock is granted —
            // which is exactly what makes the pivot's reads 2PL-stable.
            tx.refresh_snapshot()?;
            write_check(tx, &self.tables, &self.mods, name, v)
        })
    }
}

// ----- shared fragments -----------------------------------------------------

/// `SELECT CustomerId FROM Account WHERE Name = :n`
fn lookup_cid<S: Session>(s: &mut S, t: &Tables, name: &str) -> Result<Option<i64>, TxnError> {
    Ok(s.read(t.account, &Value::str(name))?.map(|row| row.int(1)))
}

fn read_balance<S: Session>(
    s: &mut S,
    table: TableId,
    cid: i64,
    for_update: bool,
) -> Result<Money, TxnError> {
    let row = if for_update {
        s.read_for_update(table, &Value::int(cid))?
    } else {
        s.read(table, &Value::int(cid))?
    };
    // Population guarantees a row per customer; a missing row would be
    // an engine bug, but fail soft as zero like the SQL would (NULL sum).
    Ok(row.map(|r| Money::cents(r.int(1))).unwrap_or(Money::ZERO))
}

fn write_balance<S: Session>(
    s: &mut S,
    table: TableId,
    cid: i64,
    balance: Money,
) -> Result<(), TxnError> {
    s.update(
        table,
        &Value::int(cid),
        Row::new(vec![Value::int(cid), Value::int(balance.as_cents())]),
    )
}

/// The identity update of promotion: `UPDATE t SET Balance = Balance
/// WHERE CustomerId = :cid`.
fn identity_update<S: Session>(s: &mut S, table: TableId, cid: i64) -> Result<(), TxnError> {
    let current = read_balance(s, table, cid, false)?;
    write_balance(s, table, cid, current)
}

/// The materialization statement: `UPDATE Conflict SET Value = Value+1
/// WHERE Id = :cid`.
fn bump_conflict<S: Session>(s: &mut S, t: &Tables, cid: i64) -> Result<(), TxnError> {
    let key = Value::int(cid);
    let v = s.read(t.conflict, &key)?.map(|r| r.int(1)).unwrap_or(0);
    s.update(
        t.conflict,
        &key,
        Row::new(vec![key.clone(), Value::int(v + 1)]),
    )
}

// ----- the five programs ------------------------------------------------------

/// `DepositChecking`'s argument rule. Callers check it before opening
/// the transaction, so a rejected deposit allocates no transaction.
fn check_deposit(v: Money) -> Result<(), SbError> {
    if v.is_negative() {
        return Err(SbError::InvalidAmount);
    }
    Ok(())
}

/// The argument checks a request must pass before its transaction opens
/// (today only `DepositChecking`'s non-negative amount).
pub fn precheck(req: &TxnRequest) -> Result<(), SbError> {
    match req {
        TxnRequest::DepositChecking { v, .. } => check_deposit(*v),
        _ => Ok(()),
    }
}

/// Runs one request's program body in the open session `s`. The caller
/// runs [`precheck`] first and ends the transaction after.
pub fn execute<S: Session>(
    s: &mut S,
    t: &Tables,
    m: &Mods,
    req: &TxnRequest,
) -> Result<(), SbError> {
    match req {
        TxnRequest::Balance { name } => balance(s, t, m, name).map(|_| ()),
        TxnRequest::DepositChecking { name, v } => deposit_checking(s, t, m, name, *v),
        TxnRequest::TransactSaving { name, v } => transact_saving(s, t, m, name, *v),
        TxnRequest::Amalgamate { n1, n2 } => amalgamate(s, t, m, n1, n2),
        TxnRequest::WriteCheck { name, v } => write_check(s, t, m, name, *v),
    }
}

/// `Balance(N)` — total of savings and checking (§III-B). Read-only in
/// the base coding; the BW/ALL strategies add writes here.
pub fn balance<S: Session>(s: &mut S, t: &Tables, m: &Mods, name: &str) -> Result<Money, SbError> {
    let Some(cid) = lookup_cid(s, t, name)? else {
        return Err(SbError::AccountMissing);
    };
    let sav = read_balance(s, t.saving, cid, false)?;
    let chk = read_balance(s, t.checking, cid, m.bal_sfu_checking)?;
    if m.bal_ident_saving {
        identity_update(s, t.saving, cid)?;
    }
    if m.bal_ident_checking {
        identity_update(s, t.checking, cid)?;
    }
    if m.bal_conflict {
        bump_conflict(s, t, cid)?;
    }
    Ok(sav + chk)
}

/// `DepositChecking(N, V)` (§III-B): rolls back on an unknown name. The
/// negative-`V` rollback rule is [`precheck`]'s.
pub fn deposit_checking<S: Session>(
    s: &mut S,
    t: &Tables,
    m: &Mods,
    name: &str,
    v: Money,
) -> Result<(), SbError> {
    let Some(cid) = lookup_cid(s, t, name)? else {
        return Err(SbError::AccountMissing);
    };
    let chk = read_balance(s, t.checking, cid, false)?;
    write_balance(s, t.checking, cid, chk + v)?;
    if m.dc_conflict {
        bump_conflict(s, t, cid)?;
    }
    Ok(())
}

/// `TransactSaving(N, V)` (§III-B): deposit or withdrawal on savings;
/// rolls back if the result would be negative or the name is unknown.
pub fn transact_saving<S: Session>(
    s: &mut S,
    t: &Tables,
    m: &Mods,
    name: &str,
    v: Money,
) -> Result<(), SbError> {
    let Some(cid) = lookup_cid(s, t, name)? else {
        return Err(SbError::AccountMissing);
    };
    let new = read_balance(s, t.saving, cid, false)? + v;
    if new.is_negative() {
        return Err(SbError::InsufficientFunds);
    }
    write_balance(s, t.saving, cid, new)?;
    if m.ts_conflict {
        bump_conflict(s, t, cid)?;
    }
    Ok(())
}

/// `Amalgamate(N1, N2)` (§III-B): moves all funds of `n1` to `n2`'s
/// checking account.
pub fn amalgamate<S: Session>(
    s: &mut S,
    t: &Tables,
    m: &Mods,
    n1: &str,
    n2: &str,
) -> Result<(), SbError> {
    let (Some(cid1), Some(cid2)) = (lookup_cid(s, t, n1)?, lookup_cid(s, t, n2)?) else {
        return Err(SbError::AccountMissing);
    };
    let sav1 = read_balance(s, t.saving, cid1, false)?;
    let chk1 = read_balance(s, t.checking, cid1, false)?;
    let chk2 = read_balance(s, t.checking, cid2, false)?;
    write_balance(s, t.saving, cid1, Money::ZERO)?;
    write_balance(s, t.checking, cid1, Money::ZERO)?;
    write_balance(s, t.checking, cid2, chk2 + sav1 + chk1)?;
    if m.amg_conflict {
        bump_conflict(s, t, cid1)?;
        bump_conflict(s, t, cid2)?;
    }
    Ok(())
}

/// `WriteCheck(N, V)` (§III-B / Program 1): charges `V` against
/// checking, with a $1 overdraft penalty when savings+checking can't
/// cover it.
pub fn write_check<S: Session>(
    s: &mut S,
    t: &Tables,
    m: &Mods,
    name: &str,
    v: Money,
) -> Result<(), SbError> {
    let Some(cid) = lookup_cid(s, t, name)? else {
        return Err(SbError::AccountMissing);
    };
    let sav = read_balance(s, t.saving, cid, m.wc_sfu_saving)?;
    let chk = read_balance(s, t.checking, cid, false)?;
    let charge = if (sav + chk) < v {
        v + Money::dollars(1)
    } else {
        v
    };
    write_balance(s, t.checking, cid, chk - charge)?;
    if m.wc_ident_saving {
        write_balance(s, t.saving, cid, sav)?;
    }
    if m.wc_conflict {
        bump_conflict(s, t, cid)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::customer_name;

    fn bank(strategy: Strategy) -> SmallBank {
        SmallBank::new(
            &SmallBankConfig::small(20),
            EngineConfig::functional(),
            strategy,
        )
    }

    #[test]
    fn balance_sums_savings_and_checking() {
        let b = bank(Strategy::BaseSI);
        let n = customer_name(3);
        let total = b.balance(&n).unwrap();
        b.deposit_checking(&n, Money::dollars(25)).unwrap();
        assert_eq!(b.balance(&n).unwrap(), total + Money::dollars(25));
    }

    #[test]
    fn unknown_customer_rolls_back_every_program() {
        let b = bank(Strategy::BaseSI);
        assert_eq!(b.balance("ghost"), Err(SbError::AccountMissing));
        assert_eq!(
            b.deposit_checking("ghost", Money::dollars(1)),
            Err(SbError::AccountMissing)
        );
        assert_eq!(
            b.transact_saving("ghost", Money::dollars(1)),
            Err(SbError::AccountMissing)
        );
        assert_eq!(
            b.write_check("ghost", Money::dollars(1)),
            Err(SbError::AccountMissing)
        );
        assert_eq!(
            b.amalgamate("ghost", &customer_name(1)),
            Err(SbError::AccountMissing)
        );
        // All ended as application rollbacks, not serialization aborts.
        let m = b.db().metrics();
        assert_eq!(m.serialization_failures(), 0);
        assert!(m.aborts_application >= 5);
    }

    #[test]
    fn deposit_rejects_negative_amounts() {
        let b = bank(Strategy::BaseSI);
        assert_eq!(
            b.deposit_checking(&customer_name(0), Money::dollars(-5)),
            Err(SbError::InvalidAmount)
        );
    }

    #[test]
    fn transact_saving_enforces_non_negative_balance() {
        let b = bank(Strategy::BaseSI);
        let n = customer_name(2);
        let before = b.total_balance();
        // Drain far beyond the max initial balance.
        assert_eq!(
            b.transact_saving(&n, Money::dollars(-100_000)),
            Err(SbError::InsufficientFunds)
        );
        assert_eq!(b.total_balance(), before, "rollback must not move money");
        // A modest deposit works.
        b.transact_saving(&n, Money::dollars(10)).unwrap();
        assert_eq!(b.total_balance(), before + Money::dollars(10));
    }

    #[test]
    fn write_check_applies_overdraft_penalty() {
        let b = bank(Strategy::BaseSI);
        let n = customer_name(4);
        let total = b.balance(&n).unwrap();
        let before = b.total_balance();
        // Overdraw: charge = v + $1.
        let v = total + Money::dollars(5);
        b.write_check(&n, v).unwrap();
        assert_eq!(b.total_balance(), before - v - Money::dollars(1));
        // Non-overdraw WC charges exactly v (account now deep negative,
        // so deposit first).
        b.deposit_checking(&n, v + v).unwrap();
        let before = b.total_balance();
        b.write_check(&n, Money::dollars(1)).unwrap();
        assert_eq!(b.total_balance(), before - Money::dollars(1));
    }

    #[test]
    fn amalgamate_moves_everything() {
        let b = bank(Strategy::BaseSI);
        let (n1, n2) = (customer_name(5), customer_name(6));
        let t1 = b.balance(&n1).unwrap();
        let t2 = b.balance(&n2).unwrap();
        let before = b.total_balance();
        b.amalgamate(&n1, &n2).unwrap();
        assert_eq!(b.balance(&n1).unwrap(), Money::ZERO);
        assert_eq!(b.balance(&n2).unwrap(), t1 + t2);
        assert_eq!(b.total_balance(), before, "amalgamate conserves money");
    }

    #[test]
    fn every_strategy_preserves_semantics() {
        // The modifications must not change observable behaviour.
        for strategy in Strategy::all() {
            let b = bank(strategy);
            let n = customer_name(7);
            let total = b.balance(&n).unwrap();
            b.deposit_checking(&n, Money::dollars(10)).unwrap();
            b.transact_saving(&n, Money::dollars(5)).unwrap();
            b.write_check(&n, Money::dollars(3)).unwrap();
            assert_eq!(
                b.balance(&n).unwrap(),
                total + Money::dollars(12),
                "strategy {strategy} changed semantics"
            );
            b.amalgamate(&n, &customer_name(8)).unwrap();
            assert_eq!(b.balance(&n).unwrap(), Money::ZERO);
        }
    }

    #[test]
    fn conflict_table_is_bumped_only_by_materialize_strategies() {
        let read_conflict_sum = |b: &SmallBank| {
            let mut sum = 0;
            b.db().catalog().table(b.tables().conflict).scan_at(
                b.db().clock(),
                &sicost_storage::Predicate::True,
                |_, row, _| sum += row.int(1),
            );
            sum
        };
        let b = bank(Strategy::MaterializeWT);
        let n = customer_name(1);
        b.write_check(&n, Money::dollars(1)).unwrap();
        b.transact_saving(&n, Money::dollars(1)).unwrap();
        b.balance(&n).unwrap();
        b.deposit_checking(&n, Money::dollars(1)).unwrap();
        assert_eq!(read_conflict_sum(&b), 2, "only WC and TS bump Conflict");

        let b = bank(Strategy::PromoteALL);
        b.write_check(&n, Money::dollars(1)).unwrap();
        b.balance(&n).unwrap();
        assert_eq!(read_conflict_sum(&b), 0, "promotion never touches Conflict");

        let b = bank(Strategy::MaterializeALL);
        b.write_check(&n, Money::dollars(1)).unwrap();
        b.transact_saving(&n, Money::dollars(1)).unwrap();
        b.balance(&n).unwrap();
        b.deposit_checking(&n, Money::dollars(1)).unwrap();
        b.amalgamate(&n, &customer_name(2)).unwrap();
        assert_eq!(read_conflict_sum(&b), 6, "Amg bumps two rows");
    }

    #[test]
    fn write_check_with_table_lock_has_identical_semantics() {
        let mut cfg = EngineConfig::functional();
        cfg.table_intent_locks = true;
        let b = SmallBank::new(&SmallBankConfig::small(20), cfg, Strategy::BaseSI);
        let n = customer_name(9);
        let total = b.balance(&n).unwrap();
        let before = b.total_balance();
        b.write_check_with_table_lock(&n, Money::dollars(5))
            .unwrap();
        assert_eq!(b.balance(&n).unwrap(), total - Money::dollars(5));
        assert_eq!(b.total_balance(), before - Money::dollars(5));
        // Unknown customer still rolls back.
        assert_eq!(
            b.write_check_with_table_lock("ghost", Money::dollars(1)),
            Err(SbError::AccountMissing)
        );
    }

    /// A recording fake [`Session`]: rows live in a map, and every
    /// statement is logged as `<op><table>`, with op `r` (read), `f`
    /// (read for update) or `u` (update), and table `A`ccount, `S`aving,
    /// `C`hecking or con`F`lict.
    struct Recorder {
        rows: std::collections::HashMap<(TableId, Value), Row>,
        log: Vec<String>,
    }

    const FAKE_TABLES: Tables = Tables {
        account: TableId(0),
        saving: TableId(1),
        checking: TableId(2),
        conflict: TableId(3),
    };

    impl Recorder {
        /// Two customers, `a` (id 1) and `b` (id 2), $10 in each account.
        fn new() -> Self {
            let t = FAKE_TABLES;
            let mut rows = std::collections::HashMap::new();
            for (name, cid) in [("a", 1), ("b", 2)] {
                let account = Row::new(vec![Value::str(name), Value::int(cid)]);
                rows.insert((t.account, Value::str(name)), account);
                for table in [t.saving, t.checking] {
                    let balance = Row::new(vec![Value::int(cid), Value::int(1_000)]);
                    rows.insert((table, Value::int(cid)), balance);
                }
            }
            Self {
                rows,
                log: Vec::new(),
            }
        }

        fn record(&mut self, op: char, table: TableId) {
            let t = ['A', 'S', 'C', 'F'][table.0 as usize];
            self.log.push(format!("{op}{t}"));
        }
    }

    impl Session for Recorder {
        fn read(&mut self, table: TableId, key: &Value) -> Result<Option<Row>, TxnError> {
            self.record('r', table);
            Ok(self.rows.get(&(table, key.clone())).cloned())
        }

        fn read_for_update(
            &mut self,
            table: TableId,
            key: &Value,
        ) -> Result<Option<Row>, TxnError> {
            self.record('f', table);
            Ok(self.rows.get(&(table, key.clone())).cloned())
        }

        fn update(&mut self, table: TableId, key: &Value, row: Row) -> Result<(), TxnError> {
            self.record('u', table);
            self.rows.insert((table, key.clone()), row);
            Ok(())
        }
    }

    #[test]
    fn each_strategy_issues_the_statements_of_table_i() {
        let requests = [
            TxnRequest::Balance { name: "a".into() },
            TxnRequest::DepositChecking {
                name: "a".into(),
                v: Money::dollars(1),
            },
            TxnRequest::TransactSaving {
                name: "a".into(),
                v: Money::dollars(1),
            },
            TxnRequest::Amalgamate {
                n1: "a".into(),
                n2: "b".into(),
            },
            TxnRequest::WriteCheck {
                name: "a".into(),
                v: Money::dollars(1),
            },
        ];
        // Per strategy, the statements of Balance | DepositChecking |
        // TransactSaving | Amalgamate | WriteCheck.
        let base = "rA rS rC | rA rC uC | rA rS uS | rA rA rS rC rC uS uC uC | rA rS rC uC";
        let expected = [
            (Strategy::BaseSI, base),
            (
                Strategy::MaterializeWT,
                "rA rS rC | rA rC uC | rA rS uS rF uF | rA rA rS rC rC uS uC uC | rA rS rC uC rF uF",
            ),
            (
                Strategy::PromoteWTUpd,
                "rA rS rC | rA rC uC | rA rS uS | rA rA rS rC rC uS uC uC | rA rS rC uC uS",
            ),
            (
                Strategy::PromoteWTSfu,
                "rA rS rC | rA rC uC | rA rS uS | rA rA rS rC rC uS uC uC | rA fS rC uC",
            ),
            (
                Strategy::MaterializeBW,
                "rA rS rC rF uF | rA rC uC | rA rS uS | rA rA rS rC rC uS uC uC | rA rS rC uC rF uF",
            ),
            (
                Strategy::PromoteBWUpd,
                "rA rS rC rC uC | rA rC uC | rA rS uS | rA rA rS rC rC uS uC uC | rA rS rC uC",
            ),
            (
                Strategy::PromoteBWSfu,
                "rA rS fC | rA rC uC | rA rS uS | rA rA rS rC rC uS uC uC | rA rS rC uC",
            ),
            (
                Strategy::MaterializeALL,
                "rA rS rC rF uF | rA rC uC rF uF | rA rS uS rF uF \
                 | rA rA rS rC rC uS uC uC rF uF rF uF | rA rS rC uC rF uF",
            ),
            (
                Strategy::PromoteALL,
                "rA rS rC rS uS rC uC | rA rC uC | rA rS uS | rA rA rS rC rC uS uC uC | rA rS rC uC uS",
            ),
        ];
        assert_eq!(expected.len(), Strategy::all().len());
        for (strategy, want) in expected {
            let got: Vec<String> = requests
                .iter()
                .map(|req| {
                    let mut fake = Recorder::new();
                    execute(&mut fake, &FAKE_TABLES, &strategy.mods(), req)
                        .unwrap_or_else(|e| panic!("{strategy} {:?}: {e}", req.kind()));
                    fake.log.join(" ")
                })
                .collect();
            assert_eq!(got.join(" | "), want, "{strategy}");
        }
    }

    #[test]
    fn bw_strategies_make_balance_an_updater() {
        for (strategy, expect_wal) in [
            (Strategy::BaseSI, false),
            (Strategy::MaterializeWT, false),
            (Strategy::PromoteWTUpd, false),
            (Strategy::MaterializeBW, true),
            (Strategy::PromoteBWUpd, true),
            (Strategy::PromoteALL, true),
        ] {
            let b = bank(strategy);
            let before = b.db().wal_stats().records;
            b.balance(&customer_name(0)).unwrap();
            let wrote = b.db().wal_stats().records > before;
            assert_eq!(
                wrote, expect_wal,
                "strategy {strategy}: Balance WAL behaviour"
            );
        }
    }
}

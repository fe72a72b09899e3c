//! The SmallBank programs executed over the wire, plus the driver
//! adapter that makes the remote bank a measurable [`Workload`].
//!
//! The programs are coded once, in `sicost_smallbank::procs`, over its
//! [`Session`] trait; this module makes the client's [`ClientTxn`] a
//! second session. Every statement is then a protocol round trip, except
//! `update`, which is pipelined so a program's trailing writes ride in
//! the commit's network flush. [`RemoteBank`] runs the base coding
//! (`Strategy::BaseSI`); the client/server equivalence tests compare it
//! against the in-process bank under each concurrency-control mode.

use crate::client::{ClientError, ClientPool, ClientTxn, CommitOutcome};
use crate::transport::Transport;
use sicost_common::{TableId, Xoshiro256};
use sicost_driver::{Outcome, Workload};
use sicost_engine::TxnError;
use sicost_smallbank::driver_adapter::{classify, kinds, sample};
use sicost_smallbank::procs::{self, Session};
use sicost_smallbank::schema::Tables;
use sicost_smallbank::strategy::Mods;
use sicost_smallbank::workload::TxnRequest;
use sicost_smallbank::{SbError, SmallBankWorkload, Strategy};
use sicost_storage::{Row, Value};

impl<T: Transport> Session for ClientTxn<'_, T> {
    fn read(&mut self, table: TableId, key: &Value) -> Result<Option<Row>, TxnError> {
        ClientTxn::read(self, table, key)
    }

    fn read_for_update(&mut self, table: TableId, key: &Value) -> Result<Option<Row>, TxnError> {
        ClientTxn::read_for_update(self, table, key)
    }

    fn update(&mut self, table: TableId, key: &Value, row: Row) -> Result<(), TxnError> {
        self.update_pipelined(table, key, row)
    }
}

/// How a remote procedure failed.
#[derive(Debug, Clone, PartialEq)]
pub enum RemoteError {
    /// The server rolled the transaction back (engine error or
    /// application rule). Definitely not committed.
    Sb(SbError),
    /// The connection failed before the commit was in flight.
    /// Definitely not committed.
    NotCommitted(ClientError),
    /// The commit was in flight when the connection failed. The
    /// transaction may or may not have applied — only the database
    /// knows (the recovery-torture oracle's *undecided* class).
    Indeterminate(ClientError),
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::Sb(e) => write!(f, "{e}"),
            RemoteError::NotCommitted(e) => write!(f, "not committed: {e}"),
            RemoteError::Indeterminate(e) => write!(f, "indeterminate: {e}"),
        }
    }
}

impl std::error::Error for RemoteError {}

impl RemoteError {
    /// True when the commit fate is unknown.
    pub fn is_indeterminate(&self) -> bool {
        matches!(self, RemoteError::Indeterminate(_))
    }
}

/// The SmallBank client application: a connection pool plus the table
/// ids learned from the handshake catalog.
pub struct RemoteBank<T: Transport> {
    pool: ClientPool<T>,
    tables: Tables,
    mods: Mods,
}

fn commit_outcome(outcome: CommitOutcome) -> Result<(), RemoteError> {
    match outcome {
        CommitOutcome::Committed { .. } => Ok(()),
        CommitOutcome::Aborted(e) => Err(RemoteError::Sb(SbError::Txn(e))),
        CommitOutcome::Failed(e) => Err(RemoteError::NotCommitted(e)),
        CommitOutcome::Indeterminate(e) => Err(RemoteError::Indeterminate(e)),
    }
}

impl<T: Transport> RemoteBank<T> {
    /// Wraps a pool, dialing one connection to learn the catalog. The
    /// server must expose the four SmallBank tables by name.
    pub fn new(pool: ClientPool<T>) -> Result<Self, ClientError> {
        let tables = pool.with(|c| {
            let find = |name: &str| {
                c.table_id(name)
                    .ok_or_else(|| ClientError::Unexpected(format!("no table {name:?} in catalog")))
            };
            Ok::<Tables, ClientError>(Tables {
                account: find("Account")?,
                saving: find("Saving")?,
                checking: find("Checking")?,
                conflict: find("Conflict")?,
            })
        })??;
        Ok(Self {
            pool,
            tables,
            mods: Strategy::BaseSI.mods(),
        })
    }

    /// The table ids in use.
    pub fn tables(&self) -> &Tables {
        &self.tables
    }

    /// Runs `program` (e.g. one of `sicost_smallbank::procs`'s programs,
    /// for its result) in a fresh transaction on a pooled connection:
    /// commits on `Ok`, rolls back on `Err`.
    pub fn transact<R>(
        &self,
        program: impl FnOnce(&mut ClientTxn<'_, T>) -> Result<R, SbError>,
    ) -> Result<R, RemoteError> {
        let mut client = self.pool.checkout().map_err(RemoteError::NotCommitted)?;
        let result = match client.begin() {
            Err(e) => Err(RemoteError::NotCommitted(e)),
            Ok(mut txn) => match program(&mut txn) {
                Ok(r) => commit_outcome(txn.commit()).map(|()| r),
                Err(e) => {
                    txn.rollback();
                    Err(RemoteError::Sb(e))
                }
            },
        };
        self.pool.checkin(client);
        result
    }

    /// Runs one sampled request.
    pub fn execute(&self, req: &TxnRequest) -> Result<(), RemoteError> {
        procs::precheck(req).map_err(RemoteError::Sb)?;
        self.transact(|txn| procs::execute(txn, &self.tables, &self.mods, req))
    }
}

/// Maps a remote result into the driver's outcome taxonomy. The two
/// network-failure classes part ways here: a connection that died
/// *before* the commit frame went out ([`RemoteError::NotCommitted`])
/// provably left no state behind and is a retryable transient fault,
/// while a lost acknowledgement ([`RemoteError::Indeterminate`]) maps to
/// [`Outcome::Indeterminate`], which [`RetryPolicy`] classifies as
/// non-retryable — the commit may have applied, and re-running the
/// transaction could double-apply it (the fault-sweep regression test
/// demonstrates exactly that).
///
/// [`RetryPolicy`]: sicost_driver::RetryPolicy
pub fn classify_remote(result: Result<(), RemoteError>) -> Outcome {
    match result {
        Ok(()) => classify(Ok(())),
        Err(RemoteError::Sb(e)) => classify(Err(e)),
        Err(RemoteError::NotCommitted(_)) => Outcome::TransientFault,
        Err(RemoteError::Indeterminate(_)) => Outcome::Indeterminate,
    }
}

/// A measurable over-the-wire SmallBank workload: the remote bank plus
/// the same request generator the in-process driver uses, so a run with
/// equal sampling seeds issues the identical request stream.
pub struct RemoteWorkload<T: Transport> {
    bank: RemoteBank<T>,
    workload: SmallBankWorkload,
}

impl<T: Transport> RemoteWorkload<T> {
    /// Bundles a remote bank and a request generator.
    pub fn new(bank: RemoteBank<T>, workload: SmallBankWorkload) -> Self {
        Self { bank, workload }
    }

    /// The remote bank under test.
    pub fn bank(&self) -> &RemoteBank<T> {
        &self.bank
    }
}

impl<T: Transport> Workload for RemoteWorkload<T> {
    type Request = TxnRequest;

    fn kinds(&self) -> Vec<&'static str> {
        kinds()
    }

    fn sample(&self, rng: &mut Xoshiro256) -> (usize, TxnRequest) {
        sample(&self.workload, rng)
    }

    fn execute(&self, req: &TxnRequest, _attempt: u32) -> Outcome {
        classify_remote(self.bank.execute(req))
    }
}

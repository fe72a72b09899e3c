//! Disconnect/truncate sweep over every protocol phase.
//!
//! One `DepositChecking` is attempted over the simulated network while a
//! single injected fault kills the connection at each frame of the
//! exchange in turn — both directions, both fault kinds (clean
//! disconnect at a frame boundary, torn write inside a frame). The
//! outcome classification must be *acked-consistent-or-indeterminate*:
//!
//! * an acknowledged commit must be visible in the recovered balance;
//! * a reported abort / network failure before the commit was in flight
//!   must NOT be visible;
//! * only faults at or after the commit submission may classify as
//!   indeterminate — and then the recovered balance must be explained
//!   either way by the [`BalanceAudit`] subset oracle.
//!
//! After every fault the client reconnects (the pool discards the broken
//! connection) and a follow-up deposit must commit: indeterminate, but
//! recoverable.

use sicost_common::sync::{sim_spawn, SimJoinHandle};
use sicost_common::Money;
use sicost_engine::{CcMode, Database, EngineConfig};
use sicost_server::{
    serve_connection, Client, ClientPool, Direction, FaultKind, FaultSpec, RemoteBank, RemoteError,
    SimNet, SimNetConfig, SimTransport,
};
use sicost_sim::{BalanceAudit, Sim};
use sicost_smallbank::schema::{build_database, customer_name, total_balance, Tables};
use sicost_smallbank::workload::TxnRequest;
use sicost_smallbank::SmallBankConfig;
use std::sync::{Arc, Mutex as StdMutex};

/// Frames of one `DepositChecking` on a fresh connection, per direction.
/// Client→server: Hello, Begin, Read(Account), Read(Checking),
/// Update(pipelined), Commit. Server→client: HelloOk, Began, RowResult,
/// RowResult, Ok, Committed.
const FRAMES_PER_EXCHANGE: u64 = 6;
/// The c2s frame index carrying `Commit` (and the s2c index of its reply).
const COMMIT_FRAME: u64 = 5;
/// The s2c frame index of the pipelined update's `Ok`, after which a
/// commit already submitted alongside it may have applied.
const PIPELINED_OK_FRAME: u64 = 4;

type ServeHandles = Arc<StdMutex<Vec<SimJoinHandle<()>>>>;

fn sim_pool(db: &Arc<Database>, net: &Arc<SimNet>) -> (ClientPool<SimTransport>, ServeHandles) {
    let handles: ServeHandles = Arc::default();
    let pool = {
        let db = Arc::clone(db);
        let net = Arc::clone(net);
        let handles = Arc::clone(&handles);
        ClientPool::new(4, move || {
            let (client_end, mut server_end) = net.connect();
            let db = Arc::clone(&db);
            let h = sim_spawn("server-conn", move || {
                let _ = serve_connection(&db, &mut server_end);
            });
            handles.lock().expect("handles lock").push(h);
            Client::connect(client_end)
        })
    };
    (pool, handles)
}

fn join_all(handles: &ServeHandles) {
    let handles = std::mem::take(&mut *handles.lock().expect("handles lock"));
    for h in handles {
        h.join().expect("server task");
    }
}

/// What one fault scenario produced.
#[derive(Debug)]
struct ScenarioResult {
    first_attempt: Option<Result<(), RemoteError>>,
    retried_ok: bool,
    recovered_cents: i64,
    initial_cents: i64,
}

/// Runs one deposit + one reconnect-retry deposit under a single
/// injected fault on connection 0 at (`dir`, `frame`).
fn run_scenario(dir: Direction, frame: u64, kind: FaultKind, seed: u64) -> ScenarioResult {
    let amount = Money::dollars(7);
    let retry_amount = Money::dollars(3);
    let customer = customer_name(5);
    let (result, _report) = Sim::new(seed).run(move || {
        let (db, tables) = build_database(
            &SmallBankConfig::small(20),
            EngineConfig::functional().with_cc(CcMode::SiFirstUpdaterWins),
            None,
        );
        let db = Arc::new(db);
        let tables: Tables = tables;
        let initial_cents = total_balance(&db, &tables).as_cents();

        let cfg = SimNetConfig::clean(seed).with_fault(FaultSpec {
            conn: 0,
            dir,
            frame,
            kind,
        });
        let net = SimNet::new(cfg);
        let (pool, handles) = sim_pool(&db, &net);

        let mut audit = BalanceAudit::new(initial_cents);
        let mut first_attempt = None;
        let mut retried_ok = false;
        match RemoteBank::new(pool) {
            Err(_) => {
                // The fault hit the handshake: no transaction was ever
                // submitted; the books must be untouched.
            }
            Ok(remote) => {
                let r = remote.execute(&TxnRequest::DepositChecking {
                    name: customer.clone(),
                    v: amount,
                });
                match &r {
                    Ok(()) => audit.ack(amount.as_cents()),
                    Err(RemoteError::Indeterminate(_)) => audit.undecided(amount.as_cents()),
                    Err(_) => {} // definitely rolled back
                }
                first_attempt = Some(r);
                // Reconnect-and-retry: the pool discards the broken
                // connection and dials a fresh one, which must work.
                let retry = remote.execute(&TxnRequest::DepositChecking {
                    name: customer.clone(),
                    v: retry_amount,
                });
                retried_ok = retry.is_ok();
                if retried_ok {
                    audit.ack(retry_amount.as_cents());
                }
                drop(remote);
            }
        }
        join_all(&handles);
        let recovered_cents = total_balance(&db, &tables).as_cents();
        audit.assert_explained(
            recovered_cents,
            &format!("fault {kind:?} {dir:?} frame {frame}"),
        );
        ScenarioResult {
            first_attempt,
            retried_ok,
            recovered_cents,
            initial_cents,
        }
    });
    result
}

#[test]
fn every_fault_point_is_acked_consistent_or_indeterminate_but_recoverable() {
    let mut saw_indeterminate = false;
    let mut saw_applied_despite_fault = false;
    for kind in [FaultKind::Disconnect, FaultKind::Truncate] {
        for dir in [Direction::ClientToServer, Direction::ServerToClient] {
            for frame in 0..FRAMES_PER_EXCHANGE {
                let ctx = format!("{kind:?} {dir:?} frame {frame}");
                let r = run_scenario(dir, frame, kind, 0xFA17 + frame);
                match &r.first_attempt {
                    None => {
                        // Handshake fault: nothing was submitted.
                        assert!(frame == 0, "{ctx}: only a handshake fault may abort setup");
                        assert_eq!(
                            r.recovered_cents, r.initial_cents,
                            "{ctx}: no transaction ran, no money may move"
                        );
                    }
                    Some(Ok(())) => {
                        // Acked: the deposit (and the retry) must be in
                        // the books — assert_explained already checked;
                        // re-assert the stronger acked-only identity.
                        assert!(r.retried_ok, "{ctx}: reconnect must work");
                        assert_eq!(
                            r.recovered_cents,
                            r.initial_cents + 700 + 300,
                            "{ctx}: acked deposits must both be visible"
                        );
                    }
                    Some(Err(RemoteError::Indeterminate(_))) => {
                        saw_indeterminate = true;
                        assert!(
                            (dir == Direction::ClientToServer && frame >= COMMIT_FRAME)
                                || (dir == Direction::ServerToClient
                                    && frame >= PIPELINED_OK_FRAME),
                            "{ctx}: indeterminate before the commit was in flight"
                        );
                        assert!(r.retried_ok, "{ctx}: reconnect must work");
                        if r.recovered_cents == r.initial_cents + 700 + 300 {
                            saw_applied_despite_fault = true;
                        } else {
                            assert_eq!(
                                r.recovered_cents,
                                r.initial_cents + 300,
                                "{ctx}: an unapplied indeterminate leaves only the retry"
                            );
                        }
                    }
                    Some(Err(_)) => {
                        // Definitely rolled back: only the retry lands.
                        assert!(r.retried_ok, "{ctx}: reconnect must work");
                        assert_eq!(
                            r.recovered_cents,
                            r.initial_cents + 300,
                            "{ctx}: a definite failure must not move the deposit"
                        );
                    }
                }
            }
        }
    }
    assert!(
        saw_indeterminate,
        "the sweep must cover at least one indeterminate outcome"
    );
    assert!(
        saw_applied_despite_fault,
        "at least one fault point must lose only the ack, not the commit \
         (reply dropped after the server committed)"
    );
}

/// Regression for the commit-fate hardening: across the full fault
/// sweep, every indeterminate first attempt must classify as
/// [`Outcome::Indeterminate`], which the retry policy refuses to retry —
/// and the sweep itself shows why. At the reply-dropped fault points the
/// commit **did** apply (`saw_applied_despite_fault` above), so a blind
/// re-execution of the same deposit would move the money twice and break
/// the audit oracle. Definite network failures before the commit was in
/// flight stay retryable transient faults.
#[test]
fn indeterminate_commit_fates_are_classified_non_retryable() {
    use sicost_driver::{Outcome, RetryPolicy};
    use sicost_server::classify_remote;

    let mut indeterminates = 0;
    let mut retryable_faults = 0;
    for kind in [FaultKind::Disconnect, FaultKind::Truncate] {
        for dir in [Direction::ClientToServer, Direction::ServerToClient] {
            for frame in 0..FRAMES_PER_EXCHANGE {
                let ctx = format!("{kind:?} {dir:?} frame {frame}");
                let r = run_scenario(dir, frame, kind, 0xFA17 + frame);
                let Some(first) = r.first_attempt else {
                    continue; // handshake fault: nothing to classify
                };
                let was_indeterminate = matches!(first, Err(RemoteError::Indeterminate(_)));
                let outcome = classify_remote(first);
                match outcome {
                    Outcome::Indeterminate => {
                        indeterminates += 1;
                        assert!(was_indeterminate, "{ctx}: only lost acks map here");
                        assert!(
                            !RetryPolicy::retryable(outcome),
                            "{ctx}: an in-flight commit must never be retried \
                             (it may already have applied — retrying double-applies)"
                        );
                        // The double-apply it prevents is concrete: at
                        // the reply-dropped fault points the books
                        // already hold the full deposit (r.recovered ==
                        // initial + 700 + 300); one more blind execute of
                        // the same request would land a second 700 the
                        // audit oracle could not explain.
                    }
                    Outcome::TransientFault => {
                        retryable_faults += 1;
                        assert!(
                            !was_indeterminate,
                            "{ctx}: an indeterminate fate may not be laundered \
                             into a retryable transient fault"
                        );
                    }
                    Outcome::Committed | Outcome::ApplicationRollback => {}
                    other => panic!("{ctx}: unexpected classification {other:?}"),
                }
            }
        }
    }
    assert!(
        indeterminates > 0,
        "the sweep must exercise indeterminate commit fates"
    );
    assert!(
        retryable_faults > 0,
        "pre-commit network failures must stay retryable"
    );
}

#[test]
fn fault_sweep_is_deterministic_per_seed() {
    // The same scenario replayed at the same seed lands the same books.
    let a = run_scenario(
        Direction::ServerToClient,
        COMMIT_FRAME,
        FaultKind::Disconnect,
        7,
    );
    let b = run_scenario(
        Direction::ServerToClient,
        COMMIT_FRAME,
        FaultKind::Disconnect,
        7,
    );
    assert_eq!(a.recovered_cents, b.recovered_cents);
    assert_eq!(a.retried_ok, b.retried_ok);
    assert_eq!(
        matches!(a.first_attempt, Some(Err(RemoteError::Indeterminate(_)))),
        matches!(b.first_attempt, Some(Err(RemoteError::Indeterminate(_)))),
    );
}

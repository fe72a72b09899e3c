//! The mechanism behind Figure 6, pinned deterministically: promotion on
//! the BW edge turns the read-only Balance into a Checking writer, which
//! makes it conflict with DepositChecking and Amalgamate; the WT-side
//! fixes leave Balance untouched.

use sicost_common::Money;
use sicost_engine::{EngineConfig, Transaction};
use sicost_smallbank::procs::{balance, deposit_checking};
use sicost_smallbank::{schema::customer_name, SbError, SmallBank, SmallBankConfig, Strategy};

/// Balance and DepositChecking on one customer, made to overlap: both
/// take their snapshots, then one runs to commit and the other runs
/// after it, once in each order. Returns (Balance serialization
/// failures, DepositChecking serialization failures).
fn duel(strategy: Strategy) -> (u64, u64) {
    let bank = SmallBank::new(
        &SmallBankConfig::small(4),
        EngineConfig::functional(),
        strategy,
    );
    let (t, m) = (bank.tables(), strategy.mods());
    let name = customer_name(0);
    let failed = |mut tx: Transaction<'_>,
                  program: &dyn Fn(&mut Transaction<'_>) -> Result<(), SbError>| {
        let result = program(&mut tx).and_then(|()| Ok(tx.commit()?));
        u64::from(result.is_err_and(|e| e.is_serialization_failure()))
    };
    let bal = |tx: &mut Transaction<'_>| balance(tx, t, &m, &name).map(|_| ());
    let dc = |tx: &mut Transaction<'_>| deposit_checking(tx, t, &m, &name, Money::dollars(1));
    let (mut bal_aborts, mut dc_aborts) = (0, 0);
    for balance_first in [true, false] {
        let bal_tx = bank.db().begin();
        let dc_tx = bank.db().begin();
        if balance_first {
            bal_aborts += failed(bal_tx, &bal);
            dc_aborts += failed(dc_tx, &dc);
        } else {
            dc_aborts += failed(dc_tx, &dc);
            bal_aborts += failed(bal_tx, &bal);
        }
    }
    (bal_aborts, dc_aborts)
}

#[test]
fn promote_bw_makes_balance_contend_with_deposits() {
    // Figure 6's striking bars: under PromoteBW-upd, Balance and
    // DepositChecking both update Checking and serialization failures
    // appear on that pair.
    let (bal, dc) = duel(Strategy::PromoteBWUpd);
    assert!(
        bal + dc > 0,
        "promoted Balance must conflict with DepositChecking (bal={bal}, dc={dc})"
    );
}

#[test]
fn wt_side_fixes_leave_balance_conflict_free() {
    for strategy in [
        Strategy::BaseSI,
        Strategy::MaterializeWT,
        Strategy::PromoteWTUpd,
    ] {
        let (bal, dc) = duel(strategy);
        assert_eq!(
            (bal, dc),
            (0, 0),
            "{strategy}: Balance is read-only and DC only conflicts with itself"
        );
    }
}

#[test]
fn materialize_bw_contends_only_via_the_conflict_table() {
    // MaterializeBW puts Conflict updates in Bal and WC, so Bal–DC stays
    // clean (DC does not touch Conflict in this option)…
    let (bal, dc) = duel(Strategy::MaterializeBW);
    assert_eq!(
        (bal, dc),
        (0, 0),
        "Bal–DC must not conflict under MaterializeBW"
    );
    // …which is exactly why its Figure 6 abort profile is mild compared
    // to PromoteBW-upd even though both fix the same edge.
}

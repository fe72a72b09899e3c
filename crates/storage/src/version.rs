//! Version chains: the heart of the multi-version store.

use crate::row::Row;
use sicost_common::{Ts, TxnId};

/// Payload of one committed version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VersionKind {
    /// A live row image. Identity writes ("promotion", §II-C of the paper)
    /// install a `Data` version whose image equals its predecessor — the
    /// version stamp is what matters for concurrency control.
    Data(Row),
    /// A deletion tombstone.
    Tombstone,
}

/// One committed version of a record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Version {
    /// Commit timestamp: visible to snapshots with `snap >= ts`.
    pub ts: Ts,
    /// The transaction that created this version (provenance for the MVSG
    /// serializability certifier).
    pub writer: TxnId,
    /// Row image or tombstone.
    pub kind: VersionKind,
}

impl Version {
    /// Convenience constructor for a data version.
    pub fn data(ts: Ts, writer: TxnId, row: Row) -> Self {
        Self {
            ts,
            writer,
            kind: VersionKind::Data(row),
        }
    }

    /// Convenience constructor for a tombstone.
    pub fn tombstone(ts: Ts, writer: TxnId) -> Self {
        Self {
            ts,
            writer,
            kind: VersionKind::Tombstone,
        }
    }

    /// The row image, if this version is live data.
    pub fn row(&self) -> Option<&Row> {
        match &self.kind {
            VersionKind::Data(r) => Some(r),
            VersionKind::Tombstone => None,
        }
    }
}

/// The committed versions of one record, ordered by ascending commit
/// timestamp. Uncommitted data never appears here: transactions buffer
/// writes privately and the engine installs them at commit, so every entry
/// is immediately visible to (only) the snapshots it should be.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct VersionChain {
    versions: Vec<Version>,
}

impl VersionChain {
    /// Empty chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Newest version visible at snapshot `snap` (newest `ts <= snap`).
    /// Scans from the tail because readers overwhelmingly want recent
    /// versions.
    pub fn visible(&self, snap: Ts) -> Option<&Version> {
        self.versions.iter().rev().find(|v| v.ts <= snap)
    }

    /// The newest committed version regardless of snapshot.
    pub fn latest(&self) -> Option<&Version> {
        self.versions.last()
    }

    /// Commit timestamp of the newest version.
    pub fn latest_ts(&self) -> Option<Ts> {
        self.versions.last().map(|v| v.ts)
    }

    /// Appends a committed version.
    ///
    /// # Panics
    /// Panics if `v.ts` does not exceed the current latest timestamp —
    /// installation order must follow commit order (the engine's commit
    /// critical section guarantees this).
    pub fn install(&mut self, v: Version) {
        if let Some(last) = self.versions.last() {
            assert!(
                v.ts > last.ts,
                "version install out of commit order: {} after {}",
                v.ts,
                last.ts
            );
        }
        self.versions.push(v);
    }

    /// Garbage-collects versions that no snapshot at or after `horizon`
    /// can ever read: drops every version strictly older than the newest
    /// version with `ts <= horizon` (that one is retained as the anchor).
    ///
    /// Returns the number of versions reclaimed.
    pub fn prune(&mut self, horizon: Ts) -> usize {
        let n = self.prunable(horizon);
        self.versions.drain(..n);
        n
    }

    /// How many versions [`VersionChain::prune`] would reclaim at
    /// `horizon`, without touching the chain: the index of the newest
    /// version with `ts <= horizon`.
    pub fn prunable(&self, horizon: Ts) -> usize {
        self.versions
            .iter()
            .rposition(|v| v.ts <= horizon)
            .unwrap_or(0)
    }

    /// True when the chain holds only a tombstone that predates `horizon` —
    /// the whole record can be dropped from the table.
    pub fn is_dead(&self, horizon: Ts) -> bool {
        match self.versions.as_slice() {
            [only] => only.ts <= horizon && only.row().is_none(),
            _ => false,
        }
    }

    /// Number of stored versions.
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// True when no version has ever been installed.
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// Iterates versions oldest-first (used by the MVSG builder and tests).
    pub fn iter(&self) -> impl Iterator<Item = &Version> {
        self.versions.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn row(v: i64) -> Row {
        Row::new(vec![Value::int(v)])
    }

    fn chain_123() -> VersionChain {
        let mut c = VersionChain::new();
        c.install(Version::data(Ts(1), TxnId(1), row(10)));
        c.install(Version::data(Ts(5), TxnId(2), row(50)));
        c.install(Version::data(Ts(9), TxnId(3), row(90)));
        c
    }

    #[test]
    fn visibility_picks_newest_at_or_before_snapshot() {
        let c = chain_123();
        assert!(c.visible(Ts(0)).is_none());
        assert_eq!(c.visible(Ts(1)).unwrap().row().unwrap().int(0), 10);
        assert_eq!(c.visible(Ts(4)).unwrap().row().unwrap().int(0), 10);
        assert_eq!(c.visible(Ts(5)).unwrap().row().unwrap().int(0), 50);
        assert_eq!(c.visible(Ts(100)).unwrap().row().unwrap().int(0), 90);
    }

    #[test]
    fn tombstone_is_visible_absence() {
        let mut c = chain_123();
        c.install(Version::tombstone(Ts(12), TxnId(4)));
        let v = c.visible(Ts(20)).unwrap();
        assert!(v.row().is_none(), "tombstone visible as absence");
        // Older snapshots still see the data.
        assert_eq!(c.visible(Ts(9)).unwrap().row().unwrap().int(0), 90);
    }

    #[test]
    #[should_panic(expected = "out of commit order")]
    fn install_enforces_commit_order() {
        let mut c = chain_123();
        c.install(Version::data(Ts(5), TxnId(9), row(0)));
    }

    #[test]
    fn prune_keeps_anchor_version() {
        let mut c = chain_123();
        let reclaimed = c.prune(Ts(6));
        // Versions ts1 dropped; ts5 is the anchor for horizon 6; ts9 newer.
        assert_eq!(reclaimed, 1);
        assert_eq!(c.len(), 2);
        assert_eq!(c.visible(Ts(6)).unwrap().row().unwrap().int(0), 50);
        assert_eq!(c.visible(Ts(9)).unwrap().row().unwrap().int(0), 90);
    }

    #[test]
    fn prune_noop_when_horizon_precedes_all() {
        let mut c = chain_123();
        assert_eq!(c.prune(Ts(0)), 0);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn prune_to_latest_leaves_one() {
        let mut c = chain_123();
        assert_eq!(c.prune(Ts(100)), 2);
        assert_eq!(c.len(), 1);
        assert_eq!(c.latest_ts(), Some(Ts(9)));
    }

    #[test]
    fn prunable_counts_what_prune_reclaims() {
        for horizon in [0, 1, 4, 5, 6, 9, 100] {
            let c = chain_123();
            let mut pruned = c.clone();
            let n = pruned.prune(Ts(horizon));
            assert_eq!(c.prunable(Ts(horizon)), n, "horizon {horizon}");
            assert_eq!(c.len(), 3, "prunable leaves the chain as it is");
        }
        assert_eq!(VersionChain::new().prunable(Ts(9)), 0);
    }

    #[test]
    fn dead_chain_detection() {
        let mut c = VersionChain::new();
        c.install(Version::data(Ts(1), TxnId(1), row(1)));
        c.install(Version::tombstone(Ts(2), TxnId(2)));
        assert!(!c.is_dead(Ts(10)), "still holds the data version");
        c.prune(Ts(10));
        assert!(c.is_dead(Ts(10)));
        assert!(!c.is_dead(Ts(1)), "horizon before the tombstone");
    }

    #[test]
    fn latest_accessors() {
        let c = chain_123();
        assert_eq!(c.latest_ts(), Some(Ts(9)));
        assert_eq!(c.latest().unwrap().writer, TxnId(3));
        assert!(VersionChain::new().latest_ts().is_none());
    }
}

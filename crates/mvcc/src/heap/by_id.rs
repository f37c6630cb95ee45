//! The by-id adapter: transactions named by [`TxnId`], their sessions
//! kept in one map. It has no logic of its own — each call takes the
//! session out of the map, runs the session call, and puts it back — so
//! the map's lock is a leaf taken under nothing, no heap latch or chaos
//! yield runs under it, and one transaction must not be driven from two
//! threads at once (the second call would find it unknown). It serves
//! callers that cannot hold a session, such as the benchmark's bare-heap
//! probe; everything else holds an [`MvccTxn`].

use super::{CommitError, MvccHeap, MvccTxn, MvccWriteError, WriteOutcome};
use crate::Ts;
use finecc_model::{FieldId, Oid, TxnId, Value};
use finecc_store::StoreError;

impl MvccHeap {
    /// [`MvccHeap::session`], kept in the adapter's map under `txn`.
    /// Returns the snapshot timestamp.
    pub fn begin(&self, txn: TxnId) -> Ts {
        let session = self.session(txn);
        let ts = session.ts();
        let prev = self.by_id.lock().insert(txn, session);
        debug_assert!(prev.is_none(), "transaction {txn} already registered");
        ts
    }

    /// Runs `op` on `txn`'s session, out of the map for the duration.
    fn with_session<R>(&self, txn: TxnId, op: impl FnOnce(&mut MvccTxn) -> R) -> Option<R> {
        let mut session = self.by_id.lock().remove(&txn)?;
        let out = op(&mut session);
        self.by_id.lock().insert(txn, session);
        Some(out)
    }

    /// [`MvccHeap::read_as`] by id; a `txn` the adapter does not hold is
    /// refused with [`MvccReadError::UnknownTxn`].
    pub fn read(&self, txn: TxnId, oid: Oid, field: FieldId) -> Result<Value, MvccReadError> {
        self.with_session(txn, |s| self.read_as(s, oid, field))
            .ok_or(MvccReadError::UnknownTxn(txn))?
            .map_err(MvccReadError::Store)
    }

    /// [`MvccHeap::write_at`] by id; a `txn` the adapter does not hold
    /// is refused with [`MvccWriteError::UnknownTxn`]. A refused write
    /// leaves its transaction known.
    pub fn write(
        &self,
        txn: TxnId,
        oid: Oid,
        field: FieldId,
        value: Value,
    ) -> Result<WriteOutcome, MvccWriteError> {
        self.with_session(txn, |s| self.write_at(s, oid, field, value))
            .ok_or(MvccWriteError::UnknownTxn(txn))?
    }

    /// [`MvccHeap::commit_session`] by id; a `txn` the adapter does not
    /// hold is refused with [`CommitError::UnknownTxn`] and touches
    /// nothing.
    pub fn commit(&self, txn: TxnId) -> Result<Ts, CommitError> {
        let session = self.by_id.lock().remove(&txn);
        self.commit_session(session.ok_or(CommitError::UnknownTxn(txn))?)
    }

    /// [`MvccHeap::abort_session`] by id. Aborting a `txn` the adapter
    /// does not hold (never begun, or already ended) rolls nothing back
    /// and returns 0; the call is still counted in `aborts`.
    pub fn abort(&self, txn: TxnId) -> usize {
        let session = self.by_id.lock().remove(&txn);
        match session {
            Some(session) => self.abort_session(session),
            None => {
                self.stats.aborts.bump();
                0
            }
        }
    }
}

/// Why [`MvccHeap::read`] failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MvccReadError {
    /// The base store refused the read (unknown OID, field not visible).
    Store(StoreError),
    /// The by-id adapter holds no session under this id — never begun,
    /// or already committed or aborted. Retrying cannot help.
    UnknownTxn(TxnId),
}

impl std::fmt::Display for MvccReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MvccReadError::Store(e) => e.fmt(f),
            MvccReadError::UnknownTxn(t) => {
                write!(f, "transaction {t} is not registered with the mvcc heap")
            }
        }
    }
}

impl std::error::Error for MvccReadError {}

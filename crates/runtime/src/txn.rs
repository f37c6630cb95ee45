//! Transactions and the abort/retry loop.

use crate::scheme::CcScheme;
use finecc_lang::ExecError;
use finecc_lock::{LockMode, ResourceId};
use finecc_model::TxnId;
use finecc_mvcc::MvccTxn;
use finecc_obs::Phase;
use finecc_store::UndoLog;

/// One transaction: identifier plus its undo log. Created by
/// [`CcScheme::begin`], consumed by [`CcScheme::commit`]/[`CcScheme::abort`].
pub struct Txn {
    /// The transaction id.
    pub id: TxnId,
    /// Before-images recorded during execution.
    pub undo: UndoLog,
    /// The mvcc schemes' session: the transaction's whole heap state —
    /// snapshot epoch, write and read sets, status cell (`None` for the
    /// lock schemes). The heap keeps no table of transactions; the
    /// scheme hands it this session on every read and write, and its
    /// commit or abort consumes it.
    pub mvcc: Option<MvccTxn>,
    /// The first [`Txn::HELD_LOCKS`] locks the lock schemes were
    /// granted (empty for the mvcc schemes). Strict 2PL holds a granted
    /// lock to commit, so a repeated request found here needs no trip
    /// to the shared lock table.
    pub held: Vec<(ResourceId, LockMode)>,
}

impl Txn {
    /// How many granted locks [`Txn::held`] remembers: the lookup stays
    /// a short scan however many locks a bulk transaction takes.
    pub const HELD_LOCKS: usize = 16;

    /// Creates a transaction with an empty undo log.
    pub fn new(id: TxnId) -> Txn {
        Txn {
            id,
            undo: UndoLog::new(),
            mvcc: None,
            held: Vec::new(),
        }
    }

    /// Creates a transaction carrying its MVCC session.
    pub fn with_mvcc(mvcc: MvccTxn) -> Txn {
        Txn {
            id: mvcc.id(),
            undo: UndoLog::new(),
            mvcc: Some(mvcc),
            held: Vec::new(),
        }
    }
}

/// How a [`run_txn`] attempt ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxnOutcome<T> {
    /// Committed after `retries` retryable aborts.
    Committed {
        /// The closure's result.
        value: T,
        /// Number of retryable aborts (deadlock victims, transient log
        /// failures) before success.
        retries: u32,
    },
    /// Gave up after exhausting the retry budget.
    Exhausted {
        /// Retryable aborts performed.
        retries: u32,
    },
    /// Failed with a non-retryable error (aborted, rolled back).
    Failed(ExecError),
}

impl<T> TxnOutcome<T> {
    /// `true` if the transaction committed.
    pub fn is_committed(&self) -> bool {
        matches!(self, TxnOutcome::Committed { .. })
    }

    /// The committed value, if any.
    pub fn value(self) -> Option<T> {
        match self {
            TxnOutcome::Committed { value, .. } => Some(value),
            _ => None,
        }
    }
}

/// Runs `body` as a transaction against `scheme`, committing on
/// success, aborting (undo + release) on error, and retrying
/// *retryable* failures — deadlock victims and transient write-ahead
/// log refusals ([`ExecError::is_retryable`]) — up to `max_retries`
/// times ([`TxnOutcome::Exhausted`] after that). A *commit-time*
/// refusal (mvcc-ssi dangerous structures, a failed redo append) counts
/// as a retry too: the scheme has already rolled the transaction back,
/// so the loop simply re-runs the body on a fresh snapshot. Retry `n`
/// backs off `min(n, 8)` cooperative yields (under a chaos scheduled
/// session, as many virtual-time scheduling decisions, so the backoff
/// is deterministic there). The standard driver of `finecc-sim`'s
/// executor, the examples, the stress tests and the benchmark.
pub fn run_txn<T>(
    scheme: &dyn CcScheme,
    max_retries: u32,
    mut body: impl FnMut(&mut Txn) -> Result<T, ExecError>,
) -> TxnOutcome<T> {
    let obs = &scheme.env().obs;
    // End-to-end latency spans the whole loop: first begin to final
    // outcome, retries included — the user-visible latency, not the
    // per-attempt one.
    let txn_start = obs.clock();
    let mut retries = 0;
    let outcome = loop {
        finecc_chaos::yield_point(finecc_chaos::Site::TxnStart);
        let mut txn = scheme.begin();
        let retryable = match body(&mut txn) {
            Ok(value) => match scheme.commit(txn) {
                Ok(_) => break TxnOutcome::Committed { value, retries },
                // Failed commit == the scheme aborted the transaction
                // itself; no abort() call — the Txn is consumed.
                Err(e) if e.is_retryable() => true,
                Err(e) => break TxnOutcome::Failed(e),
            },
            Err(e) if e.is_retryable() => {
                scheme.abort(txn);
                true
            }
            Err(e) => {
                scheme.abort(txn);
                break TxnOutcome::Failed(e);
            }
        };
        debug_assert!(retryable);
        retries += 1;
        if retries > max_retries {
            break TxnOutcome::Exhausted { retries };
        }
        // Bounded backoff proportional to the retry count keeps rival
        // victims from re-colliding in lockstep.
        for _ in 0..retries.min(8) {
            finecc_chaos::yield_point(finecc_chaos::Site::TxnBackoff);
            std::thread::yield_now();
        }
    };
    obs.record_since(Phase::TxnLatency, txn_start);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_helpers() {
        let c: TxnOutcome<i32> = TxnOutcome::Committed {
            value: 7,
            retries: 1,
        };
        assert!(c.is_committed());
        assert_eq!(c.value(), Some(7));
        let f: TxnOutcome<i32> = TxnOutcome::Failed(ExecError::FuelExhausted);
        assert!(!f.is_committed());
        assert_eq!(f.value(), None);
        let e: TxnOutcome<i32> = TxnOutcome::Exhausted { retries: 3 };
        assert_eq!(e.value(), None);
    }
}

//! Per-resource lock state: granted set and FIFO wait queue.

use crate::modes::{LockMode, ModeSource};
use crate::resource::ResourceId;
use finecc_model::TxnId;
use std::collections::VecDeque;

/// The lock state of one resource.
#[derive(Clone, Debug, Default)]
pub struct LockEntry {
    /// Granted locks: a transaction may hold several modes (conversions).
    pub granted: Vec<(TxnId, LockMode)>,
    /// FIFO wait queue; conversions are pushed to the *front*.
    pub queue: VecDeque<(TxnId, LockMode)>,
}

impl LockEntry {
    /// `true` when nothing is granted and nobody waits.
    pub fn is_idle(&self) -> bool {
        self.granted.is_empty() && self.queue.is_empty()
    }

    /// `true` if `txn` holds any mode on this resource.
    pub fn holds_any(&self, txn: TxnId) -> bool {
        self.granted.iter().any(|&(t, _)| t == txn)
    }

    /// `true` if `txn` holds specifically `mode`.
    pub fn holds(&self, txn: TxnId, mode: LockMode) -> bool {
        self.granted.iter().any(|&(t, m)| t == txn && m == mode)
    }

    /// Whether `(txn, mode)` can be granted now:
    ///
    /// * it must be compatible with every mode granted to *other*
    ///   transactions (own locks never conflict with themselves);
    /// * a brand-new request (txn holds nothing here) must additionally
    ///   not overtake waiting strangers — strict FIFO fairness. A
    ///   *conversion* (txn already holds a mode) bypasses the queue, the
    ///   standard upgrade rule.
    pub fn can_grant(
        &self,
        src: &dyn ModeSource,
        res: &ResourceId,
        txn: TxnId,
        mode: LockMode,
    ) -> bool {
        let compatible_with_granted = self
            .granted
            .iter()
            .all(|&(t, m)| t == txn || src.compatible(res, mode, m));
        if !compatible_with_granted {
            return false;
        }
        if self.holds_any(txn) {
            return true; // conversion
        }
        // New request: don't jump over other waiting transactions.
        self.queue.iter().all(|&(t, _)| t == txn)
    }

    /// Whether a *queued* `(txn, mode)` request can be granted now: it
    /// must be compatible with every mode granted to other transactions,
    /// and every entry **ahead** of it in the queue must belong to the
    /// same transaction or be compatible with it (FIFO with concurrent
    /// grants of mutually compatible waiters).
    pub fn can_grant_queued(
        &self,
        src: &dyn ModeSource,
        res: &ResourceId,
        txn: TxnId,
        mode: LockMode,
    ) -> bool {
        let compatible_with_granted = self
            .granted
            .iter()
            .all(|&(t, m)| t == txn || src.compatible(res, mode, m));
        if !compatible_with_granted {
            return false;
        }
        for &(t, m) in &self.queue {
            if t == txn && m == mode {
                return true;
            }
            if t != txn && !src.compatible(res, mode, m) {
                return false;
            }
        }
        // Not queued at all: treat as a fresh request.
        self.can_grant(src, res, txn, mode)
    }

    /// Records a grant (idempotent per `(txn, mode)`).
    pub fn grant(&mut self, txn: TxnId, mode: LockMode) {
        if !self.holds(txn, mode) {
            self.granted.push((txn, mode));
        }
    }

    /// Enqueues a waiter (conversions at the front, new requests at the
    /// back). Idempotent per `(txn, mode)`.
    pub fn enqueue(&mut self, txn: TxnId, mode: LockMode) {
        if self.queue.iter().any(|&(t, m)| t == txn && m == mode) {
            return;
        }
        if self.holds_any(txn) {
            self.queue.push_front((txn, mode));
        } else {
            self.queue.push_back((txn, mode));
        }
    }

    /// Removes every trace of `txn` (grants and queued requests).
    /// Returns `true` if anything was removed.
    pub fn purge(&mut self, txn: TxnId) -> bool {
        let before = self.granted.len() + self.queue.len();
        self.granted.retain(|&(t, _)| t != txn);
        self.queue.retain(|&(t, _)| t != txn);
        before != self.granted.len() + self.queue.len()
    }

    /// Removes a specific queued request. Returns `true` if it was
    /// queued.
    pub fn dequeue(&mut self, txn: TxnId, mode: LockMode) -> bool {
        let before = self.queue.len();
        self.queue.retain(|&(t, m)| !(t == txn && m == mode));
        before != self.queue.len()
    }

    /// The transactions a queued `(txn, mode)` request is waiting on:
    /// holders of incompatible modes plus incompatible waiters *ahead* of
    /// it in the queue. This is the waits-for edge set used by deadlock
    /// detection.
    pub fn blockers(
        &self,
        src: &dyn ModeSource,
        res: &ResourceId,
        txn: TxnId,
        mode: LockMode,
    ) -> Vec<TxnId> {
        let mut out: Vec<TxnId> = self
            .granted
            .iter()
            .filter(|&&(t, m)| t != txn && !src.compatible(res, mode, m))
            .map(|&(t, _)| t)
            .collect();
        for &(t, m) in &self.queue {
            if t == txn && m == mode {
                break;
            }
            if t != txn && !src.compatible(res, mode, m) {
                out.push(t);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modes::{RwSource, READ, WRITE};
    use finecc_model::{ClassId, Oid};

    fn res() -> ResourceId {
        ResourceId::Instance(Oid(1), ClassId(0))
    }

    fn r(m: u16) -> LockMode {
        LockMode::plain(m)
    }

    #[test]
    fn shared_reads_grant() {
        let src = RwSource;
        let mut e = LockEntry::default();
        assert!(e.can_grant(&src, &res(), TxnId(1), r(READ)));
        e.grant(TxnId(1), r(READ));
        assert!(e.can_grant(&src, &res(), TxnId(2), r(READ)));
        e.grant(TxnId(2), r(READ));
        assert!(!e.can_grant(&src, &res(), TxnId(3), r(WRITE)));
    }

    #[test]
    fn own_locks_never_conflict() {
        let src = RwSource;
        let mut e = LockEntry::default();
        e.grant(TxnId(1), r(WRITE));
        assert!(e.can_grant(&src, &res(), TxnId(1), r(READ)));
        assert!(e.can_grant(&src, &res(), TxnId(1), r(WRITE)));
        assert!(!e.can_grant(&src, &res(), TxnId(2), r(READ)));
    }

    #[test]
    fn fifo_no_overtaking() {
        let src = RwSource;
        let mut e = LockEntry::default();
        e.grant(TxnId(1), r(WRITE));
        e.enqueue(TxnId(2), r(READ));
        // Txn 3's read is compatible with nothing granted? No — conflicts
        // with 1's write anyway. Release 1:
        e.purge(TxnId(1));
        // 3 must not overtake 2.
        assert!(!e.can_grant(&src, &res(), TxnId(3), r(READ)));
        assert!(e.can_grant(&src, &res(), TxnId(2), r(READ)));
    }

    #[test]
    fn conversion_bypasses_queue() {
        let src = RwSource;
        let mut e = LockEntry::default();
        e.grant(TxnId(1), r(READ));
        e.enqueue(TxnId(9), r(WRITE)); // stranger waits
                                       // Txn 1 upgrading read→write: queue does not block it, but 9's
                                       // *grant* does not exist yet, so only granted set matters — and
                                       // the only granted lock is its own. Conversion allowed.
        assert!(e.can_grant(&src, &res(), TxnId(1), r(WRITE)));
    }

    #[test]
    fn conversion_blocked_by_other_reader() {
        let src = RwSource;
        let mut e = LockEntry::default();
        e.grant(TxnId(1), r(READ));
        e.grant(TxnId(2), r(READ));
        assert!(!e.can_grant(&src, &res(), TxnId(1), r(WRITE)));
        e.enqueue(TxnId(1), r(WRITE));
        // The conversion goes to the queue front.
        assert_eq!(e.queue.front(), Some(&(TxnId(1), r(WRITE))));
        // Blockers of the conversion: the other reader only.
        assert_eq!(e.blockers(&src, &res(), TxnId(1), r(WRITE)), vec![TxnId(2)]);
    }

    #[test]
    fn blockers_include_waiters_ahead() {
        let src = RwSource;
        let mut e = LockEntry::default();
        e.grant(TxnId(1), r(WRITE));
        e.enqueue(TxnId(2), r(WRITE));
        e.enqueue(TxnId(3), r(READ));
        let b = e.blockers(&src, &res(), TxnId(3), r(READ));
        assert_eq!(b, vec![TxnId(1), TxnId(2)]);
        // Txn 2 only waits on the holder.
        assert_eq!(e.blockers(&src, &res(), TxnId(2), r(WRITE)), vec![TxnId(1)]);
    }

    #[test]
    fn purge_and_idle() {
        let mut e = LockEntry::default();
        e.grant(TxnId(1), r(READ));
        e.enqueue(TxnId(2), r(WRITE));
        assert!(!e.is_idle());
        assert!(e.purge(TxnId(1)));
        assert!(e.purge(TxnId(2)));
        assert!(!e.purge(TxnId(3)));
        assert!(e.is_idle());
    }

    #[test]
    fn grant_and_enqueue_idempotent() {
        let mut e = LockEntry::default();
        e.grant(TxnId(1), r(READ));
        e.grant(TxnId(1), r(READ));
        assert_eq!(e.granted.len(), 1);
        e.enqueue(TxnId(2), r(WRITE));
        e.enqueue(TxnId(2), r(WRITE));
        assert_eq!(e.queue.len(), 1);
        e.dequeue(TxnId(2), r(WRITE));
        assert!(e.queue.is_empty());
    }
}

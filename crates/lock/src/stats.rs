//! Lock-manager statistics, declared once (`finecc_obs::counters!`).
//!
//! Every counter is a relaxed atomic: the numbers feed experiment reports
//! (E4–E7), not control flow.

finecc_obs::counters! {
    /// Live counters of a [`crate::LockManager`].
    pub struct LockStats {}
    /// A point-in-time copy of [`LockStats`].
    pub struct StatsSnapshot;
    pub cells {
        /// Lock requests (acquire + try_acquire).
        requests: Counter "finecc.lock.requests",
        /// Requests granted without waiting.
        immediate: Counter "finecc.lock.immediate",
        /// Requests that blocked at least once.
        blocks: Counter "finecc.lock.blocks",
        /// Blocked requests that outlived the poll and slept on the shard's
        /// condvar; `blocks - parks` were granted (or refused) while polling.
        parks: Counter "finecc.lock.parks",
        /// Deadlocks detected (victims aborted).
        deadlocks: Counter "finecc.lock.deadlocks",
        /// Requests that timed out while waiting.
        timeouts: Counter "finecc.lock.timeouts",
        /// Lock conversions (a transaction adding a mode on a resource it
        /// already holds) — the escalations of problem P3.
        upgrades: Counter "finecc.lock.upgrades",
        /// `release_all` calls (transaction ends).
        releases: Counter "finecc.lock.releases",
        /// try_acquire calls that returned `WouldBlock`.
        would_blocks: Counter "finecc.lock.would_blocks",
    }
}

impl LockStats {
    /// Counts one request granted without waiting — what the table
    /// counts for such a grant, and what a scheme counts when it
    /// answers a repeat request from the transaction's own held list,
    /// so the two cannot be counted differently.
    pub fn count_immediate(&self) {
        self.requests.bump();
        self.immediate.bump();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_reset() {
        let s = LockStats::default();
        s.requests.bump();
        s.count_immediate();
        s.deadlocks.bump();
        let snap = s.snapshot();
        assert_eq!((snap.requests, snap.immediate, snap.deadlocks), (2, 1, 1));
        // There is no `reset`: a baseline snapshot and `since` play it.
        assert_eq!(s.snapshot().since(&snap), StatsSnapshot::default());
    }
}

//! Lock-manager statistics.
//!
//! Every counter is a relaxed atomic: the numbers feed experiment reports
//! (E4–E7), not control flow.

use std::sync::atomic::{AtomicU64, Ordering};

/// Live counters of a [`crate::LockManager`].
#[derive(Debug, Default)]
pub struct LockStats {
    /// Lock requests (acquire + try_acquire).
    pub requests: AtomicU64,
    /// Requests granted without waiting.
    pub immediate: AtomicU64,
    /// Requests that blocked at least once.
    pub blocks: AtomicU64,
    /// Blocked requests that outlived the poll and slept on the shard's
    /// condvar; `blocks - parks` were granted (or refused) while polling.
    pub parks: AtomicU64,
    /// Deadlocks detected (victims aborted).
    pub deadlocks: AtomicU64,
    /// Requests that timed out while waiting.
    pub timeouts: AtomicU64,
    /// Lock conversions (a transaction adding a mode on a resource it
    /// already holds) — the escalations of problem P3.
    pub upgrades: AtomicU64,
    /// `release_all` calls (transaction ends).
    pub releases: AtomicU64,
    /// try_acquire calls that returned `WouldBlock`.
    pub would_blocks: AtomicU64,
}

/// A point-in-time copy of [`LockStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub requests: u64,
    pub immediate: u64,
    pub blocks: u64,
    pub parks: u64,
    pub deadlocks: u64,
    pub timeouts: u64,
    pub upgrades: u64,
    pub releases: u64,
    pub would_blocks: u64,
}

impl LockStats {
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshots all counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            immediate: self.immediate.load(Ordering::Relaxed),
            blocks: self.blocks.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
            deadlocks: self.deadlocks.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            upgrades: self.upgrades.load(Ordering::Relaxed),
            releases: self.releases.load(Ordering::Relaxed),
            would_blocks: self.would_blocks.load(Ordering::Relaxed),
        }
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.requests.store(0, Ordering::Relaxed);
        self.immediate.store(0, Ordering::Relaxed);
        self.blocks.store(0, Ordering::Relaxed);
        self.parks.store(0, Ordering::Relaxed);
        self.deadlocks.store(0, Ordering::Relaxed);
        self.timeouts.store(0, Ordering::Relaxed);
        self.upgrades.store(0, Ordering::Relaxed);
        self.releases.store(0, Ordering::Relaxed);
        self.would_blocks.store(0, Ordering::Relaxed);
    }
}

impl StatsSnapshot {
    /// Emits every counter under stable `finecc.lock.*` names.
    pub fn collect_metrics(&self, c: &mut finecc_obs::Collector) {
        c.counter("finecc.lock.requests", self.requests);
        c.counter("finecc.lock.immediate", self.immediate);
        c.counter("finecc.lock.blocks", self.blocks);
        c.counter("finecc.lock.parks", self.parks);
        c.counter("finecc.lock.deadlocks", self.deadlocks);
        c.counter("finecc.lock.timeouts", self.timeouts);
        c.counter("finecc.lock.upgrades", self.upgrades);
        c.counter("finecc.lock.releases", self.releases);
        c.counter("finecc.lock.would_blocks", self.would_blocks);
    }

    /// The difference `self - earlier`, counter-wise (saturating).
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            requests: self.requests.saturating_sub(earlier.requests),
            immediate: self.immediate.saturating_sub(earlier.immediate),
            blocks: self.blocks.saturating_sub(earlier.blocks),
            parks: self.parks.saturating_sub(earlier.parks),
            deadlocks: self.deadlocks.saturating_sub(earlier.deadlocks),
            timeouts: self.timeouts.saturating_sub(earlier.timeouts),
            upgrades: self.upgrades.saturating_sub(earlier.upgrades),
            releases: self.releases.saturating_sub(earlier.releases),
            would_blocks: self.would_blocks.saturating_sub(earlier.would_blocks),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_reset() {
        let s = LockStats::default();
        LockStats::bump(&s.requests);
        LockStats::bump(&s.requests);
        LockStats::bump(&s.deadlocks);
        let snap = s.snapshot();
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.deadlocks, 1);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn since_diffs() {
        let a = StatsSnapshot {
            requests: 10,
            blocks: 3,
            ..Default::default()
        };
        let b = StatsSnapshot {
            requests: 15,
            blocks: 4,
            ..Default::default()
        };
        let d = b.since(&a);
        assert_eq!(d.requests, 5);
        assert_eq!(d.blocks, 1);
    }
}

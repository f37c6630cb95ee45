//! The lock table's storage: resources hash to one of [`SHARDS`]
//! independently latched tables, transactions to one of as many held
//! lists.
//!
//! The rule every caller in [`crate::manager`] follows is **one latch at
//! a time**: a thread never holds two shard latches, so no latch order
//! exists to get wrong. The single exception is the deadlock detector,
//! which takes every entry-shard latch in index order
//! ([`crate::LockManager`] runs it only when a request blocks while
//! another is already blocked).

use crate::entry::LockEntry;
use crate::resource::ResourceId;
use finecc_model::{BuildMulHasher, MulMap, TxnId};
use parking_lot::{Condvar, Mutex};
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, Ordering};

/// Shards per table. `tps.tav` on `short-readmostly` (2 clients, 2
/// cores, one 6 s run each) reads 822k with 1 shard, 1,298k with 16,
/// 1,322k with 64 and 1,348k with 256 — the last two within run-to-run
/// noise of each other. The deadlock sweep takes every latch, so more
/// than the clients can use is pure cost; 64 leaves room for the 16
/// threads CI storms with.
pub(crate) const SHARDS: usize = 64;

/// Idle [`LockEntry`]s a shard keeps for reuse, so that locking a
/// resource nobody holds allocates nothing in steady state.
const POOL_CAP: usize = 16;

/// The shard a key lives in: bits 32‥ of its hash, which the map's
/// bucket index (low bits) and control bytes (top bits) do not rely on
/// alone.
#[inline]
pub(crate) fn shard_of<K: std::hash::Hash>(key: &K) -> usize {
    let h = BuildMulHasher::default().hash_one(key);
    (h >> 32) as usize % SHARDS
}

/// The lock entries of one shard, under the shard's latch.
#[derive(Default)]
pub(crate) struct Table {
    pub(crate) entries: MulMap<ResourceId, LockEntry>,
    pool: Vec<LockEntry>,
    /// Threads asleep on the shard's condvar (a wake-up with nobody
    /// asleep skips the `futex_wake`).
    pub(crate) parked: u32,
}

impl Table {
    /// The entry of `res`, created (from the pool) if absent.
    pub(crate) fn entry(&mut self, res: ResourceId) -> &mut LockEntry {
        let Table { entries, pool, .. } = self;
        entries
            .entry(res)
            .or_insert_with(|| pool.pop().unwrap_or_default())
    }

    /// Drops `res`'s entry if nothing is granted and nobody waits.
    pub(crate) fn reap(&mut self, res: &ResourceId) {
        if self.entries.get(res).is_some_and(LockEntry::is_idle) {
            let entry = self.entries.remove(res).expect("just seen");
            if self.pool.len() < POOL_CAP {
                self.pool.push(entry);
            }
        }
    }
}

/// One shard of the entry table. Aligned to two cache lines (the
/// adjacent-line prefetcher pairs them) so neighbouring latches do not
/// share one.
#[derive(Default)]
#[repr(align(128))]
pub(crate) struct EntryShard {
    pub(crate) table: Mutex<Table>,
    pub(crate) cv: Condvar,
    /// Bumped, under the latch, by whoever may have made a queued
    /// request of this shard grantable. A blocked request remembers the
    /// value it saw under the latch and polls this word without it.
    pub(crate) epoch: AtomicU64,
}

impl EntryShard {
    /// Tells this shard's waiters to look again. Call under the latch
    /// (`table` is its guard's content), after the change.
    pub(crate) fn wake(&self, table: &Table) {
        // Release/Acquire with the pollers' load; the state itself is
        // published by the latch they take before reading it.
        self.epoch.fetch_add(1, Ordering::Release);
        if table.parked > 0 {
            self.cv.notify_all();
        }
    }

    /// A grant or a queued request just left `res` (under the latch):
    /// drops the entry if that emptied it, and wakes the shard if
    /// someone still queues there. Only a queue has anyone to wake, so
    /// the common release costs no epoch bump and no `futex_wake`.
    pub(crate) fn departed(&self, table: &mut Table, res: &ResourceId) {
        match table.entries.get(res) {
            Some(entry) if !entry.queue.is_empty() => self.wake(table),
            _ => table.reap(res),
        }
    }
}

/// One shard of the per-transaction held lists (each resource once, in
/// grant order). A transaction's own thread is the only steady-state
/// visitor of its list.
#[derive(Default)]
#[repr(align(128))]
pub(crate) struct TxnShard {
    pub(crate) held: Mutex<MulMap<TxnId, Vec<ResourceId>>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use finecc_model::{ClassId, FieldId, Oid};

    #[test]
    fn sequential_keys_spread_over_all_shards() {
        let kinds: [fn(u64) -> ResourceId; 5] = [
            |i| ResourceId::Instance(Oid(i), ClassId(i as u32 % 3)),
            |i| ResourceId::Class(ClassId(i as u32)),
            |i| ResourceId::Field(Oid(i / 4), FieldId(i as u32 % 4)),
            |i| ResourceId::Relation(ClassId(i as u32)),
            |i| ResourceId::Tuple(ClassId(i as u32 % 3), Oid(i)),
        ];
        for kind in kinds {
            let mut hist = [0usize; SHARDS];
            let n = 64 * SHARDS;
            for i in 0..n as u64 {
                hist[shard_of(&kind(i))] += 1;
            }
            let (min, max) = (hist.iter().min().unwrap(), hist.iter().max().unwrap());
            assert!(
                *min >= 16 && *max <= 256,
                "{} spread {min}..{max} around 64",
                kind(0)
            );
        }
        let mut hist = [0usize; SHARDS];
        for i in 0..(64 * SHARDS) as u64 {
            hist[shard_of(&TxnId(i))] += 1;
        }
        assert!(hist.iter().all(|&n| (16..=256).contains(&n)));
    }

    #[test]
    fn idle_entries_are_reaped_and_reused() {
        let mut t = Table::default();
        let r = ResourceId::Class(ClassId(1));
        t.entry(r).grant(TxnId(1), crate::LockMode::plain(0));
        t.reap(&r);
        assert_eq!(t.entries.len(), 1, "a granted entry stays");
        t.entry(r).purge(TxnId(1));
        t.reap(&r);
        assert!(t.entries.is_empty());
        assert_eq!(t.pool.len(), 1);
        t.entry(r);
        assert!(t.pool.is_empty(), "the pooled entry is reused");
    }
}

//! The snapshot registry: `ts → number of holders` per shard, sharded
//! by the registering thread's slot so a client's `begin` takes a mutex
//! its own core touched last (a hint: any thread may use any shard, and
//! release goes by the handle's shard whichever thread calls it). A
//! shard's lock is a leaf, taken under nothing. Each shard publishes its
//! minimum key in an atomic, stored under the shard's lock whenever its
//! map changes, so the minimum across shards — the GC horizon's bound,
//! and the test every serializable session start makes for a safe
//! snapshot — is [`EPOCH_SHARDS`] loads and no lock.
//!
//! Registration inserts its entry, stores the shard's new minimum, and
//! then re-reads the watermark: if the watermark moved, it re-registers
//! at the new value and confirms again. `MvccHeap::gc_horizon` reads
//! the watermark *before* it loads the minima. These accesses are all
//! `SeqCst`, which closes the registration/GC race: if the scan misses
//! a registration, its load of that shard's minimum came before the
//! registration's store, so the registration's confirming re-read came
//! after the horizon's watermark bound was read — by monotonicity the
//! pinned timestamp is at or above the bound, hence at or above the
//! horizon, and the versions it can demand were not reclaimable. A
//! minimum stored later than the missed one was computed under the
//! same lock from a map that still holds the entry, so a scan that
//! loads it cannot miss the registration. Unregistration only raises a
//! minimum — a scan that still loads the older, lower one is merely
//! conservative — so its store is `Release`: a scan that loads it also
//! sees every watermark value the releasing thread had seen (the
//! safe-snapshot test relies on that: the `ssi` module docs' *Safe
//! snapshots*).

use crate::watermark::Watermark;
use crate::Ts;
use finecc_obs::{thread_slot, CachePadded};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// How many mutexes the snapshot-epoch table is sharded over.
const EPOCH_SHARDS: usize = 16;

/// A live registration in the sharded epoch table: which shard holds
/// the entry, and the pinned snapshot timestamp.
#[derive(Clone, Copy, Debug)]
pub(crate) struct EpochHandle {
    shard: u32,
    pub(crate) ts: Ts,
}

/// The snapshot registry (see the module docs).
#[derive(Debug)]
pub(super) struct EpochTable {
    shards: Box<[CachePadded<EpochShard>]>,
}

/// What an empty epoch shard publishes as its minimum.
const NO_EPOCH: Ts = Ts::MAX;

/// `ts → number of holders` behind its lock, and the map's minimum key
/// published for lock-free scans ([`NO_EPOCH`] while empty).
#[derive(Debug)]
struct EpochShard {
    map: Mutex<BTreeMap<Ts, usize>>,
    min: AtomicU64,
}

impl Default for EpochShard {
    fn default() -> EpochShard {
        EpochShard {
            map: Mutex::default(),
            min: AtomicU64::new(NO_EPOCH),
        }
    }
}

impl EpochShard {
    /// Publishes `map`'s minimum; called under the shard's lock, so the
    /// last store always matches the map.
    fn publish_min(&self, map: &BTreeMap<Ts, usize>, order: Ordering) {
        let min = map.first_key_value().map_or(NO_EPOCH, |(&ts, _)| ts);
        self.min.store(min, order);
    }
}

/// Drops one holder of the epoch at `ts` from `map`.
fn release_epoch(map: &mut BTreeMap<Ts, usize>, ts: Ts) {
    match map.get_mut(&ts) {
        Some(n) if *n > 1 => *n -= 1,
        Some(_) => {
            map.remove(&ts);
        }
        None => debug_assert!(false, "unregistering unknown epoch {ts}"),
    }
}

impl EpochTable {
    pub(super) fn new() -> EpochTable {
        EpochTable {
            shards: (0..EPOCH_SHARDS).map(|_| CachePadded::default()).collect(),
        }
    }

    /// Registers the current watermark as a live epoch in the calling
    /// thread's shard, confirmed by a re-read (see the module docs).
    pub(super) fn register(&self, watermark: &Watermark) -> EpochHandle {
        let shard = thread_slot() % self.shards.len();
        let s = &self.shards[shard].0;
        let mut ts = watermark.get();
        let mut moved_from = None;
        loop {
            {
                let mut map = s.map.lock();
                if let Some(old) = moved_from {
                    release_epoch(&mut map, old);
                }
                *map.entry(ts).or_insert(0) += 1;
                s.publish_min(&map, Ordering::SeqCst);
            }
            let now = watermark.get();
            if now == ts {
                return EpochHandle {
                    shard: shard as u32,
                    ts,
                };
            }
            moved_from = Some(ts);
            ts = now;
        }
    }

    pub(super) fn unregister(&self, h: EpochHandle) {
        let s = &self.shards[h.shard as usize].0;
        let mut map = s.map.lock();
        release_epoch(&mut map, h.ts);
        s.publish_min(&map, Ordering::Release);
    }

    /// The minimum registered snapshot timestamp, from the shards'
    /// published minima, without a lock. May miss an entry registered
    /// during the scan; see the module docs for why that is safe
    /// given the caller's watermark bound.
    pub(super) fn min_active(&self) -> Option<Ts> {
        let min = self
            .shards
            .iter()
            .map(|s| s.0.min.load(Ordering::SeqCst))
            .fold(NO_EPOCH, Ts::min);
        (min != NO_EPOCH).then_some(min)
    }
}

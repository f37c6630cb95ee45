//! Version storage: the chains, and the map that holds them.
//!
//! Version chains are plain data: each of the 64 chain shards is one
//! reader/writer latch over an `Oid → Chain` map, and a chain a vector
//! of inline version records, newest first. Nothing is copy-on-write
//! and nothing waits out a grace period; no reader holds a reference
//! into a chain without its shard latch, so a pruned or rolled-back
//! record is freed where it is removed.
//!
//! [`Chains`] keeps the map's two invariants: a chain in a map is never
//! empty (it holds a record or a reader), and the count of class chains
//! — an extent message's class-granular SIREADs, keyed at the top of the
//! OID space — equals the number in the maps. Exclusive access
//! ([`ChainMut`]) and the full sweep unlink a chain they leave empty and
//! keep the count; nothing outside this module removes a chain or
//! touches the count.

use crate::heap::MvccConflict;
use crate::ssi::{committed, Sireads, TxnHandle, LIVE};
use crate::Ts;
use finecc_model::{ClassId, FieldId, MulMap, Oid, TxnId, Value};
use finecc_obs::CachePadded;
use parking_lot::{RwLock, RwLockWriteGuard};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const SHARD_COUNT: usize = 64;

/// One chain shard: the object→chain map behind its reader/writer latch.
type Shard = RwLock<MulMap<Oid, Chain>>;

/// The chain that holds class `c`'s class-granular SIREADs: keyed at the
/// top of the OID space, which `Database` (counting up from 1) never
/// allocates.
pub(super) fn class_chain(c: ClassId) -> Oid {
    Oid(u64::MAX - u64::from(c.raw()))
}

/// Whether `oid` keys a class chain ([`class_chain`]).
pub(super) fn is_class_chain(oid: Oid) -> bool {
    oid.raw() >= u64::MAX - u64::from(u32::MAX)
}

/// One field mutation inside a version record: the value before the
/// writer's first write of the field (the undo image readers past the
/// writer reconstruct) and after its latest (the redo image that makes
/// a chain hit self-contained).
#[derive(Debug)]
pub(super) struct FieldWrite {
    pub(super) field: FieldId,
    pub(super) before: Value,
    pub(super) after: Value,
}

/// One version record: everything needed to read *at* its writer
/// (after-images) or *past* its writer (before-images), edited in place
/// by its writer under the shard latch held exclusively. It carries no
/// timestamp: `owner` is its writer's status cell, whose one commit mark
/// commits every record the writer made.
#[derive(Debug)]
pub(super) struct VersionRecord {
    pub(super) owner: Arc<TxnHandle>,
    /// `(field, before, after)` for every field this writer modified.
    pub(super) writes: Vec<FieldWrite>,
}

impl VersionRecord {
    fn write_of(&self, field: FieldId) -> Option<&FieldWrite> {
        self.writes.iter().find(|w| w.field == field)
    }

    /// A further write of `field` by this record's writer: the field's
    /// after-image is replaced, or the field is added with `before`.
    pub(super) fn set(&mut self, field: FieldId, before: Value, after: Value) {
        match self.writes.iter_mut().find(|w| w.field == field) {
            Some(w) => w.after = after,
            None => self.writes.push(FieldWrite {
                field,
                before,
                after,
            }),
        }
    }
}

/// The version records of one object, ordered by *installation*, newest
/// first, and the SIREAD entries of its serializable readers.
/// Invariants:
///
/// * each transaction owns at most one record per chain (edited in
///   place on repeated writes);
/// * two records that touch a common field are ordered alike by install
///   position and commit timestamp (first-updater-wins forbids two
///   pending writers of a field), so the newest *visible* record of a
///   field holds its value at the snapshot, and the oldest *invisible*
///   one its value before any invisible writer;
/// * the base store holds every field's newest (possibly pending)
///   value, for chain misses and non-MVCC consumers.
#[derive(Debug, Default)]
pub(super) struct Chain {
    pub(super) records: Vec<VersionRecord>,
    pub(super) readers: Sireads,
}

impl Chain {
    /// The record `owner` made here. Only its owner installs or removes
    /// it, so the owner's commit or rollback always finds it.
    pub(super) fn own(&self, owner: &TxnHandle) -> Option<&VersionRecord> {
        self.records.iter().find(|r| std::ptr::eq(&*r.owner, owner))
    }

    /// Removes and returns the record `owner` made here.
    pub(super) fn take_own(&mut self, owner: &TxnHandle) -> Option<VersionRecord> {
        let at = (self.records.iter()).position(|r| std::ptr::eq(&*r.owner, owner))?;
        Some(self.records.remove(at))
    }

    fn is_empty(&self) -> bool {
        self.records.is_empty() && self.readers.is_empty()
    }

    /// Drops the records no snapshot can read past any more — those
    /// committed at or below `horizon` — and the reader entries that can
    /// no longer yield an edge; returns how many records went.
    pub(super) fn prune(&mut self, horizon: Ts) -> usize {
        self.readers.prune(horizon);
        let len = self.records.len();
        self.records
            .retain(|r| committed(r.owner.status()).is_none_or(|c| c > horizon));
        len - self.records.len()
    }
}

/// Whether `rec` is visible at snapshot `ts` to `as_txn`. A writer
/// marked but not yet published is above every registered snapshot, so
/// it reads as invisible like a pending one — the mark needs no latch.
#[inline]
pub(super) fn visible(rec: &VersionRecord, ts: Ts, as_txn: Option<TxnId>) -> bool {
    let status = rec.owner.status();
    match committed(status) {
        Some(cts) => cts <= ts,
        None => status == LIVE && as_txn == Some(rec.owner.txn),
    }
}

/// Walks `records` for `field` as of snapshot `ts` (seeing `as_txn`'s
/// pending writes): the value, or `None` for a chain miss. With
/// `overwriters`, collects the cells of the writers of invisible
/// versions stepped past (the read side of SSI's rw-antidependencies).
pub(super) fn reconstruct<'a>(
    records: &'a [VersionRecord],
    ts: Ts,
    as_txn: Option<TxnId>,
    field: FieldId,
    mut overwriters: Option<&mut Vec<Arc<TxnHandle>>>,
) -> Option<&'a Value> {
    let mut oldest_invisible: Option<&'a Value> = None;
    for rec in records {
        let Some(w) = rec.write_of(field) else {
            continue;
        };
        if visible(rec, ts, as_txn) {
            // Records of one field are newest-first: the first visible
            // one holds the field's value at this snapshot.
            return Some(&w.after);
        }
        if let Some(ovw) = overwriters.as_deref_mut() {
            ovw.push(Arc::clone(&rec.owner));
        }
        oldest_invisible = Some(&w.before);
    }
    // No visible version: the value before the oldest invisible writer
    // (or a miss if nobody ever wrote the field here).
    oldest_invisible
}

/// First-updater-wins admission of `txn`'s write of `field` over an
/// object's `records`: another transaction with an uncommitted version
/// of the field (live, or refused and not yet rolled back), or one
/// committed after `snapshot_ts` — a marked, unpublished writer
/// included, as it can only publish above this snapshot — wins.
/// Admitted, returns the position of `txn`'s own pending record, if
/// any.
pub(super) fn admit(
    records: &[VersionRecord],
    snapshot_ts: Ts,
    txn: TxnId,
    oid: Oid,
    field: FieldId,
) -> Result<Option<usize>, MvccConflict> {
    let mut own = None;
    for (i, rec) in records.iter().enumerate() {
        let status = rec.owner.status();
        if rec.owner.txn == txn {
            if status == LIVE {
                own = Some(i);
            }
            continue;
        }
        if rec.write_of(field).is_none() {
            continue;
        }
        let pending_in = match committed(status) {
            None => Some(rec.owner.txn),
            Some(cts) if cts > snapshot_ts => None,
            Some(_) => continue,
        };
        return Err(MvccConflict {
            oid,
            field,
            pending_in,
        });
    }
    Ok(own)
}

/// The chain map (see the module docs): the shards, each alone on its
/// cache line(s) so two shards' latch words never share one, and how
/// many class chains they hold.
#[derive(Debug)]
pub(super) struct Chains {
    shards: Box<[CachePadded<Shard>]>,
    /// Changed only under the exclusive latch of the shard that inserts
    /// or removes a class chain (`Release`), loaded by every
    /// serializable writer (`Acquire`; the `ssi` module docs'
    /// *Class-granular SIREADs* give the ordering its probe relies on).
    class_chains: AtomicUsize,
}

impl Chains {
    pub(super) fn new() -> Chains {
        Chains {
            shards: (0..SHARD_COUNT).map(|_| CachePadded::default()).collect(),
            class_chains: AtomicUsize::new(0),
        }
    }

    #[inline]
    fn shard(&self, oid: Oid) -> &Shard {
        #[cfg(test)]
        tests::LATCHES.with(|n| n.set(n.get() + 1));
        &self.shards[(oid.raw() as usize) % SHARD_COUNT]
    }

    /// Runs `f` on `oid`'s chain, if there is one, under its shard's
    /// latch held shared.
    #[inline]
    pub(super) fn read<R>(&self, oid: Oid, f: impl FnOnce(Option<&Chain>) -> R) -> R {
        f(self.shard(oid).read().get(&oid))
    }

    /// `oid`'s chain under its shard's latch held exclusively.
    #[inline]
    pub(super) fn write(&self, oid: Oid) -> ChainMut<'_> {
        ChainMut {
            map: self.shard(oid).write(),
            class_chains: &self.class_chains,
            oid,
        }
    }

    /// Whether the maps hold a class chain.
    #[inline]
    pub(super) fn has_class_chains(&self) -> bool {
        self.class_chains.load(Ordering::Acquire) > 0
    }

    /// Runs `f` on every chain, one shard at a time under its latch held
    /// exclusively, and unlinks the chains it leaves empty.
    pub(super) fn sweep(&self, mut f: impl FnMut(&mut Chain)) {
        for shard in self.shards.iter() {
            shard.write().retain(|&oid, chain| {
                f(chain);
                let empty = chain.is_empty();
                if empty && is_class_chain(oid) {
                    self.class_chains.fetch_sub(1, Ordering::Release);
                }
                !empty
            });
        }
    }

    /// The sum of `f` over every chain, one shard at a time under its
    /// latch held shared: under concurrent writers, what it sees of two
    /// shards is not one point in time.
    pub(super) fn sum(&self, f: impl Fn(Oid, &Chain) -> usize) -> usize {
        let mut sum = 0;
        for shard in self.shards.iter() {
            for (&oid, chain) in shard.read().iter() {
                sum += f(oid, chain);
            }
        }
        sum
    }
}

/// One object's chain under its shard's latch held exclusively. Dropped,
/// it unlinks the chain if it is left empty, keeping the class-chain
/// count.
pub(super) struct ChainMut<'a> {
    map: RwLockWriteGuard<'a, MulMap<Oid, Chain>>,
    class_chains: &'a AtomicUsize,
    oid: Oid,
}

impl ChainMut<'_> {
    pub(super) fn get(&self) -> Option<&Chain> {
        self.map.get(&self.oid)
    }

    pub(super) fn get_mut(&mut self) -> Option<&mut Chain> {
        self.map.get_mut(&self.oid)
    }

    /// The chain, made (and, for a class chain, counted) if there is
    /// none yet.
    pub(super) fn or_insert(&mut self) -> &mut Chain {
        let (oid, class_chains) = (self.oid, self.class_chains);
        self.map.entry(oid).or_insert_with(|| {
            if is_class_chain(oid) {
                class_chains.fetch_add(1, Ordering::Release);
            }
            Chain::default()
        })
    }
}

impl Drop for ChainMut<'_> {
    fn drop(&mut self) {
        if self.map.get(&self.oid).is_some_and(Chain::is_empty) {
            self.map.remove(&self.oid);
            if is_class_chain(self.oid) {
                self.class_chains.fetch_sub(1, Ordering::Release);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! {
        /// Chain-shard latch acquisitions made on this thread (each one
        /// by OID goes through `Chains::shard`).
        pub(super) static LATCHES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    impl Chains {
        /// The chain-shard latches this thread has taken by OID.
        pub(in crate::heap) fn latches() -> u64 {
            LATCHES.with(|n| n.get())
        }

        /// The count of class chains.
        pub(in crate::heap) fn class_chain_count(&self) -> usize {
            self.class_chains.load(Ordering::Relaxed)
        }

        /// Fails if a shard's map holds an empty chain, or if the count
        /// of class chains differs from the class chains present. Exact
        /// only while nobody writes.
        pub(in crate::heap) fn check(&self) {
            let present = self.sum(|oid, chain| {
                assert!(!chain.is_empty(), "the map holds an empty chain at {oid}");
                usize::from(is_class_chain(oid))
            });
            assert_eq!(self.class_chain_count(), present, "class-chain count");
        }
    }

    #[test]
    fn exclusive_access_unlinks_an_emptied_chain_and_keeps_the_count() {
        let chains = Chains::new();
        let keys = [Oid(7), class_chain(ClassId(3))];
        let reader = Arc::new(TxnHandle::new(TxnId(1)));
        for oid in keys {
            chains.write(oid).or_insert().readers.add(&reader, 1, 0);
        }
        // Made and left empty, or only looked at: nothing stays behind.
        chains.write(Oid(8)).or_insert();
        assert!(chains.write(Oid(9)).get().is_none());
        assert!(chains.has_class_chains());
        chains.check();
        for oid in keys {
            if let Some(chain) = chains.write(oid).get_mut() {
                chain.readers.remove(&reader);
            }
        }
        assert!(!chains.has_class_chains());
        assert_eq!(chains.sum(|_, _| 1), 0, "a chain outlived its last reader");
        chains.check();
    }
}

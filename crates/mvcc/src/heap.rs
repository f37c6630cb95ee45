//! The versioned heap: chains, transaction sessions, commit/abort,
//! reclamation, and — at [`IsolationLevel::Serializable`] — SSI conflict
//! tracking.
//!
//! # Concurrency architecture
//!
//! Version chains are plain data. Each of the 64 chain shards is one
//! reader/writer latch over an `Oid → Chain` map, and a chain is a
//! vector of inline version records, newest first. Nothing is published
//! copy-on-write, so nothing waits out a grace period, and the crate
//! root forbids `unsafe_code`.
//!
//! * **Reads hold the shard latch shared.** A read walks the chain under
//!   it and, on a miss (no record covers the field), reads the base
//!   store under it too. Records carry **both before- and after-images**
//!   per field, so a chain hit is answered from the chain alone. A miss
//!   is answered correctly from the base because every install,
//!   write-through and rollback restore happens under the same latch held
//!   exclusively: while a reader holds it shared, a field no record
//!   covers has no pending writer, and the base holds its latest
//!   committed value.
//! * **Writes hold it exclusive.** [`MvccHeap::write_at`] runs
//!   first-updater-wins, the base write-through (whose previous value is
//!   the before-image) and the install in one critical section. A
//!   further write to an object the transaction already wrote edits its
//!   own record **in place**.
//! * **One commit status per transaction.** A record points at its
//!   writer's *status cell* (the `ssi` module's `TxnHandle` — live, its
//!   commit timestamp, or dead), after Larson et al.'s per-transaction
//!   end timestamp. Commit is draw → mark → log → publish: the mark is
//!   one atomic store into the cell (at [`IsolationLevel::Serializable`],
//!   SSI validation and the store in one step under the cell's lock),
//!   and it commits every record the writer made without latching a
//!   chain. A marked record is invisible until publication — its
//!   timestamp lies above every registered snapshot — and reads as
//!   committed-after-snapshot to a rival writer. The cell is made at a
//!   transaction's first write (at `Serializable`, when its session
//!   starts), so a read-only snapshot transaction allocates none.
//! * **SIREADs ride the chain.** At `Serializable` a chain also lists
//!   its readers, `(status cell, fields it may read)`, one entry per
//!   reader, added or widened by [`MvccHeap::register_reads`] under the
//!   exclusive latch — once per top message, with its transitive access
//!   vector. A write collects the concurrent readers of its field in the
//!   critical section of its install and flags them after dropping the
//!   latch (the `ssi` module docs' *Status cells and the per-edge
//!   protocol*). A chain stays in its shard's map while it holds records
//!   *or* readers. An extent message's class-granular entries ride a
//!   *class chain* in the same maps, keyed at the top of the OID space
//!   ([`MvccHeap::record_class_read`]); a writer probes its object's
//!   class chain only while the heap counts one.
//! * **A safe snapshot keeps its reads in its session** (the `ssi`
//!   module docs' *Safe snapshots*): its registrations go into a safe
//!   read set, and [`MvccHeap::convert`] registers that set
//!   and re-walks its chains before the transaction's first write, its
//!   first class-granular registration, or — through the runtime — its
//!   first top message whose access vector writes.
//! * **Publication is in timestamp order** (the crate-private
//!   `watermark` module): the publisher of a marked (and logged)
//!   timestamp waits until its predecessor is published, then stores
//!   it, so `last_committed` only ever covers a contiguous prefix. A
//!   timestamp whose commit is then refused — by SSI validation or by
//!   the log — is published as a *skip*, its cell marked dead first.
//! * **The transaction owns its state.** Its snapshot epoch, its
//!   sorted write set, its read set, its safe read set and its status
//!   cell live in its
//!   [`MvccTxn`], after Larson et al.'s transaction object:
//!   [`MvccHeap::session`] makes one, the reads, writes and
//!   registrations take it `&mut`, and [`MvccHeap::commit_session`] or
//!   [`MvccHeap::abort_session`] consumes it. Only the transaction's own
//!   operations ever read that state, so no lock guards it.
//! * **The epoch table is striped**, each shard on its own cache lines,
//!   by the registering thread's slot. Each shard publishes its minimum
//!   in an atomic, so the GC horizon — and the safe test every
//!   serializable session start makes — takes no lock (see
//!   `EpochTable`).
//!
//! ## Latch order
//!
//! 1. **One chain shard**, shared or exclusive, never two at once.
//!    Rollback, and a logged commit assembling its redo images, visit
//!    objects one shard at a time; an unlogged commit takes none.
//! 2. Under a chain shard, one leaf only: a **base-store shard** (the
//!    miss read, the write-through, the rollback restore). A first
//!    write of an object adds it to the write set in the critical
//!    section of its install, but the write set is the session's own
//!    memory: the `&mut MvccTxn` every write holds keeps every other
//!    thread out of it, and commit and abort consume the session, so
//!    the borrow checker — not a lock — keeps the write set and the
//!    chains in agreement whenever a commit or an abort walks them.
//! 3. The **epoch shard**, the **reclaim slot** and the by-id
//!    adapter's session map are leaves taken under nothing.
//!
//! The watermark has no latch. A status cell's flag lock is never taken
//! under a chain latch: a write clones the cells of the readers it must
//! flag and flags them after dropping it, and a read records its edges
//! after dropping its shared latch. A write probes its object's class
//! chain after dropping the object's chain latch, so it too holds one
//! chain latch at a time. Chain walks read a record's status with one
//! atomic load.
//!
//! ## Reclamation
//!
//! Nothing on the transaction path ever visits every shard; versions
//! are reclaimed by the threads that made them, a few at a time.
//!
//! * **Who queues.** A writer commit appends `(commit_ts, oid)` for
//!   each object of its write set to the *reclaim queue* of the
//!   committing thread's slot — a cache-line-padded mutex. The slot
//!   (`finecc_obs::thread_slot`) is a **locality hint, never a
//!   correctness assumption**: a transaction begun on one thread,
//!   written on a second and committed on a third is just as correct.
//!   At [`IsolationLevel::Serializable`] a commit also queues the
//!   chains it registered SIREADs on (class chains included), and a
//!   tracked read-only commit queues those and counts toward the cadence
//!   below, so a chain only readers kept goes with its readers' batches
//!   (a safe snapshot, which registered nothing, touches no reclamation
//!   state).
//! * **Who prunes.** Every `RECLAIM_EVERY`-th commit of a slot runs one
//!   bounded batch: it computes [`MvccHeap::gc_horizon`], pops the
//!   queue's head entries committed at or below it, and prunes exactly
//!   those chains in place — one exclusive shard latch per entry,
//!   dropping the records at or below the horizon, the reader entries
//!   that can yield no edge, and the chain once it is empty. A batch
//!   prunes its own slot's queue; with budget to spare it looks at one
//!   other slot (a rotating cursor) and **adopts** that slot's due
//!   entries only if its owner has run no batch since this slot last
//!   looked. So an idle or exited thread's versions are still drained
//!   (`finecc.mvcc.versions_adopted`), while a busy client's queue,
//!   chains and allocations are its own: when every batch drained a
//!   rotating slot, two `mvcc` clients on `durable-update` freed each
//!   other's records (glibc keeps a freed block in the *freeing*
//!   thread's cache), and committed at 0.63 of `tav`'s rate instead of
//!   0.82. At `Serializable` every batch also raises the SIREAD pruning
//!   horizon, check-first.
//! * **Why a stale horizon is safe.** A horizon, once computed, is a
//!   valid pruning bound forever: later registrations pin the
//!   watermark, which only grows (see `EpochTable`).
//! * **Freeing is dropping.** No reader holds a reference into a chain
//!   without its shard latch, so a pruned or rolled-back record is
//!   freed where it is removed.
//! * **The full sweep.** [`MvccHeap::gc`] is the explicit
//!   stop-and-sweep for tests and maintenance: every chain of every
//!   shard, every slot's queue. [`MvccHeap::checkpoint`] ends with one;
//!   the commit path never calls it.
//!
//! ## Observability probes
//!
//! With an attached `finecc_obs::Obs` handle the commit path times
//! three consecutive segments into latency histograms — *ts draw* (the
//! clock `fetch_add` plus the mark, SSI validation included), *WAL ack*
//! (redo assembly, append, and at `WalSync` the group-commit ack), and
//! *publish* (the wait for earlier timestamps plus the watermark store) —
//! plus the commit total. The probes take no lock, and contention
//! attribution runs after every heap latch is dropped. The **read path
//! carries no probe**.

use crate::ssi::{committed, field_set, Sireads, SsiVerdict, TxnHandle, LIVE};
use crate::stats::MvccStats;
use crate::watermark::Watermark;
use crate::{IsolationLevel, SsiConflict, Ts};
use finecc_model::{ClassId, FieldId, MulMap, Oid, TxnId, Value};
use finecc_obs::{thread_slot, CachePadded, ContentionKind, ObjKey, Obs, Phase};
use finecc_store::{Database, FieldImage, StoreError};
use finecc_wal::{CheckpointData, DurabilityLevel, InstanceImage, RecoveryInfo, Wal, WalConfig};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

const SHARD_COUNT: usize = 64;

/// How many mutexes the snapshot-epoch table is sharded over.
const EPOCH_SHARDS: usize = 16;

/// How many reclaim slots threads are dealt over.
const RECLAIM_SLOTS: usize = 32;

/// Every how many writer commits of one slot (at `Serializable`, every
/// how many commits) a reclamation batch runs.
const RECLAIM_EVERY: u32 = 8;

/// The least number of queue entries a batch may prune; a slot that
/// queued more than half of this since its last batch gets twice what
/// it queued, so batches outpace any write-set size.
const RECLAIM_BATCH: usize = 32;

/// The chain that holds class `c`'s class-granular SIREADs: keyed at the
/// top of the OID space, which `Database` (counting up from 1) never
/// allocates.
fn class_chain(c: ClassId) -> Oid {
    Oid(u64::MAX - u64::from(c.raw()))
}

/// Whether `oid` keys a class chain ([`class_chain`]).
fn is_class_chain(oid: Oid) -> bool {
    oid.raw() >= u64::MAX - u64::from(u32::MAX)
}

/// A write was refused because another transaction got to the field
/// first (first-updater-wins at field granularity — two transactions
/// writing *disjoint* fields of one object never conflict, matching the
/// paper's fine-granularity theme).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MvccConflict {
    /// The contended object.
    pub oid: Oid,
    /// The contended field.
    pub field: FieldId,
    /// `Some(t)` when a version of the field is pending in live
    /// transaction `t`; `None` when a transaction already *committed* a
    /// newer version of the field than the writer's snapshot.
    pub pending_in: Option<TxnId>,
}

impl std::fmt::Display for MvccConflict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.pending_in {
            Some(t) => write!(
                f,
                "write-write conflict on {}.{}: pending version of {t}",
                self.oid, self.field
            ),
            None => write!(
                f,
                "write-write conflict on {}.{}: committed after this snapshot",
                self.oid, self.field
            ),
        }
    }
}

impl std::error::Error for MvccConflict {}

/// What [`MvccHeap::write_at`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteOutcome {
    /// A fresh pending version record was installed on the chain.
    NewVersion,
    /// The transaction already owned a pending record on the chain; it
    /// was edited in place (the field added, or its after-image
    /// updated).
    MergedVersion,
}

/// One field mutation inside a version record: the value before the
/// writer's first write of the field (the undo image, what invisible-
/// version readers reconstruct) and the value after its latest write
/// (the redo image, what makes chain hits self-contained — readers of
/// a visible version never consult the base store).
#[derive(Debug)]
struct FieldWrite {
    field: FieldId,
    before: Value,
    after: Value,
}

/// One version record: everything needed to read *at* its writer
/// (after-images) or *past* its writer (before-images).
///
/// Its writer edits `writes` in place under the shard latch held
/// exclusively. The record carries no timestamp of its own: `owner` is
/// its writer's status cell, whose one commit mark commits every record
/// the writer made (see the module docs).
#[derive(Debug)]
struct VersionRecord {
    owner: Arc<TxnHandle>,
    /// `(field, before, after)` for every field this writer modified.
    writes: Vec<FieldWrite>,
}

impl VersionRecord {
    fn write_of(&self, field: FieldId) -> Option<&FieldWrite> {
        self.writes.iter().find(|w| w.field == field)
    }

    /// A further write of `field` by this record's writer: the field's
    /// after-image is replaced, or the field is added with `before`.
    fn set(&mut self, field: FieldId, before: Value, after: Value) {
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
/// first. Invariants:
///
/// * each transaction owns at most one record per chain (edited in
///   place on repeated writes);
/// * two records that touch a common field are ordered consistently by
///   install position *and* commit timestamp (field-level
///   first-updater-wins forbids concurrently pending writers of one
///   field), so the newest *visible* record of a field carries its
///   value at the snapshot, and the oldest *invisible* one carries the
///   value before any invisible writer;
/// * the base store holds every field's newest (possibly pending)
///   value — maintained for non-MVCC consumers and chain-miss reads,
///   never consulted on a chain hit;
/// * a chain in a shard's map is never empty: it holds a record or a
///   reader.
#[derive(Debug, Default)]
struct Chain {
    records: Vec<VersionRecord>,
    /// The SIREAD entries of serializable readers of this object (see
    /// the module docs).
    readers: Sireads,
}

impl Chain {
    /// The position of the record `owner` made here. Only its owner
    /// installs or removes it, so the owner's commit or rollback always
    /// finds it.
    fn own_at(&self, owner: &TxnHandle) -> usize {
        self.records
            .iter()
            .position(|r| std::ptr::eq(&*r.owner, owner))
            .expect("a written chain holds its writer's record")
    }

    fn is_empty(&self) -> bool {
        self.records.is_empty() && self.readers.is_empty()
    }

    /// Drops the records no snapshot can read past any more — those
    /// committed at or below `horizon` — and the reader entries that can
    /// no longer yield an edge; returns how many records went.
    fn prune(&mut self, horizon: Ts) -> usize {
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
fn visible(rec: &VersionRecord, ts: Ts, as_txn: Option<TxnId>) -> bool {
    let status = rec.owner.status();
    match committed(status) {
        Some(cts) => cts <= ts,
        None => status == LIVE && as_txn == Some(rec.owner.txn),
    }
}

/// Walks `records` for `field` as of snapshot `ts` (seeing `as_txn`'s
/// pending writes). Returns the reconstructed value by reference —
/// `None` is a chain miss (no record touches the field). When
/// `overwriters` is given, it collects the cells of the writers of
/// invisible versions stepped past (the read side of SSI's
/// rw-antidependencies).
fn reconstruct<'a>(
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
/// object's `records`, at field granularity: another transaction with
/// an uncommitted version of the field (live, or refused and not yet
/// rolled back), or a version of it committed after `snapshot_ts`,
/// wins. (A writer marked committed but not yet published by the
/// watermark behaves exactly like a committed-after-snapshot one here,
/// which is the correct verdict: it can only publish above this
/// transaction's snapshot.) Admitted, returns the position of `txn`'s
/// own pending record, if it has one.
fn admit(
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

/// One chain shard: the object→chain map behind its reader/writer
/// latch, alone on its cache line(s) so two shards' latch words never
/// share one.
#[derive(Debug, Default)]
#[repr(align(128))]
struct ChainShard {
    chains: RwLock<MulMap<Oid, Chain>>,
}

/// A transaction of the heap, as its session owns it: the id, the
/// registered snapshot epoch, the objects written, the chains holding
/// its SIREAD entries, the reads of a safe snapshot, and the status cell. [`MvccHeap::session`] makes
/// one; only its own operations touch it — reads, writes and
/// registrations borrow it `&mut`, and [`MvccHeap::commit_session`] or
/// [`MvccHeap::abort_session`] consumes it — so nothing locks it.
/// Dropped unended, it keeps its snapshot pinned and its pending
/// versions installed.
#[must_use = "a session ends only through commit_session or abort_session"]
#[derive(Debug)]
pub struct MvccTxn {
    id: TxnId,
    /// The registered snapshot epoch; `epoch.ts` is the snapshot
    /// timestamp.
    epoch: EpochHandle,
    /// Objects this transaction installed pending versions on, sorted
    /// and duplicate-free (write sets are a handful of objects, so
    /// commit and rollback walk this as is — nothing to hash, collect
    /// or sort).
    write_set: Vec<Oid>,
    /// The chains — objects' and classes' — that hold this
    /// transaction's SIREAD entry, in registration order: queued for
    /// reclamation at its commit, rid of its entries at its rollback.
    read_set: Vec<Oid>,
    /// `Some` while the transaction runs on a safe snapshot: the objects
    /// it has registered reads on and the fields of each (a chain
    /// reader's field set), none of them on a chain yet (the `ssi`
    /// module docs' *Safe snapshots*).
    safe_reads: Option<Vec<(Oid, u64)>>,
    /// The transaction's status cell: made when the session starts at
    /// [`IsolationLevel::Serializable`], at the first write otherwise (a
    /// read-only snapshot transaction allocates none), and always
    /// present once `write_set` is non-empty.
    cell: Option<Arc<TxnHandle>>,
}

impl MvccTxn {
    /// The transaction id.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// The snapshot timestamp the transaction reads at.
    pub fn ts(&self) -> Ts {
        self.epoch.ts
    }

    /// Whether the transaction runs on a safe snapshot: it began at
    /// [`IsolationLevel::Serializable`] with no older snapshot live, and
    /// [`MvccHeap::convert`] has not ended that yet (the `ssi` module
    /// docs' *Safe snapshots*).
    pub fn is_safe(&self) -> bool {
        self.safe_reads.is_some()
    }

    /// Adds `oid` to the write set and returns the status cell for the
    /// transaction's new record there, making the cell on the first
    /// write.
    fn enlist(&mut self, oid: Oid) -> Arc<TxnHandle> {
        if let Err(at) = self.write_set.binary_search(&oid) {
            self.write_set.insert(at, oid);
        }
        let id = self.id;
        Arc::clone(
            self.cell
                .get_or_insert_with(|| Arc::new(TxnHandle::new(id))),
        )
    }
}

/// One thread slot's share of reclamation (see the module docs'
/// *Reclamation* section).
#[derive(Debug, Default)]
struct ReclaimState {
    /// `(commit_ts, oid)` of every committed write queued through this
    /// slot and not yet pruned, in queueing order.
    queue: VecDeque<(Ts, Oid)>,
    /// Writer commits queued through this slot — the batch cadence.
    commits: u32,
    /// Entries queued since this slot's last batch — sizes the next.
    queued: usize,
}

impl ReclaimState {
    /// Moves up to `budget` head entries of the queue committed at or
    /// below `horizon` into `due`.
    fn pop_due(&mut self, horizon: Ts, budget: usize, due: &mut Vec<Oid>) {
        due.reserve(budget.min(self.queue.len()));
        for _ in 0..budget {
            match self.queue.front() {
                Some(&(ts, oid)) if ts <= horizon => due.push(oid),
                _ => break,
            }
            self.queue.pop_front();
        }
    }
}

/// A [`ReclaimState`] behind its mutex, alone on its cache line(s) so
/// two clients' slots never share one.
#[derive(Debug)]
#[repr(align(128))]
struct ReclaimSlot {
    state: Mutex<ReclaimState>,
    /// Batches run for this slot: its owner bumps it, and another
    /// slot's batch loads it to tell a busy slot from an idle one.
    batches: AtomicU64,
    /// Owner-only from here on (relaxed hints). The slot this one's
    /// next under-budget batch looks at — a rotating cursor.
    help_next: AtomicUsize,
    /// Per slot, its `batches` when this one's batches last looked at
    /// it ([`NEVER_SEEN`] before the first look).
    seen: [AtomicU64; RECLAIM_SLOTS],
}

/// What [`ReclaimSlot::seen`] holds for a slot not yet looked at.
const NEVER_SEEN: u64 = u64::MAX;

impl Default for ReclaimSlot {
    fn default() -> ReclaimSlot {
        ReclaimSlot {
            state: Mutex::default(),
            batches: AtomicU64::new(0),
            help_next: AtomicUsize::new(0),
            seen: std::array::from_fn(|_| AtomicU64::new(NEVER_SEEN)),
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Chain-shard latch acquisitions made on this thread (each one
    /// goes through `MvccHeap::shard`).
    static CHAIN_LATCHES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// A live registration in the sharded epoch table: which shard holds
/// the entry, and the pinned snapshot timestamp.
#[derive(Clone, Copy, Debug)]
pub(crate) struct EpochHandle {
    shard: u32,
    pub(crate) ts: Ts,
}

/// The snapshot registry: `ts → number of holders` per shard, sharded by
/// the registering thread's slot so a client's `begin` takes a mutex its
/// own core touched last (a hint: any thread may use any shard, and
/// release goes by the handle's shard whichever thread calls it). Each
/// shard publishes its minimum key in an atomic, stored under the
/// shard's lock whenever its map changes, so the minimum across shards
/// — the GC horizon's, and the safe-snapshot test's — is
/// [`EPOCH_SHARDS`] loads and no lock.
///
/// Registration inserts its entry, stores the shard's new minimum, and
/// then re-reads the watermark: if the watermark moved, it re-registers
/// at the new value and confirms again. [`MvccHeap::gc_horizon`] reads
/// the watermark *before* it loads the minima. These accesses are all
/// `SeqCst`, which closes the registration/GC race: if the scan misses
/// a registration, its load of that shard's minimum came before the
/// registration's store, so the registration's confirming re-read came
/// after the horizon's watermark bound was read — by monotonicity the
/// pinned timestamp is at or above the bound, hence at or above the
/// horizon, and the versions it can demand were not reclaimable. A
/// minimum stored later than the missed one was computed under the
/// same lock from a map that still holds the entry, so a scan that
/// loads it cannot miss the registration. Unregistration only raises a
/// minimum — a scan that still loads the older, lower one is merely
/// conservative — so its store is `Release`: a scan that loads it also
/// sees every watermark value the releasing thread had seen (the
/// safe-snapshot test relies on that: the `ssi` module docs' *Safe
/// snapshots*).
#[derive(Debug)]
struct EpochTable {
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
    fn new() -> EpochTable {
        EpochTable {
            shards: (0..EPOCH_SHARDS).map(|_| CachePadded::default()).collect(),
        }
    }

    /// Registers the current watermark as a live epoch in the calling
    /// thread's shard, confirmed by a re-read (see the type-level doc).
    fn register(&self, watermark: &Watermark) -> EpochHandle {
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

    fn unregister(&self, h: EpochHandle) {
        let s = &self.shards[h.shard as usize].0;
        let mut map = s.map.lock();
        release_epoch(&mut map, h.ts);
        s.publish_min(&map, Ordering::Release);
    }

    /// The minimum registered snapshot timestamp, from the shards'
    /// published minima, without a lock. May miss an entry registered
    /// during the scan; see the type-level doc for why that is safe
    /// given the caller's watermark bound.
    fn min_active(&self) -> Option<Ts> {
        let min = self
            .shards
            .iter()
            .map(|s| s.0.min.load(Ordering::SeqCst))
            .fold(NO_EPOCH, Ts::min);
        (min != NO_EPOCH).then_some(min)
    }
}

/// The multi-version heap over a base [`Database`].
pub struct MvccHeap {
    base: Arc<Database>,
    shards: Box<[ChainShard]>,
    /// Snapshot registry; the minimum active entry is the GC horizon.
    epochs: EpochTable,
    /// The commit-timestamp allocator. Drawing a timestamp is one
    /// `fetch_add`; visibility is governed by the watermark, not the
    /// clock.
    clock: AtomicU64,
    /// Lock-free ordered publication: `last_committed` advances only
    /// across a contiguous prefix of completed commits.
    watermark: Watermark,
    /// Reclaim queues, one per thread slot.
    reclaim: Box<[ReclaimSlot]>,
    /// The attached write-ahead log (`None` at
    /// [`DurabilityLevel::None`] — the pre-durability behavior, with
    /// zero additional work anywhere). Appends happen only on the
    /// commit path and on extent events; the snapshot read path never
    /// touches it.
    wal: Option<Arc<Wal>>,
    /// Whether the heap runs at [`IsolationLevel::Serializable`]: tracks
    /// SIREADs and validates commits.
    serializable: bool,
    /// The highest GC horizon a reclamation pass has computed: a
    /// transaction committed at or below it is concurrent with no live or
    /// future one, so its SIREAD entries may be dropped. `Relaxed`: every
    /// value it ever held is a valid bound, and it publishes no other
    /// data.
    horizon: AtomicU64,
    /// How many class chains the shards hold; a writer probes its
    /// object's class chain only while it is non-zero. Changed only under
    /// the exclusive latch of the shard that inserts or removes one
    /// (`Release`), loaded by every serializable writer (`Acquire`; the
    /// `ssi` module docs' *Class-granular SIREADs* give the ordering the
    /// probe relies on). Unpadded, like `horizon`: both are read by
    /// every writer and written rarely.
    class_chains: AtomicUsize,
    /// Observability: commit-phase histograms and per-object contention
    /// attribution. Disabled by default (one branch per probe; the read
    /// path records nothing per read either way — see the module docs).
    obs: Arc<Obs>,
    /// Live counters.
    pub stats: MvccStats,
    /// The by-id adapter's sessions (see [`MvccHeap::begin`]).
    by_id: Mutex<MulMap<TxnId, MvccTxn>>,
}

impl MvccHeap {
    /// Creates a heap versioning `base` at the default
    /// [`IsolationLevel::Snapshot`].
    pub fn new(base: Arc<Database>) -> MvccHeap {
        MvccHeap::with_isolation(base, IsolationLevel::Snapshot)
    }

    /// Creates a heap versioning `base` at the given isolation level.
    pub fn with_isolation(base: Arc<Database>, isolation: IsolationLevel) -> MvccHeap {
        MvccHeap::build(base, isolation, None, 0)
    }

    /// Creates a heap with an attached write-ahead log: every writer
    /// commit appends its *Write*-projection after-images **before**
    /// its timestamp is published (durable before visible; at
    /// [`DurabilityLevel::WalSync`] the commit also waits for the group
    /// fsync). If the log directory holds no checkpoint yet, a genesis
    /// checkpoint of the base store is written so the directory is
    /// recoverable from the first commit on. The timestamp clock starts
    /// above the highest timestamp already in the log, so attaching to
    /// a directory with history never reuses a timestamp — though the
    /// usual way to resume a directory is [`MvccHeap::recover`].
    pub fn with_wal(
        base: Arc<Database>,
        isolation: IsolationLevel,
        wal: Arc<Wal>,
    ) -> std::io::Result<MvccHeap> {
        let base_ts = wal.max_logged_ts();
        let genesis = !wal.has_checkpoint()?;
        let heap = MvccHeap::build(base, isolation, Some(wal), base_ts);
        if genesis {
            heap.checkpoint()?;
        }
        Ok(heap)
    }

    /// Rebuilds a heap from a log directory: newest checkpoint + replay
    /// of the log's intact prefix in commit-timestamp order (see
    /// `finecc_wal::recover_database`). The recovered heap resumes with
    /// the schema, extents, base store, OID allocator **and the
    /// timestamp clock/watermark** of the previous incarnation —
    /// including the holes left by SSI-refused commits (skip records),
    /// so post-recovery commits continue with no timestamp reuse and no
    /// watermark gap. The reopened log is attached at the same
    /// directory; a torn final record (crash mid-append) is truncated
    /// so new appends stay readable.
    pub fn recover(
        dir: impl AsRef<Path>,
        isolation: IsolationLevel,
        config: WalConfig,
    ) -> std::io::Result<(MvccHeap, RecoveryInfo)> {
        let dir = dir.as_ref();
        let (db, info) = finecc_wal::recover_database(dir)?;
        let wal = Arc::new(Wal::open(dir, config)?);
        wal.stats()
            .set_recovery_progress(info.replayed, info.bytes_scanned, info.peak_reorder);
        let heap = MvccHeap::build(Arc::new(db), isolation, Some(wal), info.max_ts);
        Ok((heap, info))
    }

    fn build(
        base: Arc<Database>,
        isolation: IsolationLevel,
        wal: Option<Arc<Wal>>,
        base_ts: Ts,
    ) -> MvccHeap {
        MvccHeap {
            base,
            shards: (0..SHARD_COUNT).map(|_| ChainShard::default()).collect(),
            epochs: EpochTable::new(),
            clock: AtomicU64::new(base_ts),
            watermark: Watermark::with_base(base_ts),
            reclaim: (0..RECLAIM_SLOTS).map(|_| ReclaimSlot::default()).collect(),
            wal,
            serializable: isolation == IsolationLevel::Serializable,
            horizon: AtomicU64::new(0),
            class_chains: AtomicUsize::new(0),
            obs: Arc::new(Obs::disabled()),
            stats: MvccStats::default(),
            by_id: Mutex::default(),
        }
    }

    /// Attaches an observability handle (see the module docs for which
    /// phases are timed and where the probes sit relative to the latch
    /// order). Apply before sharing the heap.
    pub fn with_obs(mut self, obs: Arc<Obs>) -> MvccHeap {
        self.obs = obs;
        self
    }

    /// The attached observability handle.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// The base store (authoritative for the newest values).
    pub fn base(&self) -> &Database {
        &self.base
    }

    /// The heap's isolation level.
    pub fn isolation(&self) -> IsolationLevel {
        if self.serializable {
            IsolationLevel::Serializable
        } else {
            IsolationLevel::Snapshot
        }
    }

    /// The heap's durability level ([`DurabilityLevel::None`] when no
    /// write-ahead log is attached).
    pub fn durability(&self) -> DurabilityLevel {
        self.wal
            .as_ref()
            .map_or(DurabilityLevel::None, |w| w.level())
    }

    /// The attached write-ahead log, if any (statistics, checkpoints).
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.as_ref()
    }

    /// Creates a default-initialized instance of `class` through the
    /// heap, logging the extent event when a write-ahead log is
    /// attached — the durable counterpart of [`Database::create`].
    /// (Creation still bypasses the version chains — see the ROADMAP's
    /// versioned-extents item; objects created directly on the base
    /// store become durable at the *next checkpoint* rather than
    /// immediately.)
    pub fn create(&self, class: ClassId) -> Oid {
        let oid = self.base.create(class);
        if let Some(wal) = &self.wal {
            wal.append_create(self.current_ts(), oid, class)
                .expect("write-ahead log append failed; durability cannot be guaranteed");
        }
        oid
    }

    /// Deletes an instance through the heap, logging the extent event
    /// when a write-ahead log is attached — the durable counterpart of
    /// [`Database::delete`].
    pub fn delete(&self, oid: Oid) -> Result<(), StoreError> {
        self.base.delete(oid)?;
        if let Some(wal) = &self.wal {
            wal.append_delete(self.current_ts(), oid)
                .expect("write-ahead log append failed; durability cannot be guaranteed");
        }
        Ok(())
    }

    /// Writes a **fuzzy checkpoint**: a consistent image of schema +
    /// base store + live chains at a watermark-consistent timestamp,
    /// produced without stopping writers — the checkpoint pins a
    /// snapshot (like any reader) and streams every live object's
    /// fields through the multi-version read path, so concurrent
    /// commits keep flowing and the image still reflects exactly the
    /// state at the pinned timestamp. Objects deleted under the scan
    /// are skipped (their log records replay idempotently). The file is
    /// written atomically (temp + rename); recovery replays the log
    /// only above the returned timestamp. A heap without a write-ahead
    /// log refuses with [`std::io::ErrorKind::Unsupported`].
    ///
    /// After the checkpoint is durable (its rename directory-fsynced),
    /// the maintenance pipeline runs: checkpoints beyond the retention
    /// count are deleted and the log is truncated below the checkpoint
    /// timestamp — `floor = ckpt_ts`, never higher, so extent events
    /// that raced the fuzzy scan at `ckpt_ts` survive and commits below
    /// it (already in the image) are dropped. Both steps are
    /// best-effort: a failure leaves a bigger log/extra checkpoint, not
    /// a durability hole, so the checkpoint itself still succeeds.
    /// The pass ends with a full [`MvccHeap::gc`] sweep — maintenance
    /// is where the stop-and-sweep belongs.
    pub fn checkpoint(&self) -> std::io::Result<Ts> {
        let Some(wal) = self.wal.as_ref() else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "checkpoint requires an attached write-ahead log",
            ));
        };
        let ckpt_start = self.obs.clock();
        let epoch = self.epochs.register(&self.watermark);
        let ckpt_ts = epoch.ts;
        let schema = self.base.schema();
        let mut instances = Vec::new();
        for ci in schema.classes() {
            for oid in self.base.extent(ci.id) {
                let mut values = Vec::with_capacity(ci.all_fields.len());
                let mut live = true;
                for &f in &ci.all_fields {
                    match self.walk(ckpt_ts, None, oid, f, None) {
                        Ok(v) => values.push(v),
                        Err(_) => {
                            live = false; // deleted under the scan
                            break;
                        }
                    }
                }
                if live {
                    instances.push(InstanceImage {
                        oid,
                        class: ci.id,
                        values,
                    });
                }
            }
        }
        let result = wal.write_checkpoint(&CheckpointData {
            ckpt_ts,
            replay_from: ckpt_ts + 1,
            next_oid: self.base.next_oid_hint(),
            schema,
            instances,
        });
        self.epochs.unregister(epoch);
        result?;
        // The checkpoint is durable; compaction failures past this
        // point cost space, not safety — surface nothing. (A poisoned
        // log *will* surface on the next append.)
        let _ = wal.prune_checkpoints();
        let _ = wal.truncate_below(ckpt_ts);
        self.gc();
        self.obs.record_since(Phase::Checkpoint, ckpt_start);
        Ok(ckpt_ts)
    }

    #[inline]
    fn shard(&self, oid: Oid) -> &ChainShard {
        #[cfg(test)]
        CHAIN_LATCHES.with(|n| n.set(n.get() + 1));
        &self.shards[(oid.raw() as usize) % SHARD_COUNT]
    }

    /// The latest fully published commit timestamp (the watermark).
    pub fn current_ts(&self) -> Ts {
        self.watermark.get()
    }

    /// Starts transaction `txn` on a snapshot of the latest published
    /// state and returns its session, whose [`MvccTxn::ts`] is the
    /// snapshot timestamp. The heap keeps nothing of it but the epoch
    /// registration that pins the snapshot.
    pub fn session(&self, txn: TxnId) -> MvccTxn {
        let epoch = self.epochs.register(&self.watermark);
        // SIREAD entries are clones of a reader's cell, so a serializable
        // transaction needs one from its first read on; one that begins
        // on a safe snapshot keeps its reads in the session instead.
        let safe = self.serializable && self.is_safe_snapshot(epoch.ts);
        if safe {
            self.stats.ssi_safe_snapshots.bump();
        }
        self.stats.begins.bump();
        MvccTxn {
            id: txn,
            epoch,
            write_set: Vec::new(),
            read_set: Vec::new(),
            safe_reads: safe.then(Vec::new),
            cell: self.serializable.then(|| Arc::new(TxnHandle::new(txn))),
        }
    }

    /// Whether a serializable transaction whose epoch is registered at
    /// `ts` begins on a safe snapshot: no registered snapshot is older,
    /// and the watermark has not moved past `ts` while the minima were
    /// loaded (the `ssi` module docs' *Safe snapshots*).
    fn is_safe_snapshot(&self, ts: Ts) -> bool {
        self.epochs.min_active().is_none_or(|m| m >= ts) && self.current_ts() == ts
    }

    /// The cell a transaction's reads and writes report to at
    /// [`IsolationLevel::Serializable`]; `None` at `Snapshot`.
    #[inline]
    fn tracking<'a>(&self, txn: &'a MvccTxn) -> Option<&'a Arc<TxnHandle>> {
        txn.cell.as_ref().filter(|_| self.serializable)
    }

    /// The pruning horizon in force: every live or future writer's
    /// snapshot contains what committed at or below it.
    #[inline]
    fn horizon(&self) -> Ts {
        self.horizon.load(Ordering::Relaxed)
    }

    /// Raises the pruning horizon to `horizon` (a GC horizon; a stale
    /// one merely prunes less) at [`IsolationLevel::Serializable`].
    /// Loads first, so a pass whose horizon is not newer writes nothing
    /// to the word every writer reads.
    fn raise_horizon(&self, horizon: Ts) {
        if self.serializable && horizon > self.horizon() {
            self.horizon.fetch_max(horizon, Ordering::Relaxed);
        }
    }

    /// Reconstructs `field` of `oid` as of `txn`'s snapshot, seeing its
    /// own pending writes: [`MvccHeap::register_reads`] of the one field,
    /// then [`MvccHeap::read_covered`], which holds the object's chain
    /// shard *shared* across the walk and, on a chain miss, the one
    /// base-store read. [`crate::Snapshot::read`] is the read outside
    /// any transaction.
    ///
    /// Deletion caveat: [`Database::delete`] bypasses the version layer
    /// (like creation — see the ROADMAP's versioned-extents item), so a
    /// read of a *deleted* object answers from whatever it consults: a
    /// chain hit returns the field's value as of the snapshot (the
    /// object existed there), while a chain miss surfaces the base
    /// store's [`StoreError::UnknownOid`]. Until extents are versioned,
    /// don't use read errors to probe liveness of versioned objects. At
    /// [`IsolationLevel::Serializable`] an object the base store does
    /// not hold is refused before anything is registered.
    pub fn read_as(
        &self,
        txn: &mut MvccTxn,
        oid: Oid,
        field: FieldId,
    ) -> Result<Value, StoreError> {
        if self.tracking(txn).is_some() {
            self.base.class_of(oid)?;
        }
        self.register_reads(txn, oid, [field]);
        self.read_covered(txn, oid, field)
    }

    /// Registers `txn`'s SIREAD on `oid` at
    /// [`IsolationLevel::Serializable`] (a no-op at `Snapshot`): the
    /// transaction is about to read some of `fields`, and a concurrent
    /// writer of any of them meets this one entry, added to the object's
    /// chain (or widened) under the exclusive latch every install holds
    /// (the `ssi` module docs' *Status cells and the per-edge
    /// protocol*), and a new chain joins the session's read set. Must
    /// run before the reads it covers, which go through
    /// [`MvccHeap::read_covered`]; the runtime calls it once per top
    /// message, with the message's transitive access vector. On a safe
    /// snapshot the entry only joins the session's safe read set
    /// ([`MvccHeap::convert`]); an OID that keys a class chain registers
    /// nothing.
    pub fn register_reads(
        &self,
        txn: &mut MvccTxn,
        oid: Oid,
        fields: impl IntoIterator<Item = FieldId>,
    ) {
        if self.tracking(txn).is_none() || is_class_chain(oid) {
            return;
        }
        let fields = field_set(fields);
        if fields == 0 {
            return;
        }
        match &mut txn.safe_reads {
            Some(reads) => reads.push((oid, fields)),
            None => self.register(txn, oid, fields),
        }
    }

    /// The chain half of [`MvccHeap::register_reads`] and
    /// [`MvccHeap::record_class_read`]: the entry of `txn`'s cell on
    /// `oid`'s chain (an object's, or a [`class_chain`]), and on a new
    /// one the chain's place in the session's read set.
    fn register(&self, txn: &mut MvccTxn, oid: Oid, fields: u64) {
        let Some(cell) = &txn.cell else {
            return;
        };
        let horizon = self.horizon();
        let added = {
            let mut chains = self.shard(oid).chains.write();
            let chain = chains.entry(oid).or_insert_with(|| {
                if is_class_chain(oid) {
                    self.class_chains.fetch_add(1, Ordering::Release);
                }
                Chain::default()
            });
            chain.readers.add(cell, fields, horizon)
        };
        if added {
            txn.read_set.push(oid);
        }
        self.stats.ssi_registrations.bump();
    }

    /// Registers a class-granular SIREAD at
    /// [`IsolationLevel::Serializable`] (a no-op at `Snapshot`): `txn`
    /// is about to read some of `fields` of any number of instances of
    /// `class`, which it then reads through [`MvccHeap::read_covered`].
    /// A writer of one of them in any instance of `class` meets this one
    /// entry on the class's chain — the extent message's registration
    /// (see the `ssi` module docs' *Class-granular SIREADs*). Must run
    /// before those reads. A transaction on a safe snapshot is converted
    /// first.
    pub fn record_class_read(
        &self,
        txn: &mut MvccTxn,
        class: ClassId,
        fields: impl IntoIterator<Item = FieldId>,
    ) {
        if self.tracking(txn).is_some() {
            self.convert(txn);
            self.register(txn, class_chain(class), field_set(fields));
        }
    }

    /// Ends `txn`'s safe snapshot, if it runs on one (the `ssi` module
    /// docs' *Safe snapshots*): registers every entry of its safe read set
    /// on its chain, then walks each of those chains again and records an
    /// edge to every writer of a version invisible to it of a field in
    /// the entry — what its reads would have recorded had they been
    /// tracked. Idempotent, and a no-op at
    /// [`IsolationLevel::Snapshot`]. [`MvccHeap::write_at`] and
    /// [`MvccHeap::record_class_read`] call it; a caller that knows the
    /// transaction is about to write calls it before the reads that
    /// precede the write, so those register as they happen.
    pub fn convert(&self, txn: &mut MvccTxn) {
        let Some(reads) = txn.safe_reads.take() else {
            return;
        };
        for &(oid, fields) in &reads {
            self.register(txn, oid, fields);
        }
        let mut overwriters = Vec::new();
        for &(oid, fields) in &reads {
            if let Some(chain) = self.shard(oid).chains.read().get(&oid) {
                // Of the records touching a field, the invisible ones are
                // the newest (see `Chain`): the ones a walk steps past.
                let invisible = chain.records.iter().filter(|rec| {
                    !visible(rec, txn.ts(), Some(txn.id))
                        && rec
                            .writes
                            .iter()
                            .any(|w| fields & field_set([w.field]) != 0)
                });
                overwriters.extend(invisible.map(|rec| Arc::clone(&rec.owner)));
            }
        }
        if let Some(cell) = &txn.cell {
            self.read_edges(cell, &overwriters);
        }
    }

    /// [`MvccHeap::read_as`] by `txn` for a read its registration
    /// covers — its top message's ([`MvccHeap::register_reads`]) or its
    /// extent message's ([`MvccHeap::record_class_read`]): no
    /// registration, but the same chain walk, and at `Serializable` an
    /// edge for every invisible overwrite it steps past — unless the
    /// transaction runs on a safe snapshot, whose reads record no edge.
    /// Registering first is the caller's part.
    pub fn read_covered(
        &self,
        txn: &MvccTxn,
        oid: Oid,
        field: FieldId,
    ) -> Result<Value, StoreError> {
        let reader = self.tracking(txn).filter(|_| !txn.is_safe());
        let reader = reader.map(|cell| &**cell);
        self.walk(txn.ts(), Some(txn.id), oid, field, reader)
    }

    /// The chain walk behind [`MvccHeap::read_as`] and
    /// [`MvccHeap::read_covered`], after any SIREAD registration: the
    /// read itself, then — with a tracker — the read-side edges. With
    /// no transaction and no tracker it is the read of a snapshot or a
    /// checkpoint.
    #[inline]
    pub(crate) fn walk(
        &self,
        ts: Ts,
        as_txn: Option<TxnId>,
        oid: Oid,
        field: FieldId,
        reader: Option<&TxnHandle>,
    ) -> Result<Value, StoreError> {
        // Overwriters are only worth collecting when an SSI tracker
        // will consume them — the pure-snapshot path allocates nothing,
        // and a serializable read clones a cell only for an invisible
        // version it steps past.
        let mut overwriters: Vec<Arc<TxnHandle>> = Vec::new();
        let collect = reader.is_some().then_some(&mut overwriters);
        let (value, hit) = {
            let chains = self.shard(oid).chains.read();
            match chains
                .get(&oid)
                .and_then(|chain| reconstruct(&chain.records, ts, as_txn, field, collect))
            {
                Some(v) => (v.clone(), true),
                // A miss: no record covers the field, so — under this
                // latch — no writer holds it pending, and the base
                // holds its latest committed value.
                None => (self.base.read(oid, field)?, false),
            }
        };
        if hit {
            self.stats.read_chain_hits.bump();
        } else {
            self.stats.read_base_loads.bump();
        }
        if let Some(reader) = reader {
            self.read_edges(reader, &overwriters);
        }
        Ok(value)
    }

    /// Records the rw edge `reader ──rw──▶ w` for each writer `w` of an
    /// invisible version a chain walk stepped past. Runs under no heap
    /// latch.
    fn read_edges(&self, reader: &TxnHandle, overwriters: &[Arc<TxnHandle>]) {
        let edges: u64 = overwriters.iter().map(|w| reader.read_edge(w)).sum();
        if edges > 0 {
            self.stats.ssi_edges.add(edges);
        }
    }

    /// Writes `field` of `oid` in transaction `txn`, first converting
    /// it if it runs on a safe snapshot ([`MvccHeap::convert`]). Under
    /// the object's chain-shard latch held exclusively:
    /// first-updater-wins admission at `txn`'s snapshot, the
    /// write-through to the base store (its previous value is the
    /// before-image), then the install — a new pending record pointing
    /// at the transaction's status cell on the object's first write,
    /// which also joins the session's write set, an in-place edit of
    /// the transaction's own record after that — and at
    /// [`IsolationLevel::Serializable`] the collection of the chain's
    /// readers of `field` that may overlap `txn`, flagged once the latch
    /// is dropped. Returns what happened to the chain.
    ///
    /// A refused write leaves nothing behind: a conflict or a store
    /// error is raised before anything changes.
    pub fn write_at(
        &self,
        txn: &mut MvccTxn,
        oid: Oid,
        field: FieldId,
        value: Value,
    ) -> Result<WriteOutcome, MvccWriteError> {
        let snapshot_ts = txn.ts();
        // Chaos scheduling decision strictly before the latch: a parked
        // latch holder would deadlock the token scheduler.
        finecc_chaos::yield_point(finecc_chaos::Site::WriteInstall);
        self.convert(txn);
        // Type/domain validation runs before any latch is taken.
        self.base.check_write(field, &value)?;
        let mut chains = self.shard(oid).chains.write();
        let admitted = chains.get(&oid).map_or(Ok(None), |chain| {
            admit(&chain.records, snapshot_ts, txn.id, oid, field)
        });
        let own = match admitted {
            Ok(own) => own,
            Err(conflict) => {
                drop(chains);
                self.stats.write_conflicts.bump();
                self.obs
                    .contend(ObjKey::Field(oid.0, field.0), ContentionKind::WwConflict);
                return Err(MvccWriteError::Conflict(conflict));
            }
        };
        let before = self.base.exchange_unchecked(oid, field, value.clone())?;
        let chain = chains.entry(oid).or_default();
        let outcome = match own {
            Some(i) => {
                chain.records[i].set(field, before, value);
                WriteOutcome::MergedVersion
            }
            None => {
                let writes = vec![FieldWrite {
                    field,
                    before,
                    after: value,
                }];
                let owner = txn.enlist(oid);
                chain.records.insert(0, VersionRecord { owner, writes });
                WriteOutcome::NewVersion
            }
        };
        let chain_len = chain.records.len();
        // SSI: collect the concurrent readers of the field in the same
        // critical section as the install (see `register_reads` for why
        // that closes the race) and flag them once the latch is dropped.
        let tracking = self.tracking(txn);
        let mut readers = Vec::new();
        if let Some(cell) = tracking {
            let horizon = self.horizon();
            chain
                .readers
                .overlapping(field, cell, snapshot_ts, horizon, &mut readers);
        }
        drop(chains);
        if outcome == WriteOutcome::NewVersion {
            self.stats.versions_created.bump();
        }
        self.stats.sample_chain_len(chain_len as u64);
        // An incoming rw edge per concurrent reader — the object's own
        // readers, and, while some extent message holds a class-granular
        // entry, its class chain's, collected under that chain's latch
        // alone. A delete since the write-through leaves no class to
        // probe (deletion bypasses the versions; see `read_as`).
        if let Some(cell) = tracking {
            if self.class_chains.load(Ordering::Acquire) > 0 {
                if let Ok(class) = self.base.class_of(oid) {
                    let key = class_chain(class);
                    let mut chains = self.shard(key).chains.write();
                    if let Some(chain) = chains.get_mut(&key) {
                        let horizon = self.horizon();
                        chain
                            .readers
                            .overlapping(field, cell, snapshot_ts, horizon, &mut readers);
                        if chain.is_empty() {
                            self.unlink(&mut chains, key);
                        }
                    }
                }
            }
            let edges = cell.flag_readers(snapshot_ts, &readers);
            if edges > 0 {
                self.stats.ssi_edges.add(edges);
            }
        }
        Ok(outcome)
    }

    /// Removes `oid`'s chain, left empty, from its shard's map (held
    /// exclusively), keeping the count of class chains.
    fn unlink(&self, chains: &mut MulMap<Oid, Chain>, oid: Oid) {
        chains.remove(&oid);
        if is_class_chain(oid) {
            self.class_chains.fetch_sub(1, Ordering::Release);
        }
    }

    /// Attributes an SSI dangerous-structure abort: to the smallest
    /// OID in the pivot's write set (deterministic, and exactly one
    /// attribution per abort so registry totals match `ssi_aborts`),
    /// or unattributed for a read-only victim.
    fn note_ssi_abort(&self, txn: &MvccTxn) {
        let key = txn
            .write_set
            .first()
            .map_or(ObjKey::Unattributed, |o| ObjKey::Instance(o.0));
        self.obs.contend(key, ContentionKind::SsiAbort);
    }

    /// Commits `txn` in four steps: **draw** the next commit timestamp
    /// from the atomic clock; **mark** the transaction's status cell
    /// with it — one store, which every version record of the
    /// transaction reads as its commit; **log** the redo images of its
    /// records (when a log is attached); **publish** the timestamp
    /// through the watermark, once every earlier timestamp is published.
    /// No chain latch is taken: a marked record is invisible to every
    /// registered snapshot until the watermark publishes it, after the
    /// log append — durable before visible. Returns the commit timestamp
    /// once it is **published**, so any snapshot taken after — this
    /// session's next transaction's included — observes it. A
    /// **read-only** transaction serializes at (and returns) its
    /// snapshot timestamp without drawing one.
    ///
    /// At [`IsolationLevel::Snapshot`] commit is infallible by
    /// construction. At [`IsolationLevel::Serializable`] the mark is
    /// dangerous-structure validation and mark in one step; on failure
    /// the transaction is rolled back (as by
    /// [`MvccHeap::abort_session`]), its drawn timestamp is published as
    /// a *skip*, and the [`SsiConflict`] is returned — the caller retries
    /// on a fresh snapshot. A refused redo append ends the same way with
    /// [`CommitError::LogIo`].
    pub fn commit_session(&self, txn: MvccTxn) -> Result<Ts, CommitError> {
        let cell = match &txn.cell {
            Some(cell) if !txn.write_set.is_empty() => cell,
            _ => return self.commit_read_only(txn),
        };

        finecc_chaos::yield_point(finecc_chaos::Site::CommitTsDraw);

        // Commit-phase probes (no-ops on a disabled handle); laps sit
        // between the steps they time, never inside a latch.
        let mut phases = self.obs.phase_timer();
        let commit_ts = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        // Under SSI, validation and the mark are one atomic step on the
        // cell.
        if !self.serializable {
            cell.mark(commit_ts);
        } else if let SsiVerdict::Abort(c) = cell.validate_and_commit(commit_ts) {
            self.note_ssi_abort(&txn);
            self.stats.ssi_aborts.bump();
            self.refuse_commit(&txn, commit_ts);
            return Err(c.into());
        }
        phases.lap(Phase::CommitTsDraw);
        // Durable before visible: the record hits the log (at WalSync,
        // the disk) before the watermark publishes the timestamp; no
        // latch is held across the append or the wait.
        if let Some(wal) = &self.wal {
            let mut writes = Vec::with_capacity(txn.write_set.len());
            for &oid in &txn.write_set {
                let chains = self.shard(oid).chains.read();
                let chain = chains.get(&oid).expect("written chain exists");
                let own = &chain.records[chain.own_at(cell)];
                writes.extend(own.writes.iter().map(|w| FieldImage {
                    oid,
                    field: w.field,
                    value: w.after.clone(),
                }));
            }
            finecc_chaos::yield_point(finecc_chaos::Site::CommitWalAppend);
            if let Err(e) = wal.append_commit(commit_ts, txn.id, &writes) {
                // Graceful degradation: the record never reached the
                // log, so the commit must not happen.
                self.refuse_commit(&txn, commit_ts);
                return Err(CommitError::LogIo(e.to_string()));
            }
        }
        phases.lap(Phase::CommitWalAck);
        finecc_chaos::yield_point(finecc_chaos::Site::CommitPublish);
        // Publication waits out the committers with earlier timestamps,
        // so a returned commit is a *visible* one: a session's next
        // snapshot is at or above it, or its own next write could be
        // refused as "committed after snapshot" by its previous
        // transaction.
        self.watermark.publish(commit_ts);
        phases.lap(Phase::CommitPublish);
        phases.finish(Phase::CommitTotal);

        self.epochs.unregister(txn.epoch);
        self.stats.commits.bump();
        self.queue_reclaim(commit_ts, &txn);
        Ok(commit_ts)
    }

    /// The commit of a transaction that wrote nothing: it serializes at
    /// its snapshot. At [`IsolationLevel::Serializable`] a tracked one
    /// still validates — its reads can complete a dangerous structure
    /// around a committed pivot (the SI read-only anomaly, Fekete et al.
    /// 2004) — and queues its SIREADs' chains (see *Reclamation*). One
    /// that stayed on a safe snapshot registered none and, like a commit
    /// at `Snapshot`, validates nothing and touches no reclamation state.
    fn commit_read_only(&self, txn: MvccTxn) -> Result<Ts, CommitError> {
        let ts = txn.ts();
        let tracked = self.tracking(&txn).filter(|_| !txn.is_safe());
        if let Some(cell) = tracked {
            if let SsiVerdict::Abort(c) = cell.validate_and_commit(ts) {
                self.note_ssi_abort(&txn);
                self.stats.ssi_aborts.bump();
                self.discard(&txn);
                return Err(c.into());
            }
        }
        self.epochs.unregister(txn.epoch);
        self.stats.commits.bump();
        if tracked.is_some() {
            self.queue_reclaim(ts, &txn);
        }
        Ok(ts)
    }

    /// The tail of a writer commit refused after its timestamp was
    /// drawn (SSI validation, a failed redo append). The cell is marked
    /// `DEAD` first — a log-refused commit was already marked at
    /// `commit_ts`. The timestamp must still reach the watermark as a
    /// *skip*, or the contiguous prefix would stall. The skip is logged
    /// before it is published so recovery restores the hole, best-effort:
    /// a lost skip is harmless (a later durable commit covers the frame),
    /// so a failed append must not escalate a refusal into a panic. Then
    /// the transaction is rolled back as by [`MvccHeap::abort_session`].
    /// Like a commit, the refusal returns only once its skip is
    /// published, so a thread publishes each timestamp it draws before
    /// it draws again.
    fn refuse_commit(&self, txn: &MvccTxn, commit_ts: Ts) {
        if let Some(cell) = &txn.cell {
            cell.abort();
        }
        if let Some(wal) = &self.wal {
            let _ = wal.append_skip(commit_ts);
        }
        self.watermark.publish(commit_ts);
        self.stats.ts_skips.bump();
        self.discard(txn);
    }

    /// Rolls the transaction's writes back and ends it (counted in
    /// `aborts`). Returns the number of objects rolled back.
    fn discard(&self, txn: &MvccTxn) -> usize {
        let rolled_back = self.rollback_writes(txn);
        // Abort-discarded records count as reclaimed, so created and
        // reclaimed balance once GC has drained the committed history.
        self.stats.versions_reclaimed.add(rolled_back as u64);
        self.epochs.unregister(txn.epoch);
        self.stats.aborts.bump();
        rolled_back
    }

    /// Removes every record the transaction made and restores its
    /// before-images into the base store, each object under its shard
    /// held exclusively — so no reader observes the record gone and
    /// the base not yet restored, or the reverse. No other live
    /// transaction wrote these fields (it would have conflicted), so
    /// restoring is safe; an instance deleted concurrently has nothing
    /// to restore (same contract as `UndoLog::rollback`). Then drops
    /// its SIREAD entries, which can yield no edge any more. Returns the
    /// number of objects rolled back.
    fn rollback_writes(&self, txn: &MvccTxn) -> usize {
        let Some(cell) = &txn.cell else {
            return 0; // no write, so no cell at `Snapshot`
        };
        for &oid in &txn.write_set {
            let mut chains = self.shard(oid).chains.write();
            let chain = chains.get_mut(&oid).expect("written chain exists");
            let at = chain.own_at(cell);
            for w in chain.records.remove(at).writes {
                let _ = self.base.write_unchecked(oid, w.field, w.before);
            }
            if chain.is_empty() {
                self.unlink(&mut chains, oid);
            }
        }
        for &oid in &txn.read_set {
            let mut chains = self.shard(oid).chains.write();
            if let Some(chain) = chains.get_mut(&oid) {
                chain.readers.remove(cell);
                if chain.is_empty() {
                    self.unlink(&mut chains, oid);
                }
            }
        }
        txn.write_set.len()
    }

    /// Aborts `txn`: restores every before-image of its pending records
    /// into the base store and removes the records. Returns the number of
    /// objects rolled back.
    pub fn abort_session(&self, txn: MvccTxn) -> usize {
        if let Some(cell) = &txn.cell {
            cell.abort();
        }
        self.discard(&txn)
    }

    /// Opens a standalone read snapshot of the latest committed state.
    pub fn snapshot(self: &Arc<Self>) -> crate::Snapshot {
        let epoch = self.epochs.register(&self.watermark);
        crate::Snapshot::new(Arc::clone(self), epoch)
    }

    pub(crate) fn release_snapshot(&self, epoch: EpochHandle) {
        self.epochs.unregister(epoch);
    }

    /// The oldest snapshot any reader may still demand. Versions
    /// committed at or before this horizon can never be reconstructed
    /// *past* again.
    ///
    /// The watermark is read **before** the epoch shards are scanned
    /// and bounds the result; see `EpochTable`'s docs for why that makes the
    /// shard-at-a-time scan safe against concurrent registrations.
    pub fn gc_horizon(&self) -> Ts {
        let bound = self.current_ts();
        match self.epochs.min_active() {
            Some(m) => m.min(bound),
            None => bound,
        }
    }

    /// The calling thread's reclaim slot (a locality hint — see the
    /// module docs' *Reclamation* section).
    #[inline]
    fn my_slot(&self) -> usize {
        thread_slot() % RECLAIM_SLOTS
    }

    /// The tail of a writer commit, or of a tracked read-only one:
    /// queues the write set, and the objects of the read set it does not
    /// hold, for pruning in the committing thread's slot and, every
    /// [`RECLAIM_EVERY`]-th commit of that slot, runs one reclamation
    /// batch.
    fn queue_reclaim(&self, commit_ts: Ts, txn: &MvccTxn) {
        let slot = self.my_slot();
        let read_only = txn
            .read_set
            .iter()
            .filter(|o| txn.write_set.binary_search(o).is_err());
        let commits = {
            let mut state = self.reclaim[slot].state.lock();
            let queued = state.queue.len();
            let oids = txn.write_set.iter().chain(read_only);
            state.queue.extend(oids.map(|&oid| (commit_ts, oid)));
            state.queued += state.queue.len() - queued;
            state.commits = state.commits.wrapping_add(1);
            state.commits
        };
        if commits.is_multiple_of(RECLAIM_EVERY) {
            self.reclaim_batch(slot);
        }
    }

    /// One bounded reclamation batch on behalf of `slot`: prunes the
    /// chains its queue's due head entries name (one exclusive shard
    /// latch each) and spends what budget is left on one other slot,
    /// adopting its entries only if that slot ran no batch since this
    /// one last looked. Never visits all shards or slots.
    fn reclaim_batch(&self, slot: usize) {
        // The reclamation decision point — outside every latch.
        finecc_chaos::yield_point(finecc_chaos::Site::Reclaim);
        let horizon = self.gc_horizon();
        self.raise_horizon(horizon);
        let mut due = Vec::new();
        let own = &self.reclaim[slot];
        own.batches.fetch_add(1, Ordering::Relaxed);
        let budget = {
            let mut state = own.state.lock();
            let budget = RECLAIM_BATCH.max(2 * std::mem::take(&mut state.queued));
            state.pop_due(horizon, budget, &mut due);
            budget
        };
        if due.len() < budget {
            // An idle thread's slot must not strand its versions, and a
            // busy one's queue, chains and allocations are its owner's
            // alone (see *Reclamation*): adopt another slot's due
            // entries only if its owner has run no batch since this
            // slot last looked, and move on to the next slot once this
            // one has nothing more to give. (A slot locked right now is
            // in use; the cursor passing over `slot` itself skips it.)
            let helped = own.help_next.load(Ordering::Relaxed) % RECLAIM_SLOTS;
            let other = &self.reclaim[helped];
            let batches = other.batches.load(Ordering::Relaxed);
            let idle =
                helped != slot && own.seen[helped].swap(batches, Ordering::Relaxed) == batches;
            if idle {
                if let Some(mut state) = other.state.try_lock() {
                    let before = due.len();
                    state.pop_due(horizon, budget - due.len(), &mut due);
                    self.stats.versions_adopted.add((due.len() - before) as u64);
                }
            }
            if due.len() < budget {
                own.help_next.store(helped + 1, Ordering::Relaxed);
            }
        }
        let mut reclaimed = 0;
        for &oid in &due {
            let mut chains = self.shard(oid).chains.write();
            // An earlier entry of the same object may have pruned the
            // whole chain already.
            if let Some(chain) = chains.get_mut(&oid) {
                reclaimed += chain.prune(horizon);
                if chain.is_empty() {
                    self.unlink(&mut chains, oid);
                }
            }
        }
        if reclaimed > 0 {
            self.stats.versions_reclaimed.add(reclaimed as u64);
        }
    }

    /// The explicit **full sweep** (tests, maintenance — the commit
    /// path never runs it; see the module docs' *Reclamation* section):
    /// prunes every chain of every shard at the horizon, records and
    /// SIREAD entries alike (class chains included), drops the chains
    /// left empty, and drains every slot's reclaim queue of the entries
    /// that covers. Returns the number of records reclaimed.
    pub fn gc(&self) -> usize {
        // The reclamation decision point — outside every latch.
        finecc_chaos::yield_point(finecc_chaos::Site::Reclaim);
        let horizon = self.gc_horizon();
        self.raise_horizon(horizon);
        let mut reclaimed = 0;
        for shard in self.shards.iter() {
            shard.chains.write().retain(|&oid, chain| {
                reclaimed += chain.prune(horizon);
                let empty = chain.is_empty();
                if empty && is_class_chain(oid) {
                    self.class_chains.fetch_sub(1, Ordering::Release);
                }
                !empty
            });
        }
        self.stats.versions_reclaimed.add(reclaimed as u64);
        for slot in self.reclaim.iter() {
            // The sweep pruned whatever these entries name.
            slot.state.lock().queue.retain(|&(ts, _)| ts > horizon);
        }
        reclaimed
    }

    /// Number of live version records across all chains (diagnostics).
    /// Takes one shard latch at a time; under concurrent commits the
    /// total is approximate — a consistent point-in-time count would
    /// require freezing every shard at once, which diagnostics must
    /// never do.
    pub fn live_versions(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let chains = s.chains.read();
                chains.values().map(|c| c.records.len()).sum::<usize>()
            })
            .sum()
    }

    /// Number of live chains — objects', and the class chains of live
    /// class-granular SIREADs (diagnostics; approximate under
    /// concurrency, like [`MvccHeap::live_versions`]).
    pub fn live_chains(&self) -> usize {
        self.shards.iter().map(|s| s.chains.read().len()).sum()
    }
}

/// The by-id adapter: transactions named by [`TxnId`], their sessions
/// kept in one map. It has no logic of its own — each call takes the
/// session out of the map, runs the session call, and puts it back — so
/// the map's lock is taken under nothing, no heap latch or chaos yield
/// runs under it, and one transaction must not be driven from two
/// threads at once (the second call would find it unknown). It serves
/// callers that cannot hold a session, such as the benchmark's bare-heap
/// probe; everything else holds an [`MvccTxn`].
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

/// Why an MVCC write failed. Every variant leaves the heap and the base
/// store as they were before the call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MvccWriteError {
    /// First-updater-wins conflict; the transaction must abort (and may
    /// retry with a fresh snapshot).
    Conflict(MvccConflict),
    /// The base store rejected the write (unknown OID, type mismatch, …).
    Store(StoreError),
    /// The by-id adapter holds no session under this id — never begun,
    /// or already committed or aborted. Retrying cannot help.
    UnknownTxn(TxnId),
}

impl From<StoreError> for MvccWriteError {
    fn from(e: StoreError) -> MvccWriteError {
        MvccWriteError::Store(e)
    }
}

impl std::fmt::Display for MvccWriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MvccWriteError::Conflict(c) => c.fmt(f),
            MvccWriteError::Store(e) => e.fmt(f),
            MvccWriteError::UnknownTxn(t) => {
                write!(f, "transaction {t} is not registered with the mvcc heap")
            }
        }
    }
}

impl std::error::Error for MvccWriteError {}

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

/// Why [`MvccHeap::commit_session`] (or the by-id [`MvccHeap::commit`])
/// refused a transaction. On the first two variants the transaction is
/// fully rolled back (as by [`MvccHeap::abort_session`]) and its drawn
/// timestamp is published as a *skip*, keeping the watermark prefix
/// dense — callers retry on a fresh snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommitError {
    /// Serializable validation found a dangerous structure.
    Ssi(SsiConflict),
    /// The write-ahead log could not make the commit durable (append
    /// or fsync failure). Nothing became visible; the failure may be
    /// transient (the log degrades batch by batch), so the error is
    /// retryable.
    LogIo(String),
    /// The by-id adapter holds no session under this id — never begun,
    /// or already committed or aborted. Nothing was touched and no
    /// timestamp was drawn; retrying cannot help.
    UnknownTxn(TxnId),
}

impl From<SsiConflict> for CommitError {
    fn from(c: SsiConflict) -> CommitError {
        CommitError::Ssi(c)
    }
}

impl std::fmt::Display for CommitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommitError::Ssi(c) => c.fmt(f),
            CommitError::LogIo(m) => write!(f, "write-ahead log failure: {m}"),
            CommitError::UnknownTxn(t) => {
                write!(f, "transaction {t} is not registered with the mvcc heap")
            }
        }
    }
}

impl std::error::Error for CommitError {}

#[cfg(test)]
mod tests {
    use super::*;
    use finecc_model::{ClassId, FieldType, Schema, SchemaBuilder};
    use std::sync::atomic::AtomicBool;

    fn setup() -> (Arc<Schema>, Arc<MvccHeap>, ClassId, FieldId, FieldId) {
        let mut b = SchemaBuilder::new();
        b.class("a")
            .field("x", FieldType::Int)
            .field("y", FieldType::Int);
        let schema = Arc::new(b.finish().unwrap());
        let db = Arc::new(Database::new(Arc::clone(&schema)));
        let a = schema.class_by_name("a").unwrap();
        let x = schema.resolve_field(a, "x").unwrap();
        let y = schema.resolve_field(a, "y").unwrap();
        (schema, Arc::new(MvccHeap::new(db)), a, x, y)
    }

    #[test]
    fn read_your_writes_and_isolation() {
        let (_, heap, a, x, _) = setup();
        let o = heap.base().create(a);
        heap.begin(TxnId(1));
        heap.begin(TxnId(2));
        heap.write(TxnId(1), o, x, Value::Int(7)).unwrap();
        // Writer sees its own write; a concurrent snapshot does not.
        assert_eq!(heap.read(TxnId(1), o, x), Ok(Value::Int(7)));
        assert_eq!(heap.read(TxnId(2), o, x), Ok(Value::Int(0)));
        heap.commit(TxnId(1)).unwrap();
        // T2's snapshot predates the commit: still the old value.
        assert_eq!(heap.read(TxnId(2), o, x), Ok(Value::Int(0)));
        heap.commit(TxnId(2)).unwrap();
        // A fresh snapshot sees the committed value.
        heap.begin(TxnId(3));
        assert_eq!(heap.read(TxnId(3), o, x), Ok(Value::Int(7)));
        heap.abort(TxnId(3));
    }

    #[test]
    fn first_updater_wins_per_field() {
        let (_, heap, a, x, _) = setup();
        let o = heap.base().create(a);
        heap.begin(TxnId(1));
        heap.begin(TxnId(2));
        heap.write(TxnId(1), o, x, Value::Int(1)).unwrap();
        // Same field: pending conflict.
        let err = heap.write(TxnId(2), o, x, Value::Int(2)).unwrap_err();
        assert_eq!(
            err,
            MvccWriteError::Conflict(MvccConflict {
                oid: o,
                field: x,
                pending_in: Some(TxnId(1)),
            })
        );
        heap.commit(TxnId(1)).unwrap();
        // T2's snapshot is now stale: committed-after-snapshot conflict.
        let err = heap.write(TxnId(2), o, x, Value::Int(2)).unwrap_err();
        assert_eq!(
            err,
            MvccWriteError::Conflict(MvccConflict {
                oid: o,
                field: x,
                pending_in: None,
            })
        );
        heap.abort(TxnId(2));
        assert_eq!(heap.stats.snapshot().write_conflicts, 2);
    }

    #[test]
    fn disjoint_fields_of_one_object_never_conflict() {
        // The multi-version analogue of the paper's P4 fix: writers of
        // disjoint fields of the SAME object both commit, out of install
        // order, and snapshots reconstruct each field independently.
        let (_, heap, a, x, y) = setup();
        let o = heap.base().create(a);
        heap.begin(TxnId(1));
        heap.begin(TxnId(2));
        heap.write(TxnId(1), o, x, Value::Int(10)).unwrap();
        heap.write(TxnId(2), o, y, Value::Int(20)).unwrap();
        let snap = heap.snapshot();
        // Install order is T1 then T2, commit order T2 then T1.
        let ts2 = heap.commit(TxnId(2)).unwrap();
        let mid = heap.snapshot();
        let ts1 = heap.commit(TxnId(1)).unwrap();
        assert!(ts2 < ts1);
        assert_eq!(heap.stats.snapshot().write_conflicts, 0);
        // Pre-commit snapshot: neither write; mid snapshot: only T2's.
        assert_eq!(snap.read(o, x), Ok(Value::Int(0)));
        assert_eq!(snap.read(o, y), Ok(Value::Int(0)));
        assert_eq!(mid.read(o, x), Ok(Value::Int(0)));
        assert_eq!(mid.read(o, y), Ok(Value::Int(20)));
        assert_eq!(heap.base().read(o, x), Ok(Value::Int(10)));
        assert_eq!(heap.base().read(o, y), Ok(Value::Int(20)));
    }

    #[test]
    fn abort_restores_before_images() {
        let (_, heap, a, x, y) = setup();
        let o = heap.base().create(a);
        heap.begin(TxnId(1));
        heap.write(TxnId(1), o, x, Value::Int(5)).unwrap();
        heap.write(TxnId(1), o, x, Value::Int(6)).unwrap();
        heap.write(TxnId(1), o, y, Value::Int(7)).unwrap();
        assert_eq!(heap.abort(TxnId(1)), 1, "one object rolled back");
        assert_eq!(heap.base().read(o, x), Ok(Value::Int(0)));
        assert_eq!(heap.base().read(o, y), Ok(Value::Int(0)));
        assert_eq!(heap.live_chains(), 0, "aborted chain is removed");
    }

    #[test]
    fn snapshots_are_stable_and_pin_versions() {
        let (_, heap, a, x, _) = setup();
        let o = heap.base().create(a);
        // Commit three successive values, snapshotting between commits.
        let mut snaps = Vec::new();
        for (i, v) in [10, 20, 30].into_iter().enumerate() {
            snaps.push(heap.snapshot());
            let t = TxnId(i as u64 + 1);
            heap.begin(t);
            heap.write(t, o, x, Value::Int(v)).unwrap();
            heap.commit(t).unwrap();
        }
        assert_eq!(snaps[0].read(o, x), Ok(Value::Int(0)));
        assert_eq!(snaps[1].read(o, x), Ok(Value::Int(10)));
        assert_eq!(snaps[2].read(o, x), Ok(Value::Int(20)));
        // Nothing at or below the oldest active snapshot can be pruned
        // past it: all three versions stay reachable.
        heap.gc();
        assert_eq!(snaps[0].read(o, x), Ok(Value::Int(0)));
        drop(snaps);
        // With every snapshot released the whole history is reclaimable.
        let reclaimed = heap.gc();
        assert!(reclaimed >= 3, "got {reclaimed}");
        assert_eq!(heap.live_versions(), 0);
        assert_eq!(heap.base().read(o, x), Ok(Value::Int(30)));
    }

    #[test]
    fn commit_is_atomic_across_objects() {
        let (_, heap, a, x, _) = setup();
        let oids: Vec<Oid> = (0..3).map(|_| heap.base().create(a)).collect();
        heap.begin(TxnId(1));
        for (i, &o) in oids.iter().enumerate() {
            heap.write(TxnId(1), o, x, Value::Int(i as i64 + 1))
                .unwrap();
        }
        let snap_before = heap.snapshot();
        // Without a log, commit is draw → mark → publish: the one store
        // into the writer's cell commits every record, so no chain shard
        // is latched, shared or exclusive.
        let latches = chain_latches();
        let ts = heap.commit(TxnId(1)).unwrap();
        assert_eq!(chain_latches(), latches, "commit latched a chain shard");
        let snap_after = heap.snapshot();
        assert!(snap_after.ts() >= ts);
        // The pre-commit snapshot sees no write; the post-commit
        // snapshot sees all three.
        for (i, &o) in oids.iter().enumerate() {
            assert_eq!(snap_before.read(o, x), Ok(Value::Int(0)));
            assert_eq!(snap_after.read(o, x), Ok(Value::Int(i as i64 + 1)));
        }
    }

    #[test]
    fn commit_timestamps_are_monotone_and_unique() {
        let (_, heap, a, x, _) = setup();
        let o = heap.base().create(a);
        let mut last = 0;
        for i in 0..10u64 {
            let t = TxnId(i + 1);
            heap.begin(t);
            heap.write(t, o, x, Value::Int(i as i64)).unwrap();
            let ts = heap.commit(t).unwrap();
            assert!(ts > last);
            last = ts;
        }
        assert_eq!(heap.current_ts(), last);
    }

    #[test]
    fn store_errors_pass_through_without_installing_versions() {
        let (_, heap, a, x, _) = setup();
        let o = heap.base().create(a);
        heap.begin(TxnId(1));
        let err = heap.write(TxnId(1), o, x, Value::Bool(true)).unwrap_err();
        assert!(matches!(
            err,
            MvccWriteError::Store(StoreError::TypeMismatch { .. })
        ));
        assert_eq!(heap.live_versions(), 0);
        assert_eq!(heap.abort(TxnId(1)), 0, "nothing to roll back");
    }

    #[test]
    fn concurrent_writers_disjoint_objects_all_commit() {
        let (_, heap, a, x, _) = setup();
        let oids: Vec<Oid> = (0..8).map(|_| heap.base().create(a)).collect();
        std::thread::scope(|s| {
            for (i, &oid) in oids.iter().enumerate() {
                let heap = &heap;
                s.spawn(move || {
                    for round in 0..50u64 {
                        let mut t = heap.session(TxnId((i as u64) << 32 | round | 1 << 63));
                        heap.write_at(&mut t, oid, x, Value::Int(round as i64))
                            .unwrap();
                        heap.commit_session(t).unwrap();
                    }
                });
            }
        });
        for &oid in &oids {
            assert_eq!(heap.base().read(oid, x), Ok(Value::Int(49)));
        }
        assert_eq!(heap.stats.snapshot().commits, 400);
        assert_eq!(heap.stats.snapshot().write_conflicts, 0);
        // Every drawn timestamp was published: the watermark drained to
        // the clock and the prefix is contiguous.
        assert_eq!(heap.current_ts(), 400);
    }

    #[test]
    fn chain_hits_answer_from_the_chain_alone() {
        // Once a field has any version record, snapshot reads of it are
        // served entirely from the chain: the base store is never
        // consulted — the counters prove it.
        let (_, heap, a, x, y) = setup();
        let o = heap.base().create(a);
        let pin_gc = heap.snapshot(); // horizon 0: chains never shrink
        for i in 0..3u64 {
            let t = TxnId(i + 1);
            heap.begin(t);
            heap.write(t, o, x, Value::Int(i as i64)).unwrap();
            heap.write(t, o, y, Value::Int(-(i as i64))).unwrap();
            heap.commit(t).unwrap();
        }
        let before = heap.stats.snapshot();
        let snap = heap.snapshot();
        assert_eq!(snap.read(o, x), Ok(Value::Int(2)));
        assert_eq!(snap.read(o, y), Ok(Value::Int(-2)));
        assert_eq!(pin_gc.read(o, x), Ok(Value::Int(0)));
        let m = heap.stats.snapshot().since(&before);
        assert_eq!(m.snapshot_reads, 3);
        assert_eq!(m.read_chain_hits, 3, "all three reads hit the chain");
        assert_eq!(m.read_base_loads, 0, "the base store was never locked");
    }

    #[test]
    fn chain_miss_pays_one_base_read() {
        let (_, heap, a, x, _) = setup();
        let o = heap.base().create(a);
        let before = heap.stats.snapshot();
        let snap = heap.snapshot();
        assert_eq!(snap.read(o, x), Ok(Value::Int(0)));
        let m = heap.stats.snapshot().since(&before);
        assert_eq!(m.read_chain_hits, 0);
        assert_eq!(m.read_base_loads, 1, "unversioned object: one base read");
    }

    #[test]
    fn merged_writes_republish_with_updated_after_images() {
        // Repeated writes by one transaction stay a single record, edited
        // in place, whose after-image tracks the latest value — and its
        // reader sees it without consulting the base store.
        let (_, heap, a, x, _) = setup();
        let o = heap.base().create(a);
        heap.begin(TxnId(1));
        assert_eq!(
            heap.write(TxnId(1), o, x, Value::Int(1)).unwrap(),
            WriteOutcome::NewVersion
        );
        assert_eq!(
            heap.write(TxnId(1), o, x, Value::Int(2)).unwrap(),
            WriteOutcome::MergedVersion
        );
        assert_eq!(heap.live_versions(), 1, "merge does not grow the chain");
        assert_eq!(heap.read(TxnId(1), o, x), Ok(Value::Int(2)));
        heap.commit(TxnId(1)).unwrap();
        heap.begin(TxnId(2));
        assert_eq!(heap.read(TxnId(2), o, x), Ok(Value::Int(2)));
        heap.abort(TxnId(2));
    }

    /// A seeded xorshift stream — the storms below pick objects from it,
    /// so a failure names a schedule-independent input.
    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed | 1;
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    fn chain_latches() -> u64 {
        CHAIN_LATCHES.with(|n| n.get())
    }

    /// Every reclaim slot's queue is empty.
    fn slots_are_empty(heap: &MvccHeap) -> bool {
        heap.reclaim
            .iter()
            .all(|slot| slot.state.lock().queue.is_empty())
    }

    /// Live SIREAD entries: on the objects' chains, and on class chains.
    fn siread_entries(heap: &MvccHeap) -> (usize, usize) {
        let (mut objects, mut classes) = (0, 0);
        for shard in heap.shards.iter() {
            for (&oid, chain) in shard.chains.read().iter() {
                if is_class_chain(oid) {
                    classes += chain.readers.len();
                } else {
                    objects += chain.readers.len();
                }
            }
        }
        (objects, classes)
    }

    /// The heap's count of class chains.
    fn class_chains(heap: &MvccHeap) -> usize {
        heap.class_chains.load(Ordering::Relaxed)
    }

    #[test]
    fn commit_of_an_unknown_txn_is_a_typed_error() {
        let (_, heap, a, x, _) = setup();
        let o = heap.base().create(a);
        assert_eq!(
            heap.commit(TxnId(9)),
            Err(CommitError::UnknownTxn(TxnId(9)))
        );
        heap.begin(TxnId(1));
        heap.write(TxnId(1), o, x, Value::Int(1)).unwrap();
        let ts = heap.commit(TxnId(1)).unwrap();
        // A second commit of the same transaction is just as unknown,
        // and draws no timestamp.
        assert_eq!(
            heap.commit(TxnId(1)),
            Err(CommitError::UnknownTxn(TxnId(1)))
        );
        assert_eq!(heap.current_ts(), ts);
        let m = heap.stats.snapshot();
        assert_eq!((m.begins, m.commits, m.aborts, m.ts_skips), (1, 1, 0, 0));
    }

    #[test]
    fn a_write_by_an_unknown_txn_installs_nothing() {
        let (_, heap, a, x, _) = setup();
        let o = heap.base().create(a);
        let stranger = TxnId(9);
        assert_eq!(
            heap.write(stranger, o, x, Value::Int(5)),
            Err(MvccWriteError::UnknownTxn(stranger))
        );
        assert_eq!(heap.base().read(o, x), Ok(Value::Int(0)));
        assert_eq!((heap.live_versions(), heap.live_chains()), (0, 0));
        // The field is not poisoned: an honest writer gets it.
        heap.begin(TxnId(1));
        heap.write(TxnId(1), o, x, Value::Int(1)).unwrap();
        heap.commit(TxnId(1)).unwrap();
        assert_eq!(heap.base().read(o, x), Ok(Value::Int(1)));
        let m = heap.stats.snapshot();
        assert_eq!((m.versions_created, m.write_conflicts), (1, 0));
    }

    #[test]
    fn a_read_by_an_unknown_txn_is_a_typed_error() {
        let (_, heap, a, x, _) = setup();
        let o = heap.base().create(a);
        let stranger = TxnId(9);
        assert_eq!(
            heap.read(stranger, o, x),
            Err(MvccReadError::UnknownTxn(stranger))
        );
        heap.begin(TxnId(1));
        assert_eq!(heap.read(TxnId(1), o, x), Ok(Value::Int(0)));
        heap.commit(TxnId(1)).unwrap();
        // An ended transaction is just as unknown; a store refusal keeps
        // its own type.
        assert_eq!(
            heap.read(TxnId(1), o, x),
            Err(MvccReadError::UnknownTxn(TxnId(1)))
        );
        heap.begin(TxnId(2));
        assert!(matches!(
            heap.read(TxnId(2), Oid(u64::MAX), x),
            Err(MvccReadError::Store(StoreError::UnknownOid(_)))
        ));
        heap.abort(TxnId(2));
        assert_eq!(heap.stats.snapshot().snapshot_reads, 1);
    }

    #[test]
    fn abort_of_an_unknown_txn_is_a_counted_no_op() {
        let (_, heap, a, x, _) = setup();
        let o = heap.base().create(a);
        assert_eq!(heap.abort(TxnId(9)), 0);
        heap.begin(TxnId(1));
        heap.write(TxnId(1), o, x, Value::Int(1)).unwrap();
        assert_eq!(heap.abort(TxnId(1)), 1);
        assert_eq!(heap.abort(TxnId(1)), 0, "already ended");
        assert_eq!(heap.base().read(o, x), Ok(Value::Int(0)));
        let m = heap.stats.snapshot();
        assert_eq!((m.begins, m.aborts), (1, 3));
        assert_eq!(m.versions_created, m.versions_reclaimed);
    }

    #[test]
    fn a_by_id_write_refused_by_a_rival_leaves_its_transaction_known() {
        let (_, heap, a, x, y) = setup();
        let o = heap.base().create(a);
        heap.begin(TxnId(1));
        heap.begin(TxnId(2));
        heap.write(TxnId(1), o, x, Value::Int(1)).unwrap();
        heap.write(TxnId(2), o, y, Value::Int(2)).unwrap();
        assert!(matches!(
            heap.write(TxnId(2), o, x, Value::Int(3)),
            Err(MvccWriteError::Conflict(_))
        ));
        assert_eq!(heap.abort(TxnId(2)), 1, "its earlier write rolls back");
        assert_eq!(heap.base().read(o, y), Ok(Value::Int(0)));
        heap.commit(TxnId(1)).unwrap();
        assert_eq!(heap.base().read(o, x), Ok(Value::Int(1)));
        let m = heap.stats.snapshot();
        assert_eq!((m.commits, m.aborts, m.write_conflicts), (1, 1, 1));
    }

    #[test]
    fn reclamation_never_stops_the_world_on_the_commit_path() {
        // 10,000 single-object commits over `threads` disjoint object
        // sets: no commit call may take more reclamation latches than
        // one batch's budget (never a sweep of all 64 shards), and the
        // whole run takes at most two per committed object.
        const COMMITS: u64 = 10_000;
        const OBJECTS: usize = 64;
        let (_, heap, a, x, _) = setup();
        let threads = finecc_obs::test_threads() as u64;
        let per_thread = COMMITS / threads;
        let total_latches = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..threads {
                let oids: Vec<Oid> = (0..OBJECTS).map(|_| heap.base().create(a)).collect();
                let (heap, total_latches) = (&heap, &total_latches);
                s.spawn(move || {
                    let mut next = rng(0x5eed ^ t);
                    let mut reclaim_latches = 0;
                    for i in 0..per_thread {
                        let mut txn = heap.session(TxnId(t << 32 | (i + 1)));
                        let oid = oids[next() as usize % OBJECTS];
                        heap.write_at(&mut txn, oid, x, Value::Int(i as i64))
                            .unwrap();
                        let before = chain_latches();
                        heap.commit_session(txn).unwrap();
                        // An unlogged commit latches no chain itself
                        // (`commit_is_atomic_across_objects`): whatever
                        // it took, its reclamation batch took.
                        let taken = chain_latches() - before;
                        assert!(
                            taken <= RECLAIM_BATCH as u64,
                            "one commit took {taken} reclamation latches"
                        );
                        reclaim_latches += taken;
                    }
                    total_latches.fetch_add(reclaim_latches, Ordering::Relaxed);
                });
            }
        });
        let committed = per_thread * threads;
        assert_eq!(heap.stats.snapshot().commits, committed);
        let total = total_latches.load(Ordering::Relaxed);
        assert!(
            total <= 2 * committed,
            "{total} reclamation latches for {committed} objects"
        );
    }

    #[test]
    fn nothing_a_pinned_snapshot_needs_is_pruned() {
        // Writers storm a few hundred objects while one snapshot stays
        // pinned and readers keep re-reading through it:
        // every read must return the value at the pin, whatever the
        // batches prune around it.
        const OBJECTS: usize = 300;
        const TXNS_PER_WRITER: u64 = 400;
        let (_, heap, a, x, y) = setup();
        let oids: Vec<Oid> = (0..OBJECTS).map(|_| heap.base().create(a)).collect();
        for (i, &oid) in oids.iter().enumerate() {
            let mut txn = heap.session(TxnId(1 << 40 | i as u64));
            heap.write_at(&mut txn, oid, x, Value::Int(i as i64))
                .unwrap();
            heap.commit_session(txn).unwrap();
        }
        let pinned = heap.snapshot();
        let writers = (finecc_obs::test_threads() / 2).max(1) as u64;
        let readers = (finecc_obs::test_threads() / 2).max(1) as u64;
        let writers_left = AtomicU64::new(writers);
        std::thread::scope(|s| {
            for w in 0..writers {
                let (heap, oids, writers_left) = (&heap, &oids, &writers_left);
                s.spawn(move || {
                    let mut next = rng(0xabcd ^ w);
                    for i in 0..TXNS_PER_WRITER {
                        let mut txn = heap.session(TxnId((w + 1) << 32 | i));
                        // One or two objects, both fields of the first:
                        // new versions, merges, and — when two writers
                        // meet — first-updater-wins aborts.
                        let first = oids[next() as usize % OBJECTS];
                        let second = oids[next() as usize % OBJECTS];
                        let v = Value::Int(-(i as i64) - 1);
                        let mut write = |o, f, v| heap.write_at(&mut txn, o, f, v).is_ok();
                        let ok = write(first, x, v.clone())
                            && write(first, y, v.clone())
                            && (i % 2 == 0 || write(second, x, v));
                        if ok {
                            heap.commit_session(txn).unwrap();
                        } else {
                            heap.abort_session(txn);
                        }
                    }
                    writers_left.fetch_sub(1, Ordering::SeqCst);
                });
            }
            for r in 0..readers {
                let (pinned, oids, writers_left) = (&pinned, &oids, &writers_left);
                s.spawn(move || {
                    let mut next = rng(0x1234 ^ r);
                    while writers_left.load(Ordering::SeqCst) > 0 {
                        let i = next() as usize % OBJECTS;
                        assert_eq!(pinned.read(oids[i], x), Ok(Value::Int(i as i64)));
                        assert_eq!(pinned.read(oids[i], y), Ok(Value::Int(0)));
                    }
                });
            }
        });
        for (i, &oid) in oids.iter().enumerate() {
            assert_eq!(pinned.read(oid, x), Ok(Value::Int(i as i64)));
        }
        drop(pinned);
        // Every session has ended: one full sweep leaves nothing.
        heap.gc();
        assert_eq!(heap.live_versions(), 0);
        assert_eq!(heap.live_chains(), 0);
        let m = heap.stats.snapshot();
        assert_eq!(m.versions_created, m.versions_reclaimed);
        assert_eq!(m.begins, m.commits + m.aborts);
        assert!(slots_are_empty(&heap), "a slot kept a queue entry");
    }

    #[test]
    fn an_idle_threads_slot_does_not_strand_versions() {
        const STRANDED: u64 = 1_000;
        let (_, heap, a, x, _) = setup();
        let theirs: Vec<Oid> = (0..STRANDED).map(|_| heap.base().create(a)).collect();
        let mine: Vec<Oid> = (0..16).map(|_| heap.base().create(a)).collect();
        let pinned = heap.snapshot();
        let (committed, done) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
        let (a_slot, b_slot) = std::thread::scope(|s| {
            let heap = &heap;
            let (committed, done) = (&committed, &done);
            // Thread A commits 1,000 single-object transactions under an
            // open snapshot — so its own batches can prune none of them —
            // and then idles, alive: its slot stays its own.
            let a_thread = s.spawn(move || {
                for (i, &oid) in theirs.iter().enumerate() {
                    let mut txn = heap.session(TxnId(1 << 32 | i as u64));
                    heap.write_at(&mut txn, oid, x, Value::Int(1)).unwrap();
                    heap.commit_session(txn).unwrap();
                }
                committed.wait();
                done.wait();
                thread_slot()
            });
            committed.wait();
            assert_eq!(heap.live_versions() as u64, STRANDED);
            drop(pinned);
            // Thread B keeps committing on other objects; nobody calls
            // `gc()`. Once A's slot has run no batch between two of B's
            // looks, B's batches adopt A's queue.
            let b_slot = s
                .spawn(move || {
                    for i in 0..4_000u64 {
                        let mut txn = heap.session(TxnId(2 << 32 | i));
                        let oid = mine[i as usize % mine.len()];
                        heap.write_at(&mut txn, oid, x, Value::Int(2)).unwrap();
                        heap.commit_session(txn).unwrap();
                    }
                    thread_slot()
                })
                .join()
                .unwrap();
            done.wait();
            (a_thread.join().unwrap(), b_slot)
        });
        assert_ne!(
            a_slot % RECLAIM_SLOTS,
            b_slot % RECLAIM_SLOTS,
            "A (thread slot {a_slot}) and B ({b_slot}) share a reclaim slot"
        );
        let left = heap.live_versions();
        assert!(
            left <= RECLAIM_EVERY as usize,
            "{left} versions stranded in an idle thread's slot"
        );
        let adopted = heap.stats.snapshot().versions_adopted;
        assert!(
            adopted >= STRANDED - RECLAIM_EVERY as u64,
            "adopted {adopted}"
        );
    }

    #[test]
    fn a_busy_slots_queue_is_never_adopted() {
        // Writers on disjoint objects commit in lock-step rounds of
        // exactly one batch each: between any two looks of one slot's
        // batches at another (a full turn of the cursor apart), the
        // other slot ran a batch, so nobody adopts anybody's queue.
        const ROUNDS: u64 = 3 * RECLAIM_SLOTS as u64;
        const OBJECTS: usize = 4;
        let (_, heap, a, x, _) = setup();
        let threads = finecc_obs::test_threads() as u64;
        let round = std::sync::Barrier::new(threads as usize);
        std::thread::scope(|s| {
            for t in 0..threads {
                let oids: Vec<Oid> = (0..OBJECTS).map(|_| heap.base().create(a)).collect();
                let (heap, round) = (&heap, &round);
                s.spawn(move || {
                    for i in 0..ROUNDS * RECLAIM_EVERY as u64 {
                        let mut txn = heap.session(TxnId((t + 1) << 32 | i));
                        let oid = oids[i as usize % OBJECTS];
                        heap.write_at(&mut txn, oid, x, Value::Int(i as i64))
                            .unwrap();
                        heap.commit_session(txn).unwrap();
                        if (i + 1).is_multiple_of(RECLAIM_EVERY as u64) {
                            round.wait();
                        }
                    }
                });
            }
        });
        let m = heap.stats.snapshot();
        assert_eq!(m.commits, threads * ROUNDS * RECLAIM_EVERY as u64);
        assert_eq!(m.versions_adopted, 0, "a busy slot's queue was adopted");
        heap.gc();
        assert_eq!((heap.live_versions(), heap.live_chains()), (0, 0));
        assert!(slots_are_empty(&heap), "a slot kept a queue entry");
    }

    #[test]
    fn a_checkpoint_leaves_no_version_behind() {
        let (schema, _, a, x, _) = setup();
        let dir = std::env::temp_dir().join(format!("finecc-heap-ckpt-gc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = Arc::new(Database::new(schema));
        let wal = Arc::new(Wal::open(&dir, WalConfig::default()).unwrap());
        let heap = MvccHeap::with_wal(db, IsolationLevel::Snapshot, wal).unwrap();
        let oids: Vec<Oid> = (0..100).map(|_| heap.create(a)).collect();
        for (i, &oid) in oids.iter().enumerate() {
            let txn = TxnId(i as u64 + 1);
            heap.begin(txn);
            heap.write(txn, oid, x, Value::Int(i as i64)).unwrap();
            heap.commit(txn).unwrap();
        }
        heap.checkpoint().unwrap();
        assert_eq!(heap.live_versions(), 0);
        assert_eq!(heap.live_chains(), 0);
        assert!(slots_are_empty(&heap));
        drop(heap);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transactions_may_cross_threads() {
        // Begin on one thread, write on a second, commit (or abort) on
        // a third: the thread slot is a locality hint, nothing more.
        let (_, heap, a, x, y) = setup();
        let oids: Vec<Oid> = (0..40).map(|_| heap.base().create(a)).collect();
        fn hop<R: Send>(f: impl FnOnce() -> R + Send) -> R {
            std::thread::scope(|s| s.spawn(f).join().unwrap())
        }
        for (i, &oid) in oids.iter().enumerate() {
            let mut txn = hop(|| heap.session(TxnId(i as u64 + 1)));
            let txn = hop(|| {
                heap.write_at(&mut txn, oid, x, Value::Int(7)).unwrap();
                heap.write_at(&mut txn, oid, y, Value::Int(8)).unwrap();
                txn
            });
            hop(|| {
                if i % 2 == 0 {
                    heap.commit_session(txn).unwrap();
                } else {
                    assert_eq!(heap.abort_session(txn), 1);
                }
            });
        }
        for (i, &oid) in oids.iter().enumerate() {
            let want = if i % 2 == 0 { (7, 8) } else { (0, 0) };
            assert_eq!(heap.base().read(oid, x), Ok(Value::Int(want.0)));
            assert_eq!(heap.base().read(oid, y), Ok(Value::Int(want.1)));
            let snap = heap.snapshot();
            assert_eq!(snap.read(oid, x), Ok(Value::Int(want.0)));
        }
        heap.gc();
        let m = heap.stats.snapshot();
        assert_eq!((m.begins, m.commits, m.aborts), (40, 20, 20));
        assert_eq!(m.versions_created, 40);
        assert_eq!(m.versions_created, m.versions_reclaimed);
        assert_eq!((heap.live_versions(), heap.live_chains()), (0, 0));
        assert!(slots_are_empty(&heap));
    }

    #[test]
    fn readers_stay_consistent_under_merges_and_rollbacks() {
        // A writer churns one hot object while readers re-read it, at
        // both isolation levels. Every round first writes the poison
        // into both fields, then either rolls back or rewrites both
        // fields with the round number (in-place merges of its pending
        // record) and commits — so installs, merges, marks, rollbacks
        // and pruning all race the readers. Readers alternate
        // standalone snapshots and read-only transactions of their own
        // (at Serializable those also register SIREADs and step past
        // the writer's pending record). No read may see the poison, a
        // pair torn across one commit, or a snapshot older than one the
        // same reader saw before.
        const ROUNDS: i64 = 1_000;
        const READERS: usize = 3;
        const POISON: Value = Value::Int(-1);
        for isolation in [IsolationLevel::Snapshot, IsolationLevel::Serializable] {
            let (schema, _, a, x, y) = setup();
            let db = Arc::new(Database::new(schema));
            let heap = Arc::new(MvccHeap::with_isolation(db, isolation));
            let o = heap.base().create(a);
            let next_txn = AtomicU64::new(1);
            let readers_started = AtomicUsize::new(0);
            let writer_done = AtomicBool::new(false);
            let last_committed = std::thread::scope(|s| {
                let (heap, next_txn) = (&heap, &next_txn);
                let (readers_started, writer_done) = (&readers_started, &writer_done);
                let writer = s.spawn(move || {
                    while readers_started.load(Ordering::SeqCst) < READERS {
                        std::thread::yield_now();
                    }
                    let mut last_committed = 0;
                    for round in 1..=ROUNDS {
                        let mut t = heap.session(TxnId(next_txn.fetch_add(1, Ordering::SeqCst)));
                        heap.write_at(&mut t, o, x, POISON).unwrap();
                        heap.write_at(&mut t, o, y, POISON).unwrap();
                        if round % 2 == 0 {
                            assert_eq!(heap.abort_session(t), 1);
                            continue;
                        }
                        let merged = [(x, round), (y, round)]
                            .map(|(f, v)| heap.write_at(&mut t, o, f, Value::Int(v)).unwrap());
                        assert_eq!(merged, [WriteOutcome::MergedVersion; 2]);
                        match heap.commit_session(t) {
                            Ok(_) => last_committed = round,
                            // Refused and already rolled back.
                            Err(CommitError::Ssi(_)) => {}
                            Err(e) => panic!("round {round}: {e}"),
                        }
                    }
                    writer_done.store(true, Ordering::SeqCst);
                    last_committed
                });
                for r in 0..READERS {
                    s.spawn(move || {
                        let mut last = 0;
                        for i in r.. {
                            if i > r && writer_done.load(Ordering::SeqCst) {
                                break;
                            }
                            let (ts, vx, vy) = if i % 2 == 0 {
                                let snap = heap.snapshot();
                                (snap.ts(), snap.read(o, x), snap.read(o, y))
                            } else {
                                let t = TxnId(next_txn.fetch_add(1, Ordering::SeqCst));
                                let mut txn = heap.session(t);
                                let ts = txn.ts();
                                let pair =
                                    (heap.read_as(&mut txn, o, x), heap.read_as(&mut txn, o, y));
                                // Read-only: it commits at its snapshot, or
                                // validation refuses it and there is
                                // nothing to roll back.
                                let _ = heap.commit_session(txn);
                                (ts, pair.0, pair.1)
                            };
                            if i == r {
                                readers_started.fetch_add(1, Ordering::SeqCst);
                            }
                            let (vx, vy) = (vx.unwrap(), vy.unwrap());
                            assert_ne!(vx, POISON, "{isolation:?}: poison visible at {ts}");
                            assert_eq!(vx, vy, "{isolation:?}: torn pair at {ts}");
                            let Value::Int(v) = vx else {
                                panic!("unexpected value {vx:?}")
                            };
                            assert!(v >= last, "{isolation:?}: snapshot went back {last} -> {v}");
                            last = v;
                        }
                    });
                }
                writer.join().unwrap()
            });
            assert_eq!(heap.base().read(o, x), Ok(Value::Int(last_committed)));
            assert_eq!(heap.base().read(o, y), Ok(Value::Int(last_committed)));
            assert_eq!(heap.stats.snapshot().write_conflicts, 0);
            heap.gc();
            assert_eq!((heap.live_versions(), heap.live_chains()), (0, 0));
        }
    }

    /// A serializable heap over `setup`'s schema.
    fn serializable() -> (MvccHeap, ClassId, FieldId, FieldId) {
        let (schema, _, a, x, y) = setup();
        let db = Arc::new(Database::new(schema));
        let heap = MvccHeap::with_isolation(db, IsolationLevel::Serializable);
        (heap, a, x, y)
    }

    #[test]
    fn the_read_only_anomaly_is_refused() {
        // Fekete, O'Neil & O'Neil's read-only anomaly: T2 reads x and y,
        // T3 writes x and commits, T1 reads x and y and commits, T2
        // writes y. T1 sees T3's x but not T2's y, so T1 ──rw──▶ T2
        // ──rw──▶ T3 ──wr──▶ T1 is a cycle, although T1 writes nothing.
        // T1 begins while T2 is live on an older snapshot, so it is not
        // safe: validation must refuse one of T1 and T2.
        let (heap, a, x, y) = serializable();
        let o = heap.base().create(a);
        let mut t2 = heap.session(TxnId(2));
        assert_eq!(heap.read_as(&mut t2, o, x), Ok(Value::Int(0)));
        assert_eq!(heap.read_as(&mut t2, o, y), Ok(Value::Int(0)));
        let mut t3 = heap.session(TxnId(3));
        heap.write_at(&mut t3, o, x, Value::Int(1)).unwrap();
        heap.commit_session(t3).unwrap();
        let mut t1 = heap.session(TxnId(1));
        let t1_safe = t1.is_safe();
        assert_eq!(heap.read_as(&mut t1, o, x), Ok(Value::Int(1)));
        assert_eq!(heap.read_as(&mut t1, o, y), Ok(Value::Int(0)));
        let r1 = heap.commit_session(t1);
        heap.write_at(&mut t2, o, y, Value::Int(2)).unwrap();
        let r2 = heap.commit_session(t2);
        assert!(r1.is_err() || r2.is_err(), "both committed: {r1:?} {r2:?}");
        assert!(!t1_safe, "T2 holds an older snapshot");
    }

    #[test]
    fn conversion_records_the_edges_a_safe_snapshot_skipped() {
        // T begins safe and reads x, so no SIREAD tells W, which then
        // overwrites x and commits, about T. U, begun after W, reads x
        // (W's version) and y. When T writes y, its conversion must
        // register x and walk x's chain again, finding W; otherwise the
        // cycle U ──rw──▶ T ──rw──▶ W ──wr──▶ U is admitted.
        let (heap, a, x, y) = serializable();
        let o = heap.base().create(a);
        let mut t = heap.session(TxnId(1));
        assert!(t.is_safe());
        assert_eq!(heap.read_as(&mut t, o, x), Ok(Value::Int(0)));
        let mut w = heap.session(TxnId(2));
        heap.write_at(&mut w, o, x, Value::Int(1)).unwrap();
        heap.commit_session(w).unwrap();
        let mut u = heap.session(TxnId(3));
        assert!(!u.is_safe(), "T holds an older snapshot");
        assert_eq!(heap.read_as(&mut u, o, x), Ok(Value::Int(1)));
        assert_eq!(heap.read_as(&mut u, o, y), Ok(Value::Int(0)));
        heap.write_at(&mut t, o, y, Value::Int(2)).unwrap();
        let (rt, ru) = (heap.commit_session(t), heap.commit_session(u));
        assert!(rt.is_err() || ru.is_err(), "both committed: {rt:?} {ru:?}");
    }

    #[test]
    fn a_sequential_read_only_stream_runs_on_safe_snapshots() {
        // One session: nothing is ever live beside the transaction that
        // begins, so every snapshot is safe, and readers register no
        // SIREAD, record no edge and validate nothing.
        const TXNS: u64 = 1_000;
        let (heap, a, x, y) = serializable();
        let oids: Vec<Oid> = (0..10).map(|_| heap.base().create(a)).collect();
        heap.begin(TxnId(1));
        heap.write(TxnId(1), oids[0], x, Value::Int(7)).unwrap();
        heap.commit(TxnId(1)).unwrap();
        for i in 2..=TXNS {
            let mut txn = heap.session(TxnId(i));
            assert!(
                txn.is_safe(),
                "transaction {i} did not begin on a safe snapshot"
            );
            let o = oids[i as usize % oids.len()];
            let want = if o == oids[0] { 7 } else { 0 };
            assert_eq!(heap.read_as(&mut txn, o, x), Ok(Value::Int(want)));
            assert_eq!(heap.read_as(&mut txn, o, y), Ok(Value::Int(0)));
            heap.commit_session(txn).unwrap();
        }
        assert_eq!(siread_entries(&heap), (0, 0));
        let m = heap.stats.snapshot();
        assert_eq!((m.begins, m.commits), (TXNS, TXNS));
        assert_eq!(m.ssi_safe_snapshots, m.begins);
        assert_eq!((m.ssi_edges, m.ssi_aborts), (0, 0));
    }

    #[test]
    fn an_extent_read_registers_one_siread_per_class() {
        // What `send_all` does at Serializable: one class-granular SIREAD
        // per domain class, for its TAV fields, registered on the class
        // chain before the scan, then covered reads of every instance.
        const N: usize = 200;
        let (heap, a, x, y) = serializable();
        let oids: Vec<Oid> = (0..N).map(|_| heap.base().create(a)).collect();
        let mut scan = heap.session(TxnId(1));
        heap.record_class_read(&mut scan, a, [x]);
        for &o in &oids {
            assert_eq!(heap.read_covered(&scan, o, x), Ok(Value::Int(0)));
        }
        assert_eq!(
            siread_entries(&heap),
            (0, 1),
            "one class entry, none on an object's chain"
        );
        assert_eq!(heap.stats.snapshot().ssi_registrations, 1);
        let edges = || heap.stats.snapshot().ssi_edges;
        // A concurrent writer of a field outside the covered set meets
        // no reader; one of the covered field meets the scan once.
        let mut outside = heap.session(TxnId(2));
        heap.write_at(&mut outside, oids[7], y, Value::Int(1))
            .unwrap();
        assert_eq!(edges(), 0);
        let mut covered = heap.session(TxnId(3));
        heap.write_at(&mut covered, oids[8], x, Value::Int(1))
            .unwrap();
        assert_eq!(edges(), 1);
        // A read nothing covers still registers on its chain.
        heap.read_as(&mut scan, oids[0], y).unwrap();
        assert_eq!(siread_entries(&heap), (1, 1));
        for txn in [scan, outside, covered] {
            heap.commit_session(txn).unwrap();
        }
        // With every session ended, the sweep leaves nothing to probe.
        heap.gc();
        assert_eq!(siread_entries(&heap), (0, 0));
        assert_eq!(class_chains(&heap), 0);
        assert_eq!(heap.live_chains(), 0);
    }

    #[test]
    fn a_live_scans_class_chain_survives_gc() {
        let (heap, a, x, _) = serializable();
        let o = heap.base().create(a);
        let mut scan = heap.session(TxnId(1));
        heap.record_class_read(&mut scan, a, [x]);
        // Writers commit around the scan; the sweep prunes what it can,
        // which is not the live scan's entry.
        for t in 2..=4 {
            heap.begin(TxnId(t));
            heap.write(TxnId(t), o, x, Value::Int(t as i64)).unwrap();
            heap.commit(TxnId(t)).unwrap();
        }
        heap.gc();
        assert_eq!(siread_entries(&heap), (0, 1));
        assert_eq!(class_chains(&heap), 1);
        // Its entry still meets a writer of the class.
        let edges = heap.stats.snapshot().ssi_edges;
        heap.begin(TxnId(5));
        heap.write(TxnId(5), o, x, Value::Int(5)).unwrap();
        assert_eq!(heap.stats.snapshot().ssi_edges, edges + 1);
        heap.abort(TxnId(5));
        heap.commit_session(scan).unwrap();
    }

    #[test]
    fn a_committed_scans_class_chain_goes_with_its_slots_batches() {
        // No writer probes the class chain and nobody calls `gc()`: the
        // scan queued its class chain at commit, and the batches its slot
        // runs for the read-only commits that follow prune the entry and
        // unlink the chain.
        let (heap, a, x, _) = serializable();
        let o = heap.base().create(a);
        heap.begin(TxnId(1));
        heap.write(TxnId(1), o, x, Value::Int(1)).unwrap();
        heap.commit(TxnId(1)).unwrap();
        let mut scan = heap.session(TxnId(2));
        heap.record_class_read(&mut scan, a, [x]);
        heap.commit_session(scan).unwrap();
        assert_eq!((siread_entries(&heap).1, class_chains(&heap)), (1, 1));
        for t in 3..3 + RECLAIM_EVERY as u64 {
            let mut txn = heap.session(TxnId(t));
            heap.convert(&mut txn);
            assert_eq!(heap.read_as(&mut txn, o, x), Ok(Value::Int(1)));
            heap.commit_session(txn).unwrap();
        }
        assert_eq!((siread_entries(&heap).1, class_chains(&heap)), (0, 0));
        // A rollback drops a class entry, and its chain, too.
        let mut aborted = heap.session(TxnId(100));
        heap.record_class_read(&mut aborted, a, [x]);
        assert_eq!(class_chains(&heap), 1);
        heap.abort_session(aborted);
        assert_eq!((siread_entries(&heap).1, class_chains(&heap)), (0, 0));
    }

    #[test]
    fn a_writer_whose_probe_empties_a_class_chain_unlinks_it() {
        let (heap, a, x, _) = serializable();
        let o = heap.base().create(a);
        heap.begin(TxnId(1));
        heap.write(TxnId(1), o, x, Value::Int(1)).unwrap();
        heap.commit(TxnId(1)).unwrap();
        let mut scan = heap.session(TxnId(2));
        heap.record_class_read(&mut scan, a, [x]);
        heap.commit_session(scan).unwrap();
        // Once the horizon passes the scan's commit, the writer's probe
        // is the next touch of the class chain: it drops the entry, finds
        // the chain empty and unlinks it.
        heap.raise_horizon(heap.gc_horizon());
        assert_eq!(class_chains(&heap), 1);
        heap.begin(TxnId(3));
        heap.write(TxnId(3), o, x, Value::Int(3)).unwrap();
        assert_eq!(siread_entries(&heap).1, 0);
        assert_eq!(class_chains(&heap), 0, "writers stop probing");
        assert_eq!(heap.stats.snapshot().ssi_edges, 0);
        heap.commit(TxnId(3)).unwrap();
    }

    #[test]
    fn a_read_of_an_unknown_oid_registers_nothing() {
        // A refused read leaves no reader-only chain behind, and an OID
        // at the top of the space is never taken for a class chain.
        let (heap, _, x, _) = serializable();
        let mut reader = heap.session(TxnId(1));
        heap.convert(&mut reader);
        for oid in [Oid(999), Oid(u64::MAX)] {
            assert_eq!(
                heap.read_as(&mut reader, oid, x),
                Err(StoreError::UnknownOid(oid))
            );
        }
        heap.register_reads(&mut reader, Oid(u64::MAX), [x]);
        assert_eq!((heap.live_chains(), class_chains(&heap)), (0, 0));
        assert_eq!(heap.stats.snapshot().ssi_registrations, 0);
        heap.commit_session(reader).unwrap();
    }

    #[test]
    fn a_read_modify_write_loop_keeps_its_siread_list_short() {
        // One client, one object: each transaction's SIREAD entry is
        // dead weight once the next reclamation batch's horizon passes
        // its commit, and that batch's pruning of the chain, or the next
        // registration on it, drops it. A transaction's second read
        // widens its entry instead of adding one.
        let (schema, _, a, x, y) = setup();
        let db = Arc::new(Database::new(schema));
        let heap = MvccHeap::with_isolation(db, IsolationLevel::Serializable);
        let o = heap.base().create(a);
        let mut longest = 0;
        for i in 1..=10_000u64 {
            let t = TxnId(i);
            heap.begin(t);
            let Value::Int(v) = heap.read(t, o, x).unwrap() else {
                panic!("x is an int")
            };
            heap.write(t, o, x, Value::Int(v + 1)).unwrap();
            assert_eq!(heap.read(t, o, y), Ok(Value::Int(0)));
            longest = longest.max(siread_entries(&heap).0);
            heap.commit(t).unwrap();
        }
        assert_eq!(heap.base().read(o, x), Ok(Value::Int(10_000)));
        assert!(
            longest <= RECLAIM_EVERY as usize + 1,
            "the SIREAD list grew to {longest}"
        );
    }

    #[test]
    fn a_registration_and_an_install_meet_in_either_order() {
        // Registration and install serialize on the chain latch: a
        // writer that installed before a message registered is on the
        // chain when the message's walk steps past it, and one that
        // installs after finds the registration — unless it writes a
        // field outside the registered set.
        let (heap, a, x, y) = serializable();
        let (o1, o2) = (heap.base().create(a), heap.base().create(a));
        let edges = || heap.stats.snapshot().ssi_edges;
        let (mut r, mut w) = (heap.session(TxnId(1)), heap.session(TxnId(2)));
        heap.convert(&mut r);
        heap.write_at(&mut w, o1, x, Value::Int(1)).unwrap();
        heap.register_reads(&mut r, o1, [x, y]);
        assert_eq!(edges(), 0, "a registration records no edge");
        assert_eq!(heap.read_covered(&r, o1, x), Ok(Value::Int(0)));
        assert_eq!(edges(), 1, "the walk stepped past the install");
        heap.register_reads(&mut r, o2, [x]);
        heap.write_at(&mut w, o2, y, Value::Int(2)).unwrap();
        assert_eq!(edges(), 1, "y is outside the registered set");
        heap.write_at(&mut w, o2, x, Value::Int(2)).unwrap();
        assert_eq!(edges(), 2, "the install found the registration");
        assert_eq!(heap.stats.snapshot().ssi_registrations, 2);
        // R ──rw──▶ W twice over: one flag each, so both commit.
        heap.commit_session(r).unwrap();
        heap.commit_session(w).unwrap();
    }

    #[test]
    fn a_marked_but_unpublished_writer_is_refused_and_invisible() {
        // Stop a commit between its mark and its publication: the
        // writer's records read as committed at a timestamp above every
        // registered snapshot.
        let (_, heap, a, x, y) = setup();
        let o = heap.base().create(a);
        let early = heap.snapshot();
        let (mut writer, mut rival) = (heap.session(TxnId(1)), heap.session(TxnId(2)));
        heap.write_at(&mut writer, o, x, Value::Int(7)).unwrap();
        heap.write_at(&mut writer, o, y, Value::Int(8)).unwrap();
        let cell = writer.cell.clone().expect("a writer has a cell");
        let ts = heap.clock.fetch_add(1, Ordering::Relaxed) + 1;
        cell.mark(ts);
        let late = heap.snapshot();
        assert!(late.ts() < ts, "the mark published nothing");
        // `admit`: committed after the rival's snapshot, not pending.
        let refused = heap.write_at(&mut rival, o, x, Value::Int(9));
        let pending_in = None;
        let conflict = MvccConflict {
            oid: o,
            field: x,
            pending_in,
        };
        assert_eq!(refused, Err(MvccWriteError::Conflict(conflict)));
        // `reconstruct`: invisible at every registered snapshot.
        for f in [x, y] {
            assert_eq!(early.read(o, f), Ok(Value::Int(0)));
            assert_eq!(late.read(o, f), Ok(Value::Int(0)));
            assert_eq!(heap.read_as(&mut rival, o, f), Ok(Value::Int(0)));
        }
        // Publication is all it takes to make the records visible.
        heap.watermark.publish(ts);
        assert_eq!(heap.snapshot().read(o, x), Ok(Value::Int(7)));
        assert_eq!(early.read(o, x), Ok(Value::Int(0)));
    }

    #[test]
    fn a_read_only_serializable_stream_keeps_its_sireads_bounded() {
        // No writer ever commits, so no writer's reclamation batch ever
        // runs: a read-only commit that registered SIREADs must queue
        // their chains and keep the batch cadence itself. Each
        // transaction here would begin safe and register nothing, so it
        // is converted first — as the
        // runtime converts before a message whose access vector writes,
        // such as a withdrawal that then finds too little to withdraw.
        const OBJECTS: usize = 1_000;
        const TXNS: u64 = 20_000;
        let (schema, _, a, x, _) = setup();
        let db = Arc::new(Database::new(schema));
        let heap = MvccHeap::with_isolation(db, IsolationLevel::Serializable);
        let oids: Vec<Oid> = (0..OBJECTS).map(|_| heap.base().create(a)).collect();
        let mut next = rng(20_000);
        let mut most = 0;
        for i in 1..=TXNS {
            let mut t = heap.session(TxnId(i));
            heap.convert(&mut t);
            let o = oids[next() as usize % OBJECTS];
            assert_eq!(heap.read_as(&mut t, o, x), heap.read_as(&mut t, o, x));
            heap.commit_session(t).unwrap();
            most = most.max(siread_entries(&heap).0);
        }
        assert!(
            most < RECLAIM_EVERY as usize,
            "{most} SIREAD entries after {TXNS} read-only transactions"
        );
        // The chains only those readers kept went with them, no `gc()`
        // needed; a rollback drops its own entries itself.
        let left = heap.live_chains();
        assert!(left < RECLAIM_EVERY as usize, "{left} reader-only chains");
        let mut aborted = heap.session(TxnId(TXNS + 1));
        heap.convert(&mut aborted);
        heap.register_reads(&mut aborted, heap.base().create(a), [x]);
        assert_eq!(heap.live_chains(), left + 1);
        heap.abort_session(aborted);
        assert_eq!(heap.live_chains(), left);
        heap.gc();
        assert_eq!((heap.live_chains(), siread_entries(&heap)), (0, (0, 0)));
    }
}

//! The versioned heap: chains, transaction registry, commit/abort,
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
//! * **Reads hold the shard latch shared.** [`MvccHeap::read_as`] walks
//!   the chain under it and, on a miss (no record covers the field),
//!   reads the base store under it too. Records carry **both before-
//!   and after-images** per field, so a chain hit is answered from the
//!   chain alone. A miss is answered correctly from the base because
//!   every install, write-through and rollback restore of a field
//!   happens under the same latch held exclusively: while a reader
//!   holds it shared, a field no record covers has no pending writer,
//!   and the base holds its latest committed value.
//! * **Writes hold it exclusive.** [`MvccHeap::write_at`] runs
//!   first-updater-wins, the base write-through (whose previous value
//!   is the before-image) and the install in one critical section. A
//!   transaction's further write to an object it already wrote edits
//!   its own record **in place**: the field is added, or its after-image
//!   replaced.
//! * **Commits flip under the shared latch.** A record's `commit_ts` is
//!   atomic, and only its owner stores to it, so the flip runs beside
//!   readers walking the same chain (see `VersionRecord` for why a torn
//!   observation is harmless).
//! * **Publication is a lock-free ring** (the crate-private `watermark`
//!   module): an ordered watermark advances `last_committed` only
//!   across a contiguous flipped prefix, with CAS-claimed in-flight
//!   slots. A timestamp drawn by a transaction that then fails SSI
//!   validation is published as a *skip* (nothing was flipped at it),
//!   keeping the prefix dense.
//! * **Registries are striped**: the transaction table by `TxnId` and
//!   the snapshot-epoch table by the registering thread's slot. The
//!   `MvccScheme` additionally caches each transaction's snapshot
//!   timestamp in its session, so steady-state reads and writes skip
//!   the transaction registry entirely (the registry is touched once
//!   per transaction at begin/commit plus once per *first* write of an
//!   object).
//!
//! ## Latch order
//!
//! 1. **One chain shard**, shared or exclusive, never two at once.
//!    Commit and rollback visit their write set one shard at a time.
//! 2. Under a chain shard, leaves only: a **base-store shard** (the
//!    miss read, the write-through, the rollback restore) and, on a
//!    transaction's first write of an object, its **txn stripe** (the
//!    object joins the write set in the same critical section as the
//!    install, so a transaction the heap does not know is refused
//!    before anything is installed). Begin, commit and abort take a txn
//!    stripe alone and drop it before any chain shard.
//! 3. The **epoch shard** and the **reclaim slot** (see *Reclamation*)
//!    are leaves taken under nothing.
//!
//! The watermark has no latch. SSI-tracker latches (flag stripes,
//! SIREAD shards — see [`crate::ssi`]) are never nested with heap
//! latches: reads register SIREADs *before* taking the shard latch and
//! record edges *after* dropping it; writes scan the SIREAD registry
//! after dropping the exclusive latch; commit validates before the
//! first flip.
//!
//! ## Reclamation
//!
//! Nothing on the transaction path ever visits every shard; versions
//! are reclaimed by the threads that made them, a few at a time.
//!
//! * **Who queues.** A writer commit appends `(commit_ts, oid)` for
//!   each object of its write set to the *reclaim queue* of the
//!   committing thread's slot — a cache-line-padded mutex. The slot is
//!   picked by the thread index `thread_slot` deals out and is a
//!   **locality hint, never a correctness assumption**: threads share a
//!   slot when there are more threads than slots, and a transaction
//!   begun on one thread, written on a second and committed on a third
//!   is just as correct — every structure below is guarded by its own
//!   mutex.
//! * **Who prunes.** Every `RECLAIM_EVERY`-th writer commit of a slot
//!   runs one bounded batch (the median commit does no reclamation at
//!   all): it computes [`MvccHeap::gc_horizon`], pops the queue's head
//!   entries committed at or below it, and prunes exactly those chains
//!   in place — one exclusive shard latch per popped entry, dropping the
//!   records at or below the horizon and the chain itself once it
//!   empties. A batch with budget to spare spends it on one other slot
//!   (rotating), so a slot whose thread went idle does not strand
//!   versions. At [`IsolationLevel::Serializable`] every batch also
//!   hands its horizon to the SSI tracker, whose SIREAD lists prune
//!   below it, and every `SSI_PURGE_EVERY`-th runs the tracker's purge.
//! * **Why a stale horizon is safe.** A horizon, once computed, is a
//!   valid pruning bound forever: later registrations pin the
//!   watermark, which only grows (see `EpochTable`). Pruning with an
//!   older horizon merely prunes less.
//! * **Freeing is dropping.** No reader holds a reference into a chain
//!   without its shard latch, so a pruned or rolled-back record is
//!   freed where it is removed: there is no grace period to wait out.
//! * **The full sweep.** [`MvccHeap::gc`] is the explicit
//!   stop-and-sweep for tests and maintenance: every chain of every
//!   shard, every slot's queue. [`MvccHeap::checkpoint`] ends with one;
//!   the commit path never calls it.
//!
//! ## Observability probes
//!
//! With an attached `finecc_obs::Obs` handle the commit path times
//! four consecutive segments into latency histograms — *ts draw* (the
//! clock `fetch_add` plus SSI validation), *WAL ack* (redo assembly,
//! append, and at `WalSync` the group-commit ack), *chain flip* (the
//! atomic `commit_ts` stores), and *publish* (watermark publish plus
//! the in-order visibility wait) — plus the commit total. The probes
//! take no lock, and contention attribution (ww conflicts, SSI aborts)
//! runs after every heap latch is dropped; the registry stripe it takes
//! is a leaf. The **read path carries no probe**: no histogram, no
//! registry touch, no branch on the handle.

use crate::ssi::{SsiTracker, SsiVerdict};
use crate::stats::MvccStats;
use crate::watermark::Watermark;
use crate::{IsolationLevel, SsiConflict, Ts, TS_PENDING};
use finecc_model::{ClassId, FieldId, MulMap, Oid, TxnId, Value};
use finecc_obs::{ContentionKind, ObjKey, Obs, Phase};
use finecc_store::{Database, FieldImage, StoreError};
use finecc_wal::{CheckpointData, DurabilityLevel, InstanceImage, RecoveryInfo, Wal, WalConfig};
use parking_lot::{Mutex, RwLock};
use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

const SHARD_COUNT: usize = 64;

/// How many mutexes the transaction registry is striped over.
const TXN_STRIPES: usize = 64;

/// How many mutexes the snapshot-epoch table is sharded over.
const EPOCH_SHARDS: usize = 16;

/// How many reclaim slots threads are dealt over.
const RECLAIM_SLOTS: usize = 32;

/// Every how many writer commits of one slot a reclamation batch runs.
const RECLAIM_EVERY: u32 = 8;

/// The least number of queue entries a batch may prune; a slot that
/// queued more than half of this since its last batch gets twice what
/// it queued, so batches outpace any write-set size.
const RECLAIM_BATCH: usize = 32;

/// Every how many writer commits of one slot the SSI tracker is purged
/// (a multiple of [`RECLAIM_EVERY`]: the purge rides a batch).
const SSI_PURGE_EVERY: u32 = 64;

/// This thread's slot index, dealt round-robin on first use; callers
/// reduce it modulo their own stripe count (epoch shards, reclaim
/// slots). It is a **locality hint**, never a correctness assumption:
/// any thread may use any stripe, and threads share one whenever there
/// are more threads than stripes.
fn thread_slot() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: Cell<Option<usize>> = const { Cell::new(None) };
    }
    SLOT.with(|s| match s.get() {
        Some(i) => i,
        None => {
            let i = NEXT.fetch_add(1, Ordering::Relaxed);
            s.set(Some(i));
            i
        }
    })
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

/// What [`MvccHeap::write`] did.
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
/// exclusively. `commit_ts` is atomic because the commit flip runs
/// under the *shared* latch, beside readers. A torn observation is
/// benign by construction: a concurrent reader that loads the old
/// value sees [`TS_PENDING`] (invisible: not its own record) and one
/// that loads the new value sees a timestamp above its snapshot
/// (invisible: fresh commits publish above every registered snapshot) —
/// the visibility verdict is identical either way.
#[derive(Debug)]
struct VersionRecord {
    writer: TxnId,
    /// Commit timestamp; [`TS_PENDING`] until the writer commits.
    commit_ts: AtomicU64,
    /// `(field, before, after)` for every field this writer modified.
    writes: Vec<FieldWrite>,
}

impl VersionRecord {
    fn pending(writer: TxnId, write: FieldWrite) -> VersionRecord {
        VersionRecord {
            writer,
            commit_ts: AtomicU64::new(TS_PENDING),
            writes: vec![write],
        }
    }

    #[inline]
    fn ts(&self) -> Ts {
        self.commit_ts.load(Ordering::SeqCst)
    }

    fn is_pending_of(&self, txn: TxnId) -> bool {
        self.writer == txn && self.ts() == TS_PENDING
    }

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
/// * a chain in a shard's map is never empty.
#[derive(Debug, Default)]
struct Chain {
    records: Vec<VersionRecord>,
}

impl Chain {
    /// The position of the pending record `txn` owns here. Only its
    /// owner installs, flips or removes it, so the owner's commit or
    /// rollback always finds it.
    fn own_at(&self, txn: TxnId) -> usize {
        self.records
            .iter()
            .position(|r| r.is_pending_of(txn))
            .expect("pending record owned by its transaction")
    }

    /// The pending record `txn` owns here (see [`Chain::own_at`]).
    fn own(&self, txn: TxnId) -> &VersionRecord {
        &self.records[self.own_at(txn)]
    }

    /// Drops the records no snapshot can read past any more — those
    /// committed at or below `horizon` — and returns how many.
    fn prune(&mut self, horizon: Ts) -> usize {
        let len = self.records.len();
        self.records.retain(|r| {
            let cts = r.ts();
            cts == TS_PENDING || cts > horizon
        });
        len - self.records.len()
    }
}

/// Walks `records` for `field` as of snapshot `ts` (seeing `as_txn`'s
/// pending writes). Returns the reconstructed value by reference —
/// `None` is a chain miss (no record touches the field). When
/// `overwriters` is given, it collects the writers of invisible
/// versions stepped past (the read side of SSI's rw-antidependencies).
fn reconstruct<'a>(
    records: &'a [VersionRecord],
    ts: Ts,
    as_txn: Option<TxnId>,
    field: FieldId,
    mut overwriters: Option<&mut Vec<TxnId>>,
) -> Option<&'a Value> {
    let mut oldest_invisible: Option<&'a Value> = None;
    for rec in records {
        let Some(w) = rec.write_of(field) else {
            continue;
        };
        let cts = rec.ts();
        let visible = if cts == TS_PENDING {
            as_txn == Some(rec.writer)
        } else {
            cts <= ts
        };
        if visible {
            // Records of one field are newest-first: the first visible
            // one holds the field's value at this snapshot.
            return Some(&w.after);
        }
        if let Some(ovw) = overwriters.as_deref_mut() {
            ovw.push(rec.writer);
        }
        oldest_invisible = Some(&w.before);
    }
    // No visible version: the value before the oldest invisible writer
    // (or a miss if nobody ever wrote the field here).
    oldest_invisible
}

/// First-updater-wins admission of `txn`'s write of `field` over an
/// object's `records`, at field granularity: another live transaction
/// with a pending version of the field, or a version of it committed
/// after `snapshot_ts`, wins. (A record flipped to its commit timestamp
/// but not yet published by the watermark behaves exactly like a
/// committed-after-snapshot record here, which is the correct verdict:
/// it can only publish above this transaction's snapshot.) Admitted,
/// returns the position of `txn`'s own pending record, if it has one.
fn admit(
    records: &[VersionRecord],
    snapshot_ts: Ts,
    txn: TxnId,
    oid: Oid,
    field: FieldId,
) -> Result<Option<usize>, MvccConflict> {
    let mut own = None;
    for (i, rec) in records.iter().enumerate() {
        let cts = rec.ts();
        if rec.writer == txn {
            if cts == TS_PENDING {
                own = Some(i);
            }
            continue;
        }
        if rec.write_of(field).is_none() {
            continue;
        }
        let pending_in = if cts == TS_PENDING {
            Some(rec.writer)
        } else if cts > snapshot_ts {
            None
        } else {
            continue;
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

struct TxnState {
    /// The registered snapshot epoch; `epoch.ts` is the snapshot
    /// timestamp.
    epoch: EpochHandle,
    /// Objects this transaction installed pending versions on, sorted
    /// and duplicate-free (write sets are a handful of objects, so
    /// commit walks this as is — nothing to hash, collect or sort).
    /// Only the transaction's own operations touch it, under the
    /// registry stripe that holds it.
    write_set: Vec<Oid>,
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
#[derive(Debug, Default)]
#[repr(align(128))]
struct ReclaimSlot {
    state: Mutex<ReclaimState>,
    /// The slot this one's next under-budget batch helps (a rotating
    /// cursor; a hint, so plain relaxed loads and stores).
    help_next: AtomicUsize,
}

#[cfg(test)]
thread_local! {
    /// Shard-latch acquisitions made by reclamation batches on this
    /// thread.
    static RECLAIM_LATCHES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
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
/// release goes by the handle's shard whichever thread calls it). The
/// minimum key across shards is the GC horizon.
///
/// Registration reads the watermark **under its shard's lock**, and
/// [`MvccHeap::gc_horizon`] reads the watermark *before* scanning the
/// shards (one at a time). That closes the registration/GC race without
/// a global lock: if the scan misses a concurrent registration, the
/// scan of that shard completed before the registration's critical
/// section, so the registration's watermark read happened after the
/// horizon's watermark bound was read — by monotonicity its pinned
/// timestamp is at or above the bound, hence at or above the horizon,
/// and the versions it can demand were not reclaimable.
#[derive(Debug)]
struct EpochTable {
    shards: Box<[Mutex<BTreeMap<Ts, usize>>]>,
}

impl EpochTable {
    fn new() -> EpochTable {
        EpochTable {
            shards: (0..EPOCH_SHARDS)
                .map(|_| Mutex::new(BTreeMap::new()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
        }
    }

    /// Atomically reads the current watermark and registers it as a
    /// live epoch in the calling thread's shard.
    fn register(&self, watermark: &Watermark) -> EpochHandle {
        let shard = thread_slot() % self.shards.len();
        let mut map = self.shards[shard].lock();
        let ts = watermark.get();
        *map.entry(ts).or_insert(0) += 1;
        EpochHandle {
            shard: shard as u32,
            ts,
        }
    }

    fn unregister(&self, h: EpochHandle) {
        let mut map = self.shards[h.shard as usize].lock();
        match map.get_mut(&h.ts) {
            Some(n) if *n > 1 => *n -= 1,
            Some(_) => {
                map.remove(&h.ts);
            }
            None => debug_assert!(false, "unregistering unknown epoch {}", h.ts),
        }
    }

    /// The minimum registered snapshot timestamp, scanning shards one
    /// at a time (never holding two epoch locks). May miss an entry
    /// registered during the scan; see the type-level doc for why that
    /// is safe given the caller's watermark bound.
    fn min_active(&self) -> Option<Ts> {
        self.shards
            .iter()
            .filter_map(|s| s.lock().keys().next().copied())
            .min()
    }
}

/// The multi-version heap over a base [`Database`].
pub struct MvccHeap {
    base: Arc<Database>,
    shards: Box<[ChainShard]>,
    /// Transaction registry, striped by `TxnId`.
    txns: Box<[Mutex<MulMap<TxnId, TxnState>>]>,
    /// Snapshot registry; the minimum active entry is the GC horizon.
    epochs: EpochTable,
    /// The commit-timestamp allocator. Drawing a timestamp is one
    /// `fetch_add`; visibility is governed by the watermark, not the
    /// clock.
    clock: AtomicU64,
    /// Lock-free ordered publication: `last_committed` advances only
    /// across a contiguous flipped prefix.
    watermark: Watermark,
    /// Reclaim queues, one per thread slot.
    reclaim: Box<[ReclaimSlot]>,
    /// The attached write-ahead log (`None` at
    /// [`DurabilityLevel::None`] — the pre-durability behavior, with
    /// zero additional work anywhere). Appends happen only on the
    /// commit path and on extent events; the snapshot read path never
    /// touches it.
    wal: Option<Arc<Wal>>,
    /// The rw-antidependency tracker; `Some` iff the heap runs at
    /// [`IsolationLevel::Serializable`].
    ssi: Option<SsiTracker>,
    /// Observability: commit-phase histograms and per-object contention
    /// attribution. Disabled by default (one branch per probe; the read
    /// path records nothing per read either way — see the module docs).
    obs: Arc<Obs>,
    /// Live counters.
    pub stats: MvccStats,
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
        let heap = MvccHeap::build(base, isolation, Some(wal), base_ts);
        if !heap.wal.as_ref().expect("just attached").has_checkpoint()? {
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
        let txns = (0..TXN_STRIPES)
            .map(|_| Mutex::new(MulMap::default()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        MvccHeap {
            base,
            shards: (0..SHARD_COUNT).map(|_| ChainShard::default()).collect(),
            txns,
            epochs: EpochTable::new(),
            clock: AtomicU64::new(base_ts),
            watermark: Watermark::with_base(base_ts),
            reclaim: (0..RECLAIM_SLOTS).map(|_| ReclaimSlot::default()).collect(),
            wal,
            ssi: match isolation {
                IsolationLevel::Snapshot => None,
                IsolationLevel::Serializable => Some(SsiTracker::new()),
            },
            obs: Arc::new(Obs::disabled()),
            stats: MvccStats::default(),
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
        if self.ssi.is_some() {
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
    /// only above the returned timestamp. Requires an attached
    /// write-ahead log.
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
        let wal = self
            .wal
            .as_ref()
            .expect("checkpoint requires an attached write-ahead log");
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
                    match self.read_as(ckpt_ts, None, oid, f) {
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
        &self.shards[(oid.raw() as usize) % SHARD_COUNT]
    }

    #[inline]
    fn txn_stripe(&self, txn: TxnId) -> &Mutex<MulMap<TxnId, TxnState>> {
        &self.txns[(txn.raw() as usize) % TXN_STRIPES]
    }

    /// The latest fully published commit timestamp (the watermark).
    pub fn current_ts(&self) -> Ts {
        self.watermark.get()
    }

    /// Registers a transaction, assigning it a snapshot of the latest
    /// published state. Returns the snapshot timestamp.
    pub fn begin(&self, txn: TxnId) -> Ts {
        let epoch = self.epochs.register(&self.watermark);
        let ts = epoch.ts;
        let prev = self.txn_stripe(txn).lock().insert(
            txn,
            TxnState {
                epoch,
                write_set: Vec::new(),
            },
        );
        debug_assert!(prev.is_none(), "transaction {txn} already registered");
        if let Some(ssi) = &self.ssi {
            ssi.register(txn);
        }
        self.stats.begins.bump();
        ts
    }

    /// The registered snapshot timestamp of `txn`. Callers on a hot
    /// path should cache the value returned by [`MvccHeap::begin`]
    /// instead (the scheme's transaction session does), so steady-state
    /// operations skip the registry stripe.
    pub fn snapshot_ts(&self, txn: TxnId) -> Option<Ts> {
        self.txn_stripe(txn).lock().get(&txn).map(|s| s.epoch.ts)
    }

    /// The number of objects `txn` has written so far.
    pub fn write_set_len(&self, txn: TxnId) -> usize {
        self.txn_stripe(txn)
            .lock()
            .get(&txn)
            .map_or(0, |s| s.write_set.len())
    }

    /// Reconstructs `field` of `oid` as of snapshot `ts`, seeing the
    /// pending writes of `as_txn` (pass `None` for a pure snapshot read).
    ///
    /// Takes no logical lock: the object's chain shard is held
    /// *shared* — alongside any number of readers and committers
    /// flipping records — across the chain walk and, on a chain miss,
    /// the one base-store read; exactly one [`Value`] is cloned. At
    /// [`IsolationLevel::Serializable`] a transactional read
    /// additionally registers a SIREAD entry (before the walk) and
    /// records an outgoing rw-antidependency for every invisible
    /// overwrite of the field it steps past — still without blocking
    /// on anyone's transaction.
    ///
    /// Deletion caveat: [`Database::delete`] bypasses the version layer
    /// (like creation — see the ROADMAP's versioned-extents item), so a
    /// read of a *deleted* object answers from whatever it consults: a
    /// chain hit returns the field's value as of the snapshot (the
    /// object existed there), while a chain miss surfaces the base
    /// store's [`StoreError::UnknownOid`]. Until extents are versioned,
    /// don't use read errors to probe liveness of versioned objects.
    pub fn read_as(
        &self,
        ts: Ts,
        as_txn: Option<TxnId>,
        oid: Oid,
        field: FieldId,
    ) -> Result<Value, StoreError> {
        let ssi = match (&self.ssi, as_txn) {
            (Some(ssi), Some(txn)) => {
                // Register BEFORE walking the chain: a concurrent writer
                // either installed its record already (the walk sees it
                // and marks the edge here) or will scan the registry
                // after installing (and marks it there).
                ssi.record_read(txn, oid, field);
                Some((ssi, txn))
            }
            _ => None,
        };
        // Overwriters are only worth collecting when an SSI tracker
        // will consume them — the pure-snapshot path allocates nothing.
        let mut overwriters: Vec<TxnId> = Vec::new();
        let collect = ssi.is_some().then_some(&mut overwriters);
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
        if let Some((ssi, txn)) = ssi {
            let mut edges = 0;
            for &writer in &overwriters {
                edges += ssi.read_edge(txn, writer);
            }
            if edges > 0 {
                self.stats.ssi_edges.add(edges);
            }
        }
        self.stats.snapshot_reads.bump();
        Ok(value)
    }

    /// Snapshot read through a registered transaction (sees its own
    /// pending writes).
    pub fn read(&self, txn: TxnId, oid: Oid, field: FieldId) -> Result<Value, StoreError> {
        let ts = self
            .snapshot_ts(txn)
            .unwrap_or_else(|| panic!("transaction {txn} is not registered with the mvcc heap"));
        self.read_as(ts, Some(txn), oid, field)
    }

    /// Writes `field` of `oid` in transaction `txn`, resolving the
    /// snapshot timestamp from the registry (a `txn` the heap does not
    /// know is refused with [`MvccWriteError::UnknownTxn`]). Hot paths
    /// that already know it (the scheme session caches it at begin) use
    /// [`MvccHeap::write_at`] and skip the registry stripe.
    pub fn write(
        &self,
        txn: TxnId,
        oid: Oid,
        field: FieldId,
        value: Value,
    ) -> Result<WriteOutcome, MvccWriteError> {
        let snapshot_ts = self
            .snapshot_ts(txn)
            .ok_or(MvccWriteError::UnknownTxn(txn))?;
        self.write_at(snapshot_ts, txn, oid, field, value)
    }

    /// Writes `field` of `oid` in transaction `txn`, whose registered
    /// snapshot timestamp the caller supplies. Under the object's
    /// chain-shard latch held exclusively: first-updater-wins admission,
    /// the write-through to the base store (its previous value is the
    /// before-image), then the install — a new pending record on the
    /// object's first write, an in-place edit of the transaction's own
    /// record after that. Returns what happened to the chain.
    ///
    /// A refused write leaves nothing behind: a conflict or a store
    /// error is raised before anything changes, and a `txn` the heap
    /// does not know ([`MvccWriteError::UnknownTxn`]) has its
    /// write-through restored before the latch is released.
    pub fn write_at(
        &self,
        snapshot_ts: Ts,
        txn: TxnId,
        oid: Oid,
        field: FieldId,
        value: Value,
    ) -> Result<WriteOutcome, MvccWriteError> {
        // Chaos scheduling decision strictly before the latch: a parked
        // latch holder would deadlock the token scheduler.
        finecc_chaos::yield_point(finecc_chaos::Site::WriteInstall);
        // Type/domain validation runs before any latch is taken.
        self.base.check_write(field, &value)?;
        let mut chains = self.shard(oid).chains.write();
        let admitted = chains.get(&oid).map_or(Ok(None), |chain| {
            admit(&chain.records, snapshot_ts, txn, oid, field)
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
        if own.is_none() && !self.enlist(txn, oid) {
            let _ = self.base.write_unchecked(oid, field, before);
            return Err(MvccWriteError::UnknownTxn(txn));
        }
        let chain = chains.entry(oid).or_default();
        let outcome = match own {
            Some(i) => {
                chain.records[i].set(field, before, value);
                WriteOutcome::MergedVersion
            }
            None => {
                let write = FieldWrite {
                    field,
                    before,
                    after: value,
                };
                chain.records.insert(0, VersionRecord::pending(txn, write));
                WriteOutcome::NewVersion
            }
        };
        let chain_len = chain.records.len() as u64;
        drop(chains);
        if outcome == WriteOutcome::NewVersion {
            self.stats.versions_created.bump();
        }
        self.stats.sample_chain_len(chain_len);
        // SSI: scan SIREAD entries AFTER the pending version is
        // installed (see `read_as` for why the order closes the race)
        // and record an incoming rw edge per concurrent reader.
        if let Some(ssi) = &self.ssi {
            let edges = ssi.write_edges(txn, snapshot_ts, oid, field);
            if edges > 0 {
                self.stats.ssi_edges.add(edges);
            }
        }
        Ok(outcome)
    }

    /// Adds `oid` to `txn`'s write set, or returns `false` when the heap
    /// does not know `txn`. Called under `oid`'s chain-shard latch (the
    /// txn stripe is a leaf there), so the write set and the chain agree
    /// at every instant a commit or abort can observe.
    fn enlist(&self, txn: TxnId, oid: Oid) -> bool {
        let mut stripe = self.txn_stripe(txn).lock();
        let Some(state) = stripe.get_mut(&txn) else {
            return false;
        };
        if let Err(at) = state.write_set.binary_search(&oid) {
            state.write_set.insert(at, oid);
        }
        true
    }

    /// Attributes an SSI dangerous-structure abort: to the smallest
    /// OID in the pivot's write set (deterministic, and exactly one
    /// attribution per abort so registry totals match `ssi_aborts`),
    /// or unattributed for a read-only victim.
    fn note_ssi_abort(&self, state: &TxnState) {
        let key = state
            .write_set
            .first()
            .map_or(ObjKey::Unattributed, |o| ObjKey::Instance(o.0));
        self.obs.contend(key, ContentionKind::SsiAbort);
    }

    /// Commits `txn`: draws the next commit timestamp from the atomic
    /// clock, appends the redo images of its records to the log (when
    /// one is attached), flips every pending record of the transaction
    /// by storing the timestamp into its atomic `commit_ts` — under
    /// each object's chain shard held *shared*, one object at a time —
    /// then publishes the timestamp through the lock-free ordered
    /// watermark. Concurrent snapshots cannot observe a half-flipped
    /// transaction: the records become visible only once the watermark
    /// publishes the timestamp, and the watermark publishes it only
    /// after every record is flipped. Returns the commit timestamp, and
    /// returns only once the timestamp is **published**: any snapshot
    /// taken after `commit` returns — including this session's next
    /// transaction — observes the commit (read-your-own-commits across
    /// transactions; the wait covers only the bounded publication lag
    /// behind concurrent committers holding earlier timestamps). A
    /// **read-only** transaction serializes at (and returns) its
    /// snapshot timestamp without drawing a timestamp or taking a chain
    /// latch at all.
    ///
    /// At [`IsolationLevel::Snapshot`] commit is infallible by
    /// construction — all conflicts were detected at write time. At
    /// [`IsolationLevel::Serializable`] the commit additionally runs
    /// dangerous-structure validation; on failure the transaction is
    /// fully rolled back (as by [`MvccHeap::abort`]), its drawn
    /// timestamp is published as a *skip* (keeping the watermark prefix
    /// contiguous), and the [`SsiConflict`] is returned — the caller
    /// retries on a fresh snapshot, like a first-updater-wins victim.
    ///
    /// A `txn` the heap does not know (never begun, or already ended)
    /// is refused with [`CommitError::UnknownTxn`] and touches nothing.
    pub fn commit(&self, txn: TxnId) -> Result<Ts, CommitError> {
        // The stripe guard is a temporary, dropped at the end of this
        // statement: it must never be held into a chain latch, under
        // which a first write takes a stripe (see *Latch order*).
        let state = self
            .txn_stripe(txn)
            .lock()
            .remove(&txn)
            .ok_or(CommitError::UnknownTxn(txn))?;

        if state.write_set.is_empty() {
            // Read-only transactions still validate: their reads can
            // complete a dangerous structure around a committed pivot
            // (the SI read-only anomaly, Fekete et al. 2004).
            if let Some(ssi) = &self.ssi {
                if let SsiVerdict::Abort(c) = ssi.validate_and_commit(txn, state.epoch.ts) {
                    self.note_ssi_abort(&state);
                    self.stats.ssi_aborts.bump();
                    self.discard(txn, &state);
                    return Err(c.into());
                }
            }
            self.epochs.unregister(state.epoch);
            self.stats.commits.bump();
            return Ok(state.epoch.ts);
        }

        finecc_chaos::yield_point(finecc_chaos::Site::CommitTsDraw);

        // Commit-phase probes (no-ops on a disabled handle — not even
        // a clock read). Laps sit strictly *between* the steps they
        // time, never inside a latch: the timer itself takes nothing.
        let mut phases = self.obs.phase_timer();
        let commit_ts = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(ssi) = &self.ssi {
            // Validation and commit publication are one atomic step per
            // transaction in the tracker; the timestamp becomes visible
            // to snapshots only below, after every record is flipped.
            if let SsiVerdict::Abort(c) = ssi.validate_and_commit(txn, commit_ts) {
                self.note_ssi_abort(&state);
                self.stats.ssi_aborts.bump();
                self.refuse_commit(txn, &state, commit_ts);
                return Err(c.into());
            }
        }
        phases.lap(Phase::CommitTsDraw);
        // The write set's sorted order is determinism, not a
        // lock-ordering requirement: one shard latch is held at a time.
        let oids = &state.write_set;
        // Durable before visible: the record hits the log — and, at
        // WalSync, the disk (group-commit ack) — strictly before any
        // record flips and strictly before the watermark publishes the
        // timestamp. No latch is held across the append or the wait;
        // concurrent committers keep drawing, appending and sharing
        // fsyncs, and the ordered watermark serializes visibility
        // afterwards exactly as without a log.
        if let Some(wal) = &self.wal {
            let mut writes = Vec::with_capacity(oids.len());
            for &oid in oids {
                let chains = self.shard(oid).chains.read();
                let own = chains.get(&oid).expect("written chain exists").own(txn);
                writes.extend(own.writes.iter().map(|w| FieldImage {
                    oid,
                    field: w.field,
                    value: w.after.clone(),
                }));
            }
            finecc_chaos::yield_point(finecc_chaos::Site::CommitWalAppend);
            if let Err(e) = wal.append_commit(commit_ts, txn, &writes) {
                // Graceful degradation: the record never reached the
                // log, so the commit must not happen. The SSI tracker
                // has already recorded the transaction as committed at
                // `commit_ts`; leaving that in place is conservative —
                // it can only produce false-positive aborts of rivals,
                // never a missed conflict.
                self.refuse_commit(txn, &state, commit_ts);
                return Err(CommitError::LogIo(e.to_string()));
            }
        }
        phases.lap(Phase::CommitWalAck);
        // Flip this transaction's pending records to the commit
        // timestamp: an atomic store per record, each under its shard
        // held shared.
        for &oid in oids {
            finecc_chaos::yield_point(finecc_chaos::Site::CommitFlipStep);
            let chains = self.shard(oid).chains.read();
            chains
                .get(&oid)
                .expect("written chain exists")
                .own(txn)
                .commit_ts
                .store(commit_ts, Ordering::SeqCst);
        }
        phases.lap(Phase::CommitFlip);
        finecc_chaos::yield_point(finecc_chaos::Site::CommitPublish);
        if self.watermark.publish(commit_ts) {
            self.stats.watermark_waits.bump();
        }
        // A returned commit is a *visible* commit: wait out the (tiny,
        // bounded) publication lag behind concurrent committers with
        // earlier timestamps, so this session's next snapshot — and
        // anyone it signals — observes the commit. Without this, a
        // session's own next write could be refused as
        // "committed after snapshot" by its previous transaction.
        // Deliberate trade-off: commit *returns* re-serialize in
        // timestamp order (head-of-line behind the slowest in-flight
        // committer), but only the return waits — flips, validation
        // and publication all ran without waiting on anyone above.
        // Relaxing this needs a per-session visibility floor, which
        // needs a session abstraction the heap does not have (see the
        // ROADMAP). The chaos fault plane can switch this barrier off
        // (`Site::CommitPublishWait` + `FaultKind::Disable`): the
        // explorer's known-bug regression re-creates the pre-barrier
        // engine and shows the lost-own-write anomaly it allowed.
        if !finecc_chaos::disabled_at(finecc_chaos::Site::CommitPublishWait) {
            self.watermark.wait_published(commit_ts);
        }
        phases.lap(Phase::CommitPublish);
        phases.finish(Phase::CommitTotal);

        self.epochs.unregister(state.epoch);
        self.stats.commits.bump();
        self.queue_reclaim(commit_ts, &state.write_set);
        Ok(commit_ts)
    }

    /// The tail of a writer commit refused after its timestamp was
    /// drawn (SSI validation, a failed redo append). The timestamp must
    /// still reach the watermark — as a *skip* — or the contiguous
    /// prefix would stall forever. Nothing was flipped at `commit_ts`,
    /// so a snapshot there observes exactly the state at
    /// `commit_ts - 1`. The skip is logged before it is published so
    /// recovery restores the hole, but the append never waits for a
    /// sync and is best-effort even on a degraded log: a lost skip is
    /// harmless (any later durable commit covers the frame; a reused
    /// trailing skip timestamp flipped nothing), so a failed append
    /// must not escalate a refusal into a panic. Then the transaction
    /// is rolled back and ended as by [`MvccHeap::abort`]. Like a
    /// commit, the refusal returns only once its skip is published, so
    /// each thread has at most one drawn timestamp in flight: a refused
    /// caller retrying at once cannot lap the watermark ring while an
    /// earlier committer is descheduled between its draw and its flips.
    fn refuse_commit(&self, txn: TxnId, state: &TxnState, commit_ts: Ts) {
        if let Some(wal) = &self.wal {
            let _ = wal.append_skip(commit_ts);
        }
        if self.watermark.publish(commit_ts) {
            self.stats.watermark_waits.bump();
        }
        self.stats.ts_skips.bump();
        self.discard(txn, state);
        if !finecc_chaos::disabled_at(finecc_chaos::Site::CommitPublishWait) {
            self.watermark.wait_published(commit_ts);
        }
    }

    /// Rolls `txn`'s writes back and ends it (counted in `aborts`).
    /// Returns the number of objects rolled back.
    fn discard(&self, txn: TxnId, state: &TxnState) -> usize {
        let rolled_back = self.rollback_writes(txn, state);
        // Abort-discarded records count as reclaimed, so created and
        // reclaimed balance once GC has drained the committed history.
        self.stats.versions_reclaimed.add(rolled_back as u64);
        self.epochs.unregister(state.epoch);
        self.stats.aborts.bump();
        rolled_back
    }

    /// Removes every pending record `txn` owns and restores its
    /// before-images into the base store, each object under its shard
    /// held exclusively — so no reader observes the record gone and
    /// the base not yet restored, or the reverse. No other live
    /// transaction wrote these fields (it would have conflicted), so
    /// restoring is safe; an instance deleted concurrently has nothing
    /// to restore (same contract as `UndoLog::rollback`). Returns the
    /// number of objects rolled back.
    fn rollback_writes(&self, txn: TxnId, state: &TxnState) -> usize {
        for &oid in &state.write_set {
            let mut chains = self.shard(oid).chains.write();
            let chain = chains.get_mut(&oid).expect("written chain exists");
            let at = chain.own_at(txn);
            for w in chain.records.remove(at).writes {
                let _ = self.base.write_unchecked(oid, w.field, w.before);
            }
            if chain.records.is_empty() {
                chains.remove(&oid);
            }
        }
        state.write_set.len()
    }

    /// Aborts `txn`: restores every before-image of its pending records
    /// into the base store and removes the records. Returns the number of
    /// objects rolled back. Aborting a `txn` the heap does not know
    /// (never begun, or already ended) rolls nothing back and returns 0;
    /// the call is still counted in `aborts`.
    pub fn abort(&self, txn: TxnId) -> usize {
        // As in `commit`: the stripe guard dies with this statement,
        // before `discard` takes any chain latch.
        let Some(state) = self.txn_stripe(txn).lock().remove(&txn) else {
            self.stats.aborts.bump();
            return 0;
        };
        if let Some(ssi) = &self.ssi {
            ssi.forget(txn);
        }
        self.discard(txn, &state)
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

    /// The tail of a writer commit: queues the write set for pruning in
    /// the committing thread's slot and, every [`RECLAIM_EVERY`]-th
    /// commit of that slot, runs one reclamation batch.
    fn queue_reclaim(&self, commit_ts: Ts, write_set: &[Oid]) {
        let slot = self.my_slot();
        let commits = {
            let mut state = self.reclaim[slot].state.lock();
            state
                .queue
                .extend(write_set.iter().map(|&oid| (commit_ts, oid)));
            state.queued += write_set.len();
            state.commits = state.commits.wrapping_add(1);
            state.commits
        };
        if commits.is_multiple_of(RECLAIM_EVERY) {
            self.reclaim_batch(slot, commits.is_multiple_of(SSI_PURGE_EVERY));
        }
    }

    /// One bounded reclamation batch on behalf of `slot`: prunes the
    /// chains its queue's due head entries name (one exclusive shard
    /// latch each) and helps one other slot with what budget is left.
    /// Never visits all shards or slots.
    fn reclaim_batch(&self, slot: usize, purge_ssi: bool) {
        // The reclamation decision point — outside every latch.
        finecc_chaos::yield_point(finecc_chaos::Site::Reclaim);
        let horizon = self.gc_horizon();
        if let Some(ssi) = &self.ssi {
            // Every batch lets SIREAD lists prune below the new horizon;
            // the full tracker purge rides every `SSI_PURGE_EVERY`-th.
            if purge_ssi {
                ssi.purge(horizon);
            } else {
                ssi.raise_horizon(horizon);
            }
        }
        let mut due = Vec::new();
        let own = &self.reclaim[slot];
        let budget = {
            let mut state = own.state.lock();
            let budget = RECLAIM_BATCH.max(2 * std::mem::take(&mut state.queued));
            state.pop_due(horizon, budget, &mut due);
            budget
        };
        if due.len() < budget {
            // An idle thread's slot must not strand its versions: spend
            // the spare budget on another slot, and move on to the next
            // one once this one has nothing more due. (A slot that is
            // locked right now is in use and needs no help; the cursor
            // passing over `slot` itself finds nothing left to pop.)
            let helped = own.help_next.load(Ordering::Relaxed) % RECLAIM_SLOTS;
            if let Some(mut other) = self.reclaim[helped].state.try_lock() {
                other.pop_due(horizon, budget - due.len(), &mut due);
            }
            if due.len() < budget {
                own.help_next.store(helped + 1, Ordering::Relaxed);
            }
        }
        let mut reclaimed = 0;
        for &oid in &due {
            #[cfg(test)]
            RECLAIM_LATCHES.with(|n| n.set(n.get() + 1));
            let mut chains = self.shard(oid).chains.write();
            // An earlier entry of the same object may have pruned the
            // whole chain already.
            if let Some(chain) = chains.get_mut(&oid) {
                reclaimed += chain.prune(horizon);
                if chain.records.is_empty() {
                    chains.remove(&oid);
                }
            }
        }
        if reclaimed > 0 {
            self.stats.versions_reclaimed.add(reclaimed as u64);
        }
    }

    /// The explicit **full sweep** (tests, maintenance — the commit
    /// path never runs it; see the module docs' *Reclamation* section):
    /// drops every version record, of every chain of every shard,
    /// whose commit timestamp is at or below the horizon — no active or
    /// future snapshot can ever need to reconstruct *past* such a
    /// record — and drains every slot's reclaim queue of the entries
    /// that covers. At [`IsolationLevel::Serializable`] the same horizon
    /// also retires SSI flag entries and SIREAD registrations (a
    /// transaction committed at or below the horizon cannot be
    /// concurrent with any live or future one). Returns the number of
    /// records reclaimed.
    pub fn gc(&self) -> usize {
        // The reclamation decision point — outside every latch.
        finecc_chaos::yield_point(finecc_chaos::Site::Reclaim);
        let horizon = self.gc_horizon();
        if let Some(ssi) = &self.ssi {
            ssi.purge(horizon);
        }
        let mut reclaimed = 0;
        for shard in self.shards.iter() {
            shard.chains.write().retain(|_, chain| {
                reclaimed += chain.prune(horizon);
                !chain.records.is_empty()
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

    /// Number of objects with a live chain (diagnostics; approximate
    /// under concurrency, like [`MvccHeap::live_versions`]).
    pub fn live_chains(&self) -> usize {
        self.shards.iter().map(|s| s.chains.read().len()).sum()
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
    /// The transaction is not registered with the heap — never begun,
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

/// Why [`MvccHeap::commit`] refused a transaction. On the first two
/// variants the transaction is fully rolled back (as by [`MvccHeap::abort`])
/// and its drawn timestamp is published as a *skip*, keeping the
/// watermark prefix dense — callers retry on a fresh snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommitError {
    /// Serializable validation found a dangerous structure.
    Ssi(SsiConflict),
    /// The write-ahead log could not make the commit durable (append
    /// or fsync failure). Nothing became visible; the failure may be
    /// transient (the log degrades batch by batch), so the error is
    /// retryable.
    LogIo(String),
    /// The transaction is not registered with the heap — never begun,
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
        let o1 = heap.base().create(a);
        let o2 = heap.base().create(a);
        heap.begin(TxnId(1));
        heap.write(TxnId(1), o1, x, Value::Int(1)).unwrap();
        heap.write(TxnId(1), o2, x, Value::Int(2)).unwrap();
        let snap_before = heap.snapshot();
        let ts = heap.commit(TxnId(1)).unwrap();
        let snap_after = heap.snapshot();
        assert!(snap_after.ts() >= ts);
        // The pre-commit snapshot sees neither write; the post-commit
        // snapshot sees both.
        assert_eq!(snap_before.read(o1, x), Ok(Value::Int(0)));
        assert_eq!(snap_before.read(o2, x), Ok(Value::Int(0)));
        assert_eq!(snap_after.read(o1, x), Ok(Value::Int(1)));
        assert_eq!(snap_after.read(o2, x), Ok(Value::Int(2)));
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
        assert_eq!(heap.write_set_len(TxnId(1)), 0);
        heap.abort(TxnId(1));
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
                        let t = TxnId((i as u64) << 32 | round | 1 << 63);
                        heap.begin(t);
                        heap.write(t, oid, x, Value::Int(round as i64)).unwrap();
                        heap.commit(t).unwrap();
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

    /// Storm width: `FINECC_TEST_THREADS` (default 8; CI runs 16).
    fn test_threads() -> usize {
        std::env::var("FINECC_TEST_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(8)
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

    fn reclaim_latches() -> u64 {
        RECLAIM_LATCHES.with(|n| n.get())
    }

    /// Every reclaim slot's queue is empty.
    fn slots_are_empty(heap: &MvccHeap) -> bool {
        heap.reclaim
            .iter()
            .all(|slot| slot.state.lock().queue.is_empty())
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
            heap.write_at(0, stranger, o, x, Value::Int(5)),
            Err(MvccWriteError::UnknownTxn(stranger))
        );
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
    fn reclamation_never_stops_the_world_on_the_commit_path() {
        // 10,000 single-object commits over `threads` disjoint object
        // sets: no commit call may take more reclamation latches than
        // one batch's budget (never a sweep of all 64 shards), and the
        // whole run takes at most two per committed object.
        const COMMITS: u64 = 10_000;
        const OBJECTS: usize = 64;
        let (_, heap, a, x, _) = setup();
        let threads = test_threads() as u64;
        let per_thread = COMMITS / threads;
        let total_latches = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..threads {
                let oids: Vec<Oid> = (0..OBJECTS).map(|_| heap.base().create(a)).collect();
                let (heap, total_latches) = (&heap, &total_latches);
                s.spawn(move || {
                    let mut next = rng(0x5eed ^ t);
                    let start = reclaim_latches();
                    for i in 0..per_thread {
                        let txn = TxnId(t << 32 | (i + 1));
                        heap.begin(txn);
                        let oid = oids[next() as usize % OBJECTS];
                        heap.write(txn, oid, x, Value::Int(i as i64)).unwrap();
                        let before = reclaim_latches();
                        heap.commit(txn).unwrap();
                        let taken = reclaim_latches() - before;
                        assert!(
                            taken <= RECLAIM_BATCH as u64,
                            "one commit took {taken} reclamation latches"
                        );
                    }
                    total_latches.fetch_add(reclaim_latches() - start, Ordering::Relaxed);
                });
            }
        });
        let committed = per_thread * threads;
        assert_eq!(heap.stats.snapshot().commits, committed);
        let total = total_latches.load(Ordering::Relaxed);
        assert!(
            total <= 2 * committed,
            "{total} latches for {committed} objects"
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
            let txn = TxnId(1 << 40 | i as u64);
            heap.begin(txn);
            heap.write(txn, oid, x, Value::Int(i as i64)).unwrap();
            heap.commit(txn).unwrap();
        }
        let pinned = heap.snapshot();
        let writers = (test_threads() / 2).max(1) as u64;
        let readers = (test_threads() / 2).max(1) as u64;
        let writers_left = AtomicU64::new(writers);
        std::thread::scope(|s| {
            for w in 0..writers {
                let (heap, oids, writers_left) = (&heap, &oids, &writers_left);
                s.spawn(move || {
                    let mut next = rng(0xabcd ^ w);
                    for i in 0..TXNS_PER_WRITER {
                        let txn = TxnId((w + 1) << 32 | i);
                        heap.begin(txn);
                        // One or two objects, both fields of the first:
                        // new versions, merges, and — when two writers
                        // meet — first-updater-wins aborts.
                        let first = oids[next() as usize % OBJECTS];
                        let second = oids[next() as usize % OBJECTS];
                        let v = Value::Int(-(i as i64) - 1);
                        let ok = heap.write(txn, first, x, v.clone()).is_ok()
                            && heap.write(txn, first, y, v.clone()).is_ok()
                            && (i % 2 == 0 || heap.write(txn, second, x, v).is_ok());
                        if ok {
                            heap.commit(txn).unwrap();
                        } else {
                            heap.abort(txn);
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
        // Thread A commits 1,000 single-object transactions under an
        // open snapshot — so its own batches can prune none of them —
        // and stops for good.
        let pinned = heap.snapshot();
        std::thread::scope(|s| {
            let heap = &heap;
            s.spawn(move || {
                for (i, &oid) in theirs.iter().enumerate() {
                    let txn = TxnId(1 << 32 | i as u64);
                    heap.begin(txn);
                    heap.write(txn, oid, x, Value::Int(1)).unwrap();
                    heap.commit(txn).unwrap();
                }
            });
        });
        assert_eq!(heap.live_versions() as u64, STRANDED);
        drop(pinned);
        // Thread B keeps committing on other objects; nobody calls
        // `gc()`. Its batches' spare budget drains A's queue.
        std::thread::scope(|s| {
            let heap = &heap;
            s.spawn(move || {
                for i in 0..4_000u64 {
                    let txn = TxnId(2 << 32 | i);
                    heap.begin(txn);
                    heap.write(txn, mine[i as usize % mine.len()], x, Value::Int(2))
                        .unwrap();
                    heap.commit(txn).unwrap();
                }
            });
        });
        let left = heap.live_versions();
        assert!(
            left <= RECLAIM_EVERY as usize,
            "{left} versions stranded in an idle thread's slot"
        );
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
        let hop = |f: &(dyn Fn() + Sync)| std::thread::scope(|s| s.spawn(f).join().unwrap());
        for (i, &oid) in oids.iter().enumerate() {
            let txn = TxnId(i as u64 + 1);
            hop(&|| {
                heap.begin(txn);
            });
            hop(&|| {
                heap.write(txn, oid, x, Value::Int(7)).unwrap();
                heap.write(txn, oid, y, Value::Int(8)).unwrap();
            });
            hop(&|| {
                if i % 2 == 0 {
                    heap.commit(txn).unwrap();
                } else {
                    assert_eq!(heap.abort(txn), 1);
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
        // record) and commits — so installs, merges, flips, rollbacks
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
                        let t = TxnId(next_txn.fetch_add(1, Ordering::SeqCst));
                        heap.begin(t);
                        heap.write(t, o, x, POISON).unwrap();
                        heap.write(t, o, y, POISON).unwrap();
                        if round % 2 == 0 {
                            assert_eq!(heap.abort(t), 1);
                            continue;
                        }
                        let merged = [(x, round), (y, round)]
                            .map(|(f, v)| heap.write(t, o, f, Value::Int(v)).unwrap());
                        assert_eq!(merged, [WriteOutcome::MergedVersion; 2]);
                        match heap.commit(t) {
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
                                let ts = heap.begin(t);
                                let pair = (
                                    heap.read_as(ts, Some(t), o, x),
                                    heap.read_as(ts, Some(t), o, y),
                                );
                                // Read-only: it commits at its snapshot, or
                                // validation refuses it and there is
                                // nothing to roll back.
                                let _ = heap.commit(t);
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

    #[test]
    fn ssi_verdicts_of_a_fixed_interleaving() {
        // Four sessions interleaved step by step on one thread, by a
        // seeded stream: read-only transactions, read-modify-writes and
        // write-skew pairs over three fields, with voluntary aborts,
        // first-updater-wins losers and SSI refusals. Which SIREAD
        // entries the tracker keeps must not move a single verdict, so
        // the counts are pinned exactly.
        #[derive(Clone, Copy)]
        enum Op {
            Read(usize),
            Write(usize),
            Commit,
            Abort,
        }
        let (schema, _, a, x, y) = setup();
        let db = Arc::new(Database::new(schema));
        let heap = MvccHeap::with_isolation(db, IsolationLevel::Serializable);
        let (o1, o2) = (heap.base().create(a), heap.base().create(a));
        let fields = [(o1, x), (o1, y), (o2, x)];
        let mut next = rng(1993);
        let mut next_txn = 0;
        // Per session: the running transaction and its remaining ops.
        let mut sessions: Vec<Option<(TxnId, Vec<Op>)>> = vec![None; 4];
        let mut outcomes = [0u64; 3]; // committed, refused, abandoned
        for step in 0..4_000i64 {
            let s = (next() % 4) as usize;
            let Some((txn, ops)) = &mut sessions[s] else {
                next_txn += 1;
                let txn = TxnId(next_txn);
                heap.begin(txn);
                let (f, g) = ((next() % 3) as usize, (next() % 3) as usize);
                let end = if next().is_multiple_of(10) {
                    Op::Abort
                } else {
                    Op::Commit
                };
                // Stored reversed: ops are popped from the back.
                let ops = match next() % 3 {
                    0 => vec![end, Op::Read(g), Op::Read(f)],
                    1 => vec![end, Op::Write(f), Op::Read(f)],
                    _ => vec![end, Op::Write(g), Op::Read(g), Op::Read(f)],
                };
                sessions[s] = Some((txn, ops));
                continue;
            };
            let txn = *txn;
            let done = match ops.pop().expect("a session ends at commit or abort") {
                Op::Read(f) => {
                    let (o, field) = fields[f];
                    heap.read(txn, o, field).unwrap();
                    false
                }
                Op::Write(f) => {
                    let (o, field) = fields[f];
                    match heap.write(txn, o, field, Value::Int(step)) {
                        Ok(_) => false,
                        Err(MvccWriteError::Conflict(_)) => {
                            heap.abort(txn);
                            outcomes[2] += 1;
                            true
                        }
                        Err(e) => panic!("{e}"),
                    }
                }
                Op::Commit => {
                    match heap.commit(txn) {
                        Ok(_) => outcomes[0] += 1,
                        Err(CommitError::Ssi(_)) => outcomes[1] += 1,
                        Err(e) => panic!("{e}"),
                    }
                    true
                }
                Op::Abort => {
                    heap.abort(txn);
                    outcomes[2] += 1;
                    true
                }
            };
            if done {
                sessions[s] = None;
            }
        }
        assert_eq!(outcomes, [604, 66, 300]);
        let m = heap.stats.snapshot();
        assert_eq!((m.ssi_edges, m.ssi_aborts), (732, 66));
        assert_eq!(m.write_conflicts, 218);
    }

    #[test]
    fn a_read_modify_write_loop_keeps_its_siread_list_short() {
        // One client, one field: each transaction's SIREAD entry is dead
        // weight once the next reclamation batch's horizon passes its
        // commit, and the next read or write of the field drops it —
        // the list never waits for the tracker's periodic purge.
        let (schema, _, a, x, _) = setup();
        let db = Arc::new(Database::new(schema));
        let heap = MvccHeap::with_isolation(db, IsolationLevel::Serializable);
        let o = heap.base().create(a);
        let ssi = heap.ssi.as_ref().expect("a serializable heap tracks reads");
        let mut longest = 0;
        for i in 1..=10_000u64 {
            let t = TxnId(i);
            heap.begin(t);
            let Value::Int(v) = heap.read(t, o, x).unwrap() else {
                panic!("x is an int")
            };
            heap.write(t, o, x, Value::Int(v + 1)).unwrap();
            longest = longest.max(ssi.siread_len(o, x));
            heap.commit(t).unwrap();
        }
        assert_eq!(heap.base().read(o, x), Ok(Value::Int(10_000)));
        assert!(
            longest <= RECLAIM_EVERY as usize + 1,
            "the SIREAD list grew to {longest}"
        );
    }
}

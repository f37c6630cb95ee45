//! The versioned heap: chains, transaction registry, commit/abort,
//! reclamation, and — at [`IsolationLevel::Serializable`] — SSI conflict
//! tracking.
//!
//! # Concurrency architecture
//!
//! The heap is latch-free where it matters most: **snapshot reads take
//! zero latches end to end** on the chain-hit path, and neither
//! timestamp allocation nor publication holds a mutex anywhere.
//!
//! * **Reads are latch-free.** Chains are published copy-on-write
//!   (the crate-private `cow` module): each per-OID record list is an immutable
//!   snapshot behind an atomic pointer, and the per-shard OID→chain map
//!   is published the same way. A reader pins the reclamation clock
//!   (two atomic counter ops — no mutex, no spinning), loads the two
//!   pointers, and walks the records by reference. Records carry
//!   **both before- and after-images** per field, so a chain hit is
//!   answered entirely from the chain — the base store is not touched.
//!   A chain miss (no record covers the field) pays one base
//!   `RwLock::read`, then a **seqlock-style stability check**: the
//!   read is kept only if both publication pointers (bucket map and
//!   chain) are bit-identical across it. Writers publish their record
//!   *before* the base write-through and unpublish it *after* the
//!   rollback restore, so any racing install **or** unpublish — either
//!   of which could expose an uncommitted write-through — moves a
//!   pointer and forces a retry (counted in `read_retries`; pointer
//!   equality is sound because nodes retired after the first look
//!   cannot be freed, let alone address-reused, under the reader's
//!   pin).
//! * **Commits flip without latches.** A committer stores its commit
//!   timestamp into each of its records' atomic `commit_ts` — record
//!   identity is stable across concurrent snapshot swaps (snapshots
//!   share records by `Arc`), so no chain latch is needed to flip.
//! * **Publication is a lock-free ring** (the crate-private `watermark` module): an
//!   ordered watermark advances `last_committed` only across a
//!   contiguous flipped prefix, with CAS-claimed in-flight slots
//!   instead of the earlier pending-set mutex. A timestamp drawn by a
//!   transaction that then fails SSI validation is published as a
//!   *skip* (nothing was flipped at it), keeping the prefix dense.
//! * **Writers keep a per-shard writer latch** — installs, merges,
//!   rollbacks, and pruning of one shard serialize on it, but readers
//!   never take it and committers flipping records do not either.
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
//! The writer-side latches that remain are acquired in this order,
//! each dropped before the next class is taken, with one documented
//! exception — the rollback path and the write path perform base-store
//! operations *under* the owning chain-shard writer latch (install
//! ordering and before-image restoration demand it):
//!
//! 1. a **txn stripe** (registry bookkeeping; held briefly, never
//!    across a chain shard);
//! 2. **chain-shard writer latches**, one at a time (readers and
//!    commit-time flips never take these);
//! 3. an **epoch shard** (snapshot registration/release);
//! 4. a **reclaim slot** (see *Reclamation*) — a leaf: nothing is ever
//!    acquired under it, and it is the one latch that may be taken
//!    while a chain-shard writer latch is held.
//!
//! The watermark no longer appears in the latch order at all — it has
//! no latch. SSI-tracker latches (flag stripes, SIREAD shards — see
//! [`crate::ssi`]) are never nested with heap latches: reads register
//! SIREADs *before* the chain walk and record edges *after* it; writes
//! scan the SIREAD registry after releasing the shard writer latch;
//! commit validates before the first flip. (At
//! [`IsolationLevel::Serializable`] the read path therefore still pays
//! the tracker's stripe latches — inherent to Cahill-style SSI, as in
//! PostgreSQL's SIREAD locks; the latch-free guarantee is about the
//! *heap*, and holds unconditionally at
//! [`IsolationLevel::Snapshot`].)
//!
//! ## Reclamation
//!
//! Nothing on the transaction path ever visits every shard or every
//! bucket; versions are reclaimed by the threads that made them, a few
//! at a time.
//!
//! * **Who queues.** A writer commit appends `(commit_ts, oid)` for
//!   each object of its write set to the *reclaim queue* of the
//!   committing thread's slot — a cache-line-padded mutex holding that
//!   queue and the slot's *retire bin*. The slot is picked by the
//!   thread index `Rcu::pin` already deals out and is a **locality
//!   hint, never a correctness assumption**: threads share a slot when
//!   there are more threads than slots, and a transaction begun on one
//!   thread, written on a second and committed on a third is just as
//!   correct — every structure below is guarded by its own mutex.
//! * **Who prunes.** Every `RECLAIM_EVERY`-th writer commit of a slot
//!   runs one bounded batch (the median commit does no reclamation at
//!   all): it computes [`MvccHeap::gc_horizon`], pops the queue's head
//!   entries committed at or below it, and prunes exactly those chains
//!   — one shard writer latch per popped entry, dropping the records
//!   at or below the horizon and removing the chain's anchor from its
//!   bucket map when the chain empties. A batch with budget to spare
//!   spends it on one other slot (rotating), so a slot whose thread
//!   went idle does not strand versions.
//! * **Why a stale horizon is safe.** A horizon, once computed, is a
//!   valid pruning bound forever: later registrations pin the
//!   watermark, which only grows (see `EpochTable`). Pruning with an
//!   older horizon merely prunes less.
//! * **Who frees.** Every copy-on-write snapshot a thread swaps out —
//!   in `write_at`, in rollback, in pruning — is retired into the
//!   *caller's* slot bin, tagged with the reclamation era, and freed by
//!   a later batch of that slot once `Rcu::try_advance` reports the
//!   era unreachable — **after every latch is dropped**. The memory a
//!   thread allocates is, as a rule, freed by that same thread. Bins
//!   are era-ordered because a node is tagged under the shard latch
//!   that serialises its cell and the era only grows; batches therefore
//!   pop from the front and stop at the first node still in its grace
//!   period (an out-of-order node — two threads sharing a slot — only
//!   waits a batch longer, each node's own tag is what is checked).
//! * **The full sweep.** [`MvccHeap::gc`] is the explicit
//!   stop-and-sweep for tests and maintenance: every chain of every
//!   bucket, every slot's queue and bin. [`MvccHeap::checkpoint`] ends
//!   with one; the commit path never calls it.
//!
//! ## Observability probes
//!
//! With an attached `finecc_obs::Obs` handle the commit path times
//! four consecutive segments into latency histograms — *ts draw* (the
//! clock `fetch_add` plus SSI validation), *WAL ack* (redo assembly,
//! append, and at `WalSync` the group-commit ack), *chain flip* (the
//! atomic `commit_ts` stores), and *publish* (watermark publish plus
//! the in-order visibility wait) — plus the commit total. Every lap
//! sits **between** the latch-free steps it times: the probes take no
//! lock and run outside the txn-stripe and chain-shard latches.
//! Contention attribution fires only where the matching counter
//! already bumps (ww conflicts under the shard writer latch, read
//! retries and SSI aborts outside every latch); the registry stripe it
//! takes is a leaf lock nested inside nothing. The latch-free **read
//! path carries no probe** — no histogram, no registry touch, no
//! branch on the handle on a clean read; only its (rare) retry path
//! attributes the retry.

use crate::cow::{thread_slot, CowCell, Pin, Rcu, Retired};
use crate::ssi::{SsiTracker, SsiVerdict};
use crate::stats::MvccStats;
use crate::watermark::Watermark;
use crate::{IsolationLevel, SsiConflict, Ts, TS_PENDING};
use finecc_model::{ClassId, FieldId, MulMap, Oid, TxnId, Value};
use finecc_obs::{ContentionKind, ObjKey, Obs, Phase};
use finecc_store::{Database, FieldImage, StoreError};
use finecc_wal::{CheckpointData, DurabilityLevel, InstanceImage, RecoveryInfo, Wal, WalConfig};
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

const SHARD_COUNT: usize = 64;

/// How many mutexes the transaction registry is striped over.
const TXN_STRIPES: usize = 64;

/// How many mutexes the snapshot-epoch table is sharded over.
const EPOCH_SHARDS: usize = 16;

/// How many reclaim slots (queue + retire bin) threads are dealt over.
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
    /// The transaction already owned the chain head; the record was
    /// republished with the field added (or its after-image updated).
    MergedVersion,
}

/// One field mutation inside a version record: the value before the
/// writer's first write of the field (the undo image, what invisible-
/// version readers reconstruct) and the value after its latest write
/// (the redo image, what makes chain hits self-contained — readers of
/// a visible version never consult the base store).
#[derive(Clone, Debug)]
struct FieldWrite {
    field: FieldId,
    before: Value,
    after: Value,
}

/// One version record: everything needed to read *at* its writer
/// (after-images) or *past* its writer (before-images).
///
/// Immutable once published, with one deliberate exception: `commit_ts`
/// is atomic, so the commit flip is a plain store through the shared
/// record — no copy, no latch. A torn observation is benign by
/// construction: a concurrent reader that loads the old value sees
/// [`TS_PENDING`] (invisible: not its own record) and one that loads
/// the new value sees a timestamp above its snapshot (invisible: fresh
/// commits publish above every registered snapshot) — the visibility
/// verdict is identical either way.
#[derive(Debug)]
struct VersionRecord {
    writer: TxnId,
    /// Commit timestamp; [`TS_PENDING`] until the writer commits.
    commit_ts: AtomicU64,
    /// `(field, before, after)` for every field this writer modified.
    writes: Vec<FieldWrite>,
}

impl VersionRecord {
    fn pending(writer: TxnId, writes: Vec<FieldWrite>) -> VersionRecord {
        VersionRecord {
            writer,
            commit_ts: AtomicU64::new(TS_PENDING),
            writes,
        }
    }

    #[inline]
    fn ts(&self) -> Ts {
        self.commit_ts.load(Ordering::SeqCst)
    }

    fn write_of(&self, field: FieldId) -> Option<&FieldWrite> {
        self.writes.iter().find(|w| w.field == field)
    }
}

/// A published chain snapshot: records ordered by *installation*,
/// newest first, shared by `Arc` across successive snapshots.
/// Invariants:
///
/// * each transaction owns at most one record per chain (republished on
///   repeated writes);
/// * two records that touch a common field are ordered consistently by
///   install position *and* commit timestamp (field-level
///   first-updater-wins forbids concurrently pending writers of one
///   field), so the newest *visible* record of a field carries its
///   value at the snapshot, and the oldest *invisible* one carries the
///   value before any invisible writer;
/// * the base store holds every field's newest (possibly pending)
///   value — maintained for non-MVCC consumers and chain-miss reads,
///   never consulted on a chain hit.
#[derive(Debug, Default)]
struct Chain {
    records: Vec<Arc<VersionRecord>>,
}

/// Walks `records` for `field` as of snapshot `ts` (seeing `as_txn`'s
/// pending writes). Returns the reconstructed value by reference —
/// `None` is a chain miss (no record touches the field). When
/// `overwriters` is given, it collects the writers of invisible
/// versions stepped past (the read side of SSI's rw-antidependencies).
fn reconstruct<'a>(
    records: &'a [Arc<VersionRecord>],
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

/// The records of a chain that outlive pruning at `horizon` — pending
/// ones and those committed after it — or `None` when all of them do
/// (nothing to prune).
fn surviving(records: &[Arc<VersionRecord>], horizon: Ts) -> Option<Vec<Arc<VersionRecord>>> {
    let keep: Vec<Arc<VersionRecord>> = records
        .iter()
        .filter(|r| {
            let cts = r.ts();
            cts == TS_PENDING || cts > horizon
        })
        .cloned()
        .collect();
    (keep.len() < records.len()).then_some(keep)
}

/// The per-OID chain anchor: stable identity (shared by `Arc` across
/// map snapshots) holding the atomically published record list.
#[derive(Debug)]
struct ChainCell {
    records: CowCell<Chain>,
}

/// The copy-on-write published OID→chain map of one shard.
type ChainMap = MulMap<Oid, Arc<ChainCell>>;

/// A snapshot awaiting its reclamation grace period, in a slot's
/// retire bin.
#[derive(Debug)]
enum RetiredNode {
    Map(Retired<ChainMap>),
    Chain(Retired<Chain>),
}

impl RetiredNode {
    fn era(&self) -> u64 {
        match self {
            RetiredNode::Map(r) => r.era,
            RetiredNode::Chain(r) => r.era,
        }
    }
}

/// How many independently published map buckets each shard holds.
/// Inserting or removing a chain republishes **one bucket's** map (a
/// full `HashMap` clone), so bucketing divides the copy-on-write cost
/// of first-writes and chain removals by `SHARD_COUNT * MAP_BUCKETS` —
/// without it, bulk-loading N fresh objects would clone O(N/shards)
/// entries per insert, quadratic in total.
const MAP_BUCKETS: usize = 16;

/// One chain shard: the writer-side latch plus the published map
/// buckets.
#[derive(Debug)]
struct ChainShard {
    /// Serializes writers (install/merge/rollback/prune) of this
    /// shard's chains. Readers and commit-time flips never take it.
    writer: Mutex<()>,
    maps: Box<[CowCell<ChainMap>]>,
}

impl ChainShard {
    fn new() -> ChainShard {
        ChainShard {
            writer: Mutex::new(()),
            maps: (0..MAP_BUCKETS)
                .map(|_| CowCell::new(ChainMap::default()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
        }
    }

    /// The published map bucket holding `oid`'s chain. Consecutive OIDs
    /// land in one shard every `SHARD_COUNT`, so dividing first spreads
    /// them across buckets.
    #[inline]
    fn map_for(&self, oid: Oid) -> &CowCell<ChainMap> {
        &self.maps[(oid.raw() as usize / SHARD_COUNT) % MAP_BUCKETS]
    }
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
    /// Swapped-out snapshots awaiting their grace period, in retire
    /// (hence era) order.
    bin: VecDeque<RetiredNode>,
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

    /// Moves every head node of the bin retired before `free_horizon`
    /// into `garbage` (for the caller to drop once it holds no latch).
    fn pop_garbage(&mut self, free_horizon: u64, garbage: &mut Vec<RetiredNode>) {
        let free = self
            .bin
            .iter()
            .position(|n| n.era() >= free_horizon)
            .unwrap_or(self.bin.len());
        garbage.extend(self.bin.drain(..free));
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
    /// The reclamation clock shared by every copy-on-write cell.
    rcu: Rcu,
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
    /// Reclaim queues and retire bins, one per thread slot.
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
    /// Observability: commit-phase histograms, per-object contention
    /// attribution, sampled tracing. Disabled by default (one branch
    /// per probe; the latch-free read path records nothing per read
    /// either way — see the module docs).
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
        let shards = (0..SHARD_COUNT)
            .map(|_| ChainShard::new())
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let txns = (0..TXN_STRIPES)
            .map(|_| Mutex::new(MulMap::default()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        MvccHeap {
            base,
            shards,
            rcu: Rcu::new(),
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
    /// fields through the latch-free multi-version read path, so
    /// concurrent commits keep flowing and the image still reflects
    /// exactly the state at the pinned timestamp. Objects deleted under
    /// the scan are skipped (their log records replay idempotently).
    /// The file is written atomically (temp + rename); recovery replays
    /// the log only above the returned timestamp. Requires an attached
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

    /// Pins the reclamation clock, folding any (rare) era-race retries
    /// into the read-contention counters.
    #[inline]
    fn pin(&self) -> Pin<'_> {
        let (pin, retries) = self.rcu.pin();
        if retries > 0 {
            self.stats.read_pin_retries.add(retries);
        }
        pin
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
    /// Takes **no logical locks and no latches** on the chain-hit path:
    /// reconstruction pins the reclamation clock (atomic counters),
    /// loads the published chain snapshot, and walks it by reference —
    /// cloning exactly one [`Value`] at the end. A chain miss pays a
    /// single base `RwLock::read` and revalidates against the chain
    /// (see the module docs). At [`IsolationLevel::Serializable`] a
    /// transactional read additionally registers a SIREAD entry (before
    /// the walk) and records an outgoing rw-antidependency for every
    /// invisible overwrite of the field it steps past — still without
    /// blocking anyone.
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
        let mut overwriters: Vec<TxnId> = Vec::new();
        let value = loop {
            overwriters.clear();
            let pin = self.pin();
            let map_cell = self.shard(oid).map_for(oid);
            let map = map_cell.load(&pin);
            let chain = map.get(&oid).map(|cell| cell.records.load(&pin));
            // Overwriters are only worth collecting when an SSI tracker
            // will consume them — the pure-snapshot hot path stays
            // allocation-free.
            let collect = if ssi.is_some() {
                Some(&mut overwriters)
            } else {
                None
            };
            if let Some(v) =
                chain.and_then(|chain| reconstruct(&chain.records, ts, as_txn, field, collect))
            {
                self.stats.read_chain_hits.bump();
                break v.clone();
            }
            // Chain miss: one base-store read, then a seqlock-style
            // stability check. Writers publish their record BEFORE the
            // base write-through and unpublish it AFTER restoring the
            // base on rollback, so the base value just read is
            // committed-stable iff NEITHER publication pointer moved
            // across the read — a changed pointer means an install or
            // an unpublish raced us (either could have exposed an
            // uncommitted write-through), so retry. Pointer equality is
            // sound: nodes retired after the first look cannot be freed
            // — let alone have their addresses reused — while the pin
            // is held.
            let v = self.base.read(oid, field)?;
            self.stats.read_base_loads.bump();
            let map_again = map_cell.load(&pin);
            let stable = std::ptr::eq(map, map_again)
                && match chain {
                    None => true,
                    Some(chain) => map_again
                        .get(&oid)
                        .is_some_and(|cell| std::ptr::eq(chain, cell.records.load(&pin))),
                };
            if stable {
                break v;
            }
            self.stats.read_retries.bump();
            // One attribution per bump of `read_retries`, so the
            // registry's total equals the scheme-level counter. Only
            // the (rare) retry path pays it — never a clean read.
            self.obs
                .contend(ObjKey::Instance(oid.0), ContentionKind::ReadRetry);
        };
        #[cfg(debug_assertions)]
        self.crosscheck_read(ts, as_txn, oid, field, &value);
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

    /// Re-runs the reconstruction under the shard's writer latch and
    /// asserts it agrees with the latch-free result. Debug builds only
    /// (so the multi-threaded integration storms exercise it too, not
    /// just this crate's unit tests) — the cross-check that the
    /// copy-on-write publication protocol never lets a latch-free
    /// reader observe a value a latched reader could not.
    /// (Reconstruction at a fixed snapshot is stable across concurrent
    /// installs, flips, rollbacks and GC, which is exactly what this
    /// verifies.)
    #[cfg(debug_assertions)]
    fn crosscheck_read(
        &self,
        ts: Ts,
        as_txn: Option<TxnId>,
        oid: Oid,
        field: FieldId,
        got: &Value,
    ) {
        let shard = self.shard(oid);
        let _writer = shard.writer.lock();
        let map = shard.map_for(oid).load_exclusive();
        let locked = map
            .get(&oid)
            .and_then(|cell| {
                reconstruct(
                    &cell.records.load_exclusive().records,
                    ts,
                    as_txn,
                    field,
                    None,
                )
            })
            .cloned()
            .map_or_else(|| self.base.read(oid, field), Ok);
        // An `Err` means the object was deleted under the read (deletes
        // bypass the version chains); there is nothing to compare.
        if let Ok(locked) = locked {
            debug_assert_eq!(
                &locked, got,
                "latch-free read of {oid}.{field} at ts {ts} diverged from the latched re-read"
            );
        }
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
    /// snapshot timestamp from the registry. Hot paths that already
    /// know it (the scheme session caches it at begin) use
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
            .unwrap_or_else(|| panic!("transaction {txn} is not registered with the mvcc heap"));
        self.write_at(snapshot_ts, txn, oid, field, value)
    }

    /// Writes `field` of `oid` in transaction `txn`, whose registered
    /// snapshot timestamp the caller supplies: first-updater-wins
    /// conflict check, copy-on-write publication of the pending record,
    /// then write-through to the base store. Returns what happened to
    /// the chain.
    ///
    /// The record is published **before** the base write-through — the
    /// ordering the latch-free reader's miss-revalidation relies on
    /// (see the module docs).
    pub fn write_at(
        &self,
        snapshot_ts: Ts,
        txn: TxnId,
        oid: Oid,
        field: FieldId,
        value: Value,
    ) -> Result<WriteOutcome, MvccWriteError> {
        // Chaos scheduling decision strictly before the writer latch:
        // a parked latch holder would deadlock the token scheduler.
        finecc_chaos::yield_point(finecc_chaos::Site::WriteInstall);
        // Type/domain validation runs before any latch is taken.
        self.base.check_write(field, &value)?;
        let shard = self.shard(oid);
        let latch = shard.writer.lock();
        // Anchor the chain cell (copy-on-write bucket-map insert on
        // first write of the object).
        let cell: Arc<ChainCell> = {
            let map_cell = shard.map_for(oid);
            let map = map_cell.load_exclusive();
            match map.get(&oid) {
                Some(cell) => Arc::clone(cell),
                None => {
                    let cell = Arc::new(ChainCell {
                        records: CowCell::new(Chain::default()),
                    });
                    let mut next = map.clone();
                    next.insert(oid, Arc::clone(&cell));
                    self.retire(RetiredNode::Map(map_cell.swap(next, &self.rcu)));
                    cell
                }
            }
        };
        let chain = cell.records.load_exclusive();

        // First-updater-wins admission control, at field granularity:
        // another live transaction with a pending version of this field,
        // or a version of it committed after this snapshot, wins. (A
        // record flipped to its commit timestamp but not yet published
        // by the watermark behaves exactly like a committed-after-
        // snapshot record here, which is the correct verdict: it can
        // only publish above this transaction's snapshot.)
        for rec in &chain.records {
            if rec.writer == txn || rec.write_of(field).is_none() {
                continue;
            }
            let cts = rec.ts();
            if cts == TS_PENDING {
                self.stats.write_conflicts.bump();
                self.note_ww_conflict(oid, field);
                return Err(MvccWriteError::Conflict(MvccConflict {
                    oid,
                    field,
                    pending_in: Some(rec.writer),
                }));
            }
            if cts > snapshot_ts {
                self.stats.write_conflicts.bump();
                self.note_ww_conflict(oid, field);
                return Err(MvccWriteError::Conflict(MvccConflict {
                    oid,
                    field,
                    pending_in: None,
                }));
            }
        }

        // The before-image is the current base value (no concurrent
        // heap writer of this object can interleave — we hold the shard
        // writer latch); this also surfaces unknown-OID/visibility
        // errors before anything is published.
        let before = self.base.read(oid, field)?;
        let own = chain
            .records
            .iter()
            .position(|r| r.ts() == TS_PENDING && r.writer == txn);
        let (outcome, records) = match own {
            Some(i) => {
                // Republish the transaction's record with the field
                // added (or its after-image updated) — records are
                // immutable once published, so a merge is a new record.
                let mut writes = chain.records[i].writes.clone();
                match writes.iter_mut().find(|w| w.field == field) {
                    Some(w) => w.after = value.clone(),
                    None => writes.push(FieldWrite {
                        field,
                        before,
                        after: value.clone(),
                    }),
                }
                let mut records = chain.records.clone();
                records[i] = Arc::new(VersionRecord::pending(txn, writes));
                (WriteOutcome::MergedVersion, records)
            }
            None => {
                let mut records = Vec::with_capacity(chain.records.len() + 1);
                records.push(Arc::new(VersionRecord::pending(
                    txn,
                    vec![FieldWrite {
                        field,
                        before,
                        after: value.clone(),
                    }],
                )));
                records.extend(chain.records.iter().cloned());
                (WriteOutcome::NewVersion, records)
            }
        };
        let chain_len = records.len() as u64;
        // Publish the record, THEN write through to the base store (the
        // order the miss-revalidating reader depends on).
        let old_chain = cell.records.swap(Chain { records }, &self.rcu);
        if let Err(e) = self.base.exchange_unchecked(oid, field, value) {
            // The object vanished between the before-image read and the
            // write-through (concurrent delete): unpublish the edit.
            let undo = cell.records.swap(
                Chain {
                    records: old_chain.node().records.clone(),
                },
                &self.rcu,
            );
            self.retire(RetiredNode::Chain(old_chain));
            self.retire(RetiredNode::Chain(undo));
            return Err(e.into());
        }
        drop(latch);
        self.retire(RetiredNode::Chain(old_chain));
        // Registry and stats updates run off the shard latch (latch
        // order: a txn stripe is never taken under a chain shard). The
        // write set is only consulted by this transaction's own
        // commit/abort, which its own thread issues strictly later.
        if outcome == WriteOutcome::NewVersion {
            self.stats.versions_created.bump();
            let mut stripe = self.txn_stripe(txn).lock();
            let write_set = &mut stripe
                .get_mut(&txn)
                .expect("transaction is registered with the mvcc heap")
                .write_set;
            if let Err(at) = write_set.binary_search(&oid) {
                write_set.insert(at, oid);
            }
        }
        self.stats.sample_chain_len(chain_len);
        // SSI: scan SIREAD entries AFTER the pending version is
        // published (see `read_as` for why the order closes the race)
        // and record an incoming rw edge per concurrent reader.
        if let Some(ssi) = &self.ssi {
            let edges = ssi.write_edges(txn, snapshot_ts, oid, field);
            if edges > 0 {
                self.stats.ssi_edges.add(edges);
            }
        }
        Ok(outcome)
    }

    /// Attributes a first-updater-wins refusal to the contended field.
    /// Called under the shard writer latch; the registry stripe is a
    /// leaf lock, so no ordering issue arises.
    fn note_ww_conflict(&self, oid: Oid, field: FieldId) {
        self.obs
            .contend(ObjKey::Field(oid.0, field.0), ContentionKind::WwConflict);
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
    /// clock, flips every pending record of the transaction by storing
    /// the timestamp through the records' atomic `commit_ts` (record
    /// identity is stable across concurrent snapshot swaps, so the flip
    /// takes **no latch at all**), then publishes the timestamp through
    /// the lock-free ordered watermark. Concurrent snapshots cannot
    /// observe a half-flipped transaction: the records become visible
    /// only once the watermark publishes the timestamp, and the
    /// watermark publishes it only after every record is flipped.
    /// Returns the commit timestamp, and returns only once the
    /// timestamp is **published**: any snapshot taken after `commit`
    /// returns — including this session's next transaction — observes
    /// the commit (read-your-own-commits across transactions; the wait
    /// covers only the bounded publication lag behind concurrent
    /// committers holding earlier timestamps). A **read-only**
    /// transaction serializes at (and returns) its snapshot timestamp
    /// without drawing a timestamp at all, keeping the reader path
    /// coordination-free end to end.
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
        // a clock read). Laps sit strictly *between* the latch-free
        // steps they time, never inside a latch: the timer itself
        // takes nothing.
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
        // Locate this transaction's pending records once — the redo
        // images (write-ahead log) and the commit flips both walk them.
        // Record identity is stable across concurrent snapshot swaps
        // (snapshots share records by `Arc`) and nobody but the owner
        // merges or removes a pending record, so the collected handles
        // stay valid after the pin is dropped. (The write set's sorted
        // order is determinism, not a lock-ordering requirement: there
        // is nothing to order.)
        let oids = &state.write_set;
        let mut own_records: Vec<Arc<VersionRecord>> = Vec::with_capacity(oids.len());
        {
            let pin = self.pin();
            for &oid in oids {
                let map = self.shard(oid).map_for(oid).load(&pin);
                let cell = map.get(&oid).expect("written chain exists");
                let chain = cell.records.load(&pin);
                let own = chain
                    .records
                    .iter()
                    .find(|r| r.ts() == TS_PENDING && r.writer == txn)
                    .expect("pending record owned by committer");
                own_records.push(Arc::clone(own));
            }
        }
        // Durable before visible: the record hits the log — and, at
        // WalSync, the disk (group-commit ack) — strictly before any
        // record flips and strictly before the watermark publishes the
        // timestamp. No latch is held across the wait; concurrent
        // committers keep drawing, appending and sharing fsyncs, and
        // the ordered watermark serializes visibility afterwards
        // exactly as without a log.
        if let Some(wal) = &self.wal {
            let mut writes =
                Vec::with_capacity(own_records.iter().map(|rec| rec.writes.len()).sum());
            for (rec, &oid) in own_records.iter().zip(oids) {
                for w in &rec.writes {
                    writes.push(FieldImage {
                        oid,
                        field: w.field,
                        value: w.after.clone(),
                    });
                }
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
        // timestamp — an atomic store per record through the published
        // chain snapshots, no latch.
        for rec in &own_records {
            finecc_chaos::yield_point(finecc_chaos::Site::CommitFlipStep);
            rec.commit_ts.store(commit_ts, Ordering::SeqCst);
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
        // and publication all ran latch-free above. Relaxing this
        // needs a per-session visibility floor, which needs a session
        // abstraction the heap does not have (see the ROADMAP).
        // The chaos fault plane can switch this barrier off
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
    /// is rolled back and ended as by [`MvccHeap::abort`].
    fn refuse_commit(&self, txn: TxnId, state: &TxnState, commit_ts: Ts) {
        if let Some(wal) = &self.wal {
            let _ = wal.append_skip(commit_ts);
        }
        if self.watermark.publish(commit_ts) {
            self.stats.watermark_waits.bump();
        }
        self.stats.ts_skips.bump();
        self.discard(txn, state);
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
    /// before-images into the base store. Returns the number of objects
    /// rolled back.
    fn rollback_writes(&self, txn: TxnId, state: &TxnState) -> usize {
        let mut rolled_back = 0;
        for &oid in &state.write_set {
            let shard = self.shard(oid);
            let _latch = shard.writer.lock();
            let map_cell = shard.map_for(oid);
            let map = map_cell.load_exclusive();
            let cell = map.get(&oid).expect("written chain exists");
            let chain = cell.records.load_exclusive();
            let idx = chain
                .records
                .iter()
                .position(|r| r.ts() == TS_PENDING && r.writer == txn)
                .expect("pending record owned by aborter");
            // Restore base values BEFORE unpublishing the record, so a
            // reader that misses the shrunken chain finds the restored
            // value (while the record is still published, invisible
            // readers reconstruct through its before-images — the same
            // values). No other live transaction wrote these fields
            // (they would have conflicted), so restoring is safe. The
            // instance may have been deleted concurrently; the undo
            // then has nothing to restore (same contract as
            // `UndoLog::rollback`).
            for w in &chain.records[idx].writes {
                let _ = self.base.write_unchecked(oid, w.field, w.before.clone());
            }
            if chain.records.len() == 1 {
                // Last record: drop the whole chain from the bucket map.
                let mut next = map.clone();
                next.remove(&oid);
                self.retire(RetiredNode::Map(map_cell.swap(next, &self.rcu)));
            } else {
                let mut records = chain.records.clone();
                records.remove(idx);
                let old = cell.records.swap(Chain { records }, &self.rcu);
                self.retire(RetiredNode::Chain(old));
            }
            rolled_back += 1;
        }
        rolled_back
    }

    /// Aborts `txn`: restores every before-image of its pending records
    /// into the base store and removes the records. Returns the number of
    /// objects rolled back. Aborting a `txn` the heap does not know
    /// (never begun, or already ended) rolls nothing back and returns 0;
    /// the call is still counted in `aborts`.
    pub fn abort(&self, txn: TxnId) -> usize {
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

    /// Hands a swapped-out snapshot to the caller's retire bin. The
    /// slot mutex is a leaf, so this may run under a shard writer latch.
    fn retire(&self, node: RetiredNode) {
        let mut state = self.reclaim[self.my_slot()].state.lock();
        state.bin.push_back(node);
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
    /// chains its queue's due head entries name (one shard latch each),
    /// helps one other slot with what budget is left, then frees the
    /// retired snapshots whose grace period ran out — with no latch
    /// held. Never visits all shards, buckets or slots.
    fn reclaim_batch(&self, slot: usize, purge_ssi: bool) {
        // The reclamation decision point — outside every latch (pins
        // are never held across yield sites, so reclamation never waits
        // on a parked thread).
        finecc_chaos::yield_point(finecc_chaos::Site::CowReclaim);
        let horizon = self.gc_horizon();
        if let (Some(ssi), true) = (&self.ssi, purge_ssi) {
            ssi.purge(horizon);
        }
        let free_horizon = self.rcu.try_advance();
        let mut due = Vec::new();
        let mut garbage = Vec::new();
        let own = &self.reclaim[slot];
        let budget = {
            let mut state = own.state.lock();
            let budget = RECLAIM_BATCH.max(2 * std::mem::take(&mut state.queued));
            state.pop_due(horizon, budget, &mut due);
            state.pop_garbage(free_horizon, &mut garbage);
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
                other.pop_garbage(free_horizon, &mut garbage);
            }
            if due.len() < budget {
                own.help_next.store(helped + 1, Ordering::Relaxed);
            }
        }
        let mut reclaimed = 0;
        for &oid in &due {
            #[cfg(test)]
            RECLAIM_LATCHES.with(|n| n.set(n.get() + 1));
            let shard = self.shard(oid);
            let _latch = shard.writer.lock();
            let map_cell = shard.map_for(oid);
            let map = map_cell.load_exclusive();
            // An earlier entry of the same object may have pruned past
            // this one already.
            let Some(cell) = map.get(&oid) else { continue };
            let records = &cell.records.load_exclusive().records;
            let Some(keep) = surviving(records, horizon) else {
                continue;
            };
            reclaimed += records.len() - keep.len();
            if keep.is_empty() {
                let mut next = map.clone();
                next.remove(&oid);
                self.retire(RetiredNode::Map(map_cell.swap(next, &self.rcu)));
            } else {
                let old = cell.records.swap(Chain { records: keep }, &self.rcu);
                self.retire(RetiredNode::Chain(old));
            }
        }
        if reclaimed > 0 {
            self.stats.versions_reclaimed.add(reclaimed as u64);
        }
        if !garbage.is_empty() {
            self.stats.cow_reclaimed.add(garbage.len() as u64);
        }
        // `garbage` drops here: the frees run with every latch released.
    }

    /// The explicit **full sweep** (tests, maintenance — the commit
    /// path never runs it; see the module docs' *Reclamation* section):
    /// drops every version record, of every chain of every bucket,
    /// whose commit timestamp is at or below the horizon — no active or
    /// future snapshot can ever need to reconstruct *past* such a
    /// record — and drains every slot's reclaim queue of the entries
    /// that covers. At [`IsolationLevel::Serializable`] the same horizon
    /// also retires SSI flag entries and SIREAD registrations (a
    /// transaction committed at or below the horizon cannot be
    /// concurrent with any live or future one). The pass also drives
    /// the copy-on-write reclamation clock through two grace periods
    /// and frees every slot's retired snapshots no reader can still
    /// hold (`cow_reclaimed` in the statistics) — all of them when no
    /// read is in flight. Returns the number of records reclaimed.
    pub fn gc(&self) -> usize {
        // The reclamation decision point — outside every latch (pins
        // are never held across yield sites, so GC never waits on a
        // parked thread).
        finecc_chaos::yield_point(finecc_chaos::Site::CowReclaim);
        let horizon = self.gc_horizon();
        if let Some(ssi) = &self.ssi {
            ssi.purge(horizon);
        }
        let mut reclaimed = 0;
        for shard in self.shards.iter() {
            let _latch = shard.writer.lock();
            for map_cell in shard.maps.iter() {
                let map = map_cell.load_exclusive();
                let mut removed: Vec<Oid> = Vec::new();
                let mut swaps: Vec<(Arc<ChainCell>, Vec<Arc<VersionRecord>>)> = Vec::new();
                for (&oid, cell) in map.iter() {
                    let records = &cell.records.load_exclusive().records;
                    let Some(keep) = surviving(records, horizon) else {
                        continue;
                    };
                    reclaimed += records.len() - keep.len();
                    if keep.is_empty() {
                        removed.push(oid);
                    } else {
                        swaps.push((Arc::clone(cell), keep));
                    }
                }
                // Publish the shrunken chains, then the shrunken bucket
                // map — all references into the old snapshots are
                // released above, so the swaps cannot invalidate
                // anything still borrowed.
                let shrink_map = !removed.is_empty();
                let next = shrink_map.then(|| {
                    let mut next = map.clone();
                    for oid in &removed {
                        next.remove(oid);
                    }
                    next
                });
                for (cell, records) in swaps {
                    let old = cell.records.swap(Chain { records }, &self.rcu);
                    self.retire(RetiredNode::Chain(old));
                }
                if let Some(next) = next {
                    self.retire(RetiredNode::Map(map_cell.swap(next, &self.rcu)));
                }
            }
        }
        self.stats.versions_reclaimed.add(reclaimed as u64);
        // Two grace periods clear everything retired up to here, unless
        // a reader is pinned right now (then its era's nodes wait).
        self.rcu.try_advance();
        let free_horizon = self.rcu.try_advance();
        let mut freed = 0;
        for slot in self.reclaim.iter() {
            let mut garbage = Vec::new();
            {
                let mut state = slot.state.lock();
                // The sweep pruned whatever these entries name.
                state.queue.retain(|&(ts, _)| ts > horizon);
                state.pop_garbage(free_horizon, &mut garbage);
            }
            freed += garbage.len();
        }
        if freed > 0 {
            self.stats.cow_reclaimed.add(freed as u64);
        }
        reclaimed
    }

    /// Number of live version records across all chains (diagnostics).
    /// Latch-free; under concurrent commits the total is approximate —
    /// a consistent point-in-time count would require freezing every
    /// shard at once, which diagnostics must never do.
    pub fn live_versions(&self) -> usize {
        let pin = self.pin();
        self.shards
            .iter()
            .flat_map(|s| s.maps.iter())
            .map(|m| {
                m.load(&pin)
                    .values()
                    .map(|cell| cell.records.load(&pin).records.len())
                    .sum::<usize>()
            })
            .sum()
    }

    /// Number of objects with a live chain (diagnostics; approximate
    /// under concurrency, like [`MvccHeap::live_versions`]).
    pub fn live_chains(&self) -> usize {
        let pin = self.pin();
        self.shards
            .iter()
            .flat_map(|s| s.maps.iter())
            .map(|m| m.load(&pin).len())
            .sum()
    }
}

/// Why an MVCC write failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MvccWriteError {
    /// First-updater-wins conflict; the transaction must abort (and may
    /// retry with a fresh snapshot).
    Conflict(MvccConflict),
    /// The base store rejected the write (unknown OID, type mismatch, …).
    Store(StoreError),
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
        // served entirely from the copy-on-write chain: no base-store
        // lock, no latch — the counters prove it.
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
        assert_eq!(m.read_retries, 0);
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
        // Repeated writes by one transaction stay a single record whose
        // after-image tracks the latest value — and its reader sees it
        // without consulting the base store.
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

    /// Every reclaim slot's queue and bin is empty.
    fn slots_are_empty(heap: &MvccHeap) -> bool {
        heap.reclaim.iter().all(|slot| {
            let state = slot.state.lock();
            state.queue.is_empty() && state.bin.is_empty()
        })
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
        // pinned and latch-free readers keep re-reading through it:
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
        assert!(
            slots_are_empty(&heap),
            "a slot kept a queue entry or a node"
        );
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
    fn latch_free_readers_stay_consistent_under_write_churn() {
        // Readers hammer one hot object while a writer thread churns
        // versions (install → flip → GC): the debug-build cross-check
        // inside read_as latches and re-reads every single read, so
        // this is the copy-on-write publication protocol's sharpest
        // unit-level race test. Reads must also be atomic across the
        // two fields each commit writes together.
        let (_, heap, a, x, y) = setup();
        let o = heap.base().create(a);
        std::thread::scope(|s| {
            {
                let heap = Arc::clone(&heap);
                s.spawn(move || {
                    for round in 0..300u64 {
                        let t = TxnId(round + 1);
                        heap.begin(t);
                        heap.write(t, o, x, Value::Int(round as i64)).unwrap();
                        heap.write(t, o, y, Value::Int(round as i64)).unwrap();
                        heap.commit(t).unwrap();
                    }
                });
            }
            for _ in 0..3 {
                let heap = Arc::clone(&heap);
                s.spawn(move || {
                    let mut last = -1i64;
                    while !writer_done(&heap) {
                        let snap = heap.snapshot();
                        let vx = snap.read(o, x).unwrap();
                        let vy = snap.read(o, y).unwrap();
                        assert_eq!(vx, vy, "torn read across one commit's fields");
                        let Value::Int(v) = vx else { panic!() };
                        assert!(v >= last, "snapshot went backwards");
                        last = v;
                    }
                });
            }

            fn writer_done(heap: &MvccHeap) -> bool {
                heap.current_ts() >= 300
            }
        });
        assert_eq!(heap.base().read(o, x), Ok(Value::Int(299)));
        let m = heap.stats.snapshot();
        assert_eq!(m.commits, 300);
        assert_eq!(m.write_conflicts, 0);
    }
}

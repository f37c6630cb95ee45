//! The versioned heap's protocol: transaction sessions, reads, SIREAD
//! registrations, writes, commit, abort and checkpoints — and, at
//! [`IsolationLevel::Serializable`], SSI conflict tracking. Version
//! storage is the `chain` module, the snapshot registry `epoch`,
//! garbage collection `reclaim`, and the by-id adapter `by_id`.
//!
//! # Concurrency architecture
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
//!   one atomic store into the cell (at `Serializable`, SSI validation
//!   and the store in one step under the cell's lock), and it commits
//!   every record the writer made without latching a chain. A marked
//!   record is invisible until publication, which is in timestamp order
//!   (the `watermark` module), and reads as committed-after-snapshot to
//!   a rival writer. A refused commit publishes its timestamp as a
//!   *skip*. The cell is made at a transaction's first write (at
//!   `Serializable`, when its session starts).
//! * **SIREADs ride the chain.** At `Serializable` a chain also lists
//!   its readers, one entry per reader, added or widened by
//!   [`MvccHeap::register_reads`] under the exclusive latch, once per top
//!   message; a write collects the concurrent readers of its field in
//!   its install's critical section and flags them after dropping the
//!   latch (the `ssi` module docs' *Status cells and the per-edge
//!   protocol*). Extent messages register on class chains
//!   ([`MvccHeap::record_class_read`]), and a safe snapshot keeps its
//!   registrations in its session until [`MvccHeap::convert`] (the
//!   `ssi` module docs' *Class-granular SIREADs* and *Safe snapshots*).
//! * **The transaction owns its state.** Its snapshot epoch, its
//!   sorted write set, its read set, its safe read set and its status
//!   cell live in its [`MvccTxn`], after Larson et al.'s transaction
//!   object: [`MvccHeap::session`] makes one, the reads, writes and
//!   registrations take it `&mut`, and [`MvccHeap::commit_session`] or
//!   [`MvccHeap::abort_session`] consumes it, so no lock guards it.
//!   Every commit, refusal and abort ends it through `MvccHeap::end`.
//!
//! ## Latch order
//!
//! 1. **One chain shard**, shared or exclusive, never two at once.
//!    Rollback, and a logged commit assembling its redo images, visit
//!    objects one shard at a time; an unlogged commit takes none.
//! 2. Under a chain shard, one leaf only: a **base-store shard** (the
//!    miss read, the write-through, the rollback restore). The write
//!    set a first write joins is the session's own memory: the borrow
//!    checker, not a lock, keeps it and the chains in agreement.
//! 3. The epoch shard, the reclaim slot and the by-id adapter's session
//!    map are leaves taken under nothing.
//!
//! The watermark has no latch. A status cell's flag lock is never taken
//! under a chain latch: a write flags the readers it collected after
//! dropping it, a read records its edges after dropping its shared
//! latch, and a write probes its object's class chain after dropping
//! the object's. Chain walks read a record's status with one atomic
//! load.
//!
//! ## Observability probes
//!
//! With an attached `finecc_obs::Obs` handle the commit path times
//! three consecutive segments — *ts draw* (the clock plus the mark, SSI
//! validation included), *WAL ack* (redo assembly, append, and at
//! `WalSync` the group-commit ack) and *publish* — plus the commit
//! total. The probes take no lock, contention attribution runs after
//! every heap latch is dropped, and the **read path carries no probe**.

mod by_id;
mod chain;
mod epoch;
mod reclaim;

pub use by_id::MvccReadError;
pub(crate) use epoch::EpochHandle;

use crate::ssi::{field_set, SsiVerdict, TxnHandle};
use crate::stats::MvccStats;
use crate::watermark::Watermark;
use crate::{IsolationLevel, SsiConflict, Ts};
use chain::VersionRecord;
use chain::{admit, class_chain, is_class_chain, reconstruct, visible, Chains, FieldWrite};
use epoch::EpochTable;
use finecc_model::{ClassId, FieldId, MulMap, Oid, TxnId, Value};
use finecc_obs::{ContentionKind, ObjKey, Obs, Phase};
use finecc_store::{Database, FieldImage, StoreError};
use finecc_wal::{CheckpointData, DurabilityLevel, InstanceImage, RecoveryInfo, Wal, WalConfig};
use parking_lot::Mutex;
use reclaim::RECLAIM_SLOTS;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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
        write!(f, "write-write conflict on {}.{}: ", self.oid, self.field)?;
        match self.pending_in {
            Some(t) => write!(f, "pending version of {t}"),
            None => f.write_str("committed after this snapshot"),
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

/// A transaction of the heap, as its session owns it (see the module
/// docs' *The transaction owns its state*). Dropped unended, it keeps
/// its snapshot pinned and its pending versions installed.
#[must_use = "a session ends only through commit_session or abort_session"]
#[derive(Debug)]
pub struct MvccTxn {
    id: TxnId,
    /// The registered snapshot epoch; `epoch.ts` is the snapshot.
    epoch: EpochHandle,
    /// Objects this transaction installed pending versions on, sorted
    /// and duplicate-free (a handful: nothing to hash or sort).
    write_set: Vec<Oid>,
    /// The chains, objects' and classes', that hold this transaction's
    /// SIREAD entry, in registration order.
    read_set: Vec<Oid>,
    /// `Some` while the transaction runs on a safe snapshot: the
    /// `(object, field set)` reads it registered, none on a chain yet.
    safe_reads: Option<Vec<(Oid, u64)>>,
    /// The status cell: made when the session starts at `Serializable`,
    /// at the first write otherwise, so present once `write_set` is not
    /// empty.
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

/// How a transaction ends ([`MvccHeap::end`]).
enum End {
    /// Committed at this timestamp (a read-only one at its snapshot's).
    Commit(Ts),
    /// Refused by SSI validation, with the timestamp it drew, if any.
    SsiRefusal(Option<Ts>),
    /// Refused by the log after drawing this timestamp.
    LogRefusal(Ts),
    /// Aborted by its caller.
    Abort,
}

/// The multi-version heap over a base [`Database`].
pub struct MvccHeap {
    base: Arc<Database>,
    chains: Chains,
    /// Snapshot registry; the minimum active entry is the GC horizon.
    epochs: EpochTable,
    /// The commit-timestamp allocator (one `fetch_add` per draw);
    /// visibility is the watermark's.
    clock: AtomicU64,
    /// Ordered publication: `last_committed` advances only across a
    /// contiguous prefix of completed commits.
    watermark: Watermark,
    /// Reclaim queues, one per thread slot.
    reclaim: Box<[reclaim::ReclaimSlot]>,
    /// The attached write-ahead log (`None` at [`DurabilityLevel::None`]),
    /// appended to only by commits and extent events.
    wal: Option<Arc<Wal>>,
    /// Whether the heap runs at [`IsolationLevel::Serializable`]: tracks
    /// SIREADs and validates commits.
    serializable: bool,
    /// The highest GC horizon a reclamation pass has computed: SIREAD
    /// entries of a transaction committed at or below it may go.
    /// `Relaxed`, as every value it held is a valid bound; unpadded, as
    /// every writer reads it and it is written rarely.
    horizon: AtomicU64,
    /// Commit-phase histograms and per-object contention attribution;
    /// disabled by default (see the module docs).
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
    /// commit appends its redo images **before** its timestamp is published
    /// (at [`DurabilityLevel::WalSync`] it also waits for the group fsync).
    /// A directory with no checkpoint gets a genesis checkpoint of the base
    /// store, and the clock starts above the highest timestamp logged — though
    /// the usual way to resume a directory is [`MvccHeap::recover`].
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

    /// Rebuilds a heap from a log directory: newest checkpoint + replay of
    /// the log's intact prefix (`finecc_wal::recover_database`), resuming the
    /// schema, extents, base store, OID allocator **and the timestamp
    /// clock/watermark**, skip records' holes included, so new commits reuse
    /// no timestamp and leave no gap. The reopened log is attached at the same
    /// directory, a torn final record truncated.
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
            chains: Chains::new(),
            epochs: EpochTable::new(),
            clock: AtomicU64::new(base_ts),
            watermark: Watermark::with_base(base_ts),
            reclaim: (0..RECLAIM_SLOTS).map(|_| Default::default()).collect(),
            wal,
            serializable: isolation == IsolationLevel::Serializable,
            horizon: AtomicU64::new(0),
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

    /// Creates a default-initialized instance of `class` through the heap,
    /// logging the extent event when a log is attached — the durable
    /// counterpart of [`Database::create`]. (Creation bypasses the version
    /// chains — see the ROADMAP's versioned-extents item.)
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

    /// Writes a **fuzzy checkpoint** without stopping writers: it pins
    /// a snapshot like any reader and streams every live object's fields
    /// through the multi-version read path, so the image is exactly the
    /// state at the pinned timestamp. Objects deleted under the scan are
    /// skipped (their log records replay idempotently). The file is
    /// written atomically; recovery replays the log only above the
    /// returned timestamp. A heap without a log refuses with
    /// [`std::io::ErrorKind::Unsupported`].
    ///
    /// Once the checkpoint is durable, checkpoints beyond the retention
    /// count are deleted and the log is truncated below `ckpt_ts` (never
    /// higher, so extent events that raced the scan survive) —
    /// best-effort, as a failure costs space, not durability — and a
    /// full [`MvccHeap::gc`] sweep runs: maintenance is where the
    /// stop-and-sweep belongs.
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
        // transaction needs one from its first read on. One begins on a
        // safe snapshot, keeping its reads in the session instead, if no
        // registered snapshot is older and the watermark has not moved
        // past its own while the minima were loaded (the `ssi` module
        // docs' *Safe snapshots*).
        let safe = self.serializable
            && self.epochs.min_active().is_none_or(|m| m >= epoch.ts)
            && self.current_ts() == epoch.ts;
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

    /// The cell a transaction's reads and writes report to at
    /// [`IsolationLevel::Serializable`]; `None` at `Snapshot`.
    #[inline]
    fn tracking<'a>(&self, txn: &'a MvccTxn) -> Option<&'a Arc<TxnHandle>> {
        txn.cell.as_ref().filter(|_| self.serializable)
    }

    /// [`MvccHeap::tracking`] off a safe snapshot: the cell a read records
    /// edges for and a read-only commit validates.
    #[inline]
    fn tracked_reader<'a>(&self, txn: &'a MvccTxn) -> Option<&'a Arc<TxnHandle>> {
        self.tracking(txn).filter(|_| !txn.is_safe())
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

    /// Reconstructs `field` of `oid` as of `txn`'s snapshot, seeing its own
    /// pending writes: [`MvccHeap::register_reads`] of the one field, then
    /// [`MvccHeap::read_covered`]. [`crate::Snapshot::read`] is the read
    /// outside any transaction.
    ///
    /// Deletion caveat: [`Database::delete`] bypasses the version layer, so a
    /// read of a *deleted* object answers from what it consults: a chain hit
    /// returns the value as of the snapshot, a miss the base store's
    /// [`StoreError::UnknownOid`]. At [`IsolationLevel::Serializable`] an
    /// object the base store does not hold is refused before anything is
    /// registered.
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

    /// Registers `txn`'s SIREAD on `oid` at [`IsolationLevel::Serializable`]
    /// (a no-op at `Snapshot`): the transaction is about to read some of
    /// `fields` through [`MvccHeap::read_covered`], and a concurrent writer of
    /// any of them meets this one entry on the object's chain; a new chain
    /// joins the read set. The runtime calls it once per top message, with
    /// its transitive access vector. On a safe snapshot the entry only joins
    /// the safe read set ([`MvccHeap::convert`]); an OID that keys a class
    /// chain registers nothing.
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
        let added = (self.chains.write(oid).or_insert().readers).add(cell, fields, horizon);
        if added {
            txn.read_set.push(oid);
        }
        self.stats.ssi_registrations.bump();
    }

    /// Registers a class-granular SIREAD at [`IsolationLevel::Serializable`]
    /// (a no-op at `Snapshot`), converting a safe snapshot first: `txn` is
    /// about to read some of `fields` of instances of `class` through
    /// [`MvccHeap::read_covered`], and a writer of one of them meets this one
    /// entry on the class's chain (the `ssi` module docs' *Class-granular
    /// SIREADs*).
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

    /// Ends `txn`'s safe snapshot, if it runs on one (the `ssi` module docs'
    /// *Safe snapshots*): registers every entry of its safe read set, then
    /// walks those chains again and records an edge to every writer of a
    /// version of an entry's field invisible to it — what its reads would
    /// have recorded had they been tracked. Idempotent; a no-op at
    /// [`IsolationLevel::Snapshot`]. [`MvccHeap::write_at`] and
    /// [`MvccHeap::record_class_read`] call it, and a caller about to write
    /// calls it before the reads that precede the write.
    pub fn convert(&self, txn: &mut MvccTxn) {
        let Some(reads) = txn.safe_reads.take() else {
            return;
        };
        for &(oid, fields) in &reads {
            self.register(txn, oid, fields);
        }
        let mut overwriters = Vec::new();
        for &(oid, fields) in &reads {
            self.chains.read(oid, |chain| {
                // Of the records touching a field, the invisible ones are
                // the newest (see `Chain`): the ones a walk steps past.
                let records = chain.map_or(&[][..], |c| &c.records);
                let invisible = records.iter().filter(|rec| {
                    !visible(rec, txn.ts(), Some(txn.id))
                        && rec
                            .writes
                            .iter()
                            .any(|w| fields & field_set([w.field]) != 0)
                });
                overwriters.extend(invisible.map(|rec| Arc::clone(&rec.owner)));
            });
        }
        if let Some(cell) = &txn.cell {
            self.read_edges(cell, &overwriters);
        }
    }

    /// [`MvccHeap::read_as`] for a read `txn`'s registration covers —
    /// [`MvccHeap::register_reads`]' or [`MvccHeap::record_class_read`]'s:
    /// the same walk, registering nothing, and at `Serializable` an edge for
    /// every invisible overwrite it steps past (none on a safe snapshot).
    pub fn read_covered(
        &self,
        txn: &MvccTxn,
        oid: Oid,
        field: FieldId,
    ) -> Result<Value, StoreError> {
        let reader = self.tracked_reader(txn).map(|cell| &**cell);
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
        let (value, hit) = self.chains.read(oid, |chain| {
            match chain.and_then(|chain| reconstruct(&chain.records, ts, as_txn, field, collect)) {
                Some(v) => Ok((v.clone(), true)),
                // A miss: no record covers the field, so — under this
                // latch — no writer holds it pending, and the base
                // holds its latest committed value.
                None => self.base.read(oid, field).map(|v| (v, false)),
            }
        })?;
        let stats = &self.stats;
        (if hit {
            &stats.read_chain_hits
        } else {
            &stats.read_base_loads
        })
        .bump();
        if let Some(reader) = reader {
            self.read_edges(reader, &overwriters);
        }
        Ok(value)
    }

    /// Records the rw edge `reader ──rw──▶ w` for each writer `w` of an
    /// invisible version a chain walk stepped past, under no heap latch.
    fn read_edges(&self, reader: &TxnHandle, overwriters: &[Arc<TxnHandle>]) {
        let edges: u64 = overwriters.iter().map(|w| reader.read_edge(w)).sum();
        if edges > 0 {
            self.stats.ssi_edges.add(edges);
        }
    }

    /// Writes `field` of `oid` in transaction `txn`, first converting
    /// it if it runs on a safe snapshot ([`MvccHeap::convert`]). Under
    /// the object's chain latch held exclusively: first-updater-wins
    /// admission at `txn`'s snapshot, the base write-through, the
    /// install (a new record on the object's first write, which joins
    /// the write set; an in-place edit after that) and, at
    /// [`IsolationLevel::Serializable`], the collection of the readers
    /// to flag once the latch is dropped. A refused write — a conflict
    /// or a store error — leaves nothing behind.
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
        let mut latched = self.chains.write(oid);
        let admitted = latched.get().map_or(Ok(None), |chain| {
            admit(&chain.records, snapshot_ts, txn.id, oid, field)
        });
        let own = match admitted {
            Ok(own) => own,
            Err(conflict) => {
                drop(latched);
                self.stats.write_conflicts.bump();
                self.obs
                    .contend(ObjKey::Field(oid.0, field.0), ContentionKind::WwConflict);
                return Err(MvccWriteError::Conflict(conflict));
            }
        };
        let before = self.base.exchange_unchecked(oid, field, value.clone())?;
        let chain = latched.or_insert();
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
        drop(latched);
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
            if self.chains.has_class_chains() {
                if let Ok(class) = self.base.class_of(oid) {
                    if let Some(chain) = self.chains.write(class_chain(class)).get_mut() {
                        let horizon = self.horizon();
                        chain
                            .readers
                            .overlapping(field, cell, snapshot_ts, horizon, &mut readers);
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

    /// Commits `txn`: **draw** the next commit timestamp, **mark** the
    /// status cell with it (one store every record of the transaction
    /// reads as its commit), **log** the redo images when a log is
    /// attached, and **publish** the timestamp once every earlier one is
    /// published — durable before visible, and no chain latch taken
    /// unless the log needs the images. Returns the timestamp once it is
    /// published, so any snapshot taken after observes it. A
    /// **read-only** transaction serializes at (and returns) its
    /// snapshot timestamp without drawing one.
    ///
    /// At [`IsolationLevel::Snapshot`] commit is infallible. At
    /// [`IsolationLevel::Serializable`] the mark is SSI validation and
    /// mark in one step; a refused transaction is rolled back (as by
    /// [`MvccHeap::abort_session`]), its drawn timestamp published as a
    /// *skip*, and the [`SsiConflict`] returned — the caller retries on a
    /// fresh snapshot. A refused redo append ends the same way with
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
            self.end(txn, End::SsiRefusal(Some(commit_ts)));
            return Err(c.into());
        }
        phases.lap(Phase::CommitTsDraw);
        // Durable before visible: the record hits the log (at WalSync,
        // the disk) before the watermark publishes the timestamp; no
        // latch is held across the append or the wait.
        if let Some(wal) = &self.wal {
            let mut writes = Vec::with_capacity(txn.write_set.len());
            for &oid in &txn.write_set {
                self.chains.read(oid, |chain| {
                    let own = chain.and_then(|chain| chain.own(cell));
                    let own = own.expect("a written chain holds its writer's record");
                    writes.extend(own.writes.iter().map(|w| FieldImage {
                        oid,
                        field: w.field,
                        value: w.after.clone(),
                    }));
                });
            }
            finecc_chaos::yield_point(finecc_chaos::Site::CommitWalAppend);
            if let Err(e) = wal.append_commit(commit_ts, txn.id, &writes) {
                // Graceful degradation: the record never reached the
                // log, so the commit must not happen.
                self.end(txn, End::LogRefusal(commit_ts));
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
        self.end(txn, End::Commit(commit_ts));
        Ok(commit_ts)
    }

    /// The commit of a transaction that wrote nothing: it serializes at
    /// its snapshot. At [`IsolationLevel::Serializable`] a tracked one
    /// still validates — its reads can complete a dangerous structure
    /// around a committed pivot (the SI read-only anomaly, Fekete et al.
    /// 2004). One that stayed on a safe snapshot registered nothing and,
    /// like a commit at `Snapshot`, validates nothing.
    fn commit_read_only(&self, txn: MvccTxn) -> Result<Ts, CommitError> {
        let ts = txn.ts();
        if let Some(cell) = self.tracked_reader(&txn) {
            if let SsiVerdict::Abort(c) = cell.validate_and_commit(ts) {
                self.end(txn, End::SsiRefusal(None));
                return Err(c.into());
            }
        }
        self.end(txn, End::Commit(ts));
        Ok(ts)
    }

    /// Aborts `txn`: restores every before-image of its pending records
    /// into the base store and removes the records. Returns the number of
    /// objects rolled back.
    pub fn abort_session(&self, txn: MvccTxn) -> usize {
        self.end(txn, End::Abort)
    }

    /// Ends `txn`, releasing its snapshot epoch. A commit counts in
    /// `commits` and queues its chains for reclamation if it wrote or its
    /// reads were tracked. Anything else counts in `aborts`: an SSI refusal
    /// is attributed to the write set's smallest OID (one attribution per
    /// abort, so registry totals match `ssi_aborts`; none for a read-only
    /// victim), the cell is marked `DEAD`, a drawn timestamp is logged
    /// (best-effort: a later durable commit covers a lost skip) and published
    /// as a *skip*, so the prefix does not stall and a thread publishes each
    /// timestamp before it draws again, and the writes are rolled back.
    /// Returns the number of objects rolled back.
    fn end(&self, txn: MvccTxn, end: End) -> usize {
        let (ssi, skip) = match end {
            End::Commit(ts) => {
                self.epochs.unregister(txn.epoch);
                self.stats.commits.bump();
                if !txn.write_set.is_empty() || self.tracked_reader(&txn).is_some() {
                    self.queue_reclaim(ts, &txn);
                }
                return 0;
            }
            End::SsiRefusal(skip) => (true, skip),
            End::LogRefusal(ts) => (false, Some(ts)),
            End::Abort => (false, None),
        };
        if ssi {
            let first = txn.write_set.first();
            let key = first.map_or(ObjKey::Unattributed, |o| ObjKey::Instance(o.0));
            self.obs.contend(key, ContentionKind::SsiAbort);
            self.stats.ssi_aborts.bump();
        }
        if let Some(cell) = &txn.cell {
            cell.abort();
        }
        if let Some(ts) = skip {
            if let Some(wal) = &self.wal {
                let _ = wal.append_skip(ts);
            }
            self.watermark.publish(ts);
            self.stats.ts_skips.bump();
        }
        let rolled_back = self.rollback_writes(&txn);
        // Abort-discarded records count as reclaimed, so created and
        // reclaimed balance once GC has drained the committed history.
        self.stats.versions_reclaimed.add(rolled_back as u64);
        self.epochs.unregister(txn.epoch);
        self.stats.aborts.bump();
        rolled_back
    }

    /// Removes every record the transaction made and restores its
    /// before-images into the base store, each object under its chain latch
    /// held exclusively, so no reader sees one without the other (no live
    /// rival wrote these fields, and an instance deleted meanwhile has nothing
    /// to restore); then drops its SIREAD entries. Returns the number of
    /// objects rolled back.
    fn rollback_writes(&self, txn: &MvccTxn) -> usize {
        let Some(cell) = &txn.cell else {
            return 0; // no write, so no cell at `Snapshot`
        };
        for &oid in &txn.write_set {
            let mut latched = self.chains.write(oid);
            let own = latched.get_mut().and_then(|chain| chain.take_own(cell));
            let own = own.expect("a written chain holds its writer's record");
            for w in own.writes {
                let _ = self.base.write_unchecked(oid, w.field, w.before);
            }
        }
        for &oid in &txn.read_set {
            if let Some(chain) = self.chains.write(oid).get_mut() {
                chain.readers.remove(cell);
            }
        }
        txn.write_set.len()
    }

    /// Opens a standalone read snapshot of the latest committed state.
    pub fn snapshot(self: &Arc<Self>) -> crate::Snapshot {
        let epoch = self.epochs.register(&self.watermark);
        crate::Snapshot::new(Arc::clone(self), epoch)
    }

    pub(crate) fn release_snapshot(&self, epoch: EpochHandle) {
        self.epochs.unregister(epoch);
    }

    /// Number of live version records across all chains (diagnostics:
    /// one shard latch at a time, so approximate under concurrency —
    /// diagnostics never freeze every shard at once).
    pub fn live_versions(&self) -> usize {
        self.chains.sum(|_, chain| chain.records.len())
    }

    /// Number of live chains — objects', and the class chains of live
    /// class-granular SIREADs (diagnostics; approximate under
    /// concurrency, like [`MvccHeap::live_versions`]).
    pub fn live_chains(&self) -> usize {
        self.chains.sum(|_, _| 1)
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
    use super::reclaim::{RECLAIM_BATCH, RECLAIM_EVERY};
    use super::*;
    use finecc_model::{FieldType, Schema, SchemaBuilder};
    use finecc_obs::thread_slot;
    use std::sync::atomic::AtomicBool;
    use std::sync::atomic::AtomicUsize;

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
        heap.chains.check();
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
        heap.chains.check();
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
        let latches = Chains::latches();
        let ts = heap.commit(TxnId(1)).unwrap();
        assert_eq!(Chains::latches(), latches, "commit latched a chain shard");
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
        heap.chains.check();
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

    /// Every reclaim slot's queue is empty.
    fn slots_are_empty(heap: &MvccHeap) -> bool {
        heap.reclaim
            .iter()
            .all(|slot| slot.state.lock().queue.is_empty())
    }

    /// Live SIREAD entries: on the objects' chains, and on class chains.
    fn siread_entries(heap: &MvccHeap) -> (usize, usize) {
        let on = |class| {
            heap.chains
                .sum(|oid, c| c.readers.len() * usize::from(is_class_chain(oid) == class))
        };
        (on(false), on(true))
    }

    /// The heap's count of class chains.
    fn class_chains(heap: &MvccHeap) -> usize {
        heap.chains.class_chain_count()
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
                        let before = Chains::latches();
                        heap.commit_session(txn).unwrap();
                        // An unlogged commit latches no chain itself
                        // (`commit_is_atomic_across_objects`): whatever
                        // it took, its reclamation batch took.
                        let taken = Chains::latches() - before;
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
        heap.chains.check();
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
        heap.chains.check();
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
        heap.chains.check();
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
        heap.chains.check();
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
        heap.chains.check();
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
            heap.chains.check();
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
        heap.chains.check();
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
        heap.chains.check();
        // A rollback drops a class entry, and its chain, too.
        let mut aborted = heap.session(TxnId(100));
        heap.record_class_read(&mut aborted, a, [x]);
        assert_eq!(class_chains(&heap), 1);
        heap.abort_session(aborted);
        assert_eq!((siread_entries(&heap).1, class_chains(&heap)), (0, 0));
        heap.chains.check();
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
        heap.chains.check();
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
        let (heap, a, x, y) = serializable();
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
        let (heap, a, x, _) = serializable();
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
        heap.chains.check();
        heap.gc();
        assert_eq!((heap.live_chains(), siread_entries(&heap)), (0, (0, 0)));
        heap.chains.check();
    }
}

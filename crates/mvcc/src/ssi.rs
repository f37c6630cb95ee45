//! Serializable snapshot isolation: rw-antidependency tracking and
//! commit-time dangerous-structure validation, after Cahill, Röhm &
//! Fekete ("Serializable Isolation for Snapshot Databases", SIGMOD 2008).
//!
//! Plain snapshot isolation admits exactly one anomaly class: histories
//! whose serialization graph contains a cycle with two **consecutive
//! rw-antidependency edges** between concurrent transactions — the
//! *dangerous structure* `T_in ──rw──▶ T_pivot ──rw──▶ T_out`. The
//! tracker detects candidates with Cahill's two sticky flags per
//! transaction:
//!
//! * `in_conflict` — some concurrent transaction read a version this
//!   transaction overwrote (an incoming rw edge);
//! * `out_conflict` — this transaction read a version some concurrent
//!   transaction overwrote (an outgoing rw edge).
//!
//! A transaction that reaches commit with **both** flags set is a pivot
//! candidate and is aborted ([`SsiConflict`]). When an edge would turn an
//! already **committed** transaction into a pivot, it is too late to
//! abort the pivot, so the transaction *completing* the structure aborts
//! instead ([`SsiConflict::pivot`]). The tracker itself (`SsiTracker`)
//! is crate-internal; `finecc_mvcc::MvccHeap` drives it.
//!
//! # Status cells and the per-edge protocol
//!
//! Every tracked transaction owns one status cell (`TxnHandle`), shared
//! by the heap's registry, the transaction's session, every version
//! record it writes and every SIREAD entry it registers. The cell holds
//! the transaction's id, its atomic commit status — `LIVE` while it
//! runs, its commit timestamp once committed (a read-only transaction's
//! snapshot), `DEAD` once aborted — and Cahill's flags behind its own
//! small lock. There is no table of transactions: the check-and-mark
//! protocol lives on the cell (`mark`, `abort`, `read_edge`,
//! `validate_and_commit`), and `SsiTracker` keeps only what is shared —
//! the SIREAD registry, its pruning horizon and its count of class
//! lists — and is handed the cells it touches. The SIREAD registry is
//! sharded by OID (a class-granular key by its class), so no tracker
//! operation takes a global lock. The correctness argument leans on two
//! facts:
//!
//! 1. **A transaction's own thread is sequential.** Edge recording that
//!    a transaction performs for *itself* (its out-flag during a read,
//!    its in-flag after a write) is ordered before its own commit
//!    validation by program order; no lock is needed for that ordering.
//! 2. **Remote flag updates synchronize on the target's cell.** When
//!    transaction `A`'s thread updates transaction `B`'s flags (the
//!    writer's in-flag on the read side, the readers' out-flags on the
//!    write side), it locks `B`'s cell, and
//!    `TxnHandle::validate_and_commit` checks-and-marks `B`'s commit
//!    in one critical section on that same lock. A remote update
//!    therefore lands either *before* `B`'s pivot check (and is seen by
//!    it) or *after* `B` is properly committed (and takes the
//!    committed-pivot path, dooming the completing transaction).
//!
//! # Self-pruning SIREAD lists
//!
//! The status is stored only under the cell's lock (a
//! snapshot-isolation heap, which keeps no flags, stores its commit mark
//! without it), and it moves once, from `LIVE` — a commit refused by
//! the log after its mark moves on to `DEAD`. So whoever holds a SIREAD
//! list can tell, from one atomic load per entry and without a lock,
//! which of its readers can still take part in an edge:
//!
//! * **The lock-free skip.** A reader committed at or below the
//!   writer's snapshot is not concurrent with the writer (the writer's
//!   snapshot already contains everything it read): `write_edges`
//!   passes over it with that one load. Only a live reader, or one
//!   committed after the writer's snapshot, goes through the locked
//!   check-and-flag on its cell, which re-reads the status under the
//!   lock.
//! * **Lazy pruning.** An entry whose reader is `DEAD`, or committed at
//!   or below the tracker's cached horizon, can never yield an edge
//!   again: every live or future writer's snapshot already contains it.
//!   Both `record_read` (which also dedupes the reader) and
//!   `write_edges` drop such entries from the list they hold, so a
//!   field that is read *and* written keeps a list about as long as its
//!   number of concurrent readers. The horizon is the heap's
//!   `gc_horizon()`, raised with `fetch_max` by every reclamation batch
//!   — a horizon once computed stays a valid bound forever.
//! * **What `SsiTracker::purge` is still for.** Lists prune only when
//!   their field is touched again: the heap runs the purge every 64th
//!   commit of a slot (read-only ones included) and in every full `gc`
//!   to keep the registry bounded — including fields that are read and
//!   then never touched again. A cell is freed when the last record and
//!   the last SIREAD entry pointing at it go.
//!
//! # Class-granular SIREADs
//!
//! An extent message (`send_all`) reads the same fields of every
//! instance of its domain. Instead of one SIREAD per instance × field,
//! the runtime registers — before it lists the extent — one entry per
//! domain class `c` and field `f` of the method's transitive access
//! vector (TAV) on `c`, and then skips per-instance registration for a
//! read those entries *cover*: a field in that set, of an instance whose
//! class is one of them. The entries live in the same registry, keyed
//! `Class(c)` beside `Instance(oid)` as the lock table's `ResourceId`
//! is (`ReadKey`), and share its dedupe, horizon pruning, lock-free
//! skip and check-and-flag. A writer of `(oid, f)` probes
//! `(Class(class_of(oid)), f)` after `(Instance(oid), f)`.
//!
//! * **Soundness.** A read counts as covered only when its class and
//!   field were registered, so every edge a per-instance entry recorded
//!   is still recorded: a writer of that field of that instance finds
//!   the class entry instead. The TAV is a superset of what executes
//!   (`tests/props.rs` checks it), so a covered field is one the message
//!   may read and nothing it reads outside the set (a field reached
//!   through a reference, an instance outside the domain) loses its own
//!   entry. Extra edges come only from TAV fields the run did not read,
//!   or from instances created after the extent was listed. The read
//!   side is unchanged: a covered read still walks the chain and records
//!   an edge for every invisible version it steps past.
//! * **Register before walk.** The class entries are registered before
//!   the extent is read and so before any covered chain walk, which
//!   keeps the per-object argument of *the per-edge protocol*: a writer
//!   that installs before the scan's walk of an object is seen by the
//!   walk, and one that installs after it finds the class entry.
//! * **Probing only while one is live.** Writers read one counter of
//!   class lists in the registry and probe the class key only while it
//!   is non-zero; the counter changes only when a class list is added or
//!   removed, under that list's shard lock, so a write stores to no
//!   shared line for it. The scan's increment precedes its walk of every
//!   object and a writer's load follows its install, so the object's
//!   chain latch orders the two whenever the walk comes first. A class
//!   list is removed as soon as its last entry is pruned, and writers
//!   stop probing once the scan's reader falls below the horizon.
//!
//! # Safe snapshots
//!
//! Every anomaly snapshot isolation admits contains a dangerous
//! structure `T1 ──rw──▶ T2 ──rw──▶ T3` whose `T3` commits first (Ports
//! & Grittner, "Serializable Snapshot Isolation in PostgreSQL", PVLDB
//! 5(12), 2012, §4). When `T1` is read-only, `T3` committed no later
//! than `T1`'s snapshot, and then:
//!
//! * the pivot `T2` overwrote what `T1` read, so it committed after
//!   `T1`'s snapshot;
//! * `T2` read something `T3` overwrote, and `T3` committed after `T2`'s
//!   snapshot but no later than `T1`'s. So `T2`'s snapshot is older
//!   than `T1`'s, and `T2` was live when `T1` took its snapshot.
//!
//! A read-only transaction whose snapshot no live transaction predates
//! is therefore the `T1` of no anomaly, and, writing nothing, it is no
//! `T2` or `T3` either: it needs no SIREAD. Any transaction that begins
//! later has a snapshot at least as new as its own.
//!
//! * **The test.** `MvccHeap::begin` registers the snapshot epoch
//!   first, then loads the epoch table's per-shard minima (no lock).
//!   The transaction begins *safe* when no registered snapshot is older
//!   than its own and the watermark still equals its snapshot after
//!   that scan. A transaction the scan missed either registered during
//!   it — its confirming watermark read came after the scan began, so
//!   its snapshot is at least ours — or had already ended: an aborted
//!   one takes part in no edge, and a committed one unregisters only
//!   once its commit is published (the commit barrier; the chaos fault
//!   that disables it voids this too), so the watermark re-read, still
//!   at our snapshot, puts that commit at or below it. Safety is
//!   decided from the heap's own state; there is no option for it.
//! * **While safe.** A read registers nothing and records no read-side
//!   edge; it goes into the cell's read set (`Flags::safe_reads`, under
//!   the cell's own lock, which only the transaction's operations take
//!   while it is safe). No edge can reach a transaction that holds no
//!   SIREAD and wrote nothing, so a safe read-only commit validates
//!   nothing, and, registering nothing, it counts toward no reclamation
//!   cadence.
//! * **Conversion.** Before anything the transaction writes, the heap
//!   ends the safe snapshot (`MvccHeap::convert`, idempotent): it takes
//!   the read set, registers each entry as an ordinary SIREAD, then
//!   re-walks each entry's chain and records an edge to every
//!   overwriter it steps past. That is the register-then-walk argument
//!   of the per-edge protocol: a writer that installs after the
//!   registration finds the entry; one that installed before it is on
//!   the chain, and still is, because its commit lies above the
//!   reader's snapshot, which pins the horizon (or it aborted, and is
//!   owed no edge). The runtime converts
//!   before a top message whose transitive access vector writes, so a
//!   transaction that opens with an update registers its reads as a
//!   tracked one always did; `MvccHeap::write_at` converts too, for
//!   callers that drive the heap directly.
//! * **Why class reads convert.** `MvccHeap::record_class_read`
//!   converts before it registers: a read its entry covers registers
//!   nothing per instance and so has no place in a read set, and an
//!   extent scan stays tracked exactly as before.
//!
//! Cahill's flags are unchanged: a converted transaction carries the
//! flags its re-walk sets, and a safe one carries none.
//!
//! # Lock order
//!
//! At most one cell lock is held at any time (edge endpoints are
//! visited one after the other), so cell locks cannot deadlock among
//! themselves. The only nesting is **SIREAD shard → cell**:
//! `write_edges` runs each non-skipped reader's check-and-flag under
//! the shard it is walking. The writer's own in-flag is set after the
//! shard is dropped, and `record_read` takes the shard alone: the
//! reader hands in its cell. A class key sits in one SIREAD shard like
//! an instance key, and a writer's two probes take their shards one
//! after the other, never together. `purge` takes every shard alone.
//! A safe read takes its own cell's lock alone to note the read, and a
//! conversion takes it alone to end the read set, before it registers
//! and walks as a tracked read does. The order is never reversed.
//!
//! The reads feeding the tracker are the interpreter's field-granularity
//! footprints — the runtime projection of the paper's access vectors —
//! so a reader of `o.x` never conflicts with a writer of `o.y`, and an
//! extent message's reads are registered per class and TAV field: the
//! validation granularity matches the locking granularity of the TAV
//! scheme, instance and hierarchical class locks alike (Huang et al.
//! show granularity drives the false-positive rate). The flags
//! themselves are still conservative: one bit per direction, kept even
//! when the edge partner later aborts, so some serializable histories
//! abort (see `ROADMAP.md` for the precise, edge-list-based follow-up).
//! The tracker never blocks readers — it only records, which is why the
//! mvcc scheme's lock statistics stay identically zero under either
//! isolation level.
//!
//! # Observability probes
//!
//! The tracker itself carries no probes — its locks stay exactly as
//! analyzed above. The heap counts the transactions that begin safe
//! (`ssi_safe_snapshots`) at `begin`, under no lock. Validation time is
//! charged to the heap's `commit_ts_draw` histogram segment (the pivot
//! check is the commit mark, so the two are timed as one), and each
//! [`SsiConflict`] is attributed in the contention registry by the heap
//! *after* `validate_and_commit` returns — never from inside a cell
//! lock or SIREAD shard, so the probe cannot add an edge to the
//! lock-order argument. The abort is keyed to the transaction's first
//! written object when it has one, or recorded unattributed for a
//! read-only pivot.

use crate::Ts;
use finecc_model::{ClassId, FieldId, MulMap, Oid, TxnId};
use parking_lot::Mutex;
use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// How many mutexes the SIREAD registry is striped over.
const READER_SHARDS: usize = 32;

/// Commit status of a running transaction: above every timestamp.
pub(crate) const LIVE: Ts = Ts::MAX;

/// Commit status of an aborted transaction.
const DEAD: Ts = LIVE - 1;

/// The isolation level of an [`crate::MvccHeap`] — a first-class scheme
/// parameter (the runtime exposes one scheme entry per level).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum IsolationLevel {
    /// Plain snapshot isolation: first-updater-wins writes, infallible
    /// commit, write skew possible.
    #[default]
    Snapshot,
    /// Snapshot isolation plus commit-time dangerous-structure
    /// validation: serializable, at the price of validation aborts.
    Serializable,
}

impl IsolationLevel {
    /// Stable display name (`"snapshot"` / `"serializable"`).
    pub fn name(self) -> &'static str {
        match self {
            IsolationLevel::Snapshot => "snapshot",
            IsolationLevel::Serializable => "serializable",
        }
    }
}

impl std::fmt::Display for IsolationLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A commit was refused because the transaction sits in a dangerous
/// structure (two consecutive rw-antidependencies among concurrent
/// transactions). The transaction has been rolled back; retrying on a
/// fresh snapshot is the standard response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SsiConflict {
    /// The aborted transaction.
    pub txn: TxnId,
    /// `Some(p)` when the abort was forced because `p` — already
    /// committed — would otherwise become the pivot of a dangerous
    /// structure; `None` when the aborted transaction is itself the
    /// pivot candidate (both flags set).
    pub pivot: Option<TxnId>,
}

impl std::fmt::Display for SsiConflict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.pivot {
            Some(p) => write!(
                f,
                "ssi validation: {} completes a dangerous structure around committed pivot {p}",
                self.txn
            ),
            None => write!(
                f,
                "ssi validation: dangerous structure — {} carries both incoming and outgoing \
                 rw-antidependencies",
                self.txn
            ),
        }
    }
}

impl std::error::Error for SsiConflict {}

/// One transaction's status cell: its id, its commit status, and its
/// conflict flags. A writer's version records point at it, and every
/// SIREAD entry of a serializable reader is a clone of it (see the
/// module docs' *Status cells and the per-edge protocol*). While the
/// transaction runs on a safe snapshot the cell also holds its read set
/// (module docs, *Safe snapshots*).
#[derive(Debug)]
pub(crate) struct TxnHandle {
    pub(crate) txn: TxnId,
    /// `LIVE`, the commit timestamp, or `DEAD` (module docs,
    /// *Self-pruning SIREAD lists*). Stored with `Release`, loaded with
    /// `Acquire`; it publishes nothing but itself. A snapshot at or
    /// above a commit timestamp sees its mark through the watermark,
    /// whose `SeqCst` publish follows the store; a load that misses a
    /// store sees `LIVE`, and the tracker re-reads it under `flags`.
    status: AtomicU64,
    /// Whether `flags.safe_reads` is `Some`, readable without the lock:
    /// a tracked read pays one load for it. `Relaxed`: it publishes
    /// nothing (the read set is read under the lock, and a stale `true`
    /// finds `None` there), and only the transaction's own operations
    /// store it, once, at conversion.
    safe: AtomicBool,
    /// Cahill's sticky flags, kept under the cell's own lock.
    flags: Mutex<Flags>,
}

/// The conflict flags of one transaction.
#[derive(Debug, Default)]
struct Flags {
    /// An incoming rw edge exists: a concurrent transaction read a
    /// version this one overwrote.
    in_conflict: bool,
    /// An outgoing rw edge exists: this transaction read a version a
    /// concurrent transaction overwrote.
    out_conflict: bool,
    /// Set when an edge completed a dangerous structure around an
    /// already-committed pivot; the named pivot cannot be aborted, so
    /// this transaction must be.
    doomed_by: Option<TxnId>,
    /// `Some` while the transaction runs on a safe snapshot: the fields
    /// it has read, none of them registered (module docs, *Safe
    /// snapshots*).
    safe_reads: Option<Vec<(Oid, FieldId)>>,
}

impl TxnHandle {
    /// A live tracked transaction's cell.
    pub(crate) fn new(txn: TxnId) -> TxnHandle {
        TxnHandle {
            txn,
            status: AtomicU64::new(LIVE),
            safe: AtomicBool::new(false),
            flags: Mutex::default(),
        }
    }

    /// The cell of a live transaction that begins on a safe snapshot.
    pub(crate) fn safe(txn: TxnId) -> TxnHandle {
        TxnHandle {
            txn,
            status: AtomicU64::new(LIVE),
            safe: AtomicBool::new(true),
            flags: Mutex::new(Flags {
                safe_reads: Some(Vec::new()),
                ..Flags::default()
            }),
        }
    }

    /// Whether the transaction still runs on a safe snapshot.
    #[inline]
    pub(crate) fn is_safe(&self) -> bool {
        self.safe.load(Ordering::Relaxed)
    }

    /// Adds a read of `field` of `oid` to a safe transaction's read set
    /// and returns `true`; returns `false`, noting nothing, once the
    /// transaction is tracked and the read must register its SIREAD.
    #[inline]
    pub(crate) fn note_safe_read(&self, oid: Oid, field: FieldId) -> bool {
        if !self.is_safe() {
            return false;
        }
        match &mut self.flags.lock().safe_reads {
            Some(reads) => {
                reads.push((oid, field));
                true
            }
            None => false,
        }
    }

    /// Ends the safe snapshot: returns the read set for the caller to
    /// register, or `None` when the transaction is tracked already.
    pub(crate) fn take_safe_reads(&self) -> Option<Vec<(Oid, FieldId)>> {
        if !self.is_safe() {
            return None;
        }
        let reads = self.flags.lock().safe_reads.take();
        self.safe.store(false, Ordering::Relaxed);
        reads
    }

    /// The commit status: `LIVE`, the commit timestamp, or `DEAD`.
    #[inline]
    pub(crate) fn status(&self) -> Ts {
        self.status.load(Ordering::Acquire)
    }

    /// The snapshot-isolation commit mark: no flags, no validation.
    pub(crate) fn mark(&self, ts: Ts) {
        self.status.store(ts, Ordering::Release);
    }

    /// Ends the transaction as aborted: its versions read as
    /// uncommitted until rolled back, and its SIREAD entries go the next
    /// time their lists are walked. Flags it set on OTHER transactions
    /// stay set (sticky, conservatively), matching Cahill's original
    /// formulation.
    pub(crate) fn abort(&self) {
        let _flags = self.flags.lock();
        self.status.store(DEAD, Ordering::Release);
    }

    /// Marks the rw edge `self ──rw──▶ writer`, discovered on the read
    /// side: this reader reconstructed a version of a field that `writer`
    /// has overwritten (pending, or committed after the reader's
    /// snapshot). Called by the **reader's own thread**, so the
    /// reader-side flag lands before the reader's own validation by
    /// program order; the writer's cell is locked to make the
    /// check-and-mark against the writer's commit status atomic.
    /// Returns the number of edges recorded (0 or 1).
    pub(crate) fn read_edge(&self, writer: &TxnHandle) -> u64 {
        if std::ptr::eq(self, writer) {
            return 0;
        }
        // An aborted writer's in-flag lands where nobody reads it.
        let writer_committed_pivot = {
            let mut w = writer.flags.lock();
            w.in_conflict = true;
            committed(writer.status()).is_some() && w.out_conflict
        };
        let mut r = self.flags.lock();
        r.out_conflict = true;
        if writer_committed_pivot && r.doomed_by.is_none() {
            // `writer` is committed with both flags: it is a pivot we
            // can no longer abort, so the completing side must go.
            r.doomed_by = Some(writer.txn);
        }
        1
    }

    /// Commit-time validation, atomic with the commit mark **per
    /// transaction**: the check and the mark happen in one critical
    /// section on the transaction's own cell, so an edge discovered by
    /// a concurrent transaction lands either before the check or
    /// against a properly committed transaction — never in between.
    /// Only the one cell is locked; validations of other transactions
    /// proceed in parallel.
    pub(crate) fn validate_and_commit(&self, commit_ts: Ts) -> SsiVerdict {
        let f = self.flags.lock();
        let pivot = match f.doomed_by {
            Some(p) => Some(p),
            None if f.in_conflict && f.out_conflict => None,
            None => {
                self.status.store(commit_ts, Ordering::Release);
                return SsiVerdict::Committed;
            }
        };
        self.status.store(DEAD, Ordering::Release);
        SsiVerdict::Abort(SsiConflict {
            txn: self.txn,
            pivot,
        })
    }

    /// Whether a SIREAD entry of this transaction can still yield an
    /// edge against some live or future writer, given a horizon every
    /// such writer's snapshot contains. `DEAD` and `LIVE` sit above any
    /// timestamp, so one comparison handles committed entries.
    #[inline]
    fn may_conflict(&self, horizon: Ts) -> bool {
        let c = self.status();
        c > horizon && c != DEAD
    }
}

/// The commit timestamp a status holds, or `None` while the transaction
/// is live or once it aborted.
#[inline]
pub(crate) fn committed(status: Ts) -> Option<Ts> {
    Some(status).filter(|&c| c < DEAD)
}

/// What one SIREAD list is about, keyed as the lock table's
/// `ResourceId` is: a field of one instance, or — a class-granular
/// entry (see the module docs) — that field of every instance of a
/// class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum ReadKey {
    Instance(Oid),
    Class(ClassId),
}

/// The SIREAD registry: which transactions have read which field,
/// striped by OID (a class key by its class). Each entry is the
/// reader's cell, so a list holder sees every reader's commit status
/// and reaches its flags.
type ReaderShard = Mutex<MulMap<(ReadKey, FieldId), Vec<Arc<TxnHandle>>>>;

/// The rw-antidependency tracker of a Serializable-level heap.
///
/// Writers consult the SIREAD registry *after* installing their pending
/// version; readers register *before* walking the version chain. Either
/// the reader's chain walk sees the writer's record (the read side marks
/// the edge) or the writer's registry scan sees the reader (the write
/// side marks it) — the edge can never fall between the two.
#[derive(Debug)]
pub(crate) struct SsiTracker {
    /// SIREAD registry: who has read which field, striped by OID.
    readers: Box<[ReaderShard]>,
    /// The highest GC horizon the heap has reported: a transaction
    /// committed at or below it is concurrent with no live or future
    /// one, so its SIREAD entries may be dropped. `Relaxed`: every value
    /// it ever held is a valid bound, and it publishes no other data.
    horizon: AtomicU64,
    /// How many class-keyed lists the registry holds; writers probe a
    /// class key only while it is non-zero. Changed only under the
    /// shard lock that adds or removes such a list (`Release`), loaded
    /// by every writer (`Acquire`; the module docs' *Probing only while
    /// one is live* gives the ordering the probe relies on). Unpadded,
    /// like `horizon`: both are read by every writer and written
    /// rarely.
    class_lists: AtomicUsize,
}

/// What [`TxnHandle::validate_and_commit`] decided.
pub(crate) enum SsiVerdict {
    /// No dangerous structure: the transaction was atomically marked
    /// committed at the given timestamp.
    Committed,
    /// Dangerous structure: the transaction was marked `DEAD`, and the
    /// caller must roll it back.
    Abort(SsiConflict),
}

impl SsiTracker {
    pub(crate) fn new() -> SsiTracker {
        let readers = (0..READER_SHARDS)
            .map(|_| Mutex::new(MulMap::default()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        SsiTracker {
            readers,
            horizon: AtomicU64::new(0),
            class_lists: AtomicUsize::new(0),
        }
    }

    #[inline]
    fn reader_shard(&self, key: ReadKey) -> &ReaderShard {
        let i = match key {
            ReadKey::Instance(oid) => oid.raw() as usize,
            ReadKey::Class(class) => class.index(),
        };
        &self.readers[i % READER_SHARDS]
    }

    /// Whether the registry holds a class-keyed list, i.e. whether a
    /// writer must probe its object's class as well as the object.
    #[inline]
    pub(crate) fn has_class_reads(&self) -> bool {
        self.class_lists.load(Ordering::Acquire) > 0
    }

    /// Raises the pruning horizon to `horizon` (a [`crate::MvccHeap`]
    /// GC horizon; a stale one merely prunes less) and returns the
    /// horizon now in force. Loads first, so a batch whose horizon is
    /// not newer writes nothing to the word every client reads.
    pub(crate) fn raise_horizon(&self, horizon: Ts) -> Ts {
        let now = self.horizon.load(Ordering::Relaxed);
        if horizon <= now {
            return now;
        }
        self.horizon
            .fetch_max(horizon, Ordering::Relaxed)
            .max(horizon)
    }

    /// Registers a SIREAD: `reader` is about to read `field` of `key`
    /// (of every instance of a `Class` key). Must run BEFORE the
    /// version-chain walks it covers. Drops the list's entries that can
    /// no longer yield an edge on the way, and registers `reader` at
    /// most once — an aborted one not at all.
    pub(crate) fn record_read(&self, reader: &Arc<TxnHandle>, key: ReadKey, field: FieldId) {
        let horizon = self.horizon.load(Ordering::Relaxed);
        let mut shard = self.reader_shard(key).lock();
        let entries = match shard.entry((key, field)) {
            Entry::Occupied(list) => list.into_mut(),
            Entry::Vacant(slot) => {
                if let ReadKey::Class(_) = key {
                    self.class_lists.fetch_add(1, Ordering::Release);
                }
                slot.insert(Vec::new())
            }
        };
        let mut registered = false;
        entries.retain(|r| {
            registered |= Arc::ptr_eq(r, reader);
            r.may_conflict(horizon)
        });
        if !registered && reader.may_conflict(horizon) {
            entries.push(Arc::clone(reader));
        }
    }

    /// Marks every rw edge `R ──rw──▶ writer` for concurrent readers `R`
    /// of `field` of `key`, discovered on the write side. Must run AFTER
    /// the writer's pending version is installed. Called by the
    /// **writer's own thread**, walking the field's SIREAD list in place
    /// under its shard: a reader committed at or below the writer's
    /// snapshot is skipped on its status alone, an entry that can no
    /// longer yield an edge is dropped, and every other reader's cell
    /// is locked for the concurrency test plus out-flag (atomic against
    /// that reader's validation). A class list left empty is removed, so
    /// writers stop probing class keys once none is live. The writer's
    /// own in-flag lands before its own validation by program order.
    /// Returns the number of edges recorded.
    pub(crate) fn write_edges(
        &self,
        writer: &TxnHandle,
        writer_snapshot: Ts,
        key: ReadKey,
        field: FieldId,
    ) -> u64 {
        let horizon = self.horizon.load(Ordering::Relaxed);
        let mut edges = 0;
        let mut doom: Option<TxnId> = None;
        {
            let mut shard = self.reader_shard(key).lock();
            let Some(readers) = shard.get_mut(&(key, field)) else {
                return 0;
            };
            readers.retain(|reader| {
                if std::ptr::eq(&**reader, writer) {
                    return true;
                }
                let status = reader.status();
                if status == DEAD || status <= horizon {
                    return false;
                }
                // Committed no later than the writer's snapshot: the
                // snapshot contains everything it read — plain wr
                // ordering, not an antidependency.
                if status <= writer_snapshot {
                    return true;
                }
                let mut f = reader.flags.lock();
                // Concurrency, re-read under the reader's lock: a live
                // reader overlaps the live writer by definition; a
                // committed reader overlaps iff the writer's snapshot
                // predates the reader's commit; an aborted one yields
                // no edge, now or ever.
                let status = reader.status();
                if status == DEAD {
                    return false;
                }
                let committed = committed(status);
                if committed.is_some_and(|c| c <= writer_snapshot) {
                    return true;
                }
                f.out_conflict = true;
                edges += 1;
                if committed.is_some() && f.in_conflict {
                    doom = Some(reader.txn);
                }
                true
            });
            if readers.is_empty() && matches!(key, ReadKey::Class(_)) {
                shard.remove(&(key, field));
                self.class_lists.fetch_sub(1, Ordering::Release);
            }
        }
        if edges > 0 {
            let mut w = writer.flags.lock();
            w.in_conflict = true;
            if let Some(p) = doom {
                if w.doomed_by.is_none() {
                    w.doomed_by = Some(p);
                }
            }
        }
        edges
    }

    /// Raises the horizon to `horizon` (see
    /// [`SsiTracker::raise_horizon`]) and drops every SIREAD
    /// registration that can no longer participate in an edge: those of
    /// transactions committed at or below the horizon (every live or
    /// future transaction's snapshot already contains them, so no
    /// further concurrency is possible), and those of aborted ones.
    /// This is what bounds the lists of fields nobody touches again;
    /// lists in use prune themselves.
    ///
    /// Runs shard-at-a-time, one lock at a time — no global lock and
    /// no nesting: a SIREAD entry's fate is read off its cell.
    pub(crate) fn purge(&self, horizon: Ts) {
        let horizon = self.raise_horizon(horizon);
        for shard in self.readers.iter() {
            let mut shard = shard.lock();
            let mut class_lists = 0;
            shard.retain(|&(key, _), rs| {
                rs.retain(|r| r.may_conflict(horizon));
                let dropped = rs.is_empty();
                if dropped && matches!(key, ReadKey::Class(_)) {
                    class_lists += 1;
                }
                !dropped
            });
            if class_lists > 0 {
                self.class_lists.fetch_sub(class_lists, Ordering::Release);
            }
        }
    }

    /// Number of live SIREAD registrations: instance-keyed and
    /// class-keyed.
    #[cfg(test)]
    pub(crate) fn siread_entries(&self) -> (usize, usize) {
        let mut counts = (0, 0);
        for shard in self.readers.iter() {
            for (&(key, _), rs) in shard.lock().iter() {
                match key {
                    ReadKey::Instance(_) => counts.0 += rs.len(),
                    ReadKey::Class(_) => counts.1 += rs.len(),
                }
            }
        }
        counts
    }

    /// Length of the SIREAD list of `field` of `key`.
    #[cfg(test)]
    pub(crate) fn siread_len(&self, key: ReadKey, field: FieldId) -> usize {
        self.reader_shard(key)
            .lock()
            .get(&(key, field))
            .map_or(0, Vec::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ReadKey::Instance;

    /// A live transaction's cell.
    fn live(txn: u64) -> Arc<TxnHandle> {
        Arc::new(TxnHandle::new(TxnId(txn)))
    }

    #[test]
    fn isolation_level_names() {
        assert_eq!(IsolationLevel::Snapshot.to_string(), "snapshot");
        assert_eq!(IsolationLevel::Serializable.name(), "serializable");
        assert_eq!(IsolationLevel::default(), IsolationLevel::Snapshot);
    }

    #[test]
    fn conflict_display_mentions_dangerous_structure() {
        let own = SsiConflict {
            txn: TxnId(1),
            pivot: None,
        };
        assert!(own.to_string().contains("dangerous structure"));
        let completing = SsiConflict {
            txn: TxnId(1),
            pivot: Some(TxnId(2)),
        };
        assert!(completing.to_string().contains("committed pivot"));
    }

    #[test]
    fn pivot_with_both_flags_aborts_at_commit() {
        let t = SsiTracker::new();
        let (t1, t2, t3) = (live(1), live(2), live(3));
        let oid = Instance(Oid(1));
        let f = FieldId(0);
        // T2 reads; T3 overwrites what T2 read; T1 reads what T2 wrote…
        t.record_read(&t2, oid, f);
        assert_eq!(t.write_edges(&t3, 0, oid, f), 1); // T2 → T3
        assert_eq!(t1.read_edge(&t2), 1); // T1 → T2
                                          // …so T2 is the pivot: in (from T1) and out (to T3).
        match t2.validate_and_commit(7) {
            SsiVerdict::Abort(c) => {
                assert_eq!(c.txn, t2.txn);
                assert_eq!(c.pivot, None);
            }
            SsiVerdict::Committed => panic!("pivot must abort"),
        }
        assert_eq!(t2.status(), DEAD);
        // The other two carry one flag each and commit fine.
        assert!(matches!(t1.validate_and_commit(8), SsiVerdict::Committed));
        assert!(matches!(t3.validate_and_commit(9), SsiVerdict::Committed));
        assert_eq!((t1.status(), t3.status()), (8, 9));
    }

    #[test]
    fn committed_pivot_dooms_the_completing_transaction() {
        let t = SsiTracker::new();
        let (t1, t3) = (live(1), live(3));
        let oid = Instance(Oid(4));
        let f = FieldId(1);
        // T1 reads (oid, f) at snapshot 0 and gains an IN edge: T3 read
        // something T1 overwrote (T3 → T1). T1 then commits — one flag
        // only, so commit succeeds.
        t.record_read(&t1, oid, f);
        t3.read_edge(&t1);
        assert!(matches!(t1.validate_and_commit(5), SsiVerdict::Committed));
        // T4 (snapshot 0, concurrent with T1's commit at 5) overwrites
        // what T1 read: edge T1 → T4 gives committed T1 its OUT flag —
        // T1 is now a pivot nobody can abort, so T4 is doomed.
        let t4 = live(4);
        assert_eq!(t.write_edges(&t4, 0, oid, f), 1, "edge from committed T1");
        match t4.validate_and_commit(6) {
            SsiVerdict::Abort(c) => assert_eq!(c.pivot, Some(t1.txn)),
            SsiVerdict::Committed => panic!("completing txn must abort"),
        }
    }

    #[test]
    fn non_concurrent_committed_reader_creates_no_edge() {
        let t = SsiTracker::new();
        let t1 = live(1);
        t.record_read(&t1, Instance(Oid(9)), FieldId(0));
        assert!(matches!(t1.validate_and_commit(3), SsiVerdict::Committed));
        // A writer whose snapshot (5) already includes T1's commit (3):
        // plain wr ordering, not an antidependency.
        let t2 = live(2);
        assert_eq!(t.write_edges(&t2, 5, Instance(Oid(9)), FieldId(0)), 0);
        assert!(matches!(t2.validate_and_commit(6), SsiVerdict::Committed));
    }

    #[test]
    fn lists_dedupe_and_drop_readers_below_the_horizon() {
        let t = SsiTracker::new();
        let (oid, f) = (Instance(Oid(5)), FieldId(0));
        let t1 = live(1);
        t.record_read(&t1, oid, f);
        t.record_read(&t1, oid, f);
        assert_eq!(t.siread_len(oid, f), 1, "one entry per reader");
        assert!(matches!(t1.validate_and_commit(2), SsiVerdict::Committed));
        let t2 = live(2);
        t.record_read(&t2, oid, f);
        // A writer whose snapshot contains T1's commit passes over T1
        // (kept: an older-snapshot writer may still need it) and finds
        // the live T2.
        assert_eq!(t.write_edges(&live(3), 2, oid, f), 1);
        assert_eq!(t.siread_len(oid, f), 2);
        // Once the horizon passes T1's commit, the next touch drops it.
        t.raise_horizon(2);
        t.record_read(&live(4), oid, f);
        assert_eq!(t.siread_len(oid, f), 2, "T2 and T4");
        assert_eq!(Arc::strong_count(&t1), 1, "T1's cell is ours alone");
    }

    #[test]
    fn aborted_readers_leave_no_edges_and_purge_drains() {
        let t = SsiTracker::new();
        let t1 = live(1);
        t.record_read(&t1, Instance(Oid(2)), FieldId(0));
        t1.abort();
        // An aborted reader registers nothing more.
        t.record_read(&t1, Instance(Oid(4)), FieldId(0));
        let t2 = live(2);
        t.record_read(&t2, Instance(Oid(3)), FieldId(0));
        // The writer's scan finds the aborted reader's entry and drops
        // it: no edge, and no entry left for anyone to scan again.
        assert_eq!(t.write_edges(&t2, 0, Instance(Oid(2)), FieldId(0)), 0);
        assert_eq!(t.siread_len(Instance(Oid(2)), FieldId(0)), 0);
        assert_eq!(Arc::strong_count(&t1), 1, "the tracker let go of T1");
        assert!(matches!(t2.validate_and_commit(1), SsiVerdict::Committed));
        // What the purge is still for: the committed transaction's
        // SIREAD of a field nobody touched again, and with it the last
        // reference the tracker held to its cell.
        assert_eq!(t.siread_entries(), (1, 0));
        assert_eq!(Arc::strong_count(&t2), 2);
        t.purge(10);
        assert_eq!(t.siread_entries(), (0, 0));
        assert_eq!(Arc::strong_count(&t2), 1);
    }

    #[test]
    fn purge_keeps_sireads_of_live_transactions() {
        let t = SsiTracker::new();
        let t1 = live(1);
        t.record_read(&t1, Instance(Oid(3)), FieldId(0));
        // T1 is live: horizon way past anything must not drop its
        // registration (only ended transactions are purged).
        t.purge(1_000);
        assert_eq!(t.siread_entries(), (1, 0));
        assert_eq!(Arc::strong_count(&t1), 2, "the list still holds T1");
    }

    #[test]
    fn class_lists_are_probed_only_while_one_is_registered() {
        let t = SsiTracker::new();
        let class = ReadKey::Class(ClassId::from_index(2));
        let f = FieldId(1);
        assert!(!t.has_class_reads());
        let t1 = live(1);
        t.record_read(&t1, class, f);
        t.record_read(&t1, class, f);
        assert_eq!(t.siread_entries(), (0, 1), "one entry, deduped");
        assert!(t.has_class_reads());
        // A concurrent writer finds the reader on the class key, not on
        // an instance key nobody registered.
        let t2 = live(2);
        assert_eq!(t.write_edges(&t2, 0, Instance(Oid(9)), f), 0);
        assert_eq!(t.write_edges(&t2, 0, class, f), 1);
        assert!(matches!(t1.validate_and_commit(1), SsiVerdict::Committed));
        // Once the horizon passes the reader, the next probe drops the
        // entry and the list with it: writers stop probing.
        t.raise_horizon(1);
        assert_eq!(t.write_edges(&live(3), 1, class, f), 0);
        assert_eq!(t.siread_entries(), (0, 0));
        assert!(!t.has_class_reads());
        // The purge removes a class list nobody probes again.
        let t4 = live(4);
        t.record_read(&t4, class, FieldId(2));
        assert!(t.has_class_reads());
        assert!(matches!(t4.validate_and_commit(2), SsiVerdict::Committed));
        t.purge(2);
        assert!(!t.has_class_reads());
    }
}

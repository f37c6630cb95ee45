//! Serializable snapshot isolation: rw-antidependency tracking and
//! commit-time dangerous-structure validation, after Cahill, Röhm &
//! Fekete ("Serializable Isolation for Snapshot Databases", SIGMOD 2008).
//!
//! Plain snapshot isolation admits exactly one anomaly class: histories
//! whose serialization graph contains a cycle with two **consecutive
//! rw-antidependency edges** between concurrent transactions — the
//! *dangerous structure* `T_in ──rw──▶ T_pivot ──rw──▶ T_out`. The
//! heap detects candidates with Cahill's two sticky flags per
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
//! instead ([`SsiConflict::pivot`]). The protocol lives on each
//! transaction's status cell (`TxnHandle`) and on the SIREAD lists
//! (`Sireads`), both crate-internal; `finecc_mvcc::MvccHeap` drives them.
//!
//! # Status cells and the per-edge protocol
//!
//! Every tracked transaction owns one status cell (`TxnHandle`), shared
//! by the heap's registry, its session, every version record it writes
//! and every SIREAD entry it registers. The cell holds the id, the
//! atomic commit status — `LIVE` while it runs, its commit timestamp
//! once committed (a read-only transaction's snapshot), `DEAD` once
//! aborted — and Cahill's flags behind its own small lock. There is no
//! table of transactions: the check-and-mark protocol lives on the cell
//! (`mark`, `abort`, `read_edge`, `flag_readers`,
//! `validate_and_commit`). A SIREAD entry lives beside the data it
//! guards, as Larson et al. keep a transaction's state with its
//! versions: an instance read is registered on the object's version
//! chain (`MvccHeap::register_reads`), an extent read on its class's
//! chain (`MvccHeap::record_class_read`), and the heap keeps the pruning
//! horizon. The correctness argument leans on three facts:
//!
//! 1. **A transaction's own thread is sequential.** Edge recording that
//!    a transaction performs for *itself* (its out-flag during a read,
//!    its in-flag after a write) is ordered before its own commit
//!    validation by program order.
//! 2. **Registration and install serialize on the chain latch.** A
//!    top message registers `(its cell, the fields it may read)` on its
//!    receiver's chain under the exclusive latch before it reads
//!    anything, and a writer collects the concurrent readers of its
//!    field under that latch, in the critical section of its install.
//!    Whichever came first decides who records the edge: a writer that
//!    installed first is on the chain when each of the reader's walks
//!    steps past it (the read side marks the edge); one that installs
//!    after finds the entry (the write side marks it).
//! 3. **Remote flag updates synchronize on the target's cell.** When
//!    `A`'s thread updates `B`'s flags (the writer's in-flag on the read
//!    side, the readers' out-flags on the write side), it locks `B`'s
//!    cell, and `validate_and_commit` checks-and-marks `B`'s commit in
//!    one critical section on that lock. A remote update lands either
//!    *before* `B`'s pivot check (and is seen by it) or *after* `B` is
//!    committed (and takes the committed-pivot path, dooming the
//!    completing transaction) — so a writer may flag the readers it
//!    collected after dropping the latch.
//!
//! # Self-pruning SIREAD lists
//!
//! The status is stored only under the cell's lock (a snapshot-isolation
//! heap, which keeps no flags, stores its mark without it), and it moves
//! once, from `LIVE` — a commit refused by the log after its mark moves
//! on to `DEAD`. So whoever holds a SIREAD list — an object's or a
//! class's chain, under its latch — tells from one atomic load per entry
//! which readers can still take part in an edge
//! (`Sireads::overlapping`):
//!
//! * **The lock-free skip.** A reader committed at or below the writer's
//!   snapshot is not concurrent with it: the writer passes over it. Only
//!   a live reader, or one committed after the writer's snapshot, is
//!   collected for the locked check-and-flag (`flag_readers`), which
//!   re-reads the status under the reader's lock.
//! * **Lazy pruning.** An entry whose reader is `DEAD`, or committed at
//!   or below the cached horizon, can never yield an edge again: every
//!   live or future writer's snapshot contains it. Registering (which
//!   also dedupes: one entry per reader and chain, widened by later
//!   messages), collecting and reclamation's `Chain::prune` drop such
//!   entries. The horizon is the heap's `gc_horizon()`, raised with
//!   `fetch_max` by every reclamation pass; once computed it stays a
//!   valid bound forever.
//! * **Reader-only chains.** A tracked commit queues the chains it
//!   registered on, class chains included, in its own slot's reclaim
//!   queue, and a rollback drops its own entries, so a chain only readers
//!   kept goes without a full sweep. A cell is freed when the last record
//!   and SIREAD entry pointing at it go.
//!
//! # Class-granular SIREADs
//!
//! An extent message (`send_all`) reads the same fields of every
//! instance of its domain. Before it lists the extent the runtime
//! registers one entry per domain class `c`, for the fields of the
//! method's transitive access vector (TAV) on `c`, on `c`'s *class
//! chain*: a chain in the same maps as the objects', keyed at the top of
//! the OID space, which the store never allocates. A message to an
//! instance whose class and whole vector those entries *cover* registers
//! nothing on its own chain. A writer of `(oid, f)` collects its chain's
//! readers, drops that latch, and collects the readers of `f` on
//! `class_of(oid)`'s chain under that chain's latch; it flags both in
//! one list. A class entry is an object's entry in every other respect:
//! it joins the reader's read set, and shares the dedupe, the pruning,
//! the queueing at commit, the rollback, the skip and the
//! check-and-flag.
//!
//! * **Soundness.** A writer of a covered field of a covered instance
//!   finds the class entry instead of one on the object's chain. A
//!   message outside the set (one sent through a reference to an
//!   instance outside the domain) registers on its own receiver. Extra
//!   edges come only from TAV fields the run did not read, or from
//!   instances created after the extent was listed.
//! * **Register before walk.** The class entries precede every covered
//!   walk, which keeps fact 2 per object: a writer that installs before
//!   the scan's walk is seen by it, and one that installs after finds
//!   the class entry.
//! * **Probing only while one exists.** Writers probe their object's
//!   class chain only while the heap's count of class chains is
//!   non-zero, so a write stores to no shared line for it. The count
//!   changes only under the exclusive latch of the shard that inserts a
//!   class chain (registration) or removes one (once its last entry is
//!   pruned or rolled back), so it equals the number of class chains in
//!   the maps at every point of its modification order. A scan's class
//!   chain exists from its registration, which precedes its walk of
//!   every object, until its entry is dropped, which needs it to be
//!   `DEAD` or below the horizon. A writer's load follows its install,
//!   so whenever the walk came first the object's chain latch orders the
//!   registration before the load, and the load sees a non-zero count
//!   while the scan can still take part in an edge; the class chain's
//!   latch, taken after that load, then orders the writer's collection
//!   after the registration.
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
//! `T2` or `T3` either: it needs no SIREAD.
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
//!   at our snapshot, puts that commit at or below it.
//! * **While safe.** A registration only notes its object and fields in
//!   the cell's read set (`Flags::safe_reads`, under the cell's own
//!   lock, which only the transaction's operations take while it is
//!   safe), and reads record no edge. No edge can reach a transaction
//!   that holds no SIREAD and wrote nothing, so a safe read-only commit
//!   validates nothing and touches no reclamation state.
//! * **Conversion.** Before anything the transaction writes, the heap
//!   ends the safe snapshot (`MvccHeap::convert`, idempotent): it
//!   registers each read-set entry on its chain, then re-walks those
//!   chains and records an edge to every writer of an invisible version
//!   of a field in the entry. That is fact 2 again: a writer installing
//!   after the registration finds the entry; one that installed before
//!   is still on the chain, as its commit lies above the reader's
//!   snapshot, which pins the horizon (or it aborted, and is owed no
//!   edge). The runtime converts before a top message whose vector
//!   writes; `MvccHeap::write_at` and `MvccHeap::record_class_read`
//!   convert too (a class entry has no place in a read set).
//!
//! # Lock order
//!
//! At most one cell lock is held at any time, and none under a chain
//! latch: a writer clones the cells of the readers it collected, on its
//! object's chain and then on its class's, and flags them after dropping
//! the last latch, its own in-flag last. At most one chain latch is held
//! at a time, a class chain's included. A safe registration and a
//! conversion take their own cell's lock alone.
//!
//! The SIREADs are the paper's access vectors: a top message registers
//! on its receiver the fields its TAV may touch (`Write`-mode ones
//! included, as a write may follow a read) — what the TAV scheme locks —
//! and an extent message its class and TAV fields, like the
//! hierarchical class locks. Huang et al. show validation granularity
//! drives the false-positive rate: a TAV over-approximates a method
//! with branches, so its untaken reads can add edges. The flags are
//! conservative too: one bit per direction, kept even when the edge
//! partner later aborts (see `ROADMAP.md` for the edge-list follow-up).
//! SSI never blocks readers — it only records, which is why the mvcc
//! scheme's lock statistics stay zero under either isolation level.
//!
//! # Observability probes
//!
//! The cells and lists carry no probes. The heap counts the
//! transactions that begin safe (`ssi_safe_snapshots`) and the
//! registrations (`ssi_registrations`: one per top message, or per
//! domain class of an extent message), after dropping the latch they
//! took. Validation time
//! is charged to the `commit_ts_draw` histogram segment (the pivot
//! check is the commit mark), and each [`SsiConflict`] is attributed in
//! the contention registry *after* `validate_and_commit` returns — never
//! inside a cell lock or chain latch — keyed to the transaction's first
//! written object, or unattributed for a read-only pivot.

use crate::Ts;
use finecc_model::{FieldId, Oid, TxnId};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

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
    /// store sees `LIVE`, and `flag_readers` re-reads it under `flags`.
    status: AtomicU64,
    /// Whether `flags.safe_reads` is `Some`, readable without the lock:
    /// a tracked registration pays one load for it. `Relaxed`: it
    /// publishes nothing (the read set is read under the lock, and a
    /// stale `true` finds `None` there), and only the transaction's own
    /// operations store it, once, at conversion.
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
    /// `Some` while the transaction runs on a safe snapshot: the objects
    /// it has registered reads on and the fields of each (a chain
    /// reader's field set), none of them registered (module docs, *Safe
    /// snapshots*).
    safe_reads: Option<Vec<(Oid, u64)>>,
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

    /// Adds reads of `fields` of `oid` to a safe transaction's read set
    /// and returns `true`; returns `false`, noting nothing, once the
    /// transaction is tracked and must register them on the chain.
    #[inline]
    pub(crate) fn note_safe_reads(&self, oid: Oid, fields: u64) -> bool {
        if !self.is_safe() {
            return false;
        }
        match &mut self.flags.lock().safe_reads {
            Some(reads) => {
                reads.push((oid, fields));
                true
            }
            None => false,
        }
    }

    /// Ends the safe snapshot: returns the read set for the caller to
    /// register, or `None` when the transaction is tracked already.
    pub(crate) fn take_safe_reads(&self) -> Option<Vec<(Oid, u64)>> {
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

    /// Marks every rw edge `R ──rw──▶ self` for the `readers` a scan of
    /// the SIREAD entries of a field this writer wrote collected
    /// ([`TxnHandle::overlaps`]), discovered on the write side. Called
    /// by the **writer's own thread**, under no latch: each reader's
    /// cell is locked for the concurrency test plus out-flag (atomic
    /// against that reader's validation), and the writer's own in-flag
    /// lands before its own validation by program order. Returns the
    /// number of edges recorded.
    pub(crate) fn flag_readers(&self, writer_snapshot: Ts, readers: &[Arc<TxnHandle>]) -> u64 {
        let mut edges = 0;
        let mut doom: Option<TxnId> = None;
        for reader in readers {
            let mut f = reader.flags.lock();
            // Concurrency, re-read under the reader's lock: a live
            // reader overlaps the live writer by definition; a
            // committed reader overlaps iff the writer's snapshot
            // predates the reader's commit; an aborted one yields no
            // edge, now or ever.
            let status = reader.status();
            let committed = committed(status);
            if status == DEAD || committed.is_some_and(|c| c <= writer_snapshot) {
                continue;
            }
            f.out_conflict = true;
            edges += 1;
            if committed.is_some() && f.in_conflict {
                doom = Some(reader.txn);
            }
        }
        if edges > 0 {
            let mut w = self.flags.lock();
            w.in_conflict = true;
            if let Some(p) = doom {
                if w.doomed_by.is_none() {
                    w.doomed_by = Some(p);
                }
            }
        }
        edges
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

/// A SIREAD entry's field set: one bit per `FieldId` modulo 64, so a
/// collision only adds edges.
#[inline]
pub(crate) fn field_set(fields: impl IntoIterator<Item = FieldId>) -> u64 {
    fields
        .into_iter()
        .fold(0, |set, f| set | 1 << (f.index() % 64))
}

/// A SIREAD list — an object's chain's, or a class chain's: at most
/// one entry per reader, its cell and the set of fields it may read
/// (module docs, *Self-pruning SIREAD lists*).
#[derive(Debug, Default)]
pub(crate) struct Sireads(Vec<(Arc<TxnHandle>, u64)>);

impl Sireads {
    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// Adds `reader`'s entry for `fields`, or widens the one it has,
    /// dropping the entries that can no longer yield an edge on the way;
    /// an aborted reader registers nothing. Returns whether an entry was
    /// added.
    pub(crate) fn add(&mut self, reader: &Arc<TxnHandle>, fields: u64, horizon: Ts) -> bool {
        let mut new = true;
        self.0.retain_mut(|(r, set)| {
            if Arc::ptr_eq(r, reader) {
                *set |= fields;
                new = false;
                return true;
            }
            r.may_conflict(horizon)
        });
        let new = new && reader.may_conflict(horizon);
        if new {
            self.0.push((Arc::clone(reader), fields));
        }
        new
    }

    /// Collects into `out` the readers of `field` that may overlap
    /// `writer`, whose snapshot is `snapshot`, for
    /// [`TxnHandle::flag_readers`]: the lock-free skip passes over a
    /// reader committed at or below the snapshot, and entries that can
    /// no longer yield an edge are dropped.
    pub(crate) fn overlapping(
        &mut self,
        field: FieldId,
        writer: &TxnHandle,
        snapshot: Ts,
        horizon: Ts,
        out: &mut Vec<Arc<TxnHandle>>,
    ) {
        let bit = field_set([field]);
        self.0.retain(|(r, fields)| {
            if std::ptr::eq(&**r, writer) {
                return true;
            }
            let status = r.status();
            if status == DEAD || status <= horizon {
                return false;
            }
            if status > snapshot && fields & bit != 0 {
                out.push(Arc::clone(r));
            }
            true
        });
    }

    /// Drops the entries that can no longer yield an edge.
    pub(crate) fn prune(&mut self, horizon: Ts) {
        self.0.retain(|(r, _)| r.may_conflict(horizon));
    }

    /// Drops `reader`'s entry.
    pub(crate) fn remove(&mut self, reader: &TxnHandle) {
        self.0.retain(|(r, _)| !std::ptr::eq(&**r, reader));
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A live transaction's cell.
    fn live(txn: u64) -> Arc<TxnHandle> {
        Arc::new(TxnHandle::new(TxnId(txn)))
    }

    /// What a writer of `field` whose snapshot is `snapshot` does with a
    /// SIREAD list: collect the readers that may overlap it, then flag
    /// them. Returns the number of edges recorded.
    fn write_edges(list: &mut Sireads, writer: &TxnHandle, snapshot: Ts, field: FieldId) -> u64 {
        let mut readers = Vec::new();
        list.overlapping(field, writer, snapshot, 0, &mut readers);
        writer.flag_readers(snapshot, &readers)
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
        let mut list = Sireads::default();
        let (t1, t2, t3) = (live(1), live(2), live(3));
        let f = FieldId(0);
        // T2 reads; T3 overwrites what T2 read; T1 reads what T2 wrote…
        list.add(&t2, field_set([f]), 0);
        assert_eq!(write_edges(&mut list, &t3, 0, f), 1); // T2 → T3
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
        let mut list = Sireads::default();
        let (t1, t3) = (live(1), live(3));
        let f = FieldId(1);
        // T1 reads f at snapshot 0 and gains an IN edge: T3 read
        // something T1 overwrote (T3 → T1). T1 then commits — one flag
        // only, so commit succeeds.
        list.add(&t1, field_set([f]), 0);
        t3.read_edge(&t1);
        assert!(matches!(t1.validate_and_commit(5), SsiVerdict::Committed));
        // T4 (snapshot 0, concurrent with T1's commit at 5) overwrites
        // what T1 read: edge T1 → T4 gives committed T1 its OUT flag —
        // T1 is now a pivot nobody can abort, so T4 is doomed.
        let t4 = live(4);
        assert_eq!(
            write_edges(&mut list, &t4, 0, f),
            1,
            "edge from committed T1"
        );
        match t4.validate_and_commit(6) {
            SsiVerdict::Abort(c) => assert_eq!(c.pivot, Some(t1.txn)),
            SsiVerdict::Committed => panic!("completing txn must abort"),
        }
    }

    #[test]
    fn non_concurrent_committed_reader_creates_no_edge() {
        let mut list = Sireads::default();
        let t1 = live(1);
        list.add(&t1, field_set([FieldId(0)]), 0);
        assert!(matches!(t1.validate_and_commit(3), SsiVerdict::Committed));
        // A writer whose snapshot (5) already includes T1's commit (3):
        // plain wr ordering, not an antidependency.
        let t2 = live(2);
        assert_eq!(write_edges(&mut list, &t2, 5, FieldId(0)), 0);
        assert!(matches!(t2.validate_and_commit(6), SsiVerdict::Committed));
    }

    #[test]
    fn lists_dedupe_and_drop_readers_below_the_horizon() {
        let mut list = Sireads::default();
        let f = field_set([FieldId(0)]);
        let t1 = live(1);
        assert!(list.add(&t1, f, 0));
        assert!(!list.add(&t1, f, 0), "one entry per reader");
        assert_eq!(list.len(), 1);
        assert!(matches!(t1.validate_and_commit(2), SsiVerdict::Committed));
        let t2 = live(2);
        list.add(&t2, f, 0);
        // A writer whose snapshot contains T1's commit passes over T1
        // (kept: an older-snapshot writer may still need it) and finds
        // the live T2.
        assert_eq!(write_edges(&mut list, &live(3), 2, FieldId(0)), 1);
        assert_eq!(list.len(), 2);
        // Once the horizon passes T1's commit, the next touch drops it.
        list.add(&live(4), f, 2);
        assert_eq!(list.len(), 2, "T2 and T4");
        assert_eq!(Arc::strong_count(&t1), 1, "T1's cell is ours alone");
    }

    #[test]
    fn aborted_readers_leave_no_edges() {
        let f = field_set([FieldId(0)]);
        let mut list = Sireads::default();
        let t1 = live(1);
        list.add(&t1, f, 0);
        t1.abort();
        // An aborted reader registers nothing more.
        let mut other = Sireads::default();
        assert!(!other.add(&t1, f, 0));
        assert!(other.is_empty());
        // The writer's scan finds the aborted reader's entry and drops
        // it: no edge, and no entry left for anyone to scan again.
        let t2 = live(2);
        assert_eq!(write_edges(&mut list, &t2, 0, FieldId(0)), 0);
        assert!(list.is_empty());
        assert_eq!(Arc::strong_count(&t1), 1, "the list let go of T1");
        assert!(matches!(t2.validate_and_commit(1), SsiVerdict::Committed));
    }
}

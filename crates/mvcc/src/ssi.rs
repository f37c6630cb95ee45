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
//! # Striping and the per-edge protocol
//!
//! Both tracker tables are sharded: the SIREAD registry by OID and the
//! flag table by `TxnId`, so no tracker operation takes a global lock.
//! The correctness argument leans on two facts:
//!
//! 1. **A transaction's own thread is sequential.** Edge recording that
//!    a transaction performs for *itself* (its out-flag during a read,
//!    its in-flag after a write) is ordered before its own commit
//!    validation by program order; no lock is needed for that ordering.
//! 2. **Remote flag updates synchronize on the target's stripe.** When
//!    transaction `A`'s thread updates transaction `B`'s flags (the
//!    writer's in-flag on the read side, the readers' out-flags on the
//!    write side), it locks `B`'s stripe, and
//!    `SsiTracker::validate_and_commit` checks-and-marks `B`'s
//!    commit in one critical section on that same stripe. A remote
//!    update therefore lands either *before* `B`'s pivot check (and is
//!    seen by it) or *after* `B` is properly committed (and takes the
//!    committed-pivot path, dooming the completing transaction).
//!
//! # Transaction handles and self-pruning SIREAD lists
//!
//! Every tracked transaction owns one shared handle (`TxnHandle`): its
//! id and an atomic commit status — `LIVE` while it runs, its commit
//! timestamp once committed (a read-only transaction's snapshot), `DEAD`
//! once aborted. The status is stored only under the transaction's flag
//! stripe, in the same critical section as `validate_and_commit`'s
//! commit mark or the flag entry's removal, so it never disagrees with
//! the flag table; it moves once, from `LIVE`, and never back. A SIREAD
//! entry is a clone of the reader's handle, so whoever holds a SIREAD
//! list can tell, from one atomic load per entry and without a stripe
//! lock, which of its readers can still take part in an edge:
//!
//! * **The lock-free skip.** A reader committed at or below the
//!   writer's snapshot is not concurrent with the writer (the writer's
//!   snapshot already contains everything it read): `write_edges`
//!   passes over it with that one load. Only a live reader, or one
//!   committed after the writer's snapshot, goes through the locked
//!   check-and-flag on its stripe — the same verdict the stripe would
//!   give, since the status is written under it.
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
//!   their field is touched again, and flag entries of committed
//!   transactions are dropped only by the purge: the heap runs it every
//!   64th writer commit of a slot (and in every full `gc`) to keep the
//!   registry and the flag table bounded — including fields that are
//!   read and then never touched again.
//!
//! # Lock order
//!
//! At most one flag stripe is held at any time (edge endpoints are
//! visited one after the other), so stripe acquisition cannot deadlock.
//! The only nesting is **SIREAD shard → flag stripe**: `write_edges`
//! runs each non-skipped reader's check-and-flag under the shard it is
//! walking, and `record_read` looks up a newly registering reader's
//! handle under it. The writer's own in-flag is set after the shard is
//! dropped. `purge` takes every lock alone. The order is never reversed.
//!
//! The reads feeding the tracker are the interpreter's field-granularity
//! footprints — the runtime projection of the paper's access vectors —
//! so a reader of `o.x` never conflicts with a writer of `o.y`: the
//! validation granularity matches the locking granularity of the TAV
//! scheme (Huang et al. show granularity drives the false-positive
//! rate). The flags themselves are still conservative: one bit per
//! direction, kept even when the edge partner later aborts, so some
//! serializable histories abort (see `ROADMAP.md` for the precise,
//! edge-list-based follow-up). The tracker never blocks readers — it
//! only records, which is why the mvcc scheme's lock statistics stay
//! identically zero under either isolation level.
//!
//! # Observability probes
//!
//! The tracker itself carries no probes — its stripe mutexes stay
//! exactly as analyzed above. Validation time is charged to the
//! heap's `commit_ts_draw` histogram segment (the pivot check gates
//! the draw's visibility, so the two are timed as one), and each
//! [`SsiConflict`] is attributed in the contention registry by the
//! heap *after* `validate_and_commit` returns — never from inside a
//! flag stripe or SIREAD shard, so the probe cannot add an edge to the
//! lock-order argument. The abort is keyed to the transaction's first
//! written object when it has one, or recorded unattributed for a
//! read-only pivot.

use crate::{Ts, TS_PENDING};
use finecc_model::{FieldId, MulMap, Oid, TxnId};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How many mutexes the SIREAD registry is striped over.
const READER_SHARDS: usize = 32;

/// How many mutexes the flag table is striped over.
const FLAG_STRIPES: usize = 64;

/// Commit status of a running transaction.
const LIVE: Ts = TS_PENDING;

/// Commit status of an aborted transaction.
const DEAD: Ts = TS_PENDING - 1;

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

/// A tracked transaction's identity and commit status, shared by its
/// flag entry and every SIREAD entry it registers (see the module docs'
/// *Transaction handles*).
#[derive(Debug)]
struct TxnHandle {
    txn: TxnId,
    /// `LIVE`, the commit timestamp, or `DEAD`. Stored (`Release`) only
    /// under the transaction's flag stripe; loaded (`Acquire`) anywhere.
    /// It publishes nothing but itself: a load that misses a store sees
    /// `LIVE` and takes the locked path, which reads it under the stripe.
    commit_ts: AtomicU64,
}

impl TxnHandle {
    /// The commit status.
    #[inline]
    fn status(&self) -> Ts {
        self.commit_ts.load(Ordering::Acquire)
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

/// Conflict-flag record of one tracked transaction. Entries of committed
/// transactions are retained until no concurrent transaction can remain
/// (see [`SsiTracker::purge`]); entries of aborted transactions are
/// dropped immediately.
#[derive(Debug)]
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
    /// The transaction's handle: its commit timestamp once committed.
    /// Read-only transactions record their snapshot timestamp — they
    /// serialize there, so no later-snapshot transaction is concurrent
    /// with them.
    handle: Arc<TxnHandle>,
}

impl Flags {
    /// The commit timestamp, or `None` while live (a flag entry is
    /// removed in the critical section that marks its handle `DEAD`).
    #[inline]
    fn commit_ts(&self) -> Option<Ts> {
        Some(self.handle.status()).filter(|&c| c != LIVE)
    }
}

/// The SIREAD registry: which transactions have read which field,
/// striped by OID. Each entry is the reader's handle, so a list holder
/// sees every reader's commit status without the flag table.
type ReaderShard = Mutex<MulMap<(Oid, FieldId), Vec<Arc<TxnHandle>>>>;

/// One stripe of the flag table.
type FlagStripe = Mutex<MulMap<TxnId, Flags>>;

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
    /// Conflict flags of live and recently committed transactions,
    /// striped by `TxnId`. Each stripe is the commit-status authority
    /// for its transactions, so per-transaction flag updates and commit
    /// publication are atomic with respect to each other (see the
    /// module docs for the striping protocol).
    flags: Box<[FlagStripe]>,
    /// The highest GC horizon the heap has reported: a transaction
    /// committed at or below it is concurrent with no live or future
    /// one, so its SIREAD entries may be dropped. `Relaxed`: every value
    /// it ever held is a valid bound, and it publishes no other data.
    horizon: AtomicU64,
}

/// What [`SsiTracker::validate_and_commit`] decided.
pub(crate) enum SsiVerdict {
    /// No dangerous structure: the transaction was atomically marked
    /// committed at the given timestamp.
    Committed,
    /// Dangerous structure: the caller must roll the transaction back.
    Abort(SsiConflict),
}

impl SsiTracker {
    pub(crate) fn new() -> SsiTracker {
        let readers = (0..READER_SHARDS)
            .map(|_| Mutex::new(MulMap::default()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let flags = (0..FLAG_STRIPES)
            .map(|_| Mutex::new(MulMap::default()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        SsiTracker {
            readers,
            flags,
            horizon: AtomicU64::new(0),
        }
    }

    #[inline]
    fn reader_shard(&self, oid: Oid) -> &ReaderShard {
        &self.readers[(oid.raw() as usize) % READER_SHARDS]
    }

    #[inline]
    fn stripe(&self, txn: TxnId) -> &FlagStripe {
        &self.flags[(txn.raw() as usize) % FLAG_STRIPES]
    }

    /// Starts tracking `txn`.
    pub(crate) fn register(&self, txn: TxnId) {
        let handle = Arc::new(TxnHandle {
            txn,
            commit_ts: AtomicU64::new(LIVE),
        });
        let flags = Flags {
            in_conflict: false,
            out_conflict: false,
            doomed_by: None,
            handle,
        };
        self.stripe(txn).lock().insert(txn, flags);
    }

    /// Raises the pruning horizon to `horizon` (a [`crate::MvccHeap`]
    /// GC horizon; a stale one merely prunes less) and returns the
    /// horizon now in force.
    pub(crate) fn raise_horizon(&self, horizon: Ts) -> Ts {
        self.horizon
            .fetch_max(horizon, Ordering::Relaxed)
            .max(horizon)
    }

    /// Registers a SIREAD: `txn` is about to read `(oid, field)`. Must
    /// run BEFORE the version-chain walk. Drops the list's entries that
    /// can no longer yield an edge on the way, and registers `txn` at
    /// most once — an unknown (aborted) `txn` is not registered at all.
    pub(crate) fn record_read(&self, txn: TxnId, oid: Oid, field: FieldId) {
        let horizon = self.horizon.load(Ordering::Relaxed);
        let mut shard = self.reader_shard(oid).lock();
        let entries = shard.entry((oid, field)).or_default();
        let mut registered = false;
        entries.retain(|r| {
            registered |= r.txn == txn;
            r.may_conflict(horizon)
        });
        if registered {
            return;
        }
        // SIREAD shard → flag stripe, the one nesting (module docs).
        let handle = self
            .stripe(txn)
            .lock()
            .get(&txn)
            .map(|f| Arc::clone(&f.handle));
        entries.extend(handle);
    }

    /// Marks the rw edge `reader ──rw──▶ writer`, discovered on the read
    /// side: `reader` reconstructed a version of a field that `writer`
    /// has overwritten (pending, or committed after the reader's
    /// snapshot). Called by the **reader's own thread**, so the
    /// reader-side flag lands before the reader's own validation by
    /// program order; the writer's stripe is locked to make the
    /// check-and-mark against the writer's commit status atomic.
    /// Returns the number of edges recorded (0 or 1).
    pub(crate) fn read_edge(&self, reader: TxnId, writer: TxnId) -> u64 {
        if reader == writer {
            return 0;
        }
        // The writer may be long gone (purged): its flags can no longer
        // matter to anyone live, but the reader's out-edge is real.
        let writer_committed_pivot = {
            let mut stripe = self.stripe(writer).lock();
            match stripe.get_mut(&writer) {
                Some(w) => {
                    w.in_conflict = true;
                    w.commit_ts().is_some() && w.out_conflict
                }
                None => false,
            }
        };
        let mut stripe = self.stripe(reader).lock();
        if let Some(r) = stripe.get_mut(&reader) {
            r.out_conflict = true;
            if writer_committed_pivot && r.doomed_by.is_none() {
                // `writer` is committed with both flags: it is a pivot
                // we can no longer abort, so the completing side must go.
                r.doomed_by = Some(writer);
            }
        }
        1
    }

    /// Marks every rw edge `R ──rw──▶ writer` for concurrent readers `R`
    /// of `(oid, field)`, discovered on the write side. Must run AFTER
    /// the writer's pending version is installed. Called by the
    /// **writer's own thread**, walking the field's SIREAD list in place
    /// under its shard: a reader committed at or below the writer's
    /// snapshot is skipped on its handle alone, an entry that can no
    /// longer yield an edge is dropped, and every other reader's stripe
    /// is locked for the concurrency test plus out-flag (atomic against
    /// that reader's validation). The writer's own in-flag lands before
    /// its own validation by program order. Returns the number of edges
    /// recorded.
    pub(crate) fn write_edges(
        &self,
        writer: TxnId,
        writer_snapshot: Ts,
        oid: Oid,
        field: FieldId,
    ) -> u64 {
        let horizon = self.horizon.load(Ordering::Relaxed);
        let mut edges = 0;
        let mut doom: Option<TxnId> = None;
        {
            let mut shard = self.reader_shard(oid).lock();
            let Some(readers) = shard.get_mut(&(oid, field)) else {
                return 0;
            };
            readers.retain(|reader| {
                if reader.txn == writer {
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
                let mut stripe = self.stripe(reader.txn).lock();
                // Aborted (or purged) reader: no edge, now or ever.
                let Some(f) = stripe.get_mut(&reader.txn) else {
                    return false;
                };
                // Concurrency: a live reader overlaps the live writer by
                // definition; a committed reader overlaps iff the
                // writer's snapshot predates the reader's commit.
                let committed = f.commit_ts();
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
        }
        if edges > 0 {
            let mut stripe = self.stripe(writer).lock();
            if let Some(w) = stripe.get_mut(&writer) {
                w.in_conflict = true;
                if let Some(p) = doom {
                    if w.doomed_by.is_none() {
                        w.doomed_by = Some(p);
                    }
                }
            }
        }
        edges
    }

    /// Commit-time validation, atomic with commit publication **per
    /// transaction**: the check and the commit mark happen in one
    /// critical section on the transaction's own flag stripe, so an
    /// edge discovered by a concurrent transaction lands either before
    /// the check or against a properly committed transaction — never in
    /// between. Only the one stripe is locked; validations of
    /// transactions on other stripes proceed in parallel.
    pub(crate) fn validate_and_commit(&self, txn: TxnId, commit_ts: Ts) -> SsiVerdict {
        let mut stripe = self.stripe(txn).lock();
        let f = stripe
            .get_mut(&txn)
            .expect("transaction is registered with the ssi tracker");
        let pivot = match f.doomed_by {
            Some(p) => Some(p),
            None if f.in_conflict && f.out_conflict => None,
            None => {
                f.handle.commit_ts.store(commit_ts, Ordering::Release);
                return SsiVerdict::Committed;
            }
        };
        f.handle.commit_ts.store(DEAD, Ordering::Release);
        stripe.remove(&txn);
        SsiVerdict::Abort(SsiConflict { txn, pivot })
    }

    /// Drops all tracking state of an aborted transaction. Flags it set
    /// on OTHER transactions stay set (sticky, conservatively), matching
    /// Cahill's original formulation. Its SIREAD entries go the next
    /// time their lists are walked.
    pub(crate) fn forget(&self, txn: TxnId) {
        if let Some(f) = self.stripe(txn).lock().remove(&txn) {
            f.handle.commit_ts.store(DEAD, Ordering::Release);
        }
    }

    /// Raises the horizon to `horizon` (see
    /// [`SsiTracker::raise_horizon`]) and drops every flag entry and
    /// SIREAD registration that can no longer participate in an edge:
    /// committed transactions whose commit timestamp is at or below the
    /// horizon (every live or future transaction's snapshot already
    /// contains them, so no further concurrency is possible), and the
    /// SIREADs of aborted ones. This is what bounds the flag table and
    /// the lists of fields nobody touches again; lists in use prune
    /// themselves.
    ///
    /// Runs stripe-at-a-time, one lock at a time — no global lock and
    /// no nesting: a SIREAD entry's fate is read off its handle.
    pub(crate) fn purge(&self, horizon: Ts) {
        let horizon = self.raise_horizon(horizon);
        for stripe in self.flags.iter() {
            stripe.lock().retain(|_, f| f.handle.may_conflict(horizon));
        }
        for shard in self.readers.iter() {
            shard.lock().retain(|_, rs| {
                rs.retain(|r| r.may_conflict(horizon));
                !rs.is_empty()
            });
        }
    }

    /// Number of live SIREAD registrations.
    #[cfg(test)]
    fn siread_entries(&self) -> usize {
        self.readers
            .iter()
            .map(|s| s.lock().values().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// Length of the SIREAD list of `(oid, field)`.
    #[cfg(test)]
    pub(crate) fn siread_len(&self, oid: Oid, field: FieldId) -> usize {
        self.reader_shard(oid)
            .lock()
            .get(&(oid, field))
            .map_or(0, Vec::len)
    }

    /// Number of tracked (live or retained-committed) transactions.
    #[cfg(test)]
    fn tracked_txns(&self) -> usize {
        self.flags.iter().map(|s| s.lock().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T1: TxnId = TxnId(1);
    const T2: TxnId = TxnId(2);
    const T3: TxnId = TxnId(3);

    #[test]
    fn isolation_level_names() {
        assert_eq!(IsolationLevel::Snapshot.to_string(), "snapshot");
        assert_eq!(IsolationLevel::Serializable.name(), "serializable");
        assert_eq!(IsolationLevel::default(), IsolationLevel::Snapshot);
    }

    #[test]
    fn conflict_display_mentions_dangerous_structure() {
        let own = SsiConflict {
            txn: T1,
            pivot: None,
        };
        assert!(own.to_string().contains("dangerous structure"));
        let completing = SsiConflict {
            txn: T1,
            pivot: Some(T2),
        };
        assert!(completing.to_string().contains("committed pivot"));
    }

    #[test]
    fn pivot_with_both_flags_aborts_at_commit() {
        let t = SsiTracker::new();
        t.register(T1);
        t.register(T2);
        t.register(T3);
        let oid = Oid(1);
        let f = FieldId(0);
        // T2 reads; T3 overwrites what T2 read; T1 reads what T2 wrote…
        t.record_read(T2, oid, f);
        assert_eq!(t.write_edges(T3, 0, oid, f), 1); // T2 → T3
        assert_eq!(t.read_edge(T1, T2), 1); // T1 → T2
                                            // …so T2 is the pivot: in (from T1) and out (to T3).
        match t.validate_and_commit(T2, 7) {
            SsiVerdict::Abort(c) => {
                assert_eq!(c.txn, T2);
                assert_eq!(c.pivot, None);
            }
            SsiVerdict::Committed => panic!("pivot must abort"),
        }
        // The other two carry one flag each and commit fine.
        assert!(matches!(
            t.validate_and_commit(T1, 8),
            SsiVerdict::Committed
        ));
        assert!(matches!(
            t.validate_and_commit(T3, 9),
            SsiVerdict::Committed
        ));
    }

    #[test]
    fn committed_pivot_dooms_the_completing_transaction() {
        let t = SsiTracker::new();
        t.register(T1);
        t.register(T3);
        let oid = Oid(4);
        let f = FieldId(1);
        // T1 reads (oid, f) at snapshot 0 and gains an IN edge: T3 read
        // something T1 overwrote (T3 → T1). T1 then commits — one flag
        // only, so commit succeeds.
        t.record_read(T1, oid, f);
        t.read_edge(T3, T1);
        assert!(matches!(
            t.validate_and_commit(T1, 5),
            SsiVerdict::Committed
        ));
        // T4 (snapshot 0, concurrent with T1's commit at 5) overwrites
        // what T1 read: edge T1 → T4 gives committed T1 its OUT flag —
        // T1 is now a pivot nobody can abort, so T4 is doomed.
        let t4 = TxnId(4);
        t.register(t4);
        assert_eq!(t.write_edges(t4, 0, oid, f), 1, "edge from committed T1");
        match t.validate_and_commit(t4, 6) {
            SsiVerdict::Abort(c) => assert_eq!(c.pivot, Some(T1)),
            SsiVerdict::Committed => panic!("completing txn must abort"),
        }
    }

    #[test]
    fn non_concurrent_committed_reader_creates_no_edge() {
        let t = SsiTracker::new();
        t.register(T1);
        t.record_read(T1, Oid(9), FieldId(0));
        assert!(matches!(
            t.validate_and_commit(T1, 3),
            SsiVerdict::Committed
        ));
        // A writer whose snapshot (5) already includes T1's commit (3):
        // plain wr ordering, not an antidependency.
        t.register(T2);
        assert_eq!(t.write_edges(T2, 5, Oid(9), FieldId(0)), 0);
        assert!(matches!(
            t.validate_and_commit(T2, 6),
            SsiVerdict::Committed
        ));
    }

    #[test]
    fn lists_dedupe_and_drop_readers_below_the_horizon() {
        let t = SsiTracker::new();
        let (oid, f) = (Oid(5), FieldId(0));
        t.register(T1);
        t.record_read(T1, oid, f);
        t.record_read(T1, oid, f);
        assert_eq!(t.siread_len(oid, f), 1, "one entry per reader");
        assert!(matches!(
            t.validate_and_commit(T1, 2),
            SsiVerdict::Committed
        ));
        t.register(T2);
        t.record_read(T2, oid, f);
        // A writer whose snapshot contains T1's commit passes over T1
        // (kept: an older-snapshot writer may still need it) and finds
        // the live T2.
        t.register(T3);
        assert_eq!(t.write_edges(T3, 2, oid, f), 1);
        assert_eq!(t.siread_len(oid, f), 2);
        // Once the horizon passes T1's commit, the next touch drops it.
        t.raise_horizon(2);
        t.register(TxnId(4));
        t.record_read(TxnId(4), oid, f);
        assert_eq!(t.siread_len(oid, f), 2, "T2 and T4");
    }

    #[test]
    fn aborted_readers_leave_no_edges_and_purge_drains() {
        let t = SsiTracker::new();
        t.register(T1);
        t.record_read(T1, Oid(2), FieldId(0));
        t.forget(T1); // aborted
        t.register(T2);
        t.record_read(T2, Oid(3), FieldId(0));
        // The writer's scan finds the aborted reader's entry and drops
        // it: no edge, and no entry left for anyone to scan again.
        assert_eq!(t.write_edges(T2, 0, Oid(2), FieldId(0)), 0);
        assert_eq!(t.siread_len(Oid(2), FieldId(0)), 0);
        assert!(matches!(
            t.validate_and_commit(T2, 1),
            SsiVerdict::Committed
        ));
        // What the purge is still for: the committed transaction's flag
        // entry, and its SIREAD of a field nobody touched again.
        assert_eq!(t.siread_entries(), 1);
        assert_eq!(t.tracked_txns(), 1);
        t.purge(10);
        assert_eq!(t.siread_entries(), 0);
        assert_eq!(t.tracked_txns(), 0);
    }

    #[test]
    fn striping_keeps_edges_across_distant_txn_ids() {
        // Transactions deliberately chosen to land on distinct stripes
        // (ids differ mod FLAG_STRIPES): the edge protocol must behave
        // exactly as under one global lock.
        let a = TxnId(1);
        let b = TxnId(1 + FLAG_STRIPES as u64);
        let c = TxnId(2 + 2 * FLAG_STRIPES as u64);
        let t = SsiTracker::new();
        t.register(a);
        t.register(b);
        t.register(c);
        let oid = Oid(7);
        let f = FieldId(0);
        t.record_read(b, oid, f);
        assert_eq!(t.write_edges(c, 0, oid, f), 1); // b → c
        assert_eq!(t.read_edge(a, b), 1); // a → b
        match t.validate_and_commit(b, 3) {
            SsiVerdict::Abort(conflict) => assert_eq!(conflict.txn, b),
            SsiVerdict::Committed => panic!("cross-stripe pivot must abort"),
        }
        assert!(matches!(t.validate_and_commit(a, 4), SsiVerdict::Committed));
        assert!(matches!(t.validate_and_commit(c, 5), SsiVerdict::Committed));
    }

    #[test]
    fn purge_keeps_sireads_of_live_transactions() {
        let t = SsiTracker::new();
        t.register(T1);
        t.record_read(T1, Oid(3), FieldId(0));
        // T1 is live: horizon way past anything must not drop its
        // registration (only ended transactions are purged).
        t.purge(1_000);
        assert_eq!(t.siread_entries(), 1);
        assert_eq!(t.tracked_txns(), 1);
    }
}

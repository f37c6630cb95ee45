//! The multi-version / optimistic scheme: snapshot reads, no read locks,
//! first-updater-wins write validation — at either isolation level
//! ([`IsolationLevel`] is a first-class scheme parameter, giving the
//! matrix two entries: `mvcc` at `Snapshot`, `mvcc-ssi` at
//! `Serializable`).
//!
//! This is the scheme matrix's optimistic point of comparison (after
//! Larson et al., VLDB 2012), deliberately *not* in the paper: where the
//! TAV scheme buys parallelism from compile-time commutativity, MVCC buys
//! it from versioning — readers never take a lock and never block, at the
//! price of either snapshot-isolation semantics (write skew is possible;
//! see the regression tests) or, at `Serializable`, commit-time SSI
//! validation aborts — plus optimistic restarts on field-level
//! write-write conflicts:
//!
//! * **Reads** reconstruct the transaction's snapshot from the version
//!   chains of [`finecc_mvcc::MvccHeap`], holding the object's chain
//!   shard *shared*: no lock manager, and on the chain-hit path no
//!   base-store `RwLock` (the scheme has no lock manager, so it emits
//!   no `finecc.lock.*` sample at all, and the heap's
//!   `read_base_loads` counter stays at zero whenever a chain covers
//!   the field). The transaction's heap state — snapshot epoch, write
//!   and read sets, status cell — is its [`MvccTxn`] session, kept in
//!   [`Txn::mvcc`] and handed to the heap by reference: the heap keeps
//!   no table of transactions to look anything up in.
//! * **Writes** install pending versions under first-updater-wins
//!   admission control at **field granularity** — like the TAV scheme,
//!   writers of disjoint fields of one instance run in parallel (the
//!   paper's P4, solved by versioning instead of commutativity
//!   matrices). A conflicting write fails with a *retryable*
//!   [`ExecError::ConcurrencyAbort`], so the standard
//!   [`crate::run_txn`] retry loop re-runs the transaction on a fresh
//!   snapshot — the optimistic analogue of a deadlock-victim restart.
//! * **Commit** draws one timestamp and marks the transaction's status
//!   cell with it — every pending version points at that cell, so one
//!   store commits them all, atomically with respect to new snapshots;
//!   the returned commit sequence *is* the commit timestamp. At
//!   `Snapshot` commit is infallible (all validation happened at write
//!   time). At `Serializable` the heap validates Cahill-style conflict
//!   flags and refuses dangerous structures with a retryable
//!   [`ExecError::ConcurrencyAbort`]; [`crate::run_txn`] re-runs the
//!   victim on a fresh snapshot exactly like a deadlock victim.
//! * **One SIREAD per top message** at `Serializable`: the compiler
//!   knows a priori what a message may access, so — like the TAV
//!   scheme's one lock per top message — `on_message` registers one
//!   entry on the receiver's version chain for every field of the
//!   message's transitive access vector on the receiver's class
//!   (`MvccHeap::register_reads`), and the message's field reads, its
//!   self-sends' included, register nothing. A message sent through a
//!   reference field passes `on_message` too and registers on its own
//!   receiver.
//! * **Extent messages** at `Serializable` register their reads at the
//!   granularity the lock schemes lock them: `send_all` registers one
//!   class-granular SIREAD per domain class, on the class's chain, for
//!   the fields of the method's transitive access vector there, and a
//!   message whose class and vector those cover registers nothing on its
//!   own chain (`finecc_mvcc::ssi`, *Class-granular SIREADs*).
//! * **Safe snapshots** at `Serializable`: a transaction that begins
//!   with no older snapshot live registers no SIREAD until its first
//!   top message whose transitive access vector writes, or its first
//!   extent message (`finecc_mvcc::ssi`, *Safe snapshots*): its
//!   registrations only note `(object, fields)` in its session's safe
//!   read set, so a read-only transaction that began so writes nothing
//!   shared.
//!
//! Compared per §5.2: every pair the TAV scheme admits, MVCC admits too
//! (a TAV write-set conflict is a superset of a field write-write
//! conflict), and MVCC additionally admits any reader against any
//! writer, which no lock scheme does. The price at `Snapshot` is
//! isolation strength (write skew — see `tests/snapshot_isolation.rs`);
//! `mvcc-ssi` restores serializability and instead pays a commit-time
//! validation-abort tax, reported separately in the heap statistics
//! (`ssi_aborts`).

use crate::env::Env;
use crate::scheme::CcScheme;
use crate::schemes::{interpreter, send_each};
use crate::txn::Txn;
use finecc_lang::{DataAccess, ExecError};
use finecc_model::{ClassId, FieldId, MethodId, Oid, TxnId, Value};
use finecc_mvcc::{
    CommitError, IsolationLevel, MvccHeap, MvccTxn, MvccWriteError, SsiConflict, Wal,
};
use finecc_obs::SlotIds;
use std::sync::Arc;

/// Snapshot reads + optimistic first-updater-wins writes over the
/// multi-version heap.
pub struct MvccScheme {
    env: Env,
    heap: Arc<MvccHeap>,
    /// Transaction ids, carrying the beginning thread's slot, so ids
    /// drawn on two threads never share a counter.
    ids: SlotIds,
}

impl MvccScheme {
    /// Builds the scheme at [`IsolationLevel::Snapshot`], layering a
    /// fresh version heap over the environment's object store.
    pub fn new(env: Env) -> MvccScheme {
        MvccScheme::with_isolation(env, IsolationLevel::Snapshot)
    }

    /// Builds the scheme at the given isolation level — the level is a
    /// first-class scheme parameter: `Snapshot` is the `mvcc` matrix
    /// entry, `Serializable` the `mvcc-ssi` one.
    pub fn with_isolation(env: Env, isolation: IsolationLevel) -> MvccScheme {
        MvccScheme {
            heap: Arc::new(
                MvccHeap::with_isolation(Arc::clone(&env.db), isolation)
                    .with_obs(Arc::clone(&env.obs)),
            ),
            env,
            ids: SlotIds::new(),
        }
    }

    /// Builds the scheme at the given isolation level over an open
    /// write-ahead log ([`crate::SchemeKind::build_durable`] opens it):
    /// the heap logs every writer commit's redo images **before**
    /// publishing its timestamp, after a genesis checkpoint; the
    /// directory must be fresh (see [`MvccHeap::with_wal`]).
    pub fn with_wal(
        mut env: Env,
        isolation: IsolationLevel,
        wal: Arc<Wal>,
    ) -> std::io::Result<MvccScheme> {
        let heap = MvccHeap::with_wal(Arc::clone(&env.db), isolation, Arc::clone(&wal))?;
        // Shared handle: `Env::durability` and the metrics wiring
        // read it uniformly across all six schemes.
        env.wal = Some(wal);
        Ok(MvccScheme {
            heap: Arc::new(heap.with_obs(Arc::clone(&env.obs))),
            env,
            ids: SlotIds::new(),
        })
    }

    /// The scheme's isolation level.
    pub fn isolation(&self) -> IsolationLevel {
        self.heap.isolation()
    }

    /// The underlying multi-version heap (for tests, experiments, and
    /// standalone snapshots).
    pub fn heap(&self) -> &Arc<MvccHeap> {
        &self.heap
    }

    fn exec_err(e: MvccWriteError) -> ExecError {
        match e {
            // Retryable: the transaction restarts on a fresh snapshot,
            // like a deadlock victim under the lock schemes.
            MvccWriteError::Conflict(c) => ExecError::ConcurrencyAbort {
                deadlock: true,
                msg: c.to_string(),
            },
            MvccWriteError::Store(e) => Env::store_err(e),
            // Only the heap's by-id adapter refuses a transaction as
            // unknown, never a session.
            e => ExecError::ConcurrencyAbort {
                deadlock: false,
                msg: e.to_string(),
            },
        }
    }

    /// A [`Txn`] without a session is not this scheme's transaction (or
    /// one already ended): refused, and a re-run would fare no better.
    fn stranger(id: TxnId) -> ExecError {
        ExecError::ConcurrencyAbort {
            deadlock: false,
            msg: format!("transaction {id} has no mvcc session"),
        }
    }

    fn ssi_err(c: SsiConflict) -> ExecError {
        // Also retryable: the dangerous structure involved concurrent
        // transactions that are gone by the time the victim re-runs.
        ExecError::ConcurrencyAbort {
            deadlock: true,
            msg: c.to_string(),
        }
    }
}

struct MvccAccess<'a> {
    env: &'a Env,
    heap: &'a MvccHeap,
    /// The transaction's session, borrowed from [`Txn::mvcc`]: field reads
    /// and writes hand it to the heap, whose only shared state they touch
    /// is the version chains.
    txn: &'a mut MvccTxn,
    /// The `(class, field)` pairs this operation registered
    /// class-granular SIREADs for ([`MvccAccess::cover_extent`]): a
    /// message to an instance of such a class whose whole vector they
    /// hold registers nothing on its chain, the way a hierarchical lock
    /// covers its instances under the lock schemes. Empty outside
    /// `send_all` at `Serializable`.
    covered: Vec<(ClassId, FieldId)>,
}

impl MvccAccess<'_> {
    /// Registers one class-granular SIREAD per class `c` of `root`'s
    /// domain, for the fields of `method`'s transitive access vector on
    /// `c`, and records them as covered. Runs before the extent is read (see
    /// `finecc_mvcc::ssi`, *Class-granular SIREADs*). A class that does
    /// not understand `method` has no vector; the interpreter refuses
    /// its instances.
    fn cover_extent(&mut self, root: ClassId, method: &str) {
        for &c in self.env.schema.domain(root) {
            let table = self.env.compiled.class(c);
            let Some(idx) = table.index_of(method) else {
                continue;
            };
            let tav = table.tav(idx);
            self.heap
                .record_class_read(self.txn, c, tav.iter().map(|(f, _)| f));
            self.covered.extend(tav.iter().map(|(f, _)| (c, f)));
        }
    }
}

impl DataAccess for MvccAccess<'_> {
    fn class_of(&mut self, oid: Oid) -> Result<ClassId, ExecError> {
        self.env.db.class_of(oid).map_err(Env::store_err)
    }

    /// Every read runs inside a top message, whose registration (or its
    /// extent's) covers it: see [`MvccAccess::on_message`].
    fn read_field(&mut self, oid: Oid, field: FieldId) -> Result<Value, ExecError> {
        self.heap
            .read_covered(self.txn, oid, field)
            .map_err(Env::store_err)
    }

    fn write_field(&mut self, oid: Oid, field: FieldId, value: Value) -> Result<(), ExecError> {
        self.heap
            .write_at(self.txn, oid, field, value)
            .map(drop)
            .map_err(MvccScheme::exec_err)
    }

    /// There is no lock to announce — versioning replaces admission
    /// control for readers, and writers are validated at each write —
    /// but at `Serializable` the compiler's a-priori knowledge of what
    /// the message may touch is its one control: a message whose
    /// transitive access vector writes ends a safe snapshot first
    /// ([`MvccHeap::convert`]), and the message registers one SIREAD on
    /// its receiver for every field of that vector
    /// ([`MvccHeap::register_reads`]; a `Write`-mode field may be read
    /// too) — unless its extent's class-granular entries cover them all.
    /// Every message that reaches an instance passes here, one sent
    /// through a reference field included, and the vector covers every
    /// field the message and its self-sends touch, so its reads register
    /// nothing of their own.
    fn on_message(&mut self, oid: Oid, class: ClassId, mid: MethodId) -> Result<(), ExecError> {
        if self.heap.isolation() == IsolationLevel::Snapshot {
            return Ok(());
        }
        let table = self.env.compiled.class(class);
        let tav = table.index_of_mid(mid).map(|idx| table.tav(idx));
        if self.txn.is_safe() && tav.is_none_or(|tav| !tav.is_read_only()) {
            self.heap.convert(self.txn);
        }
        if let Some(tav) = tav {
            if !tav.iter().all(|(f, _)| self.covered.contains(&(class, f))) {
                let fields = tav.iter().map(|(f, _)| f);
                self.heap.register_reads(self.txn, oid, fields);
            }
        }
        Ok(())
    }
}

impl MvccScheme {
    fn access<'a>(&'a self, txn: &'a mut Txn) -> Result<MvccAccess<'a>, ExecError> {
        let id = txn.id;
        let mvcc = txn.mvcc.as_mut().ok_or_else(|| MvccScheme::stranger(id))?;
        Ok(MvccAccess {
            env: &self.env,
            heap: &self.heap,
            txn: mvcc,
            covered: Vec::new(),
        })
    }
}

impl CcScheme for MvccScheme {
    fn name(&self) -> &'static str {
        match self.heap.isolation() {
            IsolationLevel::Snapshot => "mvcc",
            IsolationLevel::Serializable => "mvcc-ssi",
        }
    }

    fn env(&self) -> &Env {
        &self.env
    }

    fn begin(&self) -> Txn {
        Txn::with_mvcc(self.heap.session(TxnId(self.ids.next())))
    }

    fn send(
        &self,
        txn: &mut Txn,
        oid: Oid,
        method: &str,
        args: &[Value],
    ) -> Result<Value, ExecError> {
        interpreter(&self.env).send(&mut self.access(txn)?, oid, method, args)
    }

    fn send_all(
        &self,
        txn: &mut Txn,
        root: ClassId,
        method: &str,
        args: &[Value],
    ) -> Result<Vec<Value>, ExecError> {
        let mut access = self.access(txn)?;
        if self.isolation() == IsolationLevel::Serializable {
            // One SIREAD per class, on its class chain, as the lock
            // schemes take one hierarchical lock per class (§5.2) —
            // before the extent is read, like those locks.
            access.cover_extent(root, method);
        }
        let extent = self.env.db.deep_extent(root);
        send_each(&self.env, &mut access, extent, method, args)
    }

    fn send_some(
        &self,
        txn: &mut Txn,
        root: ClassId,
        oids: &[Oid],
        method: &str,
        args: &[Value],
    ) -> Result<Vec<Value>, ExecError> {
        let _ = root; // No intentional class locks to take.
        let oids = oids.iter().copied();
        send_each(&self.env, &mut self.access(txn)?, oids, method, args)
    }

    fn commit(&self, mut txn: Txn) -> Result<u64, ExecError> {
        // The undo log is unused: rollback state lives in the version
        // chains' before-images. Writers return their fresh (unique)
        // commit timestamp; read-only transactions serialize at — and
        // return — their snapshot timestamp without drawing one. At
        // Serializable the heap validates here and rolls the
        // transaction back itself on a dangerous structure.
        txn.undo.clear();
        let session = txn
            .mvcc
            .take()
            .ok_or_else(|| MvccScheme::stranger(txn.id))?;
        self.heap.commit_session(session).map_err(|e| match e {
            CommitError::Ssi(c) => MvccScheme::ssi_err(c),
            // The heap already rolled the transaction back and skip-
            // published the drawn timestamp; the failure is retryable.
            CommitError::LogIo(m) => ExecError::LogIo(m),
            // As in `exec_err`: never a session's refusal.
            e => ExecError::ConcurrencyAbort {
                deadlock: false,
                msg: e.to_string(),
            },
        })
    }

    fn abort(&self, mut txn: Txn) {
        txn.undo.clear();
        if let Some(session) = txn.mvcc.take() {
            self.heap.abort_session(session);
        }
    }

    fn register_metrics(&self, reg: &finecc_obs::MetricsRegistry, labels: &[(&str, &str)]) {
        crate::metrics::register_env_metrics(reg, self.env(), labels);
        let heap = Arc::clone(&self.heap);
        reg.register_fn(labels, move |c| heap.stats.snapshot().collect_metrics(c));
    }

    fn checkpoint(&self) -> Option<Result<u64, ExecError>> {
        self.env.wal.as_ref()?;
        Some(self.heap.checkpoint().map_err(|e| {
            // The heap surfaces typed recovery errors through the
            // io::Error bridge; recover the structure (file, offset)
            // when it is there, fall back to the retryable log-I/O
            // class otherwise.
            match finecc_wal::as_recovery_error(&e) {
                Some(rec) => ExecError::Recovery {
                    file: rec.file().display().to_string(),
                    offset: rec.offset(),
                    detail: rec.to_string(),
                },
                None => ExecError::LogIo(e.to_string()),
            }
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::run_txn;
    use crate::SchemeKind;
    use finecc_lang::parser::FIGURE1_SOURCE;
    use finecc_mvcc::DurabilityLevel;

    fn setup() -> (MvccScheme, Oid, Oid) {
        let env = Env::from_source(FIGURE1_SOURCE).unwrap();
        let c1 = env.schema.class_by_name("c1").unwrap();
        let c2 = env.schema.class_by_name("c2").unwrap();
        let o1 = env.db.create(c1);
        let o2 = env.db.create(c2);
        (MvccScheme::new(env), o1, o2)
    }

    #[test]
    fn isolation_level_names_the_scheme() {
        let env = Env::from_source(FIGURE1_SOURCE).unwrap();
        let s = MvccScheme::with_isolation(env.clone(), IsolationLevel::Serializable);
        assert_eq!(s.name(), "mvcc-ssi");
        assert_eq!(s.isolation(), IsolationLevel::Serializable);
        let s = MvccScheme::new(env);
        assert_eq!(s.name(), "mvcc");
        assert_eq!(s.isolation(), IsolationLevel::Snapshot);
    }

    #[test]
    fn execution_matches_lock_schemes_with_zero_lock_requests() {
        let (s, _, o2) = setup();
        let mut txn = s.begin();
        s.send(&mut txn, o2, "m1", &[Value::Int(3)]).unwrap();
        s.commit(txn).unwrap();
        assert_eq!(s.env().read_named(o2, "c2", "f1"), Value::Int(3));
        assert_eq!(s.env().read_named(o2, "c2", "f4"), Value::Int(3));
        assert_eq!(
            crate::read_metrics(&s).get("finecc.lock.requests"),
            None,
            "no lock manager, hence no lock sample, ever"
        );
        assert_eq!(s.heap().stats.snapshot().commits, 1);
    }

    #[test]
    fn readers_never_conflict_with_writers() {
        let (s, _, o2) = setup();
        let c2 = s.env().schema.class_by_name("c2").unwrap();
        let f4 = s.env().schema.resolve_field(c2, "f4").unwrap();
        let mut writer = s.begin();
        s.send(&mut writer, o2, "m2", &[Value::Int(9)]).unwrap();
        assert_eq!(s.env().db.read(o2, f4), Ok(Value::Int(9)), "write-through");
        // A concurrent reader runs to completion while the writer holds
        // pending versions — impossible under every lock scheme — and its
        // snapshot predates the pending write.
        let mut reader = s.begin();
        s.send(&mut reader, o2, "m3", &[]).unwrap();
        let session = reader.mvcc.as_mut().unwrap();
        assert_eq!(s.heap().read_as(session, o2, f4), Ok(Value::Int(0)));
        s.commit(reader).unwrap();
        s.commit(writer).unwrap();
        assert_eq!(crate::read_metrics(&s).get("finecc.lock.requests"), None);
    }

    #[test]
    fn same_field_writers_conflict_retryably() {
        // Two transactions running m2 on one instance both write f1/f4:
        // field-level first-updater-wins refuses the second.
        let (s, _, o2) = setup();
        let mut t1 = s.begin();
        s.send(&mut t1, o2, "m2", &[Value::Int(1)]).unwrap();
        let mut t2 = s.begin();
        let err = s.send(&mut t2, o2, "m2", &[Value::Int(9)]).unwrap_err();
        assert!(err.is_deadlock(), "conflict must be retryable: {err}");
        s.abort(t2);
        s.commit(t1).unwrap();
        assert_eq!(s.heap().stats.snapshot().write_conflicts, 1);
        // The retry (fresh snapshot) succeeds.
        let out = run_txn(&s, 3, |txn| s.send(txn, o2, "m2", &[Value::Int(9)]));
        assert!(out.is_committed());
    }

    #[test]
    fn disjoint_field_writers_commute_like_tav() {
        // The paper's pseudo-conflict P4: m2 (f1, f4) and m4 (f6) write
        // the same instance but disjoint fields. Like the TAV scheme —
        // and unlike RW — MVCC admits the overlap.
        let (s, _, o2) = setup();
        let mut t1 = s.begin();
        let mut t2 = s.begin();
        s.send(&mut t1, o2, "m2", &[Value::Int(1)]).unwrap();
        s.send(&mut t2, o2, "m4", &[Value::Int(5), Value::Int(2)])
            .unwrap();
        s.commit(t1).unwrap();
        s.commit(t2).unwrap();
        assert_eq!(s.heap().stats.snapshot().write_conflicts, 0);
        assert_eq!(s.heap().stats.snapshot().commits, 2);
    }

    #[test]
    fn abort_leaves_no_trace() {
        let (s, _, o2) = setup();
        let mut txn = s.begin();
        s.send(&mut txn, o2, "m2", &[Value::Int(9)]).unwrap();
        assert_eq!(s.env().read_named(o2, "c2", "f4"), Value::Int(9));
        s.abort(txn);
        assert_eq!(s.env().read_named(o2, "c2", "f4"), Value::Int(0));
        assert_eq!(s.env().read_named(o2, "c2", "f1"), Value::Int(0));
        assert_eq!(s.heap().live_versions(), 0);
    }

    #[test]
    fn a_transaction_the_heap_does_not_know_is_refused_not_retried() {
        let (s, _, _) = setup();
        let stranger = Txn::new(TxnId(1 << 40));
        let err = s.commit(stranger).unwrap_err();
        assert!(matches!(
            err,
            ExecError::ConcurrencyAbort {
                deadlock: false,
                ..
            }
        ));
        assert!(!err.is_retryable(), "{err}");
        // Aborting one is a no-op rather than a panic.
        s.abort(Txn::new(TxnId(1 << 40)));
        assert_eq!(s.heap().stats.snapshot().commits, 0);
    }

    #[test]
    fn a_write_by_a_transaction_the_heap_does_not_know_leaves_nothing_behind() {
        let (s, _, o2) = setup();
        let mut stranger = Txn::new(TxnId(1 << 40));
        let err = s
            .send(&mut stranger, o2, "m2", &[Value::Int(9)])
            .unwrap_err();
        assert!(
            matches!(
                err,
                ExecError::ConcurrencyAbort {
                    deadlock: false,
                    ..
                }
            ),
            "{err}"
        );
        assert!(!err.is_retryable(), "{err}");
        assert_eq!(s.env().read_named(o2, "c2", "f1"), Value::Int(0));
        assert_eq!(s.env().read_named(o2, "c2", "f4"), Value::Int(0));
        assert_eq!(s.heap().live_versions(), 0);
        // The fields are not poisoned: an honest writer commits them on
        // its first attempt.
        let out = run_txn(&s, 3, |txn| s.send(txn, o2, "m2", &[Value::Int(7)]));
        assert!(
            matches!(out, crate::TxnOutcome::Committed { retries: 0, .. }),
            "an honest writer must commit at once"
        );
        assert_eq!(s.env().read_named(o2, "c2", "f4"), Value::Int(7));
    }

    #[test]
    fn a_hand_built_transaction_the_heap_does_not_know_is_refused_not_retried() {
        let (s, o1, o2) = setup();
        let c1 = s.env().schema.class_by_name("c1").unwrap();
        // No cached snapshot timestamp, and none in the heap's registry.
        let mut stranger = Txn::new(TxnId(1 << 40));
        let refusals = [
            s.send(&mut stranger, o2, "m3", &[]).unwrap_err(),
            s.send_all(&mut stranger, c1, "m3", &[]).unwrap_err(),
            s.send_some(&mut stranger, c1, &[o1], "m3", &[])
                .unwrap_err(),
        ];
        for err in refusals {
            assert!(
                matches!(
                    err,
                    ExecError::ConcurrencyAbort {
                        deadlock: false,
                        ..
                    }
                ),
                "{err}"
            );
            assert!(!err.is_retryable(), "{err}");
        }
    }

    #[test]
    fn ids_are_distinct_and_increase_within_each_thread() {
        const THREADS: usize = 16;
        const BEGINS: usize = 10_000;
        let (s, _, _) = setup();
        let per_thread: Vec<Vec<TxnId>> = std::thread::scope(|scope| {
            let s = &s;
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(move || {
                        (0..BEGINS)
                            .map(|_| {
                                let txn = s.begin();
                                let id = txn.id;
                                s.abort(txn);
                                id
                            })
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for ids in &per_thread {
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "increasing per thread");
        }
        let all: std::collections::HashSet<TxnId> = per_thread.into_iter().flatten().collect();
        assert_eq!(all.len(), THREADS * BEGINS, "distinct over all threads");
        assert_eq!(s.heap().stats.snapshot().begins, (THREADS * BEGINS) as u64);
    }

    #[test]
    fn send_all_and_send_some_run_without_locks() {
        let (s, o1, o2) = setup();
        let c1 = s.env().schema.class_by_name("c1").unwrap();
        let mut txn = s.begin();
        let results = s.send_all(&mut txn, c1, "m2", &[Value::Int(2)]).unwrap();
        assert_eq!(results.len(), 2, "deep extent: o1 and o2");
        s.commit(txn).unwrap();
        assert_eq!(s.env().read_named(o1, "c1", "f1"), Value::Int(2));
        assert_eq!(s.env().read_named(o2, "c2", "f4"), Value::Int(2));

        let mut txn = s.begin();
        let results = s.send_some(&mut txn, c1, &[o1], "m3", &[]).unwrap();
        assert_eq!(results.len(), 1);
        s.commit(txn).unwrap();
        assert_eq!(crate::read_metrics(&s).get("finecc.lock.requests"), None);
    }

    /// The benchmark ledger's shape: `balance_of` reads `balance`,
    /// `set_limit` writes only `limit`, `withdraw` writes `balance` only
    /// when it covers the amount, and `peer_balance` reads a reference
    /// field and asks the account behind it.
    const LEDGER: &str = r#"
class account {
  fields { balance: integer; limit: integer; }
  method balance_of is
    return balance
  end
  method set_limit(l) is
    limit := l
  end
  method deposit(amt) is
    balance := balance + amt
  end
  method withdraw(amt) is
    if balance >= amt then
      balance := balance - amt
    end
  end
}
class savings inherits account {
  fields { peer: account; }
  method peer_balance is
    return send balance_of to peer
  end
}
"#;

    #[test]
    fn an_extent_read_is_validated_at_class_granularity() {
        const N: usize = 100;
        let env = Env::from_source(LEDGER).unwrap();
        let account = env.schema.class_by_name("account").unwrap();
        let savings = env.schema.class_by_name("savings").unwrap();
        let peer = env.schema.resolve_field(savings, "peer").unwrap();
        let outside = env.db.create(account);
        let oids: Vec<Oid> = (0..N).map(|_| env.db.create(savings)).collect();
        for &o in &oids {
            env.db.write(o, peer, Value::Ref(outside)).unwrap();
        }
        let s = MvccScheme::with_isolation(env, IsolationLevel::Serializable);
        let edges = || s.heap().stats.snapshot().ssi_edges;
        let mut scan = s.begin();
        let balances = s.send_all(&mut scan, savings, "balance_of", &[]).unwrap();
        assert_eq!(balances.len(), N);
        // `limit` is outside balance_of's vector: no edge.
        let mut limit = s.begin();
        s.send(&mut limit, oids[1], "set_limit", &[Value::Int(5)])
            .unwrap();
        assert_eq!(edges(), 0);
        // A covered field meets the class entry — exactly once, so no
        // per-instance entry was registered beside it.
        let mut deposit = s.begin();
        s.send(&mut deposit, oids[2], "deposit", &[Value::Int(5)])
            .unwrap();
        assert_eq!(edges(), 1);
        for txn in [scan, limit, deposit] {
            s.commit(txn).unwrap();
        }
        // A read through a reference, of an instance outside the domain,
        // still registers per instance: its writer finds it.
        let mut scan = s.begin();
        s.send_all(&mut scan, savings, "peer_balance", &[]).unwrap();
        let mut deposit = s.begin();
        s.send(&mut deposit, outside, "deposit", &[Value::Int(5)])
            .unwrap();
        assert_eq!(edges(), 2);
        s.commit(scan).unwrap();
        s.commit(deposit).unwrap();
    }

    #[test]
    fn a_write_skew_read_through_a_reference_is_refused() {
        // Each transaction reads the other account's balance inside the
        // message `peer_balance` sends through `peer`, then deposits into
        // its own: write skew. That inner message registers on its own
        // receiver, so each deposit finds the other transaction there.
        let env = Env::from_source(LEDGER).unwrap();
        let savings = env.schema.class_by_name("savings").unwrap();
        let peer = env.schema.resolve_field(savings, "peer").unwrap();
        let (a, b, c) = (
            env.db.create(savings),
            env.db.create(savings),
            env.db.create(savings),
        );
        env.db.write(a, peer, Value::Ref(b)).unwrap();
        env.db.write(b, peer, Value::Ref(a)).unwrap();
        let s = MvccScheme::with_isolation(env, IsolationLevel::Serializable);
        // An older snapshot stays live, so neither transaction below
        // begins safe (and none converts and re-walks later).
        let pin = s.begin();
        let out = run_txn(&s, 1, |txn| s.send(txn, c, "deposit", &[Value::Int(1)]));
        assert!(out.is_committed());
        let (mut t1, mut t2) = (s.begin(), s.begin());
        for txn in [&t1, &t2] {
            assert!(!txn.mvcc.as_ref().is_some_and(MvccTxn::is_safe));
        }
        assert_eq!(s.send(&mut t1, a, "peer_balance", &[]), Ok(Value::Int(0)));
        assert_eq!(s.send(&mut t2, b, "peer_balance", &[]), Ok(Value::Int(0)));
        s.send(&mut t1, a, "deposit", &[Value::Int(5)]).unwrap();
        s.send(&mut t2, b, "deposit", &[Value::Int(5)]).unwrap();
        assert_eq!(s.heap().stats.snapshot().ssi_edges, 2);
        let (r1, r2) = (s.commit(t1), s.commit(t2));
        assert!(r1.is_err() || r2.is_err(), "both committed: {r1:?} {r2:?}");
        s.commit(pin).unwrap();
    }

    #[test]
    fn a_message_that_may_write_ends_a_safe_snapshot() {
        let env = Env::from_source(LEDGER).unwrap();
        let account = env.schema.class_by_name("account").unwrap();
        let o = env.db.create(account);
        let s = MvccScheme::with_isolation(env, IsolationLevel::Serializable);
        let safe = |txn: &Txn| txn.mvcc.as_ref().is_some_and(MvccTxn::is_safe);
        let mut txn = s.begin();
        assert!(safe(&txn), "nothing else is live");
        s.send(&mut txn, o, "balance_of", &[]).unwrap();
        assert!(safe(&txn), "balance_of's access vector only reads");
        // The balance is 0, so `withdraw` writes nothing, but its access
        // vector writes `balance`: the conversion runs at the message,
        // before the body's first read.
        s.send(&mut txn, o, "withdraw", &[Value::Int(5)]).unwrap();
        assert!(!safe(&txn));
        assert_eq!(s.heap().live_versions(), 0, "nothing was written");
        s.commit(txn).unwrap();
        let m = s.heap().stats.snapshot();
        assert_eq!((m.begins, m.ssi_safe_snapshots), (1, 1));
    }

    #[test]
    fn commit_sequences_are_the_commit_timestamps() {
        let (s, o1, _) = setup();
        let mut last = 0;
        for i in 1..=5 {
            let mut txn = s.begin();
            s.send(&mut txn, o1, "m2", &[Value::Int(i)]).unwrap();
            let seq = s.commit(txn).unwrap();
            assert!(seq > last);
            last = seq;
        }
        assert_eq!(last, s.heap().current_ts());
    }

    #[test]
    fn durable_scheme_recovers_committed_state() {
        let dir =
            std::env::temp_dir().join(format!("finecc-scheme-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let env = Env::from_source(FIGURE1_SOURCE).unwrap();
        let c2 = env.schema.class_by_name("c2").unwrap();
        let f1 = env.schema.resolve_field(c2, "f1").unwrap();
        let f4 = env.schema.resolve_field(c2, "f4").unwrap();
        let o2 = env.db.create(c2);
        let s = SchemeKind::Mvcc
            .build_durable(env, DurabilityLevel::WalSync, &dir)
            .unwrap();
        assert_eq!(s.env().durability(), DurabilityLevel::WalSync);
        let mut txn = s.begin();
        s.send(&mut txn, o2, "m1", &[Value::Int(9)]).unwrap();
        s.commit(txn).unwrap();
        // An aborted transaction must leave no trace in the log.
        let mut txn = s.begin();
        s.send(&mut txn, o2, "m2", &[Value::Int(77)]).unwrap();
        s.abort(txn);
        let wal = s.env().wal.as_ref().unwrap().stats().snapshot();
        assert!(wal.appends >= 1 && wal.log_fsyncs >= 1 && wal.log_bytes > 0);
        drop(s);
        let (heap, info) = MvccHeap::recover(
            &dir,
            IsolationLevel::Snapshot,
            finecc_mvcc::WalConfig::default(),
        )
        .unwrap();
        assert_eq!(info.replayed, 1, "one committed txn replayed");
        assert_eq!(heap.base().read(o2, f1), Ok(Value::Int(9)));
        assert_eq!(heap.base().read(o2, f4), Ok(Value::Int(9)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durability_level_none_changes_nothing() {
        let (s, _, o2) = setup();
        assert_eq!(s.env().durability(), DurabilityLevel::None);
        assert!(s.env().wal.is_none());
        assert!(s.checkpoint().is_none(), "no log, no online checkpoint");
        let mut txn = s.begin();
        s.send(&mut txn, o2, "m2", &[Value::Int(3)]).unwrap();
        s.commit(txn).unwrap();
    }

    #[test]
    fn online_checkpoint_truncates_through_the_scheme() {
        let dir = std::env::temp_dir().join(format!("finecc-scheme-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let env = Env::from_source(FIGURE1_SOURCE).unwrap();
        let c2 = env.schema.class_by_name("c2").unwrap();
        let o2 = env.db.create(c2);
        let s = SchemeKind::Mvcc
            .build_durable(env, DurabilityLevel::WalSync, &dir)
            .unwrap();
        for i in 0..4 {
            let mut txn = s.begin();
            s.send(&mut txn, o2, "m1", &[Value::Int(i)]).unwrap();
            s.commit(txn).unwrap();
        }
        let ts = s
            .checkpoint()
            .expect("durable mvcc scheme checkpoints online")
            .expect("quiet checkpoint succeeds");
        assert!(ts >= 4);
        let wal = s.env().wal.as_ref().unwrap().stats().snapshot();
        assert_eq!(wal.truncations, 2, "maintenance ran at genesis + online");
        assert!(wal.truncated_bytes > 0, "pre-image commits were dropped");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retry_loop_commits_under_contention() {
        let (s, _, o2) = setup();
        let s = std::sync::Arc::new(s);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let s = std::sync::Arc::clone(&s);
                scope.spawn(move || {
                    for _ in 0..50 {
                        let out = run_txn(s.as_ref(), 1000, |txn| {
                            s.send(txn, o2, "m2", &[Value::Int(1)])
                        });
                        assert!(out.is_committed());
                    }
                });
            }
        });
        let m = s.heap().stats.snapshot();
        assert_eq!(m.commits, 200);
        assert_eq!(
            crate::read_metrics(&*s).get("finecc.lock.requests"),
            None,
            "contention resolved without locks"
        );
    }
}

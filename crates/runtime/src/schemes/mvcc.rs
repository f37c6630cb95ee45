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
//!   the field). The snapshot
//!   timestamp is cached in the transaction session, so steady-state
//!   operations skip the heap's transaction registry too.
//! * **Writes** install pending versions under first-updater-wins
//!   admission control at **field granularity** — like the TAV scheme,
//!   writers of disjoint fields of one instance run in parallel (the
//!   paper's P4, solved by versioning instead of commutativity
//!   matrices). A conflicting write fails with a *retryable*
//!   [`ExecError::ConcurrencyAbort`], so the standard
//!   [`crate::run_txn`] retry loop re-runs the transaction on a fresh
//!   snapshot — the optimistic analogue of a deadlock-victim restart.
//! * **Commit** draws one timestamp and flips every pending version
//!   atomically with respect to new snapshots; the returned commit
//!   sequence *is* the commit timestamp. At `Snapshot` commit is
//!   infallible (all validation happened at write time). At
//!   `Serializable` the heap validates Cahill-style conflict flags fed
//!   by the interpreter's field-granularity footprints and refuses
//!   dangerous structures with a retryable
//!   [`ExecError::ConcurrencyAbort`]; [`crate::run_txn`] re-runs the
//!   victim on a fresh snapshot exactly like a deadlock victim.
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
use finecc_model::{ClassId, FieldId, Oid, TxnId, Value};
use finecc_mvcc::{
    CommitError, DurabilityLevel, IsolationLevel, MvccHeap, MvccWriteError, SsiConflict, Wal,
    WalConfig,
};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Snapshot reads + optimistic first-updater-wins writes over the
/// multi-version heap.
pub struct MvccScheme {
    env: Env,
    heap: Arc<MvccHeap>,
    next_txn: AtomicU64,
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
            next_txn: AtomicU64::new(1),
        }
    }

    /// Builds the scheme at the given isolation level with write-ahead
    /// durability: the heap logs every writer commit's field-granular
    /// redo images into `dir` **before** publishing its timestamp
    /// (durable before visible), writes a genesis checkpoint if the
    /// directory has none, and — at [`DurabilityLevel::WalSync`] —
    /// holds each commit until the group fsync covers its record.
    /// [`DurabilityLevel::None`] builds the plain scheme: the snapshot
    /// read path is identical in every configuration (the log is only
    /// ever touched at commit).
    pub fn with_durability(
        env: Env,
        isolation: IsolationLevel,
        level: DurabilityLevel,
        dir: impl AsRef<Path>,
    ) -> std::io::Result<MvccScheme> {
        if level == DurabilityLevel::None {
            return Ok(MvccScheme::with_isolation(env, isolation));
        }
        let wal = Arc::new(Wal::open_with_obs(
            dir,
            WalConfig {
                level,
                ..WalConfig::default()
            },
            Arc::clone(&env.obs),
        )?);
        let heap = Arc::new(
            MvccHeap::with_wal(Arc::clone(&env.db), isolation, Arc::clone(&wal))?
                .with_obs(Arc::clone(&env.obs)),
        );
        let mut env = env;
        // Shared handle: `Env::durability` and the metrics wiring
        // read it uniformly across all six schemes.
        env.wal = Some(wal);
        Ok(MvccScheme {
            heap,
            env,
            next_txn: AtomicU64::new(1),
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
            // Not this scheme's transaction (or one already ended):
            // nothing was installed, and a re-run would fare no better.
            e @ MvccWriteError::UnknownTxn(_) => ExecError::ConcurrencyAbort {
                deadlock: false,
                msg: e.to_string(),
            },
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
    txn: TxnId,
    /// The transaction's snapshot timestamp, cached in the [`Txn`]
    /// session at begin — field reads and writes go straight to the
    /// version chains without ever touching the heap's transaction
    /// registry.
    snapshot_ts: u64,
}

impl DataAccess for MvccAccess<'_> {
    fn class_of(&mut self, oid: Oid) -> Result<ClassId, ExecError> {
        self.env.db.class_of(oid).map_err(Env::store_err)
    }

    fn read_field(&mut self, oid: Oid, field: FieldId) -> Result<Value, ExecError> {
        self.heap
            .read_as(self.snapshot_ts, Some(self.txn), oid, field)
            .map_err(Env::store_err)
    }

    fn write_field(&mut self, oid: Oid, field: FieldId, value: Value) -> Result<(), ExecError> {
        self.heap
            .write_at(self.snapshot_ts, self.txn, oid, field, value)
            .map(drop)
            .map_err(MvccScheme::exec_err)
    }

    // on_message / on_self_message: default no-ops. There is no lock to
    // announce — versioning replaces admission control for readers, and
    // writers are validated at each write.
}

impl MvccScheme {
    fn access<'a>(&'a self, txn: &Txn) -> MvccAccess<'a> {
        // The snapshot timestamp is cached in the transaction session at
        // begin, so steady-state message sends never touch the heap's
        // transaction registry (the fallback covers hand-built `Txn`s).
        let snapshot_ts = txn.snapshot_ts.unwrap_or_else(|| {
            self.heap
                .snapshot_ts(txn.id)
                .expect("transaction began through this scheme")
        });
        MvccAccess {
            env: &self.env,
            heap: &self.heap,
            txn: txn.id,
            snapshot_ts,
        }
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
        let id = TxnId(self.next_txn.fetch_add(1, Ordering::Relaxed));
        let snapshot_ts = self.heap.begin(id);
        Txn::with_snapshot_ts(id, snapshot_ts)
    }

    fn send(
        &self,
        txn: &mut Txn,
        oid: Oid,
        method: &str,
        args: &[Value],
    ) -> Result<Value, ExecError> {
        let mut da = self.access(txn);
        interpreter(&self.env).send(&mut da, oid, method, args)
    }

    fn send_all(
        &self,
        txn: &mut Txn,
        root: ClassId,
        method: &str,
        args: &[Value],
    ) -> Result<Vec<Value>, ExecError> {
        let extent = self.env.db.deep_extent(root);
        send_each(&self.env, &mut self.access(txn), extent, method, args)
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
        send_each(&self.env, &mut self.access(txn), oids, method, args)
    }

    fn commit(&self, mut txn: Txn) -> Result<u64, ExecError> {
        // The undo log is unused: rollback state lives in the version
        // chains' before-images. Writers return their fresh (unique)
        // commit timestamp; read-only transactions serialize at — and
        // return — their snapshot timestamp, skipping the commit lock.
        // At Serializable the heap validates here and rolls the
        // transaction back itself on a dangerous structure.
        txn.undo.clear();
        self.heap.commit(txn.id).map_err(|e| match e {
            CommitError::Ssi(c) => MvccScheme::ssi_err(c),
            // The heap already rolled the transaction back and skip-
            // published the drawn timestamp; the failure is retryable.
            CommitError::LogIo(m) => ExecError::LogIo(m),
            // Not this scheme's transaction (or one already ended):
            // nothing was touched, and a re-run would fare no better.
            e @ CommitError::UnknownTxn(_) => ExecError::ConcurrencyAbort {
                deadlock: false,
                msg: e.to_string(),
            },
        })
    }

    fn abort(&self, mut txn: Txn) {
        txn.undo.clear();
        self.heap.abort(txn.id);
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
    use finecc_lang::parser::FIGURE1_SOURCE;

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
        assert_eq!(s.heap().read(reader.id, o2, f4), Ok(Value::Int(0)));
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
        let stranger = Txn::with_snapshot_ts(TxnId(1 << 40), 0);
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
        s.abort(Txn::with_snapshot_ts(TxnId(1 << 40), 0));
        assert_eq!(s.heap().stats.snapshot().commits, 0);
    }

    #[test]
    fn a_write_by_a_transaction_the_heap_does_not_know_leaves_nothing_behind() {
        let (s, _, o2) = setup();
        let mut stranger = Txn::with_snapshot_ts(TxnId(1 << 40), 0);
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
        let s = MvccScheme::with_durability(
            env,
            IsolationLevel::Snapshot,
            DurabilityLevel::WalSync,
            &dir,
        )
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
        let s = MvccScheme::with_durability(
            env,
            IsolationLevel::Snapshot,
            DurabilityLevel::WalSync,
            &dir,
        )
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

//! The shared execution environment: schema, compiled artifacts, store,
//! bodies and builtins, bundled for cheap cloning into schemes and
//! worker threads.

use crate::txn::Txn;
use finecc_core::CompiledSchema;
use finecc_lang::{Builtins, ExecError, MethodBodies};
use finecc_model::{Oid, Schema, Value};
use finecc_obs::Obs;
use finecc_store::{Database, StoreError};
use finecc_wal::{CheckpointData, DurabilityLevel, InstanceImage, Wal};
use std::sync::Arc;

/// Everything a concurrency-control scheme needs to execute methods.
#[derive(Clone)]
pub struct Env {
    /// The schema.
    pub schema: Arc<Schema>,
    /// Compiled access vectors, graphs, and commutativity matrices.
    pub compiled: Arc<CompiledSchema>,
    /// The object store.
    pub db: Arc<Database>,
    /// Parsed method bodies.
    pub bodies: Arc<MethodBodies>,
    /// Builtin functions.
    pub builtins: Arc<Builtins>,
    /// Interpreter limits.
    pub max_depth: usize,
    /// Interpreter loop fuel.
    pub max_fuel: u64,
    /// Lock-wait timeout for the schemes' lock managers. Short timeouts
    /// turn "would block forever" into an error, which the scenario
    /// machinery uses to probe conflicts.
    pub lock_timeout: std::time::Duration,
    /// Global commit-sequence counter. A scheme draws the next number
    /// *while still holding its locks*, so the sequence is a valid
    /// serialization order for conflicting transactions (used by the
    /// serializability checker in `tests/`).
    pub commit_seq: Arc<std::sync::atomic::AtomicU64>,
    /// The attached write-ahead log (`None` at
    /// `DurabilityLevel::None`). The lock schemes append their
    /// undo-projection redo images here at commit while still holding
    /// their 2PL locks; the mvcc schemes share the same handle with
    /// their heap so its counters surface uniformly through
    /// [`crate::metrics::register_env_metrics`].
    pub wal: Option<Arc<Wal>>,
    /// The observability sink every scheme built over this environment
    /// records into: latency histograms and per-object contention
    /// counts. Disabled by default — each probe is then a single
    /// branch; install an enabled handle with
    /// [`Env::with_obs`] **before** building schemes or opening a log,
    /// because the lock managers, the mvcc heap and the WAL flusher all
    /// clone it at construction.
    pub obs: Arc<Obs>,
}

impl Env {
    /// Builds an environment from a parsed and compiled program, with an
    /// empty database and standard builtins.
    pub fn new(schema: Schema, bodies: MethodBodies, compiled: CompiledSchema) -> Env {
        let schema = Arc::new(schema);
        Env {
            db: Arc::new(Database::new(Arc::clone(&schema))),
            schema,
            compiled: Arc::new(compiled),
            bodies: Arc::new(bodies),
            builtins: Arc::new(Builtins::standard()),
            max_depth: 128,
            max_fuel: 1_000_000,
            lock_timeout: std::time::Duration::from_secs(10),
            commit_seq: Arc::new(std::sync::atomic::AtomicU64::new(0)),
            wal: None,
            obs: Arc::new(Obs::disabled()),
        }
    }

    /// Draws the next commit sequence number.
    pub fn next_commit_seq(&self) -> u64 {
        self.commit_seq
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }

    /// Returns the environment with a different lock-wait timeout.
    pub fn with_lock_timeout(mut self, d: std::time::Duration) -> Env {
        self.lock_timeout = d;
        self
    }

    /// Returns the environment with an observability sink. Must be set
    /// before schemes are built (they clone the handle at
    /// construction).
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Env {
        self.obs = obs;
        self
    }

    /// The durability level of every scheme built over this environment
    /// — a scheme parameter like the isolation level.
    pub fn durability(&self) -> DurabilityLevel {
        self.wal
            .as_ref()
            .map_or(DurabilityLevel::None, |w| w.level())
    }

    /// Attaches a **fresh** write-ahead log for the lock schemes'
    /// undo-path durability, writing a quiescent genesis checkpoint of
    /// the base store — the recovery base every later commit record
    /// replays onto. Call before any transaction runs; lock schemes
    /// have no version chains to time-travel through, so their
    /// checkpoints are only consistent at quiescent points (the mvcc
    /// schemes checkpoint fuzzily through their heap instead).
    ///
    /// A directory with prior history is **rejected**: this
    /// environment's store was not built from that history, so
    /// appending to it would interleave two unrelated incarnations
    /// (colliding OIDs, a checkpoint that contradicts the live state).
    /// To resume a directory, rebuild the store from it first
    /// (`finecc_wal::recover_database`), install it as [`Env::db`],
    /// and call [`Env::resume_wal`].
    pub fn attach_wal(&mut self, wal: Arc<Wal>) -> std::io::Result<()> {
        if wal.max_logged_ts() > 0 || wal.has_checkpoint()? {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "log directory has prior history; recover it into the environment \
                 (finecc_wal::recover_database + Env::resume_wal) or use a fresh directory",
            ));
        }
        self.wal = Some(wal);
        self.write_quiescent_checkpoint()?;
        Ok(())
    }

    /// Attaches a write-ahead log whose directory's history this
    /// environment's store was **recovered from**: resumes the
    /// commit-sequence clock above everything logged or checkpointed
    /// (so recovered and new commits never share a sequence number)
    /// and leaves the existing checkpoints in place. The caller is
    /// responsible for [`Env::db`] actually holding the recovered
    /// state — see [`Env::attach_wal`] for why attaching a mismatched
    /// store is rejected there.
    pub fn resume_wal(&mut self, wal: Arc<Wal>) -> std::io::Result<()> {
        let floor = finecc_wal::recovery_floor(wal.dir())?;
        self.commit_seq
            .fetch_max(floor, std::sync::atomic::Ordering::Relaxed);
        self.wal = Some(wal);
        Ok(())
    }

    /// Writes a point-in-time checkpoint of the base store to the
    /// attached log (quiescent-only: grabs the store's shard locks for
    /// a consistent copy — see [`Env::attach_wal`]). Returns the
    /// commit-sequence floor the checkpoint replays from.
    pub fn write_quiescent_checkpoint(&self) -> std::io::Result<u64> {
        let wal = self
            .wal
            .as_ref()
            .expect("checkpoint requires an attached write-ahead log");
        let ckpt_start = self.obs.clock();
        let seq = self.commit_seq.load(std::sync::atomic::Ordering::Relaxed);
        let instances = self
            .db
            .snapshot()
            .into_iter()
            .map(|(oid, inst)| InstanceImage {
                oid,
                class: inst.class,
                values: inst.values,
            })
            .collect();
        wal.write_checkpoint(&CheckpointData {
            ckpt_ts: seq,
            replay_from: seq,
            next_oid: self.db.next_oid_hint(),
            schema: &self.schema,
            instances,
        })?;
        self.obs
            .record_since(finecc_obs::Phase::Checkpoint, ckpt_start);
        Ok(seq)
    }

    /// Draws the transaction's commit sequence and appends its redo
    /// images — the current values of every field its undo log
    /// projected, read while the 2PL locks are still held — to the
    /// attached log under that sequence, then discards the undo log.
    /// Returns the sequence. The draw happens **inside the log's
    /// staging latch** ([`Wal::append_commit_with`]), so the log holds
    /// the lock schemes' commits in strictly increasing sequence order
    /// however long a client is preempted around its commit, and
    /// recovery's reorder window has nothing to reorder. Without an
    /// attached log, or for a read-only transaction, nothing is logged
    /// and the sequence is simply drawn.
    ///
    /// A commit that cannot be made durable must not be acked: when the
    /// log refuses the record, the transaction is rolled back right
    /// here — before any lock is released, so nothing of it was ever
    /// visible — and a retryable [`ExecError::LogIo`] is returned (the
    /// log degrades batch by batch; the failure may be transient).
    pub fn log_commit_redo(&self, txn: &mut Txn) -> Result<u64, ExecError> {
        let seq = match &self.wal {
            Some(wal) if !txn.undo.is_empty() => {
                let writes = txn.undo.redo_projection(&self.db);
                match wal.append_commit_with(|| self.next_commit_seq(), txn.id, &writes) {
                    Ok(seq) => seq,
                    Err(e) => {
                        txn.undo.rollback(&self.db);
                        return Err(ExecError::LogIo(e.to_string()));
                    }
                }
            }
            _ => self.next_commit_seq(),
        };
        txn.undo.clear();
        Ok(seq)
    }

    /// Parses `source`, compiles it, and builds the environment.
    pub fn from_source(source: &str) -> Result<Env, Box<dyn std::error::Error + Send + Sync>> {
        let (schema, bodies) = finecc_lang::build_schema(source)?;
        let compiled = finecc_core::compile(&schema, &bodies)?;
        Ok(Env::new(schema, bodies, compiled))
    }

    /// Maps a store error onto the interpreter's error type.
    pub fn store_err(e: StoreError) -> ExecError {
        match e {
            StoreError::UnknownOid(o) => ExecError::UnknownOid(o),
            StoreError::FieldNotVisible { oid, field } => ExecError::FieldNotVisible { oid, field },
            other => ExecError::TypeError(other.to_string()),
        }
    }

    /// Maps a lock acquisition failure onto the interpreter's error type
    /// so it unwinds the executing method immediately.
    pub fn lock_err(e: finecc_lock::AcquireError) -> ExecError {
        ExecError::ConcurrencyAbort {
            deadlock: e == finecc_lock::AcquireError::Deadlock,
            msg: e.to_string(),
        }
    }

    /// Convenience: read a field by class and name (panics on bad names;
    /// intended for tests and examples).
    pub fn read_named(&self, oid: Oid, class: &str, field: &str) -> Value {
        let c = self.schema.class_by_name(class).expect("class exists");
        let f = self.schema.resolve_field(c, field).expect("field exists");
        self.db.read(oid, f).expect("instance exists")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use finecc_lang::parser::FIGURE1_SOURCE;

    #[test]
    fn from_source_builds() {
        let env = Env::from_source(FIGURE1_SOURCE).unwrap();
        assert_eq!(env.schema.class_count(), 3);
        assert_eq!(env.compiled.total_modes(), 8);
        assert!(env.db.is_empty());
    }

    #[test]
    fn attach_wal_rejects_foreign_history_resume_accepts_it() {
        let dir = std::env::temp_dir().join(format!("finecc-env-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut env = Env::from_source(FIGURE1_SOURCE).unwrap();
        let wal = Arc::new(finecc_wal::Wal::open(&dir, finecc_wal::WalConfig::default()).unwrap());
        let c2 = env.schema.class_by_name("c2").unwrap();
        let f4 = env.schema.resolve_field(c2, "f4").unwrap();
        let o = env.db.create(c2);
        env.attach_wal(Arc::clone(&wal)).unwrap();
        assert!(wal.has_checkpoint().unwrap(), "genesis checkpoint written");
        let mut txn = crate::txn::Txn::new(finecc_model::TxnId(1));
        txn.undo.record(o, f4, Value::Int(0));
        env.db.write(o, f4, Value::Int(9)).unwrap();
        let seq = env.log_commit_redo(&mut txn).unwrap();
        drop(env);
        drop(wal);
        // A second, unrelated environment must NOT attach to the
        // directory's history — its store was not recovered from it.
        let mut env2 = Env::from_source(FIGURE1_SOURCE).unwrap();
        let wal2 = Arc::new(finecc_wal::Wal::open(&dir, finecc_wal::WalConfig::default()).unwrap());
        assert!(env2.attach_wal(Arc::clone(&wal2)).is_err());
        // The resume path accepts it (caller vouches for the store)
        // and bumps the commit sequence past the logged history.
        env2.resume_wal(wal2).unwrap();
        assert!(
            env2.next_commit_seq() > seq,
            "sequence resumed above the history"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn error_mapping() {
        let e = Env::store_err(StoreError::UnknownOid(Oid(3)));
        assert!(matches!(e, ExecError::UnknownOid(Oid(3))));
        let e = Env::lock_err(finecc_lock::AcquireError::Deadlock);
        assert!(e.is_deadlock());
        let e = Env::lock_err(finecc_lock::AcquireError::Timeout);
        assert!(!e.is_deadlock());
    }
}

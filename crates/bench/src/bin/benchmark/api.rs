//! The one seam between the benchmark and the program under test.
//!
//! Every call into `finecc-*` goes through this module, so a refactor
//! of the program has exactly one benchmark file to keep compiling —
//! and a change that claims a gain never needs to edit the benchmark.
//! It deliberately uses none of `finecc_bench`'s helpers and none of
//! `CcScheme::{stats, mvcc_stats, wal_stats}` (slated for removal):
//! counters are read by dotted name through
//! `CcScheme::register_metrics` → `MetricsRegistry::snapshot`.

use finecc_core::CompiledSchema;
use finecc_lang::{Interpreter, MethodBodies};
use finecc_lock::{CommutSource, LockManager, LockMode, ResourceId};
pub use finecc_mvcc::DEFAULT_REORDER_WINDOW;
use finecc_mvcc::{recover_database_with_window, MvccHeap, Wal, WalConfig};
use finecc_obs::{MetricsRegistry, Obs, ObsConfig};
use finecc_runtime::{CcScheme, TxnOutcome};
use finecc_store::{Database, FieldImage, UndoLog};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;

pub use finecc_lang::{DataAccess, ExecError};
pub use finecc_model::{ClassId, FieldId, Instance, Oid, Schema, TxnId, Value};
pub use finecc_mvcc::DurabilityLevel;
pub use finecc_runtime::{Env, SchemeKind, Txn};

/// A point-in-time copy of a store, for the oracle.
pub type State = BTreeMap<Oid, Instance>;

/// Retry budget of every benchmark transaction.
pub const MAX_RETRIES: u32 = 100;

/// Parses and compiles `source` into a fresh environment with an empty
/// store.
pub fn env_from_source(source: &str) -> Env {
    Env::from_source(source).expect("benchmark schema compiles")
}

/// The environment with the program's own histograms and contention
/// attribution switched on (the traced pass).
pub fn with_obs(env: Env) -> Env {
    env.with_obs(Arc::new(Obs::new(ObsConfig::enabled())))
}

/// Parse only (`lang.parse_ms`).
pub fn parse(source: &str) -> (Schema, MethodBodies) {
    finecc_lang::build_schema(source).expect("benchmark schema parses")
}

/// Compile only (`core.compile_ms`).
pub fn compile(schema: &Schema, bodies: &MethodBodies) -> CompiledSchema {
    finecc_core::compile(schema, bodies).expect("benchmark schema compiles")
}

pub fn class(env: &Env, name: &str) -> ClassId {
    env.schema.class_by_name(name).expect("ledger class")
}

pub fn field(env: &Env, class: ClassId, name: &str) -> FieldId {
    env.schema.resolve_field(class, name).expect("ledger field")
}

pub fn create(env: &Env, class: ClassId, init: impl IntoIterator<Item = (FieldId, Value)>) -> Oid {
    env.db.create_with(class, init).expect("typed initialiser")
}

pub fn state(db: &Database) -> State {
    db.snapshot()
}

/// A built scheme over its own environment — the only way the
/// benchmark runs transactions.
pub struct Scheme(Box<dyn CcScheme>);

/// How one [`Scheme::run_txn`] ended, in the benchmark's own terms.
pub enum Outcome<T> {
    Committed { value: T, retries: u32 },
    Exhausted { retries: u32 },
    Failed(String),
}

impl Scheme {
    /// Builds `kind` over `env`; with a log directory the scheme is
    /// durable at `level`.
    pub fn build(kind: SchemeKind, env: Env, durable: Option<(DurabilityLevel, &Path)>) -> Scheme {
        Scheme(match durable {
            None => kind.build(env),
            Some((level, dir)) => kind
                .build_durable(env, level, dir)
                .expect("fresh log directory opens"),
        })
    }

    pub fn env(&self) -> &Env {
        self.0.env()
    }

    /// The program's standard retry loop around `body`.
    pub fn run_txn<T>(&self, body: impl FnMut(&mut Txn) -> Result<T, ExecError>) -> Outcome<T> {
        match finecc_runtime::run_txn(self.0.as_ref(), MAX_RETRIES, body) {
            TxnOutcome::Committed { value, retries } => Outcome::Committed { value, retries },
            TxnOutcome::Exhausted { retries } => Outcome::Exhausted { retries },
            TxnOutcome::Failed(e) => Outcome::Failed(e.to_string()),
        }
    }

    pub fn begin(&self) -> Txn {
        self.0.begin()
    }

    #[inline]
    pub fn send(
        &self,
        txn: &mut Txn,
        oid: Oid,
        method: &str,
        args: &[Value],
    ) -> Result<Value, ExecError> {
        self.0.send(txn, oid, method, args)
    }

    pub fn send_all(
        &self,
        txn: &mut Txn,
        root: ClassId,
        method: &str,
    ) -> Result<Vec<Value>, ExecError> {
        self.0.send_all(txn, root, method, &[])
    }

    pub fn commit(&self, txn: Txn) -> Result<u64, ExecError> {
        self.0.commit(txn)
    }

    /// Drains the scheme's log to disk; a no-op without one.
    pub fn wal_sync(&self) {
        if let Some(wal) = &self.0.env().wal {
            wal.sync().expect("log drains");
        }
    }

    /// `CcScheme::checkpoint`; `false` when the scheme has none.
    pub fn checkpoint(&self) -> bool {
        match self.0.checkpoint() {
            Some(r) => {
                r.expect("checkpoint succeeds");
                true
            }
            None => false,
        }
    }

    /// The scheme's live counters, read by dotted name through
    /// `CcScheme::register_metrics`.
    pub fn metrics(&self) -> Metrics {
        let reg = MetricsRegistry::new();
        self.0.register_metrics(&reg, &[]);
        Metrics { reg }
    }
}

/// Replay reorder window for the recovery oracle. The program's default
/// (1024) is too small for a two-client lock-scheme log on this sandbox:
/// a client preempted between drawing its commit sequence number and
/// appending lets more than a thousand later commits into the log first,
/// and recovery then refuses the log. The oracle asks whether the log
/// holds the committed state, not whether the default window is large
/// enough, so it replays with a window no run can exceed.
pub const ORACLE_REORDER_WINDOW: usize = 1 << 22;

/// Rebuilds a store from a log directory; returns it with the number of
/// log records replayed.
pub fn recover(dir: &Path, window: usize) -> Result<(State, u64), String> {
    let (db, info) = recover_database_with_window(dir, window).map_err(|e| e.to_string())?;
    Ok((db.snapshot(), info.replayed))
}

/// The interpreter alone, over whatever `DataAccess` the caller brings
/// (cost-ladder rungs 0 and 1).
pub fn interpreter(env: &Env) -> Interpreter<'_> {
    Interpreter::new(&env.schema, &env.bodies, &env.builtins)
}

/// Rung 0's store: instances in a `Vec`, no locks, no undo.
pub struct VecAccess<'a> {
    env: &'a Env,
    first: u64,
    rows: Vec<Instance>,
}

impl<'a> VecAccess<'a> {
    /// A copy of the environment's (freshly populated) store.
    pub fn copy_of(env: &'a Env) -> VecAccess<'a> {
        let state = env.db.snapshot();
        VecAccess {
            env,
            first: state.keys().next().map_or(0, |o| o.raw()),
            rows: state.into_values().collect(),
        }
    }

    fn row(&mut self, oid: Oid) -> Result<&mut Instance, ExecError> {
        self.rows
            .get_mut((oid.raw() - self.first) as usize)
            .ok_or(ExecError::UnknownOid(oid))
    }
}

impl DataAccess for VecAccess<'_> {
    fn class_of(&mut self, oid: Oid) -> Result<ClassId, ExecError> {
        self.row(oid).map(|r| r.class)
    }

    fn read_field(&mut self, oid: Oid, field: FieldId) -> Result<Value, ExecError> {
        let env = self.env;
        self.row(oid)?
            .get(&env.schema, field)
            .cloned()
            .ok_or(ExecError::FieldNotVisible { oid, field })
    }

    fn write_field(&mut self, oid: Oid, field: FieldId, value: Value) -> Result<(), ExecError> {
        let env = self.env;
        self.row(oid)?
            .set(&env.schema, field, value)
            .map(drop)
            .ok_or(ExecError::FieldNotVisible { oid, field })
    }
}

/// Rung 1's store: the real `Database` plus an undo log, no control.
pub struct StoreAccess<'a> {
    env: &'a Env,
    undo: UndoLog,
}

impl<'a> StoreAccess<'a> {
    pub fn over(env: &'a Env) -> StoreAccess<'a> {
        StoreAccess {
            env,
            undo: UndoLog::new(),
        }
    }

    /// Ends the transaction: the before-images are no longer needed.
    pub fn commit(&mut self) {
        self.undo.clear();
    }
}

impl DataAccess for StoreAccess<'_> {
    fn class_of(&mut self, oid: Oid) -> Result<ClassId, ExecError> {
        self.env.db.class_of(oid).map_err(Env::store_err)
    }

    fn read_field(&mut self, oid: Oid, field: FieldId) -> Result<Value, ExecError> {
        self.env.db.read(oid, field).map_err(Env::store_err)
    }

    fn write_field(&mut self, oid: Oid, field: FieldId, value: Value) -> Result<(), ExecError> {
        let before = self
            .env
            .db
            .write(oid, field, value)
            .map_err(Env::store_err)?;
        self.undo.record(oid, field, before);
        Ok(())
    }
}

/// A registry holding one scheme's sources.
pub struct Metrics {
    reg: MetricsRegistry,
}

/// One pull of every counter. Phase-labelled samples are keyed
/// `name{phase}`.
pub struct Counters(HashMap<String, f64>);

impl Metrics {
    pub fn pull(&self) -> Counters {
        let mut out = HashMap::new();
        for s in self.reg.snapshot() {
            let key = match s.labels.iter().find(|(k, _)| k == "phase") {
                Some((_, phase)) => format!("{}{{{phase}}}", s.name),
                None if s.labels.is_empty() => s.name,
                None => continue,
            };
            out.insert(key, s.value);
        }
        Counters(out)
    }
}

impl Counters {
    /// The sample's value; 0 when the scheme has no such source (lock
    /// counters on mvcc, log counters without a log).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// `ClassTable::commute` over every mode pair of `class`, `rounds`
/// times; returns the number of lookups and how many commuted.
pub fn commute_sweep(env: &Env, class: ClassId, rounds: usize) -> (usize, usize) {
    let table = env.compiled.class(class);
    let n = table.mode_count();
    let mut yes = 0;
    for _ in 0..rounds {
        for i in 0..n {
            for j in 0..n {
                yes += usize::from(std::hint::black_box(table).commute(i, j));
            }
        }
    }
    (rounds * n * n, yes)
}

/// An uncontended commutativity lock manager (`lock.acquire_release_ns`).
pub struct LockBench {
    lm: LockManager<CommutSource>,
    class: ClassId,
    mode: LockMode,
}

impl LockBench {
    pub fn new(env: &Env, class: ClassId, method: &str) -> LockBench {
        let idx = env.compiled.class(class).index_of(method).expect("method");
        LockBench {
            lm: LockManager::new(CommutSource::new(Arc::clone(&env.compiled))),
            class,
            mode: LockMode::plain(idx as u16),
        }
    }

    pub fn acquire_release(&self, oid: Oid) {
        let txn = self.lm.begin();
        self.lm
            .acquire(txn, ResourceId::Instance(oid, self.class), self.mode)
            .expect("uncontended grant");
        self.lm.release_all(txn);
    }
}

pub fn store_read(db: &Database, oid: Oid, field: FieldId) -> Value {
    db.read(oid, field).expect("live instance")
}

pub fn store_write(db: &Database, oid: Oid, field: FieldId, value: Value) {
    db.write(oid, field, value).expect("typed write");
}

/// A bare version heap over the environment's store (`mvcc.read_ns`,
/// `mvcc.write_commit_ns`).
pub struct HeapBench {
    heap: MvccHeap,
    next: u64,
}

impl HeapBench {
    pub fn new(env: &Env) -> HeapBench {
        HeapBench {
            heap: MvccHeap::new(Arc::clone(&env.db)),
            next: 1,
        }
    }

    pub fn begin(&mut self) -> TxnId {
        let txn = TxnId(self.next);
        self.next += 1;
        self.heap.begin(txn);
        txn
    }

    pub fn read(&self, txn: TxnId, oid: Oid, field: FieldId) -> Value {
        self.heap.read(txn, oid, field).expect("live instance")
    }

    pub fn write(&self, txn: TxnId, oid: Oid, field: FieldId, value: Value) {
        self.heap
            .write(txn, oid, field, value)
            .expect("single writer never conflicts");
    }

    pub fn commit(&self, txn: TxnId) {
        self.heap
            .commit(txn)
            .expect("snapshot commit is infallible");
    }
}

/// A bare log at async group commit (`wal.append_commit_ns`).
pub struct WalBench {
    wal: Wal,
}

impl WalBench {
    pub fn open(dir: &Path) -> WalBench {
        let config = WalConfig {
            level: DurabilityLevel::Wal,
            ..WalConfig::default()
        };
        WalBench {
            wal: Wal::open(dir, config).expect("fresh log directory opens"),
        }
    }

    pub fn append_commit(&self, ts: u64, oid: Oid, field: FieldId, value: Value) {
        let writes = [FieldImage { oid, field, value }];
        self.wal
            .append_commit(ts, TxnId(ts), &writes)
            .expect("append succeeds");
    }

    pub fn sync(&self) {
        self.wal.sync().expect("log drains");
    }
}

//! Deterministic fault-injection scenarios: the seeded schedule
//! explorer, anomaly detection, schedule minimization, and replayable
//! repro files.
//!
//! This is the user-facing half of the `finecc-chaos` harness. A
//! [`ChaosScenario`] describes a small scripted workload — a few
//! workers hammering private cells and shared cell *pairs* through any
//! of the six schemes — plus a seed, an armed fault plane, and
//! (optionally) a recorded decision sequence to replay. [`run_chaos`]
//! executes it under the harness, serialized on virtual time, and
//! checks three invariants the schemes must uphold:
//!
//! * **The history check** — every attempt is recorded
//!   ([`crate::history::Recorded`]), the run ends with one read of every
//!   cell (skipped after a fired crash), and [`History::check`] judges
//!   the history against the scheme's contract: a violation it does not
//!   admit is an [`Anomaly::Isolation`]; the G2 cycles plain `mvcc`
//!   admits are counted in [`ChaosReport::admitted`]. The
//!   [`ChaosOp::SkewPair`] op makes write skew reachable. Disabling the
//!   mvcc commit barrier (`wait_published`) through the fault plane
//!   (`Site::CommitPublishWait` + `FaultKind::Disable`) is the
//!   known-bug lever the regression tests explore against: a worker's
//!   next snapshot misses its own commit, a G-single through a session
//!   edge.
//! * **Watermark monotonicity** — mvcc snapshot timestamps observed in
//!   begin order must never regress ([`Anomaly::WatermarkRegression`]).
//! * **Recovery = committed prefix** — for durable scenarios the
//!   recovered store must equal the state after some prefix of the
//!   acknowledged commits, pair writes indivisible
//!   ([`Anomaly::RecoveryMismatch`]). At [`DurabilityLevel::WalSync`]
//!   a surviving process loses nothing; the check still accepts a
//!   shorter prefix after a crash fault because the poisoned log
//!   refuses the in-flight batch, which is exactly the rolled-back
//!   (never acknowledged) suffix.
//!
//! On top of the single run sit [`minimize`] (shrink a failing
//! decision sequence while the anomaly persists) and the
//! `finecc-chaos-repro v1` file format ([`write_repro`] /
//! [`read_repro`] / [`replay_repro`]) that pins a minimized schedule
//! to disk for byte-for-byte reproduction.

use crate::history::{History, Key, Recorded, Violation};
use finecc_chaos::{self as chaos, ChaosOutcome, FaultKind, FaultPlan, FaultSpec, Site};
use finecc_lang::ExecError;
use finecc_model::{FieldId, Oid, Value};
use finecc_runtime::{
    run_txn_with, CcScheme, DurabilityLevel, Env, RetryPolicy, SchemeKind, Txn, TxnOutcome,
};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The fixed scenario schema: one class, one integer field, a getter
/// and a setter. Small on purpose — the interesting state space is the
/// interleaving, not the object graph.
pub const CHAOS_SOURCE: &str = r#"
class chaos_cell {
  fields {
    val: integer;
  }
  method get_val is return val end
  method set_val(v) is val := v end
}
"#;

/// One scripted operation, each run as its own transaction. Every
/// attempt writes a fresh value, unique to the worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosOp {
    /// Write the worker's private cell.
    WriteOwn,
    /// Read the private cell back.
    ReadOwn,
    /// Write **both** cells of shared pair `pair`, in one transaction.
    WritePair(u32),
    /// Read both cells of pair `pair` twice.
    ReadPair(u32),
    /// Read both cells of pair `pair`, then write cell `cell` (0 or 1)
    /// of it: write skew's shape.
    SkewPair(u32, u8),
}

/// An invariant violation detected by [`run_chaos`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Anomaly {
    /// The recorded history holds a violation the scheme's contract
    /// does not admit.
    Isolation(Violation),
    /// An mvcc snapshot timestamp observed in begin order regressed.
    WatermarkRegression {
        /// The highest snapshot timestamp observed so far.
        floor: u64,
        /// The smaller timestamp observed after it.
        observed: u64,
    },
    /// The recovered store matches no prefix of the acknowledged
    /// commit sequence.
    RecoveryMismatch {
        /// Human-readable diff (recovered cell values vs. the closest
        /// prefix).
        detail: String,
    },
    /// A recovery crashed mid-replay (crash injected at a recovery
    /// probe site) and the follow-up recovery did not reproduce the
    /// undisturbed baseline — recovery is not restartable.
    RecoveryNotRestartable {
        /// The probe site the crash was injected at.
        site: String,
        /// Which hit of that site crashed.
        hit: u64,
        /// Human-readable diff (re-recovered vs. baseline).
        detail: String,
    },
}

impl std::fmt::Display for Anomaly {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Anomaly::Isolation(v) => write!(f, "isolation {v}"),
            Anomaly::WatermarkRegression { floor, observed } => {
                write!(
                    f,
                    "watermark regression: snapshot ts {observed} after {floor}"
                )
            }
            Anomaly::RecoveryMismatch { detail } => write!(f, "recovery mismatch: {detail}"),
            Anomaly::RecoveryNotRestartable { site, hit, detail } => {
                write!(
                    f,
                    "recovery not restartable (crash at {site}#{hit}): {detail}"
                )
            }
        }
    }
}

/// A complete chaos scenario: workload shape, scheme, durability,
/// seed, fault plane, and (for replays) a recorded decision sequence.
#[derive(Clone, Debug)]
pub struct ChaosScenario {
    /// The scheme under test.
    pub scheme: SchemeKind,
    /// Durability level; [`DurabilityLevel::None`] skips the log and
    /// the recovery check.
    pub durability: DurabilityLevel,
    /// Log directory for durable scenarios. **Cleared before each
    /// run** (a run needs a fresh incarnation). `None` uses a
    /// process-unique temp directory that is removed afterwards.
    pub dir: Option<PathBuf>,
    /// Seed for both the op-script derivation and the schedule RNG.
    pub seed: u64,
    /// Worker threads (each with a private cell and its own script).
    pub workers: usize,
    /// Transactions per worker.
    pub ops_per_worker: usize,
    /// Shared cell pairs, written together or write-skewed.
    pub pairs: usize,
    /// The armed fault plane.
    pub faults: FaultPlan,
    /// Recorded decisions to replay (empty = free seeded exploration).
    pub replay: Vec<u32>,
    /// Scheduling-seed override. The op scripts always derive from
    /// [`ChaosScenario::seed`]; the schedule RNG uses this when set.
    /// Minimized replays pin a *decorrelated* value here (see
    /// [`pinned`]) so an elided decision sequence must reproduce the
    /// anomaly on its own merits — with the original seed, the RNG
    /// tail after the replayed prefix would just replay the bug anyway
    /// and every sequence would shrink to nothing.
    pub sched_seed: Option<u64>,
    /// Retry budget per transaction.
    pub max_retries: u32,
    /// `true` runs workers under the cooperative virtual-time
    /// scheduler (fully deterministic); `false` runs them free with
    /// only the fault plane armed (real threads, real WAL flusher).
    pub scheduled: bool,
    /// Worker 0 takes an online checkpoint every this many of its ops
    /// (0 = never). Puts checkpoint writes — and their maintenance
    /// pipeline (retention, log truncation) — *inside* the scripted
    /// concurrency, so `Site::CHECKPOINT` faults fire mid-run.
    /// Schemes without online checkpoint support simply skip it.
    pub checkpoint_every: usize,
    /// After a durable run, crash a fresh recovery at **every**
    /// recovery probe site × hit and re-recover cleanly each time; a
    /// re-recovery that differs from the undisturbed baseline raises
    /// [`Anomaly::RecoveryNotRestartable`]. Recovery is read-only on
    /// disk by contract; this enforces the contract mechanically.
    pub verify_restartable: bool,
}

impl ChaosScenario {
    /// A small default scenario: 3 workers x 6 ops, one shared pair,
    /// no durability, no faults.
    pub fn new(scheme: SchemeKind, seed: u64) -> ChaosScenario {
        ChaosScenario {
            scheme,
            durability: DurabilityLevel::None,
            dir: None,
            seed,
            workers: 3,
            ops_per_worker: 6,
            pairs: 1,
            faults: FaultPlan::none(),
            replay: Vec::new(),
            sched_seed: None,
            max_retries: 8,
            scheduled: true,
            checkpoint_every: 0,
            verify_restartable: false,
        }
    }

    /// The seed actually fed to the schedule RNG.
    pub fn schedule_seed(&self) -> u64 {
        self.sched_seed.unwrap_or(self.seed)
    }

    /// The scenario with write-ahead durability at `level`, logging
    /// into a fresh temp directory.
    pub fn durable(mut self, level: DurabilityLevel) -> ChaosScenario {
        self.durability = level;
        self
    }

    /// The scenario with the given fault plane armed.
    pub fn with_faults(mut self, faults: FaultPlan) -> ChaosScenario {
        self.faults = faults;
        self
    }

    /// Derives the per-worker op scripts (a pure function of the
    /// seed and the shape — independent of scheduling).
    pub fn scripts(&self) -> Vec<Vec<ChaosOp>> {
        (0..self.workers)
            .map(|w| {
                let mut rng = self.seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(w as u64 + 1));
                (0..self.ops_per_worker)
                    .map(|i| {
                        // Every script opens with a write so later reads
                        // always have a committed value to miss.
                        let roll = if i == 0 { 0 } else { splitmix(&mut rng) % 10 };
                        if self.pairs == 0 || roll < 4 {
                            return if roll < 2 {
                                ChaosOp::WriteOwn
                            } else {
                                ChaosOp::ReadOwn
                            };
                        }
                        let p = (splitmix(&mut rng) % self.pairs as u64) as u32;
                        match roll {
                            4..=5 => ChaosOp::WritePair(p),
                            6..=7 => ChaosOp::ReadPair(p),
                            _ => ChaosOp::SkewPair(p, (roll % 2) as u8),
                        }
                    })
                    .collect()
            })
            .collect()
    }
}

/// Worker `w`'s `n`-th attempt's value — globally unique, so a version
/// is identified by its value alone.
fn own_value(w: usize, n: i64) -> i64 {
    (w as i64 + 1) * 1_000_000 + n
}

/// SplitMix64 step (local copy — the scenario's script derivation must
/// not share state with the harness's schedule RNG).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Everything one chaos run reports. `Eq` on purpose: the determinism
/// tests compare whole reports across runs of the same seed — there is
/// deliberately no wall-clock anything in here (time is virtual).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosReport {
    /// The recorded schedule (decisions, trace, virtual clock, crash
    /// flag) — feed `decisions` back through [`ChaosScenario::replay`]
    /// to reproduce the run.
    pub outcome: ChaosOutcome,
    /// Transactions acknowledged committed.
    pub commits: u64,
    /// Retryable aborts absorbed by the retry loops.
    pub retries: u64,
    /// Transactions that exhausted their retry budget.
    pub exhausted: u64,
    /// Transactions that failed non-retryably (e.g. lock-wait budget
    /// exceeded under the virtual-time scheduler).
    pub failed: u64,
    /// Log batches/records refused and rolled back by the fault plane
    /// (0 without durability).
    pub log_failures: u64,
    /// Mid-run online checkpoints taken ([`ChaosScenario`]'s
    /// `checkpoint_every`), each followed by checkpoint retention and
    /// log truncation.
    pub checkpoints: u64,
    /// Mid-run checkpoint attempts refused — by the fault plane or a
    /// poisoned log. Never an anomaly by itself: a failed checkpoint
    /// must leave durability intact, which the recovery check proves.
    pub checkpoint_failures: u64,
    /// Invariant violations detected, in detection order.
    pub anomalies: Vec<Anomaly>,
    /// Cycles the history check found and the scheme's contract admits
    /// (G2 under plain `mvcc`).
    pub admitted: u64,
}

/// Tracking state shared by the workers. Updated only in plain
/// straight-line code (no yield points while the mutex is held), so
/// under the virtual-time scheduler every update is atomic with the
/// commit acknowledgement that precedes it.
#[derive(Default)]
struct Track {
    /// Highest mvcc snapshot timestamp observed so far.
    max_snapshot_ts: u64,
    commits: u64,
    retries: u64,
    exhausted: u64,
    failed: u64,
    checkpoints: u64,
    checkpoint_failures: u64,
    anomalies: Vec<Anomaly>,
}

impl Track {
    fn settle(&mut self, outcome: &TxnOutcome<()>) {
        match outcome {
            TxnOutcome::Committed { retries, .. } => {
                self.commits += 1;
                self.retries += u64::from(*retries);
            }
            TxnOutcome::Exhausted { retries } => {
                self.exhausted += 1;
                self.retries += u64::from(*retries);
            }
            TxnOutcome::Failed(_) => self.failed += 1,
        }
    }
}

/// Runs the scenario under the chaos harness and checks the
/// invariants. See the module docs for what is detected; the returned
/// report is a pure function of the scenario for scheduled runs.
pub fn run_chaos(sc: &ChaosScenario) -> io::Result<ChaosReport> {
    let scripts = sc.scripts();
    let (dir, scratch) = durable_dir(sc)?;

    // Install before anything touches the WAL or the heap: the opening
    // thread captures the fault token, and a scheduled session forces
    // the log into inline (flusher-less) mode.
    let handle = chaos::install(chaos::ChaosConfig {
        seed: sc.schedule_seed(),
        threads: if sc.scheduled { sc.workers } else { 0 },
        faults: sc.faults.clone(),
        replay: sc.replay.clone(),
    });

    let env = Env::from_source(CHAOS_SOURCE)
        .map_err(|e| io::Error::other(format!("chaos schema: {e}")))?;
    let class = env
        .schema
        .class_by_name("chaos_cell")
        .expect("chaos schema has its cell class");
    // Private cells first, then pair cells — created before the scheme
    // is built so durable runs capture them in the genesis checkpoint.
    let own: Vec<Oid> = (0..sc.workers).map(|_| env.db.create(class)).collect();
    let pairs: Vec<(Oid, Oid)> = (0..sc.pairs)
        .map(|_| (env.db.create(class), env.db.create(class)))
        .collect();
    let cells: Vec<Oid> = own
        .iter()
        .copied()
        .chain(pairs.iter().flat_map(|&(a, b)| [a, b]))
        .collect();
    let val = env
        .schema
        .resolve_field(class, "val")
        .expect("chaos schema has val");
    let schema = std::sync::Arc::clone(&env.schema);

    // A fault injected into the *genesis* checkpoint (hit 0 of the
    // checkpoint sites against a fresh directory) refuses startup: the
    // store never opens, nothing is ever acked, and the run
    // degenerates to the recovery check over whatever the directory
    // holds. Real (un-injected) failures still propagate.
    let scheme: Option<Box<dyn CcScheme>> = if sc.durability == DurabilityLevel::None {
        Some(sc.scheme.build(env))
    } else {
        match sc
            .scheme
            .build_durable(env, sc.durability, dir.as_ref().expect("durable dir"))
        {
            Ok(s) => Some(s),
            Err(e) if chaos::crashed() || e.to_string().contains("injected:") => None,
            Err(e) => return Err(e),
        }
    };

    let policy = RetryPolicy::with_max_retries(sc.max_retries);
    let history = Mutex::new(History::default());
    let track = Mutex::new(Track::default());

    let layout = Layout {
        own: &own,
        pairs: &pairs,
        val,
    };
    if let Some(scheme) = scheme.as_deref() {
        std::thread::scope(|scope| {
            for (w, script) in scripts.iter().enumerate() {
                let (track, history, layout) = (&track, &history, &layout);
                scope.spawn(move || {
                    // Keeps this thread registered (and the token
                    // honest) for its whole lifetime; `None` in
                    // fault-only mode. Claiming slot `w` explicitly
                    // pins the worker ↔ decision-value mapping across
                    // runs — OS thread startup order must not leak
                    // into the schedule.
                    let _worker = chaos::register_worker_as(w);
                    let mut written = 0;
                    for (i, &op) in script.iter().enumerate() {
                        if chaos::crashed() {
                            break; // drain: the log is poisoned, stop acking
                        }
                        // Worker 0 doubles as the checkpointer: online
                        // checkpoints land between its ops, concurrent
                        // with every other worker's transactions.
                        if w == 0
                            && sc.checkpoint_every > 0
                            && i > 0
                            && i % sc.checkpoint_every == 0
                        {
                            if let Some(result) = scheme.checkpoint() {
                                let mut t = track.lock().unwrap_or_else(|e| e.into_inner());
                                match result {
                                    Ok(_) => t.checkpoints += 1,
                                    Err(_) => t.checkpoint_failures += 1,
                                }
                            }
                        }
                        let rec = Recorded::new(scheme, history, w as u32, i as u32);
                        run_op(&rec, policy, w, op, layout, &mut written, track);
                    }
                });
            }
        });
        // The final state, unless a crash cut the run (the recovery
        // check covers that case).
        if !chaos::crashed() {
            let rec = Recorded::new(scheme, &history, sc.workers as u32, 0);
            let _ = run_txn_with(&rec, policy, |txn| {
                cells.iter().try_for_each(|&oid| get(&rec, txn, (oid, val)))
            });
        }
    }

    let log_failures = scheme
        .as_ref()
        .and_then(|s| s.env().wal.as_ref())
        .map_or(0, |wal| wal.stats().snapshot().append_failures);
    // Drop the scheme (closing the log gracefully where it is not
    // poisoned) before uninstalling the harness and recovering.
    drop(scheme);
    let outcome = handle.finish();

    let mut t = track.into_inner().unwrap_or_else(|e| e.into_inner());
    let history = history.into_inner().unwrap_or_else(|e| e.into_inner());
    let mut admitted = 0;
    for v in history.check() {
        if v.admitted(sc.scheme.serializable()) {
            admitted += 1;
        } else {
            t.anomalies.push(Anomaly::Isolation(v));
        }
    }
    if let Some(dir) = dir.as_ref() {
        // Acknowledged commits in acknowledgement order (a record is
        // pushed as its commit returns), each write set indivisible.
        let cell = |oid| cells.iter().position(|&c| c == oid).expect("a chaos cell");
        let acked: Vec<Vec<(usize, i64)>> = (history.txns.iter())
            .filter(|r| r.commit.is_some())
            .map(|r| r.installs().into_iter().map(|((oid, _), v)| (cell(oid), v)))
            .map(Vec::from_iter)
            .filter(|writes| !writes.is_empty())
            .collect();
        if let Some(a) = recovery_anomaly(dir, &schema, class, &cells, &acked, sc.scheduled)? {
            t.anomalies.push(a);
        }
        if sc.verify_restartable {
            if let Some(a) =
                restartability_anomaly(dir, &schema, class, &cells, sc.schedule_seed())?
            {
                t.anomalies.push(a);
            }
        }
    }
    if scratch {
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    Ok(ChaosReport {
        outcome,
        commits: t.commits,
        retries: t.retries,
        exhausted: t.exhausted,
        failed: t.failed,
        log_failures,
        checkpoints: t.checkpoints,
        checkpoint_failures: t.checkpoint_failures,
        anomalies: t.anomalies,
        admitted,
    })
}

/// Resolves (and freshens) the log directory for a durable scenario:
/// the scenario's own `dir` cleared, or a process-unique scratch
/// directory (second return: remove it afterwards).
fn durable_dir(sc: &ChaosScenario) -> io::Result<(Option<PathBuf>, bool)> {
    if sc.durability == DurabilityLevel::None {
        return Ok((None, false));
    }
    static SCRATCH: AtomicU64 = AtomicU64::new(0);
    let (dir, scratch) = match &sc.dir {
        Some(d) => (d.clone(), false),
        None => (
            std::env::temp_dir().join(format!(
                "finecc-chaos-{}-{}",
                std::process::id(),
                SCRATCH.fetch_add(1, Ordering::Relaxed)
            )),
            true,
        ),
    };
    // Each run is a fresh incarnation; stale history is rejected by
    // the attach path, so clear rather than fail.
    let _ = std::fs::remove_dir_all(&dir);
    Ok((Some(dir), scratch))
}

/// The scenario's cells: each worker's own, the shared pairs, and the
/// one field they hold.
struct Layout<'a> {
    own: &'a [Oid],
    pairs: &'a [(Oid, Oid)],
    val: FieldId,
}

/// Runs one scripted op as a recorded transaction and settles the
/// counters. Each attempt writes the worker's next value (`written`
/// counts them), so no retry rewrites an aborted attempt's value.
fn run_op(
    rec: &Recorded,
    policy: RetryPolicy,
    w: usize,
    op: ChaosOp,
    layout: &Layout,
    written: &mut i64,
    track: &Mutex<Track>,
) {
    let key = |oid| (oid, layout.val);
    let out = run_txn_with(rec, policy, |txn| {
        if let Some(ts) = txn.mvcc.as_ref().map(|t| t.ts()) {
            let mut t = track.lock().unwrap_or_else(|e| e.into_inner());
            if ts < t.max_snapshot_ts {
                let floor = t.max_snapshot_ts;
                t.anomalies.push(Anomaly::WatermarkRegression {
                    floor,
                    observed: ts,
                });
            } else {
                t.max_snapshot_ts = ts;
            }
        }
        *written += 1;
        let v = own_value(w, *written);
        let pair = |p: u32| layout.pairs[p as usize];
        match op {
            ChaosOp::WriteOwn => set(rec, txn, key(layout.own[w]), v),
            ChaosOp::ReadOwn => get(rec, txn, key(layout.own[w])),
            ChaosOp::WritePair(p) => {
                let (a, b) = pair(p);
                set(rec, txn, key(a), v)?;
                set(rec, txn, key(b), v)
            }
            ChaosOp::ReadPair(p) => {
                let (a, b) = pair(p);
                [a, b, a, b]
                    .into_iter()
                    .try_for_each(|oid| get(rec, txn, key(oid)))
            }
            ChaosOp::SkewPair(p, cell) => {
                let (a, b) = pair(p);
                get(rec, txn, key(a))?;
                get(rec, txn, key(b))?;
                set(rec, txn, key([a, b][cell as usize]), v)
            }
        }
    });
    track.lock().unwrap_or_else(|e| e.into_inner()).settle(&out);
}

/// Reads a cell, noting the value read.
fn get(rec: &Recorded, txn: &mut Txn, key: Key) -> Result<(), ExecError> {
    let v = int(rec.send(txn, key.0, "get_val", &[])?);
    rec.read(key, v);
    Ok(())
}

/// Writes a cell, noting the value first.
fn set(rec: &Recorded, txn: &mut Txn, key: Key, v: i64) -> Result<(), ExecError> {
    rec.write(key, v);
    rec.send(txn, key.0, "set_val", &[Value::Int(v)]).map(drop)
}

fn int(v: Value) -> i64 {
    match v {
        Value::Int(i) => i,
        other => panic!("chaos_cell.val is an integer, read {other:?}"),
    }
}

/// Recovers the durable directory and checks the recovered cell values
/// against the acknowledged commit sequence. Under the virtual-time
/// scheduler (`strict`) the tracked order *is* the acknowledgement
/// order, so the recovered state must equal some exact prefix of it;
/// in fault-only mode real threads may record acknowledgements
/// slightly out of order, so the check relaxes to per-cell membership
/// (every recovered value was actually acked for that cell).
fn recovery_anomaly(
    dir: &Path,
    schema: &finecc_model::Schema,
    class: finecc_model::ClassId,
    cells: &[Oid],
    acked: &[Vec<(usize, i64)>],
    strict: bool,
) -> io::Result<Option<Anomaly>> {
    let recovered = match recovered_cells(dir, schema, class, cells) {
        Ok(r) => r,
        // No checkpoint on disk: fine iff nothing was ever acked (an
        // injected fault refused the genesis checkpoint and the store
        // never opened); with acked commits it is lost durability.
        Err(e) if is_no_checkpoint(&e) => {
            return Ok((!acked.is_empty()).then(|| Anomaly::RecoveryMismatch {
                detail: format!(
                    "no checkpoint on disk, yet {} commits were acknowledged",
                    acked.len()
                ),
            }))
        }
        Err(e) => return Err(e),
    };
    if !strict {
        for (cell, &got) in recovered.iter().enumerate() {
            let acked_here = got == 0
                || acked
                    .iter()
                    .any(|commit| commit.iter().any(|&(c, v)| c == cell && v == got));
            if !acked_here {
                return Ok(Some(Anomaly::RecoveryMismatch {
                    detail: format!("cell {cell} recovered {got}, never acked"),
                }));
            }
        }
        return Ok(None);
    }
    let mismatch = matches_a_prefix(&recovered, acked).err();
    Ok(mismatch.map(|state| Anomaly::RecoveryMismatch {
        detail: format!(
            "recovered {recovered:?} matches no prefix of {} acked commits (full state {state:?})",
            acked.len()
        ),
    }))
}

/// `Ok` when `recovered` is the cell state after some prefix of `acked`,
/// else the state after all of it.
fn matches_a_prefix(recovered: &[i64], acked: &[Vec<(usize, i64)>]) -> Result<(), Vec<i64>> {
    let mut state = vec![0i64; recovered.len()];
    for commit in std::iter::once(&Vec::new()).chain(acked) {
        for &(cell, v) in commit {
            state[cell] = v;
        }
        if state == recovered {
            return Ok(());
        }
    }
    Err(state)
}

/// True when the io::Error wraps [`finecc_wal::RecoveryError::NoCheckpoint`].
fn is_no_checkpoint(e: &io::Error) -> bool {
    matches!(
        finecc_wal::as_recovery_error(e),
        Some(finecc_wal::RecoveryError::NoCheckpoint { .. })
    )
}

/// Recovers the directory and reads back every scenario cell's value.
fn recovered_cells(
    dir: &Path,
    schema: &finecc_model::Schema,
    class: finecc_model::ClassId,
    cells: &[Oid],
) -> io::Result<Vec<i64>> {
    let (rdb, _info) = finecc_wal::recover_database(dir)?;
    let val = schema
        .resolve_field(class, "val")
        .expect("chaos schema has val");
    Ok(cells
        .iter()
        .map(|&oid| match rdb.read(oid, val) {
            Ok(Value::Int(i)) => i,
            other => panic!("recovered cell {oid:?} unreadable: {other:?}"),
        })
        .collect())
}

/// Per-site ceiling on the crash-at-every-hit recovery matrix. A
/// recovery touches each probe site at most once per frame (plus a
/// constant), so real scenarios exhaust their sites far below this;
/// the cap only bounds a runaway (a site that somehow never stops
/// firing would otherwise loop forever).
const RESTART_MATRIX_LIMIT: u64 = 10_000;

/// The recovery-of-recovery check: for every recovery probe site,
/// crash the first, second, third … hit of a fresh recovery (each
/// under its own fault-only harness), then recover *cleanly* and
/// compare against the undisturbed baseline. Recovery never writes to
/// the directory, so any divergence means a crashed recovery left
/// state behind — the restartability contract broken.
fn restartability_anomaly(
    dir: &Path,
    schema: &finecc_model::Schema,
    class: finecc_model::ClassId,
    cells: &[Oid],
    seed: u64,
) -> io::Result<Option<Anomaly>> {
    let baseline = match recovered_cells(dir, schema, class, cells) {
        Ok(b) => b,
        // Nothing recoverable to restart (startup was refused).
        Err(e) if is_no_checkpoint(&e) => return Ok(None),
        Err(e) => return Err(e),
    };
    for site in Site::RECOVERY {
        for hit in 0..RESTART_MATRIX_LIMIT {
            let handle = chaos::install(chaos::ChaosConfig {
                seed,
                threads: 0, // fault-only: recovery runs on this thread
                faults: FaultPlan::of([FaultSpec::once(site, hit, FaultKind::Crash)]),
                replay: Vec::new(),
            });
            let attempt = finecc_wal::recover_database(dir);
            let fired = chaos::crashed();
            let _ = handle.finish();
            match attempt {
                // The probe outlived the recovery: this site has no
                // more hits to crash, move to the next one.
                Ok(_) => break,
                Err(e) if !fired => return Err(e.into()),
                Err(_) => {
                    let again = recovered_cells(dir, schema, class, cells)?;
                    if again != baseline {
                        return Ok(Some(Anomaly::RecoveryNotRestartable {
                            site: site.name().to_string(),
                            hit,
                            detail: format!("re-recovered {again:?}, baseline {baseline:?}"),
                        }));
                    }
                }
            }
        }
    }
    Ok(None)
}

/// The scenario that replays `decisions` against `sc` with the RNG
/// tail decorrelated (see [`ChaosScenario::sched_seed`]): this is the
/// form minimization tests and repro files pin.
pub fn pinned(sc: &ChaosScenario, decisions: &[u32]) -> ChaosScenario {
    ChaosScenario {
        replay: decisions.to_vec(),
        sched_seed: Some(sc.schedule_seed() ^ 0x5eed_5eed_5eed_5eed),
        ..sc.clone()
    }
}

/// Shrinks a failing decision sequence: ddmin-style chunk elision,
/// keeping any candidate whose [`pinned`] replay still shows an
/// anomaly. The scheduler's tolerant replay (an unrunnable decision
/// falls back to the first runnable worker) is what makes elided
/// sequences meaningful; the decorrelated RNG tail is what keeps them
/// honest.
pub fn minimize(sc: &ChaosScenario, decisions: &[u32], budget: usize) -> Vec<u32> {
    chaos::minimize_decisions(decisions, budget, |candidate| {
        run_chaos(&pinned(sc, candidate))
            .map(|r| !r.anomalies.is_empty())
            .unwrap_or(false)
    })
}

/// Writes a `finecc-chaos-repro v1` file: the scenario shape, the
/// fault plane, and a pinned decision sequence.
pub fn write_repro(path: &Path, sc: &ChaosScenario, decisions: &[u32]) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "finecc-chaos-repro v1")?;
    writeln!(f, "scheme={}", sc.scheme.name())?;
    writeln!(f, "durability={}", sc.durability.name())?;
    writeln!(f, "seed={}", sc.seed)?;
    writeln!(f, "workers={}", sc.workers)?;
    writeln!(f, "ops_per_worker={}", sc.ops_per_worker)?;
    writeln!(f, "pairs={}", sc.pairs)?;
    writeln!(f, "max_retries={}", sc.max_retries)?;
    writeln!(f, "scheduled={}", sc.scheduled)?;
    if let Some(s) = sc.sched_seed {
        writeln!(f, "sched_seed={s}")?;
    }
    // Recovery-pipeline knobs, written only when armed so files from
    // before the knobs existed stay byte-identical.
    if sc.checkpoint_every > 0 {
        writeln!(f, "checkpoint_every={}", sc.checkpoint_every)?;
    }
    if sc.verify_restartable {
        writeln!(f, "verify_restartable=true")?;
    }
    for spec in &sc.faults.specs {
        let kind = match spec.kind {
            FaultKind::Delay(ticks) => format!("delay@{ticks}"),
            other => other.name().to_string(),
        };
        let count = if spec.count == u64::MAX {
            "all".to_string()
        } else {
            spec.count.to_string()
        };
        writeln!(
            f,
            "fault={}:{kind}:{}:{count}",
            spec.site.name(),
            spec.from_hit
        )?;
    }
    let decisions: Vec<String> = decisions.iter().map(u32::to_string).collect();
    writeln!(f, "decisions={}", decisions.join(","))?;
    Ok(())
}

/// Parses a `finecc-chaos-repro v1` file back into a scenario with the
/// pinned schedule in [`ChaosScenario::replay`].
pub fn read_repro(path: &Path) -> io::Result<ChaosScenario> {
    let text = std::fs::read_to_string(path)?;
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut lines = text.lines();
    if lines.next() != Some("finecc-chaos-repro v1") {
        return Err(bad("not a finecc-chaos-repro v1 file".into()));
    }
    let mut sc = ChaosScenario::new(SchemeKind::MvccSsi, 0);
    sc.pairs = 0;
    let mut specs = Vec::new();
    for line in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| bad(format!("malformed line: {line}")))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| bad(format!("bad number in: {line}")))
        };
        match key {
            "scheme" => {
                sc.scheme = SchemeKind::ALL
                    .into_iter()
                    .find(|k| k.name() == value)
                    .ok_or_else(|| bad(format!("unknown scheme: {value}")))?;
            }
            "durability" => {
                sc.durability = [
                    DurabilityLevel::None,
                    DurabilityLevel::Wal,
                    DurabilityLevel::WalSync,
                ]
                .into_iter()
                .find(|l| l.name() == value)
                .ok_or_else(|| bad(format!("unknown durability: {value}")))?;
            }
            "seed" => sc.seed = num(value)?,
            "sched_seed" => sc.sched_seed = Some(num(value)?),
            "workers" => sc.workers = num(value)? as usize,
            "ops_per_worker" => sc.ops_per_worker = num(value)? as usize,
            "pairs" => sc.pairs = num(value)? as usize,
            "max_retries" => sc.max_retries = num(value)? as u32,
            "scheduled" => sc.scheduled = value == "true",
            "checkpoint_every" => sc.checkpoint_every = num(value)? as usize,
            "verify_restartable" => sc.verify_restartable = value == "true",
            "fault" => {
                let parts: Vec<&str> = value.split(':').collect();
                let [site, kind, from_hit, count] = parts[..] else {
                    return Err(bad(format!("malformed fault: {value}")));
                };
                let site =
                    Site::from_name(site).ok_or_else(|| bad(format!("unknown site: {site}")))?;
                let kind = match kind {
                    "io_error" => FaultKind::IoError,
                    "crash" => FaultKind::Crash,
                    "disable" => FaultKind::Disable,
                    d if d.starts_with("delay@") => FaultKind::Delay(num(&d[6..])?),
                    other => return Err(bad(format!("unknown fault kind: {other}"))),
                };
                let count = if count == "all" {
                    u64::MAX
                } else {
                    num(count)?
                };
                specs.push(FaultSpec {
                    site,
                    from_hit: num(from_hit)?,
                    count,
                    kind,
                });
            }
            "decisions" => {
                sc.replay = value
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| {
                        s.parse::<u32>()
                            .map_err(|_| bad(format!("bad decision: {s}")))
                    })
                    .collect::<io::Result<Vec<u32>>>()?;
            }
            other => return Err(bad(format!("unknown key: {other}"))),
        }
    }
    sc.faults = FaultPlan::of(specs);
    Ok(sc)
}

/// Loads a repro file and runs it: the minimized-anomaly round trip.
pub fn replay_repro(path: &Path) -> io::Result<ChaosReport> {
    run_chaos(&read_repro(path)?)
}

/// The schema of [`run_upgrade_deadlock`]: `withdraw` reads `balance`,
/// then writes it — under field locking a read lock converted to a
/// write lock, the §3 escalation pattern.
pub const UPGRADE_SOURCE: &str = r#"
class chaos_account {
  fields {
    balance: integer;
  }
  method withdraw(amt) is
    if balance >= amt then
      balance := balance - amt
    end
  end
}
"#;

/// What one [`run_upgrade_deadlock`] run saw. `Eq` for the same reason
/// as [`ChaosReport`]: a replay must reproduce it whole.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UpgradeDeadlockReport {
    /// The recorded schedule.
    pub outcome: ChaosOutcome,
    /// Per worker, how many times its `withdraw` died as a deadlock
    /// victim before it committed; `None` if it never committed.
    pub victim_of: [Option<u32>; 2],
    /// Waits-for cycles the lock manager found.
    pub deadlocks: u64,
    /// Requests that queued.
    pub blocks: u64,
    /// The account's final balance (it starts at 100).
    pub balance: i64,
}

/// The upgrade deadlock, scripted: two workers each `withdraw` 10 from
/// one account under `fieldlock`, within a retry budget of 8. When the
/// schedule lets both read before either writes, both conversions
/// queue, the second closes the cycle and dies, and its retry — a few
/// yields later — meets the survivor again: the re-collision the lock
/// manager's wait has to get right. `replay` pins a recorded decision
/// sequence (the seed then only feeds the tail).
pub fn run_upgrade_deadlock(seed: u64, replay: &[u32]) -> UpgradeDeadlockReport {
    let handle = chaos::install(chaos::ChaosConfig {
        seed,
        threads: 2,
        faults: FaultPlan::none(),
        replay: replay.to_vec(),
    });
    let env = Env::from_source(UPGRADE_SOURCE).expect("the upgrade schema compiles");
    let class = env.schema.class_by_name("chaos_account").expect("declared");
    let balance = env
        .schema
        .resolve_field(class, "balance")
        .expect("declared");
    let account = env.db.create(class);
    env.db
        .write(account, balance, Value::Int(100))
        .expect("typed write");
    let scheme = &finecc_runtime::FieldLockScheme::new(env);
    let withdraw = |w: usize| {
        let _worker = chaos::register_worker_as(w);
        let out = run_txn_with(scheme, RetryPolicy::with_max_retries(8), |txn| {
            scheme.send(txn, account, "withdraw", &[Value::Int(10)])
        });
        match out {
            TxnOutcome::Committed { retries, .. } => Some(retries),
            _ => None,
        }
    };
    let withdraw = &withdraw;
    let victim_of = std::thread::scope(|scope| {
        let workers = [0, 1].map(|w| scope.spawn(move || withdraw(w)));
        workers.map(|worker| worker.join().expect("no panic"))
    });
    let stats = scheme.lock_manager().stats.snapshot();
    let left = scheme.env().db.read(account, balance).expect("live");
    UpgradeDeadlockReport {
        outcome: handle.finish(),
        victim_of,
        deadlocks: stats.deadlocks,
        blocks: stats.blocks,
        balance: int(left),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_are_seed_deterministic_and_open_with_a_write() {
        let sc = ChaosScenario::new(SchemeKind::Tav, 7);
        let a = sc.scripts();
        let b = sc.scripts();
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        for script in &a {
            assert_eq!(script.len(), 6);
            assert_eq!(script[0], ChaosOp::WriteOwn);
        }
        let c = ChaosScenario::new(SchemeKind::Tav, 8).scripts();
        assert_ne!(a, c, "different seed, different scripts");
    }

    #[test]
    fn clean_scheduled_run_has_no_anomalies() {
        let sc = ChaosScenario::new(SchemeKind::MvccSsi, 11);
        let r = run_chaos(&sc).unwrap();
        assert!(r.anomalies.is_empty(), "{:?}", r.anomalies);
        assert!(r.commits > 0);
        assert!(!r.outcome.decisions.is_empty());
        assert!(!r.outcome.crashed);
    }

    #[test]
    fn same_seed_same_report() {
        for kind in [SchemeKind::Tav, SchemeKind::Mvcc] {
            let sc = ChaosScenario::new(kind, 23);
            let a = run_chaos(&sc).unwrap();
            let b = run_chaos(&sc).unwrap();
            assert_eq!(a, b, "{kind}: same seed must reproduce byte-for-byte");
        }
    }

    #[test]
    fn repro_files_round_trip() {
        let sc = ChaosScenario {
            scheme: SchemeKind::Mvcc,
            durability: DurabilityLevel::WalSync,
            seed: 99,
            workers: 2,
            ops_per_worker: 4,
            pairs: 2,
            max_retries: 3,
            checkpoint_every: 3,
            verify_restartable: true,
            faults: FaultPlan::of([
                FaultSpec::once(Site::WalFsync, 1, FaultKind::IoError),
                FaultSpec::always(Site::CommitPublishWait, FaultKind::Disable),
                FaultSpec::once(Site::TxnStart, 0, FaultKind::Delay(5)),
            ]),
            ..ChaosScenario::new(SchemeKind::Mvcc, 99)
        };
        let path =
            std::env::temp_dir().join(format!("finecc-repro-roundtrip-{}.txt", std::process::id()));
        write_repro(&path, &sc, &[0, 1, 1, 0, 2]).unwrap();
        let back = read_repro(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(back.scheme, sc.scheme);
        assert_eq!(back.durability, sc.durability);
        assert_eq!(back.seed, sc.seed);
        assert_eq!(back.workers, sc.workers);
        assert_eq!(back.ops_per_worker, sc.ops_per_worker);
        assert_eq!(back.pairs, sc.pairs);
        assert_eq!(back.max_retries, sc.max_retries);
        assert_eq!(back.checkpoint_every, 3);
        assert!(back.verify_restartable);
        assert_eq!(back.faults, sc.faults);
        assert_eq!(back.replay, vec![0, 1, 1, 0, 2]);
    }

    #[test]
    fn default_repro_files_omit_recovery_keys() {
        let sc = ChaosScenario::new(SchemeKind::Mvcc, 1);
        let path =
            std::env::temp_dir().join(format!("finecc-repro-defaults-{}.txt", std::process::id()));
        write_repro(&path, &sc, &[]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(!text.contains("checkpoint_every"), "{text}");
        assert!(!text.contains("verify_restartable"), "{text}");
    }

    #[test]
    fn mid_run_checkpoints_stay_anomaly_free() {
        let sc = ChaosScenario {
            durability: DurabilityLevel::WalSync,
            checkpoint_every: 2,
            verify_restartable: true,
            ..ChaosScenario::new(SchemeKind::Mvcc, 41)
        };
        let r = run_chaos(&sc).unwrap();
        assert!(r.anomalies.is_empty(), "{:?}", r.anomalies);
        assert!(r.checkpoints > 0, "worker 0 checkpointed mid-run");
        assert_eq!(r.checkpoint_failures, 0);
        assert!(r.commits > 0);
    }

    #[test]
    fn crash_during_checkpoint_loses_no_acked_commit() {
        // A crash at the checkpoint fsync kills the image mid-write;
        // the log is untouched, so recovery (from the previous
        // checkpoint) must still equal the acked prefix — and staying
        // restartable while it is at it.
        let sc = ChaosScenario {
            durability: DurabilityLevel::WalSync,
            checkpoint_every: 2,
            verify_restartable: true,
            // Hit 0 is the genesis checkpoint at attach; hit 1 is the
            // first online checkpoint, mid-run.
            faults: FaultPlan::of([FaultSpec::once(Site::CkptFsync, 1, FaultKind::Crash)]),
            ..ChaosScenario::new(SchemeKind::Mvcc, 17)
        };
        let r = run_chaos(&sc).unwrap();
        assert!(r.anomalies.is_empty(), "{:?}", r.anomalies);
        assert!(r.outcome.crashed, "the injected crash fired");
        assert_eq!(r.checkpoint_failures, 1, "the checkpoint was refused");
    }

    #[test]
    fn crash_during_genesis_checkpoint_refuses_startup_cleanly() {
        // Hit 0 of a checkpoint site on a fresh directory is the
        // genesis checkpoint: the store never opens, nothing is acked,
        // and the degenerate run is still anomaly-free.
        let sc = ChaosScenario {
            durability: DurabilityLevel::WalSync,
            verify_restartable: true,
            faults: FaultPlan::of([FaultSpec::once(Site::CkptDirFsync, 0, FaultKind::Crash)]),
            ..ChaosScenario::new(SchemeKind::Mvcc, 17)
        };
        let r = run_chaos(&sc).unwrap();
        assert!(r.anomalies.is_empty(), "{:?}", r.anomalies);
        assert!(r.outcome.crashed);
        assert_eq!(r.commits, 0, "the store never came up");
    }

    #[test]
    fn checkpointed_runs_reproduce_byte_for_byte() {
        let sc = ChaosScenario {
            durability: DurabilityLevel::WalSync,
            checkpoint_every: 2,
            ..ChaosScenario::new(SchemeKind::MvccSsi, 29)
        };
        let a = run_chaos(&sc).unwrap();
        let b = run_chaos(&sc).unwrap();
        assert_eq!(a, b, "checkpoint maintenance must stay deterministic");
        assert!(a.checkpoints > 0);
    }

    #[test]
    fn recovery_prefix_check_accepts_prefixes_and_rejects_tears() {
        let acked = vec![vec![(0usize, 10i64)], vec![(1, 5), (2, 5)], vec![(0, 20)]];
        for s in [[0, 0, 0], [10, 0, 0], [10, 5, 5], [20, 5, 5]] {
            assert_eq!(
                matches_a_prefix(&s, &acked),
                Ok(()),
                "{s:?} is a valid prefix"
            );
        }
        // Half a pair applied is not a prefix.
        let torn = matches_a_prefix(&[10, 5, 0], &acked);
        assert_eq!(torn, Err(vec![20, 5, 5]), "a torn pair matches no prefix");
    }
}

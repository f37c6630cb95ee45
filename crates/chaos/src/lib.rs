//! # finecc-chaos — deterministic fault injection and schedule control
//!
//! A seeded virtual-time scheduler that owns all nondeterminism of a
//! run — thread interleaving at named yield points, randomness, and
//! the clock — plus a fault plane that injects append/fsync I/O
//! errors, crashes at frame boundaries, delays at commit-path phases,
//! and latch-acquisition stalls into the engine. On top of the
//! recorded decision sequence sit replay (byte-for-byte reproduction)
//! and greedy schedule minimization, which the simulator's explorer
//! uses to shrink a failing interleaving to a small repro.
//!
//! ## How the hooks cost nothing when disabled
//!
//! The engine calls free functions ([`yield_point`], [`fault_at`]) at
//! named [`Site`]s. Each compiles to **one relaxed atomic load and a
//! predictable branch** while no harness is installed — the same
//! discipline as `finecc-obs`. The mvcc read path carries *no* sites at
//! all, so its reads stay probe-free even with the harness linked in.
//!
//! ## Scoping
//!
//! Installation is process-global but *participation is opt-in*: only
//! the installing thread and threads that called [`register_worker_as`]
//! see the harness. Unrelated threads (other tests in the same
//! process, background flushers of other logs) pass through every hook
//! untouched, which keeps hit counting — and therefore fault firing —
//! deterministic. A background thread owned by a participating
//! component (the group-commit flusher) joins the fault plane through
//! a [`FaultToken`] captured by its creator.
//!
//! ## Modes
//!
//! * `threads > 0` — **scheduled**: that many workers must
//!   [`register_worker_as`]; exactly one runs at a time and every yield
//!   point is a scheduling decision (virtual time advances one tick
//!   per decision).
//! * `threads == 0` — **fault-only**: no scheduling, yield points stay
//!   no-ops, but [`fault_at`] fires for eligible threads. Used by unit
//!   tests that inject I/O errors under the normal thread interleaving.

#![forbid(unsafe_code)]

mod fault;
mod rng;
mod sched;
mod site;

pub use fault::{FaultKind, FaultPlan, FaultSpec};
pub use sched::{ChaosOutcome, TraceEvent};
pub use site::{Site, SITE_COUNT};

use sched::Harness;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Fast-path gate: every hook bails on one relaxed load while false.
static ACTIVE: AtomicBool = AtomicBool::new(false);
/// True when the installed harness schedules workers (`threads > 0`).
static SCHEDULING: AtomicBool = AtomicBool::new(false);
/// Monotone install counter; thread eligibility is keyed on it so
/// state left behind by a previous harness can never leak into the
/// next one.
static GENERATION: AtomicU64 = AtomicU64::new(0);
/// Set when a `FaultKind::Crash` fires; cleared at install.
static CRASHED: AtomicBool = AtomicBool::new(false);
/// The installed harness (participating threads clone the `Arc`).
static HARNESS: Mutex<Option<Arc<Harness>>> = Mutex::new(None);
/// Serializes harness installations across concurrently running tests
/// in one process: the [`ChaosHandle`] holds this guard.
static INSTALL_LOCK: Mutex<()> = Mutex::new(());

#[derive(Clone, Copy)]
struct ThreadCtx {
    /// Generation this thread participates in (0 = none).
    gen: u64,
    /// Scheduled-worker index, or `u32::MAX` for eligible non-workers
    /// (the installing thread).
    worker: u32,
}

thread_local! {
    static CTX: Cell<ThreadCtx> = const {
        Cell::new(ThreadCtx { gen: 0, worker: u32::MAX })
    };
}

fn current_harness() -> Option<Arc<Harness>> {
    HARNESS.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Returns the thread's context iff it participates in the live
/// generation.
fn eligible_ctx() -> Option<ThreadCtx> {
    let ctx = CTX.with(Cell::get);
    (ctx.gen != 0 && ctx.gen == GENERATION.load(Ordering::Acquire)).then_some(ctx)
}

/// Configuration for one harness installation.
#[derive(Clone, Debug, Default)]
pub struct ChaosConfig {
    /// Seed for the scheduling RNG.
    pub seed: u64,
    /// Scheduled workers that will [`register_worker_as`] (0 = fault-only
    /// mode, no scheduling).
    pub threads: usize,
    /// The armed fault plane.
    pub faults: FaultPlan,
    /// Recorded decisions to replay before the seeded RNG takes over.
    /// Empty for free exploration.
    pub replay: Vec<u32>,
}

/// Exclusive handle to the installed harness. Dropping (or
/// [`ChaosHandle::finish`]ing) it uninstalls the harness and releases
/// the process-wide installation lock.
pub struct ChaosHandle {
    harness: Arc<Harness>,
    _guard: MutexGuard<'static, ()>,
}

impl ChaosHandle {
    /// Uninstalls the harness and returns the recorded schedule.
    pub fn finish(self) -> ChaosOutcome {
        // Uninstall happens in Drop; grab the outcome first.
        self.harness.take_outcome()
    }

    /// Current virtual-clock value (ticks == scheduling decisions).
    pub fn ticks(&self) -> u64 {
        self.harness.ticks()
    }
}

impl Drop for ChaosHandle {
    fn drop(&mut self) {
        ACTIVE.store(false, Ordering::SeqCst);
        SCHEDULING.store(false, Ordering::SeqCst);
        *HARNESS.lock().unwrap_or_else(|e| e.into_inner()) = None;
        CTX.with(|c| {
            c.set(ThreadCtx {
                gen: 0,
                worker: u32::MAX,
            })
        });
    }
}

/// Installs a harness and makes the calling thread eligible (it can
/// probe faults and capture [`FaultToken`]s, but is not scheduled).
/// Blocks while another harness is installed anywhere in the process.
pub fn install(config: ChaosConfig) -> ChaosHandle {
    let guard = INSTALL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let gen = GENERATION.fetch_add(1, Ordering::AcqRel) + 1;
    let harness = Arc::new(Harness::new(
        gen,
        config.seed,
        config.threads,
        config.faults.clone(),
        config.replay,
    ));
    *HARNESS.lock().unwrap_or_else(|e| e.into_inner()) = Some(Arc::clone(&harness));
    CRASHED.store(false, Ordering::SeqCst);
    SCHEDULING.store(config.threads > 0, Ordering::SeqCst);
    CTX.with(|c| {
        c.set(ThreadCtx {
            gen,
            worker: u32::MAX,
        })
    });
    ACTIVE.store(true, Ordering::SeqCst);
    ChaosHandle {
        harness,
        _guard: guard,
    }
}

/// A registered scheduled worker; dropping it marks the worker
/// finished and hands the token on (panic-safe).
pub struct Worker {
    harness: Arc<Harness>,
    idx: usize,
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.harness.finish(self.idx);
        CTX.with(|c| {
            let mut ctx = c.get();
            ctx.worker = u32::MAX;
            c.set(ctx);
        });
    }
}

/// Registers the calling thread as scheduled worker `slot` of the
/// installed harness (0-based, `< ChaosConfig::threads`) and blocks
/// until all configured workers have registered and the scheduler makes
/// its first grant. Panics if the slot is out of range or already
/// claimed. A fixed slot pins the workload's worker identity to the
/// schedule's decision values independent of OS thread startup order —
/// required for cross-run determinism and replay. Returns `None` when
/// no scheduling harness is installed.
pub fn register_worker_as(slot: usize) -> Option<Worker> {
    if !SCHEDULING.load(Ordering::Acquire) {
        return None;
    }
    let harness = current_harness()?;
    let gen = harness.gen;
    harness.register(slot);
    CTX.with(|c| {
        c.set(ThreadCtx {
            gen,
            worker: slot as u32,
        })
    });
    Some(Worker { harness, idx: slot })
}

/// A scheduling/fault yield point. One relaxed load when no harness is
/// installed; for a scheduled worker of the live harness it is a
/// scheduling decision (the worker may be preempted or delayed here).
#[inline]
pub fn yield_point(site: Site) {
    if !ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    yield_point_slow(site);
}

#[cold]
fn yield_point_slow(site: Site) {
    let Some(ctx) = eligible_ctx() else { return };
    if ctx.worker == u32::MAX {
        return;
    }
    if let Some(h) = current_harness() {
        if h.gen == ctx.gen {
            h.yield_at(ctx.worker as usize, site);
        }
    }
}

/// Probes the fault plane at an I/O site. Hit counting is per-site and
/// deterministic; only threads participating in the live harness
/// consume hits. Returns the I/O error or crash armed for this hit, if
/// any; a returned crash has already turned [`crashed`] on.
#[inline]
pub fn fault_at(site: Site) -> Option<FaultKind> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    fault_at_slow(site)
}

#[cold]
fn fault_at_slow(site: Site) -> Option<FaultKind> {
    let ctx = eligible_ctx()?;
    let h = current_harness()?;
    (h.gen == ctx.gen).then(|| h.probe(site)).flatten()
}

/// True when the calling thread participates in a *scheduling* harness
/// — components switch to their deterministic variants (inline WAL,
/// cooperative lock waits) when this holds.
#[inline]
pub fn scheduled_session() -> bool {
    if !ACTIVE.load(Ordering::Relaxed) || !SCHEDULING.load(Ordering::Relaxed) {
        return false;
    }
    eligible_ctx().is_some()
}

/// True once a `FaultKind::Crash` fired in the live harness. Workers
/// poll this to drain after a simulated crash.
#[inline]
pub fn crashed() -> bool {
    ACTIVE.load(Ordering::Relaxed) && CRASHED.load(Ordering::Relaxed)
}

/// A capability for background threads owned by a participating
/// component (e.g. the group-commit flusher) to probe the fault plane
/// of the harness that was live when the token was captured. Probes
/// through a stale token (harness since uninstalled) return `None`.
#[derive(Clone)]
pub struct FaultToken {
    harness: Arc<Harness>,
    gen: u64,
}

impl std::fmt::Debug for FaultToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultToken")
            .field("gen", &self.gen)
            .finish()
    }
}

impl FaultToken {
    fn live(&self) -> bool {
        ACTIVE.load(Ordering::Relaxed) && GENERATION.load(Ordering::Acquire) == self.gen
    }

    /// Probes the fault plane (same counters and crash recording as
    /// [`fault_at`]).
    pub fn fault_at(&self, site: Site) -> Option<FaultKind> {
        self.live().then(|| self.harness.probe(site)).flatten()
    }
}

/// Captures a [`FaultToken`] for the live harness; `None` unless the
/// calling thread participates in it.
pub fn fault_token() -> Option<FaultToken> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    let ctx = eligible_ctx()?;
    let h = current_harness()?;
    (h.gen == ctx.gen).then_some(FaultToken {
        harness: h,
        gen: ctx.gen,
    })
}

/// Greedy schedule minimization: repeatedly tries dropping chunks of
/// the decision sequence (halving the chunk size down to single
/// decisions, ddmin-style) and keeps any candidate for which `fails`
/// still reports the anomaly. `budget` caps the number of candidate
/// runs. Tolerant replay in the scheduler (unrunnable picks fall back
/// to the first runnable worker) is what makes elided sequences still
/// meaningful.
pub fn minimize_decisions(
    decisions: &[u32],
    mut budget: usize,
    mut fails: impl FnMut(&[u32]) -> bool,
) -> Vec<u32> {
    let mut best = decisions.to_vec();
    let mut chunk = (best.len() / 2).max(1);
    loop {
        let mut i = 0;
        while i < best.len() && budget > 0 {
            let end = (i + chunk).min(best.len());
            let mut candidate = Vec::with_capacity(best.len() - (end - i));
            candidate.extend_from_slice(&best[..i]);
            candidate.extend_from_slice(&best[end..]);
            budget -= 1;
            if fails(&candidate) {
                best = candidate;
                // Re-test from the same index: the tail shifted left.
            } else {
                i = end;
            }
        }
        if chunk == 1 || budget == 0 {
            return best;
        }
        chunk = (chunk / 2).max(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn disabled_hooks_are_no_ops() {
        // No harness installed: everything is inert. Hold the install
        // lock so no concurrently running test has one live meanwhile.
        let _no_harness = INSTALL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        yield_point(Site::TxnStart);
        assert_eq!(fault_at(Site::WalAppend), None);
        assert!(!scheduled_session());
        assert!(!crashed());
        assert!(register_worker_as(0).is_none());
        assert!(fault_token().is_none());
    }

    #[test]
    fn scheduled_run_is_deterministic_and_serialized() {
        let run = |seed: u64, replay: Vec<u32>| {
            let handle = install(ChaosConfig {
                seed,
                threads: 3,
                replay,
                ..ChaosConfig::default()
            });
            let in_section = AtomicUsize::new(0);
            let order = Mutex::new(Vec::new());
            std::thread::scope(|s| {
                for t in 0..3u32 {
                    let in_section = &in_section;
                    let order = &order;
                    s.spawn(move || {
                        // A fixed slot per thread: the orders compared
                        // below must not depend on OS startup order.
                        let worker = register_worker_as(t as usize).expect("scheduling harness");
                        for _ in 0..10 {
                            // Exactly one worker runs at a time.
                            assert_eq!(in_section.fetch_add(1, Ordering::SeqCst), 0);
                            order.lock().unwrap().push(t);
                            in_section.fetch_sub(1, Ordering::SeqCst);
                            yield_point(Site::TxnStart);
                        }
                        drop(worker);
                    });
                }
            });
            let outcome = handle.finish();
            (order.into_inner().unwrap(), outcome)
        };
        let (order1, out1) = run(7, Vec::new());
        let (order2, out2) = run(7, Vec::new());
        assert_eq!(order1, order2, "same seed, same interleaving");
        assert_eq!(out1, out2);
        assert!(out1.ticks > 0);
        // Replaying the recorded decisions reproduces the run exactly.
        let (order3, out3) = run(999, out1.decisions.clone());
        assert_eq!(order1, order3, "replay overrides the seed");
        assert_eq!(out1.trace, out3.trace);
        // A different seed explores a different interleaving (with 30
        // decisions over 3 workers a collision is vanishingly rare).
        let (order4, _) = run(8, Vec::new());
        assert_ne!(order1, order4, "different seed, different schedule");
    }

    #[test]
    fn delay_fault_deschedules_at_the_site() {
        let handle = install(ChaosConfig {
            seed: 1,
            threads: 2,
            faults: FaultPlan::of([FaultSpec::once(Site::TxnBackoff, 0, FaultKind::Delay(50))]),
            ..ChaosConfig::default()
        });
        let order = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for t in 0..2u32 {
                let order = &order;
                s.spawn(move || {
                    let _worker = register_worker_as(t as usize).unwrap();
                    // Worker 0 trips the delay; worker 1 keeps running.
                    if t == 0 {
                        yield_point(Site::TxnBackoff);
                    }
                    for _ in 0..5 {
                        order.lock().unwrap().push(t);
                        yield_point(Site::TxnStart);
                    }
                });
            }
        });
        let outcome = handle.finish();
        // The delay consumed virtual time beyond the plain decisions.
        assert!(
            outcome.ticks >= 50,
            "ticks {} cover the delay",
            outcome.ticks
        );
        assert!(!outcome.crashed);
    }

    #[test]
    fn fault_only_mode_counts_hits_per_site() {
        let handle = install(ChaosConfig {
            seed: 0,
            threads: 0,
            faults: FaultPlan::of([FaultSpec::once(Site::WalFlushFsync, 1, FaultKind::IoError)]),
            ..ChaosConfig::default()
        });
        assert!(!scheduled_session(), "fault-only mode never schedules");
        assert_eq!(fault_at(Site::WalFlushFsync), None, "hit 0 unarmed");
        assert_eq!(fault_at(Site::WalFlushFsync), Some(FaultKind::IoError));
        assert_eq!(fault_at(Site::WalFlushFsync), None, "window passed");
        // A token keeps working on the flusher's behalf…
        let token = fault_token().expect("installer thread is eligible");
        assert_eq!(token.fault_at(Site::WalFlushWrite), None);
        drop(handle);
        // …but goes inert once the harness is gone.
        assert_eq!(token.fault_at(Site::WalFlushWrite), None);
    }

    #[test]
    fn a_fired_crash_records_itself() {
        let plan = FaultPlan::of([
            FaultSpec::once(Site::WalFsync, 0, FaultKind::IoError),
            FaultSpec::once(Site::WalFsync, 1, FaultKind::Crash),
        ]);
        let handle = install(ChaosConfig {
            faults: plan.clone(),
            ..ChaosConfig::default()
        });
        assert_eq!(fault_at(Site::WalFsync), Some(FaultKind::IoError));
        assert!(!crashed(), "an I/O error is not a crash");
        assert_eq!(fault_at(Site::WalFsync), Some(FaultKind::Crash));
        assert!(crashed(), "the probe that fired the crash recorded it");
        assert!(handle.finish().crashed);
        // The same through a token (the flusher's probes).
        let handle = install(ChaosConfig {
            faults: plan,
            ..ChaosConfig::default()
        });
        let token = fault_token().expect("installer thread is eligible");
        assert_eq!(token.fault_at(Site::WalFsync), Some(FaultKind::IoError));
        assert!(!crashed());
        assert_eq!(token.fault_at(Site::WalFsync), Some(FaultKind::Crash));
        assert!(crashed());
        assert!(handle.finish().crashed);
    }

    #[test]
    fn minimize_shrinks_to_the_failing_core() {
        // A "schedule" fails iff it still contains both a 2 and a 7.
        let decisions: Vec<u32> = (0..64).map(|i| i % 10).collect();
        let runs = std::cell::Cell::new(0usize);
        let min = minimize_decisions(&decisions, 10_000, |d| {
            runs.set(runs.get() + 1);
            d.contains(&2) && d.contains(&7)
        });
        assert!(min.len() <= 2, "minimized to the core: {min:?}");
        assert!(min.contains(&2) && min.contains(&7));
        assert!(runs.get() > 0);
    }
}

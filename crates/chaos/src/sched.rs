//! The cooperative token scheduler and virtual clock.
//!
//! Exactly one registered worker runs at a time. At every
//! [`crate::yield_point`] the running worker hands the token back, the
//! scheduler picks the next runnable worker (by seeded RNG, or by a
//! recorded decision list in replay mode), and the virtual clock
//! advances one tick. Serializing the workers makes everything they do
//! — atomic counters, timestamp draws, lock grants, log appends —
//! a pure function of the decision sequence, which is what lets a
//! failing schedule be minimized and replayed byte-for-byte.

use crate::fault::{FaultKind, FaultPlan};
use crate::rng::SplitMix64;
use crate::site::{Site, SITE_COUNT};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};

/// Backstop against a runaway schedule (a livelocked workload would
/// otherwise spin the scheduler forever). Orders of magnitude above any
/// real exploration run.
const MAX_DECISIONS: usize = 2_000_000;

/// One scheduling decision, as seen by the trace: at `tick`, worker
/// `thread` yielded at `site`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual-clock tick of the decision.
    pub tick: u64,
    /// The worker that yielded.
    pub thread: u32,
    /// Where it yielded.
    pub site: Site,
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@t{}:{}", self.thread, self.tick, self.site)
    }
}

/// Everything a finished run hands back for reporting, minimization
/// and replay.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaosOutcome {
    /// The decision sequence (worker picked at each tick). Feed back
    /// through `ChaosConfig::replay` to reproduce the run.
    pub decisions: Vec<u32>,
    /// Site-annotated decision trace.
    pub trace: Vec<TraceEvent>,
    /// Final virtual-clock value.
    pub ticks: u64,
    /// Whether a `FaultKind::Crash` fired.
    pub crashed: bool,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WorkerState {
    /// Slot reserved, thread not yet arrived. Never schedulable.
    Unregistered,
    Runnable,
    /// Descheduled by a `Delay` fault until the given tick.
    Delayed(u64),
    Finished,
}

struct SchedState {
    workers: Vec<WorkerState>,
    /// Slots claimed so far (scheduling starts when all are).
    registered: usize,
    /// The worker holding the token (`None` before start / after end).
    current: Option<usize>,
    /// Becomes true once all expected workers registered.
    started: bool,
    rng: SplitMix64,
    clock: u64,
    decisions: Vec<u32>,
    replay: Vec<u32>,
    replay_pos: usize,
    trace: Vec<TraceEvent>,
    yield_hits: [u64; SITE_COUNT],
    probe_hits: [u64; SITE_COUNT],
}

/// One installed harness instance (see [`crate::install`]).
pub(crate) struct Harness {
    pub(crate) gen: u64,
    pub(crate) expected: usize,
    pub(crate) plan: FaultPlan,
    crashed: AtomicBool,
    state: Mutex<SchedState>,
    cv: Condvar,
}

impl Harness {
    pub(crate) fn new(
        gen: u64,
        seed: u64,
        expected: usize,
        plan: FaultPlan,
        replay: Vec<u32>,
    ) -> Harness {
        Harness {
            gen,
            expected,
            plan,
            crashed: AtomicBool::new(false),
            state: Mutex::new(SchedState {
                workers: vec![WorkerState::Unregistered; expected],
                registered: 0,
                current: None,
                started: false,
                rng: SplitMix64::new(seed),
                clock: 0,
                decisions: Vec::new(),
                replay,
                replay_pos: 0,
                trace: Vec::new(),
                yield_hits: [0; SITE_COUNT],
                probe_hits: [0; SITE_COUNT],
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Registers the calling thread as scheduled worker `idx` and blocks
    /// until the scheduler grants it the token for the first time. The
    /// index is the workload's stable worker identity, independent of
    /// the OS order in which the threads happen to start up (decision
    /// values name worker indices, so replay across runs needs the
    /// mapping fixed).
    pub(crate) fn register(&self, idx: usize) {
        let mut st = self.lock();
        assert!(
            idx < self.expected,
            "chaos harness: worker slot {idx} out of range ({})",
            self.expected
        );
        assert!(
            st.workers[idx] == WorkerState::Unregistered,
            "chaos harness: worker slot {idx} claimed twice"
        );
        st.workers[idx] = WorkerState::Runnable;
        st.registered += 1;
        if st.registered == self.expected {
            st.started = true;
            self.schedule_next(&mut st);
        }
        self.wait_token(st, idx);
    }

    /// The running worker yields at `site`: apply any armed delay,
    /// pick the next worker, and block until re-granted.
    pub(crate) fn yield_at(&self, idx: usize, site: Site) {
        let mut st = self.lock();
        if st.current != Some(idx) {
            // Defensive: a yield from a thread that does not hold the
            // token (misuse) must not corrupt the schedule.
            return;
        }
        let tick = st.clock;
        st.trace.push(TraceEvent {
            tick,
            thread: idx as u32,
            site,
        });
        let hit = st.yield_hits[site.index()];
        st.yield_hits[site.index()] += 1;
        if let Some(FaultKind::Delay(ticks)) = self.plan.at(site, hit) {
            st.workers[idx] = WorkerState::Delayed(st.clock + ticks);
        }
        self.schedule_next(&mut st);
        self.wait_token(st, idx);
    }

    /// Deterministic per-site fault probe (I/O sites): the I/O error or
    /// crash armed for this hit, a crash recorded as it fires.
    pub(crate) fn probe(&self, site: Site) -> Option<FaultKind> {
        let mut st = self.lock();
        let hit = st.probe_hits[site.index()];
        st.probe_hits[site.index()] += 1;
        let kind = self
            .plan
            .at(site, hit)
            .filter(|k| matches!(k, FaultKind::IoError | FaultKind::Crash));
        if kind == Some(FaultKind::Crash) {
            self.crashed.store(true, Ordering::Relaxed);
            crate::CRASHED.store(true, Ordering::SeqCst);
        }
        kind
    }

    /// The calling worker is done; hand the token on.
    pub(crate) fn finish(&self, idx: usize) {
        let mut st = self.lock();
        st.workers[idx] = WorkerState::Finished;
        if st.current == Some(idx) {
            self.schedule_next(&mut st);
        }
    }

    pub(crate) fn ticks(&self) -> u64 {
        self.lock().clock
    }

    /// Drains the recorded schedule (called once, at uninstall).
    pub(crate) fn take_outcome(&self) -> ChaosOutcome {
        let mut st = self.lock();
        ChaosOutcome {
            decisions: std::mem::take(&mut st.decisions),
            trace: std::mem::take(&mut st.trace),
            ticks: st.clock,
            crashed: self.crashed.load(Ordering::Relaxed),
        }
    }

    /// Picks the next worker to hold the token. Replayed decisions win
    /// while they last (falling back to the first runnable worker when
    /// the recorded pick is not runnable — the tolerance that makes
    /// greedy decision elision work); afterwards the seeded RNG picks.
    fn schedule_next(&self, st: &mut SchedState) {
        // Wake any delay whose deadline has passed.
        for w in &mut st.workers {
            if matches!(*w, WorkerState::Delayed(until) if until <= st.clock) {
                *w = WorkerState::Runnable;
            }
        }
        let mut runnable: Vec<usize> = (0..st.workers.len())
            .filter(|&i| st.workers[i] == WorkerState::Runnable)
            .collect();
        if runnable.is_empty() {
            // Nothing runnable: jump the clock to the nearest delay
            // deadline, or declare the run over.
            let next_wake = st
                .workers
                .iter()
                .filter_map(|w| match w {
                    WorkerState::Delayed(until) => Some(*until),
                    _ => None,
                })
                .min();
            match next_wake {
                Some(until) => {
                    st.clock = st.clock.max(until);
                    for (i, w) in st.workers.iter_mut().enumerate() {
                        if matches!(*w, WorkerState::Delayed(u) if u <= st.clock) {
                            *w = WorkerState::Runnable;
                            runnable.push(i);
                        }
                    }
                }
                None => {
                    st.current = None;
                    self.cv.notify_all();
                    return;
                }
            }
        }
        assert!(
            st.decisions.len() < MAX_DECISIONS,
            "chaos schedule exceeded {MAX_DECISIONS} decisions — livelocked workload?"
        );
        let chosen = if st.replay_pos < st.replay.len() {
            let want = st.replay[st.replay_pos] as usize;
            st.replay_pos += 1;
            if runnable.contains(&want) {
                want
            } else {
                runnable[0]
            }
        } else {
            let i = st.rng.pick(runnable.len());
            runnable[i]
        };
        st.decisions.push(chosen as u32);
        st.clock += 1;
        st.current = Some(chosen);
        self.cv.notify_all();
    }

    /// Blocks until the token is granted to `idx` — or, degenerately,
    /// until the scheduler declares the run over (`current == None`
    /// after start), which only happens through misuse and must not
    /// deadlock.
    fn wait_token(&self, mut st: std::sync::MutexGuard<'_, SchedState>, idx: usize) {
        loop {
            if st.started && (st.current == Some(idx) || st.current.is_none()) {
                return;
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }
}

//! The closed-loop driver: six schemes built at set-up and kept alive,
//! two client threads each replaying its own pre-generated stream
//! through `run_txn`, in fixed-duration slices.

use crate::api::{self, ClassId, DurabilityLevel, ExecError, Metrics, Oid, Outcome, Scheme};
use crate::api::{SchemeKind, Txn, Value};
use crate::ledger::{self, Ledger};
use crate::trace::{Span, Spans, SAMPLE_EVERY};
use crate::workload::{execute, Effect, Inputs, ScanExpect, Target, TxnSpec, Workload, CLIENTS};
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// A closed-loop client resubmits a transaction the retry loop gave up
/// on until it commits; only one that is still uncommitted this long
/// after the loop first gave up counts as a failed operation. The limit
/// is wall-clock time, not a number of resubmissions: on a shared host
/// the other client can lose its core for tens of milliseconds while
/// it holds a lock or an uncommitted version, and any count of
/// back-to-back resubmissions runs out inside such a gap.
pub const RESUBMIT_DEADLINE: Duration = Duration::from_secs(20);
/// Pause before the first resubmission; it doubles up to
/// [`RESUBMIT_PAUSE_MAX`], plus up to as much again of jitter. The
/// program's own backoff is a few `yield_now` calls, which on idle cores
/// is no backoff at all: two clients that abort each other
/// (first-updater-wins, or a deadlock victim re-colliding with a waiter
/// that has not woken yet) can stay in lock-step for hundreds of
/// retries. A client that gets "gave up" back waits a moment, as a real
/// one would, and not the same moment as its rival.
pub const RESUBMIT_PAUSE: Duration = Duration::from_micros(100);
pub const RESUBMIT_PAUSE_MAX: Duration = Duration::from_millis(5);

/// The pause before resubmission number `gave_up + 1`; `jitter` is any
/// number the two clients are unlikely to share.
fn resubmit_pause(gave_up: u32, jitter: u32) -> Duration {
    let pause = (RESUBMIT_PAUSE * (1 << gave_up.min(16))).min(RESUBMIT_PAUSE_MAX);
    pause + Duration::from_nanos(u64::from(jitter) % pause.as_nanos() as u64)
}

/// One scheme over its own environment and store.
pub struct Instance {
    pub kind: SchemeKind,
    pub scheme: Scheme,
    pub ledger: Ledger,
    pub oids: Vec<Oid>,
    pub metrics: Metrics,
    pub wal_dir: Option<PathBuf>,
    /// Everything that ever ran here (warm-up included): the oracle
    /// compares the store against all of it.
    pub totals: Totals,
    cursors: [usize; CLIENTS],
    seqs: [u64; CLIENTS],
}

/// Client-side counts. `exhausted` = never committed within
/// [`RESUBMIT_DEADLINE`], `failed` = non-retryable errors, `gave_up` =
/// times the program's retry loop ran out (and the client resubmitted).
#[derive(Clone, Debug, Default)]
pub struct Totals {
    pub attempted: u64,
    pub commits: u64,
    pub exhausted: u64,
    pub failed: u64,
    pub retries: u64,
    pub gave_up: u64,
    pub effect: Effect,
    pub first_error: Option<String>,
}

impl Totals {
    pub fn add(&mut self, o: &Totals) {
        self.attempted += o.attempted;
        self.commits += o.commits;
        self.exhausted += o.exhausted;
        self.failed += o.failed;
        self.retries += o.retries;
        self.gave_up += o.gave_up;
        self.effect += o.effect;
        if self.first_error.is_none() {
            self.first_error.clone_from(&o.first_error);
        }
    }

    fn record(&mut self, (outcome, gave_up): (Outcome<Effect>, u32)) {
        self.attempted += 1;
        self.gave_up += u64::from(gave_up);
        match outcome {
            Outcome::Committed { value, retries } => {
                self.commits += 1;
                self.retries += u64::from(retries);
                self.effect += value;
            }
            Outcome::Exhausted { retries } => {
                self.exhausted += 1;
                self.retries += u64::from(retries);
            }
            Outcome::Failed(e) => {
                self.failed += 1;
                self.first_error.get_or_insert(e);
            }
        }
    }
}

impl Instance {
    /// Parse + compile + populate + build, for one scheme; `durable`
    /// names the level and the (fresh) log directory.
    pub fn build(
        kind: SchemeKind,
        inputs: &Inputs,
        durable: Option<(DurabilityLevel, &Path)>,
        obs: bool,
    ) -> Instance {
        let mut env = api::env_from_source(ledger::SOURCE);
        if obs {
            env = api::with_obs(env);
        }
        let ledger = Ledger::of(&env);
        let oids = ledger.populate(&env, &inputs.population);
        let wal_dir = durable.map(|(_, dir)| dir.to_path_buf());
        let scheme = Scheme::build(kind, env, durable);
        Instance {
            kind,
            metrics: scheme.metrics(),
            scheme,
            ledger,
            oids,
            wal_dir,
            totals: Totals::default(),
            cursors: [0; CLIENTS],
            seqs: [0; CLIENTS],
        }
    }

    /// All six schemes for a workload; durable ones log under
    /// `wal_root/<scheme>`.
    pub fn build_all(w: &Workload, inputs: &Inputs, wal_root: &Path, obs: bool) -> Vec<Instance> {
        api::SchemeKind::ALL
            .iter()
            .map(|&kind| {
                let dir = wal_root.join(kind.name());
                let durable = w.durable.then_some((DurabilityLevel::Wal, dir.as_path()));
                Instance::build(kind, inputs, durable, obs)
            })
            .collect()
    }

    pub fn name(&self) -> &'static str {
        self.kind.name()
    }
}

/// Messages through a scheme, inside one transaction attempt.
struct SchemeTarget<'a> {
    scheme: &'a Scheme,
    txn: &'a mut Txn,
    oids: &'a [Oid],
    savings: ClassId,
    /// Span buffer and transaction number when this one is sampled.
    spans: Option<(&'a mut Spans, u64)>,
}

impl SchemeTarget<'_> {
    fn timed<T>(&mut self, name: &'static str, call: impl FnOnce(&mut Self) -> T) -> T {
        if self.spans.is_none() {
            return call(self);
        }
        let start = Instant::now();
        let out = call(self);
        let end = Instant::now();
        if let Some((buf, txn)) = &mut self.spans {
            buf.record(name, "body", *txn, start, end);
        }
        out
    }
}

impl Target for SchemeTarget<'_> {
    fn send(&mut self, obj: u32, method: &'static str, args: &[Value]) -> Result<Value, ExecError> {
        self.timed("send", |t| {
            t.scheme.send(t.txn, t.oids[obj as usize], method, args)
        })
    }

    fn scan(&mut self) -> Result<Vec<Value>, ExecError> {
        self.timed("send_all", |t| {
            t.scheme.send_all(t.txn, t.savings, "balance_of")
        })
    }
}

/// One generated transaction through the program's retry loop,
/// resubmitted while the loop gives up; returns the final outcome (its
/// retries summed over submissions) and how often the loop gave up.
/// With a span buffer, every [`SAMPLE_EVERY`]th transaction records
/// `run_txn`, each `body` attempt and each `send*`.
pub fn run_spec(
    scheme: &Scheme,
    oids: &[Oid],
    savings: ClassId,
    spec: &TxnSpec,
    expect: ScanExpect,
    seq: u64,
    spans: Option<&mut Spans>,
) -> (Outcome<Effect>, u32) {
    let mut spans = spans.filter(|_| seq.is_multiple_of(SAMPLE_EVERY));
    let mut retries_so_far = 0;
    let mut gave_up = 0;
    // Set when the retry loop first gives up: the common path reads no
    // clock of its own.
    let mut first_gave_up = None;
    loop {
        let start = spans.is_some().then(Instant::now);
        let outcome = scheme.run_txn(|txn| {
            let body_start = spans.is_some().then(Instant::now);
            let mut target = SchemeTarget {
                scheme,
                txn,
                oids,
                savings,
                spans: spans.as_deref_mut().map(|buf| (buf, seq)),
            };
            let result = execute(&mut target, spec, expect);
            if let (Some(buf), Some(t0)) = (spans.as_deref_mut(), body_start) {
                buf.record("body", "run_txn", seq, t0, Instant::now());
            }
            result
        });
        if let (Some(buf), Some(t0)) = (spans.as_deref_mut(), start) {
            buf.record("run_txn", "", seq, t0, Instant::now());
        }
        match outcome {
            Outcome::Committed { value, retries } => {
                let retries = retries + retries_so_far;
                return (Outcome::Committed { value, retries }, gave_up);
            }
            Outcome::Exhausted { retries } => {
                retries_so_far += retries;
                let waited = first_gave_up.get_or_insert_with(Instant::now).elapsed();
                if waited >= RESUBMIT_DEADLINE {
                    let retries = retries_so_far;
                    return (Outcome::Exhausted { retries }, gave_up + 1);
                }
                let jitter = (seq as u32).wrapping_mul(0x9E37_79B9) ^ waited.subsec_nanos();
                std::thread::sleep(resubmit_pause(gave_up, jitter));
                gave_up += 1;
            }
            failed => return (failed, gave_up),
        }
    }
}

/// What one slice measured.
pub struct Slice {
    pub totals: Totals,
    /// Σ over clients of commits ÷ that client's own elapsed time (a
    /// long transaction may overrun the slice; its time is counted).
    pub tps: f64,
    /// Begin → commit ack per transaction, retries included, ns.
    pub latencies: Vec<u32>,
    pub spans: Vec<Span>,
}

struct ClientRun {
    totals: Totals,
    elapsed: Duration,
    latencies: Vec<u32>,
    cursor: usize,
    seq: u64,
    spans: Vec<Span>,
}

/// Runs both clients against `inst` for `length`, each continuing its
/// stream where the previous slice on this scheme stopped. `trace`
/// carries the span epoch and the scheme's index in the trace.
pub fn run_slice(
    inst: &mut Instance,
    inputs: &Inputs,
    length: Duration,
    trace: Option<(Instant, usize)>,
) -> Slice {
    let expect = inputs.scan_expect();
    let barrier = Barrier::new(CLIENTS);
    let shared = &*inst;
    let runs: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let barrier = &barrier;
                let stream = &inputs.streams[client];
                s.spawn(move || {
                    let mut run = ClientRun {
                        totals: Totals::default(),
                        elapsed: Duration::ZERO,
                        latencies: Vec::with_capacity((length.as_secs_f64() * 5e5) as usize),
                        cursor: shared.cursors[client],
                        seq: shared.seqs[client],
                        spans: Vec::new(),
                    };
                    let mut spans = trace.map(|(epoch, scheme)| Spans::new(epoch, scheme, client));
                    barrier.wait();
                    let start = Instant::now();
                    let mut now = start;
                    while now - start < length {
                        let spec = &stream[run.cursor];
                        run.cursor = (run.cursor + 1) % stream.len();
                        run.seq += 1;
                        let outcome = run_spec(
                            &shared.scheme,
                            &shared.oids,
                            shared.ledger.savings,
                            spec,
                            expect,
                            run.seq,
                            spans.as_mut(),
                        );
                        let end = Instant::now();
                        run.latencies
                            .push((end - now).as_nanos().min(u128::from(u32::MAX)) as u32);
                        run.totals.record(outcome);
                        now = end;
                    }
                    run.elapsed = now - start;
                    run.spans = spans.map(|s| s.spans).unwrap_or_default();
                    run
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut slice = Slice {
        totals: Totals::default(),
        tps: 0.0,
        latencies: Vec::new(),
        spans: Vec::new(),
    };
    for (client, run) in runs.into_iter().enumerate() {
        inst.cursors[client] = run.cursor;
        inst.seqs[client] = run.seq;
        slice.tps += run.totals.commits as f64 / run.elapsed.as_secs_f64();
        slice.totals.add(&run.totals);
        slice.latencies.extend(run.latencies);
        slice.spans.extend(run.spans);
    }
    inst.totals.add(&slice.totals);
    slice
}

/// One pass of client 0's stream from its start, single-threaded,
/// exactly `n` transactions (the cost ladder's rungs 2–4).
pub fn run_fixed(inst: &mut Instance, inputs: &Inputs, n: usize) -> Duration {
    let expect = inputs.scan_expect();
    let mut totals = Totals::default();
    let start = Instant::now();
    for (i, spec) in inputs.streams[0].iter().cycle().take(n).enumerate() {
        totals.record(run_spec(
            &inst.scheme,
            &inst.oids,
            inst.ledger.savings,
            spec,
            expect,
            i as u64,
            None,
        ));
    }
    let elapsed = start.elapsed();
    inst.totals.add(&totals);
    elapsed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resubmit_pause_doubles_to_its_cap_with_less_than_as_much_jitter() {
        assert_eq!(resubmit_pause(0, 0), RESUBMIT_PAUSE);
        assert_eq!(resubmit_pause(3, 0), RESUBMIT_PAUSE * 8);
        assert_eq!(resubmit_pause(40, 0), RESUBMIT_PAUSE_MAX);
        for jitter in [1, 99_999, 100_000, u32::MAX] {
            let p = resubmit_pause(0, jitter);
            assert!(p >= RESUBMIT_PAUSE && p < RESUBMIT_PAUSE * 2);
        }
    }
}

//! The traced run: the per-layer metrics of one workload.
//!
//! Four parts, each answering "which layer moved?" for a later change:
//! a single-client **cost ladder** (interpreter → + store → + each
//! scheme's control → + WAL append → + fsync, each rung's marginal ns
//! per transaction) with the **exact counts** the same passes produce;
//! a **two-client traced pass** (the program's histograms on, benchmark
//! spans around `run_txn`, the body and each `send*`) interleaved with
//! untraced slices so tracing cost is a ratio on the same workload;
//! **direct timings** of public functions; and **coverage** of the
//! program's own phase histograms. End-to-end numbers never come from
//! here.

use crate::api::{self, Counters, DataAccess, DurabilityLevel, Env, ExecError, Oid};
use crate::api::{SchemeKind, StoreAccess, Value, VecAccess};
use crate::driver::{run_fixed, run_slice, Instance};
use crate::ledger::{self, Kind, Ledger};
use crate::measure::{verdicts, Scratch, Setup, WARMUP};
use crate::oracle;
use crate::report::{Fingerprint, Measured, Report, LOCK_SCHEMES, MVCC_SCHEMES};
use crate::stats;
use crate::trace;
use crate::workload::{execute, Inputs, Target, Workload};
use std::path::Path;
use std::time::{Duration, Instant};

/// Rounds of the two-client pass.
const ROUNDS: usize = 3;
/// Transactions of the fsync rung: every writing one waits ≈ 1 ms for
/// the device, so the rung is kept short; it gates nothing here.
const SYNC_TXNS: usize = 1_000;
/// Share of the ladder length replayed with `send*` and `commit` timed.
const SPAN_SHARE: usize = 4;

struct Out(Vec<Measured>);

impl Out {
    fn put(&mut self, name: impl Into<String>, value: f64) {
        self.0.push(Measured {
            name: name.into(),
            value,
            iqr: None,
            n: None,
            samples: Vec::new(),
        });
    }
}

/// The interpreter driven directly, over either store.
struct InterpTarget<'a, D: DataAccess> {
    env: &'a Env,
    da: D,
    oids: &'a [Oid],
    savings: Vec<Oid>,
}

impl<D: DataAccess> Target for InterpTarget<'_, D> {
    fn send(&mut self, obj: u32, method: &'static str, args: &[Value]) -> Result<Value, ExecError> {
        api::interpreter(self.env).send(&mut self.da, self.oids[obj as usize], method, args)
    }

    fn scan(&mut self) -> Result<Vec<Value>, ExecError> {
        let interp = api::interpreter(self.env);
        self.savings
            .iter()
            .map(|&oid| interp.send(&mut self.da, oid, "balance_of", &[]))
            .collect()
    }
}

/// Rungs 0 and 1: ns per transaction of client 0's stream through the
/// bare interpreter, over a `Vec` and over the store with an undo log.
fn bare_rungs(w: &Workload, inputs: &Inputs) -> (f64, f64) {
    let env = api::env_from_source(ledger::SOURCE);
    let ledger = Ledger::of(&env);
    let oids = ledger.populate(&env, &inputs.population);
    let savings: Vec<Oid> = oids
        .iter()
        .zip(&inputs.population)
        .filter(|(_, s)| s.kind == Kind::Savings)
        .map(|(&oid, _)| oid)
        .collect();
    let expect = inputs.scan_expect();
    let stream = || inputs.streams[0].iter().cycle().take(w.ladder_txns);

    let mut vec_target = InterpTarget {
        env: &env,
        da: VecAccess::copy_of(&env),
        oids: &oids,
        savings: savings.clone(),
    };
    let start = Instant::now();
    for spec in stream() {
        execute(&mut vec_target, spec, expect).expect("bare interpreter run");
    }
    let interp_ns = start.elapsed().as_nanos() as f64 / w.ladder_txns as f64;

    let mut store_target = InterpTarget {
        env: &env,
        da: StoreAccess::over(&env),
        oids: &oids,
        savings,
    };
    let mut committed = crate::workload::Effect::default();
    let start = Instant::now();
    for spec in stream() {
        committed += execute(&mut store_target, spec, expect).expect("bare store run");
        store_target.da.commit();
    }
    let store_ns = start.elapsed().as_nanos() as f64 / w.ladder_txns as f64;
    oracle::check_ledger(
        &ledger,
        &env.schema,
        &inputs.population,
        &committed,
        &api::state(&env.db),
    )
    .expect("bare store run conserves the ledger");
    (interp_ns, store_ns)
}

/// What one scheme rung measured.
struct Rung {
    ns_per_txn: f64,
    before: Counters,
    after: Counters,
    inst: Instance,
}

impl Rung {
    fn per_txn(&self, counter: &str, txns: usize) -> f64 {
        (self.after.get(counter) - self.before.get(counter)) / txns as f64
    }
}

/// Rungs 2–4: a fresh instance of `kind` at `level`, `txns` of client
/// 0's stream through `run_txn`, the log drained inside the timing.
fn scheme_rung(
    kind: SchemeKind,
    inputs: &Inputs,
    level: Option<DurabilityLevel>,
    dir: &Path,
    txns: usize,
) -> Rung {
    let mut inst = Instance::build(kind, inputs, level.map(|level| (level, dir)), false);
    let before = inst.metrics.pull();
    let start = Instant::now();
    run_fixed(&mut inst, inputs, txns);
    inst.scheme.wal_sync();
    let ns_per_txn = start.elapsed().as_nanos() as f64 / txns as f64;
    let after = inst.metrics.pull();
    oracle::check_instance(&inst, &inputs.population)
        .unwrap_or_else(|e| panic!("ladder oracle [{}]: {e}", inst.name()));
    Rung {
        ns_per_txn,
        before,
        after,
        inst,
    }
}

/// Rung 2 split by timing the calls: mean ns per transaction inside
/// `send*` and inside `commit` (single client, so nothing retries).
fn timed_calls(inst: &mut Instance, inputs: &Inputs, txns: usize) -> (f64, f64) {
    struct Timed<'a> {
        inst: &'a Instance,
        txn: api::Txn,
        in_send: Duration,
    }
    impl Target for Timed<'_> {
        fn send(
            &mut self,
            obj: u32,
            method: &'static str,
            args: &[Value],
        ) -> Result<Value, ExecError> {
            let start = Instant::now();
            let r =
                self.inst
                    .scheme
                    .send(&mut self.txn, self.inst.oids[obj as usize], method, args);
            self.in_send += start.elapsed();
            r
        }
        fn scan(&mut self) -> Result<Vec<Value>, ExecError> {
            let start = Instant::now();
            let r =
                self.inst
                    .scheme
                    .send_all(&mut self.txn, self.inst.ledger.savings, "balance_of");
            self.in_send += start.elapsed();
            r
        }
    }
    let expect = inputs.scan_expect();
    let (mut in_send, mut in_commit) = (Duration::ZERO, Duration::ZERO);
    let mut committed = crate::workload::Effect::default();
    for spec in inputs.streams[0].iter().cycle().take(txns) {
        let mut target = Timed {
            inst,
            txn: inst.scheme.begin(),
            in_send: Duration::ZERO,
        };
        let fx = execute(&mut target, spec, expect).expect("single client never conflicts");
        in_send += target.in_send;
        let start = Instant::now();
        inst.scheme
            .commit(target.txn)
            .expect("single client commit");
        in_commit += start.elapsed();
        committed += fx;
    }
    inst.totals.attempted += txns as u64;
    inst.totals.commits += txns as u64;
    inst.totals.effect += committed;
    (
        in_send.as_nanos() as f64 / txns as f64,
        in_commit.as_nanos() as f64 / txns as f64,
    )
}

/// The scheme rungs; returns each scheme's single-client rung-2 rate,
/// the base of `scale_1to2`.
fn ladder(w: &Workload, inputs: &Inputs, out_dir: &Path, out: &mut Out) -> Vec<f64> {
    let scratch = Scratch::new(out_dir, "ladder");
    let n = w.ladder_txns;
    let (interp_ns, store_ns) = bare_rungs(w, inputs);
    out.put("lang.interp_ns", interp_ns);
    out.put("store.access_ns", store_ns - interp_ns);
    let mut control_tps = Vec::new();
    for kind in SchemeKind::ALL {
        let s = kind.name();
        let dir = |rung: &str| scratch.0.join(format!("{s}-{rung}"));

        let mut control = scheme_rung(kind, inputs, None, &dir("none"), n);
        let control_ns = control.ns_per_txn;
        out.put(format!("control_ns.{s}"), control_ns - store_ns);
        control_tps.push(1e9 / control_ns);
        if LOCK_SCHEMES.contains(&s) {
            out.put(
                format!("lock.requests_per_txn.{s}"),
                control.per_txn("finecc.lock.requests", n),
            );
        } else {
            out.put(
                format!("mvcc.versions_per_txn.{s}"),
                control.per_txn("finecc.mvcc.versions_created", n),
            );
        }
        let (send_ns, commit_ns) = timed_calls(&mut control.inst, inputs, n / SPAN_SHARE);
        out.put(format!("span.send_ns.{s}"), send_ns);
        out.put(format!("span.commit_ns.{s}"), commit_ns);
        drop(control);

        let wal = scheme_rung(kind, inputs, Some(DurabilityLevel::Wal), &dir("wal"), n);
        out.put(format!("wal.append_ns.{s}"), wal.ns_per_txn - control_ns);
        out.put(
            format!("wal.bytes_per_txn.{s}"),
            wal.per_txn("finecc.wal.log_bytes", n),
        );
        if kind == SchemeKind::Mvcc {
            // An online checkpoint of the whole population after a
            // ladder's worth of history.
            let start = Instant::now();
            assert!(wal.inst.scheme.checkpoint(), "mvcc checkpoints online");
            out.put("wal.checkpoint_ms", start.elapsed().as_secs_f64() * 1e3);
        }
        if kind == SchemeKind::Tav {
            // Recovery of a single-client log replays in order, so the
            // program's default window applies.
            let dir = wal.inst.wal_dir.as_deref().expect("durable rung");
            let start = Instant::now();
            let (_, replayed) =
                api::recover(dir, api::DEFAULT_REORDER_WINDOW).expect("ladder log recovers");
            let secs = start.elapsed().as_secs_f64();
            out.put("wal.recover_s", secs);
            out.put("wal.replay_records_per_s", replayed as f64 / secs);
        }
        drop(wal);

        // The append rung over the same short prefix is the base of the
        // fsync rung, so the two differ in the fsync wait alone.
        let short = |level, tag: &str| scheme_rung(kind, inputs, Some(level), &dir(tag), SYNC_TXNS);
        let base = short(DurabilityLevel::Wal, "wal-short").ns_per_txn;
        let sync = short(DurabilityLevel::WalSync, "wal-sync");
        out.put(format!("wal.sync_ns.{s}"), sync.ns_per_txn - base);
        out.put(
            format!("wal.fsyncs_per_txn.{s}"),
            sync.per_txn("finecc.wal.log_fsyncs", SYNC_TXNS),
        );
    }
    control_tps
}

/// The two-client passes: untraced reference slices, traced slices
/// (histograms + spans) and, for tav, histogram-only slices, rotated.
fn two_clients(
    w: &'static Workload,
    seed: u64,
    slice: Duration,
    out_dir: &Path,
    trace_path: &Path,
    control_tps: &[f64],
    out: &mut Out,
) -> (crate::json::Json, u64, u64, bool) {
    let mut plain = Setup::run(w, seed, out_dir, "plain", false);
    let mut traced = Setup::run(w, seed, out_dir, "traced", true);
    let inputs = &plain.inputs;
    for inst in plain.instances.iter_mut().chain(&mut traced.instances) {
        run_slice(inst, inputs, WARMUP.min(slice), None);
    }
    let n = plain.instances.len();
    let before: Vec<Counters> = traced.instances.iter().map(|i| i.metrics.pull()).collect();
    let epoch = Instant::now();
    let mut plain_tps = vec![Vec::new(); n];
    let mut traced_tps = vec![Vec::new(); n];
    let mut obs_only_tps = Vec::new();
    let mut latencies: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut totals = vec![crate::driver::Totals::default(); n];
    let mut spans = Vec::new();
    for round in 0..ROUNDS {
        for k in 0..n {
            let i = (round + k) % n;
            plain_tps[i].push(run_slice(&mut plain.instances[i], inputs, slice, None).tps);
            let s = run_slice(&mut traced.instances[i], inputs, slice, Some((epoch, i)));
            traced_tps[i].push(s.tps);
            latencies[i].extend(s.latencies);
            totals[i].add(&s.totals);
            spans.extend(s.spans);
            if traced.instances[i].kind == SchemeKind::Tav {
                // Histograms on, benchmark spans off: what the
                // program's own instrumentation costs.
                let s = run_slice(&mut traced.instances[i], inputs, slice, None);
                obs_only_tps.push(s.tps);
                totals[i].add(&s.totals);
            }
        }
    }
    let names: Vec<&str> = traced.instances.iter().map(Instance::name).collect();
    trace::write_chrome(trace_path, &names, &spans).expect("trace file is writable");

    for (i, inst) in traced.instances.iter().enumerate() {
        let s = inst.name();
        let after = inst.metrics.pull();
        let ktxn = totals[i].commits as f64 / 1e3;
        let per_ktxn = |counter: &str| (after.get(counter) - before[i].get(counter)) / ktxn;
        out.put(
            format!("runtime.p99_us.{s}"),
            stats::percentile_ns(&mut latencies[i], 0.99) / 1e3,
        );
        out.put(
            format!("runtime.retries_per_ktxn.{s}"),
            totals[i].retries as f64 / ktxn,
        );
        if LOCK_SCHEMES.contains(&s) {
            out.put(
                format!("lock.blocks_per_ktxn.{s}"),
                per_ktxn("finecc.lock.blocks"),
            );
            out.put(
                format!("lock.deadlocks_per_ktxn.{s}"),
                per_ktxn("finecc.lock.deadlocks"),
            );
        }
        if MVCC_SCHEMES.contains(&s) {
            out.put(
                format!("mvcc.ww_conflicts_per_ktxn.{s}"),
                per_ktxn("finecc.mvcc.write_conflicts"),
            );
            out.put(
                format!("mvcc.chain_len_mean.{s}"),
                after.get("finecc.mvcc.chain_len_mean"),
            );
        }
        if inst.kind == SchemeKind::MvccSsi {
            out.put(
                format!("mvcc.ssi_aborts_per_ktxn.{s}"),
                per_ktxn("finecc.mvcc.ssi_aborts"),
            );
        }
        // 0 where the workload has no log.
        out.put(
            format!("wal.group_commit_mean.{s}"),
            after.get("finecc.wal.group_commit.mean"),
        );
        out.put(
            format!("scale_1to2.{s}"),
            stats::median(&plain_tps[i]) / control_tps[i],
        );
        // Σ of the program's top-level phases ÷ its own end-to-end
        // latency: the sub-phases of commit are inside `commit`, the
        // group-commit ack inside `commit_wal_ack`.
        let total = |phase: &str| {
            after.get(&format!("finecc.obs.phase.count{{{phase}}}"))
                * after.get(&format!("finecc.obs.phase.mean_ns{{{phase}}}"))
        };
        out.put(
            format!("obs.phase_coverage.{s}"),
            (total("commit") + total("lock_wait")) / total("txn"),
        );
        if inst.kind == SchemeKind::Tav {
            let untraced = stats::median(&plain_tps[i]);
            out.put(
                "trace.overhead_ratio",
                stats::median(&traced_tps[i]) / untraced,
            );
            out.put(
                "obs.overhead_ratio",
                stats::median(&obs_only_tps) / untraced,
            );
        }
    }

    let labelled = plain
        .instances
        .iter()
        .map(|i| (i.name().to_string(), i))
        .chain(
            traced
                .instances
                .iter()
                .map(|i| (format!("{}+traced", i.name()), i)),
        );
    verdicts(labelled, inputs)
}

fn per_call_ns(iters: usize, mut call: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for i in 0..iters {
        call(i);
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Direct timings of public functions, on the workload's population.
fn direct(inputs: &Inputs, out_dir: &Path, out: &mut Out) {
    let parse: Vec<f64> = (0..20)
        .map(|_| {
            per_call_ns(1, |_| {
                drop(std::hint::black_box(api::parse(ledger::SOURCE)))
            }) / 1e6
        })
        .collect();
    out.put("lang.parse_ms", stats::median(&parse));
    let (schema, bodies) = api::parse(ledger::SOURCE);
    let compile: Vec<f64> = (0..20)
        .map(|_| {
            per_call_ns(1, |_| {
                drop(std::hint::black_box(api::compile(&schema, &bodies)))
            }) / 1e6
        })
        .collect();
    out.put("core.compile_ms", stats::median(&compile));

    let env = api::env_from_source(ledger::SOURCE);
    let ledger = Ledger::of(&env);
    let oids = ledger.populate(&env, &inputs.population);
    let pick = |i: usize| oids[i.wrapping_mul(0x9E37_79B9) % oids.len()];

    let start = Instant::now();
    let (lookups, commuting) = api::commute_sweep(&env, ledger.savings, 20_000);
    assert!(commuting > 0, "deposit and set_rate commute");
    out.put(
        "core.commute_lookup_ns",
        start.elapsed().as_nanos() as f64 / lookups as f64,
    );

    let savings = oids
        .iter()
        .zip(&inputs.population)
        .find(|(_, s)| s.kind == Kind::Savings)
        .map(|(&oid, _)| oid)
        .expect("every population has a savings object");
    let locks = api::LockBench::new(&env, ledger.savings, "deposit");
    out.put(
        "lock.acquire_release_ns",
        per_call_ns(200_000, |_| locks.acquire_release(savings)),
    );

    out.put(
        "store.read_ns",
        per_call_ns(1_000_000, |i| {
            std::hint::black_box(api::store_read(&env.db, pick(i), ledger.balance));
        }),
    );
    out.put(
        "store.write_ns",
        per_call_ns(1_000_000, |i| {
            api::store_write(&env.db, pick(i), ledger.limit, Value::Int(i as i64));
        }),
    );

    let mut heap = api::HeapBench::new(&env);
    out.put(
        "mvcc.write_commit_ns",
        per_call_ns(100_000, |i| {
            let txn = heap.begin();
            heap.write(txn, pick(i), ledger.limit, Value::Int(i as i64));
            heap.commit(txn);
        }),
    );
    // A reader older than a committed overwrite reconstructs its value
    // from the version chain.
    let reader = heap.begin();
    let writer = heap.begin();
    heap.write(writer, savings, ledger.limit, Value::Int(-1));
    heap.commit(writer);
    out.put(
        "mvcc.read_ns",
        per_call_ns(1_000_000, |_| {
            std::hint::black_box(heap.read(reader, savings, ledger.limit));
        }),
    );
    assert_ne!(
        heap.read(reader, savings, ledger.limit).as_int(),
        Some(-1),
        "the read is served from the chain, not the overwritten base"
    );
    heap.commit(reader);

    let scratch = Scratch::new(out_dir, "direct");
    let wal = api::WalBench::open(&scratch.0);
    out.put(
        "wal.append_commit_ns",
        per_call_ns(100_000, |i| {
            wal.append_commit(i as u64 + 1, pick(i), ledger.limit, Value::Int(i as i64));
        }),
    );
    wal.sync();
}

pub fn run(w: &'static Workload, seed: u64, seconds: u64, out_dir: &Path, stamp: &str) -> Report {
    std::fs::create_dir_all(out_dir).expect("output directory is creatable");
    let inputs = w.generate(seed);
    let mut out = Out(Vec::new());
    let control_tps = ladder(w, &inputs, out_dir, &mut out);
    direct(&inputs, out_dir, &mut out);
    // The two-client pass gets a third of the run's seconds.
    let slots = ROUNDS * (2 * SchemeKind::ALL.len() + 1);
    let slice = (Duration::from_secs(seconds) / 3 / slots as u32).min(crate::measure::SLICE);
    let trace_path = out_dir.join(format!("{stamp}.trace.json"));
    let (schemes, attempted, failed, correct) =
        two_clients(w, seed, slice, out_dir, &trace_path, &control_tps, &mut out);
    println!("# chrome trace: {}", trace_path.display());
    // Declared order, so that a layer's metrics print together.
    let order = crate::report::per_layer();
    out.0
        .sort_by_key(|m| order.iter().position(|d| d.name == m.name));
    Report {
        fingerprint: Fingerprint {
            workload: w.name,
            seed,
            trace: true,
            seconds,
            rounds: ROUNDS,
            slice_ms: slice.as_millis() as u64,
        },
        correct,
        attempted,
        failed,
        metrics: out.0,
        schemes,
    }
}

//! Multi-threaded commit- and reader-storm stress tests for the MVCC
//! heap's shard-latched chains: N writer threads over overlapping OIDs,
//! with concurrent observers asserting the publication invariants the
//! ordered watermark guarantees —
//!
//! * **watermark monotonicity**: `current_ts` never moves backwards;
//! * **no lost or torn writes**: every transaction writes the same
//!   round number to its field on *two* shared objects, so any snapshot
//!   must see the two values equal (commit atomicity) and the final
//!   base state must hold every thread's last round (durability of the
//!   full prefix);
//! * **contiguous commit prefix**: when the storm drains, the watermark
//!   equals drawn-timestamps = writer commits + validation skips — no
//!   hole is ever left unpublished;
//! * **reader-storm linearization** (`reader_storm_*`): N reader
//!   threads sample snapshots of the hot objects *during* the commit
//!   storm, at both isolation levels; afterwards every sample is
//!   checked against a fold over the committed history in timestamp
//!   order — a read of thread *t*'s field at snapshot `ts` must return
//!   the round of *t*'s last commit with timestamp ≤ `ts`.
//!   The heap's read-side counters must also show every sampled read
//!   as a chain hit (no base-store `RwLock`);
//! * **cold-miss isolation** (`reader_storm_cold_miss_*`): the
//!   complementary storm keeps chains cold (writers alternate
//!   commit/abort, no warmup, no GC pin) so readers hammer the
//!   chain-miss base fallback while records appear and disappear — a
//!   rolled-back value leaking through the miss path would surface as
//!   a negative read.
//!
//! Thread count comes from `FINECC_TEST_THREADS` (default 8; CI runs
//! 16): the storm runs wider in CI than a laptop can take.

use finecc::model::{FieldId, FieldType, Oid, SchemaBuilder, TxnId, Value};
use finecc::mvcc::{IsolationLevel, MvccHeap, MvccWriteError, Ts};
use finecc::obs::SlotIds;
use finecc::store::Database;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn storm_threads() -> usize {
    std::env::var("FINECC_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(8)
}

struct Storm {
    heap: Arc<MvccHeap>,
    /// `fields[t]` is thread `t`'s private field — threads overlap on
    /// objects but never on (object, field), so the snapshot-level storm
    /// is conflict-free by field granularity.
    fields: Vec<FieldId>,
    /// Shared objects; thread `t` writes objects `t % K` and `(t+1) % K`.
    oids: Vec<Oid>,
    ids: SlotIds,
}

fn setup(threads: usize, isolation: IsolationLevel) -> Storm {
    let mut b = SchemaBuilder::new();
    {
        let c = b.class("storm");
        for t in 0..threads {
            c.field(&format!("f{t}"), FieldType::Int);
        }
    }
    let schema = Arc::new(b.finish().unwrap());
    let class = schema.class_by_name("storm").unwrap();
    let fields: Vec<FieldId> = (0..threads)
        .map(|t| schema.resolve_field(class, &format!("f{t}")).unwrap())
        .collect();
    let db = Arc::new(Database::new(Arc::clone(&schema)));
    let objects = (threads / 2).max(2);
    let oids: Vec<Oid> = (0..objects).map(|_| db.create(class)).collect();
    Storm {
        heap: Arc::new(MvccHeap::with_isolation(db, isolation)),
        fields,
        oids,
        ids: SlotIds::new(),
    }
}

impl Storm {
    fn pair_of(&self, thread: usize) -> (Oid, Oid) {
        (
            self.oids[thread % self.oids.len()],
            self.oids[(thread + 1) % self.oids.len()],
        )
    }

    /// Runs one round of thread `t`: write `round` into the thread's
    /// field on both of its objects (optionally reading the ring
    /// neighbor's field first, to manufacture rw-antidependencies under
    /// SSI), retrying validation/conflict aborts on a fresh snapshot.
    /// Returns the commit timestamp and the number of commit-time
    /// validation aborts hit.
    fn run_round(&self, t: usize, round: i64, read_neighbor: bool) -> (Ts, u64) {
        let (a, b) = self.pair_of(t);
        let field = self.fields[t];
        // The ring neighbor's own (object, field) pair: reading what the
        // neighbor concurrently writes manufactures a real
        // rw-antidependency under SSI (and stays on warmed chains, so
        // the reader-storm's zero-miss accounting holds).
        let neighbor_t = (t + 1) % self.fields.len();
        let neighbor_obj = self.pair_of(neighbor_t).0;
        let neighbor_field = self.fields[neighbor_t];
        let mut validation_aborts = 0;
        for _attempt in 0..10_000 {
            let txn = TxnId(self.ids.next());
            self.heap.begin(txn);
            if read_neighbor {
                self.heap.read(txn, neighbor_obj, neighbor_field).unwrap();
            }
            let writes = self
                .heap
                .write(txn, a, field, Value::Int(round))
                .and_then(|_| self.heap.write(txn, b, field, Value::Int(round)));
            match writes {
                Ok(_) => match self.heap.commit(txn) {
                    Ok(ts) => return (ts, validation_aborts),
                    Err(_) => validation_aborts += 1, // rolled back; retry
                },
                Err(MvccWriteError::Conflict(_)) => {
                    self.heap.abort(txn);
                }
                Err(e) => panic!("storm write failed: {e}"),
            }
        }
        panic!("thread {t} round {round}: retry budget exhausted");
    }

    /// Asserts the no-torn-write invariant on a fresh snapshot: for
    /// every thread, the two objects it writes atomically hold the same
    /// round value, and a second read returns the same answer
    /// (stability). Returns the snapshot timestamp.
    fn check_snapshot(&self) -> u64 {
        let snap = self.heap.snapshot();
        for (t, &field) in self.fields.iter().enumerate() {
            let (a, b) = self.pair_of(t);
            let va = snap.read(a, field).unwrap();
            let vb = snap.read(b, field).unwrap();
            assert_eq!(
                va,
                vb,
                "torn commit visible: thread {t} objects disagree at ts {}",
                snap.ts()
            );
            assert_eq!(snap.read(a, field).unwrap(), va, "snapshot unstable");
        }
        snap.ts()
    }
}

fn run_storm(isolation: IsolationLevel, rounds: i64, read_neighbor: bool) {
    let threads = storm_threads();
    let storm = Arc::new(setup(threads, isolation));
    let stop = Arc::new(AtomicBool::new(false));
    let total_validation_aborts = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        // Watermark observer: current_ts must be monotone.
        {
            let storm = Arc::clone(&storm);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut last = 0;
                while !stop.load(Ordering::Relaxed) {
                    let now = storm.heap.current_ts();
                    assert!(now >= last, "watermark moved backwards: {last} -> {now}");
                    last = now;
                    std::thread::yield_now();
                }
            });
        }
        // Snapshot observer: reads must never see a torn commit and
        // snapshot timestamps must be monotone too (they come straight
        // off the watermark).
        {
            let storm = Arc::clone(&storm);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut last = 0;
                while !stop.load(Ordering::Relaxed) {
                    let ts = storm.check_snapshot();
                    assert!(ts >= last, "snapshot ts moved backwards");
                    last = ts;
                }
            });
        }
        // The writer storm itself.
        let mut writers = Vec::new();
        for t in 0..threads {
            let storm = Arc::clone(&storm);
            let aborts = Arc::clone(&total_validation_aborts);
            writers.push(s.spawn(move || {
                let mut local = 0;
                for round in 0..rounds {
                    local += storm.run_round(t, round, read_neighbor).1;
                }
                aborts.fetch_add(local, Ordering::Relaxed);
            }));
        }
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });

    // No lost writes: the final base state holds every thread's last
    // round on both of its objects.
    for (t, &field) in storm.fields.iter().enumerate() {
        let (a, b) = storm.pair_of(t);
        assert_eq!(
            storm.heap.base().read(a, field),
            Ok(Value::Int(rounds - 1)),
            "thread {t} lost its last round on object a"
        );
        assert_eq!(
            storm.heap.base().read(b, field),
            Ok(Value::Int(rounds - 1)),
            "thread {t} lost its last round on object b"
        );
    }

    // Contiguous prefix, fully drained: every drawn timestamp was
    // published — writer commits each drew one, and every SSI
    // validation abort after the draw published a skip.
    let m = storm.heap.stats.snapshot();
    let expected_commits = threads as u64 * rounds as u64;
    assert_eq!(
        m.commits, expected_commits,
        "one commit per (thread, round)"
    );
    assert_eq!(
        storm.heap.current_ts(),
        m.commits + m.ts_skips,
        "watermark must drain to the drawn-timestamp clock with no holes"
    );
    assert_eq!(
        m.ts_skips,
        total_validation_aborts.load(Ordering::Relaxed),
        "every commit-time validation abort publishes exactly one skip"
    );
    if isolation == IsolationLevel::Snapshot {
        assert_eq!(m.ssi_aborts, 0);
        assert_eq!(m.ts_skips, 0);
    }

    // A final snapshot at the drained watermark sees the whole prefix.
    assert!(storm.check_snapshot() >= expected_commits);
}

#[test]
fn commit_storm_snapshot_isolation() {
    // Field-disjoint writers over overlapping objects: zero conflicts,
    // maximal commit-path concurrency.
    run_storm(IsolationLevel::Snapshot, 100, false);
}

#[test]
fn commit_storm_serializable_with_validation_skips() {
    // Each writer also reads its ring neighbor's field, manufacturing
    // rw-antidependency chains: some commits are refused by validation
    // *after* drawing their timestamp, so the watermark must skip-fill
    // the holes — the storm asserts the prefix still drains tight.
    run_storm(IsolationLevel::Serializable, 40, true);
}

/// One committed write of the storm: thread `t` committed `round` onto
/// both of its objects at timestamp `ts`.
#[derive(Clone, Copy)]
struct Committed {
    ts: Ts,
    thread: usize,
    round: i64,
}

/// One snapshot observation: at snapshot `ts`, thread `thread`'s field
/// held `value` on **both** of its objects (equality is asserted at
/// sample time — commit atomicity).
#[derive(Clone, Copy)]
struct Sample {
    ts: Ts,
    thread: usize,
    value: i64,
}

/// The reader-storm: N reader threads sample snapshots of hot objects
/// *while* the commit storm runs; the committed history is logged, then
/// folded in commit-timestamp order, and every sampled read must equal
/// the round its thread last committed at or below the sample's
/// snapshot. Chains are pre-warmed and GC is pinned at 0, so every
/// sampled read is provably a chain hit: `read_base_loads` must come
/// out **zero** — the acceptance check that the hit path answered from
/// the chain alone and took no base `RwLock`.
fn run_reader_storm(isolation: IsolationLevel, rounds: i64) {
    let threads = storm_threads();
    let storm = Arc::new(setup(threads, isolation));
    // Pin the GC horizon at 0 for the whole storm: warmed chains never
    // shrink, so no sampled read can miss into the base store.
    let gc_pin = storm.heap.snapshot();
    assert_eq!(gc_pin.ts(), 0);
    let log = Arc::new(Mutex::new(Vec::<Committed>::new()));
    // Warm every (object, field) the readers will sample with one
    // committed version (round -1), logged like any other commit.
    for t in 0..threads {
        let (ts, _) = storm.run_round(t, -1, false);
        log.lock().push(Committed {
            ts,
            thread: t,
            round: -1,
        });
    }
    let stats_before = storm.heap.stats.snapshot();

    let writers_live = Arc::new(AtomicU64::new(threads as u64));
    // Readers that have taken their first sample. The writers run at
    // least `rounds` rounds and then on until every reader has one (or
    // the deadline passes), so what the storm observes does not depend
    // on which threads the OS happened to start first.
    let readers_sampling = Arc::new(AtomicU64::new(0));
    let deadline = Instant::now() + Duration::from_secs(10);
    let samples: Vec<Sample> = std::thread::scope(|s| {
        // Writers: the same overlapping-object commit storm, logging
        // every successful commit.
        for t in 0..threads {
            let storm = Arc::clone(&storm);
            let log = Arc::clone(&log);
            let writers_live = Arc::clone(&writers_live);
            let readers_sampling = Arc::clone(&readers_sampling);
            s.spawn(move || {
                for round in 0.. {
                    let observed = readers_sampling.load(Ordering::Relaxed) == threads as u64;
                    if round >= rounds && (observed || Instant::now() >= deadline) {
                        break;
                    }
                    let (ts, _) =
                        storm.run_round(t, round, isolation == IsolationLevel::Serializable);
                    log.lock().push(Committed {
                        ts,
                        thread: t,
                        round,
                    });
                }
                writers_live.fetch_sub(1, Ordering::Relaxed);
            });
        }
        // Readers: sample hot pairs through fresh snapshots for as long
        // as writers are live, asserting per-sample atomicity (the two
        // objects one commit writes must agree) and collecting the
        // observations for the replay below.
        let mut readers = Vec::new();
        for r in 0..threads {
            let storm = Arc::clone(&storm);
            let writers_live = Arc::clone(&writers_live);
            let readers_sampling = Arc::clone(&readers_sampling);
            readers.push(s.spawn(move || {
                let mut out = Vec::new();
                let mut t = r; // spread readers over the hot pairs
                while writers_live.load(Ordering::Relaxed) > 0 {
                    let snap = storm.heap.snapshot();
                    let (a, b) = storm.pair_of(t % storm.fields.len());
                    let field = storm.fields[t % storm.fields.len()];
                    let va = snap.read(a, field).unwrap();
                    let vb = snap.read(b, field).unwrap();
                    assert_eq!(va, vb, "torn commit visible at snapshot {}", snap.ts());
                    let Value::Int(value) = va else {
                        panic!("unexpected value type")
                    };
                    out.push(Sample {
                        ts: snap.ts(),
                        thread: t % storm.fields.len(),
                        value,
                    });
                    if out.len() == 1 {
                        readers_sampling.fetch_add(1, Ordering::Relaxed);
                    }
                    t = t.wrapping_add(1);
                }
                out
            }));
        }
        readers
            .into_iter()
            .flat_map(|r| r.join().unwrap())
            .collect()
    });

    // The chain-hit acceptance check: every sampled read was answered
    // from its chain (no base-store RwLock on the read path).
    // `snapshot_reads` counts exactly the sampled reads, so the
    // counters are not trivially equal.
    let m = storm.heap.stats.snapshot().since(&stats_before);
    assert!(m.snapshot_reads >= 2 * samples.len() as u64);
    assert_eq!(
        m.read_chain_hits, m.snapshot_reads,
        "every storm read must be a chain hit"
    );
    assert_eq!(
        m.read_base_loads, 0,
        "a warmed-chain read fell through to the base store's RwLock"
    );
    assert_eq!(
        m.watermark_waits, 0,
        "the ring never overflows at storm thread counts"
    );

    // Fold the committed history and check every observation against
    // it: for each sample (in snapshot order), apply all commits at or
    // below its timestamp to `last_round[thread]`, then compare.
    let mut history = Arc::try_unwrap(log)
        .ok()
        .expect("all writers joined")
        .into_inner();
    history.sort_unstable_by_key(|c| c.ts);
    let mut samples = samples;
    samples.sort_unstable_by_key(|s| s.ts);
    // A freshly created object's fields read 0 until the warm-up commits.
    let mut last_round = vec![0i64; threads];
    let mut applied = 0usize;
    for sample in &samples {
        while applied < history.len() && history[applied].ts <= sample.ts {
            let c = history[applied];
            last_round[c.thread] = c.round;
            applied += 1;
        }
        assert_eq!(
            sample.value, last_round[sample.thread],
            "read at snapshot {} diverged from the committed history",
            sample.ts
        );
    }
    assert!(!samples.is_empty(), "the reader storm observed something");
}

#[test]
fn reader_storm_snapshot_isolation() {
    run_reader_storm(IsolationLevel::Snapshot, 60);
}

#[test]
fn reader_storm_serializable() {
    // Writers also read their ring neighbor, manufacturing
    // rw-antidependencies and validation skips: sampled snapshots must
    // still replay exactly (skipped timestamps committed nothing).
    run_reader_storm(IsolationLevel::Serializable, 30);
}

/// The cold-miss storm: the one read path the warmed storms above never
/// touch is the chain-*miss* fallback into the base store, and its
/// dangerous race is a reader's base read landing inside a concurrent
/// writer's install→abort window (the write-through sits in the base
/// store for as long as the pending record does). Writers here
/// deliberately keep their chains cold — every transaction either
/// aborts (odd values) or commits and is immediately GC-eligible — so
/// readers constantly fall through to the base store while records
/// appear and disappear around them. A reader observing an odd value is
/// a dirty read of a rolled-back transaction; `read_as` holding the
/// shard latch across the miss's base read — the latch every install
/// and rollback holds exclusively — must make that impossible.
#[test]
fn reader_storm_cold_miss_never_sees_aborted_writes() {
    let threads = storm_threads();
    let storm = Arc::new(setup(threads, IsolationLevel::Snapshot));
    let writers_live = Arc::new(AtomicU64::new(threads as u64));
    let rounds: i64 = 200;
    // The `run_reader_storm` handshake: the writers run at least
    // `rounds` rounds and then on until every reader has sampled (or the
    // deadline passes) — a heap fast enough to finish 200 rounds before
    // the OS has started a single reader must not turn this into a test
    // of an idle store.
    let readers_sampling = Arc::new(AtomicU64::new(0));
    let deadline = Instant::now() + Duration::from_secs(10);
    let even_rounds: u64 = std::thread::scope(|s| {
        // Writers: alternate commit (even round) / abort (odd round) on
        // the thread's own (object, field); no warmup, no GC pin — the
        // chain for the field vanishes on every abort (sole record) and
        // is reclaimed soon after every commit.
        let mut writers = Vec::new();
        for t in 0..threads {
            let storm = Arc::clone(&storm);
            let writers_live = Arc::clone(&writers_live);
            let readers_sampling = Arc::clone(&readers_sampling);
            writers.push(s.spawn(move || {
                let (a, b) = storm.pair_of(t);
                let field = storm.fields[t];
                let mut round = 0;
                loop {
                    let observed = readers_sampling.load(Ordering::Relaxed) == threads as u64;
                    if round >= rounds && (observed || Instant::now() >= deadline) {
                        break;
                    }
                    let txn = TxnId(storm.ids.next());
                    storm.heap.begin(txn);
                    let even = round % 2 == 0;
                    let value = Value::Int(if even { round } else { -round });
                    let writes = storm
                        .heap
                        .write(txn, a, field, value.clone())
                        .and_then(|_| storm.heap.write(txn, b, field, value));
                    match writes {
                        Ok(_) if even => {
                            storm.heap.commit(txn).unwrap();
                        }
                        Ok(_) => {
                            storm.heap.abort(txn);
                        }
                        Err(MvccWriteError::Conflict(_)) => {
                            storm.heap.abort(txn);
                        }
                        Err(e) => panic!("cold-miss storm write failed: {e}"),
                    }
                    round += 1;
                }
                writers_live.fetch_sub(1, Ordering::Relaxed);
                (round as u64).div_ceil(2)
            }));
        }
        // Readers: snapshot reads of the churning fields. Any negative
        // value is a rolled-back write leaking through the chain-miss
        // base fallback.
        for r in 0..threads {
            let storm = Arc::clone(&storm);
            let writers_live = Arc::clone(&writers_live);
            let readers_sampling = Arc::clone(&readers_sampling);
            s.spawn(move || {
                let mut t = r;
                while writers_live.load(Ordering::Relaxed) > 0 {
                    let snap = storm.heap.snapshot();
                    let (a, b) = storm.pair_of(t % storm.fields.len());
                    let field = storm.fields[t % storm.fields.len()];
                    for oid in [a, b] {
                        match snap.read(oid, field) {
                            Ok(Value::Int(v)) => assert!(
                                v >= 0,
                                "dirty read: aborted value {v} visible at snapshot {}",
                                snap.ts()
                            ),
                            Ok(v) => panic!("unexpected value {v:?}"),
                            Err(e) => panic!("cold-miss read failed: {e}"),
                        }
                    }
                    if t == r {
                        readers_sampling.fetch_add(1, Ordering::Relaxed);
                    }
                    t = t.wrapping_add(1);
                }
            });
        }
        writers.into_iter().map(|w| w.join().unwrap()).sum()
    });
    // The storm must actually have exercised the miss path — otherwise
    // this test silently degenerates into another warmed storm.
    let m = storm.heap.stats.snapshot();
    assert!(m.read_base_loads > 0, "the cold storm never missed a chain");
    assert_eq!(
        m.commits, even_rounds,
        "every even round committed exactly once"
    );
}

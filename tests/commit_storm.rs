//! Multi-threaded commit- and reader-storm stress tests for the MVCC
//! heap's shard-latched chains: N writer threads over overlapping OIDs,
//! with concurrent observers, every writer attempt and snapshot sample
//! recorded and judged afterwards by the history check
//! (`finecc::sim::history`) —
//!
//! * **the history check**: every transaction writes one value, unique
//!   per attempt, to its field on *two* shared objects; reader samples
//!   read those pairs during the storm, and a final snapshot and the
//!   base store read every pair after it. Every read must equal the
//!   committed state at its snapshot (no torn, unstable or lost write),
//!   and the dependency graph may hold only what the isolation level
//!   admits;
//! * **watermark monotonicity**: `current_ts` never moves backwards;
//! * **contiguous commit prefix**: when the storm drains, the watermark
//!   equals drawn-timestamps = writer commits + validation skips — no
//!   hole is ever left unpublished;
//! * **reader storms** (`reader_storm_*`): N reader threads sample
//!   snapshots of the hot objects *during* the commit storm, at both
//!   isolation levels, and the heap's read-side counters must show
//!   every sampled read as a chain hit (no base-store `RwLock`);
//! * **cold-miss isolation** (`reader_storm_cold_miss_*`): the
//!   complementary storm keeps chains cold (writers alternate
//!   commit/abort, no warmup, no GC pin) so readers hammer the
//!   chain-miss base fallback while records appear and disappear — a
//!   rolled-back value leaking through the miss path is a G1a.
//!
//! Thread count comes from `FINECC_TEST_THREADS` (default 8; CI runs
//! 16): the storm runs wider in CI than a laptop can take.

use finecc::model::{FieldId, FieldType, Oid, SchemaBuilder, TxnId, Value};
use finecc::mvcc::{IsolationLevel, MvccHeap, MvccWriteError};
use finecc::obs::SlotIds;
use finecc::sim::history::{History, Op, Record};
use finecc::store::Database;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

    /// One recorded attempt of thread `t`: write `v` into the thread's
    /// field on both of its objects (optionally reading the ring
    /// neighbor's field first, to manufacture rw-antidependencies under
    /// SSI), then commit — or abort, unless `commit`. Returns the record
    /// and whether a commit-time validation refused it.
    fn attempt(
        &self,
        t: usize,
        op: u32,
        v: i64,
        read_neighbor: bool,
        commit: bool,
    ) -> (Record, bool) {
        let (a, b) = self.pair_of(t);
        let field = self.fields[t];
        // The ring neighbor's own (object, field) pair: reading what the
        // neighbor concurrently writes manufactures a real
        // rw-antidependency under SSI (and stays on warmed chains, so
        // the reader-storm's zero-miss accounting holds).
        let next = (t + 1) % self.fields.len();
        let neighbor = (self.pair_of(next).0, self.fields[next]);
        let txn = TxnId(self.ids.next());
        let mut record = Record {
            session: t as u32,
            op,
            read_point: self.heap.begin(txn).ts(),
            ..Record::default()
        };
        if read_neighbor {
            let got = self.heap.read(txn, neighbor.0, neighbor.1).unwrap();
            record.ops.push(Op::Read(neighbor, got.as_int().unwrap()));
        }
        record
            .ops
            .extend([Op::Write((a, field), v), Op::Write((b, field), v)]);
        let writes = self
            .heap
            .write(txn, a, field, Value::Int(v))
            .and_then(|_| self.heap.write(txn, b, field, Value::Int(v)));
        let mut refused = false;
        match writes {
            Ok(_) if commit => match self.heap.commit(txn) {
                Ok(ts) => record.commit = Some(ts),
                Err(_) => refused = true, // rolled back
            },
            Ok(_) | Err(MvccWriteError::Conflict(_)) => {
                self.heap.abort(txn);
            }
            Err(e) => panic!("storm write failed: {e}"),
        }
        (record, refused)
    }

    /// Runs round `round` of thread `t` to its commit, retrying
    /// validation/conflict aborts on a fresh snapshot, each attempt with
    /// a fresh value and recorded into `out`. Returns the number of
    /// commit-time validation aborts hit.
    fn run_round(&self, t: usize, round: i64, read_neighbor: bool, out: &mut Vec<Record>) -> u64 {
        let mut validation_aborts = 0;
        for attempt in 0..10_000 {
            // Unique per attempt, never the initial 0; the warm-up
            // round -1 is op 0.
            let v = round * 100_000 + attempt + 1;
            let (record, refused) = self.attempt(t, (round + 1) as u32, v, read_neighbor, true);
            let committed = record.commit.is_some();
            out.push(record);
            if committed {
                return validation_aborts;
            }
            validation_aborts += u64::from(refused);
        }
        panic!("thread {t} round {round}: retry budget exhausted");
    }

    /// One fresh snapshot's read of the given threads' pairs, `a` twice.
    fn sample(&self, session: u32, op: u32, threads: impl IntoIterator<Item = usize>) -> Record {
        let snap = self.heap.snapshot();
        let read = |oid, f| Op::Read((oid, f), snap.read(oid, f).unwrap().as_int().unwrap());
        let ops = threads.into_iter().flat_map(|t| {
            let (a, b) = self.pair_of(t);
            [a, b, a].map(|oid| read(oid, self.fields[t]))
        });
        Record {
            session,
            op,
            read_point: snap.ts(),
            commit: Some(snap.ts()),
            ops: ops.collect(),
        }
    }
}

/// The most samples one reader records.
const SAMPLES_PER_READER: usize = 4096;

/// Who samples snapshots while the writers storm.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Readers {
    /// Nobody: the writers run exactly their rounds.
    None,
    /// N readers over pre-warmed chains with GC pinned at 0, so every
    /// sampled read must be a chain hit.
    Warm,
    /// N readers while the writers keep their chains cold (see
    /// `reader_storm_cold_miss_never_sees_aborted_writes`).
    Cold,
}

/// The storm: `threads` writers run at least `rounds` rounds each — on
/// until every reader has sampled once, or a deadline passes, so what
/// the readers observe does not depend on which threads the OS started
/// first. A watermark observer checks `current_ts` stays monotone.
/// Afterwards the counters must account for every commit and skip, and
/// the recorded history — writer attempts, reader samples, a final
/// snapshot and a base-store read of every pair — must pass the history
/// check: all of it under snapshot isolation (SSI tracks no plain
/// snapshot, so a sample may close a read-only G2), the writers alone
/// under `isolation`.
///
/// Warm writers retry each round to its commit (under `Serializable`
/// also reading their ring neighbor); cold writers make one attempt per
/// round on their own fields, committed on even rounds and aborted on
/// odd ones, so a field's chain vanishes on every abort (sole record)
/// and is reclaimed soon after every commit.
fn run_storm(isolation: IsolationLevel, rounds: i64, readers: Readers) {
    let threads = finecc::obs::test_threads();
    let storm = setup(threads, isolation);
    let read_neighbor = isolation == IsolationLevel::Serializable;
    let mut history = Vec::new();
    // Warm: pin the GC horizon at 0 for the whole storm, so warmed
    // chains never shrink and no sampled read can miss into the base
    // store, and warm every (object, field) the readers will sample
    // with one committed version (round -1), recorded like any other.
    let _gc_pin = (readers == Readers::Warm).then(|| {
        let pin = storm.heap.snapshot();
        assert_eq!(pin.ts(), 0);
        for t in 0..threads {
            storm.run_round(t, -1, false, &mut history);
        }
        pin
    });
    let stats_before = storm.heap.stats.snapshot();
    let reader_count = if readers == Readers::None { 0 } else { threads };
    let validation_aborts = AtomicU64::new(0);
    let writers_live = AtomicU64::new(threads as u64);
    let readers_sampling = AtomicU64::new(0);
    let deadline = Instant::now() + Duration::from_secs(10);
    let (storm, validation_aborts) = (&storm, &validation_aborts);
    let (writers_live, readers_sampling) = (&writers_live, &readers_sampling);
    let (writes, samples): (Vec<Record>, Vec<Record>) = std::thread::scope(|s| {
        s.spawn(move || {
            let mut last = 0;
            while writers_live.load(Ordering::Relaxed) > 0 {
                let now = storm.heap.current_ts();
                assert!(now >= last, "watermark moved backwards: {last} -> {now}");
                last = now;
                std::thread::yield_now();
            }
        });
        let writers: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    for round in 0.. {
                        let sampled =
                            readers_sampling.load(Ordering::Relaxed) == reader_count as u64;
                        if round >= rounds && (sampled || Instant::now() >= deadline) {
                            break;
                        }
                        if readers == Readers::Cold {
                            let v = round * 100_000 + 1;
                            out.push(storm.attempt(t, round as u32, v, false, round % 2 == 0).0);
                        } else {
                            let aborts = storm.run_round(t, round, read_neighbor, &mut out);
                            validation_aborts.fetch_add(aborts, Ordering::Relaxed);
                        }
                    }
                    writers_live.fetch_sub(1, Ordering::Relaxed);
                    out
                })
            })
            .collect();
        // Readers sample hot pairs through fresh snapshots for as long
        // as writers are live, each starting at its own pair, and keep
        // at most `SAMPLES_PER_READER`: the recorded history stays a
        // few megabytes however long the storm runs.
        let readers: Vec<_> = (0..reader_count)
            .map(|r| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    while writers_live.load(Ordering::Relaxed) > 0 && out.len() < SAMPLES_PER_READER
                    {
                        let (session, op) = ((threads + r) as u32, out.len() as u32);
                        out.push(storm.sample(session, op, [(r + out.len()) % threads]));
                        if out.len() == 1 {
                            readers_sampling.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    out
                })
            })
            .collect();
        let join = |hs: Vec<std::thread::ScopedJoinHandle<'_, Vec<Record>>>| -> Vec<Record> {
            hs.into_iter().flat_map(|h| h.join().unwrap()).collect()
        };
        (join(writers), join(readers))
    });

    // Contiguous prefix, fully drained: every drawn timestamp was
    // published — writer commits each drew one, and every SSI
    // validation abort after the draw published a skip.
    let total = storm.heap.stats.snapshot();
    let committed = (history.iter().chain(&writes)).filter(|r| r.commit.is_some());
    assert_eq!(
        total.commits,
        committed.count() as u64,
        "one commit per committed attempt"
    );
    assert_eq!(
        storm.heap.current_ts(),
        total.commits + total.ts_skips,
        "watermark must drain to the drawn-timestamp clock with no holes"
    );
    assert_eq!(
        total.ts_skips,
        validation_aborts.load(Ordering::Relaxed),
        "every commit-time validation abort publishes exactly one skip"
    );
    if isolation == IsolationLevel::Snapshot {
        assert_eq!((total.ssi_aborts, total.ts_skips), (0, 0));
    }
    let m = total.since(&stats_before);
    match readers {
        Readers::None => {}
        // The storm must actually have exercised the miss path —
        // otherwise it silently degenerates into another warmed storm —
        // and only the even rounds commit.
        Readers::Cold => {
            assert!(m.read_base_loads > 0, "the cold storm never missed a chain");
            assert!(
                writes.iter().all(|r| r.commit.is_some() == (r.op % 2 == 0)),
                "an even round failed to commit, or an odd one committed"
            );
        }
        // The chain-hit acceptance check: every sampled read was
        // answered from its chain (no base-store RwLock on the read
        // path). `snapshot_reads` counts exactly the sampled reads, so
        // the counters are not trivially equal.
        Readers::Warm => {
            assert!(m.snapshot_reads >= 3 * samples.len() as u64);
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
        }
    }
    let sampled = !samples.is_empty();
    assert_eq!(
        sampled,
        readers != Readers::None,
        "readers observe something"
    );

    // A final snapshot at the drained watermark, and the base store,
    // must hold every pair's last commit: no lost write.
    let last = storm.sample(2 * threads as u32, 0, 0..threads);
    let base_reads = last.ops.iter().map(|&op| match op {
        Op::Read((oid, f), _) => {
            let v = storm.heap.base().read(oid, f).unwrap();
            Op::Read((oid, f), v.as_int().unwrap())
        }
        write => write,
    });
    let base = Record {
        session: 2 * threads as u32 + 1,
        read_point: u64::MAX,
        commit: Some(u64::MAX),
        ops: base_reads.collect(),
        ..Record::default()
    };
    history.extend(writes.into_iter().chain(samples).chain([last, base]));
    let writers = (history.iter().filter(|r| (r.session as usize) < threads)).cloned();
    let writers = History {
        txns: writers.collect(),
    };
    let mut refused = History { txns: history }.check();
    refused.retain(|v| !v.admitted(false));
    if read_neighbor {
        refused.extend(writers.check());
    }
    let refused: Vec<String> = refused.iter().map(ToString::to_string).collect();
    assert!(refused.is_empty(), "{}", refused.join("\n"));
}

#[test]
fn commit_storm_snapshot_isolation() {
    // Field-disjoint writers over overlapping objects: zero conflicts,
    // maximal commit-path concurrency.
    run_storm(IsolationLevel::Snapshot, 100, Readers::None);
}

#[test]
fn commit_storm_serializable_with_validation_skips() {
    // Each writer also reads its ring neighbor's field, manufacturing
    // rw-antidependency chains: some commits are refused by validation
    // *after* drawing their timestamp, so the watermark must skip-fill
    // the holes — the storm asserts the prefix still drains tight.
    run_storm(IsolationLevel::Serializable, 40, Readers::None);
}

#[test]
fn reader_storm_snapshot_isolation() {
    run_storm(IsolationLevel::Snapshot, 60, Readers::Warm);
}

#[test]
fn reader_storm_serializable() {
    // Writers also read their ring neighbor, manufacturing
    // rw-antidependencies and validation skips: sampled snapshots must
    // still replay exactly (skipped timestamps committed nothing).
    run_storm(IsolationLevel::Serializable, 30, Readers::Warm);
}

/// The cold-miss storm: the one read path the warmed storms above never
/// touch is the chain-*miss* fallback into the base store, and its
/// dangerous race is a reader's base read landing inside a concurrent
/// writer's install→abort window (the write-through sits in the base
/// store for as long as the pending record does). Writers here
/// deliberately keep their chains cold — every transaction either
/// aborts (odd rounds) or commits and is immediately GC-eligible — so
/// readers constantly fall through to the base store while records
/// appear and disappear around them. A reader observing an aborted
/// value is a dirty read (G1a); `read_as` holding the shard latch across
/// the miss's base read — the latch every install and rollback holds
/// exclusively — must make that impossible.
#[test]
fn reader_storm_cold_miss_never_sees_aborted_writes() {
    run_storm(IsolationLevel::Snapshot, 200, Readers::Cold);
}

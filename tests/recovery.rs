//! Crash-point recovery tests: the durability subsystem's acceptance
//! suite.
//!
//! The central harness simulates a crash **after every log-record
//! boundary** (torn final record included): it runs a workload against
//! a `wal-sync` heap, then — for every prefix of the final log that
//! ends on a frame boundary, plus mid-record and garbage-tail cuts —
//! materializes a "crashed" copy of the log directory, recovers it,
//! and asserts the recovered store equals **exactly** the committed
//! prefix:
//!
//! * every commit whose record is inside the prefix is present, field
//!   by field (replayed in commit-timestamp order over the
//!   checkpoint);
//! * no aborted transaction's write resurrects (aborted transactions
//!   never reach the log; the storm variant writes odd values in
//!   transactions it then aborts and asserts recovered values are
//!   always even);
//! * the timestamp clock and watermark are restored — including the
//!   holes left by SSI-refused commits (skip records) — so a commit on
//!   the recovered heap continues at `max_ts + 1` with no reuse and no
//!   watermark stall.
//!
//! A threaded storm variant (alongside `tests/commit_storm.rs`) runs
//! the same truncation sweep over a log produced by N concurrent
//! writer threads with interleaved aborts, and a lock-scheme test
//! drives the same machinery through the undo-projection redo path.
//! Thread count comes from `FINECC_TEST_THREADS` (default 8; CI 16).

use finecc::model::{FieldId, FieldType, Oid, SchemaBuilder, TxnId, Value};
use finecc::mvcc::{DurabilityLevel, IsolationLevel, MvccHeap, MvccTxn, WalConfig};
use finecc::obs::SlotIds;
use finecc::store::Database;
use finecc::wal::{FrameStream, LogRecord, Wal};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("finecc-recovery-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The raw image of `dir`'s log, and its intact frames — each record
/// with the offset just past it.
fn read_log(dir: &Path) -> (Vec<u8>, Vec<(usize, LogRecord)>) {
    let path = Wal::log_path(dir);
    let frames = FrameStream::open(&path).unwrap().map(|frame| {
        let (end, rec) = frame.unwrap();
        (end as usize, rec)
    });
    let frames = frames.collect();
    (std::fs::read(path).unwrap(), frames)
}

/// Materializes a "crashed" copy of a log directory: checkpoints are
/// copied verbatim, the log is the given prefix plus an optional
/// garbage tail.
fn crashed_copy(src: &Path, dst: &Path, log_bytes: &[u8], cut: usize, garbage: &[u8]) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name();
        if name.to_string_lossy().ends_with(".ckpt") {
            std::fs::copy(entry.path(), dst.join(name)).unwrap();
        }
    }
    let mut log = log_bytes[..cut].to_vec();
    log.extend_from_slice(garbage);
    std::fs::write(Wal::log_path(dst), log).unwrap();
}

/// The expected post-recovery value of every `(oid, field)`: the
/// genesis base overlaid with the prefix's commit records in
/// commit-timestamp order (log order within a timestamp) — the
/// reference implementation of the replay contract.
fn oracle(
    base: &BTreeMap<(Oid, FieldId), Value>,
    records: &[LogRecord],
) -> BTreeMap<(Oid, FieldId), Value> {
    let mut sorted: Vec<(usize, &LogRecord)> = records.iter().enumerate().collect();
    sorted.sort_by_key(|(idx, rec)| (rec.order_ts(), *idx));
    let mut state = base.clone();
    for (_, rec) in sorted {
        if let LogRecord::Commit { writes, .. } = rec {
            for w in writes {
                state.insert((w.oid, w.field), w.value.clone());
            }
        }
    }
    state
}

/// Highest commit/skip timestamp in a record prefix.
fn max_ts(records: &[LogRecord]) -> u64 {
    records
        .iter()
        .filter_map(|r| match r {
            LogRecord::Commit { ts, .. } | LogRecord::Skip { ts } => Some(*ts),
            _ => None,
        })
        .max()
        .unwrap_or(0)
}

fn base_state(db: &Database) -> BTreeMap<(Oid, FieldId), Value> {
    let schema = db.schema();
    let mut out = BTreeMap::new();
    for (oid, inst) in db.snapshot() {
        for &f in &schema.class(inst.class).all_fields {
            out.insert((oid, f), inst.get(schema, f).unwrap().clone());
        }
    }
    out
}

struct Fixture {
    heap: Arc<MvccHeap>,
    dir: PathBuf,
    oids: Vec<Oid>,
    fields: Vec<FieldId>,
    genesis: BTreeMap<(Oid, FieldId), Value>,
    ids: SlotIds,
}

fn fixture(name: &str, isolation: IsolationLevel, objects: usize, fields: usize) -> Fixture {
    let mut b = SchemaBuilder::new();
    {
        let c = b.class("r");
        for f in 0..fields {
            c.field(&format!("f{f}"), FieldType::Int);
        }
    }
    let schema = Arc::new(b.finish().unwrap());
    let class = schema.class_by_name("r").unwrap();
    let field_ids: Vec<FieldId> = (0..fields)
        .map(|f| schema.resolve_field(class, &format!("f{f}")).unwrap())
        .collect();
    let db = Arc::new(Database::new(Arc::clone(&schema)));
    let oids: Vec<Oid> = (0..objects).map(|_| db.create(class)).collect();
    let dir = tmpdir(name);
    let wal = Arc::new(Wal::open(&dir, WalConfig::default()).unwrap());
    let heap = Arc::new(MvccHeap::with_wal(Arc::clone(&db), isolation, Arc::clone(&wal)).unwrap());
    assert_eq!(heap.durability(), DurabilityLevel::WalSync);
    let genesis = base_state(&db);
    Fixture {
        heap,
        dir,
        oids,
        fields: field_ids,
        genesis,
        ids: SlotIds::new(),
    }
}

impl Fixture {
    fn txn(&self) -> MvccTxn {
        self.heap.session(TxnId(self.ids.next()))
    }
}

/// Runs the truncation sweep: recovers a crashed copy at every frame
/// boundary (plus a mid-record cut and a garbage tail per boundary)
/// and asserts the recovered store is exactly the committed prefix,
/// with the clock/watermark restored and advancing without reuse.
fn assert_prefix_recovery(
    dir: &Path,
    genesis: &BTreeMap<(Oid, FieldId), Value>,
    isolation: IsolationLevel,
) {
    let (log_bytes, parsed) = read_log(dir);
    assert!(!parsed.is_empty(), "the workload logged something");
    let crash_dir = dir.with_file_name(format!(
        "{}-crash",
        dir.file_name().unwrap().to_string_lossy()
    ));
    // Every boundary, 0 records included; each with three tail shapes:
    // clean cut, torn (half of the next frame), and garbage.
    let mut boundaries = vec![8usize]; // just past the magic
    boundaries.extend(parsed.iter().map(|&(off, _)| off));
    for (i, &cut) in boundaries.iter().enumerate() {
        let prefix: Vec<LogRecord> = parsed[..i].iter().map(|(_, r)| r.clone()).collect();
        let expected = oracle(genesis, &prefix);
        let expected_ts = max_ts(&prefix);
        let torn_cut = boundaries
            .get(i + 1)
            .map(|&next| cut + (next - cut) / 2)
            .filter(|&m| m > cut);
        let tails: Vec<(usize, &[u8])> = match torn_cut {
            Some(m) => vec![
                (cut, &[][..]),
                (m, &[][..]),
                (cut, &[0xFF, 0xFF, 0x00, 0x13][..]),
            ],
            None => vec![(cut, &[][..]), (cut, &[0xFF, 0xFF, 0x00, 0x13][..])],
        };
        for (cut, garbage) in tails {
            crashed_copy(dir, &crash_dir, &log_bytes, cut, garbage);
            let (heap, _info) =
                MvccHeap::recover(&crash_dir, isolation, WalConfig::default()).unwrap();
            assert_eq!(
                heap.current_ts(),
                expected_ts,
                "clock restored to the prefix's horizon (cut {cut})"
            );
            for (&(oid, field), value) in &expected {
                assert_eq!(
                    heap.base().read(oid, field).as_ref(),
                    Ok(value),
                    "recovered {oid}.{field} at cut {cut} diverged from the committed prefix"
                );
            }
            // The recovered clock continues without reusing a
            // timestamp: the next writer commit lands at max_ts + 1
            // and is immediately visible (watermark restored dense —
            // a hole would stall publication forever).
            let (&(oid, field), _) = expected.iter().next().unwrap();
            let mut txn = heap.session(TxnId(u64::MAX - 17));
            heap.write_at(&mut txn, oid, field, Value::Int(-999))
                .unwrap();
            let ts = heap.commit_session(txn).unwrap();
            assert_eq!(ts, expected_ts + 1, "no timestamp reuse, no gap");
            assert_eq!(heap.current_ts(), ts, "published without stalling");
        }
    }
    let _ = std::fs::remove_dir_all(&crash_dir);
}

/// One committed transaction writing `value` to `(oid, field)` pairs.
fn commit_writes(fx: &Fixture, writes: &[(Oid, FieldId)], value: i64) -> u64 {
    let mut txn = fx.txn();
    for &(oid, field) in writes {
        fx.heap
            .write_at(&mut txn, oid, field, Value::Int(value))
            .unwrap();
    }
    fx.heap.commit_session(txn).unwrap()
}

#[test]
fn crash_at_every_record_boundary_recovers_exact_committed_prefix() {
    for isolation in [IsolationLevel::Snapshot, IsolationLevel::Serializable] {
        let name = format!("boundary-{isolation:?}").to_lowercase();
        let fx = fixture(&name, isolation, 4, 3);
        // A varied committed history: single- and multi-object
        // transactions, merged records (two writes to one object), and
        // interleaved aborts that must leave no trace.
        for round in 0..8i64 {
            let o = fx.oids[(round as usize) % fx.oids.len()];
            let o2 = fx.oids[(round as usize + 1) % fx.oids.len()];
            let f = fx.fields[(round as usize) % fx.fields.len()];
            commit_writes(&fx, &[(o, f)], 10 + round);
            commit_writes(&fx, &[(o, f), (o2, f)], 100 + round);
            // Aborted transaction: writes a sentinel, then rolls back.
            let mut txn = fx.txn();
            fx.heap
                .write_at(&mut txn, o, fx.fields[0], Value::Int(-1))
                .unwrap();
            fx.heap.abort_session(txn);
        }
        let genesis = fx.genesis.clone();
        let dir = fx.dir.clone();
        drop(fx); // graceful close: flusher drains and joins
        assert_prefix_recovery(&dir, &genesis, isolation);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn ssi_skip_holes_are_restored_not_reused() {
    let fx = fixture("ssi-skip", IsolationLevel::Serializable, 2, 2);
    let (o1, o2) = (fx.oids[0], fx.oids[1]);
    let (fx0, fx1) = (fx.fields[0], fx.fields[1]);
    commit_writes(&fx, &[(o1, fx0)], 5);
    // Classic write skew: t1 reads o1.f0 writes o2.f1, t2 reads o2.f1
    // writes o1.f0 — at Serializable one of the two is refused at
    // commit after drawing its timestamp, logging a skip record.
    let (mut t1, mut t2) = (fx.txn(), fx.txn());
    fx.heap.read_as(&mut t1, o1, fx0).unwrap();
    fx.heap.read_as(&mut t2, o2, fx1).unwrap();
    fx.heap.write_at(&mut t1, o2, fx1, Value::Int(11)).unwrap();
    fx.heap.write_at(&mut t2, o1, fx0, Value::Int(22)).unwrap();
    let r1 = fx.heap.commit_session(t1);
    let r2 = fx.heap.commit_session(t2);
    // At least one of the pair is refused; the sticky-flag validator
    // may refuse both (the known over-abort, see the ROADMAP's precise
    // SSI item). Every refusal drew a timestamp → logged one skip.
    let refused = u64::from(r1.is_err()) + u64::from(r2.is_err());
    assert!(refused >= 1, "write skew admitted: {r1:?} / {r2:?}");
    let skips = fx.heap.stats.snapshot().ts_skips;
    assert_eq!(skips, refused);
    commit_writes(&fx, &[(o1, fx0)], 7);
    let live_ts = fx.heap.current_ts();
    let genesis = fx.genesis.clone();
    let dir = fx.dir.clone();
    drop(fx);
    // The full-log recovery restores the clock *including* the hole.
    let (heap, info) =
        MvccHeap::recover(&dir, IsolationLevel::Serializable, WalConfig::default()).unwrap();
    assert_eq!(
        heap.current_ts(),
        live_ts,
        "skip hole counted into the clock"
    );
    assert_eq!(
        info.skips, skips,
        "every refused draw was recovered as a skip"
    );
    drop(heap);
    // And the boundary sweep holds across the skip record too.
    assert_prefix_recovery(&dir, &genesis, IsolationLevel::Serializable);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fuzzy_checkpoint_compacts_replay_and_preserves_extents() {
    let fx = fixture("checkpoint", IsolationLevel::Snapshot, 3, 2);
    let (o0, f0, f1) = (fx.oids[0], fx.fields[0], fx.fields[1]);
    commit_writes(&fx, &[(o0, f0)], 1);
    commit_writes(&fx, &[(o0, f1)], 2);
    // Extent events through the heap: a new durable object and a
    // durable delete.
    let class = fx.heap.base().class_of(o0).unwrap();
    let newborn = fx.heap.create(class);
    commit_writes(&fx, &[(newborn, f0)], 33);
    fx.heap.delete(fx.oids[2]).unwrap();
    let ckpt_ts = fx.heap.checkpoint().unwrap();
    assert_eq!(ckpt_ts, fx.heap.current_ts());
    commit_writes(&fx, &[(newborn, f1)], 44);
    commit_writes(&fx, &[(o0, f0)], 55);
    let live = base_state(fx.heap.base());
    let live_ts = fx.heap.current_ts();
    let live_len = fx.heap.base().len();
    let dir = fx.dir.clone();
    drop(fx);
    let (heap, info) =
        MvccHeap::recover(&dir, IsolationLevel::Snapshot, WalConfig::default()).unwrap();
    assert_eq!(info.checkpoint_ts, ckpt_ts, "newest checkpoint used");
    assert_eq!(
        info.replayed, 2,
        "only commits past the checkpoint replay (creates/deletes predate it and no-op)"
    );
    assert_eq!(heap.current_ts(), live_ts);
    assert_eq!(
        heap.base().len(),
        live_len,
        "extents: create and delete both survive"
    );
    assert_eq!(
        base_state(heap.base()),
        live,
        "recovered state == live state"
    );
    // A recovered OID allocator never reuses: creating on the
    // recovered heap yields a fresh OID above everything seen.
    let fresh = heap.create(class);
    assert!(
        fresh > newborn,
        "OID allocator restored past {newborn}, got {fresh}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn threaded_commit_storm_recovers_acked_commits() {
    let threads = finecc::obs::test_threads();
    let per_thread = 30i64;
    let owned = fixture(
        "storm",
        IsolationLevel::Snapshot,
        (threads / 2).max(2),
        threads,
    );
    // Thread t owns field t (no ww conflicts); each committed txn
    // writes the SAME even value to two objects (commit atomicity
    // under truncation), and every third txn writes an odd sentinel
    // and aborts — an odd value after recovery is a resurrected
    // aborted write.
    std::thread::scope(|scope| {
        for t in 0..threads {
            let fx = &owned;
            scope.spawn(move || {
                let field = fx.fields[t];
                let a = fx.oids[t % fx.oids.len()];
                let b = fx.oids[(t + 1) % fx.oids.len()];
                for round in 0..per_thread {
                    let mut txn = fx.txn();
                    if round % 3 == 2 {
                        fx.heap
                            .write_at(&mut txn, a, field, Value::Int(round * 2 + 1))
                            .unwrap();
                        fx.heap.abort_session(txn);
                        continue;
                    }
                    fx.heap
                        .write_at(&mut txn, a, field, Value::Int(round * 2))
                        .unwrap();
                    fx.heap
                        .write_at(&mut txn, b, field, Value::Int(round * 2))
                        .unwrap();
                    fx.heap.commit_session(txn).unwrap();
                }
            });
        }
    });
    let live = base_state(owned.heap.base());
    let genesis = owned.genesis.clone();
    let dir = owned.dir.clone();
    let fields = owned.fields.clone();
    let oids = owned.oids.clone();
    drop(owned); // joins the flusher before the log is read back
    let (log_bytes, parsed) = read_log(&dir);
    let full: Vec<LogRecord> = parsed.iter().map(|(_, r)| r.clone()).collect();
    let expected = oracle(&genesis, &full);
    assert_eq!(
        expected, live,
        "replaying the full log over genesis reproduces the live store: \
         every acked commit is durable"
    );
    // Truncation sweep over the concurrent log: every sampled boundary
    // yields a consistent committed prefix — atomic per-txn (both
    // objects travel in one record), no aborted (odd) values, clock
    // restored. The full sweep is O(records²); every 7th boundary plus
    // the ends still crosses group-commit batches.
    let crash_dir = tmpdir("storm-crash");
    let mut boundaries = vec![8usize];
    boundaries.extend(parsed.iter().map(|&(off, _)| off));
    let sampled: Vec<usize> = (0..boundaries.len())
        .filter(|i| i % 7 == 0 || *i + 1 == boundaries.len())
        .collect();
    for &i in &sampled {
        let cut = boundaries[i];
        let prefix: Vec<LogRecord> = parsed[..i].iter().map(|(_, r)| r.clone()).collect();
        let expected = oracle(&genesis, &prefix);
        crashed_copy(&dir, &crash_dir, &log_bytes, cut, &[0xFE, 0x00]);
        let (heap, _info) =
            MvccHeap::recover(&crash_dir, IsolationLevel::Snapshot, WalConfig::default()).unwrap();
        assert_eq!(
            heap.current_ts(),
            max_ts(&prefix),
            "clock == prefix horizon"
        );
        for (&(oid, field), value) in &expected {
            let got = heap.base().read(oid, field).unwrap();
            assert_eq!(&got, value, "cut {cut}: {oid}.{field}");
            if let Value::Int(n) = got {
                assert_eq!(n % 2, 0, "odd value resurrected from an aborted txn");
            }
        }
        // Commit atomicity across truncation: thread t's two objects
        // always agree on its field — both writes travel in one
        // record, so no cut can tear them apart.
        for (t, &field) in fields.iter().enumerate() {
            let a = oids[t % oids.len()];
            let b = oids[(t + 1) % oids.len()];
            assert_eq!(
                heap.base().read(a, field).unwrap(),
                heap.base().read(b, field).unwrap(),
                "thread {t}: torn two-object commit at cut {cut}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&crash_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lock_scheme_undo_projection_log_recovers() {
    use finecc::runtime::{run_txn, SchemeKind};
    use finecc::wal::recover_database;
    for kind in [SchemeKind::Tav, SchemeKind::Rw] {
        let dir = tmpdir(&format!("lock-{}", kind.name()));
        let env = finecc::runtime::Env::from_source(finecc::lang::parser::FIGURE1_SOURCE).unwrap();
        let c2 = env.schema.class_by_name("c2").unwrap();
        let f1 = env.schema.resolve_field(c2, "f1").unwrap();
        let f4 = env.schema.resolve_field(c2, "f4").unwrap();
        let o2 = env.db.create(c2);
        let db = Arc::clone(&env.db);
        let scheme = kind
            .build_durable(env, DurabilityLevel::WalSync, &dir)
            .unwrap();
        assert_eq!(scheme.env().durability(), DurabilityLevel::WalSync);
        for i in 1..=4 {
            let out = run_txn(scheme.as_ref(), 5, |txn| {
                scheme.send(txn, o2, "m2", &[Value::Int(i)])
            });
            assert!(out.is_committed());
        }
        let wal = scheme.env().wal.as_ref().unwrap().stats().snapshot();
        assert_eq!(wal.appends, 4, "one redo record per committed txn");
        assert!(wal.log_fsyncs >= 1);
        let live_f1 = db.read(o2, f1).unwrap();
        let live_f4 = db.read(o2, f4).unwrap();
        drop(scheme);
        let (recovered, info) = recover_database(&dir).unwrap();
        assert_eq!(info.replayed, 4);
        assert_eq!(recovered.read(o2, f1).unwrap(), live_f1, "{kind}");
        assert_eq!(recovered.read(o2, f4).unwrap(), live_f4, "{kind}");
        // The schema rebuilt from the checkpoint resolves the same ids
        // the language front-end assigned.
        assert_eq!(recovered.schema().resolve_field(c2, "f4"), Some(f4));
        // Prefix semantics hold for the lock-scheme log too: cutting
        // after the second record recovers exactly two transactions.
        let (log_bytes, parsed) = read_log(&dir);
        let crash_dir = tmpdir(&format!("lock-{}-crash", kind.name()));
        crashed_copy(&dir, &crash_dir, &log_bytes, parsed[1].0, &[]);
        let (prefix_db, prefix_info) = recover_database(&crash_dir).unwrap();
        assert_eq!(prefix_info.replayed, 2);
        // m2 accumulates (f1 := f1 + p1): two replayed txns = 1 + 2.
        assert_eq!(prefix_db.read(o2, f1).unwrap(), Value::Int(3), "{kind}");
        let _ = std::fs::remove_dir_all(&crash_dir);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// ROADMAP's recovery-window defect, closed by construction: the lock
/// schemes draw their commit sequence inside the log's staging latch
/// (`Wal::append_commit_with`), so however long a client is stalled or
/// preempted around its commit, the log holds the commits in strictly
/// increasing sequence order and the **default** reorder window — any
/// window — recovers it. With the draw outside the latch (the parent's
/// `next_commit_seq` before `append_commit`) a client preempted between
/// the two lets the other client's later sequences into the log first:
/// the order assertion below then fails on every run, and a log whose
/// lag passes 1024 records is refused by recovery with
/// `ReorderWindowExceeded`.
#[test]
fn two_client_lock_scheme_log_is_in_commit_order_and_recovers() {
    use finecc::runtime::SchemeKind;
    use finecc::wal::recover_database;
    const COMMITS_PER_CLIENT: i64 = 25_000;
    const STALL_EVERY: i64 = 400;
    for kind in [SchemeKind::Tav, SchemeKind::Rw] {
        let dir = tmpdir(&format!("window-{}", kind.name()));
        let env = finecc::runtime::Env::from_source(finecc::lang::parser::FIGURE1_SOURCE).unwrap();
        let c2 = env.schema.class_by_name("c2").unwrap();
        // One object per client: no lock conflicts, so a stalled client
        // never holds the other one up.
        let objects = [env.db.create(c2), env.db.create(c2)];
        let db = Arc::clone(&env.db);
        let scheme = kind.build_durable(env, DurabilityLevel::Wal, &dir).unwrap();
        std::thread::scope(|s| {
            for (client, &oid) in objects.iter().enumerate() {
                let scheme = scheme.as_ref();
                s.spawn(move || {
                    for i in 1..=COMMITS_PER_CLIENT {
                        let mut txn = scheme.begin();
                        scheme.send(&mut txn, oid, "m2", &[Value::Int(1)]).unwrap();
                        if client == 0 && i % STALL_EVERY == 0 {
                            // Stalled between message and commit, locks
                            // held, while the other client commits on.
                            std::thread::sleep(std::time::Duration::from_millis(1));
                        }
                        scheme.commit(txn).unwrap();
                    }
                });
            }
        });
        let live = base_state(&db);
        drop(scheme);
        let commit_ts: Vec<u64> = read_log(&dir)
            .1
            .into_iter()
            .filter_map(|(_, rec)| match rec {
                LogRecord::Commit { ts, .. } => Some(ts),
                _ => None,
            })
            .collect();
        assert_eq!(commit_ts.len() as i64, 2 * COMMITS_PER_CLIENT, "{kind}");
        assert!(
            commit_ts.windows(2).all(|w| w[0] < w[1]),
            "{kind}: commit records out of sequence order"
        );
        let (recovered, info) =
            recover_database(&dir).unwrap_or_else(|e| panic!("{kind}: default window: {e}"));
        assert_eq!(info.replayed as i64, 2 * COMMITS_PER_CLIENT, "{kind}");
        assert_eq!(base_state(&recovered), live, "{kind}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn truncation_keeps_every_frame_at_or_above_any_floor() {
    // The truncation-floor property: for an *arbitrary* floor,
    // `Wal::truncate_below(floor)` keeps exactly the frames with
    // `order_ts >= floor`, in order — and therefore the maintenance
    // pipeline (floor = ckpt_ts < recovery_floor) can never remove a
    // frame recovery could still need.
    use finecc::store::FieldImage;
    use finecc::wal::{recovery_floor, CheckpointData};
    let src = tmpdir("floor-prop");
    let mut b = SchemaBuilder::new();
    b.class("p").field("x", FieldType::Int);
    let schema = b.finish().unwrap();
    let class = schema.class_by_name("p").unwrap();
    let x = schema.resolve_field(class, "x").unwrap();
    {
        let wal = Wal::open(&src, WalConfig::default()).unwrap();
        wal.write_checkpoint(&CheckpointData {
            ckpt_ts: 6,
            replay_from: 7,
            next_oid: 100,
            schema: &schema,
            instances: vec![],
        })
        .unwrap();
        // Mixed record kinds so order_ts covers both `ts` and `as_of`.
        for ts in 1..=10u64 {
            match ts {
                5 => wal.append_create(5, Oid(50), class).unwrap(),
                6 => wal.append_delete(6, Oid(50)).unwrap(),
                _ => wal
                    .append_commit(
                        ts,
                        TxnId(ts),
                        &[FieldImage {
                            oid: Oid(1),
                            field: x,
                            value: Value::Int(ts as i64),
                        }],
                    )
                    .unwrap(),
            }
        }
    }
    let (log_bytes, frames) = read_log(&src);
    let original: Vec<u64> = frames.iter().map(|(_, r)| r.order_ts()).collect();
    assert_eq!(original, (1..=10).collect::<Vec<u64>>());
    let ckpt_ts = 6u64;
    let dst = tmpdir("floor-prop-cut");
    for floor in 0..=12u64 {
        crashed_copy(&src, &dst, &log_bytes, log_bytes.len(), &[]);
        {
            let wal = Wal::open(&dst, WalConfig::default()).unwrap();
            wal.truncate_below(floor).unwrap();
        }
        let kept: Vec<u64> = read_log(&dst).1.iter().map(|(_, r)| r.order_ts()).collect();
        let expected: Vec<u64> = original.iter().copied().filter(|&t| t >= floor).collect();
        assert_eq!(kept, expected, "floor {floor}");
        // Every legal pipeline floor (<= ckpt_ts < replay_from) keeps
        // all frames replay still needs, so `recovery_floor` — the ts
        // new appends must stay above — is unmoved by truncation.
        if floor <= ckpt_ts {
            let needed: Vec<u64> = original.iter().copied().filter(|&t| t >= 7).collect();
            assert!(
                needed.iter().all(|t| kept.contains(t)),
                "floor {floor} removed a frame above replay_from"
            );
            assert_eq!(recovery_floor(&dst).unwrap(), 11, "floor {floor}");
        }
    }
    let _ = std::fs::remove_dir_all(&dst);
    let _ = std::fs::remove_dir_all(&src);
}

#[test]
fn recovery_restarts_identically_after_a_crash_at_every_probe_site() {
    // The recovery-of-recovery matrix: crash a recovery at every
    // probe site × hit, then recover again and demand the exact
    // baseline state — the tentpole restartability contract.
    use finecc::chaos::{self, ChaosConfig, FaultKind, FaultPlan, FaultSpec, Site};
    let fx = fixture("restart-matrix", IsolationLevel::Snapshot, 3, 2);
    for round in 0..4i64 {
        let o = fx.oids[(round as usize) % fx.oids.len()];
        commit_writes(&fx, &[(o, fx.fields[0])], 10 + round);
    }
    fx.heap.checkpoint().unwrap();
    for round in 0..4i64 {
        let o = fx.oids[(round as usize) % fx.oids.len()];
        commit_writes(&fx, &[(o, fx.fields[1])], 20 + round);
    }
    let dir = fx.dir.clone();
    drop(fx);
    let (bheap, _info) =
        MvccHeap::recover(&dir, IsolationLevel::Snapshot, WalConfig::default()).unwrap();
    let baseline = (base_state(bheap.base()), bheap.current_ts());
    drop(bheap);
    let mut crashes = 0u64;
    for site in Site::RECOVERY {
        for hit in 0..10_000u64 {
            let handle = chaos::install(ChaosConfig {
                seed: 1,
                threads: 0,
                faults: FaultPlan::of([FaultSpec::once(site, hit, FaultKind::Crash)]),
                replay: Vec::new(),
            });
            let attempt = finecc::wal::recover_database(&dir);
            let fired = chaos::crashed();
            drop(handle.finish());
            match attempt {
                Ok(_) => {
                    assert!(!fired, "recovery survived a crash fault at {site:?}");
                    break; // site exhausted: no hit `hit` this recovery
                }
                Err(e) => {
                    assert!(fired, "un-injected recovery failure at {site:?}: {e}");
                    crashes += 1;
                    let (heap, _i) =
                        MvccHeap::recover(&dir, IsolationLevel::Snapshot, WalConfig::default())
                            .unwrap();
                    assert_eq!(
                        base_state(heap.base()),
                        baseline.0,
                        "state diverged after crash at {site:?} hit {hit}"
                    );
                    assert_eq!(heap.current_ts(), baseline.1, "{site:?} hit {hit}");
                }
            }
        }
    }
    assert!(
        crashes >= Site::RECOVERY.len() as u64,
        "the matrix crashed recovery only {crashes} times"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_faults_cost_space_never_durability() {
    // Every checkpoint probe site × {io-error, crash}: the checkpoint
    // fails, but nothing already acknowledged is lost — recovery (from
    // the genesis checkpoint) still reproduces the live store, and
    // after a transient io-error the next checkpoint goes through.
    use finecc::chaos::{self, ChaosConfig, FaultKind, FaultPlan, FaultSpec, Site};
    for site in Site::CHECKPOINT {
        for kind in [FaultKind::IoError, FaultKind::Crash] {
            let name = format!("ckpt-fault-{}-{kind:?}", site.name()).to_lowercase();
            let fx = fixture(&name, IsolationLevel::Snapshot, 2, 2);
            let (o, f) = (fx.oids[0], fx.fields[0]);
            commit_writes(&fx, &[(o, f)], 7);
            let handle = chaos::install(ChaosConfig {
                seed: 0,
                threads: 0, // fault-only: the checkpoint runs right here
                faults: FaultPlan::of([FaultSpec::once(site, 0, kind)]),
                replay: Vec::new(),
            });
            let refused = fx.heap.checkpoint();
            drop(handle.finish());
            assert!(
                refused.is_err(),
                "{site:?} {kind:?} must fail the checkpoint"
            );
            // The store keeps working, and — for a transient io-error —
            // so does the next checkpoint.
            commit_writes(&fx, &[(o, f)], 8);
            if kind == FaultKind::IoError {
                fx.heap.checkpoint().expect("io-error faults are transient");
                commit_writes(&fx, &[(o, f)], 9);
            }
            let live = base_state(fx.heap.base());
            let live_ts = fx.heap.current_ts();
            let dir = fx.dir.clone();
            drop(fx);
            let (heap, _info) =
                MvccHeap::recover(&dir, IsolationLevel::Snapshot, WalConfig::default()).unwrap();
            assert_eq!(base_state(heap.base()), live, "{site:?} {kind:?}");
            assert_eq!(heap.current_ts(), live_ts, "{site:?} {kind:?}");
            drop(heap);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn log_and_replay_memory_stay_bounded_across_checkpoint_cycles() {
    // ≥ 3 checkpoint+truncation cycles: the log file never accumulates
    // across cycles, retention caps the checkpoint files, and a
    // recovery with a tiny reorder window still replays the tail —
    // peak memory O(window), not O(log).
    use finecc::wal::recover_database_with_window;
    let fx = fixture("cycles", IsolationLevel::Snapshot, 2, 2);
    let (o, f) = (fx.oids[0], fx.fields[0]);
    let per_cycle = 50i64;
    let mut sizes = Vec::new();
    for cycle in 0..4i64 {
        for i in 0..per_cycle {
            commit_writes(&fx, &[(o, f)], cycle * per_cycle + i);
        }
        fx.heap.checkpoint().unwrap();
        sizes.push(std::fs::metadata(Wal::log_path(&fx.dir)).unwrap().len());
    }
    // Truncation after each checkpoint compacts the log back to (at
    // most) the floor frame: growth per cycle never compounds.
    let bound = 8 + 3 * 64; // magic + a few frames of slack
    for (cycle, &size) in sizes.iter().enumerate() {
        assert!(
            size < bound,
            "cycle {cycle}: log is {size} bytes after truncation (bound {bound})"
        );
    }
    // Retention: 1 + 4 checkpoints written, the default keeps 2.
    let ckpts = std::fs::read_dir(&fx.dir)
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .file_name()
                .to_string_lossy()
                .ends_with(".ckpt")
        })
        .count();
    assert_eq!(ckpts, 2, "retention keeps the newest two checkpoints");
    // A tail past the last checkpoint, then recover through a window
    // far smaller than the log.
    for i in 0..per_cycle {
        commit_writes(&fx, &[(o, f)], 1000 + i);
    }
    let live = base_state(fx.heap.base());
    let live_ts = fx.heap.current_ts();
    let dir = fx.dir.clone();
    drop(fx);
    let window = 8usize;
    let (rdb, info) = recover_database_with_window(&dir, window).unwrap();
    assert_eq!(info.replayed, per_cycle as u64, "the whole tail replays");
    assert!(
        info.peak_reorder <= window as u64 + 1,
        "replay buffered {} frames with a window of {window}",
        info.peak_reorder
    );
    assert_eq!(base_state(&rdb), live);
    assert_eq!(info.max_ts, live_ts);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn durable_heap_read_path_takes_no_new_latches() {
    // The acceptance guard for the read path: with a WAL attached, a
    // warmed chain read is still answered from the chain with zero
    // base loads — durability work happens strictly at commit.
    let fx = fixture("readpath", IsolationLevel::Snapshot, 2, 2);
    let (o, f) = (fx.oids[0], fx.fields[0]);
    let pin = fx.heap.snapshot(); // pins GC so chains stay warm
    commit_writes(&fx, &[(o, f)], 9);
    let before = fx.heap.stats.snapshot();
    let mut txn = fx.txn();
    for _ in 0..100 {
        assert_eq!(fx.heap.read_as(&mut txn, o, f), Ok(Value::Int(9)));
    }
    fx.heap.abort_session(txn);
    let s = fx.heap.stats.snapshot().since(&before);
    assert_eq!(s.read_chain_hits, 100, "every read a chain hit");
    assert_eq!(s.read_base_loads, 0);
    drop(pin);
    let dir = fx.dir.clone();
    drop(fx);
    let _ = std::fs::remove_dir_all(&dir);
}

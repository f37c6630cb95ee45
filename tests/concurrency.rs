//! Cross-scheme concurrency stress tests: invariants must hold under
//! real thread interleavings, aborts must leave no trace, and the
//! commuting-writer parallelism the paper promises must be observable.

use finecc::model::{Oid, Value};
use finecc::runtime::{read_metrics, run_txn, CcScheme, Env, MvccScheme, SchemeKind, TxnOutcome};
use std::sync::Arc;
use std::time::Duration;

const COUNTERS: &str = r#"
class counter {
  fields { n: integer; bumps: integer; }
  method inc(by) is
    n := n + by;
    send note to self
  end
  method note is
    bumps := bumps + 1
  end
  method value is
    return n
  end
}

class pair inherits counter {
  fields { m: integer; }
  method inc_m(by) is
    m := m + by
  end
}
"#;

fn setup(kind: SchemeKind, instances: usize) -> (Arc<dyn CcScheme>, Vec<Oid>) {
    let env = Env::from_source(COUNTERS).unwrap();
    let pair = env.schema.class_by_name("pair").unwrap();
    let oids: Vec<Oid> = (0..instances).map(|_| env.db.create(pair)).collect();
    (Arc::from(kind.build(env)), oids)
}

#[test]
fn increments_are_never_lost_under_any_scheme() {
    for kind in SchemeKind::ALL {
        let (scheme, oids) = setup(kind, 4);
        let per_thread = 100;
        std::thread::scope(|s| {
            for t in 0..4 {
                let scheme = Arc::clone(&scheme);
                let oids = oids.clone();
                s.spawn(move || {
                    for i in 0..per_thread {
                        let oid = oids[(t + i) % oids.len()];
                        let out = run_txn(scheme.as_ref(), 100, |txn| {
                            scheme.send(txn, oid, "inc", &[Value::Int(1)])
                        });
                        assert!(out.is_committed(), "{kind}: inc must commit");
                    }
                });
            }
        });
        let env = scheme.env();
        let total: i64 = oids
            .iter()
            .map(|&o| env.read_named(o, "counter", "n").as_int().unwrap())
            .sum();
        assert_eq!(total, 400, "{kind}: lost update detected");
        let bumps: i64 = oids
            .iter()
            .map(|&o| env.read_named(o, "counter", "bumps").as_int().unwrap())
            .sum();
        assert_eq!(bumps, 400, "{kind}: nested self-call writes lost");
    }
}

#[test]
fn commuting_writers_interleave_under_tav_on_one_instance() {
    // `inc` (counter fields) and `inc_m` (pair-only field) commute: two
    // transactions hold locks on the SAME instance simultaneously.
    let (scheme, oids) = setup(SchemeKind::Tav, 1);
    let oid = oids[0];
    let mut t1 = scheme.begin();
    let mut t2 = scheme.begin();
    scheme.send(&mut t1, oid, "inc", &[Value::Int(5)]).unwrap();
    scheme
        .send(&mut t2, oid, "inc_m", &[Value::Int(7)])
        .unwrap();
    scheme.commit(t1).unwrap();
    scheme.commit(t2).unwrap();
    let env = scheme.env();
    assert_eq!(env.read_named(oid, "counter", "n"), Value::Int(5));
    assert_eq!(env.read_named(oid, "pair", "m"), Value::Int(7));
    let m = read_metrics(scheme.as_ref());
    assert_eq!(
        m.get("finecc.lock.blocks"),
        Some(0.0),
        "no blocking happened"
    );
}

#[test]
fn disjoint_field_writers_block_under_rw_on_one_instance() {
    // The pseudo-conflict (P4) the test above shows solved: the same two
    // writers touch disjoint fields and commute in the generated matrix,
    // yet read/write instance locking serializes them — the second waits
    // for the first's write lock until its (here: short) timeout.
    let env = Env::from_source(COUNTERS)
        .unwrap()
        .with_lock_timeout(Duration::from_millis(50));
    let pair = env.schema.class_by_name("pair").unwrap();
    let table = env.compiled.class(pair);
    let (inc, inc_m) = (
        table.index_of("inc").unwrap(),
        table.index_of("inc_m").unwrap(),
    );
    assert!(table.commute(inc, inc_m), "disjoint fields commute");
    assert!(!table.commute(inc, inc), "a writer conflicts with itself");
    let oid = env.db.create(pair);
    let scheme = SchemeKind::Rw.build(env);
    let mut t1 = scheme.begin();
    let mut t2 = scheme.begin();
    scheme.send(&mut t1, oid, "inc", &[Value::Int(5)]).unwrap();
    let refused = scheme.send(&mut t2, oid, "inc_m", &[Value::Int(7)]);
    assert!(refused.is_err(), "rw must not admit the second writer");
    scheme.abort(t2);
    scheme.commit(t1).unwrap();
    let m = read_metrics(scheme.as_ref());
    assert_eq!(m.get("finecc.lock.blocks"), Some(1.0), "it queued");
    assert_eq!(m.get("finecc.lock.timeouts"), Some(1.0), "and gave up");
}

#[test]
fn abort_leaves_no_trace_under_all_schemes() {
    for kind in SchemeKind::ALL {
        let (scheme, oids) = setup(kind, 1);
        let oid = oids[0];
        // Commit one increment, then abort another.
        let mut t = scheme.begin();
        scheme.send(&mut t, oid, "inc", &[Value::Int(3)]).unwrap();
        scheme.commit(t).unwrap();
        let mut t = scheme.begin();
        scheme.send(&mut t, oid, "inc", &[Value::Int(100)]).unwrap();
        scheme.abort(t);
        let env = scheme.env();
        assert_eq!(
            env.read_named(oid, "counter", "n"),
            Value::Int(3),
            "{kind}: abort must undo"
        );
        assert_eq!(
            env.read_named(oid, "counter", "bumps"),
            Value::Int(1),
            "{kind}: nested write must be undone too"
        );
    }
}

#[test]
fn deadlock_victims_retry_to_completion() {
    // Symmetric hot-spot updates across two instances force deadlocks in
    // per-message RW locking; retries must still complete every txn.
    let (scheme, oids) = setup(SchemeKind::Rw, 2);
    let per_thread = 50;
    std::thread::scope(|s| {
        for t in 0..4 {
            let scheme = Arc::clone(&scheme);
            let oids = oids.clone();
            s.spawn(move || {
                for i in 0..per_thread {
                    // Opposite orders on alternating threads.
                    let (a, b) = if t % 2 == 0 {
                        (oids[0], oids[1])
                    } else {
                        (oids[1], oids[0])
                    };
                    let out = run_txn(scheme.as_ref(), 200, |txn| {
                        scheme.send(txn, a, "inc", &[Value::Int(1)])?;
                        scheme.send(txn, b, "inc", &[Value::Int(1)])
                    });
                    assert!(out.is_committed(), "thread {t} iter {i}");
                }
            });
        }
    });
    let env = scheme.env();
    let total: i64 = oids
        .iter()
        .map(|&o| env.read_named(o, "counter", "n").as_int().unwrap())
        .sum();
    assert_eq!(total, 2 * 4 * per_thread as i64);
}

#[test]
fn mvcc_snapshot_readers_never_block_and_gc_reclaims() {
    // N writer threads hammer a hot field (forcing first-updater-wins
    // retries) while M reader threads run snapshot transactions and hold
    // standalone snapshots across writer commits. Readers must commit on
    // their FIRST attempt every time — there is nothing that can block
    // or restart them — and no logical lock may ever be requested. Once
    // the run ends and all snapshots drop, epoch GC must reclaim every
    // superseded version.
    const WRITERS: usize = 3;
    const READERS: usize = 2;
    const WRITES_PER_THREAD: usize = 80;
    const READS_PER_THREAD: usize = 200;

    let env = Env::from_source(COUNTERS).unwrap();
    let pair = env.schema.class_by_name("pair").unwrap();
    let oids: Vec<Oid> = (0..2).map(|_| env.db.create(pair)).collect();
    let scheme = Arc::new(MvccScheme::new(env));

    std::thread::scope(|s| {
        for t in 0..WRITERS {
            let scheme = Arc::clone(&scheme);
            let oids = oids.clone();
            s.spawn(move || {
                for i in 0..WRITES_PER_THREAD {
                    let oid = oids[(t + i) % oids.len()];
                    let out = run_txn(scheme.as_ref(), 10_000, |txn| {
                        scheme.send(txn, oid, "inc", &[Value::Int(1)])
                    });
                    assert!(out.is_committed(), "writer {t} iteration {i}");
                }
            });
        }
        for r in 0..READERS {
            let scheme = Arc::clone(&scheme);
            let oids = oids.clone();
            s.spawn(move || {
                // A long-lived standalone snapshot: its view must not
                // drift while writers commit around it, and it pins its
                // versions against GC.
                let pinned = scheme.heap().snapshot();
                let schema = scheme.env().schema.clone();
                let counter = schema.class_by_name("counter").unwrap();
                let n = schema.resolve_field(counter, "n").unwrap();
                let pinned_view: Vec<Value> =
                    oids.iter().map(|&o| pinned.read(o, n).unwrap()).collect();
                for i in 0..READS_PER_THREAD {
                    let oid = oids[(r + i) % oids.len()];
                    let out = run_txn(scheme.as_ref(), 0, |txn| {
                        scheme.send(txn, oid, "value", &[])
                    });
                    // max_retries = 0: a single restart would fail the
                    // transaction — readers never need one.
                    match out {
                        TxnOutcome::Committed { retries, .. } => {
                            assert_eq!(retries, 0, "reader {r} was restarted")
                        }
                        other => panic!("reader {r} blocked or failed: {other:?}"),
                    }
                    if i % 50 == 0 {
                        for (k, &o) in oids.iter().enumerate() {
                            assert_eq!(
                                pinned.read(o, n).unwrap(),
                                pinned_view[k],
                                "pinned snapshot drifted"
                            );
                        }
                    }
                }
            });
        }
    });

    // No logical lock was requested by anyone, reader or writer.
    assert_eq!(
        read_metrics(scheme.as_ref()).get("finecc.lock.requests"),
        None,
        "mvcc has no lock manager to touch"
    );
    let m = scheme.heap().stats.snapshot();
    assert_eq!(
        m.commits as usize,
        WRITERS * WRITES_PER_THREAD + READERS * READS_PER_THREAD
    );
    // Increments were serialized by first-updater-wins: none lost.
    let total: i64 = oids
        .iter()
        .map(|&o| scheme.env().read_named(o, "counter", "n").as_int().unwrap())
        .sum();
    assert_eq!(total, (WRITERS * WRITES_PER_THREAD) as i64);

    // The writers' own reclamation batches ran under the readers'
    // pinned snapshots and pruned nothing those could still demand (the
    // drift checks above); now every snapshot is gone, and one full
    // sweep empties the version chains.
    scheme.heap().gc();
    assert_eq!(
        scheme.heap().live_versions(),
        0,
        "GC must reclaim everything"
    );
    assert_eq!(scheme.heap().live_chains(), 0, "no chain anchor is left");
    let m = scheme.heap().stats.snapshot();
    assert!(m.versions_reclaimed > 0);
    assert_eq!(m.versions_created, m.versions_reclaimed);
    assert_eq!(m.begins, m.commits + m.aborts);
    // A second sweep finds nothing: the first left no chain, and it
    // drained the reclaim queues of every entry it covered.
    assert_eq!(scheme.heap().gc(), 0);
}

#[test]
fn extent_ops_and_instance_ops_mix_safely() {
    let (scheme, oids) = setup(SchemeKind::Tav, 6);
    let env = scheme.env().clone();
    let counter = env.schema.class_by_name("counter").unwrap();
    std::thread::scope(|s| {
        for t in 0..3 {
            let scheme = Arc::clone(&scheme);
            let oids = oids.clone();
            s.spawn(move || {
                for i in 0..30 {
                    if (t + i) % 7 == 0 {
                        let out = run_txn(scheme.as_ref(), 100, |txn| {
                            scheme
                                .send_all(txn, counter, "inc", &[Value::Int(1)])
                                .map(|_| Value::Nil)
                        });
                        assert!(out.is_committed());
                    } else {
                        let oid = oids[i % oids.len()];
                        let out = run_txn(scheme.as_ref(), 100, |txn| {
                            scheme.send(txn, oid, "inc", &[Value::Int(1)])
                        });
                        assert!(out.is_committed());
                    }
                }
            });
        }
    });
    // n per instance == bumps per instance (inc always notes).
    for &o in &oids {
        assert_eq!(
            env.read_named(o, "counter", "n"),
            env.read_named(o, "counter", "bumps"),
            "inc/note atomicity violated"
        );
    }
}

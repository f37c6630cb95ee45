//! Serializability checker: a concurrent execution under each scheme
//! must be equivalent to *some* serial execution — and under strict 2PL
//! the commit order (sequence drawn while locks are held) is such an
//! order for conflicting transactions; transactions the scheme allowed
//! to overlap were only allowed because they commute, so replaying in
//! commit order must reproduce the exact final database state.
//!
//! This is the strongest end-to-end correctness check in the suite: it
//! would catch a wrong commutativity matrix (allowing non-commuting
//! overlap), a broken lock manager, or a broken undo path.
//!
//! The mvcc scheme participates by a deliberate property of THIS schema:
//! every method's read set is contained in its own write set (the only
//! cross-object read, `peer`, is never written after setup), so every
//! snapshot-isolation anomaly would coincide with a write-write conflict
//! — which first-updater-wins refuses — and commit-timestamp order is a
//! true serialization order here. Do not add a method that reads a
//! mutable field it does not write (the write-skew shape): under mvcc
//! such a schema is serializable only modulo write skew, and this test
//! would start failing nondeterministically for mvcc alone. That
//! anomaly is pinned separately in `tests/snapshot_isolation.rs`.

use finecc::model::{Oid, Value};
use finecc::runtime::{CcScheme, Env, SchemeKind, TxnOutcome};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// A mix of commuting and conflicting methods, with an override and a
/// cross-instance send thrown in.
const SCHEMA: &str = r#"
class item {
  fields { a: integer; b: integer; peer: item; }
  method add_a(n) is a := a + n end
  method add_b(n) is b := b + n end
  method mix(n) is
    a := a + b;
    send add_b(n) to self
  end
  method poke(n) is
    if peer <> nil then
      send add_a(n) to peer
    end
  end
}
class special inherits item {
  fields { c: integer; }
  method add_a(n) is redefined as
    send item.add_a(n) to self;
    c := c + 1
  end
}
"#;

#[derive(Clone, Debug)]
struct Op {
    oid_index: usize,
    method: &'static str,
    arg: i64,
}

fn build_env() -> (Env, Vec<Oid>) {
    let env = Env::from_source(SCHEMA).unwrap();
    let item = env.schema.class_by_name("item").unwrap();
    let special = env.schema.class_by_name("special").unwrap();
    let peer = env.schema.resolve_field(item, "peer").unwrap();
    let mut oids = Vec::new();
    for i in 0..6 {
        let class = if i % 2 == 0 { item } else { special };
        oids.push(env.db.create(class));
    }
    // Ring of peers for `poke`.
    for i in 0..oids.len() {
        env.db
            .write(oids[i], peer, Value::Ref(oids[(i + 1) % oids.len()]))
            .unwrap();
    }
    (env, oids)
}

fn gen_ops(seed: u64, n: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let methods = ["add_a", "add_b", "mix", "poke"];
    (0..n)
        .map(|_| Op {
            oid_index: rng.random_range(0..6),
            method: methods[rng.random_range(0..methods.len())],
            arg: rng.random_range(1..10),
        })
        .collect()
}

fn run_op(scheme: &dyn CcScheme, oids: &[Oid], op: &Op) -> TxnOutcome<u64> {
    finecc::runtime::run_txn(scheme, 100, |txn| {
        scheme.send(txn, oids[op.oid_index], op.method, &[Value::Int(op.arg)])?;
        Ok(Value::Nil)
    })
    .value()
    .map(|_| TxnOutcome::Committed {
        value: 0,
        retries: 0,
    })
    .unwrap_or(TxnOutcome::Exhausted { retries: 0 })
}

#[test]
fn concurrent_execution_equals_commit_order_replay() {
    for kind in SchemeKind::ALL {
        let (env, oids) = build_env();
        let ops = gen_ops(42, 240);
        let scheme: Arc<dyn CcScheme> = Arc::from(kind.build(env));
        let committed: Arc<Mutex<Vec<(u64, usize)>>> = Arc::new(Mutex::new(Vec::new()));
        let next = Arc::new(AtomicUsize::new(0));

        std::thread::scope(|s| {
            for _ in 0..4 {
                let scheme = Arc::clone(&scheme);
                let committed = Arc::clone(&committed);
                let next = Arc::clone(&next);
                let ops = &ops;
                let oids = &oids;
                s.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= ops.len() {
                        break;
                    }
                    let op = &ops[i];
                    // Inline retry loop so we capture the commit seq.
                    loop {
                        let mut txn = scheme.begin();
                        match scheme.send(
                            &mut txn,
                            oids[op.oid_index],
                            op.method,
                            &[Value::Int(op.arg)],
                        ) {
                            Ok(_) => match scheme.commit(txn) {
                                // A refused commit (mvcc-ssi validation)
                                // was already rolled back: retry whole.
                                Ok(seq) => {
                                    committed.lock().unwrap().push((seq, i));
                                    break;
                                }
                                Err(e) if e.is_deadlock() => {
                                    std::thread::yield_now();
                                }
                                Err(e) => panic!("{kind}: unexpected commit error {e}"),
                            },
                            Err(e) if e.is_deadlock() => {
                                scheme.abort(txn);
                                std::thread::yield_now();
                            }
                            Err(e) => panic!("{kind}: unexpected error {e}"),
                        }
                    }
                });
            }
        });

        let concurrent_state = scheme.env().db.snapshot();

        // Replay serially, in commit order, on a fresh database.
        let (env2, oids2) = build_env();
        let replay: Arc<dyn CcScheme> = Arc::from(SchemeKind::Tav.build(env2));
        let mut order = committed.lock().unwrap().clone();
        assert_eq!(order.len(), ops.len(), "{kind}: every op must commit");
        order.sort_unstable();
        // Commit sequences must be unique.
        for w in order.windows(2) {
            assert_ne!(w[0].0, w[1].0, "{kind}: duplicate commit sequence");
        }
        for (_, i) in &order {
            let op = &ops[*i];
            match run_op(replay.as_ref(), &oids2, op) {
                TxnOutcome::Committed { .. } => {}
                other => panic!("replay failed: {other:?}"),
            }
        }
        let serial_state = replay.env().db.snapshot();

        assert_eq!(
            concurrent_state, serial_state,
            "{kind}: concurrent execution is not equivalent to its commit-order serialization"
        );
    }
}

/// Writer commits are strictly increasing under all six schemes: the
/// history check's version order is this commit order.
#[test]
fn commit_sequences_are_monotone_per_scheme() {
    for kind in SchemeKind::ALL {
        let (env, oids) = build_env();
        let scheme = kind.build(env);
        let mut last = None;
        for _ in 0..10 {
            let mut txn = scheme.begin();
            scheme
                .send(&mut txn, oids[0], "add_a", &[Value::Int(1)])
                .unwrap();
            let seq = scheme.commit(txn).unwrap();
            if let Some(prev) = last {
                assert!(seq > prev, "{kind}: {seq} after {prev}");
            }
            last = Some(seq);
        }
    }
}

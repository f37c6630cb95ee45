//! Property-based tests over randomly generated schemas: the algebraic
//! invariants of the paper's construction must hold for *every* program,
//! not just Figure 1.

use finecc::core::{AccessMode, AccessVector};
use finecc::lang::{DataAccess, ExecError, Interpreter};
use finecc::model::{
    ClassId, FieldId, FieldType, Instance, MethodId, Oid, SchemaBuilder, TxnId, Value,
};
use finecc::mvcc::{CommitError, IsolationLevel, MvccHeap, MvccTxn, MvccWriteError};
use finecc::runtime::Env;
use finecc::sim::history::{History, Op, Record};
use finecc::sim::workload::{generate_env, SchemaGenConfig};
use finecc::store::Database;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

fn cfg_strategy() -> impl Strategy<Value = SchemaGenConfig> {
    (
        1usize..14,
        any::<u64>(),
        0usize..5,
        1usize..6,
        0.0f64..1.0,
        0.0f64..0.8,
    )
        .prop_map(
            |(classes, seed, min_f, methods_hi, write_prob, self_call_prob)| SchemaGenConfig {
                classes,
                seed,
                fields_per_class: (min_f, min_f + 3),
                methods_per_class: (1, methods_hi),
                write_prob,
                self_call_prob,
                ..SchemaGenConfig::default()
            },
        )
}

/// A one-class fixture for driving the version heap directly.
fn mvcc_fixture(level: IsolationLevel, objects: usize) -> (Arc<MvccHeap>, Vec<Oid>, FieldId) {
    let mut b = SchemaBuilder::new();
    b.class("obj").field("v", FieldType::Int);
    let schema = Arc::new(b.finish().unwrap());
    let db = Arc::new(Database::new(Arc::clone(&schema)));
    let heap = Arc::new(MvccHeap::with_isolation(db, level));
    let class = schema.class_by_name("obj").unwrap();
    let field = schema.resolve_field(class, "v").unwrap();
    let oids: Vec<Oid> = (0..objects).map(|_| heap.base().create(class)).collect();
    (heap, oids, field)
}

/// One step of a randomly interleaved read/write MVCC history over four
/// transaction slots and five objects ([`run_slots`]).
#[derive(Clone, Debug)]
enum SsiStep {
    /// Read object `oid` in slot `slot`'s open transaction.
    Read { slot: usize, oid: usize },
    /// Write to object `oid` in slot `slot`'s open transaction; the
    /// value is the step's position in the script, unique per attempt.
    Write { slot: usize, oid: usize },
    /// Commit slot's open transaction, if any.
    Commit(usize),
    /// Abort slot's open transaction, if any.
    Abort(usize),
}

fn ssi_step_strategy() -> impl Strategy<Value = SsiStep> {
    // The Read and Write arms appear twice ON PURPOSE: the vendored
    // proptest has no weighted prop_oneof!, and duplication gives the
    // 2:2:1:1 read/write-vs-commit/abort mix that keeps transactions
    // alive long enough to interleave.
    prop_oneof![
        (0usize..4, 0usize..5).prop_map(|(slot, oid)| SsiStep::Read { slot, oid }),
        (0usize..4, 0usize..5).prop_map(|(slot, oid)| SsiStep::Write { slot, oid }),
        (0usize..4, 0usize..5).prop_map(|(slot, oid)| SsiStep::Read { slot, oid }),
        (0usize..4, 0usize..5).prop_map(|(slot, oid)| SsiStep::Write { slot, oid }),
        (0usize..4).prop_map(SsiStep::Commit),
        (0usize..4).prop_map(SsiStep::Abort),
    ]
}

/// Runs `steps` against a fresh five-object heap at `level`, each slot a
/// session, then commits every slot still open, and returns the heap and
/// its recorded history, which ends with one read of the base store. A
/// commit the heap refuses is recorded as an abort; only `Serializable`
/// validation may refuse one — a snapshot-level commit is infallible.
fn run_slots(level: IsolationLevel, steps: Vec<SsiStep>) -> (Arc<MvccHeap>, History) {
    let (heap, oids, field) = mvcc_fixture(level, 5);
    let int = |v: Value| v.as_int().expect("obj.v is an integer");
    let mut open: Vec<Option<(MvccTxn, Record)>> = (0..4).map(|_| None).collect();
    let mut history = History::default();
    let closing = (0..open.len()).map(SsiStep::Commit);
    for (i, step) in steps.into_iter().chain(closing).enumerate() {
        if let SsiStep::Read { slot, .. } | SsiStep::Write { slot, .. } = step {
            if open[slot].is_none() {
                // A slot opens at most once per step: the id is unique.
                let txn = heap.session(TxnId(i as u64 + 1));
                let record = Record {
                    session: slot as u32,
                    op: i as u32,
                    read_point: txn.ts(),
                    ..Record::default()
                };
                open[slot] = Some((txn, record));
            }
        }
        let (slot, commit) = match step {
            SsiStep::Read { slot, oid } => {
                let (txn, record) = open[slot].as_mut().expect("opened above");
                let v = heap.read_as(txn, oids[oid], field).expect("object exists");
                record.ops.push(Op::Read((oids[oid], field), int(v)));
                continue;
            }
            SsiStep::Write { slot, oid } => {
                let (txn, record) = open[slot].as_mut().expect("opened above");
                let val = i as i64 + 1;
                record.ops.push(Op::Write((oids[oid], field), val));
                match heap.write_at(txn, oids[oid], field, Value::Int(val)) {
                    Ok(_) => continue,
                    // First-updater-wins refusal: the transaction aborts,
                    // like a deadlock victim would.
                    Err(MvccWriteError::Conflict(_)) => (slot, false),
                    Err(e) => panic!("unexpected write error: {e}"),
                }
            }
            SsiStep::Commit(slot) => (slot, true),
            SsiStep::Abort(slot) => (slot, false),
        };
        let Some((txn, mut record)) = open[slot].take() else {
            continue;
        };
        record.commit = if commit {
            match heap.commit_session(txn) {
                Ok(ts) => Some(ts),
                // Refused by validation, and already rolled back.
                Err(_) if level == IsolationLevel::Serializable => None,
                Err(e) => panic!("snapshot-level commit is infallible: {e:?}"),
            }
        } else {
            heap.abort_session(txn);
            None
        };
        history.txns.push(record);
    }
    let last = oids.iter().map(|&oid| {
        let v = heap.base().read(oid, field).expect("object exists");
        Op::Read((oid, field), int(v))
    });
    history.txns.push(Record {
        session: 4,
        read_point: u64::MAX,
        commit: Some(u64::MAX),
        ops: last.collect(),
        ..Record::default()
    });
    (heap, history)
}

fn av_strategy() -> impl Strategy<Value = AccessVector> {
    proptest::collection::vec((0u32..24, 0u8..3), 0..12).prop_map(|pairs| {
        AccessVector::from_pairs(pairs.into_iter().map(|(f, m)| {
            let mode = match m {
                0 => AccessMode::Null,
                1 => AccessMode::Read,
                _ => AccessMode::Write,
            };
            (FieldId(f), mode)
        }))
    })
}

/// What one message did, as the interpreter's hooks saw it.
#[derive(Default)]
struct Footprint {
    reads: Vec<(Oid, FieldId)>,
    writes: Vec<(Oid, FieldId)>,
    self_messages: Vec<(ClassId, MethodId)>,
}

/// An unchecked in-memory store that records every hook.
struct RecordingStore<'e> {
    env: &'e Env,
    heap: HashMap<Oid, Instance>,
    seen: Footprint,
}

impl DataAccess for RecordingStore<'_> {
    fn class_of(&mut self, oid: Oid) -> Result<ClassId, ExecError> {
        self.heap
            .get(&oid)
            .map(|i| i.class)
            .ok_or(ExecError::UnknownOid(oid))
    }
    fn read_field(&mut self, oid: Oid, field: FieldId) -> Result<Value, ExecError> {
        self.seen.reads.push((oid, field));
        self.heap[&oid]
            .get(&self.env.schema, field)
            .cloned()
            .ok_or(ExecError::FieldNotVisible { oid, field })
    }
    fn write_field(&mut self, oid: Oid, field: FieldId, value: Value) -> Result<(), ExecError> {
        self.seen.writes.push((oid, field));
        let inst = self.heap.get_mut(&oid).expect("receiver exists");
        inst.set(&self.env.schema, field, value)
            .map(drop)
            .ok_or(ExecError::FieldNotVisible { oid, field })
    }
    fn on_self_message(&mut self, _: Oid, c: ClassId, m: MethodId) -> Result<(), ExecError> {
        self.seen.self_messages.push((c, m));
        Ok(())
    }
}

/// "TAV ⊇ execution": sends every visible method of every class to each
/// of that class's instances in `receivers` and checks that every field
/// access on the receiver is admitted by the top message's transitive
/// access vector in the receiver's class, and that every self-directed
/// message the hooks saw is a vertex the late-binding graph reaches from
/// the top one. What is locked and undone is derived from exactly these.
fn assert_tav_covers_execution(env: &Env, receivers: &[(Oid, Instance)]) -> Result<(), String> {
    let interp = Interpreter::new(&env.schema, &env.bodies, &env.builtins);
    for (oid, inst) in receivers {
        let class = inst.class;
        let table = env.compiled.class(class);
        let graph = env.compiled.graph(class);
        for (name, mid) in &env.schema.class(class).methods {
            let mut store = RecordingStore {
                env,
                heap: HashMap::from([(*oid, inst.clone())]),
                seen: Footprint::default(),
            };
            let args = vec![Value::Int(1); env.schema.method(*mid).sig.params.len()];
            // The outcome is beside the point: whatever ran, ran covered.
            let _ = interp.send(&mut store, *oid, name, &args);
            let tav = table.tav(table.index_of(name).expect("visible method"));
            let what = format!("{name} on a {}", env.schema.class(class).name);
            for (o, f) in &store.seen.reads {
                if o == oid && tav.mode_of(*f).is_null() {
                    return Err(format!("{what} read {f} outside its vector {tav:?}"));
                }
            }
            for (o, f) in &store.seen.writes {
                if o == oid && !tav.mode_of(*f).is_write() {
                    return Err(format!("{what} wrote {f} outside its vector {tav:?}"));
                }
            }
            let top = graph.vertex_of(*mid).expect("class methods are vertices");
            let mut reached = vec![false; graph.vertex_count()];
            let mut work = vec![top];
            while let Some(v) = work.pop() {
                if !std::mem::replace(&mut reached[v], true) {
                    work.extend(graph.edges[v].iter().map(|&w| w as usize));
                }
            }
            for (c, m) in &store.seen.self_messages {
                let predicted = *c == class && graph.vertex_of(*m).is_some_and(|v| reached[v]);
                if !predicted {
                    return Err(format!(
                        "{what} self-sent {m}, which its graph does not reach"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// The hand-written shadowing cases: a `var` in a branch or a loop, a
/// `var` after the field was used, a `var` re-declaring a parameter —
/// each run with the branch taken and not taken.
#[test]
fn tav_covers_execution_of_the_shadowing_cases() {
    let src = r#"
class acct {
  fields { balance: integer; flag: boolean; n: integer; }
  method sneaky(v) is
    if flag then var balance := 0 end;
    balance := v
  end
  method peek is
    if flag then var t := balance end;
    return t
  end
  method late(v) is
    balance := v;
    var balance := 1;
    balance := balance + 1;
    send sneaky(balance) to self
  end
  method looped is
    var i := 0;
    while i < 2 do
      n := n + 1;
      var n := 10;
      i := i + 1
    end;
    return n
  end
  method redeclare(flag) is
    if flag then var flag := balance else n := flag end;
    return flag
  end
}
class sub inherits acct {
  fields { extra: integer; }
  method sneaky(v) is redefined as
    send acct.sneaky(v) to self;
    if extra > 0 then var extra := 0 end;
    extra := v
  end
}
"#;
    let env = Env::from_source(src).unwrap();
    let flag = env
        .schema
        .resolve_field(env.schema.class_by_name("acct").unwrap(), "flag")
        .unwrap();
    let mut receivers = Vec::new();
    for ci in env.schema.classes() {
        for taken in [false, true] {
            let mut inst = Instance::new(&env.schema, ci.id);
            inst.set(&env.schema, flag, Value::Bool(taken));
            receivers.push((Oid(receivers.len() as u64 + 1), inst));
        }
    }
    assert_tav_covers_execution(&env, &receivers).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Join is a semilattice on arbitrary vectors (Property 1).
    #[test]
    fn av_join_semilattice(a in av_strategy(), b in av_strategy(), c in av_strategy()) {
        prop_assert_eq!(&a.join(&a), &a);
        prop_assert_eq!(a.join(&b), b.join(&a));
        prop_assert_eq!(a.join(&b).join(&c), a.join(&b.join(&c)));
        // Least upper bound.
        prop_assert!(a.le(&a.join(&b)));
        prop_assert!(b.le(&a.join(&b)));
    }

    /// Commutativity (Definition 5) is symmetric, and joining can only
    /// destroy commutativity, never create it (monotone conservatism).
    #[test]
    fn av_commutes_symmetric_and_antitone(a in av_strategy(), b in av_strategy(), c in av_strategy()) {
        prop_assert_eq!(a.commutes(&b), b.commutes(&a));
        if !a.commutes(&b) {
            prop_assert!(!a.join(&c).commutes(&b), "join must preserve conflicts");
        }
    }

    /// For every generated schema: the compiler succeeds and, per class
    /// and method, TAV ⊒ DAV pointwise, TAVs satisfy the Definition 10
    /// fixpoint over the late-binding graph, SCC members share TAVs, and
    /// the generated matrix agrees with raw vector commutativity.
    #[test]
    fn compiled_schema_invariants(cfg in cfg_strategy()) {
        let env = generate_env(&cfg);
        let schema = &env.schema;
        let compiled = &env.compiled;

        for ci in schema.classes() {
            let table = compiled.class(ci.id);
            let graph = compiled.graph(ci.id);
            let tavs = &compiled.vertex_tavs[ci.id.index()];

            // Matrix is symmetric and matches the raw vectors.
            for i in 0..table.mode_count() {
                prop_assert!(table.dav(i).le(table.tav(i)), "TAV ⊒ DAV");
                for j in 0..table.mode_count() {
                    prop_assert_eq!(table.commute(i, j), table.commute(j, i));
                    prop_assert_eq!(
                        table.commute(i, j),
                        table.tav(i).commutes(table.tav(j)),
                        "matrix must equal vector commutativity"
                    );
                }
            }

            // Definition 10 fixpoint: TAV(v) = DAV(v) ⊔ ⨆ TAV(succ).
            for (v, outs) in graph.edges.iter().enumerate() {
                let mut expect = compiled.extraction.dav(graph.verts[v]).clone();
                for &w in outs {
                    expect.join_assign(&tavs[w as usize]);
                }
                prop_assert_eq!(&tavs[v], &expect, "fixpoint at vertex {}", v);
            }
        }
    }

    /// "TAV ⊇ execution" over generated programs: the vector the
    /// compiler derived from the resolved body covers every access the
    /// interpreter makes running that same body.
    #[test]
    fn tav_covers_execution(cfg in cfg_strategy()) {
        let env = generate_env(&cfg);
        let receivers: Vec<(Oid, Instance)> = env
            .schema
            .classes()
            .map(|ci| (Oid(ci.id.index() as u64 + 1), Instance::new(&env.schema, ci.id)))
            .collect();
        if let Err(violation) = assert_tav_covers_execution(&env, &receivers) {
            prop_assert!(false, "{}", violation);
        }
    }

    /// Reader-only methods never conflict with each other, in any class
    /// of any generated schema.
    #[test]
    fn readers_always_commute(cfg in cfg_strategy()) {
        let env = generate_env(&cfg);
        for ci in env.schema.classes() {
            let table = env.compiled.class(ci.id);
            let readers: Vec<usize> = (0..table.mode_count())
                .filter(|&i| table.tav(i).is_read_only())
                .collect();
            for &i in &readers {
                for &j in &readers {
                    prop_assert!(table.commute(i, j), "two readers must commute");
                }
            }
        }
    }

    /// The RW collapse is coarser than commutativity: whenever the RW
    /// classification says two methods are compatible (reader-reader),
    /// the commutativity matrix agrees — TAVs only ever ADD parallelism.
    /// And mvcc's first-updater-wins rule only ever adds to TAVs: two
    /// methods that may write the same field (the only pairs `mvcc`
    /// refuses) never commute.
    #[test]
    fn tav_dominates_rw(cfg in cfg_strategy()) {
        let env = generate_env(&cfg);
        for ci in env.schema.classes() {
            let table = env.compiled.class(ci.id);
            for i in 0..table.mode_count() {
                for j in 0..table.mode_count() {
                    let rw_compatible = table.tav(i).is_read_only() && table.tav(j).is_read_only();
                    if rw_compatible {
                        prop_assert!(table.commute(i, j));
                    }
                    let ww_overlap = table
                        .tav(i)
                        .write_fields()
                        .any(|f| table.tav(j).write_fields().any(|g| g == f));
                    prop_assert!(
                        !(ww_overlap && table.commute(i, j)),
                        "modes {} and {} may write one field yet commute", i, j
                    );
                }
            }
        }
    }

    /// Undo round-trip: any prefix of writes on a random instance is
    /// fully reverted by the log.
    #[test]
    fn undo_roundtrip(cfg in cfg_strategy(), writes in proptest::collection::vec((0u32..64, -50i64..50), 1..20)) {
        use finecc::store::UndoLog;
        use finecc::model::Value;

        let env = generate_env(&cfg);
        // Pick the class with the most fields.
        let Some(ci) = env.schema.classes().max_by_key(|c| c.all_fields.len()) else {
            return Ok(());
        };
        if ci.all_fields.is_empty() {
            return Ok(());
        }
        let class = ci.id;
        let fields = ci.all_fields.clone();
        let oid = env.db.create(class);
        let before = env.db.snapshot();

        let mut log = UndoLog::new();
        for (fsel, v) in writes {
            let f = fields[fsel as usize % fields.len()];
            let old = env.db.write(oid, f, Value::Int(v)).unwrap();
            log.record(oid, f, old);
        }
        log.rollback(&env.db);
        prop_assert_eq!(env.db.snapshot(), before);
    }

    /// Snapshot-isolation safety: in ANY interleaved history the mvcc
    /// heap admits, committed transactions that ran concurrently have
    /// disjoint write sets (no write-write conflicts survive
    /// first-updater-wins validation), the history check finds only
    /// what snapshot isolation admits — every read and the final store
    /// state replay the commit-timestamp order, aborted transactions
    /// leave no trace — and GC drains every superseded version once no
    /// snapshot is live.
    #[test]
    fn mvcc_committed_histories_are_ww_conflict_free(
        steps in proptest::collection::vec(ssi_step_strategy(), 1..60)
    ) {
        let (heap, history) = run_slots(IsolationLevel::Snapshot, steps);

        // (1) Concurrent committed transactions never share an object.
        let writers: Vec<(u64, u64, HashSet<Oid>)> = history
            .txns
            .iter()
            .filter_map(|r| {
                let written = r.ops.iter().filter_map(|op| match op {
                    Op::Write((oid, _), _) => Some(*oid),
                    Op::Read(..) => None,
                });
                Some((r.read_point, r.commit?, written.collect()))
            })
            .collect();
        for (i, (a_begin, a_commit, a_writes)) in writers.iter().enumerate() {
            for (b_begin, b_commit, b_writes) in &writers[i + 1..] {
                let concurrent = a_begin < b_commit && b_begin < a_commit;
                prop_assert!(
                    !concurrent || a_writes.is_disjoint(b_writes),
                    "concurrent commits share a written object: \
                     [{a_begin},{a_commit}) vs [{b_begin},{b_commit})"
                );
            }
        }

        // (2) The history check, under snapshot isolation's contract.
        let found = history.check();
        prop_assert!(found.iter().all(|v| v.admitted(false)), "{:?}", found);

        // (3) No transaction is live: GC reclaims the whole history —
        // what the commits' own batches left, and nothing twice.
        heap.gc();
        prop_assert_eq!(heap.live_versions(), 0);
        prop_assert_eq!(heap.live_chains(), 0);
        let m = heap.stats.snapshot();
        prop_assert_eq!(m.versions_created, m.versions_reclaimed);
        prop_assert_eq!(m.begins, m.commits + m.aborts);
    }

    /// Snapshot stability: a snapshot taken mid-history returns the same
    /// values no matter how many transactions commit after it.
    #[test]
    fn mvcc_snapshots_are_stable(
        prefix in proptest::collection::vec((0usize..4, -50i64..50), 0..12),
        suffix in proptest::collection::vec((0usize..4, -50i64..50), 0..12),
    ) {
        let (heap, oids, field) = mvcc_fixture(IsolationLevel::Snapshot, 4);
        let mut next_id = 1u64;
        let mut run = |writes: &[(usize, i64)], heap: &Arc<MvccHeap>| {
            for &(oid, val) in writes {
                let mut txn = heap.session(TxnId(next_id));
                next_id += 1;
                heap.write_at(&mut txn, oids[oid], field, Value::Int(val))
                    .expect("serial writers never conflict");
                heap.commit_session(txn).expect("serial writers never conflict");
            }
        };
        run(&prefix, &heap);
        let snap = heap.snapshot();
        let observed: Vec<Value> = oids
            .iter()
            .map(|&o| snap.read(o, field).expect("object exists"))
            .collect();
        run(&suffix, &heap);
        // Neither the suffix's own reclamation batches nor a full GC
        // while the snapshot is live may steal its versions.
        heap.gc();
        for (i, &oid) in oids.iter().enumerate() {
            prop_assert_eq!(
                snap.read(oid, field).expect("object exists"),
                observed[i].clone(),
                "snapshot view drifted for {}",
                oid
            );
        }
        // Once it is released, the history is reclaimable to the last
        // record and the counters balance.
        drop(snap);
        heap.gc();
        prop_assert_eq!((heap.live_versions(), heap.live_chains()), (0, 0));
        let m = heap.stats.snapshot();
        prop_assert_eq!(m.versions_created, m.versions_reclaimed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Serializability of every history `mvcc-ssi` admits, judged by the
    /// history check: each slot is a session, every attempt is recorded
    /// with the values it read and wrote, and the base store is read
    /// once at the end. Dangerous-structure aborts are allowed
    /// (flag-based SSI over-aborts); admitting a non-serializable
    /// history — or a final state no commit order explains — is not.
    #[test]
    fn mvcc_ssi_committed_histories_are_serializable(
        steps in proptest::collection::vec(ssi_step_strategy(), 1..70)
    ) {
        let found = run_slots(IsolationLevel::Serializable, steps).1.check();
        prop_assert!(found.is_empty(), "{:?}", found);
    }
}

/// The false-positive counter the granularity argument promises: on a
/// read-heavy workload where every reader's read set is overwritten
/// mid-flight but nobody reads what the readers write, naive read-set
/// revalidation ("abort if anything you read changed before you
/// committed") would abort EVERY reader, while SSI — which needs a
/// second, outgoing rw edge to complete a dangerous structure — aborts
/// none: strictly fewer, here zero.
#[test]
fn ssi_aborts_strictly_fewer_than_naive_read_set_revalidation() {
    const ROUNDS: u64 = 100;
    let (heap, oids, field) = mvcc_fixture(IsolationLevel::Serializable, 1 + ROUNDS as usize);
    let hot = oids[0];
    let mut naive_aborts = 0u64;
    let mut next_id = 1u64;
    for i in 0..ROUNDS {
        let mut reader = heap.session(TxnId(next_id));
        let mut writer = heap.session(TxnId(next_id + 1));
        next_id += 2;
        let r_begin = reader.ts();
        heap.read_as(&mut reader, hot, field)
            .expect("object exists");
        heap.write_at(&mut writer, hot, field, Value::Int(i as i64))
            .expect("reader holds no write lock — nothing blocks the writer");
        let w_commit = heap
            .commit_session(writer)
            .expect("an incoming edge alone is no dangerous structure");
        // The reader now writes something nobody reads and commits.
        heap.write_at(
            &mut reader,
            oids[1 + i as usize],
            field,
            Value::Int(i as i64),
        )
        .expect("private object: no conflict");
        let r_commit = heap
            .commit_session(reader)
            .expect("an outgoing edge alone is no dangerous structure");
        // Naive read-set revalidation aborts this reader: its read of
        // `hot` was overwritten by a commit inside its lifetime.
        assert!(r_begin < w_commit && w_commit < r_commit);
        naive_aborts += 1;
    }
    let stats = heap.stats.snapshot();
    assert_eq!(
        naive_aborts, ROUNDS,
        "naive revalidation aborts every reader"
    );
    assert_eq!(stats.ssi_aborts, 0, "no dangerous structure ever completes");
    assert!(
        stats.ssi_aborts < naive_aborts,
        "SSI must abort strictly fewer transactions than read-set revalidation"
    );
    assert!(stats.ssi_edges >= ROUNDS, "the rw edges were still tracked");
    assert_eq!(stats.commits, 2 * ROUNDS);
}

/// Four sessions interleaved step by step on one thread by a seeded
/// xorshift stream: read-only transactions, read-modify-writes and
/// write-skew pairs over three fields, with voluntary aborts,
/// first-updater-wins losers and SSI refusals. The verdicts are
/// deterministic, so the counts are pinned exactly; and the history is
/// recorded and must check clean, so every transaction the tracker lets
/// commit commits serializably.
#[test]
fn ssi_verdicts_of_a_fixed_interleaving() {
    #[derive(Clone, Copy)]
    enum Step {
        Read(usize),
        Write(usize),
        Commit,
        Abort,
    }
    let mut b = SchemaBuilder::new();
    b.class("a")
        .field("x", FieldType::Int)
        .field("y", FieldType::Int);
    let schema = Arc::new(b.finish().unwrap());
    let a = schema.class_by_name("a").unwrap();
    let x = schema.resolve_field(a, "x").unwrap();
    let y = schema.resolve_field(a, "y").unwrap();
    let db = Arc::new(Database::new(schema));
    let heap = MvccHeap::with_isolation(db, IsolationLevel::Serializable);
    let (o1, o2) = (heap.base().create(a), heap.base().create(a));
    let fields = [(o1, x), (o1, y), (o2, x)];
    let int = |v: Value| v.as_int().expect("a's fields are integers");
    let mut state = 1993u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut next_txn = 0;
    // Per session: the running transaction, its remaining steps and its
    // record so far.
    let mut sessions: Vec<Option<(MvccTxn, Vec<Step>, Record)>> = (0..4).map(|_| None).collect();
    let mut history = History::default();
    let mut outcomes = [0u64; 3]; // committed, refused, abandoned
    for step in 0..4_000i64 {
        let s = (next() % 4) as usize;
        let Some((mut txn, mut steps, mut record)) = sessions[s].take() else {
            next_txn += 1;
            let txn = heap.session(TxnId(next_txn));
            let record = Record {
                session: s as u32,
                op: next_txn as u32,
                read_point: txn.ts(),
                ..Record::default()
            };
            let (f, g) = ((next() % 3) as usize, (next() % 3) as usize);
            let end = if next().is_multiple_of(10) {
                Step::Abort
            } else {
                Step::Commit
            };
            // Stored reversed: steps are popped from the back.
            let steps = match next() % 3 {
                0 => vec![end, Step::Read(g), Step::Read(f)],
                1 => vec![end, Step::Write(f), Step::Read(f)],
                _ => vec![end, Step::Write(g), Step::Read(g), Step::Read(f)],
            };
            sessions[s] = Some((txn, steps, record));
            continue;
        };
        let commit = match steps.pop().expect("a session ends at commit or abort") {
            Step::Read(f) => {
                let (o, field) = fields[f];
                let v = heap.read_as(&mut txn, o, field).unwrap();
                record.ops.push(Op::Read((o, field), int(v)));
                sessions[s] = Some((txn, steps, record));
                continue;
            }
            Step::Write(f) => {
                let (o, field) = fields[f];
                record.ops.push(Op::Write((o, field), step));
                match heap.write_at(&mut txn, o, field, Value::Int(step)) {
                    Ok(_) => {
                        sessions[s] = Some((txn, steps, record));
                        continue;
                    }
                    Err(MvccWriteError::Conflict(_)) => {
                        heap.abort_session(txn);
                        outcomes[2] += 1;
                        None
                    }
                    Err(e) => panic!("{e}"),
                }
            }
            Step::Commit => match heap.commit_session(txn) {
                Ok(ts) => {
                    outcomes[0] += 1;
                    Some(ts)
                }
                Err(CommitError::Ssi(_)) => {
                    outcomes[1] += 1;
                    None
                }
                Err(e) => panic!("{e}"),
            },
            Step::Abort => {
                heap.abort_session(txn);
                outcomes[2] += 1;
                None
            }
        };
        record.commit = commit;
        history.txns.push(record);
    }
    assert_eq!(outcomes, [642, 52, 274]);
    let m = heap.stats.snapshot();
    assert_eq!((m.ssi_edges, m.ssi_aborts), (633, 52));
    assert_eq!(m.write_conflicts, 197);
    // The sessions still open abort, and the base store is read last.
    for (txn, _, mut record) in sessions.into_iter().flatten() {
        heap.abort_session(txn);
        record.commit = None;
        history.txns.push(record);
    }
    let last = fields.iter().map(|&(o, field)| {
        let v = heap.base().read(o, field).expect("object exists");
        Op::Read((o, field), int(v))
    });
    history.txns.push(Record {
        session: 4,
        read_point: u64::MAX,
        commit: Some(u64::MAX),
        ops: last.collect(),
        ..Record::default()
    });
    let found = history.check();
    assert!(found.is_empty(), "{found:?}");
}

//! Property-based tests over randomly generated schemas: the algebraic
//! invariants of the paper's construction must hold for *every* program,
//! not just Figure 1.

use finecc::core::{AccessMode, AccessVector};
use finecc::lang::{DataAccess, ExecError, Interpreter};
use finecc::model::{
    ClassId, FieldId, FieldType, Instance, MethodId, Oid, SchemaBuilder, TxnId, Value,
};
use finecc::mvcc::{IsolationLevel, MvccHeap, MvccWriteError};
use finecc::runtime::Env;
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

/// One step of a randomly interleaved multi-transaction MVCC history
/// over four transaction slots and six objects.
#[derive(Clone, Debug)]
enum MvccStep {
    /// Write `val` to object `oid` in slot `slot`'s open transaction
    /// (opening one if needed).
    Write { slot: usize, oid: usize, val: i64 },
    /// Commit slot's open transaction, if any.
    Commit(usize),
    /// Abort slot's open transaction, if any.
    Abort(usize),
}

fn mvcc_step_strategy() -> impl Strategy<Value = MvccStep> {
    prop_oneof![
        (0usize..4, 0usize..6, -100i64..100).prop_map(|(slot, oid, val)| MvccStep::Write {
            slot,
            oid,
            val
        }),
        (0usize..4).prop_map(MvccStep::Commit),
        (0usize..4).prop_map(MvccStep::Abort),
    ]
}

/// A one-class fixture for driving the version heap directly.
fn mvcc_fixture(objects: usize) -> (Arc<MvccHeap>, Vec<Oid>, FieldId) {
    mvcc_fixture_at(IsolationLevel::Snapshot, objects)
}

/// Same fixture at an explicit isolation level.
fn mvcc_fixture_at(level: IsolationLevel, objects: usize) -> (Arc<MvccHeap>, Vec<Oid>, FieldId) {
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
/// transaction slots and five objects, for the SSI serializability
/// property.
#[derive(Clone, Debug)]
enum SsiStep {
    /// Read object `oid` in slot `slot`'s open transaction.
    Read { slot: usize, oid: usize },
    /// Write `val` to object `oid` in slot `slot`'s open transaction.
    Write { slot: usize, oid: usize, val: i64 },
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
        (0usize..4, 0usize..5, -100i64..100).prop_map(|(slot, oid, val)| SsiStep::Write {
            slot,
            oid,
            val
        }),
        (0usize..4, 0usize..5).prop_map(|(slot, oid)| SsiStep::Read { slot, oid }),
        (0usize..4, 0usize..5, -100i64..100).prop_map(|(slot, oid, val)| SsiStep::Write {
            slot,
            oid,
            val
        }),
        (0usize..4).prop_map(SsiStep::Commit),
        (0usize..4).prop_map(SsiStep::Abort),
    ]
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
    /// first-updater-wins validation), the final store state equals the
    /// commit-timestamp-order replay of the committed write sets, aborted
    /// transactions leave no trace, and GC drains every superseded
    /// version once no snapshot is live.
    #[test]
    fn mvcc_committed_histories_are_ww_conflict_free(
        steps in proptest::collection::vec(mvcc_step_strategy(), 1..60)
    ) {
        struct Open {
            id: TxnId,
            begin_ts: u64,
            writes: HashMap<Oid, i64>,
        }
        let (heap, oids, field) = mvcc_fixture(6);
        let mut next_id = 1u64;
        let mut open: Vec<Option<Open>> = (0..4).map(|_| None).collect();
        // Committed transactions: (begin_ts, commit_ts, write set).
        let mut committed: Vec<(u64, u64, HashMap<Oid, i64>)> = Vec::new();

        for step in steps {
            match step {
                MvccStep::Write { slot, oid, val } => {
                    if open[slot].is_none() {
                        let id = TxnId(next_id);
                        next_id += 1;
                        let begin_ts = heap.begin(id);
                        open[slot] = Some(Open { id, begin_ts, writes: HashMap::new() });
                    }
                    let txn = open[slot].as_mut().expect("opened above");
                    match heap.write(txn.id, oids[oid], field, Value::Int(val)) {
                        Ok(_) => {
                            txn.writes.insert(oids[oid], val);
                        }
                        Err(MvccWriteError::Conflict(_)) => {
                            // First-updater-wins refusal: the transaction
                            // aborts, like a deadlock victim would.
                            let txn = open[slot].take().expect("still open");
                            heap.abort(txn.id);
                        }
                        Err(e) => {
                            prop_assert!(false, "unexpected write error: {e}");
                        }
                    }
                }
                MvccStep::Commit(slot) => {
                    if let Some(txn) = open[slot].take() {
                        let commit_ts = heap
                            .commit(txn.id)
                            .expect("snapshot-level commit is infallible");
                        committed.push((txn.begin_ts, commit_ts, txn.writes));
                    }
                }
                MvccStep::Abort(slot) => {
                    if let Some(txn) = open[slot].take() {
                        heap.abort(txn.id);
                    }
                }
            }
        }
        // Close stragglers: commit is infallible for admitted writes.
        for txn in open.into_iter().flatten() {
            let commit_ts = heap
                .commit(txn.id)
                .expect("snapshot-level commit is infallible");
            committed.push((txn.begin_ts, commit_ts, txn.writes));
        }

        // (1) Concurrent committed transactions never share an object.
        for i in 0..committed.len() {
            for j in i + 1..committed.len() {
                let (a_begin, a_commit, a_writes) = &committed[i];
                let (b_begin, b_commit, b_writes) = &committed[j];
                let concurrent = a_begin < b_commit && b_begin < a_commit;
                if concurrent {
                    prop_assert!(
                        a_writes.keys().all(|o| !b_writes.contains_key(o)),
                        "concurrent commits share a written object: \
                         [{a_begin},{a_commit}) vs [{b_begin},{b_commit})"
                    );
                }
            }
        }

        // (2) Final state == last-committer-wins replay in commit order.
        committed.sort_by_key(|(_, commit_ts, _)| *commit_ts);
        let mut expect: HashMap<Oid, i64> = HashMap::new();
        for (_, _, writes) in &committed {
            for (oid, val) in writes {
                expect.insert(*oid, *val);
            }
        }
        for &oid in &oids {
            let got = heap.base().read(oid, field).expect("object exists");
            let want = Value::Int(expect.get(&oid).copied().unwrap_or(0));
            prop_assert_eq!(got, want, "replay mismatch at {}", oid);
        }

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
        let (heap, oids, field) = mvcc_fixture(4);
        let mut next_id = 1u64;
        let mut run = |writes: &[(usize, i64)], heap: &Arc<MvccHeap>| {
            for &(oid, val) in writes {
                let id = TxnId(next_id);
                next_id += 1;
                heap.begin(id);
                heap.write(id, oids[oid], field, Value::Int(val))
                    .expect("serial writers never conflict");
                heap.commit(id).expect("serial writers never conflict");
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

    /// Serializability of every history `mvcc-ssi` admits: over the
    /// committed transactions, the multiversion serialization graph —
    /// ww edges in commit-timestamp (version) order, wr edges from a
    /// version's writer to its readers, rw edges from a version's
    /// readers to the next version's writer — must be acyclic, and (the
    /// snapshot-level oracle, reused) the commit-order replay of the
    /// committed write sets must reproduce the exact final state.
    /// Dangerous-structure aborts are allowed (flag-based SSI
    /// over-aborts); admitting a non-serializable history is not.
    #[test]
    fn mvcc_ssi_committed_histories_are_serializable(
        steps in proptest::collection::vec(ssi_step_strategy(), 1..70)
    ) {
        struct Open {
            id: TxnId,
            begin_ts: u64,
            reads: HashSet<Oid>,
            writes: HashMap<Oid, i64>,
        }
        struct Done {
            begin_ts: u64,
            commit_ts: u64,
            reads: HashSet<Oid>,
            writes: HashMap<Oid, i64>,
        }
        let (heap, oids, field) = mvcc_fixture_at(IsolationLevel::Serializable, 5);
        let mut next_id = 1u64;
        let mut open: Vec<Option<Open>> = (0..4).map(|_| None).collect();
        let mut committed: Vec<Done> = Vec::new();
        let mut ensure_open = |slot: usize,
                               open: &mut Vec<Option<Open>>,
                               heap: &Arc<MvccHeap>| {
            if open[slot].is_none() {
                let id = TxnId(next_id);
                next_id += 1;
                let begin_ts = heap.begin(id);
                open[slot] = Some(Open {
                    id,
                    begin_ts,
                    reads: HashSet::new(),
                    writes: HashMap::new(),
                });
            }
        };

        for step in steps {
            match step {
                SsiStep::Read { slot, oid } => {
                    ensure_open(slot, &mut open, &heap);
                    let txn = open[slot].as_mut().expect("opened above");
                    txn.reads.insert(oids[oid]);
                    heap.read(txn.id, oids[oid], field).expect("object exists");
                }
                SsiStep::Write { slot, oid, val } => {
                    ensure_open(slot, &mut open, &heap);
                    let txn = open[slot].as_mut().expect("opened above");
                    match heap.write(txn.id, oids[oid], field, Value::Int(val)) {
                        Ok(_) => {
                            txn.writes.insert(oids[oid], val);
                        }
                        Err(MvccWriteError::Conflict(_)) => {
                            let txn = open[slot].take().expect("still open");
                            heap.abort(txn.id);
                        }
                        Err(e) => {
                            prop_assert!(false, "unexpected write error: {e}");
                        }
                    }
                }
                SsiStep::Commit(slot) => {
                    if let Some(txn) = open[slot].take() {
                        // A refused commit is already rolled back.
                        if let Ok(commit_ts) = heap.commit(txn.id) {
                            committed.push(Done {
                                begin_ts: txn.begin_ts,
                                commit_ts,
                                reads: txn.reads,
                                writes: txn.writes,
                            });
                        }
                    }
                }
                SsiStep::Abort(slot) => {
                    if let Some(txn) = open[slot].take() {
                        heap.abort(txn.id);
                    }
                }
            }
        }
        for txn in open.into_iter().flatten() {
            if let Ok(commit_ts) = heap.commit(txn.id) {
                committed.push(Done {
                    begin_ts: txn.begin_ts,
                    commit_ts,
                    reads: txn.reads,
                    writes: txn.writes,
                });
            }
        }
        // Read-only transactions serialize at their snapshot timestamp,
        // which writer commit timestamps can collide with; they change
        // no state, so any order among equals satisfies oracle (1), and
        // oracle (2) never consults this order.
        committed.sort_by_key(|t| (t.commit_ts, !t.writes.is_empty()));

        // (1) Final state equals the commit-order replay of the write
        // sets — the same oracle the snapshot-level history test uses.
        let mut expect: HashMap<Oid, i64> = HashMap::new();
        for t in &committed {
            for (oid, val) in &t.writes {
                expect.insert(*oid, *val);
            }
        }
        for &oid in &oids {
            let got = heap.base().read(oid, field).expect("object exists");
            let want = Value::Int(expect.get(&oid).copied().unwrap_or(0));
            prop_assert_eq!(got, want, "replay mismatch at {}", oid);
        }

        // (2) The multiversion serialization graph is acyclic. Node 0 is
        // the virtual initial transaction; nodes 1.. are the committed
        // transactions in commit order.
        let n = committed.len() + 1;
        // Version list per object: (commit_ts, writer node), ascending.
        let mut versions: HashMap<Oid, Vec<(u64, usize)>> = HashMap::new();
        for &oid in &oids {
            versions.insert(oid, vec![(0, 0)]);
        }
        for (i, t) in committed.iter().enumerate() {
            for oid in t.writes.keys() {
                versions.get_mut(oid).expect("fixture object").push((t.commit_ts, i + 1));
            }
        }
        let mut edges: HashSet<(usize, usize)> = HashSet::new();
        for vs in versions.values() {
            for w in vs.windows(2) {
                edges.insert((w[0].1, w[1].1)); // ww, version order
            }
        }
        for (i, t) in committed.iter().enumerate() {
            let node = i + 1;
            for oid in &t.reads {
                let vs = &versions[oid];
                // The version this transaction read: newest at or below
                // its snapshot (its own write, if any, comes later).
                let pos = vs.iter().rposition(|&(ts, _)| ts <= t.begin_ts)
                    .expect("initial version is at ts 0");
                let (_, writer) = vs[pos];
                if writer != node {
                    edges.insert((writer, node)); // wr
                }
                if let Some(&(_, next_writer)) = vs.get(pos + 1) {
                    if next_writer != node {
                        edges.insert((node, next_writer)); // rw
                    }
                }
            }
        }
        // DFS cycle detection.
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(a, b) in &edges {
            succ[a].push(b);
        }
        // 0 = unvisited, 1 = on stack, 2 = done.
        let mut state = vec![0u8; n];
        let mut stack: Vec<(usize, usize)> = Vec::new();
        for start in 0..n {
            if state[start] != 0 {
                continue;
            }
            state[start] = 1;
            stack.push((start, 0));
            while let Some(&mut (v, ref mut k)) = stack.last_mut() {
                if *k < succ[v].len() {
                    let w = succ[v][*k];
                    *k += 1;
                    match state[w] {
                        0 => {
                            state[w] = 1;
                            stack.push((w, 0));
                        }
                        1 => prop_assert!(
                            false,
                            "serialization graph has a cycle through nodes {v} and {w}"
                        ),
                        _ => {}
                    }
                } else {
                    state[v] = 2;
                    stack.pop();
                }
            }
        }
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
    let (heap, oids, field) = mvcc_fixture_at(IsolationLevel::Serializable, 1 + ROUNDS as usize);
    let hot = oids[0];
    let mut naive_aborts = 0u64;
    let mut next_id = 1u64;
    for i in 0..ROUNDS {
        let reader = TxnId(next_id);
        let writer = TxnId(next_id + 1);
        next_id += 2;
        let r_begin = heap.begin(reader);
        heap.read(reader, hot, field).expect("object exists");
        heap.begin(writer);
        heap.write(writer, hot, field, Value::Int(i as i64))
            .expect("reader holds no write lock — nothing blocks the writer");
        let w_commit = heap
            .commit(writer)
            .expect("an incoming edge alone is no dangerous structure");
        // The reader now writes something nobody reads and commits.
        heap.write(reader, oids[1 + i as usize], field, Value::Int(i as i64))
            .expect("private object: no conflict");
        let r_commit = heap
            .commit(reader)
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

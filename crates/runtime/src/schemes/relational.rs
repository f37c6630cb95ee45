//! The relational-decomposition baseline (§3 and §5.2).
//!
//! Each class maps to a relation holding its **locally declared** fields;
//! an instance of class `C` spans one tuple in every relation along `C`'s
//! linearization, joined on the root's primary key (the paper's `f1`,
//! which descendant relations carry as primary + foreign key).
//!
//! Locking follows a classical RDBMS: tuple-level read/write locks with
//! IS/IX-style relation intents (our [`finecc_lock::LockKind::Intentional`] /
//! [`finecc_lock::LockKind::Hierarchical`] give exactly Gray's table for two modes).
//! A **key write propagates**: modifying the primary key of the root
//! relation write-locks the corresponding tuples of every relation of the
//! hierarchy (the FK maintenance the paper invokes to explain why
//! `T1 ∦ T4` relationally, and why both would run if `m2` spared the key).
//!
//! The planner runs once per (class, access mode), when the scheme is
//! built: like the commutativity matrices, the tuple plan of a message
//! depends only on the method late binding resolved, so a top message
//! reads its plan through the receiver's access-mode index and an
//! extent operation joins the plans of its domain's classes.
//!
//! This baseline is what the paper measures itself against: first normal
//! form acts as a *coarse access vector* (§4.2), so it beats RW on
//! disjoint-field writers but still misses the inheritance-aware
//! parallelism of TAVs — the two are incomparable (§5.2).

use crate::env::Env;
use crate::schemes::lock::{
    mode_index, not_understood, rw_mode, LockAccess, LockPolicy, LockScheme, UndoStyle,
};
use finecc_core::{AccessMode, AccessVector};
use finecc_lang::ExecError;
use finecc_lock::{LockMode, ResourceId, RwSource, READ, WRITE};
use finecc_model::{ClassId, MethodId, Oid};
use std::collections::BTreeMap;

/// The relational policy: a top message is a query whose statically
/// analyzed access pattern (its TAV) is locked tuple by tuple, through
/// the tuple plan compiled for its access mode when the scheme was
/// built.
pub struct RelationalPolicy {
    /// `plans[class][mode]`: the tuple plan of access mode `mode` of
    /// `class`'s compiled table.
    plans: Vec<Vec<Vec<(ClassId, u16)>>>,
}

/// Relational decomposition with tuple locking.
pub type RelationalScheme = LockScheme<RelationalPolicy>;

/// The tuple-lock plan of an access vector evaluated on an instance of
/// `class`: which relations are touched, in which RW mode. A key
/// write escalates to write locks across the whole hierarchy (FK
/// propagation).
fn tuple_plan(env: &Env, class: ClassId, av: &AccessVector) -> Vec<(ClassId, u16)> {
    // The hierarchy root closes the linearization; its first
    // locally-declared field is the primary key (if it declares any).
    let linearization = &env.schema.class(class).linearization;
    let root = *linearization.last().expect("linearization contains self");
    let key = env.schema.class(root).own_fields.first();
    if key.is_some_and(|&k| av.mode_of(k).is_write()) {
        let mut rels: Vec<ClassId> = linearization.clone();
        rels.extend_from_slice(env.schema.domain(root));
        rels.sort_unstable();
        rels.dedup();
        return rels.into_iter().map(|c| (c, WRITE)).collect();
    }
    let mut by_rel: BTreeMap<ClassId, AccessMode> = BTreeMap::new();
    for (f, m) in av.iter() {
        let owner = env.schema.field(f).owner;
        let e = by_rel.entry(owner).or_insert(AccessMode::Null);
        *e = e.join(m);
    }
    by_rel.into_iter().map(|(c, m)| (c, rw_mode(m))).collect()
}

impl RelationalPolicy {
    /// The compiled tuple plan of access mode `mode` of `class`:
    /// `(relation, READ | WRITE)` in relation order.
    fn plan(&self, class: ClassId, mode: usize) -> &[(ClassId, u16)] {
        &self.plans[class.index()][mode]
    }

    /// The joined relation-lock plan of an extent operation over the
    /// domain rooted at `root`: each relation in the strongest mode any
    /// domain class's plan locks it in.
    fn extent_plan(
        &self,
        env: &Env,
        root: ClassId,
        method: &str,
    ) -> Result<Vec<(ClassId, u16)>, ExecError> {
        let mut joined: BTreeMap<ClassId, u16> = BTreeMap::new();
        for &c in env.schema.domain(root) {
            for &(rel, m) in self.plan(c, mode_index(env, c, method)?) {
                let e = joined.entry(rel).or_insert(READ);
                *e = (*e).max(m);
            }
        }
        Ok(joined.into_iter().collect())
    }
}

impl LockPolicy for RelationalPolicy {
    type Source = RwSource;
    const NAME: &'static str = "relational";
    const UNDO: UndoStyle = UndoStyle::TavProjection;

    fn source(_: &Env) -> RwSource {
        RwSource
    }

    /// Runs the planner over every access mode of every class.
    fn new(env: &Env) -> Self {
        let plans = env
            .compiled
            .classes()
            .map(|table| {
                (0..table.mode_count())
                    .map(|i| tuple_plan(env, table.class, table.tav(i)))
                    .collect()
            })
            .collect();
        RelationalPolicy { plans }
    }

    fn on_message(
        cx: &mut LockAccess<'_, Self>,
        oid: Oid,
        class: ClassId,
        mid: MethodId,
    ) -> Result<(), ExecError> {
        // The whole top message is the relational "query": its TAV is the
        // statically analyzed access pattern the planner locked for.
        let table = cx.env.compiled.class(class);
        let idx = table
            .index_of_mid(mid)
            .ok_or_else(|| not_understood(class, mid))?;
        for &(rel, m) in cx.policy.plan(class, idx) {
            cx.lock(ResourceId::Relation(rel), LockMode::class(m, false))?;
            cx.lock(ResourceId::Tuple(rel, oid), LockMode::plain(m))?;
        }
        cx.undo_projection(oid, table.tav(idx))
    }

    // on_self_message: default no-op — the plan covered the whole execution.

    fn on_extent(
        cx: &mut LockAccess<'_, Self>,
        root: ClassId,
        method: &str,
        hierarchical: bool,
    ) -> Result<(), ExecError> {
        for (rel, m) in cx.policy.extent_plan(cx.env, root, method)? {
            cx.lock(ResourceId::Relation(rel), LockMode::class(m, hierarchical))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::CcScheme;
    use finecc_lang::parser::FIGURE1_SOURCE;
    use finecc_lock::TryAcquire;
    use finecc_model::Value;

    fn setup() -> (RelationalScheme, Oid, Oid) {
        let env = Env::from_source(FIGURE1_SOURCE).unwrap();
        let c1 = env.schema.class_by_name("c1").unwrap();
        let c2 = env.schema.class_by_name("c2").unwrap();
        let o1 = env.db.create(c1);
        let o2 = env.db.create(c2);
        (RelationalScheme::new(env), o1, o2)
    }

    /// The compiled plan of `method` on `class`.
    fn compiled_plan(s: &RelationalScheme, class: ClassId, method: &str) -> Vec<(ClassId, u16)> {
        let idx = s.env().compiled.class(class).index_of(method).unwrap();
        s.policy.plan(class, idx).to_vec()
    }

    #[test]
    fn key_write_propagates_to_child_relations() {
        // §5.2: "T1 locks one tuple of r1 in write mode and the associated
        // tuple of r2 in write mode too (because f1 … is modified)".
        let (s, _, _) = setup();
        let c1 = s.env().schema.class_by_name("c1").unwrap();
        let c2 = s.env().schema.class_by_name("c2").unwrap();
        let plan = compiled_plan(&s, c1, "m1");
        assert_eq!(plan, vec![(c1, WRITE), (c2, WRITE)]);
    }

    #[test]
    fn non_key_access_locks_touched_relations_only() {
        let (s, _, _) = setup();
        let c1 = s.env().schema.class_by_name("c1").unwrap();
        let c2 = s.env().schema.class_by_name("c2").unwrap();
        // m3 reads f2, f3 (both in r1): plan = {r1: READ}.
        assert_eq!(compiled_plan(&s, c1, "m3"), vec![(c1, READ)]);
        // m4 on c2 touches f5, f6 (both in r2): plan = {r2: WRITE}.
        assert_eq!(compiled_plan(&s, c2, "m4"), vec![(c2, WRITE)]);
    }

    /// A subclass whose methods touch inherited and own fields: plans
    /// that span both relations with and without a key write.
    const TWO_RELATIONS: &str = r#"
class base {
  fields { key: integer; a: integer; }
  method get_a is return a end
  method set_a(v) is a := v end
}
class derived inherits base {
  fields { b: integer; }
  method mix(v) is b := a + v end
  method both(v) is a := v; b := v end
  method rekey(v) is key := v end
}
"#;

    #[test]
    fn the_compiled_table_is_the_planners() {
        for source in [FIGURE1_SOURCE, TWO_RELATIONS] {
            let s = RelationalScheme::new(Env::from_source(source).unwrap());
            let env = s.env();
            for table in env.compiled.classes() {
                assert_eq!(
                    s.policy.plans[table.class.index()].len(),
                    table.mode_count()
                );
                for i in 0..table.mode_count() {
                    assert_eq!(
                        s.policy.plan(table.class, i),
                        tuple_plan(env, table.class, table.tav(i)),
                        "{}.{}",
                        table.class_name,
                        table.method_names[i]
                    );
                }
            }
        }
        // The entries the loop compared: a key write on the root, and
        // plans over inherited and own relations of the subclass.
        let (s, _, _) = setup();
        let c1 = s.env().schema.class_by_name("c1").unwrap();
        let c2 = s.env().schema.class_by_name("c2").unwrap();
        assert_eq!(compiled_plan(&s, c2, "m1"), vec![(c1, WRITE), (c2, WRITE)]);
        let s = RelationalScheme::new(Env::from_source(TWO_RELATIONS).unwrap());
        let base = s.env().schema.class_by_name("base").unwrap();
        let derived = s.env().schema.class_by_name("derived").unwrap();
        let plan = |m| compiled_plan(&s, derived, m);
        assert_eq!(plan("get_a"), vec![(base, READ)]);
        assert_eq!(plan("mix"), vec![(base, READ), (derived, WRITE)]);
        assert_eq!(plan("both"), vec![(base, WRITE), (derived, WRITE)]);
        assert_eq!(plan("rekey"), vec![(base, WRITE), (derived, WRITE)]);
    }

    #[test]
    fn disjoint_relation_writers_parallel() {
        // T-style check: a key-sparing writer in r2 (m4) runs against a
        // reader of r1 (m3) on the same instance.
        let (s, _, o2) = setup();
        let mut t1 = s.begin();
        let mut t2 = s.begin();
        s.send(&mut t1, o2, "m4", &[Value::Int(5), Value::Int(1)])
            .unwrap();
        s.send(&mut t2, o2, "m3", &[]).unwrap();
        s.commit(t1).unwrap();
        s.commit(t2).unwrap();
        assert_eq!(s.lock_manager().stats.snapshot().blocks, 0);
    }

    #[test]
    fn key_writer_blocks_child_relation_extent() {
        // T1 (m1 on a c1 instance, key write → X tuples in r1 and r2)
        // vs T4 (m4 on all of domain c2 → hierarchical X on r2): conflict.
        let (s, o1, _) = setup();
        let mut t1 = s.begin();
        s.send(&mut t1, o1, "m1", &[Value::Int(1)]).unwrap();
        let c2 = s.env().schema.class_by_name("c2").unwrap();
        let probe = s.lm.begin();
        let r = s.lm.try_acquire(
            probe,
            ResourceId::Relation(c2),
            LockMode::class(WRITE, true),
        );
        assert_eq!(r, TryAcquire::WouldBlock);
        s.commit(t1).unwrap();
    }

    #[test]
    fn execution_and_abort_correct() {
        let (s, _, o2) = setup();
        let mut txn = s.begin();
        s.send(&mut txn, o2, "m1", &[Value::Int(3)]).unwrap();
        assert_eq!(s.env().read_named(o2, "c2", "f1"), Value::Int(3));
        s.abort(txn);
        assert_eq!(s.env().read_named(o2, "c2", "f1"), Value::Int(0));
        assert_eq!(s.env().read_named(o2, "c2", "f4"), Value::Int(0));
    }

    #[test]
    fn extent_plan_joins_domain() {
        let (s, _, _) = setup();
        let c1 = s.env().schema.class_by_name("c1").unwrap();
        let c2 = s.env().schema.class_by_name("c2").unwrap();
        // m1 over domain(c1): key write in both classes → both relations X.
        let plan = s.policy.extent_plan(s.env(), c1, "m1").unwrap();
        assert_eq!(plan, vec![(c1, WRITE), (c2, WRITE)]);
        // m3 over domain(c1): reads r1 only.
        let plan = s.policy.extent_plan(s.env(), c1, "m3").unwrap();
        assert_eq!(plan, vec![(c1, READ)]);
        let _ = c2;
    }

    #[test]
    fn send_all_runs_under_relation_locks() {
        let (s, o1, o2) = setup();
        let c1 = s.env().schema.class_by_name("c1").unwrap();
        let mut txn = s.begin();
        let r = s.send_all(&mut txn, c1, "m2", &[Value::Int(2)]).unwrap();
        assert_eq!(r.len(), 2);
        s.commit(txn).unwrap();
        assert_eq!(s.env().read_named(o1, "c1", "f1"), Value::Int(2));
        assert_eq!(s.env().read_named(o2, "c2", "f4"), Value::Int(2));
    }
}

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
/// analyzed access pattern (its TAV) is locked tuple by tuple.
pub struct RelationalPolicy;

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

/// The joined relation-lock plan of an extent operation over the
/// domain rooted at `root`.
fn extent_plan(env: &Env, root: ClassId, method: &str) -> Result<Vec<(ClassId, u16)>, ExecError> {
    let mut joined: BTreeMap<ClassId, u16> = BTreeMap::new();
    for &c in env.schema.domain(root) {
        let tav = env.compiled.class(c).tav(mode_index(env, c, method)?);
        for (rel, m) in tuple_plan(env, c, tav) {
            let e = joined.entry(rel).or_insert(READ);
            *e = (*e).max(m);
        }
    }
    Ok(joined.into_iter().collect())
}

impl LockScheme<RelationalPolicy> {
    /// The tuple-lock plan of an access vector evaluated on an instance
    /// of `class`: `(relation, READ | WRITE)` in relation order.
    pub fn tuple_plan(&self, class: ClassId, av: &AccessVector) -> Vec<(ClassId, u16)> {
        tuple_plan(&self.env, class, av)
    }

    #[cfg(test)]
    fn extent_plan(&self, root: ClassId, method: &str) -> Result<Vec<(ClassId, u16)>, ExecError> {
        extent_plan(&self.env, root, method)
    }
}

impl LockPolicy for RelationalPolicy {
    type Source = RwSource;
    const NAME: &'static str = "relational";
    const UNDO: UndoStyle = UndoStyle::TavProjection;

    fn source(_: &Env) -> RwSource {
        RwSource
    }

    fn on_message(
        cx: &mut LockAccess<'_, Self>,
        oid: Oid,
        class: ClassId,
        mid: MethodId,
    ) -> Result<(), ExecError> {
        // The whole top message is the relational "query": its TAV is the
        // statically analyzed access pattern the planner would lock for.
        let tav = cx
            .env
            .compiled
            .tav_of(class, mid)
            .ok_or_else(|| not_understood(class, mid))?;
        for (rel, m) in tuple_plan(cx.env, class, tav) {
            cx.lock(ResourceId::Relation(rel), LockMode::class(m, false))?;
            cx.lock(ResourceId::Tuple(rel, oid), LockMode::plain(m))?;
        }
        cx.undo_projection(oid, tav)
    }

    // on_self_message: default no-op — the plan covered the whole execution.

    fn on_extent(
        cx: &mut LockAccess<'_, Self>,
        root: ClassId,
        method: &str,
        hierarchical: bool,
    ) -> Result<(), ExecError> {
        for (rel, m) in extent_plan(cx.env, root, method)? {
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

    #[test]
    fn key_write_propagates_to_child_relations() {
        // §5.2: "T1 locks one tuple of r1 in write mode and the associated
        // tuple of r2 in write mode too (because f1 … is modified)".
        let (s, o1, _) = setup();
        let c1 = s.env().schema.class_by_name("c1").unwrap();
        let c2 = s.env().schema.class_by_name("c2").unwrap();
        let table = s.env().compiled.class(c1);
        let idx = table.index_of("m1").unwrap();
        let plan = s.tuple_plan(c1, table.tav(idx));
        assert_eq!(plan, vec![(c1, WRITE), (c2, WRITE)]);
        let _ = o1;
    }

    #[test]
    fn non_key_access_locks_touched_relations_only() {
        let (s, _, _) = setup();
        let c1 = s.env().schema.class_by_name("c1").unwrap();
        let c2 = s.env().schema.class_by_name("c2").unwrap();
        // m3 reads f2, f3 (both in r1): plan = {r1: READ}.
        let t1 = s.env().compiled.class(c1);
        let plan = s.tuple_plan(c1, t1.tav(t1.index_of("m3").unwrap()));
        assert_eq!(plan, vec![(c1, READ)]);
        // m4 on c2 touches f5, f6 (both in r2): plan = {r2: WRITE}.
        let t2 = s.env().compiled.class(c2);
        let plan = s.tuple_plan(c2, t2.tav(t2.index_of("m4").unwrap()));
        assert_eq!(plan, vec![(c2, WRITE)]);
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
        let plan = s.extent_plan(c1, "m1").unwrap();
        assert_eq!(plan, vec![(c1, WRITE), (c2, WRITE)]);
        // m3 over domain(c1): reads r1 only.
        let plan = s.extent_plan(c1, "m3").unwrap();
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

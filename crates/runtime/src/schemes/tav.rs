//! The paper's scheme: transitive-access-vector commutativity locking.
//!
//! Locking happens **once per top message** (claim (2) / problem P2's
//! fix): when a message reaches an instance — from the application or
//! through a reference field — the receiver's class table maps the
//! resolved method to its access-mode index; one intentional class lock
//! and one instance lock in that mode are taken, and *nothing more* for
//! the entire nested execution: the transitive access vector already
//! accounts for every self-directed message, announcing the most
//! exclusive mode up front (P3's fix).
//!
//! Extent and domain accesses take hierarchical class locks per §5.2.
//! Undo before-images are projections through the TAV's write fields —
//! the paper's recovery remark made executable.

use crate::env::Env;
use crate::schemes::lock::{
    mode_index, not_understood, LockAccess, LockPolicy, LockScheme, UndoStyle,
};
use finecc_lang::ExecError;
use finecc_lock::{CommutSource, LockMode, ResourceId};
use finecc_model::{ClassId, MethodId, Oid};
use std::sync::Arc;

/// The paper's policy: the mode of every lock is the message's
/// access-mode index in the receiver class's commutativity matrix.
pub struct TavPolicy;

/// The TAV/commutativity scheme (the paper's proposal).
pub type TavScheme = LockScheme<TavPolicy>;

impl LockPolicy for TavPolicy {
    type Source = CommutSource;
    const NAME: &'static str = "tav";
    const UNDO: UndoStyle = UndoStyle::TavProjection;

    fn source(env: &Env) -> CommutSource {
        CommutSource::new(Arc::clone(&env.compiled))
    }

    fn new(_: &Env) -> Self {
        TavPolicy
    }

    fn on_message(
        cx: &mut LockAccess<'_, Self>,
        oid: Oid,
        class: ClassId,
        mid: MethodId,
    ) -> Result<(), ExecError> {
        let table = cx.env.compiled.class(class);
        let idx = table
            .index_of_mid(mid)
            .ok_or_else(|| not_understood(class, mid))?;
        let mode = idx as u16;
        cx.lock(ResourceId::Class(class), LockMode::class(mode, false))?;
        cx.lock(ResourceId::Instance(oid, class), LockMode::plain(mode))?;
        cx.undo_projection(oid, table.tav(idx))
    }

    // on_self_message: default no-op — the whole point of the paper.

    fn on_extent(
        cx: &mut LockAccess<'_, Self>,
        root: ClassId,
        method: &str,
        hierarchical: bool,
    ) -> Result<(), ExecError> {
        for &c in cx.env.schema.domain(root) {
            let mode = mode_index(cx.env, c, method)? as u16;
            cx.lock(ResourceId::Class(c), LockMode::class(mode, hierarchical))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::CcScheme;
    use crate::txn::run_txn;
    use finecc_lang::parser::FIGURE1_SOURCE;
    use finecc_model::Value;

    fn setup() -> (TavScheme, Oid, Oid) {
        let env = Env::from_source(FIGURE1_SOURCE).unwrap();
        let c1 = env.schema.class_by_name("c1").unwrap();
        let c2 = env.schema.class_by_name("c2").unwrap();
        let o1 = env.db.create(c1);
        let o2 = env.db.create(c2);
        (TavScheme::new(env), o1, o2)
    }

    #[test]
    fn one_control_per_top_message() {
        // m1 on a c2 instance triggers m2, c1.m2, m3 internally — but the
        // lock manager must see exactly TWO requests (class + instance),
        // problem P2 solved.
        let (s, _, o2) = setup();
        let mut txn = s.begin();
        s.send(&mut txn, o2, "m1", &[Value::Int(1)]).unwrap();
        let st = s.lock_manager().stats.snapshot();
        assert_eq!(st.requests, 2, "one class + one instance lock");
        assert_eq!(st.upgrades, 0, "no escalation (P3 solved)");
        s.commit(txn).unwrap();
    }

    #[test]
    fn execution_effect_matches_plain_interpreter() {
        let (s, _, o2) = setup();
        let mut txn = s.begin();
        s.send(&mut txn, o2, "m1", &[Value::Int(3)]).unwrap();
        s.commit(txn).unwrap();
        // c1.m2 wrote f1 = expr(0, false, 3) = 3; override wrote f4 = 3.
        assert_eq!(s.env().read_named(o2, "c2", "f1"), Value::Int(3));
        assert_eq!(s.env().read_named(o2, "c2", "f4"), Value::Int(3));
    }

    #[test]
    fn abort_rolls_back_via_tav_projection() {
        let (s, _, o2) = setup();
        let mut txn = s.begin();
        s.send(&mut txn, o2, "m2", &[Value::Int(9)]).unwrap();
        assert_eq!(s.env().read_named(o2, "c2", "f4"), Value::Int(9));
        s.abort(txn);
        assert_eq!(s.env().read_named(o2, "c2", "f4"), Value::Int(0));
        assert_eq!(s.env().read_named(o2, "c2", "f1"), Value::Int(0));
    }

    #[test]
    fn commuting_methods_run_concurrently_on_one_instance() {
        // m2 and m4 both write (pseudo-conflict P4) yet commute: two
        // transactions may hold both locks simultaneously.
        let (s, _, o2) = setup();
        let mut t1 = s.begin();
        let mut t2 = s.begin();
        s.send(&mut t1, o2, "m2", &[Value::Int(1)]).unwrap();
        s.send(&mut t2, o2, "m4", &[Value::Int(5), Value::Int(2)])
            .unwrap();
        s.commit(t1).unwrap();
        s.commit(t2).unwrap();
    }

    #[test]
    fn conflicting_methods_block() {
        let (s, _, o2) = setup();
        let mut t1 = s.begin();
        s.send(&mut t1, o2, "m2", &[Value::Int(1)]).unwrap();
        // m1 conflicts with m2 (Table 2): try_acquire through a second
        // transaction must block. Use the raw lock manager to probe.
        let table = s
            .env()
            .compiled
            .class(s.env().schema.class_by_name("c2").unwrap());
        let m1 = table.index_of("m1").unwrap() as u16;
        let t2 = s.lm.begin();
        let c2 = s.env().schema.class_by_name("c2").unwrap();
        let r =
            s.lm.try_acquire(t2, ResourceId::Instance(o2, c2), LockMode::plain(m1));
        assert_eq!(r, finecc_lock::TryAcquire::WouldBlock);
        s.commit(t1).unwrap();
    }

    #[test]
    fn send_all_locks_hierarchically() {
        let (s, o1, o2) = setup();
        let c1 = s.env().schema.class_by_name("c1").unwrap();
        let mut txn = s.begin();
        let results = s.send_all(&mut txn, c1, "m2", &[Value::Int(2)]).unwrap();
        assert_eq!(results.len(), 2, "deep extent: o1 and o2");
        // Only class locks were taken: 2 classes, no instance locks.
        assert_eq!(s.lock_manager().stats.snapshot().requests, 2);
        s.commit(txn).unwrap();
        assert_eq!(s.env().read_named(o1, "c1", "f1"), Value::Int(2));
        assert_eq!(s.env().read_named(o2, "c2", "f4"), Value::Int(2));
    }

    #[test]
    fn send_some_locks_domain_intentionally() {
        let (s, o1, _) = setup();
        let c1 = s.env().schema.class_by_name("c1").unwrap();
        let mut txn = s.begin();
        let results = s.send_some(&mut txn, c1, &[o1], "m3", &[]).unwrap();
        assert_eq!(results.len(), 1);
        // 2 intentional class locks + (class re-acquire + instance) for o1.
        let st = s.lock_manager().stats.snapshot();
        assert!(st.requests >= 3);
        s.commit(txn).unwrap();
    }

    #[test]
    fn retry_loop_commits() {
        let (s, _, o2) = setup();
        let out = run_txn(&s, 3, |txn| {
            s.send(txn, o2, "m4", &[Value::Int(1), Value::Int(1)])
        });
        assert!(out.is_committed());
    }

    #[test]
    fn cross_instance_send_locks_target() {
        let (s, o1, _) = setup();
        let env = s.env();
        let c1 = env.schema.class_by_name("c1").unwrap();
        let c3 = env.schema.class_by_name("c3").unwrap();
        let o3 = env.db.create(c3);
        let f2 = env.schema.resolve_field(c1, "f2").unwrap();
        let f3 = env.schema.resolve_field(c1, "f3").unwrap();
        env.db.write(o1, f2, Value::Bool(true)).unwrap();
        env.db.write(o1, f3, Value::Ref(o3)).unwrap();

        let mut txn = s.begin();
        s.send(&mut txn, o1, "m3", &[]).unwrap();
        // m3 sent `m` through f3: class(c1)+inst(o1) + class(c3)+inst(o3).
        assert_eq!(s.lock_manager().stats.snapshot().requests, 4);
        s.commit(txn).unwrap();
        assert_eq!(env.read_named(o3, "c3", "g1"), Value::Int(1));
    }
}

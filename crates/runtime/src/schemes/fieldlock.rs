//! Run-time field locking (Agrawal–El Abbadi, EDBT'92 — the paper's §6
//! comparison).
//!
//! Locks are taken at the finest granule, individual `(instance, field)`
//! pairs, **at the moment of each access**. This is *less conservative*
//! than transitive access vectors — a field behind an untaken branch is
//! never locked — but pays for it with a lock-manager call per field
//! access ("this technique incurs a much higher overhead") and it retains
//! the escalation problem: a field read first and assigned later upgrades
//! read→write mid-transaction. Experiment E8 measures both effects.

use crate::env::Env;
use crate::schemes::lock::{transitive_rw_mode, LockAccess, LockPolicy, LockScheme, UndoStyle};
use finecc_lang::ExecError;
use finecc_lock::{LockMode, ResourceId, RwSource, READ, WRITE};
use finecc_model::{ClassId, FieldId, MethodId, Oid};

/// The field-locking policy: messages lock nothing but a class
/// presence marker; every field access locks its `(instance, field)`.
pub struct FieldLockPolicy;

/// Run-time field locking.
pub type FieldLockScheme = LockScheme<FieldLockPolicy>;

impl LockPolicy for FieldLockPolicy {
    type Source = RwSource;
    const NAME: &'static str = "fieldlock";
    const UNDO: UndoStyle = UndoStyle::PerField;

    fn source(_: &Env) -> RwSource {
        RwSource
    }

    fn on_message(
        cx: &mut LockAccess<'_, Self>,
        _oid: Oid,
        class: ClassId,
        _mid: MethodId,
    ) -> Result<(), ExecError> {
        // Presence marker: lets extent-level hierarchical locks see
        // concurrent instance users.
        cx.lock(ResourceId::Class(class), LockMode::class(READ, false))
    }

    // on_self_message: default no-op — field locks carry the protection.

    fn on_field_read(
        cx: &mut LockAccess<'_, Self>,
        oid: Oid,
        field: FieldId,
    ) -> Result<(), ExecError> {
        cx.lock(ResourceId::Field(oid, field), LockMode::plain(READ))
    }

    fn on_field_write(
        cx: &mut LockAccess<'_, Self>,
        oid: Oid,
        field: FieldId,
    ) -> Result<(), ExecError> {
        let class = cx.class_of(oid)?;
        // Possible read→write escalation on this very field.
        cx.lock(ResourceId::Field(oid, field), LockMode::plain(WRITE))?;
        cx.lock(ResourceId::Class(class), LockMode::class(WRITE, false))
    }

    fn on_extent(
        cx: &mut LockAccess<'_, Self>,
        root: ClassId,
        method: &str,
        hierarchical: bool,
    ) -> Result<(), ExecError> {
        for &c in cx.env.schema.domain(root) {
            // A dynamic scheme has no compile-time vectors of its own;
            // covering a whole extent announces the transitive
            // classification, selected instances a presence marker.
            let m = if hierarchical {
                transitive_rw_mode(cx.env, c, method)?
            } else {
                READ
            };
            cx.lock(ResourceId::Class(c), LockMode::class(m, hierarchical))?;
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

    fn setup() -> (FieldLockScheme, Oid, Oid) {
        let env = Env::from_source(FIGURE1_SOURCE).unwrap();
        let c1 = env.schema.class_by_name("c1").unwrap();
        let c2 = env.schema.class_by_name("c2").unwrap();
        let o1 = env.db.create(c1);
        let o2 = env.db.create(c2);
        (FieldLockScheme::new(env), o1, o2)
    }

    #[test]
    fn locks_exactly_the_touched_fields() {
        let (s, o1, _) = setup();
        let mut txn = s.begin();
        // m3 with f2=false reads only f2 — f3 stays unlocked (the branch
        // is not taken): finer than the TAV, which would cover f3 too.
        s.send(&mut txn, o1, "m3", &[]).unwrap();
        let c1 = s.env().schema.class_by_name("c1").unwrap();
        let f3 = s.env().schema.resolve_field(c1, "f3").unwrap();
        let probe = s.lm.begin();
        assert_eq!(
            s.lm.try_acquire(probe, ResourceId::Field(o1, f3), LockMode::plain(WRITE)),
            TryAcquire::Granted,
            "untouched field is free"
        );
        s.lm.release_all(probe);
        let f2 = s.env().schema.resolve_field(c1, "f2").unwrap();
        let probe2 = s.lm.begin();
        assert_eq!(
            s.lm.try_acquire(probe2, ResourceId::Field(o1, f2), LockMode::plain(WRITE)),
            TryAcquire::WouldBlock,
            "read field is share-locked"
        );
        s.commit(txn).unwrap();
    }

    #[test]
    fn higher_lock_traffic_than_tav() {
        let (s, _, o2) = setup();
        let mut txn = s.begin();
        s.send(&mut txn, o2, "m1", &[Value::Int(1)]).unwrap();
        let requests = s.lock_manager().stats.snapshot().requests;
        s.commit(txn).unwrap();
        // TAV needs 2; per-field locking needs one call per touched field
        // plus class markers — strictly more.
        assert!(requests > 2, "got {requests}");
    }

    #[test]
    fn field_escalation_possible() {
        let (s, _, o2) = setup();
        let mut txn = s.begin();
        // m2 computes expr(f1,…) then assigns f1: read then write on f1.
        s.send(&mut txn, o2, "m2", &[Value::Int(1)]).unwrap();
        assert!(s.lock_manager().stats.snapshot().upgrades >= 1);
        s.commit(txn).unwrap();
    }

    #[test]
    fn disjoint_field_writers_parallel() {
        // Like the TAV scheme (and unlike RW), m2 and m4 can interleave.
        let (s, _, o2) = setup();
        let mut t1 = s.begin();
        let mut t2 = s.begin();
        s.send(&mut t1, o2, "m2", &[Value::Int(1)]).unwrap();
        s.send(&mut t2, o2, "m4", &[Value::Int(5), Value::Int(1)])
            .unwrap();
        s.commit(t1).unwrap();
        s.commit(t2).unwrap();
    }

    #[test]
    fn abort_rolls_back() {
        let (s, _, o2) = setup();
        let mut txn = s.begin();
        s.send(&mut txn, o2, "m2", &[Value::Int(5)]).unwrap();
        s.abort(txn);
        assert_eq!(s.env().read_named(o2, "c2", "f1"), Value::Int(0));
        assert_eq!(s.env().read_named(o2, "c2", "f4"), Value::Int(0));
    }

    #[test]
    fn send_all_covers_domain() {
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

//! The read/write baseline (ORION-style, per-message control).
//!
//! This is the scheme §3 criticizes: only two instance modes exist, and
//! **every message wants control** — a self-directed message re-locks the
//! receiver with its own reader/writer classification (derived from its
//! *direct* code, the only thing a per-message monitor can see).
//! Consequences, measured by experiments E5–E7:
//!
//! * P2 — invoking `m1` costs three controls instead of one;
//! * P3 — `m1` (reader) read-locks, then `m2` (writer) escalates to a
//!   write lock: the System R deadlock pattern;
//! * P4 — `m2` and `m4` both collapse to "writer" and conflict although
//!   they touch disjoint fields.

use crate::env::Env;
use crate::schemes::lock::{
    mode_index, rw_mode, transitive_rw_mode, LockAccess, LockPolicy, LockScheme, UndoStyle,
};
use finecc_lang::ExecError;
use finecc_lock::{LockMode, ResourceId, RwSource, WRITE};
use finecc_model::{ClassId, MethodId, Oid};

/// The read/write policy: every message, self-directed included, locks
/// the receiver as a reader or a writer.
pub struct RwPolicy;

/// Per-message read/write instance locking.
pub type RwScheme = LockScheme<RwPolicy>;

/// A method's reader/writer classification from its **direct** access
/// vector — what a per-message monitor knows when the message is sent.
fn classify(env: &Env, mid: MethodId) -> u16 {
    rw_mode(env.compiled.extraction.dav(mid).collapse())
}

/// One message's control: the class intentionally and the receiver, as
/// reader or writer, each requested through `lock`.
fn control<'a>(
    cx: &mut LockAccess<'a, RwPolicy>,
    oid: Oid,
    class: ClassId,
    mid: MethodId,
    lock: fn(&mut LockAccess<'a, RwPolicy>, ResourceId, LockMode) -> Result<(), ExecError>,
) -> Result<(), ExecError> {
    let m = classify(cx.env, mid);
    if cx.is_covered(class) {
        // Hierarchically covered: escalation surfaces at class level.
        if m == WRITE {
            lock(cx, ResourceId::Class(class), LockMode::class(WRITE, true))?;
        }
        return Ok(());
    }
    lock(cx, ResourceId::Class(class), LockMode::class(m, false))?;
    lock(cx, ResourceId::Instance(oid, class), LockMode::plain(m))
}

impl LockPolicy for RwPolicy {
    type Source = RwSource;
    const NAME: &'static str = "rw";
    // Per-field logging: an RW system has no access vectors to project
    // through.
    const UNDO: UndoStyle = UndoStyle::PerField;

    fn source(_: &Env) -> RwSource {
        RwSource
    }

    fn on_message(
        cx: &mut LockAccess<'_, Self>,
        oid: Oid,
        class: ClassId,
        mid: MethodId,
    ) -> Result<(), ExecError> {
        control(cx, oid, class, mid, LockAccess::lock)
    }

    /// Per-message control: every message wants it, which is what
    /// produces the locking overhead and the read→write escalations
    /// of §3. The enclosing message controlled this receiver already,
    /// so the request is usually one the transaction holds.
    fn on_self_message(
        cx: &mut LockAccess<'_, Self>,
        oid: Oid,
        class: ClassId,
        mid: MethodId,
    ) -> Result<(), ExecError> {
        control(cx, oid, class, mid, LockAccess::relock)
    }

    fn on_extent(
        cx: &mut LockAccess<'_, Self>,
        root: ClassId,
        method: &str,
        hierarchical: bool,
    ) -> Result<(), ExecError> {
        let env = cx.env;
        for &c in env.schema.domain(root) {
            // All instances: the transitive classification, which an RW
            // system planning an extent operation knows from the query.
            // Selected instances: each will be controlled per message,
            // so the intent carries the direct one.
            let m = if hierarchical {
                transitive_rw_mode(env, c, method)?
            } else {
                let mid = env.compiled.class(c).method_ids[mode_index(env, c, method)?];
                classify(env, mid)
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
    use finecc_lock::{TryAcquire, READ};
    use finecc_model::Value;

    fn setup() -> (RwScheme, Oid, Oid) {
        let env = Env::from_source(FIGURE1_SOURCE).unwrap();
        let c1 = env.schema.class_by_name("c1").unwrap();
        let c2 = env.schema.class_by_name("c2").unwrap();
        let o1 = env.db.create(c1);
        let o2 = env.db.create(c2);
        (RwScheme::new(env), o1, o2)
    }

    #[test]
    fn per_message_control_overhead() {
        // P2 reproduced: m1 on a c2 instance = top control + three
        // self-message controls (m2, c1.m2, m3), each 2 lock requests.
        let (s, _, o2) = setup();
        let mut txn = s.begin();
        s.send(&mut txn, o2, "m1", &[Value::Int(1)]).unwrap();
        let st = s.lock_manager().stats.snapshot();
        assert_eq!(st.requests, 8, "4 controls × (class + instance)");
        s.commit(txn).unwrap();
    }

    #[test]
    fn escalation_reproduced() {
        // P3 reproduced: m1 read-locks, then m2 escalates to write.
        let (s, o1, _) = setup();
        let mut txn = s.begin();
        s.send(&mut txn, o1, "m1", &[Value::Int(1)]).unwrap();
        assert!(
            s.lock_manager().stats.snapshot().upgrades >= 1,
            "read→write escalation happened"
        );
        s.commit(txn).unwrap();
    }

    #[test]
    fn pseudo_conflict_reproduced() {
        // P4 reproduced: m2 and m4 (disjoint fields!) conflict under RW.
        let (s, _, o2) = setup();
        let mut t1 = s.begin();
        s.send(&mut t1, o2, "m2", &[Value::Int(1)]).unwrap();
        let c2 = s.env().schema.class_by_name("c2").unwrap();
        let probe = s.lm.begin();
        let r =
            s.lm.try_acquire(probe, ResourceId::Instance(o2, c2), LockMode::plain(WRITE));
        assert_eq!(r, TryAcquire::WouldBlock, "m4 would block behind m2");
        s.commit(t1).unwrap();
    }

    #[test]
    fn execution_still_correct() {
        let (s, _, o2) = setup();
        let mut txn = s.begin();
        s.send(&mut txn, o2, "m1", &[Value::Int(3)]).unwrap();
        s.commit(txn).unwrap();
        assert_eq!(s.env().read_named(o2, "c2", "f1"), Value::Int(3));
        assert_eq!(s.env().read_named(o2, "c2", "f4"), Value::Int(3));
    }

    #[test]
    fn abort_restores_per_field_images() {
        let (s, _, o2) = setup();
        let mut txn = s.begin();
        s.send(&mut txn, o2, "m2", &[Value::Int(9)]).unwrap();
        s.abort(txn);
        assert_eq!(s.env().read_named(o2, "c2", "f1"), Value::Int(0));
        assert_eq!(s.env().read_named(o2, "c2", "f4"), Value::Int(0));
    }

    #[test]
    fn readers_share() {
        let (s, o1, _) = setup();
        let mut t1 = s.begin();
        let mut t2 = s.begin();
        // m3 is a pure reader when f2 is false.
        s.send(&mut t1, o1, "m3", &[]).unwrap();
        s.send(&mut t2, o1, "m3", &[]).unwrap();
        s.commit(t1).unwrap();
        s.commit(t2).unwrap();
        assert_eq!(s.lock_manager().stats.snapshot().blocks, 0);
    }

    #[test]
    fn send_all_uses_transitive_classification() {
        let (s, _, _) = setup();
        let c1 = s.env().schema.class_by_name("c1").unwrap();
        let mut txn = s.begin();
        // m1 transitively writes → hierarchical WRITE on c1 and c2.
        s.send_all(&mut txn, c1, "m1", &[Value::Int(1)]).unwrap();
        let c2 = s.env().schema.class_by_name("c2").unwrap();
        let probe = s.lm.begin();
        let r =
            s.lm.try_acquire(probe, ResourceId::Class(c2), LockMode::class(READ, false));
        assert_eq!(
            r,
            TryAcquire::WouldBlock,
            "intentional read blocked by hier write"
        );
        s.commit(txn).unwrap();
    }
}

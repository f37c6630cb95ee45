//! Experiment E9 — the paper's claim (5): classical read/write schemes
//! are *subsumed*: a 2-mode commutativity matrix driven through the
//! paper's machinery behaves identically to the hand-written RW table.

use finecc::core::compile;
use finecc::lang::build_schema;
use finecc::lock::{
    LockManager, LockMode, ModeSource, ResourceId, RwSource, TryAcquire, READ, WRITE,
};
use finecc::model::{ClassId, Oid};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A schema whose only methods are a pure reader and a writer: its
/// generated commutativity matrix *is* the RW table.
const RW_AS_CLASS: &str = r#"
class cell {
  fields { v: integer; }
  method read_it is
    var t := v + 0
  end
  method write_it(x) is
    v := x
  end
}
"#;

#[test]
fn generated_matrix_equals_rw_table() {
    let (schema, bodies) = build_schema(RW_AS_CLASS).unwrap();
    let compiled = compile(&schema, &bodies).unwrap();
    let cell = schema.class_by_name("cell").unwrap();
    let t = compiled.class(cell);
    let r = t.index_of("read_it").unwrap();
    let w = t.index_of("write_it").unwrap();
    // The four cells of Table 1 restricted to {Read, Write}:
    assert!(t.commute(r, r));
    assert!(!t.commute(r, w));
    assert!(!t.commute(w, r));
    assert!(!t.commute(w, w));
}

#[test]
fn lock_manager_behaviour_is_identical() {
    let (schema, bodies) = build_schema(RW_AS_CLASS).unwrap();
    let compiled = std::sync::Arc::new(compile(&schema, &bodies).unwrap());
    let cell = schema.class_by_name("cell").unwrap();
    let t = compiled.class(cell);
    let r_mode = t.index_of("read_it").unwrap() as u16;
    let w_mode = t.index_of("write_it").unwrap() as u16;

    let commut = LockManager::new(finecc::lock::CommutSource::new(compiled));
    let rw = LockManager::new(RwSource);

    // Drive both managers through the same request script and compare
    // every grant/block decision.
    let script: Vec<(u16, u16)> = vec![
        (READ, r_mode),
        (READ, r_mode),
        (WRITE, w_mode),
        (READ, r_mode),
        (WRITE, w_mode),
    ];
    let res_rw = ResourceId::Instance(Oid(1), ClassId(0));
    let res_cm = ResourceId::Instance(Oid(1), cell);
    let mut decisions_rw = Vec::new();
    let mut decisions_cm = Vec::new();
    let (mut live_rw, mut live_cm) = (Vec::new(), Vec::new());
    for &(rw_mode, cm_mode) in &script {
        let t1 = rw.begin();
        decisions_rw
            .push(rw.try_acquire(t1, res_rw, LockMode::plain(rw_mode)) == TryAcquire::Granted);
        let t2 = commut.begin();
        decisions_cm
            .push(commut.try_acquire(t2, res_cm, LockMode::plain(cm_mode)) == TryAcquire::Granted);
        if decisions_rw.last() == Some(&true) {
            live_rw.push(t1);
            live_cm.push(t2);
        }
    }
    assert_eq!(decisions_rw, decisions_cm);
    // Readers piled up, writers bounced in both.
    assert_eq!(decisions_rw, vec![true, true, false, true, false]);

    // That script never releases, so it never grants a writer. 10,000
    // seeded acquire/release steps on top of it do: every decision of
    // the two managers still coincides.
    let mut rng = StdRng::seed_from_u64(2024);
    let mut granted_writes = 0;
    for _ in 0..10_000 {
        if !live_cm.is_empty() && rng.random_bool(0.4) {
            let i = rng.random_range(0..live_cm.len());
            commut.release_all(live_cm.swap_remove(i));
            rw.release_all(live_rw.swap_remove(i));
            continue;
        }
        let writer = rng.random_bool(0.5);
        let (rw_mode, cm_mode) = if writer {
            (WRITE, w_mode)
        } else {
            (READ, r_mode)
        };
        let (t_rw, t_cm) = (rw.begin(), commut.begin());
        let d_rw = rw.try_acquire(t_rw, res_rw, LockMode::plain(rw_mode));
        let d_cm = commut.try_acquire(t_cm, res_cm, LockMode::plain(cm_mode));
        assert_eq!(d_cm, d_rw, "decisions diverged");
        if d_cm == TryAcquire::Granted {
            granted_writes += u32::from(writer);
            live_rw.push(t_rw);
            live_cm.push(t_cm);
        }
    }
    assert!(granted_writes > 0, "the script never granted a writer");
}

#[test]
fn kind_semantics_match_between_sources() {
    // Intentional/hierarchical class-lock semantics must not depend on
    // which matrix is underneath.
    let (schema, bodies) = build_schema(RW_AS_CLASS).unwrap();
    let compiled = std::sync::Arc::new(compile(&schema, &bodies).unwrap());
    let cell = schema.class_by_name("cell").unwrap();
    let t = compiled.class(cell);
    let (r, w) = (
        t.index_of("read_it").unwrap() as u16,
        t.index_of("write_it").unwrap() as u16,
    );
    let cm = finecc::lock::CommutSource::new(compiled);
    let res_cm = ResourceId::Class(cell);
    let res_rw = ResourceId::Class(ClassId(0));

    let cases = [
        (LockMode::class(r, false), LockMode::class(w, false)),
        (LockMode::class(r, true), LockMode::class(w, false)),
        (LockMode::class(r, true), LockMode::class(r, true)),
        (LockMode::class(w, true), LockMode::class(w, true)),
    ];
    let rw_cases = [
        (LockMode::class(READ, false), LockMode::class(WRITE, false)),
        (LockMode::class(READ, true), LockMode::class(WRITE, false)),
        (LockMode::class(READ, true), LockMode::class(READ, true)),
        (LockMode::class(WRITE, true), LockMode::class(WRITE, true)),
    ];
    for ((a, b), (c, d)) in cases.into_iter().zip(rw_cases) {
        assert_eq!(
            cm.compatible(&res_cm, a, b),
            RwSource.compatible(&res_rw, c, d),
            "kind semantics must coincide"
        );
    }
}

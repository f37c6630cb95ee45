//! Multiple inheritance end-to-end: C3 resolution must drive late
//! binding, access vectors, graphs and locking coherently. The paper
//! supports simple *and* multiple inheritance (§2.1); these are the
//! corners Figure 1 doesn't reach.

use finecc::core::compile;
use finecc::lang::build_schema;
use finecc::model::Value;
use finecc::runtime::{run_txn, Env, SchemeKind};

/// A diamond with an override on one branch: `d` inherits `work` from
/// `b` (nearest in C3 order d, b, c, a), which prefixes into `a`.
const DIAMOND: &str = r#"
class a {
  fields { base: integer; }
  method work(p) is base := base + p end
  method probe is return base end
}
class b inherits a {
  fields { left: integer; }
  method work(p) is redefined as
    send a.work(p) to self;
    left := left + 1
  end
}
class c inherits a {
  fields { right: integer; }
  method work(p) is redefined as
    send a.work(p) to self;
    right := right + 1
  end
}
class d inherits b, c {
  fields { own: integer; }
  method tally is own := own + 1 end
}
"#;

#[test]
fn c3_order_selects_the_left_override() {
    let (schema, bodies) = build_schema(DIAMOND).unwrap();
    let compiled = compile(&schema, &bodies).unwrap();
    let d = schema.class_by_name("d").unwrap();
    let b = schema.class_by_name("b").unwrap();
    // d's `work` is b's definition (nearest in the C3 linearization).
    assert_eq!(
        schema.resolve_method(d, "work"),
        schema.resolve_method(b, "work")
    );
    // Its TAV in d covers `base` (via the prefixed a.work) and `left`,
    // but NOT `right` (c's override is shadowed).
    let t = compiled.class(d);
    let work = t.index_of("work").unwrap();
    let f = |cls: &str, name: &str| {
        let c = schema.class_by_name(cls).unwrap();
        schema.resolve_field(c, name).unwrap()
    };
    use finecc::core::AccessMode::*;
    assert_eq!(t.tav(work).mode_of(f("a", "base")), Write);
    assert_eq!(t.tav(work).mode_of(f("b", "left")), Write);
    assert_eq!(t.tav(work).mode_of(f("c", "right")), Null);
    assert_eq!(t.tav(work).mode_of(f("d", "own")), Null);
}

#[test]
fn diamond_commutativity_and_execution() {
    let (schema, bodies) = build_schema(DIAMOND).unwrap();
    let compiled = compile(&schema, &bodies).unwrap();
    let d = schema.class_by_name("d").unwrap();
    let t = compiled.class(d);
    // `tally` touches only d's own field: commutes with `work`.
    assert_eq!(t.commute_names("tally", "work"), Some(true));
    assert_eq!(t.commute_names("work", "probe"), Some(false));

    // Execute under the TAV scheme: both writers on one instance at once.
    let env = Env::new(schema, bodies, compiled);
    let d = env.schema.class_by_name("d").unwrap();
    let oid = env.db.create(d);
    let scheme = SchemeKind::Tav.build(env);
    let mut t1 = scheme.begin();
    let mut t2 = scheme.begin();
    scheme.send(&mut t1, oid, "work", &[Value::Int(5)]).unwrap();
    scheme.send(&mut t2, oid, "tally", &[]).unwrap();
    scheme.commit(t1).unwrap();
    scheme.commit(t2).unwrap();
    let env = scheme.env();
    assert_eq!(env.read_named(oid, "a", "base"), Value::Int(5));
    assert_eq!(env.read_named(oid, "b", "left"), Value::Int(1));
    assert_eq!(env.read_named(oid, "c", "right"), Value::Int(0));
    assert_eq!(env.read_named(oid, "d", "own"), Value::Int(1));
    let m = finecc::runtime::read_metrics(scheme.as_ref());
    assert_eq!(m.get("finecc.lock.blocks"), Some(0.0));
}

#[test]
fn domain_locking_spans_both_branches() {
    let (schema, bodies) = build_schema(DIAMOND).unwrap();
    let compiled = compile(&schema, &bodies).unwrap();
    let env = Env::new(schema, bodies, compiled);
    let a = env.schema.class_by_name("a").unwrap();
    for name in ["a", "b", "c", "d"] {
        let c = env.schema.class_by_name(name).unwrap();
        env.db.create(c);
    }
    // domain(a) = {a,b,c,d}; a whole-domain `work` touches all four.
    assert_eq!(env.schema.domain(a).len(), 4);
    let scheme = SchemeKind::Tav.build(env);
    let out = run_txn(scheme.as_ref(), 3, |txn| {
        scheme
            .send_all(txn, a, "work", &[Value::Int(1)])
            .map(|r| Value::Int(r.len() as i64))
    });
    assert_eq!(out.value(), Some(Value::Int(4)));
}

#[test]
fn prefixed_call_across_mi_uses_named_branch() {
    // `d2` overrides work and explicitly prefixes into `c` (the right
    // branch), bypassing C3's preference for `b`.
    let src = format!(
        "{DIAMOND}
class d2 inherits b, c {{
  method work(p) is redefined as
    send c.work(p) to self
  end
}}"
    );
    let (schema, bodies) = build_schema(&src).unwrap();
    let compiled = compile(&schema, &bodies).unwrap();
    let d2 = schema.class_by_name("d2").unwrap();
    let t = compiled.class(d2);
    let work = t.index_of("work").unwrap();
    let f = |cls: &str, name: &str| {
        let c = schema.class_by_name(cls).unwrap();
        schema.resolve_field(c, name).unwrap()
    };
    use finecc::core::AccessMode::*;
    // Through c.work: base and right written, left untouched.
    assert_eq!(t.tav(work).mode_of(f("a", "base")), Write);
    assert_eq!(t.tav(work).mode_of(f("c", "right")), Write);
    assert_eq!(t.tav(work).mode_of(f("b", "left")), Null);

    // And it executes accordingly.
    let env = Env::new(schema, bodies, compiled);
    let d2 = env.schema.class_by_name("d2").unwrap();
    let oid = env.db.create(d2);
    let scheme = SchemeKind::Tav.build(env);
    let out = run_txn(scheme.as_ref(), 3, |txn| {
        scheme.send(txn, oid, "work", &[Value::Int(2)])
    });
    assert!(out.is_committed());
    let env = scheme.env();
    assert_eq!(env.read_named(oid, "c", "right"), Value::Int(1));
    assert_eq!(env.read_named(oid, "b", "left"), Value::Int(0));
}

#[test]
fn relational_mapping_under_mi() {
    // Each class's local fields are a relation; a d-instance spans four.
    let (schema, bodies) = build_schema(DIAMOND).unwrap();
    let compiled = compile(&schema, &bodies).unwrap();
    let env = Env::new(schema, bodies, compiled);
    let d = env.schema.class_by_name("d").unwrap();
    let oid = env.db.create(d);
    let scheme = SchemeKind::Relational.build(env);
    let out = run_txn(scheme.as_ref(), 3, |txn| {
        scheme.send(txn, oid, "work", &[Value::Int(3)])
    });
    assert!(out.is_committed());
    assert_eq!(scheme.env().read_named(oid, "a", "base"), Value::Int(3));
}

//! Language-level integration: richer programs through the full
//! parse → compile → lock → interpret pipeline, checking both the
//! computed results and the concurrency artifacts they imply.

use finecc::core::compile;
use finecc::lang::build_schema;
use finecc::model::Value;
use finecc::runtime::{run_txn, Env, SchemeKind};

/// Linked-list traversal: cross-instance sends chase `next` references,
/// each hop a separately-locked top message.
#[test]
fn list_traversal_locks_each_node() {
    let src = r#"
class node {
  fields { v: integer; next: node; }
  method sum_from is
    if next = nil then
      return v
    end;
    return v + (send sum_from to next)
  end
}
"#;
    let env = Env::from_source(src).unwrap();
    let node = env.schema.class_by_name("node").unwrap();
    let v = env.schema.resolve_field(node, "v").unwrap();
    let next = env.schema.resolve_field(node, "next").unwrap();
    // Build 1 → 2 → 3 → 4 → 5.
    let mut prev = None;
    let mut head = None;
    for i in (1..=5).rev() {
        let o = env.db.create(node);
        env.db.write(o, v, Value::Int(i)).unwrap();
        if let Some(p) = prev {
            env.db.write(o, next, Value::Ref(p)).unwrap();
        }
        prev = Some(o);
        head = Some(o);
    }
    let head = head.unwrap();
    let scheme = SchemeKind::Tav.build(env);
    let out = run_txn(scheme.as_ref(), 3, |txn| {
        scheme.send(txn, head, "sum_from", &[])
    });
    assert_eq!(out.value(), Some(Value::Int(15)));
    // Five nodes → five (class, instance) lock pairs.
    let m = finecc::runtime::read_metrics(scheme.as_ref());
    assert_eq!(m.get("finecc.lock.requests"), Some(10.0));
}

/// Recursion through self with a decreasing counter: the TAV fixpoint
/// over the cycle must still classify correctly, and execution must
/// terminate with the right answer.
#[test]
fn self_recursive_factorial() {
    let src = r#"
class math {
  fields { n: integer; acc: integer; }
  method fact is
    if n <= 1 then
      return acc
    end;
    acc := acc * n;
    n := n - 1;
    send fact to self;
    return acc
  end
}
"#;
    let (schema, bodies) = build_schema(src).unwrap();
    let compiled = compile(&schema, &bodies).unwrap();
    let math = schema.class_by_name("math").unwrap();
    let t = compiled.class(math);
    let fact = t.index_of("fact").unwrap();
    // The recursive TAV equals the DAV (self-loop adds nothing new).
    assert_eq!(t.tav(fact), t.dav(fact));
    assert!(!t.tav(fact).is_read_only());

    let env = Env::new(schema, bodies, compiled);
    let math = env.schema.class_by_name("math").unwrap();
    let n = env.schema.resolve_field(math, "n").unwrap();
    let acc = env.schema.resolve_field(math, "acc").unwrap();
    let o = env.db.create(math);
    env.db.write(o, n, Value::Int(6)).unwrap();
    env.db.write(o, acc, Value::Int(1)).unwrap();
    let scheme = SchemeKind::Tav.build(env);
    let out = run_txn(scheme.as_ref(), 3, |txn| scheme.send(txn, o, "fact", &[]));
    assert_eq!(out.value(), Some(Value::Int(720)));
}

/// Strings, floats, comparisons and while-loops end to end.
#[test]
fn mixed_types_and_loops() {
    let src = r#"
class gadget {
  fields { label: string; score: float; ticks: integer; }
  method rename(tag) is
    label := label + "-" + tag
  end
  method warm_up(target) is
    while ticks < target do
      ticks := ticks + 1;
      score := score + 0.5
    end
  end
  method summary is
    if score >= 2.0 and label <> "" then
      return label
    else
      return "(cold)"
    end
  end
}
"#;
    let env = Env::from_source(src).unwrap();
    let gadget = env.schema.class_by_name("gadget").unwrap();
    let label = env.schema.resolve_field(gadget, "label").unwrap();
    let o = env.db.create(gadget);
    env.db.write(o, label, Value::str("g1")).unwrap();
    let scheme = SchemeKind::Tav.build(env);

    let out = run_txn(scheme.as_ref(), 3, |txn| {
        scheme.send(txn, o, "rename", &[Value::str("x")])?;
        scheme.send(txn, o, "warm_up", &[Value::Int(5)])?;
        scheme.send(txn, o, "summary", &[])
    });
    assert_eq!(out.value(), Some(Value::str("g1-x")));
    let env = scheme.env();
    assert_eq!(env.read_named(o, "gadget", "ticks"), Value::Int(5));
    assert_eq!(env.read_named(o, "gadget", "score"), Value::Float(2.5));
}

/// A transaction spanning several messages accumulates locks (strict
/// 2PL) and an abort rolls back *all* of them.
#[test]
fn multi_message_transaction_atomicity() {
    let src = r#"
class acct {
  fields { bal: integer; }
  method set(v) is bal := v end
  method get is return bal end
}
"#;
    for kind in SchemeKind::ALL {
        let env = Env::from_source(src).unwrap();
        let acct = env.schema.class_by_name("acct").unwrap();
        let a = env.db.create(acct);
        let b = env.db.create(acct);
        let scheme = kind.build(env);
        // Transfer-like txn across both instances, then abort.
        let mut txn = scheme.begin();
        scheme.send(&mut txn, a, "set", &[Value::Int(100)]).unwrap();
        scheme
            .send(&mut txn, b, "set", &[Value::Int(-100)])
            .unwrap();
        scheme.abort(txn);
        let env = scheme.env();
        assert_eq!(env.read_named(a, "acct", "bal"), Value::Int(0), "{kind}");
        assert_eq!(env.read_named(b, "acct", "bal"), Value::Int(0), "{kind}");
    }
}

/// Referential integrity stays intact through scheme-driven execution,
/// and deletion is detected by the checker.
#[test]
fn integrity_checker_spots_dangling_after_delete() {
    let src = r#"
class owner {
  fields { pet: owner; }
  method adopt is skip end
}
"#;
    let env = Env::from_source(src).unwrap();
    let owner = env.schema.class_by_name("owner").unwrap();
    let pet = env.schema.resolve_field(owner, "pet").unwrap();
    let a = env.db.create(owner);
    let b = env.db.create(owner);
    env.db.write(a, pet, Value::Ref(b)).unwrap();
    assert!(finecc::store::check_integrity(&env.db).is_empty());
    env.db.delete(b).unwrap();
    assert_eq!(finecc::store::check_integrity(&env.db).len(), 1);
    assert_eq!(finecc::store::repair_dangling(&env.db), 1);
    assert!(finecc::store::check_integrity(&env.db).is_empty());
}

/// The access vector must cover what executes. A `var` in an untaken
/// branch still shadows the field from there on (resolution is textual,
/// done once — `finecc::lang::resolve`), so `sneaky` never touches
/// `balance`: its vector is `{flag: Read}`, it commutes with itself, and
/// that is sound because the run agrees. When the interpreter decided
/// shadowing by what had *executed*, the last statement wrote the field
/// behind the vector's back: unlocked, and — under the projection undo —
/// not restored by abort.
#[test]
fn a_var_in_an_untaken_branch_still_shadows_the_field() {
    let src = r#"
class acct {
  fields { balance: integer; flag: boolean; }
  method sneaky(v) is
    if flag then var balance := 0 end;
    balance := v
  end
  method balance_of is return balance end
}
"#;
    for kind in SchemeKind::ALL {
        let env = Env::from_source(src).unwrap();
        let acct = env.schema.class_by_name("acct").unwrap();
        let balance = env.schema.resolve_field(acct, "balance").unwrap();
        let flag = env.schema.resolve_field(acct, "flag").unwrap();
        let table = env.compiled.class(acct);
        let sneaky = table.index_of("sneaky").unwrap();
        assert!(table.tav(sneaky).mode_of(balance).is_null());
        assert!(!table.tav(sneaky).mode_of(flag).is_null());
        assert!(table.commute(sneaky, sneaky));

        let o = env
            .db
            .create_with(acct, [(balance, Value::Int(100))])
            .unwrap();
        let before = env.db.snapshot();
        let scheme = kind.build(env);
        let mut txn = scheme.begin();
        scheme
            .send(&mut txn, o, "sneaky", &[Value::Int(7)])
            .unwrap();
        // Nothing outside the vector was touched: the transaction's own
        // view of `balance` is the initial one …
        assert_eq!(
            scheme.send(&mut txn, o, "balance_of", &[]),
            Ok(Value::Int(100)),
            "{kind}"
        );
        scheme.abort(txn);
        // … and abort leaves the instance as it found it.
        assert_eq!(scheme.env().db.snapshot(), before, "{kind}");
        let out = run_txn(scheme.as_ref(), 3, |txn| {
            scheme.send(txn, o, "balance_of", &[])
        });
        assert_eq!(out.value(), Some(Value::Int(100)), "{kind}");
    }
}

//! The lock-request ledger: exactly how many lock-manager requests (and
//! read→write upgrades) each of the four lock schemes spends on each
//! access pattern of Figure 1. The four schemes are one 2PL skeleton
//! under four policies, so this table *is* the policy difference — and
//! a refactor of the skeleton must leave every cell unchanged.

use finecc::lang::parser::FIGURE1_SOURCE;
use finecc::model::{ClassId, Oid, Value};
use finecc::runtime::{read_metrics, CcScheme, Env, SchemeKind, Txn};
use std::fmt::Write as _;

const LOCK_KINDS: [SchemeKind; 4] = [
    SchemeKind::Tav,
    SchemeKind::Rw,
    SchemeKind::FieldLock,
    SchemeKind::Relational,
];

/// Figure 1 populated with a plain `c1`, a `c2`, a `c3`, and a `c1`
/// whose `f2` is set and whose `f3` references the `c3` (so its `m3`
/// sends `m` across instances).
struct Fixture {
    scheme: Box<dyn CcScheme>,
    c1: ClassId,
    o1: Oid,
    o2: Oid,
    linked: Oid,
}

fn fixture(kind: SchemeKind) -> Fixture {
    let env = Env::from_source(FIGURE1_SOURCE).unwrap();
    let class = |name| env.schema.class_by_name(name).unwrap();
    let (c1, c2, c3) = (class("c1"), class("c2"), class("c3"));
    let field = |name| env.schema.resolve_field(c1, name).unwrap();
    let o3 = env.db.create(c3);
    let linked = env
        .db
        .create_with(
            c1,
            [
                (field("f2"), Value::Bool(true)),
                (field("f3"), Value::Ref(o3)),
            ],
        )
        .unwrap();
    Fixture {
        o1: env.db.create(c1),
        o2: env.db.create(c2),
        scheme: kind.build(env),
        c1,
        linked,
    }
}

type Case = fn(&Fixture, &mut Txn);

/// `(requests, upgrades)` of one transaction.
type Spend = (u64, u64);

/// `(name, case, spend under tav, rw, fieldlock, relational)`.
const LEDGER: [(&str, Case, [Spend; 4]); 5] = [
    (
        "top message m1 on a c1 instance",
        |f, t| drop(f.scheme.send(t, f.o1, "m1", &[Value::Int(1)]).unwrap()),
        [(2, 0), (6, 2), (6, 2), (4, 0)],
    ),
    (
        "nested self-sends: m1 on a c2 instance (m2 → c1.m2, m3)",
        |f, t| drop(f.scheme.send(t, f.o2, "m1", &[Value::Int(1)]).unwrap()),
        [(2, 0), (8, 2), (9, 2), (4, 0)],
    ),
    (
        "cross-instance send through f3",
        |f, t| drop(f.scheme.send(t, f.linked, "m3", &[]).unwrap()),
        [(4, 0), (4, 0), (7, 2), (4, 0)],
    ),
    (
        "send_all(c1, m2)",
        |f, t| drop(f.scheme.send_all(t, f.c1, "m2", &[Value::Int(2)]).unwrap()),
        [(2, 0), (6, 0), (2, 0), (2, 0)],
    ),
    (
        "send_some(c1, [o1], m3)",
        |f, t| drop(f.scheme.send_some(t, f.c1, &[f.o1], "m3", &[]).unwrap()),
        [(4, 0), (4, 0), (4, 0), (3, 0)],
    ),
];

/// What `scheme`'s lock manager has been asked so far, read by the
/// names its live source emits.
fn spent(scheme: &dyn CcScheme) -> Spend {
    let m = read_metrics(scheme);
    let count = |name| m.get(name).expect("a lock scheme emits it") as u64;
    (count("finecc.lock.requests"), count("finecc.lock.upgrades"))
}

/// Runs `case` as one transaction under `kind`.
fn spend(kind: SchemeKind, case: Case) -> Spend {
    let f = fixture(kind);
    let mut txn = f.scheme.begin();
    case(&f, &mut txn);
    let spend = spent(f.scheme.as_ref());
    f.scheme.commit(txn).unwrap();
    spend
}

/// One `method(arg)` on a fresh instance of `class` in `source`, as one
/// transaction under `kind` — the ledger for schemas other than
/// Figure 1.
fn spend_on(kind: SchemeKind, source: &str, class: &str, method: &str, arg: i64) -> Spend {
    let env = Env::from_source(source).unwrap();
    let oid = env.db.create(env.schema.class_by_name(class).unwrap());
    let scheme = kind.build(env);
    let mut txn = scheme.begin();
    scheme
        .send(&mut txn, oid, method, &[Value::Int(arg)])
        .unwrap();
    let spend = spent(scheme.as_ref());
    scheme.commit(txn).unwrap();
    spend
}

/// A self-call chain of configurable depth: `m0` calls `m1` calls …
/// `m{d-1}`, which finally writes a field. Every intermediate method
/// also reads a field, so a per-message monitor classifies it Read
/// until the last link (the escalation pattern of §3).
fn chain_schema(depth: usize) -> String {
    let mut s = String::from("class chain {\n  fields { x: integer; y: integer; }\n");
    for i in 0..depth {
        let body = if i + 1 < depth {
            format!("var t := y + 1;\n    send m{}(p1) to self", i + 1)
        } else {
            "x := x + p1".to_string()
        };
        writeln!(s, "  method m{i}(p1) is\n    {body}\n  end").unwrap();
    }
    s.push_str("}\n");
    s
}

/// Branch conservatism (§4.4, §6): `maybe` writes `g` only when its
/// argument is positive. The TAV must assume the write always happens;
/// run-time field locking locks only what the execution touches.
const BRANCHY_SCHEMA: &str = r#"
class branchy {
  fields { f: integer; g: integer; }
  method maybe(p1) is
    if p1 > 0 then
      g := g + 1
    else
      f := f + 0 - 0 + f * 0 + 0;
      skip
    end
  end
  method reader is
    return g
  end
}
"#;

#[test]
fn every_policy_spends_exactly_its_ledger() {
    for (name, case, golden) in LEDGER {
        for (kind, want) in LOCK_KINDS.into_iter().zip(golden) {
            assert_eq!(spend(kind, case), want, "{kind}: {name}");
        }
    }
}

#[test]
fn p2_ordering_on_the_nested_case() {
    let [tav, rw, fieldlock, _] = LOCK_KINDS.map(|kind| spend(kind, LEDGER[1].1).0);
    assert!(tav <= rw && rw <= fieldlock, "{tav} ≤ {rw} ≤ {fieldlock}");
}

/// P2 as the self-call chain deepens: the TAV scheme controls once per
/// top message (class + instance) at any depth, per-message RW once per
/// link, field locking once per field access.
#[test]
fn tav_spend_is_constant_in_self_call_depth() {
    for depth in [1, 2, 8, 32] {
        let source = chain_schema(depth);
        let env = Env::from_source(&source).unwrap();
        let table = env
            .compiled
            .class(env.schema.class_by_name("chain").unwrap());
        let m0 = table.index_of("m0").unwrap();
        assert!(!table.tav(m0).is_read_only(), "m0's TAV covers the write");
        assert_eq!(table.dav(m0).is_read_only(), depth > 1, "its own code");
        let spend = |kind| spend_on(kind, &source, "chain", "m0", 1).0;
        let d = depth as u64;
        assert_eq!(spend(SchemeKind::Tav), 2, "depth {depth}");
        assert_eq!(spend(SchemeKind::Rw), 2 * d, "depth {depth}");
        assert_eq!(spend(SchemeKind::FieldLock), d + 3, "depth {depth}");
    }
}

/// The other side of the trade-off: with the branch never taken the
/// TAV still announces the write (`maybe` does not commute with the
/// reader of `g`) for two requests, and field locking, which locks
/// only what ran, pays more lock traffic for it.
#[test]
fn fieldlock_outspends_tav_when_the_branch_is_not_taken() {
    let env = Env::from_source(BRANCHY_SCHEMA).unwrap();
    let table = env
        .compiled
        .class(env.schema.class_by_name("branchy").unwrap());
    let index = |m| table.index_of(m).unwrap();
    assert!(!table.commute(index("maybe"), index("reader")));
    let spend = |kind| spend_on(kind, BRANCHY_SCHEMA, "branchy", "maybe", -1);
    assert_eq!(spend(SchemeKind::Tav), (2, 0));
    assert_eq!(spend(SchemeKind::FieldLock), (5, 2), "f read, then written");
}

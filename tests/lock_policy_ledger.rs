//! The lock-request ledger: exactly how many lock-manager requests (and
//! read→write upgrades) each of the four lock schemes spends on each
//! access pattern of Figure 1. The four schemes are one 2PL skeleton
//! under four policies, so this table *is* the policy difference — and
//! a refactor of the skeleton must leave every cell unchanged.

use finecc::lang::parser::FIGURE1_SOURCE;
use finecc::model::{ClassId, Oid, Value};
use finecc::runtime::{CcScheme, Env, SchemeKind, Txn};

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

/// Runs `case` as one transaction under `kind`.
fn spend(kind: SchemeKind, case: Case) -> Spend {
    let f = fixture(kind);
    let mut txn = f.scheme.begin();
    case(&f, &mut txn);
    let st = f.scheme.stats();
    f.scheme.commit(txn).unwrap();
    (st.requests, st.upgrades)
}

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

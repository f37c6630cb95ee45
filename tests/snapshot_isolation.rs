//! Snapshot-isolation semantics of the mvcc scheme, pinned down against
//! the serializable lock schemes:
//!
//! * **Write skew** — the canonical SI anomaly (Berenson et al., "A
//!   Critique of ANSI SQL Isolation Levels"): two transactions each read
//!   an invariant spanning two fields and write *disjoint* fields. Under
//!   snapshot isolation both commit and the invariant breaks; under any
//!   of the four serializable lock schemes the overlap is refused. This
//!   test is a *regression contract*: it documents (and notices changes
//!   to) the anomaly that `mvcc` at `IsolationLevel::Snapshot`
//!   deliberately admits — and that `mvcc-ssi` (the same heap at
//!   `IsolationLevel::Serializable`) refuses at commit with a
//!   dangerous-structure abort, mirrored below.
//! * **Lock-free readers** — snapshot reads go through the version
//!   chains, never the lock manager: the `finecc-lock` statistics of the
//!   mvcc scheme stay identically zero while readers overlap writers.

use finecc::model::Value;
use finecc::runtime::{read_metrics, CcScheme, Env, SchemeKind};
use std::time::Duration;

/// Invariant: `a + b >= 1`. Each drain method re-checks the invariant
/// from its own reads before writing — correct under serial execution,
/// the classic write-skew shape under SI.
const DUO: &str = r#"
class duo {
  fields { a: integer; b: integer; }
  method drain_a is
    var s := a + b;
    if s >= 2 then
      a := a - 1
    end
  end
  method drain_b is
    var s := a + b;
    if s >= 2 then
      b := b - 1
    end
  end
  method total is
    return a + b
  end
}
"#;

fn setup(kind: SchemeKind) -> (Box<dyn CcScheme>, finecc::model::Oid) {
    let env = Env::from_source(DUO)
        .unwrap()
        // Short timeout: a lock conflict surfaces as ConcurrencyAbort
        // instead of a 10-second stall.
        .with_lock_timeout(Duration::from_millis(50));
    let duo = env.schema.class_by_name("duo").unwrap();
    let a = env.schema.resolve_field(duo, "a").unwrap();
    let b = env.schema.resolve_field(duo, "b").unwrap();
    let oid = env.db.create(duo);
    env.db.write(oid, a, Value::Int(1)).unwrap();
    env.db.write(oid, b, Value::Int(1)).unwrap();
    (kind.build(env), oid)
}

fn total(scheme: &dyn CcScheme, oid: finecc::model::Oid) -> i64 {
    let env = scheme.env();
    let a = env.read_named(oid, "duo", "a").as_int().unwrap();
    let b = env.read_named(oid, "duo", "b").as_int().unwrap();
    a + b
}

/// The documented anomaly: under snapshot isolation both drains read
/// `a + b = 2` from their snapshots, write disjoint fields, and commit —
/// first-updater-wins sees no write-write conflict. The invariant
/// `a + b >= 1` breaks.
#[test]
fn mvcc_admits_write_skew() {
    let (scheme, oid) = setup(SchemeKind::Mvcc);
    let mut t1 = scheme.begin();
    let mut t2 = scheme.begin();
    scheme.send(&mut t1, oid, "drain_a", &[]).unwrap();
    scheme
        .send(&mut t2, oid, "drain_b", &[])
        .expect("disjoint write sets: SI admits the overlap");
    scheme.commit(t1).unwrap();
    scheme.commit(t2).unwrap();
    assert_eq!(
        total(scheme.as_ref(), oid),
        0,
        "write skew: invariant broken"
    );
    assert_eq!(
        read_metrics(scheme.as_ref()).get("finecc.mvcc.write_conflicts"),
        Some(0.0),
        "no ww conflict was (or should be) seen"
    );
}

/// The same interleaving under every serializable lock scheme: the
/// second drain conflicts (each drain reads both fields and writes one,
/// so the lock sets overlap read-vs-write), aborts, and its retry —
/// after the first commit — re-reads `a + b = 1` and declines to drain.
#[test]
fn lock_schemes_refuse_write_skew() {
    for kind in [
        SchemeKind::Tav,
        SchemeKind::Rw,
        SchemeKind::FieldLock,
        SchemeKind::Relational,
    ] {
        let (scheme, oid) = setup(kind);
        let mut t1 = scheme.begin();
        scheme.send(&mut t1, oid, "drain_a", &[]).unwrap();
        let mut t2 = scheme.begin();
        let err = scheme
            .send(&mut t2, oid, "drain_b", &[])
            .expect_err("serializable schemes must refuse the overlap");
        assert!(
            matches!(err, finecc::lang::ExecError::ConcurrencyAbort { .. }),
            "{kind}: unexpected error {err}"
        );
        scheme.abort(t2);
        scheme.commit(t1).unwrap();
        // Retry after the winner committed: the re-read invariant stops
        // the second drain.
        let out = finecc::runtime::run_txn(scheme.as_ref(), 5, |txn| {
            scheme.send(txn, oid, "drain_b", &[])
        });
        assert!(out.is_committed(), "{kind}");
        assert_eq!(
            total(scheme.as_ref(), oid),
            1,
            "{kind}: serializable execution preserves the invariant"
        );
    }
}

/// The mirror image of [`mvcc_admits_write_skew`]: same heap, same
/// interleaving, isolation level switched to Serializable. T1 drains
/// and commits first; T2's reads then carry an outgoing
/// rw-antidependency to committed T1 (T2 read `a` under T1's newer
/// version) while its write of `b` hands T1 an outgoing edge too (T1
/// read `b`, T2 overwrites it) — committed T1 becomes an unabortable
/// pivot, so T2 must die at commit with a dangerous-structure error.
/// Its retry re-reads `a + b = 1` and declines to drain: the invariant
/// survives, serializably.
#[test]
fn mvcc_ssi_refuses_write_skew() {
    let (scheme, oid) = setup(SchemeKind::MvccSsi);
    let mut t1 = scheme.begin();
    let mut t2 = scheme.begin();
    scheme.send(&mut t1, oid, "drain_a", &[]).unwrap();
    scheme
        .commit(t1)
        .expect("no dangerous structure yet: T1 commits");
    scheme
        .send(&mut t2, oid, "drain_b", &[])
        .expect("disjoint write sets: admission is still snapshot-style");
    let err = scheme
        .commit(t2)
        .expect_err("SSI must refuse the write-skew commit");
    assert!(
        matches!(
            err,
            finecc::lang::ExecError::ConcurrencyAbort { deadlock: true, .. }
        ),
        "dangerous-structure aborts are retryable: {err}"
    );
    assert!(
        err.to_string().contains("dangerous structure"),
        "abort must name the dangerous structure: {err}"
    );
    // T2 was rolled back by the failed commit: the invariant holds.
    assert_eq!(total(scheme.as_ref(), oid), 1, "only T1's drain applied");
    // The standard retry loop re-runs T2 on a fresh snapshot; the
    // re-read invariant (a + b = 1 < 2) stops the second drain.
    let out = finecc::runtime::run_txn(scheme.as_ref(), 5, |txn| {
        scheme.send(txn, oid, "drain_b", &[])
    });
    assert!(out.is_committed());
    assert_eq!(
        total(scheme.as_ref(), oid),
        1,
        "serializable execution preserves the invariant"
    );
    let m = read_metrics(scheme.as_ref());
    let count = |name| m.get(name).expect("an mvcc scheme emits it");
    assert_eq!(count("finecc.mvcc.ssi_aborts"), 1.0, "one validation abort");
    assert_eq!(count("finecc.mvcc.write_conflicts"), 0.0, "no ww conflict");
    assert!(
        count("finecc.mvcc.ssi_edges") > 0.0,
        "rw edges were tracked"
    );
}

/// Both-pending interleaving: whichever order the two drains commit in,
/// the dangerous structure forms before the second commit succeeds —
/// never do both commit.
#[test]
fn mvcc_ssi_never_lets_both_skewed_drains_commit() {
    let (scheme, oid) = setup(SchemeKind::MvccSsi);
    let mut t1 = scheme.begin();
    let mut t2 = scheme.begin();
    scheme.send(&mut t1, oid, "drain_a", &[]).unwrap();
    scheme.send(&mut t2, oid, "drain_b", &[]).unwrap();
    let r1 = scheme.commit(t1);
    let r2 = scheme.commit(t2);
    assert!(
        !(r1.is_ok() && r2.is_ok()),
        "SSI admitted write skew: {r1:?} / {r2:?}"
    );
    assert!(
        total(scheme.as_ref(), oid) >= 1,
        "invariant a + b >= 1 must survive"
    );
    let m = read_metrics(scheme.as_ref());
    assert!(m.get("finecc.mvcc.ssi_aborts").expect("emitted") >= 1.0);
}

/// Acceptance check: snapshot readers acquire zero locks — the scheme
/// emits no `finecc.lock.*` sample at all — while a writer holds
/// pending versions.
#[test]
fn mvcc_readers_take_zero_locks() {
    for kind in [SchemeKind::Mvcc, SchemeKind::MvccSsi] {
        mvcc_readers_take_zero_locks_under(kind);
    }
}

/// SSI tracking only ever records — it must not add a single lock
/// request to the reader path.
fn mvcc_readers_take_zero_locks_under(kind: SchemeKind) {
    let (scheme, oid) = setup(kind);
    let mut writer = scheme.begin();
    scheme.send(&mut writer, oid, "drain_a", &[]).unwrap();
    for _ in 0..10 {
        let mut reader = scheme.begin();
        let v = scheme.send(&mut reader, oid, "total", &[]).unwrap();
        assert_eq!(v, Value::Int(2), "snapshot predates the pending drain");
        scheme.commit(reader).unwrap();
    }
    scheme.commit(writer).unwrap();
    let m = read_metrics(scheme.as_ref());
    assert_eq!(
        m.get("finecc.lock.requests"),
        None,
        "no lock manager exists to be asked: the sample is absent, not zero"
    );
    assert!(m.get("finecc.mvcc.snapshot_reads").expect("emitted") > 0.0);
}

//! An extent's hierarchical lock covers its instances only in the mode
//! it was taken in (§5.2: `(m, true)` locks every instance *for m*).
//! A message that an extent method sends through a reference to
//! another instance of the locked domain, in another mode, takes its
//! own locks under every lock scheme — otherwise a concurrent reader
//! sees the extent's uncommitted writes (a dirty read, G1a once the
//! extent aborts).

use finecc::lang::ExecError;
use finecc::model::{ClassId, Oid, Value};
use finecc::runtime::{CcScheme, Env, SchemeKind};
use std::time::Duration;

const NODES: &str = r#"
class node {
  fields { id: integer; v: integer; next: node; }
  method touch is
    if next <> nil then
      send bump to next
    end
  end
  method bump is
    v := v + 1
  end
  method get_v is
    return v
  end
}
"#;

const LOCK_KINDS: [SchemeKind; 4] = [
    SchemeKind::Tav,
    SchemeKind::Rw,
    SchemeKind::FieldLock,
    SchemeKind::Relational,
];

/// A ring of three nodes, each one's `next` the following one, so
/// `send_all(node, "touch")` bumps every node once.
fn ring(kind: SchemeKind) -> (Box<dyn CcScheme>, ClassId, Vec<Oid>) {
    let env = Env::from_source(NODES)
        .unwrap()
        .with_lock_timeout(Duration::from_millis(50));
    let node = env.schema.class_by_name("node").unwrap();
    let field = |name| env.schema.resolve_field(node, name).unwrap();
    let oids: Vec<Oid> = (0..3)
        .map(|i| {
            env.db
                .create_with(node, [(field("id"), Value::Int(i))])
                .unwrap()
        })
        .collect();
    for (i, &oid) in oids.iter().enumerate() {
        let next = Value::Ref(oids[(i + 1) % oids.len()]);
        env.db.write(oid, field("next"), next).unwrap();
    }
    (kind.build(env), node, oids)
}

#[test]
fn a_reader_waits_for_a_bump_sent_through_a_reference_inside_an_extent() {
    let mut dirty = Vec::new();
    for kind in LOCK_KINDS {
        let (scheme, node, oids) = ring(kind);
        let mut t1 = scheme.begin();
        scheme.send_all(&mut t1, node, "touch", &[]).unwrap();
        let mut t2 = scheme.begin();
        match scheme.send(&mut t2, oids[1], "get_v", &[]) {
            Err(ExecError::ConcurrencyAbort {
                deadlock: false, ..
            }) => {}
            other => dirty.push((kind.name(), other)),
        }
        scheme.abort(t2);
        scheme.commit(t1).unwrap();
        let mut t3 = scheme.begin();
        let after = scheme.send(&mut t3, oids[1], "get_v", &[]).unwrap();
        scheme.commit(t3).unwrap();
        assert_eq!(after, Value::Int(1), "{}", kind.name());
    }
    assert!(
        dirty.is_empty(),
        "get_v under the uncommitted extent did not time out: {dirty:?}"
    );
}

#[test]
fn no_committed_reader_sees_an_aborted_extents_bumps() {
    let mut dirty = Vec::new();
    for kind in LOCK_KINDS {
        let (scheme, node, oids) = ring(kind);
        let mut t1 = scheme.begin();
        scheme.send_all(&mut t1, node, "touch", &[]).unwrap();
        for &oid in &oids {
            let mut reader = scheme.begin();
            match scheme.send(&mut reader, oid, "get_v", &[]) {
                Ok(v) => {
                    scheme.commit(reader).unwrap();
                    if v != Value::Int(0) {
                        dirty.push((kind.name(), oid, v));
                    }
                }
                Err(_) => scheme.abort(reader),
            }
        }
        scheme.abort(t1);
        for &oid in &oids {
            assert_eq!(
                scheme.env().read_named(oid, "node", "v"),
                Value::Int(0),
                "{}",
                kind.name()
            );
        }
    }
    assert!(
        dirty.is_empty(),
        "committed readers saw the aborted extent's writes: {dirty:?}"
    );
}

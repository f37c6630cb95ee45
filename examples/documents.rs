//! A document-management domain exercising all four §5.2 access patterns:
//! single-instance messages, whole-class (deep extent) operations,
//! selected-instances-of-a-domain operations, and whole-domain
//! operations — the workload shape the paper's locking protocol was
//! designed around.
//!
//! Run with: `cargo run --example documents`

use finecc::model::{Oid, Value};
use finecc::runtime::{run_txn, CcScheme, Env, TavScheme};

const DOCS: &str = r#"
class document {
  fields {
    title: string;
    views: integer;
    archived: boolean;
  }
  method view is
    views := views + 1
  end
  method archive is
    archived := true
  end
  method hot is
    return views > 100
  end
}

class report inherits document {
  fields {
    status: integer;
    reviewer: string;
  }
  method submit is
    status := 1
  end
  method approve(who) is
    status := 2;
    reviewer := expr(reviewer, who)
  end
  method view is redefined as
    send document.view to self;
    if status = 2 then
      skip
    end
  end
}

class memo inherits document {
  fields {
    urgent: boolean;
  }
  method escalate is
    urgent := true;
    send view to self
  end
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    let env = Env::from_source(DOCS)?;
    let document = env.schema.class_by_name("document").unwrap();
    let report = env.schema.class_by_name("report").unwrap();
    let memo = env.schema.class_by_name("memo").unwrap();

    // Populate: 4 plain documents, 3 reports, 3 memos.
    let mut docs: Vec<Oid> = Vec::new();
    for _ in 0..4 {
        docs.push(env.db.create(document));
    }
    let reports: Vec<Oid> = (0..3).map(|_| env.db.create(report)).collect();
    let memos: Vec<Oid> = (0..3).map(|_| env.db.create(memo)).collect();

    // The compiled matrix shows `approve` (report-only fields) commutes
    // with `view` on documents... but not with report.view, which reads
    // `status` through the override.
    let table = env.compiled.class(report);
    println!("== Commutativity matrix of `report` ==");
    println!("{}", table.to_table_string());
    assert_eq!(table.commute_names("approve", "archive"), Some(true));
    assert_eq!(table.commute_names("approve", "view"), Some(false));

    let scheme = TavScheme::new(env);

    // Pattern (i): one instance.
    must(&scheme, |txn| {
        scheme.send(txn, reports[0], "submit", &[])?;
        scheme.send(txn, reports[0], "approve", &[Value::str("alice")])
    });

    // Pattern (iii): some instances of the domain rooted at `document`.
    must(&scheme, |txn| {
        let picked = [docs[0], reports[1], memos[0]];
        scheme
            .send_some(txn, document, &picked, "view", &[])
            .map(|r| r.into_iter().next().unwrap_or(Value::Nil))
    });

    // Pattern (ii)/(iv): all instances of the domain rooted at `memo`,
    // then an archive sweep over the whole `document` domain.
    must(&scheme, |txn| {
        scheme
            .send_all(txn, memo, "escalate", &[])
            .map(|_| Value::Nil)
    });
    must(&scheme, |txn| {
        scheme
            .send_all(txn, document, "archive", &[])
            .map(|_| Value::Nil)
    });

    // Check the effects.
    let env = scheme.env();
    assert_eq!(
        env.read_named(reports[0], "report", "status"),
        Value::Int(2)
    );
    assert_eq!(env.read_named(docs[0], "document", "views"), Value::Int(1));
    // memos[0] was viewed once directly and once more through `escalate`.
    assert_eq!(env.read_named(memos[0], "document", "views"), Value::Int(2));
    assert_eq!(
        env.read_named(memos[1], "memo", "urgent"),
        Value::Bool(true)
    );
    for oid in docs.iter().chain(&reports).chain(&memos) {
        assert_eq!(
            env.read_named(*oid, "document", "archived"),
            Value::Bool(true),
            "archive sweep covered the whole domain"
        );
    }

    println!("all four §5.2 access patterns executed under the TAV scheme:");
    println!("  lock stats: {:?}", scheme.lock_manager().stats.snapshot());
    Ok(())
}

fn must(
    scheme: &dyn CcScheme,
    f: impl FnMut(&mut finecc::runtime::Txn) -> Result<Value, finecc::lang::ExecError>,
) {
    let out = run_txn(scheme, 5, f);
    assert!(out.is_committed(), "transaction must commit");
}

//! A bank-account hierarchy under concurrent load.
//!
//! Shows what automatic commutativity buys in a realistic domain:
//! `set_rate` (touches only the savings-specific `rate` field) commutes
//! with `deposit` (touches the inherited `balance`/`audit` fields) — the
//! paper's problem P4 in banking clothes. Under read/write locking both
//! are "writers" and serialize; under the TAV scheme they run in
//! parallel. A threaded run checks the money-conservation invariant and
//! compares lock traffic across all four schemes.
//!
//! Run with: `cargo run --example bank`

use finecc::model::Value;
use finecc::prelude::*;
use finecc::runtime::{read_metrics, run_txn, Env, SchemeKind};
use std::sync::Arc;

const BANK: &str = r#"
class account {
  fields {
    owner: string;
    balance: integer;
    audit: integer;
  }
  method deposit(amt) is
    balance := balance + amt;
    send log(amt) to self
  end
  method withdraw(amt) is
    if balance >= amt then
      balance := balance - amt;
      send log(0 - amt) to self;
      return true
    end;
    return false
  end
  method log(amt) is
    audit := audit + 1
  end
  method balance_of is
    return balance
  end
}

class savings inherits account {
  fields {
    rate: integer;
    accrued: integer;
  }
  method set_rate(r) is
    rate := r
  end
  method accrue is
    accrued := accrued + balance * rate / 100
  end
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    // Compile once to show the generated matrix for `savings`.
    let (schema, bodies) = build_schema(BANK)?;
    let compiled = compile(&schema, &bodies)?;
    let savings = schema.class_by_name("savings").unwrap();
    let table = compiled.class(savings);
    println!("== Generated commutativity matrix of `savings` ==");
    println!("{}", table.to_table_string());
    assert_eq!(
        table.commute_names("deposit", "set_rate"),
        Some(true),
        "disjoint-field writers commute under TAVs"
    );
    assert_eq!(table.commute_names("deposit", "accrue"), Some(false));

    // Concurrent run per scheme: 4 threads × 250 deposits of 10 on a
    // shared pool of accounts, with rate updates mixed in.
    let mut rows = Vec::new();
    for kind in SchemeKind::ALL {
        let env = Env::from_source(BANK)?;
        let account = env.schema.class_by_name("account").unwrap();
        let savings = env.schema.class_by_name("savings").unwrap();
        let mut accounts = Vec::new();
        for _ in 0..8 {
            accounts.push(env.db.create(account));
            accounts.push(env.db.create(savings));
        }
        let accounts = Arc::new(accounts);
        let scheme: Arc<dyn finecc::runtime::CcScheme> = Arc::from(kind.build(env));

        let deposits_per_thread = 250;
        std::thread::scope(|s| {
            for t in 0..4 {
                let scheme = Arc::clone(&scheme);
                let accounts = Arc::clone(&accounts);
                s.spawn(move || {
                    for i in 0..deposits_per_thread {
                        let oid = accounts[(t * 7 + i) % accounts.len()];
                        let out = run_txn(scheme.as_ref(), 50, |txn| {
                            scheme.send(txn, oid, "deposit", &[Value::Int(10)])
                        });
                        assert!(out.is_committed(), "deposit must commit");
                        // Every 10th iteration, a rate change on a savings
                        // account (odd indices are savings).
                        if i % 10 == 0 {
                            let sav = accounts[((t * 7 + i) % accounts.len()) | 1];
                            let out = run_txn(scheme.as_ref(), 50, |txn| {
                                scheme.send(txn, sav, "set_rate", &[Value::Int(5)])
                            });
                            assert!(out.is_committed());
                        }
                    }
                });
            }
        });

        // Invariant: all deposited money is present.
        let env = scheme.env();
        let total: i64 = accounts
            .iter()
            .map(|&oid| match env.read_named(oid, "account", "balance") {
                Value::Int(v) => v,
                other => panic!("balance must be an int, got {other}"),
            })
            .sum();
        assert_eq!(total, 4 * deposits_per_thread as i64 * 10);

        // By name: the mvcc schemes have no lock manager and emit no
        // `finecc.lock.*` sample, which prints as "-", not as a zero.
        let m = read_metrics(scheme.as_ref());
        let lock = |name| m.get(name).map_or("-".to_string(), |v| v.to_string());
        rows.push([
            kind.name().to_string(),
            lock("finecc.lock.requests"),
            lock("finecc.lock.blocks"),
            lock("finecc.lock.upgrades"),
            lock("finecc.lock.deadlocks"),
        ]);
    }

    println!("== 1000 deposits + rate updates, 4 threads, by scheme ==");
    let header = ["scheme", "lock reqs", "blocks", "upgrades", "deadlocks"].map(String::from);
    for [scheme, reqs, blocks, upgrades, deadlocks] in std::iter::once(&header).chain(&rows) {
        println!("{scheme:<10}  {reqs:>9}  {blocks:>6}  {upgrades:>8}  {deadlocks:>9}");
    }
    println!("conservation invariant held under every scheme ✓");
    Ok(())
}

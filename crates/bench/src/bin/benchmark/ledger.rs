//! The `ledger` schema — method-language source owned by the benchmark —
//! and its seeded population.

use crate::api::{self, ClassId, Env, FieldId, Oid, Value};
use rand::rngs::StdRng;
use rand::RngExt;

/// `id` comes first so that the relational baseline's primary key (the
/// hierarchy root's first field) is a field no method writes; with
/// `balance` first every deposit would be a key update that write-locks
/// the tuple in every relation of the hierarchy.
///
/// What the methods are for:
/// * `deposit` writes `balance` and self-sends `log` (one control per
///   top message under tav, two under rw).
/// * `withdraw` reads then conditionally writes `balance` — the §3
///   read→write escalation pattern.
/// * `set_limit` writes only `limit`: commutes with `deposit` under
///   access vectors, conflicts under read/write locking.
/// * `savings.deposit` is redefined through a prefixed call and touches
///   `accrued`, not `rate`, so it still commutes with `set_rate`.
/// * `checking.withdraw` is the second override: it reads `limit`, so
///   for checking accounts `withdraw` and `set_limit` truly conflict.
pub const SOURCE: &str = r#"
class account {
  fields {
    id: integer;
    balance: integer;
    audit: integer;
    limit: integer;
  }
  method deposit(amt) is
    balance := balance + amt;
    send log to self
  end
  method withdraw(amt) is
    if balance >= amt then
      balance := balance - amt;
      send log to self;
      return true
    end;
    return false
  end
  method log is
    audit := audit + 1
  end
  method balance_of is
    return balance
  end
  method set_limit(l) is
    limit := l
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
  method deposit(amt) is redefined as
    send account.deposit(amt) to self;
    accrued := accrued + amt / 10
  end
}

class checking inherits account {
  fields {
    overdrafts: integer;
  }
  method withdraw(amt) is redefined as
    if balance + limit >= amt then
      if balance < amt then
        overdrafts := overdrafts + 1
      end;
      balance := balance - amt;
      send log to self;
      return true
    end;
    return false
  end
}
"#;

/// Large enough that no withdrawal of a run can fail.
pub const BASE_BALANCE: i64 = 1_000_000_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Account,
    Savings,
    Checking,
}

/// One object's seeded initial state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Seeded {
    pub kind: Kind,
    pub balance: i64,
    pub limit: i64,
    pub rate: i64,
}

/// `n` objects; `mixed` rotates the three classes, otherwise all are
/// `savings`.
pub fn population(rng: &mut StdRng, n: usize, mixed: bool) -> Vec<Seeded> {
    (0..n)
        .map(|i| Seeded {
            kind: match (mixed, i % 3) {
                (true, 0) => Kind::Account,
                (true, 2) => Kind::Checking,
                _ => Kind::Savings,
            },
            balance: BASE_BALANCE + rng.random_range(0..1_000_000i64),
            limit: rng.random_range(0..10_000i64),
            rate: rng.random_range(1..=10i64),
        })
        .collect()
}

pub fn total_balance(pop: &[Seeded]) -> i64 {
    pop.iter().map(|s| s.balance).sum()
}

/// Class and field handles of one environment.
pub struct Ledger {
    pub account: ClassId,
    pub savings: ClassId,
    pub checking: ClassId,
    pub id: FieldId,
    pub balance: FieldId,
    pub audit: FieldId,
    pub limit: FieldId,
    pub rate: FieldId,
}

impl Ledger {
    pub fn of(env: &Env) -> Ledger {
        let account = api::class(env, "account");
        let savings = api::class(env, "savings");
        Ledger {
            account,
            savings,
            checking: api::class(env, "checking"),
            id: api::field(env, account, "id"),
            balance: api::field(env, account, "balance"),
            audit: api::field(env, account, "audit"),
            limit: api::field(env, account, "limit"),
            rate: api::field(env, savings, "rate"),
        }
    }

    /// Creates the population in the environment's store, in order.
    pub fn populate(&self, env: &Env, pop: &[Seeded]) -> Vec<Oid> {
        pop.iter()
            .enumerate()
            .map(|(i, s)| {
                let mut init = vec![
                    (self.id, Value::Int(i as i64)),
                    (self.balance, Value::Int(s.balance)),
                    (self.limit, Value::Int(s.limit)),
                ];
                let class = match s.kind {
                    Kind::Account => self.account,
                    Kind::Checking => self.checking,
                    Kind::Savings => {
                        init.push((self.rate, Value::Int(s.rate)));
                        self.savings
                    }
                };
                api::create(env, class, init)
            })
            .collect()
    }
}

//! The four workloads: seeded populations and per-client op streams,
//! and the one function that runs a generated transaction against
//! whatever executes messages (a scheme, the bare store, the bare
//! interpreter).
//!
//! Inputs are generated here, not through `finecc_sim::workload`, so a
//! later change to the simulator cannot move the benchmark.

use crate::api::{ExecError, Value};
use crate::ledger::{self, Seeded};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Client threads of the closed loop. Constant: the sandbox has 2 cores.
pub const CLIENTS: usize = 2;
/// Transactions per client stream (the loop wraps around), and the
/// single-client cost ladder runs exactly one pass of client 0's.
pub const STREAM_LEN: usize = 100_000;
/// One read-only domain scan per this many short transactions.
pub const SCAN_EVERY: usize = 200;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub objects: usize,
    /// Rotate the three classes (otherwise all `savings`).
    pub mixed: bool,
    /// Build every scheme over an async-group-commit log.
    pub durable: bool,
    /// Single-client ladder length, sized so a rung takes about a second.
    pub ladder_txns: usize,
    shape: Shape,
}

#[derive(Clone, Copy)]
enum Shape {
    /// One message per transaction; `updates` in percent.
    Single { updates: u32 },
    /// Four messages on the hot set, random object order.
    HotCommute,
    /// Transfers and `set_limit`, one scan per [`SCAN_EVERY`].
    ScanVsUpdate,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "short-readmostly",
        why: "50,000 objects, one message per txn, 90% balance_of: pure path length, no conflicts; the bypass workload for contention and WAL work",
        objects: 50_000,
        mixed: true,
        durable: false,
        ladder_txns: 100_000,
        shape: Shape::Single { updates: 10 },
    },
    Workload {
        name: "hot-commute",
        why: "8 hot savings objects, 4 messages per txn: tav blocks only on true conflicts, rw/fieldlock escalate and deadlock, mvcc ww-aborts, ssi validates",
        objects: 8,
        mixed: false,
        durable: false,
        ladder_txns: 25_000,
        shape: Shape::HotCommute,
    },
    Workload {
        name: "scan-vs-update",
        why: "2,000 savings objects, one read-only send_all per 200 short transfers/set_limits: long reader vs short updaters, class locks vs snapshots",
        objects: 2_000,
        mixed: false,
        durable: false,
        ladder_txns: 20_000,
        shape: Shape::ScanVsUpdate,
    },
    Workload {
        name: "durable-update",
        why: "short-readmostly's population, 100% single-message updates over an async group-commit WAL: the uncontended write path plus redo encoding and the flusher",
        objects: 50_000,
        mixed: true,
        durable: true,
        ladder_txns: 100_000,
        shape: Shape::Single { updates: 100 },
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Deposit,
    Withdraw,
    SetLimit,
    SetRate,
    Accrue,
    BalanceOf,
}

impl Op {
    pub fn method(self) -> &'static str {
        match self {
            Op::Deposit => "deposit",
            Op::Withdraw => "withdraw",
            Op::SetLimit => "set_limit",
            Op::SetRate => "set_rate",
            Op::Accrue => "accrue",
            Op::BalanceOf => "balance_of",
        }
    }

    fn takes_arg(self) -> bool {
        !matches!(self, Op::Accrue | Op::BalanceOf)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Msg {
    pub obj: u32,
    pub op: Op,
    pub arg: i32,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Form {
    /// Every message is sent.
    Plain,
    /// `withdraw a; deposit b` — the deposit only if the withdrawal
    /// succeeded, so money is moved, never made.
    Transfer,
    /// Read-only `send_all(savings, balance_of)`.
    Scan,
}

/// One generated transaction (fixed-size, so a stream is one allocation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxnSpec {
    pub form: Form,
    len: u8,
    msgs: [Msg; 4],
}

impl TxnSpec {
    fn new(form: Form, msgs: &[Msg]) -> TxnSpec {
        let mut fixed = [Msg {
            obj: 0,
            op: Op::BalanceOf,
            arg: 0,
        }; 4];
        fixed[..msgs.len()].copy_from_slice(msgs);
        TxnSpec {
            form,
            len: msgs.len() as u8,
            msgs: fixed,
        }
    }

    pub fn msgs(&self) -> &[Msg] {
        &self.msgs[..self.len as usize]
    }
}

/// Everything a run feeds the program, fully determined by the seed.
#[derive(Debug, PartialEq, Eq)]
pub struct Inputs {
    pub population: Vec<Seeded>,
    pub streams: Vec<Vec<TxnSpec>>,
}

impl Workload {
    pub fn generate(&self, seed: u64) -> Inputs {
        self.generate_len(seed, STREAM_LEN)
    }

    /// [`Workload::generate`] with a chosen stream length (unit tests
    /// use short ones).
    pub fn generate_len(&self, seed: u64, stream_len: usize) -> Inputs {
        let mut rng = StdRng::seed_from_u64(seed);
        let population = ledger::population(&mut rng, self.objects, self.mixed);
        let streams = (0..CLIENTS)
            .map(|client| {
                // Scans of the two clients are phase-shifted so they do
                // not always collide.
                let scan_phase = rng.random_range(0..SCAN_EVERY);
                (0..stream_len)
                    .map(|i| self.txn(&mut rng, (i + scan_phase + client) % SCAN_EVERY == 0))
                    .collect()
            })
            .collect();
        Inputs {
            population,
            streams,
        }
    }

    fn txn(&self, rng: &mut StdRng, scan_slot: bool) -> TxnSpec {
        let n = self.objects as u32;
        let msg = |rng: &mut StdRng, obj: u32, op: Op| Msg {
            obj,
            op,
            arg: if op.takes_arg() {
                rng.random_range(1..=100)
            } else {
                0
            },
        };
        match self.shape {
            Shape::Single { updates } => {
                let obj = rng.random_range(0..n);
                let op = if rng.random_range(0..100u32) < updates {
                    match rng.random_range(0..10u32) {
                        0..=4 => Op::Deposit,
                        5..=7 => Op::Withdraw,
                        _ => Op::SetLimit,
                    }
                } else {
                    Op::BalanceOf
                };
                TxnSpec::new(Form::Plain, &[msg(rng, obj, op)])
            }
            Shape::HotCommute => {
                let msgs: [Msg; 4] = std::array::from_fn(|_| {
                    let obj = rng.random_range(0..n);
                    let op = match rng.random_range(0..10u32) {
                        0..=3 => Op::Deposit,
                        4..=5 => Op::SetLimit,
                        6..=7 => Op::SetRate,
                        8 => Op::Withdraw,
                        _ => Op::Accrue,
                    };
                    msg(rng, obj, op)
                });
                TxnSpec::new(Form::Plain, &msgs)
            }
            Shape::ScanVsUpdate if scan_slot => TxnSpec::new(Form::Scan, &[]),
            Shape::ScanVsUpdate => {
                let a = rng.random_range(0..n);
                if rng.random_bool(0.5) {
                    let b = (a + rng.random_range(1..n)) % n;
                    let out = msg(rng, a, Op::Withdraw);
                    let back = Msg {
                        obj: b,
                        op: Op::Deposit,
                        arg: out.arg,
                    };
                    TxnSpec::new(Form::Transfer, &[out, back])
                } else {
                    TxnSpec::new(Form::Plain, &[msg(rng, a, Op::SetLimit)])
                }
            }
        }
    }
}

/// Whatever executes messages on the population.
pub trait Target {
    fn send(&mut self, obj: u32, method: &'static str, args: &[Value]) -> Result<Value, ExecError>;
    /// `balance_of` on every `savings` object, in OID order.
    fn scan(&mut self) -> Result<Vec<Value>, ExecError>;
}

/// What one execution of a transaction did, as the client sees it; the
/// oracle adds these up for committed attempts only.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Effect {
    /// Net change of Σ `balance`.
    pub balance: i64,
    /// `log` messages run (one per deposit and per successful withdrawal).
    pub logged: u64,
    pub scans: u64,
    /// Scans that did not return every object with the constant total.
    pub bad_scans: u64,
}

impl std::ops::AddAssign for Effect {
    fn add_assign(&mut self, o: Effect) {
        self.balance += o.balance;
        self.logged += o.logged;
        self.scans += o.scans;
        self.bad_scans += o.bad_scans;
    }
}

/// What a correct scan returns.
#[derive(Clone, Copy)]
pub struct ScanExpect {
    pub objects: usize,
    pub total: i64,
}

impl Inputs {
    pub fn scan_expect(&self) -> ScanExpect {
        ScanExpect {
            objects: self.population.len(),
            total: ledger::total_balance(&self.population),
        }
    }
}

pub fn execute(
    target: &mut impl Target,
    spec: &TxnSpec,
    expect: ScanExpect,
) -> Result<Effect, ExecError> {
    let mut fx = Effect::default();
    if spec.form == Form::Scan {
        let values = target.scan()?;
        let sum: i64 = values.iter().filter_map(Value::as_int).sum();
        fx.scans = 1;
        fx.bad_scans = u64::from(values.len() != expect.objects || sum != expect.total);
        return Ok(fx);
    }
    for m in spec.msgs() {
        let amt = i64::from(m.arg);
        let arg = [Value::Int(amt)];
        let args: &[Value] = if m.op.takes_arg() { &arg } else { &[] };
        let reply = target.send(m.obj, m.op.method(), args)?;
        match m.op {
            Op::Deposit => {
                fx.balance += amt;
                fx.logged += 1;
            }
            Op::Withdraw if reply.truthy() => {
                fx.balance -= amt;
                fx.logged += 1;
            }
            Op::Withdraw if spec.form == Form::Transfer => break,
            _ => {}
        }
    }
    Ok(fx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in &WORKLOADS {
            let a = w.generate_len(7, 4_000);
            assert_eq!(a, w.generate_len(7, 4_000), "{}", w.name);
            // Byte-identical, not merely equal under some lenient Eq.
            assert_eq!(
                format!("{:?}", a.streams),
                format!("{:?}", w.generate_len(7, 4_000).streams)
            );
            assert_ne!(a.streams, w.generate_len(8, 4_000).streams, "{}", w.name);
            assert_ne!(a.population, w.generate_len(8, 4_000).population);
        }
    }

    #[test]
    fn streams_have_the_advertised_shape() {
        const LEN: usize = 20_000;
        let scan = by_name("scan-vs-update").unwrap().generate_len(1, LEN);
        for s in &scan.streams {
            let scans = s.iter().filter(|t| t.form == Form::Scan).count();
            assert_eq!(scans, LEN / SCAN_EVERY);
            assert!(s
                .iter()
                .filter(|t| t.form == Form::Transfer)
                .all(|t| t.msgs()[0].obj != t.msgs()[1].obj && t.msgs()[0].arg == t.msgs()[1].arg));
        }
        let hot = by_name("hot-commute").unwrap().generate_len(1, LEN);
        assert!(hot.streams[0].iter().all(|t| t.msgs().len() == 4));
        let durable = by_name("durable-update").unwrap().generate_len(1, LEN);
        assert!(durable.streams[1]
            .iter()
            .all(|t| t.msgs()[0].op != Op::BalanceOf));
    }
}

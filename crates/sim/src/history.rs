//! One isolation checker for every scheme: a recorded history in, every
//! violation out, each named by its Adya class.
//!
//! A [`History`] holds one [`Record`] per transaction *attempt*: its
//! session (the worker or thread that ran it), its read point, its
//! commit order or `None` for an abort, and its reads and writes of
//! integer fields in program order. [`Recorded`] fills it at the
//! [`CcScheme`] seam — it notes each attempt's begin, commit order or
//! abort — while the workload notes its own reads and writes; heap-level
//! tests build records by hand.
//!
//! **Versions are identified by value.** A checked workload writes a
//! value unique per key and per attempt, and every key starts at 0.
//! Version order per key is the writers' commit order: the lock schemes'
//! commit sequence (drawn while their locks are held), mvcc's commit
//! timestamp. [`History::check`] then reports:
//!
//! * **reads** — each committed read must equal the reader's own
//!   earlier write, else the newest version of another writer whose
//!   commit order is at most the reader's read point (mvcc: the
//!   snapshot timestamp; a lock scheme: the reader's own commit
//!   sequence). A value only an aborted attempt wrote is [`Class::G1a`];
//!   any other disagreement — a lost or reordered write — is a
//!   [`Class::Mismatch`];
//! * **cycles** in the dependency graph over the committed transactions
//!   plus a virtual initial one: ww (version order), wr, rw
//!   (anti-dependency) and session edges (a session's consecutive
//!   commits). Each cyclic strongly connected component is one
//!   violation: [`Class::G1c`] if it holds a cycle without rw edges,
//!   else [`Class::GSingle`] if an rw edge closes a cycle of other
//!   edges, else [`Class::G2`];
//! * a value written twice, a write of the initial 0, or two writers
//!   sharing a commit order — [`Class::Duplicate`], since versions could
//!   no longer be told apart.
//!
//! G0 cannot form: version order *is* the declared commit order. A
//! serializable scheme admits nothing; snapshot isolation admits G2
//! ([`Violation::admitted`]).

use finecc_core::tarjan;
use finecc_lang::ExecError;
use finecc_model::{ClassId, FieldId, Oid, Value};
use finecc_runtime::{CcScheme, Env, Txn};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::sync::Mutex;

/// One integer field of one object.
pub type Key = (Oid, FieldId);

/// A read or a write of one key, with the value read or written.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// The value a read returned.
    Read(Key, i64),
    /// The value a write installed.
    Write(Key, i64),
}

/// One transaction attempt.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Record {
    /// The worker or thread that ran it; its committed records are
    /// ordered by their place in [`History::txns`].
    pub session: u32,
    /// The session's op index, for reports.
    pub op: u32,
    /// The commit order whose writes it sees (its own excluded).
    pub read_point: u64,
    /// Its commit order, `None` if it aborted.
    pub commit: Option<u64>,
    /// Its reads and writes in program order.
    pub ops: Vec<Op>,
}

/// The recorded attempts of one run.
#[derive(Clone, Debug, Default)]
pub struct History {
    /// All attempts, each session's in the order they ended.
    pub txns: Vec<Record>,
}

/// An isolation violation's class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Class {
    /// A read of a value only an aborted attempt wrote.
    G1a,
    /// A read that disagrees with the committed state at its read point.
    Mismatch,
    /// A cycle of ww, wr and session edges.
    G1c,
    /// A cycle closed by exactly one rw edge.
    GSingle,
    /// A cycle through two or more rw edges.
    G2,
    /// Two writes of one value to one key, a write of the initial 0, or
    /// two writers with one commit order.
    Duplicate,
}

impl fmt::Display for Class {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Class::GSingle => f.write_str("G-single"),
            other => write!(f, "{other:?}"),
        }
    }
}

/// A dependency edge's kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Dep {
    /// The target installed the next version of a key the source wrote.
    Ww,
    /// The target read a version the source wrote.
    Wr,
    /// The target installed the version after the one the source read.
    Rw,
    /// The target is the source's session's next commit.
    Session,
}

/// One violation [`History::check`] found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Its class.
    pub class: Class,
    /// For a cycle: each transaction as `(session, op)` with the edge to
    /// the next, the last closing on the first. Empty otherwise.
    pub cycle: Vec<((u32, u32), Dep)>,
    /// What was read or duplicated, for the other classes.
    pub detail: String,
}

impl Violation {
    fn of(class: Class, detail: String) -> Violation {
        Violation {
            class,
            cycle: Vec::new(),
            detail,
        }
    }

    /// Whether a scheme's contract admits it: a serializable scheme
    /// admits nothing, snapshot isolation admits G2.
    pub fn admitted(&self, serializable: bool) -> bool {
        !serializable && self.class == Class::G2
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.class, self.detail)?;
        for ((session, op), dep) in &self.cycle {
            write!(f, "w{session}/op{op} -{dep:?}-> ")?;
        }
        if let Some(((session, op), _)) = self.cycle.first() {
            write!(f, "w{session}/op{op}")?;
        }
        Ok(())
    }
}

impl Record {
    fn label(&self) -> String {
        format!("w{}/op{}", self.session, self.op)
    }

    /// Its writes, the last per key: the versions it installs.
    pub fn installs(&self) -> BTreeMap<Key, i64> {
        let writes = self.ops.iter().filter_map(|op| match *op {
            Op::Write(key, v) => Some((key, v)),
            Op::Read(..) => None,
        });
        writes.collect()
    }
}

/// A dependency graph's adjacency: per node, its out-edges.
type Graph = Vec<Vec<(u32, Dep)>>;

/// What the versions of a history are: the committed attempts as graph
/// nodes 1.. (node 0 is the initial state), each key's versions as
/// `(commit order, node, value)` in commit order, and every written
/// `(key, value)`'s attempt.
#[derive(Default)]
struct Versions {
    nodes: Vec<usize>,
    chains: BTreeMap<Key, Vec<(u64, u32, i64)>>,
    position: HashMap<(Key, i64), usize>,
    writer: HashMap<(Key, i64), usize>,
}

impl History {
    /// Every violation in the history (see the module docs).
    pub fn check(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        let versions = self.versions(&mut out);
        let graph = self.replay(&versions, &mut out);
        self.cycles(&versions.nodes, &graph, &mut out);
        out
    }

    /// The versions, reporting duplicate values and commit orders.
    fn versions(&self, out: &mut Vec<Violation>) -> Versions {
        let mut vs = Versions {
            nodes: vec![usize::MAX],
            ..Versions::default()
        };
        let mut by_order: HashMap<u64, usize> = HashMap::new();
        for (i, r) in self.txns.iter().enumerate() {
            for op in &r.ops {
                let Op::Write(key, v) = *op else { continue };
                if v == 0 || *vs.writer.entry((key, v)).or_insert(i) != i {
                    let detail = format!("{} wrote {v} to {}.{}", r.label(), key.0, key.1);
                    out.push(Violation::of(Class::Duplicate, detail));
                }
            }
            let Some(order) = r.commit else { continue };
            let installs = r.installs();
            if !installs.is_empty() {
                if let Some(other) = by_order.insert(order, i) {
                    let both = format!("{} and {}", self.txns[other].label(), r.label());
                    out.push(Violation::of(
                        Class::Duplicate,
                        format!("{both} commit at {order}"),
                    ));
                }
            }
            let node = vs.nodes.len() as u32;
            for (key, v) in installs {
                vs.chains.entry(key).or_default().push((order, node, v));
            }
            vs.nodes.push(i);
        }
        for (key, chain) in &mut vs.chains {
            chain.sort_unstable();
            for (p, &(_, _, v)) in chain.iter().enumerate() {
                vs.position.insert((*key, v), p);
            }
        }
        vs
    }

    /// Replays every committed read against the committed state at its
    /// read point, reporting G1a and Mismatch, and returns the graph of
    /// ww, wr, rw and session edges.
    fn replay(&self, vs: &Versions, out: &mut Vec<Violation>) -> Graph {
        let mut graph: Graph = vec![Vec::new(); vs.nodes.len()];
        for chain in vs.chains.values() {
            let writers = chain.iter().map(|c| c.1);
            for (a, b) in std::iter::once(0).chain(writers.clone()).zip(writers) {
                graph[a as usize].push((b, Dep::Ww));
            }
        }
        let mut last_of_session: HashMap<u32, u32> = HashMap::new();
        for (n, &i) in vs.nodes.iter().enumerate().skip(1) {
            let (r, n) = (&self.txns[i], n as u32);
            if let Some(prev) = last_of_session.insert(r.session, n) {
                graph[prev as usize].push((n, Dep::Session));
            }
            let mut own: HashMap<Key, i64> = HashMap::new();
            for op in &r.ops {
                let (key, v) = match *op {
                    Op::Write(key, v) => {
                        own.insert(key, v);
                        continue;
                    }
                    Op::Read(key, v) => (key, v),
                };
                let chain = vs.chains.get(&key).map_or(&[][..], Vec::as_slice);
                let seen = chain.partition_point(|c| c.0 <= r.read_point);
                let visible = || {
                    chain[..seen]
                        .iter()
                        .rev()
                        .find(|c| c.1 != n)
                        .map_or(0, |c| c.2)
                };
                let expected = own.get(&key).copied().unwrap_or_else(visible);
                if expected != v {
                    let w = vs.writer.get(&(key, v));
                    let aborted = w.is_some_and(|&w| self.txns[w].commit.is_none());
                    let class = if aborted { Class::G1a } else { Class::Mismatch };
                    let (label, (oid, field)) = (r.label(), key);
                    let detail =
                        format!("{label} read {v} from {oid}.{field}, expected {expected}");
                    out.push(Violation::of(class, detail));
                }
                // The version read — the initial 0 sits before position
                // 0 — sends a wr edge from its writer and an rw edge to
                // the next version's.
                let pos = match vs.position.get(&(key, v)) {
                    _ if own.contains_key(&key) => continue,
                    Some(&p) => Some(p),
                    None if v == 0 => None,
                    None => continue,
                };
                let from = pos.map_or(0, |p| chain[p].1);
                if from != n {
                    graph[from as usize].push((n, Dep::Wr));
                }
                match chain.get(pos.map_or(0, |p| p + 1)) {
                    Some(&(_, next, _)) if next != n => graph[n as usize].push((next, Dep::Rw)),
                    _ => {}
                }
            }
        }
        for edges in &mut graph {
            edges.sort_unstable();
            edges.dedup();
        }
        graph
    }

    /// One violation per cyclic strongly connected component, classed by
    /// its worst cycle; the components of the rw-free subgraph find the
    /// G1c.
    fn cycles(&self, nodes: &[usize], graph: &Graph, out: &mut Vec<Violation>) {
        let sccs = |keep: fn(Dep) -> bool| {
            let kept =
                |es: &Vec<(u32, Dep)>| es.iter().filter(|e| keep(e.1)).map(|e| e.0).collect();
            let sccs = tarjan::sccs(&graph.iter().map(kept).collect::<Vec<_>>());
            sccs.into_iter().filter(|scc| scc.len() > 1)
        };
        let mut rw_free = vec![usize::MAX; graph.len()];
        for (c, scc) in sccs(|d| d != Dep::Rw).enumerate() {
            scc.iter().for_each(|&n| rw_free[n as usize] = c);
        }
        let same = |a: u32, b: u32| {
            rw_free[a as usize] != usize::MAX && rw_free[a as usize] == rw_free[b as usize]
        };
        let rank = self.ranks(nodes);
        let mut component = vec![usize::MAX; graph.len()];
        let mut bfs = Bfs::new(graph.len());
        for (c, scc) in sccs(|_| true).enumerate() {
            scc.iter().for_each(|&n| component[n as usize] = c);
            let member = |n: u32| component[n as usize] == c;
            let edges = scc
                .iter()
                .flat_map(|&a| graph[a as usize].iter().map(move |&(b, d)| (a, b, d)));
            let inner: Vec<_> = edges.filter(|e| member(e.1)).collect();
            // With every rw-free edge running forward in rank order, a
            // path of them from `b` back to `a` exists only if `b` ranks
            // below `a`, and passes only nodes ranked at most `a`.
            let forward = inner
                .iter()
                .all(|&(a, b, d)| d == Dep::Rw || rank[a as usize] < rank[b as usize]);
            // The first edge `pick` takes that a path back closes (with rw
            // edges if `rw`; through nodes ranked at most its source if
            // `bounded`).
            let mut closing = |pick: &dyn Fn(u32, u32, Dep) -> bool, rw: bool, bounded: bool| {
                let mut picked = inner.iter().filter(|&&(a, b, d)| pick(a, b, d));
                picked.find_map(|&(a, b, d)| {
                    let keep = |m: u32, e: Dep| {
                        member(m)
                            && (rw || e != Dep::Rw)
                            && (!bounded || rank[m as usize] <= rank[a as usize])
                    };
                    let back = bfs.path(graph, b, a, keep)?;
                    Some(std::iter::once((a, d)).chain(back).collect::<Vec<_>>())
                })
            };
            let single = |a: u32, b: u32, d: Dep| {
                d == Dep::Rw && (!forward || rank[b as usize] < rank[a as usize])
            };
            let (class, cycle) =
                if let Some(c) = closing(&|a, b, d| d != Dep::Rw && same(a, b), false, false) {
                    (Class::G1c, c)
                } else if let Some(c) = closing(&single, false, forward) {
                    (Class::GSingle, c)
                } else {
                    (
                        Class::G2,
                        closing(&|_, _, _| true, true, false).expect("an SCC edge is on a cycle"),
                    )
                };
            let label = |(n, d): (u32, Dep)| {
                let r = &self.txns[nodes[n as usize]];
                ((r.session, r.op), d)
            };
            out.push(Violation {
                class,
                cycle: cycle.into_iter().map(label).collect(),
                detail: String::new(),
            });
        }
    }

    /// Each graph node's place in (commit order, writers before
    /// read-only transactions, history order), the initial state first:
    /// the order ww, wr and session edges run in when every read saw
    /// what committed before it.
    fn ranks(&self, nodes: &[usize]) -> Vec<u32> {
        let key = |n: usize| {
            let r = &self.txns[nodes[n]];
            let read_only = !r.ops.iter().any(|op| matches!(op, Op::Write(..)));
            (r.commit, read_only, n)
        };
        let mut order: Vec<usize> = (1..nodes.len()).collect();
        order.sort_unstable_by_key(|&n| key(n));
        let mut rank = vec![0; nodes.len()];
        for (place, n) in order.into_iter().enumerate() {
            rank[n] = place as u32 + 1;
        }
        rank
    }
}

/// Shortest-path searches over one graph that share their bookkeeping:
/// a node is visited in the current search when its stamp is the
/// search's, so no search clears what the last one left behind.
struct Bfs {
    stamp: Vec<u32>,
    came: Vec<(u32, Dep)>,
    search: u32,
    queue: VecDeque<u32>,
}

impl Bfs {
    fn new(nodes: usize) -> Bfs {
        Bfs {
            stamp: vec![0; nodes],
            came: vec![(0, Dep::Ww); nodes],
            search: 0,
            queue: VecDeque::new(),
        }
    }

    /// A shortest path `from → to` whose every step, into node `m` by an
    /// edge of kind `d`, `keep(m, d)` allows, as each node with the edge
    /// it leaves by.
    fn path(
        &mut self,
        graph: &Graph,
        from: u32,
        to: u32,
        keep: impl Fn(u32, Dep) -> bool,
    ) -> Option<Vec<(u32, Dep)>> {
        self.search += 1;
        self.stamp[from as usize] = self.search;
        self.queue.clear();
        self.queue.push_back(from);
        while let Some(n) = self.queue.pop_front() {
            if n == to {
                let mut steps = vec![];
                let mut at = to;
                while at != from {
                    let (prev, d) = self.came[at as usize];
                    steps.push((prev, d));
                    at = prev;
                }
                steps.reverse();
                return Some(steps);
            }
            for &(m, d) in &graph[n as usize] {
                if self.stamp[m as usize] != self.search && keep(m, d) {
                    self.stamp[m as usize] = self.search;
                    self.came[m as usize] = (n, d);
                    self.queue.push_back(m);
                }
            }
        }
        None
    }
}

/// A [`CcScheme`] that notes each attempt's begin, commit order or abort
/// into a [`History`], for one op of one session; the workload notes
/// the op's reads and writes through [`Recorded::read`] and
/// [`Recorded::write`]. Every other call goes straight through.
pub struct Recorded<'a> {
    scheme: &'a dyn CcScheme,
    history: &'a Mutex<History>,
    attempt: Mutex<Record>,
}

impl<'a> Recorded<'a> {
    /// Records op `op` of session `session` run against `scheme`.
    pub fn new(
        scheme: &'a dyn CcScheme,
        history: &'a Mutex<History>,
        session: u32,
        op: u32,
    ) -> Self {
        let attempt = Mutex::new(Record {
            session,
            op,
            ..Record::default()
        });
        Recorded {
            scheme,
            history,
            attempt,
        }
    }

    /// Notes that the attempt in flight read `value` from `key`.
    pub fn read(&self, key: Key, value: i64) {
        lock(&self.attempt).ops.push(Op::Read(key, value));
    }

    /// Notes that the attempt in flight writes `value` to `key` — before
    /// the write is sent, so a write that fails half-way still names
    /// its value.
    pub fn write(&self, key: Key, value: i64) {
        lock(&self.attempt).ops.push(Op::Write(key, value));
    }

    fn end(&self, commit: Option<u64>) {
        let mut attempt = lock(&self.attempt);
        attempt.commit = commit;
        lock(self.history).txns.push(attempt.clone());
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl CcScheme for Recorded<'_> {
    fn name(&self) -> &'static str {
        self.scheme.name()
    }

    fn env(&self) -> &Env {
        self.scheme.env()
    }

    fn begin(&self) -> Txn {
        let txn = self.scheme.begin();
        let mut attempt = lock(&self.attempt);
        attempt.read_point = txn.mvcc.as_ref().map_or(0, |m| m.ts());
        attempt.ops.clear();
        txn
    }

    fn send(
        &self,
        txn: &mut Txn,
        oid: Oid,
        method: &str,
        args: &[Value],
    ) -> Result<Value, ExecError> {
        self.scheme.send(txn, oid, method, args)
    }

    fn send_all(
        &self,
        txn: &mut Txn,
        root: ClassId,
        method: &str,
        args: &[Value],
    ) -> Result<Vec<Value>, ExecError> {
        self.scheme.send_all(txn, root, method, args)
    }

    fn send_some(
        &self,
        txn: &mut Txn,
        root: ClassId,
        oids: &[Oid],
        method: &str,
        args: &[Value],
    ) -> Result<Vec<Value>, ExecError> {
        self.scheme.send_some(txn, root, oids, method, args)
    }

    fn commit(&self, txn: Txn) -> Result<u64, ExecError> {
        // A lock scheme's transaction sees what committed before its own
        // commit sequence.
        let locked = txn.mvcc.is_none();
        let result = self.scheme.commit(txn);
        if let (true, Ok(seq)) = (locked, &result) {
            lock(&self.attempt).read_point = *seq;
        }
        self.end(result.as_ref().ok().copied());
        result
    }

    fn abort(&self, txn: Txn) {
        self.scheme.abort(txn);
        self.end(None);
    }

    fn register_metrics(&self, reg: &finecc_obs::MetricsRegistry, labels: &[(&str, &str)]) {
        self.scheme.register_metrics(reg, labels);
    }

    fn checkpoint(&self) -> Option<Result<u64, ExecError>> {
        self.scheme.checkpoint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `session read_point commit ops…; …` over keys `x` and `y`, each
    /// transaction's op index its place in the text: commit `-` is an
    /// abort, `max` the end of time, an op `rx1` a read of 1 from `x`,
    /// `wy2` a write of 2 to `y`.
    fn history(text: &str) -> History {
        let num = |s: &str| s.parse().unwrap_or(u64::MAX);
        let txns = text.split(';').enumerate().map(|(i, t)| {
            let words: Vec<&str> = t.split_whitespace().collect();
            let ops = words[3..].iter().map(|op| {
                let key = (Oid(u64::from(op.as_bytes()[1])), FieldId(0));
                let v = op[2..].parse().unwrap();
                match &op[..1] {
                    "r" => Op::Read(key, v),
                    _ => Op::Write(key, v),
                }
            });
            Record {
                session: num(words[0]) as u32,
                op: i as u32,
                read_point: num(words[1]),
                commit: (words[2] != "-").then(|| num(words[2])),
                ops: ops.collect(),
            }
        });
        History {
            txns: txns.collect(),
        }
    }

    #[test]
    fn each_history_reports_exactly_its_class() {
        let cases = [
            ("0 0 1 rx0 wx1; 1 1 2 rx1 wy2 ry2; 2 max max rx1 ry2", None),
            ("0 0 - wx1; 1 5 5 rx1", Some(Class::G1a)),
            ("0 0 1 wx1; 1 1 2 wx2; 2 max max rx1", Some(Class::Mismatch)),
            ("0 2 1 wx1 ry2; 1 1 2 wy2 rx1", Some(Class::G1c)),
            ("0 0 1 wx1; 0 0 0 rx0", Some(Class::GSingle)),
            ("0 0 1 rx0 ry0 wx1; 1 0 2 rx0 ry0 wy2", Some(Class::G2)),
            ("0 0 1 wx1; 1 1 2 wx1", Some(Class::Duplicate)),
            ("0 0 1 wx1; 1 0 1 wy2", Some(Class::Duplicate)),
        ];
        for (text, class) in cases {
            let found = history(text).check();
            let classes: Vec<Class> = found.iter().map(|v| v.class).collect();
            assert_eq!(classes, Vec::from_iter(class), "{text}: {found:?}");
        }
        // The lost own write names its cycle: a session edge closed by
        // an anti-dependency.
        let found = history("0 0 1 wx1; 0 0 0 rx0").check();
        let shown = "G-single: w0/op1 -Rw-> w0/op0 -Session-> w0/op1";
        assert_eq!(found[0].to_string(), shown);
    }

    /// Two sessions of `n` transactions each, all reading at 0 and
    /// committing interleaved: the i-th of a session reads the key its
    /// successor writes (an rw edge along the session's own edge), and
    /// the last of each reads the key the other session's first writes.
    /// One SCC of 2n rw edges whose every cycle runs through both
    /// crossing ones: G2 and nothing else.
    fn two_skewed_chains(n: u32) -> History {
        let key = |k: u32| (Oid(u64::from(k)), FieldId(0));
        let chain_key = |s: u32, i: u32| key(2 + 2 * i + s);
        let txns = (0..2 * n).map(|t| {
            let (s, i) = (t % 2, t / 2);
            let mut ops = Vec::new();
            if i + 1 < n {
                ops.push(Op::Read(chain_key(s, i), 0));
            } else {
                ops.push(Op::Read(key(s), 0));
            }
            if i > 0 {
                ops.push(Op::Write(chain_key(s, i - 1), 1));
            } else {
                ops.push(Op::Write(key(1 - s), 1));
            }
            Record {
                session: s,
                op: i,
                read_point: 0,
                commit: Some(u64::from(t) + 1),
                ops,
            }
        });
        History {
            txns: txns.collect(),
        }
    }

    #[test]
    fn a_g2_component_with_thousands_of_rw_edges_is_classed_quickly() {
        let history = two_skewed_chains(1_500);
        let start = std::time::Instant::now();
        let found = history.check();
        let took = start.elapsed();
        let classes: Vec<Class> = found.iter().map(|v| v.class).collect();
        assert_eq!(classes, [Class::G2]);
        assert!(took < std::time::Duration::from_secs(1), "took {took:?}");
    }
}

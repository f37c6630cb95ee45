//! Waits-for-graph cycle detection.
//!
//! The graph is rebuilt from the lock table on demand (only when a request
//! actually blocks, which is the rare path). An edge `t → u` means
//! transaction `t` waits for a lock that `u` holds or that `u` requested
//! ahead of `t`.

use finecc_model::TxnId;
use std::collections::{HashMap, HashSet};

/// A waits-for graph.
#[derive(Clone, Debug, Default)]
pub struct WaitsFor {
    edges: HashMap<TxnId, Vec<TxnId>>,
}

impl WaitsFor {
    /// An empty graph.
    pub fn new() -> WaitsFor {
        WaitsFor::default()
    }

    /// Adds edges `from → each of to`.
    pub fn add_edges(&mut self, from: TxnId, to: impl IntoIterator<Item = TxnId>) {
        let e = self.edges.entry(from).or_default();
        for t in to {
            if t != from && !e.contains(&t) {
                e.push(t);
            }
        }
    }

    /// Successors of a node.
    pub fn successors(&self, t: TxnId) -> &[TxnId] {
        self.edges.get(&t).map(Vec::as_slice).unwrap_or(&[])
    }

    /// `true` if `start` lies on a cycle: one depth-first search from
    /// its successors, each node visited once, that looks for `start`.
    ///
    /// Only cycles **through `start`** matter to the caller: `start` is
    /// the transaction that just blocked, and any pre-existing cycle not
    /// involving it was already handled when its own last edge appeared.
    pub fn on_cycle(&self, start: TxnId) -> bool {
        let mut seen = HashSet::new();
        let mut stack = vec![start];
        while let Some(node) = stack.pop() {
            for &next in self.successors(node) {
                if next == start {
                    return true;
                }
                if seen.insert(next) {
                    stack.push(next);
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u64) -> TxnId {
        TxnId(i)
    }

    #[test]
    fn no_cycle_in_dag() {
        let mut g = WaitsFor::new();
        g.add_edges(t(1), [t(2)]);
        g.add_edges(t(2), [t(3)]);
        assert!(!g.on_cycle(t(1)));
        assert!(!g.on_cycle(t(3)));
    }

    #[test]
    fn two_cycle() {
        let mut g = WaitsFor::new();
        g.add_edges(t(1), [t(2)]);
        g.add_edges(t(2), [t(1)]);
        assert!(g.on_cycle(t(1)));
        assert!(g.on_cycle(t(2)));
    }

    #[test]
    fn three_cycle_with_branches() {
        let mut g = WaitsFor::new();
        g.add_edges(t(1), [t(5), t(2)]);
        g.add_edges(t(2), [t(6), t(3)]);
        g.add_edges(t(3), [t(1)]);
        g.add_edges(t(5), [t(6)]);
        assert!(g.on_cycle(t(1)));
        assert!(g.on_cycle(t(2)));
        assert!(g.on_cycle(t(3)));
        assert!(!g.on_cycle(t(5)), "a branch off the cycle is on none");
    }

    #[test]
    fn cycle_not_through_start_ignored() {
        let mut g = WaitsFor::new();
        g.add_edges(t(1), [t(2)]);
        g.add_edges(t(2), [t(3)]);
        g.add_edges(t(3), [t(2)]); // 2↔3 cycle, not through 1
        assert!(!g.on_cycle(t(1)));
        assert!(g.on_cycle(t(2)));
    }

    #[test]
    fn self_edges_ignored() {
        let mut g = WaitsFor::new();
        g.add_edges(t(1), [t(1)]);
        assert!(!g.on_cycle(t(1)));
    }

    #[test]
    fn dedup_edges() {
        let mut g = WaitsFor::new();
        g.add_edges(t(1), [t(2), t(2), t(2)]);
        assert_eq!(g.successors(t(1)).len(), 1);
    }

    #[test]
    fn long_cycle() {
        let mut g = WaitsFor::new();
        let n = 1000u64;
        for i in 0..n {
            g.add_edges(t(i), [t((i + 1) % n)]);
        }
        assert!(g.on_cycle(t(0)));
        assert!(g.on_cycle(t(n / 2)));
    }
}

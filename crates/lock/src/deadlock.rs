//! Waits-for graph and cycle detection.
//!
//! Every blocked request registers edges from the waiter to the transactions
//! it waits behind (holders and earlier incompatible waiters). Before
//! sleeping, the requester runs a DFS from itself; if it can reach itself the
//! wait would close a cycle and the requester is chosen as the victim —
//! cheap, immediate, and biased against the newcomer, which matches what
//! Shore-style engines ship.

use crate::TxnId;
use esdb_sync::Mutex;
use std::collections::{HashMap, HashSet};

/// A concurrent waits-for graph.
#[derive(Default)]
pub struct WaitsForGraph {
    edges: Mutex<HashMap<TxnId, HashSet<TxnId>>>,
}

impl WaitsForGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds edges `waiter → blocker` for every blocker. Returns `true` if the
    /// resulting graph would contain a cycle through `waiter` — in which case
    /// the edges are *not* kept and the caller must abort the wait.
    pub fn block_or_detect(&self, waiter: TxnId, blockers: &[TxnId]) -> bool {
        let mut edges = self.edges.lock();
        let entry = edges.entry(waiter).or_default();
        for &b in blockers {
            if b != waiter {
                entry.insert(b);
            }
        }
        if Self::reaches(&edges, waiter, waiter) {
            edges.remove(&waiter);
            return true;
        }
        false
    }

    /// Removes every outgoing edge of `waiter` (wait over, granted or aborted).
    pub fn clear(&self, waiter: TxnId) {
        self.edges.lock().remove(&waiter);
    }

    /// DFS: can `from`'s successors reach `target`?
    fn reaches(edges: &HashMap<TxnId, HashSet<TxnId>>, from: TxnId, target: TxnId) -> bool {
        let mut stack: Vec<TxnId> = edges
            .get(&from)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        let mut seen: HashSet<TxnId> = HashSet::new();
        while let Some(t) = stack.pop() {
            if t == target {
                return true;
            }
            if !seen.insert(t) {
                continue;
            }
            if let Some(next) = edges.get(&t) {
                stack.extend(next.iter().copied());
            }
        }
        false
    }

    /// Number of transactions currently waiting (diagnostics).
    pub fn waiting_count(&self) -> usize {
        self.edges.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_cycle_on_simple_chain() {
        let g = WaitsForGraph::new();
        assert!(!g.block_or_detect(1, &[2]));
        assert!(!g.block_or_detect(2, &[3]));
        assert_eq!(g.waiting_count(), 2);
    }

    #[test]
    fn two_txn_cycle_detected() {
        let g = WaitsForGraph::new();
        assert!(!g.block_or_detect(1, &[2]));
        assert!(g.block_or_detect(2, &[1]), "2→1→2 must be a cycle");
        // The victim's edges were rolled back.
        assert_eq!(g.waiting_count(), 1);
    }

    #[test]
    fn three_txn_cycle_detected() {
        let g = WaitsForGraph::new();
        assert!(!g.block_or_detect(1, &[2]));
        assert!(!g.block_or_detect(2, &[3]));
        assert!(g.block_or_detect(3, &[1]));
    }

    #[test]
    fn clear_breaks_cycles() {
        let g = WaitsForGraph::new();
        assert!(!g.block_or_detect(1, &[2]));
        g.clear(1);
        assert!(!g.block_or_detect(2, &[1]), "1 no longer waits");
    }

    #[test]
    fn self_edges_ignored() {
        let g = WaitsForGraph::new();
        assert!(!g.block_or_detect(1, &[1]), "waiting behind self is filtered");
    }
}

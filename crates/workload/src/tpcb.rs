//! TPC-B-style debit/credit workload.
//!
//! Every transaction updates one account, its teller, and its branch, and
//! appends a history row. The branch table is tiny, so branch rows are *hot*:
//! this is the workload that exposes lock-queue convoys and log-insert
//! serialization — the stressor for the fig2/fig7 experiments.

use crate::rng::Rng;
use crate::spec::{TableDef, TxnSpec, Workload, WorkloadOp};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Branch table id.
pub const BRANCHES: u32 = 0;
/// Teller table id.
pub const TELLERS: u32 = 1;
/// Account table id.
pub const ACCOUNTS: u32 = 2;
/// History table id.
pub const HISTORY: u32 = 3;

/// Tellers per branch (TPC-B: 10).
pub const TELLERS_PER_BRANCH: u64 = 10;
/// Accounts per branch (TPC-B: 100k; scaled down for in-memory runs).
pub const ACCOUNTS_PER_BRANCH: u64 = 10_000;

/// TPC-B-style generator.
pub struct Tpcb {
    branches: u64,
    rng: Rng,
    /// Globally unique history keys across all forked generators.
    history_seq: Arc<AtomicU64>,
}

impl Tpcb {
    /// Creates a generator over `branches` branches.
    pub fn new(branches: u64, seed: u64) -> Self {
        assert!(branches >= 1);
        Tpcb {
            branches,
            rng: Rng::new(seed),
            history_seq: Arc::new(AtomicU64::new(0)),
        }
    }
}

impl Workload for Tpcb {
    fn name(&self) -> &'static str {
        "tpcb"
    }

    fn tables(&self) -> Vec<TableDef> {
        vec![
            TableDef { id: BRANCHES, name: "branches".into(), arity: 1 },
            TableDef { id: TELLERS, name: "tellers".into(), arity: 2 },
            TableDef { id: ACCOUNTS, name: "accounts".into(), arity: 2 },
            TableDef { id: HISTORY, name: "history".into(), arity: 3 },
        ]
    }

    fn population(&self, emit: &mut dyn FnMut(u32, u64, &[i64])) {
        for b in 0..self.branches {
            emit(BRANCHES, b, &[0]);
            for t in 0..TELLERS_PER_BRANCH {
                emit(TELLERS, b * TELLERS_PER_BRANCH + t, &[b as i64, 0]);
            }
            for a in 0..ACCOUNTS_PER_BRANCH {
                emit(ACCOUNTS, b * ACCOUNTS_PER_BRANCH + a, &[b as i64, 0]);
            }
        }
    }

    fn next_txn(&mut self) -> TxnSpec {
        let b = self.rng.below(self.branches);
        let t = b * TELLERS_PER_BRANCH + self.rng.below(TELLERS_PER_BRANCH);
        // 85% local account, 15% remote branch account (per TPC-B).
        let ab = if self.branches > 1 && self.rng.pct(15) {
            (b + 1 + self.rng.below(self.branches - 1)) % self.branches
        } else {
            b
        };
        let a = ab * ACCOUNTS_PER_BRANCH + self.rng.below(ACCOUNTS_PER_BRANCH);
        let delta = self.rng.range(1, 1_000) as i64 - 500;
        let h = self.history_seq.fetch_add(1, Ordering::Relaxed);
        TxnSpec {
            kind: "DebitCredit",
            ops: vec![
                WorkloadOp::Add { table: ACCOUNTS, key: a, col: 1, delta },
                WorkloadOp::Add { table: TELLERS, key: t, col: 1, delta },
                WorkloadOp::Add { table: BRANCHES, key: b, col: 0, delta },
                WorkloadOp::Insert {
                    table: HISTORY,
                    key: h,
                    row: vec![a as i64, t as i64, delta],
                },
            ],
            may_fail: false,
        }
    }

    fn fork(&mut self) -> Box<dyn Workload> {
        Box::new(Tpcb {
            branches: self.branches,
            rng: self.rng.split(),
            history_seq: Arc::clone(&self.history_seq),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_sizes() {
        let w = Tpcb::new(2, 1);
        let mut pop = Vec::new();
        w.population(&mut |t, _, _| pop.push(t));
        let count = |t: u32| pop.iter().filter(|&&tt| tt == t).count() as u64;
        assert_eq!(count(BRANCHES), 2);
        assert_eq!(count(TELLERS), 2 * TELLERS_PER_BRANCH);
        assert_eq!(count(ACCOUNTS), 2 * ACCOUNTS_PER_BRANCH);
        assert_eq!(count(HISTORY), 0);
    }

    #[test]
    fn txn_shape() {
        let mut w = Tpcb::new(4, 2);
        let txn = w.next_txn();
        assert_eq!(txn.ops.len(), 4);
        assert!(!txn.may_fail);
        assert!(matches!(txn.ops[3], WorkloadOp::Insert { table: HISTORY, .. }));
    }

    #[test]
    fn history_keys_unique_across_forks() {
        let mut w = Tpcb::new(2, 3);
        let mut f = w.fork();
        let mut keys = Vec::new();
        for _ in 0..100 {
            for txn in [w.next_txn(), f.next_txn()] {
                if let WorkloadOp::Insert { key, .. } = &txn.ops[3] {
                    keys.push(*key);
                }
            }
        }
        let before = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), before);
    }

    #[test]
    fn remote_branch_fraction() {
        let mut w = Tpcb::new(10, 4);
        let mut remote = 0;
        const N: usize = 10_000;
        for _ in 0..N {
            let txn = w.next_txn();
            let (a, b) = match (&txn.ops[0], &txn.ops[2]) {
                (WorkloadOp::Add { key: a, .. }, WorkloadOp::Add { key: b, .. }) => (*a, *b),
                _ => panic!(),
            };
            if a / ACCOUNTS_PER_BRANCH != b {
                remote += 1;
            }
        }
        let frac = remote as f64 / N as f64;
        assert!((0.12..0.18).contains(&frac), "remote fraction {frac}");
    }
}

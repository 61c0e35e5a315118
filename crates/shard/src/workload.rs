//! TPC-B with a tunable cross-shard ratio, branch-aligned for partitioning.
//!
//! [`ShardedTpcb`] keeps the classic debit/credit shape (account + teller +
//! branch update, history append) but makes two changes so the sharded
//! experiments can dial distribution effects directly:
//!
//! * **History keys carry their branch** (`seq << 8 | branch`), so the
//!   [`BranchPartitioner`] places a transaction's history row with its
//!   branch and the only possibly-remote row is the *account*.
//! * **The remote-account probability is a parameter** (`cross_pct`), and
//!   "remote" means *a branch on a different shard* — at 0% every
//!   transaction is single-shard by construction, at 100% every one pays
//!   the full 2PC price.

use crate::partition::{BranchPartitioner, Partitioner};
use esdb_core::{Database, DbError};
use esdb_workload::tpcb::{ACCOUNTS, BRANCHES, HISTORY, TELLERS, TELLERS_PER_BRANCH};
use esdb_workload::{Rng, TableDef, TxnSpec, Workload, WorkloadOp};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// TPC-B-style generator with shard-aware branch selection.
pub struct ShardedTpcb {
    branches: u64,
    accounts_per_branch: u64,
    cross_pct: u32,
    shards: usize,
    rng: Rng,
    /// Globally unique history sequence across all forked generators.
    history_seq: Arc<AtomicU64>,
}

impl ShardedTpcb {
    /// A generator over `branches` branches of `accounts_per_branch`
    /// accounts, aiming `cross_pct`% of transactions at an account whose
    /// branch lives on a different one of `shards` shards.
    pub fn new(
        branches: u64,
        accounts_per_branch: u64,
        cross_pct: u32,
        shards: usize,
        seed: u64,
    ) -> Self {
        assert!(
            (1..=256).contains(&branches),
            "history keys carry the branch in their low byte"
        );
        assert!(accounts_per_branch >= 1);
        assert!(cross_pct <= 100);
        assert!(shards >= 1);
        ShardedTpcb {
            branches,
            accounts_per_branch,
            cross_pct,
            shards,
            rng: Rng::new(seed),
            history_seq: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The placement this generator's keying scheme is aligned with.
    pub fn partitioner(&self) -> BranchPartitioner {
        BranchPartitioner { accounts_per_branch: self.accounts_per_branch }
    }

    /// A branch whose shard differs from `home`'s, scanning from a random
    /// start; falls back to `home` when every branch shares its shard.
    fn remote_branch(&mut self, home_branch: u64) -> u64 {
        let part = self.partitioner();
        let home = part.shard_of(BRANCHES, home_branch, self.shards);
        let start = self.rng.below(self.branches);
        for i in 0..self.branches {
            let cand = (start + i) % self.branches;
            if part.shard_of(BRANCHES, cand, self.shards) != home {
                return cand;
            }
        }
        home_branch
    }
}

impl Workload for ShardedTpcb {
    fn name(&self) -> &'static str {
        "sharded-tpcb"
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
            for a in 0..self.accounts_per_branch {
                emit(ACCOUNTS, b * self.accounts_per_branch + a, &[b as i64, 0]);
            }
        }
    }

    fn next_txn(&mut self) -> TxnSpec {
        let b = self.rng.below(self.branches);
        let t = b * TELLERS_PER_BRANCH + self.rng.below(TELLERS_PER_BRANCH);
        let cross = self.shards > 1 && self.cross_pct > 0 && self.rng.pct(u64::from(self.cross_pct));
        let ab = if cross { self.remote_branch(b) } else { b };
        let a = ab * self.accounts_per_branch + self.rng.below(self.accounts_per_branch);
        let delta = self.rng.range(1, 1_000) as i64 - 500;
        let h = self.history_seq.fetch_add(1, Ordering::Relaxed);
        TxnSpec {
            kind: if ab == b { "DebitCredit" } else { "CrossShard" },
            ops: vec![
                WorkloadOp::Add { table: ACCOUNTS, key: a, col: 1, delta },
                WorkloadOp::Add { table: TELLERS, key: t, col: 1, delta },
                WorkloadOp::Add { table: BRANCHES, key: b, col: 0, delta },
                WorkloadOp::Insert {
                    table: HISTORY,
                    key: (h << 8) | b,
                    row: vec![a as i64, t as i64, delta],
                },
            ],
            may_fail: false,
        }
    }

    fn fork(&mut self) -> Box<dyn Workload> {
        Box::new(ShardedTpcb {
            branches: self.branches,
            accounts_per_branch: self.accounts_per_branch,
            cross_pct: self.cross_pct,
            shards: self.shards,
            rng: self.rng.split(),
            history_seq: Arc::clone(&self.history_seq),
        })
    }
}

/// Loads shard `idx` of `n` with exactly the slice of `workload`'s
/// population that `part` places on it, then flushes the pages so the
/// population survives a simulated crash.
pub fn load_shard_population(
    db: &Database,
    workload: &dyn Workload,
    part: &dyn Partitioner,
    idx: usize,
    n: usize,
) -> Result<(), DbError> {
    db.load_population_where(workload, |table, key| part.shard_of(table, key, n) == idx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_cross_pct_is_single_shard_by_construction() {
        let mut w = ShardedTpcb::new(8, 100, 0, 4, 1);
        let part = w.partitioner();
        for _ in 0..200 {
            let spec = w.next_txn();
            assert_eq!(spec.kind, "DebitCredit");
            let shards: std::collections::HashSet<usize> = spec
                .ops
                .iter()
                .map(|op| match op {
                    WorkloadOp::Add { table, key, .. } | WorkloadOp::Insert { table, key, .. } => {
                        part.shard_of(*table, *key, 4)
                    }
                    _ => unreachable!("debit/credit is adds + one insert"),
                })
                .collect();
            assert_eq!(shards.len(), 1, "single-shard txn straddled shards: {spec:?}");
        }
    }

    #[test]
    fn cross_txns_straddle_exactly_two_shards() {
        let mut w = ShardedTpcb::new(8, 100, 100, 4, 2);
        let part = w.partitioner();
        let mut cross_seen = 0;
        for _ in 0..100 {
            let spec = w.next_txn();
            if spec.kind != "CrossShard" {
                continue;
            }
            cross_seen += 1;
            let shards: Vec<usize> = spec
                .ops
                .iter()
                .map(|op| match op {
                    WorkloadOp::Add { table, key, .. } | WorkloadOp::Insert { table, key, .. } => {
                        part.shard_of(*table, *key, 4)
                    }
                    _ => unreachable!(),
                })
                .collect();
            // Account (op 0) is remote; teller, branch, and history share
            // the home shard.
            assert_ne!(shards[0], shards[1]);
            assert_eq!(shards[1], shards[2]);
            assert_eq!(shards[2], shards[3]);
        }
        assert!(cross_seen > 80, "at 100% cross_pct most txns must be cross-shard");
    }

    #[test]
    fn shard_slices_partition_the_population_exactly() {
        let w = ShardedTpcb::new(4, 50, 10, 2, 3);
        let part = w.partitioner();
        let mut full = Vec::new();
        w.population(&mut |t, k, _| full.push((t, k)));
        let mut covered = 0;
        for idx in 0..2 {
            covered += full
                .iter()
                .filter(|&&(t, k)| part.shard_of(t, k, 2) == idx)
                .count();
        }
        assert_eq!(covered, full.len(), "slices must cover the population once each");
    }

    #[test]
    fn forks_share_the_history_sequence() {
        let mut w = ShardedTpcb::new(2, 10, 0, 1, 7);
        let mut f = w.fork();
        let keys: std::collections::HashSet<u64> = (0..50)
            .flat_map(|_| [w.next_txn(), f.next_txn()])
            .filter_map(|spec| match spec.ops[3] {
                WorkloadOp::Insert { key, .. } => Some(key),
                _ => None,
            })
            .collect();
        assert_eq!(keys.len(), 100, "history keys must never collide across forks");
    }
}

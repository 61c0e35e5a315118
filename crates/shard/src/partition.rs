//! Key → shard placement.

use esdb_workload::tpcb;

/// Maps a `(table, key)` pair to one of `n` shards. Implementations must be
/// pure functions of their inputs — the router, the population loader, and
/// the workload generator all consult the same placement.
pub trait Partitioner: Send + Sync {
    /// The shard (in `0..n`) owning `key` of `table`.
    fn shard_of(&self, table: u32, key: u64, n: usize) -> usize;
}

/// TPC-B-aware placement: every row lands with its branch, so a
/// debit/credit whose account, teller, branch, and history row share one
/// branch is single-shard by construction. Cross-shard traffic then comes
/// only from transactions that *choose* a remote branch.
#[derive(Debug, Clone, Copy)]
pub struct BranchPartitioner {
    /// Accounts per branch used when deriving a branch from an account key.
    pub accounts_per_branch: u64,
}

impl BranchPartitioner {
    /// The branch owning `key` of `table` under the [`ShardedTpcb`] keying
    /// scheme (history keys carry their branch in the low byte).
    ///
    /// [`ShardedTpcb`]: crate::workload::ShardedTpcb
    pub fn branch_of(&self, table: u32, key: u64) -> u64 {
        match table {
            tpcb::BRANCHES => key,
            tpcb::TELLERS => key / tpcb::TELLERS_PER_BRANCH,
            tpcb::ACCOUNTS => key / self.accounts_per_branch.max(1),
            tpcb::HISTORY => key & 0xFF,
            _ => key,
        }
    }
}

impl Partitioner for BranchPartitioner {
    fn shard_of(&self, table: u32, key: u64, n: usize) -> usize {
        (self.branch_of(table, key) % n.max(1) as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn branch_partitioner_keeps_a_branch_together() {
        let p = BranchPartitioner { accounts_per_branch: 100 };
        let n = 4;
        for b in 0..16u64 {
            let home = p.shard_of(tpcb::BRANCHES, b, n);
            assert_eq!(p.shard_of(tpcb::TELLERS, b * tpcb::TELLERS_PER_BRANCH + 3, n), home);
            assert_eq!(p.shard_of(tpcb::ACCOUNTS, b * 100 + 57, n), home);
            assert_eq!(p.shard_of(tpcb::HISTORY, (999 << 8) | b, n), home);
        }
    }

    #[test]
    fn single_shard_owns_everything() {
        let p = BranchPartitioner { accounts_per_branch: 100 };
        for table in [tpcb::BRANCHES, tpcb::TELLERS, tpcb::ACCOUNTS, tpcb::HISTORY] {
            for key in 0..100u64 {
                assert_eq!(p.shard_of(table, key, 1), 0);
            }
        }
    }
}

//! The client-facing DORA façade.

use crate::action::Action;
use crate::executor::{Executor, ExecutorStats, Msg, Package};
use crate::router::Router;
use crate::rvp::{FailKind, Rvp, Verdict};
use esdb_storage::schema::TableId;
use esdb_storage::Table;
use esdb_txn::commit_rule;
use esdb_wal::{LogBody, Wal, NULL_LSN};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Why a DORA transaction ultimately failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DoraError {
    /// A logical error (missing/duplicate key) aborted the transaction.
    Logical,
    /// Conflict retries were exhausted.
    TooManyRetries,
}

impl std::fmt::Display for DoraError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DoraError::Logical => write!(f, "logical failure"),
            DoraError::TooManyRetries => write!(f, "conflict retries exhausted"),
        }
    }
}

impl std::error::Error for DoraError {}

/// Aggregate statistics across all executors plus the commit path.
#[derive(Debug, Default, Clone, Copy)]
pub struct DoraStats {
    /// Committed transactions.
    pub commits: u64,
    /// Aborted attempts (wait-die deaths + logical failures).
    pub aborts: u64,
    /// Packages executed.
    pub executed: u64,
    /// Packages parked at least once.
    pub parked: u64,
    /// Packages killed by wait-die.
    pub died: u64,
}

/// A running DORA engine: one executor thread per logical partition.
pub struct DoraSystem {
    senders: Vec<Sender<Msg>>,
    handles: Vec<JoinHandle<ExecutorStats>>,
    router: Router,
    wal: Arc<Wal>,
    next_txn: AtomicU64,
    elr: bool,
    max_retries: usize,
    commits: AtomicU64,
    aborts: AtomicU64,
}

impl DoraSystem {
    /// Default bound on wait-die retries per transaction.
    pub const DEFAULT_RETRIES: usize = 1_000;

    /// Spawns `partitions` executors over `tables`. `elr` releases keys
    /// before the commit record is durable (the client still waits).
    pub fn new(
        partitions: usize,
        tables: HashMap<TableId, Arc<Table>>,
        wal: Arc<Wal>,
        elr: bool,
    ) -> Self {
        let partitions = partitions.max(1);
        let mut senders = Vec::with_capacity(partitions);
        let mut handles = Vec::with_capacity(partitions);
        for i in 0..partitions {
            let (tx, rx) = channel();
            let exec = Executor::new(i, rx, tables.clone(), Arc::clone(&wal));
            senders.push(tx);
            handles.push(std::thread::spawn(move || exec.run()));
        }
        // Deterministic checking: wait until every executor registered with
        // the scheduler, so executor admission cannot race the first package.
        esdb_sync::sched::sync_spawned(partitions);
        DoraSystem {
            senders,
            handles,
            router: Router::new(partitions),
            wal,
            next_txn: AtomicU64::new(1),
            elr,
            max_retries: Self::DEFAULT_RETRIES,
            commits: AtomicU64::new(0),
            aborts: AtomicU64::new(0),
        }
    }

    /// Number of partitions / executor threads.
    pub fn partitions(&self) -> usize {
        self.senders.len()
    }

    /// Executes one transaction expressed as an action list. On success,
    /// returns one entry per action: `Some(row)` for actions that produce a
    /// row (reads, adds, deletes), `None` otherwise.
    pub fn execute(&self, actions: Vec<Action>) -> Result<Vec<Option<Vec<i64>>>, DoraError> {
        let priority = self.next_txn.fetch_add(1, Ordering::Relaxed);
        let mut attempt_txn = priority;
        for _ in 0..=self.max_retries {
            // Group actions by partition, remembering global indices.
            let mut groups: HashMap<usize, Vec<(usize, Action)>> = HashMap::new();
            for (idx, a) in actions.iter().enumerate() {
                groups
                    .entry(self.router.route(a.table, a.key))
                    .or_default()
                    .push((idx, a.clone()));
            }
            let mut involved: Vec<usize> = groups.keys().copied().collect();
            involved.sort_unstable();
            let rvp = Arc::new(Rvp::new(groups.len(), actions.len()));
            // Sorted dispatch with a yield before every send: under
            // deterministic checking the scheduler can interleave other
            // clients between a transaction's per-partition packages.
            for &part in &involved {
                esdb_sync::sched::yield_now(esdb_sync::YieldPoint::DoraDispatch);
                self.senders[part]
                    .send(Msg::Package(Package {
                        txn: attempt_txn,
                        priority,
                        rvp: Arc::clone(&rvp),
                        actions: groups.remove(&part).expect("sorted key"),
                    }))
                    .expect("executor alive");
            }
            match rvp.wait() {
                Verdict::Commit => {
                    // The release step is the `Complete` broadcast; with ELR
                    // the client still waits before acknowledging.
                    let prev_lsn = actions.iter().any(|a| !a.is_read_only()).then_some(NULL_LSN);
                    let owed = commit_rule(&self.wal, attempt_txn, prev_lsn, !self.elr, || {
                        self.broadcast_complete(&involved, attempt_txn, true, None)
                    });
                    if let Some(lsn) = owed {
                        self.wal.wait_durable(lsn);
                    }
                    self.commits.fetch_add(1, Ordering::Relaxed);
                    return Ok(rvp.take_results());
                }
                Verdict::Abort(kind) => {
                    self.aborts.fetch_add(1, Ordering::Relaxed);
                    // Aborts are acknowledged: the client must not observe
                    // leftover partial effects after this call returns.
                    let ack = Arc::new(Rvp::new(involved.len(), 0));
                    self.broadcast_complete(&involved, attempt_txn, false, Some(&ack));
                    ack.wait();
                    self.wal.append(attempt_txn, 0, &LogBody::Abort);
                    if kind == FailKind::Logical {
                        return Err(DoraError::Logical);
                    }
                    // Retry with a fresh attempt id but the original
                    // priority, so the oldest transaction eventually wins.
                    attempt_txn = self.next_txn.fetch_add(1, Ordering::Relaxed);
                    std::thread::yield_now();
                }
            }
        }
        Err(DoraError::TooManyRetries)
    }

    fn broadcast_complete(&self, involved: &[usize], txn: u64, commit: bool, ack: Option<&Arc<Rvp>>) {
        for &p in involved {
            esdb_sync::sched::yield_now(esdb_sync::YieldPoint::DoraDispatch);
            self.senders[p]
                .send(Msg::Complete {
                    txn,
                    commit,
                    ack: ack.map(Arc::clone),
                })
                .expect("executor alive");
        }
    }

    /// Shuts down every executor and returns aggregate statistics.
    pub fn shutdown(mut self) -> DoraStats {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> DoraStats {
        for tx in &self.senders {
            let _ = tx.send(Msg::Stop);
        }
        let mut stats = DoraStats {
            commits: self.commits.load(Ordering::Relaxed),
            aborts: self.aborts.load(Ordering::Relaxed),
            ..Default::default()
        };
        for h in self.handles.drain(..) {
            if let Ok(es) = h.join() {
                stats.executed += es.executed;
                stats.parked += es.parked;
                stats.died += es.died;
            }
        }
        stats
    }

    /// Commit/abort counters without shutdown.
    pub fn quick_stats(&self) -> (u64, u64) {
        (
            self.commits.load(Ordering::Relaxed),
            self.aborts.load(Ordering::Relaxed),
        )
    }
}

impl Drop for DoraSystem {
    fn drop(&mut self) {
        if !self.handles.is_empty() {
            self.shutdown_inner();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esdb_storage::{BufferPool, InMemoryDisk};
    use esdb_wal::LogPolicy;

    fn setup(partitions: usize) -> (DoraSystem, Arc<Table>) {
        let disk = Arc::new(InMemoryDisk::new());
        let pool = Arc::new(BufferPool::new(256, disk));
        let table = Arc::new(Table::create(1, "accounts", 2, pool));
        let mut tables = HashMap::new();
        tables.insert(1u32, table.clone());
        let wal = Arc::new(Wal::new(LogPolicy::Consolidated, None));
        (DoraSystem::new(partitions, tables, wal, false), table)
    }

    #[test]
    fn single_action_roundtrip() {
        let (sys, table) = setup(4);
        sys.execute(vec![Action::insert(1, 7, vec![70, 0])]).unwrap();
        assert_eq!(table.get(7).unwrap(), vec![70, 0]);
        let res = sys.execute(vec![Action::read(1, 7)]).unwrap();
        assert_eq!(res[0], Some(vec![70, 0]));
    }

    #[test]
    fn multi_partition_transfer_commits_atomically() {
        let (sys, table) = setup(4);
        sys.execute(vec![
            Action::insert(1, 1, vec![100, 0]),
            Action::insert(1, 2, vec![100, 0]),
        ])
        .unwrap();
        sys.execute(vec![
            Action::add(1, 1, 0, -25),
            Action::add(1, 2, 0, 25),
        ])
        .unwrap();
        assert_eq!(table.get(1).unwrap()[0], 75);
        assert_eq!(table.get(2).unwrap()[0], 125);
    }

    #[test]
    fn logical_failure_rolls_back_all_partitions() {
        let (sys, table) = setup(4);
        sys.execute(vec![Action::insert(1, 1, vec![10, 0])]).unwrap();
        // Second action hits a missing key → whole txn must abort.
        let err = sys
            .execute(vec![
                Action::add(1, 1, 0, 5),
                Action::add(1, 999, 0, 5),
            ])
            .unwrap_err();
        assert_eq!(err, DoraError::Logical);
        assert_eq!(table.get(1).unwrap()[0], 10, "partial effect undone");
    }

    #[test]
    fn an_overflowing_add_is_a_logical_failure_with_every_row_untouched() {
        let (sys, table) = setup(4);
        sys.execute(vec![Action::insert(1, 1, vec![10, 0]), Action::insert(1, 2, vec![i64::MAX, 0])]).unwrap();
        let err = sys.execute(vec![Action::add(1, 1, 0, 5), Action::add(1, 2, 0, 1)]).unwrap_err();
        assert_eq!(err, DoraError::Logical);
        assert_eq!((table.get(1).unwrap(), table.get(2).unwrap()), (vec![10, 0], vec![i64::MAX, 0]));
        let res = sys.execute(vec![Action::add(1, 2, 1, -3)]).unwrap();
        assert_eq!((res[0].clone(), table.get(2).unwrap()), (Some(vec![i64::MAX, 0]), vec![i64::MAX, -3]));
    }

    #[test]
    fn duplicate_insert_is_logical_failure() {
        let (sys, _table) = setup(2);
        sys.execute(vec![Action::insert(1, 5, vec![1, 1])]).unwrap();
        let err = sys
            .execute(vec![Action::insert(1, 5, vec![2, 2])])
            .unwrap_err();
        assert_eq!(err, DoraError::Logical);
    }

    #[test]
    fn delete_returns_before_image() {
        let (sys, table) = setup(2);
        sys.execute(vec![Action::insert(1, 3, vec![33, 0])]).unwrap();
        let res = sys.execute(vec![Action::delete(1, 3)]).unwrap();
        assert_eq!(res[0], Some(vec![33, 0]));
        assert!(table.get(3).is_err());
    }

    #[test]
    fn concurrent_transfers_conserve_money() {
        let (sys, table) = setup(4);
        const ACCOUNTS: u64 = 16;
        for k in 0..ACCOUNTS {
            sys.execute(vec![Action::insert(1, k, vec![1_000, 0])]).unwrap();
        }
        let sys = Arc::new(sys);
        let mut handles = Vec::new();
        for tid in 0..4u64 {
            let sys = Arc::clone(&sys);
            handles.push(std::thread::spawn(move || {
                let mut rng = tid.wrapping_mul(0x9E3779B97F4A7C15) | 1;
                for _ in 0..200 {
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let from = (rng >> 33) % ACCOUNTS;
                    let to = (from + 1 + (rng >> 17) % (ACCOUNTS - 1)) % ACCOUNTS;
                    sys.execute(vec![
                        Action::add(1, from, 0, -7),
                        Action::add(1, to, 0, 7),
                    ])
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut total = 0;
        table.scan(|_, row| total += row[0]).unwrap();
        assert_eq!(total, (ACCOUNTS * 1_000) as i64);
        let (commits, _aborts) = sys.quick_stats();
        assert!(commits >= ACCOUNTS + 4 * 200);
    }

    #[test]
    fn commit_record_is_durable() {
        let (sys, _table) = setup(2);
        sys.execute(vec![Action::insert(1, 1, vec![1, 1])]).unwrap();
        let records = sys.wal.durable_records();
        assert!(records.iter().any(|r| matches!(r.body, LogBody::Commit)));
        assert!(records.iter().any(|r| matches!(r.body, LogBody::Insert { .. })));
    }

    #[test]
    fn elr_mode_also_durable() {
        let disk = Arc::new(InMemoryDisk::new());
        let pool = Arc::new(BufferPool::new(64, disk));
        let table = Arc::new(Table::create(1, "t", 1, pool));
        let mut tables = HashMap::new();
        tables.insert(1u32, table.clone());
        let wal = Arc::new(Wal::new(LogPolicy::Consolidated, None));
        let sys = DoraSystem::new(2, tables, wal, true);
        sys.execute(vec![Action::insert(1, 1, vec![5])]).unwrap();
        assert!(sys
            .wal
            .durable_records()
            .iter()
            .any(|r| matches!(r.body, LogBody::Commit)));
    }

    #[test]
    fn a_held_force_is_commit_flush_and_a_wait_after_release_is_log_wait() {
        if !esdb_obs::enabled() {
            return;
        }
        let floor = 10_000_000; // ns: half the device latency
        for elr in [false, true] {
            let pool = Arc::new(BufferPool::new(64, Arc::new(InMemoryDisk::new())));
            let table = Arc::new(Table::create(1, "t", 1, pool));
            let tables = HashMap::from([(1u32, table)]);
            let latency = Some(std::time::Duration::from_millis(20));
            let sys = DoraSystem::new(2, tables, Arc::new(Wal::new(LogPolicy::Consolidated, latency)), elr);
            let (r, p) = esdb_obs::profile_scope(|| sys.execute(vec![Action::insert(1, 1, vec![5])]));
            r.unwrap();
            let (forced, waited) = if elr { (p.log_wait, p.commit_flush) } else { (p.commit_flush, p.log_wait) };
            assert!(forced >= floor, "elr={elr}: {p:?}");
            assert_eq!(waited, 0, "elr={elr}: {p:?}");
        }
    }

    #[test]
    fn shutdown_reports_stats() {
        let (sys, _table) = setup(3);
        for k in 0..50 {
            sys.execute(vec![Action::insert(1, k, vec![0, 0])]).unwrap();
        }
        let stats = sys.shutdown();
        assert_eq!(stats.commits, 50);
        assert!(stats.executed >= 50);
    }
}

#[cfg(test)]
mod repro_tests {
    use super::*;
    use esdb_storage::{BufferPool, InMemoryDisk};
    use esdb_wal::LogPolicy;

    #[test]
    fn insert_then_failing_delete_rolls_back() {
        for parts in [1usize, 2, 3, 4] {
            let disk = Arc::new(InMemoryDisk::new());
            let pool = Arc::new(BufferPool::new(64, disk));
            let table = Arc::new(Table::create(0, "t", 1, pool));
            let mut tables = HashMap::new();
            tables.insert(0u32, table.clone());
            let wal = Arc::new(Wal::new(LogPolicy::Consolidated, None));
            let sys = DoraSystem::new(parts, tables, wal, false);
            let err = sys
                .execute(vec![
                    Action::insert(0, 0, vec![2]),
                    Action::delete(0, 2),
                ])
                .unwrap_err();
            assert_eq!(err, DoraError::Logical, "parts={parts}");
            // Aborts are acknowledged: the rollback is visible immediately.
            assert!(table.get(0).is_err(), "parts={parts}: insert must be undone");
        }
    }
}

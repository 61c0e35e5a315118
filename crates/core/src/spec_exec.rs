//! Executing engine-agnostic transaction specs on either execution model.

use esdb_dora::{Action, ActionOp, DoraError, DoraSystem};
use esdb_txn::{PreparedTxn, Txn, TxnError, TxnManager, TxnResult};
use esdb_wal::Lsn;
use esdb_workload::{TxnSpec, WorkloadOp};
use std::sync::Arc;

/// Result of running one spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecOutcome {
    /// Committed; `reads[i]` carries the row produced by op `i` (reads and
    /// read-modify-writes), `None` for pure writes.
    Committed {
        /// Per-op results.
        reads: Vec<Option<Vec<i64>>>,
    },
    /// Aborted on a logical error (missing/duplicate key).
    LogicalFailure,
    /// Aborted after exhausting conflict retries.
    ConflictFailure,
}

impl SpecOutcome {
    /// `true` for [`SpecOutcome::Committed`].
    pub fn is_committed(&self) -> bool {
        matches!(self, SpecOutcome::Committed { .. })
    }
}

/// Applies every op of `spec` inside `txn`, collecting per-op read results.
fn apply_ops(txn: &mut Txn, spec: &TxnSpec) -> TxnResult<Vec<Option<Vec<i64>>>> {
    let mut reads: Vec<Option<Vec<i64>>> = Vec::with_capacity(spec.ops.len());
    for op in &spec.ops {
        match op {
            WorkloadOp::Read { table, key } => {
                reads.push(Some(txn.read(*table, *key)?));
            }
            WorkloadOp::Write { table, key, row } => {
                txn.update(*table, *key, row)?;
                reads.push(None);
            }
            WorkloadOp::Add { table, key, col, delta } => {
                let before = txn.read_for_update(*table, *key)?;
                let mut after = before.clone();
                if *col >= after.len() {
                    return Err(TxnError::Storage(
                        esdb_storage::StorageError::ArityMismatch {
                            expected: after.len(),
                            got: *col + 1,
                        },
                    ));
                }
                after[*col] += delta;
                txn.update(*table, *key, &after)?;
                reads.push(Some(before));
            }
            WorkloadOp::Insert { table, key, row } => {
                txn.insert(*table, *key, row)?;
                reads.push(None);
            }
            WorkloadOp::Delete { table, key } => {
                reads.push(Some(txn.delete(*table, *key)?));
            }
        }
    }
    Ok(reads)
}

/// Runs `spec` as a conventional 2PL transaction.
pub fn run_conventional(mgr: &Arc<TxnManager>, retries: usize, spec: &TxnSpec) -> SpecOutcome {
    let result = mgr.run(retries, |txn| apply_ops(txn, spec));
    match result {
        Ok(reads) => SpecOutcome::Committed { reads },
        Err(TxnError::Lock(_)) => SpecOutcome::ConflictFailure,
        Err(_) => SpecOutcome::LogicalFailure,
    }
}

/// The retry loop under the deferred-commit and prepare paths: begin, apply
/// every op, and hand the live transaction (locks held, nothing logged as
/// finished) to `finish`. On failure the transaction aborts — exactly once,
/// here; the returned outcome is only a description, never a second abort
/// path.
///
/// Mirrors [`TxnManager::run`]'s retry policy: lock victims retry up to
/// `retries` times; logical failures abort immediately.
fn run_conventional_then<T>(
    mgr: &Arc<TxnManager>,
    retries: usize,
    spec: &TxnSpec,
    finish: impl FnOnce(Txn, Vec<Option<Vec<i64>>>) -> T,
) -> Result<T, SpecOutcome> {
    let mut attempt = 0;
    loop {
        let mut txn = mgr.begin();
        match apply_ops(&mut txn, spec) {
            Ok(reads) => return Ok(finish(txn, reads)),
            Err(e) => {
                txn.abort();
                match e {
                    TxnError::Lock(_) if attempt < retries => attempt += 1,
                    TxnError::Lock(_) => return Err(SpecOutcome::ConflictFailure),
                    _ => return Err(SpecOutcome::LogicalFailure),
                }
            }
        }
    }
}

/// Runs `spec` as a conventional 2PL transaction whose commit record is
/// appended but *not* flushed. On commit, returns the LSN the caller must
/// pass to `Wal::wait_durable` before acknowledging (`None` for read-only
/// transactions, which have no commit record).
pub fn run_conventional_deferred(
    mgr: &Arc<TxnManager>,
    retries: usize,
    spec: &TxnSpec,
) -> (SpecOutcome, Option<Lsn>) {
    run_conventional_then(mgr, retries, spec, |txn, reads| {
        (SpecOutcome::Committed { reads }, txn.commit_deferred())
    })
    .unwrap_or_else(|failure| (failure, None))
}

/// Runs `spec` as a conventional 2PL transaction and, instead of
/// committing, *prepares* it for two-phase commit: the `Prepare { gtid }`
/// record is appended and every lock stays held when this returns `Ok` with
/// the [`PreparedTxn`], the yes-vote and the record's LSN. The caller owns
/// the handle, must deliver the coordinator's decision to finish it, and
/// must not let the vote leave before `Wal::wait_durable` covers the LSN
/// (`None`: read-only, nothing to wait on). On failure the transaction has
/// already aborted.
pub fn run_conventional_prepare(
    mgr: &Arc<TxnManager>,
    retries: usize,
    gtid: u64,
    spec: &TxnSpec,
) -> Result<(PreparedTxn, SpecOutcome, Option<Lsn>), SpecOutcome> {
    run_conventional_then(mgr, retries, spec, |txn, reads| {
        let (prepared, lsn) = txn.prepare_deferred(gtid);
        (prepared, SpecOutcome::Committed { reads }, lsn)
    })
}

/// Translates one workload op into a DORA action.
fn to_action(op: &WorkloadOp) -> Action {
    match op {
        WorkloadOp::Read { table, key } => Action::read(*table, *key),
        WorkloadOp::Write { table, key, row } => Action::write(*table, *key, row.clone()),
        WorkloadOp::Add { table, key, col, delta } => Action {
            table: *table,
            key: *key,
            op: ActionOp::Add { col: *col, delta: *delta },
        },
        WorkloadOp::Insert { table, key, row } => Action::insert(*table, *key, row.clone()),
        WorkloadOp::Delete { table, key } => Action::delete(*table, *key),
    }
}

/// Runs `spec` through the DORA system.
pub fn run_dora(dora: &DoraSystem, spec: &TxnSpec) -> SpecOutcome {
    let actions: Vec<Action> = spec.ops.iter().map(to_action).collect();
    match dora.execute(actions) {
        Ok(reads) => SpecOutcome::Committed { reads },
        Err(DoraError::Logical) => SpecOutcome::LogicalFailure,
        Err(DoraError::TooManyRetries) => SpecOutcome::ConflictFailure,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_translation() {
        let a = to_action(&WorkloadOp::Add { table: 1, key: 2, col: 0, delta: -3 });
        assert_eq!(a.table, 1);
        assert_eq!(a.key, 2);
        assert_eq!(a.op, ActionOp::Add { col: 0, delta: -3 });
    }

    #[test]
    fn outcome_predicates() {
        assert!(SpecOutcome::Committed { reads: vec![] }.is_committed());
        assert!(!SpecOutcome::LogicalFailure.is_committed());
    }
}

//! Executing engine-agnostic transaction specs on either execution model.
//!
//! The conventional engine has one driver, [`run_conventional`]: the
//! transaction manager's retry loop over one op applier, finished by the
//! caller's step — [`Txn::commit`] in process, [`Txn::commit_deferred`] on
//! the reactor (which then forces the tick's group flush),
//! [`Txn::prepare_deferred`] for a two-phase-commit vote. The deterministic
//! checker calls the same driver with its history recorder as the observer.

use esdb_dora::{Action, ActionOp, DoraError, DoraSystem};
use esdb_storage::schema::TableId;
use esdb_txn::{Txn, TxnError, TxnManager, TxnResult};
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
    /// Aborted after exhausting conflict retries, or (a cross-shard 2PC)
    /// because an in-doubt inquiry took the abort verdict before the
    /// coordinator could commit.
    ConflictFailure,
}

impl SpecOutcome {
    /// `true` for [`SpecOutcome::Committed`].
    pub fn is_committed(&self) -> bool {
        matches!(self, SpecOutcome::Committed { .. })
    }
}

/// Applies every op of `spec` inside `txn`, collecting per-op read results
/// and reporting each successful row access to `observe(txn, table, key,
/// write)` — an `Add` twice as a write, both after its one fused
/// read-modify-write, so recorded histories match the read-for-update and
/// update pair it replaced.
fn apply_ops(
    txn: &mut Txn,
    spec: &TxnSpec,
    observe: &mut impl FnMut(u64, TableId, u64, bool),
) -> TxnResult<Vec<Option<Vec<i64>>>> {
    let id = txn.id();
    let mut reads: Vec<Option<Vec<i64>>> = Vec::with_capacity(spec.ops.len());
    for op in &spec.ops {
        let (table, key, write, read) = match op {
            WorkloadOp::Read { table, key } => (table, key, false, Some(txn.read(*table, *key)?)),
            WorkloadOp::Write { table, key, row } => {
                txn.update(*table, *key, row)?;
                (table, key, true, None)
            }
            WorkloadOp::Add { table, key, col, delta } => {
                let before = txn.add(*table, *key, *col, *delta)?;
                observe(id, *table, *key, true);
                (table, key, true, Some(before))
            }
            WorkloadOp::Insert { table, key, row } => {
                txn.insert(*table, *key, row)?;
                (table, key, true, None)
            }
            WorkloadOp::Delete { table, key } => (table, key, true, Some(txn.delete(*table, *key)?)),
        };
        observe(id, *table, *key, write);
        reads.push(read);
    }
    Ok(reads)
}

/// How many times a conventional transaction that lost a lock conflict
/// (deadlock victim or lock-wait timeout) is retried before it fails.
pub const RETRIES: usize = 64;

/// The observer for callers that record nothing; compiles away.
pub(crate) fn unobserved(_: u64, _: TableId, _: u64, _: bool) {}

/// The one conventional driver: runs `spec` as a 2PL transaction through
/// [`TxnManager::run_then`], reporting row accesses to `observe` and handing
/// the live transaction to `finish` — [`Txn::commit`], [`Txn::commit_deferred`]
/// or [`Txn::prepare_deferred`] — and retrying lock victims up to [`RETRIES`]
/// times. Returns the outcome, with `finish`'s result when the transaction
/// got that far; a failed run has already aborted.
pub fn run_conventional<T>(
    mgr: &Arc<TxnManager>,
    spec: &TxnSpec,
    mut observe: impl FnMut(u64, TableId, u64, bool),
    finish: impl FnOnce(Txn) -> T,
) -> (SpecOutcome, Option<T>) {
    match mgr.run_then(RETRIES, |txn| apply_ops(txn, spec, &mut observe), finish) {
        Ok((reads, finished)) => (SpecOutcome::Committed { reads }, Some(finished)),
        Err(TxnError::Lock(_)) => (SpecOutcome::ConflictFailure, None),
        Err(_) => (SpecOutcome::LogicalFailure, None),
    }
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

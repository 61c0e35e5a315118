//! HTAP follower reads: commit-consistent analytical queries over a replica.
//!
//! An [`HtapView`] is a cheap, clonable handle onto a replica's database,
//! apply watermark, and pin gate. [`HtapView::query_at`] is the follower-side
//! OLAP entry point: it waits (bounded) for the apply frontier to pass a
//! read-your-writes token, then executes a staged plan while holding the
//! *read* side of the pin gate. The apply loop takes the *write* side for
//! every redo batch and publishes the watermark only at
//! transaction-consistent cuts, so a pinned query observes the heap exactly
//! as of one such cut: every transaction below the watermark fully applied,
//! nothing above it visible, no torn transactions — snapshot semantics
//! without versioning, bought with a coarse reader/writer exclusion instead.
//!
//! The trade is deliberate and matches the paper's recipe: followers are
//! near-independent workers, so stalling *one follower's* apply loop for the
//! duration of a scan costs OLAP freshness on that follower only — the
//! primary's commit path never blocks on an analytical query.

use esdb_core::Database;
use esdb_staged::{execute_staged, PlanNode, Row, DEFAULT_BATCH};
use esdb_wal::Lsn;
use esdb_sync::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long `query_at` sleeps between watermark polls while waiting for the
/// frontier to reach the caller's token.
const POLL: Duration = Duration::from_micros(200);

/// A commit-consistent analytical view over a replica's database.
///
/// Obtained from [`crate::Replica::htap_view`] (or
/// [`crate::ReplicaHandle::htap_view`]); remains valid across the replica's
/// crash/[`crate::Replica::reopen`] cycles because the gate and watermark are
/// shared `Arc`s that survive reopen.
#[derive(Clone)]
pub struct HtapView {
    db: Arc<Database>,
    applied: Arc<AtomicU64>,
    gate: Arc<RwLock<()>>,
}

impl HtapView {
    pub(crate) fn new(db: Arc<Database>, applied: Arc<AtomicU64>, gate: Arc<RwLock<()>>) -> Self {
        HtapView { db, applied, gate }
    }

    /// The replica database this view reads. Handy for building plans
    /// against its catalog; direct mutation would violate the replica's
    /// invariants, so treat it as read-only.
    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    /// The current commit-consistent apply watermark.
    pub fn watermark(&self) -> Lsn {
        self.applied.load(Ordering::Acquire)
    }

    /// Executes `plan` at a heap state no older than `min_lsn` — the
    /// caller's read-your-writes token, typically a primary commit token's
    /// durable LSN, or `0` for "any committed state".
    ///
    /// Waits up to `wait` for the apply frontier to reach the token;
    /// `Err(applied)` reports the frontier actually reached when the budget
    /// runs out (the bounded-wait shape shared with the wire `ReadAt`).
    /// On success the **whole plan** runs under one read-side pin of the
    /// apply gate: the frontier cannot advance mid-plan, so every batch the
    /// staged engine pulls sees the same transaction-consistent cut.
    pub fn query_at(&self, min_lsn: Lsn, plan: &PlanNode, wait: Duration) -> Result<Vec<Row>, Lsn> {
        let deadline = Instant::now() + wait;
        loop {
            // Take the pin *before* re-checking the watermark: the apply
            // loop publishes the watermark while holding the write side, so
            // a read observed under the read side cannot go stale before
            // the plan starts.
            let pin = self.gate.read();
            let applied = self.applied.load(Ordering::Acquire);
            if applied >= min_lsn {
                let rows = execute_staged(plan, DEFAULT_BATCH);
                drop(pin);
                return Ok(rows);
            }
            drop(pin);
            if Instant::now() >= deadline {
                return Err(applied);
            }
            std::thread::sleep(POLL);
        }
    }
}

impl std::fmt::Debug for HtapView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HtapView")
            .field("watermark", &self.watermark())
            .finish_non_exhaustive()
    }
}

//! Rendezvous points: per-transaction completion barriers.
//!
//! A transaction that fans out to `n` partitions creates one RVP; each
//! executor reports its package's outcome, and the submitting client blocks
//! on the RVP until either all packages succeeded or any one failed.

use esdb_sync::{Condvar, Mutex};

/// Why a package failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailKind {
    /// Wait-die conflict death: transient, the client should retry.
    Conflict,
    /// Logical error (missing key, duplicate key): retrying is futile.
    Logical,
}

/// Global transaction verdict at the rendezvous.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every package executed.
    Commit,
    /// Some package failed.
    Abort(FailKind),
}

struct RvpState {
    remaining: usize,
    aborted: Option<FailKind>,
    /// Read results, indexed by the action's position in the original
    /// transaction. `None` for non-reading actions (or not yet filled).
    results: Vec<Option<Vec<i64>>>,
}

/// A rendezvous point shared between the client and the involved executors.
pub struct Rvp {
    state: Mutex<RvpState>,
    cv: Condvar,
}

impl Rvp {
    /// Creates an RVP expecting `packages` completions and carrying result
    /// slots for `actions` actions.
    pub fn new(packages: usize, actions: usize) -> Self {
        Rvp {
            state: Mutex::new(RvpState {
                remaining: packages,
                aborted: None,
                results: vec![None; actions],
            }),
            cv: Condvar::new(),
        }
    }

    /// An executor reports a successful package, depositing its reads.
    pub fn complete(&self, reads: Vec<(usize, Vec<i64>)>) {
        let mut st = self.state.lock();
        for (idx, row) in reads {
            st.results[idx] = Some(row);
        }
        st.remaining = st.remaining.saturating_sub(1);
        if st.remaining == 0 {
            self.cv.notify_all();
        }
    }

    /// An executor reports failure: the transaction aborts immediately,
    /// without waiting for the other packages.
    pub fn fail(&self, kind: FailKind) {
        let mut st = self.state.lock();
        // A logical failure verdict must not be masked by a later conflict.
        if st.aborted != Some(FailKind::Logical) {
            st.aborted = Some(kind);
        }
        self.cv.notify_all();
    }

    /// Client wait: blocks until every package completed or any failed.
    pub fn wait(&self) -> Verdict {
        // Deterministic checking: a virtual client blocks on the scheduler
        // seam so the rendezvous becomes an explorable interleaving edge.
        if esdb_sync::sched::block_until(esdb_sync::YieldPoint::RvpWait, || {
            let st = self.state.lock();
            st.remaining == 0 || st.aborted.is_some()
        }) {
            let st = self.state.lock();
            return match st.aborted {
                Some(kind) => Verdict::Abort(kind),
                None => Verdict::Commit,
            };
        }
        let mut st = self.state.lock();
        while st.remaining > 0 && st.aborted.is_none() {
            st = self.cv.wait(st);
        }
        match st.aborted {
            Some(kind) => Verdict::Abort(kind),
            None => Verdict::Commit,
        }
    }

    /// Takes the collected read results (call after a `Commit` verdict).
    pub fn take_results(&self) -> Vec<Option<Vec<i64>>> {
        std::mem::take(&mut self.state.lock().results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn all_completions_yield_commit() {
        let rvp = Arc::new(Rvp::new(2, 3));
        let r2 = Arc::clone(&rvp);
        let h = std::thread::spawn(move || {
            r2.complete(vec![(0, vec![1])]);
            r2.complete(vec![(2, vec![3])]);
        });
        assert_eq!(rvp.wait(), Verdict::Commit);
        h.join().unwrap();
        let res = rvp.take_results();
        assert_eq!(res[0], Some(vec![1]));
        assert_eq!(res[1], None);
        assert_eq!(res[2], Some(vec![3]));
    }

    #[test]
    fn any_failure_yields_abort_immediately() {
        let rvp = Arc::new(Rvp::new(5, 0));
        let r2 = Arc::clone(&rvp);
        let h = std::thread::spawn(move || r2.fail(FailKind::Conflict));
        assert_eq!(rvp.wait(), Verdict::Abort(FailKind::Conflict));
        h.join().unwrap();
    }

    #[test]
    fn logical_failure_is_not_masked() {
        let rvp = Rvp::new(3, 0);
        rvp.fail(FailKind::Logical);
        rvp.fail(FailKind::Conflict);
        assert_eq!(rvp.wait(), Verdict::Abort(FailKind::Logical));
    }

    #[test]
    fn zero_package_txn_commits_trivially() {
        let rvp = Rvp::new(0, 0);
        assert_eq!(rvp.wait(), Verdict::Commit);
    }
}

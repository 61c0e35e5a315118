//! Replication-group state for semi-sync quorum commit and term fencing.
//!
//! A primary serving a replica set owns one [`ReplGroup`]: the current
//! replication **term** (epoch), the durable-LSN acks of every connected
//! follower, and a fenced flag that flips the moment evidence of a higher
//! term arrives (a subscriber or an ack from a promoted follower).
//!
//! The group is deliberately engine-agnostic — it lives in `esdb-core` so
//! the net server (which depends on core, not on repl) can consult it on the
//! commit path: [`ReplGroup::quorum_verdict`] is the bounded wait the
//! group-commit flush point adds in semi-sync mode. It never blocks
//! unboundedly; the failure modes are the typed [`QuorumError`] variants.

use esdb_sync::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How many follower acks a commit needs, and how long to wait for them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuorumPolicy {
    /// Followers that must ack durability at/past the commit LSN.
    pub k: u32,
    /// Bound on the wait; expiring degrades to [`QuorumError::Timeout`].
    pub timeout: Duration,
}

/// Why a quorum wait did not succeed. Both variants are *outcomes*, not
/// panics: the transaction is durably committed locally either way, only its
/// replication guarantee is in question.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuorumError {
    /// Fewer than `needed` followers acked `lsn` within the bound.
    Timeout {
        /// The commit LSN that was waiting.
        lsn: u64,
        /// Followers that had acked when the wait gave up.
        acked: u32,
        /// Acks the policy required.
        needed: u32,
    },
    /// This primary has been superseded: a higher term was observed, so no
    /// quorum can ever form for its stream again.
    Fenced {
        /// The higher term that fenced this primary.
        term: u64,
    },
}

impl std::fmt::Display for QuorumError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuorumError::Timeout { lsn, acked, needed } => {
                write!(f, "quorum timeout at lsn {lsn}: {acked}/{needed} follower acks")
            }
            QuorumError::Fenced { term } => {
                write!(f, "primary fenced by higher term {term}")
            }
        }
    }
}

impl std::error::Error for QuorumError {}

/// A quorum wait's outcome so far: `None` while it must keep waiting.
pub type Verdict = Option<Result<(), QuorumError>>;

#[derive(Default)]
struct AckTable {
    /// Follower id → highest durable LSN acked.
    acks: HashMap<u64, u64>,
    next_id: u64,
}

/// Shared replication-group state: term, follower acks, fencing.
pub struct ReplGroup {
    term: AtomicU64,
    /// 0 = not fenced; otherwise the higher term that superseded us.
    fenced_by: AtomicU64,
    table: Mutex<AckTable>,
    cond: Condvar,
}

impl std::fmt::Debug for ReplGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplGroup")
            .field("term", &self.term())
            .field("fenced_by", &self.fenced_by())
            .field("followers", &self.followers())
            .finish()
    }
}

impl ReplGroup {
    /// A group serving at `term` (a fresh deployment starts at term 1).
    pub fn new(term: u64) -> ReplGroup {
        ReplGroup {
            term: AtomicU64::new(term),
            fenced_by: AtomicU64::new(0),
            table: Mutex::new(AckTable::default()),
            cond: Condvar::new(),
        }
    }

    /// The term this group currently serves at.
    pub fn term(&self) -> u64 {
        self.term.load(Ordering::Acquire)
    }

    /// The higher term that fenced this primary, if any.
    pub fn fenced_by(&self) -> Option<u64> {
        match self.fenced_by.load(Ordering::Acquire) {
            0 => None,
            t => Some(t),
        }
    }

    /// Records evidence of a higher term. Every in-flight and future quorum
    /// wait fails with [`QuorumError::Fenced`]; the ship path must refuse to
    /// ship. Terms only ratchet upward.
    pub fn fence(&self, higher_term: u64) {
        self.fenced_by.fetch_max(higher_term, Ordering::AcqRel);
        // Grab the lock so a waiter between its check and its sleep cannot
        // miss the wakeup.
        let _guard = self.table.lock();
        self.cond.notify_all();
    }

    /// Registers a connected follower and returns its ack-slot id.
    pub fn register_follower(&self) -> u64 {
        let mut t = self.table.lock();
        t.next_id += 1;
        let id = t.next_id;
        t.acks.insert(id, 0);
        id
    }

    /// Drops a follower's ack slot (feed disconnected). Waiters re-check:
    /// losing a follower can only shrink the ack count, never satisfy a
    /// quorum, but they may now be able to give up against a dead set.
    pub fn deregister_follower(&self, id: u64) {
        let mut t = self.table.lock();
        t.acks.remove(&id);
        self.cond.notify_all();
    }

    /// Feeds one follower ack. An ack stamped with a term above ours is the
    /// new primary talking — it fences this group.
    pub fn note_ack(&self, id: u64, term: u64, lsn: u64) {
        if term > self.term() {
            self.fence(term);
            return;
        }
        let mut t = self.table.lock();
        if let Some(slot) = t.acks.get_mut(&id) {
            *slot = (*slot).max(lsn);
        }
        self.cond.notify_all();
    }

    /// Followers whose durable ack is at or past `lsn`.
    pub fn acked(&self, lsn: u64) -> u32 {
        let t = self.table.lock();
        t.acks.values().filter(|&&a| a >= lsn).count() as u32
    }

    /// Connected followers.
    pub fn followers(&self) -> usize {
        self.table.lock().acks.len()
    }

    /// The quorum rule, the one place it is written: a fenced group fails
    /// first (a deposed primary must not ack), then `policy.k` acks at or
    /// past `lsn` succeed, then an `expired` wait times out. The reactor's
    /// parked waits poll this each tick; [`ReplGroup::wait_quorum`] blocks
    /// on it.
    pub fn quorum_verdict(&self, lsn: u64, policy: &QuorumPolicy, expired: bool) -> Verdict {
        let t = self.table.lock();
        self.verdict(&t, lsn, policy, expired)
    }

    fn verdict(&self, t: &AckTable, lsn: u64, policy: &QuorumPolicy, expired: bool) -> Verdict {
        if let Some(term) = self.fenced_by() {
            return Some(Err(QuorumError::Fenced { term }));
        }
        let acked = t.acks.values().filter(|&&a| a >= lsn).count() as u32;
        if acked >= policy.k {
            return Some(Ok(()));
        }
        expired.then_some(Err(QuorumError::Timeout { lsn, acked, needed: policy.k }))
    }

    /// Blocks until [`ReplGroup::quorum_verdict`] decides, with
    /// `policy.timeout` as the bound.
    pub fn wait_quorum(&self, lsn: u64, policy: &QuorumPolicy) -> Result<(), QuorumError> {
        let deadline = Instant::now() + policy.timeout;
        let mut t = self.table.lock();
        loop {
            let now = Instant::now();
            if let Some(verdict) = self.verdict(&t, lsn, policy, now >= deadline) {
                return verdict;
            }
            t = self.cond.wait_timeout(t, deadline - now).0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn quorum_satisfied_by_k_acks() {
        let g = ReplGroup::new(1);
        let a = g.register_follower();
        let b = g.register_follower();
        let _c = g.register_follower();
        g.note_ack(a, 1, 500);
        g.note_ack(b, 1, 400);
        let policy = QuorumPolicy { k: 2, timeout: Duration::from_millis(10) };
        assert!(g.wait_quorum(400, &policy).is_ok());
        assert_eq!(
            g.wait_quorum(500, &policy),
            Err(QuorumError::Timeout { lsn: 500, acked: 1, needed: 2 })
        );
    }

    #[test]
    fn ack_regression_is_ignored() {
        let g = ReplGroup::new(1);
        let a = g.register_follower();
        g.note_ack(a, 1, 900);
        g.note_ack(a, 1, 100); // stale duplicate must not move the ack back
        assert_eq!(g.acked(900), 1);
    }

    #[test]
    fn wait_wakes_on_concurrent_ack() {
        let g = Arc::new(ReplGroup::new(1));
        let a = g.register_follower();
        let g2 = Arc::clone(&g);
        let waiter = thread::spawn(move || {
            g2.wait_quorum(1000, &QuorumPolicy { k: 1, timeout: Duration::from_secs(5) })
        });
        thread::sleep(Duration::from_millis(20));
        g.note_ack(a, 1, 1000);
        assert!(waiter.join().unwrap().is_ok());
    }

    #[test]
    fn higher_term_ack_fences_the_group() {
        let g = Arc::new(ReplGroup::new(1));
        let a = g.register_follower();
        let g2 = Arc::clone(&g);
        let waiter = thread::spawn(move || {
            g2.wait_quorum(1000, &QuorumPolicy { k: 1, timeout: Duration::from_secs(5) })
        });
        thread::sleep(Duration::from_millis(20));
        g.note_ack(a, 2, 1000); // promoted follower speaks from term 2
        assert_eq!(waiter.join().unwrap(), Err(QuorumError::Fenced { term: 2 }));
        assert_eq!(g.fenced_by(), Some(2));
        // Once fenced, even a satisfied ack count is refused.
        assert!(matches!(
            g.wait_quorum(0, &QuorumPolicy { k: 0, timeout: Duration::from_millis(1) }),
            Err(QuorumError::Fenced { .. })
        ));
    }

    #[test]
    fn deregister_shrinks_the_set() {
        let g = ReplGroup::new(1);
        let a = g.register_follower();
        g.note_ack(a, 1, 700);
        assert_eq!(g.followers(), 1);
        g.deregister_follower(a);
        assert_eq!(g.followers(), 0);
        assert_eq!(g.acked(700), 0);
    }
}

//! Pure spinning locks: test-and-test-and-set and ticket.
//!
//! These primitives never sleep. Under low contention they acquire in a
//! handful of cycles — far cheaper than any OS-assisted lock — but every
//! waiting thread burns a hardware context, which is exactly the "spinning
//! wastes cycles" half of the keynote's tradeoff.

use crate::{Backoff, RawLock};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

/// Test-and-test-and-set spinlock with exponential backoff.
///
/// Waiters first spin on a plain load (shared cache line state, no coherence
/// traffic) and only attempt the swap when the lock looks free, with
/// exponential backoff between failed attempts.
#[derive(Debug, Default)]
pub struct TatasLock {
    locked: AtomicBool,
}

impl TatasLock {
    /// Creates an unlocked lock.
    pub const fn new() -> Self {
        TatasLock {
            locked: AtomicBool::new(false),
        }
    }
}

impl RawLock for TatasLock {
    #[inline]
    fn lock(&self) {
        // Fast path: uncontended acquisition stays a single swap, no timer.
        if !self.locked.swap(true, Ordering::Acquire) {
            return;
        }
        let _spin = esdb_obs::wait_timer(esdb_obs::WaitClass::LatchSpin);
        let mut backoff = Backoff::new();
        loop {
            // Wait until the lock at least looks free before swapping again.
            while self.locked.load(Ordering::Relaxed) {
                backoff.pause();
            }
            if !self.locked.swap(true, Ordering::Acquire) {
                return;
            }
        }
    }

    #[inline]
    fn try_lock(&self) -> bool {
        !self.locked.load(Ordering::Relaxed) && !self.locked.swap(true, Ordering::Acquire)
    }

    #[inline]
    fn unlock(&self) {
        self.locked.store(false, Ordering::Release);
    }

    fn name(&self) -> &'static str {
        "tatas"
    }
}

/// FIFO ticket lock.
///
/// `next` hands out tickets; `serving` announces whose turn it is. Fair, and
/// each waiter performs read-only polling, but all waiters still share one
/// cache line — the scalability ceiling the MCS lock removes.
#[derive(Debug, Default)]
pub struct TicketLock {
    next: AtomicU32,
    serving: AtomicU32,
}

impl TicketLock {
    /// Creates an unlocked lock.
    pub const fn new() -> Self {
        TicketLock {
            next: AtomicU32::new(0),
            serving: AtomicU32::new(0),
        }
    }
}

impl RawLock for TicketLock {
    #[inline]
    fn lock(&self) {
        let ticket = self.next.fetch_add(1, Ordering::Relaxed);
        let mut backoff = Backoff::new();
        while self.serving.load(Ordering::Acquire) != ticket {
            backoff.pause();
        }
    }

    #[inline]
    fn try_lock(&self) -> bool {
        let serving = self.serving.load(Ordering::Acquire);
        // Only take a ticket if it would be served immediately.
        self.next
            .compare_exchange(serving, serving.wrapping_add(1), Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    #[inline]
    fn unlock(&self) {
        let current = self.serving.load(Ordering::Relaxed);
        self.serving.store(current.wrapping_add(1), Ordering::Release);
    }

    fn name(&self) -> &'static str {
        "ticket"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticket_try_lock_only_when_free() {
        let l = TicketLock::new();
        assert!(l.try_lock());
        assert!(!l.try_lock());
        l.unlock();
        assert!(l.try_lock());
        l.unlock();
    }

    #[test]
    fn tatas_sequential_lock_unlock() {
        let l = TatasLock::new();
        for _ in 0..100 {
            l.lock();
            l.unlock();
        }
        assert!(l.try_lock());
        // A second try_lock by the same thread must fail: these are latches,
        // not re-entrant mutexes.
        assert!(!l.try_lock());
        l.unlock();
    }
}

//! Spin-then-park hybrid lock.
//!
//! The keynote's resolution of the spinning/blocking tradeoff: spin just long
//! enough to ride out short critical sections, then park so a waiting context
//! stops burning cycles. The simulator models every engine run's latches this
//! way (`esdb_sim::WaitPolicy::DEFAULT_HYBRID`).
//!
//! The state machine is the classic three-state futex mutex (0 = free,
//! 1 = held, 2 = held with possible waiters), with a `Mutex`/`Condvar` pair
//! standing in for the futex wait queue.

use crate::{Backoff, RawLock};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

const FREE: u32 = 0;
const HELD: u32 = 1;
const CONTENDED: u32 = 2;

/// Bounded-spin-then-park mutual exclusion.
#[derive(Debug)]
pub struct HybridLock {
    state: AtomicU32,
    queue: Mutex<()>,
    cv: Condvar,
    spin_rounds: u32,
    parks: AtomicU64,
}

impl Default for HybridLock {
    fn default() -> Self {
        Self::new()
    }
}

impl HybridLock {
    /// Default number of backoff rounds before parking.
    pub const DEFAULT_SPIN_ROUNDS: u32 = 6;

    /// Creates an unlocked lock with the default spin budget.
    pub fn new() -> Self {
        Self::with_spin_rounds(Self::DEFAULT_SPIN_ROUNDS)
    }

    /// Creates an unlocked lock that spins for `rounds` backoff steps before
    /// parking. `rounds = 0` degenerates to a blocking lock.
    pub fn with_spin_rounds(rounds: u32) -> Self {
        HybridLock {
            state: AtomicU32::new(FREE),
            queue: Mutex::new(()),
            cv: Condvar::new(),
            spin_rounds: rounds,
            parks: AtomicU64::new(0),
        }
    }

    /// Total park (sleep) events across all acquisitions.
    pub fn park_count(&self) -> u64 {
        self.parks.load(Ordering::Relaxed)
    }

    #[cold]
    fn lock_slow(&self) {
        // Phase 1: bounded spinning.
        let mut backoff = Backoff::new();
        for _ in 0..self.spin_rounds {
            if self.state.load(Ordering::Relaxed) == FREE
                && self
                    .state
                    .compare_exchange(FREE, HELD, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                return;
            }
            backoff.pause();
        }
        // Phase 2: park. From here on we always mark the lock CONTENDED so the
        // releaser knows to wake someone.
        while self.state.swap(CONTENDED, Ordering::Acquire) != FREE {
            self.parks.fetch_add(1, Ordering::Relaxed);
            // Deterministic checking: virtual threads park on the scheduler
            // seam; the swap above re-races for the lock once it looks free.
            if crate::sched::block_until(crate::sched::YieldPoint::Park, || {
                self.state.load(Ordering::Acquire) != CONTENDED
            }) {
                continue;
            }
            let mut guard = self.queue.lock().unwrap();
            // Re-check under the queue mutex to avoid a missed wakeup: the
            // releaser notifies while holding this mutex.
            while self.state.load(Ordering::Acquire) == CONTENDED {
                guard = self.cv.wait(guard).unwrap();
            }
        }
    }
}

impl RawLock for HybridLock {
    #[inline]
    fn lock(&self) {
        if self
            .state
            .compare_exchange(FREE, HELD, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            self.lock_slow();
        }
    }

    #[inline]
    fn try_lock(&self) -> bool {
        self.state
            .compare_exchange(FREE, HELD, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    #[inline]
    fn unlock(&self) {
        if self.state.swap(FREE, Ordering::Release) == CONTENDED {
            // Serialize with waiters' re-check, then wake one.
            {
                let _guard = self.queue.lock().unwrap();
                self.cv.notify_one();
            }
            crate::sched::yield_now(crate::sched::YieldPoint::Unpark);
        }
    }

    fn name(&self) -> &'static str {
        "hybrid"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fast_path_never_parks() {
        let l = HybridLock::new();
        for _ in 0..100 {
            l.lock();
            l.unlock();
        }
        assert_eq!(l.park_count(), 0);
    }

    #[test]
    fn zero_spin_rounds_parks_immediately() {
        let lock = Arc::new(HybridLock::with_spin_rounds(0));
        lock.lock();
        let l2 = Arc::clone(&lock);
        let h = std::thread::spawn(move || {
            l2.lock();
            l2.unlock();
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        lock.unlock();
        h.join().unwrap();
        assert!(lock.park_count() >= 1);
    }

    #[test]
    fn contended_handoff_completes() {
        let lock = Arc::new(HybridLock::new());
        let mut handles = Vec::new();
        let total = Arc::new(AtomicU64::new(0));
        for _ in 0..4 {
            let lock = Arc::clone(&lock);
            let total = Arc::clone(&total);
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    lock.lock();
                    total.fetch_add(1, Ordering::Relaxed);
                    lock.unlock();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 2_000);
    }
}

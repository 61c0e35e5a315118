//! # esdb-sync — critical-section primitives for a multicore storage manager
//!
//! The ICDE 2011 keynote *"Embarrassingly scalable database systems"* observes
//! that as the number of hardware contexts grows, "primitives such as the
//! mechanism to access critical sections become crucial: spinning wastes
//! cycles, while blocking incurs high overhead".
//!
//! The engine takes every lock it holds from this crate:
//!
//! * **Mutex, reader–writer lock, condition variable** ([`Mutex`],
//!   [`RwLock`], [`Condvar`]) — `std`'s, with loud poisoning: an acquire
//!   after a holder panicked panics at once instead of handing out
//!   half-updated state (see [`lock`]). The buffer pool's frame map and page
//!   latches, the heap, the lock table, the WAL buffers and every other
//!   engine mutex are these.
//! * **Test-and-test-and-set spinlock** ([`TatasLock`]) — the decoupled log
//!   buffer's allocation lock.
//! * **Reader–writer latch** ([`RwLatch`]) — writer-preferring spin latch that
//!   protects B+tree nodes; [`Latched<T>`] pairs one with the data it guards
//!   (secondary indexes).
//!
//! [`primitives`] holds the rest of the menu that discussion refers to — the
//! ticket, MCS, blocking and spin-then-park locks. They implement
//! [`RawLock`], through which `fig3_sync` sweeps them against [`TatasLock`];
//! the engine does not import them. The spin/block/hybrid choice at many
//! contexts is swept on the simulator (`esdb_sim::WaitPolicy`).
//!
//! ## Example
//!
//! ```
//! use esdb_sync::{RawLock, TatasLock};
//! let lock = TatasLock::new();
//! lock.lock();
//! // ... critical section ...
//! lock.unlock();
//! assert!(lock.try_lock());
//! lock.unlock();
//! ```

#![deny(unsafe_code)]

pub mod backoff;
mod block;
mod hybrid;
pub mod lock;
#[allow(unsafe_code)]
mod mcs;
#[allow(unsafe_code)]
pub mod rwlatch;
pub mod sched;
mod spin;

pub use backoff::Backoff;
pub use lock::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
pub use rwlatch::{Latched, RwLatch};
pub use sched::{Mutation, SchedHook, YieldPoint};
pub use spin::TatasLock;

pub mod primitives {
    //! Claim 4's exhibit: the lock primitives `fig3_sync` sweeps against
    //! [`TatasLock`](crate::TatasLock) and the simulator's wait policies. The engine does not
    //! import them.
    //!
    //! * **Ticket lock** ([`TicketLock`]) — FIFO-fair spinning, still a single
    //!   contended cache line.
    //! * **MCS queue lock** ([`McsLock`]) — each waiter spins on a private cache
    //!   line; the canonical scalable spinlock.
    //! * **Blocking lock** ([`BlockLock`]) — OS-assisted parking; pays a context
    //!   switch but wastes no cycles.
    //! * **Spin-then-park hybrid** ([`HybridLock`]) — bounded spinning followed by
    //!   parking, the policy Shore-MT converged on for most latches.

    pub use crate::block::BlockLock;
    pub use crate::hybrid::HybridLock;
    pub use crate::mcs::McsLock;
    pub use crate::spin::TicketLock;
}

/// Multiplicative hasher for the engine's own integer keys (`LockId`,
/// `PageId`, `TxnId`, `TableId`): one rotate-xor-multiply per word where
/// SipHash spends ~20 ns. The keys are engine-assigned, never outside input,
/// so resistance to crafted collisions buys nothing here.
#[derive(Debug, Default, Clone, Copy)]
pub struct IntHasher(u64);

impl std::hash::Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b as u64));
    }
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
    fn finish(&self) -> u64 {
        // The product's high half is the well-mixed one; fold it down to
        // where the table takes its bucket index from.
        self.0 ^ (self.0 >> 32)
    }
}

/// A `HashMap` keyed by engine-assigned integers, hashed by [`IntHasher`].
/// The staged engine's group-by and join build also key one by client
/// values: a key set crafted to collide slows that query alone, which holds
/// no latch or lock while it probes.
pub type IntMap<K, V> = std::collections::HashMap<K, V, std::hash::BuildHasherDefault<IntHasher>>;

/// A raw (non-RAII, non-poisoning) mutual-exclusion primitive.
///
/// The engine uses raw locks internally because latches are frequently
/// acquired in one function and released in another (e.g. latch crabbing in
/// the B+tree), which does not fit guard lifetimes.
pub trait RawLock: Send + Sync {
    /// Acquires the lock, waiting (by whatever strategy) until it is held.
    fn lock(&self);
    /// Attempts to acquire the lock without waiting; returns `true` on success.
    fn try_lock(&self) -> bool;
    /// Releases the lock. Must only be called by the current holder.
    fn unlock(&self);
    /// Human-readable primitive name, used in benchmark output.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::primitives::*;
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Hammers a shared counter from several threads through `lock` and checks
    /// that no increment is lost, i.e. mutual exclusion holds.
    fn exercise<L: RawLock + 'static>(lock: L) {
        const THREADS: usize = 4;
        const ITERS: usize = 2_000;
        let lock = Arc::new(lock);
        let counter = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..ITERS {
                    lock.lock();
                    // Non-atomic read-modify-write under the lock: any
                    // mutual-exclusion violation shows up as a lost update.
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                    lock.unlock();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), THREADS * ITERS);
    }

    #[test]
    fn tatas_mutual_exclusion() {
        exercise(TatasLock::new());
    }

    #[test]
    fn ticket_mutual_exclusion() {
        exercise(TicketLock::new());
    }

    #[test]
    fn mcs_mutual_exclusion() {
        exercise(McsLock::new());
    }

    #[test]
    fn block_mutual_exclusion() {
        exercise(BlockLock::new());
    }

    #[test]
    fn hybrid_mutual_exclusion() {
        exercise(HybridLock::new());
    }

    #[test]
    fn try_lock_contended_fails() {
        let lock = HybridLock::new();
        lock.lock();
        assert!(!lock.try_lock());
        lock.unlock();
        assert!(lock.try_lock());
        lock.unlock();
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            TatasLock::new().name(),
            TicketLock::new().name(),
            McsLock::new().name(),
            BlockLock::new().name(),
            HybridLock::new().name(),
        ];
        for (i, a) in names.iter().enumerate() {
            for b in names.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }
}

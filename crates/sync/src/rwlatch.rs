//! Reader–writer spin latch with writer preference.
//!
//! Pages, index nodes, and catalog entries are read far more often than they
//! are written; a reader-writer latch lets readers proceed in parallel while
//! still giving writers a bounded wait (incoming readers stand aside once a
//! writer announces itself). [`RwLatch`] itself has only raw acquire/release
//! calls, which the B+tree's latch crabbing needs; [`Latched<T>`] pairs one
//! with the data it guards and hands out RAII guards.

use crate::Backoff;
use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU32, Ordering};

/// Writer-held marker in the reader-count word.
const WRITER: u32 = u32::MAX;

/// A spinning reader–writer latch.
#[derive(Debug, Default)]
pub struct RwLatch {
    /// Number of readers, or [`WRITER`] when write-held.
    state: AtomicU32,
    /// Writers currently waiting; readers defer to them.
    writers_waiting: AtomicU32,
}

impl RwLatch {
    /// Creates an unlatched latch.
    pub const fn new() -> Self {
        RwLatch {
            state: AtomicU32::new(0),
            writers_waiting: AtomicU32::new(0),
        }
    }

    /// Acquires in shared mode.
    pub fn lock_shared(&self) {
        // Fast path: uncontended acquisition pays no timer.
        if self.try_lock_shared() {
            return;
        }
        let _spin = esdb_obs::wait_timer(esdb_obs::WaitClass::LatchSpin);
        let mut backoff = Backoff::new();
        loop {
            backoff.pause();
            if self.try_lock_shared() {
                return;
            }
        }
    }

    /// Attempts shared acquisition; fails if write-held or a writer waits.
    pub fn try_lock_shared(&self) -> bool {
        if self.writers_waiting.load(Ordering::Relaxed) > 0 {
            return false;
        }
        let s = self.state.load(Ordering::Relaxed);
        if s == WRITER || s == WRITER - 1 {
            return false;
        }
        self.state
            .compare_exchange_weak(s, s + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// Releases one shared holder.
    pub fn unlock_shared(&self) {
        let prev = self.state.fetch_sub(1, Ordering::Release);
        debug_assert!(prev != 0 && prev != WRITER, "unlock_shared without shared hold");
    }

    /// Acquires in exclusive mode.
    pub fn lock_exclusive(&self) {
        // Fast path: uncontended acquisition pays no timer.
        if self.try_lock_exclusive() {
            return;
        }
        let _spin = esdb_obs::wait_timer(esdb_obs::WaitClass::LatchSpin);
        self.writers_waiting.fetch_add(1, Ordering::Relaxed);
        let mut backoff = Backoff::new();
        while self
            .state
            .compare_exchange_weak(0, WRITER, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            backoff.pause();
        }
        self.writers_waiting.fetch_sub(1, Ordering::Relaxed);
    }

    /// Attempts exclusive acquisition without waiting.
    pub fn try_lock_exclusive(&self) -> bool {
        self.state
            .compare_exchange(0, WRITER, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// Releases the exclusive holder.
    pub fn unlock_exclusive(&self) {
        let prev = self.state.swap(0, Ordering::Release);
        debug_assert_eq!(prev, WRITER, "unlock_exclusive without exclusive hold");
    }
}

/// Data guarded by an [`RwLatch`], reachable only through its guards — the
/// latch owns what it protects, as `std::sync::RwLock` does, so no caller
/// touches a raw pointer.
#[derive(Default)]
pub struct Latched<T> {
    latch: RwLatch,
    data: UnsafeCell<T>,
}

// SAFETY: the same bounds as `std::sync::RwLock`. The latch admits either
// one writer (`&mut T` on one thread) or many readers (`&T` on many).
unsafe impl<T: Send> Send for Latched<T> {}
unsafe impl<T: Send + Sync> Sync for Latched<T> {}

impl<T> Latched<T> {
    /// Wraps `data` behind an unlatched latch.
    pub const fn new(data: T) -> Self {
        Latched {
            latch: RwLatch::new(),
            data: UnsafeCell::new(data),
        }
    }

    /// Shared acquisition: the guard derefs to `&T`.
    pub fn read(&self) -> ReadGuard<'_, T> {
        self.latch.lock_shared();
        ReadGuard { owner: self }
    }

    /// Exclusive acquisition: the guard derefs to `&mut T`.
    pub fn write(&self) -> WriteGuard<'_, T> {
        self.latch.lock_exclusive();
        WriteGuard { owner: self }
    }
}

/// A shared hold on a [`Latched`]; releases on drop.
pub struct ReadGuard<'a, T> {
    owner: &'a Latched<T>,
}

impl<T> Deref for ReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: a shared hold excludes every writer.
        unsafe { &*self.owner.data.get() }
    }
}

impl<T> Drop for ReadGuard<'_, T> {
    fn drop(&mut self) {
        self.owner.latch.unlock_shared();
    }
}

/// An exclusive hold on a [`Latched`]; releases on drop.
pub struct WriteGuard<'a, T> {
    owner: &'a Latched<T>,
}

impl<T> Deref for WriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: an exclusive hold excludes every other holder.
        unsafe { &*self.owner.data.get() }
    }
}

impl<T> DerefMut for WriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as above, and `&mut self` makes this borrow unique.
        unsafe { &mut *self.owner.data.get() }
    }
}

impl<T> Drop for WriteGuard<'_, T> {
    fn drop(&mut self) {
        self.owner.latch.unlock_exclusive();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn multiple_readers_coexist() {
        let l = RwLatch::new();
        l.lock_shared();
        assert!(l.try_lock_shared(), "a second reader is admitted");
        assert!(!l.try_lock_exclusive());
        l.unlock_shared();
        assert!(!l.try_lock_exclusive(), "one reader still holds the latch");
        l.unlock_shared();
        assert!(l.try_lock_exclusive());
        l.unlock_exclusive();
    }

    #[test]
    fn writer_excludes_readers() {
        let l = RwLatch::new();
        l.lock_exclusive();
        assert!(!l.try_lock_shared());
        assert!(!l.try_lock_exclusive());
        l.unlock_exclusive();
        assert!(l.try_lock_shared());
        l.unlock_shared();
    }

    #[test]
    fn guards_release_on_drop() {
        let l = Latched::new(7u32);
        {
            let r = l.read();
            assert_eq!(*r, 7);
            assert!(!l.latch.try_lock_exclusive(), "a read guard holds the latch");
        }
        assert!(l.latch.try_lock_exclusive());
        l.latch.unlock_exclusive();
        {
            let mut w = l.write();
            *w += 1;
            assert!(!l.latch.try_lock_shared(), "a write guard holds the latch");
        }
        assert!(l.latch.try_lock_shared());
        l.latch.unlock_shared();
        assert_eq!(*l.read(), 8);
    }

    #[test]
    fn latched_pair_is_never_seen_torn() {
        // Writers bump both fields of a pair in two steps; readers must never
        // see them differ, which would mean a read overlapped a write.
        let pair = Arc::new(Latched::new((0u64, 0u64)));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let pair = Arc::clone(&pair);
                std::thread::spawn(move || {
                    for _ in 0..2_000 {
                        if t % 2 == 0 {
                            let mut w = pair.write();
                            w.0 += 1;
                            std::hint::black_box(&mut *w);
                            w.1 += 1;
                        } else {
                            let r = pair.read();
                            assert_eq!(r.0, r.1, "reader saw a torn pair");
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*pair.read(), (4_000, 4_000));
    }

    #[test]
    fn concurrent_readers_and_writers_preserve_invariant() {
        // Writers increment a plain counter twice; readers must never observe
        // an odd value (which would mean they ran during a write).
        use std::sync::atomic::AtomicU64;
        let latch = Arc::new(RwLatch::new());
        let value = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for t in 0..4 {
            let latch = Arc::clone(&latch);
            let value = Arc::clone(&value);
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    if t % 2 == 0 {
                        latch.lock_exclusive();
                        let v = value.load(Ordering::Relaxed);
                        value.store(v + 1, Ordering::Relaxed);
                        let v = value.load(Ordering::Relaxed);
                        value.store(v + 1, Ordering::Relaxed);
                        latch.unlock_exclusive();
                    } else {
                        latch.lock_shared();
                        assert_eq!(value.load(Ordering::Relaxed) % 2, 0);
                        latch.unlock_shared();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(value.load(Ordering::Relaxed), 2_000);
    }
}

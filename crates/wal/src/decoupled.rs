//! Decoupled log buffer: allocation under a mutex, buffer fill outside it.
//!
//! The observation from the Aether work: the memcpy into the log buffer is
//! far longer than LSN allocation, so holding the mutex across the copy (as
//! [`crate::serial::SerialLogBuffer`] does) wastes almost all of the critical
//! section. Here the mutex covers only the few instructions of allocation;
//! the fill proceeds in parallel into a shared ring, and a `completed`
//! counter tells the flusher when a prefix has no holes.
//!
//! Hole tracking is simplified relative to Aether: `completed` is the *sum*
//! of filled bytes, so the flusher briefly blocks new allocations and waits
//! for in-flight fills (nanoseconds) to quiesce before reading the ring.

use crate::buffer::{LogBuffer, LogStore, LsnRange, Ring, LOG_START};
use crate::Lsn;
use esdb_sync::{RawLock, TatasLock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Default ring capacity: 4 MiB.
pub const DEFAULT_CAPACITY: usize = 4 << 20;

/// Log buffer with mutex-protected allocation and parallel fill.
pub struct DecoupledLogBuffer {
    pub(crate) ring: Ring,
    pub(crate) alloc_lock: TatasLock,
    /// Next LSN to allocate (stored only under `alloc_lock`).
    pub(crate) tail: AtomicU64,
    /// Total bytes whose fill has completed (equals `tail - LOG_START` when
    /// no fill is in flight).
    pub(crate) completed: AtomicU64,
    pub(crate) durable: AtomicU64,
    pub(crate) store: LogStore,
}

impl DecoupledLogBuffer {
    /// Creates a buffer with the default ring size.
    pub fn new(flush_latency: Option<Duration>) -> Self {
        Self::with_capacity(DEFAULT_CAPACITY, flush_latency)
    }

    /// Creates a buffer with an explicit ring capacity.
    pub fn with_capacity(capacity: usize, flush_latency: Option<Duration>) -> Self {
        Self::with_capacity_at(LOG_START, capacity, flush_latency)
    }

    /// Creates a buffer whose first LSN is `base` (post-crash continuation).
    pub fn with_capacity_at(base: u64, capacity: usize, flush_latency: Option<Duration>) -> Self {
        DecoupledLogBuffer {
            ring: Ring::new(capacity),
            alloc_lock: TatasLock::new(),
            tail: AtomicU64::new(base),
            completed: AtomicU64::new(0),
            durable: AtomicU64::new(base),
            store: LogStore::new_at(base, flush_latency),
        }
    }

    /// Allocates `len` bytes of log space. Must be called with `alloc_lock`
    /// held; flushes to make ring space if needed.
    pub(crate) fn allocate_locked(&self, len: u64) -> Lsn {
        assert!(
            len <= self.ring.capacity(),
            "log record of {len} bytes exceeds ring capacity"
        );
        let start = self.tail.load(Ordering::Relaxed);
        // Backpressure: the new range may not overwrite undurable bytes.
        if start + len - self.durable.load(Ordering::Acquire) > self.ring.capacity() {
            self.flush_locked(start);
        }
        self.tail.store(start + len, Ordering::Release);
        start
    }

    /// Flushes everything allocated so far. Must hold `alloc_lock` (which
    /// freezes `tail`); waits for in-flight fills, then appends to the store.
    pub(crate) fn flush_locked(&self, tail_snapshot: Lsn) {
        let base = self.store.base();
        // Bounded spin, then yield: in-flight fillers may be descheduled.
        let mut spins = 0u32;
        while self.completed.load(Ordering::Acquire) < tail_snapshot - base {
            spins += 1;
            if spins > 128 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        let durable = self.durable.load(Ordering::Relaxed);
        if tail_snapshot > durable {
            // SAFETY: every byte in [durable, tail_snapshot) is filled
            // (completed count); none is rewritten before `durable` moves
            // past it, which happens only below, after the slices are dead.
            self.store.append(&unsafe { self.ring.slices(durable, tail_snapshot) });
            self.durable.store(tail_snapshot, Ordering::Release);
        }
    }

    /// Fill phase: copy outside any lock, then publish completion.
    pub(crate) fn fill(&self, start: Lsn, payload: &[u8]) {
        unsafe { self.ring.write(start, payload) };
        self.completed
            .fetch_add(payload.len() as u64, Ordering::Release);
    }
}

impl LogBuffer for DecoupledLogBuffer {
    fn insert(&self, payload: &[u8]) -> LsnRange {
        let len = payload.len() as u64;
        // Contended allocation is log-subsystem queueing, not generic latch
        // spin (the nested LatchSpin timer inside the lock records nothing).
        if !self.alloc_lock.try_lock() {
            let _wait = esdb_obs::wait_timer(esdb_obs::WaitClass::LogWait);
            self.alloc_lock.lock();
        }
        let start = self.allocate_locked(len);
        self.alloc_lock.unlock();
        self.fill(start, payload);
        LsnRange {
            start,
            end: start + len,
        }
    }

    fn flush(&self, lsn: Lsn) {
        if self.durable.load(Ordering::Acquire) >= lsn {
            return;
        }
        self.alloc_lock.lock();
        // Re-check: a concurrent flush may have covered us (group commit).
        if self.durable.load(Ordering::Acquire) < lsn {
            let tail = self.tail.load(Ordering::Relaxed);
            self.flush_locked(tail);
        }
        self.alloc_lock.unlock();
    }

    fn durable_lsn(&self) -> Lsn {
        self.durable.load(Ordering::Acquire)
    }

    fn current_lsn(&self) -> Lsn {
        self.tail.load(Ordering::Acquire)
    }

    fn name(&self) -> &'static str {
        "decoupled"
    }

    fn store(&self) -> &LogStore {
        &self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn ranges_contiguous_and_durable() {
        let b = DecoupledLogBuffer::new(None);
        let a = b.insert(b"first");
        let c = b.insert(b"second");
        assert_eq!(a.end, c.start);
        b.flush(c.end);
        assert_eq!(b.read_durable(LOG_START), b"firstsecond");
    }

    #[test]
    fn small_ring_applies_backpressure() {
        let b = DecoupledLogBuffer::with_capacity(64, None);
        // Insert far more than the ring holds; backpressure flushes must keep
        // every byte.
        for i in 0..100u8 {
            b.insert(&[i; 16]);
        }
        b.flush(b.current_lsn());
        let bytes = b.read_durable(LOG_START);
        assert_eq!(bytes.len(), 1600);
        assert_eq!(&bytes[0..16], &[0u8; 16]);
        assert_eq!(&bytes[1584..], &[99u8; 16]);
    }

    #[test]
    fn concurrent_inserts_no_bytes_lost() {
        let b = Arc::new(DecoupledLogBuffer::with_capacity(4096, None));
        let mut handles = Vec::new();
        for t in 0..4u8 {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u32 {
                    // Distinct marker per record for post-hoc verification.
                    let mut payload = [t; 24];
                    payload[0..4].copy_from_slice(&i.to_le_bytes());
                    b.insert(&payload);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        b.flush(b.current_lsn());
        let bytes = b.read_durable(LOG_START);
        assert_eq!(bytes.len(), 4 * 500 * 24);
        // Every record present exactly once: check per-thread sequence sets.
        let mut seen = vec![vec![false; 500]; 4];
        for rec in bytes.chunks_exact(24) {
            let t = rec[4] as usize;
            let i = u32::from_le_bytes(rec[0..4].try_into().unwrap()) as usize;
            assert!(!seen[t][i], "duplicate record t={t} i={i}");
            seen[t][i] = true;
        }
        assert!(seen.iter().all(|v| v.iter().all(|&x| x)));
    }

    #[test]
    #[should_panic(expected = "exceeds ring capacity")]
    fn oversized_record_rejected() {
        let b = DecoupledLogBuffer::with_capacity(32, None);
        b.insert(&[0u8; 64]);
    }
}

//! Consolidation-array log buffer (Aether's "C" on top of "D").
//!
//! Under high insert rates even the short allocation mutex of the decoupled
//! buffer becomes a convoy. The consolidation array fixes the *number of
//! acquirers* rather than the critical-section length: threads that arrive
//! concurrently combine their requests in a small array of slots; one
//! *leader* per group acquires the allocation mutex once for the whole
//! group's bytes and hands each *follower* its offset. Contention on the
//! mutex now grows with the number of groups, not the number of threads.
//!
//! Slot protocol (one `AtomicU64` per slot, packed `gen:16 | count:16 |
//! size:32`):
//!
//! 1. A thread CASes itself into a slot: `count 0 → 1` makes it the leader;
//!    `count n → n+1, size += len` makes it a follower at relative offset
//!    `size`.
//! 2. The leader takes the allocation mutex, *closes* the slot (no more
//!    joiners), allocates `size` bytes, publishes the base LSN, and fills its
//!    own record.
//! 3. Followers wait for the published base, fill at `base + rel`, and bump
//!    the consumed counter; the leader recycles the slot for the next
//!    generation once everyone is done.
//!
//! The 16-bit generation tag prevents ABA between rounds; a thread would
//! have to sleep through 65,536 full generations of one slot mid-protocol to
//! be fooled, which we accept.

use crate::buffer::{LogBuffer, LogStore, LsnRange};
use crate::decoupled::DecoupledLogBuffer;
use crate::Lsn;
use esdb_sync::RawLock;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Duration;

/// Sentinel in the `size` field marking a slot closed to joiners.
const CLOSED: u32 = u32::MAX;
/// A group never accumulates more than this many bytes (keeps groups well
/// under the ring size and bounds follower wait).
const MAX_GROUP_BYTES: u32 = 1 << 20;

#[inline]
fn pack(gen: u16, count: u16, size: u32) -> u64 {
    ((gen as u64) << 48) | ((count as u64) << 32) | size as u64
}

#[inline]
fn unpack(v: u64) -> (u16, u16, u32) {
    ((v >> 48) as u16, (v >> 32) as u16, v as u32)
}

struct Slot {
    state: AtomicU64,
    base: AtomicU64,
    /// Generation whose `base` is published (u64::MAX = none).
    base_gen: AtomicU64,
    consumed: AtomicU32,
}

impl Slot {
    fn new() -> Self {
        Slot {
            state: AtomicU64::new(pack(0, 0, 0)),
            base: AtomicU64::new(0),
            base_gen: AtomicU64::new(u64::MAX),
            consumed: AtomicU32::new(0),
        }
    }
}

enum Join {
    Leader { gen: u16 },
    Follower { gen: u16, rel: u32 },
    Unavailable,
}

/// Decoupled buffer fronted by a consolidation array.
pub struct ConsolidatedLogBuffer {
    inner: DecoupledLogBuffer,
    slots: Vec<Slot>,
    /// Group byte cap: min(MAX_GROUP_BYTES, ring capacity / 4).
    max_group: u32,
}

impl ConsolidatedLogBuffer {
    /// Default number of consolidation slots.
    pub const DEFAULT_SLOTS: usize = 4;

    /// Creates a buffer with the default ring and slot count.
    pub fn new(flush_latency: Option<Duration>) -> Self {
        Self::with_config(crate::decoupled::DEFAULT_CAPACITY, Self::DEFAULT_SLOTS, flush_latency)
    }

    /// Creates a buffer with explicit ring capacity and slot count.
    pub fn with_config(capacity: usize, slots: usize, flush_latency: Option<Duration>) -> Self {
        Self::with_config_at(crate::buffer::LOG_START, capacity, slots, flush_latency)
    }

    /// Creates a buffer whose first LSN is `base` (post-crash continuation).
    pub fn with_config_at(base: u64, capacity: usize, slots: usize, flush_latency: Option<Duration>) -> Self {
        ConsolidatedLogBuffer {
            inner: DecoupledLogBuffer::with_capacity_at(base, capacity, flush_latency),
            max_group: MAX_GROUP_BYTES.min((capacity / 4).max(1) as u32),
            slots: (0..slots.max(1)).map(|_| Slot::new()).collect(),
        }
    }

    fn try_join(&self, slot: &Slot, len: u32) -> Join {
        loop {
            let s = slot.state.load(Ordering::Acquire);
            let (gen, count, size) = unpack(s);
            if size == CLOSED {
                return Join::Unavailable;
            }
            if count == 0 {
                if slot
                    .state
                    .compare_exchange_weak(s, pack(gen, 1, len), Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
                {
                    return Join::Leader { gen };
                }
            } else {
                if count == u16::MAX || size.saturating_add(len) >= self.max_group {
                    return Join::Unavailable;
                }
                if slot
                    .state
                    .compare_exchange_weak(
                        s,
                        pack(gen, count + 1, size + len),
                        Ordering::AcqRel,
                        Ordering::Relaxed,
                    )
                    .is_ok()
                {
                    return Join::Follower { gen, rel: size };
                }
            }
        }
    }

    fn lead(&self, slot: &Slot, gen: u16, payload: &[u8]) -> LsnRange {
        let len = payload.len() as u64;
        if !self.inner.alloc_lock.try_lock() {
            let _wait = esdb_obs::wait_timer(esdb_obs::WaitClass::LogWait);
            self.inner.alloc_lock.lock();
        }
        // Close the slot: no more joiners for this generation. Whatever size
        // accumulated by now is the group.
        let (count, total) = loop {
            let s = slot.state.load(Ordering::Acquire);
            let (g, c, sz) = unpack(s);
            debug_assert_eq!(g, gen);
            if slot
                .state
                .compare_exchange_weak(s, pack(g, c, CLOSED), Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                break (c, sz);
            }
        };
        let base = self.inner.allocate_locked(total as u64);
        self.inner.alloc_lock.unlock();

        // Publish the base so followers can fill.
        slot.base.store(base, Ordering::Release);
        slot.base_gen.store(gen as u64, Ordering::Release);

        // Leader's own record sits at relative offset 0. Whoever finishes
        // last recycles the slot — nobody busy-waits for stragglers.
        self.inner.fill(base, payload);
        self.signal_done(slot, gen, count);

        LsnRange {
            start: base,
            end: base + len,
        }
    }

    /// Marks one group member's fill complete; the last one to finish
    /// recycles the slot for the next generation.
    fn signal_done(&self, slot: &Slot, gen: u16, count: u16) {
        let done = slot.consumed.fetch_add(1, Ordering::AcqRel) + 1;
        if done == count as u32 {
            slot.consumed.store(0, Ordering::Relaxed);
            slot.base_gen.store(u64::MAX, Ordering::Release);
            slot.state
                .store(pack(gen.wrapping_add(1), 0, 0), Ordering::Release);
        }
    }

    fn follow(&self, slot: &Slot, gen: u16, rel: u32, payload: &[u8]) -> LsnRange {
        // Bounded spin, then yield: on an oversubscribed host the leader may
        // be descheduled between our join and its publish. Waiting on the
        // leader is time spent in the log subsystem.
        if slot.base_gen.load(Ordering::Acquire) != gen as u64 {
            let _wait = esdb_obs::wait_timer(esdb_obs::WaitClass::LogWait);
            let mut spins = 0u32;
            while slot.base_gen.load(Ordering::Acquire) != gen as u64 {
                spins += 1;
                if spins > 128 {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
        let base = slot.base.load(Ordering::Acquire);
        // The group size is frozen in the closed state word; read it before
        // signalling so a concurrent recycle cannot outrun us.
        let (_, count, _) = unpack(slot.state.load(Ordering::Acquire));
        let start = base + rel as u64;
        self.inner.fill(start, payload);
        self.signal_done(slot, gen, count);
        LsnRange {
            start,
            end: start + payload.len() as u64,
        }
    }
}

thread_local! {
    /// Per-thread home slot, derived once from the thread's address space.
    static HOME_SLOT: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

fn home_slot(n: usize) -> usize {
    HOME_SLOT.with(|h| {
        if h.get() == usize::MAX {
            // Derive a per-thread value from a stack address.
            let marker = 0u8;
            let addr = &marker as *const u8 as usize;
            h.set((addr >> 7) % n.max(1));
        }
        h.get() % n
    })
}

impl LogBuffer for ConsolidatedLogBuffer {
    fn insert(&self, payload: &[u8]) -> LsnRange {
        let len = payload.len() as u32;
        let n = self.slots.len();
        let first = home_slot(n);
        // Try a couple of slots; fall back to the direct (decoupled) path.
        for attempt in 0..2 {
            let slot = &self.slots[(first + attempt) % n];
            match self.try_join(slot, len) {
                Join::Leader { gen } => return self.lead(slot, gen, payload),
                Join::Follower { gen, rel } => return self.follow(slot, gen, rel, payload),
                Join::Unavailable => continue,
            }
        }
        self.inner.insert(payload)
    }

    fn flush(&self, lsn: Lsn) {
        self.inner.flush(lsn)
    }

    fn durable_lsn(&self) -> Lsn {
        self.inner.durable_lsn()
    }

    fn current_lsn(&self) -> Lsn {
        self.inner.current_lsn()
    }

    fn name(&self) -> &'static str {
        "consolidated"
    }

    fn store(&self) -> &LogStore {
        self.inner.store()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::LOG_START;
    use std::sync::Arc;

    #[test]
    fn pack_unpack_roundtrip() {
        for (g, c, s) in [(0u16, 0u16, 0u32), (7, 3, 1024), (u16::MAX, u16::MAX, CLOSED)] {
            assert_eq!(unpack(pack(g, c, s)), (g, c, s));
        }
    }

    #[test]
    fn single_thread_inserts_behave_like_decoupled() {
        let b = ConsolidatedLogBuffer::new(None);
        let a = b.insert(b"aaa");
        let c = b.insert(b"cccc");
        assert_eq!(a.start, LOG_START);
        assert_eq!(c.start, a.end);
        b.flush(c.end);
        assert_eq!(b.read_durable(LOG_START), b"aaacccc");
    }

    #[test]
    fn concurrent_inserts_no_bytes_lost_or_duplicated() {
        let b = Arc::new(ConsolidatedLogBuffer::with_config(1 << 16, 2, None));
        let mut handles = Vec::new();
        for t in 0..4u8 {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u32 {
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
    fn consolidation_happens_under_contention() {
        // With one slot and many threads, followers must appear.
        let b = Arc::new(ConsolidatedLogBuffer::with_config(1 << 20, 1, None));
        let mut handles = Vec::new();
        for _ in 0..6 {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                for _ in 0..2_000 {
                    b.insert(&[1u8; 48]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        b.flush(b.current_lsn());
        assert_eq!(
            b.read_durable(LOG_START).len(),
            6 * 2_000 * 48,
            "all bytes must survive consolidation"
        );
    }
}

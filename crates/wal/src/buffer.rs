//! The [`LogBuffer`] abstraction and the shared ring-buffer machinery.
//!
//! A log buffer accepts byte payloads from many threads, assigns each a
//! contiguous LSN range in a single total order, and makes prefixes of that
//! order durable on demand. "Durable" here means copied into an append-only
//! in-memory log *store* (the stand-in for the log disk), optionally paying a
//! configurable flush latency — which is what the ELR/group-commit
//! experiments sweep.

use crate::Lsn;
use esdb_storage::FaultRng;
use esdb_sync::Mutex;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// First valid LSN; offsets below this are the "log file header".
pub const LOG_START: Lsn = 8;

/// The LSN range `[start, end)` occupied by one inserted payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LsnRange {
    /// LSN of the first byte (identifies the record, stamped into pages).
    pub start: Lsn,
    /// LSN one past the last byte (a commit is durable when
    /// `durable_lsn() >= end`).
    pub end: Lsn,
}

/// A multi-producer log buffer with explicit durability control.
pub trait LogBuffer: Send + Sync {
    /// Appends `payload` to the log stream, returning its LSN range. The
    /// payload is *not* durable until a flush covers it.
    fn insert(&self, payload: &[u8]) -> LsnRange;

    /// Blocks until `durable_lsn() >= lsn`.
    fn flush(&self, lsn: Lsn);

    /// Highest LSN known durable.
    fn durable_lsn(&self) -> Lsn;

    /// LSN that the next insert would receive (end of allocated log).
    fn current_lsn(&self) -> Lsn;

    /// Implementation name for benchmark output.
    fn name(&self) -> &'static str;

    /// The durable log store behind this buffer (fault injection and the
    /// crash-torture harness reach the device through here).
    fn store(&self) -> &LogStore;

    /// First LSN of this log (offsets before it belong to a pre-crash
    /// incarnation of the log).
    fn start_lsn(&self) -> Lsn {
        self.store().base()
    }

    /// Copies the durable byte range `[from, durable_lsn())` (for recovery).
    fn read_durable(&self, from: Lsn) -> Vec<u8> {
        self.store().read_from(from)
    }

    /// Number of physical device flushes so far — the group-commit metric:
    /// `commits / flushes` is the average commit-batch size.
    fn flush_count(&self) -> u64 {
        self.store().flush_count()
    }
}

/// A planned log-device crash: a *lying* device that acknowledges appends
/// but stops persisting them.
///
/// On append number `crash_on_append` (zero-based) the device persists only a
/// seeded-random prefix of the payload — the torn final write — optionally
/// flipping one bit inside it, and silently drops every byte of every later
/// append while still acknowledging. The log buffer above keeps advancing its
/// durable LSN, exactly like a drive whose write cache lied about fsync;
/// recovery then finds a shorter, possibly damaged stream than the LSNs
/// promised.
#[derive(Debug, Clone, Copy)]
pub struct LogFault {
    /// Seed for the tear point and bit-flip choices.
    pub seed: u64,
    /// Zero-based index of the append that crashes the device.
    pub crash_on_append: u64,
    /// Also flip one random bit inside the persisted prefix.
    pub flip_bit: bool,
}

struct LogFaultState {
    config: LogFault,
    rng: FaultRng,
    appends: u64,
    dead: bool,
}

/// Append-only durable destination shared by all buffer implementations.
pub struct LogStore {
    bytes: Mutex<Vec<u8>>,
    /// Stream offset of the first byte still held in this store. Starts at
    /// the log's creation base and advances when [`LogStore::truncate_before`]
    /// reclaims a checkpointed prefix. Only mutated under the `bytes` lock.
    base: AtomicU64,
    /// Artificial device latency paid once per flush call.
    flush_latency: Option<Duration>,
    flushes: AtomicU64,
    fault: Mutex<Option<LogFaultState>>,
}

impl LogStore {
    /// Creates a store with zero flush latency starting at [`LOG_START`].
    pub fn new(flush_latency: Option<Duration>) -> Self {
        Self::new_at(LOG_START, flush_latency)
    }

    /// Creates a store whose first byte has stream offset `base`.
    pub fn new_at(base: Lsn, flush_latency: Option<Duration>) -> Self {
        LogStore {
            bytes: Mutex::new(Vec::new()),
            base: AtomicU64::new(base),
            flush_latency,
            flushes: AtomicU64::new(0),
            fault: Mutex::new(None),
        }
    }

    /// Arms the lying-device fault. Must be set before the crash append
    /// happens; setting it again replaces the previous plan.
    pub fn set_fault(&self, config: LogFault) {
        *self.fault.lock() = Some(LogFaultState {
            rng: FaultRng::new(config.seed),
            config,
            appends: 0,
            dead: false,
        });
    }

    /// `true` once the armed fault has fired (the device stopped persisting).
    pub fn fault_tripped(&self) -> bool {
        self.fault.lock().as_ref().is_some_and(|s| s.dead)
    }

    /// Appends the concatenation of `parts` as one device write, paying the
    /// configured device latency once. (Parts, so a flusher can hand over
    /// the two halves of a wrapped ring range without joining them first.)
    pub fn append(&self, parts: &[&[u8]]) {
        if let Some(lat) = self.flush_latency {
            let start = std::time::Instant::now();
            while start.elapsed() < lat {
                std::hint::spin_loop();
            }
        }
        self.flushes.fetch_add(1, Ordering::Relaxed);
        let mut fault = self.fault.lock();
        if let Some(st) = fault.as_mut() {
            let turn = st.appends;
            st.appends += 1;
            if st.dead {
                return; // acknowledged, silently dropped
            }
            if turn == st.config.crash_on_append {
                st.dead = true;
                let mut prefix = parts.concat();
                prefix.truncate(st.rng.below(prefix.len() as u64 + 1) as usize);
                if st.config.flip_bit && !prefix.is_empty() {
                    let byte = st.rng.below(prefix.len() as u64) as usize;
                    let bit = st.rng.below(8);
                    prefix[byte] ^= 1 << bit;
                }
                self.bytes.lock().extend_from_slice(&prefix);
                return;
            }
        }
        drop(fault);
        let mut bytes = self.bytes.lock();
        for part in parts {
            bytes.extend_from_slice(part);
        }
    }

    /// Truncates the persisted stream to its first `keep` bytes (direct
    /// damage for torture tests; `keep` past the end is a no-op).
    pub fn truncate_to(&self, keep: usize) {
        let mut bytes = self.bytes.lock();
        if keep < bytes.len() {
            bytes.truncate(keep);
        }
    }

    /// Flips bit `bit` of the byte at stream offset `offset` (absolute LSN).
    /// Out-of-range offsets are a no-op.
    pub fn flip_bit(&self, offset: Lsn, bit: u8) {
        let mut bytes = self.bytes.lock();
        let idx = offset.saturating_sub(self.base.load(Ordering::Relaxed)) as usize;
        if let Some(b) = bytes.get_mut(idx) {
            *b ^= 1 << (bit % 8);
        }
    }

    /// Number of bytes actually persisted (with a tripped fault this is less
    /// than the durable LSN the buffer advertises).
    pub fn len(&self) -> u64 {
        self.bytes.lock().len() as u64
    }

    /// `true` if nothing has been persisted yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies durable bytes from stream offset `from`.
    pub fn read_from(&self, from: Lsn) -> Vec<u8> {
        let bytes = self.bytes.lock();
        let skip = from.saturating_sub(self.base.load(Ordering::Relaxed)) as usize;
        bytes[skip.min(bytes.len())..].to_vec()
    }

    /// Copies the persisted tail `[from, end)` together with `from` clamped
    /// into range, or `None` when `from` falls before the store's base — the
    /// prefix was reclaimed and the reader needs a snapshot instead.
    pub fn read_tail(&self, from: Lsn) -> Option<(Vec<u8>, Lsn)> {
        let bytes = self.bytes.lock();
        let base = self.base.load(Ordering::Relaxed);
        if from < base {
            return None;
        }
        let skip = ((from - base) as usize).min(bytes.len());
        Some((bytes[skip..].to_vec(), base + skip as u64))
    }

    /// Discards persisted bytes before stream offset `lsn` and advances the
    /// store's base. `lsn` must sit on a record boundary (the caller — a
    /// checkpoint's `redo_lsn` — guarantees this); offsets at or before the
    /// current base are a no-op, offsets past the persisted end clamp to it.
    pub fn truncate_before(&self, lsn: Lsn) {
        let mut bytes = self.bytes.lock();
        let base = self.base.load(Ordering::Relaxed);
        if lsn <= base {
            return;
        }
        let drop_n = ((lsn - base) as usize).min(bytes.len());
        bytes.drain(..drop_n);
        self.base.store(base + drop_n as u64, Ordering::Relaxed);
    }

    /// This store's base stream offset.
    pub fn base(&self) -> Lsn {
        self.base.load(Ordering::Relaxed)
    }

    /// Number of flush (append) calls — the group-commit metric.
    pub fn flush_count(&self) -> u64 {
        self.flushes.load(Ordering::Relaxed)
    }
}

/// Fixed-capacity byte ring addressed by monotonically increasing stream
/// offsets. Concurrent writers fill disjoint ranges; the flusher reads
/// completed prefixes. All range-disjointness is enforced by the owning
/// buffer's allocation protocol.
pub struct Ring {
    data: Box<[UnsafeCell<u8>]>,
    capacity: u64,
}

unsafe impl Send for Ring {}
unsafe impl Sync for Ring {}

impl Ring {
    /// Creates a ring of `capacity` bytes.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        // One zeroed allocation, not `capacity` separate element writes.
        // SAFETY: `UnsafeCell<u8>` is `repr(transparent)` over `u8`, for
        // which all-zero bytes are a valid value.
        let data = unsafe { Box::<[UnsafeCell<u8>]>::new_zeroed_slice(capacity).assume_init() };
        Ring {
            data,
            capacity: capacity as u64,
        }
    }

    /// Ring capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Copies `src` into the ring at stream offset `offset` (at most two
    /// `memcpy`s: before and after the wrap point).
    ///
    /// # Safety
    /// The caller must guarantee that `[offset, offset + src.len())` was
    /// allocated to it exclusively and has not been reclaimed.
    pub unsafe fn write(&self, offset: u64, src: &[u8]) {
        debug_assert!(src.len() as u64 <= self.capacity);
        let cap = self.capacity as usize;
        let pos = (offset % self.capacity) as usize;
        let first = src.len().min(cap - pos);
        let base = self.data.as_ptr() as *mut u8;
        unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), base.add(pos), first);
            std::ptr::copy_nonoverlapping(src.as_ptr().add(first), base, src.len() - first);
        }
    }

    /// Borrows the stream range `[from, to)` in place: the part up to the
    /// wrap point, and the part after it (empty when the range does not
    /// wrap).
    ///
    /// # Safety
    /// The caller must guarantee every byte in the range is completely
    /// written, and that nothing writes to the range while the slices live.
    pub unsafe fn slices(&self, from: u64, to: u64) -> [&[u8]; 2] {
        debug_assert!(to - from <= self.capacity);
        let len = (to - from) as usize;
        let cap = self.capacity as usize;
        let pos = (from % self.capacity) as usize;
        let first = len.min(cap - pos);
        let base = self.data.as_ptr() as *const u8;
        // SAFETY: both ranges lie inside `data` (`pos + first <= cap`,
        // `len - first <= pos`); the caller vouches for their contents.
        unsafe {
            [
                std::slice::from_raw_parts(base.add(pos), first),
                std::slice::from_raw_parts(base, len - first),
            ]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_roundtrip_with_wraparound() {
        let ring = Ring::new(16);
        // Write a 10-byte record at offset 12: wraps around the ring edge.
        let payload: Vec<u8> = (0..10).collect();
        unsafe { ring.write(12, &payload) };
        let [head, tail] = unsafe { ring.slices(12, 22) };
        assert_eq!((head, tail), (&payload[..4], &payload[4..]));
    }

    #[test]
    fn store_append_and_read() {
        let store = LogStore::new(None);
        store.append(&[b"hello "]);
        store.append(&[b"log"]);
        assert_eq!(store.read_from(LOG_START), b"hello log");
        assert_eq!(store.read_from(LOG_START + 6), b"log");
        assert_eq!(store.flush_count(), 2);
    }

    #[test]
    fn lying_device_drops_appends_after_crash() {
        let store = LogStore::new(None);
        store.append(&[b"aaaa"]);
        store.set_fault(LogFault { seed: 5, crash_on_append: 0, flip_bit: false });
        store.append(&[b"bb", b"bb"]); // crash append: only a prefix persists
        assert!(store.fault_tripped());
        store.append(&[b"cccc"]); // acked, dropped
        let persisted = store.read_from(LOG_START);
        assert!(persisted.len() <= 8, "nothing after the crash persists");
        assert!(persisted.starts_with(b"aaaa"));
        assert!(b"bbbb".starts_with(&persisted[4..]), "crash append kept a prefix");
        // The device still *acknowledged* three appends.
        assert_eq!(store.flush_count(), 3);
    }

    #[test]
    fn direct_damage_helpers() {
        let store = LogStore::new(None);
        store.append(&[b"hello log"]);
        store.flip_bit(LOG_START, 0);
        assert_eq!(store.read_from(LOG_START)[0], b'h' ^ 1);
        store.truncate_to(4);
        assert_eq!(store.len(), 4);
        store.truncate_to(100); // past the end: no-op
        assert_eq!(store.len(), 4);
    }

    #[test]
    fn store_latency_paid_per_flush() {
        let store = LogStore::new(Some(Duration::from_micros(300)));
        let t = std::time::Instant::now();
        store.append(&[b"x"]);
        assert!(t.elapsed() >= Duration::from_micros(300));
    }
}

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
use std::collections::VecDeque;
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

impl LogFaultState {
    /// The crash append: trips the device and returns the seeded-random
    /// prefix of `parts` it still persists, one bit flipped if so armed.
    fn tear(&mut self, parts: &[&[u8]]) -> Vec<u8> {
        self.dead = true;
        let mut prefix = parts.concat();
        prefix.truncate(self.rng.below(prefix.len() as u64 + 1) as usize);
        if self.config.flip_bit && !prefix.is_empty() {
            let byte = self.rng.below(prefix.len() as u64) as usize;
            let bit = self.rng.below(8);
            prefix[byte] ^= 1 << bit;
        }
        prefix
    }
}

/// Bytes in one log-store segment.
pub const SEGMENT_BYTES: usize = 1 << 20;

/// Segments of log past the store's base at which the store raises its
/// recycle flag ([`LogStore::claim_recycle`]): the engine's checkpoint
/// schedule then checkpoints and hands the dead prefix back.
pub const RECYCLE_SEGMENTS: usize = 64;

/// [`LogStore`]'s recycle word: the flag is raised.
const RAISED: Lsn = 0;
/// [`LogStore`]'s recycle word: a caller claimed the raised flag.
const CLAIMED: Lsn = Lsn::MAX;

/// Everything a [`LogStore`] guards with its one mutex.
struct Segments {
    /// The first `live` segments hold the log, oldest first: every one but
    /// the last is full, and the first one's bytes before `head` were
    /// reclaimed. The rest are emptied segments, their memory kept — the
    /// free list later appends take from before allocating.
    ring: VecDeque<Vec<u8>>,
    live: usize,
    /// Offset of the base's byte in the first segment.
    head: usize,
    fault: Option<Box<LogFaultState>>,
}

impl Segments {
    /// Bytes held past the base.
    fn len(&self, seg: usize) -> usize {
        match self.live {
            0 => 0,
            n => (n - 1) * seg + self.ring[n - 1].len() - self.head,
        }
    }

    /// Copies `src` in after the last byte, opening a free segment (or a
    /// new one) whenever the last fills. Old bytes never move.
    fn push(&mut self, mut src: &[u8], seg: usize) {
        while !src.is_empty() {
            if self.live == 0 || self.ring[self.live - 1].len() == seg {
                if self.live == self.ring.len() {
                    self.ring.push_back(Vec::with_capacity(seg));
                }
                self.live += 1;
            }
            let last = &mut self.ring[self.live - 1];
            let n = src.len().min(seg - last.len());
            last.extend_from_slice(&src[..n]);
            src = &src[n..];
        }
    }

    /// Copies `len` bytes starting `skip` bytes past the base.
    fn copy(&self, skip: usize, len: usize, seg: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let (mut at, end) = (self.head + skip, self.head + skip + len);
        while at < end {
            let off = at % seg;
            let n = (end - at).min(seg - off);
            out.extend_from_slice(&self.ring[at / seg][off..off + n]);
            at += n;
        }
        out
    }
}

/// Append-only durable destination shared by all buffer implementations:
/// fixed [`SEGMENT_BYTES`] segments behind one mutex. An append copies into
/// the open segment and never moves or reallocates older bytes; reclaiming
/// a prefix rotates whole segments onto the free list that later appends
/// reuse, so a log the engine keeps truncating writes into memory already
/// faulted in.
pub struct LogStore {
    state: Mutex<Segments>,
    /// Stream offset of the first byte still held in this store. Starts at
    /// the log's creation base and advances when [`LogStore::truncate_before`]
    /// reclaims a checkpointed prefix. Only mutated under the `state` lock.
    base: AtomicU64,
    segment_bytes: usize,
    /// The recycle flag and its trigger in one word: [`RAISED`],
    /// [`CLAIMED`], or else the stream end at which an append raises it.
    /// Moved off `RAISED` without the lock, to it only under the lock.
    recycle: AtomicU64,
    /// Artificial device latency paid once per flush call.
    flush_latency: Option<Duration>,
    flushes: AtomicU64,
}

impl LogStore {
    /// Creates a store with zero flush latency starting at [`LOG_START`].
    pub fn new(flush_latency: Option<Duration>) -> Self {
        Self::new_at(LOG_START, flush_latency)
    }

    /// Creates a store whose first byte has stream offset `base`.
    pub fn new_at(base: Lsn, flush_latency: Option<Duration>) -> Self {
        Self::with_segments(base, SEGMENT_BYTES, flush_latency)
    }

    /// A store of `segment_bytes` segments (small ones make segment edges
    /// testable); its recycle flag rises at [`RECYCLE_SEGMENTS`] of them.
    pub(crate) fn with_segments(base: Lsn, segment_bytes: usize, flush_latency: Option<Duration>) -> Self {
        assert!(segment_bytes > 0);
        LogStore {
            state: Mutex::new(Segments { ring: VecDeque::new(), live: 0, head: 0, fault: None }),
            base: AtomicU64::new(base),
            segment_bytes,
            recycle: AtomicU64::new(base + (segment_bytes * RECYCLE_SEGMENTS) as u64),
            flush_latency,
            flushes: AtomicU64::new(0),
        }
    }

    /// Arms the lying-device fault. Must be set before the crash append
    /// happens; setting it again replaces the previous plan.
    pub fn set_fault(&self, config: LogFault) {
        self.state.lock().fault = Some(Box::new(LogFaultState {
            rng: FaultRng::new(config.seed),
            config,
            appends: 0,
            dead: false,
        }));
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
        let seg = self.segment_bytes;
        let mut st = self.state.lock();
        let torn = match st.fault.as_mut() {
            Some(f) => {
                let turn = f.appends;
                f.appends += 1;
                if f.dead {
                    return; // acknowledged, silently dropped
                }
                (turn == f.config.crash_on_append).then(|| f.tear(parts))
            }
            None => None,
        };
        match torn {
            Some(prefix) => st.push(&prefix, seg),
            None => parts.iter().for_each(|part| st.push(part, seg)),
        }
        let end = self.base.load(Ordering::Relaxed) + st.len(seg) as u64;
        let due = self.recycle.load(Ordering::Relaxed);
        if due != RAISED && end >= due {
            self.recycle.store(RAISED, Ordering::Relaxed);
        }
    }

    /// Truncates the persisted stream to its first `keep` bytes (direct
    /// damage for torture tests; `keep` past the end is a no-op).
    pub fn truncate_to(&self, keep: usize) {
        let seg = self.segment_bytes;
        let mut st = self.state.lock();
        if keep >= st.len(seg) {
            return;
        }
        let end = st.head + keep;
        let kept = end.div_ceil(seg);
        let live = st.live;
        st.ring.range_mut(kept..live).for_each(Vec::clear);
        st.live = kept;
        if kept > 0 {
            st.ring[kept - 1].truncate(end - (kept - 1) * seg);
        }
    }

    /// Flips bit `bit` of the byte at stream offset `offset` (absolute LSN).
    /// Out-of-range offsets are a no-op.
    pub fn flip_bit(&self, offset: Lsn, bit: u8) {
        let seg = self.segment_bytes;
        let mut st = self.state.lock();
        let idx = offset.saturating_sub(self.base.load(Ordering::Relaxed)) as usize;
        if idx < st.len(seg) {
            let at = st.head + idx;
            st.ring[at / seg][at % seg] ^= 1 << (bit % 8);
        }
    }

    /// Number of bytes actually persisted past the base (with a tripped
    /// fault this is less than the durable LSN the buffer advertises).
    pub fn len(&self) -> u64 {
        self.state.lock().len(self.segment_bytes) as u64
    }

    /// `true` if nothing has been persisted yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies durable bytes from stream offset `from`.
    pub fn read_from(&self, from: Lsn) -> Vec<u8> {
        let seg = self.segment_bytes;
        let st = self.state.lock();
        let len = st.len(seg);
        let skip = (from.saturating_sub(self.base.load(Ordering::Relaxed)) as usize).min(len);
        st.copy(skip, len - skip, seg)
    }

    /// Copies at most `cap` bytes of the persisted tail `[from, end)`
    /// together with `from` clamped into range, or `None` when `from` falls
    /// before the store's base — the prefix was reclaimed and the reader
    /// needs a snapshot instead.
    pub fn read_tail(&self, from: Lsn, cap: usize) -> Option<(Vec<u8>, Lsn)> {
        let seg = self.segment_bytes;
        let st = self.state.lock();
        let base = self.base.load(Ordering::Relaxed);
        if from < base {
            return None;
        }
        let len = st.len(seg);
        let skip = ((from - base) as usize).min(len);
        Some((st.copy(skip, (len - skip).min(cap), seg), base + skip as u64))
    }

    /// Discards persisted bytes before stream offset `lsn` and advances the
    /// store's base, rotating every wholly reclaimed segment onto the free
    /// list. `lsn` must sit on a record boundary (the caller — a
    /// checkpoint's `redo_lsn` — guarantees this); offsets at or before the
    /// current base are a no-op, offsets past the persisted end clamp to it.
    pub fn truncate_before(&self, lsn: Lsn) {
        let seg = self.segment_bytes;
        let mut st = self.state.lock();
        let base = self.base.load(Ordering::Relaxed);
        if lsn <= base {
            return;
        }
        let drop_n = ((lsn - base) as usize).min(st.len(seg));
        st.head += drop_n;
        while st.head >= seg {
            let mut dead = st.ring.pop_front().expect("a wholly reclaimed segment");
            dead.clear();
            st.ring.push_back(dead);
            st.live -= 1;
            st.head -= seg;
        }
        self.base.store(base + drop_n as u64, Ordering::Relaxed);
    }

    /// Claims the recycle flag, raised once [`RECYCLE_SEGMENTS`] of log sit
    /// past the base. Of all callers racing for one raise, exactly one gets
    /// `true` and owes [`LogStore::finish_recycle`]; while the flag is down
    /// a call is one relaxed load, cheap enough for every commit.
    #[inline]
    pub fn claim_recycle(&self) -> bool {
        self.recycle.load(Ordering::Relaxed) == RAISED
            && self.recycle.compare_exchange(RAISED, CLAIMED, Ordering::Relaxed, Ordering::Relaxed).is_ok()
    }

    /// Ends a claimed recycle and re-arms the flag: it rises again once the
    /// log past the base reaches the threshold anew, and never less than
    /// one segment past today's end, so a redo floor held back by a long
    /// transaction costs one checkpoint a segment rather than one a commit.
    pub fn finish_recycle(&self) {
        let seg = self.segment_bytes;
        let st = self.state.lock();
        let base = self.base.load(Ordering::Relaxed);
        let end = base + st.len(seg) as u64;
        let due = (base + (seg * RECYCLE_SEGMENTS) as u64).max(end + seg as u64);
        self.recycle.store(due, Ordering::Relaxed);
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
    use proptest::prelude::*;

    impl LogStore {
        /// `true` once the armed fault has fired (the device stopped
        /// persisting).
        fn fault_tripped(&self) -> bool {
            self.state.lock().fault.as_ref().is_some_and(|s| s.dead)
        }
    }

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
    fn truncation_recycles_whole_segments() {
        let store = LogStore::with_segments(LOG_START, 16, None);
        let payload: Vec<u8> = (0..100).collect();
        store.append(&[&payload]);
        assert_eq!(store.state.lock().live, 7);
        // 40 bytes in: two whole segments go to the free list, the third
        // keeps its live half.
        store.truncate_before(LOG_START + 40);
        let st = store.state.lock();
        assert_eq!((st.live, st.ring.len(), st.head), (5, 7, 8));
        drop(st);
        assert_eq!(store.read_from(0), &payload[40..]);
        // The next appends open the recycled segments before new ones.
        store.append(&[&payload[..44]]);
        let shape = |store: &LogStore| {
            let st = store.state.lock();
            assert!(st.ring.iter().all(|s| s.capacity() == 16), "an append never grows a segment");
            (st.live, st.ring.len())
        };
        assert_eq!(shape(&store), (7, 7));
        store.append(&[&[0]]);
        assert_eq!(shape(&store), (8, 8));
    }

    #[test]
    fn recycle_flag_rises_once_per_threshold_and_one_caller_claims_it() {
        const SEG: usize = 2;
        const AT: usize = SEG * RECYCLE_SEGMENTS;
        let store = LogStore::with_segments(LOG_START, SEG, None);
        store.append(&[&[0; AT - 1]]);
        assert!(!store.claim_recycle(), "one byte short of the threshold");
        store.append(&[&[0]]);
        assert!(store.claim_recycle());
        assert!(!store.claim_recycle(), "one claim per raise");
        store.append(&[&[0; AT]]);
        assert!(!store.claim_recycle(), "disarmed until the claimed recycle finishes");
        store.truncate_before(LOG_START + 2 * AT as u64 - 8);
        store.finish_recycle();
        // 8 bytes live: the flag rises at the threshold again.
        store.append(&[&[0; AT - 9]]);
        assert!(!store.claim_recycle());
        store.append(&[&[0]]);
        assert!(store.claim_recycle());
        // A floor that cannot move: re-armed one segment past the end.
        store.finish_recycle();
        store.append(&[&[0; SEG - 1]]);
        assert!(!store.claim_recycle());
        store.append(&[&[0]]);
        assert!(store.claim_recycle());
    }

    #[test]
    fn capped_tail_reads_stop_at_the_cap() {
        let store = LogStore::with_segments(LOG_START, 16, None);
        let payload: Vec<u8> = (0..100).collect();
        store.append(&[&payload]);
        assert_eq!(store.read_tail(LOG_START + 10, 30), Some((payload[10..40].to_vec(), LOG_START + 10)));
        assert_eq!(store.read_tail(LOG_START + 90, 30), Some((payload[90..].to_vec(), LOG_START + 90)));
        assert_eq!(store.read_tail(LOG_START + 500, 30), Some((Vec::new(), LOG_START + 100)));
        store.truncate_before(LOG_START + 20);
        assert_eq!(store.read_tail(LOG_START + 19, 30), None);
    }

    /// The store before segments: one `Vec` behind a mutex. The segmented
    /// store must read back exactly what this does after any op tape.
    struct VecModel {
        bytes: Vec<u8>,
        base: Lsn,
        fault: Option<LogFaultState>,
    }

    impl VecModel {
        fn append(&mut self, parts: &[&[u8]]) {
            if let Some(f) = self.fault.as_mut() {
                let turn = f.appends;
                f.appends += 1;
                if f.dead {
                    return;
                }
                if turn == f.config.crash_on_append {
                    let prefix = f.tear(parts);
                    self.bytes.extend_from_slice(&prefix);
                    return;
                }
            }
            parts.iter().for_each(|p| self.bytes.extend_from_slice(p));
        }

        fn truncate_before(&mut self, lsn: Lsn) {
            if lsn > self.base {
                let n = ((lsn - self.base) as usize).min(self.bytes.len());
                self.bytes.drain(..n);
                self.base += n as u64;
            }
        }

        fn flip_bit(&mut self, offset: Lsn, bit: u8) {
            if let Some(b) = self.bytes.get_mut(offset.saturating_sub(self.base) as usize) {
                *b ^= 1 << (bit % 8);
            }
        }

        fn read_tail(&self, from: Lsn, cap: usize) -> Option<(Vec<u8>, Lsn)> {
            let skip = (from.checked_sub(self.base)? as usize).min(self.bytes.len());
            let end = skip + (self.bytes.len() - skip).min(cap);
            Some((self.bytes[skip..end].to_vec(), self.base + skip as u64))
        }
    }

    #[derive(Debug, Clone)]
    enum StoreOp {
        Append(Vec<Vec<u8>>),
        TruncateBefore(u64),
        TruncateTo(usize),
        FlipBit(u64, u8),
        ReadFrom(u64),
        ReadTail(u64, usize),
        ArmFault(u64, u64, bool),
    }

    fn arb_store_op() -> impl Strategy<Value = StoreOp> {
        // Offsets are relative to the store's base and run a little past
        // its end; `ReadFrom` and `FlipBit` also reach below the base.
        let part = prop::collection::vec(any::<u8>(), 0..40);
        prop_oneof![
            prop::collection::vec(part, 1..4).prop_map(StoreOp::Append),
            (0u64..120).prop_map(StoreOp::TruncateBefore),
            (0usize..120).prop_map(StoreOp::TruncateTo),
            (0u64..120, any::<u8>()).prop_map(|(o, b)| StoreOp::FlipBit(o, b)),
            (0u64..120).prop_map(StoreOp::ReadFrom),
            (0u64..120, 0usize..60).prop_map(|(o, c)| StoreOp::ReadTail(o, c)),
            (any::<u64>(), 0u64..6, proptest::bool::ANY).prop_map(|(s, c, f)| StoreOp::ArmFault(s, c, f)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Random tapes against 1–24 byte segments: appends of up to three
        /// parts cross segment edges, truncations free segments that later
        /// appends reuse, and every read, the length and the base agree
        /// with the plain `Vec` store byte for byte.
        #[test]
        fn segmented_store_matches_a_vec(
            seg in 1usize..25,
            ops in prop::collection::vec(arb_store_op(), 1..80),
        ) {
            let store = LogStore::with_segments(LOG_START, seg, None);
            let mut model = VecModel { bytes: Vec::new(), base: LOG_START, fault: None };
            for op in ops {
                let at = |rel: u64| (model.base + rel).saturating_sub(20);
                match op {
                    StoreOp::Append(parts) => {
                        let parts: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
                        store.append(&parts);
                        model.append(&parts);
                    }
                    StoreOp::TruncateBefore(rel) => {
                        store.truncate_before(at(rel));
                        model.truncate_before(at(rel));
                    }
                    StoreOp::TruncateTo(keep) => {
                        store.truncate_to(keep);
                        model.bytes.truncate(keep);
                    }
                    StoreOp::FlipBit(rel, bit) => {
                        store.flip_bit(at(rel), bit);
                        model.flip_bit(at(rel), bit);
                    }
                    StoreOp::ReadFrom(rel) => {
                        let skip = at(rel).saturating_sub(model.base) as usize;
                        prop_assert_eq!(store.read_from(at(rel)), model.bytes[skip.min(model.bytes.len())..]);
                    }
                    StoreOp::ReadTail(rel, cap) => {
                        prop_assert_eq!(store.read_tail(at(rel), cap), model.read_tail(at(rel), cap));
                        prop_assert_eq!(store.read_tail(at(rel), usize::MAX), model.read_tail(at(rel), usize::MAX));
                    }
                    StoreOp::ArmFault(seed, crash_on_append, flip_bit) => {
                        let config = LogFault { seed, crash_on_append, flip_bit };
                        store.set_fault(config);
                        model.fault = Some(LogFaultState { rng: FaultRng::new(seed), config, appends: 0, dead: false });
                    }
                }
                prop_assert_eq!((store.len(), store.base()), (model.bytes.len() as u64, model.base));
                let st = store.state.lock();
                prop_assert!(st.ring.range(..st.live.saturating_sub(1)).all(|s| s.len() == seg), "only the last segment is open");
                prop_assert!(st.ring.range(st.live..).all(Vec::is_empty), "free segments are empty");
                prop_assert!(st.ring.iter().all(|s| s.capacity() == seg), "an append never grows a segment");
                prop_assert!(st.head < seg);
            }
            prop_assert_eq!(store.read_from(0), model.bytes);
        }
    }

    #[test]
    fn store_latency_paid_per_flush() {
        let store = LogStore::new(Some(Duration::from_micros(300)));
        let t = std::time::Instant::now();
        store.append(&[b"x"]);
        assert!(t.elapsed() >= Duration::from_micros(300));
    }
}

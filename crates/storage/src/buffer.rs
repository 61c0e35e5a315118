//! Buffer pool: a dense frame table, page memory materialized in chunks on
//! first use, clock eviction, pin counts, frame latches.
//!
//! A frame's bookkeeping (page id, pin count, dirty bit, clock reference bit)
//! sits in a frame table of 16 B a frame, apart from its page: the clock sweep
//! and a pin's bookkeeping touch only that table, and four frames share a
//! cache line. Page memory is held in chunks of `CHUNK` frames (2 MiB), each
//! one allocation, formatted the first time `pin` hands out one of its frames.
//! The clock takes never-used frames in index order, so a pool that never
//! fills pays only for the chunks it has used, and opening a database formats
//! no page at all.
//!
//! Each frame guards its page with a reader–writer lock, so page accesses
//! from different worker threads proceed in parallel unless they touch the
//! same page — the latching granularity Shore-MT uses. The page table and the
//! clock hand live behind a single mutex; on a memory-resident working set
//! (the common case here) that mutex is only touched on pin/unpin, and the
//! benchmark harness can quantify its contention via [`PoolStats`].

use crate::disk::PageStore;
use crate::page::Page;
use crate::rid::PageId;
use crate::{Result, StorageError};
use esdb_sync::IntMap;
use esdb_sync::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

const NO_PAGE: u64 = u64::MAX;

/// Frames per chunk of page memory (256 × 8 KiB = 2 MiB). A chunk is one
/// allocation: a box per frame would add an allocation to every transaction
/// that first touches a frame.
const CHUNK: usize = 256;

/// One frame's entry in the frame table; its page lives in a chunk.
struct Frame {
    page_id: AtomicU64,
    pin: AtomicU32,
    dirty: AtomicBool,
    refbit: AtomicBool,
}

const _: () = assert!(std::mem::size_of::<Frame>() == 16);

/// The pages of up to `CHUNK` consecutive frames.
type Chunk = Box<[RwLock<Page>]>;

struct MapState {
    table: IntMap<PageId, usize>,
    hand: usize,
}

/// Buffer pool traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Pins that found the page resident.
    pub hits: u64,
    /// Pins that required a disk read.
    pub misses: u64,
    /// Dirty pages written back during eviction.
    pub writebacks: u64,
    /// Transient device errors absorbed by retry-with-backoff.
    pub io_retries: u64,
}

/// Attempts per device operation before a transient error is surfaced.
pub const IO_ATTEMPTS: u32 = 8;

/// Callback enforcing the WAL rule: invoked with a dirty page's LSN before
/// the page is written back; must not return until the log is durable up to
/// that LSN.
pub type LsnBarrier = Box<dyn Fn(u64) + Send + Sync>;

/// A fixed-capacity page cache in front of a [`PageStore`].
pub struct BufferPool {
    frames: Box<[Frame]>,
    /// Page memory of frames `i * CHUNK ..`, built on first use; the last
    /// chunk holds only the frames the capacity leaves it.
    chunks: Box<[OnceLock<Chunk>]>,
    map: Mutex<MapState>,
    disk: Arc<dyn PageStore>,
    lsn_barrier: RwLock<Option<LsnBarrier>>,
    hits: AtomicU64,
    misses: AtomicU64,
    writebacks: AtomicU64,
    io_retries: AtomicU64,
}

impl BufferPool {
    /// Creates a pool with `capacity` frames over `disk`.
    pub fn new(capacity: usize, disk: Arc<dyn PageStore>) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        let frames = (0..capacity)
            .map(|_| Frame {
                page_id: AtomicU64::new(NO_PAGE),
                pin: AtomicU32::new(0),
                dirty: AtomicBool::new(false),
                refbit: AtomicBool::new(false),
            })
            .collect();
        BufferPool {
            frames,
            chunks: (0..capacity.div_ceil(CHUNK)).map(|_| OnceLock::new()).collect(),
            map: Mutex::new(MapState {
                table: IntMap::default(),
                hand: 0,
            }),
            disk,
            lsn_barrier: RwLock::new(None),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writebacks: AtomicU64::new(0),
            io_retries: AtomicU64::new(0),
        }
    }

    /// Reads `id` from the store, retrying transient errors with bounded
    /// exponential backoff. Non-transient errors surface immediately.
    fn read_retrying(&self, id: PageId, out: &mut Page) -> Result<()> {
        let mut backoff = esdb_sync::Backoff::new();
        // Started lazily: the no-error path pays nothing.
        let mut retry_wait = None;
        for attempt in 1..=IO_ATTEMPTS {
            match self.disk.read(id, out) {
                Err(StorageError::TransientIo { .. }) if attempt < IO_ATTEMPTS => {
                    self.io_retries.fetch_add(1, Ordering::Relaxed);
                    retry_wait
                        .get_or_insert_with(|| esdb_obs::wait_timer(esdb_obs::WaitClass::IoRetry));
                    backoff.pause();
                }
                other => return other,
            }
        }
        unreachable!("loop returns on the last attempt")
    }

    /// Writes `page` to the store with the same retry policy as
    /// [`BufferPool::read_retrying`]. A retried torn write is harmless: the
    /// successful attempt rewrites the full page image.
    fn write_retrying(&self, id: PageId, page: &Page) -> Result<()> {
        let mut backoff = esdb_sync::Backoff::new();
        let mut retry_wait = None;
        for attempt in 1..=IO_ATTEMPTS {
            match self.disk.write(id, page) {
                Err(StorageError::TransientIo { .. }) if attempt < IO_ATTEMPTS => {
                    self.io_retries.fetch_add(1, Ordering::Relaxed);
                    retry_wait
                        .get_or_insert_with(|| esdb_obs::wait_timer(esdb_obs::WaitClass::IoRetry));
                    backoff.pause();
                }
                other => return other,
            }
        }
        unreachable!("loop returns on the last attempt")
    }

    /// Installs the write-ahead-logging barrier: before any dirty page is
    /// written back, `barrier(page_lsn)` runs and must make the log durable
    /// up to that LSN (steal-safe recovery depends on it).
    pub fn set_lsn_barrier(&self, barrier: LsnBarrier) {
        *self.lsn_barrier.write() = Some(barrier);
    }

    fn wal_fence(&self, lsn: u64) {
        if lsn != 0 {
            if let Some(b) = self.lsn_barrier.read().as_ref() {
                b(lsn);
            }
        }
    }

    /// Frame `idx`'s page, materializing its chunk on first use.
    fn page(&self, idx: usize) -> &RwLock<Page> {
        let chunk = idx / CHUNK;
        let pages = self.chunks[chunk].get_or_init(|| {
            let len = CHUNK.min(self.frames.len() - chunk * CHUNK);
            (0..len).map(|_| RwLock::new(Page::new())).collect()
        });
        &pages[idx % CHUNK]
    }

    /// Chunks of page memory built so far.
    #[cfg(test)]
    fn materialized_chunks(&self) -> usize {
        self.chunks.iter().filter(|c| c.get().is_some()).count()
    }

    /// Number of frames.
    pub fn capacity(&self) -> usize {
        self.frames.len()
    }

    /// The underlying page store.
    pub fn disk(&self) -> &Arc<dyn PageStore> {
        &self.disk
    }

    /// Allocates a fresh page on the store and pins it. The page is
    /// formatted in its frame, not read from the store; it still counts as a
    /// miss.
    pub fn new_page(&self) -> Result<(PageId, PinnedPage<'_>)> {
        let id = self.disk.allocate();
        let pin = self.pin_or_format(id, true)?;
        Ok((id, pin))
    }

    /// Pins page `id` into a frame, reading it from the store on a miss.
    pub fn pin(&self, id: PageId) -> Result<PinnedPage<'_>> {
        self.pin_or_format(id, false)
    }

    /// [`BufferPool::pin`]; with `fresh`, a miss formats the frame instead
    /// of reading the store.
    fn pin_or_format(&self, id: PageId, fresh: bool) -> Result<PinnedPage<'_>> {
        let mut map = self.map.lock();
        if let Some(&idx) = map.table.get(&id) {
            let frame = &self.frames[idx];
            frame.pin.fetch_add(1, Ordering::Relaxed);
            frame.refbit.store(true, Ordering::Relaxed);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(PinnedPage { frame, page: self.page(idx) });
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let miss_start = esdb_obs::enabled().then(std::time::Instant::now);
        let idx = self.find_victim(&mut map)?;

        // Evict the old occupant (unpinned by construction).
        let frame = &self.frames[idx];
        let data = self.page(idx);
        let old_id = frame.page_id.load(Ordering::Relaxed);
        if old_id != NO_PAGE {
            map.table.remove(&old_id);
            if frame.dirty.swap(false, Ordering::Relaxed) {
                let page = data.read();
                self.wal_fence(page.lsn());
                self.write_retrying(old_id, &page)?;
                self.writebacks.fetch_add(1, Ordering::Relaxed);
            }
        }

        // Load the new page.
        {
            let mut page = data.write();
            if fresh {
                page.format();
            } else {
                self.read_retrying(id, &mut page)?;
            }
        }
        frame.page_id.store(id, Ordering::Relaxed);
        frame.pin.store(1, Ordering::Relaxed);
        frame.refbit.store(true, Ordering::Relaxed);
        map.table.insert(id, idx);
        if let Some(start) = miss_start {
            esdb_obs::record_component(
                esdb_obs::Component::PoolMiss,
                start.elapsed().as_nanos() as u64,
            );
        }
        Ok(PinnedPage { frame, page: data })
    }

    /// Clock sweep over the frame table; two full passes give every
    /// referenced frame a second chance before declaring the pool exhausted.
    /// A never-used frame is neither pinned nor referenced, and the hand
    /// starts at frame 0 and moves one frame per victim, so until the pool
    /// fills the victims are frames 0, 1, 2, … in order and only their chunks
    /// are materialized.
    fn find_victim(&self, map: &mut MapState) -> Result<usize> {
        let n = self.frames.len();
        for _ in 0..2 * n {
            let idx = map.hand;
            map.hand = (map.hand + 1) % n;
            let frame = &self.frames[idx];
            if frame.pin.load(Ordering::Relaxed) != 0 {
                continue;
            }
            if frame.refbit.swap(false, Ordering::Relaxed) {
                continue;
            }
            return Ok(idx);
        }
        Err(StorageError::PoolExhausted)
    }

    /// Retries a whole-batch submission with the same backoff policy as the
    /// single-page paths. Rewriting full page images is idempotent, so
    /// retrying a batch whose prefix landed is harmless.
    fn write_batch_retrying(&self, batch: &[(PageId, &Page)]) -> Result<()> {
        let mut backoff = esdb_sync::Backoff::new();
        let mut retry_wait = None;
        for attempt in 1..=IO_ATTEMPTS {
            match self.disk.write_batch(batch) {
                Err(StorageError::TransientIo { .. }) if attempt < IO_ATTEMPTS => {
                    self.io_retries.fetch_add(1, Ordering::Relaxed);
                    retry_wait
                        .get_or_insert_with(|| esdb_obs::wait_timer(esdb_obs::WaitClass::IoRetry));
                    backoff.pause();
                }
                other => return other,
            }
        }
        unreachable!("loop returns on the last attempt")
    }

    /// Writes back every dirty page as **one vectored submission**
    /// ([`PageStore::write_batch`]): a single WAL fence covering the highest
    /// dirty-page LSN, then one batched device round trip, instead of a
    /// fence + write per page. Pages stay resident.
    pub fn flush_all(&self) -> Result<()> {
        let _map = self.map.lock();
        let mut guards: Vec<(PageId, RwLockReadGuard<'_, Page>)> = Vec::new();
        let mut max_lsn = 0u64;
        for (idx, frame) in self.frames.iter().enumerate() {
            let id = frame.page_id.load(Ordering::Relaxed);
            if id != NO_PAGE && frame.dirty.swap(false, Ordering::Relaxed) {
                let page = self.page(idx).read();
                max_lsn = max_lsn.max(page.lsn());
                guards.push((id, page));
            }
        }
        if guards.is_empty() {
            return Ok(());
        }
        // One fence bounds every page in the batch: the log is durable up to
        // the newest dirty LSN before any page image hits the store.
        self.wal_fence(max_lsn);
        let batch: Vec<(PageId, &Page)> = guards.iter().map(|(id, g)| (*id, &**g)).collect();
        self.write_batch_retrying(&batch)?;
        self.writebacks.fetch_add(batch.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Traffic counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writebacks: self.writebacks.load(Ordering::Relaxed),
            io_retries: self.io_retries.load(Ordering::Relaxed),
        }
    }
}

/// A pinned page: the frame cannot be evicted while this guard lives.
///
/// Reading or writing the page content still requires taking the frame latch
/// via [`PinnedPage::read`] / [`PinnedPage::write`]; pin and latch are
/// deliberately separate, as in any real buffer manager. The frame's page is
/// resolved once, at pin time, so the latch calls do no chunk lookup.
pub struct PinnedPage<'a> {
    frame: &'a Frame,
    page: &'a RwLock<Page>,
}

impl std::fmt::Debug for PinnedPage<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PinnedPage").field("page", &self.page_id()).finish()
    }
}

impl PinnedPage<'_> {
    /// The id of the pinned page.
    pub fn page_id(&self) -> PageId {
        self.frame.page_id.load(Ordering::Relaxed)
    }

    /// Takes the frame latch in shared mode.
    pub fn read(&self) -> RwLockReadGuard<'_, Page> {
        self.page.read()
    }

    /// Takes the frame latch in exclusive mode and marks the page dirty.
    pub fn write(&self) -> RwLockWriteGuard<'_, Page> {
        let guard = self.page.write();
        self.frame.dirty.store(true, Ordering::Relaxed);
        guard
    }
}

impl<'a> PinnedPage<'a> {
    /// Takes the frame latch in exclusive mode and keeps it, with the pin,
    /// for as long as the returned guard lives.
    pub fn into_write(self) -> PinnedPageMut<'a> {
        let lock: &'a RwLock<Page> = self.page;
        PinnedPageMut { page: lock.write(), pin: self }
    }
}

/// A pinned page held under its exclusive frame latch — a bulk load's open
/// page, filled a page at a time. A mutable access marks the page dirty.
pub struct PinnedPageMut<'a> {
    // Declared first, so the latch is released before the pin.
    page: RwLockWriteGuard<'a, Page>,
    pin: PinnedPage<'a>,
}

impl PinnedPageMut<'_> {
    /// The id of the pinned page.
    pub fn page_id(&self) -> PageId {
        self.pin.page_id()
    }
}

impl std::ops::Deref for PinnedPageMut<'_> {
    type Target = Page;

    fn deref(&self) -> &Page {
        &self.page
    }
}

impl std::ops::DerefMut for PinnedPageMut<'_> {
    fn deref_mut(&mut self) -> &mut Page {
        self.pin.frame.dirty.store(true, Ordering::Relaxed);
        &mut self.page
    }
}

impl Drop for PinnedPage<'_> {
    fn drop(&mut self) {
        self.frame.pin.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::InMemoryDisk;

    fn pool(frames: usize) -> (Arc<InMemoryDisk>, BufferPool) {
        let disk = Arc::new(InMemoryDisk::new());
        let pool = BufferPool::new(frames, disk.clone());
        (disk, pool)
    }

    #[test]
    fn pin_hit_after_first_load() {
        let (_disk, pool) = pool(4);
        let (id, first) = pool.new_page().unwrap();
        drop(first);
        let again = pool.pin(id).unwrap();
        assert_eq!(again.page_id(), id);
        let s = pool.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn a_new_page_is_a_miss_that_reads_nothing() {
        let (disk, pool) = pool(2);
        let (id, p) = pool.new_page().unwrap();
        assert!(p.read().as_bytes() == Page::new().as_bytes());
        drop(p);
        let (other, p) = pool.new_page().unwrap();
        drop(p);
        // A third new page evicts one of the first two, which is clean.
        drop(pool.new_page().unwrap());
        assert_eq!(disk.stats().reads, 0, "new pages are formatted, not read");
        assert_eq!(disk.stats().writes, 0, "clean new pages are never written back");
        assert_eq!(pool.stats().misses, 3);
        // The clock evicted the first; pinning it again reads it as new.
        assert!(pool.pin(id).unwrap().read().as_bytes() == Page::new().as_bytes());
        assert_eq!(disk.stats().reads, 1);
        drop(pool.pin(other).unwrap());
    }

    #[test]
    fn a_held_write_marks_dirty_on_change_and_unpins_after_unlatching() {
        let (disk, pool) = pool(1);
        let (id, p) = pool.new_page().unwrap();
        let mut open = p.into_write();
        assert_eq!(open.page_id(), id);
        assert_eq!(pool.new_page().unwrap_err(), StorageError::PoolExhausted, "the open page stays pinned");
        open.insert(b"row").unwrap();
        drop(open);
        // Evicting the page writes it back: the insert marked it dirty.
        drop(pool.new_page().unwrap());
        let mut stored = Page::new();
        disk.read(id, &mut stored).unwrap();
        assert_eq!(stored.get(0).unwrap(), b"row");
    }

    #[test]
    fn writes_survive_eviction() {
        let (_disk, pool) = pool(2);
        let (id, pinned) = pool.new_page().unwrap();
        pinned.write().insert(b"durable").unwrap();
        drop(pinned);

        // Force eviction by cycling more pages than frames.
        for _ in 0..4 {
            let (_, p) = pool.new_page().unwrap();
            drop(p);
        }

        let back = pool.pin(id).unwrap();
        assert_eq!(back.read().get(0).unwrap(), b"durable");
        assert!(pool.stats().writebacks >= 1);
    }

    #[test]
    fn pool_exhausted_when_all_pinned() {
        let (_disk, pool) = pool(2);
        let (_, _a) = pool.new_page().unwrap();
        let (_, _b) = pool.new_page().unwrap();
        let id = pool.disk().allocate();
        assert_eq!(pool.pin(id).unwrap_err(), StorageError::PoolExhausted);
    }

    #[test]
    fn flush_all_persists_without_eviction() {
        let (disk, pool) = pool(4);
        let (id, pinned) = pool.new_page().unwrap();
        pinned.write().insert(b"flushed").unwrap();
        drop(pinned);
        pool.flush_all().unwrap();

        let mut raw = Page::new();
        disk.read(id, &mut raw).unwrap();
        assert_eq!(raw.get(0).unwrap(), b"flushed");
    }

    #[test]
    fn concurrent_pins_of_same_page() {
        let (_disk, pool) = pool(4);
        let (id, p) = pool.new_page().unwrap();
        drop(p);
        let pool = Arc::new(pool);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let pool = Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                for _ in 0..200 {
                    let pin = pool.pin(id).unwrap();
                    let mut page = pin.write();
                    if page.slot_count() == 0 {
                        page.insert(&0u64.to_le_bytes()).unwrap();
                    }
                    let v = u64::from_le_bytes(page.get(0).unwrap().try_into().unwrap());
                    page.update(0, &(v + 1).to_le_bytes());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let pin = pool.pin(id).unwrap();
        let page = pin.read();
        let v = u64::from_le_bytes(page.get(0).unwrap().try_into().unwrap());
        assert_eq!(v, 4 * 200); // the inserting iteration also increments 0 -> 1
    }

    #[test]
    fn transient_io_is_retried_transparently() {
        use crate::fault::{FaultConfig, FaultInjector};
        let disk = Arc::new(InMemoryDisk::new());
        let faulty = Arc::new(FaultInjector::new(
            disk,
            FaultConfig {
                seed: 11,
                read_error_per_10k: 2_500,
                write_error_per_10k: 2_500,
                torn_write_per_10k: 5_000,
                ..FaultConfig::default()
            },
        ));
        let pool = BufferPool::new(2, faulty.clone());
        // Cycle enough pages through a tiny pool that reads and writebacks
        // both hit injected errors; every operation must still succeed.
        let mut ids = Vec::new();
        for i in 0..8u64 {
            let (id, p) = pool.new_page().unwrap();
            p.write().insert(&i.to_le_bytes()).unwrap();
            ids.push(id);
        }
        for (i, id) in ids.iter().enumerate() {
            let pin = pool.pin(*id).unwrap();
            assert_eq!(pin.read().get(0).unwrap(), (i as u64).to_le_bytes());
        }
        assert!(pool.stats().io_retries > 0, "faults were injected and absorbed");
        assert!(faulty.stats().injected_write_errors + faulty.stats().injected_read_errors > 0);
    }

    #[test]
    fn eviction_prefers_unreferenced_frames() {
        let (_disk, pool) = pool(3);
        let (hot, p) = pool.new_page().unwrap();
        drop(p);
        // Touch the hot page between allocations so its refbit stays set.
        for _ in 0..6 {
            let (_, p) = pool.new_page().unwrap();
            drop(p);
            drop(pool.pin(hot).unwrap());
        }
        let before = pool.stats().misses;
        drop(pool.pin(hot).unwrap());
        assert_eq!(pool.stats().misses, before, "hot page should still be resident");
    }

    #[test]
    fn first_touch_materializes_only_used_chunks() {
        let (_disk, pool) = pool(4 * CHUNK);
        assert_eq!(pool.materialized_chunks(), 0, "opening formats no page");
        for _ in 0..CHUNK + 1 {
            let (_, p) = pool.new_page().unwrap();
            drop(p);
        }
        assert_eq!(pool.materialized_chunks(), 2);
    }

    #[test]
    fn partial_last_chunk_evicts_and_writes_back() {
        let (_disk, pool) = pool(CHUNK + 3);
        let ids: Vec<PageId> = (0..2 * (CHUNK as u64 + 3))
            .map(|i| {
                let (id, p) = pool.new_page().unwrap();
                p.write().insert(&i.to_le_bytes()).unwrap();
                id
            })
            .collect();
        assert_eq!(pool.materialized_chunks(), 2);
        assert!(pool.stats().writebacks >= CHUNK as u64 + 3, "the first round was evicted dirty");
        for (i, id) in ids.iter().enumerate() {
            let pin = pool.pin(*id).unwrap();
            assert_eq!(pin.read().get(0).unwrap(), (i as u64).to_le_bytes());
        }
    }

    #[test]
    fn concurrent_first_touch_of_one_chunk() {
        const THREADS: u64 = 4;
        const PAGES: u64 = 16;
        let (_disk, pool) = pool(2 * CHUNK);
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (pool, start) = (&pool, &start);
                s.spawn(move || {
                    start.wait();
                    let ids: Vec<PageId> = (0..PAGES)
                        .map(|i| {
                            let (id, p) = pool.new_page().unwrap();
                            p.write().insert(&(t * PAGES + i).to_le_bytes()).unwrap();
                            id
                        })
                        .collect();
                    for (i, id) in ids.into_iter().enumerate() {
                        let pin = pool.pin(id).unwrap();
                        assert_eq!(pin.read().get(0).unwrap(), (t * PAGES + i as u64).to_le_bytes());
                    }
                });
            }
        });
        assert_eq!(pool.materialized_chunks(), 1);
        assert_eq!(pool.stats().misses, THREADS * PAGES);
    }
}

//! Buffer pool: fixed frame array, clock eviction, pin counts, frame latches.
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
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

const NO_PAGE: u64 = u64::MAX;

struct Frame {
    data: RwLock<Page>,
    page_id: AtomicU64,
    pin: AtomicU32,
    dirty: AtomicBool,
    refbit: AtomicBool,
}

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
    frames: Vec<Frame>,
    map: Mutex<MapState>,
    disk: Arc<dyn PageStore>,
    lsn_barrier: parking_lot::RwLock<Option<LsnBarrier>>,
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
                data: RwLock::new(Page::new()),
                page_id: AtomicU64::new(NO_PAGE),
                pin: AtomicU32::new(0),
                dirty: AtomicBool::new(false),
                refbit: AtomicBool::new(false),
            })
            .collect();
        BufferPool {
            frames,
            map: Mutex::new(MapState {
                table: IntMap::default(),
                hand: 0,
            }),
            disk,
            lsn_barrier: parking_lot::RwLock::new(None),
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

    /// Number of frames.
    pub fn capacity(&self) -> usize {
        self.frames.len()
    }

    /// The underlying page store.
    pub fn disk(&self) -> &Arc<dyn PageStore> {
        &self.disk
    }

    /// Allocates a fresh page on the store and pins it.
    pub fn new_page(&self) -> Result<(PageId, PinnedPage<'_>)> {
        let id = self.disk.allocate();
        let pin = self.pin(id)?;
        Ok((id, pin))
    }

    /// Pins page `id` into a frame, reading it from the store on a miss.
    pub fn pin(&self, id: PageId) -> Result<PinnedPage<'_>> {
        let mut map = self.map.lock();
        if let Some(&idx) = map.table.get(&id) {
            self.frames[idx].pin.fetch_add(1, Ordering::Relaxed);
            self.frames[idx].refbit.store(true, Ordering::Relaxed);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(PinnedPage { pool: self, idx });
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let miss_start = esdb_obs::enabled().then(std::time::Instant::now);
        let idx = self.find_victim(&mut map)?;

        // Evict the old occupant (unpinned by construction).
        let frame = &self.frames[idx];
        let old_id = frame.page_id.load(Ordering::Relaxed);
        if old_id != NO_PAGE {
            map.table.remove(&old_id);
            if frame.dirty.swap(false, Ordering::Relaxed) {
                let page = frame.data.read();
                self.wal_fence(page.lsn());
                self.write_retrying(old_id, &page)?;
                self.writebacks.fetch_add(1, Ordering::Relaxed);
            }
        }

        // Load the new page.
        {
            let mut page = frame.data.write();
            self.read_retrying(id, &mut page)?;
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
        Ok(PinnedPage { pool: self, idx })
    }

    /// Clock sweep over the frames; two full passes give every referenced
    /// frame a second chance before declaring the pool exhausted.
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
        for frame in &self.frames {
            let id = frame.page_id.load(Ordering::Relaxed);
            if id != NO_PAGE && frame.dirty.swap(false, Ordering::Relaxed) {
                let page = frame.data.read();
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
/// deliberately separate, as in any real buffer manager.
pub struct PinnedPage<'a> {
    pool: &'a BufferPool,
    idx: usize,
}

impl std::fmt::Debug for PinnedPage<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PinnedPage").field("page", &self.page_id()).finish()
    }
}

impl PinnedPage<'_> {
    /// The id of the pinned page.
    pub fn page_id(&self) -> PageId {
        self.pool.frames[self.idx].page_id.load(Ordering::Relaxed)
    }

    /// Takes the frame latch in shared mode.
    pub fn read(&self) -> RwLockReadGuard<'_, Page> {
        self.pool.frames[self.idx].data.read()
    }

    /// Takes the frame latch in exclusive mode and marks the page dirty.
    pub fn write(&self) -> RwLockWriteGuard<'_, Page> {
        let frame = &self.pool.frames[self.idx];
        let guard = frame.data.write();
        frame.dirty.store(true, Ordering::Relaxed);
        guard
    }
}

impl Drop for PinnedPage<'_> {
    fn drop(&mut self) {
        self.pool.frames[self.idx].pin.fetch_sub(1, Ordering::Relaxed);
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
}

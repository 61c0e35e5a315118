//! Page store abstraction.
//!
//! The engine is main-memory-oriented (like Shore-MT configured with a
//! memory-resident buffer pool), but the buffer pool still talks to a
//! [`PageStore`] so that eviction, write-back, and recovery exercise real
//! code paths. [`InMemoryDisk`] is the standard implementation; its unit tests
//! inject a fixed per-I/O latency to model a slower device.

use crate::page::Page;
use crate::rid::PageId;
use crate::{Result, StorageError};
use esdb_sync::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A flat array of pages with explicit allocation.
pub trait PageStore: Send + Sync {
    /// Allocates a fresh page and returns its id; until it is first
    /// written, the page reads as [`Page::new`] formats it.
    fn allocate(&self) -> PageId;
    /// Copies page `id` into `out`.
    fn read(&self, id: PageId, out: &mut Page) -> Result<()>;
    /// Persists `page` as page `id`.
    fn write(&self, id: PageId, page: &Page) -> Result<()>;
    /// Persists a batch of pages in one submission — the `pwritev` shape:
    /// one device round trip amortized over every page in the batch. The
    /// default implementation degrades to per-page writes, so fault-injecting
    /// stores keep their per-page error model untouched. A failed batch may
    /// have persisted a prefix; callers retry the whole batch (rewriting a
    /// full page image is idempotent).
    fn write_batch(&self, batch: &[(PageId, &Page)]) -> Result<()> {
        for (id, page) in batch {
            self.write(*id, page)?;
        }
        Ok(())
    }
    /// Number of allocated pages.
    fn num_pages(&self) -> u64;
    /// Allocates fresh pages until page `id` exists.
    fn allocate_through(&self, id: PageId) {
        while self.num_pages() <= id {
            self.allocate();
        }
    }
}

/// Counters describing page store traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Pages read.
    pub reads: u64,
    /// Pages written.
    pub writes: u64,
    /// Vectored submissions ([`PageStore::write_batch`] calls that took the
    /// batched path). `writes / batch_writes` is the pages-per-submission
    /// amortization a reactor tick achieves.
    pub batch_writes: u64,
    /// Device latencies paid: one per read, per write and per batch on a
    /// store with injected latency (the unit tests build one), none
    /// without.
    pub latency_payments: u64,
}

/// A heap-resident page store with optional injected latency.
///
/// Allocation only reserves an id: a page's memory is built at its first
/// write, and a read of a page never written returns [`Page::new`]'s bytes.
pub struct InMemoryDisk {
    /// `None` for a page allocated but never written.
    pages: Mutex<Vec<Option<Box<Page>>>>,
    reads: AtomicU64,
    writes: AtomicU64,
    batch_writes: AtomicU64,
    latency_payments: AtomicU64,
    latency: Option<Duration>,
}

impl Default for InMemoryDisk {
    fn default() -> Self {
        Self::new()
    }
}

impl InMemoryDisk {
    /// Creates an empty store with zero-latency I/O.
    pub fn new() -> Self {
        InMemoryDisk {
            pages: Mutex::new(Vec::new()),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            batch_writes: AtomicU64::new(0),
            latency_payments: AtomicU64::new(0),
            latency: None,
        }
    }

    fn pay_latency(&self) {
        if let Some(lat) = self.latency {
            self.latency_payments.fetch_add(1, Ordering::Relaxed);
            // Busy-wait: sleep granularity on most kernels is far coarser
            // than the microsecond-scale latencies experiments sweep.
            let start = std::time::Instant::now();
            while start.elapsed() < lat {
                std::hint::spin_loop();
            }
        }
    }

    /// Traffic counters.
    pub fn stats(&self) -> DiskStats {
        DiskStats {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            batch_writes: self.batch_writes.load(Ordering::Relaxed),
            latency_payments: self.latency_payments.load(Ordering::Relaxed),
        }
    }
}

/// Copies `page` into a stored slot, building the slot's memory at its
/// first write.
fn store(slot: &mut Option<Box<Page>>, page: &Page) {
    match slot {
        Some(dst) => dst.as_bytes_mut().copy_from_slice(page.as_bytes()),
        None => *slot = Some(Box::new(page.clone())),
    }
}

impl PageStore for InMemoryDisk {
    fn allocate(&self) -> PageId {
        let mut pages = self.pages.lock();
        pages.push(None);
        (pages.len() - 1) as PageId
    }

    fn read(&self, id: PageId, out: &mut Page) -> Result<()> {
        self.pay_latency();
        self.reads.fetch_add(1, Ordering::Relaxed);
        let pages = self.pages.lock();
        match pages.get(id as usize).ok_or(StorageError::PageNotFound(id))? {
            Some(page) => out.as_bytes_mut().copy_from_slice(page.as_bytes()),
            None => out.format(),
        }
        Ok(())
    }

    fn write(&self, id: PageId, page: &Page) -> Result<()> {
        self.pay_latency();
        self.writes.fetch_add(1, Ordering::Relaxed);
        let mut pages = self.pages.lock();
        let dst = pages
            .get_mut(id as usize)
            .ok_or(StorageError::PageNotFound(id))?;
        store(dst, page);
        Ok(())
    }

    /// The vectored path: one latency payment and one lock acquisition for
    /// the whole batch — the in-memory analogue of a single `pwritev`
    /// submission — instead of paying both per page.
    fn write_batch(&self, batch: &[(PageId, &Page)]) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        self.pay_latency();
        self.batch_writes.fetch_add(1, Ordering::Relaxed);
        self.writes.fetch_add(batch.len() as u64, Ordering::Relaxed);
        let mut pages = self.pages.lock();
        // Validate every target before copying any byte: a batch either
        // lands whole or reports the bad id without partial effects.
        for (id, _) in batch {
            if pages.get(*id as usize).is_none() {
                return Err(StorageError::PageNotFound(*id));
            }
        }
        for (id, page) in batch {
            store(&mut pages[*id as usize], page);
        }
        Ok(())
    }

    fn num_pages(&self) -> u64 {
        self.pages.lock().len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl InMemoryDisk {
        /// A store that busy-waits `latency` on every read and write.
        fn with_latency(latency: Duration) -> Self {
            InMemoryDisk { latency: Some(latency), ..Self::new() }
        }
    }

    #[test]
    fn allocate_read_write_roundtrip() {
        let disk = InMemoryDisk::new();
        let id = disk.allocate();
        assert_eq!(id, 0);
        let mut page = Page::new();
        page.insert(b"persisted").unwrap();
        page.set_lsn(42);
        disk.write(id, &page).unwrap();

        let mut back = Page::new();
        disk.read(id, &mut back).unwrap();
        assert_eq!(back.get(0).unwrap(), b"persisted");
        assert_eq!(back.lsn(), 42);
    }

    #[test]
    fn a_page_never_written_reads_as_new_and_holds_no_memory() {
        let disk = InMemoryDisk::new();
        let id = disk.allocate();
        assert!(disk.pages.lock()[id as usize].is_none(), "allocation builds no page");
        let mut page = Page::new();
        page.insert(b"stale").unwrap();
        disk.read(id, &mut page).unwrap();
        assert!(page.as_bytes() == Page::new().as_bytes());
        page.insert(b"first write").unwrap();
        disk.write(id, &page).unwrap();
        let mut back = Page::new();
        disk.read(id, &mut back).unwrap();
        assert_eq!(back.get(0).unwrap(), b"first write");
    }

    #[test]
    fn missing_page_errors() {
        let disk = InMemoryDisk::new();
        let mut page = Page::new();
        assert_eq!(
            disk.read(5, &mut page).unwrap_err(),
            StorageError::PageNotFound(5)
        );
        assert_eq!(
            disk.write(5, &page).unwrap_err(),
            StorageError::PageNotFound(5)
        );
    }

    #[test]
    fn stats_count_traffic() {
        let disk = InMemoryDisk::new();
        let id = disk.allocate();
        let mut page = Page::new();
        disk.write(id, &page).unwrap();
        disk.read(id, &mut page).unwrap();
        disk.read(id, &mut page).unwrap();
        let s = disk.stats();
        assert_eq!(s.writes, 1);
        assert_eq!(s.reads, 2);
        assert_eq!(disk.num_pages(), 1);
    }

    #[test]
    fn write_batch_lands_whole_and_counts_once() {
        let disk = InMemoryDisk::new();
        let a = disk.allocate();
        let b = disk.allocate();
        let mut pa = Page::new();
        pa.insert(b"aa").unwrap();
        let mut pb = Page::new();
        pb.insert(b"bb").unwrap();
        disk.write_batch(&[(a, &pa), (b, &pb)]).unwrap();
        let s = disk.stats();
        assert_eq!(s.writes, 2);
        assert_eq!(s.batch_writes, 1, "one vectored submission for the whole batch");
        let mut back = Page::new();
        disk.read(a, &mut back).unwrap();
        assert_eq!(back.get(0).unwrap(), b"aa");
        disk.read(b, &mut back).unwrap();
        assert_eq!(back.get(0).unwrap(), b"bb");
    }

    #[test]
    fn write_batch_validates_before_copying() {
        let disk = InMemoryDisk::new();
        let a = disk.allocate();
        let mut pa = Page::new();
        pa.insert(b"new").unwrap();
        let good = Page::new();
        disk.write(a, &good).unwrap();
        // Page 9 does not exist: the batch must fail without touching page a.
        assert_eq!(
            disk.write_batch(&[(a, &pa), (9, &good)]).unwrap_err(),
            StorageError::PageNotFound(9)
        );
        let mut back = Page::new();
        disk.read(a, &mut back).unwrap();
        assert_eq!(back.slot_count(), 0, "failed batch must not partially apply");
    }

    #[test]
    fn write_batch_latency_is_amortized() {
        let lat = Duration::from_micros(200);
        let disk = InMemoryDisk::with_latency(lat);
        let ids: Vec<_> = (0..8).map(|_| disk.allocate()).collect();
        let page = Page::new();
        let batch: Vec<_> = ids.iter().map(|&id| (id, &page)).collect();
        let start = std::time::Instant::now();
        disk.write_batch(&batch).unwrap();
        let spent = start.elapsed();
        assert!(spent >= lat, "one latency payment is still paid");
        // Counted, not timed: a loaded host can stretch one payment past
        // eight payments' worth of wall-clock time.
        assert_eq!(disk.stats().latency_payments, 1, "but not one payment per page");
        assert_eq!(disk.stats().writes, 8);
        disk.write(ids[0], &page).unwrap();
        assert_eq!(disk.stats().latency_payments, 2, "a single write pays its own");
    }

    #[test]
    fn latency_is_paid() {
        let disk = InMemoryDisk::with_latency(Duration::from_micros(200));
        let id = disk.allocate();
        let page = Page::new();
        let start = std::time::Instant::now();
        disk.write(id, &page).unwrap();
        assert!(start.elapsed() >= Duration::from_micros(200));
    }
}

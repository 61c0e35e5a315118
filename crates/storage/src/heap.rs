//! Heap files: unordered collections of tuples in slotted pages.
//!
//! A heap file owns a list of page ids in the buffer pool's store and keeps a
//! cursor to the page most likely to have free space, so inserts are O(1) in
//! the common case. Every mutation stamps the LSN of the log record
//! describing it into the page header, which is what makes redo idempotent
//! during recovery.
//!
//! **Write-ahead under the latch.** `insert`, `update`, `modify` and
//! `delete` visit their page once — one pin, one exclusive latch — and take
//! the LSN from a caller-supplied closure that runs *under that latch*: the
//! transaction layer appends its log record there (a caller that already
//! holds an LSN just returns it). A dirty page is therefore never visible, to another
//! thread or to write-back, without the LSN of the record that describes it,
//! and the WAL fence always waits for the right prefix of the log. Lock
//! order is page latch → log buffer; the log flusher and the fence never
//! take a page latch, so the nesting cannot cycle.

use crate::buffer::{BufferPool, PinnedPageMut};
use crate::page::{Page, MAX_TUPLE};
use crate::rid::{PageId, Rid};
use crate::{Result, StorageError};
use esdb_sync::Mutex;
use std::sync::Arc;

/// Monotone page-LSN stamp: never regresses an already-higher LSN.
fn stamp(page: &mut Page, lsn: u64) {
    if lsn > page.lsn() {
        page.set_lsn(lsn);
    }
}

/// Fails a tuple no page can hold.
fn check_len(len: usize) -> Result<()> {
    if len > MAX_TUPLE {
        return Err(StorageError::TupleTooLarge { size: len, max: MAX_TUPLE });
    }
    Ok(())
}

/// An unordered tuple container over the buffer pool.
pub struct HeapFile {
    pool: Arc<BufferPool>,
    state: Mutex<HeapState>,
}

struct HeapState {
    pages: Vec<PageId>,
    /// Index into `pages` of the current insertion target.
    cursor: usize,
}

impl HeapFile {
    /// Creates an empty heap file with one initial page.
    pub fn create(pool: Arc<BufferPool>) -> Result<Self> {
        let id = {
            let (id, _pin) = pool.new_page()?;
            id
        };
        Ok(HeapFile {
            pool,
            state: Mutex::new(HeapState {
                pages: vec![id],
                cursor: 0,
            }),
        })
    }

    /// Reconstructs a heap file over pages already on the pool's store, in
    /// heap order — which is ascending page id, because the store allocates
    /// monotonically. The list may be empty: the first insert allocates, and
    /// replay adopts every page a row record names (see
    /// [`HeapFile::replay`]).
    pub fn from_pages(pool: Arc<BufferPool>, pages: Vec<PageId>) -> Self {
        debug_assert!(pages.windows(2).all(|w| w[0] < w[1]), "heap pages ascend: {pages:?}");
        HeapFile {
            pool,
            state: Mutex::new(HeapState { cursor: pages.len().saturating_sub(1), pages }),
        }
    }

    /// Page ids of this file, in order.
    pub fn pages(&self) -> Vec<PageId> {
        self.state.lock().pages.clone()
    }

    /// Places a `len`-byte tuple, which `fill` writes in place, in a page
    /// with room and asks `admit` — under the page latch, before anyone
    /// else can see the tuple — whether it stays: `Some(lsn)` keeps it and
    /// stamps the page, `None` withdraws it. Returns the record id of a
    /// kept tuple.
    pub fn insert(
        &self,
        len: usize,
        fill: impl Fn(&mut [u8]),
        admit: impl FnOnce(Rid) -> Option<u64>,
    ) -> Result<Option<Rid>> {
        check_len(len)?;
        loop {
            // Snapshot the target page, then operate on it without holding
            // the heap mutex so unrelated inserts only collide on page latch.
            let (target, cursor, npages) = {
                let st = self.state.lock();
                (st.pages.get(st.cursor).copied(), st.cursor, st.pages.len())
            };
            if let Some(page_id) = target {
                let pin = self.pool.pin(page_id)?;
                let mut page = pin.write();
                if let Some(slot) = page.insert_with(len, &fill) {
                    let rid = Rid::new(page_id, slot);
                    return Ok(match admit(rid) {
                        Some(lsn) => {
                            stamp(&mut page, lsn);
                            Some(rid)
                        }
                        None => {
                            page.delete(slot);
                            None
                        }
                    });
                }
            }
            // The target was full, or the file has no page yet: advance the
            // cursor or grow the file.
            let mut st = self.state.lock();
            if st.cursor == cursor && st.pages.len() == npages {
                if st.cursor + 1 < st.pages.len() {
                    st.cursor += 1;
                } else {
                    let (new_id, _pin) = self.pool.new_page()?;
                    st.pages.push(new_id);
                    st.cursor = st.pages.len() - 1;
                }
            }
            // Else another thread already advanced/grew; just retry.
        }
    }

    /// Redo and undo at a fixed address: runs `change` on `rid`'s page under
    /// its exclusive latch and stamps `lsn` — unless `gated` (redo) and the
    /// page LSN shows the change already applied. Undo is not gated: it
    /// stamps LSNs from a band of its own, which may lie below the page's.
    /// `change` reports whether the page changed.
    ///
    /// A row record names its page, so replay is also how a heap *grows*
    /// without a log record of its own: a page the file does not hold yet is
    /// adopted first — allocated on the store if the store is shorter, then
    /// inserted into the page list at its sorted position, the insert cursor
    /// staying on its page. Page lists ascend (the store allocates
    /// monotonically), so a follower's heap scans in the primary's order
    /// even when it adopts a page below its last one — one whose earlier
    /// records all belonged to a transaction it skipped as aborted.
    fn replay(&self, rid: Rid, lsn: u64, gated: bool, change: impl FnOnce(&mut Page) -> Result<bool>) -> Result<bool> {
        {
            let mut st = self.state.lock();
            if let Err(at) = st.pages.binary_search(&rid.page) {
                self.pool.disk().allocate_through(rid.page);
                st.pages.insert(at, rid.page);
                if at <= st.cursor && st.pages.len() > 1 {
                    st.cursor += 1;
                }
            }
        }
        let pin = self.pool.pin(rid.page)?;
        let mut page = pin.write();
        if gated && page.lsn() >= lsn {
            return Ok(false);
        }
        let changed = change(&mut page)?;
        stamp(&mut page, lsn);
        Ok(changed)
    }

    /// Places `data` in the empty slot at `rid` — redo of an insert, undo of
    /// a delete (see [`HeapFile::replay`]); `false` if the slot already holds
    /// exactly `data`. A slot holding other bytes is
    /// [`StorageError::RecordNotFound`].
    pub fn insert_at(&self, rid: Rid, data: &[u8], lsn: u64, gated: bool) -> Result<bool> {
        self.replay(rid, lsn, gated, |page| {
            if page.get(rid.slot) == Some(data) {
                return Ok(false);
            }
            // Slot-exact placement: concurrent pre-crash histories can replay
            // in LSN order that differs from original slot-assignment order.
            page.insert_at_slot(rid.slot, data).then_some(true).ok_or(StorageError::RecordNotFound(rid))
        })
    }

    /// Reads the tuple at `rid` in place, under the shared page latch.
    pub fn read<R>(&self, rid: Rid, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        let pin = self.pool.pin(rid.page)?;
        let page = pin.read();
        page.get(rid.slot).map(f).ok_or(StorageError::RecordNotFound(rid))
    }

    /// Copies out the tuple at `rid`.
    pub fn get(&self, rid: Rid) -> Result<Vec<u8>> {
        self.read(rid, <[u8]>::to_vec)
    }

    /// Overwrites the tuple at `rid`. `log` runs under the page latch with
    /// the before-image and returns the LSN to stamp; it is not called
    /// unless the overwrite takes effect.
    pub fn update(&self, rid: Rid, data: &[u8], log: impl FnOnce(&[u8]) -> u64) -> Result<()> {
        let pin = self.pool.pin(rid.page)?;
        let mut page = pin.write();
        let old = page.get(rid.slot).ok_or(StorageError::RecordNotFound(rid))?;
        let lsn = if data.len() <= old.len() {
            // In place, cannot fail: the before-image is logged straight
            // from the page, then overwritten.
            let lsn = log(old);
            page.update(rid.slot, data);
            lsn
        } else {
            let old = old.to_vec();
            if !page.update(rid.slot, data) {
                return Err(StorageError::TupleTooLarge {
                    size: data.len(),
                    max: page.free_space() + old.len(),
                });
            }
            log(&old)
        };
        stamp(&mut page, lsn);
        Ok(())
    }

    /// Changes the live tuple at `rid` in place, its length fixed. `change`
    /// runs under the page latch with the tuple's bytes and returns the LSN
    /// to stamp, or `None` — having changed nothing — to leave the page as
    /// it was. Returns whether the page was stamped.
    pub fn modify(&self, rid: Rid, change: impl FnOnce(&mut [u8]) -> Result<Option<u64>>) -> Result<bool> {
        let pin = self.pool.pin(rid.page)?;
        let mut page = pin.write();
        let tuple = page.get_mut(rid.slot).ok_or(StorageError::RecordNotFound(rid))?;
        let Some(lsn) = change(tuple)? else { return Ok(false) };
        stamp(&mut page, lsn);
        Ok(true)
    }

    /// Overwrites the live tuple at `rid` — redo and undo of an update (see
    /// [`HeapFile::replay`]). A dead slot is [`StorageError::RecordNotFound`].
    pub fn update_at(&self, rid: Rid, data: &[u8], lsn: u64, gated: bool) -> Result<bool> {
        self.replay(rid, lsn, gated, |page| {
            page.update(rid.slot, data).then_some(true).ok_or(StorageError::RecordNotFound(rid))
        })
    }

    /// Deletes the tuple at `rid`. `log` runs under the page latch with the
    /// before-image and returns the LSN to stamp.
    pub fn delete(&self, rid: Rid, log: impl FnOnce(&[u8]) -> u64) -> Result<()> {
        let pin = self.pool.pin(rid.page)?;
        let mut page = pin.write();
        let lsn = log(page.get(rid.slot).ok_or(StorageError::RecordNotFound(rid))?);
        page.delete(rid.slot);
        stamp(&mut page, lsn);
        Ok(())
    }

    /// Empties the slot at `rid` — redo of a delete, undo of an insert (see
    /// [`HeapFile::replay`]); `false` if it was already empty.
    pub fn delete_at(&self, rid: Rid, lsn: u64, gated: bool) -> Result<bool> {
        self.replay(rid, lsn, gated, |page| Ok(page.delete(rid.slot).is_some()))
    }

    /// Runs `f` on page `page_id` of the file under one pin and one shared
    /// latch, both released before this returns.
    pub(crate) fn read_page<R>(&self, page_id: PageId, f: impl FnOnce(&Page) -> R) -> Result<R> {
        let pin = self.pool.pin(page_id)?;
        let page = pin.read();
        Ok(f(&page))
    }

    /// Full scan: invokes `f` for every live tuple of the pages the file has
    /// when the scan starts. Pages are latched shared one at a time, so the
    /// scan interleaves with concurrent updates. A slot whose tuple runs past
    /// its page ends the scan with [`StorageError::CorruptRow`], before any
    /// tuple of that page reaches `f`.
    pub fn scan(&self, mut f: impl FnMut(Rid, &[u8])) -> Result<()> {
        for page_id in self.pages() {
            self.read_page(page_id, |page| {
                for (slot, at) in page.live_tuples(None)?.iter() {
                    f(Rid::new(page_id, slot), &page.as_bytes()[at]);
                }
                Ok(())
            })??;
        }
        Ok(())
    }

    /// Number of live tuples (scans the file).
    pub fn count(&self) -> Result<usize> {
        let mut n = 0;
        self.scan(|_, _| n += 1)?;
        Ok(n)
    }
}

/// Fills a new heap file page by page, for a load no other thread can see
/// yet: the open page stays pinned and exclusively latched while tuples land
/// on it, one pin and one latch a page where [`HeapFile::insert`] takes one
/// of each a tuple. A page is allocated when the tuple before it no longer
/// fits, and each tuple takes the slot an insert would, so the pages come out
/// byte for byte as a tuple-at-a-time load leaves them.
pub struct HeapAppender<'a> {
    pool: &'a Arc<BufferPool>,
    pages: Vec<PageId>,
    /// The last page, `None` only while the next one is allocated.
    open: Option<PinnedPageMut<'a>>,
}

impl<'a> HeapAppender<'a> {
    /// Starts a file with one fresh page, as [`HeapFile::create`] does.
    pub fn new(pool: &'a Arc<BufferPool>) -> Result<Self> {
        let (id, pin) = pool.new_page()?;
        Ok(HeapAppender { pool, pages: vec![id], open: Some(pin.into_write()) })
    }

    /// Places a `len`-byte tuple that `fill` writes in place on the open
    /// page, or on a new one if it does not fit there; returns its address.
    pub fn append(&mut self, len: usize, fill: impl Fn(&mut [u8])) -> Result<Rid> {
        check_len(len)?;
        loop {
            if let Some(page) = &mut self.open {
                if let Some(slot) = page.insert_with(len, &fill) {
                    return Ok(Rid::new(page.page_id(), slot));
                }
            }
            // The full page is let go before the next is allocated, as an
            // insert lets it go: the clock sees the same pool either way.
            self.open = None;
            let (id, pin) = self.pool.new_page()?;
            self.pages.push(id);
            self.open = Some(pin.into_write());
        }
    }

    /// The heap file of the appended pages, its insert cursor on the last.
    pub fn finish(self) -> HeapFile {
        drop(self.open);
        HeapFile::from_pages(Arc::clone(self.pool), self.pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{InMemoryDisk, PageStore};

    fn heap() -> HeapFile {
        let disk = Arc::new(InMemoryDisk::new());
        let pool = Arc::new(BufferPool::new(64, disk));
        HeapFile::create(pool).unwrap()
    }

    fn put(h: &HeapFile, data: &[u8], lsn: u64) -> Rid {
        h.insert(data.len(), |t| t.copy_from_slice(data), |_| Some(lsn)).unwrap().expect("admitted")
    }

    #[test]
    fn withdrawn_insert_leaves_no_tuple_and_no_stamp() {
        let h = heap();
        let kept = put(&h, b"kept", 7);
        let mut offered = None;
        let withdrawn = h.insert(9, |t| t.copy_from_slice(b"withdrawn"), |rid| {
            offered = Some(rid);
            None
        });
        assert_eq!(withdrawn.unwrap(), None);
        let offered = offered.expect("admit saw the placed tuple");
        assert_eq!(h.get(offered).unwrap_err(), StorageError::RecordNotFound(offered));
        assert_eq!(h.count().unwrap(), 1);
        // The freed slot is the next insert's.
        assert_eq!(put(&h, b"next", 8), offered);
        assert_eq!(h.get(kept).unwrap(), b"kept");
    }

    #[test]
    fn insert_get_roundtrip() {
        let h = heap();
        let rid = put(&h, b"tuple-1", 1);
        assert_eq!(h.get(rid).unwrap(), b"tuple-1");
    }

    #[test]
    fn update_returns_before_image() {
        let h = heap();
        let rid = put(&h, b"old", 1);
        let mut before = Vec::new();
        h.update(rid, b"new", |old| {
            before = old.to_vec();
            2
        })
        .unwrap();
        assert_eq!(before, b"old");
        assert_eq!(h.get(rid).unwrap(), b"new");
        // A growing update takes the copy-first path; same contract.
        h.update(rid, b"longer than before", |old| {
            before = old.to_vec();
            3
        })
        .unwrap();
        assert_eq!(before, b"new");
        assert_eq!(h.get(rid).unwrap(), b"longer than before");
    }

    #[test]
    fn modify_changes_in_place_and_a_refusal_stamps_nothing() {
        let h = heap();
        let rid = put(&h, b"abcd", 1);
        assert!(h.modify(rid, |t| { t[0] = b'z'; Ok(Some(4)) }).unwrap());
        assert!(!h.modify(rid, |_| Ok(None)).unwrap());
        assert_eq!(h.get(rid).unwrap(), b"zbcd");
        let lsn = h.read_page(rid.page, |page| page.lsn()).unwrap();
        assert_eq!(lsn, 4, "the refusal left the stamp alone");
        h.delete(rid, |_| 5).unwrap();
        assert_eq!(h.modify(rid, |_| unreachable!()).unwrap_err(), StorageError::RecordNotFound(rid));
    }

    #[test]
    fn delete_then_get_fails() {
        let h = heap();
        let rid = put(&h, b"gone", 1);
        let mut before = Vec::new();
        h.delete(rid, |old| {
            before = old.to_vec();
            2
        })
        .unwrap();
        assert_eq!(before, b"gone");
        assert_eq!(h.get(rid).unwrap_err(), StorageError::RecordNotFound(rid));
    }

    #[test]
    fn file_grows_across_pages() {
        let h = heap();
        let tuple = [9u8; 512];
        let mut rids = Vec::new();
        for _ in 0..100 {
            rids.push(put(&h, &tuple, 1));
        }
        assert!(h.pages().len() > 1, "100 x 512B tuples should span pages");
        for rid in &rids {
            assert_eq!(h.get(*rid).unwrap(), tuple);
        }
        assert_eq!(h.count().unwrap(), 100);
    }

    #[test]
    fn scan_sees_all_live_tuples() {
        let h = heap();
        let a = put(&h, b"a", 1);
        let b = put(&h, b"b", 2);
        h.delete(a, |_| 3).unwrap();
        let mut seen = Vec::new();
        h.scan(|rid, data| seen.push((rid, data.to_vec()))).unwrap();
        assert_eq!(seen, vec![(b, b"b".to_vec())]);
    }

    #[test]
    fn gated_update_at_is_idempotent() {
        let h = heap();
        let rid = put(&h, b"v1", 5);
        h.update_at(rid, b"v2", 10, true).unwrap();
        assert_eq!(h.get(rid).unwrap(), b"v2");
        // Replaying an older change is a no-op.
        h.update_at(rid, b"v0", 7, true).unwrap();
        assert_eq!(h.get(rid).unwrap(), b"v2");
        // Undo is not gated: its lower stamp still applies.
        h.update_at(rid, b"v1", 7, false).unwrap();
        assert_eq!(h.get(rid).unwrap(), b"v1");
    }

    #[test]
    fn concurrent_inserts_are_all_stored() {
        let h = Arc::new(heap());
        let mut handles = Vec::new();
        for t in 0..4u8 {
            let h = Arc::clone(&h);
            handles.push(std::thread::spawn(move || {
                let mut rids = Vec::new();
                for i in 0..200u32 {
                    let payload = [t; 64];
                    let _ = i;
                    rids.push(put(&h, &payload, 1));
                }
                rids
            }));
        }
        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().unwrap());
        }
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 800, "rids must be unique");
        assert_eq!(h.count().unwrap(), 800);
    }

    #[test]
    fn replay_adopts_named_pages_in_sorted_order_and_keeps_the_cursor() {
        let disk = Arc::new(InMemoryDisk::new());
        let pool = Arc::new(BufferPool::new(64, disk.clone()));
        let h = HeapFile::from_pages(pool, Vec::new());
        assert_eq!(disk.num_pages(), 0, "an empty page list allocates nothing");
        // A record names page 5 of a store that holds none: the store grows
        // to it and the file adopts it.
        assert!(h.insert_at(Rid::new(5, 0), b"five", 10, true).unwrap());
        assert_eq!((h.pages(), disk.num_pages()), (vec![5], 6));
        assert!(h.insert_at(Rid::new(9, 0), b"nine", 11, true).unwrap());
        // A page below the last one (its earlier records were skipped) goes
        // in at its sorted position.
        assert!(h.insert_at(Rid::new(7, 0), b"seven", 12, true).unwrap());
        assert_eq!(h.pages(), vec![5, 7, 9]);
        let mut seen = Vec::new();
        h.scan(|rid, _| seen.push(rid.page)).unwrap();
        assert_eq!(seen, vec![5, 7, 9], "scan follows page order");
        // Undo adopts too, below the cursor, which stays on page 5; a page
        // the file holds is not adopted twice.
        assert!(!h.delete_at(Rid::new(3, 0), 14, false).unwrap());
        assert!(!h.insert_at(Rid::new(7, 0), b"seven", 12, true).unwrap());
        assert_eq!(h.pages(), vec![3, 5, 7, 9]);
        assert_eq!(put(&h, b"next", 15).page, 5);
    }

    #[test]
    fn an_empty_heap_allocates_on_its_first_insert() {
        let disk = Arc::new(InMemoryDisk::new());
        let pool = Arc::new(BufferPool::new(64, disk.clone()));
        disk.allocate();
        let h = HeapFile::from_pages(pool, Vec::new());
        let rid = put(&h, b"first", 1);
        assert_eq!((rid.page, h.pages()), (1, vec![1]));
        assert_eq!(h.get(rid).unwrap(), b"first");
    }

    #[test]
    fn an_append_fills_pages_as_inserts_do() {
        let disk = Arc::new(InMemoryDisk::new());
        let pool = Arc::new(BufferPool::new(4, disk.clone()));
        let inserted = HeapFile::create(pool.clone()).unwrap();
        let mut appender = HeapAppender::new(&pool).unwrap();
        for i in 0..2_000u64 {
            let tuple = [i as u8; 40];
            let rid = appender.append(tuple.len(), |t| t.copy_from_slice(&tuple)).unwrap();
            assert_eq!(rid.slot, put(&inserted, &tuple, 0).slot);
        }
        let appended = appender.finish();
        let (a, b) = (appended.pages(), inserted.pages());
        assert_eq!(a.len(), b.len());
        assert!(a.len() > 4, "the load went through eviction");
        for (a, b) in a.into_iter().zip(b) {
            let bytes = |h: &HeapFile, id| h.read_page(id, |p| *p.as_bytes()).unwrap();
            assert!(bytes(&appended, a) == bytes(&inserted, b), "page {a} differs from page {b}");
        }
        assert_eq!(put(&appended, b"next", 1).page, *appended.pages().last().unwrap());
        let e = HeapAppender::new(&pool).unwrap().append(MAX_TUPLE + 1, |_| unreachable!()).unwrap_err();
        assert!(matches!(e, StorageError::TupleTooLarge { .. }));
    }

    #[test]
    fn oversized_insert_rejected() {
        let h = heap();
        let e = h.insert(MAX_TUPLE + 1, |_| unreachable!(), |_| Some(1)).unwrap_err();
        assert!(matches!(e, StorageError::TupleTooLarge { .. }));
    }
}

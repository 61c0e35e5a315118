//! Tables: heap file + primary B+tree index + schema.
//!
//! `Table` is the storage-level object the transaction layer manipulates.
//! All methods are physically safe under concurrency (page latches, index
//! crabbing) but provide **no transactional isolation** — that is the job of
//! the lock manager and transaction manager layered above. Each mutation —
//! the read-modify-write [`Table::add_logged`] included — is one index
//! descent, one pin and one page latch; its `*_logged` form takes a
//! closure that runs under that latch and returns the LSN to stamp — where
//! the transaction layer appends its log record (see [`crate::heap`]) — and
//! the plain form stamps nothing.

use crate::btree::BTree;
use crate::buffer::BufferPool;
use crate::heap::{HeapAppender, HeapFile};
use crate::page::Page;
use crate::rid::{PageId, Rid};
use crate::schema::{
    decode_row, encode_row, encode_row_into, encoded_len, field_at, IndexDef, IndexId, RowRef, Schema, TableId,
};
use crate::secondary::SecondaryIndex;
use crate::{Result, StorageError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Comparison operators for filters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// Evaluates `lhs OP rhs`.
    #[inline]
    pub fn eval(self, lhs: i64, rhs: i64) -> bool {
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }
}

/// `row[field] OP value`, over a row read as `[key, col0, col1, ..]`: a
/// filter a stored scan tests on the page bytes ([`Table::scan_page_into`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Predicate {
    /// Field tested: 0 is the key, `i + 1` column `i`.
    pub field: usize,
    /// Comparison.
    pub op: CmpOp,
    /// Constant operand.
    pub value: i64,
}

impl Predicate {
    /// Whether a field holding `v` passes.
    #[inline]
    pub fn holds(self, v: i64) -> bool {
        self.op.eval(v, self.value)
    }

    /// The same test as one range check, whatever the operator, so that a
    /// page's loop compares the same way for every row.
    fn range_check(self) -> RangeCheck {
        let (lo, hi, outside) = match self.op {
            CmpOp::Eq => (self.value, self.value, false),
            CmpOp::Ne => (self.value, self.value, true),
            CmpOp::Le => (i64::MIN, self.value, false),
            CmpOp::Ge => (self.value, i64::MAX, false),
            CmpOp::Lt => self.value.checked_sub(1).map_or((i64::MIN, i64::MAX, true), |hi| (i64::MIN, hi, false)),
            CmpOp::Gt => self.value.checked_add(1).map_or((i64::MIN, i64::MAX, true), |lo| (lo, i64::MAX, false)),
        };
        RangeCheck { field: self.field, lo, span: hi.wrapping_sub(lo) as u64, outside }
    }
}

/// A [`Predicate`] as `lo <= row[field] <= lo + span`, or its complement
/// when `outside`.
#[derive(Clone, Copy)]
struct RangeCheck {
    field: usize,
    lo: i64,
    span: u64,
    outside: bool,
}

impl RangeCheck {
    /// Whether the row encoded at byte `row` of `bytes` passes.
    #[inline]
    fn holds(self, bytes: &[u8], row: usize) -> bool {
        (field_at(bytes, row, self.field).wrapping_sub(self.lo) as u64 <= self.span) != self.outside
    }
}

/// What scans have read: live tuples tested, and rows kept (those that
/// passed every pushed filter).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanCounts {
    /// Live tuples the scan tested.
    pub tested: u64,
    /// Tuples that passed its filters, so were decoded.
    pub kept: u64,
}

/// Position of a [`Table::scan_page_into`] scan: the heap pages the table had
/// when the scan started, in heap order, from the next one to decode on.
#[derive(Debug)]
pub struct ScanCursor {
    pages: std::vec::IntoIter<PageId>,
    /// Offsets within the page being decoded of the tuples its filters
    /// kept; one buffer for the whole scan.
    kept: Vec<usize>,
    /// The pages read so far; added to the table's totals when the scan
    /// ends.
    counts: ScanCounts,
}

fn check_arity(schema: &Schema, row: &[i64]) -> Result<()> {
    if row.len() != schema.arity {
        return Err(StorageError::ArityMismatch {
            expected: schema.arity,
            got: row.len(),
        });
    }
    Ok(())
}

/// Loads a new table in bulk, before any other thread can see it: each row
/// is encoded straight into the open heap page ([`HeapAppender`]), its
/// `(key, rid)` pair is kept, and [`TableLoader::finish`] builds the primary
/// index bottom-up from the pairs ([`BTree::from_sorted`]). Rows land where
/// [`Table::insert`] would put them, and key-ordered rows leave the index
/// in the shape their inserts would, so the loaded table is the one a
/// row-at-a-time load makes.
pub struct TableLoader<'a> {
    schema: Schema,
    heap: HeapAppender<'a>,
    pairs: Vec<(u64, u64)>,
    secondaries: Vec<Arc<SecondaryIndex>>,
}

impl<'a> TableLoader<'a> {
    /// Starts loading a table of `schema`, allocating its first heap page
    /// as [`Table::create`] does.
    pub fn new(schema: Schema, pool: &'a Arc<BufferPool>) -> Result<Self> {
        let secondaries = build_secondaries(&schema);
        Ok(TableLoader { schema, heap: HeapAppender::new(pool)?, pairs: Vec::new(), secondaries })
    }

    /// Appends `key → row`. A repeated key is found by
    /// [`TableLoader::finish`].
    pub fn push(&mut self, key: u64, row: &[i64]) -> Result<()> {
        check_arity(&self.schema, row)?;
        let rid = self.heap.append(encoded_len(row), |tuple| encode_row_into(key, row, tuple))?;
        self.pairs.push((key, rid.to_u64()));
        for ix in &self.secondaries {
            ix.insert_row(key, row);
        }
        Ok(())
    }

    /// The loaded table, ready to register. Fails with
    /// [`StorageError::DuplicateKey`] (the lowest repeated key) if a key was
    /// pushed twice; keys may arrive in any order.
    pub fn finish(mut self) -> Result<Table> {
        // Linear on the key-ordered populations: the sort finds one run.
        self.pairs.sort_unstable_by_key(|&(key, _)| key);
        if let Some(w) = self.pairs.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(StorageError::DuplicateKey(w[0].0));
        }
        Ok(Table {
            schema: self.schema,
            heap: self.heap.finish(),
            index: BTree::from_sorted(&self.pairs),
            secondaries: self.secondaries,
            scanned: ScanTotals::default(),
        })
    }
}

/// A keyed table of fixed-arity `i64` rows.
pub struct Table {
    schema: Schema,
    heap: HeapFile,
    index: BTree,
    /// Secondary indexes declared in the schema, in declaration order.
    /// Like the primary B+tree these are derived, in-memory state: never
    /// checkpointed, rebuilt from the heap after recovery or bootstrap.
    secondaries: Vec<Arc<SecondaryIndex>>,
    /// The summed [`ScanCounts`] of finished page-at-a-time scans.
    scanned: ScanTotals,
}

#[derive(Default)]
struct ScanTotals {
    tested: AtomicU64,
    kept: AtomicU64,
}

fn build_secondaries(schema: &Schema) -> Vec<Arc<SecondaryIndex>> {
    schema
        .indexes
        .iter()
        .map(|def| Arc::new(SecondaryIndex::new(def.clone())))
        .collect()
}

impl Table {
    /// Creates an empty table with `arity` value columns.
    pub fn create(id: TableId, name: impl Into<String>, arity: usize, pool: Arc<BufferPool>) -> Self {
        Self::create_indexed(id, name, arity, Vec::new(), pool)
    }

    /// Creates an empty table carrying secondary index declarations.
    pub fn create_indexed(
        id: TableId,
        name: impl Into<String>,
        arity: usize,
        indexes: Vec<IndexDef>,
        pool: Arc<BufferPool>,
    ) -> Self {
        let schema = Schema::with_indexes(id, name, arity, indexes);
        let secondaries = build_secondaries(&schema);
        Table {
            schema,
            heap: HeapFile::create(pool).expect("allocating first heap page"),
            index: BTree::new(),
            secondaries,
            scanned: ScanTotals::default(),
        }
    }

    /// Reconstructs a table around an existing heap (crash recovery: the
    /// heap pages survive on the page store, the in-memory indexes do not).
    /// The primary and secondary indexes start empty; call
    /// [`Table::rebuild_index`] and [`Table::rebuild_secondaries`] after
    /// redo/undo have restored the heap.
    pub fn from_heap(schema: Schema, heap: HeapFile) -> Self {
        let secondaries = build_secondaries(&schema);
        Table {
            schema,
            heap,
            index: BTree::new(),
            secondaries,
            scanned: ScanTotals::default(),
        }
    }

    /// Rebuilds the primary index from a full heap scan. Fails with
    /// [`StorageError::CorruptRow`] if any live slot holds an undecodable
    /// row image.
    pub fn rebuild_index(&self) -> Result<()> {
        let mut bad: Option<StorageError> = None;
        self.heap.scan(|rid, bytes| {
            if bad.is_some() {
                return;
            }
            match crate::schema::decode_key(bytes) {
                Ok(key) => {
                    self.index.insert(key, rid.to_u64());
                }
                Err(e) => bad = Some(e),
            }
        })?;
        match bad {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Rebuilds every secondary index from a full heap scan (clearing any
    /// stale contents first). Fails with [`StorageError::CorruptRow`] if any
    /// live slot holds an undecodable row image.
    pub fn rebuild_secondaries(&self) -> Result<()> {
        if self.secondaries.is_empty() {
            return Ok(());
        }
        for ix in &self.secondaries {
            ix.clear();
        }
        self.scan(|key, row| {
            for ix in &self.secondaries {
                ix.insert_row(key, row);
            }
        })
    }

    /// This table's secondary indexes, in declaration order.
    pub fn secondaries(&self) -> &[Arc<SecondaryIndex>] {
        &self.secondaries
    }

    /// The secondary index with the given id, if declared.
    pub fn secondary(&self, id: IndexId) -> Option<&Arc<SecondaryIndex>> {
        self.secondaries.iter().find(|ix| ix.def().id == id)
    }

    /// This table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Table id shorthand.
    pub fn id(&self) -> TableId {
        self.schema.id
    }

    /// Inserts `key → row`. Fails with [`StorageError::DuplicateKey`] if the
    /// key exists.
    pub fn insert(&self, key: u64, row: &[i64]) -> Result<Rid> {
        self.insert_logged(key, row, |_| 0)
    }

    /// Insert whose page is stamped with the LSN `log` returns. `log` runs
    /// under the page latch once the key is known to be new: the tuple is
    /// placed, the index admits the key in one exclusive descent (an existing
    /// key is never overwritten — the loser of a same-key race withdraws its
    /// own tuple and nothing else), and only then is the record written.
    pub fn insert_logged(&self, key: u64, row: &[i64], log: impl FnOnce(Rid) -> u64) -> Result<Rid> {
        check_arity(&self.schema, row)?;
        let encode = |tuple: &mut [u8]| encode_row_into(key, row, tuple);
        let rid = self
            .heap
            .insert(encoded_len(row), encode, |rid| {
                self.index.insert_if_absent(key, rid.to_u64()).is_none().then(|| log(rid))
            })?
            .ok_or(StorageError::DuplicateKey(key))?;
        for ix in &self.secondaries {
            ix.insert_row(key, row);
        }
        Ok(rid)
    }

    /// Reads the row for `key`.
    pub fn get(&self, key: u64) -> Result<Vec<i64>> {
        Ok(self.heap.read(self.rid_of(key)?, decode_row)??.1)
    }

    /// Physical address of `key`.
    pub fn rid_of(&self, key: u64) -> Result<Rid> {
        self.index
            .get(key)
            .map(Rid::from_u64)
            .ok_or(StorageError::KeyNotFound(key))
    }

    /// Overwrites the row for `key`, returning the before-image.
    pub fn update(&self, key: u64, row: &[i64]) -> Result<Vec<i64>> {
        self.update_logged(key, row, |_, _| 0)
    }

    /// Update whose page is stamped with the LSN `log` returns. `log` runs
    /// under the page latch with the row's address and before-image.
    pub fn update_logged(
        &self,
        key: u64,
        row: &[i64],
        log: impl FnOnce(Rid, &[i64]) -> u64,
    ) -> Result<Vec<i64>> {
        check_arity(&self.schema, row)?;
        let rid = self.rid_of(key)?;
        let mut before = None;
        self.heap.update(rid, &encode_row(key, row), |old| Self::log_before(&mut before, old, rid, log))?;
        let before = before.expect("heap.update ran the closure")?;
        for ix in &self.secondaries {
            ix.update_row(key, &before, row);
        }
        Ok(before)
    }

    /// Read-modify-write: adds `delta` to column `col` of `key`'s row in one
    /// descent, one pin and one page latch, returning the before-image — or
    /// `None` when the sum overflows, in which case `log` is not called and
    /// neither the row nor the page LSN changes. `log` runs under the latch
    /// with the row's address and its before- and after-images and returns
    /// the LSN to stamp; the changed column is then written in place.
    pub fn add_logged(
        &self,
        key: u64,
        col: usize,
        delta: i64,
        log: impl FnOnce(Rid, &[i64], &[i64]) -> u64,
    ) -> Result<Option<Vec<i64>>> {
        let arity = self.schema.arity;
        if col >= arity {
            return Err(StorageError::ArityMismatch { expected: arity, got: col + 1 });
        }
        let rid = self.rid_of(key)?;
        // Both images in one buffer, `[before.., after..]`, so the
        // after-image costs no allocation of its own.
        let mut images = Vec::new();
        let added = self.heap.modify(rid, |tuple| {
            let row = RowRef::with_arity(tuple, arity)?;
            images.reserve_exact(2 * arity);
            images.extend(row.cols());
            let Some(sum) = images[col].checked_add(delta) else { return Ok(None) };
            images.extend_from_within(..arity);
            images[arity + col] = sum;
            let lsn = log(rid, &images[..arity], &images[arity..]);
            tuple[8 * (col + 1)..8 * (col + 2)].copy_from_slice(&sum.to_le_bytes());
            Ok(Some(lsn))
        })?;
        if !added {
            return Ok(None);
        }
        let (before, after) = images.split_at(arity);
        for ix in &self.secondaries {
            ix.update_row(key, before, after);
        }
        images.truncate(arity);
        Ok(Some(images))
    }

    /// Deletes `key`, returning the before-image.
    pub fn delete(&self, key: u64) -> Result<Vec<i64>> {
        self.delete_logged(key, |_, _| 0)
    }

    /// Delete whose page is stamped with the LSN `log` returns. `log` runs
    /// under the page latch with the row's address and before-image.
    pub fn delete_logged(&self, key: u64, log: impl FnOnce(Rid, &[i64]) -> u64) -> Result<Vec<i64>> {
        let rid = self.rid_of(key)?;
        let mut before = None;
        self.heap.delete(rid, |old| Self::log_before(&mut before, old, rid, log))?;
        self.index.remove(key);
        let before = before.expect("heap.delete ran the closure")?;
        for ix in &self.secondaries {
            ix.remove_row(key, &before);
        }
        Ok(before)
    }

    /// Decodes the before-image found under the latch, hands it to `log`,
    /// and keeps it for the caller. An undecodable image is not logged (the
    /// operation reports [`StorageError::CorruptRow`]).
    fn log_before(
        before: &mut Option<Result<Vec<i64>>>,
        old: &[u8],
        rid: Rid,
        log: impl FnOnce(Rid, &[i64]) -> u64,
    ) -> u64 {
        let decoded = decode_row(old).map(|(_, row)| row);
        let lsn = decoded.as_ref().map_or(0, |row| log(rid, row));
        *before = Some(decoded);
        lsn
    }

    /// Inclusive primary-key range scan, returning `(key, row)` pairs in key
    /// order.
    pub fn range(&self, start: u64, end: u64) -> Result<Vec<(u64, Vec<i64>)>> {
        let mut out = Vec::new();
        for (key, packed) in self.index.range(start, end) {
            out.push((key, self.heap.read(Rid::from_u64(packed), decode_row)??.1));
        }
        Ok(out)
    }

    /// Full scan in heap (physical) order; faster than [`Table::range`] for
    /// whole-table reads because it avoids index traversal per tuple. Every
    /// row is decoded into one reused buffer. Stops at the first corrupt row
    /// and reports it.
    pub fn scan(&self, mut f: impl FnMut(u64, &[i64])) -> Result<()> {
        let mut bad: Option<StorageError> = None;
        let mut cols = Vec::with_capacity(self.schema.arity);
        self.heap.scan(|_rid, bytes| {
            if bad.is_some() {
                return;
            }
            match RowRef::new(bytes) {
                Ok(row) => {
                    cols.clear();
                    cols.extend(row.cols());
                    f(row.key(), &cols);
                }
                Err(e) => bad = Some(e),
            }
        })?;
        match bad {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Starts a page-at-a-time scan over the heap pages the table has now.
    /// The page list is read once, here: a page the heap adopts later, at
    /// whatever position, is not scanned, and none is scanned twice.
    pub fn scan_cursor(&self) -> ScanCursor {
        ScanCursor { pages: self.heap.pages().into_iter(), kept: Vec::new(), counts: ScanCounts::default() }
    }

    /// Decodes the rows of the cursor's next heap page that pass every one
    /// of `filters`, column-wise: for every such row and every `f` in
    /// `fields`, field `f` of the row read as `[key, col0, col1, ..]` is
    /// appended to `out[f]`; columns not listed are left alone. Returns the
    /// number of rows kept, `None` once the cursor is exhausted, when the
    /// scan's [`ScanCounts`] join the table's ([`Table::scan_counts`]).
    ///
    /// Three passes under one pin and one shared latch, each a tight loop
    /// over data: the first checks the whole slot directory, that every
    /// live tuple lies inside the page and has the schema's width
    /// (`Page::live_tuples`), and notes the live tuples' offsets; each
    /// filter narrows those offsets; then each requested field of the rows
    /// left is gathered into its column in one `extend`. A filter
    /// becomes one range check per page, so the loops do not branch on its
    /// operator. The page is pinned and latched only inside this call, so
    /// whatever the caller does with the columns runs under neither. A
    /// tuple of the wrong width or extent fails the call with
    /// [`StorageError::CorruptRow`], whether or not the filters would have
    /// passed it, and leaves `out` as it was.
    ///
    /// Panics on a field or a filter past the schema's arity.
    pub fn scan_page_into(
        &self,
        cursor: &mut ScanCursor,
        fields: &[usize],
        filters: &[Predicate],
        out: &mut [Vec<i64>],
    ) -> Result<Option<usize>> {
        let Some(page_id) = cursor.pages.next() else {
            let ScanCounts { tested, kept } = std::mem::take(&mut cursor.counts);
            self.scanned.tested.fetch_add(tested, Ordering::Relaxed);
            self.scanned.kept.fetch_add(kept, Ordering::Relaxed);
            return Ok(None);
        };
        let arity = self.schema.arity;
        let mut named = fields.iter().chain(filters.iter().map(|p| &p.field));
        assert!(named.all(|&f| f <= arity), "scan of a field the schema lacks");
        let (kept, counts) = (&mut cursor.kept, &mut cursor.counts);
        self.heap.read_page(page_id, |page| {
            let tested = scan_page(page, arity, fields, filters, kept, out)?;
            counts.tested += tested as u64;
            counts.kept += kept.len() as u64;
            Ok(Some(kept.len()))
        })?
    }

    /// What every scan of this table run to its end has read, summed
    /// ([`Table::scan_page_into`]).
    pub fn scan_counts(&self) -> ScanCounts {
        let load = |n: &AtomicU64| n.load(Ordering::Relaxed);
        ScanCounts { tested: load(&self.scanned.tested), kept: load(&self.scanned.kept) }
    }

    /// Number of live rows.
    pub fn len(&self) -> u64 {
        self.index.len()
    }

    /// Returns `true` if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Direct access to the underlying heap (recovery only).
    pub fn heap(&self) -> &HeapFile {
        &self.heap
    }

    /// Direct access to the primary index (recovery only).
    pub fn index(&self) -> &BTree {
        &self.index
    }
}

/// [`Table::scan_page_into`] on one latched page of `arity`-column rows:
/// leaves the offsets of the rows kept in `kept` and returns the number of
/// live tuples tested.
fn scan_page(
    page: &Page,
    arity: usize,
    fields: &[usize],
    filters: &[Predicate],
    kept: &mut Vec<usize>,
    out: &mut [Vec<i64>],
) -> Result<usize> {
    let bytes = page.as_bytes();
    kept.clear();
    page.live_tuples(Some(8 * (arity + 1)))?.offsets_into(kept);
    let tested = kept.len();
    for filter in filters {
        let filter = filter.range_check();
        kept.retain(|&row| filter.holds(bytes, row));
    }
    for &f in fields {
        out[f].extend(kept.iter().map(|&row| field_at(bytes, row, f)));
    }
    Ok(tested)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{InMemoryDisk, PageStore};
    use crate::page::PAGE_SIZE;
    use proptest::prelude::*;

    fn table(arity: usize) -> Table {
        let disk = Arc::new(InMemoryDisk::new());
        let pool = Arc::new(BufferPool::new(128, disk));
        Table::create(1, "t", arity, pool)
    }

    #[test]
    fn crud_cycle() {
        let t = table(2);
        t.insert(1, &[10, 20]).unwrap();
        assert_eq!(t.get(1).unwrap(), vec![10, 20]);
        assert_eq!(t.update(1, &[11, 21]).unwrap(), vec![10, 20]);
        assert_eq!(t.get(1).unwrap(), vec![11, 21]);
        assert_eq!(t.delete(1).unwrap(), vec![11, 21]);
        assert_eq!(t.get(1).unwrap_err(), StorageError::KeyNotFound(1));
    }

    #[test]
    fn duplicate_key_rejected() {
        let t = table(1);
        t.insert(5, &[1]).unwrap();
        assert_eq!(t.insert(5, &[2]).unwrap_err(), StorageError::DuplicateKey(5));
        assert_eq!(t.get(5).unwrap(), vec![1]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn arity_enforced() {
        let t = table(2);
        assert!(matches!(
            t.insert(1, &[1]).unwrap_err(),
            StorageError::ArityMismatch { expected: 2, got: 1 }
        ));
    }

    #[test]
    fn range_scan_in_key_order() {
        let t = table(1);
        for k in [5u64, 1, 9, 3, 7] {
            t.insert(k, &[k as i64 * 10]).unwrap();
        }
        let r = t.range(2, 8).unwrap();
        let keys: Vec<u64> = r.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![3, 5, 7]);
        assert_eq!(r[1].1, vec![50]);
    }

    #[test]
    fn scan_visits_every_row() {
        let t = table(1);
        for k in 0..500u64 {
            t.insert(k, &[k as i64]).unwrap();
        }
        let mut sum = 0i64;
        let mut n = 0;
        t.scan(|_, row| {
            sum += row[0];
            n += 1;
        })
        .unwrap();
        assert_eq!(n, 500);
        assert_eq!(sum, (0..500).sum());
    }

    /// The scan rule before the page kernel, row at a time: every live
    /// tuple's width is checked and its row run through each filter in
    /// turn; then the requested fields of the rows kept are decoded. Returns
    /// the live tuples tested and the rows kept.
    fn row_at_a_time(
        page: &Page,
        arity: usize,
        fields: &[usize],
        filters: &[Predicate],
        out: &mut [Vec<i64>],
    ) -> Result<(usize, usize)> {
        let (mut tested, mut kept) = (0, Vec::new());
        for slot in 0..page.slot_count() {
            let Some(tuple) = page.get(slot) else { continue };
            let row = RowRef::with_arity(tuple, arity)?;
            tested += 1;
            if filters.iter().all(|p| p.holds(row.field(p.field))) {
                kept.push(row);
            }
        }
        for &f in fields {
            out[f].extend(kept.iter().map(|row| row.field(f)));
        }
        Ok((tested, kept.len()))
    }

    const OPS: [CmpOp; 6] = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];

    /// Small values, so that filters both pass and fail, and the edges
    /// where a range check could wrap.
    fn value() -> impl Strategy<Value = i64> {
        prop_oneof![-3i64..3, Just(i64::MIN), Just(i64::MIN + 1), Just(i64::MAX - 1), Just(i64::MAX)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Pages built from inserts, deletes and `insert_at_slot` gaps, so
        /// with tombstones; 0–3 filters over any field with any operator;
        /// any set of fields. The kernel keeps the rows and fills the
        /// columns the row-at-a-time rule does. A tuple of the wrong width
        /// or one running past the page fails it with `CorruptRow` and
        /// leaves `out` as it was.
        #[test]
        fn the_page_kernel_matches_the_row_at_a_time_rule(
            arity in 0usize..4,
            tape in prop::collection::vec((0u8..4, 0u16..300, value(), (value(), value(), value())), 0..200),
            filters in prop::collection::vec((0usize..4, 0usize..6, value()), 0..=3),
            wanted in 0u8..16,
            corrupt in (0u8..3, any::<usize>(), 1u16..40),
        ) {
            let mut page = Page::new();
            for (op, slot, key, (a, b, c)) in tape {
                let row = encode_row(key as u64, &[a, b, c][..arity]);
                match op {
                    0 | 1 => drop(page.insert(&row)),
                    2 => drop(page.delete(slot % (page.slot_count() + 1))),
                    _ => drop(page.insert_at_slot(slot, &row)),
                }
            }
            let width = 8 * (arity + 1);
            let mut bad_extent = None;
            let live: Vec<u16> = (0..page.slot_count()).filter(|&s| page.get(s).is_some()).collect();
            match corrupt {
                // A ragged tuple, at whatever slot an insert gives it.
                (1, _, len) if usize::from(len) != width => drop(page.insert(&vec![7; len.into()])),
                // A live slot moved so that it runs one byte past the page.
                (2, pick, _) if !live.is_empty() => {
                    page.plant_slot_entry(live[pick % live.len()], (PAGE_SIZE - width + 1) as u16, width as u16);
                    bad_extent = Some(width);
                }
                _ => {}
            }
            let filters: Vec<Predicate> = filters
                .into_iter()
                .map(|(field, op, value)| Predicate { field: field % (arity + 1), op: OPS[op], value })
                .collect();
            let fields: Vec<usize> = (0..=arity).filter(|&f| wanted & (1 << f) != 0).collect();
            let before: Vec<Vec<i64>> = (0..=arity).map(|f| vec![-(f as i64)]).collect();
            let (mut out, mut kept) = (before.clone(), Vec::new());
            let got = scan_page(&page, arity, &fields, &filters, &mut kept, &mut out);
            if let Some(len) = bad_extent {
                prop_assert_eq!(got, Err(StorageError::CorruptRow { len }));
                prop_assert_eq!(out, before, "a failed page decodes nothing");
            } else {
                let mut expect = before.clone();
                let reference = row_at_a_time(&page, arity, &fields, &filters, &mut expect);
                prop_assert_eq!(got.map(|tested| (tested, kept.len())), reference.clone());
                prop_assert_eq!(&out, &expect);
                if reference.is_err() {
                    prop_assert_eq!(out, before, "a failed page decodes nothing");
                }
            }
        }
    }

    #[test]
    fn page_scan_fills_the_requested_columns_one_page_per_call() {
        let t = table(2);
        for k in 0..1_000u64 {
            t.insert(k, &[k as i64 * 10, -(k as i64)]).unwrap();
        }
        for k in (0..1_000).step_by(3) {
            t.delete(k).unwrap();
        }
        let mut out = vec![Vec::new(), vec![7], Vec::new()];
        let (mut cursor, mut calls, mut rows) = (t.scan_cursor(), 0, 0);
        while let Some(n) = t.scan_page_into(&mut cursor, &[0, 2], &[], &mut out).unwrap() {
            calls += 1;
            rows += n;
        }
        assert_eq!(calls, t.heap().pages().len());
        assert!(calls > 1, "the table spans pages");
        assert_eq!(rows as u64, t.len());
        let keys: Vec<i64> = (0..1_000).filter(|k| k % 3 != 0).collect();
        assert_eq!(out[0], keys);
        assert_eq!(out[1], [7], "a column not asked for is left alone");
        assert_eq!(out[2], keys.iter().map(|k| -k).collect::<Vec<_>>());
        assert_eq!(t.scan_page_into(&mut cursor, &[0], &[], &mut out).unwrap(), None, "exhausted stays exhausted");
        assert_eq!(t.scan_counts(), ScanCounts { tested: t.len(), kept: t.len() }, "counted once");
    }

    #[test]
    fn page_scan_reports_a_short_or_ragged_tuple() {
        for bad in [encode_row(1, &[5]), encode_row(1, &[5, 6])[..20].to_vec(), encode_row(1, &[5, 6, 7])] {
            let t = table(2);
            for k in 0..3u64 {
                t.insert(k, &[1, 2]).unwrap();
            }
            t.heap().update(t.rid_of(1).unwrap(), &bad, |_| 0).unwrap();
            let mut out = vec![Vec::new(); 3];
            assert_eq!(
                t.scan_page_into(&mut t.scan_cursor(), &[2], &[], &mut out).unwrap_err(),
                StorageError::CorruptRow { len: bad.len() }
            );
        }
    }

    #[test]
    fn page_scan_keeps_exactly_the_rows_its_predicate_passes() {
        let t = table(2);
        for k in 0..1_000u64 {
            t.insert(k, &[(k % 7) as i64, -(k as i64)]).unwrap();
        }
        for k in (0..1_000).step_by(3) {
            t.delete(k).unwrap();
        }
        let mut out = vec![vec![-1], Vec::new(), Vec::new()];
        let (mut cursor, mut rows) = (t.scan_cursor(), 0);
        let filters = [Predicate { field: 1, op: CmpOp::Eq, value: 4 }, Predicate { field: 2, op: CmpOp::Gt, value: -900 }];
        while let Some(n) = t.scan_page_into(&mut cursor, &[0, 2], &filters, &mut out).unwrap() {
            rows += n;
        }
        let keys: Vec<i64> = (0..1_000).filter(|k| k % 3 != 0 && k % 7 == 4 && *k < 900).collect();
        let counts = t.scan_counts();
        assert_eq!(counts.tested, t.len(), "the predicate sees every live tuple, no tombstone");
        assert_eq!(rows, keys.len());
        assert_eq!(counts.kept, keys.len() as u64);
        assert_eq!(out[0], [[-1].as_slice(), &keys].concat(), "appended after what was there");
        assert!(out[1].is_empty(), "a column not asked for is left alone, even one the predicate reads");
        assert_eq!(out[2], keys.iter().map(|k| -k).collect::<Vec<_>>());
    }

    #[test]
    fn a_ragged_tuple_is_reported_even_when_its_row_would_be_filtered_out() {
        let t = table(2);
        for k in 0..3u64 {
            t.insert(k, &[1, 2]).unwrap();
        }
        let bad = encode_row(1, &[5, 6, 7]);
        t.heap().update(t.rid_of(1).unwrap(), &bad, |_| 0).unwrap();
        let mut out = vec![Vec::new(); 3];
        let none = [Predicate { field: 0, op: CmpOp::Lt, value: i64::MIN }];
        assert_eq!(
            t.scan_page_into(&mut t.scan_cursor(), &[0, 1, 2], &none, &mut out).unwrap_err(),
            StorageError::CorruptRow { len: bad.len() }
        );
        let mut out = vec![Vec::new(); 3];
        let all_but_key_1 = [Predicate { field: 0, op: CmpOp::Ne, value: 1 }];
        assert!(t.scan_page_into(&mut t.scan_cursor(), &[0, 1], &all_but_key_1, &mut out).is_err());
        assert!(out.iter().all(Vec::is_empty), "a failed page decodes nothing");
    }

    /// A live slot whose tuple runs past the end of its page: every heap
    /// scan reports it, none panics.
    #[test]
    fn a_slot_past_its_page_is_a_corrupt_row_in_every_scan() {
        let pool = Arc::new(BufferPool::new(128, Arc::new(InMemoryDisk::new())));
        let t = Table::create(1, "t", 2, pool.clone());
        for k in 0..3u64 {
            t.insert(k, &[1, 2]).unwrap();
        }
        let rid = t.rid_of(1).unwrap();
        pool.pin(rid.page).unwrap().write().plant_slot_entry(rid.slot, PAGE_SIZE as u16 - 8, 24);
        let corrupt = StorageError::CorruptRow { len: 24 };
        let mut out = vec![Vec::new(); 3];
        assert_eq!(t.scan_page_into(&mut t.scan_cursor(), &[0, 2], &[], &mut out), Err(corrupt.clone()));
        assert!(out.iter().all(Vec::is_empty), "a failed page decodes nothing");
        assert_eq!(t.scan(|_, _| {}), Err(corrupt.clone()));
        assert_eq!(t.rebuild_index(), Err(corrupt.clone()));
        assert_eq!(t.heap().count(), Err(corrupt));
    }

    /// Replay adopts a page at its sorted position in the heap's page list,
    /// which can be below pages a running scan has yet to read. The cursor
    /// read the list when it was made, so nothing shifts under it.
    #[test]
    fn a_page_adopted_below_a_running_scan_shifts_nothing() {
        let disk = Arc::new(InMemoryDisk::new());
        disk.allocate(); // page 0: on the store, not yet the heap's
        let t = Table::create(1, "t", 1, Arc::new(BufferPool::new(128, disk)));
        for k in 0..2_000u64 {
            t.insert(k, &[k as i64]).unwrap();
        }
        assert!(t.heap().pages().len() >= 3 && t.heap().pages()[0] > 0);
        let mut out = vec![Vec::new(), Vec::new()];
        let mut cursor = t.scan_cursor();
        t.scan_page_into(&mut cursor, &[0], &[], &mut out).unwrap().unwrap();
        t.heap().insert_at(Rid::new(0, 0), &encode_row(9_999, &[0]), 1, true).unwrap();
        assert_eq!(t.heap().pages()[0], 0, "adopted below the pages already read");
        while t.scan_page_into(&mut cursor, &[0], &[], &mut out).unwrap().is_some() {}
        out[0].sort_unstable();
        assert_eq!(out[0], (0..2_000).collect::<Vec<i64>>(), "every row present at the start, once");
    }

    #[test]
    fn update_missing_key_fails() {
        let t = table(1);
        assert_eq!(t.update(99, &[1]).unwrap_err(), StorageError::KeyNotFound(99));
        assert_eq!(t.delete(99).unwrap_err(), StorageError::KeyNotFound(99));
    }

    #[test]
    fn secondaries_track_crud() {
        use crate::schema::{IndexDef, IndexKind};
        let disk = Arc::new(InMemoryDisk::new());
        let pool = Arc::new(BufferPool::new(128, disk));
        let t = Table::create_indexed(
            1,
            "t",
            2,
            vec![
                IndexDef { id: 0, name: "h0".into(), col: 0, kind: IndexKind::Hash },
                IndexDef { id: 1, name: "r1".into(), col: 1, kind: IndexKind::Range },
            ],
            pool,
        );
        t.insert(1, &[10, 100]).unwrap();
        t.insert(2, &[10, 200]).unwrap();
        t.insert(3, &[30, 300]).unwrap();
        assert_eq!(t.secondary(0).unwrap().lookup_eq(10), vec![1, 2]);
        assert_eq!(t.secondary(1).unwrap().lookup_range(150, 350).unwrap(), vec![2, 3]);
        t.update(2, &[40, 250]).unwrap();
        assert_eq!(t.secondary(0).unwrap().lookup_eq(10), vec![1]);
        assert_eq!(t.secondary(0).unwrap().lookup_eq(40), vec![2]);
        t.delete(1).unwrap();
        assert_eq!(t.secondary(0).unwrap().lookup_eq(10), Vec::<u64>::new());
        // Duplicate insert must not disturb the winner's entries.
        assert!(t.insert(3, &[99, 99]).is_err());
        assert_eq!(t.secondary(0).unwrap().lookup_eq(30), vec![3]);
        assert_eq!(t.secondary(0).unwrap().lookup_eq(99), Vec::<u64>::new());
        // Rebuild from the heap converges to the same contents.
        let before: Vec<_> = t.secondaries().iter().map(|ix| ix.entries()).collect();
        t.rebuild_secondaries().unwrap();
        let after: Vec<_> = t.secondaries().iter().map(|ix| ix.entries()).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn same_key_insert_race_has_one_winner_and_an_intact_index() {
        const KEYS: u64 = 100_000;
        const THREADS: u64 = 4;
        let disk = Arc::new(InMemoryDisk::new());
        let t = Arc::new(Table::create(1, "t", 1, Arc::new(BufferPool::new(4_096, disk))));
        let wins: Vec<u64> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..THREADS)
                .map(|id| {
                    let t = &t;
                    scope.spawn(move || (0..KEYS).filter(|&k| t.insert(k, &[id as i64]).is_ok()).count() as u64)
                })
                .collect();
            racers.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(wins.iter().sum::<u64>(), KEYS, "exactly one winner per key: {wins:?}");
        assert_eq!(t.len(), KEYS);
        for k in 0..KEYS {
            let row = t.get(k).unwrap_or_else(|e| panic!("key {k}: {e}"));
            assert!((0..THREADS as i64).contains(&row[0]), "key {k} holds a row nobody inserted: {row:?}");
        }
        assert_eq!(t.heap().count().unwrap() as u64, t.len(), "no orphaned tuple");
    }

    #[test]
    fn logged_ops_stamp_the_lsn_their_closure_returns() {
        let pool = Arc::new(BufferPool::new(128, Arc::new(InMemoryDisk::new())));
        let t = Table::create(1, "t", 1, pool.clone());
        let page_lsn = |rid: Rid| pool.pin(rid.page).unwrap().read().lsn();
        let rid = t.insert_logged(1, &[10], |_| 5).unwrap();
        assert_eq!(page_lsn(rid), 5);
        let before = t
            .update_logged(1, &[11], |at, before| {
                assert_eq!((at, before), (rid, &[10][..]));
                9
            })
            .unwrap();
        assert_eq!((before, page_lsn(rid)), (vec![10], 9));
        // A refused insert runs no closure and stamps nothing.
        assert_eq!(t.insert_logged(1, &[99], |_| unreachable!()).unwrap_err(), StorageError::DuplicateKey(1));
        assert_eq!(page_lsn(rid), 9);
        assert_eq!(t.delete_logged(1, |_, before| before[0] as u64).unwrap(), vec![11]);
        assert_eq!(page_lsn(rid), 11);
        assert_eq!(t.update_logged(1, &[0], |_, _| unreachable!()).unwrap_err(), StorageError::KeyNotFound(1));
    }

    #[test]
    fn add_logs_both_images_and_stamps_the_lsn_its_closure_returns() {
        let pool = Arc::new(BufferPool::new(128, Arc::new(InMemoryDisk::new())));
        let t = Table::create(1, "t", 2, pool.clone());
        let page_lsn = |rid: Rid| pool.pin(rid.page).unwrap().read().lsn();
        let rid = t.insert_logged(1, &[10, 20], |_| 5).unwrap();
        let before = t
            .add_logged(1, 1, -7, |at, before, after| {
                assert_eq!((at, before, after), (rid, &[10, 20][..], &[10, 13][..]));
                9
            })
            .unwrap();
        assert_eq!((before, t.get(1).unwrap(), page_lsn(rid)), (Some(vec![10, 20]), vec![10, 13], 9));
    }

    #[test]
    fn an_overflowing_add_logs_nothing_and_changes_nothing() {
        let pool = Arc::new(BufferPool::new(128, Arc::new(InMemoryDisk::new())));
        let t = Table::create(1, "t", 2, pool.clone());
        let rid = t.insert_logged(1, &[i64::MAX, i64::MIN], |_| 5).unwrap();
        let bytes = || t.heap().get(rid).unwrap();
        let image = bytes();
        assert_eq!(t.add_logged(1, 0, 1, |_, _, _| unreachable!()).unwrap(), None);
        assert_eq!(t.add_logged(1, 1, -1, |_, _, _| unreachable!()).unwrap(), None);
        assert_eq!(bytes(), image);
        assert_eq!(pool.pin(rid.page).unwrap().read().lsn(), 5);
        // The edges themselves are reachable.
        assert_eq!(t.add_logged(1, 0, i64::MIN, |_, _, _| 6).unwrap(), Some(vec![i64::MAX, i64::MIN]));
        assert_eq!(t.get(1).unwrap(), vec![-1, i64::MIN]);
    }

    #[test]
    fn add_refuses_a_column_past_the_arity_a_missing_key_and_a_ragged_tuple() {
        let t = table(2);
        t.insert(1, &[1, 2]).unwrap();
        assert_eq!(
            t.add_logged(1, 2, 1, |_, _, _| unreachable!()).unwrap_err(),
            StorageError::ArityMismatch { expected: 2, got: 3 }
        );
        assert_eq!(t.add_logged(9, 0, 1, |_, _, _| unreachable!()).unwrap_err(), StorageError::KeyNotFound(9));
        for bad in [encode_row(1, &[5]), encode_row(1, &[5, 6])[..20].to_vec(), encode_row(1, &[5, 6, 7])] {
            t.heap().update(t.rid_of(1).unwrap(), &bad, |_| 0).unwrap();
            assert_eq!(
                t.add_logged(1, 0, 1, |_, _, _| unreachable!()).unwrap_err(),
                StorageError::CorruptRow { len: bad.len() }
            );
            assert_eq!(t.heap().get(t.rid_of(1).unwrap()).unwrap(), bad, "left as it was");
        }
    }

    #[test]
    fn a_secondary_index_on_the_added_column_tracks_the_sum() {
        use crate::schema::{IndexDef, IndexKind};
        let pool = Arc::new(BufferPool::new(128, Arc::new(InMemoryDisk::new())));
        let def = IndexDef { id: 0, name: "r1".into(), col: 1, kind: IndexKind::Range };
        let t = Table::create_indexed(1, "t", 2, vec![def], pool);
        t.insert(1, &[0, 100]).unwrap();
        t.insert(2, &[0, 200]).unwrap();
        t.add_logged(1, 1, 150, |_, _, _| 0).unwrap();
        let ix = t.secondary(0).unwrap();
        assert_eq!(ix.lookup_eq(100), Vec::<u64>::new());
        assert_eq!(ix.lookup_eq(250), vec![1]);
        assert_eq!(ix.lookup_range(200, 250).unwrap(), vec![1, 2]);
        // A refused add leaves the index alone.
        t.add_logged(2, 1, i64::MAX, |_, _, _| 0).unwrap();
        assert_eq!(ix.lookup_eq(200), vec![2]);
    }

    #[test]
    fn concurrent_updates_do_not_corrupt() {
        let t = Arc::new(table(1));
        for k in 0..16u64 {
            t.insert(k, &[0]).unwrap();
        }
        let mut handles = Vec::new();
        for id in 0..4u64 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    let k = (id + i) % 16;
                    // Read-modify-write without transactions: values may race,
                    // but structure must stay intact.
                    if let Ok(row) = t.get(k) {
                        let _ = t.update(k, &[row[0] + 1]);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.len(), 16);
        for k in 0..16u64 {
            assert_eq!(t.get(k).unwrap().len(), 1);
        }
    }
}

//! Critical-path counts: what one transaction costs, in things that repeat
//! exactly — lock-table visits to acquire and to release, buffer-pool pins,
//! heap allocations, log bytes and log flushes — on `EngineConfig::conventional_baseline()`, one thread.
//!
//! Alone in its binary: it installs a counting global allocator, and every
//! row runs inside the one `#[test]`, so no other thread allocates
//! meanwhile; the `#[ignore]`d tests take the same [`ALONE`] lock, so a run
//! that includes them still counts one test at a time.
//! Specs are generated before the counted region; the counts are the
//! engine's (`Database::run_spec`), not the generator's. The limits are the
//! numbers the engine reaches today (the fractions are heap-page and B-tree
//! growth, the byte counts include the log store's fresh 1 MiB segments;
//! all of it repeats exactly for a seed): a count that moves prints itself.
//!
//! At the parent of the change that added this file the same run printed,
//! per TPC-B transaction: 21 lock visits, 11.009 pins, 58.507 allocations,
//! 4,681 B.
//!
//! At the parent of the change that fused an `Add` into one read-modify-write
//! (`Table::add_logged`: one descent, one pin, one latch, where a read and
//! an update took two of each) the same run printed 7.009 pins and 23.341
//! allocations (2,389 B) per TPC-B transaction, and 2.000 pins and 9.000
//! allocations (1,149 B) per YCSB update; lock visits, log bytes and
//! flushes were the same as now.
//!
//! The `olap.*` rows count one analytical query of the staged engine over
//! the referee's `olap.scan` table shape. At the parent of the change that
//! added them (scan materialised as `Vec<Row>`, one pass per stage) the same
//! run printed, per query, 882 pins (= heap pages), no lock visit, no log
//! byte, and 400,805 allocations (33.4 MB) for scan_agg, 400,902 for
//! filter_group, 402,829 for filter_sort.
//!
//! At the parent of the change that made a B+tree node one allocation with
//! its keys inline, and split an append so that it fills nodes, the same run
//! printed 14.341 allocations (2,285 B) per TPC-B transaction, where
//! `history` inserts grew key and value `Vec`s, and the `btree.append` row
//! printed 33,601 allocations (6.03 MB, 60.32 B/key), made by 12,500 of its
//! 100,000 inserts, at the same height 4; every other count was the same as
//! now.
//!
//! At the parent of the change that tested a scan's filters on the page
//! bytes and decoded straight into the outgoing packet, the same run printed
//! 22, 72 and 2,072 allocations for scan_agg, filter_group and filter_sort;
//! pins, lock visits and log bytes were the same as now.
//!
//! At the parent of the change that split the buffer pool into a dense frame
//! table and page memory materialized in 2 MiB chunks on first use, the
//! `open` row printed 9 allocations (67,374,376 B: one array of 8,192
//! formatted frames, page and bookkeeping together); the `ycsb.spill` row
//! printed the same counts as now, and every other row was unchanged.
//!
//! At the parent of the change that let a thread's transactions inherit the
//! database and table intention grants (speculative lock inheritance) and
//! reuse a reclaimed row entry's granted set, the same run printed 9 lock
//! visits and 9 release visits per TPC-B transaction (database, 4 tables, 4
//! rows) and 3 and 3 per TATP read and per YCSB update (database, table,
//! row). It printed 14.037 allocations (2,243 B) per TPC-B transaction,
//! 4.000 (504 B) per TATP read, 6.000 (1,109 B) per YCSB update and 10.386
//! (890 B) per `ycsb.spill` transaction: one of them the fresh lock list,
//! and one each row lock's granted set. Pins, log bytes and flushes, and the
//! `open` row, were the same as now.
//!
//! At the parent of the change that cut the log store into fixed 1 MiB
//! segments (it was one `Vec` that doubled, and every doubling copied the
//! whole log) the same run printed 1,603 allocated bytes per TPC-B
//! transaction, 661 per YCSB update and 250 per `ycsb.spill` transaction,
//! and the `open` row 135,216 B; every count was the same as now. The
//! WAL's registry of live readers' log pins, added with it, costs `open`
//! 56 B of its `Wal` allocation (135,208 B without it). The
//! `#[ignore]`d test below drives the engine's checkpoint schedule at its
//! real threshold (`scripts/ci.sh` runs it in release with `--ignored`).
//!
//! At the parent of the change that loaded a population in bulk (rows
//! streamed into full heap pages, each primary index built bottom-up),
//! encoded an insert's row straight into its page, and built a store page's
//! memory at its first write, the same run printed 9.037 allocations (777 B)
//! per TPC-B transaction: one of them the encoded row, and 0.004 the store
//! page of each new `history` page. Every other row was the same as now; the
//! `load.ycsb` row and the second `#[ignore]`d test, the same load at the
//! referee's 4,000,000 rows, are new with it.

use esdb::core::query::QueryEngine;
use esdb::core::{Database, EngineConfig};
use esdb::staged::{AggFunc, CmpOp, DEFAULT_BATCH};
use esdb::storage::btree::BTree;
use esdb::storage::page::PAGE_SIZE;
use esdb::wal::buffer::{RECYCLE_SEGMENTS, SEGMENT_BYTES};
use esdb::workload::{Tatp, Tpcb, TxnSpec, Workload, Ycsb};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
/// Allocations of exactly a log segment's size.
static SEGMENT_ALLOCS: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    if size == SEGMENT_BYTES {
        SEGMENT_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// plain statistics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Held by each test for its whole run: the counters are process-wide.
static ALONE: Mutex<()> = Mutex::new(());

fn alone() -> MutexGuard<'static, ()> {
    ALONE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

const WARM_UP: usize = 10_000;
const MEASURED: usize = 10_000;

/// Cumulative counters, all monotone.
#[derive(Clone, Copy)]
struct Counters {
    lock_visits: u64,
    lock_releases: u64,
    lock_waits: u64,
    pins: u64,
    misses: u64,
    writebacks: u64,
    wal_bytes: u64,
    wal_flushes: u64,
    allocs: u64,
    alloc_bytes: u64,
}

fn snapshot(db: &Database) -> Counters {
    let locks = db.txn_manager().locks().stats();
    let pool = db.pool().stats();
    Counters {
        lock_visits: locks.acquisitions,
        lock_releases: locks.releases,
        lock_waits: locks.waits,
        pins: pool.hits + pool.misses,
        misses: pool.misses,
        writebacks: pool.writebacks,
        wal_bytes: db.wal().current_lsn(),
        wal_flushes: db.wal().flush_count(),
        allocs: ALLOCS.load(Ordering::Relaxed),
        alloc_bytes: ALLOC_BYTES.load(Ordering::Relaxed),
    }
}

/// Per-transaction averages over the measured specs (totals for the exact
/// counts, so equality is integer equality).
struct Row {
    lock_visits: u64,
    lock_releases: u64,
    lock_waits: u64,
    wal_bytes: u64,
    wal_flushes: u64,
    misses: u64,
    writebacks: u64,
    store_pages: u64,
    pins: f64,
    allocs: f64,
    alloc_bytes: f64,
}

fn measure(workload: &mut dyn Workload, keep: impl Fn(&TxnSpec) -> bool) -> Row {
    measure_on(EngineConfig::conventional_baseline(), workload, keep)
}

fn measure_on(config: EngineConfig, workload: &mut dyn Workload, keep: impl Fn(&TxnSpec) -> bool) -> Row {
    let db = Database::open(config);
    db.load_population(workload).expect("population load");
    let specs: Vec<TxnSpec> = std::iter::repeat_with(|| workload.next_txn())
        .filter(keep)
        .take(WARM_UP + MEASURED)
        .collect();
    let run = |specs: &[TxnSpec]| {
        for spec in specs {
            assert!(db.run_spec(spec).is_committed(), "{spec:?}");
        }
    };
    run(&specs[..WARM_UP]);
    let before = snapshot(&db);
    run(&specs[WARM_UP..]);
    let after = snapshot(&db);
    let per_txn = |a: u64, b: u64| (a - b) as f64 / MEASURED as f64;
    Row {
        lock_visits: after.lock_visits - before.lock_visits,
        lock_releases: after.lock_releases - before.lock_releases,
        lock_waits: after.lock_waits - before.lock_waits,
        wal_bytes: after.wal_bytes - before.wal_bytes,
        wal_flushes: after.wal_flushes - before.wal_flushes,
        misses: after.misses - before.misses,
        writebacks: after.writebacks - before.writebacks,
        store_pages: db.pool().disk().num_pages(),
        pins: per_txn(after.pins, before.pins),
        allocs: per_txn(after.allocs, before.allocs),
        alloc_bytes: per_txn(after.alloc_bytes, before.alloc_bytes),
    }
}

impl Row {
    /// `exact` = per-transaction (lock visits, release visits, WAL bytes,
    /// WAL flushes); `limit` = per-transaction ceilings (pins, allocations,
    /// allocated bytes).
    fn check(&self, name: &str, exact: (u64, u64, u64, u64), limit: (f64, f64, f64)) {
        let n = MEASURED as u64;
        println!(
            "{name}: lock visits {:.3}, release visits {:.3}, pins {:.3}, allocations {:.3} ({:.0} B), wal {:.1} B in {:.3} flushes",
            self.lock_visits as f64 / n as f64,
            self.lock_releases as f64 / n as f64,
            self.pins,
            self.allocs,
            self.alloc_bytes,
            self.wal_bytes as f64 / n as f64,
            self.wal_flushes as f64 / n as f64,
        );
        assert_eq!(self.lock_waits, 0, "{name}: one thread never waits for a lock");
        assert_eq!(
            self.lock_visits,
            exact.0 * n,
            "{name}: lock-table visits per txn = {:.3}, pinned at {}",
            self.lock_visits as f64 / n as f64,
            exact.0
        );
        assert_eq!(
            self.lock_releases,
            exact.1 * n,
            "{name}: lock-table release visits per txn = {:.3}, pinned at {}",
            self.lock_releases as f64 / n as f64,
            exact.1
        );
        assert_eq!(
            self.wal_bytes,
            exact.2 * n,
            "{name}: WAL bytes per txn = {:.3}, pinned at {}",
            self.wal_bytes as f64 / n as f64,
            exact.2
        );
        assert_eq!(
            self.wal_flushes,
            exact.3 * n,
            "{name}: WAL flushes per txn = {:.3}, pinned at {}",
            self.wal_flushes as f64 / n as f64,
            exact.3
        );
        assert!(self.pins <= limit.0, "{name}: buffer-pool pins per txn = {:.3} > {}", self.pins, limit.0);
        assert!(self.allocs <= limit.1, "{name}: allocations per txn = {:.3} > {}", self.allocs, limit.1);
        assert!(
            self.alloc_bytes <= limit.2,
            "{name}: allocated bytes per txn = {:.0} > {}",
            self.alloc_bytes,
            limit.2
        );
    }
}

/// One staged query each of the referee's three `olap.scan` plans over a
/// 200,000-row `[k % 100, v, k]` table, after one warm-up query each. A query
/// takes no lock and logs nothing, pins every heap page exactly once, and
/// allocates per operator and per result row — never per scanned row.
fn olap_counts_are_pinned() {
    const ROWS: u64 = 200_000;
    let db = Database::open(EngineConfig::conventional_baseline());
    let id = db.create_table("facts", 3).expect("create table");
    let table = db.table(id).expect("table just created");
    for k in 0..ROWS {
        table.insert(k, &[(k % 100) as i64, (k * 7 % 1_000) as i64, k as i64]).expect("load");
    }
    let heap_pages = table.heap().pages().len() as u64;
    let scan = || db.scan_plan(id);
    // (name, plan, result rows, allocation ceiling)
    let plans = [
        ("olap.scan_agg", scan().aggregate(None, 2, AggFunc::Sum), 1, 21),
        ("olap.filter_group", scan().filter(1, CmpOp::Lt, 10).aggregate(Some(1), 2, AggFunc::Sum).sort(0), 10, 70),
        ("olap.filter_sort", scan().filter(1, CmpOp::Eq, 7).project(vec![0, 2]).sort(0), 2_000, 2_064),
    ];
    for (name, plan, result_rows, alloc_limit) in plans {
        let engine = QueryEngine::Staged { batch: DEFAULT_BATCH };
        assert_eq!(db.query(&plan, engine).len(), result_rows, "{name}");
        let before = snapshot(&db);
        let rows = db.query(&plan, engine);
        let after = snapshot(&db);
        assert_eq!(rows.len(), result_rows, "{name}");
        let (pins, allocs) = (after.pins - before.pins, after.allocs - before.allocs);
        println!(
            "{name}: lock visits {}, pins {pins} over {heap_pages} heap pages, allocations {allocs} ({} B), wal {} B",
            after.lock_visits - before.lock_visits,
            after.alloc_bytes - before.alloc_bytes,
            after.wal_bytes - before.wal_bytes,
        );
        assert_eq!(after.lock_visits, before.lock_visits, "{name}: a query takes no lock");
        assert_eq!(after.wal_bytes, before.wal_bytes, "{name}: a query logs nothing");
        assert_eq!(pins, heap_pages, "{name}: one pin per heap page");
        assert!(allocs <= alloc_limit, "{name}: allocations per query = {allocs} > {alloc_limit}");
    }
}

/// One `Database::open` at the default 8,192 frames, before it holds a row:
/// what a database costs to open. `conventional_baseline()`, like every row
/// here; `EngineConfig::default()`'s consolidated log adds its 4 MiB ring.
fn open_counts_are_pinned() {
    // The frame table (16 B a frame) and a slot for each 2 MiB chunk of pages.
    const ALLOCS_LIMIT: u64 = 10;
    const BYTES_LIMIT: u64 = 135_264;
    let (allocs, bytes) = (ALLOCS.load(Ordering::Relaxed), ALLOC_BYTES.load(Ordering::Relaxed));
    let db = Database::open(EngineConfig::conventional_baseline());
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs;
    let bytes = ALLOC_BYTES.load(Ordering::Relaxed) - bytes;
    let frames = db.pool().capacity();
    println!("open: {frames} frames, {allocs} allocations ({bytes} B)");
    assert_eq!(frames, 8_192);
    assert!(allocs <= ALLOCS_LIMIT, "open: allocations = {allocs} > {ALLOCS_LIMIT}");
    assert!(bytes <= BYTES_LIMIT, "open: allocated bytes = {bytes} > {BYTES_LIMIT}");
}

/// The referee's `engine.ycsb.spill` mix (95 % reads, 4 operations a
/// transaction, θ = 0.5) over 40,000 rows in a 64-frame pool: the table is
/// more than twice the pool, so pins miss, evict and write back. The pool
/// counts and log flushes are totals over the measured transactions and
/// repeat exactly for the seed. Bytes copied are the page images the misses
/// read and the write-backs write, 8 KiB each.
fn ycsb_spill_counts_are_pinned() {
    const FRAMES: usize = 64;
    // Totals over the measured transactions: pins, misses, write-backs, flushes.
    const EXACT: (u64, u64, u64, u64) = (40_000, 16_461, 1_691, 1_865);
    // Per-transaction ceilings: allocations, allocated bytes.
    const LIMIT: (f64, f64) = (5.39, 197.0);
    let config = EngineConfig { buffer_frames: FRAMES, ..EngineConfig::conventional_baseline() };
    let row = measure_on(config, &mut Ycsb::new(40_000, 95, 0.5, 4, 42), |_| true);
    let n = MEASURED as f64;
    let copied = (row.misses + row.writebacks) * PAGE_SIZE as u64;
    println!(
        "ycsb.spill: {} store pages in {FRAMES} frames, pins {:.4}, misses {:.4}, write-backs {:.4}, copied {:.0} B, allocations {:.3} ({:.0} B), {:.4} flushes",
        row.store_pages,
        row.pins,
        row.misses as f64 / n,
        row.writebacks as f64 / n,
        copied as f64 / n,
        row.allocs,
        row.alloc_bytes,
        row.wal_flushes as f64 / n,
    );
    assert!(row.store_pages >= 2 * FRAMES as u64, "ycsb.spill: the table must be at least twice the pool");
    assert_eq!(row.lock_waits, 0, "ycsb.spill: one thread never waits for a lock");
    assert_eq!(
        (row.pins, row.misses, row.writebacks, row.wal_flushes),
        (EXACT.0 as f64 / n, EXACT.1, EXACT.2, EXACT.3),
        "ycsb.spill: (pins, misses, write-backs, WAL flushes) over {MEASURED} txns"
    );
    assert!(row.allocs <= LIMIT.0, "ycsb.spill: allocations per txn = {:.3} > {}", row.allocs, LIMIT.0);
    assert!(row.alloc_bytes <= LIMIT.1, "ycsb.spill: allocated bytes per txn = {:.0} > {}", row.alloc_bytes, LIMIT.1);
}

/// 100,000 key-ordered inserts into a fresh `BTree`: a table population, or
/// TPC-B's `history` appends. A node is one allocation and the append split
/// leaves every node full, so the allocations are exactly the nodes made:
/// 3,125 leaves of 32 keys, 95 + 3 + 1 internal nodes of up to 33 children,
/// less the root leaf `BTree::new` made. Only an insert that splits a leaf
/// allocates (an internal split or a new root rides on one).
fn btree_append_counts_are_pinned() {
    const KEYS: u64 = 100_000;
    const NODES_MADE: u64 = 3_125 + 95 + 3 + 1 - 1;
    let tree = BTree::new();
    let before = ALLOC_BYTES.load(Ordering::Relaxed);
    let (mut allocs, mut allocating_inserts) = (0, 0);
    for k in 0..KEYS {
        let a = ALLOCS.load(Ordering::Relaxed);
        tree.insert(k, k);
        let made = ALLOCS.load(Ordering::Relaxed) - a;
        allocs += made;
        allocating_inserts += u64::from(made > 0);
    }
    let bytes = ALLOC_BYTES.load(Ordering::Relaxed) - before;
    println!(
        "btree.append: {KEYS} keys, {allocs} allocations ({bytes} B, {:.2} B/key) in {allocating_inserts} inserts, height {}",
        bytes as f64 / KEYS as f64,
        tree.height()
    );
    assert_eq!(allocs, NODES_MADE, "btree.append: one allocation per node");
    assert_eq!(
        allocating_inserts,
        3_125 - 1,
        "btree.append: only a leaf split allocates"
    );
    assert_eq!(
        bytes,
        NODES_MADE * 560,
        "btree.append: heap bytes (560 B a node)"
    );
    assert_eq!(tree.height(), 4);
}

/// `Database::load_population` of the referee's YCSB table shape (two
/// columns, 28 B a tuple and its slot, 292 rows a heap page) at 40,000 rows,
/// the default 8,192 frames. A bulk load takes one pin per heap page, no
/// lock and no log byte, and allocates per B+tree node and per heap page
/// (its store image, built at the closing flush) plus a fixed set of
/// vectors and pool chunks: nothing per row.
fn ycsb_load_counts_are_pinned() {
    const ROWS: u64 = 40_000;
    // 137 heap pages; 1,250 leaves + 38 + 2 + 1 internal nodes.
    const SHAPE: (u64, u64, usize) = (137, 1_291, 4);
    // The tables' names and vectors, the doublings of the vectors that
    // grow with the load, a pool chunk, the flush's batch.
    const OTHER_ALLOCS: u64 = 57;
    let db = Database::open(EngineConfig::conventional_baseline());
    let workload = Ycsb::new(ROWS, 95, 0.5, 4, 42);
    let before = snapshot(&db);
    db.load_population(&workload).expect("population load");
    let after = snapshot(&db);
    let table = db.table(0).expect("the loaded table");
    let (pages, nodes) = (table.heap().pages().len() as u64, table.index().node_count());
    let height = table.index().height();
    let (pins, allocs) = (after.pins - before.pins, after.allocs - before.allocs);
    println!(
        "load.ycsb: {ROWS} rows, {pages} heap pages, {nodes} index nodes at height {height}, pins {pins}, allocations {allocs} ({} B), lock visits {}, wal {} B",
        after.alloc_bytes - before.alloc_bytes,
        after.lock_visits - before.lock_visits,
        after.wal_bytes - before.wal_bytes,
    );
    assert_eq!((pages, nodes, height), SHAPE, "load.ycsb: (heap pages, index nodes, height)");
    assert_eq!(pins, pages, "load.ycsb: one pin per heap page");
    assert_eq!(allocs, nodes + pages + OTHER_ALLOCS, "load.ycsb: allocations = nodes + pages + {OTHER_ALLOCS}");
    assert_eq!(after.lock_visits, before.lock_visits, "load.ycsb: a load takes no lock");
    assert_eq!(after.wal_bytes, before.wal_bytes, "load.ycsb: a load logs nothing");
}

#[test]
fn per_transaction_counts_are_pinned() {
    let _alone = alone();
    // TPC-B: 3 `Add` + 1 `Insert` = 9 distinct locks (database, 4 tables,
    // 4 rows), of which the 5 intention locks are inherited from the
    // previous transaction on the thread: 4 row visits, 4 releases.
    // Begin 25 + Update 65 + 81 + 81 + Insert 71 + Commit 25 B.
    measure(&mut Tpcb::new(2, 42), |_| true).check("tpcb", (4, 4, 348, 1), (4.01, 8.04, 710.0));
    // TATP GetSubscriberData: one read, nothing logged.
    measure(&mut Tatp::new(1_000, 42), |s| s.kind == "GetSubscriberData")
        .check("tatp.read", (1, 1, 0, 0), (1.0, 2.01, 56.0));
    // YCSB update: one `Add` on a 2-column row; Begin 25 + Update 81 + Commit 25 B.
    measure(&mut Ycsb::new(10_000, 0, 0.5, 1, 42), |_| true)
        .check("ycsb.update", (1, 1, 131, 1), (1.0, 4.01, 338.0));
    ycsb_spill_counts_are_pinned();
    olap_counts_are_pinned();
    btree_append_counts_are_pinned();
    ycsb_load_counts_are_pinned();
    open_counts_are_pinned();
}

/// The checkpoint schedule at its real threshold: single-threaded TPC-B
/// until the engine has checkpointed and truncated its log three times.
/// The live log never passes the threshold by a segment, and once the
/// first checkpoint has freed segments no append allocates one again. Slow
/// in debug; `scripts/ci.sh` runs it in release.
#[test]
#[ignore]
fn the_checkpoint_schedule_bounds_the_log() {
    let _alone = alone();
    const THRESHOLD: u64 = (SEGMENT_BYTES * RECYCLE_SEGMENTS) as u64;
    let db = Database::open(EngineConfig::conventional_baseline());
    let mut tpcb = Tpcb::new(2, 42);
    db.load_population(&tpcb).expect("population load");
    let wal = db.wal();
    let (mut recycled, mut base, mut peak) = (0, wal.start_lsn(), 0);
    let mut segment_allocs = 0;
    while recycled < 3 {
        assert!(db.run_spec(&tpcb.next_txn()).is_committed());
        peak = peak.max(wal.durable_len());
        if wal.start_lsn() > base {
            (recycled, base) = (recycled + 1, wal.start_lsn());
            if recycled == 1 {
                segment_allocs = SEGMENT_ALLOCS.load(Ordering::Relaxed);
            }
        }
        assert!(wal.current_lsn() < 4 * THRESHOLD, "the schedule stopped firing");
    }
    let fresh = SEGMENT_ALLOCS.load(Ordering::Relaxed) - segment_allocs;
    println!(
        "schedule: {recycled} checkpoints over {} B of log, live log peak {peak} B, {fresh} segments allocated after the first",
        wal.current_lsn()
    );
    assert!(peak < THRESHOLD + SEGMENT_BYTES as u64, "live log peaked at {peak} B");
    assert_eq!(fresh, 0, "appends after the first checkpoint reuse freed segments");
}

/// The referee's `engine.ycsb.spill` set-up at its own size: 4,000,000 rows
/// into the default 8,192 frames, a table of about twice the pool. Counts as
/// the `load.ycsb` row does, and prints the set-up split into opening the
/// database, streaming the population alone, and the load. Slow in debug;
/// `scripts/ci.sh` runs it in release.
#[test]
#[ignore]
fn a_referee_sized_load_pins_each_heap_page_once() {
    let _alone = alone();
    const ROWS: u64 = 4_000_000;
    // 13,699 heap pages of 292 rows; 125,000 leaves + 3,788 + 115 + 4 + 1.
    const SHAPE: (u64, u64, usize) = (13_699, 128_908, 5);
    // As `load.ycsb`'s, with more doublings and 32 pool chunks.
    const OTHER_ALLOCS: u64 = 118;
    let start = Instant::now();
    let db = Database::open(EngineConfig::conventional_baseline());
    let open = start.elapsed();
    let workload = Ycsb::new(ROWS, 95, 0.5, 4, 42);
    let start = Instant::now();
    let mut streamed = 0;
    workload.population(&mut |_, key, row| streamed += key as usize + row.len());
    let population = start.elapsed();
    let before = snapshot(&db);
    let start = Instant::now();
    db.load_population(&workload).expect("population load");
    let load = start.elapsed();
    let after = snapshot(&db);
    let table = db.table(0).expect("the loaded table");
    let (pages, nodes) = (table.heap().pages().len() as u64, table.index().node_count());
    let height = table.index().height();
    let (pins, allocs) = (after.pins - before.pins, after.allocs - before.allocs);
    println!(
        "load.ycsb.4m: {ROWS} rows in {} frames, {pages} heap pages, {nodes} index nodes at height {height}, pins {pins}, write-backs {}, allocations {allocs} ({} B); open {open:?}, population {population:?} ({streamed}), load {load:?}",
        db.pool().capacity(),
        after.writebacks - before.writebacks,
        after.alloc_bytes - before.alloc_bytes,
    );
    assert_eq!(db.pool().capacity(), 8_192);
    assert_eq!((pages, nodes, height), SHAPE, "load.ycsb.4m: (heap pages, index nodes, height)");
    assert_eq!(pins, pages, "load.ycsb.4m: one pin per heap page");
    assert_eq!(allocs, nodes + pages + OTHER_ALLOCS, "load.ycsb.4m: allocations = nodes + pages + {OTHER_ALLOCS}");
    assert_eq!(after.lock_visits, before.lock_visits, "load.ycsb.4m: a load takes no lock");
    assert_eq!(after.wal_bytes, before.wal_bytes, "load.ycsb.4m: a load logs nothing");
}

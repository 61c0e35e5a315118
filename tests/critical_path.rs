//! Critical-path counts: what one transaction costs, in things that repeat
//! exactly — lock-table visits, buffer-pool pins, heap allocations, log bytes
//! and log flushes — on `EngineConfig::conventional_baseline()`, one thread.
//!
//! Alone in its binary: it installs a counting global allocator, and every
//! row runs inside the one `#[test]` so no other thread allocates meanwhile.
//! Specs are generated before the counted region; the counts are the
//! engine's (`Database::run_spec`), not the generator's. The limits are the
//! numbers the engine reaches today (the fractions are heap-page and B-tree
//! growth, the byte counts include the log store's doubling; all of it
//! repeats exactly for a seed): a count that moves prints itself.
//!
//! At the parent of the change that added this file the same run printed,
//! per TPC-B transaction: 21 lock visits, 11.009 pins, 58.507 allocations,
//! 4,681 B.
//!
//! At the parent of the change that fused an `Add` into one read-modify-write
//! (`Table::add_logged`: one descent, one pin, one latch, where a read and
//! an update took two of each) the same run printed 7.009 pins and 23.341
//! allocations (2,389 B) per TPC-B transaction, and 2.000 pins and 9.000
//! allocations (1,149 B) per YCSB update (9.0001: the log store doubles
//! once in the window, as it still does); lock visits, log bytes and
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

use esdb::core::query::QueryEngine;
use esdb::core::{Database, EngineConfig};
use esdb::staged::{AggFunc, CmpOp, DEFAULT_BATCH};
use esdb::storage::btree::BTree;
use esdb::workload::{Tatp, Tpcb, TxnSpec, Workload, Ycsb};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
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

const WARM_UP: usize = 10_000;
const MEASURED: usize = 10_000;

/// Cumulative counters, all monotone.
#[derive(Clone, Copy)]
struct Counters {
    lock_visits: u64,
    lock_waits: u64,
    pins: u64,
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
        lock_waits: locks.waits,
        pins: pool.hits + pool.misses,
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
    lock_waits: u64,
    wal_bytes: u64,
    wal_flushes: u64,
    pins: f64,
    allocs: f64,
    alloc_bytes: f64,
}

fn measure(workload: &mut dyn Workload, keep: impl Fn(&TxnSpec) -> bool) -> Row {
    let db = Database::open(EngineConfig::conventional_baseline());
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
        lock_waits: after.lock_waits - before.lock_waits,
        wal_bytes: after.wal_bytes - before.wal_bytes,
        wal_flushes: after.wal_flushes - before.wal_flushes,
        pins: per_txn(after.pins, before.pins),
        allocs: per_txn(after.allocs, before.allocs),
        alloc_bytes: per_txn(after.alloc_bytes, before.alloc_bytes),
    }
}

impl Row {
    /// `exact` = per-transaction (lock visits, WAL bytes, WAL flushes);
    /// `limit` = per-transaction ceilings (pins, allocations, allocated bytes).
    fn check(&self, name: &str, exact: (u64, u64, u64), limit: (f64, f64, f64)) {
        let n = MEASURED as u64;
        println!(
            "{name}: lock visits {:.3}, pins {:.3}, allocations {:.3} ({:.0} B), wal {:.1} B in {:.3} flushes",
            self.lock_visits as f64 / n as f64,
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
            self.wal_bytes,
            exact.1 * n,
            "{name}: WAL bytes per txn = {:.3}, pinned at {}",
            self.wal_bytes as f64 / n as f64,
            exact.1
        );
        assert_eq!(
            self.wal_flushes,
            exact.2 * n,
            "{name}: WAL flushes per txn = {:.3}, pinned at {}",
            self.wal_flushes as f64 / n as f64,
            exact.2
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

#[test]
fn per_transaction_counts_are_pinned() {
    // TPC-B: 3 `Add` + 1 `Insert` = 9 distinct locks (database, 4 tables,
    // 4 rows); Begin 25 + Update 65 + 81 + 81 + Insert 71 + Commit 25 B.
    measure(&mut Tpcb::new(2, 42), |_| true).check("tpcb", (9, 348, 1), (4.01, 14.04, 2_300.0));
    // TATP GetSubscriberData: one read, nothing logged.
    measure(&mut Tatp::new(1_000, 42), |s| s.kind == "GetSubscriberData")
        .check("tatp.read", (3, 0, 0), (1.0, 4.01, 504.0));
    // YCSB update: one `Add` on a 2-column row; Begin 25 + Update 81 + Commit 25 B.
    measure(&mut Ycsb::new(10_000, 0, 0.5, 1, 42), |_| true)
        .check("ycsb.update", (3, 131, 1), (1.0, 6.01, 1_110.0));
    olap_counts_are_pinned();
    btree_append_counts_are_pinned();
}

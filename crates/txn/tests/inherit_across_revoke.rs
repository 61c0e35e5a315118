//! `Mutation::InheritAcrossRevoke` is caught: with it switched on, an agent
//! keeps the intention lock a table scan took from it, and its next
//! transaction writes rows under the scan's table S lock, so the scan sees
//! a transfer half done. Alone in its binary because the scheduler hook
//! that switches the mutation on is process-wide.

use esdb_lock::LockManager;
use esdb_storage::{BufferPool, InMemoryDisk, Table};
use esdb_sync::sched::{self, Mutation, SchedHook, YieldPoint};
use esdb_txn::TxnManager;
use esdb_wal::{LogPolicy, Wal};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

const TABLE: u32 = 1;
const ROWS: u64 = 8;
const ROUNDS: usize = 5;

/// Governs no thread; only answers whether the mutation is on.
struct Mutate;

impl SchedHook for Mutate {
    fn yield_now(&self, _point: YieldPoint) {}
    fn block_until(&self, _point: YieldPoint, _ready: &mut dyn FnMut() -> bool) -> bool {
        false
    }
    fn register_spawned(&self, _tag: u64) -> bool {
        false
    }
    fn deregister_spawned(&self) {}
    fn sync_spawned(&self, _count: usize) {}
    fn mutated(&self, m: Mutation) -> bool {
        m == Mutation::InheritAcrossRevoke
    }
}

/// `ROUNDS` rounds of: a writer thread, whose agent inherited the table's
/// IX, stands idle; the main thread's scan takes the table S lock (taking
/// that IX away); the writer moves 1 from row 0 to row 1; and the scan, once
/// the writer has either blocked on the table or moved half the value,
/// sums the table again inside its transaction. The writer reports on
/// `half` when it is idle and when it is halfway. Returns the sums seen.
fn scan_sums() -> Vec<i64> {
    let disk = Arc::new(InMemoryDisk::new());
    let pool = Arc::new(BufferPool::new(64, disk));
    let locks = Arc::new(LockManager::with_timeout(16, Duration::from_secs(10)));
    let mgr = Arc::new(TxnManager::new(
        locks,
        Arc::new(Wal::new(LogPolicy::Consolidated, None)),
        false,
    ));
    mgr.register_table(Arc::new(Table::create(TABLE, "accounts", 1, pool)));
    for k in 0..ROWS {
        mgr.run(0, |t| t.insert(TABLE, k, &[100])).unwrap();
    }
    let (go, gone) = mpsc::channel::<()>();
    let (half, halved) = mpsc::channel::<()>();
    let (ack, acked) = mpsc::channel::<()>();
    let writer = {
        let mgr = Arc::clone(&mgr);
        std::thread::spawn(move || {
            // Inherit the intention locks, then transfer once per round.
            mgr.run(0, |t| t.add(TABLE, 0, 0, 0).map(drop)).unwrap();
            half.send(()).unwrap();
            for () in gone {
                let mut t = mgr.begin();
                t.add(TABLE, 0, 0, -1).unwrap();
                half.send(()).unwrap();
                acked.recv().unwrap();
                t.add(TABLE, 1, 0, 1).unwrap();
                t.commit();
                half.send(()).unwrap();
            }
        })
    };
    let sum = |rows: Vec<(u64, Vec<i64>)>| rows.iter().map(|(_, r)| r[0]).sum::<i64>();
    let mut sums = Vec::new();
    halved.recv().unwrap();
    for _ in 0..ROUNDS {
        // The writer is idle until `go`: its agent's grant is taken, not waited for.
        let mut scan = mgr.begin();
        sums.push(sum(scan.range(TABLE, 0, ROWS - 1).unwrap()));
        let waits = mgr.locks().stats().waits;
        go.send(()).unwrap();
        let mut half_done = false;
        while !half_done && mgr.locks().stats().waits == waits {
            half_done = halved.recv_timeout(Duration::from_millis(1)).is_ok();
        }
        sums.push(sum(scan.range(TABLE, 0, ROWS - 1).unwrap()));
        scan.commit();
        if !half_done {
            halved.recv().unwrap();
        }
        ack.send(()).unwrap();
        halved.recv().unwrap();
    }
    drop(go);
    writer.join().unwrap();
    let mut end = mgr.begin();
    sums.push(sum(end.range(TABLE, 0, ROWS - 1).unwrap()));
    end.commit();
    sums
}

#[test]
fn inheriting_across_a_revoke_tears_a_scan() {
    let total = ROWS as i64 * 100;
    let clean = scan_sums();
    assert!(
        clean.iter().all(|&s| s == total),
        "every sum conserved: {clean:?}"
    );

    sched::install(Arc::new(Mutate));
    let mutated = scan_sums();
    sched::uninstall();
    assert!(
        mutated.iter().any(|&s| s != total),
        "the mutation must tear a sum: {mutated:?}"
    );
    assert_eq!(
        *mutated.last().unwrap(),
        total,
        "each transfer still completes"
    );
}

//! Index/scan equivalence property tests: under random insert/update/delete
//! workloads (including doomed transactions that roll back), every secondary
//! index must agree *exactly* with a full-scan reference — on the live
//! primary, after a crash/recover cycle, and on a replica rebuilt from a
//! snapshot plus shipped WAL. An index that drifts from the heap is a wrong
//! answer served fast, which is worse than no index at all.

use esdb_core::config::EngineConfig;
use esdb_core::Database;
use esdb_net::Snapshot;
use esdb_repl::{ship_available, Replica};
use esdb_storage::{IndexDef, IndexKind, SecondaryIndex, Table};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

const KEYSPACE: u64 = 24;
const HASH_IX: u32 = 0;
const RANGE_IX: u32 = 1;

/// One workload step. Inserts of present keys degrade to updates and
/// deletes of absent keys are skipped, so every generated sequence is
/// executable; `doomed` steps write and then roll back, exercising the
/// undo-side index maintenance.
#[derive(Debug, Clone)]
struct Op {
    kind: u8, // 0 = upsert, 1 = delete, 2 = doomed write
    key: u64,
    vals: [i64; 2],
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0u8..6, 0..KEYSPACE, -8i64..8, -8i64..8).prop_map(|(k, key, a, b)| Op {
            // Bias toward upserts so the table actually grows.
            kind: match k {
                0 | 1 | 2 => 0,
                3 | 4 => 1,
                _ => 2,
            },
            key,
            vals: [a, b],
        }),
        0..80,
    )
}

fn open_indexed_primary() -> (Arc<Database>, u32) {
    let db = Arc::new(Database::open(EngineConfig::conventional_baseline()));
    let t = db
        .create_table_with_indexes(
            "events",
            2,
            vec![
                IndexDef { id: HASH_IX, name: "by_a_hash".into(), col: 0, kind: IndexKind::Hash },
                IndexDef { id: RANGE_IX, name: "by_b_range".into(), col: 1, kind: IndexKind::Range },
            ],
        )
        .unwrap();
    (db, t)
}

/// Applies the workload; each op is its own transaction so aborts stay
/// contained. Returns nothing — the heap itself is the reference.
fn run_ops(db: &Database, t: u32, ops: &[Op]) {
    for op in ops {
        match op.kind {
            0 => {
                db.execute(|txn| {
                    if txn.read(t, op.key).is_ok() {
                        txn.update(t, op.key, &op.vals)?;
                    } else {
                        txn.insert(t, op.key, &op.vals)?;
                    }
                    Ok(())
                })
                .unwrap();
            }
            1 => {
                let _ = db.execute(|txn| txn.delete(t, op.key));
            }
            _ => {
                // Write then force an abort: the rollback must also undo the
                // secondary-index effects, or the index diverges from the heap.
                let doomed = db.execute(|txn| {
                    if txn.read(t, op.key).is_ok() {
                        txn.update(t, op.key, &[i64::MIN, i64::MIN])?;
                    } else {
                        txn.insert(t, op.key, &[i64::MIN, i64::MIN])?;
                    }
                    txn.read(t, u64::MAX) // missing key: abort
                });
                assert!(doomed.is_err());
            }
        }
    }
    let wal = db.wal();
    wal.wait_durable(wal.current_lsn());
}

fn heap(table: &Table) -> BTreeMap<u64, Vec<i64>> {
    let mut rows = BTreeMap::new();
    table.scan(|k, row| {
        rows.insert(k, row.to_vec());
    })
    .unwrap();
    rows
}

/// The full-scan reference for one index: value -> sorted row keys.
fn expected_entries(rows: &BTreeMap<u64, Vec<i64>>, col: usize) -> Vec<(i64, Vec<u64>)> {
    let mut by_val: BTreeMap<i64, Vec<u64>> = BTreeMap::new();
    for (&k, row) in rows {
        by_val.entry(row[col]).or_default().push(k);
    }
    by_val.into_iter().collect()
}

/// Asserts both indexes agree exactly with the table's heap: full entry
/// dumps, point lookups over the whole touched value domain, and range
/// windows on the ordered index.
fn assert_index_heap_equiv(table: &Table) {
    let rows = heap(table);
    for (ix_id, col) in [(HASH_IX, 0usize), (RANGE_IX, 1usize)] {
        let ix: &Arc<SecondaryIndex> = table.secondary(ix_id).unwrap();
        let expected = expected_entries(&rows, col);
        assert_eq!(ix.entries(), expected, "index {ix_id} vs full scan");
        // Point lookups: every value in the domain, plus values certainly
        // absent, must match the scan-derived answer (empty included).
        for v in -10i64..10 {
            let want: Vec<u64> = rows
                .iter()
                .filter(|(_, row)| row[col] == v)
                .map(|(&k, _)| k)
                .collect();
            let mut got = ix.lookup_eq(v);
            got.sort_unstable();
            assert_eq!(got, want, "lookup_eq({v}) on index {ix_id}");
        }
    }
    // Range windows on the ordered index only.
    let range = table.secondary(RANGE_IX).unwrap();
    for (lo, hi) in [(-8i64, 8i64), (-2, 3), (5, 5), (6, -6)] {
        let want: Vec<u64> = {
            let mut ks: Vec<u64> = rows
                .iter()
                .filter(|(_, row)| row[1] >= lo && row[1] <= hi)
                .map(|(&k, _)| k)
                .collect();
            ks.sort_unstable();
            ks
        };
        let mut got = range.lookup_range(lo, hi).expect("range index answers ranges");
        got.sort_unstable();
        assert_eq!(got, want, "lookup_range({lo},{hi})");
    }
    // The hash index must refuse ranges rather than guess.
    assert!(table.secondary(HASH_IX).unwrap().lookup_range(0, 1).is_none());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Live primary: indexes track the heap through arbitrary churn,
    /// including rolled-back transactions.
    #[test]
    fn live_indexes_match_full_scan(ops in ops()) {
        let (db, t) = open_indexed_primary();
        run_ops(&db, t, &ops);
        assert_index_heap_equiv(&db.table(t).unwrap());
    }

    /// Crash/recover: the recovered database re-derives identical index
    /// contents from the salvaged WAL + heap, whether or not pages were
    /// flushed before the crash.
    #[test]
    fn recovered_indexes_match_full_scan(ops in ops(), flush in any::<bool>()) {
        let (db, t) = open_indexed_primary();
        run_ops(&db, t, &ops);
        let before = heap(&db.table(t).unwrap());
        let recovered = db.simulate_crash(flush);
        let table = recovered.table(t).unwrap();
        prop_assert_eq!(&heap(&table), &before, "recovery changed the heap");
        assert_index_heap_equiv(&table);
        // Recovered index contents must be byte-identical to the
        // uninterrupted primary's, not merely self-consistent.
        let orig = db.table(t).unwrap();
        for ix in [HASH_IX, RANGE_IX] {
            prop_assert_eq!(
                table.secondary(ix).unwrap().entries(),
                orig.secondary(ix).unwrap().entries()
            );
        }
    }

    /// Replica re-apply: a follower bootstrapped from a snapshot and fed the
    /// shipped WAL rebuilds identical index contents and stays equivalent to
    /// its own full scan — and survives its own crash/reopen.
    #[test]
    fn replica_indexes_match_full_scan(ops in ops()) {
        let (db, t) = open_indexed_primary();
        // Seed some pre-snapshot rows so the snapshot ships a non-empty heap
        // whose indexes must be rebuilt (not replayed) on the replica.
        run_ops(&db, t, &ops[..ops.len() / 2]);
        let snap = Snapshot::take(&db).unwrap();
        let mut replica = Replica::bootstrap(snap, EngineConfig::conventional_baseline()).unwrap();
        run_ops(&db, t, &ops[ops.len() / 2..]);
        ship_available(db.wal(), &mut replica).unwrap();
        let rt = replica.db().table(t).unwrap();
        assert_index_heap_equiv(&rt);
        let orig = db.table(t).unwrap();
        for ix in [HASH_IX, RANGE_IX] {
            prop_assert_eq!(
                rt.secondary(ix).unwrap().entries(),
                orig.secondary(ix).unwrap().entries()
            );
        }
        // Crash the follower and re-apply the whole stream: still identical.
        let replica = replica.reopen().unwrap();
        let rt = replica.db().table(t).unwrap();
        assert_index_heap_equiv(&rt);
        for ix in [HASH_IX, RANGE_IX] {
            prop_assert_eq!(
                rt.secondary(ix).unwrap().entries(),
                orig.secondary(ix).unwrap().entries()
            );
        }
    }
}

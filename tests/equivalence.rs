//! Integration: semantic equivalence across engine implementations.
//!
//! * Conventional 2PL and DORA must produce identical final database states
//!   when fed the same deterministic single-threaded request stream.
//! * Staged and Volcano query engines must agree on randomized plans
//!   (property-based).
//! * A bulk-loaded population is the database a row-at-a-time load makes:
//!   the same heap pages, byte for byte, and the same index.

use esdb::core::{Database, DbError, EngineConfig};
use esdb::staged::{execute_staged, execute_staged_parallel, execute_volcano, AggFunc, CmpOp, PlanNode};
use esdb::storage::page::Page;
use esdb::storage::StorageError;
use esdb::workload::{TableDef, Tatp, Tpcb, TxnSpec, Workload, Ycsb};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Materializes every table into a sorted map for comparison.
fn snapshot(db: &Database, tables: &[u32]) -> BTreeMap<(u32, u64), Vec<i64>> {
    let mut out = BTreeMap::new();
    for &tid in tables {
        let t = db.table(tid).unwrap();
        t.scan(|key, row| {
            out.insert((tid, key), row.to_vec());
        })
        .unwrap();
    }
    out
}

#[test]
fn conventional_and_dora_reach_identical_states() {
    let table_ids: Vec<u32> = Tatp::new(1, 0).tables().iter().map(|t| t.id).collect();
    let run = |cfg: EngineConfig| {
        let db = Database::open(cfg);
        let mut w = Tatp::new(500, 1234);
        db.load_population(&w).expect("population load");
        let mut outcomes = Vec::new();
        // Single-threaded stream: both engines see the exact same requests
        // in the exact same order, so states must match exactly.
        for _ in 0..2_000 {
            let spec = w.next_txn();
            outcomes.push(db.run_spec(&spec).is_committed());
        }
        (snapshot(&db, &table_ids), outcomes)
    };
    let (conv_state, conv_outcomes) = run(EngineConfig::conventional_baseline());
    let (dora_state, dora_outcomes) = run(EngineConfig::scalable(3));
    assert_eq!(conv_outcomes, dora_outcomes, "same commit/abort decisions");
    assert_eq!(conv_state, dora_state, "same final state");
}

// --- Bulk load against row-at-a-time inserts ------------------------------

/// `workload`'s population loaded by `Table::insert`, one row at a time.
fn load_row_by_row(workload: &dyn Workload) -> Database {
    let db = Database::open(EngineConfig::conventional_baseline());
    let tables: Vec<_> = workload
        .tables()
        .iter()
        .map(|def| db.table(db.create_table(&def.name, def.arity).unwrap()).unwrap())
        .collect();
    workload.population(&mut |table, key, row| {
        tables[table as usize].insert(key, row).expect("row-by-row insert");
    });
    db.pool().flush_all().unwrap();
    db
}

#[test]
fn a_bulk_load_builds_the_row_by_row_database() {
    let workloads: [(&str, Box<dyn Workload>); 3] = [
        ("tpcb", Box::new(Tpcb::new(2, 1))),
        ("tatp", Box::new(Tatp::new(1_000, 1))),
        ("ycsb", Box::new(Ycsb::new(40_000, 95, 0.5, 4, 1))),
    ];
    for (name, workload) in workloads {
        let bulk = Database::open(EngineConfig::conventional_baseline());
        bulk.load_population(workload.as_ref()).expect("bulk load");
        let rows = load_row_by_row(workload.as_ref());
        assert_eq!(bulk.disk().num_pages(), rows.disk().num_pages(), "{name}: store pages");
        for def in workload.tables() {
            let (b, r) = (bulk.table(def.id).unwrap(), rows.table(def.id).unwrap());
            let pages = b.heap().pages();
            assert_eq!(pages, r.heap().pages(), "{name}.{}: heap page ids", def.name);
            for id in pages {
                let image = |db: &Database| {
                    let mut page = Page::new();
                    db.disk().read(id, &mut page).unwrap();
                    *page.as_bytes()
                };
                assert!(image(&bulk) == image(&rows), "{name}.{}: page {id} differs", def.name);
            }
            let (bi, ri) = (b.index(), r.index());
            assert_eq!(bi.range(0, u64::MAX), ri.range(0, u64::MAX), "{name}.{}: key -> rid", def.name);
            assert_eq!((bi.height(), bi.node_count()), (ri.height(), ri.node_count()), "{name}.{}: index shape", def.name);
        }
    }
}

/// One table of `(key, [key])` rows, in the order given.
struct Keys(Vec<u64>);

impl Workload for Keys {
    fn name(&self) -> &'static str {
        "keys"
    }
    fn tables(&self) -> Vec<TableDef> {
        vec![TableDef { id: 0, name: "keys".into(), arity: 1 }]
    }
    fn population(&self, emit: &mut dyn FnMut(u32, u64, &[i64])) {
        for &key in &self.0 {
            emit(0, key, &[key as i64]);
        }
    }
    fn next_txn(&mut self) -> TxnSpec {
        unreachable!("a load-only workload")
    }
    fn fork(&mut self) -> Box<dyn Workload> {
        unreachable!("a load-only workload")
    }
}

#[test]
fn a_bulk_load_refuses_a_repeated_key_and_takes_unsorted_ones() {
    let db = Database::open(EngineConfig::conventional_baseline());
    let e = db.load_population(&Keys(vec![1, 5, 3, 5, 2])).unwrap_err();
    assert_eq!(e, DbError::CheckpointIo(StorageError::DuplicateKey(5)));
    assert!(db.table(0).is_none(), "a failed load registers no table");

    let keys: Vec<u64> = (0..5_000).map(|i| i * 7_919 % 5_003).collect();
    let db = Database::open(EngineConfig::conventional_baseline());
    db.load_population(&Keys(keys.clone())).expect("unsorted keys load");
    let table = db.table(0).unwrap();
    assert_eq!(table.len(), keys.len() as u64);
    for &key in &keys {
        assert_eq!(table.get(key).unwrap(), vec![key as i64]);
    }
    let mut sorted = keys;
    sorted.sort_unstable();
    let indexed: Vec<u64> = table.index().range(0, u64::MAX).into_iter().map(|(k, _)| k).collect();
    assert_eq!(indexed, sorted);
    // The loaded table takes transactions like any other.
    table.insert(5_003, &[1]).unwrap();
    assert_eq!(table.insert(0, &[1]).unwrap_err(), StorageError::DuplicateKey(0));
}

// --- Property-based query-engine equivalence ------------------------------

fn arb_rows() -> impl Strategy<Value = Vec<Vec<i64>>> {
    prop::collection::vec(prop::collection::vec(-50i64..50, 3), 0..120)
}

fn arb_cmp() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
}

fn arb_agg() -> impl Strategy<Value = AggFunc> {
    prop_oneof![
        Just(AggFunc::Sum),
        Just(AggFunc::Count),
        Just(AggFunc::Min),
        Just(AggFunc::Max),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn staged_equals_volcano_on_random_plans(
        rows in arb_rows(),
        dim_rows in arb_rows(),
        op in arb_cmp(),
        value in -50i64..50,
        filter_col in 0usize..3,
        join_col in 0usize..3,
        agg in arb_agg(),
        group in proptest::bool::ANY,
        batch in 1usize..300,
    ) {
        let plan = PlanNode::values(dim_rows)
            .hash_join(PlanNode::values(rows), join_col, join_col)
            .filter(filter_col, op, value)
            // Joined rows have 6 columns; aggregate over column 4.
            .aggregate(if group { Some(0) } else { None }, 4, agg)
            .sort(0);
        let volcano = execute_volcano(&plan);
        let staged = execute_staged(&plan, batch);
        prop_assert_eq!(&staged, &volcano);
        let parallel = execute_staged_parallel(&plan, batch);
        prop_assert_eq!(&parallel, &volcano);
    }

    #[test]
    fn filter_project_pipeline_equivalence(
        rows in arb_rows(),
        a in -50i64..50,
        b in -50i64..50,
        batch in 1usize..64,
    ) {
        let plan = PlanNode::values(rows)
            .filter(0, CmpOp::Ge, a)
            .filter(1, CmpOp::Lt, b)
            .project(vec![2, 0])
            .sort(0);
        prop_assert_eq!(execute_staged(&plan, batch), execute_volcano(&plan));
    }
}

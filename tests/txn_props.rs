//! Property-based tests of transactional semantics: serializability oracle
//! for single-threaded histories and abort-is-a-no-op.

use esdb::core::spec_exec::SpecOutcome;
use esdb::core::{Database, EngineConfig};
use esdb::workload::{TxnSpec, WorkloadOp};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum TOp {
    Read(u64),
    Write(u64, i64),
    Add(u64, i64),
    Insert(u64, i64),
    Delete(u64),
}

/// Stored values and add deltas, small or at the `i64` edges, so adds
/// overflow in both directions.
fn arb_value(small: i64) -> impl Strategy<Value = i64> {
    let edge = prop_oneof![Just(i64::MIN), Just(i64::MIN + 1), Just(i64::MAX - 1), Just(i64::MAX)];
    prop_oneof![-small..small, -small..small, -small..small, edge]
}

fn arb_top() -> impl Strategy<Value = TOp> {
    prop_oneof![
        (0u64..20).prop_map(TOp::Read),
        (0u64..20, arb_value(100)).prop_map(|(k, v)| TOp::Write(k, v)),
        (0u64..20, arb_value(10)).prop_map(|(k, d)| TOp::Add(k, d)),
        (0u64..20, arb_value(100)).prop_map(|(k, v)| TOp::Insert(k, v)),
        (0u64..20).prop_map(TOp::Delete),
    ]
}

fn to_spec(ops: &[TOp], table: u32) -> TxnSpec {
    TxnSpec {
        kind: "prop",
        ops: ops
            .iter()
            .map(|op| match op {
                TOp::Read(k) => WorkloadOp::Read { table, key: *k },
                TOp::Write(k, v) => WorkloadOp::Write { table, key: *k, row: vec![*v] },
                TOp::Add(k, d) => WorkloadOp::Add { table, key: *k, col: 0, delta: *d },
                TOp::Insert(k, v) => WorkloadOp::Insert { table, key: *k, row: vec![*v] },
                TOp::Delete(k) => WorkloadOp::Delete { table, key: *k },
            })
            .collect(),
        may_fail: true,
    }
}

/// Applies a transaction to the model map with all-or-nothing semantics.
/// Returns `true` if it commits.
fn model_apply(model: &mut BTreeMap<u64, i64>, ops: &[TOp]) -> bool {
    let mut shadow = model.clone();
    for op in ops {
        match op {
            TOp::Read(k) => {
                if !shadow.contains_key(k) {
                    return false;
                }
            }
            TOp::Write(k, v) => {
                if !shadow.contains_key(k) {
                    return false;
                }
                shadow.insert(*k, *v);
            }
            TOp::Add(k, d) => match shadow.get_mut(k).and_then(|v| Some((v.checked_add(*d)?, v))) {
                Some((sum, v)) => *v = sum,
                None => return false,
            },
            TOp::Insert(k, v) => {
                if shadow.contains_key(k) {
                    return false;
                }
                shadow.insert(*k, *v);
            }
            TOp::Delete(k) => {
                if shadow.remove(k).is_none() {
                    return false;
                }
            }
        }
    }
    *model = shadow;
    true
}

fn db_state(db: &Database, table: u32) -> BTreeMap<u64, i64> {
    let mut out = BTreeMap::new();
    db.table(table)
        .unwrap()
        .scan(|k, row| {
            out.insert(k, row[0]);
        })
        .unwrap();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sequential transaction tapes: engine state always equals the
    /// all-or-nothing model, on both execution engines.
    #[test]
    fn sequential_histories_match_model(
        txns in prop::collection::vec(prop::collection::vec(arb_top(), 1..6), 1..40),
        dora in proptest::bool::ANY,
    ) {
        let cfg = if dora { EngineConfig::scalable(2) } else { EngineConfig::conventional_baseline() };
        let db = Database::open(cfg);
        let table = db.create_table("t", 1).unwrap();
        let mut model: BTreeMap<u64, i64> = BTreeMap::new();
        for ops in &txns {
            let spec = to_spec(ops, table);
            let committed = matches!(db.run_spec(&spec), SpecOutcome::Committed { .. });
            let model_committed = model_apply(&mut model, ops);
            prop_assert_eq!(committed, model_committed, "ops: {:?}", ops);
            prop_assert_eq!(db_state(&db, table), model.clone());
        }
    }

    /// Recovery after a crash equals the committed-prefix model.
    #[test]
    fn recovery_matches_committed_prefix(
        txns in prop::collection::vec(prop::collection::vec(arb_top(), 1..5), 1..25),
        flush in proptest::bool::ANY,
    ) {
        let db = Database::open(EngineConfig::conventional_baseline());
        let table = db.create_table("t", 1).unwrap();
        let mut model: BTreeMap<u64, i64> = BTreeMap::new();
        for ops in &txns {
            let spec = to_spec(ops, table);
            let committed = matches!(db.run_spec(&spec), SpecOutcome::Committed { .. });
            let model_committed = model_apply(&mut model, ops);
            prop_assert_eq!(committed, model_committed);
        }
        let recovered = db.simulate_crash(flush);
        prop_assert_eq!(db_state(&recovered, table), model);
    }
}

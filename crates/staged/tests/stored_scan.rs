//! The `Scan` source over a *stored* table — several heap pages, tombstoned
//! and reused slots — at packet sizes on both sides of a page: the inline
//! driver, the threaded driver and Volcano must agree. (Every other proptest
//! of the engines feeds `Values`.) Plus the engines' shared overflow rule.

use esdb_staged::{execute_staged, execute_staged_parallel, execute_volcano, AggFunc, CmpOp, PlanNode, Row};
use esdb_storage::{buffer::BufferPool, disk::InMemoryDisk, table::Table, IndexDef, IndexKind};
use proptest::prelude::*;
use std::sync::Arc;

fn table(indexes: Vec<IndexDef>) -> Arc<Table> {
    let pool = Arc::new(BufferPool::new(256, Arc::new(InMemoryDisk::new())));
    Arc::new(Table::create_indexed(0, "t", 2, indexes, pool))
}

/// How many 2-column rows fill one heap page.
fn rows_per_page() -> usize {
    let t = table(Vec::new());
    (0..).find(|&k| t.insert(k, &[0, 0]).is_err() || t.heap().pages().len() > 1).unwrap() as usize
}

/// Multiset equality, and sequence equality where the plan fixes an order.
fn assert_same(mut got: Vec<Row>, mut expected: Vec<Row>, ordered: bool, what: &str) {
    if !ordered {
        got.sort();
        expected.sort();
    }
    assert_eq!(got, expected, "{what}");
}

/// Inline driver = threaded driver = Volcano at every packet size in `batches`.
fn assert_engines_agree(plan: &PlanNode, batches: &[usize]) {
    let ordered = matches!(plan, PlanNode::Sort { .. });
    let expected = execute_volcano(plan);
    for &batch in batches {
        assert_same(execute_staged(plan, batch), expected.clone(), ordered, &format!("inline, batch {batch}"));
        assert_same(execute_staged_parallel(plan, batch), expected.clone(), ordered, &format!("threaded, batch {batch}"));
    }
}

#[derive(Debug, Clone)]
enum Step {
    Filter(usize, CmpOp, i64),
    Project(Vec<usize>),
    Aggregate(Option<usize>, usize, AggFunc),
    Sort(usize),
    /// A filtered scan of the same table as the build side.
    Join(usize, usize),
}

fn arb_step() -> impl Strategy<Value = Step> {
    let cmp = prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge)
    ];
    let agg = prop_oneof![Just(AggFunc::Sum), Just(AggFunc::Count), Just(AggFunc::Min), Just(AggFunc::Max)];
    // Column values (listed twice: drawn more often), the key range
    // (0..1,200) and the edges of i64.
    let constant = prop_oneof![-12i64..12, -12i64..12, 0i64..1_200, Just(i64::MIN), Just(i64::MAX)];
    prop_oneof![
        (0usize..12, cmp, constant).prop_map(|(c, op, v)| Step::Filter(c, op, v)),
        prop::collection::vec(0usize..12, 1..4).prop_map(Step::Project),
        (proptest::bool::ANY, 0usize..12, 0usize..12, agg).prop_map(|(g, gc, c, f)| Step::Aggregate(g.then_some(gc), c, f)),
        (0usize..12).prop_map(Step::Sort),
        (0usize..12, 0usize..12).prop_map(|(l, r)| Step::Join(l, r)),
    ]
}

/// Applies `steps` to a scan of `table`; a column reference wraps to the
/// arity the plan has at that point, and only the first join is kept (two
/// low-cardinality joins square the row count).
fn plan_of(table: &Arc<Table>, steps: &[Step]) -> PlanNode {
    let (mut plan, mut arity, mut joined) = (PlanNode::scan(table.clone()), 3, false);
    for step in steps {
        plan = match step {
            Step::Filter(c, op, v) => plan.filter(c % arity, *op, *v),
            Step::Project(cols) => {
                let cols: Vec<usize> = cols.iter().map(|c| c % arity).collect();
                arity = cols.len();
                plan.project(cols)
            }
            Step::Aggregate(group, c, func) => {
                let (group, c) = (group.map(|g| g % arity), c % arity);
                arity = if group.is_some() { 2 } else { 1 };
                plan.aggregate(group, c, *func)
            }
            Step::Sort(c) => plan.sort(c % arity),
            Step::Join(..) if joined => plan,
            Step::Join(l, r) => {
                let build = PlanNode::scan(table.clone()).filter(1, CmpOp::Lt, -5);
                let r = r % arity;
                (arity, joined) = (arity + 3, true);
                build.hash_join(plan, l % 3, r)
            }
        };
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn drivers_and_volcano_agree_over_a_stored_table(
        rows in prop::collection::vec((-10i64..10, -10i64..10), 600..900),
        deletes in prop::collection::vec(0u64..900, 0..250),
        reinserts in prop::collection::vec((-10i64..10, -10i64..10), 0..200),
        steps in prop::collection::vec(arb_step(), 0..5),
    ) {
        let t = table(Vec::new());
        for (k, (a, b)) in rows.iter().enumerate() {
            t.insert(k as u64, &[*a, *b]).unwrap();
        }
        // Tombstones on every page; the re-inserts then reuse the ones on the
        // heap's last page and extend it.
        for k in &deletes {
            let _ = t.delete(*k);
        }
        for (k, (a, b)) in reinserts.iter().enumerate() {
            t.insert(1_000 + k as u64, &[*a, *b]).unwrap();
        }
        prop_assert!(t.heap().pages().len() >= 3);
        let page = rows_per_page();
        assert_engines_agree(&plan_of(&t, &steps), &[1, 7, page - 1, page, page + 1, 256, usize::MAX]);
    }
}

/// A scan decodes only the columns the plan reads; the answer must not care.
#[test]
fn pruned_columns_change_no_answer() {
    let t = table(Vec::new());
    for k in 0..1_000u64 {
        t.insert(k, &[(k % 10) as i64, -(k as i64)]).unwrap();
    }
    let scan = || PlanNode::scan(t.clone());
    for plan in [
        scan().filter(1, CmpOp::Ge, 5).project(vec![2, 2, 0]).aggregate(Some(2), 0, AggFunc::Min),
        scan().filter(2, CmpOp::Lt, -100).aggregate(None, 0, AggFunc::Count),
        scan().filter(1, CmpOp::Ne, 3).project(vec![]),
    ] {
        assert!(!execute_volcano(&plan).is_empty());
        assert_engines_agree(&plan, &[1, 100, 4_096]);
    }
}

#[test]
fn sum_and_count_wrap_on_overflow() {
    let plan = PlanNode::values(vec![vec![i64::MAX], vec![1]]).aggregate(None, 0, AggFunc::Sum);
    assert_eq!(execute_volcano(&plan), [[i64::MIN]]);
    assert_engines_agree(&plan, &[1, 256]);
    assert_eq!(AggFunc::Count.fold(Some(i64::MAX), 0), i64::MIN);
}

#[test]
fn an_empty_table_yields_nothing() {
    let t = table(Vec::new());
    for plan in [
        PlanNode::scan(t.clone()),
        PlanNode::scan(t.clone()).filter(1, CmpOp::Gt, 0).aggregate(None, 2, AggFunc::Count),
        PlanNode::scan(t.clone()).hash_join(PlanNode::scan(t.clone()), 0, 0).sort(0),
    ] {
        assert!(execute_volcano(&plan).is_empty());
        assert_engines_agree(&plan, &[1, 256]);
    }
}

#[test]
fn a_table_of_exactly_one_full_packet_and_a_zero_batch() {
    let t = table(Vec::new());
    for k in 0..256u64 {
        t.insert(k, &[(k % 5) as i64, k as i64]).unwrap();
    }
    let plan = PlanNode::scan(t.clone()).filter(1, CmpOp::Ne, 2).aggregate(Some(1), 2, AggFunc::Sum).sort(0);
    assert_eq!(execute_volcano(&plan).len(), 4);
    // Batch 0 is clamped to 1.
    assert_engines_agree(&plan, &[256, 255, 0]);
    assert_engines_agree(&PlanNode::scan(t), &[256, 0]);
}

#[test]
fn an_index_scan_over_a_hash_index_falls_back_to_a_filtered_scan_for_a_range() {
    let t = table(vec![IndexDef { id: 0, name: "h0".into(), col: 0, kind: IndexKind::Hash }]);
    for k in 0..700u64 {
        t.insert(k, &[(k % 9) as i64, k as i64]).unwrap();
    }
    let ranged = PlanNode::index_scan(t.clone(), 0, 2, 4).aggregate(Some(1), 2, AggFunc::Count).sort(0);
    let filtered = PlanNode::scan(t.clone())
        .filter(1, CmpOp::Ge, 2)
        .filter(1, CmpOp::Le, 4)
        .aggregate(Some(1), 2, AggFunc::Count)
        .sort(0);
    assert_eq!(execute_volcano(&ranged), execute_volcano(&filtered));
    assert_eq!(execute_volcano(&ranged).len(), 3);
    assert_engines_agree(&ranged, &[1, 64, 1_024]);
    assert_engines_agree(&PlanNode::index_scan(t, 0, 2, 4), &[1, 64, 1_024]);
}

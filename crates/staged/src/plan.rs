//! Logical query plans shared by the Volcano and staged engines.

pub use esdb_storage::CmpOp;
use esdb_storage::Table;
use std::sync::Arc;

/// A row: positional `i64` columns (the storage layer's tuple model).
pub type Row = Vec<i64>;

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Sum of the aggregate column.
    Sum,
    /// Row count (aggregate column ignored).
    Count,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

impl AggFunc {
    /// Folds `value` into `acc` (`None` = empty accumulator). `Sum` and
    /// `Count` wrap on overflow (two's complement) in every build: the
    /// operands are client-written, so overflow is input, not a bug to trap.
    pub fn fold(self, acc: Option<i64>, value: i64) -> i64 {
        match (self, acc) {
            (AggFunc::Sum, None) => value,
            (AggFunc::Sum, Some(a)) => a.wrapping_add(value),
            (AggFunc::Count, None) => 1,
            (AggFunc::Count, Some(a)) => a.wrapping_add(1),
            (AggFunc::Min, None) => value,
            (AggFunc::Min, Some(a)) => a.min(value),
            (AggFunc::Max, None) => value,
            (AggFunc::Max, Some(a)) => a.max(value),
        }
    }

    /// Folds every value of `values` into `acc`, as [`AggFunc::fold`] one
    /// value at a time would, in one loop specialised to the function.
    pub fn fold_slice(self, acc: Option<i64>, values: &[i64]) -> Option<i64> {
        let (acc, rest) = match (acc, values.split_first()) {
            (Some(acc), _) => (acc, values),
            (None, Some((&first, rest))) => (self.fold(None, first), rest),
            (None, None) => return None,
        };
        #[inline(always)]
        fn each(func: AggFunc, acc: i64, values: &[i64]) -> i64 {
            values.iter().fold(acc, |acc, &v| func.fold(Some(acc), v))
        }
        Some(match self {
            AggFunc::Sum => each(AggFunc::Sum, acc, rest),
            AggFunc::Count => each(AggFunc::Count, acc, rest),
            AggFunc::Min => each(AggFunc::Min, acc, rest),
            AggFunc::Max => each(AggFunc::Max, acc, rest),
        })
    }
}

/// A logical query plan node.
#[derive(Clone)]
pub enum PlanNode {
    /// Full scan of a stored table; rows are `[key, col0, col1, ...]`.
    Scan(Arc<Table>),
    /// Index-assisted scan: rows of `table` whose indexed column lies in
    /// `[lo, hi]` (inclusive), found through the secondary index `index`
    /// and fetched in primary-key order. Output rows are `[key, col0, ...]`
    /// exactly like `Scan`, so the node is a drop-in replacement for
    /// `Scan + Filter` — which is also the equivalence the proptests pin.
    ///
    /// A hash-shaped index can only serve `lo == hi`; execution falls back
    /// to a full scan + filter over the index's column for wider ranges, so
    /// a mis-planned node degrades to slower, never to wrong.
    IndexScan {
        /// Scanned table.
        table: Arc<Table>,
        /// Secondary index id within the table.
        index: esdb_storage::IndexId,
        /// Lower bound (inclusive).
        lo: i64,
        /// Upper bound (inclusive).
        hi: i64,
    },
    /// Literal row source (tests, intermediate results).
    Values(Arc<Vec<Row>>),
    /// Keep rows where `row[col] OP value`.
    Filter {
        /// Input plan.
        input: Box<PlanNode>,
        /// Column tested.
        col: usize,
        /// Comparison.
        op: CmpOp,
        /// Constant operand.
        value: i64,
    },
    /// Keep only the listed columns, in order.
    Project {
        /// Input plan.
        input: Box<PlanNode>,
        /// Column indices to keep.
        cols: Vec<usize>,
    },
    /// Equi hash join; output rows are `left ++ right`.
    HashJoin {
        /// Build side.
        left: Box<PlanNode>,
        /// Probe side.
        right: Box<PlanNode>,
        /// Join column on the left.
        left_col: usize,
        /// Join column on the right.
        right_col: usize,
    },
    /// Group-by aggregate. Output: `[group, agg]` (or `[agg]` if no group).
    Aggregate {
        /// Input plan.
        input: Box<PlanNode>,
        /// Optional grouping column.
        group_col: Option<usize>,
        /// Aggregated column.
        agg_col: usize,
        /// Function.
        func: AggFunc,
    },
    /// Sort ascending by column.
    Sort {
        /// Input plan.
        input: Box<PlanNode>,
        /// Sort column.
        col: usize,
    },
}

impl PlanNode {
    /// Scan helper.
    pub fn scan(table: Arc<Table>) -> Self {
        PlanNode::Scan(table)
    }

    /// Index-scan helper.
    pub fn index_scan(table: Arc<Table>, index: esdb_storage::IndexId, lo: i64, hi: i64) -> Self {
        PlanNode::IndexScan { table, index, lo, hi }
    }

    /// Values helper.
    pub fn values(rows: Vec<Row>) -> Self {
        PlanNode::Values(Arc::new(rows))
    }

    /// Filter helper.
    pub fn filter(self, col: usize, op: CmpOp, value: i64) -> Self {
        PlanNode::Filter {
            input: Box::new(self),
            col,
            op,
            value,
        }
    }

    /// Project helper.
    pub fn project(self, cols: Vec<usize>) -> Self {
        PlanNode::Project {
            input: Box::new(self),
            cols,
        }
    }

    /// Hash-join helper (self is the build side).
    pub fn hash_join(self, right: PlanNode, left_col: usize, right_col: usize) -> Self {
        PlanNode::HashJoin {
            left: Box::new(self),
            right: Box::new(right),
            left_col,
            right_col,
        }
    }

    /// Aggregate helper.
    pub fn aggregate(self, group_col: Option<usize>, agg_col: usize, func: AggFunc) -> Self {
        PlanNode::Aggregate {
            input: Box::new(self),
            group_col,
            agg_col,
            func,
        }
    }

    /// Sort helper.
    pub fn sort(self, col: usize) -> Self {
        PlanNode::Sort {
            input: Box::new(self),
            col,
        }
    }
}

/// The row a plan sees for a stored tuple: `[key, col0, col1, ...]`.
pub(crate) fn keyed_row(key: u64, cols: &[i64]) -> Row {
    let mut row = Vec::with_capacity(cols.len() + 1);
    row.push(key as i64);
    row.extend_from_slice(cols);
    row
}

/// Materializes an [`PlanNode::IndexScan`]'s rows — shared by both engines
/// so index-assisted scans are bit-identical across Volcano and staged
/// execution. Rows come back as `[key, col0, ...]` in primary-key order,
/// the same shape and order-insensitive content a `Scan + Filter` yields.
///
/// Panics on an index id the table never declared: plans are validated
/// where they enter the system (the wire decoder checks ids against the
/// catalog), so an unknown id here is a programming error, not bad input.
pub(crate) fn index_scan_rows(
    table: &Arc<Table>,
    index: esdb_storage::IndexId,
    lo: i64,
    hi: i64,
) -> Vec<Row> {
    let ix = table
        .secondary(index)
        .unwrap_or_else(|| panic!("plan references unknown index {index} on table {}", table.id()));
    if lo > hi {
        return Vec::new();
    }
    let pks = if lo == hi {
        Some(ix.lookup_eq(lo))
    } else {
        ix.lookup_range(lo, hi) // None: hash index cannot serve a range
    };
    match pks {
        Some(pks) => pks
            .into_iter()
            .filter_map(|pk| table.get(pk).ok().map(|cols| keyed_row(pk, &cols)))
            .collect(),
        None => {
            // Degrade to a correct (if slower) filtered full scan over the
            // index's column rather than answering wrongly.
            let col = ix.def().col;
            let mut rows = Vec::new();
            table
                .scan(|key, cols| {
                    if cols.get(col).is_some_and(|v| (lo..=hi).contains(v)) {
                        rows.push(keyed_row(key, cols));
                    }
                })
                .expect("scan");
            rows.sort_by_key(|r| r[0]);
            rows
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl PlanNode {
        /// Plans a single-predicate scan over a *table* column (0-based
        /// into the row, key excluded): picks a declared secondary index
        /// that can serve `col OP value` and builds an
        /// [`PlanNode::IndexScan`], or falls back to `Scan + Filter`. Either
        /// shape yields identical full rows `[key, col0, ...]`.
        fn scan_filtered(table: Arc<Table>, col: usize, op: CmpOp, value: i64) -> Self {
            let pick = table
                .secondaries()
                .iter()
                .find(|ix| {
                    ix.def().col == col
                        && match ix.def().kind {
                            esdb_storage::IndexKind::Hash => op == CmpOp::Eq,
                            esdb_storage::IndexKind::Range => op != CmpOp::Ne,
                        }
                })
                .map(|ix| ix.def().id);
            let Some(index) = pick else {
                // Plan column = table column + 1: Scan emits the key at 0.
                return PlanNode::scan(table).filter(col + 1, op, value);
            };
            let (lo, hi) = match op {
                CmpOp::Eq => (value, value),
                CmpOp::Le => (i64::MIN, value),
                CmpOp::Ge => (value, i64::MAX),
                CmpOp::Lt => match value.checked_sub(1) {
                    Some(hi) => (i64::MIN, hi),
                    None => return PlanNode::values(Vec::new()), // x < i64::MIN
                },
                CmpOp::Gt => match value.checked_add(1) {
                    Some(lo) => (lo, i64::MAX),
                    None => return PlanNode::values(Vec::new()), // x > i64::MAX
                },
                CmpOp::Ne => unreachable!("Ne never picks an index"),
            };
            PlanNode::IndexScan { table, index, lo, hi }
        }
    }

    #[test]
    fn cmp_ops() {
        assert!(CmpOp::Eq.eval(3, 3));
        assert!(CmpOp::Ne.eval(3, 4));
        assert!(CmpOp::Lt.eval(3, 4));
        assert!(CmpOp::Le.eval(4, 4));
        assert!(CmpOp::Gt.eval(5, 4));
        assert!(CmpOp::Ge.eval(4, 4));
        assert!(!CmpOp::Gt.eval(4, 4));
    }

    #[test]
    fn agg_folds() {
        assert_eq!(AggFunc::Sum.fold(None, 5), 5);
        assert_eq!(AggFunc::Sum.fold(Some(5), 7), 12);
        assert_eq!(AggFunc::Count.fold(None, 99), 1);
        assert_eq!(AggFunc::Count.fold(Some(3), 99), 4);
        assert_eq!(AggFunc::Min.fold(Some(3), 1), 1);
        assert_eq!(AggFunc::Max.fold(Some(3), 9), 9);
    }

    #[test]
    fn a_slice_folds_as_its_values_one_at_a_time() {
        let values = [5, i64::MAX, -3, 1, i64::MIN, 0];
        for func in [AggFunc::Sum, AggFunc::Count, AggFunc::Min, AggFunc::Max] {
            for acc in [None, Some(7), Some(i64::MAX)] {
                for n in 0..=values.len() {
                    let one_at_a_time = values[..n].iter().fold(acc, |acc, &v| Some(func.fold(acc, v)));
                    assert_eq!(func.fold_slice(acc, &values[..n]), one_at_a_time, "{func:?} from {acc:?} over {n}");
                }
            }
        }
    }

    #[test]
    fn index_scan_matches_scan_filter_on_both_engines() {
        use esdb_storage::{buffer::BufferPool, disk::InMemoryDisk, IndexDef, IndexKind};
        let disk = Arc::new(InMemoryDisk::new());
        let pool = Arc::new(BufferPool::new(64, disk));
        let table = Arc::new(esdb_storage::table::Table::create_indexed(
            0,
            "t",
            2,
            vec![
                IndexDef { id: 0, name: "h0".into(), col: 0, kind: IndexKind::Hash },
                IndexDef { id: 1, name: "r1".into(), col: 1, kind: IndexKind::Range },
            ],
            pool,
        ));
        for k in 0..100u64 {
            table.insert(k, &[(k % 7) as i64, k as i64 - 50]).unwrap();
        }
        let cases = vec![
            PlanNode::scan_filtered(table.clone(), 0, CmpOp::Eq, 3),
            PlanNode::scan_filtered(table.clone(), 1, CmpOp::Eq, 0),
            PlanNode::scan_filtered(table.clone(), 1, CmpOp::Le, -40),
            PlanNode::scan_filtered(table.clone(), 1, CmpOp::Gt, 30),
            PlanNode::index_scan(table.clone(), 1, -10, 10),
        ];
        let references = vec![
            PlanNode::scan(table.clone()).filter(1, CmpOp::Eq, 3),
            PlanNode::scan(table.clone()).filter(2, CmpOp::Eq, 0),
            PlanNode::scan(table.clone()).filter(2, CmpOp::Le, -40),
            PlanNode::scan(table.clone()).filter(2, CmpOp::Gt, 30),
            PlanNode::scan(table.clone())
                .filter(2, CmpOp::Ge, -10)
                .filter(2, CmpOp::Le, 10),
        ];
        for (i, (plan, reference)) in cases.iter().zip(&references).enumerate() {
            let mut expect = crate::volcano::execute_volcano(reference);
            expect.sort();
            assert!(!expect.is_empty(), "case {i} reference empty");
            for rows in [
                crate::volcano::execute_volcano(plan),
                crate::engine::execute_staged(plan, 16),
            ] {
                let mut got = rows;
                got.sort();
                assert_eq!(got, expect, "case {i}");
            }
        }
        // A column with no usable index falls back to Scan + Filter.
        assert!(matches!(
            PlanNode::scan_filtered(table.clone(), 0, CmpOp::Lt, 3),
            PlanNode::Filter { .. }
        ));
        // Ne never uses an index.
        assert!(matches!(
            PlanNode::scan_filtered(table, 1, CmpOp::Ne, 0),
            PlanNode::Filter { .. }
        ));
    }

    #[test]
    fn builders_compose() {
        let plan = PlanNode::values(vec![vec![1, 2], vec![3, 4]])
            .filter(0, CmpOp::Gt, 1)
            .project(vec![1])
            .sort(0);
        match plan {
            PlanNode::Sort { .. } => {}
            _ => panic!("expected sort on top"),
        }
    }
}

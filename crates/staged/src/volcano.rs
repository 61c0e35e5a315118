//! The conventional engine: Volcano-style row-at-a-time pull iterators.
//!
//! Every operator implements `next()` behind a virtual call, and one thread
//! interleaves all operators' code per query — the instruction-cache-hostile
//! design whose CMP behaviour motivated StagedDB.

use crate::plan::{keyed_row, PlanNode, Row};
use std::collections::HashMap;

/// A pull iterator over rows.
trait RowIter {
    fn next(&mut self) -> Option<Row>;
}

struct ValuesIter {
    rows: std::vec::IntoIter<Row>,
}

impl RowIter for ValuesIter {
    fn next(&mut self) -> Option<Row> {
        self.rows.next()
    }
}

struct FilterIter {
    input: Box<dyn RowIter>,
    col: usize,
    op: crate::plan::CmpOp,
    value: i64,
}

impl RowIter for FilterIter {
    fn next(&mut self) -> Option<Row> {
        loop {
            let row = self.input.next()?;
            if self.op.eval(row[self.col], self.value) {
                return Some(row);
            }
        }
    }
}

struct ProjectIter {
    input: Box<dyn RowIter>,
    cols: Vec<usize>,
}

impl RowIter for ProjectIter {
    fn next(&mut self) -> Option<Row> {
        let row = self.input.next()?;
        Some(self.cols.iter().map(|&c| row[c]).collect())
    }
}

struct HashJoinIter {
    built: HashMap<i64, Vec<Row>>,
    right: Box<dyn RowIter>,
    right_col: usize,
    /// Pending outputs for the current probe row.
    pending: Vec<Row>,
}

impl RowIter for HashJoinIter {
    fn next(&mut self) -> Option<Row> {
        loop {
            if let Some(row) = self.pending.pop() {
                return Some(row);
            }
            let probe = self.right.next()?;
            if let Some(matches) = self.built.get(&probe[self.right_col]) {
                for l in matches {
                    let mut out = l.clone();
                    out.extend_from_slice(&probe);
                    self.pending.push(out);
                }
            }
        }
    }
}

struct DrainIter {
    rows: std::vec::IntoIter<Row>,
}

impl RowIter for DrainIter {
    fn next(&mut self) -> Option<Row> {
        self.rows.next()
    }
}

fn compile(plan: &PlanNode) -> Box<dyn RowIter> {
    match plan {
        PlanNode::Scan(table) => {
            // Materialize the scan as rows: the baseline pays an allocation
            // and a virtual call per row from here up, which is the overhead
            // under study (the staged engine decodes pages into columns).
            let mut rows = Vec::new();
            table.scan(|key, cols| rows.push(keyed_row(key, cols))).expect("scan");
            Box::new(ValuesIter {
                rows: rows.into_iter(),
            })
        }
        PlanNode::IndexScan { table, index, lo, hi } => Box::new(ValuesIter {
            rows: crate::plan::index_scan_rows(table, *index, *lo, *hi).into_iter(),
        }),
        PlanNode::Values(rows) => Box::new(ValuesIter {
            rows: rows.as_ref().clone().into_iter(),
        }),
        PlanNode::Filter {
            input,
            col,
            op,
            value,
        } => Box::new(FilterIter {
            input: compile(input),
            col: *col,
            op: *op,
            value: *value,
        }),
        PlanNode::Project { input, cols } => Box::new(ProjectIter {
            input: compile(input),
            cols: cols.clone(),
        }),
        PlanNode::HashJoin {
            left,
            right,
            left_col,
            right_col,
        } => {
            let mut built: HashMap<i64, Vec<Row>> = HashMap::new();
            let mut l = compile(left);
            while let Some(row) = l.next() {
                built.entry(row[*left_col]).or_default().push(row);
            }
            Box::new(HashJoinIter {
                built,
                right: compile(right),
                right_col: *right_col,
                pending: Vec::new(),
            })
        }
        PlanNode::Aggregate {
            input,
            group_col,
            agg_col,
            func,
        } => {
            let mut it = compile(input);
            let mut groups: HashMap<i64, i64> = HashMap::new();
            let mut single: Option<i64> = None;
            let mut saw_any = false;
            while let Some(row) = it.next() {
                saw_any = true;
                match group_col {
                    Some(g) => {
                        let acc = groups.get(&row[*g]).copied();
                        groups.insert(row[*g], func.fold(acc, row[*agg_col]));
                    }
                    None => single = Some(func.fold(single, row[*agg_col])),
                }
            }
            let mut rows: Vec<Row> = match group_col {
                Some(_) => groups.into_iter().map(|(g, v)| vec![g, v]).collect(),
                None => {
                    if saw_any {
                        vec![vec![single.unwrap()]]
                    } else {
                        Vec::new()
                    }
                }
            };
            rows.sort(); // deterministic output order
            Box::new(DrainIter {
                rows: rows.into_iter(),
            })
        }
        PlanNode::Sort { input, col } => {
            let mut it = compile(input);
            let mut rows = Vec::new();
            while let Some(r) = it.next() {
                rows.push(r);
            }
            let col = *col;
            rows.sort_by(|a, b| a[col].cmp(&b[col]).then_with(|| a.cmp(b)));
            Box::new(DrainIter {
                rows: rows.into_iter(),
            })
        }
    }
}

/// Executes `plan` with the Volcano engine, returning all result rows.
pub fn execute_volcano(plan: &PlanNode) -> Vec<Row> {
    let mut it = compile(plan);
    let mut out = Vec::new();
    while let Some(r) = it.next() {
        out.push(r);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{AggFunc, CmpOp};

    fn numbers(n: i64) -> PlanNode {
        PlanNode::values((0..n).map(|i| vec![i, i * 10]).collect())
    }

    #[test]
    fn filter_project() {
        let out = execute_volcano(&numbers(10).filter(0, CmpOp::Ge, 7).project(vec![1]));
        assert_eq!(out, vec![vec![70], vec![80], vec![90]]);
    }

    #[test]
    fn hash_join_matches_pairs() {
        let left = PlanNode::values(vec![vec![1, 100], vec![2, 200], vec![2, 201]]);
        let right = PlanNode::values(vec![vec![2, -1], vec![3, -3]]);
        let mut out = execute_volcano(&left.hash_join(right, 0, 0));
        out.sort();
        assert_eq!(out, vec![vec![2, 200, 2, -1], vec![2, 201, 2, -1]]);
    }

    #[test]
    fn aggregate_grouped_and_global() {
        let data = PlanNode::values(vec![vec![1, 5], vec![2, 7], vec![1, 3]]);
        let grouped = execute_volcano(&data.clone().aggregate(Some(0), 1, AggFunc::Sum));
        assert_eq!(grouped, vec![vec![1, 8], vec![2, 7]]);
        let global = execute_volcano(&data.aggregate(None, 1, AggFunc::Max));
        assert_eq!(global, vec![vec![7]]);
    }

    #[test]
    fn empty_aggregate_yields_no_rows() {
        let empty = PlanNode::values(vec![]);
        assert!(execute_volcano(&empty.aggregate(None, 0, AggFunc::Sum)).is_empty());
    }

    #[test]
    fn sort_orders_rows() {
        let data = PlanNode::values(vec![vec![3], vec![1], vec![2]]);
        assert_eq!(
            execute_volcano(&data.sort(0)),
            vec![vec![1], vec![2], vec![3]]
        );
    }
}

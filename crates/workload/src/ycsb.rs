//! YCSB-style parameterizable key-value mix.
//!
//! One table, point reads and read-modify-write updates, Zipfian key skew.
//! The knobs (`read_pct`, `theta`, `ops_per_txn`) make this the sweep
//! workload for contention experiments: `theta → 1` with low `read_pct`
//! manufactures exactly the hot-row convoys the keynote discusses.

use crate::rng::Rng;
use crate::spec::{TableDef, TxnSpec, Workload, WorkloadOp};
use crate::zipf::Zipf;

/// The single YCSB table id.
pub const USERTABLE: u32 = 0;

/// YCSB workload generator.
pub struct Ycsb {
    records: u64,
    read_pct: u64,
    ops_per_txn: usize,
    zipf: Zipf,
    rng: Rng,
}

impl Ycsb {
    /// Creates a generator over `records` rows with `read_pct`% reads,
    /// Zipf skew `theta`, and `ops_per_txn` operations per transaction.
    pub fn new(records: u64, read_pct: u64, theta: f64, ops_per_txn: usize, seed: u64) -> Self {
        assert!(read_pct <= 100);
        assert!(ops_per_txn >= 1);
        Ycsb {
            records,
            read_pct,
            ops_per_txn,
            zipf: Zipf::new(records, theta),
            rng: Rng::new(seed),
        }
    }
}

impl Workload for Ycsb {
    fn name(&self) -> &'static str {
        "ycsb"
    }

    fn tables(&self) -> Vec<TableDef> {
        vec![TableDef {
            id: USERTABLE,
            name: "usertable".into(),
            arity: 2,
        }]
    }

    fn population(&self, emit: &mut dyn FnMut(u32, u64, &[i64])) {
        for k in 0..self.records {
            emit(USERTABLE, k, &[k as i64, 0]);
        }
    }

    fn next_txn(&mut self) -> TxnSpec {
        let mut ops = Vec::with_capacity(self.ops_per_txn);
        for _ in 0..self.ops_per_txn {
            let key = self.zipf.sample(&mut self.rng);
            if self.rng.pct(self.read_pct) {
                ops.push(WorkloadOp::Read { table: USERTABLE, key });
            } else {
                ops.push(WorkloadOp::Add {
                    table: USERTABLE,
                    key,
                    col: 1,
                    delta: 1,
                });
            }
        }
        TxnSpec {
            kind: "ycsb",
            ops,
            may_fail: false,
        }
    }

    fn fork(&mut self) -> Box<dyn Workload> {
        Box::new(Ycsb {
            records: self.records,
            read_pct: self.read_pct,
            ops_per_txn: self.ops_per_txn,
            zipf: self.zipf.clone(),
            rng: self.rng.split(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_fraction_respected() {
        let mut w = Ycsb::new(1_000, 70, 0.0, 1, 1);
        let reads = (0..10_000)
            .filter(|_| w.next_txn().ops[0].is_read())
            .count();
        assert!((6_600..7_400).contains(&reads), "reads {reads}");
    }

    #[test]
    fn ops_per_txn_respected() {
        let mut w = Ycsb::new(100, 50, 0.5, 4, 2);
        assert_eq!(w.next_txn().ops.len(), 4);
    }

    #[test]
    fn population_matches_records() {
        let w = Ycsb::new(123, 50, 0.5, 1, 4);
        let mut keys = Vec::new();
        w.population(&mut |_, k, _| keys.push(k));
        assert!(keys.into_iter().eq(0..123));
    }
}

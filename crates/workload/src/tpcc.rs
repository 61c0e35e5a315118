//! TPC-C-lite: NewOrder and Payment over a scaled-down TPC-C schema.
//!
//! Multi-table, multi-row transactions with a mix of hot (warehouse,
//! district) and cold (customer, stock) rows — the workload where DORA's
//! decomposition into per-partition actions pays off most visibly.

use crate::rng::Rng;
use crate::spec::{TableDef, TxnSpec, Workload, WorkloadOp};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Warehouse table id.
pub const WAREHOUSE: u32 = 0;
/// District table id.
pub const DISTRICT: u32 = 1;
/// Customer table id.
pub const CUSTOMER: u32 = 2;
/// Stock table id.
pub const STOCK: u32 = 3;
/// Order table id.
pub const ORDERS: u32 = 4;
/// Order-line table id.
pub const ORDER_LINE: u32 = 5;

/// Districts per warehouse.
pub const DISTRICTS_PER_WH: u64 = 10;
/// Customers per district.
pub const CUSTOMERS_PER_DISTRICT: u64 = 300;
/// Items (stock rows per warehouse).
pub const ITEMS: u64 = 1_000;

/// TPC-C-lite generator.
pub struct TpccLite {
    warehouses: u64,
    rng: Rng,
    /// Per-run unique order ids (shared by forks).
    order_seq: Arc<AtomicU64>,
}

impl TpccLite {
    /// Creates a generator over `warehouses` warehouses.
    pub fn new(warehouses: u64, seed: u64) -> Self {
        assert!(warehouses >= 1);
        TpccLite {
            warehouses,
            rng: Rng::new(seed),
            order_seq: Arc::new(AtomicU64::new(0)),
        }
    }

    fn district_key(w: u64, d: u64) -> u64 {
        w * DISTRICTS_PER_WH + d
    }

    fn customer_key(w: u64, d: u64, c: u64) -> u64 {
        Self::district_key(w, d) * CUSTOMERS_PER_DISTRICT + c
    }

    fn stock_key(w: u64, i: u64) -> u64 {
        w * ITEMS + i
    }

    fn new_order(&mut self) -> TxnSpec {
        let w = self.rng.below(self.warehouses);
        let d = self.rng.below(DISTRICTS_PER_WH);
        let c = self.rng.below(CUSTOMERS_PER_DISTRICT);
        let o_id = self.order_seq.fetch_add(1, Ordering::Relaxed);
        let n_items = self.rng.range(5, 15);

        let mut ops = vec![
            WorkloadOp::Read { table: WAREHOUSE, key: w },
            WorkloadOp::Read {
                table: CUSTOMER,
                key: Self::customer_key(w, d, c),
            },
            // d_next_o_id advance.
            WorkloadOp::Add {
                table: DISTRICT,
                key: Self::district_key(w, d),
                col: 1,
                delta: 1,
            },
            WorkloadOp::Insert {
                table: ORDERS,
                key: o_id,
                row: vec![Self::customer_key(w, d, c) as i64, n_items as i64, 0],
            },
        ];
        for line in 0..n_items {
            // 1% remote warehouse per item, per the spec.
            let supply_w = if self.warehouses > 1 && self.rng.pct(1) {
                (w + 1 + self.rng.below(self.warehouses - 1)) % self.warehouses
            } else {
                w
            };
            let item = self.rng.below(ITEMS);
            let qty = self.rng.range(1, 10) as i64;
            ops.push(WorkloadOp::Add {
                table: STOCK,
                key: Self::stock_key(supply_w, item),
                col: 1,
                delta: -qty,
            });
            ops.push(WorkloadOp::Insert {
                table: ORDER_LINE,
                key: o_id * 16 + line,
                row: vec![item as i64, qty],
            });
        }
        TxnSpec {
            kind: "NewOrder",
            ops,
            may_fail: false,
        }
    }

    fn payment(&mut self) -> TxnSpec {
        let w = self.rng.below(self.warehouses);
        let d = self.rng.below(DISTRICTS_PER_WH);
        // 85% home district customer, 15% remote, per the spec.
        let (cw, cd) = if self.warehouses > 1 && self.rng.pct(15) {
            (
                (w + 1 + self.rng.below(self.warehouses - 1)) % self.warehouses,
                self.rng.below(DISTRICTS_PER_WH),
            )
        } else {
            (w, d)
        };
        let c = self.rng.below(CUSTOMERS_PER_DISTRICT);
        let amount = self.rng.range(1, 5_000) as i64;
        TxnSpec {
            kind: "Payment",
            ops: vec![
                WorkloadOp::Add { table: WAREHOUSE, key: w, col: 0, delta: amount },
                WorkloadOp::Add {
                    table: DISTRICT,
                    key: Self::district_key(w, d),
                    col: 0,
                    delta: amount,
                },
                WorkloadOp::Add {
                    table: CUSTOMER,
                    key: Self::customer_key(cw, cd, c),
                    col: 0,
                    delta: -amount,
                },
            ],
            may_fail: false,
        }
    }
}

impl Workload for TpccLite {
    fn name(&self) -> &'static str {
        "tpcc-lite"
    }

    fn tables(&self) -> Vec<TableDef> {
        vec![
            TableDef { id: WAREHOUSE, name: "warehouse".into(), arity: 1 },
            TableDef { id: DISTRICT, name: "district".into(), arity: 2 },
            TableDef { id: CUSTOMER, name: "customer".into(), arity: 2 },
            TableDef { id: STOCK, name: "stock".into(), arity: 2 },
            TableDef { id: ORDERS, name: "orders".into(), arity: 3 },
            TableDef { id: ORDER_LINE, name: "order_line".into(), arity: 2 },
        ]
    }

    fn population(&self, emit: &mut dyn FnMut(u32, u64, &[i64])) {
        for w in 0..self.warehouses {
            emit(WAREHOUSE, w, &[0]);
            for d in 0..DISTRICTS_PER_WH {
                emit(DISTRICT, Self::district_key(w, d), &[0, 0]);
                for c in 0..CUSTOMERS_PER_DISTRICT {
                    emit(CUSTOMER, Self::customer_key(w, d, c), &[0, 0]);
                }
            }
            for i in 0..ITEMS {
                emit(STOCK, Self::stock_key(w, i), &[0, 100]);
            }
        }
    }

    fn next_txn(&mut self) -> TxnSpec {
        // Standard-ish mix reduced to the two headline transactions:
        // NewOrder ~50%, Payment ~50% (their 45/43 share renormalized).
        if self.rng.pct(50) {
            self.new_order()
        } else {
            self.payment()
        }
    }

    fn fork(&mut self) -> Box<dyn Workload> {
        Box::new(TpccLite {
            warehouses: self.warehouses,
            rng: self.rng.split(),
            order_seq: Arc::clone(&self.order_seq),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_counts() {
        let w = TpccLite::new(2, 1);
        let mut pop = Vec::new();
        w.population(&mut |t, _, _| pop.push(t));
        let count = |t: u32| pop.iter().filter(|&&tt| tt == t).count() as u64;
        assert_eq!(count(WAREHOUSE), 2);
        assert_eq!(count(DISTRICT), 2 * DISTRICTS_PER_WH);
        assert_eq!(count(CUSTOMER), 2 * DISTRICTS_PER_WH * CUSTOMERS_PER_DISTRICT);
        assert_eq!(count(STOCK), 2 * ITEMS);
    }

    #[test]
    fn new_order_shape() {
        let mut w = TpccLite::new(1, 2);
        loop {
            let txn = w.next_txn();
            if txn.kind == "NewOrder" {
                // 4 header ops + 2 per line, 5..=15 lines.
                assert!(txn.ops.len() >= 4 + 2 * 5 && txn.ops.len() <= 4 + 2 * 15);
                assert!(matches!(txn.ops[3], WorkloadOp::Insert { table: ORDERS, .. }));
                break;
            }
        }
    }

    #[test]
    fn order_ids_unique_across_forks() {
        let mut a = TpccLite::new(1, 3);
        let mut b = a.fork();
        let mut keys = Vec::new();
        for _ in 0..200 {
            for txn in [a.next_txn(), b.next_txn()] {
                if txn.kind == "NewOrder" {
                    if let WorkloadOp::Insert { key, .. } = &txn.ops[3] {
                        keys.push(*key);
                    }
                }
            }
        }
        let before = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), before);
    }

    #[test]
    fn mix_is_roughly_even() {
        let mut w = TpccLite::new(2, 4);
        let neworders = (0..5_000).filter(|_| w.next_txn().kind == "NewOrder").count();
        assert!((2_200..2_800).contains(&neworders));
    }
}

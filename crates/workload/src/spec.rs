//! Engine-agnostic workload interface.
//!
//! A workload exposes its schema, an initial population, and an infinite
//! deterministic stream of transaction specs. Specs are flat op lists —
//! deliberately the same shape as DORA action flows, and trivially replayable
//! through the conventional 2PL engine, so the two execution models can be
//! compared on identical request streams.

/// Table definition: id, name, column count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableDef {
    /// Table id (also the lock-manager and router table id).
    pub id: u32,
    /// Name, for reports.
    pub name: String,
    /// Number of `i64` value columns.
    pub arity: usize,
}

/// One operation within a transaction spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadOp {
    /// Point read.
    Read {
        /// Table id.
        table: u32,
        /// Key.
        key: u64,
    },
    /// Whole-row overwrite.
    Write {
        /// Table id.
        table: u32,
        /// Key.
        key: u64,
        /// New row.
        row: Vec<i64>,
    },
    /// Column increment (read-modify-write).
    Add {
        /// Table id.
        table: u32,
        /// Key.
        key: u64,
        /// Column index.
        col: usize,
        /// Signed delta.
        delta: i64,
    },
    /// Row insert.
    Insert {
        /// Table id.
        table: u32,
        /// Key.
        key: u64,
        /// Row.
        row: Vec<i64>,
    },
    /// Row delete.
    Delete {
        /// Table id.
        table: u32,
        /// Key.
        key: u64,
    },
}

impl WorkloadOp {
    /// Returns `true` if the op cannot modify data.
    pub fn is_read(&self) -> bool {
        matches!(self, WorkloadOp::Read { .. })
    }

    /// The `(table, key)` the op addresses — what placement and slot
    /// ownership are decided on.
    pub fn target(&self) -> (u32, u64) {
        match *self {
            WorkloadOp::Read { table, key }
            | WorkloadOp::Write { table, key, .. }
            | WorkloadOp::Add { table, key, .. }
            | WorkloadOp::Insert { table, key, .. }
            | WorkloadOp::Delete { table, key } => (table, key),
        }
    }
}

/// A transaction: a named op list. Ops may legitimately fail (e.g. TATP
/// insert-call-forwarding hits an existing key); `may_fail` tells the
/// harness whether a logical failure counts against correctness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnSpec {
    /// Transaction type name (for per-type reporting).
    pub kind: &'static str,
    /// The operations, in order.
    pub ops: Vec<WorkloadOp>,
    /// Whether a logical failure is an expected outcome for this type.
    pub may_fail: bool,
}

/// A benchmark workload.
pub trait Workload: Send {
    /// Short name for reports.
    fn name(&self) -> &'static str;
    /// Schema.
    fn tables(&self) -> Vec<TableDef>;
    /// Streams the initial rows to `emit` as `(table, key, row)`, each
    /// table's in key order, allocating nothing per row.
    fn population(&self, emit: &mut dyn FnMut(u32, u64, &[i64]));
    /// Next transaction in this generator's deterministic stream.
    fn next_txn(&mut self) -> TxnSpec;
    /// An independent generator for another worker thread.
    fn fork(&mut self) -> Box<dyn Workload>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_classification() {
        assert!(WorkloadOp::Read { table: 0, key: 1 }.is_read());
        assert!(!WorkloadOp::Delete { table: 0, key: 1 }.is_read());
    }
}

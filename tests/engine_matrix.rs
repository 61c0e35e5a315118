//! Integration: the full engine configuration matrix on real workloads.
//!
//! Every execution model × log policy × ELR combination must run every
//! workload correctly: all must-succeed transactions commit, and workload
//! invariants (conservation of money, row counts) hold at the end.

use esdb::core::{Database, EngineConfig, ExecutionModel};
use esdb::wal::LogPolicy;
use esdb::workload::{Tatp, Tpcb, Ycsb};
use std::sync::Arc;

fn configs() -> Vec<EngineConfig> {
    let mut out = Vec::new();
    for execution in [
        ExecutionModel::Conventional { lock_partitions: 16 },
        ExecutionModel::Dora { partitions: 3 },
    ] {
        for log in LogPolicy::ALL {
            for elr in [false, true] {
                out.push(EngineConfig {
                    execution,
                    log,
                    elr,
                    ..EngineConfig::default()
                });
            }
        }
    }
    out
}

#[test]
fn matrix_labels_are_pinned() {
    // The labels name the rows of every table the matrix feeds.
    let labels: Vec<String> = configs().iter().map(EngineConfig::label).collect();
    assert_eq!(
        labels,
        [
            "conv/serial",
            "conv/serial+elr",
            "conv/decoupled",
            "conv/decoupled+elr",
            "conv/consolidated",
            "conv/consolidated+elr",
            "dora3/serial",
            "dora3/serial+elr",
            "dora3/decoupled",
            "dora3/decoupled+elr",
            "dora3/consolidated",
            "dora3/consolidated+elr",
        ]
    );
}

#[test]
fn tpcb_conserves_money_under_every_config() {
    for cfg in configs() {
        let label = cfg.label();
        let db = Arc::new(Database::open(cfg));
        let mut w = Tpcb::new(2, 99);
        db.load_population(&w).expect("population load");
        let report = db.run_workload(&mut w, 3, 150);
        assert_eq!(report.failed, 0, "[{label}] {report}");
        assert_eq!(report.committed, 450, "[{label}]");

        // Conservation: sum of account deltas == sum of branch deltas ==
        // sum of teller deltas (all started at 0).
        let sum = |table: u32| {
            let t = db.table(table).unwrap();
            let mut total = 0i64;
            let col = if table == esdb::workload::tpcb::BRANCHES { 0 } else { 1 };
            t.scan(|_, row| total += row[col]).unwrap();
            total
        };
        let accounts = sum(esdb::workload::tpcb::ACCOUNTS);
        let tellers = sum(esdb::workload::tpcb::TELLERS);
        let branches = sum(esdb::workload::tpcb::BRANCHES);
        assert_eq!(accounts, tellers, "[{label}]");
        assert_eq!(tellers, branches, "[{label}]");
        // History rows: one per committed transaction.
        let history = db.table(esdb::workload::tpcb::HISTORY).unwrap();
        assert_eq!(history.len(), 450, "[{label}]");
    }
}

#[test]
fn ycsb_hot_skew_survives_every_config() {
    // theta=0.95 over few records: heavy conflicts; everything must still
    // commit (retries) and counters must add up exactly.
    for cfg in configs() {
        let label = cfg.label();
        let db = Arc::new(Database::open(cfg));
        let mut w = Ycsb::new(64, 20, 0.95, 2, 3);
        db.load_population(&w).expect("population load");
        let report = db.run_workload(&mut w, 3, 100);
        assert_eq!(report.failed, 0, "[{label}] {report}");

        // Column 1 of the user table counts update hits; total must equal
        // the number of committed update ops.
        let t = db.table(esdb::workload::ycsb::USERTABLE).unwrap();
        let mut total = 0i64;
        t.scan(|_, row| total += row[1]).unwrap();
        assert!(total > 0, "[{label}] some updates must have landed");
    }
}

#[test]
fn tatp_row_counts_stable_under_every_config() {
    // Only InsertCallForwarding / DeleteCallForwarding mutate row counts, and
    // both touch CALL_FORWARDING exclusively. The other three tables must end
    // with exactly their populated row counts, and the failure accounting must
    // balance: every attempt is committed, an expected (spec-sanctioned)
    // failure, or a hard failure — and hard failures are forbidden.
    for cfg in configs() {
        let label = cfg.label();
        let db = Arc::new(Database::open(cfg));
        let mut w = Tatp::new(40, 11);
        db.load_population(&w).expect("population load");
        let fixed_tables = [
            esdb::workload::tatp::SUBSCRIBER,
            esdb::workload::tatp::ACCESS_INFO,
            esdb::workload::tatp::SPECIAL_FACILITY,
        ];
        let before: Vec<u64> = fixed_tables
            .iter()
            .map(|&t| db.table(t).unwrap().len())
            .collect();

        let report = db.run_workload(&mut w, 3, 200);
        assert_eq!(report.failed, 0, "[{label}] {report}");
        assert_eq!(
            report.committed + report.expected_failures,
            report.attempts,
            "[{label}] {report}"
        );
        // The mix is 80% reads; the huge may-fail share still commits mostly.
        assert!(report.committed > report.expected_failures, "[{label}] {report}");

        for (&t, &n) in fixed_tables.iter().zip(&before) {
            assert_eq!(db.table(t).unwrap().len(), n, "[{label}] table {t}");
        }
    }
}

#[test]
fn ycsb_write_heavy_counts_exact_under_every_config() {
    // read_pct = 0: every op of every transaction is an Add of +1 to column 1
    // of an existing row, and the spec never legitimately fails. The final
    // sum over column 1 must therefore equal committed transactions times
    // ops_per_txn exactly — any lost or double-applied update shows up.
    for cfg in configs() {
        let label = cfg.label();
        let db = Arc::new(Database::open(cfg));
        let ops_per_txn = 3usize;
        let mut w = Ycsb::new(48, 0, 0.9, ops_per_txn, 17);
        db.load_population(&w).expect("population load");
        let report = db.run_workload(&mut w, 3, 120);
        assert_eq!(report.failed, 0, "[{label}] {report}");
        assert_eq!(report.committed, 360, "[{label}] {report}");

        let t = db.table(esdb::workload::ycsb::USERTABLE).unwrap();
        let mut total = 0i64;
        t.scan(|_, row| total += row[1]).unwrap();
        assert_eq!(
            total,
            report.committed as i64 * ops_per_txn as i64,
            "[{label}] update count drifted from committed ops"
        );
    }
}

#[test]
fn cycle_accounting_is_conservative_under_every_config() {
    // The observability layer must stay honest across the whole engine
    // matrix: accounted time (useful + waits) can never exceed measured
    // wall clock, and the latency histogram must see every attempt.
    if !esdb::obs::enabled() {
        return; // compiled out: nothing to check
    }
    let threads = 3usize;
    for cfg in configs() {
        let label = cfg.label();
        let db = Arc::new(Database::open(cfg));
        let mut w = Tpcb::new(2, 7);
        db.load_population(&w).expect("population load");
        let start = std::time::Instant::now();
        let report = db.run_workload(&mut w, threads, 60);
        let harness_wall = start.elapsed().as_nanos() as u64;

        // Every attempt was profiled exactly once (worker-local histogram,
        // merged at join — no sampling, no drops).
        assert_eq!(report.latency.count, report.attempts, "[{label}]");

        // Per-transaction conservation, summed: each txn's useful + waits is
        // capped by its own wall clock, so the aggregate is capped by total
        // worker run time, itself capped by the harness wall clock per worker.
        let accounted = report.waits.wall();
        assert!(accounted > 0, "[{label}] profiled work must be visible");
        let budget = harness_wall.saturating_mul(threads as u64);
        assert!(
            accounted <= budget,
            "[{label}] accounted {accounted}ns exceeds {threads}x wall {harness_wall}ns"
        );
        // Each wait class alone also fits the budget.
        for class in esdb::obs::WaitClass::ALL {
            assert!(report.waits.get(class) <= budget, "[{label}] {}", class.name());
        }

        // The per-txn latency each worker recorded is that txn's wall clock,
        // so the histogram total equals the accounted total.
        assert_eq!(report.latency.sum, accounted, "[{label}]");
    }
}

#[test]
fn wal_contains_commit_per_update_txn() {
    let db = Arc::new(Database::open(EngineConfig::conventional_baseline()));
    let mut w = Tpcb::new(1, 5);
    db.load_population(&w).expect("population load");
    let report = db.run_workload(&mut w, 2, 50);
    assert_eq!(report.committed, 100);
    let commits = db
        .wal()
        .records()
        .iter()
        .filter(|r| matches!(r.body, esdb::wal::LogBody::Commit))
        .count();
    assert_eq!(commits, 100);
}

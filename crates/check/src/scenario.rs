//! Checkable scenarios: small, fully explicit concurrent workloads with
//! end-state invariants.
//!
//! A scenario pins everything the checker needs for deterministic replay:
//! the engine configuration, the schema, the initial population, one fixed
//! transaction script per client, and the invariants the final state must
//! satisfy. Scripts are generated once (seeded) when the scenario is built,
//! so every schedule of the same scenario executes the same transactions.

use esdb_core::spec_exec::SpecOutcome;
use esdb_core::{Database, EngineConfig};
use esdb_workload::{Rng, TxnSpec, WorkloadOp};

/// Everything the invariant oracle can look at after a run.
pub struct RunView<'a> {
    /// The database, quiesced (all clients finished, verdicts applied).
    pub db: &'a Database,
    /// The per-client scripts, as executed.
    pub clients: &'a [Vec<TxnSpec>],
    /// Per-client, per-transaction outcomes (parallel to `clients`).
    pub outcomes: &'a [Vec<SpecOutcome>],
}

impl RunView<'_> {
    /// Sum of `col` over every row of `table`.
    pub fn table_sum(&self, table: u32, col: usize) -> i64 {
        let t = self.db.table(table).expect("scenario table");
        let mut total = 0i64;
        t.scan(|_, row| total += row[col]).expect("scan");
        total
    }

    /// Number of committed transactions across all clients.
    pub fn committed(&self) -> usize {
        self.outcomes
            .iter()
            .flatten()
            .filter(|o| o.is_committed())
            .count()
    }
}

/// A named end-state predicate.
pub struct Invariant {
    /// Short name, used in violation reports.
    pub name: &'static str,
    /// Returns `Err(description)` when violated.
    #[allow(clippy::type_complexity)]
    pub check: Box<dyn Fn(&RunView) -> Result<(), String> + Send + Sync>,
}

impl Invariant {
    /// Convenience constructor.
    pub fn new(
        name: &'static str,
        check: impl Fn(&RunView) -> Result<(), String> + Send + Sync + 'static,
    ) -> Self {
        Invariant {
            name,
            check: Box::new(check),
        }
    }
}

/// A deterministic concurrent workload plus its correctness oracle.
pub struct Scenario {
    /// Name, used in reports.
    pub name: &'static str,
    /// Engine configuration to check under.
    pub config: EngineConfig,
    /// Schema: `(name, arity)`; table ids are assigned 0.. in order.
    pub tables: Vec<(&'static str, usize)>,
    /// Initial rows: `(table, key, row)`.
    pub population: Vec<(u32, u64, Vec<i64>)>,
    /// One transaction script per client thread.
    pub clients: Vec<Vec<TxnSpec>>,
    /// End-state invariants.
    pub invariants: Vec<Invariant>,
}

// ---------------------------------------------------------------------------
// TPC-B micro scenario
// ---------------------------------------------------------------------------

/// Table ids for [`tpcb_micro`] (creation order).
pub mod tpcb_tables {
    /// Branches: `[balance]`.
    pub const BRANCHES: u32 = 0;
    /// Tellers: `[branch, balance]`.
    pub const TELLERS: u32 = 1;
    /// Accounts: `[branch, balance]`.
    pub const ACCOUNTS: u32 = 2;
    /// History: `[teller, account, delta]`.
    pub const HISTORY: u32 = 3;
}

/// A 4-transaction-per-client TPC-B style micro workload: every client runs
/// debit/credit transactions over a tiny bank (2 branches, 4 tellers,
/// 8 accounts), and the oracle checks money conservation plus the
/// history-row count.
pub fn tpcb_micro(config: EngineConfig, clients: usize, txns_per_client: usize, seed: u64) -> Scenario {
    use tpcb_tables::*;
    const NBRANCH: u64 = 2;
    const NTELLER: u64 = 4;
    const NACCOUNT: u64 = 8;

    let mut population = Vec::new();
    for b in 0..NBRANCH {
        population.push((BRANCHES, b, vec![0]));
    }
    for t in 0..NTELLER {
        population.push((TELLERS, t, vec![(t % NBRANCH) as i64, 0]));
    }
    for a in 0..NACCOUNT {
        population.push((ACCOUNTS, a, vec![(a % NBRANCH) as i64, 0]));
    }

    let mut rng = Rng::new(seed);
    let mut history_key = 0u64;
    let mut scripts = Vec::new();
    for _ in 0..clients {
        let mut script = Vec::new();
        for _ in 0..txns_per_client {
            let account = rng.below(NACCOUNT);
            let teller = rng.below(NTELLER);
            let branch = account % NBRANCH;
            let delta = rng.below(100) as i64 - 50;
            history_key += 1;
            script.push(TxnSpec {
                kind: "debit-credit",
                ops: vec![
                    WorkloadOp::Add { table: ACCOUNTS, key: account, col: 1, delta },
                    WorkloadOp::Add { table: TELLERS, key: teller, col: 1, delta },
                    WorkloadOp::Add { table: BRANCHES, key: branch, col: 0, delta },
                    WorkloadOp::Insert {
                        table: HISTORY,
                        key: history_key,
                        row: vec![teller as i64, account as i64, delta],
                    },
                ],
                may_fail: false,
            });
        }
        scripts.push(script);
    }

    Scenario {
        name: "tpcb-micro",
        config,
        tables: vec![
            ("branches", 1),
            ("tellers", 2),
            ("accounts", 2),
            ("history", 3),
        ],
        population,
        clients: scripts,
        invariants: vec![
            Invariant::new("money-conservation", |v| {
                let accounts = v.table_sum(ACCOUNTS, 1);
                let tellers = v.table_sum(TELLERS, 1);
                let branches = v.table_sum(BRANCHES, 0);
                if accounts == tellers && tellers == branches {
                    Ok(())
                } else {
                    Err(format!(
                        "accounts {accounts} vs tellers {tellers} vs branches {branches}"
                    ))
                }
            }),
            Invariant::new("history-count", |v| {
                let history = v.db.table(HISTORY).expect("history").len();
                let committed = v.committed() as u64;
                if history == committed {
                    Ok(())
                } else {
                    Err(format!("{history} history rows, {committed} commits"))
                }
            }),
        ],
    }
}

// ---------------------------------------------------------------------------
// Transfers + snapshot reader scenario
// ---------------------------------------------------------------------------

/// Account table id for [`transfer_snapshot`].
pub const TRANSFER_ACCOUNTS: u32 = 0;
const TRANSFER_KEYS: u64 = 4;
const TRANSFER_INITIAL: i64 = 100;

/// Money transfers between 4 accounts plus a snapshot-reading client: each
/// reader transaction reads all accounts and must observe the invariant
/// total (any torn view is a serializability violation). This is the
/// scenario whose invariants the engine mutations visibly break.
pub fn transfer_snapshot(
    config: EngineConfig,
    writers: usize,
    txns_per_writer: usize,
    reader_txns: usize,
    seed: u64,
) -> Scenario {
    let total: i64 = TRANSFER_KEYS as i64 * TRANSFER_INITIAL;
    let population = (0..TRANSFER_KEYS)
        .map(|k| (TRANSFER_ACCOUNTS, k, vec![TRANSFER_INITIAL]))
        .collect();

    let mut rng = Rng::new(seed);
    let mut scripts = Vec::new();
    for _ in 0..writers {
        let mut script = Vec::new();
        for _ in 0..txns_per_writer {
            let from = rng.below(TRANSFER_KEYS);
            let to = (from + 1 + rng.below(TRANSFER_KEYS - 1)) % TRANSFER_KEYS;
            let amount = rng.range(1, 40) as i64;
            script.push(TxnSpec {
                kind: "transfer",
                ops: vec![
                    WorkloadOp::Add { table: TRANSFER_ACCOUNTS, key: from, col: 0, delta: -amount },
                    WorkloadOp::Add { table: TRANSFER_ACCOUNTS, key: to, col: 0, delta: amount },
                ],
                may_fail: false,
            });
        }
        scripts.push(script);
    }
    scripts.push(
        (0..reader_txns)
            .map(|_| TxnSpec {
                kind: "snapshot-read",
                ops: (0..TRANSFER_KEYS)
                    .map(|k| WorkloadOp::Read { table: TRANSFER_ACCOUNTS, key: k })
                    .collect(),
                may_fail: false,
            })
            .collect(),
    );

    Scenario {
        name: "transfer-snapshot",
        config,
        tables: vec![("accounts", 1)],
        population,
        clients: scripts,
        invariants: vec![
            Invariant::new("conservation", move |v| {
                let sum = v.table_sum(TRANSFER_ACCOUNTS, 0);
                if sum == total {
                    Ok(())
                } else {
                    Err(format!("account sum {sum}, expected {total}"))
                }
            }),
            Invariant::new("snapshot-total", move |v| {
                for (client, script) in v.clients.iter().enumerate() {
                    for (i, spec) in script.iter().enumerate() {
                        let Some(SpecOutcome::Committed { reads }) =
                            v.outcomes.get(client).and_then(|o| o.get(i))
                        else {
                            continue;
                        };
                        let row0 = |r: &Option<Vec<i64>>| r.as_ref().map_or(0, |row| row[0]);
                        // A point reader's reads sum to the total; each of a
                        // range reader's two sums is the total.
                        let sums: Vec<i64> = match spec.kind {
                            "snapshot-read" => vec![reads.iter().map(row0).sum()],
                            RANGE_SUM => reads.iter().map(row0).collect(),
                            _ => continue,
                        };
                        if let Some(sum) = sums.into_iter().find(|&sum| sum != total) {
                            return Err(format!(
                                "client {client} txn {i} saw torn snapshot: {sum} != {total}"
                            ));
                        }
                    }
                }
                Ok(())
            }),
        ],
    }
}

/// The `kind` of a transaction that sums the whole [`TRANSFER_ACCOUNTS`]
/// table by range (`Txn::range`, under a table S lock), reads account 0,
/// and sums it again. No `WorkloadOp` scans, so the checker's conventional
/// client runs it itself; its outcome's reads are the two sums, each a
/// one-column row.
pub(crate) const RANGE_SUM: &str = "range-sum";

/// [`transfer_snapshot`] with a range reader in place of the point reader:
/// each of its `scans` transactions sums the table twice by range, and
/// both sums must be the total. Its
/// table S request meets the writers' inherited intention grants, so a
/// schedule drives revokes of idle agents' grants and waits on live ones.
/// Conventional engines only.
pub fn transfer_scan(
    config: EngineConfig,
    writers: usize,
    txns_per_writer: usize,
    scans: usize,
    seed: u64,
) -> Scenario {
    let mut scenario = transfer_snapshot(config, writers, txns_per_writer, scans, seed);
    scenario.name = "transfer-scan";
    for spec in scenario.clients.last_mut().expect("the reader client") {
        *spec = TxnSpec { kind: RANGE_SUM, ops: Vec::new(), may_fail: false };
    }
    scenario
}

// ---------------------------------------------------------------------------
// HTAP follower scenario: transfers + commit-consistent follower queries
// ---------------------------------------------------------------------------

/// Account table id for [`htap_snapshot`].
pub const HTAP_ACCOUNTS: u32 = 0;
const HTAP_KEYS: u64 = 4;
const HTAP_INITIAL: i64 = 100;

/// Money transfers under the seeded scheduler, with a **follower-side**
/// snapshot oracle: at quiescence the schedule's durable WAL is replayed
/// into a fresh replica in seeded chunk cuts, and after every chunk a pinned
/// [`esdb_repl::HtapView::query_at`] aggregate runs at the follower's
/// current consistent cut. Every such query must observe either the
/// pre-population empty state or an exactly conserved total — a torn
/// transaction or an uncommitted write at *any* cut is a violation.
///
/// This is the checker-shaped statement of the HTAP guarantee: the primary's
/// interleaving (which the scheduler perturbs per seed) decides the WAL's
/// record order, and no record order may ever let a pinned follower query
/// see half a transfer.
pub fn htap_snapshot(
    config: EngineConfig,
    writers: usize,
    txns_per_writer: usize,
    seed: u64,
) -> Scenario {
    let total: i64 = HTAP_KEYS as i64 * HTAP_INITIAL;
    let population = (0..HTAP_KEYS)
        .map(|k| (HTAP_ACCOUNTS, k, vec![HTAP_INITIAL]))
        .collect();

    let mut rng = Rng::new(seed);
    let mut scripts = Vec::new();
    for _ in 0..writers {
        let mut script = Vec::new();
        for _ in 0..txns_per_writer {
            let from = rng.below(HTAP_KEYS);
            let to = (from + 1 + rng.below(HTAP_KEYS - 1)) % HTAP_KEYS;
            let amount = rng.range(1, 40) as i64;
            script.push(TxnSpec {
                kind: "transfer",
                ops: vec![
                    WorkloadOp::Add { table: HTAP_ACCOUNTS, key: from, col: 0, delta: -amount },
                    WorkloadOp::Add { table: HTAP_ACCOUNTS, key: to, col: 0, delta: amount },
                ],
                may_fail: false,
            });
        }
        scripts.push(script);
    }

    Scenario {
        name: "htap-snapshot",
        config,
        tables: vec![("accounts", 1)],
        population,
        clients: scripts,
        invariants: vec![
            Invariant::new("conservation", move |v| {
                let sum = v.table_sum(HTAP_ACCOUNTS, 0);
                if sum == total {
                    Ok(())
                } else {
                    Err(format!("account sum {sum}, expected {total}"))
                }
            }),
            Invariant::new("follower-consistent-cuts", move |v| {
                follower_cuts_hold(v.db, total)
            }),
        ],
    }
}

/// The follower oracle behind [`htap_snapshot`]: bootstrap a replica from an
/// *empty* snapshot at the WAL's origin — the primary's catalog with every
/// page list emptied, so the follower's heaps are built by adopting the
/// pages the row records name (the population itself loads through a logged
/// setup transaction, so replay reconstructs everything) — feed the durable
/// stream in seeded cuts, and interrogate every cut with a pinned aggregate
/// query. At quiescence the follower's catalog, page lists included, must
/// equal the primary's.
fn follower_cuts_hold(db: &Database, total: i64) -> Result<(), String> {
    use esdb_core::TableImage;
    use esdb_staged::{AggFunc, PlanNode};
    use std::sync::Arc;
    use std::time::Duration;

    let wal = db.wal();
    wal.wait_durable(wal.current_lsn());
    let start = wal.start_lsn();
    let tables: Vec<TableImage> =
        db.catalog().into_iter().map(|t| TableImage { pages: Vec::new(), ..t }).collect();
    let snap = esdb_net::Snapshot::of(start, &tables, Vec::new());
    let mut replica =
        esdb_repl::Replica::bootstrap(snap, EngineConfig::conventional_baseline())
            .map_err(|e| format!("follower bootstrap: {e}"))?;
    let view = replica.htap_view();
    let durable = wal.durable_lsn();
    if durable <= start {
        return Ok(());
    }
    let (bytes, s0) = wal
        .durable_tail(start, usize::MAX)
        .ok_or_else(|| "durable tail unavailable".to_string())?;
    let avail = ((durable - s0) as usize).min(bytes.len());
    let mut cuts = Rng::new(0x47A9 ^ avail as u64);
    let mut off = 0usize;
    while off < avail {
        let end = (off + 1 + cuts.below(384) as usize).min(avail);
        replica
            .ingest(s0 + off as u64, &bytes[off..end])
            .map_err(|e| format!("follower ingest: {e}"))?;
        off = end;
        let table = view
            .db()
            .table(HTAP_ACCOUNTS)
            .ok_or_else(|| "accounts table missing on follower".to_string())?;
        // Scan output is `[key, col0]`, so the balance is plan column 1.
        let sum_plan = PlanNode::scan(Arc::clone(&table)).aggregate(None, 1, AggFunc::Sum);
        let cnt_plan = PlanNode::scan(table).aggregate(None, 1, AggFunc::Count);
        let watermark = view.watermark();
        let sum_rows = view
            .query_at(0, &sum_plan, Duration::ZERO)
            .map_err(|lag| format!("follower lagging at {lag}"))?;
        let cnt_rows = view
            .query_at(0, &cnt_plan, Duration::ZERO)
            .map_err(|lag| format!("follower lagging at {lag}"))?;
        let sum = sum_rows.first().map_or(0, |r| r[0]);
        let cnt = cnt_rows.first().map_or(0, |r| r[0]);
        let consistent = (cnt == 0 && sum == 0) || (cnt == HTAP_KEYS as i64 && sum == total);
        if !consistent {
            return Err(format!(
                "torn follower cut at watermark {watermark}: \
                 count {cnt}, sum {sum} (want 0/0 or {HTAP_KEYS}/{total})"
            ));
        }
    }
    if replica.applied_lsn() < durable {
        return Err(format!(
            "follower frontier {} short of durable {durable} at quiescence",
            replica.applied_lsn()
        ));
    }
    let (ours, theirs) = (replica.db().catalog(), db.catalog());
    if ours != theirs {
        return Err(format!("follower catalog {ours:?} differs from the primary's {theirs:?}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tpcb_micro_scripts_are_seed_deterministic() {
        let cfg = EngineConfig::default();
        let a = tpcb_micro(cfg.clone(), 3, 4, 42);
        let b = tpcb_micro(cfg, 3, 4, 42);
        assert_eq!(a.clients, b.clients);
        assert_eq!(a.population, b.population);
    }

    #[test]
    fn transfer_scenario_shape() {
        let s = transfer_snapshot(EngineConfig::default(), 2, 3, 2, 7);
        assert_eq!(s.clients.len(), 3); // 2 writers + 1 reader
        assert_eq!(s.clients[2].len(), 2);
        assert!(s.clients[2].iter().all(|t| t.kind == "snapshot-read"));
    }
}

//! Tier-1 reaches two-phase commit: two loopback shards behind `esdb::net`,
//! one `esdb::shard` router, mixed TPC-B at 50 % cross-shard plus one
//! logical-failure abort. The router acknowledges at the decision and only
//! posts its verdicts, so the test settles before it looks: then no shard
//! holds a prepared transaction, the router's counters add up, and money is
//! conserved across shards.

use esdb::core::spec_exec::SpecOutcome;
use esdb::core::{Database, EngineConfig};
use esdb::net::{Client, Server, ServerConfig};
use esdb::shard::router::RouterStats;
use esdb::shard::{
    load_shard_population, DecisionLog, NetShard, ShardBackend, ShardRouter, ShardedTpcb,
};
use esdb::workload::{tpcb, TxnSpec, Workload, WorkloadOp};
use std::sync::Arc;

const SHARDS: usize = 2;
const BRANCHES: u64 = 4;
const ACCOUNTS_PER_BRANCH: u64 = 100;
const TXNS: u64 = 300;

#[test]
fn mixed_tpcb_over_two_loopback_shards_settles_clean() {
    let w = ShardedTpcb::new(BRANCHES, ACCOUNTS_PER_BRANCH, 50, SHARDS, 21);
    let part = w.partitioner();
    let coord = Arc::new(DecisionLog::new());
    let mut dbs = Vec::new();
    let mut servers = Vec::new();
    for idx in 0..SHARDS {
        let db = Arc::new(Database::open(EngineConfig {
            buffer_frames: 512,
            ..EngineConfig::conventional_baseline()
        }));
        load_shard_population(&db, &w, &part, idx, SHARDS).unwrap();
        let config = ServerConfig {
            decision_source: Some(coord.decision_source()),
            ..ServerConfig::default()
        };
        servers.push(Server::start(Arc::clone(&db), "127.0.0.1:0", config).unwrap());
        dbs.push(db);
    }
    let backends: Vec<Box<dyn ShardBackend>> = servers
        .iter()
        .map(|s| Box::new(NetShard(Client::connect(s.local_addr()).unwrap())) as _)
        .collect();
    let mut router = ShardRouter::new(backends, Arc::new(part), Arc::clone(&coord)).unwrap();

    let forces_before = coord.forces();
    let mut gen = ShardedTpcb::new(BRANCHES, ACCOUNTS_PER_BRANCH, 50, SHARDS, 22);
    let mut cross = 0;
    for _ in 0..TXNS {
        let spec = gen.next_txn();
        cross += u64::from(spec.kind == "CrossShard");
        assert!(router.execute(&spec).unwrap().is_committed(), "{spec:?}");
    }
    assert!(cross > TXNS / 3, "50 % cross-shard produced only {cross}");

    // One abort: shard 0 votes yes on a real branch, shard 1 votes no on an
    // account (of an odd branch, hence its own) that does not exist.
    let doomed = TxnSpec {
        kind: "Doomed",
        ops: vec![
            WorkloadOp::Add { table: tpcb::BRANCHES, key: 0, col: 0, delta: 1_000_000 },
            WorkloadOp::Add {
                table: tpcb::ACCOUNTS,
                key: ACCOUNTS_PER_BRANCH * (BRANCHES + 1),
                col: 1,
                delta: 1_000_000,
            },
        ],
        may_fail: true,
    };
    assert_eq!(router.execute(&doomed).unwrap(), SpecOutcome::LogicalFailure);

    router.settle().unwrap();
    assert_eq!(
        router.stats(),
        RouterStats {
            single_shard: TXNS - cross,
            cross_shard: cross + 1,
            cross_commits: cross,
            cross_aborts: 1,
            ..RouterStats::default()
        }
    );
    // Presumed abort: one coordinator force per cross-shard commit, none for
    // the abort, and one for the gtid watermark covering all of them.
    assert_eq!(coord.forces() - forces_before, cross + 1);
    for (idx, db) in dbs.iter().enumerate() {
        assert!(db.prepared_gtids().is_empty(), "shard {idx} holds a prepared txn");
    }

    let sum = |table: u32, col: usize| -> i64 {
        let mut total = 0;
        for db in &dbs {
            db.table(table).unwrap().scan(|_, row| total += row[col]).unwrap();
        }
        total
    };
    let branches = sum(tpcb::BRANCHES, 0);
    assert_eq!(sum(tpcb::ACCOUNTS, 1), branches, "accounts out of conservation");
    assert_eq!(sum(tpcb::TELLERS, 1), branches, "tellers out of conservation");
    assert_eq!(sum(tpcb::HISTORY, 2), branches, "history out of conservation");
    let history: u64 = dbs.iter().map(|db| db.table(tpcb::HISTORY).unwrap().len()).sum();
    assert_eq!(history, TXNS, "one history row per commit, none for the abort");
    for server in servers {
        server.shutdown();
    }
}

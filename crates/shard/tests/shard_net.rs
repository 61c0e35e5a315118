//! Loopback cluster smoke: two shard servers behind the wire protocol, a
//! router running mixed single/cross-shard TPC-B, a coordinator crash in
//! the in-doubt window, and resolution over the wire.

use esdb_core::spec_exec::SpecOutcome;
use esdb_core::{Database, EngineConfig};
use esdb_net::{Client, NetError, Server, ServerConfig};
use esdb_shard::{
    load_shard_population, CrashPoint, DecisionLog, NetShard, ShardBackend, ShardError,
    ShardRouter, ShardedTpcb,
};
use esdb_workload::{tpcb, TxnSpec, Workload, WorkloadOp};
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};

const SHARDS: usize = 2;
const BRANCHES: u64 = 4;
const ACCOUNTS_PER_BRANCH: u64 = 200;

fn connect_shards(servers: &[Server]) -> Vec<Box<dyn ShardBackend>> {
    servers
        .iter()
        .map(|s| {
            Box::new(NetShard(Client::connect(s.local_addr()).unwrap())) as Box<dyn ShardBackend>
        })
        .collect()
}

/// Two loopback shard servers loaded with `w`'s population, answering
/// `ShardStatus` from `coord`.
fn start_cluster(w: &ShardedTpcb, coord: &Arc<DecisionLog>) -> (Vec<Arc<Database>>, Vec<Server>) {
    let part = w.partitioner();
    let config = EngineConfig { buffer_frames: 512, ..EngineConfig::default() };
    let mut dbs = Vec::new();
    let mut servers = Vec::new();
    for idx in 0..SHARDS {
        let db = Arc::new(Database::open(config.clone()));
        load_shard_population(&db, w, &part, idx, SHARDS).unwrap();
        let server = Server::start(
            Arc::clone(&db),
            "127.0.0.1:0",
            ServerConfig {
                decision_source: Some(coord.decision_source()),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        dbs.push(db);
        servers.push(server);
    }
    (dbs, servers)
}

/// TPC-B conservation summed across both shards, read straight off the
/// engines — so every verdict must have been settled first.
fn assert_conservation(dbs: &[Arc<Database>]) {
    let sum = |table: u32, col: usize| -> i64 {
        let mut total = 0;
        for db in dbs {
            db.table(table).unwrap().scan(|_, row| total += row[col]).unwrap();
        }
        total
    };
    let b = sum(tpcb::BRANCHES, 0);
    assert_eq!(sum(tpcb::ACCOUNTS, 1), b, "accounts out of conservation");
    assert_eq!(sum(tpcb::TELLERS, 1), b, "tellers out of conservation");
    assert_eq!(sum(tpcb::HISTORY, 2), b, "history out of conservation");
}

fn next_cross_shard(gen: &mut ShardedTpcb) -> TxnSpec {
    loop {
        let spec = gen.next_txn();
        if spec.kind == "CrossShard" {
            return spec;
        }
    }
}

#[test]
fn loopback_cluster_runs_2pc_crashes_the_coordinator_and_recovers() {
    let w = ShardedTpcb::new(BRANCHES, ACCOUNTS_PER_BRANCH, 30, SHARDS, 5);
    let part = w.partitioner();
    let coord = Arc::new(DecisionLog::new());
    let (dbs, servers) = start_cluster(&w, &coord);

    // Mixed burst: ~30% of transactions straddle both shards and pay 2PC.
    let mut gen = ShardedTpcb::new(BRANCHES, ACCOUNTS_PER_BRANCH, 30, SHARDS, 6);
    let mut router =
        ShardRouter::new(connect_shards(&servers), Arc::new(part), Arc::clone(&coord)).unwrap();
    let mut cross = 0;
    for _ in 0..200 {
        let spec = gen.next_txn();
        if spec.kind == "CrossShard" {
            cross += 1;
        }
        assert!(router.execute(&spec).unwrap().is_committed(), "burst txn failed");
    }
    assert!(cross > 20, "30% cross ratio produced only {cross} cross-shard txns");
    let stats = router.stats();
    assert_eq!(stats.cross_shard, cross);
    assert_eq!(stats.cross_commits, cross);
    assert_eq!(stats.single_shard, 200 - cross);

    // Abandon one cross-shard transaction in its in-doubt window and crash
    // the coordinator.
    let victim = next_cross_shard(&mut gen);
    let trace = router.execute_crashing(&victim, CrashPoint::AfterPrepare).unwrap();
    assert_eq!(trace.prepared.len(), 2, "victim must prepare on both shards");
    assert!(trace.decision.is_none());
    let coord = Arc::new(coord.recover());

    // Resolution over the wire: each shard reports its in-doubt set, the
    // recovered coordinator's verdict (presumed abort — no decision was
    // logged) is delivered as a decide frame.
    for server in &servers {
        let mut client = Client::connect(server.local_addr()).unwrap();
        let gtids = client.shard_in_doubt().unwrap();
        assert_eq!(gtids, vec![trace.gtid]);
        // The server-side decision source answers status queries with the
        // same verdict the resolver is about to apply.
        assert!(!client.shard_status(trace.gtid).unwrap());
        for gtid in gtids {
            client.shard_decide(gtid, coord.resolve(gtid)).unwrap();
        }
        assert!(client.shard_in_doubt().unwrap().is_empty());
    }

    // The cluster keeps serving: fresh router, recovered coordinator.
    drop(router);
    let mut router =
        ShardRouter::new(connect_shards(&servers), Arc::new(part), Arc::clone(&coord)).unwrap();
    for _ in 0..50 {
        assert!(router.execute(&gen.next_txn()).unwrap().is_committed());
    }
    // The last verdicts were posted, not awaited: wait them out before
    // looking at the engines behind the servers' backs.
    router.settle().unwrap();
    assert_conservation(&dbs);
}

/// A [`NetShard`] whose connection is cut the moment it is handed a verdict:
/// the decision is logged, the delivery never happens.
struct CutAtTheVerdict(Option<NetShard>);

impl CutAtTheVerdict {
    fn live(&mut self) -> Result<&mut NetShard, ShardError> {
        self.0.as_mut().ok_or(ShardError::Net(NetError::Unexpected("a live connection")))
    }
}

impl ShardBackend for CutAtTheVerdict {
    fn one_shot(&mut self, spec: &TxnSpec) -> Result<SpecOutcome, ShardError> {
        self.live()?.one_shot(spec)
    }
    fn prepare(&mut self, gtid: u64, ops: Vec<WorkloadOp>) -> Result<SpecOutcome, ShardError> {
        self.live()?.prepare(gtid, ops)
    }
    fn decide(&mut self, _gtid: u64, _commit: bool) -> Result<(), ShardError> {
        self.0 = None;
        self.live().map(|_| ())
    }
}

#[test]
fn a_verdict_lost_with_its_connection_is_resolved_from_the_decision_log() {
    let w = ShardedTpcb::new(BRANCHES, ACCOUNTS_PER_BRANCH, 100, SHARDS, 7);
    let part = w.partitioner();
    let coord = Arc::new(DecisionLog::new());
    let (dbs, servers) = start_cluster(&w, &coord);
    let connect = |idx: usize| NetShard(Client::connect(servers[idx].local_addr()).unwrap());

    let shards: Vec<Box<dyn ShardBackend>> =
        vec![Box::new(connect(0)), Box::new(CutAtTheVerdict(Some(connect(1))))];
    let mut router = ShardRouter::new(shards, Arc::new(part), Arc::clone(&coord)).unwrap();
    let mut gen = ShardedTpcb::new(BRANCHES, ACCOUNTS_PER_BRANCH, 100, SHARDS, 8);
    // Acknowledged at the decision: the caller sees the commit it got.
    assert!(router.execute(&next_cross_shard(&mut gen)).unwrap().is_committed());
    assert_eq!(router.stats().cross_commits, 1);
    assert_eq!(router.stats().decides_undelivered, 1);
    router.settle().unwrap();
    assert!(dbs[0].prepared_gtids().is_empty(), "the reachable participant was told");

    // The cut participant holds the gtid in doubt; the decision log says
    // commit; delivering that resolves it.
    let mut resolver = Client::connect(servers[1].local_addr()).unwrap();
    let in_doubt = resolver.shard_in_doubt().unwrap();
    assert_eq!(in_doubt.len(), 1);
    assert!(resolver.shard_status(in_doubt[0]).unwrap(), "a forced commit verdict");
    resolver.shard_decide(in_doubt[0], true).unwrap();
    assert!(resolver.shard_in_doubt().unwrap().is_empty());
    assert_conservation(&dbs);
}

/// A [`NetShard`] that, right after its prepare, asks the *other* server
/// for the gtid's status: a participant's `ShardStatus` arriving between
/// the router's two prepares. Only the first prepare across the wrappers
/// sharing `answer` asks, and its answer is kept there.
struct AskMidway {
    inner: NetShard,
    other: SocketAddr,
    answer: Arc<Mutex<Option<bool>>>,
}

impl ShardBackend for AskMidway {
    fn one_shot(&mut self, spec: &TxnSpec) -> Result<SpecOutcome, ShardError> {
        self.inner.one_shot(spec)
    }
    fn prepare(&mut self, gtid: u64, ops: Vec<WorkloadOp>) -> Result<SpecOutcome, ShardError> {
        let vote = self.inner.prepare(gtid, ops)?;
        let mut answer = self.answer.lock().unwrap();
        if answer.is_none() {
            *answer = Some(Client::connect(self.other)?.shard_status(gtid)?);
        }
        Ok(vote)
    }
    fn decide(&mut self, gtid: u64, commit: bool) -> Result<(), ShardError> {
        self.inner.decide(gtid, commit)
    }
    fn settle(&mut self) -> Result<(), ShardError> {
        self.inner.settle()
    }
}

#[test]
fn an_inquiry_between_the_prepares_takes_the_abort_verdict() {
    let w = ShardedTpcb::new(BRANCHES, ACCOUNTS_PER_BRANCH, 100, SHARDS, 11);
    let part = w.partitioner();
    let coord = Arc::new(DecisionLog::new());
    let (dbs, servers) = start_cluster(&w, &coord);
    let answer = Arc::new(Mutex::new(None));
    let shards: Vec<Box<dyn ShardBackend>> = (0..SHARDS)
        .map(|idx| {
            Box::new(AskMidway {
                inner: NetShard(Client::connect(servers[idx].local_addr()).unwrap()),
                other: servers[1 - idx].local_addr(),
                answer: Arc::clone(&answer),
            }) as Box<dyn ShardBackend>
        })
        .collect();
    let mut router = ShardRouter::new(shards, Arc::new(part), Arc::clone(&coord)).unwrap();
    let mut gen = ShardedTpcb::new(BRANCHES, ACCOUNTS_PER_BRANCH, 100, SHARDS, 12);

    // Both shards vote yes, but the inquiry came first: the coordinator
    // keeps the abort it answered, and the client sees the abort.
    let outcome = router.execute(&next_cross_shard(&mut gen)).unwrap();
    assert_eq!(*answer.lock().unwrap(), Some(false), "the inquiry is answered abort");
    assert_eq!(outcome, SpecOutcome::ConflictFailure);
    assert_eq!(router.stats().cross_aborts, 1);
    // No inquiry this time: the next transaction commits.
    assert!(router.execute(&next_cross_shard(&mut gen)).unwrap().is_committed());

    router.settle().unwrap();
    for server in &servers {
        let mut client = Client::connect(server.local_addr()).unwrap();
        assert!(client.shard_in_doubt().unwrap().is_empty(), "a participant left prepared");
    }
    assert_conservation(&dbs);
}

#[test]
fn back_to_back_commits_on_the_same_rows_never_wait_for_a_lock() {
    const TXNS: u64 = 2_000;
    let w = ShardedTpcb::new(BRANCHES, ACCOUNTS_PER_BRANCH, 100, SHARDS, 9);
    let part = w.partitioner();
    let coord = Arc::new(DecisionLog::new());
    let (dbs, servers) = start_cluster(&w, &coord);
    let mut router =
        ShardRouter::new(connect_shards(&servers), Arc::new(part), Arc::clone(&coord)).unwrap();

    // Branch 0 and its teller live on shard 0, branch 1's first account on
    // shard 1: every transaction prepares on the very rows whose locks the
    // previous one's posted verdicts release.
    let account = ACCOUNTS_PER_BRANCH;
    for h in 0..TXNS {
        let spec = TxnSpec {
            kind: "CrossShard",
            ops: vec![
                WorkloadOp::Add { table: tpcb::ACCOUNTS, key: account, col: 1, delta: 1 },
                WorkloadOp::Add { table: tpcb::TELLERS, key: 0, col: 1, delta: 1 },
                WorkloadOp::Add { table: tpcb::BRANCHES, key: 0, col: 0, delta: 1 },
                WorkloadOp::Insert {
                    table: tpcb::HISTORY,
                    key: h << 8,
                    row: vec![account as i64, 0, 1],
                },
            ],
            may_fail: false,
        };
        let outcome = router.execute(&spec).unwrap();
        assert!(outcome.is_committed(), "txn {h}: {outcome:?}");
    }
    router.settle().unwrap();
    assert_eq!(router.stats().cross_commits, TXNS);
    assert_eq!(router.stats().decides_undelivered, 0);
    // The verdict always precedes the next prepare on its connection, so no
    // prepare ever found the previous transaction's lock still held.
    for db in &dbs {
        // Counted where the `LockWait` obs sample is taken, per engine.
        assert_eq!(db.txn_manager().locks().stats().waits, 0, "a prepare overtook a verdict");
    }
    assert_eq!(dbs[0].read_committed(tpcb::BRANCHES, 0).unwrap(), vec![TXNS as i64]);
    assert_eq!(dbs[1].read_committed(tpcb::ACCOUNTS, account).unwrap()[1], TXNS as i64);
    assert_conservation(&dbs);
}

//! End-to-end semi-sync over real sockets: a primary in quorum mode, a real
//! replica whose feed thread acks durable progress, typed degradation when
//! the follower goes away, and the dead-feed fast path for follower reads.

use esdb_core::config::EngineConfig;
use esdb_core::{Database, QuorumPolicy, ReplGroup};
use esdb_net::{Client, NetError, ReconnectPolicy, Role, SemiSync, Server, ServerConfig};
use esdb_repl::start_replica;
use esdb_workload::{TxnSpec, WorkloadOp};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn spec_insert(t: u32, key: u64) -> TxnSpec {
    TxnSpec {
        kind: "ins",
        ops: vec![WorkloadOp::Insert { table: t, key, row: vec![1, 2] }],
        may_fail: false,
    }
}

#[test]
fn live_replica_feed_satisfies_quorum_and_its_death_degrades_typed() {
    let db = Arc::new(Database::open(EngineConfig::conventional_baseline()));
    let t = db.create_table("accounts", 2).unwrap();
    let group = Arc::new(ReplGroup::new(1));
    let primary = Server::start(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig {
            role: Role::SemiSync(SemiSync {
                group: Arc::clone(&group),
                policy: QuorumPolicy { k: 1, timeout: Duration::from_millis(150) },
            }),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = primary.local_addr();
    let mut client = Client::connect(addr).unwrap();

    // No follower yet: the commit is durable locally but the quorum wait
    // degrades typed within its bound.
    match client.one_shot(&spec_insert(t, 1)) {
        Err(NetError::QuorumTimeout { acked: 0, needed: 1, .. }) => {}
        other => panic!("expected QuorumTimeout, got {other:?}"),
    }
    assert_eq!(db.read_committed(t, 1).unwrap(), vec![1, 2]);

    // A real replica attaches; its feed thread acks durable cursor progress
    // after every ingested chunk, so commits start clearing the quorum.
    let replica = start_replica(
        addr,
        EngineConfig::conventional_baseline(),
        ReconnectPolicy::default(),
    )
    .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut key = 100;
    loop {
        match client.one_shot(&spec_insert(t, key)) {
            Ok(_) => break, // the feed's acks are flowing
            Err(NetError::QuorumTimeout { .. }) => {
                assert!(Instant::now() < deadline, "feed acks never satisfied the quorum");
                key += 1;
            }
            Err(e) => panic!("unexpected commit failure: {e}"),
        }
    }
    // Sustained semi-sync: every commit clears the quorum while the feed
    // lives, and the group sees exactly one follower.
    for i in 0..30 {
        client.one_shot(&spec_insert(t, 1_000 + i)).expect("semi-sync commit");
    }
    assert_eq!(group.followers(), 1);

    // Follower reads ride the same machinery end to end.
    let role = replica.follower(Duration::from_secs(5));
    let feed_live = Arc::clone(&role.feed_live);
    let follower = Server::start(
        Arc::clone(replica.db()),
        "127.0.0.1:0",
        ServerConfig { role: Role::Follower(role), ..ServerConfig::default() },
    )
    .unwrap();
    let token = client.commit_token().unwrap();
    let mut reader = Client::connect(follower.local_addr()).unwrap();
    let row = reader
        .read_at(t, 1_000, token)
        .unwrap()
        .expect("quorum-acked commit must be readable on the follower");
    assert_eq!(row, vec![1, 2]);

    // The replica dies. Its ack slot leaves the group, so commits degrade
    // typed again — and the follower's dead feed answers Lagging instantly
    // instead of burning the 5s wait budget.
    replica.shutdown().expect("clean replica stop");
    assert!(!feed_live.load(std::sync::atomic::Ordering::Acquire));
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut key = 5_000;
    loop {
        match client.one_shot(&spec_insert(t, key)) {
            Err(NetError::QuorumTimeout { .. }) => break, // slot deregistered
            Ok(_) => {
                assert!(Instant::now() < deadline, "dead follower kept satisfying quorums");
                key += 1;
            }
            Err(e) => panic!("unexpected commit failure: {e}"),
        }
    }
    let started = Instant::now();
    let lag = reader
        .read_at(t, 1_000, u64::MAX / 2)
        .unwrap()
        .expect_err("future token on a dead feed must report Lagging");
    assert!(lag > 0);
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "dead-feed Lagging took {:?}",
        started.elapsed()
    );

    follower.shutdown();
    primary.shutdown();
}

//! Loopback primary + replica over the real wire protocol: snapshot
//! bootstrap, live log shipping under a TPC-B burst, content equality, and
//! read-your-writes follower reads. `scripts/ci.sh` runs this as the
//! replication smoke stage.

use esdb_core::config::EngineConfig;
use esdb_core::Database;
use esdb_net::{Client, ReconnectPolicy, Role, Server, ServerConfig};
use esdb_repl::start_replica;
use esdb_workload::tpcb::{ACCOUNTS, BRANCHES, HISTORY, TELLERS};
use esdb_workload::{Tpcb, Workload};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn contents(db: &Database, t: u32) -> Vec<(u64, Vec<i64>)> {
    let table = db.table(t).unwrap();
    let mut rows = Vec::new();
    table.scan(|k, row| rows.push((k, row.to_vec()))).unwrap();
    rows.sort();
    rows
}

#[test]
fn tcp_replica_converges_and_serves_ryw_reads() {
    let db = Arc::new(Database::open(EngineConfig::conventional_baseline()));
    let mut workload = Tpcb::new(1, 42);
    db.load_population(&workload).expect("population load");
    let primary = Server::start(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = primary.local_addr();

    // A burst before the replica exists: this state must arrive via the
    // checkpoint snapshot, not the shipped log.
    let mut client = Client::connect(addr).unwrap();
    for _ in 0..50 {
        client.one_shot(&workload.next_txn()).unwrap();
    }

    let replica = start_replica(
        addr,
        EngineConfig::conventional_baseline(),
        ReconnectPolicy::default(),
    )
    .unwrap();
    let follower = Server::start(
        Arc::clone(replica.db()),
        "127.0.0.1:0",
        ServerConfig {
            role: Role::Follower(replica.follower(Duration::from_secs(5))),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // A burst while the feed is live: this state must arrive via shipping.
    for _ in 0..150 {
        client.one_shot(&workload.next_txn()).unwrap();
    }

    // Read-your-writes: token after the last acknowledged commit, then a
    // follower read gated on it must see every committed effect.
    let token = client.commit_token().unwrap();
    let mut reader = Client::connect(follower.local_addr()).unwrap();
    let key = 3u64;
    let fresh = reader
        .read_at(ACCOUNTS, key, token)
        .unwrap()
        .expect("follower read within the wait budget");
    assert_eq!(fresh, db.read_committed(ACCOUNTS, key).unwrap());

    // Convergence: the apply frontier reaches the primary's durable end.
    let durable = db.wal().durable_lsn();
    let deadline = Instant::now() + Duration::from_secs(15);
    while replica.applied_lsn() < durable {
        assert!(Instant::now() < deadline, "replica never caught up");
        std::thread::sleep(Duration::from_millis(10));
    }
    for t in [BRANCHES, TELLERS, ACCOUNTS, HISTORY] {
        assert_eq!(contents(&db, t), contents(replica.db(), t), "table {t} diverged");
    }

    // A token from the far future must come back Lagging (bounded wait),
    // not hang and not lie.
    let impatient = Server::start(
        Arc::clone(replica.db()),
        "127.0.0.1:0",
        ServerConfig {
            role: Role::Follower(replica.follower(Duration::from_millis(50))),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut impatient_reader = Client::connect(impatient.local_addr()).unwrap();
    let lag = impatient_reader
        .read_at(ACCOUNTS, key, durable + (1 << 40))
        .unwrap()
        .expect_err("a future token must report Lagging");
    assert!(lag >= durable);

    impatient.shutdown();
    follower.shutdown();
    replica.shutdown().expect("clean replica stop");
    primary.shutdown();
}

#[test]
fn feed_survives_forced_disconnect() {
    let db = Arc::new(Database::open(EngineConfig::conventional_baseline()));
    let mut workload = Tpcb::new(1, 7);
    db.load_population(&workload).expect("population load");
    let primary = Server::start(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = primary.local_addr();
    let replica = start_replica(
        addr,
        EngineConfig::conventional_baseline(),
        ReconnectPolicy { attempts: 50, ..ReconnectPolicy::default() },
    )
    .unwrap();

    let mut client = Client::connect(addr).unwrap();
    for _ in 0..40 {
        client.one_shot(&workload.next_txn()).unwrap();
    }
    // Bounce the primary server (sessions die, engine survives): the feed
    // must reconnect through its backoff policy and resume from its durable
    // cursor without gaps or duplicates.
    primary.shutdown();
    let primary = Server::start(Arc::clone(&db), &addr.to_string(), ServerConfig::default())
        .expect("rebind primary address");
    let mut client = Client::connect_with_backoff(addr, &ReconnectPolicy::default()).unwrap();
    for _ in 0..40 {
        client.one_shot(&workload.next_txn()).unwrap();
    }

    let durable = db.wal().durable_lsn();
    let deadline = Instant::now() + Duration::from_secs(15);
    while replica.applied_lsn() < durable {
        assert!(Instant::now() < deadline, "replica never caught up after reconnect");
        std::thread::sleep(Duration::from_millis(10));
    }
    for t in [BRANCHES, TELLERS, ACCOUNTS, HISTORY] {
        assert_eq!(contents(&db, t), contents(replica.db(), t), "table {t} diverged");
    }
    replica.shutdown().expect("clean replica stop");
    primary.shutdown();
}

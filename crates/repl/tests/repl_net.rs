//! Loopback primary + replica over the real wire protocol: snapshot
//! bootstrap, live log shipping under a TPC-B burst, content equality, and
//! read-your-writes follower reads. `scripts/ci.sh` runs this as the
//! replication smoke stage.

use esdb_core::config::EngineConfig;
use esdb_core::Database;
use esdb_net::{Client, NetError, ReconnectPolicy, Role, Server, ServerConfig, Snapshot};
use esdb_repl::{ship_available, start_replica, Replica};
use esdb_wal::buffer::{RECYCLE_SEGMENTS, SEGMENT_BYTES};
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

/// Two followers subscribe more than 8 MiB behind the primary's durable end:
/// one over the wire, one in process. Each catches up chunk by chunk — a
/// feed tick copies at most 8 chunks of 256 KiB out of the log, an
/// in-process round 2 MiB — and both apply the primary's exact state.
#[test]
fn a_far_behind_follower_catches_up_chunk_by_chunk() {
    const WIDE: usize = 960;
    const CHUNK: usize = 256 * 1024;
    let db = Arc::new(Database::open(EngineConfig::conventional_baseline()));
    let t = db.create_table("wide", WIDE).unwrap();
    for k in 0..4 {
        db.execute(|txn| txn.insert(t, k, &[0; WIDE])).unwrap();
    }
    let snapshot = Snapshot::take(&db).unwrap();
    let config = EngineConfig::conventional_baseline;
    let mut wire = Replica::bootstrap(snapshot.clone(), config()).unwrap();
    let mut local = Replica::bootstrap(snapshot, config()).unwrap();
    let from = wire.subscribe_from();
    // ~15 KB of log a rewrite of a wide row: well past 8 MiB behind.
    for i in 0..640 {
        db.execute(|txn| txn.update(t, i % 4, &[i as i64; WIDE]).map(|_| ())).unwrap();
    }
    let durable = db.wal().durable_lsn();
    assert!(durable - from > 8 << 20, "only {} bytes behind", durable - from);

    let primary = Server::start(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut feed = Client::connect(primary.local_addr()).unwrap();
    feed.subscribe(from, 0).unwrap();
    let mut chunks = 0;
    while wire.subscribe_from() < durable {
        let (term, start, bytes) = feed.next_chunk().unwrap();
        assert_eq!(start, wire.subscribe_from(), "chunks arrive in order, without gaps");
        assert!(bytes.len() <= CHUNK);
        wire.ingest_term(term, start, &bytes).unwrap();
        chunks += 1;
    }
    assert!(chunks as u64 >= (durable - from) / CHUNK as u64, "{chunks} chunks");
    assert_eq!(ship_available(db.wal(), &mut local).unwrap(), durable - from);
    for replica in [&wire, &local] {
        assert_eq!(replica.applied_lsn(), durable);
        assert_eq!(contents(&db, t), contents(replica.db(), t));
    }
    primary.shutdown();
}

/// Live log readers pin the primary's log against its checkpoint schedule.
/// A subscriber that fetched its snapshot and then reads nothing holds every
/// scheduled truncation behind its cursor while the primary writes past the
/// threshold; caught up, it applies the primary's exact state. Once it hangs
/// up, the held-back truncation goes through with a `start_replica` follower
/// still subscribed, and that follower converges on the primary too.
#[test]
fn scheduled_checkpoints_never_reclaim_a_live_feeds_log() {
    const WIDE: usize = 960;
    const SEGMENT: u64 = SEGMENT_BYTES as u64;
    let config = EngineConfig::conventional_baseline;
    let db = Arc::new(Database::open(config()));
    let t = db.create_table("wide", WIDE).unwrap();
    db.execute(|txn| txn.insert(t, 0, &[0; WIDE])).unwrap();
    let primary = Server::start(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let follower = start_replica(primary.local_addr(), config(), ReconnectPolicy::default()).unwrap();
    let mut stalled = Client::connect(primary.local_addr()).unwrap();
    let mut lagging = Replica::bootstrap(stalled.fetch_snapshot().unwrap(), config()).unwrap();
    let from = lagging.subscribe_from();
    stalled.subscribe(from, 0).unwrap();

    // ~15 KB of log a rewrite of the wide row: past the threshold, where
    // the schedule checkpoints once a segment while a pin holds it back.
    let mut i = 0;
    let mut rewrite = || {
        i += 1;
        db.execute(|txn| txn.update(t, 0, &[i; WIDE]).map(|_| ())).unwrap();
    };
    while db.wal().current_lsn() - from < SEGMENT * (RECYCLE_SEGMENTS as u64 + 2) {
        rewrite();
    }
    assert!(db.wal().start_lsn() <= from, "the log was reclaimed past a live feed's cursor");
    let durable = db.wal().durable_lsn();
    while lagging.subscribe_from() < durable {
        let (term, start, bytes) = stalled.next_chunk().unwrap();
        lagging.ingest_term(term, start, &bytes).unwrap();
    }
    assert_eq!(lagging.applied_lsn(), durable);
    assert_eq!(contents(&db, t), contents(lagging.db(), t));
    drop(stalled);

    // Its pin gone, the next scheduled checkpoint — a segment on — moves
    // the base with the wire follower attached.
    let end = db.wal().current_lsn();
    while db.wal().start_lsn() <= from {
        assert!(db.wal().current_lsn() - end < 4 * SEGMENT, "the held-back truncation never went through");
        rewrite();
    }
    let durable = db.wal().durable_lsn();
    let deadline = Instant::now() + Duration::from_secs(30);
    while follower.applied_lsn() < durable {
        assert!(Instant::now() < deadline, "follower stuck at {} of {durable}", follower.applied_lsn());
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(contents(&db, t), contents(follower.db(), t));
    follower.shutdown().expect("clean replica stop");
    primary.shutdown();
}

/// A follower that subscribes behind the log's base — a reconnect after the
/// primary reclaimed its cursor — is told so in an error frame, not dropped
/// into a reconnect loop that finds the same cursor reclaimed every time.
#[test]
fn a_cursor_behind_the_base_is_refused_in_words() {
    let db = Arc::new(Database::open(EngineConfig::conventional_baseline()));
    let t = db.create_table("kv", 1).unwrap();
    let from = db.wal().start_lsn();
    db.execute(|txn| txn.insert(t, 1, &[1])).unwrap();
    db.wal().truncate_before(db.checkpoint().unwrap());
    assert!(db.wal().start_lsn() > from);
    let primary = Server::start(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut feed = Client::connect(primary.local_addr()).unwrap();
    feed.subscribe(from, 0).unwrap();
    match feed.next_chunk() {
        Err(NetError::Server(msg)) => assert!(msg.contains("take a new snapshot"), "{msg}"),
        other => panic!("expected a refusal, got {other:?}"),
    }
    primary.shutdown();
}

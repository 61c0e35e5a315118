//! End-to-end tests: real sockets on ephemeral loopback ports.

use esdb_core::{Database, EngineConfig};
use esdb_net::{run_load, Client, LoadConfig, NetError, ReconnectPolicy, Server, ServerConfig};
use esdb_workload::{Tatp, TxnSpec, WorkloadOp};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn start_server(config: EngineConfig, max_sessions: usize) -> (Arc<Database>, Server) {
    let db = Arc::new(Database::open(config));
    let server = Server::start(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig { max_sessions, ..ServerConfig::default() },
    )
    .expect("bind ephemeral port");
    (db, server)
}

#[test]
fn concurrent_clients_and_stats_match_observed_commits() {
    let (db, server) = start_server(EngineConfig::conventional_baseline(), 16);
    let mut workload = Tatp::new(200, 11);
    db.load_population(&workload).expect("population load");

    let report = run_load(
        server.local_addr(),
        &mut workload,
        &LoadConfig {
            connections: 3,
            txns_per_conn: 100,
            pipeline_depth: 4,
            connect_attempts: 10,
        },
    )
    .expect("load run");
    assert_eq!(report.attempts, 300);
    assert_eq!(report.failed, 0, "unexpected failures: {report}");
    assert!(report.committed > 150, "{report}");

    // The server's own counters must agree with what the clients observed.
    let mut client = Client::connect(server.local_addr()).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.txns_executed, 300);
    assert_eq!(stats.txns_committed, report.committed);
    assert_eq!(stats.engine.commits, report.committed);
    assert_eq!(stats.sessions_shed, 0);
    assert!(stats.sessions_accepted >= 4); // 3 load connections + this one
    assert!(stats.engine.durable_lsn <= stats.engine.current_lsn);
    server.shutdown();
}

#[test]
fn pipelined_batches_share_wal_flushes() {
    let (db, server) = start_server(EngineConfig::conventional_baseline(), 4);
    let t = db.create_table("kv", 1).unwrap();

    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut committed = 0u64;
    for batch in 0..25u64 {
        let specs: Vec<TxnSpec> = (0..8)
            .map(|i| TxnSpec {
                kind: "ins",
                ops: vec![WorkloadOp::Insert { table: t, key: batch * 8 + i, row: vec![1] }],
                may_fail: false,
            })
            .collect();
        let outcomes = client.run_pipelined(&specs).unwrap();
        committed += outcomes.iter().filter(|o| o.is_committed()).count() as u64;
    }
    assert_eq!(committed, 200);
    let stats = client.stats().unwrap();
    // Group commit: with 8 transactions in flight per batch, many commits
    // must share a physical flush — strictly fewer flushes than commits.
    assert!(
        stats.engine.wal_flushes < stats.engine.commits,
        "expected batched flushes: {} flushes for {} commits",
        stats.engine.wal_flushes,
        stats.engine.commits
    );
    server.shutdown();
}

#[test]
fn session_cap_sheds_with_structured_busy() {
    let (_db, server) = start_server(EngineConfig::conventional_baseline(), 2);
    let addr = server.local_addr();

    let _c1 = Client::connect(addr).expect("first session");
    let _c2 = Client::connect(addr).expect("second session");
    // Connection N+1 is refused with a Busy greeting — an error value on the
    // client, not a hang, not a server panic.
    match Client::connect(addr) {
        Err(NetError::ServerBusy) => {}
        Ok(_) => panic!("connection N+1 was admitted past the cap"),
        Err(other) => panic!("expected ServerBusy, got {other}"),
    }
    let stats = {
        drop(_c1);
        // The freed slot is reclaimed once the server notices the close.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match Client::connect(addr) {
                Ok(mut c) => break c.stats().unwrap(),
                Err(NetError::ServerBusy) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => panic!("reconnect failed: {e}"),
            }
        }
    };
    assert!(stats.sessions_shed >= 1);
    assert_eq!(stats.sessions_active, 2);
    server.shutdown();
}

#[test]
fn backoff_reconnect_rides_out_a_shedding_server() {
    let (_db, server) = start_server(EngineConfig::conventional_baseline(), 1);
    let addr = server.local_addr();

    // The single session slot is held; a plain connect is shed immediately.
    let holder = Client::connect(addr).expect("claim the only slot");
    match Client::connect(addr) {
        Err(NetError::ServerBusy) => {}
        Ok(_) => panic!("connection admitted past the cap"),
        Err(other) => panic!("expected ServerBusy, got {other}"),
    }

    // With the slot held for ~40ms, a backoff policy whose total budget
    // exceeds that must ride out the Busy sheds and land the connection.
    let release = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(40));
        drop(holder);
    });
    let policy = ReconnectPolicy {
        attempts: 60,
        base: Duration::from_millis(2),
        cap: Duration::from_millis(25),
        seed: 7,
    };
    let mut client = Client::connect_with_backoff(addr, &policy).expect("reconnect after release");
    client.ping().unwrap();
    release.join().unwrap();
    let stats = client.stats().unwrap();
    assert!(stats.sessions_shed >= 1, "the server did shed: {stats:?}");

    // Bounded: with the slot held forever, the policy gives up with
    // ServerBusy rather than hanging.
    let policy = ReconnectPolicy {
        attempts: 3,
        base: Duration::from_millis(1),
        cap: Duration::from_millis(2),
        seed: 7,
    };
    match Client::connect_with_backoff(addr, &policy) {
        Err(NetError::ServerBusy) => {}
        Ok(_) => panic!("connection admitted while the slot is held"),
        Err(other) => panic!("expected bounded ServerBusy, got {other}"),
    }
    drop(client);
    server.shutdown();

    // Connection refused after shutdown is retryable but bounded too.
    match Client::connect_with_backoff(addr, &ReconnectPolicy {
        attempts: 2,
        base: Duration::from_millis(1),
        cap: Duration::from_millis(2),
        seed: 7,
    }) {
        Err(NetError::Io(e)) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::ConnectionRefused | std::io::ErrorKind::ConnectionReset
            ),
            "unexpected io error: {e}"
        ),
        Ok(_) => panic!("connected to a shut-down server"),
        Err(other) => panic!("expected io error after shutdown, got {other}"),
    }
}

#[test]
fn graceful_shutdown_leaves_wal_durable_for_recovery() {
    let (db, server) = start_server(EngineConfig::conventional_baseline(), 4);
    let t = db.create_table("t", 1).unwrap();

    let mut client = Client::connect(server.local_addr()).unwrap();
    for k in 0..20 {
        let outcome = client
            .one_shot(&TxnSpec {
                kind: "ins",
                ops: vec![WorkloadOp::Insert { table: t, key: k, row: vec![k as i64] }],
                may_fail: false,
            })
            .unwrap();
        assert!(outcome.is_committed());
    }
    // Leave an interactive transaction open across shutdown: it must be
    // aborted, not half-committed.
    client.begin().unwrap();
    client.insert(t, 999, vec![-1]).unwrap();
    server.shutdown();

    // Crash without flushing dirty pages: recovery must rebuild all twenty
    // committed rows from the durable log alone, and nothing else.
    let recovered = db.simulate_crash(false);
    for k in 0..20 {
        assert_eq!(recovered.read_committed(t, k).unwrap(), vec![k as i64]);
    }
    assert!(recovered.read_committed(t, 999).is_err(), "open txn leaked");
}

#[test]
fn malformed_frames_get_error_and_close_without_crashing_server() {
    let (_db, server) = start_server(EngineConfig::conventional_baseline(), 4);
    let addr = server.local_addr();

    let mut raw = TcpStream::connect(addr).unwrap();
    // Swallow the Hello greeting (5 bytes: u32 len + tag).
    let mut greeting = [0u8; 5];
    raw.read_exact(&mut greeting).unwrap();
    // A hostile length prefix claiming a 4 GiB frame.
    raw.write_all(&[0xFF, 0xFF, 0xFF, 0xFF, 0x00]).unwrap();
    // The server answers with an Error frame and closes; it must not hang
    // and must not allocate the claimed size.
    let mut reply = Vec::new();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let _ = raw.read_to_end(&mut reply);
    assert!(!reply.is_empty(), "expected an Error frame before close");

    // The server survived: a fresh, well-behaved session works.
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    server.shutdown();
}

#[test]
fn dora_databases_serve_one_shots_and_reject_interactive() {
    let (db, server) = start_server(EngineConfig::scalable(2), 4);
    let t = db.create_table("t", 1).unwrap();

    let mut client = Client::connect(server.local_addr()).unwrap();
    let outcome = client
        .one_shot(&TxnSpec {
            kind: "ins",
            ops: vec![WorkloadOp::Insert { table: t, key: 7, row: vec![70] }],
            may_fail: false,
        })
        .unwrap();
    assert!(outcome.is_committed());
    assert_eq!(client.read_committed(t, 7).unwrap(), Some(vec![70]));
    // Interactive transactions need the conventional engine: structured
    // error, session stays usable.
    match client.begin() {
        Err(NetError::Server(msg)) => assert!(msg.contains("conventional")),
        other => panic!("expected server error, got {other:?}"),
    }
    client.ping().unwrap();
    server.shutdown();
}

#[test]
fn interactive_txn_roundtrip_with_conflict_abort() {
    let (db, server) = start_server(EngineConfig::conventional_baseline(), 4);
    let t = db.create_table("acct", 2).unwrap();
    let mut a = Client::connect(server.local_addr()).unwrap();
    a.begin().unwrap();
    a.insert(t, 1, vec![100, 0]).unwrap();
    a.insert(t, 2, vec![50, 0]).unwrap();
    a.commit().unwrap();

    // Read-modify-write across two statements.
    a.begin().unwrap();
    let row = a.read(t, 1).unwrap();
    a.update(t, 1, vec![row[0] - 10, row[1] + 1]).unwrap();
    a.commit().unwrap();
    assert_eq!(a.read_committed(t, 1).unwrap(), Some(vec![90, 1]));

    // A statement on a missing key aborts the transaction server-side.
    a.begin().unwrap();
    match a.read(t, 404) {
        Err(NetError::Server(msg)) => assert!(msg.contains("aborted")),
        other => panic!("expected abort, got {other:?}"),
    }
    // The session is reusable; the aborted transaction is gone.
    match a.commit() {
        Err(NetError::Server(msg)) => assert!(msg.contains("no open transaction")),
        other => panic!("expected no-open-txn, got {other:?}"),
    }
    a.begin().unwrap();
    a.update(t, 2, vec![55, 1]).unwrap();
    a.abort().unwrap();
    assert_eq!(a.read_committed(t, 2).unwrap(), Some(vec![50, 0]));
    server.shutdown();
}

/// Satellite: per-reactor drain-and-flush must not hang on a session that
/// stopped mid-frame. The complete prefix (a Ping) is answered, the
/// half-frame tail is discarded, and shutdown completes promptly.
#[test]
fn shutdown_with_mid_frame_peer_answers_prefix_and_exits() {
    let (db, server) = start_server(EngineConfig::conventional_baseline(), 4);
    let t = db.create_table("kv", 1).unwrap();

    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let mut greeting = [0u8; 5];
    raw.read_exact(&mut greeting).unwrap(); // Hello
    // One complete Ping, then the first 3 bytes of a larger frame's length
    // prefix — a client that froze mid-send.
    let mut wire = Vec::new();
    esdb_net::protocol::encode_request(&esdb_net::Request::Ping, &mut wire);
    wire.extend_from_slice(&[0x40, 0x00, 0x00]);
    raw.write_all(&wire).unwrap();
    raw.flush().unwrap();
    std::thread::sleep(Duration::from_millis(100));

    let started = Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "shutdown must not wait for a frame that will never finish"
    );

    // The complete prefix was answered before the close.
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut replies = Vec::new();
    raw.read_to_end(&mut replies).unwrap();
    let mut decoded = Vec::new();
    while let Some((resp, used)) = esdb_net::protocol::decode_response(&replies).unwrap() {
        decoded.push(resp);
        replies.drain(..used);
    }
    assert_eq!(decoded, vec![esdb_net::Response::Pong]);
    assert!(replies.is_empty(), "no partial junk after the last frame");

    // The discarded half-frame left no mark on the engine.
    let recovered = db.simulate_crash(false);
    assert!(recovered.read_committed(t, 1).is_err(), "nothing was ever committed");
}

/// A peer that writes a whole 2PC exchange — `ShardPrepare` then the
/// `ShardDecide` a router posts without waiting — and hangs up at once, with
/// every answer unread. Returns the database, the server and the row's key.
fn hang_up_behind_a_posted_verdict() -> (Arc<Database>, Server, u32) {
    let (db, server) = start_server(EngineConfig::conventional_baseline(), 4);
    let t = db.create_table("t", 1).unwrap();
    db.execute(|txn| txn.insert(t, 1, &[10])).unwrap();

    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let mut wire = Vec::new();
    // The Pong proves a reactor owns the session before the burst — and is
    // left unread, as a router leaves the `Ok` to its last verdict, so the
    // hang-up reaches the server as a reset rather than an orderly EOF.
    esdb_net::protocol::encode_request(&esdb_net::Request::Ping, &mut wire);
    raw.write_all(&wire).unwrap();
    let mut hello = [0u8; 5];
    raw.read_exact(&mut hello).unwrap();
    raw.peek(&mut hello).unwrap();

    wire.clear();
    let ops = vec![WorkloadOp::Add { table: t, key: 1, col: 0, delta: 5 }];
    esdb_net::protocol::encode_request(&esdb_net::Request::ShardPrepare { gtid: 7, ops }, &mut wire);
    esdb_net::protocol::encode_request(
        &esdb_net::Request::ShardDecide { gtid: 7, commit: true },
        &mut wire,
    );
    raw.write_all(&wire).unwrap();
    drop(raw);
    (db, server, t)
}

/// Satellite: the acknowledged-at-the-decision protocol rests on this — a
/// verdict that reached the server's socket is applied even though its
/// sender is gone, before the session closes.
#[test]
fn frames_behind_a_hang_up_execute_in_a_steady_tick() {
    let (db, server, t) = hang_up_behind_a_posted_verdict();
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().sessions_active > 0 {
        assert!(Instant::now() < deadline, "the hung-up session never closed");
        std::thread::yield_now();
    }
    assert!(db.prepared_gtids().is_empty(), "the verdict died in the buffer");
    assert_eq!(db.read_committed(t, 1).unwrap(), vec![15]);
    server.shutdown();
}

#[test]
fn frames_behind_a_hang_up_execute_in_the_shutdown_tick() {
    let (db, server, t) = hang_up_behind_a_posted_verdict();
    server.shutdown();
    assert!(db.prepared_gtids().is_empty(), "the verdict died in the buffer");
    assert_eq!(db.read_committed(t, 1).unwrap(), vec![15]);
    // Both forces happened: the exchange survives a crash as a commit.
    let recovered = db.simulate_crash(false);
    assert_eq!(recovered.read_committed(t, 1).unwrap(), vec![15]);
}

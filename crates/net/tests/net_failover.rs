//! Wire-level failover behavior: stalled-peer timeouts, semi-sync quorum
//! commit over real sockets, term fencing on the ship handshake, and the
//! dead-feed fast path for follower reads.

use esdb_core::{Database, EngineConfig, QuorumPolicy, ReplGroup};
use esdb_net::protocol::FrameError;
use esdb_net::{Client, Follower, NetError, Role, SemiSync, Server, ServerConfig};
use esdb_workload::{TxnSpec, WorkloadOp};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn spec_insert(t: u32, key: u64) -> TxnSpec {
    TxnSpec {
        kind: "ins",
        ops: vec![WorkloadOp::Insert { table: t, key, row: vec![1] }],
        may_fail: false,
    }
}

/// Satellite 1, server side: a peer that sends part of a frame and then goes
/// quiet must be cut loose with a typed timeout error, not hold its session
/// thread forever — while a merely *idle* peer (no partial frame) keeps its
/// session indefinitely.
#[test]
fn stalled_peer_is_closed_with_typed_timeout() {
    let db = Arc::new(Database::open(EngineConfig::conventional_baseline()));
    let server = Server::start(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig {
            stall_timeout: Some(Duration::from_millis(100)),
            poll_interval: Duration::from_millis(5),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // An idle (but complete-frame-silent) client first: it must survive far
    // past the stall budget, because it owes the server nothing.
    let mut idle = Client::connect(server.local_addr()).unwrap();
    std::thread::sleep(Duration::from_millis(250));
    idle.ping().expect("idle sessions are not stalled sessions");

    // Now a hung peer: half a frame, then silence.
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let mut greeting = [0u8; 5];
    raw.read_exact(&mut greeting).unwrap(); // Hello frame
    raw.write_all(&[9, 0, 0]).unwrap(); // 3 bytes of a 4-byte length prefix
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).expect("server closes after the error frame");
    let text = String::from_utf8_lossy(&reply);
    assert!(
        text.contains(&FrameError::Timeout.to_string()),
        "expected a typed timeout error frame, got {reply:?}"
    );
    server.shutdown();
}

/// Satellite 1, client side: an armed op timeout turns a stalled server into
/// the typed `Protocol(Timeout)` error instead of blocking forever.
#[test]
fn client_op_timeout_surfaces_typed() {
    // A fake "server" that greets and then never answers anything.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stall = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        let mut hello = Vec::new();
        esdb_net::protocol::encode_response(&esdb_net::protocol::Response::Hello, &mut hello);
        sock.write_all(&hello).unwrap();
        std::thread::sleep(Duration::from_secs(2)); // hold the socket open, say nothing
    });
    let mut client = Client::connect(addr).unwrap();
    client.set_op_timeout(Some(Duration::from_millis(80))).unwrap();
    let started = Instant::now();
    match client.ping() {
        Err(NetError::Protocol(FrameError::Timeout)) => {}
        other => panic!("expected typed timeout, got {other:?}"),
    }
    assert!(started.elapsed() < Duration::from_secs(1), "must not block to the bitter end");
    stall.join().unwrap();
}

/// The same on the write side: a peer that stops *reading* stalls a large
/// pipelined batch once the socket buffers fill, and that too must surface
/// as the typed timeout — `one_shot`/`run_pipelined` share `send`'s write
/// path rather than leaking a raw `WouldBlock`/`TimedOut` I/O error.
#[test]
fn client_write_stall_surfaces_typed() {
    // A fake "server" that greets and then never reads a byte.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    let stall = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        let mut hello = Vec::new();
        esdb_net::protocol::encode_response(&esdb_net::protocol::Response::Hello, &mut hello);
        sock.write_all(&hello).unwrap();
        let _ = done_rx.recv(); // hold the socket open until the client gave up
    });
    let mut client = Client::connect(addr).unwrap();
    client.set_op_timeout(Some(Duration::from_millis(80))).unwrap();
    // ~16 MiB of frames: far past what loopback socket buffers absorb.
    let wide = TxnSpec {
        kind: "wide",
        ops: vec![WorkloadOp::Insert { table: 0, key: 1, row: vec![7; 2_000] }],
        may_fail: false,
    };
    let batch = vec![wide; 1_000];
    let started = Instant::now();
    match client.run_pipelined(&batch) {
        Err(NetError::Protocol(FrameError::Timeout)) => {}
        other => panic!("expected typed timeout, got {other:?}"),
    }
    assert!(started.elapsed() < Duration::from_secs(5), "must not block to the bitter end");
    done_tx.send(()).unwrap();
    stall.join().unwrap();
}

/// Tentpole, quorum over the wire: with no follower acks the commit path
/// degrades to a typed QuorumTimeout (the txn *is* durable locally); once a
/// subscriber acks durability past the commit LSN, commits succeed again.
#[test]
fn semisync_commit_degrades_typed_and_recovers_on_ack() {
    let db = Arc::new(Database::open(EngineConfig::conventional_baseline()));
    let t = db.create_table("kv", 1).unwrap();
    let group = Arc::new(ReplGroup::new(1));
    let server = Server::start(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig {
            role: Role::SemiSync(SemiSync {
                group: Arc::clone(&group),
                policy: QuorumPolicy { k: 1, timeout: Duration::from_millis(60) },
            }),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // No followers at all: bounded wait, typed degradation, never a hang.
    let started = Instant::now();
    match client.one_shot(&spec_insert(t, 1)) {
        Err(NetError::QuorumTimeout { acked, needed, .. }) => {
            assert_eq!((acked, needed), (0, 1));
        }
        other => panic!("expected QuorumTimeout, got {other:?}"),
    }
    assert!(started.elapsed() < Duration::from_secs(2));
    // The commit is durable locally despite the degraded ack.
    assert_eq!(db.read_committed(t, 1).unwrap(), vec![1]);

    // A follower subscribes and acks everything the primary could ever ship.
    let mut follower = Client::connect(server.local_addr()).unwrap();
    follower.subscribe(db.wal().durable_lsn(), 1).unwrap();
    follower.send_ack(1, u64::MAX / 2).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while group.acked(db.wal().durable_lsn()) == 0 {
        assert!(Instant::now() < deadline, "ack never reached the group");
        std::thread::sleep(Duration::from_millis(5));
    }
    client.one_shot(&spec_insert(t, 2)).expect("quorum satisfied by the ack");
    server.shutdown();
}

/// Tentpole, fencing on the wire: a subscriber announcing a higher term
/// fences the primary — the handshake answers `Fenced` instead of shipping,
/// and subsequent quorum commits fail typed with the higher term.
#[test]
fn higher_term_subscriber_fences_the_primary() {
    let db = Arc::new(Database::open(EngineConfig::conventional_baseline()));
    let t = db.create_table("kv", 1).unwrap();
    let group = Arc::new(ReplGroup::new(1));
    let server = Server::start(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig {
            role: Role::SemiSync(SemiSync {
                group: Arc::clone(&group),
                policy: QuorumPolicy { k: 1, timeout: Duration::from_millis(60) },
            }),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // A subscriber that has seen term 3 (a promotion happened elsewhere).
    let mut messenger = Client::connect(server.local_addr()).unwrap();
    messenger.subscribe(0, 3).unwrap();
    match messenger.next_chunk() {
        Err(NetError::Fenced { term }) => assert_eq!(term, 3),
        other => panic!("a fenced primary must refuse to ship, got {other:?}"),
    }
    assert_eq!(group.fenced_by(), Some(3));

    // The write path is fenced too: typed, carrying the superseding term.
    let mut client = Client::connect(server.local_addr()).unwrap();
    match client.one_shot(&spec_insert(t, 9)) {
        Err(NetError::Fenced { term }) => assert_eq!(term, 3),
        other => panic!("expected Fenced, got {other:?}"),
    }

    // And a fresh subscriber at any term is refused as well.
    let mut late = Client::connect(server.local_addr()).unwrap();
    late.subscribe(0, 1).unwrap();
    assert!(matches!(late.next_chunk(), Err(NetError::Fenced { term: 3 })));
    server.shutdown();
}

/// Acks only belong on a subscribe feed; on a request session they are a
/// protocol error, answered typed without killing the server.
#[test]
fn ack_outside_a_feed_is_rejected() {
    let db = Arc::new(Database::open(EngineConfig::conventional_baseline()));
    let server = Server::start(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.send_ack(1, 100).unwrap();
    match client.ping() {
        Err(NetError::Server(msg)) => assert!(msg.contains("subscribe"), "{msg}"),
        other => panic!("expected a server error, got {other:?}"),
    }
    server.shutdown();
}

/// Satellite 2: a follower whose feed thread is dead answers `Lagging`
/// immediately — the frontier will never advance, so burning the full
/// bounded wait is pure added latency.
#[test]
fn dead_feed_answers_lagging_immediately() {
    let db = Arc::new(Database::open(EngineConfig::conventional_baseline()));
    let t = db.create_table("kv", 1).unwrap();
    db.execute(|txn| txn.insert(t, 1, &[7])).unwrap();
    let watermark = Arc::new(AtomicU64::new(50));
    let feed_live = Arc::new(AtomicBool::new(true));
    let server = Server::start(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig {
            role: Role::Follower(Follower {
                applied: Arc::clone(&watermark),
                feed_live: Arc::clone(&feed_live),
                gate: Arc::default(),
                read_at_wait: Duration::from_secs(3),
            }),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Feed alive: a satisfiable token is served, an unsatisfiable one waits.
    assert_eq!(client.read_at(t, 1, 40).unwrap(), Ok(vec![7]));

    // Feed dies. An unsatisfiable token must come back Lagging at once,
    // carrying the stuck frontier, instead of burning the 3s budget.
    feed_live.store(false, std::sync::atomic::Ordering::SeqCst);
    let started = Instant::now();
    let lag = client
        .read_at(t, 1, 1_000_000)
        .unwrap()
        .expect_err("dead feed must report Lagging");
    assert_eq!(lag, 50);
    assert!(
        started.elapsed() < Duration::from_millis(500),
        "dead-feed Lagging took {:?}, should be immediate",
        started.elapsed()
    );

    // Already-satisfied tokens still read fine on a dead feed.
    assert_eq!(client.read_at(t, 1, 40).unwrap(), Ok(vec![7]));
    server.shutdown();
}

/// Satellite: the reactor refactor's nastiest hazard, pinned. With exactly
/// ONE reactor the committing session and the follower feed that must ack
/// it share a thread. A blocking quorum wait inside the tick would
/// deadlock — the thread waiting for the ack is the only thread that can
/// read it — and surface here as a QuorumTimeout. The parked AwaitQuorum
/// phase keeps the tick turning, so the commit succeeds.
#[test]
fn single_reactor_commit_is_acked_by_a_feed_on_the_same_reactor() {
    let db = Arc::new(Database::open(EngineConfig::conventional_baseline()));
    let t = db.create_table("kv", 1).unwrap();
    let group = Arc::new(ReplGroup::new(1));
    let server = Server::start(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig {
            reactors: 1,
            role: Role::SemiSync(SemiSync {
                group: Arc::clone(&group),
                // Generous timeout: on a correct server the ack arrives in
                // milliseconds; on a deadlocked one we'd burn all of it and
                // fail typed below.
                policy: QuorumPolicy { k: 1, timeout: Duration::from_secs(5) },
            }),
            poll_interval: Duration::from_millis(2),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // The follower lives on the same (only) reactor and acks every chunk.
    let stop = Arc::new(AtomicBool::new(false));
    let feed_stop = Arc::clone(&stop);
    let addr = server.local_addr();
    let start_from = db.wal().durable_lsn();
    let feed = std::thread::spawn(move || {
        let mut follower = Client::connect(addr).unwrap();
        follower.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        follower.subscribe(start_from, 1).unwrap();
        while !feed_stop.load(std::sync::atomic::Ordering::SeqCst) {
            match follower.try_next_chunk() {
                Ok(Some((_term, start, bytes))) => {
                    follower.send_ack(1, start + bytes.len() as u64).unwrap();
                }
                Ok(None) => {}
                Err(e) => panic!("feed died: {e:?}"),
            }
        }
    });

    let mut client = Client::connect(server.local_addr()).unwrap();
    let started = Instant::now();
    for key in 0..5 {
        client.one_shot(&spec_insert(t, key)).unwrap_or_else(|e| {
            panic!("semi-sync commit on a single reactor must succeed, got {e:?}")
        });
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "commits took {:?} — the reactor was not draining acks while parked",
        started.elapsed()
    );

    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    feed.join().unwrap();
    server.shutdown();
}

//! Tier-1 reaches the wire: one loopback server driven through every session
//! mechanism of `esdb::net` — the pipelined batch under one group-commit
//! flush, an interactive transaction, the obs frame, a follower freshness
//! wait that times out and one that parks and resolves, and a graceful
//! shutdown with a burst in flight.

use esdb::core::spec_exec::SpecOutcome;
use esdb::core::{Database, EngineConfig};
use esdb::net::protocol::{decode_response, encode_request};
use esdb::net::{Client, Request, Response, Server, ServerConfig, WirePlan};
use esdb::workload::{TxnSpec, WorkloadOp};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn insert(table: u32, key: u64, row: Vec<i64>) -> WorkloadOp {
    WorkloadOp::Insert { table, key, row }
}

fn start(config: ServerConfig) -> (Arc<Database>, u32, Server) {
    let db = Arc::new(Database::open(EngineConfig::conventional_baseline()));
    let t = db.create_table("kv", 1).unwrap();
    let server = Server::start(Arc::clone(&db), "127.0.0.1:0", config).unwrap();
    (db, t, server)
}

#[test]
fn pipelined_interactive_and_obs_round_trips() {
    // On one event loop and on two: how sessions shard across reactors may
    // change the numbers, never the behaviour.
    for reactors in [1, 2] {
        let (_db, t, server) = start(ServerConfig { reactors, ..ServerConfig::default() });
        let mut client = Client::connect(server.local_addr()).unwrap();
        client.ping().unwrap();
        // A second session, on the other reactor when there are two: the
        // server places a socket by `fd % reactors`, each loopback session
        // here takes two descriptors (ours and the server's), so one more
        // held in between flips the parity (unless a concurrent test opens
        // one meanwhile — the asserts below hold on either placement).
        let _spacer = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
        let mut other = Client::connect(server.local_addr()).unwrap();

        // Sixteen one-shots per session written before any answer is read:
        // the reactor executes them as batches and pays one flush per batch,
        // not per commit.
        let specs = |keys: std::ops::Range<u64>| -> Vec<TxnSpec> {
            keys.map(|key| TxnSpec { kind: "ins", ops: vec![insert(t, key, vec![1])], may_fail: false })
                .collect()
        };
        let mut outcomes = client.run_pipelined(&specs(0..16)).unwrap();
        outcomes.extend(other.run_pipelined(&specs(16..32)).unwrap());
        assert!(outcomes.iter().all(|o| o.is_committed()), "{reactors} reactors: {outcomes:?}");
        let stats = client.stats().unwrap();
        assert_eq!(
            stats.txns_committed,
            outcomes.len() as u64,
            "{reactors} reactors: server-side commits = client-observed commits"
        );
        assert!(stats.batches < 32, "{} batches for 32 pipelined txns", stats.batches);
        assert!(stats.engine.wal_flushes < stats.engine.commits);

        // An interactive transaction across five round trips.
        client.begin().unwrap();
        assert_eq!(client.read(t, 3).unwrap(), vec![1]);
        client.update(t, 3, vec![42]).unwrap();
        client.commit().unwrap();
        assert_eq!(client.read_committed(t, 3).unwrap(), Some(vec![42]));
        // An add that would overflow fails logically and leaves the row be;
        // the reactor thread, and this session on it, carry on.
        let overflow = TxnSpec {
            kind: "add",
            ops: vec![WorkloadOp::Add { table: t, key: 3, col: 0, delta: i64::MAX }],
            may_fail: true,
        };
        assert_eq!(client.one_shot(&overflow).unwrap(), SpecOutcome::LogicalFailure);
        assert_eq!(client.read_committed(t, 3).unwrap(), Some(vec![42]));
        // A statement outside a transaction is a typed server error, and the
        // session survives it.
        assert!(matches!(client.commit(), Err(esdb::net::NetError::Server(_))));

        // The obs frame carries the same counters the stats frame does.
        let obs = client.obs_stats().unwrap();
        assert_eq!(obs.version, esdb::core::OBS_SNAPSHOT_VERSION);
        assert_eq!(obs.stats.commits, client.stats().unwrap().engine.commits);
        server.shutdown();
    }
}

#[test]
fn follower_freshness_wait_lags_then_parks_and_resolves() {
    // A "follower" whose apply frontier the test holds by hand.
    let watermark = Arc::new(AtomicU64::new(50));
    let wait = Duration::from_millis(250);
    let (db, t, server) = start(ServerConfig {
        applied_watermark: Some(Arc::clone(&watermark)),
        read_at_wait: wait,
        ..ServerConfig::default()
    });
    db.execute(|txn| txn.insert(t, 1, &[7])).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let scan = WirePlan::Scan { table: t };

    // Covered tokens are served at once; a token ahead of a frontier that
    // never moves comes back `Lagging` with the frontier once the bounded
    // wait expires.
    assert_eq!(client.read_at(t, 1, 50).unwrap(), Ok(vec![7]));
    assert_eq!(client.read_at(t, 1, 60).unwrap(), Err(50));
    assert_eq!(client.query_at(60, &scan).unwrap(), Err(50));

    // Tokens ahead of the frontier again, but now it arrives during the
    // wait: the session parks and resolves. (Should the advance ever win
    // the race with the send, the request is simply fresh on sight — the
    // same answer.)
    let arriving = |frontier: u64| {
        let watermark = Arc::clone(&watermark);
        std::thread::spawn(move || {
            std::thread::sleep(wait / 10);
            watermark.store(frontier, Ordering::Release);
        })
    };
    let advance = arriving(60);
    assert_eq!(client.read_at(t, 1, 60).unwrap(), Ok(vec![7]));
    advance.join().unwrap();
    let advance = arriving(70);
    assert_eq!(client.query_at(65, &scan).unwrap(), Ok(vec![vec![1, 7]]));
    advance.join().unwrap();
    server.shutdown();
}

#[test]
fn shutdown_answers_a_pipelined_burst_in_flight() {
    const BURST: u64 = 32;
    let (_db, t, server) = start(ServerConfig::default());
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let mut greeting = [0u8; 5];
    raw.read_exact(&mut greeting).unwrap(); // Hello
    let mut wire = Vec::new();
    for key in 0..BURST {
        let ops = vec![insert(t, key, vec![9])];
        encode_request(&Request::OneShot { may_fail: false, ops }, &mut wire);
    }
    raw.write_all(&wire).unwrap();
    // A round trip on a second session: once it is answered, the burst sent
    // before it has reached the server (shutdown drains what has arrived).
    Client::connect(server.local_addr()).unwrap().ping().unwrap();
    server.shutdown();

    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut replies = Vec::new();
    raw.read_to_end(&mut replies).unwrap();
    let mut committed = 0;
    while let Some((resp, used)) = decode_response(&replies).unwrap() {
        assert!(matches!(resp, Response::Outcome(ref o) if o.is_committed()), "{resp:?}");
        committed += 1;
        replies.drain(..used);
    }
    assert_eq!(committed, BURST, "shutdown drains; it does not guillotine");
}

//! Connection-scale soak: the reactor server's claim to fame is holding
//! thousands of sessions on a handful of threads. These tests open an idle
//! herd (the thread-per-session server would need a stack per session),
//! verify the active set's latency doesn't degrade with herd size, and
//! prove graceful drain still flushes pipelined in-flight transactions
//! when the server shuts down under load.
//!
//! `NET_SCALE_CONNS` sets the herd size. The default, 250, keeps a debug
//! `cargo test` in seconds; `scripts/ci.sh` runs the 1000-session herd in
//! release.

use esdb_core::{Database, EngineConfig};
use esdb_net::protocol::{decode_response, encode_request, Request, Response};
use esdb_net::{Client, FrameCursor, Server, ServerConfig};
use esdb_workload::{TxnSpec, WorkloadOp};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn herd_size() -> usize {
    std::env::var("NET_SCALE_CONNS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(250)
}

fn spec_write(t: u32, key: u64) -> TxnSpec {
    TxnSpec {
        kind: "scale",
        ops: vec![WorkloadOp::Write { table: t, key, row: vec![1] }],
        may_fail: false,
    }
}

/// Runs `n` one-shots and returns the sorted per-op latencies.
fn measure(client: &mut Client, t: u32, key: u64, n: usize) -> Vec<Duration> {
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let started = Instant::now();
        client.one_shot(&spec_write(t, key)).unwrap();
        samples.push(started.elapsed());
    }
    samples.sort();
    samples
}

fn p99(sorted: &[Duration]) -> Duration {
    sorted[(sorted.len() * 99) / 100 - 1]
}

/// Tentpole scale proof: a large idle herd coexists with an
/// active session whose p99 stays in the same regime as an empty server.
/// Every herd member still answers a ping afterwards — the sessions are
/// live, not merely accepted-and-leaked.
#[test]
fn idle_herd_leaves_active_latency_unaffected() {
    let herd = herd_size();
    let db = Arc::new(Database::open(EngineConfig::conventional_baseline()));
    let t = db.create_table("kv", 1).unwrap();
    db.execute(|txn| txn.insert(t, 1, &[0])).unwrap();
    let server = Server::start(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig { max_sessions: herd + 64, ..ServerConfig::default() },
    )
    .unwrap();

    // Baseline on an otherwise empty server.
    let mut active = Client::connect(server.local_addr()).unwrap();
    measure(&mut active, t, 1, 50); // warm-up: page in, prime the WAL
    let base = measure(&mut active, t, 1, 300);
    let base_p99 = p99(&base);

    // Open the herd. Connect failures are real failures: admission has
    // headroom, and the reactor design exists precisely so this works.
    let mut idles = Vec::with_capacity(herd);
    for i in 0..herd {
        match Client::connect(server.local_addr()) {
            Ok(c) => idles.push(c),
            Err(e) => panic!("connection {i}/{herd} refused: {e}"),
        }
    }
    let stats = active.stats().unwrap();
    assert!(
        stats.sessions_active as usize > herd,
        "herd not registered: {} active for {} opened",
        stats.sessions_active,
        herd
    );

    // The active session must not feel the herd. The bound is deliberately
    // loose (shared CI boxes, single-vCPU hosts) but far below what any
    // per-connection scan, wakeup storm, or herd-sized lock would cost.
    let busy = measure(&mut active, t, 1, 300);
    let busy_p99 = p99(&busy);
    let ceiling = (base_p99 * 10).max(Duration::from_millis(50));
    assert!(
        busy_p99 <= ceiling,
        "active p99 degraded under the idle herd: {base_p99:?} empty vs {busy_p99:?} \
         with {herd} idles (ceiling {ceiling:?})"
    );

    // Spot-check liveness across the herd, including both ends.
    for idx in [0, herd / 2, herd - 1] {
        idles[idx].ping().unwrap_or_else(|e| panic!("herd member {idx} dead: {e}"));
    }

    // Dropping the herd releases the sessions (bounded wait: reactors only
    // notice hangups on their next poll tick).
    drop(idles);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let now_active = active.stats().unwrap().sessions_active;
        if (now_active as usize) < 16 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "herd sessions never released: {now_active} still active"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    server.shutdown();
}

/// Graceful drain under pipelining: a client writes a burst of one-shot
/// frames and the server is told to shut down before reading a single
/// response. Every in-flight transaction must be executed, made durable,
/// and answered — shutdown drains, it does not guillotine.
#[test]
fn graceful_drain_flushes_in_flight_pipelined_txns() {
    const BURST: usize = 50;
    let db = Arc::new(Database::open(EngineConfig::conventional_baseline()));
    let t = db.create_table("kv", 1).unwrap();
    let server = Server::start(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();

    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let mut greeting = [0u8; 5];
    raw.read_exact(&mut greeting).unwrap(); // Hello
    let mut wire = Vec::new();
    for key in 0..BURST as u64 {
        encode_request(
            &Request::OneShot {
                may_fail: false,
                ops: vec![WorkloadOp::Insert { table: t, key, row: vec![9] }],
            },
            &mut wire,
        );
    }
    raw.write_all(&wire).unwrap();
    raw.flush().unwrap();
    // Give loopback delivery a beat so the burst is in the server's socket
    // buffer (drain ingests what has *arrived*, it cannot read the future).
    std::thread::sleep(Duration::from_millis(100));
    server.shutdown();

    // After shutdown returns, all 50 outcomes are on the wire.
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut replies = Vec::new();
    raw.read_to_end(&mut replies).unwrap();
    let mut outcomes = 0;
    while let Some((resp, used)) = decode_response(&replies).unwrap() {
        match resp {
            Response::Outcome(o) if o.is_committed() => outcomes += 1,
            other => panic!("expected a committed outcome, got {other:?}"),
        }
        replies.drain(..used);
    }
    assert_eq!(outcomes, BURST, "drain must answer every pipelined txn");

    // And the commits survived: shutdown forced the WAL durable.
    let recovered = db.simulate_crash(false);
    for key in 0..BURST as u64 {
        assert_eq!(
            recovered.read_committed(t, key).unwrap(),
            vec![9],
            "txn {key} lost across the drain"
        );
    }
}

/// The same drain with far more in flight than one read delivers: 20,000
/// pipelined one-shots (620 KB) are written to one session and the server is
/// shut down the moment the last byte is accepted. A tick reads a session
/// once; the last tick must read on to `WouldBlock`, or the tail of the
/// burst goes unanswered and the close resets the connection.
#[test]
fn graceful_drain_reads_to_the_end_of_a_burst_many_reads_deep() {
    const BURST: u64 = 20_000;
    let db = Arc::new(Database::open(EngineConfig::conventional_baseline()));
    let t = db.create_table("kv", 1).unwrap();
    let server = Server::start(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();

    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let mut greeting = [0u8; 5];
    raw.read_exact(&mut greeting).unwrap(); // Hello
    let mut wire = Vec::new();
    for key in 0..BURST {
        encode_request(
            &Request::OneShot {
                may_fail: false,
                ops: vec![WorkloadOp::Insert { table: t, key, row: vec![9] }],
            },
            &mut wire,
        );
    }
    assert!(wire.len() > 8 * 64 * 1024);

    // Answers are read as they come (300 KB of them would otherwise wedge
    // both socket buffers), until the server closes its end.
    let mut rx = raw.try_clone().unwrap();
    rx.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let reader = std::thread::spawn(move || {
        let mut replies: FrameCursor<Response> = FrameCursor::new();
        let mut committed = 0;
        loop {
            while let Some(resp) = replies.next().unwrap() {
                assert!(matches!(resp, Response::Outcome(ref o) if o.is_committed()), "{resp:?}");
                committed += 1;
            }
            if replies.fill_from(&mut rx).expect("a clean close, not a reset") == 0 {
                return committed;
            }
        }
    });
    raw.write_all(&wire).unwrap();
    server.shutdown();
    assert_eq!(reader.join().unwrap(), BURST, "drain must answer every pipelined txn");
}

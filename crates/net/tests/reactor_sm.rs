//! Reactor state-machine properties: the nonblocking frame cursor at the
//! heart of every reactor session — and, popping responses, of every client
//! — must decode a byte stream *identically* no matter how the kernel
//! fragments it, must never lose or re-read a byte, and must be a pure
//! function of its buffered state — `Ok(None)` on a partial frame is a
//! stable answer, not a spin loop. Frames come from the frame table
//! (`arbitrary_request` / `arbitrary_response`), so every shape the wire has
//! is covered. The last test drives the property end-to-end through a real
//! socket: a byte-by-byte dribbled session gets the same responses as a
//! well-behaved one.

use esdb_core::{Database, EngineConfig};
use esdb_net::protocol::{
    arbitrary_request, arbitrary_response, decode_response, encode_request, encode_response,
    FrameError, Request, Response,
};
use esdb_net::reactor::Frame;
use esdb_net::{Client, FrameCursor, NetError, Server, ServerConfig};
use esdb_workload::{Rng, TxnSpec, WorkloadOp};
use proptest::prelude::*;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// `n` frames drawn from the table by `draw`, and their encoding.
fn stream<F>(
    seed: u64,
    n: usize,
    draw: fn(&mut Rng) -> F,
    encode: fn(&F, &mut Vec<u8>),
) -> (Vec<F>, Vec<u8>) {
    let mut rng = Rng::new(seed);
    let frames: Vec<F> = (0..n).map(|_| draw(&mut rng)).collect();
    let mut wire = Vec::new();
    for f in &frames {
        encode(f, &mut wire);
    }
    (frames, wire)
}

fn requests(seed: u64, n: usize) -> (Vec<Request>, Vec<u8>) {
    stream(seed, n, arbitrary_request, encode_request)
}

/// Drains every complete frame currently buffered in `cursor`.
fn drain<F: Frame>(cursor: &mut FrameCursor<F>) -> Vec<F> {
    let mut out = Vec::new();
    loop {
        match cursor.next() {
            Ok(Some(frame)) => out.push(frame),
            Ok(None) => return out,
            Err(e) => panic!("valid stream must never error: {e}"),
        }
    }
}

/// Feeds `wire` in pieces sized by cycling through `chunks`, draining after
/// each; returns the frames popped and what is left buffered.
fn feed_in_chunks<F: Frame>(wire: &[u8], chunks: &[usize]) -> (Vec<F>, usize) {
    let mut cursor = FrameCursor::new();
    let mut got = Vec::new();
    let mut off = 0;
    let mut i = 0;
    while off < wire.len() {
        let n = chunks[i % chunks.len()].min(wire.len() - off);
        i += 1;
        cursor.feed(&wire[off..off + n]);
        off += n;
        got.extend(drain(&mut cursor));
    }
    (got, cursor.buffered())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Tentpole property: for *any* fragmentation of a valid request
    /// stream — including pathological one-byte reads — the cursor yields
    /// exactly the original request sequence, with nothing buffered at the
    /// end. Fragmentation is invisible above the cursor.
    #[test]
    fn any_split_of_the_stream_decodes_identically(
        seed in any::<u64>(),
        n in 1usize..6,
        chunks in prop::collection::vec(1usize..9, 1..64),
    ) {
        let (reqs, wire) = requests(seed, n);
        prop_assert_eq!(feed_in_chunks(&wire, &chunks), (reqs, 0));
    }

    /// The mirror for the client end of the socket: the same cursor popping
    /// responses is just as blind to fragmentation.
    #[test]
    fn any_split_of_a_response_stream_decodes_identically(
        seed in any::<u64>(),
        n in 1usize..6,
        chunks in prop::collection::vec(1usize..9, 1..64),
    ) {
        let (resps, wire) = stream(seed, n, arbitrary_response, encode_response);
        prop_assert_eq!(feed_in_chunks(&wire, &chunks), (resps, 0));
    }

    /// One byte at a time is the worst case the kernel can serve; it must
    /// still reconstruct the stream exactly.
    #[test]
    fn byte_by_byte_feed_loses_nothing(seed in any::<u64>(), n in 1usize..4) {
        let (reqs, wire) = requests(seed, n);
        prop_assert_eq!(feed_in_chunks(&wire, &[1]), (reqs, 0));
    }

    /// No-busy-spin contract: a partial frame answers `Ok(None)` and calling
    /// `next()` again (as an over-eager reactor tick might) is a no-op — the
    /// buffered byte count never moves until new bytes arrive. Feeding the
    /// tail then completes the very request that was cut.
    #[test]
    fn partial_frame_is_a_stable_need_more(seed in any::<u64>(), cut_seed in 1usize..10_000) {
        let (mut reqs, wire) = requests(seed, 1);
        let cut = 1 + cut_seed % (wire.len() - 1); // strict, non-empty prefix
        let mut cursor = FrameCursor::new();
        cursor.feed(&wire[..cut]);
        for _ in 0..16 {
            prop_assert_eq!(cursor.next().expect("prefix of a valid frame is not malformed"), None);
            prop_assert_eq!(cursor.buffered(), cut);
        }
        cursor.feed(&wire[cut..]);
        prop_assert_eq!(cursor.next().unwrap(), reqs.pop());
        prop_assert_eq!(cursor.buffered(), 0);
    }

    /// `take_rest` (the request→feed flip) hands back exactly the unconsumed
    /// suffix: frames already popped are gone, pipelined trailing bytes —
    /// complete or partial — survive verbatim, and the cursor is empty after.
    #[test]
    fn take_rest_returns_exactly_the_unconsumed_suffix(
        seed in any::<u64>(),
        n_consumed in 0usize..3,
        n_trailing in 0usize..3,
        partial_tail in prop::collection::vec(any::<u8>(), 0..3),
    ) {
        let (consumed, mut wire) = requests(seed, n_consumed);
        let (trailing, suffix) = requests(!seed, n_trailing);
        wire.extend_from_slice(&suffix);
        // A few raw bytes mimic a frame still in flight at flip time. Three
        // bytes is shorter than any length prefix, so they cannot complete
        // a frame and perturb the consumed count.
        wire.extend_from_slice(&partial_tail);

        let mut cursor = FrameCursor::new();
        cursor.feed(&wire);
        for expected in &consumed {
            prop_assert_eq!(cursor.next().unwrap().as_ref(), Some(expected));
        }
        let mut rest: FrameCursor = FrameCursor::from_bytes(cursor.take_rest());
        prop_assert_eq!(cursor.buffered(), 0);
        prop_assert_eq!(drain(&mut rest), trailing);
        prop_assert_eq!(rest.buffered(), partial_tail.len());
    }
}

/// A peer that follows a script instead of a protocol: greets, writes `wire`
/// in pieces sized by cycling through `chunks` for as long as the client
/// listens, then swallows whatever the client sent until it hangs up.
fn scripted_peer(wire: Vec<u8>, chunks: Vec<usize>) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        conn.set_nodelay(true).unwrap();
        let mut hello = Vec::new();
        encode_response(&Response::Hello, &mut hello);
        conn.write_all(&hello).unwrap();
        let mut off = 0;
        for n in chunks.iter().cycle() {
            if off == wire.len() {
                break;
            }
            let n = (*n).min(wire.len() - off);
            // A poisoned client stops reading and may hang up mid-script.
            if conn.write_all(&wire[off..off + n]).is_err() {
                break;
            }
            off += n;
        }
        let _ = std::io::copy(&mut conn, &mut std::io::sink());
    });
    (addr, peer)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Posted and called requests share one FIFO dialogue. For any
    /// interleaving of the two and any fragmentation of the answers, every
    /// call gets its own answer (each `ShardStatus` asks about its own gtid
    /// and checks the gtid that comes back), and after `settle` nothing is
    /// owed: the next call's answer is the next frame. With `poison`, the
    /// answer owed to one post is instead the first non-`Ok` response the
    /// frame table draws: calls ahead of it are untouched, and from the
    /// operation that meets it onward everything fails typed — nobody is
    /// ever handed another request's answer.
    #[test]
    fn posted_and_called_requests_never_swap_answers(
        seed in any::<u64>(),
        posts in prop::collection::vec(any::<bool>(), 1..24),
        chunks in prop::collection::vec(1usize..12, 1..16),
        poison in any::<bool>(),
    ) {
        let mut rng = Rng::new(seed);
        let poisoned_post = (poison && posts.contains(&true)).then(|| {
            let nth = rng.below(posts.iter().filter(|p| **p).count() as u64) as usize;
            posts.iter().enumerate().filter(|(_, p)| **p).nth(nth).unwrap().0
        });
        let mut wire = Vec::new();
        let mut verdicts = Vec::new();
        for (i, post) in posts.iter().enumerate() {
            let commit = rng.pct(50);
            verdicts.push(commit);
            let answer = if Some(i) == poisoned_post {
                std::iter::repeat_with(|| arbitrary_response(&mut rng))
                    .find(|r| *r != Response::Ok)
                    .unwrap()
            } else if *post {
                Response::Ok
            } else {
                Response::ShardDecision { gtid: i as u64, commit }
            };
            encode_response(&answer, &mut wire);
        }
        encode_response(&Response::Pong, &mut wire);
        let (addr, peer) = scripted_peer(wire, chunks);
        let mut client = Client::connect(addr).unwrap();

        // A post never reads, so the poison is met by the first call (or
        // the closing settle) after the poisoned post.
        let mut met = false;
        for (i, post) in posts.iter().enumerate() {
            let gtid = i as u64;
            if *post {
                let posted = client.shard_decide(gtid, verdicts[i]);
                prop_assert_eq!(posted.is_err(), met, "post {}", i);
            } else {
                met |= poisoned_post.is_some_and(|p| p < i);
                match client.shard_status(gtid) {
                    Ok(commit) => prop_assert!(!met && commit == verdicts[i], "call {}", i),
                    Err(e) => prop_assert!(
                        met && matches!(e, NetError::Unexpected(_)),
                        "call {}: {}", i, e
                    ),
                }
            }
        }
        met |= poisoned_post.is_some();
        prop_assert_eq!(client.settle().is_err(), met);
        prop_assert_eq!(client.settle().is_err(), met, "settling twice changes nothing");
        prop_assert_eq!(client.ping().is_err(), met);
        drop(client);
        peer.join().unwrap();
    }
}

/// A source as unhelpful as a socket gets: one byte per read, every third
/// call interrupted, and `WouldBlock` once it runs dry.
struct Choppy<'a> {
    bytes: &'a [u8],
    calls: usize,
}

impl Read for Choppy<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.calls += 1;
        if self.calls.is_multiple_of(3) {
            return Err(ErrorKind::Interrupted.into());
        }
        let Some((first, rest)) = self.bytes.split_first() else {
            return Err(ErrorKind::WouldBlock.into());
        };
        buf[0] = *first;
        self.bytes = rest;
        Ok(1)
    }
}

/// Pumps `bytes` through `fill_from` until the source runs dry, returning
/// the frames that completed on the way.
fn pump(cursor: &mut FrameCursor, bytes: &[u8]) -> Vec<Request> {
    let mut src = Choppy { bytes, calls: 0 };
    let mut got = Vec::new();
    let dry = loop {
        match cursor.fill_from(&mut src) {
            Ok(n) => assert_eq!(n, 1, "one read per call"),
            Err(e) => break e,
        }
        got.extend(drain(cursor));
    };
    assert_eq!(dry.kind(), ErrorKind::WouldBlock, "interrupts are retried, not surfaced");
    got
}

/// `fill_from` is the one place a socket is read: each call is one read
/// straight into the cursor, `Interrupted` is retried inside it, and
/// `WouldBlock` passes through leaving a half-arrived frame buffered for the
/// bytes that complete it. End of stream is `Ok(0)`.
#[test]
fn fill_from_survives_short_reads_interrupts_and_would_block() {
    let (reqs, wire) = requests(7, 5);
    let cut = wire.len() - 3;
    let mut cursor = FrameCursor::new();
    let mut got = pump(&mut cursor, &wire[..cut]);
    assert_eq!(got, reqs[..4]);
    assert!(cursor.buffered() > 0, "the cut frame waits, intact");
    got.extend(pump(&mut cursor, &wire[cut..]));
    assert_eq!(got, reqs);
    assert_eq!(cursor.buffered(), 0);
    assert_eq!(cursor.fill_from(&mut std::io::empty()).unwrap(), 0, "end of stream");
}

/// An endless stream of pipelined pings that records how much room each read
/// was offered and delivers `deliver(room)` bytes of it.
struct Offers<D> {
    seen: Vec<usize>,
    sent: usize,
    deliver: D,
}

impl<D: Fn(usize) -> usize> Read for Offers<D> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        const PING: [u8; 5] = [1, 0, 0, 0, 0x01];
        self.seen.push(buf.len());
        let n = (self.deliver)(buf.len());
        for byte in &mut buf[..n] {
            *byte = PING[self.sent % PING.len()];
            self.sent += 1;
        }
        Ok(n)
    }
}

/// What a session's buffer costs follows what its socket delivers: short
/// reads leave the offer at one page however many arrive, reads that fill
/// the offer double it, and it stops at 64 KiB.
#[test]
fn fill_from_offers_a_page_until_reads_fill_it() {
    let mut quiet = Offers { seen: Vec::new(), sent: 0, deliver: |_| 31 };
    let mut cursor: FrameCursor = FrameCursor::new();
    let mut pings = 0;
    for _ in 0..1000 {
        cursor.fill_from(&mut quiet).unwrap();
        pings += drain(&mut cursor).len();
    }
    assert_eq!(pings, 31 * 1000 / 5);
    assert!(quiet.seen.iter().all(|&room| room <= 4096 + 5), "{:?}", quiet.seen);

    let mut firehose = Offers { seen: Vec::new(), sent: 0, deliver: |room| room };
    let mut cursor: FrameCursor = FrameCursor::new();
    for _ in 0..8 {
        cursor.fill_from(&mut firehose).unwrap();
        drain(&mut cursor);
    }
    for (read, &room) in firehose.seen.iter().enumerate() {
        let earned = (4096 << read).min(65536);
        assert!((earned..earned + 5).contains(&room), "read {read}: {:?}", firehose.seen);
    }
}

/// Malformed input surfaces the typed decode error instead of panicking or
/// pretending to need more bytes; the error is sticky across retries.
#[test]
fn malformed_bytes_error_typed_and_sticky() {
    // An oversized length prefix — the same hostile frame net_server.rs
    // throws at the full server.
    let mut cursor: FrameCursor = FrameCursor::new();
    cursor.feed(&[0xFF, 0xFF, 0xFF, 0xFF, 0x00]);
    assert_eq!(cursor.next(), Err(FrameError::Oversized(0xFFFF_FFFF)));
    assert_eq!(
        cursor.next(),
        Err(FrameError::Oversized(0xFFFF_FFFF)),
        "error must not self-heal"
    );
}

/// End-to-end: a session whose bytes arrive one at a time (forcing the
/// reactor through every partial-frame state) produces byte-identical
/// responses to the blocking client driving the same requests.
#[test]
fn dribbled_session_matches_blocking_path_responses() {
    let db = Arc::new(Database::open(EngineConfig::conventional_baseline()));
    let t = db.create_table("kv", 2).unwrap();
    let server = Server::start(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig { poll_interval: Duration::from_millis(2), ..ServerConfig::default() },
    )
    .unwrap();

    // Control path: the blocking client, one request per round trip.
    let mut control = Client::connect(server.local_addr()).unwrap();
    control.ping().unwrap();
    let spec = TxnSpec {
        kind: "ctl",
        ops: vec![WorkloadOp::Insert { table: t, key: 1, row: vec![7, 7] }],
        may_fail: false,
    };
    control.one_shot(&spec).unwrap();
    assert_eq!(control.read_committed(t, 1).unwrap(), Some(vec![7, 7]));

    // Dribble path: same request shapes (fresh key), one byte per write.
    let mut wire = Vec::new();
    encode_request(&Request::Ping, &mut wire);
    encode_request(
        &Request::OneShot {
            may_fail: false,
            ops: vec![WorkloadOp::Insert { table: t, key: 2, row: vec![7, 7] }],
        },
        &mut wire,
    );
    encode_request(&Request::Begin, &mut wire);
    encode_request(&Request::Read { table: t, key: 2 }, &mut wire);
    encode_request(&Request::Commit, &mut wire);

    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let mut greeting = [0u8; 5];
    raw.read_exact(&mut greeting).unwrap(); // Hello
    for b in &wire {
        raw.write_all(std::slice::from_ref(b)).unwrap();
        raw.flush().unwrap();
    }
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    let mut replies = Vec::new();
    let mut buf = [0u8; 4096];
    let mut decoded = Vec::new();
    while decoded.len() < 5 {
        let n = raw.read(&mut buf).expect("five responses are owed");
        assert!(n > 0, "server closed before answering everything");
        replies.extend_from_slice(&buf[..n]);
        while let Some((resp, used)) = decode_response(&replies).unwrap() {
            decoded.push(resp);
            replies.drain(..used);
        }
    }
    assert_eq!(decoded[0], Response::Pong);
    match &decoded[1] {
        Response::Outcome(outcome) if outcome.is_committed() => {}
        other => panic!("dribbled one-shot must commit exactly like the blocking path: {other:?}"),
    }
    assert_eq!(decoded[2], Response::Ok, "BEGIN");
    assert_eq!(decoded[3], Response::Row(vec![7, 7]));
    assert_eq!(decoded[4], Response::Ok, "COMMIT");
    server.shutdown();
}

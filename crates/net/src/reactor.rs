//! The reactor: an epoll-style readiness loop owning nonblocking sessions.
//!
//! Each reactor thread owns a [`minipoll::Poller`] and a private session
//! table — shared-nothing: a session's state is touched by exactly one
//! thread for its whole life, so none of it is behind a lock. The loop is a
//! classic tick:
//!
//! 1. **Wait** for readiness (or a doorbell: new sockets routed by the
//!    acceptor, a sibling reactor announcing a WAL flush, shutdown).
//! 2. **Ingest + execute**: one read per readable socket, straight into the
//!    session's [`FrameCursor`] (readiness is level-triggered: whatever a
//!    read leaves behind reports readable again), re-check parked freshness
//!    waits, decode complete frames incrementally, execute each session's
//!    pipelined batch inline.
//! 3. **Flush once**: every commit LSN produced this tick rides a single
//!    [`esdb_wal::Wal::flush_batch`] — group commit across sessions. The 2PC
//!    participant verbs ride it too: a `ShardPrepare`'s vote and a
//!    `ShardDecide`'s `Ok` are withheld until the flush has forced their
//!    records, so a tick holding a router's posted verdict and its next
//!    prepare pays one force and one socket write for both.
//! 4. **Ship + quorum**: log-subscriber sessions drain follower acks and
//!    stage newly durable chunks; sessions parked on a semi-sync quorum
//!    re-check the ack table.
//! 5. **Write**: push outboxes until `WouldBlock`, arming write interest
//!    only while bytes remain; sweep closed sessions; note whether anything
//!    is left parked (that shortens the next wait).
//!
//! Graceful shutdown is steps 2–3 run one last time over *every* session
//! (`immediate`: each is read to `WouldBlock`, freshness waits answer now
//! instead of parking), then a blocking tail — `wait_quorum`, then blocking
//! write-out.
//!
//! Each session is a state machine, not a thread:
//!
//! ```text
//!             bytes/frames                batch done, commit LSNs
//!   ReadingFrame ──────────► Executing ───────────────────────► (flush)
//!        ▲                       │ ReadAt/Query    │ quorum configured
//!        │                       ▼ behind token    ▼
//!        │                  AwaitFresh         AwaitQuorum
//!        │                       │ frontier/deadline │ acks/fence/deadline
//!        └──── WritingResponse ◄─┴───────────────────┘
//! ```
//!
//! (`ReadingFrame` and `Executing` are the inline `Phase::Request` path;
//! the parked states are explicit [`Phase`] variants re-checked per tick.)
//!
//! Each session mechanism exists once: **one read site**
//! ([`FrameCursor::fill_from`], the receive buffer of sessions, ship feeds
//! and [`crate::Client`] alike), **one freshness wait** (`resolve_fresh`:
//! the only reader of the apply watermark), **one tick** (shutdown reuses
//! it), and on the other end of the socket **one client call path**.
//!
//! **Why parked quorum waits are load-bearing:** the follower ack channel is
//! itself a session (the subscribe feed), and fd-hash sharding may place it
//! on the *same* reactor as the committing session. A blocking
//! `wait_quorum` there would deadlock: the commit waits for an ack only its
//! own reactor can drain. Parking the committer as [`Phase::AwaitQuorum`]
//! and re-checking [`esdb_core::ReplGroup::acked`] each tick keeps the ack
//! feed draining no matter where it lives.
//!
//! **Blocking that remains:** request execution (engine calls) runs inline
//! on the reactor. One-shot transactions acquire and release their locks
//! inside one call, but an *interactive* transaction holds locks across
//! round trips, and a conflicting inline wait then stalls every session on
//! that reactor until wait-die, deadlock detection, or the lock-wait
//! timeout resolves it — bounded, but a real convoy. That is the documented
//! cost of inline execution; DORA-style request routing is the paper's
//! answer and stays out of scope here.

use crate::protocol::{
    decode_request, decode_response, encode_response, Decoded, FrameError, Request, Response,
    WirePlan, MAX_FRAME,
};
use crate::server::{Role, SemiSync, Shared};
use esdb_core::config::ExecutionModel;
use esdb_core::{Database, QuorumError, ReplGroup};
use esdb_txn::Txn;
use esdb_wal::Lsn;
use esdb_workload::{TxnSpec, WorkloadOp};
use minipoll::{Event, Interest, Poller, WakeHandle, Waker};
use esdb_sync::Mutex;
use std::collections::HashMap;
use std::io::{ErrorKind, Read as IoRead, Write as IoWrite};
use std::marker::PhantomData;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Token reserved for the reactor's wake pipe.
pub(crate) const WAKER_TOKEN: u64 = 0;
/// The spare capacity [`FrameCursor::fill_from`] offers a read: `MIN_READ`
/// to begin with, doubled up to `READ_CHUNK` each time the source fills the
/// offer — an idle or request/response session stays at 4 KiB, a pipelined
/// one or a log feed earns the full chunk within five reads.
const MIN_READ: usize = 4 * 1024;
const READ_CHUNK: usize = 64 * 1024;
/// Largest log span per shipped [`Response::LogChunk`]; leaves frame
/// headroom below [`MAX_FRAME`].
const SHIP_CHUNK: usize = 256 * 1024;
const _: () = assert!(SHIP_CHUNK <= MAX_FRAME - 64);
/// Ship-feed outbox bound: chunks staged per tick per subscriber. The next
/// tick continues where this one stopped; backpressure, not truncation.
const MAX_SHIP_CHUNKS_PER_TICK: usize = 8;
/// Tick cap while any session is parked (quorum, freshness, shipping,
/// stall): parked states are re-checked on this cadence even if no fd fires.
const PARKED_TICK: Duration = Duration::from_millis(1);

/// The raw fd a stream registers under (also the acceptor's shard key).
#[cfg(unix)]
pub(crate) fn raw_fd(stream: &TcpStream) -> i32 {
    use std::os::unix::io::AsRawFd;
    stream.as_raw_fd()
}

#[cfg(not(unix))]
pub(crate) fn raw_fd(_stream: &TcpStream) -> i32 {
    0
}

/// A reactor's cross-thread face: the acceptor routes accepted sockets here,
/// and sibling reactors ring the doorbell after a WAL flush so parked ship
/// feeds notice new durable bytes promptly.
pub(crate) struct ReactorHandle {
    injected: Mutex<Vec<TcpStream>>,
    doorbell: WakeHandle,
}

impl ReactorHandle {
    pub(crate) fn new(doorbell: WakeHandle) -> ReactorHandle {
        ReactorHandle { injected: Mutex::new(Vec::new()), doorbell }
    }

    /// Routes an admitted socket to this reactor and wakes it.
    pub(crate) fn inject(&self, stream: TcpStream) {
        self.injected.lock().push(stream);
        self.doorbell.wake();
    }

    /// Wakes the reactor's poll wait.
    pub(crate) fn wake(&self) {
        self.doorbell.wake();
    }

    fn take_injected(&self) -> Vec<TcpStream> {
        std::mem::take(&mut *self.injected.lock())
    }
}

/// A frame a [`FrameCursor`] can pop: requests on the server end of a
/// socket, responses on the client end.
pub trait Frame: Sized {
    /// Decodes one frame from the front of `buf`: the frame and the bytes
    /// it consumed, `Ok(None)` if incomplete, or an error if it can never
    /// parse.
    fn decode(buf: &[u8]) -> Decoded<Self>;
}

impl Frame for Request {
    fn decode(buf: &[u8]) -> Decoded<Request> {
        decode_request(buf)
    }
}

impl Frame for Response {
    fn decode(buf: &[u8]) -> Decoded<Response> {
        decode_response(buf)
    }
}

/// Incremental frame decoder and the receive buffer of both ends of every
/// socket: bytes go in as the socket delivers them ([`FrameCursor::fill_from`]
/// reads straight into the buffer), complete frames pop out as they
/// materialize.
///
/// `Ok(None)` means *need more bytes* — the caller must wait for readiness,
/// never re-poll in a loop: with no new input, `next` is a pure function of
/// buffered state (a cheap length check), so the decoder can never busy-spin
/// or consume CPU proportional to wall time. Bytes are consumed exactly once
/// and never reordered, so any split of an input stream into `feed` calls —
/// down to one byte each — yields the same frame sequence as one big
/// buffer; the property tests in `reactor_sm.rs` pin this down.
pub struct FrameCursor<F = Request> {
    /// Initialised memory a read lands in directly; `buf[head..tail]` holds
    /// the bytes received but not yet decoded.
    buf: Vec<u8>,
    head: usize,
    tail: usize,
    /// What the next [`FrameCursor::fill_from`] offers its source.
    chunk: usize,
    frame: PhantomData<fn() -> F>,
}

impl<F: Frame> Default for FrameCursor<F> {
    fn default() -> Self {
        FrameCursor::from_bytes(Vec::new())
    }
}

impl<F: Frame> FrameCursor<F> {
    /// An empty cursor.
    pub fn new() -> FrameCursor<F> {
        FrameCursor::default()
    }

    /// A cursor pre-seeded with already-received bytes (e.g. ack frames
    /// pipelined behind a subscribe).
    pub fn from_bytes(buf: Vec<u8>) -> FrameCursor<F> {
        FrameCursor { tail: buf.len(), buf, head: 0, chunk: MIN_READ, frame: PhantomData }
    }

    /// Makes `buf[tail..]` at least `need` bytes long. A drained cursor
    /// restarts at the front for free; otherwise a pending partial frame
    /// moves to the front, and the buffer grows if that frame outsizes it —
    /// so memory is bounded by the unconsumed suffix plus one read offer.
    fn spare(&mut self, need: usize) -> &mut [u8] {
        if self.head == self.tail {
            (self.head, self.tail) = (0, 0);
        }
        if self.buf.len() - self.tail < need {
            if self.head > 0 {
                self.buf.copy_within(self.head..self.tail, 0);
                (self.head, self.tail) = (0, self.tail - self.head);
            }
            self.buf.resize(self.buf.len().max(self.tail + need), 0);
        }
        &mut self.buf[self.tail..]
    }

    /// One read from `src` straight into the cursor's spare capacity — the
    /// only place a session, a ship feed or a client touches its socket for
    /// input. Returns the bytes received; `Ok(0)` is end of stream.
    /// `Interrupted` is retried; every other error (including the
    /// `WouldBlock` of a nonblocking source with nothing to deliver) passes
    /// through with the buffered bytes intact. Readiness is level-triggered,
    /// so a source holding more than one read's worth reports readable again
    /// (and a read that fills the offer doubles the next one).
    pub fn fill_from(&mut self, src: &mut impl IoRead) -> std::io::Result<usize> {
        loop {
            let spare = self.spare(self.chunk);
            let offered = spare.len();
            match src.read(spare) {
                Ok(n) => {
                    self.tail += n;
                    if n == offered {
                        self.chunk = (2 * self.chunk).min(READ_CHUNK);
                    }
                    return Ok(n);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Appends already-received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.spare(bytes.len())[..bytes.len()].copy_from_slice(bytes);
        self.tail += bytes.len();
    }

    /// Pops the next complete frame, `Ok(None)` when more bytes are needed,
    /// or the decode error on malformed input (the connection is then
    /// unrecoverable — framing is lost).
    pub fn next(&mut self) -> Result<Option<F>, FrameError> {
        Ok(F::decode(&self.buf[self.head..self.tail])?.map(|(frame, used)| {
            self.head += used;
            frame
        }))
    }

    /// Unconsumed bytes currently buffered (a nonzero value after `next`
    /// returned `Ok(None)` means a partial frame is pending).
    pub fn buffered(&self) -> usize {
        self.tail - self.head
    }

    /// Takes every unconsumed byte out of the cursor, buffer and all (used
    /// when a session flips into a subscribe feed: trailing bytes are ack
    /// frames, and the feed's ack decoder inherits the allocation).
    pub fn take_rest(&mut self) -> Vec<u8> {
        let mut rest = std::mem::take(&mut self.buf);
        rest.truncate(self.tail);
        rest.drain(..self.head);
        (self.head, self.tail) = (0, 0);
        rest
    }
}

/// Where a session is in its state machine. `Request` covers the inline
/// ReadingFrame→Executing→WritingResponse path; the other variants are
/// parked states re-checked every tick.
enum Phase {
    /// Decoding and executing request frames inline.
    Request,
    /// A follower read or OLAP query, arrived at `since`, waiting for the
    /// apply frontier to reach `min_lsn` (or for its deadline).
    AwaitFresh { min_lsn: Lsn, since: Instant, then: Fresh },
    /// A completed batch whose commit acks wait for the follower quorum.
    AwaitQuorum { lsn: Lsn, deadline: Instant },
    /// A one-way log feed (post-subscribe): ships chunks, drains acks.
    Shipping(Ship),
}

/// What a freshness wait serves once the frontier covers its token.
enum Fresh {
    /// A point read through a throwaway read-only transaction.
    Read { table: u32, key: u64 },
    /// A plan run pinned under the apply gate.
    Query(WirePlan),
}

/// Shipping-state fields: the feed cursor, the follower's ack decoder, and
/// its registered slot in the replication group (deregistered on drop).
struct Ship {
    from: Lsn,
    acks: FrameCursor,
    slot: Option<FollowerSlot>,
}

/// One session: a socket plus all of its nonblocking state. Owned by
/// exactly one reactor; nothing here is shared or locked.
struct Conn {
    stream: TcpStream,
    fd: i32,
    token: u64,
    /// The poller reported the socket readable for the current tick.
    readable: bool,
    cursor: FrameCursor,
    /// Responses staged for the in-progress batch; encoded only at batch
    /// finalization so quorum failures can rewrite commit acks in place.
    staged: Vec<Response>,
    /// Indices into `staged` acknowledging a durable commit.
    commit_acks: Vec<usize>,
    /// Highest commit LSN this batch produced; joins the tick's group flush.
    flush_to: Option<Lsn>,
    /// Whether the current batch executed at least one frame.
    executed: bool,
    outbox: Vec<u8>,
    out_pos: usize,
    /// At most one open interactive transaction.
    txn: Option<Txn>,
    phase: Phase,
    /// Since when a partial frame has sat behind a quiet peer. Tracked only
    /// under a configured [`crate::ServerConfig::stall_timeout`]: without a
    /// budget nothing ever acts on the clock, and it must not shorten the
    /// tick.
    stalled_since: Option<Instant>,
    fatal: Option<FrameError>,
    /// A decoded subscribe frame: the batch ends and the session flips into
    /// `Shipping` at finalization.
    subscribe: Option<(Lsn, u64)>,
    /// Close once every staged response has been written out.
    close_after_drain: bool,
    closed: bool,
    want_write: bool,
}

impl Conn {
    fn new(stream: TcpStream, fd: i32, token: u64) -> Conn {
        Conn {
            stream,
            fd,
            token,
            readable: false,
            cursor: FrameCursor::new(),
            staged: Vec::new(),
            commit_acks: Vec::new(),
            flush_to: None,
            executed: false,
            outbox: Vec::new(),
            out_pos: 0,
            txn: None,
            phase: Phase::Request,
            stalled_since: None,
            fatal: None,
            subscribe: None,
            close_after_drain: false,
            closed: false,
            want_write: false,
        }
    }

    /// Notes a deferred commit whose acknowledgement is the response staged
    /// next: its LSN joins the tick's group flush, and the ack is marked for
    /// rewriting should the quorum fail. Read-only commits have no LSN and
    /// owe neither.
    fn note(&mut self, lsn: Option<Lsn>) {
        if lsn.is_some() {
            self.commit_acks.push(self.staged.len());
        }
        self.force(lsn);
    }

    /// Raises the batch's flush target to `lsn`: nothing this batch staged
    /// leaves before the tick's group flush has made `lsn` durable. The 2PC
    /// verbs owe exactly this and no more — their answers are never commit
    /// acks, so no quorum gates them.
    fn force(&mut self, lsn: Option<Lsn>) {
        self.flush_to = self.flush_to.max(lsn);
    }

    /// Anything pending that finalization would turn into output?
    fn has_output(&self) -> bool {
        self.executed
            || !self.staged.is_empty()
            || self.fatal.is_some()
            || self.subscribe.is_some()
    }

    /// Safe to honor `close_after_drain`: every owed byte has left.
    fn drained_for_close(&self) -> bool {
        self.outbox.len() <= self.out_pos
            && !self.has_output()
            && self.flush_to.is_none()
            && matches!(self.phase, Phase::Request | Phase::Shipping(_))
    }
}

/// A follower's ack slot in the primary's [`ReplGroup`], deregistered
/// however the session ends.
struct FollowerSlot {
    group: Arc<ReplGroup>,
    id: u64,
}

impl Drop for FollowerSlot {
    fn drop(&mut self) {
        self.group.deregister_follower(self.id);
    }
}

/// Reactor entry point, one call per reactor thread.
pub(crate) fn run(
    id: usize,
    shared: Arc<Shared>,
    poller: Poller,
    waker: Waker,
    handle: Arc<ReactorHandle>,
    peers: Arc<Vec<Arc<ReactorHandle>>>,
) {
    Reactor {
        id,
        shared,
        poller,
        waker,
        handle,
        peers,
        conns: HashMap::new(),
        next_token: WAKER_TOKEN + 1,
    }
    .run();
}

struct Reactor {
    id: usize,
    shared: Arc<Shared>,
    poller: Poller,
    waker: Waker,
    handle: Arc<ReactorHandle>,
    peers: Arc<Vec<Arc<ReactorHandle>>>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
}

impl Reactor {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        // Whether the last tick left a session in a state only a tick (not
        // an fd event) can advance: the poll wait then shortens from the
        // configured interval to [`PARKED_TICK`].
        let mut parked = false;
        loop {
            let base = self.shared.config.poll_interval;
            let timeout = if parked { base.min(PARKED_TICK) } else { base };
            let poll_start = Instant::now();
            let _ = self.poller.wait(&mut events, Some(timeout));
            if esdb_obs::enabled() {
                esdb_obs::record_component(
                    esdb_obs::Component::ReactorPoll,
                    poll_start.elapsed().as_nanos() as u64,
                );
            }
            let tick_start = Instant::now();
            if events.iter().any(|e| e.token == WAKER_TOKEN) {
                self.waker.drain();
            }
            // Before the shutdown check: an admitted session is owed its
            // last tick like any other.
            for stream in self.handle.take_injected() {
                self.register(stream);
            }
            if self.shared.shutdown.load(Ordering::SeqCst) {
                self.drain_and_exit();
                return;
            }
            parked = self.tick(&events, tick_start);
            if esdb_obs::enabled() {
                esdb_obs::record_component(
                    esdb_obs::Component::ReactorTick,
                    tick_start.elapsed().as_nanos() as u64,
                );
            }
        }
    }

    fn register(&mut self, stream: TcpStream) {
        let token = self.next_token;
        self.next_token += 1;
        // On non-unix the fallback poller keys deletes by fd, so a unique
        // pseudo-fd (the token) keeps registrations independent.
        let fd = if cfg!(unix) { raw_fd(&stream) } else { token as i32 };
        if self.poller.add(fd, token, Interest::READABLE).is_err() {
            self.shared.counters.active.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        self.conns.insert(token, Conn::new(stream, fd, token));
    }

    /// One reactor tick over `events`. Returns whether any session is left
    /// parked (see [`Reactor::run`]).
    fn tick(&mut self, events: &[Event], now: Instant) -> bool {
        for e in events.iter().filter(|e| e.readable) {
            if let Some(conn) = self.conns.get_mut(&e.token) {
                conn.readable = true;
            }
        }
        self.ingest_execute_flush(now, false);
        let shared = &self.shared;

        // Phase C — ship feeds: drain follower acks (feeding the quorum ack
        // table *before* quorum resolution below), then stage newly durable
        // chunks.
        for conn in self.conns.values_mut() {
            if conn.closed || !matches!(conn.phase, Phase::Shipping(_)) {
                continue;
            }
            let mut phase = std::mem::replace(&mut conn.phase, Phase::Request);
            if let Phase::Shipping(ship) = &mut phase {
                ship_tick(shared, conn, ship);
            }
            conn.phase = phase;
        }

        // Phase C2 — batches past the flush either park on the quorum or
        // finalize straight away; parked quorum waits re-check
        // acks/fencing/deadline. A session that resolves may have buffered
        // frames that arrived during the wait; execute them now (their
        // commits flush inline — the rare continuation path) so no input
        // ever waits on an fd event that will never fire.
        for conn in self.conns.values_mut().filter(|c| !c.closed) {
            if matches!(conn.phase, Phase::Request) && conn.flush_to.is_some() {
                after_flush(shared, conn, now);
            }
            if let (&Phase::AwaitQuorum { lsn, deadline }, Role::SemiSync(semi)) =
                (&conn.phase, &shared.config.role)
            {
                if resolve_quorum(shared, conn, semi, lsn, deadline, now) {
                    exec_pending(shared, conn, now, false);
                    if matches!(conn.phase, Phase::Request) {
                        if let Some(lsn) = conn.flush_to {
                            let _wait = esdb_obs::wait_timer(esdb_obs::WaitClass::CommitFlush);
                            shared.db.wal().wait_durable(lsn);
                        }
                        after_flush(shared, conn, now);
                    }
                }
            }
        }

        // Phase D — write pass and interest maintenance, the sweep, and the
        // next poll's timeout. Dropping a swept conn aborts any open
        // interactive transaction and deregisters any follower slot.
        let poller = &self.poller;
        let mut parked = false;
        self.conns.retain(|_, conn| {
            flush_outbox(poller, conn);
            if conn.closed {
                let _ = poller.delete(conn.fd);
                shared.counters.active.fetch_sub(1, Ordering::SeqCst);
                return false;
            }
            conn.readable = false;
            parked |= !matches!(conn.phase, Phase::Request)
                || conn.stalled_since.is_some()
                || conn.outbox.len() > conn.out_pos;
            true
        });
        parked
    }

    /// Phases A and B, the part of a tick that the last tick of a shutdown
    /// (`immediate`) runs too: one read per readable session (every session,
    /// to `WouldBlock`, when `immediate` — everything that has already
    /// arrived is part of the contract),
    /// freshness waits re-checked (`immediate`: answered now, never parked),
    /// inline execution, and the group-commit flush.
    fn ingest_execute_flush(&mut self, now: Instant, immediate: bool) {
        let shared = &self.shared;

        // Phase A — ingest, park resolution, inline execution.
        let mut tick_flush: Option<Lsn> = None;
        for conn in self.conns.values_mut().filter(|c| !c.closed) {
            if matches!(conn.phase, Phase::Shipping(_)) {
                // A feed is one-way: at shutdown it is owed nothing.
                conn.closed = immediate;
                continue;
            }
            // A tick reads a readable session once: readiness is
            // level-triggered, leftovers report again. The last tick reads
            // every session to the end of what has arrived.
            while conn.readable || immediate {
                match conn.cursor.fill_from(&mut conn.stream) {
                    Ok(n) if n > 0 => {
                        conn.stalled_since = None;
                        if immediate {
                            continue;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                    // End of input, by EOF or by a reset (a peer that hung up
                    // with answers unread): what was received still executes
                    // — a posted verdict must not die in the buffer — and the
                    // session closes once the outbox drains or the write
                    // fails.
                    _ => conn.close_after_drain = true,
                }
                break;
            }
            if matches!(conn.phase, Phase::AwaitFresh { .. }) {
                // The plan is not Copy: take the phase out, re-park inside
                // resolve_fresh if the frontier is still short.
                if let Phase::AwaitFresh { min_lsn, since, then } =
                    std::mem::replace(&mut conn.phase, Phase::Request)
                {
                    resolve_fresh(shared, conn, min_lsn, then, since, now, immediate);
                }
            }
            if matches!(conn.phase, Phase::Request) {
                exec_pending(shared, conn, now, immediate);
                note_stall(shared, conn, now);
            }
            if matches!(conn.phase, Phase::Request) {
                if let Some(lsn) = conn.flush_to {
                    // Batch complete with commits: joins the tick flush.
                    tick_flush = tick_flush.max(Some(lsn));
                } else if conn.has_output() {
                    finalize(shared, conn);
                }
            }
        }

        // Phase B — the group-commit point: one durability wait covers every
        // batch that completed this tick, across all of this reactor's
        // sessions. Accounted as commit-flush wait; sibling reactors are
        // woken so ship feeds they host notice the new durable bytes.
        if tick_flush.is_some() {
            {
                let _wait = esdb_obs::wait_timer(esdb_obs::WaitClass::CommitFlush);
                shared.db.wal().flush_batch(tick_flush);
            }
            for (i, peer) in self.peers.iter().enumerate() {
                if i != self.id {
                    peer.wake();
                }
            }
        }
    }

    /// Graceful shutdown is one last tick plus a blocking tail. The last
    /// tick is [`Reactor::ingest_execute_flush`] with `immediate`. Only the
    /// tail differs from a tick: quorum waits resolve through the blocking
    /// primitive (no new acks will route anywhere after the drain, and the
    /// feed sessions on this reactor have already taken their last drain),
    /// then every outbox is written out with blocking sockets.
    fn drain_and_exit(&mut self) {
        self.ingest_execute_flush(Instant::now(), true);
        let shared = &self.shared;
        for conn in self.conns.values_mut().filter(|c| !c.closed) {
            let quorum_lsn = match conn.phase {
                Phase::AwaitQuorum { lsn, .. } => Some(lsn),
                _ => conn.flush_to.take().filter(|_| !conn.commit_acks.is_empty()),
            };
            if let (Some(lsn), Role::SemiSync(semi)) = (quorum_lsn, &shared.config.role) {
                settle_quorum(conn, semi.group.wait_quorum(lsn, &semi.policy));
            }
            conn.phase = Phase::Request;
            finalize(shared, conn);
            let _ = conn.stream.set_nonblocking(false);
            let _ = conn.stream.write_all(&conn.outbox[conn.out_pos..]);
        }
        // Sessions drop here: open transactions abort, follower slots
        // deregister, sockets close.
    }
}

/// Stall accounting: a partial frame behind a quiet peer ages against the
/// configured budget, and a session that outlives it is closed with a typed
/// timeout frame instead of holding its slot forever.
fn note_stall(shared: &Shared, conn: &mut Conn, now: Instant) {
    let Some(budget) = shared.config.stall_timeout else { return };
    if conn.fatal.is_some() || conn.subscribe.is_some() {
        return;
    }
    if !matches!(conn.phase, Phase::Request) || conn.cursor.buffered() == 0 {
        conn.stalled_since = None;
    } else if now.duration_since(*conn.stalled_since.get_or_insert(now)) >= budget {
        encode_response(&Response::Error(FrameError::Timeout.to_string()), &mut conn.outbox);
        conn.close_after_drain = true;
        conn.stalled_since = None;
    }
}

/// Executes every complete frame the cursor holds, stopping at a park, a
/// subscribe, or a decode error. With `immediate` (shutdown drain), a
/// lagging follower read answers `Lagging` now instead of parking.
fn exec_pending(shared: &Arc<Shared>, conn: &mut Conn, now: Instant, immediate: bool) {
    while conn.fatal.is_none()
        && conn.subscribe.is_none()
        && matches!(conn.phase, Phase::Request)
    {
        match conn.cursor.next() {
            Err(e) => conn.fatal = Some(e),
            Ok(None) => break,
            Ok(Some(req)) => {
                conn.executed = true;
                exec_one(shared, conn, req, now, immediate);
            }
        }
    }
}

/// Executes one request inline, staging its response. The port of the
/// threaded server's batch executor, minus everything that blocked: commits
/// only *note* their LSN (the tick flush pays durability), quorum and
/// freshness waits become parked phases.
fn exec_one(shared: &Arc<Shared>, conn: &mut Conn, req: Request, now: Instant, immediate: bool) {
    let db = &shared.db;
    let resp = match req {
        Request::Ping => Response::Pong,
        Request::Stats => Response::Stats(shared.stats()),
        Request::ObsStats => Response::ObsStats(Box::new(db.obs_snapshot())),
        Request::OneShot { may_fail, ops } => {
            if let Some(wrong) = ownership_refusal(shared, &ops) {
                conn.staged.push(wrong);
                return;
            }
            shared.counters.txns_executed.fetch_add(1, Ordering::Relaxed);
            let spec = TxnSpec { kind: "net", ops, may_fail };
            // Per-txn profile covers execution only; the tick's shared
            // group-commit flush is accounted once as CommitFlush rather
            // than attributed to any single transaction.
            let ((outcome, lsn), profile) =
                esdb_obs::profile_scope(|| db.run_spec_deferred(&spec));
            if esdb_obs::enabled() {
                esdb_obs::record_component(esdb_obs::Component::TxnLatency, profile.wall());
            }
            if outcome.is_committed() {
                shared.counters.txns_committed.fetch_add(1, Ordering::Relaxed);
            }
            conn.note(lsn);
            Response::Outcome(outcome)
        }
        Request::Begin => match conn.txn {
            Some(_) => Response::Error("transaction already open".into()),
            None => {
                if matches!(db.config().execution, ExecutionModel::Dora { .. }) {
                    Response::Error(
                        "interactive transactions require the conventional engine; \
                         DORA accepts one-shot TXN frames only"
                            .into(),
                    )
                } else {
                    conn.txn = Some(db.txn_manager().begin());
                    Response::Ok
                }
            }
        },
        Request::Read { table, key } => {
            statement(conn, |txn| txn.read(table, key).map(Response::Row))
        }
        Request::Update { table, key, row } => {
            statement(conn, |txn| txn.update(table, key, &row).map(|_| Response::Ok))
        }
        Request::Insert { table, key, row } => {
            statement(conn, |txn| txn.insert(table, key, &row).map(|()| Response::Ok))
        }
        Request::Commit => match conn.txn.take() {
            None => Response::Error("no open transaction".into()),
            Some(txn) => {
                conn.note(txn.commit_deferred());
                Response::Ok
            }
        },
        Request::Abort => match conn.txn.take() {
            None => Response::Error("no open transaction".into()),
            Some(txn) => {
                txn.abort();
                Response::Ok
            }
        },
        Request::ReplSnapshot => {
            match crate::Snapshot::take(db) {
                Ok(snap) => conn.staged.extend(snap.into_frames()),
                Err(e) => conn.staged.push(Response::Error(format!("snapshot failed: {e}"))),
            }
            return;
        }
        // A subscribe ends the request/response dialogue: the batch
        // finalizes and the session flips into a log feed. Frames already
        // buffered behind it are ack frames and stay for the feed.
        Request::ReplSubscribe { from, term } => {
            conn.subscribe = Some((from, term));
            return;
        }
        // Acks belong to subscribe feeds; on a request/response session
        // they are a protocol misuse, answered typed rather than fatally.
        Request::ReplAck { .. } => {
            Response::Error("acks are only valid on a subscribe feed".into())
        }
        Request::CommitToken => Response::Token { lsn: db.wal().durable_lsn() },
        Request::ReadAt { table, key, min_lsn } => {
            resolve_fresh(shared, conn, min_lsn, Fresh::Read { table, key }, now, now, immediate);
            return;
        }
        // 2PC phase one: execute the ops, append the Prepare record, and
        // vote. A yes-vote parks the transaction (locks held) in the
        // engine's prepared registry until a ShardDecide arrives, and is
        // withheld until the tick's group flush has forced the record.
        Request::ShardPrepare { gtid, ops } => {
            // The gate runs before the prepare executes, so a refused slice
            // registers nothing — the coordinator sees a clean no-vote
            // analog and aborts without an in-doubt participant here.
            if let Some(wrong) = ownership_refusal(shared, &ops) {
                conn.staged.push(wrong);
                return;
            }
            shared.counters.txns_executed.fetch_add(1, Ordering::Relaxed);
            let spec = TxnSpec { kind: "shard", ops, may_fail: true };
            let (outcome, lsn) = db.run_spec_prepare_deferred(gtid, &spec);
            conn.force(lsn);
            Response::ShardVote { gtid, outcome }
        }
        // 2PC phase two: finish a prepared transaction. Unknown gtids are
        // acknowledged too — a retried decision must be idempotent. The
        // commit record rides the same group flush as whatever else the
        // tick holds — typically this router's next ShardPrepare, which a
        // posted verdict sits directly in front of on the wire.
        Request::ShardDecide { gtid, commit } => {
            let (applied, lsn) = db.decide_deferred(gtid, commit);
            if applied && commit {
                shared.counters.txns_committed.fetch_add(1, Ordering::Relaxed);
            }
            conn.force(lsn);
            Response::Ok
        }
        // Participant recovery asks the coordinator's decision log what
        // became of an in-doubt gtid; the source answers the verdict that
        // holds (an undecided gtid takes abort).
        Request::ShardStatus { gtid } => match &shared.config.decision_source {
            Some(source) => Response::ShardDecision { gtid, commit: (source.0)(gtid) },
            None => Response::Error("no coordinator decision source configured".into()),
        },
        Request::ShardInDoubt => Response::ShardGtids(db.prepared_gtids()),
        Request::Query { min_lsn, plan } => {
            resolve_fresh(shared, conn, min_lsn, Fresh::Query(plan), now, now, immediate);
            return;
        }
        Request::RoutingSnapshot => match &shared.config.slot_gate {
            Some(gate) => {
                let (epoch, slots) = gate.routing();
                Response::Routing { epoch, slots }
            }
            None => Response::Error("no routing table configured".into()),
        },
        Request::MigFetch { table, slot, slot_count } => match db.table(table) {
            Some(t) => {
                // Fuzzy by design: the scan runs against the live heap with
                // no pin, so it may carry uncommitted rows — the migration's
                // repeat-history delta catch-up replays the WAL (including
                // abort compensations) and converges the copy regardless.
                let mut rows = Vec::new();
                let mut overflow = false;
                let scan = t.scan(|key, row| {
                    if esdb_core::slot_of(table, key, slot_count) == slot {
                        if rows.len() >= MIG_FETCH_MAX_ROWS {
                            overflow = true;
                        } else {
                            rows.push((key, row.to_vec()));
                        }
                    }
                });
                match scan {
                    Err(e) => Response::Error(format!("migration scan failed: {e}")),
                    Ok(()) if overflow => Response::Error(format!(
                        "slot exceeds {MIG_FETCH_MAX_ROWS} rows; fetch a finer ring"
                    )),
                    Ok(()) => Response::MigRows { rows },
                }
            }
            None => Response::Error(format!("no such table: {table}")),
        },
    };
    conn.staged.push(resp);
}

/// Most rows a [`Request::MigFetch`] answer carries. Keeps the single-frame
/// reply comfortably under [`MAX_FRAME`]; a slot that outgrows the cap is a
/// typed error telling the operator to migrate on a finer ring.
const MIG_FETCH_MAX_ROWS: usize = 8192;

/// Runs the configured slot gate over every op target, returning the typed
/// [`Response::WrongShard`] refusal for the first key this server does not
/// own (`None` when unsharded or everything is owned).
fn ownership_refusal(shared: &Arc<Shared>, ops: &[WorkloadOp]) -> Option<Response> {
    let gate = shared.config.slot_gate.as_ref()?;
    ops.iter().find_map(|op| {
        let (table, key) = op.target();
        gate.refusal(table, key).map(|(epoch, hint)| Response::WrongShard { epoch, hint })
    })
}

/// The one freshness gate, for a token-gated request (arrived at `since`)
/// on first sight and for every re-check of a parked one. A follower serves
/// it if the apply frontier covers `min_lsn`, answers `Lagging` if it does
/// not and waiting is over — `read_at_wait` has passed since arrival, this
/// is the shutdown drain (`immediate`: no more ticks are coming), or the
/// feed is dead and the frontier will never move — and otherwise parks the
/// session (the reactor keeps serving everyone else). Entered in
/// [`Phase::Request`]; leaves the session there unless it parks.
fn resolve_fresh(
    shared: &Arc<Shared>,
    conn: &mut Conn,
    min_lsn: Lsn,
    then: Fresh,
    since: Instant,
    now: Instant,
    immediate: bool,
) {
    let Role::Follower(follower) = &shared.config.role else {
        conn.staged.push(match then {
            // A primary: every read is trivially fresh.
            Fresh::Read { table, key } => fresh_read(&shared.db, table, key),
            // But a primary never serves plans: its heap has no
            // consistent-cut pin (writers mutate it mid-scan). OLAP is the
            // followers' job — that asymmetry is the HTAP design, not an
            // accident.
            Fresh::Query(_) => Response::Error(
                "queries are served by followers; connect to a replica".into(),
            ),
        });
        return;
    };
    let applied = follower.applied.load(Ordering::Acquire);
    let fresh = applied >= min_lsn;
    let waiting = !immediate
        && now < since + follower.read_at_wait
        && follower.feed_live.load(Ordering::Acquire);
    let resp = match then {
        Fresh::Read { table, key } if fresh => fresh_read(&shared.db, table, key),
        Fresh::Query(plan) if fresh => run_query(&shared.db, &follower.gate, &plan),
        _ if waiting => {
            conn.phase = Phase::AwaitFresh { min_lsn, since, then };
            return;
        }
        _ => Response::Lagging { applied },
    };
    conn.staged.push(resp);
}

/// Result-size bounds: the whole result rides one frame, so refuse anything
/// that could overflow [`MAX_FRAME`] instead of truncating it (a truncated
/// result is a wrong answer; a typed error is not).
const MAX_QUERY_ROWS: usize = 16_384;
const MAX_QUERY_CELLS: usize = 100_000;

/// Executes a validated plan pinned under the apply gate. Holding the read
/// side keeps the apply loop out of its write section for the whole plan,
/// so every operator sees the heap at one applied frontier — and the
/// frontier only advances at transaction-consistent cuts.
fn run_query(db: &Arc<Database>, gate: &esdb_sync::RwLock<()>, plan: &WirePlan) -> Response {
    let _pin = gate.read();
    let node = match compile_wire(db, plan) {
        Ok((node, _)) => node,
        Err(msg) => return Response::Error(msg),
    };
    let rows = esdb_staged::execute_staged(&node, esdb_staged::DEFAULT_BATCH);
    let cells: usize = rows.iter().map(|r| r.len()).sum();
    if rows.len() > MAX_QUERY_ROWS || cells > MAX_QUERY_CELLS {
        return Response::Error(format!(
            "query result too large for one frame ({} rows); aggregate or narrow the plan",
            rows.len()
        ));
    }
    Response::Rows(rows)
}

/// Compiles a wire plan against the server's catalog, returning the plan
/// plus its output row width. Every table id, index id, and column offset
/// is validated here — the execution engines index rows unchecked, so this
/// is the panic barrier between the wire and the engine.
fn compile_wire(
    db: &Arc<Database>,
    plan: &WirePlan,
) -> Result<(esdb_staged::PlanNode, usize), String> {
    use esdb_staged::PlanNode;
    let resolve = |id: u32| {
        db.table(id).ok_or_else(|| format!("unknown table {id}"))
    };
    Ok(match plan {
        WirePlan::Scan { table } => {
            let t = resolve(*table)?;
            let width = t.schema().arity + 1;
            (PlanNode::scan(t), width)
        }
        WirePlan::IndexScan { table, index, lo, hi } => {
            let t = resolve(*table)?;
            if t.secondary(*index).is_none() {
                return Err(format!("unknown index {index} on table {table}"));
            }
            let width = t.schema().arity + 1;
            (PlanNode::index_scan(t, *index, *lo, *hi), width)
        }
        WirePlan::Filter { input, col, op, value } => {
            let (node, width) = compile_wire(db, input)?;
            if *col as usize >= width {
                return Err(format!("filter column {col} out of range (width {width})"));
            }
            (node.filter(*col as usize, *op, *value), width)
        }
        WirePlan::Project { input, cols } => {
            let (node, width) = compile_wire(db, input)?;
            if let Some(bad) = cols.iter().find(|&&c| c as usize >= width) {
                return Err(format!("project column {bad} out of range (width {width})"));
            }
            let cols: Vec<usize> = cols.iter().map(|&c| c as usize).collect();
            let out = cols.len();
            (node.project(cols), out)
        }
        WirePlan::Aggregate { input, group_col, agg_col, func } => {
            let (node, width) = compile_wire(db, input)?;
            if *agg_col as usize >= width {
                return Err(format!("aggregate column {agg_col} out of range (width {width})"));
            }
            if let Some(g) = group_col {
                if *g as usize >= width {
                    return Err(format!("group column {g} out of range (width {width})"));
                }
            }
            let out = if group_col.is_some() { 2 } else { 1 };
            (
                node.aggregate(group_col.map(|g| g as usize), *agg_col as usize, *func),
                out,
            )
        }
        WirePlan::Sort { input, col } => {
            let (node, width) = compile_wire(db, input)?;
            if *col as usize >= width {
                return Err(format!("sort column {col} out of range (width {width})"));
            }
            (node.sort(*col as usize), width)
        }
    })
}

/// The served half of a follower read: the row, through a throwaway
/// read-only transaction.
fn fresh_read(db: &Arc<Database>, table: u32, key: u64) -> Response {
    if matches!(db.config().execution, ExecutionModel::Dora { .. }) {
        return Response::Error("follower reads require the conventional engine".into());
    }
    let mut txn = db.txn_manager().begin();
    let resp = match txn.read(table, key) {
        Ok(row) => Response::Row(row),
        Err(e) => Response::Error(format!("read failed: {e}")),
    };
    txn.abort();
    resp
}

/// A flushed batch either parks on the semi-sync quorum or finalizes; one
/// with no commit to flush finalizes whatever it staged.
fn after_flush(shared: &Arc<Shared>, conn: &mut Conn, now: Instant) {
    let Some(lsn) = conn.flush_to.take() else {
        if conn.has_output() {
            finalize(shared, conn);
        }
        return;
    };
    match &shared.config.role {
        // A batch that only forced (2PC verbs) has no commit ack to gate.
        Role::SemiSync(semi) if !conn.commit_acks.is_empty() => {
            conn.phase = Phase::AwaitQuorum { lsn, deadline: now + semi.policy.timeout };
        }
        _ => finalize(shared, conn),
    }
}

/// Re-checks a parked quorum wait against the group's one quorum rule
/// ([`ReplGroup::quorum_verdict`]). Returns whether the session resumed.
fn resolve_quorum(
    shared: &Arc<Shared>,
    conn: &mut Conn,
    semi: &SemiSync,
    lsn: Lsn,
    deadline: Instant,
    now: Instant,
) -> bool {
    let Some(verdict) = semi.group.quorum_verdict(lsn, &semi.policy, now >= deadline) else {
        return false;
    };
    settle_quorum(conn, verdict);
    conn.phase = Phase::Request;
    finalize(shared, conn);
    true
}

/// Applies a decided quorum wait to its batch. A failed wait never hangs and
/// never lies: every commit ack in the batch is rewritten to the typed
/// degradation (the commit *is* durable locally; only its replication
/// guarantee is unmet).
fn settle_quorum(conn: &mut Conn, verdict: Result<(), QuorumError>) {
    if let Err(e) = verdict {
        let resp = Response::from(e);
        for &i in &conn.commit_acks {
            conn.staged[i] = resp.clone();
        }
    }
}

/// Batch finalization: encode every staged response into the outbox, count
/// the batch, and apply any pending state transition (fatal close or the
/// flip into shipping).
fn finalize(shared: &Arc<Shared>, conn: &mut Conn) {
    if conn.executed {
        shared.counters.batches.fetch_add(1, Ordering::Relaxed);
        conn.executed = false;
    }
    for resp in conn.staged.drain(..) {
        encode_response(&resp, &mut conn.outbox);
    }
    conn.commit_acks.clear();
    conn.flush_to = None;
    if let Some(e) = conn.fatal.take() {
        // Protocol desync is unrecoverable: report and close.
        encode_response(&Response::Error(e.to_string()), &mut conn.outbox);
        conn.close_after_drain = true;
        return;
    }
    if let Some((from, term)) = conn.subscribe.take() {
        begin_shipping(shared, conn, from, term);
    }
}

/// Flips a session into a log feed. With a replication group this is the
/// term handshake: a subscriber speaking from a higher term is (or has
/// seen) our successor — record the supersession and refuse to ship a
/// single byte, the fence that keeps a deposed primary from feeding anyone
/// its divergent tail.
fn begin_shipping(shared: &Arc<Shared>, conn: &mut Conn, from: Lsn, sub_term: u64) {
    let mut slot = None;
    if let Role::SemiSync(SemiSync { group: g, .. }) = &shared.config.role {
        if sub_term > g.term() {
            g.fence(sub_term);
        }
        if let Some(t) = g.fenced_by() {
            encode_response(&Response::Fenced { term: t }, &mut conn.outbox);
            conn.close_after_drain = true;
            return;
        }
        slot = Some(FollowerSlot { group: Arc::clone(g), id: g.register_follower() });
    }
    // Bytes already buffered behind the subscribe frame are ack frames.
    let acks = FrameCursor::from_bytes(conn.cursor.take_rest());
    conn.phase = Phase::Shipping(Ship { from, acks, slot });
}

/// One tick of a ship feed: drain follower acks into the group's ack table,
/// re-check fencing, then stage newly durable chunks (bounded per tick;
/// an undrained outbox is backpressure and defers shipping).
fn ship_tick(shared: &Arc<Shared>, conn: &mut Conn, ship: &mut Ship) {
    if conn.close_after_drain {
        return;
    }
    if conn.readable {
        match ship.acks.fill_from(&mut conn.stream) {
            Ok(n) if n > 0 => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            // The subscriber hung up (or errored): the feed is over.
            _ => {
                conn.closed = true;
                return;
            }
        }
    }
    loop {
        match ship.acks.next() {
            Ok(Some(Request::ReplAck { term, lsn })) => {
                if let Some(s) = &ship.slot {
                    s.group.note_ack(s.id, term, lsn);
                }
            }
            // Non-ack requests on a feed are a contract breach and close it.
            Ok(Some(_)) | Err(_) => {
                conn.closed = true;
                return;
            }
            Ok(None) => break,
        }
    }
    // Only a semi-sync primary registers its subscribers with a group.
    let group = ship.slot.as_ref().map(|s| &s.group);
    if let Some(t) = group.and_then(|g| g.fenced_by()) {
        encode_response(&Response::Fenced { term: t }, &mut conn.outbox);
        conn.close_after_drain = true;
        return;
    }
    if conn.outbox.len() > conn.out_pos {
        return;
    }
    let wal = shared.db.wal();
    let durable = wal.durable_lsn();
    if durable <= ship.from {
        return;
    }
    let Some((bytes, start)) = wal.durable_tail(ship.from) else {
        // The log was truncated past this subscriber's cursor; only a fresh
        // snapshot can help it. Closing the feed signals that.
        conn.closed = true;
        return;
    };
    if start != ship.from {
        conn.closed = true;
        return;
    }
    // The store may hold flushed bytes the durable watermark has not
    // published yet; never ship past what the WAL calls durable.
    let avail = ((durable - start) as usize).min(bytes.len());
    if avail == 0 {
        return;
    }
    let term = group.map_or(0, |g| g.term());
    let mut off = 0;
    let mut chunks = 0;
    while off < avail && chunks < MAX_SHIP_CHUNKS_PER_TICK {
        let n = (avail - off).min(SHIP_CHUNK);
        encode_response(
            &Response::LogChunk {
                term,
                start: start + off as u64,
                bytes: bytes[off..off + n].to_vec(),
            },
            &mut conn.outbox,
        );
        off += n;
        chunks += 1;
    }
    ship.from = start + off as u64;
}

/// Writes the outbox until done or `WouldBlock`, arming write interest only
/// while bytes remain so an idle session costs zero wakeups.
fn flush_outbox(poller: &Poller, conn: &mut Conn) {
    if conn.closed {
        return;
    }
    while conn.out_pos < conn.outbox.len() {
        match conn.stream.write(&conn.outbox[conn.out_pos..]) {
            Ok(0) => {
                conn.closed = true;
                return;
            }
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                conn.closed = true;
                return;
            }
        }
    }
    if conn.out_pos >= conn.outbox.len() {
        conn.outbox.clear();
        conn.out_pos = 0;
    }
    if conn.close_after_drain && conn.drained_for_close() {
        conn.closed = true;
        return;
    }
    let want = conn.outbox.len() > conn.out_pos;
    if want != conn.want_write {
        let interest = if want { Interest::BOTH } else { Interest::READABLE };
        if poller.modify(conn.fd, conn.token, interest).is_ok() {
            conn.want_write = want;
        }
    }
}

/// Runs one statement of the open interactive transaction. A statement that
/// fails aborts the transaction (2PL already released nothing early) and
/// reports the error; the session stays usable — the client may BEGIN again.
fn statement(
    conn: &mut Conn,
    run: impl FnOnce(&mut Txn) -> Result<Response, esdb_txn::TxnError>,
) -> Response {
    match conn.txn.as_mut().map(run) {
        None => Response::Error("no open transaction".into()),
        Some(Ok(resp)) => resp,
        Some(Err(e)) => {
            if let Some(txn) = conn.txn.take() {
                txn.abort();
            }
            Response::Error(format!("transaction aborted: {e}"))
        }
    }
}

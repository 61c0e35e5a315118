//! Event-driven TCP front-end over an [`esdb_core::Database`].
//!
//! The server runs **N per-core reactor threads**, not a thread per session.
//! Each accepted socket is sharded to one reactor by fd hash and lives there
//! for its whole life as a nonblocking state machine (see [`crate::reactor`]):
//! shared-nothing session state owned by exactly one reactor, an epoll-style
//! readiness loop (the vendored [`minipoll`] stub) instead of blocked reads,
//! and per-tick batching of the expensive shared work.
//!
//! Admission control is unchanged from the threaded design: a bounded global
//! session budget, and a connection beyond the cap gets a [`Response::Busy`]
//! greeting and a close, so overload surfaces as a structured retry signal
//! instead of unbounded queueing. The budget is a single atomic — reserved
//! *before* the greeting so two racing connections cannot both squeeze past
//! the cap — while the session state itself is per-reactor.
//!
//! Sessions are **pipelined**: each reactor tick drains every complete
//! request frame a socket has delivered and executes them as one batch.
//! One-shot transactions inside a batch commit via the engine's deferred
//! path (`run_spec_deferred`), and the *tick* pays a single WAL durability
//! wait ([`esdb_wal::Wal::flush_batch`]) covering the highest commit LSN of
//! every session that completed a batch this tick — group commit across
//! sessions, not just within one connection's pipeline.

use crate::protocol::{encode_response, Response, ServerStats};
use crate::reactor::{self, ReactorHandle};
use esdb_core::{Database, QuorumPolicy, ReplGroup};
use minipoll::{Poller, Waker};
use std::io::{ErrorKind, Write as IoWrite};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Where a participant server looks up a coordinator's verdict for an
/// in-doubt transaction ([`crate::protocol::Request::ShardStatus`]). The
/// closure returns the verdict that holds; for an undecided gtid the
/// coordinator takes abort (presumed abort) and never commits it afterwards.
#[derive(Clone)]
pub struct DecisionSource(pub Arc<dyn Fn(u64) -> bool + Send + Sync>);

impl std::fmt::Debug for DecisionSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("DecisionSource(..)")
    }
}

/// A sharded server's slot gate: the routing table it serves and the
/// ownership rule it admits transactional work by. `None` in the config is
/// an unsharded server, which owns every key and has no table to show.
pub trait SlotGate: Send + Sync {
    /// `(epoch, slot → shard map)`, the answer to a
    /// [`crate::protocol::Request::RoutingSnapshot`].
    fn routing(&self) -> (u64, Vec<u32>);

    /// Whether a transaction may touch `(table, key)` here: `None` admits
    /// it; `Some((epoch, hint))` refuses it with a typed
    /// [`crate::protocol::Response::WrongShard`] carrying this server's
    /// routing epoch and its best guess at the owning shard.
    fn refusal(&self, table: u32, key: u64) -> Option<(u64, u32)>;
}

impl std::fmt::Debug for dyn SlotGate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SlotGate(..)")
    }
}

/// What a server is in its replication topology. Each variant carries
/// everything its behaviour needs, so there is no half-configured role: a
/// quorum always has its group, a follower always has its apply gate.
#[derive(Debug, Clone, Default)]
pub enum Role {
    /// Commits acknowledge at local durability, a subscriber is shipped the
    /// log at term 0, every read is trivially fresh, and
    /// [`crate::protocol::Request::Query`] is refused: queries are served by
    /// followers, whose heap has a consistent-cut pin.
    #[default]
    Primary,
    /// A primary whose commit acknowledgements also wait for a follower
    /// quorum.
    SemiSync(SemiSync),
    /// A replica serving token-gated reads and pinned queries.
    Follower(Follower),
}

/// A semi-sync primary's replication state.
#[derive(Debug, Clone)]
pub struct SemiSync {
    /// Term, follower acks, fencing. The ship path runs the term handshake
    /// against it and feeds follower acks into it.
    pub group: Arc<ReplGroup>,
    /// A commit acknowledgement waits until `k` followers have acked
    /// durability at the commit LSN, degrading to a typed
    /// [`Response::QuorumTimeout`] when the bound expires. The wait is a
    /// *parked session state*, not a blocked thread: the reactor keeps
    /// draining follower acks (possibly on the very same reactor) while the
    /// committing session waits, so quorum can never deadlock the server.
    pub policy: QuorumPolicy,
}

/// A follower's view of its apply loop.
#[derive(Debug, Clone)]
pub struct Follower {
    /// The apply loop's durable frontier. A
    /// [`crate::protocol::Request::ReadAt`] or
    /// [`crate::protocol::Request::Query`] waits (up to
    /// [`Follower::read_at_wait`]) for it to reach the request's token.
    pub applied: Arc<AtomicU64>,
    /// The feed thread's liveness. While it is `false`, a request the
    /// frontier cannot satisfy answers [`Response::Lagging`] at once instead
    /// of burning the full wait: the frontier is not going to move.
    pub feed_live: Arc<AtomicBool>,
    /// The snapshot pin. The apply loop holds the write side while it
    /// applies a batch of redo; a query runs its whole plan under the read
    /// side, so it sees the heap only between apply batches, and since
    /// [`Follower::applied`] advances only at transaction-consistent cuts,
    /// never a torn transaction.
    pub gate: Arc<parking_lot::RwLock<()>>,
    /// How long a token-gated request may wait for the frontier before the
    /// server gives up with [`Response::Lagging`]. The session parks; its
    /// reactor keeps serving everyone else.
    pub read_at_wait: Duration,
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum concurrently admitted sessions; connection `max_sessions + 1`
    /// is shed with [`Response::Busy`]. The budget is global across all
    /// reactors.
    pub max_sessions: usize,
    /// Reactor threads serving sessions. Accepted sockets are sharded across
    /// reactors by fd hash; each session's state is owned by one reactor for
    /// its whole life. Defaults to the host's available parallelism, capped
    /// at 4 — reactors are I/O multiplexers, not compute workers, and a few
    /// go a long way.
    pub reactors: usize,
    /// Upper bound on a reactor tick: how long the readiness wait may block
    /// when nothing is happening. Parked sessions (quorum/freshness waits,
    /// log shipping) shorten the effective tick to ~1ms.
    pub poll_interval: Duration,
    /// Participant-side 2PC recovery oracle: answers
    /// [`crate::protocol::Request::ShardStatus`] from the coordinator's
    /// decision log. `None` on servers that never act as 2PC participants
    /// (status queries then return an error).
    pub decision_source: Option<DecisionSource>,
    /// Stalled-peer budget: a session whose peer has sent part of a frame
    /// and then gone quiet for this long is closed with a typed
    /// [`crate::protocol::FrameError::Timeout`] error frame instead of
    /// holding its session slot forever. `None` keeps the historic
    /// wait-forever behavior.
    pub stall_timeout: Option<Duration>,
    /// Primary, semi-sync primary or follower.
    pub role: Role,
    /// The routing table and slot-ownership rule of a sharded server; see
    /// [`SlotGate`].
    pub slot_gate: Option<Arc<dyn SlotGate>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_sessions: 64,
            reactors: default_reactors(),
            poll_interval: Duration::from_millis(20),
            decision_source: None,
            stall_timeout: None,
            role: Role::Primary,
            slot_gate: None,
        }
    }
}

fn default_reactors() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 4)
}

#[derive(Default)]
pub(crate) struct Counters {
    pub(crate) accepted: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) active: AtomicU64,
    pub(crate) txns_executed: AtomicU64,
    pub(crate) txns_committed: AtomicU64,
    pub(crate) batches: AtomicU64,
}

pub(crate) struct Shared {
    pub(crate) db: Arc<Database>,
    pub(crate) config: ServerConfig,
    pub(crate) shutdown: AtomicBool,
    pub(crate) counters: Counters,
}

impl Shared {
    pub(crate) fn stats(&self) -> ServerStats {
        ServerStats {
            engine: self.db.stats_snapshot(),
            sessions_accepted: self.counters.accepted.load(Ordering::Relaxed),
            sessions_shed: self.counters.shed.load(Ordering::Relaxed),
            sessions_active: self.counters.active.load(Ordering::Relaxed),
            txns_executed: self.counters.txns_executed.load(Ordering::Relaxed),
            txns_committed: self.counters.txns_committed.load(Ordering::Relaxed),
            batches: self.counters.batches.load(Ordering::Relaxed),
        }
    }
}

/// A running server. Dropping it performs a graceful shutdown.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    reactors: Vec<JoinHandle<()>>,
    handles: Arc<Vec<Arc<ReactorHandle>>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port), spawns the reactor
    /// threads, and starts accepting.
    pub fn start(
        db: Arc<Database>,
        addr: &str,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        // Non-blocking accept so the loop can observe the shutdown flag.
        listener.set_nonblocking(true)?;
        let n = config.reactors.max(1);
        let shared = Arc::new(Shared {
            db,
            config,
            shutdown: AtomicBool::new(false),
            counters: Counters::default(),
        });
        // Build every poller/waker pair before spawning anything so the
        // acceptor sees a complete routing table from its first connection.
        let mut parts = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for _ in 0..n {
            let poller = Poller::new()?;
            let waker = Waker::new(&poller, reactor::WAKER_TOKEN)?;
            let handle = Arc::new(ReactorHandle::new(waker.handle()?));
            handles.push(Arc::clone(&handle));
            parts.push((poller, waker, handle));
        }
        let handles = Arc::new(handles);
        let reactors = parts
            .into_iter()
            .enumerate()
            .map(|(id, (poller, waker, handle))| {
                let shared = Arc::clone(&shared);
                let peers = Arc::clone(&handles);
                std::thread::spawn(move || {
                    reactor::run(id, shared, poller, waker, handle, peers)
                })
            })
            .collect();
        let acceptor = {
            let shared = Arc::clone(&shared);
            let handles = Arc::clone(&handles);
            std::thread::spawn(move || accept_loop(&listener, &shared, &handles))
        };
        Ok(Server {
            shared,
            addr: local,
            acceptor: Some(acceptor),
            reactors,
            handles,
        })
    }

    /// The bound address (the actual port when started with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current server-side counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// Graceful shutdown: stop accepting, let every reactor drain what its
    /// sessions have already sent (finishing in-flight pipelined batches),
    /// join all threads, then force the WAL durable to its end so committed
    /// work survives a subsequent crash/restart.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // Reactors may be parked in a poll wait; ring every doorbell.
        for handle in self.handles.iter() {
            handle.wake();
        }
        for h in std::mem::take(&mut self.reactors) {
            let _ = h.join();
        }
        let wal = self.shared.db.wal();
        wal.wait_durable(wal.current_lsn());
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.shared.shutdown.load(Ordering::SeqCst) {
            self.shutdown_inner();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    handles: &Arc<Vec<Arc<ReactorHandle>>>,
) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => admit(stream, shared, handles),
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(shared.config.poll_interval);
            }
            Err(_) => std::thread::sleep(shared.config.poll_interval),
        }
    }
}

/// Admission control: greet with Hello and hand the socket to a reactor, or
/// shed with Busy and close. The session slot is reserved *before* the
/// greeting so two racing connections cannot both squeeze past the cap.
fn admit(mut stream: TcpStream, shared: &Arc<Shared>, handles: &Arc<Vec<Arc<ReactorHandle>>>) {
    let _ = stream.set_nodelay(true);
    let cap = shared.config.max_sessions as u64;
    let admitted = shared
        .counters
        .active
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
            (n < cap).then_some(n + 1)
        })
        .is_ok();
    let mut greeting = Vec::new();
    if !admitted {
        shared.counters.shed.fetch_add(1, Ordering::Relaxed);
        encode_response(&Response::Busy, &mut greeting);
        let _ = stream.write_all(&greeting);
        // Dropping the stream closes the connection: shedding is one frame
        // and a close, never a hang.
        return;
    }
    shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
    encode_response(&Response::Hello, &mut greeting);
    if stream.write_all(&greeting).is_err() || stream.set_nonblocking(true).is_err() {
        shared.counters.active.fetch_sub(1, Ordering::SeqCst);
        return;
    }
    // Shard by fd hash: cheap, stable for the socket's lifetime, and evenly
    // spread (fds are densely allocated). The session never migrates.
    let idx = reactor::raw_fd(&stream) as usize % handles.len();
    handles[idx].inject(stream);
}

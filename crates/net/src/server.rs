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

/// Where a participant server looks up a coordinator's durable verdict for
/// an in-doubt transaction ([`crate::protocol::Request::ShardStatus`]). The
/// closure returns `Some(commit)` when the coordinator logged a decision and
/// `None` when it never did — which, under presumed abort, the server
/// reports as an abort.
#[derive(Clone)]
pub struct DecisionSource(pub Arc<dyn Fn(u64) -> Option<bool> + Send + Sync>);

impl std::fmt::Debug for DecisionSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("DecisionSource(..)")
    }
}

/// Where the server reads its current routing table when answering a
/// [`crate::protocol::Request::RoutingSnapshot`]: the closure returns
/// `(epoch, slot → shard map)`. Servers without one answer a typed error —
/// routing observation is a sharded-deployment feature.
#[derive(Clone)]
pub struct RoutingSource(pub Arc<dyn Fn() -> (u64, Vec<u32>) + Send + Sync>);

impl std::fmt::Debug for RoutingSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("RoutingSource(..)")
    }
}

/// Slot-ownership gate for rebalancing. Called with every `(table, key)` a
/// transactional request touches: `None` means this server owns the key's
/// slot and the request proceeds; `Some((epoch, hint))` means it does not —
/// the request is refused with a typed
/// [`crate::protocol::Response::WrongShard`] carrying the server's routing
/// epoch and its best guess at the owning shard. `None` in the config means
/// the server owns everything (an unsharded deployment).
#[derive(Clone)]
pub struct OwnershipCheck(pub Arc<dyn Fn(u32, u64) -> Option<(u64, u32)> + Send + Sync>);

impl std::fmt::Debug for OwnershipCheck {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("OwnershipCheck(..)")
    }
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
    /// Replica-side only: the apply loop's durable frontier. When set,
    /// [`crate::protocol::Request::ReadAt`] waits (up to
    /// [`ServerConfig::read_at_wait`]) for the frontier to reach the
    /// request's token before reading; when `None` (a primary), every read
    /// is trivially fresh.
    pub applied_watermark: Option<Arc<AtomicU64>>,
    /// How long a [`crate::protocol::Request::ReadAt`] may wait for the
    /// apply frontier before the server gives up with [`Response::Lagging`].
    /// The session parks; its reactor keeps serving everyone else.
    pub read_at_wait: Duration,
    /// Participant-side 2PC recovery oracle: answers
    /// [`crate::protocol::Request::ShardStatus`] from the coordinator's
    /// decision log. `None` on servers that never act as 2PC participants
    /// (status queries then return an error).
    pub decision_source: Option<DecisionSource>,
    /// Primary-side replication group: term, follower acks, fencing. Set on
    /// servers that ship log to subscribers; the ship path consults it for
    /// the term handshake and feeds follower acks into it.
    pub repl_group: Option<Arc<ReplGroup>>,
    /// Semi-sync commit mode: when set (and `repl_group` is too), a commit
    /// acknowledgment additionally waits until `k` followers have acked
    /// durability at the commit LSN, degrading to a typed
    /// [`Response::QuorumTimeout`] when the bound expires. The wait is a
    /// *parked session state*, not a blocked thread: the reactor keeps
    /// draining follower acks (possibly on the very same reactor) while the
    /// committing session waits, so quorum can never deadlock the server.
    pub quorum: Option<QuorumPolicy>,
    /// Replica-side only: the feed thread's liveness flag. When the feed is
    /// dead (`false`), a [`crate::protocol::Request::ReadAt`] the frontier
    /// cannot satisfy answers [`Response::Lagging`] immediately instead of
    /// burning the full [`ServerConfig::read_at_wait`] — the frontier is not
    /// going to move.
    pub feed_live: Option<Arc<AtomicBool>>,
    /// Replica-side only: the replica's snapshot pin. The apply loop holds
    /// the write side while it applies a batch of redo; a
    /// [`crate::protocol::Request::Query`] executes its whole plan under the
    /// read side, so it observes the heap only between apply batches — and
    /// since the paired [`ServerConfig::applied_watermark`] advances only at
    /// transaction-consistent cuts, a pinned plan can never see a torn
    /// transaction. `None` (with a watermark set) degrades queries to
    /// unpinned reads; both `None` on a primary.
    pub apply_gate: Option<Arc<parking_lot::RwLock<()>>>,
    /// Stalled-peer budget: a session whose peer has sent part of a frame
    /// and then gone quiet for this long is closed with a typed
    /// [`crate::protocol::FrameError::Timeout`] error frame instead of
    /// holding its session slot forever. `None` keeps the historic
    /// wait-forever behavior.
    pub stall_timeout: Option<Duration>,
    /// Routing-table observation source, answering
    /// [`crate::protocol::Request::RoutingSnapshot`]. `None` on unsharded
    /// servers (the request then returns a typed error).
    pub routing_source: Option<RoutingSource>,
    /// Rebalancing ownership gate consulted before transactional work; see
    /// [`OwnershipCheck`]. `None` means the server owns every slot.
    pub ownership_check: Option<OwnershipCheck>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_sessions: 64,
            reactors: default_reactors(),
            poll_interval: Duration::from_millis(20),
            applied_watermark: None,
            read_at_wait: Duration::from_millis(500),
            decision_source: None,
            repl_group: None,
            quorum: None,
            feed_live: None,
            apply_gate: None,
            stall_timeout: None,
            routing_source: None,
            ownership_check: None,
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

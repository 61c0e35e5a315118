//! Client library and multi-connection load generator.

use crate::protocol::{encode_request, encode_spec, FrameError, Request, Response, ServerStats};
use crate::reactor::FrameCursor;
use esdb_core::spec_exec::SpecOutcome;
use esdb_core::WorkloadReport;
use esdb_workload::{TxnSpec, Workload, WorkloadOp};
use std::io::Write as IoWrite;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Client-side errors.
#[derive(Debug)]
pub enum NetError {
    /// Socket failure.
    Io(std::io::Error),
    /// The server shed this connection at admission ([`Response::Busy`]);
    /// retry after a backoff.
    ServerBusy,
    /// The peer broke the wire protocol.
    Protocol(FrameError),
    /// The server answered with an unexpected message for the request sent.
    Unexpected(&'static str),
    /// A structured server-side error response.
    Server(String),
    /// The commit is durable on the primary but its semi-sync quorum wait
    /// timed out: fewer than `needed` followers acked durability at `lsn`.
    QuorumTimeout {
        /// The commit LSN that was waiting for acks.
        lsn: u64,
        /// Follower acks in hand when the wait gave up.
        acked: u32,
        /// Acks the quorum policy required.
        needed: u32,
    },
    /// The server has been superseded by a higher replication term and
    /// refused the operation.
    Fenced {
        /// The higher term that fenced the server.
        term: u64,
    },
    /// The server does not own the slot the request touched — the caller's
    /// routing table is stale. Carries the server's routing epoch and its
    /// hint at the owning shard so routers can refresh and retry.
    WrongShard {
        /// The server's current routing epoch.
        epoch: u64,
        /// The shard the server believes owns the touched slot.
        hint: u32,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io: {e}"),
            NetError::ServerBusy => write!(f, "server at session capacity, retry later"),
            NetError::Protocol(e) => write!(f, "protocol: {e}"),
            NetError::Unexpected(what) => write!(f, "unexpected response (wanted {what})"),
            NetError::Server(msg) => write!(f, "server error: {msg}"),
            NetError::QuorumTimeout { lsn, acked, needed } => {
                write!(f, "quorum timeout at lsn {lsn}: {acked}/{needed} follower acks")
            }
            NetError::Fenced { term } => write!(f, "server fenced by higher term {term}"),
            NetError::WrongShard { epoch, hint } => {
                write!(f, "wrong shard (routing epoch {epoch}, owner hint shard {hint})")
            }
        }
    }
}

impl NetError {
    /// `true` for errors worth retrying the connection over: admission sheds
    /// and the I/O failures a restarting or draining server produces.
    /// Replication runners use this to decide between reconnecting and
    /// halting with a typed error.
    pub fn is_reconnectable(&self) -> bool {
        match self {
            NetError::ServerBusy => true,
            NetError::Io(io) => matches!(
                io.kind(),
                std::io::ErrorKind::ConnectionRefused
                    | std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::ConnectionAborted
                    | std::io::ErrorKind::BrokenPipe
                    | std::io::ErrorKind::UnexpectedEof
            ),
            _ => false,
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> Self {
        NetError::Protocol(e)
    }
}

/// Backoff plan for [`Client::connect_with_backoff`].
#[derive(Debug, Clone)]
pub struct ReconnectPolicy {
    /// Total connection attempts before giving up (≥ 1).
    pub attempts: usize,
    /// Delay after the first failed attempt; doubles per retry.
    pub base: Duration,
    /// Upper bound on any single delay.
    pub cap: Duration,
    /// Seed for the jitter stream (deterministic per client).
    pub seed: u64,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            attempts: 8,
            base: Duration::from_millis(2),
            cap: Duration::from_millis(250),
            seed: 1,
        }
    }
}

impl ReconnectPolicy {
    /// Delay before retry number `attempt` (zero-based): exponential, capped,
    /// with uniform jitter in `[half, full]` so a herd of shed clients does
    /// not reconnect in lockstep.
    fn delay(&self, attempt: u32, rng: &mut esdb_workload::Rng) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.cap)
            .max(Duration::from_micros(1));
        let full = exp.as_micros() as u64;
        Duration::from_micros(rng.range(full / 2, full))
    }
}

/// A checkpoint-consistent page snapshot fetched from a primary — a
/// replica's bootstrap image (see [`Client::fetch_snapshot`]).
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Where the replica's log apply must begin.
    pub start_lsn: u64,
    /// Per table: id, name, arity, heap page ids in heap order.
    pub catalog: Vec<(u32, String, u32, Vec<u64>)>,
    /// Secondary index declarations, flattened: `(table_id, index_id, name,
    /// column, kind)` — kind as in `esdb_storage::IndexKind::as_u8`. Only
    /// declarations ship; the replica rebuilds contents from the heap.
    pub indexes: Vec<(u32, u32, String, u32, u8)>,
    /// `(page_id, raw page bytes)` for every heap page in the catalog.
    pub pages: Vec<(u64, Vec<u8>)>,
}

impl Snapshot {
    /// Takes a checkpoint on `db` and packages its catalog and the flushed
    /// pages — the one snapshot producer, behind the wire `ReplSnapshot`
    /// exchange and every in-process bootstrap alike. Pages may be dirtied
    /// again while they are read; that is the *fuzzy* part, and a page
    /// newer than the checkpoint only makes the follower's page-LSN gated
    /// redo skip records it already holds.
    pub fn take(db: &esdb_core::Database) -> Result<Snapshot, esdb_core::DbError> {
        let start_lsn = db.checkpoint()?;
        let tables = db.catalog();
        let mut page = esdb_storage::page::Page::new();
        let mut pages = Vec::new();
        for &pid in tables.iter().flat_map(|t| &t.pages) {
            db.disk().read(pid, &mut page)?;
            pages.push((pid, page.as_bytes().to_vec()));
        }
        Ok(Snapshot::of(start_lsn, &tables, pages))
    }

    /// A snapshot of `tables` in wire shape: index declarations only, since
    /// index contents are derived state the follower rebuilds.
    pub fn of(start_lsn: u64, tables: &[esdb_core::TableImage], pages: Vec<(u64, Vec<u8>)>) -> Snapshot {
        Snapshot {
            start_lsn,
            catalog: tables
                .iter()
                .map(|t| (t.schema.id, t.schema.name.clone(), t.schema.arity as u32, t.pages.clone()))
                .collect(),
            indexes: tables
                .iter()
                .flat_map(|t| {
                    t.schema.indexes.iter().map(|d| (t.schema.id, d.id, d.name.clone(), d.col as u32, d.kind.as_u8()))
                })
                .collect(),
            pages,
        }
    }

    /// The frames that ship this snapshot, in order: a
    /// [`Response::SnapBegin`], a [`Response::SnapPage`] per page (its
    /// buffer moved, not copied) and a closing [`Response::SnapEnd`] —
    /// what [`Client::fetch_snapshot`] reassembles.
    pub(crate) fn into_frames(self) -> impl Iterator<Item = Response> {
        let Snapshot { start_lsn, catalog, indexes, pages } = self;
        let page_count = pages.len() as u64;
        std::iter::once(Response::SnapBegin { start_lsn, catalog, indexes })
            .chain(pages.into_iter().map(|(page_id, bytes)| Response::SnapPage { page_id, bytes }))
            .chain(std::iter::once(Response::SnapEnd { page_count }))
    }
}

/// How a socket read or write that outlived its timeout reports it (which of
/// the two kinds is platform-dependent).
fn timed_out(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

/// A connection to an esdb server.
pub struct Client {
    stream: TcpStream,
    /// Receive buffer: the same cursor a server session reads through,
    /// popping responses instead of requests.
    inbox: FrameCursor<Response>,
    /// Encode scratch: requests are framed here, written out, and the
    /// buffer kept for the next call.
    outbox: Vec<u8>,
    /// When set, a socket read/write that stalls past the timeout surfaces
    /// as the typed [`FrameError::Timeout`] instead of a raw I/O error (see
    /// [`Client::set_op_timeout`]).
    op_timeout: Option<Duration>,
    /// `Ok` answers still on their way to posted requests (see
    /// [`Client::shard_decide`]). The connection is FIFO, so they sit ahead
    /// of the next call's own answer and [`Client::recv`] consumes them
    /// first.
    owed: usize,
    /// An owed answer was not `Ok`: which response belongs to which request
    /// can no longer be known, so every later call fails typed instead of
    /// handing a caller somebody else's answer.
    poisoned: bool,
}

/// What every call on a poisoned [`Client`] answers.
const POISONED: NetError = NetError::Unexpected("ok for a posted verdict");

impl Client {
    /// Connects and consumes the admission greeting. Returns
    /// [`NetError::ServerBusy`] when the server sheds the connection.
    pub fn connect(addr: SocketAddr) -> Result<Client, NetError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut client = Client {
            stream,
            inbox: FrameCursor::new(),
            outbox: Vec::new(),
            op_timeout: None,
            owed: 0,
            poisoned: false,
        };
        match client.recv()? {
            Response::Hello => Ok(client),
            Response::Busy => Err(NetError::ServerBusy),
            _ => Err(NetError::Unexpected("greeting")),
        }
    }

    /// Connects with bounded, jittered exponential backoff, retrying both
    /// [`NetError::ServerBusy`] sheds and transient connection failures
    /// (refused / reset / aborted / broken pipe / eof) — the errors a client
    /// sees while a server restarts or drains. Protocol errors and other I/O
    /// failures surface immediately.
    pub fn connect_with_backoff(
        addr: SocketAddr,
        policy: &ReconnectPolicy,
    ) -> Result<Client, NetError> {
        let mut rng = esdb_workload::Rng::new(policy.seed);
        let mut last = NetError::ServerBusy;
        for attempt in 0..policy.attempts.max(1) {
            match Client::connect(addr) {
                Ok(c) => return Ok(c),
                Err(e) if attempt + 1 < policy.attempts.max(1) && e.is_reconnectable() => {
                    last = e;
                    std::thread::sleep(policy.delay(attempt as u32, &mut rng));
                }
                Err(e) if e.is_reconnectable() => last = e,
                Err(e) => return Err(e),
            }
        }
        Err(last)
    }

    fn send(&mut self, req: &Request) -> Result<(), NetError> {
        encode_request(req, &mut self.outbox);
        self.flush_outbox()
    }

    /// Writes out the frames staged in the outbox. Every request leaves
    /// through here, so a stalled write is the typed timeout on every call.
    fn flush_outbox(&mut self) -> Result<(), NetError> {
        let written = if self.poisoned {
            Err(POISONED)
        } else {
            self.stream.write_all(&self.outbox).map_err(|e| self.stall_error(e))
        };
        self.outbox.clear();
        written
    }

    /// Maps a socket stall into the typed timeout when an op timeout is
    /// armed; every other I/O failure passes through untouched.
    fn stall_error(&self, e: std::io::Error) -> NetError {
        if self.op_timeout.is_some() && timed_out(&e) {
            NetError::Protocol(FrameError::Timeout)
        } else {
            NetError::Io(e)
        }
    }

    /// Reads the next response frame off the socket (blocking), whoever it
    /// answers.
    fn next_frame(&mut self) -> Result<Response, NetError> {
        loop {
            if let Some(resp) = self.inbox.next()? {
                return Ok(resp);
            }
            let n = self.inbox.fill_from(&mut self.stream).map_err(|e| self.stall_error(e))?;
            if n == 0 {
                return Err(NetError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                )));
            }
        }
    }

    /// Waits out every answer still owed to a posted request: when this
    /// returns `Ok`, the server has executed everything this client ever
    /// posted. An I/O failure leaves the count as it stands (a retry picks up
    /// where this stopped); an owed answer other than `Ok` poisons the
    /// client.
    pub fn settle(&mut self) -> Result<(), NetError> {
        if self.poisoned {
            return Err(POISONED);
        }
        while self.owed > 0 {
            match self.next_frame()? {
                Response::Ok => self.owed -= 1,
                _ => {
                    self.poisoned = true;
                    return Err(POISONED);
                }
            }
        }
        Ok(())
    }

    /// Reads this call's own answer (blocking), past whatever is owed to
    /// earlier posted requests. The answers any request can get in place of
    /// its own — a server error and the typed degradations — become their
    /// [`NetError`]s here, once, so every caller matches only the variant it
    /// asked for.
    fn recv(&mut self) -> Result<Response, NetError> {
        self.settle()?;
        match self.next_frame()? {
            Response::Error(msg) => Err(NetError::Server(msg)),
            Response::Fenced { term } => Err(NetError::Fenced { term }),
            Response::QuorumTimeout { lsn, acked, needed } => {
                Err(NetError::QuorumTimeout { lsn, acked, needed })
            }
            Response::WrongShard { epoch, hint } => Err(NetError::WrongShard { epoch, hint }),
            resp => Ok(resp),
        }
    }

    /// One request, one answer: the path every request/response method
    /// takes.
    fn call(&mut self, req: &Request) -> Result<Response, NetError> {
        self.send(req)?;
        self.recv()
    }

    /// [`Client::call`] for the requests acknowledged with a bare `Ok`.
    fn call_ok(&mut self, req: &Request) -> Result<(), NetError> {
        match self.call(req)? {
            Response::Ok => Ok(()),
            _ => Err(NetError::Unexpected("ok")),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), NetError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            _ => Err(NetError::Unexpected("pong")),
        }
    }

    /// Engine + server counters.
    pub fn stats(&mut self) -> Result<ServerStats, NetError> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            _ => Err(NetError::Unexpected("stats")),
        }
    }

    /// Full observability snapshot: counters plus the server's wait
    /// breakdown and per-component latency histograms.
    pub fn obs_stats(&mut self) -> Result<esdb_core::ObsSnapshot, NetError> {
        match self.call(&Request::ObsStats)? {
            Response::ObsStats(snap) => Ok(*snap),
            _ => Err(NetError::Unexpected("obs stats")),
        }
    }

    /// Executes one one-shot transaction and waits for its outcome. The
    /// acknowledgment implies the commit is durable on the server.
    pub fn one_shot(&mut self, spec: &TxnSpec) -> Result<SpecOutcome, NetError> {
        encode_spec(spec, &mut self.outbox);
        self.flush_outbox()?;
        self.read_outcome()
    }

    /// Pipelines a batch of one-shot transactions: all requests are written
    /// before any response is read, so the server can commit the whole batch
    /// under a single WAL flush. Outcomes come back in submission order.
    pub fn run_pipelined(&mut self, specs: &[TxnSpec]) -> Result<Vec<SpecOutcome>, NetError> {
        for spec in specs {
            encode_spec(spec, &mut self.outbox);
        }
        self.flush_outbox()?;
        let mut outcomes = Vec::with_capacity(specs.len());
        for _ in specs {
            outcomes.push(self.read_outcome()?);
        }
        Ok(outcomes)
    }

    fn read_outcome(&mut self) -> Result<SpecOutcome, NetError> {
        match self.recv()? {
            Response::Outcome(outcome) => Ok(outcome),
            _ => Err(NetError::Unexpected("outcome")),
        }
    }

    /// Opens an interactive transaction on this session.
    pub fn begin(&mut self) -> Result<(), NetError> {
        self.call_ok(&Request::Begin)
    }

    /// Reads a row inside the open transaction.
    pub fn read(&mut self, table: u32, key: u64) -> Result<Vec<i64>, NetError> {
        match self.call(&Request::Read { table, key })? {
            Response::Row(row) => Ok(row),
            _ => Err(NetError::Unexpected("row")),
        }
    }

    /// Overwrites a row inside the open transaction.
    pub fn update(&mut self, table: u32, key: u64, row: Vec<i64>) -> Result<(), NetError> {
        self.call_ok(&Request::Update { table, key, row })
    }

    /// Inserts a row inside the open transaction.
    pub fn insert(&mut self, table: u32, key: u64, row: Vec<i64>) -> Result<(), NetError> {
        self.call_ok(&Request::Insert { table, key, row })
    }

    /// Commits the open transaction; returns once the commit is durable.
    pub fn commit(&mut self) -> Result<(), NetError> {
        self.call_ok(&Request::Commit)
    }

    /// Aborts the open transaction.
    pub fn abort(&mut self) -> Result<(), NetError> {
        self.call_ok(&Request::Abort)
    }

    /// Sets the socket read timeout; `recv` surfaces expiry as
    /// [`NetError::Io`] with `WouldBlock`/`TimedOut`. Used by replication
    /// loops that must interleave chunk waits with shutdown checks.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<(), NetError> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    /// Arms a per-operation socket timeout on both directions of the
    /// connection. A peer that stalls mid-response (or stops draining our
    /// writes) past the bound surfaces as the typed
    /// [`NetError::Protocol`]\([`FrameError::Timeout`]\) instead of hanging
    /// the caller or leaking a raw I/O error. `None` disarms it.
    ///
    /// Distinct from [`Client::set_read_timeout`], whose expiry is a polling
    /// signal ([`Client::try_next_chunk`] turns it into `Ok(None)`); an op
    /// timeout is a hard failure of the request in flight.
    pub fn set_op_timeout(&mut self, timeout: Option<Duration>) -> Result<(), NetError> {
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)?;
        self.op_timeout = timeout;
        Ok(())
    }

    /// Fetches a checkpoint-consistent page snapshot from the primary: the
    /// replica's bootstrap image plus the LSN its log apply must start at.
    pub fn fetch_snapshot(&mut self) -> Result<Snapshot, NetError> {
        let Response::SnapBegin { start_lsn, catalog, indexes } =
            self.call(&Request::ReplSnapshot)?
        else {
            return Err(NetError::Unexpected("snap begin"));
        };
        let mut pages = Vec::new();
        loop {
            match self.recv()? {
                Response::SnapPage { page_id, bytes } => pages.push((page_id, bytes)),
                Response::SnapEnd { page_count } => {
                    if page_count != pages.len() as u64 {
                        return Err(NetError::Unexpected("snapshot page count"));
                    }
                    return Ok(Snapshot { start_lsn, catalog, indexes, pages });
                }
                _ => return Err(NetError::Unexpected("snap page")),
            }
        }
    }

    /// Flips this session into a log feed starting at `from`, announcing the
    /// highest replication term this subscriber has observed. A primary
    /// running at a lower term fences itself and answers
    /// [`NetError::Fenced`] on the next chunk read. After this the server
    /// reads only [`Client::send_ack`] frames on this session; everything
    /// else arriving server-bound closes the feed.
    pub fn subscribe(&mut self, from: u64, term: u64) -> Result<(), NetError> {
        self.send(&Request::ReplSubscribe { from, term })
    }

    /// Reports durable replication progress up the subscribe feed: this
    /// follower has `lsn` bytes of the primary's stream durable, speaking at
    /// `term`. Feeds the primary's semi-sync quorum accounting; an ack
    /// stamped with a higher term fences the primary.
    pub fn send_ack(&mut self, term: u64, lsn: u64) -> Result<(), NetError> {
        self.send(&Request::ReplAck { term, lsn })
    }

    /// Blocks for the next shipped log span `(term, start_lsn, bytes)`.
    /// `term` is the primary's replication term for the span; a fenced
    /// primary answers [`NetError::Fenced`] instead of shipping, and one
    /// that reclaimed the log past the feed's cursor [`NetError::Server`].
    pub fn next_chunk(&mut self) -> Result<(u64, u64, Vec<u8>), NetError> {
        match self.recv()? {
            Response::LogChunk { term, start, bytes } => Ok((term, start, bytes)),
            _ => Err(NetError::Unexpected("log chunk")),
        }
    }

    /// Like [`Client::next_chunk`] but a read-timeout expiry (see
    /// [`Client::set_read_timeout`]) returns `Ok(None)` instead of an error,
    /// so an apply loop can poll its shutdown flag between chunks.
    pub fn try_next_chunk(&mut self) -> Result<Option<(u64, u64, Vec<u8>)>, NetError> {
        match self.next_chunk() {
            Ok(chunk) => Ok(Some(chunk)),
            Err(NetError::Io(e)) if timed_out(&e) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Read-your-writes token: the primary's durable LSN right now. Commits
    /// acknowledged on this session are covered by the returned token.
    pub fn commit_token(&mut self) -> Result<u64, NetError> {
        match self.call(&Request::CommitToken)? {
            Response::Token { lsn } => Ok(lsn),
            _ => Err(NetError::Unexpected("token")),
        }
    }

    /// Follower read gated on a token. `Ok(Ok(row))` once the replica has
    /// applied past `min_lsn`; `Ok(Err(applied))` if it is still lagging at
    /// `applied` when its wait budget runs out.
    pub fn read_at(
        &mut self,
        table: u32,
        key: u64,
        min_lsn: u64,
    ) -> Result<Result<Vec<i64>, u64>, NetError> {
        match self.call(&Request::ReadAt { table, key, min_lsn })? {
            Response::Row(row) => Ok(Ok(row)),
            Response::Lagging { applied } => Ok(Err(applied)),
            _ => Err(NetError::Unexpected("row or lagging")),
        }
    }

    /// Follower OLAP query gated on a token: execute `plan` at a
    /// commit-consistent snapshot no older than `min_lsn` (0 = no freshness
    /// requirement). `Ok(Ok(rows))` once the replica has applied past
    /// `min_lsn`; `Ok(Err(applied))` if it is still lagging at `applied`
    /// when its wait budget runs out. Invalid plans (unknown table or index
    /// id, out-of-range column) surface as [`NetError::Server`], as does
    /// sending a query to a primary.
    pub fn query_at(
        &mut self,
        min_lsn: u64,
        plan: &crate::protocol::WirePlan,
    ) -> Result<Result<Vec<Vec<i64>>, u64>, NetError> {
        match self.call(&Request::Query { min_lsn, plan: plan.clone() })? {
            Response::Rows(rows) => Ok(Ok(rows)),
            Response::Lagging { applied } => Ok(Err(applied)),
            _ => Err(NetError::Unexpected("rows or lagging")),
        }
    }

    /// 2PC phase one against a participant shard: execute `ops`, force the
    /// Prepare record, and return the shard's vote. A committed outcome means
    /// the shard holds its locks awaiting [`Client::shard_decide`].
    pub fn shard_prepare(
        &mut self,
        gtid: u64,
        ops: Vec<WorkloadOp>,
    ) -> Result<SpecOutcome, NetError> {
        match self.call(&Request::ShardPrepare { gtid, ops })? {
            Response::ShardVote { gtid: g, outcome } if g == gtid => Ok(outcome),
            _ => Err(NetError::Unexpected("shard vote")),
        }
    }

    /// 2PC phase two: *posts* the coordinator's decision for `gtid` — the
    /// frame is written at once and this returns without waiting for the
    /// shard's `Ok`, which the next call on this client (or
    /// [`Client::settle`]) consumes ahead of its own answer. Nothing is
    /// parked client-side: how long the participant holds its locks must not
    /// depend on when the caller next has something to say.
    ///
    /// `Ok` therefore means *on its way*, not *applied*. The connection is
    /// FIFO and the server executes a session's frames in order, so every
    /// later request on this client finds the verdict applied; if the
    /// connection dies first, the gtid stays in the shard's in-doubt set
    /// ([`Client::shard_in_doubt`]) and the in-doubt protocol delivers the
    /// verdict. Safe to repeat — deciding an unknown gtid is acknowledged
    /// without effect.
    pub fn shard_decide(&mut self, gtid: u64, commit: bool) -> Result<(), NetError> {
        self.send(&Request::ShardDecide { gtid, commit })?;
        self.owed += 1;
        Ok(())
    }

    /// Asks the server's coordinator decision log what became of `gtid`.
    /// `false` covers both a logged abort and no decision at all (presumed
    /// abort). Errors when the server has no decision source configured.
    pub fn shard_status(&mut self, gtid: u64) -> Result<bool, NetError> {
        match self.call(&Request::ShardStatus { gtid })? {
            Response::ShardDecision { gtid: g, commit } if g == gtid => Ok(commit),
            _ => Err(NetError::Unexpected("shard decision")),
        }
    }

    /// The shard's in-doubt set: gtids prepared but undecided, sorted.
    pub fn shard_in_doubt(&mut self) -> Result<Vec<u64>, NetError> {
        match self.call(&Request::ShardInDoubt)? {
            Response::ShardGtids(gtids) => Ok(gtids),
            _ => Err(NetError::Unexpected("shard gtids")),
        }
    }

    /// The server's current routing table: `(epoch, slot → shard map)`.
    /// Errors when the server has no routing source configured.
    pub fn routing_snapshot(&mut self) -> Result<(u64, Vec<u32>), NetError> {
        match self.call(&Request::RoutingSnapshot)? {
            Response::Routing { epoch, slots } => Ok((epoch, slots)),
            _ => Err(NetError::Unexpected("routing")),
        }
    }

    /// Migration bulk fetch: every row of `table` in `slot` under a
    /// `slot_count`-slot ring, as the server's live (fuzzy) heap holds them.
    pub fn mig_fetch(
        &mut self,
        table: u32,
        slot: u32,
        slot_count: u32,
    ) -> Result<Vec<(u64, Vec<i64>)>, NetError> {
        match self.call(&Request::MigFetch { table, slot, slot_count })? {
            Response::MigRows { rows } => Ok(rows),
            _ => Err(NetError::Unexpected("migration rows")),
        }
    }

    /// One-shot read of the latest committed row (a tiny transaction).
    pub fn read_committed(&mut self, table: u32, key: u64) -> Result<Option<Vec<i64>>, NetError> {
        let spec = TxnSpec {
            kind: "read",
            ops: vec![WorkloadOp::Read { table, key }],
            may_fail: true,
        };
        match self.one_shot(&spec)? {
            SpecOutcome::Committed { mut reads } => Ok(reads.remove(0)),
            _ => Ok(None),
        }
    }
}

/// Load generator configuration.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent client connections (one thread each).
    pub connections: usize,
    /// Transactions per connection.
    pub txns_per_conn: u64,
    /// One-shot transactions kept in flight per connection. Depth 1 is
    /// strict request/response; deeper pipelines let the server batch
    /// commits into shared WAL flushes.
    pub pipeline_depth: usize,
    /// Busy-shed retry attempts per connection.
    pub connect_attempts: usize,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            connections: 4,
            txns_per_conn: 1_000,
            pipeline_depth: 8,
            connect_attempts: 50,
        }
    }
}

/// Drives `config.connections` concurrent client connections against the
/// server at `addr`, each executing forks of `workload`, and returns the
/// aggregate report keyed by the client-side transaction kinds.
pub fn run_load(
    addr: SocketAddr,
    workload: &mut dyn Workload,
    config: &LoadConfig,
) -> Result<WorkloadReport, NetError> {
    let start = Instant::now();
    let mut handles = Vec::new();
    for conn in 0..config.connections {
        let mut gen = workload.fork();
        let cfg = config.clone();
        handles.push(std::thread::spawn(move || -> Result<WorkloadReport, NetError> {
            let mut client = Client::connect_with_backoff(
                addr,
                &ReconnectPolicy {
                    attempts: cfg.connect_attempts,
                    base: Duration::from_millis(2),
                    cap: Duration::from_millis(200),
                    seed: conn as u64 + 1,
                },
            )?;
            let mut report = WorkloadReport::default();
            let mut remaining = cfg.txns_per_conn;
            while remaining > 0 {
                let n = remaining.min(cfg.pipeline_depth.max(1) as u64) as usize;
                let specs: Vec<TxnSpec> = (0..n).map(|_| gen.next_txn()).collect();
                let outcomes = client.run_pipelined(&specs)?;
                for (spec, outcome) in specs.iter().zip(&outcomes) {
                    report.record(spec.kind, spec.may_fail, outcome);
                }
                remaining -= n as u64;
            }
            Ok(report)
        }));
    }
    let mut report = WorkloadReport::default();
    let mut first_err = None;
    for h in handles {
        match h.join().expect("load thread") {
            Ok(r) => report.merge(r),
            Err(e) => first_err = Some(e),
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    report.elapsed = start.elapsed();
    Ok(report)
}

//! The esdb wire protocol: length-prefixed binary frames.
//!
//! Every message is one frame: a little-endian `u32` payload length followed
//! by the payload, whose first byte is the message tag. Integers are
//! little-endian throughout; rows are a `u16` column count followed by that
//! many `i64`s.
//!
//! The layout of every frame is declared exactly once, as a row of the
//! `wire_enum!` tables at the bottom of this file: tag byte, variant, and
//! the ordered fields with their [`Wire`] type. The encoder, the decoder and
//! the generator behind the round-trip properties are all derived from that
//! row, and `tests/wire_golden.rs` pins the resulting bytes.
//!
//! Decoding distinguishes **incomplete** input (the frame's bytes have not
//! all arrived — try again after reading more) from **malformed** input (the
//! bytes can never become a valid frame — the connection is beyond repair).
//! A malformed frame is an error value, never a panic: a hostile or buggy
//! client must not be able to take down the server.

use esdb_core::spec_exec::SpecOutcome;
use esdb_core::{ObsSnapshot, QuorumError, StatsSnapshot, OBS_SNAPSHOT_VERSION};
use esdb_obs::{HistogramSnapshot, WaitProfile};
use esdb_staged::{AggFunc, CmpOp};
use esdb_workload::{Rng, TxnSpec, WorkloadOp};

/// Frame header size: the `u32` payload length.
pub const HEADER_LEN: usize = 4;

/// Upper bound on a frame payload. Anything larger is malformed — the cap
/// keeps a hostile length prefix from making the server allocate gigabytes.
pub const MAX_FRAME: usize = 1 << 20;

/// Why a byte sequence failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversized(usize),
    /// The payload's structure is invalid (unknown tag, truncated field,
    /// trailing garbage, row too wide).
    Malformed(&'static str),
    /// A versioned snapshot frame from a peer speaking a format this build
    /// does not understand. Typed (not a panic, not `Malformed`) so callers
    /// can distinguish skew from corruption.
    UnsupportedVersion(u32),
    /// The peer stopped sending (or accepting) bytes for longer than the
    /// configured socket timeout while a frame exchange was in flight. Typed
    /// so a hung peer degrades to an error the caller can act on instead of
    /// blocking a thread forever.
    Timeout,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized(n) => write!(f, "frame of {n} bytes exceeds {MAX_FRAME}"),
            FrameError::Malformed(why) => write!(f, "malformed frame: {why}"),
            FrameError::UnsupportedVersion(v) => {
                write!(f, "obs snapshot version {v} not supported (this build speaks {OBS_SNAPSHOT_VERSION})")
            }
            FrameError::Timeout => write!(f, "peer stalled past the socket timeout"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Engine + server counters.
    Stats,
    /// Full observability snapshot: counters plus the cycle-accounting
    /// breakdown and per-component latency histograms.
    ObsStats,
    /// One-shot transaction: the whole op list in one frame. The server
    /// executes, commits (deferred, riding the session batch's single WAL
    /// flush) and replies with an [`Response::Outcome`].
    OneShot {
        /// Whether a logical failure is an expected outcome.
        may_fail: bool,
        /// The operations, in order.
        ops: Vec<WorkloadOp>,
    },
    /// Opens an interactive transaction on this session.
    Begin,
    /// Reads a row inside the session's open transaction.
    Read {
        /// Table id.
        table: u32,
        /// Key.
        key: u64,
    },
    /// Overwrites a row inside the open transaction.
    Update {
        /// Table id.
        table: u32,
        /// Key.
        key: u64,
        /// New row.
        row: Vec<i64>,
    },
    /// Inserts a row inside the open transaction.
    Insert {
        /// Table id.
        table: u32,
        /// Key.
        key: u64,
        /// Row.
        row: Vec<i64>,
    },
    /// Commits the open transaction (acknowledged only once durable).
    Commit,
    /// Aborts the open transaction.
    Abort,
    /// Replica bootstrap: take a checkpoint and stream the page snapshot.
    /// The server answers with one [`Response::SnapBegin`], a
    /// [`Response::SnapPage`] per page, and a closing [`Response::SnapEnd`].
    ReplSnapshot,
    /// Turns this session into a log-shipping feed: the server pushes
    /// [`Response::LogChunk`] frames covering the durable log from `from`
    /// onward until the connection closes. The only request the feed still
    /// reads afterwards is [`Request::ReplAck`]. `term` is the highest
    /// replication term the subscriber has observed: a primary contacted by
    /// a subscriber from a *higher* term knows it has been superseded and
    /// answers [`Response::Fenced`] instead of shipping.
    ReplSubscribe {
        /// First LSN the subscriber still needs.
        from: u64,
        /// Highest term the subscriber has observed (0 = none).
        term: u64,
    },
    /// Follower → primary on a subscribe feed: "my durable replication
    /// cursor now extends to `lsn`". Carries the follower's term so a
    /// deposed primary learns about its successor even from an ack. This is
    /// the input to semi-sync quorum commit: the primary's group-commit wait
    /// can additionally block until K followers have acked past the commit
    /// LSN.
    ReplAck {
        /// Highest term the follower has observed.
        term: u64,
        /// The follower's durable cursor end.
        lsn: u64,
    },
    /// Read-your-writes token: the primary's durable LSN right now. A client
    /// that just committed here can hand the token to a replica read.
    CommitToken,
    /// Follower read gated on a token: answered with [`Response::Row`] only
    /// once the replica has applied up to `min_lsn`, with
    /// [`Response::Lagging`] if it cannot within its wait budget.
    ReadAt {
        /// Table id.
        table: u32,
        /// Key.
        key: u64,
        /// The read-your-writes token (0 = no freshness requirement).
        min_lsn: u64,
    },
    /// Two-phase-commit phase one: execute this shard's slice of a
    /// cross-shard transaction and *prepare* it (durable `Prepare` record,
    /// locks held) instead of committing. Answered with a
    /// [`Response::ShardVote`].
    ShardPrepare {
        /// Global transaction id (coordinator-allocated, single-use).
        gtid: u64,
        /// This shard's slice of the transaction's operations, in order.
        ops: Vec<WorkloadOp>,
    },
    /// Two-phase-commit phase two: deliver the coordinator's decision for
    /// `gtid` to this participant. Idempotent; answered with
    /// [`Response::Ok`] whether or not the gtid was still registered.
    ShardDecide {
        /// Global transaction id.
        gtid: u64,
        /// `true` = commit, `false` = abort.
        commit: bool,
    },
    /// Recovering participant → coordinator front-end: what was decided for
    /// `gtid`? Answered with a [`Response::ShardDecision`] (presumed abort
    /// when no durable decision exists) or [`Response::Error`] if this
    /// server has no coordinator decision source configured.
    ShardStatus {
        /// Global transaction id being resolved.
        gtid: u64,
    },
    /// Recovering coordinator → participant: which gtids are prepared here
    /// and still awaiting a decision? Answered with [`Response::ShardGtids`].
    ShardInDoubt,
    /// Follower OLAP query gated on a token: execute `plan` at a
    /// commit-consistent snapshot no older than `min_lsn`, answered with
    /// [`Response::Rows`] (or [`Response::Lagging`] if the replica cannot
    /// catch up within its wait budget). Only servers with an apply frontier
    /// configured (followers) serve queries; a primary answers a typed
    /// [`Response::Error`].
    Query {
        /// The read-your-writes token (0 = no freshness requirement).
        min_lsn: u64,
        /// The plan to execute.
        plan: WirePlan,
    },
    /// Routing-table observation: "what slot → shard map are you serving
    /// under, and at which epoch?". Answered with [`Response::Routing`].
    /// Cheap by design — routers poll it to refresh after a
    /// [`Response::WrongShard`], and tests poll it to observe cutover.
    RoutingSnapshot,
    /// Migration bulk fetch: stream every committed row of `table` whose
    /// `(table, key)` hashes to `slot` under a `slot_count`-slot ring.
    /// Answered with [`Response::MigRows`]. This is the fuzzy-copy read the
    /// rebalance coordinator drives against a source shard.
    MigFetch {
        /// Table id.
        table: u32,
        /// Hash slot whose rows are wanted.
        slot: u32,
        /// Ring size the requester's routing table uses (so both sides
        /// agree on the hash domain even across ring-size reconfigurations).
        slot_count: u32,
    },
}

/// Maximum [`WirePlan`] nesting depth a decoder accepts. Caps recursion so
/// a hostile frame full of `Filter` tags cannot blow the reactor's stack.
pub const MAX_PLAN_DEPTH: usize = 64;

/// A serializable query plan: the wire face of `esdb_staged::PlanNode`,
/// with tables and secondary indexes referenced by catalog id. The server
/// resolves ids and validates column offsets against its own catalog and
/// answers a typed [`Response::Error`] for anything unknown — a stale or
/// hostile client can never make the execution engine panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WirePlan {
    /// Full scan; output rows are `[key, col0, col1, ...]`.
    Scan {
        /// Table id.
        table: u32,
    },
    /// Index-assisted scan: rows whose indexed column lies in `[lo, hi]`
    /// (inclusive), in primary-key order. Same output shape as `Scan`.
    IndexScan {
        /// Table id.
        table: u32,
        /// Secondary index id within the table.
        index: u32,
        /// Lower bound (inclusive).
        lo: i64,
        /// Upper bound (inclusive).
        hi: i64,
    },
    /// Keep rows where `row[col] OP value`.
    Filter {
        /// Input plan.
        input: Box<WirePlan>,
        /// Column tested (plan-output offset: 0 is the key for scans).
        col: u32,
        /// Comparison.
        op: CmpOp,
        /// Constant operand.
        value: i64,
    },
    /// Keep only the listed columns, in order.
    Project {
        /// Input plan.
        input: Box<WirePlan>,
        /// Column offsets to keep.
        cols: Vec<u32>,
    },
    /// Group-by aggregate. Output: `[group, agg]` (or `[agg]` if no group).
    Aggregate {
        /// Input plan.
        input: Box<WirePlan>,
        /// Optional grouping column.
        group_col: Option<u32>,
        /// Aggregated column.
        agg_col: u32,
        /// Function.
        func: AggFunc,
    },
    /// Sort ascending by column.
    Sort {
        /// Input plan.
        input: Box<WirePlan>,
        /// Sort column.
        col: u32,
    },
}

/// Server-side counters the STATS command reports alongside the engine's
/// [`StatsSnapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Engine counters.
    pub engine: StatsSnapshot,
    /// Sessions admitted.
    pub sessions_accepted: u64,
    /// Connections shed with [`Response::Busy`].
    pub sessions_shed: u64,
    /// Sessions currently open.
    pub sessions_active: u64,
    /// One-shot transactions executed.
    pub txns_executed: u64,
    /// One-shot transactions committed.
    pub txns_committed: u64,
    /// Request batches processed (each batch pays at most one WAL flush).
    pub batches: u64,
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Greeting: the session was admitted.
    Hello,
    /// Greeting: the server is at its session cap; retry later. The
    /// connection closes after this frame — structured load shedding, not a
    /// hang or an unbounded queue.
    Busy,
    /// Ping reply.
    Pong,
    /// STATS reply.
    Stats(ServerStats),
    /// OBS_STATS reply: the versioned snapshot (boxed — it carries four
    /// histograms and would otherwise dominate every `Response`'s size).
    ObsStats(Box<ObsSnapshot>),
    /// One-shot transaction result.
    Outcome(SpecOutcome),
    /// A row, from an interactive [`Request::Read`].
    Row(Vec<i64>),
    /// Generic success (begin / update / insert / commit / abort).
    Ok,
    /// The request failed; the session stays usable.
    Error(String),
    /// Snapshot header: the checkpoint's start LSN (where the subscriber's
    /// log apply must begin) and the table catalog.
    SnapBegin {
        /// First LSN the replica must apply after installing the pages.
        start_lsn: u64,
        /// Per table: id, name, arity, heap page ids in heap order.
        catalog: Vec<(u32, String, u32, Vec<u64>)>,
        /// Secondary index declarations, flattened: `(table_id, index_id,
        /// name, column, kind)` with kind as in
        /// `esdb_storage::IndexKind::as_u8`. Index *contents* never ride a
        /// snapshot — they are derived state the replica rebuilds from the
        /// installed heap and keeps current through redo.
        indexes: Vec<(u32, u32, String, u32, u8)>,
    },
    /// One checkpointed page (raw [`esdb_storage`] page bytes).
    SnapPage {
        /// Page id on the primary (replicas install under the same id).
        page_id: u64,
        /// The page image.
        bytes: Vec<u8>,
    },
    /// Snapshot trailer.
    SnapEnd {
        /// Pages streamed, for the replica's sanity check.
        page_count: u64,
    },
    /// A shipped span of the durable log, raw record frames starting at
    /// `start`. The receiver runs its own `decode_stream_checked` over the
    /// accumulated stream — the WAL's CRC framing rides the wire unchanged.
    /// Every chunk is stamped with the shipping primary's term: a receiver
    /// that has adopted a higher term treats the chunk as coming from a
    /// fenced, stale primary and drops the feed.
    LogChunk {
        /// The shipping primary's replication term.
        term: u64,
        /// Stream offset of `bytes[0]`.
        start: u64,
        /// Raw log bytes.
        bytes: Vec<u8>,
    },
    /// A read-your-writes token ([`Request::CommitToken`] reply).
    Token {
        /// The primary's durable LSN at token time.
        lsn: u64,
    },
    /// A [`Request::ReadAt`] the replica could not serve freshly enough.
    Lagging {
        /// How far the replica had applied when it gave up.
        applied: u64,
    },
    /// A participant's vote on a [`Request::ShardPrepare`]: `Committed`
    /// means *prepared* (yes-vote, reads attached); a failure outcome means
    /// the participant aborted locally and votes no.
    ShardVote {
        /// Global transaction id, echoed for pipelining sanity.
        gtid: u64,
        /// The vote: committed = prepared; failure = aborted locally.
        outcome: SpecOutcome,
    },
    /// The coordinator's (possibly presumed) decision for a
    /// [`Request::ShardStatus`] query.
    ShardDecision {
        /// Global transaction id, echoed.
        gtid: u64,
        /// `true` = commit; `false` = abort (including presumed abort).
        commit: bool,
    },
    /// Prepared-but-undecided gtids on this participant
    /// ([`Request::ShardInDoubt`] reply).
    ShardGtids(Vec<u64>),
    /// This server has observed a higher replication term than the
    /// requester's and refuses the operation (a deposed primary must not
    /// ship, a stale subscriber must re-sync). Carries the higher term so
    /// the receiver can adopt it.
    Fenced {
        /// The highest term this server has observed.
        term: u64,
    },
    /// The transaction *is* durably committed on the primary, but the
    /// semi-sync quorum wait timed out before K followers acked durability
    /// at the commit LSN. A typed degradation, never a hang: the caller
    /// knows the commit's replication guarantee is not yet met.
    QuorumTimeout {
        /// The commit LSN that was waiting for acks.
        lsn: u64,
        /// Followers that had acked `lsn` when the wait gave up.
        acked: u32,
        /// Acks the quorum policy required.
        needed: u32,
    },
    /// Result rows of a [`Request::Query`]. The whole result is one frame,
    /// so the server bounds result size and answers [`Response::Error`]
    /// when a query would overflow it.
    Rows(Vec<Vec<i64>>),
    /// The server's current routing table ([`Request::RoutingSnapshot`]
    /// reply): the fencing epoch and the full slot → shard map.
    Routing {
        /// Routing epoch this map was installed under.
        epoch: u64,
        /// `slots[s]` is the shard owning slot `s`.
        slots: Vec<u32>,
    },
    /// One batch of migration rows ([`Request::MigFetch`] reply): the
    /// committed `(key, row)` pairs of the requested slot.
    MigRows {
        /// The slot's rows, in scan order.
        rows: Vec<(u64, Vec<i64>)>,
    },
    /// This server no longer (or does not yet) own the slot the request
    /// touches — the rebalancing analog of [`Response::Fenced`]. Carries
    /// the server's routing epoch and its best hint at the owning shard so
    /// a stale router can refresh and retry instead of silently reading
    /// from a shard that gave the data away.
    WrongShard {
        /// The server's current routing epoch (greater than the stale
        /// requester's, or the requester would not have come here).
        epoch: u64,
        /// The shard this server believes owns the touched slot.
        hint: u32,
    },
}

/// A failed quorum wait is the typed degradation its commit acks become.
impl From<QuorumError> for Response {
    fn from(e: QuorumError) -> Response {
        match e {
            QuorumError::Timeout { lsn, acked, needed } => {
                Response::QuorumTimeout { lsn, acked, needed }
            }
            QuorumError::Fenced { term } => Response::Fenced { term },
        }
    }
}

/// Checked cursor over a payload: every read verifies length first, so
/// truncated or lying frames surface as [`FrameError::Malformed`], never as
/// a panic out of a slice index.
struct Reader<'a> {
    buf: &'a [u8],
    /// [`SubPlan`]s entered so far on the way down the current plan.
    depth: usize,
}

impl<'a> Reader<'a> {
    /// Splits off the next `n` bytes.
    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.buf.len() < n {
            return Err(FrameError::Malformed("truncated field"));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn finish(self) -> Result<(), FrameError> {
        if !self.buf.is_empty() {
            Err(FrameError::Malformed("trailing bytes"))
        } else {
            Ok(())
        }
    }
}

/// One wire type: how a field is written, read back, and generated. A frame
/// layout in the tables below is a sequence of wire types, so the encoder,
/// the decoder and the test generator of every frame all come from the one
/// row that declares it.
trait Wire {
    /// The in-memory value this wire type carries.
    type V;
    /// Appends the encoding of `v`.
    fn put(v: &Self::V, out: &mut Vec<u8>);
    /// Reads one value. Total: any bytes yield a value or a [`FrameError`].
    fn get(r: &mut Reader<'_>) -> Result<Self::V, FrameError>;
    /// A random value (what the round-trip properties feed the codec).
    fn arbitrary(rng: &mut Rng) -> Self::V;
}

macro_rules! wire_int {
    ($($t:ident)*) => {$(
        impl Wire for $t {
            type V = $t;
            fn put(v: &$t, out: &mut Vec<u8>) {
                out.extend_from_slice(&v.to_le_bytes())
            }
            fn get(r: &mut Reader<'_>) -> Result<$t, FrameError> {
                const N: usize = std::mem::size_of::<$t>();
                let mut le = [0u8; N];
                le.copy_from_slice(r.take(N)?);
                Ok($t::from_le_bytes(le))
            }
            fn arbitrary(rng: &mut Rng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

wire_int!(u8 u16 u32 u64 i64);

/// One byte, strictly `0` or `1`.
impl Wire for bool {
    type V = bool;
    fn put(v: &bool, out: &mut Vec<u8>) {
        out.push(u8::from(*v))
    }
    fn get(r: &mut Reader<'_>) -> Result<bool, FrameError> {
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(FrameError::Malformed("bad bool")),
        }
    }
    fn arbitrary(rng: &mut Rng) -> bool {
        rng.below(2) == 1
    }
}

/// A column offset: `usize` in memory, `u16` on the wire.
struct Col;

impl Wire for Col {
    type V = usize;
    fn put(v: &usize, out: &mut Vec<u8>) {
        u16::put(&(*v as u16), out)
    }
    fn get(r: &mut Reader<'_>) -> Result<usize, FrameError> {
        Ok(u16::get(r)? as usize)
    }
    fn arbitrary(rng: &mut Rng) -> usize {
        u16::arbitrary(rng) as usize
    }
}

/// The integer widths a [`Counted`] length prefix comes in.
trait Count: Wire<V = Self> + Sized {
    fn from_len(len: usize) -> Self;
    fn to_len(self) -> usize;
}

impl Count for u16 {
    fn from_len(len: usize) -> u16 {
        debug_assert!(len <= u16::MAX as usize);
        len as u16
    }
    fn to_len(self) -> usize {
        self as usize
    }
}

impl Count for u32 {
    fn from_len(len: usize) -> u32 {
        debug_assert!(len <= u32::MAX as usize);
        len as u32
    }
    fn to_len(self) -> usize {
        self as usize
    }
}

/// A `C`-typed element count followed by that many `E`s — the protocol's
/// only counted-vector codec.
struct Counted<C, E>(std::marker::PhantomData<(C, E)>);
/// `u16`-counted vector.
type Vec16<E> = Counted<u16, E>;
/// `u32`-counted vector.
type Vec32<E> = Counted<u32, E>;
/// A row: a `u16` column count followed by that many `i64`s.
type Row = Vec16<i64>;

impl<C: Count, E: Wire> Wire for Counted<C, E> {
    type V = Vec<E::V>;
    fn put(v: &Vec<E::V>, out: &mut Vec<u8>) {
        C::put(&C::from_len(v.len()), out);
        for e in v {
            E::put(e, out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Vec<E::V>, FrameError> {
        let n = C::get(r)?.to_len();
        // The count is untrusted, so it only sizes the allocation up to a
        // cap; the elements must actually be present, checked per read.
        let mut v = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            v.push(E::get(r)?);
        }
        Ok(v)
    }
    fn arbitrary(rng: &mut Rng) -> Vec<E::V> {
        (0..rng.below(6)).map(|_| E::arbitrary(rng)).collect()
    }
}

/// `u16`-length-prefixed UTF-8; longer strings are cut at the prefix's reach.
struct Str;

impl Wire for Str {
    type V = String;
    fn put(v: &String, out: &mut Vec<u8>) {
        let bytes = &v.as_bytes()[..v.len().min(u16::MAX as usize)];
        u16::put(&(bytes.len() as u16), out);
        out.extend_from_slice(bytes);
    }
    fn get(r: &mut Reader<'_>) -> Result<String, FrameError> {
        let len = u16::get(r)? as usize;
        String::from_utf8(r.take(len)?.to_vec())
            .map_err(|_| FrameError::Malformed("non-utf8 string"))
    }
    fn arbitrary(rng: &mut Rng) -> String {
        (0..rng.below(12)).map(|_| (b'a' + rng.below(26) as u8) as char).collect()
    }
}

/// `u32`-length-prefixed byte blob (pages and log spans overflow the
/// `u16`-prefixed [`Str`] encoding), copied as one slice.
struct Bytes;

impl Wire for Bytes {
    type V = Vec<u8>;
    fn put(v: &Vec<u8>, out: &mut Vec<u8>) {
        u32::put(&u32::from_len(v.len()), out);
        out.extend_from_slice(v);
    }
    fn get(r: &mut Reader<'_>) -> Result<Vec<u8>, FrameError> {
        let len = u32::get(r)? as usize;
        Ok(r.take(len)?.to_vec())
    }
    fn arbitrary(rng: &mut Rng) -> Vec<u8> {
        (0..rng.below(512)).map(|_| rng.next_u64() as u8).collect()
    }
}

/// A presence byte (strictly `0` or `1`), then the value if present.
impl<E: Wire> Wire for Option<E> {
    type V = Option<E::V>;
    fn put(v: &Option<E::V>, out: &mut Vec<u8>) {
        match v {
            Some(e) => {
                out.push(1);
                E::put(e, out);
            }
            None => out.push(0),
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Option<E::V>, FrameError> {
        match u8::get(r)? {
            0 => Ok(None),
            1 => Ok(Some(E::get(r)?)),
            _ => Err(FrameError::Malformed("bad option tag")),
        }
    }
    fn arbitrary(rng: &mut Rng) -> Option<E::V> {
        bool::arbitrary(rng).then(|| E::arbitrary(rng))
    }
}

/// Boxed in memory, inline on the wire.
impl<E: Wire> Wire for Box<E> {
    type V = Box<E::V>;
    fn put(v: &Box<E::V>, out: &mut Vec<u8>) {
        E::put(v, out)
    }
    fn get(r: &mut Reader<'_>) -> Result<Box<E::V>, FrameError> {
        E::get(r).map(Box::new)
    }
    fn arbitrary(rng: &mut Rng) -> Box<E::V> {
        Box::new(E::arbitrary(rng))
    }
}

/// A plan's input: a [`WirePlan`] one level further down, refused past
/// [`MAX_PLAN_DEPTH`] so the decoder's recursion is bounded.
struct SubPlan;

impl Wire for SubPlan {
    type V = Box<WirePlan>;
    fn put(v: &Box<WirePlan>, out: &mut Vec<u8>) {
        WirePlan::put(v, out)
    }
    fn get(r: &mut Reader<'_>) -> Result<Box<WirePlan>, FrameError> {
        r.depth += 1;
        if r.depth >= MAX_PLAN_DEPTH {
            return Err(FrameError::Malformed("plan nested too deeply"));
        }
        let plan = WirePlan::get(r)?;
        r.depth -= 1;
        Ok(Box::new(plan))
    }
    fn arbitrary(rng: &mut Rng) -> Box<WirePlan> {
        Box::new(WirePlan::arbitrary(rng))
    }
}

/// The leading field of an [`ObsSnapshot`]: a `u32` that must be this
/// build's [`OBS_SNAPSHOT_VERSION`]. Read before anything else, so a
/// snapshot from a newer build decodes to a typed error, never a guess at
/// its layout.
struct ObsVersion;

impl Wire for ObsVersion {
    type V = u32;
    fn put(v: &u32, out: &mut Vec<u8>) {
        u32::put(v, out)
    }
    fn get(r: &mut Reader<'_>) -> Result<u32, FrameError> {
        match u32::get(r)? {
            OBS_SNAPSHOT_VERSION => Ok(OBS_SNAPSHOT_VERSION),
            other => Err(FrameError::UnsupportedVersion(other)),
        }
    }
    fn arbitrary(_: &mut Rng) -> u32 {
        OBS_SNAPSHOT_VERSION
    }
}

impl Wire for HistogramSnapshot {
    type V = HistogramSnapshot;
    fn put(v: &HistogramSnapshot, out: &mut Vec<u8>) {
        u64::put(&v.count, out);
        u64::put(&v.sum, out);
        for b in &v.buckets {
            u64::put(b, out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<HistogramSnapshot, FrameError> {
        let (count, sum) = (u64::get(r)?, u64::get(r)?);
        let mut h = HistogramSnapshot { count, sum, ..Default::default() };
        for b in &mut h.buckets {
            *b = u64::get(r)?;
        }
        Ok(h)
    }
    fn arbitrary(rng: &mut Rng) -> HistogramSnapshot {
        let mut h = HistogramSnapshot::default();
        for _ in 0..rng.below(12) {
            h.record(rng.next_u64());
        }
        h
    }
}

/// A tuple is its members in order.
macro_rules! wire_tuple {
    ($($e:ident)+) => {
        #[allow(non_snake_case)]
        impl<$($e: Wire),+> Wire for ($($e,)+) {
            type V = ($($e::V,)+);
            fn put(($($e,)+): &Self::V, out: &mut Vec<u8>) {
                $($e::put($e, out);)+
            }
            fn get(r: &mut Reader<'_>) -> Result<Self::V, FrameError> {
                Ok(($($e::get(r)?,)+))
            }
            fn arbitrary(rng: &mut Rng) -> Self::V {
                ($($e::arbitrary(rng),)+)
            }
        }
    };
}

wire_tuple!(A B);
wire_tuple!(A B C D);
wire_tuple!(A B C D E);

/// A struct is its fields in declaration order: `field: wire type`.
macro_rules! wire_struct {
    ($ty:ident { $($f:ident: $w:ty),* $(,)? }) => {
        impl Wire for $ty {
            type V = $ty;
            fn put(v: &$ty, out: &mut Vec<u8>) {
                $(<$w as Wire>::put(&v.$f, out);)*
            }
            fn get(r: &mut Reader<'_>) -> Result<$ty, FrameError> {
                Ok($ty { $($f: <$w as Wire>::get(r)?),* })
            }
            fn arbitrary(rng: &mut Rng) -> $ty {
                $ty { $($f: <$w as Wire>::arbitrary(rng)),* }
            }
        }
    };
}

/// A tagged union is one tag byte, then the tagged variant's fields in
/// order. Each row is `tag => Variant`, `tag => Variant { field: wire type,
/// .. }` or `tag => Variant(name: wire type)`; a tag no row claims decodes
/// to `Malformed($unknown)`. Besides the [`Wire`] impl, every row yields a
/// by-reference encoder `$by_ref::Variant(out, &field, ..)` for callers that
/// hold the fields but not the enum.
macro_rules! wire_enum {
    ($ty:ident in $by_ref:ident, $unknown:literal {
        $($tag:literal => $variant:ident
            $({ $($f:ident: $w:ty),* $(,)? })?
            $(($nf:ident: $nw:ty))?
        ),* $(,)?
    }) => {
        #[allow(non_snake_case)]
        mod $by_ref {
            use super::*;
            $(pub(super) fn $variant(
                out: &mut Vec<u8>
                $($(, $f: &<$w as Wire>::V)*)?
                $(, $nf: &<$nw as Wire>::V)?
            ) {
                u8::put(&$tag, out);
                $($(<$w as Wire>::put($f, out);)*)?
                $(<$nw as Wire>::put($nf, out);)?
            })*
        }

        impl Wire for $ty {
            type V = $ty;
            fn put(v: &$ty, out: &mut Vec<u8>) {
                match v {
                    $($ty::$variant $({ $($f),* })? $(($nf))? => {
                        $by_ref::$variant(out $($(, $f)*)? $(, $nf)?)
                    })*
                }
            }
            fn get(r: &mut Reader<'_>) -> Result<$ty, FrameError> {
                Ok(match u8::get(r)? {
                    $($tag => $ty::$variant
                        $({ $($f: <$w as Wire>::get(r)?),* })?
                        $((<$nw as Wire>::get(r)?))?,)*
                    _ => return Err(FrameError::Malformed($unknown)),
                })
            }
            fn arbitrary(rng: &mut Rng) -> $ty {
                let rows: &[fn(&mut Rng) -> $ty] = &[$(|_rng| $ty::$variant
                    $({ $($f: <$w as Wire>::arbitrary(_rng)),* })?
                    $((<$nw as Wire>::arbitrary(_rng)))?),*];
                rows[rng.below(rows.len() as u64) as usize](rng)
            }
        }
    };
}

wire_struct!(StatsSnapshot {
    commits: u64,
    aborts: u64,
    durable_lsn: u64,
    current_lsn: u64,
    wal_flushes: u64,
});

wire_struct!(WaitProfile {
    useful: u64,
    lock_wait: u64,
    latch_spin: u64,
    log_wait: u64,
    io_retry: u64,
    commit_flush: u64,
});

wire_struct!(ServerStats {
    engine: StatsSnapshot,
    sessions_accepted: u64,
    sessions_shed: u64,
    sessions_active: u64,
    txns_executed: u64,
    txns_committed: u64,
    batches: u64,
});

wire_struct!(ObsSnapshot {
    version: ObsVersion,
    stats: StatsSnapshot,
    breakdown: WaitProfile,
    lock_wait: HistogramSnapshot,
    wal_flush: HistogramSnapshot,
    pool_miss: HistogramSnapshot,
    txn_latency: HistogramSnapshot,
});

wire_enum!(CmpOp in put_cmp, "unknown comparison tag" {
    0 => Eq,
    1 => Ne,
    2 => Lt,
    3 => Le,
    4 => Gt,
    5 => Ge,
});

wire_enum!(AggFunc in put_agg, "unknown aggregate tag" {
    0 => Sum,
    1 => Count,
    2 => Min,
    3 => Max,
});

// Operations inside `OneShot` and `ShardPrepare`.
wire_enum!(WorkloadOp in put_op, "unknown op tag" {
    0 => Read { table: u32, key: u64 },
    1 => Write { table: u32, key: u64, row: Row },
    2 => Add { table: u32, key: u64, col: Col, delta: i64 },
    3 => Insert { table: u32, key: u64, row: Row },
    4 => Delete { table: u32, key: u64 },
});

// Shared by `Outcome` and `ShardVote`.
wire_enum!(SpecOutcome in put_outcome, "unknown outcome tag" {
    0 => Committed { reads: Vec16<Option<Row>> },
    1 => LogicalFailure,
    2 => ConflictFailure,
});

// Plan nodes inside `Query`.
wire_enum!(WirePlan in put_plan, "unknown plan tag" {
    0 => Scan { table: u32 },
    1 => IndexScan { table: u32, index: u32, lo: i64, hi: i64 },
    2 => Filter { input: SubPlan, col: u32, op: CmpOp, value: i64 },
    3 => Project { input: SubPlan, cols: Vec16<u32> },
    4 => Aggregate { input: SubPlan, group_col: Option<u32>, agg_col: u32, func: AggFunc },
    5 => Sort { input: SubPlan, col: u32 },
});

// The frame tables. Requests and responses share one tag byte space so a
// tag is self-describing in traces. Adding a frame is one row here (plus
// its variant above and its golden fixture in `tests/wire_golden.rs`).
wire_enum!(Request in put_request, "unknown request tag" {
    0x01 => Ping,
    0x02 => Stats,
    0x03 => OneShot { may_fail: bool, ops: Vec16<WorkloadOp> },
    0x04 => ObsStats,
    0x10 => Begin,
    0x11 => Read { table: u32, key: u64 },
    0x12 => Update { table: u32, key: u64, row: Row },
    0x13 => Insert { table: u32, key: u64, row: Row },
    0x14 => Commit,
    0x15 => Abort,
    0x20 => ReplSnapshot,
    0x21 => ReplSubscribe { from: u64, term: u64 },
    0x22 => CommitToken,
    0x23 => ReadAt { table: u32, key: u64, min_lsn: u64 },
    0x24 => ReplAck { term: u64, lsn: u64 },
    0x25 => Query { min_lsn: u64, plan: WirePlan },
    0x30 => ShardPrepare { gtid: u64, ops: Vec16<WorkloadOp> },
    0x31 => ShardDecide { gtid: u64, commit: bool },
    0x32 => ShardStatus { gtid: u64 },
    0x33 => ShardInDoubt,
    0x34 => RoutingSnapshot,
    0x35 => MigFetch { table: u32, slot: u32, slot_count: u32 },
});

wire_enum!(Response in put_response, "unknown response tag" {
    0x80 => Hello,
    0x81 => Busy,
    0x82 => Pong,
    0x83 => Stats(stats: ServerStats),
    0x84 => Outcome(outcome: SpecOutcome),
    0x85 => Row(row: Row),
    0x86 => Ok,
    0x87 => Error(msg: Str),
    0x88 => ObsStats(snapshot: Box<ObsSnapshot>),
    0x90 => SnapBegin {
        start_lsn: u64,
        catalog: Vec16<(u32, Str, u32, Vec32<u64>)>,
        indexes: Vec16<(u32, u32, Str, u32, u8)>,
    },
    0x91 => SnapPage { page_id: u64, bytes: Bytes },
    0x92 => SnapEnd { page_count: u64 },
    0x93 => LogChunk { term: u64, start: u64, bytes: Bytes },
    0x94 => Token { lsn: u64 },
    0x95 => Lagging { applied: u64 },
    0x96 => ShardVote { gtid: u64, outcome: SpecOutcome },
    0x97 => ShardDecision { gtid: u64, commit: bool },
    0x98 => ShardGtids(gtids: Vec32<u64>),
    0x99 => Fenced { term: u64 },
    0x9A => QuorumTimeout { lsn: u64, acked: u32, needed: u32 },
    0x9B => Rows(rows: Vec32<Row>),
    0x9C => Routing { epoch: u64, slots: Vec32<u32> },
    0x9D => MigRows { rows: Vec32<(u64, Row)> },
    0x9E => WrongShard { epoch: u64, hint: u32 },
});

/// Appends one frame: a header slot, the payload `put` writes, then the
/// header patched with the payload's length.
fn put_frame(out: &mut Vec<u8>, put: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.extend_from_slice(&[0; HEADER_LEN]);
    put(out);
    let len = out.len() - at - HEADER_LEN;
    debug_assert!(len <= MAX_FRAME, "encoded frame exceeds MAX_FRAME");
    out[at..at + HEADER_LEN].copy_from_slice(&(len as u32).to_le_bytes());
}

/// Appends one framed request to `out`.
pub fn encode_request(req: &Request, out: &mut Vec<u8>) {
    put_frame(out, |out| Request::put(req, out));
}

/// Encodes a one-shot request straight from a workload spec (the `kind`
/// string stays client-side; the client keys its per-kind report off the
/// specs it sent, so the name never crosses the wire).
pub fn encode_spec(spec: &TxnSpec, out: &mut Vec<u8>) {
    put_frame(out, |out| put_request::OneShot(out, &spec.may_fail, &spec.ops));
}

/// Appends one framed response to `out`.
pub fn encode_response(resp: &Response, out: &mut Vec<u8>) {
    put_frame(out, |out| Response::put(resp, out));
}

/// Result of trying to decode one frame from a byte stream.
pub type Decoded<T> = Result<Option<(T, usize)>, FrameError>;

/// Decodes one `T` frame from the front of `buf`: `Ok(None)` while bytes are
/// still missing, `Err` if the length prefix is unusable or the payload is
/// not exactly one `T`.
fn decode_frame<T: Wire>(buf: &[u8]) -> Decoded<T::V> {
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::Oversized(len));
    }
    if len == 0 {
        return Err(FrameError::Malformed("empty payload"));
    }
    let consumed = HEADER_LEN + len;
    if buf.len() < consumed {
        return Ok(None);
    }
    let mut r = Reader { buf: &buf[HEADER_LEN..consumed], depth: 0 };
    let value = T::get(&mut r)?;
    r.finish()?;
    Ok(Some((value, consumed)))
}

/// Decodes one request frame from the front of `buf`. Returns the request
/// and the number of bytes consumed, `Ok(None)` if the frame is incomplete,
/// or an error if it can never parse.
pub fn decode_request(buf: &[u8]) -> Decoded<Request> {
    decode_frame::<Request>(buf)
}

/// Decodes one response frame from the front of `buf` (client side).
pub fn decode_response(buf: &[u8]) -> Decoded<Response> {
    decode_frame::<Response>(buf)
}

/// A random request drawn from the frame table — the generator behind the
/// round-trip properties in `tests/protocol_props.rs`.
#[doc(hidden)]
pub fn arbitrary_request(rng: &mut Rng) -> Request {
    Request::arbitrary(rng)
}

/// A random response drawn from the frame table (see [`arbitrary_request`]).
#[doc(hidden)]
pub fn arbitrary_response(rng: &mut Rng) -> Response {
    Response::arbitrary(rng)
}

//! The system under test, as the benchmark sees it. **This is the only file
//! that names esdb items**: every other module works on [`Caller`],
//! [`System`] and plain numbers, so a program change that breaks the
//! benchmark breaks it here.
//!
//! Public surface the benchmark depends on — a simplicity PR must keep these
//! or change them together with this file in a separate `benchmark` PR:
//!
//! * `esdb_workload`: `Workload::{tables, population, next_txn, fork}`,
//!   `Tpcb::new`, `Tatp::new`, `Ycsb::new`, `Rng::{new, below}`, `TxnSpec`,
//!   `WorkloadOp`, `tpcb::{BRANCHES, TELLERS, ACCOUNTS, HISTORY}`
//! * `esdb_core`: `EngineConfig::conventional_baseline` (+ the pub field
//!   `buffer_frames`), `Database::{open, load_population, create_table, table,
//!   run_spec, scan_plan, query, checkpoint, simulate_crash, prepared_gtids,
//!   stats_snapshot, pool, wal}`, `query::QueryEngine`,
//!   `spec_exec::SpecOutcome`, `StatsSnapshot`
//! * through those handles: `Table::{insert, len}`,
//!   `BufferPool::{stats, flush_all}`, `Wal::truncate_before`
//! * `esdb_net`: `Server::{start, local_addr, stats}`, `ServerConfig` (pub
//!   fields `reactors`, `decision_source`), `Client::{connect, one_shot,
//!   run_pipelined}`, `Request`, `Response`, `ServerStats`,
//!   `protocol::{encode_spec, encode_request, encode_response,
//!   decode_request, decode_response}`
//! * `esdb_shard`: `ShardRouter::{new, execute, stats}`, `ShardBackend`,
//!   `NetShard`, `DecisionLog::{new, decision_source}`,
//!   `ShardedTpcb::{new, partitioner}`, `load_shard_population`, `ShardError`
//! * `esdb_staged`: `PlanNode::{filter, project, aggregate, sort}`, `AggFunc`,
//!   `CmpOp`, `Row`, `DEFAULT_BATCH`
//! * `esdb_obs`: `global().component(Component::{LockWait, WalFlush, PoolMiss,
//!   TxnLatency, ReactorTick})`
//!
//! `--seed` reaches only the generators constructed in [`set_up`]; the
//! program sees generated inputs and nothing else.

use crate::trace;
use esdb_core::query::QueryEngine;
use esdb_core::spec_exec::SpecOutcome;
use esdb_core::{Database, EngineConfig};
use esdb_net::protocol::{
    decode_request, decode_response, encode_request, encode_response, encode_spec,
};
use esdb_net::{Client, Request, Response, Server, ServerConfig};
use esdb_obs::Component;
use esdb_shard::{
    load_shard_population, DecisionLog, NetShard, ShardBackend, ShardError, ShardRouter,
    ShardedTpcb,
};
use esdb_staged::{AggFunc, CmpOp, PlanNode, Row, DEFAULT_BATCH};
use esdb_workload::tpcb::{ACCOUNTS, BRANCHES, HISTORY, TELLERS};
use esdb_workload::{Rng, Tatp, Tpcb, TxnSpec, Workload, WorkloadOp, Ycsb};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Frames for "everything fits": 32 768 × 8 KiB = 256 MiB.
const RESIDENT_FRAMES: usize = 32_768;
/// Frames for `engine.ycsb.spill`: 64 MiB under a table that does not fit.
const SPILL_FRAMES: usize = 8_192;
const TPCB_BRANCHES: u64 = 32;
const YCSB_RECORDS: u64 = 4_000_000;
const TATP_SUBSCRIBERS: u64 = 100_000;
const PIPELINE_DEPTH: usize = 8;
const SHARDS: usize = 2;
const SHARD_ACCOUNTS_PER_BRANCH: u64 = 10_000;
pub const OLAP_ROWS: u64 = 200_000;
const OLAP_GROUPS: u64 = 100;
/// Transactions run between the checkpoint and the simulated crash of the
/// durability oracle: enough that a lost flush loses commits, few enough
/// that recovery replays them in well under a second.
const DURABILITY_TAIL: u64 = 20_000;

/// What one client call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallOutcome {
    /// Operations sent (1, or the batch size of a pipelined call).
    pub attempted: u32,
    /// Operations acknowledged with a correct outcome: committed, or the
    /// logical failure the spec declares expected.
    pub correct: u32,
}

/// One closed-loop client: a generator fork plus its way into the system.
pub trait Caller: Send {
    /// Draws the next call's input from the generator.
    fn generate(&mut self);
    /// Sends the drawn input and waits for the reply.
    fn call(&mut self) -> CallOutcome;
    /// Traced runs only, after [`Caller::call`] and outside its span: pushes
    /// the call's actual request and response frames through the codec with
    /// no socket, accumulating `net.codec_ns` / `net.wire_bytes`.
    fn probe_codec(&mut self) {}
    /// Adds this client's own counts (commits observed, codec probe totals,
    /// router counters) into `into`.
    fn tally(&self, into: &mut Counts);
}

/// Monotonic counters by name; layer metrics are deltas of two snapshots.
pub type Counts = BTreeMap<&'static str, u64>;

fn bump(counts: &mut Counts, name: &'static str, by: u64) {
    *counts.entry(name).or_default() += by;
}

fn correct(spec: &TxnSpec, outcome: &SpecOutcome) -> bool {
    match outcome {
        SpecOutcome::Committed { .. } => true,
        SpecOutcome::LogicalFailure => spec.may_fail,
        SpecOutcome::ConflictFailure => false,
    }
}

// ---------------------------------------------------------------- engine.*

struct EngineCaller {
    db: Arc<Database>,
    gen: Box<dyn Workload>,
    spec: Option<TxnSpec>,
    committed: u64,
    /// Column increments inside committed transactions (the YCSB oracle).
    adds: u64,
}

impl Caller for EngineCaller {
    fn generate(&mut self) {
        self.spec = Some(self.gen.next_txn());
    }

    fn call(&mut self) -> CallOutcome {
        let spec = self.spec.as_ref().expect("generate before call");
        let outcome = trace::span("core.run_spec", || self.db.run_spec(spec));
        let mut ok = correct(spec, &outcome);
        if let SpecOutcome::Committed { reads } = &outcome {
            self.committed += 1;
            for (op, read) in spec.ops.iter().zip(reads) {
                match op {
                    // Every populated row carries its key in column 0 on the
                    // one workload that reads (YCSB): a wrong row shows.
                    WorkloadOp::Read { key, .. } => {
                        ok &= read.as_ref().is_some_and(|row| row[0] == *key as i64);
                    }
                    WorkloadOp::Add { .. } => self.adds += 1,
                    _ => {}
                }
            }
        }
        CallOutcome {
            attempted: 1,
            correct: u32::from(ok),
        }
    }

    fn tally(&self, into: &mut Counts) {
        bump(into, "client.committed", self.committed);
        bump(into, "client.adds", self.adds);
    }
}

// ------------------------------------------------------------------ wire.*

struct WireCaller {
    client: Client,
    gen: Box<dyn Workload>,
    depth: usize,
    specs: Vec<TxnSpec>,
    /// The last call's outcomes, kept for the codec probe.
    outcomes: Vec<SpecOutcome>,
    committed: u64,
    codec: CodecTotals,
}

#[derive(Default)]
struct CodecTotals {
    ns: u64,
    bytes: u64,
    txns: u64,
}

impl CodecTotals {
    /// Encodes and decodes one request/response pair, no socket.
    fn exchange(&mut self, encode_req: impl FnOnce(&mut Vec<u8>), resp: &Response) {
        let start = trace::now_ns();
        let (mut req_buf, mut resp_buf) = (Vec::new(), Vec::new());
        encode_req(&mut req_buf);
        let req = decode_request(&req_buf);
        encode_response(resp, &mut resp_buf);
        let back = decode_response(&resp_buf);
        self.ns += trace::now_ns() - start;
        assert!(
            matches!(req, Ok(Some(_))) && matches!(back, Ok(Some(_))),
            "a frame the client sent or received no longer decodes"
        );
        self.bytes += (req_buf.len() + resp_buf.len()) as u64;
    }

    fn tally(&self, into: &mut Counts) {
        bump(into, "net.codec_ns", self.ns);
        bump(into, "net.wire_bytes", self.bytes);
        bump(into, "net.codec_txns", self.txns);
    }
}

impl Caller for WireCaller {
    fn generate(&mut self) {
        self.specs.clear();
        self.specs
            .extend((0..self.depth).map(|_| self.gen.next_txn()));
    }

    fn call(&mut self) -> CallOutcome {
        let result = if self.depth == 1 {
            trace::span("net.one_shot", || {
                self.client.one_shot(&self.specs[0]).map(|o| vec![o])
            })
        } else {
            trace::span("net.run_pipelined", || {
                self.client.run_pipelined(&self.specs)
            })
        };
        self.outcomes = result.unwrap_or_default();
        self.committed += self.outcomes.iter().filter(|o| o.is_committed()).count() as u64;
        let ok = self
            .specs
            .iter()
            .zip(&self.outcomes)
            .filter(|(s, o)| correct(s, o))
            .count();
        CallOutcome {
            attempted: self.depth as u32,
            correct: ok as u32,
        }
    }

    /// Probes the call's first transaction only: one sample per call keeps
    /// the probe at ~0.5 % of a pipelined batch instead of ~4 %.
    fn probe_codec(&mut self) {
        if let (Some(spec), Some(outcome)) = (self.specs.first(), self.outcomes.drain(..).next()) {
            self.codec
                .exchange(|buf| encode_spec(spec, buf), &Response::Outcome(outcome));
            self.codec.txns += 1;
        }
    }

    fn tally(&self, into: &mut Counts) {
        bump(into, "client.committed", self.committed);
        self.codec.tally(into);
    }
}

// ----------------------------------------------------------------- shard.*

/// One frame pair a [`TappedShard`] saw, kept for the codec probe.
enum Exchange {
    Prepare {
        gtid: u64,
        ops: Vec<WorkloadOp>,
        vote: SpecOutcome,
    },
    Decide {
        gtid: u64,
        commit: bool,
    },
}

#[derive(Default)]
struct ShardTap {
    calls: AtomicU64,
    exchanges: Mutex<Vec<Exchange>>,
}

/// The benchmark's decorator around [`NetShard`]: counts backend calls,
/// puts a span around each 2PC verb, and — while tracing — keeps what
/// crossed the wire so the codec probe can replay it.
struct TappedShard {
    inner: NetShard,
    tap: Arc<ShardTap>,
}

impl TappedShard {
    fn keep(&self, exchange: impl FnOnce() -> Exchange) {
        if trace::enabled() {
            self.tap
                .exchanges
                .lock()
                .expect("tap mutex poisoned")
                .push(exchange());
        }
    }
}

impl ShardBackend for TappedShard {
    fn one_shot(&mut self, spec: &TxnSpec) -> Result<SpecOutcome, ShardError> {
        self.tap.calls.fetch_add(1, Ordering::Relaxed);
        trace::span("shard.one_shot", || self.inner.one_shot(spec))
    }

    fn prepare(&mut self, gtid: u64, ops: Vec<WorkloadOp>) -> Result<SpecOutcome, ShardError> {
        self.tap.calls.fetch_add(1, Ordering::Relaxed);
        let kept = trace::enabled().then(|| ops.clone());
        let vote = trace::span("shard.prepare", || self.inner.prepare(gtid, ops));
        if let (Some(ops), Ok(vote)) = (kept, &vote) {
            self.keep(|| Exchange::Prepare {
                gtid,
                ops,
                vote: vote.clone(),
            });
        }
        vote
    }

    fn decide(&mut self, gtid: u64, commit: bool) -> Result<(), ShardError> {
        self.tap.calls.fetch_add(1, Ordering::Relaxed);
        self.keep(|| Exchange::Decide { gtid, commit });
        trace::span("shard.decide", || self.inner.decide(gtid, commit))
    }
}

struct ShardCaller {
    router: ShardRouter,
    gen: Box<dyn Workload>,
    spec: Option<TxnSpec>,
    tap: Arc<ShardTap>,
    committed: u64,
    codec: CodecTotals,
}

impl Caller for ShardCaller {
    fn generate(&mut self) {
        self.spec = Some(self.gen.next_txn());
    }

    fn call(&mut self) -> CallOutcome {
        let spec = self.spec.as_ref().expect("generate before call");
        let outcome = trace::span("shard.execute", || self.router.execute(spec));
        let ok = outcome.as_ref().is_ok_and(|o| correct(spec, o));
        self.committed += u64::from(outcome.is_ok_and(|o| o.is_committed()));
        CallOutcome {
            attempted: 1,
            correct: u32::from(ok),
        }
    }

    fn probe_codec(&mut self) {
        let exchanges =
            std::mem::take(&mut *self.tap.exchanges.lock().expect("tap mutex poisoned"));
        for exchange in exchanges {
            match exchange {
                Exchange::Prepare { gtid, ops, vote } => self.codec.exchange(
                    |buf| encode_request(&Request::ShardPrepare { gtid, ops }, buf),
                    &Response::ShardVote {
                        gtid,
                        outcome: vote,
                    },
                ),
                Exchange::Decide { gtid, commit } => self.codec.exchange(
                    |buf| encode_request(&Request::ShardDecide { gtid, commit }, buf),
                    &Response::Ok,
                ),
            }
        }
        self.codec.txns += 1;
    }

    fn tally(&self, into: &mut Counts) {
        bump(into, "client.committed", self.committed);
        self.codec.tally(into);
        let stats = self.router.stats();
        bump(into, "shard.single", stats.single_shard);
        bump(into, "shard.cross", stats.cross_shard);
        bump(
            into,
            "shard.backend_calls",
            self.tap.calls.load(Ordering::Relaxed),
        );
    }
}

// --------------------------------------------------------------- olap.scan

/// The three rotating plans' span names, in rotation order; the suffix is
/// the `staged.ns_per_row.*` metric each feeds.
pub const OLAP_SPANS: [&str; 3] = [
    "staged.query.scan_agg",
    "staged.query.filter_group",
    "staged.query.filter_sort",
];

/// The seeded `olap.scan` table: key `k` holds `[k % 100, v_k, k]` with
/// `v_k` uniform in `[0, 1000)`. The generator also knows every plan's
/// answer in closed form, without touching the database.
struct OlapTable {
    values: Vec<i64>,
}

impl OlapTable {
    fn new(seed: u64) -> OlapTable {
        let mut rng = Rng::new(seed);
        OlapTable {
            values: (0..OLAP_ROWS).map(|_| rng.below(1_000) as i64).collect(),
        }
    }

    fn rows(&self) -> impl Iterator<Item = (u64, [i64; 3])> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(|(k, &v)| (k as u64, [(k as u64 % OLAP_GROUPS) as i64, v, k as i64]))
    }

    /// The expected result of each plan, in [`OLAP_SPANS`] order.
    fn answers(&self) -> [Vec<Row>; 3] {
        let total: i64 = self.values.iter().sum();
        let mut groups = vec![0i64; 10];
        let mut sevens = Vec::new();
        for (k, [g, v, _]) in self.rows() {
            if g < 10 {
                groups[g as usize] += v;
            }
            if g == 7 {
                sevens.push(vec![k as i64, v]);
            }
        }
        let groups = groups
            .into_iter()
            .enumerate()
            .map(|(g, sum)| vec![g as i64, sum])
            .collect();
        [vec![vec![total]], groups, sevens]
    }
}

/// Plan rows are `[key, g, v, w]`.
fn olap_plans(db: &Database, table: u32) -> [PlanNode; 3] {
    let scan = || db.scan_plan(table);
    [
        scan().aggregate(None, 2, AggFunc::Sum),
        scan()
            .filter(1, CmpOp::Lt, 10)
            .aggregate(Some(1), 2, AggFunc::Sum)
            .sort(0),
        scan().filter(1, CmpOp::Eq, 7).project(vec![0, 2]).sort(0),
    ]
}

struct OlapCaller {
    db: Arc<Database>,
    plans: [PlanNode; 3],
    answers: [Vec<Row>; 3],
    /// Calls made so far; the next plan is `turn % 3`.
    turn: usize,
    current: usize,
}

impl Caller for OlapCaller {
    fn generate(&mut self) {
        self.current = self.turn % 3;
        self.turn += 1;
    }

    fn call(&mut self) -> CallOutcome {
        let rows = trace::span(OLAP_SPANS[self.current], || {
            self.db.query(
                &self.plans[self.current],
                QueryEngine::Staged {
                    batch: DEFAULT_BATCH,
                },
            )
        });
        CallOutcome {
            attempted: 1,
            correct: u32::from(rows == self.answers[self.current]),
        }
    }

    fn tally(&self, _into: &mut Counts) {}
}

// ------------------------------------------------------------------ set-up

/// A set-up system: databases, servers, and the connected clients.
pub struct System {
    workload: &'static str,
    // Field order is drop order: clients hang up before their servers stop.
    callers: Vec<Box<dyn Caller>>,
    servers: Vec<Server>,
    dbs: Vec<Arc<Database>>,
    /// `olap.scan` only: the generator's closed-form answers, for the oracle.
    olap_answers: Option<[Vec<Row>; 3]>,
}

/// The workload names, in report order. `BENCHMARK.json` lists the same.
pub const WORKLOADS: [&str; 6] = [
    "engine.tpcb",
    "engine.ycsb.spill",
    "wire.tatp.d1",
    "wire.tpcb.d8",
    "shard.tpcb.x100",
    "olap.scan",
];

fn engine_config(buffer_frames: usize) -> EngineConfig {
    EngineConfig {
        buffer_frames,
        ..EngineConfig::conventional_baseline()
    }
}

fn open_loaded(workload: &dyn Workload, buffer_frames: usize) -> Result<Arc<Database>, String> {
    let db = Arc::new(Database::open(engine_config(buffer_frames)));
    db.load_population(workload)
        .map_err(|e| format!("population load: {e}"))?;
    Ok(db)
}

fn start_server(db: &Arc<Database>, config: ServerConfig) -> Result<Server, String> {
    Server::start(
        Arc::clone(db),
        "127.0.0.1:0",
        ServerConfig {
            reactors: 1,
            ..config
        },
    )
    .map_err(|e| format!("bind loopback: {e}"))
}

fn connect(server: &Server) -> Result<Client, String> {
    Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))
}

/// The generator a workload's clients fork from. Shared with the
/// determinism tests, so "same seed, same inputs" is checked on the very
/// constructors [`set_up`] uses.
fn generator(workload: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match workload {
        "engine.tpcb" | "wire.tpcb.d8" => Box::new(Tpcb::new(TPCB_BRANCHES, seed)),
        "engine.ycsb.spill" => Box::new(Ycsb::new(YCSB_RECORDS, 95, 0.5, 4, seed)),
        "wire.tatp.d1" => Box::new(Tatp::new(TATP_SUBSCRIBERS, seed)),
        _ => return None,
    })
}

/// Opens, loads, starts and connects everything `workload` needs, up to the
/// point where the first request can be sent. The caller times this.
pub fn set_up(workload: &str, seed: u64) -> Result<System, String> {
    let name = *WORKLOADS
        .iter()
        .find(|w| **w == workload)
        .ok_or_else(|| format!("unknown workload {workload:?}; known: {WORKLOADS:?}"))?;
    let mut sys = System {
        workload: name,
        callers: Vec::new(),
        servers: Vec::new(),
        dbs: Vec::new(),
        olap_answers: None,
    };
    match name {
        "engine.tpcb" | "engine.ycsb.spill" => {
            let mut gen = generator(name, seed).expect("engine workloads have a generator");
            let frames = if name == "engine.tpcb" {
                RESIDENT_FRAMES
            } else {
                SPILL_FRAMES
            };
            let db = open_loaded(gen.as_ref(), frames)?;
            sys.callers.push(Box::new(EngineCaller {
                db: Arc::clone(&db),
                gen: gen.fork(),
                spec: None,
                committed: 0,
                adds: 0,
            }));
            sys.dbs.push(db);
        }
        "wire.tatp.d1" | "wire.tpcb.d8" => {
            let mut gen = generator(name, seed).expect("wire workloads have a generator");
            let db = open_loaded(gen.as_ref(), RESIDENT_FRAMES)?;
            let server = start_server(&db, ServerConfig::default())?;
            for _ in 0..2 {
                sys.callers.push(Box::new(WireCaller {
                    client: connect(&server)?,
                    gen: gen.fork(),
                    depth: if name == "wire.tatp.d1" {
                        1
                    } else {
                        PIPELINE_DEPTH
                    },
                    specs: Vec::new(),
                    outcomes: Vec::new(),
                    committed: 0,
                    codec: CodecTotals::default(),
                }));
            }
            sys.servers.push(server);
            sys.dbs.push(db);
        }
        "shard.tpcb.x100" => {
            let mut gen =
                ShardedTpcb::new(TPCB_BRANCHES, SHARD_ACCOUNTS_PER_BRANCH, 100, SHARDS, seed);
            let part = gen.partitioner();
            let coord = Arc::new(DecisionLog::new());
            let tap = Arc::new(ShardTap::default());
            let mut backends: Vec<Box<dyn ShardBackend>> = Vec::new();
            for idx in 0..SHARDS {
                let db = Arc::new(Database::open(engine_config(RESIDENT_FRAMES)));
                load_shard_population(&db, &gen, &part, idx, SHARDS)
                    .map_err(|e| format!("shard {idx} population: {e}"))?;
                let config = ServerConfig {
                    decision_source: Some(coord.decision_source()),
                    ..ServerConfig::default()
                };
                let server = start_server(&db, config)?;
                let inner = NetShard(connect(&server)?);
                backends.push(Box::new(TappedShard {
                    inner,
                    tap: Arc::clone(&tap),
                }));
                sys.servers.push(server);
                sys.dbs.push(db);
            }
            let router = ShardRouter::new(backends, Arc::new(part), coord)
                .map_err(|e| format!("router: {e}"))?;
            sys.callers.push(Box::new(ShardCaller {
                router,
                gen: gen.fork(),
                spec: None,
                tap,
                committed: 0,
                codec: CodecTotals::default(),
            }));
        }
        "olap.scan" => {
            let table_gen = OlapTable::new(seed);
            let db = Arc::new(Database::open(engine_config(RESIDENT_FRAMES)));
            let table = db
                .create_table("facts", 3)
                .map_err(|e| format!("create table: {e}"))?;
            let handle = db.table(table).expect("table just created");
            for (key, row) in table_gen.rows() {
                handle
                    .insert(key, &row)
                    .map_err(|e| format!("olap load: {e}"))?;
            }
            db.pool()
                .flush_all()
                .map_err(|e| format!("olap flush: {e}"))?;
            let answers = table_gen.answers();
            sys.olap_answers = Some(answers.clone());
            sys.callers.push(Box::new(OlapCaller {
                plans: olap_plans(&db, table),
                answers,
                db: Arc::clone(&db),
                turn: 0,
                current: 0,
            }));
            sys.dbs.push(db);
        }
        _ => unreachable!("every name in WORKLOADS is set up above"),
    }
    Ok(sys)
}

fn histogram(counts: &mut Counts, component: Component, count: &'static str, sum: &'static str) {
    let snap = esdb_obs::global().component(component);
    counts.insert(count, snap.count);
    counts.insert(sum, snap.sum);
}

impl System {
    /// The connected clients, one per closed-loop thread.
    pub fn callers(&mut self) -> &mut [Box<dyn Caller>] {
        &mut self.callers
    }

    /// Every layer counter the program exposes through public snapshot
    /// calls, summed over this system's databases and servers, plus the
    /// clients' own tallies. Take it while no client is mid-call.
    pub fn counts(&self) -> Counts {
        let mut c = Counts::new();
        for db in &self.dbs {
            let engine = db.stats_snapshot();
            bump(&mut c, "core.commits", engine.commits);
            bump(&mut c, "core.aborts", engine.aborts);
            bump(&mut c, "wal.flushes", engine.wal_flushes);
            bump(&mut c, "wal.bytes", engine.current_lsn);
            let pool = db.pool().stats();
            bump(&mut c, "storage.pool_hits", pool.hits);
            bump(&mut c, "storage.pool_misses", pool.misses);
            bump(&mut c, "storage.writebacks", pool.writebacks);
        }
        for server in &self.servers {
            let stats = server.stats();
            bump(&mut c, "net.txns_executed", stats.txns_executed);
            bump(&mut c, "net.txns_committed", stats.txns_committed);
            bump(&mut c, "net.batches", stats.batches);
        }
        // Process-global histograms: one benchmark process runs one system.
        histogram(&mut c, Component::LockWait, "lock.waits", "lock.wait_ns");
        histogram(
            &mut c,
            Component::WalFlush,
            "wal.flush_waits",
            "wal.flush_wait_ns",
        );
        histogram(
            &mut c,
            Component::PoolMiss,
            "storage.pool_miss_count",
            "storage.pool_miss_ns",
        );
        histogram(
            &mut c,
            Component::TxnLatency,
            "core.txns_timed",
            "core.txn_ns",
        );
        histogram(
            &mut c,
            Component::ReactorTick,
            "net.ticks",
            "net.reactor_tick_ns",
        );
        for caller in &self.callers {
            caller.tally(&mut c);
        }
        c
    }

    /// The output oracles. Hangs up the clients, stops the servers, then
    /// checks what the whole run — warm-up included — left in the databases
    /// against what the clients were told. Returns one line per check passed.
    pub fn check_outputs(mut self) -> Result<Vec<String>, String> {
        let counts = self.counts();
        let committed = counts.get("client.committed").copied().unwrap_or(0);
        let mut passed = Vec::new();
        if !self.servers.is_empty() && self.workload != "shard.tpcb.x100" {
            // A 2PC commit bumps the server counter once per participant, so
            // this identity holds on the single-server workloads only.
            let server_side = counts["net.txns_committed"];
            if server_side != committed {
                return Err(format!(
                    "ServerStats.txns_committed = {server_side} but clients saw {committed} commits"
                ));
            }
            passed.push(format!(
                "server-side commits = client-observed commits = {committed}"
            ));
        }
        let mut durability_client = None;
        if self.workload == "engine.tpcb" {
            durability_client = self.callers.pop();
        }
        self.callers.clear();
        self.servers.clear();
        match self.workload {
            "engine.tpcb" => {
                passed.push(tpcb_conservation(&self.dbs, committed)?);
                let client = durability_client.expect("engine.tpcb has one client");
                passed.push(durability(&self.dbs[0], client, committed)?);
            }
            "wire.tpcb.d8" => passed.push(tpcb_conservation(&self.dbs, committed)?),
            "shard.tpcb.x100" => {
                for (idx, db) in self.dbs.iter().enumerate() {
                    let in_doubt = db.prepared_gtids();
                    if !in_doubt.is_empty() {
                        return Err(format!(
                            "shard {idx} still holds prepared gtids {in_doubt:?}"
                        ));
                    }
                }
                passed.push("no shard holds a prepared transaction".to_string());
                passed.push(tpcb_conservation(&self.dbs, committed)?);
            }
            "engine.ycsb.spill" => {
                let total = column_sum(&self.dbs[0], 0, 2);
                let adds = counts["client.adds"] as i64;
                if total != adds {
                    return Err(format!(
                        "YCSB counter column sums to {total}, clients added {adds}"
                    ));
                }
                passed.push(format!(
                    "YCSB counter column = committed increments = {adds}"
                ));
            }
            "olap.scan" => {
                // Every staged result was already compared with the
                // generator's closed form; Volcano must agree with both.
                let db = &self.dbs[0];
                let answers = self.olap_answers.as_ref().expect("set up with the table");
                for (plan, (name, expect)) in
                    olap_plans(db, 0).iter().zip(OLAP_SPANS.iter().zip(answers))
                {
                    if &db.query(plan, QueryEngine::Volcano) != expect {
                        return Err(format!("{name}: Volcano disagrees with the closed form"));
                    }
                }
                passed.push("staged = Volcano = closed form on all three plans".to_string());
            }
            _ => {}
        }
        Ok(passed)
    }
}

/// `SUM(plan_col)` over `table` (`plan_col` counts the key as column 0).
fn column_sum(db: &Database, table: u32, plan_col: usize) -> i64 {
    let plan = db.scan_plan(table).aggregate(None, plan_col, AggFunc::Sum);
    db.query(&plan, QueryEngine::Volcano)
        .first()
        .map_or(0, |row| row[0])
}

/// TPC-B conservation across `dbs` (one database, or every shard): the
/// branch, teller and account balances and the history deltas all sum to the
/// same amount, and there is one history row per acknowledged commit.
fn tpcb_conservation(dbs: &[Arc<Database>], committed: u64) -> Result<String, String> {
    let sum =
        |table: u32, col: usize| -> i64 { dbs.iter().map(|db| column_sum(db, table, col)).sum() };
    let (branches, tellers, accounts, history) = (
        sum(BRANCHES, 1),
        sum(TELLERS, 2),
        sum(ACCOUNTS, 2),
        sum(HISTORY, 3),
    );
    if !(branches == tellers && tellers == accounts && accounts == history) {
        return Err(format!(
            "TPC-B conservation broken: branches {branches}, tellers {tellers}, \
             accounts {accounts}, history {history}"
        ));
    }
    let rows: u64 = dbs
        .iter()
        .map(|db| db.table(HISTORY).expect("history table exists").len())
        .sum();
    if rows != committed {
        return Err(format!(
            "{rows} history rows but {committed} acknowledged commits"
        ));
    }
    Ok(format!(
        "TPC-B conservation holds at {branches} over {rows} history rows = commits"
    ))
}

/// Durability: checkpoint (so recovery replays a bounded tail, not the
/// whole run), run [`DURABILITY_TAIL`] more acknowledged transactions, then
/// crash without flushing pages. The recovered database must hold every
/// acknowledged commit — a "faster" flush path that drops one fails here.
fn durability(
    db: &Database,
    mut client: Box<dyn Caller>,
    committed: u64,
) -> Result<String, String> {
    let redo_from = db.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
    db.wal().truncate_before(redo_from);
    for _ in 0..DURABILITY_TAIL {
        client.generate();
        if client.call().correct != 1 {
            return Err("a transaction failed between checkpoint and crash".to_string());
        }
    }
    let recovered = [Arc::new(db.simulate_crash(false))];
    tpcb_conservation(&recovered, committed + DURABILITY_TAIL)
        .map(|line| format!("after simulate_crash(false): {line}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_specs(workload: &str, seed: u64, n: usize) -> Vec<TxnSpec> {
        let mut gen: Box<dyn Workload> = match workload {
            "shard.tpcb.x100" => Box::new(ShardedTpcb::new(
                TPCB_BRANCHES,
                SHARD_ACCOUNTS_PER_BRANCH,
                100,
                SHARDS,
                seed,
            )),
            w => generator(w, seed).expect("an OLTP workload"),
        };
        let mut client = gen.fork();
        (0..n).map(|_| client.next_txn()).collect()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for workload in WORKLOADS.iter().filter(|w| **w != "olap.scan") {
            let a = first_specs(workload, 42, 10_000);
            assert_eq!(
                a,
                first_specs(workload, 42, 10_000),
                "{workload}: seed 42 twice"
            );
            assert_ne!(
                a,
                first_specs(workload, 43, 10_000),
                "{workload}: seed 42 vs 43"
            );
        }
        let (a, b) = (OlapTable::new(42), OlapTable::new(43));
        assert_eq!(a.values, OlapTable::new(42).values);
        assert_ne!(a.values, b.values);
    }

    #[test]
    fn every_cross_shard_txn_straddles_both_shards() {
        for spec in first_specs("shard.tpcb.x100", 42, 1_000) {
            assert_eq!(spec.kind, "CrossShard");
        }
    }

    #[test]
    fn olap_closed_form_matches_a_direct_fold() {
        let t = OlapTable::new(7);
        let [total, groups, sevens] = t.answers();
        assert_eq!(total, vec![vec![t.values.iter().sum::<i64>()]]);
        assert_eq!(groups.len(), 10);
        assert_eq!(groups[3][0], 3);
        let g3: i64 = t
            .values
            .iter()
            .enumerate()
            .filter(|(k, _)| k % 100 == 3)
            .map(|(_, v)| v)
            .sum();
        assert_eq!(groups[3][1], g3);
        assert_eq!(sevens.len() as u64, OLAP_ROWS / OLAP_GROUPS);
        assert_eq!(sevens[1], vec![107, t.values[107]]);
    }

    #[test]
    fn unknown_workload_is_refused_with_the_known_names() {
        let err = set_up("engine.nope", 1).err().expect("refused");
        assert!(err.contains("engine.tpcb"), "{err}");
    }
}

//! tab_htap — commit-consistent OLAP on a follower while TPC-B writes run on
//! the primary.
//!
//! Three configurations, identical write workload:
//!
//! * **baseline** — primary + attached follower, writes only: the reference
//!   commit throughput with log shipping already paid for;
//! * **pinned** — same topology, plus a thread holding the follower's
//!   apply-gate *read* side for the entire burst: the worst-case analytical
//!   pin (a query that never finishes) at zero CPU cost, so the measured
//!   ratio isolates commit-path coupling from plain CPU time-sharing;
//! * **htap** — same topology, plus a closed-loop analytical client hammering
//!   the follower with wire `Query` frames (full-table aggregates over the
//!   TPC-B accounts, and index-scan vs full-scan pairs over a side table).
//!
//! Headline cells:
//!
//! * `degradation(pin)` = pinned primary tps / baseline primary tps — the
//!   paper's embarrassing-scalability claim applied to HTAP: a pinned
//!   analytical cut on a follower must not tax the primary's commit path
//!   (target ~1.0). `degradation(olap)` is the busy-OLAP ratio: on a
//!   single-vCPU host it mostly prices time-sharing between the OLAP client
//!   and the primary, not engine coupling;
//! * `ix=scan` — every index-assisted query returned exactly the rows its
//!   full-scan twin did, on every probe, mid-stream (asserted in every rep);
//! * OLAP freshness lag (`primary durable LSN − follower watermark`, bytes),
//!   sampled at each query — how stale the follower's consistent cuts run;
//! * a read-your-writes probe: after the last commit, a `Query` pinned at
//!   the writer's commit token must be served (bounded wait), proving the
//!   freshness token composes with analytical plans, not just point reads.
//!
//! Env knobs (CI smoke): TABH_WRITERS, TABH_WRITES (total), TABH_REPS
//! (best-of-N on primary tps; the match/RYW cells must hold in every rep).

use esdb_bench::{header, row};
use esdb_core::{Database, EngineConfig};
use esdb_net::{Client, ReconnectPolicy, Role, Server, ServerConfig, WirePlan};
use esdb_repl::start_replica;
use esdb_staged::{AggFunc, CmpOp};
use esdb_storage::{IndexDef, IndexKind};
use esdb_workload::tpcb::ACCOUNTS;
use esdb_workload::{Tpcb, Workload};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .map(|s| s.parse().unwrap_or_else(|_| panic!("{name}: integer")))
        .unwrap_or(default)
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

const HOT_ROWS: u64 = 512;
const HOT_HASH: u32 = 0;
const HOT_RANGE: u32 = 1;

/// The analytical plans the OLAP client cycles through.
fn sum_plan() -> WirePlan {
    // Accounts scan emits [key, branch, balance]; balance is plan column 2.
    WirePlan::Aggregate {
        input: Box::new(WirePlan::Scan { table: ACCOUNTS }),
        group_col: None,
        agg_col: 2,
        func: AggFunc::Sum,
    }
}

fn index_plan(hot: u32, lo: i64, hi: i64) -> WirePlan {
    WirePlan::IndexScan { table: hot, index: HOT_RANGE, lo, hi }
}

fn fullscan_plan(hot: u32, lo: i64, hi: i64) -> WirePlan {
    // Same predicate as the index scan, answered the slow way: scan emits
    // [key, c0, c1], the range-indexed column c1 is plan column 2.
    WirePlan::Filter {
        input: Box::new(WirePlan::Filter {
            input: Box::new(WirePlan::Scan { table: hot }),
            col: 2,
            op: CmpOp::Ge,
            value: lo,
        }),
        col: 2,
        op: CmpOp::Le,
        value: hi,
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Writes only.
    Baseline,
    /// Writes + a reader holding the follower's apply-gate read side for the
    /// whole burst — an unbounded pinned query at zero CPU cost.
    Pinned,
    /// Writes + the closed-loop wire-query analytical client.
    Olap,
}

struct HtapResult {
    primary_tps: f64,
    olap_qps: f64,
    freshness_p50: u64,
    freshness_p99: u64,
    index_match: bool,
    ryw_ok: bool,
}

fn run_config(mode: Mode, writers: usize, writes: u64) -> HtapResult {
    let db = Arc::new(Database::open(EngineConfig::conventional_baseline()));
    let mut workload = Tpcb::new(1, 42);
    db.load_population(&workload).expect("population load");
    // Side table with real secondary indexes, static during the run so the
    // index-vs-fullscan probes have a deterministic answer mid-stream.
    let hot = db
        .create_table_with_indexes(
            "hot",
            2,
            vec![
                IndexDef { id: HOT_HASH, name: "hot_by_c0".into(), col: 0, kind: IndexKind::Hash },
                IndexDef { id: HOT_RANGE, name: "hot_by_c1".into(), col: 1, kind: IndexKind::Range },
            ],
        )
        .expect("create hot table");
    db.execute(|txn| {
        for k in 0..HOT_ROWS {
            txn.insert(hot, k, &[(k % 32) as i64, ((k * 7) % 256) as i64])?;
        }
        Ok(())
    })
    .expect("populate hot table");

    let primary = Server::start(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig { max_sessions: writers + 8, ..ServerConfig::default() },
    )
    .expect("bind primary");
    let primary_addr = primary.local_addr();

    let handle = start_replica(
        primary_addr,
        EngineConfig::conventional_baseline(),
        ReconnectPolicy::default(),
    )
    .expect("replica bootstrap");
    let role = handle.follower(Duration::from_millis(500));
    let (watermark, gate) = (Arc::clone(&role.applied), Arc::clone(&role.gate));
    let follower = Server::start(
        Arc::clone(handle.db()),
        "127.0.0.1:0",
        ServerConfig { role: Role::Follower(role), max_sessions: 8, ..ServerConfig::default() },
    )
    .expect("bind follower");
    let follower_addr = follower.local_addr();

    // Primary write burst across `writers` closed-loop connections.
    let writers_done = Arc::new(AtomicBool::new(false));
    let write_start = Instant::now();
    let mut write_handles = Vec::new();
    for _ in 0..writers {
        let mut gen = workload.fork();
        let share = writes / writers as u64;
        write_handles.push(std::thread::spawn(move || {
            let mut client = Client::connect_with_backoff(primary_addr, &ReconnectPolicy::default())
                .expect("writer connect");
            for _ in 0..share {
                client.one_shot(&gen.next_txn()).expect("write txn");
            }
        }));
    }

    // The worst-case pin: take the apply gate's read side before the burst
    // and hold it until the writers finish. The follower's apply loop stalls
    // completely (its frontier freezes at one consistent cut), which must
    // cost the primary nothing.
    let pin_thread = if mode == Mode::Pinned {
        let done = Arc::clone(&writers_done);
        Some(std::thread::spawn(move || {
            let pin = gate.read();
            while !done.load(Ordering::SeqCst) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            drop(pin);
        }))
    } else {
        None
    };

    // The OLAP loop: wire `Query` frames against the follower until the
    // writers finish, sampling freshness lag after every answered query.
    // The first probe runs whatever the writers do, so even a burst that
    // ends before the client connects checks something.
    let olap_thread = if mode == Mode::Olap {
        let done = Arc::clone(&writers_done);
        let db = Arc::clone(&db);
        Some(std::thread::spawn(move || {
            let mut client = Client::connect_with_backoff(follower_addr, &ReconnectPolicy::default())
                .expect("olap connect");
            let mut queries = 0u64;
            let mut lag = Vec::new();
            let mut mismatches = 0u64;
            let start = Instant::now();
            loop {
                let rows = client
                    .query_at(0, &sum_plan())
                    .expect("olap sum query")
                    .expect("min_lsn 0 can never lag");
                assert!(rows.len() <= 1, "ungrouped aggregate: at most one row");
                lag.push(db.wal().durable_lsn().saturating_sub(watermark.load(Ordering::Acquire)));
                // Every probe also runs the index-vs-fullscan pair; the hot
                // table is static, so the two answers must be identical rows.
                let (lo, hi) = (32 + (queries % 64) as i64, 96 + (queries % 64) as i64);
                let mut ix = client
                    .query_at(0, &index_plan(hot, lo, hi))
                    .expect("index query")
                    .expect("min_lsn 0 can never lag");
                let mut fs = client
                    .query_at(0, &fullscan_plan(hot, lo, hi))
                    .expect("fullscan query")
                    .expect("min_lsn 0 can never lag");
                ix.sort();
                fs.sort();
                if ix != fs || ix.is_empty() {
                    mismatches += 1;
                }
                queries += 1;
                if done.load(Ordering::SeqCst) {
                    break;
                }
            }
            let qps = queries as f64 / start.elapsed().as_secs_f64();
            (qps, lag, mismatches)
        }))
    } else {
        None
    };

    for h in write_handles {
        h.join().expect("writer thread");
    }
    let primary_tps = writes as f64 / write_start.elapsed().as_secs_f64();
    writers_done.store(true, Ordering::SeqCst);

    if let Some(h) = pin_thread {
        h.join().expect("pin thread");
    }
    let (olap_qps, mut lag, mismatches) =
        olap_thread.map_or((0.0, Vec::new(), 0), |h| h.join().expect("olap thread"));
    // One lag sample per answered probe.
    assert!(mode != Mode::Olap || !lag.is_empty(), "an OLAP rep answered no queries");
    lag.sort_unstable();

    // Read-your-writes for analytical plans: commit once more, take the
    // token, and require the follower to serve a Query pinned at it.
    let ryw_ok = {
        let mut writer = Client::connect(primary_addr).expect("ryw writer");
        writer.one_shot(&workload.next_txn()).expect("ryw txn");
        let token = writer.commit_token().expect("token");
        let mut reader = Client::connect(follower_addr).expect("ryw olap reader");
        matches!(reader.query_at(token, &sum_plan()), Ok(Ok(rows)) if rows.len() == 1)
    };

    let result = HtapResult {
        primary_tps,
        olap_qps,
        freshness_p50: percentile(&lag, 0.50),
        freshness_p99: percentile(&lag, 0.99),
        index_match: mismatches == 0,
        ryw_ok,
    };
    follower.shutdown();
    handle.shutdown().expect("clean replica stop");
    primary.shutdown();
    result
}

fn main() {
    let writers = env_u64("TABH_WRITERS", 2) as usize;
    let writes = env_u64("TABH_WRITES", 2_000);
    let reps = env_u64("TABH_REPS", 3) as usize;

    header(
        "tab_htap",
        &format!(
            "TPC-B writes on the primary ± follower OLAP (wire Query frames), \
             {writers} writer threads, {writes} writes per config"
        ),
        &["config", "primary_tps", "olap_qps", "fresh_p50_B", "fresh_p99_B", "ix=scan", "ryw"],
    );

    // Best-of-N on primary tps (host noise only slows runs down); the
    // correctness cells — index/fullscan equality and token-pinned RYW —
    // must hold in EVERY rep, not just the reported one.
    let best = |mode: Mode| {
        let mut best: Option<HtapResult> = None;
        for _ in 0..reps.max(1) {
            let r = run_config(mode, writers, writes);
            assert!(r.index_match, "index-assisted query diverged from full scan");
            assert!(r.ryw_ok, "follower failed a token-pinned analytical query");
            if best.as_ref().map_or(true, |b| r.primary_tps > b.primary_tps) {
                best = Some(r);
            }
        }
        best.expect("at least one rep")
    };
    let base = best(Mode::Baseline);
    let pinned = best(Mode::Pinned);
    let htap = best(Mode::Olap);
    let degradation_ratio = pinned.primary_tps / base.primary_tps;
    let olap_ratio = htap.primary_tps / base.primary_tps;

    for (name, r) in [("baseline", &base), ("pinned", &pinned), ("htap", &htap)] {
        row(&[
            name.to_string(),
            format!("{:.0}", r.primary_tps),
            format!("{:.1}", r.olap_qps),
            format!("{}", r.freshness_p50),
            format!("{}", r.freshness_p99),
            if r.index_match { "ok".into() } else { "DIVERGED".into() },
            if r.ryw_ok { "ok".into() } else { "VIOLATED".into() },
        ]);
    }
    row(&["degradation(pin)".into(), format!("{degradation_ratio:.3}"), "".into(), "".into(), "".into(), "".into(), "".into()]);
    row(&["degradation(olap)".into(), format!("{olap_ratio:.3}"), "".into(), "".into(), "".into(), "".into(), "".into()]);

    println!(
        "\nreading guide: all three configs run the identical primary write burst.\n\
         pinned adds a zero-CPU thread holding the follower's apply gate for the\n\
         whole burst — the worst-case analytical pin — so degradation(pin) near\n\
         1.0 is the HTAP claim: follower OLAP rides the already-paid log-shipping\n\
         stream and never touches the primary's commit path. htap adds a busy\n\
         closed-loop analytical client instead; on a single-vCPU host its\n\
         degradation(olap) conflates commit-path coupling with plain CPU\n\
         time-sharing, so it is context, not a claim. Freshness\n\
         columns bound how far behind a pinned analytical cut runs (bytes of\n\
         shipped-but-unapplied log). ix=scan asserts every index-assisted probe\n\
         returned exactly its full-scan twin's rows, and ryw that a\n\
         commit-token-pinned Query is served once the follower's consistent cut\n\
         passes the token."
    );
}

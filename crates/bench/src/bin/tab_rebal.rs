//! tab_rebal — foreground cost of a live slot migration between two shards.
//!
//! Two configurations, identical foreground workload (closed-loop writer
//! threads driving a routing-aware `ShardRouter` over two in-process
//! shards, mixing single-shard writes with cross-shard 2PC pairs):
//!
//! * **baseline** — the ownership gate and live routing table are active
//!   (the always-on cost of being migratable), but no migration runs;
//! * **migrating** — a full live migration of one slot (fuzzy copy → WAL
//!   delta catch-up → fence → cutover → cleanup) completes *during* the
//!   burst, with the catch-up pump sleeping between rounds so the measured
//!   ratio isolates migration coupling from plain CPU time-sharing —
//!   the zero-CPU-pin methodology of tab_htap applied to rebalancing.
//!
//! Headline cells:
//!
//! * `degradation` = migrating tps / baseline tps: a live migration must
//!   not tax foreground writes beyond the fence window;
//! * `fence_ms` — the write-blocked window (the fence + cutover steps,
//!   during which writers touching the moving slot park). Its 250 ms bound
//!   is asserted by `migration_torture.rs`'s fence-window test;
//! * `copy_rows_per_s`, `lag_B`, `retries` — bulk-copy throughput, lag when
//!   the fence decision fired, and how many foreground transactions crossed
//!   the cutover and recovered via the typed refusal + refresh path.

use esdb_bench::{header, row};
use esdb_core::{Database, EngineConfig, RoutingTable};
use esdb_rebal::{Migration, MigrationEnv, MigrationLog, MigrationSpec, Phase, ShardHandle};
use esdb_shard::{
    DecisionLog, OwnedShard, ShardBackend, ShardOwnership, ShardRouter, SharedRouting,
};
use esdb_workload::{TxnSpec, WorkloadOp};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SLOTS: u32 = 16;
const MOVING: u32 = 0;
const T: u32 = 0;
/// Closed-loop foreground writer threads.
const WRITERS: usize = 2;
/// Foreground writes per config, split across the writers.
const WRITES: u64 = 20_000;
/// Seeded rows spread over the slots.
const ROWS: u64 = 4_096;
/// Best-of-N repetitions per config.
const REPS: usize = 3;

struct Cluster {
    dbs: Vec<Arc<Database>>,
    owns: Vec<Arc<ShardOwnership>>,
    routing: Arc<SharedRouting>,
    coord: Arc<DecisionLog>,
}

fn cluster() -> Cluster {
    let table = RoutingTable::uniform(2, SLOTS);
    let routing = Arc::new(SharedRouting::new(table.clone()));
    let mut dbs = Vec::new();
    let mut owns = Vec::new();
    for shard in 0..2u32 {
        let db = Arc::new(Database::open(EngineConfig::default()));
        db.create_table("t", 1).unwrap();
        let keys: Vec<u64> = (0..ROWS).filter(|&k| table.shard_of(T, k) == shard).collect();
        for chunk in keys.chunks(128) {
            db.execute(|txn| {
                for &k in chunk {
                    txn.insert(T, k, &[k as i64])?;
                }
                Ok(())
            })
            .expect("seed rows");
        }
        dbs.push(db);
        owns.push(Arc::new(ShardOwnership::for_shard(&table, shard)));
    }
    Cluster { dbs, owns, routing, coord: Arc::new(DecisionLog::new()) }
}

fn router_of(c: &Cluster) -> ShardRouter {
    let shards: Vec<Box<dyn ShardBackend>> = (0..2)
        .map(|s| {
            Box::new(OwnedShard {
                db: Arc::clone(&c.dbs[s]),
                own: Arc::clone(&c.owns[s]),
                routing: Arc::clone(&c.routing),
            }) as Box<dyn ShardBackend>
        })
        .collect();
    ShardRouter::with_routing(shards, Arc::clone(&c.routing), Arc::clone(&c.coord), None)
        .unwrap()
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Baseline,
    Migrating,
}

#[derive(Default)]
struct RebalResult {
    foreground_tps: f64,
    wrong_shard_retries: u64,
    copy_rows_per_s: f64,
    catchup_lag_bytes: u64,
    fence_ms: f64,
    shipped_ops: u64,
}

fn run_config(mode: Mode) -> RebalResult {
    let c = cluster();

    let mut handles = Vec::new();
    let start = Instant::now();
    for w in 0..WRITERS {
        let (dbs, owns) = (c.dbs.clone(), c.owns.clone());
        let (routing, coord) = (Arc::clone(&c.routing), Arc::clone(&c.coord));
        let share = WRITES / WRITERS as u64;
        handles.push(std::thread::spawn(move || {
            let cl = Cluster { dbs, owns, routing, coord };
            let mut router = router_of(&cl);
            let mut rng = 0x9E3779B97F4A7C15u64.wrapping_mul(w as u64 + 1) | 1;
            let mut rand = move || {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                rng >> 33
            };
            for i in 0..share {
                let k = rand() % ROWS;
                let spec = if i % 5 == 0 {
                    // Cross-shard pair under the current table.
                    let table = cl.routing.current();
                    let mut k2 = rand() % ROWS;
                    for _ in 0..64 {
                        if table.shard_of(T, k2) != table.shard_of(T, k) {
                            break;
                        }
                        k2 = rand() % ROWS;
                    }
                    TxnSpec {
                        kind: "xshard",
                        ops: vec![
                            WorkloadOp::Write { table: T, key: k, row: vec![i as i64] },
                            WorkloadOp::Write { table: T, key: k2, row: vec![i as i64] },
                        ],
                        may_fail: false,
                    }
                } else {
                    TxnSpec {
                        kind: "write",
                        ops: vec![WorkloadOp::Write { table: T, key: k, row: vec![i as i64] }],
                        may_fail: false,
                    }
                };
                let outcome = router.execute(&spec).expect("foreground write");
                assert!(outcome.is_committed(), "foreground write must commit");
            }
            router.stats().wrong_shard_retries
        }));
    }

    // The migration runs concurrently with the burst: copy, park in
    // catch-up with 1 ms sleeps between pump rounds (near-zero CPU), then
    // fence and cut over as soon as lag allows.
    let mig = if mode == Mode::Migrating {
        let env = MigrationEnv {
            source: ShardHandle { db: Arc::clone(&c.dbs[0]), own: Arc::clone(&c.owns[0]) },
            dest: ShardHandle { db: Arc::clone(&c.dbs[1]), own: Arc::clone(&c.owns[1]) },
            routing: Arc::clone(&c.routing),
            coord: Arc::clone(&c.coord),
        };
        Some(std::thread::spawn(move || {
            let mlog = Arc::new(MigrationLog::new());
            let spec = MigrationSpec { mid: 1, slot: MOVING, from: 0, to: 1 };
            let mut m = Migration::new(mlog, spec, env);
            m.fence_lag_bytes = 1 << 16;
            let (mut copy_s, mut fence_s, mut lag_at_fence, mut last_lag) = (0.0, 0.0, 0u64, 0);
            loop {
                if m.phase() == Phase::CatchUp {
                    last_lag = m.lag();
                }
                let t0 = Instant::now();
                let p = m.step().expect("migration step");
                let dt = t0.elapsed().as_secs_f64();
                match p {
                    Phase::Copying => copy_s += dt,
                    Phase::Fenced => {
                        fence_s += dt;
                        lag_at_fence = last_lag;
                    }
                    Phase::CutOver => fence_s += dt,
                    Phase::Done => break,
                    _ => {}
                }
                if p == Phase::CatchUp {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            (m.stats, copy_s, fence_s, lag_at_fence)
        }))
    } else {
        None
    };

    let mut retries = 0u64;
    for h in handles {
        retries += h.join().expect("writer thread");
    }
    let foreground_tps = WRITES as f64 / start.elapsed().as_secs_f64();
    let (stats, copy_s, fence_s, lag_at_fence) = mig.map_or(
        (esdb_rebal::MigrationStats::default(), 0.0, 0.0, 0),
        |h| h.join().expect("migration thread"),
    );

    RebalResult {
        foreground_tps,
        wrong_shard_retries: retries,
        copy_rows_per_s: if copy_s > 0.0 { stats.copied_rows as f64 / copy_s } else { 0.0 },
        catchup_lag_bytes: lag_at_fence,
        fence_ms: fence_s * 1e3,
        shipped_ops: stats.shipped_ops,
    }
}

fn main() {
    header(
        "tab_rebal",
        &format!(
            "foreground writes across 2 shards ± a live slot migration, \
             {WRITERS} writer threads, {WRITES} writes per config, {ROWS} seeded rows"
        ),
        &["config", "fg_tps", "retries", "copy_rows_per_s", "lag_B", "fence_ms", "shipped"],
    );

    // Best-of-N on foreground tps; the fence window keeps its *minimum*
    // across reps — host noise only ever inflates both.
    let best = |mode: Mode| {
        let mut best: Option<RebalResult> = None;
        for _ in 0..REPS {
            let r = run_config(mode);
            let better = match &best {
                None => true,
                Some(b) => r.foreground_tps > b.foreground_tps,
            };
            let fence_min = best.as_ref().map_or(r.fence_ms, |b| {
                if b.fence_ms > 0.0 { b.fence_ms.min(r.fence_ms) } else { r.fence_ms }
            });
            if better {
                best = Some(r);
            }
            if let Some(b) = best.as_mut() {
                b.fence_ms = fence_min;
            }
        }
        best.expect("at least one rep")
    };
    let base = best(Mode::Baseline);
    let mig = best(Mode::Migrating);
    let degradation_ratio = mig.foreground_tps / base.foreground_tps;

    for (name, r) in [("baseline", &base), ("migrating", &mig)] {
        row(&[
            name.to_string(),
            format!("{:.0}", r.foreground_tps),
            format!("{}", r.wrong_shard_retries),
            format!("{:.0}", r.copy_rows_per_s),
            format!("{}", r.catchup_lag_bytes),
            format!("{:.1}", r.fence_ms),
            format!("{}", r.shipped_ops),
        ]);
    }
    row(&[
        "degradation".into(),
        format!("{degradation_ratio:.3}"),
        "".into(),
        "".into(),
        "".into(),
        "".into(),
        "".into(),
    ]);

    println!(
        "\nreading guide: both configs run the identical foreground burst through\n\
         the routing-aware router with the ownership gate active — baseline prices\n\
         being *migratable*, migrating adds one full live slot migration (copy,\n\
         catch-up with sleeping pump, fence, cutover, cleanup) completing during\n\
         the burst. degradation near 1.0 is the rebalancing claim: moving a\n\
         slot costs the foreground nothing outside the fence window. fence_ms\n\
         upper-bounds that window (the only write-blocked interval, and only for\n\
         the moving slot). retries counts transactions\n\
         that crossed the cutover and recovered through the typed WrongShard +\n\
         refresh path — each one is a correct commit, not an error."
    );
}

//! Crash-torture matrix for online slot migration.
//!
//! Every cell migrates slot 0 from shard 0 to shard 1 while scripted
//! foreground load — single-shard writes on both sides plus cross-shard
//! 2PC transactions — runs between coordinator steps. One of
//! {coordinator, source, destination} crashes once the migration reaches
//! a chosen phase; the run then resumes and completes. The whole history
//! (ownership transitions, committed writes, final scans) feeds
//! [`esdb_check::MigrationOracle`], which demands zero lost rows, zero
//! duplicated rows, and zero dual-ownership instants.
//!
//! Matrix: 3 crashing parties × 4 crash phases × 3 seeds = 36 cells.

use esdb_check::{MigEvent, MigrationOracle};
use esdb_core::{slot_of, Database, EngineConfig, RoutingTable};
use esdb_rebal::{Migration, MigrationEnv, MigrationLog, MigrationSpec, Phase, ShardHandle};
use esdb_shard::{
    DecisionLog, OwnedShard, ShardBackend, ShardOwnership, ShardRouter, SharedRouting,
};
use esdb_workload::{TxnSpec, WorkloadOp};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SLOTS: u32 = 8;
const MOVING: u32 = 0;
const T: u32 = 0;

#[derive(Clone)]
struct Cluster {
    dbs: Vec<Arc<Database>>,
    owns: Vec<Arc<ShardOwnership>>,
    routing: Arc<SharedRouting>,
    coord: Arc<DecisionLog>,
}

impl Cluster {
    fn new() -> Cluster {
        let table = RoutingTable::uniform(2, SLOTS);
        let routing = Arc::new(SharedRouting::new(table.clone()));
        let mut dbs = Vec::new();
        let mut owns = Vec::new();
        for shard in 0..2u32 {
            let db = Arc::new(Database::open(EngineConfig::default()));
            db.create_table("t", 1).unwrap();
            dbs.push(db);
            owns.push(Arc::new(ShardOwnership::for_shard(&table, shard)));
        }
        Cluster { dbs, owns, routing, coord: Arc::new(DecisionLog::new()) }
    }

    fn backend(&self, shard: usize) -> OwnedShard {
        OwnedShard {
            db: Arc::clone(&self.dbs[shard]),
            own: Arc::clone(&self.owns[shard]),
            routing: Arc::clone(&self.routing),
        }
    }

    fn router(&self) -> ShardRouter {
        let shards: Vec<Box<dyn ShardBackend>> =
            (0..2).map(|s| Box::new(self.backend(s)) as Box<dyn ShardBackend>).collect();
        ShardRouter::with_routing(
            shards,
            Arc::clone(&self.routing),
            Arc::clone(&self.coord),
            None,
        )
        .unwrap()
    }

    fn env(&self) -> MigrationEnv {
        MigrationEnv {
            source: ShardHandle { db: Arc::clone(&self.dbs[0]), own: Arc::clone(&self.owns[0]) },
            dest: ShardHandle { db: Arc::clone(&self.dbs[1]), own: Arc::clone(&self.owns[1]) },
            routing: Arc::clone(&self.routing),
            coord: Arc::clone(&self.coord),
        }
    }

    /// Crash-replaces shard `s`: engine recovered from flushed pages + WAL
    /// redo, ownership gate rebuilt from the current routing table.
    fn crash_shard(&mut self, s: usize) {
        self.dbs[s] = Arc::new(self.dbs[s].simulate_crash(true));
        self.owns[s] =
            Arc::new(ShardOwnership::for_shard(&self.routing.current(), s as u32));
    }
}

/// Scripted load + oracle bookkeeping around one migration run.
struct Harness {
    cluster: Cluster,
    oracle: MigrationOracle,
    rng: u64,
    val: i64,
    live: HashSet<u64>,
    moving_keys: Vec<u64>,
    keep_keys: Vec<u64>,
    other_keys: Vec<u64>,
    owned_view: [bool; 2],
}

impl Harness {
    fn new(seed: u64) -> Harness {
        let cluster = Cluster::new();
        let table = cluster.routing.current();
        let mut moving_keys = Vec::new();
        let mut keep_keys = Vec::new();
        let mut other_keys = Vec::new();
        for k in 0..100_000u64 {
            let slot = slot_of(T, k, SLOTS);
            if slot == MOVING && moving_keys.len() < 24 {
                moving_keys.push(k);
            } else if table.slots[slot as usize] == 0 && slot != MOVING && keep_keys.len() < 16 {
                keep_keys.push(k);
            } else if table.slots[slot as usize] == 1 && other_keys.len() < 16 {
                other_keys.push(k);
            }
        }
        let mut oracle = MigrationOracle::new();
        for shard in 0..2u32 {
            for slot in 0..SLOTS {
                oracle.record(MigEvent::Own {
                    shard,
                    slot,
                    owned: cluster.owns[shard as usize].owns(slot),
                });
            }
        }
        Harness {
            cluster,
            oracle,
            rng: seed.wrapping_mul(2) | 1,
            val: 0,
            live: HashSet::new(),
            moving_keys,
            keep_keys,
            other_keys,
            owned_view: [true, false],
        }
    }

    fn rand(&mut self) -> u64 {
        self.rng = self
            .rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.rng >> 33
    }

    fn pick(&mut self, which: usize) -> u64 {
        let r = self.rand() as usize;
        let list = match which {
            0 => &self.moving_keys,
            1 => &self.keep_keys,
            _ => &self.other_keys,
        };
        list[r % list.len()]
    }

    fn write_op(&mut self, key: u64) -> WorkloadOp {
        self.val += 1;
        if self.live.contains(&key) {
            WorkloadOp::Write { table: T, key, row: vec![self.val] }
        } else {
            WorkloadOp::Insert { table: T, key, row: vec![self.val] }
        }
    }

    /// Runs `spec` through the router and records its committed effects.
    fn commit(&mut self, router: &mut ShardRouter, ops: Vec<WorkloadOp>) {
        let spec = TxnSpec { kind: "rebal", ops: ops.clone(), may_fail: false };
        let table = self.cluster.routing.current();
        let outcome = router.execute(&spec).expect("scripted load must route");
        assert!(outcome.is_committed(), "scripted load must commit");
        for op in &ops {
            match op {
                WorkloadOp::Insert { key, row, .. } | WorkloadOp::Write { key, row, .. } => {
                    self.live.insert(*key);
                    self.oracle.record(MigEvent::Write {
                        shard: table.shard_of(T, *key),
                        slot: table.slot_for(T, *key),
                        key: *key,
                        val: row[0],
                    });
                }
                WorkloadOp::Delete { key, .. } => {
                    self.live.remove(key);
                    self.oracle.record(MigEvent::Delete {
                        shard: table.shard_of(T, *key),
                        slot: table.slot_for(T, *key),
                        key: *key,
                    });
                }
                _ => {}
            }
        }
    }

    /// One foreground round: a write into the moving slot, a write
    /// elsewhere, a cross-shard 2PC pair, and an occasional delete.
    ///
    /// While the migration sits in its fence window (`fenced`), the
    /// single-threaded script must not touch the moving slot — a fenced
    /// write parks until cutover, which only this thread can perform.
    /// `fence_blocks_writers_until_cutover` covers that interleaving with
    /// a real second thread.
    fn load_round(&mut self, router: &mut ShardRouter, fenced: bool) {
        if !fenced {
            let k = self.pick(0);
            let op = self.write_op(k);
            self.commit(router, vec![op]);
        }

        let side = if self.rand() % 2 == 0 { 1 } else { 2 };
        let k = self.pick(side);
        let op = self.write_op(k);
        self.commit(router, vec![op]);

        // Cross-shard: a moving-slot key plus a key on the *other* shard
        // under the current table.
        if !fenced {
            let a = self.pick(0);
            let a_shard = self.cluster.routing.current().shard_of(T, a);
            let b = self.pick(if a_shard == 0 { 2 } else { 1 });
            let op_a = self.write_op(a);
            let op_b = self.write_op(b);
            self.commit(router, vec![op_a, op_b]);

            if self.rand() % 4 == 0 {
                let k = self.pick(0);
                if self.live.contains(&k) {
                    self.commit(router, vec![WorkloadOp::Delete { table: T, key: k }]);
                }
            }
        }
    }

    /// Records ownership transitions of the moving slot since last look —
    /// releases before adoptions: the source admits no write from its
    /// fence on, so the destination's adopt never overlaps a source that
    /// admits, though the source keeps (fenced) ownership until just after.
    fn observe(&mut self) {
        let now = [
            self.cluster.owns[0].owns(MOVING),
            self.cluster.owns[1].owns(MOVING),
        ];
        for s in 0..2 {
            if self.owned_view[s] && !now[s] {
                self.oracle.record(MigEvent::Own { shard: s as u32, slot: MOVING, owned: false });
            }
        }
        for s in 0..2 {
            if !self.owned_view[s] && now[s] {
                self.oracle.record(MigEvent::Own { shard: s as u32, slot: MOVING, owned: true });
            }
        }
        self.owned_view = now;
    }

    /// Final scans → oracle verdict.
    fn finalize(&mut self) {
        for shard in 0..2u32 {
            let t = self.cluster.dbs[shard as usize].table(T).unwrap();
            let mut rows = Vec::new();
            t.scan(|key, row| rows.push((key, row[0]))).unwrap();
            for (key, val) in rows {
                self.oracle.record(MigEvent::FinalRow { shard, key, val });
            }
        }
        if let Err(v) = self.oracle.check() {
            panic!("migration invariant violated: {v}\nhistory: {:#?}", self.oracle.events());
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Party {
    Coord,
    Source,
    Dest,
}

/// One matrix cell: run to `crash_at`, crash `party`, resume, finish,
/// check the whole history.
fn torture_cell(party: Party, crash_at: Phase, seed: u64) {
    let mut h = Harness::new(seed);
    let mut router = h.cluster.router();
    for _ in 0..4 {
        h.load_round(&mut router, false);
    }

    let spec = MigrationSpec { mid: 1, slot: MOVING, from: 0, to: 1 };
    let mut mlog = Arc::new(MigrationLog::new());
    let mut m = Migration::new(Arc::clone(&mlog), spec, h.cluster.env());
    loop {
        h.load_round(&mut router, m.phase() == Phase::Fenced);
        let p = m.step().unwrap();
        h.observe();
        if p >= crash_at {
            break;
        }
    }

    match party {
        Party::Coord => {
            // The coordinator dies; a new incarnation resumes from the
            // durable prefix of its migration log.
            mlog = Arc::new(mlog.recover());
            drop(m);
            m = Migration::resume(Arc::clone(&mlog), spec, h.cluster.env());
        }
        Party::Source => {
            drop(m);
            h.cluster.crash_shard(0);
            router = h.cluster.router();
            m = Migration::resume(Arc::clone(&mlog), spec, h.cluster.env());
        }
        Party::Dest => {
            drop(m);
            h.cluster.crash_shard(1);
            router = h.cluster.router();
            m = Migration::resume(Arc::clone(&mlog), spec, h.cluster.env());
        }
    }
    h.observe();

    loop {
        h.load_round(&mut router, m.phase() == Phase::Fenced);
        let p = m.step().unwrap();
        h.observe();
        if p == Phase::Done {
            break;
        }
    }

    // The cutover stuck: slot moved, epoch bumped, ownership flipped.
    assert_eq!(h.cluster.routing.current().slots[MOVING as usize], 1);
    assert!(h.cluster.routing.epoch() >= 1);
    assert!(!h.cluster.owns[0].owns(MOVING));
    assert!(h.cluster.owns[1].owns(MOVING));

    // Post-migration traffic routes to the destination and commits.
    for _ in 0..3 {
        h.load_round(&mut router, false);
    }
    h.finalize();
}

fn torture_row(party: Party, crash_at: Phase) {
    for seed in [11, 547, 9001] {
        torture_cell(party, crash_at, seed);
    }
}

#[test]
fn coordinator_crash_during_copy() {
    torture_row(Party::Coord, Phase::Copying);
}

#[test]
fn coordinator_crash_during_catch_up() {
    torture_row(Party::Coord, Phase::CatchUp);
}

#[test]
fn coordinator_crash_inside_fence() {
    torture_row(Party::Coord, Phase::Fenced);
}

#[test]
fn coordinator_crash_after_cutover() {
    torture_row(Party::Coord, Phase::CutOver);
}

#[test]
fn source_crash_during_copy() {
    torture_row(Party::Source, Phase::Copying);
}

#[test]
fn source_crash_during_catch_up() {
    torture_row(Party::Source, Phase::CatchUp);
}

#[test]
fn source_crash_inside_fence() {
    torture_row(Party::Source, Phase::Fenced);
}

#[test]
fn source_crash_after_cutover() {
    torture_row(Party::Source, Phase::CutOver);
}

#[test]
fn dest_crash_during_copy() {
    torture_row(Party::Dest, Phase::Copying);
}

#[test]
fn dest_crash_during_catch_up() {
    torture_row(Party::Dest, Phase::CatchUp);
}

#[test]
fn dest_crash_inside_fence() {
    torture_row(Party::Dest, Phase::Fenced);
}

#[test]
fn dest_crash_after_cutover() {
    torture_row(Party::Dest, Phase::CutOver);
}

/// No crash at all: the baseline the matrix perturbs.
#[test]
fn clean_migration_under_load() {
    let mut h = Harness::new(42);
    let mut router = h.cluster.router();
    for _ in 0..4 {
        h.load_round(&mut router, false);
    }
    let spec = MigrationSpec { mid: 1, slot: MOVING, from: 0, to: 1 };
    let mlog = Arc::new(MigrationLog::new());
    let mut m = Migration::new(mlog, spec, h.cluster.env());
    loop {
        h.load_round(&mut router, m.phase() == Phase::Fenced);
        let p = m.step().unwrap();
        h.observe();
        if p == Phase::Done {
            break;
        }
    }
    assert!(m.stats.copied_rows > 0, "the bulk copy moved the seeded rows");
    assert!(m.stats.shipped_ops > 0, "catch-up shipped the concurrent writes");
    for _ in 0..3 {
        h.load_round(&mut router, false);
    }
    h.finalize();
    // The source holds nothing from the moving slot anymore.
    let t = h.cluster.dbs[0].table(T).unwrap();
    let mut leaked = 0u64;
    t.scan(|key, _| {
        if slot_of(T, key, SLOTS) == MOVING {
            leaked += 1;
        }
    })
    .unwrap();
    assert_eq!(leaked, 0, "source cleanup left slot rows behind");
}

/// The fence resolves in-doubt prepared 2PC slices from the coordinator's
/// durable verdicts: a forced commit lands on the destination, an
/// undecided prepare is presumed aborted and its effects rolled back, and
/// that abort is the verdict that holds.
#[test]
fn fence_resolves_in_doubt_slices_from_the_coordinator() {
    let cluster = Cluster::new();
    let keys: Vec<u64> =
        (0..100_000u64).filter(|&k| slot_of(T, k, SLOTS) == MOVING).take(2).collect();
    let (k_commit, k_abort) = (keys[0], keys[1]);
    cluster.dbs[0].execute(|txn| txn.insert(T, k_commit, &[1])).unwrap();
    cluster.dbs[0].execute(|txn| txn.insert(T, k_abort, &[2])).unwrap();

    let mut source = cluster.backend(0);
    let g_commit = cluster.coord.allocate();
    let outcome = source
        .prepare(g_commit, vec![WorkloadOp::Write { table: T, key: k_commit, row: vec![111] }])
        .unwrap();
    assert!(outcome.is_committed(), "prepare must vote yes");
    // The verdict is durable at the coordinator but never delivered.
    cluster.coord.decide(g_commit, true);

    let g_abort = cluster.coord.allocate();
    let outcome = source
        .prepare(g_abort, vec![WorkloadOp::Write { table: T, key: k_abort, row: vec![222] }])
        .unwrap();
    assert!(outcome.is_committed(), "prepare must vote yes");
    // No verdict for g_abort: presumed abort.

    let spec = MigrationSpec { mid: 1, slot: MOVING, from: 0, to: 1 };
    let mlog = Arc::new(MigrationLog::new());
    let mut m = Migration::new(mlog, spec, cluster.env());
    m.run().unwrap();
    assert_eq!(m.stats.resolved_in_doubt, 2);

    let dest = cluster.dbs[1].table(T).unwrap();
    assert_eq!(dest.get(k_commit).unwrap(), vec![111], "forced commit must survive the move");
    assert_eq!(dest.get(k_abort).unwrap(), vec![2], "presumed abort must roll back");
    // The fence's inquiry took abort for g_abort: a router still voting on
    // it cannot commit the slice the fence already rolled back.
    assert!(!cluster.coord.decide(g_abort, true), "a late commit must find abort");
    assert!(!cluster.coord.recover().resolve(g_abort));
}

/// Writes are blocked *only* during the fence window: a writer that hits
/// the fence parks (no error), wakes at cutover, gets the typed
/// `WrongShard` refusal, and the router's single refresh-and-retry lands
/// it on the destination — the full satellite retry path, end to end.
#[test]
fn fence_blocks_writers_until_cutover_then_retries_to_the_destination() {
    let cluster = Cluster::new();
    let key = (0..100_000u64).find(|&k| slot_of(T, k, SLOTS) == MOVING).unwrap();
    cluster.dbs[0].execute(|txn| txn.insert(T, key, &[1])).unwrap();

    let spec = MigrationSpec { mid: 1, slot: MOVING, from: 0, to: 1 };
    let mlog = Arc::new(MigrationLog::new());
    let mut m = Migration::new(mlog, spec, cluster.env());
    while m.phase() < Phase::Fenced {
        m.step().unwrap();
    }

    // A concurrent writer behind its own router hits the fence and parks.
    let (dbs, owns) = (cluster.dbs.clone(), cluster.owns.clone());
    let (routing, coord) = (Arc::clone(&cluster.routing), Arc::clone(&cluster.coord));
    let writer = std::thread::spawn(move || {
        let shards: Vec<Box<dyn ShardBackend>> = (0..2)
            .map(|s| {
                Box::new(OwnedShard {
                    db: Arc::clone(&dbs[s]),
                    own: Arc::clone(&owns[s]),
                    routing: Arc::clone(&routing),
                }) as Box<dyn ShardBackend>
            })
            .collect();
        let mut router = ShardRouter::with_routing(shards, routing, coord, None).unwrap();
        let spec = TxnSpec {
            kind: "w",
            ops: vec![WorkloadOp::Write { table: T, key, row: vec![42] }],
            may_fail: false,
        };
        let outcome = router.execute(&spec).unwrap();
        (outcome.is_committed(), router.stats().wrong_shard_retries)
    });

    std::thread::sleep(std::time::Duration::from_millis(60));
    assert!(!writer.is_finished(), "a fenced write must park, not fail");
    while m.phase() != Phase::Done {
        m.step().unwrap();
    }
    let (committed, retries) = writer.join().unwrap();
    assert!(committed, "the parked write must commit after the cutover");
    assert_eq!(retries, 1, "exactly one WrongShard refresh-and-retry");
    assert_eq!(cluster.dbs[1].table(T).unwrap().get(key).unwrap(), vec![42]);
}

/// The write-blocked window stays bounded while writers keep running: two
/// closed-loop writers on threads of their own update every slot (the
/// moving one included; every fifth transaction a two-row, usually
/// cross-shard one) while the migration steps through, and the steps
/// landing in `Fenced` and `CutOver`, timed the way `tab_rebal` times
/// them, take at most 250 ms together (0.1–12 ms measured on two vCPUs).
#[test]
fn fence_window_stays_bounded_under_concurrent_writers() {
    const ROWS: u64 = 512;
    let cluster = Cluster::new();
    for (shard, db) in cluster.dbs.iter().enumerate() {
        let table = cluster.routing.current();
        db.execute(|txn| {
            for k in (0..ROWS).filter(|&k| table.shard_of(T, k) == shard as u32) {
                txn.insert(T, k, &[0])?;
            }
            Ok(())
        })
        .unwrap();
    }

    let committed = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..2u64)
        .map(|w| {
            let (cluster, committed, done) =
                (cluster.clone(), Arc::clone(&committed), Arc::clone(&done));
            std::thread::spawn(move || {
                let mut router = cluster.router();
                let mut i = w;
                while !done.load(Ordering::SeqCst) {
                    let k = i * 7 % ROWS;
                    let mut ops = vec![WorkloadOp::Write { table: T, key: k, row: vec![1] }];
                    if i % 5 == 0 {
                        ops.push(WorkloadOp::Write { table: T, key: (k + 1) % ROWS, row: vec![1] });
                    }
                    let spec = TxnSpec { kind: "w", ops, may_fail: false };
                    // The destination adopts the slot before the cutover
                    // installs the table that points at it, so a write
                    // refused by the released source lands on its one
                    // retry: any error, `RoutingStale` included, fails.
                    match router.execute(&spec) {
                        Ok(outcome) => assert!(outcome.is_committed()),
                        Err(e) => panic!("foreground write: {e}"),
                    }
                    committed.fetch_add(1, Ordering::SeqCst);
                    i += 2;
                }
            })
        })
        .collect();

    let wait_for = |n: u64| {
        let deadline = Instant::now() + Duration::from_secs(30);
        while committed.load(Ordering::SeqCst) < n {
            assert!(Instant::now() < deadline, "writers stalled");
            std::thread::yield_now();
        }
    };
    // Start under load, and pump catch-up the way the bench does: one round
    // per millisecond, so writes keep landing in the source's WAL.
    wait_for(200);
    let spec = MigrationSpec { mid: 1, slot: MOVING, from: 0, to: 1 };
    let mut m = Migration::new(Arc::new(MigrationLog::new()), spec, cluster.env());
    let mut window = Duration::ZERO;
    loop {
        let t0 = Instant::now();
        let p = m.step().unwrap();
        match p {
            Phase::Fenced | Phase::CutOver => window += t0.elapsed(),
            Phase::CatchUp => std::thread::sleep(Duration::from_millis(1)),
            Phase::Done => break,
            _ => {}
        }
    }
    // ... and the writers carry on past the cutover.
    wait_for(committed.load(Ordering::SeqCst) + 200);
    done.store(true, Ordering::SeqCst);
    for w in writers {
        w.join().unwrap();
    }
    assert!(
        window <= Duration::from_millis(250),
        "fence + cutover blocked writers for {window:?}"
    );
}

//! Wire-level rebalancing: two real servers on loopback loopback-serve the
//! two shard engines while a slot migrates between them in-process. Remote
//! clients observe the migration exactly as the protocol promises: the
//! `RoutingSnapshot` frame serves the versioned table, a stale client's
//! write gets the typed `WrongShard { epoch, hint }` refusal over the
//! wire, and one refresh-and-retry lands it on the new owner.

use esdb_core::{slot_of, Database, EngineConfig, RoutingTable};
use esdb_net::{Client, NetError, Server, ServerConfig};
use esdb_rebal::{Migration, MigrationEnv, MigrationLog, MigrationSpec, Phase, ShardHandle};
use esdb_shard::{
    DecisionLog, NetShard, OwnedShard, ShardBackend, ShardError, ShardOwnership, ShardRouter,
    SharedRouting,
};
use esdb_workload::{TxnSpec, WorkloadOp};
use std::net::SocketAddr;
use std::sync::Arc;

const SLOTS: u32 = 8;
const MOVING: u32 = 0;
const T: u32 = 0;


struct WireCluster {
    dbs: Vec<Arc<Database>>,
    owns: Vec<Arc<ShardOwnership>>,
    routing: Arc<SharedRouting>,
    coord: Arc<DecisionLog>,
    servers: Vec<Server>,
}

impl WireCluster {
    fn start() -> WireCluster {
        let table = RoutingTable::uniform(2, SLOTS);
        let routing = Arc::new(SharedRouting::new(table.clone()));
        let mut dbs = Vec::new();
        let mut owns = Vec::new();
        let mut servers = Vec::new();
        for shard in 0..2u32 {
            let db = Arc::new(Database::open(EngineConfig::default()));
            db.create_table("t", 1).unwrap();
            let own = Arc::new(ShardOwnership::for_shard(&table, shard));
            // `RoutingSnapshot` answers from the shared table, and every
            // write is admission-checked: unowned *or fenced* slots get the
            // typed `WrongShard` refusal instead of silently serving stale
            // keys.
            let gate = OwnedShard {
                db: Arc::clone(&db),
                own: Arc::clone(&own),
                routing: Arc::clone(&routing),
            };
            let config = ServerConfig { slot_gate: Some(Arc::new(gate)), ..ServerConfig::default() };
            let server =
                Server::start(Arc::clone(&db), "127.0.0.1:0", config).expect("bind ephemeral port");
            dbs.push(db);
            owns.push(own);
            servers.push(server);
        }
        WireCluster { dbs, owns, routing, coord: Arc::new(DecisionLog::new()), servers }
    }

    fn addr(&self, shard: usize) -> SocketAddr {
        self.servers[shard].local_addr()
    }

    /// A routing-aware router over wire backends whose *own* cached table
    /// starts at epoch 0 and refreshes from server `0`'s `RoutingSnapshot`
    /// frame — the remote client's view of placement, deliberately
    /// independent of the in-process table the migration mutates.
    fn client_router(&self) -> ShardRouter {
        let shards: Vec<Box<dyn ShardBackend>> = (0..2)
            .map(|s| {
                Box::new(NetShard(Client::connect(self.addr(s)).unwrap()))
                    as Box<dyn ShardBackend>
            })
            .collect();
        let cached = Arc::new(SharedRouting::new(RoutingTable::uniform(2, SLOTS)));
        let mut refresh_conn = Client::connect(self.addr(0)).unwrap();
        let refresh = Box::new(move || {
            let (epoch, slots) =
                refresh_conn.routing_snapshot().map_err(ShardError::from)?;
            Ok(RoutingTable { epoch, slots })
        });
        ShardRouter::with_routing(shards, cached, Arc::clone(&self.coord), Some(refresh))
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
}

fn write_spec(key: u64, val: i64, fresh: bool) -> TxnSpec {
    let op = if fresh {
        WorkloadOp::Insert { table: T, key, row: vec![val] }
    } else {
        WorkloadOp::Write { table: T, key, row: vec![val] }
    };
    TxnSpec { kind: "wire", ops: vec![op], may_fail: false }
}

#[test]
fn migration_under_wire_traffic_and_stale_client_recovery() {
    let cluster = WireCluster::start();
    let moving: Vec<u64> =
        (0..100_000u64).filter(|&k| slot_of(T, k, SLOTS) == MOVING).take(6).collect();
    let other = (0..100_000u64)
        .find(|&k| cluster.routing.current().shard_of(T, k) == 1)
        .unwrap();

    // Seed over the wire through the routing-aware client router.
    let mut router = cluster.client_router();
    for (i, &k) in moving.iter().enumerate() {
        assert!(router.execute(&write_spec(k, 100 + i as i64, true)).unwrap().is_committed());
    }
    assert!(router.execute(&write_spec(other, 7, true)).unwrap().is_committed());

    // The source serves the migration's bulk-read verb: a fuzzy,
    // slot-filtered row fetch.
    let mut probe = Client::connect(cluster.addr(0)).unwrap();
    let fetched = probe.mig_fetch(T, MOVING, SLOTS).unwrap();
    assert_eq!(fetched.len(), moving.len());
    for (key, _) in &fetched {
        assert_eq!(slot_of(T, *key, SLOTS), MOVING);
    }
    assert_eq!(probe.routing_snapshot().unwrap().0, 0, "pre-migration epoch");

    // Migrate the slot while wire traffic keeps flowing between steps —
    // a second, *stale* router that never hears about the cutover until
    // it trips over it.
    let mut stale = cluster.client_router();
    let spec = MigrationSpec { mid: 1, slot: MOVING, from: 0, to: 1 };
    let mlog = Arc::new(MigrationLog::new());
    let mut m = Migration::new(mlog, spec, cluster.env());
    let mut val = 1000i64;
    while m.phase() != Phase::Done {
        if m.phase() != Phase::Fenced {
            val += 1;
            let k = moving[val as usize % moving.len()];
            assert!(router.execute(&write_spec(k, val, false)).unwrap().is_committed());
            // Cross-shard 2PC pair spanning the moving slot and shard 1.
            val += 1;
            let cross = TxnSpec {
                kind: "wire",
                ops: vec![
                    WorkloadOp::Write { table: T, key: k, row: vec![val] },
                    WorkloadOp::Write { table: T, key: other, row: vec![val] },
                ],
                may_fail: false,
            };
            assert!(router.execute(&cross).unwrap().is_committed());
            // The commit is acknowledged at the decision; its verdicts are
            // only posted. These wire hooks do not register prepared slices
            // with the fence (in-process `OwnedShard`s do), so have the
            // verdicts applied before the migration may step into it.
            router.settle().unwrap();
        }
        m.step().unwrap();
    }

    // The stale router's first write goes to the old owner, takes the
    // typed wire refusal, refreshes over `RoutingSnapshot`, and retries
    // onto the destination — exactly one retry.
    val += 1;
    let outcome = stale.execute(&write_spec(moving[0], val, false)).unwrap();
    assert!(outcome.is_committed());
    assert_eq!(stale.stats().wrong_shard_retries, 1, "one refresh-and-retry");
    assert_eq!(stale.routing_snapshot().unwrap().0, cluster.routing.epoch());
    assert_eq!(cluster.dbs[1].table(T).unwrap().get(moving[0]).unwrap(), vec![val]);

    // A raw client with no retry envelope sees the typed refusal itself.
    let mut naive = Client::connect(cluster.addr(0)).unwrap();
    match naive.one_shot(&write_spec(moving[1], 1, false)) {
        Err(NetError::WrongShard { epoch, hint }) => {
            assert_eq!(epoch, cluster.routing.epoch());
            assert_eq!(hint, 1);
        }
        other => panic!("expected WrongShard over the wire, got {other:?}"),
    }

    // Post-cutover: the snapshot frame serves the bumped table, the
    // destination serves the slot's rows, the source is clean.
    let (epoch, slots) = probe.routing_snapshot().unwrap();
    assert!(epoch >= 1);
    assert_eq!(slots[MOVING as usize], 1);
    let mut dest_probe = Client::connect(cluster.addr(1)).unwrap();
    assert_eq!(dest_probe.mig_fetch(T, MOVING, SLOTS).unwrap().len(), moving.len());
    assert_eq!(probe.mig_fetch(T, MOVING, SLOTS).unwrap().len(), 0, "source cleaned up");

    for s in cluster.servers {
        s.shutdown();
    }
}

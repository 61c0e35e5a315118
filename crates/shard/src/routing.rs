//! Live routing state for online rebalancing: the shared, versioned
//! slot → shard table and each shard's slot-ownership gate.
//!
//! Placement is a [`RoutingTable`] (core's versioned slot → shard map)
//! behind a lock, shared between the router, the migration coordinator, and
//! every in-process shard. Installing a new table is the *cutover*: it must
//! carry a strictly larger epoch, so a racing stale install is refused and
//! readers can fence each other by comparing epochs.
//!
//! Each shard additionally tracks which slots it **owns** right now and
//! which are **fenced** (mid-migration, writes briefly blocked). The
//! [`OwnedShard`] backend consults this gate before every transaction, so a
//! shard that has given a slot away answers a typed
//! [`ShardError::WrongShard`] instead of silently serving keys it no longer
//! holds — the rebalancing analog of replication-term fencing.

use crate::partition::Partitioner;
use crate::router::ShardBackend;
use crate::ShardError;
use esdb_core::spec_exec::SpecOutcome;
use esdb_core::{Database, RoutingTable};
use esdb_net::SlotGate;
use esdb_sync::{Condvar, Mutex, RwLock};
use esdb_workload::{TxnSpec, WorkloadOp};
use std::collections::HashMap;
use std::sync::Arc;

/// A [`RoutingTable`] shared by reference between the router, the migration
/// coordinator, and the shards. Installation is epoch-fenced: only a table
/// with a strictly larger epoch replaces the current one.
pub struct SharedRouting {
    table: RwLock<RoutingTable>,
}

impl SharedRouting {
    /// Wraps `table` as the initial routing state.
    pub fn new(table: RoutingTable) -> SharedRouting {
        SharedRouting { table: RwLock::new(table) }
    }

    /// A clone of the current table.
    pub fn current(&self) -> RoutingTable {
        self.table.read().clone()
    }

    /// The current fencing epoch.
    pub fn epoch(&self) -> u64 {
        self.table.read().epoch
    }

    /// The ring size of the current table.
    pub fn slot_count(&self) -> u32 {
        self.table.read().slot_count()
    }

    /// The cheap observation tuple `(epoch, slot → shard map)` — what the
    /// `RoutingSnapshot` wire frame carries.
    pub fn snapshot(&self) -> (u64, Vec<u32>) {
        let t = self.table.read();
        (t.epoch, t.slots.clone())
    }

    /// Installs `table` iff its epoch is strictly larger than the current
    /// one; returns whether it was installed. Idempotent under retry: a
    /// second install of the same cutover is a no-op, and a stale table can
    /// never roll the epoch back.
    pub fn install(&self, table: RoutingTable) -> bool {
        let mut cur = self.table.write();
        if table.epoch > cur.epoch {
            *cur = table;
            true
        } else {
            false
        }
    }
}

impl Partitioner for SharedRouting {
    fn shard_of(&self, table: u32, key: u64, n: usize) -> usize {
        (self.table.read().shard_of(table, key) as usize).min(n.saturating_sub(1))
    }
}

/// Ownership gate state, all under one lock so fence/drain/adopt/release
/// transitions are atomic with respect to admission.
#[derive(Default)]
struct OwnState {
    /// `owned[s]`: this shard currently serves slot `s`.
    owned: Vec<bool>,
    /// `fenced[s]`: slot `s` is mid-migration; new writes wait.
    fenced: Vec<bool>,
    /// In-flight transactions per slot (prepared 2PC slices stay counted
    /// until their decision arrives).
    inflight: Vec<u64>,
    /// Slots each prepared-but-undecided gtid holds in-flight.
    prepared: HashMap<u64, Vec<u32>>,
}

/// One shard's slot-ownership gate. Admission ([`ShardOwnership::begin`])
/// refuses slots the shard does not own and *waits* on slots that are
/// fenced; the migration's fence phase uses [`ShardOwnership::fence`] +
/// [`ShardOwnership::drain`] to block new writes and wait out in-flight
/// ones, bounding the write-unavailable window to the final delta ship.
pub struct ShardOwnership {
    state: Mutex<OwnState>,
    wake: Condvar,
}

impl ShardOwnership {
    /// A gate over a `slot_count`-slot ring where this shard owns exactly
    /// the slots `table` assigns to `shard`.
    pub fn for_shard(table: &RoutingTable, shard: u32) -> ShardOwnership {
        let n = table.slot_count() as usize;
        let mut owned = vec![false; n];
        for (s, &owner) in table.slots.iter().enumerate() {
            owned[s] = owner == shard;
        }
        ShardOwnership {
            state: Mutex::new(OwnState {
                owned,
                fenced: vec![false; n],
                inflight: vec![0; n],
                prepared: HashMap::new(),
            }),
            wake: Condvar::new(),
        }
    }

    /// Whether this shard currently owns `slot`.
    pub fn owns(&self, slot: u32) -> bool {
        self.state.lock().owned.get(slot as usize).copied().unwrap_or(false)
    }

    /// Whether `slot` is owned and not fenced (mid-migration write block).
    /// Wire-facing admission ([`OwnedShard`]'s [`SlotGate`]) refuses
    /// anything else: a remote writer gets the typed `WrongShard` and
    /// retries after the cutover, instead of blocking a reactor thread on
    /// the fence.
    pub fn admits(&self, slot: u32) -> bool {
        let st = self.state.lock();
        st.owned.get(slot as usize).copied().unwrap_or(false) && !st.fenced[slot as usize]
    }

    /// Admits a transaction touching `slots`: errors with the offending
    /// slot when one is not owned, waits while any is fenced, then counts
    /// every slot in-flight. The caller must pair this with
    /// [`ShardOwnership::end`] (or park the count under a gtid with
    /// [`ShardOwnership::note_prepared`]).
    pub fn begin(&self, slots: &[u32]) -> Result<(), u32> {
        let mut st = self.state.lock();
        loop {
            if let Some(&s) = slots
                .iter()
                .find(|&&s| !st.owned.get(s as usize).copied().unwrap_or(false))
            {
                return Err(s);
            }
            if slots.iter().any(|&s| st.fenced[s as usize]) {
                // Fenced but still owned: the fence window is brief (final
                // delta ship), so waiting beats bouncing the caller. If the
                // slot is released while we wait, the owned check above
                // turns the wake-up into a typed refusal.
                st = self.wake.wait(st);
                continue;
            }
            for &s in slots {
                st.inflight[s as usize] += 1;
            }
            return Ok(());
        }
    }

    /// Ends a transaction admitted by [`ShardOwnership::begin`].
    pub fn end(&self, slots: &[u32]) {
        let mut st = self.state.lock();
        for &s in slots {
            st.inflight[s as usize] = st.inflight[s as usize].saturating_sub(1);
        }
        drop(st);
        self.wake.notify_all();
    }

    /// Transfers an admitted transaction's in-flight counts to `gtid`: a
    /// prepared 2PC slice keeps its slots busy until the decision arrives.
    pub fn note_prepared(&self, gtid: u64, slots: Vec<u32>) {
        self.state.lock().prepared.insert(gtid, slots);
    }

    /// Releases the in-flight counts parked under `gtid` (decision applied,
    /// or the gtid was never parked here — idempotent).
    pub fn end_prepared(&self, gtid: u64) {
        let mut st = self.state.lock();
        if let Some(slots) = st.prepared.remove(&gtid) {
            for s in slots {
                st.inflight[s as usize] = st.inflight[s as usize].saturating_sub(1);
            }
        }
        drop(st);
        self.wake.notify_all();
    }

    /// Gtids currently holding prepared (in-doubt) counts on `slot`.
    pub fn prepared_on(&self, slot: u32) -> Vec<u64> {
        let st = self.state.lock();
        let mut gtids: Vec<u64> = st
            .prepared
            .iter()
            .filter(|(_, slots)| slots.contains(&slot))
            .map(|(&g, _)| g)
            .collect();
        gtids.sort_unstable();
        gtids
    }

    /// Starts the fence: new transactions touching `slot` wait.
    pub fn fence(&self, slot: u32) {
        self.state.lock().fenced[slot as usize] = true;
    }

    /// Waits until no transaction is in flight on `slot` (call after
    /// [`ShardOwnership::fence`], and after resolving in-doubt gtids —
    /// a prepared slice counts as in-flight until its decision).
    pub fn drain(&self, slot: u32) {
        let mut st = self.state.lock();
        while st.inflight[slot as usize] > 0 {
            st = self.wake.wait(st);
        }
    }

    /// Adopts `slot` (destination side of a cutover). Clears any fence.
    pub fn adopt(&self, slot: u32) {
        let mut st = self.state.lock();
        if (slot as usize) < st.owned.len() {
            st.owned[slot as usize] = true;
            st.fenced[slot as usize] = false;
        }
        drop(st);
        self.wake.notify_all();
    }

    /// Releases `slot` (source side of a cutover). Writers parked on the
    /// fence wake up, find the slot unowned, and get the typed refusal.
    pub fn release(&self, slot: u32) {
        let mut st = self.state.lock();
        if (slot as usize) < st.owned.len() {
            st.owned[slot as usize] = false;
            st.fenced[slot as usize] = false;
        }
        drop(st);
        self.wake.notify_all();
    }
}

/// An in-process shard that enforces slot ownership: [`LocalShard`] plus
/// the rebalancing gate. Transactions touching a slot this shard does not
/// own are refused with [`ShardError::WrongShard`] carrying the current
/// routing epoch and the owning shard as a hint.
///
/// [`LocalShard`]: crate::router::LocalShard
pub struct OwnedShard {
    /// The shard engine.
    pub db: Arc<Database>,
    /// This shard's ownership gate.
    pub own: Arc<ShardOwnership>,
    /// The shared routing table (for epochs and owner hints).
    pub routing: Arc<SharedRouting>,
}

impl OwnedShard {
    /// The distinct slots `ops` touch under the current ring.
    fn slots_of(&self, ops: &[WorkloadOp]) -> Vec<u32> {
        let table = self.routing.current();
        let mut slots: Vec<u32> = ops
            .iter()
            .map(|op| {
                let (t, k) = op.target();
                table.slot_for(t, k)
            })
            .collect();
        slots.sort_unstable();
        slots.dedup();
        slots
    }

    /// The typed refusal for an unowned `slot`.
    fn wrong_shard(&self, slot: u32) -> ShardError {
        let table = self.routing.current();
        ShardError::WrongShard {
            epoch: table.epoch,
            hint: table.slots.get(slot as usize).copied().unwrap_or(0),
        }
    }
}

/// The same gate on the wire: a server over this shard answers
/// `RoutingSnapshot` from the shared table and refuses a key whose slot
/// [`ShardOwnership::admits`] does not, where [`ShardBackend::one_shot`]
/// would wait out a fence.
impl SlotGate for OwnedShard {
    fn routing(&self) -> (u64, Vec<u32>) {
        self.routing.snapshot()
    }

    fn refusal(&self, table: u32, key: u64) -> Option<(u64, u32)> {
        let current = self.routing.current();
        let admitted = self.own.admits(current.slot_for(table, key));
        (!admitted).then(|| (current.epoch, current.shard_of(table, key)))
    }
}

impl ShardBackend for OwnedShard {
    fn one_shot(&mut self, spec: &TxnSpec) -> Result<SpecOutcome, ShardError> {
        let slots = self.slots_of(&spec.ops);
        if let Err(slot) = self.own.begin(&slots) {
            return Err(self.wrong_shard(slot));
        }
        let outcome = self.db.run_spec(spec);
        self.own.end(&slots);
        Ok(outcome)
    }

    fn prepare(&mut self, gtid: u64, ops: Vec<WorkloadOp>) -> Result<SpecOutcome, ShardError> {
        let slots = self.slots_of(&ops);
        if let Err(slot) = self.own.begin(&slots) {
            return Err(self.wrong_shard(slot));
        }
        let spec = TxnSpec { kind: "shard", ops, may_fail: true };
        let outcome = self.db.run_spec_prepare(gtid, &spec);
        if outcome.is_committed() {
            // A yes-vote holds locks until the decision; its slots stay
            // in-flight so a fence cannot cut over under a prepared slice.
            self.own.note_prepared(gtid, slots);
        } else {
            self.own.end(&slots);
        }
        Ok(outcome)
    }

    fn decide(&mut self, gtid: u64, commit: bool) -> Result<(), ShardError> {
        self.db.decide(gtid, commit);
        self.own.end_prepared(gtid);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esdb_core::EngineConfig;
    use std::time::Duration;

    fn gate() -> ShardOwnership {
        // 4 slots, shard 0 of 2 owns the even ones.
        ShardOwnership::for_shard(&RoutingTable::uniform(2, 4), 0)
    }

    #[test]
    fn install_requires_a_larger_epoch() {
        let routing = SharedRouting::new(RoutingTable::uniform(2, 4));
        let next = routing.current().with_slot_moved(0, 1);
        assert!(routing.install(next.clone()));
        // Same epoch again: refused (idempotent retry), epoch is stable.
        assert!(!routing.install(next));
        assert!(!routing.install(RoutingTable::uniform(2, 4)));
        assert_eq!(routing.epoch(), 1);
    }

    #[test]
    fn unowned_slots_are_refused_and_owned_ones_counted() {
        let own = gate();
        assert!(own.begin(&[0, 2]).is_ok());
        assert_eq!(own.begin(&[1]), Err(1));
        own.end(&[0, 2]);
    }

    #[test]
    fn fence_blocks_until_release_turns_it_into_a_refusal() {
        let own = Arc::new(gate());
        own.fence(0);
        let o2 = Arc::clone(&own);
        let waiter = std::thread::spawn(move || o2.begin(&[0]));
        // The writer parks on the fence; releasing the slot wakes it into
        // the typed refusal rather than leaving it hung.
        std::thread::sleep(Duration::from_millis(20));
        own.release(0);
        assert_eq!(waiter.join().unwrap(), Err(0));
    }

    #[test]
    fn drain_waits_for_prepared_slices() {
        let own = Arc::new(gate());
        own.begin(&[2]).unwrap();
        own.note_prepared(7, vec![2]);
        assert_eq!(own.prepared_on(2), vec![7]);
        own.fence(2);
        let o2 = Arc::clone(&own);
        let drainer = std::thread::spawn(move || o2.drain(2));
        std::thread::sleep(Duration::from_millis(20));
        assert!(!drainer.is_finished(), "drain must wait for the in-doubt slice");
        own.end_prepared(7);
        drainer.join().unwrap();
    }

    #[test]
    fn owned_shard_refuses_foreign_keys_with_the_owner_hint() {
        let table = RoutingTable::uniform(2, 4);
        let routing = Arc::new(SharedRouting::new(table.clone()));
        let db = Arc::new(Database::open(EngineConfig::default()));
        db.create_table("t", 1).unwrap();
        let mut shard = OwnedShard {
            db,
            own: Arc::new(ShardOwnership::for_shard(&table, 0)),
            routing,
        };
        // A key shard 0 does not own under the uniform table, and one it does.
        let foreign = (0..100u64).find(|&k| table.shard_of(0, k) == 1).unwrap();
        let owned = (0..100u64).find(|&k| table.shard_of(0, k) == 0).unwrap();
        let insert = |key| TxnSpec {
            kind: "t",
            ops: vec![WorkloadOp::Insert { table: 0, key, row: vec![1] }],
            may_fail: false,
        };
        match shard.one_shot(&insert(foreign)) {
            Err(ShardError::WrongShard { epoch: 0, hint: 1 }) => {}
            other => panic!("expected WrongShard, got {other:?}"),
        }
        assert!(shard.one_shot(&insert(owned)).unwrap().is_committed());

        // The wire gate states the same rule per key: owned is admitted,
        // unowned is refused with `(epoch, owner)`.
        assert_eq!(shard.routing(), (0, table.slots.clone()));
        assert_eq!(shard.refusal(0, owned), None);
        assert_eq!(shard.refusal(0, foreign), Some((0, 1)));
        // A fenced slot is refused too, where the backend would wait.
        shard.own.fence(table.slot_for(0, owned));
        assert_eq!(shard.refusal(0, owned), Some((0, 0)));
    }
}

//! The lock table: partitioned, FIFO-fair, upgrade-aware, deadlock-checked,
//! with intention grants inherited from one transaction to the next.

use crate::agent::{self, is_agent, Agent, Agents, Parked};
use crate::deadlock::WaitsForGraph;
use crate::id::LockId;
use crate::mode::LockMode;
use crate::TxnId;
use esdb_sync::{Condvar, IntMap, Mutex};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Why a lock acquisition failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockError {
    /// Granting the wait would have closed a waits-for cycle; the requester
    /// was chosen as the victim and must abort.
    Deadlock,
    /// The wait exceeded the manager's timeout (backstop for cycles the
    /// at-block detection could not see).
    Timeout,
}

impl std::fmt::Display for LockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LockError::Deadlock => write!(f, "deadlock victim"),
            LockError::Timeout => write!(f, "lock wait timeout"),
        }
    }
}

impl std::error::Error for LockError {}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum WaitState {
    Waiting,
    Granted,
}

struct WaitSlot {
    state: Mutex<WaitState>,
    cv: Condvar,
}

struct Request {
    /// The waiting transaction: the waits-for graph's node.
    txn: TxnId,
    /// Whom the grant goes to: `txn`, or the agent it borrows.
    owner: TxnId,
    mode: LockMode,
    /// `true` if `owner` already holds this lock in a weaker mode.
    upgrade: bool,
    slot: Arc<WaitSlot>,
}

#[derive(Default)]
struct Entry {
    granted: Vec<(TxnId, LockMode)>,
    queue: VecDeque<Request>,
}

/// Granted sets a thread keeps from the row entries it reclaims.
const SPARE_GRANTS: usize = 4;

thread_local! {
    /// The granted-set allocations of row entries this thread reclaimed, at
    /// most [`SPARE_GRANTS`]: its next new row entries reuse them instead
    /// of allocating. Per thread, so it costs the lock table no space and
    /// no synchronization.
    static SPARE: RefCell<Vec<Vec<(TxnId, LockMode)>>> = const { RefCell::new(Vec::new()) };
}

/// A new, empty entry, with a spare granted set when the thread has one.
fn new_entry() -> Entry {
    let granted = SPARE.try_with(|s| s.borrow_mut().pop()).ok().flatten().unwrap_or_default();
    Entry { granted, queue: VecDeque::new() }
}

/// Keeps a reclaimed entry's (empty) granted set for [`new_entry`].
fn spare(granted: Vec<(TxnId, LockMode)>) {
    let _ = SPARE.try_with(|s| {
        let mut s = s.borrow_mut();
        if s.len() < SPARE_GRANTS {
            s.push(granted);
        }
    });
}

impl Entry {
    fn grantable(&self, req: &Request) -> bool {
        self.granted
            .iter()
            .all(|&(t, m)| (req.upgrade && t == req.owner) || m.compatible(req.mode))
    }

    /// Grants the maximal FIFO prefix of the queue; returns granted slots to
    /// signal after the partition latch drops.
    fn grant_waiters(&mut self) -> Vec<Arc<WaitSlot>> {
        let mut signals = Vec::new();
        while let Some(front) = self.queue.front() {
            if !self.grantable(front) {
                break;
            }
            let req = self.queue.pop_front().unwrap();
            if req.upgrade {
                let g = self
                    .granted
                    .iter_mut()
                    .find(|(t, _)| *t == req.owner)
                    .expect("upgrader must be in granted set");
                g.1 = req.mode;
            } else {
                self.granted.push((req.owner, req.mode));
            }
            let mut st = req.slot.state.lock();
            *st = WaitState::Granted;
            drop(st);
            signals.push(req.slot);
        }
        signals
    }
}

/// One lock in a [`HeldLocks`] list.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Held {
    id: LockId,
    mode: LockMode,
    /// Granted to the transaction's agent: kept, not released, when the
    /// transaction ends.
    inherited: bool,
}

/// The locks one transaction holds — owned by the transaction, not by the
/// manager. It is consulted *before* the lock table (re-acquiring a covered
/// mode costs no lock-table visit) and it is the release list: there is no
/// second, manager-side record of who holds what beyond each lock's own
/// granted set. A list from [`LockManager::begin`] may borrow the thread's
/// agent: it starts with the intention grants the agent inherited, and the
/// intention grants it takes go to the agent too.
#[derive(Debug)]
pub struct HeldLocks {
    txn: TxnId,
    agent: Option<Arc<Agent>>,
    locks: Vec<Held>,
}

impl HeldLocks {
    /// An empty list for transaction `txn`, bound to no agent, sized so that
    /// an OLTP transaction's dozen locks never regrow it.
    pub fn new(txn: TxnId) -> Self {
        HeldLocks { txn, agent: None, locks: Vec::with_capacity(16) }
    }

    /// Mode held on `id`, if any.
    pub fn mode(&self, id: LockId) -> Option<LockMode> {
        self.position(id).map(|i| self.locks[i].mode)
    }

    /// Number of distinct locks held, inherited ones included.
    pub fn len(&self) -> usize {
        self.locks.len()
    }

    /// `true` when no lock is held.
    pub fn is_empty(&self) -> bool {
        self.locks.is_empty()
    }

    fn position(&self, id: LockId) -> Option<usize> {
        self.locks.iter().position(|h| h.id == id)
    }

    /// Records a grant: a new entry, or the stronger mode of an upgrade.
    fn granted(&mut self, pos: Option<usize>, held: Held) {
        match pos {
            Some(i) => self.locks[i] = held,
            None => self.locks.push(held),
        }
    }
}

/// Cumulative lock-manager statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockStatsSnapshot {
    /// Lock-table visits: acquires the caller's [`HeldLocks`] did not
    /// already cover.
    pub acquisitions: u64,
    /// Lock-table entries visited to release a grant: a transaction's own
    /// locks when it ends, and an agent's inherited ones when a revoke makes
    /// it drop them.
    pub releases: u64,
    /// Acquires satisfied without waiting.
    pub immediate: u64,
    /// Acquires that had to block.
    pub waits: u64,
    /// In-place or queued mode upgrades.
    pub upgrades: u64,
    /// Deadlock victims.
    pub deadlocks: u64,
    /// Timed-out waits.
    pub timeouts: u64,
    /// Total nanoseconds spent blocked.
    pub wait_nanos: u64,
}

/// A centralized multi-granularity lock manager.
pub struct LockManager {
    partitions: Vec<Mutex<IntMap<LockId, Entry>>>,
    graph: WaitsForGraph,
    timeout: Duration,
    /// Built by the first [`LockManager::begin`], so opening a manager
    /// allocates nothing for it.
    agents: OnceLock<Arc<Agents>>,
    acquisitions: AtomicU64,
    releases: AtomicU64,
    waits: AtomicU64,
    upgrades: AtomicU64,
    deadlocks: AtomicU64,
    timeouts: AtomicU64,
    wait_nanos: AtomicU64,
}

impl LockManager {
    /// Default lock-wait timeout.
    pub const DEFAULT_TIMEOUT: Duration = Duration::from_millis(200);

    /// Creates a manager with `partitions` lock-table shards.
    pub fn new(partitions: usize) -> Self {
        Self::with_timeout(partitions, Self::DEFAULT_TIMEOUT)
    }

    /// Creates a manager with an explicit wait timeout.
    pub fn with_timeout(partitions: usize, timeout: Duration) -> Self {
        let n = partitions.max(1).next_power_of_two();
        LockManager {
            partitions: (0..n).map(|_| Mutex::new(IntMap::default())).collect(),
            graph: WaitsForGraph::new(),
            timeout,
            agents: OnceLock::new(),
            acquisitions: AtomicU64::new(0),
            releases: AtomicU64::new(0),
            waits: AtomicU64::new(0),
            upgrades: AtomicU64::new(0),
            deadlocks: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            wait_nanos: AtomicU64::new(0),
        }
    }

    fn partition(&self, id: LockId) -> &Mutex<IntMap<LockId, Entry>> {
        let h = id.partition_hash() as usize;
        &self.partitions[h & (self.partitions.len() - 1)]
    }

    /// The lock list of a transaction `txn` begins. If the calling thread's
    /// agent is idle, the transaction borrows it until
    /// [`LockManager::release_all`]: the list starts with the intention
    /// grants the agent inherited, and the ones it takes go to the agent.
    /// An agent lends to one live transaction at a time, so a transaction
    /// that begins while another is live on the thread (an interactive one
    /// left open, a prepared one awaiting its verdict) gets an empty list of
    /// its own, as [`HeldLocks::new`] makes.
    pub fn begin(&self, txn: TxnId) -> HeldLocks {
        debug_assert!(!is_agent(txn), "transaction id {txn} in the agent range");
        let agent = agent::current(self.agents.get_or_init(Default::default));
        // The claim is SeqCst and comes before `check_epoch`'s SeqCst load:
        // one half of the pair `revoke` documents.
        match agent {
            Some(agent) if agent.live.compare_exchange(0, txn, Ordering::SeqCst, Ordering::SeqCst).is_ok() => {
                let mut parked = agent.parked.lock();
                self.check_epoch(&agent, &mut parked);
                let locks = std::mem::take(&mut parked.locks);
                drop(parked);
                HeldLocks { txn, agent: Some(agent), locks }
            }
            _ => HeldLocks::new(txn),
        }
    }

    /// Drops every grant `agent` inherited if a revoke moved the epoch since
    /// they were last checked: a requester may have removed one of them.
    fn check_epoch(&self, agent: &Agent, parked: &mut Parked) {
        let epoch = self.agents().epoch.load(Ordering::SeqCst);
        if epoch == parked.epoch {
            return;
        }
        parked.epoch = epoch;
        // Checker mutation seam: keep the inheritance, so a transaction
        // writes under a table lock a scan has already taken away.
        if esdb_sync::sched::mutated(esdb_sync::Mutation::InheritAcrossRevoke) {
            return;
        }
        self.releases.fetch_add(parked.locks.len() as u64, Ordering::Relaxed);
        for held in parked.locks.drain(..) {
            self.release(agent.id, held.id);
        }
    }

    /// Acquires `id` in `mode` for `held`'s transaction, blocking as needed.
    /// A mode `held` already covers returns without visiting the lock table;
    /// a stronger mode upgrades. `held` changes only on a grant — a deadlock
    /// victim's or timed-out request leaves it as it was — except that a
    /// non-intention mode asked of an inherited grant takes that grant from
    /// the agent first: from then on it is the transaction's own.
    pub fn acquire(&self, held: &mut HeldLocks, id: LockId, mode: LockMode) -> Result<(), LockError> {
        let pos = held.position(id);
        if pos.is_some_and(|i| held.locks[i].mode.covers(mode)) {
            return Ok(());
        }
        let agent = held.agent.as_ref().map(|a| a.id);
        let inherited = agent.is_some() && mode.is_intention() && pos.is_none_or(|i| held.locks[i].inherited);
        let mut takeover = None;
        if let Some(i) = pos {
            if held.locks[i].inherited && !inherited {
                held.locks[i].inherited = false;
                takeover = agent;
            }
        }
        let owner = match agent {
            Some(a) if inherited => a,
            _ => held.txn,
        };
        let mode = self.visit(held.txn, owner, takeover, id, mode)?;
        held.granted(pos, Held { id, mode, inherited });
        Ok(())
    }

    /// One lock-table visit for `txn`, granting to `owner` (`txn` or its
    /// agent); `takeover` names the agent whose grant on `id` becomes
    /// `txn`'s first. Returns the mode now granted.
    fn visit(
        &self,
        txn: TxnId,
        owner: TxnId,
        takeover: Option<TxnId>,
        id: LockId,
        mode: LockMode,
    ) -> Result<LockMode, LockError> {
        esdb_sync::sched::yield_now(esdb_sync::YieldPoint::LockAcquire);
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
        let slot;
        let want;
        {
            let mut part = self.partition(id).lock();
            let entry = part.entry(id).or_insert_with(new_entry);
            if let Some(agent) = takeover {
                if let Some(g) = entry.granted.iter_mut().find(|(t, _)| *t == agent) {
                    g.0 = txn;
                }
            }
            let own = entry.granted.iter().find(|&&(t, _)| t == owner).map(|&(_, m)| m);
            // (`acquire` already answered the covered case from `held`.)
            want = own.map_or(mode, |m| m.supremum(mode));
            let mut live = Vec::new();
            if !want.is_intention() && !matches!(id, LockId::Row(..)) {
                self.revoke(entry, want, &mut live);
            }

            if own.is_some() {
                self.upgrades.fetch_add(1, Ordering::Relaxed);
                if entry.granted.iter().all(|&(t, m)| t == owner || m.compatible(want)) {
                    let g = entry.granted.iter_mut().find(|(t, _)| *t == owner).expect("own grant");
                    g.1 = want;
                    return Ok(want);
                }
                // Queue the upgrade at the front (it blocks everyone anyway).
                slot = Arc::new(WaitSlot {
                    state: Mutex::new(WaitState::Waiting),
                    cv: Condvar::new(),
                });
                entry.queue.push_front(Request {
                    txn,
                    owner,
                    mode: want,
                    upgrade: true,
                    slot: Arc::clone(&slot),
                });
            } else {
                let compatible_now = entry.queue.is_empty()
                    && entry.granted.iter().all(|&(_, m)| m.compatible(mode));
                if compatible_now {
                    entry.granted.push((owner, mode));
                    return Ok(mode);
                }
                slot = Arc::new(WaitSlot {
                    state: Mutex::new(WaitState::Waiting),
                    cv: Condvar::new(),
                });
                entry.queue.push_back(Request {
                    txn,
                    owner,
                    mode,
                    upgrade: false,
                    slot: Arc::clone(&slot),
                });
            }

            // Register waits-for edges and check for a cycle while still
            // holding the partition latch (so the blocker set is consistent).
            // An agent's grant that `revoke` left stands for the live
            // transaction borrowing it.
            let mut blockers: Vec<TxnId> = entry
                .granted
                .iter()
                .filter(|&&(t, m)| t != owner && !is_agent(t) && !m.compatible(want))
                .map(|&(t, _)| t)
                .chain(live)
                .collect();
            for r in &entry.queue {
                if r.txn == txn {
                    break;
                }
                if !r.mode.compatible(want) {
                    blockers.push(r.txn);
                }
            }
            if self.graph.block_or_detect(txn, &blockers) {
                // Victim: withdraw the request.
                let entry = part.get_mut(&id).unwrap();
                entry.queue.retain(|r| !Arc::ptr_eq(&r.slot, &slot));
                self.deadlocks.fetch_add(1, Ordering::Relaxed);
                return Err(LockError::Deadlock);
            }
        }

        // Blocked: wait for grant or timeout.
        self.waits.fetch_add(1, Ordering::Relaxed);
        let _wait = esdb_obs::wait_timer(esdb_obs::WaitClass::LockWait);
        let start = std::time::Instant::now();
        // Deterministic checking: a virtual thread parks on the scheduler seam
        // and never times out — wait-die/at-block detection already ran above,
        // and the checker's stuck detection subsumes the wall-clock timeout.
        if esdb_sync::sched::block_until(esdb_sync::YieldPoint::LockWait, || {
            *slot.state.lock() == WaitState::Granted
        }) {
            self.graph.clear(txn);
            let waited = start.elapsed().as_nanos() as u64;
            self.wait_nanos.fetch_add(waited, Ordering::Relaxed);
            esdb_obs::record_component(esdb_obs::Component::LockWait, waited);
            return Ok(want);
        }
        let mut st = slot.state.lock();
        while *st == WaitState::Waiting {
            let (guard, timed_out) = slot.cv.wait_timeout(st, self.timeout);
            st = guard;
            if timed_out.timed_out() && *st == WaitState::Waiting {
                drop(st);
                // Withdraw under the partition latch; we may have been
                // granted in the meantime.
                let mut part = self.partition(id).lock();
                let granted_late = {
                    let s = slot.state.lock();
                    *s == WaitState::Granted
                };
                if !granted_late {
                    if let Some(entry) = part.get_mut(&id) {
                        entry.queue.retain(|r| !Arc::ptr_eq(&r.slot, &slot));
                        // Our departure may unblock the queue.
                        let signals = entry.grant_waiters();
                        drop(part);
                        for s in signals {
                            s.cv.notify_all();
                        }
                    }
                    self.graph.clear(txn);
                    self.timeouts.fetch_add(1, Ordering::Relaxed);
                    let waited = start.elapsed().as_nanos() as u64;
                    self.wait_nanos.fetch_add(waited, Ordering::Relaxed);
                    esdb_obs::record_component(esdb_obs::Component::LockWait, waited);
                    return Err(LockError::Timeout);
                }
                drop(part);
                st = slot.state.lock();
            }
        }
        self.graph.clear(txn);
        let waited = start.elapsed().as_nanos() as u64;
        self.wait_nanos.fetch_add(waited, Ordering::Relaxed);
        esdb_obs::record_component(esdb_obs::Component::LockWait, waited);
        drop(st);
        Ok(want)
    }

    /// Makes way for `want` (S, SIX or X) on a database or table granule:
    /// every agent grant there is an IS or IX the request may conflict with.
    /// An idle agent's conflicting grant is removed here; a live one stays,
    /// and the transaction borrowing it goes into `live` — the request waits
    /// for it like for any holder, with a waits-for edge, and that
    /// transaction's end releases the grant.
    ///
    /// Why that is safe without a lock shared with the agents: the bump
    /// below and the load of each agent's `live` are SeqCst, and so are the
    /// agent's two steps in the other order — `live` claimed (`begin`) or
    /// cleared (`release_all`) *before* the epoch load in `check_epoch`. In
    /// the single total order of SeqCst operations either the requester's
    /// load sees the agent's `live` or the agent's load sees the bump, so an
    /// agent that this requester treats as idle drops its inheritance before
    /// its next transaction uses any of it, and a live one the requester
    /// waits for drops it when its transaction ends. With weaker orderings
    /// both loads could read the old values, and a transaction would write
    /// under a table lock the requester had just taken away.
    fn revoke(&self, entry: &mut Entry, want: LockMode, live: &mut Vec<TxnId>) {
        if entry.granted.iter().all(|&(t, m)| !is_agent(t) || m.compatible(want)) {
            return;
        }
        let agents = self.agents();
        agents.epoch.fetch_add(1, Ordering::SeqCst);
        let before = entry.granted.len();
        entry.granted.retain(|&(t, m)| {
            if !is_agent(t) || m.compatible(want) {
                return true;
            }
            match agents.get(t).live.load(Ordering::SeqCst) {
                0 => false,
                txn => {
                    live.push(txn);
                    true
                }
            }
        });
        if entry.granted.len() < before {
            for s in entry.grant_waiters() {
                s.cv.notify_all();
            }
        }
    }

    /// Acquires a row lock with the proper intention locks on its ancestors.
    pub fn lock_row(
        &self,
        held: &mut HeldLocks,
        table: u32,
        key: u64,
        mode: LockMode,
    ) -> Result<(), LockError> {
        debug_assert!(!mode.is_intention(), "row locks are absolute");
        self.acquire(held, LockId::Database, mode.intention())?;
        self.acquire(held, LockId::Table(table), mode.intention())?;
        self.acquire(held, LockId::Row(table, key), mode)
    }

    /// Acquires a table lock with the intention lock on the database.
    pub fn lock_table(&self, held: &mut HeldLocks, table: u32, mode: LockMode) -> Result<(), LockError> {
        self.acquire(held, LockId::Database, mode.intention())?;
        self.acquire(held, LockId::Table(table), mode)
    }

    /// Releases the transaction's own locks in `held` (strict 2PL release
    /// point) and wakes newly grantable waiters, leaving `held` empty and
    /// bound to no agent. The grants `held` kept for its agent stay in the
    /// lock table, unvisited, for the agent's next transaction — unless a
    /// revoke moved the epoch meanwhile, in which case they go too.
    pub fn release_all(&self, held: &mut HeldLocks) {
        esdb_sync::sched::yield_now(esdb_sync::YieldPoint::LockRelease);
        let txn = held.txn;
        let mut released = 0;
        held.locks.retain(|h| {
            if !h.inherited {
                self.release(txn, h.id);
                released += 1;
            }
            h.inherited
        });
        if released > 0 {
            self.releases.fetch_add(released, Ordering::Relaxed);
        }
        if let Some(agent) = held.agent.take() {
            let mut parked = agent.parked.lock();
            parked.locks = std::mem::take(&mut held.locks);
            // Cleared (SeqCst) before `check_epoch`'s SeqCst load: the other
            // of the agent's two steps `revoke` documents.
            agent.live.store(0, Ordering::SeqCst);
            self.check_epoch(&agent, &mut parked);
        }
    }

    /// Removes `owner`'s grant on `id`, if present, and wakes the waiters
    /// that makes grantable. The caller counts it in `releases`.
    fn release(&self, owner: TxnId, id: LockId) {
        let mut part = self.partition(id).lock();
        if let Some(entry) = part.get_mut(&id) {
            entry.granted.retain(|&(t, _)| t != owner);
            let signals = entry.grant_waiters();
            // Row entries are reclaimed, their granted set kept as the
            // thread's spare; the database and table entries (one per
            // table, taken by every transaction) keep their granted-set
            // allocation for the next holder.
            let free = matches!(id, LockId::Row(..)) && entry.granted.is_empty() && entry.queue.is_empty();
            let reclaimed = if free { part.remove(&id) } else { None };
            drop(part);
            if let Some(entry) = reclaimed {
                spare(entry.granted);
            }
            for s in signals {
                s.cv.notify_all();
            }
        }
    }

    /// Mode `owner` (a transaction, or an agent from
    /// [`AGENT_BASE`](crate::AGENT_BASE) up) currently holds on `id`, if any
    /// (diagnostics).
    pub fn held_mode(&self, owner: TxnId, id: LockId) -> Option<LockMode> {
        let part = self.partition(id).lock();
        part.get(&id)
            .and_then(|e| e.granted.iter().find(|&&(t, _)| t == owner).map(|&(_, m)| m))
    }

    /// The agent table; only called where an agent exists.
    fn agents(&self) -> &Agents {
        self.agents.get().expect("an agent exists, so its table does")
    }

    /// Number of agents this manager has made: at most the number of
    /// threads bound to it at once (diagnostics).
    pub fn agent_count(&self) -> usize {
        self.agents.get().map_or(0, |a| a.len())
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> LockStatsSnapshot {
        let acquisitions = self.acquisitions.load(Ordering::Relaxed);
        let waits = self.waits.load(Ordering::Relaxed);
        let deadlocks = self.deadlocks.load(Ordering::Relaxed);
        LockStatsSnapshot {
            acquisitions,
            releases: self.releases.load(Ordering::Relaxed),
            // Every visit that did not queue: a queued one ends as a
            // deadlock victim or a wait.
            immediate: acquisitions.saturating_sub(waits + deadlocks),
            waits,
            upgrades: self.upgrades.load(Ordering::Relaxed),
            deadlocks,
            timeouts: self.timeouts.load(Ordering::Relaxed),
            wait_nanos: self.wait_nanos.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn mgr() -> Arc<LockManager> {
        Arc::new(LockManager::with_timeout(16, Duration::from_millis(200)))
    }

    const ROW: LockId = LockId::Row(1, 1);

    /// Acquires on another thread, handing the list back with the result.
    fn spawn_acquire(
        m: &Arc<LockManager>,
        mut held: HeldLocks,
        id: LockId,
        mode: LockMode,
    ) -> std::thread::JoinHandle<(HeldLocks, Result<(), LockError>)> {
        let m = Arc::clone(m);
        std::thread::spawn(move || {
            let r = m.acquire(&mut held, id, mode);
            (held, r)
        })
    }

    /// Spins until `txn`'s request on `id` is queued (no sleeps: the
    /// interleaving under test is "the waiter is parked, then the holder
    /// releases").
    fn wait_until_queued(m: &LockManager, id: LockId, txn: TxnId) {
        while !m
            .partition(id)
            .lock()
            .get(&id)
            .is_some_and(|e| e.queue.iter().any(|r| r.txn == txn))
        {
            std::thread::yield_now();
        }
    }

    #[test]
    fn shared_locks_coexist() {
        let m = mgr();
        let (mut a, mut b) = (HeldLocks::new(1), HeldLocks::new(2));
        m.acquire(&mut a, LockId::Row(1, 5), LockMode::S).unwrap();
        m.acquire(&mut b, LockId::Row(1, 5), LockMode::S).unwrap();
        assert_eq!(m.held_mode(1, LockId::Row(1, 5)), Some(LockMode::S));
        assert_eq!(a.mode(LockId::Row(1, 5)), Some(LockMode::S));
        assert_eq!(m.stats().waits, 0);
    }

    #[test]
    fn covered_reacquire_makes_no_lock_table_visit() {
        let m = mgr();
        let mut a = HeldLocks::new(1);
        m.lock_row(&mut a, 1, 5, LockMode::X).unwrap();
        assert_eq!(m.stats().acquisitions, 3, "database, table, row");
        // Same row again in X and in S, and a sibling row: only the sibling's
        // row lock is new — both intention locks are covered.
        m.lock_row(&mut a, 1, 5, LockMode::X).unwrap();
        m.lock_row(&mut a, 1, 5, LockMode::S).unwrap();
        assert_eq!(m.stats().acquisitions, 3);
        m.lock_row(&mut a, 1, 6, LockMode::S).unwrap();
        assert_eq!(m.stats().acquisitions, 4);
        assert_eq!(a.len(), 4);
        assert_eq!(m.held_mode(1, LockId::Row(1, 5)), Some(LockMode::X));
    }

    #[test]
    fn exclusive_blocks_then_releases() {
        let m = mgr();
        let mut a = HeldLocks::new(1);
        m.acquire(&mut a, ROW, LockMode::X).unwrap();
        let h = spawn_acquire(&m, HeldLocks::new(2), ROW, LockMode::X);
        wait_until_queued(&m, ROW, 2);
        m.release_all(&mut a);
        assert!(a.is_empty(), "release_all empties the list");
        let (b, r) = h.join().unwrap();
        assert_eq!(r, Ok(()));
        assert_eq!(b.mode(ROW), Some(LockMode::X), "the woken waiter holds the lock");
        assert_eq!(m.held_mode(1, ROW), None);
        assert_eq!(m.stats().waits, 1);
    }

    #[test]
    fn sole_reader_upgrades_in_place() {
        let m = mgr();
        let mut a = HeldLocks::new(1);
        m.acquire(&mut a, ROW, LockMode::S).unwrap();
        m.acquire(&mut a, ROW, LockMode::X).unwrap();
        assert_eq!(m.held_mode(1, ROW), Some(LockMode::X));
        assert_eq!(a.mode(ROW), Some(LockMode::X));
        assert_eq!(a.len(), 1, "an upgrade updates the entry, it does not add one");
        assert_eq!(m.stats().upgrades, 1);
    }

    #[test]
    fn upgrade_waits_for_other_reader() {
        let m = mgr();
        let (mut a, mut b) = (HeldLocks::new(1), HeldLocks::new(2));
        m.acquire(&mut a, ROW, LockMode::S).unwrap();
        m.acquire(&mut b, ROW, LockMode::S).unwrap();
        let h = spawn_acquire(&m, a, ROW, LockMode::X);
        wait_until_queued(&m, ROW, 1);
        assert_eq!(m.held_mode(1, ROW), Some(LockMode::S), "still blocked behind txn 2");
        m.release_all(&mut b);
        let (a, r) = h.join().unwrap();
        assert_eq!(r, Ok(()));
        assert_eq!(m.held_mode(1, ROW), Some(LockMode::X));
        assert_eq!(a.mode(ROW), Some(LockMode::X));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn deadlock_detected_and_victim_chosen() {
        let m = mgr();
        let (mut a, mut b) = (HeldLocks::new(1), HeldLocks::new(2));
        m.acquire(&mut a, LockId::Row(1, 1), LockMode::X).unwrap();
        m.acquire(&mut b, LockId::Row(1, 2), LockMode::X).unwrap();
        // txn 1 waits for row 2 (held by 2)...
        let h = spawn_acquire(&m, a, LockId::Row(1, 2), LockMode::X);
        wait_until_queued(&m, LockId::Row(1, 2), 1);
        // ...and txn 2 closing the cycle is told at once; its withdrawn
        // request leaves its list as it was.
        assert_eq!(m.acquire(&mut b, LockId::Row(1, 1), LockMode::X), Err(LockError::Deadlock));
        assert_eq!(b.len(), 1);
        assert_eq!(b.mode(LockId::Row(1, 1)), None);
        assert_eq!(b.mode(LockId::Row(1, 2)), Some(LockMode::X));
        m.release_all(&mut b);
        let (a, r) = h.join().unwrap();
        assert_eq!(r, Ok(()));
        assert_eq!(a.len(), 2);
        assert_eq!(m.stats().deadlocks, 1);
    }

    #[test]
    fn hierarchy_sets_intentions() {
        let m = mgr();
        let (mut a, mut b) = (HeldLocks::new(1), HeldLocks::new(2));
        m.lock_row(&mut a, 3, 99, LockMode::X).unwrap();
        assert_eq!(m.held_mode(1, LockId::Database), Some(LockMode::IX));
        assert_eq!(m.held_mode(1, LockId::Table(3)), Some(LockMode::IX));
        assert_eq!(m.held_mode(1, LockId::Row(3, 99)), Some(LockMode::X));
        // A table scanner blocks on the table lock but not the database.
        m.acquire(&mut b, LockId::Database, LockMode::IS).unwrap();
        let h = spawn_acquire(&m, b, LockId::Table(3), LockMode::S);
        wait_until_queued(&m, LockId::Table(3), 2);
        m.release_all(&mut a);
        assert_eq!(h.join().unwrap().1, Ok(()));
    }

    #[test]
    fn timeout_fires_without_release() {
        let m = Arc::new(LockManager::with_timeout(4, Duration::from_millis(50)));
        let (mut a, mut b) = (HeldLocks::new(1), HeldLocks::new(2));
        m.acquire(&mut a, ROW, LockMode::X).unwrap();
        assert_eq!(m.acquire(&mut b, ROW, LockMode::S), Err(LockError::Timeout));
        assert!(b.is_empty(), "a timed-out request is not held");
        assert_eq!(m.stats().timeouts, 1);
        // The holder is unaffected.
        assert_eq!(m.held_mode(1, ROW), Some(LockMode::X));
    }

    #[test]
    fn fifo_no_starvation_of_writer() {
        let m = mgr();
        let mut a = HeldLocks::new(1);
        m.acquire(&mut a, ROW, LockMode::S).unwrap();
        // Writer queues...
        let writer = spawn_acquire(&m, HeldLocks::new(2), ROW, LockMode::X);
        wait_until_queued(&m, ROW, 2);
        // ...then a reader arrives: FIFO means it must queue behind the writer.
        let reader = spawn_acquire(&m, HeldLocks::new(3), ROW, LockMode::S);
        wait_until_queued(&m, ROW, 3);
        m.release_all(&mut a);
        let (mut w, r) = writer.join().unwrap();
        assert_eq!(r, Ok(()));
        assert_eq!(m.held_mode(3, ROW), None, "reader waits out the writer");
        m.release_all(&mut w);
        assert_eq!(reader.join().unwrap().1, Ok(()));
    }

    #[test]
    fn stress_many_txns_disjoint_rows() {
        let m = mgr();
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                let mut held = HeldLocks::new(t + 1);
                for k in 0..200u64 {
                    m.lock_row(&mut held, 1, t * 1_000 + k, LockMode::X).unwrap();
                }
                m.release_all(&mut held);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = m.stats();
        assert_eq!(s.deadlocks, 0);
        assert_eq!(s.timeouts, 0);
        assert_eq!(s.acquisitions, 8 * (200 + 2), "each txn: 200 rows + database + table");
    }

    #[test]
    fn every_way_out_of_a_wait_clears_the_waiters_edges() {
        // Granted.
        let m = mgr();
        let mut a = HeldLocks::new(1);
        m.acquire(&mut a, ROW, LockMode::X).unwrap();
        let h = spawn_acquire(&m, HeldLocks::new(2), ROW, LockMode::X);
        wait_until_queued(&m, ROW, 2);
        assert_eq!(m.graph.waiting_count(), 1);
        m.release_all(&mut a);
        assert_eq!(h.join().unwrap().1, Ok(()));
        assert_eq!(m.graph.waiting_count(), 0, "after a grant");

        // Timed out.
        let m = Arc::new(LockManager::with_timeout(4, Duration::from_millis(20)));
        let mut a = HeldLocks::new(1);
        m.acquire(&mut a, ROW, LockMode::X).unwrap();
        assert_eq!(m.acquire(&mut HeldLocks::new(2), ROW, LockMode::X), Err(LockError::Timeout));
        assert_eq!(m.graph.waiting_count(), 0, "after a timeout");

        // Deadlock victim: txn 1 waits for 2, and 2 closing the cycle is told.
        let m = mgr();
        let (mut a, mut b) = (HeldLocks::new(1), HeldLocks::new(2));
        m.acquire(&mut a, LockId::Row(1, 1), LockMode::X).unwrap();
        m.acquire(&mut b, LockId::Row(1, 2), LockMode::X).unwrap();
        let h = spawn_acquire(&m, a, LockId::Row(1, 2), LockMode::X);
        wait_until_queued(&m, LockId::Row(1, 2), 1);
        assert_eq!(m.acquire(&mut b, LockId::Row(1, 1), LockMode::X), Err(LockError::Deadlock));
        assert_eq!(m.graph.waiting_count(), 1, "the victim's edges are gone, the waiter's stay");
        m.release_all(&mut b);
        assert_eq!(h.join().unwrap().1, Ok(()));
        assert_eq!(m.graph.waiting_count(), 0, "after a victim and a grant");
    }

    const AGENT: TxnId = crate::AGENT_BASE;

    impl HeldLocks {
        /// Number of held locks that are the agent's, kept when the
        /// transaction ends.
        fn inherited(&self) -> usize {
            self.locks.iter().filter(|h| h.inherited).count()
        }
    }

    /// One transaction on a thread of its own, with that thread's agent.
    fn spawn_txn<R: Send + 'static>(
        m: &Arc<LockManager>,
        txn: TxnId,
        f: impl FnOnce(&LockManager, &mut HeldLocks) -> R + Send + 'static,
    ) -> std::thread::JoinHandle<R> {
        let m = Arc::clone(m);
        std::thread::spawn(move || {
            let mut held = m.begin(txn);
            let r = f(&m, &mut held);
            m.release_all(&mut held);
            r
        })
    }

    #[test]
    fn a_thread_inherits_its_intention_locks() {
        let m = mgr();
        let mut a = m.begin(1);
        m.lock_row(&mut a, 1, 5, LockMode::X).unwrap();
        assert_eq!(a.inherited(), 2, "database and table go to the agent");
        assert_eq!(m.held_mode(AGENT, LockId::Table(1)), Some(LockMode::IX));
        assert_eq!(m.held_mode(1, LockId::Row(1, 5)), Some(LockMode::X));
        m.release_all(&mut a);
        assert!(a.is_empty());
        assert_eq!(m.held_mode(1, LockId::Row(1, 5)), None);
        assert_eq!(m.held_mode(AGENT, LockId::Table(1)), Some(LockMode::IX), "kept for the next txn");
        assert_eq!((m.stats().acquisitions, m.stats().releases), (3, 1));

        let mut b = m.begin(2);
        assert_eq!(b.inherited(), 2);
        m.lock_row(&mut b, 1, 6, LockMode::S).unwrap();
        m.release_all(&mut b);
        assert_eq!((m.stats().acquisitions, m.stats().releases), (4, 2), "the row alone, both ways");
        assert_eq!(m.agent_count(), 1);
    }

    #[test]
    fn a_transaction_begun_while_another_is_live_takes_its_own_intentions() {
        let m = mgr();
        let mut a = m.begin(1);
        m.lock_row(&mut a, 1, 5, LockMode::X).unwrap();
        let mut b = m.begin(2);
        m.lock_row(&mut b, 1, 6, LockMode::X).unwrap();
        assert_eq!(b.inherited(), 0);
        assert_eq!(m.held_mode(2, LockId::Table(1)), Some(LockMode::IX));
        m.release_all(&mut b);
        assert_eq!(m.held_mode(2, LockId::Table(1)), None, "released, not inherited");
        m.release_all(&mut a);
        assert_eq!(m.held_mode(AGENT, LockId::Table(1)), Some(LockMode::IX));
    }

    #[test]
    fn a_range_steals_an_idle_agents_intention_lock() {
        let m = mgr();
        let mut a = m.begin(1);
        m.lock_row(&mut a, 1, 5, LockMode::X).unwrap();
        m.release_all(&mut a);
        let reader = spawn_txn(&m, 2, |m, held| {
            let r = m.lock_table(held, 1, LockMode::S);
            (r, m.held_mode(2, LockId::Table(1)))
        });
        assert_eq!(reader.join().unwrap(), (Ok(()), Some(LockMode::S)));
        assert_eq!(m.stats().waits, 0, "an idle agent is not waited for");
        assert_eq!(m.held_mode(AGENT, LockId::Table(1)), None, "its grant was taken");
        // The agent's next transaction drops the rest and starts afresh.
        let mut c = m.begin(3);
        assert_eq!(c.inherited(), 0);
        assert_eq!(m.held_mode(AGENT, LockId::Database), None);
        m.lock_row(&mut c, 1, 5, LockMode::X).unwrap();
        assert_eq!(m.held_mode(AGENT, LockId::Table(1)), Some(LockMode::IX));
        m.release_all(&mut c);
    }

    #[test]
    fn a_range_waits_for_a_live_inheritor_until_it_ends() {
        let m = mgr();
        let mut a = m.begin(1);
        m.lock_row(&mut a, 1, 5, LockMode::X).unwrap();
        let reader = spawn_txn(&m, 2, |m, held| m.lock_table(held, 1, LockMode::S));
        wait_until_queued(&m, LockId::Table(1), 2);
        assert_eq!(m.held_mode(AGENT, LockId::Table(1)), Some(LockMode::IX));
        m.release_all(&mut a);
        assert_eq!(reader.join().unwrap(), Ok(()));
        assert_eq!(m.stats().waits, 1);
        assert_eq!(m.held_mode(AGENT, LockId::Table(1)), None, "the ending transaction dropped it");
        assert_eq!(m.graph.waiting_count(), 0);
    }

    #[test]
    fn a_range_by_the_agents_own_transaction_upgrades_without_waiting() {
        let m = mgr();
        let mut a = m.begin(1);
        m.lock_row(&mut a, 1, 5, LockMode::X).unwrap();
        m.lock_table(&mut a, 1, LockMode::S).unwrap();
        assert_eq!(a.mode(LockId::Table(1)), Some(LockMode::SIX));
        assert_eq!(a.inherited(), 1, "only the database intention stays the agent's");
        assert_eq!(m.held_mode(1, LockId::Table(1)), Some(LockMode::SIX));
        assert_eq!(m.held_mode(AGENT, LockId::Table(1)), None);
        assert_eq!(m.stats().waits, 0);
        m.release_all(&mut a);
        assert_eq!(m.held_mode(1, LockId::Table(1)), None, "the taken-over lock is the transaction's");
        assert_eq!(m.held_mode(AGENT, LockId::Database), Some(LockMode::IX));
    }

    #[test]
    fn a_deadlock_through_an_inherited_grant_is_found_when_it_closes() {
        let m = Arc::new(LockManager::with_timeout(16, Duration::from_secs(10)));
        let mut a = m.begin(1);
        m.lock_row(&mut a, 1, 1, LockMode::X).unwrap();
        // Txn 2 holds a row of table 2, then waits for txn 1's (agent-held)
        // intention lock on table 1...
        let (locked, go) = std::sync::mpsc::channel();
        let other = spawn_txn(&m, 2, move |m, held| {
            m.lock_row(held, 2, 7, LockMode::X).unwrap();
            locked.send(()).unwrap();
            m.lock_table(held, 1, LockMode::S)
        });
        go.recv().unwrap();
        wait_until_queued(&m, LockId::Table(1), 2);
        // ...so txn 1 asking for that row closes the cycle and is told at once.
        let start = std::time::Instant::now();
        assert_eq!(m.lock_row(&mut a, 2, 7, LockMode::X), Err(LockError::Deadlock));
        assert!(start.elapsed() < Duration::from_secs(5), "found at block time, not by the timeout");
        m.release_all(&mut a);
        assert_eq!(other.join().unwrap(), Ok(()));
        assert_eq!((m.stats().deadlocks, m.stats().timeouts), (1, 0));
    }

    #[test]
    fn a_thread_alternating_between_managers_keeps_one_agent_in_each() {
        // More managers than a thread keeps bindings for: the evicted agent
        // goes back to its manager's free list and is taken again.
        let ms: Vec<_> = (0..6).map(|_| mgr()).collect();
        for round in 0..20u64 {
            for m in &ms {
                let mut held = m.begin(round + 1);
                m.lock_row(&mut held, 1, round, LockMode::X).unwrap();
                m.release_all(&mut held);
            }
        }
        for m in &ms {
            assert_eq!(m.agent_count(), 1);
            // A rebound agent drops what it inherited, so the table entries
            // never hold more than the one agent's grant.
            assert_eq!(m.held_mode(AGENT, LockId::Table(1)), Some(LockMode::IX));
        }
        // Two managers fit: after the first round each transaction visits its row alone.
        let (x, y) = (mgr(), mgr());
        for round in 0..10u64 {
            for m in [&x, &y] {
                let mut held = m.begin(round + 1);
                m.lock_row(&mut held, 1, round, LockMode::X).unwrap();
                m.release_all(&mut held);
            }
        }
        assert_eq!((x.stats().acquisitions, y.stats().acquisitions), (3 + 9, 3 + 9));
    }

    #[test]
    fn an_exited_threads_agent_is_reused_without_its_grants() {
        let m = mgr();
        spawn_txn(&m, 1, |m, held| m.lock_row(held, 1, 1, LockMode::X)).join().unwrap().unwrap();
        assert_eq!(m.held_mode(AGENT, LockId::Table(1)), Some(LockMode::IX));
        let inherited = spawn_txn(&m, 2, |_, held| held.inherited()).join().unwrap();
        assert_eq!(inherited, 0, "a retired agent starts empty");
        assert_eq!(m.agent_count(), 1);
        assert_eq!(m.held_mode(AGENT, LockId::Table(1)), None);
    }
}

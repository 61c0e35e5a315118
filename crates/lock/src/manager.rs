//! The lock table: partitioned, FIFO-fair, upgrade-aware, deadlock-checked.

use crate::deadlock::WaitsForGraph;
use crate::id::LockId;
use crate::mode::LockMode;
use crate::TxnId;
use esdb_sync::IntMap;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
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
    state: StdMutex<WaitState>,
    cv: Condvar,
}

struct Request {
    txn: TxnId,
    mode: LockMode,
    /// `true` if `txn` already holds this lock in a weaker mode.
    upgrade: bool,
    slot: Arc<WaitSlot>,
}

#[derive(Default)]
struct Entry {
    granted: Vec<(TxnId, LockMode)>,
    queue: VecDeque<Request>,
}

impl Entry {
    fn grantable(&self, req: &Request) -> bool {
        self.granted
            .iter()
            .all(|&(t, m)| (req.upgrade && t == req.txn) || m.compatible(req.mode))
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
                    .find(|(t, _)| *t == req.txn)
                    .expect("upgrader must be in granted set");
                g.1 = req.mode;
            } else {
                self.granted.push((req.txn, req.mode));
            }
            let mut st = req.slot.state.lock().unwrap();
            *st = WaitState::Granted;
            drop(st);
            signals.push(req.slot);
        }
        signals
    }
}

/// The locks one transaction holds — owned by the transaction, not by the
/// manager. It is consulted *before* the lock table (re-acquiring a covered
/// mode costs no lock-table visit) and it is the release list: there is no
/// second, manager-side record of who holds what beyond each lock's own
/// granted set.
#[derive(Debug)]
pub struct HeldLocks {
    txn: TxnId,
    locks: Vec<(LockId, LockMode)>,
}

impl HeldLocks {
    /// An empty list for transaction `txn`, sized so that an OLTP
    /// transaction's dozen locks never regrow it.
    pub fn new(txn: TxnId) -> Self {
        HeldLocks { txn, locks: Vec::with_capacity(16) }
    }

    /// Mode held on `id`, if any.
    pub fn mode(&self, id: LockId) -> Option<LockMode> {
        self.position(id).map(|i| self.locks[i].1)
    }

    /// Number of distinct locks held.
    pub fn len(&self) -> usize {
        self.locks.len()
    }

    /// `true` when no lock is held.
    pub fn is_empty(&self) -> bool {
        self.locks.is_empty()
    }

    fn position(&self, id: LockId) -> Option<usize> {
        self.locks.iter().position(|&(held, _)| held == id)
    }

    /// Records a grant: a new entry, or the stronger mode of an upgrade.
    fn granted(&mut self, pos: Option<usize>, id: LockId, mode: LockMode) {
        match pos {
            Some(i) => self.locks[i].1 = mode,
            None => self.locks.push((id, mode)),
        }
    }
}

/// Cumulative lock-manager statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockStatsSnapshot {
    /// Lock-table visits: acquires the caller's [`HeldLocks`] did not
    /// already cover.
    pub acquisitions: u64,
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
    acquisitions: AtomicU64,
    immediate: AtomicU64,
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
            acquisitions: AtomicU64::new(0),
            immediate: AtomicU64::new(0),
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

    /// Acquires `id` in `mode` for `held`'s transaction, blocking as needed.
    /// A mode `held` already covers returns without visiting the lock table;
    /// a stronger mode upgrades. `held` changes only on a grant — a deadlock
    /// victim's or timed-out request leaves it as it was.
    pub fn acquire(&self, held: &mut HeldLocks, id: LockId, mode: LockMode) -> Result<(), LockError> {
        let pos = held.position(id);
        if pos.is_some_and(|i| held.locks[i].1.covers(mode)) {
            return Ok(());
        }
        let granted = self.visit(held.txn, id, mode)?;
        held.granted(pos, id, granted);
        Ok(())
    }

    /// One lock-table visit; returns the mode now granted.
    fn visit(&self, txn: TxnId, id: LockId, mode: LockMode) -> Result<LockMode, LockError> {
        esdb_sync::sched::yield_now(esdb_sync::YieldPoint::LockAcquire);
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
        let slot;
        let want;
        {
            let mut part = self.partition(id).lock();
            let entry = part.entry(id).or_default();

            if let Some(pos) = entry.granted.iter().position(|&(t, _)| t == txn) {
                // (`acquire` already answered the covered case from `held`.)
                want = entry.granted[pos].1.supremum(mode);
                self.upgrades.fetch_add(1, Ordering::Relaxed);
                if entry
                    .granted
                    .iter()
                    .all(|&(t, m)| t == txn || m.compatible(want))
                {
                    entry.granted[pos].1 = want;
                    self.immediate.fetch_add(1, Ordering::Relaxed);
                    return Ok(want);
                }
                // Queue the upgrade at the front (it blocks everyone anyway).
                slot = Arc::new(WaitSlot {
                    state: StdMutex::new(WaitState::Waiting),
                    cv: Condvar::new(),
                });
                entry.queue.push_front(Request {
                    txn,
                    mode: want,
                    upgrade: true,
                    slot: Arc::clone(&slot),
                });
            } else {
                let compatible_now = entry.queue.is_empty()
                    && entry.granted.iter().all(|&(_, m)| m.compatible(mode));
                if compatible_now {
                    entry.granted.push((txn, mode));
                    self.immediate.fetch_add(1, Ordering::Relaxed);
                    return Ok(mode);
                }
                slot = Arc::new(WaitSlot {
                    state: StdMutex::new(WaitState::Waiting),
                    cv: Condvar::new(),
                });
                entry.queue.push_back(Request {
                    txn,
                    mode,
                    upgrade: false,
                    slot: Arc::clone(&slot),
                });
                want = mode;
            }

            // Register waits-for edges and check for a cycle while still
            // holding the partition latch (so the blocker set is consistent).
            let mut blockers: Vec<TxnId> = entry
                .granted
                .iter()
                .filter(|&&(t, m)| t != txn && !m.compatible(mode))
                .map(|&(t, _)| t)
                .collect();
            for r in &entry.queue {
                if r.txn == txn {
                    break;
                }
                if !r.mode.compatible(mode) {
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
            *slot.state.lock().unwrap() == WaitState::Granted
        }) {
            self.graph.clear(txn);
            let waited = start.elapsed().as_nanos() as u64;
            self.wait_nanos.fetch_add(waited, Ordering::Relaxed);
            esdb_obs::record_component(esdb_obs::Component::LockWait, waited);
            return Ok(want);
        }
        let mut st = slot.slot_state();
        while *st == WaitState::Waiting {
            let (guard, timed_out) = slot
                .cv
                .wait_timeout(st, self.timeout)
                .expect("lock wait poisoned");
            st = guard;
            if timed_out.timed_out() && *st == WaitState::Waiting {
                drop(st);
                // Withdraw under the partition latch; we may have been
                // granted in the meantime.
                let mut part = self.partition(id).lock();
                let granted_late = {
                    let s = slot.state.lock().unwrap();
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
                st = slot.slot_state();
            }
        }
        self.graph.clear(txn);
        let waited = start.elapsed().as_nanos() as u64;
        self.wait_nanos.fetch_add(waited, Ordering::Relaxed);
        esdb_obs::record_component(esdb_obs::Component::LockWait, waited);
        drop(st);
        Ok(want)
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

    /// Releases every lock in `held` (strict 2PL release point), leaving it
    /// empty, and wakes newly grantable waiters.
    pub fn release_all(&self, held: &mut HeldLocks) {
        esdb_sync::sched::yield_now(esdb_sync::YieldPoint::LockRelease);
        let txn = held.txn;
        for (id, _) in held.locks.drain(..) {
            let mut part = self.partition(id).lock();
            if let Some(entry) = part.get_mut(&id) {
                entry.granted.retain(|&(t, _)| t != txn);
                let signals = entry.grant_waiters();
                // Row entries are reclaimed; the database and table entries
                // (one per table, taken by every transaction) keep their
                // granted-set allocation for the next holder.
                if matches!(id, LockId::Row(..)) && entry.granted.is_empty() && entry.queue.is_empty() {
                    part.remove(&id);
                }
                drop(part);
                for s in signals {
                    s.cv.notify_all();
                }
            }
        }
        self.graph.clear(txn);
    }

    /// Mode `txn` currently holds on `id`, if any (diagnostics).
    pub fn held_mode(&self, txn: TxnId, id: LockId) -> Option<LockMode> {
        let part = self.partition(id).lock();
        part.get(&id)
            .and_then(|e| e.granted.iter().find(|&&(t, _)| t == txn).map(|&(_, m)| m))
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> LockStatsSnapshot {
        LockStatsSnapshot {
            acquisitions: self.acquisitions.load(Ordering::Relaxed),
            immediate: self.immediate.load(Ordering::Relaxed),
            waits: self.waits.load(Ordering::Relaxed),
            upgrades: self.upgrades.load(Ordering::Relaxed),
            deadlocks: self.deadlocks.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            wait_nanos: self.wait_nanos.load(Ordering::Relaxed),
        }
    }
}

impl WaitSlot {
    fn slot_state(&self) -> std::sync::MutexGuard<'_, WaitState> {
        self.state.lock().unwrap()
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
}

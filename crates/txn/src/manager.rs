//! Transaction manager and transaction handles.

use esdb_lock::{HeldLocks, LockError, LockManager, LockMode};
use esdb_storage::schema::TableId;
use esdb_storage::{Rid, StorageError, Table};
use esdb_sync::{IntMap, Mutex};
use esdb_wal::record::RowOp;
use esdb_wal::{LogBody, Lsn, Wal, NULL_LSN};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Errors surfaced to transaction code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnError {
    /// Lock acquisition failed; the transaction must abort and may retry.
    Lock(LockError),
    /// Storage-level failure (missing key, duplicate key, ...).
    Storage(StorageError),
    /// Operation on a table id that was never registered.
    UnknownTable(TableId),
    /// An arithmetic update of `key` would overflow its column.
    Overflow { table: TableId, key: u64 },
}

impl From<LockError> for TxnError {
    fn from(e: LockError) -> Self {
        TxnError::Lock(e)
    }
}

impl From<StorageError> for TxnError {
    fn from(e: StorageError) -> Self {
        TxnError::Storage(e)
    }
}

impl std::fmt::Display for TxnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxnError::Lock(e) => write!(f, "lock: {e}"),
            TxnError::Storage(e) => write!(f, "storage: {e}"),
            TxnError::UnknownTable(t) => write!(f, "unknown table {t}"),
            TxnError::Overflow { table, key } => write!(f, "overflow updating key {key} of table {table}"),
        }
    }
}

impl std::error::Error for TxnError {}

/// Result alias for transaction operations.
pub type TxnResult<T> = Result<T, TxnError>;

/// The commit rule, stated once for every engine. If the transaction wrote
/// (`prev_lsn` is its last record; DORA passes [`NULL_LSN`]), append its
/// commit record. With `hold`, force the record before running `release` —
/// no early lock release, the force counted as `commit_flush`. Otherwise
/// run `release` at once and hand back the LSN still owed: the caller waits
/// on it (`log_wait`) or gives it to a group flush before acknowledging.
///
/// `release` must also take the transaction out of the active set, so the
/// commit record is appended before [`TxnManager::checkpoint_redo_floor`]
/// can pass it.
pub fn commit_rule(
    wal: &Wal,
    txn_id: u64,
    prev_lsn: Option<Lsn>,
    hold: bool,
    release: impl FnOnce(),
) -> Option<Lsn> {
    let owed = prev_lsn.and_then(|prev| wal.commit(txn_id, prev, hold));
    release();
    owed
}

/// Cumulative transaction statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxnStats {
    /// Committed transactions.
    pub commits: u64,
    /// Aborted transactions (user aborts + lock victims).
    pub aborts: u64,
}

/// One logged, locked mutation — kept for rollback, by [`Txn`] and by the
/// DORA executors alike.
pub enum UndoOp {
    /// `key` was inserted.
    Insert { table: TableId, key: u64 },
    /// `key` was updated from `before`.
    Update { table: TableId, key: u64, before: Vec<i64> },
    /// `key` was deleted; `before` is the row it held.
    Delete { table: TableId, key: u64, before: Vec<i64> },
}

impl UndoOp {
    /// The row this mutation touched.
    pub fn target(&self) -> (TableId, u64) {
        let (UndoOp::Insert { table, key }
        | UndoOp::Update { table, key, .. }
        | UndoOp::Delete { table, key, .. }) = self;
        (*table, *key)
    }

    /// Runtime compensation: rolls this mutation back on `t` (its table),
    /// logging the inverse as an ordinary row record — `log` runs under the
    /// row's page latch with its address and images and returns the LSN to
    /// stamp — so recovery repeats history through a crashed abort. A
    /// compensation that fails (the row is already as it should be) logs
    /// nothing.
    pub fn compensate(&self, t: &Table, log: impl FnOnce(Rid, RowOp<'_>) -> Lsn) {
        let _ = match self {
            UndoOp::Insert { key, .. } => t.delete_logged(*key, |rid, before| log(rid, RowOp::Delete { before })).map(drop),
            UndoOp::Update { key, before, .. } => t
                .update_logged(*key, before, |rid, current| log(rid, RowOp::Update { before: current, after: before }))
                .map(drop),
            UndoOp::Delete { key, before, .. } => {
                t.insert_logged(*key, before, |rid| log(rid, RowOp::Insert { row: before })).map(drop)
            }
        };
    }
}

/// Registered tables by id, append-only: a table is registered once and
/// never removed, so a lookup reads three `OnceLock`s — no lock, no
/// refcount. Chunk `k` holds ids `2^k - 1 ..= 2^(k+1) - 2` and is built when
/// the first of them registers; the chunk array itself, when the first
/// table does, so a manager with no table allocates nothing for it.
#[derive(Default)]
struct Registry(OnceLock<Box<[OnceLock<Chunk>; 33]>>);

/// One chunk of table slots.
type Chunk = Box<[OnceLock<Arc<Table>>]>;

impl Registry {
    /// (chunk, index in chunk) of table `id`.
    fn slot(id: TableId) -> (usize, usize) {
        let n = u64::from(id) + 1;
        let k = n.ilog2();
        (k as usize, (n - (1 << k)) as usize)
    }

    fn get(&self, id: TableId) -> Option<&Arc<Table>> {
        let (k, i) = Self::slot(id);
        self.0.get()?[k].get()?[i].get()
    }

    fn register(&self, table: Arc<Table>) {
        let id = table.id();
        let (k, i) = Self::slot(id);
        let chunks = self.0.get_or_init(|| Box::new(std::array::from_fn(|_| OnceLock::new())));
        let chunk = chunks[k].get_or_init(|| (0..1usize << k).map(|_| OnceLock::new()).collect());
        assert!(chunk[i].set(table).is_ok(), "table {id} registered twice");
    }

    /// One past the highest registered id: the last built chunk holds it.
    fn len(&self) -> usize {
        let Some(chunks) = self.0.get() else { return 0 };
        chunks
            .iter()
            .enumerate()
            .rev()
            .find_map(|(k, chunk)| {
                let last = chunk.get()?.iter().rposition(|t| t.get().is_some())?;
                Some((1 << k) + last)
            })
            .unwrap_or(0)
    }
}

/// The transaction manager: owns the table registry, the lock manager, and
/// the WAL. Cheap to share (`Arc`).
pub struct TxnManager {
    locks: Arc<LockManager>,
    wal: Arc<Wal>,
    tables: Registry,
    next_txn: AtomicU64,
    elr: bool,
    commits: AtomicU64,
    aborts: AtomicU64,
    /// First LSN of every transaction that has logged but not finished —
    /// the fuzzy checkpoint's redo low-water mark reads the minimum. The
    /// lock is held across a transaction's first append (see
    /// [`Txn::log_row`]) so [`TxnManager::checkpoint_redo_floor`] never
    /// misses an in-flight first record.
    active: Mutex<IntMap<u64, Lsn>>,
}

impl TxnManager {
    /// Creates a manager. `elr` enables early lock release at commit.
    pub fn new(locks: Arc<LockManager>, wal: Arc<Wal>, elr: bool) -> Self {
        TxnManager {
            locks,
            wal,
            tables: Registry::default(),
            next_txn: AtomicU64::new(1),
            elr,
            commits: AtomicU64::new(0),
            aborts: AtomicU64::new(0),
            active: Mutex::new(IntMap::default()),
        }
    }

    /// The earliest LSN a crash-recovery redo pass could still need, taken
    /// right now: the minimum first-LSN over active logging transactions,
    /// or the current end of log when none are. A transaction whose first
    /// append races this capture gets an LSN at or past the end-of-log read
    /// under the same lock, so the floor is never too high.
    pub fn checkpoint_redo_floor(&self) -> Lsn {
        let active = self.active.lock();
        let cur = self.wal.current_lsn();
        active.values().copied().min().map_or(cur, |m| m.min(cur))
    }

    /// Registers a table for transactional access. Each id registers once.
    pub fn register_table(&self, table: Arc<Table>) {
        self.tables.register(table);
    }

    /// Looks up a registered table.
    pub fn table(&self, id: TableId) -> TxnResult<&Arc<Table>> {
        self.tables.get(id).ok_or(TxnError::UnknownTable(id))
    }

    /// One past the highest registered table id: the id a new table takes.
    pub fn next_table_id(&self) -> TableId {
        self.tables.len() as TableId
    }

    /// All registered tables (recovery needs the full map).
    pub fn tables(&self) -> HashMap<TableId, Arc<Table>> {
        (0..self.tables.len() as TableId)
            .filter_map(|id| self.tables.get(id).map(|t| (id, Arc::clone(t))))
            .collect()
    }

    /// The WAL beneath this manager.
    pub fn wal(&self) -> &Arc<Wal> {
        &self.wal
    }

    /// The lock manager beneath this manager.
    pub fn locks(&self) -> &Arc<LockManager> {
        &self.locks
    }

    /// Begins a new transaction, borrowing the calling thread's lock agent
    /// when it is idle ([`LockManager::begin`]).
    pub fn begin(self: &Arc<Self>) -> Txn {
        let id = self.next_txn.fetch_add(1, Ordering::Relaxed);
        Txn {
            mgr: Arc::clone(self),
            id,
            held: self.locks.begin(id),
            last_lsn: NULL_LSN,
            undo: Vec::new(),
            finished: false,
        }
    }

    /// Runs `f` in a transaction, committing on `Ok` and aborting on `Err`.
    /// Lock victims (deadlock/timeout) are retried up to `retries` times.
    pub fn run<R>(
        self: &Arc<Self>,
        retries: usize,
        f: impl FnMut(&mut Txn) -> TxnResult<R>,
    ) -> TxnResult<R> {
        self.run_then(retries, f, Txn::commit).map(|(r, ())| r)
    }

    /// The one begin → apply → abort → retry loop. `apply` runs in a fresh
    /// transaction; on `Ok` the live transaction (locks held, nothing logged
    /// as finished) goes to `finish`, on `Err` it aborts — exactly once, here.
    /// Lock victims retry up to `retries` times; other errors do not.
    pub fn run_then<R, T>(
        self: &Arc<Self>,
        retries: usize,
        mut apply: impl FnMut(&mut Txn) -> TxnResult<R>,
        finish: impl FnOnce(Txn) -> T,
    ) -> TxnResult<(R, T)> {
        let mut attempt = 0;
        loop {
            let mut txn = self.begin();
            match apply(&mut txn) {
                Ok(r) => return Ok((r, finish(txn))),
                Err(e) => {
                    txn.abort();
                    if !matches!(e, TxnError::Lock(_)) || attempt == retries {
                        return Err(e);
                    }
                    attempt += 1;
                }
            }
        }
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> TxnStats {
        TxnStats {
            commits: self.commits.load(Ordering::Relaxed),
            aborts: self.aborts.load(Ordering::Relaxed),
        }
    }
}

/// An open transaction. Dropping without commit aborts.
pub struct Txn {
    mgr: Arc<TxnManager>,
    id: u64,
    /// Every lock this transaction holds: the list the lock manager is
    /// spared a visit by, and the list it releases from. It may borrow the
    /// beginning thread's agent, and it keeps that binding wherever the
    /// transaction finishes.
    held: HeldLocks,
    last_lsn: Lsn,
    undo: Vec<UndoOp>,
    finished: bool,
}

impl Txn {
    /// This transaction's id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The registered table `table`, once `held` has `key`'s row lock in
    /// `mode`. Borrows only the manager, so the row operation's logging
    /// closure can still take the transaction's log chain.
    fn lock_row<'m>(
        mgr: &'m TxnManager,
        held: &mut HeldLocks,
        table: TableId,
        key: u64,
        mode: LockMode,
    ) -> TxnResult<&'m Table> {
        let t = mgr.table(table)?;
        mgr.locks.lock_row(held, table, key, mode)?;
        Ok(t)
    }

    fn release_locks(&mut self) {
        self.mgr.locks.release_all(&mut self.held);
    }

    /// Checker mutation seam: while an installed scheduler hook switches on
    /// [`esdb_sync::Mutation::ReleaseLocksEarly`], drop every lock after
    /// each op — deliberately breaking strict 2PL so the deterministic
    /// checker can prove its oracle detects the damage.
    #[inline(always)]
    fn chaos_release_early(&mut self) {
        if esdb_sync::sched::mutated(esdb_sync::Mutation::ReleaseLocksEarly) {
            self.release_locks();
        }
    }

    /// Reads the row for `key` under a shared lock.
    pub fn read(&mut self, table: TableId, key: u64) -> TxnResult<Vec<i64>> {
        let row = Self::lock_row(&self.mgr, &mut self.held, table, key, LockMode::S)?.get(key)?;
        self.chaos_release_early();
        Ok(row)
    }

    /// Reads the row for `key` under an exclusive lock (read-for-update;
    /// avoids the S→X upgrade deadlocks of read-then-write patterns).
    pub fn read_for_update(&mut self, table: TableId, key: u64) -> TxnResult<Vec<i64>> {
        let row = Self::lock_row(&self.mgr, &mut self.held, table, key, LockMode::X)?.get(key)?;
        self.chaos_release_early();
        Ok(row)
    }

    /// Inserts `key → row`.
    pub fn insert(&mut self, table: TableId, key: u64, row: &[i64]) -> TxnResult<()> {
        let t = Self::lock_row(&self.mgr, &mut self.held, table, key, LockMode::X)?;
        t.insert_logged(key, row, |rid| {
            log_row(&self.mgr, self.id, &mut self.last_lsn, table, key, rid, RowOp::Insert { row })
        })?;
        self.undo.push(UndoOp::Insert { table, key });
        self.chaos_release_early();
        Ok(())
    }

    /// Updates the row for `key`, returning the before-image.
    pub fn update(&mut self, table: TableId, key: u64, row: &[i64]) -> TxnResult<Vec<i64>> {
        let t = Self::lock_row(&self.mgr, &mut self.held, table, key, LockMode::X)?;
        let before = t.update_logged(key, row, |rid, before| {
            log_row(&self.mgr, self.id, &mut self.last_lsn, table, key, rid, RowOp::Update { before, after: row })
        })?;
        self.undo.push(UndoOp::Update { table, key, before: before.clone() });
        self.chaos_release_early();
        Ok(before)
    }

    /// Adds `delta` to column `col` of the row for `key` under an exclusive
    /// lock, in one visit to the row ([`Table::add_logged`]), returning the
    /// before-image. An overflowing sum is [`TxnError::Overflow`] and
    /// changes nothing.
    pub fn add(&mut self, table: TableId, key: u64, col: usize, delta: i64) -> TxnResult<Vec<i64>> {
        let t = Self::lock_row(&self.mgr, &mut self.held, table, key, LockMode::X)?;
        let before = t
            .add_logged(key, col, delta, |rid, before, after| {
                log_row(&self.mgr, self.id, &mut self.last_lsn, table, key, rid, RowOp::Update { before, after })
            })?
            .ok_or(TxnError::Overflow { table, key })?;
        self.undo.push(UndoOp::Update { table, key, before: before.clone() });
        self.chaos_release_early();
        Ok(before)
    }

    /// Deletes the row for `key`, returning the before-image.
    pub fn delete(&mut self, table: TableId, key: u64) -> TxnResult<Vec<i64>> {
        let t = Self::lock_row(&self.mgr, &mut self.held, table, key, LockMode::X)?;
        let before = t.delete_logged(key, |rid, before| {
            log_row(&self.mgr, self.id, &mut self.last_lsn, table, key, rid, RowOp::Delete { before })
        })?;
        self.undo.push(UndoOp::Delete { table, key, before: before.clone() });
        self.chaos_release_early();
        Ok(before)
    }

    /// Inclusive key-range scan under a table-level S lock (phantom-free).
    pub fn range(&mut self, table: TableId, start: u64, end: u64) -> TxnResult<Vec<(u64, Vec<i64>)>> {
        let t = self.mgr.table(table)?;
        self.mgr.locks.lock_table(&mut self.held, table, LockMode::S)?;
        Ok(t.range(start, end)?)
    }

    /// Commits, returning once the commit is durable: without ELR the locks
    /// are held until then, with ELR they are released first. Read-only
    /// transactions skip the log entirely.
    pub fn commit(mut self) {
        if let Some(lsn) = self.finish(!self.mgr.elr) {
            self.mgr.wal.wait_durable(lsn);
        }
    }

    /// Commits *without waiting for durability* (flush pipelining): the
    /// commit record is appended to the log buffer and locks are released,
    /// but the caller must not acknowledge the commit until
    /// [`Wal::wait_durable`] covers the returned LSN. Returns `None` for
    /// read-only transactions (nothing to flush). This is the group-commit
    /// hook: a batch of sequential transactions can all commit deferred and
    /// then ride a single physical flush of the highest returned LSN.
    pub fn commit_deferred(mut self) -> Option<Lsn> {
        self.finish(false)
    }

    /// [`commit_rule`] for this transaction; the release step leaves the
    /// active set and drops every lock.
    fn finish(&mut self, hold: bool) -> Option<Lsn> {
        esdb_sync::sched::yield_now(esdb_sync::YieldPoint::CommitLog);
        self.finished = true;
        self.mgr.commits.fetch_add(1, Ordering::Relaxed);
        let prev_lsn = (self.last_lsn != NULL_LSN).then_some(self.last_lsn);
        commit_rule(&self.mgr.wal, self.id, prev_lsn, hold, || {
            if prev_lsn.is_some() {
                self.mgr.active.lock().remove(&self.id);
            }
            self.mgr.locks.release_all(&mut self.held);
        })
    }

    /// Two-phase-commit participant vote: appends `Prepare { gtid }` and
    /// returns a [`PreparedTxn`] that keeps every lock, the undo chain, and
    /// the active-set entry (the fuzzy checkpoint's redo floor must keep
    /// covering this transaction until its decision lands). From here on the
    /// transaction may only finish via the coordinator's decision —
    /// [`PreparedTxn::commit_decided`] or [`PreparedTxn::abort_decided`].
    ///
    /// The caller must not let the yes-vote leave until [`Wal::wait_durable`]
    /// covers the returned LSN. Read-only transactions log nothing (`None`:
    /// there is nothing to redo or undo) but still hold their locks until
    /// decided.
    pub fn prepare_deferred(mut self, gtid: u64) -> (PreparedTxn, Option<Lsn>) {
        let mut lsn = None;
        if self.last_lsn != NULL_LSN {
            let r = self.mgr.wal.append(self.id, self.last_lsn, &LogBody::Prepare { gtid });
            self.last_lsn = r.start;
            lsn = Some(r.end);
        }
        (PreparedTxn { txn: self, gtid }, lsn)
    }

    /// Aborts: replays the undo chain (logging compensations), writes the
    /// abort record, releases locks.
    pub fn abort(mut self) {
        self.rollback();
    }

    fn rollback(&mut self) {
        self.finished = true;
        self.mgr.aborts.fetch_add(1, Ordering::Relaxed);
        // Undo in reverse order. Compensations are logged as ordinary
        // records so recovery can repeat history through a crashed abort.
        let undo = std::mem::take(&mut self.undo);
        for op in undo.iter().rev() {
            let (table, key) = op.target();
            let Ok(t) = self.mgr.table(table) else { continue };
            op.compensate(t, |rid, row| log_row(&self.mgr, self.id, &mut self.last_lsn, table, key, rid, row));
        }
        if self.last_lsn != NULL_LSN {
            self.mgr.wal.append(self.id, self.last_lsn, &LogBody::Abort);
            self.mgr.active.lock().remove(&self.id);
        }
        self.release_locks();
    }
}

/// Appends one row-mutation record to transaction `id`'s chain, whose last
/// record is at `last_lsn`. Runs under the page latch of the row it
/// describes (the `*_logged` closures above), so the page never carries a
/// change its LSN does not cover.
fn log_row(mgr: &TxnManager, id: u64, last_lsn: &mut Lsn, table: TableId, key: u64, rid: Rid, op: RowOp<'_>) -> Lsn {
    let prev = if *last_lsn == NULL_LSN {
        // First record: write Begin implicitly. The active-set lock is held
        // across the append so a concurrent checkpoint either sees this
        // entry or captures an end-of-log at or below our LSN.
        let mut active = mgr.active.lock();
        let b = mgr.wal.append(id, NULL_LSN, &LogBody::Begin);
        active.insert(id, b.start);
        drop(active);
        b.start
    } else {
        *last_lsn
    };
    let r = mgr.wal.append_row(id, prev, table, key, rid, op);
    *last_lsn = r.start;
    r.start
}

impl Drop for Txn {
    fn drop(&mut self) {
        if !self.finished {
            self.rollback();
        }
    }
}

/// A transaction that voted yes in two-phase commit: its `Prepare` record
/// is durable and it still holds every lock. It cannot abort unilaterally —
/// only the coordinator's decision finishes it. Dropping the handle without
/// a decision rolls back, which is exactly presumed abort: a process that
/// loses its coordinator link before the decision behaves as if the answer
/// was no. (A *crash* leaves the durable `Prepare` in place instead, and
/// recovery re-raises the transaction as in-doubt.)
pub struct PreparedTxn {
    txn: Txn,
    gtid: u64,
}

impl PreparedTxn {
    /// The global transaction id this participant is prepared under.
    pub fn gtid(&self) -> u64 {
        self.gtid
    }

    /// The local transaction id.
    pub fn txn_id(&self) -> u64 {
        self.txn.id
    }

    /// Applies the coordinator's commit decision through `finish` — one of
    /// [`Txn::commit`] and [`Txn::commit_deferred`].
    pub fn commit_decided<T>(self, finish: impl FnOnce(Txn) -> T) -> T {
        finish(self.txn)
    }

    /// Applies the coordinator's abort decision: replays the undo chain and
    /// releases locks — exactly once; the undo list is consumed.
    pub fn abort_decided(self) {
        self.txn.abort();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esdb_storage::{BufferPool, InMemoryDisk};
    use esdb_wal::LogPolicy;

    fn setup(elr: bool) -> (Arc<TxnManager>, Arc<Table>) {
        let disk = Arc::new(InMemoryDisk::new());
        let pool = Arc::new(BufferPool::new(256, disk));
        let table = Arc::new(Table::create(1, "accounts", 2, pool));
        let locks = Arc::new(LockManager::with_timeout(
            16,
            std::time::Duration::from_millis(150),
        ));
        let wal = Arc::new(Wal::new(LogPolicy::Consolidated, None));
        let mgr = Arc::new(TxnManager::new(locks, wal, elr));
        mgr.register_table(table.clone());
        (mgr, table)
    }

    /// The in-process vote: prepare, then wait for the record.
    fn prepare(t: Txn, gtid: u64) -> PreparedTxn {
        let (prepared, lsn) = t.prepare_deferred(gtid);
        if let Some(lsn) = lsn {
            prepared.txn.mgr.wal.wait_durable(lsn);
        }
        prepared
    }

    /// A 20 ms log device, so "locks out" and "record durable" are far
    /// enough apart to tell which came first.
    fn setup_slow_log(elr: bool) -> Arc<TxnManager> {
        let disk = Arc::new(InMemoryDisk::new());
        let pool = Arc::new(BufferPool::new(64, disk));
        let table = Arc::new(Table::create(1, "accounts", 2, pool));
        let locks = Arc::new(LockManager::with_timeout(16, std::time::Duration::from_secs(5)));
        let latency = Some(std::time::Duration::from_millis(20));
        let mgr = Arc::new(TxnManager::new(locks, Arc::new(Wal::new(LogPolicy::Consolidated, latency)), elr));
        mgr.register_table(table);
        mgr.run(0, |t| t.insert(1, 1, &[0, 0])).unwrap();
        mgr
    }

    #[test]
    fn without_elr_a_blocked_writer_is_granted_only_once_the_commit_is_durable() {
        let mgr = setup_slow_log(false);
        let mut committer = mgr.begin();
        committer.update(1, 1, &[1, 0]).unwrap();
        let committer_id = committer.id();
        let waiter = {
            let mgr = Arc::clone(&mgr);
            std::thread::spawn(move || {
                let mut t = mgr.begin();
                t.read_for_update(1, 1).unwrap();
                // Checked at the grant, not after a timer: the committer's
                // record must already be on the device.
                let durable = mgr
                    .wal()
                    .durable_records()
                    .iter()
                    .any(|r| r.txn_id == committer_id && matches!(r.body, LogBody::Commit));
                t.abort();
                durable
            })
        };
        while mgr.locks().stats().waits == 0 {
            std::thread::yield_now();
        }
        committer.commit();
        assert!(waiter.join().unwrap(), "lock granted before the commit record was durable");
    }

    #[test]
    fn a_deferred_commit_releases_its_locks_before_the_record_is_durable() {
        let mgr = setup_slow_log(false);
        let mut t = mgr.begin();
        t.update(1, 1, &[1, 0]).unwrap();
        let owed = t.commit_deferred().expect("a writer owes a flush");
        let mut next = mgr.begin();
        assert_eq!(next.read_for_update(1, 1).unwrap(), vec![1, 0]);
        assert!(mgr.wal().durable_lsn() < owed, "the row was locked only after the flush");
        next.abort();
    }

    #[test]
    fn a_held_force_is_commit_flush_and_a_wait_after_release_is_log_wait() {
        if !esdb_obs::enabled() {
            return;
        }
        let floor = 10_000_000; // ns: half the device latency
        for elr in [false, true] {
            let mgr = setup_slow_log(elr);
            let ((), p) = esdb_obs::profile_scope(|| mgr.run(0, |t| t.update(1, 1, &[2, 0]).map(drop)).unwrap());
            let (forced, waited) = if elr { (p.log_wait, p.commit_flush) } else { (p.commit_flush, p.log_wait) };
            assert!(forced >= floor, "elr={elr}: {p:?}");
            assert_eq!(waited, 0, "elr={elr}: {p:?}");
        }
    }

    #[test]
    fn commit_makes_changes_visible_and_durable() {
        let (mgr, table) = setup(false);
        let mut t = mgr.begin();
        t.insert(1, 7, &[100, 0]).unwrap();
        t.commit();
        assert_eq!(table.get(7).unwrap(), vec![100, 0]);
        // Log contains Begin, Insert, Commit — durable.
        let records = mgr.wal().durable_records();
        assert_eq!(records.len(), 3);
        assert!(matches!(records[2].body, LogBody::Commit));
        assert_eq!(mgr.stats().commits, 1);
    }

    #[test]
    fn abort_rolls_back_everything() {
        let (mgr, table) = setup(false);
        mgr.run(0, |t| t.insert(1, 1, &[10, 0])).unwrap();

        let mut t = mgr.begin();
        t.update(1, 1, &[11, 0]).unwrap();
        t.insert(1, 2, &[20, 0]).unwrap();
        t.delete(1, 1).unwrap();
        t.abort();

        assert_eq!(table.get(1).unwrap(), vec![10, 0], "update+delete undone");
        assert!(table.get(2).is_err(), "insert undone");
        assert_eq!(mgr.stats().aborts, 1);
    }

    #[test]
    fn add_then_abort_restores_the_before_image_and_logs_the_compensation() {
        let (mgr, table) = setup(false);
        mgr.run(0, |t| t.insert(1, 1, &[10, 20])).unwrap();
        let from = mgr.wal().current_lsn();
        let mut t = mgr.begin();
        assert_eq!(t.add(1, 1, 1, 5).unwrap(), vec![10, 20]);
        assert_eq!(table.get(1).unwrap(), vec![10, 25]);
        t.abort();
        assert_eq!(table.get(1).unwrap(), vec![10, 20]);
        mgr.wal().wait_durable(mgr.wal().current_lsn());
        let bodies: Vec<LogBody> =
            mgr.wal().durable_records().into_iter().filter(|r| r.lsn >= from).map(|r| r.body).collect();
        let updates: Vec<(Vec<i64>, Vec<i64>)> = bodies
            .iter()
            .filter_map(|b| match b {
                LogBody::Update { before, after, .. } => Some((before.clone(), after.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(updates, [(vec![10, 20], vec![10, 25]), (vec![10, 25], vec![10, 20])], "the add, then its compensation");
        assert!(matches!(bodies.last(), Some(LogBody::Abort)));
    }

    #[test]
    fn an_overflowing_add_is_a_typed_error_that_logs_nothing() {
        let (mgr, table) = setup(false);
        mgr.run(0, |t| t.insert(1, 1, &[i64::MAX, 0])).unwrap();
        let before = mgr.wal().current_lsn();
        let mut t = mgr.begin();
        assert_eq!(t.add(1, 1, 0, 1).unwrap_err(), TxnError::Overflow { table: 1, key: 1 });
        assert_eq!(mgr.wal().current_lsn(), before, "no record for a refused add");
        t.abort();
        assert_eq!(table.get(1).unwrap(), vec![i64::MAX, 0]);
        assert_eq!(mgr.wal().current_lsn(), before, "nothing to compensate, nothing to abort");
    }

    #[test]
    fn drop_without_commit_aborts() {
        let (mgr, table) = setup(false);
        {
            let mut t = mgr.begin();
            t.insert(1, 5, &[1, 2]).unwrap();
            // dropped here
        }
        assert!(table.get(5).is_err());
        assert_eq!(mgr.stats().aborts, 1);
    }

    #[test]
    fn lost_update_prevented_by_2pl() {
        let (mgr, table) = setup(false);
        mgr.run(0, |t| t.insert(1, 1, &[0, 0])).unwrap();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let mgr = Arc::clone(&mgr);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    mgr.run(10, |t| {
                        let v = t.read_for_update(1, 1)?;
                        t.update(1, 1, &[v[0] + 1, v[1]])?;
                        Ok(())
                    })
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(table.get(1).unwrap()[0], 400);
    }

    #[test]
    fn transfer_invariant_under_concurrency() {
        let (mgr, table) = setup(false);
        const ACCOUNTS: u64 = 8;
        for k in 0..ACCOUNTS {
            mgr.run(0, |t| t.insert(1, k, &[1_000, 0])).unwrap();
        }
        let mut handles = Vec::new();
        for tid in 0..4u64 {
            let mgr = Arc::clone(&mgr);
            handles.push(std::thread::spawn(move || {
                let mut rng = tid.wrapping_mul(0x9E3779B97F4A7C15) | 1;
                for _ in 0..150 {
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let from = (rng >> 33) % ACCOUNTS;
                    let to = (from + 1 + (rng >> 17) % (ACCOUNTS - 1)) % ACCOUNTS;
                    // Lock in key order to avoid deadlock storms; retries
                    // handle the rest.
                    let (a, b) = (from.min(to), from.max(to));
                    let _ = mgr.run(20, |t| {
                        let va = t.read_for_update(1, a)?;
                        let vb = t.read_for_update(1, b)?;
                        t.update(1, a, &[va[0] - 10, va[1]])?;
                        t.update(1, b, &[vb[0] + 10, vb[1]])?;
                        Ok(())
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut total = 0;
        table.scan(|_, row| total += row[0]).unwrap();
        assert_eq!(total, (ACCOUNTS * 1_000) as i64, "money conserved");
    }

    #[test]
    fn elr_commit_is_still_durable() {
        let (mgr, _table) = setup(true);
        mgr.run(0, |t| t.insert(1, 9, &[9, 9])).unwrap();
        let records = mgr.wal().durable_records();
        assert!(records.iter().any(|r| matches!(r.body, LogBody::Commit)));
    }

    #[test]
    fn deferred_commit_rides_later_flush() {
        let (mgr, table) = setup(false);
        let mut t = mgr.begin();
        t.insert(1, 1, &[1, 0]).unwrap();
        let lsn = t.commit_deferred().expect("writer gets a flush LSN");
        // Changes are visible (locks released) but the commit record is not
        // yet durable — the caller owes a wait before acknowledging.
        assert_eq!(table.get(1).unwrap(), vec![1, 0]);
        assert!(mgr.wal().durable_lsn() < lsn);
        mgr.wal().wait_durable(lsn);
        assert!(mgr.wal().durable_lsn() >= lsn);
        assert!(mgr
            .wal()
            .durable_records()
            .iter()
            .any(|r| matches!(r.body, LogBody::Commit)));
        assert_eq!(mgr.stats().commits, 1);

        // Read-only deferred commits have nothing to wait on.
        let t2 = mgr.begin();
        assert!(t2.commit_deferred().is_none());
    }

    #[test]
    fn deferred_commits_batch_into_one_flush() {
        let (mgr, _table) = setup(false);
        let flushes_before = mgr.wal().flush_count();
        let mut last = None;
        for k in 10..20u64 {
            let mut t = mgr.begin();
            t.insert(1, k, &[k as i64, 0]).unwrap();
            last = t.commit_deferred();
        }
        mgr.wal().wait_durable(last.unwrap());
        assert_eq!(
            mgr.wal().flush_count() - flushes_before,
            1,
            "ten deferred commits must ride one physical flush"
        );
    }

    #[test]
    fn readonly_txn_writes_no_log() {
        let (mgr, _table) = setup(false);
        mgr.run(0, |t| t.insert(1, 1, &[5, 5])).unwrap();
        let before = mgr.wal().current_lsn();
        mgr.run(0, |t| t.read(1, 1).map(|_| ())).unwrap();
        assert_eq!(mgr.wal().current_lsn(), before);
    }

    #[test]
    fn range_scan_is_transactional() {
        let (mgr, _table) = setup(false);
        for k in 0..10u64 {
            mgr.run(0, |t| t.insert(1, k, &[k as i64, 0])).unwrap();
        }
        let rows = mgr.run(0, |t| t.range(1, 3, 6)).unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].0, 3);
    }

    #[test]
    fn one_thread_alternating_between_two_managers_inherits_in_both() {
        let ((a, _), (b, _)) = (setup(false), setup(false));
        for k in 0..50u64 {
            for mgr in [&a, &b] {
                mgr.run(0, |t| t.insert(1, k, &[k as i64, 0])).unwrap();
            }
        }
        for mgr in [&a, &b] {
            assert_eq!(mgr.locks().agent_count(), 1);
            let s = mgr.locks().stats();
            assert_eq!((s.acquisitions, s.releases), (2 + 50, 50), "database and table once, then rows");
        }
    }

    #[test]
    fn a_prepared_transaction_finishes_against_its_own_agent_on_another_thread() {
        let (mgr, table) = setup(false);
        mgr.run(0, |t| t.insert(1, 1, &[10, 0])).unwrap();
        let mut t = mgr.begin();
        t.update(1, 1, &[11, 0]).unwrap();
        let prepared = prepare(t, 5);
        // The agent is lent out, so this transaction takes its own intentions.
        mgr.run(0, |t| t.insert(1, 2, &[20, 0])).unwrap();
        std::thread::spawn(move || prepared.commit_decided(Txn::commit)).join().unwrap();
        assert_eq!(table.get(1).unwrap(), vec![11, 0]);
        // The agent is free again: the next transaction inherits and visits its row alone.
        let before = mgr.locks().stats().acquisitions;
        mgr.run(0, |t| t.update(1, 2, &[21, 0]).map(drop)).unwrap();
        assert_eq!(mgr.locks().stats().acquisitions - before, 1);
        assert_eq!(mgr.locks().agent_count(), 1, "the deciding thread never began a transaction");
    }

    #[test]
    fn deadlock_victim_gets_error_and_retry_succeeds() {
        let (mgr, table) = setup(false);
        mgr.run(0, |t| t.insert(1, 1, &[0, 0])).unwrap();
        mgr.run(0, |t| t.insert(1, 2, &[0, 0])).unwrap();
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let mut handles = Vec::new();
        for (a, b) in [(1u64, 2u64), (2, 1)] {
            let mgr = Arc::clone(&mgr);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                // The barrier synchronizes only the *first* attempt; retries
                // after a deadlock must not wait for a partner that has
                // already moved on.
                let mut first_attempt = true;
                mgr.run(50, |t| {
                    let va = t.read_for_update(1, a)?;
                    if first_attempt {
                        first_attempt = false;
                        barrier.wait();
                    }
                    let vb = t.read_for_update(1, b)?;
                    t.update(1, a, &[va[0] + 1, 0])?;
                    t.update(1, b, &[vb[0] + 1, 0])?;
                    Ok(())
                })
            }));
        }
        // Barrier synchronizes the conflicting acquisition order; one side
        // must be chosen victim and then retried to success.
        let mut oks = 0;
        for h in handles {
            if h.join().unwrap().is_ok() {
                oks += 1;
            }
        }
        assert_eq!(oks, 2, "retries must resolve the deadlock");
        assert_eq!(table.get(1).unwrap()[0], 2);
        assert_eq!(table.get(2).unwrap()[0], 2);
    }

    #[test]
    fn prepare_logs_durably_and_retains_locks_until_decided() {
        let (mgr, table) = setup(false);
        mgr.run(0, |t| t.insert(1, 1, &[10, 0])).unwrap();

        let mut t = mgr.begin();
        t.update(1, 1, &[11, 0]).unwrap();
        let prepared = prepare(t, 42);
        assert_eq!(prepared.gtid(), 42);

        // The Prepare record is durable before the vote returns.
        assert!(mgr
            .wal()
            .durable_records()
            .iter()
            .any(|r| matches!(r.body, LogBody::Prepare { gtid: 42 })));

        // The X lock outlives the vote: a rival write must time out.
        let mut rival = mgr.begin();
        match rival.update(1, 1, &[99, 0]) {
            Err(TxnError::Lock(_)) => {}
            other => panic!("prepared lock must still be held, got {other:?}"),
        }
        rival.abort();

        // The active-set entry survives too, pinning the checkpoint floor.
        assert!(mgr.checkpoint_redo_floor() < mgr.wal().current_lsn());

        prepared.commit_decided(Txn::commit);
        assert_eq!(table.get(1).unwrap(), vec![11, 0]);
        assert_eq!(mgr.stats().commits, 2, "population insert + decided commit");
        // Lock released by the decision: a fresh writer gets through.
        mgr.run(0, |t| t.update(1, 1, &[12, 0]).map(|_| ())).unwrap();
        // Floor back to end-of-log once nothing is active.
        assert_eq!(mgr.checkpoint_redo_floor(), mgr.wal().current_lsn());
    }

    #[test]
    fn abort_decision_rolls_back_exactly_once() {
        let (mgr, table) = setup(false);
        mgr.run(0, |t| t.insert(1, 1, &[10, 0])).unwrap();

        let mut t = mgr.begin();
        t.update(1, 1, &[11, 0]).unwrap();
        t.insert(1, 2, &[20, 0]).unwrap();
        let prepared = prepare(t, 7);
        prepared.abort_decided();

        assert_eq!(table.get(1).unwrap(), vec![10, 0], "update undone");
        assert!(table.get(2).is_err(), "insert undone");
        assert_eq!(mgr.stats().aborts, 1, "one abort, not two");
        // Locks fully released; both keys writable again.
        mgr.run(0, |t| {
            t.update(1, 1, &[1, 1])?;
            t.insert(1, 2, &[2, 2])
        })
        .unwrap();
    }

    #[test]
    fn readonly_prepare_logs_nothing_but_holds_locks() {
        let (mgr, _table) = setup(false);
        mgr.run(0, |t| t.insert(1, 1, &[10, 0])).unwrap();
        let before = mgr.wal().current_lsn();

        let mut t = mgr.begin();
        t.read(1, 1).unwrap();
        let prepared = prepare(t, 9);
        assert_eq!(mgr.wal().current_lsn(), before, "no Prepare for read-only");

        let mut rival = mgr.begin();
        assert!(matches!(rival.update(1, 1, &[0, 0]), Err(TxnError::Lock(_))));
        rival.abort();

        prepared.commit_decided(Txn::commit);
        mgr.run(0, |t| t.update(1, 1, &[5, 5]).map(|_| ())).unwrap();
    }

    #[test]
    fn dropped_prepared_handle_presumes_abort() {
        let (mgr, table) = setup(false);
        mgr.run(0, |t| t.insert(1, 1, &[10, 0])).unwrap();
        {
            let mut t = mgr.begin();
            t.update(1, 1, &[77, 0]).unwrap();
            let _prepared = prepare(t, 3);
            // dropped without a decision
        }
        assert_eq!(table.get(1).unwrap(), vec![10, 0]);
        assert_eq!(mgr.stats().aborts, 1);
    }

    #[test]
    fn crash_recovery_roundtrip_with_txn_layer() {
        use esdb_storage::heap::HeapFile;
        use esdb_storage::schema::Schema;
        let disk = Arc::new(InMemoryDisk::new());
        let pool = Arc::new(BufferPool::new(256, disk.clone()));
        let table = Arc::new(Table::create(1, "t", 1, pool.clone()));
        let locks = Arc::new(LockManager::new(16));
        let wal = Arc::new(Wal::new(LogPolicy::Serial, None));
        let mgr = Arc::new(TxnManager::new(locks, wal, false));
        mgr.register_table(table.clone());

        // Committed work.
        mgr.run(0, |t| {
            t.insert(1, 1, &[10])?;
            t.insert(1, 2, &[20])
        })
        .unwrap();
        mgr.run(0, |t| t.update(1, 1, &[11]).map(|_| ())).unwrap();
        // In-flight loser at crash time.
        let mut loser = mgr.begin();
        loser.update(1, 2, &[99]).unwrap();
        loser.insert(1, 3, &[30]).unwrap();
        // Simulate dirty-page steal then crash (loser never commits). The
        // WAL rule (log before page) is the storage layer's caller contract;
        // here we satisfy it explicitly, as Database's LSN barrier does.
        mgr.wal().wait_durable(mgr.wal().current_lsn());
        pool.flush_all().unwrap();
        std::mem::forget(loser); // suppress the rollback — the "crash"

        // Recover into fresh volatile state.
        let pool2 = Arc::new(BufferPool::new(256, disk));
        let heap = HeapFile::from_pages(pool2, table.heap().pages());
        let recovered = Arc::new(Table::from_heap(Schema::new(1, "t", 1), heap));
        let mut tables = HashMap::new();
        tables.insert(1u32, recovered.clone());
        let report = esdb_wal::recovery::recover(&mgr.wal().durable_records(), &tables).unwrap();

        assert_eq!(report.losers.len(), 1);
        assert_eq!(recovered.get(1).unwrap(), vec![11], "committed update kept");
        assert_eq!(recovered.get(2).unwrap(), vec![20], "loser update undone");
        assert!(recovered.get(3).is_err(), "loser insert undone");
    }
}

//! The per-partition executor: a worker thread that owns its keys.
//!
//! Because at most one thread ever operates on a partition's keys, the
//! "lock table" here is a plain single-threaded `HashMap` — the whole point
//! of DORA. Cross-partition transactions still need transaction-duration
//! ownership, so keys stay assigned to a transaction until the client
//! broadcasts the global verdict (`Complete`), and conflicts between
//! concurrent multi-partition transactions are resolved **wait-die** on the
//! transaction's priority (its first-attempt id): an older requester parks
//! behind the key, a younger one dies and retries. Young never waits on old,
//! so waits-for cycles cannot form — no deadlock detection needed at all.

use crate::action::{Action, ActionOp};
use crate::rvp::{FailKind, Rvp};
use esdb_storage::schema::TableId;
use esdb_storage::{Rid, Table};
use esdb_txn::UndoOp;
use esdb_wal::record::RowOp;
use esdb_wal::Wal;
use std::collections::HashMap;
use std::sync::mpsc::{Receiver, TryRecvError};
use std::sync::Arc;

/// A transaction's actions destined for one partition.
pub struct Package {
    /// WAL/locking identity of this attempt.
    pub txn: u64,
    /// Wait-die priority: the id of the *first* attempt (smaller = older).
    pub priority: u64,
    /// Shared rendezvous point.
    pub rvp: Arc<Rvp>,
    /// `(global action index, action)` pairs.
    pub actions: Vec<(usize, Action)>,
}

/// Messages an executor consumes.
pub enum Msg {
    /// Execute a transaction's actions for this partition.
    Package(Package),
    /// Global verdict: release the transaction's keys, undoing if `!commit`.
    Complete {
        /// Transaction (attempt) id.
        txn: u64,
        /// `true` to keep effects, `false` to roll back.
        commit: bool,
        /// Optional acknowledgment barrier: signalled once the verdict is
        /// fully applied (aborts are acknowledged so the client's next
        /// operation observes the rollback).
        ack: Option<Arc<Rvp>>,
    },
    /// Shut the executor down.
    Stop,
}

type Key = (TableId, u64);

/// Executor-internal counters, reported back through the system.
#[derive(Debug, Default, Clone, Copy)]
pub struct ExecutorStats {
    /// Packages executed to completion.
    pub executed: u64,
    /// Packages parked at least once (older txn waiting).
    pub parked: u64,
    /// Packages killed by wait-die (younger txn).
    pub died: u64,
}

pub(crate) struct Executor {
    id: usize,
    rx: Receiver<Msg>,
    tables: HashMap<TableId, Arc<Table>>,
    wal: Arc<Wal>,
    /// key → (owner txn, owner priority).
    locks: HashMap<Key, (u64, u64)>,
    /// Parked packages, keyed by the key they block on.
    waiters: HashMap<Key, Vec<Package>>,
    /// Keys owned per transaction.
    owned: HashMap<u64, Vec<Key>>,
    /// Undo buffer per transaction.
    undo: HashMap<u64, Vec<UndoOp>>,
    pub(crate) stats: ExecutorStats,
}

impl Executor {
    pub(crate) fn new(
        id: usize,
        rx: Receiver<Msg>,
        tables: HashMap<TableId, Arc<Table>>,
        wal: Arc<Wal>,
    ) -> Self {
        Executor {
            id,
            rx,
            tables,
            wal,
            locks: HashMap::new(),
            waiters: HashMap::new(),
            owned: HashMap::new(),
            undo: HashMap::new(),
            stats: ExecutorStats::default(),
        }
    }

    /// Stable virtual-thread tags for executors under deterministic checking
    /// (client threads use small tags; executors live in their own range).
    pub const SCHED_TAG_BASE: u64 = 1_000;

    /// The executor main loop.
    pub(crate) fn run(mut self) -> ExecutorStats {
        let hooked = esdb_sync::sched::register_spawned(Self::SCHED_TAG_BASE + self.id as u64);
        while let Some(msg) = Self::next_msg(&self.rx) {
            match msg {
                Msg::Package(pkg) => self.handle_package(pkg),
                Msg::Complete { txn, commit, ack } => {
                    self.handle_complete(txn, commit);
                    if let Some(ack) = ack {
                        ack.complete(Vec::new());
                    }
                }
                Msg::Stop => break,
            }
        }
        if hooked {
            esdb_sync::sched::deregister_spawned();
        }
        self.stats
    }

    /// Receives the next message. Under deterministic checking this blocks on
    /// the scheduler seam (one message handled per scheduler step); otherwise
    /// it is a plain blocking receive. The governed predicate receives into
    /// `stash` (std's channel has no non-consuming readiness probe), and a
    /// disconnected channel counts as ready so the loop can end.
    fn next_msg(rx: &Receiver<Msg>) -> Option<Msg> {
        let mut stash = None;
        let governed = esdb_sync::sched::block_until(esdb_sync::YieldPoint::ExecutorRecv, || {
            stash.is_some()
                || match rx.try_recv() {
                    Ok(msg) => {
                        stash = Some(msg);
                        true
                    }
                    Err(TryRecvError::Disconnected) => true,
                    Err(TryRecvError::Empty) => false,
                }
        });
        match stash {
            Some(msg) => Some(msg),
            None if governed => None,
            None => rx.recv().ok(),
        }
    }

    fn handle_package(&mut self, pkg: Package) {
        // Phase 1: acquire thread-local ownership of every key.
        for (_, action) in &pkg.actions {
            let k = (action.table, action.key);
            match self.locks.get(&k) {
                None => {
                    self.locks.insert(k, (pkg.txn, pkg.priority));
                    self.owned.entry(pkg.txn).or_default().push(k);
                }
                Some(&(owner, _)) if owner == pkg.txn => {}
                Some(&(_, owner_prio)) => {
                    if esdb_sync::sched::mutated(esdb_sync::Mutation::DisableWaitDie) {
                        // Checker mutation: ignore the conflict and co-own
                        // the key — two transactions now race on the same rows.
                        self.owned.entry(pkg.txn).or_default().push(k);
                        continue;
                    }
                    if pkg.priority < owner_prio {
                        // Older requester: park behind the key (keeps the
                        // keys it already owns — wait-die makes this safe).
                        self.stats.parked += 1;
                        self.waiters.entry(k).or_default().push(pkg);
                    } else {
                        // Younger requester dies; the client retries with
                        // the same priority.
                        self.stats.died += 1;
                        pkg.rvp.fail(FailKind::Conflict);
                    }
                    return;
                }
            }
        }

        // Phase 2: execute. Effects are logged and buffered for undo.
        let mut reads = Vec::new();
        for (idx, action) in &pkg.actions {
            match self.apply(pkg.txn, action) {
                Ok(Some(row)) => reads.push((*idx, row)),
                Ok(None) => {}
                Err(()) => {
                    pkg.rvp.fail(FailKind::Logical);
                    return;
                }
            }
        }
        self.stats.executed += 1;
        pkg.rvp.complete(reads);
    }

    /// Applies one action. `Ok(Some(row))` carries a result for the client.
    /// Each mutation — an `Add` included — is one `Table` call whose log
    /// record is appended under the row's page latch.
    fn apply(&mut self, txn: u64, action: &Action) -> Result<Option<Vec<i64>>, ()> {
        let t = self.tables.get(&action.table).ok_or(())?.clone();
        let table = action.table;
        let key = action.key;
        let log = |rid: Rid, op: RowOp<'_>| self.wal.append_row(txn, 0, table, key, rid, op).start;
        let (undo, read) = match &action.op {
            ActionOp::Read => return Ok(Some(t.get(key).map_err(|_| ())?)),
            ActionOp::Write(row) => {
                let before = t
                    .update_logged(key, row, |rid, before| log(rid, RowOp::Update { before, after: row }))
                    .map_err(|_| ())?;
                (UndoOp::Update { table, key, before }, None)
            }
            ActionOp::Add { col, delta } => {
                // An overflowing add (`None`) is a logical failure, the row untouched.
                let before = t
                    .add_logged(key, *col, *delta, |rid, before, after| log(rid, RowOp::Update { before, after }))
                    .ok()
                    .flatten()
                    .ok_or(())?;
                (UndoOp::Update { table, key, before: before.clone() }, Some(before))
            }
            ActionOp::Insert(row) => {
                t.insert_logged(key, row, |rid| log(rid, RowOp::Insert { row })).map_err(|_| ())?;
                (UndoOp::Insert { table, key }, None)
            }
            ActionOp::Delete => {
                let before = t
                    .delete_logged(key, |rid, before| log(rid, RowOp::Delete { before }))
                    .map_err(|_| ())?;
                (UndoOp::Delete { table, key, before: before.clone() }, Some(before))
            }
        };
        self.undo.entry(txn).or_default().push(undo);
        Ok(read)
    }

    fn handle_complete(&mut self, txn: u64, commit: bool) {
        if !commit {
            // Undo in reverse, logging compensations (the conventional
            // transaction manager's compensation: recovery repeats history).
            for op in self.undo.remove(&txn).unwrap_or_default().iter().rev() {
                let (table, key) = op.target();
                let Some(t) = self.tables.get(&table) else { continue };
                op.compensate(t, |rid, row| self.wal.append_row(txn, 0, table, key, rid, row).start);
            }
            // Drop parked packages of this transaction.
            for v in self.waiters.values_mut() {
                v.retain(|p| p.txn != txn);
            }
            self.waiters.retain(|_, v| !v.is_empty());
        } else {
            self.undo.remove(&txn);
        }
        // Release keys and retry parked packages.
        if let Some(keys) = self.owned.remove(&txn) {
            for k in keys {
                self.locks.remove(&k);
                if let Some(pkgs) = self.waiters.remove(&k) {
                    for pkg in pkgs {
                        self.handle_package(pkg);
                    }
                }
            }
        }
    }
}

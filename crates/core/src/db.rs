//! The `Database` facade.

use crate::config::{EngineConfig, ExecutionModel};
use crate::metrics::WorkloadReport;
use crate::spec_exec::{self, unobserved, SpecOutcome};
use esdb_dora::DoraSystem;
use esdb_lock::LockManager;
use esdb_storage::disk::PageStore;
use esdb_storage::heap::HeapFile;
use esdb_storage::schema::{Schema, TableId};
use esdb_storage::{BufferPool, InMemoryDisk, PageId, Table};
use esdb_txn::{PreparedTxn, Txn, TxnManager, TxnResult};
use esdb_wal::Wal;
use esdb_sync::Mutex;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Errors from database administrative operations.
///
/// Kept as a proper enum (rather than panicking) so front-ends such as the
/// network server can turn a misbehaving client's request into an error
/// response instead of crashing the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// DDL arrived after the DORA executors captured the table set.
    TablesFrozen {
        /// Name of the table whose creation was rejected.
        name: String,
    },
    /// The page store failed under a checkpoint, a bulk load, a snapshot
    /// read or a restore's recovery.
    CheckpointIo(esdb_storage::StorageError),
    /// Checkpointing requires the conventional execution model: DORA
    /// executors log outside the transaction manager, so the redo low-water
    /// mark over active transactions cannot be computed.
    CheckpointUnsupported,
}

impl From<esdb_storage::StorageError> for DbError {
    fn from(e: esdb_storage::StorageError) -> Self {
        DbError::CheckpointIo(e)
    }
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::TablesFrozen { name } => write!(
                f,
                "cannot create table {name:?}: DORA executors already started \
                 (the table set is frozen at executor startup)"
            ),
            DbError::CheckpointIo(e) => write!(f, "page store failed: {e}"),
            DbError::CheckpointUnsupported => write!(
                f,
                "checkpointing requires the conventional execution model \
                 (DORA transactions log outside the transaction manager)"
            ),
        }
    }
}

impl std::error::Error for DbError {}

/// Point-in-time engine counters — what the network server's STATS command
/// serializes. All fields are monotonic over a database's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Committed transactions (conventional + DORA).
    pub commits: u64,
    /// Aborted transactions (conventional + DORA).
    pub aborts: u64,
    /// Highest durable LSN.
    pub durable_lsn: u64,
    /// End of the allocated log.
    pub current_lsn: u64,
    /// Physical log-device flushes. `commits / wal_flushes` is the average
    /// group-commit batch size.
    pub wal_flushes: u64,
}

/// Version tag carried by [`ObsSnapshot`] wherever it is serialized; decoders
/// must reject snapshots with an unknown version with a typed error.
pub const OBS_SNAPSHOT_VERSION: u32 = 1;

/// The full observability surface: engine counters plus the cycle-accounting
/// breakdown and per-component latency histograms from `esdb-obs`.
///
/// The breakdown and histograms come from the process-global obs aggregate
/// (`esdb_obs::global()`), which every instrumented crate feeds; benchmark
/// drivers reset it between cells via `esdb_obs::global().reset()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsSnapshot {
    /// Format version ([`OBS_SNAPSHOT_VERSION`]).
    pub version: u32,
    /// The coarse monotonic counters (the original STATS surface).
    pub stats: StatsSnapshot,
    /// Where wall time went, summed over all profiled spans and timers.
    pub breakdown: esdb_obs::WaitProfile,
    /// Lock-manager blocked-wait durations (ns).
    pub lock_wait: esdb_obs::HistogramSnapshot,
    /// WAL durability-wait durations (ns).
    pub wal_flush: esdb_obs::HistogramSnapshot,
    /// Buffer-pool miss service times (ns).
    pub pool_miss: esdb_obs::HistogramSnapshot,
    /// Whole-transaction latencies (ns).
    pub txn_latency: esdb_obs::HistogramSnapshot,
}

/// The in-process finish: [`Txn::commit`], which owes nothing afterwards.
fn commit_durably(txn: Txn) -> Option<esdb_wal::Lsn> {
    txn.commit();
    None
}

/// One table as stored state: its schema, index declarations included, and
/// its heap's page ids in heap order (ascending). A list of these plus a
/// page store holding the pages is everything [`Database::restore`] needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableImage {
    /// The table's schema.
    pub schema: Schema,
    /// The heap's page ids, ascending.
    pub pages: Vec<PageId>,
}

/// A running esdb database instance.
pub struct Database {
    config: EngineConfig,
    disk: Arc<dyn PageStore>,
    pool: Arc<BufferPool>,
    /// Owns the table registry; every table lookup goes through it.
    txn_mgr: Arc<TxnManager>,
    /// DORA executors, spawned lazily on first transaction so tables can be
    /// created first.
    dora: OnceLock<DoraSystem>,
    /// DDL fence: once the DORA system started, table creation is frozen.
    frozen: Mutex<bool>,
    /// Prepared-but-undecided participant transactions by gtid — the live
    /// (non-crashed) half of the in-doubt state; the durable half is the
    /// `Prepare` record in the WAL.
    prepared: Mutex<HashMap<u64, PreparedTxn>>,
}

impl Database {
    /// Opens a fresh in-memory database with `config`.
    pub fn open(config: EngineConfig) -> Self {
        Self::open_on(config, Arc::new(InMemoryDisk::new()))
    }

    /// Opens a database on a caller-supplied page store — the hook the
    /// crash-torture harness uses to slide a
    /// [`esdb_storage::FaultInjector`] under the buffer pool.
    pub fn open_on(config: EngineConfig, disk: Arc<dyn PageStore>) -> Self {
        let wal = Wal::new(config.log, config.flush_latency);
        Self::restore(config, disk, wal, &[], &[]).expect("nothing to recover").0
    }

    /// Builds a database from stored state — the one way every `Database`
    /// comes to be: a page store holding the `tables`' pages, a `wal` to
    /// continue on, and the durable `log` records to recover from. Builds
    /// the pool, a heap and table per [`TableImage`], registers them, then
    /// runs [`esdb_wal::recovery::recover`]; with an empty `log` that only
    /// rebuilds the indexes. A crash restart passes the durable records and
    /// the old log's successor; a follower, no records and a log based far
    /// past any primary LSN; a fresh database, nothing at all.
    pub fn restore(
        config: EngineConfig,
        disk: Arc<dyn PageStore>,
        wal: Wal,
        tables: &[TableImage],
        log: &[esdb_wal::LogRecord],
    ) -> Result<(Database, esdb_wal::recovery::RecoveryReport), DbError> {
        let pool = Arc::new(BufferPool::new(config.buffer_frames, disk.clone()));
        let wal = Arc::new(wal);
        // WAL rule: no dirty page reaches the store before its log records.
        {
            let wal = wal.clone();
            pool.set_lsn_barrier(Box::new(move |lsn| wal.wait_durable(lsn)));
        }
        let lock_partitions = match config.execution {
            ExecutionModel::Conventional { lock_partitions } => lock_partitions,
            ExecutionModel::Dora { .. } => 16,
        };
        let locks = Arc::new(LockManager::new(lock_partitions));
        let txn_mgr = Arc::new(TxnManager::new(locks, wal, config.elr));
        for image in tables {
            let heap = HeapFile::from_pages(pool.clone(), image.pages.clone());
            txn_mgr.register_table(Arc::new(Table::from_heap(image.schema.clone(), heap)));
        }
        let report = esdb_wal::recovery::recover(log, &txn_mgr.tables())?;
        let db = Database {
            config,
            disk,
            pool,
            txn_mgr,
            dora: OnceLock::new(),
            frozen: Mutex::new(false),
            prepared: Mutex::new(HashMap::new()),
        };
        Ok((db, report))
    }

    /// The configuration this database runs.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Creates a table with `arity` value columns; returns its id.
    ///
    /// Fails with [`DbError::TablesFrozen`] after the first transaction on a
    /// DORA-configured database (executors capture the table set at startup).
    pub fn create_table(&self, name: &str, arity: usize) -> Result<TableId, DbError> {
        self.create_table_with_indexes(name, arity, Vec::new())
    }

    /// Creates a table carrying secondary index declarations; returns its
    /// id. The declarations become part of the table's schema, so they are
    /// durable against crash recovery ([`Database::simulate_crash`]) and
    /// travel with replication snapshots ([`Database::catalog`]).
    /// Index declarations are create-time only — there is no online index
    /// build.
    pub fn create_table_with_indexes(
        &self,
        name: &str,
        arity: usize,
        indexes: Vec<esdb_storage::IndexDef>,
    ) -> Result<TableId, DbError> {
        for def in &indexes {
            assert!(
                def.col < arity,
                "index {:?} on table {name:?} names column {} but arity is {arity}",
                def.name,
                def.col
            );
        }
        let frozen = self.frozen.lock();
        if *frozen {
            return Err(DbError::TablesFrozen { name: name.to_string() });
        }
        // The DDL fence also serializes table creation, so the id is free.
        let id = self.txn_mgr.next_table_id();
        self.txn_mgr
            .register_table(Arc::new(Table::create_indexed(id, name, arity, indexes, self.pool.clone())));
        Ok(id)
    }

    /// Looks up a table handle.
    pub fn table(&self, id: TableId) -> Option<Arc<Table>> {
        self.txn_mgr.table(id).ok().cloned()
    }

    fn dora(&self) -> &DoraSystem {
        self.dora.get_or_init(|| {
            *self.frozen.lock() = true;
            let partitions = match self.config.execution {
                ExecutionModel::Dora { partitions } => partitions,
                ExecutionModel::Conventional { .. } => {
                    unreachable!("dora() only called for DORA configs")
                }
            };
            DoraSystem::new(
                partitions,
                self.txn_mgr.tables(),
                Arc::clone(self.txn_mgr.wal()),
                self.config.elr,
            )
        })
    }

    /// Runs `f` as a transaction with commit-on-Ok / abort-on-Err and
    /// automatic retry of lock victims. Only available on the conventional
    /// execution model (DORA transactions are action lists — use
    /// [`Database::run_spec`]).
    pub fn execute<R>(&self, f: impl FnMut(&mut Txn) -> TxnResult<R>) -> TxnResult<R> {
        assert!(
            matches!(self.config.execution, ExecutionModel::Conventional { .. }),
            "closure transactions require the conventional execution model; \
             use run_spec on DORA databases"
        );
        self.txn_mgr.run(spec_exec::RETRIES, f)
    }

    /// Executes one engine-agnostic transaction spec on whichever execution
    /// model this database is configured with. A conventional commit returns
    /// durable, its locks held until then unless [`EngineConfig::elr`].
    pub fn run_spec(&self, spec: &esdb_workload::TxnSpec) -> SpecOutcome {
        self.run_spec_then(spec, commit_durably).0
    }

    /// Like [`Database::run_spec`], but a committing conventional transaction
    /// appends its commit record and releases its locks *without* waiting
    /// for durability, and returns the LSN the caller must pass to
    /// `Wal::wait_durable` before acknowledging the commit. This is the
    /// group-commit hook the network server uses: a pipelined batch of
    /// transactions commits deferred, then one physical flush covers the
    /// whole batch.
    ///
    /// `None` means there is nothing to wait on — a read-only commit, an
    /// abort, or DORA execution (whose client flushes before reporting).
    pub fn run_spec_deferred(
        &self,
        spec: &esdb_workload::TxnSpec,
    ) -> (SpecOutcome, Option<esdb_wal::Lsn>) {
        self.run_spec_then(spec, Txn::commit_deferred)
    }

    fn run_spec_then(
        &self,
        spec: &esdb_workload::TxnSpec,
        finish: impl FnOnce(Txn) -> Option<esdb_wal::Lsn>,
    ) -> (SpecOutcome, Option<esdb_wal::Lsn>) {
        match self.config.execution {
            ExecutionModel::Conventional { .. } => {
                let (outcome, owed) = spec_exec::run_conventional(&self.txn_mgr, spec, unobserved, finish);
                (outcome, owed.flatten())
            }
            ExecutionModel::Dora { .. } => (spec_exec::run_dora(self.dora(), spec), None),
        }
    }

    /// Two-phase-commit participant hook: runs `spec` and returns the vote.
    /// [`SpecOutcome::Committed`] is a yes: the transaction is *prepared* —
    /// `Prepare { gtid }` durable, all locks held — and registered under
    /// `gtid` until [`Database::decide`]. Any other outcome is a no: the run
    /// aborted locally (locks released, buffered writes undone — exactly
    /// once, on this side of the vote), the outcome says why, and the
    /// coordinator must now decide abort globally.
    ///
    /// Only the conventional engine participates in 2PC; DORA configs vote
    /// no (their executors commit internally and cannot hold a transaction
    /// open across the vote). A gtid already registered here also votes no
    /// — gtids are single-use by the coordinator's contract.
    pub fn run_spec_prepare(&self, gtid: u64, spec: &esdb_workload::TxnSpec) -> SpecOutcome {
        let (vote, lsn) = self.run_spec_prepare_deferred(gtid, spec);
        if let Some(lsn) = lsn {
            self.wal().wait_durable(lsn);
        }
        vote
    }

    /// [`Database::run_spec_prepare`] *without waiting for durability*: a
    /// yes-vote comes back with the LSN of its `Prepare` record, and the
    /// caller must not let the vote leave until `Wal::wait_durable` covers
    /// it (`None`: a no-vote or a read-only slice, nothing to wait on). The
    /// network server's hook for folding a prepare into the tick's one
    /// group-commit flush, as [`Database::run_spec_deferred`] is for
    /// one-shots.
    pub fn run_spec_prepare_deferred(
        &self,
        gtid: u64,
        spec: &esdb_workload::TxnSpec,
    ) -> (SpecOutcome, Option<esdb_wal::Lsn>) {
        if !matches!(self.config.execution, ExecutionModel::Conventional { .. }) {
            return (SpecOutcome::LogicalFailure, None);
        }
        let prepare = |txn: Txn| txn.prepare_deferred(gtid);
        let (vote, prepared) = spec_exec::run_conventional(&self.txn_mgr, spec, unobserved, prepare);
        let Some((handle, lsn)) = prepared else {
            return (vote, None);
        };
        let mut reg = self.prepared.lock();
        if reg.contains_key(&gtid) {
            drop(reg);
            handle.abort_decided();
            return (SpecOutcome::LogicalFailure, None);
        }
        reg.insert(gtid, handle);
        (vote, lsn)
    }

    /// Delivers the coordinator's decision for `gtid` to the prepared
    /// transaction registered here; a commit returns durable, as
    /// [`Database::run_spec`]'s does. Idempotent: an unknown gtid (already
    /// decided, or never prepared on this shard) is a no-op returning
    /// `false` — the decision cannot be applied twice because the handle is
    /// removed from the registry before it is consumed.
    pub fn decide(&self, gtid: u64, commit: bool) -> bool {
        self.decide_then(gtid, commit, commit_durably).0
    }

    /// [`Database::decide`] *without waiting for durability*: a commit
    /// verdict appends the commit record and releases the locks, and the
    /// caller owes a `Wal::wait_durable` on the returned LSN before
    /// acknowledging the verdict as applied (`None`: an abort, a read-only
    /// slice or an unknown gtid, nothing to wait on).
    pub fn decide_deferred(&self, gtid: u64, commit: bool) -> (bool, Option<esdb_wal::Lsn>) {
        self.decide_then(gtid, commit, Txn::commit_deferred)
    }

    fn decide_then(
        &self,
        gtid: u64,
        commit: bool,
        finish: impl FnOnce(Txn) -> Option<esdb_wal::Lsn>,
    ) -> (bool, Option<esdb_wal::Lsn>) {
        let handle = self.prepared.lock().remove(&gtid);
        match handle {
            Some(h) if commit => (true, h.commit_decided(finish)),
            Some(h) => {
                h.abort_decided();
                (true, None)
            }
            None => (false, None),
        }
    }

    /// Gtids of transactions prepared on this database and still awaiting a
    /// decision — what a recovering coordinator (or a router re-contacting
    /// a live participant) asks for. Sorted for determinism.
    pub fn prepared_gtids(&self) -> Vec<u64> {
        let mut gtids: Vec<u64> = self.prepared.lock().keys().copied().collect();
        gtids.sort_unstable();
        gtids
    }

    /// Point-in-time engine counters (the STATS command surface).
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        let t = self.txn_mgr.stats();
        let (mut commits, mut aborts) = (t.commits, t.aborts);
        if let Some(dora) = self.dora.get() {
            let (c, a) = dora.quick_stats();
            commits += c;
            aborts += a;
        }
        let wal = self.wal();
        StatsSnapshot {
            commits,
            aborts,
            durable_lsn: wal.durable_lsn(),
            current_lsn: wal.current_lsn(),
            wal_flushes: wal.flush_count(),
        }
    }

    /// Counters plus the cycle-accounting breakdown and per-component
    /// latency histograms (the versioned STATS surface).
    pub fn obs_snapshot(&self) -> ObsSnapshot {
        let g = esdb_obs::global();
        ObsSnapshot {
            version: OBS_SNAPSHOT_VERSION,
            stats: self.stats_snapshot(),
            breakdown: g.profile(),
            lock_wait: g.component(esdb_obs::Component::LockWait),
            wal_flush: g.component(esdb_obs::Component::WalFlush),
            pool_miss: g.component(esdb_obs::Component::PoolMiss),
            txn_latency: g.component(esdb_obs::Component::TxnLatency),
        }
    }

    /// Reads the latest committed row (a tiny read-only transaction on the
    /// conventional path; a direct read on DORA, where readers go through
    /// executors only for transactional reads).
    pub fn read_committed(&self, table: TableId, key: u64) -> TxnResult<Vec<i64>> {
        match self.config.execution {
            ExecutionModel::Conventional { .. } => self.txn_mgr.run(spec_exec::RETRIES, |t| t.read(table, key)),
            ExecutionModel::Dora { .. } => {
                let outcome = self.run_spec(&esdb_workload::TxnSpec {
                    kind: "read",
                    ops: vec![esdb_workload::WorkloadOp::Read { table, key }],
                    may_fail: true,
                });
                match outcome {
                    SpecOutcome::Committed { mut reads } => Ok(reads.remove(0).unwrap_or_default()),
                    _ => Err(esdb_txn::TxnError::Storage(
                        esdb_storage::StorageError::KeyNotFound(key),
                    )),
                }
            }
        }
    }

    /// Loads a workload's initial population (bulk, unlogged, pre-freeze).
    /// The closing page flush is a real checkpoint: population pages must be
    /// durable before any crash is survivable, and a fault-injecting page
    /// store can legitimately fail it — hence the typed error.
    pub fn load_population(&self, workload: &dyn esdb_workload::Workload) -> Result<(), DbError> {
        for def in workload.tables() {
            let id = self.create_table(&def.name, def.arity)?;
            debug_assert_eq!(id, def.id, "workload table ids must be dense from 0");
        }
        let tables = self.txn_mgr.tables();
        for (table, key, row) in workload.population() {
            tables[&table].insert(key, &row)?;
        }
        self.pool.flush_all().map_err(DbError::CheckpointIo)
    }

    /// Takes a fuzzy checkpoint: captures the redo low-water mark over the
    /// transactions active right now, flushes every dirty page, then appends
    /// a durable [`esdb_wal::LogBody::Checkpoint`] marker carrying that mark.
    /// Returns the marker's `redo_lsn`.
    ///
    /// Correctness of the mark: any record below it belongs to a transaction
    /// that finished *before* the flush began, so the flush persisted its
    /// page effects; recovery may start redo there, and
    /// [`esdb_wal::Wal::truncate_before`] may reclaim the log prefix below
    /// it. The checkpoint is fuzzy — transactions keep running throughout.
    pub fn checkpoint(&self) -> Result<esdb_wal::Lsn, DbError> {
        if matches!(self.config.execution, ExecutionModel::Dora { .. }) {
            return Err(DbError::CheckpointUnsupported);
        }
        let redo_lsn = self.txn_mgr.checkpoint_redo_floor();
        self.pool.flush_all().map_err(DbError::CheckpointIo)?;
        let wal = self.wal();
        let range = wal.append(
            0,
            esdb_wal::NULL_LSN,
            &esdb_wal::LogBody::Checkpoint { redo_lsn },
        );
        wal.wait_durable(range.end);
        Ok(redo_lsn)
    }

    /// The page store beneath this database (replication snapshots read
    /// checkpointed pages straight off it).
    pub fn disk(&self) -> &Arc<dyn PageStore> {
        &self.disk
    }

    /// Every table as a [`TableImage`], by ascending id — what
    /// [`Database::restore`] rebuilds the same tables from, over the same
    /// pages.
    pub fn catalog(&self) -> Vec<TableImage> {
        let mut tables: Vec<_> = self.txn_mgr.tables().into_values().collect();
        tables.sort_by_key(|t| t.id());
        tables
            .iter()
            .map(|t| TableImage { schema: t.schema().clone(), pages: t.heap().pages() })
            .collect()
    }

    /// Runs `threads` closed-loop workers, each executing `txns_per_thread`
    /// transactions from forks of `workload`. Returns the aggregate report.
    pub fn run_workload(
        self: &Arc<Self>,
        workload: &mut dyn esdb_workload::Workload,
        threads: usize,
        txns_per_thread: u64,
    ) -> WorkloadReport {
        // Warm the DORA system before timing (spawns executors).
        if matches!(self.config.execution, ExecutionModel::Dora { .. }) {
            let _ = self.dora();
        }
        let start = Instant::now();
        let mut handles = Vec::new();
        for _ in 0..threads {
            let mut gen = workload.fork();
            let db = Arc::clone(self);
            handles.push(std::thread::spawn(move || {
                let mut report = WorkloadReport::default();
                for _ in 0..txns_per_thread {
                    let spec = gen.next_txn();
                    let (outcome, profile) = esdb_obs::profile_scope(|| db.run_spec(&spec));
                    report.record(spec.kind, spec.may_fail, &outcome);
                    if esdb_obs::enabled() {
                        let latency = profile.wall();
                        report.observe(latency, &profile);
                        esdb_obs::record_component(esdb_obs::Component::TxnLatency, latency);
                    }
                }
                report
            }));
        }
        let mut report = WorkloadReport::default();
        for h in handles {
            report.merge(h.join().expect("worker"));
        }
        report.elapsed = start.elapsed();
        report
    }

    /// The WAL (metrics, crash simulation).
    pub fn wal(&self) -> &Arc<Wal> {
        self.txn_mgr.wal()
    }

    /// The transaction manager (metrics).
    pub fn txn_manager(&self) -> &Arc<TxnManager> {
        &self.txn_mgr
    }

    /// The buffer pool (metrics).
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Simulates a crash: abandons all volatile state (buffer pool contents
    /// beyond what was flushed, indexes, lock tables, executors) and brings
    /// up a fresh instance from the page store + the *durable* log prefix,
    /// running ARIES-style recovery. `flush_pages` controls whether dirty
    /// pages were stolen to the store before the crash.
    pub fn simulate_crash(&self, flush_pages: bool) -> Database {
        self.simulate_crash_with_report(flush_pages).0
    }

    /// Like [`Database::simulate_crash`], also returning the recovery
    /// report (analysis/redo/undo counters).
    pub fn simulate_crash_with_report(
        &self,
        flush_pages: bool,
    ) -> (Database, esdb_wal::recovery::RecoveryReport) {
        if flush_pages {
            self.pool.flush_all().expect("flush");
        }
        // What survives: the page store and the durable log prefix — and,
        // until the catalog is logged, the live catalog.
        let records = self.wal().durable_records();
        let wal = self.wal().successor(self.config.log, self.config.flush_latency);
        Database::restore(self.config.clone(), self.disk.clone(), wal, &self.catalog(), &records)
            .expect("recovery I/O on the surviving page store")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esdb_workload::{TxnSpec, WorkloadOp};

    #[test]
    fn a_database_reopened_after_a_crash_runs_on_the_same_thread() {
        // The thread alternates between two databases, then restarts one:
        // each lock manager keeps one agent for it, and the restarted one
        // binds a fresh agent whose first transaction takes its own locks.
        let config = EngineConfig::conventional_baseline;
        let (db, other) = (Database::open(config()), Database::open(config()));
        let (t, u) = (db.create_table("t", 1).unwrap(), other.create_table("u", 1).unwrap());
        for k in 0..10 {
            db.execute(|txn| txn.insert(t, k, &[k as i64])).unwrap();
            other.execute(|txn| txn.insert(u, k, &[k as i64])).unwrap();
        }
        let db = db.simulate_crash(false);
        for k in 10..20 {
            db.execute(|txn| txn.insert(t, k, &[k as i64])).unwrap();
            other.execute(|txn| txn.insert(u, k, &[k as i64])).unwrap();
        }
        for (db, t) in [(&db, t), (&other, u)] {
            assert_eq!(db.execute(|txn| txn.range(t, 0, 100)).unwrap().len(), 20);
            assert_eq!(db.txn_manager().locks().agent_count(), 1);
        }
        // After the restart: database + table once, then each insert's row.
        assert_eq!(db.txn_manager().locks().stats().acquisitions, 2 + 10 + 1);
    }

    #[test]
    fn open_create_execute_read() {
        let db = Database::open(EngineConfig::default());
        let t = db.create_table("t", 1).unwrap();
        db.execute(|txn| txn.insert(t, 1, &[42])).unwrap();
        assert_eq!(db.read_committed(t, 1).unwrap(), vec![42]);
    }

    #[test]
    fn spec_execution_on_both_models() {
        for cfg in [EngineConfig::conventional_baseline(), EngineConfig::scalable(4)] {
            let db = Database::open(cfg);
            let t = db.create_table("t", 1).unwrap();
            let insert = TxnSpec {
                kind: "ins",
                ops: vec![WorkloadOp::Insert { table: t, key: 5, row: vec![7] }],
                may_fail: false,
            };
            assert!(matches!(db.run_spec(&insert), SpecOutcome::Committed { .. }));
            assert_eq!(db.read_committed(t, 5).unwrap(), vec![7]);
        }
    }

    #[test]
    fn dora_freezes_ddl() {
        let db = Database::open(EngineConfig::scalable(2));
        let t = db.create_table("t", 1).unwrap();
        let _ = db.run_spec(&TxnSpec {
            kind: "ins",
            ops: vec![WorkloadOp::Insert { table: t, key: 1, row: vec![1] }],
            may_fail: false,
        });
        let err = db.create_table("too-late", 1).unwrap_err();
        assert_eq!(err, DbError::TablesFrozen { name: "too-late".to_string() });
        assert!(err.to_string().contains("too-late"));
        // The rejection is an error, not a crash: the database still works.
        assert_eq!(db.read_committed(t, 1).unwrap(), vec![1]);
    }

    #[test]
    fn workload_runs_end_to_end_conventional() {
        let db = Arc::new(Database::open(EngineConfig::conventional_baseline()));
        let mut w = esdb_workload::Ycsb::new(1_000, 50, 0.5, 2, 42);
        db.load_population(&w).expect("population load");
        let report = db.run_workload(&mut w, 2, 200);
        assert_eq!(report.attempts, 400);
        assert_eq!(report.committed + report.failed + report.expected_failures, 400);
        assert!(report.committed > 350, "{report:?}");
    }

    #[test]
    fn workload_runs_end_to_end_dora() {
        let db = Arc::new(Database::open(EngineConfig::scalable(4)));
        let mut w = esdb_workload::Ycsb::new(1_000, 50, 0.5, 2, 42);
        db.load_population(&w).expect("population load");
        let report = db.run_workload(&mut w, 2, 200);
        assert_eq!(report.attempts, 400);
        assert!(report.committed > 350, "{report:?}");
    }

    #[test]
    fn deferred_spec_commit_needs_explicit_wait() {
        let db = Database::open(EngineConfig::conventional_baseline());
        let t = db.create_table("t", 1).unwrap();
        let spec = TxnSpec {
            kind: "ins",
            ops: vec![WorkloadOp::Insert { table: t, key: 1, row: vec![9] }],
            may_fail: false,
        };
        let (outcome, lsn) = db.run_spec_deferred(&spec);
        assert!(outcome.is_committed());
        let lsn = lsn.expect("writer gets a durability LSN");
        assert!(db.wal().durable_lsn() < lsn, "commit must not auto-flush");
        db.wal().wait_durable(lsn);
        assert!(db.wal().durable_lsn() >= lsn);

        // Read-only specs have nothing to wait on.
        let (outcome, lsn) = db.run_spec_deferred(&TxnSpec {
            kind: "read",
            ops: vec![WorkloadOp::Read { table: t, key: 1 }],
            may_fail: false,
        });
        assert!(outcome.is_committed());
        assert!(lsn.is_none());
    }

    #[test]
    fn stats_snapshot_counts_both_models() {
        for cfg in [EngineConfig::conventional_baseline(), EngineConfig::scalable(2)] {
            let db = Database::open(cfg);
            let t = db.create_table("t", 1).unwrap();
            for k in 0..5 {
                let _ = db.run_spec(&TxnSpec {
                    kind: "ins",
                    ops: vec![WorkloadOp::Insert { table: t, key: k, row: vec![1] }],
                    may_fail: false,
                });
            }
            let snap = db.stats_snapshot();
            assert_eq!(snap.commits, 5, "{snap:?}");
            assert!(snap.current_lsn > 0);
            assert!(snap.durable_lsn <= snap.current_lsn);
        }
    }

    #[test]
    fn obs_snapshot_reflects_profiled_work() {
        let db = Arc::new(Database::open(EngineConfig::conventional_baseline()));
        let mut w = esdb_workload::Ycsb::new(500, 50, 0.5, 2, 7);
        db.load_population(&w).expect("population load");
        let report = db.run_workload(&mut w, 2, 100);
        let snap = db.obs_snapshot();
        assert_eq!(snap.version, OBS_SNAPSHOT_VERSION);
        assert_eq!(snap.stats, db.stats_snapshot());
        // The txn-latency component histogram saw at least this run's
        // transactions (the global aggregate is shared across tests in this
        // process, so ≥, not ==).
        assert!(snap.txn_latency.count >= report.attempts, "{snap:?}");
        // The report-local histogram is exact.
        assert_eq!(report.latency.count, report.attempts);
        assert!(report.waits.wall() > 0);
    }

    #[test]
    fn prepare_decide_commit_roundtrip() {
        let db = Database::open(EngineConfig::conventional_baseline());
        let t = db.create_table("t", 1).unwrap();
        db.execute(|txn| txn.insert(t, 1, &[10])).unwrap();

        let spec = TxnSpec {
            kind: "xfer",
            ops: vec![WorkloadOp::Add { table: t, key: 1, col: 0, delta: 5 }],
            may_fail: false,
        };
        let vote = db.run_spec_prepare(77, &spec);
        let SpecOutcome::Committed { reads } = vote else {
            panic!("clean prepare must vote commit: {vote:?}")
        };
        assert_eq!(reads, vec![Some(vec![10])]);
        assert_eq!(db.prepared_gtids(), vec![77]);

        assert!(db.decide(77, true));
        assert!(db.prepared_gtids().is_empty());
        assert_eq!(db.read_committed(t, 1).unwrap(), vec![15]);
        // Second delivery of the same decision is a no-op.
        assert!(!db.decide(77, true));
    }

    #[test]
    fn failed_prepare_aborts_exactly_once_on_the_coordinator_error_path() {
        // Regression: the coordinator error path used to be able to abort a
        // vote-no transaction a second time (once inside the prepare run,
        // once when the coordinator delivered its global abort). The undo
        // must run exactly once and the locks release exactly once.
        let db = Database::open(EngineConfig::conventional_baseline());
        let t = db.create_table("t", 1).unwrap();
        db.execute(|txn| txn.insert(t, 1, &[10])).unwrap();
        let aborts_before = db.txn_manager().stats().aborts;

        // Buffered write first, then a logical failure (missing key): the
        // prepare run must roll the write back when it aborts.
        let spec = TxnSpec {
            kind: "bad",
            ops: vec![
                WorkloadOp::Add { table: t, key: 1, col: 0, delta: 7 },
                WorkloadOp::Add { table: t, key: 999, col: 0, delta: 1 },
            ],
            may_fail: true,
        };
        let vote = db.run_spec_prepare(5, &spec);
        assert!(
            matches!(vote, SpecOutcome::LogicalFailure),
            "{vote:?}"
        );
        assert_eq!(db.txn_manager().stats().aborts, aborts_before + 1, "exactly one abort");
        assert_eq!(db.read_committed(t, 1).unwrap(), vec![10], "buffered write undone once");
        assert!(db.prepared_gtids().is_empty(), "vote-no is never registered");

        // The coordinator's global abort for the same gtid lands later — it
        // must be a pure no-op, not a second rollback.
        assert!(!db.decide(5, false));
        assert_eq!(db.txn_manager().stats().aborts, aborts_before + 1, "still one abort");
        assert_eq!(db.read_committed(t, 1).unwrap(), vec![10]);

        // Locks were released exactly once: a fresh writer gets through.
        db.execute(|txn| txn.update(t, 1, &[11]).map(|_| ())).unwrap();
    }

    #[test]
    fn duplicate_gtid_votes_abort() {
        let db = Database::open(EngineConfig::conventional_baseline());
        let t = db.create_table("t", 1).unwrap();
        db.execute(|txn| {
            txn.insert(t, 1, &[0])?;
            txn.insert(t, 2, &[0])
        })
        .unwrap();
        let mk = |key| TxnSpec {
            kind: "w",
            ops: vec![WorkloadOp::Add { table: t, key, col: 0, delta: 1 }],
            may_fail: false,
        };
        assert!(db.run_spec_prepare(9, &mk(1)).is_committed());
        // Same gtid again (different key, so no lock conflict): rejected,
        // and the rejected attempt's work is rolled back.
        assert!(!db.run_spec_prepare(9, &mk(2)).is_committed());
        assert!(db.decide(9, true));
        assert_eq!(db.read_committed(t, 1).unwrap(), vec![1]);
        assert_eq!(db.read_committed(t, 2).unwrap(), vec![0], "duplicate's write undone");
    }

    #[test]
    fn dora_votes_no_on_prepare() {
        let db = Database::open(EngineConfig::scalable(2));
        let t = db.create_table("t", 1).unwrap();
        let spec = TxnSpec {
            kind: "ins",
            ops: vec![WorkloadOp::Insert { table: t, key: 1, row: vec![1] }],
            may_fail: false,
        };
        assert!(!db.run_spec_prepare(1, &spec).is_committed());
    }

    #[test]
    fn in_doubt_txn_survives_crash_and_resolves_both_ways() {
        // Prepared-but-undecided at crash time: recovery reports it in
        // doubt, keeps its effects (they may yet commit), and the
        // coordinator's answer then either keeps or undoes them.
        let mk_crashed = || {
            let db = Database::open(EngineConfig::conventional_baseline());
            let t = db.create_table("t", 1).unwrap();
            db.execute(|txn| txn.insert(t, 1, &[10])).unwrap();
            let spec = TxnSpec {
                kind: "w",
                ops: vec![WorkloadOp::Add { table: t, key: 1, col: 0, delta: 5 }],
                may_fail: false,
            };
            assert!(db.run_spec_prepare(33, &spec).is_committed());
            let records = db.wal().durable_records();
            let (recovered, report) = db.simulate_crash_with_report(false);
            std::mem::forget(db); // crashed processes don't run Drop rollbacks
            (recovered, report, records, t)
        };

        // Coordinator says commit: redone effects stay.
        let (recovered, report, _, t) = mk_crashed();
        assert_eq!(report.in_doubt.values().copied().collect::<Vec<_>>(), vec![33]);
        assert!(report.losers.is_empty());
        assert_eq!(recovered.read_committed(t, 1).unwrap(), vec![15]);

        // Coordinator says abort (or is presumed to): undo_txns rolls back.
        let (recovered, report, records, t) = mk_crashed();
        let in_doubt = report.in_doubt.keys().copied().collect();
        let n = esdb_wal::recovery::undo_txns(&records, &recovered.txn_manager().tables(), &in_doubt).unwrap();
        assert_eq!(n, 1);
        assert_eq!(recovered.read_committed(t, 1).unwrap(), vec![10]);
    }

    #[test]
    fn crash_recovery_preserves_committed_state() {
        let db = Database::open(EngineConfig::conventional_baseline());
        let t = db.create_table("t", 1).unwrap();
        db.execute(|txn| {
            txn.insert(t, 1, &[10])?;
            txn.insert(t, 2, &[20])
        })
        .unwrap();
        db.execute(|txn| txn.update(t, 1, &[11]).map(|_| ())).unwrap();

        let recovered = db.simulate_crash(false);
        assert_eq!(recovered.read_committed(t, 1).unwrap(), vec![11]);
        assert_eq!(recovered.read_committed(t, 2).unwrap(), vec![20]);
        // And the recovered database accepts new transactions.
        recovered.execute(|txn| txn.insert(t, 3, &[30])).unwrap();
        assert_eq!(recovered.read_committed(t, 3).unwrap(), vec![30]);
    }

    #[test]
    fn secondary_index_declarations_survive_crash() {
        use esdb_storage::{IndexDef, IndexKind};
        let db = Database::open(EngineConfig::conventional_baseline());
        let t = db
            .create_table_with_indexes(
                "t",
                2,
                vec![IndexDef { id: 0, name: "by_col0".into(), col: 0, kind: IndexKind::Range }],
            )
            .unwrap();
        db.execute(|txn| {
            txn.insert(t, 1, &[10, 0])?;
            txn.insert(t, 2, &[10, 0])?;
            txn.insert(t, 3, &[20, 0])
        })
        .unwrap();
        assert_eq!(db.catalog()[0].schema.indexes.len(), 1);

        let recovered = db.simulate_crash(false);
        let table = recovered.table(t).unwrap();
        assert_eq!(table.schema().indexes.len(), 1, "declaration recovered");
        assert_eq!(table.secondary(0).unwrap().lookup_eq(10), vec![1, 2]);
        assert_eq!(table.secondary(0).unwrap().lookup_range(15, 25).unwrap(), vec![3]);
    }

    #[test]
    fn tatp_smoke_on_scalable_config() {
        let db = Arc::new(Database::open(EngineConfig::scalable(4)));
        let mut w = esdb_workload::Tatp::new(200, 7);
        db.load_population(&w).expect("population load");
        let report = db.run_workload(&mut w, 2, 300);
        assert_eq!(report.attempts, 600);
        assert_eq!(report.failed, 0, "only expected failures allowed: {report:?}");
        assert!(report.committed > 300);
    }
}

//! The replica: snapshot install, durable shipped-log cursor, and the
//! commit-consistent apply loop.

use esdb_core::config::EngineConfig;
use esdb_core::{Database, DbError, TableImage};
use esdb_net::{Snapshot, SHIP_ROUND_BYTES};
use esdb_storage::disk::PageStore;
use esdb_storage::page::{Page, PAGE_SIZE};
use esdb_storage::schema::Schema;
use esdb_storage::{IndexDef, IndexKind, InMemoryDisk, StorageError};
use esdb_wal::buffer::LogStore;
use esdb_wal::record::decode_stream_checked;
use esdb_wal::{redo, LogBody, LogRecord, Lsn, Wal, WalError};
use esdb_sync::RwLock;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Replication errors. Everything a hostile or failing peer can cause is a
/// typed variant — the apply loop never panics on shipped bytes.
#[derive(Debug)]
pub enum ReplError {
    /// The shipped stream failed its CRC/structural checks mid-stream. A
    /// torn tail is *not* this (it just waits for more bytes); this is
    /// detectable damage — e.g. a lying primary whose device flipped a bit —
    /// and the replica halts rather than apply garbage.
    Corrupt(WalError),
    /// A chunk arrived beyond the cursor's end: bytes were lost in between
    /// and the replica must re-bootstrap from a snapshot.
    Gap {
        /// The next LSN the cursor can accept.
        expected: Lsn,
        /// Where the chunk actually started.
        got: Lsn,
    },
    /// The snapshot is structurally unusable.
    BadSnapshot(&'static str),
    /// A chunk (or a requested promotion term) carries a term below the
    /// highest this replica has observed: a fenced-off old primary is still
    /// talking, or the promotion would move the epoch backwards. Nothing
    /// stamped with a stale term is ever applied.
    StaleTerm {
        /// The stale term that arrived.
        got: u64,
        /// The highest term this replica has observed.
        ours: u64,
    },
    /// The demoted primary's durable WAL tail holds Commit records past the
    /// fork point of the new history — transactions it decided alone that no
    /// surviving replica ever saw. Merging them silently would fabricate
    /// durability; the only exits are operator intervention or a fresh
    /// snapshot re-sync that abandons the divergent suffix explicitly.
    Diverged {
        /// Old-stream LSN where the new history forked.
        fork: Lsn,
        /// Transactions with a Commit record at/past the fork.
        committed: Vec<u64>,
    },
    /// The wire layer failed.
    Net(esdb_net::NetError),
    /// Installing or reading replica storage failed.
    Storage(StorageError),
    /// Rebuilding the replica database failed.
    Db(DbError),
}

impl std::fmt::Display for ReplError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplError::Corrupt(e) => write!(f, "shipped log corrupt: {e}"),
            ReplError::Gap { expected, got } => {
                write!(f, "log gap: cursor expects {expected}, chunk starts at {got}")
            }
            ReplError::BadSnapshot(what) => write!(f, "unusable snapshot: {what}"),
            ReplError::StaleTerm { got, ours } => {
                write!(f, "stale replication term {got} (highest observed {ours})")
            }
            ReplError::Diverged { fork, committed } => write!(
                f,
                "divergent history: {} commit(s) past fork lsn {fork} (txns {committed:?})",
                committed.len()
            ),
            ReplError::Net(e) => write!(f, "replication transport: {e}"),
            ReplError::Storage(e) => write!(f, "replica storage: {e:?}"),
            ReplError::Db(e) => write!(f, "replica database: {e}"),
        }
    }
}

impl std::error::Error for ReplError {}

impl From<esdb_net::NetError> for ReplError {
    fn from(e: esdb_net::NetError) -> Self {
        ReplError::Net(e)
    }
}

impl From<StorageError> for ReplError {
    fn from(e: StorageError) -> Self {
        ReplError::Storage(e)
    }
}

impl From<DbError> for ReplError {
    fn from(e: DbError) -> Self {
        ReplError::Db(e)
    }
}

/// A live replica: a read-only [`Database`] kept converging toward the
/// primary by redoing shipped WAL bytes.
///
/// Shipped bytes are made durable in the [`cursor`](Self::cursor_store)
/// before any of them are applied, so a crash between ingest and apply loses
/// nothing: [`Replica::reopen`] salvages the cursor and re-applies the whole
/// stream, and page-LSN idempotent redo turns the second pass into no-ops
/// wherever the first pass already landed.
pub struct Replica {
    db: Arc<Database>,
    /// Durable landing zone for shipped bytes — the replication cursor. An
    /// [`esdb_wal::LogFault`] armed on it models a replica whose own log
    /// device crashes or lies.
    cursor: Arc<LogStore>,
    /// The snapshot this replica was built from; kept so [`Replica::reopen`]
    /// can rebuild after a crash without re-contacting the primary.
    snapshot: Snapshot,
    config: EngineConfig,
    /// Bytes below this have been parsed into `pending`.
    decoded_to: Lsn,
    /// Decoded records the frontier has not consumed yet.
    pending: Vec<LogRecord>,
    /// Outcome of every transaction whose Commit/Abort has been *decoded*
    /// but whose records the frontier has not fully consumed. `true` =
    /// committed.
    resolved: HashMap<u64, bool>,
    /// The commit-consistent apply frontier, published for follower reads
    /// (`esdb_net::Follower::applied`).
    applied: Arc<AtomicU64>,
    /// Highest replication term observed: chunk stamps fed through
    /// [`Replica::ingest_term`] and `TermChange` records in the stream.
    term: u64,
    /// Snapshot pin for OLAP reads: `advance_frontier` holds the write side
    /// while applying a batch of redo, and a pinned query (an
    /// [`crate::HtapView`], or a server's `esdb_net::Follower::gate`) holds
    /// the read side across its whole plan — so a query only ever observes
    /// the heap *between* consistent cuts, never mid-apply.
    gate: Arc<RwLock<()>>,
}

impl std::fmt::Debug for Replica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replica")
            .field("start_lsn", &self.snapshot.start_lsn)
            .field("decoded_to", &self.decoded_to)
            .field("applied", &self.applied_lsn())
            .field("pending", &self.pending.len())
            .finish_non_exhaustive()
    }
}

impl Replica {
    /// Installs a snapshot fetched from a primary and returns a replica
    /// whose apply frontier sits at the snapshot's `start_lsn`.
    pub fn bootstrap(snapshot: Snapshot, config: EngineConfig) -> Result<Replica, ReplError> {
        let db = install_snapshot(&snapshot, config.clone())?;
        let start = snapshot.start_lsn;
        Ok(Replica {
            db,
            cursor: Arc::new(LogStore::new_at(start, None)),
            snapshot,
            config,
            decoded_to: start,
            pending: Vec::new(),
            resolved: HashMap::new(),
            applied: Arc::new(AtomicU64::new(start)),
            term: 0,
            gate: Arc::new(RwLock::new(())),
        })
    }

    /// The replica database (read path for follower serving).
    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    /// The apply frontier watermark, shared with a serving
    /// [`esdb_net::Follower::applied`].
    pub fn watermark(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.applied)
    }

    /// The commit-consistent apply frontier: every record below it belongs
    /// to a resolved transaction and, if committed, has been redone.
    pub fn applied_lsn(&self) -> Lsn {
        self.applied.load(Ordering::Acquire)
    }

    /// Where the next shipped chunk must start (the durable cursor's end).
    /// After a crash/`reopen` this is also the LSN to re-subscribe from.
    pub fn subscribe_from(&self) -> Lsn {
        self.cursor.base() + self.cursor.len()
    }

    /// The durable cursor device, exposed for fault injection in tests.
    pub fn cursor_store(&self) -> &Arc<LogStore> {
        &self.cursor
    }

    /// The snapshot pin, shared with a serving
    /// [`esdb_net::Follower::gate`].
    pub fn apply_gate(&self) -> Arc<RwLock<()>> {
        Arc::clone(&self.gate)
    }

    /// A handle for in-process commit-consistent OLAP reads over this
    /// replica's database (see [`crate::HtapView`]). The view stays valid
    /// while the replica lives; after a crash/[`Replica::reopen`] it points
    /// at the dead pre-crash database and must be re-fetched.
    pub fn htap_view(&self) -> crate::HtapView {
        crate::HtapView::new(
            Arc::clone(&self.db),
            Arc::clone(&self.applied),
            Arc::clone(&self.gate),
        )
    }

    /// The highest replication term this replica has observed.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// Lands a chunk stamped with the shipping primary's term. A stamp below
    /// the highest term this replica has observed is a fenced-off old
    /// primary still talking — a typed halt before a single byte lands.
    /// Higher stamps are adopted (a promotion happened upstream).
    pub fn ingest_term(&mut self, term: u64, start: Lsn, bytes: &[u8]) -> Result<(), ReplError> {
        self.land_term(term, start, bytes)?;
        self.pump()
    }

    /// The landing half of [`Replica::ingest_term`]: term check plus durable
    /// cursor append, without driving the apply loop. Once this returns, the
    /// chunk's bytes are what [`Replica::subscribe_from`] covers — the point
    /// at which a semi-sync follower may ack durability to its primary;
    /// applying (an arbitrary amount of redo work) can happen after the ack
    /// is already on the wire, off the primary's commit critical path.
    pub fn land_term(&mut self, term: u64, start: Lsn, bytes: &[u8]) -> Result<(), ReplError> {
        if term < self.term {
            return Err(ReplError::StaleTerm { got: term, ours: self.term });
        }
        self.term = term;
        self.land(start, bytes)
    }

    /// Lands one shipped chunk in the durable cursor, then decodes and
    /// applies whatever became available. Chunks that overlap already-held
    /// bytes (a reconnecting primary replaying its tail) are deduplicated;
    /// a chunk *beyond* the cursor end is a [`ReplError::Gap`].
    pub fn ingest(&mut self, start: Lsn, bytes: &[u8]) -> Result<(), ReplError> {
        self.land(start, bytes)?;
        self.pump()
    }

    fn land(&mut self, start: Lsn, bytes: &[u8]) -> Result<(), ReplError> {
        let expected = self.subscribe_from();
        if start > expected {
            return Err(ReplError::Gap { expected, got: start });
        }
        let skip = (expected - start) as usize;
        if skip < bytes.len() {
            self.cursor.append(&[&bytes[skip..]]);
        }
        if esdb_obs::enabled() {
            // Replication lag in bytes: the shipped frontier (a lower bound
            // on the primary's durable LSN) minus what this replica has
            // applied. Sampled once per chunk.
            let shipped_end = start + bytes.len() as u64;
            let lag = shipped_end.saturating_sub(self.applied_lsn());
            esdb_obs::record_component(esdb_obs::Component::ReplLag, lag);
        }
        Ok(())
    }

    /// Decodes newly durable cursor bytes and drives the apply frontier as
    /// far as transaction outcomes allow. Safe to call at any time.
    pub fn pump(&mut self) -> Result<(), ReplError> {
        let started = std::time::Instant::now();
        let tail = self.cursor.read_from(self.decoded_to);
        if !tail.is_empty() {
            let salvaged = decode_stream_checked(&tail, self.decoded_to);
            if let Some(e) = salvaged.corruption {
                return Err(ReplError::Corrupt(e));
            }
            for r in &salvaged.records {
                match r.body {
                    LogBody::Commit => {
                        self.resolved.insert(r.txn_id, true);
                    }
                    LogBody::Abort => {
                        self.resolved.insert(r.txn_id, false);
                    }
                    LogBody::TermChange { term } => {
                        self.term = self.term.max(term);
                    }
                    _ => {}
                }
            }
            self.decoded_to += salvaged.valid_len;
            self.pending.extend(salvaged.records);
        }
        self.advance_frontier()?;
        if esdb_obs::enabled() {
            esdb_obs::record_component(
                esdb_obs::Component::ReplApply,
                started.elapsed().as_nanos() as u64,
            );
        }
        Ok(())
    }

    /// Applies pending records in strict LSN order, publishing the frontier
    /// only at **transaction-consistent cuts**.
    ///
    /// Pass 1 finds the cut. Walking `pending`, a known-committed
    /// transaction *opens* at its first data record and *closes* at its
    /// terminator; the walk stops at the first data record whose outcome is
    /// still unknown (its terminator has not been decoded — it necessarily
    /// lies beyond `pending`, because decode order is LSN order). The cut is
    /// the longest prefix with no transaction left open. Records of distinct
    /// transactions interleave freely in the stream, so a per-record
    /// watermark could expose half of a committed transaction whose other
    /// half sits past a stalled record; the cut cannot.
    ///
    /// Pass 2 redoes the prefix ([`esdb_wal::redo`], the same physical redo
    /// crash recovery runs) under the write side of the pin gate: pinned
    /// OLAP readers are excluded for the whole batch and observe the heap
    /// only at cut boundaries. Together with pass 1 this is the
    /// follower-side snapshot guarantee: a reader that checks the watermark
    /// and then takes the read side sees every record below the watermark
    /// applied and nothing above it mid-flight. A redo that fails in storage
    /// is a [`ReplError::Storage`] with the watermark and the pending batch
    /// left where they were, so a later pump retries it (redo is
    /// idempotent).
    fn advance_frontier(&mut self) -> Result<(), ReplError> {
        let mut open: HashSet<u64> = HashSet::new();
        let mut cut = 0usize;
        for (idx, r) in self.pending.iter().enumerate() {
            // Only row records and terminators matter. Term boundaries,
            // checkpoints, and 2PC bookkeeping carry no page effects (the
            // term itself was adopted at decode time in `pump`). A Prepare is
            // deliberately *not* a terminator: data records of an in-doubt
            // transaction keep stalling the cut below until the
            // participant's Commit/Abort lands, so pinned reads never observe
            // a half-decided cross-shard txn.
            if r.body.row().is_some() {
                match self.resolved.get(&r.txn_id) {
                    Some(true) => {
                        open.insert(r.txn_id);
                    }
                    Some(false) => {} // aborted: never touches pages
                    None => break,    // outcome unknown: the cut stops
                }
            } else if matches!(r.body, LogBody::Commit | LogBody::Abort) {
                open.remove(&r.txn_id);
            }
            if open.is_empty() {
                cut = idx + 1;
            }
        }
        if cut == 0 {
            return Ok(());
        }
        let cut_lsn = self.pending.get(cut).map_or(self.decoded_to, |next| next.lsn);
        let tables = self.db.txn_manager().tables();
        let _apply = self.gate.write();
        for r in &self.pending[..cut] {
            if self.resolved.get(&r.txn_id) == Some(&true) {
                redo(r, &tables)?;
            }
        }
        // A terminator is its transaction's last record, so its outcome
        // entry is no longer needed once consumed.
        for r in self.pending.drain(..cut) {
            if matches!(r.body, LogBody::Commit | LogBody::Abort) {
                self.resolved.remove(&r.txn_id);
            }
        }
        self.applied.store(cut_lsn, Ordering::Release);
        Ok(())
    }

    /// Crash-restarts the replica: all volatile state (the database, decode
    /// and frontier state) is discarded; only the durable cursor and the
    /// original snapshot survive. The cursor is salvaged exactly like a
    /// local WAL after a crash — a torn final record is dropped, detectable
    /// corruption is a typed halt — and the whole surviving stream is
    /// re-applied from the snapshot's `start_lsn`. Applying the same stream
    /// twice is safe: redo is page-LSN idempotent.
    pub fn reopen(self) -> Result<Replica, ReplError> {
        let Replica { cursor, snapshot, config, gate, .. } = self;
        let raw = cursor.read_from(cursor.base());
        let salvaged = decode_stream_checked(&raw, cursor.base());
        if let Some(e) = salvaged.corruption {
            return Err(ReplError::Corrupt(e));
        }
        cursor.truncate_to(salvaged.valid_len as usize);
        let db = install_snapshot(&snapshot, config.clone())?;
        let start = snapshot.start_lsn;
        let mut replica = Replica {
            db,
            cursor,
            snapshot,
            config,
            decoded_to: start,
            pending: Vec::new(),
            resolved: HashMap::new(),
            applied: Arc::new(AtomicU64::new(start)),
            // The gate survives restart so long-lived HtapView handles keep
            // pinning against the reopened apply loop.
            gate,
            // Re-derived from the salvaged stream: `pump` adopts every
            // TermChange record it decodes.
            term: 0,
        };
        replica.pump()?;
        Ok(replica)
    }

    /// Promotes this replica to primary at `new_term`, consuming it.
    ///
    /// The feed is dead by definition here, so no terminator will ever
    /// arrive for a transaction still unresolved at the frontier: every such
    /// transaction is declared aborted (redo skips its records — that *is*
    /// the promotion-time undo) and the frontier drains to the end of the
    /// decodable stream. The undecodable torn tail is then truncated from
    /// the durable cursor, fixing the **fork point**: the old-stream LSN
    /// where this node's history and any divergent old-primary history part
    /// ways.
    ///
    /// Safety argument for the quorum invariant: a quorum-acked commit has
    /// its Commit record inside this replica's durable cursor (the ack
    /// covered those bytes), so it decodes, resolves committed, and is
    /// applied — never truncated. Only record-*suffixes* torn mid-record and
    /// terminator-less transactions are dropped, and neither can carry an
    /// acked commit.
    ///
    /// The returned database is the new primary: its WAL (a fresh stream,
    /// disjoint from the old one) opens with a durable
    /// [`LogBody::TermChange`] record so crash recovery and late subscribers
    /// learn the epoch from the log itself. Old-stream followers cannot
    /// splice onto the new stream; they re-sync via snapshot bootstrap.
    pub fn promote(mut self, new_term: u64) -> Result<Promotion, ReplError> {
        self.pump()?;
        if new_term <= self.term {
            return Err(ReplError::StaleTerm { got: new_term, ours: self.term });
        }
        for r in &self.pending {
            self.resolved.entry(r.txn_id).or_insert(false);
        }
        self.advance_frontier()?;
        debug_assert!(self.pending.is_empty());
        self.cursor
            .truncate_to((self.decoded_to - self.cursor.base()) as usize);
        let fork_lsn = self.decoded_to;
        let wal = self.db.wal();
        let range = wal.append(0, esdb_wal::NULL_LSN, &LogBody::TermChange { term: new_term });
        wal.wait_durable(range.end);
        Ok(Promotion { term: new_term, fork_lsn, db: self.db })
    }
}

/// A successful [`Replica::promote`]: the database now serving as primary,
/// the term it serves at, and where its history forked from the old stream.
#[derive(Clone)]
pub struct Promotion {
    /// The new primary's replication term.
    pub term: u64,
    /// Old-stream LSN where the new history forks. Everything below it is
    /// shared with the old primary; nothing above it survived promotion.
    pub fork_lsn: Lsn,
    /// The promoted database — serve writes from it, ship its WAL.
    pub db: Arc<Database>,
}

impl std::fmt::Debug for Promotion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Promotion")
            .field("term", &self.term)
            .field("fork_lsn", &self.fork_lsn)
            .finish_non_exhaustive()
    }
}

/// Diffs a demoted primary's durable WAL against the fork point of the new
/// history (see [`Promotion::fork_lsn`]).
///
/// Commit records at/past the fork are transactions the old primary decided
/// alone — no surviving replica holds them, so the new history aborted them.
/// They can never be merged silently: the result is the typed
/// [`ReplError::Diverged`] listing every such transaction. An uncommitted or
/// aborted suffix is benign (skipping it is the undo) and returns `Ok(())`;
/// the demoted node then abandons its stream and re-syncs as a follower via
/// snapshot bootstrap.
pub fn divergence_check(old_wal: &esdb_wal::Wal, fork: Lsn) -> Result<(), ReplError> {
    let salvaged = old_wal.durable_records_checked();
    if let Some(e) = salvaged.corruption {
        return Err(ReplError::Corrupt(e));
    }
    let committed: Vec<u64> = salvaged
        .records
        .iter()
        .filter(|r| r.lsn >= fork && matches!(r.body, LogBody::Commit))
        .map(|r| r.txn_id)
        .collect();
    if committed.is_empty() {
        Ok(())
    } else {
        Err(ReplError::Diverged { fork, committed })
    }
}

/// Ships every durable byte the replica is missing straight from a primary's
/// WAL — in-process ship-loop rounds that copy at most
/// [`SHIP_ROUND_BYTES`] each, under a [`esdb_wal::LogPin`] so no scheduled
/// checkpoint reclaims the log between rounds. Returns the byte count
/// shipped. Fails with [`ReplError::Gap`] when the primary has truncated the
/// log past the replica's cursor before the call (only a fresh snapshot can
/// help then).
pub fn ship_available(wal: &esdb_wal::Wal, replica: &mut Replica) -> Result<u64, ReplError> {
    let durable = wal.durable_lsn();
    let pin = wal.pin();
    let mut shipped = 0;
    loop {
        let from = replica.subscribe_from();
        if durable <= from {
            return Ok(shipped);
        }
        pin.advance(from);
        let Some((bytes, start)) = wal.durable_tail(from, SHIP_ROUND_BYTES) else {
            return Err(ReplError::Gap { expected: from, got: wal.start_lsn() });
        };
        let avail = ((durable - start) as usize).min(bytes.len());
        replica.ingest(start, &bytes[..avail])?;
        shipped += avail as u64;
        // A lying primary device holds less than it called durable, and a
        // lying cursor keeps less than it was handed: either way, done.
        if avail < SHIP_ROUND_BYTES || replica.subscribe_from() == from {
            return Ok(shipped);
        }
    }
}

/// The snapshot's catalog as [`TableImage`]s, validated: everything
/// wire-provided is checked before it touches the engine. Index
/// *declarations* ship; their contents are derived state the restore
/// rebuilds. Adoption inserts into page lists by binary search, so each list
/// must ascend, no page may belong to two heaps, and every listed page must
/// arrive exactly once — a missing one would read as a blank page.
fn snapshot_catalog(snapshot: &Snapshot) -> Result<Vec<TableImage>, ReplError> {
    let mut tables: Vec<TableImage> = snapshot
        .catalog
        .iter()
        .map(|(id, name, arity, pages)| TableImage {
            schema: Schema::new(*id, name.clone(), *arity as usize),
            pages: pages.clone(),
        })
        .collect();
    for (tid, iid, name, col, kind) in &snapshot.indexes {
        let kind = IndexKind::from_u8(*kind).ok_or(ReplError::BadSnapshot("unknown index kind"))?;
        let Some(t) = tables.iter_mut().find(|t| t.schema.id == *tid) else {
            return Err(ReplError::BadSnapshot("index on a table missing from the catalog"));
        };
        if *col as usize >= t.schema.arity {
            return Err(ReplError::BadSnapshot("index column out of range"));
        }
        t.schema.indexes.push(IndexDef { id: *iid, name: name.clone(), col: *col as usize, kind });
    }
    let mut listed = HashSet::new();
    for t in &tables {
        if t.pages.windows(2).any(|w| w[0] >= w[1]) {
            return Err(ReplError::BadSnapshot("a table's page list does not ascend"));
        }
        if !t.pages.iter().all(|p| listed.insert(*p)) {
            return Err(ReplError::BadSnapshot("two tables list the same page"));
        }
    }
    let mut shipped = HashSet::new();
    if !snapshot.pages.iter().all(|(pid, _)| listed.contains(pid) && shipped.insert(*pid))
        || shipped.len() != listed.len()
    {
        return Err(ReplError::BadSnapshot("the shipped pages are not the listed pages, once each"));
    }
    Ok(tables)
}

/// Builds the replica database from a snapshot: every shipped page installed
/// under its primary page id on a fresh in-memory store, then
/// [`Database::restore`] over the validated catalog, with no log records and
/// a local WAL based far past any primary LSN, so primary page LSNs never
/// block the replica's flush barrier.
fn install_snapshot(snapshot: &Snapshot, config: EngineConfig) -> Result<Arc<Database>, ReplError> {
    let tables = snapshot_catalog(snapshot)?;
    let disk = Arc::new(InMemoryDisk::new());
    let mut page = Page::new();
    for (pid, bytes) in &snapshot.pages {
        if bytes.len() != PAGE_SIZE {
            return Err(ReplError::BadSnapshot("page of wrong size"));
        }
        disk.allocate_through(*pid);
        page.as_bytes_mut().copy_from_slice(bytes);
        disk.write(*pid, &page)?;
    }
    let wal = Wal::new_at(1 << 62, config.log, config.flush_latency);
    let (db, _) = Database::restore(config, disk, wal, &tables, &[])?;
    Ok(Arc::new(db))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A snapshot with one table per page list, shipping blank pages `shipped`.
    fn snapshot(lists: &[&[u64]], shipped: &[u64]) -> Snapshot {
        Snapshot {
            start_lsn: 0,
            catalog: lists
                .iter()
                .enumerate()
                .map(|(id, pages)| (id as u32, format!("t{id}"), 1, pages.to_vec()))
                .collect(),
            indexes: Vec::new(),
            pages: shipped.iter().map(|&pid| (pid, Page::new().as_bytes().to_vec())).collect(),
        }
    }

    fn refusal(snap: Snapshot) -> &'static str {
        match Replica::bootstrap(snap, EngineConfig::conventional_baseline()) {
            Err(ReplError::BadSnapshot(what)) => what,
            other => panic!("expected a typed refusal, got {other:?}"),
        }
    }

    #[test]
    fn a_well_formed_snapshot_installs_its_page_lists() {
        let replica = Replica::bootstrap(snapshot(&[&[0, 2], &[1]], &[2, 0, 1]), EngineConfig::conventional_baseline())
            .unwrap();
        let pages: Vec<Vec<u64>> = replica.db().catalog().into_iter().map(|t| t.pages).collect();
        assert_eq!(pages, vec![vec![0, 2], vec![1]]);
    }

    #[test]
    fn a_page_list_that_does_not_ascend_is_refused() {
        assert_eq!(refusal(snapshot(&[&[2, 0]], &[0, 2])), "a table's page list does not ascend");
        assert_eq!(refusal(snapshot(&[&[1, 1]], &[1])), "a table's page list does not ascend");
    }

    #[test]
    fn page_lists_that_overlap_are_refused() {
        assert_eq!(refusal(snapshot(&[&[0, 1], &[1, 2]], &[0, 1, 2])), "two tables list the same page");
    }

    #[test]
    fn a_listed_page_not_shipped_exactly_once_is_refused() {
        const WHAT: &str = "the shipped pages are not the listed pages, once each";
        assert_eq!(refusal(snapshot(&[&[0, 1]], &[0])), WHAT, "missing");
        assert_eq!(refusal(snapshot(&[&[0, 1]], &[0, 1, 1])), WHAT, "shipped twice");
        assert_eq!(refusal(snapshot(&[&[0, 1]], &[0, 1, 2])), WHAT, "shipped but unlisted");
    }
}

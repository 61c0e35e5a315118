//! ARIES-style crash recovery — analysis, redo (repeating history), undo —
//! and the two row-image appliers everything that repeats history shares.
//!
//! A row record is taken apart in one place, [`LogBody::row`], and applied
//! by one of two functions over one kernel (heap change, then the index
//! half):
//!
//! * [`redo`] — the physical redo: the record's image at its rid, gated by
//!   the page LSN. Crash recovery runs it over the log; a follower's apply
//!   loop (`esdb-repl`'s `Replica`) over each commit-consistent batch.
//! * [`undo_txns`] — the physical undo: the *inverse* image of every record
//!   of the given transactions, newest first, not gated, stamped from the
//!   [`undo_band`](crate::wal::undo_band). Recovery runs it over its losers;
//!   in-doubt resolution (`esdb-shard`) over what the coordinator aborted.
//!
//! A migration's slot catch-up (`esdb-repl`'s `RangeShip`) is a *logical*
//! redo — destination rids differ — that reads records through the same
//! view; runtime rollback, which logs its compensations, is `esdb-txn`'s
//! `UndoOp::compensate`.
//!
//! Recovery operates on tables whose heap pages were restored from the page
//! store ([`esdb_storage::table::Table::from_heap`]) but whose in-memory
//! indexes were lost with the process. The passes:
//!
//! 1. **Analysis** — scan the durable log once; transactions with a `Commit`
//!    record are winners, transactions with an `Abort` already rolled back
//!    (their undo is reflected in the log's update chain replay), and
//!    everything else is a loser — except transactions whose last vote
//!    record is a durable `Prepare`: those are *in doubt* and belong to the
//!    two-phase-commit coordinator, not to local recovery.
//! 2. **Redo** — [`redo`] *every* row record in LSN order (repeating
//!    history, including losers).
//! 3. **Undo** — [`undo_txns`] over the losers. In-doubt transactions are
//!    *not* undone: their locks are conceptually still held and their fate
//!    is decided post-recovery by [`undo_txns`] (coordinator said abort) or
//!    by keeping the redone state (coordinator said commit).
//! 4. **Index rebuild** — primary and secondary indexes are rebuilt from
//!    heap scans.
//!
//! A storage error in redo or undo — a page pin that fails after its
//! retries, a slot that does not hold what the log says — stops recovery
//! with `Err`; nothing is counted as applied that was not.
//!
//! Simplification vs full ARIES: no compensation log records are written
//! during recovery, so recovery itself is not restartable mid-undo. For an
//! in-memory evaluation harness this is immaterial and documented in
//! DESIGN.md.

use crate::record::{LogBody, LogRecord, RowOp};
use crate::wal::undo_band;
use crate::Lsn;
use esdb_storage::schema::{encode_row, TableId};
use esdb_storage::{Rid, StorageError, Table};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Outcome summary of a recovery run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Transactions whose commit record was durable.
    pub winners: HashSet<u64>,
    /// Transactions that were rolled back at runtime (abort record durable).
    pub aborted: HashSet<u64>,
    /// In-flight transactions rolled back by recovery.
    pub losers: HashSet<u64>,
    /// Prepared-but-undecided transactions (txn id → gtid): redone like
    /// winners, undone by nobody. Resolution happens after recovery, once
    /// the coordinator's decision for the gtid is known (presumed abort if
    /// the coordinator has no durable commit decision).
    pub in_doubt: HashMap<u64, u64>,
    /// Redo actions applied (not skipped by the page-LSN check).
    pub redo_applied: usize,
    /// Redo actions skipped because the page already reflected them.
    pub redo_skipped: usize,
    /// Undo actions applied for losers.
    pub undo_applied: usize,
}

/// Analysis pass: classify transactions.
pub fn analyze(records: &[LogRecord]) -> RecoveryReport {
    let mut report = RecoveryReport::default();
    let mut seen: HashSet<u64> = HashSet::new();
    for r in records {
        if r.txn_id != 0 {
            seen.insert(r.txn_id);
        }
        match r.body {
            LogBody::Commit => {
                report.winners.insert(r.txn_id);
                report.in_doubt.remove(&r.txn_id);
            }
            LogBody::Abort => {
                report.aborted.insert(r.txn_id);
                report.in_doubt.remove(&r.txn_id);
            }
            LogBody::Prepare { gtid } => {
                report.in_doubt.insert(r.txn_id, gtid);
            }
            _ => {}
        }
    }
    report.losers = seen
        .iter()
        .filter(|t| {
            !report.winners.contains(t)
                && !report.aborted.contains(t)
                && !report.in_doubt.contains_key(t)
        })
        .copied()
        .collect();
    report
}

/// The redo low-water mark implied by the last durable checkpoint in
/// `records`, if any: every record below it belongs to a transaction that
/// finished before the checkpoint's pool flush began, and that flush
/// persisted its page effects.
pub fn checkpoint_redo_lsn(records: &[LogRecord]) -> Option<Lsn> {
    records.iter().rev().find_map(|r| match r.body {
        LogBody::Checkpoint { redo_lsn } => Some(redo_lsn),
        _ => None,
    })
}

/// Slices `records` to the suffix recovery still needs: from the last
/// durable checkpoint's `redo_lsn` onward, or the whole stream when no
/// checkpoint exists. Transactions never straddle the boundary — `redo_lsn`
/// was the minimum first-LSN of the transactions active at flush start, so
/// everything below it is wholly finished and wholly flushed.
pub fn slice_from_checkpoint(records: &[LogRecord]) -> &[LogRecord] {
    match checkpoint_redo_lsn(records) {
        Some(redo) => {
            let start = records.partition_point(|r| r.lsn < redo);
            &records[start..]
        }
        None => records,
    }
}

/// Applies one row image to `t` at `rid`, stamping `lsn`: the heap change —
/// page-LSN `gated` for redo, not for undo — then the index half, which
/// runs even when the gate skips the heap (a replay of an applied stream
/// converges to the same indexes). Every index follows the full row images
/// the record carries, so no index-maintenance record type exists, and set
/// semantics make the re-derivation idempotent. Returns whether the page
/// changed.
fn apply_row(t: &Table, key: u64, rid: Rid, op: RowOp<'_>, lsn: Lsn, gated: bool) -> Result<bool, StorageError> {
    let heap = t.heap();
    let changed = match op {
        RowOp::Insert { row } => heap.insert_at(rid, &encode_row(key, row), lsn, gated)?,
        RowOp::Update { after, .. } => heap.update_at(rid, &encode_row(key, after), lsn, gated)?,
        RowOp::Delete { .. } => heap.delete_at(rid, lsn, gated)?,
    };
    match op {
        RowOp::Insert { row } => {
            t.index().insert(key, rid.to_u64());
            t.secondaries().iter().for_each(|ix| ix.insert_row(key, row));
        }
        RowOp::Update { before, after } => {
            t.index().insert(key, rid.to_u64());
            t.secondaries().iter().for_each(|ix| ix.update_row(key, before, after));
        }
        RowOp::Delete { before } => {
            t.index().remove(key);
            t.secondaries().iter().for_each(|ix| ix.remove_row(key, before));
        }
    }
    Ok(changed)
}

/// The physical redo — repeating history one record at a time: applies a
/// row record's image to its table, gated by the page LSN, and keeps the
/// primary and secondary indexes in step. Returns whether the page changed
/// (`false`: the page already held the change), or `None` when `r` is not a
/// row record of a table in `tables`. Crash recovery runs it over the whole
/// log; a follower's apply loop over each commit-consistent batch.
///
/// A failed page pin or a slot that does not hold what the log says is an
/// `Err`, never a skip: the caller must not count the record as applied.
pub fn redo(r: &LogRecord, tables: &HashMap<TableId, Arc<Table>>) -> Result<Option<bool>, StorageError> {
    let Some((table, key, rid, op)) = r.body.row() else { return Ok(None) };
    let Some(t) = tables.get(&table) else { return Ok(None) };
    apply_row(t, key, rid, op, r.lsn, true).map(Some)
}

/// Full recovery over `tables` (keyed by table id). Tables must carry the
/// post-crash heap state; their indexes are rebuilt here.
///
/// Defensive against a salvaged (possibly truncated) log: a record naming a
/// table id absent from the catalog is skipped rather than panicking, and an
/// index rebuild that trips over a corrupt heap row surfaces as an `Err`
/// instead of aborting the process.
pub fn recover(
    records: &[LogRecord],
    tables: &HashMap<TableId, Arc<Table>>,
) -> Result<RecoveryReport, StorageError> {
    // Start from the last complete checkpoint: the prefix below its
    // `redo_lsn` is already fully reflected in the page store.
    let records = slice_from_checkpoint(records);
    let mut report = analyze(records);
    for r in records {
        match redo(r, tables)? {
            Some(true) => report.redo_applied += 1,
            Some(false) => report.redo_skipped += 1,
            None => {}
        }
    }
    report.undo_applied = undo_txns(records, tables, &report.losers)?;
    // Redo and undo kept the indexes in step for the rows the log touches;
    // the rest of the heap is reached only by a scan.
    for t in tables.values() {
        t.rebuild_index()?;
        t.rebuild_secondaries()?;
    }
    Ok(report)
}

/// The physical undo: rolls back every logged row change of the
/// transactions in `txns`, newest first, by applying each record's inverse
/// image ([`RowOp::inverse`]) through the same kernel as [`redo`] — so the
/// primary and secondary indexes stay in step. Returns the number of row
/// records undone.
///
/// Undo is not page-LSN gated. It stamps LSNs from
/// [`undo_band`](crate::wal::undo_band)`(records)` — past every record, below
/// the successor log's first LSN — so a second batch of undo over the same
/// crash image (one in-doubt abort after another) stamps the same, lower
/// LSNs and still applies. Recovery calls it with its losers; in-doubt
/// resolution with the transactions whose coordinator decided, or is
/// presumed to have decided, abort.
pub fn undo_txns(
    records: &[LogRecord],
    tables: &HashMap<TableId, Arc<Table>>,
    txns: &HashSet<u64>,
) -> Result<usize, StorageError> {
    let band = undo_band(records);
    let mut undone = 0;
    for r in records.iter().rev().filter(|r| txns.contains(&r.txn_id)) {
        let Some((table, key, rid, op)) = r.body.row() else { continue };
        let Some(t) = tables.get(&table) else { continue };
        let lsn = (band.start + undone as u64).min(band.end - 1);
        apply_row(t, key, rid, op.inverse(), lsn, false)?;
        undone += 1;
    }
    Ok(undone)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{LogPolicy, Wal};
    use crate::NULL_LSN;
    use esdb_storage::heap::HeapFile;
    use esdb_storage::schema::Schema;
    use esdb_storage::{BufferPool, InMemoryDisk};

    /// Runs a scripted workload against a table + WAL, "crashes" (drops the
    /// volatile state, keeps the page store), then recovers.
    struct Harness {
        disk: Arc<InMemoryDisk>,
        pool: Arc<BufferPool>,
        table: Arc<Table>,
        wal: Wal,
    }

    impl Harness {
        fn new() -> Self {
            let disk = Arc::new(InMemoryDisk::new());
            let pool = Arc::new(BufferPool::new(64, disk.clone()));
            let table = Arc::new(Table::create(1, "t", 1, pool.clone()));
            Harness {
                disk,
                pool,
                table,
                wal: Wal::new(LogPolicy::Serial, None),
            }
        }

        /// Simulates the crash: flush dirty pages (or not — `lose_buffer`
        /// decides), then rebuild a fresh Table over the same page store.
        fn crash_and_recover(&self, flush_pages: bool) -> (Arc<Table>, RecoveryReport) {
            if flush_pages {
                self.pool.flush_all().unwrap();
            }
            let pool = Arc::new(BufferPool::new(64, self.disk.clone()));
            let heap = HeapFile::from_pages(pool, self.table.heap().pages());
            let table = Arc::new(Table::from_heap(Schema::new(1, "t", 1), heap));
            let mut tables = HashMap::new();
            tables.insert(1u32, table.clone());
            let report = recover(&self.wal.durable_records(), &tables).unwrap();
            (table, report)
        }
    }

    #[test]
    fn committed_work_survives_unflushed_pages() {
        let h = Harness::new();
        // txn 1: insert two rows, commit (records durable, pages NOT flushed).
        let b = h.wal.append(1, NULL_LSN, &LogBody::Begin);
        let rid1 = h.table.insert_logged(10, &[100], |_| b.end).unwrap();
        let i1 = h.wal.append(1, b.start, &LogBody::Insert { table: 1, key: 10, rid: rid1, row: vec![100] });
        let rid2 = h.table.insert_logged(20, &[200], |_| i1.end).unwrap();
        let i2 = h.wal.append(1, i1.start, &LogBody::Insert { table: 1, key: 20, rid: rid2, row: vec![200] });
        h.wal.commit(1, i2.start, true);

        let (table, report) = h.crash_and_recover(false);
        assert!(report.winners.contains(&1));
        assert!(report.losers.is_empty());
        assert_eq!(table.get(10).unwrap(), vec![100]);
        assert_eq!(table.get(20).unwrap(), vec![200]);
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn loser_transaction_is_rolled_back() {
        let h = Harness::new();
        // Committed base row.
        let b = h.wal.append(1, NULL_LSN, &LogBody::Begin);
        let rid = h.table.insert_logged(5, &[50], |_| b.end).unwrap();
        let i = h.wal.append(1, b.start, &LogBody::Insert { table: 1, key: 5, rid, row: vec![50] });
        h.wal.commit(1, i.start, true);

        // txn 2 updates the row and inserts another, then the crash hits
        // before its commit — but after its records reached the durable log
        // and its dirty pages were stolen (flushed).
        let b2 = h.wal.append(2, NULL_LSN, &LogBody::Begin);
        let before = h.table.update_logged(5, &[51], |_, _| b2.end).unwrap();
        let u = h.wal.append(2, b2.start, &LogBody::Update { table: 1, key: 5, rid, before: before.clone(), after: vec![51] });
        let rid9 = h.table.insert_logged(9, &[90], |_| u.end).unwrap();
        let i9 = h.wal.append(2, u.start, &LogBody::Insert { table: 1, key: 9, rid: rid9, row: vec![90] });
        h.wal.wait_durable(i9.end); // records durable, no commit

        let (table, report) = h.crash_and_recover(true);
        assert!(report.losers.contains(&2));
        assert!(report.undo_applied >= 2);
        assert_eq!(table.get(5).unwrap(), vec![50], "loser update undone");
        assert!(table.get(9).is_err(), "loser insert undone");
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn undurable_tail_is_simply_lost() {
        let h = Harness::new();
        let b = h.wal.append(1, NULL_LSN, &LogBody::Begin);
        let rid = h.table.insert_logged(1, &[10], |_| b.end).unwrap();
        let i = h.wal.append(1, b.start, &LogBody::Insert { table: 1, key: 1, rid, row: vec![10] });
        let _ = i;
        // No flush at all: the log tail never reached the store.
        let (table, report) = h.crash_and_recover(false);
        assert!(report.winners.is_empty());
        assert_eq!(table.len(), 0);
    }

    #[test]
    fn redo_is_idempotent_when_pages_flushed() {
        let h = Harness::new();
        let b = h.wal.append(1, NULL_LSN, &LogBody::Begin);
        let rid = h.table.insert_logged(1, &[10], |_| b.end).unwrap();
        let i = h.wal.append(1, b.start, &LogBody::Insert { table: 1, key: 1, rid, row: vec![10] });
        h.wal.commit(1, i.start, true);

        // Pages flushed: redo should skip everything via page LSNs.
        let (table, report) = h.crash_and_recover(true);
        assert_eq!(table.get(1).unwrap(), vec![10]);
        assert_eq!(report.redo_applied, 0, "all redo skipped: {report:?}");
        assert!(report.redo_skipped >= 1);
    }

    #[test]
    fn secondary_indexes_rebuilt_equal_full_scan_after_crash() {
        use esdb_storage::schema::{IndexDef, IndexKind};
        let disk = Arc::new(InMemoryDisk::new());
        let pool = Arc::new(BufferPool::new(64, disk.clone()));
        let defs = vec![
            IndexDef { id: 0, name: "h".into(), col: 0, kind: IndexKind::Hash },
            IndexDef { id: 1, name: "r".into(), col: 0, kind: IndexKind::Range },
        ];
        let table = Arc::new(Table::create_indexed(1, "t", 1, defs.clone(), pool.clone()));
        let wal = Wal::new(LogPolicy::Serial, None);

        // Committed txn: ten inserts, one value-moving update, one delete.
        let b = wal.append(1, NULL_LSN, &LogBody::Begin);
        let mut prev = b.start;
        let mut lsn = b.end;
        for k in 0..10u64 {
            let row = vec![(k % 3) as i64];
            let rid = table.insert_logged(k, &row, |_| lsn).unwrap();
            let rec = wal.append(1, prev, &LogBody::Insert { table: 1, key: k, rid, row });
            prev = rec.start;
            lsn = rec.end;
        }
        let rid4 = table.rid_of(4).unwrap();
        let before = table.update_logged(4, &[7], |_, _| lsn).unwrap();
        let rec = wal.append(1, prev, &LogBody::Update { table: 1, key: 4, rid: rid4, before, after: vec![7] });
        prev = rec.start;
        lsn = rec.end;
        let rid9 = table.rid_of(9).unwrap();
        let before9 = table.delete_logged(9, |_, _| lsn).unwrap();
        let rec = wal.append(1, prev, &LogBody::Delete { table: 1, key: 9, rid: rid9, before: before9 });
        wal.commit(1, rec.start, true);

        // Loser txn: durable insert, no commit — must vanish from indexes.
        let b2 = wal.append(2, NULL_LSN, &LogBody::Begin);
        let rid100 = table.insert_logged(100, &[1], |_| b2.end).unwrap();
        let i100 = wal.append(2, b2.start, &LogBody::Insert { table: 1, key: 100, rid: rid100, row: vec![1] });
        wal.wait_durable(i100.end);

        pool.flush_all().unwrap();
        let pool2 = Arc::new(BufferPool::new(64, disk));
        let heap = HeapFile::from_pages(pool2, table.heap().pages());
        let recovered = Arc::new(Table::from_heap(
            Schema::with_indexes(1, "t", 1, defs),
            heap,
        ));
        let mut tables = HashMap::new();
        tables.insert(1u32, recovered.clone());
        recover(&wal.durable_records(), &tables).unwrap();

        // Full-scan reference model: value → sorted pks of the live heap.
        let mut expect: std::collections::BTreeMap<i64, Vec<u64>> = Default::default();
        recovered
            .scan(|k, row| expect.entry(row[0]).or_default().push(k))
            .unwrap();
        for pks in expect.values_mut() {
            pks.sort_unstable();
        }
        let expect: Vec<(i64, Vec<u64>)> = expect.into_iter().collect();
        for ix in recovered.secondaries() {
            assert_eq!(ix.entries(), expect, "index {}", ix.def().name);
        }
        let hash = recovered.secondary(0).unwrap();
        assert!(!hash.lookup_eq(1).contains(&100), "loser leaked into index");
        assert_eq!(hash.lookup_eq(7), vec![4], "moved update not tracked");
        assert_eq!(
            recovered.secondary(1).unwrap().lookup_range(0, 2).unwrap().len(),
            8,
            "delete not reflected"
        );
    }

    #[test]
    fn analyze_classifies_all_three_kinds() {
        let wal = Wal::new(LogPolicy::Serial, None);
        let b1 = wal.append(1, NULL_LSN, &LogBody::Begin);
        wal.commit(1, b1.start, true);
        let b2 = wal.append(2, NULL_LSN, &LogBody::Begin);
        wal.append(2, b2.start, &LogBody::Abort);
        let _b3 = wal.append(3, NULL_LSN, &LogBody::Begin);
        let report = analyze(&wal.records());
        assert!(report.winners.contains(&1));
        assert!(report.aborted.contains(&2));
        assert!(report.losers.contains(&3));
        assert!(report.in_doubt.is_empty());
    }

    #[test]
    fn analyze_marks_prepared_txns_in_doubt_until_decided() {
        let wal = Wal::new(LogPolicy::Serial, None);
        // txn 1: prepared, never decided → in doubt.
        let b1 = wal.append(1, NULL_LSN, &LogBody::Begin);
        wal.append(1, b1.start, &LogBody::Prepare { gtid: 77 });
        // txn 2: prepared, then committed → plain winner.
        let b2 = wal.append(2, NULL_LSN, &LogBody::Begin);
        let p2 = wal.append(2, b2.start, &LogBody::Prepare { gtid: 78 });
        wal.commit(2, p2.start, true);
        // txn 3: prepared, then aborted (coordinator said no) → aborted.
        let b3 = wal.append(3, NULL_LSN, &LogBody::Begin);
        let p3 = wal.append(3, b3.start, &LogBody::Prepare { gtid: 79 });
        wal.append(3, p3.start, &LogBody::Abort);

        let report = analyze(&wal.records());
        assert_eq!(report.in_doubt.get(&1), Some(&77));
        assert!(report.winners.contains(&2) && !report.in_doubt.contains_key(&2));
        assert!(report.aborted.contains(&3) && !report.in_doubt.contains_key(&3));
        assert!(report.losers.is_empty(), "in-doubt is not a loser: {report:?}");
    }

    #[test]
    fn in_doubt_txn_is_redone_but_not_undone() {
        let h = Harness::new();
        // Committed base row, then a prepared update+insert with no decision.
        let b = h.wal.append(1, NULL_LSN, &LogBody::Begin);
        let rid = h.table.insert_logged(5, &[50], |_| b.end).unwrap();
        let i = h.wal.append(1, b.start, &LogBody::Insert { table: 1, key: 5, rid, row: vec![50] });
        h.wal.commit(1, i.start, true);

        let b2 = h.wal.append(2, NULL_LSN, &LogBody::Begin);
        let before = h.table.update_logged(5, &[51], |_, _| b2.end).unwrap();
        let u = h.wal.append(2, b2.start, &LogBody::Update { table: 1, key: 5, rid, before, after: vec![51] });
        let rid9 = h.table.insert_logged(9, &[90], |_| u.end).unwrap();
        let i9 = h.wal.append(2, u.start, &LogBody::Insert { table: 1, key: 9, rid: rid9, row: vec![90] });
        let p = h.wal.append(2, i9.start, &LogBody::Prepare { gtid: 42 });
        h.wal.wait_durable(p.end);

        let (table, report) = h.crash_and_recover(false);
        assert_eq!(report.in_doubt.get(&2), Some(&42));
        assert!(report.losers.is_empty());
        assert_eq!(report.undo_applied, 0, "{report:?}");
        // Prepared effects survive recovery (awaiting the decision).
        assert_eq!(table.get(5).unwrap(), vec![51]);
        assert_eq!(table.get(9).unwrap(), vec![90]);

        // Coordinator answer: abort → undo_txns rolls the txn back exactly.
        let mut tables = HashMap::new();
        tables.insert(1u32, table.clone());
        let n = undo_txns(&h.wal.durable_records(), &tables, &HashSet::from([2])).unwrap();
        assert_eq!(n, 2);
        assert_eq!(table.get(5).unwrap(), vec![50], "update restored");
        assert!(table.get(9).is_err(), "insert removed");
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn a_losers_freed_slot_reused_by_a_commit_is_an_error_not_a_lost_commit() {
        // Txn 1 inserts key 10 and rolls it back (the compensation frees the
        // slot); txn 2 inserts key 20 into that slot and commits; txn 1's
        // Abort record never becomes durable. Physical undo of txn 1 would
        // re-insert key 10 over key 20, then delete the slot — losing a
        // committed row. Until compensations are CLRs that undo skips,
        // recovery refuses instead.
        let h = Harness::new();
        let b = h.wal.append(1, NULL_LSN, &LogBody::Begin);
        let rid = h.table.insert_logged(10, &[1], |_| b.end).unwrap();
        let i = h.wal.append(1, b.start, &LogBody::Insert { table: 1, key: 10, rid, row: vec![1] });
        h.table.delete_logged(10, |_, _| i.end).unwrap();
        h.wal.append(1, i.start, &LogBody::Delete { table: 1, key: 10, rid, before: vec![1] });
        let b2 = h.wal.append(2, NULL_LSN, &LogBody::Begin);
        let reused = h.table.insert_logged(20, &[2], |_| b2.end).unwrap();
        assert_eq!(reused, rid, "the freed slot is the next insert's");
        let i2 = h.wal.append(2, b2.start, &LogBody::Insert { table: 1, key: 20, rid, row: vec![2] });
        h.wal.commit(2, i2.start, true);

        let pool = Arc::new(BufferPool::new(64, h.disk.clone()));
        let heap = HeapFile::from_pages(pool, h.table.heap().pages());
        let table = Arc::new(Table::from_heap(Schema::new(1, "t", 1), heap));
        let tables = HashMap::from([(1u32, table)]);
        assert_eq!(recover(&h.wal.durable_records(), &tables), Err(StorageError::RecordNotFound(rid)));
    }

    /// A page store whose reads of one page fail with a transient error
    /// until `failures` runs out.
    struct FlakyPage {
        inner: Arc<InMemoryDisk>,
        page: esdb_storage::PageId,
        failures: std::sync::atomic::AtomicU32,
    }

    impl esdb_storage::disk::PageStore for FlakyPage {
        fn allocate(&self) -> esdb_storage::PageId {
            self.inner.allocate()
        }
        fn read(&self, id: esdb_storage::PageId, out: &mut esdb_storage::page::Page) -> esdb_storage::Result<()> {
            use std::sync::atomic::Ordering::SeqCst;
            if id == self.page && self.failures.fetch_update(SeqCst, SeqCst, |n| n.checked_sub(1)).is_ok() {
                return Err(StorageError::TransientIo { op: esdb_storage::IoOp::Read });
            }
            self.inner.read(id, out)
        }
        fn write(&self, id: esdb_storage::PageId, page: &esdb_storage::page::Page) -> esdb_storage::Result<()> {
            self.inner.write(id, page)
        }
        fn num_pages(&self) -> u64 {
            self.inner.num_pages()
        }
    }

    #[test]
    fn a_redo_whose_page_pin_fails_is_an_error_not_a_skip() {
        let h = Harness::new();
        let b = h.wal.append(1, NULL_LSN, &LogBody::Begin);
        let rid = h.table.insert_logged(5, &[10], |_| b.end).unwrap();
        let i = h.wal.append(1, b.start, &LogBody::Insert { table: 1, key: 5, rid, row: vec![10] });
        h.wal.commit(1, i.start, true);
        h.pool.flush_all().unwrap();
        let c = h.wal.append(0, NULL_LSN, &LogBody::Checkpoint { redo_lsn: h.wal.current_lsn() });
        h.wal.wait_durable(c.end);
        // A committed update whose page never reached the store.
        let b2 = h.wal.append(2, NULL_LSN, &LogBody::Begin);
        let before = h.table.update_logged(5, &[11], |_, _| b2.end).unwrap();
        let u = h.wal.append(2, b2.start, &LogBody::Update { table: 1, key: 5, rid, before, after: vec![11] });
        h.wal.commit(2, u.start, true);

        // The store fails every read of the page the redo pins, retries
        // included; the index rebuild after it would read the page fine.
        let flaky = Arc::new(FlakyPage {
            inner: h.disk.clone(),
            page: rid.page,
            failures: esdb_storage::buffer::IO_ATTEMPTS.into(),
        });
        let pool = Arc::new(BufferPool::new(64, flaky));
        let heap = HeapFile::from_pages(pool, h.table.heap().pages());
        let table = Arc::new(Table::from_heap(Schema::new(1, "t", 1), heap));
        let tables = HashMap::from([(1u32, table.clone())]);
        assert_eq!(
            recover(&h.wal.durable_records(), &tables),
            Err(StorageError::TransientIo { op: esdb_storage::IoOp::Read }),
            "a committed update must not be lost to a skipped redo"
        );
        // Once the device answers, the same image recovers the update.
        assert_eq!(recover(&h.wal.durable_records(), &tables).unwrap().redo_applied, 1);
        assert_eq!(table.get(5).unwrap(), vec![11]);
    }
}

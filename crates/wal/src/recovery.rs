//! ARIES-style crash recovery: analysis, redo (repeating history), undo.
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
//! 2. **Redo** — replay *every* update in LSN order, using page LSNs to skip
//!    changes already on disk (repeating history, including losers).
//! 3. **Undo** — roll back loser transactions in reverse LSN order using the
//!    before-images in their records. In-doubt transactions are *not*
//!    undone: their locks are conceptually still held and their fate is
//!    decided post-recovery by [`undo_txn`] (coordinator said abort) or by
//!    keeping the redone state (coordinator said commit).
//! 4. **Index rebuild** — primary indexes are reconstructed from heap scans.
//!
//! Simplification vs full ARIES: no compensation log records are written
//! during recovery, so recovery itself is not restartable mid-undo. For an
//! in-memory evaluation harness this is immaterial and documented in
//! DESIGN.md.

use crate::record::{LogBody, LogRecord};
use crate::Lsn;
use esdb_storage::schema::{encode_row, TableId};
use esdb_storage::{StorageError, Table};
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

/// Applies one record's redo action against `tables`, maintaining the
/// primary and secondary indexes alongside the heap, and returns whether the
/// page actually changed (`false`: skipped by the page-LSN check, unknown
/// table, or a non-redo record). Page-LSN skips still perform the
/// (idempotent) index maintenance, so a caller replaying an already-applied
/// stream converges to the same indexes it had.
///
/// Secondary maintenance is *derived* from the row images the redo records
/// already carry (full before/after rows) — no separate index-maintenance
/// record type exists, so a replica or recovery replaying the data stream
/// reconstructs exactly the indexes the primary maintained, and set
/// semantics make the re-derivation idempotent under replay.
///
/// This is the replica apply loop's kernel: the same repeating-history redo
/// that crash recovery runs, applied incrementally and in LSN order.
pub fn apply_redo(r: &LogRecord, tables: &HashMap<TableId, Arc<Table>>) -> bool {
    match &r.body {
        LogBody::Insert { table, rid, row, key } => {
            let Some(t) = tables.get(table) else { return false };
            let applied = t
                .heap()
                .insert_at(*rid, &encode_row(*key, row), r.lsn)
                .unwrap_or(false);
            t.index().insert(*key, rid.to_u64());
            for ix in t.secondaries() {
                ix.insert_row(*key, row);
            }
            applied
        }
        LogBody::Update { table, rid, before, after, key } => {
            let Some(t) = tables.get(table) else { return false };
            let applied = t
                .heap()
                .update_if_newer(*rid, &encode_row(*key, after), r.lsn)
                .unwrap_or(false);
            t.index().insert(*key, rid.to_u64());
            for ix in t.secondaries() {
                ix.update_row(*key, before, after);
            }
            applied
        }
        LogBody::Delete { table, rid, key, before } => {
            let Some(t) = tables.get(table) else { return false };
            let applied = t.heap().delete_if_newer(*rid, r.lsn).unwrap_or(false);
            t.index().remove(*key);
            for ix in t.secondaries() {
                ix.remove_row(*key, before);
            }
            applied
        }
        _ => false,
    }
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
    let mut max_lsn: Lsn = 0;

    // --- Redo: repeat history in LSN order. -----------------------------
    for r in records {
        max_lsn = max_lsn.max(r.lsn);
        let applied = match &r.body {
            LogBody::Insert { table, rid, row, key } => {
                let Some(t) = tables.get(table) else { continue };
                t.heap()
                    .insert_at(*rid, &encode_row(*key, row), r.lsn)
                    .unwrap_or(false)
            }
            LogBody::Update {
                table,
                rid,
                after,
                key,
                ..
            } => {
                let Some(t) = tables.get(table) else { continue };
                t.heap()
                    .update_if_newer(*rid, &encode_row(*key, after), r.lsn)
                    .unwrap_or(false)
            }
            LogBody::Delete { table, rid, .. } => {
                let Some(t) = tables.get(table) else { continue };
                t.heap().delete_if_newer(*rid, r.lsn).unwrap_or(false)
            }
            _ => continue,
        };
        if applied {
            report.redo_applied += 1;
        } else {
            report.redo_skipped += 1;
        }
    }

    // --- Undo: roll back losers in reverse LSN order. -------------------
    // Undo actions get fresh LSNs past the end of the log so page-LSN
    // ordering stays monotone.
    let mut undo_lsn = max_lsn + 1_000_000;
    for r in records.iter().rev() {
        if !report.losers.contains(&r.txn_id) {
            continue;
        }
        undo_lsn += 1;
        match &r.body {
            LogBody::Insert { table, rid, .. } => {
                // Undo insert: delete the tuple.
                let Some(t) = tables.get(table) else { continue };
                let _ = t.heap().delete(*rid, |_| undo_lsn);
                report.undo_applied += 1;
            }
            LogBody::Update {
                table,
                rid,
                before,
                key,
                ..
            } => {
                let Some(t) = tables.get(table) else { continue };
                let _ = t.heap().update(*rid, &encode_row(*key, before), |_| undo_lsn);
                report.undo_applied += 1;
            }
            LogBody::Delete {
                table,
                rid,
                before,
                key,
            } => {
                let Some(t) = tables.get(table) else { continue };
                let _ = t.heap().insert_at(*rid, &encode_row(*key, before), undo_lsn);
                report.undo_applied += 1;
            }
            _ => {}
        }
    }

    // --- Index rebuild. --------------------------------------------------
    // Primary and secondary alike: both are derived, in-memory state, so
    // both are reconstructed from the settled post-undo heap rather than
    // maintained record-by-record above.
    for t in tables.values() {
        t.rebuild_index()?;
        t.rebuild_secondaries()?;
    }
    Ok(report)
}

/// Rolls back one transaction's logged effects in reverse order using its
/// before-images, stamping fresh LSNs from `undo_lsn` upward and keeping
/// the primary index in step with every heap change. Returns the number of
/// undo actions applied.
///
/// This is the post-recovery resolution path for an in-doubt (prepared)
/// transaction whose coordinator decided — or is presumed to have decided —
/// abort. `undo_lsn` must exceed every LSN recovery itself stamped, so
/// page-LSN ordering stays monotone; callers pass the recovered WAL's
/// current LSN, which restarts far past the pre-crash stream.
pub fn undo_txn(
    records: &[LogRecord],
    tables: &HashMap<TableId, Arc<Table>>,
    txn_id: u64,
    mut undo_lsn: Lsn,
) -> Result<usize, StorageError> {
    let mut applied = 0usize;
    for r in records.iter().rev() {
        if r.txn_id != txn_id {
            continue;
        }
        undo_lsn += 1;
        match &r.body {
            LogBody::Insert { table, rid, key, row } => {
                let Some(t) = tables.get(table) else { continue };
                let _ = t.heap().delete(*rid, |_| undo_lsn);
                t.index().remove(*key);
                for ix in t.secondaries() {
                    ix.remove_row(*key, row);
                }
                applied += 1;
            }
            LogBody::Update { table, rid, before, after, key } => {
                let Some(t) = tables.get(table) else { continue };
                let _ = t.heap().update(*rid, &encode_row(*key, before), |_| undo_lsn);
                t.index().insert(*key, rid.to_u64());
                for ix in t.secondaries() {
                    ix.update_row(*key, after, before);
                }
                applied += 1;
            }
            LogBody::Delete { table, rid, before, key } => {
                let Some(t) = tables.get(table) else { continue };
                let _ = t.heap().insert_at(*rid, &encode_row(*key, before), undo_lsn);
                t.index().insert(*key, rid.to_u64());
                for ix in t.secondaries() {
                    ix.insert_row(*key, before);
                }
                applied += 1;
            }
            _ => {}
        }
    }
    Ok(applied)
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
        h.wal.commit(1, i2.start);

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
        h.wal.commit(1, i.start);

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
        h.wal.commit(1, i.start);

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
        wal.commit(1, rec.start);

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
        wal.commit(1, b1.start);
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
        wal.commit(2, p2.start);
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
        h.wal.commit(1, i.start);

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

        // Coordinator answer: abort → undo_txn rolls the txn back exactly.
        let mut tables = HashMap::new();
        tables.insert(1u32, table.clone());
        let n = undo_txn(&h.wal.durable_records(), &tables, 2, 10_000_000).unwrap();
        assert_eq!(n, 2);
        assert_eq!(table.get(5).unwrap(), vec![50], "update restored");
        assert!(table.get(9).is_err(), "insert removed");
        assert_eq!(table.len(), 1);
    }
}

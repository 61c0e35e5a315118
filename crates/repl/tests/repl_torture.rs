//! Fault-injection torture for replication: torn shipped frames, a replica
//! whose cursor device crashes mid-apply, and a lying primary whose shipped
//! bytes arrive damaged. The invariants under fire:
//!
//! * convergence — after shipping everything durable, replica contents equal
//!   primary contents, with aborted transactions never applied;
//! * cursor idempotence — crash/restart re-applies the same stream and
//!   converges to identical contents (page-LSN idempotent redo);
//! * typed failure — detectable corruption halts the apply loop with
//!   [`ReplError::Corrupt`], never a panic, never silent garbage.

use esdb_core::config::EngineConfig;
use esdb_core::Database;
use esdb_net::Snapshot;
use esdb_repl::{ship_available, ReplError, Replica};
use esdb_storage::{IndexDef, IndexKind};
use esdb_wal::LogFault;
use std::sync::Arc;

fn primary_with_rows(n: u64) -> (Arc<Database>, u32) {
    let db = Arc::new(Database::open(EngineConfig::conventional_baseline()));
    let t = db.create_table("accounts", 2).unwrap();
    db.execute(|txn| {
        for k in 0..n {
            txn.insert(t, k, &[k as i64 * 10, 0])?;
        }
        Ok(())
    })
    .unwrap();
    (db, t)
}

/// A churn mix: updates, inserts, deletes, and every seventh round a
/// transaction that writes and then fails, leaving an Abort record (and its
/// rolled-back writes) in the shipped stream.
fn mutate(db: &Database, t: u32, rounds: u64) {
    for i in 0..rounds {
        if i % 7 == 3 {
            let doomed = db.execute(|txn| {
                txn.update(t, i % 20, &[-999, -999])?;
                txn.read(t, 999_999_999) // missing key: abort the txn
            });
            assert!(doomed.is_err(), "doomed transaction must roll back");
            continue;
        }
        db.execute(|txn| {
            let k = i % 20;
            let row = txn.read(t, k)?;
            txn.update(t, k, &[row[0] + 1, row[1] + i as i64])?;
            txn.insert(t, 10_000 + i, &[i as i64, 1])?;
            // Delete a row inserted two rounds ago, unless that round was a
            // doomed one (which never inserted).
            if i % 5 == 4 && (i - 2) % 7 != 3 {
                txn.delete(t, 10_000 + i - 2)?;
            }
            Ok(())
        })
        .unwrap();
    }
    let wal = db.wal();
    wal.wait_durable(wal.current_lsn());
}

fn contents(db: &Database, t: u32) -> Vec<(u64, Vec<i64>)> {
    let table = db.table(t).unwrap();
    let mut rows = Vec::new();
    table.scan(|k, row| rows.push((k, row.to_vec()))).unwrap();
    rows.sort();
    rows
}

#[test]
fn shipped_stream_converges_and_skips_aborts() {
    let (db, t) = primary_with_rows(100);
    let snap = Snapshot::take(&db).unwrap();
    let mut replica = Replica::bootstrap(snap, EngineConfig::conventional_baseline()).unwrap();
    mutate(&db, t, 60);
    ship_available(db.wal(), &mut replica).unwrap();
    let primary_rows = contents(&db, t);
    assert_eq!(primary_rows, contents(replica.db(), t));
    // The -999 poison from doomed transactions must never surface.
    assert!(primary_rows.iter().all(|(_, row)| row[0] != -999));
    // Quiescent: the apply frontier covers everything the primary calls
    // durable, so any read-your-writes token issued so far is satisfied.
    assert!(replica.applied_lsn() >= db.wal().durable_lsn());
}

#[test]
fn chunk_torn_mid_record_stalls_then_resumes() {
    let (db, t) = primary_with_rows(40);
    let snap = Snapshot::take(&db).unwrap();
    let mut replica = Replica::bootstrap(snap, EngineConfig::conventional_baseline()).unwrap();
    mutate(&db, t, 30);
    let wal = db.wal();
    let from = replica.subscribe_from();
    let (bytes, start) = wal.durable_tail(from, usize::MAX).unwrap();
    let avail = ((wal.durable_lsn() - start) as usize).min(bytes.len());
    assert!(avail > 100);
    // Deliver a cut that lands mid-record: decoding must stop at the torn
    // tail without error and resume seamlessly when the rest arrives.
    let cut = avail / 2 + 13;
    replica.ingest(start, &bytes[..cut]).unwrap();
    assert!(replica.applied_lsn() < wal.durable_lsn());
    replica.ingest(start + cut as u64, &bytes[cut..avail]).unwrap();
    assert_eq!(contents(&db, t), contents(replica.db(), t));
    assert!(replica.applied_lsn() >= wal.durable_lsn());
}

#[test]
fn replica_cursor_crash_mid_apply_resumes_idempotently() {
    let (db, t) = primary_with_rows(60);
    let snap = Snapshot::take(&db).unwrap();
    let mut replica = Replica::bootstrap(snap, EngineConfig::conventional_baseline()).unwrap();
    mutate(&db, t, 50);
    let wal = db.wal();
    // The cursor device tears on its third append and silently drops every
    // later one — the replica's own log device crashing mid-apply.
    replica
        .cursor_store()
        .set_fault(LogFault { seed: 7, crash_on_append: 2, flip_bit: false });
    let from = replica.subscribe_from();
    let (bytes, start) = wal.durable_tail(from, usize::MAX).unwrap();
    let avail = ((wal.durable_lsn() - start) as usize).min(bytes.len());
    let mut crash = None;
    let mut off = 0usize;
    for chunk in bytes[..avail].chunks(257) {
        match replica.ingest(start + off as u64, chunk) {
            Ok(()) => off += chunk.len(),
            Err(e) => {
                crash = Some(e);
                break;
            }
        }
    }
    // The dead device stops persisting, so the cursor stops advancing and
    // the next chunk surfaces as a typed gap — the crash signal.
    assert!(matches!(crash, Some(ReplError::Gap { .. })), "crash = {crash:?}");
    // "Replace the device" (disarm the fault) and restart the replica: the
    // salvaged cursor keeps the valid prefix, the torn tail is dropped.
    replica
        .cursor_store()
        .set_fault(LogFault { seed: 1, crash_on_append: u64::MAX, flip_bit: false });
    let mut replica = replica.reopen().unwrap();
    assert!(replica.subscribe_from() <= wal.durable_lsn());
    // Resume shipping from the durable cursor; convergence must hold.
    ship_available(wal, &mut replica).unwrap();
    assert_eq!(contents(&db, t), contents(replica.db(), t));
    let applied_once = replica.applied_lsn();
    // Idempotence: another crash/restart re-applies the *entire* stream from
    // the snapshot against freshly installed pages — identical contents and
    // identical frontier both times.
    let replica = replica.reopen().unwrap();
    assert_eq!(contents(&db, t), contents(replica.db(), t));
    assert_eq!(applied_once, replica.applied_lsn());
}

#[test]
fn lying_primary_ships_damage_typed_halt() {
    let (db, t) = primary_with_rows(40);
    let snap = Snapshot::take(&db).unwrap();
    let mut replica = Replica::bootstrap(snap, EngineConfig::conventional_baseline()).unwrap();
    mutate(&db, t, 30);
    let wal = db.wal();
    // The primary's device flipped a bit inside a record it claims durable;
    // the shipped bytes carry the damage.
    let from = replica.subscribe_from();
    wal.flip_durable_bit(from + 40, 3);
    let err = ship_available(wal, &mut replica).unwrap_err();
    assert!(matches!(err, ReplError::Corrupt(_)), "err = {err}");
    // The damage reached the durable cursor before decoding caught it, so a
    // restart must refuse to resurrect the replica over a corrupt stream.
    let err = replica.reopen().unwrap_err();
    assert!(matches!(err, ReplError::Corrupt(_)), "err = {err}");
}

#[test]
fn a_slot_reused_around_an_abort_is_a_typed_halt_not_a_wrong_row() {
    // An aborted delete's slot is taken by a committed insert before the
    // rollback re-inserts the row elsewhere. The follower skips the aborted
    // transaction, so its copy of that slot still holds the deleted row when
    // the insert arrives: a storage error, not a key answering with another
    // key's row, and the watermark stays short of it.
    let (db, t) = primary_with_rows(3);
    let snap = Snapshot::take(&db).unwrap();
    let mut replica = Replica::bootstrap(snap, EngineConfig::conventional_baseline()).unwrap();
    let mgr = db.txn_manager().clone();
    let mut deleter = mgr.begin();
    let freed = db.table(t).unwrap().rid_of(1).unwrap();
    deleter.delete(t, 1).unwrap();
    let mut inserter = mgr.begin();
    inserter.insert(t, 100, &[100, 0]).unwrap();
    assert_eq!(db.table(t).unwrap().rid_of(100), Ok(freed));
    inserter.commit();
    deleter.abort();
    db.wal().wait_durable(db.wal().current_lsn());
    let err = ship_available(db.wal(), &mut replica).unwrap_err();
    assert!(matches!(err, ReplError::Storage(esdb_storage::StorageError::RecordNotFound(r)) if r == freed), "{err}");
    assert!(replica.applied_lsn() < db.wal().durable_lsn());
}

#[test]
fn cursor_bit_flip_detected_on_restart() {
    let (db, t) = primary_with_rows(40);
    let snap = Snapshot::take(&db).unwrap();
    let mut replica = Replica::bootstrap(snap, EngineConfig::conventional_baseline()).unwrap();
    mutate(&db, t, 20);
    ship_available(db.wal(), &mut replica).unwrap();
    assert_eq!(contents(&db, t), contents(replica.db(), t));
    // Rot a byte inside the already-applied cursor: the *running* replica is
    // fine (it never re-reads), but a restart re-decodes everything and must
    // surface the damage as a typed error.
    let mid = replica.cursor_store().base() + 33;
    replica.cursor_store().flip_bit(mid, 5);
    let err = replica.reopen().unwrap_err();
    assert!(matches!(err, ReplError::Corrupt(_)), "err = {err}");
}

// ---------------------------------------------------------------------------
// Secondary-index torture: the index must either equal the heap exactly or
// halt with a typed error — a follower crash at *any* point during index
// build or incremental maintenance must never leave an index that answers
// wrong.

fn indexed_primary(n: u64) -> (Arc<Database>, u32) {
    let db = Arc::new(Database::open(EngineConfig::conventional_baseline()));
    let t = db
        .create_table_with_indexes(
            "accounts",
            2,
            vec![
                IndexDef { id: 0, name: "by_bal".into(), col: 0, kind: IndexKind::Hash },
                IndexDef { id: 1, name: "by_flag".into(), col: 1, kind: IndexKind::Range },
            ],
        )
        .unwrap();
    db.execute(|txn| {
        for k in 0..n {
            txn.insert(t, k, &[(k % 16) as i64, (k % 5) as i64])?;
        }
        Ok(())
    })
    .unwrap();
    (db, t)
}

fn index_dump(db: &Database, t: u32) -> Vec<Vec<(i64, Vec<u64>)>> {
    let table = db.table(t).unwrap();
    table.secondaries().iter().map(|ix| ix.entries()).collect()
}

/// Crash the follower's cursor device mid-stream — i.e. mid-incremental
/// index maintenance — then restart TWICE. Both restarts rebuild the indexes
/// from scratch (snapshot heap + full re-apply), and both must converge to
/// contents byte-identical to an uninterrupted follower's.
#[test]
fn follower_crash_mid_index_maintenance_double_restart_converges() {
    let (db, t) = indexed_primary(80);
    let snap = Snapshot::take(&db).unwrap();
    // The uninterrupted control follower.
    let mut control =
        Replica::bootstrap(snap.clone(), EngineConfig::conventional_baseline()).unwrap();
    let mut replica = Replica::bootstrap(snap, EngineConfig::conventional_baseline()).unwrap();
    mutate(&db, t, 60);
    ship_available(db.wal(), &mut control).unwrap();
    let wal = db.wal();
    // The victim's cursor device dies partway through the shipped stream:
    // some maintained index entries are already applied, the rest never land.
    replica
        .cursor_store()
        .set_fault(LogFault { seed: 11, crash_on_append: 3, flip_bit: false });
    let from = replica.subscribe_from();
    let (bytes, start) = wal.durable_tail(from, usize::MAX).unwrap();
    let avail = ((wal.durable_lsn() - start) as usize).min(bytes.len());
    let mut off = 0usize;
    for chunk in bytes[..avail].chunks(193) {
        match replica.ingest(start + off as u64, chunk) {
            Ok(()) => off += chunk.len(),
            Err(_) => break, // the crash
        }
    }
    // First restart: salvage the cursor, reinstall the snapshot, rebuild the
    // indexes from the installed heap, re-apply — then catch up.
    replica
        .cursor_store()
        .set_fault(LogFault { seed: 1, crash_on_append: u64::MAX, flip_bit: false });
    let mut replica = replica.reopen().unwrap();
    ship_available(wal, &mut replica).unwrap();
    assert_eq!(contents(&db, t), contents(replica.db(), t));
    assert_eq!(index_dump(&db, t), index_dump(replica.db(), t));
    assert_eq!(index_dump(control.db(), t), index_dump(replica.db(), t));
    // Second restart with nothing new to ship: the full re-derivation must
    // be deterministic — byte-identical index contents both times.
    let replica = replica.reopen().unwrap();
    assert_eq!(contents(&db, t), contents(replica.db(), t));
    assert_eq!(index_dump(control.db(), t), index_dump(replica.db(), t));
}

/// Crash the follower *during the initial index build*: the snapshot heap is
/// installed but the cursor holds only a prefix of the stream when the
/// process dies (simulated by reopening from a replica that never finished
/// applying). Double restart, then catch up — identical answers to an
/// uninterrupted follower.
#[test]
fn follower_crash_mid_index_build_converges() {
    let (db, t) = indexed_primary(120);
    mutate(&db, t, 40);
    // Snapshot taken mid-history: bootstrap rebuilds indexes over a heap
    // that already carries index entries, then the stream extends them.
    let snap = Snapshot::take(&db).unwrap();
    // Post-snapshot churn under fresh keys (mutate's insert keys were used).
    for i in 0..40u64 {
        db.execute(|txn| {
            let k = i % 20;
            let row = txn.read(t, k)?;
            txn.update(t, k, &[row[0] + 3, row[1] - 1])?;
            txn.insert(t, 20_000 + i, &[i as i64 % 9, i as i64 % 4])?;
            if i % 4 == 3 {
                txn.delete(t, 20_000 + i - 2)?;
            }
            Ok(())
        })
        .unwrap();
    }
    let wal0 = db.wal();
    wal0.wait_durable(wal0.current_lsn());
    let mut control =
        Replica::bootstrap(snap.clone(), EngineConfig::conventional_baseline()).unwrap();
    ship_available(db.wal(), &mut control).unwrap();
    let mut replica = Replica::bootstrap(snap, EngineConfig::conventional_baseline()).unwrap();
    // Land a prefix of the stream, then "crash" before the rest arrives:
    // reopen() discards all volatile state and rebuilds indexes from zero.
    let wal = db.wal();
    let from = replica.subscribe_from();
    let (bytes, start) = wal.durable_tail(from, usize::MAX).unwrap();
    let avail = ((wal.durable_lsn() - start) as usize).min(bytes.len());
    replica.ingest(start, &bytes[..avail / 3]).unwrap();
    let replica = replica.reopen().unwrap();
    let replica2 = replica.reopen().unwrap(); // double restart, mid-build state
    let mut replica = replica2;
    ship_available(wal, &mut replica).unwrap();
    assert_eq!(contents(&db, t), contents(replica.db(), t));
    assert_eq!(index_dump(control.db(), t), index_dump(replica.db(), t));
    // And the indexes agree with the follower's own heap, not just the
    // primary's: derive the reference from a full scan.
    let table = replica.db().table(t).unwrap();
    let mut rows: Vec<(u64, Vec<i64>)> = Vec::new();
    table.scan(|k, row| rows.push((k, row.to_vec()))).unwrap();
    rows.sort();
    for (ix_pos, col) in [(0usize, 0usize), (1, 1)] {
        let mut by_val: std::collections::BTreeMap<i64, Vec<u64>> = Default::default();
        for (k, row) in &rows {
            by_val.entry(row[col]).or_default().push(*k);
        }
        let expected: Vec<(i64, Vec<u64>)> = by_val.into_iter().collect();
        assert_eq!(table.secondaries()[ix_pos].entries(), expected);
    }
}

/// Detectable corruption in the shipped stream halts index maintenance with
/// a typed error — the index is never left silently wrong, and restarts keep
/// refusing rather than serving a half-maintained index.
#[test]
fn corrupt_stream_halts_index_maintenance_typed() {
    let (db, t) = indexed_primary(50);
    let snap = Snapshot::take(&db).unwrap();
    let mut replica = Replica::bootstrap(snap, EngineConfig::conventional_baseline()).unwrap();
    mutate(&db, t, 30);
    let wal = db.wal();
    let from = replica.subscribe_from();
    wal.flip_durable_bit(from + 64, 2);
    let err = ship_available(wal, &mut replica).unwrap_err();
    assert!(matches!(err, ReplError::Corrupt(_)), "err = {err}");
    let err = replica.reopen().unwrap_err();
    assert!(matches!(err, ReplError::Corrupt(_)), "err = {err}");
}

#[test]
fn overlapping_reship_is_deduplicated() {
    let (db, t) = primary_with_rows(30);
    let snap = Snapshot::take(&db).unwrap();
    let mut replica = Replica::bootstrap(snap, EngineConfig::conventional_baseline()).unwrap();
    mutate(&db, t, 20);
    let wal = db.wal();
    let from = replica.subscribe_from();
    let (bytes, start) = wal.durable_tail(from, usize::MAX).unwrap();
    let avail = ((wal.durable_lsn() - start) as usize).min(bytes.len());
    replica.ingest(start, &bytes[..avail]).unwrap();
    // A reconnecting primary replays its tail from an older offset: the
    // overlap must be skipped, not double-appended.
    replica.ingest(start, &bytes[..avail]).unwrap();
    let cut = avail / 3;
    replica.ingest(start + cut as u64, &bytes[cut..avail]).unwrap();
    assert_eq!(contents(&db, t), contents(replica.db(), t));
    assert_eq!(replica.subscribe_from(), start + avail as u64);
}

/// A follower's heaps grow by adopting the pages the shipped row records
/// name: no log record describes heap growth. Two indexed tables grow
/// interleaved (their new page ids alternate) by at least three pages each
/// past the snapshot, and one new page is opened by a transaction that
/// aborts — the follower skips its records — before a commit reuses it.
#[test]
fn follower_heaps_grow_by_adopting_the_pages_row_records_name() {
    let db = Arc::new(Database::open(EngineConfig::conventional_baseline()));
    let defs = || {
        vec![
            IndexDef { id: 0, name: "by_a".into(), col: 0, kind: IndexKind::Hash },
            IndexDef { id: 1, name: "by_b".into(), col: 1, kind: IndexKind::Range },
        ]
    };
    let (a, b) = (
        db.create_table_with_indexes("a", 2, defs()).unwrap(),
        db.create_table_with_indexes("b", 2, defs()).unwrap(),
    );
    let (ta, tb) = (db.table(a).unwrap(), db.table(b).unwrap());
    db.execute(|txn| (0..50).try_for_each(|k| txn.insert(a, k, &[k as i64 % 7, 0]))).unwrap();
    let snap = Snapshot::take(&db).unwrap();
    let mut replica = Replica::bootstrap(snap, EngineConfig::conventional_baseline()).unwrap();
    let (a0, b0) = (ta.heap().pages().len(), tb.heap().pages().len());

    // Open a fresh page of `a` inside a transaction that then aborts.
    let mut key = 1_000_000u64;
    let doomed = db.execute(|txn| {
        while ta.heap().pages().len() == a0 {
            txn.insert(a, key, &[-1, -1])?;
            key += 1;
        }
        txn.read(a, u64::MAX)
    });
    assert!(doomed.is_err());
    let reused = *ta.heap().pages().last().unwrap();
    let mut key = 100u64;
    while ta.heap().pages().len() < a0 + 3 || tb.heap().pages().len() < b0 + 3 {
        db.execute(|txn| {
            for k in key..key + 16 {
                txn.insert(a, k, &[k as i64 % 7, k as i64 % 5])?;
                txn.insert(b, k, &[k as i64 % 3, k as i64 % 11])?;
            }
            Ok(())
        })
        .unwrap();
        key += 16;
    }
    assert_eq!(ta.rid_of(100).unwrap().page, reused, "the first commit after the abort reuses its page");
    db.wal().wait_durable(db.wal().current_lsn());
    ship_available(db.wal(), &mut replica).unwrap();

    let equal = |follower: &Database| {
        assert_eq!(follower.catalog(), db.catalog(), "schemas and page lists, in order");
        for t in [a, b] {
            assert_eq!(contents(&db, t), contents(follower, t));
            let (ours, theirs) = (follower.table(t).unwrap(), db.table(t).unwrap());
            assert_eq!(ours.index().range(0, u64::MAX), theirs.index().range(0, u64::MAX));
            assert_eq!(index_dump(&db, t), index_dump(follower, t));
        }
    };
    equal(replica.db());
    let replica = replica.reopen().unwrap();
    equal(replica.db());

    // The promoted follower's next page is one no heap already holds.
    let promoted = replica.promote(1).unwrap().db;
    let held: Vec<u64> = promoted.catalog().into_iter().flat_map(|t| t.pages).collect();
    let grown = promoted.table(b).unwrap();
    let before = grown.heap().pages().len();
    promoted
        .execute(|txn| {
            while grown.heap().pages().len() == before {
                txn.insert(b, key, &[0, 0])?;
                key += 1;
            }
            Ok(())
        })
        .unwrap();
    let fresh = *grown.heap().pages().last().unwrap();
    assert!(!held.contains(&fresh), "page {fresh} is already held: {held:?}");
}

//! Integration: fuzzy checkpoints bound crash-recovery replay, and
//! truncating the log prefix a checkpoint makes dead does not change what
//! recovery rebuilds — whether a caller truncates or the engine's checkpoint
//! schedule does.

use esdb::core::{Database, DbError, EngineConfig};
use esdb::wal::buffer::{RECYCLE_SEGMENTS, SEGMENT_BYTES};
use esdb::wal::LogBody;
use esdb::workload::tpcb::{ACCOUNTS, BRANCHES, HISTORY, TELLERS};
use esdb::workload::{Tpcb, TxnSpec, Workload, WorkloadOp};
use std::sync::Arc;

fn contents(db: &Database, t: u32) -> Vec<(u64, Vec<i64>)> {
    let table = db.table(t).unwrap();
    let mut rows = Vec::new();
    table.scan(|k, row| rows.push((k, row.to_vec()))).unwrap();
    rows.sort();
    rows
}

fn churn(db: &Database, t: u32, base: u64, rounds: u64) {
    for i in 0..rounds {
        db.execute(|txn| {
            let k = base + i;
            txn.insert(t, k, &[k as i64, 0])?;
            let row = txn.read(t, base)?;
            txn.update(t, base, &[row[0], row[1] + 1])?;
            Ok(())
        })
        .unwrap();
    }
    db.wal().wait_durable(db.wal().current_lsn());
}

#[test]
fn checkpoint_bounds_replay() {
    // Two identical histories; one takes a checkpoint between the bursts.
    let run = |with_checkpoint: bool| {
        let db = Database::open(EngineConfig::conventional_baseline());
        let t = db.create_table("t", 2).unwrap();
        churn(&db, t, 0, 80);
        if with_checkpoint {
            let redo_lsn = db.checkpoint().unwrap();
            assert!(redo_lsn <= db.wal().durable_lsn());
        }
        churn(&db, t, 1_000, 10);
        let before = contents(&db, t);
        // No flush at the crash: everything not persisted by the checkpoint
        // must come back through redo.
        let (recovered, report) = db.simulate_crash_with_report(false);
        assert_eq!(before, contents(&recovered, t), "with_checkpoint={with_checkpoint}");
        report
    };
    let without = run(false);
    let with = run(true);
    // The checkpoint flushed the first burst's pages and recovery starts at
    // its redo mark, so the replayed record count drops sharply.
    let touched = |r: &esdb::wal::recovery::RecoveryReport| r.redo_applied + r.redo_skipped;
    assert!(
        touched(&with) < touched(&without) / 2,
        "checkpoint did not bound replay: with={with:?} without={without:?}"
    );
}

#[test]
fn truncated_prefix_recovers_identically() {
    let db = Database::open(EngineConfig::conventional_baseline());
    let t = db.create_table("t", 2).unwrap();
    churn(&db, t, 0, 60);
    let redo_lsn = db.checkpoint().unwrap();
    churn(&db, t, 2_000, 15);
    let before = contents(&db, t);

    // Reclaim the log prefix the checkpoint made dead, then crash. Recovery
    // must decode from the new base and rebuild the same state.
    db.wal().truncate_before(redo_lsn);
    let recovered = db.simulate_crash(false);
    assert_eq!(before, contents(&recovered, t));

    // The recovered instance keeps working and survives another crash.
    churn(&recovered, t, 3_000, 5);
    let again = recovered.simulate_crash(true);
    assert_eq!(contents(&recovered, t), contents(&again, t));
}

#[test]
fn checkpoint_with_in_flight_transactions_is_safe() {
    // A fuzzy checkpoint taken while a transaction is mid-flight must set
    // its redo mark below that transaction's first record, so a crash that
    // loses the in-flight state still replays (and rolls back) correctly.
    let db = Arc::new(Database::open(EngineConfig::conventional_baseline()));
    let t = db.create_table("t", 2).unwrap();
    churn(&db, t, 0, 30);

    let mgr = db.txn_manager().clone();
    let mut in_flight = mgr.begin();
    in_flight.insert(t, 9_999, &[-1, -1]).unwrap();
    let redo_lsn = db.checkpoint().unwrap();
    assert!(redo_lsn <= db.wal().durable_lsn());
    // The in-flight transaction commits after the checkpoint; its records
    // straddle the mark and must all be replayed.
    in_flight.update(t, 9_999, &[7, 7]).unwrap();
    in_flight.commit();
    db.wal().wait_durable(db.wal().current_lsn());
    let before = contents(&db, t);

    let recovered = db.simulate_crash(false);
    assert_eq!(before, contents(&recovered, t));
    assert_eq!(recovered.read_committed(t, 9_999).unwrap(), vec![7, 7]);
}

#[test]
fn dora_checkpoint_is_a_typed_refusal() {
    // DORA's logical-undo story does not cover fuzzy checkpoints yet; the
    // call must refuse with a typed error, not silently emit an unsound mark.
    let db = Database::open(EngineConfig::scalable(2));
    assert!(matches!(db.checkpoint(), Err(DbError::CheckpointUnsupported)));
}

const SEGMENT: u64 = SEGMENT_BYTES as u64;
/// Log past the store's base at which the schedule checkpoints.
const THRESHOLD: u64 = SEGMENT * RECYCLE_SEGMENTS as u64;
/// Columns of the padding row: ~7.7 KB a row image, so one rewrite logs
/// ~15 KB and ~4,300 of them reach the threshold.
const WIDE: usize = 960;

/// Creates the padding table and its one row.
fn wide_table(db: &Database) -> u32 {
    let t = db.create_table("wide", WIDE).unwrap();
    db.execute(|txn| txn.insert(t, 0, &[0; WIDE])).unwrap();
    t
}

/// Rewrites the wide row until the schedule moves the log's base, checking
/// after every commit that the live log stays under the threshold plus one
/// segment. Returns the new base.
fn pad_until_recycled(db: &Database, t: u32) -> u64 {
    let wal = db.wal();
    let (base, start) = (wal.start_lsn(), wal.current_lsn());
    for i in 1.. {
        db.execute(|txn| txn.update(t, 0, &[i; WIDE]).map(|_| ())).unwrap();
        assert!(wal.durable_len() < THRESHOLD + SEGMENT, "{} live log bytes", wal.durable_len());
        if wal.start_lsn() > base {
            return wal.start_lsn();
        }
        assert!(wal.current_lsn() - start < THRESHOLD + 4 * SEGMENT, "the schedule never fired");
    }
    unreachable!()
}

fn sum(db: &Database, table: u32, col: usize) -> i64 {
    let mut total = 0;
    db.table(table).unwrap().scan(|_, row| total += row[col]).unwrap();
    total
}

#[test]
fn the_schedule_checkpoints_and_keeps_the_log_bounded() {
    let db = Database::open(EngineConfig::conventional_baseline());
    let t = wide_table(&db);
    let first = pad_until_recycled(&db, t);
    // Nothing was active: the redo mark is the end of the log at the
    // checkpoint, so only the checkpoint record and what followed remain.
    assert!(db.wal().durable_len() < SEGMENT, "{} bytes after the checkpoint", db.wal().durable_len());
    let records = db.wal().records();
    assert_eq!(records[0].lsn, first);
    assert!(records.iter().any(|r| matches!(r.body, LogBody::Checkpoint { redo_lsn } if redo_lsn == first)));
    let second = pad_until_recycled(&db, t);
    assert!(second - first >= THRESHOLD);
}

#[test]
fn a_crash_after_scheduled_checkpoints_conserves_tpcb() {
    let db = Database::open(EngineConfig::conventional_baseline());
    let mut tpcb = Tpcb::new(1, 57);
    db.load_population(&tpcb).unwrap();
    let t = wide_table(&db);
    // TPC-B transactions between the padding, across two scheduled
    // checkpoints and on past the second.
    let mut committed = 0;
    let mut tpcb_round = |db: &Database, n: u64| {
        for _ in 0..n {
            assert!(db.run_spec(&tpcb.next_txn()).is_committed());
            committed += 1;
        }
    };
    let mut recycled = 0;
    let mut base = db.wal().start_lsn();
    for i in 1.. {
        tpcb_round(&db, 2);
        db.execute(|txn| txn.update(t, 0, &[i; WIDE]).map(|_| ())).unwrap();
        if db.wal().start_lsn() > base {
            (recycled, base) = (recycled + 1, db.wal().start_lsn());
            if recycled == 2 {
                break;
            }
        }
    }
    tpcb_round(&db, 50);
    let wide_row = db.read_committed(t, 0).unwrap();
    let recovered = db.simulate_crash(false);
    let branches = sum(&recovered, BRANCHES, 0);
    assert_eq!(branches, sum(&recovered, TELLERS, 1));
    assert_eq!(branches, sum(&recovered, ACCOUNTS, 1));
    assert_eq!(branches, sum(&recovered, HISTORY, 2));
    assert_eq!(recovered.table(HISTORY).unwrap().len(), committed);
    assert_eq!(recovered.read_committed(t, 0).unwrap(), wide_row);
}

#[test]
fn a_prepared_participant_holds_the_redo_floor_through_the_schedule() {
    let db = Database::open(EngineConfig::conventional_baseline());
    let kv = db.create_table("kv", 1).unwrap();
    db.execute(|txn| txn.insert(kv, 1, &[10])).unwrap();
    let t = wide_table(&db);
    let add = TxnSpec {
        kind: "w",
        ops: vec![WorkloadOp::Add { table: kv, key: 1, col: 0, delta: 5 }],
        may_fail: false,
    };
    assert!(db.run_spec_prepare(33, &add).is_committed());
    let prepare_lsn = db.wal().current_lsn();
    // Past the threshold: the schedule checkpoints, but the prepared
    // transaction's first record bounds the redo mark, so truncation keeps
    // every record it wrote.
    let start = db.wal().current_lsn();
    for i in 1.. {
        db.execute(|txn| txn.update(t, 0, &[i; WIDE]).map(|_| ())).unwrap();
        if db.wal().current_lsn() - start > THRESHOLD + SEGMENT {
            break;
        }
    }
    assert!(db.wal().start_lsn() < prepare_lsn);
    let records = db.wal().durable_records();
    let marks: Vec<u64> = records
        .iter()
        .filter_map(|r| match r.body {
            LogBody::Checkpoint { redo_lsn } => Some(redo_lsn),
            _ => None,
        })
        .collect();
    assert!(!marks.is_empty(), "the schedule never fired");
    assert!(marks.iter().all(|&m| m < prepare_lsn), "a redo mark passed the prepared transaction: {marks:?}");
    assert!(records.iter().any(|r| matches!(r.body, LogBody::Prepare { gtid: 33 })));

    // Crash: the participant comes back in doubt, its effects redone, and
    // the coordinator's abort still finds every record to undo.
    let (recovered, report) = db.simulate_crash_with_report(false);
    std::mem::forget(db);
    assert_eq!(report.in_doubt.values().copied().collect::<Vec<_>>(), vec![33]);
    assert_eq!(recovered.read_committed(kv, 1).unwrap(), vec![15]);
    let in_doubt = report.in_doubt.keys().copied().collect();
    let undone = esdb::wal::recovery::undo_txns(&records, &recovered.txn_manager().tables(), &in_doubt).unwrap();
    assert_eq!(undone, 1);
    assert_eq!(recovered.read_committed(kv, 1).unwrap(), vec![10]);
}

/// The deferred commit paths serve a network reactor, so the scheduled
/// checkpoint one of them claims runs on a helper thread: the schedule
/// still fires and bounds the log, and a crash straight after (which lets
/// the helper finish first) recovers the last committed row.
#[test]
fn a_deferred_commit_hands_the_scheduled_checkpoint_to_a_helper() {
    let db = Database::open(EngineConfig::conventional_baseline());
    let t = wide_table(&db);
    let wal = db.wal();
    let (base, start) = (wal.start_lsn(), wal.current_lsn());
    let mut i = 0;
    while wal.start_lsn() == base {
        assert!(wal.current_lsn() - start < THRESHOLD + 8 * SEGMENT, "the schedule never fired");
        i += 1;
        let rewrite = TxnSpec {
            kind: "pad",
            ops: vec![WorkloadOp::Write { table: t, key: 0, row: vec![i; WIDE] }],
            may_fail: false,
        };
        let (outcome, owed) = db.run_spec_deferred(&rewrite);
        assert!(outcome.is_committed());
        wal.wait_durable(owed.expect("a write owes its flush"));
    }
    assert!(wal.durable_len() < THRESHOLD);
    let recovered = db.simulate_crash(false);
    assert_eq!(recovered.read_committed(t, 0).unwrap(), vec![i; WIDE]);
}

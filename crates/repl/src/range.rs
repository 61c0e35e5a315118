//! Range-restricted copy and delta shipping — the replication substrate of
//! online shard rebalancing.
//!
//! A migration moves one hash **slot** (see [`esdb_core::routing`]) between
//! shards while both serve traffic. This module supplies the two data paths
//! it needs:
//!
//! * [`range_rows`] — the *fuzzy copy*: a raw heap scan of the source,
//!   filtered to the moving slot. It runs unpinned against the live heap,
//!   so it may observe uncommitted rows and miss concurrent writes; the
//!   delta ship below repairs both.
//! * [`RangeShip`] — the *delta catch-up*: a cursor over the source's
//!   durable WAL that replays every row record touching the slot, in LSN
//!   order, as idempotent [`RangeOp`]s (absolute images — upsert or
//!   delete-if-present). This is **repeat history** as a *logical* redo —
//!   the destination places rows at rids of its own, so the physical
//!   [`esdb_wal::redo`] recovery and followers run does not apply — reading
//!   records through the same one view, [`esdb_wal::LogBody::row`]. Because
//!   the engine writes in place at operation time and logs abort
//!   compensations as ordinary records, applying *all* record images in
//!   order — committed or not — converges the destination to exactly the
//!   source's heap state for the slot, including the undo of aborted
//!   transactions. No per-transaction buffering, no commit tracking.
//!
//! Together: copy fuzzily from `start_lsn = wal.current_lsn()` (taken
//! *before* the scan — every heap mutation after that point has a record at
//! an LSN ≥ `start_lsn`, since heap writes precede their record's append),
//! then pump deltas until lag is small, fence writes, pump the final tail,
//! and the destination holds a byte-exact logical replica of the slot.

use esdb_core::{slot_of, Database};
use esdb_storage::StorageError;
use esdb_wal::record::{decode_stream_checked, RowOp};
use esdb_wal::{LogPin, Lsn, Wal};

/// One idempotent slot mutation replayed from the source WAL. Absolute
/// images, so re-applying any suffix (crash + resume) is harmless.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RangeOp {
    /// The key now holds `row` (from an `Insert` or `Update` image).
    Upsert {
        /// Table id.
        table: u32,
        /// Key.
        key: u64,
        /// The row image after the logged operation.
        row: Vec<i64>,
    },
    /// The key is gone (from a `Delete` image).
    Delete {
        /// Table id.
        table: u32,
        /// Key.
        key: u64,
    },
}

/// The committed-or-not rows of `slot` in `table` on `db`, via a raw
/// (fuzzy, unpinned) heap scan — the bulk-copy read of a migration.
pub fn range_rows(
    db: &Database,
    table: u32,
    slot: u32,
    slot_count: u32,
) -> Result<Vec<(u64, Vec<i64>)>, RangeShipError> {
    let t = db.table(table).ok_or(RangeShipError::NoTable(table))?;
    let mut rows = Vec::new();
    t.scan(|key, row| {
        if slot_of(table, key, slot_count) == slot {
            rows.push((key, row.to_vec()));
        }
    })?;
    Ok(rows)
}

/// A delta-shipping cursor: replays the source WAL from `next` onward,
/// filtered to one slot, as [`RangeOp`]s. Crash-safe by construction — the
/// coordinator persists the cursor (or restarts the copy) and re-applying
/// already-shipped ops is idempotent.
#[derive(Debug)]
pub struct RangeShip {
    /// Next stream offset to decode from.
    pub next: Lsn,
    /// The moving slot.
    pub slot: u32,
    /// Ring size the slot lives in.
    pub slot_count: u32,
    /// Holds the source log from `next` on against its checkpoint schedule,
    /// so a copy that outlasts a checkpoint interval still finds its cursor.
    pin: LogPin,
}

impl RangeShip {
    /// A cursor starting at `from` (the copy's `start_lsn`), holding the
    /// source log by `pin` — taken from the source's WAL before `from` was
    /// read, so nothing from `from` on can have been reclaimed since.
    pub fn new(pin: LogPin, from: Lsn, slot: u32, slot_count: u32) -> RangeShip {
        pin.advance(from);
        RangeShip { next: from, slot, slot_count, pin }
    }

    /// Bytes of durable log not yet shipped — the migration's catch-up lag.
    pub fn lag(&self, wal: &Wal) -> u64 {
        wal.durable_lsn().saturating_sub(self.next)
    }

    /// Decodes every durable record from the cursor, emitting the slot's
    /// mutations to `apply` in LSN order, and advances the cursor past what
    /// it decoded. Returns the number of ops emitted. `Ok(0)` when nothing
    /// new is durable.
    ///
    /// The source WAL must still contain the cursor position (`Err` means
    /// the log was truncated/rebased under us — e.g. a source crash built a
    /// new stream — and the migration must restart its copy).
    pub fn pump(
        &mut self,
        wal: &Wal,
        mut apply: impl FnMut(RangeOp),
    ) -> Result<u64, RangeShipError> {
        let durable = wal.durable_lsn();
        if durable <= self.next {
            return Ok(0);
        }
        let Some((bytes, start)) = wal.durable_tail(self.next, usize::MAX) else {
            return Err(RangeShipError::Gap { expected: self.next, got: wal.start_lsn() });
        };
        if start != self.next {
            return Err(RangeShipError::Gap { expected: self.next, got: start });
        }
        let avail = ((durable - start) as usize).min(bytes.len());
        let salvaged = decode_stream_checked(&bytes[..avail], start);
        if let Some(e) = salvaged.corruption {
            return Err(RangeShipError::Corrupt(e.to_string()));
        }
        let mut emitted = 0u64;
        for rec in &salvaged.records {
            let Some((table, key, _, op)) = rec.body.row() else { continue };
            if slot_of(table, key, self.slot_count) != self.slot {
                continue;
            }
            apply(match op {
                RowOp::Insert { row } | RowOp::Update { after: row, .. } => {
                    RangeOp::Upsert { table, key, row: row.to_vec() }
                }
                RowOp::Delete { .. } => RangeOp::Delete { table, key },
            });
            emitted += 1;
        }
        self.next = start + salvaged.valid_len;
        self.pin.advance(self.next);
        Ok(emitted)
    }
}

/// Why a range copy or [`RangeShip::pump`] could not make progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RangeShipError {
    /// The WAL no longer holds the cursor position: the stream was rebased
    /// (source crash) or truncated. The migration restarts its copy.
    Gap {
        /// Where the cursor expected to resume.
        expected: Lsn,
        /// Where the available stream actually starts.
        got: Lsn,
    },
    /// Detectable corruption in the durable stream — a typed halt.
    Corrupt(String),
    /// The table does not exist on the side being read or written.
    NoTable(u32),
    /// A heap read/write failed underneath the copy or apply.
    Storage(StorageError),
}

impl std::fmt::Display for RangeShipError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RangeShipError::Gap { expected, got } => {
                write!(f, "log gap: cursor at {expected}, stream starts at {got}")
            }
            RangeShipError::Corrupt(e) => write!(f, "shipped stream corrupt: {e}"),
            RangeShipError::NoTable(t) => write!(f, "no such table: {t}"),
            RangeShipError::Storage(e) => write!(f, "storage: {e}"),
        }
    }
}

impl std::error::Error for RangeShipError {}

impl From<StorageError> for RangeShipError {
    fn from(e: StorageError) -> Self {
        RangeShipError::Storage(e)
    }
}

/// Applies one [`RangeOp`] to `db` with raw (unlogged) table ops — the
/// destination-side apply for a slot the destination does not yet own.
/// Idempotent: upserts overwrite, deletes ignore missing keys.
pub fn apply_range_op(db: &Database, op: &RangeOp) -> Result<(), RangeShipError> {
    match op {
        RangeOp::Upsert { table, key, row } => {
            let t = db.table(*table).ok_or(RangeShipError::NoTable(*table))?;
            if t.get(*key).is_ok() {
                t.update(*key, row)?;
            } else {
                t.insert(*key, row)?;
            }
        }
        RangeOp::Delete { table, key } => {
            let t = db.table(*table).ok_or(RangeShipError::NoTable(*table))?;
            if t.get(*key).is_ok() {
                t.delete(*key)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use esdb_core::{EngineConfig, DEFAULT_SLOTS};

    fn keys_in_slot(slot: u32, n: usize) -> Vec<u64> {
        (0..10_000u64)
            .filter(|&k| slot_of(0, k, DEFAULT_SLOTS) == slot)
            .take(n)
            .collect()
    }

    #[test]
    fn range_rows_sees_only_the_slot() {
        let db = Database::open(EngineConfig::default());
        db.create_table("t", 1).unwrap();
        for key in 0..200u64 {
            db.execute(|txn| txn.insert(0, key, &[key as i64])).unwrap();
        }
        let rows = range_rows(&db, 0, 3, DEFAULT_SLOTS).unwrap();
        assert!(!rows.is_empty());
        for (key, row) in &rows {
            assert_eq!(slot_of(0, *key, DEFAULT_SLOTS), 3);
            assert_eq!(row, &vec![*key as i64]);
        }
        let expected = (0..200u64).filter(|&k| slot_of(0, k, DEFAULT_SLOTS) == 3).count();
        assert_eq!(rows.len(), expected);
    }

    #[test]
    fn pump_replays_the_slots_mutations_in_order() {
        let db = Database::open(EngineConfig::default());
        db.create_table("t", 1).unwrap();
        let pin = db.wal().pin();
        let start = db.wal().current_lsn();
        let keys = keys_in_slot(5, 3);
        db.execute(|txn| txn.insert(0, keys[0], &[1])).unwrap();
        db.execute(|txn| txn.insert(0, keys[1], &[2])).unwrap();
        db.execute(|txn| {
            txn.update(0, keys[0], &[10])?;
            txn.delete(0, keys[1])
        })
        .unwrap();
        // A write outside the slot must not ship.
        let other = (0..10_000u64).find(|&k| slot_of(0, k, DEFAULT_SLOTS) != 5).unwrap();
        db.execute(|txn| txn.insert(0, other, &[99])).unwrap();
        db.wal().wait_durable(db.wal().current_lsn());

        let mut ship = RangeShip::new(pin, start, 5, DEFAULT_SLOTS);
        let mut got = Vec::new();
        ship.pump(db.wal(), |op| got.push(op)).unwrap();
        assert_eq!(
            got,
            vec![
                RangeOp::Upsert { table: 0, key: keys[0], row: vec![1] },
                RangeOp::Upsert { table: 0, key: keys[1], row: vec![2] },
                RangeOp::Upsert { table: 0, key: keys[0], row: vec![10] },
                RangeOp::Delete { table: 0, key: keys[1] },
            ]
        );
        assert_eq!(ship.lag(db.wal()), 0);
        // Nothing new: pump is a cheap no-op.
        assert_eq!(ship.pump(db.wal(), |_| panic!("no new ops")).unwrap(), 0);
    }

    #[test]
    fn aborted_transactions_converge_via_compensations() {
        let db = Database::open(EngineConfig::default());
        db.create_table("t", 1).unwrap();
        let keys = keys_in_slot(2, 2);
        db.execute(|txn| txn.insert(0, keys[0], &[7])).unwrap();
        let pin = db.wal().pin();
        let start = db.wal().current_lsn();
        // An explicit abort: the update's image ships, then its
        // compensation ships right behind it — the dest ends at [7].
        let _ = db.execute(|txn| {
            txn.update(0, keys[0], &[666])?;
            // Touch a missing key: the failure aborts the transaction and
            // rolls the update back via a logged compensation.
            txn.update(0, u64::MAX, &[0])
        });
        db.wal().wait_durable(db.wal().current_lsn());

        let dest = Database::open(EngineConfig::default());
        dest.create_table("t", 1).unwrap();
        dest.table(0).unwrap().insert(keys[0], &[7]).unwrap();
        let mut ship = RangeShip::new(pin, start, 2, DEFAULT_SLOTS);
        ship.pump(db.wal(), |op| apply_range_op(&dest, &op).unwrap()).unwrap();
        assert_eq!(dest.table(0).unwrap().get(keys[0]).unwrap(), vec![7]);
    }

    #[test]
    fn the_ship_cursor_holds_the_source_log_through_a_checkpoint() {
        let db = Database::open(EngineConfig::default());
        db.create_table("t", 1).unwrap();
        let keys = keys_in_slot(4, 2);
        let start = db.wal().current_lsn();
        let mut ship = RangeShip::new(db.wal().pin(), start, 4, DEFAULT_SLOTS);
        db.execute(|txn| txn.insert(0, keys[0], &[1])).unwrap();
        // A checkpoint past the cursor: its truncation waits for the ship.
        db.wal().truncate_before(db.checkpoint().unwrap());
        assert!(db.wal().start_lsn() <= start);
        db.execute(|txn| txn.insert(0, keys[1], &[2])).unwrap();
        db.wal().wait_durable(db.wal().current_lsn());
        let mut got = Vec::new();
        ship.pump(db.wal(), |op| got.push(op)).unwrap();
        assert_eq!(
            got,
            vec![
                RangeOp::Upsert { table: 0, key: keys[0], row: vec![1] },
                RangeOp::Upsert { table: 0, key: keys[1], row: vec![2] },
            ]
        );
        // Pumped past both marks, the ship lets the next truncation through.
        db.wal().truncate_before(db.checkpoint().unwrap());
        assert_eq!(db.wal().start_lsn(), ship.next);
    }

    #[test]
    fn a_rebased_stream_is_a_typed_gap() {
        let db = Database::open(EngineConfig::default());
        db.create_table("t", 1).unwrap();
        db.execute(|txn| txn.insert(0, 1, &[1])).unwrap();
        let crashed = db.simulate_crash(true);
        // The rebuilt engine's WAL starts on a fresh, higher stream: a
        // cursor from the old stream must see a typed gap, not garbage.
        let mut ship = RangeShip::new(crashed.wal().pin(), 8, 0, DEFAULT_SLOTS);
        crashed.execute(|txn| txn.insert(0, 2, &[2])).unwrap();
        crashed.wal().wait_durable(crashed.wal().current_lsn());
        match ship.pump(crashed.wal(), |_| {}) {
            Err(RangeShipError::Gap { .. }) => {}
            other => panic!("expected gap, got {other:?}"),
        }
    }
}

//! The write-ahead log facade: framing + policy selection + commit flushes.

use crate::buffer::{LogBuffer, LsnRange, LOG_START};
use crate::consolidated::ConsolidatedLogBuffer;
use crate::decoupled::DecoupledLogBuffer;
use crate::record::{self, LogBody, LogRecord, RowOp};
use crate::serial::SerialLogBuffer;
use crate::Lsn;
use esdb_storage::rid::Rid;
use esdb_storage::schema::TableId;
use esdb_sync::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

thread_local! {
    /// The appender's encode scratch: a record is built here, checksummed,
    /// and copied once into the log buffer; the capacity stays.
    static SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Which log buffer implementation the engine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LogPolicy {
    /// Mutex across allocation and copy (baseline).
    Serial,
    /// Mutex across allocation only; parallel fill.
    Decoupled,
    /// Consolidation array + decoupled fill. The engine default.
    #[default]
    Consolidated,
}

impl LogPolicy {
    /// All policies in sweep order.
    pub const ALL: [LogPolicy; 3] = [LogPolicy::Serial, LogPolicy::Decoupled, LogPolicy::Consolidated];
}

impl std::fmt::Display for LogPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LogPolicy::Serial => "serial",
            LogPolicy::Decoupled => "decoupled",
            LogPolicy::Consolidated => "consolidated",
        })
    }
}

/// How far past its predecessor's durable end a [`Wal::successor`] starts:
/// clear of everything the dead incarnation may have handed to the device
/// and of every page LSN undo after the crash may stamp ([`undo_band`]).
pub const INCARNATION_GAP: Lsn = 1 << 24;

/// Width of the [`undo_band`].
pub const UNDO_BAND: Lsn = 1 << 20;

/// The page LSNs that undo after a crash stamps — recovery's losers and
/// every later in-doubt abort alike — given the crashed log's durable
/// `records`: the top [`UNDO_BAND`] LSNs of the [`INCARNATION_GAP`] above
/// its last record. So every stamp lies past the records it undoes and
/// below the successor's first LSN, which a stamp must never reach: redo
/// of the successor's records is page-LSN gated.
pub fn undo_band(records: &[LogRecord]) -> std::ops::Range<Lsn> {
    let top = records.last().map_or(LOG_START, |r| r.lsn) + INCARNATION_GAP;
    top - UNDO_BAND..top
}

/// The engine-facing write-ahead log.
pub struct Wal {
    buffer: Box<dyn LogBuffer>,
    retention: Mutex<Retention>,
}

/// What holds back [`Wal::truncate_before`]: the live readers' pins, and
/// the record boundaries it was asked to truncate before but a pin kept.
#[derive(Default)]
struct Retention {
    pins: Vec<Weak<AtomicU64>>,
    marks: Vec<Lsn>,
}

/// A live log reader's hold on the log, from [`Wal::pin`]: the log keeps
/// every byte at or past the pin's LSN until the pin drops. A replication
/// feed or a migration's delta ship holds one at its cursor, so a scheduled
/// checkpoint never reclaims log a reader still has to send.
#[derive(Debug)]
pub struct LogPin(Arc<AtomicU64>);

impl LogPin {
    /// Releases the log before `lsn` (a pin never moves back).
    pub fn advance(&self, lsn: Lsn) {
        self.0.fetch_max(lsn, Ordering::Relaxed);
    }
}

impl Wal {
    /// Creates a WAL with the given buffer policy and log-device latency.
    pub fn new(policy: LogPolicy, flush_latency: Option<Duration>) -> Self {
        Self::new_at(LOG_START, policy, flush_latency)
    }

    /// Creates a WAL whose first LSN is `base` — a post-crash continuation
    /// of an earlier log, so surviving page LSNs stay in the past.
    pub fn new_at(base: crate::Lsn, policy: LogPolicy, flush_latency: Option<Duration>) -> Self {
        let buffer: Box<dyn LogBuffer> = match policy {
            LogPolicy::Serial => Box::new(SerialLogBuffer::new_at(base, flush_latency)),
            LogPolicy::Decoupled => Box::new(DecoupledLogBuffer::with_capacity_at(
                base,
                crate::decoupled::DEFAULT_CAPACITY,
                flush_latency,
            )),
            LogPolicy::Consolidated => Box::new(ConsolidatedLogBuffer::with_config_at(
                base,
                crate::decoupled::DEFAULT_CAPACITY,
                ConsolidatedLogBuffer::DEFAULT_SLOTS,
                flush_latency,
            )),
        };
        Wal { buffer, retention: Mutex::new(Retention::default()) }
    }

    /// The log a restarted node continues on: a fresh, empty incarnation of
    /// this log's LSN stream, [`INCARNATION_GAP`] past the durable prefix
    /// (all that survives a crash; read it with [`Wal::durable_records`]).
    pub fn successor(&self, policy: LogPolicy, flush_latency: Option<Duration>) -> Self {
        Self::new_at(self.durable_lsn() + INCARNATION_GAP, policy, flush_latency)
    }

    /// Encodes one record into this thread's scratch and inserts it.
    fn append_with(&self, encode: impl FnOnce(&mut Vec<u8>)) -> LsnRange {
        SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            scratch.clear();
            encode(&mut scratch);
            self.buffer.insert(&scratch)
        })
    }

    /// Appends one record. Returns its LSN range; the record is not durable
    /// until a flush covers `range.end`.
    pub fn append(&self, txn_id: u64, prev_lsn: Lsn, body: &LogBody) -> LsnRange {
        self.append_with(|out| record::encode_into(out, txn_id, prev_lsn, body))
    }

    /// Appends one row-mutation record straight from borrowed images — the
    /// transaction path's append; same bytes as [`Wal::append`] with the
    /// [`LogBody`] variant of the same name.
    pub fn append_row(
        &self,
        txn_id: u64,
        prev_lsn: Lsn,
        table: TableId,
        key: u64,
        rid: Rid,
        op: RowOp<'_>,
    ) -> LsnRange {
        self.append_with(|out| record::encode_row_op_into(out, txn_id, prev_lsn, table, key, rid, op))
    }

    /// Makes everything up to `lsn` durable, attributing the wait to `class`.
    /// An LSN that is already durable costs one load: no clock, no flush.
    fn flush_timed(&self, lsn: Lsn, class: esdb_obs::WaitClass) {
        if self.buffer.durable_lsn() >= lsn {
            return;
        }
        let wait = esdb_obs::wait_timer(class);
        self.buffer.flush(lsn);
        esdb_obs::record_component(esdb_obs::Component::WalFlush, wait.stop());
    }

    /// Appends a commit record. With `force` it returns once the record is
    /// durable (group commit: one physical flush may cover many concurrent
    /// committers; the wait counts as `commit_flush`) and owes nothing;
    /// otherwise it returns the LSN the caller still owes a
    /// [`Wal::wait_durable`] on.
    pub fn commit(&self, txn_id: u64, prev_lsn: Lsn, force: bool) -> Option<Lsn> {
        let end = self.append(txn_id, prev_lsn, &LogBody::Commit).end;
        if !force {
            return Some(end);
        }
        self.flush_timed(end, esdb_obs::WaitClass::CommitFlush);
        None
    }

    /// Blocks until everything up to `lsn` is durable.
    pub fn wait_durable(&self, lsn: Lsn) {
        self.flush_timed(lsn, esdb_obs::WaitClass::LogWait);
    }

    /// The batched group-commit entry point: makes every LSN in `lsns`
    /// durable with **one** physical flush covering the maximum, and returns
    /// that covering LSN (`None` when the batch is empty — no flush at all).
    ///
    /// This is what a reactor tick calls: every session that committed during
    /// the tick contributes its commit LSN, and the whole tick pays a single
    /// log-device wait instead of one per session. `wait_durable` in a loop
    /// would be *correct* (later waits return instantly) but would still ring
    /// the flush path per call; this never touches the device more than once.
    pub fn flush_batch(&self, lsns: impl IntoIterator<Item = Lsn>) -> Option<Lsn> {
        let max = lsns.into_iter().max()?;
        self.wait_durable(max);
        Some(max)
    }

    /// Copies at most `cap` bytes of the persisted log tail `[from, end)`
    /// for shipping, returning the bytes and the stream offset they start
    /// at. A ship loop passes what one round sends, so a far-behind
    /// subscriber costs `cap` bytes of copy a round, not its whole backlog;
    /// `usize::MAX` reads the whole tail. `None` means `from` predates the
    /// store's base — that prefix was reclaimed by [`Wal::truncate_before`],
    /// so the subscriber needs a snapshot.
    ///
    /// With a tripped lying-device fault the store holds fewer bytes than
    /// `durable_lsn` claims; this reads what the device actually kept, which
    /// is exactly what a replica of a lying primary would receive.
    pub fn durable_tail(&self, from: Lsn, cap: usize) -> Option<(Vec<u8>, Lsn)> {
        self.buffer.store().read_tail(from, cap)
    }

    /// Registers a live reader of the log, pinned at the log's base: until
    /// the pin drops, [`Wal::truncate_before`] reclaims nothing at or past
    /// its LSN. The reader [`LogPin::advance`]s it as it reads on.
    pub fn pin(&self) -> LogPin {
        let mut retention = self.retention.lock();
        let pin = Arc::new(AtomicU64::new(self.start_lsn()));
        retention.pins.push(Arc::downgrade(&pin));
        LogPin(pin)
    }

    /// Reclaims the persisted log prefix before `lsn` (a checkpoint's
    /// `redo_lsn`, which always sits on a record boundary), or as much of
    /// it as the live readers' pins allow. The base must stay on a record
    /// boundary and a pin need not sit on one, so a held-back truncation
    /// stops at the highest earlier `lsn` at or below the lowest pin and
    /// keeps the later ones for when the pins move on. Decoding entry
    /// points follow the advanced base automatically.
    pub fn truncate_before(&self, lsn: Lsn) {
        let mut retention = self.retention.lock();
        let Retention { pins, marks } = &mut *retention;
        pins.retain(|pin| pin.strong_count() > 0);
        let floor = pins.iter().filter_map(Weak::upgrade).map(|pin| pin.load(Ordering::Relaxed)).min();
        let floor = floor.unwrap_or(Lsn::MAX);
        marks.push(lsn);
        let Some(to) = marks.iter().copied().filter(|&mark| mark <= floor).max() else {
            return;
        };
        marks.retain(|&mark| mark > to);
        self.buffer.store().truncate_before(to);
    }

    /// `true` for the one caller that claims the store's recycle flag,
    /// raised once [`crate::buffer::RECYCLE_SEGMENTS`] segments of log sit
    /// past its base: time to checkpoint and truncate. That caller owes a
    /// [`Wal::finish_recycle`] whether or not it truncated. While the flag
    /// is down a call is one relaxed load, cheap enough for every commit.
    #[inline]
    pub fn claim_recycle(&self) -> bool {
        self.buffer.store().claim_recycle()
    }

    /// Ends a claimed recycle and re-arms the flag for the next threshold.
    pub fn finish_recycle(&self) {
        self.buffer.store().finish_recycle();
    }

    /// Highest durable LSN.
    pub fn durable_lsn(&self) -> Lsn {
        self.buffer.durable_lsn()
    }

    /// End of the allocated log.
    pub fn current_lsn(&self) -> Lsn {
        self.buffer.current_lsn()
    }

    /// Number of physical log-device flushes so far. Together with a commit
    /// count this measures group-commit effectiveness: batched commits from
    /// pipelined sessions should push commits-per-flush well above 1.
    pub fn flush_count(&self) -> u64 {
        self.buffer.flush_count()
    }

    /// Buffer implementation name.
    pub fn buffer_name(&self) -> &'static str {
        self.buffer.name()
    }

    /// Flushes everything and decodes the full durable log (recovery entry
    /// point and test oracle).
    pub fn records(&self) -> Vec<LogRecord> {
        self.buffer.flush(self.buffer.current_lsn());
        let base = self.buffer.start_lsn();
        record::decode_stream(&self.buffer.read_durable(base), base)
    }

    /// Decodes only the durable prefix of the log *without* forcing a flush —
    /// what recovery would actually see after a crash.
    pub fn durable_records(&self) -> Vec<LogRecord> {
        let base = self.buffer.start_lsn();
        record::decode_stream(&self.buffer.read_durable(base), base)
    }

    /// Like [`Wal::durable_records`] but keeps the salvage report: how many
    /// bytes were valid and why decoding stopped, if it did.
    pub fn durable_records_checked(&self) -> record::SalvagedLog {
        let base = self.buffer.start_lsn();
        record::decode_stream_checked(&self.buffer.read_durable(base), base)
    }

    /// Arms the lying-log-device fault on the underlying store (see
    /// [`crate::buffer::LogFault`]).
    pub fn inject_log_fault(&self, fault: crate::buffer::LogFault) {
        self.buffer.store().set_fault(fault);
    }

    /// Truncates the *persisted* log to its first `keep` bytes — direct
    /// crash damage for torture tests.
    pub fn truncate_durable(&self, keep: usize) {
        self.buffer.store().truncate_to(keep);
    }

    /// Flips one bit of the persisted log at absolute stream offset
    /// `offset` — direct corruption for torture tests.
    pub fn flip_durable_bit(&self, offset: Lsn, bit: u8) {
        self.buffer.store().flip_bit(offset, bit);
    }

    /// Bytes actually persisted on the log device (less than
    /// `durable_lsn() - start_lsn()` once a lying-device fault tripped).
    pub fn durable_len(&self) -> u64 {
        self.buffer.store().len()
    }

    /// First LSN of this log incarnation.
    pub fn start_lsn(&self) -> Lsn {
        self.buffer.start_lsn()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NULL_LSN;

    #[test]
    fn append_and_replay_across_policies() {
        for policy in LogPolicy::ALL {
            let wal = Wal::new(policy, None);
            let b = wal.append(1, NULL_LSN, &LogBody::Begin);
            let u = wal.append(
                1,
                b.start,
                &LogBody::Update {
                    table: 1,
                    key: 9,
                    rid: esdb_storage::Rid::new(0, 0),
                    before: vec![1],
                    after: vec![2],
                },
            );
            wal.commit(1, u.start, true);
            let records = wal.records();
            assert_eq!(records.len(), 3, "policy {policy}");
            assert_eq!(records[0].body, LogBody::Begin);
            assert_eq!(records[2].body, LogBody::Commit);
            assert_eq!(records[1].prev_lsn, records[0].lsn);
            assert!(wal.durable_lsn() >= records[2].lsn);
        }
    }

    #[test]
    fn unforced_commit_leaves_log_volatile() {
        let wal = Wal::new(LogPolicy::Consolidated, None);
        let b = wal.append(7, NULL_LSN, &LogBody::Begin);
        let owed = wal.commit(7, b.start, false).expect("an unforced commit owes its LSN");
        // Not yet durable...
        assert!(wal.durable_lsn() < owed);
        assert!(wal.durable_records().is_empty());
        // ...until explicitly waited on.
        wal.wait_durable(owed);
        assert_eq!(wal.durable_records().len(), 2);
    }

    #[test]
    fn flush_batch_covers_the_max_with_one_flush() {
        let wal = Wal::new(LogPolicy::Consolidated, None);
        let mut ends = Vec::new();
        for txn in 0..4u64 {
            let b = wal.append(txn, NULL_LSN, &LogBody::Begin);
            ends.push(wal.commit(txn, b.start, false).unwrap());
        }
        assert!(wal.durable_lsn() < *ends.iter().max().unwrap());
        let before = wal.flush_count();
        let covered = wal.flush_batch(ends.iter().copied()).expect("non-empty batch");
        assert_eq!(covered, *ends.iter().max().unwrap());
        assert!(wal.durable_lsn() >= covered, "every commit in the batch is durable");
        assert_eq!(wal.flush_count(), before + 1, "one physical flush for the whole batch");
        // An empty batch flushes nothing.
        assert_eq!(wal.flush_batch(std::iter::empty()), None);
        assert_eq!(wal.flush_count(), before + 1);
    }

    #[test]
    fn append_row_writes_the_same_bytes_as_the_owned_body() {
        let rid = Rid::new(3, 1);
        let owned = Wal::new(LogPolicy::Serial, None);
        let borrowed = Wal::new(LogPolicy::Serial, None);
        let (before, after) = (vec![1, -2], vec![3, i64::MIN]);
        for wal in [&owned, &borrowed] {
            wal.append(9, NULL_LSN, &LogBody::Begin);
        }
        owned.append(9, 8, &LogBody::Insert { table: 2, key: 5, rid, row: after.clone() });
        borrowed.append_row(9, 8, 2, 5, rid, RowOp::Insert { row: &after });
        owned.append(9, 33, &LogBody::Update { table: 2, key: 5, rid, before: before.clone(), after: after.clone() });
        borrowed.append_row(9, 33, 2, 5, rid, RowOp::Update { before: &before, after: &after });
        owned.append(9, 90, &LogBody::Delete { table: 2, key: 5, rid, before: before.clone() });
        borrowed.append_row(9, 90, 2, 5, rid, RowOp::Delete { before: &before });
        assert_eq!(owned.records(), borrowed.records());
        assert_eq!(owned.durable_tail(8, usize::MAX), borrowed.durable_tail(8, usize::MAX));
    }

    #[test]
    fn every_undo_band_lies_between_the_durable_end_and_the_successor() {
        let rid = Rid::new(0, 0);
        for policy in LogPolicy::ALL {
            // Empty, clean, torn-tailed, and lying logs (the device drops
            // every append from the crash on while the durable LSN advances).
            for damage in 0..4 {
                let wal = Wal::new(policy, None);
                if damage == 3 {
                    wal.inject_log_fault(crate::LogFault { seed: 7, crash_on_append: 20, flip_bit: false });
                }
                for txn in 1..=(if damage == 0 { 0 } else { 50 }) {
                    let b = wal.append(txn, NULL_LSN, &LogBody::Begin);
                    let u = wal.append_row(txn, b.start, 1, txn, rid, RowOp::Update { before: &[1], after: &[2] });
                    wal.commit(txn, u.start, true);
                }
                if damage == 2 {
                    wal.truncate_durable(wal.durable_len() as usize - 3);
                }
                let records = wal.durable_records();
                let band = undo_band(&records);
                assert!(records.iter().all(|r| r.lsn < band.start), "{policy} damage {damage}");
                assert!(wal.durable_lsn() < band.start, "{policy} damage {damage}: {band:?}");
                assert!(band.end <= wal.successor(policy, None).start_lsn(), "{policy} damage {damage}");
                assert_eq!(band.end - band.start, UNDO_BAND);
            }
        }
    }

    #[test]
    fn every_forced_commit_is_one_flush_and_a_durable_wait_is_none() {
        let wal = Wal::new(LogPolicy::Serial, None);
        for txn in 1..=10_000u64 {
            let b = wal.append(txn, NULL_LSN, &LogBody::Begin);
            wal.commit(txn, b.start, true);
        }
        assert_eq!(wal.flush_count(), 10_000);
        // A wait on an already-durable LSN is not a flush.
        wal.wait_durable(wal.durable_lsn());
        assert_eq!(wal.flush_count(), 10_000);
    }

    #[test]
    fn a_pin_holds_truncation_at_the_last_boundary_before_it() {
        let wal = Wal::new(LogPolicy::Serial, None);
        let ends: Vec<Lsn> = (0..4).map(|_| wal.append(1, NULL_LSN, &LogBody::Begin).end).collect();
        wal.wait_durable(wal.current_lsn());
        let pin = wal.pin();
        // Mid-record: the base may only move to a record boundary below it.
        pin.advance(ends[1] + 1);
        wal.truncate_before(ends[0]);
        assert_eq!(wal.start_lsn(), ends[0]);
        wal.truncate_before(ends[2]);
        wal.truncate_before(ends[3]);
        assert_eq!(wal.start_lsn(), ends[0], "truncated past a pin");
        // Moved on, a pin lets the kept marks through; it never moves back.
        pin.advance(ends[2]);
        pin.advance(ends[0]);
        wal.truncate_before(ends[1]);
        assert_eq!(wal.start_lsn(), ends[2]);
        assert_eq!(wal.records()[0].lsn, ends[2]);
        // A new reader pins the base; once every pin drops, the highest
        // kept mark goes through.
        let late = wal.pin();
        drop(pin);
        wal.truncate_before(ends[0]);
        assert_eq!(wal.start_lsn(), ends[2]);
        drop(late);
        wal.truncate_before(ends[0]);
        assert_eq!(wal.start_lsn(), ends[3]);
    }

    #[test]
    fn txn_chain_walks_backwards() {
        let wal = Wal::new(LogPolicy::Serial, None);
        let b = wal.append(3, NULL_LSN, &LogBody::Begin);
        let u1 = wal.append(
            3,
            b.start,
            &LogBody::Insert {
                table: 0,
                key: 1,
                rid: esdb_storage::Rid::new(0, 0),
                row: vec![],
            },
        );
        let u2 = wal.append(
            3,
            u1.start,
            &LogBody::Insert {
                table: 0,
                key: 2,
                rid: esdb_storage::Rid::new(0, 1),
                row: vec![],
            },
        );
        let records = wal.records();
        let by_lsn: std::collections::HashMap<_, _> =
            records.iter().map(|r| (r.lsn, r)).collect();
        // Walk the chain from the last record back to Begin.
        let mut cur = u2.start;
        let mut seen = Vec::new();
        while cur != NULL_LSN {
            let r = by_lsn[&cur];
            seen.push(r.lsn);
            cur = r.prev_lsn;
        }
        assert_eq!(seen, vec![u2.start, u1.start, b.start]);
    }
}

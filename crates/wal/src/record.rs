//! Log record types and their wire format.
//!
//! Records are framed as `[len: u32][crc: u32][txn_id: u64][prev_lsn: u64]
//! [tag: u8][body…]`; a record's LSN is its byte offset in the log stream, so
//! the stream parses back into records without any side index. `prev_lsn`
//! chains each transaction's records for rollback and undo.
//!
//! The `crc` field is a CRC-32 over the `len` field and everything after the
//! checksum itself, so a bit flip anywhere in the frame — including a
//! corrupted length that still points inside the stream — fails verification.
//! Decoding is *total*: [`decode_stream_checked`] never panics, salvages the
//! longest valid prefix, and reports the first corruption with its offset and
//! reason as a [`WalError`]. An incomplete final record (the torn tail a
//! crash legitimately leaves behind) is not corruption and is silently
//! dropped, exactly as before.

use crate::crc::Crc32;
use crate::Lsn;
use bytes::BufMut;
use esdb_storage::rid::Rid;
use esdb_storage::schema::TableId;

/// Smallest legal frame: len(4) + crc(4) + txn(8) + prev(8) + tag(1).
pub const MIN_RECORD: usize = 25;

/// Largest legal frame. Generously above anything [`encode_into`] produces
/// (bodies are a few rows of `i64`s); lengths beyond this are corruption,
/// not data.
pub const MAX_RECORD: usize = 1 << 22;

/// Why (and where) log decoding stopped before the end of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalError {
    /// The length field is outside `[MIN_RECORD, MAX_RECORD]`.
    BadLength {
        /// Stream offset (LSN) of the offending frame.
        offset: Lsn,
        /// The length the frame claimed.
        len: u32,
    },
    /// The stored CRC does not match the frame contents.
    BadChecksum {
        /// Stream offset (LSN) of the offending frame.
        offset: Lsn,
        /// Checksum stored in the frame.
        stored: u32,
        /// Checksum computed over the frame.
        computed: u32,
    },
    /// The frame passed its CRC but carries an unknown record tag.
    UnknownTag {
        /// Stream offset (LSN) of the offending frame.
        offset: Lsn,
        /// The unrecognised tag byte.
        tag: u8,
    },
    /// The frame passed its CRC but its body is shorter than the tag needs.
    TruncatedBody {
        /// Stream offset (LSN) of the offending frame.
        offset: Lsn,
    },
    /// The frame passed its CRC but has bytes left over after its body.
    TrailingGarbage {
        /// Stream offset (LSN) of the offending frame.
        offset: Lsn,
    },
}

impl WalError {
    /// Stream offset (LSN) where decoding stopped.
    pub fn offset(&self) -> Lsn {
        match self {
            WalError::BadLength { offset, .. }
            | WalError::BadChecksum { offset, .. }
            | WalError::UnknownTag { offset, .. }
            | WalError::TruncatedBody { offset }
            | WalError::TrailingGarbage { offset } => *offset,
        }
    }
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::BadLength { offset, len } => {
                write!(f, "bad record length {len} at lsn {offset}")
            }
            WalError::BadChecksum { offset, stored, computed } => write!(
                f,
                "checksum mismatch at lsn {offset}: stored {stored:#010x}, computed {computed:#010x}"
            ),
            WalError::UnknownTag { offset, tag } => {
                write!(f, "unknown record tag {tag} at lsn {offset}")
            }
            WalError::TruncatedBody { offset } => {
                write!(f, "record body truncated at lsn {offset}")
            }
            WalError::TrailingGarbage { offset } => {
                write!(f, "trailing garbage inside record at lsn {offset}")
            }
        }
    }
}

impl std::error::Error for WalError {}

/// The payload of a log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogBody {
    /// Transaction start.
    Begin,
    /// A tuple insert.
    Insert {
        /// Table the tuple belongs to.
        table: TableId,
        /// Primary key.
        key: u64,
        /// Physical address assigned.
        rid: Rid,
        /// The inserted row.
        row: Vec<i64>,
    },
    /// A tuple update (carries both images for redo and undo).
    Update {
        /// Table the tuple belongs to.
        table: TableId,
        /// Primary key.
        key: u64,
        /// Physical address.
        rid: Rid,
        /// Before-image (undo).
        before: Vec<i64>,
        /// After-image (redo).
        after: Vec<i64>,
    },
    /// A tuple delete (before-image for undo).
    Delete {
        /// Table the tuple belonged to.
        table: TableId,
        /// Primary key.
        key: u64,
        /// Physical address.
        rid: Rid,
        /// Deleted row.
        before: Vec<i64>,
    },
    /// Transaction commit point.
    Commit,
    /// Transaction abort (rollback already applied by the undo chain).
    Abort,
    /// Fuzzy checkpoint marker. `redo_lsn` is the low-water mark captured
    /// *before* the checkpoint's pool flush began: every record below it
    /// belongs to a transaction that had already finished, and its page
    /// effects were persisted by that flush. Recovery may therefore start
    /// redo at `redo_lsn`, and the log prefix before it can be reclaimed.
    Checkpoint {
        /// Earliest LSN recovery still needs.
        redo_lsn: Lsn,
    },
    /// Two-phase-commit participant vote: the transaction's effects are
    /// fully logged before this record and its locks stay held. From here
    /// on the transaction is *in doubt* — it may no longer abort
    /// unilaterally; only the coordinator's decision for `gtid` finishes it.
    Prepare {
        /// Global transaction id assigned by the coordinator.
        gtid: u64,
    },
    /// Coordinator-side decision record for global transaction `gtid`.
    /// Commit decisions are flushed before any participant commits (the
    /// global commit point); abort decisions may ride later flushes because
    /// recovery presumes abort for any gtid without a durable decision.
    Decide {
        /// Global transaction id.
        gtid: u64,
        /// `true` = commit, `false` = abort.
        commit: bool,
    },
    /// Coordinator gtid-allocator watermark: every gtid below `next` has
    /// either been decided or will never commit. Logged once per allocation
    /// batch so a recovered coordinator resumes past the bound and never
    /// reuses a gtid a participant may still hold prepared state for.
    GtidWatermark {
        /// First gtid the recovered allocator may hand out.
        next: u64,
    },
    /// Replication term (epoch) boundary. Written as the first record of a
    /// promoted primary's stream; every record after it was produced under
    /// `term`. A stream reader that has adopted a higher term treats records
    /// from a lower one as coming from a fenced, stale primary.
    TermChange {
        /// The new term, strictly greater than every prior term in the
        /// stream.
        term: u64,
    },
    /// A durable transition of the online-rebalancing state machine, written
    /// by two writers: the migration coordinator's own log records every
    /// phase change (so a crashed coordinator resumes or rolls forward
    /// idempotently), and the *source shard's* WAL gets one as the **fence
    /// marker** — the record whose LSN bounds the final filtered-tail ship,
    /// appended after the write fence has drained the moving slot.
    MigrationStep {
        /// Migration id (coordinator-scoped).
        mid: u64,
        /// State-machine phase ordinal (see `esdb-rebal`'s `Phase`).
        phase: u8,
        /// The hash slot being moved.
        slot: u32,
        /// Source shard.
        from: u32,
        /// Destination shard.
        to: u32,
        /// Phase-specific payload: the delta-ship start LSN for a copy
        /// record, the new routing epoch for a cutover record, 0 otherwise.
        mark: u64,
    },
}

impl LogBody {
    /// The one view of a row record — `(table, key, rid, images)` — and
    /// `None` for every other record. Encoding, redo, undo, the follower's
    /// apply and the slot catch-up all read row records through here.
    pub fn row(&self) -> Option<(TableId, u64, Rid, RowOp<'_>)> {
        let (table, key, rid, op) = match self {
            LogBody::Insert { table, key, rid, row } => (table, key, rid, RowOp::Insert { row }),
            LogBody::Update { table, key, rid, before, after } => (table, key, rid, RowOp::Update { before, after }),
            LogBody::Delete { table, key, rid, before } => (table, key, rid, RowOp::Delete { before }),
            _ => return None,
        };
        Some((*table, *key, *rid, op))
    }
}

/// The images of one row mutation, borrowed from wherever they already
/// live — the caller's argument, the row just read under the page latch, a
/// decoded record — so logging copies each image once, into the record, and
/// builds no owned [`LogBody`] on the way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowOp<'a> {
    /// A tuple insert.
    Insert {
        /// The inserted row.
        row: &'a [i64],
    },
    /// A tuple update.
    Update {
        /// Before-image (undo).
        before: &'a [i64],
        /// After-image (redo).
        after: &'a [i64],
    },
    /// A tuple delete.
    Delete {
        /// Deleted row.
        before: &'a [i64],
    },
}

impl<'a> RowOp<'a> {
    /// The mutation that takes the row back: an insert's inverse deletes
    /// the row, an update's swaps its images, a delete's re-inserts it.
    pub fn inverse(self) -> RowOp<'a> {
        match self {
            RowOp::Insert { row } => RowOp::Delete { before: row },
            RowOp::Update { before, after } => RowOp::Update { before: after, after: before },
            RowOp::Delete { before } => RowOp::Insert { row: before },
        }
    }
}

/// A fully decoded log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Byte offset of this record in the log stream.
    pub lsn: Lsn,
    /// Owning transaction (0 for system records such as checkpoints).
    pub txn_id: u64,
    /// Previous record of the same transaction ([`crate::NULL_LSN`] if none).
    pub prev_lsn: Lsn,
    /// Payload.
    pub body: LogBody,
}

/// The result of decoding a possibly-damaged log stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SalvagedLog {
    /// Every record of the valid prefix, in stream order.
    pub records: Vec<LogRecord>,
    /// Bytes of `bytes` covered by `records` (decoding stopped here).
    pub valid_len: u64,
    /// Why decoding stopped early, if it hit detectable corruption. `None`
    /// means the stream was clean or merely ended in a torn partial record.
    pub corruption: Option<WalError>,
}

fn put_row(out: &mut Vec<u8>, row: &[i64]) {
    out.put_u16_le(row.len() as u16);
    for v in row {
        out.put_i64_le(*v);
    }
}

/// Appends one frame to `out`: header, `tag`, whatever `body` writes, then
/// the length and checksum patched in.
fn frame(out: &mut Vec<u8>, txn_id: u64, prev_lsn: Lsn, tag: u8, body: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.put_u32_le(0); // length patched below
    out.put_u32_le(0); // crc patched below
    out.put_u64_le(txn_id);
    out.put_u64_le(prev_lsn);
    out.put_u8(tag);
    body(out);
    let len = (out.len() - at) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
    let mut crc = Crc32::new();
    crc.update(&out[at..at + 4]);
    crc.update(&out[at + 8..]);
    out[at + 4..at + 8].copy_from_slice(&crc.finish().to_le_bytes());
}

/// Appends the framed, checksummed wire form of a row mutation to `out` —
/// the same bytes as the [`LogBody`] variant of the same name.
pub fn encode_row_op_into(
    out: &mut Vec<u8>,
    txn_id: u64,
    prev_lsn: Lsn,
    table: TableId,
    key: u64,
    rid: Rid,
    op: RowOp<'_>,
) {
    let (tag, first, second) = match op {
        RowOp::Insert { row } => (1, row, None),
        RowOp::Update { before, after } => (2, before, Some(after)),
        RowOp::Delete { before } => (3, before, None),
    };
    frame(out, txn_id, prev_lsn, tag, |out| {
        out.put_u32_le(table);
        out.put_u64_le(key);
        out.put_u64_le(rid.to_u64());
        put_row(out, first);
        if let Some(row) = second {
            put_row(out, row);
        }
    });
}

/// Appends the framed, checksummed wire form of `body` to `out`.
pub fn encode_into(out: &mut Vec<u8>, txn_id: u64, prev_lsn: Lsn, body: &LogBody) {
    match body {
        LogBody::Begin => frame(out, txn_id, prev_lsn, 0, |_| {}),
        LogBody::Commit => frame(out, txn_id, prev_lsn, 4, |_| {}),
        LogBody::Abort => frame(out, txn_id, prev_lsn, 5, |_| {}),
        LogBody::Checkpoint { redo_lsn } => frame(out, txn_id, prev_lsn, 6, |out| out.put_u64_le(*redo_lsn)),
        LogBody::Prepare { gtid } => frame(out, txn_id, prev_lsn, 7, |out| out.put_u64_le(*gtid)),
        LogBody::Decide { gtid, commit } => frame(out, txn_id, prev_lsn, 8, |out| {
            out.put_u64_le(*gtid);
            out.put_u8(u8::from(*commit));
        }),
        LogBody::GtidWatermark { next } => frame(out, txn_id, prev_lsn, 9, |out| out.put_u64_le(*next)),
        LogBody::TermChange { term } => frame(out, txn_id, prev_lsn, 10, |out| out.put_u64_le(*term)),
        LogBody::MigrationStep { mid, phase, slot, from, to, mark } => frame(out, txn_id, prev_lsn, 11, |out| {
            out.put_u64_le(*mid);
            out.put_u8(*phase);
            out.put_u32_le(*slot);
            out.put_u32_le(*from);
            out.put_u32_le(*to);
            out.put_u64_le(*mark);
        }),
        row => {
            let (table, key, rid, op) = row.row().expect("every other tag is a row record");
            encode_row_op_into(out, txn_id, prev_lsn, table, key, rid, op)
        }
    }
}

/// [`encode_into`] a fresh buffer — for cold callers and tests; the append
/// path reuses a scratch instead.
pub fn encode(txn_id: u64, prev_lsn: Lsn, body: &LogBody) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    encode_into(&mut out, txn_id, prev_lsn, body);
    out
}

/// A total (never-panicking) little-endian cursor over a byte slice.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.buf.len() < n {
            return None;
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Some(head)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u16_le(&mut self) -> Option<u16> {
        self.take(2).map(|b| u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32_le(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4-byte slice")))
    }

    fn u64_le(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    fn i64_le(&mut self) -> Option<i64> {
        self.u64_le().map(|v| v as i64)
    }

    fn row(&mut self) -> Option<Vec<i64>> {
        let n = self.u16_le()? as usize;
        let mut row = Vec::with_capacity(n);
        for _ in 0..n {
            row.push(self.i64_le()?);
        }
        Some(row)
    }

    fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Decodes the payload of one CRC-verified frame (everything after the crc
/// field). Returns `None` on underflow; the caller maps that to
/// [`WalError::TruncatedBody`].
fn decode_payload(r: &mut Reader<'_>) -> Option<(u64, Lsn, Option<LogBody>)> {
    let txn_id = r.u64_le()?;
    let prev_lsn = r.u64_le()?;
    let tag = r.u8()?;
    let body = match tag {
        0 => LogBody::Begin,
        1..=3 => {
            let table = r.u32_le()?;
            let key = r.u64_le()?;
            let rid = Rid::from_u64(r.u64_le()?);
            let first = r.row()?;
            match tag {
                1 => LogBody::Insert { table, key, rid, row: first },
                2 => LogBody::Update { table, key, rid, before: first, after: r.row()? },
                _ => LogBody::Delete { table, key, rid, before: first },
            }
        }
        4 => LogBody::Commit,
        5 => LogBody::Abort,
        6 => {
            let redo_lsn = r.u64_le()?;
            LogBody::Checkpoint { redo_lsn }
        }
        7 => {
            let gtid = r.u64_le()?;
            LogBody::Prepare { gtid }
        }
        8 => {
            let gtid = r.u64_le()?;
            let commit = r.u8()? != 0;
            LogBody::Decide { gtid, commit }
        }
        9 => {
            let next = r.u64_le()?;
            LogBody::GtidWatermark { next }
        }
        10 => {
            let term = r.u64_le()?;
            LogBody::TermChange { term }
        }
        11 => {
            let mid = r.u64_le()?;
            let phase = r.u8()?;
            let slot = r.u32_le()?;
            let from = r.u32_le()?;
            let to = r.u32_le()?;
            let mark = r.u64_le()?;
            LogBody::MigrationStep { mid, phase, slot, from, to, mark }
        }
        _ => return Some((txn_id, prev_lsn, None)), // unknown tag
    };
    Some((txn_id, prev_lsn, Some(body)))
}

/// Parses `bytes` (starting at stream offset `base_lsn`) into the longest
/// valid prefix of records. Never panics: an incomplete final record is
/// treated as a torn tail and dropped; any detectable corruption — bad
/// length, checksum mismatch, or a CRC-valid frame that fails structural
/// decoding — stops the scan and is reported in
/// [`SalvagedLog::corruption`].
pub fn decode_stream_checked(bytes: &[u8], base_lsn: Lsn) -> SalvagedLog {
    let mut records = Vec::new();
    let mut off = 0usize;
    let mut corruption = None;
    while off < bytes.len() {
        let lsn = base_lsn + off as u64;
        if off + 8 > bytes.len() {
            break; // torn tail: not even a full len+crc header
        }
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4-byte slice"));
        if (len as usize) < MIN_RECORD || (len as usize) > MAX_RECORD {
            corruption = Some(WalError::BadLength { offset: lsn, len });
            break;
        }
        let len = len as usize;
        if off + len > bytes.len() {
            break; // torn tail: final record incomplete
        }
        let stored = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().expect("4-byte slice"));
        let mut crc = Crc32::new();
        crc.update(&bytes[off..off + 4]);
        crc.update(&bytes[off + 8..off + len]);
        let computed = crc.finish();
        if stored != computed {
            corruption = Some(WalError::BadChecksum {
                offset: lsn,
                stored,
                computed,
            });
            break;
        }
        let mut r = Reader::new(&bytes[off + 8..off + len]);
        match decode_payload(&mut r) {
            None => {
                corruption = Some(WalError::TruncatedBody { offset: lsn });
                break;
            }
            Some((_, _, None)) => {
                let tag = bytes[off + 24];
                corruption = Some(WalError::UnknownTag { offset: lsn, tag });
                break;
            }
            Some((txn_id, prev_lsn, Some(body))) => {
                if !r.is_empty() {
                    corruption = Some(WalError::TrailingGarbage { offset: lsn });
                    break;
                }
                records.push(LogRecord {
                    lsn,
                    txn_id,
                    prev_lsn,
                    body,
                });
            }
        }
        off += len;
    }
    SalvagedLog {
        records,
        valid_len: off as u64,
        corruption,
    }
}

/// Parses every record in `bytes`, which must start at stream offset
/// `base_lsn`. Ignores a trailing partial record (torn final write) and, like
/// [`decode_stream_checked`], stops at the first corrupt frame.
pub fn decode_stream(bytes: &[u8], base_lsn: Lsn) -> Vec<LogRecord> {
    decode_stream_checked(bytes, base_lsn).records
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NULL_LSN;

    fn roundtrip(bodies: Vec<(u64, Lsn, LogBody)>) {
        let mut stream = Vec::new();
        let mut offsets = Vec::new();
        for (txn, prev, body) in &bodies {
            offsets.push(stream.len() as u64);
            stream.extend_from_slice(&encode(*txn, *prev, body));
        }
        let salvaged = decode_stream_checked(&stream, 100);
        assert_eq!(salvaged.corruption, None);
        assert_eq!(salvaged.valid_len, stream.len() as u64);
        let decoded = salvaged.records;
        assert_eq!(decoded.len(), bodies.len());
        for (i, rec) in decoded.iter().enumerate() {
            assert_eq!(rec.lsn, 100 + offsets[i]);
            assert_eq!(rec.txn_id, bodies[i].0);
            assert_eq!(rec.prev_lsn, bodies[i].1);
            assert_eq!(rec.body, bodies[i].2);
        }
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(vec![
            (1, NULL_LSN, LogBody::Begin),
            (
                1,
                100,
                LogBody::Insert {
                    table: 3,
                    key: 42,
                    rid: Rid::new(7, 2),
                    row: vec![1, -5, i64::MAX],
                },
            ),
            (
                1,
                121,
                LogBody::Update {
                    table: 3,
                    key: 42,
                    rid: Rid::new(7, 2),
                    before: vec![1],
                    after: vec![2],
                },
            ),
            (
                2,
                NULL_LSN,
                LogBody::Delete {
                    table: 9,
                    key: 0,
                    rid: Rid::new(0, 0),
                    before: vec![],
                },
            ),
            (1, 160, LogBody::Commit),
            (2, 140, LogBody::Abort),
            (0, NULL_LSN, LogBody::Checkpoint { redo_lsn: 512 }),
            (3, 180, LogBody::Prepare { gtid: u64::MAX }),
            (0, NULL_LSN, LogBody::Decide { gtid: 7, commit: true }),
            (0, NULL_LSN, LogBody::Decide { gtid: 8, commit: false }),
            (0, NULL_LSN, LogBody::GtidWatermark { next: 1024 }),
            (0, NULL_LSN, LogBody::TermChange { term: 3 }),
            (
                0,
                NULL_LSN,
                LogBody::MigrationStep {
                    mid: 5,
                    phase: 3,
                    slot: 11,
                    from: 0,
                    to: 2,
                    mark: u64::MAX,
                },
            ),
        ]);
    }

    #[test]
    fn the_row_view_sees_exactly_the_row_records() {
        let rid = Rid::new(7, 2);
        let update = LogBody::Update { table: 3, key: 42, rid, before: vec![1], after: vec![2] };
        let op = RowOp::Update { before: &[1], after: &[2] };
        assert_eq!(update.row(), Some((3, 42, rid, op)));
        assert_eq!(op.inverse(), RowOp::Update { before: &[2], after: &[1] });
        let insert = RowOp::Insert { row: &[5] };
        assert_eq!(insert.inverse(), RowOp::Delete { before: &[5] });
        assert_eq!(insert.inverse().inverse(), insert);
        for body in [LogBody::Begin, LogBody::Commit, LogBody::Abort, LogBody::Prepare { gtid: 1 }] {
            assert_eq!(body.row(), None);
        }
    }

    #[test]
    fn torn_tail_is_ignored() {
        let first = encode(1, NULL_LSN, &LogBody::Begin);
        let mut stream = first.clone();
        let full = encode(1, 8, &LogBody::Commit);
        stream.extend_from_slice(&full[..full.len() - 3]); // torn
        let salvaged = decode_stream_checked(&stream, 8);
        assert_eq!(salvaged.records.len(), 1);
        assert_eq!(salvaged.records[0].body, LogBody::Begin);
        assert_eq!(salvaged.corruption, None, "a torn tail is not corruption");
        assert_eq!(salvaged.valid_len, first.len() as u64);
    }

    #[test]
    fn empty_stream_decodes_empty() {
        assert!(decode_stream(&[], 8).is_empty());
    }

    #[test]
    fn every_bit_flip_is_detected_or_torn() {
        // Flip every bit of a two-record stream in turn: decode must never
        // panic and must never return a *wrong* record — each flip either
        // fails the CRC / length check or (if it hits the final record's
        // length so the frame no longer fits) reads as a torn tail.
        let mut stream = encode(7, NULL_LSN, &LogBody::Begin);
        stream.extend_from_slice(&encode(
            7,
            0,
            &LogBody::Insert {
                table: 1,
                key: 9,
                rid: Rid::new(3, 1),
                row: vec![5, -5],
            },
        ));
        let clean = decode_stream_checked(&stream, 0);
        assert_eq!(clean.records.len(), 2);
        for byte in 0..stream.len() {
            for bit in 0..8 {
                let mut bad = stream.clone();
                bad[byte] ^= 1 << bit;
                let salvaged = decode_stream_checked(&bad, 0);
                for rec in &salvaged.records {
                    let original = clean.records.iter().find(|r| r.lsn == rec.lsn);
                    assert_eq!(original, Some(rec), "flip {byte}:{bit} forged a record");
                }
                if salvaged.records.len() < 2 {
                    // The damaged suffix must be accounted for: either
                    // reported corruption or a frame that no longer fits.
                    let stopped_at = salvaged.valid_len as usize;
                    assert!(
                        salvaged.corruption.is_some() || stopped_at + 8 > bad.len() || {
                            let len = u32::from_le_bytes(
                                bad[stopped_at..stopped_at + 4].try_into().unwrap(),
                            ) as usize;
                            stopped_at + len > bad.len()
                        },
                        "flip {byte}:{bit} silently dropped a record"
                    );
                }
            }
        }
    }

    #[test]
    fn mid_stream_corruption_salvages_prefix() {
        let mut stream = Vec::new();
        for i in 0..5u64 {
            stream.extend_from_slice(&encode(i + 1, NULL_LSN, &LogBody::Begin));
        }
        let record_len = stream.len() / 5;
        // Corrupt a body byte of the third record.
        stream[2 * record_len + 12] ^= 0x40;
        let salvaged = decode_stream_checked(&stream, 0);
        assert_eq!(salvaged.records.len(), 2, "prefix before the damage survives");
        assert_eq!(salvaged.valid_len, (2 * record_len) as u64);
        match salvaged.corruption {
            Some(WalError::BadChecksum { offset, .. }) => {
                assert_eq!(offset, (2 * record_len) as u64)
            }
            other => panic!("expected BadChecksum, got {other:?}"),
        }
    }

    #[test]
    fn unknown_tag_is_reported_not_panicked() {
        // Hand-build a CRC-valid frame with tag 99.
        let mut frame = Vec::new();
        frame.extend_from_slice(&(MIN_RECORD as u32).to_le_bytes());
        frame.extend_from_slice(&[0; 4]); // crc placeholder
        frame.extend_from_slice(&1u64.to_le_bytes());
        frame.extend_from_slice(&NULL_LSN.to_le_bytes());
        frame.push(99);
        let mut crc = Crc32::new();
        crc.update(&frame[0..4]);
        crc.update(&frame[8..]);
        let sum = crc.finish();
        frame[4..8].copy_from_slice(&sum.to_le_bytes());
        let salvaged = decode_stream_checked(&frame, 0);
        assert!(salvaged.records.is_empty());
        assert_eq!(
            salvaged.corruption,
            Some(WalError::UnknownTag { offset: 0, tag: 99 })
        );
    }

    #[test]
    fn bad_length_is_reported() {
        let mut stream = encode(1, NULL_LSN, &LogBody::Begin);
        let tail_lsn = stream.len() as u64;
        stream.extend_from_slice(&3u32.to_le_bytes()); // impossible length
        stream.extend_from_slice(&[0; 8]);
        let salvaged = decode_stream_checked(&stream, 0);
        assert_eq!(salvaged.records.len(), 1);
        assert_eq!(
            salvaged.corruption,
            Some(WalError::BadLength { offset: tail_lsn, len: 3 })
        );
    }

    #[test]
    fn wal_error_display_carries_offset() {
        let e = WalError::BadChecksum { offset: 1234, stored: 1, computed: 2 };
        assert!(e.to_string().contains("1234"));
        assert_eq!(e.offset(), 1234);
    }
}

//! Minimal schema/catalog types and tuple encoding.
//!
//! Tuples are fixed-arity rows of `i64` columns. This deliberately spartan
//! model covers the OLTP benchmarks the keynote's line of work evaluates on
//! (TATP, TPC-C-style mixes reduce to integer keys, counters, and balances)
//! while keeping the tuple codec a trivially fast, fixed-width copy — the
//! storage manager, not the codec, should be what experiments measure.

use crate::StorageError;

/// Identifier of a table in the catalog.
pub type TableId = u32;

/// Identifier of a secondary index within its table.
pub type IndexId = u32;

/// Physical shape of a secondary index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Partitioned hash index: equality lookups only.
    Hash,
    /// Ordered index: equality and range lookups.
    Range,
}

impl IndexKind {
    /// Stable wire/catalog encoding of the kind.
    pub fn as_u8(self) -> u8 {
        match self {
            IndexKind::Hash => 0,
            IndexKind::Range => 1,
        }
    }

    /// Inverse of [`IndexKind::as_u8`]; `None` on unknown codes.
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(IndexKind::Hash),
            1 => Some(IndexKind::Range),
            _ => None,
        }
    }
}

/// Declaration of one secondary index over a single `i64` column.
///
/// Index declarations live in the table's [`Schema`] so they travel with the
/// catalog: through checkpoints, crash recovery, and replica snapshots. The
/// indexed column is identified by its position in the row (`col`), never by
/// the primary key (which already has the table's B+tree).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDef {
    /// Index id, unique within the table.
    pub id: IndexId,
    /// Human-readable index name.
    pub name: String,
    /// Indexed column position (0-based, into the row's columns).
    pub col: usize,
    /// Physical shape.
    pub kind: IndexKind,
}

/// Description of one table: a name, a column count, and any secondary
/// index declarations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    /// Table id.
    pub id: TableId,
    /// Human-readable table name.
    pub name: String,
    /// Number of `i64` columns (excluding the primary key).
    pub arity: usize,
    /// Secondary indexes declared over this table's columns.
    pub indexes: Vec<IndexDef>,
}

impl Schema {
    /// Creates a schema with no secondary indexes.
    pub fn new(id: TableId, name: impl Into<String>, arity: usize) -> Self {
        Schema {
            id,
            name: name.into(),
            arity,
            indexes: Vec::new(),
        }
    }

    /// Creates a schema carrying secondary index declarations.
    pub fn with_indexes(
        id: TableId,
        name: impl Into<String>,
        arity: usize,
        indexes: Vec<IndexDef>,
    ) -> Self {
        Schema {
            id,
            name: name.into(),
            arity,
            indexes,
        }
    }
}

/// Encodes `key` and `row` into the on-page byte representation.
pub fn encode_row(key: u64, row: &[i64]) -> Vec<u8> {
    let mut out = vec![0; encoded_len(row)];
    encode_row_into(key, row, &mut out);
    out
}

/// Length of [`encode_row`]'s encoding of `row`.
pub fn encoded_len(row: &[i64]) -> usize {
    8 + 8 * row.len()
}

/// [`encode_row`] into `out`, which is [`encoded_len`] bytes long: how a
/// tuple is written straight into its page.
pub fn encode_row_into(key: u64, row: &[i64], out: &mut [u8]) {
    let (head, cols) = out.split_at_mut(8);
    head.copy_from_slice(&key.to_le_bytes());
    for (dst, v) in cols.chunks_exact_mut(8).zip(row) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

/// A borrowed, validated view of one encoded row: the key and the columns
/// are read straight from the page bytes, so a scan decodes into buffers it
/// already owns instead of allocating a `Vec` per tuple.
///
/// On-page rows are only ever written by [`encode_row`], so a slice that is
/// shorter than a key or not a multiple of 8 bytes is corruption — reported
/// as [`StorageError::CorruptRow`] rather than aborting the process, so a bad
/// heap page degrades to a failed operation.
#[derive(Debug, Clone, Copy)]
pub struct RowRef<'a>(&'a [u8]);

impl<'a> RowRef<'a> {
    /// Validates `bytes` as an encoded row of however many columns it holds.
    pub fn new(bytes: &'a [u8]) -> crate::Result<Self> {
        if bytes.len() < 8 || !bytes.len().is_multiple_of(8) {
            return Err(StorageError::CorruptRow { len: bytes.len() });
        }
        Ok(RowRef(bytes))
    }

    /// Validates `bytes` as an encoded row of exactly `arity` columns: the
    /// width a table's schema fixes for every tuple it stores.
    #[inline]
    pub fn with_arity(bytes: &'a [u8], arity: usize) -> crate::Result<Self> {
        if bytes.len() != 8 * (arity + 1) {
            return Err(StorageError::CorruptRow { len: bytes.len() });
        }
        Ok(RowRef(bytes))
    }

    /// Number of columns (the key excluded).
    pub fn arity(self) -> usize {
        self.0.len() / 8 - 1
    }

    /// Field `i` of the row read as `[key, col0, col1, ..]` — the shape a
    /// query plan sees. Panics if `i > arity`.
    #[inline]
    pub fn field(self, i: usize) -> i64 {
        field_at(self.0, 0, i)
    }

    /// The primary key.
    #[inline]
    pub fn key(self) -> u64 {
        self.field(0) as u64
    }

    /// The columns, in order.
    pub fn cols(self) -> impl Iterator<Item = i64> + 'a {
        self.0[8..].chunks_exact(8).map(|c| i64::from_le_bytes(c.try_into().expect("8-byte chunk")))
    }
}

/// Field `i`, as [`RowRef::field`] reads it, of the row encoded at byte
/// `row` of `bytes`: how a scan that has validated a page's tuples decodes
/// one column of all of them.
#[inline]
pub(crate) fn field_at(bytes: &[u8], row: usize, i: usize) -> i64 {
    let at = row + 8 * i;
    i64::from_le_bytes(bytes[at..at + 8].try_into().expect("8-byte field"))
}

/// Decodes a row produced by [`encode_row`] into owned `(key, columns)`.
pub fn decode_row(bytes: &[u8]) -> crate::Result<(u64, Vec<i64>)> {
    RowRef::new(bytes).map(|row| (row.key(), row.cols().collect()))
}

/// Decodes only the key of an encoded row.
pub fn decode_key(bytes: &[u8]) -> crate::Result<u64> {
    let head: [u8; 8] = bytes
        .get(0..8)
        .and_then(|s| s.try_into().ok())
        .ok_or(StorageError::CorruptRow { len: bytes.len() })?;
    Ok(u64::from_le_bytes(head))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let row = vec![1, -2, i64::MAX, i64::MIN];
        let bytes = encode_row(42, &row);
        assert_eq!(bytes.len(), 8 + 32);
        let (key, decoded) = decode_row(&bytes).unwrap();
        assert_eq!(key, 42);
        assert_eq!(decoded, row);
        assert_eq!(decode_key(&bytes).unwrap(), 42);
        let view = RowRef::new(&bytes).unwrap();
        assert_eq!((view.key(), view.arity()), (42, 4));
        assert_eq!([view.field(0), view.field(1), view.field(4)], [42, 1, i64::MIN]);
    }

    #[test]
    fn empty_row_is_just_a_key() {
        let bytes = encode_row(7, &[]);
        assert_eq!(decode_row(&bytes).unwrap(), (7, vec![]));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(
            decode_row(&[1, 2, 3]).unwrap_err(),
            StorageError::CorruptRow { len: 3 }
        );
        assert_eq!(
            decode_key(&[1, 2, 3]).unwrap_err(),
            StorageError::CorruptRow { len: 3 }
        );
        // Multiple of 8 but shorter than a key.
        assert_eq!(
            decode_row(&[]).unwrap_err(),
            StorageError::CorruptRow { len: 0 }
        );
    }
}

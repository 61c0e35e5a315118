//! Secondary indexes over single `i64` columns.
//!
//! A [`SecondaryIndex`] maps column values to primary-key sets. Both kinds
//! share one postings type — an ordered `value → pk set` map behind a
//! [`Latched`] — and differ only in how many of them there are: a `Hash`
//! index spreads values over 16 independently latched partitions (equality
//! only), a `Range` index keeps one (equality and range). Maintenance has
//! set semantics — adding or removing a `(value, pk)` pair is idempotent —
//! so the same calls are safe from the logged write path, from WAL redo
//! during recovery, and from a replica re-applying a log suffix after
//! reinstalling its snapshot. Replaying any prefix twice converges to
//! identical contents instead of corrupting counts.
//!
//! Indexes are derived state: they are never checkpointed or shipped.
//! Recovery and replica bootstrap rebuild them from the heap
//! ([`crate::table::Table::rebuild_secondaries`]) and then keep them current
//! through redo, exactly like the primary B+tree.

use crate::schema::{IndexDef, IndexKind};
use esdb_sync::Latched;
use std::collections::{BTreeMap, BTreeSet};

/// One partition's contents: column value → primary keys.
type Postings = BTreeMap<i64, BTreeSet<u64>>;

/// Partitions of a `Hash` index; a `Range` index has one.
const HASH_PARTITIONS: usize = 16;

/// Fibonacci-style multiplicative hash spreading sequential values.
#[inline]
fn spread(value: i64) -> usize {
    (value as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) as usize
}

/// Adds `(value, pk)`; a no-op if present.
fn add(postings: &mut Postings, value: i64, pk: u64) {
    postings.entry(value).or_default().insert(pk);
}

/// Removes `(value, pk)`; a no-op if absent.
fn remove(postings: &mut Postings, value: i64, pk: u64) {
    if let Some(set) = postings.get_mut(&value) {
        set.remove(&pk);
        if set.is_empty() {
            postings.remove(&value);
        }
    }
}

/// One secondary index instance: an [`IndexDef`] plus its live contents.
pub struct SecondaryIndex {
    def: IndexDef,
    /// A power-of-two count of partitions, picked by `spread(value)`.
    parts: Box<[Latched<Postings>]>,
}

impl SecondaryIndex {
    /// Builds an empty index for `def`.
    pub fn new(def: IndexDef) -> Self {
        let n = match def.kind {
            IndexKind::Hash => HASH_PARTITIONS,
            IndexKind::Range => 1,
        };
        SecondaryIndex {
            def,
            parts: (0..n).map(|_| Latched::default()).collect(),
        }
    }

    /// The declaration this index materializes.
    pub fn def(&self) -> &IndexDef {
        &self.def
    }

    /// The indexed column's value in `row`, if the row is wide enough.
    fn col_value(&self, row: &[i64]) -> Option<i64> {
        row.get(self.def.col).copied()
    }

    /// The partition holding `value`.
    fn part(&self, value: i64) -> &Latched<Postings> {
        &self.parts[spread(value) & (self.parts.len() - 1)]
    }

    /// Indexes `row` under primary key `pk`. Idempotent.
    pub fn insert_row(&self, pk: u64, row: &[i64]) {
        if let Some(v) = self.col_value(row) {
            add(&mut self.part(v).write(), v, pk);
        }
    }

    /// Un-indexes `row` under primary key `pk`. Idempotent.
    pub fn remove_row(&self, pk: u64, row: &[i64]) {
        if let Some(v) = self.col_value(row) {
            remove(&mut self.part(v).write(), v, pk);
        }
    }

    /// Moves `pk` from its `before` image to its `after` image. When both
    /// values share a partition — always, for a `Range` index — the move is
    /// one latch hold, so no lookup sees `pk` under neither value.
    pub fn update_row(&self, pk: u64, before: &[i64], after: &[i64]) {
        match (self.col_value(before), self.col_value(after)) {
            (old, new) if old == new => {}
            (Some(old), Some(new)) if std::ptr::eq(self.part(old), self.part(new)) => {
                let mut postings = self.part(old).write();
                remove(&mut postings, old, pk);
                add(&mut postings, new, pk);
            }
            _ => {
                self.remove_row(pk, before);
                self.insert_row(pk, after);
            }
        }
    }

    /// Primary keys whose indexed column equals `value`, ascending.
    pub fn lookup_eq(&self, value: i64) -> Vec<u64> {
        let postings = self.part(value).read();
        postings.get(&value).map(|s| s.iter().copied().collect()).unwrap_or_default()
    }

    /// Primary keys whose indexed column lies in `[lo, hi]`, ascending.
    /// `None` for hash-shaped indexes, which cannot serve ranges.
    pub fn lookup_range(&self, lo: i64, hi: i64) -> Option<Vec<u64>> {
        if self.def.kind == IndexKind::Hash {
            return None;
        }
        // An empty window is a valid (empty) answer, not a panic —
        // `lo`/`hi` can arrive straight off the wire.
        if lo > hi {
            return Some(Vec::new());
        }
        // A `Range` index is one partition, so one hold sees the window whole.
        let postings = self.parts[0].read();
        let mut pks: Vec<u64> = postings.range(lo..=hi).flat_map(|(_, s)| s.iter().copied()).collect();
        drop(postings);
        pks.sort_unstable();
        pks.dedup();
        Some(pks)
    }

    /// Total `(value, pk)` pairs.
    pub fn len(&self) -> usize {
        self.parts.iter().map(|p| p.read().values().map(|s| s.len()).sum::<usize>()).sum()
    }

    /// Returns `true` if the index holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Canonical contents: every `(value, sorted pks)` group sorted by
    /// value. Two indexes with equal `entries()` are byte-identical under
    /// any serialization — this is what idempotence torture compares.
    pub fn entries(&self) -> Vec<(i64, Vec<u64>)> {
        let mut all: Vec<(i64, Vec<u64>)> = Vec::new();
        for p in self.parts.iter() {
            all.extend(p.read().iter().map(|(v, s)| (*v, s.iter().copied().collect())));
        }
        all.sort_unstable_by_key(|(v, _)| *v);
        all
    }

    /// Drops all contents (rebuild precursor).
    pub fn clear(&self) {
        for p in self.parts.iter() {
            p.write().clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    fn def(kind: IndexKind) -> IndexDef {
        IndexDef {
            id: 0,
            name: "ix".into(),
            col: 1,
            kind,
        }
    }

    #[test]
    fn hash_and_range_agree_on_equality() {
        for kind in [IndexKind::Hash, IndexKind::Range] {
            let ix = SecondaryIndex::new(def(kind));
            ix.insert_row(10, &[0, 5]);
            ix.insert_row(11, &[0, 5]);
            ix.insert_row(12, &[0, -3]);
            assert_eq!(ix.lookup_eq(5), vec![10, 11]);
            assert_eq!(ix.lookup_eq(-3), vec![12]);
            assert_eq!(ix.lookup_eq(99), Vec::<u64>::new());
            ix.update_row(11, &[0, 5], &[0, -3]);
            assert_eq!(ix.lookup_eq(5), vec![10]);
            assert_eq!(ix.lookup_eq(-3), vec![11, 12]);
            ix.remove_row(12, &[0, -3]);
            assert_eq!(ix.lookup_eq(-3), vec![11]);
        }
    }

    #[test]
    fn range_lookup_spans_values() {
        let ix = SecondaryIndex::new(def(IndexKind::Range));
        for pk in 0..10u64 {
            ix.insert_row(pk, &[0, pk as i64 - 5]);
        }
        assert_eq!(ix.lookup_range(-2, 1).unwrap(), vec![3, 4, 5, 6]);
        assert_eq!(ix.lookup_range(i64::MIN, i64::MAX).unwrap().len(), 10);
        let hash = SecondaryIndex::new(def(IndexKind::Hash));
        assert!(hash.lookup_range(0, 1).is_none());
    }

    #[test]
    fn maintenance_is_idempotent() {
        for kind in [IndexKind::Hash, IndexKind::Range] {
            let ix = SecondaryIndex::new(def(kind));
            ix.insert_row(1, &[0, 7]);
            ix.insert_row(1, &[0, 7]);
            assert_eq!(ix.len(), 1);
            ix.remove_row(1, &[0, 7]);
            ix.remove_row(1, &[0, 7]);
            assert!(ix.is_empty());
        }
    }

    #[test]
    fn set_semantics_hold_for_both_kinds() {
        for kind in [IndexKind::Hash, IndexKind::Range] {
            let ix = SecondaryIndex::new(def(kind));
            ix.insert_row(1, &[0, 7]);
            ix.insert_row(1, &[0, 7]);
            ix.insert_row(2, &[0, 7]);
            ix.insert_row(1, &[0, -5]);
            assert_eq!(ix.len(), 3);
            ix.remove_row(1, &[0, 7]);
            ix.remove_row(1, &[0, 7]);
            assert_eq!(ix.entries(), vec![(-5, vec![1]), (7, vec![2])]);
            ix.clear();
            assert!(ix.is_empty());
        }
    }

    #[test]
    fn narrow_rows_are_skipped() {
        let ix = SecondaryIndex::new(def(IndexKind::Range));
        ix.insert_row(1, &[0]);
        assert!(ix.is_empty());
    }

    #[test]
    fn hash_values_spread_across_partitions() {
        assert_eq!(SecondaryIndex::new(def(IndexKind::Range)).parts.len(), 1);
        let ix = SecondaryIndex::new(def(IndexKind::Hash));
        assert_eq!(ix.parts.len(), HASH_PARTITIONS);
        for v in 0..1_000i64 {
            ix.insert_row(v as u64, &[0, v]);
        }
        assert_eq!(ix.len(), 1_000);
        // Sequential values must not all land in one partition.
        let occupied = ix.parts.iter().filter(|p| !p.read().is_empty()).count();
        assert!(occupied >= 12, "only {occupied}/{HASH_PARTITIONS} partitions used");
    }

    #[test]
    fn concurrent_hash_maintenance_matches_model() {
        // Each thread owns its pks but shares the values, so threads contend
        // for the same postings. Per pk: (pk, value, value after update, removed).
        let script = |t: u64| {
            (0..1_000u64).map(move |k| {
                let v = (k % 50) as i64;
                (t * 10_000 + k, v, if k % 3 == 0 { v + 1 } else { v }, k % 5 == 0)
            })
        };
        let ix = Arc::new(SecondaryIndex::new(def(IndexKind::Hash)));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let ix = Arc::clone(&ix);
                std::thread::spawn(move || {
                    for (pk, v, after, removed) in script(t) {
                        ix.insert_row(pk, &[0, v]);
                        ix.update_row(pk, &[0, v], &[0, after]);
                        if removed {
                            ix.remove_row(pk, &[0, after]);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut model: BTreeMap<i64, Vec<u64>> = BTreeMap::new();
        for (pk, _, after, removed) in (0..4).flat_map(script) {
            if !removed {
                model.entry(after).or_default().push(pk);
            }
        }
        assert_eq!(ix.entries(), model.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn a_range_update_is_never_seen_half_done() {
        // One thread flips pk 7 between values 1 and 2; a range covering
        // both must contain it at every instant.
        let ix = Arc::new(SecondaryIndex::new(def(IndexKind::Range)));
        ix.insert_row(7, &[0, 1]);
        let done = Arc::new(AtomicBool::new(false));
        let flipper = {
            let (ix, done) = (Arc::clone(&ix), Arc::clone(&done));
            std::thread::spawn(move || {
                for i in 0..50_000 {
                    let (a, b) = if i % 2 == 0 { (1, 2) } else { (2, 1) };
                    ix.update_row(7, &[0, a], &[0, b]);
                }
                done.store(true, Ordering::Release);
            })
        };
        let mut misses = 0;
        while !done.load(Ordering::Acquire) {
            if ix.lookup_range(0, 3) != Some(vec![7]) {
                misses += 1;
            }
        }
        flipper.join().unwrap();
        assert_eq!(misses, 0, "a range scan missed a row mid-update");
    }
}

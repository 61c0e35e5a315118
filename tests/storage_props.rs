//! Property-based tests of the storage substrates against model oracles.

use esdb::storage::btree::BTree;
use esdb::storage::page::Page;
use esdb::storage::schema::{decode_row, encode_row};
use esdb::storage::{IndexDef, IndexKind, SecondaryIndex};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

#[derive(Debug, Clone)]
enum MapOp {
    Insert(u64, u64),
    InsertIfAbsent(u64, u64),
    Remove(u64),
    Get(u64),
    Range(u64, u64),
}

fn arb_map_op() -> impl Strategy<Value = MapOp> {
    prop_oneof![
        (0u64..500, any::<u64>()).prop_map(|(k, v)| MapOp::Insert(k, v)),
        (0u64..500, any::<u64>()).prop_map(|(k, v)| MapOp::InsertIfAbsent(k, v)),
        (0u64..500).prop_map(MapOp::Remove),
        (0u64..500).prop_map(MapOp::Get),
        (0u64..500, 0u64..500).prop_map(|(a, b)| MapOp::Range(a.min(b), a.max(b))),
    ]
}

#[derive(Debug, Clone)]
enum IxOp {
    Insert(u64, i64),
    Remove(u64, i64),
    Update(u64, i64, i64),
    Eq(i64),
    Range(i64, i64),
}

/// Column values: a dense middle where pks collide, plus the `i64` edges.
fn arb_ix_value() -> impl Strategy<Value = i64> {
    (0u8..12, -20i64..20).prop_map(|(pick, x)| match pick {
        0 => i64::MIN,
        1 => i64::MIN + 1,
        2 => i64::MAX - 1,
        3 => i64::MAX,
        _ => x,
    })
}

fn arb_ix_op() -> impl Strategy<Value = IxOp> {
    let v = arb_ix_value;
    prop_oneof![
        (0u64..40, v()).prop_map(|(pk, x)| IxOp::Insert(pk, x)),
        (0u64..40, v()).prop_map(|(pk, x)| IxOp::Remove(pk, x)),
        (0u64..40, v(), v()).prop_map(|(pk, a, b)| IxOp::Update(pk, a, b)),
        v().prop_map(IxOp::Eq),
        // Unordered on purpose: `lo > hi` is an empty window.
        (v(), v()).prop_map(|(lo, hi)| IxOp::Range(lo, hi)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The concurrent B+tree agrees with `BTreeMap` on arbitrary op tapes,
    /// each after a key-ordered load of the even keys below `2 * len`. A long
    /// ascending load splits internal nodes on two levels by the append rule
    /// and leaves every node full, a long descending one splits them at the
    /// midpoint. Then `fill` inserts odd keys at random across the load, and
    /// the tape's odd keys below 500 land in its first leaves. The tree's
    /// invariants hold after every tape.
    #[test]
    fn btree_matches_btreemap(
        (ascending, len) in prop_oneof![
            (Just(true), 0u64..1_200),
            (Just(true), 35_000u64..36_000),
            (Just(false), 10_000u64..11_000),
        ],
        fill in prop::collection::vec(any::<u64>(), 0..64),
        ops in prop::collection::vec(arb_map_op(), 1..400),
    ) {
        let mut tree = BTree::new();
        let load = (0..len).map(|i| (2 * if ascending { i } else { len - 1 - i }, i));
        for (k, v) in load.clone() {
            prop_assert_eq!(tree.insert(k, v), None);
        }
        let mut model: BTreeMap<u64, u64> = load.collect();
        prop_assert!(len < 10_000 || tree.height() == 4, "a long load splits two internal levels");
        for x in fill {
            let k = (x % (2 * len).max(1)) | 1;
            prop_assert_eq!(tree.insert(k, x), model.insert(k, x));
        }
        for op in ops {
            match op {
                MapOp::Insert(k, v) => {
                    prop_assert_eq!(tree.insert(k, v), model.insert(k, v));
                }
                MapOp::InsertIfAbsent(k, v) => {
                    prop_assert_eq!(tree.insert_if_absent(k, v), model.get(&k).copied());
                    model.entry(k).or_insert(v);
                }
                MapOp::Remove(k) => {
                    prop_assert_eq!(tree.remove(k), model.remove(&k));
                }
                MapOp::Get(k) => {
                    prop_assert_eq!(tree.get(k), model.get(&k).copied());
                }
                MapOp::Range(a, b) => {
                    let got = tree.range(a, b);
                    let want: Vec<(u64, u64)> =
                        model.range(a..=b).map(|(k, v)| (*k, *v)).collect();
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(tree.len() as usize, model.len());
        }
        tree.assert_invariants();
        prop_assert!(tree.range(0, u64::MAX).into_iter().eq(model.into_iter()));
    }

    /// Both secondary-index kinds agree with a postings model under
    /// idempotent maintenance, at the `i64` edges and for empty windows.
    #[test]
    fn secondary_matches_model(ops in prop::collection::vec(arb_ix_op(), 1..300)) {
        for kind in [IndexKind::Hash, IndexKind::Range] {
            let ix = SecondaryIndex::new(IndexDef { id: 0, name: "ix".into(), col: 1, kind });
            let mut model: BTreeMap<i64, BTreeSet<u64>> = BTreeMap::new();
            let unindex = |model: &mut BTreeMap<i64, BTreeSet<u64>>, v: i64, pk: u64| {
                if let Some(set) = model.get_mut(&v) {
                    set.remove(&pk);
                    if set.is_empty() {
                        model.remove(&v);
                    }
                }
            };
            for op in &ops {
                match *op {
                    IxOp::Insert(pk, v) => {
                        ix.insert_row(pk, &[0, v]);
                        model.entry(v).or_default().insert(pk);
                    }
                    IxOp::Remove(pk, v) => {
                        ix.remove_row(pk, &[0, v]);
                        unindex(&mut model, v, pk);
                    }
                    IxOp::Update(pk, old, new) => {
                        ix.update_row(pk, &[0, old], &[0, new]);
                        if old != new {
                            unindex(&mut model, old, pk);
                            model.entry(new).or_default().insert(pk);
                        }
                    }
                    IxOp::Eq(v) => {
                        let want: Vec<u64> = model.get(&v).into_iter().flatten().copied().collect();
                        prop_assert_eq!(ix.lookup_eq(v), want);
                    }
                    IxOp::Range(lo, hi) => {
                        let want = (kind == IndexKind::Range).then(|| {
                            let mut pks: Vec<u64> = if lo > hi {
                                Vec::new()
                            } else {
                                model.range(lo..=hi).flat_map(|(_, s)| s.iter().copied()).collect()
                            };
                            pks.sort_unstable();
                            pks.dedup();
                            pks
                        });
                        prop_assert_eq!(ix.lookup_range(lo, hi), want);
                    }
                }
                prop_assert_eq!(ix.len(), model.values().map(|s| s.len()).sum::<usize>());
            }
            let want: Vec<(i64, Vec<u64>)> =
                model.iter().map(|(v, s)| (*v, s.iter().copied().collect())).collect();
            prop_assert_eq!(ix.entries(), want);
        }
    }

    /// Slotted pages never lose or corrupt live tuples under arbitrary
    /// insert/update/delete sequences.
    #[test]
    fn page_preserves_live_tuples(
        ops in prop::collection::vec(
            (0u8..3, prop::collection::vec(any::<u8>(), 1..64)),
            1..150,
        )
    ) {
        let mut page = Page::new();
        let mut model: Vec<(u16, Vec<u8>)> = Vec::new();
        for (kind, data) in ops {
            match kind {
                0 => {
                    if let Some(slot) = page.insert(&data) {
                        model.retain(|(s, _)| *s != slot);
                        model.push((slot, data));
                    }
                }
                1 => {
                    if let Some(&(slot, _)) = model.first() {
                        if page.update(slot, &data) {
                            model[0].1 = data;
                        }
                    }
                }
                _ => {
                    if let Some((slot, want)) = model.pop() {
                        let got = page.delete(slot);
                        prop_assert_eq!(got, Some(want));
                    }
                }
            }
            for (slot, want) in &model {
                prop_assert_eq!(page.get(*slot), Some(want.as_slice()));
            }
        }
    }

    /// Row codec roundtrips arbitrary rows.
    #[test]
    fn row_codec_roundtrips(key in any::<u64>(), row in prop::collection::vec(any::<i64>(), 0..32)) {
        let bytes = encode_row(key, &row);
        let (k, r) = decode_row(&bytes).unwrap();
        prop_assert_eq!(k, key);
        prop_assert_eq!(r, row);
    }

    /// Log records roundtrip through the wire format.
    #[test]
    fn log_record_roundtrips(
        txn in 1u64..1000,
        prev in 0u64..10_000,
        key in any::<u64>(),
        table in 0u32..64,
        page in 0u64..(1 << 20),
        slot in any::<u16>(),
        before in prop::collection::vec(any::<i64>(), 0..8),
        after in prop::collection::vec(any::<i64>(), 0..8),
    ) {
        use esdb::wal::record::{decode_stream, encode};
        use esdb::wal::LogBody;
        let rid = esdb::storage::Rid::new(page, slot);
        for body in [
            LogBody::Begin,
            LogBody::Insert { table, key, rid, row: after.clone() },
            LogBody::Update { table, key, rid, before: before.clone(), after: after.clone() },
            LogBody::Delete { table, key, rid, before: before.clone() },
            LogBody::Commit,
            LogBody::Abort,
        ] {
            let bytes = encode(txn, prev, &body);
            let decoded = decode_stream(&bytes, 8);
            prop_assert_eq!(decoded.len(), 1);
            prop_assert_eq!(&decoded[0].body, &body);
            prop_assert_eq!(decoded[0].txn_id, txn);
            prop_assert_eq!(decoded[0].prev_lsn, prev);
        }
    }
}

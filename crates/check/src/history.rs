//! History recording and the conflict-graph serializability oracle.
//!
//! The recorder captures every successful read/write a transaction attempt
//! performs (stamped with a global sequence number — exact, because only one
//! virtual thread runs at a time) plus the set of attempts that committed.
//! The oracle builds the direct serialization graph over committed attempts:
//! for each key, every ordered pair of accesses by different transactions
//! where at least one is a write contributes an edge (ww / wr / rw) from the
//! earlier access to the later one. Under strict two-phase locking the
//! conflict order is consistent with lock grant order, so the graph is
//! acyclic; a cycle is a serializability violation.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One recorded access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Transaction attempt id.
    pub txn: u64,
    /// Table id.
    pub table: u32,
    /// Row key.
    pub key: u64,
    /// `true` for writes (including read-for-update), `false` for reads.
    pub write: bool,
    /// Global sequence number (total order of accesses).
    pub seq: u64,
}

/// Records per-attempt read/write sets and the committed set.
#[derive(Debug, Default)]
pub struct Recorder {
    seq: AtomicU64,
    events: Mutex<Vec<Event>>,
    committed: Mutex<BTreeSet<u64>>,
}

impl Recorder {
    /// Fresh, empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one access by `txn`.
    pub fn record(&self, txn: u64, table: u32, key: u64, write: bool) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.events.lock().unwrap().push(Event {
            txn,
            table,
            key,
            write,
            seq,
        });
    }

    /// Marks attempt `txn` as committed.
    pub fn commit(&self, txn: u64) {
        self.committed.lock().unwrap().insert(txn);
    }

    /// Runs the conflict-graph cycle check over the committed history.
    /// Returns a description of a cycle if one exists.
    pub fn serializability_violation(&self) -> Option<String> {
        let events = self.events.lock().unwrap();
        let committed = self.committed.lock().unwrap();

        // Per-key access lists (events are already in seq order).
        let mut by_key: BTreeMap<(u32, u64), Vec<&Event>> = BTreeMap::new();
        for e in events.iter() {
            if committed.contains(&e.txn) {
                by_key.entry((e.table, e.key)).or_default().push(e);
            }
        }

        // Conflict edges: earlier access → later access, labelled.
        let mut edges: BTreeMap<u64, BTreeMap<u64, (&'static str, (u32, u64))>> = BTreeMap::new();
        for (key, accesses) in &by_key {
            for (i, a) in accesses.iter().enumerate() {
                for b in &accesses[i + 1..] {
                    if a.txn == b.txn || (!a.write && !b.write) {
                        continue;
                    }
                    let label = match (a.write, b.write) {
                        (true, true) => "ww",
                        (true, false) => "wr",
                        (false, true) => "rw",
                        (false, false) => unreachable!(),
                    };
                    edges
                        .entry(a.txn)
                        .or_default()
                        .entry(b.txn)
                        .or_insert((label, *key));
                }
            }
        }

        // Iterative three-color DFS for a cycle, with path reconstruction.
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let mut color: BTreeMap<u64, Color> = committed.iter().map(|&t| (t, Color::White)).collect();
        for &root in committed.iter() {
            if color[&root] != Color::White {
                continue;
            }
            // Stack of (node, successor list, next index).
            let mut stack: Vec<(u64, Vec<u64>, usize)> = Vec::new();
            color.insert(root, Color::Gray);
            let succs = |n: u64| -> Vec<u64> {
                edges
                    .get(&n)
                    .map(|m| m.keys().copied().collect())
                    .unwrap_or_default()
            };
            stack.push((root, succs(root), 0));
            while let Some((node, list, idx)) = stack.last().cloned() {
                if idx >= list.len() {
                    color.insert(node, Color::Black);
                    stack.pop();
                    continue;
                }
                stack.last_mut().unwrap().2 += 1;
                let next = list[idx];
                match color.get(&next).copied().unwrap_or(Color::Black) {
                    Color::White => {
                        color.insert(next, Color::Gray);
                        stack.push((next, succs(next), 0));
                    }
                    Color::Gray => {
                        // Cycle: the stack suffix from `next` back to `node`.
                        let start = stack.iter().position(|&(n, _, _)| n == next).unwrap();
                        let mut cycle: Vec<u64> =
                            stack[start..].iter().map(|&(n, _, _)| n).collect();
                        cycle.push(next);
                        let desc = cycle
                            .windows(2)
                            .map(|w| {
                                let (label, (table, key)) = edges[&w[0]][&w[1]];
                                format!("txn {} -{label}[t{table} k{key}]-> txn {}", w[0], w[1])
                            })
                            .collect::<Vec<_>>()
                            .join(", ");
                        return Some(format!("conflict cycle: {desc}"));
                    }
                    Color::Black => {}
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_history_is_clean() {
        let r = Recorder::new();
        for txn in 1..=3u64 {
            r.record(txn, 0, 1, false);
            r.record(txn, 0, 1, true);
            r.commit(txn);
        }
        assert_eq!(r.serializability_violation(), None);
    }

    #[test]
    fn interleaved_but_serializable_is_clean() {
        let r = Recorder::new();
        // txn 1 and 2 touch disjoint keys, fully interleaved.
        r.record(1, 0, 10, true);
        r.record(2, 0, 20, true);
        r.record(1, 0, 11, true);
        r.record(2, 0, 21, true);
        r.commit(1);
        r.commit(2);
        assert_eq!(r.serializability_violation(), None);
    }

    #[test]
    fn write_skew_style_cycle_is_detected() {
        let r = Recorder::new();
        // txn1 reads k1 then writes k2; txn2 reads k2 (before txn1's write)
        // then writes k1 (after txn1's read): rw edges both ways.
        r.record(1, 0, 1, false);
        r.record(2, 0, 2, false);
        r.record(1, 0, 2, true);
        r.record(2, 0, 1, true);
        r.commit(1);
        r.commit(2);
        let v = r.serializability_violation().expect("cycle");
        assert!(v.contains("conflict cycle"), "{v}");
        assert!(v.contains("txn 1") && v.contains("txn 2"), "{v}");
    }

    #[test]
    fn uncommitted_attempts_are_ignored() {
        let r = Recorder::new();
        // Same access pattern as the cycle test, but txn 2 aborted.
        r.record(1, 0, 1, false);
        r.record(2, 0, 2, false);
        r.record(1, 0, 2, true);
        r.record(2, 0, 1, true);
        r.commit(1);
        assert_eq!(r.serializability_violation(), None);
    }

    #[test]
    fn three_txn_cycle_is_detected() {
        let r = Recorder::new();
        r.record(1, 0, 1, true);
        r.record(2, 0, 1, true); // 1 -> 2 (ww k1)
        r.record(2, 0, 2, true);
        r.record(3, 0, 2, true); // 2 -> 3 (ww k2)
        r.record(3, 0, 3, true);
        r.record(1, 0, 3, true); // 3 -> 1 (ww k3)
        for t in 1..=3 {
            r.commit(t);
        }
        assert!(r.serializability_violation().is_some());
    }
}

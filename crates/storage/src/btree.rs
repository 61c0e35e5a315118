//! Concurrent B+tree with per-node latches and latch crabbing.
//!
//! The primary index of every table. Readers descend with *shared* latch
//! coupling (latch child, release parent); writers use *pessimistic exclusive
//! crabbing*: they keep ancestors latched only while the child could split,
//! releasing the whole held path as soon as a "safe" node is reached. This is
//! the Shore-MT-era design the keynote's storage-manager work builds on —
//! fine-grained enough that index traffic is never the scalability bottleneck
//! the centralized lock manager is.
//!
//! **One allocation per node.** A [`Node`] holds its latch, its keys and its
//! child pointers (internal) or values and `next` link (leaf) inline, in one
//! fixed-size box, so each level of a descent is one dependent pointer load,
//! and an insert that does not split allocates nothing. The arrays have room
//! for one key past [`MAX_KEYS`]: an insert lands first, then the over-full
//! node splits.
//!
//! **Split rule.** A split normally cuts at the midpoint. An insert at the
//! *last* position of the *rightmost* leaf — a key-ordered load, an
//! append-only table — moves only the new key into the new sibling (SQLite's
//! `balance_quick`), and the separator it pushes up splits each right-spine
//! ancestor the same way: the new separator moves up and the new child alone
//! starts the new right node. Ordered loads therefore leave every node full.
//!
//! **Height bound.** A node leaves the right spine only by splitting, and
//! either rule leaves its left half at least half full, so every internal
//! node off the right spine and below the root has at least 17 children (a
//! right-spine node may have one). The root splits only when full, so its
//! first child is off the spine, and under it lie at least `17^(h-2)` leaves
//! that each held 16 keys when they split: 16 levels ([`MAX_HEIGHT`]) index
//! 2^64 keys.
//!
//! **Bulk build.** [`BTree::from_sorted`] builds the same full-node shape
//! bottom-up from key-ordered pairs: full leaves, then full internal levels
//! up to one root, each node made once, with no descent, latch or split.
//!
//! Structural simplification: deletion is *lazy* (keys are removed from
//! leaves, but nodes are never merged or freed before the tree drops), as in
//! several production engines. This keeps removal structurally read-only
//! above the leaf level, so deletes use shared crabbing plus one exclusive
//! leaf latch.
//!
//! Keys and values are `u64`; tables store packed [`crate::rid::Rid`]s as
//! values.

use esdb_sync::RwLatch;
use std::sync::atomic::{AtomicU64, Ordering};

/// Maximum keys per node; a node splits when it would exceed this.
const MAX_KEYS: usize = 32;

/// Deepest tree a writer can hold latched root to leaf (module doc).
const MAX_HEIGHT: usize = 16;

enum Kind {
    Internal {
        children: [*mut Node; MAX_KEYS + 2],
    },
    Leaf {
        values: [u64; MAX_KEYS + 1],
        next: *mut Node,
    },
}

struct Node {
    latch: RwLatch,
    len: u32,
    keys: [u64; MAX_KEYS + 1],
    kind: Kind,
}

impl Node {
    /// A node holding the first `len` of `keys`.
    fn alloc(len: usize, keys: [u64; MAX_KEYS + 1], kind: Kind) -> *mut Node {
        Box::into_raw(Box::new(Node {
            latch: RwLatch::new(),
            len: len as u32,
            keys,
            kind,
        }))
    }

    fn new_leaf(next: *mut Node) -> *mut Node {
        Node::alloc(0, [0; MAX_KEYS + 1], Kind::Leaf {
            values: [0; MAX_KEYS + 1],
            next,
        })
    }

    fn new_internal() -> *mut Node {
        Node::alloc(0, [0; MAX_KEYS + 1], Kind::Internal {
            children: [std::ptr::null_mut(); MAX_KEYS + 2],
        })
    }

    fn keys(&self) -> &[u64] {
        &self.keys[..self.len as usize]
    }

    fn is_leaf(&self) -> bool {
        matches!(self.kind, Kind::Leaf { .. })
    }

    /// A node is insert-safe if one more key cannot overflow it.
    fn insert_safe(&self) -> bool {
        (self.len as usize) < MAX_KEYS
    }

    /// Child index covering `key`: keys[i-1] <= key < keys[i]. Counting
    /// the keys <= `key` is branch-free and loads the key lines in parallel,
    /// where a binary search's loads each wait for the one before. A plain
    /// index loop, not an iterator chain, keeps unoptimised (test) builds as
    /// fast as the binary search was.
    fn child_index(&self, key: u64) -> usize {
        let (mut n, mut i) = (0, 0);
        while i < self.len as usize {
            n += (self.keys[i] <= key) as usize;
            i += 1;
        }
        n
    }

    /// `binary_search` over the keys, by [`Node::child_index`].
    fn search(&self, key: u64) -> Result<usize, usize> {
        match self.child_index(key) {
            i if i > 0 && self.keys[i - 1] == key => Ok(i - 1),
            i => Err(i),
        }
    }
}

/// Opens a gap at `at` in the first `len` elements of `arr` and puts `v` there.
fn insert_at<T: Copy>(arr: &mut [T], len: usize, at: usize, v: T) {
    arr.copy_within(at..len, at + 1);
    arr[at] = v;
}

/// A concurrent ordered map from `u64` to `u64`.
pub struct BTree {
    /// Meta latch protecting the *root pointer* itself.
    meta: RwLatch,
    root: std::cell::UnsafeCell<*mut Node>,
    len: AtomicU64,
    /// Nodes allocated; lazy deletion frees none before the tree drops.
    nodes: AtomicU64,
}

// SAFETY: the tree owns every node it points to. `root` is read under `meta`
// and written only with `meta` held exclusively; a node's fields are read
// under its latch and written only with it held exclusively; `len` and
// `nodes` are atomic.
unsafe impl Send for BTree {}
// SAFETY: as for `Send`: every shared access goes through a latch or an atomic.
unsafe impl Sync for BTree {}

impl Default for BTree {
    fn default() -> Self {
        Self::new()
    }
}

impl BTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        BTree {
            meta: RwLatch::new(),
            root: std::cell::UnsafeCell::new(Node::new_leaf(std::ptr::null_mut())),
            len: AtomicU64::new(0),
            nodes: AtomicU64::new(1),
        }
    }

    /// Builds a tree of `pairs`, whose keys must strictly ascend, bottom-up:
    /// leaves of [`MAX_KEYS`] keys linked in key order, then internal levels
    /// of `MAX_KEYS + 1` children, each level's last node holding the rest,
    /// up to a single root — the shape key-ordered inserts leave (module
    /// doc), with every separator the first key of the subtree to its right.
    /// The tree is private to the caller until it publishes it.
    pub fn from_sorted(pairs: &[(u64, u64)]) -> Self {
        assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0), "keys must strictly ascend");
        if pairs.is_empty() {
            return Self::new();
        }
        // `(first key, node)` of each node of a level, in key order. The
        // leaves are made last to first, so each links to the one after it.
        let mut level = Vec::with_capacity(pairs.len().div_ceil(MAX_KEYS));
        let mut next = std::ptr::null_mut();
        for chunk in pairs.chunks(MAX_KEYS).rev() {
            let (mut keys, mut values) = ([0; MAX_KEYS + 1], [0; MAX_KEYS + 1]);
            for (i, &(key, value)) in chunk.iter().enumerate() {
                (keys[i], values[i]) = (key, value);
            }
            next = Node::alloc(chunk.len(), keys, Kind::Leaf { values, next });
            level.push((chunk[0].0, next));
        }
        level.reverse();
        let mut nodes = level.len();
        while level.len() > 1 {
            level = level
                .chunks(MAX_KEYS + 1)
                .map(|group| {
                    let (mut keys, mut children) = ([0; MAX_KEYS + 1], [std::ptr::null_mut(); MAX_KEYS + 2]);
                    for (i, &(first, child)) in group.iter().enumerate() {
                        children[i] = child;
                        if i > 0 {
                            keys[i - 1] = first;
                        }
                    }
                    (group[0].0, Node::alloc(group.len() - 1, keys, Kind::Internal { children }))
                })
                .collect();
            nodes += level.len();
        }
        BTree {
            meta: RwLatch::new(),
            root: std::cell::UnsafeCell::new(level[0].1),
            len: AtomicU64::new(pairs.len() as u64),
            nodes: AtomicU64::new(nodes as u64),
        }
    }

    /// Number of nodes in the tree, 560 B each (diagnostics).
    pub fn node_count(&self) -> u64 {
        self.nodes.load(Ordering::Relaxed)
    }

    /// Number of live keys.
    pub fn len(&self) -> u64 {
        self.len.load(Ordering::Relaxed)
    }

    /// Returns `true` if the tree has no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Descends with shared latch coupling to the leaf covering `key`;
    /// returns it shared-latched, with the number of levels walked.
    fn leaf_shared(&self, key: u64) -> (&Node, usize) {
        self.meta.lock_shared();
        // SAFETY: `meta` is held, so the root pointer is stable, and nodes
        // are freed only when the tree drops.
        let mut node = unsafe { &**self.root.get() };
        node.latch.lock_shared();
        self.meta.unlock_shared();
        let mut height = 1;
        while let Kind::Internal { children } = &node.kind {
            // SAFETY: `node` is shared-latched, so its children are stable,
            // and nodes live as long as the tree.
            let child = unsafe { &*children[node.child_index(key)] };
            child.latch.lock_shared();
            node.latch.unlock_shared();
            node = child;
            height += 1;
        }
        (node, height)
    }

    /// Point lookup with shared latch coupling.
    pub fn get(&self, key: u64) -> Option<u64> {
        let (leaf, _) = self.leaf_shared(key);
        let Kind::Leaf { values, .. } = &leaf.kind else {
            unreachable!()
        };
        let result = leaf.search(key).ok().map(|i| values[i]);
        leaf.latch.unlock_shared();
        result
    }

    /// Returns `true` if `key` is present.
    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Inserts `key → value`, overwriting; returns the previous value if the
    /// key existed.
    pub fn insert(&self, key: u64, value: u64) -> Option<u64> {
        self.put(key, value, true)
    }

    /// Inserts `key → value` only if `key` is absent — one exclusive
    /// descent decides and acts, so two racing inserts of one key have
    /// exactly one winner. Returns the existing value, untouched, otherwise.
    pub fn insert_if_absent(&self, key: u64, value: u64) -> Option<u64> {
        self.put(key, value, false)
    }

    fn put(&self, key: u64, value: u64, overwrite: bool) -> Option<u64> {
        // Exclusive crabbing. `held[..depth]` is the chain of exclusively
        // latched nodes (potentially-splitting ancestors down to the current
        // node); `meta_held` tracks whether the root pointer may still change.
        self.meta.lock_exclusive();
        let mut meta_held = true;
        // SAFETY: `meta` is held exclusively, so the root pointer is stable.
        let root = unsafe { *self.root.get() };
        let mut held = [root; MAX_HEIGHT];
        let mut depth = 1;
        // SAFETY (every `&*` / `&mut *` of a node below): nodes live as long
        // as the tree, and each one dereferenced is in `held`, latched
        // exclusively by this thread, or a child just reached through one.
        let root = unsafe { &*root };
        root.latch.lock_exclusive();
        if root.insert_safe() {
            self.meta.unlock_exclusive();
            meta_held = false;
        }

        // Descend to the leaf.
        loop {
            let node = unsafe { &*held[depth - 1] };
            let Kind::Internal { children } = &node.kind else {
                break;
            };
            let child_ptr = children[node.child_index(key)];
            let child = unsafe { &*child_ptr };
            child.latch.lock_exclusive();
            if child.insert_safe() {
                // Child cannot split: everything above is safe.
                for &n in &held[..depth] {
                    unsafe { (*n).latch.unlock_exclusive() };
                }
                depth = 0;
                if meta_held {
                    self.meta.unlock_exclusive();
                    meta_held = false;
                }
            }
            held[depth] = child_ptr;
            depth += 1;
        }
        let held = &held[..depth];

        // Insert into the leaf. `append`: the key went past the last key of
        // the rightmost leaf, so the split (if any) takes the append rule.
        let leaf_ptr = held[depth - 1];
        let leaf = unsafe { &mut *leaf_ptr };
        let (found, len) = (leaf.search(key), leaf.len as usize);
        let Kind::Leaf { values, next } = &mut leaf.kind else {
            unreachable!()
        };
        let (old, append) = match found {
            Ok(i) => {
                let prev = values[i];
                if overwrite {
                    values[i] = value;
                }
                (Some(prev), false)
            }
            Err(i) => {
                insert_at(&mut leaf.keys, len, i, key);
                insert_at(values, len, i, value);
                leaf.len += 1;
                self.len.fetch_add(1, Ordering::Relaxed);
                (None, i == len && next.is_null())
            }
        };

        // Split propagation up the held chain (root-most .. leaf).
        let mut pending = (leaf.len as usize > MAX_KEYS).then(|| Self::split(leaf_ptr, append));
        let mut level = held.len();
        while let Some((sep, right)) = pending.take() {
            self.nodes.fetch_add(1, Ordering::Relaxed);
            level = level
                .checked_sub(1)
                .expect("split reached above the held chain");
            if level == 0 {
                // The topmost held node split: it must have been the root,
                // and we must still hold the meta latch.
                debug_assert!(meta_held, "root split without meta latch");
                let new_root = Node::new_internal();
                self.nodes.fetch_add(1, Ordering::Relaxed);
                let node = unsafe { &mut *new_root };
                let Kind::Internal { children } = &mut node.kind else {
                    unreachable!()
                };
                node.keys[0] = sep;
                children[..2].copy_from_slice(&[held[0], right]);
                node.len = 1;
                // SAFETY: `meta_held`: no reader or writer is at the root
                // pointer.
                unsafe { *self.root.get() = new_root };
                break;
            }
            let parent_ptr = held[level - 1];
            let parent = unsafe { &mut *parent_ptr };
            let (idx, len) = (parent.child_index(sep), parent.len as usize);
            let Kind::Internal { children } = &mut parent.kind else {
                unreachable!()
            };
            insert_at(&mut parent.keys, len, idx, sep);
            insert_at(children, len + 1, idx + 1, right);
            parent.len += 1;
            if parent.len as usize > MAX_KEYS {
                pending = Some(Self::split(parent_ptr, append));
            }
        }

        for &n in held.iter().rev() {
            unsafe { (*n).latch.unlock_exclusive() };
        }
        if meta_held {
            self.meta.unlock_exclusive();
        }
        old
    }

    /// Splits an over-full node, returning `(separator, right sibling)`: at
    /// the midpoint, or with `append` (an insert past the right edge) so that
    /// the node keeps all but its last key. Caller holds the node's exclusive
    /// latch.
    fn split(ptr: *mut Node, append: bool) -> (u64, *mut Node) {
        // SAFETY: the caller holds `ptr`'s exclusive latch; `right` is not
        // yet reachable by any other thread.
        let node = unsafe { &mut *ptr };
        let len = node.len as usize;
        let at = if append { len - 1 } else { len / 2 };
        match &mut node.kind {
            Kind::Leaf { values, next } => {
                let right_ptr = Node::new_leaf(*next);
                let right = unsafe { &mut *right_ptr };
                let Kind::Leaf {
                    values: right_values,
                    ..
                } = &mut right.kind
                else {
                    unreachable!()
                };
                right.keys[..len - at].copy_from_slice(&node.keys[at..len]);
                right_values[..len - at].copy_from_slice(&values[at..len]);
                right.len = (len - at) as u32;
                node.len = at as u32;
                *next = right_ptr;
                (node.keys[at], right_ptr)
            }
            Kind::Internal { children } => {
                // keys[at] moves up; the keys and children after it go right.
                let right_ptr = Node::new_internal();
                let right = unsafe { &mut *right_ptr };
                let Kind::Internal {
                    children: right_children,
                } = &mut right.kind
                else {
                    unreachable!()
                };
                right.keys[..len - at - 1].copy_from_slice(&node.keys[at + 1..len]);
                right_children[..len - at].copy_from_slice(&children[at + 1..=len]);
                right.len = (len - at - 1) as u32;
                node.len = at as u32;
                (node.keys[at], right_ptr)
            }
        }
    }

    /// Removes `key`, returning its value. Lazy: no node merging, so the
    /// descent is structurally read-only and uses shared crabbing.
    pub fn remove(&self, key: u64) -> Option<u64> {
        // Shared-latch a node, or exclusively if it is the leaf to change.
        fn latch(node: &Node) {
            if node.is_leaf() {
                node.latch.lock_exclusive();
            } else {
                node.latch.lock_shared();
            }
        }
        self.meta.lock_shared();
        // SAFETY: `meta` is held, so the root pointer is stable.
        let mut cur = unsafe { *self.root.get() };
        // SAFETY (every node dereference below): nodes live as long as the
        // tree; `cur` is latched by this thread — shared while internal, so
        // its children are stable, and exclusively once it is the leaf.
        latch(unsafe { &*cur });
        self.meta.unlock_shared();
        loop {
            let node = unsafe { &*cur };
            let Kind::Internal { children } = &node.kind else {
                break;
            };
            let child = children[node.child_index(key)];
            latch(unsafe { &*child });
            node.latch.unlock_shared();
            cur = child;
        }
        let leaf = unsafe { &mut *cur };
        let (found, len) = (leaf.search(key), leaf.len as usize);
        let Kind::Leaf { values, .. } = &mut leaf.kind else {
            unreachable!()
        };
        let result = found.ok().map(|i| {
            leaf.keys.copy_within(i + 1..len, i);
            let v = values[i];
            values.copy_within(i + 1..len, i);
            leaf.len -= 1;
            self.len.fetch_sub(1, Ordering::Relaxed);
            v
        });
        leaf.latch.unlock_exclusive();
        result
    }

    /// Inclusive range scan. Leaves are traversed with latch coupling via
    /// their `next` pointers.
    pub fn range(&self, start: u64, end: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        if start > end {
            return out;
        }
        let (mut node, _) = self.leaf_shared(start);
        loop {
            let Kind::Leaf { values, next } = &node.kind else {
                unreachable!()
            };
            for (&k, &v) in node.keys().iter().zip(values) {
                if k > end {
                    node.latch.unlock_shared();
                    return out;
                }
                if k >= start {
                    out.push((k, v));
                }
            }
            if next.is_null() {
                node.latch.unlock_shared();
                return out;
            }
            // SAFETY: `node` is shared-latched, so `next` is stable, and
            // nodes live as long as the tree.
            let next = unsafe { &**next };
            next.latch.lock_shared();
            node.latch.unlock_shared();
            node = next;
        }
    }

    /// Tree height (diagnostics; takes shared latches down the leftmost path).
    pub fn height(&self) -> usize {
        let (leaf, height) = self.leaf_shared(0);
        leaf.latch.unlock_shared();
        height
    }

    /// Panics unless the tree is well formed: keys ascend within every node;
    /// every subtree lies within its separators; all leaves are at one depth,
    /// at most [`MAX_HEIGHT`]; every internal node below the root and off the
    /// right spine is at least half full; and the leaf chain visits the
    /// leaves in order and yields `range(0, u64::MAX)`, `len()` pairs; and
    /// there are [`BTree::node_count`] nodes. Returns the number of nodes at
    /// each level, leaves first. `&mut self` keeps every writer out while it
    /// walks. For tests.
    #[doc(hidden)]
    pub fn assert_invariants(&mut self) -> Vec<usize> {
        /// Checks the subtree under `ptr`, whose keys lie in `lo..hi`,
        /// appends its leaves in key order and counts its nodes by height
        /// in `levels`; returns its height.
        fn walk(
            ptr: *mut Node,
            lo: u64,
            hi: Option<u64>,
            spine: bool,
            leaves: &mut Vec<*mut Node>,
            levels: &mut Vec<usize>,
        ) -> usize {
            // SAFETY: the caller holds the tree exclusively, so no latch is
            // needed, and every child pointer names a live node.
            let node = unsafe { &*ptr };
            let keys = node.keys();
            assert!(
                keys.len() <= MAX_KEYS,
                "node over-full: {} keys",
                keys.len()
            );
            assert!(
                keys.windows(2).all(|w| w[0] < w[1]),
                "keys out of order: {keys:?}"
            );
            if let (Some(&first), Some(&last)) = (keys.first(), keys.last()) {
                assert!(
                    first >= lo && hi.is_none_or(|hi| last < hi),
                    "keys {keys:?} outside [{lo}, {hi:?})"
                );
            }
            let Kind::Internal { children } = &node.kind else {
                leaves.push(ptr);
                count(levels, 1);
                return 1;
            };
            let n = keys.len();
            assert!(
                spine || n >= MAX_KEYS / 2,
                "internal node off the right spine has {n} keys"
            );
            let mut heights = (0..=n).map(|i| {
                let lo = if i == 0 { lo } else { keys[i - 1] };
                let hi = if i == n { hi } else { Some(keys[i]) };
                walk(children[i], lo, hi, spine && i == n, leaves, levels)
            });
            let h = heights.next().expect("an internal node has a child");
            assert!(heights.all(|x| x == h), "leaves at different depths");
            count(levels, h + 1);
            h + 1
        }
        fn count(levels: &mut Vec<usize>, height: usize) {
            if levels.len() < height {
                levels.resize(height, 0);
            }
            levels[height - 1] += 1;
        }
        let root = *self.root.get_mut();
        let (mut leaves, mut levels) = (Vec::new(), Vec::new());
        // The root may be as empty as the right spine.
        let height = walk(root, 0, None, true, &mut leaves, &mut levels);
        assert!(height <= MAX_HEIGHT, "height {height} > {MAX_HEIGHT}");
        assert_eq!(height, self.height());
        let mut chained = Vec::new();
        let mut pairs = Vec::new();
        let mut cur = leaves[0];
        while !cur.is_null() {
            chained.push(cur);
            // SAFETY: as in `walk`.
            let node = unsafe { &*cur };
            let Kind::Leaf { values, next } = &node.kind else {
                panic!("an internal node in the leaf chain")
            };
            pairs.extend(node.keys().iter().copied().zip(values.iter().copied()));
            cur = *next;
        }
        assert!(
            chained == leaves,
            "leaf chain differs from the in-order leaves"
        );
        assert!(
            pairs.windows(2).all(|w| w[0].0 < w[1].0),
            "leaf chain out of order"
        );
        assert_eq!(
            pairs.len() as u64,
            self.len(),
            "len() disagrees with the leaves"
        );
        assert_eq!(pairs, self.range(0, u64::MAX));
        assert_eq!(levels.iter().sum::<usize>() as u64, self.node_count(), "node_count() disagrees with the walk");
        levels
    }
}

impl Drop for BTree {
    fn drop(&mut self) {
        fn free(ptr: *mut Node) {
            // SAFETY: the tree is being dropped, so nothing else refers to
            // its nodes, and each is reached exactly once from its parent.
            let node = unsafe { Box::from_raw(ptr) };
            if let Kind::Internal { children } = &node.kind {
                children[..=node.len as usize].iter().for_each(|&c| free(c));
            }
        }
        free(*self.root.get_mut());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn insert_get_small() {
        let t = BTree::new();
        assert_eq!(t.insert(5, 50), None);
        assert_eq!(t.insert(3, 30), None);
        assert_eq!(t.insert(8, 80), None);
        assert_eq!(t.get(5), Some(50));
        assert_eq!(t.get(3), Some(30));
        assert_eq!(t.get(8), Some(80));
        assert_eq!(t.get(4), None);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn insert_overwrites_and_returns_old() {
        let t = BTree::new();
        assert_eq!(t.insert(1, 10), None);
        assert_eq!(t.insert(1, 11), Some(10));
        assert_eq!(t.get(1), Some(11));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn insert_if_absent_never_overwrites() {
        let t = BTree::new();
        assert_eq!(t.insert_if_absent(1, 10), None);
        assert_eq!(
            t.insert_if_absent(1, 11),
            Some(10),
            "existing key answers its value"
        );
        assert_eq!(t.get(1), Some(10), "value unchanged");
        assert_eq!(t.len(), 1, "len unchanged");
        // Across splits too: every even key present, every odd key absent.
        let t = BTree::new();
        for k in (0..2_000).step_by(2) {
            t.insert(k, k);
        }
        for k in 0..2_000 {
            let expect = (k % 2 == 0).then_some(k);
            assert_eq!(t.insert_if_absent(k, u64::MAX), expect, "key {k}");
        }
        assert_eq!(t.len(), 2_000);
        assert_eq!(t.get(4), Some(4));
        assert_eq!(t.get(5), Some(u64::MAX));
    }

    #[test]
    fn many_inserts_force_splits() {
        let t = BTree::new();
        let n = 10_000u64;
        for k in 0..n {
            t.insert(k.wrapping_mul(2654435761) % n, k);
        }
        assert!(t.height() > 2, "10k keys must produce a multi-level tree");
        for k in 0..n {
            let key = k.wrapping_mul(2654435761) % n;
            assert!(t.get(key).is_some(), "missing key {key}");
        }
    }

    #[test]
    fn remove_then_get_misses() {
        let t = BTree::new();
        for k in 0..200 {
            t.insert(k, k * 10);
        }
        for k in (0..200).step_by(2) {
            assert_eq!(t.remove(k), Some(k * 10));
        }
        for k in 0..200 {
            if k % 2 == 0 {
                assert_eq!(t.get(k), None);
            } else {
                assert_eq!(t.get(k), Some(k * 10));
            }
        }
        assert_eq!(t.len(), 100);
        assert_eq!(t.remove(0), None);
    }

    #[test]
    fn range_scan_is_sorted_and_inclusive() {
        let t = BTree::new();
        for k in (0..1000).rev() {
            t.insert(k, k + 1);
        }
        let r = t.range(100, 199);
        assert_eq!(r.len(), 100);
        assert_eq!(r.first(), Some(&(100, 101)));
        assert_eq!(r.last(), Some(&(199, 200)));
        assert!(r.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(t.range(5, 4).is_empty());
    }

    #[test]
    fn concurrent_disjoint_inserts() {
        let t = Arc::new(BTree::new());
        let mut handles = Vec::new();
        for part in 0..4u64 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for k in 0..2_000u64 {
                    t.insert(part * 1_000_000 + k, k);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.len(), 8_000);
        for part in 0..4u64 {
            for k in (0..2_000u64).step_by(97) {
                assert_eq!(t.get(part * 1_000_000 + k), Some(k));
            }
        }
    }

    #[test]
    fn concurrent_mixed_readers_writers() {
        let t = Arc::new(BTree::new());
        for k in 0..1_000 {
            t.insert(k, k);
        }
        let mut handles = Vec::new();
        for id in 0..4u64 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..2_000u64 {
                    let k = (id * 7_919 + i * 104_729) % 4_000;
                    if i % 3 == 0 {
                        t.insert(k, k);
                    } else {
                        if let Some(v) = t.get(k) {
                            assert_eq!(v, k);
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    /// TPC-B `history` under the reactor: four writers append interleaved
    /// increasing keys (so the rightmost leaf takes both split rules) while
    /// two readers `get` and `range` just behind the right edge.
    #[test]
    fn concurrent_right_edge_appends_and_reads() {
        const WRITERS: u64 = 4;
        const PER_WRITER: u64 = 5_000;
        let mut t = BTree::new();
        // `inserted[w]`: how many of writer w's keys (w, w + 4, ...) are in.
        let inserted: [AtomicU64; WRITERS as usize] = Default::default();
        let writing = AtomicBool::new(true);
        std::thread::scope(|s| {
            let (t, inserted, writing) = (&t, &inserted, &writing);
            let writers: Vec<_> = (0..WRITERS)
                .map(|w| {
                    s.spawn(move || {
                        for i in 0..PER_WRITER {
                            assert_eq!(t.insert(w + WRITERS * i, i), None);
                            inserted[w as usize].store(i + 1, Ordering::Release);
                        }
                    })
                })
                .collect();
            for _ in 0..2 {
                s.spawn(move || {
                    while writing.load(Ordering::Acquire) {
                        // Every key up to `edge` is in: writer w's keys up
                        // to its last one are, and each last one is ≥ edge.
                        let last: Vec<u64> = (0..WRITERS)
                            .map(|w| {
                                (w + WRITERS * inserted[w as usize].load(Ordering::Acquire))
                                    .checked_sub(WRITERS)
                            })
                            .collect::<Option<_>>()
                            .unwrap_or_default();
                        let Some(&edge) = last.iter().min() else {
                            continue;
                        };
                        for (w, &k) in last.iter().enumerate() {
                            assert_eq!(t.get(k), Some(k / WRITERS), "writer {w}'s last key {k}");
                        }
                        let from = edge.saturating_sub(200);
                        let got = t.range(from, u64::MAX);
                        assert!(
                            got.windows(2).all(|p| p[0].0 < p[1].0),
                            "range out of order"
                        );
                        assert!(
                            got.iter()
                                .map(|p| p.0)
                                .take_while(|&k| k <= edge)
                                .eq(from..=edge),
                            "range [{from}, {edge}] incomplete"
                        );
                    }
                });
            }
            // Stop the readers before a writer's panic can leave them spinning.
            let joined: Vec<_> = writers.into_iter().map(|w| w.join()).collect();
            writing.store(false, Ordering::Release);
            joined.into_iter().for_each(|j| j.expect("writer"));
        });
        let n = WRITERS * PER_WRITER;
        assert_eq!(t.len(), n);
        assert!(
            (0..n).all(|k| t.get(k) == Some(k / WRITERS)),
            "a key is missing"
        );
        assert!(t.range(0, u64::MAX).into_iter().map(|p| p.0).eq(0..n));
        t.assert_invariants();
    }

    /// A built tree answers as an insert-built one and has its shape, at
    /// the sizes where a leaf, an internal node and the root fill.
    #[test]
    fn a_built_tree_matches_key_ordered_inserts() {
        assert_eq!(std::mem::size_of::<Node>(), 560);
        for n in [0u64, 1, 32, 33, 1_056, 1_057, 100_000] {
            let pairs: Vec<(u64, u64)> = (0..n).map(|i| (3 * i + 1, i)).collect();
            let mut built = BTree::from_sorted(&pairs);
            let mut inserted = BTree::new();
            for &(k, v) in &pairs {
                inserted.insert(k, v);
            }
            let levels = built.assert_invariants();
            assert_eq!(levels, inserted.assert_invariants(), "{n} keys: nodes per level");
            assert_eq!((built.len(), built.height(), built.node_count()), (n, inserted.height(), inserted.node_count()));
            assert_eq!(built.range(0, u64::MAX), pairs);
            let probes = (0..n.min(2_000)).chain([n / 2, 3 * n, 3 * n + 1]);
            for k in probes.flat_map(|i| [3 * i, 3 * i + 1]) {
                assert_eq!(built.get(k), inserted.get(k), "{n} keys: get({k})");
                assert_eq!(built.range(k, k + 100), inserted.range(k, k + 100), "{n} keys: range from {k}");
            }
            if n == 100_000 {
                assert_eq!(levels, [3_125, 95, 3, 1], "the btree.append shape");
                assert_eq!(built.height(), 4);
            }
            // The built tree takes inserts and removals like any other.
            built.insert(0, 7);
            built.insert(3 * n + 5, 8);
            assert_eq!(built.remove(1), n.checked_sub(1).map(|_| 0));
            built.assert_invariants();
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascend")]
    fn a_build_refuses_unordered_keys() {
        BTree::from_sorted(&[(2, 0), (1, 0)]);
    }

    #[test]
    fn empty_tree_behaviour() {
        let mut t = BTree::new();
        assert!(t.is_empty());
        assert_eq!(t.get(1), None);
        assert_eq!(t.remove(1), None);
        assert!(t.range(0, u64::MAX).is_empty());
        assert_eq!(t.height(), 1);
        t.assert_invariants();
    }
}

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
//! Structural simplification: deletion is *lazy* (keys are removed from
//! leaves, but nodes are never merged), as in several production engines.
//! This keeps removal structurally read-only above the leaf level, so deletes
//! use shared crabbing plus one exclusive leaf latch.
//!
//! Keys and values are `u64`; tables store packed [`crate::rid::Rid`]s as
//! values.

use esdb_sync::RwLatch;
use std::sync::atomic::{AtomicU64, Ordering};

/// Maximum keys per node; a node splits when it would exceed this.
const MAX_KEYS: usize = 32;

/// Deepest tree a writer can hold latched root to leaf. Every internal node
/// has at least 16 children, so 16 levels index 2^64 keys.
const MAX_HEIGHT: usize = 16;

enum NodeKind {
    Internal { children: Vec<*mut Node> },
    Leaf { values: Vec<u64>, next: *mut Node },
}

struct Node {
    latch: RwLatch,
    keys: Vec<u64>,
    kind: NodeKind,
}

impl Node {
    fn new_leaf() -> *mut Node {
        Box::into_raw(Box::new(Node {
            latch: RwLatch::new(),
            keys: Vec::new(),
            kind: NodeKind::Leaf {
                values: Vec::new(),
                next: std::ptr::null_mut(),
            },
        }))
    }

    fn is_leaf(&self) -> bool {
        matches!(self.kind, NodeKind::Leaf { .. })
    }

    /// A node is insert-safe if one more key cannot overflow it.
    fn insert_safe(&self) -> bool {
        self.keys.len() < MAX_KEYS
    }

    /// Child index covering `key`: keys[i-1] <= key < keys[i].
    fn child_index(&self, key: u64) -> usize {
        self.keys.partition_point(|&k| k <= key)
    }
}

/// A concurrent ordered map from `u64` to `u64`.
pub struct BTree {
    /// Meta latch protecting the *root pointer* itself.
    meta: RwLatch,
    root: std::cell::UnsafeCell<*mut Node>,
    len: AtomicU64,
}

unsafe impl Send for BTree {}
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
            root: std::cell::UnsafeCell::new(Node::new_leaf()),
            len: AtomicU64::new(0),
        }
    }

    /// Number of live keys.
    pub fn len(&self) -> u64 {
        self.len.load(Ordering::Relaxed)
    }

    /// Returns `true` if the tree has no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Point lookup with shared latch coupling.
    pub fn get(&self, key: u64) -> Option<u64> {
        self.meta.lock_shared();
        let mut cur = unsafe { *self.root.get() };
        unsafe { (*cur).latch.lock_shared() };
        self.meta.unlock_shared();
        loop {
            let node = unsafe { &*cur };
            match &node.kind {
                NodeKind::Internal { children } => {
                    let child = children[node.child_index(key)];
                    unsafe { (*child).latch.lock_shared() };
                    node.latch.unlock_shared();
                    cur = child;
                }
                NodeKind::Leaf { values, .. } => {
                    let result = node
                        .keys
                        .binary_search(&key)
                        .ok()
                        .map(|i| values[i]);
                    node.latch.unlock_shared();
                    return result;
                }
            }
        }
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
        let root = unsafe { *self.root.get() };
        unsafe { (*root).latch.lock_exclusive() };
        let mut held = [root; MAX_HEIGHT];
        let mut depth = 1;

        if unsafe { (*root).insert_safe() } {
            self.meta.unlock_exclusive();
            meta_held = false;
        }

        // Descend to the leaf.
        loop {
            let node = unsafe { &*held[depth - 1] };
            match &node.kind {
                NodeKind::Internal { children } => {
                    let child = children[node.child_index(key)];
                    unsafe { (*child).latch.lock_exclusive() };
                    if unsafe { (*child).insert_safe() } {
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
                    held[depth] = child;
                    depth += 1;
                }
                NodeKind::Leaf { .. } => break,
            }
        }
        let held = &held[..depth];

        // Insert into the leaf.
        let leaf_ptr = *held.last().unwrap();
        let leaf = unsafe { &mut *leaf_ptr };
        let NodeKind::Leaf { values, .. } = &mut leaf.kind else {
            unreachable!()
        };
        let old = match leaf.keys.binary_search(&key) {
            Ok(i) => {
                let prev = values[i];
                if overwrite {
                    values[i] = value;
                }
                Some(prev)
            }
            Err(i) => {
                leaf.keys.insert(i, key);
                values.insert(i, value);
                self.len.fetch_add(1, Ordering::Relaxed);
                None
            }
        };

        // Split propagation up the held chain.
        let mut pending: Option<(u64, *mut Node)> = None;
        if leaf.keys.len() > MAX_KEYS {
            pending = Some(Self::split(leaf_ptr));
        }
        // Walk ancestors (held is root-most .. leaf).
        let mut level = held.len();
        while let Some((sep, right)) = pending.take() {
            level = level
                .checked_sub(1)
                .expect("split reached above the held chain");
            if level == 0 {
                // The topmost held node split: it must have been the root,
                // and we must still hold the meta latch.
                debug_assert!(meta_held, "root split without meta latch");
                let old_root = held[0];
                let new_root = Box::into_raw(Box::new(Node {
                    latch: RwLatch::new(),
                    keys: vec![sep],
                    kind: NodeKind::Internal {
                        children: vec![old_root, right],
                    },
                }));
                unsafe { *self.root.get() = new_root };
                break;
            }
            let parent_ptr = held[level - 1];
            let parent = unsafe { &mut *parent_ptr };
            let NodeKind::Internal { children } = &mut parent.kind else {
                unreachable!()
            };
            let idx = parent.keys.partition_point(|&k| k <= sep);
            parent.keys.insert(idx, sep);
            children.insert(idx + 1, right);
            if parent.keys.len() > MAX_KEYS {
                pending = Some(Self::split(parent_ptr));
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

    /// Splits an over-full node, returning `(separator, right sibling)`.
    /// Caller holds the node's exclusive latch.
    fn split(ptr: *mut Node) -> (u64, *mut Node) {
        let node = unsafe { &mut *ptr };
        let mid = node.keys.len() / 2;
        match &mut node.kind {
            NodeKind::Leaf { values, next } => {
                let right_keys = node.keys.split_off(mid);
                let right_values = values.split_off(mid);
                let sep = right_keys[0];
                let right = Box::into_raw(Box::new(Node {
                    latch: RwLatch::new(),
                    keys: right_keys,
                    kind: NodeKind::Leaf {
                        values: right_values,
                        next: *next,
                    },
                }));
                *next = right;
                (sep, right)
            }
            NodeKind::Internal { children } => {
                let sep = node.keys[mid];
                let right_keys = node.keys.split_off(mid + 1);
                node.keys.pop(); // drop the separator that moved up
                let right_children = children.split_off(mid + 1);
                let right = Box::into_raw(Box::new(Node {
                    latch: RwLatch::new(),
                    keys: right_keys,
                    kind: NodeKind::Internal {
                        children: right_children,
                    },
                }));
                (sep, right)
            }
        }
    }

    /// Removes `key`, returning its value. Lazy: no node merging, so the
    /// descent is structurally read-only and uses shared crabbing.
    pub fn remove(&self, key: u64) -> Option<u64> {
        self.meta.lock_shared();
        let mut cur = unsafe { *self.root.get() };
        let root_is_leaf = unsafe { (*cur).is_leaf() };
        if root_is_leaf {
            unsafe { (*cur).latch.lock_exclusive() };
        } else {
            unsafe { (*cur).latch.lock_shared() };
        }
        self.meta.unlock_shared();
        loop {
            let node = unsafe { &*cur };
            match &node.kind {
                NodeKind::Internal { children } => {
                    let child = children[node.child_index(key)];
                    if unsafe { (*child).is_leaf() } {
                        unsafe { (*child).latch.lock_exclusive() };
                    } else {
                        unsafe { (*child).latch.lock_shared() };
                    }
                    node.latch.unlock_shared();
                    cur = child;
                }
                NodeKind::Leaf { .. } => {
                    let node = unsafe { &mut *cur };
                    let NodeKind::Leaf { values, .. } = &mut node.kind else {
                        unreachable!()
                    };
                    let result = match node.keys.binary_search(&key) {
                        Ok(i) => {
                            node.keys.remove(i);
                            let v = values.remove(i);
                            self.len.fetch_sub(1, Ordering::Relaxed);
                            Some(v)
                        }
                        Err(_) => None,
                    };
                    node.latch.unlock_exclusive();
                    return result;
                }
            }
        }
    }

    /// Inclusive range scan. Leaves are traversed with latch coupling via
    /// their `next` pointers.
    pub fn range(&self, start: u64, end: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        if start > end {
            return out;
        }
        self.meta.lock_shared();
        let mut cur = unsafe { *self.root.get() };
        unsafe { (*cur).latch.lock_shared() };
        self.meta.unlock_shared();
        // Descend to the leaf containing `start`.
        loop {
            let node = unsafe { &*cur };
            match &node.kind {
                NodeKind::Internal { children } => {
                    let child = children[node.child_index(start)];
                    unsafe { (*child).latch.lock_shared() };
                    node.latch.unlock_shared();
                    cur = child;
                }
                NodeKind::Leaf { .. } => break,
            }
        }
        // Walk the leaf chain.
        loop {
            let node = unsafe { &*cur };
            let NodeKind::Leaf { values, next } = &node.kind else {
                unreachable!()
            };
            for (i, &k) in node.keys.iter().enumerate() {
                if k > end {
                    node.latch.unlock_shared();
                    return out;
                }
                if k >= start {
                    out.push((k, values[i]));
                }
            }
            let next = *next;
            if next.is_null() {
                node.latch.unlock_shared();
                return out;
            }
            unsafe { (*next).latch.lock_shared() };
            node.latch.unlock_shared();
            cur = next;
        }
    }

    /// First key >= `start`, if any (cheap successor probe).
    pub fn next_key(&self, start: u64) -> Option<(u64, u64)> {
        self.range(start, u64::MAX).into_iter().next()
    }

    /// Tree height (diagnostics; takes shared latches down the leftmost path).
    pub fn height(&self) -> usize {
        self.meta.lock_shared();
        let mut cur = unsafe { *self.root.get() };
        unsafe { (*cur).latch.lock_shared() };
        self.meta.unlock_shared();
        let mut h = 1;
        loop {
            let node = unsafe { &*cur };
            match &node.kind {
                NodeKind::Internal { children } => {
                    let child = children[0];
                    unsafe { (*child).latch.lock_shared() };
                    node.latch.unlock_shared();
                    cur = child;
                    h += 1;
                }
                NodeKind::Leaf { .. } => {
                    node.latch.unlock_shared();
                    return h;
                }
            }
        }
    }
}

impl Drop for BTree {
    fn drop(&mut self) {
        fn free(ptr: *mut Node) {
            let node = unsafe { Box::from_raw(ptr) };
            if let NodeKind::Internal { children } = &node.kind {
                for &c in children {
                    free(c);
                }
            }
        }
        free(unsafe { *self.root.get() });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(t.insert_if_absent(1, 11), Some(10), "existing key answers its value");
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
    fn next_key_probe() {
        let t = BTree::new();
        t.insert(10, 1);
        t.insert(20, 2);
        assert_eq!(t.next_key(0), Some((10, 1)));
        assert_eq!(t.next_key(10), Some((10, 1)));
        assert_eq!(t.next_key(11), Some((20, 2)));
        assert_eq!(t.next_key(21), None);
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

    #[test]
    fn empty_tree_behaviour() {
        let t = BTree::new();
        assert!(t.is_empty());
        assert_eq!(t.get(1), None);
        assert_eq!(t.remove(1), None);
        assert!(t.range(0, u64::MAX).is_empty());
        assert_eq!(t.height(), 1);
    }
}

//! An append-only table of values by dense index, read with no lock.

use std::sync::OnceLock;

/// Values by index, append-only: a slot is set once and never cleared, so a
/// lookup reads three `OnceLock`s — no lock, no refcount — and hands out a
/// plain reference. Chunk `k` holds indices `2^k - 1 ..= 2^(k+1) - 2` and is
/// built when the first of them is set; the chunk array itself, when the
/// first slot is, so an empty registry allocates nothing. Indices run below
/// `2^33 - 1`.
///
/// The engine keeps its tables by id in one, and the lock manager its agents'
/// `live` words by agent number.
pub struct Registry<T>(OnceLock<Box<[OnceLock<Chunk<T>>; 33]>>);

/// One chunk of slots.
type Chunk<T> = Box<[OnceLock<T>]>;

impl<T> Default for Registry<T> {
    fn default() -> Self {
        Registry(OnceLock::new())
    }
}

impl<T> Registry<T> {
    /// (chunk, index in chunk) of slot `i`.
    fn slot(i: usize) -> (usize, usize) {
        let n = i + 1;
        let k = n.ilog2() as usize;
        (k, n - (1 << k))
    }

    /// The value in slot `i`, if it is set.
    pub fn get(&self, i: usize) -> Option<&T> {
        let (k, j) = Self::slot(i);
        self.0.get()?[k].get()?[j].get()
    }

    /// Sets slot `i`. Panics if it is already set.
    pub fn register(&self, i: usize, value: T) {
        let (k, j) = Self::slot(i);
        let chunks = self
            .0
            .get_or_init(|| Box::new(std::array::from_fn(|_| OnceLock::new())));
        let chunk = chunks[k].get_or_init(|| (0..1usize << k).map(|_| OnceLock::new()).collect());
        assert!(chunk[j].set(value).is_ok(), "slot {i} registered twice");
    }

    /// One past the highest set slot: the last built chunk holds it.
    pub fn len(&self) -> usize {
        let Some(chunks) = self.0.get() else { return 0 };
        chunks
            .iter()
            .enumerate()
            .rev()
            .find_map(|(k, chunk)| {
                let last = chunk.get()?.iter().rposition(|v| v.get().is_some())?;
                Some((1 << k) + last)
            })
            .unwrap_or(0)
    }

    /// `true` when no slot is set.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::Registry;

    #[test]
    fn slots_across_chunks_read_back_and_len_is_one_past_the_highest() {
        let r = Registry::default();
        assert_eq!((r.len(), r.get(0)), (0, None));
        for i in [0usize, 1, 2, 6, 7, 1000] {
            r.register(i, i * 10);
        }
        for i in [0usize, 1, 2, 6, 7, 1000] {
            assert_eq!(r.get(i), Some(&(i * 10)));
        }
        assert_eq!((r.get(3), r.get(999), r.get(5000)), (None, None, None));
        assert_eq!(r.len(), 1001);
    }

    #[test]
    #[should_panic(expected = "slot 3 registered twice")]
    fn a_slot_is_set_once() {
        let r = Registry::default();
        r.register(3, 'a');
        r.register(3, 'b');
    }
}

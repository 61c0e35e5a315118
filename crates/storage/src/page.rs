//! Slotted heap pages.
//!
//! Classic layout: a fixed header, a slot directory growing upward, and tuple
//! data growing downward from the end of the page. Deleted slots become
//! tombstones; their data space is reclaimed lazily by [`Page::compact`],
//! which runs automatically when an insert or update would otherwise fail.
//!
//! Every page carries a `page_lsn`, the LSN of the last log record that
//! modified it — the hook ARIES-style recovery needs to make redo idempotent.
//!
//! An insert takes the lowest tombstoned slot, else appends one. A header
//! flag says whether the page *may* hold a tombstone: a delete, and the gap
//! slots of [`Page::insert_at_slot`], set it; an insert that scans the slot
//! directory and finds none clears it; and an insert into a page without the
//! flag appends its slot without reading the directory. A page that never
//! had a tombstone keeps the flag byte at zero.

/// Size of every page in bytes.
pub const PAGE_SIZE: usize = 8192;

/// Header: lsn (8) + slot_count (2) + free_upper (2) + tombstone flag (1) +
/// reserved (3).
const HEADER_SIZE: usize = 16;
/// Header byte that is non-zero while the page may hold a tombstone.
const MAY_HOLD_TOMBSTONE: usize = 12;
/// Each slot directory entry: offset (2) + len (2).
const SLOT_SIZE: usize = 4;
/// Tombstone marker in a slot's offset field.
const TOMBSTONE: u16 = u16::MAX;

/// Largest payload a single page can store.
pub const MAX_TUPLE: usize = PAGE_SIZE - HEADER_SIZE - SLOT_SIZE;

/// An 8 KiB slotted page.
pub struct Page {
    bytes: [u8; PAGE_SIZE],
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for Page {
    fn clone(&self) -> Self {
        Page { bytes: self.bytes }
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("lsn", &self.lsn())
            .field("slots", &self.slot_count())
            .field("free", &self.free_space())
            .finish()
    }
}

impl Page {
    /// Creates an empty, formatted page.
    pub fn new() -> Self {
        let mut p = Page { bytes: [0u8; PAGE_SIZE] };
        p.set_free_upper(PAGE_SIZE as u16);
        p
    }

    /// Formats this page in place as [`Page::new`] would make it.
    pub fn format(&mut self) {
        self.bytes.fill(0);
        self.set_free_upper(PAGE_SIZE as u16);
    }

    /// Raw byte access (for the page store).
    #[inline]
    pub fn as_bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.bytes
    }

    /// Mutable raw byte access (for the page store).
    pub fn as_bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.bytes
    }

    #[inline]
    fn read_u16(&self, off: usize) -> u16 {
        u16::from_le_bytes([self.bytes[off], self.bytes[off + 1]])
    }

    fn write_u16(&mut self, off: usize, v: u16) {
        self.bytes[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// LSN of the last log record applied to this page.
    pub fn lsn(&self) -> u64 {
        u64::from_le_bytes(self.bytes[0..8].try_into().unwrap())
    }

    /// Stamps the page LSN.
    pub fn set_lsn(&mut self, lsn: u64) {
        self.bytes[0..8].copy_from_slice(&lsn.to_le_bytes());
    }

    /// Number of slot directory entries (including tombstones).
    #[inline]
    pub fn slot_count(&self) -> u16 {
        self.read_u16(8)
    }

    fn set_slot_count(&mut self, n: u16) {
        self.write_u16(8, n);
    }

    fn free_upper(&self) -> u16 {
        self.read_u16(10)
    }

    fn set_free_upper(&mut self, v: u16) {
        self.write_u16(10, v);
    }

    fn slot_entry(&self, slot: u16) -> (u16, u16) {
        let base = HEADER_SIZE + slot as usize * SLOT_SIZE;
        (self.read_u16(base), self.read_u16(base + 2))
    }

    fn may_hold_tombstone(&self) -> bool {
        self.bytes[MAY_HOLD_TOMBSTONE] != 0
    }

    fn set_may_hold_tombstone(&mut self, may: bool) {
        self.bytes[MAY_HOLD_TOMBSTONE] = may.into();
    }

    fn set_slot_entry(&mut self, slot: u16, offset: u16, len: u16) {
        let base = HEADER_SIZE + slot as usize * SLOT_SIZE;
        self.write_u16(base, offset);
        self.write_u16(base + 2, len);
    }

    /// Contiguous free bytes between the slot directory and the data heap.
    pub fn free_space(&self) -> usize {
        let lower = HEADER_SIZE + self.slot_count() as usize * SLOT_SIZE;
        self.free_upper() as usize - lower
    }

    /// Bytes that would be free after compaction (counts dead tuple space).
    pub fn reclaimable_space(&self) -> usize {
        let live: usize = self.live_slots().map(|(_, d)| d.len()).sum();
        let lower = HEADER_SIZE + self.slot_count() as usize * SLOT_SIZE;
        PAGE_SIZE - lower - live
    }

    /// Returns `true` if a tuple of `len` bytes fits (possibly after
    /// compaction), assuming it may need a fresh slot entry.
    pub fn fits(&self, len: usize) -> bool {
        self.reclaimable_space() >= len + SLOT_SIZE
    }

    /// Inserts a tuple, compacting if fragmentation requires it. Returns the
    /// slot index, or `None` if the page genuinely lacks space.
    pub fn insert(&mut self, data: &[u8]) -> Option<u16> {
        self.insert_with(data.len(), |tuple| tuple.copy_from_slice(data))
    }

    /// [`Page::insert`] of a `len`-byte tuple that `fill` writes in place;
    /// `fill` runs only if the tuple is placed.
    pub fn insert_with(&mut self, len: usize, fill: impl FnOnce(&mut [u8])) -> Option<u16> {
        if len > MAX_TUPLE {
            return None;
        }
        // Reuse the lowest tombstoned slot entry if one exists, else append one.
        let count = self.slot_count();
        let mut slot = count;
        if self.may_hold_tombstone() {
            match (0..count).find(|&s| self.slot_entry(s).0 == TOMBSTONE) {
                Some(s) => slot = s,
                None => self.set_may_hold_tombstone(false),
            }
        }
        let need_new_slot = slot == count;
        let need = len + if need_new_slot { SLOT_SIZE } else { 0 };

        if self.free_space() < need {
            if self.reclaimable_space() < need {
                return None;
            }
            self.compact();
        }
        if need_new_slot {
            self.set_slot_count(slot + 1);
        }
        let new_upper = self.free_upper() as usize - len;
        fill(&mut self.bytes[new_upper..new_upper + len]);
        self.set_free_upper(new_upper as u16);
        self.set_slot_entry(slot, new_upper as u16, len as u16);
        Some(slot)
    }

    /// Places `data` into a *specific* slot (recovery redo must be
    /// slot-exact regardless of replay order). Extends the slot directory
    /// with tombstones if needed. Fails only if the slot is live with
    /// different content or space is exhausted.
    pub fn insert_at_slot(&mut self, slot: u16, data: &[u8]) -> bool {
        if data.len() > MAX_TUPLE {
            return false;
        }
        if self.get(slot) == Some(data) {
            return true; // already applied
        }
        if self.get(slot).is_some() {
            return false; // live with different content
        }
        let new_slots = (slot as usize + 1).saturating_sub(self.slot_count() as usize);
        let need = data.len() + new_slots * SLOT_SIZE;
        if self.free_space() < need {
            if self.reclaimable_space() < need {
                return false;
            }
            self.compact();
        }
        if new_slots > 0 {
            let old = self.slot_count();
            self.set_slot_count(slot + 1);
            for s in old..slot {
                self.set_slot_entry(s, TOMBSTONE, 0);
            }
            if old < slot {
                self.set_may_hold_tombstone(true);
            }
        }
        let new_upper = self.free_upper() as usize - data.len();
        self.bytes[new_upper..new_upper + data.len()].copy_from_slice(data);
        self.set_free_upper(new_upper as u16);
        self.set_slot_entry(slot, new_upper as u16, data.len() as u16);
        true
    }

    /// Byte range of the tuple in `slot`, if live.
    fn tuple_range(&self, slot: u16) -> Option<std::ops::Range<usize>> {
        if slot >= self.slot_count() {
            return None;
        }
        let (off, len) = self.slot_entry(slot);
        (off != TOMBSTONE).then(|| off as usize..off as usize + len as usize)
    }

    /// Reads the tuple in `slot`, if live.
    pub fn get(&self, slot: u16) -> Option<&[u8]> {
        self.tuple_range(slot).map(|r| &self.bytes[r])
    }

    /// The tuple in `slot`, if live, to change in place (its length is fixed).
    pub fn get_mut(&mut self, slot: u16) -> Option<&mut [u8]> {
        self.tuple_range(slot).map(|r| &mut self.bytes[r])
    }

    /// Overwrites the tuple in `slot`. Grows via fresh allocation (compacting
    /// if needed). Returns `false` if the slot is dead or space ran out.
    pub fn update(&mut self, slot: u16, data: &[u8]) -> bool {
        if slot >= self.slot_count() || data.len() > MAX_TUPLE {
            return false;
        }
        let (off, len) = self.slot_entry(slot);
        if off == TOMBSTONE {
            return false;
        }
        if data.len() <= len as usize {
            // Shrinking or same size: overwrite in place.
            let off = off as usize;
            self.bytes[off..off + data.len()].copy_from_slice(data);
            self.set_slot_entry(slot, off as u16, data.len() as u16);
            return true;
        }
        // Growing: tombstone first so compaction can reclaim the old copy.
        self.set_slot_entry(slot, TOMBSTONE, 0);
        if self.free_space() < data.len() {
            if self.reclaimable_space() < data.len() {
                // Roll back the tombstone; the caller's data is untouched.
                self.set_slot_entry(slot, off, len);
                return false;
            }
            self.compact();
        }
        let new_upper = self.free_upper() as usize - data.len();
        self.bytes[new_upper..new_upper + data.len()].copy_from_slice(data);
        self.set_free_upper(new_upper as u16);
        self.set_slot_entry(slot, new_upper as u16, data.len() as u16);
        true
    }

    /// Tombstones `slot`, returning the old tuple bytes.
    pub fn delete(&mut self, slot: u16) -> Option<Vec<u8>> {
        let old = self.get(slot)?.to_vec();
        self.set_slot_entry(slot, TOMBSTONE, 0);
        self.set_may_hold_tombstone(true);
        Some(old)
    }

    /// Iterator over `(slot, tuple)` pairs for live slots.
    pub fn live_slots(&self) -> impl Iterator<Item = (u16, &[u8])> {
        let live = self.directory().enumerate().filter(|&(_, (off, _))| off != TOMBSTONE);
        live.map(|(slot, (off, len))| (slot as u16, &self.bytes[off as usize..off as usize + len as usize]))
    }

    /// Byte ranges within [`Page::as_bytes`] of the live tuples, in slot
    /// order: one pass over the slot directory, no per-slot lookup.
    #[inline]
    pub fn live_ranges(&self) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        let live = self.directory().filter(|&(off, _)| off != TOMBSTONE);
        live.map(|(off, len)| off as usize..off as usize + len as usize)
    }

    /// `(offset, len)` of every slot directory entry, tombstones included.
    #[inline]
    fn directory(&self) -> impl Iterator<Item = (u16, u16)> + '_ {
        let entries = self.bytes[HEADER_SIZE..].chunks_exact(SLOT_SIZE).take(self.slot_count() as usize);
        entries.map(|e| (u16::from_le_bytes([e[0], e[1]]), u16::from_le_bytes([e[2], e[3]])))
    }

    /// Rewrites the data heap contiguously, dropping dead tuple space.
    pub fn compact(&mut self) {
        let live: Vec<(u16, Vec<u8>)> = self
            .live_slots()
            .map(|(s, d)| (s, d.to_vec()))
            .collect();
        let mut upper = PAGE_SIZE;
        for (slot, data) in live {
            upper -= data.len();
            self.bytes[upper..upper + data.len()].copy_from_slice(&data);
            self.set_slot_entry(slot, upper as u16, data.len() as u16);
        }
        self.set_free_upper(upper as u16);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The insert rule before the tombstone flag: scan the whole slot
    /// directory for the lowest tombstone on every insert.
    fn scanning_insert(p: &mut Page, data: &[u8]) -> Option<u16> {
        if data.len() > MAX_TUPLE {
            return None;
        }
        let slot = (0..p.slot_count()).find(|&s| p.slot_entry(s).0 == TOMBSTONE).unwrap_or(p.slot_count());
        let need = data.len() + if slot == p.slot_count() { SLOT_SIZE } else { 0 };
        if p.free_space() < need {
            if p.reclaimable_space() < need {
                return None;
            }
            p.compact();
        }
        if slot == p.slot_count() {
            p.set_slot_count(slot + 1);
        }
        let new_upper = p.free_upper() as usize - data.len();
        p.bytes[new_upper..new_upper + data.len()].copy_from_slice(data);
        p.set_free_upper(new_upper as u16);
        p.set_slot_entry(slot, new_upper as u16, data.len() as u16);
        Some(slot)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random tapes of insert, delete, `insert_at_slot`, update and
        /// compact: every insert takes the slot the scanning rule takes, and
        /// the page bytes match the scanning reference's but for the flag.
        #[test]
        fn flagged_insert_matches_the_scanning_rule(
            tape in prop::collection::vec((0u8..6, 0u16..48, prop::collection::vec(any::<u8>(), 1..200)), 1..400)
        ) {
            let (mut page, mut reference) = (Page::new(), Page::new());
            for (op, slot, data) in tape {
                match op {
                    0 | 1 => prop_assert_eq!(page.insert(&data), scanning_insert(&mut reference, &data)),
                    2 => prop_assert_eq!(page.delete(slot), reference.delete(slot)),
                    3 => prop_assert_eq!(page.insert_at_slot(slot, &data), reference.insert_at_slot(slot, &data)),
                    4 => prop_assert_eq!(page.update(slot, &data), reference.update(slot, &data)),
                    _ => {
                        page.compact();
                        reference.compact();
                    }
                }
                let strip = |p: &Page| {
                    let mut b = p.bytes;
                    b[MAY_HOLD_TOMBSTONE] = 0;
                    b
                };
                prop_assert!(strip(&page) == strip(&reference), "page bytes diverge after op {}", op);
                let has_tombstone = (0..page.slot_count()).any(|s| page.slot_entry(s).0 == TOMBSTONE);
                prop_assert!(!has_tombstone || page.may_hold_tombstone(), "a tombstone without the flag");
            }
        }
    }

    #[test]
    fn a_page_without_tombstones_keeps_the_flag_clear_and_reuses_after_delete() {
        let mut p = Page::new();
        for i in 0..10u8 {
            assert_eq!(p.insert(&[i; 8]), Some(i.into()));
        }
        assert_eq!(p.as_bytes()[MAY_HOLD_TOMBSTONE], 0);
        p.delete(3);
        p.delete(7);
        assert!(p.may_hold_tombstone());
        assert_eq!(p.insert(b"x"), Some(3));
        assert_eq!(p.insert(b"y"), Some(7));
        assert!(p.may_hold_tombstone(), "only a scan that finds none clears it");
        assert_eq!(p.insert(b"z"), Some(10));
        assert!(!p.may_hold_tombstone());
        let mut gap = Page::new();
        assert!(gap.insert_at_slot(2, b"two"));
        assert!(gap.may_hold_tombstone(), "gap slots are tombstones");
        assert_eq!(gap.insert(b"zero"), Some(0));
    }

    #[test]
    fn format_rebuilds_a_new_page() {
        let mut p = Page::new();
        p.insert(b"data").unwrap();
        p.set_lsn(9);
        p.format();
        assert!(p.as_bytes() == Page::new().as_bytes());
    }

    #[test]
    fn insert_then_get_roundtrips() {
        let mut p = Page::new();
        let s0 = p.insert(b"hello").unwrap();
        let s1 = p.insert(b"world!").unwrap();
        assert_eq!(p.get(s0).unwrap(), b"hello");
        assert_eq!(p.get(s1).unwrap(), b"world!");
        assert_eq!(p.slot_count(), 2);
    }

    #[test]
    fn delete_tombstones_and_slot_is_reused() {
        let mut p = Page::new();
        let s0 = p.insert(b"aaaa").unwrap();
        let _s1 = p.insert(b"bbbb").unwrap();
        assert_eq!(p.delete(s0).unwrap(), b"aaaa");
        assert!(p.get(s0).is_none());
        let s2 = p.insert(b"cccc").unwrap();
        assert_eq!(s2, s0, "tombstoned slot entry should be reused");
        assert_eq!(p.slot_count(), 2);
    }

    #[test]
    fn update_in_place_and_growing() {
        let mut p = Page::new();
        let s = p.insert(b"12345678").unwrap();
        assert!(p.update(s, b"abcd"));
        assert_eq!(p.get(s).unwrap(), b"abcd");
        assert!(p.update(s, b"a much longer tuple than before"));
        assert_eq!(p.get(s).unwrap(), b"a much longer tuple than before");
    }

    #[test]
    fn page_fills_and_rejects_then_compaction_recovers() {
        let mut p = Page::new();
        let tuple = [7u8; 100];
        let mut slots = Vec::new();
        while let Some(s) = p.insert(&tuple) {
            slots.push(s);
        }
        assert!(p.free_space() < tuple.len() + SLOT_SIZE);
        // Delete half the tuples; space is fragmented but reclaimable.
        for s in slots.iter().step_by(2) {
            p.delete(*s);
        }
        // Inserts succeed again via slot reuse + compaction.
        let mut recovered = 0;
        while p.insert(&tuple).is_some() {
            recovered += 1;
            if recovered > slots.len() {
                break;
            }
        }
        assert!(recovered >= slots.len() / 2);
    }

    #[test]
    fn oversized_tuple_rejected() {
        let mut p = Page::new();
        assert!(p.insert(&vec![0u8; MAX_TUPLE + 1]).is_none());
        assert!(p.insert(&vec![1u8; MAX_TUPLE]).is_some());
    }

    #[test]
    fn lsn_roundtrip() {
        let mut p = Page::new();
        assert_eq!(p.lsn(), 0);
        p.set_lsn(0xDEAD_BEEF);
        assert_eq!(p.lsn(), 0xDEAD_BEEF);
    }

    #[test]
    fn live_slots_skips_tombstones() {
        let mut p = Page::new();
        let s0 = p.insert(b"x").unwrap();
        let s1 = p.insert(b"y").unwrap();
        let _s2 = p.insert(b"z").unwrap();
        p.delete(s1);
        let live: Vec<u16> = p.live_slots().map(|(s, _)| s).collect();
        assert_eq!(live, vec![s0, 2]);
        let bytes: Vec<&[u8]> = p.live_ranges().map(|r| &p.as_bytes()[r]).collect();
        assert_eq!(bytes, [b"x", b"z"]);
    }

    #[test]
    fn compact_preserves_content() {
        let mut p = Page::new();
        let s0 = p.insert(b"first").unwrap();
        let s1 = p.insert(b"second").unwrap();
        let s2 = p.insert(b"third").unwrap();
        p.delete(s1);
        let before_free = p.free_space();
        p.compact();
        assert!(p.free_space() > before_free);
        assert_eq!(p.get(s0).unwrap(), b"first");
        assert_eq!(p.get(s2).unwrap(), b"third");
        assert!(p.get(s1).is_none());
    }

    #[test]
    fn get_mut_changes_a_live_tuple_in_place() {
        let mut p = Page::new();
        let s = p.insert(b"abcd").unwrap();
        p.get_mut(s).unwrap()[1..3].copy_from_slice(b"XY");
        assert_eq!(p.get(s).unwrap(), b"aXYd");
        p.delete(s);
        assert!(p.get_mut(s).is_none());
        assert!(p.get_mut(99).is_none());
    }

    #[test]
    fn update_dead_slot_fails() {
        let mut p = Page::new();
        let s = p.insert(b"x").unwrap();
        p.delete(s);
        assert!(!p.update(s, b"y"));
        assert!(!p.update(99, b"y"));
    }

    #[test]
    fn failed_grow_update_preserves_old_tuple() {
        let mut p = Page::new();
        // Fill the page almost completely with one big tuple plus a small one.
        let s_small = p.insert(b"small").unwrap();
        let big = vec![3u8; p.free_space() - SLOT_SIZE - 16];
        let _s_big = p.insert(&big).unwrap();
        // Growing the small tuple beyond available space must fail cleanly.
        let huge = vec![9u8; MAX_TUPLE];
        assert!(!p.update(s_small, &huge));
        assert_eq!(p.get(s_small).unwrap(), b"small");
    }
}

//! Deterministic fault injection for the page store.
//!
//! [`FaultInjector`] wraps any [`PageStore`] and injects the failure modes a
//! real device exhibits — transient read/write errors, torn page writes, and
//! a crash latch that kills the device after a configured number of writes.
//! Every decision comes from a seeded generator, so a failing torture run
//! replays bit-identically from its seed.
//!
//! The injector is the storage half of the crash-fault torture rig; the WAL
//! side (`esdb_wal::buffer::LogFault`) reuses [`FaultRng`] so both devices
//! misbehave from one deterministic stream family.

use crate::disk::PageStore;
use crate::error::IoOp;
use crate::page::{Page, PAGE_SIZE};
use crate::rid::PageId;
use crate::{Result, StorageError};
use esdb_sync::Mutex;
use std::sync::Arc;

/// A tiny self-contained xorshift64* generator for fault decisions.
///
/// Kept separate from the workload crate's `Rng` (which is layered above
/// storage) but uses the same algorithm, so fault schedules are stable across
/// platforms and releases.
#[derive(Debug, Clone)]
pub struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// Creates a generator from `seed` (0 is remapped to a fixed constant).
    pub fn new(seed: u64) -> Self {
        FaultRng {
            state: if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed },
        }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[0, bound)`; `bound` must be non-zero.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Bernoulli draw: `true` with probability `num / denom`.
    #[inline]
    pub fn chance(&mut self, num: u64, denom: u64) -> bool {
        num > 0 && self.below(denom) < num
    }
}

/// What the injector should break, and how often.
///
/// Probabilities are per ten thousand operations so low rates stay integral.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Seed for the fault decision stream.
    pub seed: u64,
    /// Probability (per 10⁴ reads) of a transient read error.
    pub read_error_per_10k: u64,
    /// Probability (per 10⁴ writes) of a transient write error.
    pub write_error_per_10k: u64,
    /// Probability (per 10⁴) that a failed write *tears*: a random prefix of
    /// the new page reaches the medium before the error is reported. A retry
    /// that eventually succeeds overwrites the torn state.
    pub torn_write_per_10k: u64,
    /// After this many successful page writes the device trips its crash
    /// latch: the in-flight write may tear, and every operation afterwards
    /// fails with [`StorageError::DeviceFailed`] until [`FaultInjector::heal`].
    pub crash_after_writes: Option<u64>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 1,
            read_error_per_10k: 0,
            write_error_per_10k: 0,
            torn_write_per_10k: 0,
            crash_after_writes: None,
        }
    }
}

/// Counters describing what the injector actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Reads that reached the inner store.
    pub reads: u64,
    /// Writes that reached the inner store intact.
    pub writes: u64,
    /// Transient read errors injected.
    pub injected_read_errors: u64,
    /// Transient write errors injected.
    pub injected_write_errors: u64,
    /// Writes that left a torn page behind.
    pub torn_writes: u64,
    /// Whether the crash latch is currently tripped.
    pub device_failed: bool,
}

struct FaultState {
    rng: FaultRng,
    writes_done: u64,
    crashed: bool,
    stats: FaultStats,
}

/// A [`PageStore`] decorator that injects deterministic faults.
pub struct FaultInjector {
    inner: Arc<dyn PageStore>,
    config: FaultConfig,
    state: Mutex<FaultState>,
}

impl FaultInjector {
    /// Wraps `inner` with the fault plan in `config`.
    pub fn new(inner: Arc<dyn PageStore>, config: FaultConfig) -> Self {
        let rng = FaultRng::new(config.seed);
        FaultInjector {
            inner,
            config,
            state: Mutex::new(FaultState {
                rng,
                writes_done: 0,
                crashed: false,
                stats: FaultStats::default(),
            }),
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &Arc<dyn PageStore> {
        &self.inner
    }

    /// Injection counters.
    pub fn stats(&self) -> FaultStats {
        let st = self.state.lock();
        let mut stats = st.stats;
        stats.device_failed = st.crashed;
        stats
    }

    /// Simulated restart: clears the crash latch (the data already on the
    /// medium — including any torn page — stays as it is).
    pub fn heal(&self) {
        self.state.lock().crashed = false;
    }

    /// Persists `page[..cut]` over the current on-medium image of `id` — the
    /// torn write: a prefix of the new page made it, the tail is still old.
    fn tear(&self, id: PageId, page: &Page, cut: usize) -> Result<()> {
        let mut merged = Page::new();
        self.inner.read(id, &mut merged)?;
        merged.as_bytes_mut()[..cut].copy_from_slice(&page.as_bytes()[..cut]);
        self.inner.write(id, &merged)
    }
}

impl PageStore for FaultInjector {
    fn allocate(&self) -> PageId {
        self.inner.allocate()
    }

    fn read(&self, id: PageId, out: &mut Page) -> Result<()> {
        {
            let mut st = self.state.lock();
            if st.crashed {
                return Err(StorageError::DeviceFailed);
            }
            if st.rng.chance(self.config.read_error_per_10k, 10_000) {
                st.stats.injected_read_errors += 1;
                return Err(StorageError::TransientIo { op: IoOp::Read });
            }
            st.stats.reads += 1;
        }
        self.inner.read(id, out)
    }

    fn write(&self, id: PageId, page: &Page) -> Result<()> {
        let action = {
            let mut st = self.state.lock();
            if st.crashed {
                return Err(StorageError::DeviceFailed);
            }
            if self
                .config
                .crash_after_writes
                .is_some_and(|n| st.writes_done >= n)
            {
                // The crash point: the in-flight write tears (a random prefix
                // reaches the medium), then the device is dead.
                st.crashed = true;
                st.stats.torn_writes += 1;
                let cut = st.rng.below(PAGE_SIZE as u64 + 1) as usize;
                Some((cut, StorageError::DeviceFailed))
            } else if st.rng.chance(self.config.write_error_per_10k, 10_000) {
                st.stats.injected_write_errors += 1;
                if st.rng.chance(self.config.torn_write_per_10k, 10_000) {
                    st.stats.torn_writes += 1;
                    let cut = st.rng.below(PAGE_SIZE as u64 + 1) as usize;
                    Some((cut, StorageError::TransientIo { op: IoOp::Write }))
                } else {
                    return Err(StorageError::TransientIo { op: IoOp::Write });
                }
            } else {
                st.writes_done += 1;
                st.stats.writes += 1;
                None
            }
        };
        match action {
            Some((cut, err)) => {
                let _ = self.tear(id, page, cut);
                Err(err)
            }
            None => self.inner.write(id, page),
        }
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::InMemoryDisk;

    fn rig(config: FaultConfig) -> (Arc<InMemoryDisk>, FaultInjector) {
        let disk = Arc::new(InMemoryDisk::new());
        let injector = FaultInjector::new(disk.clone(), config);
        (disk, injector)
    }

    #[test]
    fn passthrough_when_quiet() {
        let (_disk, inj) = rig(FaultConfig::default());
        let id = inj.allocate();
        let mut page = Page::new();
        page.insert(b"safe").unwrap();
        inj.write(id, &page).unwrap();
        let mut back = Page::new();
        inj.read(id, &mut back).unwrap();
        assert_eq!(back.get(0).unwrap(), b"safe");
        let s = inj.stats();
        assert_eq!((s.reads, s.writes), (1, 1));
        assert!(!s.device_failed);
    }

    #[test]
    fn transient_errors_are_injected_deterministically() {
        let run = |seed| {
            let (_disk, inj) = rig(FaultConfig {
                seed,
                read_error_per_10k: 3_000,
                ..FaultConfig::default()
            });
            let id = inj.allocate();
            let page = Page::new();
            inj.write(id, &page).unwrap();
            let mut out = Page::new();
            (0..200)
                .map(|_| inj.read(id, &mut out).is_err())
                .collect::<Vec<_>>()
        };
        let a = run(7);
        assert_eq!(a, run(7), "same seed, same schedule");
        assert!(a.iter().any(|e| *e), "some reads fail");
        assert!(a.iter().any(|e| !*e), "some reads succeed");
        assert_ne!(a, run(8), "different seed, different schedule");
    }

    #[test]
    fn crash_latch_kills_the_device_until_heal() {
        let (_disk, inj) = rig(FaultConfig {
            crash_after_writes: Some(2),
            ..FaultConfig::default()
        });
        let id = inj.allocate();
        let page = Page::new();
        inj.write(id, &page).unwrap();
        inj.write(id, &page).unwrap();
        assert_eq!(inj.write(id, &page).unwrap_err(), StorageError::DeviceFailed);
        let mut out = Page::new();
        assert_eq!(inj.read(id, &mut out).unwrap_err(), StorageError::DeviceFailed);
        assert!(inj.stats().device_failed);
        inj.heal();
        inj.read(id, &mut out).unwrap();
    }

    #[test]
    fn torn_write_leaves_prefix_of_new_page() {
        // Force tearing on every write error and make every write fail once.
        let (disk, inj) = rig(FaultConfig {
            seed: 42,
            write_error_per_10k: 10_000,
            torn_write_per_10k: 10_000,
            ..FaultConfig::default()
        });
        let id = inj.allocate();
        let mut page = Page::new();
        page.insert(&[0xAB; 64]).unwrap();
        let err = inj.write(id, &page).unwrap_err();
        assert_eq!(err, StorageError::TransientIo { op: IoOp::Write });
        assert_eq!(inj.stats().torn_writes, 1);
        // The medium holds a prefix of the new image over the old zero page.
        let mut medium = Page::new();
        disk.read(id, &mut medium).unwrap();
        let new = page.as_bytes();
        let got = medium.as_bytes();
        let matching = got.iter().zip(new.iter()).take_while(|(a, b)| a == b).count();
        assert!(got[matching..].iter().all(|b| *b == 0), "tail is the old page");
    }
}

//! Wait-class accounting: scoped timers that attribute a transaction's wall
//! time to the reason it was not making progress.
//!
//! The honesty rules that make `sum(components) ≤ wall_clock` hold:
//!
//! 1. **Timers are thread-local and top-level-only.** A [`WaitTimer`] opened
//!    while another is live on the same thread (e.g. a latch spin inside a
//!    log wait) records nothing — the enclosing timer already owns that
//!    interval. Counted intervals on a thread are therefore disjoint.
//! 2. **Useful time is the remainder.** [`profile_scope`] measures wall
//!    clock around the closure and defines
//!    `useful = wall − sum(waits recorded inside)`, saturating at zero, so
//!    the profile can never claim more time than actually passed.
//!
//! Everything here compiles to no-ops under `RUSTFLAGS="--cfg obs_disabled"`
//! (the overhead-gate build); callers never need their own `#[cfg]`.

use crate::histogram::{Histogram, HistogramSnapshot};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Why a thread was not doing useful work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum WaitClass {
    /// Blocked in the lock manager on a logical row lock held by another
    /// transaction.
    LockWait = 0,
    /// Spinning on a contended latch (physical short-term mutual exclusion).
    LatchSpin = 1,
    /// Waiting on the log subsystem outside commit: the WAL flush a page
    /// steal forces, or the durability wait an ELR commit defers.
    LogWait = 2,
    /// Retry backoff after a transient storage-device error.
    IoRetry = 3,
    /// Waiting for the commit record to become durable (group-commit flush).
    CommitFlush = 4,
}

/// Number of wait classes.
pub const WAIT_CLASSES: usize = 5;

impl WaitClass {
    /// All classes, in `repr` order.
    pub const ALL: [WaitClass; WAIT_CLASSES] = [
        WaitClass::LockWait,
        WaitClass::LatchSpin,
        WaitClass::LogWait,
        WaitClass::IoRetry,
        WaitClass::CommitFlush,
    ];

    /// Stable lower-snake name (column headers, wire format docs).
    pub fn name(self) -> &'static str {
        match self {
            WaitClass::LockWait => "lock_wait",
            WaitClass::LatchSpin => "latch_spin",
            WaitClass::LogWait => "log_wait",
            WaitClass::IoRetry => "io_retry",
            WaitClass::CommitFlush => "commit_flush",
        }
    }
}

/// Where one span of wall time went, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaitProfile {
    /// Time not attributed to any wait class.
    pub useful: u64,
    /// See [`WaitClass::LockWait`].
    pub lock_wait: u64,
    /// See [`WaitClass::LatchSpin`].
    pub latch_spin: u64,
    /// See [`WaitClass::LogWait`].
    pub log_wait: u64,
    /// See [`WaitClass::IoRetry`].
    pub io_retry: u64,
    /// See [`WaitClass::CommitFlush`].
    pub commit_flush: u64,
}

impl WaitProfile {
    /// Nanoseconds attributed to `class`.
    pub fn get(&self, class: WaitClass) -> u64 {
        match class {
            WaitClass::LockWait => self.lock_wait,
            WaitClass::LatchSpin => self.latch_spin,
            WaitClass::LogWait => self.log_wait,
            WaitClass::IoRetry => self.io_retry,
            WaitClass::CommitFlush => self.commit_flush,
        }
    }

    /// Sum of all wait classes (excludes `useful`).
    pub fn wait_total(&self) -> u64 {
        WaitClass::ALL.iter().fold(0u64, |acc, &c| acc.saturating_add(self.get(c)))
    }

    /// Total accounted time: `useful + wait_total`. By construction (see
    /// module docs) this never exceeds the wall clock of the profiled span.
    pub fn wall(&self) -> u64 {
        self.useful.saturating_add(self.wait_total())
    }

    /// Accumulates another profile (worker merge).
    pub fn merge(&mut self, other: &WaitProfile) {
        self.useful = self.useful.saturating_add(other.useful);
        self.lock_wait = self.lock_wait.saturating_add(other.lock_wait);
        self.latch_spin = self.latch_spin.saturating_add(other.latch_spin);
        self.log_wait = self.log_wait.saturating_add(other.log_wait);
        self.io_retry = self.io_retry.saturating_add(other.io_retry);
        self.commit_flush = self.commit_flush.saturating_add(other.commit_flush);
    }
}

#[cfg_attr(obs_disabled, allow(dead_code))]
struct TlsState {
    /// Live [`WaitTimer`] nesting depth on this thread.
    depth: Cell<u32>,
    /// Nanoseconds accumulated per wait class (monotone; scopes read deltas).
    waits: [Cell<u64>; WAIT_CLASSES],
}

thread_local! {
    static TLS: TlsState = const {
        TlsState {
            depth: Cell::new(0),
            waits: [Cell::new(0), Cell::new(0), Cell::new(0), Cell::new(0), Cell::new(0)],
        }
    };
}

/// RAII guard from [`wait_timer`]; records its interval on drop.
#[must_use = "the timer measures until dropped"]
pub struct WaitTimer {
    /// When the wait began; `None` once finished, or with obs compiled out.
    start: Option<Instant>,
    /// The class to attribute to — `Some` only for the outermost timer on
    /// this thread.
    class: Option<WaitClass>,
}

/// Starts timing a wait of `class`. Drop the guard when the wait ends.
/// Nested timers (any class) record nothing — see the module docs.
#[inline]
pub fn wait_timer(class: WaitClass) -> WaitTimer {
    #[cfg(obs_disabled)]
    {
        let _ = class;
        WaitTimer { start: None, class: None }
    }
    #[cfg(not(obs_disabled))]
    {
        let top_level = TLS.with(|t| {
            let d = t.depth.get();
            t.depth.set(d + 1);
            d == 0
        });
        WaitTimer {
            start: Some(Instant::now()),
            class: top_level.then_some(class),
        }
    }
}

impl WaitTimer {
    /// Ends the wait now and returns how long it lasted, so a caller that
    /// also feeds a component histogram reads the clock once for both. A
    /// nested timer still attributes nothing to a wait class but reports its
    /// own duration (0 with obs compiled out).
    pub fn stop(mut self) -> u64 {
        self.finish(true)
    }

    fn finish(&mut self, report: bool) -> u64 {
        let Some(start) = self.start.take() else {
            return 0;
        };
        TLS.with(|t| t.depth.set(t.depth.get() - 1));
        if self.class.is_none() && !report {
            return 0;
        }
        let nanos = start.elapsed().as_nanos() as u64;
        if let Some(class) = self.class {
            record_wait(class, nanos);
        }
        nanos
    }
}

impl Drop for WaitTimer {
    fn drop(&mut self) {
        self.finish(false);
    }
}

/// Attributes `nanos` of already-measured wait to `class` (thread-local and
/// global). Prefer [`wait_timer`] — this bypasses the nesting rule, so only
/// call it where no timer can be live.
#[inline]
pub fn record_wait(class: WaitClass, nanos: u64) {
    #[cfg(obs_disabled)]
    {
        let _ = (class, nanos);
    }
    #[cfg(not(obs_disabled))]
    {
        TLS.with(|t| {
            let cell = &t.waits[class as usize];
            cell.set(cell.get().saturating_add(nanos));
        });
        GLOBAL.waits[class as usize].fetch_add(nanos, Ordering::Relaxed);
    }
}

#[cfg(not(obs_disabled))]
fn tls_waits() -> [u64; WAIT_CLASSES] {
    TLS.with(|t| {
        let mut out = [0u64; WAIT_CLASSES];
        for (o, c) in out.iter_mut().zip(&t.waits) {
            *o = c.get();
        }
        out
    })
}

/// Runs `f`, measuring its wall time and collecting the waits its thread
/// recorded, and returns the result plus the span's [`WaitProfile`]
/// (`useful` = wall − waits). The span's `useful` is also added to the
/// process-global aggregate (the waits already were, at timer drop).
#[inline]
pub fn profile_scope<R>(f: impl FnOnce() -> R) -> (R, WaitProfile) {
    #[cfg(obs_disabled)]
    {
        (f(), WaitProfile::default())
    }
    #[cfg(not(obs_disabled))]
    {
        let before = tls_waits();
        let start = Instant::now();
        let result = f();
        let wall = start.elapsed().as_nanos() as u64;
        let after = tls_waits();
        let mut deltas = [0u64; WAIT_CLASSES];
        for i in 0..WAIT_CLASSES {
            deltas[i] = after[i].wrapping_sub(before[i]);
        }
        let wait_total: u64 = deltas.iter().sum();
        let useful = wall.saturating_sub(wait_total);
        GLOBAL.useful.fetch_add(useful, Ordering::Relaxed);
        let profile = WaitProfile {
            useful,
            lock_wait: deltas[WaitClass::LockWait as usize],
            latch_spin: deltas[WaitClass::LatchSpin as usize],
            log_wait: deltas[WaitClass::LogWait as usize],
            io_retry: deltas[WaitClass::IoRetry as usize],
            commit_flush: deltas[WaitClass::CommitFlush as usize],
        };
        (result, profile)
    }
}

/// Per-component global histograms (latency distributions, nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Component {
    /// Lock-manager blocked-wait durations.
    LockWait = 0,
    /// WAL durability-wait durations (`wait_durable`).
    WalFlush = 1,
    /// Buffer-pool miss service times (disk read + frame install).
    PoolMiss = 2,
    /// Whole-transaction latencies as seen by the workload driver.
    TxnLatency = 3,
    /// Replication lag: bytes between the primary's durable LSN and the
    /// replica's applied LSN, sampled once per shipped chunk.
    ReplLag = 4,
    /// Replica apply-batch durations (decode + redo + index maintenance).
    ReplApply = 5,
    /// Reactor idle time: how long each poller wait blocked before events
    /// (or its timeout) arrived. High values mean the reactor is starved for
    /// work, not slow.
    ReactorPoll = 6,
    /// Reactor busy time per tick: everything between returning from the
    /// poller and going back to sleep — reads, decode, execution, the tick's
    /// group flush, and writes. The per-reactor analogue of the wait
    /// breakdown: `tick / (tick + poll)` is that reactor's duty cycle.
    ReactorTick = 7,
}

/// Number of per-component histograms.
pub const COMPONENTS: usize = 8;

impl Component {
    /// All components, in `repr` order.
    pub const ALL: [Component; COMPONENTS] = [
        Component::LockWait,
        Component::WalFlush,
        Component::PoolMiss,
        Component::TxnLatency,
        Component::ReplLag,
        Component::ReplApply,
        Component::ReactorPoll,
        Component::ReactorTick,
    ];

    /// Stable lower-snake name.
    pub fn name(self) -> &'static str {
        match self {
            Component::LockWait => "lock_wait",
            Component::WalFlush => "wal_flush",
            Component::PoolMiss => "pool_miss",
            Component::TxnLatency => "txn_latency",
            Component::ReplLag => "repl_lag",
            Component::ReplApply => "repl_apply",
            Component::ReactorPoll => "reactor_poll",
            Component::ReactorTick => "reactor_tick",
        }
    }
}

/// Records `nanos` into `component`'s global histogram.
#[inline]
pub fn record_component(component: Component, nanos: u64) {
    #[cfg(obs_disabled)]
    {
        let _ = (component, nanos);
    }
    #[cfg(not(obs_disabled))]
    {
        GLOBAL.hists[component as usize].record(nanos);
    }
}

/// The process-global aggregate every timer and scope feeds.
pub struct GlobalObs {
    waits: [AtomicU64; WAIT_CLASSES],
    useful: AtomicU64,
    hists: [Histogram; COMPONENTS],
}

static GLOBAL: GlobalObs = GlobalObs {
    waits: [
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
    ],
    useful: AtomicU64::new(0),
    hists: [
        Histogram::new(),
        Histogram::new(),
        Histogram::new(),
        Histogram::new(),
        Histogram::new(),
        Histogram::new(),
        Histogram::new(),
        Histogram::new(),
    ],
};

/// The process-global aggregate.
pub fn global() -> &'static GlobalObs {
    &GLOBAL
}

impl GlobalObs {
    /// Point-in-time copy of the global wait breakdown.
    pub fn profile(&self) -> WaitProfile {
        WaitProfile {
            useful: self.useful.load(Ordering::Relaxed),
            lock_wait: self.waits[WaitClass::LockWait as usize].load(Ordering::Relaxed),
            latch_spin: self.waits[WaitClass::LatchSpin as usize].load(Ordering::Relaxed),
            log_wait: self.waits[WaitClass::LogWait as usize].load(Ordering::Relaxed),
            io_retry: self.waits[WaitClass::IoRetry as usize].load(Ordering::Relaxed),
            commit_flush: self.waits[WaitClass::CommitFlush as usize].load(Ordering::Relaxed),
        }
    }

    /// Point-in-time copy of a component's latency histogram.
    pub fn component(&self, c: Component) -> HistogramSnapshot {
        self.hists[c as usize].snapshot()
    }

    /// Zeroes the whole aggregate (between benchmark cells; racy vs writers).
    pub fn reset(&self) {
        for w in &self.waits {
            w.store(0, Ordering::Relaxed);
        }
        self.useful.store(0, Ordering::Relaxed);
        for h in &self.hists {
            h.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn scope_attributes_wait_and_useful() {
        let (_, p) = profile_scope(|| {
            let t = wait_timer(WaitClass::LockWait);
            std::thread::sleep(Duration::from_millis(5));
            drop(t);
            std::hint::black_box(42)
        });
        assert!(p.lock_wait >= 4_000_000, "{p:?}");
        assert!(p.wall() >= p.lock_wait, "{p:?}");
        assert_eq!(p.wall(), p.useful + p.wait_total());
    }

    #[test]
    fn nested_timer_does_not_double_count() {
        let (_, p) = profile_scope(|| {
            let outer = wait_timer(WaitClass::LogWait);
            let inner = wait_timer(WaitClass::LatchSpin);
            std::thread::sleep(Duration::from_millis(4));
            // A stopped inner timer still reports how long it lasted.
            assert!(inner.stop() >= 3_000_000);
            assert!(outer.stop() >= 3_000_000);
        });
        // The inner interval belongs to the outer timer's class only.
        assert_eq!(p.latch_spin, 0, "{p:?}");
        assert!(p.log_wait >= 3_000_000, "{p:?}");
    }

    #[test]
    fn sequential_timers_accumulate() {
        let (_, p) = profile_scope(|| {
            for _ in 0..2 {
                let t = wait_timer(WaitClass::IoRetry);
                std::thread::sleep(Duration::from_millis(2));
                drop(t);
            }
        });
        assert!(p.io_retry >= 3_000_000, "{p:?}");
    }

    #[test]
    fn profile_merge_adds_componentwise() {
        let mut a = WaitProfile { useful: 1, lock_wait: 2, ..Default::default() };
        let b = WaitProfile { useful: 10, commit_flush: 5, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.useful, 11);
        assert_eq!(a.lock_wait, 2);
        assert_eq!(a.commit_flush, 5);
        assert_eq!(a.wall(), 18);
    }

    #[test]
    fn record_wait_reaches_global() {
        // Serialize against other tests touching GLOBAL by using a distinct
        // class with a distinctive amount and checking growth, not equality.
        let before = global().profile().io_retry;
        record_wait(WaitClass::IoRetry, 12345);
        assert!(global().profile().io_retry >= before + 12345);
    }

    #[test]
    fn component_histograms_record() {
        record_component(Component::PoolMiss, 777);
        let s = global().component(Component::PoolMiss);
        assert!(s.count >= 1);
    }

    #[test]
    fn wait_class_names_are_stable() {
        let names: Vec<&str> = WaitClass::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(
            names,
            ["lock_wait", "latch_spin", "log_wait", "io_retry", "commit_flush"]
        );
        assert_eq!(
            Component::ALL.map(|c| c.name()),
            [
                "lock_wait",
                "wal_flush",
                "pool_miss",
                "txn_latency",
                "repl_lag",
                "repl_apply",
                "reactor_poll",
                "reactor_tick"
            ]
        );
    }
}

//! Simulation reports and cycle accounting.

use crate::cache::CacheStats;

/// Where context-cycles went during a run.
///
/// `compute + mem_stall + spin + switch_overhead + idle` equals the chip's
/// total context-cycle capacity; `lock_blocked` and `flush_wait` are
/// *task*-time (the task was parked, the context did other work) and are
/// reported for latency analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleBreakdown {
    /// Useful instruction execution (incl. L1 hits and lock handoff code).
    pub compute: u64,
    /// Stalled on L2/memory/coherence.
    pub mem_stall: u64,
    /// Burned busy-waiting on locks.
    pub spin: u64,
    /// Context-switch overhead.
    pub switch_overhead: u64,
    /// Contexts with nothing to run.
    pub idle: u64,
    /// Task-time parked on lock queues.
    pub lock_blocked: u64,
    /// Task-time waiting for commit flushes.
    pub flush_wait: u64,
}

impl CycleBreakdown {
    /// Context-cycles actually occupied (busy, not idle).
    pub fn busy(&self) -> u64 {
        self.compute + self.mem_stall + self.spin + self.switch_overhead
    }
}

/// Task wait-time split by the subsystem waited on (cycles).
///
/// Each bucket is the sum of spin *and* parked waits against locks of that
/// class (see [`crate::program::lock_class`]) — the same vocabulary the
/// native engine's observability layer reports, so simulated and measured
/// breakdowns render through one code path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaitByClass {
    /// Waits on logical row / partition locks.
    pub lock_wait: u64,
    /// Waits on physical latches.
    pub latch_spin: u64,
    /// Waits on the log-head lock.
    pub log_wait: u64,
}

/// The outcome of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimReport {
    /// Simulated cycles.
    pub horizon: u64,
    /// Hardware contexts.
    pub contexts: usize,
    /// Transactions completed.
    pub txns: u64,
    /// Cycle accounting.
    pub breakdown: CycleBreakdown,
    /// Wait cycles per subsystem class (spin + parked).
    pub waits: WaitByClass,
    /// Cache behaviour.
    pub cache: CacheStats,
    /// Physical commit flushes issued.
    pub flushes: u64,
}

impl SimReport {
    /// Throughput in transactions per million cycles (the unit every figure
    /// reports; absolute wall-clock is meaningless in a simulator).
    pub fn tpmc(&self) -> f64 {
        self.txns as f64 * 1.0e6 / self.horizon as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl CycleBreakdown {
        /// Fraction of busy cycles that were useful compute.
        fn useful_fraction(&self) -> f64 {
            if self.busy() == 0 {
                0.0
            } else {
                self.compute as f64 / self.busy() as f64
            }
        }
    }

    #[test]
    fn tpmc_math() {
        let r = SimReport {
            horizon: 2_000_000,
            contexts: 4,
            txns: 500,
            breakdown: CycleBreakdown::default(),
            waits: WaitByClass::default(),
            cache: CacheStats::default(),
            flushes: 0,
        };
        assert!((r.tpmc() - 250.0).abs() < 1e-9);
    }

    #[test]
    fn useful_fraction() {
        let b = CycleBreakdown {
            compute: 60,
            mem_stall: 20,
            spin: 20,
            ..Default::default()
        };
        assert_eq!(b.busy(), 100);
        assert!((b.useful_fraction() - 0.6).abs() < 1e-9);
        assert_eq!(CycleBreakdown::default().useful_fraction(), 0.0);
    }
}

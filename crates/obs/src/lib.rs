//! # esdb-obs — cycle-accounting observability
//!
//! The keynote argues every claim by cycle accounting: show *where the time
//! goes* — useful work vs latch spin vs lock wait vs log wait — and the
//! bottleneck names itself. This crate is that methodology as a library:
//!
//! - [`Histogram`] / [`HistogramSnapshot`]: a log-bucketed latency histogram
//!   with a lock-free, fixed-memory, allocation-free record path; mergeable
//!   across workers; p50/p95/p99 queryable.
//! - [`WaitClass`] / [`WaitProfile`] / [`wait_timer`] / [`profile_scope`]:
//!   scoped timer guards that attribute a span's wall time to wait classes,
//!   with a thread-local nesting rule that keeps the accounting honest
//!   (`sum(components) ≤ wall`, enforced by tests in `tests/engine_matrix.rs`).
//! - [`global`] / [`Component`]: a process-wide aggregate (breakdown +
//!   per-component histograms) that instrumented crates feed from their hot
//!   paths, read by `Database::obs_snapshot()` and the `fig6_breakdown`
//!   bench.
//!
//! ## Compiling it out
//!
//! Building with `RUSTFLAGS="--cfg obs_disabled"` turns every record path
//! into a no-op **inside this crate** — instrumented call sites elsewhere
//! need no `#[cfg]`. [`enabled`] reports the mode so drivers can skip
//! timestamp reads too; `scripts/ci.sh` gates the enabled build to within 5%
//! of the disabled build's throughput.

#![deny(unsafe_code)]

mod histogram;
mod profile;

pub use histogram::{bucket_index, bucket_lower_bound, Histogram, HistogramSnapshot, BUCKETS};
pub use profile::{
    global, profile_scope, record_component, record_wait, wait_timer, Component, GlobalObs,
    WaitClass, WaitProfile, WaitTimer, COMPONENTS, WAIT_CLASSES,
};

/// `false` when built with `RUSTFLAGS="--cfg obs_disabled"`. Constant, so
/// `if esdb_obs::enabled() { ... }` compiles away entirely in that mode.
#[inline]
pub const fn enabled() -> bool {
    cfg!(not(obs_disabled))
}

#[cfg(test)]
mod tests {
    #[test]
    fn enabled_matches_cfg() {
        assert_eq!(super::enabled(), cfg!(not(obs_disabled)));
    }
}

//! # esdb-lock — centralized hierarchical lock manager
//!
//! The keynote identifies "by-definition centralized operations, such as
//! locking" as the obstacle to converting concurrency into parallelism. This
//! crate is that centralized operation, built the way Shore (and System R
//! before it) built it:
//!
//! * Multi-granularity modes **IS / IX / S / SIX / X** over a
//!   database → table → row hierarchy ([`mode`], [`id`]).
//! * A hash **lock table** with per-partition latches, FIFO queueing, in-place
//!   upgrades, and condition-variable waiting ([`manager`]).
//! * **Deadlock detection** by cycle search in a waits-for graph at block
//!   time, with a timeout backstop ([`deadlock`]).
//!
//! The partition count is configurable precisely so the benchmarks can show
//! the keynote's point: even with a perfectly partitioned lock *table*, the
//! logical contention of hot locks and the cost of queue maintenance make the
//! centralized manager the scalability ceiling — which is what
//! `esdb-dora` then removes by design.

#![deny(unsafe_code)]

pub mod deadlock;
pub mod id;
pub mod manager;
pub mod mode;

pub use id::LockId;
pub use manager::{HeldLocks, LockError, LockManager, LockStatsSnapshot};
pub use mode::LockMode;

/// Transaction identifier used by the lock manager.
pub type TxnId = u64;

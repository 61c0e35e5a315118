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
//! * **Speculative lock inheritance** ([`agent`]): the thread that begins a
//!   transaction keeps its database and table intention grants for its next
//!   transaction, which then visits only its rows. A table S or X request
//!   revokes them through one manager-wide epoch: an idle agent's grant is
//!   taken at once, a live one is waited for like any holder.
//!
//! The partition count is configurable precisely so the benchmarks can show
//! the keynote's point: even with a perfectly partitioned lock *table*, the
//! logical contention of hot locks and the cost of queue maintenance make the
//! centralized manager the scalability ceiling — which is what
//! `esdb-dora` then removes by design. Inheritance takes the hottest,
//! always-compatible entries off that path first, so DORA is compared with
//! the best conventional engine rather than a strawman.

#![deny(unsafe_code)]

pub mod agent;
pub mod deadlock;
pub mod id;
pub mod manager;
pub mod mode;

pub use agent::AGENT_BASE;
pub use id::LockId;
pub use manager::{HeldLocks, LockError, LockManager, LockStatsSnapshot};
pub use mode::LockMode;

/// Transaction identifier used by the lock manager.
pub type TxnId = u64;

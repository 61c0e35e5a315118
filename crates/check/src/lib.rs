//! # esdb-check — deterministic-interleaving concurrency checking
//!
//! Runs the *real* engine — lock manager, transaction manager, WAL policies,
//! DORA executors — on virtual cooperative threads under a seeded scheduler,
//! and checks every explored interleaving against a serializability oracle
//! and scenario invariants.
//!
//! The moving parts:
//!
//! * **Yield-point seam** — `esdb-sync`'s [`esdb_sync::sched`] module routes
//!   every blocking edge of the engine (lock waits, latch parks, commit/log
//!   waits, DORA rendezvous and executor receives) through a pluggable
//!   [`esdb_sync::SchedHook`]. Production pays one relaxed atomic load.
//! * **Virtual threads** — each scenario client (and each engine-internal
//!   executor) is a real OS thread serialized through a command/report
//!   handshake: at most one runs at any moment, and it only advances when
//!   the scheduler steps it.
//! * **Strategies** — uniform [`Strategy::RandomWalk`] and priority-based
//!   [`Strategy::Pct`] exploration, both fully determined by a seed.
//! * **Oracles** — a history [`Recorder`] feeding a conflict-graph
//!   serializability checker, plus per-scenario end-state invariants
//!   (TPC-B money conservation, snapshot consistency, must-commit).
//! * **Replay & shrink** — a failing seed replays byte-identically; a greedy
//!   shrinker deletes schedule segments while the failure persists, leaving
//!   a minimal yield trace for the bug report.
//!
//! ```no_run
//! use esdb_check::{check, tpcb_micro, CheckConfig, Strategy};
//! use esdb_core::EngineConfig;
//!
//! let scenario = tpcb_micro(EngineConfig::conventional_baseline(), 3, 4, 42);
//! let report = check(&scenario, &CheckConfig {
//!     schedules: 100,
//!     strategy: Strategy::Pct { depth: 3 },
//!     ..CheckConfig::default()
//! });
//! assert!(report.failure.is_none(), "{}", report.failure.unwrap());
//! ```

#![deny(unsafe_code)]

mod dist;
mod history;
mod migrate;
mod runner;
mod scenario;
mod schedule;
mod vthread;

pub use dist::{DistEvent, DistViolation, FailoverOracle};
pub use migrate::{MigEvent, MigViolation, MigrationOracle};
pub use history::{Event, Recorder};
pub use esdb_sync::Mutation;
pub use runner::{
    check, replay, CheckConfig, CheckReport, FailureReport, ScheduleRunPublic, Violation,
};
pub use scenario::{
    htap_snapshot, tpcb_micro, tpcb_tables, transfer_scan, transfer_snapshot, Invariant, RunView,
    Scenario, HTAP_ACCOUNTS, TRANSFER_ACCOUNTS,
};
pub use schedule::{Strategy, Trace, TraceStep};

//! # esdb-staged — staged (service-oriented) query execution
//!
//! The keynote: *"at the query processing level, service-oriented
//! architectures provide an excellent framework to exploit available
//! parallelism"* — the StagedDB/CMP line of work. A conventional Volcano
//! engine interleaves every operator's code on one thread per query,
//! thrashing the instruction cache and paying a virtual dispatch per row. A
//! staged engine makes each operator a *service* that drains *packets* of
//! rows, held column-wise; work moves through the pipeline a packet at a
//! time, so each operator's code and state stay hot while it drains one,
//! nothing is allocated or dispatched per row, and independent operators can
//! run on dedicated cores.
//!
//! This crate provides both engines over one logical plan representation:
//!
//! * [`plan`] — the shared query plan (scan, filter, project, hash join,
//!   aggregate, sort).
//! * [`volcano`] — the row-at-a-time pull baseline, and the reference the
//!   staged engine is tested against.
//! * [`engine`] — the staged engine: columnar operators under a
//!   single-threaded driver (the locality effect in isolation) and a
//!   multi-threaded *service* driver with one worker per operator connected
//!   by packet queues.
//!
//! The two engines are semantically equivalent; the test suite checks them
//! against each other, including with property-based random plans over
//! literal rows and over stored, multi-page tables.

#![deny(unsafe_code)]

pub mod engine;
pub mod plan;
pub mod volcano;

pub use engine::{execute_staged, execute_staged_parallel, DEFAULT_BATCH};
pub use plan::{AggFunc, CmpOp, PlanNode, Row};
pub use volcano::execute_volcano;

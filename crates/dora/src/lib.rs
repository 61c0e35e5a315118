//! # esdb-dora — data-oriented transaction execution
//!
//! The keynote: *"we need to ensure consistency by decoupling transaction
//! data access from process assignment"*. Conventional engines assign a
//! *transaction* to a thread, so every thread touches every datum and all
//! coordination funnels through the centralized lock manager. DORA inverts
//! the coupling: each worker thread *owns a logical partition of the data*,
//! and a transaction is decomposed into **actions** that are routed to the
//! owning executors. Within a partition there is no physical concurrency at
//! all, so "locking" degenerates to thread-local bookkeeping — no latches,
//! no shared lock table, no coherence traffic.
//!
//! Components:
//!
//! * [`action`] — the action vocabulary transactions are decomposed into
//!   (read, write, arithmetic read-modify-write, insert, delete).
//! * [`router`] — key → partition assignment.
//! * [`rvp`] — rendezvous points: the synchronization objects that collect
//!   per-partition completions and deliver the transaction verdict.
//! * [`executor`] — the per-partition worker loop with its thread-local lock
//!   table, undo buffers, and wait-die conflict resolution (older waits,
//!   younger aborts — cycles are impossible).
//! * [`system`] — the client-facing façade: build an action list, call
//!   [`system::DoraSystem::execute`], get row results back.
//!
//! Cross-partition atomicity: locks (thread-local) are held until the client
//! observes the global verdict and broadcasts `Complete{commit}`; aborts
//! replay per-executor undo buffers. Durability: executors append ordinary
//! WAL records as they apply actions; the client finishes through the same
//! [`esdb_txn::commit_rule`] as a conventional transaction, with the
//! `Complete{commit}` broadcast as its release step — the commit record
//! forced before the keys are released, or (ELR) after, and always before
//! the client acknowledges.

#![deny(unsafe_code)]

pub mod action;
pub mod executor;
pub mod router;
pub mod rvp;
pub mod system;

pub use action::{Action, ActionOp};
pub use router::Router;
pub use system::{DoraError, DoraStats, DoraSystem};

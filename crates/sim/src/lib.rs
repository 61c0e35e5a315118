//! # esdb-sim — a deterministic discrete-event chip-multiprocessor simulator
//!
//! The keynote's evidence base ("a careful analysis of database performance
//! scaling trends on future chip multiprocessors") was gathered on many-core
//! hardware this environment does not have (the build/test machine exposes a
//! single core). Per the reproduction's substitution rule, this crate stands
//! in for that hardware: a cycle-level discrete-event simulator of a CMP
//! running database-engine *op programs*.
//!
//! What is modelled — exactly the first-order effects the keynote's claims
//! are about:
//!
//! * **Hardware contexts** executing tasks; context switches cost cycles;
//!   more tasks than contexts gives closed-loop oversubscription.
//! * **Caches** ([`cache`]): set-associative private L1s and a shared or
//!   private L2, with write-invalidate coherence accounting — shared
//!   writable lines (lock tables, log heads) ping-pong and that cost emerges
//!   naturally, as does the capacity-vs-latency tradeoff of big caches.
//! * **Critical sections** ([`engine`]): locks with spin, block, or
//!   spin-then-block waiting; spinning burns the context, blocking frees it
//!   for another task at a switch cost.
//! * **The log port and commit flush** ([`engine::FlushPort`]): group commit
//!   with a configurable device latency.
//!
//! [`dbmodel`] compiles database transactions into op programs under a
//! configurable engine design (conventional-2PL vs DORA, serial vs
//! decoupled vs consolidated log, latch policy, ELR), so every figure of the
//! reproduction is a parameter sweep over [`engine::Simulation`].
//!
//! Determinism: a single event heap ordered by `(time, seq)`; no wall-clock,
//! no OS threads, no hash-iteration-order decisions — the same inputs
//! produce bit-identical outputs on every run.

#![deny(unsafe_code)]

pub mod cache;
pub mod dbmodel;
pub mod engine;
pub mod program;
pub mod stats;
pub mod topology;

pub use dbmodel::{DbModelConfig, EngineKind, LogKind, SimTxn};
pub use engine::{Simulation, WaitPolicy};
pub use program::{lock_class, LockClass, Op, Program};
pub use stats::{CycleBreakdown, SimReport, WaitByClass};
pub use topology::ChipConfig;

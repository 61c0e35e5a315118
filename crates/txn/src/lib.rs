//! # esdb-txn — transactions: strict 2PL, logging, rollback, early lock release
//!
//! Ties the substrates together into ACID transactions:
//!
//! * **Atomicity** — every mutation logs a before-image; abort replays the
//!   undo chain, logging compensations as ordinary records so that a crash
//!   mid-abort recovers correctly.
//! * **Consistency/Isolation** — strict two-phase locking through the
//!   centralized [`esdb_lock::LockManager`] (S row locks for reads, X for
//!   writes, table S locks for range scans — coarse but phantom-free).
//! * **Durability** — commit appends a commit record and waits for the WAL
//!   to make it durable (group commit happens inside the log buffer). The
//!   order of append, force and lock release is [`commit_rule`], which the
//!   DORA engine finishes through too.
//!
//! **Early Lock Release (ELR)**, from the Aether work the keynote cites:
//! with ELR enabled, a committing transaction releases its locks *after its
//! commit record is in the log buffer but before it is durable*, hiding the
//! log-device latency from every transaction waiting on its locks. The
//! client still only gets its acknowledgment after durability. Commit-order
//! correctness holds because any dependent transaction acquires the released
//! locks — and therefore inserts its own commit record — strictly after ours,
//! so its durability wait covers ours.

#![deny(unsafe_code)]

pub mod manager;

pub use manager::{commit_rule, PreparedTxn, Txn, TxnError, TxnManager, TxnResult, TxnStats, UndoOp};

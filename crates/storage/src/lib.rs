//! # esdb-storage — Shore-MT-style storage manager substrate
//!
//! The keynote's subject is "transform[ing] a database storage manager from a
//! single-threaded Atlas into a multi-threaded Lernaean Hydra". This crate is
//! that storage manager: the layer every other subsystem (locking, logging,
//! transactions, DORA, staged queries) is built on.
//!
//! Components:
//!
//! * [`page`] — 8 KiB slotted pages with per-page LSNs.
//! * [`disk`] — a page store abstraction with an in-memory implementation
//!   (optionally with injected latency) standing in for a disk array.
//! * [`fault`] — a deterministic, seeded fault-injecting decorator over any
//!   page store (transient errors, torn writes, crash points) used by the
//!   crash-torture harness.
//! * [`buffer`] — a fixed-size buffer pool with clock eviction, frame pinning,
//!   and per-frame reader–writer latches.
//! * [`heap`] — heap files of slotted pages addressed by [`rid::Rid`].
//! * [`btree`] — an in-memory B+tree with per-node latches and latch
//!   crabbing, mapping `u64` keys to values.
//! * [`secondary`] — secondary indexes over single columns (hash and range,
//!   one latched postings map per partition), maintained with idempotent set
//!   semantics so WAL redo can replay them.
//! * [`schema`] — minimal catalog types. Tuples are fixed-arity `i64` rows;
//!   this is sufficient for the TATP/TPC-C-style workloads the keynote's
//!   experiments use and keeps tuple (de)serialization trivial.
//! * [`table`] — the composition: heap file + primary B+tree index, and
//!   its bulk loader.
//!
//! ```
//! use esdb_storage::{buffer::BufferPool, disk::InMemoryDisk, table::Table};
//! use std::sync::Arc;
//!
//! let disk = Arc::new(InMemoryDisk::new());
//! let pool = Arc::new(BufferPool::new(64, disk));
//! let table = Table::create(0, "accounts", 2, pool);
//! table.insert(7, &[100, 1]).unwrap();
//! assert_eq!(table.get(7).unwrap(), vec![100, 1]);
//! ```

#![deny(unsafe_code)]

#[allow(unsafe_code)]
pub mod btree;
pub mod buffer;
pub mod disk;
pub mod error;
pub mod fault;
pub mod heap;
pub mod page;
pub mod rid;
pub mod schema;
pub mod secondary;
pub mod table;

pub use buffer::BufferPool;
pub use disk::InMemoryDisk;
pub use error::{IoOp, StorageError};
pub use fault::{FaultConfig, FaultInjector, FaultRng, FaultStats};
pub use rid::{PageId, Rid};
pub use schema::{IndexDef, IndexId, IndexKind};
pub use secondary::SecondaryIndex;
pub use table::{Table, TableLoader};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StorageError>;

//! # esdb — Embarrassingly Scalable Database Systems
//!
//! Umbrella crate for the `esdb` workspace, a reproduction of the ICDE 2011
//! keynote *"Embarrassingly scalable database systems"* (A. Ailamaki): a
//! multicore-scalable main-memory storage manager with data-oriented
//! transaction execution, consolidation-array logging, staged query
//! processing, and a deterministic chip-multiprocessor simulator for
//! scalability studies beyond the host's core count.
//!
//! Most users want [`esdb_core`], re-exported here as [`core`], which exposes
//! the [`core::Database`] facade. The individual subsystems are also
//! re-exported for direct use.
//!
//! ```
//! use esdb::core::{Database, EngineConfig};
//!
//! let db = Database::open(EngineConfig::default());
//! let accounts = db.create_table("accounts", 2).unwrap();
//! db.execute(|txn| {
//!     txn.insert(accounts, 1, &[100, 0])?;
//!     txn.insert(accounts, 2, &[250, 0])?;
//!     Ok(())
//! })
//! .unwrap();
//! assert_eq!(db.read_committed(accounts, 1).unwrap()[0], 100);
//! ```

#![deny(unsafe_code)]

pub use esdb_core as core;
pub use esdb_dora as dora;
pub use esdb_lock as lock;
pub use esdb_net as net;
pub use esdb_obs as obs;
pub use esdb_rebal as rebal;
pub use esdb_repl as repl;
pub use esdb_shard as shard;
pub use esdb_sim as sim;
pub use esdb_staged as staged;
pub use esdb_storage as storage;
pub use esdb_sync as sync;
pub use esdb_txn as txn;
pub use esdb_wal as wal;
pub use esdb_workload as workload;

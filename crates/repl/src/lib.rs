//! # esdb-repl — WAL log-shipping replication
//!
//! The paper's thesis is that a database engine should scale *embarrassingly*
//! — by adding near-independent workers rather than tuning shared ones. This
//! crate applies that recipe to reads: a primary keeps its write path
//! untouched while shipping its already-durable WAL bytes to any number of
//! replicas, each of which redoes the stream against its own storage and
//! serves follower reads. Read throughput then scales with replica count the
//! same way the engine's internal throughput scales with worker count.
//!
//! The moving parts:
//!
//! * **Bootstrap** — the primary takes a fuzzy checkpoint and streams its
//!   catalog, the flushed pages and the checkpoint's `redo_lsn`
//!   ([`esdb_net::Snapshot::take`]). [`Replica::bootstrap`] validates them,
//!   installs the pages and builds its database through
//!   [`esdb_core::Database::restore`] — the same assembly path a crash
//!   restart takes. Heaps grow by adoption: a shipped row record names its
//!   page, and redo adds a page the heap lacks at its sorted position.
//! * **Shipping** — the primary's server pushes raw durable log spans
//!   (`LogChunk` frames). The WAL's CRC-framed record encoding rides the wire
//!   unchanged, so every torn-tail/corruption guarantee of
//!   [`esdb_wal::record::decode_stream_checked`] applies to shipped bytes too.
//! * **The durable cursor** — each replica lands shipped bytes in an
//!   append-only [`esdb_wal::buffer::LogStore`] *before* applying them. A
//!   replica crash therefore loses only volatile apply state; reopening
//!   salvages the cursor exactly like crash recovery salvages a local WAL
//!   (torn tail dropped, detectable corruption a typed halt) and re-applies.
//!   Page-LSN idempotent redo makes the re-apply a no-op where the first
//!   pass already landed.
//! * **Follower reads** — the replica publishes its commit-consistent apply
//!   frontier as an atomic watermark; a server configured with it answers
//!   `ReadAt` requests only once the frontier passes the caller's
//!   read-your-writes token (the primary's durable LSN at commit time).
//!
//! See `DESIGN.md` ("Replication") for the invariants and their arguments.

#![deny(unsafe_code)]

pub mod htap;
pub mod range;
pub mod replica;
pub mod runner;

pub use htap::HtapView;
pub use range::{apply_range_op, range_rows, RangeOp, RangeShip, RangeShipError};
pub use replica::{divergence_check, ship_available, Promotion, Replica, ReplError};
pub use runner::{start_replica, ReplicaHandle};

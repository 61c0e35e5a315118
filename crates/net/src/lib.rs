//! # esdb-net — the network front-end
//!
//! Everything the engine exposes to remote clients, in three layers:
//!
//! * [`protocol`] — a length-prefixed binary wire format (`u32` length +
//!   tagged little-endian payload). Decoding distinguishes
//!   incomplete from malformed input and never panics on hostile bytes.
//! * [`server`] + [`reactor`] — an event-driven TCP server over `std::net`
//!   wrapping an `Arc<Database>`: N per-core reactor threads run epoll-style
//!   readiness loops (the vendored `minipoll` stub), each session a
//!   nonblocking state machine owned by exactly one reactor. Admission stays
//!   bounded with explicit load shedding (connections beyond the cap get a
//!   structured `Busy` greeting, not a queue slot); pipelined one-shot
//!   commits from *every* session on a reactor ride a single group-commit
//!   WAL flush per tick; graceful shutdown drains in-flight work and forces
//!   the log durable.
//! * [`client`] — a blocking client (`one_shot`, pipelined batches,
//!   interactive BEGIN/READ/UPDATE/INSERT/COMMIT/ABORT) plus a
//!   multi-connection load generator producing the same [`WorkloadReport`]
//!   the in-process harness emits, so server-attached and embedded
//!   throughput compare directly.
//!
//! ```
//! use esdb_core::{Database, EngineConfig};
//! use esdb_net::{Client, Server, ServerConfig};
//! use std::sync::Arc;
//!
//! let db = Arc::new(Database::open(EngineConfig::default()));
//! let t = db.create_table("kv", 1).unwrap();
//! let server = Server::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
//!
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! client.begin().unwrap();
//! client.insert(t, 1, vec![42]).unwrap();
//! client.commit().unwrap();
//! assert_eq!(client.read_committed(t, 1).unwrap(), Some(vec![42]));
//! server.shutdown();
//! ```

#![deny(unsafe_code)]

pub mod client;
pub mod protocol;
pub mod reactor;
pub mod server;

pub use client::{run_load, Client, LoadConfig, NetError, ReconnectPolicy, Snapshot};
pub use protocol::{FrameError, Request, Response, ServerStats, WirePlan, MAX_FRAME};
pub use reactor::{FrameCursor, SHIP_ROUND_BYTES};
pub use server::{DecisionSource, Follower, Role, SemiSync, Server, ServerConfig, SlotGate};

use esdb_core::WorkloadReport;

/// Formats a one-line summary of a load run against `stats`, including the
/// commits-per-flush ratio that shows group commit at work.
pub fn summarize(report: &WorkloadReport, stats: &ServerStats) -> String {
    let flushes = stats.engine.wal_flushes.max(1);
    format!(
        "committed={} tps={:.0} wal_flushes={} commits_per_flush={:.1} shed={}",
        report.committed,
        report.throughput(),
        stats.engine.wal_flushes,
        stats.engine.commits as f64 / flushes as f64,
        stats.sessions_shed,
    )
}

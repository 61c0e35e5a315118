//! # esdb-rebal — online shard rebalancing
//!
//! Scale-out sharding (esdb-shard) fixes placement at deployment; the
//! paper's "embarrassingly scalable" promise needs placement to be
//! *re-decidable while serving*. This crate moves one hash slot between
//! two live shards with zero lost or duplicated rows, writes blocked only
//! for a final fence window measured in one drain plus one tail ship:
//!
//! 1. **Fuzzy copy** — a raw heap scan of the slot on the source
//!    ([`esdb_repl::range_rows`]), racing foreground writes by design.
//! 2. **Delta catch-up** — a WAL cursor ([`esdb_repl::RangeShip`])
//!    replays the slot's mutations in LSN order as idempotent absolute
//!    images until lag is small. Repeat-history redo makes the pair
//!    converge to the source heap state, aborted transactions included.
//! 3. **Fence** — brief write block on the source: resolve in-doubt 2PC
//!    slices, drain in-flight writers, ship the final tail up to a marker
//!    record appended to the source WAL.
//! 4. **Cutover** — install a routing table with a bumped epoch into
//!    [`esdb_shard::SharedRouting`]; stale routers and clients get a
//!    typed `WrongShard { epoch, hint }`, refresh, and retry once.
//!
//! Every transition is forced to a [`MigrationLog`] before it is acted on
//! — the same write-ahead discipline as the 2PC [`DecisionLog`]
//! (esdb-shard) — so a crashed coordinator resumes or rolls back
//! idempotently: phases before `CutOver` restart the copy, `CutOver`
//! rolls forward. See `DESIGN.md` ("Online rebalancing") for the
//! invariants and their arguments.
//!
//! [`DecisionLog`]: esdb_shard::DecisionLog

#![deny(unsafe_code)]

pub mod log;
pub mod migrate;

pub use log::{MigrationLog, Phase, FENCE_MARK};
pub use migrate::{
    Migration, MigrationEnv, MigrationSpec, MigrationStats, MigrateError, ShardHandle,
    DEFAULT_FENCE_LAG_BYTES,
};

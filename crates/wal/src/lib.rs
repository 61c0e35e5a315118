//! # esdb-wal — scalable write-ahead logging
//!
//! The keynote: *"often, parallelism needs to be extracted from seemingly
//! serial operations such as logging; extensive research in distributed
//! systems proves to be very useful in this context"* — referring to the
//! Aether line of work on scalable log managers.
//!
//! A write-ahead log is by definition a single serial byte stream; the naive
//! implementation holds one mutex across LSN allocation *and* the buffer
//! copy, so every transaction in the system serializes on it. This crate
//! provides the three designs that work compares:
//!
//! * [`serial::SerialLogBuffer`] — the baseline: one mutex around everything.
//! * [`decoupled::DecoupledLogBuffer`] — the mutex covers only LSN
//!   allocation; the (much longer) buffer fill proceeds in parallel.
//! * [`consolidated::ConsolidatedLogBuffer`] — a *consolidation array* in
//!   front of allocation: concurrent inserts combine into groups, and only
//!   one leader per group touches the allocation mutex.
//!
//! All three implement [`LogBuffer`] and are interchangeable beneath
//! [`Wal`], which adds record framing, commit-time group flush, and feeds
//! [`recovery`] (ARIES-style analysis / redo / undo over the storage layer).
//! [`fsm::DurableFsm`] puts a private serial `Wal` under a coordinator's
//! state, for the 2PC decision log and the migration log.

#![deny(unsafe_code)]

#[allow(unsafe_code)]
pub mod buffer;
pub mod consolidated;
pub mod crc;
#[allow(unsafe_code)]
pub mod decoupled;
pub mod fsm;
pub mod record;
pub mod recovery;
pub mod serial;
pub mod wal;

pub use buffer::{LogBuffer, LogFault, LsnRange};
pub use consolidated::ConsolidatedLogBuffer;
pub use decoupled::DecoupledLogBuffer;
pub use fsm::{DurableFsm, Fsm};
pub use record::{LogBody, LogRecord, SalvagedLog, WalError};
pub use recovery::{checkpoint_redo_lsn, redo, slice_from_checkpoint};
pub use serial::SerialLogBuffer;
pub use wal::{LogPin, LogPolicy, Wal};

/// Log sequence number: a byte offset into the log stream. `0` is reserved as
/// the null LSN (the log begins at [`buffer::LOG_START`]).
pub type Lsn = u64;

/// The null LSN, used for "no previous record".
pub const NULL_LSN: Lsn = 0;

//! A durable state machine: the shape of every coordinator log.
//!
//! A coordinator (2PC decisions, migration phases) keeps a small state in
//! memory and a private serial [`Wal`] of the records that built it.
//! [`DurableFsm`] owns both and gives them one mutator, [`DurableFsm::step`],
//! which settles two rules once for every such log:
//!
//! * **Write-ahead.** A record is appended, and forced when the step asks,
//!   before [`Fsm::apply`] makes it visible, all under the state lock: no
//!   reader sees a forced record's effect before it is durable.
//! * **Live state is recovered state.** [`DurableFsm::recover`] folds the
//!   durable prefix through the same [`Fsm::apply`], so the scan cannot
//!   drift from the live path.

use crate::{LogBody, LogPolicy, Wal, NULL_LSN};
use parking_lot::Mutex;

/// A coordinator's in-memory state, built by folding its log records.
pub trait Fsm: Default {
    /// Folds one record into the state. Records of other kinds are ignored.
    fn apply(&mut self, record: &LogBody);
}

/// A state `S` behind a private write-ahead log of the records that built it.
pub struct DurableFsm<S> {
    wal: Wal,
    state: Mutex<S>,
}

impl<S: Fsm> Default for DurableFsm<S> {
    fn default() -> Self {
        DurableFsm { wal: Wal::new(LogPolicy::Serial, None), state: Mutex::new(S::default()) }
    }
}

impl<S: Fsm> DurableFsm<S> {
    /// The one mutator. Under the state lock, `plan` reads the state and
    /// returns its answer plus at most one record and whether to force it.
    /// The record is appended, forced when asked, and applied before the
    /// lock is released. `plan` may also move volatile state that no record
    /// carries and a crash may lose (the gtid allocator's cursor).
    pub fn step<R>(&self, plan: impl FnOnce(&mut S) -> (R, Option<(LogBody, bool)>)) -> R {
        let mut s = self.state.lock();
        let (answer, record) = plan(&mut s);
        if let Some((record, force)) = record {
            let range = self.wal.append(0, NULL_LSN, &record);
            if force {
                self.wal.wait_durable(range.end);
            }
            s.apply(&record);
        }
        answer
    }

    /// Reads the state under its lock.
    pub fn read<R>(&self, f: impl FnOnce(&S) -> R) -> R {
        f(&self.state.lock())
    }

    /// Physical forces of the private log so far.
    pub fn forces(&self) -> u64 {
        self.wal.flush_count()
    }

    /// Simulates a crash: a new incarnation whose state is the durable
    /// prefix folded through [`Fsm::apply`], logging on the successor stream.
    pub fn recover(&self) -> Self {
        let mut state = S::default();
        for r in self.wal.durable_records() {
            state.apply(&r.body);
        }
        DurableFsm { wal: self.wal.successor(LogPolicy::Serial, None), state: Mutex::new(state) }
    }
}

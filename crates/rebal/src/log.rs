//! The migration coordinator's durable state: a log of state-machine
//! transitions on an [`esdb_wal::DurableFsm`], the same durable state
//! machine that carries the 2PC coordinator's
//! [`DecisionLog`](esdb_shard::DecisionLog).
//!
//! Every phase transition of a migration is **forced** before the
//! coordinator acts on it. The asymmetry that lets presumed abort skip
//! forcing abort verdicts does not apply here: a migration that forgot it
//! had cut over would re-run the cutover against a routing table that
//! already moved on — harmless only because installs are epoch-fenced, but
//! the slot cleanup after the cutover *is* destructive, so the `CutOver`
//! record must be durable before the routing table changes. Forcing every
//! transition keeps the rule simple, and migrations are rare enough that
//! the flushes are noise.
//!
//! Recovery rebuilds, per migration id, the **latest durable phase** and
//! its mark (the delta-ship start LSN for `Copying`, the new routing epoch
//! for `CutOver`). [`Migration::resume`](crate::Migration::resume) maps
//! that onto the idempotent restart rule: anything before `CutOver`
//! restarts the copy; `CutOver` and later roll forward.

use esdb_wal::{DurableFsm, Fsm, LogBody};
use std::collections::HashMap;

/// The migration state machine. Ordinals are the durable wire form (the
/// `phase` byte of [`LogBody::MigrationStep`]); ordering is meaningful —
/// recovery compares phases against [`Phase::CutOver`] to pick between
/// restart-the-copy and roll-forward.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Intent recorded; nothing moved yet.
    Planned = 0,
    /// Fuzzy bulk copy of the slot's rows is running (mark = delta-ship
    /// start LSN, taken before the copy's heap scan).
    Copying = 1,
    /// Bulk copy landed; WAL delta catch-up is pumping the slot's
    /// mutations until lag drops below the fence threshold.
    CatchUp = 2,
    /// Writes to the slot are fenced on the source; in-doubt 2PC slices
    /// resolved, in-flight writers drained, final tail shipped.
    Fenced = 3,
    /// The new routing table (mark = its epoch) is durable; ownership
    /// flips source → destination.
    CutOver = 4,
    /// Source-side slot rows cleaned up; migration complete.
    Done = 5,
}

impl Phase {
    /// The durable ordinal.
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Decodes a durable ordinal; unknown bytes are `None` (a foreign or
    /// future record, skipped by recovery).
    pub fn from_u8(b: u8) -> Option<Phase> {
        match b {
            0 => Some(Phase::Planned),
            1 => Some(Phase::Copying),
            2 => Some(Phase::CatchUp),
            3 => Some(Phase::Fenced),
            4 => Some(Phase::CutOver),
            5 => Some(Phase::Done),
            _ => None,
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Phase::Planned => "planned",
            Phase::Copying => "copying",
            Phase::CatchUp => "catch-up",
            Phase::Fenced => "fenced",
            Phase::CutOver => "cut-over",
            Phase::Done => "done",
        };
        f.write_str(s)
    }
}

/// The `phase` byte of the fence-marker record a migration appends to the
/// **source shard's** WAL (not this log). Everything at LSNs before the
/// marker is the slot's final history; nothing after it can touch the slot
/// — it was appended after fence + drain. Deliberately outside the
/// [`Phase`] ordinal space.
pub const FENCE_MARK: u8 = 0xFE;

/// Latest `(phase, mark)` per migration id.
#[derive(Default)]
struct Phases(HashMap<u64, (Phase, u64)>);

impl Fsm for Phases {
    fn apply(&mut self, record: &LogBody) {
        if let LogBody::MigrationStep { mid, phase, mark, .. } = *record {
            if let Some(p) = Phase::from_u8(phase) {
                self.0.insert(mid, (p, mark));
            }
        }
    }
}

/// The migration coordinator's write-ahead log: one forced
/// [`LogBody::MigrationStep`] per state-machine transition.
#[derive(Default)]
pub struct MigrationLog(DurableFsm<Phases>);

impl MigrationLog {
    /// A fresh coordinator log.
    pub fn new() -> MigrationLog {
        MigrationLog::default()
    }

    /// Forces a transition record for migration `mid` and returns once it
    /// is durable. The caller acts on the transition only after this
    /// returns — write-ahead, like every other log in the system.
    pub fn record(&self, mid: u64, phase: Phase, slot: u32, from: u32, to: u32, mark: u64) {
        let step = LogBody::MigrationStep { mid, phase: phase.as_u8(), slot, from, to, mark };
        self.0.step(|_| ((), Some((step, true))));
    }

    /// The latest durable `(phase, mark)` for `mid`, if any transition was
    /// ever recorded.
    pub fn latest(&self, mid: u64) -> Option<(Phase, u64)> {
        self.0.read(|s| s.0.get(&mid).copied())
    }

    /// Simulates a coordinator crash: a new incarnation rebuilt from the
    /// durable prefix only. Because every transition is forced before it is
    /// acted on, the recovered phase is never *behind* the externally
    /// visible state — at worst it is ahead of unfinished work, and every
    /// phase's work is idempotent to redo.
    pub fn recover(&self) -> MigrationLog {
        MigrationLog(self.0.recover())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_ordinals_roundtrip_and_order() {
        for p in [
            Phase::Planned,
            Phase::Copying,
            Phase::CatchUp,
            Phase::Fenced,
            Phase::CutOver,
            Phase::Done,
        ] {
            assert_eq!(Phase::from_u8(p.as_u8()), Some(p));
        }
        assert!(Phase::Fenced < Phase::CutOver);
        assert_eq!(Phase::from_u8(FENCE_MARK), None, "the fence marker is not a phase");
    }

    #[test]
    fn transitions_survive_a_coordinator_crash() {
        let log = MigrationLog::new();
        log.record(7, Phase::Copying, 3, 0, 1, 4096);
        log.record(7, Phase::CatchUp, 3, 0, 1, 0);
        log.record(9, Phase::CutOver, 5, 1, 0, 2);
        let recovered = log.recover();
        assert_eq!(recovered.latest(7), Some((Phase::CatchUp, 0)));
        assert_eq!(recovered.latest(9), Some((Phase::CutOver, 2)));
        assert_eq!(recovered.latest(8), None);
        // The recovered incarnation keeps logging on the rebased stream.
        recovered.record(7, Phase::Fenced, 3, 0, 1, 0);
        assert_eq!(recovered.latest(7), Some((Phase::Fenced, 0)));
    }
}

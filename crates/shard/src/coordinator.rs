//! The coordinator's durable state: gtid allocation and commit decisions.
//!
//! Presumed abort dictates exactly what must hit the log device:
//!
//! * **Commit decisions are forced.** Once any participant may learn
//!   "commit", the verdict must survive a coordinator crash — a recovered
//!   coordinator that forgot it would wrongly presume abort while a
//!   participant already committed.
//! * **Abort decisions are appended but never awaited.** Losing one is
//!   harmless: no decision *means* abort.
//! * **Gtid watermarks are forced ahead of use.** Gtids are handed out in
//!   batches of [`GTID_BATCH`]; the watermark for a batch is durable before
//!   the first gtid of the batch is issued, so a recovered coordinator can
//!   never re-issue a gtid that participants may have prepared under.

use esdb_wal::{LogBody, LogPolicy, Wal, NULL_LSN};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Gtids issued per durable watermark record.
pub const GTID_BATCH: u64 = 1024;

struct CoordState {
    /// Next gtid to hand out.
    next: u64,
    /// Gtids below this bound are covered by a durable watermark.
    durable_bound: u64,
    /// Verdicts reached this incarnation plus those recovered from the log.
    decisions: HashMap<u64, bool>,
}

/// The coordinator's write-ahead decision log.
pub struct DecisionLog {
    wal: Wal,
    state: Mutex<CoordState>,
}

impl Default for DecisionLog {
    fn default() -> Self {
        DecisionLog::new()
    }
}

impl DecisionLog {
    /// A fresh coordinator with an empty log.
    pub fn new() -> Self {
        DecisionLog {
            wal: Wal::new(LogPolicy::Serial, None),
            state: Mutex::new(CoordState {
                next: 0,
                durable_bound: 0,
                decisions: HashMap::new(),
            }),
        }
    }

    /// Issues a globally unique transaction id. The covering watermark is
    /// durable before this returns, so no gtid is ever issued twice across
    /// coordinator incarnations.
    pub fn allocate(&self) -> u64 {
        let mut s = self.state.lock();
        let gtid = s.next;
        s.next += 1;
        if gtid >= s.durable_bound {
            let bound = gtid + GTID_BATCH;
            self.wal.append_forced(&LogBody::GtidWatermark { next: bound });
            s.durable_bound = bound;
        }
        gtid
    }

    /// Records the verdict for `gtid`. Commit verdicts are forced to the
    /// log before this returns; abort verdicts are fire-and-forget.
    ///
    /// The state lock is held across the append, so [`DecisionLog::decision`]
    /// never reports a commit that a crash could still lose: a query during
    /// the force waits for it instead of reading `None`, which a participant
    /// would take as abort.
    pub fn decide(&self, gtid: u64, commit: bool) {
        let mut s = self.state.lock();
        let verdict = LogBody::Decide { gtid, commit };
        if commit {
            self.wal.append_forced(&verdict);
        } else {
            self.wal.append(0, NULL_LSN, &verdict);
        }
        s.decisions.insert(gtid, commit);
    }

    /// The verdict for `gtid`, if one was reached (and, after a crash, was
    /// durable). `None` for an unknown gtid.
    pub fn decision(&self, gtid: u64) -> Option<bool> {
        self.state.lock().decisions.get(&gtid).copied()
    }

    /// The verdict a participant must apply to an in-doubt `gtid`: the
    /// durable decision, or abort when there is none — presumed abort.
    pub fn resolve(&self, gtid: u64) -> bool {
        self.decision(gtid).unwrap_or(false)
    }

    /// Physical forces of the coordinator's private log so far — its share
    /// of a cross-shard commit's durability cost, which no shard's
    /// `stats_snapshot` sees. Presumed abort makes it one per commit
    /// verdict, none per abort, one per [`GTID_BATCH`] gtids.
    pub fn forces(&self) -> u64 {
        self.wal.flush_count()
    }

    /// Simulates a coordinator crash: a new incarnation built from this
    /// log's *durable* prefix only. Unforced abort verdicts vanish (and
    /// resolve as abort anyway); forced commit verdicts and gtid watermarks
    /// survive.
    pub fn recover(&self) -> DecisionLog {
        let records = self.wal.durable_records();
        let mut decisions = HashMap::new();
        let mut bound = 0u64;
        for r in &records {
            match r.body {
                LogBody::Decide { gtid, commit } => {
                    decisions.insert(gtid, commit);
                }
                LogBody::GtidWatermark { next } => bound = bound.max(next),
                _ => {}
            }
        }
        DecisionLog {
            wal: self.wal.successor(LogPolicy::Serial, None),
            state: Mutex::new(CoordState {
                // Skip the whole covered batch: some of it may be in use.
                next: bound,
                durable_bound: bound,
                decisions,
            }),
        }
    }

    /// A [`esdb_net::DecisionSource`] backed by this log, for participant
    /// servers answering `ShardStatus` queries.
    pub fn decision_source(self: &Arc<Self>) -> esdb_net::DecisionSource {
        let log = Arc::clone(self);
        esdb_net::DecisionSource(Arc::new(move |gtid| log.decision(gtid)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gtids_are_unique_across_crashes() {
        let log = DecisionLog::new();
        let mut issued = Vec::new();
        for _ in 0..5 {
            issued.push(log.allocate());
        }
        let recovered = log.recover();
        let next = recovered.allocate();
        assert!(
            !issued.contains(&next),
            "gtid {next} re-issued after crash (already issued: {issued:?})"
        );
        assert!(next >= GTID_BATCH, "recovered allocator must skip the covered batch");
    }

    #[test]
    fn commit_decisions_survive_a_crash_aborts_may_not() {
        let log = DecisionLog::new();
        let a = log.allocate();
        let b = log.allocate();
        let c = log.allocate();
        log.decide(a, true);
        log.decide(b, false);
        let recovered = log.recover();
        assert_eq!(recovered.decision(a), Some(true), "forced commit verdict lost");
        assert!(recovered.resolve(a));
        // The abort verdict may or may not have reached the device; either
        // way the participant-visible resolution is abort.
        assert!(!recovered.resolve(b));
        // Never decided: presumed abort.
        assert_eq!(recovered.decision(c), None);
        assert!(!recovered.resolve(c));
    }

    #[test]
    fn a_commit_verdict_is_visible_only_once_durable() {
        // A participant asking between the verdict and its force must not
        // learn "commit": a crash at that moment presumes abort.
        for _ in 0..2_000 {
            let log = Arc::new(DecisionLog::new());
            let gtid = log.allocate();
            let decider = {
                let log = Arc::clone(&log);
                std::thread::spawn(move || log.decide(gtid, true))
            };
            while log.decision(gtid) != Some(true) {
                std::hint::spin_loop();
            }
            assert_eq!(log.recover().decision(gtid), Some(true), "commit visible before durable");
            decider.join().unwrap();
        }
    }

    #[test]
    fn watermark_batches_amortize_flushes() {
        let log = DecisionLog::new();
        for _ in 0..100 {
            log.allocate();
        }
        // 100 allocations within one batch cost exactly one watermark flush.
        assert_eq!(log.forces(), 1);
    }

    #[test]
    fn presumed_abort_forces_once_per_commit_never_per_abort() {
        let log = DecisionLog::new();
        let first = log.allocate();
        assert_eq!(log.forces(), 1, "the first gtid forces its batch's watermark");
        log.decide(first, true);
        assert_eq!(log.forces(), 2, "a commit verdict is forced");
        for _ in 1..GTID_BATCH {
            let gtid = log.allocate();
            log.decide(gtid, false);
        }
        assert_eq!(log.forces(), 2, "aborts and in-batch gtids force nothing");
        let next_batch = log.allocate();
        assert_eq!(next_batch, GTID_BATCH);
        assert_eq!(log.forces(), 3, "gtid 1,024 forces the next watermark");
        log.decide(next_batch, true);
        assert_eq!(log.forces(), 4);
    }
}

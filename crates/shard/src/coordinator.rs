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
//! * **The first verdict wins.** An inquiry about an undecided gtid takes
//!   abort, and a commit offered after it finds abort: the coordinator never
//!   contradicts an answer a participant may already have acted on.
//! * **Gtid watermarks are forced ahead of use.** Gtids are handed out in
//!   batches of [`GTID_BATCH`]; the watermark for a batch is durable before
//!   the first gtid of the batch is issued, so a recovered coordinator can
//!   never re-issue a gtid that participants may have prepared under.

use esdb_wal::{DurableFsm, Fsm, LogBody};
use std::collections::HashMap;
use std::sync::Arc;

/// Gtids issued per durable watermark record.
pub const GTID_BATCH: u64 = 1024;

#[derive(Default)]
struct CoordState {
    /// Next gtid to hand out. `None` until this incarnation issues one; it
    /// then starts at `durable_bound`, skipping the whole covered batch,
    /// some of which an earlier incarnation may have issued.
    next: Option<u64>,
    /// Gtids below this bound are covered by a durable watermark.
    durable_bound: u64,
    /// The verdict that holds for each gtid: the first one recorded.
    decisions: HashMap<u64, bool>,
}

impl CoordState {
    fn next_gtid(&self) -> u64 {
        self.next.unwrap_or(self.durable_bound)
    }
}

impl Fsm for CoordState {
    fn apply(&mut self, record: &LogBody) {
        match *record {
            LogBody::Decide { gtid, commit } => {
                self.decisions.entry(gtid).or_insert(commit);
            }
            LogBody::GtidWatermark { next } => self.durable_bound = self.durable_bound.max(next),
            _ => {}
        }
    }
}

/// The coordinator's write-ahead decision log.
#[derive(Default)]
pub struct DecisionLog(DurableFsm<CoordState>);

impl DecisionLog {
    /// A fresh coordinator with an empty log.
    pub fn new() -> Self {
        DecisionLog::default()
    }

    /// Issues a globally unique transaction id. The covering watermark is
    /// durable before this returns, so no gtid is ever issued twice across
    /// coordinator incarnations.
    pub fn allocate(&self) -> u64 {
        self.0.step(|s| {
            let gtid = s.next_gtid();
            s.next = Some(gtid + 1);
            let watermark = LogBody::GtidWatermark { next: gtid + GTID_BATCH };
            (gtid, (gtid >= s.durable_bound).then_some((watermark, true)))
        })
    }

    /// Offers `commit` as the verdict for `gtid` and returns the verdict
    /// that holds: the first one recorded, so a commit offered after an
    /// inquiry took abort ([`DecisionLog::resolve`]) finds abort. A new
    /// commit verdict is forced before anyone can read it; a new abort is
    /// appended and never awaited. A gtid this log never issued is abort,
    /// and nothing is recorded for it, so its later allocation starts clean.
    pub fn decide(&self, gtid: u64, commit: bool) -> bool {
        self.0.step(|s| match s.decisions.get(&gtid) {
            Some(&held) => (held, None),
            None if gtid >= s.next_gtid() => (false, None),
            None => (commit, Some((LogBody::Decide { gtid, commit }, commit))),
        })
    }

    /// The verdict recorded for `gtid`, if any (after a crash, only a
    /// durable one). `None` for an undecided gtid.
    pub fn decision(&self, gtid: u64) -> Option<bool> {
        self.0.read(|s| s.decisions.get(&gtid).copied())
    }

    /// The verdict a participant must apply to an in-doubt `gtid`. An
    /// undecided gtid *takes* abort — presumed abort, and the coordinator
    /// never contradicts it afterwards.
    pub fn resolve(&self, gtid: u64) -> bool {
        self.decide(gtid, false)
    }

    /// Physical forces of the coordinator's private log so far — its share
    /// of a cross-shard commit's durability cost, which no shard's
    /// `stats_snapshot` sees. Presumed abort makes it one per commit
    /// verdict, none per abort, one per [`GTID_BATCH`] gtids.
    pub fn forces(&self) -> u64 {
        self.0.forces()
    }

    /// Simulates a coordinator crash: a new incarnation built from this
    /// log's *durable* prefix only. Unforced abort verdicts vanish (and
    /// resolve as abort anyway); forced commit verdicts and gtid watermarks
    /// survive.
    pub fn recover(&self) -> DecisionLog {
        DecisionLog(self.0.recover())
    }

    /// A [`esdb_net::DecisionSource`] backed by this log, for participant
    /// servers answering `ShardStatus` queries.
    pub fn decision_source(self: &Arc<Self>) -> esdb_net::DecisionSource {
        let log = Arc::clone(self);
        esdb_net::DecisionSource(Arc::new(move |gtid| log.resolve(gtid)))
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
    fn an_inquiry_takes_abort_and_a_later_commit_finds_it() {
        let log = DecisionLog::new();
        let gtid = log.allocate();
        assert!(!log.resolve(gtid), "an undecided gtid resolves as abort");
        assert!(!log.decide(gtid, true), "a commit offered after the inquiry must find abort");
        assert!(!log.recover().resolve(gtid));
        assert_eq!(log.forces(), 1, "the inquiry's abort is not forced; only the watermark is");
    }

    #[test]
    fn a_commit_and_an_inquiry_race_to_one_verdict() {
        use std::sync::Barrier;
        for _ in 0..2_000 {
            let log = Arc::new(DecisionLog::new());
            let gtid = log.allocate();
            let start = Arc::new(Barrier::new(2));
            let decider = {
                let (log, start) = (Arc::clone(&log), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    log.decide(gtid, true)
                })
            };
            start.wait();
            let answered = log.resolve(gtid);
            let held = decider.join().unwrap();
            assert_eq!(answered, held, "the inquiry and the coordinator disagree");
            assert_eq!(log.recover().resolve(gtid), held, "recovery contradicts the verdict");
        }
    }

    #[test]
    fn an_inquiry_for_an_unissued_gtid_records_nothing() {
        let log = DecisionLog::new();
        assert!(!log.resolve(0));
        assert_eq!(log.decision(0), None, "a gtid never issued must not be pre-aborted");
        assert_eq!(log.allocate(), 0);
        assert!(log.decide(0, true));

        // A recovered coordinator issues from the covered bound on; below it,
        // an earlier incarnation may have issued the gtid, so an inquiry
        // takes abort.
        let recovered = log.recover();
        assert!(!recovered.resolve(GTID_BATCH));
        assert_eq!(recovered.decision(GTID_BATCH), None);
        assert!(!recovered.resolve(1));
        assert_eq!(recovered.decision(1), Some(false));
        assert_eq!(recovered.allocate(), GTID_BATCH);
        assert!(recovered.decide(GTID_BATCH, true));
        assert!(recovered.resolve(0), "the forced commit survived the crash");
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

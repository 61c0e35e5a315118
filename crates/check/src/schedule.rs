//! Schedule strategies, recorded traces, and the greedy shrinker.
//!
//! A schedule strategy decides, at every step, which ready virtual thread
//! runs next. Two exploration strategies are provided:
//!
//! * **Random walk** — uniform choice over the ready set; good breadth.
//! * **PCT** (probabilistic concurrency testing) — every thread gets a random
//!   priority on first sight and the highest-priority ready thread always
//!   runs, except at `depth` randomly chosen change points where the current
//!   leader is demoted below everyone. PCT finds bugs of small "depth" (few
//!   forced preemptions) with provable probability.
//!
//! A run records its choices as a [`Trace`]; replaying a trace through
//! [`ReplaySchedule`] reproduces the run byte-identically (the engine under
//! the scheduler is deterministic). The shrinker deletes whole same-thread
//! segments of a failing trace while the failure persists, yielding a
//! minimal yield trace for the bug report.

use esdb_workload::Rng;
use std::collections::HashMap;

/// Which exploration strategy to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Uniform random choice at every step.
    RandomWalk,
    /// PCT-style priority schedule with `depth` change points.
    Pct {
        /// Number of priority-change points per schedule.
        depth: usize,
    },
}

/// Per-step scheduling policy over ready thread tags.
pub(crate) trait Schedule {
    /// Picks one of `ready` (non-empty, sorted ascending) at step `step`.
    fn pick(&mut self, ready: &[u64], step: usize) -> u64;
}

/// Uniform random walk over the ready set.
pub(crate) struct RandomWalk {
    rng: Rng,
}

impl RandomWalk {
    pub(crate) fn new(seed: u64) -> Self {
        RandomWalk { rng: Rng::new(seed) }
    }
}

impl Schedule for RandomWalk {
    fn pick(&mut self, ready: &[u64], _step: usize) -> u64 {
        ready[self.rng.below(ready.len() as u64) as usize]
    }
}

/// PCT-style priority schedule.
pub(crate) struct Pct {
    rng: Rng,
    /// Thread priority; larger runs first. Initial priorities live in
    /// `[DEMOTE_CEILING, ..)`, demotions count down from below it, so a
    /// demoted thread ranks under every undemoted one.
    prio: HashMap<u64, u64>,
    /// Remaining change points (ascending step indices).
    change_at: Vec<usize>,
    next_demotion: u64,
}

const DEMOTE_CEILING: u64 = 1 << 32;

impl Pct {
    pub(crate) fn new(seed: u64, depth: usize, max_steps: usize) -> Self {
        let mut rng = Rng::new(seed);
        let mut change_at: Vec<usize> = (0..depth)
            .map(|_| rng.below(max_steps.max(1) as u64) as usize)
            .collect();
        change_at.sort_unstable();
        Pct {
            rng,
            prio: HashMap::new(),
            change_at,
            next_demotion: DEMOTE_CEILING - 1,
        }
    }
}

impl Schedule for Pct {
    fn pick(&mut self, ready: &[u64], step: usize) -> u64 {
        for &t in ready {
            if !self.prio.contains_key(&t) {
                let p = DEMOTE_CEILING + self.rng.below(DEMOTE_CEILING);
                self.prio.insert(t, p);
            }
        }
        let leader = |prio: &HashMap<u64, u64>| {
            *ready
                .iter()
                .max_by_key(|t| (prio[t], u64::MAX - **t)) // tie: smaller tag
                .unwrap()
        };
        while self.change_at.first().is_some_and(|&c| c <= step) {
            self.change_at.remove(0);
            let top = leader(&self.prio);
            self.prio.insert(top, self.next_demotion);
            self.next_demotion -= 1;
        }
        leader(&self.prio)
    }
}

/// Always the smallest ready tag: the deterministic "setup" schedule used
/// while the init thread populates the database.
pub(crate) struct MinTag;

impl Schedule for MinTag {
    fn pick(&mut self, ready: &[u64], _step: usize) -> u64 {
        ready[0]
    }
}

/// Replays a recorded choice sequence. If a recorded choice is not ready
/// (possible mid-shrink, when deleted segments shifted the run), falls back
/// to the smallest ready tag; past the end of the recording it also picks
/// the smallest ready tag, so replay is total.
pub(crate) struct ReplaySchedule {
    choices: Vec<u64>,
    pos: usize,
}

impl ReplaySchedule {
    pub(crate) fn new(choices: Vec<u64>) -> Self {
        ReplaySchedule { choices, pos: 0 }
    }
}

impl Schedule for ReplaySchedule {
    fn pick(&mut self, ready: &[u64], _step: usize) -> u64 {
        let c = self.choices.get(self.pos).copied();
        self.pos += 1;
        match c {
            Some(t) if ready.contains(&t) => t,
            _ => ready[0],
        }
    }
}

/// One recorded scheduling decision: which thread ran, and the label of the
/// yield point it stopped at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStep {
    /// Virtual thread tag (clients count from 0, executors from 1000).
    pub tag: u64,
    /// Label of the yield point the thread paused at ("finish" at exit).
    pub point: &'static str,
}

/// A recorded schedule: the input to byte-identical replay and shrinking.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// The scheduling decisions, in order.
    pub steps: Vec<TraceStep>,
}

impl Trace {
    pub(crate) fn push(&mut self, tag: u64, point: &'static str) {
        self.steps.push(TraceStep { tag, point });
    }

    /// The chosen-thread sequence (what replay consumes).
    pub fn choices(&self) -> Vec<u64> {
        self.steps.iter().map(|s| s.tag).collect()
    }

    /// Human-readable rendering with same-thread runs compressed:
    /// `t0:lock-acquire*3 t1000:exec-recv …`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut i = 0;
        while i < self.steps.len() {
            let s = self.steps[i];
            let mut n = 1;
            while i + n < self.steps.len()
                && self.steps[i + n].tag == s.tag
                && self.steps[i + n].point == s.point
            {
                n += 1;
            }
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(&format!("t{}:{}", s.tag, s.point));
            if n > 1 {
                out.push_str(&format!("*{n}"));
            }
            i += n;
        }
        out
    }
}

/// Greedily shrinks a failing choice sequence: repeatedly try deleting each
/// maximal same-thread segment and keep any deletion under which `replay`
/// still reports a failure of the same kind in no more steps. `replay`
/// returns the failure kind label and the replayed trace's step count (or
/// `None` if the shrunk schedule no longer fails); `steps` is the original
/// trace's. Fewer choices can replay into more steps (the threads fall back
/// to a different interleaving), so the step count is checked too. Bounded
/// by `budget` replays.
pub(crate) fn shrink_trace(
    choices: &[u64],
    steps: usize,
    target_kind: &str,
    mut replay: impl FnMut(&[u64]) -> Option<(String, usize)>,
    budget: usize,
) -> Vec<u64> {
    let mut best: Vec<u64> = choices.to_vec();
    let mut best_steps = steps;
    let mut replays = 0;
    let mut progress = true;
    while progress && replays < budget {
        progress = false;
        // Segment boundaries over the current best.
        let mut seg_starts = vec![0usize];
        for i in 1..best.len() {
            if best[i] != best[i - 1] {
                seg_starts.push(i);
            }
        }
        seg_starts.push(best.len());
        // Try deleting segments, longest first (fastest shrink).
        let mut segs: Vec<(usize, usize)> = seg_starts
            .windows(2)
            .map(|w| (w[0], w[1]))
            .collect();
        segs.sort_by_key(|&(a, b)| std::cmp::Reverse(b - a));
        for (a, b) in segs {
            if replays >= budget {
                break;
            }
            let mut candidate = Vec::with_capacity(best.len() - (b - a));
            candidate.extend_from_slice(&best[..a]);
            candidate.extend_from_slice(&best[b..]);
            replays += 1;
            let shrunk = replay(&candidate).filter(|(kind, n)| kind == target_kind && *n <= best_steps);
            if let Some((_, n)) = shrunk {
                best = candidate;
                best_steps = n;
                progress = true;
                break; // segment indices are stale; recompute
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_walk_is_deterministic_per_seed() {
        let ready = [1u64, 2, 3, 7];
        let picks = |seed| {
            let mut s = RandomWalk::new(seed);
            (0..32).map(|i| s.pick(&ready, i)).collect::<Vec<_>>()
        };
        assert_eq!(picks(9), picks(9));
        assert_ne!(picks(9), picks(10));
    }

    #[test]
    fn pct_runs_leader_until_demoted() {
        let mut s = Pct::new(3, 0, 100); // no change points
        let ready = [1u64, 2, 3];
        let first = s.pick(&ready, 0);
        for i in 1..20 {
            assert_eq!(s.pick(&ready, i), first);
        }
    }

    #[test]
    fn pct_demotion_changes_leader() {
        let mut s = Pct::new(3, 1, 100); // one change point in [0, 100)
        let cp = s.change_at[0];
        let ready = [1u64, 2, 3];
        let picks: Vec<u64> = (0..100).map(|i| s.pick(&ready, i)).collect();
        // Constant leader before the change point, then a different constant
        // leader (the demoted thread ranks below every undemoted one).
        assert!(picks[..cp].iter().all(|&p| p == picks[0]));
        assert!(picks[cp..].iter().all(|&p| p == picks[cp]));
        if cp > 0 {
            assert_ne!(picks[cp - 1], picks[cp]);
        }
    }

    #[test]
    fn replay_follows_recording_and_falls_back() {
        let mut s = ReplaySchedule::new(vec![5, 9, 2]);
        assert_eq!(s.pick(&[2, 5], 0), 5);
        assert_eq!(s.pick(&[2, 5], 1), 2); // 9 not ready → smallest
        assert_eq!(s.pick(&[2], 2), 2);
        assert_eq!(s.pick(&[4, 8], 3), 4); // past the end → smallest
    }

    #[test]
    fn trace_render_compresses_runs() {
        let mut t = Trace::default();
        t.push(0, "lock-acquire");
        t.push(0, "lock-acquire");
        t.push(1, "commit-log");
        assert_eq!(t.render(), "t0:lock-acquire*2 t1:commit-log");
    }

    #[test]
    fn shrinker_reaches_minimal_failing_subsequence() {
        // Failure := the sequence still contains a 2 followed (anywhere)
        // by a 3. Everything else is deletable noise.
        let choices = [1, 1, 2, 1, 1, 3, 1];
        let replay = |c: &[u64]| {
            let first2 = c.iter().position(|&t| t == 2)?;
            c[first2..].contains(&3).then(|| ("bug".to_string(), c.len()))
        };
        let shrunk = shrink_trace(&choices, choices.len(), "bug", replay, 100);
        assert_eq!(shrunk, vec![2, 3]);
    }
}

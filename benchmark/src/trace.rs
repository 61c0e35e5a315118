//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! Every client thread owns a thread-local recorder: [`timed`] wraps a call
//! into a layer, the open-span stack supplies the parent, and the request id
//! is whatever [`next_request`] last set. Spans stay in memory until the
//! thread hands them over with [`take`]. A layer's **self time** is its span
//! minus the part of that interval its children cover ([`self_times`]).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

/// `parent` of a span nothing encloses.
pub const ROOT: u32 = u32::MAX;

/// One recorded interval. `parent` indexes the owning thread's span list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request_id: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct Recorder {
    enabled: bool,
    request_id: u32,
    open: Vec<u32>,
    spans: Vec<Span>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Nanoseconds since the process's first clock read.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns span recording on or off for the calling thread.
pub fn set_enabled(enabled: bool) {
    RECORDER.with(|r| r.borrow_mut().enabled = enabled);
}

/// Whether the calling thread is recording spans.
pub fn enabled() -> bool {
    RECORDER.with(|r| r.borrow().enabled)
}

/// Starts the calling thread's next request: spans recorded from here on
/// carry a fresh id.
pub fn next_request() {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.request_id = r.request_id.wrapping_add(1);
    });
}

/// Runs `f`, returning its result with the start and end clock reads. When
/// recording is on, the interval becomes a span named `name` whose parent is
/// the innermost [`timed`] call enclosing this one on the same thread.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, u64, u64) {
    let start_ns = now_ns();
    let slot = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return None;
        }
        let id = r.spans.len() as u32;
        let span = Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: r.open.last().copied().unwrap_or(ROOT),
            request_id: r.request_id,
        };
        r.spans.push(span);
        r.open.push(id);
        Some(id)
    });
    let result = f();
    let end_ns = now_ns();
    if let Some(id) = slot {
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            r.spans[id as usize].end_ns = end_ns;
            r.open.pop();
        });
    }
    (result, start_ns, end_ns)
}

/// [`timed`] for callers that need only the result.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    timed(name, f).0
}

/// Hands over every span the calling thread recorded and clears its recorder.
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        assert!(r.open.is_empty(), "spans handed over while one is open");
        std::mem::take(&mut r.spans)
    })
}

/// Per-name totals over one thread's spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of self times: duration minus the children's durations.
    pub self_ns: u64,
}

/// Self-time arithmetic over one thread's span list, keyed by span name.
/// Children of one parent never overlap (one thread, one call stack), so the
/// covered part of a span is the plain sum of its children. Fails if a child
/// leaves its parent's interval or children cover more than their parent.
pub fn self_times(spans: &[Span]) -> Result<BTreeMap<&'static str, NameTotal>, String> {
    let mut covered = vec![0u64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        if s.parent == ROOT {
            continue;
        }
        let p = spans
            .get(s.parent as usize)
            .ok_or_else(|| format!("span {i} ({}) names a parent that does not exist", s.name))?;
        if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
            return Err(format!(
                "span {i} ({}) leaves its parent {}",
                s.name, p.name
            ));
        }
        covered[s.parent as usize] += s.duration_ns();
    }
    let mut totals: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(covered) {
        let self_ns = s.duration_ns().checked_sub(covered).ok_or_else(|| {
            format!(
                "children of a {} span cover {covered} ns of its {} ns",
                s.name,
                s.duration_ns()
            )
        })?;
        let t = totals.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
    }
    Ok(totals)
}

/// Adds `other`'s totals into `into` (merging client threads).
pub fn merge_totals(
    into: &mut BTreeMap<&'static str, NameTotal>,
    other: &BTreeMap<&'static str, NameTotal>,
) {
    for (name, t) in other {
        let e = into.entry(name).or_default();
        e.count += t.count;
        e.total_ns += t.total_ns;
        e.self_ns += t.self_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request_id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        // call [0,100] ⊃ route [10,90] ⊃ prepare [20,40], decide [40,70]
        // (adjacent: one ends where the next starts), plus a sibling root.
        let spans = vec![
            sp("call", 0, 100, ROOT),
            sp("route", 10, 90, 0),
            sp("prepare", 20, 40, 1),
            sp("decide", 40, 70, 1),
            sp("gen", 100, 130, ROOT),
        ];
        let t = self_times(&spans).unwrap();
        assert_eq!(
            t["call"],
            NameTotal {
                count: 1,
                total_ns: 100,
                self_ns: 20
            }
        );
        assert_eq!(
            t["route"],
            NameTotal {
                count: 1,
                total_ns: 80,
                self_ns: 30
            }
        );
        assert_eq!(t["prepare"].self_ns, 20);
        assert_eq!(t["decide"].self_ns, 30);
        assert_eq!(t["gen"].self_ns, 30);
        // The rows under one root sum to the root's wall time.
        let under_call: u64 = ["call", "route", "prepare", "decide"]
            .iter()
            .map(|n| t[n].self_ns)
            .sum();
        assert_eq!(under_call, 100);
    }

    #[test]
    fn same_named_spans_accumulate() {
        let spans = vec![
            sp("route", 0, 50, ROOT),
            sp("prepare", 0, 10, 0),
            sp("prepare", 10, 30, 0),
        ];
        let t = self_times(&spans).unwrap();
        assert_eq!(
            t["prepare"],
            NameTotal {
                count: 2,
                total_ns: 30,
                self_ns: 30
            }
        );
        assert_eq!(t["route"].self_ns, 20);
    }

    #[test]
    fn a_child_outside_its_parent_is_an_error() {
        let late = vec![sp("call", 0, 100, ROOT), sp("core", 50, 101, 0)];
        assert!(self_times(&late).unwrap_err().contains("leaves its parent"));
        let orphan = vec![sp("core", 0, 1, 7)];
        assert!(self_times(&orphan).unwrap_err().contains("does not exist"));
    }

    #[test]
    fn recorder_nests_by_call_stack_and_stays_silent_when_off() {
        set_enabled(false);
        span("ignored", || ());
        assert!(take().is_empty());

        set_enabled(true);
        next_request();
        span("outer", || {
            span("inner", || ());
            span("inner", || ());
        });
        next_request();
        span("outer", || ());
        set_enabled(false);
        let spans = take();
        assert_eq!(spans.len(), 4);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", ROOT));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", 0));
        assert_eq!((spans[2].name, spans[2].parent), ("inner", 0));
        assert_eq!(spans[3].parent, ROOT);
        assert_ne!(spans[0].request_id, spans[3].request_id);
        assert_eq!(spans[0].request_id, spans[2].request_id);
        self_times(&spans).expect("recorded spans nest");
    }
}

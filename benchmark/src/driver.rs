//! The closed loop, the same for every workload: one thread per client, each
//! sending its next call only after the previous reply, for a warm-up and
//! then a fixed number of wall-clock windows.

use crate::stats::Window;
use crate::sut::Caller;
use crate::trace::{self, NameTotal, Span};
use std::collections::BTreeMap;

/// What one segment (warm-up + windows) of closed-loop calls produced.
pub struct Segment {
    pub windows: Vec<Window>,
    /// Operations sent in the whole segment, warm-up and overrun included —
    /// the denominator that matches counter deltas taken around the segment.
    pub attempted: u64,
    /// Of those, operations without a correct outcome.
    pub failed: u64,
    /// Per-name span totals, all client threads merged (traced segments).
    pub totals: BTreeMap<&'static str, NameTotal>,
    /// Spans recorded, and the first [`SPANS_KEPT`] of each client thread.
    pub spans_recorded: usize,
    pub spans: Vec<(usize, Span)>,
}

/// Spans per client thread written to the trace file; the totals use all.
pub const SPANS_KEPT: usize = 5_000;

#[derive(Default)]
struct ThreadWindow {
    correct: u64,
    /// The closed loop's own clock: from the completion of the call before
    /// this window's first to the completion of its last. Dividing by this,
    /// not by the nominal window length, keeps a 60-call window from being
    /// quantized to whole calls.
    first_ns: u64,
    last_ns: u64,
    latencies_ns: Vec<u32>,
}

struct ThreadResult {
    windows: Vec<ThreadWindow>,
    attempted: u64,
    failed: u64,
    spans: Vec<Span>,
}

fn client_loop(
    caller: &mut dyn Caller,
    measure_from_ns: u64,
    windows: usize,
    window_ns: u64,
    traced: bool,
) -> ThreadResult {
    let mut out = ThreadResult {
        windows: (0..windows).map(|_| ThreadWindow::default()).collect(),
        attempted: 0,
        failed: 0,
        spans: Vec::new(),
    };
    trace::set_enabled(traced);
    let mut previous_end_ns = trace::now_ns();
    loop {
        trace::next_request();
        trace::span("workload.gen", || caller.generate());
        let (outcome, start_ns, end_ns) = trace::timed("client.call", || caller.call());
        if traced {
            caller.probe_codec();
        }
        out.attempted += u64::from(outcome.attempted);
        out.failed += u64::from(outcome.attempted - outcome.correct);
        if end_ns >= measure_from_ns {
            let Some(w) = out
                .windows
                .get_mut(((end_ns - measure_from_ns) / window_ns) as usize)
            else {
                break;
            };
            if w.latencies_ns.is_empty() {
                w.first_ns = previous_end_ns;
            }
            w.last_ns = end_ns;
            w.correct += u64::from(outcome.correct);
            w.latencies_ns
                .push(u32::try_from(end_ns - start_ns).unwrap_or(u32::MAX));
        }
        previous_end_ns = end_ns;
    }
    trace::set_enabled(false);
    out.spans = trace::take();
    out
}

/// Runs every caller on its own thread for `warmup_ns` (discarded) and then
/// `windows` windows of `window_ns`. Fails if some client completed no call
/// in some window: a stall that long is not a measurement.
pub fn run_segment(
    callers: &mut [Box<dyn Caller>],
    warmup_ns: u64,
    windows: usize,
    window_ns: u64,
    traced: bool,
) -> Result<Segment, String> {
    let measure_from_ns = trace::now_ns() + warmup_ns;
    let results: Vec<ThreadResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = callers
            .iter_mut()
            .map(|caller| {
                scope.spawn(move || {
                    client_loop(caller.as_mut(), measure_from_ns, windows, window_ns, traced)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });

    let mut segment = Segment {
        windows: vec![Window::default(); windows],
        attempted: 0,
        failed: 0,
        totals: BTreeMap::new(),
        spans_recorded: 0,
        spans: Vec::new(),
    };
    for (thread, mut result) in results.into_iter().enumerate() {
        segment.attempted += result.attempted;
        segment.failed += result.failed;
        for (i, (merged, mine)) in segment
            .windows
            .iter_mut()
            .zip(&mut result.windows)
            .enumerate()
        {
            if mine.latencies_ns.is_empty() {
                return Err(format!("client {thread} completed no call in window {i}"));
            }
            merged.rate += mine.correct as f64 * 1e9 / (mine.last_ns - mine.first_ns) as f64;
            merged.latencies_ns.append(&mut mine.latencies_ns);
        }
        trace::merge_totals(&mut segment.totals, &trace::self_times(&result.spans)?);
        segment.spans_recorded += result.spans.len();
        segment.spans.extend(
            result
                .spans
                .into_iter()
                .take(SPANS_KEPT)
                .map(|s| (thread, s)),
        );
    }
    Ok(segment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sut::{CallOutcome, Counts};

    /// A caller that takes ~`busy_us` per call and fails every `fail_every`th.
    struct Spin {
        busy_us: u64,
        fail_every: u64,
        calls: u64,
    }

    impl Caller for Spin {
        fn generate(&mut self) {}
        fn call(&mut self) -> CallOutcome {
            self.calls += 1;
            let until = trace::now_ns() + self.busy_us * 1_000;
            trace::span("layer", || while trace::now_ns() < until {});
            let ok = self.fail_every == 0 || !self.calls.is_multiple_of(self.fail_every);
            CallOutcome {
                attempted: 1,
                correct: u32::from(ok),
            }
        }
        fn tally(&self, _into: &mut Counts) {}
    }

    #[test]
    fn windows_count_correct_operations_and_every_call_is_accounted() {
        let mut callers: Vec<Box<dyn Caller>> = vec![Box::new(Spin {
            busy_us: 50,
            fail_every: 10,
            calls: 0,
        })];
        let seg = run_segment(&mut callers, 5_000_000, 3, 20_000_000, true).unwrap();
        assert_eq!(seg.windows.len(), 3);
        // Traced: a gen, a call and a layer span per request, nested cleanly.
        let calls = seg.totals["client.call"].count;
        assert_eq!(seg.attempted, calls);
        assert!(seg.failed >= seg.attempted / 10 - 1 && seg.failed <= seg.attempted / 10 + 1);
        for w in &seg.windows {
            // Calls of >= 50us, one in ten not counted: never above 18k correct/s
            // (how far below depends on the machine running the test).
            assert!(w.rate > 0.0 && w.rate <= 18_000.0, "rate {}", w.rate);
            assert!(w.latencies_ns.iter().all(|&ns| ns >= 50_000));
        }
        assert_eq!(seg.totals["layer"].count, calls);
        assert_eq!(
            seg.totals["client.call"].self_ns + seg.totals["layer"].self_ns,
            seg.totals["client.call"].total_ns
        );
        assert_eq!(seg.spans_recorded as u64, 3 * calls);
    }

    #[test]
    fn a_client_that_stalls_through_a_window_fails_the_segment() {
        let mut callers: Vec<Box<dyn Caller>> = vec![Box::new(Spin {
            busy_us: 30_000,
            fail_every: 0,
            calls: 0,
        })];
        let err = run_segment(&mut callers, 0, 4, 10_000_000, false)
            .err()
            .expect("stall");
        assert!(err.contains("completed no call"), "{err}");
    }
}

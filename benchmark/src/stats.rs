//! Windowed statistics and the quiet-window rule.
//!
//! The host the benchmark was defined on is a two-core virtual machine that
//! shares its memory system with other tenants: the same batch, repeated
//! for minutes, runs at a steady floor interrupted by bursts of +10 % to
//! +50 % that last seconds, and the median over a 16 s run moves by 40 %
//! between back-to-back runs of the same binary (README.md, "The
//! quiet-window rule"). Interference only ever slows a window down, so every
//! throughput and percentile is computed per window over up to
//! [`WINDOWS`] equal windows of a timed section — after the first
//! [`WARMUP_SHARE`] of the section is dropped as warm-up — and the reported
//! value is the *quiet decile* of the windows: the value a tenth of the way
//! in from the quiet end, the low end of a time and the high end of a rate
//! (the fifth quietest of 40 windows). Not the quietest window, because a
//! host has lucky stretches too (two threads that stay on one core for a
//! while), which a best-window rule would report whenever one shows up; not
//! the quartile, which over ten-run sets spread up to twice as wide as the
//! decile (README.md). The sample count and the spread of all windows are
//! reported beside it. A change to the program moves every window; a burst
//! on the host moves the windows it hits and leaves the reported value.

/// Most windows a timed section is cut into.
pub const WINDOWS: usize = 40;
/// Leading share of every timed section that is warm-up and not reported.
pub const WARMUP_SHARE: f64 = 0.10;
/// Fewest samples in a window whose p99 is taken (it then has five samples
/// beyond it); a section with fewer samples gets fewer windows.
pub const MIN_P99_WINDOW: usize = 500;
/// Fewest samples in a window whose median is taken.
pub const MIN_P50_WINDOW: usize = 10;
/// Fewest calls in a window whose rate is taken.
pub const MIN_RATE_WINDOW: usize = 4;

/// One reported number, how many raw samples fed it, and the interquartile
/// range of all windows as a share of their median (0 for a single window).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub samples: u64,
    pub spread: f64,
}

impl Summary {
    /// A number that is not a windowed statistic (a count, a single timing).
    pub fn single(value: f64) -> Self {
        Summary::of(value, 1)
    }

    pub fn of(value: f64, samples: u64) -> Self {
        Summary {
            value,
            samples,
            spread: 0.0,
        }
    }
}

/// The `q`-quantile (`0..=1`) of `sorted` by the nearest-rank rule.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted_copy(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    sorted
}

/// The median of `values` (mean of the two middle ones for an even count).
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted_copy(values);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Interquartile range of `values` as a share of their median, with the
/// quartiles Python's `statistics.quantiles(values, n=4)` gives (the
/// exclusive method) — the spread measure the acceptance check uses.
pub fn iqr_share(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let sorted = sorted_copy(values);
    let quartile = |k: usize| {
        let position = k as f64 * (n as f64 + 1.0) / 4.0;
        let below = (position.floor() as usize).clamp(1, n - 1);
        let fraction = (position - below as f64).clamp(0.0, 1.0);
        sorted[below - 1] + fraction * (sorted[below] - sorted[below - 1])
    };
    let mid = median(&sorted);
    if mid == 0.0 {
        return 0.0;
    }
    (quartile(3) - quartile(1)).abs() / mid.abs()
}

/// Which end of the windows is the quiet one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quiet {
    /// A time: the quiet windows have the low values.
    Low,
    /// A rate: the quiet windows have the high values.
    High,
}

/// Share of the windows that lie on the quiet side of the reported one.
pub const QUIET_SHARE: f64 = 0.10;

/// The decile of the windows on the quiet side: the value a tenth of the
/// way in from the quiet end, by nearest rank.
pub fn quiet_decile(values: &[f64], quiet: Quiet) -> f64 {
    let sorted = sorted_copy(values);
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let from_quiet_end = (last as f64 * QUIET_SHARE).round() as usize;
    match quiet {
        Quiet::Low => sorted[from_quiet_end],
        Quiet::High => sorted[last - from_quiet_end],
    }
}

/// Drops the warm-up prefix of a timed section's samples.
pub fn after_warmup<T>(samples: &[T]) -> &[T] {
    let skip = (samples.len() as f64 * WARMUP_SHARE).ceil() as usize;
    &samples[skip.min(samples.len())..]
}

/// Cuts `samples` into `windows` equal consecutive windows (the remainder
/// goes to the last; at least one sample each), takes `per_window` of each
/// and reports the quiet decile.
pub fn over_windows<T>(
    samples: &[T],
    windows: usize,
    quiet: Quiet,
    per_window: impl Fn(&[T]) -> f64,
) -> Summary {
    if samples.is_empty() {
        return Summary::of(0.0, 0);
    }
    let windows = windows.clamp(1, samples.len());
    let size = samples.len() / windows;
    let values: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                samples.len()
            } else {
                (w + 1) * size
            };
            per_window(&samples[w * size..end])
        })
        .collect();
    Summary {
        value: quiet_decile(&values, quiet),
        samples: samples.len() as u64,
        spread: iqr_share(&values),
    }
}

/// The `q`-quantile of a section's latencies (any unit), per window of at
/// least `min_window` samples. `latencies` are in arrival order and already
/// stripped of warm-up.
pub fn windowed_quantile(latencies: &[f64], q: f64, min_window: usize) -> Summary {
    let windows = (latencies.len() / min_window.max(1)).min(WINDOWS);
    over_windows(latencies, windows, Quiet::Low, |w| {
        quantile_sorted(&sorted_copy(w), q)
    })
}

/// Operations per second of a section of `(ops, seconds)` calls — the sum of
/// the operations over the sum of the time inside the calls — per window,
/// over at most `windows` windows.
pub fn windowed_rate(calls: &[(u64, f64)], windows: usize) -> Summary {
    let windows = windows.min(calls.len() / MIN_RATE_WINDOW);
    over_windows(calls, windows, Quiet::High, |w| {
        let ops: u64 = w.iter().map(|c| c.0).sum();
        let seconds: f64 = w.iter().map(|c| c.1).sum();
        if seconds > 0.0 {
            ops as f64 / seconds
        } else {
            0.0
        }
    })
}

/// Operations per second of a closed-loop section from its completion
/// times: `completions[i]` is `(ops, seconds since the section began)` of
/// the i-th completed request, in completion order. Each window's rate is
/// its operations over the time between its first and last completion.
pub fn completion_rate(completions: &[(u64, f64)]) -> Summary {
    let windows = WINDOWS.min(completions.len() / MIN_RATE_WINDOW);
    over_windows(completions, windows, Quiet::High, |w| {
        let span = w[w.len() - 1].1 - w[0].1;
        // The first completion opens the window; its own ops came before it.
        let ops: u64 = w[1..].iter().map(|c| c.0).sum();
        if span > 0.0 {
            ops as f64 / span
        } else {
            0.0
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_follow_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&sorted, 0.5), 50.0);
        assert_eq!(quantile_sorted(&sorted, 0.99), 99.0);
        assert_eq!(quantile_sorted(&sorted, 1.0), 100.0);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn iqr_share_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let share = iqr_share(&values);
        assert!((share - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{share}");
        assert_eq!(iqr_share(&[5.0]), 0.0);
    }

    #[test]
    fn quiet_decile_ignores_a_lucky_window_and_every_burst() {
        // Nine windows: one lucky, four at the floor, four hit by bursts.
        let times = [30.0, 29.0, 12.0, 45.0, 31.0, 60.0, 30.5, 52.0, 48.0];
        assert_eq!(quiet_decile(&times, Quiet::Low), 29.0);
        let rates = [100.0, 98.0, 140.0, 60.0, 99.0, 101.0, 55.0, 70.0, 65.0];
        assert_eq!(quiet_decile(&rates, Quiet::High), 101.0);
        // Forty windows: the fifth quietest.
        let many: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(quiet_decile(&many, Quiet::Low), 5.0);
        assert_eq!(quiet_decile(&many, Quiet::High), 36.0);
        assert_eq!(quiet_decile(&[7.0, 9.0], Quiet::Low), 7.0);
        assert_eq!(quiet_decile(&[], Quiet::High), 0.0);
    }

    #[test]
    fn warmup_and_windows_partition_the_section() {
        let samples: Vec<u32> = (0..100).collect();
        let kept = after_warmup(&samples);
        assert_eq!(kept.len(), 90);
        assert_eq!(kept[0], 10);
        let summary = over_windows(kept, 5, Quiet::Low, |w| w.len() as f64);
        assert_eq!(summary.value, 18.0);
        assert_eq!(summary.samples, 90);
        assert_eq!(summary.spread, 0.0);
        // More windows asked for than samples: one sample each.
        let summary = over_windows(&[7u32, 9], 40, Quiet::Low, |w| f64::from(w[0]));
        assert_eq!(summary.value, 7.0);
        assert_eq!(
            over_windows(&[] as &[u32], 5, Quiet::Low, |_| 1.0).samples,
            0
        );
    }

    #[test]
    fn bursts_do_not_move_a_rate() {
        // 200 calls at 1e6 ops/s; a burst slows 60 of them tenfold.
        let mut calls = vec![(1000u64, 0.001f64); 200];
        for call in calls.iter_mut().skip(40).take(60) {
            call.1 = 0.01;
        }
        let summary = windowed_rate(&calls, WINDOWS);
        assert!((summary.value - 1e6).abs() < 1e-3, "{}", summary.value);
        assert!(summary.spread > 0.0);
        // Too few calls for the asked windows: fewer windows, not empty ones.
        assert!((windowed_rate(&calls[..6], WINDOWS).value - 1e6).abs() < 1e-3);
    }

    #[test]
    fn percentile_windows_shrink_with_the_sample() {
        let few: Vec<f64> = (1..=200).map(f64::from).collect();
        let summary = windowed_quantile(&few, 0.99, MIN_P99_WINDOW);
        assert_eq!(summary.value, 198.0);
        assert_eq!(summary.samples, 200);
        // 5000 samples: ten windows of 500, each 0..499 -> p50 = 249.
        let many: Vec<f64> = (0..5000).map(|i| f64::from(i % 500)).collect();
        assert_eq!(windowed_quantile(&many, 0.5, 500).value, 249.0);
    }

    #[test]
    fn completion_rate_counts_ops_between_first_and_last() {
        let completions: Vec<(u64, f64)> = (0..41).map(|i| (16, f64::from(i) * 0.001)).collect();
        let summary = completion_rate(&completions);
        assert!((summary.value - 16_000.0).abs() < 1e-6, "{}", summary.value);
    }
}

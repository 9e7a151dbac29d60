//! The four workloads and what they share: pacing, set-up timing, the
//! request-checksum check and the frozen rates.
//!
//! A workload's timed sections are made of fixed-size requests issued at
//! fixed rates (open loop) or back to back (closed loop); `--seconds` only
//! sets how long the sections last, so both sides of a comparison run the
//! same requests at the same rates for the same time.

use std::time::{Duration, Instant};

use crate::gen::Digest;
use crate::oracle::{fold, Answer, Oracle, CHECK_SEED};
use crate::report::{Config, Measured};
use crate::stats::{self, Summary};
use crate::sut::{Op, ReadBatch};

pub mod bulk_probe;
pub mod mixed_durable;
pub mod serve_read;
pub mod table_serve;

/// Worker-pool width the runner pins before any thread starts.
pub const PINNED_WORKERS: usize = 2;

/// Set-ups per run of a workload whose set-up takes tenths of a second;
/// `setup_s` is their median.
pub const SETUP_REPS: usize = 7;
/// Set-ups per run of a workload whose set-up takes hundredths of a second,
/// where a single scheduling hiccup is a large share of one sample.
pub const QUICK_SETUP_REPS: usize = 15;

/// Runs the workload `config` names.
pub fn run(config: &Config) -> Result<Measured, String> {
    match config.workload.as_str() {
        "bulk_probe" => bulk_probe::run(config),
        "serve_read" => serve_read::run(config),
        "mixed_durable" => mixed_durable::run(config),
        "table_serve" => table_serve::run(config),
        other => Err(format!("unknown workload '{other}'")),
    }
}

/// Times the set-ups of one run; `setup_s` is their median.
///
/// A workload builds its system once, runs its timed sections on that
/// instance, reads its peak resident set, and only then repeats the set-up
/// for the remaining samples: the peak then belongs to one instance under
/// load, not to whatever the allocator kept of a dozen discarded ones.
#[derive(Debug, Default)]
pub struct Setups {
    seconds: Vec<f64>,
}

impl Setups {
    /// Times one set-up and returns what it built.
    pub fn time<T>(&mut self, build: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let started = Instant::now();
        let instance = build()?;
        self.seconds.push(started.elapsed().as_secs_f64());
        Ok(instance)
    }

    /// Repeats the set-up until `reps` samples exist, disposing of each
    /// instance with `discard`. `build` gets the number of the repetition.
    pub fn repeat<T>(
        &mut self,
        reps: usize,
        mut build: impl FnMut(usize) -> Result<T, String>,
        mut discard: impl FnMut(T),
    ) -> Result<(), String> {
        for rep in self.seconds.len()..reps {
            let instance = self.time(|| build(rep))?;
            discard(instance);
        }
        Ok(())
    }

    pub fn summary(&self) -> Summary {
        Summary {
            value: stats::median(&self.seconds),
            samples: self.seconds.len() as u64,
            spread: stats::iqr_share(&self.seconds),
        }
    }
}

/// A monotonic clock shared by the threads of one phase.
#[derive(Debug, Clone, Copy)]
pub struct PhaseClock {
    start: Instant,
}

impl PhaseClock {
    pub fn start() -> Self {
        PhaseClock {
            start: Instant::now(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Waits for the scheduled send time `at_ns` and returns the time the
    /// wait ended. A send that is already late returns at once, so a backlog
    /// stays visible as latency instead of being forgiven. Long waits sleep;
    /// the last stretch yields in a loop, because a sleep's wake-up is tens
    /// of microseconds late and the host has two cores to share.
    pub fn wait_until(&self, at_ns: u64) -> u64 {
        const SLEEP_MARGIN_NS: u64 = 150_000;
        loop {
            let now = self.now_ns();
            if now >= at_ns {
                return now;
            }
            let gap = at_ns - now;
            if gap > 2 * SLEEP_MARGIN_NS {
                std::thread::sleep(Duration::from_nanos(gap - SLEEP_MARGIN_NS));
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// The checksum of a request's answers, in answer order.
pub fn checksum(answers: impl Iterator<Item = Answer>) -> u64 {
    answers.fold(CHECK_SEED, fold)
}

/// One read request — a point batch, a range batch or a served event — in
/// the benchmark's terms and in the library's, with the checksum its
/// answers must fold to.
pub struct ReadRequest {
    pub ops: Vec<Op>,
    pub batch: ReadBatch,
    pub expected: u64,
}

impl ReadRequest {
    /// Asks the oracle for every lookup's answer and folds the lookups into
    /// the input digest.
    pub fn new(ops: Vec<Op>, oracle: &Oracle, digest: &mut Digest) -> Self {
        let expected = checksum(ops.iter().map(|op| match *op {
            Op::Point(key) => {
                digest.word(key);
                oracle.point(key)
            }
            Op::Range(lower, upper) => {
                digest.words(&[lower, upper]);
                oracle.range(lower, upper)
            }
        }));
        ReadRequest {
            batch: ReadBatch::new(&ops),
            ops,
            expected,
        }
    }
}

/// Attempted and failed operations of one thread or phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts a request of `ops` operations; all of them fail together,
    /// because the checksum is per request.
    pub fn count(&mut self, ops: u64, ok: bool) {
        self.attempted += ops;
        if !ok {
            self.failed += ops;
        }
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn into_measured(self, measured: &mut Measured) {
        measured.attempted += self.attempted;
        measured.failed += self.failed;
    }
}

/// p99 of how late sends ran, in microseconds, over the whole section: a
/// self-check of the generator, so nothing is dropped or windowed.
pub fn lag_p99_us(lags_ns: &[u64]) -> f64 {
    let mut lags: Vec<f64> = lags_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    lags.sort_unstable_by(f64::total_cmp);
    stats::quantile_sorted(&lags, 0.99)
}

fn latency_ms(samples_ns: &[u64], quantile: f64, min_window: usize) -> Summary {
    let ms: Vec<f64> = stats::after_warmup(samples_ns)
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    stats::windowed_quantile(&ms, quantile, min_window)
}

/// Median latency in milliseconds from nanosecond samples in arrival order
/// (warm-up still included).
pub fn p50_ms(samples_ns: &[u64]) -> Summary {
    latency_ms(samples_ns, 0.50, stats::MIN_P50_WINDOW)
}

/// 99th percentile latency, as [`p50_ms`].
pub fn p99_ms(samples_ns: &[u64]) -> Summary {
    latency_ms(samples_ns, 0.99, stats::MIN_P99_WINDOW)
}

/// The share of `config.seconds` a phase gets.
pub fn budget(config: &Config, share: f64) -> Duration {
    Duration::from_secs_f64(config.seconds * share)
}

/// Events a paced phase of `share` of the run sends at `per_second`.
pub fn paced_events(config: &Config, share: f64, per_second: f64) -> usize {
    ((config.seconds * share * per_second).round() as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setups_repeat_up_to_the_asked_count_and_report_the_median() {
        let mut setups = Setups::default();
        assert_eq!(setups.time(|| Ok(7)).unwrap(), 7);
        let mut discarded = Vec::new();
        setups.repeat(5, Ok, |rep| discarded.push(rep)).unwrap();
        assert_eq!(discarded, vec![1, 2, 3, 4]);
        assert_eq!(setups.summary().samples, 5);
        assert!(setups.time(|| Err::<(), _>("no".to_string())).is_err());
        assert_eq!(setups.summary().samples, 5);
    }

    #[test]
    fn wait_until_never_returns_early_and_not_at_all_when_late() {
        let clock = PhaseClock::start();
        let sent = clock.wait_until(2_000_000);
        assert!(sent >= 2_000_000);
        let late = clock.wait_until(1_000);
        assert!(late >= sent);
    }

    #[test]
    fn tally_fails_whole_requests() {
        let mut tally = Tally::default();
        tally.count(16, true);
        tally.count(20, false);
        assert_eq!((tally.attempted, tally.failed), (36, 20));
    }
}

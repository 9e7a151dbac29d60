//! Beyond-paper experiment: open-loop tail latency under skewed traffic.
//!
//! [`service_throughput`](crate::experiments::service_throughput) is
//! *closed-loop*: clients submit as fast as the service answers, so the
//! offered load adapts to the service and queueing delay never shows up.
//! This experiment measures what a production ingress actually feels — an
//! *open-loop* Poisson arrival process
//! ([`ArrivalSchedule`]) submitting Zipf-skewed point
//! batches on a fixed schedule regardless of completions, with per-event
//! latency taken from the *scheduled* arrival to the answered result (so
//! backlog counts against the service — no coordinated omission).
//!
//! Two arms run the identical workload on identical sharded backends:
//!
//! * **linger200** — a service that holds every non-full fusion for
//!   [`BASELINE_LINGER`]: arrivals are sparser than that window
//!   ([`MEAN_GAP`]), so nearly every drain holds its batch for the full
//!   window for company that never comes, and the hot shard stays hot;
//! * **self-clocked** — the [`ServiceConfig`] defaults (no linger: a drain
//!   executes what it finds, arrivals during an execution fuse into the
//!   next) plus [`RebalanceConfig`], which lets the coalescer migrate rows
//!   off the Zipf-hot shard behind the write fence.
//!
//! The first [`WARMUP_FRACTION`] of events is excluded from the
//! percentiles: it covers the one-off rebalance migration, leaving the
//! steady state.
//!
//! Host latency tails are noisy — a single scheduler hiccup or a slow
//! background compaction can blow one run's p99 by an order of magnitude
//! — so each arm runs [`TRIALS`] interleaved trials over distinct Poisson
//! schedules and reports the per-arm *median* p50/p99 across trials. No
//! test holds these host numbers to a threshold: a claim about them is
//! measured with the benchmark's alternating-pair protocol.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use rtx_query::{IndexSpec, QueryBatch, Registry};
use rtx_serve::{QueryService, RebalanceConfig, ServiceConfig};
use rtx_workloads as wl;
use wl::{ArrivalSchedule, OpenLoopDriver, SkewProfile};

use crate::indexes::registry;
use crate::report::{fmt_ms, Table};
use crate::scale::ExperimentScale;

/// The backend both arms run against: the updatable delta index sharded
/// over 4 shards, so skewed traffic produces a genuinely hot shard and the
/// self-clocked arm has something to migrate.
pub const LATENCY_BACKEND: &str = "RXD@4";

/// The linger the baseline arm holds every non-full fusion for.
pub const BASELINE_LINGER: Duration = Duration::from_micros(200);

/// Point lookups per arrival event (one client submission).
pub const OPS_PER_EVENT: usize = 16;

/// Mean inter-arrival gap of the Poisson schedule. Deliberately *longer*
/// than [`BASELINE_LINGER`]: most events ride alone, so the lingering arm
/// pays its full window on nearly every drain while the self-clocked arm
/// executes each at once. (The opposite, saturating regime — where
/// batching itself is the win — is what the closed-loop
/// `service_throughput` experiment covers.)
pub const MEAN_GAP: Duration = Duration::from_micros(300);

/// Zipf skew of the queried keys (rank 0 is the hottest).
pub const ZIPF_THETA: f64 = 1.2;

/// Fraction of events excluded from the percentiles as warm-up (the
/// one-off rebalance migration).
pub const WARMUP_FRACTION: f64 = 0.25;

/// Interleaved trials per arm; the reported percentiles are the medians
/// across trials, so one outlier trial (scheduler hiccup, slow background
/// compaction) cannot poison the reported percentiles.
pub const TRIALS: usize = 3;

/// One arm's measured latency distribution plus its service counters.
/// Percentiles are medians across the arm's [`TRIALS`] trials; the counters
/// sum over them.
#[derive(Debug, Clone)]
struct LatencyRun {
    /// Arm name (`"linger200"` / `"self-clocked"`).
    pub label: &'static str,
    /// Arrival events submitted per trial.
    pub events: usize,
    /// Events inside the measurement window per trial (after warm-up
    /// exclusion).
    pub measured: usize,
    /// Median scheduled-arrival-to-answer latency, host milliseconds
    /// (median across trials).
    pub p50_ms: f64,
    /// 99th-percentile latency, host milliseconds (median across trials).
    pub p99_ms: f64,
    /// Worst latency of any trial, host milliseconds.
    pub max_ms: f64,
    /// Mean linger budget per drain, microseconds (mean across trials).
    pub mean_linger_us: f64,
    /// Hot-shard rebalance passes the coalescer ran, summed over trials.
    pub rebalances: u64,
    /// Rows migrated across shards by those passes, summed over trials.
    pub rebalanced_rows: u64,
    /// Worst final shard-imbalance gauge of any trial, permille.
    pub imbalance_permille: u64,
    /// Lookups that hit per trial (identical across trials and arms by
    /// construction — every trial runs the same batches).
    pub hits: usize,
}

/// The two arms of one run, measured over the identical workload.
#[derive(Debug, Clone)]
struct LatencyPair {
    /// [`BASELINE_LINGER`] on every drain, no rebalancing.
    pub linger200: LatencyRun,
    /// The default self-clocked service plus hot-shard rebalancing.
    pub self_clocked: LatencyRun,
}

/// Sorted-sample percentile by nearest-rank interpolation on the index.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Median of an unsorted sample.
fn median(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    percentile(&sorted, 0.50)
}

/// Runs one trial of one arm: a fresh backend, the trial's schedule, the
/// shared batches, and the arm's service configuration. The dispatcher
/// walks the open-loop schedule on this thread while a waiter thread
/// collects completions, so a lingering service accumulates backlog
/// exactly as a real ingress would.
fn run_trial(
    label: &'static str,
    registry: &Registry,
    spec: &IndexSpec<'_>,
    batches: &[QueryBatch],
    schedule: &ArrivalSchedule,
    config: ServiceConfig,
) -> LatencyRun {
    let backend = registry
        .build_updatable(LATENCY_BACKEND, spec)
        .expect("latency backend");
    let service = QueryService::start_updatable(backend, config);
    let handle = service.handle();
    let events = schedule.len();

    let (tx, rx) = mpsc::channel::<(usize, Instant, rtx_serve::PendingQuery)>();
    let (latencies_ms, hits) = std::thread::scope(|scope| {
        // Completions arrive in submission order (one coalescer, FIFO
        // replies), so a single in-order waiter observes each answer as it
        // lands.
        let waiter = scope.spawn(move || {
            let mut latencies = vec![0.0f64; events];
            let mut hits = 0usize;
            for (i, scheduled, pending) in rx {
                let out = pending.wait().expect("service answer");
                hits += out.hit_count();
                let done = Instant::now();
                latencies[i] = done.saturating_duration_since(scheduled).as_secs_f64() * 1e3;
            }
            (latencies, hits)
        });
        let mut driver = OpenLoopDriver::start(schedule.clone());
        while let Some(i) = driver.wait_next() {
            let scheduled = driver.started_at() + schedule.offset(i);
            let pending = handle.submit(batches[i].clone()).expect("open-loop submit");
            tx.send((i, scheduled, pending)).expect("waiter alive");
        }
        drop(tx);
        waiter.join().expect("waiter thread")
    });
    let stats = service.shutdown();

    let warmup = ((events as f64) * WARMUP_FRACTION) as usize;
    let mut window: Vec<f64> = latencies_ms[warmup..].to_vec();
    window.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    LatencyRun {
        label,
        events,
        measured: window.len(),
        p50_ms: percentile(&window, 0.50),
        p99_ms: percentile(&window, 0.99),
        max_ms: window.last().copied().unwrap_or(0.0),
        mean_linger_us: stats.mean_linger_s() * 1e6,
        rebalances: stats.rebalances,
        rebalanced_rows: stats.rebalanced_rows,
        imbalance_permille: stats.shard_imbalance_permille,
        hits,
    }
}

/// Folds an arm's trials into the reported [`LatencyRun`]: median
/// percentiles, worst max, mean linger, summed migration counters.
fn aggregate_arm(trials: Vec<LatencyRun>) -> LatencyRun {
    let p50s: Vec<f64> = trials.iter().map(|t| t.p50_ms).collect();
    let p99s: Vec<f64> = trials.iter().map(|t| t.p99_ms).collect();
    let first = &trials[0];
    LatencyRun {
        label: first.label,
        events: first.events,
        measured: first.measured,
        p50_ms: median(&p50s),
        p99_ms: median(&p99s),
        max_ms: trials.iter().map(|t| t.max_ms).fold(0.0, f64::max),
        mean_linger_us: trials.iter().map(|t| t.mean_linger_us).sum::<f64>() / trials.len() as f64,
        rebalances: trials.iter().map(|t| t.rebalances).sum(),
        rebalanced_rows: trials.iter().map(|t| t.rebalanced_rows).sum(),
        imbalance_permille: trials
            .iter()
            .map(|t| t.imbalance_permille)
            .max()
            .unwrap_or(0),
        hits: first.hits,
    }
}

/// The self-clocked arm's configuration: the defaults plus hot-shard
/// rebalancing triggered early enough that the migration (and the backlog
/// it stalls up) drains well inside the warm-up window.
fn self_clocked_config(total_ops: usize) -> ServiceConfig {
    ServiceConfig::default().with_rebalance(
        RebalanceConfig::new()
            .with_min_ops((total_ops as u64 / 32).max(256))
            .with_max_imbalance_permille(1200),
    )
}

/// Runs both arms: [`TRIALS`] interleaved trials each, every trial pair
/// sharing its schedule, batches and backend spec.
fn run_pair(scale: &ExperimentScale) -> LatencyPair {
    let device = crate::scaled_device(scale);
    let n = scale.default_keys();
    let keys = wl::dense_shuffled(n, scale.seed);
    let values = wl::value_column(n, scale.seed + 1);
    let spec = IndexSpec::with_values(&device, &keys, &values);
    let registry = registry();

    let events = (scale.default_lookups() / OPS_PER_EVENT).max(64);
    let total_ops = events * OPS_PER_EVENT;
    let profile = SkewProfile::zipfian(ZIPF_THETA);
    let queries = wl::skewed_point_lookups(&keys, total_ops, &profile, scale.seed + 11);
    let batches: Vec<QueryBatch> = queries
        .chunks(OPS_PER_EVENT)
        .map(|chunk| QueryBatch::of_points(chunk).fetch_values(true))
        .collect();

    // Interleaving the arms (linger200, self-clocked, linger200, ...)
    // spreads slow host phases across both instead of loading them onto
    // one.
    let mut linger_trials = Vec::with_capacity(TRIALS);
    let mut self_clocked_trials = Vec::with_capacity(TRIALS);
    for trial in 0..TRIALS {
        let schedule = ArrivalSchedule::poisson(events, MEAN_GAP, scale.seed + 13 + trial as u64);
        linger_trials.push(run_trial(
            "linger200",
            &registry,
            &spec,
            &batches,
            &schedule,
            ServiceConfig::default().with_linger(BASELINE_LINGER),
        ));
        self_clocked_trials.push(run_trial(
            "self-clocked",
            &registry,
            &spec,
            &batches,
            &schedule,
            self_clocked_config(total_ops),
        ));
    }
    for (l, s) in linger_trials.iter().zip(&self_clocked_trials) {
        assert_eq!(
            l.hits, s.hits,
            "both arms must answer the identical workload identically"
        );
    }
    LatencyPair {
        linger200: aggregate_arm(linger_trials),
        self_clocked: aggregate_arm(self_clocked_trials),
    }
}

/// The `service_latency` experiment: open-loop tail latency of a service
/// lingering [`BASELINE_LINGER`] against the default self-clocked service
/// with rebalancing.
pub fn run(scale: &ExperimentScale) -> Vec<Table> {
    let pair = run_pair(scale);
    let mut table = Table::new(
        format!(
            "Open-loop service latency, backend {LATENCY_BACKEND}, zipf theta {ZIPF_THETA}, \
             {TRIALS} trials x {} events x {OPS_PER_EVENT} ops, mean gap {}us \
             (percentiles: median across trials)",
            pair.linger200.events,
            MEAN_GAP.as_micros()
        ),
        &[
            "arm",
            "events",
            "measured",
            "p50 [ms]",
            "p99 [ms]",
            "max [ms]",
            "mean linger [us]",
            "rebalances",
            "moved rows",
            "imbalance [permille]",
            "hits",
        ],
    );
    for run in [&pair.linger200, &pair.self_clocked] {
        table.push_row(vec![
            run.label.to_string(),
            run.events.to_string(),
            run.measured.to_string(),
            fmt_ms(run.p50_ms),
            fmt_ms(run.p99_ms),
            fmt_ms(run.max_ms),
            format!("{:.1}", run.mean_linger_us),
            run.rebalances.to_string(),
            run.rebalanced_rows.to_string(),
            run.imbalance_permille.to_string(),
            run.hits.to_string(),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_arms_answer_identically_and_the_self_clocked_arm_rebalances() {
        let scale = ExperimentScale::tiny();
        let pair = run_pair(&scale);

        for run in [&pair.linger200, &pair.self_clocked] {
            assert!(run.hits > 0, "zipf lookups over the key set must hit");
            assert_eq!(
                run.events,
                (scale.default_lookups() / OPS_PER_EVENT).max(64)
            );
            assert_eq!(run.measured, run.events - run.events / 4);
            assert!(run.p50_ms > 0.0, "{}: latency must be measured", run.label);
            assert!(run.p50_ms <= run.p99_ms && run.p99_ms <= run.max_ms);
        }

        // The lingering arm never rebalances and lingers its full window
        // on every drain; the self-clocked arm migrated the hot shard (in
        // every trial) and never lingers at all.
        assert_eq!(pair.linger200.rebalances, 0);
        let window_us = BASELINE_LINGER.as_micros() as f64;
        assert!((pair.linger200.mean_linger_us - window_us).abs() < 1e-6);
        assert!(pair.self_clocked.rebalances >= TRIALS as u64, "{pair:?}");
        assert!(pair.self_clocked.rebalanced_rows > 0);
        assert_eq!(pair.self_clocked.mean_linger_us, 0.0, "{pair:?}");

        // The report renders one row per arm.
        let tables = run(&scale);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].rows.len(), 2);
    }
}

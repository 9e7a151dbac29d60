//! `serve_read` — many small requests through the service: `QueryService`
//! over `RX@2` (hash) on 2^18 keys. An event is 16 zipf(1.1) point lookups
//! with value fetch; every 8th event also carries 4 range lookups of span
//! 64. One dispatcher thread sends, one waiter thread collects.
//!
//! Small batches make the per-call fixed cost, linger, fusion, scatter and
//! gather, and the reply the whole story — the opposite end of the paper's
//! batch-size axis from `bulk_probe`, and the control for `mixed_durable`
//! (same stack, no writes).
//!
//! Two sections, each 45 % of the run. Paced: a Poisson open loop at
//! [`PACED_EVENTS_PER_S`], latency taken from the *scheduled* send time
//! (`read_p50_ms`, `read_p99_ms`). Saturation: a closed loop with
//! [`OUTSTANDING`] requests in flight (`read_ops_per_s`).

use std::sync::mpsc;
use std::time::Duration;

use crate::gen::{dense_shuffled, poisson_schedule, Digest, SplitMix64, Zipf};
use crate::oracle::Oracle;
use crate::report::{peak_rss_mib, Config, Measured, PhaseNote};
use crate::stats::{self, Summary};
use crate::sut::{Client, Op, Pending, ServeCounts, Service, Sut};

use super::{
    budget, checksum, lag_p99_us, p50_ms, p99_ms, paced_events, PhaseClock, ReadRequest, Setups,
    Tally, QUICK_SETUP_REPS,
};

/// Open-loop rate of the paced section. Calibrated once, on the host the
/// benchmark was defined on, to about a tenth of the closed-loop saturation
/// of the seed commit (see README.md, "Calibrated rates"), then frozen: the
/// mean gap of 100 us sits below the service's 200 us linger, so fusion,
/// linger and queueing all act.
pub const PACED_EVENTS_PER_S: f64 = 10_000.0;

/// Requests in flight in the saturation section.
pub const OUTSTANDING: usize = 128;

pub const POINTS_PER_EVENT: usize = 16;
pub const RANGES_EVERY: usize = 8;
pub const RANGES_PER_EVENT: usize = 4;
pub const RANGE_SPAN: u64 = 64;
pub const ZIPF_THETA: f64 = 1.1;

/// Registry name of the served index.
pub const BACKEND: &str = "RX@2";

#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub keys: usize,
    /// Distinct events generated; the sections cycle through them.
    pub events: usize,
}

impl Sizes {
    pub fn of(config: &Config) -> Self {
        if config.smoke {
            Sizes {
                keys: 1 << 12,
                events: 1 << 9,
            }
        } else {
            Sizes {
                keys: 1 << 18,
                events: 1 << 14,
            }
        }
    }
}

pub struct Input {
    pub sizes: Sizes,
    pub keys: Vec<u64>,
    pub values: Vec<u64>,
    pub events: Vec<ReadRequest>,
    /// Scheduled send times of the paced section, ns from its start.
    pub schedule: Vec<u64>,
    pub digest: Digest,
}

/// Events of 16 zipf points over `hot_order` (rank r is key `hot_order[r]`),
/// every 8th with 4 uniform ranges inside `range_domain`. Shared with
/// `mixed_durable`, whose reads have the same shape so that `serve_read` is
/// its control.
pub fn zipf_events(
    count: usize,
    hot_order: &[u64],
    range_domain: Option<(u64, u64)>,
    oracle: &Oracle,
    rng: &mut SplitMix64,
    digest: &mut Digest,
) -> Vec<ReadRequest> {
    let zipf = Zipf::new(hot_order.len(), ZIPF_THETA);
    (0..count)
        .map(|i| {
            let mut ops: Vec<Op> = (0..POINTS_PER_EVENT)
                .map(|_| Op::Point(hot_order[zipf.sample(rng)]))
                .collect();
            if let Some((low, high)) = range_domain {
                if i % RANGES_EVERY == RANGES_EVERY - 1 {
                    ops.extend((0..RANGES_PER_EVENT).map(|_| {
                        let lower = low + rng.below(high - low - RANGE_SPAN);
                        Op::Range(lower, lower + RANGE_SPAN - 1)
                    }));
                }
            }
            ReadRequest::new(ops, oracle, digest)
        })
        .collect()
}

impl Input {
    pub fn generate(config: &Config) -> Input {
        let sizes = Sizes::of(config);
        let keys = dense_shuffled(0, sizes.keys, &mut SplitMix64::stream(config.seed, 1));
        let mut value_rng = SplitMix64::stream(config.seed, 2);
        let values: Vec<u64> = (0..sizes.keys).map(|_| value_rng.below(1 << 20)).collect();
        let oracle = Oracle::new(&keys, &values);
        let mut digest = Digest::new();
        digest.words(&keys);
        digest.words(&values);
        // The shuffled key column doubles as the popularity order: the
        // hottest key is a random one, not the smallest.
        let events = zipf_events(
            sizes.events,
            &keys,
            Some((0, sizes.keys as u64)),
            &oracle,
            &mut SplitMix64::stream(config.seed, 3),
            &mut digest,
        );
        let schedule = poisson_schedule(
            paced_events(config, 0.45, PACED_EVENTS_PER_S),
            PACED_EVENTS_PER_S,
            &mut SplitMix64::stream(config.seed, 4),
        );
        digest.words(&schedule);
        Input {
            sizes,
            keys,
            values,
            events,
            schedule,
            digest,
        }
    }
}

/// What the waiter thread collected in one section.
pub struct Collected {
    /// Paced section: latency of each request from its scheduled send.
    pub latencies_ns: Vec<u64>,
    /// Saturation section: `(lookups, seconds since the section began)` per
    /// completion.
    pub completions: Vec<(u64, f64)>,
    pub tally: Tally,
}

/// Samples reserved up front for the saturation section, so the peak
/// resident set does not depend on when a growing vector last doubled.
const COMPLETIONS_RESERVED: usize = 1 << 21;

/// Collects replies in send order: the time the reply is in hand, then —
/// outside the measured interval — the checksum. `scheduled` says whether
/// the sender passes scheduled send times (latencies are kept) or not
/// (completion times are kept).
fn waiter(
    clock: PhaseClock,
    events: &[ReadRequest],
    scheduled: bool,
    replies: mpsc::Receiver<(Result<Pending, String>, u64, usize)>,
) -> Collected {
    let mut out = Collected {
        latencies_ns: Vec::new(),
        completions: Vec::with_capacity(if scheduled { 0 } else { COMPLETIONS_RESERVED }),
        tally: Tally::default(),
    };
    for (pending, sent_ns, event) in replies {
        let event = &events[event];
        let ops = event.batch.len() as u64;
        let answered = pending.and_then(Pending::wait);
        let now = clock.now_ns();
        if scheduled {
            out.latencies_ns.push(now.saturating_sub(sent_ns));
        } else {
            out.completions.push((ops, now as f64 / 1e9));
        }
        let ok = answered.is_ok_and(|outcome| checksum(outcome.answers()) == event.expected);
        out.tally.count(ops, ok);
    }
    out
}

/// The paced section: sends on `schedule` whatever the replies do.
pub fn paced(
    client: &Client,
    events: &[ReadRequest],
    schedule: &[u64],
) -> (Collected, Vec<u64>, f64) {
    let clock = PhaseClock::start();
    let (tx, rx) = mpsc::channel();
    let mut lags_ns = Vec::with_capacity(schedule.len());
    let collected = std::thread::scope(|scope| {
        let collector = scope.spawn(move || waiter(clock, events, true, rx));
        for (i, &at_ns) in schedule.iter().enumerate() {
            let sent = clock.wait_until(at_ns);
            lags_ns.push(sent - at_ns);
            let event = i % events.len();
            // A refused submission is answered (as failed) by the waiter.
            let _ = tx.send((client.submit(&events[event].batch), at_ns, event));
        }
        drop(tx);
        collector.join().expect("waiter thread panicked")
    });
    (collected, lags_ns, clock.elapsed().as_secs_f64())
}

/// The saturation section: `OUTSTANDING` requests in flight for `seconds`.
pub fn saturation(client: &Client, events: &[ReadRequest], seconds: Duration) -> (Collected, f64) {
    let clock = PhaseClock::start();
    // The channel holds what is in flight; a full channel blocks the sender.
    let (tx, rx) = mpsc::sync_channel(OUTSTANDING - 1);
    let collected = std::thread::scope(|scope| {
        let collector = scope.spawn(move || waiter(clock, events, false, rx));
        let mut i = 0usize;
        while clock.elapsed() < seconds {
            let event = i % events.len();
            let _ = tx.send((client.submit(&events[event].batch), 0, event));
            i += 1;
        }
        drop(tx);
        collector.join().expect("waiter thread panicked")
    });
    (collected, clock.elapsed().as_secs_f64())
}

/// Counter-derived `rtx-serve.*` metrics of one section's counters.
pub fn mean_fused_ops(counts: &ServeCounts) -> f64 {
    if counts.fused_submissions == 0 {
        0.0
    } else {
        counts.executed_ops as f64 / counts.fused_submissions as f64
    }
}

pub fn linger_us_mean(counts: &ServeCounts) -> f64 {
    if counts.linger_decisions == 0 {
        0.0
    } else {
        counts.linger_ns_total as f64 / counts.linger_decisions as f64 / 1e3
    }
}

pub fn rejected_share(counts: &ServeCounts) -> f64 {
    let offered = counts.submitted_batches + counts.rejected_batches;
    if offered == 0 {
        0.0
    } else {
        counts.rejected_batches as f64 / offered as f64
    }
}

pub fn write_stall_us_mean(counts: &ServeCounts) -> f64 {
    if counts.write_batches == 0 {
        0.0
    } else {
        counts.write_stall_ns_total as f64 / counts.write_batches as f64 / 1e3
    }
}

pub fn start(sut: &Sut, input: &Input) -> Result<Service, String> {
    Ok(sut
        .build(BACKEND, &input.keys, &input.values)?
        .start_service())
}

pub fn run(config: &Config) -> Result<Measured, String> {
    run_with(config, &Input::generate(config))
}

/// Runs the workload over an input generated for `config`.
pub fn run_with(config: &Config, input: &Input) -> Result<Measured, String> {
    let sut = Sut::new();
    let mut measured = Measured {
        input_digest: input.digest.hex(),
        ..Measured::default()
    };

    let mut setups = Setups::default();
    let service = setups.time(|| start(&sut, input))?;
    measured.set_value(
        "bench.device_bytes_per_key",
        service.counts().memory_bytes as f64 / input.sizes.keys as f64,
    );
    let client = service.client();

    let (paced_out, lags_ns, paced_wall) = paced(&client, &input.events, &input.schedule);
    let after_paced = service.counts();
    let (sat_out, sat_wall) = saturation(&client, &input.events, budget(config, 0.45));
    let after_all = service.shutdown();
    let sat_counts = after_all.since(&after_paced);

    measured.set("read_p50_ms", p50_ms(&paced_out.latencies_ns));
    measured.set("bench.read_p99_ms", p99_ms(&paced_out.latencies_ns));
    measured.set(
        "read_ops_per_s",
        stats::completion_rate(stats::after_warmup(&sat_out.completions)),
    );

    let lag = lag_p99_us(&lags_ns);
    measured.set(
        "bench.generator_lag_us_p99",
        Summary::of(lag, lags_ns.len() as u64),
    );
    measured.set_value("rtx-serve.mean_fused_ops", mean_fused_ops(&sat_counts));
    measured.set_value("rtx-serve.linger_us_mean", linger_us_mean(&after_paced));
    measured.set_value(
        "rtx-serve.peak_queued_ops",
        after_all.peak_queued_ops as f64,
    );
    measured.set_value("rtx-serve.rejected_share", rejected_share(&after_all));
    measured.set_value(
        "rtx-serve.write_stall_us_mean",
        write_stall_us_mean(&after_all),
    );
    measured.set_value(
        "rtx-serve.write_stall_us_max",
        after_all.write_stall_ns_max as f64 / 1e3,
    );

    measured.phases.push(PhaseNote {
        name: "paced",
        wall_s: paced_wall,
        generator_lag_us_p99: Some(lag),
        requests: paced_out.latencies_ns.len() as u64,
    });
    measured.phases.push(PhaseNote {
        name: "saturation",
        wall_s: sat_wall,
        generator_lag_us_p99: None,
        requests: sat_out.completions.len() as u64,
    });
    measured
        .notes
        .insert("paced_events_per_s", PACED_EVENTS_PER_S.to_string());
    paced_out.tally.into_measured(&mut measured);
    sat_out.tally.into_measured(&mut measured);
    measured.set_value("peak_rss_mb", peak_rss_mib());
    setups.repeat(
        QUICK_SETUP_REPS,
        |_| start(&sut, input),
        |service| {
            service.shutdown();
        },
    )?;
    measured.set("setup_s", setups.summary());
    Ok(measured)
}

//! `bulk_probe` — the paper's setting: one caller, no service, a static RX
//! index over 2^20 dense-shuffled keys with a value column (the host BVH is
//! far larger than the last-level cache), probed with large batches.
//!
//! The backend probe (`rtindex-core` -> `optix-sim` -> `rtx-bvh` ->
//! `gpu-device`) does all the work here and the serving, sharding, delta,
//! durability and table layers do none, so probe-stage work shows on this
//! workload and serve-stage work must not.
//!
//! One timed section, the whole run: point batches of 65,536 uniform
//! lookups, one after the other (`read_ops_per_s`; `read_p50_ms` is the
//! latency of one batch). Range batches — 1,024 lookups of span 64 — are
//! part of the input and are measured by the traced run
//! (`bench.range_ops_per_s`, `rtindex-core.range_ns_per_op`,
//! `rtx-bvh.range_nodes_per_op`): on the defining host the time of a range
//! batch doubled between back-to-back runs of one binary, which no bound
//! the contract allows can hold.

use std::time::Instant;

use crate::gen::{dense_shuffled, Digest, SplitMix64};
use crate::oracle::Oracle;
use crate::report::{peak_rss_mib, Config, Measured, PhaseNote};
use crate::stats::{self, Summary};
use crate::sut::{Index, ModelCounts, Op, Sut};

use super::{budget, checksum, ReadRequest, Setups, Tally, SETUP_REPS};

/// Sizes of the workload's input.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub keys: usize,
    pub point_batch: usize,
    pub point_batches: usize,
    pub range_batch: usize,
    pub range_batches: usize,
    pub span: u64,
}

impl Sizes {
    pub fn of(config: &Config) -> Self {
        if config.smoke {
            Sizes {
                keys: 1 << 12,
                point_batch: 1 << 10,
                point_batches: 2,
                range_batch: 64,
                range_batches: 4,
                span: 64,
            }
        } else {
            Sizes {
                keys: 1 << 20,
                point_batch: 1 << 16,
                point_batches: 8,
                range_batch: 1 << 10,
                range_batches: 64,
                span: 64,
            }
        }
    }
}

/// The generated input: the column pair and two pools of batches, cycled.
pub struct Input {
    pub sizes: Sizes,
    pub keys: Vec<u64>,
    pub values: Vec<u64>,
    pub points: Vec<ReadRequest>,
    pub ranges: Vec<ReadRequest>,
    pub digest: Digest,
}

impl Input {
    pub fn generate(config: &Config) -> Input {
        let sizes = Sizes::of(config);
        let n = sizes.keys as u64;
        let keys = dense_shuffled(0, sizes.keys, &mut SplitMix64::stream(config.seed, 1));
        let mut value_rng = SplitMix64::stream(config.seed, 2);
        let values: Vec<u64> = (0..sizes.keys).map(|_| value_rng.below(1 << 20)).collect();
        let oracle = Oracle::new(&keys, &values);
        let mut digest = Digest::new();
        digest.words(&keys);
        digest.words(&values);

        let mut rng = SplitMix64::stream(config.seed, 3);
        let points = (0..sizes.point_batches)
            .map(|_| {
                let ops = (0..sizes.point_batch)
                    .map(|_| Op::Point(rng.below(n)))
                    .collect();
                ReadRequest::new(ops, &oracle, &mut digest)
            })
            .collect();
        let ranges = (0..sizes.range_batches)
            .map(|_| {
                let ops = (0..sizes.range_batch)
                    .map(|_| {
                        let lower = rng.below(n - sizes.span);
                        Op::Range(lower, lower + sizes.span - 1)
                    })
                    .collect();
                ReadRequest::new(ops, &oracle, &mut digest)
            })
            .collect();
        Input {
            sizes,
            keys,
            values,
            points,
            ranges,
            digest,
        }
    }
}

/// One timed section over a pool of requests.
struct Section {
    /// `(lookups, seconds inside the call)` per request, in order.
    calls: Vec<(u64, f64)>,
    wall_s: f64,
    launch_host_s: f64,
    /// Model numbers and counts of exactly one pass over the pool, so they
    /// repeat on a fixed seed however many passes the time allowed.
    one_pass: ModelCounts,
    one_pass_ops: u64,
    tally: Tally,
}

fn section(
    index: &Index,
    pool: &[ReadRequest],
    seconds: std::time::Duration,
) -> Result<Section, String> {
    let mut out = Section {
        calls: Vec::new(),
        wall_s: 0.0,
        launch_host_s: 0.0,
        one_pass: ModelCounts::default(),
        one_pass_ops: 0,
        tally: Tally::default(),
    };
    let started = Instant::now();
    let mut i = 0usize;
    while i < pool.len() || started.elapsed() < seconds {
        let request = &pool[i % pool.len()];
        let ops = request.batch.len() as u64;
        let call = Instant::now();
        let outcome = index.execute(&request.batch)?;
        out.calls.push((ops, call.elapsed().as_secs_f64()));
        // Everything below is outside the timed call.
        out.tally
            .count(ops, checksum(outcome.answers()) == request.expected);
        out.launch_host_s += outcome.launch_host().as_secs_f64();
        if i < pool.len() {
            out.one_pass.add(&outcome.model());
            out.one_pass_ops += ops;
        }
        i += 1;
    }
    out.wall_s = started.elapsed().as_secs_f64();
    Ok(out)
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
    let index = setups.time(|| sut.build("RX", &input.keys, &input.values))?;
    measured.set_value(
        "bench.device_bytes_per_key",
        index.memory_bytes() as f64 / input.sizes.keys as f64,
    );

    let points = section(&index, &input.points, budget(config, 1.0))?;

    let calls = stats::after_warmup(&points.calls);
    measured.set(
        "read_ops_per_s",
        stats::windowed_rate(calls, stats::WINDOWS),
    );
    let batch_ms: Vec<f64> = calls.iter().map(|c| c.1 * 1e3).collect();
    measured.set(
        "read_p50_ms",
        stats::windowed_quantile(&batch_ms, 0.50, stats::MIN_P50_WINDOW),
    );
    measured.set(
        "bench.read_p99_ms",
        stats::windowed_quantile(&batch_ms, 0.99, stats::MIN_P99_WINDOW),
    );

    let in_calls: f64 = points.calls.iter().map(|c| c.1).sum();
    measured.set(
        "optix-sim.launch_share",
        Summary::of(points.launch_host_s / in_calls, points.calls.len() as u64),
    );
    let one_pass_ops = points.one_pass_ops as f64;
    measured.set_value(
        "gpu-device.sim_s_per_mop",
        points.one_pass.simulated_s / (one_pass_ops / 1e6),
    );
    measured.set_value(
        "gpu-device.dram_bytes_per_op",
        points.one_pass.dram_bytes as f64 / one_pass_ops,
    );
    measured.set_value(
        "rtx-bvh.nodes_per_op",
        points.one_pass.nodes_visited as f64 / one_pass_ops,
    );
    measured.set_value(
        "rtx-bvh.prim_tests_per_op",
        points.one_pass.prim_tests as f64 / one_pass_ops,
    );

    measured.phases.push(PhaseNote {
        name: "points",
        wall_s: points.wall_s,
        generator_lag_us_p99: None,
        requests: points.calls.len() as u64,
    });
    points.tally.into_measured(&mut measured);
    measured.set_value("peak_rss_mb", peak_rss_mib());
    drop(index);
    setups.repeat(
        SETUP_REPS,
        |_| sut.build("RX", &input.keys, &input.values),
        drop,
    )?;
    measured.set("setup_s", setups.summary());
    Ok(measured)
}

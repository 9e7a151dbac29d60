//! Where the two host routes of an ordered launch break even: the reader of
//! `LaunchMetrics::host_stages`.
//!
//! No benchmark workload runs ordered tiles against a small index (served
//! launches stay tiny, and the bulk workload probes 2^20 keys), so this
//! sweep is the evidence for the size gate
//! (`optix_sim::INTERLEAVE_MIN_HOST_BYTES`). It builds an RX index over
//! 2^12 … 2^20 dense shuffled keys with a value column, alternates
//! 65,536-point batches on both routes in-process and prints, per size and
//! route, the median ns per lookup of every stage (summed over the
//! workers, so per worker) and of the whole batch. Both routes must return
//! the same results and simulated time. Run it in release, on an otherwise
//! quiet host:
//!
//! ```text
//! RTX_WORKERS=2 cargo test --release -p rtindex-core --lib route_sweep -- --ignored --nocapture
//! ```
//!
//! Beside it, `rx_build_sweep` times what one `RtIndex::build` costs on the
//! host, below the benchmark's `setup_s` (which folds key generation, the
//! build and the first launches together), so a build regression is
//! attributed to the build. It builds the default RX index (3D mode,
//! triangles, LBVH, compacted) 15 times over 2^16, 2^18 and 2^20 of the
//! same dense shuffled keys, after one warm-up build per size, and prints
//! the median and quartiles in ms on the current worker pool:
//!
//! ```text
//! RTX_WORKERS=2 cargo test --release -p rtindex-core --lib rx_build_sweep -- --ignored --nocapture
//! ```

use std::time::{Duration, Instant};

use gpu_device::{worker_count, Device};
use optix_sim::Route;

use crate::{RtIndex, RtIndexConfig};

/// Points per batch, as in the bulk workload.
const BATCH: usize = 1 << 16;
/// Alternating batch pairs per size.
const PAIRS: usize = 9;
/// Timed builds per size of the build sweep.
const BUILDS: usize = 15;

/// SplitMix64 step.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The keys `0..n` in an order shuffled from `rng`.
fn shuffled_keys(n: usize, rng: &mut u64) -> Vec<u64> {
    let mut keys: Vec<u64> = (0..n as u64).collect();
    for i in (1..n).rev() {
        keys.swap(i, (next(rng) % (i as u64 + 1)) as usize);
    }
    keys
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Nanoseconds per lookup of a batch stage that took `d`.
fn ns_per_op(d: Duration) -> f64 {
    d.as_nanos() as f64 / BATCH as f64
}

#[test]
#[ignore = "a measurement: run in release with --ignored --nocapture"]
fn host_stages_of_both_routes_across_index_sizes() {
    let device = Device::default_eval();
    println!(
        "{:>5} {:>9} {:>11} {:>7} {:>7} {:>9} {:>7} {:>9}",
        "keys", "host_MiB", "route", "raygen", "order", "traverse", "finish", "launch"
    );
    for log2 in 12..=20 {
        let n = 1usize << log2;
        let mut rng = 0x5EED ^ log2 as u64;
        let keys = shuffled_keys(n, &mut rng);
        let values: Vec<u64> = (0..n).map(|_| next(&mut rng) % (1 << 20)).collect();
        let queries: Vec<u64> = (0..BATCH).map(|_| next(&mut rng) % n as u64).collect();
        let index = RtIndex::build(&device, &keys, RtIndexConfig::default()).expect("build");
        let host_mib = index.accel().host_bytes() as f64 / f64::from(1 << 20);
        let selected = Route::for_accel(index.accel());

        let routes = [Route::OneAtATime, Route::Interleaved];
        // Per route: five stage columns, one sample per pair.
        let mut samples: [[Vec<f64>; 5]; 2] = Default::default();
        let mut answers = [None, None];
        for pair in 0..=PAIRS {
            for (side, &route) in routes.iter().enumerate() {
                let outcome = index
                    .point_lookup_batch_routed(&queries, Some(&values), None, route)
                    .expect("lookup");
                let m = &outcome.metrics;
                let answer = (outcome.results, m.simulated_time_s.to_bits());
                match &answers[side] {
                    None => answers[side] = Some(answer),
                    Some(first) => assert!(*first == answer, "{route:?} changed its answer"),
                }
                if pair == 0 {
                    continue; // warm-up
                }
                let s = m.host_stages;
                for (column, d) in [s.ray_gen, s.order, s.traverse, s.finish, m.host_time]
                    .into_iter()
                    .enumerate()
                {
                    samples[side][column].push(ns_per_op(d));
                }
            }
        }
        assert!(
            answers[0] == answers[1],
            "the routes disagree at 2^{log2} keys"
        );
        for (side, route) in routes.iter().enumerate() {
            let [raygen, order, traverse, finish, launch] = samples[side].clone().map(median);
            let mark = if *route == selected { "*" } else { "" };
            println!(
                "2^{log2:<3} {host_mib:>9.1} {:>11} {raygen:>7.0} {order:>7.0} {traverse:>9.0} \
                 {finish:>7.0} {launch:>9.0}",
                format!("{route:?}{mark}")
            );
        }
    }
    println!("ns per lookup, medians of {PAIRS} alternating pairs; * marks the selected route");
}

#[test]
#[ignore = "a measurement: run in release with --ignored --nocapture"]
fn rx_build_sweep() {
    let device = Device::default_eval();
    println!("{} workers", worker_count());
    println!(
        "{:>5} {:>8} {:>8} {:>8}",
        "keys", "q1_ms", "p50_ms", "q3_ms"
    );
    for log2 in [16, 18, 20] {
        let keys = shuffled_keys(1 << log2, &mut (0x5EED ^ log2 as u64));
        let mut ms: Vec<f64> = (0..=BUILDS)
            .map(|_| {
                let start = Instant::now();
                let index = RtIndex::build(&device, &keys, RtIndexConfig::default());
                let elapsed = start.elapsed();
                drop(index.expect("build"));
                elapsed.as_secs_f64() * 1e3
            })
            .skip(1) // warm-up
            .collect();
        ms.sort_by(f64::total_cmp);
        let at = |q: usize| ms[(BUILDS - 1) * q / 4];
        println!("2^{log2:<3} {:>8.1} {:>8.1} {:>8.1}", at(1), at(2), at(3));
    }
    println!("host ms per RtIndex::build, {BUILDS} builds per size after one warm-up");
}

//! Hot-shard rebalancing: Zipf-skewed traffic against a sharded service,
//! watched through the per-shard load counters and migrated off the hot
//! shard live, behind the coalescer's write fence.
//!
//! A hash partitioner balances *rows*, not *traffic*: under a skewed key
//! distribution one shard ends up serving most of the lookups while the
//! others idle. This example drives exactly that traffic at an updatable
//! sharded backend ("RXD@4") through a default (self-clocked) [`QueryService`]
//! with **hot-shard rebalancing** turned on: when the per-shard op counters
//! show one shard sustaining more than 1.2x its fair share, rows migrate to
//! load-weighted shard assignments — global row ids preserved, so answers
//! never change.
//!
//! Run with: `cargo run --release --example hot_shard`
//! Pin the worker pool with e.g. `RTX_WORKERS=8` for reproducible timings.

use rtindex::{
    registry, Device, IndexSpec, QueryBatch, QueryService, RebalanceConfig, ServiceConfig,
};
use rtx_workloads::{point_lookups_zipf, GroundTruth};

fn main() {
    let device = Device::default_eval();
    let registry = registry();

    // An updatable index over 64k rows, hash-sharded 4 ways.
    let n: u64 = 65_536;
    let keys: Vec<u64> = (0..n).map(|i| (i * 2_654_435_761) % n).collect();
    let values: Vec<u64> = keys.iter().map(|k| k * 3 + 7).collect();
    let truth = GroundTruth::new(&keys, Some(&values));
    let backend = registry
        .build_updatable("RXD@4", &IndexSpec::with_values(&device, &keys, &values))
        .expect("sharded build");

    // Rebalance once 8k observed ops show a 1.2x-or-worse skew.
    let service = QueryService::start_updatable(
        backend,
        ServiceConfig::default().with_rebalance(
            RebalanceConfig::new()
                .with_min_ops(8_192)
                .with_max_imbalance_permille(1200),
        ),
    );
    let handle = service.handle();

    // Zipf-skewed lookups: rank 0 (key `keys[0]`) is the hottest, and the
    // handful of top ranks absorb most of the traffic — all of it landing
    // on whichever shards those few keys hash to.
    let queries = point_lookups_zipf(&keys, 40_000, 1.2, 42);
    println!(
        "service backend: RXD@4 ({n} keys), {} zipf(1.2) lookups in 16-op batches",
        queries.len()
    );

    let mut hits = 0usize;
    let mut value_sum = 0u64;
    let mut reported = false;
    for chunk in queries.chunks(16) {
        let out = handle
            .query(QueryBatch::of_points(chunk).fetch_values(true))
            .expect("skewed batch");
        hits += out.hit_count();
        value_sum += out.results.iter().map(|r| r.value_sum).sum::<u64>();
        let stats = service.stats();
        if stats.rebalances > 0 && !reported {
            reported = true;
            println!(
                "rebalanced after {} fused submissions: {} rows migrated, \
                 imbalance gauge {:.2}x",
                stats.fused_submissions,
                stats.rebalanced_rows,
                stats.shard_imbalance_ratio(),
            );
        }
    }

    // Answers are oracle-exact across the live migration.
    let expected = truth.batch_point_hits(&queries);
    let expected_sum = truth.batch_point_sum(&queries);
    assert_eq!(hits, expected, "hits must survive the migration");
    assert_eq!(value_sum, expected_sum, "values must survive the migration");

    let stats = service.shutdown();
    assert!(stats.rebalances >= 1, "skewed traffic must trigger a pass");
    println!(
        "done: {hits} hits (oracle-exact), {} rebalance pass(es), {} rows moved,\n      \
         {} fused submissions ({:.1} ops per submission), final imbalance {:.2}x",
        stats.rebalances,
        stats.rebalanced_rows,
        stats.fused_submissions,
        stats.mean_fused_ops(),
        stats.shard_imbalance_ratio(),
    );
}

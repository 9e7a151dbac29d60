//! Beyond-paper experiment: shard-scaling of every backend.
//!
//! The paper (and every experiment above) drives each index as one
//! monolithic structure. The sharded execution layer (`rtx-shard`) cuts the
//! key space over N inner backends and runs per-shard sub-batches
//! concurrently on the host worker pool. This experiment reports what that
//! costs on the simulated device, per backend: simulated device time stays
//! roughly flat by design — the sharded outcome merges the per-shard launch
//! metrics, so total simulated work is conserved (point lookups even get
//! slightly cheaper on RX: shallower per-shard BVHs) while hash-partitioned
//! *range* lookups pay the broadcast.
//!
//! What sharding buys on the host — parallel per-shard sub-batches — is a
//! wall-clock number, measured by the benchmark package
//! (`rtx-shard.small_batch_x`, `rtx-shard.bulk_x`), not here.
//!
//! Reported per backend (RX, HT, B+, SA, RXD) over shard counts 1/2/4/8:
//! point-lookup throughput under hash partitioning, and range-lookup
//! throughput under contiguous-range partitioning for the range-capable
//! backends.

use rtx_query::{IndexSpec, QueryBatch};
use rtx_workloads as wl;

use crate::indexes::registry;
use crate::report::{fmt_ms, Table};
use crate::scale::ExperimentScale;

/// Shard counts swept per backend.
pub const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One measured (backend, shard count) cell.
#[derive(Debug, Clone)]
pub struct ShardRun {
    /// Sharded backend name as built from the registry ("RX@4", …).
    pub name: String,
    /// Inner backend ("RX", …).
    pub backend: &'static str,
    /// Shard count.
    pub shards: usize,
    /// Simulated device milliseconds of the batch.
    pub sim_ms: f64,
    /// Lookups that hit (sanity: constant across shard counts).
    pub hits: usize,
}

fn run_backend(
    backend: &'static str,
    suffix: &str,
    spec: &IndexSpec<'_>,
    batch: &QueryBatch,
) -> Vec<ShardRun> {
    let registry = registry();
    SHARD_COUNTS
        .iter()
        .map(|&shards| {
            let name = format!("{backend}@{shards}{suffix}");
            let index = registry.build(&name, spec).expect("sharded build");
            let outcome = index.execute(batch).expect("sharded batch");
            ShardRun {
                name,
                backend,
                shards,
                sim_ms: outcome.sim_ms(),
                hits: outcome.hit_count(),
            }
        })
        .collect()
}

/// Runs the point-lookup sweep (hash partitioning) for every backend.
pub fn run_points(scale: &ExperimentScale) -> Vec<ShardRun> {
    let device = crate::scaled_device(scale);
    let n = scale.default_keys();
    let keys = wl::dense_shuffled(n, scale.seed);
    let values = wl::value_column(n, scale.seed + 1);
    let queries = wl::point_lookups(&keys, scale.default_lookups().min(n * 2), scale.seed + 2);
    let batch = QueryBatch::of_points(&queries).fetch_values(true);
    let spec = IndexSpec::with_values(&device, &keys, &values);

    let mut runs = Vec::new();
    for backend in ["RX", "HT", "B+", "SA", "RXD"] {
        runs.extend(run_backend(backend, "", &spec, &batch));
    }
    runs
}

/// Runs the range-lookup sweep (contiguous-range partitioning, so ranges
/// split instead of broadcast) for the range-capable backends.
pub fn run_ranges(scale: &ExperimentScale) -> Vec<ShardRun> {
    let device = crate::scaled_device(scale);
    let n = scale.default_keys();
    let keys = wl::dense_shuffled(n, scale.seed);
    let values = wl::value_column(n, scale.seed + 1);
    let ranges = wl::range_lookups(n as u64, (n / 16).max(1), 32, scale.seed + 3);
    let batch = QueryBatch::of_ranges(&ranges).fetch_values(true);
    let spec = IndexSpec::with_values(&device, &keys, &values);

    let mut runs = Vec::new();
    for backend in ["RX", "B+", "SA", "RXD"] {
        runs.extend(run_backend(backend, ":range", &spec, &batch));
    }
    runs
}

fn table_from(title: String, runs: &[ShardRun]) -> Table {
    let mut table = Table::new(title, &["backend", "shards", "sim [ms]", "hits"]);
    for run in runs {
        table.push_row(vec![
            run.backend.to_string(),
            run.shards.to_string(),
            fmt_ms(run.sim_ms),
            run.hits.to_string(),
        ]);
    }
    table
}

/// The `shard_scaling` experiment: point-lookup scaling under hash
/// partitioning and range-lookup scaling under range partitioning.
pub fn run(scale: &ExperimentScale) -> Vec<Table> {
    let points = run_points(scale);
    let ranges = run_ranges(scale);
    vec![
        table_from(
            format!(
                "Shard scaling, point lookups (hash partitioning), 2^{} keys, {} workers",
                scale.keys_exp,
                gpu_device::worker_count()
            ),
            &points,
        ),
        table_from(
            format!(
                "Shard scaling, range lookups (range partitioning), 2^{} keys, {} workers",
                scale.keys_exp,
                gpu_device::worker_count()
            ),
            &ranges,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharding_preserves_answers_across_shard_counts() {
        let scale = ExperimentScale::tiny();
        let runs = run_points(&scale);
        assert_eq!(runs.len(), 5 * SHARD_COUNTS.len());
        for backend in ["RX", "HT", "B+", "SA", "RXD"] {
            let of_backend: Vec<&ShardRun> = runs.iter().filter(|r| r.backend == backend).collect();
            assert_eq!(of_backend.len(), SHARD_COUNTS.len());
            assert!(
                of_backend.windows(2).all(|w| w[0].hits == w[1].hits),
                "{backend}: hits must not depend on the shard count"
            );
            assert!(of_backend.iter().all(|r| r.hits > 0), "{backend}");
            assert!(of_backend.iter().all(|r| r.sim_ms > 0.0), "{backend}");
        }

        let ranges = run_ranges(&scale);
        assert_eq!(ranges.len(), 4 * SHARD_COUNTS.len());
        for w in ranges.windows(2) {
            if w[0].backend == w[1].backend {
                assert_eq!(w[0].hits, w[1].hits, "{}", w[0].backend);
            }
        }

        let tables = run(&scale);
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].rows.len(), 5 * SHARD_COUNTS.len());
        assert_eq!(tables[1].rows.len(), 4 * SHARD_COUNTS.len());
    }
}

//! Uniform driver over RX, the three baselines and the dynamic index.
//!
//! Experiments compare the index structures on identical workloads. Since
//! the API redesign they no longer go through a hand-written enum: every
//! backend is built by name from the [`rtx_query::Registry`] and driven
//! exclusively through [`SecondaryIndex`] trait objects; lookups are
//! submitted as [`QueryBatch`]es and their [`QueryOutcome`]s convert into
//! the common [`Measurement`] record carrying the simulated device time and
//! the hardware counters the paper's analysis uses.

use gpu_device::{Device, KernelStats};
use rtindex_core::{register_rx, RtIndexConfig};
use rtx_delta::{register_dynamic, DynamicRtConfig};
use rtx_query::{IndexSpec, QueryBatch, QueryOutcome, Registry, SecondaryIndex};

/// The four static backends of the paper's evaluation, in its presentation
/// order. [`build_all_indexes`] builds exactly these.
pub const PAPER_BACKENDS: [&str; 4] = ["HT", "B+", "SA", "RX"];

/// The dynamic delta-buffered backend added on top of the paper.
pub const DYNAMIC_BACKEND: &str = "RXD";

/// The full registry of every backend this reproduction implements, with
/// the RX side (static base and dynamic wrapper) built under `rx_config`:
/// `"HT"`, `"B+"`, `"SA"`, `"RX"` and the updatable `"RXD"` — plus the
/// sharding layer, so sharded variants of any of them build by name
/// (`"RX@8"`, `"SA@4:range"`, updatable `"RXD@2"`), and the durability
/// layer, so a trailing `"+wal:<path>"` builds (or reopens) a WAL-backed
/// persistent index: `"RXD+wal:/data/ix"`, or `"RXD:sah@4:hash+wal:/data/ix"`
/// for one WAL in front of four hash-routed shards.
pub fn registry_with(rx_config: RtIndexConfig) -> Registry {
    let mut registry = Registry::new();
    gpu_baselines::register_baselines(&mut registry);
    register_rx(&mut registry, rx_config);
    register_dynamic(&mut registry, DynamicRtConfig::default().with_rx(rx_config));
    rtx_shard::install_sharding(&mut registry);
    rtx_durable::install_durability(&mut registry);
    registry
}

/// [`registry_with`] under the paper's selected RX configuration.
pub fn registry() -> Registry {
    registry_with(RtIndexConfig::default())
}

/// Builds the paper's four static indexes over the same column pair,
/// skipping backends that cannot serve the key set (the B+-tree on
/// duplicate or 64-bit keys), exactly as the paper omits them from those
/// experiments.
pub fn build_all_indexes(
    device: &Device,
    keys: &[u64],
    values: Option<&[u64]>,
    rx_config: RtIndexConfig,
) -> Vec<Box<dyn SecondaryIndex>> {
    let spec = IndexSpec {
        device,
        keys,
        // One shared copy of the column serves every backend built below.
        values: values.map(std::sync::Arc::from),
        builder: None,
        durability: None,
        key_schema: None,
        rows: None,
    };
    registry_with(rx_config)
        .build_named(&PAPER_BACKENDS, &spec)
        .expect("paper backends build")
}

/// Looks a backend up by name in a built index set.
pub fn find_index<'a>(
    indexes: &'a [Box<dyn SecondaryIndex>],
    name: &str,
) -> Option<&'a dyn SecondaryIndex> {
    indexes
        .iter()
        .find(|ix| ix.name() == name)
        .map(|ix| ix.as_ref())
}

/// One measured lookup batch (or build phase) of one index.
#[derive(Debug, Clone, Default)]
pub struct Measurement {
    /// Index name ("RX", "HT", "B+", "SA", "RXD").
    pub index: String,
    /// Simulated device time in milliseconds.
    pub sim_ms: f64,
    /// Host wall-clock milliseconds of the software execution (not
    /// comparable to the paper; reported for transparency).
    pub host_ms: f64,
    /// Number of lookups that found at least one qualifying row.
    pub hits: usize,
    /// Total value sum over the batch (checksum against the ground truth).
    pub value_sum: u64,
    /// Merged kernel counters.
    pub kernel: KernelStats,
}

impl Measurement {
    /// Converts a batch outcome into the measurement record.
    pub fn from_outcome(index: &dyn SecondaryIndex, outcome: &QueryOutcome) -> Self {
        Measurement {
            index: index.name().to_string(),
            sim_ms: outcome.sim_ms(),
            host_ms: outcome.host_ms(),
            hits: outcome.hit_count(),
            value_sum: outcome.total_value_sum(),
            kernel: outcome.metrics.kernel,
        }
    }

    /// Lookup throughput in operations per second for a batch of `lookups`.
    pub fn throughput(&self, lookups: usize) -> f64 {
        if self.sim_ms <= 0.0 {
            return 0.0;
        }
        lookups as f64 / (self.sim_ms / 1e3)
    }
}

/// Executes a batch and converts the outcome into a [`Measurement`].
///
/// Panics on execution errors: harness workloads are validated, so any
/// failure is a bug in the experiment, not a recoverable condition.
pub fn measure(index: &dyn SecondaryIndex, batch: &QueryBatch) -> Measurement {
    let outcome = index.execute(batch).expect("validated workload");
    Measurement::from_outcome(index, &outcome)
}

/// Measures a batch of point lookups, optionally fetching values.
pub fn measure_points(index: &dyn SecondaryIndex, queries: &[u64], fetch: bool) -> Measurement {
    measure(index, &QueryBatch::of_points(queries).fetch_values(fetch))
}

/// Measures a batch of inclusive range lookups, or `None` when the backend
/// does not support ranges (HT).
pub fn measure_ranges(
    index: &dyn SecondaryIndex,
    ranges: &[(u64, u64)],
    fetch: bool,
) -> Option<Measurement> {
    if !index.capabilities().range_lookups {
        return None;
    }
    Some(measure(
        index,
        &QueryBatch::of_ranges(ranges).fetch_values(fetch),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtx_workloads::{dense_shuffled, point_lookups, range_lookups, value_column, GroundTruth};

    #[test]
    fn all_indexes_agree_with_ground_truth_on_points() {
        let device = crate::default_device();
        let keys = dense_shuffled(2048, 1);
        let values = value_column(2048, 2);
        let queries = point_lookups(&keys, 4096, 3);
        let truth = GroundTruth::new(&keys, Some(&values));
        let expected_sum = truth.batch_point_sum(&queries);
        let expected_hits = truth.batch_point_hits(&queries);

        let indexes = build_all_indexes(&device, &keys, Some(&values), RtIndexConfig::default());
        assert_eq!(
            indexes.len(),
            4,
            "unique 32-bit keys allow all four indexes"
        );
        for ix in &indexes {
            let m = measure_points(ix.as_ref(), &queries, true);
            assert_eq!(m.hits, expected_hits, "{} hit count", ix.name());
            assert_eq!(m.value_sum, expected_sum, "{} value sum", ix.name());
            assert!(m.sim_ms > 0.0, "{} must report simulated time", ix.name());
            assert!(m.kernel.threads_launched >= 4096);
        }
    }

    #[test]
    fn all_order_based_indexes_agree_on_ranges() {
        let device = crate::default_device();
        let keys = dense_shuffled(2048, 1);
        let values = value_column(2048, 2);
        let ranges = range_lookups(2048, 512, 16, 4);
        let truth = GroundTruth::new(&keys, Some(&values));
        let expected_sum = truth.batch_range_sum(&ranges);

        let indexes = build_all_indexes(&device, &keys, Some(&values), RtIndexConfig::default());
        let mut range_capable = 0;
        for ix in &indexes {
            match measure_ranges(ix.as_ref(), &ranges, true) {
                Some(m) => {
                    range_capable += 1;
                    assert_eq!(m.value_sum, expected_sum, "{} range sum", ix.name());
                }
                None => assert_eq!(ix.name(), "HT", "only HT lacks range support"),
            }
        }
        assert_eq!(range_capable, 3);
    }

    #[test]
    fn bplus_is_skipped_for_unsupported_key_sets() {
        let device = crate::default_device();
        let keys_with_dup = vec![1u64, 2, 2, 3];
        let indexes = build_all_indexes(&device, &keys_with_dup, None, RtIndexConfig::default());
        assert_eq!(indexes.len(), 3);
        assert!(find_index(&indexes, "B+").is_none());

        let keys_64bit = vec![1u64, 1 << 40];
        let indexes = build_all_indexes(&device, &keys_64bit, None, RtIndexConfig::default());
        assert!(indexes.iter().all(|ix| ix.name() != "B+"));
    }

    #[test]
    fn metadata_accessors() {
        let device = crate::default_device();
        let keys = dense_shuffled(1024, 1);
        let indexes = build_all_indexes(&device, &keys, None, RtIndexConfig::default());
        for ix in &indexes {
            assert!(ix.memory_bytes() > 0, "{}", ix.name());
            assert!(ix.build_metrics().sim_ms() > 0.0, "{}", ix.name());
            assert_eq!(
                ix.capabilities().range_lookups,
                ix.name() != "HT",
                "{}",
                ix.name()
            );
        }
        let m = measure_points(indexes[0].as_ref(), &[keys[0]], false);
        assert!(m.throughput(1) > 0.0);
    }

    #[test]
    fn registry_serves_all_five_backends_and_one_mixed_batch() {
        let device = crate::default_device();
        let keys = dense_shuffled(512, 5);
        let values = value_column(512, 6);
        let truth = GroundTruth::new(&keys, Some(&values));
        let registry = registry();
        assert_eq!(registry.backends(), vec!["B+", "HT", "RX", "RXD", "SA"]);
        assert_eq!(registry.updatable_backends(), vec!["RXD"]);

        // A single mixed batch (points + ranges + value fetch) answers
        // identically on every range-capable backend.
        let batch = QueryBatch::new()
            .points(point_lookups(&keys, 64, 7))
            .ranges(range_lookups(512, 16, 8, 8))
            .fetch_values(true);
        let expected = truth.expected_batch(&batch);
        let spec = IndexSpec::with_values(&device, &keys, &values);
        for name in registry.backends() {
            let ix = registry.build(name, &spec).unwrap();
            if !ix.capabilities().range_lookups {
                continue;
            }
            let out = ix.execute(&batch).expect("mixed batch");
            assert_eq!(out.results, expected, "{name} mixed batch");
        }
    }
}

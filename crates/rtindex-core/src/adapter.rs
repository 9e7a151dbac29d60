//! [`SecondaryIndex`] adapter for the RX index.
//!
//! [`RtIndex`] itself takes the value column per lookup call (the paper's
//! methodology re-uses one index across value configurations); the unified
//! API binds the column at build time instead, so the adapter owns an
//! optional copy and threads it into every batch.

use rtx_query::{
    BatchOutcome, Capabilities, IndexBuildMetrics, IndexError, IndexSpec, Registry, SecondaryIndex,
};

use crate::config::RtIndexConfig;
use crate::index::RtIndex;

/// The RX backend behind the unified query API.
#[derive(Debug)]
pub struct RxAdapter {
    index: RtIndex,
    values: Option<std::sync::Arc<[u64]>>,
}

impl RxAdapter {
    /// Builds an RX index over the spec's columns with `config`. The value
    /// column is shared with the spec (and every other backend built from
    /// it), not copied. A builder selection in [`IndexSpec::builder`] (the
    /// `"RX:sah"` / `"RX:lbvh"` name production) overrides the configured
    /// BVH builder.
    pub fn build(spec: &IndexSpec<'_>, mut config: RtIndexConfig) -> Result<Self, IndexError> {
        if let Some(builder) = spec.builder {
            config.builder = builder;
        }
        let index = RtIndex::build(spec.device, spec.keys, config)?;
        Ok(RxAdapter {
            index,
            values: spec.values.clone(),
        })
    }

    /// The wrapped index.
    pub fn inner(&self) -> &RtIndex {
        &self.index
    }

    fn values(&self, fetch: bool) -> Option<&[u64]> {
        if fetch {
            self.values.as_deref()
        } else {
            None
        }
    }
}

impl SecondaryIndex for RxAdapter {
    fn name(&self) -> &str {
        "RX"
    }

    fn key_count(&self) -> usize {
        self.index.key_count()
    }

    fn memory_bytes(&self) -> u64 {
        self.index.index_memory_bytes()
    }

    fn build_metrics(&self) -> IndexBuildMetrics {
        let m = self.index.build_metrics();
        IndexBuildMetrics {
            simulated_time_s: m.simulated_time_s,
            host_time: m.host_build_time,
            scratch_bytes: m.scratch_bytes,
        }
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::read_only()
    }

    fn has_value_column(&self) -> bool {
        self.values.is_some()
    }

    fn point_chunk(&self, queries: &[u64], fetch: bool) -> Result<BatchOutcome, IndexError> {
        Ok(self.index.point_lookup_batch(queries, self.values(fetch))?)
    }

    fn range_chunk(&self, ranges: &[(u64, u64)], fetch: bool) -> Result<BatchOutcome, IndexError> {
        Ok(self.index.range_lookup_batch(ranges, self.values(fetch))?)
    }
}

/// Registers the RX backend (name `"RX"`) with the given configuration.
pub fn register_rx(registry: &mut Registry, config: RtIndexConfig) {
    registry.register("RX", move |spec| {
        RxAdapter::build(spec, config).map(|ix| Box::new(ix) as Box<dyn SecondaryIndex>)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_device::Device;
    use rtx_query::{QueryBatch, MISS};

    fn spec_registry() -> Registry {
        let mut registry = Registry::new();
        register_rx(&mut registry, RtIndexConfig::default());
        registry
    }

    #[test]
    fn registry_builds_rx_and_mixed_batches_answer() {
        let device = Device::default_eval();
        let keys = vec![26u64, 25, 29, 23, 29, 27];
        let values = vec![1u64, 2, 3, 4, 5, 6];
        let registry = spec_registry();
        let ix = registry
            .build("RX", &IndexSpec::with_values(&device, &keys, &values))
            .unwrap();
        assert_eq!(ix.name(), "RX");
        assert_eq!(ix.key_count(), 6);
        assert!(ix.memory_bytes() > 0);
        assert!(ix.build_metrics().simulated_time_s > 0.0);
        assert!(ix.capabilities().range_lookups);
        assert!(ix.has_value_column());

        let out = ix
            .execute(
                &QueryBatch::new()
                    .point(29)
                    .range(23, 25)
                    .point(99)
                    .fetch_values(true),
            )
            .unwrap();
        assert_eq!(out.results[0].hit_count, 2);
        assert_eq!(out.results[0].value_sum, 3 + 5);
        assert_eq!(out.results[1].hit_count, 2);
        assert_eq!(out.results[1].value_sum, 2 + 4);
        assert_eq!(out.results[2].first_row, MISS);
        assert!(out.metrics.simulated_time_s > 0.0);
    }

    #[test]
    fn narrow_key_mode_reports_unsupported_key_set() {
        let device = Device::default_eval();
        let mut registry = Registry::new();
        register_rx(
            &mut registry,
            RtIndexConfig::default().with_key_mode(crate::KeyMode::Naive),
        );
        let big = vec![1u64 << 40];
        let err = registry
            .build("RX", &IndexSpec::keys_only(&device, &big))
            .map(|_| ())
            .unwrap_err();
        assert!(err.is_unsupported_key_set(), "{err}");
    }

    #[test]
    fn value_fetch_toggle_controls_sums() {
        let device = Device::default_eval();
        let keys = vec![1u64, 2, 3];
        let values = vec![10u64, 20, 30];
        let registry = spec_registry();
        let ix = registry
            .build("RX", &IndexSpec::with_values(&device, &keys, &values))
            .unwrap();
        let fetched = ix
            .execute(&QueryBatch::of_points(&keys).fetch_values(true))
            .unwrap();
        assert_eq!(fetched.total_value_sum(), 60);
        let unfetched = ix.execute(&QueryBatch::of_points(&keys)).unwrap();
        assert_eq!(unfetched.total_value_sum(), 0);
        assert_eq!(unfetched.hit_count(), 3);
    }
}

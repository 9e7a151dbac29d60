//! [`SecondaryIndex`] + [`UpdatableIndex`] adapter for the dynamic index.
//!
//! Unlike the static backends, [`DynamicRtIndex`] *owns* its value column
//! (rows migrate between delta and base during compaction, so only the
//! index knows where a row's value lives). The adapter therefore builds the
//! index over the spec's `(keys, values)` pair — an absent value column
//! indexes zero values and disables value-fetching batches — and zeroes the
//! reported sums when a batch did not request a fetch, so all five backends
//! answer the same batch identically.

use rtx_query::{
    BatchOutcome, Capabilities, IndexBuildMetrics, IndexError, IndexSpec, MemoryUsage, Registry,
    SecondaryIndex, UpdatableIndex, UpdateReport,
};

use crate::config::DynamicRtConfig;
use crate::dynamic::{DynamicRtIndex, UpdateOutcome};

/// The dynamic delta-buffered RX backend behind the unified query API.
#[derive(Debug)]
pub struct DynamicAdapter {
    index: DynamicRtIndex,
    has_values: bool,
}

impl DynamicAdapter {
    /// Builds the dynamic index over the spec's columns with `config`. A
    /// builder selection in the spec (the `"RXD:sah"` / `"RXD:lbvh"`
    /// registry grammar) overrides the base index's BVH builder — for the
    /// initial build and every compaction rebuild.
    pub fn build(spec: &IndexSpec<'_>, mut config: DynamicRtConfig) -> Result<Self, IndexError> {
        if let Some(builder) = spec.builder {
            config.rx.builder = builder;
        }
        // Under a durability wrapper the swap point of a background
        // compaction must be an explicit, logged decision — the wrapper
        // polls and records it; the index must not land swaps on its own.
        if spec.durability.is_some() {
            config.auto_swap = false;
        }
        let zeros;
        let values = match spec.values() {
            Some(v) => v,
            None => {
                zeros = vec![0u64; spec.keys.len()];
                &zeros
            }
        };
        let index = DynamicRtIndex::build(spec.device, spec.keys, values, config)?;
        Ok(DynamicAdapter {
            index,
            has_values: spec.values.is_some(),
        })
    }

    /// The wrapped dynamic index.
    pub fn inner(&self) -> &DynamicRtIndex {
        &self.index
    }

    /// The wrapped dynamic index, mutably — e.g. to
    /// [`poll_compaction`](DynamicRtIndex::poll_compaction) /
    /// [`wait_for_compaction`](DynamicRtIndex::wait_for_compaction) on a
    /// background-compacting index.
    pub fn inner_mut(&mut self) -> &mut DynamicRtIndex {
        &mut self.index
    }

    /// The dynamic index always aggregates its owned values; strip the sums
    /// when the batch did not ask for them so the answer matches the static
    /// backends queried without a fetch.
    fn strip_sums(mut outcome: BatchOutcome, fetch: bool) -> BatchOutcome {
        if !fetch {
            for r in &mut outcome.results {
                r.value_sum = 0;
            }
        }
        outcome
    }
}

impl SecondaryIndex for DynamicAdapter {
    fn name(&self) -> &str {
        "RXD"
    }

    fn key_count(&self) -> usize {
        self.index.len()
    }

    fn memory_bytes(&self) -> u64 {
        self.index.memory_bytes()
    }

    fn build_metrics(&self) -> IndexBuildMetrics {
        let m = self.index.base_build_metrics();
        IndexBuildMetrics {
            simulated_time_s: m.simulated_time_s,
            host_time: m.host_build_time,
            scratch_bytes: m.scratch_bytes,
        }
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            updates: true,
            ..Capabilities::read_only()
        }
    }

    fn has_value_column(&self) -> bool {
        self.has_values
    }

    fn memory_usage(&self) -> MemoryUsage {
        let (base_bytes, delta_bytes, tombstone_bytes) = self.index.memory_breakdown();
        MemoryUsage {
            base_bytes,
            delta_bytes,
            tombstone_bytes,
            wal_buffer_bytes: 0,
        }
    }

    fn point_chunk(&self, queries: &[u64], fetch: bool) -> Result<BatchOutcome, IndexError> {
        let outcome = self.index.point_lookup_batch(queries)?;
        Ok(Self::strip_sums(outcome, fetch))
    }

    fn range_chunk(&self, ranges: &[(u64, u64)], fetch: bool) -> Result<BatchOutcome, IndexError> {
        let outcome = self.index.range_lookup_batch(ranges)?;
        Ok(Self::strip_sums(outcome, fetch))
    }
}

fn report(outcome: UpdateOutcome) -> UpdateReport {
    UpdateReport {
        inserted_rows: outcome.inserted_rows,
        deleted_rows: outcome.deleted_rows,
        simulated_time_s: outcome.simulated_time_s,
        reorganisations: outcome.compaction.is_some() as u64,
        renumbered: outcome.renumbered,
    }
}

impl UpdatableIndex for DynamicAdapter {
    fn insert(&mut self, keys: &[u64], values: &[u64]) -> Result<UpdateReport, IndexError> {
        // RowID-space exhaustion is checked by the index itself
        // (`RtIndexError::RowIdSpaceExhausted`) and converts to
        // `IndexError::CapacityOverflow`.
        Ok(report(self.index.insert_batch(keys, values)?))
    }

    fn delete(&mut self, keys: &[u64]) -> Result<UpdateReport, IndexError> {
        Ok(report(self.index.delete_batch(keys)?))
    }

    fn upsert(&mut self, keys: &[u64], values: &[u64]) -> Result<UpdateReport, IndexError> {
        Ok(report(self.index.upsert_batch(keys, values)?))
    }

    fn poll_reorganisation(&mut self) -> Result<UpdateReport, IndexError> {
        Ok(self.index.poll_compaction().map(report).unwrap_or_default())
    }

    fn await_reorganisation(&mut self) -> Result<UpdateReport, IndexError> {
        Ok(self
            .index
            .wait_for_compaction()
            .map(report)
            .unwrap_or_default())
    }

    fn reorganisation_in_flight(&self) -> bool {
        self.index.compaction_in_flight()
    }

    fn compact(&mut self) -> Result<UpdateReport, IndexError> {
        Ok(report(self.index.compact_now()))
    }

    fn checkpoint_rows(&self) -> Option<Vec<(u64, u64)>> {
        let ix = &self.index;
        // The snapshot contract: a fresh build over exactly these columns
        // reproduces the index. That holds only right after a compaction —
        // no delta, no frozen generation, no tombstones, and a row
        // allocator dense over the live rows.
        let clean = ix.delta_len() == 0
            && ix.frozen_delta_len() == 0
            && !ix.compaction_in_flight()
            && ix.dead_base_rows() == 0
            && ix.allocated_rows() as usize == ix.len();
        if !clean {
            return None;
        }
        Some(
            ix.live_entries()
                .into_iter()
                .map(|(_, key, value)| (key, value))
                .collect(),
        )
    }
}

/// Registers the dynamic backend (name `"RXD"`) with the given
/// configuration, as an updatable backend (which `Registry::build` serves
/// too).
pub fn register_dynamic(registry: &mut Registry, config: DynamicRtConfig) {
    registry.register_updatable("RXD", move |spec: &IndexSpec<'_>| {
        DynamicAdapter::build(spec, config).map(|ix| Box::new(ix) as Box<dyn UpdatableIndex>)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_device::Device;
    use rtx_query::QueryBatch;

    fn registry() -> Registry {
        let mut registry = Registry::new();
        register_dynamic(&mut registry, DynamicRtConfig::default());
        registry
    }

    #[test]
    fn registry_builds_rxd_as_updatable_and_read_only() {
        let device = Device::default_eval();
        let registry = registry();
        assert_eq!(registry.backends(), vec!["RXD"]);
        assert_eq!(registry.updatable_backends(), vec!["RXD"]);

        let keys = vec![10u64, 20, 30];
        let values = vec![1u64, 2, 3];
        let spec = IndexSpec::with_values(&device, &keys, &values);

        let ro = registry.build("RXD", &spec).unwrap();
        assert_eq!(ro.name(), "RXD");
        assert!(ro.capabilities().updates);
        let out = ro
            .execute(&QueryBatch::new().point(20).range(10, 30).fetch_values(true))
            .unwrap();
        assert_eq!(out.results[0].value_sum, 2);
        assert_eq!(out.results[1].hit_count, 3);

        let mut rw = registry.build_updatable("RXD", &spec).unwrap();
        let rep = rw.insert(&[40], &[4]).unwrap();
        assert_eq!(rep.inserted_rows, 1);
        let rep = rw.delete(&[10]).unwrap();
        assert_eq!(rep.deleted_rows, 1);
        let rep = rw.upsert(&[20], &[22]).unwrap();
        assert_eq!((rep.inserted_rows, rep.deleted_rows), (1, 1));
        let out = rw
            .execute(&QueryBatch::of_points(&[10, 20, 40]).fetch_values(true))
            .unwrap();
        assert!(!out.results[0].is_hit(), "deleted key misses");
        assert_eq!(out.results[1].value_sum, 22, "upsert replaced the value");
        assert_eq!(out.results[2].value_sum, 4, "insert visible");
        assert_eq!(rw.key_count(), 3);
    }

    #[test]
    fn fetchless_batches_report_zero_sums_like_static_backends() {
        let device = Device::default_eval();
        let registry = registry();
        let keys = vec![1u64, 2];
        let values = vec![5u64, 6];
        let ix = registry
            .build("RXD", &IndexSpec::with_values(&device, &keys, &values))
            .unwrap();
        let out = ix.execute(&QueryBatch::of_points(&keys)).unwrap();
        assert_eq!(out.hit_count(), 2);
        assert_eq!(out.total_value_sum(), 0);
    }

    #[test]
    fn value_less_spec_disables_fetching() {
        let device = Device::default_eval();
        let registry = registry();
        let ix = registry
            .build("RXD", &IndexSpec::keys_only(&device, &[7]))
            .unwrap();
        assert!(!ix.has_value_column());
        let err = ix
            .execute(&QueryBatch::new().point(7).fetch_values(true))
            .unwrap_err();
        assert!(matches!(err, IndexError::NoValueColumn { .. }));
    }
}

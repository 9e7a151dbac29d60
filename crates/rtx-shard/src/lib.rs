//! # rtx-shard
//!
//! The sharded parallel execution layer of the RTIndeX reproduction:
//! partition any registered backend over N shards and scatter/gather mixed
//! query batches (and update batches) across the `gpu-device` worker pool.
//!
//! The paper — and the trait layer below this crate — drives every index as
//! a single monolithic structure. A production service scales on *shards*:
//! several smaller indexes, each owning a slice of the key space, answering
//! concurrently. This crate adds exactly that layer without touching any
//! backend:
//!
//! * [`HashPartitioner`] / [`RangePartitioner`] implement
//!   [`KeyRouter`](rtx_query::KeyRouter) — hash routing balances any key
//!   distribution but broadcasts range lookups, contiguous-range routing
//!   splits ranges at the partition boundaries it derives from the build
//!   column's quantiles;
//! * [`ShardedIndex`] builds N inner backends (one registry name, resolved
//!   once per shard) *in parallel*, implements `SecondaryIndex` itself —
//!   scatter, concurrent per-shard execution, gather in submission order,
//!   global rowID translation, merged metrics — and routes `UpdatableIndex`
//!   batches through the same partitioner when every shard is updatable.
//!   An explicit `compact` renumbers the global rowIDs densely and
//!   `checkpoint_rows` then lists the rows in that order, so `rtx-durable`
//!   persists a sharded index like any other updatable one: one WAL in
//!   front of it, snapshots that reopen as a plain build;
//! * [`ShardedIndex::rebalance`] migrates rows off hot shards while the
//!   index stays live: per-shard op counters detect sustained imbalance,
//!   hash routing hands individual slots of its [`HashPartitioner`] table
//!   from hot shards to cold ones (or range bounds recompute as
//!   load-weighted quantiles), and the moved rows keep their global rowIDs
//!   so results stay oracle-exact across the migration;
//! * [`install_sharding`] hooks the layer into a
//!   [`Registry`], after which *names* become sharded
//!   backends: `"RX@8"`, `"SA@4:range"`, `"RXD@2"` build through the same
//!   `registry.build(..)` / `build_updatable(..)` calls every experiment
//!   and example already uses; a sharded name is updatable exactly when
//!   its backend is.
//!
//! ```
//! use gpu_device::Device;
//! use rtx_query::{IndexSpec, QueryBatch, Registry};
//!
//! let mut registry = Registry::new();
//! gpu_baselines::register_baselines(&mut registry);
//! rtx_shard::install_sharding(&mut registry);
//!
//! let device = Device::default_eval();
//! let keys: Vec<u64> = (0..10_000).collect();
//! let index = registry
//!     .build("SA@8:range", &IndexSpec::keys_only(&device, &keys))
//!     .unwrap();
//! let out = index
//!     .execute(&QueryBatch::new().point(4096).range(100, 199))
//!     .unwrap();
//! assert_eq!(out.results[0].first_row, 4096);
//! assert_eq!(out.results[1].hit_count, 100);
//! ```

pub mod partition;
pub mod sharded;

pub use partition::{HashPartitioner, RangePartitioner};
pub use sharded::ShardedIndex;

use rtx_query::{IndexBackend, Registry, SecondaryIndex};

/// Installs the sharded-backend factory into `registry`: afterwards any
/// name of the form `"<backend>@<shards>[:hash|:range]"` that is not
/// registered verbatim builds a [`ShardedIndex`] over the registry's own
/// backends — `registry.build("RX@8", ..)`, and
/// `registry.build_updatable("RXD@4", ..)` since every `"RXD"` shard takes
/// writes. A count outside `1..=256` fails when the name is parsed, before
/// the factory runs.
pub fn install_sharding(registry: &mut Registry) {
    registry.set_sharded_builder(Box::new(|registry, spec, index| {
        let ix = ShardedIndex::build(registry, spec, index)?;
        Ok(if ix.capabilities().updates {
            IndexBackend::Write(Box::new(ix))
        } else {
            IndexBackend::Read(Box::new(ix))
        })
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_device::Device;
    use rtx_query::{
        IndexError, IndexSpec, QueryBatch, Registry, SecondaryIndex, ShardSpec, UpdatableIndex,
    };
    use rtx_workloads as wl;
    use rtx_workloads::truth::DynamicOracle;
    use rtx_workloads::GroundTruth;

    /// Registry with every real backend plus the sharding layer.
    fn registry() -> Registry {
        let mut registry = Registry::new();
        gpu_baselines::register_baselines(&mut registry);
        rtindex_core::register_rx(&mut registry, rtindex_core::RtIndexConfig::default());
        rtx_delta::register_dynamic(&mut registry, rtx_delta::DynamicRtConfig::default());
        install_sharding(&mut registry);
        registry
    }

    fn mixed_batch(keys: &[u64], seed: u64) -> QueryBatch {
        let domain = keys.iter().copied().max().unwrap_or(0);
        let points = wl::point_lookups_with_hit_rate(keys, 120, 0.7, seed);
        let ranges: Vec<(u64, u64)> = (0..40u64)
            .map(|i| {
                let lower = (i * 41 + seed) % (domain + 16);
                (lower, lower + (i % 4) * 9)
            })
            .collect();
        QueryBatch::new()
            .points(points)
            .ranges(ranges)
            .range(17, 3) // inverted: uniform empty
            .point(domain + 12345) // guaranteed miss
            .fetch_values(true)
    }

    #[test]
    fn sharded_backends_answer_exactly_like_the_oracle() {
        let device = Device::default_eval();
        let registry = registry();
        let keys = wl::dense_shuffled(3000, 11);
        let values = wl::value_column(3000, 12);
        let truth = GroundTruth::new(&keys, Some(&values));
        let spec = IndexSpec::with_values(&device, &keys, &values);
        let batch = mixed_batch(&keys, 13);
        let expected = truth.expected_batch(&batch);

        for name in ["RX@4", "SA@3:range", "B+@2", "RXD@5:range", "SA@1"] {
            let ix = registry.build(name, &spec).expect(name);
            assert_eq!(ix.name(), name);
            assert_eq!(ix.key_count(), keys.len(), "{name}");
            assert!(ix.memory_bytes() > 0, "{name}");
            assert!(ix.build_metrics().simulated_time_s > 0.0, "{name}");
            let out = ix.execute(&batch).expect(name);
            assert_eq!(out.results, expected, "{name}");
            assert!(out.metrics.simulated_time_s > 0.0, "{name}");

            // Chunked execution changes launches, never results.
            let chunked = ix.execute(&batch.clone().with_chunk_size(13)).unwrap();
            assert_eq!(chunked.results, expected, "{name} chunked");
        }
    }

    #[test]
    fn hash_sharded_ht_serves_points_and_rejects_ranges_uniformly() {
        let device = Device::default_eval();
        let registry = registry();
        let keys = wl::dense_shuffled(1000, 3);
        let spec = IndexSpec::keys_only(&device, &keys);
        let ix = registry.build("HT@4", &spec).unwrap();
        assert!(!ix.capabilities().range_lookups);
        let out = ix
            .execute(&QueryBatch::of_points(&[keys[0], 99_999]))
            .unwrap();
        assert!(out.results[0].is_hit() && !out.results[1].is_hit());
        let err = ix
            .execute(&QueryBatch::new().range(5, 2))
            .map(|_| ())
            .unwrap_err();
        assert!(
            matches!(err, IndexError::UnsupportedOperation { operation, .. }
                if operation == "range lookups"),
            "even inverted ranges reject uniformly on a range-less backend"
        );
    }

    #[test]
    fn updatable_sharded_rxd_routes_updates_through_the_partitioner() {
        let device = Device::default_eval();
        let registry = registry();
        let keys: Vec<u64> = (0..600).collect();
        let values: Vec<u64> = (0..600).map(|v| v + 1).collect();
        let spec = IndexSpec::with_values(&device, &keys, &values);
        let mut oracle = DynamicOracle::new(&keys, &values);

        for name in ["RXD@3", "RXD@4:range"] {
            let mut ix = registry.build_updatable(name, &spec).expect(name);
            assert!(ix.capabilities().updates, "{name}");

            let ins_keys: Vec<u64> = (1000..1080).collect();
            let ins_values: Vec<u64> = (0..80).map(|v| 7000 + v).collect();
            let report = ix.insert(&ins_keys, &ins_values).unwrap();
            assert_eq!(report.inserted_rows, 80, "{name}");

            let del_keys: Vec<u64> = (0..120).collect();
            let report = ix.delete(&del_keys).unwrap();
            assert_eq!(report.deleted_rows, 120, "{name}");

            let ups_keys: Vec<u64> = (100..160).collect();
            let ups_values: Vec<u64> = (0..60).map(|v| 9000 + v).collect();
            let report = ix.upsert(&ups_keys, &ups_values).unwrap();
            assert_eq!(report.inserted_rows, 60, "{name}");
            // Keys 100..120 were already deleted; 120..160 existed.
            assert_eq!(report.deleted_rows, 40, "{name}");

            let mut shadow = oracle.clone();
            shadow.insert_batch(&ins_keys, &ins_values);
            shadow.delete_batch(&del_keys);
            shadow.upsert_batch(&ups_keys, &ups_values);

            let batch = QueryBatch::new()
                .points((0..200).chain(990..1090))
                .range(90, 170)
                .range(1000, 1500)
                .fetch_values(true);
            let out = ix.execute(&batch).expect(name);
            assert_eq!(out.results, shadow.expected_batch(&batch), "{name}");
        }
        let _ = &mut oracle;
    }

    #[test]
    fn sharded_row_mirror_survives_inner_compactions() {
        // Aggressive compaction policy: every shard reorganises during the
        // churn. A shard's own compactions never renumber global rowIDs,
        // so the oracle — which is never told to compact — is the
        // stable-rowID model: results match it exactly, first rows
        // included.
        let device = Device::default_eval();
        let mut registry = Registry::new();
        rtx_delta::register_dynamic(
            &mut registry,
            rtx_delta::DynamicRtConfig::default().with_policy(rtx_delta::CompactionPolicy {
                max_delta_entries: 8,
                max_delta_fraction: 0.01,
                max_delete_ratio: 0.01,
            }),
        );
        install_sharding(&mut registry);

        let keys: Vec<u64> = (0..300).collect();
        let values: Vec<u64> = (0..300).map(|v| v * 2 + 1).collect();
        let mut ix = registry
            .build_updatable("RXD@3", &IndexSpec::with_values(&device, &keys, &values))
            .unwrap();
        let mut oracle = DynamicOracle::new(&keys, &values);

        let mut reorganisations = 0;
        for round in 0..6u64 {
            let ins: Vec<u64> = (1000 + round * 40..1000 + round * 40 + 40).collect();
            let ins_v: Vec<u64> = ins.iter().map(|k| k * 3).collect();
            reorganisations += ix.insert(&ins, &ins_v).unwrap().reorganisations;
            oracle.insert_batch(&ins, &ins_v);
            let del: Vec<u64> = (round * 30..round * 30 + 25).collect();
            reorganisations += ix.delete(&del).unwrap().reorganisations;
            oracle.delete_batch(&del);
        }
        assert!(reorganisations > 0, "the policy must have fired");

        let batch = QueryBatch::new()
            .points((0..320).step_by(3))
            .ranges((0..20).map(|i| (i * 70, i * 70 + 50)))
            .fetch_values(true);
        let out = ix.execute(&batch).unwrap();
        assert_eq!(out.results, oracle.expected_batch(&batch));
    }

    #[test]
    fn background_swaps_keep_global_rowids_exact() {
        // A background swap renumbers only the snapshot and keeps the rows
        // written during the rebuild where they are — not the dense
        // renumbering a synchronous compaction does. `auto_swap(false)`
        // makes the swap land exactly at `await_reorganisation`, whatever
        // the rebuild thread's timing.
        let device = Device::default_eval();
        let mut registry = Registry::new();
        rtx_delta::register_dynamic(
            &mut registry,
            rtx_delta::DynamicRtConfig::default()
                .with_policy(rtx_delta::CompactionPolicy {
                    max_delta_entries: 8,
                    max_delta_fraction: f64::INFINITY,
                    max_delete_ratio: f64::INFINITY,
                })
                .with_background_compaction(true)
                .with_auto_swap(false),
        );
        install_sharding(&mut registry);

        let keys: Vec<u64> = (0..200).collect();
        let values: Vec<u64> = (0..200).map(|v| v * 2 + 1).collect();
        let batch = QueryBatch::new()
            .points(0..1300)
            .ranges((0..26).map(|i| (i * 50, i * 50 + 40)))
            .fetch_values(true);
        for name in ["RXD@2", "RXD@3:range"] {
            let mut ix = registry
                .build_updatable(name, &IndexSpec::with_values(&device, &keys, &values))
                .expect(name);
            // Never compacted: the stable global-rowID model.
            let mut model = DynamicOracle::new(&keys, &values);

            let doomed: Vec<u64> = (0..200).step_by(3).collect();
            ix.delete(&doomed).unwrap();
            model.delete_batch(&doomed);
            // Past every shard's threshold: each freezes and rebuilds.
            let fresh: Vec<u64> = (1000..1060).collect();
            ix.insert(&fresh, &fresh).unwrap();
            model.insert_batch(&fresh, &fresh);
            assert!(ix.reorganisation_in_flight(), "{name}: no freeze");
            // In flight: rows that must keep their slots across the swap,
            // and deletes of snapshot rows and of those rows.
            let tail: Vec<u64> = (1100..1110).collect();
            ix.insert(&tail, &tail).unwrap();
            model.insert_batch(&tail, &tail);
            let doomed = [1, 1001, 1101, 1102];
            ix.delete(&doomed).unwrap();
            model.delete_batch(&doomed);

            let landed = ix.await_reorganisation().unwrap();
            assert!(landed.reorganisations > 0, "{name}: nothing landed");
            assert!(landed.renumbered.is_none(), "{name}: outer rowIDs move");
            let out = ix.execute(&batch).expect(name);
            assert_eq!(out.results, model.expected_batch(&batch), "{name}");

            let more: Vec<u64> = (1200..1230).collect();
            ix.upsert(&more, &more).unwrap();
            model.upsert_batch(&more, &more);
            ix.delete(&[1105, 2]).unwrap();
            model.delete_batch(&[1105, 2]);
            ix.await_reorganisation().unwrap();
            let out = ix.execute(&batch).expect(name);
            assert_eq!(out.results, model.expected_batch(&batch), "{name} later");
        }
    }

    #[test]
    fn build_errors_propagate_from_shards_and_specs() {
        let device = Device::default_eval();
        let registry = registry();
        let spec = IndexSpec::keys_only(&device, &[1, 2, 2, 3]);

        // B+ rejects duplicates — sharded B+ propagates the same class.
        let err = registry.build("B+@2", &spec).map(|_| ()).unwrap_err();
        assert!(err.is_unsupported_key_set(), "{err}");

        // Unknown inner backend: the standard listing error.
        let err = registry.build("ZZ@2", &spec).map(|_| ()).unwrap_err();
        assert!(matches!(err, IndexError::UnknownBackend { .. }));
        assert!(err.to_string().contains("RX"), "{err}");

        // Zero shards, or more than the hash router's 256 slots: rejected
        // before anything is allocated, by name and by direct build alike.
        for name in ["RX@0", "RX@257", "RX@4000000000"] {
            let err = registry.build(name, &spec).map(|_| ()).unwrap_err();
            assert!(
                err.to_string().contains("at least 1 and at most 256"),
                "{name}: {err}"
            );
        }
        for shard_spec in [
            ShardSpec::hash("RX", 0),
            ShardSpec::range("RX", 4_000_000_000),
        ] {
            let err = ShardedIndex::build(&registry, &shard_spec, &spec)
                .map(|_| ())
                .unwrap_err();
            assert!(
                err.to_string().contains("at most 256"),
                "{shard_spec:?}: {err}"
            );
        }

        // Read-only inner backends cannot form an updatable sharded index.
        let err = registry
            .build_updatable("SA@2", &spec)
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, IndexError::UnknownBackend { .. }), "{err}");

        // A value fetch against a value-less sharded index fails uniformly.
        let ix = registry.build("SA@2", &spec).unwrap();
        let err = ix
            .execute(&QueryBatch::new().point(1).fetch_values(true))
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, IndexError::NoValueColumn { .. }));

        // Updates on a read-only-built sharded backend are rejected.
        let mut direct = ShardedIndex::build(&registry, &ShardSpec::hash("SA", 2), &spec).unwrap();
        let err = UpdatableIndex::insert(&mut direct, &[9], &[9])
            .map(|_| ())
            .unwrap_err();
        assert!(
            matches!(err, IndexError::UnsupportedOperation { operation, .. }
                if operation == "updates")
        );
    }

    #[test]
    fn empty_key_sets_shard_and_only_miss() {
        let device = Device::default_eval();
        let registry = registry();
        let spec = IndexSpec::keys_only(&device, &[]);
        for name in ["RX@3", "SA@2:range"] {
            let ix = registry.build(name, &spec).expect(name);
            assert_eq!(ix.key_count(), 0);
            let out = ix
                .execute(&QueryBatch::new().point(1).range(0, 5000))
                .unwrap();
            assert_eq!(out.hit_count(), 0, "{name}");
        }
    }

    #[test]
    fn rebalance_stays_oracle_exact_across_an_online_migration() {
        // The core hot-shard guarantee: migrate rows between shards while
        // the index is live, and every result — global rowIDs included —
        // stays exactly what the unsharded oracle answers, before and
        // after, and for writes that land through the new layout.
        let device = Device::default_eval();
        let registry = registry();
        let keys: Vec<u64> = (0..900).collect();
        let values: Vec<u64> = (0..900).map(|v| v * 7 + 3).collect();
        let spec = IndexSpec::with_values(&device, &keys, &values);
        let oracle = DynamicOracle::new(&keys, &values);

        for shard_spec in [ShardSpec::hash("RXD", 4), ShardSpec::range("RXD", 3)] {
            let mut ix = ShardedIndex::build(&registry, &shard_spec, &spec).unwrap();
            let name = ix.name().to_string();
            let mut shadow = oracle.clone();

            // Hammer two keys so their shard dominates the op counters.
            let hot: Vec<u64> = [17u64, 23].iter().flat_map(|&k| [k; 64]).collect();
            for _ in 0..8 {
                ix.execute(&QueryBatch::of_points(&hot)).unwrap();
            }
            let load = ix.load();
            assert_eq!(load.shard_count(), shard_spec.shards, "{name}");
            assert_eq!(load.rows.iter().sum::<u64>(), 900, "{name}");
            assert!(
                load.imbalance_ratio() > 1.5,
                "{name}: hot traffic must skew the counters, got {}",
                load.imbalance_ratio()
            );

            let report = ix.rebalance().unwrap();
            assert!(report.moved_rows > 0, "{name}: rows must migrate");
            assert_eq!(ix.load().total_ops(), 0, "{name}: counters reset");
            assert_eq!(ix.key_count(), 900, "{name}: no row lost");

            // Results are untouched by the migration.
            let batch = mixed_batch(&keys, 41);
            assert_eq!(
                ix.execute(&batch).unwrap().results,
                shadow.expected_batch(&batch),
                "{name}: post-migration results"
            );

            // Writes route through the new layout and stay oracle-exact.
            let ins: Vec<u64> = (2000..2080).collect();
            let ins_v: Vec<u64> = ins.iter().map(|k| k * 5).collect();
            ix.insert(&ins, &ins_v).unwrap();
            shadow.insert_batch(&ins, &ins_v);
            let del: Vec<u64> = (0..60).chain(2000..2020).collect();
            ix.delete(&del).unwrap();
            shadow.delete_batch(&del);

            let batch = QueryBatch::new()
                .points((0..100).chain(1990..2090))
                .range(10, 80)
                .range(2040, 2400)
                .fetch_values(true);
            assert_eq!(
                ix.execute(&batch).unwrap().results,
                shadow.expected_batch(&batch),
                "{name}: post-migration writes"
            );

            // A second pass with the counters already balanced (reads now
            // spread by the migrated layout) must not thrash: it either
            // moves nothing or keeps exactness all the same.
            let report = ix.rebalance().unwrap();
            let batch = mixed_batch(&keys, 43);
            assert_eq!(
                ix.execute(&batch).unwrap().results,
                shadow.expected_batch(&batch),
                "{name}: after second rebalance ({report:?})"
            );
        }
    }

    #[test]
    fn rebalance_handles_valueless_and_degenerate_shapes() {
        let device = Device::default_eval();
        let registry = registry();

        // Valueless rows migrate too (checkpoint triples carry zero
        // values, exactly like the durable replay path).
        let keys: Vec<u64> = (0..400).collect();
        let spec = IndexSpec::keys_only(&device, &keys);
        let mut ix = ShardedIndex::build(&registry, &ShardSpec::hash("RXD", 4), &spec).unwrap();
        let hot = [5u64; 256];
        ix.execute(&QueryBatch::of_points(&hot)).unwrap();
        let report = ix.rebalance().unwrap();
        assert!(report.moved_rows > 0);
        let out = ix
            .execute(&QueryBatch::new().points(0..420u64).range(100, 199))
            .unwrap();
        assert_eq!(out.hit_count(), 400 + 1, "all keys survive the migration");
        assert_eq!(out.results.last().unwrap().hit_count, 100);

        // A single shard has nowhere to move rows: an empty report.
        let mut ix = ShardedIndex::build(&registry, &ShardSpec::hash("RXD", 1), &spec).unwrap();
        ix.execute(&QueryBatch::of_points(&hot)).unwrap();
        assert_eq!(
            ix.rebalance().unwrap(),
            rtx_query::RebalanceReport::default()
        );

        // No observed ops and uniform placement: nothing to do, and a
        // read-only sharded build rejects the operation outright.
        let mut ix = ShardedIndex::build(&registry, &ShardSpec::hash("RXD", 4), &spec).unwrap();
        ix.rebalance().unwrap();
        let batch = QueryBatch::of_points(&[5, 399, 7777]);
        let out = ix.execute(&batch).unwrap();
        assert_eq!(out.hit_count(), 2);
        let mut read_only =
            ShardedIndex::build(&registry, &ShardSpec::hash("SA", 2), &spec).unwrap();
        assert!(matches!(
            read_only.rebalance(),
            Err(IndexError::UnsupportedOperation { .. })
        ));
    }

    /// The shard each key routes to, read off the per-shard op counters one
    /// single-point lookup at a time.
    fn owners(ix: &ShardedIndex, keys: &[u64]) -> Vec<usize> {
        keys.iter()
            .map(|&key| {
                let before = ix.load().ops;
                ix.execute(&QueryBatch::of_points(&[key])).unwrap();
                let after = ix.load().ops;
                (0..after.len()).find(|&s| after[s] != before[s]).unwrap()
            })
            .collect()
    }

    #[test]
    fn hash_rebalance_moves_only_the_rows_of_reassigned_slots() {
        // Three shards do not divide the 256 hash slots, so a router that
        // switched from `hash % 3` to a slot table on its first rebalance
        // would move rows no slot move asked for.
        let device = Device::default_eval();
        let registry = registry();
        let keys: Vec<u64> = (0..900).collect();
        let values: Vec<u64> = (0..900).map(|v| v * 7 + 3).collect();
        let spec = IndexSpec::with_values(&device, &keys, &values);
        let mut ix = ShardedIndex::build(&registry, &ShardSpec::hash("RXD", 3), &spec).unwrap();
        let before = owners(&ix, &keys);
        let hot: Vec<u64> = [17u64, 23].iter().flat_map(|&k| [k; 64]).collect();
        for _ in 0..8 {
            ix.execute(&QueryBatch::of_points(&hot)).unwrap();
        }
        let report = ix.rebalance().unwrap();
        let after = owners(&ix, &keys);

        let moved = before.iter().zip(&after).filter(|(b, a)| b != a).count();
        assert!(moved > 0, "the hot slots must move");
        assert_eq!(report.moved_rows, moved as u64);
        // Every slot moves whole or not at all: all keys of a slot share
        // one owner before the pass and one after it.
        let mut slot_owner = vec![None; 256];
        for (i, &key) in keys.iter().enumerate() {
            let slot = HashPartitioner::slot_of_key(key);
            let owner = slot_owner[slot].get_or_insert((before[i], after[i]));
            assert_eq!(*owner, (before[i], after[i]), "key {key} in slot {slot}");
        }
        let oracle = DynamicOracle::new(&keys, &values);
        let batch = mixed_batch(&keys, 47);
        assert_eq!(
            ix.execute(&batch).unwrap().results,
            oracle.expected_batch(&batch)
        );
    }

    #[test]
    fn shard_load_counts_routed_ops_and_surfaces_through_the_trait() {
        let device = Device::default_eval();
        let registry = registry();
        let keys = wl::dense_shuffled(600, 51);
        let spec = IndexSpec::keys_only(&device, &keys);
        let ix = registry.build("RX@4", &spec).unwrap();

        // Monolithic backends report no shard load; sharded ones do.
        let mono = registry.build("RX", &spec).unwrap();
        assert!(mono.shard_load().is_none());
        let load = ix.shard_load().expect("sharded index reports load");
        assert_eq!(load.total_ops(), 0);
        assert_eq!(load.imbalance_ratio(), 0.0, "no traffic yet");
        assert!(load.hottest_shard().is_none());

        ix.execute(&QueryBatch::of_points(&[1, 2, 3, 4, 5]))
            .unwrap();
        ix.execute(&QueryBatch::new().range(0, 599)).unwrap();
        let load = ix.shard_load().expect("sharded index reports load");
        // 5 points + the broadcast range (one op per shard).
        assert_eq!(load.total_ops(), 5 + 4);
        assert!(load.imbalance_ratio() >= 1.0);
        assert!(load.hottest_shard().is_some());
        assert_eq!(load.rows.iter().sum::<u64>(), 600);
    }

    #[test]
    fn point_and_range_chunk_hooks_delegate_to_the_scattered_path() {
        let device = Device::default_eval();
        let registry = registry();
        let keys = wl::dense_shuffled(500, 31);
        let values = wl::value_column(500, 32);
        let truth = GroundTruth::new(&keys, Some(&values));
        let ix = registry
            .build("RX@3", &IndexSpec::with_values(&device, &keys, &values))
            .unwrap();
        let queries = [keys[0], keys[499], 77_777];
        let out = ix.point_chunk(&queries, true).unwrap();
        for (q, r) in queries.iter().zip(&out.results) {
            assert_eq!(*r, truth.expected_point(*q, true));
        }
        let ranges = [(10, 60), (400, 900), (9, 2)];
        let out = ix.range_chunk(&ranges, false).unwrap();
        for (&(l, u), r) in ranges.iter().zip(&out.results) {
            assert_eq!(*r, truth.expected_range(l, u, false));
        }
    }
}

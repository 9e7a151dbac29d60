//! Property-based integration tests: random key sets and lookup batches
//! against the scan oracle, across the public API.

use proptest::prelude::*;
use rtindex::gpu_baselines::register_baselines;
use rtindex::rtindex_core::register_rx;
use rtindex::rtx_delta::{register_dynamic, CompactionPolicy};
use rtindex::rtx_query::{QueryOp, RowMirror, UpdateReport};
use rtindex::{
    install_sharding, Device, DynamicRtConfig, DynamicRtIndex, IndexSpec, KeyMode, QueryBatch,
    Registry, RtIndex, RtIndexConfig, MISS,
};
use rtx_workloads::truth::DynamicOracle;
use rtx_workloads::GroundTruth;

/// Builds a dynamic index (auto-compaction off unless stated) plus its
/// oracle over the same initial columns.
fn dynamic_pair(device: &Device, keys: &[u64], values: &[u64]) -> (DynamicRtIndex, DynamicOracle) {
    let config = DynamicRtConfig::default().with_policy(CompactionPolicy::never());
    let index = DynamicRtIndex::build(device, keys, values, config).unwrap();
    let oracle = DynamicOracle::new(keys, values);
    (index, oracle)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Point lookups over arbitrary (possibly duplicated) small key sets
    /// return exactly the oracle's hit counts and row sets.
    #[test]
    fn prop_point_lookups_match_oracle(
        keys in prop::collection::vec(0u64..500, 1..200),
        queries in prop::collection::vec(0u64..600, 1..100),
    ) {
        let device = Device::default_eval();
        let truth = GroundTruth::new(&keys, None);
        let index = RtIndex::build(&device, &keys, RtIndexConfig::default()).unwrap();
        let out = index.point_lookup_batch(&queries, None).unwrap();
        for (q, r) in queries.iter().zip(&out.results) {
            prop_assert_eq!(r.hit_count, truth.point_hit_count(*q), "key {}", q);
            if r.hit_count > 0 {
                prop_assert_eq!(r.first_row, truth.point_first_row(*q));
            } else {
                prop_assert_eq!(r.first_row, MISS);
            }
        }
    }

    /// Range lookups return exactly the oracle's per-range counts and sums.
    #[test]
    fn prop_range_lookups_match_oracle(
        keys in prop::collection::vec(0u64..2000, 1..300),
        ranges in prop::collection::vec((0u64..2200, 0u64..300), 1..40),
    ) {
        let device = Device::default_eval();
        let values: Vec<u64> = (0..keys.len() as u64).map(|i| i + 1).collect();
        let truth = GroundTruth::new(&keys, Some(&values));
        let index = RtIndex::build(&device, &keys, RtIndexConfig::default()).unwrap();
        let ranges: Vec<(u64, u64)> = ranges.into_iter().map(|(l, w)| (l, l + w)).collect();
        let out = index.range_lookup_batch(&ranges, Some(&values)).unwrap();
        for (&(l, u), r) in ranges.iter().zip(&out.results) {
            prop_assert_eq!(r.hit_count, truth.range_hit_count(l, u), "range [{}, {}]", l, u);
            prop_assert_eq!(r.value_sum, truth.range_value_sum(l, u));
        }
    }

    /// All three key modes agree on hit/miss classification for keys within
    /// the Naive range.
    #[test]
    fn prop_key_modes_agree(
        keys in prop::collection::vec(0u64..(1 << 20), 1..150),
        queries in prop::collection::vec(0u64..(1 << 21), 1..80),
    ) {
        let device = Device::default_eval();
        let mut answers: Vec<Vec<bool>> = Vec::new();
        for mode in KeyMode::all() {
            let config = RtIndexConfig::default().with_key_mode(mode);
            let index = RtIndex::build(&device, &keys, config).unwrap();
            let out = index.point_lookup_batch(&queries, None).unwrap();
            answers.push(out.results.iter().map(|r| r.is_hit()).collect());
        }
        prop_assert_eq!(&answers[0], &answers[1]);
        prop_assert_eq!(&answers[1], &answers[2]);
    }

    /// Rebuilding with a new key column fully replaces the old one.
    #[test]
    fn prop_rebuild_replaces_keys(
        first in prop::collection::vec(0u64..1000, 1..100),
        second in prop::collection::vec(2000u64..3000, 1..100),
    ) {
        let device = Device::default_eval();
        let mut index = RtIndex::build(&device, &first, RtIndexConfig::default()).unwrap();
        index.rebuild(&second).unwrap();
        let out_old = index.point_lookup_batch(&first, None).unwrap();
        prop_assert_eq!(out_old.hit_count(), 0, "old keys must be gone");
        let out_new = index.point_lookup_batch(&second, None).unwrap();
        prop_assert_eq!(out_new.hit_count(), second.len());
    }

    /// Duplicate keys split across base and delta aggregate exactly like
    /// the oracle: counts add, the first row is the global minimum, and
    /// per-row values sum.
    #[test]
    fn prop_duplicates_split_across_base_and_delta(
        base_keys in prop::collection::vec(0u64..64, 1..120),
        delta_keys in prop::collection::vec(0u64..64, 1..120),
    ) {
        let device = Device::default_eval();
        let base_values: Vec<u64> = (0..base_keys.len() as u64).map(|i| i + 1).collect();
        let delta_values: Vec<u64> = (0..delta_keys.len() as u64).map(|i| 1000 + i).collect();
        let (mut index, mut oracle) = dynamic_pair(&device, &base_keys, &base_values);
        index.insert_batch(&delta_keys, &delta_values).unwrap();
        oracle.insert_batch(&delta_keys, &delta_values);

        let queries: Vec<u64> = (0..80).collect();
        let out = index.point_lookup_batch(&queries).unwrap();
        for (q, r) in queries.iter().zip(&out.results) {
            let truth = oracle.point(*q);
            prop_assert_eq!(r.hit_count, truth.hit_count, "key {}", q);
            prop_assert_eq!(r.first_row, truth.first_row, "key {}", q);
            prop_assert_eq!(r.value_sum, truth.value_sum, "key {}", q);
        }
    }

    /// Delete-then-reinsert of the same keys resurrects only the fresh
    /// rows: tombstoned base copies stay invisible, reinserted delta rows
    /// answer with their new rowIDs and values.
    #[test]
    fn prop_delete_then_reinsert_same_keys(
        keys in prop::collection::vec(0u64..48, 1..100),
        churn in prop::collection::vec(0u64..48, 1..40),
    ) {
        let device = Device::default_eval();
        let values: Vec<u64> = (0..keys.len() as u64).map(|i| i + 1).collect();
        let (mut index, mut oracle) = dynamic_pair(&device, &keys, &values);

        index.delete_batch(&churn).unwrap();
        oracle.delete_batch(&churn);
        let new_values: Vec<u64> = (0..churn.len() as u64).map(|i| 5000 + i).collect();
        index.insert_batch(&churn, &new_values).unwrap();
        oracle.insert_batch(&churn, &new_values);

        let queries: Vec<u64> = (0..48).collect();
        let out = index.point_lookup_batch(&queries).unwrap();
        for (q, r) in queries.iter().zip(&out.results) {
            let truth = oracle.point(*q);
            prop_assert_eq!(r.hit_count, truth.hit_count, "key {}", q);
            prop_assert_eq!(r.first_row, truth.first_row, "key {}", q);
            prop_assert_eq!(r.value_sum, truth.value_sum, "key {}", q);
        }
    }

    /// Range lookups spanning tombstoned runs skip exactly the dead rows —
    /// even when whole contiguous key runs are deleted and partially
    /// re-covered by the delta.
    #[test]
    fn prop_ranges_span_tombstoned_runs(
        n in 32usize..200,
        run_start in 0u64..100,
        run_len in 1u64..64,
        reinsert in prop::collection::vec(0u64..200, 0..30),
        ranges in prop::collection::vec((0u64..220, 0u64..80), 1..20),
    ) {
        let device = Device::default_eval();
        let keys: Vec<u64> = (0..n as u64).collect();
        let values: Vec<u64> = (0..n as u64).map(|i| i * 3 + 1).collect();
        let (mut index, mut oracle) = dynamic_pair(&device, &keys, &values);

        // Tombstone a contiguous key run, then scatter fresh rows over it.
        let doomed: Vec<u64> = (run_start..run_start + run_len).collect();
        index.delete_batch(&doomed).unwrap();
        oracle.delete_batch(&doomed);
        let reinsert_values: Vec<u64> = (0..reinsert.len() as u64).map(|i| 9000 + i).collect();
        index.insert_batch(&reinsert, &reinsert_values).unwrap();
        oracle.insert_batch(&reinsert, &reinsert_values);

        for &(l, w) in &ranges {
            let (lower, upper) = (l, l + w);
            let out = index.range_lookup_batch(&[(lower, upper)]).unwrap();
            let truth = oracle.range(lower, upper);
            prop_assert_eq!(out.results[0].hit_count, truth.hit_count, "[{}, {}]", lower, upper);
            prop_assert_eq!(out.results[0].first_row, truth.first_row, "[{}, {}]", lower, upper);
            prop_assert_eq!(out.results[0].value_sum, truth.value_sum, "[{}, {}]", lower, upper);
        }
    }

    /// Compaction equivalence: after a compaction, the index is
    /// indistinguishable from a from-scratch `RtIndex::build` over the live
    /// key sequence.
    #[test]
    fn prop_compaction_equals_fresh_build(
        keys in prop::collection::vec(0u64..128, 1..150),
        inserts in prop::collection::vec(200u64..300, 0..60),
        deletes in prop::collection::vec(0u64..300, 0..60),
    ) {
        let device = Device::default_eval();
        let values: Vec<u64> = (0..keys.len() as u64).map(|i| i + 1).collect();
        let (mut index, mut oracle) = dynamic_pair(&device, &keys, &values);
        let insert_values: Vec<u64> = (0..inserts.len() as u64).map(|i| 7000 + i).collect();
        index.insert_batch(&inserts, &insert_values).unwrap();
        oracle.insert_batch(&inserts, &insert_values);
        index.delete_batch(&deletes).unwrap();
        oracle.delete_batch(&deletes);

        index.compact_now();
        oracle.compact();
        prop_assert_eq!(index.delta_len(), 0);
        prop_assert_eq!(index.dead_base_rows(), 0);

        // The merged column is the oracle's live sequence...
        let live_keys: Vec<u64> = oracle.live_entries().iter().map(|&(_, k, _)| k).collect();
        let live_values: Vec<u64> = oracle.live_entries().iter().map(|&(_, _, v)| v).collect();
        // ... and lookups answer exactly like a fresh static build over it.
        let fresh = RtIndex::build(&device, &live_keys, RtIndexConfig::default()).unwrap();
        let queries: Vec<u64> = (0..310).collect();
        let dynamic_out = index.point_lookup_batch(&queries).unwrap();
        let fresh_out = fresh.point_lookup_batch(&queries, Some(&live_values)).unwrap();
        prop_assert_eq!(&dynamic_out.results, &fresh_out.results);
    }
}

/// Every backend plus the sharding layer, with the dynamic backend's
/// auto-compaction off: a compaction renumbers the monolithic backend's
/// rowIDs globally while sharded wrappers keep their stable numbering, so
/// exact identity *between the two* is defined on the compaction-free
/// schedule; [`compacting_registry`] holds the sharded side alone to its
/// stable rowIDs.
fn sharding_registry() -> Registry {
    let mut registry = Registry::new();
    register_baselines(&mut registry);
    register_rx(&mut registry, RtIndexConfig::default());
    register_dynamic(
        &mut registry,
        DynamicRtConfig::default().with_policy(CompactionPolicy::never()),
    );
    install_sharding(&mut registry);
    registry
}

/// The sharding layer over a dynamic backend that compacts on nearly every
/// batch — stop-the-world, or in the background with swaps landing whenever
/// the rebuild thread happens to finish.
fn compacting_registry(background: bool) -> Registry {
    let mut registry = Registry::new();
    register_dynamic(
        &mut registry,
        DynamicRtConfig::default()
            .with_policy(CompactionPolicy {
                max_delta_entries: 4,
                max_delta_fraction: 0.01,
                max_delete_ratio: 0.01,
            })
            .with_background_compaction(background),
    );
    install_sharding(&mut registry);
    registry
}

/// The partitioner/shard-count grid of the sharded-equivalence properties.
const SHARD_GRID: [&str; 6] = ["1", "2", "7", "1:range", "2:range", "7:range"];

/// A mixed batch (points, ranges, an inverted range, value fetch) over the
/// generated workload.
fn sharded_probe_batch(points: &[u64], ranges: &[(u64, u64)]) -> QueryBatch {
    QueryBatch::new()
        .points(points.iter().copied())
        .ranges(ranges.iter().copied())
        .range(500, 100) // inverted: empty on every backend
        .fetch_values(true)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A sharded backend answers random mixed batches exactly like its
    /// unsharded counterpart — both partitioners, shard counts 1, 2 and 7,
    /// global rowIDs included.
    #[test]
    fn prop_sharded_equals_unsharded_on_mixed_batches(
        keys in prop::collection::vec(0u64..800, 1..150),
        points in prop::collection::vec(0u64..900, 1..80),
        ranges in prop::collection::vec((0u64..900, 0u64..60), 1..25),
    ) {
        let device = Device::default_eval();
        let registry = sharding_registry();
        let values: Vec<u64> = (0..keys.len() as u64).map(|i| i * 7 + 1).collect();
        let spec = IndexSpec::with_values(&device, &keys, &values);
        let ranges: Vec<(u64, u64)> = ranges.into_iter().map(|(l, w)| (l, l + w)).collect();
        let batch = sharded_probe_batch(&points, &ranges);

        let baseline = registry.build("SA", &spec).unwrap();
        let expected = baseline.execute(&batch).unwrap();
        for grid in SHARD_GRID {
            let name = format!("SA@{grid}");
            let sharded = registry.build(&name, &spec).unwrap();
            let out = sharded.execute(&batch).unwrap();
            prop_assert_eq!(&out.results, &expected.results, "{}", name);
        }
    }

    /// The same equivalence holds for the updatable backend *after* routed
    /// insert/delete/upsert batches: the sharded RXD and the monolithic RXD
    /// stay result-identical (compaction disabled; see `sharding_registry`),
    /// and stay so after an explicit `compact()` on both, which renumbers
    /// each densely in rowID order. With the shards compacting instead, the
    /// sharded RXD still answers its stable global rowIDs: exactly what an
    /// oracle that is never told to compact tracks, until an explicit
    /// `compact()` renumbers both.
    #[test]
    fn prop_sharded_rxd_updates_match_unsharded(
        keys in prop::collection::vec(0u64..400, 1..100),
        inserts in prop::collection::vec(400u64..600, 0..50),
        deletes in prop::collection::vec(0u64..620, 0..50),
        upserts in prop::collection::vec(0u64..650, 0..40),
        points in prop::collection::vec(0u64..700, 1..60),
        ranges in prop::collection::vec((0u64..700, 0u64..50), 1..15),
    ) {
        let device = Device::default_eval();
        let registry = sharding_registry();
        let values: Vec<u64> = (0..keys.len() as u64).map(|i| i + 1).collect();
        let spec = IndexSpec::with_values(&device, &keys, &values);
        let insert_values: Vec<u64> = (0..inserts.len() as u64).map(|i| 7000 + i).collect();
        let upsert_values: Vec<u64> = (0..upserts.len() as u64).map(|i| 9000 + i).collect();
        let ranges: Vec<(u64, u64)> = ranges.into_iter().map(|(l, w)| (l, l + w)).collect();
        let batch = sharded_probe_batch(&points, &ranges);

        let mut baseline = registry.build_updatable("RXD", &spec).unwrap();
        baseline.insert(&inserts, &insert_values).unwrap();
        baseline.delete(&deletes).unwrap();
        baseline.upsert(&upserts, &upsert_values).unwrap();
        let expected = baseline.execute(&batch).unwrap();
        baseline.compact().unwrap();
        let compacted = baseline.execute(&batch).unwrap();
        let compacted_rows = baseline.checkpoint_rows();
        prop_assert!(compacted_rows.is_some());

        for grid in SHARD_GRID {
            let name = format!("RXD@{grid}");
            let mut sharded = registry.build_updatable(&name, &spec).unwrap();
            let ins = sharded.insert(&inserts, &insert_values).unwrap();
            prop_assert_eq!(ins.inserted_rows, inserts.len(), "{}", &name);
            sharded.delete(&deletes).unwrap();
            sharded.upsert(&upserts, &upsert_values).unwrap();
            let out = sharded.execute(&batch).unwrap();
            prop_assert_eq!(&out.results, &expected.results, "{}", &name);
            let report = sharded.compact().unwrap();
            prop_assert_eq!(
                report.renumbered.map(|map| map.len()),
                Some(sharded.key_count()),
                "{} renumbers densely",
                &name
            );
            let out = sharded.execute(&batch).unwrap();
            prop_assert_eq!(&out.results, &compacted.results, "{} compacted", &name);
            prop_assert_eq!(&sharded.checkpoint_rows(), &compacted_rows, "{}", &name);
        }

        let mut stable = DynamicOracle::new(&keys, &values);
        stable.insert_batch(&inserts, &insert_values);
        stable.delete_batch(&deletes);
        stable.upsert_batch(&upserts, &upsert_values);
        let mut dense = stable.clone();
        dense.compact();
        let stable = stable.expected_batch(&batch);
        let dense = dense.expected_batch(&batch);
        for background in [false, true] {
            let registry = compacting_registry(background);
            for grid in SHARD_GRID {
                let name = format!("RXD@{grid}");
                let mut sharded = registry.build_updatable(&name, &spec).unwrap();
                sharded.insert(&inserts, &insert_values).unwrap();
                sharded.delete(&deletes).unwrap();
                sharded.upsert(&upserts, &upsert_values).unwrap();
                // Possibly mid-rebuild, then with every swap landed.
                let out = sharded.execute(&batch).unwrap();
                prop_assert_eq!(&out.results, &stable, "{} in flight", &name);
                sharded.await_reorganisation().unwrap();
                let out = sharded.execute(&batch).unwrap();
                prop_assert_eq!(&out.results, &stable, "{} background={}", &name, background);
                sharded.compact().unwrap();
                let out = sharded.execute(&batch).unwrap();
                prop_assert_eq!(&out.results, &dense, "{} compacted", &name);
            }
        }
    }

    /// `RowMirror::apply` against a naive `Vec<Option<u32>>` model over
    /// random append / after-batch renumbering / swap-with-kept-tail
    /// sequences: `len` tracks the allocator, and occupied entries stay
    /// strictly increasing — the monotonicity that min-merging `first_row`
    /// across shards relies on.
    #[test]
    fn prop_row_mirror_matches_a_naive_model(
        steps in prop::collection::vec((0u8..3, 0usize..5, any::<u64>()), 1..40),
    ) {
        let mut model: Vec<Option<u32>> = (0..4).map(Some).collect();
        let mut mirror = RowMirror::dense((0..4).collect());
        let mut next_outer = 4u32;
        for (kind, appended, seed) in steps {
            let fresh: Vec<u32> = (next_outer..next_outer + appended as u32).collect();
            next_outer += appended as u32;
            model.extend(fresh.iter().copied().map(Some));
            // Which old locals survive: a seeded subset, order kept.
            let keep = |old: usize| (seed >> (old % 64)) & 1 == 1;
            let renumbered: Option<Vec<u32>> = match kind {
                0 => None,
                // A compaction after the batch: survivors renumber densely.
                1 => Some((0..model.len()).filter(|&o| keep(o)).map(|o| o as u32).collect()),
                // A swap: survivors of the first half renumber densely, the
                // second half (the kept tail) stays where it is.
                _ => {
                    let half = model.len() / 2;
                    let mut map: Vec<u32> =
                        (0..half).filter(|&o| keep(o)).map(|o| o as u32).collect();
                    map.resize(half, MISS);
                    map.extend(half as u32..model.len() as u32);
                    Some(map)
                }
            };
            if let Some(map) = &renumbered {
                model = map
                    .iter()
                    .map(|&old| if old == MISS { None } else { model[old as usize] })
                    .collect();
            }
            mirror.apply(&fresh, &UpdateReport { renumbered, ..Default::default() });

            prop_assert_eq!(mirror.len(), model.len());
            let got: Vec<Option<u32>> = (0..mirror.len() as u32)
                .map(|local| Some(mirror.global(local)).filter(|&g| g != MISS))
                .collect();
            prop_assert_eq!(&got, &model);
            let occupied: Vec<u32> = got.iter().flatten().copied().collect();
            prop_assert!(occupied.windows(2).all(|w| w[0] < w[1]));
        }
    }
}

/// The operations of a batch shaped as runs of one kind each, so that
/// homogeneous batches (which carry no order tags), the homogeneous → mixed
/// transition and tag words past the 64-op boundaries all occur.
fn ops_of_runs(runs: &[(bool, usize)], salt: u64) -> Vec<QueryOp> {
    let mut ops = Vec::new();
    for &(is_range, len) in runs {
        for _ in 0..len {
            let key = ops.len() as u64 * 7 + salt;
            ops.push(if is_range {
                QueryOp::Range(key, key + salt % 5)
            } else {
                QueryOp::Point(key)
            });
        }
    }
    ops
}

fn is_range(op: &QueryOp) -> bool {
    matches!(op, QueryOp::Range(..))
}

/// Builds with the in-place mutators, one operation at a time.
fn pushed(ops: &[QueryOp]) -> QueryBatch {
    let mut batch = QueryBatch::new();
    for op in ops {
        match *op {
            QueryOp::Point(key) => batch.push_point(key),
            QueryOp::Range(lower, upper) => batch.push_range(lower, upper),
        }
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One layout, however it was built: `a.append(&b)` iterates as `a`
    /// followed by `b`, a cleared batch is reusable, and the by-value
    /// builder (single and bulk) builds the batch the in-place mutators do.
    #[test]
    fn prop_batch_layout_is_independent_of_how_it_was_built(
        a_runs in prop::collection::vec((any::<bool>(), 0usize..90), 0..4),
        b_runs in prop::collection::vec((any::<bool>(), 0usize..90), 0..4),
    ) {
        let a_ops = ops_of_runs(&a_runs, 3);
        let b_ops = ops_of_runs(&b_runs, 1_000_004);
        let both: Vec<QueryOp> = a_ops.iter().chain(&b_ops).copied().collect();
        let b = pushed(&b_ops);

        let mut a = pushed(&a_ops);
        a.append(&b);
        prop_assert_eq!(a.iter().collect::<Vec<_>>(), both.clone());
        prop_assert_eq!(a.len(), both.len());
        prop_assert_eq!(a.point_count() + a.range_count(), both.len());
        for (slot, op) in both.iter().enumerate() {
            prop_assert_eq!(a.is_range(slot), is_range(op), "slot {}", slot);
        }
        prop_assert_eq!(&a, &pushed(&both), "appended == pushed one by one");

        // By value, one operation at a time and one run at a time.
        let single = both.iter().fold(QueryBatch::new(), |batch, op| match *op {
            QueryOp::Point(key) => batch.point(key),
            QueryOp::Range(lower, upper) => batch.range(lower, upper),
        });
        prop_assert_eq!(&single, &a);
        let mut bulk = QueryBatch::new();
        for run in both.chunk_by(|x, y| is_range(x) == is_range(y)) {
            bulk = if is_range(&run[0]) {
                bulk.ranges(run.iter().map(|op| match *op {
                    QueryOp::Range(lower, upper) => (lower, upper),
                    QueryOp::Point(_) => unreachable!("a run holds one kind"),
                }))
            } else {
                bulk.points(run.iter().map(|op| match *op {
                    QueryOp::Point(key) => key,
                    QueryOp::Range(..) => unreachable!("a run holds one kind"),
                }))
            };
        }
        prop_assert_eq!(&bulk, &a);

        // clear() forgets the operations (and the order tags with them).
        a.clear();
        prop_assert!(a.is_empty());
        a.append(&b);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.iter().collect::<Vec<_>>(), b_ops);
    }
}

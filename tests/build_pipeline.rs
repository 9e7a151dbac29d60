//! Integration tests for the staged parallel build pipeline and the
//! two-generation background compaction: bit-for-bit determinism across
//! worker widths and against the one-shot builders (through
//! `GeometryAccel::build` too), oracle equivalence while reads race an
//! in-flight rebuild, the builder-selection name grammar, and the
//! service-level stall surfacing.

use std::time::{Duration, Instant};

use proptest::prelude::*;
use rtindex::optix_sim::{AccelBuildOptions, BuildInput, GeometryAccel};
use rtindex::rtx_bvh::{builder, BuildConfig, BuildPipeline, BuilderKind, Bvh, TriangleSet};
use rtindex::rtx_delta::{CompactionPolicy, DynamicAdapter, DynamicRtIndex};
use rtindex::rtx_math::Triangle;
use rtindex::{
    registry, Device, DynamicRtConfig, IndexSpec, KeyMode, QueryBatch, QueryService, ServiceConfig,
    UpdatableIndex,
};
use rtx_workloads::truth::DynamicOracle;

fn triangles_for_keys(keys: &[u64]) -> TriangleSet {
    let centers = KeyMode::three_d_default().centers(keys);
    TriangleSet::new(
        centers
            .into_iter()
            .map(|c| Triangle::key_triangle(c, 0.4))
            .collect(),
    )
}

/// Panics at the first node whose bits differ (`PartialEq` on `f32` would
/// let `-0.0` pass for `0.0`), or if the leaf orders differ.
fn assert_bit_identical(a: &Bvh, b: &Bvh, what: &str) {
    let bits = |bvh: &Bvh| -> Vec<[u32; 9]> {
        bvh.nodes
            .iter()
            .map(|n| {
                let (lo, hi) = (n.bounds.min, n.bounds.max);
                [
                    lo.x.to_bits(),
                    lo.y.to_bits(),
                    lo.z.to_bits(),
                    hi.x.to_bits(),
                    hi.y.to_bits(),
                    hi.z.to_bits(),
                    n.right_child,
                    n.first_prim,
                    n.prim_count,
                ]
            })
            .collect()
    };
    let (a_bits, b_bits) = (bits(a), bits(b));
    if let Some(i) = (0..a_bits.len().max(b_bits.len())).find(|&i| a_bits.get(i) != b_bits.get(i)) {
        panic!(
            "{what}: node {i} differs: {:?} against {:?}",
            a.nodes.get(i),
            b.nodes.get(i)
        );
    }
    assert_eq!(a.prim_indices, b.prim_indices, "{what}: orders differ");
}

fn background_config(max_delta_entries: usize) -> DynamicRtConfig {
    DynamicRtConfig::default()
        .with_policy(CompactionPolicy {
            max_delta_entries,
            max_delta_fraction: f64::INFINITY,
            max_delete_ratio: f64::INFINITY,
        })
        .with_background_compaction(true)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The staged pipeline emits a bit-identical hierarchy at every worker
    /// width, and that hierarchy is exactly the one-shot builder's.
    #[test]
    fn prop_staged_parallel_build_is_deterministic(
        keys in prop::collection::vec(0u64..100_000, 1..500),
        leaf in 1usize..6,
    ) {
        let prims = triangles_for_keys(&keys);
        for kind in [BuilderKind::Lbvh, BuilderKind::Sah] {
            let config = BuildConfig {
                builder: kind,
                max_leaf_size: leaf,
                ..BuildConfig::default()
            };
            let reference = builder::build(&prims, &config);
            for workers in [1usize, 5, 8] {
                let staged = BuildPipeline::new(config).with_workers(workers).run(&prims);
                assert_bit_identical(
                    &staged.bvh,
                    &reference,
                    &format!("{kind:?} at {workers} workers"),
                );
            }
        }
    }
}

/// `optixAccelBuild` over 2^16 3D-mode keys (rows over all three axes,
/// duplicates included; enough pairs to cut the snapshot and the sort into
/// one chunk per worker) builds the one-shot LBVH builder's tree bit for
/// bit.
#[test]
fn accel_build_of_3d_keys_is_the_one_shot_lbvh_bit_for_bit() {
    let n = 1u64 << 16;
    let keys: Vec<u64> = (0..n)
        .map(|i| match i % 4 {
            0 => i,                                                 // one dense row
            1 => i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16,       // all three axes
            2 => (i % 61) << 23 | (i % 7) << 46,                    // few x, many rows
            _ => (i - 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16, // duplicates
        })
        .collect();
    let prims = triangles_for_keys(&keys);
    let options = AccelBuildOptions::default();
    let reference = builder::build_lbvh(
        &prims,
        &BuildConfig {
            max_leaf_size: options.max_leaf_size,
            allow_update: options.allow_update,
            ..BuildConfig::default()
        },
    );
    let accel = GeometryAccel::build(
        &Device::default_eval(),
        &BuildInput::Triangles(prims),
        &options,
    );
    assert_bit_identical(accel.bvh(), &reference, "2^16 3D-mode keys");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Background compaction is equivalent to the `DynamicOracle` under
    /// random mixed batches, with point and range reads issued *while* the
    /// rebuild is in flight (the three-generation view) and after the swap.
    #[test]
    fn prop_background_compaction_matches_oracle_while_reads_race(
        initial in prop::collection::vec(0u64..500, 4..80),
        ops in prop::collection::vec((0u8..3, 0u64..600, 1u64..32), 6..18),
    ) {
        let device = Device::default_eval();
        let values: Vec<u64> = initial.iter().map(|&k| k * 3 + 1).collect();
        let mut index =
            DynamicRtIndex::build(&device, &initial, &values, background_config(8)).unwrap();
        let mut oracle = DynamicOracle::new(&initial, &values);
        let queries: Vec<u64> = (0..650).step_by(13).collect();
        let mut raced_inflight = false;

        let mut next_value = 10_000u64;
        for (kind, base, span) in ops {
            let batch: Vec<u64> = (base..base + span).collect();
            let vals: Vec<u64> = batch
                .iter()
                .map(|_| {
                    next_value += 1;
                    next_value
                })
                .collect();
            let outcome = match kind {
                0 => index.insert_batch(&batch, &vals).unwrap(),
                1 => index.delete_batch(&batch).unwrap(),
                _ => index.upsert_batch(&batch, &vals).unwrap(),
            };
            // Mirror in the index's own order: the swap lands *before* the
            // batch's operations apply (it may reset the row allocator, so
            // the order matters), the freeze *after* them.
            if let Some(event) = outcome.compaction {
                prop_assert!(event.background);
                prop_assert!(event.quality.sah_cost >= 0.0);
                oracle.finish_compaction();
            }
            match kind {
                0 => oracle.insert_batch(&batch, &vals),
                1 => {
                    oracle.delete_batch(&batch);
                }
                _ => {
                    oracle.upsert_batch(&batch, &vals);
                }
            }
            if outcome.compaction_began {
                oracle.begin_compaction();
            }
            raced_inflight |= index.compaction_in_flight();

            // Reads race the rebuild: exact equivalence, rowIDs included.
            let out = index.point_lookup_batch(&queries).unwrap();
            for (&q, r) in queries.iter().zip(&out.results) {
                prop_assert_eq!(*r, oracle.point(q), "key {} (inflight: {})",
                    q, index.compaction_in_flight());
            }
            let ranges = [(0u64, 650u64), (base, base + span)];
            let out = index.range_lookup_batch(&ranges).unwrap();
            for (&(lo, hi), r) in ranges.iter().zip(&out.results) {
                prop_assert_eq!(*r, oracle.range(lo, hi), "range [{}, {}]", lo, hi);
            }
        }

        // Drain the last rebuild and verify the settled state.
        if index.wait_for_compaction().is_some() {
            oracle.finish_compaction();
        }
        let out = index.point_lookup_batch(&queries).unwrap();
        for (&q, r) in queries.iter().zip(&out.results) {
            prop_assert_eq!(*r, oracle.point(q), "key {} after drain", q);
        }
        prop_assert_eq!(index.len(), oracle.len());
        // The policy is aggressive enough that at least one run raced.
        let _ = raced_inflight;
    }
}

/// The builder-selection grammar end to end: every spelling builds through
/// the default registry and answers exactly like the plain backend.
#[test]
fn builder_suffix_grammar_builds_equivalent_backends() {
    let device = Device::default_eval();
    let keys: Vec<u64> = (0..2048).map(|i| (i * 2654435761) % 4096).collect();
    let values: Vec<u64> = (0..2048).collect();
    let spec = IndexSpec::with_values(&device, &keys, &values);
    let registry = registry();

    let batch = QueryBatch::new()
        .points(keys.iter().copied().step_by(17))
        .range(100, 300)
        .fetch_values(true);
    let reference = registry
        .build("RX", &spec)
        .unwrap()
        .execute(&batch)
        .unwrap();

    for name in [
        "RX:sah",
        "RX:lbvh",
        "RX:sah@2",
        "RX@2:range:sah",
        "RXD:lbvh",
    ] {
        let ix = registry
            .build(name, &spec)
            .unwrap_or_else(|e| panic!("{name} must build: {e}"));
        let out = ix.execute(&batch).unwrap();
        assert_eq!(out.results, reference.results, "{name} answers differ");
    }

    // Updatable resolution honours the suffix too.
    let mut rxd = registry.build_updatable("RXD:sah", &spec).unwrap();
    rxd.insert(&[9000], &[1]).unwrap();
    let out = rxd.execute(&QueryBatch::new().point(9000)).unwrap();
    assert!(out.results[0].is_hit());

    // Unknown suffixes stay unknown backends.
    assert!(registry.build("RX:fast", &spec).is_err());
}

/// Service-level: reader threads race background compactions while a
/// writer churns the index; every read stays consistent and the service
/// surfaces the (small) write stalls and the completed reorganisations.
#[test]
fn service_reads_race_background_compaction() {
    let device = Device::default_eval();
    let n = 2048usize;
    let keys: Vec<u64> = (0..n as u64).collect();
    let values: Vec<u64> = keys.iter().map(|&k| k + 7).collect();
    let spec = IndexSpec::with_values(&device, &keys, &values);
    let backend = Box::new(DynamicAdapter::build(&spec, background_config(64)).expect("build"))
        as Box<dyn UpdatableIndex>;
    let service = QueryService::start_updatable(backend, ServiceConfig::default());

    // Stable keys are never deleted: every racing read must see exactly
    // one row with the right value, whichever generation serves it.
    std::thread::scope(|scope| {
        for reader in 0..4u64 {
            let handle = service.handle();
            scope.spawn(move || {
                for i in 0..40u64 {
                    let probe: Vec<u64> = (0..16)
                        .map(|j| (reader * 331 + i * 53 + j * 17) % 1024)
                        .collect();
                    let out = handle
                        .query(QueryBatch::of_points(&probe).fetch_values(true))
                        .expect("racing read");
                    for (&k, r) in probe.iter().zip(&out.results) {
                        assert_eq!(r.hit_count, 1, "stable key {k}");
                        assert_eq!(r.value_sum, k + 7, "stable key {k}");
                    }
                }
            });
        }

        let handle = service.handle();
        scope.spawn(move || {
            for w in 0..12u64 {
                let fresh: Vec<u64> = (0..64).map(|i| 10_000 + w * 64 + i).collect();
                let fresh_values: Vec<u64> = fresh.iter().map(|&k| k * 2).collect();
                handle.insert(&fresh, &fresh_values).expect("insert");
                if w % 3 == 2 {
                    let stale: Vec<u64> = (0..64).map(|i| 10_000 + (w - 1) * 64 + i).collect();
                    handle.delete(&stale).expect("delete");
                }
            }
        });
    });

    // A finished background rebuild lands on the next write, and on a busy
    // host the race's last write can come before the first rebuild is done:
    // keep writing, one row at a time, until one has landed.
    let handle = service.handle();
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut extra_writes = 0u64;
    while handle.stats().write_reorganisations == 0 && Instant::now() < deadline {
        handle
            .insert(&[20_000 + extra_writes], &[0])
            .expect("insert");
        extra_writes += 1;
        std::thread::sleep(Duration::from_millis(1));
    }

    let stats = service.shutdown();
    assert!(
        stats.write_reorganisations > 0,
        "the aggressive policy must have compacted"
    );
    assert!(stats.write_stall_ns_max > 0);
    assert!(stats.mean_write_stall_s() > 0.0);
    assert_eq!(
        stats.write_batches,
        12 + 4 + extra_writes,
        "12 inserts + 4 deletes + the landing writes"
    );
}

//! Trait-conformance suite: one parameterized oracle check run against all
//! five backends — and sharded variants of them — through the registry.
//!
//! Every backend that accepts a key set must answer the *same* submissions
//! with the *same* results: homogeneous point batches, homogeneous range
//! batches, a single mixed batch (points + ranges + value fetch), chunked
//! execution, duplicate keys, misses and inverted ranges (uniformly empty).
//! Backends that reject a key set must do so via
//! `IndexError::UnsupportedKeySet` (B+ on duplicates and 64-bit keys, plain
//! or sharded), and backends without range support must fail range
//! submissions uniformly (HT, plain or sharded).

use proptest::prelude::*;
use rtindex::{
    registry, Device, ExecArena, IndexBackend, IndexError, IndexSpec, QueryBatch, SecondaryIndex,
};
use rtx_workloads as wl;
use rtx_workloads::GroundTruth;

/// Sharded variants checked alongside the five plain backends: both
/// partitioners, shard counts above and below the worker count, every
/// backend family (the RXD variant goes through the updatable build path
/// elsewhere; here it serves reads).
const SHARDED_BACKENDS: [&str; 5] = ["RX@3", "HT@2", "B+@2", "SA@4:range", "RXD@2:range"];

/// Key-set shapes the paper evaluates, as (name, keys) pairs.
fn key_sets() -> Vec<(&'static str, Vec<u64>)> {
    vec![
        ("dense shuffled", wl::dense_shuffled(2000, 1)),
        (
            "sparse 32-bit",
            wl::sparse_uniform(1500, u32::MAX as u64, 2),
        ),
        ("sparse 64-bit", wl::sparse_uniform(1200, u64::MAX / 2, 3)),
        ("duplicates x8", wl::with_multiplicity(256, 8, 4)),
        ("empty", Vec::new()),
    ]
}

/// `count` point queries mixing hits and misses; pure misses on an empty
/// key set (where the workload generator rightfully refuses to sample).
fn sample_points(keys: &[u64], count: usize, hit_rate: f64, seed: u64) -> Vec<u64> {
    if keys.is_empty() {
        (0..count as u64).map(|i| i * 31 + 5).collect()
    } else {
        wl::point_lookups_with_hit_rate(keys, count, hit_rate, seed)
    }
}

/// A mixed batch over the key domain: hits, misses, narrow and wide ranges,
/// plus an inverted range (uniform empty-result semantics).
fn mixed_batch(keys: &[u64], seed: u64, fetch: bool) -> QueryBatch {
    let domain = keys.iter().copied().max().unwrap_or(0);
    let points = sample_points(keys, 200, 0.7, seed);
    let ranges: Vec<(u64, u64)> = (0..50u64)
        .map(|i| {
            let lower = (i * 37) % (domain + 10);
            (lower, lower + (i % 3) * 16)
        })
        .collect();
    QueryBatch::new()
        .points(points)
        .ranges(ranges)
        .point(domain.wrapping_add(12345)) // guaranteed miss
        .range(domain / 2 + 9, domain / 2) // inverted: empty everywhere
        .fetch_values(fetch)
}

fn conformance_check(set_name: &str, keys: &[u64], ix: &dyn SecondaryIndex, truth: &GroundTruth) {
    let name = ix.name();
    let label = format!("{name} on {set_name}");
    assert_eq!(ix.key_count(), keys.len(), "{label}: key count");

    // Homogeneous point batch with value fetch.
    let queries = sample_points(keys, 300, 0.6, 7);
    let points = QueryBatch::of_points(&queries).fetch_values(true);
    let out = ix.execute(&points).expect("point batch");
    assert_eq!(
        out.results,
        truth.expected_batch(&points),
        "{label}: points"
    );

    // Without a fetch the sums are zero everywhere.
    let unfetched = ix.execute(&QueryBatch::of_points(&queries)).unwrap();
    assert_eq!(unfetched.total_value_sum(), 0, "{label}: no-fetch sums");

    // The mixed submission: identical answers in submission order, the
    // inverted range empty, and chunked execution must change nothing but
    // the launch count.
    let mixed = mixed_batch(keys, 8, true);
    if ix.capabilities().range_lookups {
        let out = ix.execute(&mixed).expect("mixed batch");
        assert_eq!(out.results, truth.expected_batch(&mixed), "{label}: mixed");
        let inverted = out.results.last().expect("non-empty batch");
        assert!(!inverted.is_hit(), "{label}: inverted range must be empty");

        let chunked = ix.execute(&mixed.clone().with_chunk_size(17)).unwrap();
        assert_eq!(chunked.results, out.results, "{label}: chunked == whole");
        assert!(
            chunked.metrics.kernel.kernel_launches >= out.metrics.kernel.kernel_launches,
            "{label}: chunking cannot reduce launches"
        );
    } else {
        let err = ix.execute(&mixed).map(|_| ()).unwrap_err();
        assert!(
            matches!(err, IndexError::UnsupportedOperation { operation, .. }
                if operation == "range lookups"),
            "{label}: range rejection must be uniform"
        );
    }
}

#[test]
fn all_backends_agree_with_the_oracle_on_every_key_set() {
    let device = Device::default_eval();
    let registry = registry();
    assert_eq!(registry.backends(), vec!["B+", "HT", "RX", "RXD", "SA"]);
    assert!(registry.supports_sharding());

    for (set_name, keys) in key_sets() {
        let values = wl::value_column(keys.len(), 42);
        let truth = GroundTruth::new(&keys, Some(&values));
        let spec = IndexSpec::with_values(&device, &keys, &values);

        let has_duplicates = {
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            sorted.windows(2).any(|w| w[0] == w[1])
        };
        let has_64bit = keys.iter().any(|&k| k > u32::MAX as u64);

        let mut served = 0;
        let all_names = registry
            .backends()
            .into_iter()
            .map(str::to_string)
            .chain(SHARDED_BACKENDS.iter().map(|s| s.to_string()));
        let mut attempted = 0;
        for name in all_names {
            attempted += 1;
            match registry.build(&name, &spec) {
                Ok(ix) => {
                    served += 1;
                    conformance_check(set_name, &keys, ix.as_ref(), &truth);
                }
                Err(err) => {
                    assert!(
                        err.is_unsupported_key_set(),
                        "{name} on {set_name}: build may only fail as unsupported, got {err}"
                    );
                    assert!(
                        name.starts_with("B+"),
                        "{set_name}: only B+ (plain or sharded) restricts key sets"
                    );
                    assert!(
                        has_duplicates || has_64bit,
                        "{set_name}: B+ rejection needs a reason"
                    );
                }
            }
        }
        assert_eq!(attempted, 10, "{set_name}: five plain + five sharded");
        let expected = if has_duplicates || has_64bit { 8 } else { 10 };
        assert_eq!(served, expected, "{set_name}: backend coverage");
    }
}

// The execution method and its convenience are one semantics: `execute`
// (fresh arena) and `execute_in` with a dirty reused arena must return
// identical results and bit-identical deterministic metrics (or the
// identical error) on every backend, plain and sharded. The arena is shared
// across the backends of a case and dirtied with an unrelated batch before
// each comparison, so state leaking between submissions would be caught
// immediately.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn prop_reused_arena_matches_fresh_execute(
        keys in prop::collection::vec(0u64..800, 1..120),
        points in prop::collection::vec(0u64..1000, 0..40),
        ranges in prop::collection::vec((0u64..1000, 0u64..64), 0..12),
        invert in prop::collection::vec(any::<bool>(), 0..12),
        fetch in any::<bool>(),
        chunk in 0usize..40,
    ) {
        let device = Device::default_eval();
        let registry = registry();
        let values = wl::value_column(keys.len(), 42);
        let spec = IndexSpec::with_values(&device, &keys, &values);

        // Interleave points and ranges so the order tags are genuinely
        // exercised; flip some ranges to inverted (empty).
        let ranges: Vec<(u64, u64)> = ranges
            .iter()
            .enumerate()
            .map(|(i, &(l, w))| {
                if invert.get(i) == Some(&true) {
                    (l + w + 1, l) // lower > upper: uniformly empty
                } else {
                    (l, l + w)
                }
            })
            .collect();
        let mut batch = QueryBatch::new().fetch_values(fetch);
        for i in 0..points.len().max(ranges.len()) {
            if i < points.len() {
                batch = batch.point(points[i]);
            }
            if let Some(&(lower, upper)) = ranges.get(i) {
                batch = batch.range(lower, upper);
            }
        }
        if chunk > 0 {
            batch = batch.with_chunk_size(chunk);
        }

        let mut arena = ExecArena::new();
        let dirt = QueryBatch::new().points(0..70).ranges([(5, 900), (9, 3), (0, 0)]);
        let all_names = registry
            .backends()
            .into_iter()
            .map(str::to_string)
            .chain(SHARDED_BACKENDS.iter().map(|s| s.to_string()));
        for name in all_names {
            let Ok(ix) = registry.build(&name, &spec) else {
                continue; // B+ rejecting duplicate keys, checked elsewhere
            };
            let _ = ix.execute_in(&dirt, &mut arena); // range-less backends refuse it
            match (ix.execute(&batch), ix.execute_in(&batch, &mut arena)) {
                (Ok(want), Ok(got)) => {
                    prop_assert_eq!(&got.results, &want.results, "{}: results", &name);
                    prop_assert_eq!(
                        got.metrics.kernel.kernel_launches,
                        want.metrics.kernel.kernel_launches,
                        "{}: launches", &name
                    );
                    prop_assert_eq!(
                        got.metrics.simulated_time_s.to_bits(),
                        want.metrics.simulated_time_s.to_bits(),
                        "{}: simulated time", &name
                    );
                }
                (Err(want), Err(got)) => prop_assert_eq!(got, want, "{}: error", &name),
                (want, got) => prop_assert!(
                    false,
                    "{}: execute gave {:?}, execute_in gave {:?}", &name, want, got
                ),
            }
        }
    }
}

#[test]
fn updatable_backend_is_also_reachable_through_the_registry() {
    let device = Device::default_eval();
    let registry = registry();
    assert_eq!(registry.updatable_backends(), vec!["RXD"]);

    let keys = wl::dense_shuffled(512, 9);
    let values = wl::value_column(512, 10);
    // The plain updatable backend and its sharded variants behave alike.
    for name in ["RXD", "RXD@3", "RXD@2:range"] {
        let mut ix = registry
            .build_updatable(name, &IndexSpec::with_values(&device, &keys, &values))
            .unwrap();
        assert!(ix.capabilities().updates, "{name}");

        // A write followed by a mixed read, all through trait objects.
        ix.upsert(&[7, 8], &[700, 800]).unwrap();
        let out = ix
            .execute(&QueryBatch::new().point(7).range(7, 8).fetch_values(true))
            .unwrap();
        assert_eq!(out.results[0].value_sum, 700, "{name}");
        assert_eq!(out.results[1].value_sum, 1500, "{name}");
    }

    // The read-only path hands out the same backend.
    let ro = registry
        .build("RXD", &IndexSpec::with_values(&device, &keys, &values))
        .unwrap();
    assert_eq!(ro.name(), "RXD");
    assert_eq!(ro.key_count(), 512);
}

/// The grammar set of the resolution check: every production, alone and
/// combined, over read-only and updatable backends, with whether the name
/// resolves to a writer.
const RESOLUTION_NAMES: [(&str, bool); 7] = [
    ("RX", false),
    ("RX:sah@3", false),
    ("HT{u32,u32}", false),
    ("RXD", true),
    ("RXD@2:range", true),
    ("RXD{u32,u32}", true),
    ("RXD@2+wal:", true),
];

/// `build`, `build_updatable` and `build_backend` resolve every name of
/// the grammar set to the same index, oracle-exact, and `updates` says
/// which variant `build_backend` returned.
#[test]
fn build_views_agree_with_build_backend() {
    let device = Device::default_eval();
    let registry = registry();
    let keys = wl::dense_shuffled(1500, 21);
    let values = wl::value_column(1500, 22);
    let truth = GroundTruth::new(&keys, Some(&values));
    let spec = IndexSpec::with_values(&device, &keys, &values);
    let points = QueryBatch::of_points(&sample_points(&keys, 200, 0.7, 23)).fetch_values(true);
    let mixed = mixed_batch(&keys, 24, true);
    let root = std::env::temp_dir().join(format!("rtx-resolution-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let is_refusal = |err: &IndexError| matches!(err, IndexError::UnknownBackend { known, .. } if known == &["RXD"]);

    for (prefix, writer) in RESOLUTION_NAMES {
        // Each build of a durable name needs a directory of its own.
        let name = |view: &str| {
            if prefix.ends_with("+wal:") {
                format!("{prefix}{}", root.join(view).display())
            } else {
                prefix.to_string()
            }
        };
        let backend = registry.build_backend(&name("backend"), &spec).unwrap();
        assert_eq!(
            matches!(backend, IndexBackend::Write(_)),
            writer,
            "{prefix}: variant"
        );
        let read = registry.build(&name("read"), &spec).unwrap();
        let write = registry.build_updatable(&name("write"), &spec);
        match &write {
            Ok(_) => assert!(writer, "{prefix}: a read-only name built as updatable"),
            Err(err) => assert!(!writer && is_refusal(err), "{prefix}: {err}"),
        }
        let write = write
            .as_ref()
            .ok()
            .map(|ix| ix.as_ref() as &dyn SecondaryIndex);
        for ix in [Some(backend.read()), Some(read.as_ref()), write]
            .into_iter()
            .flatten()
        {
            assert_eq!(ix.name(), backend.read().name(), "{prefix}: name");
            assert_eq!(ix.capabilities().updates, writer, "{prefix}: updates");
            let out = ix.execute(&points).unwrap();
            assert_eq!(out.results, truth.expected_batch(&points), "{prefix}");
            if ix.capabilities().range_lookups {
                let out = ix.execute(&mixed).unwrap();
                assert_eq!(out.results, truth.expected_batch(&mixed), "{prefix}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&root);

    // Read-only and unknown names are refused with the updatable listing.
    for name in ["SA@2", "ZZ"] {
        let err = registry
            .build_updatable(name, &spec)
            .map(|_| ())
            .unwrap_err();
        assert!(is_refusal(&err), "{name}: {err}");
    }
}

//! An RX build from the key column is the build from a materialized vertex
//! buffer, bit for bit.
//!
//! `RtIndex::build` reads its scene straight from the key column: it
//! computes primitive `i` from key `i` whenever the builder asks, and
//! writes the one primitive buffer in leaf-slot order. This file builds
//! every case twice — through `RtIndex::build`, and with
//! `GeometryAccel::build` from the rowID-ordered [`BuildInput`] that
//! [`build_input`] materializes with the `BuildInput` helpers — and
//! compares node bounds by their bits, the leaf order and the stored
//! buffer's floats by their bits. It covers every primitive kind each
//! key mode supports, both builders and host pools of 1, 2 and 8 workers,
//! and `RtIndex::update_keys` against a refit from the materialized input.
//! Run it in release too: a float tie can settle differently there.
//!
//! ```text
//! cargo test --release -p rtindex-core --test key_scene
//! ```

use std::sync::Mutex;

use gpu_device::Device;
use optix_sim::{AccelBuildOptions, BuildInput, GeometryAccel, PrimitiveKind};
use proptest::prelude::*;
use rtindex_core::{BuilderKind, Decomposition, KeyMode, RtIndex, RtIndexConfig};
use rtx_bvh::{AabbSet, TriangleSet};
use rtx_math::{Aabb, Triangle, Vec3f};

/// The host pool widths every case is built at.
const WORKERS: [&str; 3] = ["1", "2", "8"];

/// Serialises the cases that set `RTX_WORKERS` (process-global).
static POOL_WIDTH: Mutex<()> = Mutex::new(());

/// The rowID-ordered input of `kind` primitives for `keys` under `mode`,
/// materialized: what an RX build held on the host before it read the key
/// column directly. Naive and 3D mode use `BuildInput::from_centers`;
/// Extended mode's per-key x extents are built here, as the index did.
fn build_input(mode: KeyMode, kind: PrimitiveKind, keys: &[u64]) -> BuildInput {
    let centers = mode.centers(keys);
    if !matches!(mode, KeyMode::Extended) {
        return BuildInput::from_centers(kind, &centers);
    }
    let halves = keys.iter().map(|&k| mode.half_extents(k));
    let pairs = centers.iter().zip(halves);
    match kind {
        PrimitiveKind::Triangle => BuildInput::Triangles(TriangleSet::new(
            pairs
                .map(|(c, h)| Triangle::key_triangle_anisotropic(*c, h))
                .collect(),
        )),
        PrimitiveKind::Aabb => BuildInput::Aabbs(AabbSet::new(
            pairs.map(|(c, h)| Aabb::new(*c - h, *c + h)).collect(),
        )),
        PrimitiveKind::Sphere => unreachable!("Extended mode supports no spheres"),
    }
}

/// Every (mode, kind) pair a key mode supports; 3D mode at the default
/// decomposition and at a small one, whose rows fill all three axes.
fn supported_pairs() -> Vec<(KeyMode, PrimitiveKind)> {
    let modes = [
        KeyMode::Naive,
        KeyMode::Extended,
        KeyMode::three_d_default(),
        KeyMode::ThreeD(Decomposition::new(4, 6, 6)),
    ];
    modes
        .into_iter()
        .flat_map(|mode| PrimitiveKind::all().map(|kind| (mode, kind)))
        .filter(|(mode, kind)| mode.supports_primitive(*kind))
        .collect()
}

/// `raw` mapped into `mode`'s key range, followed by the mode's largest
/// key, a dense run of `dense` keys from `start` and duplicates of the
/// first keys.
fn mode_keys(mode: KeyMode, raw: &[u64], start: u64, dense: usize) -> Vec<u64> {
    let max = mode.max_key();
    let fold = |k: u64| if max == u64::MAX { k } else { k % (max + 1) };
    let mut keys: Vec<u64> = raw.iter().map(|&k| fold(k)).collect();
    keys.push(max);
    let start = fold(start).min(max - dense as u64);
    keys.extend((0..dense as u64).map(|d| start + d));
    let duplicates: Vec<u64> = keys.iter().take(8).copied().collect();
    keys.extend(duplicates);
    keys
}

/// Every float of the stored primitive buffer, by its bits, in slot order.
fn buffer_bits(input: &BuildInput) -> Vec<u32> {
    let v = |p: &Vec3f| [p.x, p.y, p.z];
    let floats: Vec<f32> = match input {
        BuildInput::Triangles(t) => t
            .triangles()
            .iter()
            .flat_map(|t| [v(&t.v0), v(&t.v1), v(&t.v2)].concat())
            .collect(),
        BuildInput::Spheres(s) => s.centers().iter().flat_map(v).chain([s.radius()]).collect(),
        BuildInput::Aabbs(a) => a
            .boxes()
            .iter()
            .flat_map(|b| [v(&b.min), v(&b.max)].concat())
            .collect(),
    };
    floats.into_iter().map(f32::to_bits).collect()
}

/// Panics at the first difference between two structures: a node (bounds
/// by bits, links, leaf ranges), the leaf order, or the stored buffer.
fn assert_same_accel(a: &GeometryAccel, b: &GeometryAccel, what: &str) {
    let nodes = |g: &GeometryAccel| -> Vec<[u32; 9]> {
        g.bvh()
            .nodes
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
    let (na, nb) = (nodes(a), nodes(b));
    if let Some(i) = (0..na.len().max(nb.len())).find(|&i| na.get(i) != nb.get(i)) {
        panic!(
            "{what}: node {i} differs: {:?} against {:?}",
            a.bvh().nodes.get(i),
            b.bvh().nodes.get(i)
        );
    }
    assert_eq!(
        a.bvh().prim_indices,
        b.bvh().prim_indices,
        "{what}: leaf orders differ"
    );
    assert_eq!(a.kind(), b.kind(), "{what}: kinds differ");
    let (ba, bb) = (buffer_bits(a.input()), buffer_bits(b.input()));
    if let Some(i) = (0..ba.len().max(bb.len())).find(|&i| ba.get(i) != bb.get(i)) {
        panic!(
            "{what}: stored float {i} differs: {:?} against {:?}",
            ba.get(i).map(|&x| f32::from_bits(x)),
            bb.get(i).map(|&x| f32::from_bits(x))
        );
    }
    assert_eq!(a.memory_bytes(), b.memory_bytes(), "{what}: device bytes");
}

/// Runs `check` once per host pool width of [`WORKERS`], restoring the
/// caller's `RTX_WORKERS` afterwards.
fn at_every_pool_width(mut check: impl FnMut(&str)) {
    let _serial = POOL_WIDTH.lock().unwrap_or_else(|e| e.into_inner());
    let outer = std::env::var("RTX_WORKERS").ok();
    for workers in WORKERS {
        std::env::set_var("RTX_WORKERS", workers);
        check(workers);
    }
    match outer {
        Some(w) => std::env::set_var("RTX_WORKERS", w),
        None => std::env::remove_var("RTX_WORKERS"),
    }
}

/// The configuration of an RX index over `mode` and `kind` with `builder`.
fn config(mode: KeyMode, kind: PrimitiveKind, builder: BuilderKind) -> RtIndexConfig {
    RtIndexConfig::default()
        .with_key_mode(mode)
        .with_primitive(kind)
        .with_builder(builder)
}

/// The build options `RtIndex::build` passes for `config`.
fn options(config: &RtIndexConfig) -> AccelBuildOptions {
    AccelBuildOptions {
        allow_update: config.allow_update,
        compact: config.compact,
        max_leaf_size: config.max_leaf_size,
        builder: config.builder,
        ..AccelBuildOptions::default()
    }
}

/// Builds `keys` through `RtIndex::build` and from the materialized input
/// at every supported (mode, kind), each of `builders` and every pool
/// width, and compares the structures.
fn check_builds(builders: &[BuilderKind], keys_of: impl Fn(KeyMode) -> Vec<u64>) {
    let device = Device::default_eval();
    at_every_pool_width(|workers| {
        for (mode, kind) in supported_pairs() {
            let keys = keys_of(mode);
            let input = build_input(mode, kind, &keys);
            for &builder in builders {
                let config = config(mode, kind, builder);
                let index = RtIndex::build(&device, &keys, config).expect("build");
                let from_input = GeometryAccel::build(&device, &input, &options(&config));
                assert_same_accel(
                    index.accel(),
                    &from_input,
                    &format!("{mode:?} {kind:?} {builder:?}, {workers} workers"),
                );
            }
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// An RX build from the key column is the build from the materialized
    /// input, bit for bit.
    #[test]
    fn prop_key_scene_builds_the_materialized_structure(
        raw in prop::collection::vec(any::<u64>(), 0..300),
        start in any::<u64>(),
        dense in 0usize..200,
    ) {
        check_builds(&[BuilderKind::Lbvh, BuilderKind::Sah], |mode| {
            mode_keys(mode, &raw, start, dense)
        });
    }

    /// `RtIndex::update_keys` (a refit from the scene) equals a refit from
    /// the materialized input of the same keys, on a structure built from
    /// the materialized input.
    #[test]
    fn prop_refit_from_the_key_scene_is_the_materialized_refit(
        raw in prop::collection::vec(any::<u64>(), 1..200),
        shift in any::<u64>(),
        dense in 0usize..100,
    ) {
        let device = Device::default_eval();
        at_every_pool_width(|workers| {
            for (mode, kind) in supported_pairs() {
                let keys = mode_keys(mode, &raw, shift, dense);
                let moved: Vec<u64> = keys
                    .iter()
                    .rev()
                    .map(|&k| if mode.supports_key(k ^ shift) { k ^ shift } else { k / 2 })
                    .collect();
                for builder in [BuilderKind::Lbvh, BuilderKind::Sah] {
                    let config = config(mode, kind, builder).updatable();
                    let mut index = RtIndex::build(&device, &keys, config).expect("build");
                    index.update_keys(&moved).expect("refit");
                    let mut reference = GeometryAccel::build(
                        &device,
                        &build_input(mode, kind, &keys),
                        &options(&config),
                    );
                    reference
                        .update(&device, &build_input(mode, kind, &moved))
                        .expect("refit");
                    assert_same_accel(
                        index.accel(),
                        &reference,
                        &format!("refit {mode:?} {kind:?} {builder:?}, {workers} workers"),
                    );
                }
            }
        });
    }
}

/// Enough keys that the LBVH snapshot, its sort and the buffer write cut
/// into more than one chunk at 2 and 8 workers (the SAH snapshot is cut
/// per worker at any size, so the cases above cover it).
#[test]
fn key_scene_builds_the_materialized_structure_across_chunks() {
    let n = 34_000u64;
    let raw: Vec<u64> = (0..n)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    check_builds(&[BuilderKind::Lbvh], |mode| mode_keys(mode, &raw, n, 2048));
}

//! BVH construction.
//!
//! Two builders are provided:
//!
//! * [`build_sah`] — a top-down binned surface-area-heuristic builder. This
//!   is the "quality" builder: slower to construct, cheaper to traverse.
//! * [`build_lbvh`] — an LBVH-style builder that sorts primitives by the
//!   Morton code of their centroid and splits the sorted range recursively.
//!   GPU drivers (including, most likely, the one behind `optixAccelBuild`)
//!   use this family of builders because construction parallelises well.
//!
//! Both produce the same flattened [`Bvh`] representation and identical
//! traversal semantics, so experiments can ablate the builder choice.

use rtx_math::morton::morton_in_bounds;
use rtx_math::Aabb;

use crate::node::{Bvh, BvhNode};
use crate::primitives::PrimitiveSet;

/// Which construction algorithm to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BuilderKind {
    /// Binned surface-area-heuristic builder.
    Sah,
    /// Morton-code (LBVH) builder — the default, matching GPU behaviour.
    #[default]
    Lbvh,
}

/// Build-time options, mirroring the `OptixAccelBuildOptions` flags RTIndeX
/// uses.
#[derive(Debug, Clone, Copy)]
pub struct BuildConfig {
    /// Maximum number of primitives per leaf.
    pub max_leaf_size: usize,
    /// Number of SAH bins per axis (only used by the SAH builder).
    pub sah_bins: usize,
    /// Whether the structure may later be refitted
    /// (`OPTIX_BUILD_FLAG_ALLOW_UPDATE`). Disables compaction.
    pub allow_update: bool,
    /// Which builder to run.
    pub builder: BuilderKind,
}

impl Default for BuildConfig {
    fn default() -> Self {
        BuildConfig {
            max_leaf_size: 4,
            sah_bins: 16,
            allow_update: false,
            builder: BuilderKind::Lbvh,
        }
    }
}

impl BuildConfig {
    /// Returns a config with `allow_update` enabled.
    pub fn updatable(mut self) -> Self {
        self.allow_update = true;
        self
    }
}

/// Builds a BVH over `prims` using the builder selected in `config`.
pub fn build(prims: &dyn PrimitiveSet, config: &BuildConfig) -> Bvh {
    match config.builder {
        BuilderKind::Sah => build_sah(prims, config),
        BuilderKind::Lbvh => build_lbvh(prims, config),
    }
}

/// Per-primitive info snapshotted before construction.
pub(crate) struct PrimInfo {
    pub(crate) index: u32,
    pub(crate) bounds: Aabb,
    pub(crate) centroid: rtx_math::Vec3f,
}

pub(crate) fn collect_prim_info(prims: &dyn PrimitiveSet) -> Vec<PrimInfo> {
    (0..prims.len())
        .map(|i| PrimInfo {
            index: i as u32,
            bounds: prims.bounds(i),
            centroid: prims.centroid(i),
        })
        .collect()
}

/// One pending range of the iterative builders. Only right children carry a
/// fix-up: the left child is always the next node in pre-order, so its
/// parent needs no patching.
struct Frame {
    lo: usize,
    hi: usize,
    /// Index of the interior node whose `right_child` this range's root is.
    fixup: Option<usize>,
}

/// Builds a BVH with the binned SAH algorithm.
pub fn build_sah(prims: &dyn PrimitiveSet, config: &BuildConfig) -> Bvh {
    let mut info = collect_prim_info(prims);
    let mut nodes = Vec::with_capacity(prims.len().max(1) * 2);
    let mut order = Vec::with_capacity(prims.len());
    if !info.is_empty() {
        build_sah_range(&mut info[..], &mut nodes, &mut order, config);
    }
    Bvh::new(nodes, order, config.allow_update)
}

/// The SAH split position for `info`: sorts the slice along the chosen axis
/// and returns the split index (always in `1..len`). Shared by the one-shot
/// builder and the staged pipeline's top-level splitting so both produce the
/// same tree.
pub(crate) fn sah_split_position(info: &mut [PrimInfo], config: &BuildConfig) -> usize {
    let centroid_bounds = info
        .iter()
        .fold(Aabb::EMPTY, |acc, p| acc.union_point(p.centroid));
    let axis = centroid_bounds.longest_axis();
    let extent = centroid_bounds.extent().axis(axis);

    let split = if extent <= f32::EPSILON {
        // All centroids coincide (duplicate keys): split in the middle to
        // keep the tree balanced.
        info.len() / 2
    } else {
        binned_sah_split(info, axis, &centroid_bounds, config.sah_bins).unwrap_or(info.len() / 2)
    };
    split.clamp(1, info.len() - 1)
}

/// Builds the subtree for `info` with an explicit work stack, appending
/// nodes in pre-order (identical to the historical recursive builder, but
/// immune to call-stack overflow on adversarial inputs whose splits
/// degenerate into long spines). Returns the index of the subtree root.
pub(crate) fn build_sah_range(
    info: &mut [PrimInfo],
    nodes: &mut Vec<BvhNode>,
    order: &mut Vec<u32>,
    config: &BuildConfig,
) -> usize {
    let root = nodes.len();
    let mut stack = vec![Frame {
        lo: 0,
        hi: info.len(),
        fixup: None,
    }];
    while let Some(Frame { lo, hi, fixup }) = stack.pop() {
        let node_index = nodes.len();
        if let Some(parent) = fixup {
            nodes[parent].right_child = node_index as u32;
        }
        let slice = &mut info[lo..hi];
        let bounds = slice
            .iter()
            .fold(Aabb::EMPTY, |acc, p| acc.union(&p.bounds));

        if slice.len() <= config.max_leaf_size {
            let first = order.len() as u32;
            order.extend(slice.iter().map(|p| p.index));
            nodes.push(BvhNode::leaf(bounds, first, slice.len() as u32));
            continue;
        }

        // Partition is implicit: `sah_split_position` sorts by centroid
        // along the chosen axis, so splitting the range is enough.
        let split = sah_split_position(slice, config);
        nodes.push(BvhNode::interior(bounds, 0));
        // Right pushed first so the left child pops next (pre-order).
        stack.push(Frame {
            lo: lo + split,
            hi,
            fixup: Some(node_index),
        });
        stack.push(Frame {
            lo,
            hi: lo + split,
            fixup: None,
        });
    }
    root
}

/// Sorts `info` along `axis` and returns the SAH-optimal split position.
fn binned_sah_split(
    info: &mut [PrimInfo],
    axis: usize,
    centroid_bounds: &Aabb,
    bin_count: usize,
) -> Option<usize> {
    info.sort_unstable_by(|a, b| {
        a.centroid
            .axis(axis)
            .partial_cmp(&b.centroid.axis(axis))
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let lo = centroid_bounds.min.axis(axis);
    let hi = centroid_bounds.max.axis(axis);
    let extent = hi - lo;
    if extent <= 0.0 || bin_count < 2 {
        return None;
    }

    // Assign primitives to bins.
    let bin_of = |c: f32| -> usize {
        let rel = ((c - lo) / extent * bin_count as f32) as usize;
        rel.min(bin_count - 1)
    };
    let mut bin_bounds = vec![Aabb::EMPTY; bin_count];
    let mut bin_counts = vec![0usize; bin_count];
    for p in info.iter() {
        let b = bin_of(p.centroid.axis(axis));
        bin_bounds[b] = bin_bounds[b].union(&p.bounds);
        bin_counts[b] += 1;
    }

    // Sweep to find the cheapest split between bins.
    let mut best_cost = f32::INFINITY;
    let mut best_bin = None;
    for split_bin in 1..bin_count {
        let (mut left_b, mut right_b) = (Aabb::EMPTY, Aabb::EMPTY);
        let (mut left_n, mut right_n) = (0usize, 0usize);
        for b in 0..split_bin {
            left_b = left_b.union(&bin_bounds[b]);
            left_n += bin_counts[b];
        }
        for b in split_bin..bin_count {
            right_b = right_b.union(&bin_bounds[b]);
            right_n += bin_counts[b];
        }
        if left_n == 0 || right_n == 0 {
            continue;
        }
        let cost = left_b.surface_area() * left_n as f32 + right_b.surface_area() * right_n as f32;
        if cost < best_cost {
            best_cost = cost;
            best_bin = Some(split_bin);
        }
    }

    best_bin.map(|split_bin| {
        info.iter()
            .position(|p| bin_of(p.centroid.axis(axis)) >= split_bin)
            .unwrap_or(info.len() / 2)
    })
}

/// Builds a BVH with the LBVH (Morton sort) algorithm.
pub fn build_lbvh(prims: &dyn PrimitiveSet, config: &BuildConfig) -> Bvh {
    let keyed = morton_sorted(collect_prim_info(prims));
    let mut nodes = Vec::with_capacity(keyed.len().max(1) * 2);
    let mut order = Vec::with_capacity(keyed.len());
    if !keyed.is_empty() {
        build_lbvh_range(&keyed[..], &mut nodes, &mut order, config);
    }
    Bvh::new(nodes, order, config.allow_update)
}

/// Keys the snapshotted primitives by the Morton code of their centroid and
/// sorts them (code, then primitive index for a stable total order). Shared
/// with the staged pipeline.
pub(crate) fn morton_sorted(info: Vec<PrimInfo>) -> Vec<(u64, PrimInfo)> {
    let scene_bounds = info
        .iter()
        .fold(Aabb::EMPTY, |acc, p| acc.union_point(p.centroid));
    let mut keyed: Vec<(u64, PrimInfo)> = info
        .into_iter()
        .map(|p| (morton_in_bounds(p.centroid, &scene_bounds), p))
        .collect();
    keyed.sort_unstable_by_key(|(code, p)| (*code, p.index));
    keyed
}

/// Builds the subtree over the Morton-sorted slice `sorted` with an
/// explicit work stack, appending nodes in pre-order (identical layout to
/// the historical recursive builder).
pub(crate) fn build_lbvh_range(
    sorted: &[(u64, PrimInfo)],
    nodes: &mut Vec<BvhNode>,
    order: &mut Vec<u32>,
    config: &BuildConfig,
) -> usize {
    let root = nodes.len();
    let mut stack = vec![Frame {
        lo: 0,
        hi: sorted.len(),
        fixup: None,
    }];
    while let Some(Frame { lo, hi, fixup }) = stack.pop() {
        let node_index = nodes.len();
        if let Some(parent) = fixup {
            nodes[parent].right_child = node_index as u32;
        }
        let slice = &sorted[lo..hi];
        let bounds = slice
            .iter()
            .fold(Aabb::EMPTY, |acc, (_, p)| acc.union(&p.bounds));

        if slice.len() <= config.max_leaf_size {
            let first = order.len() as u32;
            order.extend(slice.iter().map(|(_, p)| p.index));
            nodes.push(BvhNode::leaf(bounds, first, slice.len() as u32));
            continue;
        }

        let split = lbvh_split_position(slice, |(code, _)| *code);
        nodes.push(BvhNode::interior(bounds, 0));
        stack.push(Frame {
            lo: lo + split,
            hi,
            fixup: Some(node_index),
        });
        stack.push(Frame {
            lo,
            hi: lo + split,
            fixup: None,
        });
    }
    root
}

/// Chooses the split position for an LBVH node over the code-sorted
/// `sorted`, reading each element's Morton code through `code`: the point
/// where the highest differing Morton bit flips; falls back to the middle
/// when all codes are equal (duplicate keys).
pub(crate) fn lbvh_split_position<T>(sorted: &[T], code: impl Fn(&T) -> u64) -> usize {
    let first = sorted.first().map(&code).unwrap_or(0);
    let last = sorted.last().map(&code).unwrap_or(0);
    if first == last {
        return sorted.len() / 2;
    }
    // Highest bit in which first and last differ.
    let diff_bit = 63 - (first ^ last).leading_zeros() as u64;
    let mask = 1u64 << diff_bit;
    let prefix = first & !(mask | (mask - 1));
    let threshold = prefix | mask;
    // First element whose code has the bit set.
    sorted
        .partition_point(|t| code(t) < threshold)
        .clamp(1, sorted.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitives::TriangleSet;
    use rtx_math::{Triangle, Vec3f};

    fn line_of_triangles(n: usize) -> TriangleSet {
        TriangleSet::new(
            (0..n)
                .map(|i| Triangle::key_triangle(Vec3f::new(i as f32, 0.0, 0.0), 0.4))
                .collect(),
        )
    }

    fn check_build(builder: BuilderKind, n: usize) -> Bvh {
        let prims = line_of_triangles(n);
        let config = BuildConfig {
            builder,
            ..BuildConfig::default()
        };
        let bvh = build(&prims, &config);
        bvh.validate()
            .unwrap_or_else(|e| panic!("{builder:?} with {n} prims invalid: {e}"));
        assert_eq!(bvh.primitive_count(), n);
        bvh
    }

    #[test]
    fn sah_build_produces_valid_bvh() {
        for n in [0, 1, 2, 3, 5, 17, 100, 1000] {
            check_build(BuilderKind::Sah, n);
        }
    }

    #[test]
    fn lbvh_build_produces_valid_bvh() {
        for n in [0, 1, 2, 3, 5, 17, 100, 1000] {
            check_build(BuilderKind::Lbvh, n);
        }
    }

    #[test]
    fn builds_handle_duplicate_positions() {
        // 64 primitives all at the same location (maximum key multiplicity).
        let prims = TriangleSet::new(
            (0..64)
                .map(|_| Triangle::key_triangle(Vec3f::new(7.0, 0.0, 0.0), 0.4))
                .collect(),
        );
        for builder in [BuilderKind::Sah, BuilderKind::Lbvh] {
            let bvh = build(
                &prims,
                &BuildConfig {
                    builder,
                    ..Default::default()
                },
            );
            bvh.validate().expect("valid");
            assert_eq!(bvh.primitive_count(), 64);
        }
    }

    #[test]
    fn root_bounds_cover_all_primitives() {
        let prims = line_of_triangles(256);
        let bvh = build(&prims, &BuildConfig::default());
        let root = bvh.root_bounds();
        for i in 0..prims.len() {
            assert!(
                root.contains_aabb(&prims.bounds(i)),
                "primitive {i} escapes root bounds"
            );
        }
    }

    #[test]
    fn depth_is_logarithmic_for_uniform_input() {
        let prims = line_of_triangles(1024);
        for builder in [BuilderKind::Sah, BuilderKind::Lbvh] {
            let bvh = build(
                &prims,
                &BuildConfig {
                    builder,
                    ..Default::default()
                },
            );
            // 1024 prims / 4 per leaf = 256 leaves -> ideal depth 9; allow
            // slack but reject degenerate linear trees.
            assert!(
                bvh.depth() <= 20,
                "{builder:?} depth {} too large",
                bvh.depth()
            );
        }
    }

    #[test]
    fn leaf_size_limit_is_respected() {
        let prims = line_of_triangles(333);
        let config = BuildConfig {
            max_leaf_size: 2,
            ..Default::default()
        };
        let bvh = build(&prims, &config);
        for node in &bvh.nodes {
            if node.is_leaf() {
                assert!(node.prim_count <= 2);
            }
        }
    }

    #[test]
    fn updatable_config_marks_bvh() {
        let prims = line_of_triangles(16);
        let bvh = build(&prims, &BuildConfig::default().updatable());
        assert!(bvh.allows_update());
        let sah = BuildConfig {
            builder: BuilderKind::Sah,
            ..Default::default()
        };
        let bvh2 = build(&prims, &sah);
        assert!(!bvh2.allows_update());
    }

    #[test]
    fn sah_quality_not_worse_than_lbvh_on_uniform_line() {
        use crate::quality::BvhQuality;
        let prims = line_of_triangles(512);
        let sah = build(
            &prims,
            &BuildConfig {
                builder: BuilderKind::Sah,
                ..Default::default()
            },
        );
        let lbvh = build(
            &prims,
            &BuildConfig {
                builder: BuilderKind::Lbvh,
                ..Default::default()
            },
        );
        let q_sah = BvhQuality::measure(&sah);
        let q_lbvh = BvhQuality::measure(&lbvh);
        assert!(
            q_sah.sah_cost <= q_lbvh.sah_cost * 1.5,
            "SAH cost {} should not be much worse than LBVH cost {}",
            q_sah.sah_cost,
            q_lbvh.sah_cost
        );
    }
}

//! Stack-based BVH traversal with any-hit semantics.
//!
//! The traversal mirrors what the fixed-function RT hardware does for
//! `optixTrace()`: it walks the hierarchy front to back-ish (children are
//! pushed unordered, as the paper's workloads never rely on ordering),
//! performs a slab test per visited node, and calls the any-hit callback for
//! every primitive whose intersection test succeeds within the ray interval.
//!
//! The collected [`TraversalStats`] feed the GPU cost model: box tests and
//! (hardware) triangle tests are charged to the RT cores, software
//! intersection programs and any-hit program invocations are charged to the
//! programmable cores, and every visited node/primitive accounts for memory
//! traffic.

use rtx_math::Ray;

use crate::node::Bvh;
use crate::primitives::PrimitiveSet;

/// Counters collected by one ray traversal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraversalStats {
    /// BVH nodes visited (interior + leaf).
    pub nodes_visited: u64,
    /// Ray/box slab tests performed.
    pub box_tests: u64,
    /// Hardware triangle intersection tests performed.
    pub hw_prim_tests: u64,
    /// Software intersection-program invocations performed.
    pub sw_prim_tests: u64,
    /// Any-hit program invocations (accepted intersections).
    pub any_hit_invocations: u64,
    /// 1 when the traversal never descended past the root because the root
    /// volume already excluded the ray (the "early abort" of Section 4.6).
    pub aborted_at_root: u64,
}

impl TraversalStats {
    /// Merges another stats record into this one.
    pub fn merge(&mut self, other: &TraversalStats) {
        self.nodes_visited += other.nodes_visited;
        self.box_tests += other.box_tests;
        self.hw_prim_tests += other.hw_prim_tests;
        self.sw_prim_tests += other.sw_prim_tests;
        self.any_hit_invocations += other.any_hit_invocations;
        self.aborted_at_root += other.aborted_at_root;
    }

    /// Total primitive tests of either kind.
    pub fn prim_tests(&self) -> u64 {
        self.hw_prim_tests + self.sw_prim_tests
    }
}

/// Decision returned by an any-hit callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnyHitControl {
    /// Keep searching for further intersections (the normal RTIndeX case:
    /// every hit is a result row).
    Continue,
    /// Stop the traversal immediately (`optixTerminateRay`), used by
    /// existence-only lookups.
    Terminate,
}

/// Entries the traversal stack holds inline. A stack-based descent that
/// pushes both children holds at most one entry per level, and the builders
/// emit trees far shallower than this; only a hand-made or degenerate
/// hierarchy spills to the heap.
const INLINE_STACK: usize = 64;

/// The traversal stack: a fixed inline array that spills to the heap when a
/// tree is deeper than [`INLINE_STACK`], so the common case allocates
/// nothing and the degenerate case neither panics nor drops nodes.
struct TraversalStack {
    inline: [u32; INLINE_STACK],
    len: usize,
    spill: Vec<u32>,
}

impl TraversalStack {
    fn new() -> Self {
        TraversalStack {
            inline: [0; INLINE_STACK],
            len: 0,
            spill: Vec::new(),
        }
    }

    #[inline]
    fn push(&mut self, node: u32) {
        if self.len < INLINE_STACK {
            self.inline[self.len] = node;
            self.len += 1;
        } else {
            self.spill.push(node);
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<u32> {
        // The spill only holds entries while the inline part is full, so it
        // is the top of the stack whenever it is non-empty.
        if let Some(node) = self.spill.pop() {
            return Some(node);
        }
        self.len = self.len.checked_sub(1)?;
        Some(self.inline[self.len])
    }
}

/// Traverses `bvh` with `ray`, invoking `any_hit(prim_index, t)` for every
/// primitive intersection inside the ray interval.
///
/// `prims` must be in **leaf-slot order**: `prims` entry `slot` is the
/// primitive `bvh.prim_indices[slot]` of the build input
/// ([`PrimitiveSet::gather`] produces that layout), so the candidates of one
/// leaf are adjacent in memory. The callback still receives the *original*
/// primitive index (i.e. the index into the build input, which for RTIndeX
/// equals the rowID).
///
/// Returns the traversal statistics.
pub fn traverse<P, F>(bvh: &Bvh, prims: &P, ray: &Ray, mut any_hit: F) -> TraversalStats
where
    P: PrimitiveSet + ?Sized,
    F: FnMut(u32, f32) -> AnyHitControl,
{
    let mut stats = TraversalStats::default();
    if bvh.nodes.is_empty() {
        return stats;
    }

    let inv_dir = ray.inv_direction();
    let hardware = prims.hardware_intersection();

    // Root test first so we can record early aborts (misses rejected at the
    // very top of the tree, which the paper identifies as the reason RX wins
    // under low hit rates).
    stats.nodes_visited += 1;
    stats.box_tests += 1;
    if bvh.nodes[0]
        .bounds
        .intersect_with_inv(ray, inv_dir)
        .is_none()
    {
        stats.aborted_at_root = 1;
        return stats;
    }

    let mut stack = TraversalStack::new();
    stack.push(0);

    'outer: while let Some(node_index) = stack.pop() {
        let node = &bvh.nodes[node_index as usize];
        if node.is_leaf() {
            let start = node.first_prim as usize;
            let end = start + node.prim_count as usize;
            for slot in start..end {
                let hit = prims.intersect(slot, ray);
                if hardware || hit.is_hardware() {
                    stats.hw_prim_tests += 1;
                } else {
                    stats.sw_prim_tests += 1;
                }
                if let Some(t) = hit.t() {
                    stats.any_hit_invocations += 1;
                    if any_hit(bvh.prim_indices[slot], t) == AnyHitControl::Terminate {
                        break 'outer;
                    }
                }
            }
        } else {
            // Test both children; push the ones the ray touches.
            for child in [node_index + 1, node.right_child] {
                let child_node = &bvh.nodes[child as usize];
                stats.nodes_visited += 1;
                stats.box_tests += 1;
                if child_node.bounds.intersect_with_inv(ray, inv_dir).is_some() {
                    stack.push(child);
                }
            }
        }
    }
    stats
}

/// Convenience wrapper that collects every hit primitive index. `prims` is in
/// leaf-slot order, as for [`traverse`].
pub fn collect_hits<P: PrimitiveSet + ?Sized>(
    bvh: &Bvh,
    prims: &P,
    ray: &Ray,
) -> (Vec<u32>, TraversalStats) {
    let mut hits = Vec::new();
    let stats = traverse(bvh, prims, ray, |prim, _t| {
        hits.push(prim);
        AnyHitControl::Continue
    });
    (hits, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build, BuildConfig, BuilderKind};
    use crate::node::BvhNode;
    use crate::primitives::{AabbSet, SphereSet, TriangleSet};
    use rtx_math::{Aabb, Sphere, Triangle, Vec3f};

    fn line_of_triangles(n: usize) -> TriangleSet {
        TriangleSet::new(
            (0..n)
                .map(|i| Triangle::key_triangle(Vec3f::new(i as f32, 0.0, 0.0), 0.4))
                .collect(),
        )
    }

    /// The hits of `ray` on `bvh`, built over `prims` (build-input order).
    fn hits_of<P: PrimitiveSet>(bvh: &Bvh, prims: &P, ray: &Ray) -> (Vec<u32>, TraversalStats) {
        collect_hits(bvh, &prims.gather(&bvh.prim_indices), ray)
    }

    fn range_ray(lower: f32, upper: f32) -> Ray {
        // Parallel-from-offset ray covering [lower, upper].
        Ray::new(
            Vec3f::new(lower - 0.5, 0.0, 0.0),
            Vec3f::new(1.0, 0.0, 0.0),
            0.0,
            upper - lower + 1.0,
        )
    }

    fn point_ray(key: f32) -> Ray {
        Ray::new(
            Vec3f::new(key, 0.0, -0.5),
            Vec3f::new(0.0, 0.0, 1.0),
            0.0,
            1.0,
        )
    }

    #[test]
    fn range_ray_hits_exactly_the_keys_in_range() {
        for builder in [BuilderKind::Sah, BuilderKind::Lbvh] {
            let prims = line_of_triangles(64);
            let bvh = build(
                &prims,
                &BuildConfig {
                    builder,
                    ..Default::default()
                },
            );
            let (mut hits, stats) = hits_of(&bvh, &prims, &range_ray(10.0, 20.0));
            hits.sort_unstable();
            assert_eq!(hits, (10..=20).collect::<Vec<u32>>(), "builder {builder:?}");
            assert_eq!(stats.any_hit_invocations, 11);
            assert!(stats.nodes_visited > 0);
            assert!(stats.hw_prim_tests >= 11);
        }
    }

    #[test]
    fn point_ray_hits_exactly_one_key() {
        let prims = line_of_triangles(64);
        let bvh = build(&prims, &BuildConfig::default());
        for key in [0usize, 1, 31, 62, 63] {
            let (hits, _) = hits_of(&bvh, &prims, &point_ray(key as f32));
            assert_eq!(hits, vec![key as u32], "key {key}");
        }
    }

    #[test]
    fn slot_ordered_primitives_report_build_input_indices() {
        // Primitive i holds key (i * 37) % 64, so the leaf-slot order is far
        // from the buffer order; the callback must still see the buffer
        // position (the rowID) of the key the ray asked for.
        let prims = TriangleSet::new(
            (0..64)
                .map(|i| Triangle::key_triangle(Vec3f::new(((i * 37) % 64) as f32, 0.0, 0.0), 0.4))
                .collect(),
        );
        let bvh = build(&prims, &BuildConfig::default());
        assert_ne!(bvh.prim_indices, (0..64).collect::<Vec<u32>>());
        let slot_prims = prims.gather(&bvh.prim_indices);
        for row in 0..64u32 {
            let key = ((row * 37) % 64) as f32;
            let (hits, _) = collect_hits(&bvh, &slot_prims, &point_ray(key));
            assert_eq!(hits, vec![row], "key {key}");
        }
    }

    #[test]
    fn miss_outside_domain_aborts_at_root() {
        let prims = line_of_triangles(64);
        let bvh = build(&prims, &BuildConfig::default());
        let (hits, stats) = hits_of(&bvh, &prims, &point_ray(1000.0));
        assert!(hits.is_empty());
        assert_eq!(stats.aborted_at_root, 1);
        assert_eq!(stats.nodes_visited, 1, "only the root may be visited");
    }

    #[test]
    fn miss_inside_domain_visits_fewer_nodes_than_hit() {
        // A miss between two existing keys still terminates quickly compared
        // to scanning, but does not abort at the root.
        let prims = TriangleSet::new(
            (0..64)
                .map(|i| Triangle::key_triangle(Vec3f::new((i * 2) as f32, 0.0, 0.0), 0.4))
                .collect(),
        );
        let bvh = build(&prims, &BuildConfig::default());
        let (hits, stats) = hits_of(&bvh, &prims, &point_ray(31.0));
        assert!(hits.is_empty());
        assert_eq!(stats.aborted_at_root, 0);
        assert!(stats.nodes_visited < bvh.node_count() as u64);
    }

    #[test]
    fn terminate_stops_after_first_hit() {
        let prims = line_of_triangles(64);
        let bvh = build(&prims, &BuildConfig::default());
        let mut count = 0;
        let stats = traverse(
            &bvh,
            &prims.gather(&bvh.prim_indices),
            &range_ray(0.0, 63.0),
            |_prim, _t| {
                count += 1;
                AnyHitControl::Terminate
            },
        );
        assert_eq!(count, 1);
        assert_eq!(stats.any_hit_invocations, 1);
    }

    #[test]
    fn tree_deeper_than_the_inline_stack_spills_instead_of_dropping_nodes() {
        // A hand-made right-deep chain: interior 2k has leaf 2k+1 (primitive
        // k) on the left and the next interior on the right. The descent
        // pops the right child first, so every left leaf waits on the stack
        // until the chain ends — three times the inline capacity here.
        let n = 3 * INLINE_STACK;
        let prims = line_of_triangles(n);
        let mut nodes = Vec::new();
        for k in 0..n - 1 {
            let below = (k..n).fold(Aabb::EMPTY, |acc, p| acc.union(&prims.bounds(p)));
            nodes.push(BvhNode::interior(below, 2 * k as u32 + 2));
            nodes.push(BvhNode::leaf(prims.bounds(k), k as u32, 1));
        }
        nodes.push(BvhNode::leaf(prims.bounds(n - 1), n as u32 - 1, 1));
        let bvh = Bvh::new(nodes, (0..n as u32).collect(), false);
        bvh.validate().expect("a valid, if degenerate, hierarchy");
        assert!(bvh.depth() > INLINE_STACK);

        let (mut hits, stats) = collect_hits(&bvh, &prims, &range_ray(0.0, n as f32 - 1.0));
        hits.sort_unstable();
        assert_eq!(hits, (0..n as u32).collect::<Vec<_>>());
        assert_eq!(stats.nodes_visited, bvh.node_count() as u64);
    }

    #[test]
    fn duplicate_keys_are_all_reported() {
        let mut tris: Vec<Triangle> = Vec::new();
        for i in 0..16 {
            for _ in 0..4 {
                tris.push(Triangle::key_triangle(Vec3f::new(i as f32, 0.0, 0.0), 0.4));
            }
        }
        let prims = TriangleSet::new(tris);
        let bvh = build(&prims, &BuildConfig::default());
        let (hits, _) = hits_of(&bvh, &prims, &point_ray(5.0));
        assert_eq!(hits.len(), 4, "all four duplicates of key 5 must be found");
        for h in hits {
            assert_eq!(h / 4, 5);
        }
    }

    #[test]
    fn sphere_and_aabb_sets_report_software_tests() {
        let n = 32usize;
        let centers: Vec<Vec3f> = (0..n).map(|i| Vec3f::new(i as f32, 0.0, 0.0)).collect();
        let spheres = SphereSet::new(centers.clone(), Sphere::KEY_RADIUS);
        let boxes = AabbSet::new(
            centers
                .iter()
                .map(|c| Aabb::new(*c - Vec3f::splat(0.4), *c + Vec3f::splat(0.4)))
                .collect(),
        );
        let config = BuildConfig::default();
        let bvh_s = build(&spheres, &config);
        let bvh_b = build(&boxes, &config);

        let (hits_s, stats_s) = hits_of(&bvh_s, &spheres, &point_ray(3.0));
        assert_eq!(hits_s, vec![3]);
        assert!(stats_s.sw_prim_tests > 0);
        assert_eq!(stats_s.hw_prim_tests, 0);

        let (hits_b, stats_b) = hits_of(&bvh_b, &boxes, &point_ray(3.0));
        assert_eq!(hits_b, vec![3]);
        assert!(stats_b.sw_prim_tests > 0);
    }

    #[test]
    fn empty_bvh_traversal_is_a_noop() {
        let prims = TriangleSet::default();
        let bvh = build(&prims, &BuildConfig::default());
        let (hits, stats) = hits_of(&bvh, &prims, &point_ray(0.0));
        assert!(hits.is_empty());
        assert_eq!(stats.nodes_visited, 0);
    }

    #[test]
    fn stats_merge_adds_counters() {
        let mut a = TraversalStats {
            nodes_visited: 3,
            box_tests: 3,
            ..Default::default()
        };
        let b = TraversalStats {
            nodes_visited: 2,
            hw_prim_tests: 5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.nodes_visited, 5);
        assert_eq!(a.hw_prim_tests, 5);
        assert_eq!(a.prim_tests(), 5);
    }

    #[test]
    fn wide_range_visits_more_nodes_than_point() {
        let prims = line_of_triangles(1024);
        let bvh = build(&prims, &BuildConfig::default());
        let (_, point_stats) = hits_of(&bvh, &prims, &point_ray(512.0));
        let (_, range_stats) = hits_of(&bvh, &prims, &range_ray(0.0, 1023.0));
        assert!(range_stats.nodes_visited > point_stats.nodes_visited * 4);
        assert!(range_stats.any_hit_invocations == 1024);
    }
}

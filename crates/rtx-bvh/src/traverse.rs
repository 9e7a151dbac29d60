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

use rtx_math::{Ray, Vec3f};

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
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
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

/// Bytes of one host cache line, the unit [`prefetch`] works in.
const CACHE_LINE: usize = 64;

/// Asks the CPU to start loading every cache line `items` occupies, so a
/// later read finds it in the cache instead of waiting on memory. A hint
/// only: nothing is read into the program, nothing can fault, and off
/// x86_64 it compiles to nothing.
#[inline]
pub fn prefetch<T>(items: &[T]) {
    let bytes = std::mem::size_of_val(items);
    if bytes == 0 {
        return;
    }
    let base = items.as_ptr().cast::<i8>();
    let skew = base as usize % CACHE_LINE;
    let mut offset = 0;
    while offset < skew + bytes {
        let line = base.wrapping_add(offset).wrapping_sub(skew);
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `_mm_prefetch` is a cache hint, not a load: it never
        // faults, whatever the address, and neither reads into the program
        // nor writes. `line` lies in a cache line that `items` occupies.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch::<_MM_HINT_T0>(line);
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = line;
        offset += CACHE_LINE;
    }
}

/// One ray's walk through a hierarchy: what [`traverse`] keeps for its
/// ray and [`traverse_interleaved`] for each ray in flight. Both drive it
/// through the same two steps, so a ray's visits, statistics and any-hit
/// sequence do not depend on which of them walks it.
struct Walk {
    ray: Ray,
    inv_dir: Vec3f,
    stats: TraversalStats,
    stack: TraversalStack,
}

impl Walk {
    fn new() -> Self {
        Walk {
            ray: Ray::new(Vec3f::ZERO, Vec3f::ZERO, 0.0, 0.0),
            inv_dir: Vec3f::ZERO,
            stats: TraversalStats::default(),
            stack: TraversalStack::new(),
        }
    }

    /// Starts `ray` with the root test, the first counted visit. False when
    /// the ray ends there: the hierarchy is empty, or the root volume
    /// already excludes the ray (the "early abort" of Section 4.6, the
    /// reason RX wins under low hit rates).
    #[inline(always)]
    fn start(&mut self, bvh: &Bvh, ray: &Ray) -> bool {
        self.ray = *ray;
        self.inv_dir = ray.inv_direction();
        self.stats = TraversalStats::default();
        self.stack.clear();
        let Some(root) = bvh.nodes.first() else {
            return false;
        };
        self.stats.nodes_visited += 1;
        self.stats.box_tests += 1;
        if root
            .bounds
            .intersect_with_inv(&self.ray, self.inv_dir)
            .is_none()
        {
            self.stats.aborted_at_root = 1;
            return false;
        }
        self.stack.push(0);
        true
    }

    /// Visits the node on top of the stack: a leaf's candidates are tested
    /// and the hits handed to `any_hit`, an interior node's children are
    /// tested and the ones the ray touches pushed (and announced to
    /// `pushed`). False once the ray is done: nothing is left to visit, or
    /// `any_hit` terminated it.
    #[inline(always)]
    fn step<P, F>(&mut self, bvh: &Bvh, prims: &P, any_hit: &mut F, pushed: impl Fn(u32)) -> bool
    where
        P: PrimitiveSet + ?Sized,
        F: FnMut(u32, f32) -> AnyHitControl,
    {
        let Some(node_index) = self.stack.pop() else {
            return false;
        };
        let node = &bvh.nodes[node_index as usize];
        if node.is_leaf() {
            let hardware = prims.hardware_intersection();
            let start = node.first_prim as usize;
            let end = start + node.prim_count as usize;
            for slot in start..end {
                let hit = prims.intersect(slot, &self.ray);
                if hardware || hit.is_hardware() {
                    self.stats.hw_prim_tests += 1;
                } else {
                    self.stats.sw_prim_tests += 1;
                }
                if let Some(t) = hit.t() {
                    self.stats.any_hit_invocations += 1;
                    if any_hit(bvh.prim_indices[slot], t) == AnyHitControl::Terminate {
                        return false;
                    }
                }
            }
        } else {
            // Test both children; push the ones the ray touches.
            for child in [node_index + 1, node.right_child] {
                let child_node = &bvh.nodes[child as usize];
                self.stats.nodes_visited += 1;
                self.stats.box_tests += 1;
                if child_node
                    .bounds
                    .intersect_with_inv(&self.ray, self.inv_dir)
                    .is_some()
                {
                    self.stack.push(child);
                    pushed(child);
                }
            }
        }
        !self.stack.is_empty()
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
    let mut walk = Walk::new();
    if walk.start(bvh, ray) {
        while walk.step(bvh, prims, &mut any_hit, |_| {}) {}
    }
    walk.stats
}

/// Rays [`traverse_interleaved`] keeps in flight. With 16, a line
/// prefetched for one ray has the steps of 15 others to arrive in.
pub const LANES: usize = 16;

/// One ray in flight in [`traverse_interleaved`].
struct Lane {
    /// Position of the ray in the input sequence.
    id: usize,
    walk: Walk,
}

/// Starts loading what visiting `node_index` will read: for an interior
/// node the two children it tests, for a leaf its primitives and their
/// entries of `prim_indices`.
#[inline(always)]
fn prefetch_visit<P: PrimitiveSet + ?Sized>(bvh: &Bvh, prims: &P, node_index: u32) {
    let node = &bvh.nodes[node_index as usize];
    if node.is_leaf() {
        let slots = node.first_prim as usize..(node.first_prim + node.prim_count) as usize;
        prims.prefetch(slots.clone());
        prefetch(&bvh.prim_indices[slots]);
    } else {
        let left = node_index as usize + 1;
        prefetch(&bvh.nodes[left..=left]);
        let right = node.right_child as usize;
        prefetch(&bvh.nodes[right..=right]);
    }
}

/// Traverses `bvh` with every ray of `rays`, [`LANES`] at a time: the rays
/// in flight take turns, one node each, and every node a ray pushes has
/// what its visit will read prefetched (see [`prefetch`]). While one ray
/// waits on memory the others work, which hides the latency of a
/// hierarchy far larger than the host's caches; on one that fits them the
/// bookkeeping costs more than it saves.
///
/// Ray `i` (its position in `rays`) gets exactly the visits, statistics
/// and any-hit sequence [`traverse`] would give it: `any_hit(i, prim, t)`
/// is called for its hits in the same order, [`AnyHitControl::Terminate`]
/// ends ray `i` alone, and its statistics are written to `stats[i]`. Only
/// the order *between* rays differs. `prims` is in leaf-slot order, as for
/// [`traverse`].
///
/// # Panics
///
/// If `rays` yields more than `stats.len()` rays.
pub fn traverse_interleaved<'r, P, F>(
    bvh: &Bvh,
    prims: &P,
    rays: impl IntoIterator<Item = &'r Ray>,
    stats: &mut [TraversalStats],
    mut any_hit: F,
) where
    P: PrimitiveSet + ?Sized,
    F: FnMut(usize, u32, f32) -> AnyHitControl,
{
    let mut rays = rays.into_iter().enumerate();
    // Moves the next ray that gets past the root into `lane`; the ones
    // that do not are finished on the spot. False once `rays` runs dry.
    let mut start = |lane: &mut Lane, stats: &mut [TraversalStats]| {
        for (id, ray) in rays.by_ref() {
            if lane.walk.start(bvh, ray) {
                lane.id = id;
                prefetch_visit(bvh, prims, 0);
                return true;
            }
            stats[id] = lane.walk.stats;
        }
        false
    };

    let mut lanes: [Lane; LANES] = std::array::from_fn(|_| Lane {
        id: 0,
        walk: Walk::new(),
    });
    let mut active = 0;
    while active < LANES && start(&mut lanes[active], stats) {
        active += 1;
    }

    // Round robin over the lanes `0..active`. A finished lane takes the
    // next ray; once there is none, the last active lane moves into its
    // place.
    let mut turn = 0;
    while active > 0 {
        let lane = &mut lanes[turn];
        let id = lane.id;
        let going = lane
            .walk
            .step(bvh, prims, &mut |prim, t| any_hit(id, prim, t), |child| {
                prefetch_visit(bvh, prims, child)
            });
        if going {
            turn += 1;
        } else {
            stats[id] = lane.walk.stats;
            if start(lane, stats) {
                turn += 1;
            } else {
                active -= 1;
                lanes.swap(turn, active);
            }
        }
        if turn >= active {
            turn = 0;
        }
    }
}

/// Collects every hit primitive index (a test helper). `prims` is in
/// leaf-slot order, as for [`traverse`].
#[cfg(test)]
pub(crate) fn collect_hits<P: PrimitiveSet + ?Sized>(
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
    use proptest::prelude::*;
    use rtx_math::{Aabb, Sphere, Triangle};

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

    /// A hand-made right-deep chain over `prims` (leaf-slot order equals
    /// buffer order): interior 2k has leaf 2k+1 (primitive k) on the left
    /// and the next interior on the right. The descent pops the right child
    /// first, so every left leaf waits on the stack until the chain ends.
    fn deep_chain<P: PrimitiveSet>(prims: &P) -> Bvh {
        let n = prims.len();
        let mut nodes = Vec::new();
        for k in 0..n - 1 {
            let below = (k..n).fold(Aabb::EMPTY, |acc, p| acc.union(&prims.bounds(p)));
            nodes.push(BvhNode::interior(below, 2 * k as u32 + 2));
            nodes.push(BvhNode::leaf(prims.bounds(k), k as u32, 1));
        }
        nodes.push(BvhNode::leaf(prims.bounds(n - 1), n as u32 - 1, 1));
        let bvh = Bvh::new(nodes, (0..n as u32).collect(), false);
        bvh.validate().expect("a valid, if degenerate, hierarchy");
        bvh
    }

    #[test]
    fn tree_deeper_than_the_inline_stack_spills_instead_of_dropping_nodes() {
        // Three times the inline capacity.
        let n = 3 * INLINE_STACK;
        let prims = line_of_triangles(n);
        let bvh = deep_chain(&prims);
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

    #[test]
    fn prefetch_accepts_any_slice() {
        let values: Vec<u64> = (0..100).collect();
        for range in [0..0, 0..1, 7..8, 3..41, 0..100] {
            prefetch(&values[range]);
        }
        prefetch::<u8>(&[]);
        prefetch(&[(); 4]);
    }

    /// Traverses every ray with [`traverse_interleaved`] and, one by one,
    /// with [`traverse`]; ray `i` terminates on its `stop_at[i]`-th hit (0:
    /// never). Both must report the same statistics and the same any-hit
    /// `(prim, t)` sequence, ray by ray.
    fn assert_interleaved_matches<P: PrimitiveSet + ?Sized>(
        bvh: &Bvh,
        prims: &P,
        rays: &[Ray],
        stop_at: &[usize],
    ) {
        let control = |hits: usize, stop: usize| {
            if hits == stop {
                AnyHitControl::Terminate
            } else {
                AnyHitControl::Continue
            }
        };
        let mut stats = vec![TraversalStats::default(); rays.len()];
        let mut hits: Vec<Vec<(u32, u32)>> = vec![Vec::new(); rays.len()];
        traverse_interleaved(bvh, prims, rays, &mut stats, |i, prim, t| {
            hits[i].push((prim, t.to_bits()));
            control(hits[i].len(), stop_at[i])
        });
        for (i, ray) in rays.iter().enumerate() {
            let mut want_hits = Vec::new();
            let want = traverse(bvh, prims, ray, |prim, t| {
                want_hits.push((prim, t.to_bits()));
                control(want_hits.len(), stop_at[i])
            });
            assert_eq!(stats[i], want, "ray {i} of {}: statistics", rays.len());
            assert_eq!(
                hits[i],
                want_hits,
                "ray {i} of {}: any-hit sequence",
                rays.len()
            );
        }
    }

    #[test]
    fn interleaved_traversal_spills_like_the_single_ray_walk() {
        // More rays than lanes, all of them down the chain that spills.
        let prims = line_of_triangles(3 * INLINE_STACK);
        let bvh = deep_chain(&prims);
        let top = prims.len() as f32 - 1.0;
        let rays: Vec<Ray> = (0..LANES + 5)
            .map(|i| range_ray(i as f32, top - i as f32))
            .collect();
        let stop_at: Vec<usize> = (0..rays.len()).map(|i| [0, 0, 1, 100][i % 4]).collect();
        assert_interleaved_matches(&bvh, &prims, &rays, &stop_at);
    }

    /// Builds `set` (or lays it out as [`deep_chain`]), gathers it into
    /// leaf-slot order and holds the interleaved walk against [`traverse`].
    fn run_case<P: PrimitiveSet>(
        set: P,
        chain: bool,
        config: &BuildConfig,
        rays: &[Ray],
        stop_at: &[usize],
    ) {
        let bvh = if chain {
            deep_chain(&set)
        } else {
            build(&set, config)
        };
        let prims = set.gather(&bvh.prim_indices);
        assert_interleaved_matches(&bvh, &prims, rays, stop_at);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Interleaving changes only the order between rays: every ray's
        /// statistics and any-hit sequence equal those of the one-ray walk,
        /// for every primitive kind, for point, range and root-rejected
        /// rays, with and without termination on the k-th hit, for fewer,
        /// as many and more rays than lanes, on built, empty and deep
        /// hierarchies.
        #[test]
        fn prop_interleaved_traversal_matches_traverse_ray_by_ray(
            kind in 0usize..3,
            shape in 0usize..4,
            max_leaf_size in 1usize..9,
            ray_count in 0usize..3,
            seed in any::<u64>(),
        ) {
            let mut rng = seed;
            let mut next = move |bound: u64| {
                rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = rng;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) % bound
            };
            // Shapes: SAH, LBVH, empty, the deep chain.
            let n = match shape {
                2 => 0,
                3 => 3 * INLINE_STACK,
                _ => 1 + next(300) as usize,
            };
            // Duplicates (domain half the count) or gaps (four times).
            let domain = if next(2) == 0 { n as u64 / 2 + 1 } else { 4 * n as u64 + 1 };
            let xs: Vec<f32> = (0..n)
                .map(|i| if shape == 3 { i as f32 } else { next(domain) as f32 })
                .collect();
            let centers: Vec<Vec3f> = xs.iter().map(|&x| Vec3f::new(x, 0.0, 0.0)).collect();

            let count = match ray_count {
                0 => next(LANES as u64) as usize,
                1 => LANES,
                _ => LANES + 1 + next(100) as usize,
            };
            let span = domain as f32 + 2.0;
            let rays: Vec<Ray> = (0..count)
                .map(|_| match next(4) {
                    0 => point_ray(next(domain + 2) as f32),
                    1 => {
                        let lower = next(domain + 2) as f32;
                        range_ray(lower, lower + next(48) as f32)
                    }
                    // Beyond either end of the keys: rejected at the root.
                    2 => point_ray(if next(2) == 0 { -10.0 } else { span + 10.0 }),
                    _ => range_ray(0.0, span),
                })
                .collect();
            let stop_at: Vec<usize> = (0..count).map(|_| next(4) as usize).collect();

            let config = BuildConfig {
                max_leaf_size,
                builder: [BuilderKind::Sah, BuilderKind::Lbvh][shape % 2],
                ..BuildConfig::default()
            };
            match kind {
                0 => run_case(
                    TriangleSet::new(centers.iter().map(|&c| Triangle::key_triangle(c, 0.4)).collect()),
                    shape == 3,
                    &config,
                    &rays,
                    &stop_at,
                ),
                1 => run_case(
                    SphereSet::new(centers, Sphere::KEY_RADIUS),
                    shape == 3,
                    &config,
                    &rays,
                    &stop_at,
                ),
                _ => run_case(
                    AabbSet::new(
                        centers
                            .iter()
                            .map(|&c| Aabb::new(c - Vec3f::splat(0.4), c + Vec3f::splat(0.4)))
                            .collect(),
                    ),
                    shape == 3,
                    &config,
                    &rays,
                    &stop_at,
                ),
            }
        }
    }
}

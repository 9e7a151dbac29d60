//! Refitting updates (`optixAccelBuild` with `OPTIX_BUILD_OPERATION_UPDATE`).
//!
//! OptiX updates keep the tree topology fixed and merely recompute the
//! bounding volumes bottom-up from the (possibly moved) primitives. This is
//! much cheaper than a rebuild but degrades traversal performance when
//! primitives move far from their original neighbourhood, because sibling
//! volumes start to overlap — precisely the effect Table 4 of the paper
//! demonstrates by swapping adjacent *buffer positions* (keys move far) vs.
//! adjacent *keys* (keys barely move).

use rtx_math::Aabb;

use crate::node::Bvh;
use crate::primitives::PrimitiveSet;

/// Errors reported by [`refit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefitError {
    /// The BVH was built without `allow_update`.
    UpdatesNotAllowed,
    /// The primitive count changed; OptiX updates cannot add or remove
    /// primitives.
    PrimitiveCountChanged {
        /// Primitives referenced by the hierarchy.
        expected: usize,
        /// Primitives in the supplied build input.
        actual: usize,
    },
}

impl std::fmt::Display for RefitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RefitError::UpdatesNotAllowed => {
                write!(f, "BVH was built without the allow-update flag")
            }
            RefitError::PrimitiveCountChanged { expected, actual } => write!(
                f,
                "updates cannot add or remove primitives (expected {expected}, got {actual})"
            ),
        }
    }
}

impl std::error::Error for RefitError {}

/// Whether `bvh` can be refitted to a buffer of `prim_count` primitives: it
/// must have been built with the allow-update flag, and updates can neither
/// add nor remove primitives. [`refit`] checks this itself; a caller that
/// has to prepare the buffer first (the slot-order gather) asks beforehand.
pub fn check_refit(bvh: &Bvh, prim_count: usize) -> Result<(), RefitError> {
    if !bvh.allows_update() {
        return Err(RefitError::UpdatesNotAllowed);
    }
    if prim_count != bvh.primitive_count() {
        return Err(RefitError::PrimitiveCountChanged {
            expected: bvh.primitive_count(),
            actual: prim_count,
        });
    }
    Ok(())
}

/// Refits `bvh` to the current state of `prims`, which are in leaf-slot
/// order like the primitives [`traverse`](crate::traverse::traverse) reads
/// (see [`PrimitiveSet::gather`]): a leaf's bounds are the union of the
/// primitives at its slots.
///
/// The node array is processed in reverse order; because nodes are stored in
/// depth-first pre-order, every child has a larger index than its parent, so
/// a single reverse sweep recomputes all bounds bottom-up. The whole
/// primitive buffer is read regardless of how many primitives actually moved
/// — matching the paper's observation that update time is independent of the
/// number of applied updates.
///
/// Returns the number of nodes whose bounds changed.
pub fn refit<P: PrimitiveSet + ?Sized>(bvh: &mut Bvh, prims: &P) -> Result<u64, RefitError> {
    check_refit(bvh, prims.len())?;

    let mut changed = 0u64;
    for idx in (0..bvh.nodes.len()).rev() {
        let new_bounds = if bvh.nodes[idx].is_leaf() {
            let node = &bvh.nodes[idx];
            let start = node.first_prim as usize;
            let end = start + node.prim_count as usize;
            (start..end).fold(Aabb::EMPTY, |acc, slot| acc.union(&prims.bounds(slot)))
        } else {
            let left = bvh.nodes[idx + 1].bounds;
            let right = bvh.nodes[bvh.nodes[idx].right_child as usize].bounds;
            left.union(&right)
        };
        if new_bounds != bvh.nodes[idx].bounds {
            bvh.nodes[idx].bounds = new_bounds;
            changed += 1;
        }
    }
    Ok(changed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build, BuildConfig};
    use crate::primitives::TriangleSet;
    use crate::quality::BvhQuality;
    use crate::traverse::collect_hits;
    use rtx_math::{Ray, Triangle, Vec3f};

    fn line_of_triangles(n: usize) -> TriangleSet {
        TriangleSet::new(
            (0..n)
                .map(|i| Triangle::key_triangle(Vec3f::new(i as f32, 0.0, 0.0), 0.4))
                .collect(),
        )
    }

    /// `prims` (rowID order) in the leaf-slot order `bvh` reads them in.
    fn slots(bvh: &Bvh, prims: &TriangleSet) -> TriangleSet {
        prims.gather(&bvh.prim_indices)
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
    fn refit_requires_update_flag() {
        let prims = line_of_triangles(32);
        let mut bvh = build(&prims, &BuildConfig::default());
        let slot_prims = slots(&bvh, &prims);
        assert_eq!(
            refit(&mut bvh, &slot_prims),
            Err(RefitError::UpdatesNotAllowed)
        );
    }

    #[test]
    fn refit_rejects_changed_primitive_count() {
        let prims = line_of_triangles(32);
        let mut bvh = build(&prims, &BuildConfig::default().updatable());
        let smaller = line_of_triangles(31);
        assert!(matches!(
            refit(&mut bvh, &smaller),
            Err(RefitError::PrimitiveCountChanged {
                expected: 32,
                actual: 31
            })
        ));
    }

    #[test]
    fn refit_with_unchanged_prims_changes_nothing() {
        let prims = line_of_triangles(64);
        let mut bvh = build(&prims, &BuildConfig::default().updatable());
        let slot_prims = slots(&bvh, &prims);
        let changed = refit(&mut bvh, &slot_prims).expect("refit");
        assert_eq!(changed, 0);
        bvh.validate().expect("still valid");
    }

    #[test]
    fn refit_after_small_moves_keeps_lookups_correct() {
        // Swap the *keys* of rank-adjacent primitives: positions in the
        // buffer keep (almost) the same coordinates, quality stays good.
        let mut prims = line_of_triangles(64);
        let mut bvh = build(&prims, &BuildConfig::default().updatable());
        for pair in 0..32 {
            let a = 2 * pair;
            let b = a + 1;
            let ta = Triangle::key_triangle(Vec3f::new(b as f32, 0.0, 0.0), 0.4);
            let tb = Triangle::key_triangle(Vec3f::new(a as f32, 0.0, 0.0), 0.4);
            prims.triangles_mut()[a] = ta;
            prims.triangles_mut()[b] = tb;
        }
        // Rank-adjacent swaps barely move the primitives, so few (often zero)
        // node bounds change — exactly why the paper finds this update
        // pattern harmless.
        let slot_prims = slots(&bvh, &prims);
        let _changed = refit(&mut bvh, &slot_prims).expect("refit");
        bvh.validate().expect("valid after refit");
        // Looking up key 10 must now return rowID 11 (the swap partner).
        let (hits, _) = collect_hits(&bvh, &slots(&bvh, &prims), &point_ray(10.0));
        assert_eq!(hits, vec![11]);
    }

    #[test]
    fn refit_after_far_moves_degrades_quality() {
        // Swap adjacent *buffer positions* of a shuffled key set: the
        // primitives' coordinates change drastically, volumes inflate.
        let n = 256usize;
        // Build over a shuffled arrangement: primitive i represents key
        // (i * 97) % n, so buffer neighbours are far apart in space.
        let keys: Vec<usize> = (0..n).map(|i| (i * 97) % n).collect();
        let mut prims = TriangleSet::new(
            keys.iter()
                .map(|&k| Triangle::key_triangle(Vec3f::new(k as f32, 0.0, 0.0), 0.4))
                .collect(),
        );
        let mut bvh = build(&prims, &BuildConfig::default().updatable());
        let before = BvhQuality::measure(&bvh);
        let (_, stats_before) = collect_hits(&bvh, &slots(&bvh, &prims), &point_ray(100.0));

        // Swap every pair of adjacent buffer positions.
        for pair in 0..(n / 2) {
            prims.triangles_mut().swap(2 * pair, 2 * pair + 1);
        }
        let slot_prims = slots(&bvh, &prims);
        refit(&mut bvh, &slot_prims).expect("refit");
        bvh.validate().expect("valid after refit");
        let after = BvhQuality::measure(&bvh);
        let (hits, stats_after) = collect_hits(&bvh, &slots(&bvh, &prims), &point_ray(100.0));

        // Correctness is preserved…
        assert_eq!(hits.len(), 1);
        // …but the structure got worse: larger total volume area and more
        // work per lookup.
        assert!(
            after.sah_cost > before.sah_cost,
            "SAH cost should degrade: {} -> {}",
            before.sah_cost,
            after.sah_cost
        );
        assert!(
            stats_after.nodes_visited >= stats_before.nodes_visited,
            "lookup work should not shrink after destructive updates"
        );
    }

    #[test]
    fn rebuild_restores_quality_after_destructive_updates() {
        let n = 256usize;
        let keys: Vec<usize> = (0..n).map(|i| (i * 97) % n).collect();
        let mut prims = TriangleSet::new(
            keys.iter()
                .map(|&k| Triangle::key_triangle(Vec3f::new(k as f32, 0.0, 0.0), 0.4))
                .collect(),
        );
        let mut bvh = build(&prims, &BuildConfig::default().updatable());
        for pair in 0..(n / 2) {
            prims.triangles_mut().swap(2 * pair, 2 * pair + 1);
        }
        let slot_prims = slots(&bvh, &prims);
        refit(&mut bvh, &slot_prims).expect("refit");
        let refitted = BvhQuality::measure(&bvh);

        let rebuilt = build(&prims, &BuildConfig::default().updatable());
        let rebuilt_q = BvhQuality::measure(&rebuilt);
        assert!(
            rebuilt_q.sah_cost <= refitted.sah_cost,
            "rebuild must not be worse than refit: {} vs {}",
            rebuilt_q.sah_cost,
            refitted.sah_cost
        );
    }
}

//! The flattened BVH representation.
//!
//! Nodes are stored in depth-first pre-order: an interior node's left child
//! is always the next node in the array and the right child index is stored
//! explicitly. This layout makes refitting simple (iterate nodes in reverse)
//! and mirrors the pointer-free layouts GPU traversal kernels use.

use rtx_math::Aabb;

/// One node of the flattened BVH.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BvhNode {
    /// Bounding volume of everything below this node.
    pub bounds: Aabb,
    /// For interior nodes: index of the right child (the left child is
    /// `self_index + 1`). Unused for leaves.
    pub right_child: u32,
    /// For leaves: offset of the first primitive in [`Bvh::prim_indices`].
    pub first_prim: u32,
    /// Number of primitives in the leaf; `0` marks an interior node.
    pub prim_count: u32,
}

impl BvhNode {
    /// Creates an interior node.
    pub fn interior(bounds: Aabb, right_child: u32) -> Self {
        BvhNode {
            bounds,
            right_child,
            first_prim: 0,
            prim_count: 0,
        }
    }

    /// Creates a leaf node referencing `prim_count` primitives starting at
    /// `first_prim` in the primitive index array.
    pub fn leaf(bounds: Aabb, first_prim: u32, prim_count: u32) -> Self {
        debug_assert!(prim_count > 0, "leaves must contain at least one primitive");
        BvhNode {
            bounds,
            right_child: u32::MAX,
            first_prim,
            prim_count,
        }
    }

    /// True when this node is a leaf.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.prim_count > 0
    }
}

/// A bounding volume hierarchy over an external primitive set.
///
/// The BVH stores only indices into the primitive set it was built over
/// (`prim_indices` is the build-time permutation); primitive data stays in
/// the build input, as it does for OptiX triangle acceleration structures.
#[derive(Debug, Clone)]
pub struct Bvh {
    /// Flattened nodes in depth-first pre-order. Node 0 is the root.
    pub nodes: Vec<BvhNode>,
    /// Permutation mapping leaf slots to primitive indices.
    pub prim_indices: Vec<u32>,
    /// Bytes of device memory the structure occupies. Uncompacted builds
    /// carry slack; [`Bvh::compact`] trims it.
    allocated_bytes: u64,
    /// Whether [`Bvh::compact`] has been run.
    compacted: bool,
    /// Whether the build allowed later refitting updates
    /// (`OPTIX_BUILD_FLAG_ALLOW_UPDATE`).
    allow_update: bool,
}

/// Ratio of allocated to useful bytes for an uncompacted build. OptiX
/// over-allocates conservatively during the build; the paper measures ~2×
/// shrinkage for triangle BVHs under compaction (Figure 7c).
pub const UNCOMPACTED_SLACK_FACTOR: f64 = 2.0;

impl Bvh {
    /// Assembles a BVH from its parts. `allow_update` records whether refits
    /// are permitted later (set by the builder from [`BuildConfig`]).
    ///
    /// [`BuildConfig`]: crate::builder::BuildConfig
    pub fn new(nodes: Vec<BvhNode>, prim_indices: Vec<u32>, allow_update: bool) -> Self {
        let tight = Self::tight_bytes_for(nodes.len(), prim_indices.len());
        let allocated = (tight as f64 * UNCOMPACTED_SLACK_FACTOR) as u64;
        Bvh {
            nodes,
            prim_indices,
            allocated_bytes: allocated,
            compacted: false,
            allow_update,
        }
    }

    /// Bytes needed for a tightly packed BVH with the given node and
    /// primitive-reference counts.
    pub fn tight_bytes_for(node_count: usize, prim_index_count: usize) -> u64 {
        (node_count * std::mem::size_of::<BvhNode>() + prim_index_count * 4) as u64
    }

    /// Number of primitives referenced by the hierarchy.
    pub fn primitive_count(&self) -> usize {
        self.prim_indices.len()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Root bounding volume (empty box for an empty BVH).
    pub fn root_bounds(&self) -> Aabb {
        self.nodes.first().map(|n| n.bounds).unwrap_or(Aabb::EMPTY)
    }

    /// Bytes of device memory currently occupied.
    pub fn memory_bytes(&self) -> u64 {
        self.allocated_bytes
    }

    /// Whether refitting updates are allowed.
    pub fn allows_update(&self) -> bool {
        self.allow_update
    }

    /// Emulates `optixAccelCompact()`: drops the build-time slack.
    ///
    /// Like OptiX, compaction is refused (it is a no-op) when the structure
    /// was built with updates enabled — the update flag "disables the effects
    /// of compaction" per the OptiX programming guide. Returns the number of
    /// bytes reclaimed.
    pub fn compact(&mut self) -> u64 {
        if self.allow_update || self.compacted {
            return 0;
        }
        let tight = Self::tight_bytes_for(self.nodes.len(), self.prim_indices.len());
        let reclaimed = self.allocated_bytes.saturating_sub(tight);
        self.allocated_bytes = tight;
        self.compacted = true;
        reclaimed
    }

    /// Maximum depth of the hierarchy (0 for an empty BVH, 1 for a single
    /// leaf).
    pub fn depth(&self) -> usize {
        if self.nodes.is_empty() {
            return 0;
        }
        self.depth_below(0)
    }

    fn depth_below(&self, idx: usize) -> usize {
        let node = &self.nodes[idx];
        if node.is_leaf() {
            1
        } else {
            let left = self.depth_below(idx + 1);
            let right = self.depth_below(node.right_child as usize);
            1 + left.max(right)
        }
    }

    /// Validates structural invariants, returning a description of the first
    /// violation. Used by tests and debug assertions:
    ///
    /// * every primitive index appears exactly once,
    /// * each interior node's bounds contain both children's bounds,
    /// * leaf ranges lie within the primitive index array.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            if self.prim_indices.is_empty() {
                return Ok(());
            }
            return Err("no nodes but primitive indices present".to_string());
        }
        let mut seen = vec![false; self.prim_indices.len()];
        for (idx, node) in self.nodes.iter().enumerate() {
            if node.is_leaf() {
                let start = node.first_prim as usize;
                let end = start + node.prim_count as usize;
                if end > self.prim_indices.len() {
                    return Err(format!("leaf {idx} range {start}..{end} out of bounds"));
                }
                for slot in start..end {
                    let prim = self.prim_indices[slot] as usize;
                    if prim >= seen.len() {
                        return Err(format!(
                            "leaf {idx} references primitive {prim} out of range"
                        ));
                    }
                    if seen[prim] {
                        return Err(format!("primitive {prim} referenced twice"));
                    }
                    seen[prim] = true;
                }
            } else {
                let left = idx + 1;
                let right = node.right_child as usize;
                if right >= self.nodes.len() || left >= self.nodes.len() {
                    return Err(format!("interior {idx} child index out of bounds"));
                }
                if !node.bounds.contains_aabb(&self.nodes[left].bounds) {
                    return Err(format!("interior {idx} does not contain left child bounds"));
                }
                if !node.bounds.contains_aabb(&self.nodes[right].bounds) {
                    return Err(format!(
                        "interior {idx} does not contain right child bounds"
                    ));
                }
            }
        }
        if let Some(missing) = seen.iter().position(|s| !s) {
            return Err(format!("primitive {missing} not referenced by any leaf"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtx_math::Vec3f;

    fn tiny_bvh() -> Bvh {
        // Two leaves under one root.
        let leaf_a = BvhNode::leaf(
            Aabb::new(Vec3f::new(0.0, 0.0, 0.0), Vec3f::new(1.0, 1.0, 1.0)),
            0,
            1,
        );
        let leaf_b = BvhNode::leaf(
            Aabb::new(Vec3f::new(2.0, 0.0, 0.0), Vec3f::new(3.0, 1.0, 1.0)),
            1,
            1,
        );
        let root = BvhNode::interior(leaf_a.bounds.union(&leaf_b.bounds), 2);
        Bvh::new(vec![root, leaf_a, leaf_b], vec![0, 1], false)
    }

    #[test]
    fn node_kind_discrimination() {
        let leaf = BvhNode::leaf(Aabb::EMPTY, 0, 3);
        assert!(leaf.is_leaf());
        let interior = BvhNode::interior(Aabb::EMPTY, 5);
        assert!(!interior.is_leaf());
    }

    #[test]
    fn bvh_basic_accessors() {
        let bvh = tiny_bvh();
        assert_eq!(bvh.node_count(), 3);
        assert_eq!(bvh.primitive_count(), 2);
        assert_eq!(bvh.depth(), 2);
        assert!(!bvh.compacted);
        assert!(!bvh.allows_update());
        assert!(bvh.root_bounds().contains_point(Vec3f::new(2.5, 0.5, 0.5)));
        assert!(bvh.validate().is_ok());
    }

    #[test]
    fn compaction_reclaims_slack_once() {
        let mut bvh = tiny_bvh();
        let before = bvh.memory_bytes();
        let reclaimed = bvh.compact();
        assert!(reclaimed > 0);
        assert_eq!(bvh.memory_bytes(), before - reclaimed);
        assert!(bvh.compacted);
        assert_eq!(bvh.compact(), 0, "second compaction is a no-op");
    }

    #[test]
    fn compaction_disabled_for_updatable_builds() {
        let mut bvh = tiny_bvh();
        bvh.allow_update = true;
        assert_eq!(bvh.compact(), 0);
        assert!(!bvh.compacted);
    }

    #[test]
    fn empty_bvh_is_valid() {
        let bvh = Bvh::new(vec![], vec![], false);
        assert_eq!(bvh.depth(), 0);
        assert!(bvh.validate().is_ok());
        assert!(bvh.root_bounds().is_empty());
    }

    #[test]
    fn validate_catches_duplicate_primitives() {
        let leaf = BvhNode::leaf(Aabb::EMPTY, 0, 2);
        let bvh = Bvh::new(vec![leaf], vec![0, 0], false);
        assert!(bvh.validate().is_err());
    }

    #[test]
    fn validate_catches_non_containing_parent() {
        let leaf_a = BvhNode::leaf(Aabb::new(Vec3f::ZERO, Vec3f::new(1.0, 1.0, 1.0)), 0, 1);
        let leaf_b = BvhNode::leaf(
            Aabb::new(Vec3f::new(5.0, 5.0, 5.0), Vec3f::new(6.0, 6.0, 6.0)),
            1,
            1,
        );
        // Root bounds deliberately too small.
        let root = BvhNode::interior(leaf_a.bounds, 2);
        let bvh = Bvh::new(vec![root, leaf_a, leaf_b], vec![0, 1], false);
        assert!(bvh.validate().is_err());
    }

    #[test]
    fn tight_bytes_accounting() {
        let bytes = Bvh::tight_bytes_for(3, 2);
        assert_eq!(bytes, (3 * std::mem::size_of::<BvhNode>() + 8) as u64);
        let bvh = tiny_bvh();
        assert_eq!(
            bvh.memory_bytes(),
            (Bvh::tight_bytes_for(3, 2) as f64 * UNCOMPACTED_SLACK_FACTOR) as u64
        );
    }
}

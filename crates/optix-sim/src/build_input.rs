//! Acceleration-structure build inputs.
//!
//! OptiX accepts triangle arrays, sphere arrays and custom-primitive (AABB)
//! arrays as build inputs. RTIndeX generates one primitive per key, centred
//! at the key's scene coordinate.
//!
//! A build reads its primitives through a [`BuildSource`]: the builder asks
//! it for primitive `i`'s bounds and centroid, and once the BVH has fixed
//! the leaf order, the source writes the one primitive buffer the structure
//! keeps, in that order ([`BuildSource::gather_input`]). A materialized
//! [`BuildInput`] is one source; the index crate's key scene, which computes
//! primitive `i` from key `i` when asked, is the other, so an index build
//! never holds a rowID-ordered copy of the buffer.
//! [`BuildInput::from_centers`] builds a materialized input with the same
//! per-key constructors.

use rtx_bvh::{AabbSet, PrimitiveSet, SphereSet, TriangleSet};
use rtx_math::{Aabb, Sphere, Triangle, Vec3f};

/// Which primitive type a build input (and the index built on it) uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PrimitiveKind {
    /// Triangles — intersection tests run on the RT cores.
    #[default]
    Triangle,
    /// Spheres with a shared radius — software intersection program.
    Sphere,
    /// Axis-aligned boxes — software intersection program.
    Aabb,
}

impl PrimitiveKind {
    /// All three primitive kinds, in the order used by Figure 7.
    pub fn all() -> [PrimitiveKind; 3] {
        [
            PrimitiveKind::Triangle,
            PrimitiveKind::Sphere,
            PrimitiveKind::Aabb,
        ]
    }

    /// Short lowercase name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            PrimitiveKind::Triangle => "triangle",
            PrimitiveKind::Sphere => "sphere",
            PrimitiveKind::Aabb => "aabb",
        }
    }

    /// Bytes one primitive of this kind occupies in a build input: nine,
    /// three and six float32.
    pub fn bytes_per_primitive(&self) -> u64 {
        match self {
            PrimitiveKind::Triangle => 9 * 4,
            PrimitiveKind::Sphere => 3 * 4,
            PrimitiveKind::Aabb => 6 * 4,
        }
    }
}

/// What [`GeometryAccel::build`] and [`GeometryAccel::update`] read the
/// primitives from: the bounds and centroids the builder asks for, the
/// primitive kind, and the leaf-slot-ordered buffer the structure keeps.
///
/// [`GeometryAccel::build`]: crate::accel::GeometryAccel::build
/// [`GeometryAccel::update`]: crate::accel::GeometryAccel::update
pub trait BuildSource {
    /// The primitive kind of the source.
    fn kind(&self) -> PrimitiveKind;

    /// The primitives the builder reads bounds and centroids from, in
    /// rowID order.
    fn primitives(&self) -> &dyn PrimitiveSet;

    /// The primitives as a build input in which entry `slot` is primitive
    /// `order[slot]` (see [`PrimitiveSet::gather`]), written over the
    /// worker pool. With a BVH's `prim_indices` as the order, this is the
    /// primitive buffer in leaf-slot order.
    fn gather_input(&self, order: &[u32]) -> BuildInput;
}

/// A geometry build input (`OptixBuildInput`).
#[derive(Debug, Clone)]
pub enum BuildInput {
    /// Triangle array; nine float32 per primitive.
    Triangles(TriangleSet),
    /// Sphere array with shared radius; three float32 per primitive.
    Spheres(SphereSet),
    /// Custom primitives described by their AABBs; six float32 per primitive.
    Aabbs(AabbSet),
}

/// Half-extent used for key triangles and key boxes (see
/// [`Triangle::key_triangle`] for why it is slightly below 0.5).
pub const KEY_HALF_EXTENT: f32 = 0.4;

impl BuildInput {
    /// Number of primitives in the input.
    pub fn len(&self) -> usize {
        match self {
            BuildInput::Triangles(t) => t.len(),
            BuildInput::Spheres(s) => s.len(),
            BuildInput::Aabbs(a) => a.len(),
        }
    }

    /// True when the input holds no primitives.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The primitive kind of this input.
    pub fn kind(&self) -> PrimitiveKind {
        match self {
            BuildInput::Triangles(_) => PrimitiveKind::Triangle,
            BuildInput::Spheres(_) => PrimitiveKind::Sphere,
            BuildInput::Aabbs(_) => PrimitiveKind::Aabb,
        }
    }

    /// Bytes of device memory the raw primitive buffer occupies (the "vertex
    /// buffer" of the paper).
    pub fn primitive_buffer_bytes(&self) -> u64 {
        self.kind().bytes_per_primitive() * self.len() as u64
    }

    /// View of the input as an abstract primitive set.
    pub fn as_primitive_set(&self) -> &dyn PrimitiveSet {
        match self {
            BuildInput::Triangles(t) => t,
            BuildInput::Spheres(s) => s,
            BuildInput::Aabbs(a) => a,
        }
    }

    /// The input permuted so that entry `slot` is primitive `order[slot]`
    /// (see [`PrimitiveSet::gather`]): with a BVH's `prim_indices` as the
    /// order, the layout the acceleration structure keeps its primitive
    /// buffer in.
    pub fn gather(&self, order: &[u32]) -> BuildInput {
        match self {
            BuildInput::Triangles(t) => BuildInput::Triangles(t.gather(order)),
            BuildInput::Spheres(s) => BuildInput::Spheres(s.gather(order)),
            BuildInput::Aabbs(a) => BuildInput::Aabbs(a.gather(order)),
        }
    }

    /// Builds the input of the requested kind with one key primitive per
    /// centre, stored in the given order (the buffer position is the rowID),
    /// using the default extents (the construction the paper's experiments
    /// use).
    pub fn from_centers(kind: PrimitiveKind, centers: &[Vec3f]) -> BuildInput {
        let half = Vec3f::splat(KEY_HALF_EXTENT);
        match kind {
            PrimitiveKind::Triangle => BuildInput::Triangles(TriangleSet::new(
                centers
                    .iter()
                    .map(|c| Triangle::key_triangle(*c, KEY_HALF_EXTENT))
                    .collect(),
            )),
            PrimitiveKind::Sphere => {
                BuildInput::Spheres(SphereSet::new(centers.to_vec(), Sphere::KEY_RADIUS))
            }
            PrimitiveKind::Aabb => BuildInput::Aabbs(AabbSet::new(
                centers
                    .iter()
                    .map(|c| Aabb::new(*c - half, *c + half))
                    .collect(),
            )),
        }
    }
}

impl BuildSource for BuildInput {
    fn kind(&self) -> PrimitiveKind {
        BuildInput::kind(self)
    }

    fn primitives(&self) -> &dyn PrimitiveSet {
        self.as_primitive_set()
    }

    fn gather_input(&self, order: &[u32]) -> BuildInput {
        self.gather(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn centers(n: usize) -> Vec<Vec3f> {
        (0..n).map(|i| Vec3f::new(i as f32, 0.0, 0.0)).collect()
    }

    #[test]
    fn primitive_kind_metadata() {
        assert_eq!(PrimitiveKind::all().len(), 3);
        assert_eq!(PrimitiveKind::Triangle.name(), "triangle");
        assert_eq!(PrimitiveKind::Sphere.name(), "sphere");
        assert_eq!(PrimitiveKind::Aabb.name(), "aabb");
        assert_eq!(PrimitiveKind::default(), PrimitiveKind::Triangle);
    }

    #[test]
    fn build_input_sizes_match_paper_layout() {
        let c = centers(100);
        let tri = BuildInput::from_centers(PrimitiveKind::Triangle, &c);
        let sph = BuildInput::from_centers(PrimitiveKind::Sphere, &c);
        let bx = BuildInput::from_centers(PrimitiveKind::Aabb, &c);
        assert_eq!(tri.len(), 100);
        assert!(!tri.is_empty());
        // 9 float32 vs 3 float32 vs 6 float32 per key.
        assert_eq!(tri.primitive_buffer_bytes(), 100 * 36);
        assert_eq!(sph.primitive_buffer_bytes(), 100 * 12);
        assert_eq!(bx.primitive_buffer_bytes(), 100 * 24);
        assert_eq!(tri.kind(), PrimitiveKind::Triangle);
        assert_eq!(sph.kind(), PrimitiveKind::Sphere);
        assert_eq!(bx.kind(), PrimitiveKind::Aabb);
        for input in [tri, sph, bx] {
            assert_eq!(
                input.kind().bytes_per_primitive(),
                input.as_primitive_set().bytes_per_primitive()
            );
        }
    }

    #[test]
    fn primitive_set_view_matches_len() {
        let c = centers(7);
        for kind in PrimitiveKind::all() {
            let input = BuildInput::from_centers(kind, &c);
            assert_eq!(input.as_primitive_set().len(), 7);
        }
    }

    #[test]
    fn empty_input() {
        let input = BuildInput::from_centers(PrimitiveKind::Triangle, &[]);
        assert!(input.is_empty());
        assert_eq!(input.primitive_buffer_bytes(), 0);
    }
}

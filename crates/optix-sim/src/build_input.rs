//! Acceleration-structure build inputs.
//!
//! OptiX accepts triangle arrays, sphere arrays and custom-primitive (AABB)
//! arrays as build inputs. RTIndeX generates one primitive per key, centred
//! at the key's scene coordinate; helpers for that construction live here so
//! that the index crate and the tests share one implementation.

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
        let per = match self {
            BuildInput::Triangles(t) => t.bytes_per_primitive(),
            BuildInput::Spheres(s) => s.bytes_per_primitive(),
            BuildInput::Aabbs(a) => a.bytes_per_primitive(),
        };
        per * self.len() as u64
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

    /// Builds a triangle input with one key triangle per centre, stored in
    /// the given order (the buffer position is the rowID).
    pub fn triangles_from_centers(centers: &[Vec3f], half: f32) -> BuildInput {
        BuildInput::Triangles(TriangleSet::new(
            centers
                .iter()
                .map(|c| Triangle::key_triangle(*c, half))
                .collect(),
        ))
    }

    /// Builds a triangle input with per-axis half extents (needed by the
    /// Extended key mode, whose x gaps are ULP-sized).
    pub fn triangles_from_centers_anisotropic(centers: &[Vec3f], half: &[Vec3f]) -> BuildInput {
        assert_eq!(
            centers.len(),
            half.len(),
            "one half-extent per centre required"
        );
        BuildInput::Triangles(TriangleSet::new(
            centers
                .iter()
                .zip(half.iter())
                .map(|(c, h)| Triangle::key_triangle_anisotropic(*c, *h))
                .collect(),
        ))
    }

    /// Builds a sphere input with one key sphere per centre.
    pub fn spheres_from_centers(centers: &[Vec3f]) -> BuildInput {
        BuildInput::Spheres(SphereSet::new(centers.to_vec(), Sphere::KEY_RADIUS))
    }

    /// Builds an AABB input with one key box per centre.
    pub fn aabbs_from_centers(centers: &[Vec3f], half: f32) -> BuildInput {
        BuildInput::Aabbs(AabbSet::new(
            centers
                .iter()
                .map(|c| Aabb::new(*c - Vec3f::splat(half), *c + Vec3f::splat(half)))
                .collect(),
        ))
    }

    /// Builds the input of the requested kind from key centres using the
    /// default extents (the construction the paper's experiments use).
    pub fn from_centers(kind: PrimitiveKind, centers: &[Vec3f]) -> BuildInput {
        match kind {
            PrimitiveKind::Triangle => Self::triangles_from_centers(centers, KEY_HALF_EXTENT),
            PrimitiveKind::Sphere => Self::spheres_from_centers(centers),
            PrimitiveKind::Aabb => Self::aabbs_from_centers(centers, KEY_HALF_EXTENT),
        }
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
    fn anisotropic_triangles_respect_extents() {
        let c = centers(3);
        let halves = vec![Vec3f::new(0.1, 0.4, 0.4); 3];
        let input = BuildInput::triangles_from_centers_anisotropic(&c, &halves);
        let set = input.as_primitive_set();
        for i in 0..3 {
            let b = set.bounds(i);
            assert!(b.extent().x <= 0.2 + 1e-6);
            assert!(b.extent().y <= 0.8 + 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "one half-extent per centre")]
    fn anisotropic_triangles_require_matching_lengths() {
        let _ = BuildInput::triangles_from_centers_anisotropic(&centers(3), &[Vec3f::splat(0.1)]);
    }

    #[test]
    fn empty_input() {
        let input = BuildInput::from_centers(PrimitiveKind::Triangle, &[]);
        assert!(input.is_empty());
        assert_eq!(input.primitive_buffer_bytes(), 0);
    }
}

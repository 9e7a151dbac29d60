//! Primitive sets: the geometry a BVH is built over.
//!
//! OptiX builds acceleration structures over three kinds of build input that
//! matter for RTIndeX: triangle arrays, sphere arrays (shared radius) and
//! user AABB arrays. A [`PrimitiveSet`] exposes the per-primitive bounds the
//! builders need and the intersection test the traversal calls for leaf
//! candidates.

use std::ops::Range;

use rtx_math::{Aabb, Ray, Sphere, Triangle, Vec3f};

use crate::traverse::prefetch;

/// The result of testing a ray against one primitive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PrimitiveHit {
    /// The ray misses the primitive.
    Miss,
    /// The ray hits the primitive at parameter `t` via the fixed-function
    /// (hardware) triangle unit.
    HardwareHit(f32),
    /// The ray hits the primitive at parameter `t` via a software
    /// intersection program (spheres, AABBs).
    SoftwareHit(f32),
}

impl PrimitiveHit {
    /// Returns the hit parameter if this is a hit.
    pub fn t(&self) -> Option<f32> {
        match self {
            PrimitiveHit::Miss => None,
            PrimitiveHit::HardwareHit(t) | PrimitiveHit::SoftwareHit(t) => Some(*t),
        }
    }

    /// True when this hit was produced by the hardware triangle unit.
    pub fn is_hardware(&self) -> bool {
        matches!(self, PrimitiveHit::HardwareHit(_))
    }
}

/// A collection of primitives a BVH can be built over.
pub trait PrimitiveSet: Sync {
    /// Number of primitives in the set.
    fn len(&self) -> usize;

    /// True when the set contains no primitives.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tight bounding box of primitive `i`.
    fn bounds(&self, i: usize) -> Aabb;

    /// Centroid of primitive `i` (used by the builders for partitioning).
    fn centroid(&self, i: usize) -> Vec3f {
        self.bounds(i).centroid()
    }

    /// Tests `ray` against primitive `i`.
    fn intersect(&self, i: usize, ray: &Ray) -> PrimitiveHit;

    /// Starts loading primitives `slots` into the host's caches ahead of
    /// their intersection tests (see [`prefetch`]). A hint only; the
    /// default does nothing.
    fn prefetch(&self, slots: Range<usize>) {
        let _ = slots;
    }

    /// Bytes of device memory one primitive occupies in the build input.
    fn bytes_per_primitive(&self) -> u64;

    /// Whether intersection runs on the fixed-function triangle unit
    /// (`true`) or in a software intersection program (`false`).
    fn hardware_intersection(&self) -> bool;

    /// The set permuted so that entry `slot` is primitive `order[slot]` of
    /// `self`. With `order = bvh.prim_indices` this is the **leaf-slot
    /// order** [`traverse`](crate::traverse::traverse) and
    /// [`refit`](crate::refit::refit) index primitives in: the candidates
    /// of one leaf become adjacent in memory.
    fn gather(&self, order: &[u32]) -> Self
    where
        Self: Sized;
}

/// `out[slot] = src[order[slot]]`, split over the worker pool (the reads are
/// random, so on a large buffer the gather is latency-bound per worker).
fn gather_slice<T: Copy + Send + Sync>(src: &[T], order: &[u32]) -> Vec<T> {
    /// Entries per task below which fanning out costs more than it saves.
    const MIN_CHUNK: usize = 1 << 14;
    let Some(&first) = order.first() else {
        return Vec::new();
    };
    let mut out = vec![src[first as usize]; order.len()];
    let chunk = order
        .len()
        .div_ceil(gpu_device::worker_count())
        .max(MIN_CHUNK);
    let jobs: Vec<(&mut [T], &[u32])> = out.chunks_mut(chunk).zip(order.chunks(chunk)).collect();
    gpu_device::parallel_map(jobs, |_, (dst, picks)| {
        for (d, &p) in dst.iter_mut().zip(picks) {
            *d = src[p as usize];
        }
    });
    out
}

/// A triangle array build input (nine float32 per primitive).
#[derive(Debug, Clone, Default)]
pub struct TriangleSet {
    triangles: Vec<Triangle>,
}

impl TriangleSet {
    /// Creates a set from a vector of triangles.
    pub fn new(triangles: Vec<Triangle>) -> Self {
        TriangleSet { triangles }
    }

    /// Read-only access to the triangles.
    pub fn triangles(&self) -> &[Triangle] {
        &self.triangles
    }

    /// Mutable access (the refit tests move primitives with it).
    #[cfg(test)]
    pub(crate) fn triangles_mut(&mut self) -> &mut [Triangle] {
        &mut self.triangles
    }
}

impl PrimitiveSet for TriangleSet {
    fn len(&self) -> usize {
        self.triangles.len()
    }

    fn bounds(&self, i: usize) -> Aabb {
        self.triangles[i].bounds()
    }

    fn centroid(&self, i: usize) -> Vec3f {
        self.triangles[i].centroid()
    }

    fn intersect(&self, i: usize, ray: &Ray) -> PrimitiveHit {
        match self.triangles[i].intersect(ray) {
            Some(hit) => PrimitiveHit::HardwareHit(hit.t),
            None => PrimitiveHit::Miss,
        }
    }

    fn prefetch(&self, slots: Range<usize>) {
        prefetch(&self.triangles[slots]);
    }

    fn bytes_per_primitive(&self) -> u64 {
        9 * 4
    }

    fn hardware_intersection(&self) -> bool {
        true
    }

    fn gather(&self, order: &[u32]) -> Self {
        TriangleSet::new(gather_slice(&self.triangles, order))
    }
}

/// A sphere array build input: three float32 per primitive plus one shared
/// radius for the whole set, exactly the space-saving layout the paper uses.
#[derive(Debug, Clone, Default)]
pub struct SphereSet {
    centers: Vec<Vec3f>,
    radius: f32,
}

impl SphereSet {
    /// Creates a set of spheres with a shared radius.
    pub fn new(centers: Vec<Vec3f>, radius: f32) -> Self {
        SphereSet { centers, radius }
    }

    /// The shared radius.
    pub fn radius(&self) -> f32 {
        self.radius
    }

    /// Read-only access to the centers.
    pub fn centers(&self) -> &[Vec3f] {
        &self.centers
    }

    /// The sphere at index `i`.
    pub fn sphere(&self, i: usize) -> Sphere {
        Sphere::new(self.centers[i], self.radius)
    }
}

impl PrimitiveSet for SphereSet {
    fn len(&self) -> usize {
        self.centers.len()
    }

    fn bounds(&self, i: usize) -> Aabb {
        self.sphere(i).bounds()
    }

    fn centroid(&self, i: usize) -> Vec3f {
        self.centers[i]
    }

    fn intersect(&self, i: usize, ray: &Ray) -> PrimitiveHit {
        match self.sphere(i).intersect(ray) {
            Some(hit) => PrimitiveHit::SoftwareHit(hit.t),
            None => PrimitiveHit::Miss,
        }
    }

    fn prefetch(&self, slots: Range<usize>) {
        prefetch(&self.centers[slots]);
    }

    fn bytes_per_primitive(&self) -> u64 {
        3 * 4
    }

    fn hardware_intersection(&self) -> bool {
        false
    }

    fn gather(&self, order: &[u32]) -> Self {
        SphereSet::new(gather_slice(&self.centers, order), self.radius)
    }
}

/// A user-AABB build input: six float32 per primitive, intersected by a
/// software intersection program.
#[derive(Debug, Clone, Default)]
pub struct AabbSet {
    boxes: Vec<Aabb>,
}

impl AabbSet {
    /// Creates a set from a vector of boxes.
    pub fn new(boxes: Vec<Aabb>) -> Self {
        AabbSet { boxes }
    }

    /// Read-only access to the boxes.
    pub fn boxes(&self) -> &[Aabb] {
        &self.boxes
    }
}

impl PrimitiveSet for AabbSet {
    fn len(&self) -> usize {
        self.boxes.len()
    }

    fn bounds(&self, i: usize) -> Aabb {
        self.boxes[i]
    }

    fn intersect(&self, i: usize, ray: &Ray) -> PrimitiveHit {
        match self.boxes[i].intersect(ray) {
            // The entry parameter counts as the hit position; a ray starting
            // inside the box hits at its tmin, which the traversal treats as
            // a hit just like OptiX reports the user-program hit.
            Some((t_enter, _)) => PrimitiveHit::SoftwareHit(t_enter),
            None => PrimitiveHit::Miss,
        }
    }

    fn prefetch(&self, slots: Range<usize>) {
        prefetch(&self.boxes[slots]);
    }

    fn bytes_per_primitive(&self) -> u64 {
        6 * 4
    }

    fn hardware_intersection(&self) -> bool {
        false
    }

    fn gather(&self, order: &[u32]) -> Self {
        AabbSet::new(gather_slice(&self.boxes, order))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key_triangles(n: usize) -> TriangleSet {
        TriangleSet::new(
            (0..n)
                .map(|i| Triangle::key_triangle(Vec3f::new(i as f32, 0.0, 0.0), 0.4))
                .collect(),
        )
    }

    #[test]
    fn triangle_set_properties() {
        let set = key_triangles(4);
        assert_eq!(set.len(), 4);
        assert!(!set.is_empty());
        assert!(set.hardware_intersection());
        assert_eq!(set.bytes_per_primitive(), 36);
        let b = set.bounds(2);
        assert!(b.contains_point(Vec3f::new(2.0, 0.0, 0.0)));
        let c = set.centroid(2);
        assert!((c.x - 2.0).abs() < 0.2);
    }

    #[test]
    fn triangle_set_intersection_is_hardware() {
        let set = key_triangles(4);
        let ray = Ray::new(
            Vec3f::new(2.0, 0.0, -0.5),
            Vec3f::new(0.0, 0.0, 1.0),
            0.0,
            1.0,
        );
        let hit = set.intersect(2, &ray);
        assert!(hit.is_hardware());
        assert!(hit.t().is_some());
        assert_eq!(set.intersect(3, &ray), PrimitiveHit::Miss);
    }

    #[test]
    fn sphere_set_properties() {
        let set = SphereSet::new(
            (0..3).map(|i| Vec3f::new(i as f32, 0.0, 0.0)).collect(),
            Sphere::KEY_RADIUS,
        );
        assert_eq!(set.len(), 3);
        assert!(!set.hardware_intersection());
        assert_eq!(set.bytes_per_primitive(), 12);
        assert_eq!(set.radius(), 0.25);
        assert_eq!(set.centroid(1), Vec3f::new(1.0, 0.0, 0.0));
        let ray = Ray::new(
            Vec3f::new(1.0, 0.0, -0.5),
            Vec3f::new(0.0, 0.0, 1.0),
            0.0,
            1.0,
        );
        let hit = set.intersect(1, &ray);
        assert!(matches!(hit, PrimitiveHit::SoftwareHit(_)));
        assert_eq!(set.intersect(0, &ray), PrimitiveHit::Miss);
    }

    #[test]
    fn aabb_set_properties() {
        let boxes: Vec<Aabb> = (0..3)
            .map(|i| {
                let c = Vec3f::new(i as f32, 0.0, 0.0);
                Aabb::new(c - Vec3f::splat(0.4), c + Vec3f::splat(0.4))
            })
            .collect();
        let set = AabbSet::new(boxes);
        assert_eq!(set.len(), 3);
        assert_eq!(set.bytes_per_primitive(), 24);
        assert!(!set.hardware_intersection());
        let ray = Ray::new(
            Vec3f::new(-1.0, 0.0, 0.0),
            Vec3f::new(1.0, 0.0, 0.0),
            0.0,
            10.0,
        );
        assert!(matches!(
            set.intersect(0, &ray),
            PrimitiveHit::SoftwareHit(_)
        ));
        assert!(matches!(
            set.intersect(2, &ray),
            PrimitiveHit::SoftwareHit(_)
        ));
        let short_ray = Ray::new(
            Vec3f::new(-1.0, 0.0, 0.0),
            Vec3f::new(1.0, 0.0, 0.0),
            0.0,
            0.5,
        );
        assert_eq!(set.intersect(0, &short_ray), PrimitiveHit::Miss);
    }

    #[test]
    fn primitive_hit_helpers() {
        assert_eq!(PrimitiveHit::Miss.t(), None);
        assert_eq!(PrimitiveHit::HardwareHit(1.0).t(), Some(1.0));
        assert!(!PrimitiveHit::SoftwareHit(1.0).is_hardware());
        assert!(PrimitiveHit::HardwareHit(1.0).is_hardware());
    }

    #[test]
    fn empty_sets() {
        assert!(TriangleSet::default().is_empty());
        assert!(SphereSet::default().is_empty());
        assert!(AabbSet::default().is_empty());
    }
}

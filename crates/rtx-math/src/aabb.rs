//! Axis-aligned bounding boxes.
//!
//! AABBs play two roles in the reproduction: they are the internal node
//! volumes of every BVH, and they are one of the three primitive types the
//! paper evaluates (Section 3.5), where each key is represented by a small
//! box and intersection is performed by a user-supplied intersection program.

use crate::ray::Ray;
use crate::vec3::Vec3f;

/// An axis-aligned bounding box described by its minimum and maximum corner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    /// Minimum corner.
    pub min: Vec3f,
    /// Maximum corner.
    pub max: Vec3f,
}

impl Aabb {
    /// The canonical empty box (`min = +inf`, `max = -inf`); the identity
    /// element of [`Aabb::union`].
    pub const EMPTY: Aabb = Aabb {
        min: Vec3f {
            x: f32::INFINITY,
            y: f32::INFINITY,
            z: f32::INFINITY,
        },
        max: Vec3f {
            x: f32::NEG_INFINITY,
            y: f32::NEG_INFINITY,
            z: f32::NEG_INFINITY,
        },
    };

    /// Creates a box from its two corners.
    #[inline]
    pub fn new(min: Vec3f, max: Vec3f) -> Self {
        Aabb { min, max }
    }

    /// Creates a box containing a single point.
    #[inline]
    pub fn from_point(p: Vec3f) -> Self {
        Aabb { min: p, max: p }
    }

    /// Creates the tightest box containing all `points`. Returns
    /// [`Aabb::EMPTY`] for an empty iterator.
    pub fn from_points<I: IntoIterator<Item = Vec3f>>(points: I) -> Self {
        points
            .into_iter()
            .fold(Aabb::EMPTY, |acc, p| acc.union_point(p))
    }

    /// Returns true when the box contains no point (any `min > max`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y || self.min.z > self.max.z
    }

    /// Smallest box containing both `self` and `other`. Where a corner
    /// coordinate ties (`-0.0` against `0.0`), `self`'s is kept, so a union
    /// is associative bit for bit: folding boxes left to right and uniting
    /// the folds of two halves, left first, give the same box.
    #[inline]
    pub fn union(&self, other: &Aabb) -> Aabb {
        Aabb {
            min: min_left(self.min, other.min),
            max: max_left(self.max, other.max),
        }
    }

    /// Smallest box containing `self` and the point `p`; ties keep `self`'s
    /// coordinate, as in [`Aabb::union`].
    #[inline]
    pub fn union_point(&self, p: Vec3f) -> Aabb {
        Aabb {
            min: min_left(self.min, p),
            max: max_left(self.max, p),
        }
    }

    /// Grows the box by `eps` in every direction.
    #[inline]
    pub fn inflate(&self, eps: f32) -> Aabb {
        Aabb {
            min: self.min - Vec3f::splat(eps),
            max: self.max + Vec3f::splat(eps),
        }
    }

    /// Box diagonal (`max - min`).
    #[inline]
    pub fn extent(&self) -> Vec3f {
        self.max - self.min
    }

    /// Centre point of the box.
    #[inline]
    pub fn centroid(&self) -> Vec3f {
        (self.min + self.max) * 0.5
    }

    /// Surface area of the box; the quantity minimised by the SAH builder.
    /// Empty boxes report zero area.
    #[inline]
    pub fn surface_area(&self) -> f32 {
        if self.is_empty() {
            return 0.0;
        }
        let e = self.extent();
        2.0 * (e.x * e.y + e.y * e.z + e.z * e.x)
    }

    /// Index of the longest axis (0 = x, 1 = y, 2 = z).
    #[inline]
    pub fn longest_axis(&self) -> usize {
        self.extent().max_dimension()
    }

    /// Returns true when the point lies inside the box (inclusive bounds).
    #[inline]
    pub fn contains_point(&self, p: Vec3f) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// Returns true when `other` lies completely inside `self`.
    #[inline]
    pub fn contains_aabb(&self, other: &Aabb) -> bool {
        other.is_empty() || (self.contains_point(other.min) && self.contains_point(other.max))
    }

    /// Slab test: returns the entry/exit parameters `(t_enter, t_exit)` of the
    /// ray against the box, clipped to the ray interval, or `None` when the
    /// ray misses the box.
    ///
    /// A ray that *starts inside* the box reports `t_enter = ray.tmin`.
    #[inline]
    pub fn intersect(&self, ray: &Ray) -> Option<(f32, f32)> {
        self.intersect_with_inv(ray, ray.inv_direction())
    }

    /// Slab test with a precomputed reciprocal direction (the hot path used
    /// by BVH traversal, where the reciprocal is computed once per ray).
    #[inline]
    pub fn intersect_with_inv(&self, ray: &Ray, inv_dir: Vec3f) -> Option<(f32, f32)> {
        let mut t_enter = ray.tmin;
        let mut t_exit = ray.tmax;
        for axis in 0..3 {
            let origin = ray.origin.axis(axis);
            let inv = inv_dir.axis(axis);
            let mut t0 = (self.min.axis(axis) - origin) * inv;
            let mut t1 = (self.max.axis(axis) - origin) * inv;
            if t0 > t1 {
                std::mem::swap(&mut t0, &mut t1);
            }
            // NaN (0 * inf) falls through: comparisons with NaN are false, so
            // the interval is left untouched, matching robust slab tests.
            if t0 > t_enter {
                t_enter = t0;
            }
            if t1 < t_exit {
                t_exit = t1;
            }
            if t_enter > t_exit {
                return None;
            }
        }
        Some((t_enter, t_exit))
    }
}

impl Default for Aabb {
    fn default() -> Self {
        Aabb::EMPTY
    }
}

/// Component-wise minimum that returns `a`'s component on a tie, and the
/// other one where exactly one is NaN. `f32::min` may return either operand
/// of a tie, and does not do so consistently: the same fold compiled into
/// two places can settle `-0.0` against `0.0` differently.
#[inline]
fn min_left(a: Vec3f, b: Vec3f) -> Vec3f {
    let pick = |a: f32, b: f32| if b < a || a.is_nan() { b } else { a };
    Vec3f::new(pick(a.x, b.x), pick(a.y, b.y), pick(a.z, b.z))
}

/// Component-wise maximum with the tie and NaN rules of [`min_left`].
#[inline]
fn max_left(a: Vec3f, b: Vec3f) -> Vec3f {
    let pick = |a: f32, b: f32| if b > a || a.is_nan() { b } else { a };
    Vec3f::new(pick(a.x, b.x), pick(a.y, b.y), pick(a.z, b.z))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_box() -> Aabb {
        Aabb::new(Vec3f::ZERO, Vec3f::new(1.0, 1.0, 1.0))
    }

    #[test]
    fn empty_box_properties() {
        assert!(Aabb::EMPTY.is_empty());
        assert_eq!(Aabb::EMPTY.surface_area(), 0.0);
        assert!(!unit_box().is_empty());
    }

    #[test]
    fn union_and_union_point() {
        let a = Aabb::from_point(Vec3f::new(1.0, 1.0, 1.0));
        let b = Aabb::from_point(Vec3f::new(-1.0, 2.0, 0.0));
        let u = a.union(&b);
        assert_eq!(u.min, Vec3f::new(-1.0, 1.0, 0.0));
        assert_eq!(u.max, Vec3f::new(1.0, 2.0, 1.0));
        assert_eq!(Aabb::EMPTY.union(&a), a);
        assert_eq!(a.union(&Aabb::EMPTY), a);
        let up = a.union_point(Vec3f::new(0.0, 0.0, 5.0));
        assert_eq!(up.max.z, 5.0);
    }

    #[test]
    fn union_keeps_the_left_zero_on_a_tie_and_ignores_nan() {
        let pos = Aabb::from_point(Vec3f::ZERO);
        let neg = Aabb::from_point(Vec3f::splat(-0.0));
        let bits = |b: Aabb| [b.min.x.to_bits(), b.max.y.to_bits()];
        assert_eq!(bits(pos.union(&neg)), bits(pos));
        assert_eq!(bits(neg.union(&pos)), bits(neg));
        assert_eq!(bits(neg.union_point(Vec3f::ZERO)), bits(neg));
        let nan = Aabb::from_point(Vec3f::splat(f32::NAN));
        assert_eq!(nan.union(&pos), pos);
        assert_eq!(pos.union(&nan), pos);
    }

    #[test]
    fn from_points_builds_tight_box() {
        let pts = [
            Vec3f::new(0.0, 0.0, 0.0),
            Vec3f::new(2.0, -1.0, 3.0),
            Vec3f::new(1.0, 4.0, -2.0),
        ];
        let b = Aabb::from_points(pts);
        assert_eq!(b.min, Vec3f::new(0.0, -1.0, -2.0));
        assert_eq!(b.max, Vec3f::new(2.0, 4.0, 3.0));
        assert!(Aabb::from_points(std::iter::empty()).is_empty());
    }

    #[test]
    fn surface_area_and_centroid() {
        let b = Aabb::new(Vec3f::ZERO, Vec3f::new(2.0, 3.0, 4.0));
        assert_eq!(b.surface_area(), 2.0 * (6.0 + 12.0 + 8.0));
        assert_eq!(b.centroid(), Vec3f::new(1.0, 1.5, 2.0));
        assert_eq!(b.longest_axis(), 2);
    }

    #[test]
    fn containment() {
        let b = unit_box();
        assert!(b.contains_point(Vec3f::new(0.5, 0.5, 0.5)));
        assert!(b.contains_point(Vec3f::new(0.0, 1.0, 0.0)));
        assert!(!b.contains_point(Vec3f::new(1.5, 0.5, 0.5)));
        let inner = Aabb::new(Vec3f::splat(0.25), Vec3f::splat(0.75));
        assert!(b.contains_aabb(&inner));
        assert!(!inner.contains_aabb(&b));
        assert!(b.contains_aabb(&Aabb::EMPTY));
    }

    #[test]
    fn ray_hits_box_straight_on() {
        let b = unit_box();
        let r = Ray::unbounded(Vec3f::new(-1.0, 0.5, 0.5), Vec3f::new(1.0, 0.0, 0.0));
        let (t0, t1) = b.intersect(&r).expect("hit");
        assert!((t0 - 1.0).abs() < 1e-6);
        assert!((t1 - 2.0).abs() < 1e-6);
    }

    #[test]
    fn ray_misses_box() {
        let b = unit_box();
        let r = Ray::unbounded(Vec3f::new(-1.0, 2.0, 0.5), Vec3f::new(1.0, 0.0, 0.0));
        assert!(b.intersect(&r).is_none());
        // Pointing away from the box.
        let r2 = Ray::unbounded(Vec3f::new(-1.0, 0.5, 0.5), Vec3f::new(-1.0, 0.0, 0.0));
        assert!(b.intersect(&r2).is_none());
    }

    #[test]
    fn ray_starting_inside_reports_tmin() {
        let b = unit_box();
        let r = Ray::unbounded(Vec3f::new(0.5, 0.5, 0.5), Vec3f::new(1.0, 0.0, 0.0));
        let (t0, t1) = b.intersect(&r).expect("hit");
        assert_eq!(t0, 0.0);
        assert!((t1 - 0.5).abs() < 1e-6);
    }

    #[test]
    fn ray_interval_clips_hit() {
        let b = unit_box();
        // Box spans t in [1, 2] along this ray; restrict tmax to 0.5 -> miss.
        let r = Ray::new(
            Vec3f::new(-1.0, 0.5, 0.5),
            Vec3f::new(1.0, 0.0, 0.0),
            0.0,
            0.5,
        );
        assert!(b.intersect(&r).is_none());
    }

    #[test]
    fn axis_parallel_ray_in_plane_of_face() {
        let b = unit_box();
        // Ray travels along x at y exactly on the max face.
        let r = Ray::unbounded(Vec3f::new(-1.0, 1.0, 0.5), Vec3f::new(1.0, 0.0, 0.0));
        // Grazing hits are acceptable either way, but the call must not panic
        // and must return a well-formed interval if it reports a hit.
        if let Some((t0, t1)) = b.intersect(&r) {
            assert!(t0 <= t1);
        }
    }

    #[test]
    fn inflate_grows_box() {
        let b = unit_box().inflate(0.5);
        assert_eq!(b.min, Vec3f::splat(-0.5));
        assert_eq!(b.max, Vec3f::splat(1.5));
    }
}

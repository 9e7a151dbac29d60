//! Sphere primitives and ray/sphere intersection.
//!
//! Spheres are the second primitive type the paper evaluates in Section 3.5.
//! A sphere only stores its centre (the radius is shared across the whole
//! build, as OptiX allows), making it the most space-efficient representation
//! of a key — but intersection runs in a software intersection program rather
//! than in the RT cores.

use crate::aabb::Aabb;
use crate::ray::Ray;
use crate::vec3::Vec3f;
use crate::Hit;

/// A sphere described by its centre and radius.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sphere {
    /// Sphere centre.
    pub center: Vec3f,
    /// Sphere radius.
    pub radius: f32,
}

impl Sphere {
    /// The radius the paper selects for key spheres: small enough that rays
    /// can always start/end in the gap between two adjacent keys.
    pub const KEY_RADIUS: f32 = 0.25;

    /// Creates a sphere.
    #[inline]
    pub const fn new(center: Vec3f, radius: f32) -> Self {
        Sphere { center, radius }
    }

    /// Tight bounding box of the sphere.
    #[inline]
    pub fn bounds(&self) -> Aabb {
        Aabb::new(
            self.center - Vec3f::splat(self.radius),
            self.center + Vec3f::splat(self.radius),
        )
    }

    /// Ray/sphere intersection.
    ///
    /// Reports the closest crossing of the sphere *surface* inside the open
    /// ray interval. A ray that starts inside the sphere reports the exit
    /// point, matching the OptiX built-in sphere primitive behaviour the
    /// paper relies on ("a ray-sphere intersection can only occur when the
    /// ray enters or exits the volume").
    #[inline]
    pub fn intersect(&self, ray: &Ray) -> Option<Hit> {
        let oc = ray.origin - self.center;
        let a = ray.direction.dot(ray.direction);
        if a == 0.0 {
            return None;
        }
        let half_b = oc.dot(ray.direction);
        let c = oc.dot(oc) - self.radius * self.radius;
        let disc = half_b * half_b - a * c;
        if disc < 0.0 {
            return None;
        }
        let sqrt_disc = disc.sqrt();
        let t_near = (-half_b - sqrt_disc) / a;
        if ray.contains(t_near) {
            return Some(Hit::new(t_near));
        }
        let t_far = (-half_b + sqrt_disc) / a;
        if ray.contains(t_far) {
            return Some(Hit::new(t_far));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_enclose_sphere() {
        let s = Sphere::new(Vec3f::new(1.0, 2.0, 3.0), 0.5);
        let b = s.bounds();
        assert_eq!(b.min, Vec3f::new(0.5, 1.5, 2.5));
        assert_eq!(b.max, Vec3f::new(1.5, 2.5, 3.5));
    }

    #[test]
    fn straight_ray_hits_near_surface() {
        let s = Sphere::new(Vec3f::new(5.0, 0.0, 0.0), 1.0);
        let r = Ray::unbounded(Vec3f::ZERO, Vec3f::new(1.0, 0.0, 0.0));
        let hit = s.intersect(&r).expect("hit");
        assert!((hit.t - 4.0).abs() < 1e-5);
    }

    #[test]
    fn ray_starting_inside_reports_exit() {
        let s = Sphere::new(Vec3f::ZERO, 1.0);
        let r = Ray::unbounded(Vec3f::ZERO, Vec3f::new(1.0, 0.0, 0.0));
        let hit = s.intersect(&r).expect("hit");
        assert!((hit.t - 1.0).abs() < 1e-5);
    }

    #[test]
    fn ray_misses_off_axis() {
        let s = Sphere::new(Vec3f::new(5.0, 3.0, 0.0), 1.0);
        let r = Ray::unbounded(Vec3f::ZERO, Vec3f::new(1.0, 0.0, 0.0));
        assert!(s.intersect(&r).is_none());
    }

    #[test]
    fn interval_clipping() {
        let s = Sphere::new(Vec3f::new(5.0, 0.0, 0.0), 1.0);
        let r = Ray::new(Vec3f::ZERO, Vec3f::new(1.0, 0.0, 0.0), 0.0, 3.0);
        assert!(s.intersect(&r).is_none());
        let r2 = Ray::new(Vec3f::ZERO, Vec3f::new(1.0, 0.0, 0.0), 4.5, 10.0);
        // Near surface (t = 4) is before tmin; the far surface (t = 6) counts.
        let hit = s.intersect(&r2).expect("hit far surface");
        assert!((hit.t - 6.0).abs() < 1e-5);
    }

    #[test]
    fn key_sphere_gap_large_enough_for_adjacent_keys() {
        // Two adjacent integer keys leave a gap of 2 * (0.5 - 0.25) = 0.5
        // between their spheres: a ray can start between them without being
        // inside either sphere.
        let a = Sphere::new(Vec3f::new(10.0, 0.0, 0.0), Sphere::KEY_RADIUS);
        let b = Sphere::new(Vec3f::new(11.0, 0.0, 0.0), Sphere::KEY_RADIUS);
        let start = Vec3f::new(10.5, 0.0, 0.0);
        assert!((start - a.center).length() > a.radius);
        assert!((start - b.center).length() > b.radius);
        // A ray starting in the gap and travelling +x hits only b.
        let r = Ray::new(start, Vec3f::new(1.0, 0.0, 0.0), 0.0, 1.0);
        assert!(a.intersect(&r).is_none());
        assert!(b.intersect(&r).is_some());
    }

    #[test]
    fn degenerate_direction_returns_none() {
        let s = Sphere::new(Vec3f::ZERO, 1.0);
        let r = Ray::unbounded(Vec3f::new(5.0, 0.0, 0.0), Vec3f::ZERO);
        assert!(s.intersect(&r).is_none());
    }
}

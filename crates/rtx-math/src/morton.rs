//! Morton (Z-order) codes.
//!
//! GPU BVH builders (including the one behind `optixAccelBuild`) are widely
//! believed to be LBVH-style builders that sort primitives by the Morton code
//! of their centroid. The `rtx-bvh` crate offers such a builder, and this
//! module provides the 63-bit (21 bits per axis) Morton encoding it needs.

use crate::aabb::Aabb;
use crate::vec3::Vec3f;

/// Expands a 21-bit integer so that its bits occupy every third position of a
/// 63-bit result.
#[inline]
fn expand_bits_21(v: u64) -> u64 {
    let mut v = v & 0x1f_ffff;
    v = (v | (v << 32)) & 0x1f00000000ffff;
    v = (v | (v << 16)) & 0x1f0000ff0000ff;
    v = (v | (v << 8)) & 0x100f00f00f00f00f;
    v = (v | (v << 4)) & 0x10c30c30c30c30c3;
    v = (v | (v << 2)) & 0x1249249249249249;
    v
}

/// 63-bit Morton code for a point whose coordinates lie in `[0, 1)`.
/// Coordinates outside the range are clamped.
#[inline]
pub fn morton63(p: Vec3f) -> u64 {
    let scale = (1u64 << 21) as f32;
    let x = (p.x * scale).clamp(0.0, (1 << 21) as f32 - 1.0) as u64;
    let y = (p.y * scale).clamp(0.0, (1 << 21) as f32 - 1.0) as u64;
    let z = (p.z * scale).clamp(0.0, (1 << 21) as f32 - 1.0) as u64;
    (expand_bits_21(x) << 2) | (expand_bits_21(y) << 1) | expand_bits_21(z)
}

/// Normalises a point into the unit cube spanned by `bounds` and returns its
/// 63-bit Morton code. Degenerate axes (zero extent) map to 0.
#[inline]
pub fn morton_in_bounds(p: Vec3f, bounds: &Aabb) -> u64 {
    let extent = bounds.extent();
    let safe = |num: f32, den: f32| {
        if den > 0.0 {
            (num / den).clamp(0.0, 1.0)
        } else {
            0.0
        }
    };
    let normalised = Vec3f::new(
        safe(p.x - bounds.min.x, extent.x),
        safe(p.y - bounds.min.y, extent.y),
        safe(p.z - bounds.min.z, extent.z),
    );
    morton63(normalised)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn expand_bits_small_values() {
        assert_eq!(expand_bits_21(0), 0);
        assert_eq!(expand_bits_21(1), 1);
        assert_eq!(expand_bits_21(0b11), 0b1001);
    }

    #[test]
    fn morton_orders_along_single_axis() {
        // Points increasing along x only must have increasing codes.
        let codes: Vec<u64> = (0..10)
            .map(|i| morton63(Vec3f::new(i as f32 / 10.0, 0.0, 0.0)))
            .collect();
        for w in codes.windows(2) {
            assert!(w[0] < w[1], "{} !< {}", w[0], w[1]);
        }
    }

    #[test]
    fn morton_origin_is_zero() {
        assert_eq!(morton63(Vec3f::ZERO), 0);
    }

    #[test]
    fn morton_clamps_out_of_range() {
        let inside = morton63(Vec3f::splat(1.0 - f32::EPSILON));
        let outside = morton63(Vec3f::splat(2.0));
        assert_eq!(inside, outside);
        let negative = morton63(Vec3f::splat(-1.0));
        assert_eq!(negative, 0);
    }

    #[test]
    fn morton_in_bounds_handles_degenerate_axes() {
        // All keys lie on the x axis (y = z = 0), a common case for RTIndeX
        // scenes in Naive/Extended mode.
        let bounds = Aabb::new(Vec3f::new(0.0, 0.0, 0.0), Vec3f::new(100.0, 0.0, 0.0));
        let a = morton_in_bounds(Vec3f::new(10.0, 0.0, 0.0), &bounds);
        let b = morton_in_bounds(Vec3f::new(90.0, 0.0, 0.0), &bounds);
        assert!(a < b);
    }

    #[test]
    fn locality_neighbouring_points_share_prefix() {
        let a = morton63(Vec3f::new(0.500, 0.500, 0.500));
        let b = morton63(Vec3f::new(0.501, 0.500, 0.500));
        let c = morton63(Vec3f::new(0.999, 0.001, 0.3));
        // Close points differ in fewer leading bits than far points.
        let diff_ab = (a ^ b).leading_zeros();
        let diff_ac = (a ^ c).leading_zeros();
        assert!(diff_ab > diff_ac);
    }

    proptest! {
        #[test]
        fn prop_morton63_axis_monotone(a in 0.0f32..1.0, b in 0.0f32..1.0) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let ca = morton63(Vec3f::new(lo, 0.0, 0.0));
            let cb = morton63(Vec3f::new(hi, 0.0, 0.0));
            prop_assert!(ca <= cb);
        }

        #[test]
        fn prop_morton63_fits_in_63_bits(x in 0.0f32..1.0, y in 0.0f32..1.0, z in 0.0f32..1.0) {
            let c = morton63(Vec3f::new(x, y, z));
            prop_assert!(c < (1u64 << 63));
        }
    }
}

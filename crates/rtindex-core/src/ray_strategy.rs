//! Ray construction for point and range lookups (Section 3.3 of the paper).
//!
//! A point lookup for key `k`, or a range lookup `[l, u]`, must be expressed
//! as one or more rays whose intersections are exactly the primitives of the
//! qualifying keys. The paper evaluates three ways of doing this (Table 2):
//!
//! | strategy             | origin            | direction | tmin      | tmax      |
//! |-----------------------|-------------------|-----------|-----------|-----------|
//! | parallel from offset  | (l − 0.5, y, z)   | (1, 0, 0) | 0         | u − l + 1 |
//! | parallel from zero    | (0, y, z)         | (1, 0, 0) | l − 0.5   | u + 0.5   |
//! | perpendicular (points)| (k, y, z − 0.5)   | (0, 0, 1) | 0         | 1         |
//!
//! In 3D Mode a range lookup may span several "rows" (distinct y/z parts), in
//! which case one ray is fired per row: the first row starts at `l`'s x
//! part, the last ends at `u`'s x part, and intermediate rows are covered by
//! unbounded rays (Figure 4 of the paper).

use rtx_math::{Ray, Vec3f};

use crate::error::RtIndexError;
use crate::key_mode::KeyMode;

/// Ray strategies for point lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PointRayStrategy {
    /// Fire a short ray perpendicular to the key line (the paper's selected
    /// configuration: misses most bounding boxes outright).
    #[default]
    Perpendicular,
    /// Treat the point lookup as the range `[k, k]` with an offset origin.
    ParallelFromOffset,
    /// Treat the point lookup as the range `[k, k]` with the origin at zero
    /// and `tmin` doing the clipping.
    ParallelFromZero,
}

impl PointRayStrategy {
    /// Short name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            PointRayStrategy::Perpendicular => "perpendicular",
            PointRayStrategy::ParallelFromOffset => "parallel-offset",
            PointRayStrategy::ParallelFromZero => "parallel-zero",
        }
    }
}

/// Ray strategies for range lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RangeRayStrategy {
    /// Ray originates just before the lower bound (the paper's selected
    /// configuration).
    #[default]
    ParallelFromOffset,
    /// Ray originates at x = 0 and relies on `tmin` to skip keys below the
    /// lower bound.
    ParallelFromZero,
}

impl RangeRayStrategy {
    /// Short name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            RangeRayStrategy::ParallelFromOffset => "parallel-offset",
            RangeRayStrategy::ParallelFromZero => "parallel-zero",
        }
    }
}

/// Upper bound on the number of rays one range lookup may expand to. Ranges
/// wider than `limit × 2^x_bits` keys are rejected rather than silently
/// launching an unbounded amount of work.
pub const MAX_RAYS_PER_RANGE: u64 = 4096;

/// Builds the single ray implementing a point lookup for `key`.
pub fn point_lookup_ray(mode: &KeyMode, strategy: PointRayStrategy, key: u64) -> Ray {
    let center = mode.center(key);
    match strategy {
        PointRayStrategy::Perpendicular => Ray::new(
            Vec3f::new(center.x, center.y, center.z - 0.5),
            Vec3f::new(0.0, 0.0, 1.0),
            0.0,
            1.0,
        ),
        PointRayStrategy::ParallelFromOffset => {
            let below = mode.x_gap_below(key);
            let above = mode.x_gap_above(key);
            Ray::new(
                Vec3f::new(below, center.y, center.z),
                Vec3f::new(1.0, 0.0, 0.0),
                0.0,
                above - below,
            )
        }
        PointRayStrategy::ParallelFromZero => Ray::new(
            Vec3f::new(0.0, center.y, center.z),
            Vec3f::new(1.0, 0.0, 0.0),
            mode.x_gap_below(key),
            mode.x_gap_above(key),
        ),
    }
}

/// Builds the rays implementing the range lookup `[lower, upper]` (bounds
/// inclusive) and hands them to `emit`, first row first. A range that is too
/// wide is rejected before any ray is emitted.
pub fn range_lookup_rays(
    mode: &KeyMode,
    strategy: RangeRayStrategy,
    lower: u64,
    upper: u64,
    mut emit: impl FnMut(Ray),
) -> Result<(), RtIndexError> {
    // An inverted range is empty by definition (the uniform semantics of
    // every backend): no rays, so the lookup misses.
    if lower > upper {
        return Ok(());
    }

    let first_row = mode.row(lower);
    let last_row = mode.row(upper);
    let rays_required = last_row - first_row + 1;
    if rays_required > MAX_RAYS_PER_RANGE {
        return Err(RtIndexError::RangeTooWide {
            lower,
            upper,
            rays_required,
            limit: MAX_RAYS_PER_RANGE,
        });
    }

    let max_x = mode.max_x_component();
    for row in first_row..=last_row {
        let (y, z) = mode.row_coords(row);
        // x span of this row: clip to the lookup bounds on the first and
        // last row, cover the whole axis on intermediate rows.
        let (x_start, x_end) = match (row == first_row, row == last_row) {
            (true, true) => (mode.x_gap_below(lower), mode.x_gap_above(upper)),
            (true, false) => (mode.x_gap_below(lower), max_x as f32 + 0.5),
            (false, true) => (-0.5, mode.x_gap_above(upper)),
            (false, false) => (-0.5, max_x as f32 + 0.5),
        };
        let ray = match strategy {
            RangeRayStrategy::ParallelFromOffset => Ray::new(
                Vec3f::new(x_start, y, z),
                Vec3f::new(1.0, 0.0, 0.0),
                0.0,
                x_end - x_start,
            ),
            RangeRayStrategy::ParallelFromZero => Ray::new(
                Vec3f::new(0.0, y, z),
                Vec3f::new(1.0, 0.0, 0.0),
                x_start,
                x_end,
            ),
        };
        emit(ray);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomposition::Decomposition;

    /// The rays of a range lookup, collected.
    fn range_rays(
        mode: &KeyMode,
        strategy: RangeRayStrategy,
        lower: u64,
        upper: u64,
    ) -> Result<Vec<Ray>, RtIndexError> {
        let mut rays = Vec::new();
        range_lookup_rays(mode, strategy, lower, upper, |ray| rays.push(ray))?;
        Ok(rays)
    }

    #[test]
    fn strategy_names() {
        assert_eq!(PointRayStrategy::Perpendicular.name(), "perpendicular");
        assert_eq!(
            PointRayStrategy::ParallelFromOffset.name(),
            "parallel-offset"
        );
        assert_eq!(PointRayStrategy::ParallelFromZero.name(), "parallel-zero");
        assert_eq!(
            RangeRayStrategy::ParallelFromOffset.name(),
            "parallel-offset"
        );
        assert_eq!(RangeRayStrategy::ParallelFromZero.name(), "parallel-zero");
        assert_eq!(PointRayStrategy::default(), PointRayStrategy::Perpendicular);
        assert_eq!(
            RangeRayStrategy::default(),
            RangeRayStrategy::ParallelFromOffset
        );
    }

    #[test]
    fn perpendicular_ray_matches_table2() {
        let ray = point_lookup_ray(&KeyMode::Naive, PointRayStrategy::Perpendicular, 7);
        assert_eq!(ray.origin, Vec3f::new(7.0, 0.0, -0.5));
        assert_eq!(ray.direction, Vec3f::new(0.0, 0.0, 1.0));
        assert_eq!(ray.tmin, 0.0);
        assert_eq!(ray.tmax, 1.0);
    }

    #[test]
    fn parallel_point_rays_match_table2() {
        let offset = point_lookup_ray(&KeyMode::Naive, PointRayStrategy::ParallelFromOffset, 7);
        assert_eq!(offset.origin, Vec3f::new(6.5, 0.0, 0.0));
        assert_eq!(offset.tmax, 1.0);

        let zero = point_lookup_ray(&KeyMode::Naive, PointRayStrategy::ParallelFromZero, 7);
        assert_eq!(zero.origin, Vec3f::new(0.0, 0.0, 0.0));
        assert_eq!(zero.tmin, 6.5);
        assert_eq!(zero.tmax, 7.5);
    }

    #[test]
    fn single_row_range_matches_table2() {
        let rays =
            range_rays(&KeyMode::Naive, RangeRayStrategy::ParallelFromOffset, 2, 3).expect("rays");
        assert_eq!(rays.len(), 1);
        assert_eq!(rays[0].origin, Vec3f::new(1.5, 0.0, 0.0));
        assert_eq!(rays[0].tmax, 2.0, "u - l + 1 = 2");

        let rays =
            range_rays(&KeyMode::Naive, RangeRayStrategy::ParallelFromZero, 2, 3).expect("rays");
        assert_eq!(rays[0].origin.x, 0.0);
        assert_eq!(rays[0].tmin, 1.5);
        assert_eq!(rays[0].tmax, 3.5);
    }

    #[test]
    fn inverted_range_builds_no_rays() {
        let rays = range_rays(&KeyMode::Naive, RangeRayStrategy::ParallelFromOffset, 5, 3)
            .expect("inverted ranges are empty, not an error");
        assert!(rays.is_empty());
    }

    #[test]
    fn multi_row_range_fires_one_ray_per_row() {
        // Figure 4's example: 2 bits of x, range [15, 21] spans rows 3..=5.
        let d = Decomposition::new(2, 21, 0);
        let mode = KeyMode::ThreeD(d);
        let rays = range_rays(&mode, RangeRayStrategy::ParallelFromOffset, 15, 21).expect("rays");
        assert_eq!(rays.len(), 3);
        // First ray starts at x_l - 0.5 = 2.5 in row y = 3.
        assert_eq!(rays[0].origin, Vec3f::new(2.5, 3.0, 0.0));
        // Middle ray covers the whole row y = 4 (from -0.5 to max_x + 0.5).
        assert_eq!(rays[1].origin, Vec3f::new(-0.5, 4.0, 0.0));
        assert_eq!(rays[1].tmax, 4.0, "covers x in (-0.5, 3.5)");
        // Last ray ends at x_u + 0.5 = 1.5 in row y = 5.
        assert_eq!(rays[2].origin, Vec3f::new(-0.5, 5.0, 0.0));
        assert_eq!(rays[2].tmax, 2.0);
    }

    #[test]
    fn range_spanning_at_most_2x23_keys_needs_at_most_two_rays() {
        // "If a range lookup spans at most 2^23 integers, it can be answered
        // by casting only one or two rays."
        let mode = KeyMode::three_d_default();
        let l = 12_345_678_901_234u64;
        let u = l + (1 << 23) - 1;
        let rays = range_rays(&mode, RangeRayStrategy::ParallelFromOffset, l, u).expect("rays");
        assert!(rays.len() <= 2, "got {} rays", rays.len());
    }

    #[test]
    fn too_wide_range_is_rejected() {
        let mode = KeyMode::three_d_default();
        let err = range_rays(&mode, RangeRayStrategy::ParallelFromOffset, 0, u64::MAX).unwrap_err();
        assert!(matches!(err, RtIndexError::RangeTooWide { .. }));
    }

    #[test]
    fn extended_mode_range_uses_gap_values() {
        let rays = range_rays(
            &KeyMode::Extended,
            RangeRayStrategy::ParallelFromOffset,
            10,
            20,
        )
        .expect("rays");
        assert_eq!(rays.len(), 1);
        let ray = &rays[0];
        assert_eq!(ray.origin.x, KeyMode::Extended.x_gap_below(10));
        let end = ray.origin.x + ray.tmax;
        assert!((end - KeyMode::Extended.x_gap_above(20)).abs() <= f32::EPSILON * end.abs());
    }

    #[test]
    fn point_rays_in_3d_mode_use_row_coordinates() {
        let d = Decomposition::new(4, 4, 4);
        let mode = KeyMode::ThreeD(d);
        let key = d.join(3, 5, 7);
        let perp = point_lookup_ray(&mode, PointRayStrategy::Perpendicular, key);
        assert_eq!(perp.origin, Vec3f::new(3.0, 5.0, 7.0 - 0.5));
        let zero = point_lookup_ray(&mode, PointRayStrategy::ParallelFromZero, key);
        assert_eq!(zero.origin, Vec3f::new(0.0, 5.0, 7.0));
        assert_eq!(zero.tmin, 2.5);
    }
}

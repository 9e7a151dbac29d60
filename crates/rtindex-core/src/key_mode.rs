//! Key representation modes (Section 3.2 of the paper).
//!
//! OptiX coordinates are float32, so a 64-bit integer key cannot simply be
//! cast to a coordinate. The paper proposes three order-preserving
//! workarounds, all implemented here:
//!
//! * **Naive Mode** — cast the key to float32 directly; works for keys below
//!   2^23 (so that `k ± 0.5` stays exactly representable).
//! * **Extended Mode** — map key `k` to the float whose bit pattern is
//!   `2k + C` with `C = bit_cast::<u32>(0.5f32)`; every second representable
//!   float is skipped so `nextafter` yields a gap value between any two
//!   adjacent keys. Supports keys up to 2^29 − 1.
//! * **3D Mode** — split the key bits across the three coordinate axes using
//!   a [`Decomposition`]; supports full 64-bit keys and is the paper's
//!   selected default.

use optix_sim::PrimitiveKind;
use rtx_math::float_bits;
use rtx_math::Vec3f;

use crate::decomposition::Decomposition;

/// Half-extent (in x/y/z) of key primitives in Naive and 3D mode, where the
/// distance between adjacent keys on an axis is 1.0: the one
/// [`BuildInput::from_centers`](optix_sim::BuildInput::from_centers) builds
/// with.
pub const KEY_HALF_EXTENT: f32 = optix_sim::build_input::KEY_HALF_EXTENT;

/// How integer keys are expressed as float32 scene coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeyMode {
    /// Direct cast to float32; keys < 2^23.
    Naive,
    /// Order-preserving bit-pattern mapping; keys < 2^29.
    Extended,
    /// Bit decomposition across three axes; full 64-bit keys.
    ThreeD(Decomposition),
}

impl KeyMode {
    /// 3D Mode with the paper's default decomposition.
    pub fn three_d_default() -> Self {
        KeyMode::ThreeD(Decomposition::DEFAULT)
    }

    /// All three modes (3D with the default decomposition), in the order
    /// used by Figure 3.
    pub fn all() -> [KeyMode; 3] {
        [
            KeyMode::Naive,
            KeyMode::Extended,
            KeyMode::three_d_default(),
        ]
    }

    /// Short lowercase name used in experiment output ("naive", "ext", "3d").
    pub fn name(&self) -> &'static str {
        match self {
            KeyMode::Naive => "naive",
            KeyMode::Extended => "ext",
            KeyMode::ThreeD(_) => "3d",
        }
    }

    /// Largest key the mode can represent.
    pub fn max_key(&self) -> u64 {
        match self {
            KeyMode::Naive => float_bits::naive_mode_max_key(),
            KeyMode::Extended => float_bits::extended_mode_max_key(),
            KeyMode::ThreeD(d) => d.max_key(),
        }
    }

    /// Whether `key` is representable in this mode.
    pub fn supports_key(&self, key: u64) -> bool {
        key <= self.max_key()
    }

    /// Whether the mode supports the given primitive type (Table 1: Extended
    /// Mode cannot use spheres because adjacent keys are only ULPs apart).
    pub fn supports_primitive(&self, primitive: PrimitiveKind) -> bool {
        !matches!(
            (self, primitive),
            (KeyMode::Extended, PrimitiveKind::Sphere)
        )
    }

    /// The decomposition in use (only for 3D mode).
    pub fn decomposition(&self) -> Option<Decomposition> {
        match self {
            KeyMode::ThreeD(d) => Some(*d),
            _ => None,
        }
    }

    /// Scene coordinate of the key's primitive centre.
    pub fn center(&self, key: u64) -> Vec3f {
        debug_assert!(
            self.supports_key(key),
            "key {key} out of range for {}",
            self.name()
        );
        match self {
            KeyMode::Naive => Vec3f::new(key as f32, 0.0, 0.0),
            KeyMode::Extended => Vec3f::new(extended_coord(key), 0.0, 0.0),
            KeyMode::ThreeD(d) => {
                let (x, y, z) = d.split(key);
                Vec3f::new(x as f32, y as f32, z as f32)
            }
        }
    }

    /// Per-axis half extents of the key's primitive, chosen so that the
    /// primitive never reaches the gap positions where rays may start or end.
    pub fn half_extents(&self, key: u64) -> Vec3f {
        match self {
            KeyMode::Naive | KeyMode::ThreeD(_) => Vec3f::splat(KEY_HALF_EXTENT),
            KeyMode::Extended => {
                let x = extended_coord(key);
                let below = float_bits::next_down(x);
                let above = float_bits::next_up(x);
                // The primitive extends exactly to the neighbouring gap
                // values (one ULP either side). A smaller extent is not
                // representable — `x - 0.5 * ulp` rounds back onto `x` — and
                // rays never reach the gap values themselves because the ray
                // interval is exclusive at both ends.
                let hx = (x - below).min(above - x);
                Vec3f::new(hx.max(f32::MIN_POSITIVE), KEY_HALF_EXTENT, KEY_HALF_EXTENT)
            }
        }
    }

    /// The x coordinate where a ray belonging to key `key` may start: the gap
    /// value just below the key's coordinate.
    pub fn x_gap_below(&self, key: u64) -> f32 {
        match self {
            KeyMode::Naive => key as f32 - 0.5,
            KeyMode::Extended => float_bits::next_down(extended_coord(key)),
            KeyMode::ThreeD(d) => {
                let (x, _, _) = d.split(key);
                x as f32 - 0.5
            }
        }
    }

    /// The x coordinate where a ray belonging to key `key` may end: the gap
    /// value just above the key's coordinate.
    pub fn x_gap_above(&self, key: u64) -> f32 {
        match self {
            KeyMode::Naive => key as f32 + 0.5,
            KeyMode::Extended => float_bits::next_up(extended_coord(key)),
            KeyMode::ThreeD(d) => {
                let (x, _, _) = d.split(key);
                x as f32 + 0.5
            }
        }
    }

    /// The "row" (combined y/z part) a key belongs to. Naive and Extended
    /// mode have a single row.
    pub fn row(&self, key: u64) -> u64 {
        match self {
            KeyMode::Naive | KeyMode::Extended => 0,
            KeyMode::ThreeD(d) => d.row(key),
        }
    }

    /// The (y, z) scene coordinates of a row.
    pub fn row_coords(&self, row: u64) -> (f32, f32) {
        match self {
            KeyMode::Naive | KeyMode::Extended => (0.0, 0.0),
            KeyMode::ThreeD(d) => {
                let (y, z) = d.row_to_yz(row);
                (y as f32, z as f32)
            }
        }
    }

    /// Largest x component (used as the end of unbounded middle-row rays in
    /// multi-row range lookups).
    pub fn max_x_component(&self) -> u64 {
        match self {
            KeyMode::Naive => self.max_key(),
            KeyMode::Extended => self.max_key(),
            KeyMode::ThreeD(d) => d.max_x(),
        }
    }

    /// Converts keys to primitive centres in bulk.
    pub fn centers(&self, keys: &[u64]) -> Vec<Vec3f> {
        keys.iter().map(|&k| self.center(k)).collect()
    }
}

/// The Extended-Mode conversion formula from Table 1:
/// `k ↦ bit_cast::<f32>(2k + C)` with `C = bit_cast::<u32>(0.5f32)`.
#[inline]
pub fn extended_coord(key: u64) -> f32 {
    float_bits::bit_cast_f32((2 * key) as u32 + float_bits::EXTENDED_MODE_OFFSET)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mode_names_and_limits() {
        assert_eq!(KeyMode::Naive.name(), "naive");
        assert_eq!(KeyMode::Extended.name(), "ext");
        assert_eq!(KeyMode::three_d_default().name(), "3d");
        assert_eq!(KeyMode::Naive.max_key(), (1 << 23) - 1);
        assert_eq!(KeyMode::Extended.max_key(), (1 << 29) - 1);
        assert_eq!(KeyMode::three_d_default().max_key(), u64::MAX);
        assert_eq!(KeyMode::all().len(), 3);
    }

    #[test]
    fn key_support_checks() {
        assert!(KeyMode::Naive.supports_key((1 << 23) - 1));
        assert!(!KeyMode::Naive.supports_key(1 << 23));
        assert!(KeyMode::Extended.supports_key((1 << 29) - 1));
        assert!(!KeyMode::Extended.supports_key(1 << 29));
        assert!(KeyMode::three_d_default().supports_key(u64::MAX));
    }

    #[test]
    fn primitive_support_matches_table1() {
        for mode in KeyMode::all() {
            assert!(mode.supports_primitive(PrimitiveKind::Triangle));
            assert!(mode.supports_primitive(PrimitiveKind::Aabb));
        }
        assert!(KeyMode::Naive.supports_primitive(PrimitiveKind::Sphere));
        assert!(!KeyMode::Extended.supports_primitive(PrimitiveKind::Sphere));
        assert!(KeyMode::three_d_default().supports_primitive(PrimitiveKind::Sphere));
    }

    #[test]
    fn naive_center_is_direct_cast() {
        assert_eq!(KeyMode::Naive.center(42), Vec3f::new(42.0, 0.0, 0.0));
        assert_eq!(KeyMode::Naive.x_gap_below(42), 41.5);
        assert_eq!(KeyMode::Naive.x_gap_above(42), 42.5);
        assert_eq!(KeyMode::Naive.row(42), 0);
    }

    #[test]
    fn extended_mode_is_order_preserving_with_gaps() {
        let mut prev_above = f32::NEG_INFINITY;
        for key in [0u64, 1, 2, 3, 1000, 1_000_000, (1 << 29) - 1] {
            let c = extended_coord(key);
            let below = KeyMode::Extended.x_gap_below(key);
            let above = KeyMode::Extended.x_gap_above(key);
            assert!(
                below < c && c < above,
                "gaps must bracket the key coordinate"
            );
            assert!(
                c > prev_above,
                "coordinates and gaps must be strictly increasing"
            );
            prev_above = above;
        }
    }

    #[test]
    fn extended_adjacent_keys_share_a_gap_value() {
        // The gap above key k is the gap below key k+1: exactly one float32
        // lies between adjacent key coordinates.
        for key in [0u64, 5, 12345, 1 << 20] {
            assert_eq!(
                KeyMode::Extended.x_gap_above(key),
                KeyMode::Extended.x_gap_below(key + 1)
            );
        }
    }

    #[test]
    fn extended_half_extent_stays_inside_gaps() {
        for key in [0u64, 7, 999_999, (1 << 29) - 1] {
            let c = extended_coord(key);
            let h = KeyMode::Extended.half_extents(key);
            assert!(c - h.x > KeyMode::Extended.x_gap_below(key) - f32::EPSILON * c.abs());
            assert!(c + h.x < KeyMode::Extended.x_gap_above(key) + f32::EPSILON * c.abs());
            assert!(h.x > 0.0);
        }
    }

    #[test]
    fn three_d_center_splits_bits() {
        let d = Decomposition::new(4, 4, 4);
        let mode = KeyMode::ThreeD(d);
        let key = d.join(3, 5, 7);
        assert_eq!(mode.center(key), Vec3f::new(3.0, 5.0, 7.0));
        assert_eq!(mode.row(key), d.row(key));
        assert_eq!(mode.row_coords(mode.row(key)), (5.0, 7.0));
        assert_eq!(mode.max_x_component(), 15);
    }

    #[test]
    fn three_d_is_identical_to_naive_below_2_23() {
        // "This mode is identical to Naive Mode for all keys smaller than
        // 2^23" — Section 3.2.
        let mode3d = KeyMode::three_d_default();
        for key in [0u64, 1, 1000, (1 << 23) - 1] {
            assert_eq!(mode3d.center(key), KeyMode::Naive.center(key));
            assert_eq!(mode3d.x_gap_below(key), KeyMode::Naive.x_gap_below(key));
        }
    }

    #[test]
    fn bulk_conversions_match_single_conversions() {
        let mode = KeyMode::three_d_default();
        let keys = [1u64, 2, 1 << 30, u64::MAX];
        let centers = mode.centers(&keys);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(centers[i], mode.center(k));
        }
    }

    proptest! {
        #[test]
        fn prop_naive_coordinates_are_monotone(a in 0u64..(1 << 23), b in 0u64..(1 << 23)) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(KeyMode::Naive.center(lo).x <= KeyMode::Naive.center(hi).x);
        }

        #[test]
        fn prop_extended_coordinates_are_monotone(a in 0u64..(1 << 29), b in 0u64..(1 << 29)) {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            if lo != hi {
                prop_assert!(extended_coord(lo) < extended_coord(hi));
            }
        }

        #[test]
        fn prop_3d_round_trip_through_split(key in any::<u64>()) {
            let d = Decomposition::DEFAULT;
            let mode = KeyMode::ThreeD(d);
            let c = mode.center(key);
            let (x, y, z) = d.split(key);
            prop_assert_eq!(c.x, x as f32);
            prop_assert_eq!(c.y, y as f32);
            prop_assert_eq!(c.z, z as f32);
        }
    }
}

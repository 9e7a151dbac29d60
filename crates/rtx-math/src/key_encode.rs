//! Order-preserving encodings from native column types onto `u64` keys.
//!
//! The paper notes ("Handling other data types", Section 3.2) that RTIndeX
//! indexes unsigned 64-bit integers, and that *all native C data types can be
//! mapped to a uint64 while preserving their relative order* — the same trick
//! radix sorts use. Composite types with lexicographic ordering (e.g. strings)
//! can have their first components densely packed into 64 bits, giving
//! hardware-accelerated lookups on that prefix with software post-filtering.
//!
//! This module provides those mappings.

/// Types that can be converted into an order-preserving `u64` index key.
///
/// The contract is: `a <= b` (in the type's natural order) if and only if
/// `a.to_index_key() <= b.to_index_key()`. Floating-point types order NaN
/// above +inf (total order), matching the IEEE-754 `totalOrder` predicate for
/// non-negative NaN payloads.
pub trait IndexableKey {
    /// Converts the value into its order-preserving `u64` key.
    fn to_index_key(&self) -> u64;
}

/// Encodes an unsigned 64-bit integer (identity).
#[inline]
pub fn encode_u64(v: u64) -> u64 {
    v
}

/// Encodes an unsigned 32-bit integer by zero-extension.
#[inline]
pub fn encode_u32(v: u32) -> u64 {
    v as u64
}

/// Encodes a signed 64-bit integer by flipping the sign bit, which maps
/// `i64::MIN..=i64::MAX` monotonically onto `0..=u64::MAX`.
#[inline]
pub fn encode_i64(v: i64) -> u64 {
    (v as u64) ^ (1u64 << 63)
}

/// Encodes a signed 32-bit integer.
#[inline]
pub fn encode_i32(v: i32) -> u64 {
    ((v as u32) ^ (1u32 << 31)) as u64
}

/// Encodes an `f64` into an order-preserving `u64` (the classic radix-sort
/// transform): positive floats get their sign bit set, negative floats are
/// fully inverted.
///
/// The paper explicitly recommends indexing floats through this mapping
/// rather than using their value directly as a coordinate, because a large
/// ratio between the largest and smallest value destroys BVH performance
/// (reproduced by the `fig3b` stride experiment).
#[inline]
pub fn encode_f64(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits & (1u64 << 63) == 0 {
        bits | (1u64 << 63)
    } else {
        !bits
    }
}

/// Encodes an `f32` into an order-preserving `u64` (via the 32-bit variant of
/// the same transform, zero-extended).
#[inline]
pub fn encode_f32(v: f32) -> u64 {
    let bits = v.to_bits();
    let mapped = if bits & (1u32 << 31) == 0 {
        bits | (1u32 << 31)
    } else {
        !bits
    };
    mapped as u64
}

/// Encodes a boolean (false < true).
#[inline]
pub fn encode_bool(v: bool) -> u64 {
    v as u64
}

/// Packs the first eight bytes of a string (big-endian) into a `u64`,
/// padding with zeros. Lexicographic comparison of the original strings
/// agrees with integer comparison of the keys **on the first eight bytes**;
/// ties beyond eight bytes must be resolved by software post-filtering, as
/// the paper describes.
#[inline]
pub fn encode_str_prefix(s: &str) -> u64 {
    let bytes = s.as_bytes();
    let mut buf = [0u8; 8];
    let n = bytes.len().min(8);
    buf[..n].copy_from_slice(&bytes[..n]);
    u64::from_be_bytes(buf)
}

impl IndexableKey for u64 {
    fn to_index_key(&self) -> u64 {
        encode_u64(*self)
    }
}
impl IndexableKey for u32 {
    fn to_index_key(&self) -> u64 {
        encode_u32(*self)
    }
}
impl IndexableKey for u16 {
    fn to_index_key(&self) -> u64 {
        *self as u64
    }
}
impl IndexableKey for u8 {
    fn to_index_key(&self) -> u64 {
        *self as u64
    }
}
impl IndexableKey for i64 {
    fn to_index_key(&self) -> u64 {
        encode_i64(*self)
    }
}
impl IndexableKey for i32 {
    fn to_index_key(&self) -> u64 {
        encode_i32(*self)
    }
}
impl IndexableKey for f64 {
    fn to_index_key(&self) -> u64 {
        encode_f64(*self)
    }
}
impl IndexableKey for f32 {
    fn to_index_key(&self) -> u64 {
        encode_f32(*self)
    }
}
impl IndexableKey for bool {
    fn to_index_key(&self) -> u64 {
        encode_bool(*self)
    }
}
impl IndexableKey for &str {
    fn to_index_key(&self) -> u64 {
        encode_str_prefix(self)
    }
}
impl IndexableKey for String {
    fn to_index_key(&self) -> u64 {
        encode_str_prefix(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn signed_integers_preserve_order() {
        let values = [i64::MIN, -1_000_000, -1, 0, 1, 42, i64::MAX];
        for w in values.windows(2) {
            assert!(encode_i64(w[0]) < encode_i64(w[1]));
        }
    }

    #[test]
    fn signed_32bit_integers_preserve_order() {
        assert!(encode_i32(-5) < encode_i32(5));
    }

    #[test]
    fn floats_preserve_order() {
        let values = [
            f64::NEG_INFINITY,
            -1e300,
            -1.5,
            -0.0,
            0.0,
            1e-300,
            2.5,
            1e300,
            f64::INFINITY,
        ];
        for w in values.windows(2) {
            assert!(
                encode_f64(w[0]) <= encode_f64(w[1]),
                "{} should encode <= {}",
                w[0],
                w[1]
            );
        }
        // -0.0 and 0.0 may encode adjacently but must not invert order.
        assert!(encode_f64(-0.0) <= encode_f64(0.0));
    }

    #[test]
    fn f32_preserves_order() {
        let values = [f32::NEG_INFINITY, -3.5, 0.0, 1.25, f32::MAX];
        for w in values.windows(2) {
            assert!(encode_f32(w[0]) < encode_f32(w[1]));
        }
    }

    #[test]
    fn string_prefix_order() {
        assert!(encode_str_prefix("apple") < encode_str_prefix("banana"));
        assert!(encode_str_prefix("app") < encode_str_prefix("apple"));
        assert!(encode_str_prefix("") < encode_str_prefix("a"));
        // Only the first 8 bytes participate.
        assert_eq!(
            encode_str_prefix("abcdefghXYZ"),
            encode_str_prefix("abcdefghAAA")
        );
    }

    #[test]
    fn trait_impls_agree_with_free_functions() {
        assert_eq!(42u64.to_index_key(), 42);
        assert_eq!(7u32.to_index_key(), 7);
        assert_eq!((-3i64).to_index_key(), encode_i64(-3));
        assert_eq!((-3i32).to_index_key(), encode_i32(-3));
        assert_eq!(1.5f64.to_index_key(), encode_f64(1.5));
        assert_eq!(1.5f32.to_index_key(), encode_f32(1.5));
        assert_eq!(true.to_index_key(), 1);
        assert_eq!("wine".to_index_key(), encode_str_prefix("wine"));
        assert_eq!("wine".to_string().to_index_key(), encode_str_prefix("wine"));
        assert_eq!(3u8.to_index_key(), 3);
        assert_eq!(3u16.to_index_key(), 3);
    }

    proptest! {
        #[test]
        fn prop_i64_order_preserved(a in any::<i64>(), b in any::<i64>()) {
            prop_assert_eq!(a <= b, encode_i64(a) <= encode_i64(b));
        }

        #[test]
        fn prop_f64_order_preserved(a in prop::num::f64::NORMAL, b in prop::num::f64::NORMAL) {
            prop_assert_eq!(a <= b, encode_f64(a) <= encode_f64(b));
        }

        #[test]
        fn prop_f32_order_preserved(a in prop::num::f32::NORMAL, b in prop::num::f32::NORMAL) {
            prop_assert_eq!(a <= b, encode_f32(a) <= encode_f32(b));
        }

        #[test]
        fn prop_str_prefix_order(a in "[a-z]{0,12}", b in "[a-z]{0,12}") {
            // Agreement is only guaranteed when the order is decided within
            // the first 8 bytes.
            let pa: &str = &a[..a.len().min(8)];
            let pb: &str = &b[..b.len().min(8)];
            if pa != pb {
                prop_assert_eq!(pa < pb, encode_str_prefix(&a) < encode_str_prefix(&b));
            }
        }
    }
}

//! The concrete key-space partitioners behind the [`KeyRouter`] trait.
//!
//! Two strategies, mirroring how distributed secondary indexes place keys:
//!
//! * [`HashPartitioner`] — a mixed hash of the key picks one of 256 slots,
//!   and a slot-to-shard table picks the shard.
//!   Balanced for any key distribution (including densely clustered keys),
//!   but order-destroying: a range lookup must be broadcast to every shard.
//!   The hot-shard rebalancer reassigns individual slots from hot shards to
//!   cold ones, so only the rows of a moved slot change shard.
//! * [`RangePartitioner`] — contiguous spans of the `u64` key domain, with
//!   boundaries picked from the quantiles of the build-time key column so
//!   shards start balanced. Order-preserving: a range lookup is split at
//!   the span boundaries and only touches the owning shards.

use rtx_query::{KeyRouter, MAX_SHARDS};

/// SplitMix64 finalizer: a cheap, well-mixed `u64 -> u64` permutation, so
/// that clustered key sets (dense domains, shared prefixes) still spread
/// evenly over the shards.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Number of hash slots a [`HashPartitioner`] distributes over its shards.
/// 256 slots give the rebalancer sub-shard granularity (a hot shard donates
/// individual slots) while keeping the table 1 KiB.
pub(crate) const HASH_SLOTS: usize = 256;

// Every hash shard must be able to own a slot: the registry's shard bound
// is the slot count.
const _: () = assert!(MAX_SHARDS <= HASH_SLOTS);

/// Hash partitioning: `shard = slots[mix64(key) % 256]`.
///
/// Keys spread over the slots by a fixed mixed hash; each slot's *owner*
/// is explicit, so the rebalancer can hand a hot shard's slots to cold
/// shards one at a time without moving any other row. The table
/// [`new`](Self::new) builds assigns slot `i` to shard `i % shards`, which
/// routes exactly like `mix64(key) % shards` whenever the shard count
/// divides 256 (every power of two up to 256).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashPartitioner {
    /// Slot-to-shard table.
    slots: Box<[u32; HASH_SLOTS]>,
    shards: usize,
}

impl HashPartitioner {
    /// The evenly balanced partitioner over `shards` shards: slot `i`
    /// belongs to shard `i % shards`.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "a sharded index needs at least one shard");
        HashPartitioner {
            slots: Box::new(std::array::from_fn(|i| (i % shards) as u32)),
            shards,
        }
    }

    /// Rebuilds a partitioner from a previously captured slot table,
    /// restoring the exact routing of the original.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is zero, the table does not have 256 slots, or
    /// a slot names a shard out of range.
    pub fn from_slots(slots: Vec<u32>, shards: usize) -> Self {
        assert!(shards >= 1, "a sharded index needs at least one shard");
        let slots: Box<[u32; HASH_SLOTS]> = slots
            .into_boxed_slice()
            .try_into()
            .expect("hash slot tables have a fixed size");
        assert!(
            slots.iter().all(|&s| (s as usize) < shards),
            "slot table references a shard out of range"
        );
        HashPartitioner { slots, shards }
    }

    /// The slot-to-shard table (256 slots) — enough to reconstruct the
    /// partitioner with [`from_slots`](Self::from_slots).
    pub fn slots(&self) -> &[u32] {
        &self.slots[..]
    }

    /// The hash slot a key falls into (independent of the table, so callers
    /// can aggregate per-slot statistics before reassigning owners).
    pub(crate) fn slot_of_key(key: u64) -> usize {
        (mix64(key) % HASH_SLOTS as u64) as usize
    }
}

impl KeyRouter for HashPartitioner {
    fn shard_count(&self) -> usize {
        self.shards
    }

    fn shard_of_point(&self, key: u64) -> usize {
        self.slots[Self::slot_of_key(key)] as usize
    }

    fn shards_of_range(&self, lower: u64, upper: u64) -> Vec<(usize, (u64, u64))> {
        // Hashing scatters the keys of any range over every shard: the
        // range is broadcast whole and the gather merges the per-shard
        // answers (each shard only ever counts its own keys, so nothing is
        // double-counted).
        (0..self.shards).map(|s| (s, (lower, upper))).collect()
    }
}

/// Contiguous-range partitioning of the `u64` key domain.
///
/// Shard `i` owns the keys in `(bounds[i-1], bounds[i]]` (shard 0 from key
/// 0, the last shard up to `u64::MAX`), so the whole domain — not just the
/// build-time keys — has exactly one owner and inserts of never-seen keys
/// route deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangePartitioner {
    /// Inclusive upper bounds of every shard but the last; non-decreasing.
    bounds: Vec<u64>,
}

impl RangePartitioner {
    /// Boundaries at the quantiles of `keys`, so each shard starts with an
    /// (approximately) equal slice of the build column even when the key
    /// distribution is skewed. Falls back to [`uniform`](Self::uniform)
    /// splits of the full domain when `keys` is empty.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is zero.
    pub fn from_keys(keys: &[u64], shards: usize) -> Self {
        assert!(shards >= 1, "a sharded index needs at least one shard");
        if keys.is_empty() {
            return RangePartitioner::uniform(shards);
        }
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        let n = sorted.len();
        let bounds = (1..shards)
            .map(|i| sorted[(i * n / shards).saturating_sub(1).min(n - 1)])
            .collect();
        RangePartitioner { bounds }
    }

    /// Rebuilds a partitioner from previously captured
    /// [`bounds`](Self::bounds), restoring the exact routing of the
    /// original.
    pub fn from_bounds(bounds: Vec<u64>) -> Self {
        RangePartitioner { bounds }
    }

    /// The inclusive per-shard upper bounds (one fewer than the shard
    /// count) — enough to reconstruct the partitioner with
    /// [`from_bounds`](Self::from_bounds).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Boundaries cutting the full `u64` domain into `shards` equal spans.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is zero.
    pub fn uniform(shards: usize) -> Self {
        assert!(shards >= 1, "a sharded index needs at least one shard");
        let width = (u64::MAX as u128 + 1) / shards as u128;
        let bounds = (1..shards)
            .map(|i| (i as u128 * width - 1) as u64)
            .collect();
        RangePartitioner { bounds }
    }

    /// The inclusive key span `(lo, hi)` owned by shard `s`, or `None` for
    /// a shard whose span is empty (possible when boundary quantiles
    /// collide on duplicate keys).
    fn span(&self, s: usize) -> Option<(u64, u64)> {
        let lo = if s == 0 {
            0
        } else {
            self.bounds[s - 1].checked_add(1)?
        };
        let hi = if s == self.bounds.len() {
            u64::MAX
        } else {
            self.bounds[s]
        };
        (lo <= hi).then_some((lo, hi))
    }
}

impl KeyRouter for RangePartitioner {
    fn shard_count(&self) -> usize {
        self.bounds.len() + 1
    }

    fn shard_of_point(&self, key: u64) -> usize {
        // First shard whose upper bound reaches the key; everything above
        // the last bound belongs to the final shard.
        self.bounds.partition_point(|&b| b < key)
    }

    fn shards_of_range(&self, lower: u64, upper: u64) -> Vec<(usize, (u64, u64))> {
        let mut parts = Vec::new();
        for s in self.shard_of_point(lower)..=self.shard_of_point(upper) {
            if let Some((lo, hi)) = self.span(s) {
                let (sub_lower, sub_upper) = (lower.max(lo), upper.min(hi));
                if sub_lower <= sub_upper {
                    parts.push((s, (sub_lower, sub_upper)));
                }
            }
        }
        parts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn covers_domain_once(router: &dyn KeyRouter, probes: &[u64]) {
        for &key in probes {
            let owner = router.shard_of_point(key);
            assert!(owner < router.shard_count(), "key {key}");
            // The single-key range resolves to spans that contain the key
            // exactly once, and the owning shard is among them.
            let parts = router.shards_of_range(key, key);
            let holding: Vec<usize> = parts
                .iter()
                .filter(|&&(_, (lo, hi))| lo <= key && key <= hi)
                .map(|&(s, _)| s)
                .collect();
            assert!(holding.contains(&owner), "key {key} not routed to owner");
        }
    }

    #[test]
    fn hash_partitioner_is_total_and_balanced() {
        let router = HashPartitioner::new(8);
        assert_eq!(router.shard_count(), 8);
        covers_domain_once(&router, &[0, 1, 7, 1 << 40, u64::MAX]);

        // A dense domain spreads: no shard owns more than twice its share.
        let mut counts = vec![0usize; 8];
        for key in 0..8000u64 {
            counts[router.shard_of_point(key)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 500 && c < 2000), "{counts:?}");

        // Ranges broadcast to every shard, whole.
        let parts = router.shards_of_range(10, 20);
        assert_eq!(parts.len(), 8);
        assert!(parts.iter().all(|&(_, bounds)| bounds == (10, 20)));
    }

    #[test]
    fn balanced_table_matches_hash_modulo_for_dividing_counts() {
        for shards in [1usize, 2, 4, 8] {
            let router = HashPartitioner::new(shards);
            for key in (0..4000u64).chain([u64::MAX, 1 << 40]) {
                assert_eq!(
                    router.shard_of_point(key),
                    (mix64(key) % shards as u64) as usize,
                    "key {key}, {shards} shards"
                );
            }
        }
    }

    #[test]
    fn hash_partitioner_routes_through_the_slot_table() {
        // Hand every slot to shard 2: all keys land there.
        let slots = vec![2u32; HASH_SLOTS];
        let router = HashPartitioner::from_slots(slots.clone(), 4);
        for key in [0u64, 1, 99, u64::MAX] {
            assert_eq!(router.shard_of_point(key), 2);
        }
        assert_eq!(router.slots(), &slots[..]);

        // Round-trips through its captured table.
        let balanced = HashPartitioner::new(3);
        let rebuilt = HashPartitioner::from_slots(balanced.slots().to_vec(), 3);
        assert_eq!(balanced, rebuilt);
        covers_domain_once(&rebuilt, &[0, 5, 1 << 33, u64::MAX]);
    }

    #[test]
    #[should_panic(expected = "fixed size")]
    fn hash_partitioner_rejects_malformed_tables() {
        let _ = HashPartitioner::from_slots(vec![0; 7], 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn hash_partitioner_rejects_out_of_range_slots() {
        let _ = HashPartitioner::from_slots(vec![5; HASH_SLOTS], 2);
    }

    #[test]
    fn range_partitioner_quantiles_balance_the_build_column() {
        let keys: Vec<u64> = (0..1000).map(|i| i * 3).collect();
        let router = RangePartitioner::from_keys(&keys, 4);
        assert_eq!(router.shard_count(), 4);
        let mut counts = vec![0usize; 4];
        for &key in &keys {
            counts[router.shard_of_point(key)] += 1;
        }
        assert_eq!(counts, vec![250, 250, 250, 250]);
        covers_domain_once(&router, &[0, 1, 749, 750, 2997, 1 << 50, u64::MAX]);
    }

    #[test]
    fn range_partitioner_splits_ranges_at_boundaries() {
        // Keys 0..400 over 4 shards: bounds at 99, 199, 299.
        let keys: Vec<u64> = (0..400).collect();
        let router = RangePartitioner::from_keys(&keys, 4);
        assert_eq!(
            router.shards_of_range(50, 250),
            vec![(0, (50, 99)), (1, (100, 199)), (2, (200, 250))]
        );
        // A range inside one span stays whole.
        assert_eq!(router.shards_of_range(120, 130), vec![(1, (120, 130))]);
        // A range beyond the build keys still lands in the last shard.
        assert_eq!(router.shards_of_range(1000, 2000), vec![(3, (1000, 2000))]);
        // Sub-ranges tile the original range exactly.
        let parts = router.shards_of_range(0, u64::MAX);
        assert_eq!(parts.len(), 4);
        let mut expected_next = 0u64;
        for &(_, (lo, hi)) in &parts {
            assert_eq!(lo, expected_next);
            expected_next = hi.wrapping_add(1);
        }
        assert_eq!(expected_next, 0, "last span ends at u64::MAX");
    }

    #[test]
    fn duplicate_heavy_columns_may_leave_shards_empty_but_stay_total() {
        // One huge duplicate run: all quantile bounds collide.
        let keys = vec![7u64; 100];
        let router = RangePartitioner::from_keys(&keys, 4);
        assert_eq!(router.shard_count(), 4);
        assert_eq!(router.shard_of_point(7), 0);
        covers_domain_once(&router, &[0, 6, 7, 8, u64::MAX]);
        // The collided middle shards own nothing; the split skips them.
        let parts = router.shards_of_range(0, 100);
        assert_eq!(parts, vec![(0, (0, 7)), (3, (8, 100))]);
    }

    #[test]
    fn empty_and_single_shard_partitioners() {
        let router = RangePartitioner::from_keys(&[], 3);
        assert_eq!(router, RangePartitioner::uniform(3));
        covers_domain_once(&router, &[0, 1 << 20, u64::MAX]);

        let one = RangePartitioner::from_keys(&[5, 9], 1);
        assert_eq!(one.shard_count(), 1);
        assert_eq!(one.shards_of_range(0, u64::MAX), vec![(0, (0, u64::MAX))]);
        assert_eq!(HashPartitioner::new(1).shard_of_point(123), 0);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panic() {
        let _ = HashPartitioner::new(0);
    }
}

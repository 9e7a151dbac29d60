//! HT: a WarpCore-style GPU hash table.
//!
//! WarpCore assigns each key to a cooperative group of threads that probes a
//! group of neighbouring slots at once. We model the same structure: the
//! table is an open-addressing array of slots, probed in groups of
//! [`GROUP_SIZE`]; the target load factor is 0.8 (i.e. 25 % over-allocation),
//! and there is no bulk-loading — every key is inserted individually during
//! the build phase, exactly as in the paper's setup.
//!
//! Duplicate keys occupy separate slots; a lookup therefore keeps probing
//! until it sees a free slot in a group, which is also why misses cause
//! longer probe sequences than hits (the effect behind Figure 14).

use gpu_device::{Device, DeviceAlloc, KernelStats};
use rtx_query::IndexError;

use crate::common::{BaselineBatch, BaselineBuildMetrics, GpuIndex};
use crate::kernel::{fetch_value, run_lookup_kernel};
use rtx_query::{LookupResult, MISS};

/// Number of slots probed together by one cooperative group.
pub const GROUP_SIZE: usize = 8;

/// Target load factor of the table (the paper uses 0.8).
pub const TARGET_LOAD_FACTOR: f64 = 0.8;

/// Bytes per slot: 8-byte key + 4-byte rowID + 1-byte occupancy flag,
/// padded to 16 for coalesced accesses.
const SLOT_BYTES: u64 = 16;

/// The slot hash shared by the WarpCore-style tables in this workspace
/// (SplitMix64 finaliser: well distributed and cheap, similar in spirit to
/// the multiply-shift hashes GPU tables use). Exposed so that other
/// hash-probing structures — such as the `rtx-delta` insert buffer — place
/// keys exactly like [`WarpHashTable`] does.
#[inline]
pub fn slot_hash(key: u64, capacity: usize) -> usize {
    let mut x = key.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^= x >> 31;
    (x % capacity as u64) as usize
}

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    key: u64,
    row: u32,
    occupied: bool,
}

/// The WarpCore-like hash table baseline.
#[derive(Debug)]
pub struct WarpHashTable {
    slots: Vec<Slot>,
    key_count: usize,
    /// Whether any key was inserted more than once. With unique keys a
    /// lookup may stop at the first match (as WarpCore does); with
    /// duplicates it must continue until it sees a free slot.
    has_duplicates: bool,
    build_metrics: BaselineBuildMetrics,
    /// Device memory the table occupies.
    _table_alloc: DeviceAlloc,
}

impl WarpHashTable {
    /// Builds the table by inserting every key of `keys` individually
    /// (rowID = position).
    ///
    /// An empty key set builds an empty table whose lookups all miss.
    /// Degenerate inputs that previously panicked deep inside the build —
    /// key counts that exhaust the 32-bit rowID space (the [`MISS`]
    /// sentinel is reserved) or overflow the slot-capacity computation —
    /// are rejected up front with [`IndexError::CapacityOverflow`].
    pub fn build(device: &Device, keys: &[u64]) -> Result<Self, IndexError> {
        let start = std::time::Instant::now();
        if keys.len() as u64 >= MISS as u64 {
            return Err(IndexError::CapacityOverflow {
                backend: "HT".to_string().into(),
                keys: keys.len(),
                limit: MISS as u64 - 1,
            });
        }
        let capacity = Self::capacity_for(keys.len());
        let mut slots = vec![Slot::default(); capacity];

        let mut insert_probes = 0u64;
        let mut has_duplicates = false;
        for (row, &key) in keys.iter().enumerate() {
            let (probes, saw_duplicate) = Self::insert(&mut slots, key, row as u32);
            insert_probes += probes;
            has_duplicates |= saw_duplicate;
        }

        let table_alloc = device.reserve(capacity as u64 * SLOT_BYTES);

        // Charge the build: one kernel per insert batch; every insert hashes
        // and writes one slot, plus the probed groups.
        let n = keys.len() as u64;
        let stats = KernelStats {
            threads_launched: n,
            kernel_launches: 1,
            instructions: n * 12 + insert_probes * 4,
            dram_bytes_read: insert_probes * GROUP_SIZE as u64 * SLOT_BYTES,
            dram_bytes_written: n * SLOT_BYTES,
            ..KernelStats::new()
        };
        let simulated = device.record_kernel(stats);

        Ok(WarpHashTable {
            slots,
            key_count: keys.len(),
            has_duplicates,
            build_metrics: BaselineBuildMetrics {
                host_build_time: start.elapsed(),
                simulated_time_s: simulated.as_seconds(),
                scratch_bytes: 0,
            },
            _table_alloc: table_alloc,
        })
    }

    /// Number of slots allocated for `n` keys: `n / 0.8` rounded up to a
    /// whole number of groups.
    pub fn capacity_for(n: usize) -> usize {
        let raw = ((n.max(1) as f64) / TARGET_LOAD_FACTOR).ceil() as usize;
        raw.div_ceil(GROUP_SIZE) * GROUP_SIZE
    }

    /// Current load factor of the table.
    pub fn load_factor(&self) -> f64 {
        self.key_count as f64 / self.slots.len() as f64
    }

    #[inline]
    fn hash(key: u64, capacity: usize) -> usize {
        slot_hash(key, capacity)
    }

    /// Inserts a key, returning the number of probed groups and whether an
    /// existing copy of the key was encountered along the probe sequence.
    #[allow(clippy::needless_range_loop)]
    fn insert(slots: &mut [Slot], key: u64, row: u32) -> (u64, bool) {
        let capacity = slots.len();
        let start_group = Self::hash(key, capacity) / GROUP_SIZE;
        let group_count = capacity / GROUP_SIZE;
        let mut saw_duplicate = false;
        for probe in 0..group_count {
            let group = (start_group + probe) % group_count;
            for slot_idx in group * GROUP_SIZE..(group + 1) * GROUP_SIZE {
                if slots[slot_idx].occupied {
                    saw_duplicate |= slots[slot_idx].key == key;
                } else {
                    slots[slot_idx] = Slot {
                        key,
                        row,
                        occupied: true,
                    };
                    return (probe as u64 + 1, saw_duplicate);
                }
            }
        }
        panic!("hash table over-full: capacity {capacity}, inserting beyond load factor");
    }

    /// Probes for `key`, invoking `on_hit(row)` for every matching slot.
    /// Returns the number of probed groups.
    ///
    /// With a duplicate-free table the probe stops at the first match (as
    /// WarpCore does); otherwise it must continue until it sees a free slot,
    /// which is also the termination rule for misses — this is why misses
    /// have longer probe sequences than hits.
    fn probe<F: FnMut(u32)>(&self, key: u64, mut on_hit: F) -> u64 {
        let capacity = self.slots.len();
        let group_count = capacity / GROUP_SIZE;
        let start_group = Self::hash(key, capacity) / GROUP_SIZE;
        for probe in 0..group_count {
            let group = (start_group + probe) % group_count;
            let mut saw_empty = false;
            let mut saw_match = false;
            for slot_idx in group * GROUP_SIZE..(group + 1) * GROUP_SIZE {
                let slot = &self.slots[slot_idx];
                if slot.occupied {
                    if slot.key == key {
                        on_hit(slot.row);
                        saw_match = true;
                    }
                } else {
                    saw_empty = true;
                }
            }
            if saw_empty || (saw_match && !self.has_duplicates) {
                return probe as u64 + 1;
            }
        }
        group_count as u64
    }
}

impl GpuIndex for WarpHashTable {
    fn name(&self) -> &'static str {
        "HT"
    }

    fn key_count(&self) -> usize {
        self.key_count
    }

    fn memory_bytes(&self) -> u64 {
        self.slots.len() as u64 * SLOT_BYTES
    }

    fn build_metrics(&self) -> BaselineBuildMetrics {
        self.build_metrics
    }

    fn supports_range(&self) -> bool {
        false
    }

    fn supports_duplicates(&self) -> bool {
        true
    }

    fn supports_64bit_keys(&self) -> bool {
        true
    }

    fn point_lookup_batch(
        &self,
        device: &Device,
        queries: &[u64],
        values: Option<&[u64]>,
    ) -> BaselineBatch {
        let working_set = self.memory_bytes() + values.map(|v| v.len() as u64 * 8).unwrap_or(0);
        run_lookup_kernel(
            device,
            queries.len(),
            working_set,
            |ctx, classifier, idx| {
                let key = queries[idx];
                ctx.add_instructions(12); // hash + loop setup
                let mut first_row = MISS;
                let mut hit_count = 0u32;
                let mut sum = 0u64;
                let mut rows: Vec<u32> = Vec::new();
                let probed_groups = self.probe(key, |row| {
                    if first_row == MISS || row < first_row {
                        first_row = row;
                    }
                    hit_count += 1;
                    rows.push(row);
                });
                // Each probed group reads GROUP_SIZE slots; the token is the
                // group id so repeated lookups of hot keys hit the cache.
                let group_token = Self::hash(key, self.slots.len()) as u64 / GROUP_SIZE as u64;
                classifier.access(
                    ctx,
                    group_token,
                    probed_groups * GROUP_SIZE as u64 * SLOT_BYTES,
                );
                ctx.add_instructions(probed_groups * GROUP_SIZE as u64);
                if let Some(values) = values {
                    for row in rows {
                        fetch_value(ctx, classifier, values, row, &mut sum);
                    }
                }
                if hit_count == 0 {
                    LookupResult::miss()
                } else {
                    LookupResult {
                        first_row,
                        hit_count,
                        value_sum: sum,
                    }
                }
            },
        )
    }

    fn range_lookup_batch(
        &self,
        _device: &Device,
        _ranges: &[(u64, u64)],
        _values: Option<&[u64]>,
    ) -> Option<BaselineBatch> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shuffled_keys(n: u64) -> Vec<u64> {
        (0..n).map(|i| (i * 37 + 11) % n).collect()
    }

    #[test]
    fn capacity_respects_load_factor_and_group_size() {
        let cap = WarpHashTable::capacity_for(1000);
        assert!(cap >= 1250);
        assert_eq!(cap % GROUP_SIZE, 0);
        assert!(WarpHashTable::capacity_for(0) >= GROUP_SIZE);
    }

    #[test]
    fn build_and_lookup_round_trip() {
        let device = Device::default_eval();
        let keys = shuffled_keys(997);
        let ht = WarpHashTable::build(&device, &keys).unwrap();
        assert_eq!(ht.key_count(), 997);
        assert!(ht.load_factor() <= TARGET_LOAD_FACTOR + 0.01);
        assert_eq!(ht.name(), "HT");
        assert!(!ht.supports_range());

        let queries: Vec<u64> = (0..997).collect();
        let batch = ht.point_lookup_batch(&device, &queries, None);
        assert_eq!(batch.hit_count(), 997);
        for (q, r) in queries.iter().zip(&batch.results) {
            assert_eq!(keys[r.first_row as usize], *q);
            assert_eq!(r.hit_count, 1);
        }
    }

    #[test]
    fn misses_are_reported_and_cost_more_probes() {
        let device = Device::default_eval();
        let keys = shuffled_keys(4096);
        let ht = WarpHashTable::build(&device, &keys).unwrap();
        let hits: Vec<u64> = (0..4096).collect();
        let misses: Vec<u64> = (100_000..104_096).collect();
        let hit_batch = ht.point_lookup_batch(&device, &hits, None);
        let miss_batch = ht.point_lookup_batch(&device, &misses, None);
        assert_eq!(hit_batch.hit_count(), 4096);
        assert_eq!(miss_batch.hit_count(), 0);
        assert!(miss_batch.results.iter().all(|r| r.first_row == MISS));
        // The paper: "a miss usually causes longer probe sequences than a
        // hit", i.e. at least as much memory traffic.
        assert!(
            miss_batch.kernel.total_bytes_accessed() >= hit_batch.kernel.total_bytes_accessed()
        );
    }

    #[test]
    fn duplicates_are_all_found() {
        let device = Device::default_eval();
        let keys: Vec<u64> = (0..256u64)
            .flat_map(|k| std::iter::repeat_n(k, 4))
            .collect();
        let values = vec![1u64; keys.len()];
        let ht = WarpHashTable::build(&device, &keys).unwrap();
        let batch = ht.point_lookup_batch(&device, &[10, 200], Some(&values));
        for r in &batch.results {
            assert_eq!(r.hit_count, 4);
            assert_eq!(r.value_sum, 4);
        }
    }

    #[test]
    fn value_aggregation_matches_ground_truth() {
        let device = Device::default_eval();
        let keys = shuffled_keys(500);
        let values: Vec<u64> = (0..500u64).map(|i| i * 3).collect();
        let ht = WarpHashTable::build(&device, &keys).unwrap();
        let queries: Vec<u64> = (0..500).collect();
        let batch = ht.point_lookup_batch(&device, &queries, Some(&values));
        let expected: u64 = queries
            .iter()
            .map(|q| values[keys.iter().position(|k| k == q).unwrap()])
            .sum();
        assert_eq!(batch.total_value_sum(), expected);
    }

    #[test]
    fn supports_full_64bit_keys() {
        let device = Device::default_eval();
        let keys = vec![0u64, u64::MAX, 1 << 63, 42];
        let ht = WarpHashTable::build(&device, &keys).unwrap();
        assert!(ht.supports_64bit_keys());
        let batch = ht.point_lookup_batch(&device, &keys, None);
        assert_eq!(batch.hit_count(), 4);
    }

    #[test]
    fn range_lookups_unsupported() {
        let device = Device::default_eval();
        let ht = WarpHashTable::build(&device, &[1, 2, 3]).unwrap();
        assert!(ht.range_lookup_batch(&device, &[(0, 10)], None).is_none());
    }

    #[test]
    fn memory_footprint_includes_overallocation() {
        let device = Device::default_eval();
        let n = 10_000usize;
        let ht = WarpHashTable::build(&device, &shuffled_keys(n as u64)).unwrap();
        // At least 25% more slots than keys.
        assert!(ht.memory_bytes() >= (n as u64 * SLOT_BYTES * 5) / 4);
        assert!(ht.build_metrics().simulated_time_s > 0.0);
    }
}

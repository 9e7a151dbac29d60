//! SA: sorted array with binary search.
//!
//! The simplest order-preserving baseline: the key column is sorted with the
//! radix sort (out of place, which is where its build-time memory overhead
//! comes from), the rowIDs are carried along as values, and every lookup is a
//! binary search. Range lookups find the lower bound and scan forward.
//! Binary search has the "unfavourable (random) memory access patterns" the
//! paper points out — every probe lands far from the previous one, which the
//! access classifier translates into DRAM traffic.

use gpu_device::{Device, DeviceAlloc};
use rtx_query::IndexError;

use crate::common::{BaselineBatch, BaselineBuildMetrics, GpuIndex};
use crate::kernel::{fetch_value, run_lookup_kernel};
use crate::radix_sort::radix_sort_pairs;
use rtx_query::{LookupResult, MISS};

/// The sorted-array baseline.
#[derive(Debug)]
pub struct SortedArray {
    sorted_keys: Vec<u64>,
    rowids: Vec<u32>,
    build_metrics: BaselineBuildMetrics,
    /// Device memory the sorted keys and rowIDs occupy.
    _keys_alloc: DeviceAlloc,
    _rows_alloc: DeviceAlloc,
}

impl SortedArray {
    /// Builds the sorted array over `keys` (rowID = position in the input).
    ///
    /// An empty key set builds an empty array whose lookups all miss. Key
    /// counts that exhaust the 32-bit rowID space (the [`MISS`] sentinel is
    /// reserved) would silently wrap the carried rowIDs and are rejected
    /// with [`IndexError::CapacityOverflow`] instead.
    pub fn build(device: &Device, keys: &[u64]) -> Result<Self, IndexError> {
        let start = std::time::Instant::now();
        if keys.len() as u64 >= MISS as u64 {
            return Err(IndexError::CapacityOverflow {
                backend: "SA".to_string().into(),
                keys: keys.len(),
                limit: MISS as u64 - 1,
            });
        }
        let rowids: Vec<u32> = (0..keys.len() as u32).collect();
        let (sorted_keys, rowids, sort_metrics) = radix_sort_pairs(device, keys, &rowids);

        let keys_alloc = device.reserve(sorted_keys.len() as u64 * 8);
        let rows_alloc = device.reserve(rowids.len() as u64 * 4);

        Ok(SortedArray {
            sorted_keys,
            rowids,
            build_metrics: BaselineBuildMetrics {
                host_build_time: start.elapsed(),
                simulated_time_s: sort_metrics.simulated_time_s,
                scratch_bytes: sort_metrics.scratch_bytes,
            },
            _keys_alloc: keys_alloc,
            _rows_alloc: rows_alloc,
        })
    }

    /// Index of the first element `>= key` (lower bound), counting the
    /// binary-search probes via `on_probe(position)`.
    fn lower_bound<F: FnMut(usize)>(&self, key: u64, mut on_probe: F) -> usize {
        let mut lo = 0usize;
        let mut hi = self.sorted_keys.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            on_probe(mid);
            if self.sorted_keys[mid] < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

impl GpuIndex for SortedArray {
    fn name(&self) -> &'static str {
        "SA"
    }

    fn key_count(&self) -> usize {
        self.sorted_keys.len()
    }

    fn memory_bytes(&self) -> u64 {
        (self.sorted_keys.len() * 8 + self.rowids.len() * 4) as u64
    }

    fn build_metrics(&self) -> BaselineBuildMetrics {
        self.build_metrics
    }

    fn supports_range(&self) -> bool {
        true
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
                ctx.add_instructions(8);
                let mut probes = 0u64;
                let start = self.lower_bound(key, |pos| {
                    probes += 1;
                    // Every probe is its own region: binary search has no
                    // spatial locality between successive probes.
                    classifier.access(ctx, (pos as u64) / 8, 8);
                });
                // Binary-search probes are serially dependent loads: each stalls
                // the warp on memory latency, which shows up as a high effective
                // instruction cost per probe on real hardware.
                ctx.add_instructions(probes * 24);

                let mut first_row = MISS;
                let mut hit_count = 0u32;
                let mut sum = 0u64;
                let mut pos = start;
                while pos < self.sorted_keys.len() && self.sorted_keys[pos] == key {
                    let row = self.rowids[pos];
                    classifier.access(ctx, (pos as u64) / 8 + 1, 12);
                    if first_row == MISS || row < first_row {
                        first_row = row;
                    }
                    hit_count += 1;
                    if let Some(values) = values {
                        fetch_value(ctx, classifier, values, row, &mut sum);
                    }
                    pos += 1;
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
        device: &Device,
        ranges: &[(u64, u64)],
        values: Option<&[u64]>,
    ) -> Option<BaselineBatch> {
        let working_set = self.memory_bytes() + values.map(|v| v.len() as u64 * 8).unwrap_or(0);
        Some(run_lookup_kernel(
            device,
            ranges.len(),
            working_set,
            |ctx, classifier, idx| {
                let (lower, upper) = ranges[idx];
                if lower > upper {
                    return LookupResult::miss();
                }
                ctx.add_instructions(8);
                let mut probes = 0u64;
                let start = self.lower_bound(lower, |pos| {
                    probes += 1;
                    classifier.access(ctx, (pos as u64) / 8, 8);
                });
                // Binary-search probes are serially dependent loads: each stalls
                // the warp on memory latency, which shows up as a high effective
                // instruction cost per probe on real hardware.
                ctx.add_instructions(probes * 24);

                let mut first_row = MISS;
                let mut hit_count = 0u32;
                let mut sum = 0u64;
                let mut pos = start;
                while pos < self.sorted_keys.len() && self.sorted_keys[pos] <= upper {
                    let row = self.rowids[pos];
                    // Sideways scan is sequential: consecutive positions share
                    // cache lines.
                    classifier.access(ctx, (pos as u64) / 8 + 1, 12);
                    ctx.add_instructions(3);
                    if first_row == MISS || row < first_row {
                        first_row = row;
                    }
                    hit_count += 1;
                    if let Some(values) = values {
                        fetch_value(ctx, classifier, values, row, &mut sum);
                    }
                    pos += 1;
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
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shuffled_keys(n: u64) -> Vec<u64> {
        (0..n).map(|i| (i * 37 + 11) % n).collect()
    }

    #[test]
    fn build_sorts_and_preserves_rowids() {
        let device = Device::default_eval();
        let keys = shuffled_keys(1000);
        let sa = SortedArray::build(&device, &keys).unwrap();
        assert_eq!(sa.key_count(), 1000);
        assert_eq!(sa.name(), "SA");
        assert!(sa.sorted_keys.windows(2).all(|w| w[0] <= w[1]));
        assert!(
            sa.build_metrics().scratch_bytes > 0,
            "out-of-place sort needs scratch"
        );
    }

    #[test]
    fn point_lookups_hit_and_miss() {
        let device = Device::default_eval();
        let keys = shuffled_keys(773);
        let sa = SortedArray::build(&device, &keys).unwrap();
        let queries: Vec<u64> = (0..1000).collect();
        let batch = sa.point_lookup_batch(&device, &queries, None);
        for (q, r) in queries.iter().zip(&batch.results) {
            if *q < 773 {
                assert!(r.is_hit(), "key {q} must hit");
                assert_eq!(keys[r.first_row as usize], *q);
            } else {
                assert!(!r.is_hit(), "key {q} must miss");
            }
        }
    }

    #[test]
    fn duplicates_return_all_rows() {
        let device = Device::default_eval();
        let keys: Vec<u64> = (0..64u64).flat_map(|k| std::iter::repeat_n(k, 3)).collect();
        let values = vec![2u64; keys.len()];
        let sa = SortedArray::build(&device, &keys).unwrap();
        let batch = sa.point_lookup_batch(&device, &[5], Some(&values));
        assert_eq!(batch.results[0].hit_count, 3);
        assert_eq!(batch.results[0].value_sum, 6);
    }

    #[test]
    fn range_lookups_count_qualifying_keys() {
        let device = Device::default_eval();
        let keys = shuffled_keys(1024);
        let values = vec![1u64; 1024];
        let sa = SortedArray::build(&device, &keys).unwrap();
        let batch = sa
            .range_lookup_batch(
                &device,
                &[(10, 19), (1000, 1023), (5000, 6000), (3, 2)],
                Some(&values),
            )
            .expect("SA supports ranges");
        assert_eq!(batch.results[0].hit_count, 10);
        assert_eq!(batch.results[1].hit_count, 24);
        assert_eq!(batch.results[2].hit_count, 0);
        assert_eq!(batch.results[3].hit_count, 0, "inverted range is a miss");
        assert!(sa.supports_range());
    }

    #[test]
    fn zero_structural_overhead_after_build() {
        let device = Device::default_eval();
        let n = 4096u64;
        let sa = SortedArray::build(&device, &shuffled_keys(n)).unwrap();
        // Keys (8 B) + rowIDs (4 B) only.
        assert_eq!(sa.memory_bytes(), n * 12);
        assert!(sa.supports_duplicates());
        assert!(sa.supports_64bit_keys());
    }

    #[test]
    fn value_aggregation_matches_ground_truth() {
        let device = Device::default_eval();
        let keys = shuffled_keys(300);
        let values: Vec<u64> = (0..300u64).map(|i| i + 7).collect();
        let sa = SortedArray::build(&device, &keys).unwrap();
        let queries: Vec<u64> = (0..300).collect();
        let batch = sa.point_lookup_batch(&device, &queries, Some(&values));
        let expected: u64 = queries
            .iter()
            .map(|q| values[keys.iter().position(|k| k == q).unwrap()])
            .sum();
        assert_eq!(batch.total_value_sum(), expected);
    }
}

//! LSD radix sort of key/rowID pairs.
//!
//! Stands in for CUB's `DeviceRadixSort`, which the paper uses to build the
//! SA and B+ baselines and to sort lookup batches. Two properties matter for
//! the experiments and are reproduced faithfully:
//!
//! * it sorts **out of place**, temporarily doubling the memory footprint
//!   (the SA build overhead of Table 6),
//! * its cost is linear in the input size and low compared to the lookup
//!   phase ("GPU-resident sorting is surprisingly cheap").

use gpu_device::{Device, KernelStats};

/// Metrics of one sort invocation.
#[derive(Debug, Clone, Copy, Default)]
pub struct RadixSortMetrics {
    /// Host wall-clock time of the sort.
    pub host_time: std::time::Duration,
    /// Simulated device time of the sort.
    pub simulated_time_s: f64,
    /// Temporary device memory allocated by the out-of-place passes.
    pub scratch_bytes: u64,
}

/// Sorts `keys` ascending, carrying `rowids` along, and returns the sorted
/// pairs plus the sort metrics. The inputs are left untouched.
pub fn radix_sort_pairs(
    device: &Device,
    keys: &[u64],
    rowids: &[u32],
) -> (Vec<u64>, Vec<u32>, RadixSortMetrics) {
    assert_eq!(
        keys.len(),
        rowids.len(),
        "keys and rowIDs must have equal length"
    );
    let start = std::time::Instant::now();
    let n = keys.len();

    // Out-of-place double buffers, accounted as device scratch.
    let scratch_bytes = (n * (8 + 4)) as u64;
    let scratch = device.reserve(scratch_bytes);

    let mut src: Vec<(u64, u32)> = keys.iter().copied().zip(rowids.iter().copied()).collect();
    let mut dst: Vec<(u64, u32)> = vec![(0, 0); n];

    // 8 passes over 8-bit digits.
    for pass in 0..8 {
        let shift = pass * 8;
        let mut histogram = [0usize; 256];
        for &(k, _) in &src {
            histogram[((k >> shift) & 0xFF) as usize] += 1;
        }
        let mut offsets = [0usize; 256];
        let mut running = 0usize;
        for (digit, &count) in histogram.iter().enumerate() {
            offsets[digit] = running;
            running += count;
        }
        for &(k, r) in &src {
            let digit = ((k >> shift) & 0xFF) as usize;
            dst[offsets[digit]] = (k, r);
            offsets[digit] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
    }
    drop(scratch);

    // Charge the sort to the device: 8 passes read + write every pair.
    let pair_bytes = (n * 12) as u64;
    let stats = KernelStats {
        threads_launched: n as u64,
        kernel_launches: 8,
        instructions: n as u64 * 8 * 4,
        dram_bytes_read: pair_bytes * 8,
        dram_bytes_written: pair_bytes * 8,
        ..KernelStats::new()
    };
    let simulated = device.record_kernel(stats);

    let (sorted_keys, sorted_rows): (Vec<u64>, Vec<u32>) = src.into_iter().unzip();
    (
        sorted_keys,
        sorted_rows,
        RadixSortMetrics {
            host_time: start.elapsed(),
            simulated_time_s: simulated.as_seconds(),
            scratch_bytes,
        },
    )
}

/// Sorts a plain lookup batch (keys only), returning the sorted copy and the
/// sort metrics. Used by experiments that evaluate sorted lookups.
pub fn radix_sort_keys(device: &Device, keys: &[u64]) -> (Vec<u64>, RadixSortMetrics) {
    let rowids: Vec<u32> = (0..keys.len() as u32).collect();
    let (sorted, _, metrics) = radix_sort_pairs(device, keys, &rowids);
    (sorted, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorts_random_pairs_correctly() {
        let device = Device::default_eval();
        let keys: Vec<u64> = (0..1000u64).map(|i| (i * 2654435761) % 4096).collect();
        let rowids: Vec<u32> = (0..1000).collect();
        let (sorted, rows, metrics) = radix_sort_pairs(&device, &keys, &rowids);
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        // Every (key, row) pair must still correspond to the original data.
        for (k, r) in sorted.iter().zip(rows.iter()) {
            assert_eq!(keys[*r as usize], *k);
        }
        assert!(metrics.scratch_bytes > 0);
        assert!(metrics.simulated_time_s > 0.0);
    }

    #[test]
    fn sort_is_stable_for_equal_keys() {
        let device = Device::default_eval();
        let keys = vec![7u64, 7, 7, 3, 3, 9];
        let rowids: Vec<u32> = (0..6).collect();
        let (sorted, rows, _) = radix_sort_pairs(&device, &keys, &rowids);
        assert_eq!(sorted, vec![3, 3, 7, 7, 7, 9]);
        // Stability: equal keys keep their original relative order.
        assert_eq!(rows, vec![3, 4, 0, 1, 2, 5]);
    }

    #[test]
    fn sorts_full_64bit_range() {
        let device = Device::default_eval();
        let keys = vec![u64::MAX, 0, 1 << 63, 42, u64::MAX - 1];
        let rowids: Vec<u32> = (0..5).collect();
        let (sorted, _, _) = radix_sort_pairs(&device, &keys, &rowids);
        assert_eq!(sorted, vec![0, 42, 1 << 63, u64::MAX - 1, u64::MAX]);
    }

    #[test]
    fn empty_input_is_fine() {
        let device = Device::default_eval();
        let (sorted, rows, _) = radix_sort_pairs(&device, &[], &[]);
        assert!(sorted.is_empty());
        assert!(rows.is_empty());
    }

    #[test]
    fn keys_only_helper_matches_pairs() {
        let device = Device::default_eval();
        let keys = vec![5u64, 1, 9, 1];
        let (sorted, _) = radix_sort_keys(&device, &keys);
        assert_eq!(sorted, vec![1, 1, 5, 9]);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        let device = Device::default_eval();
        let _ = radix_sort_pairs(&device, &[1, 2], &[0]);
    }
}

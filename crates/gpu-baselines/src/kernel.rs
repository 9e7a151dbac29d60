//! Shared lookup-kernel driver for the baseline indexes.
//!
//! HT, B+ and SA all answer lookup batches the same way: one logical thread
//! per lookup, executed by a pool of host workers, each accumulating hardware
//! counters and classifying its memory traffic with an [`AccessClassifier`].
//! This module factors that driver out so the three index implementations
//! only provide the per-lookup body.

use gpu_device::{AccessClassifier, Device, KernelStats, ThreadCtx};

use crate::common::BaselineBatch;
use rtx_query::LookupResult;

/// Runs a lookup kernel of `width` logical threads.
///
/// `working_set_bytes` is the total device data the kernel may touch (index
/// structure + value column); `body(ctx, classifier, idx)` computes the
/// result of lookup `idx` while recording its work.
pub fn run_lookup_kernel<F>(
    device: &Device,
    width: usize,
    working_set_bytes: u64,
    body: F,
) -> BaselineBatch
where
    F: Fn(&mut ThreadCtx, &mut AccessClassifier, usize) -> LookupResult + Sync,
{
    let start = std::time::Instant::now();
    let mut results = vec![LookupResult::miss(); width];
    let mut merged = KernelStats {
        threads_launched: width as u64,
        kernel_launches: 1,
        ..KernelStats::new()
    };

    if width > 0 {
        let workers = gpu_device::executor::worker_count().min(width);
        let chunk = width.div_ceil(workers);
        let l2 = device.spec().l2_bytes;
        let chunks: Vec<&mut [LookupResult]> = results.chunks_mut(chunk).collect();

        // Runs on the shared gpu-device worker pool: each claimant owns one
        // contiguous result chunk, mirroring a CUDA block writing its slice
        // of the output buffer.
        let partials = gpu_device::parallel_map(chunks, |w, out_chunk| {
            let start_idx = w * chunk;
            let mut ctx = ThreadCtx::new();
            let mut classifier = AccessClassifier::new(l2, working_set_bytes);
            for (j, slot) in out_chunk.iter_mut().enumerate() {
                *slot = body(&mut ctx, &mut classifier, start_idx + j);
            }
            ctx.stats
        });

        for p in partials {
            merged.merge(&p);
        }
        merged.threads_launched = width as u64;
        merged.kernel_launches = 1;
    }

    let simulated = device.record_kernel(merged);

    BaselineBatch {
        results,
        kernel: merged,
        simulated_time_s: simulated.as_seconds(),
        host_time: start.elapsed(),
    }
}

/// Fetches the value for `row` and adds it to `sum`, charging the access to
/// the classifier the same way the raytracing pipeline charges its value
/// fetches (eight values per cache line).
#[inline]
pub fn fetch_value(
    ctx: &mut ThreadCtx,
    classifier: &mut AccessClassifier,
    values: &[u64],
    row: u32,
    sum: &mut u64,
) {
    ctx.add_instructions(2);
    classifier.access(
        ctx,
        (row as u64 / 8).wrapping_mul(2654435761).rotate_left(17),
        8,
    );
    *sum = sum.wrapping_add(values[row as usize]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_runs_every_index_once() {
        let device = Device::default_eval();
        let batch = run_lookup_kernel(&device, 1000, 1 << 10, |ctx, _cl, idx| {
            ctx.add_instructions(1);
            LookupResult {
                first_row: idx as u32,
                hit_count: 1,
                value_sum: idx as u64,
            }
        });
        assert_eq!(batch.results.len(), 1000);
        assert!(batch
            .results
            .iter()
            .enumerate()
            .all(|(i, r)| r.first_row == i as u32));
        assert_eq!(batch.kernel.instructions, 1000);
        assert_eq!(batch.kernel.threads_launched, 1000);
        assert!(batch.simulated_time_s > 0.0);
    }

    #[test]
    fn empty_kernel_is_safe() {
        let device = Device::default_eval();
        let batch = run_lookup_kernel(&device, 0, 0, |_, _, _| LookupResult::miss());
        assert!(batch.results.is_empty());
        assert_eq!(batch.kernel.threads_launched, 0);
    }

    #[test]
    fn fetch_value_accumulates_and_accounts() {
        let device = Device::default_eval();
        let values = vec![10u64, 20, 30];
        let batch = run_lookup_kernel(&device, 1, 1 << 30, |ctx, cl, _| {
            let mut sum = 0;
            fetch_value(ctx, cl, &values, 0, &mut sum);
            fetch_value(ctx, cl, &values, 2, &mut sum);
            LookupResult {
                first_row: 0,
                hit_count: 2,
                value_sum: sum,
            }
        });
        assert_eq!(batch.results[0].value_sum, 40);
        assert!(batch.kernel.instructions >= 4);
        assert!(batch.kernel.total_bytes_accessed() >= 16);
    }
}

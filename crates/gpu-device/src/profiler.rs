//! Kernel-level hardware counters.
//!
//! These mirror the Nsight Compute metrics the paper relies on to explain its
//! results: executed instructions, DRAM traffic, L1/L2 hits, the number of
//! ray/primitive intersection tests (split into hardware-accelerated
//! triangle tests and software intersection-program invocations), BVH node
//! visits and early traversal aborts.

use std::sync::Arc;

use parking_lot::Mutex;

/// Counters collected for one kernel launch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Logical threads launched (one per lookup for the raytracing pipeline).
    pub threads_launched: u64,
    /// Kernel launches performed (one per batch).
    pub kernel_launches: u64,
    /// Instructions executed by the programmable cores (everything that is
    /// *not* done by fixed-function RT hardware).
    pub instructions: u64,
    /// Bytes read from device memory (after the cache).
    pub dram_bytes_read: u64,
    /// Bytes written to device memory.
    pub dram_bytes_written: u64,
    /// Bytes served from the L1 cache.
    pub l1_hit_bytes: u64,
    /// Bytes served from the L2 cache.
    pub l2_hit_bytes: u64,
    /// Ray/triangle intersection tests executed by RT cores.
    pub rt_triangle_tests: u64,
    /// Software intersection-program invocations (spheres, AABBs).
    pub sw_intersection_tests: u64,
    /// BVH nodes visited during traversal.
    pub bvh_nodes_visited: u64,
    /// Ray/box tests performed during BVH traversal (fixed-function).
    pub rt_box_tests: u64,
    /// Traversals that terminated early because no child volume could
    /// contain the searched key (the "early abort" effect behind Fig. 14).
    pub early_aborts: u64,
    /// Any-hit program invocations (reported hits).
    pub any_hit_invocations: u64,
}

impl KernelStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes requested by the kernel (DRAM + caches).
    pub fn total_bytes_accessed(&self) -> u64 {
        self.dram_bytes_read + self.l1_hit_bytes + self.l2_hit_bytes
    }

    /// Fraction of read requests served by L1/L2 (0 when nothing was read).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.total_bytes_accessed();
        if total == 0 {
            return 0.0;
        }
        (self.l1_hit_bytes + self.l2_hit_bytes) as f64 / total as f64
    }

    /// Adds another stats record to this one, field by field.
    pub fn merge(&mut self, other: &KernelStats) {
        self.threads_launched += other.threads_launched;
        self.kernel_launches += other.kernel_launches;
        self.instructions += other.instructions;
        self.dram_bytes_read += other.dram_bytes_read;
        self.dram_bytes_written += other.dram_bytes_written;
        self.l1_hit_bytes += other.l1_hit_bytes;
        self.l2_hit_bytes += other.l2_hit_bytes;
        self.rt_triangle_tests += other.rt_triangle_tests;
        self.sw_intersection_tests += other.sw_intersection_tests;
        self.bvh_nodes_visited += other.bvh_nodes_visited;
        self.rt_box_tests += other.rt_box_tests;
        self.early_aborts += other.early_aborts;
        self.any_hit_invocations += other.any_hit_invocations;
    }
}

/// Accumulates [`KernelStats`] across the lifetime of a device.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    total: Arc<Mutex<KernelStats>>,
}

impl Profiler {
    /// Creates a profiler with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the counters of one finished kernel (kernels are charged
    /// through [`Device::record_kernel`](crate::Device::record_kernel)).
    pub(crate) fn record_kernel(&self, stats: KernelStats) {
        self.total.lock().merge(&stats);
    }

    /// Counters accumulated over every recorded kernel.
    pub fn total(&self) -> KernelStats {
        *self.total.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let mut a = KernelStats {
            instructions: 10,
            dram_bytes_read: 100,
            ..KernelStats::new()
        };
        let b = KernelStats {
            instructions: 5,
            dram_bytes_read: 50,
            early_aborts: 2,
            ..KernelStats::new()
        };
        a.merge(&b);
        assert_eq!(a.instructions, 15);
        assert_eq!(a.dram_bytes_read, 150);
        assert_eq!(a.early_aborts, 2);
    }

    #[test]
    fn cache_hit_rate_handles_zero() {
        assert_eq!(KernelStats::new().cache_hit_rate(), 0.0);
        let s = KernelStats {
            dram_bytes_read: 25,
            l1_hit_bytes: 50,
            l2_hit_bytes: 25,
            ..KernelStats::new()
        };
        assert!((s.cache_hit_rate() - 0.75).abs() < 1e-9);
        assert_eq!(s.total_bytes_accessed(), 100);
    }

    #[test]
    fn profiler_accumulates() {
        let p = Profiler::new();
        p.record_kernel(KernelStats {
            instructions: 10,
            ..KernelStats::new()
        });
        p.record_kernel(KernelStats {
            instructions: 30,
            ..KernelStats::new()
        });
        assert_eq!(p.total().instructions, 40);
    }

    #[test]
    fn profiler_is_thread_safe() {
        let p = Profiler::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let p = p.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        p.record_kernel(KernelStats {
                            instructions: 1,
                            ..KernelStats::new()
                        });
                    }
                });
            }
        });
        assert_eq!(p.total().instructions, 400);
    }
}

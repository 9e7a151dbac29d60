//! Converts kernel counters into a simulated execution time.
//!
//! The experiments of the paper are explained by a small number of resource
//! limits: instruction throughput of the programmable cores, triangle-test
//! throughput of the RT cores, DRAM bandwidth, warp occupancy and kernel
//! launch overhead. The cost model combines the counters of a kernel
//! ([`KernelStats`]) with a device description ([`DeviceSpec`]) into a
//! simulated time using a roofline-style maximum over the three throughput
//! terms, divided by the achieved occupancy and preceded by per-launch
//! overhead.
//!
//! Absolute values are *not* expected to match the paper (the authors ran on
//! real hardware), but relative behaviour — which index wins under which
//! workload, where crossovers happen — is governed by exactly these terms.

use crate::occupancy::OccupancyModel;
use crate::profiler::KernelStats;
use crate::spec::DeviceSpec;

/// A simulated execution time, kept separate from host wall-clock time to
/// avoid confusing the two in experiment reports.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimulatedTime {
    seconds: f64,
}

impl SimulatedTime {
    /// Creates a simulated time from seconds.
    pub fn from_seconds(seconds: f64) -> Self {
        SimulatedTime { seconds }
    }

    /// Zero simulated time.
    pub fn zero() -> Self {
        SimulatedTime { seconds: 0.0 }
    }

    /// The value in seconds.
    pub fn as_seconds(&self) -> f64 {
        self.seconds
    }

    /// Sum of two simulated times.
    pub fn plus(&self, other: SimulatedTime) -> SimulatedTime {
        SimulatedTime {
            seconds: self.seconds + other.seconds,
        }
    }
}

/// Breakdown of a simulated time into its roofline components, useful for
/// reproducing the paper's "memory bound vs. compute bound" discussions.
#[derive(Debug, Clone, Copy, Default)]
pub struct CostBreakdown {
    /// Time the programmable cores would need for the executed instructions.
    pub compute_s: f64,
    /// Time the RT cores would need for the intersection tests.
    pub rt_core_s: f64,
    /// Time the memory system would need for the DRAM traffic.
    pub memory_s: f64,
    /// Kernel launch overhead.
    pub launch_overhead_s: f64,
    /// Occupancy divisor applied to the roofline maximum (0–1].
    pub occupancy_factor: f64,
    /// The final simulated time.
    pub total: SimulatedTime,
}

impl CostBreakdown {
    /// Name of the dominant roofline term.
    pub fn bound_by(&self) -> &'static str {
        if self.memory_s >= self.compute_s && self.memory_s >= self.rt_core_s {
            "memory"
        } else if self.compute_s >= self.rt_core_s {
            "compute"
        } else {
            "rt-core"
        }
    }
}

/// The cost model for one device.
#[derive(Debug, Clone)]
pub struct CostModel {
    spec: DeviceSpec,
    occupancy: OccupancyModel,
}

impl CostModel {
    /// Creates the cost model for `spec`.
    pub fn new(spec: DeviceSpec) -> Self {
        let occupancy = OccupancyModel::new(spec.clone());
        CostModel { spec, occupancy }
    }

    /// The underlying device spec.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// The occupancy model.
    pub fn occupancy(&self) -> &OccupancyModel {
        &self.occupancy
    }

    /// Full roofline breakdown for a kernel.
    pub fn breakdown(&self, stats: &KernelStats) -> CostBreakdown {
        let compute_s = stats.instructions as f64 / self.spec.peak_instruction_throughput();

        // Fixed-function traversal work: triangle tests plus box tests run on
        // the RT cores; software intersection programs count as instructions
        // *and* keep the RT pipeline busy handing control back and forth, so
        // they are charged to the compute term via `instructions` (the caller
        // records them there) and only the dispatch cost appears here.
        let rt_tests = stats.rt_triangle_tests + stats.rt_box_tests;
        let rt_core_s = rt_tests as f64 / self.spec.peak_rt_intersection_throughput();

        let bytes = (stats.dram_bytes_read + stats.dram_bytes_written) as f64;
        let bw_util = self
            .occupancy
            .bandwidth_utilisation(stats.threads_launched)
            .max(0.05);
        let memory_s = bytes / (self.spec.mem_bandwidth * bw_util);

        let occ = (self.occupancy.active_warps_per_sm(stats.threads_launched)
            / self.spec.max_warps_per_sm as f64)
            .clamp(0.05, 1.0);

        // Roofline: the slowest resource dominates; low occupancy exposes
        // latency that overlapping warps would otherwise hide. The memory
        // term already folds occupancy in through the achieved bandwidth, so
        // the occupancy divisor is applied to the compute/RT terms only.
        let roofline = (compute_s / occ).max(rt_core_s / occ).max(memory_s);
        let launch_overhead_s = stats.kernel_launches as f64 * self.spec.kernel_launch_overhead_s;
        let total = SimulatedTime::from_seconds(roofline + launch_overhead_s);

        CostBreakdown {
            compute_s,
            rt_core_s,
            memory_s,
            launch_overhead_s,
            occupancy_factor: occ,
            total,
        }
    }

    /// Simulated execution time for a kernel.
    pub fn simulated_time(&self, stats: &KernelStats) -> SimulatedTime {
        self.breakdown(stats).total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::new(DeviceSpec::rtx_4090())
    }

    fn lookup_like_stats(threads: u64) -> KernelStats {
        KernelStats {
            threads_launched: threads,
            kernel_launches: 1,
            instructions: threads * 50,
            dram_bytes_read: threads * 128,
            rt_triangle_tests: threads * 4,
            rt_box_tests: threads * 20,
            ..KernelStats::new()
        }
    }

    #[test]
    fn simulated_time_scales_with_work() {
        let m = model();
        let small = m.simulated_time(&lookup_like_stats(1 << 16));
        let large = m.simulated_time(&lookup_like_stats(1 << 20));
        assert!(large.as_seconds() > small.as_seconds());
        // 16x the work should take somewhere between 4x and 16x the time
        // (occupancy improves for the larger launch).
        let ratio = large.as_seconds() / small.as_seconds();
        assert!(ratio > 4.0 && ratio <= 16.0, "ratio = {ratio}");
    }

    #[test]
    fn launch_overhead_adds_up() {
        let m = model();
        let mut one_launch = lookup_like_stats(1 << 20);
        let mut many_launches = lookup_like_stats(1 << 20);
        one_launch.kernel_launches = 1;
        many_launches.kernel_launches = 1 << 16;
        let t1 = m.simulated_time(&one_launch);
        let t2 = m.simulated_time(&many_launches);
        assert!(
            t2.as_seconds() > t1.as_seconds() + 0.1,
            "2^16 launches must add noticeable overhead: {} vs {}",
            t2.as_seconds(),
            t1.as_seconds()
        );
    }

    #[test]
    fn memory_heavy_kernel_is_memory_bound() {
        let m = model();
        let stats = KernelStats {
            threads_launched: 1 << 22,
            kernel_launches: 1,
            instructions: 1 << 10,
            dram_bytes_read: 10 << 30,
            ..KernelStats::new()
        };
        let b = m.breakdown(&stats);
        assert_eq!(b.bound_by(), "memory");
        assert!(b.total.as_seconds() > 0.0);
    }

    #[test]
    fn rt_heavy_kernel_is_rt_bound() {
        let m = model();
        let stats = KernelStats {
            threads_launched: 1 << 22,
            kernel_launches: 1,
            instructions: 1 << 10,
            dram_bytes_read: 1 << 10,
            rt_triangle_tests: 1 << 34,
            ..KernelStats::new()
        };
        assert_eq!(m.breakdown(&stats).bound_by(), "rt-core");
    }

    #[test]
    fn newer_generation_runs_rt_work_faster() {
        let stats = KernelStats {
            threads_launched: 1 << 22,
            kernel_launches: 1,
            rt_triangle_tests: 1 << 32,
            ..KernelStats::new()
        };
        let ada = CostModel::new(DeviceSpec::rtx_4090()).simulated_time(&stats);
        let turing = CostModel::new(DeviceSpec::rtx_2080ti()).simulated_time(&stats);
        assert!(ada.as_seconds() < turing.as_seconds());
    }

    #[test]
    fn simulated_time_arithmetic() {
        let t = SimulatedTime::from_seconds(0.0125);
        assert_eq!(t.as_seconds(), 0.0125);
        assert_eq!(SimulatedTime::zero().as_seconds(), 0.0);
        assert!((t.plus(t).as_seconds() - 0.025).abs() < 1e-12);
    }
}

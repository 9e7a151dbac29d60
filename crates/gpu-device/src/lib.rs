//! # gpu-device
//!
//! A software model of an NVIDIA RTX GPU, used by the RTIndeX reproduction in
//! place of real hardware.
//!
//! The paper evaluates RTIndeX on four RTX GPUs (4090, A6000, 3090, 2080 Ti)
//! and explains every observed effect through hardware counters collected
//! with Nsight Systems / Nsight Compute: DRAM traffic, L1/L2 hit rates,
//! executed instructions, active warps per SM, and the throughput of the
//! dedicated raytracing cores. This crate models exactly those quantities:
//!
//! * [`DeviceSpec`] — the static description of a GPU (SMs, RT cores and
//!   their generation, memory bandwidth, L2 size, …) with presets for the
//!   four GPUs of Table 8;
//! * [`MemoryTracker`] / [`DeviceAlloc`] — device-memory accounting that
//!   reproduces the footprint numbers of Table 6 (current vs. peak usage).
//!   A reservation holds a byte count, not a copy of the data, so every
//!   structure lives once, on the host;
//! * [`KernelStats`] / [`Profiler`] — the per-kernel counters that both the
//!   raytracing pipeline and the baseline indexes report;
//! * [`occupancy`] — the active-warps-per-SM and bandwidth-utilisation model
//!   behind Table 5;
//! * [`CostModel`] — converts counters into a *simulated* execution time for
//!   a given [`DeviceSpec`], which is what the experiment harness reports
//!   alongside host wall-clock time;
//! * [`executor`] — the shared host worker pool ([`parallel_tasks`],
//!   [`parallel_map`]) that the kernel drivers above this crate fan a launch
//!   out over, and the per-worker [`ThreadCtx`] whose counters each launch
//!   merges into its [`KernelStats`].
//!
//! Nothing in this crate knows about raytracing or indexing; it is the shared
//! substrate below `optix-sim`, `rtindex-core` and `gpu-baselines`.

pub mod access;
pub mod build;
pub mod cost;
pub mod executor;
pub mod memory;
pub mod occupancy;
pub mod profiler;
pub mod spec;

pub use access::AccessClassifier;
pub use build::{staged_build_cost, BuildStage, BuildWork, StagedBuildCost, BUILD_STAGE_COUNT};
pub use cost::{CostModel, SimulatedTime};
pub use executor::{parallel_map, parallel_tasks, worker_count, ThreadCtx};
pub use memory::{DeviceAlloc, MemoryTracker};
pub use occupancy::OccupancyModel;
pub use profiler::{KernelStats, Profiler};
pub use spec::{DeviceSpec, RtCoreGeneration};

/// Convenience bundle representing one simulated GPU: its spec (inside its
/// cost model), its memory tracker and its profiler.
///
/// Every index structure in the reproduction is built against a [`Device`] so
/// that footprint and counter reporting is uniform across RX and the
/// baselines.
#[derive(Debug, Clone)]
pub struct Device {
    cost: CostModel,
    memory: MemoryTracker,
    profiler: Profiler,
}

impl Device {
    /// Creates a device with the given spec and fresh counters.
    pub fn new(spec: DeviceSpec) -> Self {
        Device {
            cost: CostModel::new(spec),
            memory: MemoryTracker::new(),
            profiler: Profiler::new(),
        }
    }

    /// Creates the default evaluation device (RTX 4090, the paper's system S1).
    pub fn default_eval() -> Self {
        Device::new(DeviceSpec::rtx_4090())
    }

    /// The static GPU description.
    pub fn spec(&self) -> &DeviceSpec {
        self.cost.spec()
    }

    /// The device-memory tracker.
    pub fn memory(&self) -> &MemoryTracker {
        &self.memory
    }

    /// The profiler collecting kernel statistics.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Reserves `bytes` of device memory, accounted against this device's
    /// memory tracker until the reservation drops. The reservation holds no
    /// data: the caller keeps the structure it stands for on the host.
    pub fn reserve(&self, bytes: u64) -> DeviceAlloc {
        self.memory.reserve(bytes)
    }

    /// The cost model for this device.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Charges one finished kernel: records its counters with the profiler
    /// and returns its simulated time.
    pub fn record_kernel(&self, stats: KernelStats) -> SimulatedTime {
        let simulated = self.cost.simulated_time(&stats);
        self.profiler.record_kernel(stats);
        simulated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_tracks_reservations() {
        let dev = Device::default_eval();
        assert_eq!(dev.memory().current_bytes(), 0);
        let alloc = dev.reserve(1024 * 8);
        assert_eq!(alloc.bytes(), 1024 * 8);
        assert_eq!(dev.memory().current_bytes(), 1024 * 8);
        drop(alloc);
        assert_eq!(dev.memory().current_bytes(), 0);
        assert_eq!(dev.memory().peak_bytes(), 1024 * 8);
    }

    #[test]
    fn record_kernel_charges_the_profiler_and_the_cost_model() {
        let dev = Device::default_eval();
        let stats = KernelStats {
            threads_launched: 1 << 10,
            kernel_launches: 1,
            instructions: 1 << 12,
            ..KernelStats::new()
        };
        let simulated = dev.record_kernel(stats);
        assert_eq!(simulated, dev.cost_model().simulated_time(&stats));
        assert_eq!(dev.profiler().total(), stats);
    }

    #[test]
    fn default_eval_is_ada_lovelace() {
        let dev = Device::default_eval();
        assert_eq!(dev.spec().rt_core_generation, RtCoreGeneration::Gen3);
    }
}

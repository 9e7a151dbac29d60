//! Cost model of the staged, parallel acceleration-structure build.
//!
//! A GPU driver builds a BVH with a *pipeline* of kernels — snapshot the
//! primitives, Morton-encode and sort them, emit the subtree hierarchies,
//! stitch the top levels, compact — not with one monolithic launch. This
//! module gives each stage a kernel-cost shape and charges the pipeline as
//! a whole ([`staged_build_cost`]) under a configurable
//! build-queue width: the data-parallel stages split their grid over
//! `workers` concurrent queues (the same width policy as
//! [`worker_count`](crate::worker_count), which also drives the host-side
//! execution in `rtx-bvh`), so the simulated wall time of a stage is the
//! cost of its critical-path chunk while the launch overhead is paid once
//! per kernel. Serial stages (the top-level stitch) never scale.
//!
//! The per-worker chunk still runs through the ordinary roofline
//! [`CostModel`](crate::CostModel), so scaling is *sub*-linear where it
//! should be: small chunks lose occupancy (and with it achieved bandwidth),
//! and the fixed per-launch overheads are unaffected by width — which is why
//! tiny builds see almost no speedup and large builds approach the queue
//! count.

use crate::profiler::KernelStats;
use crate::Device;

/// One stage of the staged build pipeline, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildStage {
    /// Snapshot the primitive buffer into build records (bounds, centroid,
    /// index).
    Snapshot,
    /// Morton-encode the centroids and radix-sort the records by code.
    MortonSort,
    /// Emit the per-subtree hierarchies over the sorted records.
    EmitSubtrees,
    /// Stitch the subtree roots together with the top-level interior nodes.
    Stitch,
    /// Compact the hierarchy into its tight footprint.
    Compact,
}

/// Number of pipeline stages.
pub const BUILD_STAGE_COUNT: usize = 5;

impl BuildStage {
    /// Every stage, in execution order.
    pub const ALL: [BuildStage; BUILD_STAGE_COUNT] = [
        BuildStage::Snapshot,
        BuildStage::MortonSort,
        BuildStage::EmitSubtrees,
        BuildStage::Stitch,
        BuildStage::Compact,
    ];

    /// Short display name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            BuildStage::Snapshot => "snapshot",
            BuildStage::MortonSort => "morton-sort",
            BuildStage::EmitSubtrees => "emit-subtrees",
            BuildStage::Stitch => "stitch",
            BuildStage::Compact => "compact",
        }
    }

    /// Position in [`BuildStage::ALL`].
    pub fn index(&self) -> usize {
        match self {
            BuildStage::Snapshot => 0,
            BuildStage::MortonSort => 1,
            BuildStage::EmitSubtrees => 2,
            BuildStage::Stitch => 3,
            BuildStage::Compact => 4,
        }
    }

    /// Whether the stage's grid is split over the concurrent build queues.
    /// The top-level stitch touches only the subtree roots and runs serial.
    fn is_parallel(&self) -> bool {
        !matches!(self, BuildStage::Stitch)
    }
}

/// Size of the work the pipeline runs over, from which every stage's kernel
/// shape derives.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildWork {
    /// Primitives in the build input.
    pub prims: u64,
    /// Bytes of the primitive buffer (36 per triangle, 16 per sphere, …).
    pub prim_buffer_bytes: u64,
    /// Bytes of the emitted hierarchy (nodes + primitive order).
    pub bvh_bytes: u64,
    /// Subtrees emitted by the parallel stage (1 when the build is one
    /// subtree).
    pub subtrees: u64,
    /// Whether the pipeline runs the Morton-sort stage (LBVH). A builder
    /// without it (SAH) skips that stage's charge and instead pays heavier
    /// emission — its top-down binning re-sorts every slice per level.
    pub morton_sort: bool,
}

/// Bytes of one snapshotted build record: 24-byte bounds + 12-byte centroid
/// + 4-byte primitive index.
const RECORD_BYTES: u64 = 40;

/// Bytes of one sort pair: 8-byte Morton code + 4-byte record index.
const SORT_PAIR_BYTES: u64 = 12;

/// Radix-sort passes over the 64-bit Morton codes (8-bit digits), matching
/// the `gpu_baselines` radix sort the SA/B+ builds are charged with.
const SORT_PASSES: u64 = 8;

/// The kernel-cost shape of one build stage.
fn stage_stats(stage: BuildStage, work: &BuildWork) -> KernelStats {
    let n = work.prims;
    let pair_bytes = n * SORT_PAIR_BYTES;
    match stage {
        // One pass over the primitive buffer, one record written per prim.
        BuildStage::Snapshot => KernelStats {
            threads_launched: n,
            kernel_launches: 1,
            instructions: n * 12,
            dram_bytes_read: work.prim_buffer_bytes,
            dram_bytes_written: n * RECORD_BYTES,
            ..KernelStats::new()
        },
        // Morton encoding plus the 8-pass LSD radix sort of (code, index)
        // pairs — the same family of sort behind the SA build.
        BuildStage::MortonSort => KernelStats {
            threads_launched: n,
            kernel_launches: 1 + SORT_PASSES,
            instructions: n * 30 + n * SORT_PASSES * 4,
            dram_bytes_read: n * RECORD_BYTES + pair_bytes * SORT_PASSES,
            dram_bytes_written: pair_bytes + pair_bytes * SORT_PASSES,
            ..KernelStats::new()
        },
        // Hierarchy emission: the builders stream the records a few times
        // (splits re-read their slice per level near the top) and write
        // the whole hierarchy once. Without a Morton pre-sort (SAH), the
        // emit additionally bins and re-sorts each slice along its split
        // axis at every level, which is why the quality builder is the
        // slower one.
        BuildStage::EmitSubtrees => {
            let (instr_per_prim, record_passes, launches) = if work.morton_sort {
                (90, 3, 1)
            } else {
                // The per-level binning and slice re-sorts replace the
                // Morton pre-sort — strictly more traffic and launches
                // than the radix passes they stand in for.
                (220, 10, 1 + SORT_PASSES + 1)
            };
            KernelStats {
                threads_launched: n,
                kernel_launches: launches,
                instructions: n * instr_per_prim,
                dram_bytes_read: n * RECORD_BYTES * record_passes,
                dram_bytes_written: work.bvh_bytes,
                ..KernelStats::new()
            }
        }
        // Top-level stitch: reads the subtree root nodes, writes the spine
        // interiors and the fixed-up child pointers.
        BuildStage::Stitch => KernelStats {
            threads_launched: work.subtrees.max(1),
            kernel_launches: 1,
            instructions: work.subtrees.max(1) * 64,
            dram_bytes_read: work.subtrees.max(1) * 64,
            dram_bytes_written: work.subtrees.max(1) * 64,
            ..KernelStats::new()
        },
        // Compaction copies the hierarchy into its tight allocation.
        BuildStage::Compact => KernelStats {
            threads_launched: n,
            kernel_launches: 1,
            instructions: n * 4,
            dram_bytes_read: work.bvh_bytes,
            dram_bytes_written: work.bvh_bytes,
            ..KernelStats::new()
        },
    }
}

/// Scales a stage's shape down to the critical-path chunk of one of
/// `workers` concurrent build queues. Launches are *not* divided: each
/// queue's launches overlap, so the overhead of the widest queue is what
/// the wall clock sees.
fn chunk_of(stats: &KernelStats, workers: u64) -> KernelStats {
    KernelStats {
        threads_launched: stats.threads_launched.div_ceil(workers),
        kernel_launches: stats.kernel_launches,
        instructions: stats.instructions.div_ceil(workers),
        dram_bytes_read: stats.dram_bytes_read.div_ceil(workers),
        dram_bytes_written: stats.dram_bytes_written.div_ceil(workers),
        ..*stats
    }
}

/// Simulated seconds of one stage executed across `workers` build queues.
fn stage_simulated_time(
    device: &Device,
    stage: BuildStage,
    stats: &KernelStats,
    workers: usize,
) -> f64 {
    let workers = effective_workers(stage, stats.threads_launched, workers);
    let chunk = chunk_of(stats, workers as u64);
    device.cost_model().simulated_time(&chunk).as_seconds()
}

/// The queue width a stage can actually use: serial stages run on one
/// queue, and no stage can use more queues than it has threads.
fn effective_workers(stage: BuildStage, threads: u64, workers: usize) -> usize {
    if !stage.is_parallel() {
        return 1;
    }
    workers.max(1).min(threads.max(1) as usize)
}

/// The simulated cost of one staged build.
#[derive(Debug, Clone, Copy, Default)]
pub struct StagedBuildCost {
    /// Simulated seconds per stage, indexed by [`BuildStage::index`].
    pub stage_s: [f64; BUILD_STAGE_COUNT],
    /// Sum over the stages.
    pub total_s: f64,
}

impl StagedBuildCost {
    /// Simulated seconds of one stage.
    pub fn stage(&self, stage: BuildStage) -> f64 {
        self.stage_s[stage.index()]
    }
}

/// Charges a staged build against `device`: computes each stage's simulated
/// time under `workers` concurrent build queues, records every stage kernel
/// (with its *full* counters — the profiler sees total work, the wall clock
/// sees the chunked critical path) and returns the per-stage cost.
/// `run_compaction` skips the compaction stage's charge when the build left
/// the structure uncompacted.
pub fn staged_build_cost(
    device: &Device,
    work: &BuildWork,
    workers: usize,
    run_compaction: bool,
) -> StagedBuildCost {
    let mut cost = StagedBuildCost::default();
    for stage in BuildStage::ALL {
        if matches!(stage, BuildStage::Compact) && !run_compaction {
            continue;
        }
        if matches!(stage, BuildStage::MortonSort) && !work.morton_sort {
            continue;
        }
        let stats = stage_stats(stage, work);
        let seconds = stage_simulated_time(device, stage, &stats, workers);
        device.profiler().record_kernel(stats);
        cost.stage_s[stage.index()] = seconds;
        cost.total_s += seconds;
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;

    fn work(prims: u64) -> BuildWork {
        BuildWork {
            prims,
            prim_buffer_bytes: prims * 36,
            bvh_bytes: prims * 24,
            subtrees: 64,
            morton_sort: true,
        }
    }

    #[test]
    fn stage_metadata_is_consistent() {
        assert_eq!(BuildStage::ALL.len(), BUILD_STAGE_COUNT);
        for (i, stage) in BuildStage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
            assert!(!stage.name().is_empty());
        }
        assert!(!BuildStage::Stitch.is_parallel());
        assert!(BuildStage::MortonSort.is_parallel());
    }

    #[test]
    fn more_workers_shrink_large_builds() {
        let device = Device::default_eval();
        let w = work(1 << 20);
        let serial = staged_build_cost(&device, &w, 1, true);
        let wide = staged_build_cost(&device, &w, 8, true);
        assert!(serial.total_s > 0.0);
        let speedup = serial.total_s / wide.total_s;
        assert!(
            speedup >= 3.0,
            "8 build queues must give at least 3x on 2^20 prims, got {speedup:.2}x"
        );
        assert!(speedup <= 8.0 + 1e-9, "cannot beat the queue count");
    }

    #[test]
    fn tiny_builds_are_overhead_dominated() {
        let device = Device::default_eval();
        let w = work(256);
        let serial = staged_build_cost(&device, &w, 1, true);
        let wide = staged_build_cost(&device, &w, 16, true);
        // Launch overhead is unaffected by queue width, so the speedup on a
        // tiny build stays small.
        assert!(serial.total_s / wide.total_s < 2.0);
    }

    #[test]
    fn stitch_never_scales_and_compaction_is_optional() {
        let device = Device::default_eval();
        let w = work(1 << 16);
        let serial = staged_build_cost(&device, &w, 1, true);
        let wide = staged_build_cost(&device, &w, 8, true);
        assert_eq!(
            serial.stage(BuildStage::Stitch),
            wide.stage(BuildStage::Stitch),
            "the stitch stage is serial"
        );
        let uncompacted = staged_build_cost(&device, &w, 8, false);
        assert_eq!(uncompacted.stage(BuildStage::Compact), 0.0);
        assert!(uncompacted.total_s < wide.total_s);
    }

    /// Kernel launches of `work`'s stages, skipping the Morton sort when
    /// the build has none.
    fn stage_launches(work: &BuildWork) -> u64 {
        BuildStage::ALL
            .iter()
            .filter(|&&stage| work.morton_sort || stage != BuildStage::MortonSort)
            .map(|&stage| stage_stats(stage, work).kernel_launches)
            .sum()
    }

    #[test]
    fn every_stage_kernel_is_recorded() {
        let device = Device::default_eval();
        let w = work(1024);
        let before = device.profiler().total().kernel_launches;
        let _ = staged_build_cost(&device, &w, 4, true);
        assert_eq!(
            device.profiler().total().kernel_launches - before,
            stage_launches(&w)
        );
    }

    #[test]
    fn sortless_builds_skip_the_morton_stage_but_pay_heavier_emission() {
        let device = Device::default_eval();
        let sorted = work(1 << 16);
        let sortless = BuildWork {
            morton_sort: false,
            ..sorted
        };
        let lbvh = staged_build_cost(&device, &sorted, 1, true);
        let before = device.profiler().total().kernel_launches;
        let sah = staged_build_cost(&device, &sortless, 1, true);
        assert_eq!(
            device.profiler().total().kernel_launches - before,
            stage_launches(&sortless),
            "no Morton-sort kernel without a Morton sort"
        );
        assert_eq!(sah.stage(BuildStage::MortonSort), 0.0);
        assert!(
            sah.stage(BuildStage::EmitSubtrees) > lbvh.stage(BuildStage::EmitSubtrees),
            "per-level slice sorting makes the sortless emission heavier"
        );
        assert!(
            sah.total_s >= lbvh.total_s,
            "the quality builder must not be cheaper overall"
        );
    }
}

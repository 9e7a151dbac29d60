//! Acceleration structures (`optixAccelBuild` / `optixAccelCompact` /
//! update).
//!
//! A [`GeometryAccel`] owns both the primitive buffer (the paper's "vertex
//! buffer", whose position encodes the rowID) and the BVH built over it.
//! The build reads its primitives from a [`BuildSource`] and, once the BVH
//! has fixed the leaf order, has the source write the one buffer the
//! structure keeps in **leaf-slot order** — entry `slot` is the primitive
//! of rowID `bvh.prim_indices[slot]` — so the candidates of one leaf share
//! a cache line or two. The rowID handed to any-hit and every modelled byte
//! count are those of the rowID-ordered buffer, which the host never holds
//! when the source computes its primitives on demand.
//! Device-memory usage of both parts is accounted against the owning
//! [`Device`]'s tracker, including the temporary scratch memory the build
//! consumes, so that Table 6 (footprint during vs. after build) can be
//! reproduced.

use gpu_device::build::{staged_build_cost, BuildWork, BUILD_STAGE_COUNT};
use gpu_device::{worker_count, Device, DeviceAlloc, KernelStats};
use rtx_bvh::{refit, BuildConfig, BuildPipeline, BuilderKind, Bvh};

use crate::build_input::{BuildInput, BuildSource, PrimitiveKind};

/// Options for `optixAccelBuild`, restricted to the flags RTIndeX uses.
#[derive(Debug, Clone, Copy)]
pub struct AccelBuildOptions {
    /// `OPTIX_BUILD_FLAG_ALLOW_UPDATE`: enables refitting updates and, like
    /// in OptiX, disables the effect of compaction.
    pub allow_update: bool,
    /// `OPTIX_BUILD_FLAG_ALLOW_COMPACTION`: run compaction right after the
    /// build (the paper compacts in all final configurations).
    pub compact: bool,
    /// Maximum primitives per BVH leaf.
    pub max_leaf_size: usize,
    /// Which builder the "driver" uses.
    pub builder: BuilderKind,
    /// Concurrent build queues the staged pipeline is simulated at;
    /// `None` uses the pool width ([`gpu_device::worker_count`]). The
    /// emitted structure never depends on this — only the simulated build
    /// time does.
    pub build_workers: Option<usize>,
}

impl Default for AccelBuildOptions {
    fn default() -> Self {
        AccelBuildOptions {
            allow_update: false,
            compact: true,
            max_leaf_size: 4,
            builder: BuilderKind::Lbvh,
            build_workers: None,
        }
    }
}

impl AccelBuildOptions {
    /// Returns options with updates allowed (and compaction therefore
    /// disabled).
    pub fn updatable() -> Self {
        AccelBuildOptions {
            allow_update: true,
            compact: false,
            ..Default::default()
        }
    }

    /// Returns options pinned to an explicit build-queue width.
    pub fn with_build_workers(mut self, workers: usize) -> Self {
        self.build_workers = Some(workers.max(1));
        self
    }
}

/// Metrics captured while building (or updating) an acceleration structure.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildMetrics {
    /// Host wall-clock time spent constructing the BVH.
    pub host_build_time: std::time::Duration,
    /// Simulated device time for the build kernel.
    pub simulated_time_s: f64,
    /// Simulated seconds per pipeline stage, indexed by
    /// [`gpu_device::build::BuildStage::index`]. All zero after a refitting
    /// update (refits are a single kernel, not a pipeline).
    pub stage_sim_s: [f64; BUILD_STAGE_COUNT],
    /// Build-queue width the staged pipeline was simulated at.
    pub build_workers: usize,
    /// Subtrees emitted by the parallel stage (0 for refits).
    pub subtree_count: usize,
    /// Bytes of temporary memory used during the build and released after.
    pub scratch_bytes: u64,
    /// Bytes reclaimed by compaction (0 when compaction did not run).
    pub compacted_bytes: u64,
}

/// A built geometry acceleration structure.
#[derive(Debug)]
pub struct GeometryAccel {
    input: BuildInput,
    bvh: Bvh,
    metrics: BuildMetrics,
    /// Device memory the primitive buffer occupies.
    prim_alloc: DeviceAlloc,
    /// Device memory the BVH occupies.
    bvh_alloc: DeviceAlloc,
}

impl GeometryAccel {
    /// Builds the acceleration structure (our `optixAccelBuild`) through
    /// the staged parallel pipeline: snapshot → Morton sort → parallel
    /// subtree emission over the worker pool → top-level stitch → optional
    /// compaction. Each stage is charged as a build kernel against the
    /// device's cost model, with the data-parallel stages split over the
    /// configured build-queue width, so simulated build throughput scales
    /// with [`gpu_device::worker_count`] (or the explicit
    /// [`AccelBuildOptions::build_workers`] override). The emitted
    /// structure is bit-identical at every width. The primitive buffer is
    /// written once, by `source`, after the hierarchy: in leaf-slot order.
    pub fn build(
        device: &Device,
        source: &dyn BuildSource,
        options: &AccelBuildOptions,
    ) -> GeometryAccel {
        let start = std::time::Instant::now();

        let config = BuildConfig {
            max_leaf_size: options.max_leaf_size,
            sah_bins: 16,
            allow_update: options.allow_update,
            builder: options.builder,
        };
        let workers = options.build_workers.unwrap_or_else(worker_count).max(1);

        // Temporary build scratch: GPU builders need roughly another copy of
        // the primitive data plus sort space. Model it as 2x the primitive
        // buffer, held only for the duration of the build.
        let prims = source.primitives();
        let scratch_bytes = prims.bytes_per_primitive() * prims.len() as u64 * 2;
        let scratch = device.reserve(scratch_bytes);

        let staged = BuildPipeline::new(config).with_workers(workers).run(prims);
        let mut bvh = staged.bvh;
        let mut compacted_bytes = 0;
        if options.compact {
            compacted_bytes = bvh.compact();
        }

        // The one primitive buffer, in leaf-slot order for the traversal.
        let input = source.gather_input(&bvh.prim_indices);

        let host_build_time = start.elapsed();
        drop(scratch);

        // Account the persistent allocations.
        let prim_alloc = device.reserve(input.primitive_buffer_bytes());
        let bvh_alloc = device.reserve(bvh.memory_bytes());

        // Charge the staged pipeline to the device. The BVH build remains a
        // multi-kernel pipeline that touches the primitive buffer several
        // times and writes the whole hierarchy — noticeably more work than
        // the single radix sort behind the SA/B+ builds, which is why RX
        // has the slowest build in Figure 10c.
        let work = BuildWork {
            prims: input.len() as u64,
            prim_buffer_bytes: input.primitive_buffer_bytes(),
            bvh_bytes: Bvh::tight_bytes_for(bvh.node_count(), bvh.primitive_count()),
            subtrees: staged.subtree_count.max(1) as u64,
            morton_sort: matches!(options.builder, BuilderKind::Lbvh),
        };
        let cost = staged_build_cost(device, &work, workers, options.compact);

        let metrics = BuildMetrics {
            host_build_time,
            simulated_time_s: cost.total_s,
            stage_sim_s: cost.stage_s,
            build_workers: workers,
            subtree_count: staged.subtree_count,
            scratch_bytes,
            compacted_bytes,
        };

        GeometryAccel {
            input,
            bvh,
            metrics,
            prim_alloc,
            bvh_alloc,
        }
    }

    /// Number of primitives in the structure.
    pub fn primitive_count(&self) -> usize {
        self.input.len()
    }

    /// The primitive kind of the underlying build input.
    pub fn kind(&self) -> PrimitiveKind {
        self.input.kind()
    }

    /// The primitive buffer, in leaf-slot order: entry `slot` is the
    /// primitive of rowID `self.bvh().prim_indices[slot]`.
    pub fn input(&self) -> &BuildInput {
        &self.input
    }

    /// The underlying BVH.
    pub fn bvh(&self) -> &Bvh {
        &self.bvh
    }

    /// Build metrics of the most recent build or update.
    pub fn metrics(&self) -> &BuildMetrics {
        &self.metrics
    }

    /// Total device memory the structure occupies right now (primitive
    /// buffer + BVH).
    pub fn memory_bytes(&self) -> u64 {
        self.prim_alloc.bytes() + self.bvh_alloc.bytes()
    }

    /// Bytes the host copy of the structure occupies: its BVH nodes plus its
    /// primitive buffer, what a traversal reads. [`Route::for_accel`]
    /// holds it against the host's caches.
    ///
    /// [`Route::for_accel`]: crate::pipeline::Route::for_accel
    pub fn host_bytes(&self) -> usize {
        let prims = match &self.input {
            BuildInput::Triangles(t) => std::mem::size_of_val(t.triangles()),
            BuildInput::Spheres(s) => std::mem::size_of_val(s.centers()),
            BuildInput::Aabbs(a) => std::mem::size_of_val(a.boxes()),
        };
        std::mem::size_of_val(&self.bvh.nodes[..]) + prims
    }

    /// Performs a refitting update (our
    /// `optixAccelBuild(OPTIX_BUILD_OPERATION_UPDATE)`): replaces the
    /// primitive buffer with the primitives of `source` (same primitive
    /// count, same kind) and refits the existing BVH without rebuilding its
    /// topology.
    pub fn update(&mut self, device: &Device, source: &dyn BuildSource) -> Result<(), String> {
        if source.kind() != self.input.kind() {
            return Err(format!(
                "update cannot change the primitive type ({:?} -> {:?})",
                self.input.kind(),
                source.kind()
            ));
        }
        let prims = source.primitives();
        refit::check_refit(&self.bvh, prims.len()).map_err(|e| e.to_string())?;
        let start = std::time::Instant::now();

        // Updates also require temporary memory (the OptiX documentation's
        // "updates still require additional temporary memory").
        let scratch_bytes = prims.bytes_per_primitive() * prims.len() as u64;
        let scratch = device.reserve(scratch_bytes);

        // The topology is fixed, so the new buffer is written in the same
        // leaf-slot order the build chose.
        self.input = source.gather_input(&self.bvh.prim_indices);
        refit::refit(&mut self.bvh, self.input.as_primitive_set()).map_err(|e| e.to_string())?;
        drop(scratch);

        let n = self.input.len() as u64;
        // The whole primitive buffer is passed to the update routine, so the
        // cost is independent of how many primitives actually moved.
        let update_stats = KernelStats {
            threads_launched: n,
            kernel_launches: 1,
            instructions: n * 20,
            dram_bytes_read: self.input.primitive_buffer_bytes() * 2,
            dram_bytes_written: self.bvh.memory_bytes(),
            ..KernelStats::new()
        };
        let simulated = device.record_kernel(update_stats);

        self.metrics = BuildMetrics {
            host_build_time: start.elapsed(),
            simulated_time_s: simulated.as_seconds(),
            scratch_bytes,
            ..BuildMetrics::default()
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtx_math::Vec3f;

    fn centers(n: usize) -> Vec<Vec3f> {
        (0..n).map(|i| Vec3f::new(i as f32, 0.0, 0.0)).collect()
    }

    #[test]
    fn build_produces_valid_structure_and_accounts_memory() {
        let device = Device::default_eval();
        let gas = GeometryAccel::build(
            &device,
            &BuildInput::from_centers(PrimitiveKind::Triangle, &centers(1000)),
            &AccelBuildOptions::default(),
        );
        assert_eq!(gas.primitive_count(), 1000);
        assert_eq!(gas.kind(), PrimitiveKind::Triangle);
        gas.bvh().validate().expect("valid BVH");
        assert!(gas.memory_bytes() > 0);
        assert_eq!(device.memory().current_bytes(), gas.memory_bytes());
        // Peak includes the build scratch.
        assert!(device.memory().peak_bytes() > gas.memory_bytes());
        assert!(gas.metrics().compacted_bytes > 0, "default options compact");
        assert!(gas.metrics().simulated_time_s > 0.0);
    }

    #[test]
    fn compaction_shrinks_footprint() {
        let device = Device::default_eval();
        let input = BuildInput::from_centers(PrimitiveKind::Triangle, &centers(4096));
        let uncompacted = GeometryAccel::build(
            &device,
            &input,
            &AccelBuildOptions {
                compact: false,
                ..Default::default()
            },
        );
        let compacted = GeometryAccel::build(&device, &input, &AccelBuildOptions::default());
        assert!(compacted.memory_bytes() < uncompacted.memory_bytes());
    }

    #[test]
    fn sphere_footprint_smaller_than_triangle_footprint() {
        let device = Device::default_eval();
        let c = centers(4096);
        let tri = GeometryAccel::build(
            &device,
            &BuildInput::from_centers(PrimitiveKind::Triangle, &c),
            &AccelBuildOptions::default(),
        );
        let sph = GeometryAccel::build(
            &device,
            &BuildInput::from_centers(PrimitiveKind::Sphere, &c),
            &AccelBuildOptions::default(),
        );
        // The primitive buffer dominates the difference: 36 vs 12 bytes/key.
        assert!(sph.input().primitive_buffer_bytes() < tri.input().primitive_buffer_bytes());
    }

    #[test]
    fn update_refits_and_rejects_kind_changes() {
        let device = Device::default_eval();
        let mut gas = GeometryAccel::build(
            &device,
            &BuildInput::from_centers(PrimitiveKind::Triangle, &centers(128)),
            &AccelBuildOptions::updatable(),
        );
        // Move every key by +1000: same count, same kind -> ok.
        let moved: Vec<Vec3f> = (0..128)
            .map(|i| Vec3f::new(1000.0 + i as f32, 0.0, 0.0))
            .collect();
        gas.update(
            &device,
            &BuildInput::from_centers(PrimitiveKind::Triangle, &moved),
        )
        .expect("update succeeds");
        assert!(gas
            .bvh()
            .root_bounds()
            .contains_point(Vec3f::new(1064.0, 0.0, 0.0)));

        let err = gas
            .update(
                &device,
                &BuildInput::from_centers(PrimitiveKind::Sphere, &moved),
            )
            .expect_err("kind change must fail");
        assert!(err.contains("primitive type"));
    }

    #[test]
    fn update_requires_updatable_build() {
        let device = Device::default_eval();
        let mut gas = GeometryAccel::build(
            &device,
            &BuildInput::from_centers(PrimitiveKind::Triangle, &centers(16)),
            &AccelBuildOptions::default(),
        );
        let err = gas
            .update(
                &device,
                &BuildInput::from_centers(PrimitiveKind::Triangle, &centers(16)),
            )
            .expect_err("non-updatable build");
        assert!(err.contains("allow-update"));
    }

    #[test]
    fn build_records_one_kernel_per_pipeline_stage() {
        let device = Device::default_eval();
        let before = device.profiler().total();
        let gas = GeometryAccel::build(
            &device,
            &BuildInput::from_centers(PrimitiveKind::Aabb, &centers(64)),
            &AccelBuildOptions::default(),
        );
        let after = device.profiler().total();
        // The default LBVH build runs all BUILD_STAGE_COUNT stages: snapshot
        // (1 launch), Morton encode + 8 radix passes (9), emit (1), stitch (1)
        // and compact (1), each charged exactly once.
        assert_eq!(gpu_device::BUILD_STAGE_COUNT, 5);
        assert_eq!(after.kernel_launches - before.kernel_launches, 13);
        assert!(after.dram_bytes_written > before.dram_bytes_written);
        // Every executed stage contributes simulated time that sums to the
        // total.
        let m = gas.metrics();
        assert!(m.stage_sim_s.iter().all(|&s| s > 0.0));
        assert!((m.stage_sim_s.iter().sum::<f64>() - m.simulated_time_s).abs() < 1e-12);
        assert!(m.subtree_count >= 1);
        assert!(m.build_workers >= 1);
    }

    #[test]
    fn wider_build_queues_shrink_simulated_build_time_only() {
        let device = Device::default_eval();
        let input = BuildInput::from_centers(PrimitiveKind::Triangle, &centers(1 << 16));
        let serial = GeometryAccel::build(
            &device,
            &input,
            &AccelBuildOptions::default().with_build_workers(1),
        );
        let wide = GeometryAccel::build(
            &device,
            &input,
            &AccelBuildOptions::default().with_build_workers(8),
        );
        assert!(
            wide.metrics().simulated_time_s < serial.metrics().simulated_time_s,
            "8 build queues must beat 1"
        );
        // The emitted structure is identical at every width.
        assert_eq!(serial.bvh().nodes, wide.bvh().nodes);
        assert_eq!(serial.bvh().prim_indices, wide.bvh().prim_indices);
    }
}

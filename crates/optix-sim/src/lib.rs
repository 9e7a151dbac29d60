//! # optix-sim
//!
//! An OptiX-shaped raytracing API executed entirely in software on the
//! [`gpu_device`] performance model.
//!
//! RTIndeX uses a small slice of the OptiX 7 API surface; this crate
//! reproduces exactly that slice with the same semantics:
//!
//! * [`DeviceContext`] — owns the simulated device (`optixDeviceContextCreate`),
//! * [`BuildInput`] — triangle / sphere / AABB build inputs, and the
//!   [`BuildSource`] a build reads its primitives from,
//! * [`AccelBuildOptions`] / [`GeometryAccel`] — `optixAccelBuild`,
//!   `optixAccelCompact` and refitting updates,
//! * pipeline-style launches via [`launch`]: a ray-generation program emits
//!   the rays of its launch index into a [`RayQueue`] (our `optixTrace`), an
//!   any-hit program receives every intersection along with the primitive
//!   index (= rowID), and a finish program turns the per-ray payloads into
//!   the index's output,
//! * [`AccessClassifier`] — a measured memory-locality model that attributes
//!   traversal traffic to L1/L2/DRAM, feeding the cost model the same way
//!   Nsight counters inform the paper's analysis.
//!
//! What is intentionally *not* reproduced: shader binding tables, motion
//! blur, instancing, curves, and denoising — none of which the paper uses.

pub mod accel;
pub mod build_input;
pub mod context;

pub mod pipeline;

pub use accel::{AccelBuildOptions, BuildMetrics, GeometryAccel};
pub use build_input::{BuildInput, BuildSource, PrimitiveKind};
pub use context::DeviceContext;
pub use gpu_device::AccessClassifier;
pub use pipeline::{
    launch, launch_routed, FinishCtx, LaunchMetrics, ProgramSet, RayQueue, Route, StageTimes,
    INTERLEAVE_MIN_HOST_BYTES, TILE_RAYS, TINY_LAUNCH_RAYS,
};

// Re-export the pieces callers constantly need alongside this API.
pub use gpu_device::{Device, DeviceSpec, KernelStats, SimulatedTime};
pub use rtx_bvh::AnyHitControl;
pub use rtx_math::{Ray, Vec3f};

//! # rtx-bvh
//!
//! Bounding volume hierarchies: the data structure behind `optixAccelBuild`.
//!
//! NVIDIA does not document the BVH its driver builds, so this crate provides
//! two standard GPU-style builders whose externally visible properties match
//! everything the RTIndeX paper relies on:
//!
//! * [`build_sah`] — a binned surface-area-heuristic
//!   builder (higher quality, slower build),
//! * [`build_lbvh`] — a Morton-code (LBVH) builder in
//!   the spirit of what GPU drivers run (fast, slightly lower quality).
//!
//! On top of the builders the crate implements the three operations OptiX
//! exposes for acceleration structures:
//!
//! * **traversal** with any-hit semantics ([`traverse()`]) including traversal
//!   statistics (nodes visited, box tests, primitive tests, early aborts),
//!   and the same walk for many rays at once ([`traverse_interleaved`]),
//!   which hides memory latency on hierarchies larger than the host's
//!   caches,
//! * **compaction** ([`Bvh::compact`]) which removes the build-time slack
//!   from the structure's memory footprint,
//! * **refitting updates** ([`refit`](crate::refit::refit)) which adjust the
//!   existing bounding volumes to moved primitives without changing the tree
//!   topology — including the quality degradation the paper observes when
//!   too many primitives move (Table 4).

pub mod builder;
pub mod node;
pub mod pipeline;
pub mod primitives;
pub mod quality;
pub mod refit;
pub mod traverse;

pub use builder::{build_lbvh, build_sah, BuildConfig, BuilderKind};
pub use node::{Bvh, BvhNode};
pub use pipeline::{BuildPipeline, PipelineBuild, DEFAULT_TARGET_SUBTREES};
pub use primitives::{AabbSet, PrimitiveSet, SphereSet, TriangleSet};
pub use quality::BvhQuality;
pub use traverse::{
    prefetch, traverse, traverse_interleaved, AnyHitControl, TraversalStats, LANES,
};

//! # rtindex-core
//!
//! RTIndeX (RX): a GPU secondary index that re-phrases database indexing as a
//! raytracing problem, reproduced from
//! *"RTIndeX: Exploiting Hardware-Accelerated GPU Raytracing for Database
//! Indexing"* (PVLDB 16, 2023).
//!
//! Every key of an indexed column becomes a scene primitive whose position in
//! the primitive buffer is the key's rowID; a bounding volume hierarchy over
//! the scene is the index; lookups are rays whose intersections (reported to
//! an any-hit program) are the qualifying rowIDs.
//!
//! The crate exposes the paper's five configuration dimensions:
//!
//! 1. **Key representation** — [`KeyMode`]: Naive, Extended or 3D (with a
//!    configurable [`Decomposition`]),
//! 2. **Primitive type** — triangles, spheres or AABBs
//!    ([`optix_sim::PrimitiveKind`]),
//! 3. **Ray shape** — [`PointRayStrategy`] / [`RangeRayStrategy`],
//! 4. **Key decomposition** — [`Decomposition`],
//! 5. **Updates** — refitting ([`RtIndex::update_keys`]) vs. rebuild
//!    ([`RtIndex::rebuild`]).
//!
//! ```
//! use gpu_device::Device;
//! use rtindex_core::{RtIndex, RtIndexConfig};
//!
//! let device = Device::default_eval();
//! let keys: Vec<u64> = vec![26, 25, 29, 23, 29, 27];
//! let index = RtIndex::build(&device, &keys, RtIndexConfig::default()).unwrap();
//! let out = index.range_lookup_batch(&[(23, 25)], None).unwrap();
//! assert_eq!(out.results[0].hit_count, 2); // rowIDs 1 and 3
//! ```

pub mod adapter;
pub mod config;
pub mod decomposition;
pub mod error;
pub mod index;
pub mod key_mode;
mod key_scene;
pub mod ray_strategy;
pub mod typed;

pub use adapter::{register_rx, RxAdapter};
pub use config::RtIndexConfig;
pub use decomposition::Decomposition;
pub use error::RtIndexError;
pub use index::{PendingIndexBuild, RtIndex};
pub use key_mode::KeyMode;
pub use ray_strategy::{PointRayStrategy, RangeRayStrategy};
pub use typed::TypedRtIndex;

// Re-export the kinds callers configure the index with.
pub use optix_sim::PrimitiveKind;
pub use rtx_bvh::BuilderKind;

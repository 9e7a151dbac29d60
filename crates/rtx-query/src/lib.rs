//! # rtx-query
//!
//! The backend-agnostic secondary-index query API of the RTIndeX
//! reproduction.
//!
//! The paper evaluates RX against three GPU baselines on identical
//! workloads; this crate is the single interface all of them (and the
//! dynamic delta index) are driven through:
//!
//! * [`SecondaryIndex`] — the read-only backend trait: one mixed-batch
//!   execution method, [`execute_in`](SecondaryIndex::execute_in) over a
//!   reusable [`ExecArena`] (with [`execute`](SecondaryIndex::execute) and
//!   [`execute_typed`](SecondaryIndex::execute_typed) provided on top of
//!   it), memory/build metadata and [`Capabilities`] flags (range lookups,
//!   duplicate keys, 64-bit keys, updates);
//! * [`UpdatableIndex`] — the write extension (batched insert / delete /
//!   upsert); [`IndexBackend`] holds a boxed backend of either kind;
//! * [`QueryBatch`] — one submission mixing point lookups, range lookups
//!   and an optional value-column fetch, stored as the dense point and
//!   range runs a launch consumes, with configurable chunked execution for
//!   large batches;
//! * [`FusedBatch`] — cross-client coalescing: fuse many small client
//!   batches into one large submission and split the fused outcome back
//!   per client (the pure half of the `rtx-serve` service);
//! * [`IndexError`] — the unified error type every backend converts its
//!   native errors into;
//! * [`Registry`] / [`IndexSpec`] — the factory that builds any backend by
//!   name ("RX", "HT", "B+", "SA", "RXD"). Backend crates register their
//!   builders at runtime (this crate cannot depend on them — they depend
//!   on it); `rtx_harness::registry()` composes the default registry
//!   holding all five;
//! * [`TableSchema`] / [`IngestBatch`] / [`TableQuery`] /
//!   [`ExplainPlan`] — the multi-column table vocabulary ([`table`]):
//!   named columns with per-column index specs, CDC ingest operations and
//!   multi-predicate queries, consumed by the `rtx-table` subsystem.
//!
//! * [`KeySchema`] / [`TypedBatch`] — typed composite keys ([`keys`]):
//!   multi-column `u8/u16/u32/u64/i64/str<N>` schemas, order-preserving
//!   byte encoding, and typed point / range / prefix-range queries that
//!   compile into the 1-D `u64` key space before any backend sees them
//!   (the [`composite`] wrapper handles multi-limb schemas).
//!
//! The canonical result types ([`MISS`], [`LookupResult`],
//! [`BatchOutcome`]) live here and **only** here — the historical
//! re-exports from `rtindex-core` and `gpu-baselines` were removed once
//! every caller migrated (see the DESIGN.md migration note).
//!
//! ```
//! use rtx_query::QueryBatch;
//!
//! // One submission mixing points and ranges; executed via
//! // `SecondaryIndex::execute` on any backend built by the registry.
//! let batch = QueryBatch::new()
//!     .points([23, 29, 31])
//!     .range(25, 27)
//!     .fetch_values(true)
//!     .with_chunk_size(1 << 20);
//! assert_eq!(batch.len(), 4);
//! ```

pub mod arena;
pub mod batch;
pub mod composite;
pub mod error;
pub mod fuse;
pub mod index;
pub mod keys;
pub mod mirror;
pub mod registry;
pub mod shard;
pub mod table;
pub mod types;

pub use arena::{ArenaPool, ExecArena};
pub use batch::{QueryBatch, QueryOp, QueryOps};
pub use composite::{crc32, CompositeIndex};
pub use error::IndexError;
pub use fuse::{FusedBatch, FusedSlice, SharedOutcome};
pub use index::{IndexBackend, SecondaryIndex, UpdatableIndex};
pub use keys::{
    ColumnType, EncodedKey, EncodedRange, KeyBound, KeySchema, KeyTuple, KeyValue, TypedBatch,
    TypedOp,
};
pub use mirror::RowMirror;
pub use registry::{
    DurabilitySpec, DurableBuilder, IndexBuilder, IndexSpec, Registry, ShardedBuilder, SpecName,
};

// The builder-selection grammar (`"RX:sah"`, `"RX:lbvh"`) names this enum;
// re-exported so callers need not depend on `rtx-bvh` directly.
pub use rtx_bvh::BuilderKind;
pub use shard::{
    check_shard_count, KeyRouter, Partitioning, RebalanceReport, ScatterPlan, ShardLoad, ShardSpec,
    MAX_SHARDS,
};
pub use table::{
    Candidate, ExplainPlan, IndexDef, IngestBatch, IngestOp, PlanChoice, Predicate, Record, Route,
    TableQuery, TableSchema,
};
pub use types::{
    compose_renumbering, BatchOutcome, Capabilities, DurableStats, IndexBuildMetrics, LookupResult,
    MemoryUsage, QueryOutcome, UpdateReport, MISS,
};

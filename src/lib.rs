//! # rtindex
//!
//! A Rust reproduction of *"RTIndeX: Exploiting Hardware-Accelerated GPU
//! Raytracing for Database Indexing"* (PVLDB 16, 2023).
//!
//! RTIndeX (RX) answers point and range lookups on a GPU-resident column by
//! turning every key into a 3-D scene primitive and every lookup into a ray:
//! the bounding volume hierarchy the raytracing driver builds over the scene
//! *is* the index, and intersection tests — executed by dedicated raytracing
//! cores on real hardware — are the lookups.
//!
//! No RTX GPU is required (or used) here: the raytracing pipeline, the BVH
//! and the GPU itself are simulated in software by the crates this facade
//! re-exports. See `DESIGN.md` for the substitution argument and the
//! `rtx-harness` crate for how the paper's evaluation is reproduced.
//!
//! ## Quick start
//!
//! Every backend — RX, the three GPU baselines and the dynamic delta index —
//! is built by name from the [`Registry`] and queried through the
//! [`SecondaryIndex`] trait with mixed [`QueryBatch`]es (one batch layout,
//! one execution method — [`SecondaryIndex::execute_in`], with
//! [`execute`](SecondaryIndex::execute) as its throwaway-arena convenience):
//!
//! ```
//! use rtindex::{registry, Device, IndexSpec, QueryBatch};
//!
//! // The simulated GPU (an RTX 4090 by default).
//! let device = Device::default_eval();
//!
//! // A secondary index over a (key, value) column pair; the position of a
//! // key is its rowID.
//! let category = vec![26u64, 25, 29, 23, 29, 27];
//! let prices = vec![10u64, 20, 30, 40, 50, 60];
//! let index = registry()
//!     .build("RX", &IndexSpec::with_values(&device, &category, &prices))
//!     .unwrap();
//!
//! // One submission mixing a range lookup, point lookups and a value fetch.
//! let out = index
//!     .execute(&QueryBatch::new().range(23, 25).point(29).fetch_values(true))
//!     .unwrap();
//! assert_eq!(out.results[0].hit_count, 2); // rowIDs 3 and 1 (Figure 1)
//! assert_eq!(out.results[1].value_sum, 30 + 50); // both rows holding 29
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`rtx_math`] | float32 geometry, intersection tests, order-preserving key encodings |
//! | [`gpu_device`] | the simulated GPU: specs, memory accounting, counters, cost model |
//! | [`rtx_bvh`] | BVH builders, compaction, refitting, traversal |
//! | [`optix_sim`] | the OptiX-shaped pipeline API (accel build, ray-gen / any-hit programs) |
//! | [`rtx_query`] | the backend-agnostic query API: `SecondaryIndex`, `QueryBatch`, registry |
//! | [`rtindex_core`] | the RX index itself (key modes, primitives, ray strategies, lookups, updates) |
//! | [`rtx_delta`] | dynamic updates: delta buffer, tombstones, auto-compaction |
//! | [`gpu_baselines`] | the HT / B+ / SA baselines and the radix sort |
//! | [`rtx_workloads`] | workload generators and ground-truth oracles |
//! | [`rtx_shard`] | the sharded execution layer: partition any backend, scatter/gather batches |
//! | [`rtx_serve`] | the concurrent query service: cross-client coalescing, admission control, fenced writes |
//! | [`rtx_table`] | the multi-index table layer: SoA row store, transactional CDC ingest, cost-based planner |
//! | [`rtx_harness`] | the experiment harness reproducing every table and figure |
//!
//! ## Sharding
//!
//! Append `@N` (optionally `:hash` / `:range`) to any backend name and the
//! registry builds it partitioned over `N` shards, with mixed batches
//! scattered across the worker pool and gathered back in submission order —
//! same results, parallel execution:
//!
//! ```
//! use rtindex::{registry, Device, IndexSpec, QueryBatch};
//!
//! let device = Device::default_eval();
//! let keys: Vec<u64> = (0..4096).collect();
//! let sharded = registry()
//!     .build("RX@4", &IndexSpec::keys_only(&device, &keys))
//!     .unwrap();
//! let out = sharded
//!     .execute(&QueryBatch::new().point(77).range(1000, 1099))
//!     .unwrap();
//! assert_eq!(out.results[0].first_row, 77);
//! assert_eq!(out.results[1].hit_count, 100);
//! ```
//!
//! ## Serving concurrent clients
//!
//! [`QueryService`] puts a concurrent front-end on any backend: clients
//! submit small batches from many threads, a coalescer thread fuses them
//! into large backend submissions (recovering the paper's batch-size
//! advantage), and admission control turns overload into backpressure:
//!
//! ```
//! use rtindex::{registry, Device, IndexSpec, QueryBatch, QueryService, ServiceConfig};
//!
//! let device = Device::default_eval();
//! let keys: Vec<u64> = (0..4096).collect();
//! let backend = registry()
//!     .build("RX@2", &IndexSpec::keys_only(&device, &keys))
//!     .unwrap();
//! let service = QueryService::start(backend, ServiceConfig::default());
//! std::thread::scope(|scope| {
//!     for client in 0..8u64 {
//!         let handle = service.handle();
//!         scope.spawn(move || {
//!             let out = handle.query(QueryBatch::new().point(client * 512)).unwrap();
//!             assert!(out.results[0].is_hit());
//!         });
//!     }
//! });
//! assert_eq!(service.stats().submitted_batches, 8);
//! ```
//!
//! ## Tables & planning
//!
//! A [`Table`] owns a multi-column row store plus any number of named
//! indexes built from per-column registry specs; CDC [`IngestBatch`]es
//! apply transactionally across all of them, and a cost-based planner
//! routes each [`TableQuery`] predicate to the cheapest eligible index. A
//! query's outcome carries the routes; [`Table::explain`] renders the
//! reasoning behind them as an [`ExplainPlan`] on request:
//!
//! ```
//! use std::sync::Arc;
//! use rtindex::{registry, Device, IngestBatch, Table, TableQuery, TableSchema};
//!
//! let schema = TableSchema::new(["id", "ts", "amount"])
//!     .with_value_column("amount")
//!     .with_index("id_ht", "id", "HT")     // points → hash table
//!     .with_index("ts_rx", "ts", "RX");    // ranges → raytracing index
//! let records: Vec<Vec<u64>> = (0..512).map(|k| vec![k, k * 3, k * 7]).collect();
//! let mut table =
//!     Table::load(schema, &Device::default_eval(), Arc::new(registry()), &records).unwrap();
//!
//! table
//!     .ingest(&IngestBatch::new().upsert(vec![7, 9999, 70]).delete(8))
//!     .unwrap();
//! let out = table
//!     .query(&TableQuery::new().point("id", 7).range("ts", 0, 300).fetch_values(true))
//!     .unwrap();
//! assert_eq!(out.plan.routed_index(0), Some("id_ht"));
//! assert_eq!(out.plan.routed_index(1), Some("ts_rx"));
//! assert_eq!(out.results[0].value_sum, 70);
//! let explained = table.explain(&TableQuery::new().point("id", 7)).unwrap();
//! assert_eq!(explained.choices[0].candidates.len(), 1);
//! ```
//!
//! ## Dynamic updates
//!
//! The `"RXD"` backend layers a mutable delta (GPU hash buffer + tombstones)
//! over the immutable BVH and compacts automatically; the registry builds it
//! as an [`UpdatableIndex`]:
//!
//! ```
//! use rtindex::{registry, Device, IndexSpec, QueryBatch};
//!
//! let device = Device::default_eval();
//! let mut index = registry()
//!     .build_updatable(
//!         "RXD",
//!         &IndexSpec::with_values(&device, &[26, 25, 29], &[0, 1, 2]),
//!     )
//!     .unwrap();
//! index.insert(&[23], &[3]).unwrap();
//! index.delete(&[29]).unwrap();
//! let out = index.execute(&QueryBatch::of_points(&[23, 29])).unwrap();
//! assert!(out.results[0].is_hit() && !out.results[1].is_hit());
//! ```

pub use gpu_baselines;
pub use gpu_device;
pub use optix_sim;
pub use rtindex_core;
pub use rtx_bvh;
pub use rtx_delta;
pub use rtx_durable;
pub use rtx_harness;
pub use rtx_math;
pub use rtx_query;
pub use rtx_serve;
pub use rtx_shard;
pub use rtx_table;
pub use rtx_workloads;

// The most commonly used items, flattened for convenience.
pub use gpu_baselines::{BPlusTree, GpuIndex, SortedArray, WarpHashTable};
pub use gpu_device::{Device, DeviceSpec};
pub use rtindex_core::{
    Decomposition, KeyMode, PointRayStrategy, PrimitiveKind, RangeRayStrategy, RtIndex,
    RtIndexConfig, RtIndexError, TypedRtIndex,
};
pub use rtx_delta::{
    CompactionEvent, CompactionPolicy, CompactionTrigger, DynamicRtConfig, DynamicRtIndex,
};
pub use rtx_durable::{DurableConfig, DurableIndex, FsyncPolicy};
pub use rtx_harness::registry;
pub use rtx_query::{
    BatchOutcome, Capabilities, ColumnType, CompositeIndex, DurableStats, ExecArena, ExplainPlan,
    FusedBatch, IndexBackend, IndexDef, IndexError, IndexSpec, IngestBatch, IngestOp, KeyBound,
    KeySchema, KeyTuple, KeyValue, LookupResult, MemoryUsage, Partitioning, Predicate, QueryBatch,
    QueryOps, QueryOutcome, RebalanceReport, Record, Registry, Route, SecondaryIndex, ShardLoad,
    ShardSpec, SharedOutcome, SpecName, TableQuery, TableSchema, TypedBatch, TypedOp,
    UpdatableIndex, MISS,
};
pub use rtx_serve::{
    ClientHandle, PendingQuery, PendingTableQuery, QueryService, RebalanceConfig, ServeError,
    ServiceConfig, ServiceStats, TableClient, TableService,
};
pub use rtx_shard::{install_sharding, HashPartitioner, RangePartitioner, ShardedIndex};
pub use rtx_table::{IngestReport, Planner, RoutePlan, Table, TableOutcome, TableStats};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_reexports_are_usable() {
        let device = Device::default_eval();
        let index = RtIndex::build(&device, &[5, 1, 9], RtIndexConfig::default()).unwrap();
        let out = index.point_lookup_batch(&[1, 2], None).unwrap();
        assert_eq!(out.results[0].first_row, 1);
        assert_eq!(out.results[1].first_row, MISS);
    }

    #[test]
    fn registry_facade_builds_every_backend() {
        let device = Device::default_eval();
        let registry = registry();
        assert_eq!(registry.backends().len(), 5);
        let keys = vec![3u64, 1, 4, 1, 5];
        for name in registry.backends() {
            match registry.build(name, &IndexSpec::keys_only(&device, &keys)) {
                Ok(ix) => {
                    let out = ix.execute(&QueryBatch::of_points(&[1, 9])).unwrap();
                    assert_eq!(out.results[0].hit_count, 2, "{name}");
                    assert!(!out.results[1].is_hit(), "{name}");
                }
                // B+ rejects the duplicate key 1.
                Err(err) => assert!(err.is_unsupported_key_set(), "{name}: {err}"),
            }
        }
    }
}

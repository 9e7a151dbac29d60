//! # rtx-workloads
//!
//! Deterministic workload generators for the RTIndeX evaluation.
//!
//! Every experiment in the paper is described by (a) a key set and (b) a
//! batch of lookups over it. This crate generates both, covering all nine
//! experimental dimensions:
//!
//! * [`keyset`] — dense shuffled key sets, strided key sets (Figure 3b),
//!   sparse uniform key sets, key multiplicity (Figure 11), sorted vs.
//!   shuffled order (Figure 12), 32-bit vs. 64-bit domains (Figure 15),
//! * [`lookups`] — point-lookup batches with a configurable hit rate
//!   (Figure 14), Zipf-skewed lookups (Figure 16), range lookups with a
//!   target number of qualifying entries (Figures 9, 17), sorted lookup
//!   batches (Figure 12), batch splitting (Figure 13),
//! * [`zipf`] — the Zipf sampler used for skewed workloads,
//! * [`mixed`] — interleaved insert/delete/upsert/lookup operation streams
//!   (uniform and Zipf-skewed) for the dynamic-update layer,
//! * [`truth`] — ground-truth answers (hit sets and value sums) computed
//!   with plain hash maps, used to verify every index implementation —
//!   including [`truth::DynamicOracle`] for dynamic workloads,
//! * [`tables`] — multi-column record streams, CDC
//!   [`IngestBatch`](rtx_query::IngestBatch) generators, mixed
//!   multi-predicate [`TableQuery`](rtx_query::TableQuery) streams, and
//!   the scan-based [`tables::TableOracle`] that verifies the table
//!   layer.
//!
//! All generators take an explicit seed and are fully deterministic so that
//! experiments are reproducible.

pub mod keyset;
pub mod lookups;
pub mod mixed;
pub mod tables;
pub mod truth;
pub mod zipf;

pub use keyset::{dense_shuffled, sparse_uniform, value_column, with_multiplicity, with_stride};
pub use lookups::{
    point_lookups, point_lookups_with_hit_rate, point_lookups_zipf, range_lookups, split_batches,
};
pub use mixed::{apply_mixed_op, mixed_ops, MixedOp, MixedWorkloadConfig};
pub use tables::{
    ingest_batches, table_queries, table_records, TableOracle, TableQueryConfig,
    TableWorkloadConfig,
};
pub use truth::{DynamicOracle, DynamicTruth, GroundTruth};
pub use zipf::ZipfSampler;

//! # rtx-table
//!
//! The multi-index table layer of the RTIndeX reproduction: a "database,
//! not an index" surface over the per-index stack.
//!
//! A [`Table`] owns one SoA row store (named `u64` columns, dense table
//! rowIDs compatible with the global-rowID scheme) plus any number of
//! named secondary indexes, each built from a per-column
//! [`IndexDef::spec`](rtx_query::IndexDef) in the registry name grammar,
//! read by the registry's own [`SpecName::parse`](rtx_query::SpecName) —
//! one table can mix `"HT"`, `"RX:sah@4:hash"` and `"RXD@2"` across its
//! columns. A durable `"+wal:<path>"` spec is refused at load: nothing
//! recovers a whole table from a WAL.
//!
//! * **Ingest** is CDC-style and transactional: an
//!   [`IngestBatch`](rtx_query::IngestBatch) of insert / delete / upsert
//!   records applies to the row store and fans out to every index with
//!   all-or-nothing semantics — each index is a built base plus a
//!   row-store overlay, rebuilt once the overlay grows past a threshold,
//!   and a rejected batch is undone from a log, without a build, before
//!   the error surfaces (see [`table`] for the protocol). `rtx-serve`'s
//!   table service runs each batch behind its write fence.
//! * **Queries** are multi-predicate
//!   [`TableQuery`](rtx_query::TableQuery)s; the [`Planner`] scores every
//!   predicate against each index's capability flags, live memory usage
//!   and calibrated probe costs, routes it to the cheapest eligible index
//!   (points naturally land on hash backends, ranges on RX or SA) and
//!   falls back to a row-store scan when no index qualifies. A query
//!   executes by index position and returns its routes as a [`RoutePlan`];
//!   [`Table::explain`] renders every decision — each candidate's cost or
//!   why it cannot serve — as an [`ExplainPlan`](rtx_query::ExplainPlan),
//!   from the same scoring.
//!
//! ```no_run
//! use std::sync::Arc;
//! use gpu_device::Device;
//! use rtx_query::{Registry, TableQuery, TableSchema};
//! use rtx_table::Table;
//!
//! # fn registry() -> Registry { Registry::new() }
//! let device = Device::default_eval();
//! let schema = TableSchema::new(["id", "ts", "amount"])
//!     .with_value_column("amount")
//!     .with_index("id_ht", "id", "HT")
//!     .with_index("ts_rx", "ts", "RX");
//! let table = Table::load(schema, &device, Arc::new(registry()), &[]).unwrap();
//! let query = TableQuery::new().point("id", 42).range("ts", 100, 200);
//! let out = table.query(&query).unwrap();
//! println!("{}", out.plan); // one route per predicate
//! println!("{}", table.explain(&query).unwrap()); // every candidate, and why
//! ```

pub mod planner;
pub mod store;
pub mod table;

pub use planner::{Planner, ProbeCost, RoutePlan};
pub use store::RowStore;
pub use table::{IngestReport, Table, TableOutcome, TableStats};

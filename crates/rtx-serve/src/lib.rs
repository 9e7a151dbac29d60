//! # rtx-serve
//!
//! The concurrent multi-client query service of the RTIndeX reproduction:
//! cross-client batch coalescing, admission control and fenced writes over
//! any [`SecondaryIndex`](rtx_query::SecondaryIndex) backend.
//!
//! The paper's index wins by amortising fixed per-launch work over *large*
//! GPU-submitted batches — but service traffic arrives as millions of
//! *small* per-client submissions. This crate closes that gap the way
//! streaming databases front their storage engines with a concurrent
//! ingest/serve layer:
//!
//! * every client holds a clonable [`ClientHandle`] and submits small
//!   [`QueryBatch`](rtx_query::QueryBatch)es into a bounded MPMC queue;
//! * a **coalescer thread** drains the queue, fuses many client batches
//!   into one large backend submission
//!   ([`FusedBatch`](rtx_query::FusedBatch)), executes it once — on a plain
//!   backend, or a sharded one so fusion and sharding compose — and
//!   scatters the per-client slices back through response channels. The
//!   coalescer is **self-clocked**: it executes what a drain finds at
//!   once, and whatever arrives during that execution fuses into the
//!   next, so fusion grows with load and a lone request never waits on a
//!   timer;
//! * **admission control** bounds the queue
//!   ([`ServiceConfig::max_queue_depth`]): overload surfaces as
//!   [`ServeError::Overloaded`] backpressure instead of unbounded memory;
//! * **writes are serialized and fenced**: on an
//!   [`UpdatableIndex`](rtx_query::UpdatableIndex) backend, a write batch
//!   never overtakes reads queued before it and is fully visible to reads
//!   queued after it;
//! * a [`TableService`] runs the same worker loop over a whole multi-index
//!   [`Table`](rtx_table::Table) instead of one backend: transactional CDC
//!   ingest batches ride the write fence, the queries of a run go one by
//!   one through the table's cost-based planner, and the planner's routing
//!   decisions surface in the service counters ([`ServiceStats`]).
//!
//! Both services are one loop generic over its unit of work — a backend or
//! a table. Admission, draining (a run of reads or one write), the panic
//! guard, write-stall accounting, shutdown and the reply wait exist once;
//! each unit only says how a run of reads executes, how a write applies
//! and what runs between units.
//!
//! ```
//! use rtx_query::{IndexSpec, QueryBatch, Registry};
//! use rtx_serve::{QueryService, ServiceConfig};
//!
//! let mut registry = Registry::new();
//! gpu_baselines::register_baselines(&mut registry);
//! rtx_shard::install_sharding(&mut registry);
//!
//! let device = gpu_device::Device::default_eval();
//! let keys: Vec<u64> = (0..10_000).collect();
//! let backend = registry
//!     .build("SA@2", &IndexSpec::keys_only(&device, &keys))
//!     .unwrap();
//!
//! // One service, any number of concurrent clients.
//! let service = QueryService::start(backend, ServiceConfig::default());
//! let results = std::thread::scope(|scope| {
//!     let workers: Vec<_> = (0..4)
//!         .map(|c| {
//!             let handle = service.handle();
//!             scope.spawn(move || {
//!                 handle
//!                     .query(QueryBatch::new().point(c * 100).range(0, 9))
//!                     .unwrap()
//!             })
//!         })
//!         .collect();
//!     workers.into_iter().map(|w| w.join().unwrap()).collect::<Vec<_>>()
//! });
//! for out in &results {
//!     assert!(out.results[0].is_hit());
//!     assert_eq!(out.results[1].hit_count, 10);
//! }
//! ```

pub mod config;
pub mod error;
pub mod service;
pub mod table_service;
mod worker;

pub use config::{RebalanceConfig, ServiceConfig};
pub use error::ServeError;
pub use service::{ClientHandle, PendingQuery, QueryService, ServiceStats};
pub use table_service::{PendingTableQuery, TableClient, TableService};

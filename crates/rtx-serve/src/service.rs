//! The concurrent query service: client handles over the shared worker
//! loop, and the counters both services report.
//!
//! One [`QueryService`] wraps one backend (any [`SecondaryIndex`] trait
//! object — plain, sharded, or an updatable RXD) and serves any number of
//! concurrent clients. Clients never touch the backend: they enqueue
//! requests through clonable [`ClientHandle`]s, and the service's single
//! worker thread — the **coalescer** — owns the backend and processes the
//! queue in submission order, the same fenced loop a
//! [`TableService`](crate::TableService) runs over a table:
//!
//! * a run of consecutive read batches is fused into one large submission
//!   ([`FusedBatch`]) up to the configured coalesce
//!   cap, executed once and split back per client. The loop is
//!   self-clocked: a drain takes what is queued and executes it at once,
//!   and whatever arrives during that execution fuses into the next drain;
//! * write batches are **serialized and fenced**: a write never overtakes
//!   reads queued before it and is never overtaken by reads queued after
//!   it, because the queue is drained strictly in order and a run stops at
//!   the first write;
//! * admission control bounds the queue: submissions beyond the configured
//!   depth fail with [`ServeError::Overloaded`] instead of queuing without
//!   bound.
//!
//! Unsupported traffic (value fetches without a value column, range
//! lookups on a range-less backend, writes to a read-only service) is
//! rejected at submission, so a fused execution can only fail if the
//! backend itself does — and such a failure is broadcast to every fused
//! client. A backend that *panics* is answered the same way, with an
//! [`IndexError::Backend`] naming the panic: a panicking read leaves the
//! backend untouched and the service keeps serving, while a panicking
//! write, checkpoint or rebalance may have half-applied, so the service
//! then shuts down and every queued or later request gets
//! [`ServeError::ShuttingDown`] instead of waiting forever.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rtx_query::{
    BatchOutcome, Capabilities, ExecArena, FusedBatch, IndexBackend, IndexError, MemoryUsage,
    QueryBatch, SecondaryIndex, SharedOutcome, UpdatableIndex, UpdateReport,
};

use crate::config::ServiceConfig;
use crate::error::ServeError;
use crate::worker::{wait, Halt, Reply, Shared, Ticket, Unit, Worker};

/// Monotonic service counters (updated with relaxed atomics; consistency
/// across counters is best-effort, each counter alone is exact). Shared
/// between [`QueryService`] and the table service
/// ([`TableService`](crate::TableService)); counters a service never
/// touches simply stay 0 in its [`ServiceStats`].
#[derive(Default)]
pub(crate) struct Counters {
    pub(crate) submitted_batches: AtomicU64,
    pub(crate) submitted_ops: AtomicU64,
    pub(crate) rejected_batches: AtomicU64,
    pub(crate) fused_submissions: AtomicU64,
    pub(crate) coalesced_batches: AtomicU64,
    pub(crate) executed_ops: AtomicU64,
    pub(crate) write_batches: AtomicU64,
    pub(crate) peak_queued_ops: AtomicU64,
    pub(crate) write_stall_ns_total: AtomicU64,
    pub(crate) write_stall_ns_max: AtomicU64,
    pub(crate) write_reorganisations: AtomicU64,
    pub(crate) checkpoints: AtomicU64,
    pub(crate) linger_decisions: AtomicU64,
    pub(crate) rebalances: AtomicU64,
    pub(crate) rebalanced_rows: AtomicU64,
    pub(crate) backend_panics: AtomicU64,
    /// Gauge: the sharded backend's load-imbalance ratio in permille, as
    /// of the last load check (0 for unsharded backends).
    pub(crate) shard_imbalance_permille: AtomicU64,
    // Table-service counters (a plain QueryService leaves these 0).
    pub(crate) planned_predicates: AtomicU64,
    pub(crate) routed_predicates: AtomicU64,
    pub(crate) scan_fallbacks: AtomicU64,
    pub(crate) ingest_batches: AtomicU64,
    pub(crate) ingest_rollbacks: AtomicU64,
    // Gauges mirrored from the unit after every fence operation (the
    // worker owns the unit; clients read these copies).
    pub(crate) wal_bytes: AtomicU64,
    pub(crate) fsyncs: AtomicU64,
    pub(crate) snapshots: AtomicU64,
    pub(crate) last_snapshot_bsn: AtomicU64,
    pub(crate) mem_base_bytes: AtomicU64,
    pub(crate) mem_delta_bytes: AtomicU64,
    pub(crate) mem_tombstone_bytes: AtomicU64,
    pub(crate) mem_wal_buffer_bytes: AtomicU64,
}

/// A point-in-time snapshot of the service counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Read batches admitted into the queue.
    pub submitted_batches: u64,
    /// Operations across all admitted read batches.
    pub submitted_ops: u64,
    /// Submissions rejected by admission control (backpressure).
    pub rejected_batches: u64,
    /// Fused submissions executed on the backend.
    pub fused_submissions: u64,
    /// Client read batches answered through those fused submissions.
    pub coalesced_batches: u64,
    /// Operations executed through fused submissions.
    pub executed_ops: u64,
    /// Write batches applied (serialized, fenced).
    pub write_batches: u64,
    /// Highest queue occupancy observed at any admission, in cost units
    /// (read ops / write rows, at least 1 per request).
    pub peak_queued_ops: u64,
    /// Total nanoseconds the worker spent inside write applications —
    /// the time the queue-order fence stalls every request queued behind a
    /// write. A synchronous compaction shows up here as one huge stall; a
    /// background compaction leaves only the swap.
    pub write_stall_ns_total: u64,
    /// Largest single write stall observed, in nanoseconds (the worst-case
    /// fence wait a co-queued request could have experienced).
    pub write_stall_ns_max: u64,
    /// Structural reorganisations (compactions) reported by the backend
    /// across all writes — completed merges and background swaps.
    pub write_reorganisations: u64,
    /// Checkpoints applied through the write fence
    /// ([`ClientHandle::checkpoint`]).
    pub checkpoints: u64,
    /// Always 0: the self-clocked worker never holds a run for late
    /// arrivals.
    pub linger_ns_total: u64,
    /// One per drain: the units the worker took off the queue (a run of
    /// reads or one write).
    pub linger_decisions: u64,
    /// Hot-shard rebalance passes triggered through the write fence.
    pub rebalances: u64,
    /// Rows migrated between shards across those passes.
    pub rebalanced_rows: u64,
    /// Backend calls that panicked. Each answered its request with an
    /// [`IndexError::Backend`]; a panicking read left the service serving,
    /// a panicking write, checkpoint, ingest or rebalance shut it down.
    pub backend_panics: u64,
    /// Load-imbalance ratio of the sharded backend in permille (hottest
    /// shard over mean; 1000 = perfectly balanced) as of the last check —
    /// 0 for unsharded backends or before any traffic.
    pub shard_imbalance_permille: u64,
    /// Predicates planned by a table service
    /// ([`TableService`](crate::TableService)); 0 for a plain
    /// [`QueryService`].
    pub planned_predicates: u64,
    /// Planned predicates routed to a secondary index.
    pub routed_predicates: u64,
    /// Planned predicates that fell back to a row-store scan.
    pub scan_fallbacks: u64,
    /// Table ingest batches applied through the write fence (including
    /// rejected ones).
    pub ingest_batches: u64,
    /// Table ingest batches rejected and rolled back atomically.
    pub ingest_rollbacks: u64,
    /// Live WAL bytes of a durable backend, as of the last fence operation
    /// (0 for memory-only backends).
    pub wal_bytes: u64,
    /// fsyncs issued by a durable backend since it opened.
    pub fsyncs: u64,
    /// Snapshots written by a durable backend since it opened.
    pub snapshots: u64,
    /// Batch sequence number covered by the latest snapshot (0 before
    /// any; for sharded backends, the oldest shard snapshot).
    pub last_snapshot_bsn: u64,
    /// Component-wise memory usage of the backend, as of the last fence
    /// operation (or service start for read-only backends).
    pub memory: MemoryUsage,
}

impl ServiceStats {
    /// Mean client batches fused per backend submission — the coalescing
    /// factor. 1.0 means no cross-client fusion happened.
    pub fn mean_coalesced_batches(&self) -> f64 {
        if self.fused_submissions == 0 {
            return 0.0;
        }
        self.coalesced_batches as f64 / self.fused_submissions as f64
    }

    /// Mean operations per fused backend submission.
    pub fn mean_fused_ops(&self) -> f64 {
        if self.fused_submissions == 0 {
            return 0.0;
        }
        self.executed_ops as f64 / self.fused_submissions as f64
    }

    /// Mean seconds one applied write stalled the queue. 0.0 when no write
    /// was applied (never a 0/0 NaN).
    pub fn mean_write_stall_s(&self) -> f64 {
        if self.write_batches == 0 {
            return 0.0;
        }
        self.write_stall_ns_total as f64 / 1e9 / self.write_batches as f64
    }

    /// The sharded backend's load-imbalance ratio (hottest shard over
    /// mean) as of the last check; 0.0 for unsharded backends.
    pub fn shard_imbalance_ratio(&self) -> f64 {
        self.shard_imbalance_permille as f64 / 1000.0
    }
}

impl Counters {
    /// A point-in-time snapshot.
    pub(crate) fn snapshot(&self) -> ServiceStats {
        let c = self;
        ServiceStats {
            submitted_batches: c.submitted_batches.load(Ordering::Relaxed),
            submitted_ops: c.submitted_ops.load(Ordering::Relaxed),
            rejected_batches: c.rejected_batches.load(Ordering::Relaxed),
            fused_submissions: c.fused_submissions.load(Ordering::Relaxed),
            coalesced_batches: c.coalesced_batches.load(Ordering::Relaxed),
            executed_ops: c.executed_ops.load(Ordering::Relaxed),
            write_batches: c.write_batches.load(Ordering::Relaxed),
            peak_queued_ops: c.peak_queued_ops.load(Ordering::Relaxed),
            write_stall_ns_total: c.write_stall_ns_total.load(Ordering::Relaxed),
            write_stall_ns_max: c.write_stall_ns_max.load(Ordering::Relaxed),
            write_reorganisations: c.write_reorganisations.load(Ordering::Relaxed),
            checkpoints: c.checkpoints.load(Ordering::Relaxed),
            linger_ns_total: 0,
            linger_decisions: c.linger_decisions.load(Ordering::Relaxed),
            rebalances: c.rebalances.load(Ordering::Relaxed),
            rebalanced_rows: c.rebalanced_rows.load(Ordering::Relaxed),
            backend_panics: c.backend_panics.load(Ordering::Relaxed),
            shard_imbalance_permille: c.shard_imbalance_permille.load(Ordering::Relaxed),
            planned_predicates: c.planned_predicates.load(Ordering::Relaxed),
            routed_predicates: c.routed_predicates.load(Ordering::Relaxed),
            scan_fallbacks: c.scan_fallbacks.load(Ordering::Relaxed),
            ingest_batches: c.ingest_batches.load(Ordering::Relaxed),
            ingest_rollbacks: c.ingest_rollbacks.load(Ordering::Relaxed),
            wal_bytes: c.wal_bytes.load(Ordering::Relaxed),
            fsyncs: c.fsyncs.load(Ordering::Relaxed),
            snapshots: c.snapshots.load(Ordering::Relaxed),
            last_snapshot_bsn: c.last_snapshot_bsn.load(Ordering::Relaxed),
            memory: MemoryUsage {
                base_bytes: c.mem_base_bytes.load(Ordering::Relaxed),
                delta_bytes: c.mem_delta_bytes.load(Ordering::Relaxed),
                tombstone_bytes: c.mem_tombstone_bytes.load(Ordering::Relaxed),
                wal_buffer_bytes: c.mem_wal_buffer_bytes.load(Ordering::Relaxed),
            },
        }
    }
}

/// The delay [`ClientHandle::query_with_retry`] sleeps after the
/// `attempt`-th rejected submission (1-based): `initial * 2^(attempt-1)`,
/// clamped to 1024x `initial` — an uncapped doubling schedule reaches
/// minutes after ~20 rejections, which turns transient overload into
/// client-visible hangs.
fn retry_delay(initial: Duration, attempt: usize) -> Duration {
    initial.saturating_mul(1 << attempt.saturating_sub(1).min(10))
}

/// An admitted read submission whose result has not been claimed yet.
///
/// Dropping it abandons the result (the service still executes and then
/// discards it).
#[derive(Debug)]
pub struct PendingQuery {
    ticket: Ticket<SharedOutcome>,
}

impl PendingQuery {
    /// Blocks until the coalescer has answered this submission, returning
    /// an owned copy of this client's results. The copy happens here, on
    /// the client's thread — the coalescer hands over a zero-copy view
    /// ([`wait_shared`](PendingQuery::wait_shared) exposes it directly).
    pub fn wait(self) -> Result<BatchOutcome, ServeError> {
        self.wait_shared().map(|view| view.materialize())
    }

    /// Blocks until the coalescer has answered, returning the zero-copy
    /// [`SharedOutcome`] view of the fused execution — no result copy at
    /// all, for clients that only read their slice.
    pub fn wait_shared(self) -> Result<SharedOutcome, ServeError> {
        wait(self.ticket)
    }
}

/// A clonable client of a [`QueryService`]: submits read batches (blocking
/// or ticketed) and batched writes.
#[derive(Clone)]
pub struct ClientHandle {
    shared: Arc<Shared<Coalescer>>,
}

impl ClientHandle {
    /// Rejects traffic the backend can never serve — at submission, so a
    /// fused execution stays infallible and one client's mistake cannot
    /// fail its co-fused neighbours.
    fn precheck(&self, batch: &QueryBatch) -> Result<(), ServeError> {
        if batch.fetches_values() && !self.shared.profile.has_value_column {
            return Err(ServeError::Index(IndexError::NoValueColumn {
                backend: Arc::clone(&self.shared.name),
            }));
        }
        if batch.range_count() > 0 && !self.shared.profile.capabilities.range_lookups {
            return Err(ServeError::Index(IndexError::UnsupportedOperation {
                backend: Arc::clone(&self.shared.name),
                operation: "range lookups",
            }));
        }
        Ok(())
    }

    /// Submits a read batch and returns a ticket to claim the result with.
    pub fn submit(&self, batch: QueryBatch) -> Result<PendingQuery, ServeError> {
        self.submit_shared(Arc::new(batch))
    }

    /// [`submit`](ClientHandle::submit) for a batch already behind an
    /// `Arc` — enqueues a pointer clone, so resubmitting the same batch
    /// (retry loops) never copies its operations.
    pub fn submit_shared(&self, batch: Arc<QueryBatch>) -> Result<PendingQuery, ServeError> {
        self.precheck(&batch)?;
        let ticket = self.shared.submit_read(|reply| (batch, reply))?;
        Ok(PendingQuery { ticket })
    }

    /// Submits a read batch and blocks until its result arrives.
    pub fn query(&self, batch: QueryBatch) -> Result<BatchOutcome, ServeError> {
        self.submit(batch)?.wait()
    }

    /// [`query`](ClientHandle::query) with bounded retries against
    /// admission-control backpressure: an [`ServeError::Overloaded`]
    /// rejection sleeps `backoff` (doubling per attempt, capped at 1024x
    /// `backoff`) and resubmits, up to `max_attempts` submissions in
    /// total. Every other outcome — success or any other error — returns
    /// immediately; only the retry-later rejection is retried.
    pub fn query_with_retry(
        &self,
        batch: &QueryBatch,
        max_attempts: usize,
        backoff: Duration,
    ) -> Result<BatchOutcome, ServeError> {
        // One copy up front into an Arc; every (re)submission after a
        // backpressure rejection clones the pointer, not the operations.
        let batch = Arc::new(batch.clone());
        let mut attempt = 1;
        loop {
            let outcome = self
                .submit_shared(Arc::clone(&batch))
                .and_then(|pending| pending.wait());
            match outcome {
                Err(ServeError::Overloaded { .. }) if attempt < max_attempts => {
                    std::thread::sleep(retry_delay(backoff, attempt));
                    attempt += 1;
                }
                outcome => return outcome,
            }
        }
    }

    /// Enqueues a write-fence operation and blocks until it is applied.
    fn write<T>(&self, write: impl FnOnce(Reply<T>) -> FencedWrite) -> Result<T, ServeError> {
        if !self.shared.profile.updatable {
            return Err(ServeError::ReadOnlyBackend {
                backend: Arc::clone(&self.shared.name),
            });
        }
        self.shared.submit_write(write)
    }

    fn data_write(&self, op: DataOp) -> Result<UpdateReport, ServeError> {
        self.write(|reply| FencedWrite::Data { op, reply })
    }

    /// Inserts a batch of `(key, value)` rows. Blocks until the write is
    /// applied; it is fenced against every read queued before it and
    /// visible to every read queued after it.
    pub fn insert(&self, keys: &[u64], values: &[u64]) -> Result<UpdateReport, ServeError> {
        self.data_write(DataOp::Insert {
            keys: keys.to_vec(),
            values: values.to_vec(),
        })
    }

    /// Deletes every live row holding one of `keys` (fenced like
    /// [`insert`](ClientHandle::insert)).
    pub fn delete(&self, keys: &[u64]) -> Result<UpdateReport, ServeError> {
        self.data_write(DataOp::Delete {
            keys: keys.to_vec(),
        })
    }

    /// Upserts a batch of `(key, value)` pairs (fenced like
    /// [`insert`](ClientHandle::insert)).
    pub fn upsert(&self, keys: &[u64], values: &[u64]) -> Result<UpdateReport, ServeError> {
        self.data_write(DataOp::Upsert {
            keys: keys.to_vec(),
            values: values.to_vec(),
        })
    }

    /// Asks a durable backend to snapshot and truncate its WAL, returning
    /// the number of snapshots written. The request rides the write fence:
    /// every read and write queued before it drains first, so the snapshot
    /// captures exactly the acknowledged prefix of this service's stream.
    /// A memory-only backend returns `Ok(0)`.
    pub fn checkpoint(&self) -> Result<u64, ServeError> {
        self.write(|reply| FencedWrite::Checkpoint { reply })
    }

    /// Capabilities of the wrapped backend.
    pub fn capabilities(&self) -> Capabilities {
        self.shared.profile.capabilities
    }

    /// A snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        self.shared.counters.snapshot()
    }

    /// Current queue occupancy in admission-cost units (read ops / write
    /// rows). A load probe: compare against
    /// [`ServiceConfig::max_queue_depth`] to shed load before submissions
    /// start failing.
    pub fn queued_ops(&self) -> usize {
        self.shared.queued_ops()
    }
}

/// The concurrent query service. See the [module docs](self) for the
/// execution model; see [`ServiceConfig`] for the tuning knobs.
///
/// Dropping the service signals shutdown, drains every queued request and
/// joins the coalescer thread — already-admitted submissions are still
/// answered, new ones are rejected with [`ServeError::ShuttingDown`].
#[derive(Debug)]
pub struct QueryService(Worker<Coalescer>);

impl QueryService {
    /// Starts a service over a read-only backend.
    pub fn start(backend: Box<dyn SecondaryIndex>, config: ServiceConfig) -> Self {
        serve(IndexBackend::Read(backend), config)
    }

    /// Starts a service over an updatable backend: client writes are
    /// serialized and fenced against reads in queue order.
    pub fn start_updatable(backend: Box<dyn UpdatableIndex>, config: ServiceConfig) -> Self {
        serve(IndexBackend::Write(backend), config)
    }

    /// A new client handle (clonable, sendable across threads).
    pub fn handle(&self) -> ClientHandle {
        ClientHandle {
            shared: Arc::clone(&self.0.shared),
        }
    }

    /// A snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        self.0.shared.counters.snapshot()
    }

    /// Shuts the service down (draining the queue) and returns the final
    /// counters.
    pub fn shutdown(self) -> ServiceStats {
        self.0.shutdown()
    }
}

fn serve(backend: IndexBackend, config: ServiceConfig) -> QueryService {
    let index = backend.read();
    let name = index.name().into();
    let profile = Profile {
        capabilities: index.capabilities(),
        has_value_column: index.has_value_column(),
        updatable: matches!(backend, IndexBackend::Write(_)),
    };
    let unit = Coalescer {
        backend,
        fusion: FusedBatch::new(),
        arena: ExecArena::new(),
    };
    QueryService(Worker::spawn(unit, config, name, profile))
}

// The coalescer: the query service's side of the worker loop. A run of
// reads fuses into one `FusedBatch`, executes once and splits back per
// client; a write applies through the fence; between units a sharded
// backend's hot shards may be rebalanced.

/// What clients of a query service check at submission, so a fused
/// execution can only fail if the backend itself does.
struct Profile {
    capabilities: Capabilities,
    has_value_column: bool,
    updatable: bool,
}

/// A batched data write.
enum DataOp {
    /// Insert `(key, value)` rows.
    Insert { keys: Vec<u64>, values: Vec<u64> },
    /// Delete every live row holding one of the keys.
    Delete { keys: Vec<u64> },
    /// Delete every key's rows, then insert one fresh row per pair.
    Upsert { keys: Vec<u64>, values: Vec<u64> },
}

impl DataOp {
    fn rows(&self) -> usize {
        match self {
            DataOp::Insert { keys, .. } | DataOp::Delete { keys } | DataOp::Upsert { keys, .. } => {
                keys.len()
            }
        }
    }

    fn apply(self, ix: &mut dyn UpdatableIndex) -> Result<UpdateReport, IndexError> {
        match self {
            DataOp::Insert { keys, values } => ix.insert(&keys, &values),
            DataOp::Delete { keys } => ix.delete(&keys),
            DataOp::Upsert { keys, values } => ix.upsert(&keys, &values),
        }
    }
}

/// One write-fence operation, with its typed reply.
enum FencedWrite {
    /// A data write, answered with the backend's report.
    Data {
        op: DataOp,
        reply: Reply<UpdateReport>,
    },
    /// Ask a durable backend to snapshot and truncate its WAL, answered
    /// with the snapshots written. Travels through the fence so the
    /// snapshot captures exactly the acknowledged prefix of the stream.
    Checkpoint { reply: Reply<u64> },
}

/// The query service's unit of work: the backend, plus the fusion and the
/// execution arena every run reuses. Both are cleared between runs but
/// never reallocated, so steady-state coalescing is allocation-free apart
/// from the result buffer handed to the clients.
struct Coalescer {
    backend: IndexBackend,
    fusion: FusedBatch,
    arena: ExecArena,
}

impl Coalescer {
    /// The write side of the backend. Admission rejects writes on
    /// read-only services; this is the defensive backstop, not a reachable
    /// path.
    fn updatable(&mut self) -> Result<&mut dyn UpdatableIndex, IndexError> {
        match &mut self.backend {
            IndexBackend::Write(ix) => Ok(ix.as_mut()),
            IndexBackend::Read(ix) => Err(IndexError::UnsupportedOperation {
                backend: ix.name().into(),
                operation: "updates",
            }),
        }
    }
}

impl Unit for Coalescer {
    type Profile = Profile;
    /// Shared with the submitting client so retries re-enqueue a pointer
    /// instead of re-cloning the operations.
    type Read = (Arc<QueryBatch>, Reply<SharedOutcome>);
    type Write = FencedWrite;

    fn read_ops((batch, _): &Self::Read) -> usize {
        batch.len()
    }

    fn write_ops(write: &FencedWrite) -> usize {
        match write {
            FencedWrite::Data { op, .. } => op.rows(),
            FencedWrite::Checkpoint { .. } => 0,
        }
    }

    /// Component-wise memory usage and, for durable backends, the
    /// persistence stats.
    fn refresh_gauges(&self, shared: &Shared<Self>) {
        let index = self.backend.read();
        let memory = index.memory_usage();
        let durable = index.durability_stats().unwrap_or_default();
        let c = &shared.counters;
        c.mem_base_bytes.store(memory.base_bytes, Ordering::Relaxed);
        c.mem_delta_bytes
            .store(memory.delta_bytes, Ordering::Relaxed);
        c.mem_tombstone_bytes
            .store(memory.tombstone_bytes, Ordering::Relaxed);
        c.mem_wal_buffer_bytes
            .store(memory.wal_buffer_bytes, Ordering::Relaxed);
        c.wal_bytes.store(durable.wal_bytes, Ordering::Relaxed);
        c.fsyncs.store(durable.fsyncs, Ordering::Relaxed);
        c.snapshots.store(durable.snapshots, Ordering::Relaxed);
        c.last_snapshot_bsn
            .store(durable.last_snapshot_bsn, Ordering::Relaxed);
    }

    /// Fuses the run into one submission, executes it once in the reused
    /// arena and hands each client an `Arc`'d view of the one outcome — no
    /// per-client result copy on the worker. A panicking read took `&self`,
    /// so the backend is intact: its clients get the panic as an error and
    /// the service keeps serving.
    fn run_reads(&mut self, run: &mut Vec<Self::Read>, shared: &Shared<Self>) {
        let Coalescer {
            backend,
            fusion,
            arena,
        } = self;
        fusion.clear();
        for (batch, _) in run.iter() {
            fusion.push(batch);
        }
        let outcome = shared
            .guard_backend(|| backend.read().execute_in(fusion.ops(), arena))
            .and_then(|outcome| outcome);
        let c = &shared.counters;
        c.fused_submissions.fetch_add(1, Ordering::Relaxed);
        c.coalesced_batches
            .fetch_add(run.len() as u64, Ordering::Relaxed);
        c.executed_ops
            .fetch_add(fusion.op_count() as u64, Ordering::Relaxed);
        match outcome {
            Ok(out) => {
                for (view, (_, reply)) in fusion.split_shared(out).into_iter().zip(run.drain(..)) {
                    let _ = reply.send(Ok(view));
                }
            }
            // A backend failure on the fused batch is every fused client's
            // failure.
            Err(err) => {
                for (_, reply) in run.drain(..) {
                    let _ = reply.send(Err(err.clone()));
                }
            }
        }
    }

    fn apply_write(&mut self, write: FencedWrite, shared: &Shared<Self>) -> Result<(), Halt> {
        let c = &shared.counters;
        // A client that dropped its ticket abandoned the result.
        match write {
            FencedWrite::Data { op, reply } => {
                c.write_batches.fetch_add(1, Ordering::Relaxed);
                let report = shared.fence(&reply, || op.apply(self.updatable()?))?;
                if let Ok(report) = &report {
                    c.write_reorganisations
                        .fetch_add(report.reorganisations, Ordering::Relaxed);
                }
                self.refresh_gauges(shared);
                let _ = reply.send(report);
            }
            FencedWrite::Checkpoint { reply } => {
                c.checkpoints.fetch_add(1, Ordering::Relaxed);
                let snapshots = shared.fence(&reply, || self.updatable()?.checkpoint())?;
                self.refresh_gauges(shared);
                let _ = reply.send(snapshots);
            }
        }
        Ok(())
    }

    /// Between units the worker owns the backend exclusively — the natural
    /// write fence — so this is where a sharded backend's hot shards are
    /// checked and, past the configured thresholds, rebalanced. The load
    /// gauge refreshes on every check; the migration itself only fires once
    /// enough traffic accumulated *and* the imbalance crossed the trigger
    /// (the pass resets the shard counters, which spaces the passes out).
    /// A panicking migration may have left the backend half-moved.
    fn after_unit(&mut self, shared: &Shared<Self>) -> Result<(), Halt> {
        let Some(config) = shared.config.rebalance else {
            return Ok(());
        };
        let Some(load) = self.backend.read().shard_load() else {
            return Ok(());
        };
        let permille = (load.imbalance_ratio() * 1000.0) as u64;
        let c = &shared.counters;
        c.shard_imbalance_permille
            .store(permille, Ordering::Relaxed);
        if load.total_ops() < config.min_ops || permille < config.max_imbalance_permille {
            return Ok(());
        }
        // Nothing to move on a read-only service or a backend without shards.
        let Some(ix) = self.backend.write() else {
            return Ok(());
        };
        let migrated = shared.guard_backend(|| ix.rebalance_shards());
        if let Ok(report) = migrated.map_err(|_| Halt)? {
            c.rebalances.fetch_add(1, Ordering::Relaxed);
            c.rebalanced_rows
                .fetch_add(report.moved_rows, Ordering::Relaxed);
            self.refresh_gauges(shared);
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rtx_query::{IndexBuildMetrics, LookupResult};
    use std::sync::{mpsc, Condvar, Mutex};
    use std::time::Duration;

    /// Test gate: lets a test hold the backend inside an execution so the
    /// queue fills deterministically, and observe when executions start.
    #[derive(Default)]
    struct Gate {
        state: Mutex<GateState>,
        cv: Condvar,
    }

    #[derive(Default)]
    struct GateState {
        entered: usize,
        hold: bool,
    }

    impl Gate {
        fn hold(&self) {
            self.state.lock().unwrap().hold = true;
        }

        fn release(&self) {
            self.state.lock().unwrap().hold = false;
            self.cv.notify_all();
        }

        /// Called by the backend at the start of every chunk execution.
        fn enter(&self) {
            let mut s = self.state.lock().unwrap();
            s.entered += 1;
            self.cv.notify_all();
            while s.hold {
                s = self.cv.wait(s).unwrap();
            }
        }

        /// Blocks the test until `n` chunk executions have started.
        fn await_entered(&self, n: usize) {
            let mut s = self.state.lock().unwrap();
            while s.entered < n {
                s = self.cv.wait(s).unwrap();
            }
        }
    }

    /// In-memory updatable backend with a gate and an execution log.
    struct StubIndex {
        rows: Mutex<Vec<(u64, u64)>>,
        has_values: bool,
        ranges: bool,
        /// A key whose point lookup or insert panics.
        poison: Option<u64>,
        gate: Arc<Gate>,
        log: Arc<Mutex<Vec<String>>>,
    }

    impl StubIndex {
        fn new(keys: &[u64]) -> Self {
            StubIndex {
                rows: Mutex::new(keys.iter().map(|&k| (k, k * 10)).collect()),
                has_values: true,
                ranges: true,
                poison: None,
                gate: Arc::new(Gate::default()),
                log: Arc::new(Mutex::new(Vec::new())),
            }
        }

        /// Panics (before taking any lock) when `keys` hold the poison.
        fn check_poison(&self, keys: &[u64]) {
            if let Some(key) = self.poison.filter(|key| keys.contains(key)) {
                panic!("poisoned key {key}");
            }
        }

        fn chunk<F: Fn(u64) -> bool>(&self, preds: Vec<F>, fetch: bool) -> BatchOutcome {
            let rows = self.rows.lock().unwrap();
            let results = preds
                .iter()
                .map(|pred| {
                    let mut r = LookupResult::miss();
                    for (row, &(k, v)) in rows.iter().enumerate() {
                        if pred(k) {
                            r.first_row = r.first_row.min(row as u32);
                            r.hit_count += 1;
                            if fetch {
                                r.value_sum = r.value_sum.wrapping_add(v);
                            }
                        }
                    }
                    r
                })
                .collect();
            BatchOutcome {
                results,
                ..Default::default()
            }
        }
    }

    impl SecondaryIndex for StubIndex {
        fn name(&self) -> &str {
            "STUB"
        }
        fn key_count(&self) -> usize {
            self.rows.lock().unwrap().len()
        }
        fn memory_bytes(&self) -> u64 {
            16
        }
        fn build_metrics(&self) -> IndexBuildMetrics {
            IndexBuildMetrics::default()
        }
        fn capabilities(&self) -> Capabilities {
            Capabilities {
                range_lookups: self.ranges,
                duplicate_keys: true,
                full_64bit_keys: true,
                updates: true,
            }
        }
        fn has_value_column(&self) -> bool {
            self.has_values
        }
        fn point_chunk(&self, queries: &[u64], fetch: bool) -> Result<BatchOutcome, IndexError> {
            self.check_poison(queries);
            self.gate.enter();
            self.log
                .lock()
                .unwrap()
                .push(format!("points:{}", queries.len()));
            Ok(self.chunk(queries.iter().map(|&q| move |k| k == q).collect(), fetch))
        }
        fn range_chunk(
            &self,
            ranges: &[(u64, u64)],
            fetch: bool,
        ) -> Result<BatchOutcome, IndexError> {
            self.gate.enter();
            self.log
                .lock()
                .unwrap()
                .push(format!("ranges:{}", ranges.len()));
            Ok(self.chunk(
                ranges
                    .iter()
                    .map(|&(l, u)| move |k| k >= l && k <= u)
                    .collect(),
                fetch,
            ))
        }
    }

    impl UpdatableIndex for StubIndex {
        fn insert(&mut self, keys: &[u64], values: &[u64]) -> Result<UpdateReport, IndexError> {
            self.check_poison(keys);
            self.log
                .lock()
                .unwrap()
                .push(format!("insert:{}", keys.len()));
            let mut rows = self.rows.lock().unwrap();
            rows.extend(keys.iter().zip(values).map(|(&k, &v)| (k, v)));
            Ok(UpdateReport {
                inserted_rows: keys.len(),
                ..Default::default()
            })
        }
        fn delete(&mut self, keys: &[u64]) -> Result<UpdateReport, IndexError> {
            self.log
                .lock()
                .unwrap()
                .push(format!("delete:{}", keys.len()));
            let mut rows = self.rows.lock().unwrap();
            let before = rows.len();
            rows.retain(|(k, _)| !keys.contains(k));
            Ok(UpdateReport {
                deleted_rows: before - rows.len(),
                ..Default::default()
            })
        }
        fn upsert(&mut self, keys: &[u64], values: &[u64]) -> Result<UpdateReport, IndexError> {
            let deleted = self.delete(keys)?.deleted_rows;
            let inserted = self.insert(keys, values)?.inserted_rows;
            Ok(UpdateReport {
                inserted_rows: inserted,
                deleted_rows: deleted,
                ..Default::default()
            })
        }
    }

    fn stub_service(
        keys: &[u64],
        config: ServiceConfig,
    ) -> (QueryService, Arc<Gate>, Arc<Mutex<Vec<String>>>) {
        let stub = StubIndex::new(keys);
        let (gate, log) = (Arc::clone(&stub.gate), Arc::clone(&stub.log));
        (
            QueryService::start_updatable(Box::new(stub), config),
            gate,
            log,
        )
    }

    #[test]
    fn queued_batches_coalesce_into_one_submission() {
        let (service, gate, log) = stub_service(&[1, 2, 3, 4], ServiceConfig::default());
        let h = service.handle();

        // First submission occupies the coalescer inside the backend...
        gate.hold();
        let t1 = h.submit(QueryBatch::of_points(&[1])).unwrap();
        gate.await_entered(1);
        // ...while three more clients queue up behind it.
        let t2 = h.submit(QueryBatch::of_points(&[2, 9])).unwrap();
        let t3 = h.submit(QueryBatch::of_points(&[3, 4])).unwrap();
        let t4 = h.submit(QueryBatch::new().point(1).range(2, 3)).unwrap();
        gate.release();

        assert_eq!(t1.wait().unwrap().hit_count(), 1);
        let o2 = t2.wait().unwrap();
        assert_eq!(o2.results.len(), 2);
        assert!(o2.results[0].is_hit() && !o2.results[1].is_hit());
        assert_eq!(t3.wait().unwrap().hit_count(), 2);
        let o4 = t4.wait().unwrap();
        assert_eq!(o4.results[1].hit_count, 2);

        let stats = service.shutdown();
        assert_eq!(stats.submitted_batches, 4);
        assert_eq!(stats.submitted_ops, 7);
        assert_eq!(stats.fused_submissions, 2, "t2..t4 fused into one");
        assert_eq!(stats.coalesced_batches, 4);
        assert_eq!(stats.executed_ops, 7);
        assert!((stats.mean_coalesced_batches() - 2.0).abs() < 1e-12);
        assert!((stats.mean_fused_ops() - 3.5).abs() < 1e-12);
        // The fused submission regrouped 5 points + 1 range into two
        // homogeneous launches.
        assert_eq!(
            *log.lock().unwrap(),
            vec!["points:1", "points:5", "ranges:1"]
        );
    }

    #[test]
    fn admission_control_rejects_submissions_beyond_queue_depth() {
        let config = ServiceConfig::default().with_max_queue_depth(4);
        let (service, gate, _log) = stub_service(&[1, 2, 3], config);
        let h = service.handle();

        gate.hold();
        let t1 = h.submit(QueryBatch::of_points(&[1])).unwrap();
        gate.await_entered(1);
        assert_eq!(h.queued_ops(), 0, "t1 was dequeued before executing");
        let t2 = h.submit(QueryBatch::of_points(&[1, 2, 3])).unwrap();
        assert_eq!(h.queued_ops(), 3);
        let err = h.submit(QueryBatch::of_points(&[1, 2])).unwrap_err();
        assert_eq!(
            err,
            ServeError::Overloaded {
                queued_ops: 3,
                max_queue_depth: 4
            }
        );
        assert!(err.to_string().contains("retry"));
        // A submission larger than the whole limit is non-retryable, even
        // though the queue has room for smaller ones.
        let err = h
            .submit(QueryBatch::of_points(&[1, 2, 3, 4, 5]))
            .unwrap_err();
        assert_eq!(
            err,
            ServeError::TooLarge {
                ops: 5,
                max_queue_depth: 4
            }
        );
        let err = h.insert(&[1, 2, 3, 4, 5], &[0; 5]).unwrap_err();
        assert!(matches!(err, ServeError::TooLarge { ops: 5, .. }));
        // A batch that still fits is admitted.
        let t3 = h.submit(QueryBatch::of_points(&[2])).unwrap();
        gate.release();

        assert!(t1.wait().is_ok() && t2.wait().is_ok() && t3.wait().is_ok());
        let stats = service.shutdown();
        assert_eq!(stats.rejected_batches, 1);
        assert_eq!(stats.peak_queued_ops, 4);
    }

    #[test]
    fn writes_are_fenced_between_read_fusions() {
        // R2, the write and R3 are all queued behind the held gate when
        // the next drain runs, so only the fence cuts the fusion short.
        let (service, gate, log) = stub_service(&[1], ServiceConfig::default());
        let h = service.handle();

        gate.hold();
        let t1 = h.submit(QueryBatch::of_points(&[1])).unwrap();
        gate.await_entered(1);
        // Queue while the coalescer is busy: R2, then a write, then R3.
        let t2 = h.submit(QueryBatch::of_points(&[77])).unwrap();
        let writer = {
            let h = h.clone();
            std::thread::spawn(move || h.insert(&[77, 78], &[770, 780]).unwrap())
        };
        while h.queued_ops() < 3 {
            std::thread::yield_now();
        }
        let t3 = h.submit(QueryBatch::of_points(&[77])).unwrap();
        gate.release();

        assert_eq!(t1.wait().unwrap().hit_count(), 1);
        assert!(
            !t2.wait().unwrap().results[0].is_hit(),
            "read before the write"
        );
        assert_eq!(writer.join().unwrap().inserted_rows, 2);
        let r3 = t3.wait().unwrap().results[0];
        assert!(r3.is_hit(), "read after the write sees it");
        assert_eq!(r3.value_sum, 0, "no fetch requested");
        assert_eq!(
            *log.lock().unwrap(),
            vec!["points:1", "points:1", "insert:2", "points:1"],
            "R1, then R2 cut short by the fence, then the write, then R3"
        );
        let stats = service.stats();
        assert_eq!(stats.write_batches, 1);
        assert!(stats.write_stall_ns_total > 0, "the fence wait is surfaced");
        assert!(stats.write_stall_ns_max > 0);
        assert!(stats.write_stall_ns_max <= stats.write_stall_ns_total);
        assert!(stats.mean_write_stall_s() > 0.0);
        assert_eq!(stats.write_reorganisations, 0, "the stub never compacts");
    }

    #[test]
    fn unsupported_traffic_is_rejected_at_submission() {
        let stub = StubIndex {
            has_values: false,
            ranges: false,
            ..StubIndex::new(&[1])
        };
        let service = QueryService::start(Box::new(stub), ServiceConfig::default());
        let h = service.handle();
        assert!(!h.shared.profile.updatable);
        assert_eq!(&*h.shared.name, "STUB");
        assert!(!h.capabilities().range_lookups);

        let err = h
            .query(QueryBatch::of_points(&[1]).fetch_values(true))
            .unwrap_err();
        assert!(matches!(
            err,
            ServeError::Index(IndexError::NoValueColumn { .. })
        ));
        let err = h.query(QueryBatch::new().range(0, 9)).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Index(IndexError::UnsupportedOperation { .. })
        ));
        let err = h.insert(&[5], &[50]).unwrap_err();
        assert_eq!(
            err,
            ServeError::ReadOnlyBackend {
                backend: "STUB".into()
            }
        );

        // Well-formed traffic still flows, including empty batches.
        assert_eq!(h.query(QueryBatch::of_points(&[1])).unwrap().hit_count(), 1);
        assert!(h.query(QueryBatch::new()).unwrap().results.is_empty());
        assert_eq!(
            service.stats().rejected_batches,
            0,
            "prechecks are not admission rejections"
        );
    }

    #[test]
    fn shutdown_drains_admitted_requests_then_rejects_new_ones() {
        let (service, gate, _log) = stub_service(&[1, 2], ServiceConfig::default());
        let h = service.handle();

        gate.hold();
        let t1 = h.submit(QueryBatch::of_points(&[1])).unwrap();
        gate.await_entered(1);
        let t2 = h.submit(QueryBatch::of_points(&[2])).unwrap();
        let t3 = h.submit(QueryBatch::of_points(&[9])).unwrap();
        gate.release();
        let stats = service.shutdown();

        // Everything admitted before shutdown was answered.
        assert!(t1.wait().is_ok());
        assert_eq!(t2.wait().unwrap().hit_count(), 1);
        assert_eq!(t3.wait().unwrap().hit_count(), 0);
        assert_eq!(stats.coalesced_batches, 3);

        // The surviving handle is now refused.
        assert_eq!(
            h.submit(QueryBatch::of_points(&[1])).unwrap_err(),
            ServeError::ShuttingDown
        );
        assert_eq!(h.insert(&[1], &[1]).unwrap_err(), ServeError::ShuttingDown);
    }

    #[test]
    fn retry_with_backoff_rides_out_overload_but_not_other_errors() {
        let config = ServiceConfig::default().with_max_queue_depth(2);
        let (service, gate, _log) = stub_service(&[1], config);
        let h = service.handle();

        gate.hold();
        let t1 = h.submit(QueryBatch::of_points(&[1])).unwrap();
        gate.await_entered(1);
        let t2 = h.submit(QueryBatch::of_points(&[1, 9])).unwrap();

        // The queue is full: a single-attempt retry surfaces the overload.
        let batch = QueryBatch::of_points(&[1]);
        let err = h
            .query_with_retry(&batch, 1, Duration::from_micros(50))
            .unwrap_err();
        assert!(matches!(err, ServeError::Overloaded { .. }));
        // Non-retryable errors return immediately regardless of attempts.
        let err = h
            .query_with_retry(
                &QueryBatch::of_points(&[1, 2, 3]),
                100,
                Duration::from_micros(50),
            )
            .unwrap_err();
        assert!(matches!(err, ServeError::TooLarge { .. }));

        // With attempts to spare, the retry rides the overload out.
        let retrier = {
            let (h, batch) = (h.clone(), batch.clone());
            std::thread::spawn(move || h.query_with_retry(&batch, 1000, Duration::from_micros(50)))
        };
        gate.release();
        assert_eq!(retrier.join().unwrap().unwrap().hit_count(), 1);
        assert!(t1.wait().is_ok() && t2.wait().is_ok());
        let stats = service.shutdown();
        assert!(stats.rejected_batches >= 1, "the overload was observed");
    }

    #[test]
    fn retry_delays_double_up_to_the_ceiling() {
        let ms = Duration::from_millis;
        assert_eq!(retry_delay(ms(10), 1), ms(10));
        assert_eq!(retry_delay(ms(10), 2), ms(20));
        assert_eq!(retry_delay(ms(10), 4), ms(80));
        // The doubling clamps at 1024x the initial delay and stays there.
        assert_eq!(retry_delay(ms(10), 11), ms(10) * 1024);
        assert_eq!(retry_delay(ms(10), 12), ms(10) * 1024);
        assert_eq!(retry_delay(ms(10), 1000), ms(10) * 1024);
        assert_eq!(retry_delay(Duration::MAX, 3), Duration::MAX, "saturates");
    }

    #[test]
    fn checkpoints_ride_the_fence_and_gauges_mirror_the_backend() {
        let (service, _gate, log) = stub_service(&[1, 2], ServiceConfig::default());
        let h = service.handle();

        // The stub is memory-only: checkpoint is a fenced no-op (Ok(0)),
        // not an error — callers need not know whether the backend under
        // the service happens to be durable.
        assert_eq!(h.checkpoint().unwrap(), 0);
        h.insert(&[5], &[50]).unwrap();
        assert_eq!(h.checkpoint().unwrap(), 0);
        assert!(
            !log.lock().unwrap().iter().any(|e| e.starts_with("points")),
            "no reads involved"
        );

        let stats = service.shutdown();
        assert_eq!(stats.checkpoints, 2);
        assert_eq!(stats.write_batches, 1, "checkpoints are not data writes");
        assert_eq!(stats.wal_bytes, 0, "memory-only backend has no WAL");
        assert_eq!(stats.snapshots, 0);
        assert_eq!(stats.memory.base_bytes, 16, "stub footprint mirrored");
        assert_eq!(stats.memory.total(), 16);
    }

    #[test]
    fn coalesce_cap_bounds_fused_submissions() {
        let config = ServiceConfig {
            max_coalesce_ops: 4,
            ..ServiceConfig::default()
        };
        let (service, gate, log) = stub_service(&[1], config);
        let h = service.handle();

        gate.hold();
        let t0 = h.submit(QueryBatch::of_points(&[1])).unwrap();
        gate.await_entered(1);
        // 3 + 3 ops queued: the cap of 4 forbids fusing both (3 + 3 > 4).
        let t1 = h.submit(QueryBatch::of_points(&[1, 1, 1])).unwrap();
        let t2 = h.submit(QueryBatch::of_points(&[1, 1, 1])).unwrap();
        gate.release();
        for t in [t0, t1, t2] {
            assert!(t.wait().is_ok());
        }
        let stats = service.shutdown();
        assert_eq!(
            stats.fused_submissions, 3,
            "cap kept the two 3-op batches apart"
        );
        assert_eq!(
            *log.lock().unwrap(),
            vec!["points:1", "points:3", "points:3"]
        );
    }

    #[test]
    fn empty_stats_helpers_return_zero_not_nan() {
        // A fresh service (or default snapshot) has every denominator at
        // 0 — the helpers must answer 0, never NaN.
        let stats = ServiceStats::default();
        assert_eq!(stats.mean_coalesced_batches(), 0.0);
        assert_eq!(stats.mean_fused_ops(), 0.0);
        assert_eq!(stats.mean_write_stall_s(), 0.0);
        assert_eq!(stats.shard_imbalance_ratio(), 0.0);

        let (service, _gate, _log) = stub_service(&[1], ServiceConfig::default());
        let live = service.stats();
        assert!(!live.mean_write_stall_s().is_nan());
        assert_eq!(live.mean_write_stall_s(), 0.0);
    }

    #[test]
    fn default_service_never_holds_a_lone_request() {
        let (service, _gate, _log) = stub_service(&[1, 2, 3], ServiceConfig::default());
        let h = service.handle();
        for key in [1, 2, 3, 9] {
            h.query(QueryBatch::of_points(&[key])).unwrap();
        }
        let stats = service.shutdown();
        assert_eq!(stats.fused_submissions, 4, "one drain per lone request");
        assert_eq!(stats.linger_decisions, stats.fused_submissions);
        assert_eq!(stats.linger_ns_total, 0, "self-clocked: no timer");
    }

    /// Runs `body` on its own thread and fails unless it finishes within
    /// `limit`: a client that never gets an answer is the failure here.
    pub(crate) fn within(limit: Duration, body: impl FnOnce() + Send + 'static) {
        let (done, finished) = mpsc::channel();
        let worker = std::thread::spawn(move || {
            body();
            let _ = done.send(());
        });
        match finished.recv_timeout(limit) {
            Ok(()) => worker.join().unwrap(),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(worker.join().unwrap_err())
            }
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("a client hung for {limit:?}"),
        }
    }

    fn assert_backend_panic(err: &ServeError) {
        match err {
            ServeError::Index(IndexError::Backend { backend, message }) => {
                assert_eq!(&**backend, "STUB");
                assert_eq!(message, "backend panicked: poisoned key 13");
            }
            other => panic!("expected the backend panic as an error, got {other:?}"),
        }
    }

    #[test]
    fn a_panicking_read_is_answered_and_the_service_keeps_serving() {
        within(Duration::from_secs(10), || {
            let stub = StubIndex {
                poison: Some(13),
                ..StubIndex::new(&[1, 2, 13])
            };
            let service = QueryService::start_updatable(Box::new(stub), ServiceConfig::default());
            let h = service.handle();
            assert_backend_panic(&h.query(QueryBatch::of_points(&[2, 13])).unwrap_err());
            // A read took `&self`: the backend is intact, reads and writes
            // keep flowing.
            assert_eq!(
                h.query(QueryBatch::of_points(&[1, 2])).unwrap().hit_count(),
                2
            );
            h.insert(&[5], &[50]).unwrap();
            assert!(h.query(QueryBatch::of_points(&[5])).unwrap().results[0].is_hit());
            let stats = service.shutdown();
            assert_eq!(stats.backend_panics, 1);
            assert_eq!(stats.fused_submissions, 3);
        });
    }

    #[test]
    fn a_panicking_write_is_answered_then_every_other_request_is_refused() {
        within(Duration::from_secs(10), || {
            let stub = StubIndex {
                poison: Some(13),
                ..StubIndex::new(&[1])
            };
            let gate = Arc::clone(&stub.gate);
            let service = QueryService::start_updatable(Box::new(stub), ServiceConfig::default());
            let h = service.handle();

            // Hold the coalescer in a read so the poisoned write and a read
            // behind it are queued when the write panics.
            gate.hold();
            let t1 = h.submit(QueryBatch::of_points(&[1])).unwrap();
            gate.await_entered(1);
            let writer = {
                let h = h.clone();
                std::thread::spawn(move || h.insert(&[13], &[130]))
            };
            while h.queued_ops() < 1 {
                std::thread::yield_now();
            }
            let queued = h.submit(QueryBatch::of_points(&[1])).unwrap();
            gate.release();

            assert_eq!(t1.wait().unwrap().hit_count(), 1);
            assert_backend_panic(&writer.join().unwrap().unwrap_err());
            // The write may have half-applied: the service stops instead of
            // serving from it, and nobody waits on it forever.
            assert_eq!(queued.wait().unwrap_err(), ServeError::ShuttingDown);
            assert_eq!(
                h.submit(QueryBatch::of_points(&[1])).unwrap_err(),
                ServeError::ShuttingDown
            );
            assert_eq!(h.insert(&[2], &[20]).unwrap_err(), ServeError::ShuttingDown);
            assert_eq!(h.queued_ops(), 0);
            let stats = service.shutdown();
            assert_eq!(stats.backend_panics, 1);
            assert_eq!(stats.write_batches, 1);
        });
    }

    #[test]
    fn concurrent_clients_get_what_direct_execution_answers() {
        use gpu_device::Device;
        use rtx_query::{IndexSpec, Registry};

        const CLIENTS: u64 = 8;
        const BATCHES: usize = 16;
        const OPS: usize = 32;

        let mut registry = Registry::new();
        rtindex_core::register_rx(&mut registry, rtindex_core::RtIndexConfig::default());
        rtx_shard::install_sharding(&mut registry);
        let device = Device::default_eval();
        let keys = rtx_workloads::dense_shuffled(4096, 5);
        let values = rtx_workloads::value_column(keys.len(), 6);
        let spec = IndexSpec::with_values(&device, &keys, &values);
        // One backend serves, an identical one answers each batch directly.
        let direct = registry.build("RX@4", &spec).unwrap();
        let service = QueryService::start(
            registry.build("RX@4", &spec).unwrap(),
            ServiceConfig::default(),
        );

        std::thread::scope(|scope| {
            for client in 0..CLIENTS {
                let handle = service.handle();
                let (keys, direct) = (&keys, &direct);
                scope.spawn(move || {
                    let queries = rtx_workloads::point_lookups_with_hit_rate(
                        keys,
                        BATCHES * OPS,
                        0.8,
                        client,
                    );
                    let batches: Vec<QueryBatch> = queries
                        .chunks(OPS)
                        .map(|chunk| {
                            let lower = chunk[0] % 4000;
                            QueryBatch::new()
                                .points(chunk.iter().copied())
                                .range(lower, lower + 63)
                                .fetch_values(true)
                        })
                        .collect();
                    // Submit everything before waiting, so batches queue up
                    // behind each other and fuse across clients.
                    let pending: Vec<_> = batches
                        .iter()
                        .map(|batch| handle.submit(batch.clone()).unwrap())
                        .collect();
                    for (batch, pending) in batches.iter().zip(pending) {
                        assert_eq!(
                            pending.wait().unwrap().results,
                            direct.execute(batch).unwrap().results,
                            "client {client}"
                        );
                    }
                });
            }
        });

        let stats = service.shutdown();
        let batches = CLIENTS * BATCHES as u64;
        assert_eq!(stats.coalesced_batches, batches);
        assert_eq!(stats.executed_ops, batches * (OPS as u64 + 1));
        assert!(stats.fused_submissions <= batches);
    }

    #[test]
    fn service_rebalances_a_hot_sharded_backend_behind_the_fence() {
        use gpu_device::Device;
        use rtx_query::{IndexSpec, Registry};

        let mut registry = Registry::new();
        rtx_delta::register_dynamic(&mut registry, rtx_delta::DynamicRtConfig::default());
        rtx_shard::install_sharding(&mut registry);
        let device = Device::default_eval();
        let keys: Vec<u64> = (0..2000).collect();
        let values: Vec<u64> = keys.iter().map(|k| k * 3).collect();
        let backend = registry
            .build_updatable("RXD@4", &IndexSpec::with_values(&device, &keys, &values))
            .unwrap();

        let config = ServiceConfig::default().with_rebalance(
            crate::RebalanceConfig::new()
                .with_min_ops(256)
                .with_max_imbalance_permille(1200),
        );
        let service = QueryService::start_updatable(backend, config);
        let h = service.handle();

        // Hammer one key: its shard accumulates nearly all routed ops.
        let hot = QueryBatch::of_points(&[42; 64]);
        for _ in 0..8 {
            assert_eq!(h.query(hot.clone()).unwrap().hit_count(), 64);
        }
        // Answers stay exact across the (fenced) migration, reads and
        // writes alike.
        let out = h
            .query(
                QueryBatch::new()
                    .points([0, 42, 1999, 77_777])
                    .range(100, 199)
                    .fetch_values(true),
            )
            .unwrap();
        assert_eq!(out.hit_count(), 3 + 1);
        assert_eq!(out.results[1].first_row, 42);
        assert_eq!(out.results[4].hit_count, 100);
        h.insert(&[5000], &[15000]).unwrap();
        assert!(h.query(QueryBatch::of_points(&[5000])).unwrap().results[0].is_hit());

        let stats = service.shutdown();
        assert!(
            stats.rebalances >= 1,
            "sustained imbalance must trigger a pass: {stats:?}"
        );
        assert!(stats.rebalanced_rows > 0, "{stats:?}");
        assert!(stats.shard_imbalance_permille > 0, "gauge populated");
    }
}

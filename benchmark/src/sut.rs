//! The system under test, met at one seam.
//!
//! This is the only module of the benchmark that names `rtindex::` items.
//! Workloads, the trace and the tools speak in the plain types defined here
//! (keys, [`Op`]s, [`Answer`]s, counters as numbers), so a later change that
//! collapses or renames the library's API edits this file and nothing else.
//! Every function here calls a *public* function of a crate and adds no
//! logic of its own beyond converting types; timing is done by the callers.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use rtindex::rtx_durable::{WalPayload, WalRecord, WriteAheadLog};
use rtindex::rtx_query::ScatterPlan;
use rtindex::{
    gpu_device, registry, BatchOutcome, ClientHandle, Device, DurableConfig, FusedBatch,
    HashPartitioner, IndexSpec, IngestBatch, KeyValue, LookupResult, PendingQuery, QueryBatch,
    QueryOps, QueryService, Registry, RtIndex, RtIndexConfig, SecondaryIndex, ServiceConfig,
    ServiceStats, SharedOutcome, Table, TableClient, TableOutcome, TableQuery, TableSchema,
    TableService, TypedBatch, UpdatableIndex,
};

use crate::oracle::Answer;

/// The environment variable that sets the width of the library's worker
/// pool. Simulated build cost scales with it, so the runner pins it.
pub const WORKERS_ENV: &str = "RTX_WORKERS";

/// Pins the worker pool. Must run before any thread is spawned.
pub fn pin_workers(workers: usize) {
    std::env::set_var(WORKERS_ENV, workers.to_string());
}

pub fn worker_count() -> usize {
    gpu_device::worker_count()
}

/// One empty fan-out over the worker pool (`gpu-device`'s fixed cost of
/// going parallel).
pub fn empty_fanout() {
    std::hint::black_box(gpu_device::parallel_tasks(worker_count(), |i| i));
}

fn answer(result: &LookupResult) -> Answer {
    Answer {
        hit_count: result.hit_count,
        first_row: result.first_row,
        value_sum: result.value_sum,
    }
}

/// One lookup of a read request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Point(u64),
    /// Inclusive bounds.
    Range(u64, u64),
}

/// A read request in the library's submission form, always with value
/// fetch. Cloning shares the operations.
#[derive(Debug, Clone)]
pub struct ReadBatch(Arc<QueryBatch>);

impl ReadBatch {
    pub fn new(ops: &[Op]) -> Self {
        let mut batch = QueryBatch::new();
        for op in ops {
            batch = match *op {
                Op::Point(key) => batch.point(key),
                Op::Range(lower, upper) => batch.range(lower, upper),
            };
        }
        ReadBatch(Arc::new(batch.fetch_values(true)))
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// What the simulated device and the BVH traversal counted for some
/// executions (cost-model numbers and counts, never host time).
#[derive(Debug, Clone, Copy, Default)]
pub struct ModelCounts {
    pub simulated_s: f64,
    pub dram_bytes: u64,
    pub nodes_visited: u64,
    pub prim_tests: u64,
}

impl ModelCounts {
    pub fn add(&mut self, other: &ModelCounts) {
        self.simulated_s += other.simulated_s;
        self.dram_bytes += other.dram_bytes;
        self.nodes_visited += other.nodes_visited;
        self.prim_tests += other.prim_tests;
    }
}

/// The answers of one executed read request.
#[derive(Debug)]
pub struct Outcome(BatchOutcome);

impl Outcome {
    pub fn answers(&self) -> impl Iterator<Item = Answer> + '_ {
        self.0.results.iter().map(answer)
    }

    /// Host time the program itself reports for the launches inside the
    /// call (`optix_sim::launch` wall clock, summed over launches).
    pub fn launch_host(&self) -> Duration {
        self.0.metrics.host_time
    }

    pub fn model(&self) -> ModelCounts {
        let m = &self.0.metrics;
        ModelCounts {
            simulated_s: m.simulated_time_s,
            dram_bytes: m.kernel.dram_bytes_read + m.kernel.dram_bytes_written,
            nodes_visited: m.traversal.nodes_visited,
            prim_tests: m.traversal.hw_prim_tests + m.traversal.sw_prim_tests,
        }
    }
}

/// The zero-copy view a service client gets of its answers.
#[derive(Debug)]
pub struct ServedOutcome(SharedOutcome);

impl ServedOutcome {
    pub fn answers(&self) -> impl Iterator<Item = Answer> + '_ {
        self.0.results().iter().map(answer)
    }
}

/// The simulated device and the registry every index is built from.
pub struct Sut {
    device: Device,
    registry: Arc<Registry>,
}

impl Default for Sut {
    fn default() -> Self {
        Sut::new()
    }
}

impl Sut {
    pub fn new() -> Self {
        Sut {
            device: Device::default_eval(),
            registry: Arc::new(registry()),
        }
    }

    /// Builds a read-only index by its registry name (`"RX"`, `"RX@2"`,
    /// `"HT"`, ...) over a `(key, value)` column pair.
    pub fn build(&self, name: &str, keys: &[u64], values: &[u64]) -> Result<Index, String> {
        self.registry
            .build(name, &IndexSpec::with_values(&self.device, keys, values))
            .map(Index)
            .map_err(|e| format!("build {name}: {e}"))
    }

    /// Builds an updatable index by name (`"RXD"`, `"RXD@2"`,
    /// `"RXD@2+wal:<dir>"`). With a `+wal:` name and empty columns this
    /// reopens the directory: snapshot plus WAL replay.
    pub fn build_updatable(
        &self,
        name: &str,
        keys: &[u64],
        values: &[u64],
    ) -> Result<MutIndex, String> {
        let spec = if keys.is_empty() {
            IndexSpec::keys_only(&self.device, &[])
        } else {
            IndexSpec::with_values(&self.device, keys, values)
        };
        self.registry
            .build_updatable(name, &spec)
            .map(MutIndex)
            .map_err(|e| format!("build {name}: {e}"))
    }

    /// The RX index built directly from `rtindex-core`, under the
    /// configuration the registry's `"RX"` uses.
    pub fn build_core(&self, keys: &[u64], values: &[u64]) -> Result<CoreIndex, String> {
        RtIndex::build(&self.device, keys, RtIndexConfig::default())
            .map(|index| CoreIndex {
                index,
                values: values.to_vec(),
            })
            .map_err(|e| format!("build RtIndex: {e}"))
    }

    /// Loads the benchmark's table: columns `id, ts, amount` (`amount` is
    /// the value column) and the four indexes of the `table_serve` workload.
    pub fn load_table(&self, records: &[Vec<u64>]) -> Result<Table, String> {
        let schema = TableSchema::new(["id", "ts", "amount"])
            .with_value_column("amount")
            .with_index("id_ht", "id", "HT")
            .with_index("ts_rx", "ts", "RX")
            .with_index("id_rxd", "id", "RXD")
            .with_composite_index("id_ts", ["id", "ts"], "SA{u32,u32}");
        Table::load(schema, &self.device, Arc::clone(&self.registry), records)
            .map_err(|e| format!("load table: {e}"))
    }
}

/// A read-only index behind the query trait.
pub struct Index(Box<dyn SecondaryIndex>);

impl Index {
    pub fn execute(&self, batch: &ReadBatch) -> Result<Outcome, String> {
        self.0
            .execute(&batch.0)
            .map(Outcome)
            .map_err(|e| e.to_string())
    }

    /// Device bytes the index occupies (a cost-model number).
    pub fn memory_bytes(&self) -> u64 {
        self.0.memory_bytes()
    }

    /// The typed-key path of `rtx-query`: a pre-built `{u64}` batch.
    pub fn execute_typed(&self, batch: &TypedPoints) -> Result<Outcome, String> {
        self.0
            .execute_typed(&batch.0)
            .map(Outcome)
            .map_err(|e| e.to_string())
    }

    /// Hottest shard's operations over the per-shard mean, in permille
    /// (0 for an unsharded index).
    pub fn imbalance_permille(&self) -> u64 {
        self.0
            .shard_load()
            .map_or(0, |load| (load.imbalance_ratio() * 1000.0).round() as u64)
    }

    pub fn start_service(self) -> Service {
        Service(QueryService::start(self.0, ServiceConfig::default()))
    }
}

/// Pre-built typed batch, so the timed call holds the execution only.
pub struct TypedPoints(TypedBatch);

impl TypedPoints {
    pub fn new(keys: &[u64]) -> Self {
        let mut batch = TypedBatch::new().fetch_values(true);
        for &key in keys {
            batch = batch.point([KeyValue::U64(key)]);
        }
        TypedPoints(batch)
    }
}

/// What one write reported.
#[derive(Debug, Clone, Copy, Default)]
pub struct WriteReport {
    pub reorganisations: u64,
}

/// The kind of a write batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    Insert,
    Delete,
    Upsert,
}

/// An updatable index behind the update trait.
pub struct MutIndex(Box<dyn UpdatableIndex>);

impl MutIndex {
    pub fn execute(&self, batch: &ReadBatch) -> Result<Outcome, String> {
        self.0
            .execute(&batch.0)
            .map(Outcome)
            .map_err(|e| e.to_string())
    }

    pub fn write(
        &mut self,
        kind: WriteKind,
        keys: &[u64],
        values: &[u64],
    ) -> Result<WriteReport, String> {
        match kind {
            WriteKind::Insert => self.0.insert(keys, values),
            WriteKind::Delete => self.0.delete(keys),
            WriteKind::Upsert => self.0.upsert(keys, values),
        }
        .map(|r| WriteReport {
            reorganisations: r.reorganisations,
        })
        .map_err(|e| e.to_string())
    }

    /// Snapshot and truncate the WAL (nothing to do for a memory-only index).
    pub fn checkpoint(&mut self) -> Result<u64, String> {
        self.0.checkpoint().map_err(|e| e.to_string())
    }

    /// One explicit full compaction.
    pub fn compact(&mut self) -> Result<(), String> {
        self.0.compact().map(|_| ()).map_err(|e| e.to_string())
    }

    pub fn key_count(&self) -> usize {
        self.0.key_count()
    }

    /// Update batches the most recent reopen replayed from the WAL (0 for
    /// a memory-only index).
    pub fn replayed_batches(&self) -> u64 {
        self.0
            .durability_stats()
            .map_or(0, |stats| stats.replayed_batches)
    }

    pub fn start_service(self) -> Service {
        Service(QueryService::start_updatable(
            self.0,
            ServiceConfig::default(),
        ))
    }
}

/// `RtIndex` used directly, below the query trait.
pub struct CoreIndex {
    index: RtIndex,
    values: Vec<u64>,
}

impl CoreIndex {
    pub fn points(&self, keys: &[u64]) -> Result<Outcome, String> {
        self.index
            .point_lookup_batch(keys, Some(&self.values))
            .map(Outcome)
            .map_err(|e| e.to_string())
    }

    pub fn ranges(&self, ranges: &[(u64, u64)]) -> Result<Outcome, String> {
        self.index
            .range_lookup_batch(ranges, Some(&self.values))
            .map(Outcome)
            .map_err(|e| e.to_string())
    }

    /// Host time `optix-sim` reports for the acceleration-structure build.
    pub fn accel_build_host(&self) -> Duration {
        self.index.build_metrics().host_build_time
    }
}

/// Service counters as plain numbers; all cumulative since the service
/// started except the two maxima and the gauges at the end.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeCounts {
    pub submitted_batches: u64,
    pub rejected_batches: u64,
    pub fused_submissions: u64,
    pub executed_ops: u64,
    pub write_batches: u64,
    pub write_stall_ns_total: u64,
    pub linger_ns_total: u64,
    pub linger_decisions: u64,
    pub planned_predicates: u64,
    pub scan_fallbacks: u64,
    pub ingest_rollbacks: u64,
    pub fsyncs: u64,
    pub peak_queued_ops: u64,
    pub write_stall_ns_max: u64,
    pub memory_bytes: u64,
}

impl ServeCounts {
    /// The counters accumulated since `earlier` (maxima and gauges are
    /// taken from `self`).
    pub fn since(&self, earlier: &ServeCounts) -> ServeCounts {
        ServeCounts {
            submitted_batches: self.submitted_batches - earlier.submitted_batches,
            rejected_batches: self.rejected_batches - earlier.rejected_batches,
            fused_submissions: self.fused_submissions - earlier.fused_submissions,
            executed_ops: self.executed_ops - earlier.executed_ops,
            write_batches: self.write_batches - earlier.write_batches,
            write_stall_ns_total: self.write_stall_ns_total - earlier.write_stall_ns_total,
            linger_ns_total: self.linger_ns_total - earlier.linger_ns_total,
            linger_decisions: self.linger_decisions - earlier.linger_decisions,
            planned_predicates: self.planned_predicates - earlier.planned_predicates,
            scan_fallbacks: self.scan_fallbacks - earlier.scan_fallbacks,
            ingest_rollbacks: self.ingest_rollbacks - earlier.ingest_rollbacks,
            fsyncs: self.fsyncs - earlier.fsyncs,
            ..*self
        }
    }
}

fn serve_counts(s: &ServiceStats) -> ServeCounts {
    ServeCounts {
        submitted_batches: s.submitted_batches,
        rejected_batches: s.rejected_batches,
        fused_submissions: s.fused_submissions,
        executed_ops: s.executed_ops,
        write_batches: s.write_batches,
        write_stall_ns_total: s.write_stall_ns_total,
        linger_ns_total: s.linger_ns_total,
        linger_decisions: s.linger_decisions,
        planned_predicates: s.planned_predicates,
        scan_fallbacks: s.scan_fallbacks,
        ingest_rollbacks: s.ingest_rollbacks,
        fsyncs: s.fsyncs,
        peak_queued_ops: s.peak_queued_ops,
        write_stall_ns_max: s.write_stall_ns_max,
        memory_bytes: s.memory.total(),
    }
}

/// A running `QueryService` with the default configuration.
pub struct Service(QueryService);

impl Service {
    pub fn client(&self) -> Client {
        Client(self.0.handle())
    }

    pub fn counts(&self) -> ServeCounts {
        serve_counts(&self.0.stats())
    }

    /// Drains the queue, stops the coalescer and drops the backend.
    pub fn shutdown(self) -> ServeCounts {
        serve_counts(&self.0.shutdown())
    }
}

/// A client of a [`Service`]; one per load-generating thread.
#[derive(Clone)]
pub struct Client(ClientHandle);

/// A submitted read whose answers have not been claimed.
pub struct Pending(PendingQuery);

impl Pending {
    pub fn wait(self) -> Result<ServedOutcome, String> {
        self.0
            .wait_shared()
            .map(ServedOutcome)
            .map_err(|e| e.to_string())
    }
}

impl Client {
    pub fn submit(&self, batch: &ReadBatch) -> Result<Pending, String> {
        self.0
            .submit_shared(Arc::clone(&batch.0))
            .map(Pending)
            .map_err(|e| e.to_string())
    }

    pub fn query(&self, batch: &ReadBatch) -> Result<ServedOutcome, String> {
        self.submit(batch)?.wait()
    }

    pub fn write(
        &self,
        kind: WriteKind,
        keys: &[u64],
        values: &[u64],
    ) -> Result<WriteReport, String> {
        match kind {
            WriteKind::Insert => self.0.insert(keys, values),
            WriteKind::Delete => self.0.delete(keys),
            WriteKind::Upsert => self.0.upsert(keys, values),
        }
        .map(|r| WriteReport {
            reorganisations: r.reorganisations,
        })
        .map_err(|e| e.to_string())
    }

    /// Snapshot and truncate the WAL, through the write fence.
    pub fn checkpoint(&self) -> Result<u64, String> {
        self.0.checkpoint().map_err(|e| e.to_string())
    }
}

/// One predicate of a table query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pred {
    /// `id = k`
    Id(u64),
    /// `ts in [lower, upper]`
    TsRange(u64, u64),
    /// `(id, ts) = (a, b)` on the composite index
    IdTs(u64, u64),
    /// `id = a and ts in [lower, upper]` on the composite index
    IdTsRange(u64, u64, u64),
}

/// A table query with value fetch.
#[derive(Debug, Clone)]
pub struct TableRead(TableQuery);

impl TableRead {
    pub fn new(preds: &[Pred]) -> Self {
        let mut query = TableQuery::new();
        for pred in preds {
            query = match *pred {
                Pred::Id(key) => query.point("id", key),
                Pred::TsRange(lower, upper) => query.range("ts", lower, upper),
                Pred::IdTs(id, ts) => query.prefix_tuple(["id", "ts"], vec![id, ts]),
                Pred::IdTsRange(id, lower, upper) => {
                    query.prefix_range(["id", "ts"], vec![id], lower, upper)
                }
            };
        }
        TableRead(query.fetch_values(true))
    }
}

/// One operation of a CDC batch; records are `[id, ts, amount]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RowOp {
    Insert([u64; 3]),
    Delete(u64),
    Upsert([u64; 3]),
}

/// A CDC batch in the library's form.
#[derive(Debug, Clone)]
pub struct TableWrite(IngestBatch);

impl TableWrite {
    pub fn new(ops: &[RowOp]) -> Self {
        let mut batch = IngestBatch::new();
        for op in ops {
            batch = match op {
                RowOp::Insert(record) => batch.insert(record.to_vec()),
                RowOp::Delete(id) => batch.delete(*id),
                RowOp::Upsert(record) => batch.upsert(record.to_vec()),
            };
        }
        TableWrite(batch)
    }
}

/// The answers of one table query.
pub struct TableAnswers {
    outcome: TableOutcome,
}

impl TableAnswers {
    pub fn answers(&self) -> impl Iterator<Item = Answer> + '_ {
        self.outcome.results.iter().map(answer)
    }

    pub fn scan_fallbacks(&self) -> usize {
        self.outcome.plan.scan_fallbacks()
    }
}

/// What one ingest reported.
#[derive(Debug, Clone, Copy, Default)]
pub struct IngestCounts {
    pub rebuilt_indexes: u64,
}

/// A `Table` used directly, below the service.
pub struct DirectTable(Table);

impl Sut {
    pub fn load_direct_table(&self, records: &[Vec<u64>]) -> Result<DirectTable, String> {
        self.load_table(records).map(DirectTable)
    }

    pub fn start_table_service(&self, records: &[Vec<u64>]) -> Result<TableSvc, String> {
        let table = self.load_table(records)?;
        Ok(TableSvc(TableService::start(
            table,
            ServiceConfig::default(),
        )))
    }
}

impl DirectTable {
    pub fn query(&self, read: &TableRead) -> Result<TableAnswers, String> {
        self.0
            .query(&read.0)
            .map(|outcome| TableAnswers { outcome })
            .map_err(|e| e.to_string())
    }

    /// Plans without executing.
    pub fn plan(&self, read: &TableRead) -> Result<(), String> {
        self.0
            .explain(&read.0)
            .map(|plan| {
                std::hint::black_box(plan);
            })
            .map_err(|e| e.to_string())
    }

    pub fn ingest(&mut self, write: &TableWrite) -> Result<IngestCounts, String> {
        self.0
            .ingest(&write.0)
            .map(|r| IngestCounts {
                rebuilt_indexes: r.rebuilt_indexes,
            })
            .map_err(|e| e.to_string())
    }

    pub fn memory_bytes(&self) -> u64 {
        self.0.memory_bytes()
    }
}

/// A running `TableService` with the default configuration.
pub struct TableSvc(TableService);

impl TableSvc {
    pub fn client(&self) -> TableCli {
        TableCli(self.0.handle())
    }

    pub fn counts(&self) -> ServeCounts {
        serve_counts(&self.0.stats())
    }

    pub fn shutdown(self) -> ServeCounts {
        serve_counts(&self.0.shutdown())
    }
}

#[derive(Clone)]
pub struct TableCli(TableClient);

impl TableCli {
    /// The service takes the query by value; clone outside the timed call.
    pub fn query(&self, read: TableRead) -> Result<TableAnswers, String> {
        self.0
            .query(read.0)
            .map(|outcome| TableAnswers { outcome })
            .map_err(|e| e.to_string())
    }

    pub fn ingest(&self, write: TableWrite) -> Result<IngestCounts, String> {
        self.0
            .ingest(write.0)
            .map(|r| IngestCounts {
                rebuilt_indexes: r.rebuilt_indexes,
            })
            .map_err(|e| e.to_string())
    }
}

/// `rtx-query`'s fusion of client batches into one submission and the split
/// back into per-client views, as the service's coalescer drives it.
pub struct FuseProbe {
    fused: FusedBatch,
}

impl Default for FuseProbe {
    fn default() -> Self {
        FuseProbe::new()
    }
}

impl FuseProbe {
    pub fn new() -> Self {
        FuseProbe {
            fused: FusedBatch::new(),
        }
    }

    /// Clears, pushes every client batch, and returns the fused op count.
    pub fn fuse(&mut self, clients: &[ReadBatch]) -> usize {
        self.fused.clear();
        for client in clients {
            self.fused.push(&client.0);
        }
        self.fused.op_count()
    }

    /// Splits a stand-in outcome (all misses) of the current fusion into
    /// per-client shared views.
    pub fn split(&self) -> usize {
        let outcome = BatchOutcome {
            results: vec![LookupResult::miss(); self.fused.op_count()],
            metrics: Default::default(),
        };
        std::hint::black_box(self.fused.split_shared(outcome)).len()
    }
}

/// `rtx-query`'s scatter plan and gather under the `@shards:hash` router
/// the registry gives a sharded index.
pub struct ScatterProbe {
    router: HashPartitioner,
    plan: ScatterPlan,
    ops: QueryOps,
}

impl ScatterProbe {
    pub fn new(shards: usize, batch: &ReadBatch) -> Self {
        ScatterProbe {
            router: HashPartitioner::new(shards),
            plan: ScatterPlan::default(),
            ops: QueryOps::from_batch(&batch.0),
        }
    }

    /// Plans the batch over the shards, then gathers stand-in per-shard
    /// outcomes (all misses) back into submission order.
    pub fn plan_and_gather(&mut self) -> usize {
        self.plan.replan_ops(&self.ops, &self.router);
        let outcomes = self
            .plan
            .sub_ops()
            .iter()
            .map(|sub| BatchOutcome {
                results: vec![LookupResult::miss(); sub.len()],
                metrics: Default::default(),
            })
            .collect();
        std::hint::black_box(self.plan.gather(outcomes))
            .results
            .len()
    }
}

/// A bare write-ahead log with the default durability configuration
/// (fsync after every committed record).
pub struct WalProbe {
    wal: WriteAheadLog,
    next_bsn: u64,
}

impl WalProbe {
    pub fn create(dir: &Path) -> Result<Self, String> {
        WriteAheadLog::create(dir, &DurableConfig::default())
            .map(|wal| WalProbe { wal, next_bsn: 1 })
            .map_err(|e| format!("create WAL in {}: {e}", dir.display()))
    }

    /// Appends one upsert record and commits it (one fsync).
    pub fn append_commit(&mut self, keys: &[u64], values: &[u64]) -> Result<(), String> {
        let record = WalRecord::new(
            self.next_bsn,
            WalPayload::Upsert {
                keys: keys.to_vec(),
                values: values.to_vec(),
                globals: None,
            },
        );
        self.next_bsn += 1;
        self.wal
            .append(&record)
            .and_then(|_| self.wal.commit())
            .map_err(|e| format!("WAL append: {e}"))
    }
}

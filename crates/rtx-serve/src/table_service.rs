//! The table service: a [`Table`] behind the same fenced worker loop as
//! [`QueryService`](crate::QueryService).
//!
//! One worker thread owns the table and drains a bounded submission queue
//! strictly in order, which is exactly the write fence the table's
//! transactional ingest needs: an [`IngestBatch`] never overtakes queries
//! queued before it and is fully visible (or fully rolled back) for every
//! query queued after it. A drain takes a run of consecutive queries up to
//! [`ServiceConfig::max_coalesce_ops`] predicates; the worker runs them one
//! by one through the table's cost-based planner and answers each as soon
//! as it returns, so a run never delays an earlier reply. The service
//! mirrors the planner's routing decisions into its [`ServiceStats`] —
//! planned predicates, index routes, scan fallbacks — next to the ingest
//! counters.
//!
//! Admission control is the query service's: a query costs its predicate
//! count, an ingest batch its operation count (each at least 1), and
//! submissions beyond [`ServiceConfig::max_queue_depth`] fail with
//! [`ServeError::Overloaded`] backpressure.
//!
//! A panic inside the table is handled like a panicking backend of the
//! query service: a panicking query is answered with an
//! [`IndexError::Backend`] and the service keeps serving; a panicking
//! ingest is answered the same way and then shuts the service down, since
//! the table may be half-updated.
//!
//! [`IndexError::Backend`]: rtx_query::IndexError::Backend

use std::sync::atomic::Ordering;
use std::sync::Arc;

use rtx_query::{IngestBatch, TableQuery};
use rtx_table::{IngestReport, Table, TableOutcome};

use crate::config::ServiceConfig;
use crate::error::ServeError;
use crate::service::ServiceStats;
use crate::worker::{wait, Halt, Reply, Shared, Ticket, Unit, Worker};

/// A [`Table`] served to any number of concurrent clients by one worker
/// thread. See the [module docs](self) for the execution model.
///
/// Dropping the service signals shutdown, drains every queued request and
/// joins the worker — already-admitted submissions are still answered,
/// new ones are rejected with [`ServeError::ShuttingDown`].
#[derive(Debug)]
pub struct TableService(Worker<Table>);

impl TableService {
    /// Starts a service owning `table`.
    pub fn start(table: Table, config: ServiceConfig) -> Self {
        TableService(Worker::spawn(table, config, "table".into(), ()))
    }

    /// A new client handle (clonable, sendable across threads).
    pub fn handle(&self) -> TableClient {
        TableClient {
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

/// An admitted table query whose result has not been claimed yet.
#[derive(Debug)]
pub struct PendingTableQuery {
    ticket: Ticket<TableOutcome>,
}

impl PendingTableQuery {
    /// Blocks until the worker has answered this submission.
    pub fn wait(self) -> Result<TableOutcome, ServeError> {
        wait(self.ticket)
    }
}

/// A clonable client of a [`TableService`]: submits multi-predicate
/// queries and transactional CDC ingest batches.
#[derive(Clone)]
pub struct TableClient {
    shared: Arc<Shared<Table>>,
}

impl TableClient {
    /// Submits a query and returns a ticket to claim the result with.
    pub fn submit(&self, query: TableQuery) -> Result<PendingTableQuery, ServeError> {
        let ticket = self.shared.submit_read(|reply| (query, None, reply))?;
        Ok(PendingTableQuery { ticket })
    }

    /// Submits a query and blocks until its result arrives. Every
    /// predicate routes through the table's planner.
    pub fn query(&self, query: TableQuery) -> Result<TableOutcome, ServeError> {
        self.submit(query)?.wait()
    }

    /// [`query`](TableClient::query) with every predicate forced through
    /// the named index; errors when the index cannot serve a predicate.
    pub fn query_forced(&self, query: TableQuery, index: &str) -> Result<TableOutcome, ServeError> {
        let forced = Some(index.to_string());
        wait(self.shared.submit_read(|reply| (query, forced, reply))?)
    }

    /// Applies a CDC batch atomically through the write fence: the batch
    /// never overtakes queries queued before it, and queries queued after
    /// it see it fully applied or (on rejection) fully rolled back.
    /// Blocks until the batch is applied.
    pub fn ingest(&self, batch: IngestBatch) -> Result<IngestReport, ServeError> {
        self.shared.submit_write(|reply| (batch, reply))
    }

    /// A snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        self.shared.counters.snapshot()
    }

    /// Current queue occupancy in admission-cost units.
    pub fn queued_ops(&self) -> usize {
        self.shared.queued_ops()
    }
}

impl Unit for Table {
    type Profile = ();
    /// A query and, for the forced arm of planner experiments, the index
    /// every predicate must route through.
    type Read = (TableQuery, Option<String>, Reply<TableOutcome>);
    type Write = (IngestBatch, Reply<IngestReport>);

    fn read_ops((query, ..): &Self::Read) -> usize {
        query.len()
    }

    fn write_ops((batch, _): &Self::Write) -> usize {
        batch.len()
    }

    fn refresh_gauges(&self, shared: &Shared<Self>) {
        shared
            .counters
            .mem_base_bytes
            .store(self.memory_bytes(), Ordering::Relaxed);
    }

    /// A query takes `&self`: after a panic the table is intact.
    fn run_reads(&mut self, run: &mut Vec<Self::Read>, shared: &Shared<Self>) {
        let c = &shared.counters;
        for (query, forced, reply) in run.drain(..) {
            let result = shared
                .guard_backend(|| match &forced {
                    Some(index) => self.query_forced(&query, index),
                    None => self.query(&query),
                })
                .and_then(|result| result);
            if let Ok(outcome) = &result {
                let planned = outcome.plan.len() as u64;
                let scans = outcome.plan.scan_fallbacks() as u64;
                c.planned_predicates.fetch_add(planned, Ordering::Relaxed);
                c.routed_predicates
                    .fetch_add(planned - scans, Ordering::Relaxed);
                c.scan_fallbacks.fetch_add(scans, Ordering::Relaxed);
                c.executed_ops.fetch_add(planned, Ordering::Relaxed);
            }
            let _ = reply.send(result);
        }
    }

    fn apply_write(
        &mut self,
        (batch, reply): Self::Write,
        shared: &Shared<Self>,
    ) -> Result<(), Halt> {
        let c = &shared.counters;
        c.ingest_batches.fetch_add(1, Ordering::Relaxed);
        c.write_batches.fetch_add(1, Ordering::Relaxed);
        let report = shared.fence(&reply, || self.ingest(&batch))?;
        if report.is_err() {
            c.ingest_rollbacks.fetch_add(1, Ordering::Relaxed);
        }
        self.refresh_gauges(shared);
        let _ = reply.send(report);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::tests::within;
    use gpu_device::Device;
    use rtindex_core::RtIndexConfig;
    use rtx_delta::DynamicRtConfig;
    use rtx_query::{
        BatchOutcome, Capabilities, IndexBuildMetrics, IndexError, IndexSpec, Record, Registry,
        SecondaryIndex, TableSchema,
    };
    use std::sync::{mpsc, Mutex};
    use std::time::Duration;

    fn registry() -> Arc<Registry> {
        let mut registry = Registry::new();
        gpu_baselines::register_baselines(&mut registry);
        rtindex_core::register_rx(&mut registry, RtIndexConfig::default());
        rtx_delta::register_dynamic(
            &mut registry,
            DynamicRtConfig::default().with_rx(RtIndexConfig::default()),
        );
        Arc::new(registry)
    }

    fn table(records: &[Record]) -> Table {
        let schema = TableSchema::new(["id", "ts", "amount"])
            .with_value_column("amount")
            .with_index("id_ht", "id", "HT")
            .with_index("ts_rx", "ts", "RX")
            .with_index("id_rxd", "id", "RXD");
        Table::load(schema, &Device::default_eval(), registry(), records).unwrap()
    }

    fn seed_records(n: u64) -> Vec<Record> {
        (0..n).map(|k| vec![k, k * 3 % 257, k * 7]).collect()
    }

    #[test]
    fn queries_route_through_the_planner_and_counters_mirror_the_plan() {
        let service = TableService::start(table(&seed_records(128)), ServiceConfig::new());
        let h = service.handle();

        let out = h
            .query(
                TableQuery::new()
                    .point("id", 7)
                    .range("ts", 0, 50)
                    .range("amount", 0, 100) // unindexed → scan
                    .fetch_values(true),
            )
            .unwrap();
        assert_eq!(out.plan.routed_index(0), Some("id_ht"));
        assert_eq!(out.plan.routed_index(1), Some("ts_rx"));
        assert_eq!(out.plan.scan_fallbacks(), 1);
        assert_eq!(out.results[0].hit_count, 1);

        let forced = h
            .query_forced(TableQuery::new().point("id", 7), "id_rxd")
            .unwrap();
        assert_eq!(forced.plan.routed_index(0), Some("id_rxd"));
        assert_eq!(forced.results[0].first_row, out.results[0].first_row);

        let stats = service.shutdown();
        assert_eq!(stats.submitted_batches, 2);
        assert_eq!(stats.submitted_ops, 4);
        assert_eq!(stats.planned_predicates, 4);
        assert_eq!(stats.routed_predicates, 3);
        assert_eq!(stats.scan_fallbacks, 1);
        assert_eq!(stats.executed_ops, 4);
        assert_eq!(stats.ingest_batches, 0);
        assert!(stats.memory.base_bytes > 0, "table footprint mirrored");
    }

    #[test]
    fn ingest_is_fenced_and_rollbacks_are_counted() {
        let service = TableService::start(table(&seed_records(64)), ServiceConfig::new());
        let h = service.handle();

        // Concurrent clients: readers poll a key while a writer upserts
        // it; the fence guarantees every reader sees a consistent row.
        let report = h
            .ingest(IngestBatch::new().insert(vec![500, 1, 10]).delete(3))
            .unwrap();
        assert_eq!(report.inserted_rows, 1);
        assert_eq!(report.deleted_rows, 1);
        let out = h
            .query(TableQuery::new().point("id", 500).point("id", 3))
            .unwrap();
        assert_eq!(out.results[0].hit_count, 1, "the insert is visible");
        assert_eq!(out.results[1].hit_count, 0, "the delete is visible");

        // A query larger than the queue is rejected as non-retryable.
        let config = h.shared.config;
        let mut big = TableQuery::new();
        for _ in 0..=config.max_queue_depth {
            big = big.point("id", 1);
        }
        assert!(matches!(h.query(big), Err(ServeError::TooLarge { .. })));

        let threads: Vec<_> = (0..4)
            .map(|c| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..8u64 {
                        let key = 1000 + c;
                        h.ingest(IngestBatch::new().upsert(vec![key, i, i * 10]))
                            .unwrap();
                        let out = h.query(TableQuery::new().point("id", key)).unwrap();
                        assert_eq!(out.results[0].hit_count, 1, "fenced upsert");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }

        let stats = service.shutdown();
        assert_eq!(stats.ingest_batches, 33);
        assert_eq!(stats.write_batches, 33);
        assert_eq!(stats.ingest_rollbacks, 0);
        assert!(stats.write_stall_ns_total > 0);

        // The surviving handle is refused after shutdown.
        assert_eq!(
            h.query(TableQuery::new().point("id", 1)).unwrap_err(),
            ServeError::ShuttingDown
        );
        assert_eq!(
            h.ingest(IngestBatch::new().delete(1)).unwrap_err(),
            ServeError::ShuttingDown
        );
    }

    #[test]
    fn rejected_batches_roll_back_behind_the_fence() {
        // A B+-tree index makes duplicate primary keys a rejection.
        let schema = TableSchema::new(["id", "ts"])
            .with_index("id_bt", "id", "B+")
            .with_index("id_rxd", "id", "RXD");
        let records: Vec<Record> = (0..32u64).map(|k| vec![k, k * 2]).collect();
        let table = Table::load(schema, &Device::default_eval(), registry(), &records).unwrap();
        let service = TableService::start(table, ServiceConfig::new());
        let h = service.handle();

        let err = h
            .ingest(IngestBatch::new().insert(vec![99, 0]).insert(vec![5, 0]))
            .unwrap_err();
        assert!(matches!(err, ServeError::Index(_)), "{err}");
        // Atomic: the first insert rolled back with the second.
        let out = h.query(TableQuery::new().point("id", 99)).unwrap();
        assert_eq!(out.results[0].hit_count, 0);
        let stats = service.shutdown();
        assert_eq!(stats.ingest_batches, 1);
        assert_eq!(stats.ingest_rollbacks, 1);
    }

    #[test]
    fn composite_predicates_are_served_and_fenced() {
        let schema = TableSchema::new(["id", "region", "ts", "amount"])
            .with_value_column("amount")
            .with_index("id_rxd", "id", "RXD")
            .with_composite_index("region_ts", ["region", "ts"], "SA{u32,u32}");
        let records: Vec<Record> = (0..96u64).map(|k| vec![k, k % 4, k * 5 % 128, k]).collect();
        let table = Table::load(schema, &Device::default_eval(), registry(), &records).unwrap();
        let service = TableService::start(table, ServiceConfig::new());
        let h = service.handle();

        // A composite prefix range routes to the composite index, never a
        // scan, and sums the fetched values of exactly the matching rows.
        let query = TableQuery::new()
            .prefix_range(["region", "ts"], vec![1], 0, 60)
            .prefix_tuple(["region", "ts"], vec![2, 10])
            .fetch_values(true);
        let out = h.query(query.clone()).unwrap();
        assert_eq!(out.plan.routed_index(0), Some("region_ts"));
        assert_eq!(out.plan.routed_index(1), Some("region_ts"));
        assert_eq!(out.plan.scan_fallbacks(), 0);
        let expected: (u32, u64) = records
            .iter()
            .enumerate()
            .filter(|(_, r)| r[1] == 1 && r[2] <= 60)
            .fold((0, 0), |(n, sum), (_, r)| (n + 1, sum + r[3]));
        assert_eq!(
            (out.results[0].hit_count, out.results[0].value_sum),
            expected
        );
        // (region, ts) = (2, 10) pins exactly row 2 in this data set.
        assert_eq!((out.results[1].first_row, out.results[1].hit_count), (2, 1));

        // Ingest behind the fence: the composite index rebuilds and the
        // fresh row is immediately visible to a prefix query.
        h.ingest(IngestBatch::new().insert(vec![500, 9, 9, 1]))
            .unwrap();
        let out = h
            .query(TableQuery::new().prefix_tuple(["region"], vec![9]))
            .unwrap();
        assert_eq!(out.results[0].hit_count, 1);
        service.shutdown();
    }

    type Probe = Arc<dyn Fn(&[u64]) + Send + Sync>;

    /// A hash-table index that runs a hook before every point probe.
    struct Hooked(Box<dyn SecondaryIndex>, Probe);

    fn hooked_hash_table(
        spec: &IndexSpec,
        probe: Probe,
    ) -> Result<Box<dyn SecondaryIndex>, IndexError> {
        let inner = gpu_baselines::WarpHashTable::build(spec.device, spec.keys)?;
        let inner = gpu_baselines::GpuIndexAdapter::new(inner, spec);
        Ok(Box::new(Hooked(Box::new(inner), probe)))
    }

    impl SecondaryIndex for Hooked {
        fn name(&self) -> &str {
            self.0.name()
        }
        fn key_count(&self) -> usize {
            self.0.key_count()
        }
        fn memory_bytes(&self) -> u64 {
            self.0.memory_bytes()
        }
        fn build_metrics(&self) -> IndexBuildMetrics {
            self.0.build_metrics()
        }
        fn capabilities(&self) -> Capabilities {
            self.0.capabilities()
        }
        fn has_value_column(&self) -> bool {
            self.0.has_value_column()
        }
        fn point_chunk(&self, queries: &[u64], fetch: bool) -> Result<BatchOutcome, IndexError> {
            (self.1)(queries);
            self.0.point_chunk(queries, fetch)
        }
        fn range_chunk(
            &self,
            ranges: &[(u64, u64)],
            fetch: bool,
        ) -> Result<BatchOutcome, IndexError> {
            self.0.range_chunk(ranges, fetch)
        }
    }

    #[test]
    fn a_panicking_table_answers_queries_then_stops_at_a_panicking_ingest() {
        let mut registry = Registry::new();
        // A hash-table index that panics on key 13: probed for it, or
        // (re)built over it.
        registry.register("BOOM", |spec| {
            assert!(!spec.keys.contains(&13), "built over key 13");
            let probe = |queries: &[u64]| assert!(!queries.contains(&13), "probed key 13");
            hooked_hash_table(spec, Arc::new(probe))
        });
        let schema = TableSchema::new(["id", "ts"]).with_index("id_boom", "id", "BOOM");
        let records: Vec<Record> = (0..32u64)
            .filter(|&k| k != 13)
            .map(|k| vec![k, k])
            .collect();
        let table = Table::load(
            schema,
            &Device::default_eval(),
            Arc::new(registry),
            &records,
        )
        .unwrap();
        let service = TableService::start(table, ServiceConfig::default());
        let h = service.handle();
        within(Duration::from_secs(10), move || {
            let backend_panic = |err: ServeError, detail: &str| match err {
                ServeError::Index(IndexError::Backend { backend, message }) => {
                    assert_eq!(&*backend, "table");
                    assert_eq!(message, format!("backend panicked: {detail}"));
                }
                other => panic!("expected the panic as an error, got {other:?}"),
            };
            let probe = |key| TableQuery::new().point("id", key);
            backend_panic(
                h.query_forced(probe(13), "id_boom").unwrap_err(),
                "probed key 13",
            );
            // The table is intact after a panicking query.
            let out = h.query_forced(probe(7), "id_boom").unwrap();
            assert_eq!(out.results[0].first_row, 7);
            // An ingest that panics may have half-applied: answered, then
            // every later request is refused.
            backend_panic(
                h.ingest(IngestBatch::new().insert(vec![13, 0]))
                    .unwrap_err(),
                "built over key 13",
            );
            assert_eq!(h.query(probe(7)).unwrap_err(), ServeError::ShuttingDown);
        });
        let stats = service.shutdown();
        assert_eq!(stats.backend_panics, 2);
        assert_eq!(stats.ingest_batches, 1);
    }

    #[test]
    fn a_run_answers_each_query_in_queue_order_behind_the_ingest_fence() {
        // The test's single-key probes enter the table one at a time: each
        // reports its key, then waits for a token. Dropping the token
        // sender opens the gate for good; the planner's 64-key calibration
        // probes never stop at it.
        let (entered_tx, entered) = mpsc::channel();
        let (tokens, tokens_rx) = mpsc::channel::<()>();
        let tokens_rx = Mutex::new(tokens_rx);
        let probe: Probe = Arc::new(move |queries: &[u64]| {
            if let [key] = queries {
                let _ = entered_tx.send(*key);
                let _ = tokens_rx.lock().unwrap().recv();
            }
        });
        let mut registry = Registry::new();
        registry.register("GATE", move |spec| {
            hooked_hash_table(spec, Arc::clone(&probe))
        });
        let schema = TableSchema::new(["id", "ts"]).with_index("id_gate", "id", "GATE");
        let records: Vec<Record> = (0..32u64).map(|k| vec![k, k]).collect();
        let table = Table::load(
            schema,
            &Device::default_eval(),
            Arc::new(registry),
            &records,
        )
        .unwrap();
        let service = TableService::start(table, ServiceConfig::default());
        let h = service.handle();
        within(Duration::from_secs(10), move || {
            let probe = |key| TableQuery::new().point("id", key);
            // Hold the worker inside Q0 while Q1, Q2, an ingest of key 500
            // and Q3 queue up behind it.
            let t0 = h.submit(probe(1)).unwrap();
            assert_eq!(entered.recv().unwrap(), 1);
            let t1 = h.submit(probe(500)).unwrap();
            let t2 = h.submit(probe(500)).unwrap();
            let writer = {
                let h = h.clone();
                std::thread::spawn(move || h.ingest(IngestBatch::new().insert(vec![500, 0])))
            };
            while h.queued_ops() < 3 {
                std::thread::yield_now();
            }
            let t3 = h.submit(probe(500)).unwrap();

            // Q1 and Q2 drain as one run, and each query is answered as
            // soon as it returns: Q0 while Q1 is inside the table, Q1
            // while Q2 is. A reply held back to the end of its run would
            // hang here.
            tokens.send(()).unwrap();
            assert_eq!(entered.recv().unwrap(), 500);
            assert_eq!(t0.wait().unwrap().results[0].hit_count, 1);
            tokens.send(()).unwrap();
            assert_eq!(entered.recv().unwrap(), 500);
            assert_eq!(
                t1.wait().unwrap().results[0].hit_count,
                0,
                "Q1 precedes the ingest"
            );

            // Shut down as Q2 leaves the gate: every admitted request is
            // answered, in queue order, and then the handle is refused.
            drop(tokens);
            let stats = service.shutdown();
            assert_eq!(
                t2.wait().unwrap().results[0].hit_count,
                0,
                "Q2 precedes the ingest"
            );
            assert_eq!(writer.join().unwrap().unwrap().inserted_rows, 1);
            assert_eq!(
                t3.wait().unwrap().results[0].hit_count,
                1,
                "Q3 sees the ingest"
            );
            assert_eq!(stats.planned_predicates, 4);
            assert_eq!(stats.ingest_batches, 1);
            assert_eq!(h.query(probe(1)).unwrap_err(), ServeError::ShuttingDown);
            assert_eq!(
                h.ingest(IngestBatch::new().delete(1)).unwrap_err(),
                ServeError::ShuttingDown
            );
        });
    }
}

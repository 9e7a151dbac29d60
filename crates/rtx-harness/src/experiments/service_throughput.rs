//! Beyond-paper experiment: cross-client batch coalescing throughput.
//!
//! The paper submits one huge batch at a time; a service receives many
//! *small* batches from concurrent clients. This experiment measures what
//! the `rtx-serve` coalescing layer recovers of the paper's batch-size
//! advantage, sweeping client count × per-client batch size over the same
//! total operation volume:
//!
//! * **serial** — the no-service baseline: every client batch is executed
//!   directly on the backend, one at a time, in arrival (round-robin)
//!   order. Each small batch pays the full fixed per-submission cost
//!   (scatter/gather planning, per-shard kernel launches).
//! * **coalesced** — all clients submit concurrently to one
//!   [`QueryService`]; the coalescer fuses whatever is queued into one
//!   large submission and scatters the results back.
//!
//! The win comes from amortising fixed per-launch work over fused
//! submissions, so it grows with the client count (more concurrent
//! arrivals to fuse) and shrinks with the per-client batch size (large
//! client batches already amortise well on their own). Under load the
//! fusion is self-clocked: while one fused batch executes, every newly
//! arriving client batch queues up and fuses into the next submission.
//!
//! The backend is sharded ([`SERVICE_BACKEND`]) so coalescing and sharded
//! execution compose — fused batches scatter across shards on the worker
//! pool.

use std::time::Instant;

use rtx_query::{IndexSpec, QueryBatch};
use rtx_serve::{QueryService, ServiceConfig};
use rtx_workloads as wl;

use crate::indexes::registry;
use crate::report::{fmt_ms, fmt_throughput, Table};
use crate::scale::ExperimentScale;

/// Client counts swept.
const CLIENT_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Per-client batch sizes (operations per submission) swept.
const BATCH_OPS: [usize; 2] = [32, 256];

/// The backend every cell runs against: RX sharded over 4 shards, so the
/// experiment exercises the fusion → scatter → gather composition.
pub const SERVICE_BACKEND: &str = "RX@4";

/// One measured (client count, batch size) cell.
#[derive(Debug, Clone)]
pub struct ServiceRun {
    /// Concurrent clients submitting.
    pub clients: usize,
    /// Operations per client batch.
    pub batch_ops: usize,
    /// Batches each client submits.
    pub batches_per_client: usize,
    /// Total operations over all clients (identical in both paths).
    pub total_ops: usize,
    /// Host milliseconds of the serial no-service baseline.
    pub serial_ms: f64,
    /// Host milliseconds of the coalesced service path (wall clock over
    /// all concurrent clients).
    pub service_ms: f64,
    /// Fused backend submissions the service needed.
    pub fused_submissions: u64,
    /// Mean operations per fused submission (the achieved batch size).
    pub mean_fused_ops: f64,
    /// Lookups that hit — identical in both paths by construction.
    pub hits: usize,
}

impl ServiceRun {
    /// Serial-baseline throughput in operations per second.
    fn serial_throughput(&self) -> f64 {
        throughput(self.total_ops, self.serial_ms)
    }

    /// Coalesced-service throughput in operations per second.
    fn service_throughput(&self) -> f64 {
        throughput(self.total_ops, self.service_ms)
    }

    /// Coalesced over serial throughput (> 1 means coalescing wins).
    fn speedup(&self) -> f64 {
        if self.service_ms <= 0.0 {
            return 0.0;
        }
        self.serial_ms / self.service_ms
    }
}

fn throughput(ops: usize, ms: f64) -> f64 {
    if ms <= 0.0 {
        return 0.0;
    }
    ops as f64 / (ms / 1e3)
}

/// The per-client submission schedule of one cell: `clients` lists of
/// `batches_per_client` point-lookup batches with a value fetch.
fn client_batches(
    keys: &[u64],
    clients: usize,
    batch_ops: usize,
    batches_per_client: usize,
    seed: u64,
) -> Vec<Vec<QueryBatch>> {
    (0..clients)
        .map(|c| {
            let queries = wl::point_lookups_with_hit_rate(
                keys,
                batch_ops * batches_per_client,
                0.8,
                seed + c as u64,
            );
            queries
                .chunks(batch_ops)
                .map(|chunk| QueryBatch::of_points(chunk).fetch_values(true))
                .collect()
        })
        .collect()
}

/// Runs one (client count, batch size) cell against a freshly built
/// backend pair (one for each path, so neither measurement sees a warmed
/// competitor).
fn run_cell(
    spec: &IndexSpec<'_>,
    keys: &[u64],
    clients: usize,
    batch_ops: usize,
    total_ops_target: usize,
    seed: u64,
) -> ServiceRun {
    let registry = registry();
    let batches_per_client = (total_ops_target / (clients * batch_ops)).max(1);
    let schedule = client_batches(keys, clients, batch_ops, batches_per_client, seed);
    let total_ops = clients * batches_per_client * batch_ops;

    // Serial baseline: submission order is round-robin over the clients —
    // the arrival order a fair scheduler would produce — with every batch
    // executed individually.
    let backend = registry.build(SERVICE_BACKEND, spec).expect("backend");
    let mut serial_hits = 0usize;
    let started = Instant::now();
    for round in 0..batches_per_client {
        for client in schedule.iter() {
            serial_hits += backend
                .execute(&client[round])
                .expect("serial batch")
                .hit_count();
        }
    }
    let serial_ms = started.elapsed().as_secs_f64() * 1e3;
    drop(backend);

    // Coalesced path: concurrent clients against one default (self-clocked)
    // service — the queue itself provides the batching: arrivals during
    // one fused execution fuse into the next.
    let backend = registry.build(SERVICE_BACKEND, spec).expect("backend");
    let service = QueryService::start(backend, ServiceConfig::default());
    let started = Instant::now();
    let service_hits: usize = std::thread::scope(|scope| {
        let workers: Vec<_> = schedule
            .iter()
            .map(|client| {
                let handle = service.handle();
                scope.spawn(move || {
                    let mut hits = 0usize;
                    for batch in client {
                        hits += handle
                            .query(batch.clone())
                            .expect("service batch")
                            .hit_count();
                    }
                    hits
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("client")).sum()
    });
    let service_ms = started.elapsed().as_secs_f64() * 1e3;
    let stats = service.shutdown();

    assert_eq!(
        serial_hits, service_hits,
        "both paths must answer identically"
    );
    ServiceRun {
        clients,
        batch_ops,
        batches_per_client,
        total_ops,
        serial_ms,
        service_ms,
        fused_submissions: stats.fused_submissions,
        mean_fused_ops: stats.mean_fused_ops(),
        hits: serial_hits,
    }
}

/// Runs the full client-count × batch-size sweep.
pub fn run_sweep(scale: &ExperimentScale) -> Vec<ServiceRun> {
    let device = crate::scaled_device(scale);
    let n = scale.default_keys();
    let keys = wl::dense_shuffled(n, scale.seed);
    let values = wl::value_column(n, scale.seed + 1);
    let spec = IndexSpec::with_values(&device, &keys, &values);
    let total_ops_target = scale.default_lookups();

    let mut runs = Vec::new();
    for &batch_ops in &BATCH_OPS {
        for &clients in &CLIENT_COUNTS {
            runs.push(run_cell(
                &spec,
                &keys,
                clients,
                batch_ops,
                total_ops_target,
                scale.seed + 7,
            ));
        }
    }
    runs
}

/// The `service_throughput` experiment: coalesced service vs per-client
/// serial submission over the sweep.
pub fn run(scale: &ExperimentScale) -> Vec<Table> {
    let runs = run_sweep(scale);
    let mut table = Table::new(
        format!(
            "Service throughput, coalesced vs serial, backend {SERVICE_BACKEND}, 2^{} keys, {} workers",
            scale.keys_exp,
            gpu_device::worker_count()
        ),
        &[
            "clients",
            "batch ops",
            "total ops",
            "serial [ms]",
            "serial ops/s",
            "coalesced [ms]",
            "coalesced ops/s",
            "speedup",
            "fused subs",
            "mean fused ops",
            "hits",
        ],
    );
    for run in &runs {
        table.push_row(vec![
            run.clients.to_string(),
            run.batch_ops.to_string(),
            run.total_ops.to_string(),
            fmt_ms(run.serial_ms),
            fmt_throughput(run.serial_throughput()),
            fmt_ms(run.service_ms),
            fmt_throughput(run.service_throughput()),
            format!("{:.2}x", run.speedup()),
            run.fused_submissions.to_string(),
            format!("{:.1}", run.mean_fused_ops),
            run.hits.to_string(),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_paths_answer_identically_across_the_sweep() {
        let scale = ExperimentScale::tiny();
        let runs = run_sweep(&scale);
        assert_eq!(runs.len(), CLIENT_COUNTS.len() * BATCH_OPS.len());
        for run in &runs {
            // run_cell asserts serial hits == service hits internally; here
            // the sweep-level invariants.
            assert!(run.hits > 0, "hit-rate workload must hit");
            assert_eq!(
                run.total_ops,
                run.clients * run.batches_per_client * run.batch_ops
            );
            assert!(run.fused_submissions > 0);
            assert!(run.mean_fused_ops >= run.batch_ops as f64 - 1e-9);
            assert!(run.serial_ms > 0.0 && run.service_ms > 0.0);
        }
        // The same total volume is swept at every client count.
        let tables = run(&scale);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].rows.len(), runs.len());
    }
}

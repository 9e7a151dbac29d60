//! The traced run (`bench-trace`): the workload itself, for its counters
//! and the numbers only it can measure, then an outside-in replay of a fixed
//! sample of its requests through every layer boundary, then the
//! micro-measurements of the layers that workload exercises.
//!
//! Every number here comes from calling a crate's public functions from the
//! outside; spans *inside* the crates are a later change, and until then the
//! time below `optix_sim::launch` is split only by the `rtx-bvh` counts.
//! The `optix-sim.launch` span is the one span not timed by the benchmark:
//! it is the host time the program reports for its launches, placed at the
//! start of the `rtindex-core.lookup` call that caused them.

use std::time::{Duration, Instant};

use crate::gen::SplitMix64;
use crate::report::{self, Config, Measured};
use crate::spans::Recorder;
use crate::stats::{median, Summary};
use crate::sut::{
    self, CoreIndex, FuseProbe, Index, ModelCounts, Op, Outcome, ReadBatch, ScatterProbe, Sut,
    TypedPoints, WalProbe, WriteKind,
};
use crate::workloads::mixed_durable::{durable_name, ScratchDir, ROWS_PER_BATCH};
use crate::workloads::serve_read::POINTS_PER_EVENT;
use crate::workloads::{self, bulk_probe, mixed_durable, serve_read, table_serve};

/// Read requests replayed per workload.
pub const TRACE_REQUESTS: usize = 2000;
/// Write batches replayed: each costs milliseconds on four instances, two
/// of them fsyncing, so the sample is smaller than for reads.
pub const TRACE_WRITES: usize = 300;

fn timed<T>(call: impl FnOnce() -> T) -> (T, Instant, Duration) {
    let start = Instant::now();
    let value = call();
    (value, start, start.elapsed())
}

fn ns(duration: Duration) -> f64 {
    duration.as_nanos() as f64
}

/// Median of `numerators` over median of `denominators`; 0 without both.
fn ratio_of_medians(numerators: &[f64], denominators: &[f64]) -> f64 {
    let denominator = median(denominators);
    if denominator > 0.0 {
        median(numerators) / denominator
    } else {
        0.0
    }
}

fn split_ops(ops: &[Op]) -> (Vec<u64>, Vec<(u64, u64)>) {
    let mut points = Vec::new();
    let mut ranges = Vec::new();
    for op in ops {
        match *op {
            Op::Point(key) => points.push(key),
            Op::Range(lower, upper) => ranges.push((lower, upper)),
        }
    }
    (points, ranges)
}

/// The request's lookups straight on `RtIndex`: one call for its points and
/// one for its ranges. Returns the wall time of the calls and the launch
/// time the program reports for them.
fn core_lookup(core: &CoreIndex, ops: &[Op]) -> Result<(Instant, Duration, Duration), String> {
    let (points, ranges) = split_ops(ops);
    let start = Instant::now();
    let mut launch = Duration::ZERO;
    if !points.is_empty() {
        launch += core.points(&points)?.launch_host();
    }
    if !ranges.is_empty() {
        launch += core.ranges(&ranges)?.launch_host();
    }
    Ok((start, start.elapsed(), launch))
}

/// Records the three innermost spans of the read path — `rtx-query.execute`
/// on the registry-built `RX`, `rtindex-core.lookup` on the bare `RtIndex`,
/// and the reported `optix-sim.launch` — under `parent`. Returns the
/// durations of the first two and the outcome of the first.
fn probe_spans(
    recorder: &mut Recorder,
    plain: &Index,
    core: &CoreIndex,
    batch: &ReadBatch,
    ops: &[Op],
    parent: Option<u32>,
    request: u32,
) -> Result<(Duration, Duration, Outcome), String> {
    let (outcome, start, through_trait) = timed(|| plain.execute(batch));
    let outcome: Outcome = outcome?;
    let execute = recorder.record("rtx-query.execute", start, through_trait, parent, request);
    let (start, direct, launch) = core_lookup(core, ops)?;
    let lookup = recorder.record("rtindex-core.lookup", start, direct, Some(execute), request);
    recorder.record("optix-sim.launch", start, launch, Some(lookup), request);
    Ok((through_trait, direct, outcome))
}

fn set_probe_self_times(measured: &mut Measured, recorder: &Recorder) {
    measured.set_value(
        "trace.rtx-query.execute.self_us",
        recorder.self_time_ns("rtx-query.execute", "rtindex-core.lookup") / 1e3,
    );
    measured.set_value(
        "trace.rtindex-core.lookup.self_us",
        recorder.self_time_ns("rtindex-core.lookup", "optix-sim.launch") / 1e3,
    );
    measured.set_value(
        "trace.optix-sim.launch.self_us",
        median(&recorder.durations_ns("optix-sim.launch")) / 1e3,
    );
}

/// Median nanoseconds per lookup of `index` over a pool of requests.
fn ns_per_op(index: &Index, pool: &[workloads::ReadRequest]) -> Result<f64, String> {
    let mut per_op = Vec::with_capacity(pool.len());
    for request in pool {
        let (outcome, _, duration) = timed(|| index.execute(&request.batch));
        outcome?;
        per_op.push(ns(duration) / request.batch.len() as f64);
    }
    Ok(median(&per_op))
}

fn trace_bulk_probe(
    input: &bulk_probe::Input,
    measured: &mut Measured,
    recorder: &mut Recorder,
) -> Result<(), String> {
    let sut = Sut::new();
    let plain = sut.build("RX", &input.keys, &input.values)?;
    let (core, _, build) = timed(|| sut.build_core(&input.keys, &input.values));
    let core = core?;
    measured.set_value("rtindex-core.build_s", build.as_secs_f64());
    measured.set_value(
        "optix-sim.accel_build_s",
        core.accel_build_host().as_secs_f64(),
    );

    let mut point_ns = Vec::new();
    let mut range_ns = Vec::new();
    let mut range_rate = Vec::new();
    let mut range_counts = ModelCounts::default();
    let mut range_ops = 0u64;
    let requests = input
        .points
        .iter()
        .chain(&input.ranges)
        .take(TRACE_REQUESTS);
    for (id, request) in requests.enumerate() {
        let (through_trait, direct, outcome) = probe_spans(
            recorder,
            &plain,
            &core,
            &request.batch,
            &request.ops,
            None,
            id as u32,
        )?;
        let ops = request.ops.len() as f64;
        if id < input.points.len() {
            point_ns.push(ns(direct) / ops);
        } else {
            range_ns.push(ns(direct) / ops);
            range_rate.push(ops / through_trait.as_secs_f64());
            range_counts.add(&outcome.model());
            range_ops += request.ops.len() as u64;
        }
    }
    measured.set(
        "bench.range_ops_per_s",
        Summary::of(median(&range_rate), range_rate.len() as u64),
    );
    measured.set_value(
        "rtx-bvh.range_nodes_per_op",
        range_counts.nodes_visited as f64 / range_ops.max(1) as f64,
    );
    measured.set_value("rtindex-core.point_ns_per_op", median(&point_ns));
    measured.set_value("rtindex-core.range_ns_per_op", median(&range_ns));
    set_probe_self_times(measured, recorder);
    drop((plain, core));

    // The comparison arms of the paper's evaluation, over the same column
    // pair and the same batches.
    let mut baselines_build = 0.0;
    for (name, point_metric, range_metric) in [
        ("HT", "gpu-baselines.ht_point_ns_per_op", None),
        (
            "B+",
            "gpu-baselines.bplus_point_ns_per_op",
            Some("gpu-baselines.bplus_range_ns_per_op"),
        ),
        (
            "SA",
            "gpu-baselines.sa_point_ns_per_op",
            Some("gpu-baselines.sa_range_ns_per_op"),
        ),
    ] {
        let (index, _, build) = timed(|| sut.build(name, &input.keys, &input.values));
        let index = index?;
        baselines_build += build.as_secs_f64();
        measured.set_value(point_metric, ns_per_op(&index, &input.points)?);
        if let Some(range_metric) = range_metric {
            measured.set_value(range_metric, ns_per_op(&index, &input.ranges)?);
        }
    }
    measured.set_value("gpu-baselines.build_s", baselines_build);
    Ok(())
}

fn trace_serve_read(
    config: &Config,
    input: &serve_read::Input,
    measured: &mut Measured,
    recorder: &mut Recorder,
) -> Result<(), String> {
    let sut = Sut::new();
    let service = serve_read::start(&sut, input)?;
    let client = service.client();
    let sharded = sut.build(serve_read::BACKEND, &input.keys, &input.values)?;
    let plain = sut.build("RX", &input.keys, &input.values)?;
    let core = sut.build_core(&input.keys, &input.values)?;

    let mut submit_ns = Vec::new();
    // Of the 16-op events only (every 8th event carries ranges too).
    let mut sharded_16 = Vec::new();
    let mut plain_16 = Vec::new();
    let mut trait_self_16 = Vec::new();
    let mut launch_16 = Vec::new();
    for (id, event) in input.events.iter().take(TRACE_REQUESTS).enumerate() {
        let id = id as u32;
        let (answered, start, through_service) = timed(|| client.query(&event.batch));
        answered?;
        let request = recorder.record("rtx-serve.request", start, through_service, None, id);
        let (outcome, start, through_shards) = timed(|| sharded.execute(&event.batch));
        outcome?;
        let execute = recorder.record(
            "rtx-shard.execute",
            start,
            through_shards,
            Some(request),
            id,
        );
        let (through_trait, direct, outcome) = probe_spans(
            recorder,
            &plain,
            &core,
            &event.batch,
            &event.ops,
            Some(execute),
            id,
        )?;
        if event.ops.len() == POINTS_PER_EVENT {
            sharded_16.push(ns(through_shards));
            plain_16.push(ns(through_trait));
            trait_self_16.push(ns(through_trait) - ns(direct));
            launch_16.push(ns(outcome.launch_host()));
        }
        let (pending, _, submit) = timed(|| client.submit(&event.batch));
        submit_ns.push(ns(submit));
        pending?.wait()?;
    }
    measured.set_value(
        "rtx-serve.request_self_us",
        recorder.self_time_ns("rtx-serve.request", "rtx-shard.execute") / 1e3,
    );
    measured.set_value(
        "trace.rtx-shard.execute.self_us",
        recorder.self_time_ns("rtx-shard.execute", "rtx-query.execute") / 1e3,
    );
    set_probe_self_times(measured, recorder);
    measured.set_value("rtx-serve.submit_ns", median(&submit_ns));
    measured.set_value(
        "rtx-shard.small_batch_x",
        ratio_of_medians(&sharded_16, &plain_16),
    );
    measured.set_value("rtx-query.execute_self_ns_16op", median(&trait_self_16));
    measured.set_value("optix-sim.launch_us_16op", median(&launch_16) / 1e3);
    measured.set_value(
        "rtx-shard.imbalance_permille",
        sharded.imbalance_permille() as f64,
    );
    service.shutdown();

    let fanout: Vec<f64> = (0..2000).map(|_| ns(timed(sut::empty_fanout).2)).collect();
    measured.set_value("gpu-device.fanout_us", median(&fanout) / 1e3);

    // One bulk batch on the sharded and the plain index, alternating.
    let bulk = if config.smoke { 1 << 10 } else { 1 << 16 };
    let mut rng = SplitMix64::stream(config.seed, 9);
    let ops: Vec<Op> = (0..bulk)
        .map(|_| Op::Point(rng.below(input.sizes.keys as u64)))
        .collect();
    let batch = ReadBatch::new(&ops);
    let mut sharded_bulk = Vec::new();
    let mut plain_bulk = Vec::new();
    for _ in 0..5 {
        let (outcome, _, duration) = timed(|| sharded.execute(&batch));
        outcome?;
        sharded_bulk.push(ns(duration));
        let (outcome, _, duration) = timed(|| plain.execute(&batch));
        outcome?;
        plain_bulk.push(ns(duration));
    }
    measured.set_value(
        "rtx-shard.bulk_x",
        ratio_of_medians(&sharded_bulk, &plain_bulk),
    );

    // Fusion and scatter at the batch size the service actually fused in
    // the workload's saturation section.
    let mean_event_ops =
        input.events.iter().map(|e| e.ops.len()).sum::<usize>() as f64 / input.events.len() as f64;
    let fused_events = ((measured.value("rtx-serve.mean_fused_ops") / mean_event_ops).round()
        as usize)
        .clamp(1, input.events.len());
    let clients: Vec<ReadBatch> = input.events[..fused_events]
        .iter()
        .map(|e| e.batch.clone())
        .collect();
    let fused_ops: Vec<Op> = input.events[..fused_events]
        .iter()
        .flat_map(|e| e.ops.iter().copied())
        .collect();
    let mut fuse = FuseProbe::new();
    let mut scatter = ScatterProbe::new(2, &ReadBatch::new(&fused_ops));
    let mut fuse_ns = Vec::new();
    let mut scatter_ns = Vec::new();
    for _ in 0..200 {
        let (_, _, duration) = timed(|| {
            fuse.fuse(&clients);
            fuse.split()
        });
        fuse_ns.push(ns(duration) / fused_ops.len() as f64);
        let (_, _, duration) = timed(|| scatter.plan_and_gather());
        scatter_ns.push(ns(duration) / fused_ops.len() as f64);
    }
    measured.set_value("rtx-query.fuse_ns_per_op", median(&fuse_ns));
    measured.set_value("rtx-query.scatter_plan_ns_per_op", median(&scatter_ns));
    Ok(())
}

fn trace_mixed_durable(
    config: &Config,
    input: &mixed_durable::Input,
    measured: &mut Measured,
    recorder: &mut Recorder,
) -> Result<(), String> {
    let sut = Sut::new();
    let served_dir = ScratchDir::new(&config.work_dir, "wal_trace_served")?;
    let direct_dir = ScratchDir::new(&config.work_dir, "wal_trace_direct")?;
    let service = mixed_durable::start(&sut, input, served_dir.path())?;
    let client = service.client();
    let mut durable =
        sut.build_updatable(&durable_name(direct_dir.path()), &input.keys, &input.values)?;
    let mut sharded = sut.build_updatable("RXD@2", &input.keys, &input.values)?;
    let mut delta = sut.build_updatable("RXD", &input.keys, &input.values)?;

    // Of the upsert batches only.
    let mut durable_up = Vec::new();
    let mut sharded_up = Vec::new();
    let mut delta_up = Vec::new();
    for (id, batch) in input.writes.iter().take(TRACE_WRITES).enumerate() {
        let id = id as u32;
        let (kind, keys, values) = (batch.kind, &batch.keys[..], &batch.values[..]);
        let (done, start, served) = timed(|| client.write(kind, keys, values));
        done?;
        let outer = recorder.record("rtx-serve.write", start, served, None, id);
        let (done, start, logged) = timed(|| durable.write(kind, keys, values));
        done?;
        let outer = recorder.record("rtx-durable.write", start, logged, Some(outer), id);
        let (done, start, routed) = timed(|| sharded.write(kind, keys, values));
        done?;
        let outer = recorder.record("rtx-shard.write", start, routed, Some(outer), id);
        let (done, start, applied) = timed(|| delta.write(kind, keys, values));
        done?;
        recorder.record("rtx-delta.write", start, applied, Some(outer), id);
        if kind == WriteKind::Upsert {
            durable_up.push(ns(logged));
            sharded_up.push(ns(routed));
            delta_up.push(ns(applied));
        }
    }
    service.shutdown();
    for (metric, name, child) in [
        (
            "trace.rtx-serve.write.self_us",
            "rtx-serve.write",
            "rtx-durable.write",
        ),
        (
            "trace.rtx-durable.write.self_us",
            "rtx-durable.write",
            "rtx-shard.write",
        ),
        (
            "trace.rtx-shard.write.self_us",
            "rtx-shard.write",
            "rtx-delta.write",
        ),
    ] {
        measured.set_value(metric, recorder.self_time_ns(name, child) / 1e3);
    }
    measured.set_value(
        "trace.rtx-delta.write.self_us",
        median(&recorder.durations_ns("rtx-delta.write")) / 1e3,
    );
    measured.set_value(
        "rtx-durable.write_x",
        ratio_of_medians(&durable_up, &sharded_up),
    );
    measured.set_value(
        "rtx-shard.write_x",
        ratio_of_medians(&sharded_up, &delta_up),
    );
    measured.set_value(
        "rtx-delta.upsert_ns_per_row",
        median(&delta_up) / ROWS_PER_BATCH as f64,
    );

    // Reads of the workload's events with the replayed delta loaded,
    // against a static RX over the initial rows.
    let plain = sut.build("RX", &input.keys, &input.values)?;
    let mut with_delta = Vec::new();
    let mut without = Vec::new();
    for event in input.events.iter().take(500) {
        let (outcome, _, duration) = timed(|| delta.execute(&event.batch));
        outcome?;
        with_delta.push(ns(duration));
        let (outcome, _, duration) = timed(|| plain.execute(&event.batch));
        outcome?;
        without.push(ns(duration));
    }
    measured.set_value("rtx-delta.read_x", ratio_of_medians(&with_delta, &without));
    let (compacted, _, duration) = timed(|| delta.compact());
    compacted?;
    measured.set_value("rtx-delta.compact_s", duration.as_secs_f64());

    let wal_dir = ScratchDir::new(&config.work_dir, "wal_trace_bare")?;
    let mut wal = WalProbe::create(wal_dir.path())?;
    let first = &input.writes[0];
    let values: Vec<u64> = (0..first.keys.len() as u64).collect();
    let mut append_ns = Vec::new();
    for _ in 0..if config.smoke { 10 } else { 200 } {
        let (appended, _, duration) = timed(|| wal.append_commit(&first.keys, &values));
        appended?;
        append_ns.push(ns(duration));
    }
    measured.set_value("rtx-durable.wal_append_us", median(&append_ns) / 1e3);
    Ok(())
}

fn trace_table_serve(
    config: &Config,
    input: &table_serve::Input,
    measured: &mut Measured,
    recorder: &mut Recorder,
) -> Result<(), String> {
    let sut = Sut::new();
    let service = table_serve::start(&sut, input)?;
    let client = service.client();
    let mut direct = sut.load_direct_table(&input.records)?;
    if measured.value("bench.device_bytes_per_key") == 0.0 {
        measured.set_value(
            "bench.device_bytes_per_key",
            direct.memory_bytes() as f64 / input.sizes.rows as f64,
        );
    }

    for (id, query) in input.queries.iter().take(TRACE_REQUESTS).enumerate() {
        let id = id as u32;
        let read = query.read.clone();
        let (answered, start, served) = timed(|| client.query(read));
        answered?;
        let outer = recorder.record("rtx-serve.table_request", start, served, None, id);
        let (answered, start, queried) = timed(|| direct.query(&query.read));
        answered?;
        let outer = recorder.record("rtx-table.query", start, queried, Some(outer), id);
        let (planned, start, planning) = timed(|| direct.plan(&query.read));
        planned?;
        recorder.record("rtx-table.plan", start, planning, Some(outer), id);
    }
    service.shutdown();
    measured.set_value(
        "rtx-serve.table_request_self_us",
        recorder.self_time_ns("rtx-serve.table_request", "rtx-table.query") / 1e3,
    );
    measured.set_value(
        "rtx-table.query_us",
        median(&recorder.durations_ns("rtx-table.query")) / 1e3,
    );
    measured.set_value(
        "rtx-table.plan_us",
        median(&recorder.durations_ns("rtx-table.plan")) / 1e3,
    );

    let mut ingest_ms = Vec::new();
    for ingest in input.ingests.iter().take(if config.smoke { 3 } else { 20 }) {
        let (applied, _, duration) = timed(|| direct.ingest(&ingest.write));
        applied?;
        ingest_ms.push(duration.as_secs_f64() * 1e3);
    }
    measured.set_value("rtx-table.ingest_ms", median(&ingest_ms));

    // The typed-key path against the raw path: the same 4,096 point
    // lookups on one RX index over the `id` column.
    let ids: Vec<u64> = input.records.iter().map(|r| r[0]).collect();
    let amounts: Vec<u64> = input.records.iter().map(|r| r[2]).collect();
    let index = sut.build("RX", &ids, &amounts)?;
    let sample = &ids[..ids.len().min(4096)];
    let raw = ReadBatch::new(&sample.iter().map(|&id| Op::Point(id)).collect::<Vec<_>>());
    let typed = TypedPoints::new(sample);
    let mut raw_ns = Vec::new();
    let mut typed_ns = Vec::new();
    for _ in 0..9 {
        let (outcome, _, duration) = timed(|| index.execute(&raw));
        outcome?;
        raw_ns.push(ns(duration));
        let (outcome, _, duration) = timed(|| index.execute_typed(&typed));
        outcome?;
        typed_ns.push(ns(duration));
    }
    measured.set_value("rtx-query.typed_x", ratio_of_medians(&typed_ns, &raw_ns));
    Ok(())
}

/// Runs the workload, then its trace; writes the spans to
/// `<work-dir>/trace_<workload>.json`.
pub fn run(config: &Config) -> Result<Measured, String> {
    let mut recorder = Recorder::new();
    let mut measured = match config.workload.as_str() {
        "bulk_probe" => {
            let input = bulk_probe::Input::generate(config);
            let mut measured = bulk_probe::run_with(config, &input)?;
            trace_bulk_probe(&input, &mut measured, &mut recorder)?;
            measured
        }
        "serve_read" => {
            let input = serve_read::Input::generate(config);
            let mut measured = serve_read::run_with(config, &input)?;
            trace_serve_read(config, &input, &mut measured, &mut recorder)?;
            measured
        }
        "mixed_durable" => {
            let input = mixed_durable::Input::generate(config);
            let mut measured = mixed_durable::run_with(config, &input)?;
            trace_mixed_durable(config, &input, &mut measured, &mut recorder)?;
            measured
        }
        "table_serve" => {
            let input = table_serve::Input::generate(config);
            let mut measured = table_serve::run_with(&input)?;
            trace_table_serve(config, &input, &mut measured, &mut recorder)?;
            measured
        }
        other => return Err(format!("unknown workload '{other}'")),
    };
    measured.set_value("bench.span_cost_ns", Recorder::span_cost_ns());
    measured.set_value(
        "bench.failed_share",
        measured.failed as f64 / measured.attempted.max(1) as f64,
    );
    let path = config
        .work_dir
        .join(format!("trace_{}.json", config.workload));
    recorder.write(
        &path,
        report::header(config, &measured, workloads::PINNED_WORKERS),
    )?;
    measured
        .notes
        .insert("trace_file", path.display().to_string());
    Ok(measured)
}

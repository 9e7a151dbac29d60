//! Steady-state allocation accounting for the host query path.
//!
//! The arena work (`ExecArena`, the SoA `QueryBatch`, shared-outcome
//! scatter) claims the *host* execution path stops allocating per operation
//! once its buffers have warmed up. This binary proves it with a counting
//! global allocator over a deliberately trivial backend: the backend answers
//! point and range chunks out of a sorted mirror with exactly one
//! allocation per chunk (the result vector), so every remaining
//! allocation the counter sees belongs to the layer this claim is about —
//! grouping, chunk dispatch, result scatter, service coalescing and reply
//! channels. A third phase runs a real `RX` index, small and large (one
//! per host route): the raytracing launch keeps its ray queue, order and
//! result buffers per worker and reuses them from tile to tile, so its
//! allocations per launch do not grow with the number of rays either. A fourth phase ingests CDC batches into a table:
//! a steady-state batch is O(batch) work, so its allocations do not grow
//! with the number of rows. A fifth phase queries that table: routing
//! builds no text, so a query's allocations hold a fixed budget and do not
//! grow with indexes that never win a route. A sixth phase weighs the live
//! bytes of an ingest whose four overlays all cross the rebuild threshold:
//! the rebuilds follow the commit one at a time, so the old bases do not
//! wait for every new one. A seventh weighs one `RX` build: its sort
//! records are freed before the stitch, so the build peaks no higher than
//! the sort of 48-byte records did. An eighth weighs what each backend's
//! build leaves live against its `memory_bytes()`: device memory is an
//! account, not a second copy, so each index is held once on the host.
//!
//! The counter is process-global (it sees every thread, including the
//! service coalescer and the worker pool), so the bounds below are
//! end-to-end, not an accounting trick.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rtindex::optix_sim::{Route, TILE_RAYS, TINY_LAUNCH_RAYS};
use rtindex::rtx_query::{BatchOutcome, IndexBuildMetrics, LookupResult, MISS};
use rtindex::{
    Capabilities, Device, ExecArena, IndexError, IndexSpec, IngestBatch, QueryBatch, QueryService,
    RtIndex, RtIndexConfig, SecondaryIndex, ServiceConfig, Table, TableQuery, TableSchema,
};
use rtx_workloads as wl;

/// Counts every allocation and reallocation, and tracks the live bytes
/// with a resettable peak.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            match new_size.checked_sub(layout.size()) {
                Some(more) => grow(more),
                None => shrink(layout.size() - new_size),
            }
        }
        moved
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Restarts the peak at the bytes live now, and returns them.
fn reset_peak() -> u64 {
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(live, Ordering::Relaxed);
    live
}

/// A host-only backend with a fixed allocation profile: one `Vec` per
/// chunk call, nothing else. Lookups binary-search a sorted `(key, value)`
/// mirror, so the answers are real (hits, misses, duplicates, sums).
struct MirrorIndex {
    /// Sorted by key; rowID is the position in the original column.
    rows: Vec<(u64, u64, u32)>,
}

impl MirrorIndex {
    fn build(keys: &[u64], values: &[u64]) -> Self {
        let mut rows: Vec<(u64, u64, u32)> = keys
            .iter()
            .zip(values)
            .enumerate()
            .map(|(row, (&k, &v))| (k, v, row as u32))
            .collect();
        rows.sort_unstable();
        MirrorIndex { rows }
    }

    fn lookup(&self, lower: u64, upper: u64, fetch: bool) -> LookupResult {
        let start = self.rows.partition_point(|&(k, _, _)| k < lower);
        let mut result = LookupResult {
            first_row: MISS,
            hit_count: 0,
            value_sum: 0,
        };
        for &(k, v, row) in &self.rows[start..] {
            if k > upper {
                break;
            }
            result.first_row = result.first_row.min(row);
            result.hit_count += 1;
            if fetch {
                result.value_sum = result.value_sum.wrapping_add(v);
            }
        }
        result
    }

    fn chunk(&self, bounds: impl Iterator<Item = (u64, u64)>, fetch: bool) -> BatchOutcome {
        BatchOutcome {
            results: bounds.map(|(l, u)| self.lookup(l, u, fetch)).collect(),
            ..Default::default()
        }
    }
}

impl SecondaryIndex for MirrorIndex {
    fn name(&self) -> &str {
        "MIRROR"
    }
    fn key_count(&self) -> usize {
        self.rows.len()
    }
    fn memory_bytes(&self) -> u64 {
        (self.rows.len() * std::mem::size_of::<(u64, u64, u32)>()) as u64
    }
    fn build_metrics(&self) -> IndexBuildMetrics {
        IndexBuildMetrics::default()
    }
    fn capabilities(&self) -> Capabilities {
        Capabilities::read_only()
    }
    fn has_value_column(&self) -> bool {
        true
    }
    fn point_chunk(&self, queries: &[u64], fetch: bool) -> Result<BatchOutcome, IndexError> {
        Ok(self.chunk(queries.iter().map(|&q| (q, q)), fetch))
    }
    fn range_chunk(&self, ranges: &[(u64, u64)], fetch: bool) -> Result<BatchOutcome, IndexError> {
        Ok(self.chunk(ranges.iter().copied(), fetch))
    }
}

/// Allocations of one steady-state 64-op CDC batch into a table of `rows`
/// rows indexed by `HT`, `RX`, `RXD` and a composite `SA{u32,u32}`. Every
/// batch inserts 32 fresh rows, deletes 24 of the previous batch's and
/// upserts 8 loaded rows, so the overlays stay far below a rebuild.
fn table_ingest_allocations(rows: u64) -> u64 {
    let schema = TableSchema::new(["id", "ts", "amount"])
        .with_value_column("amount")
        .with_index("id_ht", "id", "HT")
        .with_index("ts_rx", "ts", "RX")
        .with_index("id_rxd", "id", "RXD")
        .with_composite_index("id_ts", ["id", "ts"], "SA{u32,u32}");
    let records: Vec<Vec<u64>> = (0..rows).map(|id| vec![id, id * 7 % 1000, id]).collect();
    let mut table = Table::load(
        schema,
        &Device::default_eval(),
        Arc::new(rtindex::registry()),
        &records,
    )
    .unwrap();
    let batch = |j: u64| {
        let fresh = |j: u64, k: u64| rows + 64 * j + k;
        let mut batch = IngestBatch::new();
        for k in 0..32 {
            batch = batch.insert(vec![fresh(j, k), k, k]);
        }
        for k in 0..24 {
            if j > 0 {
                batch = batch.delete(fresh(j - 1, k));
            }
        }
        for k in 0..8 {
            batch = batch.upsert(vec![8 * j + k, k, k]);
        }
        batch
    };
    let batches: Vec<IngestBatch> = (0..6).map(batch).collect();
    for warm in &batches[..5] {
        table.ingest(warm).unwrap();
    }
    let before = allocs();
    let report = table.ingest(&batches[5]).unwrap();
    let count = allocs() - before;
    assert_eq!(report.rebuilt_indexes, 0, "{report:?}");
    count
}

/// The index specs of [`crossing_ingest_peak_bytes`], all on `id`.
const CROSSING_SPECS: [&str; 4] = ["HT", "RX", "RXD", "SA"];

/// The live bytes one ingest adds at its peak, and the live bytes the
/// bases it rebuilt hold, on a 2^14-row table indexed on `id` by
/// [`CROSSING_SPECS`]: the batch inserts `rows / 16` fresh rows, so all
/// four overlays cross the rebuild threshold in it. A base's bytes are
/// what building its spec alone over the same live rows leaves live.
fn crossing_ingest_peak_bytes() -> (u64, u64) {
    let rows = 1u64 << 14;
    let device = Device::default_eval();
    let registry = Arc::new(rtindex::registry());
    let schema = CROSSING_SPECS.iter().fold(
        TableSchema::new(["id", "amount"]).with_value_column("amount"),
        |schema, spec| schema.with_index(format!("id_{spec}"), "id", *spec),
    );
    let records: Vec<Vec<u64>> = (0..rows).map(|id| vec![id, id]).collect();
    let mut table = Table::load(schema, &device, Arc::clone(&registry), &records).unwrap();
    let batch =
        (rows..rows + rows / 16).fold(IngestBatch::new(), |batch, id| batch.insert(vec![id, id]));
    let before = reset_peak();
    let report = table.ingest(&batch).unwrap();
    let peak = PEAK_BYTES.load(Ordering::Relaxed) - before;
    assert_eq!(report.rebuilt_indexes, 4, "{report:?}");

    let live: Vec<u64> = (0..rows + rows / 16).collect();
    let spec = IndexSpec::with_values(&device, &live, &live);
    let bases = CROSSING_SPECS
        .iter()
        .map(|name| {
            let before = LIVE_BYTES.load(Ordering::Relaxed);
            let base = registry.build(name, &spec).unwrap();
            let held = LIVE_BYTES.load(Ordering::Relaxed) - before;
            drop(base);
            held
        })
        .sum();
    (peak, bases)
}

/// What building `RX` over 2^16 keys adds at its peak once every subtree
/// block frees its unused node capacity before the stitch and the device
/// reservations hold no host bytes, on 4, 8 and 16 workers (the highest of
/// 1, 2, 4, 8 and 16).
const RX_BUILD_PEAK_BYTES: u64 = 6_160_708;

/// The live bytes building `RX` over 2^16 dense shuffled keys adds at its
/// peak, above what was live before the build; the built index stays
/// alive until the peak is read.
fn rx_build_peak_bytes() -> u64 {
    let device = Device::default_eval();
    let keys = wl::dense_shuffled(1 << 16, 18);
    let spec = IndexSpec::keys_only(&device, &keys);
    let registry = rtindex::registry();
    let before = reset_peak();
    let index = registry.build("RX", &spec).unwrap();
    let peak = PEAK_BYTES.load(Ordering::Relaxed) - before;
    drop(index);
    peak
}

/// Each backend of the held-once phase, and the most live host bytes its
/// build may leave per byte of its `memory_bytes()`. RX holds its key
/// column, which its `memory_bytes()` leaves out (131,072 B at 2^14
/// keys). B+ keeps every node as a struct with a key `Vec` and a payload
/// `Vec` of its own, host-only: the device model charges one packed array
/// of 16 entries per node, without the headers and the two heap blocks.
const HELD_ONCE: [(&str, f64); 5] = [
    ("HT", 1.05),
    ("SA", 1.05),
    ("RXD", 1.05),
    ("RX", 1.25),
    ("B+", 2.0),
];

/// The live host bytes building `name` over 2^14 dense shuffled keys with
/// values leaves, beside the built index's `memory_bytes()`. The spec's
/// value column, which the static backends share, is live before the
/// build.
fn held_bytes(name: &str) -> (u64, u64) {
    let device = Device::default_eval();
    let keys = wl::dense_shuffled(1 << 14, 19);
    let values = wl::value_column(keys.len(), 20);
    let spec = IndexSpec::with_values(&device, &keys, &values);
    let registry = rtindex::registry();
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let index = registry.build(name, &spec).unwrap();
    let held = LIVE_BYTES.load(Ordering::Relaxed) - before;
    let device_bytes = index.memory_bytes();
    drop(index);
    (held, device_bytes)
}

/// Allocations of 64 steady-state 4-predicate queries — a point on `id`,
/// a `ts` range of span 64, a full `(id, ts)` tuple and an `(id, ts)`
/// prefix range — against a table indexed by `HT`, `RX`, `RXD` and a
/// composite `SA{u32,u32}`, plus `losers`: extra `(name, column, spec)`
/// indexes that never win a route.
fn table_query_allocations(losers: &[(&str, &str, &str)]) -> u64 {
    let rows = 1u64 << 12;
    let mut schema = TableSchema::new(["id", "ts", "amount"])
        .with_value_column("amount")
        .with_index("id_ht", "id", "HT")
        .with_index("ts_rx", "ts", "RX")
        .with_index("id_rxd", "id", "RXD")
        .with_composite_index("id_ts", ["id", "ts"], "SA{u32,u32}");
    for &(name, column, spec) in losers {
        schema = schema.with_index(name, column, spec);
    }
    let records: Vec<Vec<u64>> = (0..rows).map(|id| vec![id, id * 7 % 1000, id]).collect();
    let table = Table::load(
        schema,
        &Device::default_eval(),
        Arc::new(rtindex::registry()),
        &records,
    )
    .unwrap();
    let queries: Vec<TableQuery> = (0..64u64)
        .map(|j| {
            let (id, ts) = (j * 61 % rows, j * 13 % 900);
            TableQuery::new()
                .point("id", id)
                .range("ts", ts, ts + 63)
                .prefix_tuple(["id", "ts"], vec![id, id * 7 % 1000])
                .prefix_range(["id", "ts"], vec![id], ts, ts + 63)
                .fetch_values(true)
        })
        .collect();
    for query in &queries[..8] {
        table.query(query).unwrap(); // warm-up
    }
    let before = allocs();
    for query in &queries {
        let out = table.query(query).unwrap();
        assert_eq!(out.plan.scan_fallbacks(), 0);
    }
    allocs() - before
}

/// One test so the phases cannot interleave with each other's counts
/// (test binaries run `#[test]`s on parallel threads by default).
#[test]
fn steady_state_host_path_allocations_are_bounded() {
    let keys = wl::dense_shuffled(4096, 11);
    let values = wl::value_column(keys.len(), 12);
    let ix = MirrorIndex::build(&keys, &values);

    // -- Direct path: execute_in with a reused arena ---------------------
    //
    // The same pre-built batch, executed repeatedly. After warm-up every
    // arena buffer has reached capacity and the point keys are borrowed
    // from the batch, so what remains per call is the per-call constant,
    // measured at exactly 5: the outcome's result vector, and per run
    // (points, ranges) the chunk-dispatch vector plus the backend's one
    // chunk vector. The budget is per *call* while the op count grows 16x —
    // which is exactly the per-op `O(1)` claim.
    let mut arena = ExecArena::new();
    for &ops in &[64usize, 1024] {
        let queries = wl::point_lookups_with_hit_rate(&keys, ops, 0.8, 13);
        let batch = QueryBatch::of_points(&queries)
            .range(10, 90) // exercise both runs
            .fetch_values(true);
        for _ in 0..8 {
            ix.execute_in(&batch, &mut arena).unwrap(); // warm-up
        }
        let rounds = 32u64;
        let before = allocs();
        for _ in 0..rounds {
            ix.execute_in(&batch, &mut arena).unwrap();
        }
        let per_call = (allocs() - before) as f64 / rounds as f64;
        assert!(
            per_call <= 5.0,
            "direct path: {per_call:.1} allocations per {ops}-op call; \
             want the per-call constant of 5"
        );
    }

    // -- Coalesced service path ------------------------------------------
    //
    // Pre-built batches through the service: submission enqueues an Arc
    // clone, the coalescer appends into its persistent fusion + arena, and
    // the scatter hands every client a view into one shared outcome. Per
    // submission there remain the reply channel, the queue node and the
    // outcome Arc — a constant — so the per-op cost shrinks with batch
    // size instead of tracking it.
    let service = QueryService::start(
        Box::new(MirrorIndex::build(&keys, &values)),
        ServiceConfig::default(),
    );
    let client = service.handle();
    let queries = wl::point_lookups_with_hit_rate(&keys, 512, 0.8, 14);
    let batch = Arc::new(QueryBatch::of_points(&queries).fetch_values(true));
    for _ in 0..8 {
        // warm-up
        let pending = client.submit_shared(Arc::clone(&batch)).unwrap();
        pending.wait_shared().unwrap();
    }
    let rounds = 32u64;
    let before = allocs();
    for _ in 0..rounds {
        // wait_shared: the zero-copy view, not the materialized clone.
        let pending = client.submit_shared(Arc::clone(&batch)).unwrap();
        let view = pending.wait_shared().unwrap();
        assert_eq!(view.results().len(), 512);
    }
    let per_round = (allocs() - before) as f64 / rounds as f64;
    let per_op = per_round / 512.0;
    assert!(
        per_op <= 0.25,
        "service path: {per_round:.1} allocations per 512-op submission \
         ({per_op:.3}/op); want well under one allocation per operation"
    );
    service.shutdown();

    // -- The raytracing launch behind RX ---------------------------------
    //
    // Unique keys, so no payload spills past its inline rows. What a launch
    // allocates is then the result vector, the fan-out over the worker
    // pool, and each worker's buffers — sized once, reused across the tiles
    // of its chunk. The same budget therefore holds for a tiny launch (no
    // order buffers), a one-tile launch and a launch of three tiles per
    // worker: bounded by the workers, not by the rays or the tiles. It
    // holds on both host routes: the small index traverses one ray at a
    // time, the one of 2^19 keys interleaves with its lanes on the stack.
    let workers = rtindex::gpu_device::worker_count();
    let large_keys = wl::dense_shuffled(1 << 19, 16);
    let large_values = wl::value_column(large_keys.len(), 17);
    for (keys, values, route) in [
        (&keys, &values, Route::OneAtATime),
        (&large_keys, &large_values, Route::Interleaved),
    ] {
        let index =
            RtIndex::build(&Device::default_eval(), keys, RtIndexConfig::default()).unwrap();
        assert_eq!(
            Route::for_accel(index.accel()),
            route,
            "{} keys take the route this arm measures",
            keys.len()
        );
        for lookups in [
            TINY_LAUNCH_RAYS / 2,
            workers * TILE_RAYS / 2,
            workers * (2 * TILE_RAYS + TILE_RAYS / 2),
        ] {
            let queries = wl::point_lookups_with_hit_rate(keys, lookups, 0.8, 15);
            for _ in 0..2 {
                index.point_lookup_batch(&queries, Some(values)).unwrap(); // warm-up
            }
            let rounds = 8u64;
            let before = allocs();
            for _ in 0..rounds {
                let outcome = index.point_lookup_batch(&queries, Some(values)).unwrap();
                assert_eq!(outcome.results.len(), lookups);
            }
            let per_launch = (allocs() - before) as f64 / rounds as f64;
            // Measured, either route: 10–12 on one worker, 15–19 on two,
            // 23–31 on four, 39–55 on eight.
            let budget = (14 + 8 * workers) as f64;
            assert!(
                per_launch <= budget,
                "RX launch ({route:?}): {per_launch:.1} allocations per {lookups}-lookup \
                 launch on {workers} worker(s); want at most {budget} whatever the ray count"
            );
        }
    }

    // -- Table ingest ----------------------------------------------------
    //
    // The row store undoes a rejected batch from its log instead of a
    // snapshot, and every index takes the batch through its overlay
    // instead of a rebuild: nothing in a steady-state batch is sized by
    // the table, so neither is its allocation count. Measured: 84 at both
    // sizes on 1, 2 and 8 workers, where feeding `RXD` native deltas made
    // 874.
    let small = table_ingest_allocations(1 << 12);
    let large = table_ingest_allocations(1 << 15);
    assert!(
        large as f64 <= 1.1 * small as f64,
        "table ingest: {large} allocations per 64-op batch at 2^15 rows against {small} \
         at 2^12; want the same O(batch) count"
    );
    assert!(
        small.max(large) <= 100,
        "table ingest: {small} and {large} allocations per 64-op batch at 2^12 and 2^15 \
         rows; want at most 100"
    );

    // -- Table queries ---------------------------------------------------
    //
    // Routing scores candidates into verdicts and routes by index
    // position; no text is built unless `Table::explain` is asked for it.
    // What a query allocates is therefore execution (the per-index
    // batches, the launches, the outcome), and indexes that never win a
    // route cost nothing: `zz_ht` loses the name tiebreak to `id_ht` at
    // equal cost, and `zz_sa` is dearer than `id_ht` for points.
    // Measured: 74 per query on 1, 2 and 8 workers, where building the
    // EXPLAIN on every query made 151.
    let base = table_query_allocations(&[]);
    let per_query = base as f64 / 64.0;
    assert!(
        per_query <= 74.0,
        "table query: {per_query:.1} allocations per 4-predicate query; want at most 74"
    );
    let with_losers = table_query_allocations(&[("zz_ht", "id", "HT"), ("zz_sa", "id", "SA")]);
    assert_eq!(
        with_losers, base,
        "table query: indexes that never win a route must cost no allocations"
    );

    // -- A threshold-crossing ingest -------------------------------------
    //
    // Rebuilds follow the commit, and each rebuilt base replaces the old
    // one before the next index builds. So at its peak the ingest holds
    // every old base and one new one (with its build's scratch), not every
    // new base at once: the bytes it adds stay below what the four rebuilt
    // bases hold together. Measured on 1, 2 and 8 workers: 2.65 MB added
    // against 3.13 MB of bases. The margin is smaller than when every
    // device reservation was a host copy too (4.18 MB against 5.82 MB),
    // and staging every rebuild until the commit added 7.98 MB then. The
    // bases are weighed in host bytes, the unit the peak is measured in.
    let (peak, bases) = crossing_ingest_peak_bytes();
    assert!(
        peak < bases,
        "crossing ingest: peak live bytes rose by {peak} B, not below the {bases} B of \
         the four rebuilt bases"
    );

    // -- One RX build ----------------------------------------------------
    //
    // The LBVH build sorts 16-byte (Morton code, index) pairs and frees
    // them before the stitch, where the subtree blocks and the spliced
    // hierarchy are live together: that is the build's peak. Measured:
    // 6,160,492 B on one worker, 6,160,564 B on 2 and 6,160,708 B on 4, 8
    // and 16. While the build scratch was a zeroed host block and the key
    // column was copied before the build, it peaked at 11,403,372 B,
    // 11,403,444 B and 11,403,588 B; blocks that kept the `2 × len` nodes they reserve peaked
    // at 14,033,952 B and 14,034,432 B, and the sort of 48-byte (code,
    // bounds, centroid, index) records at 14,035,488 B and 14,035,968 B.
    let build_peak = rx_build_peak_bytes();
    assert!(
        build_peak <= RX_BUILD_PEAK_BYTES,
        "RX build over 2^16 keys: peak live bytes rose by {build_peak} B, above the \
         {RX_BUILD_PEAK_BYTES} B measured with shrunk subtree blocks and data-less device \
         reservations"
    );

    // -- Each index held once --------------------------------------------
    //
    // A device reservation holds a byte count, not a copy: the host keeps
    // each structure once, so what a build leaves live is its
    // `memory_bytes()` plus the host-only parts the device model does not
    // charge. Measured on 1, 2 and 8 workers: HT 1.001, SA 1.002, RXD
    // 1.013, RX 1.138 and B+ 1.821 times `memory_bytes()`, where zeroed
    // shadows and full copies of each structure made 2.001, 2.002, 1.797,
    // 2.138 and 2.821.
    for (name, bound) in HELD_ONCE {
        let (held, device_bytes) = held_bytes(name);
        let ratio = held as f64 / device_bytes as f64;
        assert!(
            ratio <= bound,
            "{name} build over 2^14 keys: {held} live host bytes for {device_bytes} B of \
             memory_bytes() ({ratio:.3}x); want at most {bound}x"
        );
    }
}

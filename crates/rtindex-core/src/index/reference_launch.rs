//! The launch the lookup programs ran on before the wavefront, kept as the
//! reference the model-invariance property compares against.
//!
//! It handles one launch index at a time, in submission order: the index's
//! rays are generated, each is traversed and charged to the device the
//! moment it is generated, all rays of the index push their hits into one
//! `Vec<u32>`, and that vector is masked and aggregated on the spot. The
//! wavefront launch reorders the host's work but must charge the device in
//! exactly this order, so results, every kernel counter, the traversal
//! statistics and the simulated time have to agree bit for bit.

use gpu_device::{AccessClassifier, KernelStats, ThreadCtx};
use optix_sim::pipeline::cost_constants;
use rtx_bvh::{traverse, AnyHitControl, TraversalStats};
use rtx_math::Ray;
use rtx_query::{LookupResult, MISS};

use super::{mask_bytes, RtIndex};
use crate::ray_strategy::{point_lookup_ray, range_lookup_rays};

/// What a reference launch measured.
pub(super) struct Reference<T> {
    pub out: Vec<T>,
    pub kernel: KernelStats,
    pub traversal: TraversalStats,
    pub simulated_time_s: f64,
}

/// `optixTrace` plus buffer reads, charged immediately.
struct Tracer<'a> {
    index: &'a RtIndex,
    ctx: &'a mut ThreadCtx,
    classifier: &'a mut AccessClassifier,
    traversal: &'a mut TraversalStats,
}

impl Tracer<'_> {
    fn trace(&mut self, ray: &Ray, rows: &mut Vec<u32>) {
        self.ctx.add_instructions(cost_constants::TRACE_SETUP);

        let gas = self.index.accel();
        let prims = gas.input().as_primitive_set();
        let stats = traverse(gas.bvh(), prims, ray, |prim, _t| {
            rows.push(prim);
            AnyHitControl::Continue
        });

        let q = |v: f32| ((v / 64.0).floor() as i64) as u64;
        let token =
            q(ray.origin.x) ^ q(ray.origin.y).rotate_left(21) ^ q(ray.origin.z).rotate_left(42);
        self.classifier.access(
            self.ctx,
            token,
            stats.nodes_visited * cost_constants::NODE_BYTES,
        );
        let prim_bytes = stats.prim_tests() * prims.bytes_per_primitive();
        if prim_bytes > 0 {
            self.classifier
                .access(self.ctx, token.wrapping_add(1), prim_bytes);
        }

        self.ctx.add_instructions(
            stats.sw_prim_tests * cost_constants::SW_INTERSECTION
                + stats.any_hit_invocations * cost_constants::ANY_HIT,
        );
        self.ctx.stats.rt_box_tests += stats.nodes_visited;
        self.ctx.stats.rt_triangle_tests += stats.hw_prim_tests;
        self.ctx.stats.sw_intersection_tests += stats.sw_prim_tests;
        self.ctx.stats.bvh_nodes_visited += stats.nodes_visited;
        self.ctx.stats.any_hit_invocations += stats.any_hit_invocations;
        self.ctx.stats.early_aborts += stats.aborted_at_root;

        self.traversal.merge(&stats);
    }

    fn read_buffer(&mut self, token: u64, bytes: u64) {
        self.ctx.add_instructions(2);
        self.classifier.access(
            self.ctx,
            token.wrapping_mul(2654435761).rotate_left(17),
            bytes,
        );
    }
}

/// Runs `ray_gen` for every launch index in `0..width`, chunked over the
/// worker count like a real launch (each chunk has its own classifier), but
/// on the calling thread.
fn launch<T: Default + Clone>(
    index: &RtIndex,
    width: usize,
    extra_working_set_bytes: u64,
    ray_gen: impl Fn(usize, &mut Tracer<'_>) -> T,
) -> Reference<T> {
    let mut kernel = KernelStats {
        threads_launched: width as u64,
        kernel_launches: 1,
        ..KernelStats::new()
    };
    let mut traversal = TraversalStats::default();
    let mut out = vec![T::default(); width];
    if width > 0 {
        let workers = gpu_device::worker_count().min(width);
        let chunk = width.div_ceil(workers);
        let working_set = index.accel().memory_bytes() + extra_working_set_bytes;
        let l2 = index.device().spec().l2_bytes;
        for (w, out_chunk) in out.chunks_mut(chunk).enumerate() {
            let mut ctx = ThreadCtx::new();
            let mut classifier = AccessClassifier::new(l2, working_set);
            for (j, slot) in out_chunk.iter_mut().enumerate() {
                ctx.add_instructions(cost_constants::RAYGEN_BASE);
                *slot = ray_gen(
                    w * chunk + j,
                    &mut Tracer {
                        index,
                        ctx: &mut ctx,
                        classifier: &mut classifier,
                        traversal: &mut traversal,
                    },
                );
            }
            kernel.merge(&ctx.stats);
        }
        kernel.threads_launched = width as u64;
        kernel.kernel_launches = 1;
    }
    let simulated_time_s = index
        .device()
        .cost_model()
        .simulated_time(&kernel)
        .as_seconds();
    Reference {
        out,
        kernel,
        traversal,
        simulated_time_s,
    }
}

fn filter_live(rows: Vec<u32>, live: Option<&[bool]>, tracer: &mut Tracer<'_>) -> Vec<u32> {
    match live {
        None => rows,
        Some(mask) => {
            let mut kept = Vec::with_capacity(rows.len());
            for row in rows {
                tracer.read_buffer((1 << 62) | (row as u64 / 512), 1);
                if mask[row as usize] {
                    kept.push(row);
                }
            }
            kept
        }
    }
}

fn finalize_result(
    rows: Vec<u32>,
    values: Option<&[u64]>,
    live: Option<&[bool]>,
    tracer: &mut Tracer<'_>,
) -> LookupResult {
    let rows = filter_live(rows, live, tracer);
    if rows.is_empty() {
        return LookupResult {
            first_row: MISS,
            hit_count: 0,
            value_sum: 0,
        };
    }
    let mut sum = 0u64;
    if let Some(values) = values {
        for &row in &rows {
            tracer.read_buffer(row as u64 / 8, 8);
            sum = sum.wrapping_add(values[row as usize]);
        }
    }
    LookupResult {
        first_row: *rows.iter().min().expect("non-empty"),
        hit_count: rows.len() as u32,
        value_sum: sum,
    }
}

/// The rows a point lookup's ray hits, or `None` for a key the mode cannot
/// represent (charged as a bounds check, no ray).
fn point_rows(index: &RtIndex, key: u64, tracer: &mut Tracer<'_>) -> Option<Vec<u32>> {
    let mode = &index.config().key_mode;
    if !mode.supports_key(key) {
        tracer.ctx.add_instructions(2);
        return None;
    }
    let mut rows = Vec::new();
    tracer.trace(
        &point_lookup_ray(mode, index.config().point_ray, key),
        &mut rows,
    );
    Some(rows)
}

pub(super) fn point_lookup_batch(
    index: &RtIndex,
    queries: &[u64],
    values: Option<&[u64]>,
    live: Option<&[bool]>,
) -> Reference<LookupResult> {
    let extra = index.lookup_working_set_bytes(values) + mask_bytes(live);
    launch(
        index,
        queries.len(),
        extra,
        |idx, tracer| match point_rows(index, queries[idx], tracer) {
            Some(rows) => finalize_result(rows, values, live, tracer),
            None => LookupResult {
                first_row: MISS,
                hit_count: 0,
                value_sum: 0,
            },
        },
    )
}

pub(super) fn range_lookup_batch(
    index: &RtIndex,
    ranges: &[(u64, u64)],
    values: Option<&[u64]>,
    live: Option<&[bool]>,
) -> Reference<LookupResult> {
    let extra = index.lookup_working_set_bytes(values) + mask_bytes(live);
    launch(index, ranges.len(), extra, |idx, tracer| {
        let (lower, upper) = ranges[idx];
        let config = index.config();
        let mut rays = Vec::new();
        range_lookup_rays(&config.key_mode, config.range_ray, lower, upper, |ray| {
            rays.push(ray)
        })
        .expect("the property generates no range that is too wide");
        let mut rows = Vec::new();
        for ray in &rays {
            tracer.trace(ray, &mut rows);
        }
        finalize_result(rows, values, live, tracer)
    })
}

pub(super) fn collect_point_rows(
    index: &RtIndex,
    queries: &[u64],
    live: Option<&[bool]>,
) -> Reference<Vec<u32>> {
    launch(index, queries.len(), mask_bytes(live), |idx, tracer| {
        let rows = point_rows(index, queries[idx], tracer).unwrap_or_default();
        let mut rows = filter_live(rows, live, tracer);
        rows.sort_unstable();
        rows
    })
}

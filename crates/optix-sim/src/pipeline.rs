//! The raytracing pipeline: ray-generation, any-hit and finish programs and
//! `optixLaunch`.
//!
//! A pipeline launch spawns one logical thread per launch index (one per
//! lookup for RTIndeX). Each logical thread's ray-generation program turns
//! its lookup into zero or more rays, every ray is cast against the BVH of
//! the [`GeometryAccel`] — our `optixTrace()` — with the any-hit program
//! called for every intersection and handed the primitive index (the
//! rowID), and the finish program turns what the rays collected into the
//! thread's output value.
//!
//! # Host execution order vs. charged order
//!
//! The launch runs as a **wavefront** per worker chunk, tile by tile:
//!
//! 1. *ray generation* — [`ProgramSet::ray_gen`] only emits the rays of the
//!    tile's launch indices into a queue;
//! 2. *traversal* — the tile's rays are traversed in the Morton order of
//!    where they enter the scene, the order the LBVH builder laid the nodes
//!    out in, so consecutive rays walk neighbouring subtrees while those are
//!    still in the host's caches and take the same turns at the top of the
//!    tree. On a structure that fits the host's caches they go one at a
//!    time; on a larger one ([`Route::for_accel`]) [`rtx_bvh::LANES`] rays
//!    are in flight at once, taking turns node by node, and each prefetches
//!    what its next visit reads, so the misses of one ray overlap the work
//!    of the others. Either way every ray writes its own
//!    [`TraversalStats`] and its own payload;
//! 3. *finish* — strictly in launch-index order, ray order, hit order, the
//!    device is charged for every ray (instructions, RT-core work, memory
//!    traffic through the [`AccessClassifier`]) and
//!    [`ProgramSet::finish`] produces the output, while
//!    [`ProgramSet::prefetch_finish`] already loads what the finish of a
//!    later launch index will read.
//!
//! The classifier's LRU and every counter see exactly the sequence a
//! one-index-at-a-time launch would produce, so no model or count number
//! depends on the host's traversal order or route: both change host time
//! only. Two rays never share a payload, so the rays of a multi-ray launch
//! index keep their hits apart and in order, and
//! [`AnyHitControl::Terminate`] ends the traversal it was returned in and
//! no other. DESIGN.md §2 has the measurements behind the constants below.

use std::time::{Duration, Instant};

use gpu_device::{AccessClassifier, Device, KernelStats, SimulatedTime, ThreadCtx};
use rtx_bvh::{traverse, traverse_interleaved, AnyHitControl, Bvh, PrimitiveSet, TraversalStats};
use rtx_math::morton::morton_in_bounds;
use rtx_math::{Aabb, Ray};

use crate::accel::GeometryAccel;
use crate::build_input::BuildInput;

/// Instruction-cost constants for the programmable pipeline stages. These are
/// the calibration knobs of the reproduction; their ratios (not absolute
/// values) drive the shapes of the paper's figures.
pub mod cost_constants {
    /// Instructions charged per launch index (ray-generation overhead).
    pub const RAYGEN_BASE: u64 = 30;
    /// Instructions charged per `optixTrace` call (setup + handoff).
    pub const TRACE_SETUP: u64 = 20;
    /// Instructions charged per software intersection-program invocation.
    /// The value is deliberately large: a custom intersection program stalls
    /// the fixed-function traversal, diverges within the warp and re-enters
    /// the SM pipeline, which on real hardware costs far more than the
    /// arithmetic of the test itself (this is what makes spheres/AABBs lose
    /// against hardware-tested triangles in Figure 7a).
    pub const SW_INTERSECTION: u64 = 600;
    /// Instructions charged per any-hit program invocation.
    pub const ANY_HIT: u64 = 10;
    /// Bytes read per visited BVH node.
    pub const NODE_BYTES: u64 = 32;
}

/// Rays (and, for ray-less indices, launch indices) after which a worker
/// closes its current tile; it bounds the worker's buffers at about 160
/// bytes per ray, 2.5 MiB. Measured on 65,536-point batches against 2^20
/// keys, two workers, alternating runs, one ray at a time: 35–38 ms per
/// batch at 2,048 and 4,096, 30–33 ms at 16,384, no further gain at 32,768
/// or 65,536 (the one-index-at-a-time launch: 46–53 ms). Interleaving
/// works inside a tile, so it leaves this choice alone.
pub const TILE_RAYS: usize = 16_384;

/// A tile with at most this many rays is traversed in submission order: no
/// order keys, no sort, no order buffers, no stage times — the route of
/// single-op and fused-service launches (a single-op launch: 850 ns, of
/// which the stage clock would be another 200; the one-index-at-a-time
/// launch: 700). Rays this sparse share only the top of the tree,
/// which stays cached anyway, so ordering them costs more than it saves.
/// Measured, one worker, ordered against unordered: a tie at 16 rays,
/// 28 against 23 µs at 64, 158 against 142 µs at 256, a tie at 512 and
/// 1,024, and 10 % in favour of ordering from 2,048 rays on (2^17 and 2^20
/// keys alike).
pub const TINY_LAUNCH_RAYS: usize = 1024;

/// Host bytes of a structure (BVH nodes plus primitives,
/// [`GeometryAccel::host_bytes`]) from which its ordered tiles take
/// [`Route::Interleaved`]. The host's caches decide it: below, the
/// structure stays in them and the lane bookkeeping costs more than the
/// prefetches hide. The two routes break even at about 2^19 triangle keys
/// (27 MiB); 2^18 keys are 13.5 MiB (DESIGN.md §2 has the sweep).
pub const INTERLEAVE_MIN_HOST_BYTES: usize = 20 << 20;

/// Launch indices stage 3 of an ordered tile looks ahead: while it
/// finishes index `k` it hints the finish reads of index `k + 16`
/// ([`ProgramSet::prefetch_finish`]). The value line of a random row is a
/// cache miss on any index whose value column outgrows the L1; 16 indices
/// of finish work cover it.
const FINISH_LOOKAHEAD: usize = 16;

/// How the ordered tiles of a launch (more than [`TINY_LAUNCH_RAYS`] rays)
/// traverse. Only the host's work changes with it: every ray's statistics
/// and hits, and every charge, are the same on both routes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// One ray after the other ([`rtx_bvh::traverse()`]).
    OneAtATime,
    /// [`rtx_bvh::LANES`] rays in flight, one node each in turn, with what
    /// each visit reads prefetched ([`rtx_bvh::traverse_interleaved`]).
    Interleaved,
}

impl Route {
    /// The route for launches against `gas`: [`Route::Interleaved`] from
    /// [`INTERLEAVE_MIN_HOST_BYTES`] on, one at a time below.
    pub fn for_accel(gas: &GeometryAccel) -> Route {
        if gas.host_bytes() >= INTERLEAVE_MIN_HOST_BYTES {
            Route::Interleaved
        } else {
            Route::OneAtATime
        }
    }
}

/// The user-programmable parts of a pipeline, i.e. the OptiX "program groups"
/// RTIndeX provides.
pub trait ProgramSet: Sync {
    /// Per-ray payload handed to the any-hit program. Every emitted ray
    /// gets a fresh one.
    type Payload: Default;
    /// Per-launch-index result written to the output buffer.
    type Output: Send + Default + Clone;

    /// Ray-generation program: emits the rays of launch index `idx`, in the
    /// order their payloads are handed to [`finish`](ProgramSet::finish).
    fn ray_gen(&self, idx: usize, rays: &mut RayQueue);

    /// Any-hit program: called for every reported intersection of one ray
    /// with the primitive index (= rowID) and the hit parameter.
    fn any_hit(&self, payload: &mut Self::Payload, prim_index: u32, t: f32) -> AnyHitControl;

    /// Produces the output of launch index `idx` from the payloads of the
    /// rays it emitted (in emission order; empty when it emitted none),
    /// charging the device for whatever it reads on the way.
    fn finish(
        &self,
        idx: usize,
        payloads: &[Self::Payload],
        device: &mut FinishCtx<'_>,
    ) -> Self::Output;

    /// A hint that [`finish`](ProgramSet::finish) will soon be handed
    /// `payload`: an implementation may start loading the host memory it
    /// will read for it (with [`rtx_bvh::prefetch`]). Nothing here is
    /// charged, and the output must not depend on it. Called on ordered
    /// tiles only (more than [`TINY_LAUNCH_RAYS`] rays); the default does
    /// nothing.
    fn prefetch_finish(&self, payload: &Self::Payload) {
        let _ = payload;
    }
}

/// The append-only queue a ray-generation program emits its rays into.
#[derive(Debug, Default)]
pub struct RayQueue {
    rays: Vec<Ray>,
}

impl RayQueue {
    /// Queues `ray` for traversal (our `optixTrace()` call site).
    #[inline]
    pub fn emit(&mut self, ray: Ray) {
        self.rays.push(ray);
    }
}

/// Handle passed to the finish program so that all device work it does is
/// accounted.
pub struct FinishCtx<'a> {
    ctx: &'a mut ThreadCtx,
    classifier: &'a mut AccessClassifier,
}

impl FinishCtx<'_> {
    /// Records a data-dependent read of `bytes` from a device buffer (e.g.
    /// fetching the projected value for a rowID). `token` identifies the
    /// touched region (such as `rowID / 8`) so that neighbouring fetches can
    /// hit the cache.
    pub fn read_buffer(&mut self, token: u64, bytes: u64) {
        self.ctx.add_instructions(2);
        self.classifier.access(
            self.ctx,
            token.wrapping_mul(2654435761).rotate_left(17),
            bytes,
        );
    }

    /// Records `n` additional instructions of per-thread work (key
    /// conversion, result encoding, …).
    pub fn add_instructions(&mut self, n: u64) {
        self.ctx.add_instructions(n);
    }
}

/// Charges the device for one traced ray: trace setup, the node and
/// primitive traffic attributed by locality, the programmable and the
/// fixed-function work.
fn charge_ray(
    ctx: &mut ThreadCtx,
    classifier: &mut AccessClassifier,
    bytes_per_primitive: u64,
    ray: &Ray,
    stats: &TraversalStats,
) {
    ctx.add_instructions(cost_constants::TRACE_SETUP);

    // Memory traffic: nodes + primitive data, attributed by locality.
    // The region token groups rays that enter the tree near each other
    // (quantised origin), which is what produces cache reuse for sorted
    // or skewed lookup batches.
    let token = quantize_origin(ray);
    classifier.access(ctx, token, stats.nodes_visited * cost_constants::NODE_BYTES);
    let prim_bytes = stats.prim_tests() * bytes_per_primitive;
    if prim_bytes > 0 {
        classifier.access(ctx, token.wrapping_add(1), prim_bytes);
    }

    // Programmable-core work.
    ctx.add_instructions(
        stats.sw_prim_tests * cost_constants::SW_INTERSECTION
            + stats.any_hit_invocations * cost_constants::ANY_HIT,
    );
    // Fixed-function work. RT cores fetch a node and test all of its
    // children in one step, so the charged unit is the visited node, not
    // the individual child-box test.
    ctx.stats.rt_box_tests += stats.nodes_visited;
    ctx.stats.rt_triangle_tests += stats.hw_prim_tests;
    ctx.stats.sw_intersection_tests += stats.sw_prim_tests;
    ctx.stats.bvh_nodes_visited += stats.nodes_visited;
    ctx.stats.any_hit_invocations += stats.any_hit_invocations;
    ctx.stats.early_aborts += stats.aborted_at_root;
}

/// Groups rays whose origins are close together; used as the locality token.
fn quantize_origin(ray: &Ray) -> u64 {
    let q = |v: f32| ((v / 64.0).floor() as i64) as u64;
    q(ray.origin.x) ^ q(ray.origin.y).rotate_left(21) ^ q(ray.origin.z).rotate_left(42)
}

/// Host wall-clock time of the launch stages, summed over the workers of a
/// launch (so on a parallel launch the four can add up to more than
/// [`LaunchMetrics::host_time`]). Tiles of at most [`TINY_LAUNCH_RAYS`] rays
/// are not timed and count as zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimes {
    /// Emitting the rays (stage 1).
    pub ray_gen: Duration,
    /// Computing and sorting the traversal order.
    pub order: Duration,
    /// Traversing the rays, any-hit programs included (stage 2).
    pub traverse: Duration,
    /// Charging the device and running the finish programs (stage 3).
    pub finish: Duration,
}

impl StageTimes {
    fn merge(&mut self, other: &StageTimes) {
        self.ray_gen += other.ray_gen;
        self.order += other.order;
        self.traverse += other.traverse;
        self.finish += other.finish;
    }
}

/// Result of a pipeline launch.
#[derive(Debug, Clone, Default)]
pub struct LaunchMetrics {
    /// Merged hardware counters of the launch.
    pub kernel: KernelStats,
    /// Aggregated BVH traversal statistics.
    pub traversal: TraversalStats,
    /// Simulated device time of the launch.
    pub simulated_time_s: f64,
    /// Host wall-clock time of the (software) launch.
    pub host_time: Duration,
    /// Where the workers spent that host time, stage by stage.
    pub host_stages: StageTimes,
}

impl LaunchMetrics {
    /// Simulated time as a typed value.
    pub fn simulated_time(&self) -> SimulatedTime {
        SimulatedTime::from_seconds(self.simulated_time_s)
    }

    /// Merges the metrics of a subsequent launch (used when a workload is
    /// split into several batches).
    pub fn merge(&mut self, other: &LaunchMetrics) {
        self.kernel.merge(&other.kernel);
        self.traversal.merge(&other.traversal);
        self.simulated_time_s += other.simulated_time_s;
        self.host_time += other.host_time;
        self.host_stages.merge(&other.host_stages);
    }
}

/// Launches the pipeline over the launch indices `0..width`, writing each
/// index's result into `out[idx]`.
///
/// `extra_working_set_bytes` describes device data outside the acceleration
/// structure that lookups touch (the projected value column), so the memory
/// model sees the true working-set size. The host route is
/// [`Route::for_accel`]`(gas)`.
pub fn launch<PS: ProgramSet>(
    device: &Device,
    gas: &GeometryAccel,
    programs: &PS,
    width: usize,
    extra_working_set_bytes: u64,
    out: &mut [PS::Output],
) -> LaunchMetrics {
    let route = Route::for_accel(gas);
    launch_routed(
        device,
        gas,
        programs,
        width,
        extra_working_set_bytes,
        out,
        route,
    )
}

/// [`launch`] on the host route `route` instead of the one the structure's
/// size selects: for holding the routes against each other, which must
/// agree on everything but host time.
pub fn launch_routed<PS: ProgramSet>(
    device: &Device,
    gas: &GeometryAccel,
    programs: &PS,
    width: usize,
    extra_working_set_bytes: u64,
    out: &mut [PS::Output],
    route: Route,
) -> LaunchMetrics {
    assert!(
        out.len() >= width,
        "output buffer too small: {} < {width}",
        out.len()
    );
    let start = Instant::now();

    let mut merged = KernelStats {
        threads_launched: width as u64,
        kernel_launches: 1,
        ..KernelStats::new()
    };
    let mut traversal = TraversalStats::default();
    let mut host_stages = StageTimes::default();

    if width > 0 {
        let workers = gpu_device::executor::worker_count().min(width);
        let chunk = width.div_ceil(workers);
        let classifier = AccessClassifier::new(
            device.spec().l2_bytes,
            gas.memory_bytes() + extra_working_set_bytes,
        );

        let out_chunks: Vec<&mut [PS::Output]> = out[..width].chunks_mut(chunk).collect();
        let partials = gpu_device::executor::parallel_map(out_chunks, |w, out_chunk| {
            let wavefront = Wavefront {
                bvh: gas.bvh(),
                programs,
                first_idx: w * chunk,
                classifier: classifier.clone(),
                route,
            };
            // The paper's configuration gets a statically dispatched
            // intersection test; the software primitives go through the
            // trait object.
            match gas.input() {
                BuildInput::Triangles(triangles) => wavefront.run(triangles, out_chunk),
                other => wavefront.run(other.as_primitive_set(), out_chunk),
            }
        });

        for (stats, trav, stages) in partials {
            merged.merge(&stats);
            traversal.merge(&trav);
            host_stages.merge(&stages);
        }
        merged.threads_launched = width as u64;
        merged.kernel_launches = 1;
    }

    let simulated = device.record_kernel(merged);

    LaunchMetrics {
        kernel: merged,
        traversal,
        simulated_time_s: simulated.as_seconds(),
        host_time: start.elapsed(),
        host_stages,
    }
}

/// Sort key of ray `slot` of a tile: the high half of the 63-bit Morton
/// code of the point where the ray's interval starts (for most strategies
/// the origin; a from-zero ray enters at `tmin`), relative to the scene
/// bounds, above the slot. 32 code bits keep ~10 per axis — cells far
/// smaller than what one tile's rays can tell apart — and make the key a
/// plain `u64` for the sort.
fn order_key(ray: &Ray, scene: &Aabb, slot: usize) -> u64 {
    (morton_in_bounds(ray.at(ray.tmin), scene) >> 31) << 32 | slot as u64
}

/// Time since `mark`, which is moved to now; zero on a tile that is not
/// timed.
fn lap(mark: &mut Option<Instant>) -> Duration {
    let Some(mark) = mark else {
        return Duration::ZERO;
    };
    let now = Instant::now();
    let elapsed = now - *mark;
    *mark = now;
    elapsed
}

/// One worker's share of a launch: the launch indices
/// `first_idx..first_idx + out.len()`, run tile by tile.
struct Wavefront<'a, PS: ProgramSet> {
    bvh: &'a Bvh,
    programs: &'a PS,
    first_idx: usize,
    classifier: AccessClassifier,
    route: Route,
}

impl<PS: ProgramSet> Wavefront<'_, PS> {
    fn run<P: PrimitiveSet + ?Sized>(
        mut self,
        prims: &P,
        out: &mut [PS::Output],
    ) -> (KernelStats, TraversalStats, StageTimes) {
        let programs = self.programs;
        let scene = self.bvh.root_bounds();
        let bytes_per_primitive = prims.bytes_per_primitive();
        let mut ctx = ThreadCtx::new();
        let mut traversal = TraversalStats::default();
        let mut stages = StageTimes::default();

        // The worker's buffers, sized once for a tile of one-ray indices
        // and reused across the tiles: a launch allocates per worker, not
        // per ray.
        let tile = out.len().min(TILE_RAYS);
        let mut queue = RayQueue {
            rays: Vec::with_capacity(tile),
        };
        // Launch index `k` of the tile owns the rays `first_ray[k]..first_ray[k + 1]`.
        let mut first_ray: Vec<u32> = Vec::with_capacity(tile + 1);
        // Sort keys, and for every ray the position it was traversed at
        // (untouched while tiles stay tiny).
        let mut order: Vec<u64> = Vec::new();
        let mut traced_at: Vec<u32> = Vec::new();
        // Statistics and payloads in traversal order, and the payloads of
        // one multi-ray index of an ordered tile, in ray order.
        let mut traced_stats: Vec<TraversalStats> = Vec::with_capacity(tile);
        let mut traced: Vec<PS::Payload> = Vec::with_capacity(tile);
        let mut payloads: Vec<PS::Payload> = Vec::new();

        let mut done = 0;
        while done < out.len() {
            // Stage 1: emit the tile's rays.
            let mut mark = Some(Instant::now());
            queue.rays.clear();
            first_ray.clear();
            let tile_start = done;
            while done < out.len() && queue.rays.len() < TILE_RAYS && done - tile_start < TILE_RAYS
            {
                first_ray.push(queue.rays.len() as u32);
                programs.ray_gen(self.first_idx + done, &mut queue);
                done += 1;
            }
            let rays = &queue.rays[..];
            let tile_rays = u32::try_from(rays.len()).expect("a tile holds fewer than 2^32 rays");
            first_ray.push(tile_rays);
            let ordered = rays.len() > TINY_LAUNCH_RAYS;
            if !ordered {
                // Four clock reads are 150–200 ns, a quarter of a single-op
                // launch: tiny tiles go untimed.
                mark = None;
            }
            stages.ray_gen += lap(&mut mark);

            // Stage 2: traverse, in scene order unless the tile is tiny. The
            // results are written in traversal order, so this stage reads
            // and writes its buffers front to back; stage 3 finds a ray's
            // result through `traced_at`.
            if ordered {
                order.clear();
                order.extend(
                    rays.iter()
                        .enumerate()
                        .map(|(slot, ray)| order_key(ray, &scene, slot)),
                );
                order.sort_unstable();
                traced_at.clear();
                traced_at.resize(rays.len(), 0);
                for (at, &key) in order.iter().enumerate() {
                    traced_at[key as u32 as usize] = at as u32;
                }
            }
            stages.order += lap(&mut mark);

            traced_stats.clear();
            traced.clear();
            if ordered && self.route == Route::Interleaved {
                traced_stats.resize(rays.len(), TraversalStats::default());
                traced.resize_with(rays.len(), PS::Payload::default);
                traverse_interleaved(
                    self.bvh,
                    prims,
                    order.iter().map(|&key| &rays[key as u32 as usize]),
                    &mut traced_stats,
                    |at, prim, t| programs.any_hit(&mut traced[at], prim, t),
                );
            } else {
                let mut trace = |ray: &Ray| {
                    let mut payload = PS::Payload::default();
                    traced_stats.push(traverse(self.bvh, prims, ray, |prim, t| {
                        programs.any_hit(&mut payload, prim, t)
                    }));
                    traced.push(payload);
                };
                if ordered {
                    order
                        .iter()
                        .for_each(|&key| trace(&rays[key as u32 as usize]));
                } else {
                    rays.iter().for_each(&mut trace);
                }
            }
            stages.traverse += lap(&mut mark);

            // Stage 3: charge and finish in launch order; an ordered tile
            // first hints the finish reads of a later index.
            let tile_len = done - tile_start;
            for (k, slot) in out[tile_start..done].iter_mut().enumerate() {
                let ahead = k + FINISH_LOOKAHEAD;
                if ordered && ahead < tile_len {
                    for r in first_ray[ahead] as usize..first_ray[ahead + 1] as usize {
                        programs.prefetch_finish(&traced[traced_at[r] as usize]);
                    }
                }
                ctx.add_instructions(cost_constants::RAYGEN_BASE);
                let own_rays = first_ray[k] as usize..first_ray[k + 1] as usize;
                for r in own_rays.clone() {
                    let at = if ordered { traced_at[r] as usize } else { r };
                    let stats = &traced_stats[at];
                    charge_ray(
                        &mut ctx,
                        &mut self.classifier,
                        bytes_per_primitive,
                        &rays[r],
                        stats,
                    );
                    traversal.merge(stats);
                }
                // The index's payloads in ray order: in place where they
                // already are, gathered only for the multi-ray indices of
                // an ordered tile.
                let own: &[PS::Payload] = if !ordered {
                    &traced[own_rays]
                } else if own_rays.len() == 1 {
                    std::slice::from_ref(&traced[traced_at[own_rays.start] as usize])
                } else {
                    payloads.clear();
                    payloads.extend(
                        own_rays.map(|r| std::mem::take(&mut traced[traced_at[r] as usize])),
                    );
                    &payloads
                };
                *slot = programs.finish(
                    self.first_idx + tile_start + k,
                    own,
                    &mut FinishCtx {
                        ctx: &mut ctx,
                        classifier: &mut self.classifier,
                    },
                );
            }
            stages.finish += lap(&mut mark);
        }
        (ctx.stats, traversal, stages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accel::AccelBuildOptions;
    use crate::build_input::{BuildInput, PrimitiveKind};
    use rtx_math::Vec3f;

    /// A minimal program set: each launch index looks up key `idx` with a
    /// perpendicular ray and returns the hit rowID (or u32::MAX on miss).
    struct PointLookup;

    #[derive(Default)]
    struct HitPayload {
        row: Option<u32>,
    }

    impl ProgramSet for PointLookup {
        type Payload = HitPayload;
        type Output = u32;

        fn ray_gen(&self, idx: usize, rays: &mut RayQueue) {
            rays.emit(point_ray(idx as f32));
        }

        fn any_hit(&self, payload: &mut HitPayload, prim: u32, _t: f32) -> AnyHitControl {
            payload.row = Some(prim);
            AnyHitControl::Continue
        }

        fn finish(&self, _idx: usize, payloads: &[HitPayload], _: &mut FinishCtx<'_>) -> u32 {
            payloads[0].row.unwrap_or(u32::MAX)
        }
    }

    /// Perpendicular ray through key position `x`.
    fn point_ray(x: f32) -> Ray {
        Ray::new(
            Vec3f::new(x, 0.0, -0.5),
            Vec3f::new(0.0, 0.0, 1.0),
            0.0,
            1.0,
        )
    }

    /// Ray along the key line covering the keys `lower..=upper`.
    fn range_ray(lower: f32, upper: f32) -> Ray {
        Ray::new(
            Vec3f::new(lower - 0.5, 0.0, 0.0),
            Vec3f::new(1.0, 0.0, 0.0),
            0.0,
            upper - lower + 1.0,
        )
    }

    /// Existence probes: every launch index asks whether the lower and
    /// whether the upper half of 512 keys holds anything, one ray each, and
    /// any-hit terminates on the first intersection it sees.
    struct ExistsInHalves;

    impl ProgramSet for ExistsInHalves {
        type Payload = Vec<u32>;
        type Output = [Vec<u32>; 2];

        fn ray_gen(&self, _idx: usize, rays: &mut RayQueue) {
            rays.emit(range_ray(0.0, 255.0));
            rays.emit(range_ray(256.0, 511.0));
        }

        fn any_hit(&self, payload: &mut Vec<u32>, prim: u32, _t: f32) -> AnyHitControl {
            payload.push(prim);
            AnyHitControl::Terminate
        }

        fn finish(&self, _: usize, payloads: &[Vec<u32>], _: &mut FinishCtx<'_>) -> [Vec<u32>; 2] {
            [payloads[0].clone(), payloads[1].clone()]
        }
    }

    #[test]
    fn terminate_ends_the_ray_it_was_returned_for_and_no_other() {
        let device = Device::default_eval();
        let gas = build_gas(&device, 512);
        // Below and above the tiny-launch threshold (both traversal
        // orders), on both routes.
        for (width, route) in [
            (3, Route::OneAtATime),
            (4 * TINY_LAUNCH_RAYS, Route::OneAtATime),
            (4 * TINY_LAUNCH_RAYS, Route::Interleaved),
        ] {
            let mut out = vec![<[Vec<u32>; 2]>::default(); width];
            let metrics = launch_routed(&device, &gas, &ExistsInHalves, width, 0, &mut out, route);
            for [lower, upper] in &out {
                assert_eq!(lower.len(), 1, "one hit, then the ray stops");
                assert_eq!(upper.len(), 1, "the sibling ray still runs");
                assert!(lower[0] < 256 && upper[0] >= 256);
            }
            assert_eq!(metrics.traversal.any_hit_invocations, 2 * width as u64);
            assert_eq!(metrics.kernel.any_hit_invocations, 2 * width as u64);
        }
    }

    /// Launch index `idx` looks up key `(7 * idx) % 1000` — except every
    /// third index, which emits no ray at all.
    struct Sparse;

    impl ProgramSet for Sparse {
        type Payload = HitPayload;
        type Output = u32;

        fn ray_gen(&self, idx: usize, rays: &mut RayQueue) {
            if !idx.is_multiple_of(3) {
                rays.emit(point_ray(((7 * idx) % 1000) as f32));
            }
        }

        fn any_hit(&self, payload: &mut HitPayload, prim: u32, _t: f32) -> AnyHitControl {
            payload.row = Some(prim);
            AnyHitControl::Continue
        }

        fn finish(&self, _idx: usize, payloads: &[HitPayload], _: &mut FinishCtx<'_>) -> u32 {
            match payloads {
                [] => u32::MAX - 1,
                [payload] => payload.row.unwrap_or(u32::MAX),
                _ => panic!("one ray at most"),
            }
        }
    }

    #[test]
    fn small_structures_traverse_one_ray_at_a_time() {
        let device = Device::default_eval();
        let gas = build_gas(&device, 1000);
        assert!(gas.host_bytes() < INTERLEAVE_MIN_HOST_BYTES);
        assert_eq!(Route::for_accel(&gas), Route::OneAtATime);
    }

    #[test]
    fn tiles_keep_launch_order_and_ray_less_indices() {
        let device = Device::default_eval();
        let gas = build_gas(&device, 1000);
        // Several tiles per worker, the last one partial.
        let width = gpu_device::worker_count() * (2 * TILE_RAYS + TILE_RAYS / 3);
        for route in [Route::OneAtATime, Route::Interleaved] {
            let mut out = vec![0u32; width];
            let metrics = launch_routed(&device, &gas, &Sparse, width, 0, &mut out, route);
            for (idx, &row) in out.iter().enumerate() {
                let expected = if idx % 3 == 0 {
                    u32::MAX - 1
                } else {
                    ((7 * idx) % 1000) as u32
                };
                assert_eq!(row, expected, "{route:?}: launch index {idx}");
            }
            let rays = (width - width.div_ceil(3)) as u64;
            assert_eq!(metrics.traversal.any_hit_invocations, rays);
            assert_eq!(metrics.kernel.threads_launched, width as u64);
            assert!(metrics.host_stages.traverse > Duration::ZERO);
            assert!(metrics.host_stages.order > Duration::ZERO);
        }
    }

    fn build_gas(device: &Device, n: usize) -> GeometryAccel {
        let centers: Vec<Vec3f> = (0..n).map(|i| Vec3f::new(i as f32, 0.0, 0.0)).collect();
        GeometryAccel::build(
            device,
            BuildInput::from_centers(PrimitiveKind::Triangle, &centers),
            &AccelBuildOptions::default(),
        )
    }

    #[test]
    fn launch_returns_correct_rowids() {
        let device = Device::default_eval();
        let gas = build_gas(&device, 512);
        let mut out = vec![0u32; 512];
        let metrics = launch(&device, &gas, &PointLookup, 512, 0, &mut out);
        for (i, &row) in out.iter().enumerate() {
            assert_eq!(row, i as u32, "lookup {i}");
        }
        assert_eq!(metrics.kernel.threads_launched, 512);
        assert_eq!(metrics.kernel.kernel_launches, 1);
        assert!(metrics.kernel.instructions > 0);
        assert!(metrics.kernel.rt_triangle_tests > 0);
        assert!(metrics.traversal.any_hit_invocations == 512);
        assert!(metrics.simulated_time_s > 0.0);
        assert_eq!(
            metrics.host_stages,
            StageTimes::default(),
            "tiny tiles are not timed"
        );
    }

    #[test]
    fn launch_records_misses_without_hits() {
        let device = Device::default_eval();
        let gas = build_gas(&device, 16);
        // Launch indices 0..64: indices >= 16 are misses.
        let mut out = vec![0u32; 64];
        let metrics = launch(&device, &gas, &PointLookup, 64, 0, &mut out);
        for (i, &row) in out.iter().enumerate().take(16) {
            assert_eq!(row, i as u32);
        }
        for &row in &out[16..] {
            assert_eq!(row, u32::MAX);
        }
        assert!(
            metrics.kernel.early_aborts > 0,
            "far misses abort at the root"
        );
    }

    #[test]
    fn update_regathers_the_new_buffer_into_slot_order() {
        let device = Device::default_eval();
        let n = 300usize;
        // rowID `row` holds key `(37 * row + shift) % n`: the buffer order is
        // far from the scene order, before and after the update.
        let key_of = |row: usize, shift: usize| (37 * row + shift) % n;
        let input = |kind, shift| {
            let centers: Vec<Vec3f> = (0..n)
                .map(|row| Vec3f::new(key_of(row, shift) as f32, 0.0, 0.0))
                .collect();
            BuildInput::from_centers(kind, &centers)
        };
        for kind in PrimitiveKind::all() {
            let mut gas =
                GeometryAccel::build(&device, input(kind, 0), &AccelBuildOptions::updatable());
            for shift in [0, 101] {
                if shift != 0 {
                    gas.update(&device, input(kind, shift)).expect("update");
                }
                let mut out = vec![0u32; n];
                launch(&device, &gas, &PointLookup, n, 0, &mut out);
                for row in 0..n {
                    assert_eq!(
                        out[key_of(row, shift)],
                        row as u32,
                        "{kind:?}, shift {shift}: key {} lives in row {row}",
                        key_of(row, shift)
                    );
                }
            }
        }
    }

    #[test]
    fn empty_launch_is_safe() {
        let device = Device::default_eval();
        let gas = build_gas(&device, 4);
        let mut out: Vec<u32> = vec![];
        let metrics = launch(&device, &gas, &PointLookup, 0, 0, &mut out);
        assert_eq!(metrics.kernel.threads_launched, 0);
        assert_eq!(metrics.traversal.nodes_visited, 0);
    }

    #[test]
    #[should_panic(expected = "output buffer too small")]
    fn launch_rejects_short_output() {
        let device = Device::default_eval();
        let gas = build_gas(&device, 4);
        let mut out = vec![0u32; 2];
        let _ = launch(&device, &gas, &PointLookup, 4, 0, &mut out);
    }

    #[test]
    fn metrics_merge_accumulates() {
        let device = Device::default_eval();
        let gas = build_gas(&device, 64);
        // Wide enough that every worker times its tile.
        let width = gpu_device::worker_count() * 2 * TINY_LAUNCH_RAYS;
        let mut out = vec![0u32; width];
        let mut total = LaunchMetrics::default();
        for _ in 0..4 {
            let m = launch(&device, &gas, &PointLookup, width, 0, &mut out);
            total.merge(&m);
        }
        assert_eq!(total.kernel.kernel_launches, 4);
        assert_eq!(total.kernel.threads_launched, 4 * width as u64);
        assert!(total.simulated_time().as_seconds() > 0.0);
        assert!(total.host_stages.finish > Duration::ZERO);
    }

    #[test]
    fn small_build_served_from_cache_large_build_from_dram() {
        let device = Device::default_eval();
        let small = build_gas(&device, 256);
        let mut out = vec![0u32; 256];
        let m_small = launch(&device, &small, &PointLookup, 256, 0, &mut out);
        assert_eq!(m_small.kernel.dram_bytes_read, 0, "small index fits in L2");

        // A working set much larger than the 72 MiB L2 of the 4090 —
        // simulate by claiming a huge extra working set.
        let m_large = launch(&device, &small, &PointLookup, 256, 10 << 30, &mut out);
        assert!(
            m_large.kernel.dram_bytes_read > 0,
            "large working set must hit DRAM"
        );
    }
}

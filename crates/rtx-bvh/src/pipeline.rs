//! The staged, parallel BVH build pipeline.
//!
//! [`BuildPipeline`] decomposes construction into the stages a GPU driver
//! runs and produces a [`Bvh`] that is **bit-identical** to the one-shot
//! builders in [`builder`](crate::builder) for the same [`BuildConfig`],
//! regardless of how many workers execute it. The LBVH arm works on 16-byte
//! `(Morton code, primitive index)` pairs, the records GPU LBVH builders
//! radix-sort:
//!
//! 1. **snapshot** — one pass over the pool folds the centroid bounds (chunk
//!    folds joined in chunk order), a second writes each primitive's pair
//!    into one preallocated array, in index order;
//! 2. **Morton sort** — a stable LSD radix sort on the code, one byte per
//!    pass, chunked over the pool with per-chunk histograms. Bytes in which
//!    no two codes differ are skipped. The input is in index order, so ties
//!    keep it: the order is exactly the one-shot builder's `(code, index)`
//!    sort;
//! 3. **emit** — the top levels are split until every slice is at most the
//!    grain size, and the slices' subtrees are emitted in parallel over the
//!    worker pool ([`gpu_device::parallel_map`]). Splits read codes only. A
//!    leaf folds the bounds of its own primitives, whose loads start a few
//!    leaves ahead (they lie anywhere in the pool); an interior's bounds are
//!    the union of its children's, filled in bottom-up (reverse pre-order),
//!    so every primitive's bounds are read once rather than once per level;
//! 4. **stitch** — the pair array is dropped, and the spine is spliced with
//!    the subtree blocks in exact pre-order with offset fix-ups; the spine's
//!    bounds are filled in bottom-up the same way.
//!
//! The SAH arm snapshots full build records (index, bounds, centroid) and
//! splits and emits with the one-shot SAH builder's own range builder.
//!
//! The tree matches the one-shot builder's bit for bit because
//!
//! * the top-level splits use *the same split rule* as the one-shot builder
//!   ([`sah_split_position`] / [`lbvh_split_position`]), applied until every
//!   slice is at most the grain size;
//! * the grain derives from a fixed subtree target
//!   ([`DEFAULT_TARGET_SUBTREES`]), **not** from the worker count, so the
//!   decomposition never depends on execution width;
//! * a union of boxes is a per-axis `min`/`max`, and `f32::min`/`max` settle
//!   a tie (`-0.0` against `0.0`) by operand position, which makes them
//!   associative: folding a range left to right and uniting the folds of its
//!   two halves, left before right, give the same bits.
//!
//! The pipeline reports per-stage host timings and the subtree count; the
//! simulated device cost of the stages lives in [`gpu_device::build`] and is
//! charged by the accel layer (`optix-sim`), where the build is wired into
//! `optixAccelBuild`.
//!
//! [`sah_split_position`]: crate::builder
//! [`lbvh_split_position`]: crate::builder

use std::time::{Duration, Instant};

use gpu_device::build::{BuildStage, BUILD_STAGE_COUNT};
use gpu_device::{parallel_map, parallel_tasks, worker_count};
use rtx_math::morton::morton_in_bounds;

use crate::builder::{
    build_sah_range, lbvh_split_position, sah_split_position, BuildConfig, BuilderKind, PrimInfo,
};
use crate::node::{Bvh, BvhNode};
use crate::primitives::PrimitiveSet;
use rtx_math::Aabb;

/// Default number of subtrees the top-level splitting aims for. Fixed (not
/// derived from the worker count) so the decomposition is deterministic;
/// large enough that the pool load-balances uneven split sizes.
pub const DEFAULT_TARGET_SUBTREES: usize = 64;

/// Fewest primitives one chunk of the snapshot or the sort covers: below
/// this, fanning out over the pool costs more than it saves.
const MIN_CHUNK: usize = 1 << 14;

/// Pairs ahead of the current leaf whose primitives the emit stage starts
/// loading. On a 2-core host this halves the emit stage of a 2^20-key
/// build (90 to 40 ms): without it every leaf waits on memory for bounds.
const PREFETCH_AHEAD: usize = 32;

/// The staged parallel builder. See the [module docs](self).
#[derive(Debug, Clone, Copy)]
pub struct BuildPipeline {
    config: BuildConfig,
    workers: usize,
    target_subtrees: usize,
}

/// The result of one pipeline run: the hierarchy plus the stage telemetry
/// the accel layer charges to the cost model.
#[derive(Debug)]
pub struct PipelineBuild {
    /// The built hierarchy (uncompacted; compaction is the accel layer's
    /// decision, as in OptiX).
    pub bvh: Bvh,
    /// Subtrees emitted by the parallel stage.
    pub subtree_count: usize,
    /// Host wall-clock time per stage, indexed by [`BuildStage::index`].
    /// The compaction slot stays zero — the pipeline never compacts.
    pub stage_host: [Duration; BUILD_STAGE_COUNT],
    /// The worker width the run was configured with (drives the simulated
    /// cost; the host-side pool is always the process-global one).
    pub workers: usize,
}

/// One step of the top-level build plan, in pre-order.
struct PlanStep {
    /// Bounds of the range this step covers, when the arm folds them top
    /// down (SAH, in the one-shot builder's fold order); `None` for an
    /// interior whose bounds the stitch unites from its children.
    bounds: Option<Aabb>,
    /// `Some(slice_index)` for a subtree slice, `None` for a spine interior.
    slice: Option<u32>,
    /// Plan index of the interior whose `right_child` this step's root is.
    right_parent: Option<u32>,
}

/// The top-level plan and the emitted subtrees (nodes, leaf order), one per
/// slice of the plan.
type Emitted = (Vec<PlanStep>, Vec<(Vec<BvhNode>, Vec<u32>)>);

/// The LBVH build record: a primitive's Morton code and its index in the
/// pool. 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pair {
    code: u64,
    index: u32,
}

impl BuildPipeline {
    /// A pipeline for `config`, simulated at the pool width
    /// ([`worker_count`]).
    pub fn new(config: BuildConfig) -> Self {
        BuildPipeline {
            config,
            workers: worker_count(),
            target_subtrees: DEFAULT_TARGET_SUBTREES,
        }
    }

    /// Overrides the simulated worker width (clamped to at least 1). The
    /// emitted tree does not depend on this — only the simulated cost and
    /// the reported width do.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Overrides the subtree target of the top-level splitting. Changing it
    /// changes the decomposition but not the emitted tree.
    #[cfg(test)]
    fn with_target_subtrees(mut self, target: usize) -> Self {
        self.target_subtrees = target.max(1);
        self
    }

    /// The build configuration.
    pub fn config(&self) -> &BuildConfig {
        &self.config
    }

    /// The configured worker width.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs the pipeline over `prims`.
    pub fn run(&self, prims: &dyn PrimitiveSet) -> PipelineBuild {
        let mut stage_host = [Duration::ZERO; BUILD_STAGE_COUNT];
        let n = prims.len();
        if n == 0 {
            return PipelineBuild {
                bvh: Bvh::new(Vec::new(), Vec::new(), self.config.allow_update),
                subtree_count: 0,
                stage_host,
                workers: self.workers,
            };
        }

        let grain = n
            .div_ceil(self.target_subtrees)
            .max(self.config.max_leaf_size)
            .max(1);
        let (plan, built) = match self.config.builder {
            BuilderKind::Lbvh => self.emit_lbvh(prims, grain, &mut stage_host),
            BuilderKind::Sah => self.emit_sah(prims, grain, &mut stage_host),
        };

        // Stage: stitch the spine and splice the subtree blocks in
        // pre-order.
        let start = Instant::now();
        let bvh = stitch(&plan, built, n, self.config.allow_update);
        stage_host[BuildStage::Stitch.index()] = start.elapsed();

        PipelineBuild {
            subtree_count: plan.iter().filter(|s| s.slice.is_some()).count(),
            bvh,
            stage_host,
            workers: self.workers,
        }
    }

    /// The LBVH arm's snapshot, sort and emit stages. The pair array lives
    /// only in here, so it is freed before the stitch.
    fn emit_lbvh(
        &self,
        prims: &dyn PrimitiveSet,
        grain: usize,
        stage_host: &mut [Duration; BUILD_STAGE_COUNT],
    ) -> Emitted {
        let start = Instant::now();
        // At most one chunk per worker for the snapshot and the sort.
        let chunk = prims.len().div_ceil(worker_count()).max(MIN_CHUNK);
        let (mut pairs, varying) = morton_pairs(prims, chunk);
        stage_host[BuildStage::Snapshot.index()] = start.elapsed();

        let start = Instant::now();
        radix_sort_by_code(&mut pairs, varying, chunk);
        stage_host[BuildStage::MortonSort.index()] = start.elapsed();

        // Stages: top-level split, then parallel subtree emission.
        let start = Instant::now();
        let (plan, slices) = plan_ranges(pairs.len(), grain, |lo, hi| {
            let split = (hi - lo > grain).then(|| lbvh_split_position(&pairs[lo..hi], |p| p.code));
            (None, split)
        });
        let jobs: Vec<&[Pair]> = slices.iter().map(|&(lo, hi)| &pairs[lo..hi]).collect();
        let max_leaf_size = self.config.max_leaf_size;
        let built = parallel_map(jobs, |_, sorted| {
            emit_lbvh_subtree(sorted, prims, max_leaf_size)
        });
        stage_host[BuildStage::EmitSubtrees.index()] = start.elapsed();
        (plan, built)
    }

    /// The SAH arm's snapshot and emit stages. SAH has no sort stage;
    /// top-level splitting sorts each range along its own split axis,
    /// exactly like the one-shot builder's root levels.
    fn emit_sah(
        &self,
        prims: &dyn PrimitiveSet,
        grain: usize,
        stage_host: &mut [Duration; BUILD_STAGE_COUNT],
    ) -> Emitted {
        // Stage: snapshot. Chunked over the pool; chunk boundaries affect
        // only which worker copies which records, never their content.
        let start = Instant::now();
        let n = prims.len();
        let chunks = worker_count().min(n);
        let chunk = n.div_ceil(chunks);
        let mut info: Vec<PrimInfo> = Vec::with_capacity(n);
        for part in parallel_tasks(chunks, |c| {
            (c * chunk..((c + 1) * chunk).min(n))
                .map(|i| PrimInfo {
                    index: i as u32,
                    bounds: prims.bounds(i),
                    centroid: prims.centroid(i),
                })
                .collect::<Vec<_>>()
        }) {
            info.extend(part);
        }
        stage_host[BuildStage::Snapshot.index()] = start.elapsed();

        let start = Instant::now();
        let (plan, slices) = plan_ranges(n, grain, |lo, hi| {
            let bounds = info[lo..hi]
                .iter()
                .fold(Aabb::EMPTY, |acc, p| acc.union(&p.bounds));
            let split =
                (hi - lo > grain).then(|| sah_split_position(&mut info[lo..hi], &self.config));
            (Some(bounds), split)
        });
        let chunks = into_chunks(info, &slices);
        let config = self.config;
        let built = parallel_map(chunks, move |_, mut chunk| {
            let mut nodes = Vec::with_capacity(chunk.len() * 2);
            let mut order = Vec::with_capacity(chunk.len());
            build_sah_range(&mut chunk, &mut nodes, &mut order, &config);
            // Leaves of several primitives leave most of the reserved
            // nodes unused: free them before the stitch copies the block.
            nodes.shrink_to_fit();
            (nodes, order)
        });
        stage_host[BuildStage::EmitSubtrees.index()] = start.elapsed();
        (plan, built)
    }
}

/// The snapshot stage of the LBVH arm: every primitive's `(code, index)`
/// pair in index order, and the code bits in which any two pairs differ.
/// Each pass runs over chunks of `chunk` primitives.
fn morton_pairs(prims: &dyn PrimitiveSet, chunk: usize) -> (Vec<Pair>, u64) {
    let n = prims.len();
    let range = |c: usize| c * chunk..((c + 1) * chunk).min(n);
    let centroid_bounds = parallel_tasks(n.div_ceil(chunk), |c| {
        range(c).fold(Aabb::EMPTY, |acc, i| acc.union_point(prims.centroid(i)))
    })
    .iter()
    .fold(Aabb::EMPTY, |acc, b| acc.union(b));

    let mut pairs = vec![Pair { code: 0, index: 0 }; n];
    let jobs: Vec<&mut [Pair]> = pairs.chunks_mut(chunk).collect();
    let (all_set, any_set) = parallel_map(jobs, |c, out| {
        let (mut all_set, mut any_set) = (u64::MAX, 0);
        for (slot, i) in out.iter_mut().zip(range(c)) {
            let code = morton_in_bounds(prims.centroid(i), &centroid_bounds);
            *slot = Pair {
                code,
                index: i as u32,
            };
            all_set &= code;
            any_set |= code;
        }
        (all_set, any_set)
    })
    .into_iter()
    .fold((u64::MAX, 0), |(all, any), (a, o)| (all & a, any | o));
    (pairs, any_set & !all_set)
}

/// Sorts `pairs` by code, stably: an LSD radix sort with one byte per pass,
/// skipping the bytes in which `varying` (the code bits that differ between
/// any two pairs) is clear. Each pass histograms the digits per chunk of
/// `chunk` pairs over the pool, then every chunk scatters its pairs to its
/// own disjoint runs of the output: for each digit, the chunks' runs follow
/// one another in chunk order, so equal digits keep their input order.
fn radix_sort_by_code(pairs: &mut Vec<Pair>, varying: u64, chunk: usize) {
    let mut scratch = vec![Pair { code: 0, index: 0 }; pairs.len()];
    for shift in (0..64).step_by(8).filter(|s| (varying >> s) & 0xff != 0) {
        let digit = |p: &Pair| ((p.code >> shift) & 0xff) as usize;
        let input: Vec<&[Pair]> = pairs.chunks(chunk).collect();
        let counts = parallel_tasks(input.len(), |c| {
            let mut count = [0usize; 256];
            for p in input[c] {
                count[digit(p)] += 1;
            }
            count
        });
        // Cut the output into its (digit, chunk) runs, digit-major.
        let mut runs: Vec<Vec<&mut [Pair]>> =
            counts.iter().map(|_| Vec::with_capacity(256)).collect();
        let mut rest = &mut scratch[..];
        for d in 0..256 {
            for (count, chunk_runs) in counts.iter().zip(&mut runs) {
                let (run, tail) = rest.split_at_mut(count[d]);
                chunk_runs.push(run);
                rest = tail;
            }
        }
        let jobs: Vec<_> = input.into_iter().zip(runs).collect();
        parallel_map(jobs, |_, (input, mut runs)| {
            let mut next = [0usize; 256];
            for p in input {
                let d = digit(p);
                runs[d][next[d]] = *p;
                next[d] += 1;
            }
        });
        std::mem::swap(pairs, &mut scratch);
    }
}

/// Emits the subtree over the code-sorted slice `sorted` in pre-order
/// (the one-shot LBVH builder's layout), with node and leaf-order offsets
/// local to the subtree. Leaves fold their primitives' bounds in slice
/// order; interiors unite their children's bounds, bottom-up.
fn emit_lbvh_subtree(
    sorted: &[Pair],
    prims: &dyn PrimitiveSet,
    max_leaf_size: usize,
) -> (Vec<BvhNode>, Vec<u32>) {
    let mut nodes: Vec<BvhNode> = Vec::with_capacity(sorted.len() * 2);
    let mut order = Vec::with_capacity(sorted.len());
    // (lo, hi, index of the interior whose right child this range is).
    let mut stack = vec![(0, sorted.len(), None::<usize>)];
    let mut prefetched = 0;
    while let Some((lo, hi, fixup)) = stack.pop() {
        let node_index = nodes.len();
        if let Some(parent) = fixup {
            nodes[parent].right_child = node_index as u32;
        }
        let slice = &sorted[lo..hi];
        if slice.len() <= max_leaf_size {
            // Leaves come left to right, and their primitives lie anywhere
            // in the pool: start loading the ones a few leaves ahead.
            let ahead = (hi + PREFETCH_AHEAD).min(sorted.len());
            for p in &sorted[prefetched.max(hi)..ahead] {
                let i = p.index as usize;
                prims.prefetch(i..i + 1);
            }
            prefetched = ahead;
            let bounds = slice.iter().fold(Aabb::EMPTY, |acc, p| {
                acc.union(&prims.bounds(p.index as usize))
            });
            nodes.push(BvhNode::leaf(
                bounds,
                order.len() as u32,
                slice.len() as u32,
            ));
            order.extend(slice.iter().map(|p| p.index));
            continue;
        }
        let split = lbvh_split_position(slice, |p| p.code);
        nodes.push(BvhNode::interior(Aabb::EMPTY, 0));
        // Right pushed first so the left child pops next (pre-order).
        stack.push((lo + split, hi, Some(node_index)));
        stack.push((lo, lo + split, None));
    }
    // Children follow their parent in pre-order.
    for i in (0..nodes.len()).rev() {
        unite_children(&mut nodes, i);
    }
    // Leaves of several primitives leave most of the reserved nodes
    // unused: free them before the stitch copies the block.
    nodes.shrink_to_fit();
    (nodes, order)
}

/// Sets interior `i`'s bounds to the union of its children's, left first;
/// leaves it alone if it is a leaf.
fn unite_children(nodes: &mut [BvhNode], i: usize) {
    let node = nodes[i];
    if !node.is_leaf() {
        nodes[i].bounds = nodes[i + 1]
            .bounds
            .union(&nodes[node.right_child as usize].bounds);
    }
}

/// Splits `[0, n)` top-down with `inspect(lo, hi) -> (bounds, split)` until
/// every range is at most `grain` long, returning the pre-order plan and
/// the slice ranges in ascending order. `inspect` returns `None` for a
/// range that is small enough (it becomes a subtree slice) and the
/// *range-local* split position otherwise — the same value the one-shot
/// builder would use, so the spine is the top of the exact same tree.
fn plan_ranges<F>(n: usize, grain: usize, mut inspect: F) -> (Vec<PlanStep>, Vec<(usize, usize)>)
where
    F: FnMut(usize, usize) -> (Option<Aabb>, Option<usize>),
{
    debug_assert!(n > 0 && grain > 0);
    let mut plan = Vec::new();
    let mut slices = Vec::new();
    // (lo, hi, plan index of the interior this range right-fixes).
    let mut stack = vec![(0usize, n, None::<u32>)];
    while let Some((lo, hi, right_parent)) = stack.pop() {
        let step = plan.len();
        let (bounds, split) = inspect(lo, hi);
        match split {
            None => {
                slices.push((lo, hi));
                plan.push(PlanStep {
                    bounds,
                    slice: Some(slices.len() as u32 - 1),
                    right_parent,
                });
            }
            Some(split) => {
                plan.push(PlanStep {
                    bounds,
                    slice: None,
                    right_parent,
                });
                stack.push((lo + split, hi, Some(step as u32)));
                stack.push((lo, lo + split, None));
            }
        }
    }
    // Pre-order over contiguous ranges visits them left to right.
    debug_assert!(slices.windows(2).all(|w| w[0].1 == w[1].0));
    (plan, slices)
}

/// Moves `items` into per-slice chunks. The slices tile `[0, len)` in
/// ascending order, so this is a sequence of takes.
fn into_chunks<T>(items: Vec<T>, slices: &[(usize, usize)]) -> Vec<Vec<T>> {
    let mut iter = items.into_iter();
    slices
        .iter()
        .map(|&(lo, hi)| iter.by_ref().take(hi - lo).collect())
        .collect()
}

/// Replays the plan in pre-order, emitting spine interiors and splicing the
/// built subtree blocks with node/order offset fix-ups, then unites the
/// children of every spine interior the plan gave no bounds, bottom-up.
/// Produces exactly the array the one-shot builder would have appended.
fn stitch(
    plan: &[PlanStep],
    built: Vec<(Vec<BvhNode>, Vec<u32>)>,
    prim_count: usize,
    allow_update: bool,
) -> Bvh {
    let total_nodes: usize = plan.iter().filter(|s| s.slice.is_none()).count()
        + built.iter().map(|(nodes, _)| nodes.len()).sum::<usize>();
    let mut nodes: Vec<BvhNode> = Vec::with_capacity(total_nodes);
    let mut order: Vec<u32> = Vec::with_capacity(prim_count);
    let mut root_of = vec![0u32; plan.len()];

    for (i, step) in plan.iter().enumerate() {
        let node_index = nodes.len() as u32;
        root_of[i] = node_index;
        if let Some(parent) = step.right_parent {
            nodes[root_of[parent as usize] as usize].right_child = node_index;
        }
        match step.slice {
            None => nodes.push(BvhNode::interior(step.bounds.unwrap_or(Aabb::EMPTY), 0)),
            Some(s) => {
                let (sub_nodes, sub_order) = &built[s as usize];
                let node_off = nodes.len() as u32;
                let order_off = order.len() as u32;
                nodes.extend(sub_nodes.iter().map(|n| {
                    let mut n = *n;
                    if n.is_leaf() {
                        n.first_prim += order_off;
                    } else {
                        n.right_child += node_off;
                    }
                    n
                }));
                order.extend_from_slice(sub_order);
            }
        }
    }
    for (step, &root) in plan.iter().zip(&root_of).rev() {
        if step.slice.is_none() && step.bounds.is_none() {
            unite_children(&mut nodes, root as usize);
        }
    }
    Bvh::new(nodes, order, allow_update)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build, build_lbvh};
    use crate::primitives::{AabbSet, SphereSet, TriangleSet};
    use proptest::prelude::*;
    use rtx_math::{Triangle, Vec3f};

    fn line_of_triangles(n: usize) -> TriangleSet {
        TriangleSet::new(
            (0..n)
                .map(|i| Triangle::key_triangle(Vec3f::new(i as f32, 0.0, 0.0), 0.4))
                .collect(),
        )
    }

    fn clustered_triangles(n: usize) -> TriangleSet {
        // Duplicates and uneven clusters: exercises the degenerate split
        // paths of both builders.
        TriangleSet::new(
            (0..n)
                .map(|i| {
                    let x = if i % 3 == 0 { 7.0 } else { (i % 41) as f32 };
                    Triangle::key_triangle(Vec3f::new(x, (i % 5) as f32, 0.0), 0.4)
                })
                .collect(),
        )
    }

    /// A node as the bits it is stored in: `PartialEq` on `f32` would let
    /// `-0.0` pass for `0.0`.
    fn node_bits(n: &BvhNode) -> [u32; 9] {
        let (lo, hi) = (n.bounds.min, n.bounds.max);
        [
            lo.x.to_bits(),
            lo.y.to_bits(),
            lo.z.to_bits(),
            hi.x.to_bits(),
            hi.y.to_bits(),
            hi.z.to_bits(),
            n.right_child,
            n.first_prim,
            n.prim_count,
        ]
    }

    fn assert_identical(a: &Bvh, b: &Bvh, what: &str) {
        let bits = |bvh: &Bvh| bvh.nodes.iter().map(node_bits).collect::<Vec<_>>();
        let (a_bits, b_bits) = (bits(a), bits(b));
        if let Some(i) =
            (0..a_bits.len().max(b_bits.len())).find(|&i| a_bits.get(i) != b_bits.get(i))
        {
            panic!(
                "{what}: node {i} differs: {:?} against {:?}",
                a.nodes.get(i),
                b.nodes.get(i)
            );
        }
        assert_eq!(a.prim_indices, b.prim_indices, "{what}: orders differ");
    }

    /// A coordinate from a small grid (ties, so many equal Morton codes),
    /// `±0.0`, or anywhere in `[-64, 64)`.
    fn coord((pick, free): (u32, f32)) -> f32 {
        match pick {
            0 => 0.0,
            1 => -0.0,
            2..=9 => (pick as f32 - 5.0) * 0.5,
            _ => free,
        }
    }

    fn coords() -> impl Strategy<Value = f32> {
        (0u32..14, -64.0f32..64.0).prop_map(coord)
    }

    fn points() -> impl Strategy<Value = Vec3f> {
        (coords(), coords(), coords()).prop_map(|(x, y, z)| Vec3f::new(x, y, z))
    }

    /// A triangle, sphere or AABB set of 1 to 2^14 primitives over
    /// [`points`].
    fn primitive_sets() -> impl Strategy<Value = Box<dyn PrimitiveSet>> {
        (
            0u32..3,
            prop::collection::vec((points(), points(), points()), 1..=1 << 14),
        )
            .prop_map(|(kind, corners)| -> Box<dyn PrimitiveSet> {
                match kind {
                    0 => Box::new(TriangleSet::new(
                        corners
                            .into_iter()
                            .map(|(a, b, c)| Triangle::new(a, b, c))
                            .collect(),
                    )),
                    1 => Box::new(SphereSet::new(
                        corners.into_iter().map(|(c, _, _)| c).collect(),
                        0.25,
                    )),
                    _ => Box::new(AabbSet::new(
                        corners
                            .into_iter()
                            .map(|(a, b, _)| Aabb::new(a.min(b), a.max(b)))
                            .collect(),
                    )),
                }
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The LBVH pipeline emits the one-shot builder's tree bit for
        /// bit, at every leaf size and worker width.
        #[test]
        fn prop_lbvh_pipeline_is_build_lbvh_bit_for_bit(
            prims in primitive_sets(),
            max_leaf_size in 1usize..=8,
        ) {
            let config = BuildConfig {
                max_leaf_size,
                ..BuildConfig::default()
            };
            let reference = build_lbvh(prims.as_ref(), &config);
            for workers in [1, 2, 8] {
                let staged = BuildPipeline::new(config)
                    .with_workers(workers)
                    .run(prims.as_ref());
                assert_identical(
                    &staged.bvh,
                    &reference,
                    &format!("n={} leaf={max_leaf_size} workers={workers}", prims.len()),
                );
            }
        }

        /// However the pool is chunked, the snapshot writes the same pairs
        /// and the radix sort is the stable sort by code.
        #[test]
        fn prop_chunked_snapshot_and_sort_match_one_chunk(
            prims in primitive_sets(),
            chunk in 1usize..100,
        ) {
            let n = prims.len();
            let (mut pairs, varying) = morton_pairs(prims.as_ref(), chunk);
            let (whole, whole_varying) = morton_pairs(prims.as_ref(), n);
            prop_assert_eq!(&pairs, &whole);
            prop_assert_eq!(varying, whole_varying);
            let mut reference = whole;
            reference.sort_by_key(|p| p.code);
            radix_sort_by_code(&mut pairs, varying, chunk);
            prop_assert!(pairs == reference, "n={} chunk={}", n, chunk);
        }
    }

    #[test]
    fn pipeline_matches_one_shot_builders() {
        for builder in [BuilderKind::Lbvh, BuilderKind::Sah] {
            for n in [0usize, 1, 3, 17, 255, 1024, 5000] {
                let prims = line_of_triangles(n);
                let config = BuildConfig {
                    builder,
                    ..BuildConfig::default()
                };
                let reference = build(&prims, &config);
                let staged = BuildPipeline::new(config).run(&prims).bvh;
                staged.validate().expect("staged build valid");
                assert_identical(&staged, &reference, &format!("{builder:?} n={n}"));
            }
        }
    }

    #[test]
    fn pipeline_is_identical_across_worker_widths() {
        for builder in [BuilderKind::Lbvh, BuilderKind::Sah] {
            let prims = clustered_triangles(4096);
            let config = BuildConfig {
                builder,
                ..BuildConfig::default()
            };
            let one = BuildPipeline::new(config).with_workers(1).run(&prims);
            let eight = BuildPipeline::new(config).with_workers(8).run(&prims);
            assert_identical(&one.bvh, &eight.bvh, &format!("{builder:?}"));
            assert_eq!(one.subtree_count, eight.subtree_count);
            assert!(one.subtree_count > 1, "the build must actually decompose");
            assert_identical(
                &one.bvh,
                &build(&prims, &config),
                &format!("{builder:?} vs one-shot"),
            );
        }
    }

    #[test]
    fn subtree_target_changes_decomposition_but_not_the_tree() {
        let prims = line_of_triangles(2048);
        let config = BuildConfig::default();
        let coarse = BuildPipeline::new(config)
            .with_target_subtrees(4)
            .run(&prims);
        let fine = BuildPipeline::new(config)
            .with_target_subtrees(256)
            .run(&prims);
        assert!(fine.subtree_count > coarse.subtree_count);
        assert_identical(&coarse.bvh, &fine.bvh, "subtree target");
    }

    #[test]
    fn duplicate_heavy_input_builds_identically() {
        let prims = TriangleSet::new(
            (0..512)
                .map(|_| Triangle::key_triangle(Vec3f::new(3.0, 0.0, 0.0), 0.4))
                .collect(),
        );
        for builder in [BuilderKind::Lbvh, BuilderKind::Sah] {
            let config = BuildConfig {
                builder,
                ..BuildConfig::default()
            };
            let staged = BuildPipeline::new(config).run(&prims);
            staged.bvh.validate().expect("valid");
            assert_identical(&staged.bvh, &build(&prims, &config), "duplicates");
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let config = BuildConfig::default();
        let empty = BuildPipeline::new(config).run(&line_of_triangles(0));
        assert_eq!(empty.bvh.node_count(), 0);
        assert_eq!(empty.subtree_count, 0);
        let one = BuildPipeline::new(config).run(&line_of_triangles(1));
        assert_eq!(one.subtree_count, 1);
        one.bvh.validate().expect("valid single-leaf build");
    }

    #[test]
    fn iterative_builders_survive_max_depth_inputs() {
        // max_leaf_size = 1 over clustered duplicates maximises depth; the
        // explicit work stack must handle it without recursion.
        let prims = clustered_triangles(1 << 15);
        for builder in [BuilderKind::Lbvh, BuilderKind::Sah] {
            let config = BuildConfig {
                builder,
                max_leaf_size: 1,
                ..BuildConfig::default()
            };
            let staged = BuildPipeline::new(config).run(&prims);
            staged.bvh.validate().expect("valid deep build");
            assert_eq!(staged.bvh.primitive_count(), 1 << 15);
        }
    }

    /// Host time per stage of the default LBVH build over 2^16, 2^18 and
    /// 2^20 key triangles, one per key of a dense shuffled column (the
    /// triangles a 3D-mode `RX` builds over such keys). Prints the median of
    /// five builds per stage and asserts nothing host-timed. Run with
    /// `cargo test --release -p rtx-bvh --lib build_sweep -- --ignored --nocapture`.
    #[test]
    #[ignore = "host-timed measurement; run in release"]
    fn build_sweep() {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        for log_n in [16u32, 18, 20] {
            let n = 1usize << log_n;
            // An odd multiplier permutes [0, 2^k): row i holds key key(i).
            let key = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9) & (n as u64 - 1);
            let prims = TriangleSet::new(
                (0..n)
                    .map(|i| Triangle::key_triangle(Vec3f::new(key(i) as f32, 0.0, 0.0), 0.4))
                    .collect(),
            );
            let mut runs: Vec<[Duration; BUILD_STAGE_COUNT]> = (0..5)
                .map(|_| {
                    let staged = BuildPipeline::new(BuildConfig::default()).run(&prims);
                    assert_eq!(staged.bvh.primitive_count(), n);
                    staged.stage_host
                })
                .collect();
            let mut line = format!("2^{log_n} keys:");
            for stage in BuildStage::ALL {
                runs.sort_by_key(|r| r[stage.index()]);
                line += &format!(" {} {:.1} ms", stage.name(), ms(runs[2][stage.index()]));
            }
            runs.sort_by_key(|r| r.iter().sum::<Duration>());
            line += &format!("; total {:.1} ms", ms(runs[2].iter().sum()));
            println!("{line}");
        }
    }
}

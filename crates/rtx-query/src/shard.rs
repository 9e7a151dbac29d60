//! Sharding vocabulary of the query layer: shard specs, key routing and the
//! scatter/gather plan.
//!
//! The sharded execution engine itself lives above this crate (`rtx-shard`,
//! which also implements the concrete partitioners), but the *vocabulary* —
//! how a sharded backend is named, how keys are routed and how a mixed
//! [`QueryBatch`] is split into per-shard sub-batches and gathered back —
//! belongs to the query API so that the [`Registry`](crate::Registry) can
//! resolve names like `"RX@8"` and so that planning stays a pure,
//! independently testable step.
//!
//! The plan treats the two partitioning families differently:
//!
//! * **point lookups** are always routed to the single shard owning the key;
//! * **range lookups** are *split at partition boundaries* under range
//!   partitioning (each shard sees only the sub-range it owns) and
//!   *broadcast* under hash partitioning (every shard may hold keys of the
//!   range);
//! * **inverted ranges** (`lower > upper`) are routed nowhere and gather as
//!   the uniform empty result.

use crate::batch::QueryBatch;
use crate::error::IndexError;
use crate::types::{BatchOutcome, LookupResult, QueryOutcome};

/// How a sharded backend distributes the key space over its shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Partitioning {
    /// Keys are routed by a hash of the key: points touch one shard, ranges
    /// are broadcast to every shard. The default.
    #[default]
    Hash,
    /// The `u64` key domain is cut into contiguous spans (one per shard):
    /// points touch one shard, ranges are split at the span boundaries.
    Range,
}

impl Partitioning {
    /// The spelling used in shard-spec names (`"hash"` / `"range"`).
    pub fn name(&self) -> &'static str {
        match self {
            Partitioning::Hash => "hash",
            Partitioning::Range => "range",
        }
    }
}

/// Per-shard load snapshot of a sharded backend: how many primitive
/// operations each shard has served and how many live rows it holds.
///
/// Returned by [`SecondaryIndex::shard_load`](crate::SecondaryIndex::shard_load)
/// (`None` on unsharded backends) and consumed by the hot-shard detection in
/// `rtx-serve` / `rtx-shard`: a sustained [`imbalance_ratio`] above a
/// threshold marks the [`hottest_shard`] as a rebalance candidate.
///
/// [`imbalance_ratio`]: ShardLoad::imbalance_ratio
/// [`hottest_shard`]: ShardLoad::hottest_shard
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardLoad {
    /// Primitive operations routed to each shard (point/range lookups plus
    /// routed update rows) since the backend was built or its counters were
    /// last reset by a rebalance pass.
    pub ops: Vec<u64>,
    /// Live rows currently owned by each shard.
    pub rows: Vec<u64>,
}

impl ShardLoad {
    /// Number of shards in the snapshot.
    pub fn shard_count(&self) -> usize {
        self.ops.len()
    }

    /// Total operations across all shards.
    pub fn total_ops(&self) -> u64 {
        self.ops.iter().sum()
    }

    /// Ratio of the hottest shard's op count to the per-shard mean: `1.0`
    /// is perfectly balanced, `shard_count()` is everything-on-one-shard.
    /// Returns `0.0` while no operations have been observed (never NaN).
    pub fn imbalance_ratio(&self) -> f64 {
        let total = self.total_ops();
        if total == 0 || self.ops.is_empty() {
            return 0.0;
        }
        let max = *self.ops.iter().max().expect("non-empty") as f64;
        let mean = total as f64 / self.ops.len() as f64;
        max / mean
    }

    /// Index of the shard that served the most operations; `None` while no
    /// operations have been observed.
    pub fn hottest_shard(&self) -> Option<usize> {
        if self.total_ops() == 0 {
            return None;
        }
        self.ops
            .iter()
            .enumerate()
            .max_by_key(|&(_, ops)| ops)
            .map(|(shard, _)| shard)
    }
}

/// What one shard-rebalance pass did: how many rows migrated between shards
/// and how many inner reorganisations (delta compactions) the migration
/// batches triggered. `moved_rows == 0` means the pass decided the layout
/// was already acceptable (or the backend has no shards to move).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RebalanceReport {
    /// Rows migrated from a donor shard to a receiver shard.
    pub moved_rows: u64,
    /// Inner structural reorganisations triggered by the migration batches.
    pub reorganisations: u64,
}

/// The most shards a sharded backend may have. `rtx-shard`'s hash router
/// spreads keys over 256 slots, so past 256 a hash shard could own no key.
pub const MAX_SHARDS: usize = 256;

/// The one shard bound, `1 ≤ shards ≤ MAX_SHARDS`, for the spec `name`.
/// [`SpecName::parse`](crate::SpecName::parse) checks every parsed shard
/// production and `ShardedIndex::build` every spec it is handed, so no
/// count outside the bound reaches a per-shard allocation.
pub fn check_shard_count(name: &str, shards: usize) -> Result<(), IndexError> {
    if (1..=MAX_SHARDS).contains(&shards) {
        return Ok(());
    }
    Err(IndexError::Backend {
        backend: name.into(),
        message: format!("shard count must be at least 1 and at most {MAX_SHARDS}"),
    })
}

/// What the sharding factory builds: the inner backend, the shard count
/// and the partitioning strategy — the shard production of a
/// [`SpecName`](crate::SpecName) (`"RX@8"`, `"SA@4:range"`) with its
/// backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// Registry name of the inner backend every shard runs.
    pub backend: String,
    /// Number of shards (see [`check_shard_count`]).
    pub shards: usize,
    /// How keys are distributed over the shards.
    pub partitioning: Partitioning,
}

impl ShardSpec {
    /// A hash-partitioned spec.
    pub fn hash(backend: &str, shards: usize) -> Self {
        ShardSpec {
            backend: backend.to_string(),
            shards,
            partitioning: Partitioning::Hash,
        }
    }

    /// A range-partitioned spec.
    pub fn range(backend: &str, shards: usize) -> Self {
        ShardSpec {
            backend: backend.to_string(),
            shards,
            partitioning: Partitioning::Range,
        }
    }
}

/// Routes keys (and key ranges) to shards. Implemented by the concrete
/// partitioners in `rtx-shard`; consumed by [`ScatterPlan`].
pub trait KeyRouter: Send + Sync {
    /// Number of shards keys are routed across.
    fn shard_count(&self) -> usize;

    /// The shard owning `key`. Must be total over the `u64` domain and
    /// stable across calls (updates and lookups must agree).
    fn shard_of_point(&self, key: u64) -> usize;

    /// The shards a non-inverted range `[lower, upper]` must consult, each
    /// with the sub-range it should answer. Sub-ranges must cover every key
    /// of the range exactly once across the returned shards (split for
    /// range partitioning, full-range broadcast for hash partitioning).
    fn shards_of_range(&self, lower: u64, upper: u64) -> Vec<(usize, (u64, u64))>;
}

/// The scatter side of a sharded execution: one sub-batch per shard plus
/// the submission-order slot each sub-operation answers, so the gather can
/// merge per-shard outcomes back into one [`QueryOutcome`].
///
/// Plans are reusable: [`replan_ops`](ScatterPlan::replan_ops) clears and
/// refills an existing plan in place, keeping every per-shard buffer's
/// capacity — a sharded executor pools its plans and replans submissions
/// allocation-free at steady state.
#[derive(Debug, Clone, Default)]
pub struct ScatterPlan {
    /// Number of operations in the planned batch.
    submitted_ops: usize,
    /// One sub-batch per shard (possibly empty). Value-fetch and chunk-size
    /// settings are inherited from the planned batch.
    sub_ops: Vec<QueryBatch>,
    /// For each shard, the originating slot of each of its sub-operations.
    slots: Vec<Vec<usize>>,
}

impl ScatterPlan {
    /// Plans `ops` over the shards of `router` into this plan in place,
    /// reusing every buffer. Points go to their owning shard, ranges go
    /// wherever the router sends them, inverted ranges go nowhere (their
    /// slots gather as the empty result).
    pub fn replan_ops(&mut self, ops: &QueryBatch, router: &dyn KeyRouter) {
        let shards = router.shard_count();
        self.sub_ops.resize_with(shards, QueryBatch::new);
        self.slots.resize_with(shards, Vec::new);
        for sub in &mut self.sub_ops {
            sub.clear();
            sub.set_fetch_values(ops.fetches_values());
            sub.set_chunk_size(ops.chunk_size().unwrap_or(0));
        }
        for shard_slots in &mut self.slots {
            shard_slots.clear();
        }
        self.submitted_ops = ops.len();
        let mut points = ops.point_keys().iter();
        let mut ranges = ops.range_bounds().iter();
        for slot in 0..ops.len() {
            if ops.is_range(slot) {
                let &(lower, upper) = ranges.next().expect("order tags out of sync");
                if lower > upper {
                    continue;
                }
                for (s, (sub_lower, sub_upper)) in router.shards_of_range(lower, upper) {
                    self.sub_ops[s].push_range(sub_lower, sub_upper);
                    self.slots[s].push(slot);
                }
            } else {
                let &key = points.next().expect("order tags out of sync");
                let s = router.shard_of_point(key);
                self.sub_ops[s].push_point(key);
                self.slots[s].push(slot);
            }
        }
    }

    /// The per-shard sub-batches, indexed by shard.
    pub fn sub_ops(&self) -> &[QueryBatch] {
        &self.sub_ops
    }

    /// The originating submission-order slots of shard `s`'s sub-operations.
    pub fn slots(&self, s: usize) -> &[usize] {
        &self.slots[s]
    }

    /// Gathers per-shard outcomes (one per shard, in shard order, already
    /// translated to global rowIDs by the caller) back into submission
    /// order: slots fed by several shards merge via [`LookupResult::merge`],
    /// slots fed by none stay misses, and launch metrics merge across
    /// shards.
    ///
    /// # Panics
    ///
    /// Panics when an outcome's result count does not match its shard's
    /// planned sub-batch (a sharded executor bug, not a caller mistake).
    pub fn gather(&self, outcomes: Vec<BatchOutcome>) -> QueryOutcome {
        assert_eq!(
            outcomes.len(),
            self.sub_ops.len(),
            "gather needs one outcome per shard"
        );
        let mut merged = QueryOutcome {
            results: vec![LookupResult::miss(); self.submitted_ops],
            metrics: Default::default(),
        };
        for (s, outcome) in outcomes.into_iter().enumerate() {
            assert_eq!(
                outcome.results.len(),
                self.slots[s].len(),
                "shard {s} answered {} of {} planned operations",
                outcome.results.len(),
                self.slots[s].len()
            );
            for (&slot, result) in self.slots[s].iter().zip(&outcome.results) {
                merged.results[slot].merge(result);
            }
            merged.metrics.merge(&outcome.metrics);
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::QueryOp;
    use crate::types::MISS;

    fn planned(batch: &QueryBatch, router: &dyn KeyRouter) -> ScatterPlan {
        let mut plan = ScatterPlan::default();
        plan.replan_ops(batch, router);
        plan
    }

    /// A router over `shards` equal contiguous spans of `0..domain`, with
    /// everything at/above `domain` owned by the last shard.
    struct SpanRouter {
        shards: usize,
        domain: u64,
    }

    impl SpanRouter {
        fn span(&self, s: usize) -> (u64, u64) {
            let width = self.domain / self.shards as u64;
            let lo = s as u64 * width;
            let hi = if s + 1 == self.shards {
                u64::MAX
            } else {
                lo + width - 1
            };
            (lo, hi)
        }
    }

    impl KeyRouter for SpanRouter {
        fn shard_count(&self) -> usize {
            self.shards
        }
        fn shard_of_point(&self, key: u64) -> usize {
            let width = self.domain / self.shards as u64;
            ((key / width) as usize).min(self.shards - 1)
        }
        fn shards_of_range(&self, lower: u64, upper: u64) -> Vec<(usize, (u64, u64))> {
            (self.shard_of_point(lower)..=self.shard_of_point(upper))
                .map(|s| {
                    let (lo, hi) = self.span(s);
                    (s, (lower.max(lo), upper.min(hi)))
                })
                .collect()
        }
    }

    /// Broadcast router: points by modulo, ranges to every shard whole.
    struct ModRouter {
        shards: usize,
    }

    impl KeyRouter for ModRouter {
        fn shard_count(&self) -> usize {
            self.shards
        }
        fn shard_of_point(&self, key: u64) -> usize {
            (key % self.shards as u64) as usize
        }
        fn shards_of_range(&self, lower: u64, upper: u64) -> Vec<(usize, (u64, u64))> {
            (0..self.shards).map(|s| (s, (lower, upper))).collect()
        }
    }

    #[test]
    fn plan_routes_points_and_splits_ranges() {
        let router = SpanRouter {
            shards: 4,
            domain: 400,
        };
        let batch = QueryBatch::new()
            .point(5) // shard 0
            .range(90, 210) // shards 0..=2, split
            .point(399) // shard 3
            .range(50, 10) // inverted: routed nowhere
            .fetch_values(true)
            .with_chunk_size(7);
        let plan = planned(&batch, &router);
        assert_eq!(plan.sub_ops().len(), 4);
        let sub = |s: usize| plan.sub_ops()[s].iter().collect::<Vec<_>>();
        assert_eq!(sub(0), &[QueryOp::Point(5), QueryOp::Range(90, 99)]);
        assert_eq!(sub(1), &[QueryOp::Range(100, 199)]);
        assert_eq!(sub(2), &[QueryOp::Range(200, 210)]);
        assert_eq!(sub(3), &[QueryOp::Point(399)]);
        assert_eq!(plan.slots(0), &[0, 1]);
        assert_eq!(plan.slots(1), &[1]);
        assert_eq!(plan.slots(2), &[1]);
        assert_eq!(plan.slots(3), &[2]);
        for sub in plan.sub_ops() {
            assert!(sub.fetches_values());
            assert_eq!(sub.chunk_size(), Some(7));
        }
    }

    #[test]
    fn replanning_reuses_buffers_and_matches_a_fresh_plan() {
        let router = SpanRouter {
            shards: 4,
            domain: 400,
        };
        let big = QueryBatch::new()
            .points((0..100).map(|i| i * 4))
            .range(90, 210)
            .fetch_values(true);
        let small = QueryBatch::new().point(5).range(50, 10).with_chunk_size(3);
        let mut reused = planned(&big, &router);
        reused.replan_ops(&small, &router);
        let fresh = planned(&small, &router);
        assert_eq!(reused.submitted_ops, fresh.submitted_ops);
        for s in 0..4 {
            assert_eq!(reused.sub_ops()[s], fresh.sub_ops()[s]);
            assert_eq!(reused.slots(s), fresh.slots(s));
            assert!(!reused.sub_ops()[s].fetches_values(), "flags re-derived");
            assert_eq!(reused.sub_ops()[s].chunk_size(), Some(3));
        }
        // A narrower router shrinks the plan with it.
        let narrow = SpanRouter {
            shards: 2,
            domain: 400,
        };
        reused.replan_ops(&small, &narrow);
        assert_eq!(reused.sub_ops().len(), 2);
    }

    #[test]
    fn plan_broadcasts_ranges_under_hash_routing() {
        let router = ModRouter { shards: 3 };
        let batch = QueryBatch::new().range(10, 20).point(4);
        let plan = planned(&batch, &router);
        for s in 0..3 {
            assert!(plan.sub_ops()[s]
                .iter()
                .any(|op| op == QueryOp::Range(10, 20)));
        }
        assert_eq!(plan.sub_ops()[1].iter().nth(1), Some(QueryOp::Point(4)));
        assert_eq!(plan.slots(1), &[0, 1]);
    }

    #[test]
    fn gather_merges_shared_slots_and_defaults_to_miss() {
        let router = SpanRouter {
            shards: 2,
            domain: 200,
        };
        // Slot 0: range split over both shards; slot 1: inverted range.
        let batch = QueryBatch::new().range(50, 150).range(9, 1);
        let plan = planned(&batch, &router);
        let shard0 = BatchOutcome {
            results: vec![LookupResult {
                first_row: 7,
                hit_count: 2,
                value_sum: 10,
            }],
            ..Default::default()
        };
        let shard1 = BatchOutcome {
            results: vec![LookupResult {
                first_row: 3,
                hit_count: 1,
                value_sum: 5,
            }],
            ..Default::default()
        };
        let merged = plan.gather(vec![shard0, shard1]);
        assert_eq!(merged.results.len(), 2);
        assert_eq!(merged.results[0].first_row, 3);
        assert_eq!(merged.results[0].hit_count, 3);
        assert_eq!(merged.results[0].value_sum, 15);
        assert_eq!(merged.results[1].first_row, MISS);
        assert!(!merged.results[1].is_hit());
    }

    #[test]
    #[should_panic(expected = "answered")]
    fn gather_rejects_miscounted_shard_outcomes() {
        let plan = planned(&QueryBatch::new().point(1), &ModRouter { shards: 1 });
        let _ = plan.gather(vec![BatchOutcome::default()]);
    }
}

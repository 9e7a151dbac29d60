//! Cross-client batch fusion: many small [`QueryBatch`]es in, one large
//! submission out, and the split that scatters the fused outcome back.
//!
//! The paper's index wins by amortising fixed per-launch costs over large
//! batches, but service traffic arrives as many *small* per-client
//! submissions. [`FusedBatch`] is the pure bookkeeping for coalescing them:
//! it concatenates client batches ([`QueryBatch::append`]: dense runs
//! extend, order tags merge) while remembering each client's slice (offset,
//! length, whether that client asked for a value fetch), and scatters the
//! fused [`QueryOutcome`] back per client.
//!
//! The scatter ([`split_shared`](FusedBatch::split_shared)) hands every
//! client a [`SharedOutcome`]: an `Arc` of the *whole* fused outcome plus
//! that client's [`FusedSlice`] view. Nothing is copied on the coalescer
//! thread; each client reads its slice in place or copies it out
//! ([`SharedOutcome::materialize`]) on its own thread.
//!
//! A service holds one `FusedBatch` for its whole lifetime and
//! [`clear`](FusedBatch::clear)s it between cycles — steady-state fusion
//! allocates nothing.
//!
//! Fusion and splitting are deliberately free of threads and channels — the
//! concurrent service in `rtx-serve` layers those on top — so the
//! round-trip invariant (`split_shared(execute(fused))`, materialized,
//! `== each client executed alone`) is testable in isolation and holds on
//! every backend.
//!
//! Value-fetch semantics: the fused batch requests a value fetch when *any*
//! fused client did, and the scatter zeroes `value_sum` for the slices that
//! did not ask — exactly what those clients would have received submitting
//! alone. A caller fusing value-fetching batches must therefore ensure the
//! backend has a value column (the service checks this at admission).

use std::sync::Arc;

use crate::batch::QueryBatch;
use crate::types::{BatchOutcome, LookupResult, QueryOutcome};

/// One client's slice of a [`FusedBatch`]: where its operations landed in
/// the fused submission and what it asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusedSlice {
    /// Offset of the client's first operation in the fused batch.
    pub offset: usize,
    /// Number of operations the client submitted (may be 0).
    pub len: usize,
    /// Whether this client requested a value fetch.
    pub fetch_values: bool,
}

/// Accumulates client [`QueryBatch`]es into one fused submission and splits
/// the fused outcome back per client.
///
/// ```
/// use rtx_query::{FusedBatch, QueryBatch};
///
/// let mut fusion = FusedBatch::new();
/// let a = fusion.push(&QueryBatch::new().point(7).range(0, 9));
/// let b = fusion.push(&QueryBatch::of_points(&[1, 2, 3]).fetch_values(true));
/// assert_eq!((a, b), (0, 1));
/// assert_eq!(fusion.op_count(), 5);
/// assert!(fusion.ops().fetches_values(), "any client fetching => fused fetch");
/// ```
#[derive(Debug, Clone, Default)]
pub struct FusedBatch {
    ops: QueryBatch,
    slices: Vec<FusedSlice>,
}

impl FusedBatch {
    /// An empty fusion.
    pub fn new() -> Self {
        FusedBatch::default()
    }

    /// Appends one client batch and returns its slice index (the position
    /// its outcome will occupy in [`split_shared`](FusedBatch::split_shared)
    /// results).
    pub fn push(&mut self, client: &QueryBatch) -> usize {
        let offset = self.ops.len();
        self.ops.append(client);
        if client.fetches_values() {
            self.ops.set_fetch_values(true);
        }
        self.slices.push(FusedSlice {
            offset,
            len: client.len(),
            fetch_values: client.fetches_values(),
        });
        self.slices.len() - 1
    }

    /// Empties the fusion for the next coalescing cycle, keeping every
    /// buffer's capacity (and resetting the fused value-fetch flag).
    pub fn clear(&mut self) {
        self.ops.clear();
        self.ops.set_fetch_values(false);
        self.slices.clear();
    }

    /// Total operations across all fused clients.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// True when no client batch has been fused yet (an all-empty fusion of
    /// zero-operation batches still counts as pushed clients).
    pub fn is_empty(&self) -> bool {
        self.slices.is_empty()
    }

    /// The per-client slices, in push order.
    pub fn slices(&self) -> &[FusedSlice] {
        &self.slices
    }

    /// The fused submission: every client's operations concatenated in
    /// push order, fetching values when any client asked. Execute it via
    /// [`SecondaryIndex::execute_in`](crate::SecondaryIndex::execute_in).
    pub fn ops(&self) -> &QueryBatch {
        &self.ops
    }

    /// Splits the fused outcome into zero-copy [`SharedOutcome`] views, one
    /// per client in push order. The outcome is moved behind a single `Arc`;
    /// each view pairs it with that client's [`FusedSlice`]. Nothing is
    /// cloned here — result copies (if a client wants an owned
    /// [`BatchOutcome`]) happen in [`SharedOutcome::materialize`], on the
    /// client's own thread. Every view carries the launch metrics of the
    /// *whole* fused execution — the work was shared, so clients observe
    /// the launches that answered them.
    ///
    /// # Panics
    ///
    /// Panics when `outcome` does not hold one result per fused operation
    /// (an executor bug, not a caller mistake).
    pub fn split_shared(&self, outcome: QueryOutcome) -> Vec<SharedOutcome> {
        assert_eq!(
            outcome.results.len(),
            self.ops.len(),
            "fused outcome holds {} results for {} fused operations",
            outcome.results.len(),
            self.ops.len()
        );
        let outcome = Arc::new(outcome);
        self.slices
            .iter()
            .map(|slice| SharedOutcome {
                outcome: Arc::clone(&outcome),
                slice: *slice,
            })
            .collect()
    }
}

/// One client's zero-copy view of a fused execution: the whole fused
/// [`QueryOutcome`] behind a shared `Arc` plus the client's [`FusedSlice`].
///
/// The coalescer hands one of these per client over the reply channel —
/// cloning an `Arc` and a 3-word slice descriptor instead of the client's
/// result `Vec`. Clients read through [`results`](SharedOutcome::results)
/// (zero-copy; `value_sum`s are only meaningful when the client fetched) or
/// convert to an owned [`BatchOutcome`] with
/// [`materialize`](SharedOutcome::materialize).
#[derive(Debug, Clone)]
pub struct SharedOutcome {
    outcome: Arc<QueryOutcome>,
    slice: FusedSlice,
}

impl SharedOutcome {
    /// Wraps a whole (unfused) outcome as one client's view — the
    /// uncoalesced fast path where a single client owns the execution.
    pub fn whole(outcome: QueryOutcome, fetch_values: bool) -> Self {
        let slice = FusedSlice {
            offset: 0,
            len: outcome.results.len(),
            fetch_values,
        };
        SharedOutcome {
            outcome: Arc::new(outcome),
            slice,
        }
    }

    /// The client's slice descriptor within the fused submission.
    pub fn slice(&self) -> FusedSlice {
        self.slice
    }

    /// The client's results, zero-copy. When the client did not request a
    /// value fetch the `value_sum` fields may carry sums computed for *other*
    /// fused clients — [`materialize`](SharedOutcome::materialize) strips
    /// them; callers reading this view directly should ignore `value_sum`
    /// unless [`slice().fetch_values`](SharedOutcome::slice) is set.
    pub fn results(&self) -> &[LookupResult] {
        &self.outcome.results[self.slice.offset..self.slice.offset + self.slice.len]
    }

    /// Launch metrics of the whole fused execution that answered this
    /// client.
    pub fn metrics(&self) -> &optix_sim::LaunchMetrics {
        &self.outcome.metrics
    }

    /// Copies this client's slice into an owned [`BatchOutcome`], zeroing
    /// `value_sum` when the client did not request a value fetch — what the
    /// client would have received submitting alone.
    pub fn materialize(&self) -> BatchOutcome {
        let mut results = self.results().to_vec();
        if !self.slice.fetch_values {
            for r in &mut results {
                r.value_sum = 0;
            }
        }
        BatchOutcome {
            results,
            metrics: self.outcome.metrics.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::QueryOp;
    use crate::types::{LookupResult, MISS};

    fn result(first_row: u32, hit_count: u32, value_sum: u64) -> LookupResult {
        LookupResult {
            first_row,
            hit_count,
            value_sum,
        }
    }

    #[test]
    fn fusion_concatenates_in_push_order() {
        let mut fusion = FusedBatch::new();
        assert!(fusion.is_empty());
        let a = fusion.push(&QueryBatch::new().point(1).range(5, 9));
        let b = fusion.push(&QueryBatch::new());
        let c = fusion.push(&QueryBatch::of_points(&[7]));
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(fusion.slices.len(), 3);
        assert_eq!(fusion.op_count(), 3);
        assert!(!fusion.is_empty());
        assert_eq!(
            fusion.ops().iter().collect::<Vec<_>>(),
            &[QueryOp::Point(1), QueryOp::Range(5, 9), QueryOp::Point(7)]
        );
        assert_eq!(
            fusion.slices(),
            &[
                FusedSlice {
                    offset: 0,
                    len: 2,
                    fetch_values: false
                },
                FusedSlice {
                    offset: 2,
                    len: 0,
                    fetch_values: false
                },
                FusedSlice {
                    offset: 2,
                    len: 1,
                    fetch_values: false
                },
            ]
        );
        assert!(!fusion.ops().fetches_values());
    }

    #[test]
    fn any_fetching_client_makes_the_fusion_fetch() {
        let mut fusion = FusedBatch::new();
        fusion.push(&QueryBatch::new().point(1));
        assert!(!fusion.ops().fetches_values());
        fusion.push(&QueryBatch::new().point(2).fetch_values(true));
        fusion.push(&QueryBatch::new().point(3));
        assert!(fusion.ops().fetches_values());
        // The operations survived the flag change.
        assert_eq!(fusion.op_count(), 3);
    }

    #[test]
    fn split_shared_scatters_results_and_strips_unrequested_value_sums() {
        let mut fusion = FusedBatch::new();
        fusion.push(&QueryBatch::new().point(1).point(2)); // no fetch
        fusion.push(&QueryBatch::new()); // empty client
        fusion.push(&QueryBatch::new().range(0, 9).fetch_values(true));
        let outcome = QueryOutcome {
            results: vec![result(0, 1, 10), result(MISS, 0, 0), result(2, 4, 99)],
            metrics: optix_sim::LaunchMetrics {
                simulated_time_s: 2.0,
                ..Default::default()
            },
        };
        let shared = fusion.split_shared(outcome);
        assert_eq!(shared.len(), 3);
        let per_client: Vec<BatchOutcome> = shared.iter().map(|v| v.materialize()).collect();
        // Client 0 did not fetch: sums stripped, rows/counts intact.
        assert_eq!(per_client[0].results[0], result(0, 1, 0));
        assert_eq!(per_client[0].results[1], result(MISS, 0, 0));
        // Client 1 submitted nothing and gets nothing.
        assert!(per_client[1].results.is_empty());
        // Client 2 fetched: its sum survives.
        assert_eq!(per_client[2].results[0], result(2, 4, 99));
        // Every client sees the shared fused launch metrics.
        for (view, out) in shared.iter().zip(&per_client) {
            assert_eq!(out.metrics.simulated_time_s, 2.0);
            assert_eq!(view.metrics().simulated_time_s, 2.0);
            assert_eq!(view.results().len(), out.results.len());
        }
        // The zero-copy view of the non-fetching client still exposes the
        // raw fused sum; only materialize strips it.
        assert_eq!(shared[0].results()[0].value_sum, 10);
        // One Arc shared across all three views.
        assert_eq!(Arc::strong_count(&shared[0].outcome), 3);
    }

    #[test]
    fn whole_outcome_wraps_without_fusion() {
        let outcome = QueryOutcome {
            results: vec![result(3, 1, 7)],
            ..Default::default()
        };
        let view = SharedOutcome::whole(outcome, false);
        assert_eq!(view.slice().len, 1);
        assert_eq!(view.results()[0].first_row, 3);
        assert_eq!(view.materialize().results[0].value_sum, 0, "no fetch");
    }

    #[test]
    fn clear_resets_for_the_next_cycle_keeping_capacity() {
        let mut fusion = FusedBatch::new();
        fusion.push(&QueryBatch::of_points(&[1, 2, 3]).fetch_values(true));
        assert!(fusion.ops().fetches_values());
        fusion.clear();
        assert!(fusion.is_empty());
        assert_eq!(fusion.op_count(), 0);
        assert!(!fusion.ops().fetches_values(), "fetch flag resets");
        assert_eq!(fusion.ops().chunk_size(), None);
        // Refuse works after clear.
        fusion.push(&QueryBatch::new().range(4, 5));
        assert_eq!(fusion.op_count(), 1);
        assert_eq!(fusion.slices()[0].offset, 0);
    }

    #[test]
    #[should_panic(expected = "fused outcome holds")]
    fn split_rejects_miscounted_outcomes() {
        let mut fusion = FusedBatch::new();
        fusion.push(&QueryBatch::new().point(1));
        let _ = fusion.split_shared(QueryOutcome::default());
    }
}

//! Service tuning knobs.

/// When the coalescer rebalances a sharded backend's hot shards (see
/// [`ServiceConfig::with_rebalance`]). Both thresholds must hold — enough
/// observed traffic for the per-shard counters to mean something, *and* a
/// sustained imbalance worth paying a migration for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebalanceConfig {
    /// Operations the shard counters must have accumulated since the last
    /// rebalance before another is considered (a rebalance resets them, so
    /// this doubles as the minimum spacing between passes).
    pub min_ops: u64,
    /// Trigger threshold on the load-imbalance ratio (hottest shard over
    /// mean), in permille: `1500` fires once one shard carries 1.5x its
    /// fair share.
    pub max_imbalance_permille: u64,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            min_ops: 1 << 14,
            max_imbalance_permille: 1500,
        }
    }
}

impl RebalanceConfig {
    /// The default thresholds.
    pub fn new() -> Self {
        RebalanceConfig::default()
    }

    /// Sets the minimum observed ops between rebalance passes (clamped to
    /// at least 1).
    pub fn with_min_ops(mut self, ops: u64) -> Self {
        self.min_ops = ops.max(1);
        self
    }

    /// Sets the imbalance trigger in permille (clamped to at least 1000 —
    /// a ratio below 1.0x never occurs).
    pub fn with_max_imbalance_permille(mut self, permille: u64) -> Self {
        self.max_imbalance_permille = permille.max(1000);
        self
    }
}

/// Configuration of a [`QueryService`](crate::QueryService) or a
/// [`TableService`](crate::TableService) — both run the same worker loop,
/// so every field means the same thing on both, counted in their own
/// units: a query service counts read operations and write rows, a table
/// service query predicates and ingest operations.
///
/// Two policies interact the way they do in any batching front-end:
///
/// * **admission** ([`max_queue_depth`](ServiceConfig::max_queue_depth))
///   bounds the operations waiting in the submission queue — beyond it,
///   submissions fail with
///   [`ServeError::Overloaded`](crate::ServeError::Overloaded) instead of
///   growing the queue without bound (backpressure);
/// * **coalescing** ([`max_coalesce_ops`](ServiceConfig::max_coalesce_ops))
///   caps how many queued operations one drain takes as a run of reads:
///   the query service fuses the run into one backend submission, so one
///   giant fused batch cannot monopolise the executor or its result
///   buffers; the table service runs the queries of a run one by one.
///   The coalescer is self-clocked: a drain executes whatever it finds at
///   once, and every batch that arrives while that execution runs fuses
///   into the next drain, so fusion grows with load without a timer and a
///   lone request never waits for company.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Admission limit: maximum operations (reads) / rows (writes) queued
    /// at once. A submission that would exceed it is rejected. Every
    /// request costs at least 1, so empty batches cannot flood the queue.
    pub max_queue_depth: usize,
    /// Maximum operations one drain takes as a run of reads: fused into
    /// one backend submission by a query service; for a table service, the
    /// predicates of the queries it runs before looking at the queue again.
    pub max_coalesce_ops: usize,
    /// When set (and the backend is an updatable sharded index), the
    /// coalescer watches the per-shard load counters between drained units
    /// and migrates rows off sustained hot shards through the write fence
    /// (see [`RebalanceConfig`]). A no-op for a table service.
    pub rebalance: Option<RebalanceConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_queue_depth: 1 << 20,
            max_coalesce_ops: 1 << 16,
            rebalance: None,
        }
    }
}

impl ServiceConfig {
    /// The default configuration.
    pub fn new() -> Self {
        ServiceConfig::default()
    }

    /// Sets the admission limit (clamped to at least 1).
    pub fn with_max_queue_depth(mut self, ops: usize) -> Self {
        self.max_queue_depth = ops.max(1);
        self
    }

    /// Enables hot-shard rebalancing with the given thresholds.
    pub fn with_rebalance(mut self, rebalance: RebalanceConfig) -> Self {
        self.rebalance = Some(rebalance);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_clamps_degenerate_limits() {
        let c = ServiceConfig::new().with_max_queue_depth(0);
        assert_eq!(c.max_queue_depth, 1);
        assert!(ServiceConfig::default().max_queue_depth > 0);
    }
}

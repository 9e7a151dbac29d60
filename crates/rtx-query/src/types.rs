//! The result and metadata types shared by every backend.
//!
//! These used to be defined separately in `rtindex-core` (for RX) and
//! `gpu-baselines` (for HT/B+/SA); they now live here once and are
//! re-exported from those crates for backwards compatibility.

use gpu_device::KernelStats;
use optix_sim::LaunchMetrics;

/// Reserved rowID written into the result array when a lookup misses.
pub const MISS: u32 = u32::MAX;

/// Result of a single lookup within a batch (the result-array semantics of
/// the paper's methodology).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LookupResult {
    /// RowID of the first (smallest) qualifying entry, or [`MISS`].
    pub first_row: u32,
    /// Number of qualifying entries (0 on a miss; > 1 for duplicate keys or
    /// range lookups).
    pub hit_count: u32,
    /// Sum of the values fetched for all qualifying rowIDs (0 when no value
    /// fetch was requested or on a miss).
    pub value_sum: u64,
}

impl LookupResult {
    /// A miss result.
    pub fn miss() -> Self {
        LookupResult {
            first_row: MISS,
            hit_count: 0,
            value_sum: 0,
        }
    }

    /// True when the lookup found at least one qualifying entry.
    pub fn is_hit(&self) -> bool {
        self.hit_count > 0
    }

    /// Merges another partial answer for the *same* logical lookup into this
    /// one: hit counts and value sums add, the first row is the minimum
    /// (which is also why [`MISS`] is `u32::MAX`). This is how the sharded
    /// execution layer combines per-shard answers to a split or broadcast
    /// operation, and how a miss merged with anything stays faithful.
    pub fn merge(&mut self, other: &LookupResult) {
        self.first_row = self.first_row.min(other.first_row);
        self.hit_count += other.hit_count;
        self.value_sum = self.value_sum.wrapping_add(other.value_sum);
    }
}

/// Result of one homogeneous lookup batch (all points or all ranges): the
/// per-lookup results plus the launch metrics of the execution.
#[derive(Debug, Clone, Default)]
pub struct BatchOutcome {
    /// One result per submitted lookup, in submission order.
    pub results: Vec<LookupResult>,
    /// Launch metrics (counters, simulated time, host time).
    pub metrics: LaunchMetrics,
}

impl BatchOutcome {
    /// Number of lookups that found at least one qualifying entry.
    pub fn hit_count(&self) -> usize {
        self.results.iter().filter(|r| r.is_hit()).count()
    }

    /// Sum of all per-lookup value sums (the aggregate the paper's
    /// methodology computes).
    pub fn total_value_sum(&self) -> u64 {
        self.results
            .iter()
            .map(|r| r.value_sum)
            .fold(0u64, u64::wrapping_add)
    }

    /// Simulated device time in milliseconds.
    pub fn sim_ms(&self) -> f64 {
        self.metrics.simulated_time_s * 1e3
    }

    /// Host wall-clock milliseconds of the software execution.
    pub fn host_ms(&self) -> f64 {
        self.metrics.host_time.as_secs_f64() * 1e3
    }

    /// Merged kernel counters of the execution.
    pub fn kernel(&self) -> &KernelStats {
        &self.metrics.kernel
    }
}

/// Result of executing a (possibly mixed) [`QueryBatch`]: one result per
/// submitted operation, in submission order, plus the metrics merged over
/// every launch the execution needed. Structurally identical to a
/// homogeneous [`BatchOutcome`], so it *is* one.
///
/// [`QueryBatch`]: crate::batch::QueryBatch
pub type QueryOutcome = BatchOutcome;

/// Metrics of an index build, uniform across backends.
#[derive(Debug, Clone, Copy, Default)]
pub struct IndexBuildMetrics {
    /// Simulated device build time in seconds.
    pub simulated_time_s: f64,
    /// Host wall-clock build time.
    pub host_time: std::time::Duration,
    /// Temporary device memory used during the build (released afterwards).
    pub scratch_bytes: u64,
}

impl IndexBuildMetrics {
    /// Simulated build time in milliseconds.
    pub fn sim_ms(&self) -> f64 {
        self.simulated_time_s * 1e3
    }
}

/// What a backend can do. Queried before dispatching operations so that
/// unsupported submissions fail uniformly instead of per-backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capabilities {
    /// Whether the backend answers range lookups (the hash table does not).
    pub range_lookups: bool,
    /// Whether the backend supports duplicate keys (the B+-tree does not).
    pub duplicate_keys: bool,
    /// Whether the backend supports the full 64-bit key domain (the
    /// B+-tree only supports 32-bit keys).
    pub full_64bit_keys: bool,
    /// Whether the backend supports batched inserts/deletes/upserts (i.e.
    /// also implements [`UpdatableIndex`](crate::index::UpdatableIndex)).
    pub updates: bool,
}

impl Capabilities {
    /// Capabilities of a fully general read-only backend.
    pub fn read_only() -> Self {
        Capabilities {
            range_lookups: true,
            duplicate_keys: true,
            full_64bit_keys: true,
            updates: false,
        }
    }
}

/// A structural breakdown of the device/host memory an index occupies,
/// refining the single [`SecondaryIndex::memory_bytes`] number into the
/// components an operator actually watches: the compacted base, the
/// mutable delta, the tombstone bookkeeping, and (for durable wrappers)
/// the WAL write buffer.
///
/// Backends without a given component report 0 for it; components sum
/// across shards with [`MemoryUsage::add`].
///
/// [`SecondaryIndex::memory_bytes`]: crate::index::SecondaryIndex::memory_bytes
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryUsage {
    /// Bytes of the immutable/compacted base structure (BVH + columns,
    /// hash table, tree nodes, sorted array...).
    pub base_bytes: u64,
    /// Bytes of the mutable delta structures absorbing updates.
    pub delta_bytes: u64,
    /// Bytes of tombstone / liveness bookkeeping (bitmaps, mirrors).
    pub tombstone_bytes: u64,
    /// Bytes buffered by a durability layer ahead of the next fsync.
    pub wal_buffer_bytes: u64,
}

impl MemoryUsage {
    /// A usage report attributing everything to the base structure — the
    /// correct shape for a monolithic read-only index.
    pub fn base_only(bytes: u64) -> Self {
        MemoryUsage {
            base_bytes: bytes,
            ..Default::default()
        }
    }

    /// Total bytes across every component.
    pub fn total(&self) -> u64 {
        self.base_bytes + self.delta_bytes + self.tombstone_bytes + self.wal_buffer_bytes
    }

    /// Component-wise accumulation (used to sum shards).
    pub fn add(&mut self, other: &MemoryUsage) {
        self.base_bytes += other.base_bytes;
        self.delta_bytes += other.delta_bytes;
        self.tombstone_bytes += other.tombstone_bytes;
        self.wal_buffer_bytes += other.wal_buffer_bytes;
    }
}

/// Cumulative durability counters of a WAL-backed index, surfaced through
/// [`SecondaryIndex::durability_stats`] and the service stats.
///
/// [`SecondaryIndex::durability_stats`]: crate::index::SecondaryIndex::durability_stats
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurableStats {
    /// Live WAL bytes on disk (records not yet truncated by a snapshot).
    pub wal_bytes: u64,
    /// fsync calls issued since open.
    pub fsyncs: u64,
    /// Snapshots written since open.
    pub snapshots: u64,
    /// Batch sequence number covered by the latest snapshot (0 before any).
    pub last_snapshot_bsn: u64,
    /// Bytes of the latest snapshot file (0 before any).
    pub last_snapshot_bytes: u64,
    /// Update batches replayed from the WAL by the most recent `open`: one
    /// per logged batch, however many shards it touched.
    pub replayed_batches: u64,
}

/// Result of one batched update or lifecycle call through
/// [`UpdatableIndex`](crate::index::UpdatableIndex).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UpdateReport {
    /// Rows inserted by the batch.
    pub inserted_rows: usize,
    /// Rows deleted by the batch.
    pub deleted_rows: usize,
    /// Simulated device seconds spent applying the batch (including a
    /// triggered compaction/rebuild, when the backend has one).
    pub simulated_time_s: f64,
    /// Structural reorganisations (e.g. compactions) the batch triggered.
    pub reorganisations: u64,
    /// How the call renumbered the backend's rowIDs, when it did:
    /// `renumbered[new] = old` ([`MISS`] for a slot no row occupies),
    /// order-preserving, its length the backend's new allocator position.
    /// Rows the batch itself inserted count as having taken the next old
    /// rowIDs in batch order, so a consumer always appends the batch's
    /// rows first and remaps second ([`RowMirror::apply`]). `None` means
    /// every surviving row kept its rowID. The sharded backend sets it only
    /// on an explicit `compact`; its batches, swaps and rebalances keep
    /// every global rowID.
    ///
    /// [`RowMirror::apply`]: crate::mirror::RowMirror::apply
    pub renumbered: Option<Vec<u32>>,
}

/// Composes two renumberings under the [`UpdateReport::renumbered`] rule:
/// `first` ran, then `later` (which inserted no rows of its own) renumbered
/// what `first` left behind.
pub fn compose_renumbering(first: Option<Vec<u32>>, later: Option<Vec<u32>>) -> Option<Vec<u32>> {
    match (first, later) {
        (Some(first), Some(later)) => Some(
            later
                .into_iter()
                .map(|mid| {
                    if mid == MISS {
                        MISS
                    } else {
                        first[mid as usize]
                    }
                })
                .collect(),
        ),
        (first, later) => later.or(first),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_constructor_and_predicates() {
        let m = LookupResult::miss();
        assert_eq!(m.first_row, MISS);
        assert!(!m.is_hit());
        let h = LookupResult {
            first_row: 3,
            hit_count: 2,
            value_sum: 10,
        };
        assert!(h.is_hit());
    }

    #[test]
    fn merge_combines_partial_answers() {
        let mut acc = LookupResult::miss();
        acc.merge(&LookupResult {
            first_row: 9,
            hit_count: 2,
            value_sum: 7,
        });
        assert_eq!(acc.first_row, 9);
        acc.merge(&LookupResult {
            first_row: 3,
            hit_count: 1,
            value_sum: 5,
        });
        assert_eq!(acc.first_row, 3);
        assert_eq!(acc.hit_count, 3);
        assert_eq!(acc.value_sum, 12);
        acc.merge(&LookupResult::miss());
        assert_eq!(acc.first_row, 3, "a miss changes nothing");
        assert_eq!(acc.hit_count, 3);
    }

    #[test]
    fn outcome_aggregations() {
        let outcome = QueryOutcome {
            results: vec![
                LookupResult {
                    first_row: 0,
                    hit_count: 1,
                    value_sum: 5,
                },
                LookupResult::miss(),
                LookupResult {
                    first_row: 2,
                    hit_count: 3,
                    value_sum: 7,
                },
            ],
            ..Default::default()
        };
        assert_eq!(outcome.hit_count(), 2);
        assert_eq!(outcome.total_value_sum(), 12);
        assert_eq!(outcome.sim_ms(), 0.0);
    }

    #[test]
    fn memory_usage_totals_and_sums() {
        let mut a = MemoryUsage::base_only(100);
        assert_eq!(a.total(), 100);
        a.add(&MemoryUsage {
            base_bytes: 10,
            delta_bytes: 20,
            tombstone_bytes: 30,
            wal_buffer_bytes: 40,
        });
        assert_eq!(a.base_bytes, 110);
        assert_eq!(a.total(), 200);
    }

    #[test]
    fn build_metrics_convert_to_ms() {
        let m = IndexBuildMetrics {
            simulated_time_s: 0.25,
            ..Default::default()
        };
        assert!((m.sim_ms() - 250.0).abs() < 1e-9);
    }
}

//! The [`SecondaryIndex`] and [`UpdatableIndex`] traits.
//!
//! Every backend (RX and the three GPU baselines, plus the dynamic delta
//! index) implements [`SecondaryIndex`]; the experiment harness, the
//! examples and the acceptance tests drive them exclusively through
//! `Box<dyn SecondaryIndex>` trait objects obtained from the
//! [`Registry`](crate::registry::Registry).

use optix_sim::LaunchMetrics;

use crate::arena::ExecArena;
use crate::batch::QueryBatch;
use crate::error::IndexError;
use crate::keys::{KeySchema, KeyTuple, TypedBatch};
use crate::shard::{RebalanceReport, ShardLoad};
use crate::types::{
    BatchOutcome, Capabilities, DurableStats, IndexBuildMetrics, MemoryUsage, QueryOutcome,
    UpdateReport,
};

/// A read-only secondary index over a `(key, optional value)` column pair.
///
/// Implementors provide the two homogeneous execution hooks
/// ([`point_chunk`](SecondaryIndex::point_chunk) /
/// [`range_chunk`](SecondaryIndex::range_chunk)); mixed-batch execution
/// ([`execute_in`](SecondaryIndex::execute_in), and
/// [`execute`](SecondaryIndex::execute) /
/// [`execute_typed`](SecondaryIndex::execute_typed) on top of it) is
/// provided, so splitting, chunking and result scattering behave
/// identically across backends.
pub trait SecondaryIndex: Send + Sync {
    /// Short display name ("RX", "HT", "B+", "SA", "RXD", or a sharded
    /// spec such as "RX@8") used in report tables and error messages.
    fn name(&self) -> &str;

    /// Number of indexed keys.
    fn key_count(&self) -> usize;

    /// Device memory the index occupies after construction.
    fn memory_bytes(&self) -> u64;

    /// Metrics captured while building.
    fn build_metrics(&self) -> IndexBuildMetrics;

    /// What the backend supports.
    fn capabilities(&self) -> Capabilities;

    /// Whether the index was built with a value column (required for
    /// batches submitted with [`QueryBatch::fetch_values`]).
    fn has_value_column(&self) -> bool;

    /// Structural memory breakdown (base / delta / tombstones / WAL
    /// buffer). The default attributes [`memory_bytes`] wholesale to the
    /// base, which is correct for monolithic read-only backends; layered
    /// backends override this with a real split.
    ///
    /// [`memory_bytes`]: SecondaryIndex::memory_bytes
    fn memory_usage(&self) -> MemoryUsage {
        MemoryUsage::base_only(self.memory_bytes())
    }

    /// Durability counters, or `None` for a memory-only index. Overridden
    /// by WAL-backed wrappers.
    fn durability_stats(&self) -> Option<DurableStats> {
        None
    }

    /// Per-shard load snapshot (op and row counters), or `None` for an
    /// unsharded backend. Overridden by the sharded wrapper; the service
    /// layer polls this to surface a load-imbalance ratio and drive
    /// hot-shard rebalancing.
    fn shard_load(&self) -> Option<ShardLoad> {
        None
    }

    /// The typed key schema of this index, or `None` for a raw-`u64` index
    /// (whose implicit schema is `{u64}`). Overridden by the composite
    /// wrapper; plain backends never carry one.
    fn key_schema(&self) -> Option<&KeySchema> {
        None
    }

    /// Executes a typed batch: point, range and prefix-range operations
    /// over the index's [`KeySchema`], compiled into encoded `u64`
    /// operations before any backend hook runs.
    ///
    /// The default compiles against [`key_schema`](SecondaryIndex::key_schema)
    /// (falling back to the implicit `{u64}` schema), which covers every
    /// single-limb direct-codec schema on every backend; wide multi-limb
    /// schemas need the dictionary state held by the composite wrapper,
    /// which overrides this, so reaching the default with one is an error
    /// telling the caller to build through the registry.
    fn execute_typed(&self, batch: &TypedBatch) -> Result<QueryOutcome, IndexError> {
        let compiled = match self.key_schema() {
            Some(schema) => schema.compile(batch)?,
            None => KeySchema::raw_u64().compile(batch)?,
        };
        self.execute(&compiled)
    }

    /// Executes one homogeneous chunk of point lookups.
    ///
    /// Execution hook called by [`execute`](SecondaryIndex::execute);
    /// `fetch_values` is only ever true when
    /// [`has_value_column`](SecondaryIndex::has_value_column) is. Callers
    /// should prefer [`execute`](SecondaryIndex::execute).
    fn point_chunk(&self, queries: &[u64], fetch_values: bool) -> Result<BatchOutcome, IndexError>;

    /// Executes one homogeneous chunk of inclusive range lookups.
    ///
    /// Execution hook called by [`execute`](SecondaryIndex::execute); only
    /// invoked when [`Capabilities::range_lookups`] is set.
    fn range_chunk(
        &self,
        ranges: &[(u64, u64)],
        fetch_values: bool,
    ) -> Result<BatchOutcome, IndexError>;

    /// Executes a mixed batch: point and range lookups in one submission,
    /// with an optional value fetch.
    ///
    /// A provided convenience, never overridden:
    /// [`execute_in`](SecondaryIndex::execute_in) with a fresh throwaway
    /// [`ExecArena`]. Callers on a hot path hold an arena and call
    /// `execute_in` directly to skip the per-submission scratch allocations.
    fn execute(&self, batch: &QueryBatch) -> Result<QueryOutcome, IndexError> {
        self.execute_in(batch, &mut ExecArena::new())
    }

    /// Executes a mixed batch using caller-provided scratch — the one
    /// execution method a wrapper forwards (or, for a sharded backend,
    /// replaces with its scatter/gather).
    ///
    /// The default borrows the batch's dense point run as it is, derives
    /// the submission slots of both runs (and the range run without its
    /// inverted ranges) inside `arena` (cleared and refilled — reuse is
    /// always safe), splits each run into chunks of at most
    /// [`QueryBatch::chunk_size`] operations, executes the chunks through
    /// the backend hooks — **concurrently** over the [`gpu_device`] worker
    /// pool when a run splits into ≥ 2 chunks — then merges their metrics
    /// and scatters the per-chunk results back into submission order.
    /// Scatter is by submission slot, so concurrent chunk execution cannot
    /// reorder results; chunk metrics are merged in chunk order so the
    /// outcome is bit-identical to sequential execution.
    fn execute_in(
        &self,
        batch: &QueryBatch,
        arena: &mut ExecArena,
    ) -> Result<QueryOutcome, IndexError> {
        let fetch = batch.fetches_values();
        if fetch && !self.has_value_column() {
            return Err(IndexError::NoValueColumn {
                backend: self.name().into(),
            });
        }
        if batch.range_count() > 0 && !self.capabilities().range_lookups {
            return Err(IndexError::UnsupportedOperation {
                backend: self.name().into(),
                operation: "range lookups",
            });
        }

        arena.clear();
        let mut bounds = batch.range_bounds().iter();
        for slot in 0..batch.len() {
            if batch.is_range(slot) {
                let &(lower, upper) = bounds.next().expect("order tags out of sync");
                // An inverted range (`lower > upper`) is empty by
                // definition; its slot stays the pre-filled miss on every
                // backend instead of reaching backend-dependent handling.
                if lower <= upper {
                    arena.range_slots.push(slot);
                    arena.range_bounds.push((lower, upper));
                }
            } else {
                arena.point_slots.push(slot);
            }
        }

        let chunk = batch.chunk_size().unwrap_or(usize::MAX);
        let mut outcome = QueryOutcome {
            // Pre-fill with misses so a (buggy) backend that under-reports
            // can never leave a slot looking like a hit of rowID 0 — and
            // under-reporting is caught below regardless.
            results: vec![crate::types::LookupResult::miss(); batch.len()],
            metrics: LaunchMetrics::default(),
        };
        let points = batch.point_keys();
        scatter_chunks(
            self.name(),
            &arena.point_slots,
            &mut outcome,
            chunk,
            |lo, hi| self.point_chunk(&points[lo..hi], fetch),
        )?;
        scatter_chunks(
            self.name(),
            &arena.range_slots,
            &mut outcome,
            chunk,
            |lo, hi| self.range_chunk(&arena.range_bounds[lo..hi], fetch),
        )?;
        Ok(outcome)
    }
}

/// Runs one homogeneous operation run in chunks of at most `chunk`
/// operations, scattering every chunk's results into the submission-order
/// `slots` of `outcome` and merging the launch metrics.
///
/// A run that splits into ≥ 2 chunks executes them concurrently on the
/// shared [`gpu_device`] worker pool; because each chunk's results land in
/// its own submission slots and metrics are merged in chunk order after all
/// chunks return, the outcome is identical to sequential execution. Errors
/// are reported in chunk order so failure behaviour is deterministic too.
///
/// A backend whose chunk hook returns the wrong number of results is an
/// error, not silent data loss — `SecondaryIndex` is a public trait, so
/// this contract is enforced in release builds too.
fn scatter_chunks<F>(
    backend: &str,
    slots: &[usize],
    outcome: &mut QueryOutcome,
    chunk: usize,
    run: F,
) -> Result<(), IndexError>
where
    F: Fn(usize, usize) -> Result<BatchOutcome, IndexError> + Sync,
{
    if slots.is_empty() {
        return Ok(());
    }
    let chunks = slots.len().div_ceil(chunk.max(1));
    let parts: Vec<Result<BatchOutcome, IndexError>> = if chunks >= 2 {
        gpu_device::parallel_tasks(chunks, |c| {
            let lo = c * chunk;
            let hi = slots.len().min(lo + chunk);
            run(lo, hi)
        })
    } else {
        vec![run(0, slots.len())]
    };

    // Sequential scatter + metric merge in chunk order keeps the outcome
    // (and any error) deterministic regardless of execution interleaving.
    let mut lo = 0usize;
    for part in parts {
        let hi = slots.len().min(lo.saturating_add(chunk));
        let part = part?;
        if part.results.len() != hi - lo {
            return Err(IndexError::Backend {
                backend: backend.into(),
                message: format!(
                    "chunk returned {} results for {} operations",
                    part.results.len(),
                    hi - lo
                ),
            });
        }
        for (slot, result) in slots[lo..hi].iter().zip(part.results) {
            outcome.results[*slot] = result;
        }
        outcome.metrics.merge(&part.metrics);
        lo = hi;
    }
    Ok(())
}

/// A secondary index that additionally supports batched writes.
///
/// Mirrors the update model of the delta layer: inserts append fresh rows,
/// deletes remove every live row holding a key, upserts do both. Each batch
/// may trigger a structural reorganisation (compaction), reported in the
/// returned [`UpdateReport`].
pub trait UpdatableIndex: SecondaryIndex {
    /// Inserts a batch of `(key, value)` rows.
    fn insert(&mut self, keys: &[u64], values: &[u64]) -> Result<UpdateReport, IndexError>;

    /// Deletes every live entry whose key appears in `keys` (all
    /// duplicates, wherever they live). Unknown keys are ignored.
    fn delete(&mut self, keys: &[u64]) -> Result<UpdateReport, IndexError>;

    /// Upserts a batch: every key's existing entries are deleted, then one
    /// fresh `(key, value)` row is inserted per pair.
    fn upsert(&mut self, keys: &[u64], values: &[u64]) -> Result<UpdateReport, IndexError>;

    /// Inserts a batch of typed `(tuple, value)` rows, encoding each tuple
    /// against the index's schema first. The default covers direct-codec
    /// schemas (including the implicit `{u64}`); the composite wrapper
    /// overrides it to allocate dictionary slots for wide schemas.
    fn insert_rows(
        &mut self,
        rows: &[KeyTuple],
        values: &[u64],
    ) -> Result<UpdateReport, IndexError> {
        let keys = typed_write_schema(self).encode_rows(rows)?;
        self.insert(&keys, values)
    }

    /// Deletes every live entry matching one of the typed tuples. Unknown
    /// tuples are ignored, mirroring [`delete`](UpdatableIndex::delete).
    fn delete_rows(&mut self, rows: &[KeyTuple]) -> Result<UpdateReport, IndexError> {
        let keys = typed_write_schema(self).encode_rows(rows)?;
        self.delete(&keys)
    }

    /// Upserts a batch of typed `(tuple, value)` rows (see
    /// [`upsert`](UpdatableIndex::upsert)).
    fn upsert_rows(
        &mut self,
        rows: &[KeyTuple],
        values: &[u64],
    ) -> Result<UpdateReport, IndexError> {
        let keys = typed_write_schema(self).encode_rows(rows)?;
        self.upsert(&keys, values)
    }

    /// Lands any *completed* deferred reorganisation (e.g. a background
    /// compaction whose swap is ready) without blocking. The report counts
    /// what landed in `reorganisations` and carries the renumbering like
    /// any batch report. The default — for backends without deferred
    /// reorganisation — lands nothing.
    ///
    /// Durable wrappers call this around each update batch so the swap
    /// point becomes an explicit WAL record and replay can reproduce the
    /// exact structural state.
    fn poll_reorganisation(&mut self) -> Result<UpdateReport, IndexError> {
        Ok(UpdateReport::default())
    }

    /// Waits for any in-flight deferred reorganisation to complete and
    /// lands it, reporting like
    /// [`poll_reorganisation`](UpdatableIndex::poll_reorganisation).
    /// Default: nothing to wait for.
    fn await_reorganisation(&mut self) -> Result<UpdateReport, IndexError> {
        Ok(UpdateReport::default())
    }

    /// True while a deferred reorganisation (background compaction rebuild)
    /// is in flight but has not landed. Durable wrappers compare this
    /// before and after a batch to detect the *freeze* point and annotate
    /// their log. Default: never.
    fn reorganisation_in_flight(&self) -> bool {
        false
    }

    /// Forces a full synchronous reorganisation (merge delta + drop
    /// tombstones), making the structural state canonical. Backends without
    /// an explicit compaction report `UnsupportedOperation`.
    fn compact(&mut self) -> Result<UpdateReport, IndexError> {
        Err(IndexError::UnsupportedOperation {
            backend: self.name().to_string().into(),
            operation: "explicit compaction",
        })
    }

    /// The live `(key, value)` rows in rowID order — but only when the
    /// index is in a *clean* state: empty delta, no tombstones, rowIDs
    /// dense `0..n`, so that a fresh build over exactly these columns
    /// reproduces the index (the snapshot contract). Returns `None` in any
    /// dirty state; callers compact first. Valueless indexes report 0
    /// values. The default (`None`) marks a backend as non-snapshottable.
    fn checkpoint_rows(&self) -> Option<Vec<(u64, u64)>> {
        None
    }

    /// Asks a durable wrapper to snapshot now (compacting first if
    /// needed) and truncate its WAL, returning the number of snapshots
    /// written. A memory-only index has nothing to do. `rtx-serve` routes
    /// `ClientHandle::checkpoint` here through the write fence.
    ///
    /// The compaction renumbers rows exactly like
    /// [`compact`](UpdatableIndex::compact) but this call has no report to
    /// say how: a caller holding a [`RowMirror`](crate::RowMirror) over
    /// the index calls `compact()` first and applies that report, after
    /// which the checkpoint's own compaction moves nothing.
    fn checkpoint(&mut self) -> Result<u64, IndexError> {
        Ok(0)
    }

    /// Rebalances row placement across shards when the backend detects a
    /// sustained load imbalance (see
    /// [`shard_load`](SecondaryIndex::shard_load)), migrating rows from hot
    /// shards to cold ones while preserving every global rowID. The default
    /// — for unsharded backends — has nothing to move and reports an empty
    /// pass. `rtx-serve` calls this through the write fence, so reads never
    /// observe a half-migrated layout.
    fn rebalance_shards(&mut self) -> Result<RebalanceReport, IndexError> {
        Ok(RebalanceReport::default())
    }
}

/// An owned backend of either kind: what
/// [`Registry::build_backend`](crate::Registry::build_backend) resolves a
/// name to, and what a layer holds when the same code serves both kinds
/// (the service coalescer, a shard). Reads go through
/// [`read`](IndexBackend::read) whatever the variant; writes go through
/// [`write`](IndexBackend::write), which a read-only backend answers with
/// `None`.
pub enum IndexBackend {
    /// A backend that takes no writes.
    Read(Box<dyn SecondaryIndex>),
    /// A backend that takes writes.
    Write(Box<dyn UpdatableIndex>),
}

impl IndexBackend {
    /// The backend behind the read trait.
    pub fn read(&self) -> &dyn SecondaryIndex {
        match self {
            IndexBackend::Read(ix) => ix.as_ref(),
            IndexBackend::Write(ix) => ix.as_ref(),
        }
    }

    /// The backend behind the write trait, or `None` when it is read-only.
    pub fn write(&mut self) -> Option<&mut dyn UpdatableIndex> {
        match self {
            IndexBackend::Read(_) => None,
            IndexBackend::Write(ix) => Some(ix.as_mut()),
        }
    }
}

/// The schema the provided typed-write defaults encode against: the
/// index's own schema, or the implicit `{u64}` for legacy indexes.
fn typed_write_schema<I: UpdatableIndex + ?Sized>(index: &I) -> KeySchema {
    index
        .key_schema()
        .cloned()
        .unwrap_or_else(KeySchema::raw_u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{LookupResult, MISS};

    /// A trivial in-memory backend used to exercise the provided `execute`.
    struct VecIndex {
        keys: Vec<u64>,
        values: Option<Vec<u64>>,
        ranges: bool,
        /// Chunk sizes observed by the execution hooks.
        chunks_seen: std::sync::Mutex<Vec<usize>>,
    }

    impl VecIndex {
        fn lookup<F: Fn(u64) -> bool>(&self, qualifies: F, fetch: bool) -> LookupResult {
            let mut r = LookupResult::miss();
            for (row, &k) in self.keys.iter().enumerate() {
                if qualifies(k) {
                    r.first_row = r.first_row.min(row as u32);
                    r.hit_count += 1;
                    if fetch {
                        if let Some(v) = &self.values {
                            r.value_sum = r.value_sum.wrapping_add(v[row]);
                        }
                    }
                }
            }
            r
        }
    }

    impl SecondaryIndex for VecIndex {
        fn name(&self) -> &str {
            "VEC"
        }
        fn key_count(&self) -> usize {
            self.keys.len()
        }
        fn memory_bytes(&self) -> u64 {
            (self.keys.len() * 8) as u64
        }
        fn build_metrics(&self) -> IndexBuildMetrics {
            IndexBuildMetrics::default()
        }
        fn capabilities(&self) -> Capabilities {
            Capabilities {
                range_lookups: self.ranges,
                ..Capabilities::read_only()
            }
        }
        fn has_value_column(&self) -> bool {
            self.values.is_some()
        }
        fn point_chunk(&self, queries: &[u64], fetch: bool) -> Result<BatchOutcome, IndexError> {
            self.chunks_seen.lock().unwrap().push(queries.len());
            Ok(BatchOutcome {
                results: queries
                    .iter()
                    .map(|&q| self.lookup(|k| k == q, fetch))
                    .collect(),
                metrics: LaunchMetrics {
                    simulated_time_s: 1.0,
                    ..Default::default()
                },
            })
        }
        fn range_chunk(
            &self,
            ranges: &[(u64, u64)],
            fetch: bool,
        ) -> Result<BatchOutcome, IndexError> {
            self.chunks_seen.lock().unwrap().push(ranges.len());
            Ok(BatchOutcome {
                results: ranges
                    .iter()
                    .map(|&(l, u)| self.lookup(|k| k >= l && k <= u, fetch))
                    .collect(),
                metrics: LaunchMetrics {
                    simulated_time_s: 0.5,
                    ..Default::default()
                },
            })
        }
    }

    fn vec_index(ranges: bool) -> VecIndex {
        VecIndex {
            keys: vec![5, 1, 9, 5],
            values: Some(vec![50, 10, 90, 51]),
            ranges,
            chunks_seen: std::sync::Mutex::new(Vec::new()),
        }
    }

    #[test]
    fn mixed_batch_preserves_submission_order() {
        let ix = vec_index(true);
        let batch = QueryBatch::new()
            .point(1)
            .range(4, 9)
            .point(7)
            .range(0, 0)
            .fetch_values(true);
        let out = ix.execute(&batch).unwrap();
        assert_eq!(out.results.len(), 4);
        assert_eq!(out.results[0].first_row, 1);
        assert_eq!(out.results[0].value_sum, 10);
        assert_eq!(out.results[1].hit_count, 3, "5, 9 and the duplicate 5");
        assert_eq!(out.results[1].value_sum, 191);
        assert_eq!(out.results[2].first_row, MISS);
        assert_eq!(out.results[3].hit_count, 0);
        // One point launch + one range launch, metrics merged.
        assert!((out.metrics.simulated_time_s - 1.5).abs() < 1e-12);
    }

    #[test]
    fn chunked_execution_matches_unchunked() {
        let ix = vec_index(true);
        let queries: Vec<u64> = (0..10).collect();
        let whole = ix
            .execute(&QueryBatch::of_points(&queries).fetch_values(true))
            .unwrap();
        let chunked = ix
            .execute(
                &QueryBatch::of_points(&queries)
                    .fetch_values(true)
                    .with_chunk_size(3),
            )
            .unwrap();
        assert_eq!(whole.results, chunked.results);
        // 10 points in chunks of 3 -> 4 launches after the initial whole run.
        let seen = ix.chunks_seen.lock().unwrap().clone();
        assert_eq!(seen, vec![10, 3, 3, 3, 1]);
        // Chunked execution pays one simulated launch per chunk.
        assert!(chunked.metrics.simulated_time_s > whole.metrics.simulated_time_s);
    }

    #[test]
    fn range_on_incapable_backend_is_a_uniform_error() {
        let ix = vec_index(false);
        let err = ix
            .execute(&QueryBatch::new().point(1).range(0, 9))
            .unwrap_err();
        assert_eq!(
            err,
            IndexError::UnsupportedOperation {
                backend: "VEC".into(),
                operation: "range lookups",
            }
        );
        // Point-only batches still work.
        assert_eq!(
            ix.execute(&QueryBatch::new().point(1)).unwrap().hit_count(),
            1
        );
    }

    #[test]
    fn value_fetch_without_column_errors() {
        let mut ix = vec_index(true);
        ix.values = None;
        let err = ix
            .execute(&QueryBatch::new().point(1).fetch_values(true))
            .unwrap_err();
        assert!(matches!(err, IndexError::NoValueColumn { .. }));
    }

    #[test]
    fn inverted_ranges_answer_empty_without_reaching_the_backend() {
        let ix = vec_index(true);
        let out = ix
            .execute(&QueryBatch::new().range(9, 3).point(1).range(5, 5))
            .unwrap();
        assert_eq!(out.results[0], LookupResult::miss());
        assert_eq!(out.results[1].first_row, 1);
        assert_eq!(out.results[2].hit_count, 2, "5 and its duplicate");
        // The inverted range was never forwarded: one point launch plus one
        // single-operation range launch.
        assert_eq!(*ix.chunks_seen.lock().unwrap(), vec![1, 1]);

        // On a backend without range support even an inverted range is still
        // a range operation and fails uniformly.
        let err = ix_without_ranges_err();
        assert_eq!(
            err,
            IndexError::UnsupportedOperation {
                backend: "VEC".into(),
                operation: "range lookups",
            }
        );
    }

    fn ix_without_ranges_err() -> IndexError {
        vec_index(false)
            .execute(&QueryBatch::new().range(9, 3))
            .unwrap_err()
    }

    #[test]
    fn empty_batch_executes_to_empty_outcome() {
        let ix = vec_index(true);
        let out = ix.execute(&QueryBatch::new()).unwrap();
        assert!(out.results.is_empty());
        assert_eq!(out.metrics.simulated_time_s, 0.0);
        assert_eq!(ix.chunks_seen.lock().unwrap().len(), 0, "no launch");
    }
}

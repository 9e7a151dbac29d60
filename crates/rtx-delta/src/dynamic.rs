//! The dynamic index: an immutable RX base + the mutable delta layer.
//!
//! Reads fan out to both sides and reconcile:
//!
//! * the **base** is an ordinary [`RtIndex`] (BVH over the scene) queried
//!   through its masked-lookup hooks, so tombstoned rows never surface;
//! * the **delta** is queried by a hash-probe kernel (point lookups) or a
//!   scan kernel (range lookups) over the [`DeltaBuffer`];
//! * per query, the two partial results merge: hit counts and value sums
//!   add, and the first row is the minimum qualifying rowID (base rows are
//!   always smaller than delta rows, because delta rows are assigned after
//!   the base was built).
//!
//! Writes never touch the BVH: inserts append to the delta, deletes clear
//! validity bits (base) or tombstone slots (delta). Once the configured
//! [`CompactionPolicy`](crate::config::CompactionPolicy) trips, the live
//! key set is merged and the base is rebuilt through the ordinary
//! `optixAccelBuild` path — the same cost the paper charges for its
//! "rebuild" update strategy.
//!
//! ## Two-generation (background) compaction
//!
//! With [`DynamicRtConfig::background`] set, a triggered compaction does
//! not stop the world. Instead the index **freezes** the current delta and
//! snapshots the live entries, hands the snapshot to
//! [`RtIndex::build_async`] on a background thread, and keeps serving:
//!
//! * **reads** fan out to *three* structures — old base (masked), frozen
//!   delta, fresh delta — and reconcile exactly as before;
//! * **inserts** land in the fresh delta;
//! * **deletes** tombstone all three views and are additionally recorded
//!   for replay, because the snapshot already left for the builder;
//! * once the rebuild lands, the next write (or an explicit
//!   [`DynamicRtIndex::poll_compaction`]) performs the **swap**: the new
//!   base replaces old base + frozen delta, recorded deletes are replayed
//!   onto its validity mask, and the fresh delta carries over as the new
//!   generation's delta. Only this swap ever blocks a write.
//!
//! RowIDs follow the generation: snapshot rows renumber densely to their
//! snapshot position at the swap (exactly like a synchronous compaction),
//! while rows inserted during the rebuild keep their already-assigned IDs —
//! `rtx_workloads::truth::DynamicOracle` mirrors this with its
//! `begin_compaction` / `finish_compaction` pair.

use gpu_baselines::{kernel as baseline_kernel, GROUP_SIZE};
use gpu_device::{Device, DeviceAlloc};
use optix_sim::LaunchMetrics;
use rtindex_core::{PendingIndexBuild, RtIndex, RtIndexError};
use rtx_bvh::BvhQuality;
use rtx_query::{compose_renumbering, BatchOutcome, LookupResult, MISS};

use crate::config::{CompactionTrigger, DynamicRtConfig};
use crate::delta_buffer::{DeltaBuffer, DELTA_SLOT_BYTES};

/// Summary of one completed compaction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionEvent {
    /// Why the compaction ran.
    pub trigger: CompactionTrigger,
    /// Live rows in the rebuilt base (excluding rows deleted while a
    /// background rebuild was in flight).
    pub live_rows: usize,
    /// Delta entries merged into the new base.
    pub merged_delta_entries: usize,
    /// Tombstoned base rows dropped by the merge.
    pub dropped_base_tombstones: usize,
    /// Simulated device seconds of the BVH rebuild.
    pub simulated_build_s: f64,
    /// Whether the rebuild ran on a background thread (two-generation
    /// mode) rather than stop-the-world.
    pub background: bool,
    /// Quality of the rebuilt BVH (SAH cost, sibling overlap, …) — makes
    /// rebuild quality visible after every compaction, not just at the
    /// initial build.
    pub quality: BvhQuality,
}

/// Result of one update batch (insert, delete or upsert) or of one
/// explicit compaction call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UpdateOutcome {
    /// Rows inserted by the batch.
    pub inserted_rows: usize,
    /// Rows deleted by the batch (base tombstones + delta removals).
    pub deleted_rows: usize,
    /// Simulated device seconds spent applying the batch (kernels plus a
    /// compaction rebuild, when one completed in this batch).
    pub simulated_time_s: f64,
    /// The compaction that **completed** during this batch: a synchronous
    /// merge, or the swap of a background rebuild that landed. For a
    /// background compaction the swap happens *before* the batch's
    /// operations apply.
    pub compaction: Option<CompactionEvent>,
    /// True when this batch *started* a background compaction (froze the
    /// delta and kicked off the rebuild). The matching completion surfaces
    /// in a later outcome's [`compaction`](UpdateOutcome::compaction).
    pub compaction_began: bool,
    /// How the call renumbered the rowIDs, when a compaction completed in
    /// it — the rule of [`rtx_query::UpdateReport::renumbered`].
    pub renumbered: Option<Vec<u32>>,
}

impl UpdateOutcome {
    /// The outcome of a call that did nothing but complete `event`.
    fn landed((event, renumbered): (CompactionEvent, Vec<u32>)) -> Self {
        UpdateOutcome {
            simulated_time_s: event.simulated_build_s,
            compaction: Some(event),
            renumbered: Some(renumbered),
            ..Default::default()
        }
    }
}

/// Lifetime counters of a [`DynamicRtIndex`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UpdateStats {
    /// Rows inserted since construction.
    pub inserted_rows: u64,
    /// Rows deleted since construction.
    pub deleted_rows: u64,
    /// Update batches applied.
    pub update_batches: u64,
    /// Compactions performed (completed).
    pub compactions: u64,
    /// Simulated device seconds spent in update kernels and rebuilds.
    pub simulated_update_s: f64,
}

/// A background compaction between freeze and swap.
struct InflightCompaction {
    trigger: CompactionTrigger,
    /// The delta generation frozen at trigger time. Still serves reads and
    /// accepts tombstones; never accepts inserts.
    frozen: DeltaBuffer,
    /// Frozen-delta entries at freeze time (the merge size reported at the
    /// swap).
    merged_delta_entries: usize,
    /// Base tombstones dropped by the merge (at freeze time).
    dropped_base_tombstones: usize,
    /// The rowIDs the snapshot's rows held at freeze time, in snapshot
    /// order: snapshot position `i` is what `rows[i]` renumbers to at the
    /// swap.
    rows: Vec<u32>,
    /// The row allocator at freeze time; fresh-delta rows start here.
    frozen_next_row: u32,
    /// Value column of the snapshot, uploaded at the swap.
    values: Vec<u64>,
    /// Keys deleted while the rebuild was in flight; replayed onto the new
    /// base's validity mask at the swap (the snapshot predates them).
    pending_deletes: Vec<u64>,
    /// The rebuild running on the background thread.
    build: PendingIndexBuild,
}

/// A dynamically updatable RT index: immutable [`RtIndex`] base, mutable
/// delta buffer, tombstone mask and automatic compaction.
///
/// Unlike the static index, the dynamic index owns its value column: every
/// row carries a `u64` value supplied at insert time, and lookups aggregate
/// those values (the paper's secondary-index methodology) without the caller
/// passing a column around — rows move between delta and base during
/// compaction, so only the index knows where a row's value lives.
#[derive(Debug)]
pub struct DynamicRtIndex {
    device: Device,
    config: DynamicRtConfig,
    base: RtIndex,
    /// Value column of the base rows.
    base_values: Vec<u64>,
    /// Device memory the value column occupies.
    base_values_alloc: DeviceAlloc,
    /// Validity of each base row; cleared by deletes.
    live: Vec<bool>,
    /// Device memory the packed validity bitmap occupies.
    live_bitmap: DeviceAlloc,
    dead_rows: usize,
    delta: DeltaBuffer,
    next_row: u32,
    stats: UpdateStats,
    last_compaction: Option<CompactionEvent>,
    inflight: Option<InflightCompaction>,
}

impl std::fmt::Debug for InflightCompaction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InflightCompaction")
            .field("trigger", &self.trigger)
            .field("snapshot_rows", &self.rows.len())
            .field("frozen_entries", &self.frozen.len())
            .field("pending_deletes", &self.pending_deletes.len())
            .field("finished", &self.build.is_finished())
            .finish()
    }
}

impl DynamicRtIndex {
    /// Builds the dynamic index over an initial `(keys, values)` column pair
    /// (either may be empty; both must have equal length).
    pub fn build(
        device: &Device,
        keys: &[u64],
        values: &[u64],
        config: DynamicRtConfig,
    ) -> Result<Self, RtIndexError> {
        if keys.len() != values.len() {
            return Err(RtIndexError::ValueColumnLengthMismatch {
                expected: keys.len(),
                actual: values.len(),
            });
        }
        let base = RtIndex::build(device, keys, config.rx)?;
        let n = keys.len();
        Ok(DynamicRtIndex {
            device: device.clone(),
            config,
            base,
            base_values_alloc: device.reserve(n as u64 * 8),
            base_values: values.to_vec(),
            live: vec![true; n],
            live_bitmap: device.reserve(n.div_ceil(8) as u64),
            dead_rows: 0,
            delta: DeltaBuffer::new(device),
            next_row: u32::try_from(n).expect("base exceeds the rowID space"),
            stats: UpdateStats::default(),
            last_compaction: None,
            inflight: None,
        })
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> &DynamicRtConfig {
        &self.config
    }

    /// The device the index lives on.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Live entries (base rows not tombstoned + frozen and fresh delta
    /// entries).
    pub fn len(&self) -> usize {
        self.base.key_count() - self.dead_rows + self.frozen_delta_len() + self.delta.len()
    }

    /// True when no live entry is indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rows in the immutable base (live and tombstoned).
    pub fn base_rows(&self) -> usize {
        self.base.key_count()
    }

    /// Tombstoned base rows awaiting compaction.
    pub fn dead_base_rows(&self) -> usize {
        self.dead_rows
    }

    /// Live entries buffered in the (fresh) delta.
    pub fn delta_len(&self) -> usize {
        self.delta.len()
    }

    /// Live entries in the frozen delta of an in-flight background
    /// compaction (0 when none is in flight).
    pub fn frozen_delta_len(&self) -> usize {
        self.inflight.as_ref().map_or(0, |c| c.frozen.len())
    }

    /// True while a background compaction rebuild is in flight (frozen
    /// generation present, swap not performed yet).
    pub fn compaction_in_flight(&self) -> bool {
        self.inflight.is_some()
    }

    /// Lifetime update counters.
    pub fn stats(&self) -> &UpdateStats {
        &self.stats
    }

    /// Build metrics of the current base index (the most recent initial
    /// build or compaction rebuild).
    pub fn base_build_metrics(&self) -> &optix_sim::BuildMetrics {
        self.base.build_metrics()
    }

    /// RowIDs allocated so far (the next insert starts here). Unlike
    /// [`DynamicRtIndex::len`] this only ever grows between compactions —
    /// deletes free no rowIDs — so it is the quantity to check against the
    /// rowID space before inserting.
    pub fn allocated_rows(&self) -> u32 {
        self.next_row
    }

    /// Number of compactions performed so far.
    pub fn compaction_count(&self) -> u64 {
        self.stats.compactions
    }

    /// The most recent completed compaction, if any.
    pub fn last_compaction(&self) -> Option<&CompactionEvent> {
        self.last_compaction.as_ref()
    }

    /// Device memory occupied by the dynamic index's *serving* structures:
    /// base (BVH + primitive buffer + key column), value column, validity
    /// bitmap, the delta table and — during a background compaction — the
    /// frozen delta table. The replacement base an in-flight background
    /// rebuild is constructing (plus its build scratch) is **not** counted
    /// here: it allocates against the shared device, so
    /// [`device().memory()`](DynamicRtIndex::device) shows the true
    /// double-footprint while a rebuild is in flight.
    pub fn memory_bytes(&self) -> u64 {
        self.base.total_memory_bytes()
            + self.base_values_alloc.bytes()
            + self.live_bitmap.bytes()
            + self.delta.memory_bytes()
            + self
                .inflight
                .as_ref()
                .map_or(0, |c| c.frozen.memory_bytes())
    }

    /// [`memory_bytes`](DynamicRtIndex::memory_bytes) split by structural
    /// role: `(base, delta, tombstone)` bytes. The base covers the BVH,
    /// primitive/key buffers and the value column; the delta covers the
    /// fresh table plus a frozen generation when a background compaction is
    /// in flight; the tombstone share is the validity bitmap.
    pub fn memory_breakdown(&self) -> (u64, u64, u64) {
        let base = self.base.total_memory_bytes() + self.base_values_alloc.bytes();
        let delta = self.delta.memory_bytes()
            + self
                .inflight
                .as_ref()
                .map_or(0, |c| c.frozen.memory_bytes());
        (base, delta, self.live_bitmap.bytes())
    }

    /// All live `(row, key, value)` entries in ascending row order — the
    /// exact column a compaction (or an oracle) materialises. Base rows
    /// come first, then the frozen delta (when a background compaction is
    /// in flight), then the fresh delta: each generation's rows were
    /// assigned after the previous one's, so concatenation preserves
    /// ascending order.
    pub fn live_entries(&self) -> Vec<(u32, u64, u64)> {
        let keys = self.base.keys();
        let values = &self.base_values;
        let mut entries: Vec<(u32, u64, u64)> = (0..keys.len())
            .filter(|&row| self.live[row])
            .map(|row| (row as u32, keys[row], values[row]))
            .collect();
        if let Some(inflight) = &self.inflight {
            entries.extend(
                inflight
                    .frozen
                    .entries_sorted_by_row()
                    .iter()
                    .map(|e| (e.row, e.key, e.value)),
            );
        }
        entries.extend(
            self.delta
                .entries_sorted_by_row()
                .iter()
                .map(|e| (e.row, e.key, e.value)),
        );
        entries
    }

    fn validate_keys(&self, keys: &[u64]) -> Result<(), RtIndexError> {
        let mode = self.config.rx.key_mode;
        let max_key = mode.max_key();
        if let Some(&bad) = keys.iter().find(|&&k| k > max_key) {
            return Err(RtIndexError::KeyOutOfRange {
                key: bad,
                mode,
                max_key,
            });
        }
        Ok(())
    }

    /// Rejects a batch that would allocate rowIDs at or beyond the reserved
    /// [`MISS`] sentinel. Checked before any state mutates, so a failed
    /// insert/upsert leaves the index untouched.
    fn validate_row_space(&self, new_rows: usize) -> Result<(), RtIndexError> {
        if self.next_row as u64 + new_rows as u64 >= MISS as u64 {
            return Err(RtIndexError::RowIdSpaceExhausted {
                allocated: self.next_row as u64,
                requested: new_rows as u64,
                limit: MISS as u64 - 1,
            });
        }
        Ok(())
    }

    /// Buffers the inserts in the delta; no compaction check (the public
    /// batch methods run it once, at the batch boundary). Returns the
    /// simulated seconds of the insert kernels.
    fn apply_insert(&mut self, keys: &[u64], values: &[u64]) -> f64 {
        debug_assert!(
            (self.next_row as u64 + keys.len() as u64) < MISS as u64,
            "row space validated by the public batch methods"
        );
        let entries: Vec<(u64, u32, u64)> = keys
            .iter()
            .zip(values)
            .enumerate()
            .map(|(i, (&k, &v))| (k, self.next_row + i as u32, v))
            .collect();
        let simulated = self.delta.insert_batch(&entries);
        self.next_row += keys.len() as u32;
        self.stats.inserted_rows += keys.len() as u64;
        simulated
    }

    /// Tombstones every live entry holding one of `keys` across all
    /// generations (base mask, frozen delta, fresh delta); no compaction
    /// check. When a background rebuild is in flight, the keys are also
    /// recorded for replay onto the new base at the swap. Returns the
    /// deleted row count and the simulated seconds.
    fn apply_delete(&mut self, keys: &[u64]) -> Result<(usize, f64), RtIndexError> {
        let mut simulated = 0.0;
        let mut deleted = 0usize;

        if self.base.key_count() > 0 && !keys.is_empty() {
            let (rows_per_key, metrics) = self.base.collect_point_rows(keys, Some(&self.live))?;
            simulated += metrics.simulated_time_s;
            for row in rows_per_key.into_iter().flatten() {
                if self.live[row as usize] {
                    self.live[row as usize] = false;
                    self.dead_rows += 1;
                    deleted += 1;
                }
            }
        }

        if let Some(inflight) = &mut self.inflight {
            let (removed, frozen_sim) = inflight.frozen.delete_batch(keys);
            simulated += frozen_sim;
            deleted += removed.len();
            // The snapshot already left for the builder: replay the keys on
            // the rebuilt base at the swap. By-key replay is idempotent and
            // covers both the base rows and the frozen entries above.
            inflight.pending_deletes.extend_from_slice(keys);
        }

        let (removed, delta_sim) = self.delta.delete_batch(keys);
        simulated += delta_sim;
        deleted += removed.len();
        self.stats.deleted_rows += deleted as u64;
        Ok((deleted, simulated))
    }

    /// Runs the policy once at the end of a public update batch, folding a
    /// triggered compaction (synchronous merge or background freeze) and a
    /// pre-batch swap into the outcome.
    fn finish_batch(
        &mut self,
        swapped: Option<(CompactionEvent, Vec<u32>)>,
        inserted_rows: usize,
        deleted_rows: usize,
        mut simulated: f64,
    ) -> UpdateOutcome {
        self.stats.update_batches += 1;
        let (mut compaction, mut renumbered) = swapped.unzip();
        if let Some(event) = compaction {
            simulated += event.simulated_build_s;
        }
        let mut compaction_began = false;
        match self.maybe_compact() {
            Some(TriggeredCompaction::Synchronous(event, map)) => {
                simulated += event.simulated_build_s;
                debug_assert!(compaction.is_none(), "a swap implies background mode");
                compaction = Some(event);
                renumbered = compose_renumbering(renumbered, Some(map));
            }
            Some(TriggeredCompaction::Began) => compaction_began = true,
            None => {}
        }
        self.stats.simulated_update_s += simulated;
        UpdateOutcome {
            inserted_rows,
            deleted_rows,
            simulated_time_s: simulated,
            compaction,
            compaction_began,
            renumbered,
        }
    }

    /// Inserts a batch of `(key, value)` rows. Every key is validated
    /// against the configured key mode up front, so a later compaction
    /// rebuild can never fail. Returns what the batch did, including the
    /// compaction it may have triggered or completed.
    ///
    /// Compaction runs at most once, after the whole batch is applied, so
    /// callers observing [`DynamicRtIndex::compaction_count`] between
    /// batches see every row renumbering.
    pub fn insert_batch(
        &mut self,
        keys: &[u64],
        values: &[u64],
    ) -> Result<UpdateOutcome, RtIndexError> {
        if keys.len() != values.len() {
            return Err(RtIndexError::ValueColumnLengthMismatch {
                expected: keys.len(),
                actual: values.len(),
            });
        }
        self.validate_keys(keys)?;
        self.validate_row_space(keys.len())?;
        let swapped = self.auto_poll_swap(keys.len());
        let simulated = self.apply_insert(keys, values);
        Ok(self.finish_batch(swapped, keys.len(), 0, simulated))
    }

    /// Deletes every live entry whose key appears in `keys` (all duplicates,
    /// wherever they live). Base hits are found by rays — a delete *is* a
    /// lookup — and tombstoned via the validity mask; delta hits are
    /// tombstoned in the hash table. Unknown keys are ignored.
    pub fn delete_batch(&mut self, keys: &[u64]) -> Result<UpdateOutcome, RtIndexError> {
        let swapped = self.auto_poll_swap(0);
        let (deleted, simulated) = self.apply_delete(keys)?;
        Ok(self.finish_batch(swapped, 0, deleted, simulated))
    }

    /// Upserts a batch: every key's existing entries (base and delta) are
    /// deleted, then one fresh `(key, value)` row is inserted per pair. Like
    /// every update batch, compaction runs at most once, at the end.
    pub fn upsert_batch(
        &mut self,
        keys: &[u64],
        values: &[u64],
    ) -> Result<UpdateOutcome, RtIndexError> {
        if keys.len() != values.len() {
            return Err(RtIndexError::ValueColumnLengthMismatch {
                expected: keys.len(),
                actual: values.len(),
            });
        }
        self.validate_keys(keys)?;
        self.validate_row_space(keys.len())?;
        let swapped = self.auto_poll_swap(keys.len());
        let (deleted, delete_sim) = self.apply_delete(keys)?;
        let insert_sim = self.apply_insert(keys, values);
        Ok(self.finish_batch(swapped, keys.len(), deleted, delete_sim + insert_sim))
    }

    /// One delta-side hash-probe kernel over `queries`.
    fn delta_point_kernel(
        &self,
        delta: &DeltaBuffer,
        queries: &[u64],
    ) -> gpu_baselines::BaselineBatch {
        let working_set = delta.memory_bytes();
        baseline_kernel::run_lookup_kernel(&self.device, queries.len(), working_set, {
            |ctx, classifier, idx| {
                let key = queries[idx];
                ctx.add_instructions(12); // hash + loop setup
                let mut first_row = MISS;
                let mut hit_count = 0u32;
                let mut sum = 0u64;
                let probed = delta.probe(key, |e| {
                    if first_row == MISS || e.row < first_row {
                        first_row = e.row;
                    }
                    hit_count += 1;
                    sum = sum.wrapping_add(e.value);
                });
                classifier.access(
                    ctx,
                    delta.group_token(key),
                    probed * GROUP_SIZE as u64 * DELTA_SLOT_BYTES,
                );
                ctx.add_instructions(probed * GROUP_SIZE as u64);
                LookupResult {
                    first_row,
                    hit_count,
                    value_sum: sum,
                }
            }
        })
    }

    /// One delta-side scan kernel over `ranges`.
    fn delta_range_kernel(
        &self,
        delta: &DeltaBuffer,
        ranges: &[(u64, u64)],
    ) -> gpu_baselines::BaselineBatch {
        let working_set = delta.memory_bytes();
        let slot_bytes = delta.capacity() as u64 * DELTA_SLOT_BYTES;
        baseline_kernel::run_lookup_kernel(&self.device, ranges.len(), working_set, {
            |ctx, classifier, idx| {
                let (lower, upper) = ranges[idx];
                ctx.add_instructions(8);
                let mut first_row = MISS;
                let mut hit_count = 0u32;
                let mut sum = 0u64;
                delta.scan_range(lower, upper, |e| {
                    if first_row == MISS || e.row < first_row {
                        first_row = e.row;
                    }
                    hit_count += 1;
                    sum = sum.wrapping_add(e.value);
                });
                // The scan streams the whole table once.
                classifier.access(ctx, u64::MAX, slot_bytes);
                ctx.add_instructions(delta.capacity() as u64);
                LookupResult {
                    first_row,
                    hit_count,
                    value_sum: sum,
                }
            }
        })
    }

    /// Answers a batch of point lookups against the merged view. Results
    /// carry the hit counts and value sums of all live entries;
    /// `first_row` is the smallest qualifying rowID. During a background
    /// compaction the view spans old base + frozen delta + fresh delta.
    pub fn point_lookup_batch(&self, queries: &[u64]) -> Result<BatchOutcome, RtIndexError> {
        let mut outcome = self.base.point_lookup_batch_masked(
            queries,
            Some(&self.base_values),
            Some(&self.live),
        )?;

        // Delta side: one hash-probe kernel per non-empty delta generation.
        // An empty delta (e.g. right after a compaction) skips its kernel
        // entirely — the host knows the entry count, so a real system would
        // not launch.
        if let Some(inflight) = &self.inflight {
            if !inflight.frozen.is_empty() {
                let batch = self.delta_point_kernel(&inflight.frozen, queries);
                merge_delta_results(&mut outcome, &batch);
            }
        }
        if !self.delta.is_empty() {
            let batch = self.delta_point_kernel(&self.delta, queries);
            merge_delta_results(&mut outcome, &batch);
        }
        Ok(outcome)
    }

    /// Answers a batch of inclusive range lookups `[lower, upper]` against
    /// the merged view. The base side traces range rays; each non-empty
    /// delta generation scans its (small, unordered) table per query.
    pub fn range_lookup_batch(&self, ranges: &[(u64, u64)]) -> Result<BatchOutcome, RtIndexError> {
        let mut outcome = self.base.range_lookup_batch_masked(
            ranges,
            Some(&self.base_values),
            Some(&self.live),
        )?;

        if let Some(inflight) = &self.inflight {
            if !inflight.frozen.is_empty() {
                let batch = self.delta_range_kernel(&inflight.frozen, ranges);
                merge_delta_results(&mut outcome, &batch);
            }
        }
        if !self.delta.is_empty() {
            let batch = self.delta_range_kernel(&self.delta, ranges);
            merge_delta_results(&mut outcome, &batch);
        }
        Ok(outcome)
    }

    /// Compacts if the policy says so.
    fn maybe_compact(&mut self) -> Option<TriggeredCompaction> {
        // Never start a second compaction while one is rebuilding; the
        // fresh delta keeps absorbing writes and the policy re-fires after
        // the swap if it is still over budget.
        if self.inflight.is_some() {
            return None;
        }
        let trigger =
            self.config
                .policy
                .trigger(self.delta.len(), self.base.key_count(), self.dead_rows)?;
        if self.config.background {
            self.begin_background_compaction(trigger);
            Some(TriggeredCompaction::Began)
        } else {
            let (event, renumbered) = self.compact(trigger);
            Some(TriggeredCompaction::Synchronous(event, renumbered))
        }
    }

    /// Unconditionally merges every generation into a rebuilt base,
    /// synchronously. If a background rebuild is in flight, its swap is
    /// awaited first, then the remaining delta merges; the returned
    /// outcome describes the final (synchronous) merge and renumbers across
    /// both.
    pub fn compact_now(&mut self) -> UpdateOutcome {
        let swapped = self.wait_for_compaction();
        let mut outcome = UpdateOutcome::landed(self.compact(CompactionTrigger::Manual));
        outcome.renumbered =
            compose_renumbering(swapped.and_then(|s| s.renumbered), outcome.renumbered);
        outcome
    }

    /// Freezes the current delta and starts the background rebuild.
    fn begin_background_compaction(&mut self, trigger: CompactionTrigger) {
        debug_assert!(self.inflight.is_none());
        let mut rows = Vec::with_capacity(self.len());
        let mut keys = Vec::with_capacity(self.len());
        let mut values = Vec::with_capacity(self.len());
        for (row, key, value) in self.live_entries() {
            rows.push(row);
            keys.push(key);
            values.push(value);
        }
        let frozen = std::mem::replace(&mut self.delta, DeltaBuffer::new(&self.device));
        // Every key was validated at insert/build time, so the rebuild
        // cannot fail on key range; any failure here is a logic error.
        let build = RtIndex::build_async(&self.device, keys, self.config.rx)
            .expect("background compaction rebuild");
        self.inflight = Some(InflightCompaction {
            trigger,
            merged_delta_entries: frozen.len(),
            dropped_base_tombstones: self.dead_rows,
            frozen,
            rows,
            frozen_next_row: self.next_row,
            values,
            pending_deletes: Vec::new(),
            build,
        });
    }

    /// Swaps in a *finished* background rebuild, if any. Non-blocking: an
    /// unfinished rebuild keeps serving from the frozen generation.
    pub fn poll_compaction(&mut self) -> Option<UpdateOutcome> {
        let swapped = self.poll_swap()?;
        self.stats.simulated_update_s += swapped.0.simulated_build_s;
        Some(UpdateOutcome::landed(swapped))
    }

    /// Blocks until an in-flight background rebuild lands and swaps it in
    /// (a real join on the builder thread, not a spin). Returns `None`
    /// when no compaction is in flight.
    pub fn wait_for_compaction(&mut self) -> Option<UpdateOutcome> {
        let inflight = self.inflight.take()?;
        let swapped = self.swap_in(inflight);
        self.stats.simulated_update_s += swapped.0.simulated_build_s;
        Some(UpdateOutcome::landed(swapped))
    }

    /// The automatic swap landing at the start of every update batch —
    /// disabled under [`DynamicRtConfig::auto_swap`]` = false`, where a
    /// durability wrapper controls (and logs) the swap points explicitly
    /// through [`DynamicRtIndex::poll_compaction`].
    ///
    /// The batch's `inserting` rows land *after* the swap, but a report
    /// renumbers after appending: they count as having taken the next
    /// pre-swap rowIDs.
    fn auto_poll_swap(&mut self, inserting: usize) -> Option<(CompactionEvent, Vec<u32>)> {
        if !self.config.auto_swap {
            return None;
        }
        let old_next_row = self.next_row;
        let (event, mut renumbered) = self.poll_swap()?;
        renumbered.extend(old_next_row..old_next_row + inserting as u32);
        Some((event, renumbered))
    }

    /// Swaps in a finished rebuild without blocking. Returns `None` while
    /// none is available. The caller accounts the simulated build time
    /// (batch outcomes and stats differ).
    fn poll_swap(&mut self) -> Option<(CompactionEvent, Vec<u32>)> {
        if !self.inflight.as_ref()?.build.is_finished() {
            return None;
        }
        let inflight = self.inflight.take().expect("checked above");
        Some(self.swap_in(inflight))
    }

    /// The swap: replaces (old base + frozen delta) with the rebuilt base,
    /// replaying deletes recorded during the rebuild onto the new validity
    /// mask. The fresh delta and its rowIDs carry over unchanged. Blocks
    /// until the rebuild completes (instant when the caller checked
    /// `is_finished`). Returns the event and the renumbering: snapshot rows
    /// move to their snapshot position, a kept fresh-delta tail stays where
    /// it is, and the slots between the two hold nothing.
    fn swap_in(&mut self, inflight: InflightCompaction) -> (CompactionEvent, Vec<u32>) {
        let new_base = inflight.build.wait();
        let snapshot_rows = inflight.rows.len();
        debug_assert_eq!(new_base.key_count(), snapshot_rows);

        let mut live = vec![true; snapshot_rows];
        let mut dead_rows = 0usize;
        if !inflight.pending_deletes.is_empty() {
            let doomed: std::collections::HashSet<u64> =
                inflight.pending_deletes.iter().copied().collect();
            for (row, &key) in new_base.keys().iter().enumerate() {
                if doomed.contains(&key) {
                    live[row] = false;
                    dead_rows += 1;
                }
            }
        }

        let simulated_build_s = new_base.build_metrics().simulated_time_s;
        let quality = BvhQuality::measure(new_base.accel().bvh());
        self.base = new_base;
        self.base_values_alloc = self.device.reserve(inflight.values.len() as u64 * 8);
        self.base_values = inflight.values;
        self.live_bitmap = self.device.reserve(snapshot_rows.div_ceil(8) as u64);
        self.live = live;
        self.dead_rows = dead_rows;
        // The fresh delta stays. When it still holds rows, their IDs above
        // the snapshot remain valid, so the allocator cannot move; when it
        // is empty, nothing lives above the snapshot and the allocator
        // resets like a synchronous merge — without this, sustained churn
        // under background compaction would leak the u32 rowID space.
        if self.delta.is_empty() {
            self.next_row = snapshot_rows as u32;
        }
        let mut renumbered = inflight.rows;
        renumbered.extend((snapshot_rows as u32..self.next_row).map(|row| {
            if row >= inflight.frozen_next_row {
                row
            } else {
                MISS
            }
        }));

        let event = CompactionEvent {
            trigger: inflight.trigger,
            live_rows: snapshot_rows - dead_rows,
            merged_delta_entries: inflight.merged_delta_entries,
            dropped_base_tombstones: inflight.dropped_base_tombstones,
            simulated_build_s,
            background: true,
            quality,
        };
        self.stats.compactions += 1;
        self.last_compaction = Some(event);
        (event, renumbered)
    }

    fn compact(&mut self, trigger: CompactionTrigger) -> (CompactionEvent, Vec<u32>) {
        debug_assert!(self.inflight.is_none(), "synchronous compaction only");
        let merged_delta_entries = self.delta.len();
        let dropped_base_tombstones = self.dead_rows;

        // The merged column is exactly the live entry sequence in ascending
        // row order — [`live_entries`](Self::live_entries) is the single
        // definition of that order, shared with the verification oracle.
        let mut rows = Vec::with_capacity(self.len());
        let mut keys = Vec::with_capacity(self.len());
        let mut values = Vec::with_capacity(self.len());
        for (row, key, value) in self.live_entries() {
            rows.push(row);
            keys.push(key);
            values.push(value);
        }

        // Every key was validated at insert/build time, so the rebuild
        // cannot fail on key range; any failure here is a logic error.
        let rebuilt =
            RtIndex::build(&self.device, &keys, self.config.rx).expect("compaction rebuild");
        let simulated_build_s = rebuilt.build_metrics().simulated_time_s;
        let quality = BvhQuality::measure(rebuilt.accel().bvh());

        self.base = rebuilt;
        self.base_values_alloc = self.device.reserve(values.len() as u64 * 8);
        self.base_values = values;
        self.live = vec![true; keys.len()];
        self.live_bitmap = self.device.reserve(keys.len().div_ceil(8) as u64);
        self.dead_rows = 0;
        self.delta = DeltaBuffer::new(&self.device);
        self.next_row = keys.len() as u32;

        let event = CompactionEvent {
            trigger,
            live_rows: keys.len(),
            merged_delta_entries,
            dropped_base_tombstones,
            simulated_build_s,
            background: false,
            quality,
        };
        self.stats.compactions += 1;
        self.last_compaction = Some(event);
        (event, rows)
    }
}

/// What the end-of-batch policy check did.
enum TriggeredCompaction {
    /// A stop-the-world merge completed (background mode off), renumbering
    /// the rows as given.
    Synchronous(CompactionEvent, Vec<u32>),
    /// A background rebuild was started (two-generation mode).
    Began,
}

/// Folds the delta-side partial results into the base outcome: counts and
/// sums add, the first row is the minimum, and the launch metrics merge so
/// callers see the cost of both kernels.
fn merge_delta_results(outcome: &mut BatchOutcome, delta: &gpu_baselines::BaselineBatch) {
    debug_assert_eq!(outcome.results.len(), delta.results.len());
    for (merged, partial) in outcome.results.iter_mut().zip(&delta.results) {
        if partial.hit_count == 0 {
            continue;
        }
        *merged = LookupResult {
            first_row: merged.first_row.min(partial.first_row),
            hit_count: merged.hit_count + partial.hit_count,
            value_sum: merged.value_sum.wrapping_add(partial.value_sum),
        };
    }
    outcome.metrics.merge(&LaunchMetrics {
        kernel: delta.kernel,
        simulated_time_s: delta.simulated_time_s,
        host_time: delta.host_time,
        ..Default::default()
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CompactionPolicy;
    use rtx_workloads::truth::DynamicOracle;

    fn background_config(max_delta_entries: usize) -> DynamicRtConfig {
        DynamicRtConfig::default()
            .with_policy(CompactionPolicy {
                max_delta_entries,
                max_delta_fraction: f64::INFINITY,
                max_delete_ratio: f64::INFINITY,
            })
            .with_background_compaction(true)
    }

    fn assert_matches_oracle(index: &DynamicRtIndex, oracle: &DynamicOracle, queries: &[u64]) {
        let out = index.point_lookup_batch(queries).expect("lookup");
        for (&q, r) in queries.iter().zip(&out.results) {
            assert_eq!(*r, oracle.point(q), "key {q}");
        }
    }

    #[test]
    fn background_compaction_serves_reads_during_rebuild_and_swaps_later() {
        let device = Device::default_eval();
        let keys: Vec<u64> = (0..256).collect();
        let values: Vec<u64> = (0..256).map(|k| k * 10).collect();
        let mut index =
            DynamicRtIndex::build(&device, &keys, &values, background_config(16)).unwrap();
        let mut oracle = DynamicOracle::new(&keys, &values);

        // Trip the policy: the batch freezes the delta instead of stalling.
        let fresh: Vec<u64> = (1000..1016).collect();
        let fresh_values: Vec<u64> = fresh.iter().map(|k| k * 10).collect();
        let outcome = index.insert_batch(&fresh, &fresh_values).unwrap();
        oracle.insert_batch(&fresh, &fresh_values);
        assert!(outcome.compaction_began, "policy must freeze in background");
        assert!(outcome.compaction.is_none(), "nothing completed yet");
        assert!(index.compaction_in_flight());
        assert_eq!(index.frozen_delta_len(), 16);
        assert_eq!(index.delta_len(), 0, "fresh generation starts empty");
        oracle.begin_compaction();

        // Reads during the rebuild serve the merged three-generation view.
        let queries: Vec<u64> = (0..1100).step_by(7).collect();
        assert_matches_oracle(&index, &oracle, &queries);
        let ranges = [(0u64, 64u64), (900, 1200), (100, 90)];
        let out = index.range_lookup_batch(&ranges).unwrap();
        for (&(lo, hi), r) in ranges.iter().zip(&out.results) {
            assert_eq!(*r, oracle.range(lo, hi), "range [{lo}, {hi}]");
        }

        // Writes during the rebuild: inserts land in the fresh delta,
        // deletes tombstone every generation and are replayed at the swap.
        // Each write may also be the one that lands the swap (rebuild speed
        // is not deterministic), so mirror whatever the outcome reports, in
        // the index's own order: swap before the batch's operations (it may
        // reset the row allocator), freeze after them.
        let mut swap_event = None;
        let pre = |oracle: &mut DynamicOracle,
                   swap_event: &mut Option<CompactionEvent>,
                   outcome: &UpdateOutcome| {
            if let Some(event) = outcome.compaction {
                assert!(event.background);
                oracle.finish_compaction();
                *swap_event = Some(event);
            }
        };
        let post = |oracle: &mut DynamicOracle, outcome: &UpdateOutcome| {
            if outcome.compaction_began {
                oracle.begin_compaction();
            }
        };
        let out = index.insert_batch(&[2000, 2001], &[1, 2]).unwrap();
        pre(&mut oracle, &mut swap_event, &out);
        oracle.insert_batch(&[2000, 2001], &[1, 2]);
        post(&mut oracle, &out);
        let out = index.delete_batch(&[3, 1002, 2000]).unwrap();
        pre(&mut oracle, &mut swap_event, &out);
        oracle.delete_batch(&[3, 1002, 2000]);
        post(&mut oracle, &out);
        assert_matches_oracle(&index, &oracle, &queries);

        // Claim the swap (if a write above did not already land it): rows
        // renumber exactly like the oracle's two-phase mirror.
        let event = swap_event.unwrap_or_else(|| {
            let landed = index.wait_for_compaction().expect("rebuild in flight");
            oracle.finish_compaction();
            landed.compaction.expect("a landed swap reports its event")
        });
        assert!(event.background);
        assert_eq!(event.merged_delta_entries, 16);
        assert!(event.quality.sah_cost > 0.0, "rebuild quality is surfaced");
        assert!(
            (270..=272).contains(&event.live_rows),
            "snapshot rows minus any snapshot keys deleted mid-rebuild, got {}",
            event.live_rows
        );
        assert!(!index.compaction_in_flight());
        assert_eq!(index.compaction_count(), 1);
        assert_matches_oracle(&index, &oracle, &queries);

        // Life goes on in the new generation (a new freeze may begin if the
        // fresh delta is over budget again — mirror it).
        let out = index.insert_batch(&[5000], &[50]).unwrap();
        pre(&mut oracle, &mut swap_event, &out);
        oracle.insert_batch(&[5000], &[50]);
        post(&mut oracle, &out);
        let out = index.delete_batch(&[10]).unwrap();
        pre(&mut oracle, &mut swap_event, &out);
        oracle.delete_batch(&[10]);
        post(&mut oracle, &out);
        assert_matches_oracle(&index, &oracle, &queries);
    }

    #[test]
    fn compact_now_waits_for_the_inflight_rebuild_then_merges_everything() {
        let device = Device::default_eval();
        let keys: Vec<u64> = (0..64).collect();
        let values = vec![7u64; 64];
        let mut index =
            DynamicRtIndex::build(&device, &keys, &values, background_config(8)).unwrap();
        let began = index
            .insert_batch(&(100..108).collect::<Vec<u64>>(), &[1; 8])
            .unwrap();
        assert!(began.compaction_began);
        index.insert_batch(&[200], &[2]).unwrap();

        let event = index.compact_now().compaction.expect("merge event");
        assert!(!event.background, "the final merge is synchronous");
        assert_eq!(index.compaction_count(), 2, "swap + manual merge");
        assert_eq!(index.delta_len(), 0);
        assert_eq!(index.len(), 64 + 8 + 1);
        assert_eq!(index.allocated_rows() as usize, index.len());
        let out = index.point_lookup_batch(&[200]).unwrap();
        assert_eq!(out.results[0].hit_count, 1);
    }

    #[test]
    fn no_second_compaction_starts_while_one_is_in_flight() {
        let device = Device::default_eval();
        let keys: Vec<u64> = (0..512).collect();
        let values = vec![1u64; 512];
        let mut index =
            DynamicRtIndex::build(&device, &keys, &values, background_config(4)).unwrap();
        let first = index
            .insert_batch(&[1000, 1001, 1002, 1003], &[0; 4])
            .unwrap();
        assert!(first.compaction_began);
        assert!(index.compaction_in_flight());
        // Far over budget again, but an in-flight rebuild defers the next
        // trigger: a second freeze can only begin once the first swap has
        // landed (which this very batch may perform).
        let second = index
            .insert_batch(&[2000, 2001, 2002, 2003], &[0; 4])
            .unwrap();
        assert!(
            !second.compaction_began || second.compaction.is_some(),
            "a second freeze requires the first swap to have landed"
        );
        index.wait_for_compaction();
        index.compact_now();
        assert!(!index.compaction_in_flight());
        assert_eq!(index.len(), 512 + 8);
        assert_eq!(index.delta_len(), 0);
    }

    #[test]
    fn swap_resets_the_row_allocator_when_the_fresh_delta_is_empty() {
        let device = Device::default_eval();
        let keys: Vec<u64> = (0..128).collect();
        let values = vec![0u64; 128];
        let mut index =
            DynamicRtIndex::build(&device, &keys, &values, background_config(8)).unwrap();
        let mut oracle = DynamicOracle::new(&keys, &values);

        // Trigger a freeze; nothing is inserted into the fresh generation,
        // so the swap can reclaim the rowID space like a synchronous merge.
        let fresh: Vec<u64> = (500..508).collect();
        let out = index.insert_batch(&fresh, &[1; 8]).unwrap();
        oracle.insert_batch(&fresh, &[1; 8]);
        assert!(out.compaction_began);
        oracle.begin_compaction();
        index.wait_for_compaction().expect("rebuild in flight");
        oracle.finish_compaction();
        assert_eq!(index.allocated_rows(), 136, "allocator reset to snapshot");

        // The next insert lands right after the snapshot, on both sides.
        index.insert_batch(&[900], &[9]).unwrap();
        oracle.insert_batch(&[900], &[9]);
        assert_eq!(index.point_lookup_batch(&[900]).unwrap().results[0], {
            oracle.point(900)
        });
        assert_eq!(oracle.point(900).first_row, 136);
    }

    #[test]
    fn synchronous_compaction_reports_quality() {
        let device = Device::default_eval();
        let keys: Vec<u64> = (0..128).collect();
        let values = vec![1u64; 128];
        let mut index = DynamicRtIndex::build(
            &device,
            &keys,
            &values,
            DynamicRtConfig::default().with_policy(CompactionPolicy::never()),
        )
        .unwrap();
        index.insert_batch(&[500, 501], &[5, 5]).unwrap();
        let event = index.compact_now().compaction.expect("merge event");
        assert!(!event.background);
        assert!(event.quality.sah_cost > 0.0);
        assert!(event.quality.leaf_count > 0);
        assert_eq!(event.live_rows, 130);
    }
}

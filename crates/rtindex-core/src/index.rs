//! The RTIndeX index structure (RX).
//!
//! An [`RtIndex`] is a secondary index over a GPU-resident column of `u64`
//! keys. Building it converts every key into a scene primitive whose position
//! in the primitive buffer equals the key's rowID, then builds (and usually
//! compacts) a BVH over the scene. Point and range lookups are answered by
//! launching one raytracing pipeline thread per lookup; the any-hit program
//! records the rowIDs of all intersected primitives.
//!
//! The evaluation methodology of the paper is built in: a lookup can
//! optionally be combined with a fetch from a value column of the same
//! length, and the per-lookup sum of fetched values is returned, simulating
//! the typical use of a secondary index.

use gpu_device::{Device, DeviceAlloc};
use optix_sim::{
    launch_routed, AccelBuildOptions, AnyHitControl, FinishCtx, GeometryAccel, LaunchMetrics,
    ProgramSet, RayQueue, Route,
};
use rtx_bvh::prefetch;

use crate::config::RtIndexConfig;
use crate::error::RtIndexError;
use crate::key_scene::KeyScene;
use crate::ray_strategy::{point_lookup_ray, range_lookup_rays};

// The result types are shared by every backend and live in `rtx-query`,
// the single canonical path (the historical `rtindex_core::{MISS, ...}`
// re-exports are gone).
use rtx_query::{BatchOutcome, LookupResult, MISS};

/// The RTIndeX secondary index.
#[derive(Debug)]
pub struct RtIndex {
    config: RtIndexConfig,
    device: Device,
    gas: GeometryAccel,
    /// The indexed key column (kept for updates/rebuilds, like the key
    /// array of the paper's setup).
    keys: Vec<u64>,
    /// Device memory the key column occupies.
    keys_alloc: DeviceAlloc,
    key_count: usize,
}

impl RtIndex {
    /// Builds an index over `keys` on `device` using `config`.
    ///
    /// The position of each key in the slice is its rowID.
    pub fn build(
        device: &Device,
        keys: &[u64],
        config: RtIndexConfig,
    ) -> Result<Self, RtIndexError> {
        Self::validate_build(&config, keys)?;

        let keys_alloc = device.reserve(keys.len() as u64 * 8);
        let gas = GeometryAccel::build(
            device,
            &Self::scene(&config, keys),
            &Self::accel_options(&config),
        );

        Ok(RtIndex {
            config,
            device: device.clone(),
            gas,
            keys: keys.to_vec(),
            keys_alloc,
            key_count: keys.len(),
        })
    }

    /// The build-time validity checks, shared by [`RtIndex::build`] and
    /// [`RtIndex::build_async`] — the async path relies on them having run
    /// on the calling thread so the background build cannot fail.
    fn validate_build(config: &RtIndexConfig, keys: &[u64]) -> Result<(), RtIndexError> {
        if !config.key_mode.supports_primitive(config.primitive) {
            return Err(RtIndexError::UnsupportedPrimitive {
                mode: config.key_mode,
                primitive: config.primitive,
            });
        }
        let max_key = config.key_mode.max_key();
        if let Some(&bad) = keys.iter().find(|&&k| k > max_key) {
            return Err(RtIndexError::KeyOutOfRange {
                key: bad,
                mode: config.key_mode,
                max_key,
            });
        }
        Ok(())
    }

    fn accel_options(config: &RtIndexConfig) -> AccelBuildOptions {
        AccelBuildOptions {
            allow_update: config.allow_update,
            compact: config.compact,
            max_leaf_size: config.max_leaf_size,
            builder: config.builder,
            ..AccelBuildOptions::default()
        }
    }

    /// Starts building an index on a background thread and returns a handle
    /// to claim it with. The build runs through the same staged pipeline as
    /// [`RtIndex::build`] (keys are validated up front, on the calling
    /// thread), so the caller can keep serving lookups from an existing
    /// index while the replacement is constructed — the mechanism behind
    /// `rtx-delta`'s background compaction.
    pub fn build_async(
        device: &Device,
        keys: Vec<u64>,
        config: RtIndexConfig,
    ) -> Result<PendingIndexBuild, RtIndexError> {
        Self::validate_build(&config, &keys)?;
        let device = device.clone();
        Ok(PendingIndexBuild {
            handle: std::thread::Builder::new()
                .name("rtx-index-build".to_string())
                .spawn(move || {
                    RtIndex::build(&device, &keys, config)
                        .expect("keys validated before the background build")
                })
                .expect("spawn index build thread"),
        })
    }

    /// The scene of `keys` under the configured key mode and primitive
    /// kind, which a build or refit reads its primitives from.
    fn scene<'k>(config: &RtIndexConfig, keys: &'k [u64]) -> KeyScene<'k> {
        KeyScene::new(keys, config.key_mode, config.primitive)
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> &RtIndexConfig {
        &self.config
    }

    /// The device the index lives on.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Number of indexed keys.
    pub fn key_count(&self) -> usize {
        self.key_count
    }

    /// The indexed key column.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// The underlying acceleration structure.
    pub fn accel(&self) -> &GeometryAccel {
        &self.gas
    }

    /// Device memory occupied by the index structure itself (primitive
    /// buffer + BVH), excluding the original key column.
    pub fn index_memory_bytes(&self) -> u64 {
        self.gas.memory_bytes()
    }

    /// Device memory occupied including the key column the index was built
    /// from.
    pub fn total_memory_bytes(&self) -> u64 {
        self.gas.memory_bytes() + self.keys_alloc.bytes()
    }

    /// Build metrics of the most recent build or update.
    pub fn build_metrics(&self) -> &optix_sim::BuildMetrics {
        self.gas.metrics()
    }

    fn check_values(&self, values: Option<&[u64]>) -> Result<(), RtIndexError> {
        if let Some(v) = values {
            if v.len() != self.key_count {
                return Err(RtIndexError::ValueColumnLengthMismatch {
                    expected: self.key_count,
                    actual: v.len(),
                });
            }
        }
        Ok(())
    }

    fn check_live_mask(&self, live: Option<&[bool]>) -> Result<(), RtIndexError> {
        if let Some(mask) = live {
            if mask.len() != self.key_count {
                return Err(RtIndexError::LiveMaskLengthMismatch {
                    expected: self.key_count,
                    actual: mask.len(),
                });
            }
        }
        Ok(())
    }

    /// Answers a batch of point lookups.
    ///
    /// Every query key is looked up with one pipeline thread. When `values`
    /// is supplied (one value per rowID), the values of all qualifying rows
    /// are fetched and summed per lookup, mirroring the paper's secondary-
    /// index methodology.
    pub fn point_lookup_batch(
        &self,
        queries: &[u64],
        values: Option<&[u64]>,
    ) -> Result<BatchOutcome, RtIndexError> {
        self.point_lookup_batch_masked(queries, values, None)
    }

    /// Answers a batch of point lookups against a *masked* view of the
    /// index: rowIDs whose entry in `live` is `false` are discarded by the
    /// any-hit program before they reach the result, as if a validity bitmap
    /// resided next to the primitive buffer.
    ///
    /// This is the reconciliation hook used by the dynamic-update layer
    /// (`rtx-delta`): deletes tombstone base rows by clearing their bit
    /// instead of rebuilding the BVH. `live.len()` must equal
    /// [`RtIndex::key_count`].
    pub fn point_lookup_batch_masked(
        &self,
        queries: &[u64],
        values: Option<&[u64]>,
        live: Option<&[bool]>,
    ) -> Result<BatchOutcome, RtIndexError> {
        self.point_lookup_batch_routed(queries, values, live, Route::for_accel(&self.gas))
    }

    /// [`RtIndex::point_lookup_batch_masked`] on the host route `route`
    /// instead of the one the index's size selects.
    fn point_lookup_batch_routed(
        &self,
        queries: &[u64],
        values: Option<&[u64]>,
        live: Option<&[bool]>,
        route: Route,
    ) -> Result<BatchOutcome, RtIndexError> {
        self.check_values(values)?;
        self.check_live_mask(live)?;
        let program = PointLookupProgram {
            index: self,
            queries,
            values,
            live,
        };
        let mut results = vec![LookupResult::default(); queries.len()];
        let metrics = launch_routed(
            &self.device,
            &self.gas,
            &program,
            queries.len(),
            self.lookup_working_set_bytes(values) + mask_bytes(live),
            &mut results,
            route,
        );
        Ok(BatchOutcome { results, metrics })
    }

    /// Answers a batch of inclusive range lookups `[lower, upper]`.
    pub fn range_lookup_batch(
        &self,
        ranges: &[(u64, u64)],
        values: Option<&[u64]>,
    ) -> Result<BatchOutcome, RtIndexError> {
        self.range_lookup_batch_masked(ranges, values, None)
    }

    /// Answers a batch of inclusive range lookups against a masked view of
    /// the index (see [`RtIndex::point_lookup_batch_masked`]).
    pub fn range_lookup_batch_masked(
        &self,
        ranges: &[(u64, u64)],
        values: Option<&[u64]>,
        live: Option<&[bool]>,
    ) -> Result<BatchOutcome, RtIndexError> {
        self.range_lookup_batch_routed(ranges, values, live, Route::for_accel(&self.gas))
    }

    /// [`RtIndex::range_lookup_batch_masked`] on the host route `route`.
    fn range_lookup_batch_routed(
        &self,
        ranges: &[(u64, u64)],
        values: Option<&[u64]>,
        live: Option<&[bool]>,
        route: Route,
    ) -> Result<BatchOutcome, RtIndexError> {
        self.check_values(values)?;
        self.check_live_mask(live)?;
        // Validate ranges up front so errors surface deterministically
        // instead of inside worker threads.
        for &(l, u) in ranges {
            range_lookup_rays(&self.config.key_mode, self.config.range_ray, l, u, |_| {})?;
        }
        let program = RangeLookupProgram {
            index: self,
            ranges,
            values,
            live,
        };
        let mut results = vec![LookupResult::default(); ranges.len()];
        let metrics = launch_routed(
            &self.device,
            &self.gas,
            &program,
            ranges.len(),
            self.lookup_working_set_bytes(values) + mask_bytes(live),
            &mut results,
            route,
        );
        Ok(BatchOutcome { results, metrics })
    }

    /// Collects the *individual* qualifying rowIDs of each query key, in
    /// ascending order, instead of aggregating them.
    ///
    /// This is the second reconciliation hook of the dynamic-update layer:
    /// a delete is answered by rays (exactly like a lookup), and the
    /// returned rowIDs are the entries to tombstone. Rows masked dead by
    /// `live` are omitted, so repeated deletes of the same key are
    /// idempotent.
    pub fn collect_point_rows(
        &self,
        queries: &[u64],
        live: Option<&[bool]>,
    ) -> Result<(Vec<Vec<u32>>, LaunchMetrics), RtIndexError> {
        self.collect_point_rows_routed(queries, live, Route::for_accel(&self.gas))
    }

    /// [`RtIndex::collect_point_rows`] on the host route `route`.
    fn collect_point_rows_routed(
        &self,
        queries: &[u64],
        live: Option<&[bool]>,
        route: Route,
    ) -> Result<(Vec<Vec<u32>>, LaunchMetrics), RtIndexError> {
        self.check_live_mask(live)?;
        let program = RowCollectProgram {
            index: self,
            queries,
            live,
        };
        let mut rows: Vec<Vec<u32>> = vec![Vec::new(); queries.len()];
        let metrics = launch_routed(
            &self.device,
            &self.gas,
            &program,
            queries.len(),
            mask_bytes(live),
            &mut rows,
            route,
        );
        Ok((rows, metrics))
    }

    /// Bytes of device data a lookup batch touches besides the acceleration
    /// structure (the value column, when supplied).
    fn lookup_working_set_bytes(&self, values: Option<&[u64]>) -> u64 {
        values.map(|v| (v.len() * 8) as u64).unwrap_or(0)
    }

    /// Applies an update by refitting the existing BVH to a new key buffer of
    /// identical length (OptiX update semantics: no keys may be added or
    /// removed, only changed).
    ///
    /// Requires the index to have been built with
    /// [`RtIndexConfig::updatable`]. The paper finds this path degrades
    /// lookup performance when keys move far and recommends
    /// [`RtIndex::rebuild`] instead; both are provided so the trade-off can
    /// be measured.
    pub fn update_keys(&mut self, new_keys: &[u64]) -> Result<(), RtIndexError> {
        if !self.config.allow_update {
            return Err(RtIndexError::UpdatesNotEnabled);
        }
        if new_keys.len() != self.key_count {
            return Err(RtIndexError::KeyCountChanged {
                expected: self.key_count,
                actual: new_keys.len(),
            });
        }
        let max_key = self.config.key_mode.max_key();
        if let Some(&bad) = new_keys.iter().find(|&&k| k > max_key) {
            return Err(RtIndexError::KeyOutOfRange {
                key: bad,
                mode: self.config.key_mode,
                max_key,
            });
        }
        self.gas
            .update(&self.device, &Self::scene(&self.config, new_keys))
            .map_err(|_| RtIndexError::UpdatesNotEnabled)?;
        // The device uploads the new column before it frees the old one.
        self.keys_alloc = self.device.reserve(new_keys.len() as u64 * 8);
        self.keys.copy_from_slice(new_keys);
        Ok(())
    }

    /// Rebuilds the index from scratch over a new key column (which may have
    /// a different length). This is the update strategy the paper selects.
    /// The rebuild runs through the staged parallel pipeline (see
    /// [`RtIndex::build`]); use [`RtIndex::build_async`] to rebuild without
    /// blocking the serving thread.
    pub fn rebuild(&mut self, new_keys: &[u64]) -> Result<(), RtIndexError> {
        let rebuilt = RtIndex::build(&self.device, new_keys, self.config)?;
        *self = rebuilt;
        Ok(())
    }
}

/// An [`RtIndex`] build running on a background thread, created by
/// [`RtIndex::build_async`].
#[derive(Debug)]
pub struct PendingIndexBuild {
    handle: std::thread::JoinHandle<RtIndex>,
}

impl PendingIndexBuild {
    /// True once the background build has completed and
    /// [`wait`](PendingIndexBuild::wait) would return without blocking.
    pub fn is_finished(&self) -> bool {
        self.handle.is_finished()
    }

    /// Blocks until the build completes and returns the index.
    pub fn wait(self) -> RtIndex {
        self.handle.join().expect("index build thread panicked")
    }
}

/// RowIDs a payload holds without touching the heap. A point lookup hits one
/// row per matching key, so only heavy duplicates and ranges spill; with
/// seven the payload is 32 bytes.
const INLINE_HITS: usize = 7;

/// Payload of the lookup programs: the rowIDs one ray hit, in hit order.
enum HitCollector {
    Inline { len: u8, rows: [u32; INLINE_HITS] },
    Spilled(Vec<u32>),
}

impl Default for HitCollector {
    fn default() -> Self {
        HitCollector::Inline {
            len: 0,
            rows: [0; INLINE_HITS],
        }
    }
}

impl HitCollector {
    /// The any-hit program of all three lookup programs: every hit is a
    /// result row.
    fn push(&mut self, row: u32) -> AnyHitControl {
        match self {
            HitCollector::Inline { len, rows } if (*len as usize) < INLINE_HITS => {
                rows[*len as usize] = row;
                *len += 1;
            }
            HitCollector::Inline { rows, .. } => {
                let mut spilled = Vec::with_capacity(4 * INLINE_HITS);
                spilled.extend_from_slice(rows);
                spilled.push(row);
                *self = HitCollector::Spilled(spilled);
            }
            HitCollector::Spilled(rows) => rows.push(row),
        }
        AnyHitControl::Continue
    }

    fn rows(&self) -> &[u32] {
        match self {
            HitCollector::Inline { len, rows } => &rows[..*len as usize],
            HitCollector::Spilled(rows) => rows,
        }
    }
}

/// Bytes of the validity bitmap a masked lookup touches (one bit per row,
/// modelled at byte granularity).
fn mask_bytes(live: Option<&[bool]>) -> u64 {
    live.map(|m| m.len().div_ceil(8) as u64).unwrap_or(0)
}

/// Ray-generation + any-hit + finish programs for point lookups.
struct PointLookupProgram<'a> {
    index: &'a RtIndex,
    queries: &'a [u64],
    values: Option<&'a [u64]>,
    live: Option<&'a [bool]>,
}

/// The ray of a point lookup for `key`, emitted unless the key lies outside
/// the representable range and so can never have been inserted (mirrors a
/// bounds check in the real ray-generation program).
fn emit_point_ray(index: &RtIndex, key: u64, rays: &mut RayQueue) {
    let mode = &index.config.key_mode;
    if mode.supports_key(key) {
        rays.emit(point_lookup_ray(mode, index.config.point_ray, key));
    }
}

/// Instructions of the bounds check that turned a point lookup away without
/// a ray.
const OUT_OF_RANGE_CHECK: u64 = 2;

impl ProgramSet for PointLookupProgram<'_> {
    type Payload = HitCollector;
    type Output = LookupResult;

    fn ray_gen(&self, idx: usize, rays: &mut RayQueue) {
        emit_point_ray(self.index, self.queries[idx], rays);
    }

    fn any_hit(&self, payload: &mut HitCollector, prim: u32, _t: f32) -> AnyHitControl {
        payload.push(prim)
    }

    fn finish(
        &self,
        _idx: usize,
        payloads: &[HitCollector],
        device: &mut FinishCtx<'_>,
    ) -> LookupResult {
        if payloads.is_empty() {
            device.add_instructions(OUT_OF_RANGE_CHECK);
        }
        finalize_result(payloads, self.values, self.live, device)
    }

    fn prefetch_finish(&self, payload: &HitCollector) {
        prefetch_values(payload, self.values);
    }
}

/// Ray-generation + any-hit + finish programs for range lookups.
struct RangeLookupProgram<'a> {
    index: &'a RtIndex,
    ranges: &'a [(u64, u64)],
    values: Option<&'a [u64]>,
    live: Option<&'a [bool]>,
}

impl ProgramSet for RangeLookupProgram<'_> {
    type Payload = HitCollector;
    type Output = LookupResult;

    fn ray_gen(&self, idx: usize, rays: &mut RayQueue) {
        let (lower, upper) = self.ranges[idx];
        let config = &self.index.config;
        // Ranges were validated before the launch; a failure here would be
        // a logic error, and since it emits no ray the lookup degrades to a
        // miss.
        let _ = range_lookup_rays(&config.key_mode, config.range_ray, lower, upper, |ray| {
            rays.emit(ray)
        });
    }

    fn any_hit(&self, payload: &mut HitCollector, prim: u32, _t: f32) -> AnyHitControl {
        payload.push(prim)
    }

    fn finish(
        &self,
        _idx: usize,
        payloads: &[HitCollector],
        device: &mut FinishCtx<'_>,
    ) -> LookupResult {
        finalize_result(payloads, self.values, self.live, device)
    }

    fn prefetch_finish(&self, payload: &HitCollector) {
        prefetch_values(payload, self.values);
    }
}

/// Ray-generation + any-hit + finish programs collecting raw rowIDs per
/// query.
struct RowCollectProgram<'a> {
    index: &'a RtIndex,
    queries: &'a [u64],
    live: Option<&'a [bool]>,
}

impl ProgramSet for RowCollectProgram<'_> {
    type Payload = HitCollector;
    type Output = Vec<u32>;

    fn ray_gen(&self, idx: usize, rays: &mut RayQueue) {
        emit_point_ray(self.index, self.queries[idx], rays);
    }

    fn any_hit(&self, payload: &mut HitCollector, prim: u32, _t: f32) -> AnyHitControl {
        payload.push(prim)
    }

    fn finish(
        &self,
        _idx: usize,
        payloads: &[HitCollector],
        device: &mut FinishCtx<'_>,
    ) -> Vec<u32> {
        if payloads.is_empty() {
            device.add_instructions(OUT_OF_RANGE_CHECK);
        }
        let mut rows: Vec<u32> = live_rows(payloads, self.live, device).collect();
        rows.sort_unstable();
        rows
    }
}

/// The rowIDs the rays of one lookup hit — ray order, hit order — without
/// those whose validity bit is cleared. Inspecting the bitmap is charged up
/// front, one byte per row (512 rows share a 64-byte cache line, so
/// neighbouring hits become cache hits).
fn live_rows<'a>(
    payloads: &'a [HitCollector],
    live: Option<&'a [bool]>,
    device: &mut FinishCtx<'_>,
) -> impl Iterator<Item = u32> + 'a {
    let rows = payloads.iter().flat_map(|p| p.rows().iter().copied());
    if live.is_some() {
        for row in rows.clone() {
            device.read_buffer((1 << 62) | (row as u64 / 512), 1);
        }
    }
    rows.filter(move |&row| live.is_none_or(|mask| mask[row as usize]))
}

/// Starts loading the value-column entries of the rows `payload` holds,
/// which [`finalize_result`] will sum.
fn prefetch_values(payload: &HitCollector, values: Option<&[u64]>) {
    if let Some(values) = values {
        for &row in payload.rows() {
            prefetch(&values[row as usize..=row as usize]);
        }
    }
}

/// Turns the rowIDs a lookup's rays collected into a [`LookupResult`],
/// masking tombstoned rows and fetching and summing the projected values
/// when a value column is present.
fn finalize_result(
    payloads: &[HitCollector],
    values: Option<&[u64]>,
    live: Option<&[bool]>,
    device: &mut FinishCtx<'_>,
) -> LookupResult {
    let mut result = LookupResult {
        first_row: MISS,
        hit_count: 0,
        value_sum: 0,
    };
    for row in live_rows(payloads, live, device) {
        if let Some(values) = values {
            // One cache line holds eight u64 values; neighbouring rowIDs
            // share it, which the access classifier turns into cache hits.
            device.read_buffer(row as u64 / 8, 8);
            result.value_sum = result.value_sum.wrapping_add(values[row as usize]);
        }
        result.first_row = result.first_row.min(row);
        result.hit_count += 1;
    }
    result
}

#[cfg(test)]
mod reference_launch;

#[cfg(test)]
mod route_sweep;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomposition::Decomposition;
    use crate::key_mode::KeyMode;
    use crate::ray_strategy::{PointRayStrategy, RangeRayStrategy};
    use optix_sim::{PrimitiveKind, TILE_RAYS, TINY_LAUNCH_RAYS};
    use proptest::prelude::*;

    fn device() -> Device {
        Device::default_eval()
    }

    /// A small shuffled dense key set: keys 0..n in a deterministic
    /// pseudo-random order (rowID i holds key (i * 37 + 11) % n for prime n).
    fn shuffled_keys(n: u64) -> Vec<u64> {
        (0..n).map(|i| (i * 37 + 11) % n).collect()
    }

    #[test]
    fn build_and_point_lookup_round_trip() {
        let dev = device();
        let keys = shuffled_keys(997);
        let index = RtIndex::build(&dev, &keys, RtIndexConfig::default()).expect("build");
        assert_eq!(index.key_count(), 997);

        let queries: Vec<u64> = (0..997).collect();
        let outcome = index.point_lookup_batch(&queries, None).expect("lookup");
        assert_eq!(outcome.results.len(), 997);
        assert_eq!(outcome.hit_count(), 997);
        for (q, r) in queries.iter().zip(&outcome.results) {
            assert_eq!(r.hit_count, 1, "key {q} must have exactly one match");
            assert_eq!(
                keys[r.first_row as usize], *q,
                "rowID must point back at the key"
            );
        }
    }

    #[test]
    fn misses_report_reserved_value() {
        let dev = device();
        let keys: Vec<u64> = (0..100).map(|i| i * 2).collect(); // even keys only
        let index = RtIndex::build(&dev, &keys, RtIndexConfig::default()).expect("build");
        let queries: Vec<u64> = vec![1, 3, 5, 201, 1_000_000];
        let outcome = index.point_lookup_batch(&queries, None).expect("lookup");
        for r in &outcome.results {
            assert_eq!(r.first_row, MISS);
            assert!(!r.is_hit());
        }
        assert_eq!(outcome.hit_count(), 0);
    }

    #[test]
    fn value_aggregation_matches_ground_truth() {
        let dev = device();
        let keys = shuffled_keys(500);
        let values: Vec<u64> = (0..500u64).map(|i| i * 10).collect();
        let index = RtIndex::build(&dev, &keys, RtIndexConfig::default()).expect("build");
        let queries: Vec<u64> = (0..500).collect();
        let outcome = index
            .point_lookup_batch(&queries, Some(&values))
            .expect("lookup");
        // Ground truth: for each query key, find its rowID and take the value.
        let mut expected_total = 0u64;
        for q in &queries {
            let row = keys.iter().position(|k| k == q).unwrap();
            expected_total += values[row];
        }
        assert_eq!(outcome.total_value_sum(), expected_total);
    }

    #[test]
    fn duplicate_keys_return_all_rows() {
        let dev = device();
        // Every key appears 4 times.
        let keys: Vec<u64> = (0..64u64).flat_map(|k| std::iter::repeat_n(k, 4)).collect();
        let values: Vec<u64> = vec![1; keys.len()];
        let index = RtIndex::build(&dev, &keys, RtIndexConfig::default()).expect("build");
        let outcome = index
            .point_lookup_batch(&[7, 13], Some(&values))
            .expect("lookup");
        for r in &outcome.results {
            assert_eq!(r.hit_count, 4);
            assert_eq!(r.value_sum, 4);
        }
    }

    #[test]
    fn range_lookups_return_qualifying_counts() {
        let dev = device();
        let keys = shuffled_keys(1024);
        let values: Vec<u64> = vec![1; 1024];
        let index = RtIndex::build(&dev, &keys, RtIndexConfig::default()).expect("build");
        let ranges = vec![(0u64, 0u64), (10, 19), (1000, 1023), (2000, 3000)];
        let outcome = index
            .range_lookup_batch(&ranges, Some(&values))
            .expect("lookup");
        assert_eq!(outcome.results[0].hit_count, 1);
        assert_eq!(outcome.results[1].hit_count, 10);
        assert_eq!(outcome.results[1].value_sum, 10);
        assert_eq!(outcome.results[2].hit_count, 24);
        assert_eq!(
            outcome.results[3].hit_count, 0,
            "range beyond the key domain misses"
        );
        assert_eq!(outcome.results[3].first_row, MISS);
    }

    #[test]
    fn all_key_modes_answer_lookups_identically() {
        let dev = device();
        let keys = shuffled_keys(512);
        let queries: Vec<u64> = (0..700).collect(); // includes misses >= 512
        let mut reference: Option<Vec<bool>> = None;
        for mode in KeyMode::all() {
            let config = RtIndexConfig::default().with_key_mode(mode);
            let index = RtIndex::build(&dev, &keys, config).expect("build");
            let outcome = index.point_lookup_batch(&queries, None).expect("lookup");
            let hits: Vec<bool> = outcome.results.iter().map(|r| r.is_hit()).collect();
            match &reference {
                None => reference = Some(hits),
                Some(expected) => assert_eq!(&hits, expected, "mode {} differs", mode.name()),
            }
        }
    }

    #[test]
    fn all_primitive_kinds_answer_lookups_identically() {
        let dev = device();
        let keys = shuffled_keys(256);
        let queries: Vec<u64> = (0..300).collect();
        for primitive in PrimitiveKind::all() {
            let config = RtIndexConfig::default().with_primitive(primitive);
            let index = RtIndex::build(&dev, &keys, config).expect("build");
            let outcome = index.point_lookup_batch(&queries, None).expect("lookup");
            for (q, r) in queries.iter().zip(&outcome.results) {
                assert_eq!(r.is_hit(), *q < 256, "primitive {:?}, key {q}", primitive);
            }
        }
    }

    #[test]
    fn all_ray_strategies_agree() {
        let dev = device();
        let keys = shuffled_keys(256);
        let queries: Vec<u64> = (0..256).collect();
        for strategy in [
            PointRayStrategy::Perpendicular,
            PointRayStrategy::ParallelFromOffset,
            PointRayStrategy::ParallelFromZero,
        ] {
            let config = RtIndexConfig::default().with_point_ray(strategy);
            let index = RtIndex::build(&dev, &keys, config).expect("build");
            let outcome = index.point_lookup_batch(&queries, None).expect("lookup");
            assert_eq!(outcome.hit_count(), 256, "strategy {:?}", strategy);
        }
        for strategy in [
            RangeRayStrategy::ParallelFromOffset,
            RangeRayStrategy::ParallelFromZero,
        ] {
            let config = RtIndexConfig::default().with_range_ray(strategy);
            let index = RtIndex::build(&dev, &keys, config).expect("build");
            let outcome = index
                .range_lookup_batch(&[(64, 127)], None)
                .expect("lookup");
            assert_eq!(outcome.results[0].hit_count, 64, "strategy {:?}", strategy);
        }
    }

    #[test]
    fn sixty_four_bit_keys_work_in_3d_mode() {
        let dev = device();
        let keys: Vec<u64> = vec![
            0,
            u32::MAX as u64,
            1 << 40,
            (1 << 45) + 17,
            u64::MAX - 1,
            u64::MAX,
        ];
        let index = RtIndex::build(&dev, &keys, RtIndexConfig::default()).expect("build");
        let outcome = index.point_lookup_batch(&keys, None).expect("lookup");
        for (i, r) in outcome.results.iter().enumerate() {
            assert!(r.is_hit(), "64-bit key #{i} must be found");
            assert_eq!(keys[r.first_row as usize], keys[i]);
        }
        // A nearby key that was never inserted must miss.
        let miss = index
            .point_lookup_batch(&[(1 << 40) + 1], None)
            .expect("lookup");
        assert!(!miss.results[0].is_hit());
    }

    #[test]
    fn key_out_of_range_is_rejected_at_build() {
        let dev = device();
        let err = RtIndex::build(
            &dev,
            &[1 << 24],
            RtIndexConfig::default().with_key_mode(KeyMode::Naive),
        )
        .unwrap_err();
        assert!(matches!(err, RtIndexError::KeyOutOfRange { .. }));
    }

    #[test]
    fn unsupported_primitive_is_rejected_at_build() {
        let dev = device();
        let err = RtIndex::build(
            &dev,
            &[1, 2, 3],
            RtIndexConfig::default()
                .with_key_mode(KeyMode::Extended)
                .with_primitive(PrimitiveKind::Sphere),
        )
        .unwrap_err();
        assert!(matches!(err, RtIndexError::UnsupportedPrimitive { .. }));
    }

    #[test]
    fn value_column_length_is_validated() {
        let dev = device();
        let index = RtIndex::build(&dev, &[1, 2, 3], RtIndexConfig::default()).expect("build");
        let err = index.point_lookup_batch(&[1], Some(&[10, 20])).unwrap_err();
        assert!(matches!(
            err,
            RtIndexError::ValueColumnLengthMismatch {
                expected: 3,
                actual: 2
            }
        ));
    }

    #[test]
    fn updates_require_updatable_config_and_equal_length() {
        let dev = device();
        let keys = shuffled_keys(64);
        let mut read_only = RtIndex::build(&dev, &keys, RtIndexConfig::default()).expect("build");
        assert!(matches!(
            read_only.update_keys(&keys),
            Err(RtIndexError::UpdatesNotEnabled)
        ));

        let mut updatable =
            RtIndex::build(&dev, &keys, RtIndexConfig::default().updatable()).expect("build");
        assert!(matches!(
            updatable.update_keys(&keys[..32]),
            Err(RtIndexError::KeyCountChanged {
                expected: 64,
                actual: 32
            })
        ));

        // Swap two keys and update: lookups must see the new mapping.
        let mut new_keys = keys.clone();
        new_keys.swap(0, 1);
        updatable.update_keys(&new_keys).expect("update");
        let outcome = updatable
            .point_lookup_batch(&[new_keys[0]], None)
            .expect("lookup");
        assert_eq!(outcome.results[0].first_row, 0);
        assert_eq!(updatable.keys()[0], new_keys[0]);
    }

    #[test]
    fn async_build_answers_like_the_synchronous_build() {
        let dev = device();
        let keys = shuffled_keys(256);
        let pending = RtIndex::build_async(&dev, keys.clone(), RtIndexConfig::default())
            .expect("valid keys start the build");
        let sync = RtIndex::build(&dev, &keys, RtIndexConfig::default()).expect("build");
        let index = pending.wait();
        let queries: Vec<u64> = (0..300).collect();
        let a = index.point_lookup_batch(&queries, None).expect("lookup");
        let b = sync.point_lookup_batch(&queries, None).expect("lookup");
        assert_eq!(a.results, b.results);

        // Invalid keys are rejected up front, before any thread spawns.
        let err = RtIndex::build_async(
            &dev,
            vec![u64::MAX],
            RtIndexConfig::default().with_key_mode(crate::KeyMode::Naive),
        )
        .map(|_| ())
        .expect_err("out-of-range key");
        assert!(matches!(err, RtIndexError::KeyOutOfRange { .. }));
    }

    #[test]
    fn rebuild_replaces_the_key_set() {
        let dev = device();
        let mut index =
            RtIndex::build(&dev, &shuffled_keys(64), RtIndexConfig::default()).expect("build");
        let new_keys: Vec<u64> = (1000..1100).collect();
        index.rebuild(&new_keys).expect("rebuild");
        assert_eq!(index.key_count(), 100);
        let outcome = index
            .point_lookup_batch(&[1000, 1099, 50], None)
            .expect("lookup");
        assert!(outcome.results[0].is_hit());
        assert!(outcome.results[1].is_hit());
        assert!(!outcome.results[2].is_hit());
    }

    #[test]
    fn memory_accounting_is_exposed() {
        let dev = device();
        let index =
            RtIndex::build(&dev, &shuffled_keys(4096), RtIndexConfig::default()).expect("build");
        assert!(index.index_memory_bytes() > 0);
        assert!(index.total_memory_bytes() > index.index_memory_bytes());
        assert!(index.build_metrics().simulated_time_s > 0.0);
        // Triangle primitive buffer alone is 36 bytes per key.
        assert!(index.index_memory_bytes() >= 4096 * 36);
    }

    #[test]
    fn masked_lookups_hide_tombstoned_rows() {
        let dev = device();
        let keys = shuffled_keys(256);
        let values: Vec<u64> = (0..256u64).map(|i| i + 1).collect();
        let index = RtIndex::build(&dev, &keys, RtIndexConfig::default()).expect("build");

        // Tombstone every even rowID.
        let live: Vec<bool> = (0..256).map(|row| row % 2 == 1).collect();
        let queries: Vec<u64> = (0..256).collect();
        let out = index
            .point_lookup_batch_masked(&queries, Some(&values), Some(&live))
            .expect("lookup");
        for (q, r) in queries.iter().zip(&out.results) {
            let row = keys.iter().position(|k| k == q).unwrap();
            if row % 2 == 1 {
                assert_eq!(r.first_row as usize, row);
                assert_eq!(r.value_sum, values[row]);
            } else {
                assert_eq!(r.first_row, MISS, "tombstoned key {q} must miss");
                assert_eq!(r.value_sum, 0);
            }
        }
        assert_eq!(out.hit_count(), 128);

        // Range lookups see only the live half as well.
        let ranges = index
            .range_lookup_batch_masked(&[(0, 255)], Some(&values), Some(&live))
            .expect("range");
        assert_eq!(ranges.results[0].hit_count, 128);

        // An all-live mask behaves like no mask at all.
        let all_live = vec![true; 256];
        let unmasked = index
            .point_lookup_batch(&queries, Some(&values))
            .expect("lookup");
        let masked = index
            .point_lookup_batch_masked(&queries, Some(&values), Some(&all_live))
            .expect("lookup");
        assert_eq!(unmasked.results, masked.results);
    }

    #[test]
    fn masked_lookup_validates_mask_length() {
        let dev = device();
        let index = RtIndex::build(&dev, &[1, 2, 3], RtIndexConfig::default()).expect("build");
        let err = index
            .point_lookup_batch_masked(&[1], None, Some(&[true]))
            .unwrap_err();
        assert!(matches!(
            err,
            RtIndexError::LiveMaskLengthMismatch {
                expected: 3,
                actual: 1
            }
        ));
        let err = index
            .range_lookup_batch_masked(&[(0, 1)], None, Some(&[true]))
            .unwrap_err();
        assert!(matches!(err, RtIndexError::LiveMaskLengthMismatch { .. }));
        let err = index.collect_point_rows(&[1], Some(&[true])).unwrap_err();
        assert!(matches!(err, RtIndexError::LiveMaskLengthMismatch { .. }));
    }

    #[test]
    fn collect_point_rows_returns_sorted_live_rows() {
        let dev = device();
        // Every key appears 4 times.
        let keys: Vec<u64> = (0..32u64).flat_map(|k| std::iter::repeat_n(k, 4)).collect();
        let index = RtIndex::build(&dev, &keys, RtIndexConfig::default()).expect("build");

        let (rows, metrics) = index.collect_point_rows(&[7, 500], None).expect("collect");
        let expected: Vec<u32> = keys
            .iter()
            .enumerate()
            .filter(|(_, &k)| k == 7)
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(rows[0], expected);
        assert!(rows[1].is_empty(), "absent key collects no rows");
        assert_eq!(metrics.kernel.threads_launched, 2);

        // Masked rows are omitted (delete idempotence).
        let mut live = vec![true; keys.len()];
        live[expected[0] as usize] = false;
        live[expected[2] as usize] = false;
        let (rows, _) = index
            .collect_point_rows(&[7], Some(&live))
            .expect("collect");
        assert_eq!(rows[0], vec![expected[1], expected[3]]);
    }

    #[test]
    fn empty_index_reports_only_misses() {
        let dev = device();
        let index = RtIndex::build(&dev, &[], RtIndexConfig::default()).expect("build");
        assert_eq!(index.key_count(), 0);
        let outcome = index.point_lookup_batch(&[1, 2, 3], None).expect("lookup");
        assert_eq!(outcome.hit_count(), 0);
        let ranges = index.range_lookup_batch(&[(0, 100)], None).expect("lookup");
        assert_eq!(ranges.results[0].hit_count, 0);
    }

    #[test]
    fn hit_collector_spills_past_its_inline_rows_and_keeps_hit_order() {
        assert_eq!(std::mem::size_of::<HitCollector>(), 32);
        let mut hits = HitCollector::default();
        assert!(hits.rows().is_empty());
        for row in 0..3 * INLINE_HITS as u32 {
            hits.push(row * 7);
            let expected: Vec<u32> = (0..=row).map(|r| r * 7).collect();
            assert_eq!(hits.rows(), expected);
        }
        assert!(matches!(hits, HitCollector::Spilled(_)));
    }

    /// SplitMix64, so one generated seed spans a whole case.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn assert_charged_alike<T: PartialEq + std::fmt::Debug>(
        what: &str,
        got: &[T],
        metrics: &LaunchMetrics,
        want: &reference_launch::Reference<T>,
    ) {
        assert_eq!(got, want.out, "{what}: results");
        assert_eq!(metrics.kernel, want.kernel, "{what}: kernel counters");
        assert_eq!(metrics.traversal, want.traversal, "{what}: traversal");
        assert_eq!(
            metrics.simulated_time_s.to_bits(),
            want.simulated_time_s.to_bits(),
            "{what}: simulated time"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The wavefront launch reorders the host's work only: against the
        /// one-index-at-a-time reference, point lookups, range lookups
        /// (multi-ray ones included) and row collection return the same
        /// results and charge the device identically, bit for bit, on one
        /// and on two workers, on both host routes, below and above the
        /// tiny-launch threshold and across tile boundaries.
        #[test]
        fn prop_wavefront_launch_charges_like_the_one_index_at_a_time_launch(
            mode in 0usize..4,
            primitive in 0usize..3,
            point_ray in 0usize..3,
            range_ray in 0usize..2,
            with_values in any::<bool>(),
            with_mask in any::<bool>(),
            fits_in_l2 in any::<bool>(),
            size in 0usize..4,
            seed in any::<u64>(),
        ) {
            let mut rng = seed;
            // Rows of 16 keys in the last mode: almost every range needs
            // several rays there.
            let mode = [
                KeyMode::Naive,
                KeyMode::Extended,
                KeyMode::three_d_default(),
                KeyMode::ThreeD(Decomposition::new(4, 6, 6)),
            ][mode];
            let primitive = Some(PrimitiveKind::all()[primitive])
                .filter(|&p| mode.supports_primitive(p))
                .unwrap_or_default();
            let config = RtIndexConfig::default()
                .with_key_mode(mode)
                .with_primitive(primitive)
                .with_point_ray([
                    PointRayStrategy::Perpendicular,
                    PointRayStrategy::ParallelFromOffset,
                    PointRayStrategy::ParallelFromZero,
                ][point_ray])
                .with_range_ray([
                    RangeRayStrategy::ParallelFromOffset,
                    RangeRayStrategy::ParallelFromZero,
                ][range_ray]);

            // Keys from a domain half (duplicates) or four times (gaps) the
            // key count; in the default 3D mode it straddles a row boundary.
            let n = 1 + (next(&mut rng) % 400) as usize;
            let domain = if next(&mut rng).is_multiple_of(2) { n as u64 / 2 + 1 } else { 4 * n as u64 };
            let base = match mode {
                KeyMode::ThreeD(d) if d == Decomposition::DEFAULT => (1 << 23) - domain / 2,
                _ => 0,
            };
            let keys: Vec<u64> = (0..n).map(|_| base + next(&mut rng) % domain).collect();
            let values: Vec<u64> = (0..n).map(|_| next(&mut rng) % 1000).collect();
            let mask: Vec<bool> = (0..n).map(|_| next(&mut rng) % 10 < 7).collect();
            let values = with_values.then_some(&values[..]);
            let live = with_mask.then_some(&mask[..]);

            let lookups = [7, 300, 2 * TINY_LAUNCH_RAYS + 13, 2 * TILE_RAYS + 77][size];
            let max_key = mode.max_key();
            let queries: Vec<u64> = (0..lookups)
                .map(|_| match next(&mut rng) % 16 {
                    // Beyond what the mode represents: no ray at all.
                    0 if max_key < u64::MAX => max_key + 1 + next(&mut rng) % 100,
                    _ => base + next(&mut rng) % (domain + domain / 4 + 2),
                })
                .collect();
            let ranges: Vec<(u64, u64)> = (0..lookups / 4 + 1)
                .map(|_| {
                    let lower = base + next(&mut rng) % domain;
                    let upper = (lower + next(&mut rng) % 48).min(max_key);
                    // Now and then inverted: no ray, a miss.
                    if next(&mut rng).is_multiple_of(16) { (upper + 1, lower) } else { (lower, upper) }
                })
                .collect();
            let collect = &queries[..lookups.min(500)];

            // With an L2 smaller than any index the classifier's LRU decides
            // between L1, L2 and DRAM, so the order of the charges shows in
            // the counters; with the real L2 everything is an L2 hit.
            let mut spec = gpu_device::DeviceSpec::rtx_4090();
            if !fits_in_l2 {
                spec.l2_bytes = 1024;
            }
            let device = Device::new(spec);
            let index = RtIndex::build(&device, &keys, config).expect("build");
            for workers in ["1", "2"] {
                std::env::set_var("RTX_WORKERS", workers);
                let points = reference_launch::point_lookup_batch(&index, &queries, values, live);
                let in_ranges = reference_launch::range_lookup_batch(&index, &ranges, values, live);
                let row_sets = reference_launch::collect_point_rows(&index, collect, live);
                for route in [Route::OneAtATime, Route::Interleaved] {
                    let what = |kind: &str| {
                        format!("{kind}, {workers} worker(s), {route:?}, {config:?}")
                    };

                    let got = index
                        .point_lookup_batch_routed(&queries, values, live, route)
                        .expect("points");
                    assert_charged_alike(&what("points"), &got.results, &got.metrics, &points);

                    let got = index
                        .range_lookup_batch_routed(&ranges, values, live, route)
                        .expect("ranges");
                    assert_charged_alike(&what("ranges"), &got.results, &got.metrics, &in_ranges);

                    let (rows, metrics) =
                        index.collect_point_rows_routed(collect, live, route).expect("rows");
                    assert_charged_alike(&what("rows"), &rows, &metrics, &row_sets);
                }
            }
            std::env::remove_var("RTX_WORKERS");
        }
    }
}

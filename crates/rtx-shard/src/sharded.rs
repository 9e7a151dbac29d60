//! [`ShardedIndex`]: N inner backends behind one [`SecondaryIndex`].
//!
//! The key space is cut by a [`KeyRouter`] (hash or contiguous-range, see
//! [`partition`](crate::partition)); each shard runs its own inner backend
//! built from the registry, over the slice of the column pair it owns. A
//! mixed [`QueryBatch`] is planned into per-shard sub-batches
//! ([`ScatterPlan`]), the sub-batches execute concurrently on the
//! `gpu-device` worker pool, and the per-shard outcomes are gathered back
//! into submission order with merged launch metrics.
//!
//! ## Global rowIDs
//!
//! Inner backends number rows by their position in the shard's local
//! column, but callers must see the *global* rowIDs of the original column
//! (a sharded backend answers exactly like its unsharded counterpart, which
//! the property suite asserts). Each shard therefore keeps a local→global
//! [`RowMirror`]: built from the scatter of the build column and fed, write
//! by write, the global rowIDs the batch appended plus whatever renumbering
//! the inner backend *reports* ([`UpdateReport::renumbered`]) — the shard
//! never re-derives which rows a delete or a compaction removed. Because a
//! shard's local order is a subsequence of global order, translating the
//! inner `first_row` through the mirror and taking the minimum across
//! shards yields the global first row.
//!
//! Global rowIDs stay where they are through every batch, every
//! compaction a shard runs on its own, every background swap and every
//! [`rebalance`](ShardedIndex::rebalance). Only an explicit
//! [`compact`](UpdatableIndex::compact) moves them: it renumbers them
//! densely, keeping their order, exactly as the monolithic backend does,
//! so the compacted index is a plain build over its
//! [`checkpoint_rows`](UpdatableIndex::checkpoint_rows).

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use gpu_device::executor::{parallel_map, parallel_tasks};
use rtx_query::{
    check_shard_count, ArenaPool, BatchOutcome, Capabilities, ExecArena, IndexBackend,
    IndexBuildMetrics, IndexError, IndexSpec, KeyRouter, MemoryUsage, Partitioning, QueryBatch,
    QueryOutcome, RebalanceReport, Registry, RowMirror, ScatterPlan, SecondaryIndex, ShardLoad,
    ShardSpec, SpecName, UpdatableIndex, UpdateReport, MISS,
};

use crate::partition::{HashPartitioner, RangePartitioner, HASH_SLOTS};

/// The router of a sharded index: what a rebalance pass reasons about and
/// replaces.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Router {
    /// Hash partitioning through a slot table.
    Hash(HashPartitioner),
    /// Range partitioning with per-shard upper bounds.
    Range(RangePartitioner),
}

impl KeyRouter for Router {
    fn shard_count(&self) -> usize {
        match self {
            Router::Hash(router) => router.shard_count(),
            Router::Range(router) => router.shard_count(),
        }
    }

    fn shard_of_point(&self, key: u64) -> usize {
        match self {
            Router::Hash(router) => router.shard_of_point(key),
            Router::Range(router) => router.shard_of_point(key),
        }
    }

    fn shards_of_range(&self, lower: u64, upper: u64) -> Vec<(usize, (u64, u64))> {
        match self {
            Router::Hash(router) => router.shards_of_range(lower, upper),
            Router::Range(router) => router.shards_of_range(lower, upper),
        }
    }
}

struct Shard {
    /// Read-only or updatable, as its registry name resolved.
    backend: IndexBackend,
    /// Local→global rowIDs (see the module docs).
    rows: RowMirror,
    /// Primitive operations routed to this shard (lookups plus update rows)
    /// since build or the last rebalance — the hot-shard detection signal.
    ops: AtomicU64,
}

impl Shard {
    /// Rewrites an outcome's rowIDs from shard-local to global.
    fn translate(&self, mut outcome: QueryOutcome) -> QueryOutcome {
        for r in &mut outcome.results {
            if r.first_row != MISS {
                r.first_row = self.rows.global(r.first_row);
            }
        }
        outcome
    }
}

/// A partitioned index: one registered backend per shard behind the
/// ordinary [`SecondaryIndex`] interface, with mixed batches scattered
/// across the shards and executed in parallel. It takes writes (through
/// [`UpdatableIndex`]) exactly when every shard does.
///
/// Build it through the registry by name (`"RX@8"`, `"SA@4:range"`,
/// `"RXD@2"`, once [`install_sharding`](crate::install_sharding) ran) or
/// directly via [`ShardedIndex::build`].
pub struct ShardedIndex {
    /// Interned so hot error paths clone a pointer, not a String.
    label: Arc<str>,
    router: Router,
    shards: Vec<Shard>,
    capabilities: Capabilities,
    has_values: bool,
    build_metrics: IndexBuildMetrics,
    /// Next global rowID handed to an insert (u64 so the overflow check is
    /// trivial; valid rowIDs stay below [`MISS`]).
    next_row: u64,
    /// Per-slot op counters under hash routing (one per hash slot), `None`
    /// under range routing. The per-shard counters say *that* a shard is
    /// hot; these say *which* hash slots make it hot — what a rebalance
    /// pass needs to move the right rows.
    slot_ops: Option<Vec<AtomicU64>>,
    /// Pooled scatter plans, replanned in place per submission.
    plan_pool: Mutex<Vec<ScatterPlan>>,
    arena_pool: ArenaPool,
}

impl std::fmt::Debug for ShardedIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedIndex")
            .field("label", &self.label)
            .field("shards", &self.shards.len())
            .field("key_count", &self.key_count())
            .field("capabilities", &self.capabilities)
            .finish()
    }
}

/// Per-slot op counters for a router: hash routing tracks every point
/// key's hash slot so a rebalance pass knows which slots carry the
/// traffic; range routing has no slots (its pass reweights keys by
/// shard-level op density instead).
fn slot_counters(router: &Router) -> Option<Vec<AtomicU64>> {
    matches!(router, Router::Hash(_)).then(|| (0..HASH_SLOTS).map(|_| AtomicU64::new(0)).collect())
}

/// Routes every `(key, value)` of the build column to its shard, keeping
/// the global row order within each shard.
struct BuildScatter {
    keys: Vec<Vec<u64>>,
    values: Option<Vec<Vec<u64>>>,
    assigned: Vec<Vec<u32>>,
}

fn scatter_build_columns(router: &dyn KeyRouter, spec: &IndexSpec<'_>) -> BuildScatter {
    let shards = router.shard_count();
    let mut scatter = BuildScatter {
        keys: vec![Vec::new(); shards],
        values: spec.values().map(|_| vec![Vec::new(); shards]),
        assigned: vec![Vec::new(); shards],
    };
    for (row, &key) in spec.keys.iter().enumerate() {
        let s = router.shard_of_point(key);
        scatter.keys[s].push(key);
        if let (Some(per_shard), Some(values)) = (&mut scatter.values, spec.values()) {
            per_shard[s].push(values[row]);
        }
        scatter.assigned[s].push(row as u32);
    }
    scatter
}

fn and_capabilities(a: Capabilities, b: Capabilities) -> Capabilities {
    Capabilities {
        range_lookups: a.range_lookups && b.range_lookups,
        duplicate_keys: a.duplicate_keys && b.duplicate_keys,
        full_64bit_keys: a.full_64bit_keys && b.full_64bit_keys,
        updates: a.updates && b.updates,
    }
}

impl ShardedIndex {
    /// Builds a sharded backend for `spec` (one `spec.backend` instance
    /// per shard, each resolved through
    /// [`Registry::build_backend`] with `index`'s builder selection) over
    /// the columns of `index`. It takes writes exactly when every shard
    /// does. A shard count outside [`check_shard_count`]'s bound fails
    /// before anything is allocated. The index's name is the spec name of
    /// what it built, printed by [`SpecName`].
    pub fn build(
        registry: &Registry,
        spec: &ShardSpec,
        index: &IndexSpec<'_>,
    ) -> Result<Self, IndexError> {
        let label = SpecName {
            backend: spec.backend.clone(),
            builder: index.builder,
            shard: Some((spec.shards, spec.partitioning)),
            ..SpecName::default()
        }
        .to_string();
        check_shard_count(&label, spec.shards)?;
        if index.keys.len() as u64 >= MISS as u64 {
            return Err(IndexError::CapacityOverflow {
                backend: label.into(),
                keys: index.keys.len(),
                limit: MISS as u64 - 1,
            });
        }

        let router = match spec.partitioning {
            Partitioning::Hash => Router::Hash(HashPartitioner::new(spec.shards)),
            Partitioning::Range => {
                Router::Range(RangePartitioner::from_keys(index.keys, spec.shards))
            }
        };

        let start = Instant::now();
        let scatter = scatter_build_columns(&router, index);
        let values_per_shard: Vec<Option<Vec<u64>>> = match scatter.values {
            Some(v) => v.into_iter().map(Some).collect(),
            None => vec![None; spec.shards],
        };
        let shard_inputs: Vec<(Vec<u64>, Option<Vec<u64>>)> =
            scatter.keys.into_iter().zip(values_per_shard).collect();

        // Build every inner backend in parallel on the worker pool; each
        // build allocates against (and is profiled by) the shared device.
        let built: Vec<Result<IndexBackend, IndexError>> =
            parallel_map(shard_inputs, |_, (keys, values)| {
                let shard = IndexSpec {
                    device: index.device,
                    keys: &keys,
                    values: values.map(Arc::from),
                    // Builder selection propagates to every shard; so does
                    // a durability request, which tells each inner backend
                    // to prepare for the external wrapper (the wrapper owns
                    // the WAL — inner backends never persist themselves).
                    builder: index.builder,
                    durability: index.durability.clone(),
                    // Composite schemas wrap *outside* the shard layer, so
                    // inner shards always see schema-free specs.
                    key_schema: None,
                    rows: None,
                };
                registry.build_backend(&spec.backend, &shard)
            });

        let mut shards = Vec::with_capacity(built.len());
        for (backend, assigned) in built.into_iter().zip(scatter.assigned) {
            shards.push(Shard {
                backend: backend?,
                rows: RowMirror::dense(assigned),
                ops: AtomicU64::new(0),
            });
        }

        let writers = shards
            .iter()
            .all(|s| matches!(s.backend, IndexBackend::Write(_)));
        let capabilities = shards
            .iter()
            .map(|s| s.backend.read().capabilities())
            .reduce(and_capabilities)
            .map(|caps| Capabilities {
                updates: caps.updates && writers,
                ..caps
            })
            .expect("at least one shard");
        let build_metrics = IndexBuildMetrics {
            simulated_time_s: shards
                .iter()
                .map(|s| s.backend.read().build_metrics().simulated_time_s)
                .sum(),
            host_time: start.elapsed(),
            scratch_bytes: shards
                .iter()
                .map(|s| s.backend.read().build_metrics().scratch_bytes)
                .sum(),
        };

        Ok(ShardedIndex {
            label: label.into(),
            slot_ops: slot_counters(&router),
            router,
            shards,
            capabilities,
            has_values: index.values.is_some(),
            build_metrics,
            next_row: index.keys.len() as u64,
            plan_pool: Mutex::new(Vec::new()),
            arena_pool: ArenaPool::new(),
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard `(backend name, live key count, memory bytes)` — the
    /// balance view a service operator would watch.
    pub fn shard_stats(&self) -> Vec<(String, usize, u64)> {
        self.shards
            .iter()
            .map(|s| {
                let ix = s.backend.read();
                (ix.name().to_string(), ix.key_count(), ix.memory_bytes())
            })
            .collect()
    }

    /// Lands every shard's deferred reorganisation — the completed ones
    /// without blocking, or with `wait` every in-flight one — following
    /// each reported renumbering in the shard's row mirror, and returns the
    /// per-shard landed counts.
    fn land_shard_reorganisations(&mut self, wait: bool) -> Result<Vec<u64>, IndexError> {
        self.writable()?;
        self.shards
            .iter_mut()
            .map(|shard| {
                let writer = shard.backend.write().expect("writability checked");
                let report = if wait {
                    writer.await_reorganisation()?
                } else {
                    writer.poll_reorganisation()?
                };
                shard.rows.apply(&[], &report);
                Ok(report.reorganisations)
            })
            .collect()
    }

    /// The live `(key, value, global rowID)` triples of every shard, in
    /// shard-local row order — but only when *every* shard is in the clean
    /// state its [`UpdatableIndex::checkpoint_rows`] contract demands and
    /// its row mirror agrees. A rebalance plans its migration from these,
    /// and the sharded `checkpoint_rows` lays them out in global order.
    fn shard_checkpoint_rows(&self) -> Option<Vec<Vec<(u64, u64, u32)>>> {
        self.shards
            .iter()
            .map(|shard| {
                let rows = match &shard.backend {
                    IndexBackend::Write(ix) => ix.checkpoint_rows()?,
                    IndexBackend::Read(_) => return None,
                };
                if shard.rows.len() != rows.len() {
                    return None;
                }
                Some(
                    rows.iter()
                        .zip(0..)
                        .map(|(&(key, value), local)| (key, value, shard.rows.global(local)))
                        .collect(),
                )
            })
            .collect()
    }

    /// Per-shard load snapshot: operations routed since build (or the last
    /// [`rebalance`](Self::rebalance), which resets the counters) plus the
    /// live row count of every shard.
    pub fn load(&self) -> ShardLoad {
        ShardLoad {
            ops: self
                .shards
                .iter()
                .map(|s| s.ops.load(Ordering::Relaxed))
                .collect(),
            rows: self
                .shards
                .iter()
                .map(|s| s.backend.read().key_count() as u64)
                .collect(),
        }
    }

    /// Migrates rows from hot shards to cold ones based on the observed
    /// per-shard op counters, preserving every global rowID (so results —
    /// rowIDs included — stay oracle-exact across the migration).
    ///
    /// Mechanism by partitioning family:
    ///
    /// * **hash** routing reassigns individual slots of its
    ///   [`HashPartitioner`] table — weighted by their *observed per-slot
    ///   op counts* — from the hottest shard to the coldest until their
    ///   load gap closes, so only the rows of the moved slots change shard;
    /// * **range** routing recomputes its bounds as *load-weighted*
    ///   quantiles of the live keys (each key weighted by its shard's ops
    ///   per row), splitting hot spans and merging cold ones.
    ///
    /// Rows whose owner changes are tombstone-deleted from the donor and
    /// re-inserted into the receiver with their original global rowIDs. A
    /// receiver ingests its *entire* new row set in global-rowID order (so
    /// its local→global mirror stays monotone — range `first_row`
    /// translation depends on that); the bulk structural rebuild this
    /// triggers rides each inner backend's two-generation background
    /// compaction, so reads keep serving from the old generation while the
    /// new one builds and writes only stall at the swap. Callers running a
    /// service route this through the write fence (`rtx-serve` does).
    ///
    /// Per-shard op counters reset afterwards, starting a fresh observation
    /// window. Read-only sharded indexes report `UnsupportedOperation`;
    /// single-shard and non-snapshottable backends report an empty pass.
    pub fn rebalance(&mut self) -> Result<RebalanceReport, IndexError> {
        self.writable()?;
        if self.shards.len() < 2 {
            return Ok(RebalanceReport::default());
        }
        // Land anything in flight, then snapshot the live triples —
        // compacting the shards first when one is dirty (delta entries or
        // tombstones outstanding). Global rowIDs stay where they are.
        self.land_shard_reorganisations(true)?;
        let mut reorganisations = 0u64;
        let triples = match self.shard_checkpoint_rows() {
            Some(t) => t,
            None => {
                match self.compact_shards() {
                    Ok(report) => reorganisations += report.reorganisations,
                    Err(IndexError::UnsupportedOperation { .. }) => {
                        return Ok(RebalanceReport::default())
                    }
                    Err(e) => return Err(e),
                }
                match self.shard_checkpoint_rows() {
                    Some(t) => t,
                    None => return Ok(RebalanceReport::default()),
                }
            }
        };

        let new_router = match self.rebalanced_router(&triples) {
            Some(router) => router,
            None => {
                self.reset_shard_ops();
                return Ok(RebalanceReport {
                    moved_rows: 0,
                    reorganisations,
                });
            }
        };

        // Plan every live row's new owner.
        let shard_count = self.shards.len();
        let mut outgoing: Vec<Vec<u64>> = vec![Vec::new(); shard_count];
        let mut incoming: Vec<Vec<(u64, u64, u32)>> = vec![Vec::new(); shard_count];
        let mut moved_rows = 0u64;
        for (s, rows) in triples.iter().enumerate() {
            for &(key, value, global) in rows {
                let owner = new_router.shard_of_point(key);
                if owner != s {
                    outgoing[s].push(key);
                    incoming[owner].push((key, value, global));
                    moved_rows += 1;
                }
            }
        }

        // Per-shard migration plans: donors tombstone the moved keys;
        // receivers re-ingest their full new row set sorted by global
        // rowID so the mirror stays monotone.
        enum Plan {
            Keep,
            Shrink {
                doomed: Vec<u64>,
            },
            Rebuild {
                doomed: Vec<u64>,
                rows: Vec<(u64, u64, u32)>,
            },
        }
        let plans: Vec<Plan> = (0..shard_count)
            .map(|s| {
                if incoming[s].is_empty() && outgoing[s].is_empty() {
                    Plan::Keep
                } else if incoming[s].is_empty() {
                    Plan::Shrink {
                        doomed: distinct(outgoing[s].clone()),
                    }
                } else {
                    let leaving: HashSet<u64> = outgoing[s].iter().copied().collect();
                    let mut rows: Vec<(u64, u64, u32)> = triples[s]
                        .iter()
                        .filter(|(key, _, _)| !leaving.contains(key))
                        .copied()
                        .chain(std::mem::take(&mut incoming[s]))
                        .collect();
                    rows.sort_unstable_by_key(|&(_, _, global)| global);
                    Plan::Rebuild {
                        doomed: distinct(triples[s].iter().map(|&(key, _, _)| key).collect()),
                        rows,
                    }
                }
            })
            .collect();

        let work: Vec<(&mut Shard, Plan)> = self.shards.iter_mut().zip(plans).collect();
        let reports = parallel_map(work, |_, (shard, plan)| -> Result<u64, IndexError> {
            let Shard { backend, rows, .. } = shard;
            let writer = backend.write().expect("writability checked");
            match plan {
                Plan::Keep => Ok(0),
                Plan::Shrink { doomed } => {
                    let report = writer.delete(&doomed)?;
                    rows.apply(&[], &report);
                    Ok(report.reorganisations)
                }
                Plan::Rebuild {
                    doomed,
                    rows: new_rows,
                } => {
                    let deleted = writer.delete(&doomed)?;
                    rows.apply(&[], &deleted);
                    let keys: Vec<u64> = new_rows.iter().map(|&(key, _, _)| key).collect();
                    let values: Vec<u64> = new_rows.iter().map(|&(_, value, _)| value).collect();
                    let globals: Vec<u32> = new_rows.iter().map(|&(_, _, global)| global).collect();
                    let inserted = writer.insert(&keys, &values)?;
                    rows.apply(&globals, &inserted);
                    Ok(deleted.reorganisations + inserted.reorganisations)
                }
            }
        });
        for report in reports {
            reorganisations += report?;
        }

        self.router = new_router;
        self.reset_shard_ops();
        Ok(RebalanceReport {
            moved_rows,
            reorganisations,
        })
    }

    fn reset_shard_ops(&self) {
        for shard in &self.shards {
            shard.ops.store(0, Ordering::Relaxed);
        }
        if let Some(slot_ops) = &self.slot_ops {
            for slot in slot_ops {
                slot.store(0, Ordering::Relaxed);
            }
        }
    }

    /// Computes the load-balanced router from the observed op counters and
    /// the live triples, or `None` when nothing would change (already
    /// balanced, or no data to balance on).
    fn rebalanced_router(&self, triples: &[Vec<(u64, u64, u32)>]) -> Option<Router> {
        let shard_count = self.shards.len();
        let live_rows: usize = triples.iter().map(Vec::len).sum();
        if live_rows == 0 {
            return None;
        }
        let ops: Vec<u64> = self
            .shards
            .iter()
            .map(|s| s.ops.load(Ordering::Relaxed))
            .collect();
        let total_ops: u64 = ops.iter().sum();
        // Shard-level op density (ops per live row): the weight a row
        // carries into a recomputed *range* layout. Hash routing uses the
        // finer per-slot histogram below instead. With no observations yet
        // every row weighs the same (pure placement balancing).
        let density: Vec<f64> = (0..shard_count)
            .map(|s| {
                let rows = triples[s].len() as f64;
                if total_ops == 0 {
                    1.0
                } else if rows == 0.0 {
                    0.0
                } else {
                    ops[s] as f64 / rows
                }
            })
            .collect();

        match &self.router {
            Router::Range(range) => {
                let bounds = weighted_range_bounds(triples, &density, shard_count)?;
                (bounds != range.bounds())
                    .then(|| Router::Range(RangePartitioner::from_bounds(bounds)))
            }
            Router::Hash(hash) => {
                // The observed per-slot histogram is the weight vector:
                // it says *which* slots carry the traffic, so the table
                // moves the genuinely hot slots. (Smearing a shard's ops
                // uniformly over its residents makes every slot of a hot
                // shard look equally warm — the pass then shuffles cold
                // slots while the hot key stays put and never converges.)
                // Rows keep a small placement weight so untouched slots
                // still spread storage; with no observations at all the
                // pass degenerates to pure placement balancing.
                let observed: Vec<u64> = match &self.slot_ops {
                    Some(slot_ops) => slot_ops.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
                    None => vec![0; HASH_SLOTS],
                };
                let observed_total: u64 = observed.iter().sum();
                let row_weight = if observed_total == 0 {
                    1.0
                } else {
                    0.1 * observed_total as f64 / live_rows as f64
                };
                let mut weight: Vec<f64> = observed.iter().map(|&ops| ops as f64).collect();
                for rows in triples {
                    for &(key, _, _) in rows {
                        weight[HashPartitioner::slot_of_key(key)] += row_weight;
                    }
                }
                let mut slots = hash.slots().to_vec();
                rebalance_slot_table(&mut slots, &weight, shard_count)
                    .then(|| Router::Hash(HashPartitioner::from_slots(slots, shard_count)))
            }
        }
    }

    /// Forces a synchronous compaction of every shard, each row mirror
    /// following its shard's renumbering, and merges the per-shard reports.
    /// Global rowIDs stay where they are. Fails if any shard's backend has
    /// no explicit compaction.
    fn compact_shards(&mut self) -> Result<UpdateReport, IndexError> {
        self.writable()?;
        let work: Vec<&mut Shard> = self.shards.iter_mut().collect();
        merge_reports(parallel_map(work, |_, shard| {
            let report = shard
                .backend
                .write()
                .expect("writability checked")
                .compact()?;
            shard.rows.apply(&[], &report);
            Ok(report)
        }))
    }

    /// Renumbers the global rowIDs the row mirrors hold densely, keeping
    /// their order, and resets the allocator past them. Returns the map
    /// under the [`UpdateReport::renumbered`] rule (`map[new] = old`).
    fn renumber_dense(&mut self) -> Vec<u32> {
        let mut new_of = vec![MISS; self.next_row as usize];
        for shard in &self.shards {
            for local in 0..shard.rows.len() as u32 {
                match shard.rows.global(local) {
                    MISS => {}
                    global => new_of[global as usize] = 0,
                }
            }
        }
        let mut renumbered = Vec::new();
        for (old, new) in new_of.iter_mut().enumerate() {
            if *new != MISS {
                *new = renumbered.len() as u32;
                renumbered.push(old as u32);
            }
        }
        for shard in &mut self.shards {
            let outer = (0..shard.rows.len() as u32)
                .map(|local| match shard.rows.global(local) {
                    MISS => MISS,
                    global => new_of[global as usize],
                })
                .collect();
            shard.rows = RowMirror::dense(outer);
        }
        self.next_row = renumbered.len() as u64;
        renumbered
    }

    fn writable(&self) -> Result<(), IndexError> {
        if !self.capabilities.updates {
            return Err(IndexError::UnsupportedOperation {
                backend: Arc::clone(&self.label),
                operation: "updates",
            });
        }
        Ok(())
    }

    /// Splits an update batch by the router, assigning global rowIDs in
    /// batch order, and applies every shard's slice in parallel, feeding
    /// each shard's report to its row mirror and merging the reports. The
    /// value column must match the keys and the assigned rows must fit the
    /// rowID space, or nothing is applied. `values` is ignored for a
    /// delete.
    fn apply_update(
        &mut self,
        kind: UpdateKind,
        keys: &[u64],
        values: &[u64],
    ) -> Result<UpdateReport, IndexError> {
        self.writable()?;
        let assigns_rows = kind != UpdateKind::Delete;
        if assigns_rows {
            if keys.len() != values.len() {
                return Err(IndexError::ValueColumnLengthMismatch {
                    expected: keys.len(),
                    actual: values.len(),
                });
            }
            if self.next_row + keys.len() as u64 >= MISS as u64 {
                return Err(IndexError::CapacityOverflow {
                    backend: Arc::clone(&self.label),
                    keys: keys.len(),
                    limit: (MISS as u64 - 1).saturating_sub(self.next_row),
                });
            }
        }
        let mut slices: Vec<ShardSlice> = (0..self.shards.len())
            .map(|_| ShardSlice::default())
            .collect();
        for (i, &key) in keys.iter().enumerate() {
            let slice = &mut slices[self.router.shard_of_point(key)];
            slice.keys.push(key);
            if assigns_rows {
                slice.values.push(values[i]);
                slice.globals.push(self.next_row as u32);
                self.next_row += 1;
            }
        }
        // Update rows count toward slot heat exactly like lookups do —
        // mirroring the per-shard op counters, which track both.
        if let Some(slot_ops) = &self.slot_ops {
            for &key in keys {
                slot_ops[HashPartitioner::slot_of_key(key)].fetch_add(1, Ordering::Relaxed);
            }
        }
        let work: Vec<(&mut Shard, ShardSlice)> = self.shards.iter_mut().zip(slices).collect();
        merge_reports(parallel_map(work, |_, (shard, slice)| {
            if slice.keys.is_empty() {
                return Ok(UpdateReport::default());
            }
            shard
                .ops
                .fetch_add(slice.keys.len() as u64, Ordering::Relaxed);
            let writer = shard.backend.write().expect("writability checked");
            let report = match kind {
                UpdateKind::Insert => writer.insert(&slice.keys, &slice.values),
                UpdateKind::Delete => writer.delete(&slice.keys),
                UpdateKind::Upsert => writer.upsert(&slice.keys, &slice.values),
            }?;
            shard.rows.apply(&slice.globals, &report);
            Ok(report)
        }))
    }

    /// Executes a ready scatter plan: every non-empty shard sub-batch runs
    /// concurrently on the worker pool through a pooled arena, outcomes are
    /// translated to global rowIDs and gathered into submission order.
    fn execute_planned(&self, plan: &ScatterPlan) -> Result<QueryOutcome, IndexError> {
        let outcomes = parallel_tasks(self.shards.len(), |s| {
            let sub = &plan.sub_ops()[s];
            if sub.is_empty() {
                return Ok(QueryOutcome::default());
            }
            let shard = &self.shards[s];
            shard.ops.fetch_add(sub.len() as u64, Ordering::Relaxed);
            // Point keys also feed the per-slot histogram (each slot maps
            // to exactly one shard, so these adds never contend across the
            // parallel shard tasks). Ranges broadcast and carry no slot.
            if let Some(slot_ops) = &self.slot_ops {
                for &key in sub.point_keys() {
                    slot_ops[HashPartitioner::slot_of_key(key)].fetch_add(1, Ordering::Relaxed);
                }
            }
            self.arena_pool
                .with(|arena| shard.backend.read().execute_in(sub, arena))
                .map(|out| shard.translate(out))
        });
        let mut gathered = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            gathered.push(outcome?);
        }
        Ok(plan.gather(gathered))
    }
}

/// The write an update batch carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UpdateKind {
    /// Fresh rows append.
    Insert,
    /// Every live row holding one of the keys dies.
    Delete,
    /// Delete, then insert one row per pair.
    Upsert,
}

/// One shard's slice of an update batch, in batch order (`values` and
/// `globals` stay empty for a delete).
#[derive(Debug, Clone, Default)]
struct ShardSlice {
    keys: Vec<u64>,
    values: Vec<u64>,
    globals: Vec<u32>,
}

/// Sums per-shard reports into the sharded one. Each shard's renumbering
/// stays inside its row mirror, so the merged report carries none.
fn merge_reports(
    reports: Vec<Result<UpdateReport, IndexError>>,
) -> Result<UpdateReport, IndexError> {
    let mut merged = UpdateReport::default();
    for report in reports {
        let report = report?;
        merged.inserted_rows += report.inserted_rows;
        merged.deleted_rows += report.deleted_rows;
        merged.simulated_time_s += report.simulated_time_s;
        merged.reorganisations += report.reorganisations;
    }
    Ok(merged)
}

/// The sharded report of landing per-shard reorganisations: how many
/// landed, and — outer rowIDs being stable — no renumbering.
fn landed(per_shard: Vec<u64>) -> UpdateReport {
    UpdateReport {
        reorganisations: per_shard.iter().sum(),
        ..Default::default()
    }
}

/// The distinct keys of a migration delete batch.
fn distinct(mut keys: Vec<u64>) -> Vec<u64> {
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// Reassigns hash slots from the hottest shard to the coldest until their
/// load gap closes (or no single-slot move improves it). Each move picks
/// the hot shard's slot whose weight is closest to half the gap — such a
/// move strictly shrinks the pair's squared-load sum, so the loop cannot
/// cycle. Returns whether any slot moved.
fn rebalance_slot_table(slots: &mut [u32], weight: &[f64], shards: usize) -> bool {
    let mut load = vec![0f64; shards];
    for (slot, &owner) in slots.iter().enumerate() {
        load[owner as usize] += weight[slot];
    }
    let total: f64 = load.iter().sum();
    if total <= 0.0 {
        return false;
    }
    let mean = total / shards as f64;
    let mut changed = false;
    for _ in 0..4 * HASH_SLOTS {
        let (hot, _) = argmax(&load);
        let (cold, _) = argmin(&load);
        let gap = load[hot] - load[cold];
        if gap <= 0.10 * mean {
            break;
        }
        // The best single-slot move: weight strictly inside (0, gap) —
        // anything heavier would just swap which shard is hot — closest
        // to gap/2 (the perfect split).
        let mut best: Option<(usize, f64)> = None;
        for (slot, &w) in weight.iter().enumerate() {
            if slots[slot] as usize == hot && w > 0.0 && w < gap {
                let score = (gap - 2.0 * w).abs();
                if best.is_none_or(|(_, s)| score < s) {
                    best = Some((slot, score));
                }
            }
        }
        let Some((slot, _)) = best else { break };
        load[hot] -= weight[slot];
        load[cold] += weight[slot];
        slots[slot] = cold as u32;
        changed = true;
    }
    changed
}

fn argmax(xs: &[f64]) -> (usize, f64) {
    xs.iter().copied().enumerate().fold(
        (0, f64::MIN),
        |acc, (i, x)| if x > acc.1 { (i, x) } else { acc },
    )
}

fn argmin(xs: &[f64]) -> (usize, f64) {
    xs.iter().copied().enumerate().fold(
        (0, f64::MAX),
        |acc, (i, x)| if x < acc.1 { (i, x) } else { acc },
    )
}

/// Range bounds as *load-weighted* quantiles of the live keys: every key
/// carries its current shard's op density, and the inclusive upper bounds
/// cut the cumulative weight into `shards` equal spans. Duplicate keys are
/// grouped before cutting (they share a shard whatever the bounds say), so
/// a bound never splits a key. `None` when no weight was observed.
fn weighted_range_bounds(
    triples: &[Vec<(u64, u64, u32)>],
    density: &[f64],
    shards: usize,
) -> Option<Vec<u64>> {
    let mut keyed: Vec<(u64, f64)> = triples
        .iter()
        .enumerate()
        .flat_map(|(s, rows)| rows.iter().map(move |&(key, _, _)| (key, density[s])))
        .collect();
    keyed.sort_unstable_by_key(|&(key, _)| key);
    let total: f64 = keyed.iter().map(|&(_, w)| w).sum();
    if total <= 0.0 {
        return None;
    }
    let mut bounds = Vec::with_capacity(shards - 1);
    let mut acc = 0.0;
    let mut i = 0;
    while i < keyed.len() {
        let key = keyed[i].0;
        while i < keyed.len() && keyed[i].0 == key {
            acc += keyed[i].1;
            i += 1;
        }
        while bounds.len() < shards - 1 && acc >= (bounds.len() + 1) as f64 * total / shards as f64
        {
            bounds.push(key);
        }
    }
    // Fewer heavy key groups than shards: the trailing shards stay empty.
    let last = keyed.last().map_or(0, |&(key, _)| key);
    while bounds.len() < shards - 1 {
        bounds.push(last);
    }
    Some(bounds)
}

impl SecondaryIndex for ShardedIndex {
    fn name(&self) -> &str {
        &self.label
    }

    fn key_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.backend.read().key_count())
            .sum()
    }

    fn memory_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.backend.read().memory_bytes())
            .sum()
    }

    fn build_metrics(&self) -> IndexBuildMetrics {
        self.build_metrics
    }

    fn memory_usage(&self) -> MemoryUsage {
        let mut usage = MemoryUsage::default();
        for shard in &self.shards {
            usage.add(&shard.backend.read().memory_usage());
            // The local→global row mirror is sharding bookkeeping kept per
            // allocated row, live or not — account it with the tombstones.
            usage.tombstone_bytes += (shard.rows.len() * std::mem::size_of::<u32>()) as u64;
        }
        usage
    }

    fn capabilities(&self) -> Capabilities {
        self.capabilities
    }

    fn shard_load(&self) -> Option<ShardLoad> {
        Some(self.load())
    }

    fn has_value_column(&self) -> bool {
        self.has_values
    }

    fn point_chunk(&self, queries: &[u64], fetch_values: bool) -> Result<BatchOutcome, IndexError> {
        self.execute(&QueryBatch::of_points(queries).fetch_values(fetch_values))
    }

    fn range_chunk(
        &self,
        ranges: &[(u64, u64)],
        fetch_values: bool,
    ) -> Result<BatchOutcome, IndexError> {
        self.execute(&QueryBatch::of_ranges(ranges).fetch_values(fetch_values))
    }

    /// Scatter/gather execution: the batch is planned into per-shard
    /// sub-batches which run concurrently on the worker pool; outcomes are
    /// translated to global rowIDs and gathered back into submission order
    /// with merged metrics. Results are identical to executing the batch on
    /// the equivalent unsharded backend.
    ///
    /// The scatter plan comes from this index's plan pool (replanned in
    /// place) and every shard task executes through a pooled [`ExecArena`],
    /// so steady-state sharded execution reuses all of its scratch. The
    /// caller's `arena` is not used — the per-shard pool is the sharded
    /// equivalent.
    fn execute_in(
        &self,
        batch: &QueryBatch,
        _arena: &mut ExecArena,
    ) -> Result<QueryOutcome, IndexError> {
        // The prechecks of the provided executor, under the sharded label.
        if batch.fetches_values() && !self.has_values {
            return Err(IndexError::NoValueColumn {
                backend: Arc::clone(&self.label),
            });
        }
        if batch.range_count() > 0 && !self.capabilities.range_lookups {
            return Err(IndexError::UnsupportedOperation {
                backend: Arc::clone(&self.label),
                operation: "range lookups",
            });
        }
        let pooled = self.plan_pool.lock().expect("plan pool poisoned").pop();
        let mut plan = pooled.unwrap_or_default();
        plan.replan_ops(batch, &self.router);
        let result = self.execute_planned(&plan);
        self.plan_pool
            .lock()
            .expect("plan pool poisoned")
            .push(plan);
        result
    }
}

/// Routed updates: each batch is split by the partitioner and applied to
/// the owning shards concurrently, with global rowIDs assigned in batch
/// order and the per-shard reports merged.
///
/// **Atomicity caveat:** unlike a monolithic backend — which validates a
/// batch up front and leaves the index untouched on error — a sharded
/// update is *not* atomic across shards. If one shard's sub-batch fails,
/// sub-batches already applied to other shards stay applied (and the
/// global rowIDs planned for the failing shard stay consumed, leaving
/// harmless holes in the monotonic row space). Callers that need
/// all-or-nothing semantics must validate batches against the inner
/// backend's constraints before submitting, exactly as a distributed
/// store would.
impl UpdatableIndex for ShardedIndex {
    fn insert(&mut self, keys: &[u64], values: &[u64]) -> Result<UpdateReport, IndexError> {
        self.apply_update(UpdateKind::Insert, keys, values)
    }

    fn delete(&mut self, keys: &[u64]) -> Result<UpdateReport, IndexError> {
        self.apply_update(UpdateKind::Delete, keys, &[])
    }

    fn upsert(&mut self, keys: &[u64], values: &[u64]) -> Result<UpdateReport, IndexError> {
        self.apply_update(UpdateKind::Upsert, keys, values)
    }

    fn poll_reorganisation(&mut self) -> Result<UpdateReport, IndexError> {
        self.land_shard_reorganisations(false).map(landed)
    }

    fn await_reorganisation(&mut self) -> Result<UpdateReport, IndexError> {
        self.land_shard_reorganisations(true).map(landed)
    }

    fn reorganisation_in_flight(&self) -> bool {
        self.shards.iter().any(|s| match &s.backend {
            IndexBackend::Write(ix) => ix.reorganisation_in_flight(),
            IndexBackend::Read(_) => false,
        })
    }

    fn rebalance_shards(&mut self) -> Result<RebalanceReport, IndexError> {
        self.rebalance()
    }

    /// Compacts every shard, then renumbers the global rowIDs densely in
    /// their old order and reports that in
    /// [`renumbered`](UpdateReport::renumbered), as the monolithic backend
    /// does: afterwards [`checkpoint_rows`](UpdatableIndex::checkpoint_rows)
    /// is defined. Fails if any shard's backend has no explicit compaction.
    fn compact(&mut self) -> Result<UpdateReport, IndexError> {
        let mut report = self.compact_shards()?;
        report.renumbered = Some(self.renumber_dense());
        Ok(report)
    }

    /// The live rows in global rowID order, when every shard is clean and
    /// the global rowIDs are dense `0..n` — after a
    /// [`compact`](UpdatableIndex::compact), or on a fresh build — so that
    /// building over them reproduces every rowID.
    fn checkpoint_rows(&self) -> Option<Vec<(u64, u64)>> {
        let mut rows = vec![(0, 0); self.next_row as usize];
        let mut placed = 0;
        for shard in self.shard_checkpoint_rows()? {
            for (key, value, global) in shard {
                *rows.get_mut(global as usize)? = (key, value);
                placed += 1;
            }
        }
        (placed == rows.len()).then_some(rows)
    }
}

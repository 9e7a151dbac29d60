//! The table: row store + index fan-out + transactional CDC ingest.
//!
//! # Ingest atomicity
//!
//! [`Table::ingest`] applies a CDC batch with all-or-nothing semantics.
//! Operations stream into the row store and — where possible — as *deltas*
//! into updatable indexes; everything else is rebuilt from the live row
//! store at the end of the batch:
//!
//! * **Inserts** are always delta-exact: every updatable index absorbs
//!   `insert(key_on_its_column, value)` and appends to its row mirror.
//! * **Deletes** key on the primary column. An updatable index *on the
//!   primary column* absorbs them exactly (`delete(key)` removes exactly
//!   the doomed rows). On any other column the index-level delete would
//!   also kill surviving rows that share the doomed row's key, so the
//!   index is marked for rebuild instead.
//! * **Read-only indexes** (RX, HT, B+, SA, and their sharded variants)
//!   cannot absorb deltas at all; they rebuild from the live row store
//!   after every mutating batch.
//!
//! If any sub-operation fails — an index rejecting a batch (e.g. the
//! B+-tree refusing a duplicate key on rebuild) — the table restores the
//! pre-batch row store and rebuilds every index that absorbed deltas or
//! was already rebuilt, reproducing the exact pre-batch logical state
//! before the error surfaces. Callers never observe a half-applied batch.
//!
//! # Row mirrors
//!
//! Each index answers `first_row` in its own local rowID space; the table
//! keeps a per-index [`RowMirror`] (local → table rowID, the same type
//! `rtx-shard` keeps per shard) and translates every result into table
//! rowIDs. The mirror is fed by the backend's own update reports: the
//! table rowID each delta insert appended, and whatever renumbering the
//! report carries — a monolithic dynamic backend reports one whenever a
//! compaction (its own, or a durable wrapper's checkpoint) moved rows, a
//! sharded backend never does, and the table does not need to know which
//! kind it holds.
//!
//! # Durable index specs
//!
//! A spec containing `"+wal:<path>"` treats that directory as
//! *table-private*: every (re)build wipes it first, because the durable
//! layer's open-or-create semantics would otherwise recover stale state
//! from an earlier build instead of indexing the current rows. Between
//! rebuilds the WAL logs delta updates as usual; whole-table recovery
//! from WAL directories is out of scope here.

use std::sync::Arc;

use gpu_device::Device;
use optix_sim::LaunchMetrics;
use rtx_query::{
    parse_durable_name, parse_schema_name, ColumnType, ExplainPlan, IndexBackend, IndexDef,
    IndexError, IndexSpec, IngestBatch, IngestOp, KeySchema, KeyTuple, KeyValue, LookupResult,
    Predicate, QueryBatch, QueryOp, Record, Registry, Route, RowMirror, SecondaryIndex, TableQuery,
    TableSchema, TypedBatch, TypedOp, MISS,
};

use crate::planner::{CandidateView, Planner, ProbeCost};
use crate::store::RowStore;

struct IndexState {
    def: IndexDef,
    /// Positions of the key columns in the row store, leading first.
    columns: Vec<usize>,
    /// The typed key schema for composite indexes; `None` keeps the
    /// zero-overhead raw-`u64` path for classic single-column indexes.
    schema: Option<KeySchema>,
    /// Read-only backends rebuild per ingest batch, updatable ones absorb
    /// deltas where exact (see the [module docs](self)).
    backend: IndexBackend,
    /// Local rowID → table rowID (see the [module docs](self)).
    mirror: RowMirror,
    probe: ProbeCost,
}

impl IndexState {
    /// The keys of the first `count` live rows the index holds, read from
    /// the row store through the mirror: the planner's calibration sample.
    fn sample_keys(&self, store: &RowStore, count: usize) -> Vec<u64> {
        (0..self.mirror.len() as u32)
            .map(|local| self.mirror.global(local))
            .filter(|&row| row != MISS && store.is_live(row))
            .take(count)
            .map(|row| store.value_at(self.columns[0], row))
            .collect()
    }
}

/// What one successful [`Table::ingest`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IngestReport {
    /// Rows appended to the row store.
    pub inserted_rows: u64,
    /// Rows deleted from the row store.
    pub deleted_rows: u64,
    /// Delta operations absorbed by updatable indexes.
    pub delta_ops: u64,
    /// Indexes rebuilt from the live row store.
    pub rebuilt_indexes: u64,
    /// Simulated time of the deltas and rebuilds.
    pub simulated_time_s: f64,
}

/// Lifetime counters of a table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Ingest batches submitted (including rejected ones).
    pub ingest_batches: u64,
    /// Ingest batches rejected and rolled back.
    pub rolled_back_batches: u64,
    /// Rows ever inserted.
    pub inserted_rows: u64,
    /// Rows ever deleted.
    pub deleted_rows: u64,
    /// Delta operations absorbed by updatable indexes.
    pub delta_ops: u64,
    /// Index rebuilds (initial builds excluded).
    pub index_rebuilds: u64,
}

/// The answer to one [`TableQuery`]: a [`LookupResult`] per predicate
/// (with `first_row` in *table* rowID space), merged launch metrics, and
/// the plan that produced it.
#[derive(Debug, Clone)]
pub struct TableOutcome {
    /// One result per predicate, in submission order.
    pub results: Vec<LookupResult>,
    /// Merged simulated/host launch metrics of every routed batch.
    pub metrics: LaunchMetrics,
    /// The planner's routing decisions.
    pub plan: ExplainPlan,
}

impl TableOutcome {
    /// Total hits across all predicates.
    pub fn hit_count(&self) -> u64 {
        self.results.iter().map(|r| u64::from(r.hit_count)).sum()
    }

    /// Total simulated execution time in milliseconds.
    pub fn sim_ms(&self) -> f64 {
        self.metrics.simulated_time_s * 1e3
    }
}

/// A multi-index table: one SoA row store plus N named indexes built from
/// per-column registry specs, with transactional CDC ingest and a
/// cost-based predicate planner. See the [module docs](self) for the
/// ingest atomicity protocol and the [planner docs](crate::planner) for
/// the cost model.
pub struct Table {
    schema: TableSchema,
    device: Device,
    registry: Arc<Registry>,
    planner: Planner,
    store: RowStore,
    indexes: Vec<IndexState>,
    value_pos: Option<usize>,
    stats: TableStats,
}

impl Table {
    /// Creates an empty table over `schema`, building every index (over
    /// zero rows) up front so spec errors surface immediately.
    pub fn create(
        schema: TableSchema,
        device: &Device,
        registry: Arc<Registry>,
    ) -> Result<Self, IndexError> {
        Table::load(schema, device, registry, &[])
    }

    /// Creates a table bulk-loaded with `records` (occupying rowIDs
    /// `0..records.len()`), building every index over them.
    pub fn load(
        schema: TableSchema,
        device: &Device,
        registry: Arc<Registry>,
        records: &[Record],
    ) -> Result<Self, IndexError> {
        schema.validate()?;
        let value_pos = schema
            .value_column
            .as_ref()
            .map(|c| schema.column_position(c).expect("validated"));
        let mut store = RowStore::new(schema.columns.len());
        for record in records {
            store.insert(record)?;
        }
        let planner = Planner::default();
        let mut indexes = Vec::with_capacity(schema.indexes.len());
        for def in &schema.indexes {
            let columns: Vec<usize> = def
                .columns
                .iter()
                .map(|c| schema.column_position(c).expect("validated"))
                .collect();
            indexes.push(build_index_state(
                device, &registry, &store, value_pos, &planner, def, &columns,
            )?);
        }
        Ok(Table {
            schema,
            device: device.clone(),
            registry,
            planner,
            store,
            indexes,
            value_pos,
            stats: TableStats::default(),
        })
    }

    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Number of live rows.
    pub fn row_count(&self) -> usize {
        self.store.live_count()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> TableStats {
        self.stats
    }

    /// The planner's configuration.
    pub fn planner(&self) -> &Planner {
        &self.planner
    }

    /// The index names, in schema order.
    pub fn index_names(&self) -> Vec<&str> {
        self.indexes.iter().map(|s| s.def.name.as_str()).collect()
    }

    /// The built backend behind the named index (for metadata inspection:
    /// capabilities, memory usage, build metrics).
    pub fn index_backend(&self, name: &str) -> Option<&dyn SecondaryIndex> {
        self.indexes
            .iter()
            .find(|s| s.def.name == name)
            .map(|s| s.backend.read())
    }

    /// Total resident bytes: row store plus every index's
    /// [`MemoryUsage::total`](rtx_query::MemoryUsage::total).
    pub fn memory_bytes(&self) -> u64 {
        self.store.memory_bytes()
            + self
                .indexes
                .iter()
                .map(|s| s.backend.read().memory_usage().total())
                .sum::<u64>()
    }

    /// Applies a CDC batch atomically (see the [module docs](self)): on
    /// success every index reflects the batch; on error the pre-batch
    /// state is restored before the error returns.
    pub fn ingest(&mut self, batch: &IngestBatch) -> Result<IngestReport, IndexError> {
        self.stats.ingest_batches += 1;
        if batch.is_empty() {
            return Ok(IngestReport::default());
        }
        let saved = self.store.clone();
        let mut touched = vec![false; self.indexes.len()];
        let mut needs_rebuild = vec![false; self.indexes.len()];
        let mut report = IngestReport::default();
        match self.apply_batch(batch, &mut touched, &mut needs_rebuild, &mut report) {
            Ok(()) => {
                self.stats.inserted_rows += report.inserted_rows;
                self.stats.deleted_rows += report.deleted_rows;
                self.stats.delta_ops += report.delta_ops;
                self.stats.index_rebuilds += report.rebuilt_indexes;
                Ok(report)
            }
            Err(err) => {
                self.stats.rolled_back_batches += 1;
                if let Err(rollback_err) = self.rollback(saved, &touched) {
                    return Err(IndexError::Backend {
                        backend: "table".to_string().into(),
                        message: format!(
                            "ingest failed ({err}) and rollback failed too: {rollback_err}"
                        ),
                    });
                }
                Err(err)
            }
        }
    }

    fn apply_batch(
        &mut self,
        batch: &IngestBatch,
        touched: &mut [bool],
        needs_rebuild: &mut [bool],
        report: &mut IngestReport,
    ) -> Result<(), IndexError> {
        for op in batch.ops() {
            match op {
                IngestOp::Insert(record) => {
                    self.apply_insert(record, touched, needs_rebuild, report)?;
                }
                IngestOp::Delete(key) => {
                    self.apply_delete(*key, touched, needs_rebuild, report)?;
                }
                IngestOp::Upsert(record) => {
                    self.apply_delete(record[0], touched, needs_rebuild, report)?;
                    self.apply_insert(record, touched, needs_rebuild, report)?;
                }
            }
        }
        if report.inserted_rows == 0 && report.deleted_rows == 0 {
            // Nothing changed (e.g. only deletes of absent keys): the
            // live rows are untouched, so rebuilds would be no-ops.
            return Ok(());
        }
        for i in 0..self.indexes.len() {
            let rebuild =
                needs_rebuild[i] || matches!(self.indexes[i].backend, IndexBackend::Read(_));
            if !rebuild {
                // Delta'd indexes keep their structure; refresh the probe
                // costs so the planner sees the post-batch state.
                if touched[i] {
                    let sample = self.indexes[i].sample_keys(&self.store, 16);
                    self.indexes[i].probe = self
                        .planner
                        .calibrate(self.indexes[i].backend.read(), &sample)?;
                }
                continue;
            }
            let def = self.indexes[i].def.clone();
            let columns = self.indexes[i].columns.clone();
            let state = build_index_state(
                &self.device,
                &self.registry,
                &self.store,
                self.value_pos,
                &self.planner,
                &def,
                &columns,
            )?;
            report.simulated_time_s += state.backend.read().build_metrics().simulated_time_s;
            self.indexes[i] = state;
            touched[i] = true;
            report.rebuilt_indexes += 1;
        }
        Ok(())
    }

    fn apply_insert(
        &mut self,
        record: &Record,
        touched: &mut [bool],
        needs_rebuild: &mut [bool],
        report: &mut IngestReport,
    ) -> Result<(), IndexError> {
        let row = self.store.insert(record)?;
        report.inserted_rows += 1;
        let value = self.value_pos.map(|p| record[p]).unwrap_or(0);
        for (i, state) in self.indexes.iter_mut().enumerate() {
            if needs_rebuild[i] {
                continue;
            }
            if let Some(ix) = state.backend.write() {
                // Composite indexes are always read-only at the table layer
                // (they rebuild per batch), so updatable states key on
                // exactly one column.
                let key = record[state.columns[0]];
                let update = ix.insert(&[key], &[value])?;
                state.mirror.apply(&[row], &update);
                touched[i] = true;
                report.delta_ops += 1;
                report.simulated_time_s += update.simulated_time_s;
            }
        }
        Ok(())
    }

    fn apply_delete(
        &mut self,
        key: u64,
        touched: &mut [bool],
        needs_rebuild: &mut [bool],
        report: &mut IngestReport,
    ) -> Result<(), IndexError> {
        let doomed = self.store.delete_primary(key);
        report.deleted_rows += doomed.len() as u64;
        for (i, state) in self.indexes.iter_mut().enumerate() {
            if needs_rebuild[i] {
                continue;
            }
            if let Some(ix) = state.backend.write() {
                if state.columns == [0] {
                    // Delta-exact: the index keys on the primary column,
                    // so deleting `key` there removes exactly the doomed
                    // rows.
                    let update = ix.delete(&[key])?;
                    state.mirror.apply(&[], &update);
                    touched[i] = true;
                    report.delta_ops += 1;
                    report.simulated_time_s += update.simulated_time_s;
                } else if !doomed.is_empty() {
                    // An index-level delete on this column would also kill
                    // surviving rows sharing the doomed rows' keys —
                    // rebuild from the row store at batch end instead.
                    needs_rebuild[i] = true;
                }
            }
        }
        Ok(())
    }

    /// Restores the pre-batch row store and rebuilds every index that
    /// absorbed deltas or was rebuilt mid-batch.
    fn rollback(&mut self, saved: RowStore, touched: &[bool]) -> Result<(), IndexError> {
        self.store = saved;
        for (i, &was_touched) in touched.iter().enumerate() {
            if !was_touched {
                continue;
            }
            let def = self.indexes[i].def.clone();
            let columns = self.indexes[i].columns.clone();
            self.indexes[i] = build_index_state(
                &self.device,
                &self.registry,
                &self.store,
                self.value_pos,
                &self.planner,
                &def,
                &columns,
            )?;
        }
        Ok(())
    }

    /// Plans `query` without executing it.
    pub fn explain(&self, query: &TableQuery) -> Result<ExplainPlan, IndexError> {
        self.check_fetch(query)?;
        self.planner
            .plan(query, &self.schema, &self.candidate_views())
    }

    /// Plans and executes `query`: each predicate routes to the cheapest
    /// eligible index (or a row-store scan) and answers with `first_row`
    /// translated into table rowID space.
    pub fn query(&self, query: &TableQuery) -> Result<TableOutcome, IndexError> {
        let plan = self.explain(query)?;
        self.execute_plan(query, plan)
    }

    /// Executes `query` with every predicate forced through the named
    /// index (the forced arm of planner experiments); errors when the
    /// index cannot serve a predicate.
    pub fn query_forced(
        &self,
        query: &TableQuery,
        index: &str,
    ) -> Result<TableOutcome, IndexError> {
        self.check_fetch(query)?;
        let plan = self
            .planner
            .plan_forced(query, &self.candidate_views(), index)?;
        self.execute_plan(query, plan)
    }

    fn check_fetch(&self, query: &TableQuery) -> Result<(), IndexError> {
        if query.fetches_values() && self.value_pos.is_none() {
            return Err(IndexError::NoValueColumn {
                backend: "table".to_string().into(),
            });
        }
        Ok(())
    }

    fn candidate_views(&self) -> Vec<CandidateView<'_>> {
        self.indexes
            .iter()
            .map(|s| {
                let ix = s.backend.read();
                CandidateView {
                    name: &s.def.name,
                    spec: &s.def.spec,
                    columns: &s.def.columns,
                    schema: s.schema.as_ref(),
                    caps: ix.capabilities(),
                    has_values: ix.has_value_column(),
                    memory: ix.memory_usage().total(),
                    probe: s.probe,
                }
            })
            .collect()
    }

    fn execute_plan(
        &self,
        query: &TableQuery,
        plan: ExplainPlan,
    ) -> Result<TableOutcome, IndexError> {
        let fetch = query.fetches_values();
        let mut results = vec![LookupResult::miss(); query.len()];
        let mut metrics = LaunchMetrics::default();
        // Predicates routed to the same index fuse into one batch (fewer
        // simulated launches); scans answer immediately. Composite (typed)
        // indexes collect typed prefix operations, everything else the raw
        // single-u64 operations of the zero-overhead path.
        enum GroupOps {
            Raw(QueryBatch),
            Typed(Vec<TypedOp>),
        }
        let mut groups: Vec<(&str, Vec<usize>, GroupOps)> = Vec::new();
        for (slot, (predicate, choice)) in query.predicates().iter().zip(&plan.choices).enumerate()
        {
            match &choice.route {
                Route::Scan => {
                    results[slot] = self.scan_predicate(predicate, fetch);
                    metrics.simulated_time_s +=
                        self.planner.scan_cost_per_row_s * self.store.live_count() as f64;
                }
                Route::Index { index, .. } => {
                    let state = self
                        .indexes
                        .iter()
                        .find(|s| s.def.name == *index)
                        .expect("plans route to existing indexes");
                    let at = match groups.iter().position(|(name, ..)| name == index) {
                        Some(at) => {
                            groups[at].1.push(slot);
                            at
                        }
                        None => {
                            let ops = match state.schema {
                                Some(_) => GroupOps::Typed(Vec::new()),
                                None => GroupOps::Raw(QueryBatch::new().fetch_values(fetch)),
                            };
                            groups.push((index, vec![slot], ops));
                            groups.len() - 1
                        }
                    };
                    match &mut groups[at].2 {
                        GroupOps::Raw(batch) => match predicate
                            .as_op()
                            .expect("the planner only routes compilable predicates")
                        {
                            QueryOp::Point(key) => batch.push_point(key),
                            QueryOp::Range(lower, upper) => batch.push_range(lower, upper),
                        },
                        GroupOps::Typed(ops) => ops.push(
                            predicate
                                .as_typed_op(&state.def.columns)
                                .expect("the planner only routes covered predicates"),
                        ),
                    }
                }
            }
        }
        for (name, slots, ops) in groups {
            let state = self
                .indexes
                .iter()
                .find(|s| s.def.name == name)
                .expect("plans route to existing indexes");
            let outcome = match ops {
                GroupOps::Raw(batch) => state.backend.read().execute(&batch)?,
                GroupOps::Typed(ops) => {
                    let mut batch = TypedBatch::new().fetch_values(fetch);
                    for op in ops {
                        batch = batch.op(op);
                    }
                    state.backend.read().execute_typed(&batch)?
                }
            };
            metrics.merge(&outcome.metrics);
            for (slot, mut result) in slots.into_iter().zip(outcome.results) {
                if result.first_row != MISS {
                    result.first_row = state.mirror.global(result.first_row);
                }
                results[slot] = result;
            }
        }
        Ok(TableOutcome {
            results,
            metrics,
            plan,
        })
    }

    /// Answers one predicate on the scan fallback path.
    fn scan_predicate(&self, predicate: &Predicate, fetch: bool) -> LookupResult {
        if let Predicate::Composite {
            columns,
            prefix,
            range,
        } = predicate
        {
            let positions: Vec<usize> = columns
                .iter()
                .map(|c| {
                    self.schema
                        .column_position(c)
                        .expect("planned predicates reference known columns")
                })
                .collect();
            return self
                .store
                .scan_composite(&positions, prefix, *range, self.value_pos, fetch);
        }
        let column = self
            .schema
            .column_position(predicate.column())
            .expect("planned predicates reference known columns");
        self.store.scan(
            column,
            predicate
                .as_op()
                .expect("scalar predicates compile to single-column ops"),
            self.value_pos,
            fetch,
        )
    }
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("columns", &self.schema.columns)
            .field("indexes", &self.index_names())
            .field("live_rows", &self.store.live_count())
            .finish()
    }
}

/// Builds (or rebuilds) one index from the live row store: fresh dense
/// mirror, calibrated probe costs, durable directories wiped first (see
/// the [module docs](self)). Composite definitions build through the
/// registry's typed path and always come back read-only — table deltas
/// speak raw single-`u64` keys, which a composite index rejects, so they
/// rebuild per mutating batch instead.
fn build_index_state(
    device: &Device,
    registry: &Registry,
    store: &RowStore,
    value_pos: Option<usize>,
    planner: &Planner,
    def: &IndexDef,
    columns: &[usize],
) -> Result<IndexState, IndexError> {
    wipe_durable_dir(&def.spec)?;
    if def.is_composite() {
        return build_composite_state(device, registry, store, value_pos, planner, def, columns);
    }
    let (keys, rows) = store.column_live(columns[0]);
    let values: Option<Vec<u64>> =
        value_pos.map(|vp| rows.iter().map(|&r| store.value_at(vp, r)).collect());
    let spec = match &values {
        Some(v) => IndexSpec::with_values(device, &keys, v),
        None => IndexSpec::keys_only(device, &keys),
    };
    let backend = match registry.build_updatable(&def.spec, &spec) {
        Ok(ix) => IndexBackend::Write(ix),
        // Not updatable under this registry (or not updatable at all):
        // build read-only. Genuine build failures resurface here.
        Err(_) => IndexBackend::Read(registry.build(&def.spec, &spec)?),
    };
    let probe = planner.calibrate(backend.read(), &keys)?;
    Ok(IndexState {
        def: def.clone(),
        columns: columns.to_vec(),
        schema: None,
        backend,
        mirror: RowMirror::dense(rows),
        probe,
    })
}

/// The composite arm of [`build_index_state`]: projects the key columns
/// into typed tuples, resolves the key schema (explicit `{...}` in the
/// spec, else all-`u64`), and builds read-only through the registry.
fn build_composite_state(
    device: &Device,
    registry: &Registry,
    store: &RowStore,
    value_pos: Option<usize>,
    planner: &Planner,
    def: &IndexDef,
    columns: &[usize],
) -> Result<IndexState, IndexError> {
    let schema = match parse_schema_name(&def.spec)? {
        Some((_, schema)) => schema,
        None => KeySchema::new(vec![ColumnType::U64; columns.len()])?,
    };
    // TableSchema::validate checked arity; column types must be unsigned
    // because table columns hold raw u64 values.
    for column in schema.columns() {
        if matches!(column, ColumnType::I64 | ColumnType::Str(_)) {
            return Err(IndexError::Backend {
                backend: def.spec.clone().into(),
                message: format!(
                    "table columns are u64, so composite index {:?} cannot use \
                     column type {column} — declare u8/u16/u32/u64",
                    def.name
                ),
            });
        }
    }
    let (raw_tuples, rows) = store.tuples_live(columns);
    let tuples: Vec<KeyTuple> = raw_tuples
        .iter()
        .map(|t| t.iter().map(|&v| KeyValue::U64(v)).collect())
        .collect();
    let values: Option<Vec<u64>> =
        value_pos.map(|vp| rows.iter().map(|&r| store.value_at(vp, r)).collect());
    let spec = match &values {
        Some(v) => IndexSpec::typed_with_values(device, schema.clone(), &tuples, v),
        None => IndexSpec::typed(device, schema.clone(), &tuples),
    };
    let backend = IndexBackend::Read(registry.build(&def.spec, &spec)?);
    // Calibration probes run in the backend's raw key domain: the encoded
    // keys themselves for direct (single-limb) schemas; for dictionary-
    // mapped schemas the probes miss, which still measures launch cost.
    let probe_keys = if schema.limbs() == 1 {
        schema.encode_rows(&tuples)?
    } else {
        Vec::new()
    };
    let probe = planner.calibrate(backend.read(), &probe_keys)?;
    Ok(IndexState {
        def: def.clone(),
        columns: columns.to_vec(),
        schema: Some(schema),
        backend,
        mirror: RowMirror::dense(rows),
        probe,
    })
}

/// Resets the WAL directory of a `"+wal:<path>"` spec before a build, so
/// the durable layer creates fresh state instead of recovering a previous
/// build's rows. No-op for non-durable specs and absent directories.
fn wipe_durable_dir(spec: &str) -> Result<(), IndexError> {
    if let Some((_, path)) = parse_durable_name(spec) {
        match std::fs::remove_dir_all(path) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => {
                return Err(IndexError::Backend {
                    backend: spec.to_string().into(),
                    message: format!("failed to reset WAL directory {path:?}: {e}"),
                })
            }
        }
    }
    Ok(())
}

//! The table: row store + index fan-out + transactional CDC ingest.
//!
//! # Ingest atomicity
//!
//! [`Table::ingest`] applies a CDC batch with all-or-nothing semantics.
//! Operations stream into the row store, and from there into every index
//! the same way. Each index keeps its built *base* and an overlay of two
//! short lists of table rowIDs, sorted by the index's key columns: the
//! *fresh* rows inserted since the build and the *dead* base rows deleted
//! since. The row store keeps dead rows' values, so a query runs the base,
//! subtracts the dead rows matching the predicate and adds the fresh ones;
//! every predicate an index serves is one lexicographic interval over its
//! key columns, found with two binary searches per list. When the base's
//! `first_row` is itself dead while other base matches remain, that one
//! predicate is answered by a row-store scan instead
//! ([`TableStats::overlay_rescans`]). A base answers `first_row` as a
//! position in the live rows it was built over; the dense list of those
//! rows translates it into a table rowID.
//!
//! An index is rebuilt from the live rows only once its overlay holds
//! `base_rows / 16` rows, and at least one. Rebuilds follow the commit, one
//! index at a time; a failed one keeps base and overlay, is counted in
//! [`TableStats::rebuild_failures`] and is tried again at the next batch
//! that changes rows.
//!
//! Rejections surface at the batch that causes them: every inserted row is
//! checked against each index's composite key widths and 32-bit key limit,
//! and indexes that refuse duplicate keys (B+) probe base plus overlay for
//! every key the batch leaves live. A failure only the backend's build can
//! see (a capacity cap, a key beyond an RX key mode's range) refuses no
//! batch: it is a failed rebuild.
//!
//! A refused batch is undone without a snapshot and without a build, in
//! O(batch): the row store replays its undo log (inserts are appends,
//! deletes liveness flips), and overlays truncate back to their committed
//! length. Callers never observe a half-applied batch.

use std::cmp::Ordering;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

use gpu_device::Device;
use optix_sim::LaunchMetrics;
use rtx_query::{
    ColumnType, ExplainPlan, IndexDef, IndexError, IndexSpec, IngestBatch, IngestOp, KeySchema,
    KeyTuple, KeyValue, LookupResult, Predicate, QueryBatch, QueryOp, Record, Registry,
    SecondaryIndex, SpecName, TableQuery, TableSchema, TypedBatch, TypedOp, MISS,
};

use crate::planner::{CandidateView, IndexView, Planner, RoutePlan};
use crate::store::RowStore;

/// An overlay holding `base_rows / OVERLAY_FRACTION` rows (and at least
/// one) triggers a rebuild (see the [module docs](self)).
const OVERLAY_FRACTION: usize = 16;

/// An index as built: the base every overlay corrects.
type Base = Box<dyn SecondaryIndex>;

struct IndexState {
    /// Positions of the key columns in the row store, leading first.
    columns: Vec<usize>,
    /// The typed key schema for composite indexes; `None` keeps the
    /// zero-overhead raw-`u64` path for classic single-column indexes.
    schema: Option<KeySchema>,
    /// The built base (see the [module docs](self)).
    backend: Base,
    /// Base rowID → table rowID: the live rows the base was built over, in
    /// build order.
    rows: Vec<u32>,
    /// What the base lags the table by.
    overlay: Overlay,
    /// What the planner reads of the base.
    view: IndexView,
}

impl IndexState {
    /// Takes the freshly inserted table `row` (holding `record`) into the
    /// overlay, after checking it fits the index `def` the way a build
    /// would.
    fn admit(&mut self, def: &IndexDef, record: &[u64], row: u32) -> Result<(), IndexError> {
        let narrow = !self.backend.capabilities().full_64bit_keys;
        let key = match &self.schema {
            Some(schema) => {
                let tuple: KeyTuple = self
                    .columns
                    .iter()
                    .map(|&c| KeyValue::U64(record[c]))
                    .collect();
                let encoded = schema.encode(&tuple)?;
                // Dictionary-mapped schemas reach the backend as mapped
                // keys, which only the build assigns.
                (schema.limbs() == 1).then(|| encoded.limb(0))
            }
            None => Some(record[self.columns[0]]),
        };
        if let Some(key) = key.filter(|&key| narrow && key > u64::from(u32::MAX)) {
            return Err(IndexError::UnsupportedKeySet {
                backend: def.spec.clone().into(),
                reason: format!("index {:?} holds 32-bit keys only, got {key}", def.name),
            });
        }
        self.overlay.fresh.rows.push(row);
        Ok(())
    }

    /// Refuses the open batch when it leaves two live rows with one key in
    /// an index (`def`) that does not take duplicate keys. The base holds
    /// every key at most once, so one batched probe of it plus the overlay
    /// counts the live rows holding each key the batch inserted.
    fn check_unique(&self, def: &IndexDef, store: &RowStore) -> Result<(), IndexError> {
        let ix = &self.backend;
        if ix.capabilities().duplicate_keys {
            return Ok(());
        }
        let keys: Vec<Vec<u64>> = self.overlay.fresh.rows[self.overlay.fresh.sorted..]
            .iter()
            .filter(|&&row| store.is_live(row))
            .map(|&row| {
                self.columns
                    .iter()
                    .map(|&c| store.value_at(c, row))
                    .collect()
            })
            .collect();
        if keys.is_empty() {
            return Ok(());
        }
        let base = match &self.schema {
            Some(_) => ix.execute_typed(&keys.iter().fold(TypedBatch::new(), |batch, key| {
                batch.op(TypedOp::Point(
                    key.iter().map(|&v| KeyValue::U64(v)).collect(),
                ))
            }))?,
            None => {
                let points: Vec<u64> = keys.iter().map(|key| key[0]).collect();
                ix.execute(&QueryBatch::of_points(&points))?
            }
        };
        for (key, hit) in keys.iter().zip(&base.results) {
            let in_base = hit.first_row != MISS && store.is_live(self.rows[hit.first_row as usize]);
            let interval = KeyInterval {
                prefix: key,
                range: None,
            };
            let fresh = self
                .overlay
                .live_fresh_matches(&interval, store, &self.columns);
            if usize::from(in_base) + fresh > 1 {
                return Err(IndexError::UnsupportedKeySet {
                    backend: def.spec.clone().into(),
                    reason: format!(
                        "index {:?} does not take duplicate keys, and the batch leaves \
                         two live rows with key {key:?}",
                        def.name
                    ),
                });
            }
        }
        Ok(())
    }
}

/// The rows an index's base lags the table by (see the [module
/// docs](self)).
#[derive(Debug)]
struct Overlay {
    /// Live rows inserted since the base was built.
    fresh: SortedRows,
    /// Base rows deleted since the base was built.
    dead: SortedRows,
    /// Fresh rows the open batch deleted again (dropped at commit).
    stale: usize,
    /// Rows at or past this rowID are not in the base.
    base_slots: u32,
    /// Live rows the base was built over.
    base_rows: usize,
}

impl Overlay {
    fn new(base_rows: usize, base_slots: usize) -> Self {
        Overlay {
            fresh: SortedRows::default(),
            dead: SortedRows::default(),
            stale: 0,
            base_slots: base_slots as u32,
            base_rows,
        }
    }

    /// Live rows the overlay holds.
    fn rows(&self) -> usize {
        self.fresh.rows.len() - self.stale + self.dead.rows.len()
    }

    fn delete(&mut self, row: u32) {
        if row < self.base_slots {
            self.dead.rows.push(row);
        } else {
            self.stale += 1;
        }
    }

    /// True when the index must be rebuilt (see the [module docs](self)).
    fn is_full(&self) -> bool {
        self.rows() >= (self.base_rows / OVERLAY_FRACTION).max(1)
    }

    /// Makes the open batch's appends part of the sorted lists.
    fn commit(&mut self, store: &RowStore, columns: &[usize]) {
        if self.stale > 0 {
            self.fresh.retain_live(store);
            self.stale = 0;
        }
        self.fresh.commit(store, columns);
        self.dead.commit(store, columns);
    }

    fn rollback(&mut self) {
        self.fresh.rollback();
        self.dead.rollback();
        self.stale = 0;
    }

    /// Live fresh rows inside `interval`, committed or appended by the open
    /// batch.
    fn live_fresh_matches(
        &self,
        interval: &KeyInterval<'_>,
        store: &RowStore,
        columns: &[usize],
    ) -> usize {
        self.fresh
            .matches(interval, store, columns)
            .iter()
            .chain(
                self.fresh.rows[self.fresh.sorted..]
                    .iter()
                    .filter(|&&row| interval.locate(store, columns, row).is_eq()),
            )
            .filter(|&&row| store.is_live(row))
            .count()
    }

    /// Corrects the base's answer to one predicate (with `first_row`
    /// already in table rowIDs) by the overlay, summing `value_column` into
    /// `value_sum` when set. Returns the overlay rows examined, or `None`
    /// when the base's `first_row` died while other base matches remain —
    /// then only a scan knows the smallest live match.
    fn correct(
        &self,
        result: &mut LookupResult,
        interval: &KeyInterval<'_>,
        store: &RowStore,
        columns: &[usize],
        value_column: Option<usize>,
    ) -> Option<usize> {
        let dead = self.dead.matches(interval, store, columns);
        let fresh = self.fresh.matches(interval, store, columns);
        result.hit_count -= dead.len() as u32;
        // A dead `first_row` matches the interval, so it is in `dead`.
        if !dead.is_empty() && result.first_row != MISS && !store.is_live(result.first_row) {
            if result.hit_count > 0 {
                return None;
            }
            result.first_row = MISS;
        }
        result.hit_count += fresh.len() as u32;
        for &row in fresh {
            result.first_row = result.first_row.min(row);
        }
        if let Some(vc) = value_column {
            for &row in dead {
                result.value_sum = result.value_sum.wrapping_sub(store.value_at(vc, row));
            }
            for &row in fresh {
                result.value_sum = result.value_sum.wrapping_add(store.value_at(vc, row));
            }
        }
        Some(dead.len() + fresh.len())
    }

    fn memory_bytes(&self) -> u64 {
        ((self.fresh.rows.capacity() + self.dead.rows.capacity()) * 4) as u64
    }
}

/// Table rows sorted by an index's key columns up to `sorted`; the open
/// batch appends past it, so undoing the batch is a truncate.
#[derive(Debug, Default)]
struct SortedRows {
    rows: Vec<u32>,
    sorted: usize,
    /// The leading key column's `(min, max)` over the sorted rows: an
    /// interval outside it — reads and writes touching different keys —
    /// skips the list without reading the row store.
    lead: (u64, u64),
}

impl SortedRows {
    fn commit(&mut self, store: &RowStore, columns: &[usize]) {
        if self.rows.len() > self.sorted {
            // A stable sort finds the sorted prefix as one run and merges
            // the batch's appends into it.
            self.rows.sort_by(|&a, &b| key_order(store, columns, a, b));
        }
        self.sorted = self.rows.len();
        if let (Some(&first), Some(&last)) = (self.rows.first(), self.rows.last()) {
            self.lead = (
                store.value_at(columns[0], first),
                store.value_at(columns[0], last),
            );
        }
    }

    fn rollback(&mut self) {
        self.rows.truncate(self.sorted);
    }

    /// Drops the dead rows; what stays of the sorted prefix stays sorted.
    fn retain_live(&mut self, store: &RowStore) {
        self.sorted -= self.rows[..self.sorted]
            .iter()
            .filter(|&&row| !store.is_live(row))
            .count();
        self.rows.retain(|&row| store.is_live(row));
    }

    /// The run of sorted rows inside `interval`.
    fn matches(&self, interval: &KeyInterval<'_>, store: &RowStore, columns: &[usize]) -> &[u32] {
        let rows = &self.rows[..self.sorted];
        let (lower, upper) = interval.lead();
        if rows.is_empty() || upper < self.lead.0 || lower > self.lead.1 {
            return &[];
        }
        let start = rows.partition_point(|&row| interval.locate(store, columns, row).is_lt());
        let len =
            rows[start..].partition_point(|&row| !interval.locate(store, columns, row).is_gt());
        &rows[start..start + len]
    }
}

/// Orders two table rows by an index's key columns, then by rowID.
fn key_order(store: &RowStore, columns: &[usize], a: u32, b: u32) -> Ordering {
    columns
        .iter()
        .map(|&c| store.value_at(c, a).cmp(&store.value_at(c, b)))
        .find(|order| order.is_ne())
        .unwrap_or(Ordering::Equal)
        .then(a.cmp(&b))
}

/// One predicate as a lexicographic interval over an index's key columns:
/// the leading `prefix.len()` columns equal `prefix`, and the next one lies
/// in `range` when it is set.
struct KeyInterval<'p> {
    prefix: &'p [u64],
    range: Option<(u64, u64)>,
}

impl<'p> KeyInterval<'p> {
    /// The interval of a predicate the planner routed to an index.
    fn of(predicate: &'p Predicate) -> Self {
        match predicate {
            Predicate::Composite { prefix, range, .. } => KeyInterval {
                prefix,
                range: *range,
            },
            // A point, or a bit prefix without free bits, binds the key.
            Predicate::Point { key, .. }
            | Predicate::Prefix {
                prefix: key,
                low_bits: 0,
                ..
            } => KeyInterval {
                prefix: std::slice::from_ref(key),
                range: None,
            },
            _ => match predicate.as_op() {
                Some(QueryOp::Range(lower, upper)) => KeyInterval {
                    prefix: &[],
                    range: Some((lower, upper)),
                },
                _ => unreachable!("ranges and bit prefixes with free bits compile to ranges"),
            },
        }
    }

    /// Where `row` lies: `Less` below the interval, `Greater` above it.
    fn locate(&self, store: &RowStore, columns: &[usize], row: u32) -> Ordering {
        for (&want, &c) in self.prefix.iter().zip(columns) {
            let order = store.value_at(c, row).cmp(&want);
            if order.is_ne() {
                return order;
            }
        }
        match self.range {
            Some((lower, upper)) => {
                let key = store.value_at(columns[self.prefix.len()], row);
                if key < lower {
                    Ordering::Less
                } else if key > upper {
                    Ordering::Greater
                } else {
                    Ordering::Equal
                }
            }
            None => Ordering::Equal,
        }
    }

    /// The interval's bounds on the leading key column.
    fn lead(&self) -> (u64, u64) {
        match (self.prefix.first(), self.range) {
            (Some(&key), _) => (key, key),
            (None, Some(range)) => range,
            (None, None) => (0, u64::MAX),
        }
    }
}

/// What one successful [`Table::ingest`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IngestReport {
    /// Rows appended to the row store.
    pub inserted_rows: u64,
    /// Rows deleted from the row store.
    pub deleted_rows: u64,
    /// Indexes rebuilt from the live row store.
    pub rebuilt_indexes: u64,
    /// Simulated time of the rebuilds.
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
    /// Index rebuilds (initial builds excluded).
    pub index_rebuilds: u64,
    /// Threshold rebuilds that failed: the index kept its base and overlay
    /// (see the [module docs](self)).
    pub rebuild_failures: u64,
    /// Predicates answered by a row-store scan because the base's
    /// `first_row` was deleted while other base matches remained.
    pub overlay_rescans: u64,
    /// Rows the indexes' overlays hold now (see the [module docs](self)).
    pub overlay_rows: u64,
}

/// The answer to one [`TableQuery`]: a [`LookupResult`] per predicate
/// (with `first_row` in *table* rowID space), merged launch metrics, and
/// the routes that produced it.
#[derive(Debug, Clone)]
pub struct TableOutcome {
    /// One result per predicate, in submission order.
    pub results: Vec<LookupResult>,
    /// Merged simulated/host launch metrics of every routed batch.
    pub metrics: LaunchMetrics,
    /// Where each predicate went: an index or a row-store scan. The
    /// candidates and reasons behind a route are
    /// [`Table::explain`]'s to render.
    pub plan: RoutePlan,
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
    /// The index definitions, in schema order; `indexes[i]` is built from
    /// `defs[i]`, and every [`RoutePlan`] borrows the names from here.
    defs: Arc<[IndexDef]>,
    indexes: Vec<IndexState>,
    value_pos: Option<usize>,
    stats: TableStats,
    /// [`TableStats::overlay_rescans`], counted by `&self` queries.
    overlay_rescans: AtomicU64,
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
        store.commit();
        let planner = Planner::default();
        let defs: Arc<[IndexDef]> = schema.indexes.clone().into();
        let mut indexes = Vec::with_capacity(defs.len());
        for def in defs.iter() {
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
            defs,
            indexes,
            value_pos,
            stats: TableStats::default(),
            overlay_rescans: AtomicU64::new(0),
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
        TableStats {
            overlay_rescans: self.overlay_rescans.load(AtomicOrdering::Relaxed),
            ..self.stats
        }
    }

    /// The planner's configuration.
    pub fn planner(&self) -> &Planner {
        &self.planner
    }

    /// The index names, in schema order.
    pub fn index_names(&self) -> Vec<&str> {
        self.defs.iter().map(|def| def.name.as_str()).collect()
    }

    /// The built base behind the named index (for metadata inspection:
    /// capabilities, memory usage, build metrics) as of its last build: it
    /// lags the table by the rows the overlay holds (see the [module
    /// docs](self)), and the table's own queries correct for them.
    pub fn index_backend(&self, name: &str) -> Option<&dyn SecondaryIndex> {
        let position = self.defs.iter().position(|def| def.name == name)?;
        Some(self.indexes[position].backend.as_ref())
    }

    /// Total resident bytes: row store, every index's
    /// [`MemoryUsage::total`](rtx_query::MemoryUsage::total) and every
    /// overlay.
    pub fn memory_bytes(&self) -> u64 {
        self.store.memory_bytes()
            + self
                .indexes
                .iter()
                .map(|s| s.backend.memory_usage().total() + s.overlay.memory_bytes())
                .sum::<u64>()
    }

    /// Applies a CDC batch atomically (see the [module docs](self)): on
    /// success every index reflects the batch; on error the pre-batch
    /// state is restored before the error returns. Full overlays are
    /// rebuilt after the commit, and a failed rebuild refuses nothing.
    pub fn ingest(&mut self, batch: &IngestBatch) -> Result<IngestReport, IndexError> {
        self.stats.ingest_batches += 1;
        if batch.is_empty() {
            return Ok(IngestReport::default());
        }
        let mut report = IngestReport::default();
        if let Err(err) = self.apply_batch(batch, &mut report) {
            self.rollback();
            self.stats.rolled_back_batches += 1;
            return Err(err);
        }
        self.commit(&report);
        if report.inserted_rows + report.deleted_rows > 0 {
            self.rebuild_full_indexes(&mut report);
        }
        self.stats.overlay_rows = self.indexes.iter().map(|s| s.overlay.rows() as u64).sum();
        Ok(report)
    }

    /// Makes the open batch the state a later rollback returns to.
    fn commit(&mut self, report: &IngestReport) {
        for state in &mut self.indexes {
            state.overlay.commit(&self.store, &state.columns);
        }
        self.store.commit();
        self.stats.inserted_rows += report.inserted_rows;
        self.stats.deleted_rows += report.deleted_rows;
    }

    /// Rebuilds every index whose overlay is full, one at a time: each
    /// rebuilt state replaces the old one before the next index builds. A
    /// rebuild that fails leaves the index's base and overlay as they are.
    fn rebuild_full_indexes(&mut self, report: &mut IngestReport) {
        for (def, state) in self.defs.iter().zip(&mut self.indexes) {
            if !state.overlay.is_full() {
                continue;
            }
            match build_index_state(
                &self.device,
                &self.registry,
                &self.store,
                self.value_pos,
                &self.planner,
                def,
                &state.columns,
            ) {
                Ok(rebuilt) => {
                    report.simulated_time_s += rebuilt.backend.build_metrics().simulated_time_s;
                    report.rebuilt_indexes += 1;
                    *state = rebuilt;
                }
                Err(_) => self.stats.rebuild_failures += 1,
            }
        }
        self.stats.index_rebuilds += report.rebuilt_indexes;
    }

    /// Applies every op, then refuses the batch if it leaves two live rows
    /// with one key in an index that takes no duplicate keys.
    fn apply_batch(
        &mut self,
        batch: &IngestBatch,
        report: &mut IngestReport,
    ) -> Result<(), IndexError> {
        for op in batch.ops() {
            match op {
                IngestOp::Insert(record) => self.apply_insert(record, report)?,
                IngestOp::Delete(key) => self.apply_delete(*key, report),
                IngestOp::Upsert(record) => {
                    self.apply_delete(record[0], report);
                    self.apply_insert(record, report)?;
                }
            }
        }
        for (def, state) in self.defs.iter().zip(&self.indexes) {
            state.check_unique(def, &self.store)?;
        }
        Ok(())
    }

    fn apply_insert(
        &mut self,
        record: &Record,
        report: &mut IngestReport,
    ) -> Result<(), IndexError> {
        let row = self.store.insert(record)?;
        report.inserted_rows += 1;
        for (def, state) in self.defs.iter().zip(&mut self.indexes) {
            state.admit(def, record, row)?;
        }
        Ok(())
    }

    fn apply_delete(&mut self, key: u64, report: &mut IngestReport) {
        let doomed = self.store.delete_primary(key);
        report.deleted_rows += doomed.len() as u64;
        for state in &mut self.indexes {
            for &row in doomed {
                state.overlay.delete(row);
            }
        }
    }

    /// Undoes the open batch (see the [module docs](self)).
    fn rollback(&mut self) {
        self.store.rollback();
        for state in &mut self.indexes {
            state.overlay.rollback();
        }
    }

    /// Renders the planner's account of `query` without executing it:
    /// every candidate index of each predicate with its cost or the reason
    /// it cannot serve, the route, and its justification. The routes are
    /// the ones [`query`](Table::query) executes, decided by the same
    /// scoring; only the text is extra.
    pub fn explain(&self, query: &TableQuery) -> Result<ExplainPlan, IndexError> {
        self.check_fetch(query)?;
        self.planner.explain(query, &self.schema, self.candidates())
    }

    /// Plans and executes `query`: each predicate routes to the cheapest
    /// eligible index (or a row-store scan) and answers with `first_row`
    /// translated into table rowID space.
    pub fn query(&self, query: &TableQuery) -> Result<TableOutcome, IndexError> {
        self.check_fetch(query)?;
        let routes = self.planner.route(query, &self.schema, self.candidates())?;
        self.execute(query, routes)
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
        let routes = self.planner.route_forced(query, self.candidates(), index)?;
        self.execute(query, routes)
    }

    fn check_fetch(&self, query: &TableQuery) -> Result<(), IndexError> {
        if query.fetches_values() && self.value_pos.is_none() {
            return Err(IndexError::NoValueColumn {
                backend: "table".to_string().into(),
            });
        }
        Ok(())
    }

    /// Every index as the planner scores it, in table position order.
    fn candidates(&self) -> impl Iterator<Item = CandidateView<'_>> + Clone {
        self.defs
            .iter()
            .zip(&self.indexes)
            .map(|(def, state)| CandidateView {
                def,
                schema: state.schema.as_ref(),
                view: &state.view,
            })
    }

    /// Executes `query` along `routes`: per predicate the position of its
    /// index, or `None` for a scan.
    fn execute(
        &self,
        query: &TableQuery,
        routes: Vec<Option<usize>>,
    ) -> Result<TableOutcome, IndexError> {
        let fetch = query.fetches_values();
        let mut results = vec![LookupResult::miss(); query.len()];
        let mut metrics = LaunchMetrics::default();
        let scan_s = self.planner.scan_cost_per_row_s * self.store.live_count() as f64;
        // Predicates routed to the same index fuse into one batch (fewer
        // simulated launches); scans answer immediately. Composite (typed)
        // indexes collect typed prefix operations, everything else the raw
        // single-u64 operations of the zero-overhead path.
        enum GroupOps {
            Raw(QueryBatch),
            Typed(Vec<TypedOp>),
        }
        let mut groups: Vec<(usize, Vec<usize>, GroupOps)> = Vec::new();
        for (slot, (predicate, route)) in query.predicates().iter().zip(&routes).enumerate() {
            let Some(position) = *route else {
                results[slot] = self.scan_predicate(predicate, fetch);
                metrics.simulated_time_s += scan_s;
                continue;
            };
            let at = match groups.iter().position(|(p, ..)| *p == position) {
                Some(at) => {
                    groups[at].1.push(slot);
                    at
                }
                None => {
                    let ops = match self.indexes[position].schema {
                        Some(_) => GroupOps::Typed(Vec::new()),
                        None => GroupOps::Raw(QueryBatch::new().fetch_values(fetch)),
                    };
                    groups.push((position, vec![slot], ops));
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
                        .as_typed_op(&self.defs[position].columns)
                        .expect("the planner only routes covered predicates"),
                ),
            }
        }
        let value_column = self.value_pos.filter(|_| fetch);
        for (position, slots, ops) in groups {
            let state = &self.indexes[position];
            let outcome = match ops {
                GroupOps::Raw(batch) => state.backend.execute(&batch)?,
                GroupOps::Typed(ops) => {
                    let mut batch = TypedBatch::new().fetch_values(fetch);
                    for op in ops {
                        batch = batch.op(op);
                    }
                    state.backend.execute_typed(&batch)?
                }
            };
            metrics.merge(&outcome.metrics);
            let overlay = Some(&state.overlay).filter(|o| o.rows() > 0);
            for (slot, mut result) in slots.into_iter().zip(outcome.results) {
                if result.first_row != MISS {
                    result.first_row = state.rows[result.first_row as usize];
                }
                if let Some(overlay) = overlay {
                    let predicate = &query.predicates()[slot];
                    let interval = KeyInterval::of(predicate);
                    match overlay.correct(
                        &mut result,
                        &interval,
                        &self.store,
                        &state.columns,
                        value_column,
                    ) {
                        Some(examined) => {
                            metrics.simulated_time_s +=
                                self.planner.scan_cost_per_row_s * examined as f64;
                        }
                        None => {
                            result = self.scan_predicate(predicate, fetch);
                            metrics.simulated_time_s += scan_s;
                            self.overlay_rescans.fetch_add(1, AtomicOrdering::Relaxed);
                        }
                    }
                }
                results[slot] = result;
            }
        }
        Ok(TableOutcome {
            results,
            metrics,
            plan: RoutePlan::new(Arc::clone(&self.defs), routes),
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

/// Builds (or rebuilds) one index from the live row store: the base, its
/// dense row list, the planner's view with calibrated probe costs, and an
/// empty overlay. Composite definitions build through the registry's typed
/// path.
fn build_index_state(
    device: &Device,
    registry: &Registry,
    store: &RowStore,
    value_pos: Option<usize>,
    planner: &Planner,
    def: &IndexDef,
    columns: &[usize],
) -> Result<IndexState, IndexError> {
    let (schema, backend, probe_keys, rows) = if def.is_composite() {
        let (schema, backend, probe_keys, rows) =
            build_composite(device, registry, store, value_pos, def, columns)?;
        (Some(schema), backend, probe_keys, rows)
    } else {
        let (keys, rows) = store.column_live(columns[0]);
        let values: Option<Vec<u64>> =
            value_pos.map(|vp| rows.iter().map(|&r| store.value_at(vp, r)).collect());
        let spec = match &values {
            Some(v) => IndexSpec::with_values(device, &keys, v),
            None => IndexSpec::keys_only(device, &keys),
        };
        let backend = registry.build(&def.spec, &spec)?;
        (None, backend, keys, rows)
    };
    let probe = planner.calibrate(backend.as_ref(), &probe_keys)?;
    Ok(IndexState {
        columns: columns.to_vec(),
        schema,
        view: IndexView::of(backend.as_ref(), probe),
        backend,
        overlay: Overlay::new(rows.len(), store.slot_count()),
        rows,
    })
}

/// The composite arm of [`build_index_state`]: projects the key columns
/// into typed tuples, resolves the key schema (explicit `{...}` in the
/// spec, else all-`u64`), and builds through the registry. Returns the
/// schema, the base, its calibration keys and its dense row list.
fn build_composite(
    device: &Device,
    registry: &Registry,
    store: &RowStore,
    value_pos: Option<usize>,
    def: &IndexDef,
    columns: &[usize],
) -> Result<(KeySchema, Base, Vec<u64>, Vec<u32>), IndexError> {
    let schema = match SpecName::parse(&def.spec)?.schema {
        Some(schema) => schema,
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
    let backend = registry.build(&def.spec, &spec)?;
    // Calibration probes run in the backend's raw key domain: the encoded
    // keys themselves for direct (single-limb) schemas; for dictionary-
    // mapped schemas the probes miss, which still measures launch cost.
    let probe_keys = if schema.limbs() == 1 {
        schema.encode_rows(&tuples)?
    } else {
        Vec::new()
    };
    Ok((schema, backend, probe_keys, rows))
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use rtindex_core::RtIndexConfig;
    use rtx_delta::DynamicRtConfig;

    use super::*;

    fn registry() -> Arc<Registry> {
        let mut registry = Registry::new();
        gpu_baselines::register_baselines(&mut registry);
        rtindex_core::register_rx(&mut registry, RtIndexConfig::default());
        rtx_delta::register_dynamic(
            &mut registry,
            DynamicRtConfig::default().with_rx(RtIndexConfig::default()),
        );
        Arc::new(registry)
    }

    fn ms(time: Duration) -> f64 {
        time.as_secs_f64() * 1e3
    }

    /// What a threshold rebuild costs on the `table_serve` schema at 2^16
    /// rows: the wall time of the 64-op ingest that crosses the threshold
    /// against the ones that do not, and each index's rebuild alone over
    /// the same rows. Prints and asserts nothing host-timed. Run with
    /// `cargo test --release -p rtx-table --lib rebuild_sweep -- --ignored --nocapture`.
    #[test]
    #[ignore = "host-timed measurement; run in release"]
    fn rebuild_sweep() {
        let rows = 1u64 << 16;
        let schema = TableSchema::new(["id", "ts", "amount"])
            .with_value_column("amount")
            .with_index("id_ht", "id", "HT")
            .with_index("ts_rx", "ts", "RX")
            .with_index("id_rxd", "id", "RXD")
            .with_composite_index("id_ts", ["id", "ts"], "SA{u32,u32}");
        let record = |id: u64| vec![id, id * 7 % (1 << 18), id];
        let records: Vec<Record> = (0..rows).map(record).collect();
        let mut table = Table::load(schema, &Device::default_eval(), registry(), &records)
            .expect("table builds");
        // Fresh rows only: every overlay reaches `rows / 16` at the 64th
        // batch.
        let mut quiet = Vec::new();
        let mut next = rows;
        let crossing = loop {
            let batch =
                (next..next + 64).fold(IngestBatch::new(), |batch, id| batch.insert(record(id)));
            next += 64;
            let start = Instant::now();
            let report = table.ingest(&batch).expect("batch applies");
            let took = start.elapsed();
            if report.rebuilt_indexes > 0 {
                assert_eq!(report.rebuilt_indexes, 4);
                break took;
            }
            quiet.push(took);
        };
        quiet.sort();
        println!(
            "ingest of 64 rows at {} rows: {} non-crossing p50 {:.3} ms, max {:.3} ms; \
             crossing {:.3} ms",
            rows,
            quiet.len(),
            ms(quiet[quiet.len() / 2]),
            ms(quiet[quiet.len() - 1]),
            ms(crossing)
        );
        for (def, state) in table.defs.iter().zip(&table.indexes) {
            let mut times: Vec<Duration> = (0..3)
                .map(|_| {
                    let start = Instant::now();
                    build_index_state(
                        &table.device,
                        &table.registry,
                        &table.store,
                        table.value_pos,
                        &table.planner,
                        def,
                        &state.columns,
                    )
                    .expect("rebuild");
                    start.elapsed()
                })
                .collect();
            times.sort();
            println!(
                "rebuild {} ({}): median of 3 {:.3} ms",
                def.name,
                def.spec,
                ms(times[1])
            );
        }
    }
}

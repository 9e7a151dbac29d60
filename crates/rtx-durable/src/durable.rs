//! [`DurableIndex`]: the WAL + snapshot wrapper around one updatable
//! backend.
//!
//! Every acknowledged update batch is appended to the WAL (and flushed per
//! the configured [`FsyncPolicy`](crate::FsyncPolicy)) *before* it applies
//! to the wrapped index; reorganisation points the replay cannot re-derive
//! (a background swap landing, an explicit compaction) are logged as their
//! own records. Reopening the directory replays the newest intact snapshot
//! plus the surviving WAL suffix and lands, batch for batch, on the exact
//! pre-crash state — rowIDs included.
//!
//! # Determinism contract
//!
//! Replay reproduces rowIDs because the wrapped backend behaves
//! deterministically given the same batch sequence: building it from a
//! spec with [`IndexSpec::durability`] set disables autonomous
//! background-swap landing (RXD's `auto_swap`), so structural
//! reorganisations happen either synchronously inside a batch (re-derived
//! by replay from the same policy) or at an explicit
//! [`poll_reorganisation`](UpdatableIndex::poll_reorganisation) that the
//! wrapper turns into a [`WalPayload::Swap`] record.
//!
//! A batch whose apply *fails* (e.g. capacity overflow) still has its
//! record in the log — the failure is deterministic, so replay fails the
//! same way and skips it, leaving state unchanged on both sides. (A
//! sharded batch can fail on one shard after others applied their slice;
//! replay reproduces the same partial failure.)
//!
//! A sharded base is logged like any other: one record per batch, before
//! it fans out to the shards. Its rowIDs stay reproducible where its
//! structure may not: a `Swap` record lands every in-flight shard rebuild
//! on replay, not only the ones that had finished live, but swaps inside
//! a shard never move a global rowID — only an explicit `Compact` does,
//! densely and in order, exactly as on the live side.

use std::path::{Path, PathBuf};

use rtx_query::{
    compose_renumbering, BatchOutcome, Capabilities, DurableStats, ExecArena, IndexBuildMetrics,
    IndexError, IndexSpec, MemoryUsage, QueryBatch, QueryOutcome, Registry, SecondaryIndex,
    UpdatableIndex, UpdateReport,
};

use crate::config::DurableConfig;
use crate::io_err;
use crate::record::{WalPayload, WalRecord};
use crate::snapshot::{read_latest_snapshot, write_snapshot, Snapshot};
use crate::wal::WriteAheadLog;

/// WAL subdirectory of a durable index directory.
const WAL_SUBDIR: &str = "wal";

/// A WAL-backed persistent wrapper around one updatable backend.
///
/// Built by the registry from a `"<base>+wal:<path>"` name (see
/// [`install_durability`](crate::install_durability)); the directory layout
/// is `<path>/META`, `<path>/wal/wal-*.seg` and `<path>/snap-*.snap`.
pub struct DurableIndex {
    label: String,
    inner: Box<dyn UpdatableIndex>,
    wal: WriteAheadLog,
    dir: PathBuf,
    config: DurableConfig,
    /// Next batch sequence number to log.
    bsn: u64,
    snapshots: u64,
    last_snapshot_bsn: u64,
    last_snapshot_bytes: u64,
    replayed_batches: u64,
    has_values: bool,
}

impl DurableIndex {
    /// Creates a fresh durable index at `dir`: builds the base backend over
    /// the spec's columns, writes the initial snapshot (a fresh build is
    /// trivially clean — the columns *are* the checkpoint) and starts an
    /// empty WAL.
    pub fn create(
        registry: &Registry,
        base: &str,
        spec: &IndexSpec<'_>,
        dir: &Path,
        config: DurableConfig,
    ) -> Result<Self, IndexError> {
        let label = durable_label(base);
        let inner = registry.build_updatable(base, spec)?;
        let has_values = inner.has_value_column();
        let rows: Vec<(u64, u64)> = match spec.values() {
            Some(values) => spec
                .keys
                .iter()
                .copied()
                .zip(values.iter().copied())
                .collect(),
            None => spec.keys.iter().map(|&k| (k, 0)).collect(),
        };
        let snapshot = Snapshot {
            bsn: 0,
            has_values,
            rows,
        };
        let last_snapshot_bytes = write_snapshot(dir, &snapshot).map_err(|e| io_err(&label, e))?;
        let wal =
            WriteAheadLog::create(&dir.join(WAL_SUBDIR), &config).map_err(|e| io_err(&label, e))?;
        Ok(DurableIndex {
            label,
            inner,
            wal,
            dir: dir.to_path_buf(),
            config,
            bsn: 1,
            snapshots: 1,
            last_snapshot_bsn: 0,
            last_snapshot_bytes,
            replayed_batches: 0,
            has_values,
        })
    }

    /// Reopens the durable index at `dir`: rebuilds the base backend from
    /// the newest intact snapshot, then replays the surviving WAL suffix
    /// batch by batch. `spec` supplies the ambient device / builder
    /// selection; its key column is ignored (the snapshot is the truth).
    pub fn open(
        registry: &Registry,
        base: &str,
        spec: &IndexSpec<'_>,
        dir: &Path,
        config: DurableConfig,
    ) -> Result<Self, IndexError> {
        let label = durable_label(base);
        let (snapshot, snapshot_bytes) = read_latest_snapshot(dir)
            .map_err(|e| io_err(&label, e))?
            .ok_or_else(|| IndexError::Backend {
                backend: label.clone().into(),
                message: format!("no intact snapshot found in {}", dir.display()),
            })?;
        let (keys, values) = snapshot.columns();
        let inner_spec = IndexSpec {
            device: spec.device,
            keys: &keys,
            values: values.map(std::sync::Arc::from),
            builder: spec.builder,
            durability: spec.durability.clone(),
            // Composite schemas wrap outside the durable layer; the inner
            // rebuild always happens in the encoded key space.
            key_schema: None,
            rows: None,
        };
        let mut inner = registry.build_updatable(base, &inner_spec)?;
        let has_values = inner.has_value_column();

        let (mut wal, records) =
            WriteAheadLog::open(&dir.join(WAL_SUBDIR), &config).map_err(|e| io_err(&label, e))?;
        let (replayed_batches, bsn) = replay_records(&mut *inner, &mut wal, &records, snapshot.bsn)
            .map_err(|e| io_err(&label, e))?;
        Ok(DurableIndex {
            label,
            inner,
            wal,
            dir: dir.to_path_buf(),
            config,
            bsn,
            snapshots: 0,
            last_snapshot_bsn: snapshot.bsn,
            last_snapshot_bytes: snapshot_bytes,
            replayed_batches,
            has_values,
        })
    }

    /// The wrapped backend (for inspection in tests and tooling).
    pub fn inner(&self) -> &dyn UpdatableIndex {
        &*self.inner
    }

    fn next_bsn(&mut self) -> u64 {
        let bsn = self.bsn;
        self.bsn += 1;
        bsn
    }

    fn log(&mut self, payload: WalPayload) -> Result<(), IndexError> {
        let bsn = self.next_bsn();
        self.wal
            .append(&WalRecord::new(bsn, payload))
            .map_err(|e| io_err(&self.label, e))?;
        Ok(())
    }

    fn commit_log(&mut self) -> Result<(), IndexError> {
        self.wal.commit().map_err(|e| io_err(&self.label, e))
    }

    /// Logs the swap a poll or await landed, so replay reproduces the
    /// renumbering point.
    fn log_swap(&mut self, landed: UpdateReport) -> Result<UpdateReport, IndexError> {
        if landed.reorganisations > 0 {
            self.log(WalPayload::Swap)?;
            self.commit_log()?;
        }
        Ok(landed)
    }

    /// The shared log-then-apply path of insert / delete / upsert.
    fn logged_update<F>(
        &mut self,
        payload: WalPayload,
        apply: F,
    ) -> Result<UpdateReport, IndexError>
    where
        F: FnOnce(&mut dyn UpdatableIndex) -> Result<UpdateReport, IndexError>,
    {
        let was_in_flight = self.inner.reorganisation_in_flight();
        self.log(payload)?;
        self.commit_log()?;
        let mut report = apply(&mut *self.inner)?;
        // Annotations: no-ops for index replay (the policy re-derives them)
        // but they make the log self-describing for rowID-exact oracle
        // replay. A crash can tear them off the tail; recovery re-derives
        // and re-appends them (log healing).
        if report.reorganisations > 0 {
            self.log(WalPayload::SyncCompact)?;
        }
        if !was_in_flight && self.inner.reorganisation_in_flight() {
            self.log(WalPayload::Freeze)?;
        }
        self.commit_log()?;
        // Land a completed background rebuild so its swap point is an
        // explicit record right *after* this batch, and hand the caller one
        // renumbering for everything that moved rows under this call: the
        // batch's own compaction, then the swap, then a checkpoint's.
        let swapped = self.poll_reorganisation()?;
        report.renumbered = compose_renumbering(report.renumbered, swapped.renumbered);
        report.renumbered = compose_renumbering(report.renumbered, self.maybe_checkpoint()?);
        Ok(report)
    }

    fn check_value_batch(&self, keys: &[u64], values: &[u64]) -> Result<(), IndexError> {
        if keys.len() != values.len() {
            return Err(IndexError::ValueColumnLengthMismatch {
                expected: keys.len(),
                actual: values.len(),
            });
        }
        Ok(())
    }

    /// Runs an automatic checkpoint when the WAL has outgrown the
    /// configured threshold. A backend without explicit compaction cannot
    /// checkpoint; its WAL simply keeps growing (documented trade-off).
    /// Returns how the checkpoint's compaction renumbered the rows.
    fn maybe_checkpoint(&mut self) -> Result<Option<Vec<u32>>, IndexError> {
        if self.wal.bytes() < self.config.snapshot_wal_bytes {
            return Ok(None);
        }
        match self.checkpoint_now() {
            Ok(compacted) => Ok(compacted.renumbered),
            Err(IndexError::UnsupportedOperation { .. }) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// The checkpoint protocol: log a `Compact` record (bsn `b`), force it
    /// to disk, compact the index to a clean state, snapshot the clean rows
    /// at `b` and truncate the WAL through `b`. A crash at any point
    /// replays to the same state: before the snapshot lands, recovery
    /// re-runs the compaction from the logged record; after it, the record
    /// is gone but the snapshot covers it. Returns the compaction's report.
    fn checkpoint_now(&mut self) -> Result<UpdateReport, IndexError> {
        let bsn = self.next_bsn();
        self.wal
            .append(&WalRecord::new(bsn, WalPayload::Compact))
            .map_err(|e| io_err(&self.label, e))?;
        self.wal.sync().map_err(|e| io_err(&self.label, e))?;
        let compacted = self.inner.compact()?;
        let rows = self
            .inner
            .checkpoint_rows()
            .ok_or_else(|| IndexError::Backend {
                backend: self.label.clone().into(),
                message: "index did not reach a clean state after compaction; cannot snapshot"
                    .to_string(),
            })?;
        let snapshot = Snapshot {
            bsn,
            has_values: self.has_values,
            rows,
        };
        let bytes = write_snapshot(&self.dir, &snapshot).map_err(|e| io_err(&self.label, e))?;
        self.wal
            .truncate_through(bsn)
            .map_err(|e| io_err(&self.label, e))?;
        self.snapshots += 1;
        self.last_snapshot_bsn = bsn;
        self.last_snapshot_bytes = bytes;
        Ok(compacted)
    }
}

/// `"<base>+wal"` — the display label of a durable wrapper.
pub(crate) fn durable_label(base: &str) -> String {
    format!("{base}+wal")
}

/// Replays `records` with bsn above `covered` into `inner`, healing
/// torn-off tail annotations back into `wal`. Returns the number of update
/// batches replayed and the next bsn to log.
fn replay_records(
    inner: &mut dyn UpdatableIndex,
    wal: &mut WriteAheadLog,
    records: &[WalRecord],
    covered: u64,
) -> std::io::Result<(u64, u64)> {
    let mut max_bsn = covered;
    let mut replayed = 0u64;
    let mut healed: Vec<WalPayload> = Vec::new();
    let mut i = 0;
    while i < records.len() {
        let record = &records[i];
        max_bsn = max_bsn.max(record.bsn);
        if record.bsn <= covered {
            i += 1;
            continue;
        }
        match &record.payload {
            WalPayload::Insert { keys, values, .. } => {
                let was_in_flight = inner.reorganisation_in_flight();
                let report = inner.insert(keys, values);
                replayed += 1;
                i = consume_annotations(inner, records, i, was_in_flight, report, &mut healed);
            }
            WalPayload::Delete { keys } => {
                let was_in_flight = inner.reorganisation_in_flight();
                let report = inner.delete(keys);
                replayed += 1;
                i = consume_annotations(inner, records, i, was_in_flight, report, &mut healed);
            }
            WalPayload::Upsert { keys, values, .. } => {
                let was_in_flight = inner.reorganisation_in_flight();
                let report = inner.upsert(keys, values);
                replayed += 1;
                i = consume_annotations(inner, records, i, was_in_flight, report, &mut healed);
            }
            // Replay forces the swap exactly where it landed live.
            WalPayload::Swap => {
                let _ = inner.await_reorganisation();
            }
            // Re-run the explicit compaction (a deterministic failure is
            // skipped, exactly as it failed live).
            WalPayload::Compact => {
                let _ = inner.compact();
            }
            // Stray annotations (already consumed ones never reach here).
            WalPayload::Freeze | WalPayload::SyncCompact => {}
        }
        i += 1;
    }
    // Heal: re-append annotations the crash tore off the tail, so the log
    // is self-describing again for the *next* recovery / inspector.
    for payload in healed {
        max_bsn += 1;
        wal.append(&WalRecord::new(max_bsn, payload))?;
    }
    wal.commit()?;
    Ok((replayed, max_bsn + 1))
}

/// After replaying an update record at `i`, consumes its expected
/// annotation records (logged live right after the batch) or schedules the
/// missing ones for healing. Returns the new position (still pointing at
/// the last consumed record; the caller's `i += 1` advances past it).
fn consume_annotations(
    inner: &dyn UpdatableIndex,
    records: &[WalRecord],
    mut i: usize,
    was_in_flight: bool,
    report: Result<UpdateReport, IndexError>,
    healed: &mut Vec<WalPayload>,
) -> usize {
    let (sync_compacted, froze) = match report {
        Ok(report) => (
            report.reorganisations > 0,
            !was_in_flight && inner.reorganisation_in_flight(),
        ),
        // A failed batch changed nothing and logged no annotations.
        Err(_) => (false, false),
    };
    // Live order: SyncCompact first, then Freeze.
    for (expected, payload) in [
        (sync_compacted, WalPayload::SyncCompact),
        (froze, WalPayload::Freeze),
    ] {
        if !expected {
            continue;
        }
        if records.get(i + 1).map(|r| &r.payload) == Some(&payload) {
            i += 1;
        } else {
            healed.push(payload);
        }
    }
    i
}

impl SecondaryIndex for DurableIndex {
    fn name(&self) -> &str {
        &self.label
    }

    fn key_count(&self) -> usize {
        self.inner.key_count()
    }

    fn memory_bytes(&self) -> u64 {
        self.inner.memory_bytes()
    }

    fn build_metrics(&self) -> IndexBuildMetrics {
        self.inner.build_metrics()
    }

    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }

    fn has_value_column(&self) -> bool {
        self.has_values
    }

    fn memory_usage(&self) -> MemoryUsage {
        let mut usage = self.inner.memory_usage();
        usage.wal_buffer_bytes += self.wal.unsynced_bytes();
        usage
    }

    fn durability_stats(&self) -> Option<DurableStats> {
        Some(DurableStats {
            wal_bytes: self.wal.bytes(),
            fsyncs: self.wal.fsyncs(),
            snapshots: self.snapshots,
            last_snapshot_bsn: self.last_snapshot_bsn,
            last_snapshot_bytes: self.last_snapshot_bytes,
            replayed_batches: self.replayed_batches,
        })
    }

    fn point_chunk(&self, queries: &[u64], fetch_values: bool) -> Result<BatchOutcome, IndexError> {
        self.inner.point_chunk(queries, fetch_values)
    }

    fn range_chunk(
        &self,
        ranges: &[(u64, u64)],
        fetch_values: bool,
    ) -> Result<BatchOutcome, IndexError> {
        self.inner.range_chunk(ranges, fetch_values)
    }

    /// Delegates whole-batch execution to the wrapped backend so its own
    /// strategy (e.g. sharded scatter/gather parallelism) is preserved
    /// rather than flattened through the chunk hooks.
    fn execute_in(
        &self,
        batch: &QueryBatch,
        arena: &mut ExecArena,
    ) -> Result<QueryOutcome, IndexError> {
        self.inner.execute_in(batch, arena)
    }
}

impl UpdatableIndex for DurableIndex {
    fn insert(&mut self, keys: &[u64], values: &[u64]) -> Result<UpdateReport, IndexError> {
        // Validate *before* logging: a mismatched batch must not reach the
        // log (its frame encodes `keys.len()` pairs).
        self.check_value_batch(keys, values)?;
        self.logged_update(
            WalPayload::Insert {
                keys: keys.to_vec(),
                values: values.to_vec(),
                globals: None,
            },
            |inner| inner.insert(keys, values),
        )
    }

    fn delete(&mut self, keys: &[u64]) -> Result<UpdateReport, IndexError> {
        self.logged_update(
            WalPayload::Delete {
                keys: keys.to_vec(),
            },
            |inner| inner.delete(keys),
        )
    }

    fn upsert(&mut self, keys: &[u64], values: &[u64]) -> Result<UpdateReport, IndexError> {
        self.check_value_batch(keys, values)?;
        self.logged_update(
            WalPayload::Upsert {
                keys: keys.to_vec(),
                values: values.to_vec(),
                globals: None,
            },
            |inner| inner.upsert(keys, values),
        )
    }

    fn poll_reorganisation(&mut self) -> Result<UpdateReport, IndexError> {
        let landed = self.inner.poll_reorganisation()?;
        self.log_swap(landed)
    }

    fn await_reorganisation(&mut self) -> Result<UpdateReport, IndexError> {
        let landed = self.inner.await_reorganisation()?;
        self.log_swap(landed)
    }

    fn reorganisation_in_flight(&self) -> bool {
        self.inner.reorganisation_in_flight()
    }

    /// An explicit compaction is logged like any other reorganisation point
    /// (no snapshot — use [`checkpoint`](UpdatableIndex::checkpoint) for
    /// that).
    fn compact(&mut self) -> Result<UpdateReport, IndexError> {
        self.log(WalPayload::Compact)?;
        self.commit_log()?;
        self.inner.compact()
    }

    fn checkpoint_rows(&self) -> Option<Vec<(u64, u64)>> {
        self.inner.checkpoint_rows()
    }

    fn checkpoint(&mut self) -> Result<u64, IndexError> {
        self.checkpoint_now().map(|_| 1)
    }
}

impl std::fmt::Debug for DurableIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableIndex")
            .field("label", &self.label)
            .field("dir", &self.dir)
            .field("bsn", &self.bsn)
            .field("key_count", &self.inner.key_count())
            .finish()
    }
}

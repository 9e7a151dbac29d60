//! [`ShardedDurableIndex`]: per-shard WALs plus a root commit journal, so
//! a sharded backend persists and recovers *in parallel* on the worker
//! pool.
//!
//! # Commit protocol
//!
//! One update batch fans out to its owning shards; every per-shard record
//! of the batch carries the same bsn, and the batch is *committed* by a
//! [`WalPayload::Commit`] record with that bsn in the root journal (which
//! also persists the global row allocator). Recovery computes the commit
//! frontier from the root checkpoint and the journal, then opens each
//! shard WAL with the frontier as its cut-off: shard-side records of a
//! batch whose commit never reached the disk are physically truncated, so
//! a crash between the shard appends and the journal append rolls the
//! whole batch back.
//!
//! A batch is routed once, by [`ShardedIndex::route`]: the slices it
//! returns are what the shard WALs log *and* what
//! [`ShardedIndex::apply_routed`] then applies, so the log and the index
//! cannot disagree about ownership or rowIDs, and a batch the router
//! rejects (value column length, rowID-space overflow) never reaches a log.
//!
//! Per-shard insert records carry the *global* rowIDs assigned in batch
//! order — globals never renumber (the shard row mirrors follow every
//! renumbering the inner backends report, live and during replay alike),
//! which is also why an uncommitted, truncated `Swap`
//! record is harmless: the in-flight rebuild simply restarts during replay
//! and lands at the next live poll.
//!
//! # Consistency under lazy fsync
//!
//! With [`FsyncPolicy::Always`](crate::FsyncPolicy::Always) (the default)
//! an acknowledged batch is fully durable and recovery is cross-shard
//! consistent. The lazy policies (`EveryN`, `Never`) weaken this to
//! *per-shard prefix consistency*: a commit record may survive a crash
//! that lost a shard's record of the same batch, so the recovered index
//! can hold a batch partially — each shard still recovers a clean prefix
//! of its own stream, mirroring the documented non-atomicity of sharded
//! updates themselves.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use gpu_device::executor::parallel_map;
use rtx_query::{
    BatchOutcome, Capabilities, DurableStats, ExecArena, IndexBuildMetrics, IndexError, IndexSpec,
    MemoryUsage, QueryBatch, QueryOutcome, Registry, RowMirror, SecondaryIndex, ShardSpec,
    UpdatableIndex, UpdateReport,
};
use rtx_shard::{RouterConfig, ShardedIndex, UpdateKind};

use crate::config::DurableConfig;
use crate::durable::{durable_label, WAL_SUBDIR};
use crate::io_err;
use crate::record::{WalPayload, WalRecord};
use crate::snapshot::{read_latest_snapshot, write_snapshot, Snapshot};
use crate::wal::WriteAheadLog;

/// Root-journal subdirectory of a sharded durable index directory.
const JOURNAL_SUBDIR: &str = "journal";
/// Root-checkpoint subdirectory (the global allocator + frontier).
const ROOT_SUBDIR: &str = "root";

fn shard_dir(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:03}"))
}

/// A WAL-backed persistent wrapper around a [`ShardedIndex`]: one WAL and
/// snapshot chain per shard, one root journal for cross-shard commits.
/// Shards recover in parallel and snap back together through
/// [`ShardedIndex::from_parts`].
pub struct ShardedDurableIndex {
    label: String,
    inner: ShardedIndex,
    shard_wals: Vec<WriteAheadLog>,
    journal: WriteAheadLog,
    dir: PathBuf,
    config: DurableConfig,
    /// Next batch sequence number to log (shared by shard WALs + journal).
    bsn: u64,
    snapshots: u64,
    last_snapshot_bsn: u64,
    last_snapshot_bytes: u64,
    replayed_batches: u64,
    has_values: bool,
}

impl ShardedDurableIndex {
    /// Creates a fresh sharded durable index at `dir`: builds the sharded
    /// backend over the spec's columns, snapshots every (trivially clean)
    /// shard plus the root allocator, and starts the empty WALs.
    pub fn create(
        registry: &Registry,
        base: &str,
        spec: &IndexSpec<'_>,
        dir: &Path,
        config: DurableConfig,
    ) -> Result<Self, IndexError> {
        let label = durable_label(base);
        let shard_spec = ShardSpec::parse(base).ok_or_else(|| IndexError::Backend {
            backend: label.clone().into(),
            message: format!("{base:?} is not a sharded spec"),
        })?;
        let inner = ShardedIndex::build_updatable(registry, &shard_spec, spec)?;
        let has_values = inner.has_value_column();
        let shard_rows = inner
            .shard_checkpoint_rows()
            .ok_or_else(|| IndexError::Backend {
                backend: label.clone().into(),
                message: "freshly built shards are not in a clean state; cannot snapshot"
                    .to_string(),
            })?;
        let last_snapshot_bytes =
            write_all_snapshots(dir, 0, &shard_rows, has_values, inner.next_row(), &label)?;
        let journal = WriteAheadLog::create(&dir.join(JOURNAL_SUBDIR), &config)
            .map_err(|e| io_err(&label, e))?;
        let shard_wals = (0..inner.shard_count())
            .map(|s| WriteAheadLog::create(&shard_dir(dir, s).join(WAL_SUBDIR), &config))
            .collect::<std::io::Result<Vec<_>>>()
            .map_err(|e| io_err(&label, e))?;
        Ok(ShardedDurableIndex {
            label,
            inner,
            shard_wals,
            journal,
            dir: dir.to_path_buf(),
            config,
            bsn: 1,
            snapshots: shard_rows.len() as u64 + 1,
            last_snapshot_bsn: 0,
            last_snapshot_bytes,
            replayed_batches: 0,
            has_values,
        })
    }

    /// Reopens the sharded durable index at `dir`. `router` and
    /// `has_values` come from the manifest (range partition bounds cannot
    /// be re-derived — the original build column is gone). Shards recover
    /// concurrently on the worker pool.
    pub fn open(
        registry: &Registry,
        base: &str,
        spec: &IndexSpec<'_>,
        dir: &Path,
        config: DurableConfig,
        router: RouterConfig,
        has_values: bool,
    ) -> Result<Self, IndexError> {
        let label = durable_label(base);
        let shard_spec = ShardSpec::parse(base).ok_or_else(|| IndexError::Backend {
            backend: label.clone().into(),
            message: format!("{base:?} is not a sharded spec"),
        })?;

        // The commit frontier: the root checkpoint's bsn, advanced by every
        // surviving journal commit. The journal also carries the global row
        // allocator forward.
        let (root, _) = read_latest_snapshot(&dir.join(ROOT_SUBDIR))
            .map_err(|e| io_err(&label, e))?
            .ok_or_else(|| IndexError::Backend {
                backend: label.clone().into(),
                message: format!("no intact root checkpoint in {}", dir.display()),
            })?;
        let (journal, commits) = WriteAheadLog::open(&dir.join(JOURNAL_SUBDIR), &config, None)
            .map_err(|e| io_err(&label, e))?;
        let mut frontier = root.bsn;
        let mut next_row = root.next_row;
        for record in &commits {
            if let WalPayload::Commit { next_row: row } = record.payload {
                if record.bsn >= frontier {
                    frontier = record.bsn;
                    next_row = next_row.max(row);
                }
            }
        }

        // Parallel per-shard recovery: snapshot → rebuild → WAL replay,
        // each shard cut at the commit frontier.
        let shard_count = router.shard_count();
        let recovered = parallel_map((0..shard_count).collect::<Vec<_>>(), |_, s| {
            recover_shard(
                registry,
                &shard_spec.backend,
                spec,
                &shard_dir(dir, s),
                &config,
                frontier,
            )
        });
        let mut parts = Vec::with_capacity(shard_count);
        let mut shard_wals = Vec::with_capacity(shard_count);
        let mut replayed_batches = 0;
        for shard in recovered {
            let (backend, mirror, wal, replayed) = shard?;
            parts.push((backend, mirror));
            shard_wals.push(wal);
            replayed_batches += replayed;
        }
        let inner =
            ShardedIndex::from_parts(base.to_string(), router, parts, has_values, next_row)?;
        Ok(ShardedDurableIndex {
            label,
            inner,
            shard_wals,
            journal,
            dir: dir.to_path_buf(),
            config,
            bsn: frontier + 1,
            snapshots: 0,
            last_snapshot_bsn: root.bsn,
            last_snapshot_bytes: 0,
            replayed_batches,
            has_values,
        })
    }

    /// The wrapped sharded backend (for inspection and the manifest).
    pub fn inner(&self) -> &ShardedIndex {
        &self.inner
    }

    fn next_bsn(&mut self) -> u64 {
        let bsn = self.bsn;
        self.bsn += 1;
        bsn
    }

    /// The shared route-log-apply path of insert / delete / upsert: the
    /// batch is routed (and thereby validated) once, one record per
    /// non-empty slice goes to the owning shard WAL (shared bsn) and is
    /// flushed, the root journal commits the batch with the post-batch
    /// allocator position, and only then does the same routing apply.
    fn logged_update(
        &mut self,
        kind: UpdateKind,
        keys: &[u64],
        values: &[u64],
    ) -> Result<UpdateReport, IndexError> {
        let routed = self.inner.route(kind, keys, values)?;
        self.land_swaps(false)?;
        let bsn = self.next_bsn();
        for (s, (keys, values, globals)) in routed.shards().enumerate() {
            if keys.is_empty() {
                continue;
            }
            let (keys, values, globals) = (keys.to_vec(), values.to_vec(), Some(globals.to_vec()));
            let payload = match kind {
                UpdateKind::Insert => WalPayload::Insert {
                    keys,
                    values,
                    globals,
                },
                UpdateKind::Delete => WalPayload::Delete { keys },
                UpdateKind::Upsert => WalPayload::Upsert {
                    keys,
                    values,
                    globals,
                },
            };
            self.shard_wals[s]
                .append(&WalRecord::new(bsn, payload))
                .and_then(|_| self.shard_wals[s].commit())
                .map_err(|e| io_err(&self.label, e))?;
        }
        self.commit_point(bsn, routed.next_row())?;
        let report = self.inner.apply_routed(routed)?;
        self.maybe_checkpoint()?;
        Ok(report)
    }

    /// The cross-shard commit: one `Commit` record in the root journal.
    fn commit_point(&mut self, bsn: u64, next_row: u64) -> Result<(), IndexError> {
        self.journal
            .append(&WalRecord::new(bsn, WalPayload::Commit { next_row }))
            .and_then(|_| self.journal.commit())
            .map_err(|e| io_err(&self.label, e))
    }

    /// Lands background swaps shard by shard — the completed ones, or with
    /// `wait` every in-flight one — logging a `Swap` record into each
    /// affected shard's WAL (one shared bsn).
    fn land_swaps(&mut self, wait: bool) -> Result<UpdateReport, IndexError> {
        let landed = self.inner.land_shard_reorganisations(wait)?;
        let total: u64 = landed.iter().sum();
        if total > 0 {
            let bsn = self.next_bsn();
            for (s, &count) in landed.iter().enumerate() {
                if count > 0 {
                    self.shard_wals[s]
                        .append(&WalRecord::new(bsn, WalPayload::Swap))
                        .and_then(|_| self.shard_wals[s].commit())
                        .map_err(|e| io_err(&self.label, e))?;
                }
            }
            let next_row = self.inner.next_row();
            self.commit_point(bsn, next_row)?;
        }
        Ok(UpdateReport {
            reorganisations: total,
            ..Default::default()
        })
    }

    fn total_wal_bytes(&self) -> u64 {
        self.shard_wals.iter().map(|w| w.bytes()).sum::<u64>() + self.journal.bytes()
    }

    fn maybe_checkpoint(&mut self) -> Result<(), IndexError> {
        if self.total_wal_bytes() < self.config.snapshot_wal_bytes {
            return Ok(());
        }
        match self.checkpoint_now() {
            Ok(_) => Ok(()),
            Err(IndexError::UnsupportedOperation { .. }) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// The sharded checkpoint protocol: a `Compact` record in every shard
    /// WAL (forced to disk) committed in the journal, a forced compaction
    /// to clean state, one snapshot per shard plus the root checkpoint, and
    /// truncation of every log through the checkpoint bsn.
    fn checkpoint_now(&mut self) -> Result<u64, IndexError> {
        let bsn = self.next_bsn();
        for wal in &mut self.shard_wals {
            wal.append(&WalRecord::new(bsn, WalPayload::Compact))
                .and_then(|_| wal.sync())
                .map_err(|e| io_err(&self.label, e))?;
        }
        let next_row = self.inner.next_row();
        self.journal
            .append(&WalRecord::new(bsn, WalPayload::Commit { next_row }))
            .and_then(|_| self.journal.sync())
            .map_err(|e| io_err(&self.label, e))?;
        self.inner.compact()?;
        let shard_rows = self
            .inner
            .shard_checkpoint_rows()
            .ok_or_else(|| IndexError::Backend {
                backend: self.label.clone().into(),
                message: "shards did not reach a clean state after compaction; cannot snapshot"
                    .to_string(),
            })?;
        let bytes = write_all_snapshots(
            &self.dir,
            bsn,
            &shard_rows,
            self.has_values,
            self.inner.next_row(),
            &self.label,
        )?;
        for wal in &mut self.shard_wals {
            wal.truncate_through(bsn)
                .map_err(|e| io_err(&self.label, e))?;
        }
        self.journal
            .truncate_through(bsn)
            .map_err(|e| io_err(&self.label, e))?;
        self.snapshots += shard_rows.len() as u64 + 1;
        self.last_snapshot_bsn = bsn;
        self.last_snapshot_bytes = bytes;
        Ok(1)
    }
}

/// Writes one snapshot per shard (its clean `(key, value, global)` rows)
/// plus the root checkpoint (no rows — just the frontier bsn and the
/// global allocator). Returns the total bytes written.
fn write_all_snapshots(
    dir: &Path,
    bsn: u64,
    shard_rows: &[Vec<(u64, u64, u32)>],
    has_values: bool,
    next_row: u64,
    label: &str,
) -> Result<u64, IndexError> {
    let mut total = 0;
    for (s, rows) in shard_rows.iter().enumerate() {
        let snapshot = Snapshot {
            bsn,
            next_row: 0,
            has_values,
            rows: rows.iter().map(|&(k, v, _)| (k, v)).collect(),
            globals: Some(rows.iter().map(|&(_, _, g)| g).collect()),
        };
        total += write_snapshot(&shard_dir(dir, s), &snapshot).map_err(|e| io_err(label, e))?;
    }
    let root = Snapshot {
        bsn,
        next_row,
        has_values,
        rows: Vec::new(),
        globals: None,
    };
    total += write_snapshot(&dir.join(ROOT_SUBDIR), &root).map_err(|e| io_err(label, e))?;
    Ok(total)
}

/// Recovers one shard: rebuild from its snapshot, replay its WAL (cut at
/// the commit frontier), and reconstruct the local→global row mirror by
/// feeding it what the live index fed its own: each replayed record's
/// global rowIDs and the report of replaying it.
fn recover_shard(
    registry: &Registry,
    backend: &str,
    spec: &IndexSpec<'_>,
    dir: &Path,
    config: &DurableConfig,
    frontier: u64,
) -> Result<(Box<dyn UpdatableIndex>, RowMirror, WriteAheadLog, u64), IndexError> {
    let label = durable_label(backend);
    let (snapshot, _) = read_latest_snapshot(dir)
        .map_err(|e| io_err(&label, e))?
        .ok_or_else(|| IndexError::Backend {
            backend: label.clone().into(),
            message: format!("no intact shard snapshot in {}", dir.display()),
        })?;
    let snapshot_globals = snapshot
        .globals
        .clone()
        .ok_or_else(|| IndexError::Backend {
            backend: label.clone().into(),
            message: "shard snapshot carries no global rowIDs".to_string(),
        })?;
    let (keys, values) = snapshot.columns();
    let inner_spec = IndexSpec {
        device: spec.device,
        keys: &keys,
        values: values.map(Arc::from),
        builder: spec.builder,
        durability: spec.durability.clone(),
        // Composite schemas wrap outside the durable layer; shard rebuilds
        // happen in the encoded key space.
        key_schema: None,
        rows: None,
    };
    let mut ix = registry.build_updatable(backend, &inner_spec)?;
    let mut mirror = RowMirror::dense(snapshot_globals);

    let (wal, records) = WriteAheadLog::open(&dir.join(WAL_SUBDIR), config, Some(frontier))
        .map_err(|e| io_err(&label, e))?;
    let mut replayed = 0u64;
    for record in &records {
        if record.bsn <= snapshot.bsn {
            continue;
        }
        // A record whose replay fails changed nothing, exactly as it
        // failed live.
        let (appended, report): (&[u32], _) = match &record.payload {
            WalPayload::Insert {
                keys,
                values,
                globals,
            } => {
                replayed += 1;
                (require_globals(globals, &label)?, ix.insert(keys, values))
            }
            WalPayload::Delete { keys } => {
                replayed += 1;
                (&[], ix.delete(keys))
            }
            WalPayload::Upsert {
                keys,
                values,
                globals,
            } => {
                replayed += 1;
                (require_globals(globals, &label)?, ix.upsert(keys, values))
            }
            WalPayload::Swap => (&[], ix.await_reorganisation()),
            WalPayload::Compact => (&[], ix.compact()),
            WalPayload::Freeze | WalPayload::SyncCompact | WalPayload::Commit { .. } => continue,
        };
        if let Ok(report) = report {
            mirror.apply(appended, &report);
        }
    }
    Ok((ix, mirror, wal, replayed))
}

fn require_globals<'a>(
    globals: &'a Option<Vec<u32>>,
    label: &str,
) -> Result<&'a [u32], IndexError> {
    globals.as_deref().ok_or_else(|| IndexError::Backend {
        backend: label.to_string().into(),
        message: "per-shard insert record carries no global rowIDs".to_string(),
    })
}

impl SecondaryIndex for ShardedDurableIndex {
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
        usage.wal_buffer_bytes += self
            .shard_wals
            .iter()
            .map(|w| w.unsynced_bytes())
            .sum::<u64>()
            + self.journal.unsynced_bytes();
        usage
    }

    fn durability_stats(&self) -> Option<DurableStats> {
        Some(DurableStats {
            wal_bytes: self.total_wal_bytes(),
            fsyncs: self.shard_wals.iter().map(|w| w.fsyncs()).sum::<u64>() + self.journal.fsyncs(),
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

    /// Delegates to the sharded scatter/gather path (concurrent per-shard
    /// execution, global rowID translation).
    fn execute_in(
        &self,
        batch: &QueryBatch,
        arena: &mut ExecArena,
    ) -> Result<QueryOutcome, IndexError> {
        self.inner.execute_in(batch, arena)
    }
}

impl UpdatableIndex for ShardedDurableIndex {
    fn insert(&mut self, keys: &[u64], values: &[u64]) -> Result<UpdateReport, IndexError> {
        self.logged_update(UpdateKind::Insert, keys, values)
    }

    fn delete(&mut self, keys: &[u64]) -> Result<UpdateReport, IndexError> {
        self.logged_update(UpdateKind::Delete, keys, &[])
    }

    fn upsert(&mut self, keys: &[u64], values: &[u64]) -> Result<UpdateReport, IndexError> {
        self.logged_update(UpdateKind::Upsert, keys, values)
    }

    fn poll_reorganisation(&mut self) -> Result<UpdateReport, IndexError> {
        self.land_swaps(false)
    }

    fn await_reorganisation(&mut self) -> Result<UpdateReport, IndexError> {
        self.land_swaps(true)
    }

    fn reorganisation_in_flight(&self) -> bool {
        self.inner.reorganisation_in_flight()
    }

    /// An explicit compaction reaches every shard; each shard WAL gets the
    /// `Compact` record so replay re-runs it in place.
    fn compact(&mut self) -> Result<UpdateReport, IndexError> {
        let bsn = self.next_bsn();
        for wal in &mut self.shard_wals {
            wal.append(&WalRecord::new(bsn, WalPayload::Compact))
                .and_then(|_| wal.commit())
                .map_err(|e| io_err(&self.label, e))?;
        }
        let next_row = self.inner.next_row();
        self.commit_point(bsn, next_row)?;
        self.inner.compact()
    }

    fn checkpoint(&mut self) -> Result<u64, IndexError> {
        self.checkpoint_now()
    }
}

impl std::fmt::Debug for ShardedDurableIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedDurableIndex")
            .field("label", &self.label)
            .field("dir", &self.dir)
            .field("shards", &self.shard_wals.len())
            .field("bsn", &self.bsn)
            .finish()
    }
}

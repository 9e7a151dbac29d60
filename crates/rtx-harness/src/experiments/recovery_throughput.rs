//! Beyond-paper experiment: crash-recovery throughput of durable indexes.
//!
//! The `rtx-durable` layer makes the dynamic index persistent: every update
//! batch is written to a WAL before it applies, and checkpoints serialize
//! the compacted base into a snapshot so the log can be truncated. What a
//! crashed index must redo on reopen is the surviving log, and a checkpoint
//! trades that replay for snapshot bytes on disk.
//!
//! This experiment drives a write-only mixed stream (inserts, deletes,
//! upserts) into a durable RXD index with automatic checkpoints disabled,
//! "crashes" it (drops the handle) at increasing WAL lengths, and reopens
//! it. A final run checkpoints before the crash, so the last row shows the
//! snapshot shortcut against the longest log.
//!
//! Qualitative expectation: the WAL and the replayed batches grow with the
//! crash point, and the checkpointed run replays nothing despite having
//! seen the most writes. The reopen's wall clock is measured by the
//! benchmark package (`bench.recovery_s`, `rtx-durable.replay_us_per_batch`),
//! not here.

use std::path::PathBuf;

use rtx_query::IndexSpec;
use rtx_workloads::{self as wl, MixedOp};

use crate::indexes::DYNAMIC_BACKEND;
use crate::report::Table;
use crate::scale::ExperimentScale;

/// WAL-length sweep: fractions of the write stream applied before the
/// simulated crash. The final fraction runs twice, without and with a
/// pre-crash checkpoint.
const WAL_FRACTIONS: [f64; 3] = [0.25, 0.5, 1.0];

/// One crash/recovery measurement.
#[derive(Debug, Clone)]
struct RecoveryRun {
    /// Write batches applied before the crash.
    pub write_batches: usize,
    /// Primitive write operations those batches carried.
    pub write_ops: usize,
    /// Whether a checkpoint ran between the last write and the crash.
    pub checkpointed: bool,
    /// Live WAL bytes at crash time.
    pub wal_bytes: u64,
    /// Bytes of the latest snapshot at crash time.
    pub snapshot_bytes: u64,
    /// Update batches the reopen replayed from the WAL.
    pub replayed_batches: u64,
}

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "rtx-recovery-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// The write-only operation stream: a mixed stream with its lookup batches
/// filtered out, so every batch becomes exactly one WAL record.
fn write_stream(scale: &ExperimentScale) -> Vec<MixedOp> {
    let total_ops = (scale.default_keys() / 4).max(256);
    let key_domain = (scale.default_keys() / 2).max(64) as u64;
    let config = wl::MixedWorkloadConfig::uniform(total_ops, key_domain, scale.seed + 41);
    wl::mixed_ops(&config)
        .into_iter()
        .filter(MixedOp::is_write)
        .collect()
}

/// Creates a durable index in `dir`, applies the first `batches` writes of
/// `ops`, optionally checkpoints, drops it and reopens it.
fn crash_and_recover(
    scale: &ExperimentScale,
    ops: &[MixedOp],
    batches: usize,
    checkpoint: bool,
) -> RecoveryRun {
    let device = crate::scaled_device(scale);
    let dir = scratch_dir(&format!("{batches}-{checkpoint}"));
    let _ = std::fs::remove_dir_all(&dir);
    let name = format!("{DYNAMIC_BACKEND}+wal:{}", dir.display());

    // Automatic checkpoints off: the experiment controls the WAL length.
    let mut registry = crate::indexes::registry();
    rtx_durable::install_durability_with(
        &mut registry,
        rtx_durable::DurableConfig::default().with_snapshot_wal_bytes(u64::MAX),
    );

    let n = scale.default_keys() / 4;
    let keys = wl::dense_shuffled(n, scale.seed);
    let values = wl::value_column(n, scale.seed + 7);
    let mut index = registry
        .build_updatable(&name, &IndexSpec::with_values(&device, &keys, &values))
        .expect("durable build");

    let mut write_ops = 0;
    for op in &ops[..batches] {
        let (keys, values) = op.columns();
        match op {
            MixedOp::Insert(_) => index.insert(&keys, &values).expect("insert"),
            MixedOp::Delete(_) => index.delete(&keys).expect("delete"),
            MixedOp::Upsert(_) => index.upsert(&keys, &values).expect("upsert"),
            _ => unreachable!("write-only stream"),
        };
        write_ops += op.len();
    }
    if checkpoint {
        index.checkpoint().expect("checkpoint");
    }
    let at_crash = index.durability_stats().expect("durable index has stats");
    drop(index); // the simulated crash: only the directory survives

    let reopened = registry
        .build_updatable(&name, &IndexSpec::keys_only(&device, &[]))
        .expect("recovery");
    let after = reopened.durability_stats().expect("stats after recovery");
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);

    RecoveryRun {
        write_batches: batches,
        write_ops,
        checkpointed: checkpoint,
        wal_bytes: at_crash.wal_bytes,
        snapshot_bytes: at_crash.last_snapshot_bytes,
        replayed_batches: after.replayed_batches,
    }
}

/// Runs the WAL-length sweep plus the checkpointed variant of the longest
/// log.
fn run_sweep(scale: &ExperimentScale) -> Vec<RecoveryRun> {
    let ops = write_stream(scale);
    let mut runs: Vec<RecoveryRun> = WAL_FRACTIONS
        .iter()
        .map(|fraction| {
            let batches = ((ops.len() as f64 * fraction) as usize).clamp(1, ops.len());
            crash_and_recover(scale, &ops, batches, false)
        })
        .collect();
    // Checkpoint before the crash: recovery skips the whole log.
    runs.push(crash_and_recover(scale, &ops, ops.len(), true));
    runs
}

/// The `recovery_throughput` experiment: log size and replay against WAL
/// length, with and without a pre-crash checkpoint.
pub fn run(scale: &ExperimentScale) -> Vec<Table> {
    let runs = run_sweep(scale);
    let mut table = Table::new(
        format!(
            "Recovery throughput: durable {} over 2^{} initial keys",
            DYNAMIC_BACKEND,
            scale.keys_exp.saturating_sub(2)
        ),
        &[
            "crash point",
            "write ops",
            "WAL [KiB]",
            "snapshot [KiB]",
            "replayed batches",
        ],
    );
    for run in &runs {
        table.push_row(vec![
            if run.checkpointed {
                format!("{} batches + checkpoint", run.write_batches)
            } else {
                format!("{} batches", run.write_batches)
            },
            run.write_ops.to_string(),
            format!("{:.1}", run.wal_bytes as f64 / 1024.0),
            format!("{:.1}", run.snapshot_bytes as f64 / 1024.0),
            run.replayed_batches.to_string(),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longer_wals_replay_more_and_checkpoints_short_circuit_recovery() {
        let scale = ExperimentScale::tiny();
        let runs = run_sweep(&scale);
        assert_eq!(runs.len(), WAL_FRACTIONS.len() + 1);

        // WAL bytes and replayed batches grow with the crash point.
        let plain: Vec<&RecoveryRun> = runs.iter().filter(|r| !r.checkpointed).collect();
        for pair in plain.windows(2) {
            assert!(pair[0].wal_bytes < pair[1].wal_bytes);
            assert!(pair[0].replayed_batches < pair[1].replayed_batches);
        }
        for r in &plain {
            assert_eq!(
                r.replayed_batches, r.write_batches as u64,
                "every write batch must replay"
            );
        }

        // The checkpointed run saw the most writes yet replays nothing:
        // the snapshot covers the whole log.
        let snap = runs.last().unwrap();
        assert!(snap.checkpointed);
        assert_eq!(snap.replayed_batches, 0);
        assert!(snap.snapshot_bytes > 0);
        assert!(
            snap.wal_bytes < plain[0].wal_bytes,
            "the checkpoint truncated the log"
        );

        let tables = run(&scale);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].rows.len(), runs.len());
    }
}

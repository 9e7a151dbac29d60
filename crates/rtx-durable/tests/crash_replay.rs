//! Crash-replay equivalence: a durable index killed at *any* WAL offset —
//! record boundaries, torn mid-record tails, even single-byte prefixes —
//! must reopen to a state that is QueryBatch-exact (rowIDs included)
//! against an independent logical oracle.
//!
//! The crash simulator is byte-level: [`log_bytes`] flattens the live WAL,
//! the state directory is cloned, and [`write_log_bytes`] replaces the
//! clone's log with an arbitrary prefix. Reopening the clone exercises the
//! full recovery path (snapshot load, tail truncation, replay, annotation
//! healing). The oracle is an independent [`DynamicOracle`] built from the
//! *surviving* snapshot + log — read back **after** the reopen, because
//! recovery heals torn-off annotations by re-appending them.
//!
//! Covered here:
//! - every record boundary and representative torn offsets of a 1k-op
//!   mixed workload, without and with a mid-stream checkpoint;
//! - literally every byte offset of a smaller workload;
//! - a proptest sampling arbitrary offsets against both prepared states;
//! - background compaction (`Freeze`/`Swap` records and their healing);
//! - the same boundary and torn-offset sweeps over sharded bases (`RXD@2`,
//!   `RXD@3:range`; synchronous and background compaction; without and
//!   with a checkpoint), whose one WAL is cut like any other. A sharded
//!   reopen is compared against a never-crashed, non-durable twin driven
//!   with the surviving records, and the surviving records must be a
//!   prefix of the batches written;
//! - one fsync per logged batch, and one replayed batch per logged batch,
//!   on a sharded base;
//! - old and damaged `META` manifests, refused without touching the
//!   directory.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use std::collections::BTreeMap;

use gpu_device::Device;
use proptest::prelude::*;
use rtx_delta::{register_dynamic, DynamicRtConfig};
use rtx_durable::{
    crc32, install_durability_with, log_bytes, read_latest_snapshot, read_log, write_log_bytes,
    DurableConfig, WalPayload, WalRecord,
};
use rtx_query::{IndexSpec, LookupResult, QueryBatch, Registry, UpdatableIndex};
use rtx_workloads::{
    apply_mixed_op, dense_shuffled, mixed_ops, value_column, DynamicOracle, MixedOp,
    MixedWorkloadConfig,
};

/// A registry with the dynamic backend, sharding and durability installed.
/// Automatic checkpoints are off so the tests control snapshot placement.
fn registry(background: bool) -> Registry {
    let mut r = Registry::new();
    register_dynamic(
        &mut r,
        DynamicRtConfig::default().with_background_compaction(background),
    );
    rtx_shard::install_sharding(&mut r);
    install_durability_with(
        &mut r,
        DurableConfig::default().with_snapshot_wal_bytes(u64::MAX),
    );
    r
}

static SCRATCH: AtomicUsize = AtomicUsize::new(0);

/// A fresh scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let n = SCRATCH.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("rtx-crash-replay-{tag}-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Recursively copies a durable state directory (META, WAL segments,
/// snapshots).
fn clone_dir(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).expect("create clone dir");
    for entry in fs::read_dir(src).expect("read state dir") {
        let entry = entry.expect("dir entry");
        let to = dst.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            clone_dir(&entry.path(), &to);
        } else {
            fs::copy(entry.path(), &to).expect("copy state file");
        }
    }
}

/// A live durable state captured just before the simulated crash: the
/// base backend, the directory, the flattened WAL bytes and the workload's
/// key domain.
struct LiveState {
    base: &'static str,
    dir: PathBuf,
    bytes: Vec<u8>,
    domain: u64,
    /// For a sharded base, what drives its never-crashed twin; `None` for
    /// the unsharded base, which is checked against [`oracle_from_disk`].
    twin: Option<TwinInput>,
}

/// The input of a sharded state's twin: the build columns, the write
/// stream, and how many of its leading ops the checkpoint covers (0
/// without one).
struct TwinInput {
    keys: Vec<u64>,
    values: Vec<u64>,
    ops: Vec<MixedOp>,
    covered: usize,
}

/// Builds a durable `RXD+wal:` index, drives `total_ops` mixed operations
/// through it (optionally checkpointing halfway) and captures the WAL.
fn build_live_state(
    total_ops: usize,
    domain: u64,
    seed: u64,
    background: bool,
    checkpoint_mid: bool,
) -> LiveState {
    let ops = mixed_ops(&MixedWorkloadConfig::uniform(total_ops, domain, seed));
    build_live_state_on("RXD", ops, domain, seed, background, checkpoint_mid)
}

/// [`build_live_state`] over any base backend and op stream. A sharded
/// base (`"RXD@2"`, `"RXD@3:range"`) also records its twin's input.
fn build_live_state_on(
    base: &'static str,
    ops: Vec<MixedOp>,
    domain: u64,
    seed: u64,
    background: bool,
    checkpoint_mid: bool,
) -> LiveState {
    let device = Device::default_eval();
    let registry = registry(background);
    let dir = scratch("live");
    let name = format!("{base}+wal:{}", dir.display());

    let n = (domain / 2) as usize;
    let keys = dense_shuffled(n, seed);
    let values = value_column(n, seed + 1);
    let mut index = registry
        .build_updatable(&name, &IndexSpec::with_values(&device, &keys, &values))
        .expect("durable create");

    let mid = ops.len() / 2;
    for (i, op) in ops.iter().enumerate() {
        apply_mixed_op(index.as_mut(), op).expect("apply mixed op");
        if checkpoint_mid && i == mid {
            index.checkpoint().expect("mid-stream checkpoint");
        }
    }
    // Land any in-flight background rebuild so the log also ends with an
    // explicit `Swap` the crash sweep can cut through.
    index.await_reorganisation().expect("await rebuild");
    drop(index); // only the directory survives from here on

    let bytes = log_bytes(&dir.join("wal")).expect("flatten WAL");
    let twin = base.contains('@').then(|| TwinInput {
        keys,
        values,
        ops,
        covered: if checkpoint_mid { mid + 1 } else { 0 },
    });
    LiveState {
        base,
        dir,
        bytes,
        domain,
        twin,
    }
}

/// Rebuilds the logical truth from what actually survives on disk: the
/// latest intact snapshot plus every intact log record past its BSN.
///
/// Must be called **after** the reopen under test: recovery re-appends
/// annotations (`SyncCompact`/`Freeze`) that the crash tore off, and the
/// healed log is the state the reopened index actually embodies.
fn oracle_from_disk(dir: &Path) -> DynamicOracle {
    let (snap_bsn, keys, values) = match read_latest_snapshot(dir).expect("snapshot scan") {
        Some((snap, _bytes)) => {
            let (keys, values) = snap.columns();
            let values = values.unwrap_or_else(|| vec![0; keys.len()]);
            (snap.bsn, keys, values)
        }
        None => (0, Vec::new(), Vec::new()),
    };
    let mut oracle = DynamicOracle::new(&keys, &values);
    for record in read_log(&dir.join("wal")).expect("read surviving log") {
        if record.bsn <= snap_bsn {
            continue; // already inside the snapshot
        }
        match &record.payload {
            WalPayload::Insert { keys, values, .. } => oracle.insert_batch(keys, values),
            WalPayload::Delete { keys } => {
                oracle.delete_batch(keys);
            }
            WalPayload::Upsert { keys, values, .. } => {
                oracle.upsert_batch(keys, values);
            }
            WalPayload::Compact | WalPayload::SyncCompact => oracle.compact(),
            WalPayload::Freeze => oracle.begin_compaction(),
            WalPayload::Swap => oracle.finish_compaction(),
        }
    }
    oracle
}

/// The surviving log records past the latest intact snapshot's BSN.
fn records_past_snapshot(dir: &Path) -> Vec<WalRecord> {
    let snap_bsn = read_latest_snapshot(dir)
        .expect("snapshot scan")
        .map_or(0, |(snap, _)| snap.bsn);
    read_log(&dir.join("wal"))
        .expect("read surviving log")
        .into_iter()
        .filter(|record| record.bsn > snap_bsn)
        .collect()
}

/// The never-crashed, non-durable twin of a sharded state: `base` built
/// over the original columns, driven with the ops the checkpoint covers
/// and the checkpoint's compaction, then with every surviving
/// `Insert`/`Delete`/`Upsert`/`Compact` record. Like [`oracle_from_disk`],
/// call it after the reopen under test.
fn twin_from_disk(
    registry: &Registry,
    base: &str,
    input: &TwinInput,
    dir: &Path,
) -> Box<dyn UpdatableIndex> {
    let device = Device::default_eval();
    let mut twin = registry
        .build_updatable(
            base,
            &IndexSpec::with_values(&device, &input.keys, &input.values),
        )
        .expect("twin build");
    for op in &input.ops[..input.covered] {
        apply_mixed_op(twin.as_mut(), op).expect("twin op");
    }
    if input.covered > 0 {
        twin.compact().expect("twin checkpoint compaction");
    }
    for record in records_past_snapshot(dir) {
        match &record.payload {
            WalPayload::Insert { keys, values, .. } => twin.insert(keys, values),
            WalPayload::Delete { keys } => twin.delete(keys),
            WalPayload::Upsert { keys, values, .. } => twin.upsert(keys, values),
            WalPayload::Compact => twin.compact(),
            WalPayload::Swap | WalPayload::Freeze | WalPayload::SyncCompact => continue,
        }
        .expect("twin replay");
    }
    twin
}

/// What the reopened index must answer, re-derived from what survives on
/// disk: the oracle for the unsharded base, the twin for a sharded one.
fn expected_from_disk(
    registry: &Registry,
    state: &LiveState,
    dir: &Path,
    batch: &QueryBatch,
) -> Vec<LookupResult> {
    match &state.twin {
        None => oracle_from_disk(dir).expected_batch(batch),
        Some(input) => {
            twin_from_disk(registry, state.base, input, dir)
                .execute(batch)
                .expect("probe twin")
                .results
        }
    }
}

/// The record a write op is logged as.
fn logged_payload(op: &MixedOp) -> WalPayload {
    let (keys, values) = op.columns();
    match op {
        MixedOp::Insert(_) => WalPayload::Insert {
            keys,
            values,
            globals: None,
        },
        MixedOp::Delete(_) => WalPayload::Delete { keys },
        MixedOp::Upsert(_) => WalPayload::Upsert {
            keys,
            values,
            globals: None,
        },
        MixedOp::PointLookups(_) | MixedOp::RangeLookups(_) => unreachable!("reads are not logged"),
    }
}

/// The probe batch: every domain key plus guaranteed misses as points, and
/// stepped ranges, with values fetched — so `first_row`, `hit_count` and
/// `value_sum` are all compared for every lookup.
fn probe(domain: u64) -> QueryBatch {
    QueryBatch::new()
        .points(0..domain + 8)
        .ranges((0..domain).step_by(7).map(|lo| (lo, lo + 9)))
        .fetch_values(true)
}

/// Clones `state`, truncates the clone's WAL to `cut` bytes, reopens it and
/// checks QueryBatch-exactness against the disk oracle (or, sharded, the
/// twin). With `resume`, also writes through the reopened index and
/// re-checks — recovery must leave an append-clean log behind, not just a
/// readable one.
fn check_crash(registry: &Registry, state: &LiveState, cut: usize, resume: bool) {
    let device = Device::default_eval();
    let crash = scratch("cut");
    clone_dir(&state.dir, &crash);
    write_log_bytes(&crash.join("wal"), &state.bytes[..cut]).expect("truncate clone WAL");

    let name = format!("{}+wal:{}", state.base, crash.display());
    let mut reopened = registry
        .build_updatable(&name, &IndexSpec::keys_only(&device, &[]))
        .unwrap_or_else(|e| panic!("recovery of {name} at WAL offset {cut}: {e}"));
    if let Some(input) = &state.twin {
        let logged: Vec<WalPayload> = records_past_snapshot(&crash)
            .into_iter()
            .map(|record| record.payload)
            .filter(WalPayload::is_update)
            .collect();
        let written: Vec<WalPayload> = input.ops[input.covered..]
            .iter()
            .take(logged.len())
            .map(logged_payload)
            .collect();
        assert_eq!(
            logged, written,
            "{name}: the log cut at {cut} must hold a prefix of the written batches"
        );
    }
    let batch = probe(state.domain);
    assert_eq!(
        reopened.execute(&batch).expect("probe reopened").results,
        expected_from_disk(registry, state, &crash, &batch),
        "{} crashed at WAL offset {cut} of {}",
        state.base,
        state.bytes.len()
    );

    if resume {
        let fresh = [state.domain + 3, state.domain + 5];
        reopened
            .insert(&fresh, &[7, 11])
            .expect("post-recovery insert");
        reopened.delete(&fresh[..1]).expect("post-recovery delete");
        assert_eq!(
            reopened.execute(&batch).expect("probe resumed").results,
            expected_from_disk(registry, state, &crash, &batch),
            "{}: resumed traffic after crash at offset {cut}",
            state.base
        );
    }
    drop(reopened);
    let _ = fs::remove_dir_all(&crash);
}

/// Every interesting crash offset of a WAL byte stream: each record
/// boundary plus, per record, a cut after one byte of the frame, a cut in
/// the middle, and a cut one byte short of complete.
fn crash_offsets(bytes: &[u8]) -> Vec<usize> {
    let mut offsets = vec![0];
    let mut off = 0;
    while let Some((_, next)) = WalRecord::decode(bytes, off) {
        offsets.push(off + 1);
        offsets.push(off + (next - off) / 2);
        offsets.push(next - 1);
        offsets.push(next);
        off = next;
    }
    assert_eq!(off, bytes.len(), "live WAL must decode end to end");
    offsets.sort_unstable();
    offsets.dedup();
    offsets
}

/// Decodes the record kinds present in a live WAL capture.
fn payload_kinds(bytes: &[u8]) -> Vec<&'static str> {
    let (records, _) = rtx_durable::decode_stream(bytes);
    records.iter().map(|r| r.payload.kind()).collect()
}

/// The two shared 1k-op prepared states (plain and mid-stream
/// checkpointed), built once and reused across the deterministic sweeps
/// and the proptest.
fn prepared_state(checkpointed: bool) -> &'static LiveState {
    static PLAIN: OnceLock<LiveState> = OnceLock::new();
    static CHECKPOINTED: OnceLock<LiveState> = OnceLock::new();
    let cell = if checkpointed { &CHECKPOINTED } else { &PLAIN };
    cell.get_or_init(|| {
        build_live_state(
            1000,
            192,
            0xC0FFEE + checkpointed as u64,
            false,
            checkpointed,
        )
    })
}

#[test]
fn recovery_is_exact_at_every_record_boundary_and_torn_offset() {
    let state = prepared_state(false);
    // The 1k-op stream must have tripped at least one policy compaction,
    // so the sweep cuts through annotation records too.
    assert!(
        payload_kinds(&state.bytes).contains(&"sync-compact"),
        "workload too small to trigger a policy compaction: {:?}",
        payload_kinds(&state.bytes)
    );
    let registry = registry(false);
    for cut in crash_offsets(&state.bytes) {
        check_crash(&registry, state, cut, true);
    }
}

#[test]
fn recovery_with_a_mid_stream_checkpoint_is_exact_on_both_sides() {
    let state = prepared_state(true);
    let (snap, _) = read_latest_snapshot(&state.dir)
        .expect("snapshot scan")
        .expect("mid-stream checkpoint wrote a snapshot");
    assert!(snap.bsn > 0, "snapshot must cover a log prefix");
    let registry = registry(false);
    // Crashes both before and after the checkpoint's position in the log:
    // early cuts recover purely from the snapshot (their records are all
    // covered), late cuts replay on top of it.
    for cut in crash_offsets(&state.bytes) {
        check_crash(&registry, state, cut, true);
    }
}

#[test]
fn recovery_is_exact_at_every_single_byte_offset() {
    let state = build_live_state(120, 48, 0xBEEF, false, false);
    let registry = registry(false);
    for cut in 0..=state.bytes.len() {
        check_crash(&registry, &state, cut, false);
    }
    let _ = fs::remove_dir_all(&state.dir);
}

#[test]
fn background_compaction_freeze_and_swap_records_replay_exactly() {
    let state = build_live_state(800, 128, 0xF00D, true, false);
    let kinds = payload_kinds(&state.bytes);
    assert!(
        kinds.contains(&"freeze") && kinds.contains(&"swap"),
        "background run must log freeze + swap records: {kinds:?}"
    );
    let registry = registry(true);
    for cut in crash_offsets(&state.bytes) {
        check_crash(&registry, &state, cut, true);
    }
    let _ = fs::remove_dir_all(&state.dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random crash offsets — any byte position, against both prepared 1k-op
    /// states — recover to the exact oracle state and accept new traffic.
    #[test]
    fn recovery_is_exact_at_any_sampled_offset(frac in 0.0f64..1.0, checkpointed in 0u32..2) {
        let state = prepared_state(checkpointed == 1);
        let cut = ((state.bytes.len() + 1) as f64 * frac) as usize % (state.bytes.len() + 1);
        check_crash(&registry(false), state, cut, true);
    }
}

// --- sharded bases ------------------------------------------------------------

/// A write-only stream of small batches over `0..domain`, so the shards
/// compact (and, in the background, freeze and swap) many times.
fn sharded_ops(domain: u64, seed: u64) -> Vec<MixedOp> {
    mixed_ops(&MixedWorkloadConfig {
        batch_size: 6,
        point_weight: 0.0,
        range_weight: 0.0,
        ..MixedWorkloadConfig::uniform(480, domain, seed)
    })
}

/// Sweeps every record boundary and torn offset of a sharded state's one
/// WAL, reopening and resuming after each cut.
fn sweep_sharded(base: &'static str, background: bool, checkpoint_mid: bool) {
    let seed = 0xA11CE + background as u64 * 2 + checkpoint_mid as u64;
    let state = build_live_state_on(
        base,
        sharded_ops(128, seed),
        128,
        seed,
        background,
        checkpoint_mid,
    );
    let kinds = payload_kinds(&state.bytes);
    let expected_kind = if background { "swap" } else { "sync-compact" };
    assert!(
        kinds.contains(&expected_kind),
        "{base}: the stream must log {expected_kind} records: {kinds:?}"
    );
    if checkpoint_mid {
        let (snap, _) = read_latest_snapshot(&state.dir)
            .expect("snapshot scan")
            .expect("mid-stream checkpoint wrote a snapshot");
        assert!(snap.bsn > 0, "{base}: snapshot must cover a log prefix");
    }
    let registry = registry(background);
    for cut in crash_offsets(&state.bytes) {
        check_crash(&registry, &state, cut, true);
    }
    let _ = fs::remove_dir_all(&state.dir);
}

#[test]
fn sharded_recovery_is_exact_at_every_record_boundary_and_torn_offset() {
    for base in ["RXD@2", "RXD@3:range"] {
        sweep_sharded(base, false, false);
    }
}

#[test]
fn sharded_recovery_with_a_mid_stream_checkpoint_is_exact_on_both_sides() {
    for base in ["RXD@2", "RXD@3:range"] {
        sweep_sharded(base, false, true);
    }
}

#[test]
fn sharded_background_compaction_replays_exactly() {
    for base in ["RXD@2", "RXD@3:range"] {
        sweep_sharded(base, true, false);
    }
}

#[test]
fn sharded_background_compaction_with_a_checkpoint_replays_exactly() {
    for base in ["RXD@2", "RXD@3:range"] {
        sweep_sharded(base, true, true);
    }
}

/// One WAL means one fsync per batch, however many shards the batch
/// touches, and a reopen replays one batch per logged batch.
#[test]
fn a_sharded_batch_costs_one_fsync_and_replays_as_one_batch() {
    let device = Device::default_eval();
    let registry = registry(false);
    let dir = scratch("fsync");
    let name = format!("RXD@2+wal:{}", dir.display());
    let keys = dense_shuffled(4096, 0xF5);
    let values = value_column(4096, 0xF6);
    let mut index = registry
        .build_updatable(&name, &IndexSpec::with_values(&device, &keys, &values))
        .expect("sharded durable create");

    for batch in 0..3u64 {
        let rows = &keys[batch as usize * 64..][..64];
        let before = index.durability_stats().expect("durable").fsyncs;
        let report = index
            .upsert(rows, &vec![batch; rows.len()])
            .expect("upsert");
        assert_eq!(report.reorganisations, 0, "the batch must not reorganise");
        let after = index.durability_stats().expect("durable").fsyncs;
        assert_eq!(after - before, 1, "batch {batch}: one fsync per batch");
    }
    drop(index);

    let reopened = registry
        .build_updatable(&name, &IndexSpec::keys_only(&device, &[]))
        .expect("reopen");
    assert_eq!(
        reopened
            .durability_stats()
            .expect("durable")
            .replayed_batches,
        3,
        "replay counts logged batches, not shard slices"
    );
    drop(reopened);
    let _ = fs::remove_dir_all(&dir);
}

/// Every file under `dir` with its bytes.
fn dir_contents(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut files = BTreeMap::new();
    for entry in fs::read_dir(dir).expect("read state dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            files.append(&mut dir_contents(&path));
        } else {
            files.insert(path.clone(), fs::read(&path).expect("read state file"));
        }
    }
    files
}

/// A manifest of the retired per-shard WAL layout (router byte set, hash
/// routing over two shards), a truncated manifest and a bit-flipped one
/// are each refused with an error naming the path, and the refusal
/// changes nothing on disk.
#[test]
fn old_and_damaged_manifests_are_refused_without_touching_the_directory() {
    let device = Device::default_eval();
    let registry = registry(false);
    let dir = scratch("meta");
    let base = "RXD@2";
    let name = format!("{base}+wal:{}", dir.display());
    let keys = dense_shuffled(64, 0x3E7A);
    let values = value_column(64, 0x3E7B);
    let mut index = registry
        .build_updatable(&name, &IndexSpec::with_values(&device, &keys, &values))
        .expect("sharded durable create");
    index.upsert(&keys[..8], &values[..8]).expect("upsert");
    drop(index);
    let meta = fs::read(dir.join("META")).expect("read META");

    let mut body = vec![1, 1];
    body.extend_from_slice(&(base.len() as u32).to_le_bytes());
    body.extend_from_slice(base.as_bytes());
    body.push(0);
    body.extend_from_slice(&2u64.to_le_bytes());
    let mut routed = Vec::new();
    routed.extend_from_slice(&0x5258_444Du32.to_le_bytes());
    routed.extend_from_slice(&crc32(&body).to_le_bytes());
    routed.extend_from_slice(&(body.len() as u32).to_le_bytes());
    routed.extend_from_slice(&body);
    let truncated = meta[..meta.len() - 3].to_vec();
    let mut flipped = meta.clone();
    *flipped.last_mut().expect("non-empty META") ^= 0x10;

    let path = dir.display().to_string();
    for (what, bytes) in [
        ("router", routed),
        ("truncated", truncated),
        ("bit-flipped", flipped),
    ] {
        fs::write(dir.join("META"), &bytes).expect("write META");
        let before = dir_contents(&dir);
        let err = match registry.build_updatable(&name, &IndexSpec::keys_only(&device, &[])) {
            Ok(_) => panic!("{what} META must be refused"),
            Err(e) => e.to_string(),
        };
        assert!(err.contains(&path), "{what}: error must name {path}: {err}");
        assert_eq!(dir_contents(&dir), before, "{what}: the directory changed");
    }

    fs::write(dir.join("META"), &meta).expect("restore META");
    let reopened = registry
        .build_updatable(&name, &IndexSpec::keys_only(&device, &[]))
        .expect("the intact manifest reopens");
    assert_eq!(reopened.key_count(), keys.len());
    drop(reopened);
    let _ = fs::remove_dir_all(&dir);
}

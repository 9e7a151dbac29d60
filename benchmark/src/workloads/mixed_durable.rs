//! `mixed_durable` — writes beside reads on the serving stack:
//! `QueryService` over `RXD@2+wal:<dir>` on 2^18 keys, default
//! configuration (fsync after every batch).
//!
//! `rtx-delta` (delta buffer, compaction), `rtx-durable` (WAL, fsync,
//! snapshot, replay) and the service's write fence do most of the work, so
//! this is where "reads never wait on writes" has a read-p99-under-writes
//! number to move; `serve_read` is its control.
//!
//! The reader only ever asks for keys of a region the writer never touches,
//! so every read has an exact expected answer however the two interleave.
//!
//! Sections: (A, half the run) a reader paced at [`READ_EVENTS_PER_S`]
//! events of 16 zipf points beside a writer paced at
//! [`WRITE_BATCHES_PER_S`] batches of 64 rows — upsert/insert/delete
//! 50/25/25 over its own 2^16-key region, a checkpoint after every
//! [`CHECKPOINT_EVERY`]th batch (`read_*`, `bench.write_p*`); (B, a quarter)
//! closed-loop write batches, no reads (`bench.write_rows_per_s`); then a
//! checkpoint, exactly `replay_batches` more batches, shutdown, reopen by
//! the same `+wal:` name until the first answered lookup
//! (`bench.recovery_s`), and a check of every key against the oracle.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::gen::{dense_shuffled, paced_schedule, Digest, SplitMix64};
use crate::oracle::{Oracle, WriteModel};
use crate::report::{bytes_written, peak_rss_mib, Config, Measured, PhaseNote};
use crate::stats::{self, Summary};
use crate::sut::{Client, MutIndex, Op, ReadBatch, Service, Sut, WriteKind};

use super::serve_read::{
    linger_us_mean, mean_fused_ops, rejected_share, write_stall_us_mean, zipf_events,
};
use super::{
    budget, checksum, lag_p99_us, p50_ms, p99_ms, paced_events, PhaseClock, ReadRequest, Setups,
    Tally, QUICK_SETUP_REPS,
};

/// Reader rate of section A.
pub const READ_EVENTS_PER_S: f64 = 1_000.0;
/// Writer rate of section A. Calibrated once to about a tenth of the seed
/// commit's closed-loop write saturation on the defining host (README.md,
/// "Calibrated rates"), then frozen. A read that arrives during a write
/// waits for the fence; at twice this rate a noisy host pushes the share of
/// such reads towards one half and the median read latency over a cliff.
pub const WRITE_BATCHES_PER_S: f64 = 50.0;
pub const ROWS_PER_BATCH: usize = 64;
pub const CHECKPOINT_EVERY: usize = 250;
/// Bytes of user data in one written row (key + value).
pub const USER_BYTES_PER_ROW: u64 = 16;

#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub keys: usize,
    /// Keys at the end of the key domain that belong to the writer.
    pub writer_keys: usize,
    pub events: usize,
    /// Distinct write batches generated; cycled when a run needs more.
    pub write_batches: usize,
    /// Batches written after the last checkpoint, which recovery replays.
    pub replay_batches: usize,
}

impl Sizes {
    pub fn of(config: &Config) -> Self {
        if config.smoke {
            Sizes {
                keys: 1 << 12,
                writer_keys: 1 << 10,
                events: 1 << 8,
                write_batches: 1 << 6,
                replay_batches: 8,
            }
        } else {
            Sizes {
                keys: 1 << 18,
                writer_keys: 1 << 16,
                events: 1 << 13,
                write_batches: 1 << 12,
                replay_batches: 400,
            }
        }
    }

    pub fn reader_keys(&self) -> usize {
        self.keys - self.writer_keys
    }
}

#[derive(Debug, Clone)]
pub struct WriteBatch {
    pub kind: WriteKind,
    pub keys: Vec<u64>,
    /// Empty for deletes.
    pub values: Vec<u64>,
}

pub struct Input {
    pub sizes: Sizes,
    /// Reader-region rows first, so compaction's dense renumbering — which
    /// keeps the order of live rows — never moves a reader rowID.
    pub keys: Vec<u64>,
    pub values: Vec<u64>,
    pub events: Vec<ReadRequest>,
    pub writes: Vec<WriteBatch>,
    pub read_schedule: Vec<u64>,
    pub write_schedule: Vec<u64>,
    pub digest: Digest,
}

impl Input {
    pub fn generate(config: &Config) -> Input {
        let sizes = Sizes::of(config);
        let reader = sizes.reader_keys();
        let mut key_rng = SplitMix64::stream(config.seed, 1);
        let mut keys = dense_shuffled(0, reader, &mut key_rng);
        keys.extend(dense_shuffled(
            reader as u64,
            sizes.writer_keys,
            &mut key_rng,
        ));
        let mut value_rng = SplitMix64::stream(config.seed, 2);
        let values: Vec<u64> = (0..sizes.keys).map(|_| value_rng.below(1 << 20)).collect();
        let mut digest = Digest::new();
        digest.words(&keys);
        digest.words(&values);

        let oracle = Oracle::new(&keys[..reader], &values[..reader]);
        let events = zipf_events(
            sizes.events,
            &keys[..reader],
            None,
            &oracle,
            &mut SplitMix64::stream(config.seed, 3),
            &mut digest,
        );

        let mut rng = SplitMix64::stream(config.seed, 4);
        let writes = (0..sizes.write_batches)
            .map(|_| {
                let kind = match rng.below(4) {
                    0 | 1 => WriteKind::Upsert,
                    2 => WriteKind::Insert,
                    _ => WriteKind::Delete,
                };
                // Distinct keys within a batch keep upsert unambiguous.
                let mut batch_keys = Vec::with_capacity(ROWS_PER_BATCH);
                while batch_keys.len() < ROWS_PER_BATCH {
                    let key = reader as u64 + rng.below(sizes.writer_keys as u64);
                    if !batch_keys.contains(&key) {
                        batch_keys.push(key);
                    }
                }
                let batch_values: Vec<u64> = if kind == WriteKind::Delete {
                    Vec::new()
                } else {
                    (0..ROWS_PER_BATCH).map(|_| rng.below(1 << 20)).collect()
                };
                digest.word(kind as u64);
                digest.words(&batch_keys);
                digest.words(&batch_values);
                WriteBatch {
                    kind,
                    keys: batch_keys,
                    values: batch_values,
                }
            })
            .collect();

        let read_schedule = paced_schedule(
            paced_events(config, 0.5, READ_EVENTS_PER_S),
            READ_EVENTS_PER_S,
        );
        let write_schedule = paced_schedule(
            paced_events(config, 0.5, WRITE_BATCHES_PER_S),
            WRITE_BATCHES_PER_S,
        );
        digest.words(&[read_schedule.len() as u64, write_schedule.len() as u64]);
        Input {
            sizes,
            keys,
            values,
            events,
            writes,
            read_schedule,
            write_schedule,
            digest,
        }
    }

    pub fn writer_model(&self) -> WriteModel {
        let reader = self.sizes.reader_keys();
        WriteModel::new(&self.keys[reader..], &self.values[reader..])
    }
}

/// A directory under the work directory, removed when dropped.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(work_dir: &Path, name: &str) -> Result<Self, String> {
        let path = work_dir.join(format!("{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(work_dir)
            .map_err(|e| format!("create {}: {e}", work_dir.display()))?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Bytes of every file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

pub fn durable_name(dir: &Path) -> String {
    format!("RXD@2+wal:{}", dir.display())
}

/// The writer's state: the client, the model of its region and what it
/// observed.
pub struct Writer<'a> {
    client: Client,
    writes: &'a [WriteBatch],
    next: usize,
    pub model: WriteModel,
    pub tally: Tally,
    pub compactions: u64,
    pub rows_written: u64,
    pub checkpoint_s: Vec<f64>,
}

impl<'a> Writer<'a> {
    pub fn new(client: Client, input: &'a Input) -> Self {
        Writer {
            client,
            writes: &input.writes,
            next: 0,
            model: input.writer_model(),
            tally: Tally::default(),
            compactions: 0,
            rows_written: 0,
            checkpoint_s: Vec::new(),
        }
    }

    /// Sends the next batch and returns the seconds the call took. The
    /// model follows only acknowledged batches.
    pub fn write_next(&mut self) -> f64 {
        let batch = &self.writes[self.next % self.writes.len()];
        self.next += 1;
        let call = Instant::now();
        let result = self.client.write(batch.kind, &batch.keys, &batch.values);
        let seconds = call.elapsed().as_secs_f64();
        let rows = batch.keys.len() as u64;
        match result {
            Ok(report) => {
                self.compactions += report.reorganisations;
                self.rows_written += rows;
                match batch.kind {
                    WriteKind::Insert => self.model.insert(&batch.keys, &batch.values),
                    WriteKind::Delete => self.model.delete(&batch.keys),
                    WriteKind::Upsert => self.model.upsert(&batch.keys, &batch.values),
                }
                self.tally.count(rows, true);
            }
            Err(_) => self.tally.count(rows, false),
        }
        seconds
    }

    pub fn checkpoint(&mut self) {
        let call = Instant::now();
        let ok = self.client.checkpoint().is_ok();
        self.checkpoint_s.push(call.elapsed().as_secs_f64());
        self.tally.count(1, ok);
    }

    pub fn batches_sent(&self) -> usize {
        self.next
    }
}

struct ReaderOut {
    latencies_ns: Vec<u64>,
    completions: Vec<(u64, f64)>,
    lags_ns: Vec<u64>,
    tally: Tally,
}

/// The paced reader: one thread that sends and waits. A reply that is late
/// delays the next send, and the delay counts, because latency runs from
/// the scheduled time.
fn paced_reader(
    clock: PhaseClock,
    client: &Client,
    events: &[ReadRequest],
    schedule: &[u64],
) -> ReaderOut {
    let mut out = ReaderOut {
        latencies_ns: Vec::with_capacity(schedule.len()),
        completions: Vec::with_capacity(schedule.len()),
        lags_ns: Vec::with_capacity(schedule.len()),
        tally: Tally::default(),
    };
    for (i, &at_ns) in schedule.iter().enumerate() {
        let event = &events[i % events.len()];
        let sent = clock.wait_until(at_ns);
        let answered = client.query(&event.batch);
        let now = clock.now_ns();
        out.lags_ns.push(sent - at_ns);
        out.latencies_ns.push(now - at_ns);
        let ops = event.batch.len() as u64;
        let ok = answered.is_ok_and(|outcome| checksum(outcome.answers()) == event.expected);
        // Only a correct answer counts towards goodput.
        out.completions
            .push((if ok { ops } else { 0 }, now as f64 / 1e9));
        out.tally.count(ops, ok);
    }
    out
}

/// Checks every key of both regions against the oracle on a reopened index:
/// reader keys exactly (rowIDs included), writer keys by count and sum.
fn verify(index: &MutIndex, input: &Input, model: &WriteModel) -> Result<Tally, String> {
    const CHUNK: usize = 4096;
    let reader = input.sizes.reader_keys();
    let oracle = Oracle::new(&input.keys[..reader], &input.values[..reader]);
    let mut tally = Tally::default();
    for chunk in input.keys[..reader].chunks(CHUNK) {
        let ops: Vec<Op> = chunk.iter().map(|&k| Op::Point(k)).collect();
        let outcome = index.execute(&ReadBatch::new(&ops))?;
        for (answer, &key) in outcome.answers().zip(chunk) {
            tally.count(1, answer == oracle.point(key));
        }
    }
    let writer_keys: Vec<u64> = (reader as u64..input.sizes.keys as u64).collect();
    for chunk in writer_keys.chunks(CHUNK) {
        let ops: Vec<Op> = chunk.iter().map(|&k| Op::Point(k)).collect();
        let outcome = index.execute(&ReadBatch::new(&ops))?;
        for (answer, &key) in outcome.answers().zip(chunk) {
            tally.count(1, (answer.hit_count, answer.value_sum) == model.point(key));
        }
    }
    Ok(tally)
}

pub fn start(sut: &Sut, input: &Input, dir: &Path) -> Result<Service, String> {
    Ok(sut
        .build_updatable(&durable_name(dir), &input.keys, &input.values)?
        .start_service())
}

pub fn run(config: &Config) -> Result<Measured, String> {
    run_with(config, &Input::generate(config))
}

/// Runs the workload over an input generated for `config`.
pub fn run_with(config: &Config, input: &Input) -> Result<Measured, String> {
    let sut = Sut::new();
    let mut measured = Measured {
        input_digest: input.digest.hex(),
        ..Measured::default()
    };

    let scratch = ScratchDir::new(&config.work_dir, "wal_mixed_durable")?;
    let dir = scratch.path();
    let mut setups = Setups::default();
    let service = setups.time(|| start(&sut, input, dir))?;
    measured.set_value(
        "bench.device_bytes_per_key",
        service.counts().memory_bytes as f64 / input.sizes.keys as f64,
    );
    measured.notes.insert("wal_dir", dir.display().to_string());
    measured
        .notes
        .insert("write_batches_per_s", WRITE_BATCHES_PER_S.to_string());
    measured
        .notes
        .insert("read_events_per_s", READ_EVENTS_PER_S.to_string());

    let mut writer = Writer::new(service.client(), input);
    let written_before = bytes_written();

    // Section A: paced reads beside paced writes.
    let clock = PhaseClock::start();
    let reader_client = service.client();
    let mut write_latencies_ns = Vec::with_capacity(input.write_schedule.len());
    let mut write_lags_ns = Vec::with_capacity(input.write_schedule.len());
    let reader_out = std::thread::scope(|scope| {
        let reader = scope
            .spawn(|| paced_reader(clock, &reader_client, &input.events, &input.read_schedule));
        for (i, &at_ns) in input.write_schedule.iter().enumerate() {
            let sent = clock.wait_until(at_ns);
            writer.write_next();
            write_lags_ns.push(sent - at_ns);
            write_latencies_ns.push(clock.now_ns() - at_ns);
            if (i + 1) % CHECKPOINT_EVERY == 0 {
                writer.checkpoint();
            }
        }
        reader.join().expect("reader thread panicked")
    });
    let a_wall = clock.elapsed().as_secs_f64();
    let after_a = service.counts();
    // Section A does a fixed amount of work, so its counts repeat.
    let a_written_bytes = bytes_written() - written_before;
    let a_user_bytes = writer.rows_written * USER_BYTES_PER_ROW;
    let a_compactions = writer.compactions;

    // Section B: closed-loop writes.
    let b_budget = budget(config, 0.25);
    let b_started = Instant::now();
    let mut b_calls = Vec::new();
    while b_started.elapsed() < b_budget {
        let seconds = writer.write_next();
        b_calls.push((ROWS_PER_BATCH as u64, seconds));
    }
    let b_wall = b_started.elapsed().as_secs_f64();
    let after_b = service.counts();
    let b_counts = after_b.since(&after_a);

    // The replay tail: a checkpoint, then exactly `replay_batches` batches.
    writer.checkpoint();
    for _ in 0..input.sizes.replay_batches {
        writer.write_next();
    }
    let final_counts = service.shutdown();

    // Recovery: reopen by the same name until the first answered lookup.
    let probe = ReadBatch::new(&[Op::Point(input.keys[0])]);
    let reopen = Instant::now();
    let mut index = sut.build_updatable(&durable_name(dir), &[], &[])?;
    index.execute(&probe)?;
    let recovery_s = reopen.elapsed().as_secs_f64();
    let replayed = index.replayed_batches();
    let verified = verify(&index, input, &writer.model)?;
    let disk_bytes = dir_bytes(dir);
    let live_rows = index.key_count() as f64;

    // The same reopen with nothing to replay, to split recovery into
    // opening the snapshot and replaying the log.
    index.checkpoint()?;
    drop(index);
    let reopen = Instant::now();
    let index = sut.build_updatable(&durable_name(dir), &[], &[])?;
    index.execute(&probe)?;
    let clean_s = reopen.elapsed().as_secs_f64();
    drop(index);

    // End-to-end metrics.
    measured.set("read_p50_ms", p50_ms(&reader_out.latencies_ns));
    measured.set("bench.read_p99_ms", p99_ms(&reader_out.latencies_ns));
    // Goodput at the offered rate, over the whole section: a window of a
    // paced stream is "quiet" when a backlog drains into it, not when the
    // host is.
    let answered = stats::after_warmup(&reader_out.completions);
    let goodput = match (answered.first(), answered.last()) {
        (Some(first), Some(last)) if last.1 > first.1 => {
            answered[1..].iter().map(|c| c.0).sum::<u64>() as f64 / (last.1 - first.1)
        }
        _ => 0.0,
    };
    measured.set(
        "read_ops_per_s",
        Summary::of(goodput, answered.len() as u64),
    );

    // What the issue lists as end-to-end but only this workload measures.
    measured.set("bench.write_p50_ms", p50_ms(&write_latencies_ns));
    measured.set("bench.write_p99_ms", p99_ms(&write_latencies_ns));
    measured.set(
        "bench.write_rows_per_s",
        stats::windowed_rate(stats::after_warmup(&b_calls), stats::WINDOWS),
    );
    measured.set_value("bench.recovery_s", recovery_s);
    let lags: Vec<u64> = reader_out
        .lags_ns
        .iter()
        .chain(&write_lags_ns)
        .copied()
        .collect();
    let lag = lag_p99_us(&lags);
    measured.set(
        "bench.generator_lag_us_p99",
        Summary::of(lag, lags.len() as u64),
    );

    // Layer counters.
    measured.set_value("rtx-serve.mean_fused_ops", mean_fused_ops(&after_a));
    measured.set_value("rtx-serve.linger_us_mean", linger_us_mean(&after_a));
    measured.set_value(
        "rtx-serve.peak_queued_ops",
        final_counts.peak_queued_ops as f64,
    );
    measured.set_value("rtx-serve.rejected_share", rejected_share(&final_counts));
    measured.set_value(
        "rtx-serve.write_stall_us_mean",
        write_stall_us_mean(&final_counts),
    );
    measured.set_value(
        "rtx-serve.write_stall_us_max",
        final_counts.write_stall_ns_max as f64 / 1e3,
    );
    measured.set_value("rtx-delta.compactions", a_compactions as f64);
    measured.set(
        "rtx-durable.fsyncs_per_batch",
        Summary::of(
            b_counts.fsyncs as f64 / b_counts.write_batches.max(1) as f64,
            b_counts.write_batches,
        ),
    );
    measured.set_value(
        "rtx-durable.bytes_written_per_user_byte",
        a_written_bytes as f64 / a_user_bytes.max(1) as f64,
    );
    measured.set_value(
        "rtx-durable.disk_bytes_per_row",
        disk_bytes as f64 / live_rows.max(1.0),
    );
    measured.set(
        "rtx-durable.checkpoint_s",
        Summary::of(
            stats::median(&writer.checkpoint_s),
            writer.checkpoint_s.len() as u64,
        ),
    );
    measured.set(
        "rtx-durable.replay_us_per_batch",
        Summary::of(
            (recovery_s - clean_s).max(0.0) * 1e6 / replayed.max(1) as f64,
            replayed,
        ),
    );
    measured
        .notes
        .insert("replayed_batches", replayed.to_string());
    measured.notes.insert("clean_reopen_s", clean_s.to_string());

    measured.phases.push(PhaseNote {
        name: "paced_mixed",
        wall_s: a_wall,
        generator_lag_us_p99: Some(lag),
        requests: (reader_out.latencies_ns.len() + write_latencies_ns.len()) as u64,
    });
    measured.phases.push(PhaseNote {
        name: "write_saturation",
        wall_s: b_wall,
        generator_lag_us_p99: None,
        requests: b_calls.len() as u64,
    });
    measured.phases.push(PhaseNote {
        name: "recovery",
        wall_s: recovery_s,
        generator_lag_us_p99: None,
        requests: writer.batches_sent() as u64,
    });
    reader_out.tally.into_measured(&mut measured);
    writer.tally.into_measured(&mut measured);
    verified.into_measured(&mut measured);
    measured.set_value("peak_rss_mb", peak_rss_mib());
    // One directory per set-up: building over existing state is refused.
    setups.repeat(
        QUICK_SETUP_REPS,
        |rep| {
            let scratch = ScratchDir::new(&config.work_dir, &format!("wal_setup_{rep}"))?;
            let service = start(&sut, input, scratch.path())?;
            Ok((service, scratch))
        },
        |(service, scratch): (Service, ScratchDir)| {
            service.shutdown();
            drop(scratch);
        },
    )?;
    measured.set("setup_s", setups.summary());
    Ok(measured)
}

//! `table_serve` — the table layer behind its service: `TableService` over
//! a 2^16-row table `id, ts, amount` with the indexes `id_ht` = `HT`(id),
//! `ts_rx` = `RX`(ts), `id_rxd` = `RXD`(id) and the composite `id_ts` =
//! `SA{u32,u32}`(id, ts).
//!
//! The planner, the row store, all-or-nothing ingest with its per-batch
//! rebuild of the read-only indexes, and the typed-key path of `rtx-query`
//! appear in no other workload; a merge of the two service loops needs a
//! table-served number that must not move.
//!
//! One section, 90 % of the run. A reader in a closed loop, one query in
//! flight, asks queries of four predicates (point `id`, range `ts` of span
//! 64, tuple `(id, ts)`, `id` with a `ts` range) with value fetch
//! (`read_ops_per_s` counts predicates, `read_p50_ms` is per query). Beside
//! it a writer paced at [`INGEST_BATCHES_PER_S`] sends CDC batches of 64
//! operations, insert/delete/upsert 50/30/20 (`bench.write_p50_ms`). The
//! reader's predicates only match rows the writer never touches (its own
//! `id` region and its own `ts` region), so every answer is exact.
//!
//! `run.sh` starts this workload on one core. A query is a chain of thread
//! hand-offs (reader, service worker, pool helper) around some 12 us of
//! work, and on two cores the kernel's placement of those threads decides
//! between 15 us and 60 us per query, for minutes on end; neither a deeper
//! pipeline nor a polling reader changes that (README.md, "One core for
//! `table_serve`").

use std::collections::HashMap;
use std::time::Instant;

use crate::gen::{dense_shuffled, paced_schedule, Digest, SplitMix64};
use crate::oracle::{Answer, Oracle};
use crate::report::{peak_rss_mib, Config, Measured, PhaseNote};
use crate::stats::{self, Summary};
use crate::sut::{Pred, RowOp, Sut, TableCli, TableRead, TableSvc, TableWrite};

use super::serve_read::rejected_share;
use super::{
    checksum, lag_p99_us, p50_ms, p99_ms, paced_events, PhaseClock, Setups, Tally, QUICK_SETUP_REPS,
};

/// Writer rate: four batches a second leave the reader about three
/// quarters of the time at the seed commit's ingest cost on one core
/// (README.md, "Calibrated rates").
pub const INGEST_BATCHES_PER_S: f64 = 4.0;
pub const OPS_PER_INGEST: usize = 64;
/// Windows of the reader's rate: few enough that each holds several of the
/// writer's batches, so a window is not quiet merely for holding one fewer.
pub const RATE_WINDOWS: usize = 10;
pub const PREDICATES_PER_QUERY: usize = 4;
pub const TS_SPAN: u64 = 64;
/// `ts` of rows the reader may match lie below this; the writer's rows
/// start at [`WRITER_TS_BASE`]. Both fit the composite key's `u32`.
pub const READER_TS_DOMAIN: u64 = 1 << 18;
pub const WRITER_TS_BASE: u64 = 1 << 24;

#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub rows: usize,
    /// Rows (by `id`) the writer may delete or upsert; the rest are the
    /// reader's.
    pub writer_rows: usize,
    pub queries: usize,
    /// The writer's rate: [`INGEST_BATCHES_PER_S`], except at test size,
    /// where a fraction of a second must still hold several batches.
    pub ingest_batches_per_s: f64,
}

impl Sizes {
    pub fn of(config: &Config) -> Self {
        if config.smoke {
            Sizes {
                rows: 1 << 11,
                writer_rows: 1 << 9,
                queries: 1 << 8,
                ingest_batches_per_s: 40.0,
            }
        } else {
            Sizes {
                rows: 1 << 16,
                writer_rows: 1 << 14,
                queries: 1 << 13,
                ingest_batches_per_s: INGEST_BATCHES_PER_S,
            }
        }
    }

    pub fn reader_rows(&self) -> usize {
        self.rows - self.writer_rows
    }
}

pub struct Query {
    pub preds: Vec<Pred>,
    pub read: TableRead,
    pub expected: u64,
}

pub struct Ingest {
    pub ops: Vec<RowOp>,
    pub write: TableWrite,
}

pub struct Input {
    pub sizes: Sizes,
    /// `[id, ts, amount]` per row; the position is the table rowID.
    pub records: Vec<Vec<u64>>,
    pub queries: Vec<Query>,
    pub ingests: Vec<Ingest>,
    pub ingest_schedule: Vec<u64>,
    /// `id -> (table rowID, amount)` of the writer's region after every
    /// generated ingest has been applied, and the ids that must be gone.
    pub final_rows: HashMap<u64, (u32, u64)>,
    pub deleted_ids: Vec<u64>,
    pub digest: Digest,
}

impl Input {
    pub fn generate(config: &Config) -> Input {
        let sizes = Sizes::of(config);
        let reader_rows = sizes.reader_rows() as u64;
        let ids = dense_shuffled(0, sizes.rows, &mut SplitMix64::stream(config.seed, 1));
        let mut rng = SplitMix64::stream(config.seed, 2);
        let records: Vec<Vec<u64>> = ids
            .iter()
            .map(|&id| {
                let ts = if id < reader_rows {
                    rng.below(READER_TS_DOMAIN)
                } else {
                    WRITER_TS_BASE + rng.below(READER_TS_DOMAIN)
                };
                vec![id, ts, rng.below(1 << 20)]
            })
            .collect();
        let mut digest = Digest::new();
        for record in &records {
            digest.words(record);
        }

        let rows = |key: fn(&[u64]) -> u64| {
            Oracle::from_rows(
                records
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| r[0] < reader_rows)
                    .map(|(row, r)| (key(r), row as u32, r[2])),
            )
        };
        let by_id = rows(|r| r[0]);
        let by_ts = rows(|r| r[1]);
        let by_id_ts = rows(|r| (r[0] << 32) | r[1]);
        let reader_records: Vec<&Vec<u64>> =
            records.iter().filter(|r| r[0] < reader_rows).collect();

        let mut rng = SplitMix64::stream(config.seed, 3);
        let queries = (0..sizes.queries)
            .map(|_| {
                let mut pick = || reader_records[rng.below(reader_rows) as usize];
                let point = pick()[0];
                let tuple = pick();
                let ranged = pick();
                let ts_lower = rng.below(READER_TS_DOMAIN - TS_SPAN);
                let ranged_lower = ranged[1].saturating_sub(TS_SPAN / 2);
                let preds = vec![
                    Pred::Id(point),
                    Pred::TsRange(ts_lower, ts_lower + TS_SPAN - 1),
                    Pred::IdTs(tuple[0], tuple[1]),
                    Pred::IdTsRange(ranged[0], ranged_lower, ranged_lower + TS_SPAN - 1),
                ];
                let expected = checksum(preds.iter().map(|pred| match *pred {
                    Pred::Id(id) => {
                        digest.word(id);
                        by_id.point(id)
                    }
                    Pred::TsRange(lower, upper) => {
                        digest.words(&[lower, upper]);
                        by_ts.range(lower, upper)
                    }
                    Pred::IdTs(id, ts) => {
                        digest.words(&[id, ts]);
                        by_id_ts.point((id << 32) | ts)
                    }
                    Pred::IdTsRange(id, lower, upper) => {
                        digest.words(&[id, lower, upper]);
                        by_id_ts.range((id << 32) | lower, (id << 32) | upper)
                    }
                }));
                Query {
                    read: TableRead::new(&preds),
                    preds,
                    expected,
                }
            })
            .collect();

        // The writer's batches, generated against a model of its region so
        // that deletes and upserts always name a live row.
        let schedule = paced_schedule(
            paced_events(config, 0.9, sizes.ingest_batches_per_s),
            sizes.ingest_batches_per_s,
        );
        let mut live: Vec<u64> = (reader_rows..sizes.rows as u64).collect();
        let mut final_rows: HashMap<u64, (u32, u64)> = records
            .iter()
            .enumerate()
            .filter(|(_, r)| r[0] >= reader_rows)
            .map(|(row, r)| (r[0], (row as u32, r[2])))
            .collect();
        let mut deleted_ids = Vec::new();
        let mut next_id = sizes.rows as u64;
        let mut next_row = sizes.rows as u32;
        let mut rng = SplitMix64::stream(config.seed, 4);
        let ingests = (0..schedule.len())
            .map(|_| {
                let mut touched: Vec<u64> = Vec::new();
                let ops: Vec<RowOp> = (0..OPS_PER_INGEST)
                    .map(|_| {
                        let fresh_record = |id: u64, rng: &mut SplitMix64| {
                            [
                                id,
                                WRITER_TS_BASE + rng.below(READER_TS_DOMAIN),
                                rng.below(1 << 20),
                            ]
                        };
                        let kind = rng.below(10);
                        // A live row no earlier operation of this batch
                        // touched, if the draw finds one.
                        let victim = (kind >= 5 && !live.is_empty())
                            .then(|| rng.below(live.len() as u64) as usize)
                            .filter(|&at| !touched.contains(&live[at]));
                        match (kind, victim) {
                            (5..=7, Some(at)) => {
                                let id = live.swap_remove(at);
                                touched.push(id);
                                final_rows.remove(&id);
                                deleted_ids.push(id);
                                RowOp::Delete(id)
                            }
                            (8..=9, Some(at)) => {
                                let id = live[at];
                                touched.push(id);
                                let record = fresh_record(id, &mut rng);
                                final_rows.insert(id, (next_row, record[2]));
                                next_row += 1;
                                RowOp::Upsert(record)
                            }
                            _ => {
                                let id = next_id;
                                next_id += 1;
                                touched.push(id);
                                live.push(id);
                                let record = fresh_record(id, &mut rng);
                                final_rows.insert(id, (next_row, record[2]));
                                next_row += 1;
                                RowOp::Insert(record)
                            }
                        }
                    })
                    .collect();
                for op in &ops {
                    match op {
                        RowOp::Insert(r) => digest.words(&[1, r[0], r[1], r[2]]),
                        RowOp::Delete(id) => digest.words(&[2, *id]),
                        RowOp::Upsert(r) => digest.words(&[3, r[0], r[1], r[2]]),
                    }
                }
                Ingest {
                    write: TableWrite::new(&ops),
                    ops,
                }
            })
            .collect();
        // An id deleted and never re-inserted stays deleted: fresh ids are
        // never reused.
        deleted_ids.retain(|id| !final_rows.contains_key(id));

        Input {
            sizes,
            records,
            queries,
            ingests,
            ingest_schedule: schedule,
            final_rows,
            deleted_ids,
            digest,
        }
    }
}

struct ReaderOut {
    /// `(predicates, seconds inside the call)` per query.
    calls: Vec<(u64, f64)>,
    tally: Tally,
}

fn closed_loop_reader(
    client: &TableCli,
    queries: &[Query],
    done: &std::sync::atomic::AtomicBool,
) -> ReaderOut {
    use std::sync::atomic::Ordering;
    let mut out = ReaderOut {
        calls: Vec::new(),
        tally: Tally::default(),
    };
    let mut i = 0usize;
    while !done.load(Ordering::Relaxed) {
        let query = &queries[i % queries.len()];
        i += 1;
        // The service takes the query by value: clone before the clock.
        let read = query.read.clone();
        let call = Instant::now();
        let answered = client.query(read);
        out.calls
            .push((PREDICATES_PER_QUERY as u64, call.elapsed().as_secs_f64()));
        let ok = answered.is_ok_and(|a| checksum(a.answers()) == query.expected);
        out.tally.count(PREDICATES_PER_QUERY as u64, ok);
    }
    out
}

/// Checks the writer's region after the run: every row it left must be
/// found at its rowID with its amount, every id it deleted must be gone.
fn verify(client: &TableCli, input: &Input) -> Tally {
    let mut tally = Tally::default();
    let mut expected: Vec<(u64, Answer)> = input
        .final_rows
        .iter()
        .map(|(&id, &(row, amount))| {
            (
                id,
                Answer {
                    hit_count: 1,
                    first_row: row,
                    value_sum: amount,
                },
            )
        })
        .chain(input.deleted_ids.iter().map(|&id| (id, Answer::miss())))
        .collect();
    expected.sort_unstable_by_key(|e| e.0);
    for chunk in expected.chunks(256) {
        let preds: Vec<Pred> = chunk.iter().map(|e| Pred::Id(e.0)).collect();
        match client.query(TableRead::new(&preds)) {
            Ok(answers) => {
                for (answer, (_, want)) in answers.answers().zip(chunk) {
                    tally.count(1, answer == *want);
                }
            }
            Err(_) => tally.count(chunk.len() as u64, false),
        }
    }
    tally
}

pub fn start(sut: &Sut, input: &Input) -> Result<TableSvc, String> {
    sut.start_table_service(&input.records)
}

pub fn run(config: &Config) -> Result<Measured, String> {
    run_with(&Input::generate(config))
}

/// Runs the workload over a generated input (whose schedule sets how long).
pub fn run_with(input: &Input) -> Result<Measured, String> {
    let sut = Sut::new();
    let mut measured = Measured {
        input_digest: input.digest.hex(),
        ..Measured::default()
    };

    let mut setups = Setups::default();
    let service = setups.time(|| start(&sut, input))?;
    let client = service.client();

    // The section lasts as long as the writer's schedule (90 % of the run
    // at its fixed rate): the reader never runs without the writer beside it.
    let done = std::sync::atomic::AtomicBool::new(false);
    let clock = PhaseClock::start();
    let mut write_latencies_ns = Vec::with_capacity(input.ingests.len());
    let mut write_lags_ns = Vec::with_capacity(input.ingests.len());
    let mut writer_tally = Tally::default();
    let mut rebuilt = 0u64;
    let reader_client = service.client();
    let reader_out = std::thread::scope(|scope| {
        let reader = scope.spawn(|| closed_loop_reader(&reader_client, &input.queries, &done));
        for (ingest, &at_ns) in input.ingests.iter().zip(&input.ingest_schedule) {
            let write = ingest.write.clone();
            let sent = clock.wait_until(at_ns);
            let result = client.ingest(write);
            write_lags_ns.push(sent - at_ns);
            write_latencies_ns.push(clock.now_ns() - at_ns);
            match result {
                Ok(counts) => {
                    rebuilt += counts.rebuilt_indexes;
                    writer_tally.count(ingest.ops.len() as u64, true);
                }
                Err(_) => writer_tally.count(ingest.ops.len() as u64, false),
            }
        }
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        reader.join().expect("reader thread panicked")
    });
    let wall = clock.elapsed().as_secs_f64();
    let verified = verify(&client, input);
    let counts = service.shutdown();

    let calls = stats::after_warmup(&reader_out.calls);
    measured.set("read_ops_per_s", stats::windowed_rate(calls, RATE_WINDOWS));
    let latencies_ns: Vec<u64> = reader_out
        .calls
        .iter()
        .map(|c| (c.1 * 1e9) as u64)
        .collect();
    measured.set("read_p50_ms", p50_ms(&latencies_ns));
    measured.set("bench.read_p99_ms", p99_ms(&latencies_ns));
    measured.set("bench.write_p50_ms", p50_ms(&write_latencies_ns));
    let lag = lag_p99_us(&write_lags_ns);
    measured.set(
        "bench.generator_lag_us_p99",
        Summary::of(lag, write_lags_ns.len() as u64),
    );
    measured.set_value(
        "bench.device_bytes_per_key",
        counts.memory_bytes as f64 / input.sizes.rows as f64,
    );
    measured.set_value(
        "rtx-table.rebuilds_per_batch",
        rebuilt as f64 / input.ingests.len().max(1) as f64,
    );
    measured.set_value(
        "rtx-table.scan_share",
        counts.scan_fallbacks as f64 / counts.planned_predicates.max(1) as f64,
    );
    measured.set_value("rtx-table.rollbacks", counts.ingest_rollbacks as f64);
    measured.set_value("rtx-serve.peak_queued_ops", counts.peak_queued_ops as f64);
    measured.set_value("rtx-serve.rejected_share", rejected_share(&counts));
    measured.notes.insert(
        "ingest_batches_per_s",
        input.sizes.ingest_batches_per_s.to_string(),
    );

    measured.phases.push(PhaseNote {
        name: "served",
        wall_s: wall,
        generator_lag_us_p99: Some(lag),
        requests: (reader_out.calls.len() + write_latencies_ns.len()) as u64,
    });
    reader_out.tally.into_measured(&mut measured);
    writer_tally.into_measured(&mut measured);
    verified.into_measured(&mut measured);
    measured.set_value("peak_rss_mb", peak_rss_mib());
    setups.repeat(
        QUICK_SETUP_REPS,
        |_| start(&sut, input),
        |service: TableSvc| {
            service.shutdown();
        },
    )?;
    measured.set("setup_s", setups.summary());
    Ok(measured)
}

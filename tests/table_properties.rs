//! Property-based tests of the multi-index table layer: random CDC streams
//! and mixed queries against the [`TableOracle`]. A unique-key `B+` index
//! refuses duplicate ids mid-stream to exercise the all-or-nothing rollback
//! path, and a capped stub backend whose rebuilds fail past its cap shows
//! that a failed rebuild refuses no batch.

use std::collections::HashSet;
use std::sync::Arc;

use proptest::prelude::*;
use rtindex::gpu_baselines::{register_baselines, GpuIndexAdapter, WarpHashTable};
use rtindex::rtindex_core::register_rx;
use rtindex::rtx_delta::register_dynamic;
use rtindex::{
    Device, DynamicRtConfig, IndexError, IndexSpec, IngestBatch, IngestOp, KeyMode, Registry,
    RtIndexConfig, SecondaryIndex, Table, TableQuery, TableSchema,
};
use rtx_workloads::TableOracle;

/// The registry every table here builds from: the baselines, RX and RXD.
fn registry() -> Registry {
    let mut registry = Registry::new();
    register_baselines(&mut registry);
    register_rx(&mut registry, RtIndexConfig::default());
    register_dynamic(
        &mut registry,
        DynamicRtConfig::default().with_rx(RtIndexConfig::default()),
    );
    registry
}

/// Registers `"CAP"`: a hash-table stub that refuses to (re)build over more
/// than `cap` keys, turning table growth into failed rebuilds.
fn register_capped(registry: &mut Registry, cap: usize) {
    registry.register("CAP", move |spec| {
        if spec.keys.len() > cap {
            return Err(IndexError::UnsupportedKeySet {
                backend: "CAP".into(),
                reason: format!(
                    "{} keys exceed the stub's capacity of {cap}",
                    spec.keys.len()
                ),
            });
        }
        let inner = WarpHashTable::build(spec.device, spec.keys)?;
        Ok(Box::new(GpuIndexAdapter::new(inner, spec)) as Box<dyn SecondaryIndex>)
    });
}

/// The three-index schema used throughout: points land on the hash
/// backends, `ts` ranges on RX.
fn schema() -> TableSchema {
    TableSchema::new(["id", "ts", "amount"])
        .with_value_column("amount")
        .with_index("id_ht", "id", "HT")
        .with_index("ts_rx", "ts", "RX")
        .with_index("id_rxd", "id", "RXD")
}

/// Decodes a generated `(kind, key, ts, amount)` tuple into a CDC op.
fn decode_op(op: &(u8, u64, u64, u64)) -> IngestOp {
    let &(kind, key, ts, amount) = op;
    match kind % 3 {
        0 => IngestOp::Insert(vec![key, ts, amount]),
        1 => IngestOp::Delete(key),
        _ => IngestOp::Upsert(vec![key, ts, amount]),
    }
}

fn decode_batch(ops: &[(u8, u64, u64, u64)]) -> IngestBatch {
    ops.iter()
        .fold(IngestBatch::new(), |batch, op| batch.push(decode_op(op)))
}

/// Builds the mixed point + range queries for one generated tuple.
fn decode_query(&(pk, rlo, rw): &(u64, u64, u64)) -> TableQuery {
    TableQuery::new()
        .point("id", pk)
        .range("ts", rlo, rlo + rw)
        .fetch_values(true)
}

/// Asserts the table answers `query` exactly as the oracle does.
fn assert_oracle_exact(table: &Table, oracle: &TableOracle, query: &TableQuery) {
    let out = table.query(query).expect("planned query");
    let expected = oracle.expected_query(table.schema(), query);
    assert_eq!(out.results.len(), expected.len());
    for (i, (got, want)) in out.results.iter().zip(&expected).enumerate() {
        assert_eq!(got.first_row, want.first_row, "predicate {i}");
        assert_eq!(got.hit_count, want.hit_count, "predicate {i}");
        assert_eq!(got.value_sum, want.value_sum, "predicate {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random CDC streams keep a three-index table oracle-exact: after every
    /// batch, mixed point + range queries answer exactly what a scan of the
    /// oracle's live rows answers, and the `ts` range routes to RX.
    #[test]
    fn prop_cdc_stream_stays_oracle_exact(
        records in prop::collection::vec((0u64..64, 0u64..256, 0u64..100), 0..32),
        batches in prop::collection::vec(
            prop::collection::vec((0u8..3, 0u64..64, 0u64..256, 0u64..100), 1..8),
            1..5,
        ),
        queries in prop::collection::vec((0u64..80, 0u64..300, 0u64..48), 1..4),
    ) {
        let device = Device::default_eval();
        let records: Vec<Vec<u64>> =
            records.iter().map(|&(k, t, a)| vec![k, t, a]).collect();
        let mut table =
            Table::load(schema(), &device, Arc::new(registry()), &records).expect("load");
        let mut oracle = TableOracle::load(3, &records);

        for ops in &batches {
            let batch = decode_batch(ops);
            table.ingest(&batch).expect("cdc batch");
            oracle.apply_batch(&batch);
            prop_assert_eq!(table.row_count(), oracle.row_count());
            for q in &queries {
                let query = decode_query(q);
                assert_oracle_exact(&table, &oracle, &query);
                let plan = table.explain(&query).expect("explain");
                prop_assert_eq!(plan.routed_index(1), Some("ts_rx"));
            }
        }
    }

    /// With a unique-key `B+` on `id` as a fourth index, batches that leave
    /// two live rows with one id are refused mid-stream — and every refusal
    /// rolls the row store and all four indexes back to a state that still
    /// answers oracle-exactly.
    #[test]
    fn prop_rejected_batches_roll_back_atomically(
        records in prop::collection::vec((0u64..48, 0u64..256, 0u64..100), 0..12),
        batches in prop::collection::vec(
            prop::collection::vec((0u8..3, 0u64..48, 0u64..256, 0u64..100), 1..10),
            2..6,
        ),
        queries in prop::collection::vec((0u64..64, 0u64..300, 0u64..48), 1..3),
    ) {
        let device = Device::default_eval();
        let schema = schema().with_index("id_bt", "id", "B+");
        // The initial build itself must hold every id once.
        let mut ids = HashSet::new();
        let records: Vec<Vec<u64>> = records
            .iter()
            .filter(|&&(k, ..)| ids.insert(k))
            .map(|&(k, t, a)| vec![k, t, a])
            .collect();
        let mut table =
            Table::load(schema, &device, Arc::new(registry()), &records).expect("load");
        let mut oracle = TableOracle::load(3, &records);

        for ops in &batches {
            let batch = decode_batch(ops);
            let before = table.row_count();
            match table.ingest(&batch) {
                // Accepted: the oracle follows.
                Ok(_) => oracle.apply_batch(&batch),
                // Rejected: the table must be exactly where it was.
                Err(err) => {
                    prop_assert!(err.to_string().contains("duplicate"), "{}", err);
                    prop_assert_eq!(table.row_count(), before);
                }
            }
            prop_assert_eq!(table.row_count(), oracle.row_count());
            for q in &queries {
                assert_oracle_exact(&table, &oracle, &decode_query(q));
            }
        }
    }

    /// With a capped stub as a fourth index, no batch is ever refused: past
    /// the cap the stub's rebuilds fail and it keeps its base and overlay,
    /// so every answer stays oracle-exact. A rebuild fails only while the
    /// table holds more rows than the cap, and back under it the stub's
    /// base holds every live row again.
    #[test]
    fn prop_failed_rebuilds_refuse_no_batch(
        records in prop::collection::vec((0u64..48, 0u64..256, 0u64..100), 0..12),
        batches in prop::collection::vec(
            prop::collection::vec((0u8..3, 0u64..48, 0u64..256, 0u64..100), 1..10),
            2..6,
        ),
        queries in prop::collection::vec((0u64..64, 0u64..300, 0u64..48), 1..3),
    ) {
        let device = Device::default_eval();
        let mut registry = registry();
        register_capped(&mut registry, 16);
        let schema = schema().with_index("id_cap", "id", "CAP");
        let records: Vec<Vec<u64>> = records
            .iter()
            .map(|&(k, t, a)| vec![k, t, a])
            .take(16) // the initial build itself must fit under the cap
            .collect();
        let mut table =
            Table::load(schema, &device, Arc::new(registry), &records).expect("load");
        let mut oracle = TableOracle::load(3, &records);

        for ops in &batches {
            let batch = decode_batch(ops);
            let failures = table.stats().rebuild_failures;
            table.ingest(&batch).expect("a failed rebuild refuses no batch");
            oracle.apply_batch(&batch);
            prop_assert_eq!(table.row_count(), oracle.row_count());
            let failed = table.stats().rebuild_failures - failures;
            prop_assert!(failed <= 1, "only the stub fails: {}", failed);
            if failed == 1 {
                prop_assert!(table.row_count() > 16);
            } else if table.row_count() <= 16 {
                let base = table.index_backend("id_cap").expect("id_cap");
                prop_assert_eq!(base.key_count(), table.row_count());
            }
            for q in &queries {
                assert_oracle_exact(&table, &oracle, &decode_query(q));
            }
        }
        prop_assert_eq!(table.stats().rolled_back_batches, 0);
    }
}

/// Deterministic companion: a stream that *must* cross the cap mid-way is
/// accepted on both sides of it. Past the cap the stub keeps its overlay
/// and counts a failed rebuild per batch, every answer stays
/// oracle-exact, and deletes that bring the table back under the cap
/// rebuild it.
#[test]
fn capped_stub_keeps_its_overlay_past_the_cap_then_rebuilds() {
    let device = Device::default_eval();
    let mut registry = registry();
    register_capped(&mut registry, 12);
    let schema = schema().with_index("id_cap", "id", "CAP");
    let records: Vec<Vec<u64>> = (0..10u64).map(|k| vec![k, k * 2, k * 3]).collect();
    let mut table = Table::load(schema, &device, Arc::new(registry), &records).expect("load");
    let mut oracle = TableOracle::load(3, &records);
    let probe = TableQuery::new()
        .point("id", 200)
        .point("id", 300)
        .range("ts", 0, 512)
        .fetch_values(true);
    let mut ingest = |table: &mut Table, batch: IngestBatch| {
        table
            .ingest(&batch)
            .expect("a failed rebuild refuses no batch");
        oracle.apply_batch(&batch);
        assert_eq!(table.row_count(), oracle.row_count());
        assert_oracle_exact(table, &oracle, &probe);
        let stats = table.stats();
        (stats.rebuild_failures, stats.overlay_rows)
    };
    let growing = |base: u64| {
        IngestBatch::new()
            .insert(vec![base, base, base])
            .insert(vec![base + 1, base + 1, base + 1])
    };

    // 10 -> 12 rows fits exactly: every index rebuilds (a base under 16
    // rows rebuilds on every batch that changes it).
    assert_eq!(ingest(&mut table, growing(100)), (0, 0));
    // 12 -> 14 -> 16 rows: the stub cannot build, keeps its overlay and
    // counts one failure per batch; the batches stay accepted.
    assert_eq!(ingest(&mut table, growing(200)), (1, 2));
    assert_eq!(ingest(&mut table, growing(300)), (2, 4));
    let cap = table.index_backend("id_cap").expect("id_cap");
    assert_eq!(cap.key_count(), 12);
    assert_eq!(table.stats().index_rebuilds, 4 + 3 + 3);

    // Deletes bring the table back under the cap, and the stub rebuilds.
    let shrink = (0..5).fold(IngestBatch::new(), |batch, id| batch.delete(id));
    assert_eq!(ingest(&mut table, shrink), (2, 0));
    let cap = table.index_backend("id_cap").expect("id_cap");
    assert_eq!(cap.key_count(), 11);
    let stats = table.stats();
    assert_eq!((stats.index_rebuilds, stats.rolled_back_batches), (14, 0));
}

/// Decodes a generated `(kind, region, lo, width)` tuple into one composite
/// query form: a full-tuple point, a pure prefix, or a prefix range.
fn decode_composite_query(&(kind, region, lo, width): &(u8, u64, u64, u64)) -> TableQuery {
    let query = TableQuery::new().fetch_values(true);
    match kind % 3 {
        0 => query.prefix_tuple(["region", "ts"], vec![region, lo]),
        1 => query.prefix_tuple(["region"], vec![region]),
        _ => query.prefix_range(["region", "ts"], vec![region], lo, lo + width),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random CDC streams keep a table with *composite* `(region, ts)`
    /// indexes oracle-exact across every composite query form, and no
    /// composite predicate ever falls back to a scan (both composite
    /// indexes lead on `region`).
    #[test]
    fn prop_composite_indexes_stay_oracle_exact_through_cdc(
        records in prop::collection::vec((0u64..48, 0u64..8, 0u64..256, 0u64..100), 0..24),
        batches in prop::collection::vec(
            prop::collection::vec(((0u8..3, 0u64..48), (0u64..8, 0u64..256, 0u64..100)), 1..8),
            1..4,
        ),
        queries in prop::collection::vec((0u8..3, 0u64..10, 0u64..300, 0u64..64), 1..4),
    ) {
        let device = Device::default_eval();
        let schema = TableSchema::new(["id", "region", "ts", "amount"])
            .with_value_column("amount")
            .with_index("id_ht", "id", "HT")
            .with_composite_index("rt_rx", ["region", "ts"], "RX{u32,u32}")
            .with_composite_index("rt_sa", ["region", "ts"], "SA");
        let records: Vec<Vec<u64>> =
            records.iter().map(|&(k, r, t, a)| vec![k, r, t, a]).collect();
        let mut table =
            Table::load(schema, &device, Arc::new(registry()), &records).expect("load");
        let mut oracle = TableOracle::load(4, &records);

        for ops in &batches {
            let batch = ops.iter().fold(IngestBatch::new(), |b, &((kind, k), (r, t, a))| {
                b.push(match kind % 3 {
                    0 => IngestOp::Insert(vec![k, r, t, a]),
                    1 => IngestOp::Delete(k),
                    _ => IngestOp::Upsert(vec![k, r, t, a]),
                })
            });
            table.ingest(&batch).expect("cdc batch");
            oracle.apply_batch(&batch);
            prop_assert_eq!(table.row_count(), oracle.row_count());
            for q in &queries {
                let query = decode_composite_query(q);
                assert_oracle_exact(&table, &oracle, &query);
                let plan = table.explain(&query).expect("explain");
                prop_assert_eq!(plan.scan_fallbacks(), 0, "{}", &plan);
            }
        }
    }
}

/// The overlay schema: the five read-only index shapes, all kept by
/// row-store overlays — `HT`, `RX`, a unique-key `B+`, a sharded `RX@2`
/// and a composite `SA{u32,u32}`.
fn overlay_schema() -> TableSchema {
    TableSchema::new(["id", "ts", "amount"])
        .with_value_column("amount")
        .with_index("id_ht", "id", "HT")
        .with_index("ts_rx", "ts", "RX")
        .with_index("id_bt", "id", "B+")
        .with_index("ts_rx2", "ts", "RX@2")
        .with_composite_index("id_ts_sa", ["id", "ts"], "SA{u32,u32}")
}

/// Unique ids `0..rows`, `ts` from a small domain (many rows per `ts`, so
/// a deleted `first_row` often leaves other matches behind).
fn overlay_records(rows: u64) -> Vec<Vec<u64>> {
    (0..rows)
        .map(|id| vec![id, id * 7 % 40, id * 13 % 101])
        .collect()
}

/// Every query of `keys`, forced through each index it can use, is
/// answered exactly as the oracle scans it out.
fn assert_forced_oracle_exact(table: &Table, oracle: &TableOracle, keys: &[(u64, u64, u64)]) {
    for &(id, ts, width) in keys {
        let by_index = [
            ("id_ht", TableQuery::new().point("id", id)),
            (
                "id_bt",
                TableQuery::new()
                    .point("id", id)
                    .range("id", id, id + width),
            ),
            (
                "ts_rx",
                TableQuery::new()
                    .point("ts", ts)
                    .range("ts", ts, ts + width),
            ),
            (
                "ts_rx2",
                TableQuery::new()
                    .point("ts", ts)
                    .range("ts", ts, ts + width),
            ),
            (
                "id_ts_sa",
                TableQuery::new()
                    .prefix_tuple(["id", "ts"], vec![id, ts])
                    .prefix_tuple(["id"], vec![id])
                    .prefix_range(["id", "ts"], vec![id], ts, ts + width)
                    .range("id", id, id + width),
            ),
        ];
        for (index, query) in by_index {
            let query = query.fetch_values(true);
            let got = table.query_forced(&query, index).expect("forced query");
            let want = oracle.expected_query(table.schema(), &query);
            for (pi, (g, w)) in got.results.iter().zip(&want).enumerate() {
                assert_eq!(
                    (g.first_row, g.hit_count, g.value_sum),
                    (w.first_row, w.hit_count, w.value_sum),
                    "{index}: predicate {pi} ({})",
                    query.predicates()[pi]
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A 256-row table under batches of at most 8 ops: overlays persist
    /// across batches, and the stream deletes and upserts the rows the
    /// queries target. After every batch each index, forced, stays
    /// oracle-exact, and the indexes rebuild exactly on the batches whose
    /// overlay reaches `base_rows / 16` rows.
    #[test]
    fn prop_overlays_stay_oracle_exact_and_rebuild_at_the_threshold(
        batches in prop::collection::vec(
            prop::collection::vec((0u8..3, 0u64..300, 0u64..48, 0u64..100), 1..9),
            4..16,
        ),
        keys in prop::collection::vec((0u64..300, 0u64..48, 0u64..24), 1..4),
    ) {
        let device = Device::default_eval();
        let records = overlay_records(256);
        let mut table = Table::load(
            overlay_schema(),
            &device,
            Arc::new(rtindex::registry()),
            &records,
        )
        .expect("load");
        let mut oracle = TableOracle::load(3, &records);
        // The model of every overlay: id -> table rowID of the live rows,
        // and the base the indexes were last built over.
        let mut live: std::collections::HashMap<u64, u32> =
            (0..256u64).map(|id| (id, id as u32)).collect();
        let mut next_row = 256u32;
        let (mut base_slots, mut base_rows) = (256u32, 256usize);
        let mut fresh_id = 1000u64;

        for ops in &batches {
            let mut batch = IngestBatch::new();
            for &(kind, id, ts, amount) in ops {
                let op = match kind {
                    // Inserts take fresh ids: the B+ index takes no
                    // duplicates, and this stream must be accepted.
                    0 => {
                        fresh_id += 1;
                        IngestOp::Insert(vec![fresh_id, ts, amount])
                    }
                    1 => IngestOp::Delete(id),
                    _ => IngestOp::Upsert(vec![id, ts, amount]),
                };
                let key = op.primary_key();
                if !matches!(op, IngestOp::Insert(_)) {
                    live.remove(&key);
                }
                if !matches!(op, IngestOp::Delete(_)) {
                    live.insert(key, next_row);
                    next_row += 1;
                }
                batch = batch.push(op);
            }
            let rebuilds_before = table.stats().index_rebuilds;
            table.ingest(&batch).expect("cdc batch");
            oracle.apply_batch(&batch);
            prop_assert_eq!(table.row_count(), oracle.row_count());

            let fresh = live.values().filter(|&&row| row >= base_slots).count();
            let kept = live.len() - fresh;
            let overlay = fresh + (base_rows - kept);
            let stats = table.stats();
            if overlay >= (base_rows / 16).max(1) {
                prop_assert_eq!(stats.index_rebuilds, rebuilds_before + 5);
                prop_assert_eq!(stats.overlay_rows, 0);
                base_slots = next_row;
                base_rows = live.len();
            } else {
                prop_assert_eq!(stats.index_rebuilds, rebuilds_before);
                prop_assert_eq!(stats.overlay_rows, 5 * overlay as u64);
            }
            assert_forced_oracle_exact(&table, &oracle, &keys);
        }
    }
}

/// A batch the unique-key `B+` refuses for a duplicate — after it already
/// appended rows to every overlay — leaves every index answering exactly
/// as before it, as do batches refused for a key too wide for an index; a
/// base `first_row` deleted while other matches remain is answered by a
/// rescan.
#[test]
fn duplicate_refused_after_overlay_appends_rolls_every_index_back() {
    let device = Device::default_eval();
    let records = overlay_records(256);
    let mut table = Table::load(
        overlay_schema(),
        &device,
        Arc::new(rtindex::registry()),
        &records,
    )
    .expect("load");
    let mut oracle = TableOracle::load(3, &records);
    // Committed overlays first: row 0 (ts 0, the smallest rowID of its ts)
    // dies, an upsert and a fresh row arrive.
    let warm = IngestBatch::new()
        .delete(0)
        .upsert(vec![5, 3, 55])
        .insert(vec![900, 0, 9]);
    table.ingest(&warm).expect("warm-up batch");
    oracle.apply_batch(&warm);
    let stats = table.stats();
    assert_eq!((stats.index_rebuilds, stats.overlay_rows), (0, 5 * 4));

    let keys = [(0, 0, 8), (5, 3, 4), (42, 14, 6), (900, 0, 2), (250, 10, 9)];
    assert_forced_oracle_exact(&table, &oracle, &keys);
    // ts 0 lost its first row 0, and rows 40, 80, ... still hold it: the
    // point on `ts_rx` could only be answered by a rescan.
    let rescans = table.stats().overlay_rescans;
    assert!(rescans > 0, "{:?}", table.stats());

    let snapshot = |table: &Table| -> Vec<Vec<(u32, u32, u64)>> {
        table
            .index_names()
            .into_iter()
            .map(|index| {
                let query = match index {
                    "id_ts_sa" => TableQuery::new()
                        .prefix_tuple(["id"], vec![5])
                        .range("id", 0, 299),
                    "ts_rx" | "ts_rx2" => TableQuery::new().point("ts", 0).range("ts", 0, 47),
                    _ => TableQuery::new().point("id", 5).point("id", 42),
                };
                let query = match index {
                    "id_bt" => query.range("id", 0, 299),
                    _ => query,
                };
                let out = table
                    .query_forced(&query.fetch_values(true), index)
                    .expect("forced query");
                out.results
                    .iter()
                    .map(|r| (r.first_row, r.hit_count, r.value_sum))
                    .collect()
            })
            .collect()
    };
    let before = snapshot(&table);

    // Fresh rows, a delete and an upsert land in every overlay before the
    // duplicate id 42 is found at the end of the batch.
    let poisoned = IngestBatch::new()
        .insert(vec![901, 1, 1])
        .delete(7)
        .upsert(vec![6, 2, 2])
        .insert(vec![42, 3, 3]);
    let err = table
        .ingest(&poisoned)
        .expect_err("B+ refuses a duplicate id");
    assert!(err.to_string().contains("duplicate"), "{err}");
    // The build's other cheap checks refuse at ingest too: B+ holds 32-bit
    // keys, and `ts` must fit the composite key's u32 column.
    for (bad, why) in [
        (vec![1 << 40, 1, 1], "32-bit"),
        (vec![950, 1 << 33, 1], "does not fit"),
    ] {
        let batch = IngestBatch::new().insert(vec![902, 1, 1]).insert(bad);
        let err = table.ingest(&batch).expect_err("refused at ingest");
        assert!(err.to_string().contains(why), "{err}");
    }
    let stats = table.stats();
    assert_eq!(stats.rolled_back_batches, 3);
    assert_eq!((stats.index_rebuilds, stats.overlay_rows), (0, 5 * 4));
    assert_eq!(table.row_count(), oracle.row_count());
    assert_eq!(snapshot(&table), before);
    assert_forced_oracle_exact(&table, &oracle, &keys);
}

/// Upserting a row an earlier batch inserted drops its old row from the
/// fresh overlay and appends the new one: the overlay must sort it in, on
/// the `id` indexes (same key, new rowID) and the `ts` ones (smaller key).
#[test]
fn upserting_a_fresh_row_keeps_every_overlay_sorted() {
    let device = Device::default_eval();
    let records = overlay_records(256);
    let mut table = Table::load(
        overlay_schema(),
        &device,
        Arc::new(rtindex::registry()),
        &records,
    )
    .expect("load");
    let mut oracle = TableOracle::load(3, &records);
    let fresh = IngestBatch::new()
        .insert(vec![300, 10, 1])
        .insert(vec![301, 20, 2])
        .insert(vec![302, 30, 3]);
    let upsert = IngestBatch::new().upsert(vec![301, 5, 4]);
    for batch in [fresh, upsert] {
        table.ingest(&batch).expect("cdc batch");
        oracle.apply_batch(&batch);
    }
    assert_eq!(table.stats().index_rebuilds, 0);
    assert_eq!(table.stats().overlay_rows, 5 * 3);
    let keys = [
        (300, 10, 0),
        (301, 5, 0),
        (301, 20, 0),
        (302, 30, 0),
        (300, 0, 40),
    ];
    assert_forced_oracle_exact(&table, &oracle, &keys);
}

/// A row only the build refuses — a `ts` past the range of RX's naive key
/// mode, which still claims full 64-bit keys — is admitted into the
/// overlay. Every batch whose rebuild then fails is accepted: RX keeps its
/// exact base and overlay, counts the failure and retries at every later
/// batch, and rebuilds once the row is gone. A batch that brings such a row
/// itself is accepted the same way.
#[test]
fn a_row_only_the_build_refuses_defers_the_rebuild_and_refuses_no_batch() {
    let device = Device::default_eval();
    let mut registry = Registry::new();
    register_baselines(&mut registry);
    register_rx(
        &mut registry,
        RtIndexConfig::default().with_key_mode(KeyMode::Naive),
    );
    let schema = TableSchema::new(["id", "ts", "amount"])
        .with_value_column("amount")
        .with_index("id_ht", "id", "HT")
        .with_index("ts_rx", "ts", "RX");
    let records = overlay_records(256);
    let mut table = Table::load(schema, &device, Arc::new(registry), &records).expect("load");
    let mut oracle = TableOracle::load(3, &records);
    let far = 1 << 24;
    let inserts = |ids: std::ops::Range<u64>| {
        ids.fold(IngestBatch::new(), |batch, id| {
            batch.insert(vec![id, id % 40, id])
        })
    };
    let check = |table: &Table, oracle: &TableOracle| {
        for query in [
            TableQuery::new().point("ts", far).range("ts", 0, 1 << 22),
            TableQuery::new().point("ts", 3).range("ts", 3, 9),
        ] {
            let query = query.fetch_values(true);
            let got = table.query_forced(&query, "ts_rx").expect("forced query");
            let want = oracle.expected_query(table.schema(), &query);
            for (g, w) in got.results.iter().zip(&want) {
                assert_eq!(
                    (g.first_row, g.hit_count, g.value_sum),
                    (w.first_row, w.hit_count, w.value_sum)
                );
            }
        }
    };
    // Both overlays reach 16 rows: HT rebuilds, RX cannot and keeps its
    // overlay, and the batches stay accepted.
    let far_row = IngestBatch::new().insert(vec![500, far, 7]);
    for batch in [far_row, inserts(1000..1015), inserts(1015..1016)] {
        table.ingest(&batch).expect("accepted");
        oracle.apply_batch(&batch);
        check(&table, &oracle);
    }
    let stats = table.stats();
    assert_eq!((stats.index_rebuilds, stats.rolled_back_batches), (1, 0));
    assert_eq!((stats.rebuild_failures, stats.overlay_rows), (2, 1 + 17));
    // Deleting the far row lets RX rebuild.
    let delete = IngestBatch::new().delete(500);
    table.ingest(&delete).expect("accepted");
    oracle.apply_batch(&delete);
    check(&table, &oracle);
    assert_eq!(table.stats().index_rebuilds, 2);
    // With RX's committed rows building again, a batch bringing a far row
    // and crossing the threshold is accepted too: HT rebuilds, and RX
    // keeps its overlay.
    let far_batch = inserts(2000..2040).insert(vec![501, far, 7]);
    table.ingest(&far_batch).expect("accepted");
    oracle.apply_batch(&far_batch);
    check(&table, &oracle);
    let stats = table.stats();
    assert_eq!((stats.index_rebuilds, stats.rolled_back_batches), (3, 0));
    assert_eq!((stats.rebuild_failures, stats.overlay_rows), (3, 41));
}

/// Registers `"NOVAL"`: a hash table that never carries the value column.
fn register_noval(registry: &mut Registry) {
    registry.register("NOVAL", |spec| {
        let inner = WarpHashTable::build(spec.device, spec.keys)?;
        let keys_only = IndexSpec::keys_only(spec.device, spec.keys);
        Ok(Box::new(GpuIndexAdapter::new(inner, &keys_only)) as Box<dyn SecondaryIndex>)
    });
}

/// A 64-row table whose indexes, between them, meet every verdict the
/// planner can reach, and one query that shows each of them.
fn explain_fixture() -> (Table, TableQuery) {
    let mut registry = registry();
    register_noval(&mut registry);
    let schema = TableSchema::new(["id", "ts", "amount", "flag"])
        .with_value_column("amount")
        .with_index("id_ht", "id", "HT")
        .with_index("id_bt", "id", "B+")
        .with_index("ts_rx", "ts", "RX")
        .with_index("ts_noval", "ts", "NOVAL")
        .with_composite_index("id_ts_sa", ["id", "ts"], "SA{u32,u32}")
        .with_composite_index("id_ts_ht", ["id", "ts"], "HT{u32,u32}")
        .with_composite_index("flag_ts_bt", ["flag", "ts"], "B+{u32,u32}");
    let records: Vec<Vec<u64>> = (0..64u64).map(|id| vec![id, id * 7, id % 10, 0]).collect();
    let table = Table::load(
        schema,
        &Device::default_eval(),
        Arc::new(registry),
        &records,
    )
    .expect("fixture table");
    let query = TableQuery::new()
        .point("id", 3)
        .range("id", 2, 9)
        .point("id", 1 << 40)
        .prefix_tuple(["id", "ts"], vec![3, 21])
        .prefix_tuple(["id", "amount"], vec![3, 3])
        .point("ts", 21)
        .prefix_tuple(["flag", "ts"], vec![1, 5])
        .range("amount", 0, 5)
        .prefix("ts", 2, 3)
        .prefix_tuple(["id", "ts"], vec![3, 1 << 40])
        .fetch_values(true);
    (table, query)
}

/// The EXPLAIN of [`explain_fixture`], byte for byte as the planner
/// rendered it when it still built the text on every query. The working
/// set fits the simulated L2, so the probe costs do not depend on the
/// worker-pool width.
const FIXTURE_EXPLAIN: &str = r#"#0 id = 3 -> index id_ht (HT): cheapest of 3 eligible candidate(s) at 7.815e-8 s/op
    id_ht (HT): cost 7.815e-8 — probe 7.815e-8 s/op, 1280 B resident
    id_bt (B+): cost 7.834e-8 — probe 7.834e-8 s/op, 640 B resident
    id_ts_sa (SA{u32,u32}): cost 7.829e-8 — probe 7.829e-8 s/op × 1 limb(s) under {u32,u32}, 768 B resident
    id_ts_ht (HT{u32,u32}): ineligible — no range-lookup capability (prefix needs an encoded range)
#1 id in [2, 9] -> index id_ts_sa (SA{u32,u32}): cheapest of 2 eligible candidate(s) at 7.829e-8 s/op
    id_ht (HT): ineligible — no range-lookup capability
    id_bt (B+): cost 7.836e-8 — probe 7.836e-8 s/op, 640 B resident
    id_ts_sa (SA{u32,u32}): cost 7.829e-8 — probe 7.829e-8 s/op × 1 limb(s) under {u32,u32}, 768 B resident
    id_ts_ht (HT{u32,u32}): ineligible — no range-lookup capability (prefix needs an encoded range)
#2 id = 1099511627776 -> index id_ht (HT): cheapest of 1 eligible candidate(s) at 7.815e-8 s/op
    id_ht (HT): cost 7.815e-8 — probe 7.815e-8 s/op, 1280 B resident
    id_bt (B+): ineligible — 32-bit keys only
    id_ts_sa (SA{u32,u32}): ineligible — predicate does not encode under {u32,u32}: key-schema: value 1099511627776 does not fit a u32 column (max 4294967295)
    id_ts_ht (HT{u32,u32}): ineligible — predicate does not encode under {u32,u32}: key-schema: value 1099511627776 does not fit a u32 column (max 4294967295)
#3 id = 3, ts = 21 -> index id_ts_ht (HT{u32,u32}): cheapest of 2 eligible candidate(s) at 7.815e-8 s/op
    id_ht (HT): ineligible — single-column index cannot serve a multi-column predicate
    id_bt (B+): ineligible — single-column index cannot serve a multi-column predicate
    id_ts_sa (SA{u32,u32}): cost 7.829e-8 — probe 7.829e-8 s/op × 1 limb(s) under {u32,u32}, 768 B resident
    id_ts_ht (HT{u32,u32}): cost 7.815e-8 — probe 7.815e-8 s/op × 1 limb(s) under {u32,u32}, 1280 B resident
#4 id = 3, amount = 3 -> row-store scan: no eligible index (capability mismatch)
    id_ht (HT): ineligible — single-column index cannot serve a multi-column predicate
    id_bt (B+): ineligible — single-column index cannot serve a multi-column predicate
    id_ts_sa (SA{u32,u32}): ineligible — key columns ["id", "ts"] do not cover the predicate's columns
    id_ts_ht (HT{u32,u32}): ineligible — key columns ["id", "ts"] do not cover the predicate's columns
#5 ts = 21 -> index ts_rx (RX): cheapest of 1 eligible candidate(s) at 7.833e-8 s/op
    ts_rx (RX): cost 7.833e-8 — probe 7.833e-8 s/op, 3676 B resident
    ts_noval (NOVAL): ineligible — no value column
#6 flag = 1, ts = 5 -> row-store scan: no eligible index (capability mismatch)
    flag_ts_bt (B+{u32,u32}): ineligible — 32-bit keys only (encoded key overflows)
#7 amount in [0, 5] -> row-store scan: no index on column "amount"
#8 ts >> 3 = 2 -> index ts_rx (RX): cheapest of 1 eligible candidate(s) at 7.837e-8 s/op
    ts_rx (RX): cost 7.837e-8 — probe 7.837e-8 s/op, 3676 B resident
    ts_noval (NOVAL): ineligible — no value column
#9 id = 3, ts = 1099511627776 -> row-store scan: no eligible index (capability mismatch)
    id_ht (HT): ineligible — single-column index cannot serve a multi-column predicate
    id_bt (B+): ineligible — single-column index cannot serve a multi-column predicate
    id_ts_sa (SA{u32,u32}): ineligible — predicate does not encode under {u32,u32}: key-schema: value 1099511627776 does not fit a u32 column (max 4294967295)
    id_ts_ht (HT{u32,u32}): ineligible — predicate does not encode under {u32,u32}: key-schema: value 1099511627776 does not fit a u32 column (max 4294967295)
"#;

/// Every eligible detail, every ineligibility text, the limb text and
/// both scan reasons, pinned; the executed routes are the EXPLAIN's.
#[test]
fn explain_text_is_pinned_and_matches_the_executed_routes() {
    let (table, query) = explain_fixture();
    let explained = table.explain(&query).expect("explain");
    assert_eq!(explained.to_string(), FIXTURE_EXPLAIN);
    let out = table.query(&query).expect("query");
    for i in 0..query.len() {
        assert_eq!(
            out.plan.routed_index(i),
            explained.routed_index(i),
            "predicate {i}"
        );
    }
    assert_eq!(out.plan.scan_fallbacks(), 4);
}

/// The index shapes the drift proptest draws from: `(spec, composite)`.
/// `B+` keys on the unique `id` column only.
const DRIFT_SPECS: [(&str, bool); 7] = [
    ("HT", false),
    ("RX", false),
    ("B+", false),
    ("SA", false),
    ("RXD", false),
    ("SA{u32,u32}", true),
    ("RX{u32,u32}", true),
];

/// A drift-test schema: one index per generated `(shape, flip)`, on `id`
/// or `ts` (composites over `(id, ts)` or `(ts, id)`); `amount` stays
/// unindexed.
fn drift_schema(indexes: &[(usize, bool)]) -> TableSchema {
    let mut schema = TableSchema::new(["id", "ts", "amount"]).with_value_column("amount");
    for (i, &(shape, flip)) in indexes.iter().enumerate() {
        let (spec, composite) = DRIFT_SPECS[shape];
        let name = format!("ix{i}");
        let (lead, next) = if flip && spec != "B+" {
            ("ts", "id")
        } else {
            ("id", "ts")
        };
        schema = if composite {
            schema.with_composite_index(name, [lead, next], spec)
        } else {
            schema.with_index(name, lead, spec)
        };
    }
    schema
}

/// Decodes a generated `(kind, flip, (key, wide), width)` tuple into one
/// predicate; `wide` lifts the key above `u32::MAX`. Widths stay small:
/// a range over the leading column of `RX{u32,u32}` is one encoded range
/// per leading value, and RX caps the rays of one range.
fn drift_predicate(query: TableQuery, &(kind, flip, (key, wide), width): &DriftPred) -> TableQuery {
    let key = if wide { key + (1 << 32) } else { key };
    let (lead, next) = if flip { ("ts", "id") } else { ("id", "ts") };
    match kind {
        0 => query.point(lead, key),
        1 => query.range(lead, key, key + width),
        2 => query.prefix(lead, key >> 2, 2),
        3 => query.prefix_tuple([lead, next], vec![key % 64, key]),
        4 => query.prefix_tuple([lead], vec![key]),
        5 => query.prefix_range([lead, next], vec![key % 64], key, key + width),
        _ => query.range("amount", key, key + width),
    }
}

type DriftPred = (u8, bool, (u64, bool), u64);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Routing and EXPLAIN come from one scoring function, so they cannot
    /// drift: over random tables of 2–6 indexes and mixed point, range,
    /// prefix and composite predicates (unindexed columns and keys above
    /// `u32::MAX` among them), every executed route is the EXPLAIN's, the
    /// scan counts agree and the answers are oracle-exact, before and
    /// after a CDC batch. Forcing an index succeeds exactly when the
    /// EXPLAIN scores it eligible for every predicate, and then routes
    /// everything there, oracle-exactly.
    #[test]
    fn prop_routes_and_explain_cannot_drift(
        indexes in prop::collection::vec((0usize..7, any::<bool>()), 2..7),
        ts in prop::collection::vec(0u64..200, 1..40),
        queries in prop::collection::vec(
            prop::collection::vec(
                (0u8..7, any::<bool>(), (0u64..220, any::<bool>()), 0u64..6),
                1..6,
            ),
            1..4,
        ),
        fetch in any::<bool>(),
    ) {
        let schema = drift_schema(&indexes);
        let records: Vec<Vec<u64>> = ts
            .iter()
            .enumerate()
            .map(|(id, &ts)| vec![id as u64, ts, ts % 7])
            .collect();
        let mut table = Table::load(schema, &Device::default_eval(), Arc::new(registry()), &records)
            .expect("load");
        let mut oracle = TableOracle::load(3, &records);
        let queries: Vec<TableQuery> = queries
            .iter()
            .map(|preds| {
                preds
                    .iter()
                    .fold(TableQuery::new().fetch_values(fetch), drift_predicate)
            })
            .collect();
        // Fresh ids keep `B+` accepting; the upsert and the delete reach
        // every index's overlay.
        let batch = IngestBatch::new()
            .insert(vec![500, 17, 3])
            .upsert(vec![0, 150, 1])
            .delete(1);
        for round in 0..2 {
            if round == 1 {
                table.ingest(&batch).expect("cdc batch");
                oracle.apply_batch(&batch);
            }
            for query in &queries {
                let explained = table.explain(query).expect("explain");
                let out = table.query(query).expect("query");
                for i in 0..=query.len() {
                    prop_assert_eq!(out.plan.routed_index(i), explained.routed_index(i));
                }
                prop_assert_eq!(out.plan.scan_fallbacks(), explained.scan_fallbacks());
                let want = oracle.expected_query(table.schema(), query);
                prop_assert_eq!(&out.results, &want, "{}", explained);
                for name in table.index_names() {
                    let servable = explained.choices.iter().all(|choice| {
                        choice.candidates.iter().any(|c| c.index == name && c.eligible)
                    });
                    match table.query_forced(query, name) {
                        Ok(forced) => {
                            prop_assert!(servable, "forced {} past the EXPLAIN:\n{}", name, explained);
                            for i in 0..query.len() {
                                prop_assert_eq!(forced.plan.routed_index(i), Some(name));
                            }
                            prop_assert_eq!(forced.plan.scan_fallbacks(), 0);
                            prop_assert_eq!(&forced.results, &want, "forced {}", name);
                        }
                        Err(err) => prop_assert!(!servable, "{}: {}\n{}", name, err, explained),
                    }
                }
            }
        }
    }
}

//! End-to-end table tests against the full backend registry: the
//! acceptance scenario (HT + RX + RXD answering mixed point+range
//! queries oracle-exactly with the expected routing), CDC streams vs the
//! scan oracle, atomic rollback of rejected batches, refused durable and
//! served sharded index specs, and forced-index execution.

use std::path::PathBuf;
use std::sync::Arc;

use gpu_device::Device;
use rtindex_core::RtIndexConfig;
use rtx_delta::DynamicRtConfig;
use rtx_query::{IngestBatch, Registry, TableQuery, TableSchema};
use rtx_table::Table;
use rtx_workloads::{
    ingest_batches, table_queries, table_records, TableOracle, TableQueryConfig,
    TableWorkloadConfig,
};

fn registry() -> Arc<Registry> {
    let mut registry = Registry::new();
    gpu_baselines::register_baselines(&mut registry);
    rtindex_core::register_rx(&mut registry, RtIndexConfig::default());
    rtx_delta::register_dynamic(
        &mut registry,
        DynamicRtConfig::default().with_rx(RtIndexConfig::default()),
    );
    rtx_shard::install_sharding(&mut registry);
    rtx_durable::install_durability(&mut registry);
    Arc::new(registry)
}

fn schema() -> TableSchema {
    TableSchema::new(["id", "ts", "amount"])
        .with_value_column("amount")
        .with_index("id_ht", "id", "HT")
        .with_index("ts_rx", "ts", "RX")
        .with_index("id_rxd", "id", "RXD")
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "rtx-table-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// Asserts every query answers exactly what the oracle scans out.
fn assert_matches_oracle(
    table: &Table,
    oracle: &TableOracle,
    queries: &[TableQuery],
    context: &str,
) {
    for (qi, query) in queries.iter().enumerate() {
        let got = table.query(query).expect("query executes");
        let want = oracle.expected_query(table.schema(), query);
        assert_eq!(got.results.len(), want.len());
        for (pi, (g, w)) in got.results.iter().zip(&want).enumerate() {
            assert_eq!(
                (g.first_row, g.hit_count, g.value_sum),
                (w.first_row, w.hit_count, w.value_sum),
                "{context}: query {qi} predicate {pi} ({})",
                query.predicates()[pi]
            );
        }
    }
}

fn query_stream(seed: u64) -> Vec<TableQuery> {
    table_queries(&TableQueryConfig {
        queries: 25,
        predicates_per_query: 3,
        point_columns: vec!["id".into(), "ts".into()],
        range_columns: vec!["ts".into(), "amount".into()],
        key_domain: 512,
        range_span: 32,
        fetch_values: true,
        seed,
    })
}

#[test]
fn acceptance_mixed_query_routes_and_answers_exactly() {
    let device = Device::default_eval();
    let records = table_records(3, 512, 512, 1);
    let oracle = TableOracle::load(3, &records);
    let table = Table::load(schema(), &device, registry(), &records).expect("table builds");
    assert_eq!(table.row_count(), 512);
    assert_eq!(table.index_names(), vec!["id_ht", "ts_rx", "id_rxd"]);
    assert!(table.memory_bytes() > 0);

    // One mixed query: a point on `id`, a range on `ts`, and a range on
    // the unindexed `amount` column.
    let query = TableQuery::new()
        .point("id", records[7][0])
        .range("ts", 100, 260)
        .range("amount", 0, 50)
        .fetch_values(true);
    let out = table.query(&query).expect("mixed query executes");

    // Routing: the point goes to the hash table (cheapest point probe),
    // the range to RX (the hash table has no range capability), and the
    // unindexed column falls back to a row-store scan.
    assert_eq!(out.plan.routed_index(0), Some("id_ht"), "{}", out.plan);
    assert_eq!(out.plan.routed_index(1), Some("ts_rx"), "{}", out.plan);
    assert_eq!(out.plan.routed_index(2), None, "{}", out.plan);
    assert_eq!(out.plan.scan_fallbacks(), 1);

    // Answers: oracle-exact, including the scan fallback.
    let want = oracle.expected_query(table.schema(), &query);
    for (g, w) in out.results.iter().zip(&want) {
        assert_eq!(
            (g.first_row, g.hit_count, g.value_sum),
            (w.first_row, w.hit_count, w.value_sum)
        );
    }
    assert!(out.metrics.simulated_time_s > 0.0);
    assert!(out.sim_ms() > 0.0);

    // And a whole generated stream stays oracle-exact.
    assert_matches_oracle(&table, &oracle, &query_stream(2), "static load");
}

#[test]
fn cdc_ingest_stream_stays_oracle_exact() {
    let device = Device::default_eval();
    let records = table_records(3, 256, 512, 3);
    let mut oracle = TableOracle::load(3, &records);
    let mut table = Table::load(schema(), &device, registry(), &records).expect("table builds");

    let batches = ingest_batches(&TableWorkloadConfig {
        key_domain: 512,
        ..TableWorkloadConfig::uniform(3, 8, 24, 4)
    });
    for (bi, batch) in batches.iter().enumerate() {
        table.ingest(batch).expect("batch applies");
        oracle.apply_batch(batch);
        assert_eq!(table.row_count(), oracle.row_count(), "batch {bi}");
        assert_matches_oracle(&table, &oracle, &query_stream(100 + bi as u64), "cdc");
    }
    let stats = table.stats();
    assert_eq!(stats.ingest_batches, batches.len() as u64);
    assert_eq!(stats.rolled_back_batches, 0);
    assert!(stats.inserted_rows > 0 && stats.deleted_rows > 0);
    assert!(stats.index_rebuilds > 0);
}

#[test]
fn rejected_batch_rolls_back_atomically() {
    let device = Device::default_eval();
    // Unique primary keys so the B+-tree (which refuses duplicate keys)
    // builds; it rides along as a second index next to RXD.
    let records: Vec<Vec<u64>> = (0..128u64).map(|k| vec![k, k * 3 % 101, k * 7]).collect();
    let schema = TableSchema::new(["id", "ts", "amount"])
        .with_value_column("amount")
        .with_index("id_bt", "id", "B+")
        .with_index("id_rxd", "id", "RXD")
        .with_index("ts_rx", "ts", "RX");
    let oracle = TableOracle::load(3, &records);
    let mut table = Table::load(schema, &device, registry(), &records).expect("table builds");

    // A batch that first does legitimate work (rows land in the store and
    // the overlays) and then inserts a duplicate `id`, which the B+-tree
    // refuses.
    let poisoned = IngestBatch::new()
        .insert(vec![500, 1, 10])
        .delete(3)
        .insert(vec![42, 2, 20]); // id 42 already exists → B+ rejects
    let err = table.ingest(&poisoned).expect_err("B+ rejects duplicates");
    let msg = err.to_string();
    assert!(msg.contains("B+") || msg.contains("duplicate"), "{msg}");

    // All-or-nothing: the pre-batch state is fully restored.
    assert_eq!(table.row_count(), 128);
    let stats = table.stats();
    assert_eq!(stats.ingest_batches, 1);
    assert_eq!(stats.rolled_back_batches, 1);
    let probe = TableQuery::new()
        .point("id", 3) // the delete rolled back: still present
        .point("id", 500) // the insert rolled back: still absent
        .point("id", 42)
        .range("ts", 0, 100)
        .fetch_values(true);
    assert_matches_oracle(&table, &oracle, &[probe], "after rollback");

    // A clean batch afterwards applies normally.
    let ok = IngestBatch::new().delete(42).insert(vec![42, 9, 90]);
    table.ingest(&ok).expect("clean batch applies");
    assert_eq!(table.row_count(), 128);
    let got = table
        .query(&TableQuery::new().point("id", 42).fetch_values(true))
        .unwrap();
    assert_eq!(got.results[0].hit_count, 1);
    assert_eq!(got.results[0].value_sum, 90);
}

#[test]
fn refused_batch_leaves_every_base_in_place() {
    let device = Device::default_eval();
    let records: Vec<Vec<u64>> = (0..1u64 << 16)
        .map(|id| vec![id, id * 7 % 1000, id * 3])
        .collect();
    let schema = TableSchema::new(["id", "ts", "amount"])
        .with_value_column("amount")
        .with_index("id_ht", "id", "HT")
        .with_index("id_rx", "id", "RX")
        .with_index("id_rxd", "id", "RXD")
        .with_index("id_bt", "id", "B+");
    let oracle = TableOracle::load(3, &records);
    let mut table = Table::load(schema, &device, registry(), &records).expect("table builds");
    let bases = |table: &Table| -> Vec<*const ()> {
        table
            .index_names()
            .iter()
            .map(|name| table.index_backend(name).unwrap() as *const _ as *const ())
            .collect()
    };
    let before = bases(&table);
    let rebuilds = table.stats().index_rebuilds;

    // Legitimate work first, then an `id` the B+-tree already holds.
    let refused = IngestBatch::new()
        .insert(vec![1 << 20, 1, 10])
        .delete(3)
        .upsert(vec![17, 2, 20])
        .insert(vec![42, 5, 50]);
    table
        .ingest(&refused)
        .expect_err("B+ refuses the duplicate id");

    // Undoing the batch builds nothing: every index keeps its base.
    assert_eq!(bases(&table), before, "a refused batch swapped a base");
    let stats = table.stats();
    assert_eq!(stats.index_rebuilds, rebuilds);
    assert_eq!((stats.rolled_back_batches, stats.overlay_rows), (1, 0));
    // Every index, forced, still answers the pre-batch rows: points on
    // all four, ranges on the three that take them.
    let points = [3, 17, 42, 1 << 20, 65_535, 1 << 16]
        .into_iter()
        .fold(TableQuery::new().fetch_values(true), |query, id| {
            query.point("id", id)
        });
    let ranges = TableQuery::new()
        .range("id", 0, 63)
        .range("id", 1000, 70_000)
        .fetch_values(true);
    for index in table.index_names() {
        for query in [&points, &ranges] {
            if index == "id_ht" && query == &ranges {
                continue;
            }
            let got = table.query_forced(query, index).expect("forced query");
            let want = oracle.expected_query(table.schema(), query);
            assert_eq!(got.results, want, "{index}: {query:?}");
        }
    }
    let planned = table_queries(&TableQueryConfig {
        queries: 10,
        predicates_per_query: 3,
        point_columns: vec!["id".into()],
        range_columns: vec!["id".into()],
        key_domain: 1 << 16,
        range_span: 64,
        fetch_values: true,
        seed: 21,
    });
    assert_matches_oracle(&table, &oracle, &planned, "after the refused batch");
}

/// A schema with a durable index on `id` next to a sharded one on `ts`.
fn durable_schema(spec: String) -> TableSchema {
    TableSchema::new(["id", "ts", "amount"])
        .with_value_column("amount")
        .with_index("id_wal", "id", spec)
        .with_index("ts_sharded", "ts", "RXD@2")
}

/// Asserts that loading `schema` is refused with an error naming `index`
/// and the missing recovery, and that `dir` (made beforehand, holding a
/// marker file) survives the attempt untouched.
fn assert_durable_spec_refused(schema: TableSchema, index: &str, dir: &std::path::Path) {
    let records = table_records(3, 64, 256, 5);
    let marker = dir.join("marker");
    let err = Table::load(schema, &Device::default_eval(), registry(), &records)
        .expect_err("a durable table index is refused");
    let msg = err.to_string();
    assert!(
        msg.contains(&format!("{index:?}")) && msg.contains("recovery from a WAL is not supported"),
        "{msg}"
    );
    assert_eq!(
        std::fs::read_to_string(&marker).expect("the marker survives"),
        "keep me"
    );
}

fn marked_dir(tag: &str) -> PathBuf {
    let dir = temp_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("marker"), "keep me").unwrap();
    dir
}

#[test]
fn durable_specs_are_refused_and_sharded_specs_serve_the_table() {
    // Nothing recovers a whole table from a WAL, so a `+wal:` index is
    // refused at load, and its directory — which may hold anything — is
    // left alone.
    let dir = marked_dir("wal");
    let spec = format!("RXD+wal:{}", dir.display());
    assert_durable_spec_refused(durable_schema(spec), "id_wal", &dir);
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        1,
        "no WAL appears"
    );
    let _ = std::fs::remove_dir_all(&dir);

    // The sharded half serves the table as a base plus an overlay.
    let schema = TableSchema::new(["id", "ts", "amount"])
        .with_value_column("amount")
        .with_index("id_ht", "id", "HT")
        .with_index("ts_sharded", "ts", "RXD@2");
    let records = table_records(3, 200, 256, 7);
    let mut oracle = TableOracle::load(3, &records);
    let mut table =
        Table::load(schema, &Device::default_eval(), registry(), &records).expect("table builds");
    let batches = ingest_batches(&TableWorkloadConfig {
        key_domain: 256,
        ..TableWorkloadConfig::uniform(3, 6, 16, 8)
    });
    for (bi, batch) in batches.iter().enumerate() {
        table.ingest(batch).expect("batch applies");
        oracle.apply_batch(batch);
        let queries = table_queries(&TableQueryConfig {
            queries: 10,
            predicates_per_query: 2,
            point_columns: vec!["id".into()],
            range_columns: vec!["ts".into()],
            key_domain: 256,
            range_span: 24,
            fetch_values: true,
            seed: 40 + bi as u64,
        });
        assert_matches_oracle(&table, &oracle, &queries, "sharded");
        let ranges = (0..8u64).fold(TableQuery::new().fetch_values(true), |query, i| {
            query.range("ts", i * 32, i * 32 + 24)
        });
        let got = table.query_forced(&ranges, "ts_sharded").unwrap();
        let want = oracle.expected_query(table.schema(), &ranges);
        assert_eq!(got.results, want, "batch {bi}");
    }
}

#[test]
fn durable_specs_are_refused_in_every_form() {
    // Plain, sharded, builder-suffixed and composite durable specs are all
    // refused, whatever sits in the directory; a directory that does not
    // exist is not created.
    for (i, spec) in ["RXD+wal:", "RXD@2+wal:", "RXD:sah+wal:", "RXD{u32}+wal:"]
        .into_iter()
        .enumerate()
    {
        let dir = marked_dir(&format!("refused-{i}"));
        assert_durable_spec_refused(
            durable_schema(format!("{spec}{}", dir.display())),
            "id_wal",
            &dir,
        );
        let _ = std::fs::remove_dir_all(&dir);
        let absent = temp_dir(&format!("absent-{i}"));
        let _ = std::fs::remove_dir_all(&absent);
        let schema = TableSchema::new(["id"]).with_index(
            "id_wal",
            "id",
            format!("{spec}{}", absent.display()),
        );
        let err = Table::create(schema, &Device::default_eval(), registry()).expect_err("refused");
        assert!(err.to_string().contains("\"id_wal\""), "{err}");
        assert!(!absent.exists(), "{spec}: the refusal created {absent:?}");
    }
}

#[test]
fn sharded_primary_index_stays_first_row_exact_through_rebuilds() {
    // The RXD@2 index on the primary column takes the ingest through its
    // overlay and is rebuilt whenever the overlay crosses its threshold;
    // every rebuilt base's rowIDs must keep translating to table rowIDs.
    let schema = TableSchema::new(["id", "ts", "amount"])
        .with_value_column("amount")
        .with_index("id_sharded", "id", "RXD@2");
    let records = table_records(3, 200, 256, 11);
    let mut oracle = TableOracle::load(3, &records);
    let mut table =
        Table::load(schema, &Device::default_eval(), registry(), &records).expect("builds");

    let batches = ingest_batches(&TableWorkloadConfig {
        key_domain: 256,
        ..TableWorkloadConfig::uniform(3, 12, 24, 12)
    });
    for (bi, batch) in batches.iter().enumerate() {
        table.ingest(batch).expect("batch applies");
        oracle.apply_batch(batch);
        let mut query = TableQuery::new().fetch_values(true);
        for id in 0..256 {
            query = query.point("id", id);
        }
        let got = table.query_forced(&query, "id_sharded").unwrap();
        let want = oracle.expected_query(table.schema(), &query);
        assert_eq!(got.results, want, "batch {bi}");
    }
    assert!(
        table.stats().index_rebuilds > 0,
        "the overlay threshold is crossed"
    );
}

#[test]
fn forced_execution_matches_the_planner_and_validates_targets() {
    let device = Device::default_eval();
    let records = table_records(3, 300, 512, 9);
    let table = Table::load(schema(), &device, registry(), &records).expect("table builds");

    // Point-on-id queries can be forced through either id index; both
    // must agree with the planner-chosen route.
    for key in [records[0][0], records[10][0], 9999] {
        let query = TableQuery::new().point("id", key).fetch_values(true);
        let planned = table.query(&query).unwrap();
        for index in ["id_ht", "id_rxd"] {
            let forced = table.query_forced(&query, index).unwrap();
            assert_eq!(forced.plan.routed_index(0), Some(index));
            assert_eq!(
                (forced.results[0].first_row, forced.results[0].hit_count),
                (planned.results[0].first_row, planned.results[0].hit_count),
                "forced {index} vs planned"
            );
        }
    }

    // Forcing an index that cannot serve the predicate is an error, not a
    // silent fallback.
    let range = TableQuery::new().range("ts", 0, 100);
    assert!(table.query_forced(&range, "id_ht").is_err(), "wrong column");
    let point = TableQuery::new().point("id", 1);
    assert!(table.query_forced(&point, "ts_rx").is_err(), "wrong column");
    assert!(table.query_forced(&point, "nope").is_err(), "unknown index");
    // HT has no range capability even on its own column.
    let id_range = TableQuery::new().range("id", 0, 100);
    assert!(table.query_forced(&id_range, "id_ht").is_err());
    let forced_range = table.query_forced(&id_range, "id_rxd").unwrap();
    let planned_range = table.query(&id_range).unwrap();
    assert_eq!(
        forced_range.results[0].hit_count,
        planned_range.results[0].hit_count
    );
}

#[test]
fn prefix_predicates_compile_to_ranges() {
    let device = Device::default_eval();
    let records: Vec<Vec<u64>> = (0..64u64).map(|k| vec![k, 0x40 + k, k]).collect();
    let oracle = TableOracle::load(3, &records);
    let table = Table::load(schema(), &device, registry(), &records).expect("table builds");
    // prefix 0x1 over the low 6 bits of `ts` = the range [0x40, 0x7F].
    let query = TableQuery::new()
        .prefix("ts", 0x1, 6)
        .prefix("id", 5, 0) // zero low bits = an exact point
        .fetch_values(true);
    let out = table.query(&query).unwrap();
    assert_eq!(out.plan.routed_index(0), Some("ts_rx"));
    let want = oracle.expected_query(table.schema(), &query);
    assert_eq!(out.results[0].hit_count, want[0].hit_count);
    assert_eq!(out.results[0].hit_count, 64); // 0x40..=0x7F covers all rows
    assert_eq!((out.results[1].first_row, out.results[1].hit_count), (5, 1));
}

#[test]
fn empty_tables_build_every_index_and_answer_misses() {
    let device = Device::default_eval();
    let table = Table::create(schema(), &device, registry()).expect("empty table builds");
    assert_eq!(table.row_count(), 0);
    let out = table
        .query(
            &TableQuery::new()
                .point("id", 1)
                .range("ts", 0, 1 << 10)
                .fetch_values(true),
        )
        .unwrap();
    assert!(out.results.iter().all(|r| r.hit_count == 0));

    // fetch_values on a value-less schema is rejected up front.
    let bare = TableSchema::new(["k"]).with_index("k_rx", "k", "RX");
    let table = Table::create(bare, &device, registry()).expect("value-less table builds");
    assert!(table
        .query(&TableQuery::new().point("k", 1).fetch_values(true))
        .is_err());
    assert!(
        table
            .query(&TableQuery::new().point("k", 1))
            .unwrap()
            .results[0]
            .hit_count
            == 0
    );
}

#[test]
fn composite_indexes_route_and_answer_prefix_queries() {
    let device = Device::default_eval();
    // [id, region, ts, amount]: regions group the rows, ts spreads inside
    // each region, ids are unique.
    let records: Vec<Vec<u64>> = (0..400u64)
        .map(|i| vec![i, i % 8, (i * 37) % 512, i * 3 + 1])
        .collect();
    let schema = TableSchema::new(["id", "region", "ts", "amount"])
        .with_value_column("amount")
        .with_index("id_ht", "id", "HT")
        .with_composite_index("region_ts", ["region", "ts"], "RX{u32,u32}")
        .with_composite_index("region_ts_sa", ["region", "ts"], "SA");
    let mut oracle = TableOracle::load(4, &records);
    let mut table =
        Table::load(schema, &device, registry(), &records).expect("composite table builds");
    assert_eq!(
        table.index_names(),
        vec!["id_ht", "region_ts", "region_ts_sa"]
    );

    // One query spanning every composite form: a full-tuple point, a pure
    // prefix, a prefix range, a bare range on the leading column, plus a
    // scalar point that the composite indexes serve as an encoded prefix.
    let query = TableQuery::new()
        .prefix_tuple(["region", "ts"], vec![records[11][1], records[11][2]])
        .prefix_tuple(["region"], vec![3])
        .prefix_range(["region", "ts"], vec![3], 100, 300)
        .prefix_range(["region"], vec![], 2, 5)
        .point("region", 6)
        .fetch_values(true);
    let out = table.query(&query).expect("composite query executes");

    // Every predicate keys on `region`, which only the composite indexes
    // lead on — nothing may fall back to a scan.
    assert_eq!(out.plan.scan_fallbacks(), 0, "{}", out.plan);
    for pi in 0..query.len() {
        assert!(
            out.plan.routed_index(pi).is_some(),
            "predicate {pi} routed {}",
            out.plan
        );
    }

    let want = oracle.expected_query(table.schema(), &query);
    for (pi, (g, w)) in out.results.iter().zip(&want).enumerate() {
        assert_eq!(
            (g.first_row, g.hit_count, g.value_sum),
            (w.first_row, w.hit_count, w.value_sum),
            "predicate {pi} ({})",
            query.predicates()[pi]
        );
    }

    // A composite predicate over columns no index leads on scans instead.
    let scan_query = TableQuery::new()
        .prefix_range(["ts", "amount"], vec![100], 0, u64::MAX)
        .fetch_values(true);
    let out = table.query(&scan_query).expect("scan fallback executes");
    assert_eq!(out.plan.scan_fallbacks(), 1);
    let want = oracle.expected_query(table.schema(), &scan_query);
    assert_eq!(
        (out.results[0].first_row, out.results[0].hit_count),
        (want[0].first_row, want[0].hit_count)
    );

    // Forcing each composite index must agree with the planner's pick.
    let forced_query = TableQuery::new()
        .prefix_range(["region", "ts"], vec![5], 50, 450)
        .fetch_values(true);
    let planned = table.query(&forced_query).unwrap();
    for index in ["region_ts", "region_ts_sa"] {
        let forced = table.query_forced(&forced_query, index).unwrap();
        assert_eq!(forced.plan.routed_index(0), Some(index));
        assert_eq!(forced.results, planned.results, "forced {index}");
    }
    // Forcing the single-column hash index onto a multi-column predicate
    // is an error, not a silent fallback.
    assert!(table.query_forced(&forced_query, "id_ht").is_err());

    // CDC ingest: composite indexes rebuild each mutating batch and stay
    // oracle-exact through inserts and primary-key deletes.
    let batches = ingest_batches(&TableWorkloadConfig {
        key_domain: 512,
        ..TableWorkloadConfig::uniform(4, 6, 20, 11)
    });
    for (bi, batch) in batches.iter().enumerate() {
        table.ingest(batch).expect("batch applies");
        oracle.apply_batch(batch);
        assert_eq!(table.row_count(), oracle.row_count(), "batch {bi}");
        let probe = TableQuery::new()
            .prefix_tuple(["region"], vec![bi as u64 % 8])
            .prefix_range(["region", "ts"], vec![(bi as u64 + 3) % 8], 0, 256)
            .fetch_values(true);
        let got = table.query(&probe).expect("post-ingest query");
        let want = oracle.expected_query(table.schema(), &probe);
        for (pi, (g, w)) in got.results.iter().zip(&want).enumerate() {
            assert_eq!(
                (g.first_row, g.hit_count, g.value_sum),
                (w.first_row, w.hit_count, w.value_sum),
                "batch {bi} predicate {pi}"
            );
        }
    }
    assert!(table.stats().index_rebuilds > 0);
}

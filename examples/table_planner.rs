//! Tables & planning: a multi-index table with CDC ingest and a cost-based
//! planner.
//!
//! A three-column fact table (`id`, `ts`, `amount`) carries three named
//! indexes in the full registry grammar — a hash table on `id`, a sharded
//! raytracing index on `ts` and an updatable RXD on `id`. A stream of
//! transactional insert/delete/upsert batches keeps every index in sync
//! (all-or-nothing, with rollback on rejection; per batch it prints what was
//! rebuilt and how many rows the indexes hold in overlays), while
//! mixed point + range queries are routed predicate-by-predicate to the
//! cheapest eligible index.
//! `Table::explain` renders the planner's choices as an `ExplainPlan`, whose
//! routes must match the ones the query executed, and the answers are
//! compared against forcing the whole query through a single index.
//!
//! Run with: `cargo run --release --example table_planner`

use std::sync::Arc;

use rtindex::{registry, Device, IngestBatch, Table, TableQuery, TableSchema};
use rtx_workloads as wl;

fn main() {
    let device = Device::default_eval();
    let registry = Arc::new(registry());
    println!("registered backends: {}", registry.backends().join(", "));

    // The table: three u64 columns, `amount` is the fetchable value column.
    // Each index is a registry spec — builder selection and sharding are
    // available per column; a durable `+wal:` spec is refused.
    let schema = TableSchema::new(["id", "ts", "amount"])
        .with_value_column("amount")
        .with_index("id_ht", "id", "HT")
        .with_index("ts_rx", "ts", "RX:sah@2:range")
        .with_index("id_rxd", "id", "RXD");

    let rows = 1usize << 14;
    let records = wl::table_records(3, rows, rows as u64, 7);
    let mut table =
        Table::load(schema, &device, Arc::clone(&registry), &records).expect("table build");
    println!(
        "\ntable loaded: {} rows, indexes [{}], {:.2} MiB total",
        table.row_count(),
        table.index_names().join(", "),
        table.memory_bytes() as f64 / (1 << 20) as f64
    );

    // CDC ingest: each batch applies transactionally across the row store
    // and all three indexes. Each index keeps its base and takes the batch
    // into a row-store overlay, rebuilt only once it reaches 1/16 of the
    // base.
    let config = wl::TableWorkloadConfig::uniform(3, 16, 64, 11);
    let mut inserted = 0usize;
    let mut deleted = 0usize;
    println!("\nCDC ingest, 16 batches of 64 ops:");
    for (i, batch) in wl::ingest_batches(&config).iter().enumerate() {
        let report = table.ingest(batch).expect("ingest batch");
        inserted += report.inserted_rows as usize;
        deleted += report.deleted_rows as usize;
        println!(
            "  batch {i:>2}: +{} -{} rows, rebuilt {} index(es), {} rows in overlays",
            report.inserted_rows,
            report.deleted_rows,
            report.rebuilt_indexes,
            table.stats().overlay_rows
        );
        // 1/16 of 2^14 rows is 1,024 overlay rows: the first half of the
        // stream stays far below it, so a steady-state batch rebuilds
        // nothing.
        if i < 8 {
            assert_eq!(report.rebuilt_indexes, 0, "batch {i} rebuilt an index");
        }
    }
    println!(
        "ingested 16 CDC batches: +{inserted} rows, -{deleted} rows, {} rows live, \
         {} index rebuilds",
        table.row_count(),
        table.stats().index_rebuilds
    );

    // A poisoned batch: the mid-batch failure (a delete after an insert the
    // row store rejects) rolls the whole batch back.
    let poisoned = IngestBatch::new()
        .upsert(vec![3, 3, 3])
        .insert(vec![9, 9]) // wrong arity -> rejected
        .delete(5);
    let before = table.row_count();
    assert!(table.ingest(&poisoned).is_err());
    assert_eq!(table.row_count(), before);
    println!("poisoned batch rejected, table rolled back to {before} rows");

    // One mixed query: the planner peels the point predicates off to the
    // hash table and sends the range to the raytracing index.
    let query = TableQuery::new()
        .point("id", 42)
        .range("ts", 0, 4096)
        .prefix("id", 1, 6)
        .fetch_values(true);
    let out = table.query(&query).expect("planned query");
    let explained = table.explain(&query).expect("explained query");
    for i in 0..query.len() {
        assert_eq!(
            explained.routed_index(i),
            out.plan.routed_index(i),
            "predicate {i}"
        );
    }
    println!("\n{explained}");
    println!(
        "{} predicates answered: {} hits, simulated {:.3} ms",
        query.len(),
        out.hit_count(),
        out.sim_ms()
    );

    // Force the same query through each range-capable index and compare.
    println!("\nforced-index comparison:");
    for name in ["ts_rx", "id_rxd"] {
        // `ts_rx` cannot serve the `id` predicates and vice versa, so force
        // only the predicates each index is eligible for.
        let forced_query = if name == "ts_rx" {
            TableQuery::new().range("ts", 0, 4096).fetch_values(true)
        } else {
            TableQuery::new().point("id", 42).prefix("id", 1, 6)
        };
        let forced = table.query_forced(&forced_query, name).expect("forced");
        let planned = table.query(&forced_query).expect("planned");
        println!(
            "  {name:>6}: forced {:.3} ms vs planner {:.3} ms ({})",
            forced.sim_ms(),
            planned.sim_ms(),
            planned
                .plan
                .routed_index(0)
                .map(|ix| format!("planner picked {ix}"))
                .unwrap_or_else(|| "planner chose a scan".into())
        );
        assert_eq!(forced.hit_count(), planned.hit_count());
    }
    println!("\nplanner answers match every forced execution: OK");
}

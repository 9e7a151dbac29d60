//! Composite keys: typed multi-column schemas, order-preserving encoding and
//! prefix-range queries on every backend — the `{...}` brace clause of the
//! registry grammar end to end.
//!
//! Run with: `cargo run --release --example composite_keys`

use std::sync::Arc;

use rtindex::{
    registry, Device, IndexSpec, KeySchema, KeyValue, Table, TableQuery, TableSchema, TypedBatch,
};
use KeyValue::{Str, I64, U64};

fn main() {
    let device = Device::default_eval();
    let registry = Arc::new(registry());

    // ------------------------------------------------------------------
    // 1. A direct schema: (region u32, day u32) fits one u64 limb, so the
    //    encoded tuple IS the backend key — every backend serves it.
    // ------------------------------------------------------------------
    let schema = KeySchema::parse("{u32,u32}").unwrap();
    let orders: Vec<Vec<KeyValue>> = (0..5_000u64)
        .map(|i| vec![U64(i % 8), U64(i % 365)])
        .collect();
    let revenue: Vec<u64> = (0..5_000u64).map(|i| i % 97 + 1).collect();

    // One typed batch: full-tuple equality, a whole-prefix scan, and a
    // prefix range (region fixed, day within bounds).
    let batch = TypedBatch::new()
        .point(vec![U64(3), U64(120)])
        .prefix(vec![U64(3)])
        .prefix_range(vec![U64(3)], U64(100)..U64(200))
        .fetch_values(true);

    println!(
        "== direct schema {{u32,u32}} over {} orders ==",
        orders.len()
    );
    for backend in ["RX", "SA", "B+", "HT", "RXD"] {
        let name = format!("{backend}{{u32,u32}}");
        let spec = IndexSpec::typed_with_values(&device, schema.clone(), &orders, &revenue);
        let index = match registry.build(&name, &spec) {
            Ok(index) => index,
            Err(err) => {
                println!("{name}: rejected ({err})");
                continue;
            }
        };
        match index.execute_typed(&batch) {
            Ok(out) => {
                let hits: Vec<String> = out
                    .results
                    .iter()
                    .map(|r| format!("{} rows (sum {})", r.hit_count, r.value_sum))
                    .collect();
                println!(
                    "{name}: point {}, prefix {}, prefix-range {}",
                    hits[0], hits[1], hits[2]
                );
            }
            // The hash table answers typed points but fences everything that
            // compiles to a range — same honesty as the raw API.
            Err(err) => println!("{name}: fenced ({err})"),
        }
    }

    // ------------------------------------------------------------------
    // 2. A wide schema: (tenant u32, balance i64, name str16) needs 32
    //    encoded bytes, so it runs through the order-preserving key
    //    dictionary — and still takes typed updates on RXD.
    // ------------------------------------------------------------------
    let wide = KeySchema::parse("{u32,i64,str16}").unwrap();
    let accounts: Vec<Vec<KeyValue>> = (0..1_000i64)
        .map(|i| {
            vec![
                U64((i % 5) as u64),
                I64(i * 13 - 6_000),
                Str(format!("acct-{i:04}")),
            ]
        })
        .collect();
    let balances: Vec<u64> = (0..1_000u64).map(|i| i + 1).collect();

    let mut index = registry
        .build_updatable(
            "RXD{u32,i64,str16}",
            &IndexSpec::typed_with_values(&device, wide, &accounts, &balances),
        )
        .unwrap();
    index
        .insert_rows(&[vec![U64(2), I64(-123), Str("acct-new".into())]], &[5_000])
        .unwrap();
    index
        .delete_rows(&[vec![U64(2), I64(-6_000 + 13 * 2), Str("acct-0002".into())]])
        .unwrap();

    let out = index
        .execute_typed(
            &TypedBatch::new()
                .point(vec![U64(2), I64(-123), Str("acct-new".into())])
                .prefix(vec![U64(2)])
                // Negative balances of tenant 2 only — the i64 sign-flip
                // keeps them ordered below zero.
                .prefix_range(vec![U64(2)], I64(i64::MIN)..I64(0))
                .fetch_values(true),
        )
        .unwrap();
    println!("\n== dictionary schema {{u32,i64,str16}} on RXD, after updates ==");
    println!(
        "inserted tuple: {} row(s), tenant-2 prefix: {} rows, tenant-2 negative balances: {} rows",
        out.results[0].hit_count, out.results[1].hit_count, out.results[2].hit_count,
    );

    // ------------------------------------------------------------------
    // 3. Tables: a composite index over a column tuple, routed by the
    //    planner whenever the leading columns of a predicate match.
    // ------------------------------------------------------------------
    let table_schema = TableSchema::new(["id", "region", "ts", "amount"])
        .with_value_column("amount")
        .with_index("id_ht", "id", "HT")
        .with_composite_index("region_ts", ["region", "ts"], "RX{u32,u32}");
    let rows: Vec<Vec<u64>> = (0..4_000u64)
        .map(|k| vec![k, k % 8, (k * 37) % 512, k % 100])
        .collect();
    let table = Table::load(table_schema, &device, registry, &rows).unwrap();

    let query = TableQuery::new()
        .point("id", 1_234)
        .prefix_tuple(["region", "ts"], vec![5, 185])
        .prefix_range(["region", "ts"], vec![5], 100, 300)
        .fetch_values(true);
    let out = table.query(&query).unwrap();
    // The EXPLAIN is rendered on request, from the same scoring that routed
    // the query.
    let explained = table.explain(&query).unwrap();
    println!("\n== table with composite index (region, ts) ==");
    for i in 0..query.len() {
        let routed = out.plan.routed_index(i);
        assert_eq!(explained.routed_index(i), routed, "predicate {i}");
        let route = routed.map_or("scan".into(), |index| format!("index {index}"));
        println!(
            "predicate {i}: routed to {route}, {} rows (sum {})",
            out.results[i].hit_count, out.results[i].value_sum,
        );
    }
    println!("\n{explained}");
}

//! Quickstart: build secondary indexes over a small table column through the
//! unified query API and answer one mixed batch of point and range lookups —
//! the running example of Figure 1 in the paper, on every backend at once.
//!
//! Run with: `cargo run --release --example quickstart`

use rtindex::{registry, Device, IndexSpec, QueryBatch, MISS};

fn main() {
    // The simulated GPU (an RTX 4090 by default).
    let device = Device::default_eval();

    // The exemplary table from Figure 1a: rowID -> (Article, Category), plus
    // a price column so lookups can fetch and aggregate values.
    let articles = ["Juice", "Bread", "Cookies", "Coffee", "Donuts", "Wine"];
    let category: Vec<u64> = vec![26, 25, 29, 23, 29, 27];
    let prices: Vec<u64> = vec![120, 90, 250, 410, 180, 700];

    // Every backend is built by name from one registry: the raytracing index
    // ("RX"), the three GPU baselines ("HT", "B+", "SA") and the updatable
    // delta-buffered index ("RXD").
    let registry = registry();
    println!("registered backends: {}", registry.backends().join(", "));

    // One mixed submission: Q1 from the paper (range [23, 25] -> Coffee and
    // Bread), two point lookups, one miss, all fetching the price column.
    let batch = QueryBatch::new()
        .range(23, 25)
        .point(29)
        .point(27)
        .point(24)
        .fetch_values(true);

    let spec = IndexSpec::with_values(&device, &category, &prices);
    for name in registry.backends() {
        let index = match registry.build(name, &spec) {
            Ok(index) => index,
            Err(err) => {
                println!("\n{name}: skipped ({err})");
                continue;
            }
        };
        if !index.capabilities().range_lookups {
            println!("\n{name}: no range support, skipping the mixed batch");
            continue;
        }
        let out = index.execute(&batch).expect("mixed batch");
        println!(
            "\n{name}: {} B of device memory, simulated batch time {:.4} ms",
            index.memory_bytes(),
            out.sim_ms()
        );
        for (op, result) in batch.iter().zip(&out.results) {
            if result.first_row == MISS {
                println!("  {op:?}: miss");
            } else {
                println!(
                    "  {op:?}: {} row(s), first {} ({}), price sum {}",
                    result.hit_count,
                    result.first_row,
                    articles[result.first_row as usize],
                    result.value_sum
                );
            }
        }
    }

    // The updatable backend additionally takes writes through the same API.
    let mut dynamic = registry
        .build_updatable("RXD", &spec)
        .expect("updatable build");
    dynamic.insert(&[25], &[130]).expect("insert Cake at 25");
    dynamic.delete(&[29]).expect("delete the 29s");
    let out = dynamic
        .execute(&QueryBatch::new().point(25).point(29).fetch_values(true))
        .expect("lookup after updates");
    println!(
        "\nRXD after insert(25)/delete(29): key 25 holds {} rows (price sum {}), key 29 {}",
        out.results[0].hit_count,
        out.results[0].value_sum,
        if out.results[1].is_hit() {
            "hit"
        } else {
            "miss"
        },
    );
}

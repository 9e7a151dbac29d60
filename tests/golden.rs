//! Byte-exact goldens of the paper's experiments.
//!
//! Every experiment in [`experiment_names`] prints a pure function of its
//! seed and the cost model; none prints a host wall-clock number. Each
//! runs at [`ExperimentScale::tiny`], and its rendered tables must equal
//! `crates/rtx-harness/golden/<name>.txt` byte for byte: that file is what
//! `rtx-harness <name> --scale tiny` prints under `RTX_WORKERS=8`. The worker width is pinned because
//! simulated build costs and the per-worker cache model depend on it.
//!
//! At tiny scale most rendered cells round to 0.01 ms, so a cost-model
//! change can leave every table unchanged. `golden/model.txt` therefore
//! holds exact numbers too, printed with `{:?}` so they round-trip: the
//! simulated time and counters of a point batch per backend and of a range
//! batch on RX and SA, the RXD insert and delete times, and the staged
//! LBVH build at 1 and 8 queues.
//!
//! On a mismatch the test names the file, its first differing line, and
//! the expected and actual versions of that line. It always writes what it
//! produced to `$CARGO_TARGET_TMPDIR/golden/` and prints that path. To
//! bless an intended change, copy those files over
//! `crates/rtx-harness/golden/`:
//!
//! ```text
//! cargo test -q --test golden
//! cp target/tmp/golden/* crates/rtx-harness/golden/
//! ```
//!
//! A change that blesses says in CHANGES.md which model number moved and
//! why.

use std::fmt::{Debug, Write as _};
use std::fs;
use std::path::{Path, PathBuf};

use rtx_harness::experiments::build_pipeline::run_build_scaling;
use rtx_harness::{experiment_names, registry, run_experiment, scaled_device, ExperimentScale};
use rtx_query::{IndexSpec, QueryBatch, QueryOutcome};
use rtx_workloads as wl;

/// The golden of the exact model numbers.
const MODEL: &str = "model.txt";

/// The golden directory, relative to the repository root.
const GOLDEN_DIR: &str = "crates/rtx-harness/golden";

fn golden_path(file: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(GOLDEN_DIR)
        .join(file)
}

/// Every golden file name: one per experiment, then `model.txt`.
fn golden_files() -> Vec<String> {
    experiment_names()
        .into_iter()
        .map(|name| format!("{name}.txt"))
        .chain([MODEL.to_string()])
        .collect()
}

/// What `rtx-harness <name>` prints: each table followed by a blank line.
fn render(name: &str, scale: &ExperimentScale) -> String {
    run_experiment(name, scale)
        .expect("listed experiment")
        .iter()
        .map(|table| format!("{}\n", table.render()))
        .collect()
}

/// Appends one `name = value` line, the value printed with `{:?}`.
fn push(out: &mut String, name: &str, value: &dyn Debug) {
    writeln!(out, "{name} = {value:?}").expect("writing to a String cannot fail");
}

fn push_launch(out: &mut String, name: &str, outcome: &QueryOutcome) {
    let metrics = &outcome.metrics;
    push(
        out,
        &format!("{name}.simulated_time_s"),
        &metrics.simulated_time_s,
    );
    push(out, &format!("{name}.kernel"), &metrics.kernel);
    push(out, &format!("{name}.traversal"), &metrics.traversal);
}

/// The exact model numbers at `scale`, over the default key column and
/// its value column: one `name = value` line each.
fn model_numbers(scale: &ExperimentScale) -> String {
    let device = scaled_device(scale);
    let n = scale.default_keys();
    let keys = wl::dense_shuffled(n, scale.seed);
    let values = wl::value_column(n, scale.seed + 1);
    let spec = IndexSpec::with_values(&device, &keys, &values);
    let registry = registry();
    let mut out = String::new();

    let points = wl::point_lookups(&keys, scale.default_lookups().min(n), scale.seed + 2);
    let points = QueryBatch::of_points(&points).fetch_values(true);
    for backend in ["RX", "HT", "B+", "SA", "RXD"] {
        let index = registry.build(backend, &spec).expect("backend builds");
        let outcome = index.execute(&points).expect("point batch");
        push_launch(&mut out, &format!("point.{backend}"), &outcome);
    }

    let ranges = wl::range_lookups(n as u64, (n / 32).max(1), 32, scale.seed + 3);
    let ranges = QueryBatch::of_ranges(&ranges).fetch_values(true);
    for backend in ["RX", "SA"] {
        let index = registry.build(backend, &spec).expect("backend builds");
        let outcome = index.execute(&ranges).expect("range batch");
        push_launch(&mut out, &format!("range.{backend}"), &outcome);
    }

    let mut index = registry.build_updatable("RXD", &spec).expect("RXD builds");
    let fresh: Vec<u64> = (0..n as u64 / 4).map(|k| k + 2 * n as u64).collect();
    let fresh_values: Vec<u64> = fresh.iter().map(|k| k * 3).collect();
    let insert = index.insert(&fresh, &fresh_values).expect("insert");
    let delete = index.delete(&fresh[..fresh.len() / 2]).expect("delete");
    push(
        &mut out,
        "update.RXD.insert.simulated_time_s",
        &insert.simulated_time_s,
    );
    push(
        &mut out,
        "update.RXD.delete.simulated_time_s",
        &delete.simulated_time_s,
    );

    let cells = run_build_scaling(&device, &keys);
    for queues in [1, 8] {
        let cell = cells
            .iter()
            .find(|c| c.builder == "lbvh" && c.workers == queues)
            .expect("the sweep covers the width");
        push(
            &mut out,
            &format!("build.lbvh.queues_{queues}.sim_s"),
            &cell.sim_s,
        );
    }
    out
}

/// `None` when the texts are equal, else their first differing line.
fn first_difference(expected: &str, actual: &str) -> Option<String> {
    if expected == actual {
        return None;
    }
    let show = |line: Option<&str>| line.map_or("<end of file>".to_string(), |l| format!("{l:?}"));
    let (mut want, mut got) = (expected.split('\n'), actual.split('\n'));
    let mut line = 1;
    loop {
        match (want.next(), got.next()) {
            (w, g) if w == g => line += 1,
            (w, g) => {
                return Some(format!(
                    "line {line}\n  expected: {}\n  actual:   {}",
                    show(w),
                    show(g)
                ))
            }
        }
    }
}

#[test]
fn every_listed_experiment_has_a_golden_and_nothing_else_does() {
    let expected = golden_files();
    let present: Vec<String> = fs::read_dir(golden_path(""))
        .expect("the golden directory exists")
        .map(|entry| {
            let name = entry.expect("directory entry").file_name();
            name.into_string().expect("UTF-8 file name")
        })
        .collect();
    let missing: Vec<&String> = expected.iter().filter(|f| !present.contains(f)).collect();
    let stray: Vec<&String> = present.iter().filter(|f| !expected.contains(f)).collect();
    assert!(
        missing.is_empty() && stray.is_empty(),
        "{GOLDEN_DIR}: missing {missing:?}, not a golden {stray:?}"
    );
}

#[test]
fn experiments_and_model_numbers_match_their_goldens() {
    // Before the first launch starts the worker pool.
    std::env::set_var("RTX_WORKERS", "8");
    let scale = ExperimentScale::tiny();
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden");
    let _ = fs::remove_dir_all(&out_dir);
    fs::create_dir_all(&out_dir).expect("create the output directory");

    let mut mismatches = Vec::new();
    for file in golden_files() {
        let actual = match file.as_str() {
            MODEL => model_numbers(&scale),
            _ => render(file.trim_end_matches(".txt"), &scale),
        };
        fs::write(out_dir.join(&file), &actual).expect("write the actual output");
        let diff = match fs::read_to_string(golden_path(&file)) {
            Ok(expected) => first_difference(&expected, &actual),
            Err(err) => Some(format!("unreadable: {err}")),
        };
        if let Some(diff) = diff {
            mismatches.push(format!("{GOLDEN_DIR}/{file}: {diff}"));
        }
    }
    println!("actual outputs: {}", out_dir.display());
    assert!(
        mismatches.is_empty(),
        "{} golden(s) differ; the actual outputs are in {}, copy them over {GOLDEN_DIR}/ to bless \
         (see tests/golden.rs)\n{}",
        mismatches.len(),
        out_dir.display(),
        mismatches.join("\n")
    );
}

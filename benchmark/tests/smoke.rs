//! Every workload and its trace at `--smoke` size, and the agreement of
//! `BENCHMARK.json` with what the package emits.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

use rtindex_benchmark::catalog::{self, END_TO_END, PER_LAYER, WORKLOADS};
use rtindex_benchmark::json::Json;
use rtindex_benchmark::report::{selected, Config};
use rtindex_benchmark::workloads::{self, bulk_probe, mixed_durable, serve_read, table_serve};
use rtindex_benchmark::{cli, sut, trace};

fn smoke_config(workload: &str, seed: u64) -> Config {
    Config {
        workload: workload.to_string(),
        seed,
        seconds: 0.4,
        trace: false,
        smoke: true,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")),
        out: None,
    }
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// One test for all four workloads: they share the host's two cores and the
/// process-wide worker-pool setting, so they run one after the other.
#[test]
fn every_workload_and_its_trace_run_clean_at_smoke_size() {
    sut::pin_workers(workloads::PINNED_WORKERS);
    for workload in WORKLOADS {
        let config = smoke_config(workload, 1);
        let measured = trace::run(&config).unwrap_or_else(|e| panic!("{workload}: {e}"));
        assert_eq!(measured.failed, 0, "{workload}: failed operations");
        assert!(measured.attempted > 0, "{workload}");
        assert_eq!(measured.input_digest.len(), 16, "{workload}");
        assert!(!measured.phases.is_empty(), "{workload}");

        // Every end-to-end metric, never zero, percentiles with their counts.
        let end_to_end = selected(&config, &measured).expect("end-to-end metrics");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (def, summary) in &end_to_end {
            assert!(
                summary.value.is_finite() && summary.value > 0.0,
                "{workload}: {} = {}",
                def.name,
                summary.value
            );
            assert!(
                summary.samples > 0,
                "{workload}: {} has no samples",
                def.name
            );
        }

        // Every per-layer metric, finite; the ones a layer did not earn are 0.
        let traced = Config {
            trace: true,
            ..config.clone()
        };
        let per_layer = selected(&traced, &measured).expect("per-layer metrics");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (def, summary) in &per_layer {
            assert!(summary.value.is_finite(), "{workload}: {}", def.name);
        }
        let value = |name: &str| measured.value(name);
        assert_eq!(value("bench.failed_share"), 0.0, "{workload}");
        assert!(value("bench.span_cost_ns") > 0.0, "{workload}");
        // Each workload's rationale: layers it bypasses stay silent.
        let table_only = value("rtx-table.query_us") > 0.0;
        assert_eq!(table_only, workload == "table_serve", "{workload}");
        let stalled = value("rtx-serve.write_stall_us_max") > 0.0;
        assert_eq!(stalled, workload == "mixed_durable", "{workload}");
        let served = value("rtx-serve.peak_queued_ops") > 0.0;
        assert_eq!(served, workload != "bulk_probe", "{workload}");

        // The span file: written, parseable, spans of the expected layers.
        let path = config.work_dir.join(format!("trace_{workload}.json"));
        let text = std::fs::read_to_string(&path).expect("trace file");
        let document = Json::parse(&text).expect("trace file is JSON");
        let spans = document.get("spans").and_then(Json::as_arr).expect("spans");
        let names: BTreeSet<&str> = spans
            .iter()
            .filter_map(|s| s.get("name").and_then(Json::as_str))
            .collect();
        assert!(!names.is_empty(), "{workload}: no spans");
        let above_the_probe = names.iter().any(|n| {
            [
                "rtx-serve.",
                "rtx-shard.",
                "rtx-delta.",
                "rtx-durable.",
                "rtx-table.",
            ]
            .iter()
            .any(|layer| n.starts_with(layer))
        });
        assert_eq!(
            above_the_probe,
            workload != "bulk_probe",
            "{workload}: {names:?}"
        );
        assert!(document.get("header").is_some());
    }
}

#[test]
fn input_digests_are_pinned_and_follow_the_seed() {
    let digests = |seed: u64| {
        [
            bulk_probe::Input::generate(&smoke_config("bulk_probe", seed))
                .digest
                .hex(),
            serve_read::Input::generate(&smoke_config("serve_read", seed))
                .digest
                .hex(),
            mixed_durable::Input::generate(&smoke_config("mixed_durable", seed))
                .digest
                .hex(),
            table_serve::Input::generate(&smoke_config("table_serve", seed))
                .digest
                .hex(),
        ]
    };
    // A change here means two commits no longer run the same input: the
    // baseline has to be measured again.
    assert_eq!(
        digests(1),
        [
            "45060fc11b8516fe",
            "ee63ea9364cc476d",
            "5285ec04fa2f256e",
            "28aceef8b4b7dce5",
        ]
    );
    let other = digests(2);
    for (a, b) in digests(1).iter().zip(&other) {
        assert_ne!(a, b);
    }
}

#[test]
fn benchmark_json_and_the_package_name_the_same_things() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    let spec = Json::parse(&text).expect("BENCHMARK.json is JSON");
    let keys: Vec<&str> = spec
        .as_obj()
        .expect("an object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );

    let strings = |key: &str| -> Vec<String> {
        spec.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{key} is a list"))
            .iter()
            .map(|v| v.as_str().expect("a string").to_string())
            .collect()
    };
    assert_eq!(strings("command"), ["bash", "benchmark/run.sh"]);
    assert_eq!(strings("paths"), ["benchmark"]);
    assert_eq!(
        spec.get("run_seconds").and_then(Json::as_f64),
        Some(cli::DEFAULT_SECONDS)
    );

    let entries = |key: &str| -> Vec<&Json> {
        spec.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{key} is a list"))
            .iter()
            .collect()
    };
    let text_of = |entry: &Json, key: &str| -> String {
        entry
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{key} is a string"))
            .to_string()
    };

    let workloads: Vec<String> = entries("workloads")
        .iter()
        .map(|w| {
            assert_eq!(w.as_obj().unwrap().len(), 2, "workloads carry name and why");
            let why = text_of(w, "why");
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
            text_of(w, "name")
        })
        .collect();
    assert_eq!(workloads, WORKLOADS);

    let end_to_end = entries("end_to_end");
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (entry, def) in end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(entry.as_obj().unwrap().len(), 4, "{}", def.name);
        assert_eq!(text_of(entry, "name"), def.name);
        assert_eq!(text_of(entry, "unit"), def.unit, "{}", def.name);
        assert_eq!(text_of(entry, "better"), def.better.name(), "{}", def.name);
        let bound = entry.get("bound").and_then(Json::as_f64).expect("a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", def.name);
        assert!(well_formed(def.name));
    }
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == catalog::Better::Lower));

    let per_layer = entries("per_layer");
    assert_eq!(per_layer.len(), PER_LAYER.len());
    assert!(per_layer.len() <= 128);
    for (entry, def) in per_layer.iter().zip(&PER_LAYER) {
        assert_eq!(entry.as_obj().unwrap().len(), 3, "{}", def.name);
        assert_eq!(text_of(entry, "name"), def.name);
        assert_eq!(text_of(entry, "unit"), def.unit, "{}", def.name);
        assert_eq!(text_of(entry, "better"), def.better.name(), "{}", def.name);
        assert!(well_formed(def.name));
    }
}

#[test]
fn the_runner_refuses_a_debug_build() {
    let output = Command::new(env!("CARGO_BIN_EXE_bench-run"))
        .args(["--workload", "bulk_probe", "--smoke", "--seconds", "0.1"])
        .arg("--work-dir")
        .arg(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("bench-run starts");
    if cfg!(debug_assertions) {
        assert_eq!(output.status.code(), Some(2));
        assert!(String::from_utf8_lossy(&output.stderr).contains("debug build"));
        assert!(output.stdout.is_empty(), "no result from a refused run");
    } else {
        // Under `cargo test --release` the same binary measures.
        assert!(output.status.success());
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().expect("a result line");
        let result = Json::parse(last).expect("the last line is JSON");
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    }
}

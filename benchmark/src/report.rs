//! What a run produces and how it is printed and stored.
//!
//! A run prints a header (enough to tell two result files apart without
//! rerunning), every metric by name with its unit, and — as the last line
//! of standard output — the one-object JSON result the driver reads. With
//! `--out FILE` the same content is appended to FILE as one JSON line,
//! the form `bench-compare` reads.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::Command;

use crate::catalog::{self, MetricDef};
use crate::json::Json;
use crate::stats::Summary;

/// How a run was asked to run.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    /// Budget of the timed sections, all phases together.
    pub seconds: f64,
    pub trace: bool,
    /// Test-sized inputs: seconds of work become fractions of a second.
    pub smoke: bool,
    /// Where WAL directories and the trace file go (inside the checkout).
    pub work_dir: PathBuf,
    /// Append the result record here.
    pub out: Option<PathBuf>,
}

/// One timed phase of a workload, for the header.
#[derive(Debug, Clone)]
pub struct PhaseNote {
    pub name: &'static str,
    pub wall_s: f64,
    /// p99 of how late an open-loop generator sent, if the phase had one.
    pub generator_lag_us_p99: Option<f64>,
    pub requests: u64,
}

/// Everything a workload measured.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    pub metrics: BTreeMap<&'static str, Summary>,
    pub attempted: u64,
    pub failed: u64,
    pub input_digest: String,
    pub phases: Vec<PhaseNote>,
    /// Free-form facts for the header (WAL directory, frozen rates, ...).
    pub notes: BTreeMap<&'static str, String>,
}

impl Measured {
    pub fn set(&mut self, name: &'static str, summary: Summary) {
        debug_assert!(catalog::metric_def(name).is_some(), "unknown metric {name}");
        self.metrics.insert(name, summary);
    }

    pub fn set_value(&mut self, name: &'static str, value: f64) {
        self.set(name, Summary::single(value));
    }

    pub fn value(&self, name: &str) -> f64 {
        self.metrics.get(name).map_or(0.0, |s| s.value)
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Bytes this process has asked the kernel to write so far (`wchar`).
pub fn bytes_written() -> u64 {
    std::fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|io| {
            io.lines()
                .find_map(|line| line.strip_prefix("wchar:"))
                .and_then(|rest| rest.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// The run header: which code, which toolchain, which host, which input.
pub fn header(config: &Config, measured: &Measured, workers: usize) -> Json {
    let phases = measured
        .phases
        .iter()
        .map(|p| {
            Json::obj([
                ("name", Json::str(p.name)),
                ("wall_s", Json::Num(p.wall_s)),
                ("requests", Json::Num(p.requests as f64)),
                (
                    "generator_lag_us_p99",
                    p.generator_lag_us_p99.map_or(Json::Null, Json::Num),
                ),
            ])
        })
        .collect();
    let notes = measured
        .notes
        .iter()
        .map(|(k, v)| (*k, Json::str(v.as_str())));
    Json::obj([
        ("workload", Json::str(config.workload.as_str())),
        ("seed", Json::Num(config.seed as f64)),
        ("seconds", Json::Num(config.seconds)),
        ("trace", Json::Bool(config.trace)),
        ("smoke", Json::Bool(config.smoke)),
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("rtx_workers", Json::Num(workers as f64)),
        ("input_digest", Json::str(measured.input_digest.as_str())),
        ("phases", Json::Arr(phases)),
        ("notes", Json::obj(notes)),
    ])
}

fn metric_json(def: &MetricDef, summary: &Summary) -> Json {
    Json::obj([
        ("value", Json::Num(summary.value)),
        ("unit", Json::str(def.unit)),
    ])
}

/// The metrics a run of this kind must print: end-to-end without the trace,
/// per-layer with it. A metric the run did not produce is an error for an
/// end-to-end metric and 0 (the layer did no work) for a per-layer one.
pub fn selected(config: &Config, measured: &Measured) -> Result<Vec<(MetricDef, Summary)>, String> {
    if config.trace {
        Ok(catalog::PER_LAYER
            .iter()
            .map(|def| {
                let summary = measured
                    .metrics
                    .get(def.name)
                    .copied()
                    .unwrap_or(Summary::of(0.0, 0));
                (*def, summary)
            })
            .collect())
    } else {
        catalog::END_TO_END
            .iter()
            .map(|def| {
                measured
                    .metrics
                    .get(def.name)
                    .copied()
                    .map(|summary| (*def, summary))
                    .ok_or_else(|| format!("workload did not report {}", def.name))
            })
            .collect()
    }
}

/// The one-object result line of the contract.
pub fn result_line(measured: &Measured, metrics: &[(MetricDef, Summary)]) -> Json {
    Json::obj([
        ("correct", Json::Bool(measured.failed == 0)),
        ("attempted", Json::Num(measured.attempted as f64)),
        ("failed", Json::Num(measured.failed as f64)),
        (
            "metrics",
            Json::obj(
                metrics
                    .iter()
                    .map(|(def, s)| (def.name, metric_json(def, s))),
            ),
        ),
    ])
}

/// The record appended to `--out`: header plus every metric with its label,
/// direction, sample count and window spread.
pub fn record(header: Json, measured: &Measured, metrics: &[(MetricDef, Summary)]) -> Json {
    let metrics = metrics.iter().map(|(def, s)| {
        (
            def.name,
            Json::obj([
                ("value", Json::Num(s.value)),
                ("unit", Json::str(def.unit)),
                ("better", Json::str(def.better.name())),
                ("label", Json::str(def.label.name())),
                ("exact", Json::Bool(def.exact)),
                ("samples", Json::Num(s.samples as f64)),
                ("window_spread", Json::Num(s.spread)),
            ]),
        )
    });
    Json::obj([
        ("header", header),
        ("attempted", Json::Num(measured.attempted as f64)),
        ("failed", Json::Num(measured.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

/// Prints the run and stores it; returns the process exit code.
pub fn emit(config: &Config, measured: &Measured, workers: usize) -> i32 {
    let metrics = match selected(config, measured) {
        Ok(metrics) => metrics,
        Err(message) => {
            eprintln!("bench: {message}");
            return 1;
        }
    };
    let header = header(config, measured, workers);
    println!("# {}", header.render());
    for (def, s) in &metrics {
        println!(
            "{:<44} {:>16.6e} {:<9} {:<5} n={:<8} window_spread={:.4}",
            def.name,
            s.value,
            def.unit,
            def.label.name(),
            s.samples,
            s.spread
        );
    }
    if let Some(path) = &config.out {
        let line = record(header, measured, &metrics).render();
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut file| writeln!(file, "{line}"));
        if let Err(err) = appended {
            eprintln!("bench: cannot append to {}: {err}", path.display());
            return 1;
        }
    }
    println!("{}", result_line(measured, &metrics).render());
    if measured.failed == 0 {
        0
    } else {
        eprintln!(
            "bench: {} of {} operations failed their check",
            measured.failed, measured.attempted
        );
        1
    }
}

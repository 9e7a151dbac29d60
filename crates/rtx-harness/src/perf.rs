//! The CI perf gate: quick benchmark metrics, their JSON round-trip and
//! the baseline comparison.
//!
//! CI runs [`quick_suite`] (via the `perf-smoke` binary) on a small preset,
//! uploads the resulting JSON as the `BENCH_ci.json` artifact, and fails
//! the build when a **gated** metric regresses more than the allowed
//! fraction against the checked-in `bench/baseline.json` (via the
//! `bench-compare` binary).
//!
//! Two classes of metric keep the gate meaningful on heterogeneous CI
//! hosts:
//!
//! * **gated** metrics are deterministic (simulated device throughput — a
//!   pure function of the workload and the cost model), relative (the
//!   coalescing speedup, a ratio of two host timings on the *same*
//!   machine), or absolute host throughputs whose baseline is committed
//!   far enough below the measured value that only a structural
//!   regression (not runner jitter) can trip them. These must not
//!   regress.
//! * **ungated** metrics are recorded for the trajectory but never fail
//!   the build.
//!
//! Re-baselining: run
//! `cargo run --release -p rtx-harness --bin perf-smoke -- --scale tiny --out bench/baseline.json`
//! and commit the result. Checked-in values for *relative* gated metrics
//! should be rounded toward the conservative side — **down** for
//! higher-is-better ratios (the coalescing speedup), **up** for
//! lower-is-better ones (the compaction stall ratio) — so the gate
//! tolerates slower CI hosts while still catching real regressions.
//! Simulated build costs scale with the worker-pool width, so the
//! `perf-smoke` binary pins `RTX_WORKERS=8` when unset (CI pins the same
//! width); re-baseline under the same pin.
//!
//! The JSON schema is deliberately flat; writer and parser live here (the
//! workspace builds offline — no serde):
//!
//! ```json
//! {
//!   "schema": 1,
//!   "scale": "tiny",
//!   "metrics": [
//!     {"experiment": "point_lookup", "metric": "RX simulated throughput",
//!      "unit": "ops/s", "value": 1.0e7, "higher_is_better": true, "gated": true}
//!   ]
//! }
//! ```

use rtx_query::{IndexSpec, QueryBatch};
use rtx_workloads as wl;

use crate::experiments::build_pipeline::{self, CompactionMode};
use crate::experiments::service_throughput;
use crate::indexes::{measure_points, registry};
use crate::scale::ExperimentScale;

/// Schema version stamped into every report.
pub const SCHEMA_VERSION: u64 = 1;

/// One benchmark metric of the perf-smoke suite.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchMetric {
    /// Experiment the metric comes from (e.g. `"service_throughput"`).
    pub experiment: String,
    /// Metric name, unique within the experiment.
    pub metric: String,
    /// Unit the value is expressed in (`"ops/s"`, `"x"`, …).
    pub unit: String,
    /// The measured value.
    pub value: f64,
    /// Direction of improvement.
    pub higher_is_better: bool,
    /// Whether the CI gate fails on a regression of this metric.
    pub gated: bool,
}

impl BenchMetric {
    /// The `experiment/metric` key used to match baseline and current.
    pub fn key(&self) -> String {
        format!("{}/{}", self.experiment, self.metric)
    }
}

/// A full perf-smoke report: the scale it ran at plus its metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Scale name the suite ran at (`"tiny"`, `"small"`, …).
    pub scale: String,
    /// The measured metrics.
    pub metrics: Vec<BenchMetric>,
}

// --- JSON writing ---------------------------------------------------------

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl BenchReport {
    /// Renders the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": {SCHEMA_VERSION},\n"));
        out.push_str(&format!("  \"scale\": \"{}\",\n", escape_json(&self.scale)));
        out.push_str("  \"metrics\": [\n");
        for (i, m) in self.metrics.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"experiment\": \"{}\", \"metric\": \"{}\", \"unit\": \"{}\", \
                 \"value\": {:e}, \"higher_is_better\": {}, \"gated\": {}}}{}\n",
                escape_json(&m.experiment),
                escape_json(&m.metric),
                escape_json(&m.unit),
                m.value,
                m.higher_is_better,
                m.gated,
                if i + 1 < self.metrics.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a report written by [`BenchReport::to_json`] (or any JSON
    /// document with the same shape).
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let value = JsonValue::parse(text)?;
        let object = value.as_object().ok_or("top level must be an object")?;
        let schema = get(object, "schema")?
            .as_number()
            .ok_or("\"schema\" must be a number")? as u64;
        if schema != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema version {schema} (expected {SCHEMA_VERSION})"
            ));
        }
        let scale = get(object, "scale")?
            .as_string()
            .ok_or("\"scale\" must be a string")?
            .to_string();
        let metrics = get(object, "metrics")?
            .as_array()
            .ok_or("\"metrics\" must be an array")?
            .iter()
            .map(|entry| {
                let m = entry.as_object().ok_or("metric entries must be objects")?;
                Ok(BenchMetric {
                    experiment: get(m, "experiment")?
                        .as_string()
                        .ok_or("\"experiment\" must be a string")?
                        .to_string(),
                    metric: get(m, "metric")?
                        .as_string()
                        .ok_or("\"metric\" must be a string")?
                        .to_string(),
                    unit: get(m, "unit")?
                        .as_string()
                        .ok_or("\"unit\" must be a string")?
                        .to_string(),
                    value: get(m, "value")?
                        .as_number()
                        .ok_or("\"value\" must be a number")?,
                    higher_is_better: get(m, "higher_is_better")?
                        .as_bool()
                        .ok_or("\"higher_is_better\" must be a bool")?,
                    gated: get(m, "gated")?
                        .as_bool()
                        .ok_or("\"gated\" must be a bool")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(BenchReport { scale, metrics })
    }
}

fn get<'a>(object: &'a [(String, JsonValue)], key: &str) -> Result<&'a JsonValue, String> {
    object
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing key {key:?}"))
}

// --- Minimal JSON parser --------------------------------------------------

/// A parsed JSON value — just enough JSON for the bench-report schema (and
/// any hand-edited baseline): objects, arrays, strings, f64 numbers, bools
/// and null.
#[derive(Debug, Clone, PartialEq)]
enum JsonValue {
    Object(Vec<(String, JsonValue)>),
    Array(Vec<JsonValue>),
    String(String),
    Number(f64),
    Bool(bool),
    Null,
}

impl JsonValue {
    fn parse(text: &str) -> Result<JsonValue, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_whitespace(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }

    fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(entries) => Some(entries),
            _ => None,
        }
    }

    fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    fn as_string(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    fn as_number(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

fn skip_whitespace(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected {:?} at byte {} (found {:?})",
            c as char,
            *pos,
            bytes.get(*pos).map(|&b| b as char)
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_whitespace(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(JsonValue::String(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'{')?;
    let mut entries = Vec::new();
    skip_whitespace(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(entries));
    }
    loop {
        skip_whitespace(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_whitespace(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        entries.push((key, value));
        skip_whitespace(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(entries));
            }
            other => return Err(format!("expected ',' or '}}' (found {other:?})")),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_whitespace(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_whitespace(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            other => return Err(format!("expected ',' or ']' (found {other:?})")),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let hi = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        let code = if (0xD800..=0xDBFF).contains(&hi) {
                            // High surrogate: valid JSON continues with an
                            // escaped low surrogate forming one code point.
                            if bytes.get(*pos + 1) != Some(&b'\\')
                                || bytes.get(*pos + 2) != Some(&b'u')
                            {
                                return Err("unpaired \\u surrogate".to_string());
                            }
                            let lo = parse_hex4(bytes, *pos + 3)?;
                            if !(0xDC00..=0xDFFF).contains(&lo) {
                                return Err("unpaired \\u surrogate".to_string());
                            }
                            *pos += 6;
                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                        } else {
                            hi
                        };
                        out.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                    }
                    other => return Err(format!("invalid escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 character (multi-byte sequences are
                // copied verbatim).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().expect("non-empty remainder");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

/// Parses the four hex digits of a `\u` escape starting at `start`.
fn parse_hex4(bytes: &[u8], start: usize) -> Result<u32, String> {
    let hex = bytes.get(start..start + 4).ok_or("truncated \\u escape")?;
    u32::from_str_radix(
        std::str::from_utf8(hex).map_err(|_| "invalid \\u escape")?,
        16,
    )
    .map_err(|_| "invalid \\u escape".to_string())
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(JsonValue::Number)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

// --- Baseline comparison --------------------------------------------------

/// Verdict of one metric's baseline comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the allowed regression (or an improvement).
    Pass,
    /// A gated metric regressed beyond the allowed fraction.
    Regressed,
    /// The baseline has this gated metric but the current run does not —
    /// a silently dropped measurement must fail, not pass by omission.
    MissingCurrent,
    /// The current run has a metric the baseline does not know; passes
    /// with a re-baseline hint.
    MissingBaseline,
    /// Recorded for the trajectory only; never fails the gate.
    Ungated,
}

/// One metric's baseline-vs-current comparison.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// The `experiment/metric` key.
    pub key: String,
    /// Baseline value, when present.
    pub baseline: Option<f64>,
    /// Current value, when present.
    pub current: Option<f64>,
    /// current/baseline when both are present.
    pub ratio: Option<f64>,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compares a current report against the checked-in baseline.
/// `max_regression` is the allowed fractional loss on gated metrics (0.30
/// = fail when more than 30% worse than baseline, in the metric's own
/// direction of improvement).
pub fn compare(
    baseline: &BenchReport,
    current: &BenchReport,
    max_regression: f64,
) -> Vec<Comparison> {
    let mut comparisons = Vec::new();
    for b in &baseline.metrics {
        let key = b.key();
        let cur = current.metrics.iter().find(|c| c.key() == key);
        let (verdict, ratio) = match cur {
            None => (
                if b.gated {
                    Verdict::MissingCurrent
                } else {
                    Verdict::Ungated
                },
                None,
            ),
            Some(c) => {
                let ratio = if b.value != 0.0 {
                    Some(c.value / b.value)
                } else {
                    None
                };
                let regressed = match (ratio, b.higher_is_better) {
                    (Some(r), true) => r < 1.0 - max_regression,
                    (Some(r), false) => r > 1.0 + max_regression,
                    (None, _) => false,
                };
                let verdict = if !b.gated {
                    Verdict::Ungated
                } else if regressed {
                    Verdict::Regressed
                } else {
                    Verdict::Pass
                };
                (verdict, ratio)
            }
        };
        comparisons.push(Comparison {
            key,
            baseline: Some(b.value),
            current: cur.map(|c| c.value),
            ratio,
            verdict,
        });
    }
    for c in &current.metrics {
        let key = c.key();
        if !baseline.metrics.iter().any(|b| b.key() == key) {
            comparisons.push(Comparison {
                key,
                baseline: None,
                current: Some(c.value),
                ratio: None,
                verdict: Verdict::MissingBaseline,
            });
        }
    }
    comparisons
}

/// The comparisons that fail the gate.
pub fn failures(comparisons: &[Comparison]) -> Vec<&Comparison> {
    comparisons
        .iter()
        .filter(|c| matches!(c.verdict, Verdict::Regressed | Verdict::MissingCurrent))
        .collect()
}

// --- The quick suite ------------------------------------------------------

fn metric(
    experiment: &str,
    name: impl Into<String>,
    unit: &str,
    value: f64,
    higher_is_better: bool,
    gated: bool,
) -> BenchMetric {
    BenchMetric {
        experiment: experiment.to_string(),
        metric: name.into(),
        unit: unit.to_string(),
        value,
        higher_is_better,
        gated,
    }
}

/// Runs the quick perf-smoke suite at the given scale and names it after
/// the scale. Gated metrics are deterministic (simulated throughput) or
/// relative (the coalescing speedup); absolute host timings are recorded
/// ungated.
pub fn quick_suite(scale: &ExperimentScale) -> BenchReport {
    let scale_name = match scale.keys_exp {
        12 => "tiny",
        18 => "small",
        20 => "medium",
        26 => "paper",
        _ => "custom",
    };
    let device = crate::scaled_device(scale);
    let n = scale.default_keys();
    let keys = wl::dense_shuffled(n, scale.seed);
    let values = wl::value_column(n, scale.seed + 1);
    let spec = IndexSpec::with_values(&device, &keys, &values);
    let registry = registry();
    let mut metrics = Vec::new();

    // Simulated lookup throughput per backend: a pure function of the
    // workload and the cost model, so it gates deterministically.
    let queries = wl::point_lookups(&keys, scale.default_lookups().min(n), scale.seed + 2);
    for backend in ["RX", "HT", "B+", "SA", "RXD"] {
        let index = registry.build(backend, &spec).expect("backend");
        let m = measure_points(index.as_ref(), &queries, true);
        metrics.push(metric(
            "point_lookup",
            format!("{backend} simulated throughput"),
            "ops/s",
            m.throughput(queries.len()),
            true,
            true,
        ));
    }
    // The probe-stage rows of the latency budget: where the RX launch
    // spends its host time, per lookup and summed over the workers, on a
    // batch large enough that every worker orders its rays. Host
    // wall-clock, so recorded for the trajectory only.
    {
        let index = registry.build("RX", &spec).expect("RX");
        let lookups = gpu_device::worker_count() * 4 * optix_sim::TINY_LAUNCH_RAYS;
        let batch = QueryBatch::of_points(&wl::point_lookups(&keys, lookups, scale.seed + 2))
            .fetch_values(true);
        let stages = index.execute(&batch).expect("points").metrics.host_stages;
        for (stage, time) in [
            ("ray generation", stages.ray_gen),
            ("ordering", stages.order),
            ("traversal", stages.traverse),
            ("finish", stages.finish),
        ] {
            metrics.push(metric(
                "point_lookup",
                format!("RX host {stage} time"),
                "ns/op",
                time.as_secs_f64() * 1e9 / lookups as f64,
                false,
                false,
            ));
        }
    }
    let ranges = wl::range_lookups(n as u64, (n / 32).max(1), 32, scale.seed + 3);
    for backend in ["RX", "SA"] {
        let index = registry.build(backend, &spec).expect("backend");
        let out = index
            .execute(&QueryBatch::of_ranges(&ranges).fetch_values(true))
            .expect("ranges");
        metrics.push(metric(
            "range_lookup",
            format!("{backend} simulated throughput"),
            "ops/s",
            if out.sim_ms() > 0.0 {
                ranges.len() as f64 / (out.sim_ms() / 1e3)
            } else {
                0.0
            },
            true,
            true,
        ));
    }

    // Simulated update throughput of the delta layer.
    {
        let mut index = registry.build_updatable("RXD", &spec).expect("RXD");
        let fresh: Vec<u64> = (0..n as u64 / 4).map(|k| k + 2 * n as u64).collect();
        let fresh_values: Vec<u64> = fresh.iter().map(|k| k * 3).collect();
        let insert = index.insert(&fresh, &fresh_values).expect("insert");
        let delete = index.delete(&fresh[..fresh.len() / 2]).expect("delete");
        let rows = (insert.inserted_rows + delete.deleted_rows) as f64;
        let sim_s = insert.simulated_time_s + delete.simulated_time_s;
        metrics.push(metric(
            "update_throughput",
            "RXD simulated update throughput",
            "rows/s",
            if sim_s > 0.0 { rows / sim_s } else { 0.0 },
            true,
            true,
        ));
    }

    // The coalescing gate: host-relative (both sides of the ratio run on
    // this machine), plus the absolute host throughputs — gated since the
    // allocation-free host path landed, with baselines committed far
    // enough below the measured steady state that runner jitter cannot
    // trip them. One cell only — the worst case for serial submission
    // (most clients, smallest batches) — not the whole sweep.
    let clients = *service_throughput::CLIENT_COUNTS
        .last()
        .expect("client sweep is non-empty");
    let cell = &service_throughput::run_one(scale, clients, service_throughput::BATCH_OPS[0]);
    metrics.push(metric(
        "service_throughput",
        format!(
            "coalescing speedup, {} clients x {}-op batches",
            cell.clients, cell.batch_ops
        ),
        "x",
        cell.speedup(),
        true,
        true,
    ));
    metrics.push(metric(
        "service_throughput",
        "coalesced host throughput",
        "ops/s",
        cell.service_throughput(),
        true,
        true,
    ));
    metrics.push(metric(
        "service_throughput",
        "serial host throughput",
        "ops/s",
        cell.serial_throughput(),
        true,
        true,
    ));
    metrics.push(metric(
        "service_throughput",
        "mean fused ops",
        "ops",
        cell.mean_fused_ops,
        true,
        false,
    ));

    // Open-loop tail latency: the default self-clocked service with
    // hot-shard rebalancing against one that lingers 200 us on every
    // drain, on identical Zipf schedules, median percentiles across
    // interleaved trials. The ratios are host-relative (both arms run on
    // this machine back to back); the p50 ratio gates, the p99 ratio (the
    // 4th-worst of 384 events, which flapped on a 2-core host with no code
    // cause) and the absolute wall-clock percentiles record ungated for the
    // trajectory.
    {
        let pair = crate::experiments::service_latency::run_pair(scale);
        metrics.push(metric(
            "service_latency",
            "p50 latency ratio, self-clocked vs 200 us linger",
            "x",
            pair.p50_ratio(),
            false,
            true,
        ));
        metrics.push(metric(
            "service_latency",
            "p99 latency ratio, self-clocked vs 200 us linger",
            "x",
            pair.p99_ratio(),
            false,
            false,
        ));
        metrics.push(metric(
            "service_latency",
            "self-clocked p50 latency",
            "ms",
            pair.self_clocked.p50_ms,
            false,
            false,
        ));
        metrics.push(metric(
            "service_latency",
            "self-clocked p99 latency",
            "ms",
            pair.self_clocked.p99_ms,
            false,
            false,
        ));
        metrics.push(metric(
            "service_latency",
            "200 us linger p99 latency",
            "ms",
            pair.linger200.p99_ms,
            false,
            false,
        ));
    }

    // Planner selection: the cost-based table planner against the worst
    // single-index choice on the same mixed workload. Recorded ungated
    // for the trajectory (the ratio is simulated-deterministic but young;
    // promote once the table layer's cost model settles).
    {
        let runs = crate::experiments::planner_selection::run_arms(scale);
        let (planner, worst) =
            crate::experiments::planner_selection::planner_vs_worst_forced(&runs);
        metrics.push(metric(
            "planner_selection",
            "planner-chosen simulated throughput",
            "ops/s",
            planner.sim_throughput(),
            true,
            false,
        ));
        metrics.push(metric(
            "planner_selection",
            "planner speedup vs worst forced index",
            "x",
            planner.sim_throughput() / worst.sim_throughput().max(1e-12),
            true,
            false,
        ));
    }

    // Staged-build gate: the pipeline's simulated throughput and its
    // 8-vs-1-queue speedup are pure cost-model functions of the workload
    // (the queue widths are explicit, not taken from the host), so they
    // gate deterministically on any machine.
    {
        let cells = build_pipeline::run_build_scaling(&device, &keys);
        let cell = |workers: usize| {
            cells
                .iter()
                .find(|c| c.builder == "lbvh" && c.workers == workers)
                .expect("lbvh sweep covers the width")
        };
        let (serial, wide) = (cell(1), cell(8));
        metrics.push(metric(
            "build_throughput",
            "staged LBVH simulated build throughput, 8 queues",
            "keys/s",
            wide.throughput(),
            true,
            true,
        ));
        metrics.push(metric(
            "build_throughput",
            "staged build speedup, 8 vs 1 queues",
            "x",
            serial.sim_s / wide.sim_s,
            true,
            true,
        ));
    }

    // Compaction-stall gate: host-relative (both modes timed on this
    // machine); always measured at 2^14 keys so the rebuild dwarfs timer
    // noise even when the suite runs at tiny scale.
    {
        let stall_scale = ExperimentScale {
            keys_exp: scale.keys_exp.max(14),
            ..*scale
        };
        let sync = build_pipeline::run_compaction_stall(&stall_scale, CompactionMode::Synchronous);
        let background =
            build_pipeline::run_compaction_stall(&stall_scale, CompactionMode::Background);
        metrics.push(metric(
            "build_throughput",
            "compaction stall ratio, background vs sync p99",
            "x",
            background.p99() / sync.p99().max(1e-12),
            false,
            true,
        ));
        metrics.push(metric(
            "build_throughput",
            "sync compaction p99 write stall",
            "ms",
            sync.p99() * 1e3,
            false,
            false,
        ));
        metrics.push(metric(
            "build_throughput",
            "background compaction p99 write stall",
            "ms",
            background.p99() * 1e3,
            false,
            false,
        ));
    }

    // WAL replay throughput: absolute host wall-clock over a durable
    // reopen, so it is recorded for the trajectory only (ungated; promote
    // once it proves stable across runners).
    {
        let runs = crate::experiments::recovery_throughput::run_sweep(scale);
        let (run, replayed_ops) = runs
            .iter()
            .rfind(|(r, _)| !r.checkpointed)
            .expect("sweep has uncheckpointed runs");
        metrics.push(metric(
            "recovery_throughput",
            "WAL replay host throughput, full log",
            "ops/s",
            run.replay_ops_per_s(*replayed_ops),
            true,
            false,
        ));
        metrics.push(metric(
            "recovery_throughput",
            "recovery host time, full log",
            "ms",
            run.recovery_s * 1e3,
            false,
            false,
        ));
    }

    // Composite-key overhead: the typed `{u64}` identity schema (the
    // composite layer's direct codec over the same RX build) against the
    // raw path, host wall-clock over the same point batch. The encoding
    // is the identity so the target ratio is 1.0. Both numbers are
    // measured and printed but neither gates: the ratio is host-relative,
    // tripped its floor with no code cause, and the repository
    // benchmark's `rtx-query.typed_x` already tracks the typed tax.
    {
        use rtx_query::{KeyValue, TypedBatch};
        let raw = registry.build("RX", &spec).expect("RX");
        let typed = registry.build("RX{u64}", &spec).expect("RX{u64}");
        let raw_batch = QueryBatch::of_points(&queries).fetch_values(true);
        let typed_batch = queries
            .iter()
            .fold(TypedBatch::new(), |b, &k| b.point([KeyValue::U64(k)]))
            .fetch_values(true);
        raw.execute(&raw_batch).expect("raw warmup");
        typed.execute_typed(&typed_batch).expect("typed warmup");
        let reps = 5;
        let start = std::time::Instant::now();
        for _ in 0..reps {
            raw.execute(&raw_batch).expect("raw points");
        }
        let raw_s = start.elapsed().as_secs_f64();
        let start = std::time::Instant::now();
        for _ in 0..reps {
            typed.execute_typed(&typed_batch).expect("typed points");
        }
        let typed_s = start.elapsed().as_secs_f64();
        let ops = (queries.len() * reps) as f64;
        let typed_tp = ops / typed_s.max(1e-12);
        let raw_tp = ops / raw_s.max(1e-12);
        metrics.push(metric(
            "composite_overhead",
            "typed {u64} host throughput",
            "ops/s",
            typed_tp,
            true,
            false,
        ));
        metrics.push(metric(
            "composite_overhead",
            "typed vs raw host throughput ratio",
            "x",
            typed_tp / raw_tp.max(1e-12),
            true,
            false,
        ));
    }

    BenchReport {
        scale: scale_name.to_string(),
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BenchReport {
        BenchReport {
            scale: "tiny".to_string(),
            metrics: vec![
                metric(
                    "point_lookup",
                    "RX simulated throughput",
                    "ops/s",
                    1.5e7,
                    true,
                    true,
                ),
                metric(
                    "service_throughput",
                    "coalescing speedup",
                    "x",
                    2.5,
                    true,
                    true,
                ),
                metric(
                    "service_throughput",
                    "host throughput",
                    "ops/s",
                    9e5,
                    true,
                    false,
                ),
            ],
        }
    }

    #[test]
    fn json_round_trips() {
        let report = sample_report();
        let json = report.to_json();
        let parsed = BenchReport::from_json(&json).expect("round trip");
        assert_eq!(parsed, report);
    }

    #[test]
    fn parser_handles_escapes_whitespace_and_rejects_junk() {
        let json = "{ \"schema\": 1, \"scale\": \"a\\\"b\\u0041\\n\",\n \"metrics\": [] }";
        let report = BenchReport::from_json(json).unwrap();
        assert_eq!(report.scale, "a\"bA\n");
        assert!(report.metrics.is_empty());

        // Surrogate pairs decode to one code point; unpaired halves fail.
        let json = "{\"schema\": 1, \"scale\": \"\\ud83d\\ude00\", \"metrics\": []}";
        assert_eq!(BenchReport::from_json(json).unwrap().scale, "😀");
        for unpaired in [
            "{\"schema\": 1, \"scale\": \"\\ud83d\", \"metrics\": []}",
            "{\"schema\": 1, \"scale\": \"\\ud83dx\", \"metrics\": []}",
            "{\"schema\": 1, \"scale\": \"\\ud83d\\u0041\", \"metrics\": []}",
            "{\"schema\": 1, \"scale\": \"\\ude00\", \"metrics\": []}",
        ] {
            assert!(BenchReport::from_json(unpaired).is_err(), "{unpaired:?}");
        }

        for junk in [
            "",
            "[]",
            "{\"schema\": 2, \"scale\": \"x\", \"metrics\": []}",
            "{\"schema\": 1, \"metrics\": []}",
            "{\"schema\": 1, \"scale\": \"x\", \"metrics\": [1]}",
            "{\"schema\": 1, \"scale\": \"x\", \"metrics\": []} trailing",
            "{\"schema\": 1, \"scale\": \"x\", \"metrics\": [{\"experiment\": \"e\"}]}",
        ] {
            assert!(BenchReport::from_json(junk).is_err(), "{junk:?}");
        }
    }

    #[test]
    fn comparison_verdicts_cover_the_gate_rules() {
        let baseline = sample_report();
        let mut current = sample_report();
        current.metrics[0].value = 1.2e7; // -20%: within a 30% gate
        current.metrics[1].value = 1.0; // -60%: regression
        current.metrics[2].value = 1e3; // ungated: cannot fail
        current
            .metrics
            .push(metric("new", "metric", "ops/s", 1.0, true, true));
        let comparisons = compare(&baseline, &current, 0.30);
        assert_eq!(comparisons.len(), 4);
        assert_eq!(comparisons[0].verdict, Verdict::Pass);
        assert_eq!(comparisons[1].verdict, Verdict::Regressed);
        assert_eq!(comparisons[2].verdict, Verdict::Ungated);
        assert_eq!(comparisons[3].verdict, Verdict::MissingBaseline);
        let failing = failures(&comparisons);
        assert_eq!(failing.len(), 1);
        assert_eq!(failing[0].key, "service_throughput/coalescing speedup");
        assert!((failing[0].ratio.unwrap() - 0.4).abs() < 1e-12);

        // A dropped gated metric fails; a dropped ungated one does not.
        let empty = BenchReport {
            scale: "tiny".into(),
            metrics: Vec::new(),
        };
        let comparisons = compare(&baseline, &empty, 0.30);
        assert_eq!(
            comparisons
                .iter()
                .filter(|c| c.verdict == Verdict::MissingCurrent)
                .count(),
            2
        );
        assert_eq!(failures(&comparisons).len(), 2);

        // Lower-is-better metrics regress upward.
        let mut base_lat = sample_report();
        base_lat.metrics = vec![metric("lat", "p99", "ms", 10.0, false, true)];
        let mut cur_lat = base_lat.clone();
        cur_lat.metrics[0].value = 14.0; // +40%
        let comparisons = compare(&base_lat, &cur_lat, 0.30);
        assert_eq!(comparisons[0].verdict, Verdict::Regressed);
        cur_lat.metrics[0].value = 12.0; // +20%
        let comparisons = compare(&base_lat, &cur_lat, 0.30);
        assert_eq!(comparisons[0].verdict, Verdict::Pass);
    }

    #[test]
    fn quick_suite_produces_gated_and_ungated_metrics() {
        let report = quick_suite(&ExperimentScale::tiny());
        assert_eq!(report.scale, "tiny");
        assert!(report.metrics.iter().any(|m| m.gated));
        assert!(report.metrics.iter().any(|m| !m.gated));
        assert!(
            report
                .metrics
                .iter()
                .all(|m| m.value.is_finite() && m.value > 0.0),
            "every metric must measure something: {:?}",
            report.metrics
        );
        // The suite must include the coalescing gate at the highest client
        // count of the sweep.
        assert!(report
            .metrics
            .iter()
            .any(|m| m.experiment == "service_throughput" && m.gated));
        // And it must round-trip through its own JSON.
        let json = report.to_json();
        assert_eq!(BenchReport::from_json(&json).unwrap(), report);
    }
}

//! `bench-compare A B`: two result files (JSON lines, as `--out` appends
//! them) held against the bounds of `BENCHMARK.json`, one row per workload
//! and metric.
//!
//! A side's value is the median of its runs. An end-to-end metric is
//! *regressed* when B is worse than A by more than the metric's bound;
//! otherwise *unresolved* — not unchanged — when the spread on either side
//! (interquartile range of the runs as a share of their median, or the
//! window spread inside the run when a side has a single run) exceeds the
//! bound, unless every run of B reads better than every run of A; otherwise
//! *ok*. An exact count or model number must be equal on both sides.
//! Everything else is printed for reading, with its ratio and base.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::stats::{iqr_share, median};

/// One metric of one workload on one side.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Side {
    pub runs: Vec<f64>,
    /// Largest window spread any of the runs reported.
    pub window_spread: f64,
}

impl Side {
    pub fn median(&self) -> f64 {
        median(&self.runs)
    }

    pub fn spread(&self) -> f64 {
        if self.runs.len() >= 2 {
            iqr_share(&self.runs)
        } else {
            self.window_spread
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct MetricInfo {
    pub unit: String,
    pub lower_is_better: bool,
    pub label: String,
    pub exact: bool,
}

/// `(workload, traced, metric) -> values`, plus what each metric is.
#[derive(Debug, Clone, Default)]
pub struct ResultSet {
    pub sides: BTreeMap<(String, bool, String), Side>,
    pub info: BTreeMap<String, MetricInfo>,
    /// Seeds per `(workload, traced)`, in file order.
    pub seeds: BTreeMap<(String, bool), Vec<u64>>,
    pub failed: u64,
}

impl ResultSet {
    /// Parses a result file: one JSON record per non-empty line.
    pub fn parse(text: &str) -> Result<ResultSet, String> {
        let mut set = ResultSet::default();
        for (number, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let record = Json::parse(line).map_err(|e| format!("line {}: {e}", number + 1))?;
            let field = |path: &[&str]| {
                path.iter()
                    .try_fold(&record, |at, key| at.get(key))
                    .ok_or_else(|| format!("line {}: no {}", number + 1, path.join(".")))
            };
            let workload = field(&["header", "workload"])?
                .as_str()
                .unwrap_or_default()
                .to_string();
            let traced = field(&["header", "trace"])? == &Json::Bool(true);
            let seed = field(&["header", "seed"])?.as_f64().unwrap_or(0.0) as u64;
            set.failed += field(&["failed"])?.as_f64().unwrap_or(0.0) as u64;
            set.seeds
                .entry((workload.clone(), traced))
                .or_default()
                .push(seed);
            let metrics = field(&["metrics"])?
                .as_obj()
                .ok_or_else(|| format!("line {}: metrics is not an object", number + 1))?;
            for (name, metric) in metrics {
                let text_of = |key: &str| {
                    metric
                        .get(key)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                let number_of = |key: &str| metric.get(key).and_then(Json::as_f64);
                let Some(value) = number_of("value") else {
                    continue;
                };
                let side = set
                    .sides
                    .entry((workload.clone(), traced, name.clone()))
                    .or_default();
                side.runs.push(value);
                side.window_spread = side
                    .window_spread
                    .max(number_of("window_spread").unwrap_or(0.0));
                set.info.entry(name.clone()).or_insert_with(|| MetricInfo {
                    unit: text_of("unit"),
                    lower_is_better: text_of("better") != "higher",
                    label: text_of("label"),
                    exact: metric.get("exact") == Some(&Json::Bool(true)),
                });
            }
        }
        if set.sides.is_empty() {
            return Err("no result records".to_string());
        }
        Ok(set)
    }
}

/// The regression bounds of `BENCHMARK.json`: `end_to_end` name -> bound.
pub fn bounds(spec: &Json) -> Result<BTreeMap<String, f64>, String> {
    spec.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|metric| {
            let name = metric.get("name").and_then(Json::as_str);
            let bound = metric.get("bound").and_then(Json::as_f64);
            name.zip(bound)
                .map(|(name, bound)| (name.to_string(), bound))
                .ok_or_else(|| "an end_to_end entry lacks name or bound".to_string())
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and the spread is small enough to say so.
    Ok,
    /// Every run of B is better than every run of A.
    Better,
    /// Within the bound, but the spread is wider than the bound.
    Unresolved,
    /// Worse than the bound allows.
    Regressed,
    /// An exact count or model number differs.
    Mismatch,
    /// An exact count or model number is equal.
    Equal,
    /// No bound applies: printed for reading.
    Info,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Mismatch => "MISMATCH",
            Verdict::Equal => "equal",
            Verdict::Info => "-",
        }
    }

    pub fn fails(self) -> bool {
        matches!(self, Verdict::Regressed | Verdict::Mismatch)
    }
}

#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub traced: bool,
    pub metric: String,
    pub unit: String,
    pub base: f64,
    pub base_runs: usize,
    pub new: f64,
    pub new_runs: usize,
    /// `new / base`; the base is printed beside it.
    pub ratio: f64,
    pub bound: Option<f64>,
    pub spread: f64,
    pub verdict: Verdict,
}

fn judge(a: &Side, b: &Side, info: &MetricInfo, bound: Option<f64>, same_seeds: bool) -> Verdict {
    let (base, new) = (a.median(), b.median());
    match bound {
        Some(bound) => {
            let worsening = if base == 0.0 {
                0.0
            } else if info.lower_is_better {
                (new - base) / base.abs()
            } else {
                (base - new) / base.abs()
            };
            let every_run_better = a.runs.iter().all(|&x| {
                b.runs
                    .iter()
                    .all(|&y| if info.lower_is_better { y < x } else { y > x })
            });
            if worsening > bound {
                Verdict::Regressed
            } else if every_run_better {
                Verdict::Better
            } else if a.spread().max(b.spread()) > bound {
                Verdict::Unresolved
            } else {
                Verdict::Ok
            }
        }
        None if info.exact && same_seeds => {
            if a.runs == b.runs {
                Verdict::Equal
            } else {
                Verdict::Mismatch
            }
        }
        None => Verdict::Info,
    }
}

/// One row per `(workload, traced, metric)` present on both sides.
pub fn compare(a: &ResultSet, b: &ResultSet, bounds: &BTreeMap<String, f64>) -> Vec<Row> {
    a.sides
        .iter()
        .filter_map(|(key, side_a)| {
            let side_b = b.sides.get(key)?;
            let (workload, traced, metric) = key;
            let info = a.info.get(metric)?;
            let bound = if *traced {
                None
            } else {
                bounds.get(metric).copied()
            };
            let group = (workload.clone(), *traced);
            let same_seeds = a.seeds.get(&group) == b.seeds.get(&group);
            let (base, new) = (side_a.median(), side_b.median());
            Some(Row {
                workload: workload.clone(),
                traced: *traced,
                metric: metric.clone(),
                unit: info.unit.clone(),
                base,
                base_runs: side_a.runs.len(),
                new,
                new_runs: side_b.runs.len(),
                ratio: if base == 0.0 { f64::NAN } else { new / base },
                bound,
                spread: side_a.spread().max(side_b.spread()),
                verdict: judge(side_a, side_b, info, bound, same_seeds),
            })
        })
        .collect()
}

/// Renders the rows as a table, end-to-end rows first within a workload.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<14} {:<42} {:>13} {:>4} {:>13} {:>4} {:>8} {:>6} {:>7}  {}\n",
        "workload",
        "metric",
        "base (A)",
        "n",
        "new (B)",
        "n",
        "new/base",
        "bound",
        "spread",
        "verdict"
    ));
    let mut sorted: Vec<&Row> = rows.iter().collect();
    sorted.sort_by(|x, y| {
        (&x.workload, x.traced, x.bound.is_none(), &x.metric).cmp(&(
            &y.workload,
            y.traced,
            y.bound.is_none(),
            &y.metric,
        ))
    });
    for row in sorted {
        out.push_str(&format!(
            "{:<14} {:<42} {:>13.6e} {:>4} {:>13.6e} {:>4} {:>8.4} {:>6} {:>7.4}  {} [{}]\n",
            row.workload,
            row.metric,
            row.base,
            row.base_runs,
            row.new,
            row.new_runs,
            row.ratio,
            row.bound.map_or("-".to_string(), |b| format!("{b:.2}")),
            row.spread,
            row.verdict.name(),
            row.unit,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, seed: u64, metrics: &[(&str, f64, &str, bool, f64)]) -> String {
        let metrics = metrics.iter().map(|(name, value, better, exact, spread)| {
            (
                *name,
                Json::obj([
                    ("value", Json::Num(*value)),
                    ("unit", Json::str("u")),
                    ("better", Json::str(*better)),
                    ("label", Json::str("host")),
                    ("exact", Json::Bool(*exact)),
                    ("window_spread", Json::Num(*spread)),
                ]),
            )
        });
        Json::obj([
            (
                "header",
                Json::obj([
                    ("workload", Json::str(workload)),
                    ("trace", Json::Bool(false)),
                    ("seed", Json::Num(seed as f64)),
                ]),
            ),
            ("failed", Json::Num(0.0)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }

    fn verdict_of(a: &str, b: &str, metric: &str) -> Verdict {
        let bounds = BTreeMap::from([("lat".to_string(), 0.10), ("rate".to_string(), 0.10)]);
        let rows = compare(
            &ResultSet::parse(a).unwrap(),
            &ResultSet::parse(b).unwrap(),
            &bounds,
        );
        rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn bounds_apply_in_the_metric_direction() {
        let a = record(
            "w",
            1,
            &[
                ("lat", 1.0, "lower", false, 0.01),
                ("rate", 100.0, "higher", false, 0.01),
            ],
        );
        let worse = record(
            "w",
            1,
            &[
                ("lat", 1.2, "lower", false, 0.01),
                ("rate", 80.0, "higher", false, 0.01),
            ],
        );
        let same = record(
            "w",
            1,
            &[
                ("lat", 1.05, "lower", false, 0.01),
                ("rate", 95.0, "higher", false, 0.01),
            ],
        );
        assert_eq!(verdict_of(&a, &worse, "lat"), Verdict::Regressed);
        assert_eq!(verdict_of(&a, &worse, "rate"), Verdict::Regressed);
        assert_eq!(verdict_of(&a, &same, "lat"), Verdict::Ok);
        assert_eq!(verdict_of(&a, &same, "rate"), Verdict::Ok);
        // A faster B is never a regression, whatever the ratio.
        assert_eq!(verdict_of(&worse, &a, "lat"), Verdict::Better);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let a = record("w", 1, &[("lat", 1.0, "lower", false, 0.30)]);
        let b = record("w", 1, &[("lat", 1.02, "lower", false, 0.01)]);
        assert_eq!(verdict_of(&a, &b, "lat"), Verdict::Unresolved);
        // Several runs per side: the spread is across runs.
        let noisy: String = [0.8, 1.0, 1.3, 0.9]
            .iter()
            .map(|v| record("w", 1, &[("lat", *v, "lower", false, 0.0)]) + "\n")
            .collect();
        assert_eq!(verdict_of(&noisy, &noisy, "lat"), Verdict::Unresolved);
    }

    #[test]
    fn exact_metrics_must_be_equal_on_equal_seeds() {
        let a = record("w", 1, &[("nodes", 12.5, "lower", true, 0.0)]);
        let b = record("w", 1, &[("nodes", 12.5, "lower", true, 0.0)]);
        let c = record("w", 1, &[("nodes", 12.6, "lower", true, 0.0)]);
        let other_seed = record("w", 2, &[("nodes", 12.6, "lower", true, 0.0)]);
        assert_eq!(verdict_of(&a, &b, "nodes"), Verdict::Equal);
        assert_eq!(verdict_of(&a, &c, "nodes"), Verdict::Mismatch);
        assert_eq!(verdict_of(&a, &other_seed, "nodes"), Verdict::Info);
        assert!(Verdict::Mismatch.fails() && !Verdict::Unresolved.fails());
    }

    #[test]
    fn reads_bounds_from_the_spec() {
        let spec = Json::parse(
            r#"{"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#,
        )
        .unwrap();
        assert_eq!(bounds(&spec).unwrap()["setup_s"], 0.25);
        assert!(bounds(&Json::Null).is_err());
        assert!(ResultSet::parse("\n").is_err());
    }
}

//! Spans of the outside-in trace.
//!
//! The trace times the *same* request at each nested public boundary in
//! turn — once through the service, once through the sharded index below
//! it, once through the plain index below that, and so on — on instances
//! built from the same inputs, and records one span per call from the
//! benchmark's side of the boundary. A span's parent is the span of the
//! same request one boundary further out; because the two are separate
//! calls, a child's interval does not lie inside its parent's. A layer's
//! self time is its span's duration minus its child's.
//!
//! Spans stay in memory and are written out once, when the run ends.
//! End-to-end runs record no spans at all.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the recorder, if any.
    pub parent: Option<u32>,
    pub request_id: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a span that began at `start` and lasted `duration`; returns
    /// its index, for a child to name as its parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        duration: Duration,
        parent: Option<u32>,
        request_id: u32,
    ) -> u32 {
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + duration.as_nanos() as u64,
            parent,
            request_id,
        });
        (self.spans.len() - 1) as u32
    }

    /// Durations, in request order, of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Median self time, in nanoseconds, of the spans called `name`: each
    /// span's duration minus the duration of its child called `child` (the
    /// span of the same request that names it as parent). 0 without spans.
    pub fn self_time_ns(&self, name: &str, child: &str) -> f64 {
        let selves: Vec<f64> = self
            .spans
            .iter()
            .filter(|c| c.name == child)
            .filter_map(|c| {
                let parent = self.spans.get(c.parent? as usize)?;
                (parent.name == name).then(|| parent.duration_ns() as f64 - c.duration_ns() as f64)
            })
            .collect();
        stats::median(&selves)
    }

    /// Cost of recording one span, measured on a throw-away recorder.
    pub fn span_cost_ns() -> f64 {
        const SPANS: u32 = 100_000;
        let mut recorder = Recorder::new();
        let started = Instant::now();
        for request in 0..SPANS {
            let start = Instant::now();
            recorder.record("cost", start, start.elapsed(), None, request);
        }
        let total = started.elapsed();
        std::hint::black_box(&recorder);
        total.as_nanos() as f64 / f64::from(SPANS)
    }

    pub fn to_json(&self, header: Json) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                    ),
                    ("request_id", Json::Num(f64::from(s.request_id))),
                ])
            })
            .collect();
        Json::obj([("header", header), ("spans", Json::Arr(spans))])
    }

    pub fn write(&self, path: &Path, header: Json) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, self.to_json(header).render())
            .map_err(|e| format!("write {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_parent_minus_child_per_request() {
        let mut recorder = Recorder::new();
        let t = Instant::now();
        for (request, (outer, inner)) in [(100u64, 60u64), (200, 150), (90, 10)].iter().enumerate()
        {
            let parent = recorder.record(
                "outer",
                t,
                Duration::from_nanos(*outer),
                None,
                request as u32,
            );
            recorder.record(
                "inner",
                t,
                Duration::from_nanos(*inner),
                Some(parent),
                request as u32,
            );
        }
        // Self times 40, 50, 80 -> median 50.
        assert_eq!(recorder.self_time_ns("outer", "inner"), 50.0);
        assert_eq!(recorder.self_time_ns("outer", "absent"), 0.0);
        assert_eq!(recorder.durations_ns("inner"), vec![60.0, 150.0, 10.0]);
        let json = recorder.to_json(Json::Null);
        assert_eq!(json.get("spans").and_then(Json::as_arr).unwrap().len(), 6);
    }

    #[test]
    fn recording_a_span_is_cheap() {
        // Loose: the point is that it is nanoseconds, not microseconds.
        assert!(Recorder::span_cost_ns() < 5_000.0);
    }
}

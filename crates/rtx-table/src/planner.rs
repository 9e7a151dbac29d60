//! The cost-based predicate planner.
//!
//! Routing works in two stages:
//!
//! 1. **Eligibility** — an index can serve a predicate only when it keys
//!    on the predicate's column and its [`Capabilities`] cover the
//!    compiled operation: range (and prefix) predicates need
//!    `range_lookups`, keys above `u32::MAX` need `full_64bit_keys`, and
//!    value-fetching queries need the index to carry the value column.
//! 2. **Cost** — every eligible index carries a *calibration probe* cost,
//!    measured by executing a small fixed-size batch against the live
//!    index after each (re)build and dividing the simulated launch time by
//!    the operation count. The cheapest probe cost wins; ties break first
//!    on [`MemoryUsage::total`] (prefer the smaller structure), then on
//!    the index name (deterministic plans).
//!
//! A predicate with no eligible index falls back to a full row-store
//! scan — the scan is a fallback, never a cost competitor, so an
//! available index is always preferred.
//!
//! One scoring function decides: it turns each candidate into a plain
//! verdict — eligible at a cost, or ineligible for a reason that carries
//! what its text needs — and the predicate routes to the *position* of the
//! winning index. A query executes from those positions and returns them
//! as a [`RoutePlan`]; no text is formatted on that path.
//! [`Table::explain`](crate::Table::explain) feeds the same verdicts to a
//! renderer that records every decision (all candidates, their costs or
//! ineligibility reasons, the route and its justification) in an
//! [`ExplainPlan`].
//!
//! [`Capabilities`]: rtx_query::Capabilities
//! [`MemoryUsage::total`]: rtx_query::MemoryUsage::total

use std::sync::Arc;

use rtx_query::{
    Candidate, Capabilities, EncodedRange, ExplainPlan, IndexDef, IndexError, KeySchema,
    PlanChoice, Predicate, QueryBatch, Route, SecondaryIndex, TableQuery, TableSchema,
};

/// Calibrated per-operation costs of one index, measured by
/// [`Planner::calibrate`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeCost {
    /// Simulated seconds per point lookup.
    pub point_s: f64,
    /// Simulated seconds per range lookup; `None` when the index has no
    /// range capability.
    pub range_s: Option<f64>,
}

/// What the planner knows of one built index beyond its definition. The
/// table keeps one per index and refreshes it wherever the index changes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IndexView {
    /// The backend's capability flags.
    pub caps: Capabilities,
    /// Whether the backend carries the value column.
    pub has_values: bool,
    /// Total memory footprint (the cost tiebreak).
    pub memory: u64,
    /// Calibrated probe costs.
    pub probe: ProbeCost,
}

impl IndexView {
    /// The view of `index`, calibrated at `probe`.
    pub fn of(index: &dyn SecondaryIndex, probe: ProbeCost) -> Self {
        IndexView {
            caps: index.capabilities(),
            has_values: index.has_value_column(),
            memory: index.memory_usage().total(),
            probe,
        }
    }
}

/// One index as the planner scores it, borrowed from the table.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CandidateView<'a> {
    /// The index's name, key columns and backend spec.
    pub def: &'a IndexDef,
    /// The typed key schema for composite indexes; `None` for the
    /// zero-overhead raw-`u64` path.
    pub schema: Option<&'a KeySchema>,
    pub view: &'a IndexView,
}

/// How one index scores for one predicate.
#[derive(Debug, Clone)]
enum Verdict {
    /// Serves the predicate at `cost` simulated seconds per operation: the
    /// probe cost `base` times the key schema's limb count.
    Eligible {
        cost: f64,
        base: f64,
    },
    Ineligible(Ineligible),
}

/// Why an index cannot serve a predicate.
#[derive(Debug, Clone)]
enum Ineligible {
    /// The query fetches values and the backend carries none.
    NoValueColumn,
    /// A single-column index and a multi-column predicate.
    MultiColumn,
    /// A range and a backend without range lookups.
    NoRanges,
    /// A key above `u32::MAX` and a backend without 64-bit keys.
    NarrowKeys,
    /// The predicate's columns are not a prefix of the key columns.
    Uncovered,
    /// The predicate's values do not encode under the key schema.
    Unencodable(IndexError),
    /// A composite predicate short of full-arity equality (an encoded
    /// range) and a backend without range lookups.
    NoPrefixRanges,
    /// A single-limb encoded key above `u32::MAX` and a backend without
    /// 64-bit keys.
    EncodedOverflow,
}

impl Verdict {
    /// The EXPLAIN line of this verdict for `index`.
    fn candidate(&self, index: &CandidateView<'_>) -> Candidate {
        let memory = index.view.memory;
        let (eligible, cost, detail) = match self {
            Verdict::Eligible { cost, base } => (
                true,
                *cost,
                match index.schema {
                    None => format!("probe {base:.3e} s/op, {memory} B resident"),
                    Some(schema) => format!(
                        "probe {base:.3e} s/op × {} limb(s) under {schema}, {memory} B resident",
                        schema.limbs()
                    ),
                },
            ),
            Verdict::Ineligible(why) => (
                false,
                f64::INFINITY,
                match why {
                    Ineligible::NoValueColumn => "no value column".to_string(),
                    Ineligible::MultiColumn => {
                        "single-column index cannot serve a multi-column predicate".to_string()
                    }
                    Ineligible::NoRanges => "no range-lookup capability".to_string(),
                    Ineligible::NarrowKeys => "32-bit keys only".to_string(),
                    Ineligible::Uncovered => format!(
                        "key columns {:?} do not cover the predicate's columns",
                        index.def.columns
                    ),
                    Ineligible::Unencodable(err) => {
                        let schema = index.schema.map(ToString::to_string).unwrap_or_default();
                        format!("predicate does not encode under {schema}: {err}")
                    }
                    Ineligible::NoPrefixRanges => {
                        "no range-lookup capability (prefix needs an encoded range)".to_string()
                    }
                    Ineligible::EncodedOverflow => {
                        "32-bit keys only (encoded key overflows)".to_string()
                    }
                },
            ),
        };
        Candidate {
            index: index.def.name.clone(),
            spec: index.def.spec.clone(),
            eligible,
            cost,
            detail,
        }
    }
}

/// Where each predicate of one executed query went: the table position of
/// its index, or a row-store scan. Index names and specs are borrowed from
/// the table's definitions; [`Table::explain`](crate::Table::explain)
/// renders the full account of a decision.
#[derive(Debug, Clone)]
pub struct RoutePlan {
    indexes: Arc<[IndexDef]>,
    routes: Vec<Option<usize>>,
}

impl RoutePlan {
    pub(crate) fn new(indexes: Arc<[IndexDef]>, routes: Vec<Option<usize>>) -> Self {
        RoutePlan { indexes, routes }
    }

    /// Number of predicates.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// True when the query held no predicates.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// The index name predicate `i` was routed to, or `None` for a scan
    /// and past the last predicate.
    pub fn routed_index(&self, i: usize) -> Option<&str> {
        let position = (*self.routes.get(i)?)?;
        Some(&self.indexes[position].name)
    }

    /// Number of predicates that fell back to a row-store scan.
    pub fn scan_fallbacks(&self) -> usize {
        self.routes.iter().filter(|route| route.is_none()).count()
    }
}

impl std::fmt::Display for RoutePlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, route) in self.routes.iter().enumerate() {
            match route {
                Some(position) => {
                    let def = &self.indexes[*position];
                    writeln!(f, "#{i} -> index {} ({})", def.name, def.spec)?;
                }
                None => writeln!(f, "#{i} -> row-store scan")?,
            }
        }
        Ok(())
    }
}

/// Scores predicates against index candidates and routes them (see the
/// [module docs](self) for the cost model).
#[derive(Debug, Clone, Copy)]
pub struct Planner {
    /// Operations per calibration probe batch. Larger probes amortise the
    /// fixed launch overhead, making per-operation costs comparable across
    /// backends.
    pub probe_ops: usize,
    /// Modeled simulated cost of scanning one live row on the fallback
    /// path (charged to query metrics when a predicate routes to a scan).
    pub scan_cost_per_row_s: f64,
}

impl Default for Planner {
    fn default() -> Self {
        Planner {
            probe_ops: 64,
            scan_cost_per_row_s: 1e-9,
        }
    }
}

impl Planner {
    /// Measures an index's per-operation probe costs: one point batch and
    /// (when supported) one range batch of [`probe_ops`](Planner::probe_ops)
    /// operations drawn from `sample_keys` (the index's own keys, so
    /// probes exercise the hit path).
    pub fn calibrate(
        &self,
        index: &dyn SecondaryIndex,
        sample_keys: &[u64],
    ) -> Result<ProbeCost, IndexError> {
        let fallback = [0u64];
        let sample: &[u64] = if sample_keys.is_empty() {
            &fallback
        } else {
            sample_keys
        };
        let ops = self.probe_ops.max(1);
        let points: Vec<u64> = sample.iter().copied().cycle().take(ops).collect();
        let point_out = index.execute(&QueryBatch::of_points(&points))?;
        let point_s = point_out.metrics.simulated_time_s / ops as f64;

        let range_s = if index.capabilities().range_lookups {
            let ranges: Vec<(u64, u64)> =
                points.iter().map(|&k| (k, k.saturating_add(15))).collect();
            let range_out = index.execute(&QueryBatch::of_ranges(&ranges))?;
            Some(range_out.metrics.simulated_time_s / ops as f64)
        } else {
            None
        };
        Ok(ProbeCost { point_s, range_s })
    }

    /// Routes every predicate of `query` to the position (in `indexes`) of
    /// its cheapest eligible index, or to a row-store scan (`None`).
    pub(crate) fn route<'a>(
        &self,
        query: &TableQuery,
        schema: &TableSchema,
        indexes: impl Iterator<Item = CandidateView<'a>> + Clone,
    ) -> Result<Vec<Option<usize>>, IndexError> {
        let mut routes = Vec::with_capacity(query.len());
        for predicate in query.predicates() {
            check(predicate, schema)?;
            let chosen = self.choose(
                predicate,
                query.fetches_values(),
                indexes.clone(),
                |_, _| {},
            );
            routes.push(chosen.map(|(position, ..)| position));
        }
        Ok(routes)
    }

    /// Routes `query` as [`route`](Planner::route) does and records every
    /// decision, with its reasons, in an [`ExplainPlan`].
    pub(crate) fn explain<'a>(
        &self,
        query: &TableQuery,
        schema: &TableSchema,
        indexes: impl Iterator<Item = CandidateView<'a>> + Clone,
    ) -> Result<ExplainPlan, IndexError> {
        let mut choices = Vec::with_capacity(query.len());
        for predicate in query.predicates() {
            check(predicate, schema)?;
            let mut candidates = Vec::new();
            let chosen = self.choose(
                predicate,
                query.fetches_values(),
                indexes.clone(),
                |index, verdict| candidates.push(verdict.candidate(&index)),
            );
            let (route, reason) = match chosen {
                Some((_, index, cost)) => (
                    Route::Index {
                        index: index.def.name.clone(),
                        spec: index.def.spec.clone(),
                    },
                    format!(
                        "cheapest of {} eligible candidate(s) at {cost:.3e} s/op",
                        candidates.iter().filter(|c| c.eligible).count(),
                    ),
                ),
                None if candidates.is_empty() => (
                    Route::Scan,
                    format!("no index on column {:?}", predicate.column()),
                ),
                None => (
                    Route::Scan,
                    "no eligible index (capability mismatch)".to_string(),
                ),
            };
            choices.push(PlanChoice {
                predicate: predicate.clone(),
                candidates,
                route,
                reason,
            });
        }
        Ok(ExplainPlan { choices })
    }

    /// Routes every predicate through the single named index, erroring when
    /// the index does not exist, keys on the wrong column, or cannot serve
    /// a predicate — the forced-index arm of planner experiments.
    pub(crate) fn route_forced<'a>(
        &self,
        query: &TableQuery,
        indexes: impl Iterator<Item = CandidateView<'a>>,
        name: &str,
    ) -> Result<Vec<Option<usize>>, IndexError> {
        let fail = |message: String| IndexError::Backend {
            backend: "table".to_string().into(),
            message,
        };
        let (position, index) = indexes
            .enumerate()
            .find(|(_, index)| index.def.name == name)
            .ok_or_else(|| fail(format!("no index named {name:?}")))?;
        for predicate in query.predicates() {
            predicate.validate()?;
            if index.def.columns.first().map(String::as_str) != Some(predicate.column()) {
                return Err(fail(format!(
                    "index {name:?} keys on column(s) {:?}, not {:?}",
                    index.def.columns,
                    predicate.column()
                )));
            }
            let verdict = self.score(&index, predicate, query.fetches_values());
            if let Verdict::Ineligible(_) = verdict {
                return Err(fail(format!(
                    "index {name:?} cannot serve {predicate}: {}",
                    verdict.candidate(&index).detail
                )));
            }
        }
        Ok(vec![Some(position); query.len()])
    }

    /// Scores every index whose *leading* key column is the predicate's
    /// (composite indexes serve leading-column scalar predicates as encoded
    /// prefixes), shows each verdict to `each`, and returns the cheapest
    /// eligible index with its position and cost.
    fn choose<'a>(
        &self,
        predicate: &Predicate,
        fetch_values: bool,
        indexes: impl Iterator<Item = CandidateView<'a>>,
        mut each: impl FnMut(CandidateView<'a>, &Verdict),
    ) -> Option<(usize, CandidateView<'a>, f64)> {
        let mut best: Option<(usize, CandidateView<'a>, f64)> = None;
        for (position, index) in indexes.enumerate() {
            if index.def.columns.first().map(String::as_str) != Some(predicate.column()) {
                continue;
            }
            let verdict = self.score(&index, predicate, fetch_values);
            each(index, &verdict);
            let Verdict::Eligible { cost, .. } = verdict else {
                continue;
            };
            let wins = best.is_none_or(|(_, best_index, best_cost)| {
                cost.total_cmp(&best_cost)
                    .then_with(|| index.view.memory.cmp(&best_index.view.memory))
                    .then_with(|| index.def.name.cmp(&best_index.def.name))
                    .is_lt()
            });
            if wins {
                best = Some((position, index, cost));
            }
        }
        best
    }

    /// Scores one candidate for one predicate: eligibility plus the probe
    /// cost of the compiled operation kind. Composite (typed) indexes
    /// compile the predicate against their key schema — equality over every
    /// key column is a point lookup, anything shorter an encoded range —
    /// and pay a limb factor for wider keys.
    fn score(
        &self,
        index: &CandidateView<'_>,
        predicate: &Predicate,
        fetch_values: bool,
    ) -> Verdict {
        let view = index.view;
        let ineligible = Verdict::Ineligible;
        if fetch_values && !view.has_values {
            return ineligible(Ineligible::NoValueColumn);
        }
        let Some(schema) = index.schema else {
            // Zero-overhead raw-u64 path: the predicate must compile to a
            // single-column operation on the key column.
            if predicate.as_op().is_none() {
                return ineligible(Ineligible::MultiColumn);
            }
            if predicate.needs_ranges() && !view.caps.range_lookups {
                return ineligible(Ineligible::NoRanges);
            }
            if predicate.max_key() > u64::from(u32::MAX) && !view.caps.full_64bit_keys {
                return ineligible(Ineligible::NarrowKeys);
            }
            let cost = if predicate.needs_ranges() {
                // Eligibility above guarantees the range probe ran.
                view.probe.range_s.unwrap_or(f64::INFINITY)
            } else {
                view.probe.point_s
            };
            return Verdict::Eligible { cost, base: cost };
        };
        let Some(op) = predicate.as_typed_op(&index.def.columns) else {
            return ineligible(Ineligible::Uncovered);
        };
        let compiled = match schema.compile_op(&op) {
            Ok(compiled) => compiled,
            Err(err) => return ineligible(Ineligible::Unencodable(err)),
        };
        // Anything short of full-arity equality compiles to an encoded
        // range (empties execute as inverted ranges on the same path).
        let is_point = matches!(compiled, EncodedRange::Point(_));
        if !is_point && !view.caps.range_lookups {
            return ineligible(Ineligible::NoPrefixRanges);
        }
        // Direct single-limb schemas hit the backend with the raw encoded
        // key, which occupies the high bytes of the limb; dictionary-mapped
        // schemas probe mapped keys the build already validated.
        if schema.limbs() == 1 && !view.caps.full_64bit_keys {
            let max_encoded = match &compiled {
                EncodedRange::Point(k) => k.limb(0),
                EncodedRange::Range(_, hi) => hi.limb(0),
                EncodedRange::Empty => 0,
            };
            if max_encoded > u64::from(u32::MAX) {
                return ineligible(Ineligible::EncodedOverflow);
            }
        }
        let base = if is_point {
            view.probe.point_s
        } else {
            view.probe.range_s.unwrap_or(f64::INFINITY)
        };
        Verdict::Eligible {
            cost: base * schema.limbs() as f64,
            base,
        }
    }
}

/// Checks a predicate's shape and that it names only schema columns.
fn check(predicate: &Predicate, schema: &TableSchema) -> Result<(), IndexError> {
    predicate.validate()?;
    match predicate
        .columns()
        .iter()
        .find(|column| schema.column_position(column).is_none())
    {
        Some(column) => Err(IndexError::Backend {
            backend: "table".to_string().into(),
            message: format!("predicate on unknown column {column:?}"),
        }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtx_query::ColumnType;

    /// One index as a table keeps it for the planner.
    struct Index {
        def: IndexDef,
        schema: Option<KeySchema>,
        view: IndexView,
    }

    fn index(
        name: &str,
        columns: &[&str],
        caps: Capabilities,
        point_s: f64,
        range_s: Option<f64>,
        memory: u64,
    ) -> Index {
        Index {
            def: IndexDef {
                name: name.to_string(),
                columns: columns.iter().map(|c| c.to_string()).collect(),
                spec: name.to_string(),
            },
            schema: None,
            view: IndexView {
                caps,
                has_values: true,
                memory,
                probe: ProbeCost { point_s, range_s },
            },
        }
    }

    fn typed(schema: &KeySchema, index: Index) -> Index {
        Index {
            schema: Some(schema.clone()),
            ..index
        }
    }

    fn views(indexes: &[Index]) -> impl Iterator<Item = CandidateView<'_>> + Clone {
        indexes.iter().map(|ix| CandidateView {
            def: &ix.def,
            schema: ix.schema.as_ref(),
            view: &ix.view,
        })
    }

    /// Explains `query`, checking that routing agrees with the EXPLAIN
    /// predicate by predicate (or fails alike).
    fn plan(
        indexes: &[Index],
        schema: &TableSchema,
        query: &TableQuery,
    ) -> Result<ExplainPlan, IndexError> {
        let planner = Planner::default();
        let explained = planner.explain(query, schema, views(indexes));
        let routed = planner.route(query, schema, views(indexes));
        assert_eq!(
            explained.is_ok(),
            routed.is_ok(),
            "{explained:?} vs {routed:?}"
        );
        let (explained, routes) = (explained?, routed?);
        for (i, route) in routes.iter().enumerate() {
            let routed = route.map(|position| indexes[position].def.name.as_str());
            assert_eq!(routed, explained.routed_index(i), "predicate {i}");
        }
        Ok(explained)
    }

    fn caps(ranges: bool) -> Capabilities {
        Capabilities {
            range_lookups: ranges,
            duplicate_keys: true,
            full_64bit_keys: true,
            updates: false,
        }
    }

    #[test]
    fn cheapest_eligible_index_wins_and_decisions_are_recorded() {
        let schema = TableSchema::new(["k"]);
        let indexes = [
            index("ht", &["k"], caps(false), 1e-8, None, 100),
            index("rx", &["k"], caps(true), 5e-8, Some(2e-7), 200),
        ];

        let plan_ = plan(&indexes, &schema, &TableQuery::new().point("k", 3)).unwrap();
        assert_eq!(plan_.routed_index(0), Some("ht"));
        assert_eq!(plan_.choices[0].candidates.len(), 2);

        // Ranges disqualify the point-only index.
        let plan_ = plan(&indexes, &schema, &TableQuery::new().range("k", 0, 9)).unwrap();
        assert_eq!(plan_.routed_index(0), Some("rx"));
        assert!(!plan_.choices[0].candidates[0].eligible);
    }

    #[test]
    fn capability_gaps_fall_back_to_scan() {
        let schema = TableSchema::new(["k", "other"]);
        let narrow = Capabilities {
            full_64bit_keys: false,
            ..caps(true)
        };
        let indexes = [index("bt", &["k"], narrow, 1e-8, Some(1e-8), 10)];

        // 64-bit key on a 32-bit index: scan.
        let q = TableQuery::new().point("k", u64::MAX);
        let plan_ = plan(&indexes, &schema, &q).unwrap();
        assert_eq!(plan_.routed_index(0), None);
        assert_eq!(plan_.scan_fallbacks(), 1);

        // Unindexed column: scan with the no-index reason.
        let q = TableQuery::new().point("other", 1);
        let plan_ = plan(&indexes, &schema, &q).unwrap();
        assert_eq!(plan_.routed_index(0), None);
        assert!(plan_.choices[0].reason.contains("no index"));

        // Unknown column: an error, not a silent scan.
        assert!(plan(&indexes, &schema, &TableQuery::new().point("nope", 1)).is_err());
    }

    #[test]
    fn memory_breaks_probe_ties_deterministically() {
        let schema = TableSchema::new(["k"]);
        let indexes = [
            index("big", &["k"], caps(false), 1e-8, None, 500),
            index("small", &["k"], caps(false), 1e-8, None, 50),
        ];
        let plan_ = plan(&indexes, &schema, &TableQuery::new().point("k", 1)).unwrap();
        assert_eq!(plan_.routed_index(0), Some("small"));
    }

    #[test]
    fn names_break_cost_and_memory_ties() {
        let schema = TableSchema::new(["k"]);
        let indexes = [
            index("zz", &["k"], caps(false), 1e-8, None, 50),
            index("aa", &["k"], caps(false), 1e-8, None, 50),
        ];
        let plan_ = plan(&indexes, &schema, &TableQuery::new().point("k", 1)).unwrap();
        assert_eq!(plan_.routed_index(0), Some("aa"));
    }

    #[test]
    fn forced_plans_validate_the_target_index() {
        let indexes = [
            index("ht", &["k"], caps(false), 1e-8, None, 100),
            index("rx", &["k"], caps(true), 5e-8, Some(2e-7), 200),
        ];
        let planner = Planner::default();
        let q = TableQuery::new().point("k", 3).point("k", 4);
        let routes = planner.route_forced(&q, views(&indexes), "rx").unwrap();
        assert_eq!(routes, vec![Some(1), Some(1)]);

        // Ranges through the point-only index, or unknown names: errors.
        let ranged = TableQuery::new().range("k", 0, 9);
        let err = planner
            .route_forced(&ranged, views(&indexes), "ht")
            .unwrap_err();
        assert!(err.to_string().contains("no range-lookup"), "{err}");
        assert!(planner.route_forced(&q, views(&indexes), "nope").is_err());
    }

    #[test]
    fn route_plans_name_indexes_by_position() {
        let indexes: Arc<[IndexDef]> = vec![
            index("ht", &["k"], caps(false), 1e-8, None, 100).def,
            index("rx", &["k"], caps(true), 5e-8, Some(2e-7), 200).def,
        ]
        .into();
        let plan = RoutePlan::new(indexes, vec![Some(1), None, Some(0)]);
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.routed_index(0), Some("rx"));
        assert_eq!(plan.routed_index(1), None);
        assert_eq!(plan.routed_index(2), Some("ht"));
        assert_eq!(plan.routed_index(3), None);
        assert_eq!(plan.scan_fallbacks(), 1);
        assert_eq!(
            plan.to_string(),
            "#0 -> index rx (rx)\n#1 -> row-store scan\n#2 -> index ht (ht)\n"
        );
    }

    #[test]
    fn composite_predicates_route_to_matching_composite_indexes() {
        let table = TableSchema::new(["a", "b"]);
        let wide = KeySchema::new(vec![ColumnType::U32, ColumnType::U32]).unwrap();
        let indexes = [typed(
            &wide,
            index("ab", &["a", "b"], caps(true), 1e-8, Some(2e-8), 100),
        )];

        // A prefix-range over (a, b) routes as one encoded range.
        let q = TableQuery::new().prefix_range(["a", "b"], vec![5], 10, 20);
        let plan_ = plan(&indexes, &table, &q).unwrap();
        assert_eq!(plan_.routed_index(0), Some("ab"));
        assert!(plan_.choices[0].candidates[0].detail.contains("{u32,u32}"));

        // A scalar point on the leading column is served as a prefix.
        let plan_ = plan(&indexes, &table, &TableQuery::new().point("a", 5)).unwrap();
        assert_eq!(plan_.routed_index(0), Some("ab"));

        // A predicate on the trailing column alone cannot use the index.
        let plan_ = plan(&indexes, &table, &TableQuery::new().point("b", 5)).unwrap();
        assert_eq!(plan_.routed_index(0), None);

        // Column order matters: (b, a) is not a prefix of (a, b).
        let q = TableQuery::new().prefix_tuple(["b", "a"], vec![1, 2]);
        assert_eq!(plan(&indexes, &table, &q).unwrap().routed_index(0), None);

        // Malformed composite predicates error instead of planning.
        let q = TableQuery::new().prefix_tuple(["a", "b"], vec![1]);
        assert!(plan(&indexes, &table, &q).is_err());
        let q = TableQuery::new().prefix_tuple(["a", "nope"], vec![1, 2]);
        assert!(plan(&indexes, &table, &q).is_err());
        let q = TableQuery::new().prefix_range(Vec::<&str>::new(), vec![], 1, 2);
        assert!(plan(&indexes, &table, &q).is_err());
    }

    #[test]
    fn composite_point_vs_range_capabilities_and_key_widths() {
        let table = TableSchema::new(["a", "b"]);
        let wide = KeySchema::new(vec![ColumnType::U32, ColumnType::U32]).unwrap();
        // A point-only backend without 64-bit keys (the B+ shape).
        let narrow = Capabilities {
            range_lookups: true,
            duplicate_keys: true,
            full_64bit_keys: false,
            updates: false,
        };
        let indexes = [typed(
            &wide,
            index("ab", &["a", "b"], narrow, 1e-8, Some(2e-8), 100),
        )];

        // Full-arity equality with a zero leading column encodes below
        // u32::MAX: a genuine point lookup, eligible.
        let q = TableQuery::new().prefix_tuple(["a", "b"], vec![0, 5]);
        assert_eq!(
            plan(&indexes, &table, &q).unwrap().routed_index(0),
            Some("ab")
        );

        // A non-zero leading column pushes the encoded key past 32 bits.
        let q = TableQuery::new().prefix_tuple(["a", "b"], vec![1, 5]);
        let plan_ = plan(&indexes, &table, &q).unwrap();
        assert_eq!(plan_.routed_index(0), None);
        assert!(plan_.choices[0].candidates[0]
            .detail
            .contains("encoded key"));

        // Values too large for the declared column type do not encode.
        let q = TableQuery::new().prefix_tuple(["a", "b"], vec![0, u64::MAX]);
        let plan_ = plan(&indexes, &table, &q).unwrap();
        assert!(!plan_.choices[0].candidates[0].eligible);
        assert!(plan_.choices[0].candidates[0]
            .detail
            .starts_with("predicate does not encode under {u32,u32}: "));

        // A partial prefix needs range capability.
        let point_only = Capabilities {
            range_lookups: false,
            ..caps(false)
        };
        let indexes = [typed(
            &wide,
            index("ab", &["a", "b"], point_only, 1e-8, None, 100),
        )];
        let q = TableQuery::new().prefix_tuple(["a"], vec![0]);
        let plan_ = plan(&indexes, &table, &q).unwrap();
        assert_eq!(plan_.routed_index(0), None);
        assert!(plan_.choices[0].candidates[0].detail.contains("range"));
    }

    #[test]
    fn wider_schemas_pay_a_limb_cost_factor() {
        let table = TableSchema::new(["a", "b"]);
        let one_limb = KeySchema::new(vec![ColumnType::U32, ColumnType::U32]).unwrap();
        let two_limb = KeySchema::new(vec![ColumnType::U64, ColumnType::U64]).unwrap();
        assert_eq!((one_limb.limbs(), two_limb.limbs()), (1, 2));
        let indexes = [
            typed(
                &two_limb,
                index("wide", &["a", "b"], caps(true), 1e-8, Some(2e-8), 100),
            ),
            typed(
                &one_limb,
                index("narrow", &["a", "b"], caps(true), 1e-8, Some(2e-8), 100),
            ),
        ];
        let q = TableQuery::new().prefix_range(["a", "b"], vec![0], 1, 2);
        let plan_ = plan(&indexes, &table, &q).unwrap();
        // Same probe cost, but the two-limb schema doubles it.
        assert_eq!(plan_.routed_index(0), Some("narrow"));
        let by_name = |name: &str| {
            plan_.choices[0]
                .candidates
                .iter()
                .find(|c| c.index == name)
                .unwrap()
                .cost
        };
        assert!(by_name("wide") > by_name("narrow"));
    }

    #[test]
    fn single_column_indexes_reject_multi_column_predicates() {
        let table = TableSchema::new(["a", "b"]);
        let indexes = [index("plain", &["a"], caps(true), 1e-8, Some(2e-8), 100)];
        let q = TableQuery::new().prefix_tuple(["a", "b"], vec![1, 2]);
        let plan_ = plan(&indexes, &table, &q).unwrap();
        assert_eq!(plan_.routed_index(0), None);
        assert!(plan_.choices[0].candidates[0]
            .detail
            .contains("multi-column"));

        // But a single-column composite predicate degrades to a scalar op.
        let q = TableQuery::new().prefix_tuple(["a"], vec![1]);
        assert_eq!(
            plan(&indexes, &table, &q).unwrap().routed_index(0),
            Some("plain")
        );
    }
}

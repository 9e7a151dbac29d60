//! Beyond-paper experiment: cost-based planner vs forced index choice.
//!
//! A multi-index table can answer the same predicate through several
//! indexes; what the paper settles per experiment by hand (which backend
//! serves which lookup shape), the `rtx-table` planner decides per
//! predicate from capability flags and calibrated probe costs. This
//! experiment quantifies that decision on a mixed point+range workload
//! over one column carrying three indexes — `HT` (points only), `RX` and
//! `SA` (both shapes):
//!
//! * **forced arms** — every predicate executes through one fixed
//!   range-capable index ([`FORCED_ARMS`]), the only single-index choices
//!   able to serve the whole workload;
//! * **planner arm** — every predicate routes to its cheapest eligible
//!   index, so points peel off to the hash table while ranges go to the
//!   cheaper of RX and SA.
//!
//! All arms answer identically (asserted); the comparison is purely about
//! execution cost. The headline number is *simulated* device time — a
//! deterministic function of the workload and the cost model — and the
//! planner arm must at least match the worst forced arm: that is the
//! floor a cost-based optimiser has to clear to justify existing. The
//! planner's host cost (planning plus execution wall clock) is measured by
//! the benchmark package's `table_serve` workload, not here.

use rtx_query::{TableQuery, TableSchema};
use rtx_table::Table;
use rtx_workloads as wl;

use crate::indexes::registry;
use crate::report::{fmt_ms, fmt_throughput, Table as Report};
use crate::scale::ExperimentScale;

/// The indexes of the experiment's table, all on the keyed column.
pub const TABLE_INDEXES: [(&str, &str); 3] = [("id_ht", "HT"), ("id_rx", "RX"), ("id_sa", "SA")];

/// The forced arms: the range-capable indexes (the hash table cannot
/// serve the mixed workload alone).
pub const FORCED_ARMS: [&str; 2] = ["id_rx", "id_sa"];

/// One measured arm of the comparison.
#[derive(Debug, Clone)]
struct PlannerRun {
    /// `"planner"` or `"forced:<index>"`.
    pub arm: String,
    /// Queries executed.
    pub queries: usize,
    /// Predicates across all queries.
    pub predicates: usize,
    /// Total simulated device seconds (deterministic).
    pub sim_s: f64,
    /// Total hits — identical across arms by construction.
    pub hits: u64,
    /// Predicates routed per index name, in [`TABLE_INDEXES`] order
    /// (forced arms concentrate everything on one entry).
    pub routes: Vec<(String, u64)>,
}

impl PlannerRun {
    /// Simulated predicate throughput in operations per second.
    fn sim_throughput(&self) -> f64 {
        if self.sim_s <= 0.0 {
            return 0.0;
        }
        self.predicates as f64 / self.sim_s
    }
}

/// The experiment's table: one keyed column under all three indexes, plus
/// a timestamp and a value column.
fn build_table(scale: &ExperimentScale, n: usize) -> Table {
    let device = crate::scaled_device(scale);
    let mut schema = TableSchema::new(["id", "ts", "amount"]).with_value_column("amount");
    for (name, spec) in TABLE_INDEXES {
        schema = schema.with_index(name, "id", spec);
    }
    let records = wl::table_records(3, n, n as u64, scale.seed);
    Table::load(schema, &device, std::sync::Arc::new(registry()), &records)
        .expect("experiment table builds")
}

/// The mixed point+range query stream every arm executes.
fn workload(scale: &ExperimentScale, n: usize) -> Vec<TableQuery> {
    wl::table_queries(&wl::TableQueryConfig {
        queries: (scale.default_lookups() / 64).max(16),
        predicates_per_query: 4,
        point_columns: vec!["id".to_string()],
        range_columns: vec!["id".to_string()],
        key_domain: n as u64,
        range_span: 32,
        fetch_values: true,
        seed: scale.seed + 11,
    })
}

fn run_arm(table: &Table, queries: &[TableQuery], forced: Option<&str>) -> PlannerRun {
    let mut sim_s = 0.0;
    let mut hits = 0u64;
    let mut predicates = 0usize;
    let mut routes: Vec<(String, u64)> = TABLE_INDEXES
        .iter()
        .map(|(name, _)| (name.to_string(), 0))
        .collect();
    for query in queries {
        let out = match forced {
            Some(index) => table.query_forced(query, index),
            None => table.query(query),
        }
        .expect("arm executes the workload");
        sim_s += out.metrics.simulated_time_s;
        hits += out.hit_count();
        predicates += query.len();
        for index in (0..out.plan.len()).filter_map(|i| out.plan.routed_index(i)) {
            if let Some(entry) = routes.iter_mut().find(|(name, _)| name == index) {
                entry.1 += 1;
            }
        }
    }
    PlannerRun {
        arm: forced.map_or("planner".to_string(), |f| format!("forced:{f}")),
        queries: queries.len(),
        predicates,
        sim_s,
        hits,
        routes,
    }
}

/// Runs every arm over the same table and workload: the forced arms in
/// [`FORCED_ARMS`] order, then the planner arm last.
fn run_arms(scale: &ExperimentScale) -> Vec<PlannerRun> {
    let n = scale.default_keys().min(1 << 14);
    let table = build_table(scale, n);
    let queries = workload(scale, n);
    let mut runs: Vec<PlannerRun> = FORCED_ARMS
        .iter()
        .map(|arm| run_arm(&table, &queries, Some(arm)))
        .collect();
    runs.push(run_arm(&table, &queries, None));
    let hits = runs[0].hits;
    assert!(
        runs.iter().all(|r| r.hits == hits),
        "all arms must answer identically"
    );
    runs
}

/// The `planner_selection` experiment: planner-chosen vs forced-index
/// execution of the same mixed workload.
pub fn run(scale: &ExperimentScale) -> Vec<Report> {
    let runs = run_arms(scale);
    let mut table = Report::new(
        format!(
            "Planner selection vs forced index, mixed point+range workload, \
             indexes {:?}, 2^{} keys",
            TABLE_INDEXES.map(|(_, spec)| spec),
            scale.keys_exp.min(14),
        ),
        &[
            "arm",
            "queries",
            "predicates",
            "sim [ms]",
            "sim ops/s",
            "routes",
            "hits",
        ],
    );
    for run in &runs {
        let routes = run
            .routes
            .iter()
            .filter(|(_, count)| *count > 0)
            .map(|(name, count)| format!("{name}:{count}"))
            .collect::<Vec<_>>()
            .join(" ");
        table.push_row(vec![
            run.arm.clone(),
            run.queries.to_string(),
            run.predicates.to_string(),
            fmt_ms(run.sim_s * 1e3),
            fmt_throughput(run.sim_throughput()),
            routes,
            run.hits.to_string(),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planner_at_least_matches_the_worst_forced_arm() {
        let scale = ExperimentScale::tiny();
        let runs = run_arms(&scale);
        assert_eq!(runs.len(), FORCED_ARMS.len() + 1);
        for run in &runs {
            assert!(run.hits > 0, "the workload must hit");
            assert!(run.sim_s > 0.0);
            assert_eq!(run.predicates, run.queries * 4);
        }
        // A forced arm concentrates every predicate on its own index.
        let forced = &runs[0];
        assert_eq!(
            forced.routes.iter().map(|(_, c)| *c).sum::<u64>() as usize,
            forced.predicates
        );
        assert_eq!(forced.routes[1].1 as usize, forced.predicates, "all on RX");
        // The planner splits: points on the hash table, ranges elsewhere.
        let planner = runs.last().unwrap();
        assert!(planner.routes[0].1 > 0, "points routed to HT: {planner:?}");

        let worst = runs[..FORCED_ARMS.len()]
            .iter()
            .min_by(|a, b| a.sim_throughput().total_cmp(&b.sim_throughput()))
            .unwrap();
        assert!(
            planner.sim_throughput() >= worst.sim_throughput(),
            "planner {:.3e} ops/s must not lose to the worst forced arm {:.3e} ops/s",
            planner.sim_throughput(),
            worst.sim_throughput()
        );

        let tables = run(&scale);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].rows.len(), runs.len());
    }
}

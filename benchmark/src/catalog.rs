//! Every workload and metric of the benchmark, in one table.
//!
//! `BENCHMARK.json` at the repository root lists the same names (the package
//! test keeps the two equal); what its fixed shape has no room for lives
//! here and in `README.md`: the host/model/count label of every number and
//! which end-to-end metric a per-layer metric is expected to move.

/// Where a number comes from. The three are never blended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Label {
    /// Wall-clock time on this host, or a rate or ratio derived from it.
    Host,
    /// Output of the simulated device's cost model.
    Model,
    /// A count of events; repeats exactly on a fixed seed unless it depends
    /// on thread timing (noted per metric in the README).
    Count,
}

impl Label {
    pub fn name(self) -> &'static str {
        match self {
            Label::Host => "host",
            Label::Model => "model",
            Label::Count => "count",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub label: Label,
    /// End-to-end metric(s) and workload(s) this number should move; for an
    /// end-to-end metric, what it measures.
    pub moves: &'static str,
    /// A count or model number that depends on the seed alone — not on
    /// thread timing or on how much work the time allowed — and therefore
    /// must be equal in two runs of the same seed.
    pub exact: bool,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    better: Better,
    label: Label,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        label,
        moves,
        exact: false,
    }
}

const fn exact(
    name: &'static str,
    unit: &'static str,
    better: Better,
    label: Label,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        exact: true,
        ..def(name, unit, better, label, moves)
    }
}

use Better::{Higher, Lower};
use Label::{Count, Host, Model};

/// The workload names, in the order `run.sh` runs them.
pub const WORKLOADS: [&str; 4] = ["bulk_probe", "serve_read", "mixed_durable", "table_serve"];

/// End-to-end metrics: every workload reports every one of them.
pub const END_TO_END: [MetricDef; 4] = [
    def("setup_s", "s", Lower, Host,
        "index or table build plus service start, before the first timed operation (median of three set-ups)"),
    def("peak_rss_mb", "MiB", Lower, Host,
        "VmHWM of the workload's process at exit"),
    def("read_ops_per_s", "ops/s", Higher, Host,
        "lookups answered per second by the workload's read stream"),
    def("read_p50_ms", "ms", Lower, Host,
        "median latency of one read request of the workload"),
];

/// Per-layer metrics: every workload's traced run reports every one of
/// them, 0 where the layer does no work in that workload.
pub const PER_LAYER: [MetricDef; 70] = [
    // What the issue listed as end-to-end but only some workloads can
    // measure (the contract makes every workload report every end-to-end
    // metric), and numbers that read 0 or repeat exactly.
    exact("bench.failed_share", "fraction", Lower, Count,
        "(rejected + errored + oracle-mismatched + lost-after-recovery) / attempted; any rise fails"),
    exact("bench.device_bytes_per_key", "B", Lower, Model,
        "device bytes of the workload's main index per key; exact"),
    def("bench.read_p99_ms", "ms", Lower, Host,
        "99th percentile latency of one read request; did not repeat within any allowed bound on the defining host"),
    def("bench.range_ops_per_s", "ops/s", Higher, Host,
        "bulk_probe: range lookups per second, batches of 1,024 lookups of span 64"),
    def("bench.write_rows_per_s", "rows/s", Higher, Host,
        "mixed_durable: closed-loop write saturation"),
    def("bench.write_p50_ms", "ms", Lower, Host,
        "mixed_durable, table_serve: paced write latency from the scheduled send"),
    def("bench.write_p99_ms", "ms", Lower, Host,
        "mixed_durable: paced write latency, tail"),
    def("bench.recovery_s", "s", Lower, Host,
        "mixed_durable: drop, reopen by the same +wal: name, until the first answered lookup"),
    def("bench.generator_lag_us_p99", "us", Lower, Host,
        "how late open-loop sends ran: validity of the paced phases"),
    def("bench.span_cost_ns", "ns", Lower, Host,
        "cost of recording one span: validity of the trace"),
    // gpu-device
    def("gpu-device.fanout_us", "us", Lower, Host,
        "read_p50_ms on serve_read"),
    exact("gpu-device.sim_s_per_mop", "s", Lower, Model,
        "none: a host-only change leaves it bit-identical (bulk_probe)"),
    exact("gpu-device.dram_bytes_per_op", "B", Lower, Model,
        "none: a host-only change leaves it bit-identical (bulk_probe)"),
    // optix-sim
    def("optix-sim.launch_share", "fraction", Lower, Host,
        "read_ops_per_s on bulk_probe"),
    def("optix-sim.launch_us_16op", "us", Lower, Host,
        "read_p50_ms on serve_read"),
    def("optix-sim.accel_build_s", "s", Lower, Host,
        "setup_s on bulk_probe"),
    // rtx-bvh
    exact("rtx-bvh.nodes_per_op", "count", Lower, Count,
        "read_ops_per_s on bulk_probe"),
    exact("rtx-bvh.prim_tests_per_op", "count", Lower, Count,
        "read_ops_per_s on bulk_probe"),
    exact("rtx-bvh.range_nodes_per_op", "count", Lower, Count,
        "read_p50_ms on bulk_probe"),
    // rtindex-core
    def("rtindex-core.point_ns_per_op", "ns", Lower, Host,
        "read_ops_per_s on bulk_probe; not serve_read"),
    def("rtindex-core.range_ns_per_op", "ns", Lower, Host,
        "read_p50_ms on bulk_probe; not serve_read"),
    def("rtindex-core.build_s", "s", Lower, Host,
        "setup_s on bulk_probe"),
    // gpu-baselines
    def("gpu-baselines.ht_point_ns_per_op", "ns", Lower, Host,
        "the paper's RX-vs-baseline table; read_ops_per_s on table_serve"),
    def("gpu-baselines.bplus_point_ns_per_op", "ns", Lower, Host,
        "the paper's RX-vs-baseline table"),
    def("gpu-baselines.sa_point_ns_per_op", "ns", Lower, Host,
        "the paper's RX-vs-baseline table; read_ops_per_s on table_serve"),
    def("gpu-baselines.bplus_range_ns_per_op", "ns", Lower, Host,
        "the paper's RX-vs-baseline table"),
    def("gpu-baselines.sa_range_ns_per_op", "ns", Lower, Host,
        "the paper's RX-vs-baseline table; read_ops_per_s on table_serve"),
    def("gpu-baselines.build_s", "s", Lower, Host,
        "setup_s on table_serve (sum of the HT, B+ and SA builds at 2^20)"),
    // rtx-query
    def("rtx-query.execute_self_ns_16op", "ns", Lower, Host,
        "read_p50_ms on serve_read"),
    def("rtx-query.fuse_ns_per_op", "ns", Lower, Host,
        "read_ops_per_s on serve_read"),
    def("rtx-query.scatter_plan_ns_per_op", "ns", Lower, Host,
        "read_ops_per_s on serve_read"),
    def("rtx-query.typed_x", "x", Lower, Host,
        "read_ops_per_s on table_serve"),
    // rtx-shard
    def("rtx-shard.small_batch_x", "x", Lower, Host,
        "read_p50_ms on serve_read"),
    def("rtx-shard.bulk_x", "x", Lower, Host,
        "read_ops_per_s on serve_read; bulk_probe untouched"),
    def("rtx-shard.write_x", "x", Lower, Host,
        "bench.write_rows_per_s on mixed_durable"),
    exact("rtx-shard.imbalance_permille", "permille", Lower, Count,
        "read_p99_ms on serve_read"),
    // rtx-serve
    def("rtx-serve.request_self_us", "us", Lower, Host,
        "read_p50_ms on serve_read"),
    def("rtx-serve.submit_ns", "ns", Lower, Host,
        "read_ops_per_s on serve_read"),
    def("rtx-serve.mean_fused_ops", "ops", Higher, Count,
        "read_ops_per_s on serve_read"),
    def("rtx-serve.linger_us_mean", "us", Lower, Count,
        "read_p50_ms on serve_read"),
    def("rtx-serve.peak_queued_ops", "ops", Lower, Count,
        "read_p99_ms on serve_read"),
    exact("rtx-serve.rejected_share", "fraction", Lower, Count,
        "bench.failed_share"),
    def("rtx-serve.write_stall_us_mean", "us", Lower, Host,
        "read_p99_ms on mixed_durable; zero on serve_read"),
    def("rtx-serve.write_stall_us_max", "us", Lower, Host,
        "read_p99_ms on mixed_durable; zero on serve_read"),
    def("rtx-serve.table_request_self_us", "us", Lower, Host,
        "read_p50_ms on table_serve"),
    // rtx-delta
    def("rtx-delta.upsert_ns_per_row", "ns", Lower, Host,
        "bench.write_p50_ms, bench.write_rows_per_s on mixed_durable"),
    def("rtx-delta.read_x", "x", Lower, Host,
        "read_p50_ms on mixed_durable"),
    exact("rtx-delta.compactions", "count", Lower, Count,
        "bench.write_p99_ms, read_p99_ms on mixed_durable"),
    def("rtx-delta.compact_s", "s", Lower, Host,
        "bench.write_p99_ms, read_p99_ms on mixed_durable"),
    // rtx-durable
    exact("rtx-durable.fsyncs_per_batch", "count", Lower, Count,
        "bench.write_p50_ms, bench.write_rows_per_s on mixed_durable"),
    def("rtx-durable.wal_append_us", "us", Lower, Host,
        "bench.write_p50_ms on mixed_durable"),
    def("rtx-durable.write_x", "x", Lower, Host,
        "bench.write_rows_per_s on mixed_durable"),
    exact("rtx-durable.bytes_written_per_user_byte", "x", Lower, Count,
        "the write-cost side of the trade; no latency metric"),
    def("rtx-durable.disk_bytes_per_row", "B", Lower, Count,
        "the space side of the trade; no latency metric"),
    def("rtx-durable.checkpoint_s", "s", Lower, Host,
        "bench.write_p99_ms, read_p99_ms on mixed_durable"),
    def("rtx-durable.replay_us_per_batch", "us", Lower, Host,
        "bench.recovery_s on mixed_durable"),
    // rtx-table
    def("rtx-table.plan_us", "us", Lower, Host,
        "read_ops_per_s on table_serve"),
    def("rtx-table.query_us", "us", Lower, Host,
        "read_ops_per_s on table_serve"),
    def("rtx-table.ingest_ms", "ms", Lower, Host,
        "bench.write_p50_ms and, through the fence, read_ops_per_s on table_serve"),
    exact("rtx-table.rebuilds_per_batch", "count", Lower, Count,
        "bench.write_p50_ms on table_serve"),
    exact("rtx-table.scan_share", "fraction", Lower, Count,
        "read_ops_per_s on table_serve"),
    exact("rtx-table.rollbacks", "count", Lower, Count,
        "bench.failed_share on table_serve"),
    // Self times from the outside-in trace: a span minus its child.
    def("trace.rtx-shard.execute.self_us", "us", Lower, Host,
        "read_p50_ms on serve_read"),
    def("trace.rtx-query.execute.self_us", "us", Lower, Host,
        "read_p50_ms on serve_read, read_ops_per_s on bulk_probe"),
    def("trace.rtindex-core.lookup.self_us", "us", Lower, Host,
        "read_ops_per_s on bulk_probe"),
    def("trace.optix-sim.launch.self_us", "us", Lower, Host,
        "read_ops_per_s on bulk_probe, read_p50_ms on serve_read"),
    def("trace.rtx-serve.write.self_us", "us", Lower, Host,
        "bench.write_p50_ms on mixed_durable"),
    def("trace.rtx-durable.write.self_us", "us", Lower, Host,
        "bench.write_p50_ms on mixed_durable"),
    def("trace.rtx-shard.write.self_us", "us", Lower, Host,
        "bench.write_p50_ms on mixed_durable"),
    def("trace.rtx-delta.write.self_us", "us", Lower, Host,
        "bench.write_p50_ms on mixed_durable"),
];

pub fn metric_def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64, "{}", d.name);
            assert!(
                d.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                d.name
            );
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d.unit.len() <= 16 && !d.unit.is_empty(), "{}", d.unit);
            assert!(
                d.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                d.unit
            );
        }
        assert!(PER_LAYER.len() <= 128);
    }
}

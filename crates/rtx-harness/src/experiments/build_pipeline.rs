//! Beyond-paper experiment: the staged parallel build pipeline
//! (`build_throughput`).
//!
//! How does simulated build throughput of the staged BVH pipeline scale
//! with the number of concurrent build queues, per builder (`lbvh` /
//! `sah`)? The emitted structure is verified bit-identical across widths
//! while measuring, so the speedup is pure scheduling, never a different
//! tree. The simulated times are pure cost-model functions, so the table is
//! deterministic.
//!
//! The write stall a compaction inflicts — stop-the-world vs the
//! two-generation background mode — is a host wall-clock number, and the
//! background swap lands at a host-timed moment. The benchmark package
//! measures it (`rtx-serve.write_stall_us_mean`/`_max`,
//! `rtx-delta.compact_s`); this module's tests keep the ordering
//! (background below sync) asserted.

use gpu_device::Device;
use optix_sim::{AccelBuildOptions, BuildInput, GeometryAccel, PrimitiveKind};
use rtindex_core::KeyMode;
use rtx_bvh::BuilderKind;
use rtx_workloads as wl;

use crate::report::{fmt_ms, fmt_throughput, Table};
use crate::scale::ExperimentScale;

/// Build-queue widths of the scaling sweep.
pub const QUEUE_WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// One measured staged build.
#[derive(Debug, Clone, Copy)]
pub struct BuildCell {
    /// Builder name (`"lbvh"` / `"sah"`).
    pub builder: &'static str,
    /// Concurrent build queues the pipeline was simulated at.
    pub workers: usize,
    /// Keys (primitives) built over.
    pub keys: usize,
    /// Simulated device seconds of the staged build.
    pub sim_s: f64,
}

impl BuildCell {
    /// Simulated build throughput in keys per second.
    fn throughput(&self) -> f64 {
        if self.sim_s <= 0.0 {
            return 0.0;
        }
        self.keys as f64 / self.sim_s
    }
}

fn builder_kind(name: &str) -> BuilderKind {
    match name {
        "sah" => BuilderKind::Sah,
        _ => BuilderKind::Lbvh,
    }
}

/// Runs the staged build at every queue width for both builders over
/// `keys`, asserting the emitted hierarchy is bit-identical across widths.
pub fn run_build_scaling(device: &Device, keys: &[u64]) -> Vec<BuildCell> {
    let mode = KeyMode::three_d_default();
    let centers = mode.centers(keys);
    let input = BuildInput::from_centers(PrimitiveKind::Triangle, &centers);

    let mut cells = Vec::new();
    for builder in ["lbvh", "sah"] {
        let mut reference: Option<GeometryAccel> = None;
        for &workers in &QUEUE_WIDTHS {
            let options = AccelBuildOptions {
                builder: builder_kind(builder),
                ..AccelBuildOptions::default()
            }
            .with_build_workers(workers);
            let gas = GeometryAccel::build(device, &input, &options);
            cells.push(BuildCell {
                builder,
                workers,
                keys: keys.len(),
                sim_s: gas.metrics().simulated_time_s,
            });
            match &reference {
                Some(reference) => {
                    assert_eq!(
                        reference.bvh().nodes,
                        gas.bvh().nodes,
                        "{builder} build must be bit-identical across queue widths"
                    );
                    assert_eq!(reference.bvh().prim_indices, gas.bvh().prim_indices);
                }
                None => {
                    gas.bvh().validate().expect("valid staged build");
                    reference = Some(gas);
                }
            }
        }
    }
    cells
}

/// The `build_throughput` experiment: build scaling over queue widths.
pub fn run(scale: &ExperimentScale) -> Vec<Table> {
    let device = crate::scaled_device(scale);
    let keys = wl::dense_shuffled(scale.default_keys(), scale.seed);
    let cells = run_build_scaling(&device, &keys);

    let mut table = Table::new(
        format!(
            "Staged build pipeline: simulated build time vs build queues, 2^{} keys",
            scale.keys_exp
        ),
        &["builder", "queues", "sim [ms]", "keys/s", "speedup"],
    );
    for builder in ["lbvh", "sah"] {
        let serial = cells
            .iter()
            .find(|c| c.builder == builder && c.workers == 1)
            .expect("serial cell");
        for cell in cells.iter().filter(|c| c.builder == builder) {
            table.push_row(vec![
                cell.builder.to_string(),
                cell.workers.to_string(),
                fmt_ms(cell.sim_s * 1e3),
                fmt_throughput(cell.throughput()),
                format!("{:.2}x", serial.sim_s / cell.sim_s),
            ]);
        }
    }

    vec![table]
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use rtindex_core::RtIndexConfig;
    use rtx_delta::{CompactionPolicy, DynamicAdapter, DynamicRtConfig};
    use rtx_query::{IndexSpec, QueryBatch, SecondaryIndex, UpdatableIndex};

    use super::*;

    /// Write batches of a compaction-stall run.
    const STALL_WRITES: usize = 16;

    /// Write-stall statistics of one mixed-workload run.
    struct StallRun {
        /// Compactions completed (merges or background swaps).
        reorganisations: u64,
        /// SAH cost of the most recent compaction rebuild, surfaced from
        /// its [`CompactionEvent`](rtx_delta::CompactionEvent) quality.
        last_rebuild_sah_cost: f64,
        /// Per-write host latencies in seconds (the queue-order fence wait
        /// a co-queued request shares in `rtx-serve`), sorted ascending.
        write_stall_s: Vec<f64>,
    }

    impl StallRun {
        /// The p99 write stall in seconds.
        fn p99(&self) -> f64 {
            let rank = ((self.write_stall_s.len() as f64 * 0.99).ceil() as usize)
                .clamp(1, self.write_stall_s.len());
            self.write_stall_s[rank - 1]
        }
    }

    /// Drives one mixed read/write stream over the dynamic index, with
    /// stop-the-world or background compaction, and times every write's
    /// apply — exactly the fence wait `rtx-serve` charges every request
    /// queued behind the write. Keys are capped at 2^14 so a synchronous
    /// rebuild stays in the tens of milliseconds.
    fn run_compaction_stall(scale: &ExperimentScale, background: bool) -> StallRun {
        let device = crate::scaled_device(scale);
        let n = scale.default_keys().min(1 << 14);
        let keys = wl::dense_shuffled(n, scale.seed);
        let values = wl::value_column(n, scale.seed + 1);
        let batch = (n / 8).max(1);

        let config = DynamicRtConfig::default()
            .with_rx(RtIndexConfig::default())
            .with_policy(CompactionPolicy {
                max_delta_entries: batch,
                max_delta_fraction: f64::INFINITY,
                max_delete_ratio: f64::INFINITY,
            })
            .with_background_compaction(background);
        let spec = IndexSpec::with_values(&device, &keys, &values);
        let mut index = DynamicAdapter::build(&spec, config).expect("dynamic build");

        let mut stalls = Vec::with_capacity(STALL_WRITES);
        let mut reorganisations = 0u64;
        let queries = wl::point_lookups(&keys, 64, scale.seed + 2);
        let reads = QueryBatch::of_points(&queries).fetch_values(true);
        for w in 0..STALL_WRITES {
            // A read batch between writes keeps the mixed workload honest
            // (and, in background mode, overlaps the in-flight rebuild).
            let out = index.execute(&reads).expect("read batch");
            assert_eq!(out.results.len(), queries.len());

            let fresh: Vec<u64> = (0..batch as u64)
                .map(|i| (2 * n + w * batch) as u64 + i)
                .collect();
            let fresh_values: Vec<u64> = fresh.iter().map(|k| k ^ 0x5EED).collect();
            let start = Instant::now();
            let report = index.insert(&fresh, &fresh_values).expect("write batch");
            stalls.push(start.elapsed().as_secs_f64());
            reorganisations += report.reorganisations;
        }
        // Land any still-running rebuild so both modes finish in a settled
        // state (not timed — a server would absorb this on the next write).
        if index.inner_mut().wait_for_compaction().is_some() {
            reorganisations += 1;
        }
        stalls.sort_by(f64::total_cmp);

        StallRun {
            reorganisations,
            last_rebuild_sah_cost: index
                .inner()
                .last_compaction()
                .map_or(0.0, |event| event.quality.sah_cost),
            write_stall_s: stalls,
        }
    }

    #[test]
    fn staged_build_scales_and_stays_bit_identical() {
        let scale = ExperimentScale::tiny();
        let device = crate::scaled_device(&scale);
        let keys = wl::dense_shuffled(scale.default_keys(), scale.seed);
        let cells = run_build_scaling(&device, &keys);
        assert_eq!(cells.len(), QUEUE_WIDTHS.len() * 2);
        for builder in ["lbvh", "sah"] {
            let serial = cells
                .iter()
                .find(|c| c.builder == builder && c.workers == 1)
                .unwrap();
            let wide = cells
                .iter()
                .find(|c| c.builder == builder && c.workers == 8)
                .unwrap();
            assert!(
                wide.sim_s <= serial.sim_s,
                "{builder}: more queues must never slow the simulated build"
            );
        }
    }

    /// The acceptance bar: at 2^20 keys, 8 build queues deliver at least 3x
    /// the single-queue simulated throughput, with the parallel build
    /// verified bit-identical across widths (inside `run_build_scaling`,
    /// exercised by the tiny-scale test above; here the two widths that
    /// matter are compared directly to keep the 2^20 run affordable).
    #[test]
    fn eight_queues_triple_throughput_on_2_20_keys() {
        let scale = ExperimentScale::medium(); // 2^20 keys
        let device = crate::scaled_device(&scale);
        let keys = wl::dense_shuffled(scale.default_keys(), scale.seed);
        let mode = KeyMode::three_d_default();
        let centers = mode.centers(&keys);
        let input = BuildInput::from_centers(PrimitiveKind::Triangle, &centers);
        let mut sim = [0.0f64; 2];
        let mut trees = Vec::new();
        for (slot, workers) in [(0usize, 1usize), (1, 8)] {
            let gas = GeometryAccel::build(
                &device,
                &input,
                &AccelBuildOptions::default().with_build_workers(workers),
            );
            sim[slot] = gas.metrics().simulated_time_s;
            trees.push(gas);
        }
        assert_eq!(
            trees[0].bvh().nodes,
            trees[1].bvh().nodes,
            "bit-identical across widths"
        );
        let speedup = sim[0] / sim[1];
        assert!(
            speedup >= 3.0,
            "8 queues over 2^20 keys must give >= 3x, got {speedup:.2}x"
        );
    }

    #[test]
    fn background_compaction_beats_synchronous_write_stall() {
        let scale = ExperimentScale::tiny();
        let sync = run_compaction_stall(&scale, false);
        let background = run_compaction_stall(&scale, true);
        assert!(sync.reorganisations > 0, "the policy must have fired");
        assert!(
            background.reorganisations > 0,
            "background swaps must have landed"
        );
        assert!(
            background.p99() < sync.p99(),
            "background p99 stall {:.3}ms must be strictly below sync {:.3}ms",
            background.p99() * 1e3,
            sync.p99() * 1e3
        );
        assert!(
            sync.last_rebuild_sah_cost > 0.0 && background.last_rebuild_sah_cost > 0.0,
            "rebuild quality is surfaced after compactions"
        );
    }

    #[test]
    fn smoke_tables() {
        let tables = run(&ExperimentScale::tiny());
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].rows.len(), QUEUE_WIDTHS.len() * 2);
    }
}

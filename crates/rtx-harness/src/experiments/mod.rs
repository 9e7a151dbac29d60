//! One module per reproduced table/figure of the paper's evaluation.
//!
//! Every module exposes at least one `run(scale) -> Vec<Table>` function that
//! regenerates the corresponding result at the requested
//! [`ExperimentScale`](crate::scale::ExperimentScale), plus a smoke test at
//! tiny scale that checks the qualitative property the paper reports.

pub mod build_pipeline;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig3;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod planner_selection;
pub mod recovery_throughput;
pub mod shard_scaling;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod update_throughput;

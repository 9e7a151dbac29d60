//! The repository benchmark: four workloads over the `rtindex` facade, five
//! end-to-end metrics every workload reports, per-crate layer metrics and an
//! outside-in traced run. `README.md` is the guide; `catalog` lists every
//! name; `sut` is the only module that touches the library.

pub mod catalog;
pub mod cli;
pub mod compare;
pub mod gen;
pub mod json;
pub mod oracle;
pub mod report;
pub mod spans;
pub mod stats;
pub mod sut;
pub mod trace;
pub mod workloads;

/// The body of `bench-run` (`trace` false) and `bench-trace` (`trace` true):
/// parses the arguments after the program name, runs the workload, prints
/// the result and returns the exit code.
pub fn main_with(args: &[String], trace: bool) -> i32 {
    if cfg!(debug_assertions) {
        eprintln!("bench: refusing to measure a debug build; build with --release");
        return 2;
    }
    let config = match cli::parse(args, trace) {
        Ok(config) => config,
        Err(message) => {
            eprintln!("bench: {message}\nusage: {}", cli::USAGE);
            return 2;
        }
    };
    // Before any thread starts: the library reads it when its pool spawns.
    sut::pin_workers(workloads::PINNED_WORKERS);
    let measured = if trace {
        trace::run(&config)
    } else {
        workloads::run(&config)
    };
    match measured {
        Ok(measured) => report::emit(&config, &measured, sut::worker_count()),
        Err(message) => {
            eprintln!("bench: {}: {message}", config.workload);
            1
        }
    }
}

//! `bench-run --workload W [--seed N] [--seconds S]`: see the package README.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(rtindex_benchmark::main_with(&args, false));
}

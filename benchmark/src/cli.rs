//! Argument parsing shared by `bench-run` and `bench-trace`.

use std::path::PathBuf;

use crate::catalog::WORKLOADS;
use crate::report::Config;

pub const USAGE: &str = "--workload <bulk_probe|serve_read|mixed_durable|table_serve> \
[--seed N] [--seconds S] [--trace 0|1] [--work-dir DIR] [--out FILE] [--smoke]";

/// Seconds a run measures when `--seconds` is absent (`run_seconds` of
/// `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 28.0;

fn value<'a>(flag: &str, args: &mut impl Iterator<Item = &'a String>) -> Result<&'a str, String> {
    args.next()
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value"))
}

/// Parses the arguments after the program name. `trace` is what the binary
/// does; a contradicting `--trace` is an error, so the wrong binary cannot
/// be started silently.
pub fn parse(args: &[String], trace: bool) -> Result<Config, String> {
    let mut config = Config {
        workload: String::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace,
        smoke: false,
        work_dir: PathBuf::from("target/benchmark"),
        out: None,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--workload" => config.workload = value(arg, &mut iter)?.to_string(),
            "--seed" => {
                let raw = value(arg, &mut iter)?;
                config.seed = raw.parse().map_err(|_| format!("invalid seed '{raw}'"))?;
            }
            "--seconds" => {
                let raw = value(arg, &mut iter)?;
                config.seconds = raw
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("invalid seconds '{raw}'"))?;
            }
            "--trace" => {
                let raw = value(arg, &mut iter)?;
                let asked = match raw {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("invalid trace '{raw}' (0 or 1)")),
                };
                if asked != trace {
                    return Err(format!(
                        "--trace {raw} belongs to {}",
                        if asked { "bench-trace" } else { "bench-run" }
                    ));
                }
            }
            "--work-dir" => config.work_dir = PathBuf::from(value(arg, &mut iter)?),
            "--out" => config.out = Some(PathBuf::from(value(arg, &mut iter)?)),
            "--smoke" => config.smoke = true,
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    if !WORKLOADS.contains(&config.workload.as_str()) {
        return Err(format!(
            "unknown workload '{}' (one of {})",
            config.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let config = parse(
            &args(&[
                "--workload",
                "serve_read",
                "--seed",
                "7",
                "--seconds",
                "12",
                "--trace",
                "0",
            ]),
            false,
        )
        .unwrap();
        assert_eq!(config.workload, "serve_read");
        assert_eq!(config.seed, 7);
        assert_eq!(config.seconds, 12.0);
        assert!(!config.trace && !config.smoke);
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            vec!["--workload", "nope"],
            vec![],
            vec!["--workload", "serve_read", "--seed", "x"],
            vec!["--workload", "serve_read", "--seconds", "0"],
            vec!["--workload", "serve_read", "--trace", "1"],
            vec!["--workload", "serve_read", "--frobnicate"],
            vec!["--workload"],
        ] {
            assert!(parse(&args(&bad), false).is_err(), "{bad:?}");
        }
    }
}

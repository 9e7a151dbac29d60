//! `bench-compare A.json B.json [--spec BENCHMARK.json]`: holds two result
//! files against the bounds of `BENCHMARK.json`; exits 1 outside them.

use rtindex_benchmark::compare::{bounds, compare, render, ResultSet};
use rtindex_benchmark::json::Json;

fn load(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn run(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut spec = "BENCHMARK.json".to_string();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--spec" => spec = iter.next().ok_or("--spec needs a path")?.clone(),
            flag if flag.starts_with("--") => return Err(format!("unexpected argument '{flag}'")),
            file => files.push(file.to_string()),
        }
    }
    let [a, b] = files.as_slice() else {
        return Err("usage: bench-compare A.json B.json [--spec BENCHMARK.json]".to_string());
    };
    let bounds = bounds(&Json::parse(&load(&spec)?)?)?;
    let side_a = ResultSet::parse(&load(a)?).map_err(|e| format!("{a}: {e}"))?;
    let side_b = ResultSet::parse(&load(b)?).map_err(|e| format!("{b}: {e}"))?;
    let rows = compare(&side_a, &side_b, &bounds);
    print!("{}", render(&rows));
    let failing = rows.iter().filter(|r| r.verdict.fails()).count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict.name() == "unresolved")
        .count();
    println!(
        "{} rows, {failing} outside bounds, {unresolved} unresolved; failed operations: A {} B {}",
        rows.len(),
        side_a.failed,
        side_b.failed
    );
    Ok(failing == 0 && side_b.failed <= side_a.failed)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(message) => {
            eprintln!("bench-compare: {message}");
            std::process::exit(2);
        }
    }
}

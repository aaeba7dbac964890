//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Run from the repository root, e.g.
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload route_read --seed 1 --seconds 20 --trace 0`.
//! Prints a metadata line, then the JSON result as the last line of
//! standard output. Exits 0 when every check passed, 2 when a check or
//! operation failed, 1 when the run could not be carried out.

use perfbench::{meta_line, result_line, run, Run, Sizes, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse_args(args: &[String]) -> Result<Run, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Run {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        sizes: Sizes::full(),
        trace_dir: PathBuf::from(".perfbench"),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let r = match parse_args(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let outcome = match run(&r) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", r.workload.name());
            return ExitCode::from(1);
        }
    };
    let line = match result_line(&outcome, r.trace) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    println!("{}", meta_line(&r, &outcome));
    println!("{line}");
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: failed checks: {:?}", outcome.failed_checks());
        ExitCode::from(2)
    }
}

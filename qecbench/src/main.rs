//! `qecbench`: the end-to-end benchmark of the QEC workspace.
//!
//! ```text
//! qecbench --workload <cold_rank|warm_expand> --seed <n> --seconds <s>
//!          --trace <0|1>
//! ```
//!
//! Generates a seeded corpus, boots the engine from it, drives the
//! workload through the public API for `--seconds`, checks every
//! response against an independent oracle, and prints accounting lines
//! followed by one JSON line: `{"correct", "attempted", "failed",
//! "metrics"}`. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! runs the separate traced decomposition and reports the per-layer
//! metrics. Exits non-zero when any check fails.

mod gen;
mod oracle;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;

use workload::{Args, Report};

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds {} outside (0, 600]", args.seconds));
    }
    Ok(args)
}

fn run(args: &Args) -> Result<Report, String> {
    if args.trace {
        return trace::run(args);
    }
    match args.workload.as_str() {
        "cold_rank" => workload::cold_rank(args),
        "warm_expand" => workload::warm_expand(args),
        w => Err(format!("unknown workload {w:?} (cold_rank, warm_expand)")),
    }
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qecbench: {e}");
            eprintln!(
                "usage: qecbench --workload <cold_rank|warm_expand> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("qecbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for line in &report.lines {
        println!("# {line}");
    }
    for e in &report.errors {
        println!("# CHECK FAILED: {e}");
    }
    let correct = report.errors.is_empty();
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints its result as the last line of standard
//! output. Exits 1 when an output check fails (the result is still
//! printed), and 2 without a result on a usage error or when the run could
//! not measure.

use entmatcher_support::alloc::CountingAlloc;
use perfbench::{Options, Scale, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

// Counting stays off (one relaxed load per allocation) except in the
// untimed heap pass and the traced run.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str =
    "usage: perfbench --workload <paper-dense|large-stream> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
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
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: Scale::Full,
        work_root: PathBuf::from(".perfbench"),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match perfbench::run(&opts) {
        Ok(o) => o,
        Err(perfbench::Invalid(msg)) => {
            eprintln!("run could not measure, nothing reported: {msg}");
            return ExitCode::from(2);
        }
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    for err in &outcome.checks.errors {
        eprintln!("check failed: {err}");
    }
    println!("{}", outcome.result_line());
    if outcome.checks.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

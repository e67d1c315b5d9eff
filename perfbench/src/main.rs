//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <learn-grid|learn-cloud-sf|serve-mixed> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a header with the host, every metric with its unit and
//! direction, and as its last line one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. With
//! `--trace 0` the metrics are the end-to-end ones, measured with the
//! recorder off; with `--trace 1` the run also turns on `sgl-trace` and
//! the metrics are the per-layer ones. Exits non-zero when any output
//! fails its check.

mod inputs;
mod learn;
mod load;
mod probes;
mod report;
mod serve;
mod stats;

use std::time::Duration;

use report::Report;

const WORKLOADS: [&str; 3] = ["learn-grid", "learn-cloud-sf", "serve-mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => {
                return Err(format!("unknown workload {value:?}; one of {WORKLOADS:?}"))
            }
            "--seed" => seed = Some(number()?),
            "--seconds" if number()? >= 1 => seconds = Some(number()?),
            "--trace" if value == "0" || value == "1" => trace = Some(value == "1"),
            _ => return Err(format!("unexpected argument {flag} {value}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = sgl_linalg::par::max_threads();
    let mut report = Report::new(&args.workload, args.seed, args.trace, host_cores, threads);
    let budget = Duration::from_secs(args.seconds);
    match args.workload.as_str() {
        "learn-grid" => learn::run(
            learn::Kind::Grid,
            args.seed,
            budget,
            args.trace,
            threads,
            &mut report,
        ),
        "learn-cloud-sf" => learn::run(
            learn::Kind::CloudSf,
            args.seed,
            budget,
            args.trace,
            threads,
            &mut report,
        ),
        _ => serve::run(args.seed, budget, args.trace, threads, &mut report),
    }
    report.set("run.fail_share", report.fail_share());
    print!("{}", report.human());
    println!("{}", report.json());
    if !report.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv(
            "--workload serve-mixed --seed 42 --seconds 7 --trace 1",
        ))
        .expect("valid arguments");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-mixed", 42, 7, true)
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope --seed 1",
            "--workload learn-grid",
            "--workload learn-grid --seed x",
            "--workload learn-grid --seed 1 --trace 2",
            "--workload learn-grid --seed 1 --seconds 0",
            "--workload learn-grid --seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "accepted {bad:?}");
        }
    }
}

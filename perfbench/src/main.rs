//! Command-line entry point of the benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload oltp --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints a human-readable table, then, as the last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Exits non-zero
//! when a correctness check fails.

use std::process::ExitCode;
use std::time::Duration;
use tcpdemux_perfbench::{
    bulk::Bulk, churn::Churn, oltp::Oltp, report, run_serial, sharded, Limit, RunConfig,
};

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <oltp|bulk|churn|sharded> --seed <n> --seconds <n> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage();
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|&s| s > 0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage();
    };
    let config = RunConfig {
        seed,
        limit: Limit::Time(Duration::from_secs(seconds)),
        trace,
    };
    let run = match workload.as_str() {
        "oltp" => run_serial::<Oltp>(config),
        "bulk" => run_serial::<Bulk>(config),
        "churn" => run_serial::<Churn>(config),
        "sharded" => sharded::run(config),
        _ => return usage(),
    };
    let run = match run {
        Ok(run) => run,
        Err(fatal) => {
            eprintln!("perfbench: {workload}: {}", fatal.0);
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(log) = &run.span_log {
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("spans-{workload}.tsv"));
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, log)) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }
    let report = report::report(&run);
    for line in &report.lines {
        println!("{line}");
    }
    println!("{}", report.json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

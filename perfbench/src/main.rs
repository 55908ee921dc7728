//! Command line: `perfbench --workload NAME --seed N --seconds S --trace 0|1
//! [--work-dir DIR]`. Prints a human-readable report,
//! then one JSON result line; exits non-zero on any wrong answer.

use perfbench::bench::{run, Config, Limit};
use perfbench::measure::result_line;
use perfbench::workload::{spec, SPECS};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload {{{}}} --seed N --seconds S --trace 0|1 [--work-dir DIR]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = PathBuf::from("perfbench-work");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = spec(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--work-dir" => work_dir = PathBuf::from(value),
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(spec), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: create {}: {e}", work_dir.display());
        return ExitCode::from(2);
    }
    let cfg = Config {
        spec,
        seed,
        limit: Limit::Seconds(seconds),
        trace,
        work_dir,
    };
    match run(&cfg) {
        Ok(out) => {
            print!("{}", out.report);
            for m in &out.metrics {
                println!("{:<32} {:>16} {}", m.name, m.value, m.unit);
            }
            let correct = out.failed == 0;
            println!(
                "{}",
                result_line(correct, out.attempted, out.failed, &out.metrics)
            );
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

//! esdb-benchmark — the one benchmark every performance or simplicity PR is
//! judged with. See `benchmark/README.md` for the method and its reasons.
//!
//! ```text
//! esdb-benchmark --workload NAME --seed N --seconds S --trace 0|1   one workload, this process
//! esdb-benchmark [--seed N] [--trace] [--quick] [--out FILE]         every workload, one process each
//! esdb-benchmark compare BASE.json NEW.json                          verdict per (workload, metric)
//! ```

mod compare;
mod driver;
mod host;
mod json;
mod report;
mod stats;
mod sut;
mod trace;

use json::Value;
use std::process::ExitCode;

/// Where records, traces and combined result files land.
const OUT_DIR: &str = "benchmark/out";
/// Seconds per run when `--seconds` is absent: ten one-second windows.
const DEFAULT_SECONDS: u64 = 10;
/// `--quick`: five windows, every oracle.
const QUICK_SECONDS: u64 = 5;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<String>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
    };
    let mut pending_trace_value = false;
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or_else(|| format!("{name} needs a value"));
        if std::mem::take(&mut pending_trace_value) && matches!(arg.as_str(), "0" | "1") {
            args.trace = arg == "1";
            continue;
        }
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed: whole number")?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds: whole number")?;
            }
            // `--trace 0|1` (the driver's form) or a bare `--trace`.
            "--trace" => {
                args.trace = true;
                pending_trace_value = true;
            }
            "--quick" => args.seconds = QUICK_SECONDS,
            "--out" => args.out = Some(value("--out")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(2..=60).contains(&args.seconds) {
        return Err("--seconds must be between 2 and 60".to_string());
    }
    Ok(args)
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn record_path(workload: &str, traced: bool) -> String {
    format!("{OUT_DIR}/{workload}.t{}.json", u8::from(traced))
}

/// Every workload, each in a child process of its own so that no workload
/// inherits another's heap, page cache or obs histograms; then one combined
/// result file for `compare`.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut runs = Vec::new();
    for traced in [false, true] {
        if traced && !args.trace {
            continue;
        }
        for workload in sut::WORKLOADS {
            let status = std::process::Command::new(&exe)
                .args(["--workload", workload])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .status()
                .map_err(|e| format!("spawn {workload}: {e}"))?;
            if !status.success() {
                return Err(format!(
                    "{workload} (trace {}) failed: {status}",
                    u8::from(traced)
                ));
            }
            runs.push(read_json(&record_path(workload, traced))?);
        }
    }
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| format!("{OUT_DIR}/result-seed{}.json", args.seed));
    let file = Value::obj([("runs", Value::Arr(runs))]);
    std::fs::write(&out, format!("{file}\n")).map_err(|e| format!("{out}: {e}"))?;
    println!("\nresult file: {out}");
    Ok(())
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    let result = if argv.peek().map(String::as_str) == Some("compare") {
        let (base, new) = (argv.nth(1), argv.next());
        match (base, new) {
            (Some(base), Some(new)) => read_json("BENCHMARK.json")
                .and_then(|b| compare::compare_files(&b, &read_json(&base)?, &read_json(&new)?))
                .and_then(|n| {
                    if n == 0 {
                        Ok(())
                    } else {
                        Err(format!("{n} metric(s) regressed"))
                    }
                }),
            _ => Err("usage: compare BASE.json NEW.json".to_string()),
        }
    } else {
        parse_args(argv).and_then(|args| {
            std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
            match &args.workload {
                Some(workload) => report::run_one(workload, args.seed, args.seconds, args.trace),
                None => run_all(&args),
            }
        })
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("esdb-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn the_drivers_command_line_and_the_human_one_both_parse() {
        let a = parse("--workload olap.scan --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("olap.scan"), 7, 10, true)
        );
        assert!(!parse("--workload olap.scan --trace 0").unwrap().trace);
        let a = parse("--trace --quick").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (None, 42, QUICK_SECONDS, true)
        );
        assert!(parse("--trace --seed 3").unwrap().trace);
        assert!(parse("--seconds 1").is_err());
        assert!(parse("--bogus").is_err());
    }

    /// `BENCHMARK.json` and the code must name the same workloads and
    /// metrics: the driver checks the printed metrics against the file.
    #[test]
    fn benchmark_json_lists_what_the_code_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let b = read_json(path).unwrap();
        let names = |key: &str| -> Vec<String> {
            b.get(key)
                .unwrap()
                .as_arr()
                .iter()
                .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), sut::WORKLOADS);
        assert_eq!(
            names("end_to_end"),
            report::END_TO_END.map(|(name, _)| name)
        );
        assert_eq!(names("per_layer"), report::PER_LAYER.map(|(name, _)| name));
        let units = |key: &str| -> Vec<String> {
            b.get(key)
                .unwrap()
                .as_arr()
                .iter()
                .map(|m| m.get("unit").unwrap().as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(
            units("end_to_end"),
            report::END_TO_END.map(|(_, unit)| unit)
        );
        assert_eq!(units("per_layer"), report::PER_LAYER.map(|(_, unit)| unit));
        assert_eq!(
            b.get("run_seconds").unwrap().as_f64(),
            Some(DEFAULT_SECONDS as f64)
        );
    }
}

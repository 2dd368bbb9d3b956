//! Command line of the benchmark.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, one JSON result line
//! benchmark run --seed <n> [--seconds <s>] [--out <dir>] [--smoke]     all workloads, tables + results.json
//! benchmark run-one <workload> --seed <n> --window-ms <ms> --mode <m>  one repeat in this process
//! benchmark compare <a/results.json> <b/results.json>                  verdict per workload and metric
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use benchmark::metrics;
use benchmark::report::{self, Plan};
use benchmark::runone::{run_one, Mode};
use benchmark::workloads::Workload;
use benchmark::{compare, json};

/// Default `--seconds`, the value `BENCHMARK.json` carries as `run_seconds`.
const DEFAULT_SECONDS: u64 = 10;

const USAGE: &str = "usage:
  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  benchmark run --seed <n> [--seconds <s>] [--out <dir>] [--smoke]
  benchmark run-one <workload> --seed <n> --window-ms <ms> --mode <measured|traced|plain>
                    [--min-commits <n>] [--trace-out <file>] [--smoke]
  benchmark compare <a/results.json> <b/results.json>
workloads: retwis_mix read_hot write_churn failover_checked";

/// `--flag value` pairs and bare words, in order.
struct Args {
    flags: Vec<(String, String)>,
    words: Vec<String>,
}

impl Args {
    fn parse(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            flags: Vec::new(),
            words: Vec::new(),
        };
        while let Some(a) = raw.next() {
            match a.strip_prefix("--") {
                Some("smoke") => args.flags.push(("smoke".into(), String::new())),
                Some(name) => {
                    let value = raw.next().ok_or(format!("--{name} needs a value"))?;
                    args.flags.push((name.to_string(), value));
                }
                None => args.words.push(a),
            }
        }
        Ok(args)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn num(&self, name: &str) -> Result<Option<u64>, String> {
        self.get(name)
            .map(|v| v.parse().map_err(|_| format!("--{name} {v}: not a number")))
            .transpose()
    }

    fn required(&self, name: &str) -> Result<u64, String> {
        self.num(name)?.ok_or(format!("--{name} is required"))
    }
}

fn workload(name: &str) -> Result<Workload, String> {
    Workload::by_name(name).ok_or(format!("unknown workload {name:?}"))
}

fn report_failures(failures: &[String]) {
    for f in failures {
        eprintln!("FAILED CHECK: {f}");
    }
}

/// The contract entry point: one workload, one result line.
fn contract(args: &Args) -> Result<ExitCode, String> {
    let w = workload(args.get("workload").ok_or("--workload is required")?)?;
    let seed = args.required("seed")?;
    let plan = Plan {
        seconds: args.required("seconds")?,
        smoke: false,
    };
    let line = match args.required("trace")? {
        0 => {
            let m = report::measure(&w, seed, &plan);
            report_failures(&m.failures);
            report::contract_line(
                m.failures.is_empty(),
                m.ops_attempted,
                m.ops_failed,
                m.metrics
                    .iter()
                    .filter(|x| x.spec.in_contract)
                    .map(|x| (x.spec.name.to_string(), x.value, x.spec.unit)),
            )
        }
        1 => {
            let out = args
                .get("out")
                .map_or_else(report::default_out_dir, PathBuf::from);
            std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
            let t = report::trace(&w, seed, &plan, &out);
            report_failures(&t.failures);
            let units = metrics::per_layer();
            report::contract_line(
                t.failures.is_empty(),
                t.ops_attempted,
                t.ops_failed,
                t.per_layer
                    .iter()
                    .zip(&units)
                    .map(|((name, value), (_, unit, _))| (name.clone(), *value, *unit)),
            )
        }
        other => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let plan = Plan {
        seconds: args.num("seconds")?.unwrap_or(DEFAULT_SECONDS),
        smoke: args.get("smoke").is_some(),
    };
    let out = args
        .get("out")
        .map_or_else(report::default_out_dir, PathBuf::from);
    let failures = report::run_all(args.required("seed")?, &plan, &out)?;
    report_failures(&failures);
    Ok(if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_one_child(args: &Args) -> Result<ExitCode, String> {
    let w = workload(args.words.get(1).ok_or("run-one needs a workload")?)?;
    let mode = args.get("mode").unwrap_or("measured");
    let mode = Mode::parse(mode).ok_or(format!("--mode {mode}: unknown"))?;
    let window = Duration::from_millis(args.required("window-ms")?);
    let out = run_one(w, args.required("seed")?, window, mode);
    if let (Some(path), Some(log)) = (args.get("trace-out"), &out.rec.spans) {
        std::fs::write(path, log.to_jsonl()).map_err(|e| format!("write {path}: {e}"))?;
    }
    let min_commits = args.num("min-commits")?.unwrap_or(0);
    let smoke = args.get("smoke").is_some();
    println!("{}", report::child_json(&out, min_commits, smoke));
    Ok(ExitCode::SUCCESS)
}

fn compare_files(args: &Args) -> Result<ExitCode, String> {
    let [_, a, b] = args.words.as_slice() else {
        return Err("compare needs two results.json paths".into());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare::compare(&load(a)?, &load(b)?)?;
    Ok(if compare::print(&rows) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let result = Args::parse(std::env::args().skip(1)).and_then(|args| {
        match args.words.first().map(String::as_str) {
            None if args.get("workload").is_some() => contract(&args),
            Some("run") => run(&args),
            Some("run-one") => run_one_child(&args),
            Some("compare") => compare_files(&args),
            _ => Err(USAGE.to_string()),
        }
    });
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::from(2)
    })
}

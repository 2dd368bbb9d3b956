//! The parent side: runs each repeat in its own child process (so
//! `peak_rss_mb` and allocator state are per repeat), applies the
//! correctness gate across repeats, and renders results.
//!
//! One process at a time: the simulator is single-threaded and the
//! reference machine has two cores, so a second concurrent child would
//! only add noise to the first.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use obskit::Json;

use crate::json::{as_f64, as_str, fields, get, items, parse};
use crate::layers;
use crate::metrics::{self, Clock, END_TO_END};
use crate::runone::{peak_rss_mb, Mode, RunOutput};
use crate::stats::{median, min_max};
use crate::workloads::Workload;

/// Fewest commits a full-size window must reach: `commit_p999_us` needs ten
/// samples beyond it.
pub const MIN_COMMITS: u64 = 10_000;
/// Untraced repeats per workload at least.
pub const MIN_REPEATS: usize = 3;
/// Untraced repeats per workload at most, whatever the budget says.
const MAX_REPEATS: usize = 12;
/// Virtual window of `--smoke` runs.
const SMOKE_WINDOW: Duration = Duration::from_millis(200);

/// How one invocation sizes its runs.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// `--seconds`: host seconds of measured windows per workload.
    pub seconds: u64,
    /// `--smoke`: 0.2 virtual s, one repeat, no commit floor.
    pub smoke: bool,
}

impl Plan {
    fn window(&self, w: &Workload) -> Duration {
        if self.smoke {
            SMOKE_WINDOW
        } else {
            w.window(self.seconds)
        }
    }

    fn min_commits(&self) -> u64 {
        if self.smoke {
            0
        } else {
            MIN_COMMITS
        }
    }

    fn min_repeats(&self) -> usize {
        if self.smoke {
            1
        } else {
            MIN_REPEATS
        }
    }
}

impl Mode {
    /// Command-line spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Mode::Measured => "measured",
            Mode::Traced => "traced",
            Mode::Plain => "plain",
        }
    }

    /// Parses [`Mode::as_str`].
    pub fn parse(s: &str) -> Option<Mode> {
        [Mode::Measured, Mode::Traced, Mode::Plain]
            .into_iter()
            .find(|m| m.as_str() == s)
    }
}

/// The one line a `run-one` child prints.
pub fn child_json(out: &RunOutput, min_commits: u64, smoke: bool) -> Json {
    let r = &out.rec;
    let metrics = out.virtual_metrics();
    let mut failures = out.check_failures(min_commits);
    if min_commits > 0 {
        for (name, _, n, ok) in &metrics {
            if !ok {
                failures.push(format!(
                    "{name}: fewer than ten of its {n} samples lie beyond it"
                ));
            }
        }
    }
    let virt = metrics
        .into_iter()
        .fold(Json::obj(), |doc, (name, value, n, ok)| {
            doc.field(
                name,
                Json::obj()
                    .field("value", Json::F64(value))
                    .field("sample_count", Json::U64(n as u64))
                    .field("supported", Json::Bool(ok)),
            )
        });
    let per_layer = (out.mode == Mode::Traced).then(|| {
        layers::per_layer(out, smoke)
            .into_iter()
            .fold(Json::obj(), |doc, (name, value)| {
                doc.field(&name, Json::F64(value))
            })
    });
    let mut doc = Json::obj()
        .field("workload", Json::str(out.workload.name))
        .field("seed", Json::U64(out.seed))
        .field("mode", Json::str(out.mode.as_str()))
        .field("window_virtual_s", Json::F64(out.window.as_secs_f64()))
        .field("setup_s", Json::F64(out.setup.scaled_s))
        .field("setup_raw_s", Json::F64(out.setup.raw_s))
        .field("sim_host_s", Json::F64(out.sim_host.scaled_s))
        .field("window_host_s", Json::F64(out.window_host().scaled_s))
        .field("window_host_raw_s", Json::F64(out.window_host().raw_s))
        .field("peak_rss_mb", Json::F64(peak_rss_mb()))
        .field("rss_mb", Json::F64(out.rss_mb))
        .field("arrivals", Json::U64(r.arrivals))
        .field("commits", Json::U64(r.commits))
        .field("abandoned", Json::U64(r.abandoned))
        .field("in_flight_at_deadline", Json::U64(r.in_flight_at_deadline))
        .field("attempts", Json::U64(r.attempts))
        .field("timeouts", Json::U64(r.timeouts))
        .field("abort_rate", Json::F64(out.abort_rate()))
        .field("failed_share", Json::F64(out.failed_share()))
        .field("aborts", out.aborts_json())
        .field(
            "sim_digest",
            Json::str(format!("{:016x}", out.sim_digest())),
        )
        .field("virtual", virt)
        .field("failures", Json::arr(failures.into_iter().map(Json::str)));
    if let Some(per_layer) = per_layer {
        doc = doc.field("per_layer", per_layer);
    }
    doc
}

/// One child's parsed result line.
#[derive(Debug, Clone)]
pub struct Repeat {
    doc: Json,
}

impl Repeat {
    fn num(&self, key: &str) -> f64 {
        get(&self.doc, key).and_then(as_f64).unwrap_or(0.0)
    }

    fn digest(&self) -> &str {
        get(&self.doc, "sim_digest").and_then(as_str).unwrap_or("")
    }

    fn failures(&self) -> Vec<String> {
        get(&self.doc, "failures")
            .map(items)
            .unwrap_or_default()
            .iter()
            .filter_map(as_str)
            .map(str::to_string)
            .collect()
    }

    fn virtual_metrics(&self) -> &[(String, Json)] {
        get(&self.doc, "virtual").map(fields).unwrap_or_default()
    }

    fn host_txn_per_s(&self) -> f64 {
        self.num("commits") / self.num("window_host_s")
    }

    fn per_layer(&self) -> Vec<(String, f64)> {
        get(&self.doc, "per_layer")
            .map(fields)
            .unwrap_or_default()
            .iter()
            .map(|(k, v)| (k.clone(), as_f64(v).unwrap_or(0.0)))
            .collect()
    }
}

fn spawn_child(
    w: &Workload,
    seed: u64,
    plan: &Plan,
    mode: Mode,
    trace_out: Option<&Path>,
) -> Result<Repeat, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("run-one")
        .arg(w.name)
        .args(["--seed", &seed.to_string()])
        .args(["--window-ms", &plan.window(w).as_millis().to_string()])
        .args(["--min-commits", &plan.min_commits().to_string()])
        .args(["--mode", mode.as_str()]);
    if let Some(path) = trace_out {
        cmd.arg("--trace-out").arg(path);
    }
    if plan.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn run-one: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "run-one {} ({}) {}",
            w.name,
            mode.as_str(),
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    parse(line)
        .map(|doc| Repeat { doc })
        .map_err(|e| format!("run-one {} printed no result: {e}", w.name))
}

/// One end-to-end metric of one workload.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Catalogue entry.
    pub spec: &'static metrics::EndToEnd,
    /// Reported value (the exact value for a virtual metric, the median of
    /// the repeats for a host metric).
    pub value: f64,
    /// Smallest repeat.
    pub min: f64,
    /// Largest repeat.
    pub max: f64,
    /// Samples behind a percentile (0 otherwise).
    pub sample_count: u64,
}

/// Everything the untraced repeats of one workload gave.
#[derive(Debug, Clone, Default)]
pub struct Measurement {
    /// The end-to-end metrics in catalogue order.
    pub metrics: Vec<Measured>,
    /// Repeats run.
    pub repeats: usize,
    /// Raw host seconds per repeat (set-up + window), median.
    pub host_s_per_repeat: f64,
    /// Scripts that arrived in one repeat's window.
    pub ops_attempted: u64,
    /// Scripts that never committed.
    pub ops_failed: u64,
    /// `ops_failed / ops_attempted`.
    pub failed_share: f64,
    /// Aborted attempts over all attempts.
    pub abort_rate: f64,
    /// Hash of everything simulated.
    pub sim_digest: String,
    /// Virtual length of the window.
    pub window_virtual_s: f64,
    /// Failed checks, each naming itself (empty = correct).
    pub failures: Vec<String>,
}

/// Runs the untraced repeats of `w` and applies the correctness gate.
pub fn measure(w: &Workload, seed: u64, plan: &Plan) -> Measurement {
    let started = Instant::now();
    let mut repeats: Vec<Repeat> = Vec::new();
    let mut failures = Vec::new();
    let mut measured_s = 0.0;
    // At least `min_repeats`; then as many more as still fit whole into the
    // `--seconds` budget of measured window time.
    while repeats.len() < plan.min_repeats()
        || (!plan.smoke
            && measured_s * (1.0 + 1.0 / repeats.len() as f64) <= plan.seconds as f64
            && repeats.len() < MAX_REPEATS
            // Never start a repeat that could carry the invocation past
            // the contract's 180 s.
            && started.elapsed() < Duration::from_secs(100))
    {
        match spawn_child(w, seed, plan, Mode::Measured, None) {
            Ok(r) => {
                measured_s += r.num("window_host_raw_s");
                repeats.push(r);
            }
            Err(e) => {
                failures.push(e);
                break;
            }
        }
    }
    let Some(first) = repeats.first() else {
        // No repeat produced a result: the one attempt failed.
        return Measurement {
            ops_attempted: 1,
            ops_failed: 1,
            failed_share: 1.0,
            failures,
            ..Measurement::default()
        };
    };
    for (i, r) in repeats.iter().enumerate() {
        for f in r.failures() {
            failures.push(format!("repeat {i}: {f}"));
        }
        if r.digest() != first.digest() || r.virtual_metrics() != first.virtual_metrics() {
            failures.push(format!(
                "repeat {i}: virtual metrics or sim_digest differ from repeat 0 \
                 ({} vs {})",
                r.digest(),
                first.digest()
            ));
        }
    }
    let host = |f: &dyn Fn(&Repeat) -> f64| -> Vec<f64> { repeats.iter().map(f).collect() };
    let metrics = END_TO_END
        .iter()
        .map(|spec| {
            let (values, sample_count) = match spec.clock {
                Clock::Virtual => {
                    let m = get(&first.doc, "virtual").and_then(|v| get(v, spec.name));
                    let field = |k| m.and_then(|m| get(m, k)).and_then(as_f64).unwrap_or(0.0);
                    (vec![field("value")], field("sample_count") as u64)
                }
                Clock::Host => (
                    match spec.name {
                        "host_txn_per_s" => host(&Repeat::host_txn_per_s),
                        name => host(&|r| r.num(name)),
                    },
                    0,
                ),
            };
            let (min, max) = min_max(&values);
            Measured {
                spec,
                value: median(&values),
                min,
                max,
                sample_count,
            }
        })
        .collect();
    Measurement {
        metrics,
        repeats: repeats.len(),
        host_s_per_repeat: median(&host(&|r| {
            r.num("setup_raw_s") + r.num("window_host_raw_s")
        })),
        ops_attempted: first.num("arrivals") as u64,
        ops_failed: first.num("abandoned") as u64,
        failed_share: first.num("failed_share"),
        abort_rate: first.num("abort_rate"),
        sim_digest: first.digest().to_string(),
        window_virtual_s: first.num("window_virtual_s"),
        failures,
    }
}

/// What the traced run of one workload gave.
#[derive(Debug, Clone, Default)]
pub struct Tracing {
    /// Per-layer metrics in catalogue order.
    pub per_layer: Vec<(String, f64)>,
    /// Scripts that arrived in the traced window.
    pub ops_attempted: u64,
    /// Scripts that never committed.
    pub ops_failed: u64,
    /// Failed checks (empty = correct).
    pub failures: Vec<String>,
}

/// Runs the untraced twin and the traced run of `w`; the spans go to
/// `<out>/<workload>.trace.jsonl`.
pub fn trace(w: &Workload, seed: u64, plan: &Plan, out: &Path) -> Tracing {
    let mut failures = Vec::new();
    let trace_path = out.join(format!("{}.trace.jsonl", w.name));
    let mut run = |mode, path: Option<&Path>| match spawn_child(w, seed, plan, mode, path) {
        Ok(r) => {
            for f in r.failures() {
                failures.push(format!("{} run: {f}", mode.as_str()));
            }
            Some(r)
        }
        Err(e) => {
            failures.push(e);
            None
        }
    };
    let plain = run(Mode::Plain, None);
    let traced = run(Mode::Traced, Some(&trace_path));
    let (Some(plain), Some(traced)) = (plain, traced) else {
        return Tracing {
            ops_attempted: 1,
            ops_failed: 1,
            failures,
            ..Tracing::default()
        };
    };
    if plain.digest() != traced.digest() {
        failures.push(format!(
            "tracing perturbed the simulation: sim_digest {} traced vs {} untraced",
            traced.digest(),
            plain.digest()
        ));
    }
    let mut per_layer = traced.per_layer();
    let overhead = (traced.num("sim_host_s") - plain.num("sim_host_s")) / plain.num("sim_host_s");
    for (name, value) in &mut per_layer {
        if name == "obskit.trace_overhead_share" {
            *value = overhead;
        }
    }
    Tracing {
        per_layer,
        ops_attempted: traced.num("arrivals") as u64,
        ops_failed: traced.num("abandoned") as u64,
        failures,
    }
}

/// The contract's result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn contract_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl IntoIterator<Item = (String, f64, &'static str)>,
) -> String {
    let metrics = metrics
        .into_iter()
        .fold(Json::obj(), |doc, (name, value, unit)| {
            doc.field(
                &name,
                Json::obj()
                    .field("value", Json::F64(value))
                    .field("unit", Json::str(unit)),
            )
        });
    Json::obj()
        .field("correct", Json::Bool(correct))
        .field("attempted", Json::U64(attempted.max(1)))
        .field("failed", Json::U64(failed))
        .field("metrics", metrics)
        .to_string()
}

/// Where spans and results go when `--out` is not given: beside the build
/// (`$CARGO_TARGET_DIR/bench_out`) when cargo names one, else
/// `benchmark/out`.
pub fn default_out_dir() -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => PathBuf::from(dir).join("bench_out"),
        None => PathBuf::from("benchmark/out"),
    }
}

fn print_measurement(w: &Workload, m: &Measurement) {
    println!(
        "\n== {} — closed loop, {} instances, window {} virtual s, {} repeats, \
         {:.1} host s per repeat",
        w.name,
        w.instances(),
        m.window_virtual_s,
        m.repeats,
        m.host_s_per_repeat
    );
    println!(
        "{:<24} {:>16} {:<6} {:<8} {:<7} {:>6}  spread (min..max) / samples",
        "metric", "value", "unit", "clock", "better", "bound"
    );
    for x in &m.metrics {
        let detail = match (x.spec.clock, x.sample_count) {
            (Clock::Host, _) => format!("{:.4} .. {:.4}", x.min, x.max),
            (Clock::Virtual, 0) => "exact".to_string(),
            (Clock::Virtual, n) => format!("exact, {n} samples"),
        };
        println!(
            "{:<24} {:>16.4} {:<6} {:<8} {:<7} {:>5.0}%  {}",
            x.spec.name,
            x.value,
            x.spec.unit,
            x.spec.clock.as_str(),
            if x.spec.higher_is_better {
                "higher"
            } else {
                "lower"
            },
            x.spec.bound * 100.0,
            detail
        );
    }
    println!(
        "ops_attempted {}  ops_failed {}  failed_share {}  abort_rate {:.5}  sim_digest {}",
        m.ops_attempted, m.ops_failed, m.failed_share, m.abort_rate, m.sim_digest
    );
}

fn print_per_layer(t: &Tracing) {
    let units = metrics::per_layer();
    println!("-- per layer (traced run)");
    for ((name, value), (_, unit, _)) in t.per_layer.iter().zip(&units) {
        println!("{name:<40} {value:>18.4} {unit}");
    }
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn results_json(seed: u64, plan: &Plan, rows: &[(Workload, Measurement, Tracing)]) -> Json {
    let workloads = rows.iter().map(|(w, m, t)| {
        let e2e = m.metrics.iter().fold(Json::obj(), |doc, x| {
            doc.field(
                x.spec.name,
                Json::obj()
                    .field("value", Json::F64(x.value))
                    .field("min", Json::F64(x.min))
                    .field("max", Json::F64(x.max))
                    .field("unit", Json::str(x.spec.unit))
                    .field("clock", Json::str(x.spec.clock.as_str()))
                    .field(
                        "better",
                        Json::str(if x.spec.higher_is_better {
                            "higher"
                        } else {
                            "lower"
                        }),
                    )
                    .field("bound", Json::F64(x.spec.bound))
                    .field("sample_count", Json::U64(x.sample_count)),
            )
        });
        let per_layer = t
            .per_layer
            .iter()
            .fold(Json::obj(), |doc, (k, v)| doc.field(k, Json::F64(*v)));
        Json::obj()
            .field("name", Json::str(w.name))
            .field("loop", Json::str("closed"))
            .field("instances", Json::U64(w.instances() as u64))
            .field("window_virtual_s", Json::F64(m.window_virtual_s))
            .field("repeats", Json::U64(m.repeats as u64))
            .field("host_s_per_repeat", Json::F64(m.host_s_per_repeat))
            .field("sim_digest", Json::str(m.sim_digest.clone()))
            .field("ops_attempted", Json::U64(m.ops_attempted))
            .field("ops_failed", Json::U64(m.ops_failed))
            .field("failed_share", Json::F64(m.failed_share))
            .field("abort_rate", Json::F64(m.abort_rate))
            .field("end_to_end", e2e)
            .field("per_layer", per_layer)
            .field(
                "failures",
                Json::arr(m.failures.iter().chain(&t.failures).cloned().map(Json::str)),
            )
    });
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj()
        .field("seed", Json::U64(seed))
        .field("seconds", Json::U64(plan.seconds))
        .field("smoke", Json::Bool(plan.smoke))
        .field("nproc", Json::U64(nproc as u64))
        .field("commit", Json::str(git_commit()))
        .field("workloads", Json::arr(workloads))
}

/// `run`: every workload serially — untraced repeats, then the traced run —
/// printing every metric and writing `<out>/results.json` plus one
/// `<workload>.trace.jsonl` each. Returns the failed checks.
pub fn run_all(seed: u64, plan: &Plan, out: &Path) -> Result<Vec<String>, String> {
    std::fs::create_dir_all(out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for name in crate::workloads::NAMES {
        let w = Workload::by_name(name).expect("catalogue name");
        let m = measure(&w, seed, plan);
        print_measurement(&w, &m);
        let t = trace(&w, seed, plan, out);
        print_per_layer(&t);
        for f in m.failures.iter().chain(&t.failures) {
            failures.push(format!("{name}: {f}"));
        }
        rows.push((w, m, t));
    }
    let path = out.join("results.json");
    let mut text = results_json(seed, plan, &rows).to_pretty_string();
    text.push('\n');
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    Ok(failures)
}

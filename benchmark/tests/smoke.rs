//! `run --smoke`: all four workloads end to end through the real binary —
//! child processes, correctness gate, traced runs, results file — in
//! under twenty seconds.

use std::process::Command;
use std::time::{Duration, Instant};

use benchmark::json::{as_f64, as_str, fields, get, items, parse};
use benchmark::metrics::{per_layer, END_TO_END};
use benchmark::workloads::NAMES;

#[test]
fn smoke_runs_every_workload() {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let _ = std::fs::remove_dir_all(&out);
    let started = Instant::now();
    let run = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["run", "--seed", "42", "--smoke", "--out"])
        .arg(&out)
        .output()
        .expect("benchmark binary runs");
    let took = started.elapsed();
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "smoke run failed its own gate:\n{}\n{stdout}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(took < Duration::from_secs(20), "smoke took {took:?}");

    let text = std::fs::read_to_string(out.join("results.json")).expect("results.json written");
    let doc = parse(&text).expect("results.json parses");
    assert_eq!(get(&doc, "smoke"), Some(&obskit::Json::Bool(true)));
    let workloads = items(get(&doc, "workloads").unwrap());
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| as_str(get(w, "name").unwrap()).unwrap())
        .collect();
    assert_eq!(names, NAMES);

    let layer = |w, name: &str| as_f64(get(get(w, "per_layer").unwrap(), name).unwrap()).unwrap();
    for (w, name) in workloads.iter().zip(NAMES) {
        // Every metric is there by name, printed as well as written.
        let e2e = fields(get(w, "end_to_end").unwrap());
        assert_eq!(e2e.len(), END_TO_END.len(), "{name}");
        for ((got, m), spec) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(got, spec.name);
            assert!(
                as_f64(get(m, "value").unwrap()).unwrap() > 0.0,
                "{name}.{got} is zero"
            );
            assert!(stdout.contains(spec.name));
        }
        assert_eq!(
            fields(get(w, "per_layer").unwrap()).len(),
            per_layer().len()
        );
        assert!(items(get(w, "failures").unwrap()).is_empty());
        assert!(
            out.join(format!("{name}.trace.jsonl"))
                .metadata()
                .unwrap()
                .len()
                > 0
        );
        // Each workload isolates what it claims to, even at smoke size.
        let faulty = name == "failover_checked";
        assert_eq!(layer(w, "recoverkit.mttr_ms") > 0.0, faulty, "{name}");
        assert_eq!(layer(w, "faultkit.check_ms") > 0.0, faulty, "{name}");
        assert_eq!(layer(w, "faultkit.violations"), 0.0, "{name}");
        assert_eq!(layer(w, "obskit.trace_dropped"), 0.0, "{name}");
        let primary = layer(w, "readkit.primary_read_share");
        if name == "read_hot" {
            assert!(primary < 0.5, "read_hot primary share {primary}");
        } else {
            assert_eq!(primary, 1.0, "{name}");
        }
    }
}

#[test]
fn an_unknown_workload_is_refused() {
    let run = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark binary runs");
    assert!(!run.status.success());
    assert!(run.stdout.is_empty(), "no result line on a refused run");
}

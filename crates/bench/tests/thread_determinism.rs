//! Serial-vs-parallel determinism: the `--threads` knob must never leak
//! into an artifact. One suite per pooled family — group commit,
//! resharding campaigns, read scaling, and chaos campaigns — each rendered
//! at 1 worker and at 4 workers, asserting byte-identical JSON.
//!
//! The in-process checks flip `perfkit::pool::set_threads` around small
//! library runs (a mutex serializes them — the worker count is one cell
//! per process). The chaos check additionally spawns the real `repro`
//! binary with `--threads`, covering the CLI surface end to end: flag
//! parsing, pool scheduling, ordered merge, and serialization.

use std::sync::Mutex;
use std::time::Duration;

/// Serializes tests that set the process-wide worker count.
static THREADS_LOCK: Mutex<()> = Mutex::new(());

fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    perfkit::pool::set_threads(threads);
    let out = f();
    perfkit::pool::set_threads(1);
    out
}

fn assert_thread_invariant(name: &str, render: impl Fn() -> String) {
    let _guard = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let serial = with_threads(1, &render);
    let parallel = with_threads(4, &render);
    assert!(!serial.is_empty(), "{name} rendered an empty artifact");
    assert_eq!(
        serial, parallel,
        "{name}: 1-worker and 4-worker artifacts must be byte-identical"
    );
}

#[test]
fn batch_artifact_is_thread_invariant() {
    let cfg = bench::batch::BatchSweepConfig {
        // The full ladder: batch::to_json runs the acceptance checks,
        // which expect the 1/4/8/16 points.
        batch_maxes: vec![1, 4, 8, 16],
        keyspace: 1_000,
        warmup: Duration::from_millis(20),
        measure: Duration::from_millis(80),
    };
    assert_thread_invariant("batch", || {
        bench::batch::to_json(&bench::batch::run(&cfg, 3), 3).to_pretty_string()
    });
}

#[test]
fn rebalance_campaign_artifact_is_thread_invariant() {
    let cfg = faultkit::RebalanceCampaignConfig {
        seeds: vec![1, 2, 3, 4],
        ..faultkit::RebalanceCampaignConfig::default()
    };
    assert_thread_invariant("rebalance", || {
        faultkit::run_rebalance_campaign(&cfg)
            .to_json()
            .to_pretty_string()
    });
}

#[test]
fn readscale_artifact_is_thread_invariant() {
    let cfg = bench::readscale::ReadScaleConfig {
        keyspace: 1_000,
        warmup: Duration::from_millis(20),
        measure: Duration::from_millis(80),
        campaign_seeds: vec![11],
    };
    assert_thread_invariant("readscale", || {
        bench::readscale::to_json(&bench::readscale::run(&cfg, 3)).to_pretty_string()
    });
}

#[test]
fn chaos_artifact_is_thread_invariant() {
    let cfg = faultkit::CampaignConfig {
        seeds: vec![5, 6, 7, 8],
        faults: 10,
        ..faultkit::CampaignConfig::default()
    };
    assert_thread_invariant("chaos", || {
        faultkit::run_campaign(&cfg).to_json().to_pretty_string()
    });
}

/// End-to-end CLI check: the real binary, the real `--threads` flag.
#[test]
fn chaos_binary_threads_flag_is_artifact_invariant() {
    let run = |threads: &str| {
        let path = std::env::temp_dir().join(format!(
            "thread-determinism-{}-chaos-t{threads}.json",
            std::process::id()
        ));
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["chaos", "--seeds", "2", "--faults", "20"])
            .args(["--threads", threads, "--json"])
            .arg(&path)
            .env("REPRO_SCALE", "quick")
            .output()
            .expect("spawn repro chaos");
        assert!(
            out.status.success(),
            "repro chaos --threads {threads} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let bytes = std::fs::read(&path).expect("artifact written");
        let _ = std::fs::remove_file(&path);
        bytes
    };
    let serial = run("1");
    let parallel = run("4");
    assert_eq!(
        serial, parallel,
        "repro chaos: --threads 1 and --threads 4 artifacts must be byte-identical"
    );
}

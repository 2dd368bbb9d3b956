//! Golden constants for the measurement paths the experiment modules share:
//! a Retwis point of each of Figures 6-9, one Table 1 cell (the closed-loop
//! store run the packing ablation also uses) and one cold-restart recovery
//! trial. Each tiny run's `to_json` bytes are pinned by length and FNV-1a,
//! recorded before those paths were folded into one point type, one store
//! loop and one recovery module: a moved RNG draw, a sample recorded in a
//! different window, a reordered field or a changed float all fail it.
//!
//! The Figure 6-9 and Table 1 constants were re-recorded when the flash
//! packer began filling one page at a time: every flash-backed store (and
//! the Table 1 cell, which is one) now programs fuller pages, so flash
//! latency, commit latency and the counts that follow from them moved. In
//! the same change a primary began leaving a read mark at `ts_commit` on
//! every validated read, and a backup began parking reordered applied
//! floors; the Retwis points carry both. The recovery trial did not move.
//!
//! The four Retwis points and the recovery trial were re-recorded when the
//! default batch deadline became zero: a prepare on the coordinator or
//! replication plane now leaves at its own instant instead of waiting out a
//! 100 µs window, so commit latency, and the timing of everything after
//! it, moved. The Table 1 cell has no batcher and did not move.

use std::time::Duration;

use bench::recovery::{run_recovery_trial, RecoverySpec};
use bench::{fig6, fig7, fig8, fig9, table1};
use flashsim::BackendKind;
use obskit::Json;

/// `(length, FNV-1a)` of a document's compact rendering.
fn pin(doc: &Json) -> (usize, u64) {
    let s = doc.to_string();
    let hash = s.bytes().fold(0xcbf29ce484222325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    });
    (s.len(), hash)
}

fn check(doc: Json, want: (usize, u64)) {
    assert_eq!(pin(&doc), want, "{doc}");
}

const WARMUP: Duration = Duration::from_millis(50);
const MEASURE: Duration = Duration::from_millis(150);

#[test]
fn fig6_point_bytes() {
    let cfg = fig6::Fig6Config {
        client_counts: vec![2],
        alphas: vec![0.8],
        keyspace: 2_000,
        warmup: WARMUP,
        measure: MEASURE,
    };
    check(
        fig6::to_json(&cfg, &fig6::run(&cfg)),
        (902, 4832318903784234167),
    );
}

#[test]
fn fig7_point_bytes() {
    let cfg = fig7::Fig7Config {
        alphas: vec![0.8],
        backends: vec![BackendKind::Mftl],
        client_vms: 2,
        instances_per_vm: 2,
        keyspace: 2_000,
        warmup: WARMUP,
        measure: MEASURE,
    };
    check(
        fig7::to_json(&cfg, &fig7::run(&cfg)),
        (1728, 14385128106557367681),
    );
}

#[test]
fn fig8_point_bytes() {
    let cfg = fig8::Fig8Config {
        client_counts: vec![2],
        backends: vec![BackendKind::Mftl],
        alpha: 0.5,
        keyspace: 3_000,
        warmup: WARMUP,
        measure: MEASURE,
    };
    check(
        fig8::to_json(&cfg, &fig8::run(&cfg)),
        (968, 74061557062760326),
    );
}

#[test]
fn fig9_point_bytes() {
    let cfg = fig9::Fig9Config {
        alphas: vec![0.8],
        client_vms: 2,
        instances_per_vm: 2,
        keyspace: 3_000,
        report_every: 20,
        warmup: WARMUP,
        measure: MEASURE,
    };
    check(
        fig9::to_json(&cfg, &fig9::run(&cfg)),
        (984, 5285360648028953174),
    );
}

#[test]
fn table1_cell_bytes() {
    let cfg = table1::Table1Config {
        keys: 2_000,
        workers: 8,
        channels: 8,
        utilization: 0.08,
        warmup: WARMUP,
        measure: MEASURE,
    };
    let (row, note) = table1::run_cell(BackendKind::Mftl, 75, &cfg, 1_075);
    assert_eq!(note, None);
    check(table1::to_json(&[row]), (118, 9626602595716657937));
}

#[test]
fn recovery_trial_bytes() {
    let spec = RecoverySpec {
        store_keys: 400,
        warm_commits: 24,
        outage_commits: 24,
        hot_keys: 8,
        ..RecoverySpec::default()
    };
    check(
        run_recovery_trial(&spec).to_json(),
        (164, 9282307545503410011),
    );
}

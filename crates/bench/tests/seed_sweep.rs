//! Every verdict holds at every seed: each `repro` row that takes `--seed`
//! and judges its run is run at seeds 1-8 (`repro <row> --seed s --threads
//! 2`, quick scale), and the 100-fault chaos campaign at 2 shards and at 1
//! over seeds 0-39; the test prints a (row × seed) verdict table. CI runs
//! each row at one seed; this is where the others run.
//!
//! A red cell fails the test unless `KNOWN_RED` lists it with the cause a
//! CHANGES.md `FOUND` line gives, and a listed cell that passes fails it
//! until its row goes: the table is a tripwire, not a pass.
//!
//! `cargo test --release -p bench --test seed_sweep -- --ignored --nocapture`

use std::ops::RangeInclusive;
use std::process::Command;

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

/// The rows with a predicate and a `--seed` flag: a label, the `repro`
/// arguments before `--seed`, and the seeds the row runs at.
const ROWS: [(&str, &[&str], RangeInclusive<u64>); 8] = [
    ("batch", &["batch"], 1..=8),
    ("chaos", &["chaos"], 1..=8),
    ("clockfault", &["clockfault"], 1..=8),
    ("readscale", &["readscale"], 1..=8),
    ("rebalance", &["rebalance"], 1..=8),
    ("recovery", &["recovery"], 1..=8),
    ("chaos-f100", &["chaos", "--faults", "100"], 0..=39),
    (
        "chaos-f100-1",
        &["chaos", "--faults", "100", "--shards", "1"],
        0..=39,
    ),
];

/// `(row, seed, cause)`: a red cell whose cause a CHANGES.md `FOUND` line
/// names.
const KNOWN_RED: &[(&str, u64, &str)] = &[];

/// Runs one cell; `None` when it passes, else its `FAILED` lines (or its
/// exit code when it printed none).
fn run(args: &[&str], seed: u64) -> Option<String> {
    let out = Command::new(REPRO)
        .args(args)
        .args(["--seed", &seed.to_string(), "--threads", "2"])
        .env_remove("REPRO_SCALE")
        .output()
        .expect("spawn repro");
    if out.status.success() {
        return None;
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let failed: Vec<&str> = stdout.lines().filter(|l| l.contains("FAILED")).collect();
    Some(if failed.is_empty() {
        format!("exit {:?}", out.status.code())
    } else {
        failed.join(" | ")
    })
}

#[test]
#[ignore = "runs eight rows at 8 or 40 seeds (minutes in release); CI's seed-sweep job runs it"]
fn every_row_passes_at_every_seed() {
    // One line per row: its seed range, then `.` for a pass and `R` for a
    // red cell, one per seed.
    let mut table = String::new();
    let mut red = Vec::new();
    for (row, args, seeds) in ROWS {
        table += &format!("{row:>12} {:>2}-{:<2} ", seeds.start(), seeds.end());
        for seed in seeds {
            let failure = run(args, seed);
            table.push(if failure.is_some() { 'R' } else { '.' });
            if let Some(why) = failure {
                red.push((row, seed, why));
            }
        }
        table.push('\n');
    }
    println!("{table}");
    let unexplained: Vec<String> = red
        .iter()
        .filter(|(row, seed, _)| !KNOWN_RED.iter().any(|k| (k.0, k.1) == (*row, *seed)))
        .map(|(row, seed, why)| format!("{row} --seed {seed}: {why}"))
        .collect();
    let mended: Vec<String> = KNOWN_RED
        .iter()
        .filter(|k| !red.iter().any(|(row, seed, _)| (k.0, k.1) == (*row, *seed)))
        .map(|(row, seed, _)| format!("{row} --seed {seed}"))
        .collect();
    assert!(
        unexplained.is_empty() && mended.is_empty(),
        "{table}\nred cells no FOUND names: {unexplained:#?}\n\
         listed cells that pass now (delete their rows): {mended:#?}"
    );
}

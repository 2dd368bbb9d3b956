//! Every verdict holds at every seed: each `repro` row that takes `--seed`
//! and judges its run is run at seeds 1-8 (`repro <row> --seed s --threads
//! 2`, quick scale), and the test prints a (row × seed) verdict table. CI
//! runs each row at one seed; this is where the others run.
//!
//! A red cell fails the test unless `KNOWN_RED` lists it with the cause a
//! CHANGES.md `FOUND` line gives, and a listed cell that passes fails it
//! until its row goes: the table is a tripwire, not a pass.
//!
//! `cargo test --release -p bench --test seed_sweep -- --ignored --nocapture`

use std::process::Command;

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

/// The rows with a predicate and a `--seed` flag.
const ROWS: [&str; 6] = [
    "batch",
    "chaos",
    "clockfault",
    "readscale",
    "rebalance",
    "recovery",
];

/// The seeds every row runs at.
const SEEDS: std::ops::RangeInclusive<u64> = 1..=8;

/// `(row, seed, cause)`: a red cell whose cause a CHANGES.md `FOUND` line
/// names.
const KNOWN_RED: &[(&str, u64, &str)] = &[];

/// Runs one cell; `None` when it passes, else its `FAILED` lines (or its
/// exit code when it printed none).
fn run(row: &str, seed: u64) -> Option<String> {
    let out = Command::new(REPRO)
        .args([row, "--seed", &seed.to_string(), "--threads", "2"])
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
#[ignore = "runs six rows at eight seeds (minutes in release); CI's seed-sweep job runs it"]
fn every_row_passes_at_every_seed() {
    let mut table = format!("{:>10}", "row\\seed");
    for seed in SEEDS {
        table += &format!(" {seed:>3}");
    }
    let mut red = Vec::new();
    for row in ROWS {
        table += &format!("\n{row:>10}");
        for seed in SEEDS {
            let failure = run(row, seed);
            table += if failure.is_some() { " RED" } else { "  ok" };
            if let Some(why) = failure {
                red.push((row, seed, why));
            }
        }
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

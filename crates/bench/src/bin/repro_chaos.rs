//! Randomized fault campaigns with serializability checking.
//!
//! Runs N seeds × M faults of a contended counter workload under the
//! faultkit nemesis, audits conservation, and checks the recorded trace
//! for serializability, snapshot-read, and replication violations. The
//! same seed always reproduces the same campaign byte for byte.
//!
//! ```text
//! repro_chaos [--seed S]... [--seeds N] [--faults M] [--shards K] [--threads N]
//!             [--inject validation-skip|overload] [--json PATH] [--trace PATH]
//! ```
//!
//! - `--seed S` runs exactly seed S (repeatable); otherwise seeds `0..N`
//!   from `--seeds` (default 3, `REPRO_SCALE=full` → 8).
//! - `--faults M` faults per seed (default 50, full scale 200).
//! - `--inject validation-skip` disables Algorithm-1 read validation on
//!   every primary — a seeded bug the checker must catch (exit stays 1).
//! - `--inject overload` schedules only overload bursts, exercising the
//!   admission/retry plane (the run must still be clean).
//! - `--json PATH` writes the byte-stable campaign artifact.
//! - `--trace PATH` writes the full obskit trace (JSONL) of the first
//!   offending seed, or of the last seed when all are clean.
//!
//! Exits non-zero when any seed has a violation or a failed audit.

use bench::common::Scale;
use faultkit::{run_seed_with_trace, CampaignConfig, CampaignReport};

struct Args {
    seeds: Vec<u64>,
    faults: usize,
    shards: u32,
    inject: bool,
    overload: bool,
    trace: Option<std::path::PathBuf>,
}

fn parse_args(scale: Scale) -> Args {
    let (n_seeds, faults) = match scale {
        Scale::Quick => (3u64, 50usize),
        Scale::Full => (8, 200),
    };
    let args = bench::common::Args::parse(
        &["--seed", "--seeds", "--faults", "--shards", "--inject"],
        &[],
    );
    let mut inject = false;
    let mut overload = false;
    for what in args.values("--inject") {
        match what {
            "validation-skip" => inject = true,
            "overload" => overload = true,
            what => {
                eprintln!("unknown --inject {what}");
                std::process::exit(2);
            }
        }
    }
    let mut seeds: Vec<u64> = args.parsed("--seed");
    if seeds.is_empty() {
        seeds = (0..args.last_or("--seeds", n_seeds)).collect();
    }
    Args {
        seeds,
        faults: args.last_or("--faults", faults),
        shards: args.last_or("--shards", 2u32),
        inject,
        overload,
        trace: bench::common::trace_path_from_args(),
    }
}

fn main() {
    let scale = Scale::from_env();
    let args = parse_args(scale);
    let cfg = CampaignConfig {
        seeds: args.seeds.clone(),
        faults: args.faults,
        shards: args.shards,
        skip_validation: args.inject,
        overload_only: args.overload,
        ..CampaignConfig::default()
    };
    eprintln!(
        "chaos campaign: {} seed(s) x {} faults, {} shard(s){}{} ...",
        cfg.seeds.len(),
        cfg.faults,
        cfg.shards,
        if args.inject {
            " [validation-skip injected]"
        } else {
            ""
        },
        if args.overload {
            " [overload bursts only]"
        } else {
            ""
        }
    );

    let mut outcomes = Vec::new();
    let mut offender_trace: Option<String> = None;
    let mut last_trace = String::new();
    for &seed in &cfg.seeds {
        let (o, trace) = run_seed_with_trace(&cfg, seed);
        println!(
            "seed {:>4}: acked {:>5}  committed {:>5}  aborted {:>5}  unknown {:>3}  \
             faults {:>3}  conservation {}  violations {}{}",
            o.seed,
            o.acked,
            o.committed,
            o.aborted,
            o.unknown,
            o.fault_counts.values().map(|&(a, _)| a).sum::<u64>(),
            if o.conservation_ok { "ok" } else { "FAILED" },
            o.violations.len(),
            if o.trace_dropped > 0 {
                format!(
                    "  [trace ring dropped {} events; provenance checks skipped]",
                    o.trace_dropped
                )
            } else {
                String::new()
            },
        );
        if args.trace.is_some() {
            if !o.clean() && offender_trace.is_none() {
                offender_trace = Some(trace);
            } else {
                last_trace = trace;
            }
        }
        outcomes.push(o);
    }
    let report = CampaignReport { outcomes };

    for o in report.outcomes.iter().filter(|o| !o.clean()) {
        println!("\noffending seed {}:", o.seed);
        if !o.conservation_ok {
            println!(
                "  conservation violated: audit total {} vs acked {} (+{} unknown)",
                o.audit_total, o.acked, o.unknowns
            );
        }
        for v in &o.violations {
            println!("  {}: {}", v.class, v.description);
            println!("  minimal trace slice:");
            for line in v.trace_slice.lines() {
                println!("    {line}");
            }
        }
    }
    if report.violation_count() == 0 && report.offending_seeds().is_empty() {
        println!("all {} seed(s) clean", report.outcomes.len());
    }

    bench::artifact::maybe_write("chaos", scale, report.to_json());
    if let Some(path) = &args.trace {
        match std::fs::write(path, offender_trace.unwrap_or(last_trace)) {
            Ok(()) => eprintln!("wrote trace to {}", path.display()),
            Err(e) => {
                eprintln!("failed to write trace {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    if !report.offending_seeds().is_empty() {
        std::process::exit(1);
    }
}

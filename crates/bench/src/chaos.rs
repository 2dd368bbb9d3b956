//! Randomized fault campaigns checked against the read rule
//! (`repro chaos`).
//!
//! Runs N seeds × M faults of a contended counter workload under the
//! faultkit nemesis, audits conservation, and checks the recorded trace
//! for timestamp-order, snapshot-read, and replication violations. The
//! same seed always reproduces the same campaign byte for byte.
//!
//! - `--seed S` runs exactly seed S (repeatable); otherwise seeds `0..N`
//!   from `--seeds` (default 3, `REPRO_SCALE=full` → 8).
//! - `--faults M` faults per seed (default 50, full scale 200).
//! - `--inject validation-skip` disables Algorithm-1 read validation on
//!   every primary — a seeded bug the checker must catch (exit stays 1).
//! - `--inject overload` schedules only overload bursts, exercising the
//!   admission/retry plane (the run must still be clean).
//! - `--trace PATH` writes the full obskit trace (JSONL) of the first
//!   offending seed, or of the last seed when all are clean.
//!
//! Fails when any seed has a violation or a failed audit.

use faultkit::{run_seed_with_trace, CampaignConfig, CampaignReport, PlanKind};
use milana::Fraud;

use crate::common::{Args, Scale};
use crate::Outcome;

/// `repro chaos`.
pub(crate) fn repro(args: &Args, scale: Scale) -> Outcome {
    let (n_seeds, faults) = match scale {
        Scale::Quick => (3u64, 50usize),
        Scale::Full => (8, 200),
    };
    let mut seeds: Vec<u64> = args.parsed("--seed");
    if seeds.is_empty() {
        seeds = (0..args.last_or("--seeds", n_seeds)).collect();
    }
    let cfg = CampaignConfig {
        seeds,
        faults: args.last_or("--faults", faults),
        shards: args.last_or("--shards", 2u32),
        fraud: args.fraud(&["validation-skip", "overload"]),
        plan: if args.values("--inject").any(|what| what == "overload") {
            PlanKind::Overload
        } else {
            PlanKind::Mixed
        },
        ..CampaignConfig::default()
    };
    eprintln!(
        "chaos campaign: {} seed(s) x {} faults, {} shard(s){}{} ...",
        cfg.seeds.len(),
        cfg.faults,
        cfg.shards,
        if cfg.fraud == Fraud::SkipValidation {
            " [validation-skip injected]"
        } else {
            ""
        },
        if cfg.plan == PlanKind::Overload {
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
            o.audit.acked,
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
                "  conservation violated: {}",
                o.failure().unwrap_or_default()
            );
        }
        // The checker slices only the first violation of each class: the
        // others get one line each.
        for v in &o.violations {
            println!("  {}: {}", v.class, v.description);
            if !v.trace_slice.is_empty() {
                println!("  minimal trace slice:");
                for line in v.trace_slice.lines() {
                    println!("    {line}");
                }
            }
        }
    }
    let clean = report.offending_seeds().is_empty();
    if report.violation_count() == 0 && clean {
        println!("all {} seed(s) clean", report.outcomes.len());
    }
    if args.trace.is_some() {
        crate::common::pick_trace(offender_trace.unwrap_or(last_trace));
    }
    Outcome {
        data: report.to_json(),
        ok: clean,
    }
}

//! # bench — experiment reproductions for every table and figure
//!
//! One binary, `repro <experiment> [flags]`, over one table
//! ([`experiments`]); one module per evaluation artifact of the paper:
//!
//! | Artifact | Module | Command |
//! |---|---|---|
//! | Table 1 (FTL throughput/latency) | [`table1`] | `repro table1` |
//! | Figure 6 (aborts vs clients, SFTL/MFTL) | [`fig6`] | `repro fig6` |
//! | Figure 7 (aborts vs α, four clock disciplines × backend) | [`fig7`] | `repro fig7` |
//! | Figure 8 (latency vs throughput, ±LV) | [`fig8`] | `repro fig8` |
//! | Figure 9 (MILANA vs Centiman LV) | [`fig9`] | `repro fig9` |
//! | Design-choice ablations | [`ablations`] | `repro ablations` |
//! | Group commit / RPC coalescing | [`batch`] | `repro batch` |
//! | Elastic resharding under load | [`rebalance`] | `repro rebalance` |
//! | Read scaling (backup snapshot reads) | [`readscale`] | `repro readscale` |
//! | Cold-restart recovery (mount scan + MTTR) | [`recovery`] | `repro recovery` |
//! | Clock-fault robustness (fencing, ε bound) | [`clockfault`] | `repro clockfault` |
//! | Randomized fault campaigns | [`chaos`] | `repro chaos` |
//!
//! `repro all` runs the first eleven in that order; `repro --list` prints
//! the table. Set `REPRO_SCALE=full` for larger, slower, closer-to-paper
//! runs. The clusters the figures run on are all [`testbed::paper`] with
//! one thing changed.
//!
//! Every experiment also accepts `--json <path>` and then writes its
//! measured points as a deterministic JSON artifact (see [`artifact`]):
//! same seed, same scale → byte-identical file at any `--threads`.

use milana::Fraud;
use obskit::Json;

use common::{Args, Scale};

pub mod ablations;
pub mod artifact;
pub mod batch;
pub mod chaos;
pub mod clockfault;
pub mod common;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod readscale;
pub mod rebalance;
pub mod recovery;
pub mod table1;
pub mod testbed;

/// What one experiment run produced.
#[derive(Debug)]
pub struct Outcome {
    /// The artifact payload (`data` of the `--json` envelope).
    pub data: Json,
    /// False when an acceptance check failed; `repro` then exits 1.
    pub ok: bool,
}

impl Outcome {
    /// The outcome of an experiment that measures and checks nothing.
    pub(crate) fn pass(data: Json) -> Outcome {
        Outcome { data, ok: true }
    }

    /// The outcome of a run whose checks `passed` (or not) with a seeded
    /// `fraud` (or `Fraud::None`). Under a fraud, passing means the checkers
    /// caught it, and the exit code inverts: a caught fraud exits 1 like any
    /// failed check (CI inverts it), while a blind checker — `missed` goes to
    /// stderr — exits 0 and CI flags the miss.
    pub(crate) fn of_fraud_run(data: Json, passed: bool, fraud: Fraud, missed: &str) -> Outcome {
        let injected = fraud != Fraud::None;
        if injected && !passed {
            eprintln!("{missed}");
        }
        Outcome {
            data,
            ok: passed != injected,
        }
    }
}

/// One row of the experiment table.
#[derive(Debug)]
pub struct Experiment {
    /// What `repro <name>` is called; also the artifact envelope's
    /// `experiment` and this row's key under `repro all`'s `data`.
    pub name: &'static str,
    /// One line for `repro --list`.
    pub about: &'static str,
    /// The flags this experiment takes besides the shared `--json`,
    /// `--threads` and `--trace`, each spelled with its value: `"--seed <S>"`.
    pub flags: &'static [&'static str],
    /// Whether `repro all` runs it.
    pub(crate) in_all: bool,
    /// Computes, prints its table to stdout, and returns the payload.
    pub run: fn(&Args, Scale) -> Outcome,
}

const SEED: &[&str] = &["--seed <S>"];

#[rustfmt::skip] // one row, two lines
static TABLE: [Experiment; 13] = [
    Experiment { name: "table1", flags: &[], in_all: true, run: table1::repro,
        about: "Table 1: single-SSD VFTL vs MFTL" },
    Experiment { name: "fig6", flags: &[], in_all: true, run: fig6::repro,
        about: "Figure 6: abort rate vs clients, SFTL vs MFTL" },
    Experiment { name: "fig7", flags: &[], in_all: true, run: fig7::repro,
        about: "Figure 7: abort rate vs contention, Perfect/PTP-HW/PTP-SW/NTP, and the knee" },
    Experiment { name: "fig8", flags: &[], in_all: true, run: fig8::repro,
        about: "Figure 8: latency vs throughput, with and without local validation" },
    Experiment { name: "fig9", flags: &[], in_all: true, run: fig9::repro,
        about: "Figure 9: MILANA vs Centiman local validation" },
    Experiment { name: "ablations", flags: &[], in_all: true, run: ablations::repro,
        about: "replication order, DFTL paging, packing window, open loop" },
    Experiment { name: "batch", flags: SEED, in_all: true, run: batch::repro,
        about: "group-commit and RPC-coalescing sweep" },
    Experiment { name: "rebalance", flags: SEED, in_all: true, run: rebalance::repro,
        about: "live hot-shard split under skew, and its fault campaign" },
    Experiment { name: "readscale", flags: SEED, in_all: true, run: readscale::repro,
        about: "backup snapshot reads vs primary-only routing" },
    Experiment { name: "recovery", flags: &["--seed <S>", "--inject <durability-skip>"],
        in_all: true, run: recovery::repro,
        about: "cold-restart MTTR sweep and power-fail campaign" },
    Experiment { name: "clockfault", flags: &["--seed <S>", "--inject <uncertainty-skip>"],
        in_all: true, run: clockfault::repro,
        about: "fence-and-recover run, clock-fault campaign" },
    Experiment { name: "chaos", in_all: false, run: chaos::repro,
        flags: &["--seed <S>", "--seeds <N>", "--faults <M>", "--shards <K>",
            "--inject <validation-skip|overload>"],
        about: "randomized fault campaigns with serializability checking" },
    Experiment { name: "all", flags: &[], in_all: false, run: all,
        about: "the eleven experiments above chaos, at the seeds they default to" },
];

/// Every experiment `repro` can run; `repro all` runs the `in_all` rows in
/// this order.
pub fn experiments() -> &'static [Experiment] {
    &TABLE
}

fn all(args: &Args, scale: Scale) -> Outcome {
    run_all(&TABLE, args, scale)
}

/// Runs the `in_all` rows of `table` in order, a blank line between their
/// tables, nesting each row's payload under its name. Not ok when any row
/// is not.
fn run_all(table: &[Experiment], args: &Args, scale: Scale) -> Outcome {
    eprintln!("running all reproductions at {scale:?} scale ...\n");
    let mut all = Outcome::pass(Json::obj());
    for (i, exp) in table.iter().filter(|e| e.in_all).enumerate() {
        if i > 0 {
            println!();
        }
        let out = (exp.run)(args, scale);
        all.data = all.data.field(exp.name, out.data);
        all.ok &= out.ok;
    }
    all
}

#[cfg(test)]
mod tests;

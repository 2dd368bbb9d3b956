//! Clock-fault robustness reproduction: abort rate across the clock
//! precision spectrum, a fence-and-recover degradation run, and a
//! clock-fault campaign with the external-consistency bound checked.
//!
//! ```text
//! repro_clockfault [--seed S] [--inject uncertainty-skip] [--json PATH] [--threads N]
//!                  [--trace PATH]
//! ```
//!
//! - `--seed S` fixes the simulation seed (default 1). The same seed and
//!   scale produce a byte-identical `--json` artifact.
//! - `--inject uncertainty-skip` flips the seeded fraud — primaries keep
//!   tracking clock health but ignore the verdicts, so mis-timestamped
//!   prepares commit. The campaign's checker must flag the resulting
//!   `clock_bound_breach`, and the exit code stays 1 (a clean exit means
//!   the clock bound is checked by nobody).
//! - `--json PATH` writes the byte-stable artifact.
//!
//! Exits non-zero when an honest run breaks the skew ordering, fails to
//! fence the broken client, commits past the promised ε — or when an
//! injected fraud goes undetected.

use bench::clockfault::{self, ClockFaultConfig};
use bench::common::Scale;

fn main() {
    let scale = Scale::from_env();
    let mut cfg = ClockFaultConfig::for_scale(scale);
    let args = bench::common::Args::parse(&["--seed", "--inject"], &[]);
    cfg.seed = args.last_or("--seed", cfg.seed);
    for what in args.values("--inject") {
        match what {
            "uncertainty-skip" => cfg.inject_uncertainty_skip = true,
            what => {
                eprintln!("unknown --inject {what}");
                std::process::exit(2);
            }
        }
    }

    eprintln!(
        "clockfault: 4 disciplines x {} sub-seed(s), {} campaign fault(s), seed {}{} ...",
        cfg.sub_seeds,
        cfg.campaign_faults,
        cfg.seed,
        if cfg.inject_uncertainty_skip {
            " [uncertainty-skip injected]"
        } else {
            ""
        }
    );
    let sweep = clockfault::run_sweep(&cfg);
    let degradation = clockfault::run_degradation(&cfg);
    let campaign = clockfault::run_fault_campaign(&cfg);
    clockfault::print(&cfg, &sweep, &degradation, &campaign);

    bench::artifact::maybe_write(
        "clockfault",
        scale,
        clockfault::to_json(&cfg, &sweep, &degradation, &campaign),
    );
    bench::common::maybe_dump_trace();
    if cfg.inject_uncertainty_skip {
        // Mirror repro_chaos: a caught fraud exits 1 (CI inverts this
        // check), while a blind checker exits 0 and CI flags the miss.
        if clockfault::ok(&cfg, &sweep, &degradation, &campaign) {
            std::process::exit(1);
        }
        eprintln!("clock-bound checker missed the injected fraud");
        return;
    }
    if !clockfault::ok(&cfg, &sweep, &degradation, &campaign) {
        std::process::exit(1);
    }
}

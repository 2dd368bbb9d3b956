//! Cold-restart recovery reproduction: mount-scan time and MTTR vs. store
//! size, plus a power-fail fault campaign with durability checking.
//!
//! ```text
//! repro_recovery [--seed S] [--inject durability-skip] [--json PATH] [--threads N]
//!                [--trace PATH]
//! ```
//!
//! - `--seed S` fixes the simulation seed (default 1). The same seed and
//!   scale produce a byte-identical `--json` artifact.
//! - `--inject durability-skip` flips the seeded fraud — cold restarts
//!   adopt the mounted floor and skip anti-entropy catch-up. The sweep's
//!   durability audit and the campaign's checker must both catch it, and
//!   the exit code stays 1 (a clean exit means the checks are blind).
//! - `--json PATH` writes the byte-stable artifact.
//!
//! Exits non-zero when an honest run loses an acked write (or an injected
//! fraud goes undetected).

use bench::common::Scale;
use bench::recovery::{self, RecoveryConfig};

fn main() {
    let scale = Scale::from_env();
    let mut cfg = RecoveryConfig::for_scale(scale);
    let args = bench::common::Args::parse(&["--seed", "--inject"], &[]);
    cfg.seed = args.last_or("--seed", cfg.seed);
    for what in args.values("--inject") {
        match what {
            "durability-skip" => cfg.inject_durability_skip = true,
            what => {
                eprintln!("unknown --inject {what}");
                std::process::exit(2);
            }
        }
    }

    eprintln!(
        "recovery: {} store size(s), {} campaign fault(s), seed {}{} ...",
        cfg.store_sizes.len(),
        cfg.campaign_faults,
        cfg.seed,
        if cfg.inject_durability_skip {
            " [durability-skip injected]"
        } else {
            ""
        }
    );
    let trials = recovery::run(&cfg);
    let campaign = recovery::run_powerfail_campaign(&cfg);
    recovery::print(&cfg, &trials, &campaign);

    bench::artifact::maybe_write(
        "recovery",
        scale,
        recovery::to_json(&cfg, &trials, &campaign),
    );
    bench::common::maybe_dump_trace();
    if cfg.inject_durability_skip {
        // Mirror repro_chaos: a caught fraud exits 1 (CI inverts this
        // check), while a blind checker exits 0 and CI flags the miss.
        if recovery::ok(&cfg, &trials, &campaign) {
            std::process::exit(1);
        }
        eprintln!("durability checks missed the injected fraud");
        return;
    }
    if !recovery::ok(&cfg, &trials, &campaign) {
        std::process::exit(1);
    }
}

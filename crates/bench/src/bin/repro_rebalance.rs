//! Elastic-resharding reproduction. See [`bench::rebalance`] for the
//! experiment design and acceptance checks.
//!
//! ```text
//! repro_rebalance [--seed S] [--json PATH] [--threads N] [--trace PATH]
//! ```
//!
//! Exits non-zero on a failed check. With `--json PATH` the run is
//! exported as a byte-stable artifact: same seed, same scale →
//! identical file.

use bench::common::Scale;
use bench::{artifact, rebalance};

fn main() {
    let scale = Scale::from_env();
    let seed = bench::common::Args::parse(&["--seed"], &[]).last_or("--seed", 1u64);

    eprintln!(
        "rebalance: seed {seed}, 4 clients, zipf s={}.{:02} hot {}% ...",
        rebalance::ZIPF_S_X100 / 100,
        rebalance::ZIPF_S_X100 % 100,
        rebalance::HOT_PCT
    );
    let run = rebalance::run_once(scale, seed);
    let campaign = rebalance::run_fault_campaign(scale, seed);
    rebalance::print(&run, &campaign);
    artifact::maybe_write(
        "rebalance",
        scale,
        rebalance::to_json(&run, &campaign, seed),
    );
    bench::common::maybe_dump_trace();
    if !rebalance::ok(&run, &campaign) {
        std::process::exit(1);
    }
}

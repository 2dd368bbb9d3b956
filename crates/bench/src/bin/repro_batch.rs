//! Group-commit & RPC-coalescing sweep. See [`bench::batch`] for the
//! experiment design and acceptance checks.
//!
//! ```text
//! repro_batch [--seed S] [--json PATH] [--threads N] [--trace PATH]
//! ```
//!
//! Exits non-zero on a failed check. With `--json PATH` the sweep is
//! exported as a byte-stable artifact: same seed, same scale →
//! identical file.

use std::time::Duration;

use bench::common::Scale;
use bench::{artifact, batch};

fn main() {
    let scale = Scale::from_env();
    let seed = bench::common::Args::parse(&["--seed"], &[]).last_or("--seed", 1u64);

    let cfg = batch::BatchSweepConfig::for_scale(scale);
    eprintln!(
        "batch sweep: seed {seed}, 4 clients x {}/s, deadline {} us ...",
        Duration::from_secs(1).as_nanos() / batch::INTERARRIVAL.as_nanos(),
        batch::DEADLINE.as_micros()
    );
    let points = batch::run(&cfg, seed);
    batch::print(&points);
    artifact::maybe_write("batch", scale, batch::to_json(&points, seed));
    bench::common::maybe_dump_trace();
    if !batch::ok(&points) {
        std::process::exit(1);
    }
}

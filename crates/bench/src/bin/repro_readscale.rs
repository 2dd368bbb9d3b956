//! Read-scaling reproduction: backup snapshot reads vs primary-only
//! routing. See [`bench::readscale`] for the experiment design and
//! acceptance checks.
//!
//! ```text
//! repro_readscale [--seed S] [--json PATH] [--threads N] [--trace PATH]
//! ```
//!
//! Exits non-zero on a failed check. With `--json PATH` the sweep is
//! exported as a byte-stable artifact: same seed, same scale →
//! identical file.

use bench::common::Scale;
use bench::{artifact, readscale};

fn main() {
    let scale = Scale::from_env();
    let seed = bench::common::Args::parse(&["--seed"], &[]).last_or("--seed", 1u64);

    let cfg = readscale::ReadScaleConfig::for_scale(scale);
    eprintln!("read scaling: seed {seed}, routes + backup-reads chaos campaign ...");
    let out = readscale::run(&cfg, seed);
    readscale::print(&out);
    artifact::maybe_write("readscale", scale, readscale::to_json(&out));
    bench::common::maybe_dump_trace();
    if !readscale::ok(&out) {
        std::process::exit(1);
    }
}

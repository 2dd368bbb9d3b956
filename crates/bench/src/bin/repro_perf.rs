//! Perf baselines: microbenches for the validate hot loop, batch
//! replication flush, and the FTL read path, plus end-to-end suite
//! wall-clocks. See [`bench::perf`] for what each number means.
//!
//! ```text
//! repro_perf [--seed S] [--json PATH] [--threads N] [--trace PATH] [--deterministic-only]
//! ```
//!
//! - `--seed S` fixes the microbench seed (default 42).
//! - `--json PATH` writes `BENCH_perf.json`: deterministic counters and
//!   timing fields in separate sub-objects.
//! - `--deterministic-only` omits every timing field, so two runs of the
//!   same build produce byte-identical documents (the CI perf-smoke
//!   check `cmp`s exactly this).
//! - Build with `--features bench/count-allocs` to add allocation
//!   counts from the counting global allocator (byte-stable at
//!   `--threads 1`).

use bench::common::Scale;
use bench::{artifact, perf};

#[cfg(feature = "count-allocs")]
#[global_allocator]
static ALLOC: perfkit::alloc::CountingAllocator = perfkit::alloc::CountingAllocator;

fn main() {
    let args = bench::common::Args::parse(&["--seed"], &["--deterministic-only"]);
    let seed = args.last_or("--seed", 42u64);
    let deterministic_only = args.has("--deterministic-only");

    let scale = Scale::from_env();
    let report = perf::run(scale, seed);

    println!("perf baselines (seed {seed}, threads {}):", report.threads);
    for b in &report.benches {
        print!(
            "  {:<12} {:>9} iters  checksum {:016x}",
            b.name, b.iters, b.checksum
        );
        if deterministic_only {
            println!();
        } else if b.sim_polls > 0 {
            println!(
                "  {:>7.1} ms  {:>8.0} ns/op  {:>11.0} sim-events/s",
                b.wall.as_secs_f64() * 1e3,
                b.ns_per_iter(),
                b.events_per_sec()
            );
        } else {
            println!(
                "  {:>7.1} ms  {:>8.0} ns/op  {:>11.0} ops/s",
                b.wall.as_secs_f64() * 1e3,
                b.ns_per_iter(),
                b.iters_per_sec()
            );
        }
    }
    for s in &report.suites {
        print!(
            "  suite {:<12} {:>3} points  {:>9} commits",
            s.name, s.points, s.commits
        );
        if deterministic_only {
            println!();
        } else {
            println!("  {:>7.2} s", s.wall.as_secs_f64());
        }
    }

    artifact::maybe_write("perf", scale, perf::to_json(&report, !deterministic_only));
    bench::common::maybe_dump_trace();
}

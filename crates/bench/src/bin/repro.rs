//! `repro <experiment> [flags]` — every experiment reproduction behind one
//! binary; `repro --list` names them, `repro all` runs the suite.
//!
//! ```text
//! repro <experiment> [--json PATH] [--threads N] [--trace PATH] [own flags]
//! ```
//!
//! Exits 2 on a malformed command line or `REPRO_SCALE` before any work
//! starts, 1 when an acceptance check failed (or an artifact could not be
//! written), 0 otherwise. Built with `--features count-allocs`, it also
//! prints to stderr the allocations and bytes the experiment drove through
//! the global allocator (byte-stable per seed at `--threads 1`).

use bench::common::{Args, Scale};

#[cfg(feature = "count-allocs")]
#[global_allocator]
static ALLOC: perfkit::alloc::CountingAllocator = perfkit::alloc::CountingAllocator;

fn main() {
    let (exp, args) = Args::parse(bench::experiments());
    let scale = Scale::from_env();
    let Some(exp) = exp else {
        for e in bench::experiments() {
            let line = format!("{:<11} {}  {}", e.name, e.about, e.flags.join(" "));
            println!("{}", line.trim_end());
        }
        return;
    };
    if args.trace.is_some() {
        // Trace rings are per-thread: a traced run stays on this one.
        bench::common::start_trace();
        perfkit::pool::set_threads(1);
    } else {
        perfkit::pool::set_threads(args.threads);
    }

    let outcome = (exp.run)(&args, scale);
    #[cfg(feature = "count-allocs")]
    {
        let counts = perfkit::alloc::AllocCounts::now();
        eprintln!("allocations {}  bytes {}", counts.allocations, counts.bytes);
    }
    if let Some(path) = &args.json {
        bench::artifact::write(path, exp.name, scale, outcome.data);
    }
    if let Some(path) = &args.trace {
        bench::common::dump_trace(path);
    }
    if !outcome.ok {
        std::process::exit(1);
    }
}

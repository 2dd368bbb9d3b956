//! Perf baselines for the hot paths the perfkit pass touched: the
//! validate loop, batch replication flush, and the FTL read path, plus
//! end-to-end wall-clock for two representative suites.
//!
//! Every bench reports two kinds of numbers, kept strictly apart:
//!
//! - **deterministic** counters — iteration counts, verdict/result
//!   checksums, and simulator task-poll counts. Byte-stable for a given
//!   seed, so CI can diff them across runs and catch a behavior change
//!   masquerading as a perf delta.
//! - **timing** fields — wall-clock nanoseconds and derived rates
//!   (events/sec, ns/op). Machine- and load-dependent; excluded from the
//!   byte-stability contract and omitted entirely in deterministic-only
//!   mode so two runs of the same build can be `cmp`'d.
//!
//! With the `count-allocs` feature (and `repro`'s counting global
//! allocator) each bench also reports the allocation count and bytes it
//! drove through the allocator — deterministic for a single-threaded
//! bench, so allocation regressions diff like event counts. The suite
//! timings honor `--threads`; allocation counts are only byte-stable at
//! `--threads 1`.
//!
//! `repro perf` takes `--seed S` (default 42) and `--deterministic-only`,
//! which omits every timing field so two runs of the same build produce
//! byte-identical documents (the CI perf-smoke check `cmp`s exactly this).

use std::time::{Duration, Instant};

use flashsim::{Backend, BackendKind, Key, NandConfig};
use milana::msg::{TxnId, TxnRecord, TxnStatus};
use milana::table::TxnTable;
use obskit::Json;
use perfkit::FastMap;
use simkit::Sim;
use timesync::{ClientId, Timestamp, Version};

use crate::common::{Args, Scale};
use crate::Outcome;

/// One microbench result. Deterministic counters and timing fields live
/// in separate JSON sub-objects (see the module docs).
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Bench name (stable identifier).
    pub name: &'static str,
    /// Operations executed (deterministic).
    pub iters: u64,
    /// Fold of the per-op outcomes — a behavior checksum (deterministic).
    pub checksum: u64,
    /// Simulator task polls driven, 0 for pure-CPU benches (deterministic).
    pub sim_polls: u64,
    /// Simulator tasks spawned, 0 for pure-CPU benches (deterministic).
    pub sim_spawns: u64,
    /// Allocations and bytes during the bench (deterministic at
    /// `--threads 1`); present only with `count-allocs`.
    pub allocs: Option<(u64, u64)>,
    /// Wall-clock for the measured loop (timing).
    pub wall: Duration,
}

impl BenchResult {
    /// Nanoseconds per operation (timing).
    pub fn ns_per_iter(&self) -> f64 {
        self.wall.as_nanos() as f64 / self.iters.max(1) as f64
    }

    /// Operations per second (timing). For sim-driven benches the more
    /// interesting rate is [`BenchResult::events_per_sec`].
    pub fn iters_per_sec(&self) -> f64 {
        self.iters as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Simulator task polls per second of wall clock (timing); 0 for
    /// pure-CPU benches.
    pub fn events_per_sec(&self) -> f64 {
        self.sim_polls as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Wall-clock for one end-to-end suite run (timing) plus a deterministic
/// shape summary proving the run did the same work.
#[derive(Debug, Clone)]
pub struct SuiteResult {
    /// Suite name (stable identifier).
    pub name: &'static str,
    /// Points/outcomes produced (deterministic).
    pub points: u64,
    /// Total commits across the suite (deterministic).
    pub commits: u64,
    /// Allocations and bytes (deterministic at `--threads 1`); present
    /// only with `count-allocs`.
    pub allocs: Option<(u64, u64)>,
    /// Wall-clock for the suite (timing).
    pub wall: Duration,
}

/// Everything `repro perf` measures.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Seed the microbenches derive from.
    pub seed: u64,
    /// Worker threads the suite runs used.
    pub threads: usize,
    /// Microbench results.
    pub benches: Vec<BenchResult>,
    /// End-to-end suite timings.
    pub suites: Vec<SuiteResult>,
}

fn key(i: u64) -> Key {
    Key::from(i)
}

fn version(ts: u64) -> Version {
    Version::new(Timestamp(ts), ClientId(0))
}

fn txid(seq: u64) -> TxnId {
    TxnId {
        client: ClientId(1),
        seq,
    }
}

/// Reads the allocation counters when `count-allocs` is on.
fn alloc_counts() -> Option<(u64, u64)> {
    #[cfg(feature = "count-allocs")]
    {
        let c = perfkit::alloc::AllocCounts::now();
        Some((c.allocations, c.bytes))
    }
    #[cfg(not(feature = "count-allocs"))]
    None
}

fn alloc_delta(before: Option<(u64, u64)>) -> Option<(u64, u64)> {
    let (a0, b0) = before?;
    let (a1, b1) = alloc_counts()?;
    Some((a1.saturating_sub(a0), b1.saturating_sub(b0)))
}

/// Validate hot loop: Algorithm 1 against a populated transaction table,
/// mixing clean validations with every abort class. Pure CPU — this is
/// the FastMap + scratch-reuse path the optimization pass targeted.
pub fn bench_validate(scale: Scale, seed: u64) -> BenchResult {
    let (prepared, iters) = match scale {
        Scale::Quick => (256u64, 200_000u64),
        Scale::Full => (1_024, 2_000_000),
    };
    let keyspace = prepared * 8;

    // Table population: `prepared` records each holding 4 keys, plus
    // read-timestamp metadata over a disjoint stripe.
    let mut table = TxnTable::new();
    for p in 0..prepared {
        let base = p * 4;
        table.prepare(TxnRecord {
            txid: txid(p),
            ts_commit: Timestamp(1_000 + p),
            writes: (0..4)
                .map(|j| (key(base + j), flashsim::value(&b"v"[..])))
                .collect::<Vec<_>>()
                .into(),
            participants: vec![semel::shard::ShardId(0)].into(),
            status: TxnStatus::Prepared,
        });
    }
    for i in 0..keyspace / 2 {
        table.note_read(&key(prepared * 4 + i), Timestamp(500 + i));
    }
    let committed: FastMap<Key, Version> = (0..keyspace)
        .map(|i| (key(i), version(100 + i % 50)))
        .collect();

    // Pre-built read/write sets, rotated by a seeded LCG so the verdict
    // mix is fixed per seed but exercises success and every abort arm.
    let mut rng = seed | 1;
    let mut next = move || {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        rng >> 33
    };
    type ValidateSet = (Vec<(Key, Version)>, Vec<Key>, Timestamp);
    let sets: Vec<ValidateSet> = (0..512)
        .map(|_| {
            let r = next() % keyspace;
            let r2 = (r + 1) % keyspace;
            let w = next() % keyspace;
            let ts = 900 + next() % 1_200;
            // One in eight read sets carries a stale version, so the loop
            // sees clean validations, ReadStale, ReadSawPrepared (keys in
            // the prepared range), and WriteAfterRead (writes under the
            // read-timestamp stripe) in a seed-dependent mix.
            let v2 = if next().is_multiple_of(8) {
                version(1)
            } else {
                version(100 + r2 % 50)
            };
            (
                vec![(key(r), version(100 + r % 50)), (key(r2), v2)],
                vec![key(w), key((w + 3) % keyspace)],
                Timestamp(ts),
            )
        })
        .collect();

    let before = alloc_counts();
    let start = Instant::now();
    let mut checksum = 0u64;
    for i in 0..iters {
        let (reads, writes, ts) = &sets[(i % sets.len() as u64) as usize];
        let verdict = table.validate(reads, writes, *ts, |k| committed.get(k).copied());
        // Fold the verdict discriminant so any behavior change shows up.
        checksum = checksum
            .wrapping_mul(31)
            .wrapping_add(if verdict.is_success() { 1 } else { 2 });
    }
    let wall = start.elapsed();
    BenchResult {
        name: "validate",
        iters,
        checksum,
        sim_polls: 0,
        sim_spawns: 0,
        allocs: alloc_delta(before),
        wall,
    }
}

/// Batch replication flush: drive a [`batchkit::Batcher`] through full
/// size-flushes and deadline flushes inside one deterministic sim. The
/// flush fn echoes item payloads, so the checksum proves item order and
/// batch boundaries.
pub fn bench_batch_flush(scale: Scale, seed: u64) -> BenchResult {
    let items: u64 = match scale {
        Scale::Quick => 40_000,
        Scale::Full => 400_000,
    };
    let mut sim = Sim::new(seed);
    let h = sim.handle();
    let before = alloc_counts();
    let start = Instant::now();
    let batcher: batchkit::Batcher<u64, u64> = batchkit::Batcher::new(
        &h,
        simkit::net::NodeId(0),
        "perf",
        batchkit::BatchConfig {
            batch_max: 8,
            batch_deadline: Duration::from_micros(100),
        },
        obskit::Obs::new(),
        |batch: Vec<u64>| async move { batch.into_iter().map(|x| x.wrapping_mul(3)).collect() },
    );
    let b = batcher.clone();
    let checksum = sim.block_on(async move {
        let mut sum = 0u64;
        let mut n = 0u64;
        while n < items {
            // Seven awaited in a burst (size flush at 8 with the eighth),
            // then one lone submit that rides the deadline timer.
            let burst: Vec<_> = (0..8).map(|j| b.submit(n + j)).collect();
            for fut in burst {
                sum = sum.wrapping_add(fut.await.unwrap_or(0));
            }
            n += 8;
            if n.is_multiple_of(1_024) {
                sum = sum.wrapping_add(b.submit(n).await.unwrap_or(0));
                n += 1;
            }
        }
        sum
    });
    let wall = start.elapsed();
    BenchResult {
        name: "batch_flush",
        iters: items,
        checksum,
        sim_polls: h.polls(),
        sim_spawns: h.spawns(),
        allocs: alloc_delta(before),
        wall,
    }
}

/// FTL read path: snapshot (`get_at`) and latest reads against a
/// preloaded MFTL device — the mapping-table lookup the FastMap pass
/// rewrote, plus the simulated NAND read pipeline.
pub fn bench_ftl_read(scale: Scale, seed: u64) -> BenchResult {
    let (keys, reads) = match scale {
        Scale::Quick => (2_000u64, 20_000u64),
        Scale::Full => (8_000, 200_000),
    };
    let mut sim = Sim::new(seed);
    let h = sim.handle();
    let backend = Backend::new(BackendKind::Mftl, &h, NandConfig::default());
    for i in 0..keys {
        backend.bulk_load(
            key(i),
            flashsim::value(&b"payload"[..]),
            version(10 + i % 7),
        );
    }
    backend.finish_load();
    let before = alloc_counts();
    let start = Instant::now();
    let checksum = sim.block_on(async move {
        let mut sum = 0u64;
        for i in 0..reads {
            let k = key((i * 2_654_435_761) % keys);
            let got = if i % 4 == 0 {
                backend.get_at(&k, Timestamp(1_000)).await
            } else {
                backend.get_latest(&k).await
            };
            if let Ok(vv) = got {
                sum = sum
                    .wrapping_mul(31)
                    .wrapping_add(vv.version.ts.0)
                    .wrapping_add(vv.value.len() as u64);
            }
        }
        sum
    });
    let wall = start.elapsed();
    BenchResult {
        name: "ftl_read",
        iters: reads,
        checksum,
        sim_polls: h.polls(),
        sim_spawns: h.spawns(),
        allocs: alloc_delta(before),
        wall,
    }
}

/// Times one end-to-end suite (honors `--threads`); `run` returns its
/// per-point commit counts.
fn suite(name: &'static str, run: impl FnOnce() -> Vec<u64>) -> SuiteResult {
    let before = alloc_counts();
    let start = Instant::now();
    let commits = run();
    let wall = start.elapsed();
    SuiteResult {
        name,
        points: commits.len() as u64,
        commits: commits.iter().sum(),
        allocs: alloc_delta(before),
        wall,
    }
}

/// End-to-end wall-clock for the group-commit sweep.
pub fn suite_batch(scale: Scale, seed: u64) -> SuiteResult {
    let cfg = crate::batch::BatchSweepConfig::for_scale(scale);
    suite("batch", || {
        let points = crate::batch::run(&cfg, seed);
        points.iter().map(|p| p.commits).collect()
    })
}

/// End-to-end wall-clock for the read-scaling suite.
pub fn suite_readscale(scale: Scale, seed: u64) -> SuiteResult {
    let cfg = crate::readscale::ReadScaleConfig::for_scale(scale);
    suite("readscale", || {
        let outcome = crate::readscale::run(&cfg, seed);
        outcome.points.iter().map(|p| p.commits).collect()
    })
}

/// `repro perf`.
pub fn repro(args: &Args, scale: Scale) -> Outcome {
    let seed = args.last_or("--seed", 42u64);
    let deterministic_only = args.has("--deterministic-only");
    let report = run(scale, seed);

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
    Outcome::pass(to_json(&report, !deterministic_only))
}

/// Runs every microbench and suite timer.
pub fn run(scale: Scale, seed: u64) -> PerfReport {
    let benches = vec![
        bench_validate(scale, seed),
        bench_batch_flush(scale, seed),
        bench_ftl_read(scale, seed),
    ];
    let suites = vec![suite_batch(scale, seed), suite_readscale(scale, seed)];
    PerfReport {
        seed,
        threads: perfkit::pool::threads(),
        benches,
        suites,
    }
}

fn alloc_json(allocs: Option<(u64, u64)>, obj: Json) -> Json {
    match allocs {
        Some((n, bytes)) => obj
            .field("allocations", Json::U64(n))
            .field("alloc_bytes", Json::U64(bytes)),
        None => obj,
    }
}

/// Renders the report. With `timing: false` every machine-dependent
/// field is omitted, so two runs of the same build produce byte-identical
/// documents (the CI perf-smoke contract).
pub fn to_json(report: &PerfReport, timing: bool) -> Json {
    let benches = Json::arr(report.benches.iter().map(|b| {
        let det = alloc_json(
            b.allocs,
            Json::obj()
                .field("iters", Json::U64(b.iters))
                .field("checksum", Json::U64(b.checksum))
                .field("sim_polls", Json::U64(b.sim_polls))
                .field("sim_spawns", Json::U64(b.sim_spawns)),
        );
        let obj = Json::obj()
            .field("name", Json::str(b.name))
            .field("deterministic", det);
        if timing {
            obj.field(
                "timing",
                Json::obj()
                    .field("wall_ns", Json::U64(b.wall.as_nanos() as u64))
                    .field("ns_per_iter", Json::F64(b.ns_per_iter()))
                    .field("iters_per_sec", Json::F64(b.iters_per_sec()))
                    .field("sim_events_per_sec", Json::F64(b.events_per_sec())),
            )
        } else {
            obj
        }
    }));
    let suites = Json::arr(report.suites.iter().map(|s| {
        let det = alloc_json(
            s.allocs,
            Json::obj()
                .field("points", Json::U64(s.points))
                .field("commits", Json::U64(s.commits)),
        );
        let obj = Json::obj()
            .field("name", Json::str(s.name))
            .field("deterministic", det);
        if timing {
            obj.field(
                "timing",
                Json::obj().field("wall_ns", Json::U64(s.wall.as_nanos() as u64)),
            )
        } else {
            obj
        }
    }));
    Json::obj()
        .field("seed", Json::U64(report.seed))
        .field("threads", Json::U64(report.threads as u64))
        .field("count_allocs", Json::Bool(cfg!(feature = "count-allocs")))
        .field("benches", benches)
        .field("suites", suites)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Microbenches only: the end-to-end suites are exercised (and
    // byte-checked) by their own determinism tests, and running them
    // twice here would dominate the debug-profile test wall-clock.
    fn micro_report(seed: u64) -> PerfReport {
        let mut benches = vec![
            bench_validate(Scale::Quick, seed),
            bench_batch_flush(Scale::Quick, seed),
            bench_ftl_read(Scale::Quick, seed),
        ];
        // Alloc counts are per-process (the CI contract compares two
        // *processes*); in-process reruns see allocator warm-up skew.
        for b in &mut benches {
            b.allocs = None;
        }
        PerfReport {
            seed,
            threads: 1,
            benches,
            suites: vec![],
        }
    }

    #[test]
    fn deterministic_fields_are_stable_across_runs() {
        let a = micro_report(42);
        let b = micro_report(42);
        assert_eq!(
            to_json(&a, false).to_pretty_string(),
            to_json(&b, false).to_pretty_string(),
            "deterministic-only documents must match byte for byte"
        );
    }

    #[test]
    fn checksums_depend_on_seed() {
        let a = bench_validate(Scale::Quick, 1);
        let b = bench_validate(Scale::Quick, 2);
        assert_eq!(a.iters, b.iters);
        assert_ne!(a.checksum, b.checksum, "seed must steer the verdict mix");
    }

    #[test]
    fn sim_benches_report_polls() {
        let f = bench_ftl_read(Scale::Quick, 7);
        assert!(f.sim_polls > 0, "sim bench must drive the executor");
        let v = bench_validate(Scale::Quick, 7);
        assert_eq!(v.sim_polls, 0, "pure-CPU bench must not touch a sim");
    }
}

//! Figure 6 — transaction abort rate vs number of clients, single-version
//! (SFTL) vs multi-version (MFTL) storage.
//!
//! Paper setup (§5.2): one VM hosting the storage layer and a varying
//! number of clients, *zero clock skew* (single machine), Retwis Table-2
//! mix, one outstanding transaction per client, aborted transactions
//! retried with the same keys, contention parameter α swept.
//!
//! Expected shape: abort rates climb with clients and α; MFTL stays well
//! below SFTL because tardy read-only transactions can still read their
//! snapshot and commit instead of aborting.

use std::time::Duration;

use flashsim::BackendKind;
use milana::cluster::MilanaClusterConfig;
use obskit::Json;
use timesync::ClockSpec;

use crate::common::{run_retwis_on_milana, sweep, Args, Point, Scale};
use crate::testbed;
use crate::Outcome;

/// Parameters for the sweep.
#[derive(Debug, Clone)]
pub struct Fig6Config {
    /// Client counts on the x-axis.
    pub client_counts: Vec<u32>,
    /// Contention series.
    pub alphas: Vec<f64>,
    /// Keyspace size.
    pub keyspace: u64,
    /// Warm-up per run.
    pub warmup: Duration,
    /// Measurement window per run.
    pub measure: Duration,
}

impl Fig6Config {
    /// Derives from the global scale knob.
    pub(crate) fn for_scale(scale: Scale) -> Fig6Config {
        match scale {
            Scale::Quick => Fig6Config {
                client_counts: vec![4, 8, 12, 16, 20],
                alphas: vec![0.6, 0.8],
                keyspace: 5_000,
                warmup: Duration::from_millis(200),
                measure: Duration::from_millis(1000),
            },
            Scale::Full => Fig6Config {
                client_counts: vec![4, 8, 12, 16, 20, 24],
                alphas: vec![0.6, 0.7, 0.8],
                keyspace: 20_000,
                warmup: Duration::from_millis(500),
                measure: Duration::from_secs(5),
            },
        }
    }
}

/// One seed of one point; returns its workload counters.
fn run_point(
    kind: BackendKind,
    alpha: f64,
    clients: u32,
    cfg: &Fig6Config,
    seed: u64,
) -> obskit::FrozenTxnStats {
    let mut cluster_cfg = MilanaClusterConfig {
        replicas: 1, // single machine: storage layer without replication
        // Single-machine deployment: loopback-ish latencies.
        net: simkit::net::LatencyConfig {
            one_way: Duration::from_micros(5),
            jitter_std: Duration::from_micros(1),
        },
        // No clock skew on one VM.
        ..testbed::paper(kind, ClockSpec::perfect(), clients, cfg.keyspace)
    };
    if kind == BackendKind::Sftl {
        // SFTL stores one tuple per logical page; multi-version backends
        // pack eight 512 B tuples per 4 KB page and need version headroom.
        cluster_cfg.nand = cluster_cfg.nand.sized_for(cfg.keyspace, 4096, 0.5);
    }
    run_retwis_on_milana(
        seed,
        cluster_cfg,
        testbed::retwis(cfg.keyspace, alpha),
        1, // one outstanding transaction per client (paper)
        (cfg.warmup, cfg.measure),
    )
    .stats
}

/// `repro fig6`.
pub(crate) fn repro(_: &Args, scale: Scale) -> Outcome {
    eprintln!("running Figure 6 at {scale:?} scale ...");
    let cfg = Fig6Config::for_scale(scale);
    let points = run(&cfg);
    print(&cfg, &points);
    Outcome::pass(to_json(&cfg, &points))
}

/// A Figure 6 point: `(backend, α, clients)`.
pub(crate) type At = (BackendKind, f64, u32);

/// Runs the full sweep, averaging each point over three seeds (the no-wait
/// retry policy makes single runs noisy on the single-version backend).
/// A point's stats merge the three runs and its `extra` is the mean of
/// their abort rates. The three seeds stay inside one worker so each point
/// is a single unit of deterministic work.
pub fn run(cfg: &Fig6Config) -> Vec<Point<At>> {
    let mut grid = Vec::new();
    for kind in [BackendKind::Sftl, BackendKind::Mftl] {
        for &alpha in &cfg.alphas {
            for &clients in &cfg.client_counts {
                grid.push((kind, alpha, clients));
            }
        }
    }
    sweep(grid, |&(kind, alpha, clients)| {
        let mut acc = 0.0;
        let mut merged = obskit::TxnStats::new().freeze();
        const SEEDS: u64 = 3;
        for r in 0..SEEDS {
            let seed = 600 + (alpha * 100.0) as u64 + clients as u64 + r * 7919;
            let stats = run_point(kind, alpha, clients, cfg, seed);
            acc += stats.abort_rate();
            merged.merge_from(&stats);
        }
        (merged, acc / SEEDS as f64)
    })
}

/// Deterministic JSON payload: one object per (FTL, α, clients) point
/// with its abort-reason breakdown and latency percentiles.
pub fn to_json(cfg: &Fig6Config, points: &[Point<At>]) -> Json {
    Json::obj()
        .field(
            "client_counts",
            Json::arr(cfg.client_counts.iter().map(|&c| Json::U64(c as u64))),
        )
        .field(
            "alphas",
            Json::arr(cfg.alphas.iter().map(|&a| Json::F64(a))),
        )
        .field(
            "points",
            Json::arr(points.iter().map(|p| {
                let (kind, alpha, clients) = p.at;
                p.to_json(
                    Json::obj()
                        .field("ftl", Json::str(kind.name()))
                        .field("alpha", Json::F64(alpha))
                        .field("clients", Json::U64(clients as u64))
                        .field("abort_rate", Json::F64(p.extra)),
                )
            })),
        )
}

/// Prints the sweep as series over client counts: one row per (FTL, α).
pub(crate) fn print(cfg: &Fig6Config, points: &[Point<At>]) {
    println!("Figure 6: abort rate (%) vs clients — SFTL vs MFTL, zero skew");
    print!("{:>14}", "series\\clients");
    for c in &cfg.client_counts {
        print!(" {c:>7}");
    }
    println!();
    for row in points.chunks(cfg.client_counts.len()) {
        let (kind, alpha, _) = row[0].at;
        print!("{:>10} a={alpha:<3}", kind.name());
        for p in row {
            print!(" {:>7.2}", p.extra * 100.0);
        }
        println!();
    }
    println!("(paper: MFTL aborts well below SFTL at every client count; gap widens with α)");
}

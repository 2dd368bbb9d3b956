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

use crate::common::{run_retwis_on_milana, Args, Scale};
use crate::{testbed, Outcome};

/// One measured point.
#[derive(Debug, Clone)]
pub struct Fig6Point {
    /// Storage backend ("SFTL"/"MFTL").
    pub ftl: &'static str,
    /// Contention parameter.
    pub alpha: f64,
    /// Number of clients.
    pub clients: u32,
    /// Abort rate (aborted attempts / all attempts).
    pub abort_rate: f64,
    /// Workload counters, merged across the averaged seeds (frozen so
    /// points can be returned from worker threads).
    pub stats: obskit::FrozenTxnStats,
}

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
    pub fn for_scale(scale: Scale) -> Fig6Config {
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
            ..simkit::net::LatencyConfig::default()
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
pub fn repro(_: &Args, scale: Scale) -> Outcome {
    eprintln!("running Figure 6 at {scale:?} scale ...");
    let cfg = Fig6Config::for_scale(scale);
    let points = run(&cfg);
    print(&cfg, &points);
    Outcome::pass(to_json(&cfg, &points))
}

/// Runs the full sweep, averaging each point over three seeds (the no-wait
/// retry policy makes single runs noisy on the single-version backend).
/// Points run on the `perfkit` worker pool (one sim per thread); the
/// three averaged seeds stay inside one worker so each point is a single
/// unit of deterministic work, and results merge back in sweep order.
pub fn run(cfg: &Fig6Config) -> Vec<Fig6Point> {
    let mut items = Vec::new();
    for kind in [BackendKind::Sftl, BackendKind::Mftl] {
        for &alpha in &cfg.alphas {
            for &clients in &cfg.client_counts {
                items.push((kind, alpha, clients));
            }
        }
    }
    perfkit::pool::run_ordered_auto(items, |(kind, alpha, clients)| {
        let mut acc = 0.0;
        let mut merged = obskit::TxnStats::new().freeze();
        const SEEDS: u64 = 3;
        for r in 0..SEEDS {
            let seed = 600 + (alpha * 100.0) as u64 + clients as u64 + r * 7919;
            let stats = run_point(kind, alpha, clients, cfg, seed);
            acc += stats.abort_rate();
            merged.merge_from(&stats);
        }
        Fig6Point {
            ftl: testbed::backend_name(kind),
            alpha,
            clients,
            abort_rate: acc / SEEDS as f64,
            stats: merged,
        }
    })
}

/// Deterministic JSON payload: one object per (FTL, α, clients) point
/// with its abort-reason breakdown and latency percentiles.
pub fn to_json(cfg: &Fig6Config, points: &[Fig6Point]) -> Json {
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
                Json::obj()
                    .field("ftl", Json::str(p.ftl))
                    .field("alpha", Json::F64(p.alpha))
                    .field("clients", Json::U64(p.clients as u64))
                    .field("abort_rate", Json::F64(p.abort_rate))
                    .field("abort_reasons", p.stats.abort_reasons_json())
                    .field("latency_ns", p.stats.latency.summary_json())
            })),
        )
}

/// Prints the sweep as series over client counts.
pub fn print(cfg: &Fig6Config, points: &[Fig6Point]) {
    println!("Figure 6: abort rate (%) vs clients — SFTL vs MFTL, zero skew");
    print!("{:>14}", "series\\clients");
    for c in &cfg.client_counts {
        print!(" {c:>7}");
    }
    println!();
    for ftl in ["SFTL", "MFTL"] {
        for &alpha in &cfg.alphas {
            print!("{:>10} a={alpha:<3}", ftl);
            for &clients in &cfg.client_counts {
                let p = points
                    .iter()
                    .find(|p| p.ftl == ftl && p.alpha == alpha && p.clients == clients)
                    .expect("point");
                print!(" {:>7.2}", p.abort_rate * 100.0);
            }
            println!();
        }
    }
    println!("(paper: MFTL aborts well below SFTL at every client count; gap widens with α)");
}

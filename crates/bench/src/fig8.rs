//! Figure 8 — Retwis transaction latency vs throughput, with and without
//! client-local validation (LV), across storage backends.
//!
//! Paper setup (§5.2): 3 shards × 3 replicas, 6 M keys, 75 % read-only
//! Retwis mix, client count swept to trace each latency/throughput curve.
//! Headline: local validation yields up to **55 % higher throughput** and
//! **35 % lower latency**; MFTL beats VFTL by ~15 % / 10 %.

use std::time::Duration;

use flashsim::BackendKind;
use obskit::Json;
use retwis::driver::WorkloadConfig;
use retwis::mix::Mix;

use crate::common::{run_retwis_on_milana, sweep, Args, Point, Scale};
use crate::testbed;
use crate::Outcome;

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct Fig8Config {
    /// Client counts tracing each curve.
    pub client_counts: Vec<u32>,
    /// Backends compared.
    pub backends: Vec<BackendKind>,
    /// Contention parameter (moderate; Figure 8 varies load, not skew).
    pub alpha: f64,
    /// Keyspace size.
    pub keyspace: u64,
    /// Warm-up per run.
    pub warmup: Duration,
    /// Measurement window per run.
    pub measure: Duration,
}

impl Fig8Config {
    /// Derives from the global scale knob.
    pub(crate) fn for_scale(scale: Scale) -> Fig8Config {
        let quick = Fig8Config {
            client_counts: vec![4, 8, 16, 32],
            backends: vec![BackendKind::Dram, BackendKind::Vftl, BackendKind::Mftl],
            alpha: 0.5,
            keyspace: 12_000,
            warmup: Duration::from_millis(200),
            measure: Duration::from_millis(800),
        };
        match scale {
            Scale::Quick => quick,
            Scale::Full => Fig8Config {
                client_counts: vec![4, 8, 16, 24, 32, 48, 64],
                keyspace: 60_000,
                warmup: Duration::from_millis(500),
                measure: Duration::from_secs(3),
                ..quick
            },
        }
    }
}

/// `repro fig8`.
pub(crate) fn repro(_: &Args, scale: Scale) -> Outcome {
    eprintln!("running Figure 8 at {scale:?} scale ...");
    let cfg = Fig8Config::for_scale(scale);
    let points = run(&cfg);
    print(&cfg, &points);
    Outcome::pass(to_json(&cfg, &points))
}

/// A Figure 8 point: `(backend, local validation on, clients)`.
pub(crate) type At = (BackendKind, bool, u32);

/// Runs the full sweep on the `perfkit` worker pool (one sim per point,
/// merged back in sweep order).
pub fn run(cfg: &Fig8Config) -> Vec<Point<At>> {
    let mut grid = Vec::new();
    for &kind in &cfg.backends {
        for lv in [true, false] {
            for &clients in &cfg.client_counts {
                grid.push((kind, lv, clients));
            }
        }
    }
    sweep(grid, |&(kind, lv, clients)| {
        let outcome = run_retwis_on_milana(
            800 + clients as u64,
            testbed::three_shards(kind, clients, cfg.keyspace, lv),
            WorkloadConfig {
                mix: Mix::retwis_read_heavy(), // 75% read-only (paper)
                ..testbed::retwis(cfg.keyspace, cfg.alpha)
            },
            1,
            (cfg.warmup, cfg.measure),
        );
        (outcome.stats, 0.0)
    })
}

/// Deterministic JSON payload: one object per curve point with full
/// latency percentiles and the abort-reason breakdown.
pub fn to_json(cfg: &Fig8Config, points: &[Point<At>]) -> Json {
    Json::obj()
        .field(
            "client_counts",
            Json::arr(cfg.client_counts.iter().map(|&c| Json::U64(c as u64))),
        )
        .field("alpha", Json::F64(cfg.alpha))
        .field(
            "points",
            Json::arr(points.iter().map(|p| {
                let (kind, lv, clients) = p.at;
                p.to_json(
                    Json::obj()
                        .field("backend", Json::str(kind.name()))
                        .field("lv", Json::Bool(lv))
                        .field("clients", Json::U64(clients as u64))
                        .field("throughput", Json::F64(p.stats.throughput(cfg.measure)))
                        .field("latency_us", Json::F64(p.stats.latency.mean() / 1e3)),
                )
            })),
        )
}

/// Prints every curve and the LV speedup headline.
pub(crate) fn print(cfg: &Fig8Config, points: &[Point<At>]) {
    println!("Figure 8: latency vs throughput — 75% read-only Retwis, 3 shards x 3 replicas");
    println!(
        "{:>10} {:>4} {:>8} {:>12} {:>12}",
        "backend", "LV", "clients", "ktxn/s", "lat us"
    );
    for p in points {
        let (kind, lv, clients) = p.at;
        println!(
            "{:>10} {:>4} {:>8} {:>12.1} {:>12.1}",
            kind.name(),
            if lv { "on" } else { "off" },
            clients,
            p.stats.throughput(cfg.measure) / 1e3,
            p.stats.latency.mean() / 1e3
        );
    }
    // Headlines at the largest client count.
    let max_clients = *cfg.client_counts.last().expect("non-empty");
    for &kind in &cfg.backends {
        let find = |lv| points.iter().find(|p| p.at == (kind, lv, max_clients));
        if let (Some(with), Some(without)) = (find(true), find(false)) {
            let throughput = |p: &Point<At>| p.stats.throughput(cfg.measure);
            let latency = |p: &Point<At>| p.stats.latency.mean() / 1e3;
            println!(
                "  {}: LV gives +{:.0}% throughput, {:.0}% lower latency at {max_clients} clients \
                 (paper: +55% / -35%)",
                kind.name(),
                (throughput(with) / throughput(without) - 1.0) * 100.0,
                (1.0 - latency(with) / latency(without)) * 100.0,
            );
        }
    }
}

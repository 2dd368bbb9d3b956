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

use crate::common::{run_retwis_on_milana, Args, Scale};
use crate::testbed::{self, backend_name};
use crate::Outcome;

/// One point on a latency/throughput curve.
#[derive(Debug, Clone)]
pub struct Fig8Point {
    /// Backend name.
    pub backend: &'static str,
    /// Local validation enabled?
    pub lv: bool,
    /// Driving clients.
    pub clients: u32,
    /// Committed transactions per virtual second.
    pub throughput: f64,
    /// Mean transaction latency (first begin to commit), µs.
    pub latency_us: f64,
    /// Full workload counters for the run, frozen so points can cross
    /// the worker-pool boundary.
    pub stats: obskit::FrozenTxnStats,
}

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
    pub fn for_scale(scale: Scale) -> Fig8Config {
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

fn run_point(kind: BackendKind, lv: bool, clients: u32, cfg: &Fig8Config, seed: u64) -> Fig8Point {
    let outcome = run_retwis_on_milana(
        seed,
        testbed::three_shards(kind, clients, cfg.keyspace, lv),
        WorkloadConfig {
            mix: Mix::retwis_read_heavy(), // 75% read-only (paper)
            ..testbed::retwis(cfg.keyspace, cfg.alpha)
        },
        1,
        (cfg.warmup, cfg.measure),
    );
    Fig8Point {
        backend: backend_name(kind),
        lv,
        clients,
        throughput: outcome.stats.throughput(cfg.measure),
        latency_us: outcome.stats.latency.mean() / 1e3,
        stats: outcome.stats,
    }
}

/// `repro fig8`.
pub fn repro(_: &Args, scale: Scale) -> Outcome {
    eprintln!("running Figure 8 at {scale:?} scale ...");
    let cfg = Fig8Config::for_scale(scale);
    let points = run(&cfg);
    print(&cfg, &points);
    Outcome::pass(to_json(&cfg, &points))
}

/// Runs the full sweep on the `perfkit` worker pool (one sim per point,
/// merged back in sweep order).
pub fn run(cfg: &Fig8Config) -> Vec<Fig8Point> {
    let mut items = Vec::new();
    for &kind in &cfg.backends {
        for lv in [true, false] {
            for &clients in &cfg.client_counts {
                items.push((kind, lv, clients));
            }
        }
    }
    perfkit::pool::run_ordered_auto(items, |(kind, lv, clients)| {
        let seed = 800 + clients as u64;
        run_point(kind, lv, clients, cfg, seed)
    })
}

/// Deterministic JSON payload: one object per curve point with full
/// latency percentiles and the abort-reason breakdown.
pub fn to_json(cfg: &Fig8Config, points: &[Fig8Point]) -> Json {
    Json::obj()
        .field(
            "client_counts",
            Json::arr(cfg.client_counts.iter().map(|&c| Json::U64(c as u64))),
        )
        .field("alpha", Json::F64(cfg.alpha))
        .field(
            "points",
            Json::arr(points.iter().map(|p| {
                Json::obj()
                    .field("backend", Json::str(p.backend))
                    .field("lv", Json::Bool(p.lv))
                    .field("clients", Json::U64(p.clients as u64))
                    .field("throughput", Json::F64(p.throughput))
                    .field("latency_us", Json::F64(p.latency_us))
                    .field("abort_reasons", p.stats.abort_reasons_json())
                    .field("latency_ns", p.stats.latency.summary_json())
            })),
        )
}

/// Prints every curve and the LV speedup headline.
pub fn print(cfg: &Fig8Config, points: &[Fig8Point]) {
    println!("Figure 8: latency vs throughput — 75% read-only Retwis, 3 shards x 3 replicas");
    println!(
        "{:>10} {:>4} {:>8} {:>12} {:>12}",
        "backend", "LV", "clients", "ktxn/s", "lat us"
    );
    for p in points {
        println!(
            "{:>10} {:>4} {:>8} {:>12.1} {:>12.1}",
            p.backend,
            if p.lv { "on" } else { "off" },
            p.clients,
            p.throughput / 1e3,
            p.latency_us
        );
    }
    // Headlines at the largest client count.
    let max_clients = *cfg.client_counts.last().expect("non-empty");
    for &kind in &cfg.backends {
        let name = backend_name(kind);
        let find = |lv| {
            points
                .iter()
                .find(|p| p.backend == name && p.lv == lv && p.clients == max_clients)
        };
        if let (Some(with), Some(without)) = (find(true), find(false)) {
            println!(
                "  {name}: LV gives +{:.0}% throughput, {:.0}% lower latency at {max_clients} clients \
                 (paper: +55% / -35%)",
                (with.throughput / without.throughput - 1.0) * 100.0,
                (1.0 - with.latency_us / without.latency_us) * 100.0,
            );
        }
    }
}

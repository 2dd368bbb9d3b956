//! Figure 9 — MILANA's local validation vs Centiman's watermark-based
//! local validation.
//!
//! Paper setup (§5.3): 3 shards on SSD (MFTL), no replication, 5 client VMs
//! × 6 Retwis instances (30 total), 75 % read-only mix, watermarks
//! disseminated every 1,000 transactions, PTP software timestamping.
//!
//! Expected shape: comparable throughput at low contention; as α grows,
//! Centiman's local-validation hit rate collapses (89 % → 25 % in the
//! paper) and its throughput drops ~20 % below MILANA, which locally
//! validates **all** read-only transactions.

use std::time::Duration;

use flashsim::BackendKind;
use milana::centiman::{CentimanClient, CentimanConfig, Validator};
use milana::cluster::MilanaClusterConfig;
use obskit::Json;
use retwis::driver::WorkloadConfig;
use retwis::mix::Mix;
use semel::cluster::{ClusterConfig, SemelCluster};
use simkit::net::{Addr, NodeId};
use simkit::Sim;
use timesync::ClientId;

use crate::common::{run_retwis, run_retwis_on_milana, Args, Scale};
use crate::{testbed, Outcome};

/// One measured point.
#[derive(Debug, Clone)]
pub struct Fig9Point {
    /// "MILANA" or "Centiman".
    pub system: &'static str,
    /// Contention parameter.
    pub alpha: f64,
    /// Committed transactions per virtual second.
    pub throughput: f64,
    /// Fraction of read-only transactions validated locally.
    pub local_fraction: f64,
    /// Abort rate.
    pub abort_rate: f64,
    /// Full workload counters for the run, frozen so points can cross
    /// the worker-pool boundary.
    pub stats: obskit::FrozenTxnStats,
}

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct Fig9Config {
    /// Contention values.
    pub alphas: Vec<f64>,
    /// Client VMs.
    pub client_vms: u32,
    /// Instances per VM (paper: 6).
    pub instances_per_vm: u32,
    /// Keyspace.
    pub keyspace: u64,
    /// Watermark dissemination period in decided transactions (paper: 1000).
    pub report_every: u64,
    /// Warm-up per run.
    pub warmup: Duration,
    /// Measurement window.
    pub measure: Duration,
}

impl Fig9Config {
    /// Derives from the global scale knob.
    pub fn for_scale(scale: Scale) -> Fig9Config {
        let quick = Fig9Config {
            alphas: vec![0.4, 0.6, 0.8],
            client_vms: 5,
            instances_per_vm: 6,
            keyspace: 12_000,
            report_every: 200,
            warmup: Duration::from_millis(200),
            measure: Duration::from_millis(800),
        };
        match scale {
            Scale::Quick => quick,
            Scale::Full => Fig9Config {
                alphas: vec![0.4, 0.5, 0.6, 0.7, 0.8],
                keyspace: 60_000,
                report_every: 1000,
                warmup: Duration::from_millis(500),
                measure: Duration::from_secs(3),
                ..quick
            },
        }
    }

    /// The 75 % read-only Retwis mix at contention `alpha`.
    fn workload(&self, alpha: f64) -> WorkloadConfig {
        WorkloadConfig {
            mix: Mix::retwis_read_heavy(),
            ..testbed::retwis(self.keyspace, alpha)
        }
    }
}

fn run_milana_point(alpha: f64, cfg: &Fig9Config, seed: u64) -> Fig9Point {
    let cluster_cfg = MilanaClusterConfig {
        replicas: 1, // no replication, matching Centiman's validators
        ..testbed::three_shards(BackendKind::Mftl, cfg.client_vms, cfg.keyspace, true)
    };
    let outcome = run_retwis_on_milana(
        seed,
        cluster_cfg,
        cfg.workload(alpha),
        cfg.instances_per_vm,
        (cfg.warmup, cfg.measure),
    );
    Fig9Point {
        system: "MILANA",
        alpha,
        throughput: outcome.stats.throughput(cfg.measure),
        // MILANA validates every read-only transaction locally by design.
        local_fraction: 1.0,
        abort_rate: outcome.stats.abort_rate(),
        stats: outcome.stats,
    }
}

fn run_centiman_point(alpha: f64, cfg: &Fig9Config, seed: u64) -> Fig9Point {
    let mut sim = Sim::new(seed);
    let h = sim.handle();
    let storage = SemelCluster::build(
        &h,
        ClusterConfig {
            shards: 3,
            replicas: 1,
            clients: cfg.client_vms,
            nand: testbed::nand(cfg.keyspace / 3),
            preload_keys: cfg.keyspace,
            net: testbed::net(),
            obs: crate::common::run_obs(),
            ..ClusterConfig::default()
        },
    );
    let client_ids: Vec<ClientId> = (0..cfg.client_vms).map(ClientId).collect();
    // One validator per shard, colocated with its storage server (paper:
    // "these validators run on the storage VMs").
    let validators: Vec<Addr> = (0..3u32)
        .map(|s| {
            let node = storage
                .map
                .borrow()
                .group(semel::shard::ShardId(s))
                .primary
                .node;
            let addr = Addr::new(node, 8);
            Validator::spawn(&h, addr, client_ids.clone());
            addr
        })
        .collect();
    let cents: Vec<CentimanClient> = (0..cfg.client_vms)
        .map(|i| {
            CentimanClient::new(
                &h,
                NodeId(10_000 + i),
                storage.clients[i as usize].clone(),
                validators.clone(),
                storage.map.clone(),
                CentimanConfig {
                    report_every: cfg.report_every,
                    obs: crate::common::run_obs(),
                    ..CentimanConfig::default()
                },
            )
        })
        .collect();
    let stats = run_retwis(
        &mut sim,
        &cents,
        cfg.workload(alpha),
        cfg.instances_per_vm,
        (cfg.warmup, cfg.measure),
        || (),
    );
    let (mut local, mut remote) = (0u64, 0u64);
    for c in &cents {
        let s = c.stats();
        local += s.local_validated;
        remote += s.remote_validated;
    }
    Fig9Point {
        system: "Centiman",
        alpha,
        throughput: stats.throughput(cfg.measure),
        local_fraction: if local + remote == 0 {
            0.0
        } else {
            local as f64 / (local + remote) as f64
        },
        abort_rate: stats.abort_rate(),
        stats,
    }
}

/// `repro fig9`.
pub fn repro(_: &Args, scale: Scale) -> Outcome {
    eprintln!("running Figure 9 at {scale:?} scale ...");
    let cfg = Fig9Config::for_scale(scale);
    let points = run(&cfg);
    print(&cfg, &points);
    Outcome::pass(to_json(&cfg, &points))
}

/// Runs the full comparison on the `perfkit` worker pool. Each (system,
/// α) pair is one unit of work so the two systems' sims stay fully
/// independent; results merge back in sweep order.
pub fn run(cfg: &Fig9Config) -> Vec<Fig9Point> {
    let mut items = Vec::new();
    for &alpha in &cfg.alphas {
        items.push(("MILANA", alpha));
        items.push(("Centiman", alpha));
    }
    perfkit::pool::run_ordered_auto(items, |(system, alpha)| {
        let seed = 900 + (alpha * 100.0) as u64;
        match system {
            "MILANA" => run_milana_point(alpha, cfg, seed),
            _ => run_centiman_point(alpha, cfg, seed),
        }
    })
}

/// Deterministic JSON payload: one object per (system, α) point with the
/// shared abort-reason taxonomy, so MILANA and Centiman aborts compare
/// class-for-class.
pub fn to_json(cfg: &Fig9Config, points: &[Fig9Point]) -> Json {
    Json::obj()
        .field(
            "alphas",
            Json::arr(cfg.alphas.iter().map(|&a| Json::F64(a))),
        )
        .field("report_every", Json::U64(cfg.report_every))
        .field(
            "points",
            Json::arr(points.iter().map(|p| {
                Json::obj()
                    .field("system", Json::str(p.system))
                    .field("alpha", Json::F64(p.alpha))
                    .field("throughput", Json::F64(p.throughput))
                    .field("local_fraction", Json::F64(p.local_fraction))
                    .field("abort_rate", Json::F64(p.abort_rate))
                    .field("abort_reasons", p.stats.abort_reasons_json())
                    .field("latency_ns", p.stats.latency.summary_json())
            })),
        )
}

/// Prints throughput and local-validation series.
pub fn print(cfg: &Fig9Config, points: &[Fig9Point]) {
    println!("Figure 9: MILANA vs Centiman local validation — 3 MFTL shards, 75% read-only");
    println!(
        "{:>10} {:>6} {:>12} {:>10} {:>9}",
        "system", "alpha", "ktxn/s", "local %", "abort %"
    );
    for p in points {
        println!(
            "{:>10} {:>6} {:>12.1} {:>10.1} {:>9.2}",
            p.system,
            p.alpha,
            p.throughput / 1e3,
            p.local_fraction * 100.0,
            p.abort_rate * 100.0
        );
    }
    let lo = cfg.alphas.first().copied().unwrap_or(0.4);
    let hi = cfg.alphas.last().copied().unwrap_or(0.8);
    for a in [lo, hi] {
        let find = |sys: &str| points.iter().find(|p| p.system == sys && p.alpha == a);
        if let (Some(m), Some(c)) = (find("MILANA"), find("Centiman")) {
            println!(
                "  alpha={a}: MILANA/Centiman throughput = {:.2} (paper: ~1.0 low contention, ~1.2 high); \
                 Centiman local = {:.0}% (paper: 89% at 0.4 -> 25% at 0.8)",
                m.throughput / c.throughput,
                c.local_fraction * 100.0
            );
        }
    }
}

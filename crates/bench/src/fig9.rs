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
use obskit::{FrozenTxnStats, Json};
use retwis::driver::WorkloadConfig;
use retwis::mix::Mix;
use semel::cluster::{ClusterConfig, SemelCluster};
use simkit::net::{Addr, NodeId};
use simkit::Sim;
use timesync::ClientId;

use crate::common::{run_retwis, run_retwis_on_milana, sweep, Args, Point, Scale};
use crate::{testbed, Outcome};

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
    pub(crate) fn for_scale(scale: Scale) -> Fig9Config {
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

/// One Centiman run on SEMEL storage: its counters and the fraction of
/// read-only transactions it validated locally.
fn run_centiman_point(alpha: f64, cfg: &Fig9Config, seed: u64) -> (FrozenTxnStats, f64) {
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
    let local_fraction = if local + remote == 0 {
        0.0
    } else {
        local as f64 / (local + remote) as f64
    };
    (stats, local_fraction)
}

/// `repro fig9`.
pub(crate) fn repro(_: &Args, scale: Scale) -> Outcome {
    eprintln!("running Figure 9 at {scale:?} scale ...");
    let cfg = Fig9Config::for_scale(scale);
    let points = run(&cfg);
    print(&cfg, &points);
    Outcome::pass(to_json(&cfg, &points))
}

/// A Figure 9 point: `(system, α)`, the system "MILANA" or "Centiman".
pub(crate) type At = (&'static str, f64);

/// Runs the full comparison on the `perfkit` worker pool. Each (system,
/// α) pair is one unit of work so the two systems' sims stay fully
/// independent; results merge back in sweep order. A point's `extra` is
/// its local-validation fraction.
pub fn run(cfg: &Fig9Config) -> Vec<Point<At>> {
    let mut grid = Vec::new();
    for &alpha in &cfg.alphas {
        grid.push(("MILANA", alpha));
        grid.push(("Centiman", alpha));
    }
    sweep(grid, |&(system, alpha)| {
        let seed = 900 + (alpha * 100.0) as u64;
        if system == "Centiman" {
            return run_centiman_point(alpha, cfg, seed);
        }
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
        // MILANA validates every read-only transaction locally by design.
        (outcome.stats, 1.0)
    })
}

/// Deterministic JSON payload: one object per (system, α) point with the
/// shared abort-reason taxonomy, so MILANA and Centiman aborts compare
/// class-for-class.
pub fn to_json(cfg: &Fig9Config, points: &[Point<At>]) -> Json {
    Json::obj()
        .field(
            "alphas",
            Json::arr(cfg.alphas.iter().map(|&a| Json::F64(a))),
        )
        .field("report_every", Json::U64(cfg.report_every))
        .field(
            "points",
            Json::arr(points.iter().map(|p| {
                let (system, alpha) = p.at;
                p.to_json(
                    Json::obj()
                        .field("system", Json::str(system))
                        .field("alpha", Json::F64(alpha))
                        .field("throughput", Json::F64(p.stats.throughput(cfg.measure)))
                        .field("local_fraction", Json::F64(p.extra))
                        .field("abort_rate", Json::F64(p.stats.abort_rate())),
                )
            })),
        )
}

/// Prints throughput and local-validation series.
pub(crate) fn print(cfg: &Fig9Config, points: &[Point<At>]) {
    println!("Figure 9: MILANA vs Centiman local validation — 3 MFTL shards, 75% read-only");
    println!(
        "{:>10} {:>6} {:>12} {:>10} {:>9}",
        "system", "alpha", "ktxn/s", "local %", "abort %"
    );
    for p in points {
        let (system, alpha) = p.at;
        println!(
            "{:>10} {:>6} {:>12.1} {:>10.1} {:>9.2}",
            system,
            alpha,
            p.stats.throughput(cfg.measure) / 1e3,
            p.extra * 100.0,
            p.stats.abort_rate() * 100.0
        );
    }
    let lo = cfg.alphas.first().copied().unwrap_or(0.4);
    let hi = cfg.alphas.last().copied().unwrap_or(0.8);
    for a in [lo, hi] {
        let find = |sys: &str| points.iter().find(|p| p.at == (sys, a));
        if let (Some(m), Some(c)) = (find("MILANA"), find("Centiman")) {
            println!(
                "  alpha={a}: MILANA/Centiman throughput = {:.2} (paper: ~1.0 low contention, ~1.2 high); \
                 Centiman local = {:.0}% (paper: 89% at 0.4 -> 25% at 0.8)",
                m.stats.throughput(cfg.measure) / c.stats.throughput(cfg.measure),
                c.extra * 100.0
            );
        }
    }
}

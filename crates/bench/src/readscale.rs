//! Read-scaling sweep — backup snapshot reads vs primary-only routing.
//!
//! Drives a read-heavy Retwis mix (85 % read-only `get_timeline`, Zipf
//! α = 0.99) against the same MILANA cluster under each read-route
//! policy. Non-primary routes open snapshots a few milliseconds behind
//! the clock (bounded staleness), which makes every read of a
//! transaction eligible for a backup whose gossiped applied watermark
//! covers it; the primary then only sees the reads nothing else could
//! serve, plus all validation traffic.
//!
//! Acceptance (readkit):
//! - with `p2c` routing the primary serves **under 50 %** of read RPCs;
//! - committed goodput under `p2c` beats the `primary-only` baseline;
//! - a `faultkit` chaos campaign (crash / partition / clock-step with
//!   backup reads enabled) stays clean — in particular, zero
//!   `stale_backup_read` violations.

use std::time::Duration;

use faultkit::{run_campaign, CampaignConfig, CampaignReport};
use milana::client::TxnClientConfig;
use milana::cluster::MilanaClusterConfig;
use obskit::Json;
use readkit::ReadRoute;
use retwis::driver::WorkloadConfig;
use retwis::mix::{GetCount, Mix, TxnType};

use crate::common::{campaign_verdict, judged, run_obs, run_retwis_on_milana, Args, Scale};
use crate::{testbed, Outcome};

const SHARDS: u32 = 2;
const REPLICAS: u32 = 3;
const CLIENTS: u32 = 4;
const INSTANCES_PER_CLIENT: u32 = 4;
/// Zipf contention parameter for the read-heavy sweep.
const ALPHA: f64 = 0.99;
/// Bounded-staleness snapshot lag for routed configurations.
const SNAPSHOT_LAG: Duration = Duration::from_millis(3);

/// One measured routing configuration.
#[derive(Debug, Clone)]
pub(crate) struct ReadScalePoint {
    /// Route name (`primary-only` / `freshest` / `p2c`).
    pub(crate) route: &'static str,
    /// Committed transactions per virtual second.
    pub(crate) throughput: f64,
    /// Mean transaction latency, µs.
    pub(crate) latency_us: f64,
    /// Reads served by shard primaries.
    pub(crate) primary_reads: u64,
    /// Snapshot reads served by backup replicas.
    pub(crate) replica_reads: u64,
    /// Backup probes declined (`TooStale`), each falling back to the
    /// primary.
    pub(crate) too_stale: u64,
    /// Reads served from client version caches.
    pub(crate) cached_reads: u64,
    /// Read-only commits validated locally.
    pub(crate) local_validated: u64,
    /// Committed / aborted counts in the window.
    pub(crate) commits: u64,
    /// Aborted attempts in the window.
    pub(crate) aborts: u64,
}

impl ReadScalePoint {
    /// Fraction of served read RPCs answered by a primary.
    pub(crate) fn primary_share(&self) -> f64 {
        let total = self.primary_reads + self.replica_reads;
        if total == 0 {
            return 1.0;
        }
        self.primary_reads as f64 / total as f64
    }
}

/// Routing policies compared, the primary-only baseline first.
pub(crate) const ROUTES: [(&str, ReadRoute); 3] = [
    ("primary-only", ReadRoute::PrimaryOnly),
    ("freshest", ReadRoute::Freshest),
    ("p2c", ReadRoute::PowerOfTwo),
];

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct ReadScaleConfig {
    /// Keyspace size.
    pub keyspace: u64,
    /// Warm-up per run.
    pub warmup: Duration,
    /// Measurement window per run.
    pub measure: Duration,
    /// Seeds for the chaos campaign with backup reads enabled.
    pub campaign_seeds: Vec<u64>,
}

impl ReadScaleConfig {
    /// Derives from the global scale knob.
    pub(crate) fn for_scale(scale: Scale) -> ReadScaleConfig {
        match scale {
            Scale::Quick => ReadScaleConfig {
                keyspace: 4_000,
                warmup: Duration::from_millis(100),
                measure: Duration::from_millis(400),
                campaign_seeds: vec![11],
            },
            Scale::Full => ReadScaleConfig {
                keyspace: 16_000,
                warmup: Duration::from_millis(200),
                measure: Duration::from_secs(2),
                campaign_seeds: vec![11, 12, 13],
            },
        }
    }
}

/// The read-heavy Retwis variant for the read-scaling study: 85 %
/// read-only timelines (`retwis_read_heavy` is only 75 %).
fn mix_85() -> Mix {
    Mix::new(vec![
        TxnType {
            name: "add_user",
            gets: GetCount::Fixed(1),
            puts: 2,
            weight: 3,
        },
        TxnType {
            name: "follow_user",
            gets: GetCount::Fixed(2),
            puts: 2,
            weight: 5,
        },
        TxnType {
            name: "post_tweet",
            gets: GetCount::Fixed(3),
            puts: 5,
            weight: 7,
        },
        TxnType {
            name: "get_timeline",
            gets: GetCount::Uniform(1, 10),
            puts: 0,
            weight: 85,
        },
    ])
}

fn run_point(route: (&'static str, ReadRoute), cfg: &ReadScaleConfig, seed: u64) -> ReadScalePoint {
    let routed = route.1 != ReadRoute::PrimaryOnly;
    let cluster_cfg = MilanaClusterConfig {
        shards: SHARDS,
        replicas: REPLICAS,
        clients: CLIENTS,
        preload_keys: cfg.keyspace,
        value_size: 128,
        client_cfg: TxnClientConfig {
            read_route: route.1,
            // Fast idle-tick floor reports: a read-only-heavy load
            // flushes few coordinator envelopes, so the tick carries
            // the write floor instead.
            watermark_interval: Duration::from_millis(1),
            snapshot_lag: if routed { SNAPSHOT_LAG } else { Duration::ZERO },
            ..TxnClientConfig::default()
        },
        tuning: milana::server::ServerTuning {
            obs: run_obs(),
            gossip_every: routed.then(|| Duration::from_millis(1)),
            ..Default::default()
        },
        ..MilanaClusterConfig::default()
    };
    let outcome = run_retwis_on_milana(
        seed,
        cluster_cfg,
        WorkloadConfig {
            mix: mix_85(),
            value_size: 128,
            ..testbed::retwis(cfg.keyspace, ALPHA)
        },
        INSTANCES_PER_CLIENT,
        (cfg.warmup, cfg.measure),
    );
    let cluster = &outcome.cluster;
    let mut primary_reads = 0;
    let mut replica_reads = 0;
    let mut too_stale = 0;
    for r in cluster.replicas.iter().flatten() {
        let s = r.server.stats();
        primary_reads += s.gets;
        replica_reads += s.replica_reads;
        too_stale += s.too_stale;
    }
    let cached_reads = cluster.clients.iter().map(|c| c.stats().cached_reads).sum();
    ReadScalePoint {
        route: route.0,
        throughput: outcome.stats.throughput(cfg.measure),
        latency_us: outcome.stats.latency.mean() / 1e3,
        primary_reads,
        replica_reads,
        too_stale,
        cached_reads,
        local_validated: outcome.local_validated,
        commits: outcome.stats.commits,
        aborts: outcome.stats.aborts,
    }
}

/// Outcome of the sweep plus the chaos campaign.
#[derive(Debug)]
pub struct ReadScaleOutcome {
    /// One point per route, in config order.
    pub(crate) points: Vec<ReadScalePoint>,
    /// Chaos campaign with backup reads enabled.
    pub(crate) campaign: CampaignReport,
}

/// `repro readscale`.
pub(crate) fn repro(args: &Args, scale: Scale) -> Outcome {
    let seed = args.last_or("--seed", 1u64);
    eprintln!("read scaling: seed {seed}, routes + backup-reads chaos campaign ...");
    let out = run(&ReadScaleConfig::for_scale(scale), seed);
    print(&out, seed);
    Outcome {
        data: to_json(&out),
        ok: ok(&out),
    }
}

/// Runs the route sweep (on the `perfkit` worker pool, one sim per
/// route) and the backup-reads chaos campaign.
pub fn run(cfg: &ReadScaleConfig, seed: u64) -> ReadScaleOutcome {
    let points = perfkit::pool::run_ordered_auto(ROUTES.to_vec(), |r| run_point(r, cfg, seed));
    let campaign = run_campaign(&CampaignConfig {
        seeds: cfg.campaign_seeds.clone(),
        faults: 8,
        backup_reads: true,
        ..CampaignConfig::default()
    });
    ReadScaleOutcome { points, campaign }
}

/// Acceptance checks; see the module docs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReadScaleChecks {
    /// Primary share of read RPCs under `p2c` (x1000, rounded).
    pub(crate) p2c_primary_share_x1000: u64,
    /// Goodput ratio `p2c` / `primary-only` (x100, rounded).
    pub(crate) goodput_ratio_x100: u64,
    /// `p2c` primary share below one half.
    pub(crate) share_ok: bool,
    /// `p2c` goodput at least matches the baseline.
    pub(crate) goodput_ok: bool,
    /// Campaign clean (no violations on any seed, replica reads seen).
    pub(crate) campaign_ok: bool,
}

/// Evaluates the acceptance checks over a finished run.
pub(crate) fn checks(out: &ReadScaleOutcome) -> ReadScaleChecks {
    let base = out
        .points
        .iter()
        .find(|p| p.route == "primary-only")
        .expect("baseline point");
    let p2c = out
        .points
        .iter()
        .find(|p| p.route == "p2c")
        .expect("p2c point");
    let share = p2c.primary_share();
    let ratio = p2c.throughput / base.throughput.max(1.0);
    let campaign_ok = out.campaign.offending_seeds().is_empty()
        && out.campaign.outcomes.iter().all(|o| o.replica_reads > 0);
    ReadScaleChecks {
        p2c_primary_share_x1000: (share * 1000.0).round() as u64,
        goodput_ratio_x100: (ratio * 100.0).round() as u64,
        share_ok: share < 0.5,
        goodput_ok: ratio >= 1.0,
        campaign_ok,
    }
}

/// The routing checks' output lines (the campaign's follows them).
pub(crate) fn verdict_lines(c: &ReadScaleChecks, seed: u64) -> [String; 2] {
    let share = c.p2c_primary_share_x1000 as f64 / 10.0;
    let ratio = c.goodput_ratio_x100 as f64 / 100.0;
    [
        format!(
            "p2c primary read share: {share:.1}% ({})",
            judged(
                seed,
                (!c.share_ok).then(|| format!("{share:.1}% >= 50%")),
                "ok, < 50%"
            )
        ),
        format!(
            "p2c goodput vs primary-only: {ratio:.2}x ({})",
            judged(
                seed,
                (!c.goodput_ok).then(|| format!("{ratio:.2}x < 1x")),
                "ok, >= 1x"
            )
        ),
    ]
}

/// Prints the sweep table and the acceptance verdicts.
pub(crate) fn print(out: &ReadScaleOutcome, seed: u64) {
    println!(
        "read scaling: 85% read-only Retwis, zipf a={ALPHA}, {SHARDS} shards x {REPLICAS} replicas"
    );
    println!(
        "{:>13} {:>10} {:>9} {:>10} {:>10} {:>9} {:>8} {:>9} {:>8}",
        "route", "ktxn/s", "lat us", "prim_rd", "repl_rd", "stale", "cached", "prim%", "aborts"
    );
    for p in &out.points {
        println!(
            "{:>13} {:>10.1} {:>9.1} {:>10} {:>10} {:>9} {:>8} {:>8.1}% {:>8}",
            p.route,
            p.throughput / 1e3,
            p.latency_us,
            p.primary_reads,
            p.replica_reads,
            p.too_stale,
            p.cached_reads,
            p.primary_share() * 100.0,
            p.aborts
        );
    }
    let c = checks(out);
    for line in verdict_lines(&c, seed) {
        println!("{line}");
    }
    let cause = out.campaign.first_failure().or_else(|| {
        let idle = out
            .campaign
            .outcomes
            .iter()
            .find(|o| o.replica_reads == 0)?;
        Some(format!("seed {}: no backup reads", idle.seed))
    });
    println!(
        "backup-reads chaos campaign: {} seed(s), {} violation(s) ({})",
        out.campaign.outcomes.len(),
        out.campaign.violation_count(),
        campaign_verdict(if c.campaign_ok { "ok" } else { "FAILED" }, cause)
    );
}

/// Deterministic JSON payload for the artifact.
pub fn to_json(out: &ReadScaleOutcome) -> Json {
    let c = checks(out);
    Json::obj()
        .field("shards", Json::U64(u64::from(SHARDS)))
        .field("replicas", Json::U64(u64::from(REPLICAS)))
        .field("clients", Json::U64(u64::from(CLIENTS)))
        .field("alpha", Json::F64(ALPHA))
        .field(
            "snapshot_lag_us",
            Json::U64(SNAPSHOT_LAG.as_micros() as u64),
        )
        .field(
            "points",
            Json::arr(out.points.iter().map(|p| {
                Json::obj()
                    .field("route", Json::str(p.route))
                    .field("throughput", Json::F64(p.throughput))
                    .field("latency_us", Json::F64(p.latency_us))
                    .field("primary_reads", Json::U64(p.primary_reads))
                    .field("replica_reads", Json::U64(p.replica_reads))
                    .field("too_stale", Json::U64(p.too_stale))
                    .field("cached_reads", Json::U64(p.cached_reads))
                    .field("local_validated", Json::U64(p.local_validated))
                    .field("commits", Json::U64(p.commits))
                    .field("aborts", Json::U64(p.aborts))
            })),
        )
        .field("campaign", out.campaign.to_json())
        .field(
            "checks",
            Json::obj()
                .field(
                    "p2c_primary_share_x1000",
                    Json::U64(c.p2c_primary_share_x1000),
                )
                .field("goodput_ratio_x100", Json::U64(c.goodput_ratio_x100))
                .field("share_ok", Json::Bool(c.share_ok))
                .field("goodput_ok", Json::Bool(c.goodput_ok))
                .field("campaign_ok", Json::Bool(c.campaign_ok)),
        )
}

/// True when every acceptance check passed.
pub(crate) fn ok(out: &ReadScaleOutcome) -> bool {
    let c = checks(out);
    c.share_ok && c.goodput_ok && c.campaign_ok
}

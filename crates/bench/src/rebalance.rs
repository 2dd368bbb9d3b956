//! Elastic-resharding reproduction (`repro rebalance`):
//! a mid-run hot-shard split recovers the throughput a Zipf skew took
//! away.
//!
//! One simulated MILANA cluster runs an open-loop retwis-style load
//! (75% read-only, 25% read-modify-write) through three measurement
//! windows on the same seed and arrival schedule:
//!
//! 1. **pre-skew** — keys drawn uniformly; both shards share the load;
//! 2. **skew** — 90% of traffic turns Zipf-concentrated onto the keys of
//!    shard 0, whose single flash device and admission gate saturate;
//! 3. **post-split** — the `shardkit` engine splits shard 0 live (Prepare
//!    → Copy → CatchUp → Cutover → Done) onto a freshly provisioned
//!    group while the skewed load keeps running, and the same skewed
//!    traffic is measured again.
//!
//! Acceptance checks:
//! - post-split committed throughput recovers to at least 80% of the
//!   pre-skew (uniform) committed throughput;
//! - a `faultkit` rebalance campaign — crash/partition injected in every
//!   migration phase — loses no acked write, duplicates none, and keeps
//!   exactly one owner per shard per epoch (checker-verified).

use std::cell::Cell;
use std::rc::Rc;
use std::time::Duration;

use faultkit::{run_rebalance_campaign, RebalanceCampaignConfig, RebalanceCampaignReport};
use flashsim::{value, Key, NandConfig};
use milana::client::TxnOpts;
use milana::cluster::{MilanaCluster, MilanaClusterConfig, MASTER_NODE};
use obskit::{Json, Obs};
use rand::Rng;
use semel::shard::ShardId;
use shardkit::{RebalanceEngine, RebalancePlan};
use simkit::rng::Zipf;
use simkit::Sim;
use timesync::ClockSpec;

use crate::common::{Args, Scale};
use crate::Outcome;

const SHARDS: u32 = 2;
const REPLICAS: u32 = 3;
const CLIENTS: u32 = 4;
/// Share of skewed traffic aimed at the hot shard's keys.
const HOT_PCT: u64 = 90;
/// Zipf exponent (x100) over the hot shard's key ranks.
const ZIPF_S_X100: u64 = 80;
/// Read-only fraction of the mix (x100); the rest are read-modify-writes.
const READ_ONLY_PCT: u64 = 75;

struct Windows {
    warmup: Duration,
    settle: Duration,
    measure: Duration,
}

/// The three-window measurement plus migration counters.
pub struct RebalanceRun {
    /// Commits in the uniform window.
    pub pre_commits: u64,
    /// Commits in the skewed window.
    pub skew_commits: u64,
    /// Commits in the post-split window (skew still applied).
    pub post_commits: u64,
    /// Aborts in the uniform window.
    pub pre_aborts: u64,
    /// Aborts in the skewed window.
    pub skew_aborts: u64,
    /// Aborts in the post-split window.
    pub post_aborts: u64,
    /// Records bulk-copied by the migration.
    pub records_copied: u64,
    /// Bytes bulk-copied by the migration.
    pub bytes_copied: u64,
    /// Delta catch-up rounds before cutover.
    pub catchup_rounds: u32,
    /// Routing epoch after cutover.
    pub final_epoch: u64,
    /// Shard-map installs observed cluster-wide.
    pub map_installs: u64,
    /// Records rehomed onto the new group.
    pub records_moved: u64,
    /// Prepares fenced for carrying a stale epoch.
    pub stale_epoch_prepares: u64,
}

fn nand() -> NandConfig {
    // A deliberately narrow device: one channel makes a single shard's
    // flash the bottleneck under skew, which is the phenomenon the split
    // is supposed to fix.
    NandConfig {
        blocks: 2048,
        pages_per_block: 32,
        channels: 1,
        queue_depth: 16,
        ..NandConfig::default()
    }
}

/// `repro rebalance`.
pub fn repro(args: &Args, scale: Scale) -> Outcome {
    let seed = args.last_or("--seed", 1u64);
    eprintln!(
        "rebalance: seed {seed}, 4 clients, zipf s={}.{:02} hot {}% ...",
        ZIPF_S_X100 / 100,
        ZIPF_S_X100 % 100,
        HOT_PCT
    );
    let run = run_once(scale, seed);
    let campaign = run_fault_campaign(scale, seed);
    print(&run, &campaign);
    Outcome {
        data: to_json(&run, &campaign, seed),
        ok: ok(&run, &campaign),
    }
}

/// Runs the three-window skew/split experiment once.
#[allow(clippy::too_many_lines)]
pub fn run_once(scale: Scale, seed: u64) -> RebalanceRun {
    let keyspace: u64 = match scale {
        Scale::Quick => 2_048,
        Scale::Full => 4_096,
    };
    let w = match scale {
        Scale::Quick => Windows {
            warmup: Duration::from_millis(100),
            settle: Duration::from_millis(80),
            measure: Duration::from_millis(200),
        },
        Scale::Full => Windows {
            warmup: Duration::from_millis(200),
            settle: Duration::from_millis(120),
            measure: Duration::from_millis(500),
        },
    };
    let interarrival = Duration::from_micros(150);

    let mut sim = Sim::new(seed);
    let h = sim.handle();
    let obs = Obs::new();
    let mut cfg = MilanaClusterConfig {
        shards: SHARDS,
        replicas: REPLICAS,
        clients: CLIENTS,
        nand: nand(),
        preload_keys: keyspace,
        clock: ClockSpec::perfect(),
        ..MilanaClusterConfig::default()
    };
    cfg.tuning.obs = obs.clone();
    let mut cluster = MilanaCluster::build(&h, cfg);

    // Rank the hot shard's keys once, against the pre-split map: the skewed
    // phase keeps drawing from this set even after the split rehomes half
    // of it — that is exactly how the load spreads back out.
    let hot: Rc<Vec<Key>> = Rc::new(
        (0..keyspace)
            .map(Key::from)
            .filter(|k| cluster.map.borrow().shard_for(k) == ShardId(0))
            .collect(),
    );
    let zipf = Rc::new(Zipf::new(hot.len(), ZIPF_S_X100 as f64 / 100.0));

    let commits = Rc::new(Cell::new(0u64));
    let aborts = Rc::new(Cell::new(0u64));
    let skewed = Rc::new(Cell::new(false));
    let stop = Rc::new(Cell::new(false));

    let hh = h.clone();
    let commits2 = commits.clone();
    let aborts2 = aborts.clone();
    let skewed2 = skewed.clone();
    let stop2 = stop.clone();

    let (pre, skew, post, report) = sim.block_on(async move {
        for c in &cluster.clients {
            let c = c.clone();
            let hh2 = hh.clone();
            let commits = commits2.clone();
            let aborts = aborts2.clone();
            let skewed = skewed2.clone();
            let stop = stop2.clone();
            let hot = hot.clone();
            let zipf = zipf.clone();
            let mut rng = hh.fork_rng();
            hh.spawn(async move {
                let mut next = hh2.now();
                while !stop.get() {
                    let key = if skewed.get() && rng.gen_range(0..100u64) < HOT_PCT {
                        hot[zipf.sample(&mut rng)].clone()
                    } else {
                        Key::from(rng.gen_range(0..keyspace))
                    };
                    let read_only = rng.gen_range(0..100u64) < READ_ONLY_PCT;
                    let c2 = c.clone();
                    let commits = commits.clone();
                    let aborts = aborts.clone();
                    hh2.spawn(async move {
                        let mut t = c2.begin_with(TxnOpts::default());
                        if t.get(&key).await.is_err() {
                            aborts.set(aborts.get() + 1);
                            return;
                        }
                        if read_only {
                            commits.set(commits.get() + 1);
                            return;
                        }
                        t.put(key, value(&b"resharded"[..]));
                        match t.commit().await {
                            Ok(_) => commits.set(commits.get() + 1),
                            Err(_) => aborts.set(aborts.get() + 1),
                        }
                    });
                    next += interarrival;
                    hh2.sleep_until(next).await;
                }
            });
        }

        // (commits, aborts) over one measurement window.
        let window = || {
            let hh = hh.clone();
            let commits = commits2.clone();
            let aborts = aborts2.clone();
            async move {
                let (c0, a0) = (commits.get(), aborts.get());
                hh.sleep(w.measure).await;
                (commits.get() - c0, aborts.get() - a0)
            }
        };

        hh.sleep(w.warmup).await;
        let pre = window().await;

        skewed2.set(true);
        hh.sleep(w.settle).await;
        let skew = window().await;

        // Split the hot shard live, with the skewed load still running.
        let engine = RebalanceEngine::new(
            &hh,
            MASTER_NODE,
            cluster.map.clone(),
            cluster.master.clone(),
            cluster.config.tuning.obs.clone(),
        );
        let from = ShardId(0);
        let new_shard = ShardId(cluster.map.borrow().len() as u32);
        let dest = cluster.provision_group(new_shard);
        let sources: Vec<shardkit::SourceReplica> = cluster.replicas[from.0 as usize]
            .iter()
            .map(|s| (s.addr, s.server.backend().clone()))
            .collect();
        let report = engine
            .run(RebalancePlan::Split { from }, dest, sources)
            .await;

        hh.sleep(w.settle).await;
        let post = window().await;

        stop2.set(true);
        hh.sleep(Duration::from_millis(20)).await;
        (pre, skew, post, report)
    });

    RebalanceRun {
        pre_commits: pre.0,
        skew_commits: skew.0,
        post_commits: post.0,
        pre_aborts: pre.1,
        skew_aborts: skew.1,
        post_aborts: post.1,
        records_copied: report.records_copied,
        bytes_copied: report.bytes_copied,
        catchup_rounds: report.catchup_rounds,
        final_epoch: report.final_epoch,
        map_installs: obs.registry.counter("map_installs").get(),
        records_moved: obs.registry.counter("migration_records_moved").get(),
        stale_epoch_prepares: obs.registry.counter("stale_epoch_prepares").get(),
    }
}

/// Runs the fault campaign half of the experiment: crash + partition in
/// every migration phase, audited for write conservation and
/// single-owner-per-epoch.
pub fn run_fault_campaign(scale: Scale, seed: u64) -> RebalanceCampaignReport {
    let campaign_seeds: Vec<u64> = match scale {
        Scale::Quick => vec![seed],
        Scale::Full => vec![seed, seed + 1],
    };
    run_rebalance_campaign(&RebalanceCampaignConfig {
        seeds: campaign_seeds,
        inject: true,
        ..RebalanceCampaignConfig::default()
    })
}

/// Post-split committed throughput as a percentage of pre-skew.
pub fn recovery_pct(run: &RebalanceRun) -> u64 {
    run.post_commits * 100 / run.pre_commits.max(1)
}

/// Prints the windows table, migration counters, and verdicts.
pub fn print(run: &RebalanceRun, campaign: &RebalanceCampaignReport) {
    println!("{:>10} {:>9} {:>8}", "window", "commits", "aborts");
    println!(
        "{:>10} {:>9} {:>8}",
        "pre-skew", run.pre_commits, run.pre_aborts
    );
    println!(
        "{:>10} {:>9} {:>8}",
        "skew", run.skew_commits, run.skew_aborts
    );
    println!(
        "{:>10} {:>9} {:>8}",
        "post-split", run.post_commits, run.post_aborts
    );
    println!(
        "split: {} records / {} bytes copied, {} catch-up rounds, epoch {}",
        run.records_copied, run.bytes_copied, run.catchup_rounds, run.final_epoch
    );
    let pct = recovery_pct(run);
    println!(
        "post-split recovery: {pct}% of pre-skew committed throughput ({})",
        if pct >= 80 {
            "ok, >= 80%"
        } else {
            "FAILED, < 80%"
        }
    );
    println!(
        "fault campaign: {} seed(s), {} violation(s) ({})",
        campaign.outcomes.len(),
        campaign.violation_count(),
        if campaign.offending_seeds().is_empty() {
            "ok"
        } else {
            "FAILED"
        }
    );
}

/// Deterministic JSON payload for the artifact.
pub fn to_json(run: &RebalanceRun, campaign: &RebalanceCampaignReport, seed: u64) -> Json {
    let pct = recovery_pct(run);
    let window = |commits, aborts| {
        Json::obj()
            .field("commits", Json::U64(commits))
            .field("aborts", Json::U64(aborts))
    };
    Json::obj()
        .field("seed", Json::U64(seed))
        .field("shards", Json::U64(u64::from(SHARDS)))
        .field("replicas", Json::U64(u64::from(REPLICAS)))
        .field("clients", Json::U64(u64::from(CLIENTS)))
        .field("hot_pct", Json::U64(HOT_PCT))
        .field("zipf_s_x100", Json::U64(ZIPF_S_X100))
        .field("read_only_pct", Json::U64(READ_ONLY_PCT))
        .field(
            "windows",
            Json::obj()
                .field("pre", window(run.pre_commits, run.pre_aborts))
                .field("skew", window(run.skew_commits, run.skew_aborts))
                .field("post", window(run.post_commits, run.post_aborts)),
        )
        .field(
            "migration",
            Json::obj()
                .field("records_copied", Json::U64(run.records_copied))
                .field("bytes_copied", Json::U64(run.bytes_copied))
                .field("catchup_rounds", Json::U64(u64::from(run.catchup_rounds)))
                .field("final_epoch", Json::U64(run.final_epoch))
                .field("map_installs", Json::U64(run.map_installs))
                .field("records_moved", Json::U64(run.records_moved))
                .field("stale_epoch_prepares", Json::U64(run.stale_epoch_prepares)),
        )
        .field("campaign", campaign.to_json())
        .field(
            "checks",
            Json::obj()
                .field("recovery_pct", Json::U64(pct))
                .field("recovery_ok", Json::Bool(pct >= 80))
                .field(
                    "campaign_clean",
                    Json::Bool(campaign.offending_seeds().is_empty()),
                ),
        )
}

/// True when every acceptance check passed.
pub fn ok(run: &RebalanceRun, campaign: &RebalanceCampaignReport) -> bool {
    recovery_pct(run) >= 80 && campaign.offending_seeds().is_empty()
}

//! Cold-restart recovery reproduction (`repro recovery`):
//! mount-scan time and MTTR vs. store size, plus a power-fail fault
//! campaign.
//!
//! Two legs on the same seed:
//!
//! 1. **MTTR sweep** — one trial ([`run_recovery_trial`]) per store size:
//!    preload a store, run a live workload, power-fail a backup (tearing the
//!    flash backend's volatile state — open page buffers and RAM queues are
//!    lost, the in-flight program becomes a torn page), keep committing
//!    while it is down, then cold-restart it and measure the recovery
//!    timeline:
//!    - **mount**: the OOB scan that rebuilds the mapping table and version
//!      chains from flash alone, discarding torn pages
//!      ([`flashsim::Backend::mount`]);
//!    - **catch-up**: the cursored anti-entropy sweep of the current
//!      primary that recovers every commit acknowledged during the outage;
//!    - **MTTR**: restart to the replica's `Serving` transition.
//!
//!    Every trial ends with a durability audit: the last value acknowledged
//!    for each workload key must be readable from the recovered replica's
//!    own flash.
//! 2. **Power-fail campaign** — the `faultkit` nemesis interleaves power
//!    failures with warm crashes and partitions while backup snapshot
//!    reads are enabled; the checker must find no `lost_acked_write` and
//!    no `stale_backup_read`.
//!
//! `--inject durability-skip` flips the seeded fraud
//! ([`Fraud::SkipDurability`]): cold restarts adopt the mounted floor and
//! skip catch-up. Both legs must then *fail* — the sweep's audit reports
//! lost writes and the campaign's checker flags the fraud — proving the
//! durability checks actually bite.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

use faultkit::{run_campaign, CampaignConfig, CampaignReport, PlanKind};
use flashsim::{value, BackendKind, Key, NandConfig, Value};
use milana::client::TxnOpts;
use milana::cluster::{MilanaCluster, MilanaClusterConfig};
use milana::Fraud;
use obskit::{Json, Obs, RecoveryPhase, TraceEvent};
use semel::shard::ShardId;
use simkit::Sim;
use timesync::ClockSpec;

use crate::common::{campaign_verdict, verdict, Args, Scale};
use crate::Outcome;

/// Preloaded value size in bytes.
const VALUE_SIZE: usize = 128;
/// Storage backend under test.
const BACKEND: BackendKind = BackendKind::Mftl;
/// Replicas per shard; the trial power-fails the last one.
const REPLICAS: u32 = 3;

/// One `repro recovery` run, and the template of each of its trials.
#[derive(Debug, Clone)]
pub struct RecoverySpec {
    /// Simulation seed (sweep and campaign both derive from it).
    pub seed: u64,
    /// Store sizes (preloaded keys) swept for the MTTR-vs-size curve.
    pub store_sizes: Vec<u64>,
    /// Keys preloaded before one trial's workload starts. The mount scan
    /// walks every programmed page, so this is the store-size axis the
    /// sweep sets from `store_sizes`.
    pub store_keys: u64,
    /// Workload clients.
    pub clients: u32,
    /// Keys the live workload rewrites (ids `0..hot_keys`, a subset of the
    /// preloaded range).
    pub hot_keys: u64,
    /// Commits acknowledged before the power failure.
    pub warm_commits: u64,
    /// Commits acknowledged while the victim is down — exactly the writes
    /// anti-entropy catch-up must recover.
    pub outage_commits: u64,
    /// Anti-entropy fetch page size (`ServerTuning::catchup_batch`).
    pub catchup_batch: usize,
    /// Pages/second the mount scan reads OOB metadata at.
    pub mount_scan_rate: u64,
    /// Faults in the power-fail campaign leg.
    pub campaign_faults: usize,
    /// Fraud hook: under [`Fraud::SkipDurability`] the cold restart adopts
    /// the mounted state as-is and skips catch-up. Every trial's audit
    /// must then report `lost_writes > 0`, and the campaign must flag it.
    pub fraud: Fraud,
}

impl Default for RecoverySpec {
    /// The quick-scale run at seed 0: the trial template tests build on.
    fn default() -> RecoverySpec {
        RecoverySpec {
            seed: 0,
            store_sizes: vec![500, 2_000, 8_000],
            store_keys: 2_000,
            clients: 2,
            hot_keys: 32,
            warm_commits: 64,
            outage_commits: 64,
            catchup_batch: 64,
            mount_scan_rate: 100_000,
            campaign_faults: 16,
            fraud: Fraud::None,
        }
    }
}

impl RecoverySpec {
    /// What `repro recovery` runs at the given scale, seed 1.
    pub(crate) fn for_scale(scale: Scale) -> RecoverySpec {
        let quick = RecoverySpec {
            seed: 1,
            ..RecoverySpec::default()
        };
        match scale {
            Scale::Quick => quick,
            Scale::Full => RecoverySpec {
                store_sizes: vec![2_000, 8_000, 32_000],
                campaign_faults: 48,
                ..quick
            },
        }
    }
}

/// Everything one recovery trial measured.
#[derive(Debug, Clone)]
pub struct RecoveryTrial {
    /// The seed.
    pub(crate) seed: u64,
    /// Preloaded store size (keys).
    pub(crate) store_keys: u64,
    /// Commits acknowledged across the whole trial.
    pub(crate) acked: u64,
    /// Commits acknowledged during the outage window.
    pub(crate) outage_acked: u64,
    /// Mount-scan duration (`MountStart` → `MountDone`), nanoseconds of
    /// simulated time.
    pub(crate) mount_ns: u64,
    /// Catch-up duration (`MountDone` → `Serving`), nanoseconds.
    pub(crate) catchup_ns: u64,
    /// Restart → `Serving`: mean time to recovery, nanoseconds.
    pub(crate) mttr_ns: u64,
    /// Torn pages the mount scan discarded.
    pub(crate) torn_pages: u64,
    /// Keys the anti-entropy sweep applied.
    pub(crate) catchup_keys: u64,
    /// Acked writes whose last value is missing from the recovered
    /// replica's backend. Zero on every honest run; the durability fraud
    /// ([`Fraud::SkipDurability`]) must make this positive.
    pub(crate) lost_writes: u64,
}

impl RecoveryTrial {
    /// True when every acknowledged write survived the cold restart.
    pub(crate) fn clean(&self) -> bool {
        self.lost_writes == 0
    }

    /// Deterministic JSON document (stable field order, no floats).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("seed", Json::U64(self.seed))
            .field("store_keys", Json::U64(self.store_keys))
            .field("acked", Json::U64(self.acked))
            .field("outage_acked", Json::U64(self.outage_acked))
            .field("mount_ns", Json::U64(self.mount_ns))
            .field("catchup_ns", Json::U64(self.catchup_ns))
            .field("mttr_ns", Json::U64(self.mttr_ns))
            .field("torn_pages", Json::U64(self.torn_pages))
            .field("catchup_keys", Json::U64(self.catchup_keys))
            .field("lost_writes", Json::U64(self.lost_writes))
    }
}

/// `repro recovery`.
pub(crate) fn repro(args: &Args, scale: Scale) -> Outcome {
    let mut spec = RecoverySpec::for_scale(scale);
    spec.seed = args.last_or("--seed", spec.seed);
    spec.fraud = args.fraud(&["durability-skip"]);
    eprintln!(
        "recovery: {} store size(s), {} campaign fault(s), seed {}{} ...",
        spec.store_sizes.len(),
        spec.campaign_faults,
        spec.seed,
        if spec.fraud != Fraud::None {
            " [durability-skip injected]"
        } else {
            ""
        }
    );
    let trials = run(&spec);
    let campaign = run_powerfail_campaign(&spec);
    print(&spec, &trials, &campaign);
    Outcome::of_fraud_run(
        to_json(&spec, &trials, &campaign),
        ok(&spec, &trials, &campaign),
        spec.fraud,
        "durability checks missed the injected fraud",
    )
}

pub(crate) fn enc(n: u64) -> Value {
    value(Vec::from(n.to_be_bytes()))
}

pub(crate) fn dec(v: &[u8]) -> u64 {
    if v.len() < 8 {
        return 0;
    }
    let mut b = [0u8; 8];
    b.copy_from_slice(&v[..8]);
    u64::from_be_bytes(b)
}

/// Builds the cluster config a trial (or a test) runs on.
pub(crate) fn cluster_config(spec: &RecoverySpec, obs: &Obs) -> MilanaClusterConfig {
    // Size the device for the preload plus generous multi-version
    // headroom; `sized_for` keeps the scan-rate override.
    let writes = spec.warm_commits + spec.outage_commits;
    let nand = NandConfig {
        pages_per_block: 16,
        mount_scan_rate: spec.mount_scan_rate,
        ..NandConfig::default()
    }
    .sized_for(spec.store_keys + 4 * writes.max(16), VALUE_SIZE + 64, 0.25);
    let mut cfg = MilanaClusterConfig {
        shards: 1,
        replicas: REPLICAS,
        clients: spec.clients,
        backend: BACKEND,
        nand,
        clock: ClockSpec::ptp_software(),
        preload_keys: spec.store_keys,
        value_size: VALUE_SIZE,
        ..MilanaClusterConfig::default()
    };
    cfg.tuning.obs = obs.clone();
    cfg.tuning.catchup_batch = spec.catchup_batch;
    cfg.tuning.fraud.set(spec.fraud);
    cfg
}

/// Commits `n` read-modify-write increments round-robin over the hot keys,
/// one transaction at a time (retried on abort), recording the last value
/// acknowledged per key.
pub(crate) async fn commit_increments(
    cluster: &Rc<RefCell<MilanaCluster>>,
    h: &simkit::SimHandle,
    spec: &RecoverySpec,
    n: u64,
    expected: &Rc<RefCell<BTreeMap<u64, u64>>>,
    acked: &Rc<Cell<u64>>,
) {
    let clients = cluster.borrow().clients.clone();
    for i in 0..n {
        let id = i % spec.hot_keys;
        let key = Key::from(id);
        let c = &clients[(i % clients.len() as u64) as usize];
        for attempt in 0..200u32 {
            let mut t = c.begin_with(TxnOpts::default());
            let cur = match t.get(&key).await {
                Ok(v) => dec(&v),
                Err(_) => {
                    h.sleep(Duration::from_millis(2)).await;
                    continue;
                }
            };
            t.put(key.clone(), enc(cur + 1));
            match t.commit().await {
                Ok(_) => {
                    expected.borrow_mut().insert(id, cur + 1);
                    acked.set(acked.get() + 1);
                    break;
                }
                Err(_) => {
                    assert!(attempt < 199, "workload starved on key {id}");
                    h.sleep(Duration::from_millis(2)).await;
                }
            }
        }
    }
}

/// Runs one cold-restart recovery trial to completion.
///
/// Timeline: settle → `warm_commits` → power-fail the last backup →
/// `outage_commits` → cold restart → poll to `Serving` → durability audit.
/// Everything is simulated time, so the same spec produces byte-identical
/// [`RecoveryTrial::to_json`] output.
///
/// # Panics
///
/// Panics if the recovered replica never reaches `Serving` within 30
/// simulated seconds, or the workload starves.
pub fn run_recovery_trial(spec: &RecoverySpec) -> RecoveryTrial {
    let mut sim = Sim::new(spec.seed);
    let h = sim.handle();
    let obs = Obs::with_trace(1 << 18);
    let cluster = Rc::new(RefCell::new(MilanaCluster::build(
        &h,
        cluster_config(spec, &obs),
    )));
    let shard = ShardId(0);
    let victim = REPLICAS as usize - 1;
    let victim_node = cluster.borrow().replicas[shard.0 as usize][victim]
        .addr
        .node
        .0 as u64;

    let expected: Rc<RefCell<BTreeMap<u64, u64>>> = Rc::new(RefCell::new(BTreeMap::new()));
    let acked = Rc::new(Cell::new(0u64));

    // Warm phase: the victim replicates these live.
    {
        let (cl, hh, sp, exp, ak) = (
            cluster.clone(),
            h.clone(),
            spec.clone(),
            expected.clone(),
            acked.clone(),
        );
        sim.block_on(async move {
            hh.sleep(Duration::from_millis(5)).await;
            commit_increments(&cl, &hh, &sp, sp.warm_commits, &exp, &ak).await;
        });
    }

    // Power failure: open page buffers and RAM queues torn away.
    cluster.borrow().power_fail_replica(shard, victim);

    // Outage phase: acked by the surviving majority; the victim must
    // recover every one of these through anti-entropy catch-up.
    let before_outage = acked.get();
    {
        let (cl, hh, sp, exp, ak) = (
            cluster.clone(),
            h.clone(),
            spec.clone(),
            expected.clone(),
            acked.clone(),
        );
        sim.block_on(async move {
            commit_increments(&cl, &hh, &sp, sp.outage_commits, &exp, &ak).await;
            // Let the surviving replicas drain replication flushes so the
            // trial measures recovery, not workload tail.
            hh.sleep(Duration::from_millis(10)).await;
        });
    }
    let outage_acked = acked.get() - before_outage;

    // Cold restart, then poll to Serving.
    let restart_at = h.now().as_nanos();
    cluster.borrow_mut().restart_replica_cold(shard, victim);
    {
        let (cl, hh) = (cluster.clone(), h.clone());
        sim.block_on(async move {
            let deadline = hh.now() + Duration::from_secs(30);
            loop {
                if cl.borrow().replicas[shard.0 as usize][victim]
                    .server
                    .is_serving()
                {
                    break;
                }
                assert!(hh.now() < deadline, "cold restart never reached Serving");
                hh.sleep(Duration::from_micros(200)).await;
            }
        });
    }

    // Durability audit: every acked value must be on the recovered
    // replica's own flash — read its backend directly, not the cluster.
    let backend = cluster.borrow().replicas[shard.0 as usize][victim]
        .server
        .backend()
        .clone();
    let lost = {
        let exp = expected.borrow().clone();
        sim.block_on(async move {
            let mut lost = 0u64;
            for (id, want) in exp {
                let ok = match backend.get_latest(&Key::from(id)).await {
                    Ok(vv) => dec(&vv.value) >= want,
                    Err(_) => false,
                };
                if !ok {
                    lost += 1;
                }
            }
            lost
        })
    };

    // Recovery timeline from the trace: the victim's last recovery cycle.
    let mut mount_start = restart_at;
    let mut mount_done = restart_at;
    let mut serving_at = restart_at;
    for (at, ev) in obs.tracer.events() {
        if let TraceEvent::RecoveryStep { node, phase, .. } = ev {
            if node != victim_node || at < restart_at {
                continue;
            }
            match phase {
                RecoveryPhase::MountStart => mount_start = at,
                RecoveryPhase::MountDone => mount_done = at,
                RecoveryPhase::Serving => serving_at = at,
                _ => {}
            }
        }
    }

    RecoveryTrial {
        seed: spec.seed,
        store_keys: spec.store_keys,
        acked: acked.get(),
        outage_acked,
        mount_ns: mount_done.saturating_sub(mount_start),
        catchup_ns: serving_at.saturating_sub(mount_done),
        mttr_ns: serving_at.saturating_sub(restart_at),
        torn_pages: obs.registry.counter("torn_pages").get(),
        catchup_keys: obs.registry.counter("catchup_keys").get(),
        lost_writes: lost,
    }
}

/// Runs the MTTR sweep: one trial per store size, `spec` for everything
/// else. Each trial is an independent sim, so the sweep fans out on the
/// `perfkit` worker pool; trials come back in store-size order.
pub(crate) fn run(spec: &RecoverySpec) -> Vec<RecoveryTrial> {
    perfkit::pool::run_ordered_auto(spec.store_sizes.clone(), |store_keys| {
        run_recovery_trial(&RecoverySpec {
            store_keys,
            ..spec.clone()
        })
    })
}

/// Runs the power-fail fault-campaign leg.
pub(crate) fn run_powerfail_campaign(spec: &RecoverySpec) -> CampaignReport {
    run_campaign(&CampaignConfig {
        seeds: vec![spec.seed],
        faults: spec.campaign_faults,
        plan: PlanKind::PowerFail,
        backup_reads: true,
        fraud: spec.fraud,
        ..CampaignConfig::default()
    })
}

/// Prints the sweep table and both verdicts.
pub(crate) fn print(spec: &RecoverySpec, trials: &[RecoveryTrial], campaign: &CampaignReport) {
    println!(
        "{:>10} {:>7} {:>12} {:>12} {:>12} {:>6} {:>9} {:>6}",
        "store_keys", "acked", "mount_us", "catchup_us", "mttr_us", "torn", "caught_up", "lost"
    );
    for t in trials {
        println!(
            "{:>10} {:>7} {:>12} {:>12} {:>12} {:>6} {:>9} {:>6}",
            t.store_keys,
            t.acked,
            t.mount_ns / 1_000,
            t.catchup_ns / 1_000,
            t.mttr_ns / 1_000,
            t.torn_pages,
            t.catchup_keys,
            t.lost_writes,
        );
    }
    let lost: u64 = trials.iter().map(|t| t.lost_writes).sum();
    println!(
        "durability audit: {} trial(s), {} lost acked write(s) ({})",
        trials.len(),
        lost,
        verdict(spec.fraud, lost == 0)
    );
    println!(
        "power-fail campaign: {} fault(s), {} violation(s) ({})",
        spec.campaign_faults,
        campaign.violation_count(),
        campaign_verdict(
            verdict(spec.fraud, campaign.offending_seeds().is_empty()),
            campaign.first_failure()
        )
    );
}

/// Deterministic JSON payload for the artifact.
pub(crate) fn to_json(
    spec: &RecoverySpec,
    trials: &[RecoveryTrial],
    campaign: &CampaignReport,
) -> Json {
    let sweep = Json::arr(trials.iter().map(RecoveryTrial::to_json));
    Json::obj()
        .field("seed", Json::U64(spec.seed))
        .field(
            "inject_durability_skip",
            Json::Bool(spec.fraud != Fraud::None),
        )
        .field("trials", sweep)
        .field("campaign", campaign.to_json())
        .field(
            "checks",
            Json::obj()
                .field(
                    "sweep_clean",
                    Json::Bool(trials.iter().all(RecoveryTrial::clean)),
                )
                .field(
                    "campaign_clean",
                    Json::Bool(campaign.offending_seeds().is_empty()),
                ),
        )
}

/// True when the run passes. On an honest run both legs must be clean; in
/// `--inject durability-skip` mode both legs must *catch* the fraud.
pub(crate) fn ok(spec: &RecoverySpec, trials: &[RecoveryTrial], campaign: &CampaignReport) -> bool {
    let sweep_clean = trials.iter().all(RecoveryTrial::clean);
    let campaign_clean = campaign.offending_seeds().is_empty();
    if spec.fraud != Fraud::None {
        !sweep_clean && !campaign_clean
    } else {
        sweep_clean && campaign_clean
    }
}

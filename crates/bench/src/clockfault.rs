//! Clock-fault robustness reproduction (`repro clockfault`):
//! abort rate across the clock-precision spectrum with health tracking on,
//! a fence-and-recover degradation run, and a clock-fault campaign.
//!
//! Three legs on the same seed:
//!
//! 1. **Skew sweep** — abort rate vs clock discipline (Perfect → PTP-HW →
//!    PTP-SW → NTP) with server-side clock-health tracking enabled,
//!    averaged over [`SUB_SEEDS`] paired runs per discipline. The curve must
//!    come out skew-ordered: worse sync, more aborts.
//! 2. **Degradation run** — a clean run and a twin where one client's
//!    clock breaks badly (holdover + step + drift, so resyncs never repair
//!    it). The cluster must fence the broken client and goodput must
//!    recover to ≥ 80 % of the clean twin.
//! 3. **Clock-fault campaign** — the `faultkit` nemesis drives clock
//!    steps, persistent drift, and holdover jumps against a deliberately
//!    tight uncertainty promise; the checker holds commits to the promised
//!    ε and must find no `clock_bound_breach`.
//!
//! `--inject uncertainty-skip` flips the seeded fraud: primaries keep the
//! health estimates but ignore the verdicts, so mis-timestamped prepares
//! sail through validation. The campaign's checker must then *flag* the
//! breach — a clean fraud run means the clock bound is checked by nobody.

use std::time::Duration;

use faultkit::{run_campaign, CampaignConfig, CampaignReport, PlanKind};
use flashsim::BackendKind;
use milana::cluster::{MilanaCluster, MilanaClusterConfig};
use milana::Fraud;
use obskit::Json;
use simkit::Sim;
use timesync::ClockSpec;

use crate::common::{
    campaign_verdict, clock_spectrum, run_retwis, run_retwis_on_milana, verdict, Args, Scale,
};
use crate::{testbed, Outcome};

/// Paired runs averaged per sweep point.
pub(crate) const SUB_SEEDS: u64 = 3;

/// Knobs for one `repro clockfault` run.
pub struct ClockFaultConfig {
    /// Simulation seed (all three legs derive from it).
    pub seed: u64,
    /// Faults in the clock-fault campaign leg.
    pub campaign_faults: usize,
    /// Virtual measurement window per run.
    pub measure: Duration,
    /// Seeded fraud ([`Fraud::SkipUncertainty`]: servers track clock health
    /// but ignore the verdicts). The campaign's checker must then flag a
    /// `clock_bound_breach`.
    pub fraud: Fraud,
}

impl ClockFaultConfig {
    /// Defaults for the given scale.
    pub(crate) fn for_scale(scale: Scale) -> ClockFaultConfig {
        let faults = match scale {
            Scale::Quick => 12,
            Scale::Full => 32,
        };
        ClockFaultConfig {
            seed: 1,
            campaign_faults: faults,
            measure: scale.measure() / 2,
            fraud: Fraud::None,
        }
    }

    /// The campaign's clock-health tuning: a 1 ms future ceiling, tight
    /// enough that the multi-millisecond steps and jumps the plan injects
    /// are decidedly outside the promised window.
    pub(crate) fn campaign_health() -> clockkit::ClockHealthConfig {
        clockkit::ClockHealthConfig {
            max_future_ns: 1_000_000,
        }
    }
}

/// `repro clockfault`.
pub(crate) fn repro(args: &Args, scale: Scale) -> Outcome {
    let mut cfg = ClockFaultConfig::for_scale(scale);
    cfg.seed = args.last_or("--seed", cfg.seed);
    cfg.fraud = args.fraud(&["uncertainty-skip"]);
    eprintln!(
        "clockfault: 4 disciplines x {} sub-seed(s), {} campaign fault(s), seed {}{} ...",
        SUB_SEEDS,
        cfg.campaign_faults,
        cfg.seed,
        if cfg.fraud != Fraud::None {
            " [uncertainty-skip injected]"
        } else {
            ""
        }
    );
    let sweep = run_sweep(&cfg);
    let degradation = run_degradation(&cfg);
    let campaign = run_fault_campaign(&cfg);
    print(&cfg, &sweep, &degradation, &campaign);
    Outcome::of_fraud_run(
        to_json(&cfg, &sweep, &degradation, &campaign),
        ok(&cfg, &sweep, &degradation, &campaign),
        cfg.fraud,
        "clock-bound checker missed the injected fraud",
    )
}

/// One point of the skew sweep: a discipline's average abort behaviour.
#[derive(Debug, Clone)]
pub(crate) struct SweepPoint {
    /// Discipline label.
    pub(crate) clock: &'static str,
    /// Expected mean pairwise skew under this discipline (ns).
    pub(crate) skew_ns: u64,
    /// Abort rate averaged over the sub-seeds.
    pub(crate) abort_rate: f64,
    /// Commits summed over the sub-seeds.
    pub(crate) commits: u64,
    /// Clock-suspect refusals summed over the sub-seeds (honest clocks
    /// should rarely trip the fence).
    pub(crate) suspects: u64,
}

impl SweepPoint {
    /// Deterministic JSON for the artifact.
    pub(crate) fn to_json(&self) -> Json {
        Json::obj()
            .field("clock", Json::str(self.clock))
            .field("skew_ns", Json::U64(self.skew_ns))
            .field("abort_rate", Json::F64(self.abort_rate))
            .field("commits", Json::U64(self.commits))
            .field("clock_suspects", Json::U64(self.suspects))
    }
}

/// Outcome of the fence-and-recover degradation leg.
#[derive(Debug, Clone)]
pub(crate) struct Degradation {
    /// Goodput of the clean twin (commits/s of virtual time).
    pub(crate) clean_goodput: f64,
    /// Goodput with one broken-clock client, post-fence.
    pub(crate) degraded_goodput: f64,
    /// `degraded_goodput / clean_goodput`.
    pub(crate) recovery_ratio: f64,
    /// Clients fenced in the degraded run (must be ≥ 1).
    pub(crate) fences: u64,
    /// Clock-suspect refusals in the degraded run.
    pub(crate) suspects: u64,
    /// Clients fenced in the clean run (must be 0).
    pub(crate) clean_fences: u64,
}

impl Degradation {
    /// Deterministic JSON for the artifact.
    pub(crate) fn to_json(&self) -> Json {
        Json::obj()
            .field("clean_goodput", Json::F64(self.clean_goodput))
            .field("degraded_goodput", Json::F64(self.degraded_goodput))
            .field("recovery_ratio", Json::F64(self.recovery_ratio))
            .field("fences", Json::U64(self.fences))
            .field("clock_suspects", Json::U64(self.suspects))
            .field("clean_fences", Json::U64(self.clean_fences))
    }

    /// The fence did its job: the broken client was cut off and the rest
    /// of the cluster kept ≥ 80 % of clean goodput.
    pub(crate) fn ok(&self) -> bool {
        self.fences >= 1 && self.clean_fences == 0 && self.recovery_ratio >= 0.80
    }
}

const KEYSPACE: u64 = 5_000;

/// The paper testbed with server-side clock-health tracking on.
fn cluster_config(clients: u32, clock: ClockSpec) -> MilanaClusterConfig {
    let mut cfg = testbed::paper(BackendKind::Mftl, clock, clients, KEYSPACE);
    cfg.tuning.clock_health = Some(clockkit::ClockHealthConfig::default());
    cfg
}

fn suspects_and_fences(cluster: &MilanaCluster) -> (u64, u64) {
    let mut suspects = 0;
    let mut fences = 0;
    for slot in cluster.replicas.iter().flatten() {
        let s = slot.server.stats();
        suspects += s.clock_suspects;
        fences = fences.max(s.clock_fences);
    }
    (suspects, fences)
}

/// Runs the skew sweep: abort rate per discipline with health tracking on,
/// [`SUB_SEEDS`] paired runs each.
pub(crate) fn run_sweep(cfg: &ClockFaultConfig) -> Vec<SweepPoint> {
    let mut items = Vec::new();
    for (discipline, name) in clock_spectrum() {
        for sub in 0..SUB_SEEDS {
            items.push((discipline.clone(), name, sub));
        }
    }
    // Each (discipline, sub-seed) pair is an independent sim, so the
    // whole grid fans out on the worker pool; per-discipline sums fold
    // back in sweep order below.
    let runs = perfkit::pool::run_ordered_auto(items, |(discipline, name, sub)| {
        // The same sim seed across disciplines pairs the comparison:
        // identical arrivals and key choices, only the clocks differ.
        // Moderate contention: saturated hot keys abort on conflicts
        // regardless of clocks, which would bury the skew signal.
        let outcome = run_retwis_on_milana(
            cfg.seed * 1_000 + sub,
            cluster_config(5, ClockSpec::from(discipline.clone())),
            testbed::retwis(KEYSPACE, 0.7),
            2,
            (Duration::from_millis(200), cfg.measure),
        );
        let skew_ns = discipline.expected_skew().as_nanos() as u64;
        (
            name,
            skew_ns,
            outcome.stats.abort_rate(),
            outcome.stats.commits,
            suspects_and_fences(&outcome.cluster).0,
        )
    });
    let mut points: Vec<SweepPoint> = Vec::new();
    for (name, skew_ns, rate, commits, suspects) in runs {
        match points.last_mut() {
            Some(p) if p.clock == name => {
                p.abort_rate += rate;
                p.commits += commits;
                p.suspects += suspects;
            }
            _ => points.push(SweepPoint {
                clock: name,
                skew_ns,
                abort_rate: rate,
                commits,
                suspects,
            }),
        }
    }
    for p in &mut points {
        p.abort_rate /= SUB_SEEDS as f64;
    }
    points
}

/// The sweep curve is skew-ordered: abort rate never decreases as sync
/// quality degrades, and NTP is strictly worse than Perfect.
pub(crate) fn sweep_ordered(points: &[SweepPoint]) -> bool {
    points
        .windows(2)
        .all(|w| w[0].abort_rate <= w[1].abort_rate)
        && points
            .last()
            .zip(points.first())
            .is_some_and(|(ntp, perfect)| ntp.abort_rate > perfect.abort_rate)
}

fn degradation_run(cfg: &ClockFaultConfig, break_client: bool) -> (f64, u64, u64) {
    let mut sim = Sim::new(cfg.seed * 1_000 + 77);
    let h = sim.handle();
    let cluster = MilanaCluster::build(&h, cluster_config(8, ClockSpec::ptp_software()));
    if break_client {
        // Holdover first so the periodic resync never repairs the damage;
        // the step is well past the 10 ms future ceiling and the drift
        // keeps pushing even if estimates start to absorb the offset.
        let clock = cluster.clients[0].clock();
        clock.enter_holdover();
        clock.inject_step(15_000_000);
        clock.inject_drift(2_000_000, h.now());
    }
    let stats = run_retwis(
        &mut sim,
        &cluster.clients,
        testbed::retwis(KEYSPACE, 0.9),
        4,
        (Duration::from_millis(300), cfg.measure),
        || (),
    );
    let goodput = stats.throughput(cfg.measure);
    let (suspects, fences) = suspects_and_fences(&cluster);
    (goodput, suspects, fences)
}

/// Runs the degradation leg: a clean run and a broken-clock twin on the
/// same seed. The broken client must be fenced during warmup and the
/// measured goodput must recover to ≥ 80 % of clean.
pub(crate) fn run_degradation(cfg: &ClockFaultConfig) -> Degradation {
    // The clean and broken twins are independent sims; run both sides on
    // the worker pool.
    let runs = perfkit::pool::run_ordered_auto(vec![false, true], |b| degradation_run(cfg, b));
    let (clean_goodput, _, clean_fences) = runs[0];
    let (degraded_goodput, suspects, fences) = runs[1];
    Degradation {
        clean_goodput,
        degraded_goodput,
        recovery_ratio: if clean_goodput > 0.0 {
            degraded_goodput / clean_goodput
        } else {
            0.0
        },
        fences,
        suspects,
        clean_fences,
    }
}

/// Runs the clock-fault campaign leg: nemesis-driven steps, drift, and
/// holdover jumps with the checker holding commits to the promised ε.
pub(crate) fn run_fault_campaign(cfg: &ClockFaultConfig) -> CampaignReport {
    let health = ClockFaultConfig::campaign_health();
    let eps = health.promised_epsilon_ns();
    run_campaign(&CampaignConfig {
        seeds: vec![cfg.seed],
        faults: cfg.campaign_faults,
        plan: PlanKind::ClockFault,
        clock_health: Some(health),
        clock_epsilon_ns: Some(eps),
        fraud: cfg.fraud,
        ..CampaignConfig::default()
    })
}

/// True when the fraud was caught: some seed's checker flagged a
/// `clock_bound_breach`.
pub(crate) fn fraud_caught(campaign: &CampaignReport) -> bool {
    campaign
        .outcomes
        .iter()
        .any(|o| o.violations.iter().any(|v| v.class == "clock_bound_breach"))
}

/// Prints the sweep table and all three verdicts.
pub(crate) fn print(
    cfg: &ClockFaultConfig,
    sweep: &[SweepPoint],
    degradation: &Degradation,
    campaign: &CampaignReport,
) {
    println!(
        "{:>10} {:>12} {:>10} {:>9} {:>9}",
        "clock", "skew_ns", "abort_pct", "commits", "suspects"
    );
    for p in sweep {
        println!(
            "{:>10} {:>12} {:>10.2} {:>9} {:>9}",
            p.clock,
            p.skew_ns,
            p.abort_rate * 100.0,
            p.commits,
            p.suspects,
        );
    }
    println!(
        "skew ordering: {}",
        if sweep_ordered(sweep) { "ok" } else { "FAILED" }
    );
    println!(
        "degradation: clean {:.0}/s, degraded {:.0}/s ({:.1}% recovered), \
         {} fence(s), {} suspect(s) ({})",
        degradation.clean_goodput,
        degradation.degraded_goodput,
        degradation.recovery_ratio * 100.0,
        degradation.fences,
        degradation.suspects,
        if degradation.ok() { "ok" } else { "FAILED" }
    );
    let clean = campaign.offending_seeds().is_empty();
    println!(
        "clock-fault campaign: {} fault(s), {} violation(s) ({})",
        cfg.campaign_faults,
        campaign.violation_count(),
        campaign_verdict(
            match verdict(cfg.fraud, clean) {
                "fraud caught" if !fraud_caught(campaign) => "FRAUD MISCLASSIFIED",
                v => v,
            },
            campaign.first_failure()
        )
    );
}

/// Deterministic JSON payload for the artifact.
pub(crate) fn to_json(
    cfg: &ClockFaultConfig,
    sweep: &[SweepPoint],
    degradation: &Degradation,
    campaign: &CampaignReport,
) -> Json {
    Json::obj()
        .field("seed", Json::U64(cfg.seed))
        .field(
            "inject_uncertainty_skip",
            Json::Bool(cfg.fraud != Fraud::None),
        )
        .field("sweep", Json::arr(sweep.iter().map(SweepPoint::to_json)))
        .field("degradation", degradation.to_json())
        .field("campaign", campaign.to_json())
        .field(
            "checks",
            Json::obj()
                .field("skew_ordered", Json::Bool(sweep_ordered(sweep)))
                .field("degradation_ok", Json::Bool(degradation.ok()))
                .field(
                    "campaign_clean",
                    Json::Bool(campaign.offending_seeds().is_empty()),
                ),
        )
}

/// True when the run passes. Honest runs need the skew-ordered curve, a
/// successful fence-and-recover, and a clean campaign; `--inject
/// uncertainty-skip` runs need the checker to flag the breach.
pub(crate) fn ok(
    cfg: &ClockFaultConfig,
    sweep: &[SweepPoint],
    degradation: &Degradation,
    campaign: &CampaignReport,
) -> bool {
    if cfg.fraud != Fraud::None {
        fraud_caught(campaign)
    } else {
        sweep_ordered(sweep) && degradation.ok() && campaign.offending_seeds().is_empty()
    }
}

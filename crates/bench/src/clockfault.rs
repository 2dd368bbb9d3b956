//! Clock-fault robustness reproduction (`repro clockfault`): a
//! fence-and-recover degradation run and a clock-fault campaign. Abort
//! rate across the clock-precision spectrum is Figure 7's sweep
//! ([`crate::fig7`]).
//!
//! Two legs on the same seed:
//!
//! 1. **Degradation run** — a clean run and a twin where one client's
//!    clock breaks badly (holdover + step + drift, so resyncs never repair
//!    it). The cluster must fence the broken client, must fence nobody in
//!    the clean twin, and goodput must recover to ≥ 80 % of the clean twin.
//! 2. **Clock-fault campaign** — the `faultkit` nemesis drives clock
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

use crate::common::{campaign_verdict, judged, run_retwis, verdict, Args, Scale};
use crate::{testbed, Outcome};

/// Knobs for one `repro clockfault` run.
pub struct ClockFaultConfig {
    /// Simulation seed (both legs derive from it).
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
}

/// `repro clockfault`.
pub(crate) fn repro(args: &Args, scale: Scale) -> Outcome {
    let mut cfg = ClockFaultConfig::for_scale(scale);
    cfg.seed = args.last_or("--seed", cfg.seed);
    cfg.fraud = args.fraud(&["uncertainty-skip"]);
    eprintln!(
        "clockfault: degradation run, {} campaign fault(s), seed {}{} ...",
        cfg.campaign_faults,
        cfg.seed,
        if cfg.fraud != Fraud::None {
            " [uncertainty-skip injected]"
        } else {
            ""
        }
    );
    let degradation = run_degradation(&cfg);
    let campaign = run_fault_campaign(&cfg);
    print(&cfg, &degradation, &campaign);
    Outcome::of_fraud_run(
        to_json(&cfg, &degradation, &campaign),
        ok(&cfg, &degradation, &campaign),
        cfg.fraud,
        "clock-bound checker missed the injected fraud",
    )
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

    /// The fence did its job: the broken client was cut off, nobody was
    /// fenced in the clean twin, and the rest of the cluster kept ≥ 80 %
    /// of clean goodput.
    pub(crate) fn ok(&self) -> bool {
        self.failure().is_none()
    }

    /// The first of [`Degradation::ok`]'s checks that fails, with both
    /// sides, or `None` when all hold.
    pub(crate) fn failure(&self) -> Option<String> {
        if self.fences < 1 {
            Some(format!("{} fence(s) in the broken run < 1", self.fences))
        } else if self.clean_fences != 0 {
            Some(format!(
                "{} fence(s) in the clean twin != 0",
                self.clean_fences
            ))
        } else if self.recovery_ratio < 0.80 {
            Some(format!(
                "recovered {:.1}% < 80%",
                self.recovery_ratio * 100.0
            ))
        } else {
            None
        }
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
    run_campaign(&CampaignConfig {
        seeds: vec![cfg.seed],
        faults: cfg.campaign_faults,
        plan: PlanKind::ClockFault,
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

/// The degradation leg's output line.
pub(crate) fn degradation_line(seed: u64, degradation: &Degradation) -> String {
    format!(
        "degradation: clean {:.0}/s, degraded {:.0}/s ({:.1}% recovered), \
         {} fence(s), {} suspect(s) ({})",
        degradation.clean_goodput,
        degradation.degraded_goodput,
        degradation.recovery_ratio * 100.0,
        degradation.fences,
        degradation.suspects,
        judged(seed, degradation.failure(), "ok")
    )
}

/// Prints both legs' verdicts.
pub(crate) fn print(cfg: &ClockFaultConfig, degradation: &Degradation, campaign: &CampaignReport) {
    println!("{}", degradation_line(cfg.seed, degradation));
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
    degradation: &Degradation,
    campaign: &CampaignReport,
) -> Json {
    Json::obj()
        .field("seed", Json::U64(cfg.seed))
        .field(
            "inject_uncertainty_skip",
            Json::Bool(cfg.fraud != Fraud::None),
        )
        .field("degradation", degradation.to_json())
        .field("campaign", campaign.to_json())
        .field(
            "checks",
            Json::obj()
                .field("degradation_ok", Json::Bool(degradation.ok()))
                .field(
                    "campaign_clean",
                    Json::Bool(campaign.offending_seeds().is_empty()),
                ),
        )
}

/// True when the run passes. Honest runs need a successful
/// fence-and-recover and a clean campaign; `--inject uncertainty-skip`
/// runs need the checker to flag the breach.
pub(crate) fn ok(
    cfg: &ClockFaultConfig,
    degradation: &Degradation,
    campaign: &CampaignReport,
) -> bool {
    if cfg.fraud != Fraud::None {
        fraud_caught(campaign)
    } else {
        degradation.ok() && campaign.offending_seeds().is_empty()
    }
}

//! Cold-restart recovery reproduction (`repro recovery`):
//! mount-scan time and MTTR vs. store size, plus a power-fail fault
//! campaign.
//!
//! Two legs on the same seed:
//!
//! 1. **MTTR sweep** — one [`recoverkit`] trial per store size: preload,
//!    warm workload, power-fail a backup (torn flash state), keep
//!    committing, cold-restart it, and split the recovery timeline into
//!    mount scan (OOB walk) and anti-entropy catch-up. Every trial ends
//!    with a durability audit against the recovered replica's own flash.
//! 2. **Power-fail campaign** — the `faultkit` nemesis interleaves power
//!    failures with warm crashes and partitions while backup snapshot
//!    reads are enabled; the checker must find no `lost_acked_write` and
//!    no `stale_backup_read`.
//!
//! `--inject durability-skip` flips the seeded fraud: cold restarts adopt
//! the mounted floor and skip catch-up. Both legs must then *fail* — the
//! sweep's audit reports lost writes and the campaign's checker flags the
//! fraud — proving the durability checks actually bite.

use faultkit::{run_campaign, CampaignConfig, CampaignReport, PlanKind};
use milana::Fraud;
use obskit::Json;
use recoverkit::{run_recovery_sweep, RecoverySpec, RecoveryTrial};

use crate::common::{Args, Scale};
use crate::Outcome;

/// Knobs for one `repro recovery` run.
pub struct RecoveryConfig {
    /// Simulation seed (sweep and campaign both derive from it).
    pub seed: u64,
    /// Store sizes (preloaded keys) swept for the MTTR-vs-size curve.
    pub store_sizes: Vec<u64>,
    /// Trial template: workload shape, scan rate, catch-up batch.
    pub spec: RecoverySpec,
    /// Faults in the power-fail campaign leg.
    pub campaign_faults: usize,
    /// Seeded fraud ([`Fraud::SkipDurability`]: skip anti-entropy catch-up
    /// on cold restart). The run must then detect lost acked writes in
    /// both legs.
    pub fraud: Fraud,
}

impl RecoveryConfig {
    /// Defaults for the given scale.
    pub fn for_scale(scale: Scale) -> RecoveryConfig {
        let (store_sizes, faults) = match scale {
            Scale::Quick => (vec![500, 2_000, 8_000], 16),
            Scale::Full => (vec![2_000, 8_000, 32_000], 48),
        };
        RecoveryConfig {
            seed: 1,
            store_sizes,
            spec: RecoverySpec::default(),
            campaign_faults: faults,
            fraud: Fraud::None,
        }
    }

    /// True when the run carries the seeded fraud.
    fn injected(&self) -> bool {
        self.fraud != Fraud::None
    }
}

/// `repro recovery`.
pub fn repro(args: &Args, scale: Scale) -> Outcome {
    let mut cfg = RecoveryConfig::for_scale(scale);
    cfg.seed = args.last_or("--seed", cfg.seed);
    cfg.fraud = args.fraud(&["durability-skip"]);
    eprintln!(
        "recovery: {} store size(s), {} campaign fault(s), seed {}{} ...",
        cfg.store_sizes.len(),
        cfg.campaign_faults,
        cfg.seed,
        if cfg.injected() {
            " [durability-skip injected]"
        } else {
            ""
        }
    );
    let trials = run(&cfg);
    let campaign = run_powerfail_campaign(&cfg);
    print(&cfg, &trials, &campaign);
    Outcome::of_fraud_run(
        to_json(&cfg, &trials, &campaign),
        ok(&cfg, &trials, &campaign),
        cfg.injected(),
        "durability checks missed the injected fraud",
    )
}

/// Runs the MTTR sweep: one cold-restart trial per store size.
pub fn run(cfg: &RecoveryConfig) -> Vec<RecoveryTrial> {
    let spec = RecoverySpec {
        seed: cfg.seed,
        fraud: cfg.fraud,
        ..cfg.spec.clone()
    };
    run_recovery_sweep(&spec, &cfg.store_sizes)
}

/// Runs the power-fail fault-campaign leg.
pub fn run_powerfail_campaign(cfg: &RecoveryConfig) -> CampaignReport {
    run_campaign(&CampaignConfig {
        seeds: vec![cfg.seed],
        faults: cfg.campaign_faults,
        plan: PlanKind::PowerFail,
        backup_reads: true,
        fraud: cfg.fraud,
        ..CampaignConfig::default()
    })
}

/// Prints the sweep table and both verdicts.
pub fn print(cfg: &RecoveryConfig, trials: &[RecoveryTrial], campaign: &CampaignReport) {
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
        match (cfg.injected(), lost) {
            (false, 0) => "ok",
            (false, _) => "FAILED",
            (true, 0) => "FRAUD MISSED",
            (true, _) => "fraud caught",
        }
    );
    println!(
        "power-fail campaign: {} fault(s), {} violation(s) ({})",
        cfg.campaign_faults,
        campaign.violation_count(),
        match (cfg.injected(), campaign.offending_seeds().is_empty()) {
            (false, true) => "ok",
            (false, false) => "FAILED",
            (true, true) => "FRAUD MISSED",
            (true, false) => "fraud caught",
        }
    );
}

/// Deterministic JSON payload for the artifact.
pub fn to_json(cfg: &RecoveryConfig, trials: &[RecoveryTrial], campaign: &CampaignReport) -> Json {
    let sweep = Json::arr(trials.iter().map(RecoveryTrial::to_json));
    Json::obj()
        .field("seed", Json::U64(cfg.seed))
        .field("inject_durability_skip", Json::Bool(cfg.injected()))
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
pub fn ok(cfg: &RecoveryConfig, trials: &[RecoveryTrial], campaign: &CampaignReport) -> bool {
    let sweep_clean = trials.iter().all(RecoveryTrial::clean);
    let campaign_clean = campaign.offending_seeds().is_empty();
    if cfg.injected() {
        !sweep_clean && !campaign_clean
    } else {
        sweep_clean && campaign_clean
    }
}

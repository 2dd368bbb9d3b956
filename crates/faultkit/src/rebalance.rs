//! Fault campaigns aimed at live shard migration.
//!
//! One seed boots a traced 2-shard MILANA cluster, runs a contended
//! counter workload, and executes a hot-shard split through
//! [`shardkit::RebalanceEngine`] while a phase-triggered nemesis injects
//! faults: every protocol phase (Prepare, Copy, CatchUp, Cutover) gets a
//! crash of a destination replica or a partition between the engine and
//! one side of the migration, healed a few milliseconds later. The engine
//! must retry through all of it; afterwards the audit proves every
//! acknowledged increment survived the move and the
//! [`Checker`](crate::history::Checker) proves the committed history is
//! serializable and — via the `ShardOwned` / `ShardReleased` claims — that
//! no two nodes ever owned the moving keys at once
//! ([`ViolationClass::DualOwnership`](crate::history::ViolationClass)).

use std::cell::Cell;
use std::rc::Rc;
use std::time::Duration;

use milana::cluster::MASTER_NODE;
use obskit::{Json, MigrationPhase};
use semel::shard::ShardId;
use shardkit::{RebalanceEngine, RebalancePlan};

use crate::campaign::ViolationSummary;
use crate::counter::{report_json, violations_json, CounterRun};
use crate::plan::PlanShape;

/// Parameters for a migration fault campaign.
#[derive(Debug, Clone)]
pub struct RebalanceCampaignConfig {
    /// Seeds to run, one simulation each.
    pub seeds: Vec<u64>,
    /// Replicas per shard (odd).
    pub replicas: u32,
    /// Workload clients.
    pub clients: u32,
    /// Contended counter keys (spread over both shards).
    pub keys: u64,
    /// Inject phase-targeted faults (`false` = clean control run).
    pub inject: bool,
    /// Trace ring capacity (events); `0` picks a migration-sized default.
    pub trace_capacity: usize,
}

impl Default for RebalanceCampaignConfig {
    fn default() -> RebalanceCampaignConfig {
        RebalanceCampaignConfig {
            seeds: vec![0],
            replicas: 3,
            clients: 4,
            keys: 16,
            inject: true,
            trace_capacity: 0,
        }
    }
}

/// Everything one migration seed produced.
#[derive(Debug, Clone)]
pub struct RebalanceSeedOutcome {
    /// The seed.
    pub seed: u64,
    /// Commits acknowledged to workload clients.
    pub acked: u64,
    /// Final counter sum read by the audit transaction.
    pub audit_total: u64,
    /// Unknown-outcome attempts reported by clients.
    pub unknowns: u64,
    /// Records the engine shipped over the copy plane.
    pub records_copied: u64,
    /// Bytes the engine shipped over the copy plane.
    pub bytes_copied: u64,
    /// Catch-up sweeps the engine ran.
    pub catchup_rounds: u32,
    /// Map epoch after cutover.
    pub final_epoch: u64,
    /// Prepares fenced with `StaleEpoch` across all servers.
    pub stale_epoch_prepares: u64,
    /// Faults the phase nemesis injected.
    pub faults_injected: u64,
    /// Ownership claims/releases in the trace.
    pub ownership_events: u64,
    /// True when the audit conserved every acknowledged increment.
    pub conservation_ok: bool,
    /// Checker violations (serializability, snapshot, dual ownership...).
    pub violations: Vec<ViolationSummary>,
}

impl RebalanceSeedOutcome {
    /// True when the seed conserved every acked write and the checker
    /// found nothing.
    pub fn clean(&self) -> bool {
        self.conservation_ok && self.violations.is_empty()
    }
}

/// A whole migration campaign's outcomes.
#[derive(Debug, Clone, Default)]
pub struct RebalanceCampaignReport {
    /// Per-seed outcomes, in seed order.
    pub outcomes: Vec<RebalanceSeedOutcome>,
}

impl RebalanceCampaignReport {
    /// Total violations across seeds.
    pub fn violation_count(&self) -> usize {
        self.outcomes.iter().map(|o| o.violations.len()).sum()
    }

    /// Seeds that were not clean.
    pub fn offending_seeds(&self) -> Vec<u64> {
        self.outcomes
            .iter()
            .filter(|o| !o.clean())
            .map(|o| o.seed)
            .collect()
    }

    /// Deterministic JSON document (stable field order, no floats).
    pub fn to_json(&self) -> Json {
        let mut seeds = Vec::new();
        for o in &self.outcomes {
            seeds.push(
                Json::obj()
                    .field("seed", Json::U64(o.seed))
                    .field("acked", Json::U64(o.acked))
                    .field("audit_total", Json::U64(o.audit_total))
                    .field("unknowns", Json::U64(o.unknowns))
                    .field("records_copied", Json::U64(o.records_copied))
                    .field("bytes_copied", Json::U64(o.bytes_copied))
                    .field("catchup_rounds", Json::U64(o.catchup_rounds as u64))
                    .field("final_epoch", Json::U64(o.final_epoch))
                    .field("stale_epoch_prepares", Json::U64(o.stale_epoch_prepares))
                    .field("faults_injected", Json::U64(o.faults_injected))
                    .field("ownership_events", Json::U64(o.ownership_events))
                    .field("conservation_ok", Json::Bool(o.conservation_ok))
                    .field("violations", violations_json(&o.violations)),
            );
        }
        report_json(seeds, self.violation_count())
    }
}

/// Runs one migration seed to completion and returns its outcome.
pub fn run_rebalance_seed(cfg: &RebalanceCampaignConfig, seed: u64) -> RebalanceSeedOutcome {
    let capacity = if cfg.trace_capacity == 0 {
        1 << 19
    } else {
        cfg.trace_capacity
    };
    let shape = PlanShape {
        shards: 2,
        replicas: cfg.replicas,
        clients: cfg.clients,
    };
    let mut run = CounterRun::boot(seed, shape, cfg.keys, capacity, |_| ());
    let (h, cluster, obs) = (run.h.clone(), run.cluster.clone(), run.obs.clone());

    // Continuous contended increments.
    for w in run.workers() {
        h.spawn(async move {
            let mut rng = w.h.fork_rng();
            while !w.stopped() {
                w.increment(&mut rng).await;
            }
        });
    }

    // Provision the split destination and build the engine.
    let from = ShardId(0);
    let to = ShardId(2);
    let dest = cluster.borrow_mut().provision_group(to);
    let sources: Vec<shardkit::SourceReplica> = cluster.borrow().replicas[from.0 as usize]
        .iter()
        .map(|s| (s.addr, s.server.backend().clone()))
        .collect();
    let engine = RebalanceEngine::new(
        &h,
        MASTER_NODE,
        cluster.borrow().map.clone(),
        cluster.borrow().master.clone(),
        obs.clone(),
    );

    // Phase nemesis: every phase gets a crash or partition, healed a few
    // milliseconds later. The engine's acked retries must ride it out.
    let injected = Rc::new(Cell::new(0u64));
    if cfg.inject {
        let hh = h.clone();
        let cl = cluster.clone();
        let dest_hook = dest.clone();
        let map = cluster.borrow().map.clone();
        let inj = injected.clone();
        engine.set_phase_hook(Rc::new(move |phase| {
            let heal = Duration::from_millis(12);
            match phase {
                MigrationPhase::Prepare | MigrationPhase::CatchUp => {
                    // Crash a destination backup; the copy plane stalls on
                    // it until the restart brings it back.
                    let idx = if phase == MigrationPhase::Prepare {
                        1
                    } else {
                        2
                    };
                    let node = dest_hook.all()[idx].node;
                    if hh.is_dead(node) {
                        return;
                    }
                    inj.set(inj.get() + 1);
                    hh.kill_node(node);
                    let hh2 = hh.clone();
                    let cl2 = cl.clone();
                    hh.spawn(async move {
                        hh2.sleep(heal).await;
                        // The destination row is the last one; for a split
                        // of a 2-shard cluster its index equals the new
                        // shard id, which is what restart_replica_warm
                        // keys on.
                        cl2.borrow_mut().restart_replica_warm(ShardId(2), idx);
                    });
                }
                MigrationPhase::Copy => {
                    // Cut the engine off from the destination primary.
                    inj.set(inj.get() + 1);
                    hh.partition(&[MASTER_NODE], &[dest_hook.primary.node]);
                    let hh2 = hh.clone();
                    hh.spawn(async move {
                        hh2.sleep(heal).await;
                        hh2.heal_partitions();
                    });
                }
                MigrationPhase::Cutover => {
                    // Cut the engine off from the source primary right
                    // before the fence goes out.
                    inj.set(inj.get() + 1);
                    let src = map.borrow().group(ShardId(0)).primary.node;
                    hh.partition(&[MASTER_NODE], &[src]);
                    let hh2 = hh.clone();
                    hh.spawn(async move {
                        hh2.sleep(heal).await;
                        hh2.heal_partitions();
                    });
                }
                MigrationPhase::Done => {}
            }
        }));
    }

    // Run the split under fire.
    let report = {
        let hh = h.clone();
        run.sim.block_on(async move {
            hh.sleep(Duration::from_millis(20)).await;
            engine
                .run(RebalancePlan::Split { from }, dest, sources)
                .await
        })
    };

    // Every acknowledged increment must survive the migration.
    let audit = run.audit(Duration::from_millis(40));
    let (history, violations) = run.check(None);

    RebalanceSeedOutcome {
        seed,
        acked: audit.acked,
        audit_total: audit.total.unwrap_or(0),
        unknowns: audit.unknowns,
        records_copied: report.records_copied,
        bytes_copied: report.bytes_copied,
        catchup_rounds: report.catchup_rounds,
        final_epoch: report.final_epoch,
        stale_epoch_prepares: obs.registry.counter("stale_epoch_prepares").get(),
        faults_injected: injected.get(),
        ownership_events: history.ownership.len() as u64,
        conservation_ok: audit.conserved,
        violations,
    }
}

/// Runs every seed in `cfg` and collects the outcomes. Seeds run on the
/// `perfkit` worker pool (one independent sim per seed); outcomes come
/// back in seed order, identical to a serial campaign's.
pub fn run_rebalance_campaign(cfg: &RebalanceCampaignConfig) -> RebalanceCampaignReport {
    let outcomes =
        perfkit::pool::run_ordered_auto(cfg.seeds.clone(), |s| run_rebalance_seed(cfg, s));
    RebalanceCampaignReport { outcomes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_control_seed_conserves() {
        let cfg = RebalanceCampaignConfig {
            inject: false,
            ..RebalanceCampaignConfig::default()
        };
        let o = run_rebalance_seed(&cfg, 7);
        assert!(o.clean(), "control run dirty: {o:?}");
        assert!(o.records_copied > 0);
        assert!(o.ownership_events >= 3, "missing ownership claims");
    }

    #[test]
    fn faulted_seed_conserves_and_stays_single_owner() {
        let cfg = RebalanceCampaignConfig::default();
        let o = run_rebalance_seed(&cfg, 11);
        assert!(o.faults_injected >= 4, "nemesis injected too little");
        assert!(o.clean(), "faulted run dirty: {o:?}");
        assert!(o.records_copied > 0);
    }

    #[test]
    fn campaign_json_is_deterministic() {
        let cfg = RebalanceCampaignConfig {
            seeds: vec![3],
            ..RebalanceCampaignConfig::default()
        };
        let a = run_rebalance_campaign(&cfg).to_json().to_pretty_string();
        let b = run_rebalance_campaign(&cfg).to_json().to_pretty_string();
        assert_eq!(a, b, "same seed must produce identical bytes");
    }
}

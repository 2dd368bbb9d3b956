//! Randomized fault campaigns: N seeds × M faults of a contended counter
//! workload under the nemesis, audited for conservation and checked for
//! serializability, with byte-stable JSON summaries.
//!
//! Each seed runs in its own simulation: boot a traced MILANA cluster,
//! seed counters, run read-modify-write clients continuously, walk a
//! random [`FaultPlan`], force-heal, then audit (every acknowledged
//! increment survives, no phantom increments) and run the
//! [`Checker`](crate::history::Checker) over the recorded trace. All along,
//! a chain audit holds every serving backup to its applied watermark (see
//! `CounterRun::watch_chains`), so an acked version a replica lost counts
//! even if no reader ever reaches it.

use std::collections::BTreeMap;
use std::time::Duration;

use flashsim::Key;
use milana::client::TxnOpts;
use milana::Fraud;
use obskit::Json;
use rand::Rng;

use crate::counter::{cause, report_json, violations_json, Audit, CounterRun, Worker};
use crate::nemesis::run_nemesis;
use crate::plan::{PlanKind, PlanShape};

/// Admission capacity (cost units) per server. Sized so the steady counter
/// workload never sheds but nemesis overload bursts do.
const ADMISSION_CAPACITY: u64 = 32;

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Seeds to run, one simulation each.
    pub seeds: Vec<u64>,
    /// Faults per seed.
    pub faults: usize,
    /// Shards in each cluster.
    pub shards: u32,
    /// Replicas per shard (odd).
    pub replicas: u32,
    /// Workload clients.
    pub clients: u32,
    /// Contended counter keys.
    pub keys: u64,
    /// Trace ring capacity (events). `0` auto-sizes from the fault count:
    /// a 2-shard, 4-client workload produces roughly 3k trace events per
    /// scheduled fault, and a ring that overflows truncates the history,
    /// which disables every provenance-based check (see
    /// [`crate::history`]). Auto-sizing keeps ~2.5x headroom over that.
    pub trace_capacity: usize,
    /// Seeded-bug mode: every replica misbehaves this way, so the checker
    /// has a real bug to catch (see [`Fraud`]).
    pub fraud: Fraud,
    /// Which fault classes the seeded plan draws from.
    pub plan: PlanKind,
    /// Server-side clock-health tracking: primaries estimate each client's
    /// timestamp-vs-arrival residual, refuse prepares outside the
    /// uncertainty window, and fence persistent outliers. `None` leaves
    /// the fence off (the historical behavior).
    pub clock_health: Option<clockkit::ClockHealthConfig>,
    /// Promised clock uncertainty handed to the checker
    /// ([`Checker::with_epsilon`]); `None` skips the clock-bound check.
    pub clock_epsilon_ns: Option<u64>,
    /// Backup snapshot reads: clients route reads power-of-two across
    /// backups and primaries gossip watermark floors, so the campaign
    /// exercises the `stale_backup_read` invariant under faults. Off by
    /// default (primary-only reads, the historical behavior).
    pub backup_reads: bool,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            seeds: vec![0],
            faults: 20,
            shards: 1,
            replicas: 3,
            clients: 4,
            keys: 8,
            trace_capacity: 0,
            fraud: Fraud::None,
            plan: PlanKind::Mixed,
            clock_health: None,
            clock_epsilon_ns: None,
            backup_reads: false,
        }
    }
}

/// One invariant violation, summarized for reporting.
#[derive(Debug, Clone)]
pub struct ViolationSummary {
    /// Violation class name.
    pub class: &'static str,
    /// Description (offending transactions inline).
    pub description: String,
    /// The minimal trace slice around the involved transactions (JSONL).
    pub trace_slice: String,
}

/// Everything one seed produced.
#[derive(Debug, Clone)]
pub struct SeedOutcome {
    /// The seed.
    pub seed: u64,
    /// The audit transaction: acked commits, the counter sum it read, and
    /// how many attempts it took.
    pub audit: Audit,
    /// Committed / aborted / unknown transactions in the trace history.
    pub committed: u64,
    /// Aborted transactions in the trace history.
    pub aborted: u64,
    /// Unknown-outcome transactions in the trace history.
    pub unknown: u64,
    /// Faults applied per class (class -> (attempted, ok)).
    pub fault_counts: BTreeMap<&'static str, (u64, u64)>,
    /// Promotions that failed and were retried by the finale.
    pub(crate) promote_failures: u64,
    /// Messages dropped / duplicated / delay-spiked by injection.
    pub(crate) net_dropped: u64,
    /// Messages duplicated by injection.
    pub(crate) net_duplicated: u64,
    /// Messages delay-spiked by injection.
    pub(crate) net_delay_spiked: u64,
    /// Requests refused by server admission gates (overload + deadline),
    /// summed over every replica.
    pub server_sheds: u64,
    /// Retry tokens spent by workload clients.
    pub(crate) client_retries: u64,
    /// Snapshot reads served by backup replicas (backup-reads mode).
    pub replica_reads: u64,
    /// Prepares refused as clock-suspect, summed over every replica.
    pub(crate) clock_suspects: u64,
    /// Clients currently fenced for clock misbehavior at run end (max
    /// over replicas — each primary tracks its own view).
    pub(crate) clock_fences: u64,
    /// Trace-ring evictions (non-zero = visibility checks were skipped).
    pub trace_dropped: u64,
    /// True when the audit conserved every acknowledged increment.
    pub conservation_ok: bool,
    /// Checker violations.
    pub violations: Vec<ViolationSummary>,
}

impl SeedOutcome {
    /// True when the seed finished with no violations and conservation
    /// intact.
    pub fn clean(&self) -> bool {
        self.conservation_ok && self.violations.is_empty()
    }
}

/// A whole campaign's outcomes.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    /// Per-seed outcomes, in seed order.
    pub outcomes: Vec<SeedOutcome>,
}

impl CampaignReport {
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

    /// Why the first seed that is not clean failed (see [`Audit`]'s
    /// checks), or `None` when every seed is clean.
    pub fn first_failure(&self) -> Option<String> {
        self.outcomes
            .iter()
            .find_map(|o| cause(o.seed, &o.audit, o.conservation_ok, &o.violations))
    }

    /// Deterministic JSON document (stable field order, no floats).
    pub fn to_json(&self) -> Json {
        let mut seeds = Vec::new();
        for o in &self.outcomes {
            let mut faults = Json::obj();
            for (class, &(attempted, ok)) in &o.fault_counts {
                faults = faults.field(
                    class,
                    Json::obj()
                        .field("attempted", Json::U64(attempted))
                        .field("ok", Json::U64(ok)),
                );
            }
            seeds.push(
                Json::obj()
                    .field("seed", Json::U64(o.seed))
                    .field("acked", Json::U64(o.audit.acked))
                    .field("audit_total", Json::U64(o.audit.total.unwrap_or(0)))
                    .field("unknowns", Json::U64(o.audit.unknowns))
                    .field("committed", Json::U64(o.committed))
                    .field("aborted", Json::U64(o.aborted))
                    .field("unknown", Json::U64(o.unknown))
                    .field("faults", faults)
                    .field("promote_failures", Json::U64(o.promote_failures))
                    .field("net_dropped", Json::U64(o.net_dropped))
                    .field("net_duplicated", Json::U64(o.net_duplicated))
                    .field("net_delay_spiked", Json::U64(o.net_delay_spiked))
                    .field("server_sheds", Json::U64(o.server_sheds))
                    .field("client_retries", Json::U64(o.client_retries))
                    .field("replica_reads", Json::U64(o.replica_reads))
                    .field("clock_suspects", Json::U64(o.clock_suspects))
                    .field("clock_fences", Json::U64(o.clock_fences))
                    .field("trace_dropped", Json::U64(o.trace_dropped))
                    .field("conservation_ok", Json::Bool(o.conservation_ok))
                    .field("violations", violations_json(&o.violations)),
            );
        }
        report_json(seeds, self.violation_count())
    }
}

/// One read-only sum over every counter, after `dwell` in the snapshot.
async fn scan(w: &Worker, dwell: Option<Duration>) {
    let mut t = w.c.begin_with(TxnOpts::default());
    if let Some(dwell) = dwell {
        w.h.sleep(dwell).await;
    }
    for k in 0..w.keys {
        if t.get(&Key::from(k)).await.is_err() {
            w.h.sleep(Duration::from_millis(2)).await;
            return;
        }
    }
    let _ = t.commit().await;
}

/// Runs one seed to completion and returns its outcome.
pub(crate) fn run_seed(cfg: &CampaignConfig, seed: u64) -> SeedOutcome {
    run_seed_with_trace(cfg, seed).0
}

/// Like [`run_seed`], but also returns the seed's full trace as JSONL
/// (for `repro chaos --trace`).
pub fn run_seed_with_trace(cfg: &CampaignConfig, seed: u64) -> (SeedOutcome, String) {
    let capacity = if cfg.trace_capacity == 0 {
        cfg.faults.saturating_mul(8192).max(1 << 18)
    } else {
        cfg.trace_capacity
    };
    let shape = PlanShape {
        shards: cfg.shards,
        replicas: cfg.replicas,
        clients: cfg.clients,
    };
    let mut run = CounterRun::boot(seed, shape, cfg.keys, capacity, |cluster_cfg| {
        let tuning = &mut cluster_cfg.tuning;
        tuning.fraud.set(cfg.fraud);
        tuning.clock_health = cfg.clock_health.clone();
        tuning.admission.capacity = ADMISSION_CAPACITY;
        if cfg.backup_reads {
            cluster_cfg.client_cfg.read_route = readkit::ReadRoute::PowerOfTwo;
            // Fast floor propagation: idle-tick reports every 2ms (a client
            // dwelling in a scan still pushes its write floor forward) and
            // backup gossip so floors advance between replication flushes.
            cluster_cfg.client_cfg.watermark_interval = Duration::from_millis(2);
            tuning.gossip_every = Some(Duration::from_millis(5));
        }
    });

    // Continuous contended workload: read-modify-write increments with an
    // occasional read-only sum, one transaction at a time per client.
    // Backup-reads mode: scans dwell like analytics readers, long enough
    // for the gossiped floor to pass their `ts_begin` — the window in
    // which backups may (and must, correctly) serve their reads.
    let scan_dwell = cfg.backup_reads.then(|| Duration::from_millis(5));
    run.watch_chains();
    for w in run.workers() {
        run.h.spawn(async move {
            let mut rng = w.h.fork_rng();
            while !w.stopped() {
                if rng.gen::<f64>() < 0.2 {
                    scan(&w, scan_dwell).await;
                } else {
                    w.increment(&mut rng).await;
                }
            }
        });
    }

    // The nemesis walks the plan, then force-heals.
    let plan = cfg.plan.generate(seed, cfg.faults, shape);
    let report = {
        let (hh, cluster) = (run.h.clone(), run.cluster.clone());
        run.sim
            .block_on(async move { run_nemesis(&hh, &cluster, &plan).await })
    };

    let audit = run.audit(Duration::from_millis(80));
    // With validation or durability disabled the workload genuinely loses
    // updates, so conservation is only meaningful in correct mode (the
    // seeded bugs are the *checker's* to catch).
    let loses_updates = matches!(cfg.fraud, Fraud::SkipValidation | Fraud::SkipDurability);
    let conservation_ok = audit.total.is_some() && (loses_updates || audit.conserved());

    let mut fault_counts: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for f in &report.applied {
        let e = fault_counts.entry(f.class).or_insert((0, 0));
        e.0 += 1;
        if f.ok {
            e.1 += 1;
        }
    }
    let net = run.h.net_stats();
    let (obs, cluster) = (&run.obs, run.cluster.borrow());

    let mut server_sheds = 0;
    let mut clock_suspects = 0u64;
    let mut clock_fences = 0u64;
    for slot in cluster.replicas.iter().flatten() {
        let node = slot.addr.node.0;
        server_sheds += obs
            .registry
            .counter(&format!("loadkit.node{node}.sheds_overload"))
            .get()
            + obs
                .registry
                .counter(&format!("loadkit.node{node}.sheds_deadline"))
                .get();
        let s = slot.server.stats();
        clock_suspects += s.clock_suspects;
        clock_fences = clock_fences.max(s.clock_fences);
    }
    let mut client_retries = 0;
    let mut replica_reads = 0;
    for c in &cluster.clients {
        client_retries += obs
            .registry
            .counter(&format!("loadkit.client{}.retries", c.id().0))
            .get();
        replica_reads += c.stats().replica_reads;
    }

    let (history, mut violations) = run.check(cfg.clock_epsilon_ns);
    violations.extend(run.replica_audit(&history));
    let outcome = SeedOutcome {
        seed,
        audit,
        committed: history.committed() as u64,
        aborted: history.aborted() as u64,
        unknown: history.unknown() as u64,
        fault_counts,
        promote_failures: report.promote_failures,
        net_dropped: net.dropped,
        net_duplicated: net.duplicated,
        net_delay_spiked: net.delay_spiked,
        server_sheds,
        client_retries,
        replica_reads,
        clock_suspects,
        clock_fences,
        trace_dropped: obs.tracer.dropped(),
        conservation_ok,
        violations,
    };
    (outcome, obs.tracer.dump_jsonl())
}

/// Runs every seed in `cfg` and collects the outcomes. Seeds run on the
/// `perfkit` worker pool (one sim per seed, each fully independent);
/// outcomes come back in seed order, so the report is identical to a
/// serial campaign's.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let outcomes = perfkit::pool::run_ordered_auto(cfg.seeds.clone(), |s| run_seed(cfg, s));
    CampaignReport { outcomes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaign_is_clean_and_deterministic() {
        let cfg = CampaignConfig {
            seeds: vec![7],
            faults: 8,
            ..CampaignConfig::default()
        };
        let a = run_campaign(&cfg);
        let b = run_campaign(&cfg);
        assert_eq!(a.to_json().to_string(), b.to_json().to_string());
        assert_eq!(a.violation_count(), 0, "{:?}", a.outcomes[0].violations);
        let o = &a.outcomes[0];
        assert!(o.conservation_ok, "audit failed: {o:?}");
        assert!(o.audit.acked > 0, "workload made no progress");
        assert!(o.committed > 0, "trace recorded no commits");
    }

    #[test]
    fn backup_reads_campaign_is_clean_under_faults() {
        // Route snapshot reads across backups while crashing primaries,
        // partitioning nodes and stepping clocks: the `stale_backup_read`
        // invariant (and every other check) must stay clean.
        let cfg = CampaignConfig {
            seeds: vec![11],
            faults: 8,
            backup_reads: true,
            ..CampaignConfig::default()
        };
        let a = run_campaign(&cfg);
        let b = run_campaign(&cfg);
        assert_eq!(a.to_json().to_string(), b.to_json().to_string());
        assert_eq!(a.violation_count(), 0, "{:?}", a.outcomes[0].violations);
        let o = &a.outcomes[0];
        assert!(o.conservation_ok, "audit failed: {o:?}");
        assert!(o.audit.acked > 0, "workload made no progress");
        assert!(
            o.replica_reads > 0,
            "backup-reads campaign never exercised a replica read: {o:?}"
        );
    }

    #[test]
    fn powerfail_campaign_is_clean_and_deterministic() {
        // Interleave power failures (cold restarts: flash mount scan +
        // anti-entropy catch-up) with warm crashes and partitions while
        // backups serve snapshot reads: every durability invariant
        // (`lost_acked_write`, `stale_backup_read`, conservation) must
        // hold, and the run must be byte-stable.
        let cfg = CampaignConfig {
            seeds: vec![5],
            faults: 8,
            // Wide enough that not every key is rewritten within a
            // recovery window: a skipped catch-up would leave observable
            // holes (see `durability_skip_is_caught_by_the_checker`, the
            // seeded-fraud twin of this test).
            keys: 16,
            backup_reads: true,
            plan: PlanKind::PowerFail,
            ..CampaignConfig::default()
        };
        let a = run_campaign(&cfg);
        let b = run_campaign(&cfg);
        assert_eq!(a.to_json().to_string(), b.to_json().to_string());
        assert_eq!(a.violation_count(), 0, "{:?}", a.outcomes[0].violations);
        let o = &a.outcomes[0];
        assert!(o.conservation_ok, "audit failed: {o:?}");
        assert!(o.audit.acked > 0, "workload made no progress");
        assert!(
            o.fault_counts.contains_key("power_fail"),
            "plan never power-failed a primary: {:?}",
            o.fault_counts
        );
    }

    #[test]
    fn durability_skip_is_caught_by_the_checker() {
        // Seeded durability fraud: cold-restarting replicas adopt the
        // mounted floor as their applied watermark, splice blindly into
        // the live floor stream, and serve immediately without
        // anti-entropy catch-up. Acked writes still in volatile flash
        // queues at the power failure (and everything committed during
        // the outage that retries don't redeliver) vanish from the
        // replica, and the checker must flag the loss. Same seed, shape,
        // and keyspace as `powerfail_campaign_is_clean_and_deterministic`
        // — the only difference is the skipped recovery protocol. A lost
        // version need not be read to count: the chain audit
        // (`CounterRun::watch_chains`) holds every backup's chains to its
        // applied watermark while the workload runs.
        let cfg = CampaignConfig {
            seeds: vec![5],
            faults: 8,
            keys: 16,
            backup_reads: true,
            plan: PlanKind::PowerFail,
            fraud: Fraud::SkipDurability,
            ..CampaignConfig::default()
        };
        let report = run_campaign(&cfg);
        let o = &report.outcomes[0];
        assert!(
            o.violations.iter().any(|v| v.class == "lost_acked_write"),
            "checker missed the seeded durability bug: {:?}",
            o.violations
        );
        // The offending slice names the involved transactions.
        let v = o
            .violations
            .iter()
            .find(|v| v.class == "lost_acked_write")
            .expect("lost_acked_write violation");
        assert!(!v.trace_slice.is_empty());
    }

    /// Shared shape for the clock-fault twins: tight uncertainty window
    /// (1 ms ceiling) so the ±multi-ms steps and jumps the plan injects
    /// are decidedly out of bounds, with the checker holding the cluster
    /// to exactly the ε the fence promises.
    fn clockfault_cfg() -> CampaignConfig {
        let health = clockkit::ClockHealthConfig {
            max_future_ns: 1_000_000,
        };
        let eps = health.promised_epsilon_ns();
        CampaignConfig {
            seeds: vec![17],
            faults: 10,
            plan: PlanKind::ClockFault,
            clock_health: Some(health),
            clock_epsilon_ns: Some(eps),
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn clockfault_campaign_is_clean_and_deterministic() {
        // Steps, drifts, and holdover jumps against client clocks with the
        // clock-health fence on: suspect prepares are refused (definite
        // no-votes), so no mis-timestamped commit exists and the history
        // honors the promised ε. Byte-stable across runs.
        let cfg = clockfault_cfg();
        let a = run_campaign(&cfg);
        let b = run_campaign(&cfg);
        assert_eq!(a.to_json().to_string(), b.to_json().to_string());
        assert_eq!(a.violation_count(), 0, "{:?}", a.outcomes[0].violations);
        let o = &a.outcomes[0];
        assert!(o.conservation_ok, "audit failed: {o:?}");
        assert!(o.audit.acked > 0, "workload made no progress");
        assert!(
            o.clock_suspects > 0,
            "plan never tripped the clock-health fence: {o:?}"
        );
    }

    #[test]
    fn uncertainty_skip_is_caught_by_the_checker() {
        // Seeded clock fraud: the same plan, health tracking, and promise,
        // but primaries ignore the verdict — prepares carrying bogus
        // timestamps sail through validation. A commit minted multi-ms off
        // true time inverts against real-time order by more than 2ε, and
        // the checker must flag the breach.
        let cfg = CampaignConfig {
            fraud: Fraud::SkipUncertainty,
            ..clockfault_cfg()
        };
        let report = run_campaign(&cfg);
        let o = &report.outcomes[0];
        assert!(
            o.violations.iter().any(|v| v.class == "clock_bound_breach"),
            "checker missed the seeded clock bug: {:?}",
            o.violations
        );
        let v = o
            .violations
            .iter()
            .find(|v| v.class == "clock_bound_breach")
            .expect("clock_bound_breach violation");
        assert!(!v.trace_slice.is_empty());
    }

    #[test]
    fn seeded_validation_bug_is_caught_by_the_checker() {
        // Disable Algorithm-1 validation on every primary and hammer one
        // key: lost updates become inevitable, and the checker must flag
        // a serializability cycle.
        let cfg = CampaignConfig {
            seeds: vec![3],
            faults: 0,
            clients: 4,
            keys: 1,
            fraud: Fraud::SkipValidation,
            ..CampaignConfig::default()
        };
        let report = run_campaign(&cfg);
        let o = &report.outcomes[0];
        assert!(
            o.violations
                .iter()
                .any(|v| v.class == "serializability_cycle"),
            "checker missed the seeded bug: {:?}",
            o.violations
        );
        // The offending slice names the transactions involved.
        let v = o
            .violations
            .iter()
            .find(|v| v.class == "serializability_cycle")
            .expect("cycle violation");
        assert!(!v.trace_slice.is_empty());
    }
}

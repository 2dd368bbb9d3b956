//! The contended counter workload under both campaign families
//! ([`crate::campaign`] and [`crate::rebalance`]): a traced MILANA cluster
//! on small flash, `keys` counters seeded to zero, read-modify-write
//! increment clients — and, once the caller's faults are over, settle →
//! stop → drain, one audit transaction, the conservation bound and the
//! history check. What a family adds (its fault source, read-only scans,
//! fraud exemptions) stays at its call site.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

use flashsim::{value, Key, NandConfig, Value};
use milana::client::{TxnClient, TxnOpts};
use milana::cluster::{MilanaCluster, MilanaClusterConfig};
use milana::msg::TxnError;
use obskit::{Json, Obs, RecoveryPhase};
use rand::rngs::StdRng;
use rand::Rng;
use simkit::{Sim, SimHandle};

use crate::campaign::ViolationSummary;
use crate::history::{Checker, History, Outcome, ViolationClass};
use crate::plan::PlanShape;

fn enc(n: u64) -> Value {
    value(Vec::from(n.to_be_bytes()))
}

/// Decodes a counter; `None` for a value too short to be one (a key read
/// mid-failover before its seeding commit reached this replica).
fn dec(v: &[u8]) -> Option<u64> {
    Some(u64::from_be_bytes(v.get(..8)?.try_into().ok()?))
}

/// One seed's simulation: the cluster, its trace, and the workload's
/// shared counters.
pub(crate) struct CounterRun {
    pub(crate) sim: Sim,
    pub(crate) h: SimHandle,
    pub(crate) obs: Obs,
    pub(crate) cluster: Rc<RefCell<MilanaCluster>>,
    keys: u64,
    acked: Rc<Cell<u64>>,
    stop: Rc<Cell<bool>>,
    /// What [`CounterRun::watch_chains`] saw, each gap with the instant it
    /// was first seen.
    gaps: Rc<RefCell<BTreeMap<Gap, u64>>>,
}

/// The fewest attempts [`CounterRun::audit`] makes before it gives up.
const AUDIT_ATTEMPTS: u64 = 500;

/// How often [`CounterRun::watch_chains`] samples the replicas' chains.
const CHAIN_AUDIT_EVERY: Duration = Duration::from_micros(500);

/// One workload client's view of the run, moved into its task.
pub(crate) struct Worker {
    pub(crate) c: TxnClient,
    pub(crate) h: SimHandle,
    pub(crate) keys: u64,
    acked: Rc<Cell<u64>>,
    stop: Rc<Cell<bool>>,
}

impl Worker {
    /// True once [`CounterRun::audit`] told the workload to stop.
    pub(crate) fn stopped(&self) -> bool {
        self.stop.get()
    }

    /// One read-modify-write increment of a random counter, counted as
    /// acked when its commit is. Any abort (conflict, `StaleEpoch`, fence)
    /// is just an unacked attempt the caller's loop retries.
    pub(crate) async fn increment(&self, rng: &mut StdRng) {
        let mut t = self.c.begin_with(TxnOpts::default());
        let k = Key::from(rng.gen_range(0..self.keys));
        let Some(n) = t.get(&k).await.ok().and_then(|v| dec(&v)) else {
            // Primary mid-failover; back off briefly.
            self.h.sleep(Duration::from_millis(2)).await;
            return;
        };
        t.put(k, enc(n + 1));
        if t.commit().await.is_ok() {
            self.acked.set(self.acked.get() + 1);
        }
    }
}

/// What the audit transaction found.
#[derive(Debug, Clone)]
pub struct Audit {
    /// Commits acknowledged to workload clients.
    pub acked: u64,
    /// Final counter sum; `None` when the audit never committed.
    pub total: Option<u64>,
    /// Unknown-outcome attempts reported by clients.
    pub unknowns: u64,
    /// Workload clients.
    pub(crate) clients: u64,
    /// Attempts the audit transaction made, the committing one included.
    pub(crate) attempts: u64,
    /// Why the last attempt failed, when the audit gave up: an abort
    /// class such as `clock_suspect`, or `timeout`.
    pub(crate) gave_up: Option<&'static str>,
}

impl Audit {
    /// Every acknowledged increment survived and nothing appeared out of
    /// thin air: `acked ≤ total ≤ acked + unknowns + clients` (CTP may
    /// commit unknown-outcome attempts; each client can have one
    /// transaction in flight at stop).
    pub(crate) fn conserved(&self) -> bool {
        self.total
            .is_some_and(|t| t >= self.acked && t <= self.acked + self.unknowns + self.clients)
    }
}

/// Why a seed is not clean, or `None` when it is, for a campaign line: the
/// first check it failed, in the order the run makes them. The audit
/// transaction that never committed, with its attempts and last failure;
/// the conservation bound (`conserved` is the campaign's verdict on it),
/// with both of its sides; the checker's violations.
pub(crate) fn cause(
    seed: u64,
    audit: &Audit,
    conserved: bool,
    violations: &[ViolationSummary],
) -> Option<String> {
    let why = match (audit.total, violations.first()) {
        (None, _) => format!(
            "audit did not commit ({} attempts, last {})",
            audit.attempts,
            audit.gave_up.unwrap_or("unknown")
        ),
        (Some(total), _) if !conserved => format!(
            "audit total {total} outside [acked {}, {} = acked + {} unknown + {} clients]",
            audit.acked,
            audit.acked + audit.unknowns + audit.clients,
            audit.unknowns,
            audit.clients
        ),
        (Some(_), Some(v)) => format!("{} violation(s), first {}", violations.len(), v.class),
        (Some(_), None) => return None,
    };
    Some(format!("seed {seed}: {why}"))
}

/// What a failed audit attempt ran into.
fn failure(e: &TxnError) -> &'static str {
    match e {
        TxnError::Aborted(reason) => reason.class().as_str(),
        TxnError::KeyNotFound(_) => "key_not_found",
        TxnError::Timeout => "timeout",
        TxnError::Finished => "finished",
    }
}

impl CounterRun {
    /// Boots a traced `shape` cluster on 512-block flash — `tune` adjusts
    /// its config first — and seeds counters `0..keys` to zero.
    pub(crate) fn boot(
        seed: u64,
        shape: PlanShape,
        keys: u64,
        trace_capacity: usize,
        tune: impl FnOnce(&mut MilanaClusterConfig),
    ) -> CounterRun {
        let mut sim = Sim::new(seed);
        let h = sim.handle();
        let obs = Obs::with_trace(trace_capacity);
        let mut cluster_cfg = MilanaClusterConfig {
            shards: shape.shards,
            replicas: shape.replicas,
            clients: shape.clients,
            nand: NandConfig {
                blocks: 512,
                pages_per_block: 8,
                ..NandConfig::default()
            },
            ..MilanaClusterConfig::default()
        };
        cluster_cfg.tuning.obs = obs.clone();
        tune(&mut cluster_cfg);
        let cluster = MilanaCluster::build(&h, cluster_cfg);

        let seeder = cluster.clients[0].clone();
        let hh = h.clone();
        sim.block_on(async move {
            let mut t = seeder.begin_with(TxnOpts::default());
            for k in 0..keys {
                t.put(Key::from(k), enc(0));
            }
            t.commit().await.expect("seeding commit");
            hh.sleep(Duration::from_millis(5)).await;
        });
        CounterRun {
            sim,
            h,
            obs,
            cluster: Rc::new(RefCell::new(cluster)),
            keys,
            acked: Rc::new(Cell::new(0)),
            stop: Rc::new(Cell::new(false)),
            gaps: Rc::default(),
        }
    }

    /// One [`Worker`] per workload client, for the caller to spawn its
    /// loop on.
    pub(crate) fn workers(&self) -> Vec<Worker> {
        let clients = self.cluster.borrow().clients.clone();
        clients
            .into_iter()
            .map(|c| Worker {
                c,
                h: self.h.clone(),
                keys: self.keys,
                acked: self.acked.clone(),
                stop: self.stop.clone(),
            })
            .collect()
    }

    /// Lets the cluster settle for `settle`, stops the workload, drains
    /// in-flight transactions, then reads every counter in one audit
    /// transaction, retried until it commits (the caller has left every
    /// shard with a serving primary) or has failed `AUDIT_ATTEMPTS` times
    /// and for one resync interval of the auditor's clock.
    pub(crate) fn audit(&mut self, settle: Duration) -> Audit {
        let (hh, stop) = (self.h.clone(), self.stop.clone());
        self.sim.block_on(async move {
            hh.sleep(settle).await;
            stop.set(true);
            hh.sleep(Duration::from_millis(60)).await;
        });

        let clients = self.cluster.borrow().clients.clone();
        let (hh, keys, auditor) = (self.h.clone(), self.keys, clients[0].clone());
        // A clock fault on the auditor's clock lasts until its next resync,
        // and until then the servers' clock-health check may refuse its
        // reads: retry for at least one resync interval from the first
        // attempt, and at least `AUDIT_ATTEMPTS` times.
        let deadline = hh.now() + auditor.clock().discipline().sync_interval();
        let (total, attempts, gave_up) = self.sim.block_on(async move {
            let mut attempt = 0;
            loop {
                attempt += 1;
                let mut t = auditor.begin_with(TxnOpts::default());
                let sum = async {
                    let mut sum = 0u64;
                    for k in 0..keys {
                        let v = t.get(&Key::from(k)).await.map_err(|e| failure(&e))?;
                        sum += dec(&v).ok_or("undecodable")?;
                    }
                    Ok(sum)
                }
                .await;
                let last = match sum {
                    Ok(sum) => match t.commit().await {
                        Ok(_) => return (Some(sum), attempt, None),
                        Err(e) => failure(&e),
                    },
                    Err(e) => e,
                };
                // A `PreparedRead` abort only clears once CTP resolves the
                // stuck prepare (up to `CTP_AFTER` + a scan period away), so
                // back off instead of burning attempts in a tight loop.
                hh.sleep(Duration::from_millis(2)).await;
                if attempt >= AUDIT_ATTEMPTS && hh.now() >= deadline {
                    return (None, attempt, Some(last));
                }
            }
        });

        Audit {
            acked: self.acked.get(),
            total,
            unknowns: clients.iter().map(|c| c.stats().unknown).sum(),
            clients: clients.len() as u64,
            attempts,
            gave_up,
        }
    }

    /// Rebuilds the history from the trace and runs the checker over it,
    /// holding commits to `epsilon_ns` of clock uncertainty when given.
    /// Only the first violation of each class carries a trace slice (each
    /// slice scans the whole trace); the others leave it empty.
    pub(crate) fn check(&self, epsilon_ns: Option<u64>) -> (History, Vec<ViolationSummary>) {
        let history = History::from_events(self.obs.tracer.events(), self.obs.tracer.dropped());
        let mut checker = Checker::new(&history);
        if let Some(eps) = epsilon_ns {
            checker = checker.with_epsilon(eps);
        }
        let mut sliced: Vec<ViolationClass> = Vec::new();
        let violations = checker
            .check()
            .into_iter()
            .map(|v| {
                let first = !sliced.contains(&v.class);
                if first {
                    sliced.push(v.class);
                }
                ViolationSummary {
                    class: v.class.as_str(),
                    description: v.description,
                    trace_slice: if first {
                        history.trace_slice(&v.txns)
                    } else {
                        String::new()
                    },
                }
            })
            .collect();
        (history, violations)
    }

    /// Starts the chain audit: until the workload stops, every
    /// [`CHAIN_AUDIT_EVERY`] each serving backup is held to its applied
    /// watermark's promise — every version below the watermark is in its
    /// chains, or still owed by a record in its table (prepared, so a read
    /// is flagged and validated remotely, or committed with the apply in
    /// flight). A version some other live replica of the shard holds below
    /// that watermark, at least as young as the replica's oldest retained
    /// version of the key (older ones a GC watermark may have pruned), and
    /// neither held nor owed, is a gap. [`CounterRun::replica_audit`]
    /// judges the gaps against the history once the trace is complete.
    pub(crate) fn watch_chains(&self) {
        let (h, cluster, stop, gaps) = (
            self.h.clone(),
            self.cluster.clone(),
            self.stop.clone(),
            self.gaps.clone(),
        );
        self.h.spawn(async move {
            while !stop.get() {
                h.sleep(CHAIN_AUDIT_EVERY).await;
                let at = h.now().as_nanos();
                let cluster = cluster.borrow();
                let mut gaps = gaps.borrow_mut();
                for (shard, slots) in cluster.replicas.iter().enumerate() {
                    let live: Vec<_> = slots.iter().filter(|s| !h.is_dead(s.addr.node)).collect();
                    let mut keys: Vec<Key> = live
                        .iter()
                        .flat_map(|s| s.server.backend().keys())
                        .collect();
                    keys.sort();
                    keys.dedup();
                    for r in &live {
                        let server = &r.server;
                        if server.is_primary() || !server.is_serving() {
                            continue;
                        }
                        let table = server.table().borrow();
                        let wm = table.applied_watermark().0;
                        for key in &keys {
                            let mine = server.backend().versions(key);
                            let oldest = mine.last().map_or(0, |v| v.ts.0);
                            for other in live.iter().filter(|o| o.addr != r.addr) {
                                for v in other.server.backend().versions(key) {
                                    if v.ts.0 < wm
                                        && v.ts.0 >= oldest
                                        && !mine.contains(&v)
                                        && !table.owes(v)
                                    {
                                        let gap = Gap {
                                            node: r.addr.node.0 as u64,
                                            shard: shard as u64,
                                            key: key.trace_id(),
                                            ts: v.ts.0,
                                            client: v.client.0 as u64,
                                        };
                                        gaps.entry(gap).or_insert(at);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        });
    }

    /// Judges the gaps [`CounterRun::watch_chains`] saw: a missing version
    /// an acked commit wrote is a lost acked write whether or not a reader
    /// ever reached it — [`ViolationClass::LostAckedWrite`] when the
    /// replica had finished a cold restart before the gap was seen,
    /// [`ViolationClass::ReplicationLostAck`] otherwise. One violation per
    /// replica, naming the oldest missing version's writer.
    pub(crate) fn replica_audit(&self, history: &History) -> Vec<ViolationSummary> {
        let mut lost: BTreeMap<u64, LostAcks> = BTreeMap::new();
        for (g, &at) in self.gaps.borrow().iter() {
            let acked = history
                .producers
                .get(&(g.key, g.ts, g.client))
                .filter(|&&wi| matches!(history.txns[wi].outcome, Outcome::Committed { .. }));
            if let Some(&wi) = acked {
                let e = lost.entry(g.node).or_insert(LostAcks {
                    shard: g.shard,
                    at,
                    versions: Vec::new(),
                });
                e.at = e.at.min(at);
                e.versions.push((g.ts, wi));
            }
        }
        lost.into_iter()
            .map(|(node, acks)| {
                let &(ts, wi) = acks.versions.iter().min().expect("a gap per entry");
                let cold_restarted = history.recovery.iter().any(|rs| {
                    rs.node == node && rs.phase == RecoveryPhase::Serving && rs.at <= acks.at
                });
                let class = if cold_restarted {
                    ViolationClass::LostAckedWrite
                } else {
                    ViolationClass::ReplicationLostAck
                };
                ViolationSummary {
                    class: class.as_str(),
                    description: format!(
                        "replica node {node} (shard {}) lacked {} acked version(s) \
                         below its applied watermark, the oldest at ts {ts} written by \
                         txn #{wi} (client {})",
                        acks.shard,
                        acks.versions.len(),
                        history.txns[wi].client
                    ),
                    trace_slice: history.trace_slice(&[wi]),
                }
            })
            .collect()
    }
}

/// The acked versions one replica lacked, gathered per node by
/// [`CounterRun::replica_audit`].
struct LostAcks {
    shard: u64,
    /// The first instant a gap was seen.
    at: u64,
    /// `(ts, writer)` of each lost ack.
    versions: Vec<(u64, usize)>,
}

/// A version a serving backup lacked below its applied watermark although
/// another live replica of its shard held it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Gap {
    node: u64,
    shard: u64,
    key: u64,
    ts: u64,
    client: u64,
}

/// The `violations` array of one seed's JSON summary.
pub(crate) fn violations_json(violations: &[ViolationSummary]) -> Json {
    Json::arr(violations.iter().map(|v| {
        Json::obj()
            .field("class", Json::str(v.class))
            .field("description", Json::str(&v.description))
    }))
}

/// A campaign report's JSON document around its per-seed summaries.
pub(crate) fn report_json(seeds: Vec<Json>, violations_total: usize) -> Json {
    Json::obj()
        .field("seeds", Json::arr(seeds))
        .field("violations_total", Json::U64(violations_total as u64))
}

#[cfg(test)]
mod tests {
    use super::{cause, Audit};
    use crate::campaign::ViolationSummary;

    fn audit(total: Option<u64>) -> Audit {
        Audit {
            acked: 100,
            total,
            unknowns: 2,
            clients: 3,
            attempts: 1,
            gave_up: None,
        }
    }

    #[test]
    fn a_clean_seed_has_no_cause() {
        let a = audit(Some(101));
        assert!(a.conserved());
        assert_eq!(cause(4, &a, true, &[]), None);
    }

    #[test]
    fn an_audit_that_never_committed_names_its_attempts_and_last_abort() {
        let a = Audit {
            attempts: 500,
            gave_up: Some("clock_suspect"),
            ..audit(None)
        };
        assert!(!a.conserved());
        assert_eq!(
            cause(2, &a, false, &[]).as_deref(),
            Some("seed 2: audit did not commit (500 attempts, last clock_suspect)")
        );
    }

    #[test]
    fn a_broken_bound_names_both_of_its_sides() {
        for total in [99, 106] {
            let a = audit(Some(total));
            assert!(!a.conserved(), "{total}");
            assert_eq!(
                cause(7, &a, a.conserved(), &[]),
                Some(format!(
                    "seed 7: audit total {total} outside \
                     [acked 100, 105 = acked + 2 unknown + 3 clients]"
                ))
            );
        }
    }

    #[test]
    fn a_violation_names_the_first_class_and_the_count() {
        let v = |class| ViolationSummary {
            class,
            description: String::new(),
            trace_slice: String::new(),
        };
        let found = [v("lost_acked_write"), v("stale_backup_read")];
        assert_eq!(
            cause(1, &audit(Some(100)), true, &found).as_deref(),
            Some("seed 1: 2 violation(s), first lost_acked_write")
        );
    }
}

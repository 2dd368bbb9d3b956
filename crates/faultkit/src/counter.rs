//! The contended counter workload under both campaign families
//! ([`crate::campaign`] and [`crate::rebalance`]): a traced MILANA cluster
//! on small flash, `keys` counters seeded to zero, read-modify-write
//! increment clients — and, once the caller's faults are over, settle →
//! stop → drain, one audit transaction, the conservation bound and the
//! history check. What a family adds (its fault source, read-only scans,
//! fraud exemptions) stays at its call site.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use flashsim::{value, Key, NandConfig, Value};
use milana::client::{TxnClient, TxnOpts};
use milana::cluster::{MilanaCluster, MilanaClusterConfig};
use obskit::{Json, Obs};
use rand::rngs::StdRng;
use rand::Rng;
use simkit::{Sim, SimHandle};

use crate::campaign::ViolationSummary;
use crate::history::{Checker, History};
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
    pub sim: Sim,
    pub h: SimHandle,
    pub obs: Obs,
    pub cluster: Rc<RefCell<MilanaCluster>>,
    keys: u64,
    acked: Rc<Cell<u64>>,
    stop: Rc<Cell<bool>>,
}

/// One workload client's view of the run, moved into its task.
pub(crate) struct Worker {
    pub c: TxnClient,
    pub h: SimHandle,
    pub keys: u64,
    acked: Rc<Cell<u64>>,
    stop: Rc<Cell<bool>>,
}

impl Worker {
    /// True once [`CounterRun::audit`] told the workload to stop.
    pub fn stopped(&self) -> bool {
        self.stop.get()
    }

    /// One read-modify-write increment of a random counter, counted as
    /// acked when its commit is. Any abort (conflict, `StaleEpoch`, fence)
    /// is just an unacked attempt the caller's loop retries.
    pub async fn increment(&self, rng: &mut StdRng) {
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
pub(crate) struct Audit {
    /// Commits acknowledged to workload clients.
    pub acked: u64,
    /// Final counter sum; `None` when the audit never committed.
    pub total: Option<u64>,
    /// Unknown-outcome attempts reported by clients.
    pub unknowns: u64,
    /// Every acknowledged increment survived and nothing appeared out of
    /// thin air: `acked ≤ total ≤ acked + unknowns + clients` (CTP may
    /// commit unknown-outcome attempts; each client can have one
    /// transaction in flight at stop).
    pub conserved: bool,
}

impl CounterRun {
    /// Boots a traced `shape` cluster on 512-block flash — `tune` adjusts
    /// its config first — and seeds counters `0..keys` to zero.
    pub fn boot(
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
        }
    }

    /// One [`Worker`] per workload client, for the caller to spawn its
    /// loop on.
    pub fn workers(&self) -> Vec<Worker> {
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
    /// shard with a serving primary).
    pub fn audit(&mut self, settle: Duration) -> Audit {
        let (hh, stop) = (self.h.clone(), self.stop.clone());
        self.sim.block_on(async move {
            hh.sleep(settle).await;
            stop.set(true);
            hh.sleep(Duration::from_millis(60)).await;
        });

        let clients = self.cluster.borrow().clients.clone();
        let n_clients = clients.len() as u64;
        let (hh, keys, auditor) = (self.h.clone(), self.keys, clients[0].clone());
        let total = self.sim.block_on(async move {
            for _ in 0..500 {
                let mut t = auditor.begin_with(TxnOpts::default());
                let sum = async {
                    let mut sum = 0u64;
                    for k in 0..keys {
                        sum += t.get(&Key::from(k)).await.ok().and_then(|v| dec(&v))?;
                    }
                    Some(sum)
                }
                .await;
                if sum.is_some() && t.commit().await.is_ok() {
                    return sum;
                }
                // A `PreparedRead` abort only clears once CTP resolves the
                // stuck prepare (up to `ctp_after` + a scan period away), so
                // back off instead of burning attempts in a tight loop.
                hh.sleep(Duration::from_millis(2)).await;
            }
            None
        });

        let unknowns: u64 = clients.iter().map(|c| c.stats().unknown).sum();
        let acked = self.acked.get();
        Audit {
            acked,
            total,
            unknowns,
            conserved: total.is_some_and(|t| t >= acked && t <= acked + unknowns + n_clients),
        }
    }

    /// Rebuilds the history from the trace and runs the checker over it,
    /// holding commits to `epsilon_ns` of clock uncertainty when given.
    pub fn check(&self, epsilon_ns: Option<u64>) -> (History, Vec<ViolationSummary>) {
        let history = History::from_events(self.obs.tracer.events(), self.obs.tracer.dropped());
        let mut checker = Checker::new(&history);
        if let Some(eps) = epsilon_ns {
            checker = checker.with_epsilon(eps);
        }
        let violations = checker
            .check()
            .into_iter()
            .map(|v| ViolationSummary {
                class: v.class.as_str(),
                description: v.description,
                trace_slice: history.trace_slice(&v.txns),
            })
            .collect();
        (history, violations)
    }
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

//! recoverkit — cold-restart recovery harness for the MILANA reproduction.
//!
//! Drives the durable recovery path end to end inside one simulation:
//! preload a store, run a live workload, power-fail a replica (tearing the
//! flash backend's volatile state — open page buffers and RAM queues are
//! lost, the in-flight program becomes a torn page), keep committing while
//! it is down, then cold-restart it and measure the recovery timeline:
//!
//! - **mount**: the OOB scan that rebuilds the mapping table and version
//!   chains from flash alone, discarding torn pages
//!   ([`flashsim::Backend::mount`]);
//! - **catch-up**: the cursored anti-entropy sweep of the current primary
//!   that recovers every commit acknowledged during the outage;
//! - **MTTR**: restart to the replica's `Serving` transition.
//!
//! Every trial ends with a durability audit: the last value acknowledged
//! for each workload key must be readable from the recovered replica's
//! backend. [`RecoverySpec::fraud`] passes milana's seeded fraud hook
//! through ([`Fraud::SkipDurability`]: adopt the mounted state, skip
//! catch-up) so callers can prove the audit actually detects lost acked
//! writes — `repro recovery --inject durability-skip` fails if it does not.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

use flashsim::{value, BackendKind, Key, NandConfig, Value};
use milana::client::TxnOpts;
use milana::cluster::{MilanaCluster, MilanaClusterConfig};
use milana::Fraud;
use obskit::{Json, Obs, RecoveryPhase, TraceEvent};
use semel::shard::ShardId;
use simkit::Sim;
use timesync::ClockSpec;

#[cfg(test)]
mod tests;

/// Parameters for one cold-restart recovery trial.
#[derive(Debug, Clone)]
pub struct RecoverySpec {
    /// Simulation seed.
    pub seed: u64,
    /// Keys preloaded before the workload starts. The mount scan walks
    /// every programmed page, so this is the store-size axis of the
    /// MTTR-vs-size sweep.
    pub store_keys: u64,
    /// Preloaded value size in bytes.
    pub value_size: usize,
    /// Storage backend under test.
    pub backend: BackendKind,
    /// Replicas per shard (odd).
    pub replicas: u32,
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
    /// Fraud hook: under [`Fraud::SkipDurability`] the cold restart adopts
    /// the mounted state as-is and skips catch-up. The trial's durability
    /// audit must then report `lost_writes > 0`.
    pub fraud: Fraud,
}

impl Default for RecoverySpec {
    fn default() -> RecoverySpec {
        RecoverySpec {
            seed: 0,
            store_keys: 2_000,
            value_size: 128,
            backend: BackendKind::Mftl,
            replicas: 3,
            clients: 2,
            hot_keys: 32,
            warm_commits: 64,
            outage_commits: 64,
            catchup_batch: 64,
            mount_scan_rate: 100_000,
            fraud: Fraud::None,
        }
    }
}

/// Everything one recovery trial measured.
#[derive(Debug, Clone)]
pub struct RecoveryTrial {
    /// The seed.
    pub seed: u64,
    /// Preloaded store size (keys).
    pub store_keys: u64,
    /// Commits acknowledged across the whole trial.
    pub acked: u64,
    /// Commits acknowledged during the outage window.
    pub outage_acked: u64,
    /// Mount-scan duration (`MountStart` → `MountDone`), nanoseconds of
    /// simulated time.
    pub mount_ns: u64,
    /// Catch-up duration (`MountDone` → `Serving`), nanoseconds.
    pub catchup_ns: u64,
    /// Restart → `Serving`: mean time to recovery, nanoseconds.
    pub mttr_ns: u64,
    /// Torn pages the mount scan discarded.
    pub torn_pages: u64,
    /// Keys the anti-entropy sweep applied.
    pub catchup_keys: u64,
    /// Acked writes whose last value is missing from the recovered
    /// replica's backend. Zero on every honest run; the durability fraud
    /// ([`Fraud::SkipDurability`]) must make this positive.
    pub lost_writes: u64,
}

impl RecoveryTrial {
    /// True when every acknowledged write survived the cold restart.
    pub fn clean(&self) -> bool {
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

fn enc(n: u64) -> Value {
    value(Vec::from(n.to_be_bytes()))
}

fn dec(v: &[u8]) -> u64 {
    if v.len() < 8 {
        return 0;
    }
    let mut b = [0u8; 8];
    b.copy_from_slice(&v[..8]);
    u64::from_be_bytes(b)
}

/// Builds the cluster config a trial (or a test) runs on.
fn cluster_config(spec: &RecoverySpec, obs: &Obs) -> MilanaClusterConfig {
    // Size the device for the preload plus generous multi-version
    // headroom; `sized_for` keeps the scan-rate override.
    let writes = spec.warm_commits + spec.outage_commits;
    let nand = NandConfig {
        pages_per_block: 16,
        mount_scan_rate: spec.mount_scan_rate,
        ..NandConfig::default()
    }
    .sized_for(
        spec.store_keys + 4 * writes.max(16),
        spec.value_size + 64,
        0.25,
    );
    let mut cfg = MilanaClusterConfig {
        shards: 1,
        replicas: spec.replicas,
        clients: spec.clients,
        backend: spec.backend,
        nand,
        clock: ClockSpec::ptp_software(),
        preload_keys: spec.store_keys,
        value_size: spec.value_size,
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
async fn commit_increments(
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
    let victim = spec.replicas as usize - 1;
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

/// Runs one trial per store size, reusing `spec` for everything else.
/// This is the MTTR-vs-store-size sweep `repro recovery` plots.
pub fn run_recovery_sweep(spec: &RecoverySpec, store_sizes: &[u64]) -> Vec<RecoveryTrial> {
    // Each trial is an independent sim, so the sweep fans out on the
    // `perfkit` worker pool; trials come back in store-size order.
    perfkit::pool::run_ordered_auto(store_sizes.to_vec(), |store_keys| {
        run_recovery_trial(&RecoverySpec {
            store_keys,
            ..spec.clone()
        })
    })
}

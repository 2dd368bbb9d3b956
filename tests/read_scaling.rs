//! Read-scaling integration tests: backup snapshot reads stay safe when
//! the cluster is anything but quiet.
//!
//! Two properties from the readkit design:
//! - **Watermark monotonicity** — every replica's applied watermark only
//!   ever advances, across primary crashes, promotions, replica restarts,
//!   and client clock steps (the restart path reuses the persistent
//!   transaction table, so not even a revival may rewind it).
//! - **Migration fencing** — a backup snapshot read racing a live
//!   `shardkit` split draws `Moved`/`TooStale` and falls back; it never
//!   returns a torn snapshot. Paired counters updated in one transaction
//!   must read back equal inside any committed read-only scan.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use milana_repro::faultkit::{run_nemesis, Checker, Fault, FaultPlan, History, TimedFault};
use milana_repro::flashsim::{value, Key, NandConfig};
use milana_repro::milana::client::TxnOpts;
use milana_repro::milana::cluster::{MilanaCluster, MilanaClusterConfig, MASTER_NODE};
use milana_repro::obskit::Obs;
use milana_repro::readkit::ReadRoute;
use milana_repro::semel::shard::ShardId;
use milana_repro::shardkit::{RebalanceEngine, RebalancePlan, SourceReplica};
use milana_repro::simkit::Sim;
use milana_repro::timesync::{ClockSpec, Timestamp};

fn enc(n: u64) -> milana_repro::flashsim::Value {
    value(Vec::from(n.to_be_bytes()))
}

fn dec(v: &[u8]) -> u64 {
    u64::from_be_bytes(v[..8].try_into().expect("u64"))
}

fn backup_read_cfg(shards: u32) -> MilanaClusterConfig {
    let mut cfg = MilanaClusterConfig {
        shards,
        replicas: 3,
        clients: 3,
        nand: NandConfig {
            blocks: 512,
            pages_per_block: 8,
            ..NandConfig::default()
        },
        clock: ClockSpec::ptp_software(),
        preload_keys: 0,
        ..MilanaClusterConfig::default()
    };
    cfg.client_cfg.read_route = ReadRoute::Freshest;
    // Fast floor plumbing so backups cover snapshots within a few ms.
    cfg.client_cfg.watermark_interval = Duration::from_millis(2);
    cfg.tuning.gossip_every = Some(Duration::from_millis(2));
    cfg
}

/// Crash/promote/restart the primary twice and step two client clocks
/// (one forward, one back) while a contended workload routes reads to
/// backups; every replica's applied watermark must be non-decreasing at
/// every sample, acked commits must survive, and the trace must stay
/// clean (serializability and `stale_backup_read` included).
#[test]
fn applied_watermarks_survive_failover_and_clock_steps() {
    let mut sim = Sim::new(71_001);
    let h = sim.handle();
    let obs = Obs::with_trace(1 << 18);
    let mut cluster_cfg = backup_read_cfg(1);
    cluster_cfg.tuning.obs = obs.clone();
    let cluster = Rc::new(RefCell::new(MilanaCluster::build(&h, cluster_cfg)));
    let keys = 8u64;
    let acked = Rc::new(Cell::new(0u64));
    let stop = Rc::new(Cell::new(false));
    let hh = h.clone();
    // Seed.
    {
        let clients = cluster.borrow().clients.clone();
        let hh2 = hh.clone();
        sim.block_on(async move {
            let mut t = clients[0].begin_with(TxnOpts::default());
            for k in 0..keys {
                t.put(Key::from(k), enc(0));
            }
            t.commit().await.unwrap();
            hh2.sleep(Duration::from_millis(5)).await;
        });
    }
    // Watermark sampler: per replica slot, strictly non-decreasing. The
    // restart path reuses the persistent table, so even a crash cycle may
    // not rewind a slot's applied watermark.
    let regressions = Rc::new(Cell::new(0u32));
    {
        let cluster = cluster.clone();
        let stop = stop.clone();
        let regressions = regressions.clone();
        let hh2 = hh.clone();
        hh.spawn(async move {
            let mut last = [Timestamp::ZERO; 3];
            while !stop.get() {
                for (i, slot) in cluster.borrow().replicas[0].iter().enumerate() {
                    let wm = slot.server.table().borrow().applied_watermark();
                    if wm < last[i] {
                        regressions.set(regressions.get() + 1);
                    }
                    last[i] = wm.max(last[i]);
                }
                hh2.sleep(Duration::from_millis(1)).await;
            }
        });
    }
    // Workload: mostly read-only scans that dwell past the floor lag (so
    // backups can cover them), plus counter increments for contention.
    for c in &cluster.borrow().clients {
        let c = c.clone();
        let acked = acked.clone();
        let stop = stop.clone();
        let hh2 = hh.clone();
        hh.spawn(async move {
            let mut rng = hh2.fork_rng();
            while !stop.get() {
                if rand::Rng::gen_range(&mut rng, 0..100u32) < 40 {
                    let mut t = c.begin_with(TxnOpts::default());
                    hh2.sleep(Duration::from_millis(5)).await;
                    let mut fine = true;
                    for k in 0..keys {
                        if t.get(&Key::from(k)).await.is_err() {
                            fine = false;
                            break;
                        }
                    }
                    if fine {
                        let _ = t.commit().await;
                    }
                    continue;
                }
                let k = Key::from(rand::Rng::gen_range(&mut rng, 0..keys));
                let mut t = c.begin_with(TxnOpts::default());
                let n = match t.get(&k).await {
                    Ok(v) if v.len() == 8 => dec(&v),
                    _ => {
                        hh2.sleep(Duration::from_millis(2)).await;
                        continue;
                    }
                };
                t.put(k.clone(), enc(n + 1));
                if t.commit().await.is_ok() {
                    acked.set(acked.get() + 1);
                }
            }
        });
    }
    // Two crash cycles with clock steps in between: forward on client 0,
    // backward on client 1 (the monotonic clamp slews it).
    let plan = FaultPlan {
        faults: vec![
            TimedFault {
                after: Duration::from_millis(40),
                fault: Fault::CrashPrimary {
                    shard: 0,
                    restart_after: Duration::from_millis(20),
                },
            },
            TimedFault {
                after: Duration::from_millis(30),
                fault: Fault::ClockStep {
                    client: 0,
                    delta_ns: 2_000_000,
                },
            },
            TimedFault {
                after: Duration::from_millis(30),
                fault: Fault::CrashPrimary {
                    shard: 0,
                    restart_after: Duration::from_millis(20),
                },
            },
            TimedFault {
                after: Duration::from_millis(30),
                fault: Fault::ClockStep {
                    client: 1,
                    delta_ns: -2_000_000,
                },
            },
        ],
    };
    let report = {
        let hh2 = hh.clone();
        let cluster = cluster.clone();
        sim.block_on(async move { run_nemesis(&hh2, &cluster, &plan).await })
    };
    assert_eq!(report.ok_count(), 4, "all faults applied: {report:?}");
    // Settle, stop, audit.
    sim.block_on({
        let hh2 = hh.clone();
        let stop = stop.clone();
        async move {
            hh2.sleep(Duration::from_millis(80)).await;
            stop.set(true);
            hh2.sleep(Duration::from_millis(60)).await;
        }
    });
    assert_eq!(
        regressions.get(),
        0,
        "applied watermark regressed on a replica"
    );
    let acked = acked.get();
    assert!(acked > 20, "workload made progress: {acked}");
    let replica_reads: u64 = cluster
        .borrow()
        .clients
        .iter()
        .map(|c| c.stats().replica_reads)
        .sum();
    assert!(replica_reads > 0, "no read was ever served by a backup");
    assert_eq!(obs.tracer.dropped(), 0, "trace ring held the whole run");
    let history = History::from_events(obs.tracer.events(), obs.tracer.dropped());
    let violations = Checker::new(&history).check();
    assert!(
        violations.is_empty(),
        "checker found violations: {violations:#?}"
    );
}

/// A live shard split races routed snapshot reads: scans of counter
/// pairs (always updated together in one transaction) must read back
/// equal in every committed read-only scan — a backup serving across the
/// migration fence would tear the pair — and the trace must stay clean.
#[test]
fn backup_reads_during_migration_never_tear_snapshots() {
    let mut sim = Sim::new(71_002);
    let h = sim.handle();
    let obs = Obs::with_trace(1 << 18);
    let mut cluster_cfg = backup_read_cfg(2);
    cluster_cfg.tuning.obs = obs.clone();
    let cluster = Rc::new(RefCell::new(MilanaCluster::build(&h, cluster_cfg)));
    let pairs = 6u64;
    let stop = Rc::new(Cell::new(false));
    let acked = Rc::new(Cell::new(0u64));
    let torn = Rc::new(Cell::new(0u32));
    let scans = Rc::new(Cell::new(0u64));
    let hh = h.clone();
    // Seed pairs: key k and its shadow k+pairs start equal.
    {
        let clients = cluster.borrow().clients.clone();
        let hh2 = hh.clone();
        sim.block_on(async move {
            let mut t = clients[0].begin_with(TxnOpts::default());
            for k in 0..pairs * 2 {
                t.put(Key::from(k), enc(0));
            }
            t.commit().await.unwrap();
            hh2.sleep(Duration::from_millis(5)).await;
        });
    }
    for (ci, c) in cluster.borrow().clients.iter().enumerate() {
        let c = c.clone();
        let stop = stop.clone();
        let acked = acked.clone();
        let torn = torn.clone();
        let scans = scans.clone();
        let hh2 = hh.clone();
        hh.spawn(async move {
            let mut rng = hh2.fork_rng();
            while !stop.get() {
                if ci == 0 {
                    // Writer: bump one pair atomically.
                    let k = rand::Rng::gen_range(&mut rng, 0..pairs);
                    let mut t = c.begin_with(TxnOpts::default());
                    let n = match t.get(&Key::from(k)).await {
                        Ok(v) if v.len() == 8 => dec(&v),
                        _ => {
                            hh2.sleep(Duration::from_millis(2)).await;
                            continue;
                        }
                    };
                    t.put(Key::from(k), enc(n + 1));
                    t.put(Key::from(k + pairs), enc(n + 1));
                    if t.commit().await.is_ok() {
                        acked.set(acked.get() + 1);
                    }
                } else {
                    // Reader: dwell past the floor lag, then scan pairs.
                    let mut t = c.begin_with(TxnOpts::default());
                    hh2.sleep(Duration::from_millis(5)).await;
                    let mut vals = Vec::with_capacity((pairs * 2) as usize);
                    let mut fine = true;
                    for k in 0..pairs * 2 {
                        match t.get(&Key::from(k)).await {
                            Ok(v) if v.len() == 8 => vals.push(dec(&v)),
                            _ => {
                                fine = false;
                                break;
                            }
                        }
                    }
                    if fine && t.commit().await.is_ok() {
                        scans.set(scans.get() + 1);
                        for k in 0..pairs as usize {
                            if vals[k] != vals[k + pairs as usize] {
                                torn.set(torn.get() + 1);
                            }
                        }
                    }
                }
            }
        });
    }
    // Mid-run, split shard 0 live onto a freshly provisioned group.
    let final_epoch = {
        let hh2 = hh.clone();
        let cluster2 = cluster.clone();
        sim.block_on(async move {
            hh2.sleep(Duration::from_millis(40)).await;
            let (engine, dest, sources) = {
                let mut cl = cluster2.borrow_mut();
                let engine = RebalanceEngine::new(
                    &hh2,
                    MASTER_NODE,
                    cl.map.clone(),
                    cl.master.clone(),
                    cl.config.tuning.obs.clone(),
                );
                let new_shard = ShardId(cl.map.borrow().len() as u32);
                let dest = cl.provision_group(new_shard);
                let sources: Vec<SourceReplica> = cl.replicas[0]
                    .iter()
                    .map(|s| (s.addr, s.server.backend().clone()))
                    .collect();
                (engine, dest, sources)
            };
            let report = engine
                .run(RebalancePlan::Split { from: ShardId(0) }, dest, sources)
                .await;
            report.final_epoch
        })
    };
    assert!(final_epoch >= 1, "split completed with an epoch bump");
    // Keep the load running after cutover, then stop and audit.
    sim.block_on({
        let hh2 = hh.clone();
        let stop = stop.clone();
        async move {
            hh2.sleep(Duration::from_millis(60)).await;
            stop.set(true);
            hh2.sleep(Duration::from_millis(60)).await;
        }
    });
    assert_eq!(torn.get(), 0, "a committed scan saw a torn counter pair");
    assert!(scans.get() > 5, "scans committed: {}", scans.get());
    assert!(acked.get() > 5, "writers made progress: {}", acked.get());
    let replica_reads: u64 = cluster
        .borrow()
        .clients
        .iter()
        .map(|c| c.stats().replica_reads)
        .sum();
    assert!(replica_reads > 0, "no read was ever served by a backup");
    assert_eq!(obs.tracer.dropped(), 0, "trace ring held the whole run");
    let history = History::from_events(obs.tracer.events(), obs.tracer.dropped());
    let violations = Checker::new(&history).check();
    assert!(
        violations.is_empty(),
        "checker found violations: {violations:#?}"
    );
}

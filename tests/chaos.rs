//! Chaos test: repeated primary crashes, promotions, and replica restarts
//! under a continuously running contended workload — the whole §4.5 story
//! (log merge, in-doubt resolution, lease wait, backup catch-up) driven by
//! a faultkit [`FaultPlan`], with conservation invariants audited at the
//! end and the recorded trace checked for serializability.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use milana_repro::faultkit::{run_nemesis, Checker, Fault, FaultPlan, History, TimedFault};
use milana_repro::flashsim::{value, Key, NandConfig};
use milana_repro::milana::client::TxnOpts;
use milana_repro::milana::cluster::{MilanaCluster, MilanaClusterConfig};
use milana_repro::milana::msg::TxnError;
use milana_repro::obskit::Obs;
use milana_repro::semel::shard::ShardId;
use milana_repro::simkit::Sim;
use milana_repro::timesync::ClockSpec;

fn enc(n: u64) -> milana_repro::flashsim::Value {
    value(Vec::from(n.to_be_bytes()))
}

fn dec(v: &[u8]) -> u64 {
    u64::from_be_bytes(v[..8].try_into().expect("u64"))
}

/// Three full kill → promote → restart cycles while four clients hammer
/// counters; every acknowledged commit must survive, no phantom increments
/// may appear, and the traced history must stay serializable.
#[test]
fn survives_repeated_failover_cycles() {
    let mut sim = Sim::new(9000);
    let h = sim.handle();
    let obs = Obs::with_trace(1 << 18);
    let mut cluster_cfg = MilanaClusterConfig {
        shards: 1,
        replicas: 3,
        clients: 4,
        nand: NandConfig {
            blocks: 512,
            pages_per_block: 8,
            ..NandConfig::default()
        },
        clock: ClockSpec::ptp_software(),
        preload_keys: 0,
        ..MilanaClusterConfig::default()
    };
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
    // Workload tasks run across the whole chaos schedule.
    for c in &cluster.borrow().clients {
        let c = c.clone();
        let acked = acked.clone();
        let stop = stop.clone();
        let hh2 = hh.clone();
        hh.spawn(async move {
            let mut rng = hh2.fork_rng();
            while !stop.get() {
                let k = Key::from(rand::Rng::gen_range(&mut rng, 0..keys));
                let mut t = c.begin_with(TxnOpts::default());
                let n = match t.get(&k).await {
                    Ok(v) if v.len() == 8 => dec(&v),
                    _ => {
                        // Primary mid-failover; back off briefly.
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
    // Chaos schedule: three crash cycles, each a kill → promote → restart
    // (the nemesis promotes a backup and revives the crashed replica after
    // `restart_after`, so the next cycle always has a quorum).
    let plan = FaultPlan {
        faults: (0..3)
            .map(|_| TimedFault {
                after: Duration::from_millis(40),
                fault: Fault::CrashPrimary {
                    shard: 0,
                    restart_after: Duration::from_millis(20),
                },
            })
            .collect(),
    };
    let report = {
        let hh2 = hh.clone();
        let cluster = cluster.clone();
        sim.block_on(async move { run_nemesis(&hh2, &cluster, &plan).await })
    };
    assert_eq!(report.ok_count(), 3, "all three crash cycles applied");
    assert!(
        cluster.borrow().primary(ShardId(0)).is_primary(),
        "finale leaves a serving primary"
    );
    // Let the workload settle, stop it, and audit.
    sim.block_on({
        let hh2 = hh.clone();
        let stop = stop.clone();
        async move {
            hh2.sleep(Duration::from_millis(80)).await;
            stop.set(true);
            hh2.sleep(Duration::from_millis(60)).await;
        }
    });
    let clients = cluster.borrow().clients.clone();
    let total = sim.block_on(async move {
        loop {
            let mut t = clients[0].begin_with(TxnOpts::default());
            let mut sum = 0u64;
            let mut bad = false;
            for k in 0..keys {
                match t.get(&Key::from(k)).await {
                    Ok(v) if v.len() == 8 => sum += dec(&v),
                    _ => {
                        bad = true;
                        break;
                    }
                }
            }
            if bad {
                continue;
            }
            match t.commit().await {
                Ok(_) => break sum,
                Err(TxnError::Aborted(_)) => continue,
                Err(e) => panic!("audit failed: {e}"),
            }
        }
    });
    let acked = acked.get();
    assert!(
        acked > 20,
        "workload made progress through 3 failovers: {acked}"
    );
    assert!(
        total >= acked,
        "lost acknowledged commits: counters {total} < acked {acked}"
    );
    // Unknown-outcome transactions (client timed out mid-2PC during a crash)
    // may legitimately commit later via CTP without being counted in
    // `acked`; bound them by the clients' reported unknowns.
    let unknowns: u64 = cluster
        .borrow()
        .clients
        .iter()
        .map(|c| c.stats().unknown)
        .sum();
    assert!(
        total <= acked + unknowns + cluster.borrow().clients.len() as u64,
        "phantom increments: counters {total} > acked {acked} + unknowns {unknowns}"
    );
    // The recorded history must be serializable with intact snapshots.
    assert_eq!(obs.tracer.dropped(), 0, "trace ring held the whole run");
    let history = History::from_events(obs.tracer.events(), obs.tracer.dropped());
    let violations = Checker::new(&history).check();
    assert!(
        violations.is_empty(),
        "checker found violations: {violations:#?}"
    );
}

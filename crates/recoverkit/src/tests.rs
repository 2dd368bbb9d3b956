//! End-to-end cold-restart recovery tests on a simulated MILANA cluster.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

use flashsim::{value, Key};
use milana::client::TxnOpts;
use milana::cluster::MilanaCluster;
use milana::msg::{TxnRequest, TxnResponse};
use obskit::{Obs, RecoveryPhase, TraceEvent};
use rand::Rng;
use semel::shard::ShardId;
use simkit::Sim;
use timesync::Timestamp;

use crate::{cluster_config, commit_increments, dec, enc, run_recovery_trial, RecoverySpec};

fn small_spec() -> RecoverySpec {
    RecoverySpec {
        store_keys: 400,
        warm_commits: 24,
        outage_commits: 24,
        hot_keys: 8,
        ..RecoverySpec::default()
    }
}

#[test]
fn cold_restart_recovers_every_acked_write() {
    let t = run_recovery_trial(&small_spec());
    assert!(t.clean(), "lost {} acked writes: {t:?}", t.lost_writes);
    assert!(t.outage_acked > 0, "outage window committed nothing");
    assert!(t.mount_ns > 0, "mount scan took no time");
    assert!(
        t.catchup_keys > 0,
        "anti-entropy applied nothing despite an outage"
    );
    assert!(
        t.mttr_ns >= t.mount_ns,
        "MTTR cannot undercut the mount scan"
    );
}

#[test]
fn durability_skip_is_observed_as_lost_writes() {
    // The fraud hook adopts the mounted state and skips catch-up: every
    // commit acked during the outage is missing from the recovered
    // replica, and the trial's audit must say so.
    let spec = RecoverySpec {
        fraud: milana::Fraud::SkipDurability,
        ..small_spec()
    };
    let t = run_recovery_trial(&spec);
    assert!(
        t.lost_writes > 0,
        "durability fraud went unnoticed by the audit: {t:?}"
    );
    assert_eq!(t.catchup_keys, 0, "fraud mode must not run catch-up");
}

#[test]
fn trial_json_is_byte_stable() {
    let spec = small_spec();
    let a = run_recovery_trial(&spec).to_json().to_pretty_string();
    let b = run_recovery_trial(&spec).to_json().to_pretty_string();
    assert_eq!(a, b, "same seed must produce identical bytes");
}

#[test]
fn mount_time_grows_with_store_size() {
    // The scan walks every programmed page, so a bigger preload means a
    // longer mount at a fixed scan rate — the MTTR-vs-size axis the
    // `repro recovery` sweep plots.
    let base = RecoverySpec {
        mount_scan_rate: 20_000,
        warm_commits: 12,
        outage_commits: 12,
        hot_keys: 8,
        ..RecoverySpec::default()
    };
    let small = run_recovery_trial(&RecoverySpec {
        store_keys: 400,
        ..base.clone()
    });
    let big = run_recovery_trial(&RecoverySpec {
        store_keys: 4_000,
        ..base
    });
    assert!(small.clean() && big.clean());
    assert!(
        big.mount_ns > small.mount_ns,
        "mount did not scale with store size: {} !> {}",
        big.mount_ns,
        small.mount_ns
    );
}

/// Satellite: a cold-restarted backup must answer `NotReady` to readkit
/// `ReadAt` for the whole mount + catch-up window — the durable floor it
/// mounted is a promise about client clocks, not applied coverage, so a
/// snapshot served off it could miss commits acked during the outage.
/// Only after the catch-up splice and live floor envelopes re-promise a
/// write floor may it serve, and then with the post-outage value.
#[test]
fn cold_backup_gates_read_at_until_floor_repromised() {
    let mut sim = Sim::new(42);
    let h = sim.handle();
    let obs = Obs::with_trace(1 << 16);
    let spec = RecoverySpec {
        store_keys: 600,
        hot_keys: 8,
        ..RecoverySpec::default()
    };
    let mut cfg = cluster_config(&spec, &obs);
    // Fast floor propagation so the re-promise happens within the test.
    cfg.tuning.gossip_every = Some(Duration::from_millis(2));
    cfg.client_cfg.watermark_interval = Duration::from_millis(2);
    let cluster = Rc::new(RefCell::new(MilanaCluster::build(&h, cfg)));
    let shard = ShardId(0);
    let victim = 2;
    let victim_addr = cluster.borrow().replicas[0][victim].addr;

    let expected = Rc::new(RefCell::new(BTreeMap::new()));
    let acked = Rc::new(Cell::new(0u64));
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
            commit_increments(&cl, &hh, &sp, 16, &exp, &ak).await;
        });
    }
    cluster.borrow().power_fail_replica(shard, victim);

    // The outage write the recovered backup must not pretend to cover.
    let key = Key::from(0u64);
    let (final_val, commit_ts) = {
        let (cl, hh, k) = (cluster.clone(), h.clone(), key.clone());
        sim.block_on(async move {
            let c = cl.borrow().clients[0].clone();
            loop {
                let mut t = c.begin_with(TxnOpts::default());
                let cur = match t.get(&k).await {
                    Ok(v) => dec(&v),
                    Err(_) => {
                        hh.sleep(Duration::from_millis(2)).await;
                        continue;
                    }
                };
                t.put(k.clone(), enc(cur + 1));
                if let Ok(info) = t.commit().await {
                    return (cur + 1, info.ts_commit.expect("write commit has a stamp"));
                }
                hh.sleep(Duration::from_millis(2)).await;
            }
        })
    };

    cluster.borrow_mut().restart_replica_cold(shard, victim);

    // Hammer the recovering backup with ReadAt: every reply before the
    // Serving flip must be a refusal, never a served snapshot.
    let rpc = cluster.borrow().master_rpc.clone();
    {
        let (cl, hh, rpc, k) = (cluster.clone(), h.clone(), rpc.clone(), key.clone());
        sim.block_on(async move {
            let mut refusals = 0u32;
            for attempt in 0..5_000u32 {
                let resp = rpc
                    .call::<TxnRequest, TxnResponse>(
                        victim_addr,
                        TxnRequest::ReadAt {
                            key: k.clone(),
                            at: Timestamp(1),
                            client: timesync::ClientId(0),
                        },
                        Duration::from_millis(50),
                    )
                    .await;
                if let Ok(TxnResponse::FromReplica { .. }) = resp {
                    // The sim is single-threaded: the serving flip happens
                    // strictly before any served reply is sent.
                    assert!(
                        cl.borrow().replicas[0][victim].server.is_serving(),
                        "cold backup served a snapshot before its floor was re-promised"
                    );
                }
                if cl.borrow().replicas[0][victim].server.is_serving() {
                    break;
                }
                refusals += 1;
                assert!(attempt < 4_999, "recovery never finished");
                hh.sleep(Duration::from_micros(200)).await;
            }
            assert!(refusals > 0, "no refusal observed during recovery");
        });
    }

    // Post-recovery: keep a little write traffic flowing so floor
    // envelopes re-promise coverage, then the backup must serve a fresh
    // snapshot — with (at least) the outage value, never the stale
    // pre-outage one the mounted floor alone would have promised. The
    // fresh `at` matters: MVCC GC legitimately prunes versions below the
    // re-advanced watermark, so exact historical stamps can vanish.
    {
        let (cl, hh, sp, exp, ak) = (
            cluster.clone(),
            h.clone(),
            spec.clone(),
            expected.clone(),
            acked.clone(),
        );
        sim.block_on(async move {
            commit_increments(&cl, &hh, &sp, 8, &exp, &ak).await;
        });
    }
    let fresh_ts = {
        let (cl, hh, k) = (cluster.clone(), h.clone(), key.clone());
        sim.block_on(async move {
            let c = cl.borrow().clients[0].clone();
            loop {
                let mut t = c.begin_with(TxnOpts::default());
                let cur = match t.get(&k).await {
                    Ok(v) => dec(&v),
                    Err(_) => {
                        hh.sleep(Duration::from_millis(2)).await;
                        continue;
                    }
                };
                t.put(k.clone(), enc(cur + 1));
                if let Ok(info) = t.commit().await {
                    return info.ts_commit.expect("write commit has a stamp");
                }
                hh.sleep(Duration::from_millis(2)).await;
            }
        })
    };
    assert!(fresh_ts > commit_ts);
    let hh = h.clone();
    sim.block_on(async move {
        for attempt in 0..2_000u32 {
            let resp = rpc
                .call::<TxnRequest, TxnResponse>(
                    victim_addr,
                    TxnRequest::ReadAt {
                        key: key.clone(),
                        at: fresh_ts,
                        client: timesync::ClientId(0),
                    },
                    Duration::from_millis(50),
                )
                .await;
            match resp {
                Ok(TxnResponse::FromReplica {
                    reply, watermark, ..
                }) => {
                    assert!(
                        watermark >= fresh_ts,
                        "served below the advertised watermark"
                    );
                    match *reply {
                        TxnResponse::Value { value: v, .. } => {
                            assert!(
                                dec(&v) > final_val,
                                "recovered backup served a pre-outage value"
                            );
                        }
                        other => panic!("unexpected inner reply {other:?}"),
                    }
                    return;
                }
                // TooStale / NotReady: floor not re-promised yet, retry.
                _ => hh.sleep(Duration::from_millis(1)).await,
            }
            assert!(
                attempt < 1_999,
                "backup never re-promised a floor covering the commit"
            );
        }
    });
}

/// Satellite: promoting a replica *while its cold-restart catch-up is
/// still running* must apply every outcome exactly once. The promotion's
/// log merge (from the surviving backup) supersedes the aborted
/// anti-entropy sweep; records the sweep already installed are skipped via
/// the applied set, so nothing is double-applied, and concurrent Prepares
/// racing the promotion either land in the merged table or are retried by
/// their clients.
#[test]
fn recover_as_primary_races_prepares_during_cold_catchup() {
    let mut sim = Sim::new(7);
    let h = sim.handle();
    let obs = Obs::with_trace(1 << 17);
    let spec = RecoverySpec {
        store_keys: 800,
        hot_keys: 8,
        clients: 4,
        // Tiny pages stretch the catch-up sweep so the promotion reliably
        // lands inside it.
        catchup_batch: 2,
        mount_scan_rate: 50_000,
        ..RecoverySpec::default()
    };
    let cluster = Rc::new(RefCell::new(MilanaCluster::build(
        &h,
        cluster_config(&spec, &obs),
    )));
    let shard = ShardId(0);
    let victim = 2;
    let (a0, a1, victim_addr) = {
        let cl = cluster.borrow();
        (
            cl.replicas[0][0].addr,
            cl.replicas[0][1].addr,
            cl.replicas[0][victim].addr,
        )
    };

    // Continuous contended increments, one in flight per client.
    let keys = spec.hot_keys;
    let acked = Rc::new(Cell::new(0u64));
    let stop = Rc::new(Cell::new(false));
    {
        let clients = cluster.borrow().clients.clone();
        let hh = h.clone();
        sim.block_on(async move {
            let mut t = clients[0].begin_with(TxnOpts::default());
            for k in 0..keys {
                t.put(Key::from(k), enc(0));
            }
            t.commit().await.expect("seeding commit");
            hh.sleep(Duration::from_millis(5)).await;
        });
    }
    for c in &cluster.borrow().clients {
        let c = c.clone();
        let acked = acked.clone();
        let stop = stop.clone();
        let hh = h.clone();
        h.spawn(async move {
            let mut rng = hh.fork_rng();
            while !stop.get() {
                let k = Key::from(rng.gen_range(0..keys));
                let mut t = c.begin_with(TxnOpts::default());
                let n = match t.get(&k).await {
                    Ok(v) if v.len() >= 8 => dec(&v),
                    _ => {
                        hh.sleep(Duration::from_millis(2)).await;
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

    // Outage: the victim misses a window of committed increments.
    {
        let hh = h.clone();
        sim.block_on(async move { hh.sleep(Duration::from_millis(20)).await });
    }
    cluster.borrow().power_fail_replica(shard, victim);
    {
        let hh = h.clone();
        sim.block_on(async move { hh.sleep(Duration::from_millis(25)).await });
    }

    // Cold restart, then wait for the mount to finish (the promotion must
    // race the *catch-up*, not the device scan).
    let restart_at = h.now().as_nanos();
    cluster.borrow_mut().restart_replica_cold(shard, victim);
    {
        let (hh, obs2) = (h.clone(), obs.clone());
        let victim_node = victim_addr.node.0 as u64;
        sim.block_on(async move {
            loop {
                let mounted = obs2.tracer.events().into_iter().any(|(at, ev)| {
                    at >= restart_at
                        && matches!(
                            ev,
                            TraceEvent::RecoveryStep { node, phase, .. }
                            if node == victim_node && phase == RecoveryPhase::MountDone
                        )
                });
                if mounted {
                    break;
                }
                hh.sleep(Duration::from_micros(100)).await;
            }
        });
    }
    assert!(
        !cluster.borrow().replicas[0][victim].server.is_serving(),
        "catch-up already finished; the promotion would not race it"
    );

    // Fail the primary over to the still-catching-up replica. Backup 1
    // stays alive: it holds every outage commit, so the promotion's log
    // merge keeps the f-coverage durability guarantee intact.
    cluster.borrow().fail_primary(shard);
    assert!(
        cluster
            .borrow()
            .map
            .borrow_mut()
            .promote(shard, victim_addr),
        "victim not in the backup set"
    );
    {
        let rpc = cluster.borrow().master_rpc.clone();
        sim.block_on(async move {
            let resp = rpc
                .call::<TxnRequest, TxnResponse>(
                    victim_addr,
                    TxnRequest::Promote {
                        backups: vec![a0, a1],
                    },
                    Duration::from_secs(2),
                )
                .await;
            assert!(
                matches!(resp, Ok(TxnResponse::PromoteOk)),
                "promotion of the recovering replica failed: {resp:?}"
            );
        });
    }

    // Let the new primary take writes, then stop and drain.
    {
        let hh = h.clone();
        let stop = stop.clone();
        sim.block_on(async move {
            hh.sleep(Duration::from_millis(30)).await;
            stop.set(true);
            hh.sleep(Duration::from_millis(60)).await;
        });
    }
    {
        let cl = cluster.borrow();
        let srv = &cl.replicas[0][victim].server;
        assert!(srv.is_primary(), "victim did not become primary");
        assert!(srv.is_serving(), "promoted victim never started serving");
    }

    // Exactly-once audit: the counter sum equals the acked increments,
    // give or take unknown-outcome attempts and one in-flight transaction
    // per client. A double-applied outcome would overshoot the upper
    // bound; a lost one would undershoot the lower.
    let clients = cluster.borrow().clients.clone();
    let n_clients = clients.len() as u64;
    let hh = h.clone();
    let total = sim.block_on(async move {
        'outer: for _ in 0..500u32 {
            let mut t = clients[0].begin_with(TxnOpts::default());
            let mut sum = 0u64;
            for k in 0..keys {
                match t.get(&Key::from(k)).await {
                    Ok(v) if v.len() >= 8 => sum += dec(&v),
                    _ => {
                        hh.sleep(Duration::from_millis(2)).await;
                        continue 'outer;
                    }
                }
            }
            if t.commit().await.is_ok() {
                return sum;
            }
            hh.sleep(Duration::from_millis(2)).await;
        }
        panic!("audit transaction never committed");
    });
    let acked = acked.get();
    let unknowns: u64 = cluster
        .borrow()
        .clients
        .iter()
        .map(|c| c.stats().unknown)
        .sum();
    assert!(acked > 0, "workload never committed");
    assert!(
        total >= acked,
        "acked increments lost across the racing promotion: {total} < {acked}"
    );
    assert!(
        total <= acked + unknowns + n_clients,
        "increments applied more than once: {total} > {acked} + {unknowns} + {n_clients}"
    );
}

#[test]
fn enc_dec_roundtrip() {
    assert_eq!(dec(&enc(7)), 7);
    assert_eq!(dec(&value(vec![0u8; 4])), 0, "short values decode to zero");
}

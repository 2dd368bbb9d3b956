//! Group-commit batching (batchkit) end-to-end: ack-safety when batch
//! envelopes are partially delivered, the flush-deadline latency bound,
//! per-seed determinism of the metric registry, and the `batch_max = 1`
//! regression that reproduces the unbatched per-record RPC fan-out.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use milana_repro::batchkit::BatchConfig;
use milana_repro::flashsim::{value, Key};
use milana_repro::milana::client::TxnOpts;
use milana_repro::milana::cluster::{MilanaCluster, MilanaClusterConfig};
use milana_repro::obskit::Obs;
use milana_repro::semel::shard::ShardId;
use milana_repro::semel::{ClusterConfig, SemelCluster, SemelError};
use milana_repro::simkit::Sim;

/// A 3-replica, 2-client MILANA cluster flushing both planes (coordinator
/// and replication) by `batch`.
fn milana_cfg(
    shards: u32,
    preload_keys: u64,
    batch: BatchConfig,
    obs: &Obs,
) -> MilanaClusterConfig {
    let mut cfg = MilanaClusterConfig {
        shards,
        preload_keys,
        ..MilanaClusterConfig::default()
    };
    cfg.tuning.batch = batch;
    cfg.tuning.obs = obs.clone();
    cfg.client_cfg.batch = batch;
    cfg
}

/// Batch envelopes that only partially reach the backup set must never
/// acknowledge an under-replicated write (SEMEL §3.2 with group commit:
/// the whole batch needs `f` backup acks before *any* item is acked).
///
/// Phase A partitions one of the two backups: every envelope is partially
/// delivered, but the surviving backup still provides `f = 1` coverage,
/// so puts succeed — and the surviving backup must hold *every* acked
/// record (whole-batch coverage, not per-record luck). Phase B partitions
/// the second backup too: zero coverage, so no put may be acked.
#[test]
fn partial_batch_delivery_never_acks_under_replicated_writes() {
    let mut sim = Sim::new(9101);
    let h = sim.handle();
    let cfg = ClusterConfig {
        clients: 1,
        batch: BatchConfig {
            batch_max: 8,
            batch_deadline: Duration::from_micros(100),
        },
        ..ClusterConfig::default()
    };
    let cluster = SemelCluster::build(&h, cfg);
    let hh = h.clone();
    sim.block_on(async move {
        let shard = ShardId(0);
        let primary = cluster.map.borrow().group(shard).primary.node;
        let backup_a = cluster.servers[0][1].config().addr.node;
        let backup_b = cluster.servers[0][2].config().addr.node;

        // Phase A: envelopes reach only backup B; f = 1 is still covered.
        hh.partition(&[primary], &[backup_a]);
        let mut joins = Vec::new();
        for i in 0..8u64 {
            let c = cluster.clients[0].clone();
            joins.push(hh.spawn(async move { (i, c.put(Key::from(i), value(&b"a"[..])).await) }));
        }
        let mut acked = Vec::new();
        for j in joins {
            let (i, r) = j.await;
            acked.push((i, r.expect("one backup covers f = 1")));
        }
        hh.sleep(Duration::from_millis(5)).await;
        for (i, ver) in &acked {
            assert!(
                cluster.servers[0][2]
                    .backend()
                    .versions(&Key::from(*i))
                    .contains(ver),
                "acked write {i} missing from the only backup that could cover it"
            );
        }

        // Phase B: no backup reachable — zero coverage, so the whole
        // batch must fail; a partially-lost envelope is never acked.
        hh.partition(&[primary], &[backup_b]);
        let mut joins = Vec::new();
        for i in 100..108u64 {
            let c = cluster.clients[0].clone();
            joins.push(hh.spawn(async move { (i, c.put(Key::from(i), value(&b"b"[..])).await) }));
        }
        for j in joins {
            let (i, r) = j.await;
            let err = r.expect_err("no backup coverage must not ack");
            assert!(
                matches!(err, SemelError::NoMajority | SemelError::Timeout),
                "put {i}: unexpected error {err:?}"
            );
        }

        // Heal: the plane recovers without manual intervention.
        hh.heal_partitions();
        cluster.clients[0]
            .put(Key::from(200u64), value(&b"c"[..]))
            .await
            .expect("puts succeed again after heal");
    });
}

/// The extra commit latency batching may add is bounded by the flush
/// deadlines on the commit path: one client-side coordinator-plane window
/// plus one primary-side replication window. A huge `batch_max` with
/// sequential (never-full) batches is the worst case — every flush waits
/// out its whole deadline.
#[test]
fn flush_deadline_bounds_commit_latency() {
    const DEADLINE: Duration = Duration::from_micros(200);
    fn median_commit_ns(batch: BatchConfig) -> (u64, Obs) {
        let mut sim = Sim::new(9102);
        let h = sim.handle();
        let obs = Obs::new();
        let cluster = MilanaCluster::build(&h, milana_cfg(1, 0, batch, &obs));
        let hh = h.clone();
        let lat: Vec<u64> = sim.block_on(async move {
            let lat = Rc::new(RefCell::new(Vec::new()));
            let mut joins = Vec::new();
            for (ci, c) in cluster.clients.iter().enumerate() {
                let c = c.clone();
                let hh2 = hh.clone();
                let lat = lat.clone();
                joins.push(hh.spawn(async move {
                    for i in 0..30u64 {
                        let key = Key::from(ci as u64 * 1000 + i); // disjoint: no conflicts
                        let t0 = hh2.now();
                        let mut t = c.begin_with(TxnOpts::default());
                        t.put(key, value(&b"v"[..]));
                        t.commit().await.expect("conflict-free commit");
                        lat.borrow_mut().push((hh2.now() - t0).as_nanos() as u64);
                    }
                }));
            }
            for j in joins {
                j.await;
            }
            Rc::try_unwrap(lat).unwrap().into_inner()
        });
        assert_eq!(lat.len(), 60);
        let mut lat = lat;
        lat.sort_unstable();
        // Median: robust to the occasional retry (lease/recovery backoff)
        // that also exists on the unbatched path.
        (lat[lat.len() / 2], obs)
    }

    let (base, _) = median_commit_ns(BatchConfig::unbatched());
    let (batched, obs) = median_commit_ns(BatchConfig {
        batch_max: 64,
        batch_deadline: DEADLINE,
    });
    // Commit path crosses two batchers: coordinator plane + replication.
    let bound = base + 2 * DEADLINE.as_nanos() as u64 + 100_000; // 100 µs scheduling slack
    assert!(
        batched <= bound,
        "batched median commit {batched} ns exceeds bound {bound} ns (unbatched {base} ns)"
    );
    // The worst case actually exercised deadline flushes on both planes.
    let reg = &obs.registry;
    assert!(
        reg.counter("batchkit.milana.coord.c0.s0.flush_deadline")
            .get()
            > 0,
        "coordinator plane never deadline-flushed"
    );
    assert!(
        reg.counter("batchkit.milana.repl.node0.flush_deadline")
            .get()
            > 0,
        "replication plane never deadline-flushed"
    );
}

/// Batching is timer-driven but fully deterministic: the same seed must
/// produce byte-identical registry snapshots (batch sizes, flush reasons,
/// RPC counters — everything).
#[test]
fn registry_snapshot_is_byte_identical_per_seed() {
    fn snapshot(seed: u64) -> String {
        let mut sim = Sim::new(seed);
        let h = sim.handle();
        let obs = Obs::new();
        let cluster = MilanaCluster::build(&h, milana_cfg(2, 128, BatchConfig::default(), &obs));
        let hh = h.clone();
        sim.block_on(async move {
            let mut joins = Vec::new();
            for (ci, c) in cluster.clients.iter().enumerate() {
                let c = c.clone();
                joins.push(hh.spawn(async move {
                    for i in 0..25u64 {
                        let key = Key::from((ci as u64 * 53 + i * 7) % 128);
                        let mut t = c.begin_with(TxnOpts::default());
                        let _ = t.get(&key).await;
                        t.put(key, value(Vec::from(i.to_be_bytes())));
                        let _ = t.commit().await;
                    }
                }));
            }
            for j in joins {
                j.await;
            }
            hh.sleep(Duration::from_millis(5)).await;
        });
        obs.registry.snapshot().to_string()
    }

    let a = snapshot(9103);
    let b = snapshot(9103);
    assert_eq!(a, b, "same seed must reproduce the registry byte for byte");
    assert!(
        a.contains("batchkit.milana.repl.node0.batch_size"),
        "replication batcher metrics missing from snapshot: {a}"
    );
    assert!(
        a.contains("batchkit.milana.coord.c0.s0.batch_size"),
        "coordinator batcher metrics missing from snapshot: {a}"
    );
}

/// `batch_max = 1` reproduces the unbatched wire economy exactly — one
/// replication envelope per backup per record — while a real batch window
/// coalesces the same workload into at least 2x fewer envelopes.
#[test]
fn batch_max_one_reproduces_unbatched_rpc_counts() {
    fn run(batch: BatchConfig) -> (u64, u64, u64) {
        let mut sim = Sim::new(9104);
        let h = sim.handle();
        let obs = Obs::new();
        let cfg = ClusterConfig {
            batch,
            obs: obs.clone(),
            ..ClusterConfig::default()
        };
        let cluster = SemelCluster::build(&h, cfg);
        let hh = h.clone();
        let puts = sim.block_on(async move {
            let mut joins = Vec::new();
            for (ci, c) in cluster.clients.iter().enumerate() {
                for i in 0..30u64 {
                    let c = c.clone();
                    let key = Key::from(ci as u64 * 1000 + i);
                    joins.push(hh.spawn(async move { c.put(key, value(&b"v"[..])).await }));
                }
            }
            let mut ok = 0u64;
            for j in joins {
                j.await.expect("uncontended put");
                ok += 1;
            }
            hh.sleep(Duration::from_millis(5)).await;
            ok
        });
        let reg = &obs.registry;
        let envelopes = reg.counter("semel.node0.repl_envelopes").get();
        let records = reg.counter("semel.node0.repl_records").get();
        (envelopes, records, puts)
    }

    let (env1, rec1, ok1) = run(BatchConfig::unbatched());
    assert_eq!(rec1, ok1, "one replication record per acked put");
    assert_eq!(
        env1,
        rec1 * 2,
        "batch_max = 1 must send one envelope per backup per record"
    );

    let (env16, rec16, ok16) = run(BatchConfig {
        batch_max: 16,
        batch_deadline: Duration::from_micros(100),
    });
    assert_eq!(ok16, ok1, "same workload must ack the same writes");
    assert_eq!(rec16, rec1, "batching must not change what is replicated");
    assert!(
        env16 * 2 <= env1,
        "expected >= 2x envelope reduction: {env1} unbatched vs {env16} batched"
    );
}

//! End-to-end resharding tests on a simulated MILANA cluster.

use flashsim::{value, Key, NandConfig};
use milana::client::TxnOpts;
use milana::cluster::{MilanaCluster, MilanaClusterConfig, MASTER_NODE};
use semel::shard::ShardId;
use simkit::Sim;
use timesync::ClockSpec;

use crate::{RebalanceEngine, RebalancePlan, SourceReplica};

fn nand() -> NandConfig {
    NandConfig {
        blocks: 128,
        pages_per_block: 8,
        ..NandConfig::default()
    }
}

fn base_cfg() -> MilanaClusterConfig {
    MilanaClusterConfig {
        shards: 2,
        replicas: 3,
        clients: 2,
        nand: nand(),
        preload_keys: 200,
        clock: ClockSpec::perfect(),
        ..MilanaClusterConfig::default()
    }
}

fn k(i: u64) -> Key {
    Key::from(i)
}

fn engine_for(cluster: &MilanaCluster, h: &simkit::SimHandle) -> RebalanceEngine {
    RebalanceEngine::new(
        h,
        MASTER_NODE,
        cluster.map.clone(),
        cluster.master.clone(),
        cluster.config.tuning.obs.clone(),
    )
}

fn sources_for(cluster: &MilanaCluster, shard: ShardId) -> Vec<SourceReplica> {
    cluster.replicas[shard.0 as usize]
        .iter()
        .map(|s| (s.addr, s.server.backend().clone()))
        .collect()
}

#[test]
fn split_preserves_data_and_reroutes() {
    let mut sim = Sim::new(901);
    let h = sim.handle();
    let mut cluster = MilanaCluster::build(&h, base_cfg());
    let eng = engine_for(&cluster, &h);
    sim.block_on(async move {
        let c = cluster.clients[0].clone();
        // Commit fresh versions over a spread of preloaded keys.
        for i in 0..40u64 {
            let mut t = c.begin_with(TxnOpts::default());
            let _ = t.get(&k(i)).await.unwrap();
            t.put(k(i), value(vec![i as u8; 16]));
            t.commit().await.unwrap();
        }

        let from = ShardId(0);
        let epoch0 = cluster.map.borrow().epoch();
        let new_shard = ShardId(cluster.map.borrow().len() as u32);
        let dest = cluster.provision_group(new_shard);
        let sources = sources_for(&cluster, from);
        let report = eng
            .run(RebalancePlan::Split { from }, dest.clone(), sources)
            .await;

        // The split created shard 2, bumped the epoch twice, and moved data.
        let map = cluster.map.borrow().clone();
        assert_eq!(map.len(), 3);
        assert_eq!(report.final_epoch, epoch0 + 2);
        assert!(report.records_copied > 0, "no records copied");
        let moved: Vec<Key> = (0..200u64)
            .map(k)
            .filter(|key| map.shard_for(key) == ShardId(2))
            .collect();
        assert!(!moved.is_empty(), "split moved no keys");

        // Every committed value reads back correctly through the new map.
        for i in 0..40u64 {
            let mut t = c.begin_with(TxnOpts::default());
            let got = t.get(&k(i)).await.unwrap();
            assert_eq!(got, value(vec![i as u8; 16]), "key {i} lost its value");
        }

        // Moved keys live on the new group and are GC'd from the source.
        let dest_backend = cluster.primary(ShardId(2)).backend().clone();
        let src_backend = cluster.primary(from).backend().clone();
        for key in &moved {
            assert!(
                !dest_backend.versions(key).is_empty(),
                "moved key missing at destination"
            );
            assert!(
                src_backend.versions(key).is_empty(),
                "moved key not GC'd at source"
            );
        }
    });
}

#[test]
fn concurrent_writes_survive_split() {
    let mut sim = Sim::new(902);
    let h = sim.handle();
    let hh = h.clone();
    let mut cluster = MilanaCluster::build(&h, base_cfg());
    let eng = engine_for(&cluster, &h);
    sim.block_on(async move {
        let from = ShardId(0);
        let new_shard = ShardId(cluster.map.borrow().len() as u32);
        let dest = cluster.provision_group(new_shard);
        let sources = sources_for(&cluster, from);

        // A writer hammers a small hot set while the migration runs,
        // recording the last value it *committed* per key. StaleEpoch
        // aborts at the fence are expected; the writer just retries.
        let c = cluster.clients[0].clone();
        let writer = hh.spawn(async move {
            let mut committed = vec![None::<u64>; 8];
            for round in 0..60u64 {
                let i = round % 8;
                let mut t = c.begin_with(TxnOpts::default());
                let _ = t.get(&k(i)).await;
                t.put(k(i), value(round.to_le_bytes().to_vec()));
                if t.commit().await.is_ok() {
                    committed[i as usize] = Some(round);
                }
            }
            committed
        });

        let report = eng.run(RebalancePlan::Split { from }, dest, sources).await;
        let committed = writer.await;

        assert!(report.records_copied > 0);
        let c = cluster.clients[1].clone();
        for (i, want) in committed.iter().enumerate() {
            let Some(round) = want else { continue };
            let mut t = c.begin_with(TxnOpts::default());
            let got = t.get(&k(i as u64)).await.unwrap();
            assert_eq!(
                got,
                value(round.to_le_bytes().to_vec()),
                "key {i}: committed write lost across the split"
            );
        }
    });
}

#[test]
fn move_shard_evicts_source_group() {
    let mut sim = Sim::new(903);
    let h = sim.handle();
    let mut cluster = MilanaCluster::build(&h, base_cfg());
    let eng = engine_for(&cluster, &h);
    sim.block_on(async move {
        let shard = ShardId(1);
        let old_group = cluster.map.borrow().group(shard).clone();
        let dest = cluster.provision_group(shard);
        let sources = sources_for(&cluster, shard);
        let report = eng
            .run(RebalancePlan::Move { shard }, dest.clone(), sources)
            .await;

        // Routing flipped to the provisioned group; the shard id is the
        // same, only its serving replicas changed.
        let map = cluster.map.borrow().clone();
        assert_eq!(map.len(), 2);
        assert_eq!(map.group(shard).primary, dest.primary);
        assert!(report.records_copied > 0);

        // Reads flow through the new group.
        let c = cluster.clients[0].clone();
        let mut found = 0;
        for i in 0..200u64 {
            if map.shard_for(&k(i)) != shard {
                continue;
            }
            let mut t = c.begin_with(TxnOpts::default());
            t.get(&k(i)).await.unwrap();
            found += 1;
        }
        assert!(found > 0, "no keys routed to the moved shard");

        // The evicted group dropped everything at GC.
        let old_primary = cluster
            .replicas
            .iter()
            .flatten()
            .find(|s| s.addr == old_group.primary)
            .unwrap();
        assert!(
            old_primary.server.backend().keys().is_empty(),
            "old group kept data after eviction"
        );
    });
}

#[test]
fn auto_failover_clients_refetch_across_split() {
    let mut sim = Sim::new(904);
    let h = sim.handle();
    let mut cluster = MilanaCluster::build(
        &h,
        MilanaClusterConfig {
            auto_failover: true,
            ..base_cfg()
        },
    );
    let eng = engine_for(&cluster, &h);
    let hh = h.clone();
    sim.block_on(async move {
        let from = ShardId(0);
        let new_shard = ShardId(cluster.map.borrow().len() as u32);
        let dest = cluster.provision_group(new_shard);
        let sources = sources_for(&cluster, from);
        eng.run(RebalancePlan::Split { from }, dest, sources).await;

        // Clients still hold pre-split private maps; their first writes to
        // moved keys draw StaleEpoch / Moved, refetch from the master, and
        // succeed on retry.
        let map = cluster.map.borrow().clone();
        let moved: Vec<u64> = (0..200u64)
            .filter(|i| map.shard_for(&k(*i)) == ShardId(2))
            .take(5)
            .collect();
        assert!(!moved.is_empty());
        let c = cluster.clients[0].clone();
        for (n, i) in moved.iter().enumerate() {
            let mut ok = false;
            for _ in 0..4 {
                let mut t = c.begin_with(TxnOpts::default());
                if t.get(&k(*i)).await.is_err() {
                    continue;
                }
                t.put(k(*i), value(vec![n as u8 + 1; 8]));
                if t.commit().await.is_ok() {
                    ok = true;
                    break;
                }
            }
            assert!(ok, "write to moved key {i} never committed");
            // The commit outcome is cast fire-and-forget; give the backend
            // apply a moment before asserting read-your-writes.
            hh.sleep(std::time::Duration::from_millis(5)).await;
            let mut t = c.begin_with(TxnOpts::default());
            let got = t.get(&k(*i)).await.unwrap();
            assert_eq!(got, value(vec![n as u8 + 1; 8]));
        }
    });
}

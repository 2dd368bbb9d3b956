//! Cooperative termination under partitions: a client that vanishes
//! mid-2PC leaves prepared records behind, and after the partition heals
//! the participants must converge on the *same* decision (§4.5).
//!
//! Two scenarios:
//! - The prepare never reached the second shard → the coordinator shard's
//!   CTP query sees a missing prepare and aborts everywhere.
//! - Both shards prepared but the votes (and the outcome) were lost → CTP
//!   sees unanimous prepares and commits everywhere.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Duration;

use milana_repro::flashsim::{value, Key, NandConfig};
use milana_repro::milana::client::TxnOpts;
use milana_repro::milana::cluster::{MilanaCluster, MilanaClusterConfig};
use milana_repro::milana::msg::{TxnId, TxnStatus};
use milana_repro::semel::shard::ShardId;
use milana_repro::simkit::net::NodeId;
use milana_repro::simkit::Sim;
use milana_repro::timesync::{ClockSpec, Timestamp};

fn enc(n: u64) -> milana_repro::flashsim::Value {
    value(Vec::from(n.to_be_bytes()))
}

fn dec(v: &[u8]) -> u64 {
    u64::from_be_bytes(v[..8].try_into().expect("u64"))
}

/// Clients occupy nodes `10_000 + i` in the cluster harness.
const CLIENT0: NodeId = NodeId(10_000);

fn build(sim: &Sim) -> MilanaCluster {
    MilanaCluster::build(
        &sim.handle(),
        MilanaClusterConfig {
            shards: 2,
            replicas: 3,
            clients: 1,
            nand: NandConfig {
                blocks: 512,
                pages_per_block: 8,
                ..NandConfig::default()
            },
            clock: ClockSpec::ptp_software(),
            preload_keys: 0,
            ..MilanaClusterConfig::default()
        },
    )
}

/// Two keys owned by different shards, the first on the lower shard id —
/// the designated CTP coordinator (participants sort ascending).
fn cross_shard_keys(cluster: &MilanaCluster) -> (Key, Key) {
    let map = cluster.map.borrow();
    let mut low = None;
    let mut high = None;
    for k in 0u64.. {
        let key = Key::from(k);
        let s = map.shard_for(&key);
        if s == ShardId(0) && low.is_none() {
            low = Some(key);
        } else if s == ShardId(1) && high.is_none() {
            high = Some(key);
        }
        if let (Some(low), Some(high)) = (low.clone(), high.clone()) {
            return (low, high);
        }
    }
    unreachable!("ring maps keys to both shards");
}

/// The single prepared transaction sitting in a primary's table.
fn stuck_txid(cluster: &MilanaCluster, shard: ShardId) -> TxnId {
    let table = cluster.primary(shard).table().borrow();
    let stuck: Vec<TxnId> = table
        .stuck_prepared(Timestamp::MAX)
        .into_iter()
        .map(|r| r.txid)
        .collect();
    assert_eq!(stuck.len(), 1, "exactly one prepared txn on {shard:?}");
    stuck[0]
}

fn status_of(cluster: &MilanaCluster, shard: ShardId, txid: TxnId) -> Option<TxnStatus> {
    cluster.primary(shard).table().borrow().status(txid)
}

/// Partition the client from shard 1's primary before a cross-shard
/// commit: shard 0 prepares, shard 1 never hears about the transaction,
/// and the client gives up with an unknown outcome. After the heal, shard
/// 0's CTP query finds no prepare on shard 1 and must abort — on both
/// sides, leaving the old values visible.
#[test]
fn missing_prepare_aborts_consistently_after_heal() {
    let mut sim = Sim::new(7100);
    let h = sim.handle();
    let cluster = build(&sim);
    let (ka, kb) = cross_shard_keys(&cluster);
    let client = cluster.clients[0].clone();

    // Seed both keys.
    {
        let client = client.clone();
        let (ka, kb) = (ka.clone(), kb.clone());
        let hh = h.clone();
        sim.block_on(async move {
            let mut t = client.begin_with(TxnOpts::default());
            t.put(ka, enc(1));
            t.put(kb, enc(1));
            t.commit().await.expect("seed commit");
            hh.sleep(Duration::from_millis(5)).await;
        });
    }

    // Cut the client off from shard 1's primary, then attempt the commit.
    let s1_primary = cluster.map.borrow().group(ShardId(1)).primary.node;
    h.partition(&[CLIENT0], &[s1_primary]);
    let outcome = Rc::new(Cell::new(None));
    {
        let client = client.clone();
        let (ka, kb) = (ka.clone(), kb.clone());
        let outcome = outcome.clone();
        let hh = h.clone();
        sim.block_on(async move {
            let mut t = client.begin_with(TxnOpts::default());
            t.put(ka, enc(2));
            t.put(kb, enc(2));
            outcome.set(Some(t.commit().await.is_ok()));
            hh.sleep(Duration::from_millis(10)).await;
        });
    }
    assert_eq!(
        outcome.get(),
        Some(false),
        "client cannot learn the outcome"
    );
    let txid = stuck_txid(&cluster, ShardId(0));
    assert_eq!(
        status_of(&cluster, ShardId(1), txid),
        None,
        "shard 1 never saw the prepare"
    );

    // Heal, then wait out the CTP threshold plus a scan period.
    h.heal_partitions();
    sim.block_on({
        let hh = h.clone();
        async move { hh.sleep(Duration::from_millis(900)).await }
    });

    // Both sides agree: aborted (shard 1 at most learned the abort).
    assert_eq!(
        status_of(&cluster, ShardId(0), txid),
        Some(TxnStatus::Aborted)
    );
    assert_ne!(
        status_of(&cluster, ShardId(1), txid),
        Some(TxnStatus::Committed)
    );
    assert!(
        cluster.primary(ShardId(0)).stats().ctp_resolutions >= 1,
        "shard 0 resolved the stuck prepare cooperatively"
    );

    // The aborted write must not be visible anywhere.
    let total = sim.block_on(async move {
        let mut t = client.begin_with(TxnOpts::default());
        let a = dec(&t.get(&ka).await.expect("read ka"));
        let b = dec(&t.get(&kb).await.expect("read kb"));
        t.commit().await.expect("read-only commit");
        (a, b)
    });
    assert_eq!(total, (1, 1), "aborted cross-shard write stayed invisible");
}

/// Partition the client from the whole cluster *after* its prepares are
/// in flight: both shards install and replicate the prepare, but the
/// votes — and any outcome — die on the wire. After the heal, CTP sees
/// unanimous prepares and must commit on both sides (the coordinator's
/// only possible decision was commit), making the writes visible even
/// though the client itself never learned the outcome.
#[test]
fn lost_votes_commit_consistently_after_heal() {
    let mut sim = Sim::new(7200);
    let h = sim.handle();
    let cluster = build(&sim);
    let (ka, kb) = cross_shard_keys(&cluster);
    let client = cluster.clients[0].clone();

    // Seed both keys.
    {
        let client = client.clone();
        let (ka, kb) = (ka.clone(), kb.clone());
        let hh = h.clone();
        sim.block_on(async move {
            let mut t = client.begin_with(TxnOpts::default());
            t.put(ka, enc(1));
            t.put(kb, enc(1));
            t.commit().await.expect("seed commit");
            hh.sleep(Duration::from_millis(5)).await;
        });
    }

    // Launch the commit, then isolate the client after the prepare
    // envelopes flush (the coordinator plane's zero deadline sends them
    // at once) but before the votes come back — each vote waits for the
    // primary's replication round to a backup, so it is sent between 70µs
    // and 80µs in (dropped at submission). Any instant from 5µs to 70µs
    // works.
    let outcome = Rc::new(Cell::new(None));
    {
        let client = client.clone();
        let (ka, kb) = (ka.clone(), kb.clone());
        let outcome = outcome.clone();
        let all_nodes: Vec<NodeId> = cluster
            .replicas
            .iter()
            .flatten()
            .map(|slot| slot.addr.node)
            .collect();
        let hh = h.clone();
        h.spawn(async move {
            let mut t = client.begin_with(TxnOpts::default());
            t.put(ka, enc(2));
            t.put(kb, enc(2));
            outcome.set(Some(t.commit().await.is_ok()));
        });
        sim.block_on(async move {
            hh.sleep(Duration::from_micros(40)).await;
            hh.partition(&[CLIENT0], &all_nodes);
            // Let the client time out and both shards settle.
            hh.sleep(Duration::from_millis(100)).await;
        });
    }
    assert_eq!(
        outcome.get(),
        Some(false),
        "client cannot learn the outcome"
    );
    let txid = stuck_txid(&cluster, ShardId(0));
    assert_eq!(
        stuck_txid(&cluster, ShardId(1)),
        txid,
        "same txn on both shards"
    );

    // Heal, then wait out the CTP threshold plus a scan period.
    h.heal_partitions();
    sim.block_on({
        let hh = h.clone();
        async move { hh.sleep(Duration::from_millis(900)).await }
    });

    // Both sides agree: committed.
    assert_eq!(
        status_of(&cluster, ShardId(0), txid),
        Some(TxnStatus::Committed)
    );
    assert_eq!(
        status_of(&cluster, ShardId(1), txid),
        Some(TxnStatus::Committed)
    );
    assert!(
        cluster.primary(ShardId(0)).stats().ctp_resolutions >= 1,
        "shard 0 resolved the stuck prepare cooperatively"
    );

    // The CTP-committed write is visible on both shards.
    let total = sim.block_on(async move {
        let mut t = client.begin_with(TxnOpts::default());
        let a = dec(&t.get(&ka).await.expect("read ka"));
        let b = dec(&t.get(&kb).await.expect("read kb"));
        t.commit().await.expect("read-only commit");
        (a, b)
    });
    assert_eq!(total, (2, 2), "CTP-committed cross-shard write is visible");
}

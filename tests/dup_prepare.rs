//! Regression test: a duplicated `Prepare` (at-least-once delivery) must
//! not be answered from the transaction table while the original
//! prepare's replication is still in flight.
//!
//! The record is installed as `Prepared` *before* replication completes,
//! so the retransmission fast-path would vote SUCCESS for a prepare that
//! may yet fail replication and abort — the coordinator could then commit
//! a transaction recorded on no backup, which a primary crash erases (a
//! lost acknowledged write). The chaos campaign found exactly this under
//! network duplication faults; the server now stays silent on duplicates
//! until the replication quorum settles.

use std::time::Duration;

use milana_repro::flashsim::{value, Key, NandConfig};
use milana_repro::milana::cluster::{MilanaCluster, MilanaClusterConfig};
use milana_repro::milana::msg::{TxnId, TxnRequest, TxnResponse, TxnStatus};
use milana_repro::semel::shard::ShardId;
use milana_repro::simkit::net::NodeId;
use milana_repro::simkit::rpc::{RpcClient, RpcError};
use milana_repro::simkit::Sim;
use milana_repro::timesync::{ClientId, ClockSpec, Timestamp};

#[test]
fn duplicate_prepare_mid_replication_gets_no_early_vote() {
    let mut sim = Sim::new(4242);
    let h = sim.handle();
    let cluster = MilanaCluster::build(
        &h,
        MilanaClusterConfig {
            shards: 1,
            replicas: 3,
            clients: 0,
            nand: NandConfig {
                blocks: 256,
                pages_per_block: 8,
                ..NandConfig::default()
            },
            clock: ClockSpec::ptp_software(),
            preload_keys: 0,
            ..MilanaClusterConfig::default()
        },
    );
    let primary = cluster.map.borrow().group(ShardId(0)).primary;
    let backups: Vec<NodeId> = cluster.replicas[0]
        .iter()
        .map(|slot| slot.addr.node)
        .filter(|&n| n != primary.node)
        .collect();
    assert_eq!(backups.len(), 2);

    // A bare RPC endpoint standing in for a (retransmitting) coordinator.
    let coordinator = RpcClient::new(&h, NodeId(30_000), 9);
    let txid = TxnId {
        client: ClientId(99),
        seq: 1,
    };
    let epoch = cluster.map.borrow().epoch();
    let prepare = move |ts_commit: Timestamp| TxnRequest::Prepare {
        txid,
        ts_commit,
        reads: Vec::new().into(),
        writes: vec![(Key::from(0u64), value(b"v".to_vec()))].into(),
        participants: vec![ShardId(0)].into(),
        epoch,
    };

    // Stall replication: the primary cannot reach its backups, so the
    // original prepare sits in its replication await for `REPL_TIMEOUT`.
    h.partition(&[primary.node], &backups);

    let (first, duplicate) = {
        let h2 = h.clone();
        let coordinator = coordinator.clone();
        sim.block_on(async move {
            let ts_commit = Timestamp::from_sim(h2.now());
            let coordinator2 = coordinator.clone();
            let original = h2.spawn(async move {
                coordinator2
                    .call::<TxnRequest, TxnResponse>(
                        primary,
                        prepare(ts_commit),
                        Duration::from_millis(200),
                    )
                    .await
            });
            // Let the original arrive and enter replication first.
            h2.sleep(Duration::from_millis(2)).await;
            let dup = coordinator
                .call::<TxnRequest, TxnResponse>(
                    primary,
                    prepare(ts_commit),
                    Duration::from_millis(5),
                )
                .await;
            (original.await, dup)
        })
    };

    // The duplicate must get silence (timeout), NOT an early Vote{ok}
    // leaked from the table's still-undurable Prepared record.
    assert!(
        matches!(duplicate, Err(RpcError::Timeout)),
        "duplicate prepare answered mid-replication: {duplicate:?}"
    );
    // The original resolves only after replication fails, voting abort.
    assert!(
        matches!(first, Ok(TxnResponse::Vote { ok: false })),
        "unreplicated prepare must vote abort: {first:?}"
    );
    assert_eq!(
        cluster.primary(ShardId(0)).table().borrow().status(txid),
        Some(TxnStatus::Aborted),
        "prepare that never reached a backup is aborted"
    );

    // After the decision, a retransmission is answered from the table.
    h.heal_partitions();
    let late = {
        let h2 = h.clone();
        sim.block_on(async move {
            let ts_commit = Timestamp::from_sim(h2.now());
            coordinator
                .call::<TxnRequest, TxnResponse>(
                    primary,
                    prepare(ts_commit),
                    Duration::from_millis(50),
                )
                .await
        })
    };
    assert!(
        matches!(late, Ok(TxnResponse::Vote { ok: false })),
        "post-decision retransmission answered from the table: {late:?}"
    );
}

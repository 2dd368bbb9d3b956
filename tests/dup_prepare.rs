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
//! until the replication quorum settles. A prepare whose replication fails
//! stays prepared, and silent, until its abort is durable on the backups.

use std::time::Duration;

use milana_repro::flashsim::{value, Key, NandConfig};
use milana_repro::milana::cluster::{MilanaCluster, MilanaClusterConfig};
use milana_repro::milana::msg::{TxnId, TxnRecord, TxnRequest, TxnResponse, TxnStatus};
use milana_repro::milana::ServerTuning;
use milana_repro::semel::shard::ShardId;
use milana_repro::simkit::net::{Addr, NodeId};
use milana_repro::simkit::rpc::{RpcClient, RpcError};
use milana_repro::simkit::{Sim, SimHandle};
use milana_repro::timesync::{ClientId, ClockSpec, Timestamp};

/// One shard of three replicas with no clients, paging sweeps
/// `catchup_batch` records at a time.
fn one_shard(h: &SimHandle, catchup_batch: usize) -> MilanaCluster {
    MilanaCluster::build(
        h,
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
            tuning: ServerTuning {
                catchup_batch,
                ..ServerTuning::default()
            },
            ..MilanaClusterConfig::default()
        },
    )
}

/// A single-shard prepare of `txid` writing key `key`.
fn prepare(txid: TxnId, key: u64, ts_commit: Timestamp, epoch: u64) -> TxnRequest {
    TxnRequest::Prepare {
        txid,
        ts_commit,
        reads: Vec::new().into(),
        writes: vec![(Key::from(key), value(b"v".to_vec()))].into(),
        participants: vec![ShardId(0)].into(),
        epoch,
    }
}

/// The shard's primary and its backups, in the order a promotion picks.
fn roles(cluster: &MilanaCluster) -> (Addr, Vec<Addr>) {
    let group = cluster.map.borrow().group(ShardId(0)).clone();
    (group.primary, group.backups)
}

/// Runs the simulation for `ms` milliseconds.
fn sleep(sim: &mut Sim, ms: u64) {
    let h = sim.handle();
    sim.block_on(async move { h.sleep(Duration::from_millis(ms)).await });
}

#[test]
fn duplicate_prepare_mid_replication_gets_no_early_vote() {
    let mut sim = Sim::new(4242);
    let h = sim.handle();
    let cluster = one_shard(&h, 64);
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
    let prepare = move |ts_commit: Timestamp| prepare(txid, 0, ts_commit, epoch);

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
    // The original gets no vote either: its replication failed, and the
    // abort cannot reach the backups while they are cut off.
    assert!(
        matches!(first, Err(RpcError::Timeout)),
        "unreplicated prepare answered before its abort was durable: {first:?}"
    );
    // Nor does cooperative termination decide it, however long the
    // backups stay cut off: the prepare's own abort is on its way.
    sleep(&mut sim, 800);
    assert_eq!(
        cluster.primary(ShardId(0)).table().borrow().status(txid),
        Some(TxnStatus::Prepared),
        "prepare decided before its abort reached a backup"
    );

    // Once the abort lands, a retransmission is answered from the table.
    h.heal_partitions();
    let late = {
        let h2 = h.clone();
        sim.block_on(async move {
            h2.sleep(Duration::from_millis(60)).await;
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
    assert_eq!(
        cluster.primary(ShardId(0)).table().borrow().status(txid),
        Some(TxnStatus::Aborted),
        "prepare that never reached a backup is aborted"
    );
}

/// A prepare whose replication round failed may still sit on a backup.
/// Promotion commits a single-shard prepared record, so the primary's
/// no-vote must wait until its abort is durable: here it reaches only the
/// backup that never saw the prepare, and the promoted backup that holds
/// the prepare learns the abort from that backup's log.
#[test]
fn an_aborted_prepare_a_backup_holds_stays_aborted_across_promotion() {
    let mut sim = Sim::new(4243);
    let h = sim.handle();
    let mut cluster = one_shard(&h, 64);
    let (primary, backups) = roles(&cluster);
    let (holder, other) = (backups[0], backups[1]);
    let coordinator = RpcClient::new(&h, NodeId(30_000), 9);
    let txid = TxnId {
        client: ClientId(99),
        seq: 1,
    };
    let epoch = cluster.map.borrow().epoch();
    let ts_commit = Timestamp::from_sim(h.now());
    // The promotion's candidate already holds the prepare, as if the
    // primary's round reached it and its ack was lost.
    let record = TxnRecord {
        txid,
        ts_commit,
        writes: vec![(Key::from(0u64), value(b"v".to_vec()))].into(),
        participants: vec![ShardId(0)].into(),
        status: TxnStatus::Prepared,
    };
    // Sent from the primary's node: a backup takes replication only from
    // the primary it follows.
    let round = RpcClient::new(&h, primary.node, 9);
    let held = sim.block_on(async move {
        let req = TxnRequest::ReplPrepare(record);
        let timeout = Duration::from_millis(50);
        round
            .call::<TxnRequest, TxnResponse>(holder, req, timeout)
            .await
    });
    assert!(matches!(held, Ok(TxnResponse::Ack)), "{held:?}");

    // The primary's round fails; 30 ms in, only the other backup is back.
    h.partition(&[primary.node], &[holder.node, other.node]);
    let vote = {
        let h2 = h.clone();
        sim.block_on(async move {
            let call = h2.spawn(async move {
                let req = prepare(txid, 0, ts_commit, epoch);
                let timeout = Duration::from_millis(200);
                coordinator
                    .call::<TxnRequest, TxnResponse>(primary, req, timeout)
                    .await
            });
            h2.sleep(Duration::from_millis(30)).await;
            h2.heal_partitions();
            h2.partition(&[primary.node], &[holder.node]);
            call.await
        })
    };
    assert!(
        matches!(vote, Ok(TxnResponse::Vote { ok: false })),
        "unreplicated prepare must vote abort: {vote:?}"
    );

    cluster.fail_primary(ShardId(0));
    h.heal_partitions();
    sim.block_on(cluster.promote_backup(ShardId(0)))
        .expect("promotion");
    assert_eq!(
        cluster.primary(ShardId(0)).table().borrow().status(txid),
        Some(TxnStatus::Aborted)
    );
    // The old primary comes back and learns nothing different.
    let old = cluster.replicas[0]
        .iter()
        .position(|slot| slot.addr == primary)
        .expect("old primary's slot");
    cluster.restart_replica_warm(ShardId(0), old);
    sleep(&mut sim, 200);
    for slot in &cluster.replicas[0] {
        let status = slot.server.table().borrow().status(txid);
        assert_eq!(status, Some(TxnStatus::Aborted), "{:?}", slot.addr);
    }
}

/// Algorithm 2 merges the logs of a majority before deciding anything: a
/// promoter cut off from every peer's log does not open on its own. It
/// gives up and is a backup again, and the next promotion, once the peers
/// can reach each other, opens on its log.
#[test]
fn a_promotion_opens_only_on_a_majority_of_logs() {
    let mut sim = Sim::new(4244);
    let h = sim.handle();
    let cluster = one_shard(&h, 64);
    let (_, backups) = roles(&cluster);
    cluster.fail_primary(ShardId(0));
    h.partition(&[backups[0].node], &[backups[1].node]);
    let promoted = sim.block_on(cluster.promote_backup(ShardId(0)));
    assert!(promoted.is_err(), "opened without a majority: {promoted:?}");
    let gave_up = cluster.primary(ShardId(0));
    assert_eq!(roles(&cluster).0, backups[0]);
    assert!(!gave_up.is_primary() && gave_up.is_serving());
    h.heal_partitions();
    sim.block_on(cluster.promote_backup(ShardId(0)))
        .expect("promotion");
    let primary = cluster.primary(ShardId(0));
    assert_eq!(roles(&cluster).0, backups[1]);
    assert!(primary.is_primary() && primary.is_serving());
}

/// Two candidates promoting at once, each cut off from the other, must not
/// both open once they meet: a promoting peer's log does not count toward
/// a majority. The first gives up and is a backup again, and the second
/// opens on its log: exactly one primary.
#[test]
fn two_candidates_across_a_healed_partition_open_one_primary() {
    let mut sim = Sim::new(4247);
    let h = sim.handle();
    let cluster = one_shard(&h, 64);
    let (_, backups) = roles(&cluster);
    cluster.fail_primary(ShardId(0));
    h.partition(&[backups[0].node], &[backups[1].node]);
    let first = cluster.promote_backup(ShardId(0));
    let second = cluster.promote_backup(ShardId(0));
    let (first, second) = {
        let h2 = h.clone();
        sim.block_on(async move {
            let first = h2.spawn(first);
            h2.sleep(Duration::from_millis(100)).await;
            let second = h2.spawn(second);
            h2.sleep(Duration::from_millis(200)).await;
            h2.heal_partitions();
            (first.await, second.await)
        })
    };
    assert!(first.is_err(), "opened on a promoting peer's log");
    second.expect("the second candidate opens once the first gave up");
    sleep(&mut sim, 200);
    let primaries: Vec<_> = cluster.replicas[0]
        .iter()
        .filter(|slot| !h.is_dead(slot.addr.node) && slot.server.is_primary())
        .map(|slot| slot.addr)
        .collect();
    assert_eq!(primaries, vec![backups[1]]);
    assert!(cluster.primary(ShardId(0)).is_serving());
}

/// A primary that still lives is no peer of a promotion: its log is not a
/// backup's, and its lease is not final while a backup it was not cut off
/// from grants it more. So a promoter that reaches only the old primary
/// gives up, and the old primary keeps serving; once a majority of
/// backups is swept, it loses its lease.
#[test]
fn a_live_primary_is_no_peer_of_a_promotion() {
    let mut sim = Sim::new(4248);
    let h = sim.handle();
    let cluster = one_shard(&h, 64);
    let (old, backups) = roles(&cluster);
    sleep(&mut sim, 50);
    h.partition(&[backups[0].node], &[backups[1].node]);
    let promoted = sim.block_on(cluster.promote_backup(ShardId(0)));
    assert!(
        promoted.is_err(),
        "opened on the old primary's log: {promoted:?}"
    );
    let read = |sim: &mut Sim| {
        let (h, rpc) = (sim.handle(), cluster.master_rpc.clone());
        sim.block_on(async move {
            let req = TxnRequest::ReadAt {
                key: Key::from(0u64),
                at: Timestamp::from_sim(h.now()),
                client: ClientId(0),
            };
            rpc.call::<TxnRequest, TxnResponse>(old, req, Duration::from_millis(50))
                .await
        })
    };
    let served = read(&mut sim);
    assert!(
        matches!(served, Ok(TxnResponse::NotFound)),
        "the old primary lost its lease to a promotion that gave up: {served:?}"
    );
    h.heal_partitions();
    sim.block_on(cluster.promote_backup(ShardId(0)))
        .expect("promotion");
    let refused = read(&mut sim);
    assert!(
        matches!(refused, Ok(TxnResponse::NotReady)),
        "the old primary served a read after the promotion: {refused:?}"
    );
}

/// A power-failed replica lost its log, so it adds nothing to a majority;
/// but once every peer has answered and the rest lost their logs, there is
/// no other log to wait for. Here the primary dies, one backup is cold,
/// and the promotion of the other opens only once the old primary is back,
/// cold too. Both cold replicas then catch up from it.
#[test]
fn a_promotion_opens_once_every_other_log_is_lost() {
    let mut sim = Sim::new(4249);
    let h = sim.handle();
    let mut cluster = one_shard(&h, 64);
    let (primary, backups) = roles(&cluster);
    let slot = |cluster: &MilanaCluster, addr: Addr| {
        cluster.replicas[0]
            .iter()
            .position(|slot| slot.addr == addr)
            .expect("slot")
    };
    let (old, cold) = (slot(&cluster, primary), slot(&cluster, backups[1]));
    cluster.power_fail_replica(ShardId(0), cold);
    cluster.restart_replica_cold(ShardId(0), cold);
    cluster.power_fail_replica(ShardId(0), old);
    let promoted = sim.block_on(cluster.promote_backup(ShardId(0)));
    assert!(
        promoted.is_err(),
        "opened with the old primary's log unread"
    );
    cluster.restart_replica_cold(ShardId(0), old);
    // The map still names the warm backup; promote it again.
    let rpc = cluster.master_rpc.clone();
    let (warm, rest) = (backups[0], vec![backups[1], primary]);
    assert_eq!(roles(&cluster).0, warm);
    let promoted = sim.block_on(async move {
        let req = TxnRequest::Promote { backups: rest };
        rpc.call::<TxnRequest, TxnResponse>(warm, req, Duration::from_secs(2))
            .await
    });
    assert!(
        matches!(promoted, Ok(TxnResponse::PromoteOk)),
        "{promoted:?}"
    );
    sleep(&mut sim, 300);
    assert!(cluster.replicas[0]
        .iter()
        .all(|slot| slot.server.is_serving()));
}

/// A promotion pages every log it merges, so a table many pages long
/// reaches the promoter, and from it every other replica, whole.
#[test]
fn a_promotion_sweeps_a_table_many_pages_long() {
    const TXNS: u64 = 40;
    let mut sim = Sim::new(4245);
    let h = sim.handle();
    let mut cluster = one_shard(&h, 2);
    let (primary, backups) = roles(&cluster);
    // Only the second backup sees this stretch of the log.
    h.partition(&[primary.node], &[backups[0].node]);
    let coordinator = RpcClient::new(&h, NodeId(30_000), 9);
    let epoch = cluster.map.borrow().epoch();
    let txid = |seq| TxnId {
        client: ClientId(99),
        seq,
    };
    {
        let h2 = h.clone();
        sim.block_on(async move {
            let timeout = Duration::from_millis(100);
            for seq in 1..=TXNS {
                let ts_commit = Timestamp::from_sim(h2.now());
                let req = prepare(txid(seq), seq, ts_commit, epoch);
                let vote = coordinator
                    .call::<TxnRequest, TxnResponse>(primary, req, timeout)
                    .await;
                assert!(
                    matches!(vote, Ok(TxnResponse::Vote { ok: true })),
                    "{vote:?}"
                );
                // Decide two in three; the rest stay prepared.
                if seq % 3 != 0 {
                    let decide = TxnRequest::Outcome {
                        txid: txid(seq),
                        commit: seq % 3 == 1,
                    };
                    coordinator
                        .call::<TxnRequest, TxnResponse>(primary, decide, timeout)
                        .await
                        .expect("outcome");
                }
            }
            h2.sleep(Duration::from_millis(10)).await;
        });
    }
    assert!(cluster.replicas[0].iter().all(|slot| {
        let len = slot.server.table().borrow().len() as u64;
        if slot.addr == backups[0] {
            len == 0
        } else {
            len == TXNS
        }
    }));
    cluster.fail_primary(ShardId(0));
    h.heal_partitions();
    sim.block_on(cluster.promote_backup(ShardId(0)))
        .expect("promotion");
    let old = cluster.replicas[0]
        .iter()
        .position(|slot| slot.addr == primary)
        .expect("old primary's slot");
    cluster.restart_replica_warm(ShardId(0), old);
    sleep(&mut sim, 300);
    for seq in 1..=TXNS {
        let statuses: Vec<_> = cluster.replicas[0]
            .iter()
            .map(|slot| slot.server.table().borrow().status(txid(seq)))
            .collect();
        // A promotion commits a prepared single-shard transaction.
        let expect = if seq % 3 == 2 {
            TxnStatus::Aborted
        } else {
            TxnStatus::Committed
        };
        assert_eq!(statuses, vec![Some(expect); 3], "txn {seq}");
    }
}

/// The lease a promotion waits out is final only if nobody grants the old
/// primary more: neither a swept backup nor the promoter itself. So an old
/// primary that nobody told of its demotion stops serving reads by the time
/// the new one opens.
#[test]
fn a_promotion_leaves_the_old_primary_no_lease() {
    let mut sim = Sim::new(4246);
    let h = sim.handle();
    let cluster = one_shard(&h, 64);
    let (old, _) = roles(&cluster);
    sleep(&mut sim, 50);
    sim.block_on(cluster.promote_backup(ShardId(0)))
        .expect("promotion");
    let rpc = cluster.master_rpc.clone();
    let read = sim.block_on(async move {
        let req = TxnRequest::ReadAt {
            key: Key::from(0u64),
            at: Timestamp::from_sim(h.now()),
            client: ClientId(0),
        };
        rpc.call::<TxnRequest, TxnResponse>(old, req, Duration::from_millis(50))
            .await
    });
    assert!(
        matches!(read, Ok(TxnResponse::NotReady)),
        "the old primary served a read after the promotion: {read:?}"
    );
}

/// A backup a promotion swept follows the new primary: the old one, still
/// alive and not told of its demotion, gets no vote for a prepare, because
/// neither the swept backup nor the new primary acks its replication.
#[test]
fn a_deposed_primary_makes_nothing_durable_on_a_swept_backup() {
    let mut sim = Sim::new(4250);
    let h = sim.handle();
    let cluster = one_shard(&h, 64);
    let (old, _) = roles(&cluster);
    sleep(&mut sim, 50);
    let epoch = cluster.map.borrow().epoch();
    sim.block_on(cluster.promote_backup(ShardId(0)))
        .expect("promotion");
    let coordinator = RpcClient::new(&h, NodeId(30_000), 9);
    let txid = TxnId {
        client: ClientId(99),
        seq: 1,
    };
    let vote = sim.block_on(async move {
        let req = prepare(txid, 0, Timestamp::from_sim(h.now()), epoch);
        coordinator
            .call::<TxnRequest, TxnResponse>(old, req, Duration::from_millis(200))
            .await
    });
    assert!(
        matches!(vote, Err(RpcError::Timeout)),
        "a deposed primary voted on a prepare: {vote:?}"
    );
    for slot in &cluster.replicas[0] {
        if slot.addr != old {
            let status = slot.server.table().borrow().status(txid);
            assert_eq!(status, None, "{:?} took it", slot.addr);
        }
    }
}

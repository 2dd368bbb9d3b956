//! The nemesis: a simulation task that walks a [`FaultPlan`] against a
//! running [`MilanaCluster`], injecting each fault at its scheduled time
//! and undoing it after its embedded hold period.
//!
//! The nemesis is strictly sequential — one fault is fully applied and
//! recovered before the next fires — which keeps randomly generated plans
//! survivable (a crash cycle always restores 2f+1 replicas before the next
//! crash can target the same shard) and keeps runs deterministic. After
//! the last fault, [`finale`] force-heals everything so the caller's audit
//! transaction can always complete.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use flashsim::Key;
use milana::cluster::{MilanaCluster, MASTER_NODE};
use milana::msg::TxnRequest;
use milana::PromoteError;
use semel::shard::ShardId;
use simkit::net::{NetFaultConfig, NodeId};
use simkit::rpc::RpcClient;
use simkit::SimHandle;
use timesync::ClientId;

use crate::plan::{Fault, FaultPlan};

/// Clients occupy nodes `10_000 + i` (mirrors the cluster harness's
/// layout, which is not exported).
fn client_node(i: u32) -> NodeId {
    NodeId(10_000 + i)
}

/// The overload flooder sends from its own node so partitions targeting
/// cluster nodes never silence it by accident.
const FLOOD_NODE: NodeId = NodeId(20_000);

/// The client id the flood's reads carry: no cluster client has it.
const FLOOD_CLIENT: ClientId = ClientId(FLOOD_NODE.0);

/// One fault as actually applied.
#[derive(Debug, Clone)]
pub(crate) struct AppliedFault {
    /// Fault class (see [`Fault::class`]).
    pub(crate) class: &'static str,
    /// False when the injection itself failed (e.g. the promotion after a
    /// crash found no live backup); the campaign records these per class.
    pub(crate) ok: bool,
}

/// What the nemesis did.
#[derive(Debug, Clone, Default)]
pub struct NemesisReport {
    /// Every fault in application order.
    pub(crate) applied: Vec<AppliedFault>,
    /// Promotions that returned an error (recorded, then retried by the
    /// finale).
    pub(crate) promote_failures: u64,
}

impl NemesisReport {
    /// Number of faults that applied cleanly.
    pub fn ok_count(&self) -> usize {
        self.applied.iter().filter(|f| f.ok).count()
    }
}

fn all_nodes(cluster: &MilanaCluster) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = cluster
        .replicas
        .iter()
        .flatten()
        .map(|slot| slot.addr.node)
        .collect();
    nodes.extend((0..cluster.config.clients).map(client_node));
    nodes.push(MASTER_NODE);
    nodes
}

fn isolate(h: &SimHandle, cluster: &MilanaCluster, node: NodeId) {
    let others: Vec<NodeId> = all_nodes(cluster)
        .into_iter()
        .filter(|&n| n != node)
        .collect();
    h.partition(&[node], &others);
}

async fn restart_dead_replicas(
    h: &SimHandle,
    cluster: &Rc<RefCell<MilanaCluster>>,
    shard: ShardId,
) {
    let replicas = cluster.borrow().config.replicas as usize;
    for idx in 0..replicas {
        let dead = {
            let c = cluster.borrow();
            h.is_dead(c.replicas[shard.0 as usize][idx].addr.node)
        };
        if dead {
            // A power-failed replica has no DRAM to warm-restart from: it
            // must take the cold path (flash mount scan + anti-entropy
            // catch-up). Everything else restarts warm, the historical
            // OS-process-crash model.
            let mut c = cluster.borrow_mut();
            if c.is_power_failed(shard, idx) {
                c.restart_replica_cold(shard, idx);
            } else {
                c.restart_replica_warm(shard, idx);
            }
        }
    }
}

async fn apply_one(
    h: &SimHandle,
    cluster: &Rc<RefCell<MilanaCluster>>,
    fault: &Fault,
    flood_rpc: &RpcClient,
    report: &mut NemesisReport,
) -> bool {
    match fault {
        Fault::CrashPrimary {
            shard,
            restart_after,
        } => {
            let shard = ShardId(*shard);
            let promote = {
                let c = cluster.borrow();
                c.fail_primary(shard);
                c.promote_backup(shard)
            };
            let ok = match promote.await {
                Ok(()) => true,
                Err(PromoteError::NoLiveBackup)
                | Err(PromoteError::Unreachable)
                | Err(PromoteError::NotABackup) => {
                    report.promote_failures += 1;
                    false
                }
            };
            h.sleep(*restart_after).await;
            restart_dead_replicas(h, cluster, shard).await;
            ok
        }
        Fault::PartitionPrimary { shard, heal_after } => {
            {
                let c = cluster.borrow();
                let primary = c.map.borrow().group(ShardId(*shard)).primary;
                isolate(h, &c, primary.node);
            }
            h.sleep(*heal_after).await;
            h.heal_partitions();
            true
        }
        Fault::PartitionClient { client, heal_after } => {
            {
                let c = cluster.borrow();
                isolate(h, &c, client_node(*client));
            }
            h.sleep(*heal_after).await;
            h.heal_partitions();
            true
        }
        Fault::NetDegrade { cfg, restore_after } => {
            h.set_net_faults(cfg.clone());
            h.sleep(*restore_after).await;
            h.set_net_faults(NetFaultConfig::default());
            true
        }
        Fault::ClockStep { client, delta_ns } => {
            let c = cluster.borrow();
            c.clients[*client as usize].clock().inject_step(*delta_ns);
            true
        }
        Fault::ClockDrift {
            client,
            rate_ns_per_s,
            hold,
        } => {
            {
                let c = cluster.borrow();
                c.clients[*client as usize]
                    .clock()
                    .inject_drift(*rate_ns_per_s, h.now());
            }
            h.sleep(*hold).await;
            // Restore the rate; the accrued offset stays until the next
            // resync corrects it (drift damage is not magically undone).
            let c = cluster.borrow();
            c.clients[*client as usize].clock().inject_drift(0, h.now());
            true
        }
        Fault::ClockJump {
            client,
            delta_ns,
            holdover,
        } => {
            {
                let c = cluster.borrow();
                let clock = c.clients[*client as usize].clock();
                clock.inject_step(*delta_ns);
                clock.enter_holdover();
            }
            h.sleep(*holdover).await;
            let c = cluster.borrow();
            c.clients[*client as usize].clock().exit_holdover(h.now());
            true
        }
        Fault::Overload {
            shard,
            burst_rps,
            restore_after,
        } => {
            // Fire-and-forget `ReadAt` casts: real admission cost and
            // backend reads on the primary, but no replies to wait for.
            // Each reads at the primary's applied watermark, its write
            // floor: the prepare fence keeps every future `ts_commit`
            // above it, so the read mark it leaves can never fail a
            // prepare. Sent as back-to-back per-millisecond bursts so the
            // casts arrive clustered and actually spike the in-flight cost
            // past the admission gate, instead of trickling through one at
            // a time.
            let (addr, primary) = {
                let c = cluster.borrow();
                let shard = ShardId(*shard);
                let addr = c.map.borrow().group(shard).primary;
                (addr, c.primary(shard).clone())
            };
            let per_tick = (*burst_rps / 1_000).max(1);
            let until = h.now() + *restore_after;
            let mut i = 0u64;
            while h.now() < until {
                let at = primary.table().borrow().applied_watermark();
                for _ in 0..per_tick {
                    flood_rpc.cast(
                        addr,
                        TxnRequest::ReadAt {
                            key: Key::from(i % 8),
                            at,
                            client: FLOOD_CLIENT,
                        },
                    );
                    i += 1;
                }
                h.sleep(Duration::from_millis(1)).await;
            }
            true
        }
        Fault::PowerFail {
            shard,
            restart_after,
        } => {
            let shard = ShardId(*shard);
            let promote = {
                let c = cluster.borrow();
                let primary = c.map.borrow().group(shard).primary;
                let idx = c.replicas[shard.0 as usize]
                    .iter()
                    .position(|slot| slot.addr == primary)
                    .expect("mapped primary has a replica slot");
                c.power_fail_replica(shard, idx);
                c.promote_backup(shard)
            };
            let ok = match promote.await {
                Ok(()) => true,
                Err(PromoteError::NoLiveBackup)
                | Err(PromoteError::Unreachable)
                | Err(PromoteError::NotABackup) => {
                    report.promote_failures += 1;
                    false
                }
            };
            h.sleep(*restart_after).await;
            restart_dead_replicas(h, cluster, shard).await;
            ok
        }
        Fault::FlashDegrade {
            shard,
            replica,
            cfg,
            restore_after,
        } => {
            {
                let c = cluster.borrow();
                c.replicas[*shard as usize][*replica as usize]
                    .server
                    .backend()
                    .inject_media_faults(cfg.clone());
            }
            h.sleep(*restore_after).await;
            let c = cluster.borrow();
            c.replicas[*shard as usize][*replica as usize]
                .server
                .backend()
                .inject_media_faults(Default::default());
            true
        }
    }
}

/// Applies `plan` to `cluster` in order, then runs [`finale`]. Returns a
/// report of what was injected; injection failures (e.g. a promotion that
/// raced another fault) are recorded, not panicked.
pub async fn run_nemesis(
    h: &SimHandle,
    cluster: &Rc<RefCell<MilanaCluster>>,
    plan: &FaultPlan,
) -> NemesisReport {
    let mut report = NemesisReport::default();
    let flood_rpc = RpcClient::new(h, FLOOD_NODE, 7);
    for timed in &plan.faults {
        h.sleep(timed.after).await;
        let class = timed.fault.class();
        let ok = apply_one(h, cluster, &timed.fault, &flood_rpc, &mut report).await;
        report.applied.push(AppliedFault { class, ok });
    }
    finale(h, cluster).await;
    report
}

/// Force-recovers the cluster: heals partitions, clears network and media
/// faults, restarts every dead replica, and retries promotion until every
/// shard has a live serving primary. Guarantees a subsequent audit
/// transaction can complete.
pub(crate) async fn finale(h: &SimHandle, cluster: &Rc<RefCell<MilanaCluster>>) {
    h.heal_partitions();
    h.set_net_faults(NetFaultConfig::default());
    {
        let c = cluster.borrow();
        for slot in c.replicas.iter().flatten() {
            slot.server
                .backend()
                .inject_media_faults(Default::default());
        }
    }
    let shards = cluster.borrow().config.shards;
    for s in 0..shards {
        restart_dead_replicas(h, cluster, ShardId(s)).await;
    }
    // Every replica is alive now; make sure each shard's mapped primary
    // actually serves (a crash may have been followed by a failed
    // promotion, or the mapped primary may have died while partitioned).
    for s in 0..shards {
        let shard = ShardId(s);
        for _attempt in 0..10 {
            let serving = {
                let c = cluster.borrow();
                let primary = c.map.borrow().group(shard).primary;
                !h.is_dead(primary.node) && c.primary(shard).is_primary()
            };
            if serving {
                break;
            }
            let promote = cluster.borrow().promote_backup(shard);
            let _ = promote.await;
            h.sleep(Duration::from_millis(20)).await;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use milana::cluster::MilanaClusterConfig;
    use milana::msg::{TxnId, TxnResponse};
    use simkit::Sim;
    use timesync::Timestamp;

    /// The flood sheds at the primary it targets, and the reads it gets
    /// served leave their marks at the write floor: a prepare stamped just
    /// above the floor on a flooded key still votes yes.
    #[test]
    fn the_overload_flood_sheds_and_fails_no_prepare_above_the_floor() {
        let mut sim = Sim::new(3);
        let h = sim.handle();
        let obs = obskit::Obs::new();
        let mut cfg = MilanaClusterConfig {
            shards: 1,
            replicas: 1,
            clients: 0,
            preload_keys: 16,
            ..MilanaClusterConfig::default()
        };
        cfg.tuning.obs = obs.clone();
        let cluster = Rc::new(RefCell::new(MilanaCluster::build(&h, cfg)));
        let hh = h.clone();
        sim.block_on(async move {
            let (addr, primary, rpc) = {
                let c = cluster.borrow();
                let slot = &c.replicas[0][0];
                (slot.addr, slot.server.clone(), c.master_rpc.clone())
            };
            // One client's write-floor promise, and nothing else moves it.
            let client = ClientId(9);
            let floor = Timestamp(1_000_000);
            rpc.cast(addr, TxnRequest::FloorReport { client, ts: floor });
            hh.sleep(Duration::from_millis(2)).await;
            assert_eq!(primary.table().borrow().applied_watermark(), floor);

            let flood = Fault::Overload {
                shard: 0,
                burst_rps: 1_000_000,
                restore_after: Duration::from_millis(5),
            };
            let flood_rpc = RpcClient::new(&hh, FLOOD_NODE, 7);
            let mut report = NemesisReport::default();
            assert!(apply_one(&hh, &cluster, &flood, &flood_rpc, &mut report).await);
            hh.sleep(Duration::from_millis(5)).await;
            let node = addr.node.0;
            let sheds = obs
                .registry
                .counter(&format!("loadkit.node{node}.sheds_overload"))
                .get();
            assert!(sheds > 0, "the flood never shed");
            assert!(primary.stats().gets > 0, "the primary served no read");

            let prepare = TxnRequest::Prepare {
                txid: TxnId { client, seq: 1 },
                ts_commit: Timestamp(floor.0 + 1),
                reads: Vec::new().into(),
                writes: vec![(Key::from(0), flashsim::value(&b"w"[..]))].into(),
                participants: vec![ShardId(0)].into(),
                epoch: 0,
            };
            let vote = rpc
                .call::<TxnRequest, TxnResponse>(addr, prepare, Duration::from_millis(50))
                .await
                .unwrap();
            assert!(matches!(vote, TxnResponse::Vote { ok: true }), "{vote:?}");
        });
    }
}

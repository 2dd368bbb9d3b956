//! Harness that boots a full MILANA deployment inside a simulation —
//! sharded, replicated transaction servers plus clients — with fault
//! injection helpers (primary failover, replica restart) acting as the
//! paper's "global master".

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use flashsim::{BackendKind, NandConfig};
use semel::cluster::{client_node, layout, new_backend, preload};
use semel::shard::{ReplicaGroup, ShardId, ShardMap};
use simkit::net::{Addr, NodeId};
use simkit::rpc::RpcClient;
use simkit::SimHandle;
use timesync::{ClientId, ClockSpec};

use crate::client::{TxnClient, TxnClientConfig};
use crate::msg::{PromoteError, TxnRequest, TxnResponse};
use crate::server::{ServerTuning, TxnServer, TxnServerConfig};
use crate::table::TxnTable;

/// Deployment shape and substrate parameters.
#[derive(Debug, Clone)]
pub struct MilanaClusterConfig {
    /// Number of data shards.
    pub shards: u32,
    /// Replicas per shard (odd: 1 primary + 2f backups).
    pub replicas: u32,
    /// Number of clients.
    pub clients: u32,
    /// Storage backend kind.
    pub backend: BackendKind,
    /// Device geometry for flash backends.
    pub nand: NandConfig,
    /// Client clock model (discipline plus fault knobs).
    pub clock: ClockSpec,
    /// Keys preloaded as ids `0..preload_keys`.
    pub preload_keys: u64,
    /// Preloaded value size.
    pub value_size: usize,
    /// Client tuning.
    pub client_cfg: TxnClientConfig,
    /// Server tuning.
    pub tuning: ServerTuning,
    /// Network latency model installed at build time.
    pub net: simkit::net::LatencyConfig,
    /// When true, a master service runs with heartbeat failure detection
    /// and **automatic** failover; each client keeps a private shard map
    /// refreshed from the master. When false, the harness owns failover
    /// ([`MilanaCluster::promote_backup`]) and all clients share one map.
    pub auto_failover: bool,
}

impl Default for MilanaClusterConfig {
    fn default() -> MilanaClusterConfig {
        MilanaClusterConfig {
            shards: 1,
            replicas: 3,
            clients: 2,
            backend: BackendKind::Mftl,
            nand: NandConfig::default(),
            clock: ClockSpec::ptp_software(),
            preload_keys: 0,
            value_size: 472,
            client_cfg: TxnClientConfig::default(),
            tuning: ServerTuning::default(),
            net: simkit::net::LatencyConfig::default(),
            auto_failover: false,
        }
    }
}

/// One replica slot: the running server plus the persistent handles needed
/// to restart it after a crash.
#[derive(Debug)]
pub struct ReplicaSlot {
    /// The running server (handle remains valid even if its node is dead).
    pub server: TxnServer,
    /// The replica's service address.
    pub addr: Addr,
}

/// A running MILANA deployment.
#[derive(Debug)]
pub struct MilanaCluster {
    /// Shared shard map (the master's view; mutated on failover). With
    /// `auto_failover`, clients hold *private* copies refreshed from the
    /// [`MilanaCluster::master`] service instead.
    pub map: Rc<RefCell<ShardMap>>,
    /// The master service, when `auto_failover` is enabled.
    pub master: Option<semel::master::Master>,
    /// Clients.
    pub clients: Vec<TxnClient>,
    /// Replica slots, `[shard][replica]`; index 0 is the initial primary.
    pub replicas: Vec<Vec<ReplicaSlot>>,
    /// The harness's own RPC endpoint (the "master").
    pub master_rpc: RpcClient,
    /// Build configuration.
    pub config: MilanaClusterConfig,
    /// Replicas whose last failure was a power failure (backend volatile
    /// state torn): these must restart cold, never warm.
    power_failed: RefCell<std::collections::BTreeSet<(u32, usize)>>,
    handle: SimHandle,
}

/// Service port for MILANA shard servers.
pub const SERVER_PORT: u16 = semel::cluster::SERVER_PORT;

/// The master/harness node.
pub const MASTER_NODE: NodeId = NodeId(20_000);

/// The master's service address (when `auto_failover` runs one).
const MASTER_ADDR: Addr = Addr {
    node: MASTER_NODE,
    port: 4,
};

/// The config of a replica of `shard` at `addr` as a warm backup that
/// trusts no floor stream yet; callers adjust it for any other role.
fn replica_cfg(config: &MilanaClusterConfig, shard: ShardId, addr: Addr) -> TxnServerConfig {
    let mut tuning = config.tuning.clone();
    if config.auto_failover {
        tuning.master = Some(MASTER_ADDR);
    }
    TxnServerConfig {
        shard,
        addr,
        backups: Vec::new(),
        is_primary: false,
        clients: (0..config.clients).map(ClientId).collect(),
        primary_node: None,
        cold_start: false,
        tuning,
    }
}

/// Boots a fresh replica group for `shard` — empty backends and tables,
/// `group.primary` serving as primary, the backups trusting its floor
/// stream from birth — and returns its slot row.
fn spawn_group(
    handle: &SimHandle,
    config: &MilanaClusterConfig,
    map: &Rc<RefCell<ShardMap>>,
    shard: ShardId,
    group: &ReplicaGroup,
) -> Vec<ReplicaSlot> {
    group
        .all()
        .into_iter()
        .map(|addr| {
            let backend = new_backend(
                config.backend,
                handle,
                &config.nand,
                &config.tuning.obs,
                addr.node,
            );
            let table = Rc::new(RefCell::new(TxnTable::new()));
            let mut cfg = replica_cfg(config, shard, addr);
            if addr == group.primary {
                cfg.backups = group.backups.clone();
                cfg.is_primary = true;
            } else {
                cfg.primary_node = Some(group.primary.node);
            }
            let server = TxnServer::spawn(handle, backend, table, map.clone(), cfg);
            ReplicaSlot { server, addr }
        })
        .collect()
}

impl MilanaCluster {
    /// Boots the deployment; zero virtual time elapses.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is even or zero.
    pub fn build(handle: &SimHandle, config: MilanaClusterConfig) -> MilanaCluster {
        let groups = layout(config.shards, config.replicas);
        handle.set_latency(config.net.clone());
        let map = Rc::new(RefCell::new(ShardMap::new(groups.clone())));

        let replicas: Vec<Vec<ReplicaSlot>> = groups
            .iter()
            .enumerate()
            .map(|(s, group)| spawn_group(handle, &config, &map, ShardId(s as u32), group))
            .collect();

        preload(
            &map.borrow(),
            config.preload_keys,
            config.value_size,
            &replicas,
            |slot| slot.server.backend(),
        );

        // Auto mode: spawn the master with a promoter that drives MILANA's
        // recovery RPC, and give every client a private map + master addr.
        let master = if config.auto_failover {
            let promote_rpc = RpcClient::new(handle, MASTER_NODE, 5);
            let tuning = config.tuning.clone();
            let shared_map = map.clone();
            let promoter: semel::master::Promoter = Rc::new(move |shard, new_primary, peers| {
                let rpc = promote_rpc.clone();
                let tuning = tuning.clone();
                let shared_map = shared_map.clone();
                Box::pin(async move {
                    let ok = matches!(
                        rpc.call::<TxnRequest, TxnResponse>(
                            new_primary,
                            TxnRequest::Promote { backups: peers },
                            tuning.repl_timeout * 80,
                        )
                        .await,
                        Ok(TxnResponse::PromoteOk)
                    );
                    if ok {
                        // Keep the servers' shared directory view in step
                        // (servers use it for cross-shard recovery queries).
                        // A false return means this view already moved on
                        // (harness-driven promotion raced us); the RPC
                        // target is primary either way.
                        let _ = shared_map.borrow_mut().promote(shard, new_primary);
                    }
                    ok
                })
            });
            Some(semel::master::Master::spawn(
                handle,
                semel::master::MasterConfig {
                    addr: MASTER_ADDR,
                    // Share the cluster's obs bundle so the master's
                    // `map_fetches` / `master_failovers` counters land in
                    // the same registry the harness and benches read.
                    obs: config.tuning.obs.clone(),
                },
                map.borrow().clone(),
                promoter,
            ))
        } else {
            None
        };

        let clients = (0..config.clients)
            .map(|i| {
                let client_map = if config.auto_failover {
                    Rc::new(RefCell::new(map.borrow().clone()))
                } else {
                    map.clone()
                };
                let mut client_cfg = config.client_cfg.clone();
                // One obs bundle per cluster: clients share the sinks the
                // servers trace into.
                client_cfg.obs = config.tuning.obs.clone();
                if config.auto_failover {
                    client_cfg.master = Some(MASTER_ADDR);
                }
                TxnClient::new(
                    handle,
                    client_node(i),
                    ClientId(i),
                    client_map,
                    &config.clock,
                    client_cfg,
                )
            })
            .collect();

        MilanaCluster {
            map,
            master,
            clients,
            replicas,
            master_rpc: RpcClient::new(handle, MASTER_NODE, 0),
            config,
            power_failed: RefCell::new(std::collections::BTreeSet::new()),
            handle: handle.clone(),
        }
    }

    /// The current primary server handle of `shard`. Searches every slot
    /// row, not just `replicas[shard]` — after a whole-shard move the
    /// serving group lives in a provisioned row appended at the end.
    pub fn primary(&self, shard: ShardId) -> &TxnServer {
        let addr = self.map.borrow().group(shard).primary;
        self.replicas
            .iter()
            .flatten()
            .find(|s| s.addr == addr)
            .map(|s| &s.server)
            .expect("primary address present in slots")
    }

    /// Provisions a fresh, empty replica group to act as the destination
    /// of a live migration: spawns `config.replicas` servers for `shard`
    /// on brand-new nodes (primary first), appends their slot row, and
    /// returns the group. The shard id may be one the map does not know
    /// yet (a split's new shard) — routing reaches the group only when
    /// the rebalance engine installs the cutover.
    pub fn provision_group(&mut self, shard: ShardId) -> ReplicaGroup {
        let extra = self
            .replicas
            .iter()
            .flatten()
            .filter(|s| s.addr.node.0 >= 30_000)
            .count() as u32;
        let base = 30_000 + extra;
        let addrs: Vec<Addr> = (0..self.config.replicas)
            .map(|r| Addr::new(NodeId(base + r), SERVER_PORT))
            .collect();
        let group = ReplicaGroup {
            primary: addrs[0],
            backups: addrs[1..].to_vec(),
        };
        let slots = spawn_group(&self.handle, &self.config, &self.map, shard, &group);
        self.replicas.push(slots);
        group
    }

    /// Kills the node hosting `shard`'s current primary (its storage and
    /// transaction table survive, as persistent memory would).
    pub fn fail_primary(&self, shard: ShardId) {
        let addr = self.map.borrow().group(shard).primary;
        self.handle.kill_node(addr.node);
    }

    /// Master failover (§4.5): promotes `shard`'s first *live* backup,
    /// updates the shard map (bumping its epoch), and waits for the new
    /// primary to finish recovery (log merge, table push, lease wait).
    ///
    /// Returns a `'static` future so callers can drive it with
    /// `Sim::block_on` without borrowing the cluster.
    ///
    /// # Errors
    ///
    /// [`PromoteError`] when no live backup exists, the candidate raced out
    /// of the group, or the promotion RPC got no answer (the candidate may
    /// have crashed mid-recovery). Fault-injection harnesses record these
    /// and retry; steady-state failovers never hit them.
    pub fn promote_backup(
        &self,
        shard: ShardId,
    ) -> impl std::future::Future<Output = Result<(), PromoteError>> {
        let handle = self.handle.clone();
        let map = self.map.clone();
        let master_rpc = self.master_rpc.clone();
        async move {
            let (new_primary, rest): (Addr, Vec<Addr>) = {
                let map = map.borrow();
                let group = map.group(shard);
                let live: Vec<Addr> = group
                    .backups
                    .iter()
                    .copied()
                    .filter(|a| !handle.is_dead(a.node))
                    .collect();
                let Some(&new_primary) = live.first() else {
                    return Err(PromoteError::NoLiveBackup);
                };
                // The new primary replicates to every *other* replica — dead
                // ones included; they catch up if they come back.
                let rest = group
                    .all()
                    .into_iter()
                    .filter(|&a| a != new_primary)
                    .collect();
                (new_primary, rest)
            };
            // Route clients to the new primary immediately; it answers
            // NotReady until recovery completes and clients retry.
            if !map.borrow_mut().promote(shard, new_primary) {
                return Err(PromoteError::NotABackup);
            }
            match master_rpc
                .call::<TxnRequest, TxnResponse>(
                    new_primary,
                    TxnRequest::Promote { backups: rest },
                    Duration::from_secs(2),
                )
                .await
            {
                Ok(TxnResponse::PromoteOk) => Ok(()),
                Ok(_) | Err(_) => Err(PromoteError::Unreachable),
            }
        }
    }

    /// Restarts a previously killed replica as a backup after a **warm**
    /// failure — an OS-process crash/restart that kept the machine (and
    /// thus the page cache and persistent memory) powered. The replica
    /// reuses its storage backend *and* its transaction table: only
    /// volatile per-key metadata and in-flight tasks were lost, exactly
    /// the state §4.5's protocol rebuilds. Contrast with
    /// [`MilanaCluster::restart_replica_cold`], which models a power
    /// failure that erased DRAM.
    ///
    /// # Panics
    ///
    /// Panics if the replica's node is still alive.
    pub fn restart_replica_warm(&mut self, shard: ShardId, replica_idx: usize) {
        assert!(
            !self.is_power_failed(shard, replica_idx),
            "replica lost power: it has no DRAM left to warm-restart from \
             (use restart_replica_cold)"
        );
        let table = self.replicas[shard.0 as usize][replica_idx]
            .server
            .table()
            .clone();
        self.restart(shard, replica_idx, table, false);
    }

    /// Power-fails a replica: kills its node *and* tears the storage
    /// backend's volatile state (in-flight page programs become torn
    /// pages, RAM queues and mapping tables drop). Pair with
    /// [`MilanaCluster::restart_replica_cold`].
    pub fn power_fail_replica(&self, shard: ShardId, replica_idx: usize) {
        let slot = &self.replicas[shard.0 as usize][replica_idx];
        self.handle.kill_node(slot.addr.node);
        slot.server.backend().power_fail();
        self.power_failed
            .borrow_mut()
            .insert((shard.0, replica_idx));
        self.config.tuning.obs.tracer.record(
            self.handle.now().as_nanos(),
            obskit::TraceEvent::RecoveryStep {
                node: slot.addr.node.0 as u64,
                shard: shard.0 as u64,
                phase: obskit::RecoveryPhase::PowerFail,
                detail: 0,
            },
        );
    }

    /// True when the replica's last failure was a power failure and it has
    /// not yet been cold-restarted. Restart routing (the nemesis finale,
    /// recovery harnesses) uses this to pick
    /// [`MilanaCluster::restart_replica_cold`] over the warm path.
    pub fn is_power_failed(&self, shard: ShardId, replica_idx: usize) -> bool {
        self.power_failed.borrow().contains(&(shard.0, replica_idx))
    }

    /// Restarts a previously killed replica as a backup after a **cold**
    /// (power-fail) failure: DRAM is gone, so the server gets a *fresh,
    /// empty* transaction table and mounts its flash backend — a
    /// deterministic OOB scan that rebuilds the mapping table, discards
    /// torn pages, and recovers the durable write-floor record — then runs
    /// anti-entropy catch-up against the current primary before serving.
    ///
    /// # Panics
    ///
    /// Panics if the replica's node is still alive.
    pub fn restart_replica_cold(&mut self, shard: ShardId, replica_idx: usize) {
        self.power_failed
            .borrow_mut()
            .remove(&(shard.0, replica_idx));
        let table = Rc::new(RefCell::new(TxnTable::new()));
        self.restart(shard, replica_idx, table, true);
    }

    /// Revives the replica's (dead) node and respawns it as a backup on
    /// its surviving storage backend and the given table.
    fn restart(
        &mut self,
        shard: ShardId,
        replica_idx: usize,
        table: Rc<RefCell<TxnTable>>,
        cold_start: bool,
    ) {
        let slot = &mut self.replicas[shard.0 as usize][replica_idx];
        assert!(
            self.handle.is_dead(slot.addr.node),
            "restart of a replica whose node is still alive"
        );
        self.handle.revive_node(slot.addr.node);
        let backend = slot.server.backend().clone();
        // A restarted replica missed an unknown stretch of the floor
        // stream: its applied watermark (persisted in the table on a warm
        // restart, zero on a cold one) stays frozen until a promotion's
        // `InstallLog` or a cold catch-up splice re-syncs it.
        let mut cfg = replica_cfg(&self.config, shard, slot.addr);
        cfg.cold_start = cold_start;
        slot.server = TxnServer::spawn(&self.handle, backend, table, self.map.clone(), cfg);
    }
}

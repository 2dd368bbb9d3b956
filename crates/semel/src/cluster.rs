//! A one-call harness that boots a SEMEL cluster inside a simulation:
//! sharded, replicated storage servers plus clients with skewed clocks.
//! Used by tests, examples, and the experiment reproductions.

use std::cell::RefCell;
use std::rc::Rc;

use flashsim::{value, Backend, BackendKind, Key, NandConfig};
use simkit::net::{Addr, NodeId};
use simkit::SimHandle;
use timesync::{ClientId, ClockSpec, Timestamp, Version};

use crate::client::SemelClient;
use crate::server::{ServerConfig, ShardServer};
use crate::shard::{ReplicaGroup, ShardId, ShardMap};

/// Cluster shape and substrate parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of data shards.
    pub shards: u32,
    /// Replicas per shard (1 primary + 2f backups); must be odd.
    pub replicas: u32,
    /// Number of clients (application servers).
    pub clients: u32,
    /// Storage backend per replica.
    pub backend: BackendKind,
    /// Device geometry for flash backends.
    pub nand: NandConfig,
    /// Clock profile for client clocks (discipline plus fault model).
    pub clock: ClockSpec,
    /// Keys preloaded before the run (ids `0..preload_keys`).
    pub preload_keys: u64,
    /// Value size for preloaded keys (and a sensible default for writes).
    pub value_size: usize,
    /// Network latency model installed at build time.
    pub net: simkit::net::LatencyConfig,
    /// Replication ordering discipline (ablation knob).
    pub replication: crate::server::ReplicationMode,
    /// Group-commit replication knobs applied to every primary (see
    /// [`crate::server::ServerConfig::batch`]).
    pub batch: batchkit::BatchConfig,
    /// Observability bundle shared by every server in the cluster.
    pub obs: obskit::Obs,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            shards: 1,
            replicas: 3,
            clients: 2,
            backend: BackendKind::Mftl,
            nand: NandConfig::default(),
            clock: ClockSpec::ptp_software(),
            preload_keys: 0,
            value_size: 472,
            net: simkit::net::LatencyConfig::default(),
            replication: crate::server::ReplicationMode::default(),
            batch: batchkit::BatchConfig::default(),
            obs: obskit::Obs::new(),
        }
    }
}

/// A running SEMEL cluster.
#[derive(Debug)]
pub struct SemelCluster {
    /// The shard map shared by all clients.
    pub map: Rc<RefCell<ShardMap>>,
    /// One client handle per configured client.
    pub clients: Vec<SemelClient>,
    /// All shard servers (for backend inspection / fault injection), indexed
    /// `[shard][replica]`, replica 0 = primary.
    pub servers: Vec<Vec<ShardServer>>,
}

/// Service port for shard servers (one shard per node in this harness).
pub const SERVER_PORT: u16 = 0;

/// Node id of shard `s`, replica `r`, in a deployment with `replicas`
/// replicas per shard.
pub(crate) fn server_node(replicas: u32, s: u32, r: u32) -> NodeId {
    NodeId(s * replicas + r)
}

/// Node id of client `i`.
pub fn client_node(i: u32) -> NodeId {
    NodeId(10_000 + i)
}

/// The initial replica groups of a `shards` × `replicas` deployment
/// (replica 0 of each shard is its primary).
///
/// # Panics
///
/// Panics if `replicas` is even (no majority) or zero.
pub fn layout(shards: u32, replicas: u32) -> Vec<ReplicaGroup> {
    assert!(
        replicas % 2 == 1 && replicas >= 1,
        "replicas must be odd (2f+1)"
    );
    (0..shards)
        .map(|s| ReplicaGroup {
            primary: Addr::new(server_node(replicas, s, 0), SERVER_PORT),
            backups: (1..replicas)
                .map(|r| Addr::new(server_node(replicas, s, r), SERVER_PORT))
                .collect(),
        })
        .collect()
}

/// Creates the storage backend of the replica on `node`, traced under that
/// node's id.
pub fn new_backend(
    kind: BackendKind,
    handle: &SimHandle,
    nand: &NandConfig,
    obs: &obskit::Obs,
    node: NodeId,
) -> Backend {
    let backend = Backend::new(kind, handle, nand.clone());
    backend.attach_tracer(&obs.tracer, node.0 as u64);
    backend
}

/// Preloads keys `0..keys` with `value_size`-byte values: identical data
/// on every replica of the owning shard (§1). `replicas[shard]` lists that
/// shard's replicas; `backend` projects one to its store. Every key is
/// routed once, so each shard's first replica sizes its mapping table once
/// for the keys it receives and loads them in ascending order; the shard's
/// other replicas then start from a copy of that loaded image
/// ([`Backend::copy_loaded_from`]), sharing its flash pages.
pub fn preload<'a, R>(
    map: &ShardMap,
    keys: u64,
    value_size: usize,
    replicas: &'a [Vec<R>],
    backend: impl Fn(&'a R) -> &'a Backend,
) {
    if keys == 0 {
        return;
    }
    let v0 = Version::new(Timestamp(1), ClientId(u32::MAX));
    let payload = value(vec![0u8; value_size]);
    let routed: Vec<(Key, usize)> = (0..keys)
        .map(|i| {
            let key = Key::from(i);
            let shard = map.shard_for(&key).0 as usize;
            (key, shard)
        })
        .collect();
    let mut owned = vec![0; replicas.len()];
    for &(_, shard) in &routed {
        owned[shard] += 1;
    }
    let first = |shard: usize| backend(&replicas[shard][0]);
    for (shard, &n) in owned.iter().enumerate() {
        first(shard).reserve(n);
    }
    for (key, shard) in routed {
        first(shard).bulk_load(key, payload.clone(), v0);
    }
    for (shard, group) in replicas.iter().enumerate() {
        let loaded = first(shard);
        loaded.finish_load();
        for replica in &group[1..] {
            backend(replica).copy_loaded_from(loaded);
        }
    }
}

impl SemelCluster {
    /// Boots servers and clients and preloads data. Zero virtual time
    /// elapses; the cluster is ready for traffic immediately.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is even (no majority) or zero.
    pub fn build(handle: &SimHandle, config: ClusterConfig) -> SemelCluster {
        let groups = layout(config.shards, config.replicas);
        handle.set_latency(config.net.clone());
        let client_ids: Vec<ClientId> = (0..config.clients).map(ClientId).collect();
        let map = Rc::new(RefCell::new(ShardMap::new(groups.clone())));

        let mut servers = Vec::new();
        for (s, group) in groups.iter().enumerate() {
            let mut replicas = Vec::new();
            for (r, &addr) in group.all().iter().enumerate() {
                let backend =
                    new_backend(config.backend, handle, &config.nand, &config.obs, addr.node);
                let server = ShardServer::spawn(
                    handle,
                    backend,
                    ServerConfig {
                        shard: ShardId(s as u32),
                        addr,
                        backups: if r == 0 {
                            group.backups.clone()
                        } else {
                            Vec::new()
                        },
                        is_primary: r == 0,
                        clients: client_ids.clone(),
                        replication: config.replication,
                        batch: config.batch,
                        obs: config.obs.clone(),
                        map: map.clone(),
                    },
                );
                replicas.push(server);
            }
            servers.push(replicas);
        }

        preload(
            &map.borrow(),
            config.preload_keys,
            config.value_size,
            &servers,
            ShardServer::backend,
        );

        let clients = (0..config.clients)
            .map(|i| {
                SemelClient::new(
                    handle,
                    client_node(i),
                    ClientId(i),
                    map.clone(),
                    &config.clock,
                    &config.obs,
                )
            })
            .collect();

        SemelCluster {
            map,
            clients,
            servers,
        }
    }

    /// The primary server of `shard`.
    pub fn primary(&self, shard: ShardId) -> &ShardServer {
        &self.servers[shard.0 as usize][0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::SemelError;
    use simkit::Sim;
    use std::time::Duration;

    fn small_nand() -> NandConfig {
        NandConfig {
            blocks: 64,
            pages_per_block: 8,
            ..NandConfig::default()
        }
    }

    fn cluster_cfg() -> ClusterConfig {
        ClusterConfig {
            shards: 2,
            replicas: 3,
            clients: 2,
            nand: small_nand(),
            preload_keys: 100,
            ..ClusterConfig::default()
        }
    }

    #[test]
    #[should_panic(expected = "replicas must be odd")]
    fn even_replica_count_is_rejected() {
        let _ = layout(1, 2);
    }

    #[test]
    fn end_to_end_put_get() {
        let mut sim = Sim::new(11);
        let h = sim.handle();
        let cluster = SemelCluster::build(&h, cluster_cfg());
        sim.block_on(async move {
            let c = &cluster.clients[0];
            let k = Key::from(5u64);
            let ver = c.put(k.clone(), value(&b"hello"[..])).await.unwrap();
            let got = c.get(k).await.unwrap();
            assert_eq!(got.version, ver);
            assert_eq!(&got.value[..], b"hello");
        });
    }

    #[test]
    fn preloaded_keys_visible_to_all_clients() {
        let mut sim = Sim::new(12);
        let h = sim.handle();
        let cluster = SemelCluster::build(&h, cluster_cfg());
        sim.block_on(async move {
            for c in &cluster.clients {
                let got = c.get(Key::from(42u64)).await.unwrap();
                assert_eq!(got.value.len(), 472);
            }
        });
    }

    #[test]
    fn writes_replicate_to_backups() {
        let mut sim = Sim::new(13);
        let h = sim.handle();
        let hh = h.clone();
        let cluster = SemelCluster::build(&h, cluster_cfg());
        sim.block_on(async move {
            let c = &cluster.clients[0];
            let k = Key::from(7u64);
            let ver = c.put(k.clone(), value(&b"replicated"[..])).await.unwrap();
            // Give the backups a moment to apply (ack needs only f of 2f).
            hh.sleep(Duration::from_millis(5)).await;
            let shard = cluster.map.borrow().shard_for(&k);
            let mut holders = 0;
            for replica in &cluster.servers[shard.0 as usize] {
                if replica.backend().versions(&k).contains(&ver) {
                    holders += 1;
                }
            }
            assert!(holders >= 2, "write on {holders} replicas");
        });
    }

    #[test]
    fn survives_one_backup_failure() {
        let mut sim = Sim::new(14);
        let h = sim.handle();
        let hh = h.clone();
        let cluster = SemelCluster::build(&h, cluster_cfg());
        sim.block_on(async move {
            let k = Key::from(3u64);
            let shard = cluster.map.borrow().shard_for(&k);
            let backup_addr = cluster.map.borrow().group(shard).backups[0];
            hh.kill_node(backup_addr.node);
            let c = &cluster.clients[0];
            c.put(k.clone(), value(&b"still works"[..])).await.unwrap();
            let got = c.get(k).await.unwrap();
            assert_eq!(&got.value[..], b"still works");
        });
    }

    #[test]
    fn put_fails_without_backup_majority() {
        let mut sim = Sim::new(15);
        let h = sim.handle();
        let hh = h.clone();
        let cluster = SemelCluster::build(&h, cluster_cfg());
        sim.block_on(async move {
            let k = Key::from(3u64);
            let shard = cluster.map.borrow().shard_for(&k);
            for &b in &cluster.map.borrow().group(shard).backups {
                hh.kill_node(b.node);
            }
            let c = &cluster.clients[0];
            let err = c.put(k, value(&b"x"[..])).await.unwrap_err();
            assert_eq!(err, SemelError::NoMajority);
        });
    }

    #[test]
    fn concurrent_writers_agree_on_winner() {
        let mut sim = Sim::new(16);
        let h = sim.handle();
        let hh = h.clone();
        let cluster = SemelCluster::build(&h, cluster_cfg());
        sim.block_on(async move {
            let k = Key::from(9u64);
            let c0 = cluster.clients[0].clone();
            let c1 = cluster.clients[1].clone();
            let k0 = k.clone();
            let k1 = k.clone();
            let j0 = hh.spawn(async move { c0.put(k0, value(&b"from-0"[..])).await });
            let j1 = hh.spawn(async move { c1.put(k1, value(&b"from-1"[..])).await });
            let v0 = j0.await.unwrap();
            let v1 = j1.await.unwrap();
            assert_ne!(v0, v1);
            // The winner is whoever holds the larger version stamp.
            let got = cluster.clients[0].get(k).await.unwrap();
            assert_eq!(got.version, v0.max(v1));
        });
    }

    #[test]
    fn watermark_flows_to_servers_and_prunes() {
        let mut sim = Sim::new(17);
        let h = sim.handle();
        let hh = h.clone();
        let mut cfg = cluster_cfg();
        cfg.clients = 1;
        cfg.shards = 1;
        let cluster = SemelCluster::build(&h, cfg);
        sim.block_on(async move {
            let c = &cluster.clients[0];
            let k = Key::from(1u64);
            for i in 0..5 {
                c.put(k.clone(), value(vec![i as u8; 16])).await.unwrap();
            }
            // Let several watermark broadcast rounds land.
            hh.sleep(Duration::from_millis(350)).await;
            // One more put triggers chain pruning on the primary.
            c.put(k.clone(), value(&b"last"[..])).await.unwrap();
            let shard = cluster.map.borrow().shard_for(&k);
            let versions = cluster.primary(shard).backend().versions(&k);
            assert!(versions.len() <= 3, "old versions not pruned: {versions:?}");
        });
    }
}

#[cfg(test)]
mod ordered_mode_tests {
    use super::*;
    use crate::server::ReplicationMode;
    use flashsim::value;
    use simkit::Sim;
    use std::time::Duration;

    /// Ordered replication is the slow path, but it must still be correct:
    /// all data converges on all replicas despite jittery delivery.
    #[test]
    fn ordered_replication_converges() {
        let mut sim = Sim::new(91);
        let h = sim.handle();
        let hh = h.clone();
        let cluster = SemelCluster::build(
            &h,
            ClusterConfig {
                shards: 1,
                replicas: 3,
                clients: 2,
                preload_keys: 0,
                replication: ReplicationMode::Ordered,
                nand: NandConfig {
                    blocks: 64,
                    pages_per_block: 8,
                    ..NandConfig::default()
                },
                net: simkit::net::LatencyConfig {
                    one_way: Duration::from_micros(50),
                    jitter_std: Duration::from_micros(40), // heavy reordering
                },
                ..ClusterConfig::default()
            },
        );
        sim.block_on(async move {
            // Two clients interleave writes over a small key set.
            let mut joins = Vec::new();
            for (ci, c) in cluster.clients.iter().enumerate() {
                let c = c.clone();
                joins.push(hh.spawn(async move {
                    for i in 0..30u64 {
                        let key = Key::from(i % 6);
                        let payload = value(vec![(ci as u8) * 100 + i as u8; 16]);
                        let _ = c.put(key, payload).await;
                    }
                }));
            }
            for j in joins {
                j.await;
            }
            hh.sleep(Duration::from_millis(20)).await;
            // Every backup holds the same latest version as the primary.
            for key_id in 0..6u64 {
                let key = Key::from(key_id);
                let primary_latest = cluster.servers[0][0].backend().versions(&key);
                let Some(&latest) = primary_latest.first() else {
                    continue;
                };
                for (r, replica) in cluster.servers[0].iter().enumerate().skip(1) {
                    assert!(
                        replica.backend().versions(&key).contains(&latest),
                        "replica {r} missing latest version of {key}"
                    );
                }
            }
        });
    }
}

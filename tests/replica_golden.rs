//! Golden-constant oracle for the replica, client and cluster-bootstrap code
//! that SEMEL and MILANA share.
//!
//! Fixed-seed scripts drive a 2×3 `SemelCluster` (batched inconsistent
//! replication and the `Ordered` ablation: a retransmitted put, one backup
//! down, a watermark round that prunes, both backups down) and a 2×3
//! `MilanaCluster` (read-only and read-write transactions on a hot key set,
//! a power failure with a cold restart, a primary kill with promotion and a
//! warm restart, a provisioned group; then one run where the master drives
//! the failover). Everything the simulation exposes — final virtual time,
//! executor polls, network and timer counters, the metric registry, the
//! trace, every server's counters and table size, every replica's version
//! chains — is compared with constants recorded before the two servers and
//! the two clients were rebuilt on one core: a task spawned, dropped or
//! reordered, an RNG draw moved, or a metric renamed changes at least one.
//! (`polls` alone has been re-recorded since: when timers stopped re-arming,
//! when the relay tasks of the message plane were removed, when MILANA
//! replicas began answering control traffic at the delivery instant,
//! when every MILANA envelope began starting its items there, and when
//! batch deadlines, replication rounds and coordinator envelopes became
//! callbacks instead of tasks.) When SEMEL moved onto the shared dispatch
//! and the master onto a sink:
//! - `semel_ordered_replication_is_unchanged`: `polls` only (a watermark
//!   report is answered at the sink, a held record waits in its own
//!   envelope task); ordered records never travel in a batch.
//! - `milana_auto_failover_is_unchanged`: `polls` only, from the master
//!   answering at the delivery instant instead of in a mailbox loop.
//! - `semel_inconsistent_replication_is_unchanged`: `now_ns`, `polls`,
//!   `trace`, `outcomes` and `stores`, on purpose: a SEMEL backup starts a
//!   batch's records side by side instead of one flash write after
//!   another, so batched records are acked earlier. `net`, `timers` and
//!   `registry` did not move.
//!
//! When the flash packer began filling one page before opening the next
//! (pages rotate over the channels, tuples no longer do), every constant
//! of all four scripts was re-recorded except `now_ns` and `net` of
//! `semel_ordered_replication_is_unchanged`: fuller pages take fewer
//! programs, GC passes and windows, so flash latency, timers, polls, the
//! trace and the stored chains moved, and with them every message timing
//! of the other three. The two MILANA scripts also carry the same
//! change's read marks (a primary marks each validated read at
//! `ts_commit`, so a writer stamped below it aborts) and its parked
//! applied floors (a backup no longer freezes its watermark on a
//! reordered floor): their per-server vote, commit and table counts moved.
//!
//! When every MILANA read became one `ReadAt` through one client read
//! path, every constant of the two MILANA scripts was re-recorded: their
//! read-write transactions had read one key from a random replica (a
//! read that never refreshed its map, so after a failover it kept drawing
//! the dead primary and waiting out the RPC timeout); they now read it
//! like any other, and both runs end sooner with fewer messages.

use std::time::Duration;

use milana_repro::flashsim::{value, Backend, Key, NandConfig};
use milana_repro::milana::client::{TxnClient, TxnOpts};
use milana_repro::milana::cluster::{MilanaCluster, MilanaClusterConfig};
use milana_repro::obskit::Obs;
use milana_repro::readkit::ReadRoute;
use milana_repro::semel::server::ReplicationMode;
use milana_repro::semel::shard::ShardId;
use milana_repro::semel::{ClusterConfig, SemelCluster};
use milana_repro::simkit::{Sim, SimHandle};
use milana_repro::timesync::{ClientId, Timestamp, Version};

/// Everything a script observes, in one comparable value.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    now_ns: u64,
    polls: u64,
    /// sent, delivered, dropped, duplicated, delay_spiked.
    net: [u64; 5],
    /// armed, fired, cancelled, pending.
    timers: [u64; 4],
    /// FNV-1a of the metric registry snapshot.
    registry: u64,
    /// FNV-1a of `tracer.dump_jsonl()`.
    trace: u64,
    /// Fold of every operation result the script saw.
    outcomes: u64,
    /// Fold of every replica's keys × versions.
    stores: u64,
    /// Per MILANA replica: the ten `TxnServerStats` counters, then
    /// `TxnTable::len()`. Empty for SEMEL.
    servers: Vec<[u64; 11]>,
}

struct Fold(u64);

impl Fold {
    fn new() -> Fold {
        Fold(0xcbf29ce484222325)
    }

    fn mix(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x100000001b3);
    }

    /// Folds a result by its `Debug` rendering: versions, timestamps and
    /// error variants all show up in it.
    fn result(&mut self, r: &impl std::fmt::Debug) {
        self.mix(fnv(&format!("{r:?}")));
    }
}

fn fnv(s: &str) -> u64 {
    let mut f = Fold::new();
    for b in s.bytes() {
        f.mix(b as u64);
    }
    f.0
}

fn nand() -> NandConfig {
    NandConfig {
        blocks: 128,
        pages_per_block: 8,
        ..NandConfig::default()
    }
}

fn store_digest<'a>(backends: impl Iterator<Item = &'a Backend>) -> u64 {
    let mut f = Fold::new();
    for b in backends {
        let mut keys = b.keys();
        keys.sort();
        f.mix(keys.len() as u64);
        for k in keys {
            f.mix(k.trace_id());
            for v in b.versions(&k) {
                f.mix(v.ts.0);
                f.mix(v.client.0 as u64);
            }
        }
    }
    f.0
}

fn golden(
    h: &SimHandle,
    obs: &Obs,
    outcomes: Fold,
    stores: u64,
    servers: Vec<[u64; 11]>,
) -> Golden {
    let net = h.net_stats();
    let t = h.timer_stats();
    Golden {
        now_ns: h.now().as_nanos(),
        polls: h.polls(),
        net: [
            net.sent,
            net.delivered,
            net.dropped,
            net.duplicated,
            net.delay_spiked,
        ],
        timers: [t.armed, t.fired, t.cancelled, t.pending],
        registry: fnv(&obs.registry.snapshot().to_string()),
        trace: fnv(&obs.tracer.dump_jsonl()),
        outcomes: outcomes.0,
        stores,
        servers,
    }
}

fn semel_run(replication: ReplicationMode) -> Golden {
    let mut sim = Sim::new(0x5e3e1);
    let h = sim.handle();
    let obs = Obs::with_trace(1 << 16);
    let mut cfg = ClusterConfig {
        shards: 2,
        preload_keys: 64,
        nand: nand(),
        obs: obs.clone(),
        replication,
        ..ClusterConfig::default()
    };
    cfg.net.jitter_std = Duration::from_micros(20);
    let cluster = SemelCluster::build(&h, cfg);
    let hh = h.clone();
    let (fold, cluster) = sim.block_on(async move {
        let mut fold = Fold::new();
        // Two clients interleave puts and snapshot reads over a hot set.
        let mut joins = Vec::new();
        for (ci, c) in cluster.clients.iter().enumerate() {
            let c = c.clone();
            joins.push(hh.spawn(async move {
                let mut f = Fold::new();
                for i in 0..40u64 {
                    let key = Key::from((i * 7 + ci as u64) % 12);
                    if i % 4 == 3 {
                        f.result(&c.get(key).await.map(|vv| vv.version));
                    } else {
                        f.result(&c.put(key, value(vec![i as u8; 64])).await);
                    }
                }
                f.0
            }));
        }
        for j in joins {
            fold.mix(j.await);
        }
        let c0 = cluster.clients[0].clone();
        let c1 = cluster.clients[1].clone();

        // A retransmitted put is re-replicated and re-acked; an older
        // stamp is rejected.
        let k = Key::from(3u64);
        let ver = Version::new(c0.now(), c0.id());
        let payload = value(&b"retransmitted"[..]);
        fold.result(&c0.put_versioned(k.clone(), payload.clone(), ver).await);
        fold.result(&c0.put_versioned(k.clone(), payload.clone(), ver).await);
        let old = Version::new(Timestamp(2), ClientId(1));
        fold.result(&c1.put_versioned(k.clone(), payload, old).await);

        // One backup down: f = 1 of 2 still covers every write.
        let shard = cluster.map.borrow().shard_for(&k);
        let backups = cluster.map.borrow().group(shard).backups.clone();
        hh.kill_node(backups[0].node);
        for i in 0..6u64 {
            fold.result(&c1.put(k.clone(), value(vec![i as u8; 32])).await);
        }

        // Let watermark rounds land, then a put prunes the chain.
        hh.sleep(Duration::from_millis(350)).await;
        fold.result(&c0.put(k.clone(), value(&b"after-wm"[..])).await);
        fold.mix(cluster.primary(shard).applied_watermark().0);

        // Both backups down: no majority; reads still answer.
        hh.kill_node(backups[1].node);
        fold.result(&c0.put(k.clone(), value(&b"lost"[..])).await);
        fold.result(&c0.delete(Key::from(63u64)).await);
        fold.result(&c1.get(k.clone()).await.map(|vv| vv.version));
        fold.result(
            &c1.get_at(Key::from(5u64), Timestamp(1))
                .await
                .map(|vv| vv.version),
        );
        (fold, cluster)
    });
    let stores = store_digest(cluster.servers.iter().flatten().map(|s| s.backend()));
    golden(&h, &obs, fold, stores, Vec::new())
}

fn milana_cfg(obs: &Obs) -> MilanaClusterConfig {
    let mut cfg = MilanaClusterConfig {
        shards: 2,
        clients: 3,
        preload_keys: 200,
        nand: nand(),
        ..MilanaClusterConfig::default()
    };
    cfg.tuning.obs = obs.clone();
    cfg.tuning.gossip_every = Some(Duration::from_millis(2));
    cfg.client_cfg.read_route = ReadRoute::Freshest;
    // `TxnOpts::snapshot` opens this far back; read-write transactions
    // ignore it.
    cfg.client_cfg.snapshot_lag = Duration::from_millis(3);
    cfg
}

/// `rounds` transactions per client, all clients concurrently, on a hot
/// set of 16 keys: every third is read-only (alternating a fresh and a
/// lagged snapshot), the rest read two keys and write one or two.
async fn txn_rounds(h: &SimHandle, clients: &[TxnClient], rounds: u64, fold: &mut Fold) {
    let mut joins = Vec::new();
    for (ci, c) in clients.iter().enumerate() {
        let c = c.clone();
        joins.push(h.spawn(async move {
            let mut f = Fold::new();
            for i in 0..rounds {
                let a = Key::from((i * 5 + ci as u64 * 3) % 16);
                let b = Key::from((i * 11 + ci as u64) % 16);
                if i % 3 == 2 {
                    let opts = if i % 2 == 0 {
                        TxnOpts::snapshot()
                    } else {
                        TxnOpts::default()
                    };
                    let mut t = c.begin_with(opts);
                    f.result(&t.get(&a).await.map(|v| v.len()));
                    f.result(&t.get(&b).await.map(|v| v.len()));
                    f.result(&t.commit().await);
                } else {
                    let mut t = c.begin_with(TxnOpts::default());
                    f.result(&t.get(&a).await.map(|v| v.len()));
                    if i % 4 == 0 {
                        f.result(&t.get(&b).await.map(|v| v.len()));
                        t.put(b, value(vec![ci as u8; 48]));
                    }
                    t.put(a, value(vec![i as u8; 48]));
                    f.result(&t.commit().await);
                }
            }
            f.0
        }));
    }
    for j in joins {
        fold.mix(j.await);
    }
}

fn milana_golden(h: &SimHandle, obs: &Obs, fold: Fold, cluster: &MilanaCluster) -> Golden {
    let slots = || cluster.replicas.iter().flatten();
    let servers = slots()
        .map(|slot| {
            let s = slot.server.stats();
            [
                s.gets,
                s.prepares_ok,
                s.prepares_aborted,
                s.commits,
                s.aborts,
                s.ctp_resolutions,
                s.replica_reads,
                s.too_stale,
                s.clock_suspects,
                s.clock_fences,
                slot.server.table().borrow().len() as u64,
            ]
        })
        .collect();
    let stores = store_digest(slots().map(|slot| slot.server.backend()));
    golden(h, obs, fold, stores, servers)
}

/// Harness-driven faults: the cluster's own restart, promotion and
/// provisioning entry points.
fn milana_harness_run() -> Golden {
    let mut sim = Sim::new(0x311a);
    let h = sim.handle();
    let obs = Obs::with_trace(1 << 17);
    let cluster = MilanaCluster::build(&h, milana_cfg(&obs));
    let hh = h.clone();
    let (fold, cluster) = sim.block_on(async move {
        let mut cluster = cluster;
        let mut fold = Fold::new();
        let clients = cluster.clients.clone();
        txn_rounds(&hh, &clients, 30, &mut fold).await;
        hh.sleep(Duration::from_millis(10)).await;

        // A backup loses power under load and comes back cold.
        cluster.power_fail_replica(ShardId(0), 2);
        txn_rounds(&hh, &clients, 12, &mut fold).await;
        cluster.restart_replica_cold(ShardId(0), 2);
        hh.sleep(Duration::from_millis(60)).await;
        txn_rounds(&hh, &clients, 12, &mut fold).await;

        // The other shard's primary dies; a backup is promoted and the
        // old primary returns warm as a backup.
        cluster.fail_primary(ShardId(1));
        fold.result(&cluster.promote_backup(ShardId(1)).await);
        txn_rounds(&hh, &clients, 12, &mut fold).await;
        cluster.restart_replica_warm(ShardId(1), 0);
        hh.sleep(Duration::from_millis(20)).await;
        txn_rounds(&hh, &clients, 12, &mut fold).await;

        // A fresh destination group boots beside the serving ones.
        fold.result(&cluster.provision_group(ShardId(2)));
        hh.sleep(Duration::from_millis(300)).await;
        txn_rounds(&hh, &clients, 6, &mut fold).await;
        (fold, cluster)
    });
    milana_golden(&h, &obs, fold, &cluster)
}

/// Master-driven failover: private client maps, heartbeats, the promoter.
fn milana_auto_run() -> Golden {
    let mut sim = Sim::new(0xa070);
    let h = sim.handle();
    let obs = Obs::with_trace(1 << 17);
    let mut cfg = milana_cfg(&obs);
    cfg.auto_failover = true;
    let cluster = MilanaCluster::build(&h, cfg);
    let hh = h.clone();
    let (fold, cluster) = sim.block_on(async move {
        let mut fold = Fold::new();
        let clients = cluster.clients.clone();
        txn_rounds(&hh, &clients, 20, &mut fold).await;
        hh.sleep(Duration::from_millis(10)).await;
        cluster.fail_primary(ShardId(0));
        hh.sleep(Duration::from_millis(600)).await;
        let master = cluster.master.as_ref().expect("auto mode has a master");
        fold.result(&master.stats());
        fold.mix(master.map().epoch());
        txn_rounds(&hh, &clients, 20, &mut fold).await;
        (fold, cluster)
    });
    milana_golden(&h, &obs, fold, &cluster)
}

#[test]
fn semel_inconsistent_replication_is_unchanged() {
    let got = semel_run(ReplicationMode::Inconsistent);
    let want = Golden {
        now_ns: 464_879_397,
        polls: 1_241,
        net: [503, 486, 17, 0, 0],
        timers: [738, 513, 223, 2],
        registry: 0x64a3102546a65d00,
        trace: 0xf34ae40a1ee7122b,
        outcomes: 0xde154c8ce32b1864,
        stores: 0x16326a6234a02e35,
        servers: vec![],
    };
    assert_eq!(got, want);
}

#[test]
fn semel_ordered_replication_is_unchanged() {
    let got = semel_run(ReplicationMode::Ordered);
    let want = Golden {
        now_ns: 466_252_516,
        polls: 1_202,
        net: [515, 498, 17, 0, 0],
        timers: [758, 527, 229, 2],
        registry: 0x16fb24d156593180,
        trace: 0x6d5fc8f009285785,
        outcomes: 0xf5dfc89f841dd09f,
        stores: 0xe1afc3430a32cbf5,
        servers: vec![],
    };
    assert_eq!(got, want);
}

#[test]
fn milana_harness_failover_is_unchanged() {
    let got = milana_harness_run();
    let want = Golden {
        now_ns: 997_182_346,
        polls: 8_784,
        net: [7093, 6758, 334, 0, 0],
        timers: [5855, 2464, 3372, 19],
        registry: 0x34cc0d3fd0b6f321,
        trace: 0x21cf63c87a99f85d,
        outcomes: 0xbcb2014e0eeb7f83,
        stores: 0xd36f717ff4249cb8,
        servers: vec![
            [146, 89, 1, 86, 0, 0, 0, 0, 0, 0, 90],
            [0, 0, 0, 0, 0, 0, 4, 15, 0, 0, 89],
            [0, 0, 0, 0, 0, 0, 0, 12, 0, 0, 89],
            [0, 0, 0, 0, 0, 0, 0, 6, 0, 0, 109],
            [72, 39, 0, 37, 1, 0, 3, 7, 0, 0, 109],
            [0, 0, 0, 0, 0, 0, 16, 16, 0, 0, 109],
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        ],
    };
    assert_eq!(got, want);
}

#[test]
fn milana_auto_failover_is_unchanged() {
    let got = milana_auto_run();
    let want = Golden {
        now_ns: 969_121_390,
        polls: 4_851,
        net: [4429, 3992, 436, 0, 0],
        timers: [3854, 1834, 1992, 28],
        registry: 0xa8c946163cb4f642,
        trace: 0x354010c9824db5d6,
        outcomes: 0x3bf185e3e19c7d65,
        stores: 0xa20bc62f2995ae07,
        servers: vec![
            [29, 16, 5, 15, 1, 0, 0, 0, 0, 0, 21],
            [35, 0, 0, 0, 0, 0, 2, 3, 0, 0, 16],
            [0, 0, 0, 0, 0, 0, 5, 3, 0, 0, 16],
            [90, 39, 17, 32, 1, 0, 0, 0, 0, 0, 56],
            [0, 0, 0, 0, 0, 0, 2, 9, 0, 0, 39],
            [0, 0, 0, 0, 0, 0, 9, 9, 0, 0, 39],
        ],
    };
    assert_eq!(got, want);
}

//! The global master (§3): the authoritative shard map, primary liveness
//! tracking, and automatic failover.
//!
//! The paper delegates this role to "a global master ... implemented using
//! standard techniques (e.g., Apache Zookeeper)". This module provides that
//! component for the simulated cluster:
//!
//! - serves the current [`ShardMap`] (with an epoch) to anyone who asks;
//! - tracks primary heartbeats; a primary that misses its deadline is
//!   declared dead;
//! - on failure, picks the shard's first *responsive* backup, updates the
//!   map, and drives the promotion through a pluggable [`Promoter`] (the
//!   transaction layer supplies the actual recovery RPC).
//!
//! The master is deliberately simple (a single process, as a ZooKeeper
//! ensemble would appear to its users) and is not itself replicated.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::time::Duration;

use simkit::net::Addr;
use simkit::rpc::{serve_incoming, Incoming};
use simkit::time::SimTime;
use simkit::SimHandle;
use timesync::ClientId;

use crate::shard::{ShardId, ShardMap};

/// Requests understood by the master.
#[derive(Debug, Clone)]
pub(crate) enum MasterRequest {
    /// Fetch the current shard map (clients call this at startup and after
    /// repeated failures against a primary).
    FetchMap,
    /// A primary's periodic liveness report.
    Heartbeat {
        /// The shard it leads.
        shard: ShardId,
        /// Its service address.
        addr: Addr,
    },
}

/// Replies from the master.
#[derive(Debug, Clone)]
pub(crate) enum MasterResponse {
    /// The current map (the epoch inside it orders configurations).
    MapIs(ShardMap),
    /// Heartbeat acknowledged; carries the current epoch so a deposed
    /// primary notices immediately.
    Ack {
        /// Current configuration epoch.
        epoch: u64,
    },
}

/// Drives the system-specific part of a failover: tell `new_primary` to take
/// over `shard`, replicating to `peers`. Returns true when recovery
/// completed. Supplied by the transaction layer (MILANA sends its `Promote`
/// RPC and waits for `PromoteOk`).
pub type Promoter = Rc<dyn Fn(ShardId, Addr, Vec<Addr>) -> Pin<Box<dyn Future<Output = bool>>>>;

/// A primary missing heartbeats for this long is declared dead.
const HEARTBEAT_TIMEOUT: Duration = Duration::from_millis(150);
/// Liveness scan period.
const CHECK_EVERY: Duration = Duration::from_millis(50);

/// Master tuning.
#[derive(Debug, Clone)]
pub struct MasterConfig {
    /// The master's service address.
    pub addr: Addr,
    /// Observability sinks: `map_fetches` / `master_failovers` /
    /// `map_installs` counters and failover/install trace events.
    pub obs: obskit::Obs,
}

impl Default for MasterConfig {
    fn default() -> MasterConfig {
        MasterConfig {
            addr: Addr::new(simkit::net::NodeId(20_000), 0),
            obs: obskit::Obs::new(),
        }
    }
}

/// Master counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MasterStats {
    /// Map fetches served.
    pub(crate) fetches: u64,
    /// Heartbeats received.
    pub(crate) heartbeats: u64,
    /// Failovers executed.
    pub failovers: u64,
}

struct MasterState {
    map: ShardMap,
    last_beat: BTreeMap<ShardId, SimTime>,
    /// Shards currently mid-failover (suppresses double triggers).
    failing_over: BTreeMap<ShardId, bool>,
    stats: MasterStats,
}

/// A running master. Cloning shares it.
#[derive(Clone)]
pub struct Master {
    handle: SimHandle,
    cfg: Rc<MasterConfig>,
    state: Rc<RefCell<MasterState>>,
    promoter: Promoter,
}

impl std::fmt::Debug for Master {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Master")
            .field("addr", &self.cfg.addr)
            .field("stats", &self.state.borrow().stats)
            .finish()
    }
}

impl Master {
    /// Spawns the master service and its liveness scanner.
    pub fn spawn(
        handle: &SimHandle,
        cfg: MasterConfig,
        initial_map: ShardMap,
        promoter: Promoter,
    ) -> Master {
        let now = handle.now();
        let last_beat = initial_map
            .iter()
            .map(|(s, _)| (s, now))
            .collect::<BTreeMap<_, _>>();
        let master = Master {
            handle: handle.clone(),
            cfg: Rc::new(cfg),
            state: Rc::new(RefCell::new(MasterState {
                map: initial_map,
                last_beat,
                failing_over: BTreeMap::new(),
                stats: MasterStats::default(),
            })),
            promoter,
        };
        master.spawn_service();
        master.spawn_scanner();
        master
    }

    /// The current shard map (by value; the master's copy is authoritative).
    pub fn map(&self) -> ShardMap {
        self.state.borrow().map.clone()
    }

    /// Counters so far.
    pub fn stats(&self) -> MasterStats {
        self.state.borrow().stats
    }

    /// Atomically edits the authoritative map through `f` (the rebalance
    /// engine's prepare/cutover epoch bumps flow through here) and returns
    /// `f`'s result plus the new epoch. Heartbeat leases are armed for any
    /// shard the edit introduced, and a [`obskit::TraceEvent::MapInstall`]
    /// event plus the `map_installs` counter record the change — keeping
    /// rebalance distinguishable from failover in artifacts.
    pub fn install_map<R>(&self, f: impl FnOnce(&mut ShardMap) -> R) -> (R, u64) {
        let mut st = self.state.borrow_mut();
        let out = f(&mut st.map);
        let now = self.handle.now();
        let shards: Vec<ShardId> = st.map.iter().map(|(s, _)| s).collect();
        for s in shards {
            st.last_beat.entry(s).or_insert(now);
        }
        let epoch = st.map.epoch();
        let shards = st.map.len() as u64;
        self.cfg.obs.registry.counter("map_installs").inc();
        self.cfg.obs.tracer.record(
            now.as_nanos(),
            obskit::TraceEvent::MapInstall { epoch, shards },
        );
        (out, epoch)
    }

    /// Serves the master's address at the sink: every request is answered
    /// at its delivery instant, with no task.
    fn spawn_service(&self) {
        let me = self.clone();
        serve_incoming(
            &self.handle,
            self.cfg.addr,
            move |incoming, _from, resp| match incoming {
                Incoming::One(req) => resp.reply(me.handle_request(req)),
                Incoming::Batch(_) => unreachable!("the master is never sent a batch"),
            },
        );
    }

    fn handle_request(&self, req: MasterRequest) -> MasterResponse {
        let mut st = self.state.borrow_mut();
        match req {
            MasterRequest::FetchMap => {
                st.stats.fetches += 1;
                self.cfg.obs.registry.counter("map_fetches").inc();
                MasterResponse::MapIs(st.map.clone())
            }
            MasterRequest::Heartbeat { shard, addr } => {
                st.stats.heartbeats += 1;
                // Only the primary of record refreshes the lease; a deposed
                // primary learns the new epoch from the ack. A heartbeat
                // for a shard the map does not know yet (migration
                // destination before cutover) is acknowledged but not
                // leased.
                if st.map.group_opt(shard).map(|g| g.primary) == Some(addr) {
                    let now = self.handle.now();
                    st.last_beat.insert(shard, now);
                }
                MasterResponse::Ack {
                    epoch: st.map.epoch(),
                }
            }
        }
    }

    fn spawn_scanner(&self) {
        let me = self.clone();
        self.handle.spawn_on(self.cfg.addr.node, async move {
            loop {
                me.handle.sleep(CHECK_EVERY).await;
                me.scan().await;
            }
        });
    }

    async fn scan(&self) {
        let now = self.handle.now();
        let suspects: Vec<ShardId> = {
            let st = self.state.borrow();
            st.map
                .iter()
                .map(|(s, _)| s)
                .filter(|s| {
                    !st.failing_over.get(s).copied().unwrap_or(false)
                        && st
                            .last_beat
                            .get(s)
                            .is_none_or(|&t| now.saturating_since(t) > HEARTBEAT_TIMEOUT)
                })
                .collect()
        };
        for shard in suspects {
            self.failover(shard).await;
        }
    }

    /// Promotes the first backup of `shard` (in group order), retrying down
    /// the list if a candidate does not complete recovery.
    async fn failover(&self, shard: ShardId) {
        {
            let mut st = self.state.borrow_mut();
            st.failing_over.insert(shard, true);
        }
        let candidates: Vec<Addr> = self.state.borrow().map.group(shard).backups.clone();
        for candidate in candidates {
            let peers: Vec<Addr> = {
                let st = self.state.borrow();
                st.map
                    .group(shard)
                    .all()
                    .into_iter()
                    .filter(|&a| a != candidate)
                    .collect()
            };
            // Publish the new configuration first: clients immediately
            // retarget and retry against the recovering primary.
            if !self.state.borrow_mut().map.promote(shard, candidate) {
                continue; // candidate raced out of the group; try the next
            }
            if (self.promoter)(shard, candidate, peers).await {
                let mut st = self.state.borrow_mut();
                let now = self.handle.now();
                st.last_beat.insert(shard, now);
                st.failing_over.insert(shard, false);
                st.stats.failovers += 1;
                self.cfg.obs.registry.counter("master_failovers").inc();
                self.cfg.obs.tracer.record(
                    now.as_nanos(),
                    obskit::TraceEvent::MasterFailover {
                        shard: shard.0 as u64,
                        new_primary: candidate.node.0 as u64,
                        epoch: st.map.epoch(),
                    },
                );
                return;
            }
            // Candidate failed to recover; the loop promotes the next one
            // (the failed candidate was demoted to the back of the list).
        }
        // Nobody could take over; clear the flag so a later scan retries.
        self.state.borrow_mut().failing_over.insert(shard, false);
    }
}

/// Convenience: clients poll the master for a fresh map.
///
/// # Errors
///
/// Propagates the RPC timeout if the master is unreachable.
pub async fn fetch_map(
    rpc: &simkit::rpc::RpcClient,
    master: Addr,
    timeout: Duration,
) -> Result<ShardMap, simkit::rpc::RpcError> {
    match rpc
        .call::<MasterRequest, MasterResponse>(master, MasterRequest::FetchMap, timeout)
        .await?
    {
        MasterResponse::MapIs(map) => Ok(map),
        MasterResponse::Ack { .. } => Err(simkit::rpc::RpcError::Timeout),
    }
}

/// Convenience: a primary's heartbeat loop body. Returns the epoch the
/// master reported, letting a deposed primary detect its demotion.
///
/// # Errors
///
/// Propagates the RPC timeout if the master is unreachable.
pub async fn send_heartbeat(
    rpc: &simkit::rpc::RpcClient,
    master: Addr,
    shard: ShardId,
    my_addr: Addr,
    timeout: Duration,
) -> Result<u64, simkit::rpc::RpcError> {
    match rpc
        .call::<MasterRequest, MasterResponse>(
            master,
            MasterRequest::Heartbeat {
                shard,
                addr: my_addr,
            },
            timeout,
        )
        .await?
    {
        MasterResponse::Ack { epoch } => Ok(epoch),
        MasterResponse::MapIs(map) => Ok(map.epoch()),
    }
}

/// Watermark reports also flow through client ids; re-exported here so the
/// master module is self-contained for doc examples.
pub(crate) type _ClientId = ClientId;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ReplicaGroup;
    use simkit::net::NodeId;
    use simkit::rpc::RpcClient;
    use simkit::Sim;

    fn test_map() -> ShardMap {
        ShardMap::new(vec![ReplicaGroup {
            primary: Addr::new(NodeId(0), 0),
            backups: vec![Addr::new(NodeId(1), 0), Addr::new(NodeId(2), 0)],
        }])
    }

    fn noop_promoter(log: Rc<RefCell<Vec<(ShardId, Addr)>>>, ok: bool) -> Promoter {
        Rc::new(move |shard, addr, _peers| {
            log.borrow_mut().push((shard, addr));
            Box::pin(async move { ok })
        })
    }

    #[test]
    fn serves_the_map() {
        let mut sim = Sim::new(61);
        let h = sim.handle();
        let log = Rc::new(RefCell::new(Vec::new()));
        let master = Master::spawn(
            &h,
            MasterConfig::default(),
            test_map(),
            noop_promoter(log, true),
        );
        let addr = master.cfg.addr;
        sim.block_on(async move {
            let rpc = RpcClient::new(&h, NodeId(100), 0);
            let map = fetch_map(&rpc, addr, Duration::from_millis(10))
                .await
                .unwrap();
            assert_eq!(map.epoch(), 0);
            assert_eq!(map.group(ShardId(0)).primary, Addr::new(NodeId(0), 0));
        });
        assert_eq!(master.stats().fetches, 1);
    }

    #[test]
    fn heartbeats_keep_the_primary_alive() {
        let mut sim = Sim::new(62);
        let h = sim.handle();
        let log = Rc::new(RefCell::new(Vec::new()));
        let master = Master::spawn(
            &h,
            MasterConfig::default(),
            test_map(),
            noop_promoter(log.clone(), true),
        );
        let addr = master.cfg.addr;
        let hh = h.clone();
        h.spawn(async move {
            let rpc = RpcClient::new(&hh, NodeId(0), 7);
            loop {
                let _ = send_heartbeat(
                    &rpc,
                    addr,
                    ShardId(0),
                    Addr::new(NodeId(0), 0),
                    Duration::from_millis(10),
                )
                .await;
                hh.sleep(Duration::from_millis(40)).await;
            }
        });
        sim.run_until(simkit::SimTime::from_millis(600));
        assert!(log.borrow().is_empty(), "no failover while heartbeating");
        assert_eq!(master.stats().failovers, 0);
    }

    #[test]
    fn missed_heartbeats_trigger_failover_to_first_backup() {
        let mut sim = Sim::new(63);
        let h = sim.handle();
        let log = Rc::new(RefCell::new(Vec::new()));
        let master = Master::spawn(
            &h,
            MasterConfig::default(),
            test_map(),
            noop_promoter(log.clone(), true),
        );
        // Nobody heartbeats: the scanner fails over once within one timeout
        // window. (With no real servers the new primary never heartbeats
        // either, so we only observe the first window.)
        sim.run_until(simkit::SimTime::from_millis(220));
        assert_eq!(log.borrow().len(), 1, "exactly one promotion");
        assert_eq!(log.borrow()[0], (ShardId(0), Addr::new(NodeId(1), 0)));
        let map = master.map();
        assert_eq!(map.group(ShardId(0)).primary, Addr::new(NodeId(1), 0));
        assert!(map.epoch() >= 1);
        assert_eq!(master.stats().failovers, 1);
    }

    #[test]
    fn failed_candidate_falls_through_to_the_next_backup() {
        let mut sim = Sim::new(64);
        let h = sim.handle();
        let log: Rc<RefCell<Vec<(ShardId, Addr)>>> = Rc::new(RefCell::new(Vec::new()));
        // Promoter that fails for node 1 and succeeds for node 2.
        let log2 = log.clone();
        let promoter: Promoter = Rc::new(move |shard, addr, _| {
            log2.borrow_mut().push((shard, addr));
            Box::pin(async move { addr.node != NodeId(1) })
        });
        let master = Master::spawn(&h, MasterConfig::default(), test_map(), promoter);
        sim.run_until(simkit::SimTime::from_millis(220));
        let attempts = log.borrow().clone();
        assert_eq!(attempts.len(), 2, "tried both candidates: {attempts:?}");
        assert_eq!(attempts[0].1.node, NodeId(1));
        assert_eq!(attempts[1].1.node, NodeId(2));
        assert_eq!(
            master.map().group(ShardId(0)).primary.node,
            NodeId(2),
            "map points at the candidate that completed recovery"
        );
    }

    #[test]
    fn deposed_primary_sees_a_newer_epoch_in_heartbeat_acks() {
        let mut sim = Sim::new(65);
        let h = sim.handle();
        let log = Rc::new(RefCell::new(Vec::new()));
        let master = Master::spawn(
            &h,
            MasterConfig::default(),
            test_map(),
            noop_promoter(log, true),
        );
        let addr = master.cfg.addr;
        // Let a failover happen (no heartbeats), then the old primary
        // heartbeats again and must learn about the new epoch.
        sim.run_until(simkit::SimTime::from_millis(600));
        let hh = h.clone();
        let epoch = sim.block_on(async move {
            let rpc = RpcClient::new(&hh, NodeId(0), 7);
            send_heartbeat(
                &rpc,
                addr,
                ShardId(0),
                Addr::new(NodeId(0), 0),
                Duration::from_millis(10),
            )
            .await
            .unwrap()
        });
        assert!(epoch >= 1, "old primary observes the new configuration");
    }
}

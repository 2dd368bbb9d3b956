//! The SEMEL shard server: linearizable single-key RPCs over a storage
//! backend, with primary/backup inconsistent replication (§3.2, §3.3).
//!
//! - A **primary** serializes all reads/writes for its shard. Writes carry
//!   client-assigned version stamps; stale stamps are rejected (at-most-once)
//!   and exact duplicates are re-acknowledged idempotently. A write is acked
//!   after it is locally durable *and* `f` of the `2f` backups acknowledged
//!   its record — in any order relative to other records.
//! - A **backup** just applies records; ordering is reconstructed from
//!   version stamps, never from arrival order.
//!
//! Every request, alone or batched, goes through [`ReplicaCore::dispatch`]
//! and this server's [`Dispatch::start`]: `Get`, `Put`, `Delete` and
//! `Record` return their own future, so an envelope holding one gets a
//! task that starts its items side by side in item order; a `Watermark` is
//! answered at its delivery instant, with no task.

use std::rc::Rc;

use batchkit::{BatchConfig, Batcher};
use flashsim::{Backend, StoreError};
use loadkit::{AdmissionConfig, Permit};
use simkit::net::Addr;
use simkit::sync::oneshot;
use simkit::SimHandle;
use timesync::{ClientId, Timestamp};

use crate::msg::{ReplicaRecord, SemelRequest, SemelResponse};
use crate::replica::{Dispatch, ReplicaCore, Started};
use crate::shard::ShardId;
use crate::REPL_TIMEOUT;

/// How a primary streams records to its backups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplicationMode {
    /// SEMEL's relaxed mode (§3.2): backups apply and acknowledge records
    /// in arrival order; version stamps carry the real order.
    #[default]
    Inconsistent,
    /// The conventional alternative: records carry sequence numbers and a
    /// backup holds record *n+1* (neither applying nor acknowledging it)
    /// until it has applied record *n* — so one delayed message stalls the
    /// acknowledgement of everything behind it.
    Ordered,
}

/// Static configuration of one shard replica.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Which shard this replica serves.
    pub shard: ShardId,
    /// This replica's service address (its mailbox).
    pub addr: Addr,
    /// The shard's backup addresses (empty on backups themselves).
    pub backups: Vec<Addr>,
    /// True for the designated primary.
    pub is_primary: bool,
    /// Clients whose watermark reports gate garbage collection.
    pub clients: Vec<ClientId>,
    /// Replication ordering discipline (ablation knob; SEMEL uses
    /// [`ReplicationMode::Inconsistent`]).
    pub replication: ReplicationMode,
    /// Group-commit replication: the primary coalesces up to `batch_max`
    /// records (or `batch_deadline` worth) into one backup envelope. Only
    /// effective in [`ReplicationMode::Inconsistent`] — an ordered record
    /// waits for its turn on the backup, so ordered mode sends each alone.
    /// `batch_max = 1` reproduces the unbatched per-record fan-out.
    pub batch: BatchConfig,
    /// Observability: metric registry plus (optionally enabled) structured
    /// trace sink.
    pub obs: obskit::Obs,
    /// The cluster map, shared with the server: client-facing requests for
    /// keys the map no longer assigns to this shard are fenced with
    /// [`SemelResponse::Moved`] instead of being served — the source side
    /// of a rebalance cutover.
    pub map: Rc<std::cell::RefCell<crate::shard::ShardMap>>,
}

/// Admission cost of a point read.
pub(crate) const COST_GET: u64 = 1;
/// Admission cost of a replicated write or delete (backend write + backup
/// fan-out holds capacity longer than a read).
pub(crate) const COST_PUT: u64 = 2;

/// One running shard replica: the [`ReplicaCore`] plus the ordered-mode
/// ablation state. Cloning shares the server state.
#[derive(Clone)]
pub struct ShardServer {
    core: Rc<ReplicaCore>,
    cfg: Rc<ServerConfig>,
    /// High-water mark of GC floors this replica has acted on. Explicitly
    /// monotone: late or regressing reports (clock steps, respawns reusing
    /// the backend) can never pull it back.
    applied_wm: Rc<std::cell::Cell<Timestamp>>,
    /// Primary: next sequence number to assign (ordered mode).
    next_seq: Rc<std::cell::Cell<u64>>,
    /// Backup: in-order application state (ordered mode).
    ordered: Rc<std::cell::RefCell<OrderedBackup>>,
    /// Primary, inconsistent mode: the group-commit batcher. Each flushed
    /// batch goes to every backup as one envelope; an item's submit future
    /// resolves true once `f` backups acknowledged its whole batch.
    repl_batch: Option<Batcher<ReplicaRecord, bool>>,
}

#[derive(Debug, Default)]
struct OrderedBackup {
    next_apply: u64,
    /// Records that arrived ahead of their turn: the signal that starts each.
    held: std::collections::BTreeMap<u64, oneshot::Sender<()>>,
}

impl std::fmt::Debug for ShardServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardServer")
            .field("shard", &self.cfg.shard)
            .field("addr", &self.cfg.addr)
            .field("primary", &self.cfg.is_primary)
            .finish()
    }
}

impl ShardServer {
    /// Serves `cfg.addr` on its node through the shared dispatch and returns
    /// a handle to the server.
    /// The `backend` outlives node failures, modeling durable storage.
    pub(crate) fn spawn(handle: &SimHandle, backend: Backend, cfg: ServerConfig) -> ShardServer {
        let core = ReplicaCore::new(
            handle,
            backend,
            cfg.addr,
            // Overload control for client-facing operations (replication
            // and watermark traffic is exempt — refusing it would only
            // amplify recovery work).
            &AdmissionConfig::default(),
            &cfg.obs,
            &cfg.clients,
            None,
        );
        let cfg = Rc::new(cfg);
        let repl_batch = (cfg.is_primary
            && cfg.replication == ReplicationMode::Inconsistent
            && !cfg.backups.is_empty())
        .then(|| {
            let backups = cfg.backups.clone();
            core.replication_plane(
                "semel",
                cfg.batch,
                REPL_TIMEOUT,
                move |recs: Vec<ReplicaRecord>| {
                    let wire = recs
                        .into_iter()
                        .map(|rec| SemelRequest::Record { seq: None, rec })
                        .collect();
                    (backups.clone(), wire)
                },
                |r: &SemelResponse| matches!(r, SemelResponse::RecordOk),
            )
        });
        let server = ShardServer {
            core,
            applied_wm: Rc::new(std::cell::Cell::new(Timestamp::ZERO)),
            cfg,
            next_seq: Rc::new(std::cell::Cell::new(0)),
            ordered: Rc::new(std::cell::RefCell::new(OrderedBackup::default())),
            repl_batch,
        };
        let me = server.clone();
        server
            .core
            .serve(move |incoming, from, resp| me.core.dispatch(&me, incoming, from, resp));
        server
    }

    /// The storage backend (exposed for preloading and test inspection).
    pub fn backend(&self) -> &Backend {
        &self.core.backend
    }

    /// This replica's configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// Merges one client's watermark report (the core advances the
    /// backend's GC floor) and remembers the highest floor applied.
    fn merge_watermark(&self, client: ClientId, ts: Timestamp) {
        if let Some(wm) = self.core.merge_watermark(client, ts, Timestamp::MAX) {
            if wm > self.applied_wm.get() {
                self.applied_wm.set(wm);
            }
        }
    }

    /// The highest GC floor this replica has applied. Monotone for the
    /// lifetime of the server handle — snapshot readers may rely on it
    /// never regressing.
    pub fn applied_watermark(&self) -> Timestamp {
        self.applied_wm.get()
    }

    /// Replicates one record to the backups, through the group-commit
    /// batcher when one is running (primary, inconsistent mode) and as a
    /// standalone fan-out otherwise. Returns true once `f` backups cover
    /// the record.
    async fn replicate_record(&self, rec: ReplicaRecord) -> bool {
        if let Some(batcher) = &self.repl_batch {
            return batcher.submit(rec).await.unwrap_or(false);
        }
        let seq = match self.cfg.replication {
            ReplicationMode::Inconsistent => None,
            ReplicationMode::Ordered => Some(self.next_seq.replace(self.next_seq.get() + 1)),
        };
        self.core
            .replicate(
                self.cfg.backups.clone(),
                SemelRequest::Record { seq, rec },
                REPL_TIMEOUT,
                |r: &SemelResponse| matches!(r, SemelResponse::RecordOk),
            )
            .await
    }

    async fn apply_record(&self, rec: ReplicaRecord) -> SemelResponse {
        match rec {
            ReplicaRecord::Write {
                key,
                value,
                version,
            } => match self.core.backend.apply_unordered(key, value, version).await {
                Ok(()) => SemelResponse::RecordOk,
                Err(_) => SemelResponse::Capacity,
            },
            ReplicaRecord::Delete { key } => {
                self.core.backend.delete(&key);
                SemelResponse::RecordOk
            }
        }
    }

    /// Ordered-mode backup path: apply strictly by sequence number. A record
    /// ahead of its turn waits for its predecessor's apply to hand the turn
    /// on; one below `next_apply` is acked at once. A duplicate that
    /// displaces a held record leaves that record's caller without a reply.
    async fn ordered_record(self, seq: u64, rec: ReplicaRecord) -> Option<SemelResponse> {
        let turn = {
            let mut ob = self.ordered.borrow_mut();
            if seq < ob.next_apply {
                return Some(SemelResponse::RecordOk);
            }
            (seq > ob.next_apply).then(|| {
                let (tx, rx) = oneshot::channel();
                ob.held.insert(seq, tx);
                rx
            })
        };
        if let Some(turn) = turn {
            turn.await.ok()?;
        }
        let r = self.apply_record(rec).await;
        let next = {
            let mut ob = self.ordered.borrow_mut();
            ob.next_apply += 1;
            let n = ob.next_apply;
            ob.held.remove(&n)
        };
        if let Some(next) = next {
            let _ = next.send(());
        }
        Some(r)
    }

    /// Cutover fence: a `Get`, `Put` or `Delete` of a key the shared map no
    /// longer assigns here is answered with a forwarding stub, never served
    /// from local state.
    fn moved(&self, req: &SemelRequest) -> Option<SemelResponse> {
        let (SemelRequest::Get { key, .. }
        | SemelRequest::Put { key, .. }
        | SemelRequest::Delete { key }) = req
        else {
            return None;
        };
        let map = self.cfg.map.borrow();
        (map.shard_for(key) != self.cfg.shard).then(|| SemelResponse::Moved { epoch: map.epoch() })
    }
}

impl Dispatch for ShardServer {
    type Req = SemelRequest;
    type Resp = SemelResponse;
    const SHED: fn(loadkit::Shed) -> SemelResponse = SemelResponse::Shed;
    /// Not an acknowledgement.
    const SILENT: SemelResponse = SemelResponse::NoMajority;

    fn admission_cost(req: &SemelRequest) -> Option<u64> {
        match req {
            SemelRequest::Get { .. } => Some(COST_GET),
            SemelRequest::Put { .. } | SemelRequest::Delete { .. } => Some(COST_PUT),
            // Replication and watermark control traffic must always land:
            // shedding it amplifies recovery work instead of reducing load.
            SemelRequest::Record { .. } | SemelRequest::Watermark { .. } => None,
        }
    }

    /// Everything but a watermark report.
    fn may_wait(req: &SemelRequest) -> bool {
        !matches!(req, SemelRequest::Watermark { .. })
    }

    fn start(
        &self,
        req: SemelRequest,
        permit: Option<Permit>,
        _from: Addr,
    ) -> Started<SemelResponse> {
        if let Some(moved) = self.moved(&req) {
            return Started::Answered(moved);
        }
        let me = self.clone();
        Started::Waiting(match req {
            SemelRequest::Get { key, at } => Box::pin(async move {
                let _permit = permit;
                Some(match me.core.backend.get_at(&key, at).await {
                    Ok(vv) => SemelResponse::Value {
                        version: vv.version,
                        value: vv.value,
                        prepared: false,
                    },
                    Err(StoreError::NotFound) => SemelResponse::NotFound,
                    Err(StoreError::SnapshotUnavailable(v)) => {
                        SemelResponse::SnapshotUnavailable(v)
                    }
                    Err(_) => SemelResponse::Capacity,
                })
            }),
            SemelRequest::Put {
                key,
                value,
                version,
            } => Box::pin(async move {
                let _permit = permit;
                match me
                    .core
                    .backend
                    .put(key.clone(), value.clone(), version)
                    .await
                {
                    Ok(()) => {}
                    // Retransmission of a completed write: re-replicate (the
                    // original majority may have been partial) and re-ack.
                    Err(StoreError::StaleWrite(current)) if current == version => {}
                    Err(StoreError::StaleWrite(current)) => {
                        return Some(SemelResponse::Rejected(current))
                    }
                    Err(_) => return Some(SemelResponse::Capacity),
                }
                let rec = ReplicaRecord::Write {
                    key,
                    value,
                    version,
                };
                let ok = me.replicate_record(rec).await;
                Some(if ok {
                    SemelResponse::PutOk
                } else {
                    SemelResponse::NoMajority
                })
            }),
            SemelRequest::Delete { key } => Box::pin(async move {
                let _permit = permit;
                me.core.backend.delete(&key);
                let ok = me.replicate_record(ReplicaRecord::Delete { key }).await;
                Some(if ok {
                    SemelResponse::Deleted
                } else {
                    SemelResponse::NoMajority
                })
            }),
            SemelRequest::Watermark { client, ts } => {
                self.merge_watermark(client, ts);
                return Started::Answered(SemelResponse::RecordOk);
            }
            SemelRequest::Record { seq: None, rec } => {
                Box::pin(async move { Some(me.apply_record(rec).await) })
            }
            SemelRequest::Record {
                seq: Some(seq),
                rec,
            } => Box::pin(me.ordered_record(seq, rec)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashsim::{value, BackendKind, Key};
    use simkit::net::NodeId;
    use simkit::rpc::{RpcClient, RpcError};
    use simkit::Sim;
    use std::time::Duration;
    use timesync::Version;

    const TIMEOUT: Duration = Duration::from_millis(50);

    fn test_server(handle: &SimHandle, clients: Vec<ClientId>) -> ShardServer {
        spawn_with(handle, clients, ReplicationMode::Inconsistent, true)
    }

    fn spawn_with(
        handle: &SimHandle,
        clients: Vec<ClientId>,
        replication: ReplicationMode,
        is_primary: bool,
    ) -> ShardServer {
        let backend = Backend::new(BackendKind::Mftl, handle, flashsim::NandConfig::default());
        let addr = Addr::new(NodeId(0), 0);
        // One shard: the map assigns every key here.
        let map = crate::shard::ShardMap::new(vec![crate::shard::ReplicaGroup {
            primary: addr,
            backups: Vec::new(),
        }]);
        ShardServer::spawn(
            handle,
            backend,
            ServerConfig {
                shard: ShardId(0),
                addr,
                backups: Vec::new(),
                is_primary,
                clients,
                replication,
                batch: BatchConfig::default(),
                obs: obskit::Obs::new(),
                map: Rc::new(std::cell::RefCell::new(map)),
            },
        )
    }

    fn v(ts: u64) -> Version {
        Version::new(Timestamp(ts), ClientId(1))
    }

    fn write(key: u64) -> ReplicaRecord {
        ReplicaRecord::Write {
            key: Key::from(key),
            value: value(&b"r"[..]),
            version: v(10),
        }
    }

    /// An ordered-mode record `seq` writing `key`.
    fn record(seq: u64, key: u64) -> SemelRequest {
        SemelRequest::Record {
            seq: Some(seq),
            rec: write(key),
        }
    }

    #[test]
    fn a_semel_request_gets_the_same_reply_alone_or_batched() {
        let requests = || {
            vec![
                SemelRequest::Get {
                    key: Key::from(1),
                    at: Timestamp(100),
                },
                SemelRequest::Put {
                    key: Key::from(2),
                    value: value(&b"p"[..]),
                    version: v(10),
                },
                SemelRequest::Delete { key: Key::from(3) },
                SemelRequest::Record {
                    seq: None,
                    rec: write(4),
                },
                SemelRequest::Watermark {
                    client: ClientId(0),
                    ts: Timestamp(50),
                },
            ]
        };
        // Each request alone in its envelope, or all five in one.
        let run = |batched: bool| {
            let mut sim = Sim::new(7);
            let h = sim.handle();
            let server = test_server(&h, vec![ClientId(0)]);
            let rpc = RpcClient::new(&h, NodeId(1), 0);
            let addr = server.config().addr;
            sim.block_on(async move {
                for key in [1, 3] {
                    let backend = server.backend();
                    backend
                        .put(Key::from(key), value(&b"v"[..]), v(5))
                        .await
                        .unwrap();
                }
                let replies: Vec<SemelResponse> = if batched {
                    rpc.call_batch(addr, requests(), TIMEOUT).await.unwrap()
                } else {
                    let mut replies = Vec::new();
                    for req in requests() {
                        replies.push(rpc.call(addr, req, TIMEOUT).await.unwrap());
                    }
                    replies
                };
                format!("{replies:?}")
            })
        };
        let alone = run(false);
        assert_eq!(run(true), alone);
        assert!(alone.starts_with("[Value {"), "{alone}");
        assert!(
            alone.ends_with("PutOk, Deleted, RecordOk, RecordOk]"),
            "{alone}"
        );
    }

    #[test]
    fn a_watermark_cast_costs_no_task() {
        let mut sim = Sim::new(8);
        let h = sim.handle();
        let hh = h.clone();
        let server = test_server(&h, vec![ClientId(0)]);
        let rpc = RpcClient::new(&h, NodeId(1), 0);
        let ts = Timestamp(30);
        sim.block_on(async move {
            let addr = server.config().addr;
            let window = |cast: bool| {
                let (hh, rpc) = (hh.clone(), &rpc);
                async move {
                    let (polls, spawns) = (hh.polls(), hh.spawns());
                    if cast {
                        rpc.cast(
                            addr,
                            SemelRequest::Watermark {
                                client: ClientId(0),
                                ts,
                            },
                        );
                    }
                    hh.sleep(Duration::from_millis(1)).await;
                    (hh.polls() - polls, hh.spawns() - spawns)
                }
            };
            let quiet = window(false).await;
            assert_eq!(window(true).await, quiet);
            assert_eq!(quiet, (1, 0), "the window's own wake-up only");
            assert_eq!(server.applied_watermark(), ts);
        });
    }

    #[test]
    fn an_early_ordered_record_is_acked_only_after_its_predecessor_applies() {
        let mut sim = Sim::new(9);
        let h = sim.handle();
        let hh = h.clone();
        let server = spawn_with(&h, Vec::new(), ReplicationMode::Ordered, false);
        let rpc = Rc::new(RpcClient::new(&h, NodeId(1), 0));
        sim.block_on(async move {
            let addr = server.config().addr;
            let early = {
                let (rpc, server) = (Rc::clone(&rpc), server.clone());
                hh.spawn(async move {
                    let r = rpc
                        .call::<_, SemelResponse>(addr, record(1, 1), TIMEOUT)
                        .await;
                    (r, server.backend().latest_version(&Key::from(0)))
                })
            };
            hh.sleep(Duration::from_millis(5)).await;
            assert_eq!(server.backend().latest_version(&Key::from(1)), None);
            let r = rpc
                .call::<_, SemelResponse>(addr, record(0, 0), TIMEOUT)
                .await;
            assert!(matches!(r, Ok(SemelResponse::RecordOk)), "{r:?}");
            let (r, applied) = early.await;
            assert!(matches!(r, Ok(SemelResponse::RecordOk)), "{r:?}");
            assert_eq!(
                applied,
                Some(v(10)),
                "record 0 applied before record 1's ack"
            );
            assert_eq!(server.backend().latest_version(&Key::from(1)), Some(v(10)));
        });
    }

    #[test]
    fn an_ordered_record_below_next_apply_is_acked_at_once() {
        let mut sim = Sim::new(10);
        let h = sim.handle();
        let hh = h.clone();
        let server = spawn_with(&h, Vec::new(), ReplicationMode::Ordered, false);
        let rpc = RpcClient::new(&h, NodeId(1), 0);
        sim.block_on(async move {
            let addr = server.config().addr;
            let round_trip = |req| {
                let (rpc, hh) = (&rpc, hh.clone());
                async move {
                    let t = hh.now();
                    let r = rpc.call::<_, SemelResponse>(addr, req, TIMEOUT).await;
                    assert!(matches!(r, Ok(SemelResponse::RecordOk)), "{r:?}");
                    hh.now().saturating_since(t)
                }
            };
            let applied = round_trip(record(0, 0)).await;
            // A second record 0, writing another key: acked without an apply.
            let duplicate = round_trip(record(0, 7)).await;
            assert!(duplicate < applied, "{duplicate:?} vs {applied:?}");
            assert_eq!(server.backend().latest_version(&Key::from(7)), None);
        });
    }

    #[test]
    fn a_displaced_held_duplicate_gets_no_reply() {
        let mut sim = Sim::new(11);
        let h = sim.handle();
        let hh = h.clone();
        let server = spawn_with(&h, Vec::new(), ReplicationMode::Ordered, false);
        let rpc = Rc::new(RpcClient::new(&h, NodeId(1), 0));
        sim.block_on(async move {
            let addr = server.config().addr;
            let held = |key| {
                let rpc = Rc::clone(&rpc);
                hh.spawn(async move {
                    rpc.call::<_, SemelResponse>(addr, record(1, key), TIMEOUT)
                        .await
                })
            };
            let displaced = held(1);
            hh.sleep(Duration::from_millis(1)).await;
            let duplicate = held(2);
            hh.sleep(Duration::from_millis(1)).await;
            let r = rpc
                .call::<_, SemelResponse>(addr, record(0, 0), TIMEOUT)
                .await;
            assert!(matches!(r, Ok(SemelResponse::RecordOk)), "{r:?}");
            let r = duplicate.await;
            assert!(matches!(r, Ok(SemelResponse::RecordOk)), "{r:?}");
            assert_eq!(displaced.await.unwrap_err(), RpcError::Timeout);
            // Only the record that displaced it was applied.
            assert_eq!(server.backend().latest_version(&Key::from(1)), None);
            assert_eq!(server.backend().latest_version(&Key::from(2)), Some(v(10)));
        });
    }

    #[test]
    fn applied_watermark_never_regresses() {
        let mut sim = Sim::new(7);
        let h = sim.handle();
        let server = test_server(&h, vec![ClientId(0), ClientId(1)]);
        sim.block_on(async move {
            assert_eq!(server.applied_watermark(), Timestamp::ZERO);
            server.merge_watermark(ClientId(0), Timestamp(30));
            server.merge_watermark(ClientId(1), Timestamp(10));
            assert_eq!(server.applied_watermark(), Timestamp(10));
            // Reports only ever raise the floor, even arriving out of order
            // (a stepped clock re-sending an old report, say).
            server.merge_watermark(ClientId(1), Timestamp(5));
            assert_eq!(server.applied_watermark(), Timestamp(10));
            server.merge_watermark(ClientId(1), Timestamp(40));
            assert_eq!(server.applied_watermark(), Timestamp(30));
            server.merge_watermark(ClientId(0), Timestamp(25));
            assert_eq!(server.applied_watermark(), Timestamp(30));
        });
    }
}

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

use std::rc::Rc;

use batchkit::{BatchConfig, Batcher};
use flashsim::{Backend, StoreError};
use loadkit::AdmissionConfig;
use simkit::net::Addr;
use simkit::rpc::{Incoming, Responder};
use simkit::SimHandle;
use timesync::{ClientId, Timestamp};

use crate::msg::{ReplicaRecord, SemelRequest, SemelResponse};
use crate::replica::ReplicaCore;
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
    /// Overload control: bounded cost-aware admission for client-facing
    /// operations (replication and watermark traffic is exempt — refusing
    /// it would only amplify recovery work).
    pub admission: AdmissionConfig,
    /// Group-commit replication: the primary coalesces up to `batch_max`
    /// records (or `batch_deadline` worth) into one backup envelope. Only
    /// effective in [`ReplicationMode::Inconsistent`] — ordered mode's
    /// gap-filling holds per-record responders and bypasses the batcher.
    /// `batch_max = 1` reproduces the unbatched per-record fan-out.
    pub batch: BatchConfig,
    /// Observability: metric registry plus (optionally enabled) structured
    /// trace sink.
    pub obs: obskit::Obs,
    /// The cluster map, when shared with the server: client-facing
    /// requests for keys the map no longer assigns to this shard are
    /// fenced with [`SemelResponse::Moved`] instead of being served —
    /// the source side of a rebalance cutover. `None` disables the check
    /// (single-shard deployments and unit harnesses).
    pub map: Option<Rc<std::cell::RefCell<crate::shard::ShardMap>>>,
}

/// Admission cost of a point read.
pub const COST_GET: u64 = 1;
/// Admission cost of a replicated write or delete (backend write + backup
/// fan-out holds capacity longer than a read).
pub const COST_PUT: u64 = 2;

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
    /// Records that arrived ahead of their turn, with their responders.
    held: std::collections::BTreeMap<u64, (ReplicaRecord, Responder)>,
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
    /// Spawns the server loop on `cfg.addr.node` and returns a handle to it.
    /// The `backend` outlives node failures, modeling durable storage.
    pub fn spawn(handle: &SimHandle, backend: Backend, cfg: ServerConfig) -> ShardServer {
        let core = ReplicaCore::new(
            handle,
            backend,
            cfg.addr,
            &cfg.admission,
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
        // One task per envelope: no benchmark workload runs SEMEL, so its
        // requests are not sorted into ones that never wait.
        let me = server.clone();
        server.core.serve(move |incoming, _from, resp| {
            let server = me.clone();
            me.core.spawn(async move {
                match incoming {
                    Incoming::One(req) => server.handle_request(req, resp).await,
                    Incoming::Batch(items) => server.handle_batch(items, resp).await,
                }
            })
        });
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

    async fn handle_request(&self, req: SemelRequest, resp: Responder) {
        let cost = match &req {
            SemelRequest::Get { .. } => Some(COST_GET),
            SemelRequest::Put { .. } | SemelRequest::Delete { .. } => Some(COST_PUT),
            // Replication and watermark control traffic must always land:
            // shedding it amplifies recovery work instead of reducing load.
            SemelRequest::Record { .. } | SemelRequest::Watermark { .. } => None,
        };
        let (_permit, resp) = match cost {
            Some(cost) => match self.core.admit(cost, resp, SemelResponse::Shed) {
                Some((permit, resp)) => (Some(permit), resp),
                None => return,
            },
            None => (None, resp),
        };
        // Cutover fence: keys the shared map no longer assigns here are
        // answered with a forwarding stub, never served from local state.
        if let Some(map) = &self.cfg.map {
            let moved_key = match &req {
                SemelRequest::Get { key, .. }
                | SemelRequest::Put { key, .. }
                | SemelRequest::Delete { key } => Some(key),
                _ => None,
            };
            if let Some(key) = moved_key {
                let (owner, epoch) = {
                    let m = map.borrow();
                    (m.shard_for(key), m.epoch())
                };
                if owner != self.cfg.shard {
                    resp.reply(SemelResponse::Moved { epoch });
                    return;
                }
            }
        }
        match req {
            SemelRequest::Get { key, at } => {
                let r = match self.core.backend.get_at(&key, at).await {
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
                };
                resp.reply(r);
            }
            SemelRequest::Put {
                key,
                value,
                version,
            } => {
                let r = self.handle_put(key, value, version).await;
                resp.reply(r);
            }
            SemelRequest::Delete { key } => {
                self.core.backend.delete(&key);
                let rec = ReplicaRecord::Delete { key };
                let ok = self.replicate_record(rec).await;
                resp.reply(if ok {
                    SemelResponse::Deleted
                } else {
                    SemelResponse::NoMajority
                });
            }
            SemelRequest::Watermark { client, ts } => {
                self.merge_watermark(client, ts);
                resp.reply(SemelResponse::RecordOk);
            }
            SemelRequest::Record { seq, rec } => match seq {
                None => {
                    let r = self.apply_record(rec).await;
                    resp.reply(r);
                }
                Some(seq) => self.handle_ordered_record(seq, rec, resp).await,
            },
        }
    }

    /// Backup path for a coalesced replication envelope: apply every item
    /// in order and answer them all in one [`BatchReply`]. Only replication
    /// records and watermark reports travel in batches; client-facing
    /// operations arriving batched is a wiring bug.
    async fn handle_batch(&self, items: Vec<SemelRequest>, resp: Responder) {
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            let r = match item {
                SemelRequest::Record { seq: None, rec } => self.apply_record(rec).await,
                SemelRequest::Watermark { client, ts } => {
                    self.merge_watermark(client, ts);
                    SemelResponse::RecordOk
                }
                other => panic!("unbatchable semel request in batch envelope: {other:?}"),
            };
            out.push(r);
        }
        resp.reply_batch(out);
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
        let req = SemelRequest::Record {
            seq: self.assign_seq(),
            rec,
        };
        self.core
            .replicate(
                self.cfg.backups.clone(),
                req,
                REPL_TIMEOUT,
                |r: &SemelResponse| matches!(r, SemelResponse::RecordOk),
            )
            .await
    }

    fn assign_seq(&self) -> Option<u64> {
        match self.cfg.replication {
            ReplicationMode::Inconsistent => None,
            ReplicationMode::Ordered => {
                let s = self.next_seq.get();
                self.next_seq.set(s + 1);
                Some(s)
            }
        }
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

    /// Ordered-mode backup path: apply strictly by sequence number, holding
    /// early arrivals (and their acknowledgements) until the gap fills.
    async fn handle_ordered_record(&self, seq: u64, rec: ReplicaRecord, resp: Responder) {
        {
            let mut ob = self.ordered.borrow_mut();
            if seq > ob.next_apply {
                ob.held.insert(seq, (rec, resp));
                return;
            }
            if seq < ob.next_apply {
                // Duplicate of something already applied.
                resp.reply(SemelResponse::RecordOk);
                return;
            }
        }
        // seq == next_apply: apply, then drain any ready successors.
        let r = self.apply_record(rec).await;
        resp.reply(r);
        loop {
            let next = {
                let mut ob = self.ordered.borrow_mut();
                ob.next_apply += 1;
                let n = ob.next_apply;
                ob.held.remove(&n)
            };
            match next {
                Some((rec, resp)) => {
                    let r = self.apply_record(rec).await;
                    resp.reply(r);
                }
                None => break,
            }
        }
    }

    async fn handle_put(
        &self,
        key: flashsim::Key,
        value: flashsim::Value,
        version: timesync::Version,
    ) -> SemelResponse {
        match self
            .core
            .backend
            .put(key.clone(), value.clone(), version)
            .await
        {
            Ok(()) => {}
            Err(StoreError::StaleWrite(current)) if current == version => {
                // Retransmission of a completed write: re-replicate (the
                // original majority may have been partial) and re-ack.
            }
            Err(StoreError::StaleWrite(current)) => {
                return SemelResponse::Rejected(current);
            }
            Err(_) => return SemelResponse::Capacity,
        }
        let rec = ReplicaRecord::Write {
            key,
            value,
            version,
        };
        let ok = self.replicate_record(rec).await;
        if ok {
            SemelResponse::PutOk
        } else {
            SemelResponse::NoMajority
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashsim::BackendKind;
    use simkit::Sim;

    fn test_server(handle: &SimHandle, clients: Vec<ClientId>) -> ShardServer {
        let backend = Backend::new(BackendKind::Mftl, handle, flashsim::NandConfig::default());
        ShardServer::spawn(
            handle,
            backend,
            ServerConfig {
                shard: ShardId(0),
                addr: Addr::new(simkit::net::NodeId(0), 0),
                backups: Vec::new(),
                is_primary: true,
                clients,
                replication: ReplicationMode::Inconsistent,
                admission: AdmissionConfig::default(),
                batch: BatchConfig::default(),
                obs: obskit::Obs::new(),
                map: None,
            },
        )
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

//! Centiman-style validation baseline (§5.3, Figure 9).
//!
//! Centiman \[Ding et al., SoCC'15\] factors OCC validation out of the
//! storage servers into dedicated **validator** nodes and gives clients a
//! *watermark-gated* local validation rule for read-only transactions: a
//! client may commit a read-only transaction locally only if every version
//! it read is older than the globally disseminated watermark; otherwise it
//! must fall back to a remote validation round trip.
//!
//! The contrast the paper draws (Figure 9): under contention, reads return
//! young versions, the watermark test fails, and Centiman degrades to
//! remote validation — while MILANA's prepared-flag scheme validates *all*
//! read-only transactions locally.
//!
//! Storage is plain SEMEL (reads/writes by version stamp); the validator
//! keeps the latest committed write timestamp per key, truncated below the
//! watermark, and applies writes optimistically at validation time (a
//! globally aborted transaction may leave tentative writes behind, which is
//! conservative — it can only cause extra aborts, never lost conflicts).

use perfkit::FastMap;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

use flashsim::{Key, Value};
use semel::client::SemelClient;
use semel::msg::SemelError;
use semel::shard::ShardMap;
use semel::RPC_TIMEOUT;
use simkit::net::{Addr, NodeId};
use simkit::rpc::{serve_incoming, Incoming, RpcClient};
use simkit::SimHandle;
use timesync::{ClientId, Timestamp, Version, WatermarkTracker};

use crate::msg::{AbortReason, TxnError, TxnId};

/// Requests understood by a Centiman validator.
#[derive(Debug, Clone)]
pub enum ValidatorRequest {
    /// Validate a transaction's reads and (optimistically apply) writes.
    Validate {
        /// Transaction id.
        txid: TxnId,
        /// Client-chosen commit timestamp.
        ts_commit: Timestamp,
        /// The latest timestamp at which the reads must still be current:
        /// `ts_commit` for read-write transactions (serializability at the
        /// commit point), `ts_begin` for read-only ones (snapshot reads are
        /// immune to later writes).
        read_horizon: Timestamp,
        /// `(key, version read)` pairs in this validator's shard.
        reads: Vec<(Key, Version)>,
        /// Write-set keys in this validator's shard.
        writes: Vec<Key>,
    },
    /// Client progress report (drives the watermark).
    Progress {
        /// Reporting client.
        client: ClientId,
        /// Latest decided timestamp.
        ts: Timestamp,
    },
}

/// Validator replies. Every reply piggybacks the validator's current
/// watermark so clients keep their local-validation gate fresh.
#[derive(Debug, Clone)]
pub enum ValidatorResponse {
    /// Validation verdict.
    Vote {
        /// True = no conflict.
        ok: bool,
        /// Current watermark at this validator.
        watermark: Timestamp,
    },
    /// Progress acknowledged.
    Ack {
        /// Current watermark at this validator.
        watermark: Timestamp,
    },
}

/// A Centiman validator for one shard. Cloning shares it.
#[derive(Clone)]
pub struct Validator {
    inner: Rc<RefCell<ValidatorInner>>,
}

struct ValidatorInner {
    /// Latest committed (or optimistically applied) write per key.
    writes: FastMap<Key, Timestamp>,
    watermarks: WatermarkTracker,
    handle: SimHandle,
    /// Trace sink for validation verdicts; disabled by default.
    tracer: obskit::Tracer,
    /// Shard id stamped on emitted trace events.
    trace_shard: u64,
}

impl std::fmt::Debug for Validator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Validator")
            .field("tracked_keys", &self.inner.borrow().writes.len())
            .finish()
    }
}

impl Validator {
    /// Spawns a validator service at `addr`.
    pub fn spawn(handle: &SimHandle, addr: Addr, clients: Vec<ClientId>) -> Validator {
        let v = Validator {
            inner: Rc::new(RefCell::new(ValidatorInner {
                writes: FastMap::default(),
                watermarks: WatermarkTracker::new(clients),
                handle: handle.clone(),
                tracer: obskit::Tracer::disabled(),
                trace_shard: 0,
            })),
        };
        // Every request is answered at its delivery instant, with no task.
        let me = v.clone();
        serve_incoming(handle, addr, move |incoming, _from, resp| match incoming {
            Incoming::One(req) => resp.reply(me.handle(req)),
            Incoming::Batch(_) => unreachable!("a validator is never sent a batch"),
        });
        v
    }

    /// Attaches a trace sink; each validation verdict emits a
    /// [`obskit::TraceEvent::PrepareVote`] stamped with `shard`.
    pub fn attach_tracer(&self, tracer: &obskit::Tracer, shard: u64) {
        let mut inner = self.inner.borrow_mut();
        inner.tracer = tracer.clone();
        inner.trace_shard = shard;
    }

    fn handle(&self, req: ValidatorRequest) -> ValidatorResponse {
        let mut inner = self.inner.borrow_mut();
        match req {
            ValidatorRequest::Validate {
                txid: _,
                ts_commit,
                read_horizon,
                reads,
                writes,
            } => {
                let mut ok = true;
                for (key, version) in &reads {
                    if let Some(&w) = inner.writes.get(key) {
                        // Conflict iff a write landed in (version, horizon]:
                        // the transaction read a value that was no longer
                        // current at the point where it must serialize.
                        if w > version.ts && w <= read_horizon {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok {
                    for key in writes {
                        let e = inner.writes.entry(key).or_insert(Timestamp::ZERO);
                        if ts_commit > *e {
                            *e = ts_commit;
                        }
                    }
                }
                inner.tracer.record(
                    inner.handle.now().as_nanos(),
                    obskit::TraceEvent::PrepareVote {
                        shard: inner.trace_shard,
                        ok,
                    },
                );
                ValidatorResponse::Vote {
                    ok,
                    watermark: inner.watermarks.watermark(),
                }
            }
            ValidatorRequest::Progress { client, ts } => {
                inner.watermarks.update(client, ts);
                let wm = inner.watermarks.watermark();
                // Truncate state below the watermark (Centiman's sliding
                // window): reads of versions older than the watermark are
                // decided by the client, so these entries are dead weight.
                if wm > Timestamp::ZERO {
                    inner.writes.retain(|_, &mut mut_w| mut_w >= wm);
                }
                ValidatorResponse::Ack { watermark: wm }
            }
        }
    }
}

/// Client tuning for the Centiman baseline.
#[derive(Debug, Clone)]
pub struct CentimanConfig {
    /// Disseminate progress after this many decided transactions (the
    /// paper's experiment uses 1,000).
    pub report_every: u64,
    /// Observability sinks (txn-lifecycle trace events).
    pub obs: obskit::Obs,
}

impl Default for CentimanConfig {
    fn default() -> CentimanConfig {
        CentimanConfig {
            report_every: 1000,
            obs: obskit::Obs::new(),
        }
    }
}

/// Per-client Centiman counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CentimanStats {
    /// Committed transactions.
    pub commits: u64,
    /// Aborted transactions.
    pub aborts: u64,
    /// Read-only transactions decided by the watermark rule (no RPC).
    pub local_validated: u64,
    /// Read-only transactions that had to validate remotely.
    pub remote_validated: u64,
}

/// A Centiman client: SEMEL storage for data, validators for OCC.
#[derive(Clone)]
pub struct CentimanClient {
    handle: SimHandle,
    storage: SemelClient,
    validators: Rc<Vec<Addr>>,
    map: Rc<RefCell<ShardMap>>,
    rpc: RpcClient,
    cfg: Rc<CentimanConfig>,
    watermark: Rc<Cell<Timestamp>>,
    decided: Rc<Cell<u64>>,
    last_decided_ts: Rc<Cell<Timestamp>>,
    seq: Rc<Cell<u64>>,
    stats: Rc<RefCell<CentimanStats>>,
}

impl std::fmt::Debug for CentimanClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CentimanClient")
            .field("id", &self.storage.id())
            .finish()
    }
}

/// Reply port for the Centiman client's validator RPCs.
pub const CENTIMAN_RPC_PORT: u16 = 48;

impl CentimanClient {
    /// Creates a client on `node`. `validators[i]` must be the validator of
    /// shard `i` in `map`.
    pub fn new(
        handle: &SimHandle,
        node: NodeId,
        storage: SemelClient,
        validators: Vec<Addr>,
        map: Rc<RefCell<ShardMap>>,
        cfg: CentimanConfig,
    ) -> CentimanClient {
        CentimanClient {
            handle: handle.clone(),
            storage,
            validators: Rc::new(validators),
            map,
            rpc: RpcClient::new(handle, node, CENTIMAN_RPC_PORT),
            cfg: Rc::new(cfg),
            watermark: Rc::new(Cell::new(Timestamp::ZERO)),
            decided: Rc::new(Cell::new(0)),
            last_decided_ts: Rc::new(Cell::new(Timestamp::ZERO)),
            seq: Rc::new(Cell::new(0)),
            stats: Rc::new(RefCell::new(CentimanStats::default())),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> CentimanStats {
        *self.stats.borrow()
    }

    fn trace(&self, ev: obskit::TraceEvent) {
        self.cfg.obs.tracer.record(self.handle.now().as_nanos(), ev);
    }

    /// Begins a transaction.
    pub fn begin(&self) -> CentTxn {
        let ts_begin = self.storage.now();
        self.trace(obskit::TraceEvent::TxnBegin {
            client: self.storage.id().0 as u64,
            ts_begin: ts_begin.0,
        });
        CentTxn {
            c: self.clone(),
            ts_begin,
            read_set: Vec::new(),
            writes: Vec::new(),
            write_idx: FastMap::default(),
            cache: FastMap::default(),
            finished: false,
        }
    }

    async fn note_decided(&self, ts: Timestamp) {
        if ts > self.last_decided_ts.get() {
            self.last_decided_ts.set(ts);
        }
        let n = self.decided.get() + 1;
        self.decided.set(n);
        if n.is_multiple_of(self.cfg.report_every) {
            self.disseminate().await;
        }
    }

    /// Sends a progress report to every validator and refreshes the local
    /// watermark estimate (normally triggered every `report_every` decided
    /// transactions; public for tests and warm-up).
    pub async fn disseminate(&self) {
        let ts = self.last_decided_ts.get();
        for &v in self.validators.iter() {
            let r = self
                .rpc
                .call::<ValidatorRequest, ValidatorResponse>(
                    v,
                    ValidatorRequest::Progress {
                        client: self.storage.id(),
                        ts,
                    },
                    RPC_TIMEOUT,
                )
                .await;
            if let Ok(ValidatorResponse::Ack { watermark }) = r {
                if watermark > self.watermark.get() {
                    self.watermark.set(watermark);
                }
            }
        }
    }
}

/// One executing Centiman transaction.
#[derive(Debug)]
pub struct CentTxn {
    c: CentimanClient,
    ts_begin: Timestamp,
    read_set: Vec<(Key, Version)>,
    writes: Vec<(Key, Value)>,
    write_idx: FastMap<Key, usize>,
    cache: FastMap<Key, Value>,
    finished: bool,
}

impl CentTxn {
    /// Snapshot read at `ts_begin` (own writes win).
    ///
    /// # Errors
    ///
    /// [`TxnError::KeyNotFound`] / [`TxnError::Timeout`] as in MILANA.
    pub async fn get(&mut self, key: &Key) -> Result<Value, TxnError> {
        if let Some(&i) = self.write_idx.get(key) {
            return Ok(self.writes[i].1.clone());
        }
        if let Some(v) = self.cache.get(key) {
            return Ok(v.clone());
        }
        match self.c.storage.get_at(key.clone(), self.ts_begin).await {
            Ok(vv) => {
                self.c.trace(obskit::TraceEvent::TxnRead {
                    client: self.c.storage.id().0 as u64,
                    key: key.trace_id(),
                    prepared: false,
                    ver_ts: vv.version.ts.0,
                    ver_client: vv.version.client.0 as u64,
                });
                self.read_set.push((key.clone(), vv.version));
                self.cache.insert(key.clone(), vv.value.clone());
                Ok(vv.value)
            }
            Err(SemelError::NotFound) => Err(TxnError::KeyNotFound(key.clone())),
            Err(SemelError::SnapshotUnavailable(_)) => {
                Err(TxnError::Aborted(AbortReason::SnapshotUnavailable))
            }
            Err(_) => Err(TxnError::Timeout),
        }
    }

    /// Buffers a write.
    pub fn put(&mut self, key: Key, value: Value) {
        match self.write_idx.get(&key) {
            Some(&i) => self.writes[i].1 = value,
            None => {
                self.write_idx.insert(key.clone(), self.writes.len());
                self.writes.push((key, value));
            }
        }
    }

    /// Commits via Centiman validation.
    ///
    /// Read-only fast path: if every read version is older than the known
    /// watermark, commit locally; otherwise validate remotely. Read-write
    /// transactions always validate remotely, then push their writes to
    /// storage.
    ///
    /// # Errors
    ///
    /// [`TxnError::Aborted`] on validation conflict.
    pub async fn commit(mut self) -> Result<crate::client::CommitInfo, TxnError> {
        assert!(!self.finished, "commit on finished transaction");
        self.finished = true;
        let read_only = self.writes.is_empty();
        if read_only {
            let wm = self.c.watermark.get();
            let all_old = self.read_set.iter().all(|(_, v)| v.ts < wm);
            let client = self.c.storage.id().0 as u64;
            self.c.trace(obskit::TraceEvent::ValidateLocal {
                client,
                ok: all_old,
            });
            if all_old {
                // Reads below the watermark are immutable history: no
                // in-flight writer can commit under them anymore.
                {
                    let mut st = self.c.stats.borrow_mut();
                    st.local_validated += 1;
                    st.commits += 1;
                }
                self.c.trace(obskit::TraceEvent::Commit {
                    client,
                    ts_commit: self.ts_begin.0,
                    local: true,
                });
                self.c.note_decided(self.ts_begin).await;
                return Ok(crate::client::CommitInfo {
                    ts_commit: None,
                    local: true,
                });
            }
            self.c.stats.borrow_mut().remote_validated += 1;
        }
        let ts_commit = self.c.storage.now();
        let read_horizon = if read_only { self.ts_begin } else { ts_commit };
        let txid = TxnId {
            client: self.c.storage.id(),
            seq: self.c.seq.replace(self.c.seq.get() + 1),
        };
        // Partition by shard and validate at each shard's validator.
        type ShardSets = FastMap<usize, (Vec<(Key, Version)>, Vec<Key>)>;
        let mut by_shard: ShardSets = FastMap::default();
        {
            let map = self.c.map.borrow();
            for (key, version) in &self.read_set {
                let s = map.shard_for(key).0 as usize;
                by_shard
                    .entry(s)
                    .or_default()
                    .0
                    .push((key.clone(), *version));
            }
            for (key, _) in &self.writes {
                let s = map.shard_for(key).0 as usize;
                by_shard.entry(s).or_default().1.push(key.clone());
            }
        }
        let mut ok = true;
        let mut shards_sorted: Vec<usize> = by_shard.keys().copied().collect();
        shards_sorted.sort_unstable();
        self.c.trace(obskit::TraceEvent::ValidateRemote {
            client: self.c.storage.id().0 as u64,
            participants: shards_sorted.len() as u64,
        });
        // Validate at every involved validator in parallel (one round).
        let mut votes = Vec::new();
        for s in shards_sorted {
            let (reads, writes) = by_shard.remove(&s).expect("shard present");
            let rpc = self.c.rpc.clone();
            let to = self.c.validators[s];
            votes.push(self.c.handle.spawn(async move {
                rpc.call::<ValidatorRequest, ValidatorResponse>(
                    to,
                    ValidatorRequest::Validate {
                        txid,
                        ts_commit,
                        read_horizon,
                        reads,
                        writes,
                    },
                    RPC_TIMEOUT,
                )
                .await
            }));
        }
        for v in votes {
            match v.await {
                Ok(ValidatorResponse::Vote {
                    ok: vote,
                    watermark,
                }) => {
                    if watermark > self.c.watermark.get() {
                        self.c.watermark.set(watermark);
                    }
                    ok &= vote;
                }
                _ => ok = false,
            }
        }
        if !ok {
            self.c.stats.borrow_mut().aborts += 1;
            self.c.trace(obskit::TraceEvent::Abort {
                client: self.c.storage.id().0 as u64,
                reason: obskit::AbortClass::Validation,
            });
            self.c.note_decided(ts_commit).await;
            return Err(TxnError::Aborted(AbortReason::Validation));
        }
        // Push writes to storage with the commit stamp, in parallel.
        let version = Version::new(ts_commit, self.c.storage.id());
        let mut puts = Vec::new();
        for (key, value) in self.writes.drain(..) {
            let storage = self.c.storage.clone();
            puts.push(self.c.handle.spawn(async move {
                let _ = storage.put_versioned(key, value, version).await;
            }));
        }
        for p in puts {
            p.await;
        }
        self.c.stats.borrow_mut().commits += 1;
        self.c.trace(obskit::TraceEvent::Commit {
            client: self.c.storage.id().0 as u64,
            ts_commit: ts_commit.0,
            local: false,
        });
        self.c.note_decided(ts_commit).await;
        Ok(crate::client::CommitInfo {
            ts_commit: Some(ts_commit),
            local: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashsim::value;
    use semel::cluster::{ClusterConfig, SemelCluster};
    use simkit::Sim;
    use std::time::Duration;

    /// Boots SEMEL storage (1 replica per shard, as §5.3 specifies), one
    /// validator per shard, and Centiman clients.
    fn boot(
        sim: &Sim,
        shards: u32,
        clients: u32,
        preload: u64,
    ) -> (SemelCluster, Vec<CentimanClient>) {
        let h = sim.handle();
        let cluster = SemelCluster::build(
            &h,
            ClusterConfig {
                shards,
                replicas: 1,
                clients,
                preload_keys: preload,
                nand: flashsim::NandConfig {
                    blocks: 256,
                    pages_per_block: 8,
                    ..flashsim::NandConfig::default()
                },
                ..ClusterConfig::default()
            },
        );
        let client_ids: Vec<ClientId> = (0..clients).map(ClientId).collect();
        let validators: Vec<Addr> = (0..shards)
            .map(|s| {
                // Validators live on the storage nodes, port 8.
                let node = cluster
                    .map
                    .borrow()
                    .group(semel::shard::ShardId(s))
                    .primary
                    .node;
                let addr = Addr::new(node, 8);
                Validator::spawn(&h, addr, client_ids.clone());
                addr
            })
            .collect();
        let cents = (0..clients)
            .map(|i| {
                CentimanClient::new(
                    &h,
                    simkit::net::NodeId(10_000 + i),
                    cluster.clients[i as usize].clone(),
                    validators.clone(),
                    cluster.map.clone(),
                    CentimanConfig {
                        report_every: 5,
                        ..CentimanConfig::default()
                    },
                )
            })
            .collect();
        (cluster, cents)
    }

    #[test]
    fn read_write_commit_round_trips() {
        let mut sim = Sim::new(41);
        let (_storage, clients) = boot(&sim, 2, 1, 50);
        sim.block_on(async move {
            let c = &clients[0];
            let mut t = c.begin();
            let _ = t.get(&Key::from(1u64)).await.unwrap();
            t.put(Key::from(1u64), value(&b"cent"[..]));
            t.commit().await.unwrap();
            let mut t2 = c.begin();
            assert_eq!(&t2.get(&Key::from(1u64)).await.unwrap()[..], b"cent");
            t2.commit().await.unwrap();
        });
    }

    #[test]
    fn conflicting_writers_one_aborts() {
        let mut sim = Sim::new(42);
        let h = sim.handle();
        let (_storage, clients) = boot(&sim, 1, 2, 50);
        sim.block_on(async move {
            let c0 = clients[0].clone();
            let c1 = clients[1].clone();
            let run = |c: CentimanClient, tag: &'static [u8]| async move {
                let mut t = c.begin();
                let _ = t.get(&Key::from(1u64)).await.unwrap();
                t.put(Key::from(1u64), value(tag));
                t.commit().await
            };
            let j0 = h.spawn(run(c0, b"zero"));
            let j1 = h.spawn(run(c1, b"one"));
            let (r0, r1) = (j0.await, j1.await);
            let commits = [&r0, &r1].iter().filter(|r| r.is_ok()).count();
            assert_eq!(commits, 1, "{r0:?} {r1:?}");
        });
    }

    #[test]
    fn stale_watermark_forces_remote_validation() {
        let mut sim = Sim::new(43);
        let (_storage, clients) = boot(&sim, 1, 1, 50);
        sim.block_on(async move {
            let c = &clients[0];
            // Watermark is ZERO: a read-only transaction cannot pass the
            // local gate (versions have ts >= watermark).
            let mut t = c.begin();
            let _ = t.get(&Key::from(1u64)).await.unwrap();
            t.commit().await.unwrap();
            assert_eq!(c.stats().remote_validated, 1);
            assert_eq!(c.stats().local_validated, 0);
        });
    }

    #[test]
    fn fresh_watermark_enables_local_validation() {
        let mut sim = Sim::new(44);
        let hh = sim.handle();
        let (_storage, clients) = boot(&sim, 1, 1, 50);
        sim.block_on(async move {
            let c = &clients[0];
            // Commit a write, advance time, and disseminate so the
            // watermark rises above the preloaded versions.
            let mut t = c.begin();
            let _ = t.get(&Key::from(2u64)).await.unwrap();
            t.put(Key::from(2u64), value(&b"warm"[..]));
            t.commit().await.unwrap();
            hh.sleep(Duration::from_millis(5)).await;
            c.disseminate().await;
            // Preloaded key 1 (version ts=1) is far below the watermark now.
            let mut t2 = c.begin();
            let _ = t2.get(&Key::from(1u64)).await.unwrap();
            let info = t2.commit().await.unwrap();
            assert!(info.local);
            assert_eq!(c.stats().local_validated, 1);
        });
    }

    #[test]
    fn contended_reads_fail_the_watermark_gate() {
        let mut sim = Sim::new(45);
        let hh = sim.handle();
        let (_storage, clients) = boot(&sim, 1, 2, 50);
        sim.block_on(async move {
            let writer = clients[0].clone();
            let reader = clients[1].clone();
            // Warm the watermark.
            let mut t = writer.begin();
            let _ = t.get(&Key::from(1u64)).await.unwrap();
            t.put(Key::from(1u64), value(&b"w0"[..]));
            t.commit().await.unwrap();
            hh.sleep(Duration::from_millis(5)).await;
            writer.disseminate().await;
            reader.disseminate().await;
            // Writer updates key 1 again — now its version is young.
            let mut t = writer.begin();
            let _ = t.get(&Key::from(1u64)).await.unwrap();
            t.put(Key::from(1u64), value(&b"w1"[..]));
            t.commit().await.unwrap();
            hh.sleep(Duration::from_millis(2)).await;
            // Reader reads the young version: local gate must fail.
            let mut r = reader.begin();
            let _ = r.get(&Key::from(1u64)).await.unwrap();
            r.commit().await.unwrap();
            assert_eq!(reader.stats().remote_validated, 1);
        });
    }
}

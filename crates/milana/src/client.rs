//! The MILANA client library (§4.1): each transaction executes entirely on
//! one client, which assigns its begin/commit timestamps from the local
//! precision clock, buffers writes, caches reads, coordinates two-phase
//! commit — and **commits read-only transactions locally**, with no server
//! round trips at all (§4.3).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

use perfkit::FastMap;
use std::rc::Rc;
use std::time::Duration;

use batchkit::{BatchConfig, Batcher};
use flashsim::{Key, Value};
use loadkit::RetryPolicy;
use obskit::{Obs, TraceEvent};
use readkit::{ReadRoute, ReplicaView, VersionCache};
use semel::client::ClientCore;
use semel::shard::{ShardId, ShardMap};
use simkit::net::{Addr, NodeId};
use simkit::rpc::RpcError;
use simkit::{SimHandle, SimTime};
use timesync::{ClientId, ClockSpec, SyncedClock, Timestamp, Version};

use crate::msg::{AbortReason, TxnError, TxnId, TxnRequest, TxnResponse};

/// Where transaction validation runs — the one knob that used to be
/// scattered across `local_validation` booleans and per-harness validator
/// flags. Shared by the client, cluster configs, and bench configs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ValidationMode {
    /// Every transaction — read-only included — validates remotely through
    /// 2PC at the shard primaries. The "w/o LV" configuration of Figure 8.
    Remote,
    /// Read-only transactions validate **client-locally** from the
    /// prepared-version flags piggybacked on reads (§4.3); read-write
    /// transactions still run 2PC. The paper's MILANA default.
    #[default]
    Local,
}

impl ValidationMode {
    /// Whether read-only transactions may commit client-locally.
    pub fn is_local(self) -> bool {
        matches!(self, ValidationMode::Local)
    }
}

/// Retries for reads that hit a recovering/leaseless primary.
const READ_RETRIES: u32 = 8;

/// Client tuning.
#[derive(Debug, Clone)]
pub struct TxnClientConfig {
    /// Per-RPC timeout.
    pub rpc_timeout: Duration,
    /// Master address for shard-map refresh after repeated failures.
    /// `None` means the client's map is externally maintained.
    pub master: Option<simkit::net::Addr>,
    /// Where validation runs (§4.3). [`ValidationMode::Remote`] forces
    /// read-only transactions through 2PC, the "w/o LV" configuration of
    /// Figure 8.
    pub validation: ValidationMode,
    /// Watermark broadcast period (§4.4).
    pub watermark_interval: Duration,
    /// Observability: metric registry plus (optionally enabled) structured
    /// trace sink. Defaults to metrics-only.
    pub obs: Obs,
    /// Coordinator-plane coalescing: Prepares/Outcomes bound for the same
    /// shard primary ride one envelope per flush window, with the client's
    /// watermark piggybacked on envelopes instead of its own RPC tick.
    /// `BatchConfig::unbatched()` reproduces the one-RPC-per-message plane.
    pub batch: BatchConfig,
    /// Replica routing for snapshot reads: non-primary policies send the
    /// read to a backup whose applied watermark covers `ts_begin`, falling
    /// back to the primary on `TooStale`. Default: primary-only.
    pub read_route: ReadRoute,
    /// Bounded-staleness snapshots (readkit): [`TxnOpts::snapshot`]
    /// opens its snapshot this far behind the client clock. The applied
    /// floor trails real time by roughly a commit round-trip, so a small
    /// lag makes a read-only transaction backup-eligible from its *first*
    /// read instead of only after the floor catches up mid-transaction.
    /// Zero (the default) reads at `now`. Plain [`TxnClient::begin`]
    /// ignores the knob — lagging a writer only widens its validation
    /// window. Serializability is unaffected either way.
    pub snapshot_lag: Duration,
}

impl Default for TxnClientConfig {
    fn default() -> TxnClientConfig {
        TxnClientConfig {
            rpc_timeout: Duration::from_millis(50),
            master: None,
            validation: ValidationMode::Local,
            watermark_interval: Duration::from_millis(100),
            obs: Obs::new(),
            batch: BatchConfig::default(),
            read_route: ReadRoute::PrimaryOnly,
            snapshot_lag: Duration::ZERO,
        }
    }
}

/// Per-client transaction counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxnClientStats {
    /// Transactions committed.
    pub commits: u64,
    /// Transactions aborted (any reason).
    pub aborts: u64,
    /// Read-only transactions decided locally (no validation round trips).
    pub local_validations: u64,
    /// Commit outcomes left unknown (coordinator could not decide).
    pub unknown: u64,
    /// Snapshot reads served by a backup replica (read routing).
    pub replica_reads: u64,
    /// Reads served from the client-wide version cache.
    pub cached_reads: u64,
}

/// How a transaction opens its snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TxnMode {
    /// `ts_begin` = the client clock now. The right mode for anything that
    /// might write: lagging a writer only widens its validation window.
    #[default]
    ReadWrite,
    /// **Bounded-staleness snapshot** (§4.6): `ts_begin` opens behind the
    /// clock (the configured or per-transaction lag), so the snapshot is
    /// already below the replicated write floor by the first read and
    /// backup replicas can serve it immediately. Meant for transactions
    /// known to be read-only up front.
    Snapshot,
}

/// Typed options for [`TxnClient::begin_with`] — mode, snapshot lag, and
/// cache participation as fields instead of three near-identical methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TxnOpts {
    /// Snapshot placement (see [`TxnMode`]).
    pub mode: TxnMode,
    /// Snapshot lag override for [`TxnMode::Snapshot`]; `None` uses
    /// [`TxnClientConfig::snapshot_lag`]. Ignored in read-write mode.
    pub snapshot_lag: Option<Duration>,
    /// §4.3 cached mode: serve reads speculatively from the client-wide
    /// value cache. A transaction that took a speculative hit loses the
    /// prepared-flag information that powers local validation, so it
    /// validates remotely at commit even when read-only — as the paper
    /// prescribes: "any transaction marked as read-write in advance may
    /// read from its cache, but then must validate remotely."
    pub cached: bool,
}

impl TxnOpts {
    /// Bounded-staleness snapshot at the configured lag.
    pub fn snapshot() -> TxnOpts {
        TxnOpts {
            mode: TxnMode::Snapshot,
            ..TxnOpts::default()
        }
    }

    /// Snapshot opened exactly `lag` behind the clock.
    pub fn snapshot_lagged(lag: Duration) -> TxnOpts {
        TxnOpts {
            mode: TxnMode::Snapshot,
            snapshot_lag: Some(lag),
            ..TxnOpts::default()
        }
    }

    /// Cache-speculating read-write transaction (§4.3 future-work mode).
    pub fn cached() -> TxnOpts {
        TxnOpts {
            cached: true,
            ..TxnOpts::default()
        }
    }
}

/// A MILANA client: the SEMEL [`ClientCore`] (identity, clock, shard map,
/// RPC endpoint, retry discipline) plus the transaction state. Cloning
/// shares the client.
#[derive(Clone)]
pub struct TxnClient {
    core: Rc<ClientCore>,
    cfg: Rc<TxnClientConfig>,
    seq: Rc<Cell<u64>>,
    last_decided: Rc<Cell<Timestamp>>,
    /// Begin timestamps of transactions still in flight on this client.
    /// The watermark report must stay below all of them (§4.4), or garbage
    /// collection could discard a long-running reader's snapshot.
    active: Rc<RefCell<BTreeMap<Timestamp, usize>>>,
    /// Commit stamps drawn but not yet resolved (votes still pending). The
    /// write-floor promise (readkit) must stay below all of them: a floor
    /// report is "no future prepare at or below", and these prepares may
    /// still be on the wire.
    inflight_commits: Rc<RefCell<std::collections::BTreeSet<Timestamp>>>,
    /// Inter-transaction value cache (§4.3 future work): the newest version
    /// this client has observed per key, with the snapshot window a server
    /// confirmed it for. Bounded LRU; versions are immutable so entries
    /// only die by eviction, OCC refutation, or the GC floor.
    value_cache: Rc<RefCell<VersionCache<Key, Value>>>,
    /// Highest GC watermark observed on any replica reply. Monotone;
    /// advancing it invalidates cache entries whose confirmed windows fall
    /// entirely below it (servers may have pruned those versions).
    wm_floor: Rc<Cell<Timestamp>>,
    /// Per-replica applied-watermark / queue-depth metadata piggybacked on
    /// read replies, feeding the read-route policy.
    view: Rc<RefCell<ReplicaView<Addr>>>,
    stats: Rc<RefCell<TxnClientStats>>,
    /// Per-shard coordinator planes: Prepares and Outcomes bound for the
    /// same shard primary coalesce into one envelope per flush window.
    planes: Rc<RefCell<FastMap<ShardId, Batcher<TxnRequest, TxnResponse>>>>,
    /// Last watermark piggybacked per shard, to skip redundant items.
    wm_sent: Rc<RefCell<FastMap<ShardId, Timestamp>>>,
    /// When any plane last flushed. The periodic watermark broadcast stands
    /// down while envelopes are flowing (piggybacking covers it).
    last_flush: Rc<Cell<SimTime>>,
}

impl std::fmt::Debug for TxnClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxnClient")
            .field("id", &self.core.id)
            .finish()
    }
}

/// Reply port used by MILANA clients on their node.
pub const TXN_CLIENT_RPC_PORT: u16 = 40;

/// Capacity (entries) of the client-wide version cache feeding cached
/// transactions ([`TxnOpts::cached`]).
pub const CACHE_ENTRIES: usize = 4096;

impl TxnClient {
    /// Creates the client and starts its watermark task. Draws one value
    /// from the simulation RNG (the clock seed).
    pub fn new(
        handle: &SimHandle,
        node: NodeId,
        id: ClientId,
        map: Rc<RefCell<ShardMap>>,
        clock: &ClockSpec,
        cfg: TxnClientConfig,
    ) -> TxnClient {
        let clock_seed = handle.rand_u64();
        // Derive the jitter seed from the clock seed rather than drawing
        // again: the draw sequence other components see stays unchanged.
        let core = ClientCore::new(
            handle,
            Addr::new(node, TXN_CLIENT_RPC_PORT),
            id,
            map,
            (clock, clock_seed),
            clock_seed ^ 0x9E37_79B9_7F4A_7C15,
            &cfg.obs,
        );
        let client = TxnClient {
            core,
            seq: Rc::new(Cell::new(0)),
            last_decided: Rc::new(Cell::new(Timestamp::ZERO)),
            active: Rc::new(RefCell::new(BTreeMap::new())),
            inflight_commits: Rc::new(RefCell::new(std::collections::BTreeSet::new())),
            value_cache: Rc::new(RefCell::new(VersionCache::new(CACHE_ENTRIES))),
            wm_floor: Rc::new(Cell::new(Timestamp::ZERO)),
            view: Rc::new(RefCell::new(ReplicaView::new())),
            stats: Rc::new(RefCell::new(TxnClientStats::default())),
            planes: Rc::new(RefCell::new(FastMap::default())),
            wm_sent: Rc::new(RefCell::new(FastMap::default())),
            last_flush: Rc::new(Cell::new(SimTime::ZERO)),
            cfg: Rc::new(cfg),
        };
        let me = client.clone();
        let interval = client.cfg.watermark_interval;
        client.core.every(interval, move || {
            // Steady state: coordinator-plane envelopes piggyback the
            // watermark (primaries relay it to their backups), so the
            // standalone tick only covers idle periods.
            if me.last_flush.get() + interval <= me.core.handle.now() {
                me.broadcast_watermark();
            }
        });
        client
    }

    /// The coordinator plane for `shard`: a batcher coalescing this
    /// client's Prepares/Outcomes bound for that shard's primary into one
    /// envelope per flush window. Created lazily; the primary address is
    /// resolved from the shard map at *flush* time so failover between
    /// submit and flush lands on the new primary.
    fn plane(&self, shard: ShardId) -> Batcher<TxnRequest, TxnResponse> {
        if let Some(b) = self.planes.borrow().get(&shard) {
            return b.clone();
        }
        let me = self.clone();
        let envelopes = self
            .cfg
            .obs
            .registry
            .counter(&format!("milana.client{}.coord_envelopes", self.id().0));
        let items = self
            .cfg
            .obs
            .registry
            .counter(&format!("milana.client{}.coord_items", self.id().0));
        let batcher = Batcher::new(
            &self.core.handle,
            self.core.node,
            &format!("milana.coord.c{}.s{}", self.id().0, shard.0),
            self.cfg.batch,
            self.cfg.obs.clone(),
            move |batch: Vec<TxnRequest>| {
                let me = me.clone();
                let envelopes = envelopes.clone();
                let items = items.clone();
                async move {
                    let n = batch.len();
                    // Piggyback the watermark when it moved since the last
                    // envelope to this shard; its Ack is stripped below so
                    // the reply arity matches the submitted items.
                    let ts = me.watermark_report();
                    let piggyback = {
                        let mut sent = me.wm_sent.borrow_mut();
                        if sent.get(&shard) != Some(&ts) {
                            sent.insert(shard, ts);
                            true
                        } else {
                            false
                        }
                    };
                    let mut wire = Vec::with_capacity(n + 2);
                    if piggyback {
                        wire.push(TxnRequest::Watermark {
                            client: me.id(),
                            ts,
                        });
                    }
                    // The write floor rides every envelope: it moves with
                    // the clock, so deduplication would never skip it.
                    wire.push(TxnRequest::FloorReport {
                        client: me.id(),
                        ts: me.floor_report(),
                    });
                    let strip = wire.len();
                    wire.extend(batch);
                    me.last_flush.set(me.core.handle.now());
                    envelopes.inc();
                    items.add(n as u64);
                    let primary = me.core.map.borrow().group(shard).primary;
                    match me
                        .core
                        .rpc
                        .call_batch::<TxnRequest, TxnResponse>(primary, wire, me.cfg.rpc_timeout)
                        .await
                    {
                        Ok(mut resps) => {
                            resps.drain(..strip.min(resps.len()));
                            resps
                        }
                        // Envelope lost or timed out: every waiter resolves
                        // to None, which the coordinator classifies exactly
                        // like a single-RPC timeout (unreachable).
                        Err(_) => {
                            if piggyback {
                                // The watermark never landed; let the next
                                // envelope (or the idle tick) resend it.
                                me.wm_sent.borrow_mut().remove(&shard);
                            }
                            Vec::new()
                        }
                    }
                }
            },
        );
        self.planes.borrow_mut().insert(shard, batcher.clone());
        batcher
    }

    /// Sends the watermark report to every replica of every shard (§4.4).
    ///
    /// The reported timestamp is the latest decided transaction's stamp,
    /// capped below every still-active transaction's `ts_begin` so servers
    /// retain the versions a long-running snapshot reader still needs.
    pub fn broadcast_watermark(&self) {
        let ts = self.watermark_report();
        let floor = self.floor_report();
        let map = self.core.map.borrow();
        for (_, group) in map.iter() {
            for addr in group.all() {
                self.core.rpc.cast(
                    addr,
                    TxnRequest::Watermark {
                        client: self.id(),
                        ts,
                    },
                );
            }
            // The write floor goes to the primary only: backups must learn
            // it through the primary's in-order `AppliedFloor` stream, or
            // it would not be a completeness claim.
            self.core.rpc.cast(
                group.primary,
                TxnRequest::FloorReport {
                    client: self.id(),
                    ts: floor,
                },
            );
        }
    }

    /// This client's id.
    pub fn id(&self) -> ClientId {
        self.core.id
    }

    /// Reads the client's local (skewed, monotonic) clock.
    pub fn now(&self) -> Timestamp {
        self.core.now()
    }

    /// The client's clock (skew instrumentation).
    pub fn clock(&self) -> &SyncedClock {
        &self.core.clock
    }

    /// Counters so far.
    pub fn stats(&self) -> TxnClientStats {
        *self.stats.borrow()
    }

    /// Begins a transaction described by `opts` — the single entry point
    /// the historical `begin` / `begin_snapshot` / `begin_cached` trio
    /// collapsed into.
    ///
    /// ```ignore
    /// let txn = client.begin_with(TxnOpts::default());          // read-write
    /// let ro  = client.begin_with(TxnOpts::snapshot());          // lagged snapshot
    /// let spec = client.begin_with(TxnOpts::cached());           // cache-speculating
    /// ```
    pub fn begin_with(&self, opts: TxnOpts) -> Txn {
        let lag = match opts.mode {
            TxnMode::ReadWrite => Duration::ZERO,
            TxnMode::Snapshot => opts.snapshot_lag.unwrap_or(self.cfg.snapshot_lag),
        };
        self.begin_inner(opts.cached, lag)
    }

    fn begin_inner(&self, use_client_cache: bool, lag: Duration) -> Txn {
        let ts_begin = Timestamp(self.now().0.saturating_sub(lag.as_nanos() as u64));
        self.register_active(ts_begin);
        self.trace(TraceEvent::TxnBegin {
            client: self.id().0 as u64,
            ts_begin: ts_begin.0,
        });
        Txn {
            c: self.clone(),
            ts_begin,
            read_set: Vec::new(),
            prepared_seen: false,
            snapshot_lost: false,
            writes: Vec::new(),
            write_idx: FastMap::default(),
            cache: FastMap::default(),
            use_client_cache,
            requires_remote: false,
            cache_hits: 0,
            finished: false,
        }
    }

    fn note_decided(&self, ts: Timestamp) {
        if ts > self.last_decided.get() {
            self.last_decided.set(ts);
        }
    }

    /// The timestamp this client may safely report for GC (§4.4): its
    /// latest decided stamp, but never at/above an active `ts_begin`.
    pub fn watermark_report(&self) -> Timestamp {
        let decided = self.last_decided.get();
        match self.active.borrow().keys().next() {
            Some(&oldest_active) if oldest_active <= decided => {
                Timestamp(oldest_active.0.saturating_sub(1))
            }
            _ => decided,
        }
    }

    /// The write-floor promise (readkit): this client will never submit a
    /// prepare stamped at or below the returned timestamp. Its clock is
    /// monotone, so future commit stamps exceed `now`; stamps already
    /// drawn but still unresolved cap the report from below. Active
    /// *snapshots* do not hold it back — that is what lets the floor track
    /// wall time and certify backups for fresh reads.
    pub fn floor_report(&self) -> Timestamp {
        let now = self.now();
        match self.inflight_commits.borrow().iter().next() {
            Some(&oldest) if oldest <= now => Timestamp(oldest.0.saturating_sub(1)),
            _ => now,
        }
    }

    /// Fetches a fresh shard map from the master (if configured) and
    /// installs it when its epoch is newer than the local copy.
    pub async fn refresh_map(&self) {
        let Some(master) = self.cfg.master else {
            return;
        };
        if let Ok(new_map) =
            semel::master::fetch_map(&self.core.rpc, master, self.cfg.rpc_timeout).await
        {
            let mut map = self.core.map.borrow_mut();
            if new_map.epoch() > map.epoch() {
                *map = new_map;
            }
        }
    }

    fn trace(&self, ev: TraceEvent) {
        self.cfg.obs.tracer.record(self.core.sim_ns(), ev);
    }

    /// Books one aborted transaction: the counter and the classed event.
    fn note_abort(&self, reason: obskit::AbortClass) {
        self.stats.borrow_mut().aborts += 1;
        self.trace(TraceEvent::Abort {
            client: self.id().0 as u64,
            reason,
        });
    }

    /// Books one committed transaction. A local (read-only) commit takes
    /// effect at `ts`, its `ts_begin`, and reports no commit stamp.
    fn note_commit(&self, ts: Timestamp, local: bool) -> CommitInfo {
        self.stats.borrow_mut().commits += 1;
        self.trace(TraceEvent::Commit {
            client: self.id().0 as u64,
            ts_commit: ts.0,
            local,
        });
        CommitInfo {
            ts_commit: (!local).then_some(ts),
            local,
        }
    }

    fn trace_read(&self, key: &Key, version: Version, prepared: bool) {
        self.trace(TraceEvent::TxnRead {
            client: self.id().0 as u64,
            key: key.trace_id(),
            prepared,
            ver_ts: version.ts.0,
            ver_client: version.client.0 as u64,
        });
    }

    /// The client's retry policy (overload instrumentation).
    pub fn retry_policy(&self) -> &RetryPolicy {
        &self.core.policy
    }

    /// Records a GC watermark piggybacked on a replica reply. The floor is
    /// monotone; advancing it drops cache entries whose confirmed windows
    /// lie entirely below it, since servers may prune those versions.
    fn observe_floor(&self, wm: Timestamp) {
        if wm > self.wm_floor.get() {
            self.wm_floor.set(wm);
            self.value_cache.borrow_mut().invalidate_below(wm);
        }
    }

    fn register_active(&self, ts: Timestamp) {
        *self.active.borrow_mut().entry(ts).or_insert(0) += 1;
    }

    fn deregister_active(&self, ts: Timestamp) {
        let mut active = self.active.borrow_mut();
        if let Some(n) = active.get_mut(&ts) {
            *n -= 1;
            if *n == 0 {
                active.remove(&ts);
            }
        }
    }
}

/// One executing transaction (§4.1's API: `get`, `put`, `commit`, `abort`).
///
/// Reads are satisfied at `ts_begin` from a consistent snapshot; writes are
/// buffered client-side and pushed to the shard primaries only at commit.
///
/// # Examples
///
/// See the crate root and `examples/quickstart.rs`.
#[derive(Debug)]
pub struct Txn {
    c: TxnClient,
    ts_begin: Timestamp,
    read_set: Vec<(Key, Version)>,
    prepared_seen: bool,
    snapshot_lost: bool,
    writes: Vec<(Key, Value)>,
    write_idx: FastMap<Key, usize>,
    cache: FastMap<Key, Value>,
    /// §4.3 cached mode: serve reads from the client-wide value cache and
    /// validate remotely at commit.
    use_client_cache: bool,
    /// Set by reads that carry no local-validation information (cached
    /// reads, replica reads): the commit must validate remotely even if
    /// the transaction is read-only.
    requires_remote: bool,
    /// Reads served from the client-wide cache (instrumentation).
    cache_hits: u64,
    finished: bool,
}

/// What `commit` reports on success.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitInfo {
    /// The commit timestamp; `None` for read-only transactions (which
    /// logically commit at `ts_begin`).
    pub ts_commit: Option<Timestamp>,
    /// True if the decision was made by client-local validation.
    pub local: bool,
}

impl Drop for Txn {
    fn drop(&mut self) {
        // A transaction abandoned without commit/abort must still release
        // its hold on the client's watermark report.
        if !self.finished {
            self.finished = true;
            self.c.deregister_active(self.ts_begin);
        }
    }
}

impl Txn {
    /// The transaction's begin timestamp.
    pub fn ts_begin(&self) -> Timestamp {
        self.ts_begin
    }

    /// Reads `key` from the transaction's snapshot. Own writes win, then
    /// cached reads, then the shard primary at `ts_begin`.
    ///
    /// # Errors
    ///
    /// - [`TxnError::KeyNotFound`] if the key has no visible version;
    /// - [`TxnError::Aborted`] with [`AbortReason::SnapshotUnavailable`] on
    ///   single-version backends that lost the snapshot;
    /// - [`TxnError::Timeout`] if the primary stays unreachable.
    pub async fn get(&mut self, key: &Key) -> Result<Value, TxnError> {
        if self.finished {
            return Err(TxnError::Finished);
        }
        if let Some(&i) = self.write_idx.get(key) {
            return Ok(self.writes[i].1.clone());
        }
        if let Some(v) = self.cache.get(key) {
            return Ok(v.clone());
        }
        // Client-wide version cache. A *windowed* hit (a server confirmed
        // the version newest for some `at' ≥ ts_begin`) is sound as-is and
        // keeps local-validation eligibility: no later prepare can install
        // a version at or below the confirmed bound (the read that set the
        // bound raised `ts_latestRead`, or rode below the GC watermark).
        // Cached mode additionally takes *speculative* hits — the newest
        // version the client knows, past its confirmed window — which OCC
        // must re-validate remotely at commit.
        {
            let mut vc = self.c.value_cache.borrow_mut();
            let hit = if self.use_client_cache {
                vc.lookup_latest(key, self.ts_begin).cloned()
            } else {
                vc.lookup(key, self.ts_begin).cloned()
            };
            drop(vc);
            if let Some(e) = hit {
                // Cached reads still enter the read-set with their version
                // stamp so commit-time validation covers them.
                self.read_set.push((key.clone(), e.version));
                if self.use_client_cache {
                    self.requires_remote = true;
                }
                self.c.trace_read(key, e.version, false);
                self.cache.insert(key.clone(), e.value.clone());
                self.cache_hits += 1;
                self.c.stats.borrow_mut().cached_reads += 1;
                return Ok(e.value);
            }
        }
        let core = Rc::clone(&self.c.core);
        core.policy.on_attempt();
        for attempt in 0..=READ_RETRIES {
            let may_retry = attempt < READ_RETRIES;
            // Re-resolve the primary each attempt: the shard map may have
            // been updated by a failover while we were retrying.
            let (shard, (primary, backups)) = core.route(key, |g| (g.primary, g.backups.clone()));
            // A tripped breaker means the shard is actively shedding; wait
            // out the cooldown (within budget) instead of piling on.
            if !core.wait_for_breaker(shard).await {
                return Err(TxnError::Aborted(AbortReason::Overloaded));
            }
            // Read routing: on the first attempt, try a backup whose
            // applied watermark covers the snapshot. Any miss (TooStale,
            // timeout, migration fence) falls through to the primary.
            if attempt == 0 {
                let now_ns = core.sim_ns();
                let stale_after = 2 * self.c.cfg.watermark_interval.as_nanos() as u64;
                let picked = self.c.view.borrow().pick(
                    self.c.cfg.read_route,
                    &backups,
                    self.ts_begin,
                    stale_after,
                    now_ns,
                    |n| core.handle.rand_range(0, n),
                );
                if let Some(replica) = picked {
                    if let Some(done) = self.read_from_replica(shard, replica, key).await {
                        return done;
                    }
                }
            }
            let req = TxnRequest::Get {
                key: key.clone(),
                at: self.ts_begin,
                client: core.id,
            };
            let r = core
                .rpc
                .call::<TxnRequest, TxnResponse>(primary, req, self.c.cfg.rpc_timeout)
                .await;
            match r {
                Ok(TxnResponse::Value {
                    version,
                    value,
                    prepared,
                }) => {
                    core.policy.record_ok(shard.0 as u64);
                    return Ok(self.note_value(key, version, value, prepared));
                }
                Ok(TxnResponse::NotFound) => return Err(TxnError::KeyNotFound(key.clone())),
                Ok(TxnResponse::SnapshotUnavailable(_)) => {
                    // The version this snapshot needs is gone (single-version
                    // backend); the transaction cannot serialize at ts_begin.
                    self.snapshot_lost = true;
                    return Err(TxnError::Aborted(AbortReason::SnapshotUnavailable));
                }
                Ok(TxnResponse::ClockSuspect) => {
                    // The server judged our ts_begin too far past its own
                    // clock to honor the read's snapshot promise. Retrying
                    // with the same clock would be refused again — abort and
                    // let the app-level retry mint a fresh timestamp.
                    return Err(TxnError::Aborted(AbortReason::ClockSuspect));
                }
                Ok(TxnResponse::Shed(shed)) => {
                    if core.on_shed(shard, &shed, may_retry).await {
                        continue;
                    }
                    return Err(TxnError::Aborted(AbortReason::Overloaded));
                }
                // The key was cut over to another shard: refetch the map
                // immediately (no point retrying the old owner) and re-route.
                Ok(TxnResponse::Moved { .. }) => {
                    if may_retry {
                        self.c.refresh_map().await;
                        if core.backoff(None).await {
                            continue;
                        }
                    }
                    return Err(TxnError::Timeout);
                }
                Ok(TxnResponse::NotReady) | Err(RpcError::Timeout) => {
                    if may_retry {
                        // Every few failures, ask the master whether the
                        // shard map changed underneath us (failover).
                        if attempt % 3 == 2 {
                            self.c.refresh_map().await;
                        }
                        if core.backoff(None).await {
                            continue;
                        }
                    }
                    return Err(TxnError::Timeout);
                }
                Ok(_) => return Err(TxnError::Timeout),
            }
        }
        Err(TxnError::Timeout)
    }

    /// Books a server-served snapshot read: read-set entry, prepared flag,
    /// trace event, txn-local cache, and the client-wide version cache.
    /// Only unprepared reads feed the shared cache — the prepared flag is
    /// point-in-time and must not be laundered into later transactions.
    fn note_value(&mut self, key: &Key, version: Version, value: Value, prepared: bool) -> Value {
        self.read_set.push((key.clone(), version));
        self.prepared_seen |= prepared;
        self.c.trace_read(key, version, prepared);
        self.cache.insert(key.clone(), value.clone());
        if !prepared {
            // The server confirmed `version` newest at ts_begin: that is
            // the entry's (initial) sound snapshot window.
            self.c.value_cache.borrow_mut().insert(
                key.clone(),
                version,
                value.clone(),
                self.ts_begin,
            );
        }
        value
    }

    /// One routed read attempt against a backup replica. `Some(result)`
    /// resolves the read (or aborts the snapshot); `None` means the backup
    /// could not serve it — fall through to the primary.
    async fn read_from_replica(
        &mut self,
        shard: ShardId,
        replica: Addr,
        key: &Key,
    ) -> Option<Result<Value, TxnError>> {
        let r = self
            .c
            .core
            .rpc
            .call::<TxnRequest, TxnResponse>(
                replica,
                TxnRequest::ReadAt {
                    key: key.clone(),
                    at: self.ts_begin,
                    client: self.c.id(),
                },
                self.c.cfg.rpc_timeout,
            )
            .await;
        let now_ns = self.c.core.sim_ns();
        match r {
            Ok(TxnResponse::FromReplica {
                reply,
                watermark,
                depth,
            }) => {
                self.c
                    .view
                    .borrow_mut()
                    .observe(replica, watermark, depth, now_ns);
                self.c.observe_floor(watermark);
                match *reply {
                    TxnResponse::Value {
                        version,
                        value,
                        prepared,
                    } => {
                        self.c.core.policy.record_ok(shard.0 as u64);
                        self.c.stats.borrow_mut().replica_reads += 1;
                        Some(Ok(self.note_value(key, version, value, prepared)))
                    }
                    TxnResponse::NotFound => {
                        self.c.core.policy.record_ok(shard.0 as u64);
                        self.c.stats.borrow_mut().replica_reads += 1;
                        Some(Err(TxnError::KeyNotFound(key.clone())))
                    }
                    TxnResponse::SnapshotUnavailable(_) => {
                        self.snapshot_lost = true;
                        Some(Err(TxnError::Aborted(AbortReason::SnapshotUnavailable)))
                    }
                    _ => None,
                }
            }
            // The backup has not applied up to ts_begin yet: remember how
            // far it has, and let the primary serve this read.
            Ok(TxnResponse::TooStale { watermark }) => {
                self.c
                    .view
                    .borrow_mut()
                    .observe(replica, watermark, 0, now_ns);
                self.c.observe_floor(watermark);
                None
            }
            // A promoted ex-backup answers like the primary it now is.
            Ok(TxnResponse::Value {
                version,
                value,
                prepared,
            }) => {
                self.c.core.policy.record_ok(shard.0 as u64);
                Some(Ok(self.note_value(key, version, value, prepared)))
            }
            Ok(TxnResponse::NotFound) => Some(Err(TxnError::KeyNotFound(key.clone()))),
            // An explicit refusal: the replica is cold-restarting and its
            // applied watermark regressed to zero. Forget its cached
            // (pre-restart) watermark — `observe` is monotone, so the old
            // promise would otherwise keep attracting routed reads that
            // are guaranteed to bounce until catch-up re-promises the
            // write floor.
            Ok(TxnResponse::NotReady) => {
                self.c.view.borrow_mut().forget(&replica);
                None
            }
            // Anything else — Moved (migration fence), Shed, a lost RPC —
            // falls through to the primary, whose own reply drives the
            // retry/refresh machinery.
            _ => None,
        }
    }

    /// Snapshot read served by **any replica** of the owning shard —
    /// §4.6's load-spreading relaxation. Because the reply carries no
    /// prepared-version information, the transaction loses local-validation
    /// eligibility and will validate remotely at commit; use this only on
    /// transactions that write (or validate remotely anyway).
    ///
    /// # Errors
    ///
    /// As [`Txn::get`].
    pub async fn get_any(&mut self, key: &Key) -> Result<Value, TxnError> {
        if self.finished {
            return Err(TxnError::Finished);
        }
        if let Some(&i) = self.write_idx.get(key) {
            return Ok(self.writes[i].1.clone());
        }
        if let Some(v) = self.cache.get(key) {
            return Ok(v.clone());
        }
        let core = Rc::clone(&self.c.core);
        core.policy.on_attempt();
        for attempt in 0..=READ_RETRIES {
            let may_retry = attempt < READ_RETRIES;
            // Pick a random replica of the owning shard each attempt.
            let (shard, replica) = core.route(key, |g| {
                let all = g.all();
                all[core.handle.rand_range(0, all.len() as u64) as usize]
            });
            if !core.wait_for_breaker(shard).await {
                return Err(TxnError::Aborted(AbortReason::Overloaded));
            }
            let req = TxnRequest::GetAny {
                key: key.clone(),
                at: self.ts_begin,
            };
            let r = core
                .rpc
                .call::<TxnRequest, TxnResponse>(replica, req, self.c.cfg.rpc_timeout)
                .await;
            match r {
                Ok(TxnResponse::Value { version, value, .. }) => {
                    core.policy.record_ok(shard.0 as u64);
                    self.read_set.push((key.clone(), version));
                    self.requires_remote = true; // no LV info from replicas
                    self.c.trace_read(key, version, false);
                    self.cache.insert(key.clone(), value.clone());
                    return Ok(value);
                }
                Ok(TxnResponse::NotFound) => return Err(TxnError::KeyNotFound(key.clone())),
                Ok(TxnResponse::SnapshotUnavailable(_)) => {
                    self.snapshot_lost = true;
                    return Err(TxnError::Aborted(AbortReason::SnapshotUnavailable));
                }
                Ok(TxnResponse::Shed(shed)) => {
                    if core.on_shed(shard, &shed, may_retry).await {
                        continue;
                    }
                    return Err(TxnError::Aborted(AbortReason::Overloaded));
                }
                Ok(TxnResponse::Moved { .. }) => {
                    if may_retry {
                        self.c.refresh_map().await;
                        if core.backoff(None).await {
                            continue;
                        }
                    }
                    return Err(TxnError::Timeout);
                }
                Ok(TxnResponse::NotReady) | Err(RpcError::Timeout) => {
                    if may_retry && core.backoff(None).await {
                        continue;
                    }
                    return Err(TxnError::Timeout);
                }
                Ok(_) => return Err(TxnError::Timeout),
            }
        }
        Err(TxnError::Timeout)
    }

    /// Buffers a write; nothing reaches a server until commit (§4.1).
    pub fn put(&mut self, key: Key, value: Value) {
        assert!(!self.finished, "put on a finished transaction");
        match self.write_idx.get(&key) {
            Some(&i) => self.writes[i].1 = value,
            None => {
                self.write_idx.insert(key.clone(), self.writes.len());
                self.writes.push((key, value));
            }
        }
    }

    /// Discards the transaction (§4.1 `abortTransaction`).
    pub fn abort(mut self) {
        self.finished = true;
        self.c.deregister_active(self.ts_begin);
        self.c.note_decided(self.ts_begin);
        self.c.note_abort(obskit::AbortClass::UserRequested);
    }

    /// Commits (§4.1 `commitTransaction`).
    ///
    /// Read-only transactions validate **locally** when enabled: commit iff
    /// no read returned a prepared-version flag (§4.3) — zero round trips.
    /// Read-write transactions run client-coordinated 2PC over the shard
    /// primaries (§4.2).
    ///
    /// # Errors
    ///
    /// - [`TxnError::Aborted`] if validation failed anywhere;
    /// - [`TxnError::Timeout`] with [`AbortReason`] semantics preserved: if
    ///   a participant is unreachable *after* some prepares succeeded the
    ///   outcome is unknown and is surfaced as `Timeout` (the transaction
    ///   resolves later via cooperative termination).
    pub async fn commit(mut self) -> Result<CommitInfo, TxnError> {
        if self.finished {
            return Err(TxnError::Finished);
        }
        self.finished = true;
        self.c.deregister_active(self.ts_begin);
        if self.snapshot_lost {
            self.c.note_decided(self.ts_begin);
            self.c.note_abort(obskit::AbortClass::SnapshotUnavailable);
            return Err(TxnError::Aborted(AbortReason::SnapshotUnavailable));
        }
        if self.writes.is_empty() && self.c.cfg.validation.is_local() && !self.requires_remote {
            // §4.3: every read already proved it came from a consistent
            // snapshot unless a prepared version was visible at ts_begin.
            self.c.note_decided(self.ts_begin);
            let ok = !self.prepared_seen;
            self.c.trace(TraceEvent::ValidateLocal {
                client: self.c.id().0 as u64,
                ok,
            });
            self.c.stats.borrow_mut().local_validations += 1;
            return if self.prepared_seen {
                self.c.note_abort(obskit::AbortClass::PreparedRead);
                Err(TxnError::Aborted(AbortReason::PreparedRead))
            } else {
                Ok(self.c.note_commit(self.ts_begin, true))
            };
        }
        let ts_commit = self.c.now();
        self.c.inflight_commits.borrow_mut().insert(ts_commit);
        let txid = TxnId {
            client: self.c.id(),
            seq: self.c.seq.replace(self.c.seq.get() + 1),
        };
        // Group read and write sets by shard, remembering which map epoch
        // the routing came from — servers fence prepares routed under an
        // epoch older than a migration cutover.
        type ShardSets = FastMap<ShardId, (Vec<(Key, Version)>, Vec<(Key, Value)>)>;
        let mut by_shard: ShardSets = FastMap::default();
        let epoch = {
            let map = self.c.core.map.borrow();
            for (key, version) in &self.read_set {
                let s = map.shard_for(key);
                by_shard
                    .entry(s)
                    .or_default()
                    .0
                    .push((key.clone(), *version));
            }
            for (key, value) in &self.writes {
                let s = map.shard_for(key);
                by_shard
                    .entry(s)
                    .or_default()
                    .1
                    .push((key.clone(), value.clone()));
            }
            map.epoch()
        };
        let mut participants: Vec<ShardId> = by_shard.keys().copied().collect();
        participants.sort();
        let participants: Rc<[ShardId]> = participants.into();
        self.c.trace(TraceEvent::ValidateRemote {
            client: self.c.id().0 as u64,
            participants: participants.len() as u64,
        });
        // Declare the write set before the prepare fan-out so a history
        // checker can recover it even when the outcome ends up unknown.
        for (key, _) in &self.writes {
            self.c.trace(TraceEvent::TxnWrite {
                client: self.c.id().0 as u64,
                key: key.trace_id(),
            });
        }
        // Phase 1: prepare in parallel at every participant primary
        // (iterated in shard order for determinism).
        let mut votes = Vec::new();
        let mut shards_sorted: Vec<&ShardId> = by_shard.keys().collect();
        shards_sorted.sort();
        let shards_sorted: Vec<ShardId> = shards_sorted.into_iter().copied().collect();
        for &shard in &shards_sorted {
            let (reads, writes) = by_shard.remove(&shard).unwrap_or_default();
            let req = TxnRequest::Prepare {
                txid,
                ts_commit,
                reads: reads.into(),
                writes: writes.into(),
                participants: participants.clone(),
                epoch,
            };
            // Submit through the shard's coordinator plane: the Prepare is
            // enqueued synchronously here (so all participants coalesce in
            // the same flush window) and the future resolves with that
            // item's slot from the batched reply.
            votes.push(self.c.plane(shard).submit(req));
        }
        let mut all_ok = true;
        let mut any_unreachable = false;
        let mut any_vote_no = false;
        let mut any_shed = false;
        let mut any_stale = false;
        let mut any_clock = false;
        for (v, &shard) in votes.into_iter().zip(&shards_sorted) {
            match v.await {
                Some(TxnResponse::Vote { ok }) => {
                    self.c.core.policy.record_ok(shard.0 as u64);
                    all_ok &= ok;
                    any_vote_no |= !ok;
                }
                // A fenced prepare is a definite no-vote: the participant
                // installed nothing. The routing map is stale (a rebalance
                // moved one of our keys), so refetch it before the caller's
                // next attempt.
                Some(TxnResponse::StaleEpoch { .. }) => {
                    self.c.core.policy.record_ok(shard.0 as u64);
                    all_ok = false;
                    any_stale = true;
                }
                // A clock-suspect refusal is a definite no-vote: the
                // server's clock-health tracker judged our ts_commit
                // outside the uncertainty window (or we are fenced).
                // Nothing was validated or installed.
                Some(TxnResponse::ClockSuspect) => {
                    self.c.core.policy.record_ok(shard.0 as u64);
                    all_ok = false;
                    any_clock = true;
                }
                // A shed prepare is a *definite* no-vote: the participant
                // refused before validating or installing anything, so the
                // coordinator may abort safely — no outcome uncertainty.
                Some(TxnResponse::Shed(_)) => {
                    self.c
                        .core
                        .policy
                        .record_shed(shard.0 as u64, self.c.core.sim_ns());
                    all_ok = false;
                    any_shed = true;
                }
                // NotReady (recovering primary / duplicate in flight) or a
                // lost envelope: same classification as a timed-out RPC.
                Some(_) | None => any_unreachable = true,
            }
        }
        // The vote fan-out has resolved: decided prepares are installed at
        // their primaries, and any straggler from an unreachable one dies
        // on the server's floor fence — either way the stamp no longer
        // needs to cap this client's write-floor promise.
        self.c.inflight_commits.borrow_mut().remove(&ts_commit);
        self.c.note_decided(ts_commit);
        if any_unreachable && all_ok {
            // Some participant may have prepared but we cannot know the
            // complete vote: deciding either way here could diverge from
            // cooperative termination. Leave the outcome to CTP (§4.5).
            self.c.stats.borrow_mut().unknown += 1;
            self.c.trace(TraceEvent::Abort {
                client: self.c.id().0 as u64,
                reason: obskit::AbortClass::UnknownOutcome,
            });
            return Err(TxnError::Timeout);
        }
        // Phase 2: decision (asynchronous notification, §4.2). Outcomes
        // ride the coordinator plane so a decision shares its envelope with
        // whatever else is pending for the shard, but the plane is flushed
        // before returning: a read this client issues right after commit()
        // must not overtake the decision on the wire.
        let commit = all_ok;
        for &shard in participants.iter() {
            let plane = self.c.plane(shard);
            plane.submit_nowait(TxnRequest::Outcome { txid, commit });
            plane.flush_now();
        }
        self.c.core.handle.yield_now().await;
        if any_stale {
            // Install the post-rebalance map now so the application-level
            // retry routes (and re-reads) under the new epoch.
            self.c.refresh_map().await;
        }
        if commit {
            // Refresh the inter-transaction cache with our own writes: the
            // write is the newest version up to its own commit stamp.
            let mut vc = self.c.value_cache.borrow_mut();
            for (key, value) in &self.writes {
                vc.insert(
                    key.clone(),
                    Version::new(ts_commit, self.c.id()),
                    value.clone(),
                    ts_commit,
                );
            }
        } else if self.use_client_cache {
            // Validation failed: our cached reads may be stale. Drop them so
            // the next attempt refetches fresh versions.
            let mut vc = self.c.value_cache.borrow_mut();
            for (key, _) in &self.read_set {
                vc.remove(key);
            }
        }
        if commit {
            Ok(self.c.note_commit(ts_commit, false))
        } else {
            // Any real validation rejection takes precedence as the reason;
            // then a clock-health refusal (the timestamp itself was
            // rejected), then epoch fencing (retry after the map refresh
            // above), then pure overload shedding.
            let reason = if any_vote_no {
                AbortReason::Validation
            } else if any_clock {
                AbortReason::ClockSuspect
            } else if any_stale {
                AbortReason::StaleEpoch
            } else if any_shed {
                AbortReason::Overloaded
            } else {
                AbortReason::Validation
            };
            self.c.note_abort(reason.class());
            Err(TxnError::Aborted(reason))
        }
    }

    /// Reads served from the client-wide cache so far (cached mode).
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }
}

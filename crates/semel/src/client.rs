//! The SEMEL client library (§3): assigns precision timestamps to every
//! operation, routes by shard map, retries timestamp races with fresh
//! stamps, and broadcasts watermarks for garbage collection.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use flashsim::{Key, Value, VersionedValue};
use loadkit::{RetryPolicy, Shed};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simkit::net::{Addr, NodeId};
use simkit::rpc::{RpcClient, RpcError};
use simkit::SimHandle;
use timesync::{ClientId, ClockSpec, SyncedClock, Timestamp, Version};

use crate::msg::{SemelError, SemelRequest, SemelResponse};
use crate::shard::{ReplicaGroup, ShardId, ShardMap};
use crate::RPC_TIMEOUT;

/// What a client *is* under both protocols: identity, the precision clock,
/// the shard map, the RPC endpoint and the retry discipline.
/// [`SemelClient`] and `milana::TxnClient` each hold one `Rc<ClientCore>`;
/// their retry loops keep only their own reply handling.
///
/// The two RNG seeds come from the caller because how they are drawn is
/// behaviour (runs are pinned per seed): [`SemelClient`] draws both from
/// the simulation RNG, `TxnClient` draws one and derives the other.
pub struct ClientCore {
    /// The simulation handle.
    pub handle: SimHandle,
    /// The client's node.
    pub node: NodeId,
    /// This client's id.
    pub id: ClientId,
    /// The client's clock (for instrumentation; read it with
    /// [`ClientCore::now`]).
    pub clock: SyncedClock,
    /// The shard map this client routes by.
    pub map: Rc<RefCell<ShardMap>>,
    /// The RPC endpoint.
    pub rpc: RpcClient,
    /// The retry policy: budget, backoff jitter, per-shard breakers.
    pub policy: RetryPolicy,
}

impl ClientCore {
    /// Builds the retry policy (seeded `retry_seed`), the clock (its spec
    /// paired with its RNG seed) and the RPC endpoint bound at `reply`, in
    /// that order.
    pub fn new(
        handle: &SimHandle,
        reply: Addr,
        id: ClientId,
        map: Rc<RefCell<ShardMap>>,
        clock: (&ClockSpec, u64),
        retry_seed: u64,
        obs: &obskit::Obs,
    ) -> Rc<ClientCore> {
        let policy = RetryPolicy::observed(StdRng::seed_from_u64(retry_seed), obs, id.0 as u64);
        let clock = SyncedClock::from_spec(clock.0, clock.1);
        let rpc = RpcClient::new(handle, reply.node, reply.port);
        clock.attach_tracer(&obs.tracer, id.0 as u64);
        Rc::new(ClientCore {
            handle: handle.clone(),
            node: reply.node,
            id,
            clock,
            map,
            rpc,
            policy,
        })
    }

    /// Reads the client's (skewed, monotonic) clock: `t_current`.
    pub fn now(&self) -> Timestamp {
        self.clock.now(self.handle.now())
    }

    /// True virtual time in nanoseconds, the retry policy's time base.
    pub fn sim_ns(&self) -> u64 {
        self.handle.now().as_nanos()
    }

    /// Resolves `key`'s shard and lets `pick` choose from its replica
    /// group under one map borrow. Called once per attempt, so a failover
    /// or cutover between attempts lands on the new owner.
    pub fn route<R>(&self, key: &Key, pick: impl FnOnce(&ReplicaGroup) -> R) -> (ShardId, R) {
        let map = self.map.borrow();
        let shard = map.shard_for(key);
        (shard, pick(map.group(shard)))
    }

    /// Pays for one retry from the budget and sleeps the jittered backoff
    /// (at least `hint`). Returns `false` when the budget is exhausted and
    /// the caller must give up.
    pub async fn backoff(&self, hint: Option<Duration>) -> bool {
        match self.policy.try_retry(self.sim_ns(), hint) {
            Some(delay) => {
                self.handle.sleep(delay).await;
                true
            }
            None => false,
        }
    }

    /// Books a `Shed` reply against `shard`'s breaker, then — if the caller
    /// `may_retry` at all — backs off as the server hinted.
    pub async fn on_shed(&self, shard: ShardId, shed: &Shed, may_retry: bool) -> bool {
        self.policy.record_shed(shard.0 as u64, self.sim_ns());
        may_retry && self.backoff(shed.retry_after()).await
    }

    /// Breaker check for `shard`: when the circuit is open, burn a retry
    /// token waiting out the cooldown instead of touching the network.
    /// Returns `false` when the budget runs out first.
    pub async fn wait_for_breaker(&self, shard: ShardId) -> bool {
        while !self.policy.shard_allows(shard.0 as u64, self.sim_ns()) {
            if !self.backoff(Some(loadkit::retry::BREAKER_COOLDOWN)).await {
                return false;
            }
        }
        true
    }

    /// Spawns the periodic task (watermark broadcast) on the client's node.
    pub fn every(&self, period: Duration, tick: impl Fn() + 'static) {
        let h = self.handle.clone();
        self.handle.spawn_on(self.node, async move {
            loop {
                h.sleep(period).await;
                tick();
            }
        });
    }
}

/// How many fresh-timestamp retries a racing put gets before giving up.
const PUT_RETRIES: u32 = 8;

/// How often a client broadcasts its watermark (§3.1).
const WATERMARK_INTERVAL: Duration = Duration::from_millis(100);

/// A SEMEL client (an application server). Cloning shares the client.
#[derive(Clone)]
pub struct SemelClient {
    core: Rc<ClientCore>,
    last_acked: Rc<Cell<Timestamp>>,
}

impl std::fmt::Debug for SemelClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SemelClient")
            .field("id", &self.core.id)
            .finish()
    }
}

/// Reply port used by SEMEL clients on their node.
pub(crate) const CLIENT_RPC_PORT: u16 = 32;

impl SemelClient {
    /// Creates the client and starts its watermark broadcast task; `obs`
    /// receives its clock-sync trace events. Draws two values from the
    /// simulation RNG: the clock seed, then the retry policy's.
    pub(crate) fn new(
        handle: &SimHandle,
        node: NodeId,
        id: ClientId,
        map: Rc<RefCell<ShardMap>>,
        clock: &ClockSpec,
        obs: &obskit::Obs,
    ) -> SemelClient {
        let clock_seed = handle.rand_u64();
        let policy_seed = handle.rand_u64();
        let core = ClientCore::new(
            handle,
            Addr::new(node, CLIENT_RPC_PORT),
            id,
            map,
            (clock, clock_seed),
            policy_seed,
            obs,
        );
        let client = SemelClient {
            core,
            last_acked: Rc::new(Cell::new(Timestamp::ZERO)),
        };
        let me = client.clone();
        client
            .core
            .every(WATERMARK_INTERVAL, move || me.broadcast_watermark());
        client
    }

    /// Sends the current watermark report to every replica of every shard.
    /// Normally driven by the background task; exposed for tests.
    pub(crate) fn broadcast_watermark(&self) {
        let ts = self.last_acked.get();
        let map = self.core.map.borrow();
        for (_, group) in map.iter() {
            for addr in group.all() {
                self.core.rpc.cast(
                    addr,
                    SemelRequest::Watermark {
                        client: self.core.id,
                        ts,
                    },
                );
            }
        }
    }

    /// This client's id.
    pub fn id(&self) -> ClientId {
        self.core.id
    }

    /// Reads the client's (skewed, monotonic) clock: `t_current`.
    pub fn now(&self) -> Timestamp {
        self.core.now()
    }

    fn record_ack(&self, ts: Timestamp) {
        if ts > self.last_acked.get() {
            self.last_acked.set(ts);
        }
    }

    /// Creates a new version of `key` stamped with the client's current
    /// time; retries with a *fresh* timestamp if a concurrent writer with a
    /// later stamp wins the race (§3.3's "lagging clock" retry).
    ///
    /// # Errors
    ///
    /// [`SemelError::Rejected`] after exhausting retries, or transport /
    /// capacity errors.
    pub async fn put(&self, key: Key, value: Value) -> Result<Version, SemelError> {
        let mut last_rejection = None;
        for _ in 0..=PUT_RETRIES {
            let version = Version::new(self.now(), self.core.id);
            match self
                .put_versioned(key.clone(), value.clone(), version)
                .await
            {
                Ok(()) => return Ok(version),
                Err(SemelError::Rejected(v)) => last_rejection = Some(v),
                Err(e) => return Err(e),
            }
        }
        // `0..=PUT_RETRIES` runs at least once, so a rejection was recorded;
        // fall back to the attempted version rather than panicking on a
        // protocol path.
        let v = last_rejection.unwrap_or_else(|| Version::new(self.now(), self.core.id));
        Err(SemelError::Rejected(v))
    }

    /// Writes with an explicit version stamp, retransmitting on timeouts
    /// (idempotent thanks to at-most-once version checks).
    ///
    /// # Errors
    ///
    /// [`SemelError::Rejected`] if a newer version exists, plus transport /
    /// capacity errors.
    pub async fn put_versioned(
        &self,
        key: Key,
        value: Value,
        version: Version,
    ) -> Result<(), SemelError> {
        let core = &self.core;
        core.policy.on_attempt();
        // Retransmission on timeout is idempotent (the server deduplicates
        // by version); every retry is paid for from the retry budget. The
        // route is re-resolved each attempt so a rebalance cutover (the
        // server answers `Moved`) lands on the new owner after the shared
        // map flips.
        loop {
            let (shard, primary) = core.route(&key, |g| g.primary);
            if !core.wait_for_breaker(shard).await {
                return Err(SemelError::Overloaded);
            }
            let req = SemelRequest::Put {
                key: key.clone(),
                value: value.clone(),
                version,
            };
            match core
                .rpc
                .call::<SemelRequest, SemelResponse>(primary, req, RPC_TIMEOUT)
                .await
            {
                Ok(SemelResponse::PutOk) => {
                    core.policy.record_ok(shard.0 as u64);
                    self.record_ack(version.ts);
                    return Ok(());
                }
                Ok(SemelResponse::Rejected(v)) => {
                    core.policy.record_ok(shard.0 as u64);
                    return Err(SemelError::Rejected(v));
                }
                Ok(SemelResponse::NoMajority) => return Err(SemelError::NoMajority),
                Ok(SemelResponse::Capacity) => return Err(SemelError::Capacity),
                Ok(SemelResponse::Shed(shed)) => {
                    if !core.on_shed(shard, &shed, true).await {
                        return Err(SemelError::Overloaded);
                    }
                }
                // `Moved`: the key cut over to another shard; re-route from
                // the (shared, already flipped) map on the next attempt.
                Ok(SemelResponse::Moved { .. }) | Err(RpcError::Timeout) => {
                    if !core.backoff(None).await {
                        return Err(SemelError::Timeout);
                    }
                }
                Ok(_) => return Err(SemelError::Timeout),
            }
        }
    }

    /// Reads the youngest version visible at the client's current time.
    ///
    /// # Errors
    ///
    /// [`SemelError::NotFound`] and transport errors.
    pub async fn get(&self, key: Key) -> Result<VersionedValue, SemelError> {
        let at = self.now();
        self.get_at(key, at).await
    }

    /// Snapshot read at an explicit timestamp (used by MILANA transactions
    /// and read-only analytics).
    ///
    /// # Errors
    ///
    /// [`SemelError::NotFound`], [`SemelError::SnapshotUnavailable`] on
    /// single-version backends, and transport errors.
    pub async fn get_at(&self, key: Key, at: Timestamp) -> Result<VersionedValue, SemelError> {
        let core = &self.core;
        core.policy.on_attempt();
        loop {
            let (shard, primary) = core.route(&key, |g| g.primary);
            if !core.wait_for_breaker(shard).await {
                return Err(SemelError::Overloaded);
            }
            let req = SemelRequest::Get {
                key: key.clone(),
                at,
            };
            match core
                .rpc
                .call::<SemelRequest, SemelResponse>(primary, req, RPC_TIMEOUT)
                .await
            {
                Ok(SemelResponse::Value { version, value, .. }) => {
                    core.policy.record_ok(shard.0 as u64);
                    self.record_ack(at);
                    return Ok(VersionedValue { version, value });
                }
                Ok(SemelResponse::NotFound) => {
                    core.policy.record_ok(shard.0 as u64);
                    return Err(SemelError::NotFound);
                }
                Ok(SemelResponse::SnapshotUnavailable(v)) => {
                    core.policy.record_ok(shard.0 as u64);
                    return Err(SemelError::SnapshotUnavailable(v));
                }
                Ok(SemelResponse::Shed(shed)) => {
                    if !core.on_shed(shard, &shed, true).await {
                        return Err(SemelError::Overloaded);
                    }
                }
                // `Moved` is a rebalance cutover: re-route from the shared map.
                Ok(SemelResponse::Moved { .. }) | Err(RpcError::Timeout) => {
                    if !core.backoff(None).await {
                        return Err(SemelError::Timeout);
                    }
                }
                Ok(_) => return Err(SemelError::Timeout),
            }
        }
    }

    /// Deletes all versions of `key`.
    ///
    /// # Errors
    ///
    /// Transport and replication errors.
    pub async fn delete(&self, key: Key) -> Result<(), SemelError> {
        let (_, primary) = self.core.route(&key, |g| g.primary);
        match self
            .core
            .rpc
            .call::<SemelRequest, SemelResponse>(primary, SemelRequest::Delete { key }, RPC_TIMEOUT)
            .await
        {
            Ok(SemelResponse::Deleted) => Ok(()),
            Ok(SemelResponse::NoMajority) => Err(SemelError::NoMajority),
            Ok(SemelResponse::Shed(_)) => Err(SemelError::Overloaded),
            _ => Err(SemelError::Timeout),
        }
    }
}

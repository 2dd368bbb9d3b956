//! shardkit — elastic resharding for the MILANA reproduction.
//!
//! A [`RebalanceEngine`] executes one [`RebalancePlan`] (split a hot shard
//! by one hash bit, or move a whole shard to a fresh replica group) as a
//! deterministic state machine:
//!
//! 1. **Prepare** — the destination group is already provisioned by the
//!    harness; the engine installs the `Migrating` marker (epoch bump) in
//!    the master's authoritative map *and* the servers' shared view, then
//!    tells the source primary to start dual-applying moving commits.
//! 2. **Copy** — the engine streams every version-stamped record of the
//!    moving key set to all destination replicas through [`batchkit`]
//!    envelopes. Stamps carry the order, so envelopes are idempotent and
//!    freely retransmitted; pacing (`COPY_INTERVAL`) keeps the
//!    bulk plane from starving foreground traffic.
//! 3. **CatchUp** — incremental sweeps re-copy versions written since the
//!    previous sweep until a sweep moves at most `CATCHUP_THRESHOLD`
//!    records (or the round cap hits).
//! 4. **Cutover** — the source is fenced (new prepares on moving keys vote
//!    `StaleEpoch`), the engine polls until no prepared-but-undecided
//!    moving transaction remains *and* every decided one is applied, runs
//!    one final **full** sweep (correctness does not depend on catch-up
//!    cursors), flips the map (second epoch bump), and notifies source
//!    then destination. The source answers `Moved{epoch}` for one
//!    forwarding term.
//! 5. **Done** — after the forwarding term the source garbage-collects the
//!    moved keys.
//!
//! Every phase transition is traced as [`obskit::TraceEvent::MigrationStep`]
//! and exposed to fault-injection campaigns through a phase hook, so
//! crashes and partitions can be aimed at any point of the protocol. The
//! ownership claims the servers emit (`ShardOwned` / `ShardReleased`) let
//! faultkit's checker prove no two primaries ever served the same shard
//! at overlapping times.

use perfkit::FastMap;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use batchkit::{BatchConfig, Batcher};
use flashsim::{Backend, Key, Value};
use milana::{TxnRequest, TxnResponse};
use obskit::{MigrationPhase, Obs, TraceEvent};
use semel::master::Master;
use semel::shard::{ReplicaGroup, ShardId, ShardMap};
use simkit::net::{Addr, NodeId};
use simkit::rpc::RpcClient;
use simkit::SimHandle;
use timesync::{Timestamp, Version};

/// Records per bulk-copy envelope streamed to the destination replicas.
const COPY_BATCH: usize = 64;
/// Pause between copy envelopes, pacing the bulk plane so it does not
/// starve foreground traffic.
const COPY_INTERVAL: Duration = Duration::from_micros(500);
/// Catch-up sweeps repeat until one moves at most this many records (then
/// cutover begins).
const CATCHUP_THRESHOLD: u64 = 16;
/// Hard cap on catch-up sweeps before cutover is forced regardless of the
/// threshold.
const MAX_CATCHUP_ROUNDS: u32 = 8;
/// Per-envelope timeout on the copy plane.
const RPC_TIMEOUT: Duration = Duration::from_millis(50);
/// How long the source keeps answering moved-key requests with forwarding
/// stubs after cutover: one lease term, so every client lease observes the
/// flip.
const FORWARD_TERM: Duration = Duration::from_millis(100);
/// Poll period while waiting for in-flight prepares on moving keys to
/// drain at cutover, and between retries of an unanswered control message.
const DRAIN_POLL: Duration = Duration::from_millis(5);

/// One resharding action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebalancePlan {
    /// Split `from` by the next hash bit; keys whose hash has that bit set
    /// reroute to a brand-new shard id served by the destination group.
    Split {
        /// The (hot) shard being split.
        from: ShardId,
    },
    /// Move every key of `shard` to the destination group; the shard id is
    /// unchanged, only its serving group is.
    Move {
        /// The shard being moved.
        shard: ShardId,
    },
}

/// What one executed plan did, for benches and assertions.
#[derive(Debug, Clone, Copy, Default)]
pub struct RebalanceReport {
    /// Plan id (engine-local, monotonically increasing).
    pub plan: u64,
    /// Destination shard id (the new shard for a split, the moved shard
    /// for a move).
    pub to: u64,
    /// Records shipped over the copy plane (all sweeps, all replicas
    /// counted once per record, not per replica).
    pub records_copied: u64,
    /// Payload bytes shipped (values only, counted like `records_copied`).
    pub bytes_copied: u64,
    /// Catch-up sweeps run (excludes the initial copy and the final
    /// cutover sweep).
    pub catchup_rounds: u32,
    /// Map epoch after cutover.
    pub final_epoch: u64,
}

/// Called at the start of every phase — fault campaigns hook this to aim
/// crashes and partitions at specific protocol steps.
pub type PhaseHook = Rc<dyn Fn(MigrationPhase)>;

/// A source replica the engine may bulk-read from: its service address and
/// its storage handle (persistent memory survives the node, exactly like
/// the recovery paths read it).
pub type SourceReplica = (Addr, Backend);

/// The master-side migration driver. One engine serves a deployment and
/// can run plans back to back (never concurrently).
pub struct RebalanceEngine {
    handle: SimHandle,
    rpc: RpcClient,
    /// The servers' shared map view. With a master this is *not* the
    /// authoritative copy — [`RebalanceEngine::install`] mutates both in
    /// the same step so their epochs stay in lock step.
    map: Rc<RefCell<ShardMap>>,
    master: Option<Master>,
    obs: Obs,
    hook: RefCell<Option<PhaseHook>>,
    planes: RefCell<FastMap<Addr, Batcher<TxnRequest, TxnResponse>>>,
    node: NodeId,
    next_plan: Cell<u64>,
}

impl std::fmt::Debug for RebalanceEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RebalanceEngine")
            .field("node", &self.node)
            .field("next_plan", &self.next_plan.get())
            .finish()
    }
}

/// Engine service port on its node (distinct from the master's port 4).
pub const ENGINE_PORT: u16 = 48;

impl RebalanceEngine {
    /// Creates an engine issuing RPCs from `node` (typically the master's
    /// node). `master` is `None` for harness-driven deployments where the
    /// shared map *is* the authoritative map.
    pub fn new(
        handle: &SimHandle,
        node: NodeId,
        map: Rc<RefCell<ShardMap>>,
        master: Option<Master>,
        obs: Obs,
    ) -> RebalanceEngine {
        RebalanceEngine {
            handle: handle.clone(),
            rpc: RpcClient::new(handle, node, ENGINE_PORT),
            map,
            master,
            obs,
            hook: RefCell::new(None),
            planes: RefCell::new(FastMap::default()),
            node,
            next_plan: Cell::new(0),
        }
    }

    /// Installs a phase hook; fault campaigns use it to inject crashes and
    /// partitions at exact protocol steps.
    pub fn set_phase_hook(&self, hook: PhaseHook) {
        *self.hook.borrow_mut() = Some(hook);
    }

    /// Executes `plan`: the destination group must already be provisioned
    /// (its servers running, its storage empty) — e.g. by
    /// `MilanaCluster::provision_group`. `sources` are the source shard's
    /// replicas; the engine bulk-reads from whichever one the map says is
    /// primary. Returns when the source has garbage-collected the moved
    /// keys.
    ///
    /// # Panics
    ///
    /// Panics if another migration is already pending in the map.
    pub async fn run(
        &self,
        plan: RebalancePlan,
        dest: ReplicaGroup,
        sources: Vec<SourceReplica>,
    ) -> RebalanceReport {
        let plan_id = self.next_plan.get();
        self.next_plan.set(plan_id + 1);
        let from = match plan {
            RebalancePlan::Split { from } => from,
            RebalancePlan::Move { shard } => shard,
        };

        // Phase 1: Prepare — mark the map Migrating (epoch bump) in both
        // views, then arm dual-apply at the source primary.
        self.phase(MigrationPhase::Prepare);
        let (to, epoch) = match plan {
            RebalancePlan::Split { from } => {
                let d = dest.clone();
                self.install(move |m| m.begin_split(from, d.clone()))
            }
            RebalancePlan::Move { shard } => {
                let d = dest.clone();
                self.install(move |m| {
                    m.begin_move(shard, d.clone());
                    shard
                })
            }
        };
        self.step(plan_id, MigrationPhase::Prepare, from, to, epoch);
        self.acked_source(
            from,
            TxnRequest::MigrationStart {
                from,
                to,
                epoch,
                dest: dest.all(),
            },
        )
        .await;

        let mut report = RebalanceReport {
            plan: plan_id,
            to: to.0 as u64,
            ..RebalanceReport::default()
        };

        // Phase 2: Copy — full sweep of every moving version.
        self.phase(MigrationPhase::Copy);
        self.step(plan_id, MigrationPhase::Copy, from, to, epoch);
        // Sweep cursors are client-domain timestamps; pad by a skew bound
        // so a sweep never misses a version stamped by a fast clock.
        // Correctness never depends on this — the cutover sweep is full.
        let margin = Duration::from_millis(10);
        let mut cursor = Timestamp::ZERO;
        let mut next_cursor = Timestamp::from_sim(self.handle.now()).before(margin);
        self.sweep(from, &dest, &sources, cursor, plan_id, &mut report)
            .await;

        // Phase 3: CatchUp — incremental sweeps until the delta is small.
        self.phase(MigrationPhase::CatchUp);
        self.step(plan_id, MigrationPhase::CatchUp, from, to, epoch);
        for _ in 0..MAX_CATCHUP_ROUNDS {
            cursor = next_cursor;
            next_cursor = Timestamp::from_sim(self.handle.now()).before(margin);
            let moved = self
                .sweep(from, &dest, &sources, cursor, plan_id, &mut report)
                .await;
            report.catchup_rounds += 1;
            if moved <= CATCHUP_THRESHOLD {
                break;
            }
        }

        // Phase 4: Cutover — fence, drain, final full sweep, flip, notify.
        self.phase(MigrationPhase::Cutover);
        self.acked_source(from, TxnRequest::MigrationFence).await;
        loop {
            match self.call_source(from, TxnRequest::MigrationDrain).await {
                Some(TxnResponse::Drained { pending: 0 }) => break,
                _ => self.handle.sleep(DRAIN_POLL).await,
            }
        }
        // Full sweep: after fence+drain the moving set is final, so one
        // complete pass guarantees the destination holds every version
        // regardless of what the cursored sweeps saw.
        self.sweep(from, &dest, &sources, Timestamp::ZERO, plan_id, &mut report)
            .await;
        // Capture the source primary *before* the flip: a whole-shard move
        // replaces `group(from)` with the destination group, so resolving
        // through the flipped map would deliver the source's cutover to
        // the destination and never clear the source's migration state.
        let src_primary = self.map.borrow().group(from).primary;
        let ((), epoch) = self.install(|m| m.cutover());
        self.step(plan_id, MigrationPhase::Cutover, from, to, epoch);
        report.final_epoch = epoch;
        // Source first: it must start answering Moved before the
        // destination claims ownership, so the fault checker's
        // released-before-owned ordering holds even under retries.
        self.acked(src_primary, TxnRequest::MigrationCutover { to, epoch })
            .await;
        self.acked(dest.primary, TxnRequest::MigrationCutover { to, epoch })
            .await;

        // Phase 5: Done — forwarding term, then GC at the source replicas.
        self.phase(MigrationPhase::Done);
        self.handle.sleep(FORWARD_TERM).await;
        for &(addr, _) in &sources {
            self.acked(addr, TxnRequest::MigrationGc).await;
        }
        self.step(plan_id, MigrationPhase::Done, from, to, epoch);
        report
    }

    /// Applies one map mutation to the servers' shared view and (when a
    /// master runs) to the authoritative map, returning the mutation's
    /// result and the new epoch. Without a master the install is traced
    /// here so artifacts look the same either way.
    fn install<R>(&self, f: impl Fn(&mut ShardMap) -> R) -> (R, u64) {
        let out = f(&mut self.map.borrow_mut());
        match &self.master {
            Some(master) => {
                let (_, epoch) = master.install_map(|m| {
                    f(m);
                });
                (out, epoch)
            }
            None => {
                let (epoch, shards) = {
                    let m = self.map.borrow();
                    (m.epoch(), m.len() as u64)
                };
                self.obs.registry.counter("map_installs").inc();
                self.obs.tracer.record(
                    self.handle.now().as_nanos(),
                    TraceEvent::MapInstall { epoch, shards },
                );
                (out, epoch)
            }
        }
    }

    /// One copy sweep: reads every moving `(key, value, version)` triple
    /// with `version.ts >= cursor` from the source primary's storage and
    /// ships it to every destination replica, `COPY_BATCH` records per
    /// envelope, pacing envelopes by `COPY_INTERVAL`. Returns the number
    /// of records shipped.
    async fn sweep(
        &self,
        from: ShardId,
        dest: &ReplicaGroup,
        sources: &[SourceReplica],
        cursor: Timestamp,
        plan_id: u64,
        report: &mut RebalanceReport,
    ) -> u64 {
        let backend = self.source_backend(from, sources);
        let mut moved = 0u64;
        let mut chunk: Vec<(Key, Value, Version)> = Vec::new();
        for key in backend.keys() {
            if !self.map.borrow().key_is_moving(&key) {
                continue;
            }
            for v in backend.versions(&key) {
                if v.ts < cursor {
                    continue;
                }
                let Ok(vv) = backend.get_at(&key, v.ts).await else {
                    continue;
                };
                // A same-timestamp tie shadows the loser forever (reads at
                // any timestamp resolve to the winner), so skipping it
                // loses nothing observable.
                if vv.version != v {
                    continue;
                }
                chunk.push((key.clone(), vv.value, v));
                moved += 1;
                if chunk.len() >= COPY_BATCH {
                    self.ship(dest, std::mem::take(&mut chunk), plan_id, report)
                        .await;
                    self.handle.sleep(COPY_INTERVAL).await;
                }
            }
        }
        if !chunk.is_empty() {
            self.ship(dest, chunk, plan_id, report).await;
        }
        moved
    }

    /// Ships one record chunk to every destination replica over the
    /// batchkit copy plane, retrying each replica until it acks. All
    /// replicas must hold the records — `MigrateRecords` bypasses the
    /// transaction table, so a destination backup that missed them could
    /// be promoted into a primary with holes.
    async fn ship(
        &self,
        dest: &ReplicaGroup,
        records: Vec<(Key, Value, Version)>,
        plan_id: u64,
        report: &mut RebalanceReport,
    ) {
        let n = records.len() as u64;
        let bytes: u64 = records.iter().map(|(_, v, _)| v.len() as u64).sum();
        for addr in dest.all() {
            loop {
                let req = TxnRequest::MigrateRecords {
                    records: records.clone(),
                };
                match self.plane(addr).submit(req).await {
                    Some(TxnResponse::Ack) => break,
                    _ => self.handle.sleep(DRAIN_POLL).await,
                }
            }
        }
        report.records_copied += n;
        report.bytes_copied += bytes;
        self.obs.registry.counter("migration_records_moved").add(n);
        self.obs
            .registry
            .counter("migration_bytes_moved")
            .add(bytes);
        self.obs.tracer.record(
            self.handle.now().as_nanos(),
            TraceEvent::MigrationCopy {
                plan: plan_id,
                records: n,
                bytes,
            },
        );
    }

    /// The batchkit envelope plane to one destination replica, created on
    /// first use. Each envelope is one coalesced `Batch` RPC.
    fn plane(&self, addr: Addr) -> Batcher<TxnRequest, TxnResponse> {
        if let Some(b) = self.planes.borrow().get(&addr) {
            return b.clone();
        }
        let rpc = self.rpc.clone();
        let cfg = BatchConfig {
            batch_max: 4,
            batch_deadline: COPY_INTERVAL,
        };
        let batcher = Batcher::new(
            &self.handle,
            self.node,
            "migrate",
            cfg,
            self.obs.clone(),
            move |items: Vec<TxnRequest>| {
                let rpc = rpc.clone();
                async move {
                    rpc.call_batch::<TxnRequest, TxnResponse>(addr, items, RPC_TIMEOUT)
                        .await
                        .unwrap_or_default()
                }
            },
        );
        self.planes.borrow_mut().insert(addr, batcher.clone());
        batcher
    }

    /// The storage handle of `from`'s *current* primary (failover-aware):
    /// persistent memory outlives the node, so bulk reads work even while
    /// the node itself is down.
    fn source_backend(&self, from: ShardId, sources: &[SourceReplica]) -> Backend {
        let primary = self.map.borrow().group(from).primary;
        sources
            .iter()
            .find(|(a, _)| *a == primary)
            .or_else(|| sources.first())
            .map(|(_, b)| b.clone())
            .expect("at least one source replica")
    }

    /// Sends `req` to `from`'s current primary (re-resolved per attempt)
    /// until it answers `Ack`. Control messages are idempotent, so blind
    /// retries across crashes, partitions and failovers are safe.
    async fn acked_source(&self, from: ShardId, req: TxnRequest) {
        loop {
            let primary = self.map.borrow().group(from).primary;
            match self
                .rpc
                .call::<TxnRequest, TxnResponse>(primary, req.clone(), RPC_TIMEOUT)
                .await
            {
                Ok(TxnResponse::Ack) => return,
                _ => self.handle.sleep(DRAIN_POLL).await,
            }
        }
    }

    /// Sends `req` to a fixed address until it answers `Ack`.
    async fn acked(&self, addr: Addr, req: TxnRequest) {
        loop {
            match self
                .rpc
                .call::<TxnRequest, TxnResponse>(addr, req.clone(), RPC_TIMEOUT)
                .await
            {
                Ok(TxnResponse::Ack) => return,
                _ => self.handle.sleep(DRAIN_POLL).await,
            }
        }
    }

    /// One call to `from`'s current primary; `None` on timeout.
    async fn call_source(&self, from: ShardId, req: TxnRequest) -> Option<TxnResponse> {
        let primary = self.map.borrow().group(from).primary;
        self.rpc
            .call::<TxnRequest, TxnResponse>(primary, req, RPC_TIMEOUT)
            .await
            .ok()
    }

    fn phase(&self, phase: MigrationPhase) {
        if let Some(hook) = self.hook.borrow().clone() {
            hook(phase);
        }
    }

    fn step(&self, plan: u64, phase: MigrationPhase, from: ShardId, to: ShardId, epoch: u64) {
        self.obs.tracer.record(
            self.handle.now().as_nanos(),
            TraceEvent::MigrationStep {
                plan,
                phase,
                from: from.0 as u64,
                to: to.0 as u64,
                epoch,
            },
        );
    }
}

#[cfg(test)]
mod tests;

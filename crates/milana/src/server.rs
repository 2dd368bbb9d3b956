//! The MILANA shard server (§4): SEMEL storage plus the transaction
//! machinery — Algorithm-1 validation on the primary only, prepared-flag
//! piggybacking for client-local validation, relaxed replication of prepare
//! and outcome records, read leases, cooperative termination for dead
//! coordinators, and full primary failover (Algorithm 2).
//!
//! This module holds the configuration, [`TxnServer`] and its spawn, the
//! one match over requests and the read path. Its children split the rest
//! by concern:
//! - `role`: the replica's [`Start`] and role, the table of what each role
//!   refuses, and a backup's window on the floor stream;
//! - `commit`: prepare, vote, outcomes, the replication plane and applying
//!   committed records;
//! - `recovery`: the primary's lease and CTP tasks, log install, floor
//!   acceptance, catch-up, cold start and promotion;
//! - `migration`: a source primary's migration state, the `Migration*`
//!   requests, the bulk copy and dual-apply.

mod commit;
mod migration;
mod recovery;
mod role;

use std::cell::RefCell;
use std::future::Future;
use std::rc::Rc;
use std::time::Duration;

use batchkit::{BatchConfig, Batcher};
use flashsim::{Backend, Key, StoreError};
use semel::replica::{Dispatch, ReplicaCore, Started};
use semel::shard::{ShardId, ShardMap};
use simkit::net::Addr;
use simkit::rpc::{Incoming, Responder};
use simkit::time::SimTime;
use simkit::SimHandle;
use timesync::{ClientId, Timestamp, WatermarkTracker};

use crate::msg::{TxnQueryStatus, TxnRequest, TxnResponse, TxnStatus};
use crate::table::TxnTable;
pub use role::Start;
use role::{Role, ServerState};

/// Server timing knobs.
#[derive(Debug, Clone)]
pub struct ServerTuning {
    /// Keep at least this much version history regardless of watermark
    /// progress (§3.1: "keep all versions that are less than 5 seconds
    /// old", for read-only analytics). `None` prunes purely by watermark.
    pub history_window: Option<Duration>,
    /// Observability: metric registry plus (optionally enabled) structured
    /// trace sink, shared by every replica built from this tuning.
    pub obs: obskit::Obs,
    /// Fault-injection hook: the seeded misbehaviour, if any, of every
    /// replica built from this tuning (shared, so one `set` reaches them
    /// all).
    pub fraud: std::rc::Rc<std::cell::Cell<Fraud>>,
    /// Admission-control limits for client-facing work (gets and prepares).
    /// Internal traffic — replication, outcomes, leases, recovery — is
    /// never shed: dropping it amplifies the very overload being shed.
    pub admission: loadkit::AdmissionConfig,
    /// Group-commit replication: primaries coalesce prepare/outcome
    /// records (plus pending watermark relays) into one backup envelope
    /// per flush. `batch_max = 1` reproduces the per-record fan-out.
    pub batch: BatchConfig,
    /// Applied-watermark gossip period (readkit). Every replication
    /// envelope already carries an `AppliedFloor` record; this task keeps
    /// the floor advancing across *idle* stretches by submitting an empty
    /// `FloorSync` envelope on this period. `None` disables the task
    /// (floors then ride only on organic replication traffic).
    pub gossip_every: Option<Duration>,
    /// Records per anti-entropy catch-up page a cold-restarting replica,
    /// or a backup that lost part of its floor stream, pulls from its
    /// primary ([`TxnRequest::CatchUpFetch`]).
    pub catchup_batch: usize,
    /// Clock-health tracking: when set, primaries estimate each client's
    /// timestamp-vs-arrival residual, refuse prepares whose `ts_commit`
    /// leaves the client's uncertainty window ε (a definite
    /// [`crate::msg::TxnResponse::ClockSuspect`] no-vote), and fence
    /// persistent outliers so one runaway clock cannot inflate everyone's
    /// abort rate. `None` (the default) disables tracking entirely.
    pub clock_health: Option<clockkit::ClockHealthConfig>,
}

/// A seeded server misbehaviour. Exists solely so the fault campaigns can
/// prove a checker live: each fraud breaks one guarantee, and the matching
/// faultkit invariant must trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fraud {
    /// Every replica follows the protocol.
    #[default]
    None,
    /// Primaries vote yes on every prepare without running Algorithm-1
    /// read validation (`--inject validation-skip`): lost updates slip
    /// through and the checker must find the `serializability_cycle`.
    SkipValidation,
    /// A cold restart trusts its mounted flash state as-is — no
    /// anti-entropy catch-up, and the stale durable floor is adopted as the
    /// applied watermark (`--inject durability-skip`): the
    /// `lost_acked_write` / `stale_backup_read` checkers must catch it.
    SkipDurability,
    /// Primaries keep *estimating* clock health but stop *enforcing* it —
    /// suspect prepares sail through (`--inject uncertainty-skip`): the
    /// checker must flag the `clock_bound_breach`.
    SkipUncertainty,
}

impl Default for ServerTuning {
    fn default() -> ServerTuning {
        ServerTuning {
            history_window: None,
            obs: obskit::Obs::new(),
            fraud: std::rc::Rc::default(),
            admission: loadkit::AdmissionConfig::default(),
            batch: BatchConfig::default(),
            gossip_every: None,
            catchup_batch: 64,
            clock_health: None,
        }
    }
}

/// A prepared transaction older than this triggers cooperative
/// termination (its coordinator is presumed dead).
pub(crate) const CTP_AFTER: Duration = Duration::from_millis(500);
/// Period of the primary's scan for transactions older than [`CTP_AFTER`].
pub(crate) const CTP_SCAN_EVERY: Duration = Duration::from_millis(200);
/// Admission cost of a snapshot read (`ReadAt`).
pub(crate) const COST_GET: u64 = 1;
/// Admission cost of a 2PC prepare: validation plus synchronous
/// replication to a backup quorum, far heavier than a read.
pub(crate) const COST_PREPARE: u64 = 4;

/// Static configuration of one MILANA shard replica, with the role it
/// starts in.
#[derive(Debug, Clone)]
pub struct TxnServerConfig {
    /// Which shard this replica serves.
    pub shard: ShardId,
    /// This replica's service address.
    pub addr: Addr,
    /// How the replica starts: the shard's primary with its backups, a
    /// backup trusting the primary's floor stream from birth, or a backup
    /// restarted warm (it pulls) or cold (it mounts, then catches up).
    pub start: Start,
    /// Clients feeding the GC watermark.
    pub clients: Vec<ClientId>,
    /// Master address; primaries heartbeat it so the master can detect
    /// failures and drive automatic failover. `None` disables heartbeats
    /// (harness-driven failover only).
    pub master: Option<Addr>,
    /// Timing knobs.
    pub tuning: ServerTuning,
}

/// Counters for observability and the experiment harnesses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxnServerStats {
    /// Gets served.
    pub gets: u64,
    /// Prepare requests validated successfully.
    pub prepares_ok: u64,
    /// Prepare requests rejected by validation.
    pub prepares_aborted: u64,
    /// Commit outcomes this replica applied *as primary*. A backup applies
    /// replicated outcomes without counting them, so this stays 0 there.
    pub commits: u64,
    /// Abort outcomes this replica applied *as primary* (0 on a backup,
    /// like `commits`).
    pub aborts: u64,
    /// Transactions resolved by cooperative termination.
    pub ctp_resolutions: u64,
    /// Snapshot reads served from this replica *as a backup* (readkit).
    pub replica_reads: u64,
    /// Backup reads declined because the applied watermark did not cover
    /// the snapshot.
    pub too_stale: u64,
    /// Prepares refused by the clock-health tracker (suspect residual or
    /// fenced client). A subset of `prepares_aborted`-style no-votes but
    /// counted separately: these never reached Algorithm-1 validation.
    pub clock_suspects: u64,
    /// Clients this replica fenced as persistent clock outliers (fence
    /// transitions, not currently-fenced count).
    pub clock_fences: u64,
    /// Committed record applies whose local storage write failed (a full
    /// device). The record stays unapplied, and a backup stops advancing
    /// its applied watermark until a catch-up sweep stores it.
    pub(crate) apply_failures: u64,
}

/// One MILANA shard replica: the SEMEL [`ReplicaCore`] (storage, internal
/// RPC endpoint, admission, replication, GC watermarks) extended with the
/// transaction table, 2PC, leases, recovery and migration. Cloning shares
/// the server.
#[derive(Clone)]
pub struct TxnServer {
    core: Rc<ReplicaCore>,
    table: Rc<RefCell<TxnTable>>,
    state: Rc<RefCell<ServerState>>,
    stats: Rc<RefCell<TxnServerStats>>,
    map: Rc<RefCell<ShardMap>>,
    /// Per-client clock-health estimates (`None` when
    /// [`ServerTuning::clock_health`] is unset).
    clock_health: Option<Rc<RefCell<clockkit::ClockHealth>>>,
    cfg: Rc<TxnServerConfig>,
    /// Group-commit replication batcher: coalesces `ReplPrepare` /
    /// `ReplOutcome` records (plus pending watermark relays) into one
    /// envelope per backup. Only a primary's target set is non-empty; it is
    /// read from the live role at flush time so promotion keeps working.
    repl_batch: Batcher<TxnRequest, bool>,
    /// Scratch buffer for the validate hot loop: the write-key list is
    /// rebuilt per prepare but never escapes it, so the allocation is
    /// reused across prepares. Never held across an await.
    scratch_write_keys: Rc<RefCell<Vec<Key>>>,
}

impl std::fmt::Debug for TxnServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxnServer")
            .field("shard", &self.cfg.shard)
            .field("addr", &self.cfg.addr)
            .field("primary", &self.is_primary())
            .finish()
    }
}

impl TxnServer {
    /// Spawns a MILANA server on `cfg.addr.node`.
    ///
    /// `backend` and `table` model persistent memory: pass the same handles
    /// back in when respawning a replica after a crash.
    pub(crate) fn spawn(
        handle: &SimHandle,
        backend: Backend,
        table: Rc<RefCell<TxnTable>>,
        map: Rc<RefCell<ShardMap>>,
        cfg: TxnServerConfig,
    ) -> TxnServer {
        let (role, floor) = cfg.start.role();
        let state = ServerState {
            role,
            floors: WatermarkTracker::new(cfg.clients.iter().copied()),
            max_granted: SimTime::ZERO,
            known_primary: None,
            pending_outcomes: perfkit::FastMap::default(),
            floor,
            cutover_seen: false,
        };
        let core = ReplicaCore::new(
            handle,
            backend,
            cfg.addr,
            &cfg.tuning.admission,
            &cfg.tuning.obs,
            &cfg.clients,
            cfg.tuning.history_window,
        );
        let state = Rc::new(RefCell::new(state));
        let cfg = Rc::new(cfg);
        let repl_batch = Self::replication_plane(&core, &state, &cfg);
        let server = TxnServer {
            core,
            table,
            state,
            stats: Rc::new(RefCell::new(TxnServerStats::default())),
            map,
            clock_health: cfg
                .tuning
                .clock_health
                .clone()
                .map(|c| Rc::new(RefCell::new(clockkit::ClockHealth::new(c)))),
            cfg,
            repl_batch,
            scratch_write_keys: Rc::new(RefCell::new(Vec::new())),
        };
        // A restarted replica must not reuse stale volatile key metadata.
        server.table.borrow_mut().rebuild_key_meta();
        let me = server.clone();
        server
            .core
            .serve(move |incoming, from, resp| me.on_envelope(incoming, from, resp));
        match server.cfg.start {
            Start::Primary { .. } => server.spawn_primary_tasks(),
            Start::Backup { .. } => {}
            // A warm restart missed an unknown stretch of the floor stream,
            // so it pulls like a backup that lost an envelope. A migration
            // destination's backup restarted before cutover finds no
            // primary for its shard until the cutover maps it; its sweep
            // waits for that (the engine always cuts over), and only needs
            // post-cutover commits: the copy plane ships every earlier
            // record to each destination replica until it acks.
            Start::Warm => server.pull(),
            Start::Cold => {
                let me = server.clone();
                let node = server.cfg.addr.node;
                server.core.handle.spawn_on(node, async move {
                    me.cold_start().await;
                });
            }
        }
        server
    }

    fn trace(&self, ev: obskit::TraceEvent) {
        self.core.trace(ev);
    }

    /// The storage backend (persistent handle).
    pub fn backend(&self) -> &Backend {
        &self.core.backend
    }

    /// The transaction table (persistent handle).
    pub fn table(&self) -> &Rc<RefCell<TxnTable>> {
        &self.table
    }

    /// Server counters.
    pub fn stats(&self) -> TxnServerStats {
        *self.stats.borrow()
    }

    /// True if this replica currently acts as primary (serving or
    /// promoting).
    pub fn is_primary(&self) -> bool {
        self.state.borrow().role.is_primary()
    }

    /// True once this replica answers requests (false mid-recovery: a
    /// promotion's log merge or a cold restart's mount + catch-up).
    pub fn is_serving(&self) -> bool {
        self.state.borrow().role.is_serving()
    }

    /// Takes one envelope at its delivery instant. A single read is
    /// admitted here and, unless shed, gets a task of its own whose future
    /// holds only what a read needs; every other envelope goes through
    /// [`ReplicaCore::dispatch`].
    fn on_envelope(&self, incoming: Incoming<TxnRequest>, from: Addr, resp: Responder) {
        match incoming {
            Incoming::One(req @ TxnRequest::ReadAt { .. }) => {
                if let Some((permit, resp)) = self.core.admit(COST_GET, resp, TxnResponse::Shed) {
                    self.core.spawn(self.read_task(req, permit, resp));
                }
            }
            incoming => self.core.dispatch(self, incoming, from, resp),
        }
    }

    /// Boxes a waiting arm's future, handing it a clone of the server.
    fn wait<F>(&self, arm: impl FnOnce(TxnServer) -> F) -> Started<TxnResponse>
    where
        F: Future<Output = Option<TxnResponse>> + 'static,
    {
        Started::Waiting(Box::pin(arm(self.clone())))
    }
}

/// Every request, alone in its envelope or batched, goes through
/// [`ReplicaCore::dispatch`] and one match, [`Dispatch::start`]. An arm
/// that never waits answers on the spot. The five that may wait —
/// `Prepare`, `ReplPrepare`, `MigrateRecords`, `InstallLog` and `Promote` —
/// and a batched read return their own boxed future. An envelope holding
/// one of those gets a task, whose first poll starts every item in item
/// order; any other envelope is answered at its delivery instant, with no
/// task. A single read keeps a small task of its own
/// (`TxnServer::read_task`), in front of the dispatch.
impl Dispatch for TxnServer {
    type Req = TxnRequest;
    type Resp = TxnResponse;
    const SHED: fn(loadkit::Shed) -> TxnResponse = TxnResponse::Shed;
    /// The coordinator classifies `NotReady` as unreachable.
    const SILENT: TxnResponse = TxnResponse::NotReady;

    /// A snapshot read or a prepare.
    fn admission_cost(req: &TxnRequest) -> Option<u64> {
        match req {
            TxnRequest::ReadAt { .. } => Some(COST_GET),
            TxnRequest::Prepare { .. } => Some(COST_PREPARE),
            _ => None,
        }
    }

    /// A read, a prepare, a replicated prepare, bulk-copy records, a log
    /// install or a promotion.
    fn may_wait(req: &TxnRequest) -> bool {
        Self::admission_cost(req).is_some()
            || matches!(
                req,
                TxnRequest::ReplPrepare(_)
                    | TxnRequest::MigrateRecords { .. }
                    | TxnRequest::InstallLog { .. }
                    | TxnRequest::Promote { .. }
            )
    }

    /// The one match over `TxnRequest`. A read's or prepare's `permit` is
    /// held by its future until it is done.
    fn start(
        &self,
        req: TxnRequest,
        permit: Option<loadkit::Permit>,
        from: Addr,
    ) -> Started<TxnResponse> {
        Started::Answered(match req {
            req @ TxnRequest::ReadAt { .. } => {
                return Started::Waiting(Box::pin(self.read(req, permit, Some)))
            }
            // `None` = duplicate of an in-flight prepare: stay silent (the
            // original answers once replication settles).
            req @ TxnRequest::Prepare { .. } => {
                return self.wait(move |me| async move {
                    let _permit = permit;
                    me.do_prepare(req).await
                })
            }
            // Outcome delivery is fire-and-forget on the wire (the decision
            // is already safe at the coordinator; CTP and recovery cover a
            // lost apply), so ack now and run the apply in its own task: a
            // decision's flash write must not hold the votes of its envelope
            // hostage. Visibility order is preserved — the apply installs
            // its versions before first yielding, and its task is queued
            // ahead of any later-arriving read.
            TxnRequest::Outcome { txid, commit } => {
                let me = self.clone();
                self.core
                    .spawn(async move { me.apply_outcome(txid, commit).await });
                TxnResponse::Ack
            }
            TxnRequest::Watermark { client, ts } => {
                self.merge_watermark(client, ts);
                TxnResponse::Ack
            }
            TxnRequest::FloorReport { client, ts } => {
                self.merge_floor(client, ts);
                TxnResponse::Ack
            }
            // Floor acceptance is synchronous, so by the time this envelope
            // is acked the watermark is already raised; same-envelope
            // outcomes run as detached tasks, but until they decide, their
            // records stay Prepared and poison reads via the piggybacked
            // flag.
            TxnRequest::AppliedFloor { seq, ts } => {
                self.accept_floor(seq, ts, from);
                TxnResponse::Ack
            }
            // An empty payload; its envelope carries the floor.
            TxnRequest::FloorSync => TxnResponse::Ack,
            TxnRequest::ReplPrepare(record) => {
                return self.wait(move |me| async move {
                    me.backup_install_prepare(record).await;
                    Some(TxnResponse::Ack)
                })
            }
            TxnRequest::ReplOutcome { txid, commit } => {
                let me = self.clone();
                self.core
                    .spawn(async move { me.backup_apply_outcome(txid, commit).await });
                TxnResponse::Ack
            }
            TxnRequest::QueryTxn { txid } => {
                TxnResponse::Status(match self.table.borrow().status(txid) {
                    Some(TxnStatus::Committed) => TxnQueryStatus::Committed,
                    Some(TxnStatus::Aborted) => TxnQueryStatus::Aborted,
                    Some(TxnStatus::Prepared) => TxnQueryStatus::Prepared,
                    None => TxnQueryStatus::Unknown,
                })
            }
            TxnRequest::RequestLog => TxnResponse::Log {
                records: self.table.borrow().all_records(),
            },
            TxnRequest::InstallLog { records } => {
                return self.wait(move |me| async move {
                    me.install_log(records, from).await;
                    Some(TxnResponse::Ack)
                })
            }
            TxnRequest::LeaseGrant { until } => self.grant_lease(until, from),
            TxnRequest::LeaseQuery => TxnResponse::LeaseInfo {
                max_granted: self.state.borrow().max_granted,
            },
            TxnRequest::Promote { backups } => {
                return self.wait(move |me| async move {
                    me.recover_as_primary(backups).await;
                    Some(TxnResponse::PromoteOk)
                })
            }
            TxnRequest::MigrationStart {
                from,
                to,
                epoch,
                dest,
            } => self.migration_start(from, to, epoch, dest),
            TxnRequest::MigrateRecords { records } => {
                return self.wait(move |me| async move { Some(me.migrate_records(records).await) })
            }
            TxnRequest::MigrationFence => self.migration_fence(),
            TxnRequest::MigrationDrain => self.migration_drain(),
            TxnRequest::MigrationCutover { to, epoch } => self.migration_cutover(to, epoch),
            TxnRequest::MigrationGc => self.migration_gc(),
            req @ TxnRequest::CatchUpFetch { .. } => self.catch_up_page(&req),
        })
    }
}

impl TxnServer {
    /// The future of an admitted snapshot read: it hands the reply to `then` and holds its permit until
    /// `then` returns. It captures what a read needs and no more, so the box
    /// of its task stays small.
    fn read<R>(
        &self,
        req: TxnRequest,
        permit: Option<loadkit::Permit>,
        then: impl FnOnce(TxnResponse) -> R + 'static,
    ) -> impl Future<Output = R> + 'static {
        let me = self.clone();
        async move {
            let r = me.handle_read_at(req).await;
            let out = then(r);
            drop(permit);
            out
        }
    }

    /// The task of a single-envelope read, which replies itself.
    pub(crate) fn read_task(
        &self,
        req: TxnRequest,
        permit: loadkit::Permit,
        resp: Responder,
    ) -> impl Future<Output = ()> + 'static {
        self.read(req, Some(permit), move |r| resp.reply(r))
    }

    /// Serves a [`TxnRequest::ReadAt`]. A primary serves it from its own
    /// chains (`primary_read`); a backup answers from its own chains when
    /// the applied watermark covers `at`, with the same prepared-flag
    /// piggybacking as the primary path.
    async fn handle_read_at(&self, req: TxnRequest) -> TxnResponse {
        let primary = {
            let st = self.state.borrow();
            if let Some(refused) = st.role.refuses(&req) {
                return refused;
            }
            st.role.is_primary()
        };
        let TxnRequest::ReadAt { key, at, client } = req else {
            unreachable!("not a read: {req:?}")
        };
        {
            // Forwarding stub after a cutover: the flipped map routes this
            // key elsewhere, so send the client back to the master instead
            // of serving a frozen (soon to be GC'd) copy that would miss
            // post-migration commits.
            let map = self.map.borrow();
            if self.moved_away(&map, std::iter::once(&key)) {
                return TxnResponse::Moved { epoch: map.epoch() };
            }
        }
        if primary {
            return self.primary_read(key, at, client).await;
        }
        let wm = self.table.borrow().applied_watermark();
        let depth = self.core.admission.in_flight();
        if at > wm {
            self.stats.borrow_mut().too_stale += 1;
            return TxnResponse::TooStale { watermark: wm };
        }
        // The prepared flag has primary semantics here: `install` keeps
        // the key markers live on backups, and any commit below the floor
        // whose outcome this replica missed is still marked Prepared (the
        // floor is only accepted once the outcome's envelope was), so
        // local validation is poisoned exactly when it would be on the
        // primary. Recording `at` in ts_latestRead is harmless: `at ≤ wm`
        // is below every future commit stamp.
        let prepared = self.table.borrow_mut().note_read(&key, at);
        let inner = self.read_reply(&key, at, prepared).await;
        if matches!(inner, TxnResponse::Value { .. } | TxnResponse::NotFound) {
            // Only data replies claim watermark coverage; the checker's
            // stale_backup_read invariant audits exactly this claim.
            self.stats.borrow_mut().replica_reads += 1;
            self.trace(obskit::TraceEvent::ReadServed {
                replica: self.cfg.addr.node.0 as u64,
                watermark: wm.as_nanos(),
                ts_begin: at.as_nanos(),
            });
        }
        TxnResponse::FromReplica {
            reply: Box::new(inner),
            watermark: wm,
            depth,
        }
    }

    /// A serving primary's half of [`TxnServer::handle_read_at`].
    async fn primary_read(&self, key: Key, at: Timestamp, client: ClientId) -> TxnResponse {
        if !self.lease_valid_for(at) {
            return TxnResponse::NotReady;
        }
        // Clock-health ceiling on the read path: noting a read at `at`
        // promises that no write below `at` commits on this key, and the
        // prepare fence refuses any `ts_commit` more than `max_future_ns`
        // past this server's clock — so a read beyond that ceiling would
        // extract a promise honest writers are then held to indefinitely
        // (a broken client could poison hot keys by merely *reading* them
        // with a far-future ts_begin). Refuse it instead; the fence on the
        // prepare path guarantees nothing commits above the ceiling, so
        // every admitted read's promise stays enforceable. Breaches feed
        // the same per-client fence state as suspect prepares.
        if self.clock_suspect(client, at, clockkit::ClockHealth::observe_read) {
            return TxnResponse::ClockSuspect;
        }
        let prepared = self.table.borrow_mut().note_read(&key, at);
        let r = self.read_reply(&key, at, prepared).await;
        if matches!(r, TxnResponse::Value { .. }) {
            self.stats.borrow_mut().gets += 1;
        }
        r
    }

    /// Snapshot-reads `key` at `at` from local storage, as a wire reply
    /// carrying the given prepared flag.
    async fn read_reply(&self, key: &Key, at: Timestamp, prepared: bool) -> TxnResponse {
        match self.core.backend.get_at(key, at).await {
            Ok(vv) => TxnResponse::Value {
                version: vv.version,
                value: vv.value,
                prepared,
            },
            Err(StoreError::NotFound) => TxnResponse::NotFound,
            Err(StoreError::SnapshotUnavailable(v)) => TxnResponse::SnapshotUnavailable(v),
            Err(_) => TxnResponse::Capacity,
        }
    }
}

//! The MILANA shard server (§4): SEMEL storage plus the transaction
//! machinery — Algorithm-1 validation on the primary only, prepared-flag
//! piggybacking for client-local validation, relaxed replication of prepare
//! and outcome records, read leases, cooperative termination for dead
//! coordinators, and full primary failover (Algorithm 2).
//!
//! ## Durability model
//!
//! The storage [`Backend`] and the transaction table are held behind shared
//! handles owned by the harness, modeling *persistent memory that survives a
//! node crash* (§4.1: "updates to this table are logged in persistent memory
//! as they occur"). Killing a server's node destroys only its volatile
//! state: per-key `ts_latestRead` metadata, lease state, and in-flight
//! tasks — exactly the state §4.5's recovery protocol reconstructs or
//! shields with leases.
//!
//! ## Dispatch
//!
//! Every request, alone in its envelope or batched, goes through
//! [`ReplicaCore::dispatch`] and one match, this server's
//! [`Dispatch::start`]. An arm that never waits answers on the spot. The
//! five that may wait — `Prepare`, `ReplPrepare`, `MigrateRecords`,
//! `InstallLog` and `Promote` — and a batched read return their own boxed
//! future. An envelope holding one of those gets a task, whose first poll
//! starts every item in item order; any other envelope is answered at its
//! delivery instant, with no task. A single read keeps a small task of its
//! own (`TxnServer::read_task`), in front of the dispatch.

use std::cell::RefCell;
use std::future::Future;
use std::rc::Rc;
use std::time::Duration;

use batchkit::{BatchConfig, Batcher};
use flashsim::{Backend, Key, StoreError, Value};
use semel::replica::{Dispatch, ReplicaCore, Started};
use semel::shard::{ShardId, ShardMap};
use semel::REPL_TIMEOUT;
use simkit::net::Addr;
use simkit::rpc::{Incoming, Responder};
use simkit::time::SimTime;
use simkit::SimHandle;
use timesync::{ClientId, Timestamp, Version, WatermarkTracker};

use crate::msg::{TxnId, TxnQueryStatus, TxnRecord, TxnRequest, TxnResponse, TxnStatus};
use crate::table::TxnTable;

/// How far each grant extends the primary's read lease (§4.5). Must
/// comfortably exceed the worst-case client clock skew, since lease expiry
/// (true time) is compared against client-domain read timestamps.
const LEASE_DURATION: Duration = Duration::from_millis(100);
/// Lease renewal period (well under [`LEASE_DURATION`]).
const LEASE_RENEW_EVERY: Duration = Duration::from_millis(30);
/// Heartbeat period when a master is configured.
const HEARTBEAT_EVERY: Duration = Duration::from_millis(40);
/// Most `AppliedFloor`s a backup parks behind a missing one. Reordered
/// envelopes leave a few; a hole that outlives this many later floors is
/// taken as a lost envelope, which the backup pulls with the catch-up sweep.
const FLOOR_AHEAD_MAX: usize = 64;
/// A prepared transaction older than this triggers cooperative
/// termination (its coordinator is presumed dead).
pub(crate) const CTP_AFTER: Duration = Duration::from_millis(500);
/// Period of the primary's scan for transactions older than [`CTP_AFTER`].
pub(crate) const CTP_SCAN_EVERY: Duration = Duration::from_millis(200);

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

/// Admission cost of a snapshot read (`ReadAt`).
pub(crate) const COST_GET: u64 = 1;
/// Admission cost of a 2PC prepare: validation plus synchronous
/// replication to a backup quorum, far heavier than a read.
pub(crate) const COST_PREPARE: u64 = 4;

/// Static + initial-role configuration of one MILANA shard replica.
#[derive(Debug, Clone)]
pub struct TxnServerConfig {
    /// Which shard this replica serves.
    pub shard: ShardId,
    /// This replica's service address.
    pub addr: Addr,
    /// The shard's backups (meaningful when primary).
    pub backups: Vec<Addr>,
    /// Initial role.
    pub is_primary: bool,
    /// Clients feeding the GC watermark.
    pub clients: Vec<ClientId>,
    /// The node whose `AppliedFloor` stream this backup trusts from birth
    /// (the shard primary at cluster build). `None` on a restarted or
    /// provisioned replica: it missed an unknown prefix of the stream, so
    /// its floor window starts untrusted, and only the next promotion's
    /// `InstallLog` or, after a cold restart, the catch-up splice trusts
    /// it. Irrelevant on primaries.
    pub primary_node: Option<simkit::net::NodeId>,
    /// Master address; primaries heartbeat it so the master can detect
    /// failures and drive automatic failover. `None` disables heartbeats
    /// (harness-driven failover only).
    pub master: Option<Addr>,
    /// True when this replica is coming back from a *power failure*: its
    /// DRAM — transaction table included — is gone and only flash
    /// survived. The server boots not-serving, mounts the backend
    /// (rebuilding the mapping table and discarding torn pages),
    /// rehydrates the write-floor promises from the durable floor record,
    /// and runs anti-entropy catch-up against the current primary before
    /// opening for business. Pass a *fresh, empty* transaction table with
    /// this flag — whatever the old table held died with the RAM.
    pub cold_start: bool,
    /// Timing knobs.
    pub tuning: ServerTuning,
}

/// Live-migration state held by a source primary between `MigrationStart`
/// and `MigrationCutover` (§ rebalance). Idempotent: the engine may resend
/// any control message after a fault.
#[derive(Debug, Clone)]
struct MigrationState {
    /// Shard gaining the moving keys (equals the source shard on a
    /// whole-shard move to a new replica group).
    to: ShardId,
    /// Map epoch at which the migration began.
    epoch: u64,
    /// Destination replica addresses (primary first) for dual-apply.
    dest: Vec<Addr>,
    /// True once `MigrationFence` arrived: new prepares touching moving
    /// keys get a definite `StaleEpoch` no-vote so the undecided set can
    /// drain for cutover.
    fenced: bool,
}

#[derive(Default)]
struct ServerState {
    is_primary: bool,
    backups: Vec<Addr>,
    /// False while recovering (requests answered `NotReady`).
    serving: bool,
    /// Write-floor promises (readkit): per-client "no future prepare at or
    /// below" reports. Unlike the core's GC watermarks, active snapshots do not
    /// hold these back, so the min tracks wall time closely — it is the
    /// `AppliedFloor` a primary streams to its backups, certifying them to
    /// serve snapshot reads.
    floors: WatermarkTracker,
    /// As primary: our lease is valid until this true-time instant.
    lease_until: SimTime,
    /// As backup: the latest lease expiry we ever granted.
    max_granted: SimTime,
    /// As backup: the primary we currently accept lease requests from.
    known_primary: Option<Addr>,
    /// Outcomes that arrived before their prepare record (backup side).
    pending_outcomes: perfkit::FastMap<TxnId, bool>,
    /// Prepares whose replication is still in flight. A retransmitted
    /// Prepare for one of these must NOT be answered from the table: the
    /// record is installed before replication completes, and an early
    /// `Vote{ok}` would acknowledge a prepare that may yet fail
    /// replication and abort — the coordinator could then commit a
    /// transaction recorded on no backup, which a primary crash erases.
    replicating: perfkit::FastSet<TxnId>,
    /// Primary: per-client watermark reports received since the last
    /// replication flush, relayed to backups by piggybacking on the next
    /// batched envelope (a `BTreeMap` so the piggyback order — and hence
    /// the run — is deterministic).
    wm_relay: std::collections::BTreeMap<ClientId, Timestamp>,
    /// Source-primary migration state (None when no rebalance touches
    /// this shard).
    migration: Option<MigrationState>,
    /// Primary: sequence number of the next `AppliedFloor` appended to a
    /// replication envelope. Reset to 0 by a promotion, whose `InstallLog`
    /// re-baselines every backup.
    floor_seq: u64,
    /// Backup: the primary's `AppliedFloor` stream, the one input that
    /// moves the applied watermark.
    floor: SeqWindow,
}

/// A backup's window on its primary's `AppliedFloor` stream (DESIGN §14).
/// A floor advances the applied watermark only once every earlier `seq`
/// from the same sender has, so the watermark claims complete chains. One
/// window serves the live floors, a promotion's `InstallLog` and the
/// catch-up splice; a hole is either filled, or pulled by the catch-up
/// sweep once it outlives [`FLOOR_AHEAD_MAX`] later floors.
#[derive(Default)]
struct SeqWindow {
    /// The node whose stream advances the watermark. `None` while the
    /// stream does not back the local chains: after a restart, mid
    /// catch-up sweep, after a lost envelope or a failed store write.
    /// Floors from another node (a deposed primary still flushing) are
    /// ignored while a stream is trusted.
    trusted: Option<simkit::net::NodeId>,
    /// The next `seq` that may advance the watermark.
    next: u64,
    /// Floors that arrived ahead of `next` (their envelopes overtook an
    /// earlier one, or no stream is trusted), by sender and `seq`, so two
    /// streams never mix. At most [`FLOOR_AHEAD_MAX`] wait.
    ahead: std::collections::BTreeMap<(simkit::net::NodeId, u64), Timestamp>,
}

impl SeqWindow {
    /// Takes floor `seq` from `from` and returns the floor to advance the
    /// watermark to, if it made the stream contiguous further. An overflow
    /// of a trusted window distrusts it: the hole is a lost envelope.
    fn offer(&mut self, from: simkit::net::NodeId, seq: u64, ts: Timestamp) -> Option<Timestamp> {
        if self.trusted.is_some_and(|t| t != from || seq < self.next) {
            return None;
        }
        self.ahead.insert((from, seq), ts);
        let floor = self.drain();
        if self.ahead.len() > FLOOR_AHEAD_MAX {
            self.ahead.pop_first();
            self.trusted = None;
        }
        floor
    }

    /// Trusts `from`'s stream from seq `next`: drops every other parked
    /// floor and drains the rest.
    fn rebase(&mut self, from: simkit::net::NodeId, next: u64) -> Option<Timestamp> {
        self.ahead
            .retain(|&(node, seq), _| node == from && seq >= next);
        self.trusted = Some(from);
        self.next = next;
        self.drain()
    }

    /// Removes the trusted stream's parked floors contiguous from `next`
    /// and returns the greatest.
    fn drain(&mut self) -> Option<Timestamp> {
        let from = self.trusted?;
        let mut floor = None;
        while let Some(ts) = self.ahead.remove(&(from, self.next)) {
            floor = floor.max(Some(ts));
            self.next += 1;
        }
        floor
    }
}

impl ServerState {
    /// The write floor as it goes on the wire: an empty tracker reports
    /// MAX, which is sent as ZERO (a no-op floor) so `seq` stays contiguous.
    fn sendable_floor(&self) -> Timestamp {
        let floor = self.floors.watermark();
        if floor == Timestamp::MAX {
            Timestamp::ZERO
        } else {
            floor
        }
    }
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
    /// Latched by the first `MigrationCutover` this replica processes, so
    /// engine retries cannot re-emit ownership trace events.
    cutover_seen: Rc<std::cell::Cell<bool>>,
    /// Per-client clock-health estimates (`None` when
    /// [`ServerTuning::clock_health`] is unset).
    clock_health: Option<Rc<RefCell<clockkit::ClockHealth>>>,
    cfg: Rc<TxnServerConfig>,
    /// Group-commit replication batcher: coalesces `ReplPrepare` /
    /// `ReplOutcome` records (plus pending watermark relays) into one
    /// envelope per backup. Inert on backups — only primary code paths
    /// submit to it; the target backup set is read from the live state at
    /// flush time so promotion keeps working.
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
            .field("primary", &self.state.borrow().is_primary)
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
        let state = ServerState {
            is_primary: cfg.is_primary,
            backups: cfg.backups.clone(),
            // A cold start answers `NotReady` until the mount scan and
            // anti-entropy catch-up complete.
            serving: !cfg.cold_start,
            floors: WatermarkTracker::new(cfg.clients.iter().copied()),
            floor: SeqWindow {
                trusted: cfg.primary_node,
                ..SeqWindow::default()
            },
            ..ServerState::default()
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
            cutover_seen: Rc::new(std::cell::Cell::new(false)),
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
        if server.state.borrow().is_primary {
            server.spawn_primary_tasks();
        }
        if server.cfg.cold_start {
            let me = server.clone();
            let node = server.cfg.addr.node;
            server.core.handle.spawn_on(node, async move {
                me.cold_start().await;
            });
        } else if !server.cfg.is_primary && server.cfg.primary_node.is_none() {
            // A warm restart: the backup missed an unknown stretch of the
            // floor stream, so it pulls like one that lost an envelope. A
            // migration destination's backup restarted before cutover finds
            // no primary for its shard until the cutover maps it; its sweep
            // waits for that (the engine always cuts over), and only needs
            // post-cutover commits: the copy plane ships every earlier
            // record to each destination replica until it acks.
            server.pull();
        }
        server
    }

    /// Builds the group-commit replication plane. A flush drains pending
    /// watermark relays, prepends them to the drained records, appends the
    /// applied floor and replicates the whole envelope to the *current*
    /// backup set (read at flush time so promotion keeps working); every
    /// drained record succeeds only when `f` backups acknowledged the
    /// whole batch.
    fn replication_plane(
        core: &Rc<ReplicaCore>,
        state: &Rc<RefCell<ServerState>>,
        cfg: &TxnServerConfig,
    ) -> Batcher<TxnRequest, bool> {
        let state = Rc::clone(state);
        core.replication_plane(
            "milana",
            cfg.tuning.batch,
            REPL_TIMEOUT,
            move |items: Vec<TxnRequest>| {
                let mut st = state.borrow_mut();
                let mut wire: Vec<TxnRequest> = std::mem::take(&mut st.wm_relay)
                    .into_iter()
                    .map(|(client, ts)| TxnRequest::Watermark { client, ts })
                    .collect();
                wire.extend(items);
                // Append the applied floor: every record with a commit
                // stamp below `ts` is in this envelope or an earlier one,
                // so a backup that saw the whole stream (contiguous seq)
                // owns complete chains below `ts`. Appended last so
                // same-envelope outcomes are applied by the time the floor
                // covering them is processed; an empty tracker reports MAX,
                // which is sent as ZERO (a no-op floor) to keep `seq`
                // contiguous.
                let floor = st.sendable_floor();
                let seq = st.floor_seq;
                st.floor_seq += 1;
                wire.push(TxnRequest::AppliedFloor { seq, ts: floor });
                (st.backups.clone(), wire)
            },
            |r: &TxnResponse| matches!(r, TxnResponse::Ack),
        )
    }

    fn spawn_primary_tasks(&self) {
        if let Some(master) = self.cfg.master {
            let me = self.clone();
            self.core.handle.spawn_on(self.cfg.addr.node, async move {
                loop {
                    let _ = semel::master::send_heartbeat(
                        &me.core.rpc,
                        master,
                        me.cfg.shard,
                        me.cfg.addr,
                        REPL_TIMEOUT,
                    )
                    .await;
                    me.core.handle.sleep(HEARTBEAT_EVERY).await;
                }
            });
        }
        let me = self.clone();
        self.core.handle.spawn_on(self.cfg.addr.node, async move {
            loop {
                me.renew_lease().await;
                me.core.handle.sleep(LEASE_RENEW_EVERY).await;
            }
        });
        let me = self.clone();
        self.core.handle.spawn_on(self.cfg.addr.node, async move {
            loop {
                me.core.handle.sleep(CTP_SCAN_EVERY).await;
                me.ctp_scan().await;
            }
        });
        if let Some(every) = self.cfg.tuning.gossip_every {
            let me = self.clone();
            self.core.handle.spawn_on(self.cfg.addr.node, async move {
                loop {
                    me.core.handle.sleep(every).await;
                    let idle = {
                        let st = me.state.borrow();
                        st.is_primary && st.serving && !st.backups.is_empty()
                    };
                    if idle {
                        // An empty payload; the flush appends the floor.
                        me.repl_batch.submit_nowait(TxnRequest::FloorSync);
                    }
                }
            });
        }
    }

    fn trace(&self, ev: obskit::TraceEvent) {
        self.core.trace(ev);
    }

    async fn renew_lease(&self) {
        let until = self.core.handle.now() + LEASE_DURATION;
        let backups = self.state.borrow().backups.clone();
        let ok = self
            .core
            .replicate(
                backups,
                TxnRequest::LeaseGrant { until },
                REPL_TIMEOUT,
                |r: &TxnResponse| matches!(r, TxnResponse::LeaseGranted { .. }),
            )
            .await;
        if ok {
            let mut st = self.state.borrow_mut();
            if until > st.lease_until {
                st.lease_until = until;
            }
        }
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

    /// True if this replica currently acts as primary.
    pub fn is_primary(&self) -> bool {
        self.state.borrow().is_primary
    }

    /// True once this replica answers requests (false mid-recovery: a
    /// promotion's log merge or a cold restart's mount + catch-up).
    pub fn is_serving(&self) -> bool {
        self.state.borrow().serving
    }

    fn latest_committed(&self, key: &Key) -> Option<Version> {
        self.core.backend.latest_version(key)
    }

    /// True while this replica is still a member of its shard's replica
    /// group in `map`. A completed whole-shard move removes the old group
    /// from the map, so a stale client reaching the old primary is told
    /// the key moved. (A mid-failover promotion keeps the promoted backup
    /// in the group, so failover never trips this.)
    fn in_group(&self, map: &ShardMap) -> bool {
        match map.group_opt(self.cfg.shard) {
            Some(g) => g.primary == self.cfg.addr || g.backups.contains(&self.cfg.addr),
            // Migration destination before cutover: its shard id enters
            // the map only when the cutover installs it.
            None => true,
        }
    }

    /// Rebalance routing check for a primary-path request: `true` if any
    /// of `keys` is no longer owned here per the (shared, newest) map.
    fn moved_away<'a>(&self, map: &ShardMap, mut keys: impl Iterator<Item = &'a Key>) -> bool {
        !self.in_group(map) || keys.any(|k| map.shard_for(k) != self.cfg.shard)
    }

    fn lease_valid_for(&self, at: Timestamp) -> bool {
        at < Timestamp::from_sim(self.state.borrow().lease_until)
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
            TxnRequest::Prepare {
                txid,
                ts_commit,
                reads,
                writes,
                participants,
                epoch,
            } => {
                return self.wait(move |me| async move {
                    let _permit = permit;
                    me.do_prepare(txid, ts_commit, reads, writes, participants, epoch)
                        .await
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
            TxnRequest::LeaseGrant { until } => {
                let mut st = self.state.borrow_mut();
                let requester = Addr {
                    node: from.node,
                    port: self.cfg.addr.port,
                };
                if st.known_primary.is_some_and(|p| p != requester) {
                    TxnResponse::NotReady
                } else {
                    st.known_primary = Some(requester);
                    st.max_granted = st.max_granted.max(until);
                    TxnResponse::LeaseGranted { until }
                }
            }
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
            } => {
                // Source primary: remember the destination for dual-apply
                // and announce ownership of the moving range so the
                // single-owner checker sees who holds it. Destination
                // replicas just ack — bulk-copy records carry their own
                // versions. Idempotent: a retried start only overwrites.
                if from == self.cfg.shard && self.state.borrow().is_primary {
                    let first = self.state.borrow().migration.is_none();
                    self.state.borrow_mut().migration = Some(MigrationState {
                        to,
                        epoch,
                        dest,
                        fenced: false,
                    });
                    if first {
                        self.trace(obskit::TraceEvent::ShardOwned {
                            shard: to.0 as u64,
                            epoch,
                            owner: self.cfg.addr.node.0 as u64,
                        });
                    }
                }
                TxnResponse::Ack
            }
            // Bulk-copy records from the rebalance engine; stamps make
            // application order-free.
            TxnRequest::MigrateRecords { records } => {
                return self.wait(move |me| async move {
                    let _ = me.core.backend.apply_batch_unordered(records).await;
                    Some(TxnResponse::Ack)
                })
            }
            TxnRequest::MigrationFence => {
                let released = {
                    let mut st = self.state.borrow_mut();
                    match st.migration.as_mut() {
                        Some(m) if !m.fenced => {
                            m.fenced = true;
                            Some((m.to, m.epoch))
                        }
                        _ => None,
                    }
                };
                if let Some((to, epoch)) = released {
                    // Fenced = this primary no longer accepts new prepares
                    // for the moving range: ownership is released (the
                    // undecided set is frozen and only drains from here).
                    self.trace(obskit::TraceEvent::ShardReleased {
                        shard: to.0 as u64,
                        epoch,
                        owner: self.cfg.addr.node.0 as u64,
                    });
                }
                TxnResponse::Ack
            }
            // A moving-key transaction stays pending until it is both
            // decided *and* (for commits) applied to the backend:
            // `apply_outcome` flips the table status before awaiting the
            // backend apply, and the engine's final cutover sweep reads the
            // backend — a decided-but-unapplied write reported as drained
            // could be missed by that sweep and lost to GC if its
            // fire-and-forget dual-apply cast was also dropped.
            TxnRequest::MigrationDrain => {
                let map = self.map.borrow();
                TxnResponse::Drained {
                    pending: self
                        .table
                        .borrow()
                        .unsettled_writing(|k| map.key_is_moving(k)),
                }
            }
            TxnRequest::MigrationCutover { to, epoch } => {
                // Source side: the map has flipped; moved keys now answer
                // `Moved` until GC. Destination side: announce ownership of
                // the range. The destination is identified positively — the
                // carried `to` shard id plus membership in its (flipped) map
                // group — never by the absence of local migration state,
                // which a source primary promoted mid-migration (the
                // promoted backup saw no `MigrationStart`) also exhibits.
                // Latched (`cutover_seen`) so engine retries cannot re-emit
                // transitions the single-owner checker reads.
                let is_dest = {
                    let mut st = self.state.borrow_mut();
                    st.migration = None;
                    st.is_primary && self.cfg.shard == to && self.in_group(&self.map.borrow())
                };
                let first = !self.cutover_seen.replace(true);
                if is_dest && first {
                    self.trace(obskit::TraceEvent::ShardOwned {
                        shard: to.0 as u64,
                        epoch,
                        owner: self.cfg.addr.node.0 as u64,
                    });
                }
                TxnResponse::Ack
            }
            TxnRequest::MigrationGc => {
                // Forwarding term over: drop every key the flipped map no
                // longer routes here. After a whole-shard move the shard id
                // still matches but this replica left the serving group, so
                // everything goes.
                let map = self.map.borrow().clone();
                let evicted = !self.in_group(&map);
                let mut dropped = 0u64;
                for key in self.core.backend.keys() {
                    if evicted || map.shard_for(&key) != self.cfg.shard {
                        self.core.backend.delete(&key);
                        dropped += 1;
                    }
                }
                self.cfg
                    .tuning
                    .obs
                    .registry
                    .counter("migration_gc_records")
                    .add(dropped);
                TxnResponse::Ack
            }
            TxnRequest::CatchUpFetch { cursor, limit } => self.catch_up_page(cursor, limit),
        })
    }
}

impl TxnServer {
    /// A backup's side of a promotion's [`TxnRequest::InstallLog`] from
    /// `from`: merge the log, apply the committed writes not yet applied
    /// here, and adopt the sender as lease grantee and floor stream.
    async fn install_log(&self, records: Vec<TxnRecord>, from: Addr) {
        {
            let mut table = self.table.borrow_mut();
            for r in &records {
                table.install(r.clone());
            }
        }
        // Catch up data for committed transactions we have not already
        // applied locally.
        let mut complete = true;
        for r in &records {
            if r.status == TxnStatus::Committed && !self.table.borrow().is_applied(r.txid) {
                complete &= self.apply_committed(r).await.is_ok();
            }
        }
        let mut st = self.state.borrow_mut();
        st.known_primary = Some(Addr {
            node: from.node,
            port: self.cfg.addr.port,
        });
        // The merged log plus the committed-delta apply above make this
        // replica complete up to the sender's merge point, healing any gap
        // in the old floor stream. The new primary's stream starts at seq
        // 0; adopt it, unless a store write failed.
        let floor = complete.then(|| st.floor.rebase(from.node, 0)).flatten();
        drop(st);
        self.advance_floor(floor);
    }

    /// One page of a replica's anti-entropy sweep
    /// ([`TxnRequest::CatchUpFetch`]). Recovery-plane traffic: never
    /// admission-gated (shedding it only prolongs the outage it is healing).
    /// Only a serving primary answers; a mid-promotion primary replies
    /// `NotReady` and the cold replica retries.
    fn catch_up_page(&self, cursor: Option<u64>, limit: u64) -> TxnResponse {
        {
            let st = self.state.borrow();
            if !st.is_primary || !st.serving {
                return TxnResponse::NotReady;
            }
        }
        let (records, next) = self
            .table
            .borrow()
            .page_after(cursor, limit.clamp(1, 4096) as usize);
        // One borrow for (seq, floor) so the pair is consistent:
        // `floor_seq` is where the splice resumes the live stream, and
        // every outcome `floor` covers was flushed in an envelope strictly
        // below it.
        let st = self.state.borrow();
        TxnResponse::CatchUpRecords {
            records,
            next,
            floor_seq: st.floor_seq,
            floor: st.sendable_floor(),
        }
    }

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
            let TxnRequest::ReadAt { key, at, client } = req else {
                unreachable!("not a read: {req:?}")
            };
            let r = me.handle_read_at(key, at, client).await;
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

    /// Merges one client watermark report, advances the backend GC floor,
    /// and (on primaries) queues the report for relay to the backups on the
    /// next replication flush — the only path a client's watermark takes to
    /// a backup.
    fn merge_watermark(&self, client: ClientId, ts: Timestamp) {
        let primary = {
            let mut st = self.state.borrow_mut();
            if st.is_primary && !st.backups.is_empty() {
                st.wm_relay.insert(client, ts);
            }
            st.is_primary
        };
        // A backup prunes only below its *applied* watermark: a version
        // above it may still be the newest one a covered snapshot elsewhere
        // can read, and the chain completeness the floor promised must
        // survive GC.
        let cap = if primary {
            Timestamp::MAX
        } else {
            self.table.borrow().applied_watermark()
        };
        self.core.merge_watermark(client, ts, cap);
    }

    /// Merges one client write-floor promise (readkit). On a primary the
    /// tracker min *is* the applied watermark: its own chains are complete
    /// by construction (every commit for the shard lands here first), and
    /// the promise rules out any future stamp at or below the min — the
    /// `do_prepare` floor fence rejects stragglers that would break it.
    /// Backups ignore direct reports; their applied watermark only moves
    /// along the primary's in-order `AppliedFloor` stream, which is what
    /// makes it a completeness claim.
    fn merge_floor(&self, client: ClientId, ts: Timestamp) {
        let (floor, primary) = {
            let mut st = self.state.borrow_mut();
            st.floors.update(client, ts);
            (st.floors.watermark(), st.is_primary)
        };
        if primary {
            self.advance_floor(Some(floor));
        }
    }

    /// Backup side of an [`TxnRequest::AppliedFloor`] record: the floor
    /// goes through the window, which advances the applied watermark once
    /// the stream from the trusted primary is contiguous (see
    /// [`SeqWindow`]). A hole the window can no longer hold is pulled.
    fn accept_floor(&self, seq: u64, ts: Timestamp, from: Addr) {
        let mut st = self.state.borrow_mut();
        if st.is_primary {
            return;
        }
        let w = &mut st.floor;
        if self.cfg.tuning.fraud.get() == Fraud::SkipDurability
            && w.trusted == Some(from.node)
            && seq > w.next
        {
            // Fault-injection hook: pretend the hole never happened and
            // splice blindly into the live stream. The watermark then
            // advances over commits this replica never recovered: exactly
            // the bug the `lost_acked_write` checker exists to catch.
            w.rebase(from.node, seq);
        }
        let trusted = w.trusted.is_some();
        let floor = w.offer(from.node, seq, ts);
        let lost = trusted && w.trusted.is_none();
        drop(st);
        self.advance_floor(floor);
        if lost {
            self.pull();
        }
    }

    /// Advances the applied watermark to an accepted floor (a backup's from
    /// its window, a primary's from its own tracker) and makes the promise
    /// durable: the floor is stamped into every later flash page program,
    /// and a cold restart rehydrates its floor tracker from the mount
    /// scan's recovered floor (the max over intact page OOB stamps). An
    /// empty tracker's MAX advances nothing.
    fn advance_floor(&self, floor: Option<Timestamp>) {
        if let Some(ts) = floor.filter(|&ts| ts < Timestamp::MAX) {
            self.table.borrow_mut().advance_applied_watermark(ts);
            self.core.backend.note_floor(ts);
        }
    }

    /// Backup: the floor stream no longer backs the local chains (a hole
    /// outlived the window, or a store write failed). Pull what is missing
    /// with the cold-restart sweep, whose splice trusts the stream again.
    fn pull(&self) {
        let me = self.clone();
        self.core
            .handle
            .spawn_on(self.cfg.addr.node, async move { me.catch_up().await });
    }

    /// Serves a [`TxnRequest::ReadAt`]. A primary serves it from its own
    /// chains (`primary_read`); a backup answers from its own chains when
    /// the applied watermark covers `at`, with the same prepared-flag
    /// piggybacking as the primary path.
    async fn handle_read_at(&self, key: Key, at: Timestamp, client: ClientId) -> TxnResponse {
        let primary = {
            let st = self.state.borrow();
            if !st.serving {
                return TxnResponse::NotReady;
            }
            st.is_primary
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

    /// Backup side of a replicated prepare record: install it and settle
    /// any outcome that raced ahead of it.
    async fn backup_install_prepare(&self, record: TxnRecord) {
        let txid = record.txid;
        self.table.borrow_mut().install(record);
        let pending = self.state.borrow_mut().pending_outcomes.remove(&txid);
        if let Some(commit) = pending {
            self.backup_apply_outcome(txid, commit).await;
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

    /// Clock-health fence (clockkit): judges a client-minted `stamp` against
    /// this server's own arrival clock through `observe` (the prepare or
    /// the read rule) and returns true when the request must be refused
    /// with [`TxnResponse::ClockSuspect`]. A residual outside the client's
    /// uncertainty window ε, or a client fenced as a persistent outlier, is
    /// traced either way; the [`Fraud::SkipUncertainty`] hook keeps the
    /// estimates updating but lets the request through, so the history
    /// checker's clock-bound invariant can prove it notices. Always false
    /// when tracking is off.
    fn clock_suspect(
        &self,
        client: ClientId,
        stamp: Timestamp,
        observe: impl FnOnce(&mut clockkit::ClockHealth, ClientId, u64, u64) -> clockkit::ClockVerdict,
    ) -> bool {
        let Some(health) = &self.clock_health else {
            return false;
        };
        let arrival_ns = self.core.handle.now().as_nanos();
        let verdict = observe(&mut health.borrow_mut(), client, stamp.0, arrival_ns);
        self.stats.borrow_mut().clock_fences = health.borrow().fence_count();
        let (residual_ns, epsilon_ns, fenced) = match verdict {
            clockkit::ClockVerdict::Ok => return false,
            clockkit::ClockVerdict::Suspect {
                residual_ns,
                epsilon_ns,
            } => (residual_ns, epsilon_ns, false),
            clockkit::ClockVerdict::Fenced => (
                stamp.0 as i64 - arrival_ns as i64,
                health.borrow().epsilon_ns(client),
                true,
            ),
        };
        self.trace(obskit::TraceEvent::ClockFence {
            client: client.0 as u64,
            residual_ns,
            epsilon_ns,
            fenced,
        });
        if self.cfg.tuning.fraud.get() == Fraud::SkipUncertainty {
            return false;
        }
        self.stats.borrow_mut().clock_suspects += 1;
        true
    }

    /// Validates and durably prepares one transaction, returning the vote.
    /// `None` means *stay silent* — a duplicate of a prepare whose
    /// replication is still in flight (at-least-once delivery): the
    /// original handler answers once the quorum settles, and answering
    /// early from the table would leak a vote for an un-durable prepare.
    async fn do_prepare(
        &self,
        txid: TxnId,
        ts_commit: Timestamp,
        reads: Rc<[(Key, Version)]>,
        writes: Rc<[(Key, Value)]>,
        participants: Rc<[ShardId]>,
        epoch: u64,
    ) -> Option<TxnResponse> {
        {
            let st = self.state.borrow();
            if !st.serving || !st.is_primary {
                return Some(TxnResponse::NotReady);
            }
        }
        if self.state.borrow().replicating.contains(&txid) {
            return None;
        }
        // Retransmitted prepare: answer from the table.
        if let Some(status) = self.table.borrow().status(txid) {
            return Some(TxnResponse::Vote {
                ok: status != TxnStatus::Aborted,
            });
        }
        // Rebalance epoch fence (definite no-vote, nothing installed):
        // refuse prepares touching keys this primary no longer owns
        // (post-cutover, stale client map), keys that are mid-migration
        // once fenced (so the undecided moving set can drain), or
        // mid-migration keys routed under a map epoch older than ours —
        // the client's view predates the `Migrating` marker. The client
        // refetches the map and retries under the new epoch. (The carried
        // epoch may legitimately be *newer* than the shared map during a
        // failover's master/shared-map install skew; that is not fenced.)
        {
            let st = self.state.borrow();
            let map = self.map.borrow();
            let keys = || {
                reads
                    .iter()
                    .map(|(k, _)| k)
                    .chain(writes.iter().map(|(k, _)| k))
            };
            let fenced_moving = matches!(&st.migration, Some(m) if m.fenced)
                && keys().any(|k| map.key_is_moving(k));
            let stale_routed = epoch < map.epoch() && keys().any(|k| map.key_is_moving(k));
            if fenced_moving || stale_routed || self.moved_away(&map, keys()) {
                self.cfg
                    .tuning
                    .obs
                    .registry
                    .counter("stale_epoch_prepares")
                    .inc();
                return Some(TxnResponse::StaleEpoch { epoch: map.epoch() });
            }
        }
        // Floor fence (readkit): a stamp at or below the certified write
        // floor can only be a straggler — a prepare delayed in the network
        // past its client's later floor reports (the client caps reports
        // below every unacked commit, so a live commit never trips this).
        // Installing it would mint a version below an `AppliedFloor`
        // already streamed to backups, silently invalidating snapshot
        // reads they served. Definite no-vote, nothing installed.
        {
            let floor = self.state.borrow().floors.watermark();
            if floor < Timestamp::MAX && ts_commit <= floor {
                return self.vote(false);
            }
        }
        // Clock-health fence: judged before spending validation work; a
        // refusal is a definite no-vote (nothing validated or installed).
        if self.clock_suspect(txid.client, ts_commit, clockkit::ClockHealth::observe) {
            return Some(TxnResponse::ClockSuspect);
        }
        // The chaos harness can disable read validation to seed a known
        // serializability bug (lost updates slip through); write-conflict
        // checks stay on so the table's exclusivity invariants hold.
        let checked_reads: &[(Key, Version)] =
            if self.cfg.tuning.fraud.get() == Fraud::SkipValidation {
                &[]
            } else {
                &reads
            };
        let verdict = {
            let mut write_keys = self.scratch_write_keys.borrow_mut();
            write_keys.clear();
            write_keys.extend(writes.iter().map(|(k, _)| k.clone()));
            self.table
                .borrow()
                .validate(checked_reads, &write_keys, ts_commit, |k| {
                    self.latest_committed(k)
                })
        };
        if !verdict.is_success() {
            return self.vote(false);
        }
        let record = TxnRecord {
            txid,
            ts_commit,
            writes,
            participants,
            status: TxnStatus::Prepared,
        };
        self.table
            .borrow_mut()
            .prepare_validated(record.clone(), checked_reads);
        self.state.borrow_mut().replicating.insert(txid);
        // Replicate the prepare record through the group-commit batcher;
        // any f of 2f backups suffice, in any order relative to other
        // records (§3.2, Figure 5). The whole batch acks together, so the
        // record's coverage is at least the batch quorum.
        let ok = self
            .repl_batch
            .submit(TxnRequest::ReplPrepare(record))
            .await
            .unwrap_or(false);
        self.state.borrow_mut().replicating.remove(&txid);
        if !ok {
            // Could not make the prepare durable: release and vote abort.
            self.table.borrow_mut().decide(txid, false);
            return self.vote(false);
        }
        self.vote(true)
    }

    /// Counts, traces and returns this primary's vote on a prepare.
    fn vote(&self, ok: bool) -> Option<TxnResponse> {
        {
            let mut stats = self.stats.borrow_mut();
            if ok {
                stats.prepares_ok += 1;
            } else {
                stats.prepares_aborted += 1;
            }
        }
        self.trace(obskit::TraceEvent::PrepareVote {
            shard: self.cfg.shard.0 as u64,
            ok,
        });
        Some(TxnResponse::Vote { ok })
    }

    /// Applies a coordinator decision on the primary: finalize the table
    /// entry, apply writes on commit, and stream the outcome to backups.
    async fn apply_outcome(&self, txid: TxnId, commit: bool) {
        let record = {
            let mut table = self.table.borrow_mut();
            match table.status(txid) {
                Some(TxnStatus::Prepared) => table.decide(txid, commit),
                Some(_) => None, // duplicate decision
                None => {
                    // Decision for a transaction we never prepared (e.g. CTP
                    // abort): remember it as a tombstone for queries.
                    table.install(TxnRecord {
                        txid,
                        ts_commit: Timestamp::ZERO,
                        writes: Vec::new().into(),
                        participants: Vec::new().into(),
                        status: if commit {
                            TxnStatus::Committed
                        } else {
                            TxnStatus::Aborted
                        },
                    });
                    None
                }
            }
        };
        let Some(record) = record else { return };
        if commit {
            // Dual-apply during a migration: committed writes on moving
            // keys are forwarded to every destination replica as
            // version-stamped records. Casts may be lost under faults —
            // the engine's final acked catch-up sweep re-copies anything
            // missing, so this only keeps the cutover delta small.
            let dual = {
                let st = self.state.borrow();
                st.migration.as_ref().map(|m| m.dest.clone())
            };
            if let Some(dest) = dual {
                let mut moving = record.stamped_writes();
                {
                    let map = self.map.borrow();
                    moving.retain(|(k, _, _)| map.key_is_moving(k));
                }
                if !moving.is_empty() {
                    self.cfg
                        .tuning
                        .obs
                        .registry
                        .counter("migration_dual_applies")
                        .add(moving.len() as u64);
                    for &d in &dest {
                        self.core.rpc.cast(
                            d,
                            TxnRequest::MigrateRecords {
                                records: moving.clone(),
                            },
                        );
                    }
                }
            }
            let _ = self.apply_committed(&record).await;
            self.stats.borrow_mut().commits += 1;
        } else {
            self.stats.borrow_mut().aborts += 1;
        }
        // Outcome records ride the same group-commit envelope as prepares;
        // best-effort like the unbatched fan-out was (CTP and recovery
        // handle any backup that misses it), so nothing waits on the ack.
        self.repl_batch
            .submit_nowait(TxnRequest::ReplOutcome { txid, commit });
    }

    /// Applies an outcome on a backup: finalize the record if present
    /// (applying committed writes to local storage), else hold the decision
    /// until the prepare record arrives.
    async fn backup_apply_outcome(&self, txid: TxnId, commit: bool) {
        let record = {
            let mut table = self.table.borrow_mut();
            match table.status(txid) {
                Some(TxnStatus::Prepared) => table.decide(txid, commit),
                Some(_) => None,
                None => {
                    self.state
                        .borrow_mut()
                        .pending_outcomes
                        .insert(txid, commit);
                    None
                }
            }
        };
        if let (Some(record), true) = (record, commit) {
            let _ = self.apply_committed(&record).await;
        }
    }

    /// Applies a committed record's writes to local storage (idempotent:
    /// the backend rejects duplicate versions) and marks it applied. A
    /// failed write leaves it unapplied and counts in `apply_failures`; on a
    /// backup it also distrusts the floor stream, and the catch-up sweep
    /// that pulls retries the record.
    async fn apply_committed(&self, r: &TxnRecord) -> Result<(), StoreError> {
        let applied = self
            .core
            .backend
            .apply_batch_unordered(r.stamped_writes())
            .await;
        if applied.is_ok() {
            self.table.borrow_mut().mark_applied(r.txid);
        } else {
            self.stats.borrow_mut().apply_failures += 1;
            let mut st = self.state.borrow_mut();
            if !st.is_primary && st.floor.trusted.take().is_some() {
                drop(st);
                self.pull();
            }
        }
        applied
    }

    /// Cooperative Termination Protocol (§4.5): resolve prepared
    /// transactions whose coordinator went silent. Runs only on the
    /// designated backup coordinator — the primary of the transaction's
    /// first participant shard.
    async fn ctp_scan(&self) {
        {
            let st = self.state.borrow();
            if !st.is_primary || !st.serving {
                return;
            }
        }
        let threshold = Timestamp::from_sim(self.core.handle.now()).before(CTP_AFTER);
        let stuck = self.table.borrow().stuck_prepared(threshold);
        for record in stuck {
            if record.participants.first() != Some(&self.cfg.shard) {
                continue; // some other primary is the designated coordinator
            }
            let Some(decision) = self.resolve_by_query(&record).await else {
                continue; // a participant is unreachable; retry next scan
            };
            self.stats.borrow_mut().ctp_resolutions += 1;
            self.apply_outcome(record.txid, decision).await;
            // Notify the other participants.
            let map = self.map.borrow().clone();
            for &shard in record.participants.iter() {
                if shard == self.cfg.shard {
                    continue;
                }
                let primary = map.group(shard).primary;
                self.core.rpc.cast(
                    primary,
                    TxnRequest::Outcome {
                        txid: record.txid,
                        commit: decision,
                    },
                );
            }
        }
    }

    /// Queries the other participants of a prepared transaction and decides
    /// its fate per the CTP rules (§4.5): any commit → commit; any abort or
    /// missing prepare → abort; all prepared → commit (unanimous SUCCESS
    /// means the coordinator's only possible decision was commit). Returns
    /// `None` when a participant is unreachable and no definite answer was
    /// seen — the transaction stays blocked, as 2PC requires.
    async fn resolve_by_query(&self, record: &TxnRecord) -> Option<bool> {
        for &shard in record.participants.iter() {
            if shard == self.cfg.shard {
                continue;
            }
            let primary = self.map.borrow().group(shard).primary;
            let status = self
                .core
                .rpc
                .call::<TxnRequest, TxnResponse>(
                    primary,
                    TxnRequest::QueryTxn { txid: record.txid },
                    REPL_TIMEOUT,
                )
                .await;
            match status {
                Ok(TxnResponse::Status(TxnQueryStatus::Committed)) => return Some(true),
                Ok(TxnResponse::Status(TxnQueryStatus::Aborted)) => return Some(false),
                Ok(TxnResponse::Status(TxnQueryStatus::Prepared)) => {}
                Ok(TxnResponse::Status(TxnQueryStatus::Unknown)) => return Some(false),
                _ => return None, // unreachable participant: stay blocked
            }
        }
        Some(true)
    }

    /// §4.5 failover: called on a backup when the master promotes it.
    async fn recover_as_primary(&self, backups: Vec<Addr>) {
        {
            let mut st = self.state.borrow_mut();
            st.is_primary = true;
            st.serving = false;
            st.backups = backups.clone();
            // Start a fresh floor stream; the `InstallLog` below (step 5)
            // re-baselines every backup to expect it from seq 0.
            st.floor_seq = 0;
        }
        // 1. Merge transaction logs from a majority of replicas (our own
        //    table already holds everything replicated to us).
        for &b in &backups {
            if let Ok(TxnResponse::Log { records }) = self
                .core
                .rpc
                .call::<TxnRequest, TxnResponse>(b, TxnRequest::RequestLog, REPL_TIMEOUT)
                .await
            {
                let mut table = self.table.borrow_mut();
                for r in records {
                    table.install(r);
                }
            }
        }
        // 2. Resolve prepared transactions (Algorithm 2).
        let prepared = self
            .table
            .borrow()
            .records_where(|r| r.status == TxnStatus::Prepared);
        for record in prepared {
            let commit = if *record.participants == [self.cfg.shard] {
                // Single-shard: a prepared single-participant transaction
                // would have been committed by the coordinator.
                Some(true)
            } else {
                self.resolve_by_query(&record).await
            };
            // Unresolvable transactions stay prepared (2PC blocking); a
            // later CTP scan retries them.
            if let Some(commit) = commit {
                let mut table = self.table.borrow_mut();
                table.decide(record.txid, commit);
            }
        }
        // 3. Apply committed writes our backend does not yet hold
        //    (idempotent). Records applied before the failover are skipped
        //    via the table's applied set, so this is proportional to the
        //    merge delta, not to the whole committed history.
        let committed = {
            let table = self.table.borrow();
            table.records_where(|r| r.status == TxnStatus::Committed && !table.is_applied(r.txid))
        };
        for r in committed {
            let _ = self.apply_committed(&r).await;
        }
        // 4. Rebuild volatile key metadata from the merged table.
        self.table.borrow_mut().rebuild_key_meta();
        // 5. Push the merged table to the backups.
        let records = self.table.borrow().all_records();
        let _ = self
            .core
            .replicate(
                backups.clone(),
                TxnRequest::InstallLog { records },
                REPL_TIMEOUT * 4,
                |r: &TxnResponse| matches!(r, TxnResponse::Ack),
            )
            .await;
        // 6. Wait out the old primary's read lease: ts_latestRead is gone,
        //    and serving reads before the old lease expires could break
        //    serializability for already-committed read-only transactions.
        let mut max_granted = self.state.borrow().max_granted;
        for &b in &backups {
            if let Ok(TxnResponse::LeaseInfo { max_granted: g }) = self
                .core
                .rpc
                .call::<TxnRequest, TxnResponse>(b, TxnRequest::LeaseQuery, REPL_TIMEOUT)
                .await
            {
                max_granted = max_granted.max(g);
            }
        }
        let wait_until = max_granted + Duration::from_micros(1);
        if wait_until > self.core.handle.now() {
            self.core.handle.sleep_until(wait_until).await;
        }
        // 7. Open for business.
        self.state.borrow_mut().serving = true;
        self.spawn_primary_tasks();
    }

    /// Cold-restart recovery driver (spawned when `cfg.cold_start`): mount
    /// the flash backend, rehydrate the write-floor promises from the
    /// durable floor record, anti-entropy catch-up from the current
    /// primary, then open for business. The server answers `NotReady`
    /// throughout; in particular the fresh table's applied watermark stays
    /// at zero — the mounted durable floor is a *promise* about client
    /// clocks, never a completeness claim about local chains, so backup
    /// snapshot reads resume only once the live floor stream re-promises
    /// coverage after the catch-up splice.
    async fn cold_start(&self) {
        let reg = &self.cfg.tuning.obs.registry;
        self.recovery_step(obskit::RecoveryPhase::MountStart, 0);
        reg.counter("mount_scans").inc();
        let report = self.core.backend.mount().await;
        reg.counter("torn_pages").add(report.torn_pages);
        self.recovery_step(obskit::RecoveryPhase::MountDone, report.torn_pages);
        // The durable floor was only stamped once every client had
        // promised no future prepare at or below it; client clocks are
        // monotone, so the promise holds across the power failure. Without
        // this, a later promotion of this replica would run its floor
        // fence against an empty tracker and could accept a straggler
        // prepare below an `AppliedFloor` other backups already served
        // reads against.
        self.state.borrow_mut().floors.rehydrate(report.floor);
        if self.cfg.tuning.fraud.get() == Fraud::SkipDurability {
            // Fault-injection hook (`--inject durability-skip`): trust the
            // mounted state as-is — no anti-entropy, the stale durable
            // floor is adopted as the applied watermark, and the replica
            // splices itself blindly into the live floor stream (see
            // `accept_floor`) as if the gap never happened. Commits acked
            // while this replica was down are silently missing; the
            // campaign checkers must catch the fraud.
            self.advance_floor(Some(report.floor));
            let primary = self
                .map
                .borrow()
                .group_opt(self.cfg.shard)
                .map(|g| g.primary);
            if let Some(p) = primary {
                let floor = self.state.borrow_mut().floor.rebase(p.node, 0);
                self.advance_floor(floor);
            }
            let serving = {
                let mut st = self.state.borrow_mut();
                if !st.is_primary {
                    st.serving = true;
                }
                st.serving
            };
            if serving {
                self.recovery_step(obskit::RecoveryPhase::Serving, report.floor.as_nanos());
            }
            return;
        }
        self.catch_up().await;
        let floor = {
            let mut st = self.state.borrow_mut();
            if st.is_primary {
                // Promoted mid-recovery: `recover_as_primary` merged the
                // logs majority-wide (superseding this sweep) and owns the
                // `serving` flip.
                return;
            }
            st.serving = true;
            st.sendable_floor()
        };
        self.recovery_step(obskit::RecoveryPhase::Serving, floor.as_nanos());
    }

    fn recovery_step(&self, phase: obskit::RecoveryPhase, detail: u64) {
        self.trace(obskit::TraceEvent::RecoveryStep {
            node: self.cfg.addr.node.0 as u64,
            shard: self.cfg.shard.0 as u64,
            phase,
            detail,
        });
    }

    /// Anti-entropy catch-up: a cursored sweep of the current primary's
    /// transaction table, installing every record and applying committed
    /// writes this replica is missing (idempotent — the backend rejects
    /// duplicate versions). It runs after a cold restart, and whenever a
    /// backup's floor stream stops backing its chains (a lost envelope or a
    /// failed store write, see [`TxnServer::pull`]). The sweep walks the
    /// table in change order, so its final page has seen every record
    /// inserted or decided before that page was cut, whatever the live
    /// stream lost meanwhile; later changes ride envelopes at or after the
    /// final page's `floor_seq`. The stream is spliced there: the window
    /// (where floors wait while untrusted) is rebased at that seq and
    /// drains the floors that arrived since. The fetched floor itself never
    /// advances the applied watermark, because envelopes below the splice
    /// point may still be in flight with outcomes that floor claims to
    /// cover. A sweep in which a store write failed leaves the stream
    /// untrusted, so the watermark stops instead of claiming chains it
    /// cannot back.
    async fn catch_up(&self) {
        let keys_ctr = self.cfg.tuning.obs.registry.counter("catchup_keys");
        let limit = self.cfg.tuning.catchup_batch.max(1) as u64;
        let failures = self.stats.borrow().apply_failures;
        let mut cursor: Option<u64> = None;
        // The primary whose table the cursor walks: another one restarts
        // the sweep, its stamps being its own.
        let mut swept: Option<Addr> = None;
        let mut fetched = 0u64;
        loop {
            if self.state.borrow().is_primary {
                return;
            }
            let primary = self
                .map
                .borrow()
                .group_opt(self.cfg.shard)
                .map(|g| g.primary)
                .filter(|p| *p != self.cfg.addr && !self.core.handle.is_dead(p.node));
            if primary.is_some() && primary != swept {
                (cursor, swept) = (None, primary);
            }
            let page = match primary {
                Some(p) => {
                    let fetch = TxnRequest::CatchUpFetch { cursor, limit };
                    let rpc = &self.core.rpc;
                    rpc.call::<TxnRequest, TxnResponse>(p, fetch, REPL_TIMEOUT * 4)
                        .await
                }
                None => Err(simkit::rpc::RpcError::Timeout),
            };
            let (
                Some(primary),
                Ok(TxnResponse::CatchUpRecords {
                    records,
                    next,
                    floor_seq,
                    floor,
                }),
            ) = (primary, page)
            else {
                // No reachable primary right now (mid-failover, or a
                // migration destination before cutover), or it is
                // mid-promotion (NotReady), deposed or unreachable: wait
                // for the map to settle, re-resolve and retry.
                self.core.handle.sleep(REPL_TIMEOUT).await;
                continue;
            };
            for r in records {
                let applied = self.catchup_install(r).await;
                fetched += applied;
                keys_ctr.add(applied);
            }
            self.recovery_step(obskit::RecoveryPhase::CatchUp, fetched);
            if next.is_some() {
                cursor = next;
                continue;
            }
            let healed = self.stats.borrow().apply_failures == failures;
            let mut st = self.state.borrow_mut();
            if st.is_primary {
                return;
            }
            st.floors.rehydrate(floor);
            self.core.backend.note_floor(floor);
            // An `InstallLog` may have trusted a stream mid-sweep; keep it.
            if healed && st.floor.trusted.is_none() {
                let drained = st.floor.rebase(primary.node, floor_seq);
                drop(st);
                self.advance_floor(drained);
            }
            return;
        }
    }

    /// Installs one swept record, settling any outcome that raced ahead of
    /// it and applying committed writes not yet in the mounted backend.
    /// Returns the number of keys applied.
    async fn catchup_install(&self, r: TxnRecord) -> u64 {
        if r.status == TxnStatus::Prepared {
            self.backup_install_prepare(r).await;
            return 0;
        }
        let apply = r.status == TxnStatus::Committed && !self.table.borrow().is_applied(r.txid);
        self.table.borrow_mut().install(r.clone());
        if !apply {
            return 0;
        }
        let applied = self.apply_committed(&r).await;
        applied.map_or(0, |()| r.writes.len() as u64)
    }
}

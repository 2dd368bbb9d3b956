//! MILANA wire protocol: transactional storage requests, 2PC, replication
//! records, recovery, and lease management (§4).

use std::rc::Rc;

use flashsim::{Key, Value};
use semel::shard::ShardId;
use simkit::net::Addr;
use simkit::time::SimTime;
use timesync::{ClientId, Timestamp, Version};

/// Globally unique transaction identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnId {
    /// The coordinating client.
    pub client: ClientId,
    /// Client-local sequence number.
    pub seq: u64,
}

impl std::fmt::Display for TxnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}.{}", self.client.0, self.seq)
    }
}

/// Lifecycle of a transaction on a server (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnStatus {
    /// Validated and holding its write-set keys; outcome unknown.
    Prepared,
    /// Decided commit.
    Committed,
    /// Decided abort.
    Aborted,
}

/// A transaction-table record: what a primary persists (replicates) about a
/// prepared transaction so any failover can finish the job (§4.1, §4.5).
#[derive(Debug, Clone)]
pub struct TxnRecord {
    /// Transaction id.
    pub txid: TxnId,
    /// The client-assigned commit timestamp (its writes' version stamp).
    pub ts_commit: Timestamp,
    /// The writes this shard must apply on commit. Shared, not owned:
    /// a record is cloned at every replication, log-install, and catch-up
    /// hop, and the payload never mutates after prepare — one refcount
    /// bump instead of a fresh vector per hop.
    pub writes: Rc<[(Key, Value)]>,
    /// Every shard participating in the transaction (for recovery/CTP).
    /// Shared for the same reason as `writes`.
    pub participants: Rc<[ShardId]>,
    /// Current status.
    pub status: TxnStatus,
}

impl TxnRecord {
    /// The writes as storage records stamped with the commit version.
    pub fn stamped_writes(&self) -> Vec<(Key, Value, Version)> {
        let version = Version::new(self.ts_commit, self.txid.client);
        self.writes
            .iter()
            .map(|(k, v)| (k.clone(), v.clone(), version))
            .collect()
    }
}

/// Answer to a transaction status query (recovery and CTP, §4.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnQueryStatus {
    /// The queried shard saw a commit decision.
    Committed,
    /// The queried shard saw an abort decision.
    Aborted,
    /// Prepared locally, outcome unknown.
    Prepared,
    /// No record of the transaction.
    Unknown,
}

/// Requests understood by a MILANA shard server.
#[derive(Debug, Clone)]
pub enum TxnRequest {
    /// Transactional snapshot read at the transaction's begin timestamp;
    /// the reply carries the prepared-version flag for local validation.
    Get {
        /// The key.
        key: Key,
        /// The reading transaction's `ts_begin`.
        at: Timestamp,
        /// The reading client, so the clock-health tracker can attribute
        /// (and fence) far-future `ts_begin` values per client.
        client: ClientId,
    },
    /// Snapshot read served by **any** replica (§4.6's relaxation for
    /// read-write transactions). No prepared flag, no `ts_latestRead`
    /// tracking: the reader must validate remotely at commit.
    GetAny {
        /// The key.
        key: Key,
        /// The reading transaction's `ts_begin`.
        at: Timestamp,
    },
    /// Snapshot read addressed to a *specific* replica (readkit backup
    /// reads). A backup answers from its own version chains when its
    /// applied watermark covers `at`, piggybacking the prepared flag like
    /// a primary get; otherwise it replies [`TxnResponse::TooStale`] and
    /// the client falls back to the primary. A primary (or a backup that
    /// was promoted since the client routed) serves it as a plain `Get`.
    ReadAt {
        /// The key.
        key: Key,
        /// The reading transaction's `ts_begin`.
        at: Timestamp,
        /// The reading client, so the clock-health tracker can attribute
        /// (and fence) far-future `ts_begin` values per client.
        client: ClientId,
    },
    /// Primary → backups, appended to every replication envelope: "this
    /// stream has told you everything with a commit stamp below `ts`". A
    /// backup that has seen *every* envelope (contiguous `seq`) may raise
    /// its applied watermark to `ts`; on a gap it keeps applying data but
    /// freezes the watermark — a lost envelope may hold an outcome the
    /// floor claims to cover. `InstallLog` restarts the stream at seq 0.
    AppliedFloor {
        /// Position of this envelope in the primary's flush stream.
        seq: u64,
        /// The primary's client watermark at flush time.
        ts: Timestamp,
    },
    /// Primary → backups: an empty envelope payload whose only purpose is
    /// to carry the appended [`TxnRequest::AppliedFloor`] across idle
    /// periods (the `watermark_gossip_interval` task submits one).
    FloorSync,
    /// 2PC phase 1 (§4.2): validate and prepare.
    Prepare {
        /// Transaction id.
        txid: TxnId,
        /// Commit timestamp chosen by the client.
        ts_commit: Timestamp,
        /// `(key, version read)` pairs owned by this shard. Shared:
        /// the coordinator builds each set once and the prepare is
        /// re-enveloped (batch plane, retransmits) without deep copies.
        reads: Rc<[(Key, Version)]>,
        /// `(key, new value)` pairs owned by this shard (shared).
        writes: Rc<[(Key, Value)]>,
        /// All participant shards (passed for recovery, §4.5); one shared
        /// allocation across the whole fan-out.
        participants: Rc<[ShardId]>,
        /// The shard-map epoch the client routed with. A prepare touching
        /// mid-migration keys while carrying an epoch older than the
        /// server's shared map — i.e. routed from a view that predates the
        /// `Migrating` marker — is fenced with
        /// ([`AbortReason::StaleEpoch`]); fences for moved-away and
        /// post-`MigrationFence` keys are decided from the shared map
        /// alone (reads carry no epoch and are redirected the same way,
        /// via `Moved`). No two owners ever accept writes for the same
        /// key.
        epoch: u64,
    },
    /// 2PC phase 2: the coordinator's decision (fire-and-forget).
    Outcome {
        /// Transaction id.
        txid: TxnId,
        /// True to commit, false to abort.
        commit: bool,
    },
    /// Client watermark broadcast (§4.4): last *decided* transaction stamp.
    Watermark {
        /// Reporting client.
        client: ClientId,
        /// Its latest decided timestamp.
        ts: Timestamp,
    },
    /// Client → primary (readkit): write-floor promise. The client will
    /// never submit a prepare with `ts_commit <= ts` after this report —
    /// its clock is monotone and `ts` is capped below every still-unacked
    /// commit stamp. Unlike `Watermark`, active snapshot reads do *not*
    /// hold it back, so the min across clients tracks wall time closely
    /// and certifies backups to serve fresh snapshot reads.
    FloorReport {
        /// Reporting client.
        client: ClientId,
        /// No future prepare from `client` carries a stamp at or below.
        ts: Timestamp,
    },
    /// Primary → backup: replicate a prepare record.
    ReplPrepare(TxnRecord),
    /// Primary → backup: replicate an outcome.
    ReplOutcome {
        /// Transaction id.
        txid: TxnId,
        /// Decision.
        commit: bool,
    },
    /// Any participant → any primary: what happened to this transaction?
    QueryTxn {
        /// Transaction id.
        txid: TxnId,
    },
    /// New primary → replicas: send me your transaction log (§4.5).
    RequestLog,
    /// New primary → backups: install the merged table.
    InstallLog {
        /// Merged records.
        records: Vec<TxnRecord>,
    },
    /// Primary → backups: extend my read lease to `until` (§4.5).
    LeaseGrant {
        /// Requested lease expiry (true time).
        until: SimTime,
    },
    /// New primary → backups: what is the longest lease you ever granted?
    LeaseQuery,
    /// Master/harness → backup: take over as primary of your shard.
    Promote {
        /// The shard's remaining backups.
        backups: Vec<Addr>,
    },
    /// Rebalance engine → source/destination primary: a migration of the
    /// carried key range is underway. The source starts dual-applying
    /// committed writes on moving keys to the destination group; the
    /// destination starts accepting bulk-copy records.
    MigrationStart {
        /// Shard losing the keys.
        from: ShardId,
        /// Shard gaining the keys.
        to: ShardId,
        /// Map epoch of the migration (the epoch after the `Migrating`
        /// marker was installed).
        epoch: u64,
        /// Destination replica addresses (primary first) for dual-apply.
        dest: Vec<Addr>,
    },
    /// Bulk-copy plane: version-stamped records streamed to a destination
    /// replica. Stamps carry the order, so records may arrive in any order
    /// and be retransmitted freely (the backend rejects duplicates).
    MigrateRecords {
        /// `(key, value, version)` triples below the copy watermark.
        records: Vec<(Key, Value, Version)>,
    },
    /// Rebalance engine → source primary: stop voting SUCCESS on prepares
    /// that touch moving keys (fence them with `StaleEpoch`). Copy and
    /// dual-apply continue; this only freezes the *set* of undecided
    /// moving transactions so cutover can drain it.
    MigrationFence,
    /// Rebalance engine → source primary: how many prepared-but-undecided
    /// transactions still touch moving keys? Cutover waits for zero.
    MigrationDrain,
    /// Rebalance engine → source and destination primaries: the map has
    /// flipped. The source answers `Moved{epoch}` for moved keys (reads
    /// included) for one forwarding term; the destination — identified by
    /// `to` plus membership in its flipped map group — announces ownership
    /// of the range.
    MigrationCutover {
        /// Shard that now owns the moved keys.
        to: ShardId,
        /// Epoch after the flip.
        epoch: u64,
    },
    /// Rebalance engine → source primary: forwarding term is over; delete
    /// moved keys from local storage.
    MigrationGc,
    /// Cold-restarting replica → its shard's current primary: anti-entropy
    /// catch-up fetch. A cursored sweep of the primary's transaction table
    /// in [`TxnId`] order; `cursor` is exclusive (`None` starts at the
    /// beginning). Recovery-plane traffic: never batched into a
    /// group-commit envelope and never shed by admission control.
    CatchUpFetch {
        /// Resume after this transaction id (exclusive); `None` = start.
        cursor: Option<TxnId>,
        /// Maximum records per reply page.
        limit: u64,
    },
}

/// Replies from a MILANA shard server.
#[derive(Debug, Clone)]
pub enum TxnResponse {
    /// Read result: the youngest committed version at the read timestamp,
    /// plus whether a *prepared* version existed at or below it (§4.3).
    Value {
        /// Version stamp of the returned value.
        version: Version,
        /// Payload.
        value: Value,
        /// True if a prepared version with timestamp `<=` the read
        /// timestamp existed — poisons client-local validation.
        prepared: bool,
    },
    /// No visible version at the requested timestamp.
    NotFound,
    /// Single-version backend lost the snapshot to the carried version.
    SnapshotUnavailable(Version),
    /// Prepare vote.
    Vote {
        /// True = SUCCESS, false = ABORT.
        ok: bool,
    },
    /// Outcome/watermark/record acknowledged.
    Ack,
    /// Status answer for [`TxnRequest::QueryTxn`].
    Status(TxnQueryStatus),
    /// This replica's transaction log.
    Log {
        /// Records, unordered.
        records: Vec<TxnRecord>,
    },
    /// Lease granted until the carried instant.
    LeaseGranted {
        /// Expiry granted.
        until: SimTime,
    },
    /// The longest lease this backup ever granted.
    LeaseInfo {
        /// Maximum granted expiry (ZERO if none).
        max_granted: SimTime,
    },
    /// Promotion finished; the server now acts as primary.
    PromoteOk,
    /// Server cannot serve yet (mid-recovery or lease not yet valid).
    NotReady,
    /// The key is no longer served here: a rebalance cut it over to
    /// another shard at the carried map epoch. The client refetches the
    /// map and re-routes.
    Moved {
        /// Map epoch at which the key left this shard.
        epoch: u64,
    },
    /// Answer to [`TxnRequest::MigrationDrain`]: how many prepared
    /// transactions touching moving keys are still undecided.
    Drained {
        /// Undecided moving-key transactions still in the table.
        pending: u64,
    },
    /// Definite no-vote on a prepare fenced by a rebalance: the client's
    /// map epoch is behind the server's. Nothing was validated or
    /// installed; the client refetches the map and retries.
    StaleEpoch {
        /// The server's current map epoch.
        epoch: u64,
    },
    /// A backup declined a [`TxnRequest::ReadAt`] because its applied
    /// watermark does not cover the snapshot. The client records the
    /// watermark in its routing view and retries on the primary.
    TooStale {
        /// The replica's current applied watermark.
        watermark: Timestamp,
    },
    /// A backup-served [`TxnRequest::ReadAt`] answer: the inner read reply
    /// (`Value`/`NotFound`/`SnapshotUnavailable`) plus routing metadata the
    /// client feeds to its readkit [`readkit::ReplicaView`].
    FromReplica {
        /// The read result proper.
        reply: Box<TxnResponse>,
        /// The serving replica's applied watermark.
        watermark: Timestamp,
        /// The serving replica's admission queue depth (for
        /// power-of-two-choices routing).
        depth: u64,
    },
    /// One page of a [`TxnRequest::CatchUpFetch`] sweep.
    CatchUpRecords {
        /// Table records in [`TxnId`] order, after the cursor.
        records: Vec<TxnRecord>,
        /// Cursor for the next page; `None` when the sweep is complete.
        next: Option<TxnId>,
        /// The primary's floor-stream position (the `seq` its *next*
        /// `AppliedFloor` will carry) at reply time. On the final page the
        /// replica splices into the live stream here: lower seqs still in
        /// flight are duplicates of state the sweep already covered.
        floor_seq: u64,
        /// The primary's current client write-floor at reply time
        /// ([`timesync::Timestamp::ZERO`] when no client has promised yet).
        floor: Timestamp,
    },
    /// Definite no-vote on a prepare whose `ts_commit` the server's
    /// clock-health tracker judged inconsistent with its own clock (inside
    /// the uncertainty window or too far in the future), or whose client is
    /// fenced as a persistent clock outlier. Nothing was validated or
    /// installed.
    ClockSuspect,
    /// Storage out of space.
    Capacity,
    /// The server refused the request instead of doing the work (admission
    /// queue full or request deadline already expired). For a `Prepare`
    /// this is a definite no-vote: nothing was validated or installed, so
    /// the coordinator may abort safely.
    Shed(loadkit::Shed),
}

/// Client-visible transaction errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnError {
    /// The transaction aborted; retry with fresh reads.
    Aborted(AbortReason),
    /// A key had no visible version (application-level condition, not a
    /// concurrency conflict).
    KeyNotFound(Key),
    /// The shard primary could not be reached.
    Timeout,
    /// Operation on a transaction that already committed or aborted.
    Finished,
}

/// Why a transaction aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// A server vote rejected validation (Algorithm 1 conflict).
    Validation,
    /// Local validation saw a prepared version in the read set (§4.3).
    PreparedRead,
    /// A single-version backend lost the snapshot this transaction needed.
    SnapshotUnavailable,
    /// A participant could not be reached during 2PC; the coordinator
    /// resolved the uncertainty by aborting.
    ParticipantUnreachable,
    /// The application called [`crate::client::Txn::abort`].
    UserRequested,
    /// A participant shed the prepare under overload (or the client's retry
    /// budget / circuit breaker refused to keep trying). A shed prepare is
    /// a definite no-vote, so this abort is safe — no outcome uncertainty.
    Overloaded,
    /// The prepare routed with a shard map older than the server's: a
    /// rebalance moved (or is moving) one of the touched keys. A fenced
    /// prepare is a definite no-vote; the client refetches the map and
    /// retries under the new epoch.
    StaleEpoch,
    /// A server's clock-health tracker refused the prepare: `ts_commit`
    /// was inconsistent with the server's clock beyond the uncertainty
    /// bound ε, or the client is fenced as a persistent outlier. A
    /// definite no-vote; retrying helps only after the clock recovers.
    ClockSuspect,
}

impl AbortReason {
    /// The system-neutral observability class for this reason (the shared
    /// taxonomy exported by every system's stats).
    pub fn class(self) -> obskit::AbortClass {
        match self {
            AbortReason::Validation => obskit::AbortClass::Validation,
            AbortReason::PreparedRead => obskit::AbortClass::PreparedRead,
            AbortReason::SnapshotUnavailable => obskit::AbortClass::SnapshotUnavailable,
            AbortReason::ParticipantUnreachable => obskit::AbortClass::ParticipantUnreachable,
            AbortReason::UserRequested => obskit::AbortClass::UserRequested,
            AbortReason::Overloaded => obskit::AbortClass::Shed,
            AbortReason::StaleEpoch => obskit::AbortClass::StaleEpoch,
            AbortReason::ClockSuspect => obskit::AbortClass::ClockSuspect,
        }
    }
}

/// Why a failover promotion could not complete. Under fault injection a
/// promotion races crashes and partitions, so these are expected outcomes a
/// nemesis records and retries — not panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PromoteError {
    /// Every backup of the shard is dead; nothing can be promoted.
    NoLiveBackup,
    /// The chosen backup never answered the `Promote` RPC (it may have
    /// crashed mid-recovery or been partitioned from the master).
    Unreachable,
    /// The chosen address is not a current backup in the shard map (it
    /// raced a concurrent promotion).
    NotABackup,
}

impl PromoteError {
    /// The observability class a failed promotion maps onto: the
    /// coordinator-side effect is an unreachable participant.
    pub fn class(self) -> obskit::AbortClass {
        obskit::AbortClass::ParticipantUnreachable
    }
}

impl std::fmt::Display for PromoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PromoteError::NoLiveBackup => write!(f, "no live backup to promote"),
            PromoteError::Unreachable => write!(f, "promotion RPC got no answer"),
            PromoteError::NotABackup => write!(f, "address is not a current backup"),
        }
    }
}

impl std::error::Error for PromoteError {}

impl std::fmt::Display for AbortReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Render through the shared observability taxonomy so logs, traces,
        // and error strings all agree on the abort vocabulary.
        f.write_str(self.class().as_str())
    }
}

impl std::fmt::Display for TxnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxnError::Aborted(r) => write!(f, "transaction aborted ({r})"),
            TxnError::KeyNotFound(k) => write!(f, "key {k} not found"),
            TxnError::Timeout => write!(f, "shard primary unreachable"),
            TxnError::Finished => write!(f, "transaction already finished"),
        }
    }
}

impl std::error::Error for TxnError {}

//! A replica's role in its shard, and what each role refuses (DESIGN §14).
//!
//! A replica lives `Cold → Backup → Promoting → Primary`: a power-failed
//! replica mounts and catches up, a backup applies the replicated log, a
//! promotion runs Algorithm 2, and a primary validates and holds the read
//! lease (§4.5). [`Role::refuses`] is the one table of which requests a
//! role turns away; the server performs what the role allows. Pure: no
//! async code and no simulator handle.

use std::collections::BTreeMap;

use simkit::net::{Addr, NodeId};
use simkit::time::SimTime;
use timesync::{ClientId, Timestamp, WatermarkTracker};

use super::migration::MigrationState;
use crate::msg::{TxnId, TxnRequest, TxnResponse};

/// Most `AppliedFloor`s a backup parks behind a missing one. Reordered
/// envelopes leave a few; a hole that outlives this many later floors is
/// taken as a lost envelope, which the backup pulls with the catch-up sweep.
const FLOOR_AHEAD_MAX: usize = 64;

/// How a replica is spawned, which fixes its first [`Role`].
#[derive(Debug, Clone)]
pub enum Start {
    /// The shard's primary at cluster build.
    Primary {
        /// The shard's backups.
        backups: Vec<Addr>,
    },
    /// A backup at cluster build: it trusts the `AppliedFloor` stream of
    /// `primary` from birth.
    Backup {
        /// The node of the shard's primary.
        primary: NodeId,
    },
    /// A backup restarted after a crash that kept its DRAM: it missed an
    /// unknown stretch of the floor stream, so it trusts no stream and
    /// pulls with the catch-up sweep, whose splice trusts it again.
    Warm,
    /// A replica back from a *power failure*: its DRAM, transaction table
    /// included, is gone and only flash survived. It answers `NotReady`
    /// while it mounts the backend (rebuilding the mapping table and
    /// discarding torn pages), rehydrates the write-floor promises from
    /// the durable floor record and catches up from the current primary.
    /// Pass a fresh, empty transaction table with it.
    Cold,
}

impl Start {
    /// The role a replica spawned this way starts in, and its window on
    /// the floor stream.
    pub(super) fn role(&self) -> (Role, SeqWindow) {
        let (role, trusted) = match self {
            Start::Primary { backups } => {
                let p = PrimaryState {
                    backups: backups.clone(),
                    ..PrimaryState::default()
                };
                (Role::Primary(p), None)
            }
            Start::Backup { primary } => (Role::Backup, Some(*primary)),
            Start::Warm => (Role::Backup, None),
            Start::Cold => (Role::Cold, None),
        };
        let window = SeqWindow {
            trusted,
            ..SeqWindow::default()
        };
        (role, window)
    }
}

/// Where a replica is in its life cycle.
pub(super) enum Role {
    /// Mounting and catching up after a power failure.
    Cold,
    /// Applying the primary's replicated log and serving snapshot reads
    /// its applied watermark covers.
    Backup,
    /// Merging logs and waiting out the old lease (Algorithm 2).
    Promoting(PrimaryState),
    /// Validating prepares and serving reads under its lease.
    Primary(PrimaryState),
}

/// What a replica was when a promotion started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Was {
    /// Cold: its log is lost, and its catch-up sweep stopped.
    Cold,
    /// A backup.
    Backup,
    /// A primary, serving or promoting (a master retry).
    Primary,
}

/// What only a primary holds. A promotion builds it.
#[derive(Default)]
pub(super) struct PrimaryState {
    /// The shard's backups.
    pub(super) backups: Vec<Addr>,
    /// The read lease is valid until this true-time instant.
    pub(super) lease_until: SimTime,
    /// Sequence number of the next `AppliedFloor` appended to a
    /// replication envelope.
    pub(super) floor_seq: u64,
    /// Per-client watermark reports received since the last replication
    /// flush, relayed to backups by piggybacking on the next batched
    /// envelope (a `BTreeMap` so the piggyback order, and hence the run, is
    /// deterministic).
    pub(super) wm_relay: BTreeMap<ClientId, Timestamp>,
    /// Source-side migration state (`None` when no rebalance touches this
    /// shard).
    pub(super) migration: Option<MigrationState>,
    /// Prepares whose replication is still in flight. A retransmitted
    /// Prepare for one of these must NOT be answered from the table: the
    /// record is installed before replication completes, and an early
    /// `Vote{ok}` would acknowledge a prepare that may yet fail
    /// replication and abort — the coordinator could then commit a
    /// transaction recorded on no backup, which a primary crash erases. A
    /// prepare whose round failed stays here until its abort is durable.
    pub(super) replicating: perfkit::FastSet<TxnId>,
}

impl Role {
    /// True for a primary, serving or promoting.
    pub(super) fn is_primary(&self) -> bool {
        matches!(self, Role::Promoting(_) | Role::Primary(_))
    }

    /// True once the replica answers requests.
    pub(super) fn is_serving(&self) -> bool {
        matches!(self, Role::Backup | Role::Primary(_))
    }

    /// A primary's own state, serving or promoting.
    pub(super) fn primary(&self) -> Option<&PrimaryState> {
        match self {
            Role::Promoting(p) | Role::Primary(p) => Some(p),
            Role::Cold | Role::Backup => None,
        }
    }

    /// [`Role::primary`], mutably.
    pub(super) fn primary_mut(&mut self) -> Option<&mut PrimaryState> {
        match self {
            Role::Promoting(p) | Role::Primary(p) => Some(p),
            Role::Cold | Role::Backup => None,
        }
    }

    /// True while a primary's prepare of `txid` replicates its record or
    /// its abort: that prepare alone decides the transaction.
    pub(super) fn replicating(&self, txid: TxnId) -> bool {
        self.primary()
            .is_some_and(|p| p.replicating.contains(&txid))
    }

    /// A source primary's migration state.
    pub(super) fn migration(&self) -> Option<&MigrationState> {
        self.primary()?.migration.as_ref()
    }

    /// Starts a promotion replicating to `backups`, with a fresh floor
    /// stream from seq 0: a backup the promotion sweeps pulls from the new
    /// primary once it opens and splices in where its last catch-up page
    /// says. A replica already primary (a master retry) keeps its lease,
    /// relay, migration and in-flight prepares. Returns what the replica
    /// was: only a primary's loops are running already.
    pub(super) fn promote(&mut self, backups: Vec<Addr>) -> Was {
        let (mut p, was) = match std::mem::replace(self, Role::Cold) {
            Role::Promoting(p) | Role::Primary(p) => (p, Was::Primary),
            Role::Cold => (PrimaryState::default(), Was::Cold),
            Role::Backup => (PrimaryState::default(), Was::Backup),
        };
        p.backups = backups;
        p.floor_seq = 0;
        *self = Role::Promoting(p);
        was
    }

    /// A promotion's last step: the primary opens for business (again,
    /// when a retried promotion finishes after the first).
    pub(super) fn open(&mut self) {
        *self = match std::mem::replace(self, Role::Cold) {
            Role::Promoting(p) | Role::Primary(p) => Role::Primary(p),
            Role::Cold | Role::Backup => unreachable!("nothing demotes a promoting replica"),
        };
    }

    /// A promotion that reached no majority's logs gives up: the replica
    /// is what it `was` again, and a primary it retried reopens.
    pub(super) fn give_up(&mut self, was: Was) {
        match was {
            Was::Cold => *self = Role::Cold,
            Was::Backup => *self = Role::Backup,
            Was::Primary => self.open(),
        }
    }

    /// A cold replica that has recovered serves as a backup.
    pub(super) fn serve_as_backup(&mut self) {
        if let Role::Cold = self {
            *self = Role::Backup;
        }
    }

    /// The reply a replica in this role gives `req` before doing any work,
    /// or `None` when it handles it. A snapshot read needs a serving
    /// replica; validation and the catch-up sweep's pages need a serving
    /// primary (a promoting one answers `NotReady`, and the client or the
    /// sweeping replica retries). A promotion's log pages come from
    /// replicas that are not primaries: a primary's log is not a backup's,
    /// and a peer promoting too must not count toward a majority (a cold
    /// one answers that its log is lost). A promotion needs a replica not
    /// promoting already. Every other request is answered in every role:
    /// replication, leases, recovery and migration traffic are how a
    /// replica gets to serve, and [`ServerState::follows`] fences a
    /// deposed primary's.
    pub(super) fn refuses(&self, req: &TxnRequest) -> Option<TxnResponse> {
        let refused = match req {
            TxnRequest::ReadAt { .. } => !self.is_serving(),
            TxnRequest::Prepare { .. } | TxnRequest::CatchUpFetch { .. } => {
                !matches!(self, Role::Primary(_))
            }
            TxnRequest::RequestLog { .. } => self.is_primary(),
            TxnRequest::Promote { .. } => matches!(self, Role::Promoting(_)),
            TxnRequest::AppliedFloor { .. }
            | TxnRequest::FloorSync
            | TxnRequest::Outcome { .. }
            | TxnRequest::Watermark { .. }
            | TxnRequest::FloorReport { .. }
            | TxnRequest::ReplPrepare(_)
            | TxnRequest::ReplOutcome { .. }
            | TxnRequest::QueryTxn { .. }
            | TxnRequest::LeaseGrant { .. }
            | TxnRequest::MigrationStart { .. }
            | TxnRequest::MigrateRecords { .. }
            | TxnRequest::MigrationFence
            | TxnRequest::MigrationDrain
            | TxnRequest::MigrationCutover { .. }
            | TxnRequest::MigrationGc => false,
        };
        refused.then_some(TxnResponse::NotReady)
    }
}

/// A replica's volatile state. Its role holds what only a primary needs;
/// the rest a backup and a promoting replica share.
pub(super) struct ServerState {
    pub(super) role: Role,
    /// Write-floor promises (readkit): per-client "no future prepare at or
    /// below" reports. Unlike the core's GC watermarks, active snapshots do not
    /// hold these back, so the min tracks wall time closely — it is the
    /// `AppliedFloor` a primary streams to its backups, certifying them to
    /// serve snapshot reads.
    pub(super) floors: WatermarkTracker,
    /// As backup: the latest lease expiry we ever granted.
    pub(super) max_granted: SimTime,
    /// As backup: the primary it follows, whose lease grants and
    /// replication it takes (any sender's while `None`). Set by the first
    /// lease grant and by a promoter's first log page.
    pub(super) known_primary: Option<Addr>,
    /// Outcomes that arrived before their prepare record (backup side).
    pub(super) pending_outcomes: perfkit::FastMap<TxnId, bool>,
    /// Backup: the primary's `AppliedFloor` stream, the one input that
    /// moves the applied watermark.
    pub(super) floor: SeqWindow,
    /// Latched by the first `MigrationCutover` this replica processes, so
    /// engine retries cannot re-emit ownership trace events.
    pub(super) cutover_seen: bool,
}

impl ServerState {
    /// True when `node` may hold this replica's lease grants and replicate
    /// to it: a primary follows no one, and a backup follows the primary
    /// it last granted a lease or whose promotion swept it. So a primary
    /// deposed by a promotion makes nothing durable on a swept backup.
    pub(super) fn follows(&self, node: NodeId) -> bool {
        !self.role.is_primary() && self.known_primary.is_none_or(|p| p.node == node)
    }

    /// The write floor as it goes on the wire: an empty tracker reports
    /// MAX, which is sent as ZERO (a no-op floor) so `seq` stays contiguous.
    pub(super) fn sendable_floor(&self) -> Timestamp {
        let floor = self.floors.watermark();
        if floor == Timestamp::MAX {
            Timestamp::ZERO
        } else {
            floor
        }
    }
}

/// A backup's window on its primary's `AppliedFloor` stream (DESIGN §14).
/// A floor advances the applied watermark only once every earlier `seq`
/// from the same sender has, so the watermark claims complete chains. One
/// window serves the live floors and the catch-up splice, after a restart,
/// a lost envelope or a promotion alike; a hole is either filled, or pulled
/// by the catch-up sweep once it outlives [`FLOOR_AHEAD_MAX`] later floors.
#[derive(Default)]
pub(super) struct SeqWindow {
    /// The node whose stream advances the watermark. `None` while the
    /// stream does not back the local chains: after a restart, mid
    /// catch-up sweep, after a lost envelope or a failed store write, and
    /// from a promoter's first log page until the sweep that follows.
    /// Floors from another node (a deposed primary still flushing) are
    /// ignored while a stream is trusted.
    pub(super) trusted: Option<NodeId>,
    /// The next `seq` that may advance the watermark.
    pub(super) next: u64,
    /// Floors that arrived ahead of `next` (their envelopes overtook an
    /// earlier one, or no stream is trusted), by sender and `seq`, so two
    /// streams never mix. At most [`FLOOR_AHEAD_MAX`] wait.
    ahead: BTreeMap<(NodeId, u64), Timestamp>,
}

impl SeqWindow {
    /// Takes floor `seq` from `from` and returns the floor to advance the
    /// watermark to, if it made the stream contiguous further. An overflow
    /// of a trusted window distrusts it: the hole is a lost envelope.
    pub(super) fn offer(&mut self, from: NodeId, seq: u64, ts: Timestamp) -> Option<Timestamp> {
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
    pub(super) fn rebase(&mut self, from: NodeId, next: u64) -> Option<Timestamp> {
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

#[cfg(test)]
mod tests;

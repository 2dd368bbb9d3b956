//! Structured trace events with virtual timestamps, recorded into a
//! bounded ring buffer and exported as JSON lines.
//!
//! Tracing is **off by default** ([`Tracer::disabled`] is `Default`) so the
//! hot path pays one branch; harnesses that want event dumps construct the
//! cluster with an enabled tracer. When the ring fills, the oldest events
//! are dropped and counted — the export records how many, so a truncated
//! trace is never mistaken for a complete one.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use crate::abort::AbortClass;
use crate::json::Json;

/// The kind of flash operation a device performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlashOpKind {
    /// Page read.
    Read,
    /// Page program.
    Write,
    /// Block erase.
    Erase,
}

impl FlashOpKind {
    /// Stable machine-readable name.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            FlashOpKind::Read => "read",
            FlashOpKind::Write => "write",
            FlashOpKind::Erase => "erase",
        }
    }
}

/// Why a server refused to do work (the loadkit shed taxonomy, mirrored
/// here so the trace schema stays dependency-free).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The admission queue was at capacity.
    Overloaded,
    /// The request's deadline had already expired on arrival.
    DeadlineExceeded,
}

impl ShedReason {
    /// Stable machine-readable name.
    pub fn as_str(self) -> &'static str {
        match self {
            ShedReason::Overloaded => "overloaded",
            ShedReason::DeadlineExceeded => "deadline_exceeded",
        }
    }
}

/// Why a batcher flushed its pending items (the batchkit flush taxonomy,
/// mirrored here so the trace schema stays dependency-free).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// The batch reached its size cap (`batch_max`).
    Size,
    /// The flush deadline expired first (`batch_deadline`).
    Deadline,
    /// An explicit kick (shutdown, test harness).
    Manual,
}

impl FlushReason {
    /// Stable machine-readable name.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            FlushReason::Size => "size",
            FlushReason::Deadline => "deadline",
            FlushReason::Manual => "manual",
        }
    }
}

/// A shard-migration phase (the shardkit state machine, mirrored here so
/// the trace schema stays dependency-free).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationPhase {
    /// Destination group provisioned, epoch bumped, map marked migrating.
    Prepare,
    /// Bulk copy of version-stamped records below the frozen watermark.
    Copy,
    /// Writes at or above the watermark dual-applied at source and dest.
    CatchUp,
    /// Map flipped; source fences moved keys and serves forwarding stubs.
    Cutover,
    /// Source garbage-collected the moved keys.
    Done,
}

impl MigrationPhase {
    /// Stable machine-readable name.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            MigrationPhase::Prepare => "prepare",
            MigrationPhase::Copy => "copy",
            MigrationPhase::CatchUp => "catch_up",
            MigrationPhase::Cutover => "cutover",
            MigrationPhase::Done => "done",
        }
    }
}

/// A cold-restart recovery phase (the steps of a MILANA replica's cold
/// restart, mirrored here so the trace schema stays dependency-free).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPhase {
    /// Power failed: volatile state lost, in-flight programs torn.
    PowerFail,
    /// Mount scan over the durable medium started.
    MountStart,
    /// Mount scan finished; mapping table and floor recovered.
    MountDone,
    /// Anti-entropy catch-up from the current primary is running.
    CatchUp,
    /// Replica is caught up and serving again.
    Serving,
}

impl RecoveryPhase {
    /// Stable machine-readable name.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            RecoveryPhase::PowerFail => "power_fail",
            RecoveryPhase::MountStart => "mount_start",
            RecoveryPhase::MountDone => "mount_done",
            RecoveryPhase::CatchUp => "catch_up",
            RecoveryPhase::Serving => "serving",
        }
    }
}

/// One structured event. Identities are plain integers so `obskit` stays
/// dependency-free: transaction ids are `(client, seq)` pairs, nodes and
/// shards are their numeric ids, and keys are reported as their `u64` id
/// (or a hash where no id exists).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A client began a transaction at `ts_begin`.
    TxnBegin {
        /// Coordinating client id.
        client: u64,
        /// Transaction begin timestamp (client clock, ns).
        ts_begin: u64,
    },
    /// A transactional read was served.
    TxnRead {
        /// Coordinating client id.
        client: u64,
        /// The key read.
        key: u64,
        /// True when the visible version carried the prepared flag.
        prepared: bool,
        /// Commit timestamp of the version observed (ns).
        ver_ts: u64,
        /// Client id of the writer that installed the observed version.
        ver_client: u64,
    },
    /// A buffered write declared just before 2PC prepare fan-out, with the
    /// commit stamp it is prepared at. `(ts_commit, client)` names the
    /// version it would install, so a history checker finds the exact
    /// producer of every version read, whatever the transaction's outcome.
    TxnWrite {
        /// Coordinating client id.
        client: u64,
        /// The key written.
        key: u64,
        /// The transaction's commit stamp (client clock, ns).
        ts_commit: u64,
    },
    /// A read-only transaction was decided by client-local validation.
    ValidateLocal {
        /// Coordinating client id.
        client: u64,
        /// True = committed, false = aborted (prepared version seen).
        ok: bool,
    },
    /// A transaction entered remote validation (2PC prepare fan-out).
    ValidateRemote {
        /// Coordinating client id.
        client: u64,
        /// Number of participant shards.
        participants: u64,
    },
    /// One participant's prepare vote.
    PrepareVote {
        /// Shard that voted.
        shard: u64,
        /// True = yes vote.
        ok: bool,
    },
    /// A transaction committed.
    Commit {
        /// Coordinating client id.
        client: u64,
        /// Commit timestamp (ns); begin timestamp for read-only commits.
        ts_commit: u64,
        /// True when decided locally (no server round trips).
        local: bool,
    },
    /// A transaction attempt aborted.
    Abort {
        /// Coordinating client id.
        client: u64,
        /// Normalized abort reason.
        reason: AbortClass,
    },
    /// A replica acknowledged a replicated record.
    ReplicaAck {
        /// Acknowledging node id.
        node: u64,
        /// Replication sequence number acknowledged.
        seq: u64,
    },
    /// A garbage-collection pass ran.
    GcRun {
        /// Node the GC ran on.
        node: u64,
        /// Versions reclaimed by this pass.
        reclaimed: u64,
    },
    /// A flash device executed an operation.
    FlashOp {
        /// Device node id.
        node: u64,
        /// Operation kind.
        op: FlashOpKind,
    },
    /// A client clock resynchronized.
    ClockSync {
        /// Clock owner (client id).
        client: u64,
        /// New offset from true time, ns.
        offset_ns: i64,
    },
    /// A server's clock-health tracker flagged a client's prepare timestamp
    /// as inconsistent with its own clock (and possibly fenced the client).
    ClockFence {
        /// The suspected client id.
        client: u64,
        /// Observed timestamp-vs-arrival residual, ns.
        residual_ns: i64,
        /// The uncertainty bound ε the residual was judged against, ns.
        epsilon_ns: u64,
        /// Whether the client is now fenced (persistent outlier).
        fenced: bool,
    },
    /// A server refused a request instead of doing the work.
    Shed {
        /// Shedding node id.
        node: u64,
        /// Why the request was refused.
        reason: ShedReason,
    },
    /// An admission queue's in-flight cost reached a new high-water mark
    /// (emitted on advance and on shed, not per admit, to bound volume).
    QueueDepth {
        /// Owning node id.
        node: u64,
        /// In-flight admitted cost at the sample point.
        cost: u64,
        /// Configured cost capacity.
        capacity: u64,
    },
    /// A client wanted to retry but its retry budget was empty.
    RetryBudgetExhausted {
        /// Coordinating client id.
        client: u64,
    },
    /// A batcher flushed its accumulated items in one envelope.
    BatchFlush {
        /// Node the batcher runs on.
        node: u64,
        /// Items coalesced into the envelope.
        size: u64,
        /// What triggered the flush.
        reason: FlushReason,
    },
    /// The master promoted a backup to primary after a missed heartbeat.
    MasterFailover {
        /// The shard that failed over.
        shard: u64,
        /// Node id of the newly promoted primary.
        new_primary: u64,
        /// Map epoch after the promotion.
        epoch: u64,
    },
    /// The master installed a new shard map (rebalance, not failover).
    MapInstall {
        /// Map epoch after the install.
        epoch: u64,
        /// Number of shards in the installed map.
        shards: u64,
    },
    /// A shard migration entered a new phase.
    MigrationStep {
        /// Rebalance plan id.
        plan: u64,
        /// The phase entered.
        phase: MigrationPhase,
        /// Source shard id.
        from: u64,
        /// Destination shard id.
        to: u64,
        /// Map epoch when the phase was entered.
        epoch: u64,
    },
    /// A batch of version-stamped records was copied to the destination.
    MigrationCopy {
        /// Rebalance plan id.
        plan: u64,
        /// Records in the batch.
        records: u64,
        /// Payload bytes in the batch (keys + values).
        bytes: u64,
    },
    /// A node asserted ownership of a shard at an epoch (primary serving).
    ShardOwned {
        /// The shard.
        shard: u64,
        /// Map epoch of the claim.
        epoch: u64,
        /// Claiming node id.
        owner: u64,
    },
    /// A node released ownership of a shard (fenced / cut over).
    ShardReleased {
        /// The shard.
        shard: u64,
        /// Map epoch at release time.
        epoch: u64,
        /// Releasing node id.
        owner: u64,
    },
    /// A snapshot read was served by a *backup* replica (readkit). The
    /// carried watermark is the replica's applied watermark at serve
    /// time; the checker's `stale_backup_read` invariant requires
    /// `watermark >= ts_begin` on every such event.
    ReadServed {
        /// Serving replica's node id.
        replica: u64,
        /// The replica's applied watermark (ns).
        watermark: u64,
        /// The snapshot timestamp served (ns).
        ts_begin: u64,
    },
    /// A cold-restarting replica entered a recovery phase. `detail` is
    /// phase-specific: torn pages for `mount_done`, keys fetched for
    /// `catch_up`, the recovered floor (ns) for `serving`, else 0.
    RecoveryStep {
        /// Recovering replica's node id.
        node: u64,
        /// Shard the replica belongs to.
        shard: u64,
        /// The phase entered.
        phase: RecoveryPhase,
        /// Phase-specific detail value (see above).
        detail: u64,
    },
}

impl TraceEvent {
    /// Stable event-type name (the `"ev"` JSON field).
    pub(crate) fn name(&self) -> &'static str {
        match self {
            TraceEvent::TxnBegin { .. } => "txn_begin",
            TraceEvent::TxnRead { .. } => "txn_read",
            TraceEvent::TxnWrite { .. } => "txn_write",
            TraceEvent::ValidateLocal { .. } => "validate_local",
            TraceEvent::ValidateRemote { .. } => "validate_remote",
            TraceEvent::PrepareVote { .. } => "prepare_vote",
            TraceEvent::Commit { .. } => "commit",
            TraceEvent::Abort { .. } => "abort",
            TraceEvent::ReplicaAck { .. } => "replica_ack",
            TraceEvent::GcRun { .. } => "gc_run",
            TraceEvent::FlashOp { .. } => "flash_op",
            TraceEvent::ClockSync { .. } => "clock_sync",
            TraceEvent::ClockFence { .. } => "clock_fence",
            TraceEvent::Shed { .. } => "shed",
            TraceEvent::QueueDepth { .. } => "queue_depth",
            TraceEvent::RetryBudgetExhausted { .. } => "retry_budget_exhausted",
            TraceEvent::BatchFlush { .. } => "batch_flush",
            TraceEvent::MasterFailover { .. } => "master_failover",
            TraceEvent::MapInstall { .. } => "map_install",
            TraceEvent::MigrationStep { .. } => "migration_step",
            TraceEvent::MigrationCopy { .. } => "migration_copy",
            TraceEvent::ShardOwned { .. } => "shard_owned",
            TraceEvent::ShardReleased { .. } => "shard_released",
            TraceEvent::ReadServed { .. } => "read_served",
            TraceEvent::RecoveryStep { .. } => "recovery_step",
        }
    }

    fn fields(&self, doc: Json) -> Json {
        match *self {
            TraceEvent::TxnBegin { client, ts_begin } => doc
                .field("client", Json::U64(client))
                .field("ts_begin", Json::U64(ts_begin)),
            TraceEvent::TxnRead {
                client,
                key,
                prepared,
                ver_ts,
                ver_client,
            } => doc
                .field("client", Json::U64(client))
                .field("key", Json::U64(key))
                .field("prepared", Json::Bool(prepared))
                .field("ver_ts", Json::U64(ver_ts))
                .field("ver_client", Json::U64(ver_client)),
            TraceEvent::TxnWrite {
                client,
                key,
                ts_commit,
            } => doc
                .field("client", Json::U64(client))
                .field("key", Json::U64(key))
                .field("ts_commit", Json::U64(ts_commit)),
            TraceEvent::ValidateLocal { client, ok } => doc
                .field("client", Json::U64(client))
                .field("ok", Json::Bool(ok)),
            TraceEvent::ValidateRemote {
                client,
                participants,
            } => doc
                .field("client", Json::U64(client))
                .field("participants", Json::U64(participants)),
            TraceEvent::PrepareVote { shard, ok } => doc
                .field("shard", Json::U64(shard))
                .field("ok", Json::Bool(ok)),
            TraceEvent::Commit {
                client,
                ts_commit,
                local,
            } => doc
                .field("client", Json::U64(client))
                .field("ts_commit", Json::U64(ts_commit))
                .field("local", Json::Bool(local)),
            TraceEvent::Abort { client, reason } => doc
                .field("client", Json::U64(client))
                .field("reason", Json::str(reason.as_str())),
            TraceEvent::ReplicaAck { node, seq } => doc
                .field("node", Json::U64(node))
                .field("seq", Json::U64(seq)),
            TraceEvent::GcRun { node, reclaimed } => doc
                .field("node", Json::U64(node))
                .field("reclaimed", Json::U64(reclaimed)),
            TraceEvent::FlashOp { node, op } => doc
                .field("node", Json::U64(node))
                .field("op", Json::str(op.as_str())),
            TraceEvent::ClockSync { client, offset_ns } => doc
                .field("client", Json::U64(client))
                .field("offset_ns", Json::I64(offset_ns)),
            TraceEvent::ClockFence {
                client,
                residual_ns,
                epsilon_ns,
                fenced,
            } => doc
                .field("client", Json::U64(client))
                .field("residual_ns", Json::I64(residual_ns))
                .field("epsilon_ns", Json::U64(epsilon_ns))
                .field("fenced", Json::Bool(fenced)),
            TraceEvent::Shed { node, reason } => doc
                .field("node", Json::U64(node))
                .field("reason", Json::str(reason.as_str())),
            TraceEvent::QueueDepth {
                node,
                cost,
                capacity,
            } => doc
                .field("node", Json::U64(node))
                .field("cost", Json::U64(cost))
                .field("capacity", Json::U64(capacity)),
            TraceEvent::RetryBudgetExhausted { client } => doc.field("client", Json::U64(client)),
            TraceEvent::BatchFlush { node, size, reason } => doc
                .field("node", Json::U64(node))
                .field("size", Json::U64(size))
                .field("reason", Json::str(reason.as_str())),
            TraceEvent::MasterFailover {
                shard,
                new_primary,
                epoch,
            } => doc
                .field("shard", Json::U64(shard))
                .field("new_primary", Json::U64(new_primary))
                .field("epoch", Json::U64(epoch)),
            TraceEvent::MapInstall { epoch, shards } => doc
                .field("epoch", Json::U64(epoch))
                .field("shards", Json::U64(shards)),
            TraceEvent::MigrationStep {
                plan,
                phase,
                from,
                to,
                epoch,
            } => doc
                .field("plan", Json::U64(plan))
                .field("phase", Json::str(phase.as_str()))
                .field("from", Json::U64(from))
                .field("to", Json::U64(to))
                .field("epoch", Json::U64(epoch)),
            TraceEvent::MigrationCopy {
                plan,
                records,
                bytes,
            } => doc
                .field("plan", Json::U64(plan))
                .field("records", Json::U64(records))
                .field("bytes", Json::U64(bytes)),
            TraceEvent::ShardOwned {
                shard,
                epoch,
                owner,
            } => doc
                .field("shard", Json::U64(shard))
                .field("epoch", Json::U64(epoch))
                .field("owner", Json::U64(owner)),
            TraceEvent::ShardReleased {
                shard,
                epoch,
                owner,
            } => doc
                .field("shard", Json::U64(shard))
                .field("epoch", Json::U64(epoch))
                .field("owner", Json::U64(owner)),
            TraceEvent::ReadServed {
                replica,
                watermark,
                ts_begin,
            } => doc
                .field("replica", Json::U64(replica))
                .field("watermark", Json::U64(watermark))
                .field("ts_begin", Json::U64(ts_begin)),
            TraceEvent::RecoveryStep {
                node,
                shard,
                phase,
                detail,
            } => doc
                .field("node", Json::U64(node))
                .field("shard", Json::U64(shard))
                .field("phase", Json::str(phase.as_str()))
                .field("detail", Json::U64(detail)),
        }
    }

    /// The event as a JSON object with its virtual timestamp.
    pub fn to_json(&self, at_ns: u64) -> Json {
        self.fields(
            Json::obj()
                .field("at_ns", Json::U64(at_ns))
                .field("ev", Json::str(self.name())),
        )
    }
}

#[derive(Debug, Default)]
struct Ring {
    events: VecDeque<(u64, TraceEvent)>,
    capacity: usize,
    dropped: u64,
}

/// A shared handle to the trace ring buffer. Cloning shares the buffer;
/// the disabled tracer records nothing at near-zero cost.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    ring: Option<Rc<RefCell<Ring>>>,
}

impl Tracer {
    /// A tracer that records nothing (the `Default`).
    pub fn disabled() -> Tracer {
        Tracer { ring: None }
    }

    /// A tracer recording into a ring of at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn bounded(capacity: usize) -> Tracer {
        assert!(capacity > 0, "trace ring needs capacity");
        Tracer {
            ring: Some(Rc::new(RefCell::new(Ring {
                events: VecDeque::with_capacity(capacity.min(4096)),
                capacity,
                dropped: 0,
            }))),
        }
    }

    /// Records `event` at virtual time `at_ns`. No-op when disabled.
    pub fn record(&self, at_ns: u64, event: TraceEvent) {
        let Some(ring) = &self.ring else { return };
        let mut r = ring.borrow_mut();
        if r.events.len() == r.capacity {
            r.events.pop_front();
            r.dropped += 1;
        }
        r.events.push_back((at_ns, event));
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.ring.as_ref().map_or(0, |r| r.borrow().events.len())
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.ring.as_ref().map_or(0, |r| r.borrow().dropped)
    }

    /// Events of a given type currently buffered.
    pub fn count_of(&self, name: &str) -> usize {
        self.ring.as_ref().map_or(0, |r| {
            r.borrow()
                .events
                .iter()
                .filter(|(_, e)| e.name() == name)
                .count()
        })
    }

    /// A snapshot of the buffered events, oldest first, each paired with
    /// its virtual timestamp. Used by history checkers that consume the
    /// trace structurally instead of via JSONL.
    pub fn events(&self) -> Vec<(u64, TraceEvent)> {
        self.ring
            .as_ref()
            .map_or_else(Vec::new, |r| r.borrow().events.iter().cloned().collect())
    }

    /// The buffered events as JSON lines (one compact object per line,
    /// oldest first), preceded by a header line recording capacity and
    /// drop count. Byte-stable across same-seed runs.
    pub fn dump_jsonl(&self) -> String {
        let mut out = String::new();
        let Some(ring) = &self.ring else { return out };
        let r = ring.borrow();
        Json::obj()
            .field("ev", Json::str("trace_header"))
            .field("capacity", Json::U64(r.capacity as u64))
            .field("dropped", Json::U64(r.dropped))
            .field("buffered", Json::U64(r.events.len() as u64))
            .write(&mut out);
        out.push('\n');
        for (at_ns, ev) in &r.events {
            ev.to_json(*at_ns).write(&mut out);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_a_noop() {
        let t = Tracer::disabled();
        t.record(
            5,
            TraceEvent::GcRun {
                node: 1,
                reclaimed: 2,
            },
        );
        assert_eq!(t.len(), 0);
        assert_eq!(t.dump_jsonl(), "");
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let t = Tracer::bounded(2);
        for i in 0..5u64 {
            t.record(i, TraceEvent::PrepareVote { shard: i, ok: true });
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        let dump = t.dump_jsonl();
        assert!(dump.contains(r#""dropped":3"#));
        // Only the two newest survive.
        assert!(dump.contains(r#""shard":3"#) && dump.contains(r#""shard":4"#));
        assert!(!dump.contains(r#""shard":2"#));
    }

    #[test]
    fn jsonl_lines_are_valid_objects_in_order() {
        let t = Tracer::bounded(16);
        t.record(
            10,
            TraceEvent::TxnBegin {
                client: 1,
                ts_begin: 10,
            },
        );
        t.record(
            20,
            TraceEvent::Abort {
                client: 1,
                reason: AbortClass::Validation,
            },
        );
        let dump = t.dump_jsonl();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[1],
            r#"{"at_ns":10,"ev":"txn_begin","client":1,"ts_begin":10}"#
        );
        assert_eq!(
            lines[2],
            r#"{"at_ns":20,"ev":"abort","client":1,"reason":"validation"}"#
        );
    }

    #[test]
    fn every_event_kind_serializes() {
        let t = Tracer::bounded(32);
        let evs = [
            TraceEvent::TxnBegin {
                client: 1,
                ts_begin: 2,
            },
            TraceEvent::TxnRead {
                client: 1,
                key: 3,
                prepared: false,
                ver_ts: 5,
                ver_client: 2,
            },
            TraceEvent::TxnWrite {
                client: 1,
                key: 3,
                ts_commit: 9,
            },
            TraceEvent::ValidateLocal {
                client: 1,
                ok: true,
            },
            TraceEvent::ValidateRemote {
                client: 1,
                participants: 2,
            },
            TraceEvent::PrepareVote {
                shard: 0,
                ok: false,
            },
            TraceEvent::Commit {
                client: 1,
                ts_commit: 9,
                local: false,
            },
            TraceEvent::Abort {
                client: 1,
                reason: AbortClass::PreparedRead,
            },
            TraceEvent::ReplicaAck { node: 4, seq: 7 },
            TraceEvent::GcRun {
                node: 4,
                reclaimed: 11,
            },
            TraceEvent::FlashOp {
                node: 4,
                op: FlashOpKind::Erase,
            },
            TraceEvent::ClockSync {
                client: 1,
                offset_ns: -250,
            },
            TraceEvent::ClockFence {
                client: 1,
                residual_ns: 2_000_000,
                epsilon_ns: 500_000,
                fenced: true,
            },
            TraceEvent::Shed {
                node: 4,
                reason: ShedReason::Overloaded,
            },
            TraceEvent::QueueDepth {
                node: 4,
                cost: 12,
                capacity: 16,
            },
            TraceEvent::RetryBudgetExhausted { client: 1 },
            TraceEvent::BatchFlush {
                node: 4,
                size: 8,
                reason: FlushReason::Deadline,
            },
            TraceEvent::MasterFailover {
                shard: 0,
                new_primary: 2,
                epoch: 1,
            },
            TraceEvent::MapInstall {
                epoch: 2,
                shards: 3,
            },
            TraceEvent::MigrationStep {
                plan: 1,
                phase: MigrationPhase::Copy,
                from: 0,
                to: 2,
                epoch: 2,
            },
            TraceEvent::MigrationCopy {
                plan: 1,
                records: 64,
                bytes: 4096,
            },
            TraceEvent::ShardOwned {
                shard: 2,
                epoch: 3,
                owner: 9,
            },
            TraceEvent::ShardReleased {
                shard: 0,
                epoch: 3,
                owner: 0,
            },
            TraceEvent::ReadServed {
                replica: 5,
                watermark: 40,
                ts_begin: 30,
            },
            TraceEvent::RecoveryStep {
                node: 5,
                shard: 1,
                phase: RecoveryPhase::MountDone,
                detail: 2,
            },
        ];
        let n = evs.len();
        for (i, ev) in evs.into_iter().enumerate() {
            t.record(i as u64, ev);
        }
        let dump = t.dump_jsonl();
        assert_eq!(dump.lines().count(), n + 1);
        for name in [
            "txn_begin",
            "txn_read",
            "txn_write",
            "validate_local",
            "validate_remote",
            "prepare_vote",
            "commit",
            "abort",
            "replica_ack",
            "gc_run",
            "flash_op",
            "clock_sync",
            "clock_fence",
            "shed",
            "queue_depth",
            "retry_budget_exhausted",
            "batch_flush",
            "master_failover",
            "map_install",
            "migration_step",
            "migration_copy",
            "shard_owned",
            "shard_released",
            "read_served",
            "recovery_step",
        ] {
            assert!(dump.contains(&format!(r#""ev":"{name}""#)), "{name}");
            assert_eq!(t.count_of(name), 1, "{name}");
        }
        assert!(dump.contains(r#""ev":"txn_write","client":1,"key":3,"ts_commit":9}"#));
    }
}

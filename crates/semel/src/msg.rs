//! SEMEL wire protocol and client-visible errors.

use flashsim::{Key, Value};
use timesync::{ClientId, Timestamp, Version};

/// Requests understood by a SEMEL shard server.
#[derive(Debug, Clone)]
pub enum SemelRequest {
    /// Snapshot read: youngest version with timestamp `<= at`.
    Get {
        /// The key to read.
        key: Key,
        /// Snapshot timestamp (the client's `t_current`, or a transaction's
        /// begin timestamp).
        at: Timestamp,
    },
    /// Timestamped write (client-assigned version).
    Put {
        /// The key to write.
        key: Key,
        /// The payload.
        value: Value,
        /// Client-assigned version stamp.
        version: Version,
    },
    /// Delete all versions of a key.
    Delete {
        /// The key to delete.
        key: Key,
    },
    /// Periodic client watermark broadcast (§3.1): the timestamp of the
    /// client's last acknowledged operation.
    Watermark {
        /// Reporting client.
        client: ClientId,
        /// Its progress timestamp.
        ts: Timestamp,
    },
    /// Primary → backup replication record (inconsistent replication, §3.2).
    /// `seq` is `None` in SEMEL's relaxed mode; the ordered-replication
    /// ablation tags records with a per-primary sequence number that
    /// backups must apply (and acknowledge) in order.
    Record {
        /// Sequence number for the ordered-replication ablation.
        seq: Option<u64>,
        /// The record to apply.
        rec: ReplicaRecord,
    },
}

/// Replicated operations; applied by backups in arrival order — version
/// stamps carry the real order.
#[derive(Debug, Clone)]
pub enum ReplicaRecord {
    /// A timestamped write.
    Write {
        /// The key.
        key: Key,
        /// The payload.
        value: Value,
        /// Version stamp from the original client write.
        version: Version,
    },
    /// A key deletion.
    Delete {
        /// The key.
        key: Key,
    },
}

/// Replies from a SEMEL shard server.
#[derive(Debug, Clone)]
pub enum SemelResponse {
    /// A successful read.
    Value {
        /// Version stamp of the returned value.
        version: Version,
        /// The payload.
        value: Value,
        /// True if a *prepared* (uncommitted) version existed with timestamp
        /// `<=` the read timestamp — the flag MILANA's local validation
        /// consumes (§4.3). Always false on a plain SEMEL server.
        prepared: bool,
    },
    /// No visible version at the requested timestamp.
    NotFound,
    /// Single-version backend lost the requested snapshot (overwritten by
    /// the carried version).
    SnapshotUnavailable(Version),
    /// Write accepted, durable, and replicated to a majority.
    PutOk,
    /// Write rejected: older than the key's current version (carried).
    Rejected(Version),
    /// Delete completed.
    Deleted,
    /// Replication record applied (backup ack).
    RecordOk,
    /// The primary could not reach a replication majority.
    NoMajority,
    /// Storage out of space.
    Capacity,
    /// The server refused the request instead of doing the work (admission
    /// queue full or request deadline already expired). Nothing was read
    /// or written; the client may retry within its budget.
    Shed(loadkit::Shed),
    /// The key is no longer served here: a rebalance cut it over to
    /// another shard at the carried map epoch. The client re-reads the
    /// map and re-routes.
    Moved {
        /// Map epoch at which the key left this shard.
        epoch: u64,
    },
}

/// Errors surfaced by the SEMEL client library.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SemelError {
    /// No reply from the shard primary within the timeout budget.
    Timeout,
    /// Write lost a timestamp race and exhausted its retries; carries the
    /// winning version.
    Rejected(Version),
    /// No visible version of the key.
    NotFound,
    /// Snapshot read on a single-version store lost to the carried version.
    SnapshotUnavailable(Version),
    /// Storage out of space.
    Capacity,
    /// The primary could not replicate to a majority.
    NoMajority,
    /// The server shed the request (overload or expired deadline) and the
    /// client's retry budget or circuit breaker refused further attempts.
    Overloaded,
}

impl SemelError {}

impl std::fmt::Display for SemelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SemelError::Timeout => write!(f, "request timed out"),
            SemelError::Rejected(v) => write!(f, "write rejected; current version {v}"),
            SemelError::NotFound => write!(f, "key not found"),
            SemelError::SnapshotUnavailable(v) => {
                write!(f, "snapshot unavailable; overwritten by {v}")
            }
            SemelError::Capacity => write!(f, "storage capacity exhausted"),
            SemelError::NoMajority => write!(f, "replication majority unavailable"),
            SemelError::Overloaded => write!(f, "request shed under overload"),
        }
    }
}

impl std::error::Error for SemelError {}

//! # semel — a replicated multi-version key-value store on precision time
//!
//! SEMEL (§3 of *Enabling Lightweight Transactions with Precision Time*,
//! ASPLOS'17) is a sharded, replicated, durable key-value store whose entire
//! ordering story is **client-assigned precision timestamps**:
//!
//! - every write carries a version `V = (timestamp, client_id)`; versions
//!   totally order all writes to a key, and the store keeps a *chain* of
//!   versions per key (multi-version storage is nearly free on flash);
//! - reads are snapshot reads: "the youngest version with timestamp ≤ t";
//! - replication is **inconsistent** primary/backup (§3.2): the primary
//!   streams records to backups in any order and acks after `f` of `2f`
//!   backup acks — version stamps, not arrival order, reconstruct history;
//! - at-most-once RPC semantics fall out of timestamp comparison (§3.3):
//!   stale writes are rejected, duplicate writes re-acknowledged;
//! - a client **watermark** (minimum last-acknowledged timestamp) bounds
//!   how much history garbage collection must retain (§3.1).
//!
//! The crate provides the wire protocol ([`msg`]), consistent-hash sharding
//! ([`shard`]), quorum replication ([`replicate`]), the replica core
//! ([`replica`]) and the shard server on top of it ([`server`]), the client
//! core and client library ([`client`]), the global master with heartbeat
//! failure detection and automatic failover ([`master`]), and a cluster
//! harness ([`cluster`]). The transactional layer MILANA is built *on* these
//! pieces in the `milana` crate: its server contains
//! [`replica::ReplicaCore`], its client [`client::ClientCore`], and its
//! cluster boots through [`cluster`].

#![warn(missing_docs)]

pub mod client;
pub mod cluster;
pub mod master;
pub mod msg;
pub mod replica;
pub mod replicate;
pub mod server;
pub mod shard;

pub use client::SemelClient;
pub use cluster::{ClusterConfig, SemelCluster};
pub use msg::{SemelError, SemelRequest, SemelResponse};
pub use replica::ReplicaCore;
pub use server::{ServerConfig, ShardServer};
pub use shard::{ReplicaGroup, ShardId, ShardMap};

use std::time::Duration;

/// Budget for one client RPC to a replica: SEMEL's client, MILANA's and
/// Centiman's transaction clients, and the resharding copy plane.
pub const RPC_TIMEOUT: Duration = Duration::from_millis(50);

/// Budget for one replication RPC to a backup. Shorter than
/// [`RPC_TIMEOUT`], so a primary that loses its backup majority answers
/// `NoMajority` before the client gives up on it. MILANA's heartbeats,
/// lease renewal, outcome queries, recovery and catch-up reuse it (some
/// scaled).
pub const REPL_TIMEOUT: Duration = Duration::from_millis(25);

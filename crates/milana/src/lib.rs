//! # milana — lightweight transactions on precision time
//!
//! MILANA (§4 of *Enabling Lightweight Transactions with Precision Time*,
//! ASPLOS'17) layers serializable ACID transactions over the SEMEL
//! multi-version store using client-side optimistic concurrency control:
//!
//! - each transaction runs on one client, which assigns its `ts_begin` /
//!   `ts_commit` from the local PTP-disciplined clock and coordinates 2PC;
//! - reads are **snapshot reads at `ts_begin`** against SEMEL's version
//!   chains, so readers never block writers and vice versa;
//! - write validation (Algorithm 1) runs **only on each shard's primary**,
//!   not on all replicas — backups just store records for fault tolerance;
//! - **read-only transactions commit at the client** with zero validation
//!   round trips (§4.3), powered by the prepared-version flag piggybacked on
//!   every get and the primary's `ts_latestRead` guard;
//! - prepare/outcome records replicate in any order (§3.2 / Figure 5);
//!   failover merges replica logs (Algorithm 2), resolves in-doubt
//!   transactions via participant queries / cooperative termination, and
//!   waits out read leases before serving again (§4.5).
//!
//! The [`centiman`] module implements the watermark-based local-validation
//! baseline the paper compares against in §5.3 (Figure 9).
//!
//! # Examples
//!
//! ```
//! use milana::cluster::{MilanaCluster, MilanaClusterConfig};
//! use flashsim::{value, Key};
//! use simkit::Sim;
//!
//! let mut sim = Sim::new(7);
//! let handle = sim.handle();
//! let cluster = MilanaCluster::build(&handle, MilanaClusterConfig {
//!     preload_keys: 10,
//!     ..MilanaClusterConfig::default()
//! });
//! sim.block_on(async move {
//!     let client = &cluster.clients[0];
//!     let mut txn = client.begin_with(milana::TxnOpts::default());
//!     let _ = txn.get(&Key::from(1u64)).await?;
//!     txn.put(Key::from(2u64), value(&b"updated"[..]));
//!     txn.commit().await?;
//!     Ok::<(), milana::msg::TxnError>(())
//! }).unwrap();
//! ```

#![warn(missing_docs)]

pub mod centiman;
pub mod client;
pub mod cluster;
pub mod msg;
pub mod server;
pub mod table;

#[cfg(test)]
mod tests;

pub use client::{CommitInfo, Txn, TxnClient, TxnClientConfig, TxnMode, TxnOpts, ValidationMode};
pub use cluster::{MilanaCluster, MilanaClusterConfig};
pub use msg::{AbortReason, PromoteError, TxnError, TxnId, TxnRequest, TxnResponse};
pub use server::{Fraud, ServerTuning, TxnServer, TxnServerConfig};

/// One-stop imports for driving a MILANA cluster: the client handle and
/// its begin/validation options, the cluster harness, the error type, and
/// the clock profile used to configure client clocks — without reaching
/// into simulator internals.
pub mod prelude {
    pub use crate::client::{
        CommitInfo, Txn, TxnClient, TxnClientConfig, TxnMode, TxnOpts, ValidationMode,
    };
    pub use crate::cluster::{MilanaCluster, MilanaClusterConfig};
    pub use crate::msg::{AbortReason, TxnError};
    pub use timesync::{ClockSpec, Discipline};
}

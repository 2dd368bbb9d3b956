//! Deterministic fault-injection campaigns and a serializability history
//! checker for the MILANA stack.
//!
//! The crate has five layers:
//!
//! - [`plan`]: a seeded, declarative schedule of faults ([`FaultPlan`]) —
//!   crashes, partitions, network degradation (drop / duplicate / delay
//!   spikes), clock faults (steps, persistent drift, holdover jumps), and
//!   flash media faults — with a generator that
//!   only produces *survivable* schedules (every partition heals, every
//!   crash leaves a quorum).
//! - [`nemesis`]: a task on the simulation executor that walks a plan
//!   against a running [`milana::MilanaCluster`], driving failover and
//!   restarts, and records what it actually did.
//! - [`history`]: rebuilds the committed transaction history from an
//!   [`obskit::Tracer`] dump and checks serializability (conflict-graph
//!   cycle detection), snapshot-read consistency, and the no-lost-ack
//!   replication invariant.
//! - [`campaign`]: runs N seeds × M faults of a counter workload under the
//!   nemesis, audits conservation invariants, runs the checker, and emits
//!   byte-stable JSON summaries (the engine of `repro chaos`).
//! - [`rebalance`]: phase-targeted campaigns against live shard migration
//!   (crash/partition in every `shardkit` phase), audited for conservation
//!   and single-owner-per-epoch via the history checker.
//!
//! Both campaign families drive the same counter workload and audit (the
//! private `counter` module).
//!
//! Everything is deterministic: the same seed replays the same fault
//! schedule, the same message drops, and the same checker verdicts.

#![warn(missing_docs)]

pub mod campaign;
mod counter;
pub mod history;
pub mod nemesis;
pub mod plan;
pub mod rebalance;

pub use campaign::{run_campaign, run_seed_with_trace, CampaignConfig, CampaignReport};
pub use history::{Checker, History};
pub use nemesis::run_nemesis;
pub use plan::{Fault, FaultPlan, PlanKind, TimedFault};
pub use rebalance::{run_rebalance_campaign, RebalanceCampaignConfig, RebalanceCampaignReport};

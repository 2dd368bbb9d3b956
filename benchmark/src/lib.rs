//! Two-clock benchmark for the MILANA reproduction.
//!
//! *Virtual time* is the modelled system (commit latency, goodput, abort
//! rate under PTP clocks); *host time* is the simulator on this machine.
//! The benchmark reports both, per workload, and a per-layer ledger from a
//! separate traced run. See `README.md` beside this crate.

pub mod calib;
pub mod compare;
pub mod counters;
pub mod drive;
pub mod gen;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod probes;
pub mod report;
pub mod runone;
pub mod spans;
pub mod stats;
pub mod workloads;

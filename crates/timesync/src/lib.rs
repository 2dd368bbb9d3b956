//! # timesync — precision-time models for SEMEL/MILANA
//!
//! The paper's core premise is that IEEE 1588 PTP gives servers in one data
//! center sub-microsecond clock agreement, while NTP leaves millisecond-scale
//! skew — and that this difference decides whether optimistic concurrency
//! control over fast storage aborts rarely or often (§2.1, Figure 1).
//!
//! This crate provides:
//!
//! - [`Timestamp`] / [`Version`] — the `(timestamp, client_id)` version
//!   stamps SEMEL orders all writes by (§3);
//! - [`Discipline`] — calibrated skew models (`Perfect`, `PtpHardware`,
//!   `PtpSoftware`, `Ntp`) matching the magnitudes measured in §5.2;
//! - [`ClockSpec`] — a discipline plus fault knobs (drift rate), the single
//!   clock selection carried through cluster configs;
//! - [`SyncedClock`] — a per-client clock that maps *true* simulation time to
//!   that client's skewed-but-monotonic local time, with fault hooks for
//!   steps, persistent drift and holdover;
//! - [`WatermarkTracker`] — the watermark lower bound on client clocks used
//!   for garbage collection (§3.1, §4.4).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod clock;
pub mod spec;
pub mod version;
pub mod watermark;

pub use clock::{Discipline, SyncedClock};
pub use spec::ClockSpec;
pub use version::{ClientId, Timestamp, Version};
pub use watermark::WatermarkTracker;

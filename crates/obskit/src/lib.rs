//! # obskit — deterministic observability for the MILANA reproduction
//!
//! The paper's evaluation (§5) lives or dies on *explaining* aborts and
//! latency: which clock discipline, which validation path, which flash
//! operation produced each outcome. `obskit` is the single instrumentation
//! substrate every layer of the stack shares:
//!
//! - [`registry`] — a hierarchical **metric registry** of counters, gauges,
//!   and HDR histograms with cheap cloneable handles, usable from simulated
//!   single-threaded tasks (`Rc`-based, not atomics: the simulation is
//!   deterministic and single-threaded by design);
//! - [`hist`] — the log-linear histogram;
//! - [`trace`] — **structured trace events** with virtual timestamps
//!   (txn lifecycle, replica acks, GC, flash ops, clock syncs) recorded
//!   into a bounded ring buffer;
//! - [`abort`] — the **abort-reason taxonomy** shared by MILANA, Centiman,
//!   and SEMEL, with per-class breakdown counters;
//! - [`series`] — throughput time-series over fixed virtual-time windows;
//! - [`json`] — a dependency-free JSON writer whose output is **byte-stable
//!   across same-seed runs** (ordered keys, shortest-roundtrip floats, no
//!   wall-clock anywhere);
//! - [`stats`] — [`stats::TxnStats`], the workload-level bundle the Retwis
//!   driver and every experiment harness record into.
//!
//! Everything here is deliberately free of dependencies (including on
//! `simkit`): virtual timestamps are plain nanosecond integers, so the
//! crate sits at the bottom of the workspace and every layer above can
//! report into it.
//!
//! # Examples
//!
//! ```
//! use obskit::registry::Registry;
//!
//! let reg = Registry::new();
//! let commits = reg.counter("milana.client.commits");
//! let lat = reg.histogram("milana.client.latency_ns");
//! commits.inc();
//! lat.record(12_345);
//! let json = reg.snapshot().to_string();
//! assert!(json.contains("\"milana.client.commits\":1"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod abort;
pub mod hist;
pub mod json;
pub mod registry;
pub mod series;
pub mod stats;
pub mod trace;

pub use abort::{AbortBreakdown, AbortClass};
pub use hist::Histogram;
pub use json::Json;
pub use registry::{Counter, Gauge, HistogramHandle, Registry};
pub use stats::{FrozenTxnStats, TxnStats};
pub use trace::{
    FlashOpKind, FlushReason, MigrationPhase, RecoveryPhase, ShedReason, TraceEvent, Tracer,
};

/// The observability bundle a component is handed: a metric registry plus a
/// trace sink. Cloning shares both (handles are `Rc`-backed).
///
/// Configs embed an `Obs` with `Default` (metrics on, tracing off) so
/// existing `..Default::default()` construction keeps working; harnesses
/// that want traces call [`Obs::with_trace`].
#[derive(Debug, Clone, Default)]
pub struct Obs {
    /// Metric registry (always enabled; counters are a `Cell` bump).
    pub registry: Registry,
    /// Trace sink (disabled unless constructed with [`Obs::with_trace`]).
    pub tracer: Tracer,
}

impl Obs {
    /// Metrics enabled, tracing disabled.
    pub fn new() -> Obs {
        Obs::default()
    }

    /// Metrics enabled, tracing into a ring buffer of `capacity` events.
    pub fn with_trace(capacity: usize) -> Obs {
        Obs {
            registry: Registry::new(),
            tracer: Tracer::bounded(capacity),
        }
    }
}

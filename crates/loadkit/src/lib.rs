//! # loadkit — deterministic overload control for the MILANA reproduction
//!
//! The paper evaluates MILANA/SEMEL at saturation (§5, Figs. 6–9), where
//! abort–retry loops multiply offered load. Without admission control a
//! retry storm past the knee collapses goodput metastably instead of
//! degrading it. `loadkit` is the overload-control layer threaded through
//! the whole RPC plane:
//!
//! - [`shed`] — the [`shed::Shed`] refusal type servers reply with instead
//!   of silently queueing work they cannot finish;
//! - [`admission`] — cost-aware bounded admission ([`admission::Admission`]):
//!   each in-flight request holds a [`admission::Permit`] of its cost
//!   (prepares weigh more than reads) and work beyond the configured
//!   capacity is refused with `Shed::Overloaded { retry_after }`;
//! - [`retry`] — the client side ([`retry::RetryPolicy`]): exponential
//!   backoff with decorrelated jitter drawn from a seeded RNG, a retry
//!   *budget* capping retries at a fixed fraction of first-attempt
//!   traffic, and a per-shard circuit breaker that trips on consecutive
//!   sheds and half-opens after a cooldown.
//!
//! Deadlines ride in the RPC envelope itself (`simkit::rpc::Deadline`);
//! loadkit stays below simkit in the dependency order — all time here is
//! plain nanosecond integers and `Duration`s, all randomness an explicitly
//! seeded `StdRng` — so every decision is deterministic per seed and
//! observable through `obskit` metrics and trace events.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod admission;
pub mod retry;
pub mod shed;

pub use admission::{Admission, AdmissionConfig, Permit};
pub use retry::{BreakerState, RetryPolicy};
pub use shed::Shed;

//! # simkit — deterministic discrete-event simulation runtime
//!
//! `simkit` is the substrate under the SEMEL/MILANA reproduction: a
//! single-threaded async executor over **virtual time**, plus the pieces a
//! simulated distributed system needs:
//!
//! - [`Sim`] / [`SimHandle`] — executor, virtual clock, task spawning with
//!   per-node ownership (so killing a node aborts its tasks);
//! - [`net`] — a message network with latency distributions, node kill /
//!   revive, and partitions;
//! - [`rpc`] — typed request/response with timeouts on top of [`net`];
//! - [`sync`] — oneshot / mpsc channels and a fair semaphore;
//! - [`rng`] — seeded distribution samplers (normal, exponential, Zipf).
//!
//! Virtual time advances only when no task is runnable, so a fifteen-minute
//! experiment takes however long its events take to process — and two runs
//! with the same seed produce byte-identical results.
//!
//! # Examples
//!
//! ```
//! use simkit::{Sim, net::{Addr, NodeId}};
//! use std::time::Duration;
//!
//! let mut sim = Sim::new(7);
//! let h = sim.handle();
//! let got = sim.block_on(async move {
//!     let mailbox = h.bind(Addr::new(NodeId(1), 0));
//!     h.send(Addr::new(NodeId(0), 0), mailbox.addr(), "hello");
//!     let pkt = mailbox.recv().await.unwrap();
//!     *pkt.payload.downcast::<&str>().unwrap()
//! });
//! assert_eq!(got, "hello");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod executor;
pub mod net;
pub mod rng;
pub mod rpc;
pub mod sync;
pub mod time;

pub use executor::{Elapsed, JoinHandle, Sim, SimHandle};
pub use time::SimTime;

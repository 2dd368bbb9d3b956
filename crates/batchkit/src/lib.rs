//! # batchkit — deterministic size-or-deadline batching
//!
//! The paper's precision-time design removes ordering work from the hot
//! path (version stamps make delivery order irrelevant, SEMEL §3.2), but
//! the reproduction still paid a full RPC per replicated write and one
//! Prepare envelope per shard per transaction. `batchkit` is the shared
//! coalescing plane: a [`Batcher`] accumulates homogeneous items and
//! flushes them as one unit when either `batch_max` items are pending or
//! `batch_deadline` has elapsed since the first pending item — whichever
//! comes first.
//!
//! The default deadline is zero: a batch flushes in a task queued when
//! its first item arrives, so it carries what was submitted at that
//! instant and no item waits for peers. A window of 100 µs held nearly
//! every commit-path item alone for the whole window at the benchmark's
//! loads (1.02 coordinator items, 1.09 replication records per
//! envelope); a window opened at the last flush recovered most of that
//! and a zero deadline all of it, with faster read-write commits on every
//! workload. Experiments that study coalescing set a deadline.
//!
//! Everything is driven by `simkit` virtual timers, so batching is fully
//! deterministic: the same seed produces the same flush boundaries, batch
//! sizes, and registry snapshots, byte for byte.
//!
//! ## Design notes
//!
//! - The flush callback receives the drained items and a [`Complete`]
//!   that takes one result per item, **in item order**, whenever the
//!   callback's work is done — at once, or from a reply callback.
//!   [`Batcher::submit`] resolves to that item's result; arity mismatches
//!   (or a `Complete` dropped unused) resolve waiters to `None` (the same
//!   contract as an RPC timeout, so callers already handle it).
//! - The deadline is a `simkit` callback owned by the batcher's node
//!   ([`SimHandle::call_at`]), so it dies with the node: a killed primary
//!   cannot leak a flush into its next incarnation. When it fires it runs
//!   the flush itself, with no task. A size or manual flush happens inside
//!   a submitter's task, so it spawns one task for the flush, where the
//!   callback would otherwise run ahead of tasks already ready; so does a
//!   deadline that is already due when armed.
//! - Per-batch observability: a `batchkit.<name>.batch_size` histogram
//!   plus `flush_size` / `flush_deadline` / `flush_manual` counters, and a
//!   [`TraceEvent::BatchFlush`] event when tracing is on.
//!
//! # Examples
//!
//! ```
//! use batchkit::{BatchConfig, Batcher};
//! use simkit::{net::NodeId, Sim};
//! use std::time::Duration;
//!
//! let mut sim = Sim::new(7);
//! let h = sim.handle();
//! let batcher: Batcher<u32, u32> = Batcher::callback(
//!     &h,
//!     NodeId(0),
//!     "doubler",
//!     BatchConfig { batch_max: 2, batch_deadline: Duration::from_micros(100) },
//!     obskit::Obs::new(),
//!     |items, done| done.complete(items.into_iter().map(|x| x * 2).collect()),
//! );
//! let b = batcher.clone();
//! let got = sim.block_on(async move {
//!     let a = b.submit(1);
//!     let c = b.submit(2); // second item hits batch_max: size flush
//!     (a.await, c.await)
//! });
//! assert_eq!(got, (Some(2), Some(4)));
//! ```

#![warn(missing_docs)]

use std::cell::RefCell;
use std::future::Future;
use std::rc::Rc;
use std::time::Duration;

use obskit::registry::{Counter, HistogramHandle};
use obskit::trace::FlushReason;
use obskit::{Obs, TraceEvent};
use simkit::net::NodeId;
use simkit::sync::oneshot;
use simkit::SimHandle;

/// Knobs for one [`Batcher`]: flush at `batch_max` pending items or
/// `batch_deadline` after the first pending item, whichever comes first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Flush as soon as this many items are pending. `1` disables
    /// coalescing: every submit flushes immediately (the unbatched
    /// baseline, used by the regression tests).
    pub batch_max: usize,
    /// Flush this long after the first item of a batch arrived, even if
    /// the batch is not full. Bounds the latency a batched item can pay
    /// for waiting on peers; zero (the default) flushes at the instant the
    /// first item arrived, with every item submitted at that instant.
    pub batch_deadline: Duration,
}

impl Default for BatchConfig {
    /// Up to 8 items, no deadline wait (see the crate docs).
    fn default() -> BatchConfig {
        BatchConfig {
            batch_max: 8,
            batch_deadline: Duration::ZERO,
        }
    }
}

impl BatchConfig {
    /// A config that never coalesces: each item flushes on submit.
    pub fn unbatched() -> BatchConfig {
        BatchConfig {
            batch_max: 1,
            batch_deadline: Duration::ZERO,
        }
    }
}

type FlushFn<T, R> = Rc<dyn Fn(Vec<T>, Complete<R>)>;

/// The waiters of one flushed batch, handed to the flush callback.
/// [`Complete::complete`] gives them their results; dropping it unused
/// resolves every waiter to `None`.
pub struct Complete<R> {
    waiters: Vec<Option<oneshot::Sender<R>>>,
}

impl<R> Complete<R> {
    /// Resolves the batch's waiters with `results`, one per item in item
    /// order. A short vector resolves the tail's waiters to `None`.
    pub fn complete(self, results: Vec<R>) {
        for (r, tx) in results.into_iter().zip(self.waiters) {
            if let Some(tx) = tx {
                let _ = tx.send(r);
            }
        }
    }
}

impl<R> std::fmt::Debug for Complete<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Complete")
            .field("items", &self.waiters.len())
            .finish()
    }
}

struct Pending<T, R> {
    items: Vec<(T, Option<oneshot::Sender<R>>)>,
    /// Bumped on every flush; the deadline timer only fires the epoch it
    /// was armed for, so a size flush cancels the pending timer logically.
    epoch: u64,
}

struct Shared<T, R> {
    handle: SimHandle,
    node: NodeId,
    cfg: BatchConfig,
    flush: FlushFn<T, R>,
    pending: RefCell<Pending<T, R>>,
    obs: Obs,
    batch_size: HistogramHandle,
    flush_size: Counter,
    flush_deadline: Counter,
    flush_manual: Counter,
}

/// A deterministic size-or-deadline accumulator.
///
/// Cloning is cheap and shares the pending queue; a batcher is typically
/// cloned into every task that submits to it.
pub struct Batcher<T, R> {
    shared: Rc<Shared<T, R>>,
}

impl<T, R> Clone for Batcher<T, R> {
    fn clone(&self) -> Batcher<T, R> {
        Batcher {
            shared: Rc::clone(&self.shared),
        }
    }
}

impl<T, R> std::fmt::Debug for Batcher<T, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Batcher")
            .field("node", &self.shared.node)
            .field("cfg", &self.shared.cfg)
            .field("pending", &self.shared.pending.borrow().items.len())
            .finish()
    }
}

impl<T: 'static, R: 'static> Batcher<T, R> {
    /// Creates a batcher owned by `node`. `name` scopes the metrics
    /// (`batchkit.<name>.*`); `flush` starts the work for a drained batch
    /// (e.g. one coalesced RPC) and hands its [`Complete`] one result per
    /// item, in order, when that work is done. It runs at a deadline event
    /// or as the first poll of a flush task, never awaits, and must start
    /// whatever it waits for last (see [`SimHandle::run_next`]).
    pub fn callback(
        handle: &SimHandle,
        node: NodeId,
        name: &str,
        cfg: BatchConfig,
        obs: Obs,
        flush: impl Fn(Vec<T>, Complete<R>) + 'static,
    ) -> Batcher<T, R> {
        let cfg = BatchConfig {
            batch_max: cfg.batch_max.max(1),
            ..cfg
        };
        let reg = &obs.registry;
        Batcher {
            shared: Rc::new(Shared {
                handle: handle.clone(),
                node,
                cfg,
                flush: Rc::new(flush),
                pending: RefCell::new(Pending {
                    items: Vec::new(),
                    epoch: 0,
                }),
                batch_size: reg.histogram(&format!("batchkit.{name}.batch_size")),
                flush_size: reg.counter(&format!("batchkit.{name}.flush_size")),
                flush_deadline: reg.counter(&format!("batchkit.{name}.flush_deadline")),
                flush_manual: reg.counter(&format!("batchkit.{name}.flush_manual")),
                obs,
            }),
        }
    }

    /// [`Batcher::callback`] over a flush that returns a future: each
    /// flush awaits it in a task of its own, owned by `node`. For callers
    /// outside this workspace that await inside a flush; every flush here
    /// is a callback.
    pub fn new<F, Fut>(
        handle: &SimHandle,
        node: NodeId,
        name: &str,
        cfg: BatchConfig,
        obs: Obs,
        flush: F,
    ) -> Batcher<T, R>
    where
        F: Fn(Vec<T>) -> Fut + 'static,
        Fut: Future<Output = Vec<R>> + 'static,
    {
        let h = handle.clone();
        Batcher::callback(handle, node, name, cfg, obs, move |items, done| {
            let results = flush(items);
            h.spawn_on(node, async move { done.complete(results.await) });
        })
    }

    /// Enqueues `item` and resolves to its per-item result once the batch
    /// it lands in has flushed. `None` means the flush produced no result
    /// for this item (callback arity mismatch, or the batcher's node died)
    /// — the same "unknown outcome" contract as an RPC timeout.
    pub fn submit(&self, item: T) -> impl Future<Output = Option<R>> {
        let (tx, rx) = oneshot::channel();
        self.push(item, Some(tx));
        async move { rx.await.ok() }
    }

    /// Enqueues `item` without waiting for a result (fire-and-forget
    /// control traffic: outcomes, watermarks).
    pub fn submit_nowait(&self, item: T) {
        self.push(item, None);
    }

    /// Flushes whatever is pending right now, without waiting for size or
    /// deadline. A no-op when nothing is pending.
    pub fn flush_now(&self) {
        self.flush(FlushReason::Manual);
    }

    fn push(&self, item: T, tx: Option<oneshot::Sender<R>>) {
        let (arm_timer, epoch) = {
            let mut p = self.shared.pending.borrow_mut();
            let was_empty = p.items.is_empty();
            p.items.push((item, tx));
            (was_empty, p.epoch)
        };
        let s = &self.shared;
        if s.pending.borrow().items.len() >= s.cfg.batch_max {
            self.flush(FlushReason::Size);
        } else if arm_timer {
            let me = self.clone();
            let fire = move || {
                if me.shared.pending.borrow().epoch == epoch {
                    me.run_flush(FlushReason::Deadline);
                }
            };
            if s.cfg.batch_deadline.is_zero() {
                s.handle.spawn_on(s.node, async move { fire() });
            } else {
                let at = s.handle.now() + s.cfg.batch_deadline;
                s.handle.call_at(Some(s.node), at, fire);
            }
        }
    }

    /// A flush from inside a submitter's task: the flush gets a task of
    /// its own, at the back of the ready queue.
    fn flush(&self, reason: FlushReason) {
        if let Some((items, done)) = self.drain(reason) {
            let flush = Rc::clone(&self.shared.flush);
            self.shared
                .handle
                .spawn_on(self.shared.node, async move { flush(items, done) });
        }
    }

    /// Drains the pending batch and runs the flush callback on it here.
    fn run_flush(&self, reason: FlushReason) {
        if let Some((items, done)) = self.drain(reason) {
            (self.shared.flush)(items, done);
        }
    }

    /// Takes the pending batch (counted and traced here, at the flush
    /// instant) and splits it into the items and their [`Complete`].
    /// `None` when nothing is pending.
    fn drain(&self, reason: FlushReason) -> Option<(Vec<T>, Complete<R>)> {
        let batch = {
            let mut p = self.shared.pending.borrow_mut();
            if p.items.is_empty() {
                return None;
            }
            p.epoch += 1;
            std::mem::take(&mut p.items)
        };
        let s = &self.shared;
        s.batch_size.record(batch.len() as u64);
        match reason {
            FlushReason::Size => s.flush_size.inc(),
            FlushReason::Deadline => s.flush_deadline.inc(),
            FlushReason::Manual => s.flush_manual.inc(),
        }
        s.obs.tracer.record(
            s.handle.now().as_nanos(),
            TraceEvent::BatchFlush {
                node: u64::from(s.node.0),
                size: batch.len() as u64,
                reason,
            },
        );
        let (items, waiters) = batch.into_iter().unzip();
        Some((items, Complete { waiters }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::Sim;

    /// A 100 µs window over up to 8 items: the knob pair the coalescing
    /// experiments run.
    fn window() -> BatchConfig {
        BatchConfig {
            batch_max: 8,
            batch_deadline: Duration::from_micros(100),
        }
    }

    fn doubler(sim: &Sim, cfg: BatchConfig, obs: Obs) -> Batcher<u32, u32> {
        let h = sim.handle();
        Batcher::callback(&h, NodeId(0), "test", cfg, obs, |items: Vec<u32>, done| {
            done.complete(items.into_iter().map(|x| x * 2).collect())
        })
    }

    #[test]
    fn size_flush_resolves_all_waiters_in_order() {
        let mut sim = Sim::new(1);
        let obs = Obs::new();
        let b = doubler(&sim, window(), obs.clone());
        let got = sim.block_on(async move {
            let futs: Vec<_> = (0..8).map(|i| b.submit(i)).collect();
            let mut out = Vec::new();
            for f in futs {
                out.push(f.await.unwrap());
            }
            out
        });
        assert_eq!(got, vec![0, 2, 4, 6, 8, 10, 12, 14]);
        let snap = obs.registry.snapshot().to_string();
        assert!(snap.contains("\"batchkit.test.flush_size\":1"), "{snap}");
    }

    #[test]
    fn deadline_flush_fires_for_partial_batch() {
        let mut sim = Sim::new(2);
        let obs = Obs::new();
        let b = doubler(&sim, window(), obs.clone());
        let h = sim.handle();
        let got = sim.block_on(async move {
            let start = h.now();
            let r = b.submit(21).await;
            (r, h.now() - start)
        });
        assert_eq!(got.0, Some(42));
        assert!(
            got.1 >= Duration::from_micros(100),
            "flushed before deadline: {:?}",
            got.1
        );
        let snap = obs.registry.snapshot().to_string();
        assert!(
            snap.contains("\"batchkit.test.flush_deadline\":1"),
            "{snap}"
        );
        // `block_on`'s task alone: the deadline callback ran the flush.
        assert_eq!(sim.handle().spawns(), 1);
    }

    #[test]
    fn batch_max_one_flushes_every_item_immediately() {
        let mut sim = Sim::new(3);
        let obs = Obs::new();
        let b = doubler(&sim, BatchConfig::unbatched(), obs.clone());
        let h = sim.handle();
        let elapsed = sim.block_on(async move {
            let start = h.now();
            assert_eq!(b.submit(1).await, Some(2));
            assert_eq!(b.submit(2).await, Some(4));
            h.now() - start
        });
        assert_eq!(elapsed, Duration::ZERO, "unbatched submits must not wait");
        let snap = obs.registry.snapshot().to_string();
        assert!(snap.contains("\"batchkit.test.flush_size\":2"), "{snap}");
    }

    #[test]
    fn size_flush_cancels_pending_deadline_timer() {
        let mut sim = Sim::new(4);
        let obs = Obs::new();
        let cfg = BatchConfig {
            batch_max: 2,
            batch_deadline: Duration::from_micros(100),
        };
        let b = doubler(&sim, cfg, obs.clone());
        let h = sim.handle();
        sim.block_on(async move {
            let a = b.submit(1);
            let c = b.submit(2);
            assert_eq!(a.await, Some(2));
            assert_eq!(c.await, Some(4));
            // Let the armed deadline timer (if any survived) fire.
            h.sleep(Duration::from_millis(1)).await;
        });
        let snap = obs.registry.snapshot().to_string();
        assert!(snap.contains("\"batchkit.test.flush_size\":1"), "{snap}");
        assert!(
            !snap.contains("flush_deadline\":1"),
            "stale timer flushed an empty epoch: {snap}"
        );
        // `block_on` and the size flush's own task; the first item armed a
        // callback, which fired into an empty epoch and flushed nothing.
        assert_eq!(sim.handle().spawns(), 2);
        let t = sim.handle().timer_stats();
        assert_eq!((t.armed, t.fired, t.cancelled, t.pending), (2, 2, 0, 0));
    }

    #[test]
    fn short_result_vector_resolves_tail_to_none() {
        let mut sim = Sim::new(5);
        let h = sim.handle();
        let cfg = BatchConfig {
            batch_max: 2,
            batch_deadline: Duration::from_micros(100),
        };
        let b: Batcher<u32, u32> = Batcher::callback(
            &h,
            NodeId(0),
            "short",
            cfg,
            Obs::new(),
            |items: Vec<u32>, done| done.complete(items.into_iter().take(1).collect()),
        );
        let got = sim.block_on(async move {
            let a = b.submit(7);
            let c = b.submit(8);
            (a.await, c.await)
        });
        assert_eq!(got, (Some(7), None));
    }

    #[test]
    fn submit_nowait_rides_the_same_flush() {
        let mut sim = Sim::new(6);
        let obs = Obs::new();
        let cfg = BatchConfig {
            batch_max: 2,
            batch_deadline: Duration::from_micros(100),
        };
        let b = doubler(&sim, cfg, obs.clone());
        let got = sim.block_on(async move {
            b.submit_nowait(1);
            b.submit(2).await
        });
        assert_eq!(got, Some(4));
        let snap = obs.registry.snapshot().to_string();
        assert!(snap.contains("\"batchkit.test.flush_size\":1"), "{snap}");
    }

    #[test]
    fn manual_flush_drains_pending() {
        let mut sim = Sim::new(7);
        let obs = Obs::new();
        let b = doubler(&sim, window(), obs.clone());
        let got = sim.block_on(async move {
            let f = b.submit(5);
            b.flush_now();
            f.await
        });
        assert_eq!(got, Some(10));
        let snap = obs.registry.snapshot().to_string();
        assert!(snap.contains("\"batchkit.test.flush_manual\":1"), "{snap}");
        // `block_on` and the manual flush's own task.
        assert_eq!(sim.handle().spawns(), 2);
    }

    #[test]
    fn a_due_deadline_flushes_at_its_task_s_place_in_the_ready_queue() {
        let mut sim = Sim::new(8);
        let h = sim.handle();
        // The default deadline: zero.
        let cfg = BatchConfig {
            batch_max: 4,
            ..BatchConfig::default()
        };
        let log = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        let b: Batcher<u32, u32> = Batcher::callback(&h, NodeId(0), "due", cfg, Obs::new(), {
            move |items, done| {
                l.borrow_mut().push("flush");
                done.complete(items);
            }
        });
        let (l, hh) = (log.clone(), h.clone());
        let got = sim.block_on(async move {
            let r = b.submit(3);
            // Spawned after the submit: the flush runs first, from the task
            // the submit spawned, as it did when that task's zero sleep
            // returned at once. A callback would fire only once this task
            // had run too.
            hh.spawn(async move { l.borrow_mut().push("later task") });
            r.await
        });
        assert_eq!(got, Some(3));
        assert_eq!(*log.borrow(), ["flush", "later task"]);
        assert_eq!(h.timer_stats().armed, 0);
    }

    #[test]
    fn killing_the_node_cancels_its_pending_deadline() {
        let mut sim = Sim::new(9);
        let obs = Obs::new();
        let b = doubler(&sim, window(), obs.clone());
        let h = sim.handle();
        b.submit_nowait(1);
        assert_eq!(h.timer_stats().pending, 1);
        h.kill_node(NodeId(0));
        sim.run();
        let t = h.timer_stats();
        assert_eq!((t.armed, t.fired, t.cancelled), (1, 0, 1));
        let snap = obs.registry.snapshot().to_string();
        assert!(!snap.contains("flush_deadline\":1"), "{snap}");
    }

    #[test]
    fn a_future_flush_awaits_in_a_task_of_its_own() {
        let mut sim = Sim::new(10);
        let h = sim.handle();
        let hh = h.clone();
        let b: Batcher<u32, u32> = Batcher::new(
            &h,
            NodeId(0),
            "future",
            window(),
            Obs::new(),
            move |items: Vec<u32>| {
                let hh = hh.clone();
                async move {
                    hh.sleep(Duration::from_micros(5)).await;
                    items
                }
            },
        );
        let got = sim.block_on(async move { b.submit(11).await });
        assert_eq!(got, Some(11));
        // `block_on`'s task and the one that awaited the flush.
        assert_eq!(h.spawns(), 2);
    }
}

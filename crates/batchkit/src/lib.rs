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
//! Everything is driven by `simkit` virtual timers, so batching is fully
//! deterministic: the same seed produces the same flush boundaries, batch
//! sizes, and registry snapshots, byte for byte.
//!
//! ## Design notes
//!
//! - The flush callback receives the drained items and returns one result
//!   per item, **in item order**. [`Batcher::submit`] resolves to that
//!   item's result; arity mismatches resolve waiters to `None` (the same
//!   contract as an RPC timeout, so callers already handle it).
//! - The deadline timer is spawned with `spawn_on(node, ..)` so it dies
//!   with the owning node: a killed primary cannot leak a flush into its
//!   next incarnation. When it fires it runs the flush it triggers itself
//!   (one task per deadline-flushed batch); a size or manual flush has no
//!   task of its own to run in, so it spawns one.
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
//! let batcher: Batcher<u32, u32> = Batcher::new(
//!     &h,
//!     NodeId(0),
//!     "doubler",
//!     BatchConfig { batch_max: 2, batch_deadline: Duration::from_micros(100) },
//!     obskit::Obs::new(),
//!     |items| async move { items.into_iter().map(|x| x * 2).collect() },
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
use std::pin::Pin;
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
    /// for waiting on peers.
    pub batch_deadline: Duration,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig {
            batch_max: 8,
            batch_deadline: Duration::from_micros(100),
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

type FlushFn<T, R> = Rc<dyn Fn(Vec<T>) -> Pin<Box<dyn Future<Output = Vec<R>>>>>;

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
    /// (`batchkit.<name>.*`); `flush` maps a drained batch to one result
    /// per item, in order (e.g. one coalesced RPC).
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
                flush: Rc::new(move |items| Box::pin(flush(items))),
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

    /// The configured knobs (after clamping `batch_max >= 1`).
    pub fn config(&self) -> BatchConfig {
        self.shared.cfg
    }

    /// Number of items currently waiting for a flush.
    pub fn pending(&self) -> usize {
        self.shared.pending.borrow().items.len()
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
        if self.shared.pending.borrow().items.len() >= self.shared.cfg.batch_max {
            self.flush(FlushReason::Size);
        } else if arm_timer {
            let me = self.clone();
            self.shared.handle.spawn_on(self.shared.node, async move {
                me.shared.handle.sleep(me.shared.cfg.batch_deadline).await;
                let live = me.shared.pending.borrow().epoch == epoch;
                if live {
                    if let Some(flushing) = me.drain(FlushReason::Deadline) {
                        flushing.await;
                    }
                }
            });
        }
    }

    fn flush(&self, reason: FlushReason) {
        if let Some(flushing) = self.drain(reason) {
            self.shared.handle.spawn_on(self.shared.node, flushing);
        }
    }

    /// Takes the pending batch (counted and traced here, at the flush
    /// instant) and returns the future that runs the flush callback and
    /// resolves the waiters. `None` when nothing is pending.
    fn drain(&self, reason: FlushReason) -> Option<impl Future<Output = ()>> {
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
        let flush = Rc::clone(&s.flush);
        Some(async move {
            let (items, waiters): (Vec<T>, Vec<Option<oneshot::Sender<R>>>) =
                batch.into_iter().unzip();
            let results = flush(items).await;
            // Zip results back to waiters; a short result vector leaves the
            // tail's senders dropped, which resolves those waiters to None.
            for (r, tx) in results.into_iter().zip(waiters) {
                if let Some(tx) = tx {
                    let _ = tx.send(r);
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::Sim;

    fn doubler(sim: &Sim, cfg: BatchConfig, obs: Obs) -> Batcher<u32, u32> {
        let h = sim.handle();
        Batcher::new(
            &h,
            NodeId(0),
            "test",
            cfg,
            obs,
            |items: Vec<u32>| async move { items.into_iter().map(|x| x * 2).collect() },
        )
    }

    #[test]
    fn size_flush_resolves_all_waiters_in_order() {
        let mut sim = Sim::new(1);
        let obs = Obs::new();
        let b = doubler(&sim, BatchConfig::default(), obs.clone());
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
        let b = doubler(&sim, BatchConfig::default(), obs.clone());
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
        // `block_on`'s task and the deadline timer's, which ran the flush.
        assert_eq!(sim.handle().spawns(), 2);
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
        // `block_on`, the timer the first item armed, the size flush's own.
        assert_eq!(sim.handle().spawns(), 3);
    }

    #[test]
    fn short_result_vector_resolves_tail_to_none() {
        let mut sim = Sim::new(5);
        let h = sim.handle();
        let cfg = BatchConfig {
            batch_max: 2,
            batch_deadline: Duration::from_micros(100),
        };
        let b: Batcher<u32, u32> = Batcher::new(
            &h,
            NodeId(0),
            "short",
            cfg,
            Obs::new(),
            |items: Vec<u32>| async move { items.into_iter().take(1).collect() },
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
        let b = doubler(&sim, BatchConfig::default(), obs.clone());
        let got = sim.block_on(async move {
            let f = b.submit(5);
            b.flush_now();
            f.await
        });
        assert_eq!(got, Some(10));
        let snap = obs.registry.snapshot().to_string();
        assert!(snap.contains("\"batchkit.test.flush_manual\":1"), "{snap}");
        // `block_on`, the armed timer, the manual flush's own.
        assert_eq!(sim.handle().spawns(), 3);
    }
}

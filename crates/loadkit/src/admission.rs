//! Cost-aware bounded admission control for one server.
//!
//! Instead of an unbounded task queue, a server holds an [`Admission`]
//! gate: every request must [`Admission::try_admit`] a [`Permit`] of its
//! *cost* before any work happens, and the permit releases its cost on
//! drop (so cancellation and early returns can't leak capacity). Costs
//! let heavyweight operations (2PC prepares, replicated puts) claim more
//! of the budget than point reads — the staged, bounded-queue discipline
//! DTranx applies to transactional KV stores.
//!
//! Refused work is answered immediately with [`Shed::Overloaded`] (queue
//! full) or recorded as [`Shed::DeadlineExceeded`] (work arrived already
//! dead), both observable through obskit metrics and trace events.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use obskit::{Counter, Gauge, Obs, ShedReason, TraceEvent, Tracer};

use crate::shed::Shed;

/// Tuning for one server's admission gate.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Maximum total in-flight admitted cost. Work pushing the sum past
    /// this is refused.
    pub capacity: u64,
    /// Backoff hint embedded in `Shed::Overloaded` replies.
    pub retry_after: Duration,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            // Generous: a 3-replica shard serving the paper's workloads
            // never sees this in-flight cost unless genuinely saturated.
            capacity: 256,
            retry_after: Duration::from_millis(2),
        }
    }
}

#[derive(Debug)]
struct State {
    in_flight: u64,
    high_water: u64,
    capacity: u64,
    retry_after: Duration,
    node: u64,
    admitted: Counter,
    sheds_overload: Counter,
    sheds_deadline: Counter,
    depth: Gauge,
    tracer: Tracer,
}

impl State {
    fn trace_depth(&self, now_ns: u64) {
        self.tracer.record(
            now_ns,
            TraceEvent::QueueDepth {
                node: self.node,
                cost: self.in_flight,
                capacity: self.capacity,
            },
        );
    }
}

/// One server's admission gate. Cloning shares the state.
#[derive(Debug, Clone)]
pub struct Admission {
    state: Rc<RefCell<State>>,
}

impl Admission {
    /// A gate with detached (unregistered) metrics and no tracing.
    pub fn new(cfg: AdmissionConfig) -> Admission {
        Admission::build(cfg, &Obs::default(), u64::MAX, false)
    }

    /// A gate reporting into `obs` under `loadkit.node<node>.*`.
    pub fn observed(cfg: AdmissionConfig, obs: &Obs, node: u64) -> Admission {
        Admission::build(cfg, obs, node, true)
    }

    fn build(cfg: AdmissionConfig, obs: &Obs, node: u64, register: bool) -> Admission {
        let (admitted, sheds_overload, sheds_deadline, depth) = if register {
            let p = format!("loadkit.node{node}");
            (
                obs.registry.counter(&format!("{p}.admitted")),
                obs.registry.counter(&format!("{p}.sheds_overload")),
                obs.registry.counter(&format!("{p}.sheds_deadline")),
                obs.registry.gauge(&format!("{p}.queue_cost")),
            )
        } else {
            (
                Counter::detached(),
                Counter::detached(),
                Counter::detached(),
                Gauge::detached(),
            )
        };
        Admission {
            state: Rc::new(RefCell::new(State {
                in_flight: 0,
                high_water: 0,
                capacity: cfg.capacity.max(1),
                retry_after: cfg.retry_after,
                node,
                admitted,
                sheds_overload,
                sheds_deadline,
                depth,
                tracer: obs.tracer.clone(),
            })),
        }
    }

    /// Tries to admit work of `cost`. On success the returned [`Permit`]
    /// holds the cost until dropped; on refusal the caller should reply
    /// with the returned [`Shed`] instead of doing the work.
    ///
    /// Trace volume is bounded: `QueueDepth` is emitted only when the
    /// in-flight cost reaches a new high-water mark or a shed happens,
    /// never per admit.
    pub fn try_admit(&self, now_ns: u64, cost: u64) -> Result<Permit, Shed> {
        let cost = cost.max(1);
        let mut s = self.state.borrow_mut();
        if s.in_flight + cost > s.capacity {
            s.sheds_overload.inc();
            let shed = Shed::Overloaded {
                retry_after: s.retry_after,
            };
            s.tracer.record(
                now_ns,
                TraceEvent::Shed {
                    node: s.node,
                    reason: ShedReason::Overloaded,
                },
            );
            s.trace_depth(now_ns);
            return Err(shed);
        }
        s.in_flight += cost;
        s.admitted.inc();
        s.depth.set(s.in_flight as i64);
        if s.in_flight > s.high_water {
            s.high_water = s.in_flight;
            s.trace_depth(now_ns);
        }
        drop(s);
        Ok(Permit {
            state: self.state.clone(),
            cost,
        })
    }

    /// Records a deadline-expired refusal (the deadline check itself lives
    /// at the server, which owns the request envelope).
    pub fn shed_deadline(&self, now_ns: u64) -> Shed {
        let s = self.state.borrow();
        s.sheds_deadline.inc();
        s.tracer.record(
            now_ns,
            TraceEvent::Shed {
                node: s.node,
                reason: ShedReason::DeadlineExceeded,
            },
        );
        Shed::DeadlineExceeded
    }

    /// Current in-flight admitted cost.
    pub fn in_flight(&self) -> u64 {
        self.state.borrow().in_flight
    }

    /// Highest in-flight cost ever admitted.
    pub fn high_water(&self) -> u64 {
        self.state.borrow().high_water
    }

    /// Total refusals (both reasons).
    pub fn sheds(&self) -> u64 {
        let s = self.state.borrow();
        s.sheds_overload.get() + s.sheds_deadline.get()
    }
}

/// Admitted capacity, released on drop.
#[derive(Debug)]
pub struct Permit {
    state: Rc<RefCell<State>>,
    cost: u64,
}

impl Drop for Permit {
    fn drop(&mut self) {
        let mut s = self.state.borrow_mut();
        s.in_flight = s.in_flight.saturating_sub(self.cost);
        s.depth.set(s.in_flight as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(capacity: u64) -> Admission {
        Admission::new(AdmissionConfig {
            capacity,
            ..AdmissionConfig::default()
        })
    }

    #[test]
    fn admits_until_cost_capacity() {
        let a = gate(4);
        let p1 = a.try_admit(0, 1).unwrap();
        let p2 = a.try_admit(0, 2).unwrap();
        assert_eq!(a.in_flight(), 3);
        // cost 2 would exceed 4.
        let refused = a.try_admit(0, 2).unwrap_err();
        assert!(matches!(refused, Shed::Overloaded { .. }));
        // cost 1 still fits.
        let p3 = a.try_admit(0, 1).unwrap();
        drop((p1, p2, p3));
        assert_eq!(a.in_flight(), 0);
        assert_eq!(a.sheds(), 1);
    }

    #[test]
    fn permit_drop_releases_even_mid_burst() {
        let a = gate(2);
        let p = a.try_admit(0, 2).unwrap();
        assert!(a.try_admit(0, 1).is_err());
        drop(p);
        assert!(a.try_admit(0, 2).is_ok());
    }

    #[test]
    fn heavyweight_cost_starves_before_reads() {
        let a = gate(8);
        let _reads: Vec<Permit> = (0..6).map(|_| a.try_admit(0, 1).unwrap()).collect();
        // A prepare at cost 4 no longer fits although reads at cost 1 do.
        assert!(a.try_admit(0, 4).is_err());
        assert!(a.try_admit(0, 1).is_ok());
    }

    #[test]
    fn zero_cost_is_clamped_to_one() {
        let a = gate(1);
        let _p = a.try_admit(0, 0).unwrap();
        assert_eq!(a.in_flight(), 1);
        assert!(a.try_admit(0, 0).is_err());
    }

    #[test]
    fn observed_gate_reports_metrics_and_traces() {
        let obs = Obs::with_trace(64);
        let a = Admission::observed(
            AdmissionConfig {
                capacity: 1,
                retry_after: Duration::from_millis(3),
            },
            &obs,
            7,
        );
        let p = a.try_admit(10, 1).unwrap();
        let refused = a.try_admit(20, 1).unwrap_err();
        assert_eq!(
            refused,
            Shed::Overloaded {
                retry_after: Duration::from_millis(3)
            }
        );
        assert_eq!(a.shed_deadline(30), Shed::DeadlineExceeded);
        drop(p);
        let snap = obs.registry.snapshot().to_string();
        assert!(snap.contains(r#""loadkit.node7.admitted":1"#), "{snap}");
        assert!(
            snap.contains(r#""loadkit.node7.sheds_overload":1"#),
            "{snap}"
        );
        assert!(
            snap.contains(r#""loadkit.node7.sheds_deadline":1"#),
            "{snap}"
        );
        assert!(snap.contains(r#""loadkit.node7.queue_cost":0"#), "{snap}");
        assert_eq!(obs.tracer.count_of("shed"), 2);
        // One high-water advance + one on the shed.
        assert_eq!(obs.tracer.count_of("queue_depth"), 2);
    }

    #[test]
    fn queue_depth_traces_only_on_high_water_advance() {
        let obs = Obs::with_trace(64);
        let a = Admission::observed(AdmissionConfig::default(), &obs, 1);
        for _ in 0..10 {
            let p = a.try_admit(0, 1).unwrap();
            drop(p);
        }
        // Depth oscillates 0->1->0; only the first advance traces.
        assert_eq!(obs.tracer.count_of("queue_depth"), 1);
        assert_eq!(a.high_water(), 1);
    }
}

//! Client-side retry discipline: decorrelated-jitter backoff, a retry
//! budget, and per-shard circuit breakers.
//!
//! Overload is a closed loop: aborted or shed attempts come straight back
//! as retries, so past the saturation knee an unbudgeted client *amplifies*
//! load exactly when the servers can least afford it. [`RetryPolicy`]
//! breaks the loop three ways:
//!
//! 1. **Decorrelated jitter** — each backoff is drawn uniformly from
//!    `[base, 3 × previous]`, capped; retries de-synchronize instead of
//!    arriving in waves. All draws come from an explicitly seeded RNG, so
//!    runs are deterministic per seed.
//! 2. **Retry budget** — a token bucket: every *first* attempt deposits
//!    [`BUDGET_RATIO`] tokens, every retry spends one. Retry traffic is
//!    asymptotically capped at that ratio of first-attempt traffic (plus
//!    the [`BUDGET_BURST`] startup allowance), no matter how many attempts
//!    fail.
//! 3. **Circuit breaker** — per shard: [`BREAKER_THRESHOLD`] consecutive
//!    sheds trip it open and requests fail fast without touching the
//!    network; after [`BREAKER_COOLDOWN`] one probe is let through
//!    (half-open) and its outcome closes or re-opens the circuit.

use perfkit::FastMap;
use std::cell::{Cell, RefCell};
use std::time::Duration;

use obskit::{Counter, Obs, TraceEvent, Tracer};
use rand::rngs::StdRng;
use rand::Rng;

/// Minimum backoff (the jitter draw's lower bound).
pub const BACKOFF_BASE: Duration = Duration::from_micros(500);
/// Maximum backoff (the jitter draw's cap).
pub const BACKOFF_CAP: Duration = Duration::from_millis(25);
/// Retry tokens deposited per first attempt; retries spend one each.
pub const BUDGET_RATIO: f64 = 0.2;
/// Token-bucket ceiling (also the startup allowance).
pub const BUDGET_BURST: f64 = 10.0;
/// Consecutive sheds from one shard that trip its breaker.
pub const BREAKER_THRESHOLD: u32 = 8;
/// How long a tripped breaker stays open before half-opening.
pub const BREAKER_COOLDOWN: Duration = Duration::from_millis(20);
const COOLDOWN_NS: u64 = BREAKER_COOLDOWN.as_nanos() as u64;

/// Observable state of one shard's circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow normally.
    Closed,
    /// Requests fail fast without touching the network.
    Open,
    /// One probe is in flight; its outcome decides open vs. closed.
    HalfOpen,
}

#[derive(Debug, Clone, Copy)]
enum Breaker {
    Closed { consecutive: u32 },
    Open { until_ns: u64 },
    HalfOpen { since_ns: u64 },
}

/// One client's retry discipline. Cloning is not provided — each logical
/// client owns exactly one policy so the budget actually binds.
#[derive(Debug)]
pub struct RetryPolicy {
    rng: RefCell<StdRng>,
    /// Previous jitter draw, nanoseconds (decorrelated-jitter state).
    prev_ns: Cell<u64>,
    tokens: Cell<f64>,
    breakers: RefCell<FastMap<u64, Breaker>>,
    client: u64,
    retries: Counter,
    budget_exhausted: Counter,
    breaker_trips: Counter,
    tracer: Tracer,
}

impl RetryPolicy {
    /// A policy with detached (unregistered) metrics and no tracing.
    pub fn new(rng: StdRng) -> RetryPolicy {
        RetryPolicy::build(rng, &Obs::default(), u64::MAX, false)
    }

    /// A policy reporting into `obs` under `loadkit.client<client>.*`.
    pub fn observed(rng: StdRng, obs: &Obs, client: u64) -> RetryPolicy {
        RetryPolicy::build(rng, obs, client, true)
    }

    fn build(rng: StdRng, obs: &Obs, client: u64, register: bool) -> RetryPolicy {
        let (retries, budget_exhausted, breaker_trips) = if register {
            let p = format!("loadkit.client{client}");
            (
                obs.registry.counter(&format!("{p}.retries")),
                obs.registry.counter(&format!("{p}.budget_exhausted")),
                obs.registry.counter(&format!("{p}.breaker_trips")),
            )
        } else {
            (
                Counter::detached(),
                Counter::detached(),
                Counter::detached(),
            )
        };
        RetryPolicy {
            prev_ns: Cell::new(BACKOFF_BASE.as_nanos() as u64),
            tokens: Cell::new(BUDGET_BURST),
            rng: RefCell::new(rng),
            breakers: RefCell::new(FastMap::default()),
            client,
            retries,
            budget_exhausted,
            breaker_trips,
            tracer: obs.tracer.clone(),
        }
    }

    /// Records one first attempt, depositing [`BUDGET_RATIO`] retry tokens
    /// (capped at [`BUDGET_BURST`]).
    pub fn on_attempt(&self) {
        let t = (self.tokens.get() + BUDGET_RATIO).min(BUDGET_BURST);
        self.tokens.set(t);
    }

    /// Asks permission to retry at virtual time `now_ns`. Returns the
    /// backoff to sleep before the retry, or `None` when the retry budget
    /// is exhausted — the caller must then give up (surface the failure),
    /// not spin. `hint` is the server's `retry_after`, respected as a
    /// floor on the returned delay.
    pub fn try_retry(&self, now_ns: u64, hint: Option<Duration>) -> Option<Duration> {
        let t = self.tokens.get();
        if t < 1.0 {
            self.budget_exhausted.inc();
            self.tracer.record(
                now_ns,
                TraceEvent::RetryBudgetExhausted {
                    client: self.client,
                },
            );
            return None;
        }
        self.tokens.set(t - 1.0);
        self.retries.inc();
        let base = BACKOFF_BASE.as_nanos() as u64;
        let cap = BACKOFF_CAP.as_nanos() as u64;
        let hi = self.prev_ns.get().saturating_mul(3).clamp(base, cap);
        let jitter = self.rng.borrow_mut().gen_range(base..=hi);
        self.prev_ns.set(jitter);
        let delay = Duration::from_nanos(jitter).max(hint.unwrap_or(Duration::ZERO));
        Some(delay)
    }

    /// Retry tokens currently available (observability / tests).
    pub fn budget_tokens(&self) -> f64 {
        self.tokens.get()
    }

    /// True when requests to `shard` may be sent at `now_ns`. An open
    /// breaker fails fast; the transition to half-open admits exactly one
    /// probe per cooldown window.
    pub fn shard_allows(&self, shard: u64, now_ns: u64) -> bool {
        let mut breakers = self.breakers.borrow_mut();
        let b = breakers
            .entry(shard)
            .or_insert(Breaker::Closed { consecutive: 0 });
        match *b {
            Breaker::Closed { .. } => true,
            Breaker::Open { until_ns } => {
                if now_ns >= until_ns {
                    *b = Breaker::HalfOpen { since_ns: now_ns };
                    true
                } else {
                    false
                }
            }
            Breaker::HalfOpen { since_ns } => {
                // A probe whose outcome was never recorded (e.g. it timed
                // out) must not wedge the breaker: re-probe each cooldown.
                if now_ns >= since_ns.saturating_add(COOLDOWN_NS) {
                    *b = Breaker::HalfOpen { since_ns: now_ns };
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a shed from `shard`, tripping its breaker after
    /// [`BREAKER_THRESHOLD`] consecutive sheds (a half-open probe's shed
    /// re-opens immediately).
    pub fn record_shed(&self, shard: u64, now_ns: u64) {
        let mut breakers = self.breakers.borrow_mut();
        let b = breakers
            .entry(shard)
            .or_insert(Breaker::Closed { consecutive: 0 });
        match *b {
            Breaker::Closed { consecutive } => {
                let consecutive = consecutive + 1;
                if consecutive >= BREAKER_THRESHOLD {
                    *b = Breaker::Open {
                        until_ns: now_ns.saturating_add(COOLDOWN_NS),
                    };
                    self.breaker_trips.inc();
                } else {
                    *b = Breaker::Closed { consecutive };
                }
            }
            Breaker::HalfOpen { .. } => {
                *b = Breaker::Open {
                    until_ns: now_ns.saturating_add(COOLDOWN_NS),
                };
                self.breaker_trips.inc();
            }
            Breaker::Open { .. } => {}
        }
    }

    /// Records a successful response from `shard`, closing its breaker.
    pub fn record_ok(&self, shard: u64) {
        self.breakers
            .borrow_mut()
            .insert(shard, Breaker::Closed { consecutive: 0 });
    }

    /// The observable state of `shard`'s breaker at `now_ns`.
    pub fn breaker_state(&self, shard: u64, now_ns: u64) -> BreakerState {
        match self.breakers.borrow().get(&shard) {
            None | Some(Breaker::Closed { .. }) => BreakerState::Closed,
            Some(Breaker::Open { until_ns }) => {
                if now_ns >= *until_ns {
                    BreakerState::HalfOpen
                } else {
                    BreakerState::Open
                }
            }
            Some(Breaker::HalfOpen { .. }) => BreakerState::HalfOpen,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn policy() -> RetryPolicy {
        RetryPolicy::new(StdRng::seed_from_u64(42))
    }

    /// Sheds from `shard` at `now_ns` until its breaker trips.
    fn trip(p: &RetryPolicy, shard: u64, now_ns: u64) {
        for _ in 0..BREAKER_THRESHOLD {
            p.record_shed(shard, now_ns);
        }
    }

    /// The constants are the defaults `RetryConfig` had while it was a
    /// struct nobody set: moving one moves every artifact.
    #[test]
    fn constants_are_the_old_defaults() {
        assert_eq!(BACKOFF_BASE, Duration::from_micros(500));
        assert_eq!(BACKOFF_CAP, Duration::from_millis(25));
        assert_eq!(BUDGET_RATIO, 0.2);
        assert_eq!(BUDGET_BURST, 10.0);
        assert_eq!(BREAKER_THRESHOLD, 8);
        assert_eq!(BREAKER_COOLDOWN, Duration::from_millis(20));
    }

    #[test]
    fn same_seed_same_backoff_sequence() {
        let a = policy();
        let b = policy();
        for _ in 0..8 {
            a.on_attempt();
            b.on_attempt();
            assert_eq!(a.try_retry(0, None), b.try_retry(0, None));
        }
    }

    #[test]
    fn backoff_stays_within_base_and_cap() {
        let p = policy();
        let mut longest = Duration::ZERO;
        for _ in 0..200 {
            // Five first attempts pay for one retry.
            for _ in 0..5 {
                p.on_attempt();
            }
            let d = p.try_retry(0, None).unwrap();
            assert!(d >= BACKOFF_BASE, "{d:?}");
            assert!(d <= BACKOFF_CAP, "{d:?}");
            longest = longest.max(d);
        }
        assert!(
            longest > BACKOFF_CAP / 2,
            "the draws never grew: {longest:?}"
        );
    }

    #[test]
    fn server_hint_floors_the_delay() {
        let p = policy();
        p.on_attempt();
        let hint = 2 * BACKOFF_CAP;
        assert_eq!(p.try_retry(0, Some(hint)).unwrap(), hint);
    }

    #[test]
    fn budget_caps_retries_at_ratio_of_attempts() {
        let p = policy();
        // Startup burst: ten tokens.
        for _ in 0..10 {
            assert!(p.try_retry(0, None).is_some());
        }
        assert!(p.try_retry(0, None).is_none());
        // Five first attempts deposit 0.2 each -> one more retry allowed.
        for _ in 0..4 {
            p.on_attempt();
        }
        assert!(p.try_retry(0, None).is_none());
        p.on_attempt();
        assert!(p.try_retry(0, None).is_some());
        assert!(p.try_retry(0, None).is_none());
    }

    #[test]
    fn deposits_cap_at_burst() {
        let p = policy();
        assert!(p.try_retry(0, None).is_some());
        for _ in 0..100 {
            p.on_attempt();
        }
        assert_eq!(p.budget_tokens(), BUDGET_BURST);
    }

    #[test]
    fn breaker_trips_half_opens_and_recovers() {
        let p = policy();
        assert!(p.shard_allows(0, 0));
        for _ in 1..BREAKER_THRESHOLD {
            p.record_shed(0, 0);
        }
        assert!(p.shard_allows(0, 0), "below threshold stays closed");
        p.record_shed(0, 0);
        assert_eq!(p.breaker_state(0, 0), BreakerState::Open);
        assert!(!p.shard_allows(0, COOLDOWN_NS - 1));
        // Cooldown elapsed: exactly one probe allowed.
        assert!(p.shard_allows(0, COOLDOWN_NS));
        assert!(!p.shard_allows(0, COOLDOWN_NS + 1));
        // Probe succeeded -> closed again.
        p.record_ok(0);
        assert_eq!(p.breaker_state(0, COOLDOWN_NS + 2), BreakerState::Closed);
        assert!(p.shard_allows(0, COOLDOWN_NS + 2));
    }

    #[test]
    fn half_open_probe_shed_reopens() {
        let p = policy();
        trip(&p, 5, 0);
        assert!(p.shard_allows(5, COOLDOWN_NS));
        p.record_shed(5, COOLDOWN_NS);
        assert_eq!(p.breaker_state(5, COOLDOWN_NS), BreakerState::Open);
    }

    #[test]
    fn lost_probe_does_not_wedge_the_breaker() {
        let p = policy();
        trip(&p, 5, 0);
        assert!(p.shard_allows(5, COOLDOWN_NS)); // probe sent, outcome lost
        assert!(!p.shard_allows(5, COOLDOWN_NS + 1));
        assert!(
            p.shard_allows(5, 2 * COOLDOWN_NS),
            "re-probes after a cooldown"
        );
    }

    #[test]
    fn breakers_are_per_shard() {
        let p = policy();
        trip(&p, 0, 0);
        assert!(!p.shard_allows(0, 0));
        assert!(p.shard_allows(1, 0));
    }

    #[test]
    fn observed_policy_reports_metrics_and_traces() {
        let obs = Obs::with_trace(16);
        let p = RetryPolicy::observed(StdRng::seed_from_u64(1), &obs, 3);
        for _ in 0..10 {
            assert!(p.try_retry(0, None).is_some());
        }
        assert!(p.try_retry(5, None).is_none());
        trip(&p, 2, 5);
        let snap = obs.registry.snapshot().to_string();
        assert!(snap.contains(r#""loadkit.client3.retries":10"#), "{snap}");
        assert!(
            snap.contains(r#""loadkit.client3.budget_exhausted":1"#),
            "{snap}"
        );
        assert!(
            snap.contains(r#""loadkit.client3.breaker_trips":1"#),
            "{snap}"
        );
        assert_eq!(obs.tracer.count_of("retry_budget_exhausted"), 1);
    }
}

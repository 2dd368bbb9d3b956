//! Property-based tests for the simulation substrate: scheduling
//! determinism, timer ordering, histogram accuracy, and semaphore safety.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use obskit::Histogram;
use proptest::prelude::*;
use simkit::sync::Semaphore;
use simkit::Sim;

proptest! {
    /// Timers always fire in non-decreasing virtual time, regardless of the
    /// order they were created in.
    #[test]
    fn timers_fire_in_time_order(
        delays in proptest::collection::vec(0u64..10_000, 1..100),
    ) {
        let mut sim = Sim::new(7);
        let h = sim.handle();
        let fired: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        let mut joins = Vec::new();
        for d in delays {
            let hh = h.clone();
            let fired = fired.clone();
            joins.push(h.spawn(async move {
                hh.sleep(Duration::from_micros(d)).await;
                fired.borrow_mut().push(hh.now().as_nanos());
            }));
        }
        sim.block_on(async move {
            for j in joins {
                j.await;
            }
        });
        let f = fired.borrow();
        for w in f.windows(2) {
            prop_assert!(w[0] <= w[1], "out of order: {} then {}", w[0], w[1]);
        }
    }

    /// The same seed gives byte-identical random streams and scheduling;
    /// event counts and final clocks match exactly across runs.
    #[test]
    fn identical_seeds_reproduce(seed in any::<u64>()) {
        let run = |seed: u64| {
            let mut sim = Sim::new(seed);
            let h = sim.handle();
            let hh = h.clone();
            let out = sim.block_on(async move {
                let mut acc = 0u64;
                for _ in 0..20 {
                    let d = hh.rand_range(1, 1000);
                    hh.sleep(Duration::from_micros(d)).await;
                    acc = acc.wrapping_mul(31).wrapping_add(d);
                }
                acc
            });
            (out, h.now())
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    /// Histogram quantiles stay within the design error bound (~1.6%) of
    /// exact quantiles for arbitrary sample sets.
    #[test]
    fn histogram_quantile_error_is_bounded(
        mut samples in proptest::collection::vec(1u64..1_000_000_000, 10..500),
        q in 0.0f64..1.0,
    ) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        let idx = ((q * samples.len() as f64).ceil() as usize).max(1) - 1;
        let exact = samples[idx.min(samples.len() - 1)] as f64;
        let approx = h.quantile(q) as f64;
        // Log-linear buckets with 64 sub-buckets: ≤ 1/64 relative error,
        // plus clamping to [min, max].
        prop_assert!(
            approx <= exact * 1.02 + 1.0 && approx >= exact * 0.969 - 1.0,
            "q={q} exact={exact} approx={approx}"
        );
    }

    /// Histogram min/mean/max are exact.
    #[test]
    fn histogram_summary_stats_exact(
        samples in proptest::collection::vec(0u64..1_000_000_000, 1..300),
    ) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.min(), *samples.iter().min().unwrap());
        prop_assert_eq!(h.max(), *samples.iter().max().unwrap());
        let mean = samples.iter().map(|&s| s as f64).sum::<f64>() / samples.len() as f64;
        prop_assert!((h.mean() - mean).abs() < 1e-6 * mean.max(1.0));
    }

    /// A semaphore never over-admits: the number of concurrently held
    /// permits never exceeds the capacity, for arbitrary task/hold patterns.
    #[test]
    fn semaphore_never_over_admits(
        permits in 1usize..6,
        holds in proptest::collection::vec(1u64..200, 1..60),
    ) {
        let mut sim = Sim::new(11);
        let h = sim.handle();
        let sem = Semaphore::new(permits);
        let peak = Rc::new(RefCell::new((0usize, 0usize)));
        let mut joins = Vec::new();
        for d in holds {
            let sem = sem.clone();
            let hh = h.clone();
            let peak = peak.clone();
            joins.push(h.spawn(async move {
                let _p = sem.acquire().await;
                {
                    let mut pk = peak.borrow_mut();
                    pk.0 += 1;
                    pk.1 = pk.1.max(pk.0);
                }
                hh.sleep(Duration::from_micros(d)).await;
                peak.borrow_mut().0 -= 1;
            }));
        }
        sim.block_on(async move {
            for j in joins {
                j.await;
            }
        });
        let max_held = peak.borrow().1;
        prop_assert!(max_held <= permits, "held {max_held} > permits {permits}");
        prop_assert_eq!(sem.available(), permits, "permits leaked");
    }

    /// Zipf sampling always stays in range and is deterministic per seed.
    #[test]
    fn zipf_in_range_and_deterministic(
        n in 1usize..10_000,
        alpha in 0.0f64..2.0,
        seed in any::<u64>(),
    ) {
        use rand::SeedableRng;
        let z = simkit::rng::Zipf::new(n, alpha);
        let draw = |seed| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            (0..32).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(seed);
        for &r in &a {
            prop_assert!(r < n);
        }
        prop_assert_eq!(a, draw(seed));
    }
}

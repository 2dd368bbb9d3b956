//! Distribution samplers built on any [`rand::Rng`].
//!
//! Implemented here (rather than pulling `rand_distr`) to keep the
//! dependency set to the approved offline crates; see DESIGN.md §6.

use rand::Rng;

/// Samples a standard normal variate via the Box–Muller transform.
pub fn standard_normal(rng: &mut impl Rng) -> f64 {
    // Avoid ln(0): u1 in (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Samples `Normal(mean, std)`.
pub fn normal(rng: &mut impl Rng, mean: f64, std: f64) -> f64 {
    mean + std * standard_normal(rng)
}

/// Samples an exponential variate with the given mean.
///
/// # Panics
///
/// Panics if `mean` is not positive.
pub fn exponential(rng: &mut impl Rng, mean: f64) -> f64 {
    assert!(mean > 0.0, "exponential mean must be positive");
    let u: f64 = 1.0 - rng.gen::<f64>();
    -mean * u.ln()
}

/// A Zipf-distributed sampler over ranks `0..n`.
///
/// Rank `r` is drawn with probability proportional to `1 / (r + 1)^alpha`.
/// `alpha = 0` is the uniform distribution; larger `alpha` concentrates mass
/// on low ranks. This is the "contention parameter" knob used by the Retwis
/// experiments (§5.2 of the paper).
///
/// The full CDF is precomputed (`8 * n` bytes) with a guide table beside it
/// (`4 * n` bytes): entry `j` is the first rank whose CDF reaches `j / n`.
/// A draw `u` starts at entry `floor(u * n)` and steps to the first rank
/// whose CDF reaches `u` — the rank a binary search of the CDF returns —
/// in about two steps on average, whatever `n` and `alpha`. Build one
/// sampler per run, not per draw.
///
/// # Examples
///
/// ```
/// use simkit::rng::Zipf;
/// use rand::SeedableRng;
///
/// let zipf = Zipf::new(1000, 0.8);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let rank = zipf.sample(&mut rng);
/// assert!(rank < 1000);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    guide: Vec<u32>,
}

impl Zipf {
    /// Builds a sampler over `n` ranks with skew `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n` exceeds `u32::MAX`, if `alpha` is negative
    /// or non-finite, or if the CDF does not strictly increase (a rank so
    /// improbable its mass rounds away, at extreme `alpha`).
    pub fn new(n: usize, alpha: f64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(alpha >= 0.0 && alpha.is_finite(), "invalid Zipf alpha");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(alpha);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // The guide walk returns the *first* rank reaching `u`; a binary
        // search returns the same rank only when no two CDF points tie.
        assert!(
            cdf.windows(2).all(|w| w[0] < w[1]),
            "Zipf CDF must strictly increase"
        );
        let mut guide = Vec::with_capacity(n);
        let mut r = 0;
        for j in 0..n {
            let floor = j as f64 / n as f64;
            while cdf[r] < floor {
                r += 1;
            }
            guide.push(u32::try_from(r).expect("Zipf rank fits in u32"));
        }
        Zipf { cdf, guide }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True when there is a single rank (always sampled).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Draws a rank in `0..len()`.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen();
        self.rank_of(u)
    }

    /// The first rank whose CDF reaches `u` (the last rank if none does).
    fn rank_of(&self, u: f64) -> usize {
        let n = self.cdf.len();
        let j = ((u * n as f64) as usize).min(n - 1);
        let mut r = self.guide[j] as usize;
        // `u * n` may round up past a bucket edge: step down first.
        while r > 0 && self.cdf[r - 1] >= u {
            r -= 1;
        }
        while r + 1 < n && self.cdf[r] < u {
            r += 1;
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(12345)
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut r = rng();
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| normal(&mut r, 10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn exponential_mean_is_plausible() {
        let mut r = rng();
        let n = 20_000;
        let mean = (0..n).map(|_| exponential(&mut r, 5.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn zipf_zero_alpha_is_uniform() {
        let z = Zipf::new(10, 0.0);
        let mut r = rng();
        let mut counts = [0u32; 10];
        for _ in 0..50_000 {
            counts[z.sample(&mut r)] += 1;
        }
        for c in counts {
            assert!((c as f64 - 5000.0).abs() < 500.0, "counts {counts:?}");
        }
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let z = Zipf::new(1000, 1.0);
        let mut r = rng();
        let mut head = 0u32;
        let n = 50_000;
        for _ in 0..n {
            if z.sample(&mut r) < 10 {
                head += 1;
            }
        }
        // With alpha=1 over 1000 ranks, ranks 0..10 carry ~39% of the mass.
        let frac = head as f64 / n as f64;
        assert!(frac > 0.3 && frac < 0.5, "head fraction {frac}");
    }

    #[test]
    fn zipf_higher_alpha_more_skew() {
        let mut r = rng();
        let frac_at = |alpha: f64, r: &mut StdRng| {
            let z = Zipf::new(1000, alpha);
            let n = 20_000;
            (0..n).filter(|_| z.sample(r) == 0).count() as f64 / n as f64
        };
        let lo = frac_at(0.4, &mut r);
        let hi = frac_at(0.9, &mut r);
        assert!(hi > lo * 2.0, "lo {lo} hi {hi}");
    }

    #[test]
    fn zipf_single_rank() {
        let z = Zipf::new(1, 0.8);
        let mut r = rng();
        assert_eq!(z.sample(&mut r), 0);
    }

    /// The guide-table walk against the binary search it replaced, on a
    /// superset of the `(n, alpha)` pairs the workspace builds (every
    /// keyspace and skew of the benchmark workloads, the figures, the
    /// ablations and the Retwis defaults) plus the edges: one and two
    /// ranks, and skews up to 2.5. Besides random draws, `u` lands exactly
    /// on CDF points and one ulp either side of them, where a bucket edge
    /// and a rounding step could disagree.
    #[test]
    fn zipf_guide_walk_matches_binary_search() {
        let searched = |cdf: &[f64], u: f64| match cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("CDF is finite"))
        {
            Ok(i) => i,
            Err(i) => i.min(cdf.len() - 1),
        };
        let ns = [
            1, 2, 400, 500, 683, 1_365, 2_048, 4_000, 5_000, 8_000, 10_000, 12_000, 16_000, 20_000,
            30_000, 60_000, 240_000,
        ];
        let alphas = [0.0, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99, 1.2, 2.5];
        let mut r = rng();
        for &n in &ns {
            for &alpha in &alphas {
                let z = Zipf::new(n, alpha);
                let mut probes: Vec<f64> = (0..2_000).map(|_| r.gen()).collect();
                probes.extend([0.0, 1.0 - f64::EPSILON / 2.0]);
                for &p in z.cdf.iter().step_by((n / 500).max(1)) {
                    probes.extend([
                        p,
                        f64::from_bits(p.to_bits() - 1),
                        f64::from_bits(p.to_bits() + 1),
                    ]);
                }
                for u in probes.into_iter().filter(|u| (0.0..1.0).contains(u)) {
                    assert_eq!(
                        z.rank_of(u),
                        searched(&z.cdf, u),
                        "n {n} alpha {alpha} u {u}"
                    );
                }
            }
        }
        // The guide only shortens the walk: started from the first or the
        // last rank, as a rounded `u * n` may overshoot, it ends at the
        // same rank.
        for start in [0, 499] {
            let mut z = Zipf::new(500, 0.9);
            z.guide.fill(start);
            for _ in 0..2_000 {
                let u: f64 = r.gen();
                assert_eq!(z.rank_of(u), searched(&z.cdf, u), "start {start} u {u}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zipf_zero_ranks_panics() {
        let _ = Zipf::new(0, 0.5);
    }
}

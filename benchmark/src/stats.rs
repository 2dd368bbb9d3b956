//! Order statistics for the benchmark's own latency samples.
//!
//! Latencies are kept as exact virtual nanoseconds (not histogram buckets),
//! so a percentile is a measured sample with all its digits and repeats
//! bit-for-bit per seed.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// One reported percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the percentile, in the samples' unit.
    pub value: u64,
    /// How many samples the percentile was taken over.
    pub sample_count: usize,
    /// Whether at least [`MIN_TAIL_SAMPLES`] samples lie beyond it.
    pub supported: bool,
}

/// Samples strictly beyond the `permille`-th quantile of `n` samples.
pub fn samples_beyond(n: usize, permille: usize) -> usize {
    n - rank(n, permille).min(n)
}

/// Nearest-rank position (1-based) among `n` samples. Quantiles are given in
/// thousandths so the rank is exact integer arithmetic (`0.999 * 10_000` is
/// not 9990 in floating point).
fn rank(n: usize, permille: usize) -> usize {
    (n * permille).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice (`permille` 500 = median,
/// 999 = p99.9). `None` when empty.
pub fn percentile(sorted: &[u64], permille: usize) -> Option<Percentile> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    Some(Percentile {
        value: sorted[rank(n, permille) - 1],
        sample_count: n,
        supported: samples_beyond(n, permille) >= MIN_TAIL_SAMPLES,
    })
}

/// Median of unsorted floats (mean of the middle two for even counts).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(min, max)` of a non-empty slice.
pub fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

/// FNV-1a over a stream of `u64`s: the `sim_digest` fold.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one value in.
    pub fn push(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a slice in, length first.
    pub fn push_all(&mut self, vs: &[u64]) {
        self.push(vs.len() as u64);
        for &v in vs {
            self.push(v);
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

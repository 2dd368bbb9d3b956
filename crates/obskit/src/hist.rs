//! A log-linear histogram (HDR-style, ~1.5 % relative error on
//! percentiles).

use crate::json::Json;

const SUB_BITS: u32 = 6; // 64 linear sub-buckets per power of two
const SUB: usize = 1 << SUB_BITS;

/// A fixed-memory histogram of `u64` samples (typically latency
/// nanoseconds).
///
/// Values below 64 are recorded exactly; above that, buckets are log-spaced
/// with 64 linear sub-buckets per octave, bounding relative error to about
/// 1.5 %.
///
/// # Examples
///
/// ```
/// use obskit::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [10, 20, 30, 40, 50] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.min(), 10);
/// assert_eq!(h.max(), 50);
/// assert!((h.mean() - 30.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: vec![0; SUB + (64 - SUB_BITS as usize) * SUB],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn index(value: u64) -> usize {
        if value < SUB as u64 {
            value as usize
        } else {
            let msb = 63 - value.leading_zeros(); // >= SUB_BITS
            let octave = (msb - SUB_BITS) as usize;
            let sub = ((value >> (msb - SUB_BITS)) as usize) & (SUB - 1);
            SUB + octave * SUB + sub
        }
    }

    fn bucket_value(idx: usize) -> u64 {
        if idx < SUB {
            idx as u64
        } else {
            let octave = (idx - SUB) / SUB;
            let sub = (idx - SUB) % SUB;
            let base = 1u64 << (octave as u32 + SUB_BITS);
            base + (sub as u64) * (base >> SUB_BITS)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::index(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean of all samples (exact). Zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample. Zero when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate value at quantile `q` in `[0, 1]`. Zero when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_value(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merges another histogram's samples into this one.
    pub(crate) fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Deterministic JSON summary: count, mean, min/max, and the standard
    /// percentile ladder (p50/p90/p99/p999). Values are raw sample units
    /// (nanoseconds for latency histograms).
    pub fn summary_json(&self) -> Json {
        Json::obj()
            .field("count", Json::U64(self.count))
            .field("mean", Json::F64(self.mean()))
            .field("min", Json::U64(self.min()))
            .field("max", Json::U64(self.max()))
            .field("p50", Json::U64(self.quantile(0.50)))
            .field("p90", Json::U64(self.quantile(0.90)))
            .field("p99", Json::U64(self.quantile(0.99)))
            .field("p999", Json::U64(self.quantile(0.999)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 63);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 63);
    }

    #[test]
    fn quantiles_have_bounded_relative_error() {
        let mut h = Histogram::new();
        // Log-uniform samples across a wide range.
        let mut vals = Vec::new();
        let mut x: u64 = 3;
        for i in 0..10_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
            let v = 100 + (x % 10_000_000);
            vals.push(v);
            h.record(v);
        }
        vals.sort();
        for q in [0.5, 0.9, 0.99] {
            let exact = vals[((q * vals.len() as f64) as usize).min(vals.len() - 1)] as f64;
            let approx = h.quantile(q) as f64;
            let err = (approx - exact).abs() / exact;
            assert!(err < 0.05, "q={q} exact={exact} approx={approx} err={err}");
        }
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new();
        for v in [1u64, 1_000_000, 123_456_789] {
            h.record(v);
        }
        let expect = (1u64 + 1_000_000 + 123_456_789) as f64 / 3.0;
        assert!((h.mean() - expect).abs() < 1e-6);
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 1000);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Histogram::new();
        for v in [5u64, 50, 500, 5_000] {
            a.record(v);
        }
        let before = a.summary_json().to_string();
        a.merge(&Histogram::new());
        assert_eq!(a.summary_json().to_string(), before);

        // Empty absorbing non-empty equals the non-empty one.
        let mut e = Histogram::new();
        e.merge(&a);
        assert_eq!(e.summary_json().to_string(), before);
    }

    #[test]
    fn merge_equals_recording_union() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut u = Histogram::new();
        let mut x: u64 = 17;
        for i in 0..2_000u64 {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(i);
            let v = x % 1_000_000;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            u.record(v);
        }
        a.merge(&b);
        assert_eq!(a.summary_json().to_string(), u.summary_json().to_string());
    }

    #[test]
    fn quantile_edges_single_sample() {
        let mut h = Histogram::new();
        h.record(1_234_567);
        for q in [0.0, 0.5, 0.999, 1.0] {
            // One sample: every quantile is within bucket error of it, and
            // clamped to [min, max] so it is exactly the sample.
            assert_eq!(h.quantile(q), 1_234_567, "q={q}");
        }
    }

    #[test]
    fn quantile_edges_extreme_values() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.quantile(0.0), 0);
        // The top quantile lands in u64::MAX's bucket; its representative
        // value is within the histogram's ~1.6% relative error.
        let p100 = h.quantile(1.0);
        let err = (u64::MAX as f64 - p100 as f64) / u64::MAX as f64;
        assert!((0.0..0.02).contains(&err), "p100 {p100} err {err}");
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn quantile_rejects_out_of_range() {
        Histogram::new().quantile(1.5);
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn index_monotonic_in_value() {
        let mut last = 0;
        for v in (0..1_000_000u64).step_by(997) {
            let idx = Histogram::index(v);
            assert!(idx >= last);
            last = idx;
        }
    }

    #[test]
    fn bucket_value_inverts_index_approximately() {
        for v in [0u64, 5, 63, 64, 100, 1000, 65_537, 10_000_000] {
            let idx = Histogram::index(v);
            let rep = Histogram::bucket_value(idx);
            assert!(rep <= v, "rep {rep} > v {v}");
            let next = Histogram::bucket_value(idx + 1);
            assert!(next > v, "next {next} <= v {v}");
        }
    }
}

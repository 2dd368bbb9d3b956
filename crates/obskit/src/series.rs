//! Event counts over fixed virtual-time windows — the throughput
//! time-series the experiment exports plot.

use std::cell::RefCell;
use std::rc::Rc;

#[derive(Debug)]
struct SeriesInner {
    window_ns: u64,
    counts: Vec<u64>,
}

/// Counts events into `window_ns`-wide buckets of virtual time. Cloning
/// shares the series.
#[derive(Debug, Clone)]
pub(crate) struct TimeSeries {
    inner: Rc<RefCell<SeriesInner>>,
}

impl TimeSeries {
    /// A series with the given window width.
    ///
    /// # Panics
    ///
    /// Panics if `window_ns` is zero.
    pub(crate) fn new(window_ns: u64) -> TimeSeries {
        assert!(window_ns > 0, "time series window must be positive");
        TimeSeries {
            inner: Rc::new(RefCell::new(SeriesInner {
                window_ns,
                counts: Vec::new(),
            })),
        }
    }

    /// Counts one event at virtual time `at_ns`.
    pub(crate) fn record(&self, at_ns: u64) {
        let mut s = self.inner.borrow_mut();
        let bucket = (at_ns / s.window_ns) as usize;
        if bucket >= s.counts.len() {
            s.counts.resize(bucket + 1, 0);
        }
        s.counts[bucket] += 1;
    }

    /// The window width in nanoseconds.
    pub(crate) fn window_ns(&self) -> u64 {
        self.inner.borrow().window_ns
    }

    /// A plain copy of the per-window counts.
    pub(crate) fn counts(&self) -> Vec<u64> {
        self.inner.borrow().counts.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_by_window() {
        let s = TimeSeries::new(1_000);
        s.record(0);
        s.record(999);
        s.record(1_000);
        s.record(3_500);
        assert_eq!(s.window_ns(), 1_000);
        assert_eq!(s.counts(), vec![2, 1, 0, 1]);
    }

    #[test]
    fn clones_share() {
        let s = TimeSeries::new(10);
        let s2 = s.clone();
        s2.record(5);
        assert_eq!(s.counts(), vec![1]);
    }
}

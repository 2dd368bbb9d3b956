//! The hierarchical metric registry: counters, gauges, and histograms
//! addressed by dot-separated names, with cheap cloneable handles.
//!
//! Handles are `Rc`-backed (the simulation is single-threaded and
//! deterministic; atomics would buy nothing and cost determinism review).
//! Registering the same name twice with the same kind returns the *same*
//! underlying metric — components and harnesses can both grab
//! `"milana.client.commits"` and observe one stream. Registering a name
//! under a different kind is a bug and panics.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::hist::Histogram;
use crate::json::Json;

/// A monotonically increasing counter handle. Cloning shares the value.
#[derive(Debug, Clone, Default)]
pub struct Counter(Rc<Cell<u64>>);

impl Counter {
    /// A counter not attached to any registry.
    pub fn detached() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.set(self.0.get() + n);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// A last-value gauge handle. Cloning shares the value.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Rc<Cell<i64>>);

impl Gauge {
    /// A gauge not attached to any registry.
    pub fn detached() -> Gauge {
        Gauge::default()
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.set(v);
    }

    /// Current value.
    pub(crate) fn get(&self) -> i64 {
        self.0.get()
    }
}

/// A shared histogram handle. Cloning shares the samples.
#[derive(Debug, Clone, Default)]
pub struct HistogramHandle(Rc<RefCell<Histogram>>);

impl HistogramHandle {
    /// A histogram not attached to any registry.
    pub(crate) fn detached() -> HistogramHandle {
        HistogramHandle::default()
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.0.borrow_mut().record(v);
    }

    /// A point-in-time copy of the samples.
    pub fn snapshot(&self) -> Histogram {
        self.0.borrow().clone()
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.0.borrow().count()
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(HistogramHandle),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// The registry: a sorted map from hierarchical names to metrics.
/// Cloning shares the registry.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    metrics: Rc<RefCell<BTreeMap<String, Metric>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Returns the counter named `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.metrics.borrow_mut();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::default()))
        {
            Metric::Counter(c) => c.clone(),
            other => panic!(
                "metric name collision: {name:?} is a {}, requested counter",
                other.kind()
            ),
        }
    }

    /// Returns the gauge named `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = self.metrics.borrow_mut();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::default()))
        {
            Metric::Gauge(g) => g.clone(),
            other => panic!(
                "metric name collision: {name:?} is a {}, requested gauge",
                other.kind()
            ),
        }
    }

    /// Returns the histogram named `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        let mut m = self.metrics.borrow_mut();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(HistogramHandle::default()))
        {
            Metric::Histogram(h) => h.clone(),
            other => panic!(
                "metric name collision: {name:?} is a {}, requested histogram",
                other.kind()
            ),
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.borrow().len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.borrow().is_empty()
    }

    /// Deterministic JSON snapshot: names in sorted order; counters and
    /// gauges as integers, histograms as their summary objects.
    pub fn snapshot(&self) -> Json {
        let mut doc = Json::obj();
        for (name, metric) in self.metrics.borrow().iter() {
            let value = match metric {
                Metric::Counter(c) => Json::U64(c.get()),
                Metric::Gauge(g) => Json::I64(g.get()),
                Metric::Histogram(h) => h.snapshot().summary_json(),
            };
            doc = doc.field(name, value);
        }
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_same_kind_shares_the_metric() {
        let reg = Registry::new();
        let a = reg.counter("x.hits");
        let b = reg.counter("x.hits");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    #[should_panic(expected = "metric name collision")]
    fn same_name_different_kind_panics() {
        let reg = Registry::new();
        let _c = reg.counter("x.val");
        let _g = reg.gauge("x.val");
    }

    #[test]
    #[should_panic(expected = "metric name collision")]
    fn histogram_vs_counter_collision_panics() {
        let reg = Registry::new();
        let _h = reg.histogram("lat");
        let _c = reg.counter("lat");
    }

    #[test]
    fn snapshot_is_sorted_and_typed() {
        let reg = Registry::new();
        reg.counter("b.count").add(5);
        reg.gauge("a.level").set(-2);
        reg.histogram("c.lat").record(100);
        let s = reg.snapshot().to_string();
        // Sorted: a.level before b.count before c.lat.
        let ia = s.find("a.level").unwrap();
        let ib = s.find("b.count").unwrap();
        let ic = s.find("c.lat").unwrap();
        assert!(ia < ib && ib < ic, "{s}");
        assert!(s.contains(r#""a.level":-2"#));
        assert!(s.contains(r#""b.count":5"#));
        assert!(s.contains(r#""c.lat":{"count":1"#));
    }

    #[test]
    fn clones_share_the_registry() {
        let reg = Registry::new();
        let reg2 = reg.clone();
        reg.counter("shared").inc();
        assert_eq!(reg2.counter("shared").get(), 1);
    }
}

//! [`TxnStats`] — the workload-level stat bundle the Retwis driver and
//! every experiment harness record into. Supersedes the ad-hoc
//! `WorkloadStats` structs that used to live in `retwis::driver` and
//! `bench::common`.

use std::time::Duration;

use crate::abort::{AbortBreakdown, AbortClass};
use crate::hist::Histogram;
use crate::json::Json;
use crate::registry::{Counter, HistogramHandle, Registry};
use crate::series::TimeSeries;

/// Default throughput window: 100 ms of virtual time.
pub const DEFAULT_WINDOW_NS: u64 = 100_000_000;

/// Shared workload counters. Cloning shares every underlying metric, so a
/// fleet of driver instances can record into one bundle with no wrapper
/// `Rc<RefCell<..>>` — the handles are already interior-mutable and cheap.
#[derive(Debug, Clone)]
pub struct TxnStats {
    /// Transactions that eventually committed.
    pub commits: Counter,
    /// Aborted attempts (a transaction retried 3 times counts 3).
    pub aborts: Counter,
    /// Attempts that ended in transport timeouts / unknown outcomes.
    pub timeouts: Counter,
    /// Transactions abandoned after `max_retries`.
    pub abandoned: Counter,
    /// Transactions the workload *offered* (open-loop arrivals); zero for
    /// closed-loop drivers that don't track arrivals.
    pub arrivals: Counter,
    /// Transactions terminated by load shedding (admission refusal or
    /// deadline expiry) without ever reaching commit/abort accounting.
    pub sheds: Counter,
    /// Latency from first begin to successful commit, nanoseconds.
    pub latency: HistogramHandle,
    /// Aborted attempts broken down by normalized reason.
    pub abort_reasons: AbortBreakdown,
    /// Commits per virtual-time window (throughput over time).
    pub commit_series: TimeSeries,
}

impl Default for TxnStats {
    fn default() -> TxnStats {
        TxnStats::new()
    }
}

impl TxnStats {
    /// A detached bundle (not listed in any registry).
    pub fn new() -> TxnStats {
        TxnStats {
            commits: Counter::detached(),
            aborts: Counter::detached(),
            timeouts: Counter::detached(),
            abandoned: Counter::detached(),
            arrivals: Counter::detached(),
            sheds: Counter::detached(),
            latency: HistogramHandle::detached(),
            abort_reasons: AbortBreakdown::new(),
            commit_series: TimeSeries::new(DEFAULT_WINDOW_NS),
        }
    }

    /// A bundle whose counters and latency histogram are registered under
    /// `prefix` (e.g. `"retwis"` yields `retwis.commits`, ...). The abort
    /// breakdown and time series are exported via [`FrozenTxnStats::to_json`].
    pub fn registered(registry: &Registry, prefix: &str) -> TxnStats {
        TxnStats {
            commits: registry.counter(&format!("{prefix}.commits")),
            aborts: registry.counter(&format!("{prefix}.aborts")),
            timeouts: registry.counter(&format!("{prefix}.timeouts")),
            abandoned: registry.counter(&format!("{prefix}.abandoned")),
            arrivals: registry.counter(&format!("{prefix}.arrivals")),
            sheds: registry.counter(&format!("{prefix}.sheds")),
            latency: registry.histogram(&format!("{prefix}.latency_ns")),
            abort_reasons: AbortBreakdown::new(),
            commit_series: TimeSeries::new(DEFAULT_WINDOW_NS),
        }
    }

    /// Records a committed transaction: latency sample plus throughput
    /// window bump.
    pub fn record_commit(&self, at_ns: u64, latency_ns: u64) {
        self.commits.inc();
        self.latency.record(latency_ns);
        self.commit_series.record(at_ns);
    }

    /// Records an aborted attempt under `reason`.
    pub fn record_abort(&self, reason: AbortClass) {
        self.aborts.inc();
        self.abort_reasons.record(reason);
    }

    /// Records a timeout / unknown-outcome attempt.
    pub fn record_timeout(&self) {
        self.timeouts.inc();
        self.abort_reasons.record(AbortClass::UnknownOutcome);
    }

    /// Records a transaction abandoned after exhausting retries.
    pub fn record_abandoned(&self) {
        self.abandoned.inc();
        self.abort_reasons.record(AbortClass::Abandoned);
    }

    /// Records one offered transaction (open-loop arrival).
    pub fn record_arrival(&self) {
        self.arrivals.inc();
    }

    /// Records a transaction terminated by load shedding. Kept outside
    /// `abort_reasons` so `abort_reasons.total()` still equals
    /// `aborts + timeouts + abandoned` (sheds are refusals, not attempts).
    pub fn record_shed(&self) {
        self.sheds.inc();
    }

    /// A plain (`Send`) copy of the whole bundle: what a finished run hands
    /// out (also across a worker-thread boundary), and where every derived
    /// value and JSON surface lives.
    pub fn freeze(&self) -> FrozenTxnStats {
        FrozenTxnStats {
            commits: self.commits.get(),
            aborts: self.aborts.get(),
            timeouts: self.timeouts.get(),
            abandoned: self.abandoned.get(),
            arrivals: self.arrivals.get(),
            sheds: self.sheds.get(),
            latency: self.latency.snapshot(),
            abort_counts: self.abort_reasons.snapshot(),
            series_window_ns: self.commit_series.window_ns(),
            series_counts: self.commit_series.counts(),
        }
    }
}

/// A [`TxnStats`] snapshot with no shared interior — plain counters, an
/// owned [`Histogram`], owned abort and series counts — so a worker
/// thread can return it across the pool boundary (`TxnStats` is
/// `Rc`-backed and `!Send`). The live bundle only records; rates, merging
/// and JSON are here.
#[derive(Debug, Clone)]
pub struct FrozenTxnStats {
    /// Transactions that eventually committed.
    pub commits: u64,
    /// Aborted attempts.
    pub aborts: u64,
    /// Attempts that ended in transport timeouts / unknown outcomes.
    pub timeouts: u64,
    /// Transactions abandoned after `max_retries`.
    pub abandoned: u64,
    /// Transactions the workload offered (open-loop arrivals).
    pub arrivals: u64,
    /// Transactions terminated by load shedding.
    pub sheds: u64,
    /// Commit latency samples, nanoseconds.
    pub latency: Histogram,
    abort_counts: [u64; AbortClass::ALL.len()],
    series_window_ns: u64,
    series_counts: Vec<u64>,
}

impl FrozenTxnStats {
    /// Abort rate: aborted attempts over all attempts (the paper's
    /// Figure 6 / 7 metric).
    pub fn abort_rate(&self) -> f64 {
        let attempts = self.commits + self.aborts;
        if attempts == 0 {
            0.0
        } else {
            self.aborts as f64 / attempts as f64
        }
    }

    /// Committed transactions per virtual second over `elapsed`.
    pub fn throughput(&self, elapsed: Duration) -> f64 {
        self.commits as f64 / elapsed.as_secs_f64()
    }

    /// Count for one abort class.
    pub fn abort_count(&self, class: AbortClass) -> u64 {
        let idx = AbortClass::ALL
            .iter()
            .position(|&c| c == class)
            .expect("in ALL");
        self.abort_counts[idx]
    }

    /// Adds another snapshot's counts and samples into this one (used to
    /// aggregate across independent runs, e.g. per clock model; series
    /// windows merge positionally).
    pub fn merge_from(&mut self, other: &FrozenTxnStats) {
        self.commits += other.commits;
        self.aborts += other.aborts;
        self.timeouts += other.timeouts;
        self.abandoned += other.abandoned;
        self.arrivals += other.arrivals;
        self.sheds += other.sheds;
        self.latency.merge(&other.latency);
        for (a, b) in self.abort_counts.iter_mut().zip(other.abort_counts) {
            *a += b;
        }
        if self.series_counts.len() < other.series_counts.len() {
            self.series_counts.resize(other.series_counts.len(), 0);
        }
        for (a, b) in self.series_counts.iter_mut().zip(&other.series_counts) {
            *a += b;
        }
    }

    /// The abort breakdown as JSON — byte-identical to
    /// [`AbortBreakdown::to_json`] for the same counts.
    pub fn abort_reasons_json(&self) -> Json {
        let mut doc = Json::obj();
        for (class, &count) in AbortClass::ALL.iter().zip(&self.abort_counts) {
            doc = doc.field(class.as_str(), Json::U64(count));
        }
        doc
    }

    /// The commit series as JSON — byte-identical to
    /// [`TimeSeries::to_json`] for the same counts.
    pub fn commit_series_json(&self) -> Json {
        Json::obj()
            .field("window_ns", Json::U64(self.series_window_ns))
            .field(
                "counts",
                Json::arr(self.series_counts.iter().map(|&c| Json::U64(c))),
            )
    }

    /// Deterministic JSON summary of the whole bundle.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("commits", Json::U64(self.commits))
            .field("aborts", Json::U64(self.aborts))
            .field("timeouts", Json::U64(self.timeouts))
            .field("abandoned", Json::U64(self.abandoned))
            .field("arrivals", Json::U64(self.arrivals))
            .field("sheds", Json::U64(self.sheds))
            .field("abort_rate", Json::F64(self.abort_rate()))
            .field("abort_reasons", self.abort_reasons_json())
            .field("latency_ns", self.latency.summary_json())
            .field("commit_series", self.commit_series_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_flow_to_every_surface() {
        let s = TxnStats::new();
        s.record_commit(50_000_000, 1_000);
        s.record_commit(150_000_000, 3_000);
        s.record_abort(AbortClass::Validation);
        s.record_timeout();
        s.record_abandoned();
        s.record_arrival();
        s.record_shed();
        assert_eq!(s.arrivals.get(), 1);
        assert_eq!(s.sheds.get(), 1);
        // Sheds are refusals, not attempts: they stay out of the abort
        // breakdown so total() keeps matching aborts + timeouts + abandoned.
        assert_eq!(
            s.abort_reasons.total(),
            s.aborts.get() + s.timeouts.get() + s.abandoned.get()
        );
        assert_eq!(s.commits.get(), 2);
        assert_eq!(s.aborts.get(), 1);
        assert_eq!(s.timeouts.get(), 1);
        assert_eq!(s.abandoned.get(), 1);
        assert_eq!(s.latency.count(), 2);
        assert_eq!(s.abort_reasons.get(AbortClass::Validation), 1);
        assert_eq!(s.abort_reasons.get(AbortClass::UnknownOutcome), 1);
        assert_eq!(s.abort_reasons.get(AbortClass::Abandoned), 1);
        assert_eq!(s.commit_series.total(), 2);
        let rate = s.freeze().abort_rate();
        assert!((rate - 1.0 / 3.0).abs() < 1e-9, "{rate}");
    }

    #[test]
    fn clones_share_everything() {
        let a = TxnStats::new();
        let b = a.clone();
        b.record_commit(0, 10);
        assert_eq!(a.commits.get(), 1);
        assert_eq!(a.latency.count(), 1);
    }

    #[test]
    fn merge_aggregates_runs() {
        let a = TxnStats::new();
        let b = TxnStats::new();
        a.record_commit(0, 100);
        b.record_commit(0, 300);
        b.record_abort(AbortClass::PreparedRead);
        let mut merged = a.freeze();
        merged.merge_from(&b.freeze());
        assert_eq!(merged.commits, 2);
        assert_eq!(merged.aborts, 1);
        assert_eq!(merged.latency.count(), 2);
        assert_eq!(merged.abort_count(AbortClass::PreparedRead), 1);
    }

    #[test]
    fn freeze_mirrors_live_bundle_byte_for_byte() {
        let s = TxnStats::new();
        s.record_commit(50_000_000, 1_000);
        s.record_commit(350_000_000, 9_000);
        s.record_abort(AbortClass::Validation);
        s.record_abort(AbortClass::ClockSuspect);
        s.record_timeout();
        s.record_arrival();
        s.record_shed();
        let f = s.freeze();
        assert_eq!((f.commits, f.aborts, f.timeouts, f.abandoned), (2, 2, 1, 0));
        assert_eq!((f.arrivals, f.sheds), (1, 1));
        assert_eq!(
            f.abort_reasons_json().to_string(),
            s.abort_reasons.to_json().to_string()
        );
        assert_eq!(
            f.commit_series_json().to_string(),
            s.commit_series.to_json().to_string()
        );
        assert_eq!(f.abort_rate(), 0.5);
        assert_eq!(
            f.abort_count(AbortClass::Validation),
            s.abort_reasons.get(AbortClass::Validation)
        );
        let doc = f.to_json().to_string();
        assert!(
            doc.starts_with(
                r#"{"commits":2,"aborts":2,"timeouts":1,"abandoned":0,"arrivals":1,"sheds":1,"abort_rate":0.5,"abort_reasons":{"#
            ),
            "{doc}"
        );
        let latency = s.latency.snapshot().summary_json();
        assert!(doc.contains(&format!(r#""latency_ns":{latency}"#)), "{doc}");
        assert!(
            doc.ends_with(r#""commit_series":{"window_ns":100000000,"counts":[1,0,0,1]}}"#),
            "{doc}"
        );
    }

    #[test]
    fn frozen_merge_matches_live_merge() {
        let a = TxnStats::new();
        let b = TxnStats::new();
        a.record_commit(0, 100);
        b.record_commit(250_000_000, 300);
        b.record_abort(AbortClass::PreparedRead);
        b.record_timeout();
        let mut fa = a.freeze();
        fa.merge_from(&b.freeze());
        // One live bundle that recorded both runs is what the merge of
        // their snapshots must equal, on every surface.
        let both = TxnStats::new();
        both.record_commit(0, 100);
        both.record_commit(250_000_000, 300);
        both.record_abort(AbortClass::PreparedRead);
        both.record_timeout();
        assert_eq!(
            fa.to_json().to_string(),
            both.freeze().to_json().to_string()
        );
    }

    #[test]
    fn registered_names_land_in_registry() {
        let reg = Registry::new();
        let s = TxnStats::registered(&reg, "retwis");
        s.record_commit(0, 5);
        let snap = reg.snapshot().to_string();
        assert!(snap.contains(r#""retwis.commits":1"#), "{snap}");
        assert!(snap.contains(r#""retwis.latency_ns":{"count":1"#), "{snap}");
    }
}

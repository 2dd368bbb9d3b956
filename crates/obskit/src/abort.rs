//! The abort-reason taxonomy shared by MILANA, Centiman, and SEMEL.
//!
//! Every layer maps its local failure type onto [`AbortClass`], so the
//! experiment harnesses can break aborts down uniformly — the lever the
//! paper's Figures 6–9 turn on (which clock skew, which validation path
//! caused each abort).

use std::cell::RefCell;
use std::rc::Rc;

use crate::json::Json;

/// Why a transaction attempt failed, normalized across subsystems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AbortClass {
    /// Remote validation rejected the read set (Algorithm 1 conflict —
    /// a concurrent commit stamped a newer version inside the snapshot).
    Validation,
    /// Local validation saw a prepared version in the read set (§4.3).
    PreparedRead,
    /// A single-version backend lost the snapshot the reader needed.
    SnapshotUnavailable,
    /// A 2PC participant was unreachable and the coordinator aborted.
    ParticipantUnreachable,
    /// The watermark passed the transaction's begin timestamp (Centiman's
    /// stale-snapshot rule).
    WatermarkStale,
    /// The application explicitly aborted.
    UserRequested,
    /// Transport timeout / unknown outcome (resolved later by CTP).
    UnknownOutcome,
    /// The driver gave up after `max_retries` attempts.
    Abandoned,
    /// A server shed the request under overload (loadkit admission control
    /// or deadline expiry) and the client exhausted its retry allowance.
    Shed,
    /// The client routed a request using a shard map older than the
    /// server's — the key moved to another owner in a newer epoch. The
    /// client must refetch the map and retry against the new owner.
    StaleEpoch,
    /// The server's clock-health tracker judged the client's `ts_commit`
    /// inconsistent with its own clock beyond the promised uncertainty
    /// bound ε — a definite no-vote, not a validation conflict.
    ClockSuspect,
}

impl AbortClass {
    /// Every class, in the canonical (serialization) order.
    pub const ALL: [AbortClass; 11] = [
        AbortClass::Validation,
        AbortClass::PreparedRead,
        AbortClass::SnapshotUnavailable,
        AbortClass::ParticipantUnreachable,
        AbortClass::WatermarkStale,
        AbortClass::UserRequested,
        AbortClass::UnknownOutcome,
        AbortClass::Abandoned,
        AbortClass::Shed,
        AbortClass::StaleEpoch,
        AbortClass::ClockSuspect,
    ];

    /// Stable machine-readable name (used as JSON keys).
    pub fn as_str(self) -> &'static str {
        match self {
            AbortClass::Validation => "validation",
            AbortClass::PreparedRead => "prepared_read",
            AbortClass::SnapshotUnavailable => "snapshot_unavailable",
            AbortClass::ParticipantUnreachable => "participant_unreachable",
            AbortClass::WatermarkStale => "watermark_stale",
            AbortClass::UserRequested => "user_requested",
            AbortClass::UnknownOutcome => "unknown_outcome",
            AbortClass::Abandoned => "abandoned",
            AbortClass::Shed => "shed",
            AbortClass::StaleEpoch => "stale_epoch",
            AbortClass::ClockSuspect => "clock_suspect",
        }
    }

    fn index(self) -> usize {
        AbortClass::ALL
            .iter()
            .position(|&c| c == self)
            .expect("in ALL")
    }
}

impl std::fmt::Display for AbortClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Per-class abort counters. Cloning shares the counts.
#[derive(Debug, Clone, Default)]
pub struct AbortBreakdown {
    counts: Rc<RefCell<[u64; AbortClass::ALL.len()]>>,
}

impl AbortBreakdown {
    /// An empty breakdown.
    pub fn new() -> AbortBreakdown {
        AbortBreakdown::default()
    }

    /// Counts one abort of `class`.
    pub fn record(&self, class: AbortClass) {
        self.counts.borrow_mut()[class.index()] += 1;
    }

    /// Count for one class.
    pub fn get(&self, class: AbortClass) -> u64 {
        self.counts.borrow()[class.index()]
    }

    /// Total aborts across all classes.
    pub fn total(&self) -> u64 {
        self.counts.borrow().iter().sum()
    }

    /// A plain copy of the per-class counts, indexed like
    /// [`AbortClass::ALL`] (the `Send` snapshot worker threads hand back
    /// to the merge step).
    pub fn snapshot(&self) -> [u64; AbortClass::ALL.len()] {
        *self.counts.borrow()
    }

    /// Adds another breakdown's counts into this one.
    pub fn merge_from(&self, other: &AbortBreakdown) {
        let theirs = other.snapshot();
        let mut mine = self.counts.borrow_mut();
        for (a, b) in mine.iter_mut().zip(theirs) {
            *a += b;
        }
    }

    /// Deterministic JSON object: every class in canonical order (zero
    /// counts included, so schemas are stable run to run).
    pub fn to_json(&self) -> Json {
        let mut doc = Json::obj();
        for class in AbortClass::ALL {
            doc = doc.field(class.as_str(), Json::U64(self.get(class)));
        }
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_total() {
        let b = AbortBreakdown::new();
        b.record(AbortClass::Validation);
        b.record(AbortClass::Validation);
        b.record(AbortClass::PreparedRead);
        assert_eq!(b.get(AbortClass::Validation), 2);
        assert_eq!(b.get(AbortClass::PreparedRead), 1);
        assert_eq!(b.get(AbortClass::Abandoned), 0);
        assert_eq!(b.total(), 3);
    }

    #[test]
    fn merge_adds_per_class() {
        let a = AbortBreakdown::new();
        let b = AbortBreakdown::new();
        a.record(AbortClass::Validation);
        b.record(AbortClass::Validation);
        b.record(AbortClass::UnknownOutcome);
        a.merge_from(&b);
        assert_eq!(a.get(AbortClass::Validation), 2);
        assert_eq!(a.get(AbortClass::UnknownOutcome), 1);
    }

    #[test]
    fn json_has_every_class_in_order() {
        let b = AbortBreakdown::new();
        b.record(AbortClass::WatermarkStale);
        let s = b.to_json().to_string();
        assert_eq!(
            s,
            r#"{"validation":0,"prepared_read":0,"snapshot_unavailable":0,"participant_unreachable":0,"watermark_stale":1,"user_requested":0,"unknown_outcome":0,"abandoned":0,"shed":0,"stale_epoch":0,"clock_suspect":0}"#
        );
    }

    #[test]
    fn clones_share_counts() {
        let a = AbortBreakdown::new();
        let b = a.clone();
        b.record(AbortClass::Abandoned);
        assert_eq!(a.get(AbortClass::Abandoned), 1);
    }
}

//! Timestamps and version stamps.
//!
//! SEMEL orders every write by a version `V = (timestamp, clientID)` (§3).
//! The timestamp is the writing client's local clock reading; the client id
//! breaks ties, giving a total order over simultaneous writes from different
//! clients and supporting linearizability (§3.3).

use std::fmt;
use std::time::Duration;

use simkit::time::SimTime;

/// Identifies a SEMEL/MILANA client (an application server).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ClientId(pub u32);

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A client-local clock reading, in nanoseconds.
///
/// A 64-bit nanosecond timestamp does not wrap for centuries, matching the
/// paper's observation that wraparound is a non-issue (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// The zero timestamp; sorts before any real clock reading.
    pub const ZERO: Timestamp = Timestamp(0);

    /// The greatest representable timestamp.
    pub const MAX: Timestamp = Timestamp(u64::MAX);

    /// Nanoseconds since the epoch of the issuing clock.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Interprets *true* simulation time as a timestamp (used by perfect
    /// clocks and by tests).
    pub const fn from_sim(t: SimTime) -> Timestamp {
        Timestamp(t.as_nanos())
    }

    /// The timestamp `d` later than `self`.
    pub fn after(self, d: Duration) -> Timestamp {
        Timestamp(self.0.saturating_add(d.as_nanos() as u64))
    }

    /// The timestamp `d` earlier than `self`, saturating at zero.
    pub fn before(self, d: Duration) -> Timestamp {
        Timestamp(self.0.saturating_sub(d.as_nanos() as u64))
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0 as f64 / 1e9)
    }
}

/// A SEMEL version stamp: `(timestamp, client_id)`, totally ordered.
///
/// # Examples
///
/// ```
/// use timesync::{ClientId, Timestamp, Version};
///
/// let a = Version::new(Timestamp(100), ClientId(1));
/// let b = Version::new(Timestamp(100), ClientId(2));
/// let c = Version::new(Timestamp(101), ClientId(0));
/// assert!(a < b); // client id breaks timestamp ties
/// assert!(b < c); // timestamp dominates
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Version {
    /// The writing client's clock at write time.
    pub ts: Timestamp,
    /// The writing client (tie-breaker).
    pub client: ClientId,
}

impl Version {
    /// Creates a version stamp.
    pub const fn new(ts: Timestamp, client: ClientId) -> Version {
        Version { ts, client }
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.client, self.ts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_order_is_timestamp_then_client() {
        let mut vs = vec![
            Version::new(Timestamp(5), ClientId(9)),
            Version::new(Timestamp(5), ClientId(1)),
            Version::new(Timestamp(2), ClientId(3)),
        ];
        vs.sort();
        assert_eq!(
            vs,
            vec![
                Version::new(Timestamp(2), ClientId(3)),
                Version::new(Timestamp(5), ClientId(1)),
                Version::new(Timestamp(5), ClientId(9)),
            ]
        );
    }

    #[test]
    fn timestamp_arithmetic() {
        let t = Timestamp(1_000);
        assert_eq!(t.after(Duration::from_nanos(5)), Timestamp(1_005));
        assert_eq!(t.before(Duration::from_nanos(5)), Timestamp(995));
        assert_eq!(Timestamp(3).before(Duration::from_secs(1)), Timestamp::ZERO);
    }

    #[test]
    fn from_sim_preserves_nanos() {
        assert_eq!(
            Timestamp::from_sim(SimTime::from_micros(7)),
            Timestamp(7_000)
        );
    }
}

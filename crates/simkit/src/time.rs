//! Virtual time for the simulation.
//!
//! [`SimTime`] is an absolute instant on the simulated timeline, measured in
//! nanoseconds since the simulation epoch. Spans of time are expressed with
//! the standard [`core::time::Duration`].

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// An absolute instant of simulated time, in nanoseconds since the epoch.
///
/// `SimTime` is the *true* (oracle) time of the simulation; per-client skewed
/// clocks are built on top of it by the `timesync` crate.
///
/// # Examples
///
/// ```
/// use simkit::time::SimTime;
/// use std::time::Duration;
///
/// let t = SimTime::ZERO + Duration::from_micros(50);
/// assert_eq!(t.as_nanos(), 50_000);
/// assert_eq!(t - SimTime::ZERO, Duration::from_micros(50));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// The greatest representable instant.
    pub(crate) const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from nanoseconds since the epoch.
    pub const fn from_nanos(ns: u64) -> SimTime {
        SimTime(ns)
    }

    /// Creates an instant from microseconds since the epoch.
    pub const fn from_micros(us: u64) -> SimTime {
        SimTime(us * 1_000)
    }

    /// Creates an instant from milliseconds since the epoch.
    pub const fn from_millis(ms: u64) -> SimTime {
        SimTime(ms * 1_000_000)
    }

    /// Creates an instant from seconds since the epoch.
    pub const fn from_secs(s: u64) -> SimTime {
        SimTime(s * 1_000_000_000)
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds since the epoch.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Saturating addition of a duration.
    pub(crate) fn saturating_add(self, d: Duration) -> SimTime {
        SimTime(self.0.saturating_add(d.as_nanos() as u64))
    }

    /// Duration since an earlier instant, or [`Duration::ZERO`] if `earlier`
    /// is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }

    /// Applies a signed offset in nanoseconds, saturating at the timeline
    /// boundaries. Used by skewed-clock models.
    pub fn offset_by(self, ns: i64) -> SimTime {
        if ns >= 0 {
            SimTime(self.0.saturating_add(ns as u64))
        } else {
            SimTime(self.0.saturating_sub(ns.unsigned_abs()))
        }
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.as_nanos() as u64)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.as_nanos() as u64;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;

    /// # Panics
    ///
    /// Panics if `rhs` is later than `self`.
    fn sub(self, rhs: SimTime) -> Duration {
        Duration::from_nanos(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow"),
        )
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.6}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimTime::from_secs(3).as_millis(), 3_000);
    }

    #[test]
    fn add_sub_duration() {
        let a = SimTime::from_micros(10);
        let b = a + Duration::from_micros(5);
        assert_eq!(b - a, Duration::from_micros(5));
        assert_eq!(b.saturating_since(a), Duration::from_micros(5));
        assert_eq!(a.saturating_since(b), Duration::ZERO);
    }

    #[test]
    fn signed_offsets_saturate() {
        assert_eq!(SimTime::from_nanos(100).offset_by(-200), SimTime::ZERO);
        assert_eq!(SimTime::from_nanos(100).offset_by(50).as_nanos(), 150);
        assert_eq!(SimTime::MAX.offset_by(10), SimTime::MAX);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = SimTime::ZERO - SimTime::from_nanos(1);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimTime::from_nanos(5).to_string(), "5ns");
        assert_eq!(SimTime::from_micros(5).to_string(), "5.000us");
        assert_eq!(SimTime::from_millis(5).to_string(), "5.000ms");
        assert_eq!(SimTime::from_secs(5).to_string(), "5.000000s");
    }
}

//! One place to choose a clock: discipline plus optional fault model.
//!
//! Call sites used to pick a bare [`Discipline`] constant wherever a clock
//! was built. `ClockSpec` bundles that choice with the fault knobs added for
//! clock-health experiments (persistent oscillator drift today; the spec is
//! the extension point for future fault models) so cluster configs carry a
//! single clock description end to end.

use crate::clock::{Discipline, SyncedClock};

/// A complete clock description: the sync discipline plus any baked-in
/// oscillator fault. Convert from a bare [`Discipline`] with `.into()`.
///
/// # Examples
///
/// ```
/// use timesync::{ClockSpec, Discipline};
///
/// let spec = ClockSpec::ptp_software();
/// assert_eq!(spec.discipline, Discipline::PtpSoftware);
/// let faulty = ClockSpec {
///     drift_ns_per_s: 1_000_000, // +1ms error per s
///     ..ClockSpec::ntp()
/// };
/// assert_eq!(faulty.discipline, Discipline::Ntp);
/// let from_disc: ClockSpec = Discipline::Perfect.into();
/// assert_eq!(from_disc, ClockSpec::perfect());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ClockSpec {
    /// The synchronization discipline clocks are built with.
    pub discipline: Discipline,
    /// Persistent oscillator drift in ns of error per second of true time;
    /// `0` (the default) for an honest clock.
    pub drift_ns_per_s: i64,
}

impl ClockSpec {
    /// Zero-skew clocks reading true time.
    pub fn perfect() -> ClockSpec {
        Discipline::Perfect.into()
    }

    /// PTP with software timestamping (~53 µs pairwise skew, §5.2).
    pub fn ptp_software() -> ClockSpec {
        Discipline::PtpSoftware.into()
    }

    /// NTP (~1.51 ms pairwise skew, §5.2).
    pub fn ntp() -> ClockSpec {
        Discipline::Ntp.into()
    }

    /// Builds one clock from this spec with its own RNG stream.
    pub fn build(&self, seed: u64) -> SyncedClock {
        SyncedClock::from_spec(self, seed)
    }
}

impl From<Discipline> for ClockSpec {
    fn from(discipline: Discipline) -> ClockSpec {
        ClockSpec {
            discipline,
            drift_ns_per_s: 0,
        }
    }
}

impl Default for ClockSpec {
    /// Defaults to the prototype's measured deployment: PTP with software
    /// timestamping.
    fn default() -> ClockSpec {
        ClockSpec::ptp_software()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_match_disciplines() {
        assert_eq!(ClockSpec::perfect().discipline, Discipline::Perfect);
        assert_eq!(ClockSpec::ntp().discipline, Discipline::Ntp);
        assert_eq!(ClockSpec::default(), ClockSpec::ptp_software());
    }

    #[test]
    fn build_seeds_clock_with_spec() {
        let spec = ClockSpec {
            drift_ns_per_s: 1_000,
            ..ClockSpec::perfect()
        };
        let clock = spec.build(7);
        assert_eq!(clock.drift_ns_per_s(), 1_000);
        assert_eq!(*clock.discipline(), Discipline::Perfect);
    }
}

//! Watermarks: a global lower bound on client clocks.
//!
//! Each client periodically broadcasts the timestamp of its last *decided*
//! operation; the minimum across clients is the watermark (§3.1, §4.4).
//! Because client clocks are monotonic, no client will ever issue a new
//! operation with a timestamp below the watermark, so storage servers may
//! discard every version of a key older than the youngest version at or
//! below the watermark.

use perfkit::FastMap;

use crate::version::{ClientId, Timestamp};

/// Tracks per-client progress timestamps and derives the watermark.
///
/// The watermark is only valid once *every* registered client has reported
/// at least once; before that it is pinned at [`Timestamp::ZERO`], which is
/// always safe (it retains everything).
///
/// # Examples
///
/// ```
/// use timesync::{ClientId, Timestamp, WatermarkTracker};
///
/// let mut w = WatermarkTracker::new([ClientId(0), ClientId(1)]);
/// w.update(ClientId(0), Timestamp(100));
/// assert_eq!(w.watermark(), Timestamp::ZERO); // client 1 not heard from
/// w.update(ClientId(1), Timestamp(70));
/// assert_eq!(w.watermark(), Timestamp(70));
/// ```
#[derive(Debug, Clone, Default)]
pub struct WatermarkTracker {
    latest: FastMap<ClientId, Timestamp>,
}

impl WatermarkTracker {
    /// Creates a tracker expecting reports from the given clients.
    pub fn new(clients: impl IntoIterator<Item = ClientId>) -> WatermarkTracker {
        WatermarkTracker {
            latest: clients.into_iter().map(|c| (c, Timestamp::ZERO)).collect(),
        }
    }

    /// Records a progress report. Stale (out-of-order) reports are ignored.
    pub fn update(&mut self, client: ClientId, ts: Timestamp) {
        let e = self.latest.entry(client).or_insert(Timestamp::ZERO);
        if ts > *e {
            *e = ts;
        }
    }

    /// Rehydrates the tracker from a durable floor record after a cold
    /// restart: every registered client is raised to at least `floor`.
    ///
    /// Sound because the floor was only recorded once every client had
    /// reported a timestamp `>= floor`, and client clocks are monotonic —
    /// a promise once made holds forever, even across the replica losing
    /// its RAM. Clients that reported higher before the crash simply
    /// re-report; the watermark never regresses below the floor.
    pub fn rehydrate(&mut self, floor: Timestamp) {
        for ts in self.latest.values_mut() {
            if floor > *ts {
                *ts = floor;
            }
        }
    }

    /// The current watermark: the minimum reported timestamp across clients,
    /// or [`Timestamp::MAX`] when no clients are registered.
    pub fn watermark(&self) -> Timestamp {
        self.latest
            .values()
            .copied()
            .min()
            .unwrap_or(Timestamp::MAX)
    }

    /// True when no clients are registered.
    pub fn is_empty(&self) -> bool {
        self.latest.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watermark_is_minimum() {
        let mut w = WatermarkTracker::new([ClientId(0), ClientId(1), ClientId(2)]);
        w.update(ClientId(0), Timestamp(30));
        w.update(ClientId(1), Timestamp(10));
        w.update(ClientId(2), Timestamp(20));
        assert_eq!(w.watermark(), Timestamp(10));
    }

    #[test]
    fn stale_updates_ignored() {
        let mut w = WatermarkTracker::new([ClientId(0)]);
        w.update(ClientId(0), Timestamp(50));
        w.update(ClientId(0), Timestamp(40));
        assert_eq!(w.watermark(), Timestamp(50));
    }

    #[test]
    fn unreported_client_pins_watermark_to_zero() {
        let mut w = WatermarkTracker::new([ClientId(0), ClientId(1)]);
        w.update(ClientId(0), Timestamp(99));
        assert_eq!(w.watermark(), Timestamp::ZERO);
    }

    #[test]
    fn empty_tracker_retains_nothing() {
        let w = WatermarkTracker::new([]);
        assert_eq!(w.watermark(), Timestamp::MAX);
        assert!(w.is_empty());
    }

    #[test]
    fn rehydrate_raises_every_client_to_the_floor() {
        let mut w = WatermarkTracker::new([ClientId(0), ClientId(1), ClientId(2)]);
        w.rehydrate(Timestamp(40));
        // No client has reported since the restart, yet the durable floor
        // already promises none will write below 40.
        assert_eq!(w.watermark(), Timestamp(40));
    }

    #[test]
    fn rehydrate_never_lowers_reports() {
        let mut w = WatermarkTracker::new([ClientId(0), ClientId(1)]);
        w.update(ClientId(0), Timestamp(100));
        w.rehydrate(Timestamp(40));
        assert_eq!(w.watermark(), Timestamp(40));
        w.update(ClientId(1), Timestamp(120));
        assert_eq!(w.watermark(), Timestamp(100));
    }

    #[test]
    fn watermark_monotonic_across_power_fail_mount_and_clock_step() {
        // Pre-failure: both clients reported, floor recorded at the min.
        let mut w = WatermarkTracker::new([ClientId(0), ClientId(1)]);
        w.update(ClientId(0), Timestamp(80));
        w.update(ClientId(1), Timestamp(60));
        let floor = w.watermark();
        assert_eq!(floor, Timestamp(60));
        // Power fail + cold mount: RAM state gone, tracker rebuilt from the
        // durable floor alone.
        let mut w = WatermarkTracker::new([ClientId(0), ClientId(1)]);
        w.rehydrate(floor);
        let mut last = w.watermark();
        assert_eq!(last, floor);
        // A clock step makes a client re-report an *older* local time; the
        // stale report must not drag the watermark below the floor.
        w.update(ClientId(0), Timestamp(55));
        assert!(w.watermark() >= last);
        // Normal progress resumes monotonically.
        for i in 0..50u64 {
            w.update(ClientId((i % 2) as u32), Timestamp(61 + i));
            assert!(w.watermark() >= last);
            last = w.watermark();
        }
    }

    #[test]
    fn watermark_is_monotonic_under_updates() {
        let mut w = WatermarkTracker::new([ClientId(0), ClientId(1)]);
        w.update(ClientId(0), Timestamp(5));
        w.update(ClientId(1), Timestamp(5));
        let mut last = w.watermark();
        for i in 0..100u64 {
            w.update(ClientId((i % 2) as u32), Timestamp(6 + i));
            assert!(w.watermark() >= last);
            last = w.watermark();
        }
    }
}

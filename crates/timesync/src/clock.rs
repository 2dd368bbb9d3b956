//! Skewed, monotonic, periodically re-synchronized client clocks.
//!
//! Each client's clock is modeled as true simulation time plus an offset that
//! is re-drawn every synchronization interval (PTP and NTP daemons typically
//! exchange sync messages every couple of seconds, §2.1). The offset
//! distribution is calibrated so that the *average pairwise skew* across
//! clients matches the paper's measurements:
//!
//! - NTP: mean skew ≈ **1.51 ms** (§5.2)
//! - PTP software timestamping: mean skew ≈ **53.2 µs** (§5.2)
//! - PTP hardware timestamping: well under 1 µs (§2.1; ≈150 ns per
//!   Lee et al. \[37\])
//!
//! For offsets drawn i.i.d. `Normal(0, σ)`, the expected absolute difference
//! between two clients' offsets is `2σ/√π ≈ 1.128σ`; the constructors below
//! invert that relation.

use std::cell::RefCell;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use simkit::rng::normal;
use simkit::time::SimTime;

use crate::version::Timestamp;

/// A clock-synchronization discipline: how far a client clock strays from
/// true time and how often it resynchronizes.
#[derive(Debug, Clone, PartialEq)]
pub enum Discipline {
    /// Zero skew — the client reads true time. Baseline for experiments that
    /// must isolate non-clock effects (e.g. Figure 6 runs on one machine).
    Perfect,
    /// PTP with NIC hardware timestamping: ~150 ns pairwise skew.
    PtpHardware,
    /// PTP with software timestamping: ~53 µs mean pairwise skew, matching
    /// the prototype measurement in §5.2.
    PtpSoftware,
    /// NTP: ~1.51 ms mean pairwise skew, matching §5.2.
    Ntp,
    /// Custom Gaussian offset model.
    Custom {
        /// Standard deviation of the per-sync offset draw.
        offset_std: Duration,
        /// How often the offset is re-drawn.
        sync_interval: Duration,
    },
}

impl Discipline {
    /// Offset standard deviation σ (ns) such that mean pairwise skew matches
    /// the calibration target (`skew = 1.128 σ`).
    fn offset_std_ns(&self) -> f64 {
        const PAIRWISE_FACTOR: f64 = std::f64::consts::FRAC_2_SQRT_PI;
        match self {
            Discipline::Perfect => 0.0,
            Discipline::PtpHardware => 150.0 / PAIRWISE_FACTOR,
            Discipline::PtpSoftware => 53_200.0 / PAIRWISE_FACTOR,
            Discipline::Ntp => 1_510_000.0 / PAIRWISE_FACTOR,
            Discipline::Custom { offset_std, .. } => offset_std.as_nanos() as f64,
        }
    }

    /// Interval between offset re-draws.
    pub(crate) fn sync_interval(&self) -> Duration {
        match self {
            Discipline::Custom { sync_interval, .. } => *sync_interval,
            _ => Duration::from_secs(2),
        }
    }

    /// Expected mean pairwise skew across clients under this discipline.
    pub fn expected_skew(&self) -> Duration {
        Duration::from_nanos((self.offset_std_ns() * std::f64::consts::FRAC_2_SQRT_PI) as u64)
    }
}

#[derive(Debug)]
struct ClockState {
    offset_ns: i64,
    next_sync: SimTime,
    last_issued: Timestamp,
    /// Persistent oscillator drift (ns of error accrued per second of true
    /// time). `0` for an honest clock.
    drift_ns_per_s: i64,
    /// True time the current drift segment started (ns).
    drift_anchor_ns: u64,
    /// Holdover: the sync source is lost, so offsets are never redrawn and
    /// the oscillator free-runs at `drift_ns_per_s`.
    holdover: bool,
    /// Trace sink for resync events; disabled by default.
    tracer: obskit::Tracer,
    /// Client id stamped on emitted trace events.
    trace_client: u64,
}

impl ClockState {
    /// Total correction at true time `now_ns`: the sampled offset plus
    /// whatever the drift segment has accrued since its anchor.
    fn offset_at(&self, now_ns: u64) -> i64 {
        let elapsed = now_ns.saturating_sub(self.drift_anchor_ns) as i128;
        let drifted = elapsed * self.drift_ns_per_s as i128 / 1_000_000_000;
        self.offset_ns.saturating_add(drifted as i64)
    }

    /// Folds accrued drift into the base offset and re-anchors at `now_ns`
    /// — called whenever the drift rate changes so past error is kept.
    fn rebase(&mut self, now_ns: u64) {
        self.offset_ns = self.offset_at(now_ns);
        self.drift_anchor_ns = now_ns;
    }
}

/// A per-client clock: skewed against true time, strictly monotonic in what
/// it hands out.
///
/// `SyncedClock` is driven externally: callers pass the current *true*
/// simulation time to [`SyncedClock::now`], which applies the discipline's
/// offset (resampling it when a sync boundary has passed) and clamps the
/// result so repeated reads never go backwards — mirroring how PTP/NTP slew
/// rather than step clocks (§3.1 relies on this monotonicity for watermark
/// safety).
///
/// # Examples
///
/// ```
/// use timesync::{Discipline, SyncedClock};
/// use simkit::time::SimTime;
///
/// let clock = SyncedClock::new(Discipline::PtpSoftware, 42);
/// let t1 = clock.now(SimTime::from_millis(10));
/// let t2 = clock.now(SimTime::from_millis(10)); // same instant, later read
/// assert!(t2 > t1); // strictly monotonic
/// ```
#[derive(Debug)]
pub struct SyncedClock {
    discipline: Discipline,
    state: RefCell<ClockState>,
    rng: RefCell<StdRng>,
}

impl SyncedClock {
    /// Creates a clock with its own RNG stream derived from `seed`.
    pub fn new(discipline: Discipline, seed: u64) -> SyncedClock {
        let mut rng = StdRng::seed_from_u64(seed);
        let std = discipline.offset_std_ns();
        let offset_ns = if std == 0.0 {
            0
        } else {
            normal(&mut rng, 0.0, std) as i64
        };
        SyncedClock {
            state: RefCell::new(ClockState {
                offset_ns,
                next_sync: SimTime::ZERO + discipline.sync_interval(),
                last_issued: Timestamp::ZERO,
                drift_ns_per_s: 0,
                drift_anchor_ns: 0,
                holdover: false,
                tracer: obskit::Tracer::disabled(),
                trace_client: 0,
            }),
            discipline,
            rng: RefCell::new(rng),
        }
    }

    /// Builds a clock from a [`crate::ClockSpec`]: the spec's discipline plus
    /// any baked-in oscillator drift.
    pub fn from_spec(spec: &crate::ClockSpec, seed: u64) -> SyncedClock {
        let clock = SyncedClock::new(spec.discipline.clone(), seed);
        if spec.drift_ns_per_s != 0 {
            clock.inject_drift(spec.drift_ns_per_s, SimTime::ZERO);
        }
        clock
    }

    /// The discipline this clock follows.
    pub fn discipline(&self) -> &Discipline {
        &self.discipline
    }

    /// Attaches a trace sink; each offset resample emits a
    /// [`obskit::TraceEvent::ClockSync`] stamped with `client`.
    pub fn attach_tracer(&self, tracer: &obskit::Tracer, client: u64) {
        let mut st = self.state.borrow_mut();
        st.tracer = tracer.clone();
        st.trace_client = client;
    }

    /// Reads the clock at true time `true_now`.
    ///
    /// Successive reads return strictly increasing timestamps even if the
    /// offset resample would move the clock backwards.
    pub fn now(&self, true_now: SimTime) -> Timestamp {
        let mut st = self.state.borrow_mut();
        if !st.holdover && true_now >= st.next_sync {
            let std = self.discipline.offset_std_ns();
            if std > 0.0 {
                st.offset_ns = normal(&mut *self.rng.borrow_mut(), 0.0, std) as i64;
            } else if st.drift_ns_per_s != 0 {
                // A perfect-discipline sync still corrects the error the
                // drifting oscillator accrued since the last exchange.
                st.offset_ns = 0;
            }
            // The sync exchange corrects accrued drift; the (faulty) rate
            // itself survives, so error re-grows until the next boundary.
            st.drift_anchor_ns = true_now.as_nanos();
            let interval = self.discipline.sync_interval();
            while st.next_sync <= true_now {
                st.next_sync += interval;
            }
            st.tracer.record(
                true_now.as_nanos(),
                obskit::TraceEvent::ClockSync {
                    client: st.trace_client,
                    offset_ns: st.offset_ns,
                },
            );
        }
        let raw = Timestamp(
            true_now
                .offset_by(st.offset_at(true_now.as_nanos()))
                .as_nanos(),
        );
        let issued = if raw <= st.last_issued {
            Timestamp(st.last_issued.0 + 1)
        } else {
            raw
        };
        st.last_issued = issued;
        issued
    }

    /// The clock's current offset from true time, in nanoseconds (positive
    /// means the clock runs ahead). Exposed for skew instrumentation.
    pub fn offset_ns(&self) -> i64 {
        self.state.borrow().offset_ns
    }

    /// Fault injection: steps the clock's offset by `delta_ns`, as a broken
    /// sync daemon or a leap-second mishap would. The anomaly persists until
    /// the next scheduled resync redraws the offset. Issued timestamps are
    /// still clamped monotonic, so a large negative step manifests as the
    /// clock slewing (standing still) rather than running backwards —
    /// exactly the behavior §3.1's watermark safety argument relies on.
    ///
    /// Emits a [`obskit::TraceEvent::ClockSync`] recording the new offset
    /// when a tracer is attached (`at_ns` = 0 is used when the step happens
    /// before any read; steps are virtual-time-free events).
    pub fn inject_step(&self, delta_ns: i64) {
        let mut st = self.state.borrow_mut();
        st.offset_ns = st.offset_ns.saturating_add(delta_ns);
        st.tracer.record(
            st.last_issued.0,
            obskit::TraceEvent::ClockSync {
                client: st.trace_client,
                offset_ns: st.offset_ns,
            },
        );
    }

    /// Fault injection: gives the oscillator a persistent drift of
    /// `rate_ns_per_s` nanoseconds of error per second of true time,
    /// starting at true time `now`. Error accrued under any previous rate is
    /// folded into the offset so the clock never snaps. Each sync exchange
    /// corrects the accrued error (the rate itself survives), so a synced
    /// drifting clock strays by at most `rate × sync_interval` — combine
    /// with [`SyncedClock::enter_holdover`] for unbounded runaway.
    pub fn inject_drift(&self, rate_ns_per_s: i64, now: SimTime) {
        let mut st = self.state.borrow_mut();
        st.rebase(now.as_nanos());
        st.drift_ns_per_s = rate_ns_per_s;
    }

    /// Fault injection: the sync source is lost (holdover). Offsets are no
    /// longer redrawn and accrued drift is never corrected, so the clock
    /// free-runs at whatever [`SyncedClock::inject_drift`] rate is active.
    pub fn enter_holdover(&self) {
        self.state.borrow_mut().holdover = true;
    }

    /// Ends holdover at true time `now`; the next read resynchronizes.
    pub fn exit_holdover(&self, now: SimTime) {
        let mut st = self.state.borrow_mut();
        if !st.holdover {
            return;
        }
        st.holdover = false;
        st.next_sync = now;
    }

    /// The active oscillator drift rate (ns of error per second), `0` unless
    /// [`SyncedClock::inject_drift`] was called.
    pub fn drift_ns_per_s(&self) -> i64 {
        self.state.borrow().drift_ns_per_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mean absolute pairwise offset difference across `clocks`, in
    /// nanoseconds: the achieved skew the calibration tests check.
    fn mean_pairwise_skew_ns(clocks: &[&SyncedClock]) -> f64 {
        let mut total = 0.0;
        let mut pairs = 0u64;
        for i in 0..clocks.len() {
            for j in (i + 1)..clocks.len() {
                total += (clocks[i].offset_ns() - clocks[j].offset_ns()).abs() as f64;
                pairs += 1;
            }
        }
        total / pairs as f64
    }

    #[test]
    fn perfect_clock_reads_true_time() {
        let c = SyncedClock::new(Discipline::Perfect, 1);
        assert_eq!(c.now(SimTime::from_micros(5)), Timestamp(5_000));
        assert_eq!(c.now(SimTime::from_micros(6)), Timestamp(6_000));
    }

    #[test]
    fn monotonic_even_at_same_instant() {
        let c = SyncedClock::new(Discipline::Ntp, 7);
        let t = SimTime::from_millis(1);
        let a = c.now(t);
        let b = c.now(t);
        let d = c.now(t);
        assert!(a < b && b < d);
    }

    #[test]
    fn monotonic_across_resync_that_jumps_backwards() {
        // Run many clocks over many sync intervals; issued stamps must never
        // regress even when the freshly sampled offset is far lower.
        for seed in 0..20 {
            let c = SyncedClock::new(Discipline::Ntp, seed);
            let mut last = Timestamp::ZERO;
            for ms in (0..30_000).step_by(250) {
                let ts = c.now(SimTime::from_millis(ms));
                assert!(ts > last, "seed {seed} regressed at {ms}ms");
                last = ts;
            }
        }
    }

    #[test]
    fn ntp_skew_magnitude_matches_calibration() {
        let clocks: Vec<SyncedClock> = (0..400)
            .map(|i| SyncedClock::new(Discipline::Ntp, 1000 + i))
            .collect();
        let refs: Vec<&SyncedClock> = clocks.iter().collect();
        let skew = mean_pairwise_skew_ns(&refs);
        let target = 1_510_000.0;
        assert!(
            (skew - target).abs() / target < 0.15,
            "mean skew {skew}ns vs target {target}ns"
        );
    }

    #[test]
    fn ptp_sw_skew_magnitude_matches_calibration() {
        let clocks: Vec<SyncedClock> = (0..400)
            .map(|i| SyncedClock::new(Discipline::PtpSoftware, 2000 + i))
            .collect();
        let refs: Vec<&SyncedClock> = clocks.iter().collect();
        let skew = mean_pairwise_skew_ns(&refs);
        let target = 53_200.0;
        assert!(
            (skew - target).abs() / target < 0.15,
            "mean skew {skew}ns vs target {target}ns"
        );
    }

    #[test]
    fn disciplines_are_ordered_by_precision() {
        let hw = Discipline::PtpHardware.expected_skew();
        let sw = Discipline::PtpSoftware.expected_skew();
        let ntp = Discipline::Ntp.expected_skew();
        assert!(hw < sw && sw < ntp);
        assert_eq!(Discipline::Perfect.expected_skew(), Duration::ZERO);
    }

    #[test]
    fn offset_resamples_at_sync_interval() {
        let c = SyncedClock::new(Discipline::Ntp, 3);
        let before = c.offset_ns();
        let _ = c.now(SimTime::from_secs(3)); // past the 2s sync boundary
        let after = c.offset_ns();
        assert_ne!(before, after);
    }

    #[test]
    fn injected_step_shifts_reads_but_stays_monotonic() {
        let c = SyncedClock::new(Discipline::Perfect, 1);
        let t1 = c.now(SimTime::from_millis(1));
        c.inject_step(5_000_000); // +5ms
        let t2 = c.now(SimTime::from_millis(1));
        assert!(t2.0 >= t1.0 + 5_000_000, "step visible: {t2:?} vs {t1:?}");
        c.inject_step(-50_000_000); // far backwards
        let t3 = c.now(SimTime::from_millis(2));
        assert!(t3 > t2, "monotonic clamp holds across negative step");
    }

    #[test]
    fn drift_accrues_between_syncs_and_is_corrected_at_boundaries() {
        let c = SyncedClock::new(Discipline::Perfect, 9);
        c.inject_drift(1_000_000, SimTime::ZERO); // +1ms per second
                                                  // 1s in: half a sync interval elapsed, ~1ms of error accrued.
        let t = c.now(SimTime::from_secs(1));
        assert_eq!(t, Timestamp(1_000_000_000 + 1_000_000));
        // Just past the 2s sync boundary the exchange corrected the error.
        let t = c.now(SimTime::from_millis(2_001));
        assert!(
            t.0 - 2_001_000_000 < 10_000,
            "sync should wipe accrued drift, got {t:?}"
        );
    }

    #[test]
    fn holdover_drift_runs_away_uncorrected() {
        let c = SyncedClock::new(Discipline::Perfect, 9);
        c.enter_holdover();
        c.inject_drift(1_000_000, SimTime::ZERO);
        let t = c.now(SimTime::from_secs(10)); // 5 sync boundaries skipped
        assert_eq!(t, Timestamp(10_000_000_000 + 10_000_000));
        // Exiting holdover resyncs at the next read. The clock ran ~10ms
        // ahead, so the monotonic clamp makes it stand still (slew) instead
        // of snapping back: reads barely advance until true time catches up.
        c.exit_holdover(SimTime::from_secs(10));
        let clamped = c.now(SimTime::from_millis(10_001));
        assert_eq!(clamped, Timestamp(t.0 + 1), "clamp holds after resync");
        // True time catches the clamp; only drift re-accrued since the
        // resync (19ms × 1ms/s = 19µs) remains.
        let caught_up = c.now(SimTime::from_millis(10_020));
        assert_eq!(caught_up, Timestamp(10_020_000_000 + 19_000));
    }

    #[test]
    fn drift_rate_change_keeps_accrued_error() {
        let c = SyncedClock::new(Discipline::Perfect, 9);
        c.enter_holdover();
        c.inject_drift(1_000_000, SimTime::ZERO);
        let _ = c.now(SimTime::from_secs(1));
        c.inject_drift(0, SimTime::from_secs(1)); // stop drifting; error stays
        let t = c.now(SimTime::from_secs(2));
        assert_eq!(t, Timestamp(2_000_000_000 + 1_000_000));
    }

    #[test]
    fn monotonic_under_combined_faults() {
        for seed in 0..10 {
            let c = SyncedClock::new(Discipline::PtpSoftware, seed);
            let mut last = Timestamp::ZERO;
            for ms in (0..20_000u64).step_by(100) {
                match ms {
                    3_000 => c.inject_drift(-2_000_000, SimTime::from_millis(ms)),
                    6_000 => c.inject_step(-10_000_000),
                    9_000 => c.enter_holdover(),
                    15_000 => c.exit_holdover(SimTime::from_millis(ms)),
                    _ => {}
                }
                let ts = c.now(SimTime::from_millis(ms));
                assert!(ts > last, "seed {seed} regressed at {ms}ms");
                last = ts;
            }
        }
    }

    #[test]
    fn from_spec_applies_drift() {
        let spec = crate::ClockSpec {
            drift_ns_per_s: 500_000,
            ..crate::ClockSpec::perfect()
        };
        let c = SyncedClock::from_spec(&spec, 3);
        assert_eq!(c.drift_ns_per_s(), 500_000);
        let honest = SyncedClock::from_spec(&crate::ClockSpec::perfect(), 3);
        assert_eq!(honest.drift_ns_per_s(), 0);
        assert_eq!(honest.now(SimTime::from_secs(1)), Timestamp(1_000_000_000));
    }

    #[test]
    fn custom_discipline_uses_given_parameters() {
        let d = Discipline::Custom {
            offset_std: Duration::from_micros(10),
            sync_interval: Duration::from_millis(100),
        };
        assert_eq!(d.sync_interval(), Duration::from_millis(100));
        let c = SyncedClock::new(d, 5);
        let before = c.offset_ns();
        let _ = c.now(SimTime::from_millis(150));
        assert_ne!(before, c.offset_ns());
    }
}

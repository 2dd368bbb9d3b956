//! Host time on a shared machine: a stopwatch whose seconds are scaled by a
//! calibration loop run right before and after each timed interval.
//!
//! The reference machine's speed drifts by ±10 % from one second to the
//! next (other tenants; invisible to the guest's CPU accounting), which
//! would put the same spread on every host-clock metric. The calibration
//! loop is fixed work written against `std` only — no change to the program
//! under test can move it — so the ratio of an interval to the calibrations
//! around it cancels the machine's drift and keeps the program's. Scaled
//! seconds are what the interval would have taken had the loop run at
//! [`NOMINAL_S`]; the raw seconds are kept beside them.

use std::hint::black_box;
use std::time::Instant;

/// Seconds one [`calibrate`] call takes on the reference machine when it is
/// quiet (2 vCPU, see `benchmark/README.md`).
pub const NOMINAL_S: f64 = 0.0098;

/// Runs the calibration loop once and returns its host seconds: a serial
/// chain of integer operations over a 4 KiB table. It stays inside the L1
/// cache and allocates nothing on purpose — a loop with a large footprint
/// ran slower after a simulation slice had evicted it, by an amount that
/// depended on the process's memory layout, and added more noise than it
/// removed. What drifts on the reference machine is core speed, which this
/// loop sees.
pub fn calibrate() -> f64 {
    let start = Instant::now();
    let mut table = [0u64; 512];
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    for i in 0..6_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = (x & 511) as usize;
        table[k] = table[k].wrapping_add(i ^ acc);
        acc = acc.rotate_left(5) ^ table[(k + 7) & 511];
    }
    black_box(acc);
    start.elapsed().as_secs_f64()
}

/// One timed interval, or a sum of them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostTime {
    /// Host seconds as measured.
    pub raw_s: f64,
    /// Host seconds scaled to the nominal machine speed.
    pub scaled_s: f64,
}

impl std::ops::Add for HostTime {
    type Output = HostTime;
    fn add(self, other: HostTime) -> HostTime {
        HostTime {
            raw_s: self.raw_s + other.raw_s,
            scaled_s: self.scaled_s + other.scaled_s,
        }
    }
}

/// Times intervals, calibrating between them.
#[derive(Debug)]
pub struct Stopwatch {
    last_calibration_s: f64,
}

impl Stopwatch {
    /// Calibrates once, ready to time.
    pub fn start() -> Stopwatch {
        Stopwatch {
            last_calibration_s: calibrate(),
        }
    }

    /// Times `work` (the calibration that follows is not part of it) and
    /// scales it by the calibrations on either side.
    pub fn time<T>(&mut self, work: impl FnOnce() -> T) -> (T, HostTime) {
        let start = Instant::now();
        let out = work();
        let raw_s = start.elapsed().as_secs_f64();
        let after = calibrate();
        let local = (self.last_calibration_s + after) / 2.0;
        self.last_calibration_s = after;
        let scaled_s = raw_s * NOMINAL_S / local;
        (out, HostTime { raw_s, scaled_s })
    }
}

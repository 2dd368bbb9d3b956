//! # clockkit — server-side clock-health tracking and client fencing
//!
//! The paper's bet is that precision time keeps OCC validation windows
//! small (§2.1) — but that only holds while every client's clock actually
//! behaves. This crate gives a server an *evidence-based* view of each
//! client's clock from the one signal it can observe without trusting
//! anyone: the residual between a prepare's client-minted `ts_commit` and
//! the server's own arrival clock.
//!
//! For an honest client the residual is `offset − delay`: a stable,
//! noisy-but-bounded quantity whose spread reflects the client's sync
//! discipline plus network jitter. [`ClockHealth`] keeps an EWMA of the
//! residual and of its absolute deviation per client, derives an
//! uncertainty bound ε = max(floor, k·deviation), and flags prepares whose
//! residual leaves the window:
//!
//! - a single excursion is a **suspect** — the server no-votes that prepare
//!   ([`ClockVerdict::Suspect`], surfaced as `AbortReason::ClockSuspect`)
//!   but keeps serving the client;
//! - `FENCE_AFTER` (four) *consecutive* suspects **fence** the client
//!   ([`ClockVerdict::Fenced`]): every subsequent prepare is refused until
//!   the residuals sit inside the window again for `UNFENCE_AFTER`
//!   (sixteen) consecutive observations. Estimates keep updating while fenced, so a
//!   repaired clock re-admits itself without operator action.
//!
//! The tracker is deliberately dependency-light (integer arithmetic only,
//! no floats) so verdicts are deterministic across runs and platforms.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::BTreeMap;

pub use timesync::ClientId;

/// Lower bound on ε (ns): the window never shrinks below this, so
/// near-perfect clocks are not fenced over scheduling noise. Sized, like
/// the constants below, for PTP-software deployments (~53 µs skew).
const EPSILON_FLOOR_NS: u64 = 100_000;
/// ε = max(floor, `SUSPECT_MULTIPLIER` × mean-abs-deviation).
const SUSPECT_MULTIPLIER: i64 = 6;
/// Observations before verdicts are issued; during warmup every prepare
/// passes while the estimates converge.
const WARMUP_SAMPLES: u64 = 8;
/// EWMA weight is `1 / 2^ALPHA_SHIFT` (1/16): small enough that a runaway
/// clock outruns its own baseline instead of dragging it along.
const ALPHA_SHIFT: u32 = 4;
/// Consecutive suspect verdicts that fence the client.
const FENCE_AFTER: u32 = 4;
/// Consecutive in-window observations that unfence a fenced client.
const UNFENCE_AFTER: u32 = 16;

/// Tuning for [`ClockHealth`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClockHealthConfig {
    /// Absolute envelope: a prepare's `ts_commit` more than this far from
    /// the server's arrival clock — ahead *or* behind — is suspect
    /// regardless of the client's history. (Reads are judged against the
    /// future side only: a transaction's `ts_begin` legitimately ages.)
    pub max_future_ns: u64,
}

impl Default for ClockHealthConfig {
    /// A 10 ms absolute future cap.
    fn default() -> ClockHealthConfig {
        ClockHealthConfig {
            max_future_ns: 10_000_000,
        }
    }
}

impl ClockHealthConfig {
    /// The promised external-consistency bound: commit order can disagree
    /// with per-client real time by at most this much before the checker
    /// flags it. Conservatively `max_future_ns` (the loosest fence) plus
    /// the floor.
    pub fn promised_epsilon_ns(&self) -> u64 {
        self.max_future_ns + EPSILON_FLOOR_NS
    }
}

/// Verdict for one observed prepare timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockVerdict {
    /// The residual sits inside the client's uncertainty window.
    Ok,
    /// The residual left the window — no-vote this prepare.
    Suspect {
        /// Deviation of this observation from the client's baseline (ns).
        residual_ns: i64,
        /// The bound it was judged against (ns).
        epsilon_ns: u64,
    },
    /// The client is fenced (persistent outlier); refuse until it recovers.
    Fenced,
}

impl ClockVerdict {
    /// `true` unless the prepare should be refused.
    pub fn is_ok(self) -> bool {
        matches!(self, ClockVerdict::Ok)
    }
}

#[derive(Debug, Default, Clone)]
struct Track {
    mean_ns: i64,
    mad_ns: i64,
    samples: u64,
    consecutive_suspect: u32,
    consecutive_clean: u32,
    fenced: bool,
}

/// The uncertainty bound ε of one client's track.
fn epsilon_of(t: &Track) -> u64 {
    (EPSILON_FLOOR_NS as i64).max(t.mad_ns.saturating_mul(SUSPECT_MULTIPLIER)) as u64
}

/// Per-client clock-health estimates for one server.
#[derive(Debug)]
pub struct ClockHealth {
    cfg: ClockHealthConfig,
    tracks: BTreeMap<u32, Track>,
    suspects: u64,
    fences: u64,
    unfences: u64,
}

impl ClockHealth {
    /// An empty tracker.
    pub fn new(cfg: ClockHealthConfig) -> ClockHealth {
        ClockHealth {
            cfg,
            tracks: BTreeMap::new(),
            suspects: 0,
            fences: 0,
            unfences: 0,
        }
    }

    /// Feeds one prepare observation: the client-minted commit timestamp
    /// and the server's own clock at arrival (both ns). Returns the verdict
    /// the server should act on. Estimates update on every call — including
    /// while fenced — so recovered clocks unfence themselves.
    pub fn observe(
        &mut self,
        client: ClientId,
        ts_commit_ns: u64,
        arrival_ns: u64,
    ) -> ClockVerdict {
        let residual = ts_commit_ns as i64 - arrival_ns as i64;
        let t = self.tracks.entry(client.0).or_default();

        let dev = residual - t.mean_ns;
        let epsilon = epsilon_of(t);
        // Two checks: the relative one (EWMA window, tracks the client's
        // own noise) and an absolute envelope of ±`max_future_ns` around
        // the server's clock. The envelope's past side matters as much as
        // its future side: the EWMA alone can be laundered (warmup or
        // fenced-state updates inflate the deviation estimate until a
        // multi-ms offset sits "in window"), and the external-consistency
        // promise is only as good as the worst timestamp that can commit.
        // Prepare residuals are fresh — `ts_commit` is minted just before
        // the prepare is sent — so unlike `ts_begin` on the read path the
        // past side only absorbs network delay, which the envelope must
        // (and does, comfortably) cover.
        let in_window =
            dev.unsigned_abs() <= epsilon && residual.unsigned_abs() <= self.cfg.max_future_ns;
        let warming = t.samples < WARMUP_SAMPLES;

        // EWMA update; suspect observations are *not* folded into the
        // baseline (a runaway clock must not drag its own window along),
        // but fenced clients do update so recovery can be recognized. The
        // baseline itself is confined to the promised window: without the
        // clamp a clock could launder an arbitrary offset into its own
        // baseline — by being broken during warmup, by feeding estimates
        // while fenced until "recovery", or by drifting slowly enough that
        // every step stays inside ε — and then commit timestamps that far
        // from true time while rated healthy.
        if warming || in_window || t.fenced {
            let bound = self.cfg.max_future_ns as i64;
            t.mean_ns = (t.mean_ns + (dev >> ALPHA_SHIFT)).clamp(-bound, bound);
            t.mad_ns += (dev.abs() - t.mad_ns) >> ALPHA_SHIFT;
        }
        t.samples += 1;

        if warming {
            return ClockVerdict::Ok;
        }
        if t.fenced {
            if in_window {
                t.consecutive_clean += 1;
                if t.consecutive_clean >= UNFENCE_AFTER {
                    t.fenced = false;
                    t.consecutive_clean = 0;
                    t.consecutive_suspect = 0;
                    self.unfences += 1;
                    return ClockVerdict::Ok;
                }
            } else {
                t.consecutive_clean = 0;
            }
            return ClockVerdict::Fenced;
        }
        if in_window {
            t.consecutive_suspect = 0;
            return ClockVerdict::Ok;
        }
        t.consecutive_suspect += 1;
        self.suspects += 1;
        if t.consecutive_suspect >= FENCE_AFTER {
            t.fenced = true;
            t.consecutive_clean = 0;
            self.fences += 1;
            return ClockVerdict::Fenced;
        }
        ClockVerdict::Suspect {
            residual_ns: dev,
            epsilon_ns: epsilon,
        }
    }

    /// Feeds one *read* observation: the transaction's `ts_begin` and the
    /// server's clock at arrival (both ns). A transaction reuses one
    /// `ts_begin` for its whole lifetime, so the residual drifts downward
    /// as the transaction ages — useless for the EWMA estimates, which are
    /// deliberately *not* updated here. Only the absolute future ceiling
    /// is judged (unconditionally, even during warmup: it needs no
    /// estimate), because a noted read at a far-future `ts_begin` extracts
    /// a snapshot promise no honest writer can be held to. Ceiling
    /// breaches feed the same fence state as prepares; in-ceiling reads
    /// leave the state untouched (a stale-but-plausible `ts_begin` is not
    /// evidence of a healthy clock, so it neither excuses suspect prepares
    /// nor unfences anyone) and pass even for fenced clients — the promise
    /// they extract is enforceable, and letting them through is the only
    /// way a recovered client can reach the prepare path and earn its
    /// unfence.
    pub fn observe_read(
        &mut self,
        client: ClientId,
        ts_begin_ns: u64,
        arrival_ns: u64,
    ) -> ClockVerdict {
        let residual = ts_begin_ns as i64 - arrival_ns as i64;
        let over = residual > self.cfg.max_future_ns as i64;
        let t = self.tracks.entry(client.0).or_default();
        if t.fenced {
            if over {
                t.consecutive_clean = 0;
                return ClockVerdict::Fenced;
            }
            return ClockVerdict::Ok;
        }
        if !over {
            return ClockVerdict::Ok;
        }
        t.consecutive_suspect += 1;
        self.suspects += 1;
        if t.consecutive_suspect >= FENCE_AFTER {
            t.fenced = true;
            t.consecutive_clean = 0;
            self.fences += 1;
            return ClockVerdict::Fenced;
        }
        ClockVerdict::Suspect {
            residual_ns: residual,
            epsilon_ns: self.cfg.max_future_ns,
        }
    }

    /// Whether `client` is currently fenced.
    pub fn is_fenced(&self, client: ClientId) -> bool {
        self.tracks.get(&client.0).is_some_and(|t| t.fenced)
    }

    /// The current uncertainty bound ε for `client` (the floor if the
    /// client has never been observed).
    pub fn epsilon_ns(&self, client: ClientId) -> u64 {
        self.tracks
            .get(&client.0)
            .map_or(EPSILON_FLOOR_NS, epsilon_of)
    }

    /// Total suspect verdicts issued (excluding fenced refusals).
    pub fn suspect_count(&self) -> u64 {
        self.suspects
    }

    /// Total fence transitions.
    pub fn fence_count(&self) -> u64 {
        self.fences
    }

    /// Total unfence transitions (fenced clients that recovered).
    pub fn unfence_count(&self) -> u64 {
        self.unfences
    }

    /// Clients currently fenced, ascending by id.
    pub fn fenced_clients(&self) -> Vec<ClientId> {
        self.tracks
            .iter()
            .filter(|(_, t)| t.fenced)
            .map(|(&c, _)| ClientId(c))
            .collect()
    }

    /// The configuration in effect.
    pub fn config(&self) -> &ClockHealthConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ClockHealthConfig {
        ClockHealthConfig::default()
    }

    /// Deterministic jitter in [-30µs, 30µs] — a stand-in for honest
    /// PTP-software residual noise.
    fn jitter(i: u64) -> i64 {
        ((i.wrapping_mul(2_654_435_761) >> 16) % 60_000) as i64 - 30_000
    }

    #[test]
    fn honest_client_is_never_suspected() {
        let mut h = ClockHealth::new(cfg());
        let c = ClientId(1);
        for i in 0..500 {
            let residual = -200_000 + jitter(i); // delay ~200µs + jitter
            let v = h.observe(c, (1_000_000_000 + residual) as u64, 1_000_000_000);
            assert!(v.is_ok(), "sample {i}: {v:?}");
        }
        assert_eq!(h.suspect_count(), 0);
        assert!(!h.is_fenced(c));
    }

    #[test]
    fn warmup_passes_everything() {
        let mut h = ClockHealth::new(cfg());
        let c = ClientId(2);
        for i in 0..8 {
            // Wild residuals during warmup still pass.
            let v = h.observe(c, 5_000_000_000 + i * 50_000_000, 1_000_000_000);
            assert!(v.is_ok(), "warmup sample {i}");
        }
    }

    #[test]
    fn runaway_clock_is_suspected_then_fenced_then_recovers() {
        let mut h = ClockHealth::new(cfg());
        let c = ClientId(3);
        // Establish an honest baseline.
        for i in 0..50 {
            assert!(h
                .observe(
                    c,
                    (1_000_000_000 - 150_000 + jitter(i)) as u64,
                    1_000_000_000
                )
                .is_ok());
        }
        // Clock jumps 5ms ahead: suspects accumulate, then the fence trips.
        let mut suspects = 0;
        let mut fenced_at = None;
        for i in 0..10u32 {
            match h.observe(c, 1_005_000_000, 1_000_000_000) {
                ClockVerdict::Suspect {
                    residual_ns,
                    epsilon_ns,
                } => {
                    suspects += 1;
                    assert!(residual_ns.unsigned_abs() > epsilon_ns);
                }
                ClockVerdict::Fenced => {
                    fenced_at.get_or_insert(i);
                }
                ClockVerdict::Ok => panic!("5ms jump passed at {i}"),
            }
        }
        assert_eq!(suspects, 3, "fence_after-1 suspects before the fence");
        assert_eq!(fenced_at, Some(3));
        assert!(h.is_fenced(c));
        assert_eq!(h.fence_count(), 1);
        assert_eq!(h.fenced_clients(), vec![c]);

        // The clock is repaired: after unfence_after clean observations the
        // client is re-admitted.
        let mut readmitted = None;
        for i in 0..40u32 {
            let v = h.observe(
                c,
                (1_000_000_000 - 150_000 + jitter(i as u64)) as u64,
                1_000_000_000,
            );
            if v.is_ok() {
                readmitted.get_or_insert(i);
            }
        }
        assert!(readmitted.is_some(), "repaired clock must unfence");
        assert!(!h.is_fenced(c));
        assert_eq!(h.unfence_count(), 1);
    }

    #[test]
    fn far_future_timestamp_is_suspect_even_with_loose_history() {
        let mut h = ClockHealth::new(cfg());
        let c = ClientId(4);
        for i in 0..50 {
            let _ = h.observe(c, (1_000_000_000 + jitter(i) * 10) as u64, 1_000_000_000);
        }
        // 50ms in the future exceeds max_future_ns no matter the window.
        let v = h.observe(c, 1_050_000_000, 1_000_000_000);
        assert!(!v.is_ok(), "{v:?}");
    }

    #[test]
    fn epsilon_has_a_floor_and_tracks_deviation() {
        let mut h = ClockHealth::new(cfg());
        let c = ClientId(5);
        assert_eq!(h.epsilon_ns(c), EPSILON_FLOOR_NS);
        // Perfectly steady residuals: ε stays at the floor.
        for _ in 0..100 {
            let _ = h.observe(c, 999_900_000, 1_000_000_000);
        }
        assert_eq!(h.epsilon_ns(c), EPSILON_FLOOR_NS);
        // Noisy NTP-scale residuals widen ε above the floor.
        let mut h = ClockHealth::new(cfg());
        let c = ClientId(6);
        for i in 0..200u64 {
            let noise = jitter(i) * 40; // ±1.2ms swings
            let _ = h.observe(c, (1_000_000_000 + noise) as u64, 1_000_000_000);
        }
        assert!(h.epsilon_ns(c) > EPSILON_FLOOR_NS);
    }

    #[test]
    fn one_bad_client_does_not_affect_others() {
        let mut h = ClockHealth::new(cfg());
        let good = ClientId(1);
        let bad = ClientId(2);
        for i in 0..60 {
            assert!(h
                .observe(good, (2_000_000_000 + jitter(i)) as u64, 2_000_000_000)
                .is_ok());
            // The bad clock drifts 1ms further ahead per observation.
            let _ = h.observe(bad, 2_000_000_000 + i * 1_000_000, 2_000_000_000);
        }
        assert!(h.is_fenced(bad));
        assert!(!h.is_fenced(good));
        assert!(h.observe(good, 2_000_010_000, 2_000_000_000).is_ok());
    }

    #[test]
    fn slow_clock_cannot_launder_its_offset_into_the_baseline() {
        // A clock broken *backward* from the very first observation: warmup
        // folds the offset into the mean and inflates the deviation
        // estimate, so the relative window alone would rate it healthy.
        // The absolute envelope (and the baseline clamp) must still refuse
        // it once warmup ends.
        let mut h = ClockHealth::new(cfg());
        let c = ClientId(7);
        let mut ever_ok_after_warmup = false;
        for i in 0..100u64 {
            // 25ms behind true time, honest-looking noise on top.
            let v = h.observe(
                c,
                (1_000_000_000 - 25_000_000 + jitter(i)) as u64,
                1_000_000_000,
            );
            if i >= WARMUP_SAMPLES {
                ever_ok_after_warmup |= v.is_ok();
            }
        }
        assert!(!ever_ok_after_warmup, "a 25ms-slow clock was rated healthy");
        assert!(h.is_fenced(c));
    }

    #[test]
    fn reads_fence_on_the_future_ceiling_but_age_freely() {
        let mut h = ClockHealth::new(cfg());
        let c = ClientId(8);
        // An aged ts_begin (far in the past) is fine on the read path.
        for _ in 0..50 {
            assert!(h.observe_read(c, 900_000_000, 1_000_000_000).is_ok());
        }
        assert_eq!(h.suspect_count(), 0);
        // A far-future ts_begin trips the ceiling immediately (no warmup)
        // and fences after `fence_after` consecutive breaches.
        for _ in 0..FENCE_AFTER {
            assert!(!h.observe_read(c, 1_050_000_000, 1_000_000_000).is_ok());
        }
        assert!(h.is_fenced(c));
        // Fenced, over-ceiling reads stay refused; in-ceiling reads pass so
        // a recovered client can reach the prepare path and earn its
        // unfence there.
        assert!(!h.observe_read(c, 1_050_000_000, 1_000_000_000).is_ok());
        assert!(h.observe_read(c, 999_900_000, 1_000_000_000).is_ok());
    }

    #[test]
    fn verdicts_are_deterministic() {
        let run = || {
            let mut h = ClockHealth::new(cfg());
            let mut log = Vec::new();
            for i in 0..100u64 {
                let ts = if i % 7 == 0 {
                    1_020_000_000
                } else {
                    (1_000_000_000 + jitter(i)) as u64
                };
                log.push(format!("{:?}", h.observe(ClientId(1), ts, 1_000_000_000)));
            }
            log
        };
        assert_eq!(run(), run());
    }
}

//! Figure 7 — clock precision vs aborts: MILANA abort rates vs contention
//! for every clock discipline, across storage backends.
//!
//! Paper setup (§5.2): 3 storage VMs (1 primary + 2 backups), 5 client VMs
//! each running 4 Retwis instances (20 total), clocks synchronized with PTP
//! software timestamping (~53 µs mean skew) or NTP (~1.51 ms), backends
//! DRAM / VFTL / MFTL, contention α swept, aborted transactions retried
//! with the same keys. The sweep adds the two ends of the precision axis
//! the paper argues about (§3.3): perfect clocks and hardware-timestamped
//! PTP (~150 ns), each run paired with PTP-SW and NTP on the same seed.
//!
//! Expected shape: PTP aborts below NTP everywhere (the headline: up to
//! 43 % lower under high contention); under NTP, DRAM (fastest writes)
//! aborts most, then VFTL, then MFTL. The knee, which `repro fig7` checks
//! at every backend and α: Perfect ≈ PTP-HW ≈ PTP-SW, all well below NTP.

use std::time::Duration;

use flashsim::BackendKind;
use obskit::Json;
use timesync::Discipline;

use crate::common::{clock_spectrum, run_retwis_on_milana, sweep, Args, Point, Scale};
use crate::testbed;
use crate::Outcome;

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct Fig7Config {
    /// Contention values on the x-axis.
    pub alphas: Vec<f64>,
    /// Backends compared.
    pub backends: Vec<BackendKind>,
    /// Client VMs.
    pub client_vms: u32,
    /// Retwis instances per client VM.
    pub instances_per_vm: u32,
    /// Keyspace size.
    pub keyspace: u64,
    /// Warm-up per run.
    pub warmup: Duration,
    /// Measurement window per run.
    pub measure: Duration,
}

impl Fig7Config {
    /// Derives from the global scale knob.
    pub(crate) fn for_scale(scale: Scale) -> Fig7Config {
        let quick = Fig7Config {
            alphas: vec![0.5, 0.7, 0.9],
            backends: vec![BackendKind::Dram, BackendKind::Vftl, BackendKind::Mftl],
            client_vms: 5,
            instances_per_vm: 4,
            keyspace: 5_000,
            warmup: Duration::from_millis(200),
            measure: Duration::from_millis(1000),
        };
        match scale {
            Scale::Quick => quick,
            Scale::Full => Fig7Config {
                alphas: vec![0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
                keyspace: 20_000,
                warmup: Duration::from_millis(500),
                measure: Duration::from_secs(5),
                ..quick
            },
        }
    }
}

/// `repro fig7`.
pub(crate) fn repro(_: &Args, scale: Scale) -> Outcome {
    eprintln!("running Figure 7 at {scale:?} scale ...");
    let cfg = Fig7Config::for_scale(scale);
    let points = run(&cfg);
    print(&cfg, &points);
    judge(&cfg, &points)
}

/// The run's outcome: its artifact, failed when the knee does not hold.
pub(crate) fn judge(cfg: &Fig7Config, points: &[Point<At>]) -> Outcome {
    Outcome {
        data: to_json(cfg, points),
        ok: knee_failure(cfg, points).is_none(),
    }
}

/// A Figure 7 point: `(clock discipline, its label, backend, α)`.
pub(crate) type At = (Discipline, &'static str, BackendKind, f64);

/// Runs the full sweep on the `perfkit` worker pool (one sim per point,
/// merged back in sweep order).
pub fn run(cfg: &Fig7Config) -> Vec<Point<At>> {
    let mut grid = Vec::new();
    for (discipline, sync) in clock_spectrum() {
        for &kind in &cfg.backends {
            for &alpha in &cfg.alphas {
                grid.push((discipline.clone(), sync, kind, alpha));
            }
        }
    }
    // The seed depends on α only, so the four disciplines' runs at one
    // (backend, α) are paired: same arrivals and keys, only the clocks
    // differ.
    sweep(grid, |(discipline, _, kind, alpha)| {
        let outcome = run_retwis_on_milana(
            seed(*alpha),
            testbed::paper(
                *kind,
                discipline.clone().into(),
                cfg.client_vms,
                cfg.keyspace,
            ),
            testbed::retwis(cfg.keyspace, *alpha),
            cfg.instances_per_vm,
            (cfg.warmup, cfg.measure),
        );
        (outcome.stats, 0.0)
    })
}

/// The run's seed at contention `alpha`.
fn seed(alpha: f64) -> u64 {
    700 + (alpha * 100.0) as u64
}

/// Abort rate (%) of the point at `(sync, kind, alpha)`; NaN when the
/// sweep has no such point.
fn abort_pct(points: &[Point<At>], sync: &str, kind: BackendKind, alpha: f64) -> f64 {
    points
        .iter()
        .find(|p| p.at.1 == sync && p.at.2 == kind && p.at.3 == alpha)
        .map_or(f64::NAN, |p| p.stats.abort_rate() * 100.0)
}

/// Why the knee fails at one (backend, α), given the abort rates (%) of
/// `clock_spectrum`'s four disciplines in its order, or `None` when it
/// holds. Let P be the three precise disciplines' rates (Perfect, PTP-HW,
/// PTP-SW): NTP must exceed max(P), and by more than P spreads —
/// max(P) − min(P) < NTP − max(P). No tuned constant: it fails as soon
/// as 53 µs of skew costs as much as the step to NTP gains.
fn knee_cell(rates: [f64; 4]) -> Option<String> {
    let [perfect, hw, sw, ntp] = rates;
    let max = perfect.max(hw).max(sw);
    let (spread, gap) = (max - perfect.min(hw).min(sw), ntp - max);
    if rates.iter().any(|r| r.is_nan()) {
        Some("a discipline has no point".to_string())
    } else if gap <= 0.0 {
        Some(format!(
            "NTP {ntp:.2} <= max(Perfect, PTP-HW, PTP-SW) {max:.2}"
        ))
    } else if spread >= gap {
        Some(format!(
            "precise spread {spread:.2} >= NTP gap {gap:.2} points"
        ))
    } else {
        None
    }
}

/// The first (backend, α) where the knee fails, named with its seed and
/// both sides, or `None` when it holds everywhere.
pub(crate) fn knee_failure(cfg: &Fig7Config, points: &[Point<At>]) -> Option<String> {
    cfg.backends.iter().find_map(|&kind| {
        cfg.alphas.iter().find_map(|&alpha| {
            let rates = clock_spectrum().map(|(_, sync)| abort_pct(points, sync, kind, alpha));
            let why = knee_cell(rates)?;
            Some(format!(
                "seed {}: {} alpha={alpha}: {why}",
                seed(alpha),
                kind.name()
            ))
        })
    })
}

/// The knee's output line.
pub(crate) fn knee_line(failure: Option<String>) -> String {
    let verdict = failure.map_or("ok".to_string(), |why| format!("FAILED, {why}"));
    format!(
        "knee (NTP above Perfect, PTP-HW and PTP-SW by more than their spread, \
         at every backend and alpha): {verdict}"
    )
}

/// Deterministic JSON payload: every point with its abort-reason
/// breakdown and latency percentiles, plus a per-clock-model rollup
/// (the artifact the paper's PTP-vs-NTP headline is checked against).
pub fn to_json(cfg: &Fig7Config, points: &[Point<At>]) -> Json {
    let point_docs = points.iter().map(|p| {
        let (_, sync, kind, alpha) = p.at;
        p.to_json(
            Json::obj()
                .field("sync", Json::str(sync))
                .field("backend", Json::str(kind.name()))
                .field("alpha", Json::F64(alpha))
                .field("abort_rate", Json::F64(p.stats.abort_rate())),
        )
    });
    let mut by_clock = Json::obj();
    for (_, sync) in clock_spectrum() {
        let mut merged = obskit::TxnStats::new().freeze();
        for p in points.iter().filter(|p| p.at.1 == sync) {
            merged.merge_from(&p.stats);
        }
        by_clock = by_clock.field(
            sync,
            Json::obj()
                .field("abort_rate", Json::F64(merged.abort_rate()))
                .field("abort_reasons", merged.abort_reasons_json())
                .field("latency_ns", merged.latency.summary_json()),
        );
    }
    Json::obj()
        .field(
            "alphas",
            Json::arr(cfg.alphas.iter().map(|&a| Json::F64(a))),
        )
        .field(
            "backends",
            Json::arr(cfg.backends.iter().map(|&k| Json::str(k.name()))),
        )
        .field("points", Json::arr(point_docs))
        .field("by_clock", by_clock)
}

/// Prints series of abort rates over α (one row per clock and backend),
/// the PTP-SW-vs-NTP reduction and the knee's verdict.
pub(crate) fn print(cfg: &Fig7Config, points: &[Point<At>]) {
    println!("Figure 7: abort rate (%) vs contention α — clock discipline by backend");
    print!("{:>12}", "series\\alpha");
    for a in &cfg.alphas {
        print!(" {a:>7}");
    }
    println!();
    for row in points.chunks(cfg.alphas.len()) {
        let (_, sync, kind, _) = row[0].at;
        print!("{:>8}/{:<4}", sync, kind.name());
        for p in row {
            print!(" {:>7.2}", p.stats.abort_rate() * 100.0);
        }
        println!();
    }
    // Headline: abort-rate reduction of PTP vs NTP at the highest contention.
    let max_alpha = *cfg.alphas.last().expect("non-empty alphas");
    for &kind in &cfg.backends {
        let get = |sync| abort_pct(points, sync, kind, max_alpha);
        let (ptp, ntp) = (get("PTP-SW"), get("NTP"));
        if ntp > 0.0 {
            println!(
                "  {}: PTP reduces aborts by {:.0}% at alpha={max_alpha} (paper headline: up to 43%)",
                kind.name(),
                (1.0 - ptp / ntp) * 100.0
            );
        }
    }
    println!("{}", knee_line(knee_failure(cfg, points)));
}

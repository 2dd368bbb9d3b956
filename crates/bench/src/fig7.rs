//! Figure 7 — PTP vs NTP: MILANA abort rates vs contention, across storage
//! backends.
//!
//! Paper setup (§5.2): 3 storage VMs (1 primary + 2 backups), 5 client VMs
//! each running 4 Retwis instances (20 total), clocks synchronized with PTP
//! software timestamping (~53 µs mean skew) or NTP (~1.51 ms), backends
//! DRAM / VFTL / MFTL, contention α swept, aborted transactions retried
//! with the same keys.
//!
//! Expected shape: PTP aborts below NTP everywhere (the headline: up to
//! 43 % lower under high contention); under NTP, DRAM (fastest writes)
//! aborts most, then VFTL, then MFTL.

use std::time::Duration;

use flashsim::BackendKind;
use obskit::Json;
use timesync::Discipline;

use crate::common::{run_retwis_on_milana, sweep, Args, Point, Scale};
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
    Outcome::pass(to_json(&cfg, &points))
}

/// A Figure 7 point: `(clock discipline, its label, backend, α)`.
pub(crate) type At = (Discipline, &'static str, BackendKind, f64);

/// Runs the full sweep on the `perfkit` worker pool (one sim per point,
/// merged back in sweep order).
pub fn run(cfg: &Fig7Config) -> Vec<Point<At>> {
    let mut grid = Vec::new();
    for (discipline, sync) in [(Discipline::PtpSoftware, "PTP"), (Discipline::Ntp, "NTP")] {
        for &kind in &cfg.backends {
            for &alpha in &cfg.alphas {
                grid.push((discipline.clone(), sync, kind, alpha));
            }
        }
    }
    sweep(grid, |(discipline, _, kind, alpha)| {
        let outcome = run_retwis_on_milana(
            700 + (alpha * 100.0) as u64,
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
    for sync in ["PTP", "NTP"] {
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
/// plus the PTP-vs-NTP reduction.
pub(crate) fn print(cfg: &Fig7Config, points: &[Point<At>]) {
    println!("Figure 7: abort rate (%) vs contention α — PTP vs NTP by backend");
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
        let get = |sync: &str| {
            points
                .iter()
                .find(|p| p.at.1 == sync && p.at.2 == kind && p.at.3 == max_alpha)
                .map(|p| p.stats.abort_rate())
                .unwrap_or(f64::NAN)
        };
        let (ptp, ntp) = (get("PTP"), get("NTP"));
        if ntp > 0.0 {
            println!(
                "  {}: PTP reduces aborts by {:.0}% at alpha={max_alpha} (paper headline: up to 43%)",
                kind.name(),
                (1.0 - ptp / ntp) * 100.0
            );
        }
    }
}

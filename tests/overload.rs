//! Overload soak: an open-loop Retwis workload driven at a fraction or a
//! multiple of a fixed saturation rate against a MILANA cluster with a
//! deliberately small admission gate.
//!
//! What the loadkit plane must deliver (the PR's acceptance bar):
//! - at 0.5x the saturation rate nothing is shed anywhere;
//! - at 2x, goodput stays within 70% of the 1x value (no congestion
//!   collapse) and every arrival terminates accounted — committed,
//!   abandoned, or explicitly shed;
//! - retry traffic is capped by the client token budget;
//! - the whole thing is deterministic per seed.

use std::rc::Rc;
use std::time::Duration;

use milana_repro::flashsim::NandConfig;
use milana_repro::loadkit::retry::{BUDGET_BURST, BUDGET_RATIO};
use milana_repro::milana::cluster::{MilanaCluster, MilanaClusterConfig};
use milana_repro::obskit::{Obs, TxnStats};
use milana_repro::retwis::driver::{run_open_loop, WorkloadConfig};
use milana_repro::retwis::mix::Mix;
use milana_repro::simkit::rng::Zipf;
use milana_repro::simkit::Sim;
use milana_repro::timesync::ClockSpec;

/// Offered load defined as saturating for the cluster below (calibrated
/// once: ~the throughput knee of a 1-shard cluster with admission capacity
/// `CAPACITY`).
const SAT_RATE: f64 = 8_000.0;
/// Cost units the server admits concurrently (gets cost 1, prepares 4).
const CAPACITY: u64 = 16;
/// Virtual-time measurement window.
const WINDOW: Duration = Duration::from_millis(600);

struct SoakOutcome {
    stats: TxnStats,
    /// Server-side sheds summed over every replica.
    server_sheds: u64,
    /// Client-side retries spent (all clients).
    retries: u64,
    /// Attempts that reached a server (admitted + shed).
    server_attempts: u64,
    /// Registry snapshot for determinism comparison.
    registry_json: String,
}

fn soak(seed: u64, rate: f64) -> SoakOutcome {
    soak_with_capacity(seed, rate, CAPACITY)
}

fn soak_with_capacity(seed: u64, rate: f64, capacity: u64) -> SoakOutcome {
    let mut sim = Sim::new(seed);
    let h = sim.handle();
    let obs = Obs::new();
    let mut cfg = MilanaClusterConfig {
        shards: 1,
        replicas: 3,
        clients: 2,
        preload_keys: 400,
        nand: NandConfig {
            blocks: 512,
            pages_per_block: 8,
            ..NandConfig::default()
        },
        clock: ClockSpec::ptp_software(),
        ..MilanaClusterConfig::default()
    };
    cfg.tuning.obs = obs.clone();
    cfg.tuning.admission.capacity = capacity;
    // `SAT_RATE`/`CAPACITY` were calibrated against the unbatched RPC
    // plane; group commit trades latency for envelope efficiency and gets
    // its own overload coverage in `tests/batching.rs`. Pin batch_max=1 so
    // this suite keeps measuring the admission gate, not the flush window.
    cfg.client_cfg.batch = milana_repro::batchkit::BatchConfig::unbatched();
    cfg.tuning.batch = milana_repro::batchkit::BatchConfig::unbatched();
    let cluster = MilanaCluster::build(&h, cfg);

    let wl = Rc::new(WorkloadConfig {
        mix: Mix::retwis(),
        keyspace: 400,
        zipf_alpha: 0.3,
        value_size: 64,
        // Overloaded/validation aborts retry a few times, then the arrival
        // is abandoned — keeps termination accounting crisp under 2x load.
        max_retries: 6,
    });
    let zipf = Rc::new(Zipf::new(wl.keyspace as usize, wl.zipf_alpha));
    let stats = TxnStats::new();
    let until = h.now() + WINDOW;
    let n_clients = cluster.clients.len();
    let mut joins = Vec::new();
    for c in &cluster.clients {
        joins.push(h.spawn(run_open_loop(
            h.clone(),
            c.clone(),
            wl.clone(),
            zipf.clone(),
            stats.clone(),
            rate / n_clients as f64,
            128,
            until,
        )));
    }
    sim.block_on(async move {
        for j in joins {
            j.await;
        }
    });

    let reg = &obs.registry;
    let mut server_sheds = 0;
    let mut server_attempts = 0;
    for slot in cluster.replicas.iter().flatten() {
        let node = slot.addr.node.0;
        let overload = reg.counter(&format!("loadkit.node{node}.sheds_overload"));
        let deadline = reg.counter(&format!("loadkit.node{node}.sheds_deadline"));
        let admitted = reg.counter(&format!("loadkit.node{node}.admitted"));
        server_sheds += overload.get() + deadline.get();
        server_attempts += admitted.get() + overload.get() + deadline.get();
    }
    let mut retries = 0;
    for c in &cluster.clients {
        retries += reg
            .counter(&format!("loadkit.client{}.retries", c.id().0))
            .get();
    }
    SoakOutcome {
        stats,
        server_sheds,
        retries,
        server_attempts,
        registry_json: reg.snapshot().to_string(),
    }
}

fn goodput(o: &SoakOutcome) -> f64 {
    o.stats.commits.get() as f64 / WINDOW.as_secs_f64()
}

/// Not a test: prints the goodput/shed curve across load multipliers for
/// re-calibrating `SAT_RATE`/`CAPACITY` after tuning changes. Run with
/// `cargo test --release --test overload -- --ignored --nocapture calibrate`.
#[test]
#[ignore]
fn calibrate() {
    for seed in [901u64, 902, 903] {
        for mult in [0.5, 1.0, 1.5, 2.0, 4.0] {
            let o = soak(seed, mult * SAT_RATE);
            println!(
                "seed {seed} rate {:>7.0}/s: goodput {:>6.0}/s arrivals {:>6} commits {:>6} abandoned {:>4} drv_sheds {:>5} srv_sheds {:>6} retries {:>5} attempts {:>6}",
                mult * SAT_RATE,
                goodput(&o),
                o.stats.arrivals.get(),
                o.stats.commits.get(),
                o.stats.abandoned.get(),
                o.stats.sheds.get(),
                o.server_sheds,
                o.retries,
                o.server_attempts,
            );
        }
    }
}

#[test]
fn below_saturation_nothing_is_shed() {
    let o = soak(901, 0.5 * SAT_RATE);
    assert!(
        o.stats.commits.get() > 0,
        "no commits at 0.5x: {:?}",
        o.stats
    );
    assert_eq!(o.server_sheds, 0, "server shed below saturation");
    assert_eq!(o.stats.sheds.get(), 0, "driver shed below saturation");
    assert_eq!(o.stats.abandoned.get(), 0, "abandoned below saturation");
}

#[test]
fn saturation_soak_holds_goodput_and_accounts_every_arrival() {
    let at_1x = soak(902, SAT_RATE);
    let at_2x = soak(902, 2.0 * SAT_RATE);

    // Overload is real: the gate actually refused work at 2x.
    assert!(
        at_2x.server_sheds > 0,
        "2x never hit the admission gate; rate too low for CAPACITY"
    );

    // No congestion collapse: goodput within the acceptance band.
    let (g1, g2) = (goodput(&at_1x), goodput(&at_2x));
    assert!(
        g2 >= 0.70 * g1,
        "goodput collapsed under overload: 1x {g1:.0}/s vs 2x {g2:.0}/s"
    );

    // Full termination accounting: every arrival is a commit, an abandon,
    // or an explicit driver-side shed.
    let s = &at_2x.stats;
    assert_eq!(
        s.arrivals.get(),
        s.commits.get() + s.abandoned.get() + s.sheds.get(),
        "arrivals unaccounted: {s:?}"
    );

    // The retry budget caps retry traffic at a fixed fraction of
    // first-attempt traffic (plus the initial per-client burst).
    let first_attempts = at_2x.server_attempts.saturating_sub(at_2x.retries);
    let cap = 2.0 * BUDGET_BURST + BUDGET_RATIO * first_attempts as f64;
    assert!(
        (at_2x.retries as f64) <= cap + 1.0,
        "retries {} exceed budget cap {cap:.1}",
        at_2x.retries
    );
}

#[test]
fn soak_is_deterministic_per_seed() {
    let a = soak(903, 1.5 * SAT_RATE);
    let b = soak(903, 1.5 * SAT_RATE);
    assert_eq!(a.registry_json, b.registry_json);
    assert_eq!(a.stats.commits.get(), b.stats.commits.get());
    assert_eq!(a.stats.sheds.get(), b.stats.sheds.get());
    assert_eq!(a.server_sheds, b.server_sheds);
}

//! Group-commit & RPC-coalescing sweep (`repro batch`).
//!
//! Drives the same open-loop read-modify-write load against a MILANA
//! cluster at several `batch_max` settings (same seed, same arrival
//! schedule) and reports the wire economy and commit latency of each:
//! replication envelopes vs. records, coordinator envelopes vs. items,
//! and p50/p99 commit latency.
//!
//! Acceptance checks:
//! - `batch_max = 16` cuts replication envelopes per commit by at least
//!   2x vs. the unbatched `batch_max = 1` baseline at equal offered load;
//! - its p99 commit latency stays within the flush-deadline bound
//!   (unbatched p99 + one coordinator window + one replication window,
//!   plus scheduling slack).

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use batchkit::BatchConfig;
use flashsim::{value, Key};
use milana::client::TxnOpts;
use milana::cluster::{MilanaCluster, MilanaClusterConfig};
use obskit::{Json, Obs};
use simkit::Sim;

use crate::common::{Args, Scale};
use crate::Outcome;

const SHARDS: u32 = 2;
const REPLICAS: u32 = 3;
const CLIENTS: u32 = 4;
/// Flush window shared by the coordinator and replication planes.
const DEADLINE: Duration = Duration::from_micros(100);
/// Open-loop interarrival per client (10k txns/s/client): dense enough
/// that flush windows see more than one item.
const INTERARRIVAL: Duration = Duration::from_micros(100);
/// Allowance for timer/RPC scheduling on top of the two flush windows.
const SLACK_US: u64 = 300;

/// One measured `batch_max` setting.
pub struct BatchPoint {
    /// Coalescing limit under test.
    pub(crate) batch_max: usize,
    /// Open-loop arrivals inside the measurement window.
    pub(crate) offered: u64,
    /// Commits inside the window.
    pub(crate) commits: u64,
    /// Aborts inside the window.
    pub(crate) aborts: u64,
    /// All commits (including warm-up / drain), for per-commit rates.
    pub(crate) total_commits: u64,
    /// Replication envelopes sent by all replicas.
    pub(crate) repl_envelopes: u64,
    /// Replication records carried by those envelopes.
    pub(crate) repl_records: u64,
    /// Coordinator envelopes sent by all clients.
    pub(crate) coord_envelopes: u64,
    /// Coordinator requests carried by those envelopes.
    pub(crate) coord_items: u64,
    /// Median commit latency, µs.
    pub(crate) p50_us: u64,
    /// Tail commit latency, µs.
    pub(crate) p99_us: u64,
}

fn pct(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

/// Sweep parameters.
pub struct BatchSweepConfig {
    /// `batch_max` settings, baseline (1) first.
    pub batch_maxes: Vec<usize>,
    /// Keyspace size.
    pub keyspace: u64,
    /// Warm-up per point.
    pub warmup: Duration,
    /// Measurement window per point.
    pub measure: Duration,
}

impl BatchSweepConfig {
    /// Derives from the global scale knob.
    pub(crate) fn for_scale(scale: Scale) -> BatchSweepConfig {
        let (keyspace, warmup, measure) = match scale {
            Scale::Quick => (4_000, Duration::from_millis(50), Duration::from_millis(250)),
            Scale::Full => (20_000, Duration::from_millis(200), Duration::from_secs(2)),
        };
        BatchSweepConfig {
            batch_maxes: vec![1, 4, 8, 16],
            keyspace,
            warmup,
            measure,
        }
    }
}

fn run_point(batch_max: usize, cfg: &BatchSweepConfig, seed: u64) -> BatchPoint {
    let mut sim = Sim::new(seed);
    let h = sim.handle();
    let obs = Obs::new();
    let keyspace = cfg.keyspace;
    let (warmup, measure) = (cfg.warmup, cfg.measure);
    let batch = BatchConfig {
        batch_max,
        batch_deadline: DEADLINE,
    };
    let mut cluster_cfg = MilanaClusterConfig {
        shards: SHARDS,
        replicas: REPLICAS,
        clients: CLIENTS,
        preload_keys: keyspace,
        ..MilanaClusterConfig::default()
    };
    cluster_cfg.tuning.batch = batch;
    cluster_cfg.tuning.obs = obs.clone();
    cluster_cfg.client_cfg.batch = batch;
    let cluster = MilanaCluster::build(&h, cluster_cfg);
    let clients = cluster.clients.clone();
    let hh = h.clone();
    // (commit latencies, aborts, offered) inside the measurement window.
    let acc = Rc::new(RefCell::new((Vec::<u64>::new(), 0u64, 0u64)));
    let acc2 = acc.clone();
    sim.block_on(async move {
        let start = hh.now() + warmup;
        let until = start + measure;
        let mut drivers = Vec::new();
        for c in &cluster.clients {
            let c = c.clone();
            let hh2 = hh.clone();
            let acc = acc2.clone();
            drivers.push(hh.spawn(async move {
                let mut next = hh2.now();
                while hh2.now() < until {
                    let c2 = c.clone();
                    let hh3 = hh2.clone();
                    let acc = acc.clone();
                    let key = Key::from(hh2.rand_range(0, keyspace));
                    hh2.spawn(async move {
                        let t0 = hh3.now();
                        let measured = t0 >= start;
                        if measured {
                            acc.borrow_mut().2 += 1;
                        }
                        let mut t = c2.begin_with(TxnOpts::default());
                        if t.get(&key).await.is_err() {
                            return;
                        }
                        t.put(key, value(&b"batched"[..]));
                        match t.commit().await {
                            Ok(_) if measured => {
                                let ns = (hh3.now() - t0).as_nanos() as u64;
                                acc.borrow_mut().0.push(ns);
                            }
                            Err(_) if measured => acc.borrow_mut().1 += 1,
                            _ => {}
                        }
                    });
                    next += INTERARRIVAL;
                    hh2.sleep_until(next).await;
                }
            }));
        }
        for d in drivers {
            d.await;
        }
        // Drain in-flight transactions so their RPCs are accounted.
        hh.sleep(Duration::from_millis(20)).await;
    });
    let (mut lat, aborts, offered) = Rc::try_unwrap(acc).unwrap().into_inner();
    lat.sort_unstable();
    let reg = &obs.registry;
    let (mut repl_envelopes, mut repl_records) = (0, 0);
    for n in 0..SHARDS * REPLICAS {
        repl_envelopes += reg.counter(&format!("milana.node{n}.repl_envelopes")).get();
        repl_records += reg.counter(&format!("milana.node{n}.repl_records")).get();
    }
    let (mut coord_envelopes, mut coord_items) = (0, 0);
    for c in 0..CLIENTS {
        coord_envelopes += reg
            .counter(&format!("milana.client{c}.coord_envelopes"))
            .get();
        coord_items += reg.counter(&format!("milana.client{c}.coord_items")).get();
    }
    BatchPoint {
        batch_max,
        offered,
        commits: lat.len() as u64,
        aborts,
        total_commits: clients.iter().map(|c| c.stats().commits).sum(),
        repl_envelopes,
        repl_records,
        coord_envelopes,
        coord_items,
        p50_us: pct(&lat, 0.5) / 1_000,
        p99_us: pct(&lat, 0.99) / 1_000,
    }
}

fn env_per_commit(p: &BatchPoint) -> f64 {
    p.repl_envelopes as f64 / p.total_commits.max(1) as f64
}

/// `repro batch`.
pub(crate) fn repro(args: &Args, scale: Scale) -> Outcome {
    let seed = args.last_or("--seed", 1u64);
    eprintln!(
        "batch sweep: seed {seed}, 4 clients x {}/s, deadline {} us ...",
        Duration::from_secs(1).as_nanos() / INTERARRIVAL.as_nanos(),
        DEADLINE.as_micros()
    );
    let points = run(&BatchSweepConfig::for_scale(scale), seed);
    print(&points);
    Outcome {
        data: to_json(&points, seed),
        ok: ok(&points),
    }
}

/// Runs the full sweep, one point per `batch_max`, all from `seed`, on
/// the `perfkit` worker pool (each point is an independent sim; results
/// merge back in sweep order).
pub fn run(cfg: &BatchSweepConfig, seed: u64) -> Vec<BatchPoint> {
    perfkit::pool::run_ordered_auto(cfg.batch_maxes.clone(), |b| run_point(b, cfg, seed))
}

/// Acceptance verdicts; see the module docs.
pub(crate) struct BatchChecks {
    /// Envelope-per-commit reduction, baseline / batch 16.
    pub(crate) reduction: f64,
    /// p99 bound: baseline p99 + two flush windows + slack.
    pub(crate) bound_us: u64,
    /// `batch_max = 16` p99, for reporting.
    pub(crate) best_p99_us: u64,
    /// Reduction at least 2x.
    pub(crate) reduction_ok: bool,
    /// p99 within the bound.
    pub(crate) latency_ok: bool,
}

/// Evaluates the acceptance checks over a finished sweep.
pub(crate) fn checks(points: &[BatchPoint]) -> BatchChecks {
    let base = points.iter().find(|p| p.batch_max == 1).expect("baseline");
    let best = points.iter().find(|p| p.batch_max == 16).expect("batch 16");
    let reduction = env_per_commit(base) / env_per_commit(best);
    let bound_us = base.p99_us + 2 * DEADLINE.as_micros() as u64 + SLACK_US;
    BatchChecks {
        reduction,
        bound_us,
        best_p99_us: best.p99_us,
        reduction_ok: reduction >= 2.0,
        latency_ok: best.p99_us <= bound_us,
    }
}

/// Prints the sweep table and the acceptance verdicts.
pub(crate) fn print(points: &[BatchPoint]) {
    println!(
        "{:>9} {:>8} {:>8} {:>7} {:>9} {:>9} {:>10} {:>9} {:>8} {:>8}",
        "batch_max",
        "offered",
        "commits",
        "aborts",
        "repl_env",
        "repl_rec",
        "coord_env",
        "coord_it",
        "p50_us",
        "p99_us"
    );
    for p in points {
        println!(
            "{:>9} {:>8} {:>8} {:>7} {:>9} {:>9} {:>10} {:>9} {:>8} {:>8}",
            p.batch_max,
            p.offered,
            p.commits,
            p.aborts,
            p.repl_envelopes,
            p.repl_records,
            p.coord_envelopes,
            p.coord_items,
            p.p50_us,
            p.p99_us
        );
    }
    let c = checks(points);
    println!(
        "replication-RPC reduction at batch_max=16: {:.2}x per commit ({})",
        c.reduction,
        if c.reduction_ok {
            "ok, >= 2x"
        } else {
            "FAILED, < 2x"
        }
    );
    println!(
        "p99 commit latency at batch_max=16: {} us vs bound {} us ({})",
        c.best_p99_us,
        c.bound_us,
        if c.latency_ok { "ok" } else { "FAILED" }
    );
}

/// Deterministic JSON payload for the artifact.
pub fn to_json(points: &[BatchPoint], seed: u64) -> Json {
    let c = checks(points);
    Json::obj()
        .field("seed", Json::U64(seed))
        .field("deadline_us", Json::U64(DEADLINE.as_micros() as u64))
        .field(
            "interarrival_us",
            Json::U64(INTERARRIVAL.as_micros() as u64),
        )
        .field("shards", Json::U64(u64::from(SHARDS)))
        .field("replicas", Json::U64(u64::from(REPLICAS)))
        .field("clients", Json::U64(u64::from(CLIENTS)))
        .field(
            "points",
            Json::arr(points.iter().map(|p| {
                Json::obj()
                    .field("batch_max", Json::U64(p.batch_max as u64))
                    .field("offered", Json::U64(p.offered))
                    .field("commits", Json::U64(p.commits))
                    .field("aborts", Json::U64(p.aborts))
                    .field("total_commits", Json::U64(p.total_commits))
                    .field("repl_envelopes", Json::U64(p.repl_envelopes))
                    .field("repl_records", Json::U64(p.repl_records))
                    .field("coord_envelopes", Json::U64(p.coord_envelopes))
                    .field("coord_items", Json::U64(p.coord_items))
                    .field("p50_commit_us", Json::U64(p.p50_us))
                    .field("p99_commit_us", Json::U64(p.p99_us))
            })),
        )
        .field(
            "checks",
            Json::obj()
                .field(
                    "rpc_reduction_x",
                    Json::F64((c.reduction * 100.0).round() / 100.0),
                )
                .field("p99_bound_us", Json::U64(c.bound_us))
                .field("reduction_ok", Json::Bool(c.reduction_ok))
                .field("latency_ok", Json::Bool(c.latency_ok)),
        )
}

/// True when every acceptance check passed.
pub(crate) fn ok(points: &[BatchPoint]) -> bool {
    let c = checks(points);
    c.reduction_ok && c.latency_ok
}

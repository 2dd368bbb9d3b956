//! Table 1 — single-SSD multi-version FTL performance: unified (MFTL) vs
//! split (VFTL) under varying get/put mixes.
//!
//! Paper setup (§5.1): one emulated SSD, 2 M keys, 512 B tuples, closed-loop
//! KV micro-benchmark, 15-minute runs. Reported: throughput (kilo-req/s) and
//! average get/put latency for get ratios 100/75/50/25 %.
//!
//! We reproduce the same experiment at reduced scale (keyspace and run
//! length; see `REPRO_SCALE`) on the simulated device with the paper's
//! timing parameters (4 KB pages, 32 pages/block, 50 µs read, 100 µs
//! program, 1 ms erase, queue depth 128, 1 ms packing window).
//!
//! Per-op software overhead models the cost the paper attributes to the
//! split design: VFTL traverses two mapping layers through a block
//! interface, MFTL one unified table (§3.1: SDF "collapses the two-step
//! translation into a single translation").

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use flashsim::{value, Backend, BackendKind, Key, NandConfig, StoreError, Value};
use obskit::{Histogram, Json};
use rand::rngs::StdRng;
use rand::Rng;
use simkit::Sim;
use timesync::{ClientId, Discipline, SyncedClock, Timestamp, Version};

use crate::common::{trail_watermark, Args, Scale};
use crate::Outcome;

/// One measured cell of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Get percentage of the op mix.
    pub(crate) get_pct: u32,
    /// "VFTL" or "MFTL".
    pub(crate) ftl: &'static str,
    /// Throughput in kilo-requests per (virtual) second.
    pub(crate) kiops: f64,
    /// Mean get latency, µs.
    pub(crate) get_us: f64,
    /// Mean put latency, µs (NaN for 100 % gets).
    pub(crate) put_us: f64,
}

/// The paper's Table 1 numbers, for side-by-side printing.
pub(crate) const PAPER_TABLE1: &[(u32, f64, f64, f64, f64, f64, f64)] = &[
    // get%, VFTL kIOPS, MFTL kIOPS, VFTL get us, MFTL get us, VFTL put us, MFTL put us
    (100, 351.0, 456.0, 68.1, 59.9, f64::NAN, f64::NAN),
    (75, 295.0, 430.0, 363.1, 62.9, 568.5, 872.8),
    (50, 217.0, 277.0, 516.6, 70.3, 673.8, 859.0),
    (25, 215.0, 189.0, 435.6, 77.7, 659.8, 895.8),
];

/// Device + run parameters for one cell.
#[derive(Debug, Clone)]
pub struct Table1Config {
    /// Preloaded keys.
    pub keys: u64,
    /// Closed-loop workers.
    pub workers: u32,
    /// Channels on the device.
    pub channels: u32,
    /// Fraction of device capacity occupied by the dataset.
    pub utilization: f64,
    /// Warm-up (virtual).
    pub warmup: Duration,
    /// Measurement window (virtual).
    pub measure: Duration,
}

impl Table1Config {
    /// Derives a config from the global scale knob.
    pub(crate) fn for_scale(scale: Scale) -> Table1Config {
        let quick = Table1Config {
            keys: 20_000,
            workers: 64,
            channels: 32,
            utilization: 0.08,
            warmup: Duration::from_millis(400),
            measure: Duration::from_millis(1000),
        };
        match scale {
            Scale::Quick => quick,
            Scale::Full => Table1Config {
                keys: 200_000,
                warmup: Duration::from_millis(800),
                measure: Duration::from_secs(3),
                ..quick
            },
        }
    }
}

/// The device a store run uses: `channels` wide, sized so `keys`
/// 512-byte tuples fill `utilization` of it.
pub(crate) fn device(channels: u32, keys: u64, utilization: f64) -> NandConfig {
    NandConfig {
        channels,
        ..NandConfig::default()
    }
    .sized_for(keys, 512, utilization)
}

/// Bulk-loads keys `0..keys` into `store` at version 1 as 512-byte tuples
/// (16 B key + 472 B value + 24 B header); returns the value payload.
pub(crate) fn preload(store: &Backend, keys: u64) -> Value {
    let payload = value(vec![0u8; 472]);
    store.reserve(keys as usize);
    for i in 0..keys {
        store.bulk_load(
            Key::from(i),
            payload.clone(),
            Version::new(Timestamp(1), ClientId(0)),
        );
    }
    store.finish_load();
    payload
}

/// What one closed-loop store run measured in its window.
#[derive(Debug)]
pub(crate) struct StoreRun {
    /// Get latencies, ns.
    pub(crate) gets: Histogram,
    /// Latencies of the puts that succeeded, ns.
    pub(crate) puts: Histogram,
    /// Puts refused by capacity backpressure.
    pub(crate) put_errors: u64,
    /// Device pages programmed while the workers ran (GC included).
    pub(crate) pages_written: u64,
}

/// Preloads `store` (built on [`device`]`(cfg.channels, cfg.keys,
/// cfg.utilization)`) and drives it with `cfg.workers` closed-loop
/// workers on uniform keys for `cfg.warmup + cfg.measure` of virtual
/// time, trailing the GC watermark 50 ms behind. Each operation draws its
/// key, then `is_get` picks get or put. Only the window after the warm-up
/// counts (a zero warm-up counts from the first operation); a failed get
/// counts only if `failed_gets`.
pub(crate) fn closed_loop(
    sim: &mut Sim,
    store: Backend,
    cfg: &Table1Config,
    is_get: impl Fn(&mut StdRng) -> bool + Copy + 'static,
    failed_gets: bool,
) -> StoreRun {
    let h = sim.handle();
    let payload = preload(&store, cfg.keys);
    let gc_store = store.clone();
    trail_watermark(&h, move |wm| gc_store.set_watermark(wm));

    let measuring = Rc::new(Cell::new(cfg.warmup.is_zero()));
    let get_hist = Rc::new(RefCell::new(Histogram::new()));
    let put_hist = Rc::new(RefCell::new(Histogram::new()));
    let put_errors = Rc::new(Cell::new(0u64));
    let pages_before = store.stats().pages_written;
    let until = h.now() + cfg.warmup + cfg.measure;
    let mut joins = Vec::new();
    for w in 0..cfg.workers {
        let store = store.clone();
        let hh = h.clone();
        let payload = payload.clone();
        let measuring = measuring.clone();
        let get_hist = get_hist.clone();
        let put_hist = put_hist.clone();
        let put_errors = put_errors.clone();
        let keys = cfg.keys;
        joins.push(h.spawn(async move {
            let mut rng = hh.fork_rng();
            let client = ClientId(w + 1);
            // A strictly monotonic per-worker clock (the SEMEL client
            // library's behavior): retried writes get fresh, larger stamps.
            let clock = SyncedClock::new(Discipline::Perfect, w as u64);
            while hh.now() < until {
                let key = Key::from(rng.gen_range(0..keys));
                let get = is_get(&mut rng);
                let t0 = hh.now();
                if get {
                    let at = clock.now(hh.now());
                    let ok = store.get_at(&key, at).await.is_ok();
                    if measuring.get() && (ok || failed_gets) {
                        get_hist
                            .borrow_mut()
                            .record((hh.now() - t0).as_nanos() as u64);
                    }
                } else {
                    // Retry timestamp races (rare under uniform keys); the
                    // monotonic clock guarantees progress.
                    let ok = loop {
                        let version = Version::new(clock.now(hh.now()), client);
                        match store.put(key.clone(), payload.clone(), version).await {
                            Ok(()) => break true,
                            Err(StoreError::StaleWrite(_)) => continue,
                            Err(_) => break false, // capacity backpressure
                        }
                    };
                    if measuring.get() {
                        if ok {
                            put_hist
                                .borrow_mut()
                                .record((hh.now() - t0).as_nanos() as u64);
                        } else {
                            put_errors.set(put_errors.get() + 1);
                        }
                    }
                }
            }
        }));
    }
    if !cfg.warmup.is_zero() {
        sim.run_until(h.now() + cfg.warmup);
        measuring.set(true);
    }
    sim.block_on(async move {
        for j in joins {
            j.await;
        }
    });
    StoreRun {
        gets: get_hist.take(),
        puts: put_hist.take(),
        put_errors: put_errors.get(),
        pages_written: store.stats().pages_written - pages_before,
    }
}

/// Runs one (FTL, get%) cell. The optional string is a stderr note about
/// puts that hit capacity backpressure — returned instead of printed so
/// parallel sweeps emit notes in deterministic (sweep) order.
pub fn run_cell(
    kind: BackendKind,
    get_pct: u32,
    cfg: &Table1Config,
    seed: u64,
) -> (Table1Row, Option<String>) {
    assert!(matches!(kind, BackendKind::Vftl | BackendKind::Mftl));
    let mut sim = Sim::new(seed);
    let store = Backend::new(
        kind,
        &sim.handle(),
        device(cfg.channels, cfg.keys, cfg.utilization),
    );
    store.attach_tracer(&crate::common::run_obs().tracer, 0);
    let run = closed_loop(
        &mut sim,
        store,
        cfg,
        move |rng| rng.gen_range(0..100u32) < get_pct,
        true,
    );
    let ftl = kind.name();
    let note = (run.put_errors > 0).then(|| {
        format!(
            "  note: {} {}% {} puts hit capacity backpressure (excluded from stats)",
            run.put_errors, get_pct, ftl
        )
    });
    let (gets, puts) = (&run.gets, &run.puts);
    let total_ops = gets.count() + puts.count();
    let row = Table1Row {
        get_pct,
        ftl,
        kiops: total_ops as f64 / cfg.measure.as_secs_f64() / 1e3,
        get_us: gets.mean() / 1e3,
        put_us: if puts.count() == 0 {
            f64::NAN
        } else {
            puts.mean() / 1e3
        },
    };
    (row, note)
}

/// `repro table1`.
pub(crate) fn repro(_: &Args, scale: Scale) -> Outcome {
    eprintln!("running Table 1 at {scale:?} scale (REPRO_SCALE=full for more) ...");
    let rows = run(&Table1Config::for_scale(scale));
    print(&rows);
    Outcome::pass(to_json(&rows))
}

/// Runs the full table on the `perfkit` worker pool (one sim per cell,
/// merged back — and backpressure notes printed — in sweep order).
pub(crate) fn run(cfg: &Table1Config) -> Vec<Table1Row> {
    let mut items = Vec::new();
    for &get_pct in &[100u32, 75, 50, 25] {
        for kind in [BackendKind::Vftl, BackendKind::Mftl] {
            items.push((kind, get_pct));
        }
    }
    let cells = perfkit::pool::run_ordered_auto(items, |(kind, get_pct)| {
        run_cell(kind, get_pct, cfg, 1000 + get_pct as u64)
    });
    cells
        .into_iter()
        .map(|(row, note)| {
            if let Some(note) = note {
                eprintln!("{note}");
            }
            row
        })
        .collect()
}

/// Deterministic JSON payload: one object per measured cell (`put_us` is
/// `null` for the 100 % get mix — non-finite floats serialize as null).
pub fn to_json(rows: &[Table1Row]) -> Json {
    Json::obj().field(
        "rows",
        Json::arr(rows.iter().map(|r| {
            Json::obj()
                .field("get_pct", Json::U64(r.get_pct as u64))
                .field("ftl", Json::str(r.ftl))
                .field("kiops", Json::F64(r.kiops))
                .field("get_us", Json::F64(r.get_us))
                .field("put_us", Json::F64(r.put_us))
        })),
    )
}

/// Pretty-prints measured rows next to the paper's numbers.
pub(crate) fn print(rows: &[Table1Row]) {
    println!("Table 1: Single-SSD multi-version FTL performance (measured vs paper)");
    println!(
        "{:>5} {:>6} | {:>10} {:>10} | {:>10} {:>10} | {:>10} {:>10}",
        "get%", "ftl", "kIOPS", "(paper)", "get us", "(paper)", "put us", "(paper)"
    );
    for r in rows {
        let paper = PAPER_TABLE1
            .iter()
            .find(|p| p.0 == r.get_pct)
            .expect("paper row");
        let (pk, pg, pp) = if r.ftl == "VFTL" {
            (paper.1, paper.3, paper.5)
        } else {
            (paper.2, paper.4, paper.6)
        };
        println!(
            "{:>5} {:>6} | {:>10.0} {:>10.0} | {:>10.1} {:>10.1} | {:>10.1} {:>10.1}",
            r.get_pct, r.ftl, r.kiops, pk, r.get_us, pg, r.put_us, pp
        );
    }
}

//! Ablations for the design choices DESIGN.md calls out:
//!
//! 1. **Replication ordering** (Contribution 1): SEMEL's inconsistent
//!    replication vs conventional sequence-ordered replication, across
//!    network jitter levels.
//! 2. **Clock discipline spectrum**: Perfect → PTP-HW → PTP-SW → NTP abort
//!    rates, extending Figure 7 to the full precision axis.
//! 3. **Mapping-table residency** (§3.1 future work): how MFTL performance
//!    degrades when the mapping no longer fits in DRAM (DFTL-style paging).

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use flashsim::dftl::{DemandMappedStore, DftlConfig};
use flashsim::mftl::{MftlConfig, UnifiedStore};
use flashsim::{value, BackendKind, Key, NandConfig, Value};
use obskit::{Histogram, Json};
use retwis::driver::WorkloadConfig;
use retwis::mix::Mix;
use semel::cluster::{ClusterConfig, SemelCluster};
use semel::server::ReplicationMode;
use simkit::rng::Zipf;
use simkit::{Sim, SimHandle};
use timesync::{ClientId, Discipline, Timestamp, Version};

use crate::common::{clock_spectrum, run_retwis_on_milana, trail_watermark, Args, Scale};
use crate::{testbed, Outcome};

/// `repro ablations`: all five, a blank line between their tables.
pub fn repro(_: &Args, scale: Scale) -> Outcome {
    eprintln!("running ablations at {scale:?} scale ...\n");
    let replication = run_replication(scale);
    println!();
    let clocks = run_clocks(scale);
    println!();
    let dftl = run_dftl(scale);
    println!();
    let packing = run_packing(scale);
    println!();
    let open_loop = run_open_loop(scale);
    Outcome::pass(
        Json::obj()
            .field("replication", replication)
            .field("clocks", clocks)
            .field("dftl", dftl)
            .field("packing", packing)
            .field("open_loop", open_loop),
    )
}

// ---------------------------------------------------------------------------
// Ablation 1: inconsistent vs ordered replication
// ---------------------------------------------------------------------------

/// One measured point of the replication ablation.
#[derive(Debug, Clone)]
pub struct ReplPoint {
    /// Replication discipline.
    pub mode: &'static str,
    /// One-way network jitter (std), µs.
    pub jitter_us: u64,
    /// Mean SEMEL put latency, µs.
    pub mean_us: f64,
    /// 99th-percentile put latency, µs.
    pub p99_us: f64,
}

fn run_repl_point(mode: ReplicationMode, jitter_us: u64, seed: u64, scale: Scale) -> ReplPoint {
    let mut sim = Sim::new(seed);
    let h = sim.handle();
    let cluster = SemelCluster::build(
        &h,
        ClusterConfig {
            shards: 1,
            replicas: 3,
            clients: 4,
            backend: BackendKind::Dram, // isolate the replication protocol
            preload_keys: 2_000,
            replication: mode,
            net: simkit::net::LatencyConfig {
                one_way: Duration::from_micros(50),
                jitter_std: Duration::from_micros(jitter_us),
                ..simkit::net::LatencyConfig::default()
            },
            obs: crate::common::run_obs(),
            ..ClusterConfig::default()
        },
    );
    let hist = Rc::new(RefCell::new(Histogram::new()));
    let n_puts = match scale {
        Scale::Quick => 400u64,
        Scale::Full => 4_000,
    };
    let mut joins = Vec::new();
    for c in &cluster.clients {
        // Several concurrent put streams per client keep many records in
        // flight, which is where ordering restrictions bite.
        for _ in 0..8 {
            let c = c.clone();
            let hist = hist.clone();
            let hh = h.clone();
            joins.push(h.spawn(async move {
                let mut rng = hh.fork_rng();
                for _ in 0..n_puts / 8 {
                    let key = Key::from(rand::Rng::gen_range(&mut rng, 0..2_000u64));
                    let t0 = hh.now();
                    if c.put(key, value(vec![1u8; 64])).await.is_ok() {
                        hist.borrow_mut().record((hh.now() - t0).as_nanos() as u64);
                    }
                }
            }));
        }
    }
    sim.block_on(async move {
        for j in joins {
            j.await;
        }
    });
    let hist = hist.borrow();
    ReplPoint {
        mode: match mode {
            ReplicationMode::Inconsistent => "inconsistent",
            ReplicationMode::Ordered => "ordered",
        },
        jitter_us,
        mean_us: hist.mean() / 1e3,
        p99_us: hist.quantile(0.99) as f64 / 1e3,
    }
}

/// Runs and prints the replication-ordering ablation; returns its JSON
/// payload.
pub fn run_replication(scale: Scale) -> Json {
    println!("Ablation: inconsistent (SEMEL §3.2) vs ordered replication — put latency");
    println!(
        "{:>14} {:>10} {:>12} {:>12}",
        "mode", "jitter us", "mean us", "p99 us"
    );
    let mut items = Vec::new();
    for &jitter in &[5u64, 30, 80, 150] {
        for mode in [ReplicationMode::Inconsistent, ReplicationMode::Ordered] {
            items.push((mode, jitter));
        }
    }
    // Compute every point on the worker pool, then print in sweep order.
    let rows = perfkit::pool::run_ordered_auto(items, |(mode, jitter)| {
        run_repl_point(mode, jitter, 4_000 + jitter, scale)
    });
    for p in &rows {
        println!(
            "{:>14} {:>10} {:>12.1} {:>12.1}",
            p.mode, p.jitter_us, p.mean_us, p.p99_us
        );
    }
    for &jitter in &[5u64, 30, 80, 150] {
        let find = |m: &str| {
            rows.iter()
                .find(|p| p.mode == m && p.jitter_us == jitter)
                .expect("point")
        };
        let (inc, ord) = (find("inconsistent"), find("ordered"));
        println!(
            "  jitter {jitter:>3}us: ordered tail is {:.2}x the relaxed tail (p99)",
            ord.p99_us / inc.p99_us
        );
    }
    println!(
        "(the paper's claim: relaxed ordering keeps one slow record from stalling \
         acknowledgement of everything behind it)"
    );
    Json::obj().field(
        "rows",
        Json::arr(rows.iter().map(|p| {
            Json::obj()
                .field("mode", Json::str(p.mode))
                .field("jitter_us", Json::U64(p.jitter_us))
                .field("mean_us", Json::F64(p.mean_us))
                .field("p99_us", Json::F64(p.p99_us))
        })),
    )
}

// ---------------------------------------------------------------------------
// Ablation 2: clock discipline spectrum
// ---------------------------------------------------------------------------

/// Runs and prints the clock-spectrum ablation (extends Figure 7);
/// returns its JSON payload with the full abort-reason breakdown per
/// discipline.
pub fn run_clocks(scale: Scale) -> Json {
    println!("Ablation: clock-discipline spectrum — MILANA abort rate (%), MFTL backend");
    let alphas: Vec<f64> = match scale {
        Scale::Quick => vec![0.5, 0.7, 0.9],
        Scale::Full => vec![0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
    };
    print!("{:>12}", "clock\\alpha");
    for a in &alphas {
        print!(" {a:>7}");
    }
    println!();
    let keyspace = 5_000u64;
    let mut items = Vec::new();
    for (discipline, name) in clock_spectrum() {
        for &alpha in &alphas {
            items.push((discipline.clone(), name, alpha));
        }
    }
    // Every (discipline, α) cell is an independent sim: fan the grid out
    // on the worker pool and print the table rows afterwards in order.
    let cells = perfkit::pool::run_ordered_auto(items, |(discipline, name, alpha)| {
        let outcome = run_retwis_on_milana(
            1_700 + (alpha * 100.0) as u64,
            testbed::paper(BackendKind::Mftl, discipline.into(), 5, keyspace),
            testbed::retwis(keyspace, alpha),
            4,
            (Duration::from_millis(200), scale.measure() / 2),
        );
        let rate = outcome.stats.abort_rate();
        let row = Json::obj()
            .field("clock", Json::str(name))
            .field("alpha", Json::F64(alpha))
            .field("abort_rate", Json::F64(rate))
            .field("abort_reasons", outcome.stats.abort_reasons_json())
            .field("latency_ns", outcome.stats.latency.summary_json());
        (name, rate, row)
    });
    let mut rows = Vec::new();
    for chunk in cells.chunks(alphas.len()) {
        print!("{:>12}", chunk[0].0);
        for (_, rate, _) in chunk {
            print!(" {:>7.2}", rate * 100.0);
        }
        println!();
        rows.extend(chunk.iter().map(|(_, _, row)| row.clone()));
    }
    println!(
        "(the knee: once skew drops below the request latency — PTP-SW and better — \
         further precision stops mattering, exactly §3.3's argument; NTP sits far \
         above the knee)"
    );
    Json::obj().field("rows", Json::Arr(rows))
}

/// Prints each cell's table line, in sweep order; returns the JSON rows.
fn print_lines(cells: Vec<(String, Json)>) -> Vec<Json> {
    cells
        .into_iter()
        .map(|(line, row)| {
            println!("{line}");
            row
        })
        .collect()
}

/// An MFTL store on a `channels`-wide device, preloaded with `keys`
/// 472-byte values at 8 % utilisation; returns it with the payload.
fn loaded_mftl(h: &SimHandle, channels: u32, keys: u64, cfg: MftlConfig) -> (UnifiedStore, Value) {
    let nand = NandConfig {
        channels,
        ..NandConfig::default()
    }
    .sized_for(keys, 512, 0.08);
    let store = UnifiedStore::new(h.clone(), nand, cfg);
    let payload = value(vec![0u8; 472]);
    for i in 0..keys {
        store.bulk_load(
            Key::from(i),
            payload.clone(),
            Version::new(Timestamp(1), ClientId(0)),
        );
    }
    store.finish_load();
    (store, payload)
}

// ---------------------------------------------------------------------------
// Ablation 3: DFTL-style demand-paged mapping
// ---------------------------------------------------------------------------

/// Runs and prints the mapping-residency ablation; returns its JSON
/// payload.
pub fn run_dftl(scale: Scale) -> Json {
    println!("Ablation: mapping-table residency (§3.1 future work, DFTL-style paging)");
    println!(
        "{:>12} {:>10} {:>12} {:>14}",
        "resident %", "hit %", "get mean us", "xlation wr/s"
    );
    let keys: u64 = match scale {
        Scale::Quick => 10_000,
        Scale::Full => 50_000,
    };
    // One independent sim per residency fraction: compute on the worker
    // pool, print the table rows afterwards in sweep order.
    let cells = perfkit::pool::run_ordered_auto(vec![1.0f64, 0.5, 0.25, 0.05], |fraction| {
        let mut sim = Sim::new(1_800);
        let h = sim.handle();
        let (inner, payload) = loaded_mftl(&h, 16, keys, MftlConfig::default());
        let store = DemandMappedStore::new(
            h.clone(),
            inner,
            DftlConfig {
                cached_entries: ((keys as f64 * fraction) as usize).max(1),
            },
        );
        // Zipfian reads with 10% zipfian writes: a hot working set that a
        // partial mapping can mostly hold.
        let zipf = Rc::new(Zipf::new(keys as usize, 0.9));
        let hist = Rc::new(RefCell::new(Histogram::new()));
        let measure = scale.measure() / 3;
        let warmup = measure / 2;
        let measuring = Rc::new(std::cell::Cell::new(false));
        let until = h.now() + warmup + measure;
        let mut joins = Vec::new();
        for w in 0..16u32 {
            let store = store.clone();
            let zipf = zipf.clone();
            let hist = hist.clone();
            let payload = payload.clone();
            let measuring = measuring.clone();
            let hh = h.clone();
            joins.push(h.spawn(async move {
                let mut rng = hh.fork_rng();
                let clock = timesync::SyncedClock::new(Discipline::Perfect, w as u64);
                let client = ClientId(w + 1);
                while hh.now() < until {
                    let key = Key::from(zipf.sample(&mut rng) as u64);
                    if rand::Rng::gen_range(&mut rng, 0..10) == 0 {
                        let version = Version::new(clock.now(hh.now()), client);
                        let _ = store.put(key, payload.clone(), version).await;
                    } else {
                        let t0 = hh.now();
                        let at = clock.now(hh.now());
                        if store.get_at(&key, at).await.is_ok() && measuring.get() {
                            hist.borrow_mut().record((hh.now() - t0).as_nanos() as u64);
                        }
                    }
                }
            }));
        }
        // Warm the cache, then measure steady state only.
        sim.run_until(h.now() + warmup);
        let warm_stats = store.stats();
        measuring.set(true);
        sim.block_on(async move {
            for j in joins {
                j.await;
            }
        });
        let total = store.stats();
        let st = flashsim::dftl::DftlStats {
            hits: total.hits - warm_stats.hits,
            misses: total.misses - warm_stats.misses,
            translation_writes: total.translation_writes - warm_stats.translation_writes,
        };
        let get_mean_us = hist.borrow().mean() / 1e3;
        let writes_per_s = st.translation_writes as f64 / measure.as_secs_f64();
        let line = format!(
            "{:>12.0} {:>10.1} {:>12.1} {:>14.1}",
            fraction * 100.0,
            st.hit_rate() * 100.0,
            get_mean_us,
            writes_per_s,
        );
        let row = Json::obj()
            .field("resident_fraction", Json::F64(fraction))
            .field("hit_rate", Json::F64(st.hit_rate()))
            .field("get_mean_us", Json::F64(get_mean_us))
            .field("translation_writes_per_s", Json::F64(writes_per_s));
        (line, row)
    });
    let rows = print_lines(cells);
    println!("(the paper's all-mapping-in-DRAM assumption is the 100% row)");
    Json::obj().field("rows", Json::Arr(rows))
}

// ---------------------------------------------------------------------------
// Ablation 4: packing-window sweep
// ---------------------------------------------------------------------------

/// Runs and prints the packing-window ablation: the paper's 1 ms packer
/// delay is "tunable" (§5); this sweep shows the latency/efficiency
/// trade-off it controls. Returns its JSON payload.
pub fn run_packing(scale: Scale) -> Json {
    println!("Ablation: packing window sweep — MFTL, 75% get / 25% put");
    println!(
        "{:>10} {:>10} {:>12} {:>12} {:>14}",
        "window us", "kIOPS", "get mean us", "put mean us", "tuples/page"
    );
    let keys: u64 = match scale {
        Scale::Quick => 10_000,
        Scale::Full => 50_000,
    };
    // One independent sim per packing window: compute on the worker pool,
    // print the table rows afterwards in sweep order.
    let cells = perfkit::pool::run_ordered_auto(vec![0u64, 250, 500, 1_000, 2_000], |window_us| {
        let mut sim = Sim::new(1_900 + window_us);
        let h = sim.handle();
        let mftl = MftlConfig {
            packing_window: Duration::from_micros(window_us),
            ..MftlConfig::default()
        };
        let (store, payload) = loaded_mftl(&h, 32, keys, mftl);
        let gc_store = store.clone();
        trail_watermark(&h, move |wm| gc_store.set_watermark(wm));
        let get_hist = Rc::new(RefCell::new(Histogram::new()));
        let put_hist = Rc::new(RefCell::new(Histogram::new()));
        let pages_before = store.device().stats().page_writes;
        let measure = scale.measure() / 3;
        let until = h.now() + measure;
        let mut joins = Vec::new();
        for w in 0..64u32 {
            let store = store.clone();
            let payload = payload.clone();
            let get_hist = get_hist.clone();
            let put_hist = put_hist.clone();
            let hh = h.clone();
            joins.push(h.spawn(async move {
                let mut rng = hh.fork_rng();
                let clock = timesync::SyncedClock::new(Discipline::Perfect, w as u64);
                let client = ClientId(w + 1);
                while hh.now() < until {
                    let key = Key::from(rand::Rng::gen_range(&mut rng, 0..keys));
                    let t0 = hh.now();
                    if rand::Rng::gen_range(&mut rng, 0..4) == 0 {
                        let ok = loop {
                            let version = Version::new(clock.now(hh.now()), client);
                            match store.put(key.clone(), payload.clone(), version).await {
                                Ok(()) => break true,
                                Err(flashsim::StoreError::StaleWrite(_)) => continue,
                                Err(_) => break false,
                            }
                        };
                        if ok {
                            put_hist
                                .borrow_mut()
                                .record((hh.now() - t0).as_nanos() as u64);
                        }
                    } else {
                        let at = clock.now(hh.now());
                        if store.get_at(&key, at).await.is_ok() {
                            get_hist
                                .borrow_mut()
                                .record((hh.now() - t0).as_nanos() as u64);
                        }
                    }
                }
            }));
        }
        sim.block_on(async move {
            for j in joins {
                j.await;
            }
        });
        let gets = get_hist.borrow();
        let puts = put_hist.borrow();
        let pages = store.device().stats().page_writes - pages_before;
        let tuples_per_page = if pages == 0 {
            0.0
        } else {
            puts.count() as f64 / pages as f64
        };
        let kiops = (gets.count() + puts.count()) as f64 / measure.as_secs_f64() / 1e3;
        let line = format!(
            "{:>10} {:>10.0} {:>12.1} {:>12.1} {:>14.2}",
            window_us,
            kiops,
            gets.mean() / 1e3,
            puts.mean() / 1e3,
            tuples_per_page,
        );
        let row = Json::obj()
            .field("window_us", Json::U64(window_us))
            .field("kiops", Json::F64(kiops))
            .field("get_mean_us", Json::F64(gets.mean() / 1e3))
            .field("put_mean_us", Json::F64(puts.mean() / 1e3))
            .field("tuples_per_page", Json::F64(tuples_per_page));
        (line, row)
    });
    let rows = print_lines(cells);
    println!(
        "(window 0 flushes every tuple as its own page — lowest put latency, worst \
         space efficiency and most GC; larger windows trade put latency for fuller pages)"
    );
    Json::obj().field("rows", Json::Arr(rows))
}

// ---------------------------------------------------------------------------
// Ablation 5: open-loop latency vs offered load
// ---------------------------------------------------------------------------

/// Runs and prints an open-loop (Poisson-arrival) latency curve: unlike the
/// closed-loop Figure 8, this exposes queueing delay as offered load
/// approaches saturation, with and without local validation. Returns its
/// JSON payload.
pub fn run_open_loop(scale: Scale) -> Json {
    println!("Ablation: open-loop latency vs offered load — MFTL, 75% read-only");
    println!(
        "{:>10} {:>4} {:>12} {:>12} {:>12} {:>10}",
        "rate/s", "LV", "ktxn/s", "mean us", "p99 us", "shed"
    );
    let keyspace: u64 = match scale {
        Scale::Quick => 12_000,
        Scale::Full => 60_000,
    };
    let mut items = Vec::new();
    for &rate in &[2_000.0f64, 8_000.0, 16_000.0] {
        for lv in [true, false] {
            items.push((rate, lv));
        }
    }
    // Every (rate, LV) pair is an independent sim: compute on the worker
    // pool, print the table rows afterwards in sweep order.
    let cells = perfkit::pool::run_ordered_auto(items, |(rate, lv)| {
        let mut sim = Sim::new(2_000 + rate as u64);
        let h = sim.handle();
        let cluster = milana::cluster::MilanaCluster::build(
            &h,
            testbed::three_shards(BackendKind::Mftl, 8, keyspace, lv),
        );
        let wl = Rc::new(WorkloadConfig {
            mix: Mix::retwis_read_heavy(),
            max_retries: 64,
            ..testbed::retwis(keyspace, 0.5)
        });
        let zipf = Rc::new(Zipf::new(keyspace as usize, wl.zipf_alpha));
        let stats = obskit::TxnStats::new();
        let measure = scale.measure() / 2;
        let until = h.now() + measure;
        // Split the offered rate over the client machines.
        let per_client = rate / cluster.clients.len() as f64;
        let mut joins = Vec::new();
        for c in &cluster.clients {
            joins.push(h.spawn(retwis::driver::run_open_loop(
                h.clone(),
                c.clone(),
                wl.clone(),
                zipf.clone(),
                stats.clone(),
                per_client,
                256,
                until,
            )));
        }
        sim.block_on(async move {
            for j in joins {
                j.await;
            }
        });
        let lat = stats.latency.snapshot();
        let throughput = stats.commits.get() as f64 / measure.as_secs_f64();
        let line = format!(
            "{:>10.0} {:>4} {:>12.1} {:>12.1} {:>12.1} {:>10}",
            rate,
            if lv { "on" } else { "off" },
            throughput / 1e3,
            lat.mean() / 1e3,
            lat.quantile(0.99) as f64 / 1e3,
            stats.timeouts.get(),
        );
        let row = Json::obj()
            .field("offered_rate", Json::F64(rate))
            .field("lv", Json::Bool(lv))
            .field("throughput", Json::F64(throughput))
            .field("shed", Json::U64(stats.timeouts.get()))
            .field("abort_reasons", stats.abort_reasons.to_json())
            .field("latency_ns", lat.summary_json());
        (line, row)
    });
    let rows = print_lines(cells);
    println!(
        "(LV's saved round trips matter more as load rises: without LV the \
         validation traffic saturates the primaries sooner, inflating tails)"
    );
    Json::obj().field("rows", Json::Arr(rows))
}

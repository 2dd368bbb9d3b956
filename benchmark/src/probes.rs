//! Isolated host-time probes: one tight loop per layer over that layer's
//! public API, sized and shaped from the traced run's counts.
//!
//! A probe that runs inside a simulation also reports the task polls it
//! drove per operation, so the ledger can charge those to `simkit` once
//! instead of once per layer.

use std::future::Future;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

use flashsim::{Backend, BackendKind, Key, NandConfig};
use loadkit::{Admission, AdmissionConfig};
use milana::msg::{TxnId, TxnRecord, TxnStatus};
use milana::table::TxnTable;
use obskit::{Histogram, TraceEvent, Tracer};
use perfkit::FastMap;
use semel::shard::ShardId;
use simkit::net::{Addr, NodeId};
use simkit::rng::Zipf;
use simkit::rpc::{recv_request, RpcClient};
use simkit::time::SimTime;
use simkit::{Sim, SimHandle};
use timesync::{ClientId, ClockSpec, Timestamp, Version};

use crate::gen::ScriptGen;
use crate::spans::SpanLog;
use crate::workloads::{Workload, TUPLE_SIZE, VALUE_SIZE};

/// Host cost of one operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probe {
    /// Host nanoseconds per operation.
    pub ns: f64,
    /// Simulator task polls per operation (0 for pure-CPU probes).
    pub polls: f64,
}

/// What the traced run tells the probes about the workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Keys each replica stores.
    pub keys_per_replica: u64,
    /// Mean read-set entries per prepare.
    pub reads_per_prepare: usize,
    /// Mean write-set entries per prepare.
    pub writes_per_prepare: usize,
    /// Mean `TxnTable` records per replica when the window ended.
    pub table_len: u64,
    /// Seed of the traced run; the probes' simulations reuse it.
    pub seed: u64,
    /// Divisor on every probe's iteration count (1, or 10 under `--smoke`).
    pub iters_div: u64,
}

impl Shape {
    fn iters(&self, full: u64) -> u64 {
        (full / self.iters_div.max(1)).max(1)
    }
}

fn cpu(iters: u64, mut op: impl FnMut(u64)) -> Probe {
    let start = Instant::now();
    for i in 0..iters {
        op(i);
    }
    Probe {
        ns: start.elapsed().as_nanos() as f64 / iters as f64,
        polls: 0.0,
    }
}

fn in_sim(sim: &mut Sim, iters: u64, body: impl Future<Output = ()> + 'static) -> Probe {
    let h = sim.handle();
    let polls = h.polls();
    let start = Instant::now();
    sim.block_on(body);
    Probe {
        ns: start.elapsed().as_nanos() as f64 / iters as f64,
        polls: (h.polls() - polls) as f64 / iters as f64,
    }
}

fn key(i: u64) -> Key {
    Key::from(i)
}

fn version(ts: u64) -> Version {
    Version::new(Timestamp(ts), ClientId(0))
}

fn payload() -> flashsim::Value {
    flashsim::value(vec![0x5au8; VALUE_SIZE])
}

/// Multiplicative-hash walk over `0..n`: spreads successive lookups across
/// the whole map the way hashed client keys do.
fn scatter(i: u64, n: u64) -> u64 {
    i.wrapping_mul(0x9e37_79b9_7f4a_7c15) % n
}

/// `sleep → wake` cycle of one task: a timer insert, a pop and a poll.
pub fn simkit_timer(shape: &Shape) -> Probe {
    let n = shape.iters(200_000);
    let mut sim = Sim::new(shape.seed);
    let h = sim.handle();
    in_sim(&mut sim, n, async move {
        for _ in 0..n {
            h.sleep(Duration::from_micros(1)).await;
        }
    })
}

/// Spawn and join of a trivial task.
pub fn simkit_spawn(shape: &Shape) -> Probe {
    let n = shape.iters(200_000);
    let mut sim = Sim::new(shape.seed);
    let h = sim.handle();
    in_sim(&mut sim, n, async move {
        for i in 0..n {
            black_box(h.spawn(async move { i }).await);
        }
    })
}

/// One message from `send` to the receiver's `recv` returning.
pub fn simkit_net_deliver(shape: &Shape) -> Probe {
    let n = shape.iters(100_000);
    let mut sim = Sim::new(shape.seed);
    let h = sim.handle();
    let (from, to) = (Addr::new(NodeId(0), 0), Addr::new(NodeId(1), 0));
    let mailbox = h.bind(to);
    in_sim(&mut sim, n, async move {
        for i in 0..n {
            h.send(from, to, i);
            black_box(mailbox.recv().await);
        }
    })
}

/// One typed RPC round trip against an echo server.
pub fn simkit_rpc_roundtrip(shape: &Shape) -> Probe {
    let n = shape.iters(50_000);
    let mut sim = Sim::new(shape.seed);
    let h = sim.handle();
    let server = Addr::new(NodeId(1), 0);
    let mailbox = h.bind(server);
    let hs = h.clone();
    h.spawn_on(server.node, async move {
        while let Some((req, _, responder)) = recv_request::<u64>(&hs, &mailbox).await {
            responder.reply(req);
        }
    });
    let rpc = RpcClient::new(&h, NodeId(0), 1);
    in_sim(&mut sim, n, async move {
        for i in 0..n {
            let echoed = rpc
                .call::<u64, u64>(server, i, Duration::from_secs(1))
                .await;
            black_box(echoed.ok());
        }
    })
}

/// `SyncedClock::now` under the deployment's clock discipline.
pub fn timesync_now(shape: &Shape) -> Probe {
    let clock = ClockSpec::ptp_software().build(shape.seed);
    cpu(shape.iters(2_000_000), |i| {
        black_box(clock.now(SimTime::from_nanos(i * 1_000)));
    })
}

fn txid(seq: u64) -> TxnId {
    TxnId {
        client: ClientId(1),
        seq,
    }
}

/// A prepared record writing `shape.writes_per_prepare` keys drawn from the
/// replica's own keyspace (fresh keys per record would grow the table's key
/// map without bound, which the program's bounded keyspace never does).
fn record(seq: u64, shape: &Shape) -> TxnRecord {
    let keyspace = shape.keys_per_replica.max(1_024);
    TxnRecord {
        txid: txid(seq),
        ts_commit: Timestamp(1_000 + seq),
        writes: (0..shape.writes_per_prepare.max(1) as u64)
            .map(|j| {
                let id = scatter(seq * 16 + j, keyspace);
                (key(id), flashsim::value(&b"v"[..]))
            })
            .collect::<Vec<_>>()
            .into(),
        participants: vec![ShardId(0)].into(),
        status: TxnStatus::Prepared,
    }
}

/// A table holding `shape.table_len` decided records, as a replica's does
/// when the window ends.
fn populated_table(shape: &Shape) -> TxnTable {
    let mut table = TxnTable::new();
    for seq in 0..shape.table_len.clamp(1_024, 1 << 18) {
        table.prepare(record(seq, shape));
        table.decide(txid(seq), true);
    }
    table
}

/// Algorithm-1 validation of a clean read and write set against a table of
/// the size the run ended with.
pub fn milana_validate(shape: &Shape) -> Probe {
    let table = populated_table(shape);
    let keyspace = shape.keys_per_replica.max(1_024);
    let committed: FastMap<Key, Version> = (0..keyspace).map(|i| (key(i), version(100))).collect();
    type PrepareSets = (Vec<(Key, Version)>, Vec<Key>);
    let sets: Vec<PrepareSets> = (0..512u64)
        .map(|s| {
            let at = |j: u64| key(scatter(s * 64 + j, keyspace));
            (
                (0..shape.reads_per_prepare as u64)
                    .map(|j| (at(j), version(100)))
                    .collect(),
                (0..shape.writes_per_prepare as u64)
                    .map(|j| at(32 + j))
                    .collect(),
            )
        })
        .collect();
    cpu(shape.iters(500_000), |i| {
        let (reads, writes) = &sets[(i % sets.len() as u64) as usize];
        let verdict = table.validate(reads, writes, Timestamp(10_000), |k| {
            committed.get(k).copied()
        });
        black_box(verdict.is_success());
    })
}

/// `prepare` then `decide` of one record on that table. Records are built
/// outside the timed loop: in the program they arrive built, in a message.
pub fn milana_prepare_decide(shape: &Shape) -> Probe {
    const ROUNDS: u64 = 8;
    let per_round = shape.iters(25_000);
    let mut table = populated_table(shape);
    let mut spent = Duration::ZERO;
    for round in 0..ROUNDS {
        let base = (1 << 20) + round * per_round;
        let records: Vec<TxnRecord> = (0..per_round).map(|i| record(base + i, shape)).collect();
        let start = Instant::now();
        for r in records {
            let id = r.txid;
            table.prepare(r);
            black_box(table.decide(id, true));
        }
        spent += start.elapsed();
    }
    Probe {
        ns: spent.as_nanos() as f64 / (ROUNDS * per_round) as f64,
        polls: 0.0,
    }
}

/// One `Batcher::submit` through to its flushed result, bursts of eight
/// (a size flush) as the replication plane sees under load.
pub fn batchkit_submit(shape: &Shape) -> Probe {
    let n = shape.iters(80_000);
    let mut sim = Sim::new(shape.seed);
    let h = sim.handle();
    let batcher: batchkit::Batcher<u64, u64> = batchkit::Batcher::new(
        &h,
        NodeId(0),
        "probe",
        batchkit::BatchConfig::default(),
        obskit::Obs::new(),
        |batch: Vec<u64>| async move { batch },
    );
    in_sim(&mut sim, n, async move {
        let mut done = 0;
        while done < n {
            let burst: Vec<_> = (0..8).map(|j| batcher.submit(done + j)).collect();
            for item in burst {
                black_box(item.await);
            }
            done += 8;
        }
    })
}

/// `Admission::try_admit` plus the permit's release.
pub fn loadkit_admit(shape: &Shape) -> Probe {
    let gate = Admission::new(AdmissionConfig::default());
    cpu(shape.iters(2_000_000), |i| {
        black_box(gate.try_admit(i, 1).is_ok());
    })
}

/// A backend of `kind` preloaded like one replica of the workload.
fn loaded(kind: BackendKind, w: &Workload, keys: u64, h: &SimHandle) -> Backend {
    let nand = NandConfig {
        blocks: w.nand().blocks.max(64),
        ..w.nand()
    };
    let backend = Backend::new(kind, h, nand);
    let value = payload();
    for i in 0..keys {
        backend.bulk_load(key(i), value.clone(), version(1));
    }
    backend.finish_load();
    backend
}

/// Snapshot reads of the newest version, scattered over one replica's keys.
pub fn backend_get(kind: BackendKind, w: &Workload, shape: &Shape) -> Probe {
    let n = shape.iters(40_000);
    let mut sim = Sim::new(shape.seed);
    let h = sim.handle();
    let keys = shape.keys_per_replica;
    let backend = loaded(kind, w, keys, &h);
    in_sim(&mut sim, n, async move {
        for i in 0..n {
            let got = backend
                .get_at(&key(scatter(i, keys)), Timestamp(1_000))
                .await;
            black_box(got.is_ok());
        }
    })
}

/// Snapshot reads that must walk past four newer versions of the key.
pub fn mftl_get_at_deep(shape: &Shape) -> Probe {
    let n = shape.iters(20_000);
    const KEYS: u64 = 1_000;
    const DEPTH: u64 = 5;
    let mut sim = Sim::new(shape.seed);
    let h = sim.handle();
    // Roomy on purpose: an awaited put programs its own page, and with the
    // watermark held back nothing is ever collected.
    let nand = NandConfig {
        channels: 8,
        ..NandConfig::default()
    }
    .sized_for(KEYS * DEPTH, TUPLE_SIZE, 0.05);
    let backend = Backend::new(BackendKind::Mftl, &h, nand);
    for i in 0..KEYS {
        backend.bulk_load(key(i), payload(), version(1));
    }
    backend.finish_load();
    let writer = backend.clone();
    sim.block_on(async move {
        for depth in 1..DEPTH {
            for i in 0..KEYS {
                let put = writer.put(key(i), payload(), version(100 * depth));
                put.await.expect("device sized for the chain");
            }
        }
    });
    in_sim(&mut sim, n, async move {
        for i in 0..n {
            let got = backend.get_at(&key(scatter(i, KEYS)), Timestamp(50)).await;
            black_box(got.is_ok());
        }
    })
}

/// Puts with the watermark following the writer, so packing and pruning
/// run. With `gc`, the device is half full and garbage collection runs too;
/// without, it is roomy enough that no block is ever collected. Also
/// returns the GC collections the loop drove per put.
pub fn mftl_put(shape: &Shape, gc: bool) -> (Probe, f64) {
    let n = shape.iters(40_000);
    const KEYS: u64 = 2_000;
    let mut sim = Sim::new(shape.seed);
    let h = sim.handle();
    let nand = NandConfig {
        channels: 8,
        ..NandConfig::default()
    };
    let nand = if gc {
        nand.sized_for(KEYS, TUPLE_SIZE, 0.5)
    } else {
        // Room for every put to program a page of its own.
        nand.sized_for(8 * (KEYS + n), TUPLE_SIZE, 0.5)
    };
    let backend = Backend::new(BackendKind::Mftl, &h, nand);
    for i in 0..KEYS {
        backend.bulk_load(key(i), payload(), version(1));
    }
    backend.finish_load();
    let writer = backend.clone();
    let probe = in_sim(&mut sim, n, async move {
        for i in 0..n {
            let ts = 10 + i;
            if i % 64 == 0 {
                writer.set_watermark(Timestamp(ts - 1));
            }
            let put = writer.put(key(scatter(i, KEYS)), payload(), version(ts));
            black_box(put.await.is_ok());
        }
    });
    (probe, backend.stats().gc_collections as f64 / n as f64)
}

/// Host microseconds per thousand pages of a mount scan after a power
/// failure, on a device preloaded like one replica.
pub fn mount_us_per_kpage(w: &Workload, shape: &Shape) -> f64 {
    let mut sim = Sim::new(shape.seed);
    let h = sim.handle();
    let backend = loaded(BackendKind::Mftl, w, shape.keys_per_replica, &h);
    backend.power_fail();
    let start = Instant::now();
    let report = sim.block_on(async move { backend.mount().await });
    let us = start.elapsed().as_nanos() as f64 / 1e3;
    us / (report.pages_scanned.max(1) as f64 / 1e3)
}

/// `Tracer::record` into a ring that is already wrapping.
pub fn obskit_trace_record(shape: &Shape) -> Probe {
    let tracer = Tracer::bounded(1 << 16);
    cpu(shape.iters(2_000_000), |i| {
        tracer.record(
            i,
            TraceEvent::Commit {
                client: i & 15,
                ts_commit: i,
                local: false,
            },
        );
    })
}

/// `Histogram::record` of latency-sized values.
pub fn obskit_hist_record(shape: &Shape) -> Probe {
    let mut hist = Histogram::new();
    let probe = cpu(shape.iters(4_000_000), |i| {
        hist.record(1_000_000 + scatter(i, 4_000_000))
    });
    black_box(hist.count());
    probe
}

/// Planning one script of the workload's mix.
pub fn gen_plan(w: &Workload, shape: &Shape) -> Probe {
    let zipf = Rc::new(Zipf::new(w.keys as usize, w.zipf_alpha));
    let mut gen = ScriptGen::new(Rc::new(w.mix.clone()), zipf, shape.seed, 0);
    cpu(shape.iters(200_000), |_| {
        black_box(gen.next_script());
    })
}

/// Opening and closing one driver span.
pub fn gen_span(shape: &Shape) -> Probe {
    let mut log = SpanLog::default();
    let probe = cpu(shape.iters(1_000_000), |i| {
        let id = log.open("get", 0, i, i);
        log.close(id, i + 1);
    });
    black_box(log.spans().len());
    probe
}

//! One repeat of one workload in this process: build and preload the
//! cluster, warm up, drive the measured window, then read the results off
//! the recorder and the layers' public counters.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use faultkit::{Checker, History};
use milana::cluster::MilanaCluster;
use milana::server::TxnServerStats;
use obskit::{AbortClass, Json, Obs, RecoveryPhase, TraceEvent};
use semel::shard::ShardId;
use simkit::rng::Zipf;
use simkit::time::SimTime;
use simkit::{Sim, SimHandle};

use crate::calib::{HostTime, Stopwatch};
use crate::counters::Counters;
use crate::drive::{run_instance, InstanceCtx, Recorder};
use crate::gen::ScriptGen;
use crate::spans::SpanLog;
use crate::stats::{median, percentile, Digest, Percentile};
use crate::workloads::{Workload, REPLICAS, TRACE_CAPACITY, VALUE_SIZE, WARMUP};

/// How much of the tracing machinery a repeat turns on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// End-to-end measurement: driver spans off; the `obskit` tracer only
    /// where the workload itself needs it (the history checker's input).
    Measured,
    /// Driver spans and the `obskit` tracer on; per-layer metrics come from
    /// this run and from nowhere else.
    Traced,
    /// Every tracer off, the checker skipped: the base `trace_overhead_share`
    /// is measured against.
    Plain,
}

/// The shard whose last backup loses power and cold-restarts.
const POWER_FAIL_SHARD: ShardId = ShardId(0);
const POWER_FAIL_REPLICA: usize = REPLICAS as usize - 1;
/// The shard whose primary is killed and replaced.
const FAILOVER_SHARD: ShardId = ShardId(1);
/// How long the killed primary stays undetected before promotion.
const DETECTION_DELAY: Duration = Duration::from_millis(20);
/// Closed-loop traffic kept up after the kill, so the history holds reads
/// served by the promoted primary (what a lost acknowledged write shows in).
const VERIFY: Duration = Duration::from_millis(300);
/// Virtual length of one timed slice of the measured window.
const SLICE: Duration = Duration::from_millis(150);
/// Longest the cold-restarted replica may take to reach `Serving` once the
/// traffic has stopped.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);

/// What the fault schedule did, for the correctness gate and `recoverkit.*`.
#[derive(Debug, Default)]
struct FaultLog {
    retired: Vec<TxnServerStats>,
    restart_at_ns: u64,
    victim_node: u64,
}

/// What the epilogue of a fault workload saw.
#[derive(Debug, Clone, Copy)]
pub struct Epilogue {
    /// The promotion RPC succeeded.
    pub promoted: bool,
    /// Primary kill → promotion complete, virtual ns.
    pub promote_ns: u64,
    /// Scripts committed by the verification traffic.
    pub verify_commits: u64,
    /// The cold-restarted replica reached `Serving`.
    pub serving: bool,
}

/// Timings of the history check on `failover_checked`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckReport {
    /// Trace events the history was built from.
    pub events: u64,
    /// Host time in `History::from_events`.
    pub build: HostTime,
    /// Host time in `Checker::check`.
    pub check: HostTime,
    /// Violations found.
    pub violations: u64,
}

/// Recovery timeline of the cold-restarted replica, from `RecoveryStep`
/// trace events (virtual ns; all zero when no replica restarted).
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryTimeline {
    /// `MountStart → MountDone`.
    pub mount_ns: u64,
    /// `MountDone → Serving`.
    pub catchup_ns: u64,
    /// Restart → `Serving`.
    pub mttr_ns: u64,
}

/// Everything one repeat measured.
#[derive(Debug)]
pub struct RunOutput {
    /// The workload that ran.
    pub workload: Workload,
    /// Seed of inputs and simulation.
    pub seed: u64,
    /// Tracing mode.
    pub mode: Mode,
    /// Virtual length of the measured window.
    pub window: Duration,
    /// Host time for cluster build, preload and warm-up.
    pub setup: HostTime,
    /// Host time the simulator spent on the measured window.
    pub sim_host: HostTime,
    /// Median resident set over the window's slice boundaries, MiB.
    pub rss_mb: f64,
    /// The window's recorder.
    pub rec: Recorder,
    /// Layer counters accumulated over the window.
    pub delta: Counters,
    /// Sum of `TxnTable::len` over all replicas when the window ended.
    pub table_len_end: u64,
    /// Mean live versions per key over a sample of primary keys.
    pub live_versions_per_key: f64,
    /// `obskit` trace events evicted from the ring.
    pub trace_dropped: u64,
    /// History check (fault workloads with the tracer on).
    pub check: Option<CheckReport>,
    /// Recovery timeline (fault workloads with the tracer on).
    pub recovery: RecoveryTimeline,
    /// Promotion, verification traffic and recovery drain (fault workloads).
    pub epilogue: Option<Epilogue>,
}

/// A latency percentile in microseconds with its sample count.
pub fn us(p: Option<Percentile>) -> (f64, usize, bool) {
    match p {
        Some(p) => (p.value as f64 / 1e3, p.sample_count, p.supported),
        None => (0.0, 0, false),
    }
}

impl RunOutput {
    /// Host time of the measured window: the simulator's time plus, on
    /// `failover_checked`, the history build and check.
    pub fn window_host(&self) -> HostTime {
        self.sim_host
            + self
                .check
                .map_or(HostTime::default(), |c| c.build + c.check)
    }

    /// Hash of everything simulated: a host-only optimisation must leave it
    /// unchanged on every workload.
    pub fn sim_digest(&self) -> u64 {
        let (r, d) = (&self.rec, &self.delta);
        let mut h = Digest::default();
        for v in [
            r.arrivals,
            r.commits,
            r.abandoned,
            r.in_flight_at_deadline,
            r.attempts,
            r.timeouts,
        ] {
            h.push(v);
        }
        h.push_all(&r.aborts);
        for name in [
            "polls",
            "msgs_sent",
            "pages_read",
            "pages_written",
            "block_erases",
        ] {
            h.push(d.get(name));
        }
        h.push_all(&r.ro_latency_ns);
        h.push_all(&r.rw_latency_ns);
        h.finish()
    }

    /// The virtual-clock end-to-end metrics, each with its sample count
    /// (0 where the metric is not a percentile) and whether the percentile
    /// rule supports it.
    pub fn virtual_metrics(&self) -> Vec<(&'static str, f64, usize, bool)> {
        let r = &self.rec;
        let mut ro = r.ro_latency_ns.clone();
        let mut rw = r.rw_latency_ns.clone();
        ro.sort_unstable();
        rw.sort_unstable();
        let mut all = [ro.as_slice(), rw.as_slice()].concat();
        all.sort_unstable();
        let pct = |name, sorted: &[u64], permille| {
            let (v, n, ok) = us(percentile(sorted, permille));
            (name, v, n, ok)
        };
        let attempts = r.attempts.max(1) as f64;
        let flash_bytes = self.delta.f("pages_written") * self.workload.nand().page_size as f64;
        vec![
            (
                "goodput_tps",
                r.commits as f64 / self.window.as_secs_f64(),
                0,
                true,
            ),
            pct("ro_commit_p50_us", &ro, 500),
            pct("ro_commit_p99_us", &ro, 990),
            pct("rw_commit_p50_us", &rw, 500),
            pct("rw_commit_p99_us", &rw, 990),
            pct("commit_p999_us", &all, 999),
            ("commit_success_share", r.commits as f64 / attempts, 0, true),
            (
                "flash_write_amp",
                flash_bytes / (r.user_bytes.max(1) as f64 * REPLICAS as f64),
                0,
                true,
            ),
        ]
    }

    /// Aborted attempts over all attempts.
    pub fn abort_rate(&self) -> f64 {
        self.rec.aborted_attempts() as f64 / self.rec.attempts.max(1) as f64
    }

    /// Scripts that never committed over scripts that arrived.
    pub fn failed_share(&self) -> f64 {
        self.rec.abandoned as f64 / self.rec.arrivals.max(1) as f64
    }

    /// Correctness checks of this repeat alone; each failure names itself.
    pub fn check_failures(&self, min_commits: u64) -> Vec<String> {
        let r = &self.rec;
        let mut bad = Vec::new();
        if r.arrivals != r.commits + r.abandoned + r.in_flight_at_deadline {
            bad.push(format!(
                "accounting: arrivals {} != commits {} + abandoned {} + in_flight_at_deadline {}",
                r.arrivals, r.commits, r.abandoned, r.in_flight_at_deadline
            ));
        }
        if r.attempts != r.commits + r.aborted_attempts() {
            bad.push(format!(
                "accounting: attempts {} != commits {} + aborted attempts {}",
                r.attempts,
                r.commits,
                r.aborted_attempts()
            ));
        }
        if r.commits < min_commits {
            bad.push(format!("commits {} < {min_commits}", r.commits));
        }
        if r.abandoned > 0 {
            bad.push(format!("{} scripts never committed", r.abandoned));
        }
        if self.trace_dropped > 0 {
            bad.push(format!("obskit.trace_dropped = {}", self.trace_dropped));
        }
        if let Some(c) = self.check {
            if c.violations > 0 {
                bad.push(format!("faultkit.violations = {}", c.violations));
            }
        }
        if let Some(e) = self.epilogue {
            if !e.promoted {
                bad.push("promotion of the failed shard's backup did not succeed".into());
            }
            if e.verify_commits == 0 {
                bad.push("no script committed after the promotion".into());
            }
            if !e.serving {
                bad.push("cold-restarted replica never reached Serving".into());
            }
        }
        bad
    }

    /// The per-class abort counts as a JSON object.
    pub fn aborts_json(&self) -> Json {
        AbortClass::ALL
            .iter()
            .zip(self.rec.aborts)
            .fold(Json::obj(), |doc, (class, n)| {
                doc.field(class.as_str(), Json::U64(n))
            })
    }
}

fn spawn_phase(
    h: &SimHandle,
    cluster: &MilanaCluster,
    gens: &[Rc<RefCell<ScriptGen>>],
    rec: &Rc<RefCell<Recorder>>,
    until: SimTime,
) -> Vec<simkit::JoinHandle<()>> {
    let payload = flashsim::value(vec![0x5au8; VALUE_SIZE]);
    let per_client = gens.len() / cluster.clients.len();
    gens.iter()
        .enumerate()
        .map(|(i, gen)| {
            let ctx = InstanceCtx {
                handle: h.clone(),
                client: cluster.clients[i / per_client].clone(),
                rec: rec.clone(),
                until,
                payload: payload.clone(),
                instance: i as u32,
            };
            h.spawn(run_instance(ctx, gen.clone()))
        })
        .collect()
}

/// The in-window half of the `failover_checked` schedule over
/// `[t0, t0 + window]`: power-fail a backup at T/4 and cold-restart it at
/// T/2, so mount and anti-entropy catch-up run under live load.
async fn window_faults(
    h: SimHandle,
    cluster: Rc<RefCell<MilanaCluster>>,
    log: Rc<RefCell<FaultLog>>,
    t0: SimTime,
    window: Duration,
) {
    h.sleep_until(t0 + window / 4).await;
    cluster
        .borrow()
        .power_fail_replica(POWER_FAIL_SHARD, POWER_FAIL_REPLICA);

    h.sleep_until(t0 + window / 2).await;
    let mut c = cluster.borrow_mut();
    let slot = &c.replicas[POWER_FAIL_SHARD.0 as usize][POWER_FAIL_REPLICA];
    let mut l = log.borrow_mut();
    l.retired.push(slot.server.stats());
    l.victim_node = slot.addr.node.0 as u64;
    l.restart_at_ns = h.now().as_nanos();
    c.restart_replica_cold(POWER_FAIL_SHARD, POWER_FAIL_REPLICA);
}

/// The other half, run once the window has closed: kill another shard's
/// primary, keep closed-loop traffic up while its backup is promoted after
/// [`DETECTION_DELAY`], then let the cold-restarted replica finish catching
/// up.
///
/// The kill sits at the deadline on purpose. Inside the window its stall
/// hits one script per instance — about 0.1 % of a window's commits, exactly
/// where `commit_p999_us` is read — and that metric then flips between the
/// normal tail and the stall from seed to seed.
fn epilogue(
    sim: &mut Sim,
    cluster: &Rc<RefCell<MilanaCluster>>,
    gens: &[Rc<RefCell<ScriptGen>>],
) -> Epilogue {
    let h = sim.handle();
    let killed_at = h.now();
    cluster.borrow().fail_primary(FAILOVER_SHARD);
    let verify = Rc::new(RefCell::new(Recorder::default()));
    let until = killed_at + DETECTION_DELAY + VERIFY;
    let traffic = spawn_phase(&h, &cluster.borrow(), gens, &verify, until);
    let (hp, cp) = (h.clone(), cluster.clone());
    let (promoted, promote_ns) = sim.block_on(async move {
        hp.sleep(DETECTION_DELAY).await;
        let promotion = cp.borrow().promote_backup(FAILOVER_SHARD);
        let promoted = promotion.await.is_ok();
        let promote_ns = (hp.now() - killed_at).as_nanos() as u64;
        for j in traffic {
            j.await;
        }
        (promoted, promote_ns)
    });
    let (hd, cd) = (h.clone(), cluster.clone());
    let serving = sim.block_on(async move {
        let limit = hd.now() + DRAIN_LIMIT;
        let serving = || {
            cd.borrow().replicas[POWER_FAIL_SHARD.0 as usize][POWER_FAIL_REPLICA]
                .server
                .is_serving()
        };
        while !serving() && hd.now() < limit {
            hd.sleep(Duration::from_millis(1)).await;
        }
        serving()
    });
    let verify_commits = verify.borrow().commits;
    Epilogue {
        promoted,
        promote_ns,
        verify_commits,
        serving,
    }
}

fn recovery_timeline(obs: &Obs, log: &FaultLog) -> RecoveryTimeline {
    let (mut start, mut done, mut serving) = (0, 0, 0);
    for (at, ev) in obs.tracer.events() {
        if let TraceEvent::RecoveryStep { node, phase, .. } = ev {
            if node != log.victim_node || at < log.restart_at_ns {
                continue;
            }
            match phase {
                RecoveryPhase::MountStart => start = at,
                RecoveryPhase::MountDone => done = at,
                RecoveryPhase::Serving => serving = at,
                _ => {}
            }
        }
    }
    RecoveryTimeline {
        mount_ns: done.saturating_sub(start),
        catchup_ns: serving.saturating_sub(done),
        mttr_ns: serving.saturating_sub(log.restart_at_ns),
    }
}

/// Mean live versions per key over every 16th key of each shard's primary.
fn live_versions_per_key(cluster: &MilanaCluster) -> f64 {
    let (mut versions, mut keys) = (0usize, 0usize);
    for shard in 0..cluster.replicas.len() {
        let backend = cluster.primary(ShardId(shard as u32)).backend();
        for key in backend.keys().iter().step_by(16) {
            versions += backend.versions(key).len();
            keys += 1;
        }
    }
    versions as f64 / keys.max(1) as f64
}

/// Runs one repeat.
pub fn run_one(workload: Workload, seed: u64, window: Duration, mode: Mode) -> RunOutput {
    let obs_trace = match mode {
        Mode::Measured => workload.faults,
        Mode::Traced => true,
        Mode::Plain => false,
    };
    let obs = if obs_trace {
        Obs::with_trace(TRACE_CAPACITY)
    } else {
        Obs::new()
    };

    // -- Set-up: cluster, preload, generators, warm-up -------------------
    let mut watch = Stopwatch::start();
    let mut sim = Sim::new(seed);
    let h = sim.handle();
    let ((cluster, gens), setup) = watch.time(|| {
        let cluster = MilanaCluster::build(&h, workload.cluster_config(&obs));
        let zipf = Rc::new(Zipf::new(workload.keys as usize, workload.zipf_alpha));
        let mix = Rc::new(workload.mix.clone());
        let gens: Vec<_> = (0..workload.instances())
            .map(|i| {
                let gen = ScriptGen::new(mix.clone(), zipf.clone(), seed, i);
                Rc::new(RefCell::new(gen))
            })
            .collect();
        let warm = Rc::new(RefCell::new(Recorder::default()));
        let joins = spawn_phase(&h, &cluster, &gens, &warm, h.now() + WARMUP);
        sim.block_on(async move {
            for j in joins {
                j.await;
            }
        });
        (cluster, gens)
    });

    // -- Measured window -------------------------------------------------
    let cluster = Rc::new(RefCell::new(cluster));
    let fault_log = Rc::new(RefCell::new(FaultLog::default()));
    let before = Counters::snapshot(&h, &cluster.borrow(), &obs, &[]);
    let rec = Rc::new(RefCell::new(Recorder {
        spans: (mode == Mode::Traced).then(SpanLog::default),
        ..Recorder::default()
    }));
    let t0 = h.now();
    let joins = spawn_phase(&h, &cluster.borrow(), &gens, &rec, t0 + window);
    let faults = workload.faults.then(|| {
        h.spawn(window_faults(
            h.clone(),
            cluster.clone(),
            fault_log.clone(),
            t0,
            window,
        ))
    });
    // The window runs in slices so the stopwatch can recalibrate between
    // them and the resident set can be sampled; the last interval joins the
    // attempts that were in flight at the deadline.
    let mut sim_host = HostTime::default();
    let slices = (window.as_nanos() / SLICE.as_nanos()).max(1) as u32;
    let mut rss_mb = Vec::with_capacity(slices as usize);
    for slice in 1..=slices {
        let ((), took) = watch.time(|| sim.run_until(t0 + window * slice / slices));
        sim_host = sim_host + took;
        rss_mb.push(resident_mb());
    }
    let ((), took) = watch.time(|| {
        sim.block_on(async move {
            for j in joins {
                j.await;
            }
            if let Some(f) = faults {
                f.await;
            }
        })
    });
    sim_host = sim_host + took;

    let fault_log = fault_log.borrow();
    let after = Counters::snapshot(&h, &cluster.borrow(), &obs, &fault_log.retired);
    let epilogue = workload.faults.then(|| epilogue(&mut sim, &cluster, &gens));
    let check = (workload.faults && obs_trace).then(|| {
        let (history, build) =
            watch.time(|| History::from_events(obs.tracer.events(), obs.tracer.dropped()));
        let (violations, check) = watch.time(|| Checker::new(&history).check());
        for v in &violations {
            eprintln!("violation {}: {}", v.class.as_str(), v.description);
        }
        CheckReport {
            events: obs.tracer.len() as u64,
            build,
            check,
            violations: violations.len() as u64,
        }
    });
    let recovery = if workload.faults && obs_trace {
        recovery_timeline(&obs, &fault_log)
    } else {
        RecoveryTimeline::default()
    };
    let live_versions_per_key = live_versions_per_key(&cluster.borrow());
    let rec = std::mem::take(&mut *rec.borrow_mut());
    RunOutput {
        workload,
        seed,
        mode,
        window,
        setup,
        sim_host,
        rss_mb: median(&rss_mb),
        rec,
        delta: after.since(&before),
        table_len_end: after.get("table_len"),
        live_versions_per_key,
        trace_dropped: obs.tracer.dropped(),
        check,
        recovery,
        epilogue,
    }
}

fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where `/proc` does
/// not say.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Resident set of this process right now in MiB (`VmRSS`).
pub fn resident_mb() -> f64 {
    status_mb("VmRSS:")
}

//! Closed-loop benchmark driver.
//!
//! Each *instance* executes transactions sequentially with one outstanding
//! transaction at a time, retrying an aborted transaction **with the same
//! key set and without any wait** — exactly the client behavior of §5.2.
//! Instances run until a virtual-time deadline and accumulate into a
//! shared [`TxnStats`] bundle (from `obskit`; clones share the counters).

use std::rc::Rc;

use flashsim::{value, Key, Value};
use milana::centiman::{CentTxn, CentimanClient};
use milana::client::{CommitInfo, Txn, TxnClient, TxnOpts};
use milana::msg::TxnError;
use obskit::TxnStats;
use rand::rngs::StdRng;
use rand::Rng;
use simkit::rng::Zipf;
use simkit::time::SimTime;
use simkit::SimHandle;

use crate::mix::Mix;

/// Abstraction over a transactional client so one driver exercises both
/// MILANA and the Centiman baseline.
pub trait TxnSystem: Clone + 'static {
    /// The in-flight transaction type.
    type Handle: TxnHandle;

    /// Starts a transaction.
    fn begin(&self) -> Self::Handle;

    /// Starts a transaction the workload knows to be read-only, letting
    /// systems with bounded-staleness snapshot support open it slightly
    /// in the past (backup-served reads). Defaults to [`TxnSystem::begin`].
    fn begin_read_only(&self) -> Self::Handle {
        self.begin()
    }
}

/// Operations of an in-flight transaction.
pub trait TxnHandle {
    /// Snapshot read.
    fn get(&mut self, key: &Key) -> impl std::future::Future<Output = Result<Value, TxnError>>;

    /// Buffered write.
    fn put(&mut self, key: Key, value: Value);

    /// Commit (consumes the transaction).
    fn commit(self) -> impl std::future::Future<Output = Result<CommitInfo, TxnError>>;
}

impl TxnSystem for TxnClient {
    type Handle = Txn;

    fn begin(&self) -> Txn {
        self.begin_with(TxnOpts::default())
    }

    fn begin_read_only(&self) -> Txn {
        self.begin_with(TxnOpts::snapshot())
    }
}

impl TxnHandle for Txn {
    async fn get(&mut self, key: &Key) -> Result<Value, TxnError> {
        Txn::get(self, key).await
    }

    fn put(&mut self, key: Key, value: Value) {
        Txn::put(self, key, value)
    }

    async fn commit(self) -> Result<CommitInfo, TxnError> {
        Txn::commit(self).await
    }
}

impl TxnSystem for CentimanClient {
    type Handle = CentTxn;

    fn begin(&self) -> CentTxn {
        CentimanClient::begin(self)
    }
}

impl TxnHandle for CentTxn {
    async fn get(&mut self, key: &Key) -> Result<Value, TxnError> {
        CentTxn::get(self, key).await
    }

    fn put(&mut self, key: Key, value: Value) {
        CentTxn::put(self, key, value)
    }

    async fn commit(self) -> Result<CommitInfo, TxnError> {
        CentTxn::commit(self).await
    }
}

/// Workload parameters for one experiment run.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Transaction mix.
    pub mix: Mix,
    /// Number of distinct keys (must be preloaded as ids `0..keyspace`).
    pub keyspace: u64,
    /// Zipf contention parameter α (0 = uniform).
    pub zipf_alpha: f64,
    /// Value size for writes.
    pub value_size: usize,
    /// Give up on a transaction after this many aborted attempts (still
    /// counted individually as aborts).
    pub max_retries: u32,
}

impl Default for WorkloadConfig {
    fn default() -> WorkloadConfig {
        WorkloadConfig {
            mix: Mix::retwis(),
            keyspace: 10_000,
            zipf_alpha: 0.6,
            value_size: 64,
            max_retries: 64,
        }
    }
}

/// The key script of one logical transaction: fixed on first attempt and
/// reused verbatim on retries (§5.2).
#[derive(Debug, Clone)]
struct KeyScript {
    reads: Vec<Key>,
    writes: Vec<Key>,
}

fn plan(mix: &Mix, zipf: &Zipf, rng: &mut StdRng, cfg: &WorkloadConfig) -> KeyScript {
    let t = mix.sample(rng);
    let n_gets = t.gets.sample(rng);
    let mut reads = Vec::with_capacity(n_gets as usize);
    let mut writes = Vec::with_capacity(t.puts as usize);
    let mut used = perfkit::FastSet::default();
    let draw = |rng: &mut StdRng, used: &mut perfkit::FastSet<u64>| {
        // Reject duplicates so each key appears once per transaction.
        for _ in 0..16 {
            let id = zipf.sample(rng) as u64;
            if used.insert(id) {
                return id;
            }
        }
        let id = rng.gen_range(0..cfg.keyspace);
        used.insert(id);
        id
    };
    for _ in 0..n_gets {
        reads.push(Key::from(draw(rng, &mut used)));
    }
    for _ in 0..t.puts {
        writes.push(Key::from(draw(rng, &mut used)));
    }
    KeyScript { reads, writes }
}

/// Runs one closed-loop instance against `sys` until `until` (virtual
/// time), accumulating into `stats`.
pub async fn run_instance<S: TxnSystem>(
    handle: SimHandle,
    sys: S,
    cfg: Rc<WorkloadConfig>,
    zipf: Rc<Zipf>,
    stats: TxnStats,
    until: SimTime,
) {
    let mut rng = handle.fork_rng();
    let payload = value(vec![0x5au8; cfg.value_size]);
    while handle.now() < until {
        let script = plan(&cfg.mix, &zipf, &mut rng, &cfg);
        stats.record_arrival();
        let started = handle.now();
        let mut attempts = 0u32;
        loop {
            if handle.now() >= until {
                return;
            }
            attempts += 1;
            let mut txn = if script.writes.is_empty() {
                sys.begin_read_only()
            } else {
                sys.begin()
            };
            let mut failed: Option<TxnError> = None;
            for key in &script.reads {
                match txn.get(key).await {
                    Ok(_) => {}
                    Err(e) => {
                        failed = Some(e);
                        break;
                    }
                }
            }
            let outcome = match failed {
                Some(e) => Err(e),
                None => {
                    for key in &script.writes {
                        txn.put(key.clone(), payload.clone());
                    }
                    txn.commit().await
                }
            };
            match outcome {
                Ok(_) => {
                    let now = handle.now();
                    stats.record_commit(now.as_nanos(), (now - started).as_nanos() as u64);
                    break;
                }
                Err(TxnError::Aborted(reason)) => {
                    stats.record_abort(reason.class());
                    if attempts > cfg.max_retries {
                        stats.record_abandoned();
                        break;
                    }
                    // Retry immediately with the same key script (§5.2).
                }
                Err(_) => {
                    stats.record_timeout();
                    if attempts > cfg.max_retries {
                        stats.record_abandoned();
                        break;
                    }
                }
            }
        }
    }
}

/// Runs an **open-loop** load generator against `sys` until `until`:
/// transactions arrive as a Poisson process at `rate_per_sec`, independent
/// of completion times, so latency can be measured as a function of offered
/// load (closed-loop drivers under-report queueing at saturation).
///
/// Arrivals beyond `max_outstanding` are dropped and counted (modelling
/// admission control rather than unbounded queue growth).
///
/// Every arrival is accounted: once the driver returns,
/// `arrivals == commits + abandoned + sheds` — admitted transactions retry
/// (each failed attempt individually counted as an abort or timeout) until
/// they commit or exhaust `max_retries` and are abandoned.
#[allow(clippy::too_many_arguments)] // a load generator is all knobs
pub async fn run_open_loop<S: TxnSystem>(
    handle: SimHandle,
    sys: S,
    cfg: Rc<WorkloadConfig>,
    zipf: Rc<Zipf>,
    stats: TxnStats,
    rate_per_sec: f64,
    max_outstanding: usize,
    until: SimTime,
) {
    assert!(rate_per_sec > 0.0, "open loop needs a positive rate");
    let mut rng = handle.fork_rng();
    let outstanding = Rc::new(std::cell::Cell::new(0usize));
    let mut joins = Vec::new();
    loop {
        let gap = simkit::rng::exponential(&mut rng, 1.0 / rate_per_sec);
        handle
            .sleep(std::time::Duration::from_nanos((gap * 1e9) as u64))
            .await;
        if handle.now() >= until {
            break;
        }
        stats.record_arrival();
        if outstanding.get() >= max_outstanding {
            // Driver-side admission control: the arrival is refused before
            // any attempt is made, so it is a shed, not a timeout.
            stats.record_shed();
            continue;
        }
        outstanding.set(outstanding.get() + 1);
        let script = plan(&cfg.mix, &zipf, &mut rng, &cfg);
        let sys = sys.clone();
        let cfg = cfg.clone();
        let stats = stats.clone();
        let outstanding = outstanding.clone();
        let h2 = handle.clone();
        joins.push(handle.spawn(async move {
            let payload = value(vec![0x5au8; cfg.value_size]);
            let started = h2.now();
            let mut attempts = 0u32;
            loop {
                attempts += 1;
                let mut txn = if script.writes.is_empty() {
                    sys.begin_read_only()
                } else {
                    sys.begin()
                };
                let mut failed: Option<TxnError> = None;
                for key in &script.reads {
                    if let Err(e) = txn.get(key).await {
                        failed = Some(e);
                        break;
                    }
                }
                let outcome = match failed {
                    Some(e) => Err(e),
                    None => {
                        for key in &script.writes {
                            txn.put(key.clone(), payload.clone());
                        }
                        txn.commit().await
                    }
                };
                match outcome {
                    Ok(_) => {
                        let now = h2.now();
                        stats.record_commit(now.as_nanos(), (now - started).as_nanos() as u64);
                        break;
                    }
                    Err(TxnError::Aborted(reason)) => {
                        stats.record_abort(reason.class());
                        if attempts > cfg.max_retries {
                            stats.record_abandoned();
                            break;
                        }
                    }
                    Err(_) => {
                        stats.record_timeout();
                        if attempts > cfg.max_retries {
                            stats.record_abandoned();
                            break;
                        }
                    }
                }
            }
            outstanding.set(outstanding.get() - 1);
        }));
    }
    for j in joins {
        j.await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashsim::NandConfig;
    use milana::cluster::{MilanaCluster, MilanaClusterConfig};
    use simkit::Sim;
    use timesync::ClockSpec;

    #[test]
    fn plans_respect_mix_shape() {
        let mut rng = <StdRng as rand::SeedableRng>::seed_from_u64(7);
        let cfg = WorkloadConfig::default();
        let zipf = Zipf::new(cfg.keyspace as usize, cfg.zipf_alpha);
        let mut saw_read_only = false;
        let mut saw_writes = false;
        for _ in 0..200 {
            let s = plan(&cfg.mix, &zipf, &mut rng, &cfg);
            assert!(!s.reads.is_empty() || !s.writes.is_empty());
            // No duplicate keys inside one transaction.
            let mut all: Vec<&Key> = s.reads.iter().chain(s.writes.iter()).collect();
            let n = all.len();
            all.sort();
            all.dedup();
            assert_eq!(all.len(), n, "duplicate key in plan");
            saw_read_only |= s.writes.is_empty();
            saw_writes |= !s.writes.is_empty();
        }
        assert!(saw_read_only && saw_writes);
    }

    #[test]
    fn driver_runs_retwis_against_milana() {
        let mut sim = Sim::new(77);
        let h = sim.handle();
        let cluster = MilanaCluster::build(
            &h,
            MilanaClusterConfig {
                shards: 1,
                replicas: 3,
                clients: 2,
                preload_keys: 500,
                nand: NandConfig {
                    blocks: 256,
                    pages_per_block: 8,
                    ..NandConfig::default()
                },
                clock: ClockSpec::ptp_software(),
                ..MilanaClusterConfig::default()
            },
        );
        let cfg = Rc::new(WorkloadConfig {
            keyspace: 500,
            zipf_alpha: 0.5,
            ..WorkloadConfig::default()
        });
        let zipf = Rc::new(Zipf::new(cfg.keyspace as usize, cfg.zipf_alpha));
        let stats = TxnStats::new();
        let until = simkit::SimTime::from_millis(300);
        let mut joins = Vec::new();
        for c in &cluster.clients {
            joins.push(h.spawn(run_instance(
                h.clone(),
                c.clone(),
                cfg.clone(),
                zipf.clone(),
                stats.clone(),
                until,
            )));
        }
        sim.block_on(async move {
            for j in joins {
                j.await;
            }
        });
        assert!(stats.commits.get() > 50, "commits {}", stats.commits.get());
        assert_eq!(stats.abandoned.get(), 0);
        assert!(stats.latency.snapshot().mean() > 0.0);
        let abort_rate = stats.freeze().abort_rate();
        assert!(abort_rate < 0.5, "abort rate {abort_rate}");
        // Every abort is classified in the shared taxonomy.
        assert_eq!(
            stats.abort_reasons.total(),
            stats.aborts.get() + stats.timeouts.get() + stats.abandoned.get()
        );
    }
}
#[cfg(test)]
mod open_loop_tests {
    use super::*;
    use flashsim::NandConfig;
    use milana::cluster::{MilanaCluster, MilanaClusterConfig};
    use simkit::Sim;
    use timesync::ClockSpec;

    #[test]
    fn open_loop_throughput_tracks_offered_rate_below_saturation() {
        let mut sim = Sim::new(88);
        let h = sim.handle();
        let cluster = MilanaCluster::build(
            &h,
            MilanaClusterConfig {
                shards: 1,
                replicas: 3,
                clients: 1,
                preload_keys: 500,
                nand: NandConfig {
                    blocks: 256,
                    pages_per_block: 8,
                    ..NandConfig::default()
                },
                clock: ClockSpec::ptp_software(),
                ..MilanaClusterConfig::default()
            },
        );
        let cfg = Rc::new(WorkloadConfig {
            keyspace: 500,
            zipf_alpha: 0.3,
            ..WorkloadConfig::default()
        });
        let zipf = Rc::new(Zipf::new(cfg.keyspace as usize, cfg.zipf_alpha));
        let stats = TxnStats::new();
        let rate = 500.0; // txn/s, far below capacity
        let window = std::time::Duration::from_millis(800);
        let until = h.now() + window;
        let driver = run_open_loop(
            h.clone(),
            cluster.clients[0].clone(),
            cfg,
            zipf,
            stats.clone(),
            rate,
            64,
            until,
        );
        sim.block_on(driver);
        let achieved = stats.commits.get() as f64 / window.as_secs_f64();
        assert!(
            (achieved - rate).abs() / rate < 0.25,
            "offered {rate}/s, achieved {achieved}/s"
        );
        assert_eq!(stats.abandoned.get(), 0);
    }
}

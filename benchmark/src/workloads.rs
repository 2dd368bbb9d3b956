//! The four workloads and the deployment they share.
//!
//! Common deployment (paper §5 shape): 3 shards × 3 replicas on MFTL, NAND
//! with 8 channels and queue depth 128 sized per shard with
//! `NandConfig::sized_for`, PTP software clocks, 150 µs one-way network with
//! 30 µs jitter, 472-byte values. Every workload is a **closed loop**: each
//! instance keeps one transaction outstanding and retries an aborted script
//! immediately with the same keys (§5.2).

use std::time::Duration;

use flashsim::{BackendKind, NandConfig};
use milana::cluster::MilanaClusterConfig;
use obskit::Obs;
use readkit::ReadRoute;
use retwis::mix::{GetCount, Mix, TxnType};
use simkit::net::LatencyConfig;
use timesync::ClockSpec;

/// Data shards.
pub const SHARDS: u32 = 3;
/// Replicas per shard.
pub const REPLICAS: u32 = 3;
/// Value bytes per put (a 16-byte key + 472-byte value + 24 bytes of
/// on-flash metadata is the paper's 512-byte tuple).
pub const VALUE_SIZE: usize = 472;
/// Stored bytes per tuple, the `sized_for` accounting unit.
pub const TUPLE_SIZE: usize = 512;
/// Virtual warm-up before the measured window; its statistics are discarded.
pub const WARMUP: Duration = Duration::from_millis(300);
/// Capacity of the `obskit` trace ring when tracing is on.
pub const TRACE_CAPACITY: usize = 1 << 23;

/// One workload: inputs, client shape, and the virtual window it measures.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name used on the command line and in every result.
    pub name: &'static str,
    /// One line on what the workload is for (`BENCHMARK.json` carries it).
    pub why: &'static str,
    /// Transaction mix.
    pub mix: Mix,
    /// Zipf skew of key choice.
    pub zipf_alpha: f64,
    /// Keys preloaded and addressed.
    pub keys: u64,
    /// Flash device utilisation after preload.
    pub utilization: f64,
    /// Client nodes.
    pub clients: u32,
    /// Closed-loop instances per client.
    pub instances_per_client: u32,
    /// Snapshot-read routing.
    pub read_route: ReadRoute,
    /// Bounded-staleness lag for read-only scripts.
    pub snapshot_lag: Duration,
    /// Applied-floor gossip period (backup reads need it).
    pub gossip: Option<Duration>,
    /// Standard deviation of the one-way network latency (mean 150 µs).
    pub net_jitter: Duration,
    /// Whether the fault schedule and the history checker run.
    pub faults: bool,
    /// Virtual milliseconds measured per `--seconds` of budget, calibrated
    /// on the reference machine so three repeats fill the budget.
    pub window_ms_per_second: u64,
}

fn timeline(max_gets: u32, weight: u32) -> TxnType {
    TxnType {
        name: "get_timeline",
        gets: GetCount::Uniform(1, max_gets),
        puts: 0,
        weight,
    }
}

fn post_tweet(weight: u32) -> TxnType {
    TxnType {
        name: "post_tweet",
        gets: GetCount::Fixed(3),
        puts: 5,
        weight,
    }
}

/// Workload names in run order.
pub const NAMES: [&str; 4] = ["retwis_mix", "read_hot", "write_churn", "failover_checked"];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        let base = Workload {
            name: "retwis_mix",
            why: "Paper default: Table 2 mix, Zipf 0.6, 240k keys (larger than host L2), \
                  16 closed-loop instances; every layer does a balanced share and preload \
                  makes setup_s measurable",
            mix: Mix::retwis(),
            zipf_alpha: 0.6,
            keys: 240_000,
            utilization: 0.08,
            clients: 8,
            instances_per_client: 2,
            read_route: ReadRoute::PrimaryOnly,
            snapshot_lag: Duration::ZERO,
            gossip: None,
            net_jitter: Duration::from_micros(30),
            faults: false,
            window_ms_per_second: 300,
        };
        Some(match name {
            "retwis_mix" => base,
            "read_hot" => Workload {
                name: "read_hot",
                why: "95% read-only, Zipf 0.99 on 8k keys, power-of-two backup reads: \
                      flashsim get_at, readkit routing and local validation do the work; \
                      prepare, replication and flash programs idle",
                // 1-9 gets, not 1-10: a script's latency is its get count times
                // a round trip, and with an even range the median script sits
                // on the 5|6-get boundary and `ro_commit_p50_us` flips between
                // the two modes from seed to seed.
                mix: Mix::new(vec![timeline(9, 95), post_tweet(5)]),
                zipf_alpha: 0.99,
                keys: 8_000,
                read_route: ReadRoute::PowerOfTwo,
                snapshot_lag: Duration::from_millis(3),
                gossip: Some(Duration::from_millis(1)),
                // At 30 µs, consecutive replication envelopes overtake each
                // other often enough that backups freeze their applied
                // watermark (a reordered `AppliedFloor` reads as a gap), and
                // the share of `TooStale` probes then grows with run length,
                // differently on every seed. See README, "Retunes".
                net_jitter: Duration::from_micros(10),
                window_ms_per_second: 800,
                ..base
            },
            "write_churn" => Workload {
                name: "write_churn",
                why: "90% read-modify-write on 12k keys at 0.12 device utilisation: TxnTable \
                      validate/prepare, batchkit replication, MFTL put, packing and GC \
                      (>500 collections) do the work",
                mix: Mix::new(vec![post_tweet(90), timeline(10, 10)]),
                keys: 12_000,
                utilization: 0.12,
                window_ms_per_second: 400,
                ..base
            },
            "failover_checked" => Workload {
                name: "failover_checked",
                why: "retwis_mix on 30k keys, 16 clients, obskit tracing on: power-fail and \
                      cold restart inside the window, primary kill and promotion at its end, \
                      then the faultkit history check",
                keys: 30_000,
                // The history checker assumes one open transaction per
                // client, so concurrency comes from clients alone.
                clients: 16,
                instances_per_client: 1,
                faults: true,
                window_ms_per_second: 200,
                ..base
            },
            _ => return None,
        })
    }

    /// Keys each replica stores: one shard's share of the keyspace.
    pub fn keys_per_replica(&self) -> u64 {
        self.keys / SHARDS as u64
    }

    /// Closed-loop instances in total.
    pub fn instances(&self) -> u32 {
        self.clients * self.instances_per_client
    }

    /// The virtual window measured for a `--seconds` budget.
    pub fn window(&self, seconds: u64) -> Duration {
        Duration::from_millis(self.window_ms_per_second * seconds)
    }

    /// Each replica's flash device: sized so one shard's share of the
    /// preload fills `utilization` of it.
    pub fn nand(&self) -> NandConfig {
        NandConfig {
            channels: 8,
            queue_depth: 128,
            ..NandConfig::default()
        }
        .sized_for(self.keys_per_replica(), TUPLE_SIZE, self.utilization)
    }

    /// The cluster this workload runs on, reporting into `obs`.
    pub fn cluster_config(&self, obs: &Obs) -> MilanaClusterConfig {
        let mut cfg = MilanaClusterConfig {
            shards: SHARDS,
            replicas: REPLICAS,
            clients: self.clients,
            backend: BackendKind::Mftl,
            nand: self.nand(),
            clock: ClockSpec::ptp_software(),
            preload_keys: self.keys,
            value_size: VALUE_SIZE,
            net: LatencyConfig {
                one_way: Duration::from_micros(150),
                jitter_std: self.net_jitter,
                ..LatencyConfig::default()
            },
            ..MilanaClusterConfig::default()
        };
        cfg.tuning.obs = obs.clone();
        cfg.tuning.gossip_every = self.gossip;
        cfg.client_cfg.read_route = self.read_route;
        cfg.client_cfg.snapshot_lag = self.snapshot_lag;
        if self.gossip.is_some() {
            // A read-mostly load flushes few coordinator envelopes, so the
            // idle tick carries the write floor backups need.
            cfg.client_cfg.watermark_interval = Duration::from_millis(1);
        }
        cfg
    }
}

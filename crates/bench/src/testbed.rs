//! The paper's §5 testbed, described once: 3 storage VMs (one shard, a
//! primary and two backups) on emulated SSDs — 8 channels, queue depth
//! 128, sized so 512-byte tuples fill 8 % of the device — a 472-byte value
//! per tuple, ExoGENI-style VM networking (~300 µs RTT) and the Retwis
//! workload with no-wait retries. Each figure varies one thing; its module
//! states that thing with struct-update syntax over [`paper`] / [`retwis`].

use std::time::Duration;

use flashsim::{BackendKind, NandConfig};
use milana::client::ValidationMode;
use milana::cluster::MilanaClusterConfig;
use milana::server::ServerTuning;
use retwis::driver::WorkloadConfig;
use retwis::mix::Mix;
use simkit::net::LatencyConfig;
use timesync::ClockSpec;

/// The testbed SSD, sized for `tuples` 512-byte tuples per replica (the
/// keys of one shard).
pub fn nand(tuples: u64) -> NandConfig {
    NandConfig {
        channels: 8,
        queue_depth: 128,
        ..NandConfig::default()
    }
    .sized_for(tuples, 512, 0.08)
}

/// The testbed network: 150 ± 30 µs one way.
pub fn net() -> LatencyConfig {
    LatencyConfig {
        one_way: Duration::from_micros(150),
        jitter_std: Duration::from_micros(30),
        ..LatencyConfig::default()
    }
}

/// The testbed deployment: `clients` client VMs on `clock`-disciplined
/// clocks against one 3-replica `backend` shard preloaded with `keyspace`
/// keys, observed through [`crate::common::run_obs`].
pub fn paper(
    backend: BackendKind,
    clock: ClockSpec,
    clients: u32,
    keyspace: u64,
) -> MilanaClusterConfig {
    MilanaClusterConfig {
        clients,
        backend,
        nand: nand(keyspace),
        clock,
        preload_keys: keyspace,
        net: net(),
        tuning: ServerTuning {
            obs: crate::common::run_obs(),
            ..ServerTuning::default()
        },
        ..MilanaClusterConfig::default()
    }
}

/// The testbed grown to three shards (Figures 8 and 9): the keys split
/// three ways, PTP-software clocks, read-only transactions validated
/// client-locally (`lv`) or through 2PC like everything else.
pub fn three_shards(
    backend: BackendKind,
    clients: u32,
    keyspace: u64,
    lv: bool,
) -> MilanaClusterConfig {
    let mut cfg = MilanaClusterConfig {
        shards: 3,
        nand: nand(keyspace / 3),
        ..paper(backend, ClockSpec::ptp_software(), clients, keyspace)
    };
    if !lv {
        cfg.client_cfg.validation = ValidationMode::Remote;
    }
    cfg
}

/// The testbed workload: the Table 2 Retwis mix over `keyspace` keys at
/// Zipf contention `alpha`, an aborted transaction retried with the same
/// keys (up to 1000 times).
pub fn retwis(keyspace: u64, alpha: f64) -> WorkloadConfig {
    WorkloadConfig {
        mix: Mix::retwis(),
        keyspace,
        zipf_alpha: alpha,
        value_size: 472,
        max_retries: 1000,
    }
}

/// A backend's name in tables and artifacts.
pub fn backend_name(kind: BackendKind) -> &'static str {
    match kind {
        BackendKind::Dram => "DRAM",
        BackendKind::Sftl => "SFTL",
        BackendKind::Vftl => "VFTL",
        BackendKind::Mftl => "MFTL",
    }
}

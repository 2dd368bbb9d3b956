//! The benchmark's metric catalogue: every name `BENCHMARK.json` lists, with
//! its unit, clock, better direction and (end to end) regression bound.
//! `tests/contract.rs` holds `BENCHMARK.json` to these tables.

use obskit::AbortClass;

/// Which clock a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Simulated time: repeats exactly per seed.
    Virtual,
    /// This machine: subject to its noise.
    Host,
}

impl Clock {
    /// `virtual` / `host`.
    pub fn as_str(self) -> &'static str {
        match self {
            Clock::Virtual => "virtual",
            Clock::Host => "host",
        }
    }
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Clock it is read from.
    pub clock: Clock,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// Whether `BENCHMARK.json` lists it. The driver judges a metric by its
    /// spread across *different* seeds; one that is exact per seed but
    /// differs by more than any allowed bound between seeds can only be
    /// compared at equal seeds, which `run` and `compare` do.
    pub in_contract: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    higher_is_better: bool,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        clock,
        higher_is_better,
        bound,
        in_contract: true,
    }
}

/// The end-to-end metrics, in report order. Each bound is at least three
/// times the widest seed-to-seed spread (quartile distance over median, ten
/// seeds) seen on any workload, capped at the contract's 25 %; `README.md`
/// has the table.
pub const END_TO_END: [EndToEnd; 12] = [
    e2e("goodput_tps", "1/s", Clock::Virtual, true, 0.03),
    e2e("ro_commit_p50_us", "us", Clock::Virtual, false, 0.12),
    e2e("ro_commit_p99_us", "us", Clock::Virtual, false, 0.15),
    e2e("rw_commit_p50_us", "us", Clock::Virtual, false, 0.05),
    e2e("rw_commit_p99_us", "us", Clock::Virtual, false, 0.25),
    e2e("commit_p999_us", "us", Clock::Virtual, false, 0.25),
    e2e("commit_success_share", "share", Clock::Virtual, true, 0.02),
    e2e("flash_write_amp", "ratio", Clock::Virtual, false, 0.15),
    e2e("host_txn_per_s", "1/s", Clock::Host, true, 0.25),
    EndToEnd {
        in_contract: false,
        ..e2e("peak_rss_mb", "MiB", Clock::Host, false, 0.10)
    },
    e2e("setup_s", "s", Clock::Host, false, 0.25),
    // The median resident set over the window's slices: calmer than the
    // peak, under the same equal-seeds rule.
    EndToEnd {
        in_contract: false,
        ..e2e("rss_mb", "MiB", Clock::Host, false, 0.10)
    },
];

/// One per-layer metric: `(name, unit, higher_is_better)`.
pub type PerLayer = (String, &'static str, bool);

/// The per-layer metrics, in report order.
pub fn per_layer() -> Vec<PerLayer> {
    let mut v: Vec<PerLayer> = Vec::new();
    let mut add = |names: &[&str], unit: &'static str, higher: bool| {
        for n in names {
            v.push((n.to_string(), unit, higher));
        }
    };
    add(
        &["simkit.polls_per_txn", "simkit.msgs_per_txn"],
        "count",
        false,
    );
    add(&["simkit.host_events_per_s"], "1/s", true);
    add(
        &[
            "simkit.timer_ns",
            "simkit.spawn_ns",
            "simkit.net_deliver_ns",
            "simkit.rpc_roundtrip_ns",
        ],
        "ns",
        false,
    );
    add(&["timesync.skew_p99_us"], "us", false);
    add(&["timesync.now_ns"], "ns", false);
    add(&["clockkit.clock_suspects"], "count", false);
    add(
        &[
            "milana.get_p50_us",
            "milana.get_p99_us",
            "milana.commit_rw_call_p50_us",
            "milana.commit_ro_call_p50_us",
        ],
        "us",
        false,
    );
    add(&["milana.local_validated_share"], "share", true);
    add(&["milana.attempts_per_commit"], "count", false);
    add(&["milana.abort_rate"], "share", false);
    add(&["milana.prepares_ok"], "count", true);
    add(&["milana.prepares_aborted"], "count", false);
    add(&["milana.prepare_yes_ratio"], "share", true);
    for class in AbortClass::ALL {
        add(
            &[&format!("milana.aborts.{}", class.as_str())],
            "count",
            false,
        );
    }
    add(
        &["milana.table_len_end", "milana.table_len_per_kcommit"],
        "count",
        false,
    );
    add(
        &["milana.validate_ns", "milana.prepare_decide_ns"],
        "ns",
        false,
    );
    add(
        &[
            "batchkit.repl_records_per_envelope",
            "batchkit.coord_items_per_envelope",
        ],
        "count",
        true,
    );
    add(&["batchkit.flush_size_share"], "share", true);
    add(&["batchkit.submit_ns"], "ns", false);
    add(&["loadkit.admitted"], "count", true);
    add(&["loadkit.sheds", "loadkit.retries"], "count", false);
    add(&["loadkit.admit_ns"], "ns", false);
    add(&["readkit.primary_read_share"], "share", false);
    add(&["readkit.replica_reads"], "count", true);
    add(&["readkit.too_stale_share"], "share", false);
    add(
        &[
            "flashsim.pages_read_per_get",
            "flashsim.pages_written_per_put",
            "flashsim.gc_collections",
            "flashsim.gc_relocated_per_collection",
            "flashsim.block_erases",
        ],
        "count",
        false,
    );
    add(&["flashsim.versions_pruned"], "count", true);
    add(&["flashsim.live_versions_per_key"], "count", false);
    add(
        &[
            "flashsim.mftl_get_ns",
            "flashsim.mftl_get_at_deep_ns",
            "flashsim.mftl_put_ns",
            "flashsim.mftl_put_nogc_ns",
            "flashsim.vftl_get_ns",
            "flashsim.dram_get_ns",
        ],
        "ns",
        false,
    );
    add(&["flashsim.mount_us_per_kpage"], "us", false);
    add(
        &[
            "recoverkit.mount_ms",
            "recoverkit.catchup_ms",
            "recoverkit.mttr_ms",
            "recoverkit.promote_ms",
        ],
        "ms",
        false,
    );
    add(
        &["recoverkit.catchup_keys", "recoverkit.torn_pages"],
        "count",
        false,
    );
    add(
        &["faultkit.history_build_ms", "faultkit.check_ms"],
        "ms",
        false,
    );
    add(&["faultkit.check_ns_per_event"], "ns", false);
    add(&["faultkit.violations"], "count", false);
    add(
        &["obskit.trace_events_per_txn", "obskit.trace_dropped"],
        "count",
        false,
    );
    add(&["obskit.trace_overhead_share"], "share", false);
    add(
        &["obskit.trace_record_ns", "obskit.hist_record_ns"],
        "ns",
        false,
    );
    add(&["gen.plan_ns", "gen.span_ns"], "ns", false);
    add(&["gen.host_share", "gen.span_host_share"], "share", false);
    add(
        &[
            "host_share.simkit",
            "host_share.timesync",
            "host_share.milana",
            "host_share.batchkit",
            "host_share.loadkit",
            "host_share.flashsim",
            "host_share.recoverkit",
            "host_share.faultkit",
            "host_share.obskit",
            "host_share.unattributed",
        ],
        "share",
        false,
    );
    v
}

//! Per-layer metrics of one traced run, and the host-time ledger.
//!
//! Counts come from the layers' public counters and from the driver's own
//! spans; probe numbers from [`crate::probes`]. `host_share.<layer>` is
//! `count × probe ns / window host ns` — an estimate that names the layer a
//! host-time change should target, until spans inside the program replace
//! it. `host_share.unattributed` is whatever the estimate does not explain.

use flashsim::BackendKind;
use obskit::AbortClass;

use crate::drive::TXN_HAS_WRITES;
use crate::metrics;
use crate::probes::{self, Probe, Shape};
use crate::runone::{us, RunOutput};
use crate::spans::Span;
use crate::stats::percentile;
use crate::workloads::{REPLICAS, SHARDS};

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn call_us(spans: &[Span], name: &str, keep: impl Fn(&Span) -> bool, permille: usize) -> f64 {
    let mut ns: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name && keep(s))
        .map(|s| s.virtual_end_ns - s.virtual_start_ns)
        .collect();
    ns.sort_unstable();
    us(percentile(&ns, permille)).0
}

/// Every per-layer metric of `out` (a [`crate::runone::Mode::Traced`] run),
/// in catalogue order; `smoke` cuts the probes' iteration counts tenfold. `obskit.trace_overhead_share` needs the untraced twin
/// and is left at 0 for the caller to fill in.
///
/// # Panics
///
/// Panics if the names produced differ from [`metrics::per_layer`].
pub fn per_layer(out: &RunOutput, smoke: bool) -> Vec<(String, f64)> {
    let (r, d, w) = (&out.rec, &out.delta, &out.workload);
    let commits = r.commits as f64;
    let spans = r.spans.as_ref().map_or(&[][..], |log| log.spans());
    // The ledger divides raw probe time by raw window time: both were taken
    // in this process within seconds of each other.
    let window_ns = out.window_host().raw_s * 1e9;
    let prepares = d.f("prepares_ok") + d.f("prepares_aborted");

    let shape = Shape {
        keys_per_replica: w.keys_per_replica(),
        // A prepare carries one shard's slice of the script.
        reads_per_prepare: ratio(r.gets as f64, prepares).round().clamp(1.0, 16.0) as usize,
        writes_per_prepare: ratio(d.f("store_puts") / REPLICAS as f64, d.f("prepares_ok"))
            .round()
            .clamp(1.0, 16.0) as usize,
        table_len: out.table_len_end / (SHARDS * REPLICAS) as u64,
        seed: out.seed,
        iters_div: if smoke { 10 } else { 1 },
    };
    let shape = &shape;
    let timer = probes::simkit_timer(shape);
    let spawn = probes::simkit_spawn(shape);
    let net = probes::simkit_net_deliver(shape);
    let rpc = probes::simkit_rpc_roundtrip(shape);
    let now = probes::timesync_now(shape);
    let validate = probes::milana_validate(shape);
    let decide = probes::milana_prepare_decide(shape);
    let submit = probes::batchkit_submit(shape);
    let admit = probes::loadkit_admit(shape);
    let mftl_get = probes::backend_get(BackendKind::Mftl, w, shape);
    let vftl_get = probes::backend_get(BackendKind::Vftl, w, shape);
    let dram_get = probes::backend_get(BackendKind::Dram, w, shape);
    let deep_get = probes::mftl_get_at_deep(shape);
    let (mftl_put, gc_per_put) = probes::mftl_put(shape, true);
    let (mftl_put_nogc, nogc_per_put) = probes::mftl_put(shape, false);
    assert!(
        gc_per_put > 0.0 && nogc_per_put == 0.0,
        "mftl_put probes: {gc_per_put} collections per put with GC, {nogc_per_put} without"
    );
    // The ledger charges a put at its cost without collection, and each of
    // the run's collections at what one cost the GC-active probe.
    let gc_ns = (mftl_put.ns - mftl_put_nogc.ns).max(0.0) / gc_per_put;
    let mount = probes::mount_us_per_kpage(w, shape);
    let trace_record = probes::obskit_trace_record(shape);
    let hist_record = probes::obskit_hist_record(shape);
    let plan = probes::gen_plan(w, shape);
    let span = probes::gen_span(shape);

    // A probe that ran inside a simulation paid the executor for its polls;
    // the ledger charges those to simkit, once.
    let poll_ns = timer.ns / timer.polls.max(1.0);
    let own = |p: Probe| (p.ns - p.polls * poll_ns).max(0.0);
    let net_polls = d.f("msgs_sent") * net.polls;
    let flushes = d.f("flush_size") + d.f("flush_deadline") + d.f("flush_manual");
    let mount_pages = out.recovery.mount_ns as f64 / 1e9 * w.nand().mount_scan_rate as f64;
    let check = out.check.unwrap_or_default();
    let mut skew = r.skew_ns.clone();
    skew.sort_unstable();

    let ledger = [
        (
            "simkit",
            d.f("msgs_sent") * net.ns + (d.f("polls") - net_polls).max(0.0) * poll_ns,
        ),
        ("timesync", 2.0 * r.attempts as f64 * now.ns),
        ("milana", prepares * (validate.ns + decide.ns)),
        (
            "batchkit",
            (d.f("repl_records") + d.f("coord_items")) * own(submit),
        ),
        ("loadkit", d.f("admitted") * admit.ns),
        (
            "flashsim",
            d.f("store_gets") * own(mftl_get)
                + d.f("store_puts") * own(mftl_put_nogc)
                + d.f("gc_collections") * gc_ns,
        ),
        ("recoverkit", mount_pages / 1e3 * mount * 1e3),
        ("faultkit", (check.build.raw_s + check.check.raw_s) * 1e9),
        (
            "obskit",
            d.f("trace_events") * trace_record.ns + flushes * hist_record.ns,
        ),
    ];
    // What every run pays the generator, and what only the traced run pays
    // for recording spans.
    let gen_share = ratio(r.arrivals as f64 * plan.ns, window_ns);
    let span_share = ratio(spans.len() as f64 * span.ns, window_ns);

    let mut v: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, value: f64| v.push((name.to_string(), value));
    put("simkit.polls_per_txn", ratio(d.f("polls"), commits));
    put("simkit.msgs_per_txn", ratio(d.f("msgs_sent"), commits));
    put(
        "simkit.host_events_per_s",
        ratio(d.f("polls"), out.sim_host.scaled_s),
    );
    put("simkit.timer_ns", timer.ns);
    put("simkit.spawn_ns", spawn.ns);
    put("simkit.net_deliver_ns", net.ns);
    put("simkit.rpc_roundtrip_ns", rpc.ns);
    put("timesync.skew_p99_us", us(percentile(&skew, 990)).0);
    put("timesync.now_ns", now.ns);
    put("clockkit.clock_suspects", d.f("clock_suspects"));
    put("milana.get_p50_us", call_us(spans, "get", |_| true, 500));
    put("milana.get_p99_us", call_us(spans, "get", |_| true, 990));
    let has_writes = |s: &Span| s.txn & TXN_HAS_WRITES != 0;
    put(
        "milana.commit_rw_call_p50_us",
        call_us(spans, "commit", has_writes, 500),
    );
    put(
        "milana.commit_ro_call_p50_us",
        call_us(spans, "commit", |s| !has_writes(s), 500),
    );
    put(
        "milana.local_validated_share",
        ratio(r.local_commits as f64, r.ro_latency_ns.len() as f64),
    );
    put(
        "milana.attempts_per_commit",
        ratio(r.attempts as f64, commits),
    );
    put("milana.abort_rate", out.abort_rate());
    put("milana.prepares_ok", d.f("prepares_ok"));
    put("milana.prepares_aborted", d.f("prepares_aborted"));
    put(
        "milana.prepare_yes_ratio",
        ratio(d.f("prepares_ok"), prepares),
    );
    for (class, n) in AbortClass::ALL.iter().zip(r.aborts) {
        let n = if *class == AbortClass::Abandoned {
            r.abandoned
        } else {
            n
        };
        put(&format!("milana.aborts.{}", class.as_str()), n as f64);
    }
    put("milana.table_len_end", out.table_len_end as f64);
    put(
        "milana.table_len_per_kcommit",
        ratio(d.f("table_len"), commits / 1e3),
    );
    put("milana.validate_ns", validate.ns);
    put("milana.prepare_decide_ns", decide.ns);
    put(
        "batchkit.repl_records_per_envelope",
        ratio(d.f("repl_records"), d.f("repl_envelopes")),
    );
    put(
        "batchkit.coord_items_per_envelope",
        ratio(d.f("coord_items"), d.f("coord_envelopes")),
    );
    put(
        "batchkit.flush_size_share",
        ratio(d.f("flush_size"), flushes),
    );
    put("batchkit.submit_ns", submit.ns);
    put("loadkit.admitted", d.f("admitted"));
    put("loadkit.sheds", d.f("sheds"));
    put("loadkit.retries", d.f("retries"));
    put("loadkit.admit_ns", admit.ns);
    let served = d.f("server_gets") + d.f("server_replica_reads");
    put(
        "readkit.primary_read_share",
        if served > 0.0 {
            d.f("server_gets") / served
        } else {
            1.0
        },
    );
    put("readkit.replica_reads", d.f("server_replica_reads"));
    put(
        "readkit.too_stale_share",
        ratio(
            d.f("too_stale"),
            d.f("too_stale") + d.f("server_replica_reads"),
        ),
    );
    put(
        "flashsim.pages_read_per_get",
        ratio(d.f("pages_read"), d.f("store_gets")),
    );
    put(
        "flashsim.pages_written_per_put",
        ratio(d.f("pages_written"), d.f("store_puts")),
    );
    put("flashsim.gc_collections", d.f("gc_collections"));
    put(
        "flashsim.gc_relocated_per_collection",
        ratio(d.f("gc_relocated"), d.f("gc_collections")),
    );
    put("flashsim.block_erases", d.f("block_erases"));
    put("flashsim.versions_pruned", d.f("versions_pruned"));
    put("flashsim.live_versions_per_key", out.live_versions_per_key);
    put("flashsim.mftl_get_ns", mftl_get.ns);
    put("flashsim.mftl_get_at_deep_ns", deep_get.ns);
    put("flashsim.mftl_put_ns", mftl_put.ns);
    put("flashsim.mftl_put_nogc_ns", mftl_put_nogc.ns);
    put("flashsim.vftl_get_ns", vftl_get.ns);
    put("flashsim.dram_get_ns", dram_get.ns);
    put("flashsim.mount_us_per_kpage", mount);
    put("recoverkit.mount_ms", out.recovery.mount_ns as f64 / 1e6);
    put(
        "recoverkit.catchup_ms",
        out.recovery.catchup_ns as f64 / 1e6,
    );
    put("recoverkit.mttr_ms", out.recovery.mttr_ns as f64 / 1e6);
    put(
        "recoverkit.promote_ms",
        out.epilogue.map_or(0.0, |e| e.promote_ns as f64 / 1e6),
    );
    put("recoverkit.catchup_keys", d.f("catchup_keys"));
    put("recoverkit.torn_pages", d.f("torn_pages"));
    put("faultkit.history_build_ms", check.build.scaled_s * 1e3);
    put("faultkit.check_ms", check.check.scaled_s * 1e3);
    put(
        "faultkit.check_ns_per_event",
        ratio(check.check.scaled_s * 1e9, check.events as f64),
    );
    put("faultkit.violations", check.violations as f64);
    put(
        "obskit.trace_events_per_txn",
        ratio(d.f("trace_events"), commits),
    );
    put("obskit.trace_dropped", out.trace_dropped as f64);
    put("obskit.trace_overhead_share", 0.0);
    put("obskit.trace_record_ns", trace_record.ns);
    put("obskit.hist_record_ns", hist_record.ns);
    put("gen.plan_ns", plan.ns);
    put("gen.span_ns", span.ns);
    put("gen.host_share", gen_share);
    put("gen.span_host_share", span_share);
    let mut explained = gen_share + span_share;
    for (layer, ns) in ledger {
        let share = ratio(ns, window_ns);
        explained += share;
        put(&format!("host_share.{layer}"), share);
    }
    put("host_share.unattributed", 1.0 - explained);

    let catalogue: Vec<String> = metrics::per_layer().into_iter().map(|m| m.0).collect();
    let produced: Vec<&String> = v.iter().map(|m| &m.0).collect();
    assert!(
        catalogue.iter().eq(produced.iter().copied()),
        "per-layer metrics out of step with the catalogue"
    );
    v
}

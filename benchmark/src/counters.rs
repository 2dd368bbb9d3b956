//! One snapshot of every public counter the layers expose, taken from
//! outside: `SimHandle::polls`/`net_stats`, `Backend::stats`, the NAND
//! device's stats, `TxnServer::stats`, `TxnTable::len` and the `obskit`
//! registry (client-side numbers come from the driver's own recorder). A window's counts are the difference of two
//! snapshots.

use std::collections::BTreeMap;

use flashsim::Backend;
use milana::cluster::MilanaCluster;
use milana::server::TxnServerStats;
use obskit::Obs;
use simkit::SimHandle;

use crate::workloads::{REPLICAS, SHARDS};

/// Named monotonic counters at one instant.
#[derive(Debug, Clone, Default)]
pub struct Counters(BTreeMap<&'static str, u64>);

impl Counters {
    fn add(&mut self, name: &'static str, v: u64) {
        *self.0.entry(name).or_default() += v;
    }

    /// The counter's value (0 if never set).
    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    /// The counter as a float, for ratios.
    pub fn f(&self, name: &str) -> f64 {
        self.get(name) as f64
    }

    /// Counts accumulated since `before`.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(&k, &v)| (k, v.saturating_sub(before.get(k))))
                .collect(),
        )
    }

    /// Reads every layer's counters. `retired` holds the final stats of
    /// servers a cold restart replaced (their handles are gone from the
    /// cluster, their work is not).
    pub fn snapshot(
        h: &SimHandle,
        cluster: &MilanaCluster,
        obs: &Obs,
        retired: &[TxnServerStats],
    ) -> Counters {
        let mut c = Counters::default();
        c.add("polls", h.polls());
        let net = h.net_stats();
        c.add("msgs_sent", net.sent);

        let add_server = |c: &mut Counters, s: &TxnServerStats| {
            c.add("server_gets", s.gets);
            c.add("prepares_ok", s.prepares_ok);
            c.add("prepares_aborted", s.prepares_aborted);
            c.add("server_replica_reads", s.replica_reads);
            c.add("too_stale", s.too_stale);
            c.add("clock_suspects", s.clock_suspects);
        };
        for s in retired {
            add_server(&mut c, s);
        }
        for slot in cluster.replicas.iter().flatten() {
            add_server(&mut c, &slot.server.stats());
            c.add("table_len", slot.server.table().borrow().len() as u64);
            let store = slot.server.backend().stats();
            c.add("store_gets", store.gets);
            c.add("store_puts", store.puts);
            c.add("pages_written", store.pages_written);
            c.add("pages_read", store.pages_read);
            c.add("gc_collections", store.gc_collections);
            c.add("gc_relocated", store.gc_relocated);
            c.add("versions_pruned", store.versions_pruned);
            if let Backend::Mftl(mftl) = slot.server.backend() {
                c.add("block_erases", mftl.device().stats().block_erases);
            }
        }

        let reg = |name: String| obs.registry.counter(&name).get();
        for node in 0..SHARDS * REPLICAS {
            c.add("admitted", reg(format!("loadkit.node{node}.admitted")));
            c.add("sheds", reg(format!("loadkit.node{node}.sheds_overload")));
            c.add("sheds", reg(format!("loadkit.node{node}.sheds_deadline")));
            c.add(
                "repl_envelopes",
                reg(format!("milana.node{node}.repl_envelopes")),
            );
            c.add(
                "repl_records",
                reg(format!("milana.node{node}.repl_records")),
            );
            let plane = format!("batchkit.milana.repl.node{node}");
            c.add("flush_size", reg(format!("{plane}.flush_size")));
            c.add("flush_deadline", reg(format!("{plane}.flush_deadline")));
            c.add("flush_manual", reg(format!("{plane}.flush_manual")));
        }
        for client in 0..cluster.clients.len() {
            c.add("retries", reg(format!("loadkit.client{client}.retries")));
            c.add(
                "coord_envelopes",
                reg(format!("milana.client{client}.coord_envelopes")),
            );
            c.add(
                "coord_items",
                reg(format!("milana.client{client}.coord_items")),
            );
            for shard in 0..SHARDS {
                let plane = format!("batchkit.milana.coord.c{client}.s{shard}");
                c.add("flush_size", reg(format!("{plane}.flush_size")));
                c.add("flush_deadline", reg(format!("{plane}.flush_deadline")));
                c.add("flush_manual", reg(format!("{plane}.flush_manual")));
            }
        }
        c.add("torn_pages", reg("torn_pages".into()));
        c.add("catchup_keys", reg("catchup_keys".into()));
        c.add("trace_events", obs.tracer.len() as u64);
        c
    }
}

//! The replica core: what one shard replica *is* under both protocols.
//!
//! [`crate::server::ShardServer`] (SEMEL) and `milana::TxnServer` each hold
//! one `Rc<ReplicaCore>` and add only their own state on top — ordered-mode
//! gap filling in SEMEL; the transaction table, 2PC, leases, recovery and
//! migration in MILANA. The core owns the storage backend, the internal RPC
//! endpoint, the admission gate, the GC watermark tracker and the
//! replication trace counter, and provides the four planes both servers
//! run: the service endpoint ([`ReplicaCore::serve`]), the overload gate
//! ([`ReplicaCore::admit`]), quorum replication ([`ReplicaCore::replicate`],
//! batched through [`ReplicaCore::replication_plane`]) and watermark-driven
//! garbage collection ([`ReplicaCore::merge_watermark`]).
//!
//! The wire types stay per protocol, so the planes are generic functions;
//! the two things that differ — how a refusal is spelled and what counts as
//! an acknowledgement — are closures.
//!
//! Three things here are behaviour, not style, because every run is pinned
//! bit for bit per seed (`tests/replica_golden.rs`, the benchmark's
//! `sim_digest`s): a replica is built **admission → RPC endpoint →
//! replication plane → service endpoint bind** (the order fixes registry
//! contents and poll counts); a replication round takes its trace
//! sequence number when it is *called*, not when it is first polled; and
//! the metric prefix (`semel.` / `milana.`) is the caller's argument.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::rc::Rc;
use std::time::Duration;

use batchkit::{BatchConfig, Batcher};
use flashsim::Backend;
use loadkit::{Admission, AdmissionConfig, Permit, Shed};
use simkit::net::Addr;
use simkit::rpc::{serve_incoming, Batch, BatchReply, Incoming, Responder, RpcClient};
use simkit::SimHandle;
use timesync::{ClientId, Timestamp, WatermarkTracker};

use crate::replicate::replicate_traced;

/// The state and planes shared by a SEMEL and a MILANA shard replica.
pub struct ReplicaCore {
    /// The simulation handle.
    pub handle: SimHandle,
    /// The storage backend (persistent handle).
    pub backend: Backend,
    /// This replica's service address.
    pub addr: Addr,
    /// Internal endpoint (replication, recovery, migration) on `port + 1`.
    pub rpc: RpcClient,
    /// The admission gate, for handlers that admit per item or report its
    /// depth.
    pub admission: Admission,
    /// The observability bundle.
    pub obs: obskit::Obs,
    history_window: Option<Duration>,
    /// Per-client GC watermark reports (§3.1).
    watermarks: RefCell<WatermarkTracker>,
    /// Sequence stamp for [`obskit::TraceEvent::ReplicaAck`] events: one
    /// per replication round, batched or not.
    trace_seq: Cell<u64>,
}

impl ReplicaCore {
    /// Creates the admission gate and the internal RPC endpoint, in that
    /// order. `backend` outlives node failures, modeling durable storage;
    /// `clients` are the ids whose watermark reports gate garbage
    /// collection, bounded below by `history_window` when set.
    pub fn new(
        handle: &SimHandle,
        backend: Backend,
        addr: Addr,
        admission: &AdmissionConfig,
        obs: &obskit::Obs,
        clients: &[ClientId],
        history_window: Option<Duration>,
    ) -> Rc<ReplicaCore> {
        let admission = Admission::observed(admission.clone(), obs, addr.node.0 as u64);
        let rpc = RpcClient::new(handle, addr.node, addr.port + 1);
        Rc::new(ReplicaCore {
            handle: handle.clone(),
            backend,
            addr,
            rpc,
            admission,
            obs: obs.clone(),
            history_window,
            watermarks: RefCell::new(WatermarkTracker::new(clients.iter().copied())),
            trace_seq: Cell::new(0),
        })
    }

    /// Records a trace event at the current virtual time.
    pub fn trace(&self, ev: obskit::TraceEvent) {
        self.obs.tracer.record(self.handle.now().as_nanos(), ev);
    }

    /// Binds the service address. Each envelope is handled in its own
    /// task, spawned at the delivery instant, so slow device operations do
    /// not serialize the shard.
    pub fn serve<Req, F, Fut>(&self, handler: F)
    where
        Req: Clone + 'static,
        F: Fn(Incoming<Req>, Addr, Responder) -> Fut + 'static,
        Fut: Future<Output = ()> + 'static,
    {
        let h = self.handle.clone();
        let node = self.addr.node;
        serve_incoming::<Req>(&self.handle, self.addr, move |incoming, from, resp| {
            h.spawn_on(node, handler(incoming, from, resp));
        });
    }

    /// Overload gate for client-facing work: refuse already-expired
    /// requests, then claim admission capacity for `cost`. On refusal the
    /// responder is consumed replying `shed(..)` and `None` comes back;
    /// otherwise the permit must be held for the handler's duration.
    pub fn admit<R: Clone + 'static>(
        &self,
        cost: u64,
        resp: Responder,
        shed: impl FnOnce(Shed) -> R,
    ) -> Option<(Permit, Responder)> {
        let now = self.handle.now();
        let refused = if resp.deadline().expired(now) {
            self.admission.shed_deadline(now.as_nanos())
        } else {
            match self.admission.try_admit(now.as_nanos(), cost) {
                Ok(permit) => return Some((permit, resp)),
                Err(refused) => refused,
            }
        };
        resp.reply(shed(refused));
        None
    }

    /// One quorum round: `req` goes to every address in `targets` and the
    /// round succeeds once `targets.len() / 2` replies satisfy `accept`
    /// (`f` of `2f` backups). Not an `async fn`: the trace sequence number
    /// is taken by the call itself.
    pub fn replicate<Req: Clone + 'static, Resp: Clone + 'static>(
        self: &Rc<Self>,
        targets: Vec<Addr>,
        req: Req,
        timeout: Duration,
        accept: impl Fn(&Resp) -> bool + Clone + 'static,
    ) -> impl Future<Output = bool> {
        let seq = self.trace_seq.replace(self.trace_seq.get() + 1);
        let core = Rc::clone(self);
        async move {
            let tracer = &core.obs.tracer;
            replicate_traced(&core.rpc, &targets, req, timeout, accept, tracer, seq).await
        }
    }

    /// Builds the group-commit replication plane. A flush hands the drained
    /// items to `frame`, which names the backups to reach and the wire
    /// items to send them (MILANA reads its live backup set and adds
    /// watermark relays and the applied floor there; SEMEL wraps records);
    /// one `Batch` envelope goes to every backup and every drained item
    /// succeeds at once when `f` backups acknowledged the whole envelope —
    /// so no item is ever acked with less than `f` coverage.
    ///
    /// Registers `{prefix}.node{n}.repl_envelopes` / `.repl_records` and
    /// the batcher `{prefix}.repl.node{n}`.
    pub fn replication_plane<Item: 'static, Req: Clone + 'static, Resp: Clone + 'static>(
        self: &Rc<Self>,
        prefix: &str,
        batch: BatchConfig,
        timeout: Duration,
        frame: impl Fn(Vec<Item>) -> (Vec<Addr>, Vec<Req>) + 'static,
        is_ack: impl Fn(&Resp) -> bool + Clone + 'static,
    ) -> Batcher<Item, bool> {
        let node = self.addr.node;
        let reg = &self.obs.registry;
        let envelopes = reg.counter(&format!("{prefix}.node{}.repl_envelopes", node.0));
        let records = reg.counter(&format!("{prefix}.node{}.repl_records", node.0));
        let core = Rc::clone(self);
        Batcher::new(
            &self.handle,
            node,
            &format!("{prefix}.repl.node{}", node.0),
            batch,
            self.obs.clone(),
            move |items: Vec<Item>| {
                let n = items.len();
                let (targets, wire) = frame(items);
                if !targets.is_empty() {
                    envelopes.add(targets.len() as u64);
                    records.add(n as u64);
                }
                let is_ack = is_ack.clone();
                let round = core.replicate(
                    targets,
                    Batch { items: wire },
                    timeout,
                    move |r: &BatchReply<Resp>| r.items.iter().all(&is_ack),
                );
                async move { vec![round.await; n] }
            },
        )
    }

    /// Merges one client's watermark report and advances the backend's GC
    /// floor: the tracker minimum, held back by the history window and by
    /// `cap` (a MILANA backup passes its applied watermark, everyone else
    /// [`Timestamp::MAX`]). Returns the floor handed to the backend, if the
    /// report produced a usable one.
    pub fn merge_watermark(
        &self,
        client: ClientId,
        ts: Timestamp,
        cap: Timestamp,
    ) -> Option<Timestamp> {
        let mut wm = {
            let mut w = self.watermarks.borrow_mut();
            w.update(client, ts);
            w.watermark()
        };
        if let Some(window) = self.history_window {
            wm = wm.min(Timestamp::from_sim(self.handle.now()).before(window));
        }
        wm = wm.min(cap);
        (wm > Timestamp::ZERO && wm < Timestamp::MAX).then(|| {
            self.backend.set_watermark(wm);
            wm
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashsim::{BackendKind, NandConfig};
    use simkit::net::NodeId;
    use simkit::Sim;

    #[derive(Debug, Clone, PartialEq)]
    struct Ping(u32);
    #[derive(Debug, Clone, PartialEq)]
    struct Pong(u32);

    #[test]
    fn a_round_trip_costs_the_caller_and_the_handler_nothing_else() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let addr = Addr::new(NodeId(2), 0);
        let core = ReplicaCore::new(
            &h,
            Backend::new(BackendKind::Dram, &h, NandConfig::default()),
            addr,
            &AdmissionConfig::default(),
            &obskit::Obs::new(),
            &[],
            None,
        );
        core.serve::<Ping, _, _>(|incoming, _from, resp| async move {
            match incoming {
                Incoming::One(Ping(v)) => resp.reply(Pong(v + 1)),
                Incoming::Batch(_) => panic!("expected a plain request"),
            }
        });
        let client = RpcClient::new(&h, NodeId(1), 0);
        assert_eq!((h.polls(), h.spawns()), (0, 0), "serving costs no task");
        let out = sim.block_on(async move {
            client
                .call::<Ping, Pong>(addr, Ping(41), Duration::from_millis(1))
                .await
        });
        assert_eq!(out, Ok(Pong(42)));
        // The caller sends and parks, the handler task runs, the reply sink
        // wakes the caller: no serve loop and no reply demux in between.
        assert_eq!(h.polls(), 3);
        assert_eq!(h.spawns(), 2); // `block_on`'s task and the handler's
    }
}

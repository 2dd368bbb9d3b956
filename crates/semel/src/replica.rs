//! The replica core: what one shard replica *is* under both protocols.
//!
//! [`crate::server::ShardServer`] (SEMEL) and `milana::TxnServer` each hold
//! one `Rc<ReplicaCore>` and add only their own state on top — ordered-mode
//! gap filling in SEMEL; the transaction table, 2PC, leases, recovery and
//! migration in MILANA. The core owns the storage backend, the internal RPC
//! endpoint, the admission gate, the GC watermark tracker and the
//! replication trace counter, and provides the five planes both servers
//! run: the service endpoint ([`ReplicaCore::serve`]), the one dispatch
//! ([`ReplicaCore::dispatch`] over a server's [`Dispatch`] impl), the
//! overload gate ([`ReplicaCore::admit`]), quorum replication
//! ([`ReplicaCore::replicate`], batched through
//! [`ReplicaCore::replication_plane`]) and watermark-driven garbage
//! collection ([`ReplicaCore::merge_watermark`]).
//!
//! The wire types stay per protocol, so the planes are generic: what a
//! server's requests cost, which may wait, how a refusal and an in-batch
//! silence are spelled and how each request starts is its [`Dispatch`]
//! impl; what counts as an acknowledgement is a closure.
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
use std::pin::Pin;
use std::rc::Rc;
use std::task::Poll;
use std::time::Duration;

use batchkit::{BatchConfig, Batcher};
use flashsim::Backend;
use loadkit::{Admission, AdmissionConfig, Permit, Shed};
use simkit::net::Addr;
use simkit::rpc::{serve_incoming, Batch, BatchReply, Incoming, Responder, RpcClient};
use simkit::SimHandle;
use timesync::{ClientId, Timestamp, WatermarkTracker};

use crate::replicate::{replicate_then, replicate_traced};

/// The future of a started request that may wait. It owns what it needs,
/// a clone of the server included, so it can outlive the call that started
/// it. `None` means *stay silent*.
pub type Waiting<Resp> = Pin<Box<dyn Future<Output = Option<Resp>>>>;

/// What [`Dispatch::start`] made of one request.
pub enum Started<Resp> {
    /// It never waits and is already answered.
    Answered(Resp),
    /// It may wait: its future, not yet polled.
    Waiting(Waiting<Resp>),
}

/// A server's side of [`ReplicaCore::dispatch`]: its wire types and the one
/// match that starts each request.
pub trait Dispatch: Clone + 'static {
    /// The request type served.
    type Req: Clone + 'static;
    /// The reply type.
    type Resp: Clone + 'static;
    /// How a shed client-facing request is answered.
    const SHED: fn(Shed) -> Self::Resp;
    /// What an item that stays silent answers inside a batch.
    const SILENT: Self::Resp;

    /// Admission cost of a client-facing request. Internal traffic is
    /// `None` and is never shed: refusing it only amplifies the overload
    /// or prolongs a recovery.
    fn admission_cost(req: &Self::Req) -> Option<u64>;

    /// True for a request whose [`Dispatch::start`] arm may wait, and for
    /// every request with an admission cost: only an envelope task admits.
    /// A missing entry hits an `unreachable!` in any envelope that holds it.
    fn may_wait(req: &Self::Req) -> bool;

    /// Starts `req` at its envelope's delivery instant: a request that
    /// never waits is answered here, one that may comes back as its own
    /// future, not yet polled, holding `permit` until it is done.
    fn start(&self, req: Self::Req, permit: Option<Permit>, from: Addr) -> Started<Self::Resp>;
}

/// Answers an envelope once every item has its reply. Inside a batch an
/// item that stays silent answers [`Dispatch::SILENT`], which the sender
/// classifies like a single envelope's silence followed by its timeout.
fn reply<S: Dispatch>(resp: Responder, batched: bool, replies: Vec<Option<S::Resp>>) {
    if batched {
        let replies = replies.into_iter().map(|r| r.unwrap_or(S::SILENT));
        resp.reply_batch(replies.collect());
    } else if let Some(r) = replies.into_iter().next().flatten() {
        resp.reply(r);
    }
}

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

    /// Binds the service address: `handler` sees each envelope at its
    /// delivery instant, with nothing between it and the network. It
    /// decides what the envelope costs — a request that never waits is
    /// answered there and then, one that may is spawned with
    /// [`ReplicaCore::spawn`] so slow device operations do not serialize
    /// the shard.
    pub fn serve<Req: Clone + 'static>(
        &self,
        handler: impl FnMut(Incoming<Req>, Addr, Responder) + 'static,
    ) {
        serve_incoming::<Req>(&self.handle, self.addr, handler);
    }

    /// Spawns `fut` as a task of this replica's node, so killing the node
    /// aborts it.
    pub fn spawn(&self, fut: impl Future<Output = ()> + 'static) {
        self.handle.spawn_on(self.addr.node, fut);
    }

    /// The one dispatch: takes an envelope at its delivery instant, a
    /// single request as a batch of one. One holding an item that
    /// [`Dispatch::may_wait`] is served by a task of its own
    /// (`ReplicaCore::envelope`); any other is answered right here, with
    /// no task. A delivery lands on an empty ready queue, and the task
    /// spawned for it would have been polled next, so answering in place
    /// produces the same effects in the same order.
    pub fn dispatch<S: Dispatch>(
        self: &Rc<Self>,
        server: &S,
        incoming: Incoming<S::Req>,
        from: Addr,
        resp: Responder,
    ) {
        let (items, batched) = match incoming {
            Incoming::One(req) => (vec![req], false),
            Incoming::Batch(items) => (items, true),
        };
        if items.iter().any(S::may_wait) {
            self.spawn(self.envelope(server.clone(), items, batched, from, resp));
        } else {
            // Nothing client-facing, so nothing to admit.
            let replies = items
                .into_iter()
                .map(|item| match server.start(item, None, from) {
                    Started::Answered(r) => Some(r),
                    Started::Waiting(_) => unreachable!("`may_wait` lists every arm that waits"),
                })
                .collect();
            reply::<S>(resp, batched, replies);
        }
    }

    /// The task of an envelope holding an item that may wait. Its first
    /// poll admits the envelope's client-facing items — one deadline check
    /// for the whole envelope, then `try_admit` each in item order, so one
    /// answered on its first poll cannot free capacity for a later one —
    /// and starts every item in item order through [`Dispatch::start`],
    /// first-polling each that waits before the next starts. Later polls
    /// poll only the items still pending. Once none is, it answers the
    /// envelope.
    fn envelope<S: Dispatch>(
        self: &Rc<Self>,
        server: S,
        items: Vec<S::Req>,
        batched: bool,
        from: Addr,
        resp: Responder,
    ) -> impl Future<Output = ()> + 'static {
        let core = Rc::clone(self);
        async move {
            let now = core.handle.now();
            let deadline_shed = (items.iter().any(|i| S::admission_cost(i).is_some())
                && resp.deadline().expired(now))
            .then(|| core.admission.shed_deadline(now.as_nanos()));
            let mut admits = items
                .iter()
                .filter_map(S::admission_cost)
                .map(|cost| match deadline_shed {
                    Some(shed) => Err(shed),
                    None => core.admission.try_admit(now.as_nanos(), cost),
                })
                .collect::<Vec<_>>()
                .into_iter();
            let mut replies = Vec::with_capacity(items.len());
            let mut waiting: Vec<(usize, Waiting<S::Resp>)> = Vec::new();
            let mut unstarted = items.into_iter();
            std::future::poll_fn(|cx| {
                waiting.retain_mut(|(i, item)| match item.as_mut().poll(cx) {
                    Poll::Ready(r) => {
                        replies[*i] = r;
                        false
                    }
                    Poll::Pending => true,
                });
                // First poll only (`waiting` was empty above): start every item.
                for item in unstarted.by_ref() {
                    // Internal traffic is never admitted, so has no permit.
                    let admitted = S::admission_cost(&item).and_then(|_| admits.next());
                    let r = match admitted
                        .transpose()
                        .map(|permit| server.start(item, permit, from))
                    {
                        // A shed item: nothing read or written — a definite
                        // no the client can act on.
                        Err(shed) => Some(S::SHED(shed)),
                        Ok(Started::Answered(r)) => Some(r),
                        Ok(Started::Waiting(mut item)) => match item.as_mut().poll(cx) {
                            Poll::Ready(r) => r,
                            Poll::Pending => {
                                waiting.push((replies.len(), item));
                                None
                            }
                        },
                    };
                    replies.push(r);
                }
                if waiting.is_empty() {
                    Poll::Ready(())
                } else {
                    Poll::Pending
                }
            })
            .await;
            reply::<S>(resp, batched, replies);
        }
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
        accept: impl Fn(&Resp) -> bool + 'static,
    ) -> impl Future<Output = bool> {
        let seq = self.next_trace_seq();
        replicate_traced(
            &self.rpc,
            targets,
            req,
            timeout,
            accept,
            &self.obs.tracer,
            seq,
        )
    }

    fn next_trace_seq(&self) -> u64 {
        self.trace_seq.replace(self.trace_seq.get() + 1)
    }

    /// Builds the group-commit replication plane. A flush hands the drained
    /// items to `frame`, which names the backups to reach and the wire
    /// items to send them (MILANA reads its live backup set and adds
    /// watermark relays and the applied floor there; SEMEL wraps records);
    /// one `Batch` envelope goes to every backup and every drained item
    /// succeeds at once when `f` backups acknowledged the whole envelope —
    /// so no item is ever acked with less than `f` coverage. The round is a
    /// [`replicate_then`]: no task waits on it.
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
        Batcher::callback(
            &self.handle,
            node,
            &format!("{prefix}.repl.node{}", node.0),
            batch,
            self.obs.clone(),
            move |items: Vec<Item>, done| {
                let n = items.len();
                let (targets, wire) = frame(items);
                if !targets.is_empty() {
                    envelopes.add(targets.len() as u64);
                    records.add(n as u64);
                }
                let is_ack = is_ack.clone();
                replicate_then(
                    &core.rpc,
                    targets,
                    Batch { items: wire },
                    timeout,
                    move |r: &BatchReply<Resp>| r.items.iter().all(&is_ack),
                    &core.obs.tracer,
                    core.next_trace_seq(),
                    move |ok| done.complete(vec![ok; n]),
                );
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

    /// A request that never waits and one that may.
    #[derive(Debug, Clone)]
    enum Req {
        Ping(u32),
        Wait(u32),
    }
    #[derive(Debug, Clone, PartialEq)]
    struct Pong(u32);

    #[derive(Clone)]
    struct Echo;

    impl Dispatch for Echo {
        type Req = Req;
        type Resp = Pong;
        const SHED: fn(Shed) -> Pong = |_| Pong(0);
        const SILENT: Pong = Pong(0);

        fn admission_cost(_: &Req) -> Option<u64> {
            None
        }

        fn may_wait(req: &Req) -> bool {
            matches!(req, Req::Wait(_))
        }

        fn start(&self, req: Req, _: Option<Permit>, _: Addr) -> Started<Pong> {
            match req {
                Req::Ping(v) => Started::Answered(Pong(v + 1)),
                Req::Wait(v) => Started::Waiting(Box::pin(async move { Some(Pong(v + 1)) })),
            }
        }
    }

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
        let server = Rc::clone(&core);
        core.serve::<Req>(move |incoming, from, resp| server.dispatch(&Echo, incoming, from, resp));
        let client = Rc::new(RpcClient::new(&h, NodeId(1), 0));
        assert_eq!((h.polls(), h.spawns()), (0, 0), "serving costs no task");
        let mut round_trip = |req| {
            let (polls, spawns) = (h.polls(), h.spawns());
            let client = Rc::clone(&client);
            let out = sim.block_on(async move {
                client
                    .call::<Req, Pong>(addr, req, Duration::from_millis(1))
                    .await
            });
            assert_eq!(out, Ok(Pong(42)));
            (h.polls() - polls, h.spawns() - spawns)
        };
        // The caller sends and parks, the reply sink wakes it: a request
        // that never waits is answered at the sink, with no task but
        // `block_on`'s.
        assert_eq!(round_trip(Req::Ping(41)), (2, 1));
        // One that may wait gets one envelope task, polled once: no serve
        // loop and no reply demux in between.
        assert_eq!(round_trip(Req::Wait(41)), (3, 2));
    }
}

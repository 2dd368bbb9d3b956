//! Typed request/response messaging over the simulated network.
//!
//! An [`RpcClient`] issues calls; its reply port is a sink
//! ([`SimHandle::bind_sink`]) that hands each reply to the waiting call by
//! request id at the delivery instant. A server either binds a [`Mailbox`]
//! and loops on [`recv_request`], or registers a callback with
//! [`serve_incoming`], to receive typed requests together with a
//! [`Responder`] for the (optional) reply. Neither side runs a task that
//! only forwards.
//!
//! Calls to dead or partitioned nodes never complete, so every call carries
//! a timeout — exactly the failure surface distributed protocols must handle.

use perfkit::FastMap;
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use crate::executor::SimHandle;
use crate::net::{Addr, Mailbox, NodeId, Packet};
use crate::sync::oneshot;
use crate::time::SimTime;

/// Absolute virtual-time expiry carried in every request envelope.
///
/// The caller stamps the latest instant at which the reply is still
/// useful; each downstream hop can check [`Deadline::expired`] and refuse
/// already-dead work instead of doing it. Casts (and control traffic that
/// must always apply, like 2PC outcomes) carry [`Deadline::NONE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline(SimTime);

impl Deadline {
    /// The never-expires sentinel.
    pub const NONE: Deadline = Deadline(SimTime::MAX);

    /// A deadline `budget` after `now`.
    pub fn after(now: SimTime, budget: Duration) -> Deadline {
        Deadline(now.saturating_add(budget))
    }

    /// The absolute expiry instant.
    pub fn at(self) -> SimTime {
        self.0
    }

    /// True when the deadline has passed at `now`.
    pub fn expired(self, now: SimTime) -> bool {
        self != Deadline::NONE && now >= self.0
    }

    /// Budget left at `now`; `None` once expired. [`Deadline::NONE`]
    /// always reports the maximum budget.
    pub fn remaining(self, now: SimTime) -> Option<Duration> {
        if self.expired(now) {
            None
        } else {
            Some(self.0.saturating_since(now))
        }
    }
}

/// Wire format for a request. Bodies are `Rc`-shared so the network layer
/// can duplicate packets under fault injection without re-serializing.
#[derive(Clone)]
struct Request {
    id: u64,
    /// Where to send the reply; `None` marks fire-and-forget casts.
    reply_to: Option<Addr>,
    /// Latest useful completion instant (propagated hop to hop).
    deadline: Deadline,
    body: Rc<dyn Any>,
}

/// Wire format for a reply.
#[derive(Clone)]
struct Reply {
    id: u64,
    body: Rc<dyn Any>,
}

/// Extracts an owned `T` from a shared body (cloning only when a duplicated
/// packet still holds the other reference).
fn unwrap_body<T: Any + Clone>(body: Rc<T>) -> T {
    Rc::try_unwrap(body).unwrap_or_else(|rc| (*rc).clone())
}

/// Wire wrapper for a coalesced batch of same-type requests sharing one
/// envelope (and one [`Deadline`]). Servers that understand batches receive
/// it through [`serve_incoming`] as [`Incoming::Batch`] and answer every item
/// in order with [`Responder::reply_batch`].
#[derive(Debug, Clone)]
pub struct Batch<Req> {
    /// The coalesced requests, in submission order.
    pub items: Vec<Req>,
}

/// Wire wrapper for the per-item replies to a [`Batch`], in item order.
#[derive(Debug, Clone)]
pub struct BatchReply<Resp> {
    /// One reply per batched request, in the batch's item order.
    pub items: Vec<Resp>,
}

/// Errors surfaced by [`RpcClient::call`].
///
/// Silence is the only failure: a pending call's reply sender sits in the
/// client's own routing table until the reply sink takes it out to send, or
/// the timed-out call removes it — nothing can drop it unsent, so there is
/// no "endpoint closed" case. A caller whose node is killed is dropped with
/// its task; one living elsewhere times out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcError {
    /// No reply within the timeout (dead peer, partition, or lost message).
    Timeout,
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::Timeout => write!(f, "rpc timed out"),
        }
    }
}

impl std::error::Error for RpcError {}

/// Reply-routing table shared between a client and its reply sink.
type PendingReplies = Rc<RefCell<FastMap<u64, oneshot::Sender<Rc<dyn Any>>>>>;

/// Client half of the RPC layer; lives on one node and may call any address.
///
/// Cloning is cheap and shares the underlying reply route.
#[derive(Clone)]
pub struct RpcClient {
    handle: SimHandle,
    reply_addr: Addr,
    pending: PendingReplies,
    next_id: Rc<Cell<u64>>,
}

impl RpcClient {
    /// Creates a client on `node`, binding `reply_port` as the sink that
    /// routes each reply to its pending call.
    pub fn new(handle: &SimHandle, node: NodeId, reply_port: u16) -> RpcClient {
        let reply_addr = Addr::new(node, reply_port);
        let pending: PendingReplies = Rc::new(RefCell::new(FastMap::default()));
        let route = pending.clone();
        handle.bind_sink(reply_addr, move |pkt| {
            let Ok(reply) = pkt.payload.downcast::<Reply>() else {
                return; // stray packet on the reply port
            };
            // A late or duplicated reply finds no entry and is discarded.
            let tx = route.borrow_mut().remove(&reply.id);
            if let Some(tx) = tx {
                let _ = tx.send(reply.body);
            }
        });
        RpcClient {
            handle: handle.clone(),
            reply_addr,
            pending,
            next_id: Rc::new(Cell::new(0)),
        }
    }

    /// The address replies are routed to.
    pub fn reply_addr(&self) -> Addr {
        self.reply_addr
    }

    /// The simulation this client runs in.
    pub fn handle(&self) -> &SimHandle {
        &self.handle
    }

    /// Issues a request and waits for its typed reply.
    ///
    /// # Errors
    ///
    /// [`RpcError::Timeout`] if no reply arrives within `timeout`.
    ///
    /// # Panics
    ///
    /// Panics if the peer replies with a type other than `Resp` — that is a
    /// protocol-definition bug, not a runtime fault.
    pub async fn call<Req: Any + Clone, Resp: Any + Clone>(
        &self,
        to: Addr,
        req: Req,
        timeout: Duration,
    ) -> Result<Resp, RpcError> {
        let deadline = Deadline::after(self.handle.now(), timeout);
        self.call_with_deadline(to, req, timeout, deadline).await
    }

    /// Like [`RpcClient::call`], but carrying an explicit `deadline` in the
    /// envelope — the way multi-hop paths propagate the *original* caller's
    /// budget instead of resetting it at each hop. The effective wait is
    /// the tighter of `timeout` and the deadline's remaining budget; an
    /// already-expired deadline fails immediately without sending.
    ///
    /// # Errors
    ///
    /// [`RpcError::Timeout`] if no reply arrives in time (or the deadline
    /// was already expired).
    pub async fn call_with_deadline<Req: Any + Clone, Resp: Any + Clone>(
        &self,
        to: Addr,
        req: Req,
        timeout: Duration,
        deadline: Deadline,
    ) -> Result<Resp, RpcError> {
        let Some(remaining) = deadline.remaining(self.handle.now()) else {
            return Err(RpcError::Timeout);
        };
        let wait = timeout.min(remaining);
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        let (tx, rx) = oneshot::channel();
        self.pending.borrow_mut().insert(id, tx);
        self.handle.send(
            self.reply_addr,
            to,
            Request {
                id,
                reply_to: Some(self.reply_addr),
                deadline,
                body: Rc::new(req),
            },
        );
        match self.handle.timeout(wait, rx).await {
            Ok(body) => Ok(unwrap_body(
                body.expect("a pending reply sender is never dropped unsent")
                    .downcast::<Resp>()
                    .expect("rpc reply type mismatch: protocol bug"),
            )),
            Err(_) => {
                self.pending.borrow_mut().remove(&id);
                Err(RpcError::Timeout)
            }
        }
    }

    /// Coalesces `items` into one [`Batch`] envelope, sends it as a single
    /// request, and waits for the per-item replies. The whole batch shares
    /// one deadline (`timeout` from now): per-item admission on the server
    /// charges each item's cost against that single envelope budget.
    ///
    /// # Errors
    ///
    /// [`RpcError::Timeout`] if the batched reply does not arrive in time —
    /// the envelope is one packet, so items fail or survive together.
    ///
    /// # Panics
    ///
    /// Panics if the peer answers with a reply count different from the
    /// item count — a protocol-definition bug, like a reply type mismatch.
    pub async fn call_batch<Req: Any + Clone, Resp: Any + Clone>(
        &self,
        to: Addr,
        items: Vec<Req>,
        timeout: Duration,
    ) -> Result<Vec<Resp>, RpcError> {
        let n = items.len();
        let reply: BatchReply<Resp> = self.call(to, Batch { items }, timeout).await?;
        assert_eq!(
            reply.items.len(),
            n,
            "batch reply arity mismatch: protocol bug"
        );
        Ok(reply.items)
    }

    /// Sends a fire-and-forget request; no reply is expected or routed.
    pub fn cast<Req: Any + Clone>(&self, to: Addr, req: Req) {
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        self.handle.send(
            self.reply_addr,
            to,
            Request {
                id,
                reply_to: None,
                deadline: Deadline::NONE,
                body: Rc::new(req),
            },
        );
    }
}

impl std::fmt::Debug for RpcClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RpcClient")
            .field("reply_addr", &self.reply_addr)
            .field("pending", &self.pending.borrow().len())
            .finish()
    }
}

/// Server-side handle for answering one request.
#[derive(Debug)]
pub struct Responder {
    handle: SimHandle,
    my_addr: Addr,
    reply_to: Option<Addr>,
    deadline: Deadline,
    id: u64,
}

impl Responder {
    /// Sends `resp` back to the caller. A no-op for casts.
    pub fn reply<Resp: Any + Clone>(self, resp: Resp) {
        if let Some(to) = self.reply_to {
            self.handle.send(
                self.my_addr,
                to,
                Reply {
                    id: self.id,
                    body: Rc::new(resp),
                },
            );
        }
    }

    /// Sends the per-item replies for a batched request back to the caller
    /// in one [`BatchReply`] envelope. A no-op for casts. The item count
    /// must equal the received batch's — [`RpcClient::call_batch`] panics
    /// on arity mismatch at the caller.
    pub fn reply_batch<Resp: Any + Clone>(self, items: Vec<Resp>) {
        self.reply(BatchReply { items });
    }

    /// True when the caller expects a reply.
    pub fn expects_reply(&self) -> bool {
        self.reply_to.is_some()
    }

    /// The deadline the caller stamped on this request
    /// ([`Deadline::NONE`] for casts).
    pub fn deadline(&self) -> Deadline {
        self.deadline
    }
}

/// Opens one packet from an RPC port: the still-erased request body, the
/// sender, and the [`Responder`] that answers from `my_addr`.
fn open_request(handle: &SimHandle, my_addr: Addr, pkt: Packet) -> (Rc<dyn Any>, Addr, Responder) {
    let Request {
        id,
        reply_to,
        deadline,
        body,
    } = *pkt
        .payload
        .downcast::<Request>()
        .expect("non-rpc packet on rpc port");
    let resp = Responder {
        handle: handle.clone(),
        my_addr,
        reply_to,
        deadline,
        id,
    };
    (body, pkt.from, resp)
}

/// Receives the next typed request on `mailbox`.
///
/// Returns `None` when the mailbox closes (node killed). Packets whose body
/// is not a `Req` panic — mixing request types on one port is a wiring bug.
pub async fn recv_request<Req: Any + Clone>(
    handle: &SimHandle,
    mailbox: &Mailbox,
) -> Option<(Req, Addr, Responder)> {
    let pkt = mailbox.recv().await?;
    let (body, from, resp) = open_request(handle, mailbox.addr(), pkt);
    let body = body
        .downcast::<Req>()
        .expect("rpc request type mismatch: protocol bug");
    Some((unwrap_body(body), from, resp))
}

/// A request as seen by a batch-aware server: either a plain request or a
/// coalesced [`Batch`] of them sharing one envelope.
#[derive(Debug)]
pub enum Incoming<Req> {
    /// A single request.
    One(Req),
    /// A coalesced batch; answer every item in order with
    /// [`Responder::reply_batch`].
    Batch(Vec<Req>),
}

/// Binds `addr` as a sink that calls `on_request` with each request at its
/// delivery instant, accepting both plain `Req` bodies and [`Batch<Req>`]
/// envelopes. No task sits between the network and the callback: a server
/// that handles each request in its own task spawns it from `on_request`,
/// one that answers without waiting replies there and then.
///
/// [`SimHandle::kill_node`] drops `on_request` and unbinds `addr`. Packets
/// whose body is neither a `Req` nor a `Batch<Req>` panic — mixing request
/// types on one port is a wiring bug.
///
/// # Panics
///
/// Panics if the address is already bound or its node is dead.
pub fn serve_incoming<Req: Any + Clone>(
    handle: &SimHandle,
    addr: Addr,
    mut on_request: impl FnMut(Incoming<Req>, Addr, Responder) + 'static,
) {
    let h = handle.clone();
    handle.bind_sink(addr, move |pkt| {
        let (body, from, resp) = open_request(&h, addr, pkt);
        let incoming = match body.downcast::<Req>() {
            Ok(one) => Incoming::One(unwrap_body(one)),
            Err(body) => Incoming::Batch(
                unwrap_body(
                    body.downcast::<Batch<Req>>()
                        .expect("rpc request type mismatch: protocol bug"),
                )
                .items,
            ),
        };
        on_request(incoming, from, resp);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sim;

    const TIMEOUT: Duration = Duration::from_millis(100);

    #[derive(Debug, Clone, PartialEq)]
    struct Ping(u32);
    #[derive(Debug, Clone, PartialEq)]
    struct Pong(u32);

    fn spawn_echo(h: &SimHandle, node: NodeId) -> Addr {
        let mb = h.bind(Addr::new(node, 0));
        let h2 = h.clone();
        let addr = mb.addr();
        h.spawn_on(node, async move {
            while let Some((Ping(v), _from, resp)) = recv_request::<Ping>(&h2, &mb).await {
                resp.reply(Pong(v + 1));
            }
        });
        addr
    }

    #[test]
    fn call_round_trips() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let hh = h.clone();
        let out = sim.block_on(async move {
            let server = spawn_echo(&hh, NodeId(2));
            let client = RpcClient::new(&hh, NodeId(1), 0);
            client.call::<Ping, Pong>(server, Ping(41), TIMEOUT).await
        });
        assert_eq!(out, Ok(Pong(42)));
    }

    #[test]
    fn concurrent_calls_demux_correctly() {
        let mut sim = Sim::new(3);
        let h = sim.handle();
        let hh = h.clone();
        let outs = sim.block_on(async move {
            let server = spawn_echo(&hh, NodeId(2));
            let client = RpcClient::new(&hh, NodeId(1), 0);
            let mut joins = Vec::new();
            for i in 0..10u32 {
                let c = client.clone();
                joins.push(
                    hh.spawn(async move { c.call::<Ping, Pong>(server, Ping(i), TIMEOUT).await }),
                );
            }
            let mut outs = Vec::new();
            for j in joins {
                outs.push(j.await);
            }
            outs
        });
        for (i, o) in outs.into_iter().enumerate() {
            assert_eq!(o, Ok(Pong(i as u32 + 1)));
        }
    }

    /// Batch-aware echo: answers plain Pings and Batch<Ping> envelopes,
    /// at the delivery instant and without a task.
    fn serve_batch_echo(h: &SimHandle, node: NodeId) -> Addr {
        let addr = Addr::new(node, 0);
        serve_incoming::<Ping>(h, addr, |incoming, _from, resp| match incoming {
            Incoming::One(Ping(v)) => resp.reply(Pong(v + 1)),
            Incoming::Batch(items) => resp.reply_batch(
                items
                    .into_iter()
                    .map(|Ping(v)| Pong(v + 1))
                    .collect::<Vec<_>>(),
            ),
        });
        addr
    }

    #[test]
    fn call_batch_round_trips_in_item_order() {
        let mut sim = Sim::new(5);
        let h = sim.handle();
        let hh = h.clone();
        let out = sim.block_on(async move {
            let server = serve_batch_echo(&hh, NodeId(2));
            let client = RpcClient::new(&hh, NodeId(1), 0);
            client
                .call_batch::<Ping, Pong>(server, vec![Ping(1), Ping(2), Ping(3)], TIMEOUT)
                .await
        });
        assert_eq!(out, Ok(vec![Pong(2), Pong(3), Pong(4)]));
    }

    #[test]
    fn batch_server_still_answers_plain_calls() {
        let mut sim = Sim::new(5);
        let h = sim.handle();
        let hh = h.clone();
        let out = sim.block_on(async move {
            let server = serve_batch_echo(&hh, NodeId(2));
            let client = RpcClient::new(&hh, NodeId(1), 0);
            client.call::<Ping, Pong>(server, Ping(7), TIMEOUT).await
        });
        assert_eq!(out, Ok(Pong(8)));
    }

    #[test]
    fn call_to_dead_node_times_out() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let hh = h.clone();
        let out = sim.block_on(async move {
            let server = spawn_echo(&hh, NodeId(2));
            let client = RpcClient::new(&hh, NodeId(1), 0);
            hh.kill_node(NodeId(2));
            client.call::<Ping, Pong>(server, Ping(1), TIMEOUT).await
        });
        assert_eq!(out, Err(RpcError::Timeout));
    }

    #[test]
    fn answered_calls_leave_no_timers_behind() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let hh = h.clone();
        sim.block_on(async move {
            hh.set_latency(crate::net::LatencyConfig {
                one_way: Duration::from_micros(25),
                jitter_std: Duration::ZERO,
                ..crate::net::LatencyConfig::default()
            });
            // Echo with a 50 us service time: 100 us per call, so the run
            // is four 50 ms timeouts long and every early guard timer would
            // have come due (and re-armed) had it been left behind.
            let mb = hh.bind(Addr::new(NodeId(2), 0));
            let h2 = hh.clone();
            hh.spawn_on(NodeId(2), async move {
                while let Some((Ping(v), _from, resp)) = recv_request::<Ping>(&h2, &mb).await {
                    h2.sleep(Duration::from_micros(50)).await;
                    resp.reply(Pong(v + 1));
                }
            });
            let client = RpcClient::new(&hh, NodeId(1), 0);
            let timeout = Duration::from_millis(50);
            let mut polls_at = Vec::new();
            for i in 0..2000u32 {
                if i % 100 == 0 {
                    assert_eq!(hh.timer_stats().pending, 0, "before call {i}");
                    polls_at.push(hh.polls());
                }
                let r = client
                    .call::<Ping, Pong>(Addr::new(NodeId(2), 0), Ping(i), timeout)
                    .await;
                assert_eq!(r, Ok(Pong(i + 1)));
            }
            polls_at.push(hh.polls());
            assert!(hh.now() >= SimTime::from_millis(200));
            // Polls per hundred calls do not depend on how long the run is.
            assert_eq!(polls_at[20] - polls_at[19], polls_at[2] - polls_at[1]);
            let stats = hh.timer_stats();
            assert_eq!(
                (stats.armed, stats.fired, stats.cancelled),
                (4000, 2000, 2000)
            );
        });
    }

    #[test]
    fn kill_node_drops_parked_tasks_and_their_timers() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let hh = h.clone();
        sim.block_on(async move {
            let victim = NodeId(1);
            let client = RpcClient::new(&hh, victim, 0);
            let (_tx, rx) = oneshot::channel::<()>();
            let (h1, h2) = (hh.clone(), hh.clone());
            hh.spawn_on(victim, async move { h1.sleep(TIMEOUT).await });
            hh.spawn_on(victim, async move {
                let _ = h2.timeout(TIMEOUT, rx).await;
            });
            // In flight forever: nothing is bound at the callee.
            hh.spawn_on(victim, async move {
                let _ = client
                    .call::<Ping, Pong>(Addr::new(NodeId(2), 0), Ping(1), TIMEOUT)
                    .await;
            });
            hh.sleep(Duration::from_millis(1)).await;
            assert_eq!(hh.timer_stats().pending, 3);
            hh.kill_node(victim);
            let stats = hh.timer_stats();
            assert_eq!((stats.cancelled, stats.pending), (3, 0));
            // Let the wake-up of the kill itself (the dropped reply route)
            // drain; then nothing fires at the old deadlines.
            hh.sleep(Duration::from_millis(1)).await;
            let polls = hh.polls();
            hh.sleep(TIMEOUT * 2).await;
            assert_eq!(hh.polls(), polls + 1);
        });
    }

    #[test]
    fn cast_is_fire_and_forget() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let hh = h.clone();
        let got = sim.block_on(async move {
            let mb = hh.bind(Addr::new(NodeId(2), 0));
            let client = RpcClient::new(&hh, NodeId(1), 0);
            client.cast(Addr::new(NodeId(2), 0), Ping(7));
            let (Ping(v), _from, resp) = recv_request::<Ping>(&hh, &mb).await.unwrap();
            assert!(!resp.expects_reply());
            resp.reply(Pong(0)); // must be a harmless no-op
            v
        });
        assert_eq!(got, 7);
    }

    #[test]
    fn duplicated_requests_and_replies_round_trip() {
        // With 100% duplication every request and reply is delivered twice;
        // the server simply answers twice and the reply sink drops the
        // second reply (its pending entry is gone). Calls still succeed.
        let mut sim = Sim::new(21);
        let h = sim.handle();
        let hh = h.clone();
        let outs = sim.block_on(async move {
            let server = spawn_echo(&hh, NodeId(2));
            let client = RpcClient::new(&hh, NodeId(1), 0);
            hh.set_net_faults(crate::net::NetFaultConfig {
                dup_prob: 1.0,
                ..crate::net::NetFaultConfig::default()
            });
            let mut outs = Vec::new();
            for i in 0..5u32 {
                outs.push(client.call::<Ping, Pong>(server, Ping(i), TIMEOUT).await);
            }
            outs
        });
        for (i, o) in outs.into_iter().enumerate() {
            assert_eq!(o, Ok(Pong(i as u32 + 1)));
        }
    }

    #[test]
    fn call_stamps_deadline_and_server_sees_it() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let hh = h.clone();
        sim.block_on(async move {
            let mb = hh.bind(Addr::new(NodeId(2), 0));
            let h2 = hh.clone();
            hh.spawn_on(NodeId(2), async move {
                while let Some((Ping(v), _f, resp)) = recv_request::<Ping>(&h2, &mb).await {
                    let dl = resp.deadline();
                    assert_ne!(dl, Deadline::NONE);
                    assert!(!dl.expired(h2.now()));
                    // The caller's budget was TIMEOUT; at most that remains.
                    assert!(dl.remaining(h2.now()).unwrap() <= TIMEOUT);
                    resp.reply(Pong(v));
                }
            });
            let client = RpcClient::new(&hh, NodeId(1), 0);
            let r = client
                .call::<Ping, Pong>(Addr::new(NodeId(2), 0), Ping(9), TIMEOUT)
                .await;
            assert_eq!(r, Ok(Pong(9)));
        });
    }

    #[test]
    fn expired_deadline_fails_without_sending() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let hh = h.clone();
        sim.block_on(async move {
            let server = spawn_echo(&hh, NodeId(2));
            let client = RpcClient::new(&hh, NodeId(1), 0);
            let dead = Deadline::after(hh.now(), Duration::ZERO);
            hh.sleep(Duration::from_millis(1)).await;
            let before = hh.now();
            let r = client
                .call_with_deadline::<Ping, Pong>(server, Ping(1), TIMEOUT, dead)
                .await;
            assert_eq!(r, Err(RpcError::Timeout));
            // Failed immediately — no virtual time elapsed waiting.
            assert_eq!(hh.now(), before);
        });
    }

    #[test]
    fn cast_carries_no_deadline() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let hh = h.clone();
        sim.block_on(async move {
            let mb = hh.bind(Addr::new(NodeId(2), 0));
            let client = RpcClient::new(&hh, NodeId(1), 0);
            client.cast(Addr::new(NodeId(2), 0), Ping(7));
            let (_, _, resp) = recv_request::<Ping>(&hh, &mb).await.unwrap();
            assert_eq!(resp.deadline(), Deadline::NONE);
            assert!(!resp.deadline().expired(SimTime::MAX));
        });
    }

    #[test]
    fn timeout_then_late_reply_is_discarded() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let hh = h.clone();
        sim.block_on(async move {
            // Server that replies after 10ms.
            let mb = hh.bind(Addr::new(NodeId(2), 0));
            let h2 = hh.clone();
            hh.spawn_on(NodeId(2), async move {
                while let Some((Ping(v), _f, resp)) = recv_request::<Ping>(&h2, &mb).await {
                    h2.sleep(Duration::from_millis(10)).await;
                    resp.reply(Pong(v));
                }
            });
            let client = RpcClient::new(&hh, NodeId(1), 0);
            let r = client
                .call::<Ping, Pong>(Addr::new(NodeId(2), 0), Ping(1), Duration::from_millis(1))
                .await;
            assert_eq!(r, Err(RpcError::Timeout));
            // Wait for the late reply to arrive and be dropped by the sink.
            hh.sleep(Duration::from_millis(20)).await;
            // A fresh call still works (ids do not collide).
            let r2 = client
                .call::<Ping, Pong>(Addr::new(NodeId(2), 0), Ping(5), TIMEOUT)
                .await;
            assert_eq!(r2, Ok(Pong(5)));
        });
    }
}

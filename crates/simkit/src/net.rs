//! Simulated message network.
//!
//! Nodes are identified by [`NodeId`]; a node can bind any number of
//! [`Addr`]s (node + port) to receive packets. An address is bound either as
//! a *queue* ([`SimHandle::bind`]: packets wait in a [`Mailbox`] for a task
//! to `recv` them) or as a *sink* ([`SimHandle::bind_sink`]: a closure runs
//! at the delivery instant, with no task and no poll in between). Delivery
//! is asynchronous with a configurable latency distribution, and the network
//! supports fault injection: killing nodes (which also aborts their tasks)
//! and partitioning node pairs.
//!
//! Payloads are type-erased `Box<dyn Any>`; the RPC layer in [`crate::rpc`]
//! restores typing at the endpoints.

use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;

use perfkit::{FastMap, FastSet};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use rand::Rng;

use crate::executor::{SimHandle, TimerFire};

/// Identifies a simulated machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A bindable endpoint: a port on a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Addr {
    /// The machine this endpoint lives on.
    pub node: NodeId,
    /// Port within the node (purely a demultiplexing key).
    pub port: u16,
}

impl Addr {
    /// Convenience constructor.
    pub const fn new(node: NodeId, port: u16) -> Addr {
        Addr { node, port }
    }
}

impl std::fmt::Display for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.node, self.port)
    }
}

/// A delivered message.
#[derive(Debug)]
pub struct Packet {
    /// Sender endpoint.
    pub(crate) from: Addr,
    /// Type-erased payload; receivers downcast to the expected type.
    pub payload: Box<dyn Any>,
}

/// Latency of a message a node sends to itself (loopback).
pub(crate) const LOCAL_LATENCY: Duration = Duration::from_micros(2);
/// Hard lower bound on any sampled node-to-node latency.
pub(crate) const LATENCY_FLOOR: Duration = Duration::from_micros(1);

/// One-way latency model for message delivery.
///
/// Samples `max(LATENCY_FLOOR, Normal(one_way, jitter_std))`; messages a
/// node sends to itself take [`LOCAL_LATENCY`] instead.
#[derive(Debug, Clone)]
pub struct LatencyConfig {
    /// Mean one-way latency between distinct nodes.
    pub one_way: Duration,
    /// Standard deviation of the one-way latency.
    pub jitter_std: Duration,
}

impl Default for LatencyConfig {
    /// Intra-data-center defaults: 25 µs one-way (≈50 µs RTT), 5 µs jitter.
    fn default() -> LatencyConfig {
        LatencyConfig {
            one_way: Duration::from_micros(25),
            jitter_std: Duration::from_micros(5),
        }
    }
}

impl LatencyConfig {
    fn sample(&self, rng: &mut impl Rng, local: bool) -> Duration {
        if local {
            return LOCAL_LATENCY;
        }
        let mean = self.one_way.as_nanos() as f64;
        let std = self.jitter_std.as_nanos() as f64;
        let z = crate::rng::standard_normal(rng);
        let ns = (mean + std * z).max(LATENCY_FLOOR.as_nanos() as f64);
        Duration::from_nanos(ns as u64)
    }
}

/// Counters describing network activity so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages submitted for delivery.
    pub sent: u64,
    /// Messages actually handed to a bound mailbox.
    pub delivered: u64,
    /// Messages dropped (dead node, partition, unbound address, or an
    /// injected drop fault).
    pub dropped: u64,
    /// Extra deliveries scheduled by injected duplication faults.
    pub duplicated: u64,
    /// Deliveries that took an injected delay spike.
    pub delay_spiked: u64,
}

/// Probabilistic message faults applied to every non-loopback send while
/// installed (see [`SimHandle::set_net_faults`]). All randomness comes from
/// the simulation RNG, so a faulty run is exactly as reproducible as a
/// clean one.
///
/// Loopback (same-node) messages are exempt: a machine's internal queues do
/// not traverse the network.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetFaultConfig {
    /// Probability a message is silently dropped.
    pub drop_prob: f64,
    /// Probability a message is delivered twice (independent latencies —
    /// the duplicate may arrive first, which also exercises reordering).
    pub dup_prob: f64,
    /// Probability a message's latency is inflated by `delay_spike`.
    pub delay_spike_prob: f64,
    /// The extra latency added when a delay spike fires.
    pub delay_spike: Duration,
}

impl NetFaultConfig {
    fn is_noop(&self) -> bool {
        self.drop_prob <= 0.0 && self.dup_prob <= 0.0 && self.delay_spike_prob <= 0.0
    }
}

#[derive(Debug, Default)]
struct MailboxInner {
    queue: VecDeque<Packet>,
    waker: Option<Waker>,
    closed: bool,
}

/// What a bound [`Addr`] delivers into.
#[derive(Clone)]
enum Endpoint {
    Queue(Rc<RefCell<MailboxInner>>),
    Sink(Rc<RefCell<dyn FnMut(Packet)>>),
}

pub(crate) struct NetState {
    endpoints: FastMap<Addr, Endpoint>,
    dead: FastSet<NodeId>,
    blocked: FastSet<(NodeId, NodeId)>,
    latency: LatencyConfig,
    faults: Option<NetFaultConfig>,
    stats: NetStats,
}

fn pair(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl NetState {
    pub(crate) fn new() -> NetState {
        NetState {
            endpoints: FastMap::default(),
            dead: FastSet::default(),
            blocked: FastSet::default(),
            latency: LatencyConfig::default(),
            faults: None,
            stats: NetStats::default(),
        }
    }

    pub(crate) fn is_dead(&self, n: NodeId) -> bool {
        self.dead.contains(&n)
    }
}

/// Receiving end of a bound [`Addr`].
///
/// Dropping the mailbox does *not* unbind the address (an [`Addr`] may be
/// rebound after [`SimHandle::kill_node`] + [`SimHandle::revive_node`]).
#[derive(Debug)]
pub struct Mailbox {
    addr: Addr,
    inner: Rc<RefCell<MailboxInner>>,
}

impl Mailbox {
    /// The address this mailbox is bound to.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Waits for the next packet. Resolves to `None` if the mailbox was
    /// closed (its node was killed).
    pub fn recv(&self) -> Recv<'_> {
        Recv { mailbox: self }
    }

    /// Number of queued packets.
    pub fn len(&self) -> usize {
        self.inner.borrow().queue.len()
    }

    /// True when no packets are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Future returned by [`Mailbox::recv`].
#[derive(Debug)]
pub struct Recv<'a> {
    mailbox: &'a Mailbox,
}

impl Future for Recv<'_> {
    type Output = Option<Packet>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut inner = self.mailbox.inner.borrow_mut();
        if let Some(p) = inner.queue.pop_front() {
            return Poll::Ready(Some(p));
        }
        if inner.closed {
            return Poll::Ready(None);
        }
        inner.waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

impl SimHandle {
    /// Binds `addr`, returning its mailbox.
    ///
    /// # Panics
    ///
    /// Panics if the address is already bound or its node is dead.
    pub fn bind(&self, addr: Addr) -> Mailbox {
        let mb = Rc::new(RefCell::new(MailboxInner::default()));
        self.bind_endpoint(addr, Endpoint::Queue(mb.clone()));
        Mailbox { addr, inner: mb }
    }

    /// Binds `addr` to a sink: `sink` is called with each packet at its
    /// delivery instant, in delivery order, instead of the packet waiting
    /// in a [`Mailbox`] for a task to be polled. The call happens outside
    /// the scheduler borrow, so the sink may `send`, `spawn_on`, wake
    /// tasks, or drop timers. [`SimHandle::kill_node`] drops the closure
    /// (and whatever it captured), also outside that borrow.
    ///
    /// # Panics
    ///
    /// Panics if the address is already bound or its node is dead.
    pub(crate) fn bind_sink(&self, addr: Addr, sink: impl FnMut(Packet) + 'static) {
        self.bind_endpoint(addr, Endpoint::Sink(Rc::new(RefCell::new(sink))));
    }

    fn bind_endpoint(&self, addr: Addr, endpoint: Endpoint) {
        let mut inner = self.inner.borrow_mut();
        assert!(!inner.net.is_dead(addr.node), "bind on dead node {addr}");
        let prev = inner.net.endpoints.insert(addr, endpoint);
        assert!(prev.is_none(), "address {addr} already bound");
    }

    /// Sends `msg` from `from` to `to` with simulated latency. Messages to or
    /// from dead nodes, or across a partition, are silently dropped (like a
    /// real network). While a [`NetFaultConfig`] is installed, non-loopback
    /// messages may additionally be dropped, duplicated, or delay-spiked
    /// (hence the `Clone` bound: duplication needs a second copy).
    pub fn send<M: Any + Clone>(&self, from: Addr, to: Addr, msg: M) {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let (net, rng) = (&mut inner.net, &mut inner.rng);
        net.stats.sent += 1;
        if net.is_dead(from.node)
            || net.is_dead(to.node)
            || net.blocked.contains(&pair(from.node, to.node))
        {
            net.stats.dropped += 1;
            return;
        }
        let local = from.node == to.node;
        let mut duplicate = false;
        let mut spike = Duration::ZERO;
        if let Some(f) = net.faults.as_ref().filter(|_| !local) {
            if f.drop_prob > 0.0 && rng.gen::<f64>() < f.drop_prob {
                net.stats.dropped += 1;
                return;
            }
            duplicate = f.dup_prob > 0.0 && rng.gen::<f64>() < f.dup_prob;
            if f.delay_spike_prob > 0.0 && rng.gen::<f64>() < f.delay_spike_prob {
                spike = f.delay_spike;
                net.stats.delay_spiked += 1;
            }
        }
        // The duplicate's latency is drawn, and its delivery queued, first.
        let dup_latency = duplicate.then(|| net.latency.sample(rng, local));
        let latency = net.latency.sample(rng, local) + spike;
        if let Some(dup_latency) = dup_latency {
            net.stats.duplicated += 1;
            let at = inner.now() + dup_latency;
            inner.schedule(
                at,
                TimerFire::Deliver {
                    to,
                    packet: Packet {
                        from,
                        payload: Box::new(msg.clone()),
                    },
                },
            );
        }
        let at = inner.now() + latency;
        inner.schedule(
            at,
            TimerFire::Deliver {
                to,
                packet: Packet {
                    from,
                    payload: Box::new(msg),
                },
            },
        );
    }

    pub(crate) fn deliver_now(&self, to: Addr, packet: Packet) {
        let endpoint = {
            let mut inner = self.inner.borrow_mut();
            if inner.net.is_dead(to.node) {
                inner.net.stats.dropped += 1;
                return;
            }
            match inner.net.endpoints.get(&to).cloned() {
                Some(endpoint) => {
                    inner.net.stats.delivered += 1;
                    endpoint
                }
                None => {
                    inner.net.stats.dropped += 1;
                    return;
                }
            }
        };
        match endpoint {
            Endpoint::Queue(mb) => {
                let mut mb = mb.borrow_mut();
                mb.queue.push_back(packet);
                if let Some(w) = mb.waker.take() {
                    w.wake();
                }
            }
            // Deliveries come one per `Sim::advance`, never from inside a
            // sink, so this borrow cannot be re-entered.
            Endpoint::Sink(sink) => (sink.borrow_mut())(packet),
        }
    }

    /// Kills a node: aborts all its tasks, cancels the callbacks it owns,
    /// closes and unbinds its mailboxes, drops its sinks, and drops all
    /// future traffic to/from it until [`SimHandle::revive_node`].
    pub fn kill_node(&self, node: NodeId) {
        let (tasks, calls, endpoints) = {
            let mut inner = self.inner.borrow_mut();
            inner.net.dead.insert(node);
            let mut doomed: Vec<Addr> = inner
                .net
                .endpoints
                .keys()
                .filter(|a| a.node == node)
                .copied()
                .collect();
            // The wakes below enqueue receivers: address order, not map order.
            doomed.sort_unstable();
            let endpoints: Vec<Endpoint> = doomed
                .iter()
                .filter_map(|a| inner.net.endpoints.remove(a))
                .collect();
            let (tasks, calls) = inner.remove_node(node);
            (tasks, calls, endpoints)
        };
        // Everything below runs outside the scheduler borrow: a task future,
        // a sink or a callback closure may own a `Sleep`, whose drop takes it.
        for endpoint in endpoints {
            match endpoint {
                Endpoint::Queue(mb) => {
                    let mut mb = mb.borrow_mut();
                    mb.closed = true;
                    mb.queue.clear();
                    if let Some(w) = mb.waker.take() {
                        w.wake();
                    }
                }
                Endpoint::Sink(sink) => drop(sink),
            }
        }
        drop(tasks);
        drop(calls);
    }

    /// Marks a previously killed node alive again. Its addresses must be
    /// re-bound and its tasks re-spawned by the caller.
    pub fn revive_node(&self, node: NodeId) {
        self.inner.borrow_mut().net.dead.remove(&node);
    }

    /// True if `node` is currently dead.
    pub fn is_dead(&self, node: NodeId) -> bool {
        self.inner.borrow().net.is_dead(node)
    }

    /// Partitions every node in `a` from every node in `b` (both directions).
    pub fn partition(&self, a: &[NodeId], b: &[NodeId]) {
        let mut inner = self.inner.borrow_mut();
        for &x in a {
            for &y in b {
                inner.net.blocked.insert(pair(x, y));
            }
        }
    }

    /// Heals all partitions.
    pub fn heal_partitions(&self) {
        self.inner.borrow_mut().net.blocked.clear();
    }

    /// Replaces the network latency model.
    pub fn set_latency(&self, cfg: LatencyConfig) {
        self.inner.borrow_mut().net.latency = cfg;
    }

    /// Installs probabilistic message faults (drop / duplicate / delay
    /// spike) applied to every subsequent non-loopback [`SimHandle::send`].
    /// A no-op config (such as `NetFaultConfig::default()`) uninstalls.
    pub fn set_net_faults(&self, cfg: NetFaultConfig) {
        self.inner.borrow_mut().net.faults = if cfg.is_noop() { None } else { Some(cfg) };
    }

    /// Snapshot of network counters.
    pub fn net_stats(&self) -> NetStats {
        self.inner.borrow().net.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sim;

    fn a(n: u32, p: u16) -> Addr {
        Addr::new(NodeId(n), p)
    }

    #[test]
    fn message_arrives_with_latency() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let hh = h.clone();
        let (t_sent, t_recv) = sim.block_on(async move {
            let mb = hh.bind(a(2, 0));
            let t_sent = hh.now();
            hh.send(a(1, 0), a(2, 0), 42u32);
            let pkt = mb.recv().await.unwrap();
            assert_eq!(*pkt.payload.downcast::<u32>().unwrap(), 42);
            assert_eq!(pkt.from, a(1, 0));
            (t_sent, hh.now())
        });
        let lat = t_recv - t_sent;
        assert!(lat >= Duration::from_micros(1), "latency {lat:?}");
        assert!(lat < Duration::from_millis(1), "latency {lat:?}");
    }

    #[test]
    fn local_messages_use_loopback_latency() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let hh = h.clone();
        let lat = sim.block_on(async move {
            let mb = hh.bind(a(1, 1));
            let t0 = hh.now();
            hh.send(a(1, 0), a(1, 1), ());
            mb.recv().await.unwrap();
            hh.now() - t0
        });
        assert_eq!(lat, LOCAL_LATENCY);
    }

    #[test]
    fn fifo_between_same_pair_is_not_guaranteed_but_all_arrive() {
        let mut sim = Sim::new(7);
        let h = sim.handle();
        let hh = h.clone();
        let got = sim.block_on(async move {
            let mb = hh.bind(a(2, 0));
            for i in 0..20u32 {
                hh.send(a(1, 0), a(2, 0), i);
            }
            let mut got = Vec::new();
            for _ in 0..20 {
                let pkt = mb.recv().await.unwrap();
                got.push(*pkt.payload.downcast::<u32>().unwrap());
            }
            got
        });
        let mut sorted = got.clone();
        sorted.sort();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn partition_drops_messages() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let hh = h.clone();
        sim.block_on(async move {
            let mb = hh.bind(a(2, 0));
            hh.partition(&[NodeId(1)], &[NodeId(2)]);
            hh.send(a(1, 0), a(2, 0), 1u32);
            hh.sleep(Duration::from_millis(1)).await;
            assert!(mb.is_empty());
            hh.heal_partitions();
            hh.send(a(1, 0), a(2, 0), 2u32);
            let pkt = mb.recv().await.unwrap();
            assert_eq!(*pkt.payload.downcast::<u32>().unwrap(), 2);
        });
        assert_eq!(h.net_stats().dropped, 1);
        assert_eq!(h.net_stats().delivered, 1);
    }

    #[test]
    fn killed_node_drops_traffic_and_closes_mailbox() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let hh = h.clone();
        sim.block_on(async move {
            let mb = hh.bind(a(2, 0));
            let recv_task = hh.spawn_on(NodeId(3), {
                let mb3 = hh.bind(a(3, 0));
                async move { mb3.recv().await }
            });
            hh.kill_node(NodeId(3));
            // Receiver task aborted; message to node 2 still works.
            hh.send(a(1, 0), a(2, 0), 9u32);
            mb.recv().await.unwrap();
            assert!(!recv_task.is_finished());
            // Sends to the dead node vanish.
            hh.send(a(1, 0), a(3, 0), 1u32);
            hh.sleep(Duration::from_millis(1)).await;
        });
        assert!(h.is_dead(NodeId(3)));
    }

    #[test]
    fn kill_node_wakes_foreign_receivers_in_address_order() {
        // Receivers that are not tasks of the dead node survive the kill and
        // are woken by it; the order they run in must not be the mailbox
        // map's iteration order.
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let hh = h.clone();
        let order = sim.block_on(async move {
            let woken = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
            for port in [5u16, 0, 7, 2, 6, 1, 4, 3] {
                let mb = hh.bind(a(9, port));
                let woken = woken.clone();
                hh.spawn(async move {
                    assert!(mb.recv().await.is_none(), "closed by the kill");
                    woken.borrow_mut().push(port);
                });
            }
            hh.sleep(Duration::from_millis(1)).await; // park every receiver
            hh.kill_node(NodeId(9));
            hh.sleep(Duration::from_millis(1)).await;
            woken.take()
        });
        assert_eq!(order, (0..8).collect::<Vec<u16>>());
    }

    #[test]
    fn revive_allows_rebinding() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let hh = h.clone();
        sim.block_on(async move {
            hh.bind(a(5, 0));
            hh.kill_node(NodeId(5));
            hh.revive_node(NodeId(5));
            let mb = hh.bind(a(5, 0)); // rebinding succeeds after revive
            hh.send(a(1, 0), a(5, 0), 3u32);
            let pkt = mb.recv().await.unwrap();
            assert_eq!(*pkt.payload.downcast::<u32>().unwrap(), 3);
        });
    }

    fn no_jitter() -> LatencyConfig {
        LatencyConfig {
            jitter_std: Duration::ZERO,
            ..LatencyConfig::default()
        }
    }

    #[test]
    fn sink_sees_packets_in_send_order_at_their_delivery_instants() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        h.set_latency(no_jitter());
        let seen = Rc::new(RefCell::new(Vec::new()));
        let (seen2, h2) = (seen.clone(), h.clone());
        h.bind_sink(a(2, 0), move |pkt| {
            let v = *pkt.payload.downcast::<u32>().unwrap();
            seen2.borrow_mut().push((h2.now(), pkt.from, v));
        });
        let hh = h.clone();
        sim.block_on(async move {
            for v in 0..3u32 {
                hh.send(a(1, 0), a(2, 0), v);
                hh.send(a(1, 1), a(2, 0), v + 10);
                hh.sleep(Duration::from_micros(100)).await;
            }
        });
        let at = |us| crate::time::SimTime::from_micros(us);
        assert_eq!(
            seen.take(),
            vec![
                (at(25), a(1, 0), 0),
                (at(25), a(1, 1), 10),
                (at(125), a(1, 0), 1),
                (at(125), a(1, 1), 11),
                (at(225), a(1, 0), 2),
                (at(225), a(1, 1), 12),
            ]
        );
        // Three wake-ups of the sender and its first poll: the sink cost none.
        assert_eq!(h.polls(), 4);
        assert_eq!(h.net_stats().delivered, 6);
    }

    #[test]
    fn sink_may_send_and_spawn_reentrantly() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let hh = h.clone();
        let got = sim.block_on(async move {
            let back = hh.bind(a(1, 0));
            let spawned = Rc::new(std::cell::Cell::new(0u32));
            let (h2, spawned2) = (hh.clone(), spawned.clone());
            hh.bind_sink(a(2, 0), move |pkt| {
                let v = *pkt.payload.downcast::<u32>().unwrap();
                h2.send(a(2, 0), pkt.from, v + 1);
                let spawned = spawned2.clone();
                h2.spawn_on(NodeId(2), async move { spawned.set(spawned.get() + v) });
            });
            hh.send(a(1, 0), a(2, 0), 41u32);
            let pkt = back.recv().await.unwrap();
            (*pkt.payload.downcast::<u32>().unwrap(), spawned.get())
        });
        assert_eq!(got, (42, 41));
    }

    /// Sets its flag when dropped.
    struct DropFlag(Rc<std::cell::Cell<bool>>);

    impl Drop for DropFlag {
        fn drop(&mut self) {
            self.0.set(true);
        }
    }

    /// An armed timer for a sink to own: dropping it takes the scheduler
    /// borrow, so whoever drops the sink must do so outside its own.
    fn armed_sleep(h: &SimHandle) -> Pin<Box<crate::executor::Sleep>> {
        let mut sleep = Box::pin(h.sleep(Duration::from_millis(10)));
        let mut cx = Context::from_waker(Waker::noop());
        assert!(sleep.as_mut().poll(&mut cx).is_pending());
        assert_eq!(h.timer_stats().pending, 1);
        sleep
    }

    #[test]
    fn kill_node_drops_and_unbinds_sinks_and_revive_rebinds() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let hh = h.clone();
        sim.block_on(async move {
            let sleep = armed_sleep(&hh);
            let dropped = Rc::new(std::cell::Cell::new(false));
            let flag = DropFlag(dropped.clone());
            let hits = Rc::new(std::cell::Cell::new(0u32));
            let hits2 = hits.clone();
            hh.bind_sink(a(7, 0), move |_pkt| {
                let _owned = (&sleep, &flag);
                hits2.set(hits2.get() + 1);
            });
            hh.send(a(1, 0), a(7, 0), ());
            hh.sleep(Duration::from_millis(1)).await;
            assert_eq!(hits.get(), 1);

            hh.kill_node(NodeId(7));
            assert!(dropped.get(), "the kill drops the sink");
            let stats = hh.timer_stats();
            assert_eq!((stats.cancelled, stats.pending), (1, 0));
            hh.send(a(1, 0), a(7, 0), ());
            hh.sleep(Duration::from_millis(1)).await;
            assert_eq!(hits.get(), 1, "traffic to the dead node is dropped");

            hh.revive_node(NodeId(7));
            hh.send(a(1, 0), a(7, 0), ());
            hh.sleep(Duration::from_millis(1)).await;
            assert_eq!(hh.net_stats().dropped, 2, "revived but unbound");
            let hits2 = hits.clone();
            hh.bind_sink(a(7, 0), move |_pkt| hits2.set(hits2.get() + 10));
            hh.send(a(1, 0), a(7, 0), ());
            hh.sleep(Duration::from_millis(1)).await;
            assert_eq!(hits.get(), 11);
        });
    }

    #[test]
    #[should_panic(expected = "already bound")]
    fn double_bind_panics() {
        let sim = Sim::new(1);
        let h = sim.handle();
        let _m1 = h.bind(a(1, 0));
        let _m2 = h.bind(a(1, 0));
    }

    #[test]
    fn injected_drops_lose_messages_deterministically() {
        let run = |seed| {
            let mut sim = Sim::new(seed);
            let h = sim.handle();
            let hh = h.clone();
            sim.block_on(async move {
                let mb = hh.bind(a(2, 0));
                hh.set_net_faults(NetFaultConfig {
                    drop_prob: 0.5,
                    ..NetFaultConfig::default()
                });
                for i in 0..100u32 {
                    hh.send(a(1, 0), a(2, 0), i);
                }
                hh.sleep(Duration::from_millis(5)).await;
                mb.len()
            })
        };
        let got = run(11);
        assert!(got > 20 && got < 80, "half-ish survive: {got}");
        assert_eq!(got, run(11), "same seed, same drops");
    }

    #[test]
    fn injected_duplicates_deliver_twice() {
        let mut sim = Sim::new(5);
        let h = sim.handle();
        let hh = h.clone();
        let got = sim.block_on(async move {
            let mb = hh.bind(a(2, 0));
            hh.set_net_faults(NetFaultConfig {
                dup_prob: 1.0,
                ..NetFaultConfig::default()
            });
            hh.send(a(1, 0), a(2, 0), 7u32);
            hh.sleep(Duration::from_millis(5)).await;
            mb.len()
        });
        assert_eq!(got, 2);
        assert_eq!(h.net_stats().duplicated, 1);
    }

    #[test]
    fn delay_spike_inflates_latency_and_loopback_is_exempt() {
        let mut sim = Sim::new(9);
        let h = sim.handle();
        let hh = h.clone();
        sim.block_on(async move {
            let mb = hh.bind(a(2, 0));
            let lo = hh.bind(a(1, 1));
            hh.set_net_faults(NetFaultConfig {
                delay_spike_prob: 1.0,
                delay_spike: Duration::from_millis(10),
                ..NetFaultConfig::default()
            });
            let t0 = hh.now();
            hh.send(a(1, 0), a(2, 0), 1u32);
            mb.recv().await.unwrap();
            assert!(hh.now() - t0 >= Duration::from_millis(10));
            // Same-node messages bypass injected faults entirely.
            let t1 = hh.now();
            hh.send(a(1, 0), a(1, 1), 2u32);
            lo.recv().await.unwrap();
            assert_eq!(hh.now() - t1, LOCAL_LATENCY);
            // A no-op config uninstalls: the next message is not spiked.
            hh.set_net_faults(NetFaultConfig::default());
            let t2 = hh.now();
            hh.send(a(1, 0), a(2, 0), 3u32);
            mb.recv().await.unwrap();
            assert!(hh.now() - t2 < Duration::from_millis(1));
        });
        assert_eq!(h.net_stats().delay_spiked, 1);
    }
}

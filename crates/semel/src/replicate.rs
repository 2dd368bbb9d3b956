//! Quorum replication helper: fire a request at every backup, succeed once
//! half of them acknowledge.
//!
//! This is the heart of SEMEL's *lightweight inconsistent replication*
//! (§3.2): records carry their own version stamps, so backups may receive
//! and apply them in any order, and the primary needs only `f` backup acks
//! (a majority of `2f + 1` counting itself) before acknowledging the client.
//! Figure 5's "relaxed backup updates" is exactly this call completing with
//! different backups acknowledging different records.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use simkit::net::Addr;
use simkit::rpc::RpcClient;

/// Sends `req` to every address in `targets` and calls `done` once, with
/// true as soon as `targets.len() / 2` replies satisfy `accept` — `f` of
/// the `2f` backups — or false once too many targets failed (timeout or
/// rejected reply) for a quorum to remain possible. An unreplicated shard
/// (no targets) calls `done(true)` at once.
///
/// No task waits on the round: each target is one
/// [`RpcClient::call_then`], owned by no node, over a shared tally. The
/// requests go out through [`simkit::SimHandle::run_next`], so from inside
/// a task they are one task later, where the first of one task per target
/// would have sent them. Every accepting backup — stragglers that answer
/// after the quorum included — is recorded as a
/// [`obskit::TraceEvent::ReplicaAck`] carrying the caller-supplied
/// replication sequence number.
#[allow(clippy::too_many_arguments)]
pub(crate) fn replicate_then<Req, Resp>(
    rpc: &RpcClient,
    targets: Vec<Addr>,
    req: Req,
    timeout: Duration,
    accept: impl Fn(&Resp) -> bool + 'static,
    tracer: &obskit::Tracer,
    seq: u64,
    done: impl FnOnce(bool) + 'static,
) where
    Req: Clone + 'static,
    Resp: Clone + 'static,
{
    let need = targets.len() / 2;
    if need == 0 {
        return done(true);
    }
    let tally = Rc::new(RefCell::new(Tally {
        acks: 0,
        left: targets.len(),
        need,
        done: Some(Box::new(done)),
    }));
    let accept = Rc::new(accept);
    let (rpc, tracer) = (rpc.clone(), tracer.clone());
    let handle = rpc.handle().clone();
    handle.run_next(None, move || {
        let send = |t: Addr, req: Req| {
            let (tally, accept, tracer) = (tally.clone(), accept.clone(), tracer.clone());
            let h = rpc.handle().clone();
            rpc.call_then(None, t, req, timeout, move |r: Result<Resp, _>| {
                let ok = r.is_ok_and(|resp| accept(&resp));
                if ok {
                    tracer.record(
                        h.now().as_nanos(),
                        obskit::TraceEvent::ReplicaAck {
                            node: t.node.0 as u64,
                            seq,
                        },
                    );
                }
                let decided = tally.borrow_mut().count(ok);
                if let Some((done, quorum)) = decided {
                    done(quorum);
                }
            });
        };
        let (&last, rest) = targets
            .split_last()
            .expect("a round that needs acks has targets");
        for &t in rest {
            send(t, req.clone());
        }
        send(last, req);
    });
}

/// What a decided round calls with its verdict.
type Done = Box<dyn FnOnce(bool)>;

/// One round's replies so far.
struct Tally {
    acks: usize,
    /// Targets that have not answered or failed yet.
    left: usize,
    need: usize,
    /// Taken by the reply that decides the round.
    done: Option<Done>,
}

impl Tally {
    /// Counts one target's answer; returns `done` and the verdict when
    /// this answer decides the round.
    fn count(&mut self, ok: bool) -> Option<(Done, bool)> {
        self.left -= 1;
        self.acks += usize::from(ok);
        let verdict = if self.acks >= self.need {
            true
        } else if self.acks + self.left < self.need {
            false
        } else {
            return None;
        };
        self.done.take().map(|done| (done, verdict))
    }
}

/// [`replicate_then`] as a future, for a task that awaits the round.
pub(crate) fn replicate_traced<Req, Resp>(
    rpc: &RpcClient,
    targets: Vec<Addr>,
    req: Req,
    timeout: Duration,
    accept: impl Fn(&Resp) -> bool + 'static,
    tracer: &obskit::Tracer,
    seq: u64,
) -> impl Future<Output = bool>
where
    Req: Clone + 'static,
    Resp: Clone + 'static,
{
    let (rpc, tracer) = (rpc.clone(), tracer.clone());
    async move {
        let slot = Rc::new(RefCell::new(Verdict::default()));
        let decide = Rc::clone(&slot);
        replicate_then(
            &rpc,
            targets,
            req,
            timeout,
            accept,
            &tracer,
            seq,
            move |ok| {
                let waker = {
                    let mut v = decide.borrow_mut();
                    v.quorum = Some(ok);
                    v.waker.take()
                };
                if let Some(w) = waker {
                    w.wake();
                }
            },
        );
        AwaitVerdict { slot }.await
    }
}

/// Where a round's verdict meets the task awaiting it.
#[derive(Default)]
struct Verdict {
    quorum: Option<bool>,
    waker: Option<Waker>,
}

struct AwaitVerdict {
    slot: Rc<RefCell<Verdict>>,
}

impl Future for AwaitVerdict {
    type Output = bool;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<bool> {
        let mut v = self.slot.borrow_mut();
        match v.quorum {
            Some(ok) => Poll::Ready(ok),
            None => {
                v.waker = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }
}

impl Drop for AwaitVerdict {
    fn drop(&mut self) {
        // A verdict after the awaiting task gave up wakes nobody.
        self.slot.borrow_mut().waker = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obskit::{TraceEvent, Tracer};
    use simkit::net::NodeId;
    use simkit::rpc::recv_request;
    use simkit::{Sim, SimHandle};
    use std::cell::Cell;

    #[derive(Debug, Clone)]
    struct Rec(#[allow(dead_code)] u32);
    #[derive(Debug, Clone)]
    struct Ack;

    /// A backup on `node` that acknowledges every record after `delay`.
    fn spawn_backup(h: &SimHandle, node: NodeId, delay: Duration) -> Addr {
        let mb = h.bind(Addr::new(node, 0));
        let h2 = h.clone();
        let addr = mb.addr();
        h.spawn_on(node, async move {
            while let Some((Rec(_), _f, resp)) = recv_request::<Rec>(&h2, &mb).await {
                h2.sleep(delay).await;
                resp.reply(Ack);
            }
        });
        addr
    }

    fn backups(h: &SimHandle, n: u32) -> Vec<Addr> {
        (1..=n)
            .map(|n| spawn_backup(h, NodeId(n), Duration::ZERO))
            .collect()
    }

    const T: Duration = Duration::from_millis(5);

    /// Runs one callback round from outside any task (as a deadline
    /// callback would) and returns its verdict once the simulation is idle.
    fn round(
        sim: &mut Sim,
        targets: Vec<Addr>,
        accept: fn(&Ack) -> bool,
        tracer: &Tracer,
    ) -> Option<bool> {
        let h = sim.handle();
        let rpc = RpcClient::new(&h, NodeId(0), 1);
        let verdict = Rc::new(Cell::new(None));
        let v = Rc::clone(&verdict);
        replicate_then(&rpc, targets, Rec(7), T, accept, tracer, 3, move |ok| {
            assert!(v.replace(Some(ok)).is_none(), "decided twice");
        });
        sim.run();
        verdict.get()
    }

    #[test]
    fn quorum_of_f_acks_suffices() {
        let mut sim = Sim::new(1);
        let targets = backups(&sim.handle(), 4);
        let ok = round(&mut sim, targets, |_| true, &Tracer::disabled());
        assert_eq!(ok, Some(true));
        // One task per backup loop and nothing else: the round spawned none.
        assert_eq!(sim.handle().spawns(), 4);
    }

    #[test]
    fn survives_minority_failures() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let targets = backups(&h, 4);
        h.kill_node(NodeId(1));
        h.kill_node(NodeId(2));
        let ok = round(&mut sim, targets, |_| true, &Tracer::disabled());
        assert_eq!(ok, Some(true));
    }

    #[test]
    fn fails_without_quorum() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let targets = backups(&h, 4);
        for n in 1..=3 {
            h.kill_node(NodeId(n));
        }
        let ok = round(&mut sim, targets, |_| true, &Tracer::disabled());
        assert_eq!(ok, Some(false));
        // Three guards fired; the answered call cancelled its own.
        let t = h.timer_stats();
        assert_eq!((t.armed, t.fired, t.cancelled, t.pending), (4, 3, 1, 0));
    }

    #[test]
    fn zero_need_is_immediate() {
        let sim = Sim::new(1);
        let h = sim.handle();
        let rpc = RpcClient::new(&h, NodeId(0), 1);
        let verdict = Rc::new(Cell::new(None));
        let v = Rc::clone(&verdict);
        let t = Tracer::disabled();
        replicate_then(
            &rpc,
            vec![],
            Rec(0),
            T,
            |_: &Ack| true,
            &t,
            0,
            move |ok| {
                v.set(Some(ok));
            },
        );
        // Decided inside the call, before any event.
        assert_eq!(verdict.get(), Some(true));
        assert_eq!(h.timer_stats().armed, 0);
    }

    #[test]
    fn rejecting_replies_do_not_count() {
        let mut sim = Sim::new(1);
        let targets = backups(&sim.handle(), 2);
        let ok = round(&mut sim, targets, |_| false, &Tracer::disabled());
        assert_eq!(ok, Some(false));
    }

    #[test]
    fn a_round_decided_at_quorum_still_traces_the_stragglers_ack() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let fast = spawn_backup(&h, NodeId(1), Duration::ZERO);
        let slow = spawn_backup(&h, NodeId(2), Duration::from_millis(1));
        let tracer = Tracer::bounded(64);
        let decided_at = Rc::new(Cell::new(None));
        let d = Rc::clone(&decided_at);
        let rpc = RpcClient::new(&h, NodeId(0), 1);
        let hh = h.clone();
        replicate_then(
            &rpc,
            vec![fast, slow],
            Rec(7),
            T,
            |_: &Ack| true,
            &tracer,
            9,
            move |ok| d.set(Some((ok, hh.now()))),
        );
        sim.run();
        let (ok, at) = decided_at.get().expect("decided");
        assert!(ok);
        let acks: Vec<(u64, u64, u64)> = tracer
            .events()
            .into_iter()
            .filter_map(|(t, ev)| match ev {
                TraceEvent::ReplicaAck { node, seq } => Some((t, node, seq)),
                _ => None,
            })
            .collect();
        assert_eq!(acks.len(), 2, "{acks:?}");
        assert_eq!((acks[0].1, acks[0].2), (1, 9));
        assert_eq!(acks[0].0, at.as_nanos());
        // The straggler answered after the verdict and is still traced.
        assert_eq!((acks[1].1, acks[1].2), (2, 9));
        assert!(acks[1].0 > at.as_nanos());
    }

    #[test]
    fn a_round_awaited_by_a_task_sends_from_one_task() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let targets = backups(&h, 4);
        let rpc = RpcClient::new(&h, NodeId(0), 1);
        let hh = h.clone();
        let (ok, spawned) = sim.block_on(async move {
            let spawns = hh.spawns();
            let t = Tracer::disabled();
            let ok = replicate_traced(&rpc, targets, Rec(1), T, |_: &Ack| true, &t, 0).await;
            (ok, hh.spawns() - spawns)
        });
        assert!(ok);
        // One task sent all four requests, where four used to.
        assert_eq!(spawned, 1);
    }
}

//! Quorum replication helper: fire a request at every backup, succeed once
//! half of them acknowledge.
//!
//! This is the heart of SEMEL's *lightweight inconsistent replication*
//! (§3.2): records carry their own version stamps, so backups may receive
//! and apply them in any order, and the primary needs only `f` backup acks
//! (a majority of `2f + 1` counting itself) before acknowledging the client.
//! Figure 5's "relaxed backup updates" is exactly this call completing with
//! different backups acknowledging different records.

use std::time::Duration;

use simkit::net::Addr;
use simkit::rpc::RpcClient;
use simkit::sync::mpsc;

/// Sends `req` to every address in `targets` and waits until
/// `targets.len() / 2` replies satisfy `accept` — `f` of the `2f` backups.
/// Returns true on quorum, false if too many targets fail (timeout or
/// rejected reply) for a quorum to remain possible; an unreplicated shard
/// (no targets) succeeds immediately.
///
/// Each accepting backup is recorded as a
/// [`obskit::TraceEvent::ReplicaAck`] carrying the caller-supplied
/// replication sequence number.
pub async fn replicate_traced<Req, Resp>(
    rpc: &RpcClient,
    targets: &[Addr],
    req: Req,
    timeout: Duration,
    accept: impl Fn(&Resp) -> bool + Clone + 'static,
    tracer: &obskit::Tracer,
    seq: u64,
) -> bool
where
    Req: Clone + 'static,
    Resp: Clone + 'static,
{
    let handle = rpc.handle();
    let need = targets.len() / 2;
    if need == 0 {
        return true;
    }
    let (tx, rx) = mpsc::channel();
    for &t in targets {
        let rpc = rpc.clone();
        let req = req.clone();
        let tx = tx.clone();
        let accept = accept.clone();
        let tracer = tracer.clone();
        let h = handle.clone();
        handle.spawn(async move {
            let ok = match rpc.call::<Req, Resp>(t, req, timeout).await {
                Ok(resp) => accept(&resp),
                Err(_) => false,
            };
            if ok {
                tracer.record(
                    h.now().as_nanos(),
                    obskit::TraceEvent::ReplicaAck {
                        node: t.node.0 as u64,
                        seq,
                    },
                );
            }
            let _ = tx.send(ok);
        });
    }
    drop(tx);
    let mut acks = 0;
    let mut fails = 0;
    while let Some(ok) = rx.recv().await {
        if ok {
            acks += 1;
            if acks >= need {
                return true;
            }
        } else {
            fails += 1;
            if targets.len() - fails < need {
                return false;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::net::NodeId;
    use simkit::rpc::recv_request;
    use simkit::{Sim, SimHandle};

    #[derive(Debug, Clone)]
    struct Rec(#[allow(dead_code)] u32);
    #[derive(Debug, Clone)]
    struct Ack;

    fn spawn_backup(h: &SimHandle, node: NodeId) -> Addr {
        let mb = h.bind(Addr::new(node, 0));
        let h2 = h.clone();
        let addr = mb.addr();
        h.spawn_on(node, async move {
            while let Some((Rec(_), _f, resp)) = recv_request::<Rec>(&h2, &mb).await {
                resp.reply(Ack);
            }
        });
        addr
    }

    const T: Duration = Duration::from_millis(5);

    #[test]
    fn quorum_of_f_acks_suffices() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let hh = h.clone();
        let ok = sim.block_on(async move {
            let backups: Vec<Addr> = (1..=4).map(|n| spawn_backup(&hh, NodeId(n))).collect();
            let rpc = RpcClient::new(&hh, NodeId(0), 1);
            replicate_traced::<Rec, Ack>(
                &rpc,
                &backups,
                Rec(7),
                T,
                |_| true,
                &obskit::Tracer::disabled(),
                0,
            )
            .await
        });
        assert!(ok);
    }

    #[test]
    fn survives_minority_failures() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let hh = h.clone();
        let ok = sim.block_on(async move {
            let backups: Vec<Addr> = (1..=4).map(|n| spawn_backup(&hh, NodeId(n))).collect();
            hh.kill_node(NodeId(1));
            hh.kill_node(NodeId(2));
            let rpc = RpcClient::new(&hh, NodeId(0), 1);
            replicate_traced::<Rec, Ack>(
                &rpc,
                &backups,
                Rec(7),
                T,
                |_| true,
                &obskit::Tracer::disabled(),
                0,
            )
            .await
        });
        assert!(ok);
    }

    #[test]
    fn fails_without_quorum() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let hh = h.clone();
        let ok = sim.block_on(async move {
            let backups: Vec<Addr> = (1..=4).map(|n| spawn_backup(&hh, NodeId(n))).collect();
            for n in 1..=3 {
                hh.kill_node(NodeId(n));
            }
            let rpc = RpcClient::new(&hh, NodeId(0), 1);
            replicate_traced::<Rec, Ack>(
                &rpc,
                &backups,
                Rec(7),
                T,
                |_| true,
                &obskit::Tracer::disabled(),
                0,
            )
            .await
        });
        assert!(!ok);
    }

    #[test]
    fn zero_need_is_immediate() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let hh = h.clone();
        let ok = sim.block_on(async move {
            let rpc = RpcClient::new(&hh, NodeId(0), 1);
            replicate_traced::<Rec, Ack>(
                &rpc,
                &[],
                Rec(0),
                T,
                |_| true,
                &obskit::Tracer::disabled(),
                0,
            )
            .await
        });
        assert!(ok);
    }

    #[test]
    fn rejecting_replies_do_not_count() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let hh = h.clone();
        let ok = sim.block_on(async move {
            let backups: Vec<Addr> = (1..=2).map(|n| spawn_backup(&hh, NodeId(n))).collect();
            let rpc = RpcClient::new(&hh, NodeId(0), 1);
            replicate_traced::<Rec, Ack>(
                &rpc,
                &backups,
                Rec(7),
                T,
                |_| false,
                &obskit::Tracer::disabled(),
                0,
            )
            .await
        });
        assert!(!ok);
    }
}

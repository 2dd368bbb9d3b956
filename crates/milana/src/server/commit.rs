//! The commit path: a primary's Algorithm-1 validation and vote, the
//! group-commit replication plane that carries prepare and outcome records
//! to the backups, and the apply of decided outcomes on either side.

use std::cell::RefCell;
use std::rc::Rc;

use batchkit::Batcher;
use flashsim::{Key, StoreError};
use semel::replica::ReplicaCore;
use semel::REPL_TIMEOUT;
use simkit::net::Addr;
use timesync::{ClientId, Timestamp, Version};

use super::{Fraud, ServerState, TxnServer, TxnServerConfig};
use crate::msg::{TxnId, TxnRecord, TxnRequest, TxnResponse, TxnStatus};

impl TxnServer {
    /// Builds the group-commit replication plane. A flush drains pending
    /// watermark relays, prepends them to the drained records, appends the
    /// applied floor and replicates the whole envelope to the *current*
    /// backup set (read at flush time so promotion keeps working); every
    /// drained record succeeds only when `f` backups acknowledged the
    /// whole batch. A replica that is not primary has no backups: its
    /// flush (an outcome it applied before its promotion) reaches no one.
    pub(super) fn replication_plane(
        core: &Rc<ReplicaCore>,
        state: &Rc<RefCell<ServerState>>,
        cfg: &TxnServerConfig,
    ) -> Batcher<TxnRequest, bool> {
        let state = Rc::clone(state);
        core.replication_plane(
            "milana",
            cfg.tuning.batch,
            REPL_TIMEOUT,
            move |items: Vec<TxnRequest>| {
                let mut st = state.borrow_mut();
                let floor = st.sendable_floor();
                let Some(p) = st.role.primary_mut() else {
                    return (Vec::new(), items);
                };
                let mut wire: Vec<TxnRequest> = std::mem::take(&mut p.wm_relay)
                    .into_iter()
                    .map(|(client, ts)| TxnRequest::Watermark { client, ts })
                    .collect();
                wire.extend(items);
                // Append the applied floor: every record with a commit
                // stamp below `ts` is in this envelope or an earlier one,
                // so a backup that saw the whole stream (contiguous seq)
                // owns complete chains below `ts`. Appended last so
                // same-envelope outcomes are applied by the time the floor
                // covering them is processed; an empty tracker reports MAX,
                // which is sent as ZERO (a no-op floor) to keep `seq`
                // contiguous.
                let seq = p.floor_seq;
                p.floor_seq += 1;
                wire.push(TxnRequest::AppliedFloor { seq, ts: floor });
                (p.backups.clone(), wire)
            },
            |r: &TxnResponse| matches!(r, TxnResponse::Ack),
        )
    }

    /// Merges one client watermark report, advances the backend GC floor,
    /// and (on primaries) queues the report for relay to the backups on the
    /// next replication flush — the only path a client's watermark takes to
    /// a backup.
    pub(super) fn merge_watermark(&self, client: ClientId, ts: Timestamp) {
        let primary = {
            let mut st = self.state.borrow_mut();
            if let Some(p) = st.role.primary_mut().filter(|p| !p.backups.is_empty()) {
                p.wm_relay.insert(client, ts);
            }
            st.role.is_primary()
        };
        // A backup prunes only below its *applied* watermark: a version
        // above it may still be the newest one a covered snapshot elsewhere
        // can read, and the chain completeness the floor promised must
        // survive GC.
        let cap = if primary {
            Timestamp::MAX
        } else {
            self.table.borrow().applied_watermark()
        };
        self.core.merge_watermark(client, ts, cap);
    }

    /// Clock-health fence (clockkit): judges a client-minted `stamp` against
    /// this server's own arrival clock through `observe` (the prepare or
    /// the read rule) and returns true when the request must be refused
    /// with [`TxnResponse::ClockSuspect`]. A residual outside the client's
    /// uncertainty window ε, or a client fenced as a persistent outlier, is
    /// traced either way; the [`Fraud::SkipUncertainty`] hook keeps the
    /// estimates updating but lets the request through, so the history
    /// checker's clock-bound invariant can prove it notices. Always false
    /// when tracking is off.
    pub(super) fn clock_suspect(
        &self,
        client: ClientId,
        stamp: Timestamp,
        observe: impl FnOnce(&mut clockkit::ClockHealth, ClientId, u64, u64) -> clockkit::ClockVerdict,
    ) -> bool {
        let Some(health) = &self.clock_health else {
            return false;
        };
        let arrival_ns = self.core.handle.now().as_nanos();
        let verdict = observe(&mut health.borrow_mut(), client, stamp.0, arrival_ns);
        self.stats.borrow_mut().clock_fences = health.borrow().fence_count();
        let (residual_ns, epsilon_ns, fenced) = match verdict {
            clockkit::ClockVerdict::Ok => return false,
            clockkit::ClockVerdict::Suspect {
                residual_ns,
                epsilon_ns,
            } => (residual_ns, epsilon_ns, false),
            clockkit::ClockVerdict::Fenced => (
                stamp.0 as i64 - arrival_ns as i64,
                health.borrow().epsilon_ns(client),
                true,
            ),
        };
        self.trace(obskit::TraceEvent::ClockFence {
            client: client.0 as u64,
            residual_ns,
            epsilon_ns,
            fenced,
        });
        if self.cfg.tuning.fraud.get() == Fraud::SkipUncertainty {
            return false;
        }
        self.stats.borrow_mut().clock_suspects += 1;
        true
    }

    /// Validates and durably prepares one transaction (a
    /// [`TxnRequest::Prepare`]), returning the vote. `None` means *stay
    /// silent* — a duplicate of a prepare whose replication is still in
    /// flight (at-least-once delivery): the original handler answers once
    /// the quorum settles, and answering early from the table would leak a
    /// vote for an un-durable prepare.
    pub(super) async fn do_prepare(&self, req: TxnRequest) -> Option<TxnResponse> {
        if let Some(refused) = self.state.borrow().role.refuses(&req) {
            return Some(refused);
        }
        let TxnRequest::Prepare {
            txid,
            ts_commit,
            reads,
            writes,
            participants,
            epoch,
        } = req
        else {
            unreachable!("not a prepare: {req:?}")
        };
        if self.state.borrow().role.replicating(txid) {
            return None;
        }
        // Retransmitted prepare: answer from the table.
        if let Some(status) = self.table.borrow().status(txid) {
            return Some(TxnResponse::Vote {
                ok: status != TxnStatus::Aborted,
            });
        }
        // Rebalance epoch fence (definite no-vote, nothing installed):
        // refuse prepares touching keys this primary no longer owns
        // (post-cutover, stale client map), keys that are mid-migration
        // once fenced (so the undecided moving set can drain), or
        // mid-migration keys routed under a map epoch older than ours —
        // the client's view predates the `Migrating` marker. The client
        // refetches the map and retries under the new epoch. (The carried
        // epoch may legitimately be *newer* than the shared map during a
        // failover's master/shared-map install skew; that is not fenced.)
        {
            let st = self.state.borrow();
            let map = self.map.borrow();
            let keys = || {
                reads
                    .iter()
                    .map(|(k, _)| k)
                    .chain(writes.iter().map(|(k, _)| k))
            };
            let fenced_moving = st.role.migration().is_some_and(|m| m.fenced)
                && keys().any(|k| map.key_is_moving(k));
            let stale_routed = epoch < map.epoch() && keys().any(|k| map.key_is_moving(k));
            if fenced_moving || stale_routed || self.moved_away(&map, keys()) {
                self.cfg
                    .tuning
                    .obs
                    .registry
                    .counter("stale_epoch_prepares")
                    .inc();
                return Some(TxnResponse::StaleEpoch { epoch: map.epoch() });
            }
        }
        // Floor fence (readkit): a stamp at or below the certified write
        // floor can only be a straggler — a prepare delayed in the network
        // past its client's later floor reports (the client caps reports
        // below every unacked commit, so a live commit never trips this).
        // Installing it would mint a version below an `AppliedFloor`
        // already streamed to backups, silently invalidating snapshot
        // reads they served. Definite no-vote, nothing installed.
        {
            let floor = self.state.borrow().floors.watermark();
            if floor < Timestamp::MAX && ts_commit <= floor {
                return self.vote(false);
            }
        }
        // Clock-health fence: judged before spending validation work; a
        // refusal is a definite no-vote (nothing validated or installed).
        if self.clock_suspect(txid.client, ts_commit, clockkit::ClockHealth::observe) {
            return Some(TxnResponse::ClockSuspect);
        }
        // The chaos harness can disable read validation to seed a known
        // serializability bug (lost updates slip through); write-conflict
        // checks stay on so the table's exclusivity invariants hold.
        let checked_reads: &[(Key, Version)] =
            if self.cfg.tuning.fraud.get() == Fraud::SkipValidation {
                &[]
            } else {
                &reads
            };
        let verdict = {
            let mut write_keys = self.scratch_write_keys.borrow_mut();
            write_keys.clear();
            write_keys.extend(writes.iter().map(|(k, _)| k.clone()));
            self.table
                .borrow()
                .validate(checked_reads, &write_keys, ts_commit, |k| {
                    self.core.backend.latest_version(k)
                })
        };
        if !verdict.is_success() {
            return self.vote(false);
        }
        let record = TxnRecord {
            txid,
            ts_commit,
            writes,
            participants,
            status: TxnStatus::Prepared,
        };
        self.table
            .borrow_mut()
            .prepare_validated(record.clone(), checked_reads);
        if let Some(p) = self.state.borrow_mut().role.primary_mut() {
            p.replicating.insert(txid);
        }
        // Replicate the prepare record through the group-commit batcher;
        // any f of 2f backups suffice, in any order relative to other
        // records (§3.2, Figure 5). The whole batch acks together, so the
        // record's coverage is at least the batch quorum.
        let ok = self
            .repl_batch
            .submit(TxnRequest::ReplPrepare(record.clone()))
            .await
            .unwrap_or(false);
        if !ok {
            // Could not make the prepare durable, yet a backup may hold it,
            // and a promotion of that backup would commit it. So the abort
            // is made durable before the no-vote: until then the record
            // stays prepared and in `replicating`, where retransmits get
            // silence and CTP leaves it alone. The abort travels as the
            // record itself, so it lands in each acking backup's table
            // (a bare outcome ahead of its prepare would wait outside it,
            // where a promotion's log sweep does not look).
            let aborted = TxnRequest::ReplPrepare(TxnRecord {
                status: TxnStatus::Aborted,
                ..record
            });
            while self.repl_batch.submit(aborted.clone()).await == Some(false) {}
            self.table.borrow_mut().decide(txid, false);
        }
        if let Some(p) = self.state.borrow_mut().role.primary_mut() {
            p.replicating.remove(&txid);
        }
        self.vote(ok)
    }

    /// Counts, traces and returns this primary's vote on a prepare.
    fn vote(&self, ok: bool) -> Option<TxnResponse> {
        {
            let mut stats = self.stats.borrow_mut();
            if ok {
                stats.prepares_ok += 1;
            } else {
                stats.prepares_aborted += 1;
            }
        }
        self.trace(obskit::TraceEvent::PrepareVote {
            shard: self.cfg.shard.0 as u64,
            ok,
        });
        Some(TxnResponse::Vote { ok })
    }

    /// Applies a coordinator decision on the primary: finalize the table
    /// entry, apply writes on commit, and stream the outcome to backups.
    pub(super) async fn apply_outcome(&self, txid: TxnId, commit: bool) {
        let record = {
            let mut table = self.table.borrow_mut();
            match table.status(txid) {
                Some(TxnStatus::Prepared) => table.decide(txid, commit),
                Some(_) => None, // duplicate decision
                None => {
                    // Decision for a transaction we never prepared (e.g. CTP
                    // abort): remember it as a tombstone for queries.
                    table.install(TxnRecord {
                        txid,
                        ts_commit: Timestamp::ZERO,
                        writes: Vec::new().into(),
                        participants: Vec::new().into(),
                        status: if commit {
                            TxnStatus::Committed
                        } else {
                            TxnStatus::Aborted
                        },
                    });
                    None
                }
            }
        };
        let Some(record) = record else { return };
        if commit {
            self.dual_apply(&record);
            let _ = self.apply_committed(&record).await;
            self.stats.borrow_mut().commits += 1;
        } else {
            self.stats.borrow_mut().aborts += 1;
        }
        // Outcome records ride the same group-commit envelope as prepares;
        // best-effort like the unbatched fan-out was (CTP and recovery
        // handle any backup that misses it), so nothing waits on the ack.
        self.repl_batch
            .submit_nowait(TxnRequest::ReplOutcome { txid, commit });
    }

    /// A backup's side of a [`TxnRequest::ReplPrepare`] from `from`: acked
    /// only from the primary this replica follows, and only when the record
    /// agrees with any decision it already holds. So a deposed primary's
    /// round, its abort included, never counts as durable on a replica a
    /// promotion swept, nor on one that holds the transaction decided the
    /// other way.
    pub(super) async fn repl_prepare(&self, record: TxnRecord, from: Addr) -> TxnResponse {
        let held = self.table.borrow().status(record.txid);
        let disagrees = held.is_some_and(|s| s != TxnStatus::Prepared && s != record.status);
        if disagrees || !self.state.borrow().follows(from.node) {
            return TxnResponse::NotReady;
        }
        self.backup_install_prepare(record).await;
        TxnResponse::Ack
    }

    /// Backup side of a replicated prepare record: install it and settle
    /// any outcome that raced ahead of it.
    pub(super) async fn backup_install_prepare(&self, record: TxnRecord) {
        let txid = record.txid;
        self.table.borrow_mut().install(record);
        let pending = self.state.borrow_mut().pending_outcomes.remove(&txid);
        if let Some(commit) = pending {
            self.backup_apply_outcome(txid, commit).await;
        }
    }

    /// Applies an outcome on a backup: finalize the record if present
    /// (applying committed writes to local storage), else hold the decision
    /// until the prepare record arrives.
    pub(super) async fn backup_apply_outcome(&self, txid: TxnId, commit: bool) {
        let record = {
            let mut table = self.table.borrow_mut();
            match table.status(txid) {
                Some(TxnStatus::Prepared) => table.decide(txid, commit),
                Some(_) => None,
                None => {
                    self.state
                        .borrow_mut()
                        .pending_outcomes
                        .insert(txid, commit);
                    None
                }
            }
        };
        if let (Some(record), true) = (record, commit) {
            let _ = self.apply_committed(&record).await;
        }
    }

    /// Applies a committed record's writes to local storage (idempotent:
    /// the backend rejects duplicate versions) and marks it applied. A
    /// failed write leaves it unapplied and counts in `apply_failures`; on a
    /// backup it also distrusts the floor stream, and the catch-up sweep
    /// that pulls retries the record.
    pub(super) async fn apply_committed(&self, r: &TxnRecord) -> Result<(), StoreError> {
        let applied = self
            .core
            .backend
            .apply_batch_unordered(r.stamped_writes())
            .await;
        if applied.is_ok() {
            self.table.borrow_mut().mark_applied(r.txid);
        } else {
            self.stats.borrow_mut().apply_failures += 1;
            let mut st = self.state.borrow_mut();
            if !st.role.is_primary() && st.floor.trusted.take().is_some() {
                drop(st);
                self.pull();
            }
        }
        applied
    }
}

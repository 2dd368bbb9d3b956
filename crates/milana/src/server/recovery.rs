//! Recovery (§4.5): a primary's lease and cooperative-termination tasks,
//! promotion (Algorithm 2) and a peer's side of its log sweep, the
//! backup's floor stream and its catch-up sweep, and cold restart.
//!
//! ## Durability model
//!
//! The storage [`flashsim::Backend`] and the transaction table are held
//! behind shared handles owned by the harness, modeling *persistent memory
//! that survives a node crash* (§4.1: "updates to this table are logged in
//! persistent memory as they occur"). Killing a server's node destroys only
//! its volatile state: per-key `ts_latestRead` metadata, lease state, and
//! in-flight tasks — exactly the state §4.5's recovery protocol
//! reconstructs or shields with leases. A power failure also loses the
//! table; a cold start ([`super::Start::Cold`]) mounts flash and catches up.

use std::time::Duration;

use semel::REPL_TIMEOUT;
use simkit::net::Addr;
use simkit::time::SimTime;
use timesync::{ClientId, Timestamp};

use super::role::Was;
use super::{Fraud, Role, TxnServer, CTP_AFTER, CTP_SCAN_EVERY};
use crate::msg::{TxnQueryStatus, TxnRecord, TxnRequest, TxnResponse, TxnStatus};

/// How far each grant extends the primary's read lease (§4.5). Must
/// comfortably exceed the worst-case client clock skew, since lease expiry
/// (true time) is compared against client-domain read timestamps.
const LEASE_DURATION: Duration = Duration::from_millis(100);
/// Lease renewal period (well under [`LEASE_DURATION`]).
const LEASE_RENEW_EVERY: Duration = Duration::from_millis(30);
/// Heartbeat period when a master is configured.
const HEARTBEAT_EVERY: Duration = Duration::from_millis(40);
/// How long a promotion's log sweep goes without a page before the
/// promotion gives up: well under the two seconds the master and the
/// harness wait on it, so a candidate is a backup again before the next
/// one is promoted, and two never promote at once.
const SWEEP_GIVE_UP: Duration = Duration::from_secs(1);

impl TxnServer {
    pub(super) fn spawn_primary_tasks(&self) {
        if let Some(master) = self.cfg.master {
            let me = self.clone();
            self.core.handle.spawn_on(self.cfg.addr.node, async move {
                loop {
                    let _ = semel::master::send_heartbeat(
                        &me.core.rpc,
                        master,
                        me.cfg.shard,
                        me.cfg.addr,
                        REPL_TIMEOUT,
                    )
                    .await;
                    me.core.handle.sleep(HEARTBEAT_EVERY).await;
                }
            });
        }
        let me = self.clone();
        self.core.handle.spawn_on(self.cfg.addr.node, async move {
            loop {
                me.renew_lease().await;
                me.core.handle.sleep(LEASE_RENEW_EVERY).await;
            }
        });
        let me = self.clone();
        self.core.handle.spawn_on(self.cfg.addr.node, async move {
            loop {
                me.core.handle.sleep(CTP_SCAN_EVERY).await;
                me.ctp_scan().await;
            }
        });
        if let Some(every) = self.cfg.tuning.gossip_every {
            let me = self.clone();
            self.core.handle.spawn_on(self.cfg.addr.node, async move {
                loop {
                    me.core.handle.sleep(every).await;
                    let idle =
                        matches!(&me.state.borrow().role, Role::Primary(p) if !p.backups.is_empty());
                    if idle {
                        // An empty payload; the flush appends the floor.
                        me.repl_batch.submit_nowait(TxnRequest::FloorSync);
                    }
                }
            });
        }
    }

    async fn renew_lease(&self) {
        let until = self.core.handle.now() + LEASE_DURATION;
        let backups = (self.state.borrow().role.primary())
            .expect("the lease task runs on a primary, which stays one")
            .backups
            .clone();
        let ok = self
            .core
            .replicate(
                backups,
                TxnRequest::LeaseGrant { until },
                REPL_TIMEOUT,
                |r: &TxnResponse| matches!(r, TxnResponse::LeaseGranted { .. }),
            )
            .await;
        if let Some(p) = self.state.borrow_mut().role.primary_mut().filter(|_| ok) {
            p.lease_until = p.lease_until.max(until);
        }
    }

    pub(super) fn lease_valid_for(&self, at: Timestamp) -> bool {
        let st = self.state.borrow();
        st.role
            .primary()
            .is_some_and(|p| at < Timestamp::from_sim(p.lease_until))
    }

    /// [`TxnRequest::LeaseGrant`] from `from`: granted only to the primary
    /// this replica follows (a promoting one has read the lease it waits
    /// out, so it grants none).
    pub(super) fn grant_lease(&self, until: SimTime, from: Addr) -> TxnResponse {
        let mut st = self.state.borrow_mut();
        if !st.follows(from.node) {
            TxnResponse::NotReady
        } else {
            st.known_primary = Some(Addr {
                node: from.node,
                port: self.cfg.addr.port,
            });
            st.max_granted = st.max_granted.max(until);
            TxnResponse::LeaseGranted { until }
        }
    }

    /// A peer's side of a promotion's [`TxnRequest::RequestLog`] from
    /// `from`: one page of its log in change order, with the latest lease
    /// it ever granted. From the first page on, a backup follows the
    /// promoter: it refuses the old primary's lease grants, so the lease it
    /// reports is final, and its replication, and it stops trusting the
    /// old floor stream. If it was trusting one, it pulls: the sweep waits
    /// for the new primary to open and splices into its stream. A cold
    /// replica follows the promoter too, but answers that its log is lost.
    pub(super) fn log_page(&self, req: &TxnRequest, from: Addr) -> TxnResponse {
        let &TxnRequest::RequestLog { cursor, limit } = req else {
            unreachable!("not a log page: {req:?}")
        };
        let mut st = self.state.borrow_mut();
        if let Some(refused) = st.role.refuses(req) {
            return refused;
        }
        st.known_primary = Some(Addr {
            node: from.node,
            port: self.cfg.addr.port,
        });
        let pull = st.floor.trusted.take().is_some();
        let (max_granted, lost) = (st.max_granted, matches!(st.role, Role::Cold));
        drop(st);
        if lost {
            return TxnResponse::LogLost;
        }
        if pull {
            self.pull();
        }
        let (records, next) = self.page(cursor, limit);
        TxnResponse::Log {
            records,
            next,
            max_granted,
        }
    }

    /// One change-ordered page of this replica's table, for either sweep.
    fn page(&self, cursor: Option<u64>, limit: u64) -> (Vec<TxnRecord>, Option<u64>) {
        let limit = limit.clamp(1, 4096) as usize;
        self.table.borrow().page_after(cursor, limit)
    }

    /// One page of a replica's anti-entropy sweep, a
    /// [`TxnRequest::CatchUpFetch`]. Recovery-plane traffic: never
    /// admission-gated (shedding it only prolongs the outage it is healing).
    /// Only a serving primary answers; a mid-promotion primary replies
    /// `NotReady` and the cold replica retries.
    pub(super) fn catch_up_page(&self, req: &TxnRequest) -> TxnResponse {
        if let Some(refused) = self.state.borrow().role.refuses(req) {
            return refused;
        }
        let &TxnRequest::CatchUpFetch { cursor, limit } = req else {
            unreachable!("not a catch-up page: {req:?}")
        };
        let (records, next) = self.page(cursor, limit);
        // One borrow for (seq, floor) so the pair is consistent:
        // `floor_seq` is where the splice resumes the live stream, and
        // every outcome `floor` covers was flushed in an envelope strictly
        // below it.
        let st = self.state.borrow();
        let p = st
            .role
            .primary()
            .expect("the role table lets only a primary page");
        TxnResponse::CatchUpRecords {
            records,
            next,
            floor_seq: p.floor_seq,
            floor: st.sendable_floor(),
        }
    }

    /// Merges one client write-floor promise (readkit). On a primary the
    /// tracker min *is* the applied watermark: its own chains are complete
    /// by construction (every commit for the shard lands here first), and
    /// the promise rules out any future stamp at or below the min — the
    /// `do_prepare` floor fence rejects stragglers that would break it.
    /// Backups ignore direct reports; their applied watermark only moves
    /// along the primary's in-order `AppliedFloor` stream, which is what
    /// makes it a completeness claim.
    pub(super) fn merge_floor(&self, client: ClientId, ts: Timestamp) {
        let (floor, primary) = {
            let mut st = self.state.borrow_mut();
            st.floors.update(client, ts);
            (st.floors.watermark(), st.role.is_primary())
        };
        if primary {
            self.advance_floor(Some(floor));
        }
    }

    /// Backup side of an [`TxnRequest::AppliedFloor`] record: the floor
    /// goes through the window, which advances the applied watermark once
    /// the stream from the trusted primary is contiguous (see
    /// [`super::role::SeqWindow`]). A hole the window can no longer hold is
    /// pulled.
    pub(super) fn accept_floor(&self, seq: u64, ts: Timestamp, from: Addr) {
        let mut st = self.state.borrow_mut();
        if !st.follows(from.node) {
            return;
        }
        let w = &mut st.floor;
        if self.cfg.tuning.fraud.get() == Fraud::SkipDurability
            && w.trusted == Some(from.node)
            && seq > w.next
        {
            // Fault-injection hook: pretend the hole never happened and
            // splice blindly into the live stream. The watermark then
            // advances over commits this replica never recovered: exactly
            // the bug the `lost_acked_write` checker exists to catch.
            w.rebase(from.node, seq);
        }
        let trusted = w.trusted.is_some();
        let floor = w.offer(from.node, seq, ts);
        let lost = trusted && w.trusted.is_none();
        drop(st);
        self.advance_floor(floor);
        if lost {
            self.pull();
        }
    }

    /// Advances the applied watermark to an accepted floor (a backup's from
    /// its window, a primary's from its own tracker) and makes the promise
    /// durable: the floor is stamped into every later flash page program,
    /// and a cold restart rehydrates its floor tracker from the mount
    /// scan's recovered floor (the max over intact page OOB stamps). An
    /// empty tracker's MAX advances nothing.
    fn advance_floor(&self, floor: Option<Timestamp>) {
        if let Some(ts) = floor.filter(|&ts| ts < Timestamp::MAX) {
            self.table.borrow_mut().advance_applied_watermark(ts);
            self.core.backend.note_floor(ts);
        }
    }

    /// Backup: the floor stream no longer backs the local chains (a hole
    /// outlived the window, or a store write failed). Pull what is missing
    /// with the cold-restart sweep, whose splice trusts the stream again.
    pub(super) fn pull(&self) {
        let me = self.clone();
        self.core
            .handle
            .spawn_on(self.cfg.addr.node, async move { me.catch_up().await });
    }

    /// Cooperative Termination Protocol (§4.5): resolve prepared
    /// transactions whose coordinator went silent. Runs only on the
    /// designated backup coordinator — the primary of the transaction's
    /// first participant shard.
    async fn ctp_scan(&self) {
        if !matches!(self.state.borrow().role, Role::Primary(_)) {
            return;
        }
        let threshold = Timestamp::from_sim(self.core.handle.now()).before(CTP_AFTER);
        let stuck = self.table.borrow().stuck_prepared(threshold);
        for record in stuck {
            if record.participants.first() != Some(&self.cfg.shard) {
                continue; // some other primary is the designated coordinator
            }
            if self.state.borrow().role.replicating(record.txid) {
                continue; // its prepare still decides it
            }
            let Some(decision) = self.resolve_by_query(&record).await else {
                continue; // a participant is unreachable; retry next scan
            };
            self.stats.borrow_mut().ctp_resolutions += 1;
            self.apply_outcome(record.txid, decision).await;
            // Notify the other participants.
            let map = self.map.borrow().clone();
            for &shard in record.participants.iter() {
                if shard == self.cfg.shard {
                    continue;
                }
                let primary = map.group(shard).primary;
                self.core.rpc.cast(
                    primary,
                    TxnRequest::Outcome {
                        txid: record.txid,
                        commit: decision,
                    },
                );
            }
        }
    }

    /// Queries the other participants of a prepared transaction and decides
    /// its fate per the CTP rules (§4.5): any commit → commit; any abort or
    /// missing prepare → abort; all prepared → commit (unanimous SUCCESS
    /// means the coordinator's only possible decision was commit). Returns
    /// `None` when a participant is unreachable and no definite answer was
    /// seen — the transaction stays blocked, as 2PC requires.
    async fn resolve_by_query(&self, record: &TxnRecord) -> Option<bool> {
        for &shard in record.participants.iter() {
            if shard == self.cfg.shard {
                continue;
            }
            let primary = self.map.borrow().group(shard).primary;
            let status = self
                .core
                .rpc
                .call::<TxnRequest, TxnResponse>(
                    primary,
                    TxnRequest::QueryTxn { txid: record.txid },
                    REPL_TIMEOUT,
                )
                .await;
            match status {
                Ok(TxnResponse::Status(TxnQueryStatus::Committed)) => return Some(true),
                Ok(TxnResponse::Status(TxnQueryStatus::Aborted)) => return Some(false),
                Ok(TxnResponse::Status(TxnQueryStatus::Prepared)) => {}
                Ok(TxnResponse::Status(TxnQueryStatus::Unknown)) => return Some(false),
                _ => return None, // unreachable participant: stay blocked
            }
        }
        Some(true)
    }

    /// §4.5 failover, a [`TxnRequest::Promote`] from the master or the
    /// harness: `PromoteOk` once the replica opens as primary, `NotReady`
    /// when it is promoting already or reached no majority's logs and gave
    /// up.
    pub(super) async fn recover_as_primary(&self, req: TxnRequest) -> TxnResponse {
        if let Some(refused) = self.state.borrow().role.refuses(&req) {
            return refused;
        }
        let TxnRequest::Promote { backups } = req else {
            unreachable!("not a promotion: {req:?}")
        };
        let was = self.state.borrow_mut().role.promote(backups.clone());
        // 1. Merge the transaction logs of a majority: our own table and
        //    `f` of the `2f` peers' swept whole.
        let Some(swept_granted) = self.merge_logs(&backups).await else {
            // It ignored the floor stream and stopped any catch-up sweep
            // while promoting, so a replica that is no primary again
            // sweeps like one that lost an envelope, or a cold one.
            let mut st = self.state.borrow_mut();
            st.role.give_up(was);
            st.floor.trusted = None;
            drop(st);
            match was {
                Was::Cold => self.rejoin(),
                Was::Backup => self.pull(),
                Was::Primary => {}
            }
            return TxnResponse::NotReady;
        };
        // 2. Resolve prepared transactions (Algorithm 2), except those a
        //    retried primary is still replicating: their prepare decides.
        let prepared = self
            .table
            .borrow()
            .records_where(|r| r.status == TxnStatus::Prepared);
        for record in prepared {
            if self.state.borrow().role.replicating(record.txid) {
                continue;
            }
            let commit = if *record.participants == [self.cfg.shard] {
                // Single-shard: a prepared single-participant transaction
                // would have been committed by the coordinator.
                Some(true)
            } else {
                self.resolve_by_query(&record).await
            };
            // Unresolvable transactions stay prepared (2PC blocking); a
            // later CTP scan retries them.
            if let Some(commit) = commit {
                let mut table = self.table.borrow_mut();
                table.decide(record.txid, commit);
            }
        }
        // 3. Apply committed writes our backend does not yet hold
        //    (idempotent). Records applied before the failover are skipped
        //    via the table's applied set, so this is proportional to the
        //    merge delta, not to the whole committed history.
        let committed = {
            let table = self.table.borrow();
            table.records_where(|r| r.status == TxnStatus::Committed && !table.is_applied(r.txid))
        };
        for r in &committed {
            let _ = self.apply_committed(r).await;
        }
        // 4. Rebuild volatile key metadata from the merged table.
        self.table.borrow_mut().rebuild_key_meta();
        // 5. Wait out the old primary's read lease: ts_latestRead is gone,
        //    and serving reads before the old lease expires could break
        //    serializability for already-committed read-only transactions.
        //    Neither this replica nor a swept backup grants it more.
        let max_granted = self.state.borrow().max_granted.max(swept_granted);
        let wait_until = max_granted + Duration::from_micros(1);
        if wait_until > self.core.handle.now() {
            self.core.handle.sleep_until(wait_until).await;
        }
        // 6. Open for business. Only the promotion that built the primary
        //    state starts the primary loops: a master's retry finds them
        //    running. The backups pull from the new primary: each swept
        //    backup's catch-up sweep splices it into the new floor stream.
        self.state.borrow_mut().role.open();
        if was != Was::Primary {
            self.spawn_primary_tasks();
        }
        TxnResponse::PromoteOk
    }

    /// Promotion step 1: sweeps each peer's log in pages of
    /// `catchup_batch` records, one cursor per peer, and installs every
    /// page, until `f` of the `2f` peers' sweeps are whole, or every peer
    /// answered and those that did not sweep whole lost their logs to a
    /// power failure (there is no other log to wait for). A peer that does
    /// not answer, or is a primary, resumes at its cursor on the next
    /// round. Returns the latest lease expiry any swept peer granted, or
    /// `None` once [`SWEEP_GIVE_UP`] passed without a page.
    async fn merge_logs(&self, peers: &[Addr]) -> Option<SimTime> {
        let (rpc, limit) = (&self.core.rpc, self.cfg.tuning.catchup_batch.max(1) as u64);
        // Each peer's sweep: its cursor, `None` once whole or lost.
        let mut sweeps = vec![Some(None); peers.len()];
        let (mut lost, mut max_granted) = (0, SimTime::ZERO);
        let mut answered = self.core.handle.now();
        loop {
            for (&peer, sweep) in peers.iter().zip(&mut sweeps) {
                while let Some(cursor) = *sweep {
                    let req = TxnRequest::RequestLog { cursor, limit };
                    let page = rpc.call::<TxnRequest, TxnResponse>(peer, req, REPL_TIMEOUT);
                    match page.await {
                        Ok(TxnResponse::Log {
                            records,
                            next,
                            max_granted: g,
                        }) => {
                            let mut table = self.table.borrow_mut();
                            for r in records {
                                table.install(r);
                            }
                            max_granted = max_granted.max(g);
                            *sweep = next.map(Some);
                        }
                        Ok(TxnResponse::LogLost) => {
                            lost += 1;
                            *sweep = None;
                        }
                        _ => break,
                    }
                    answered = self.core.handle.now();
                }
            }
            let done = sweeps.iter().filter(|s| s.is_none()).count();
            if done - lost >= peers.len() / 2 || done == peers.len() {
                return Some(max_granted);
            }
            if self.core.handle.now().saturating_since(answered) >= SWEEP_GIVE_UP {
                return None;
            }
            self.core.handle.sleep(REPL_TIMEOUT).await;
        }
    }

    /// Cold-restart recovery driver (spawned for [`super::Start::Cold`]):
    /// mount the flash backend, rehydrate the write-floor promises from the
    /// durable floor record, anti-entropy catch-up from the current
    /// primary, then open for business. The server answers `NotReady`
    /// throughout; in particular the fresh table's applied watermark stays
    /// at zero — the mounted durable floor is a *promise* about client
    /// clocks, never a completeness claim about local chains, so backup
    /// snapshot reads resume only once the live floor stream re-promises
    /// coverage after the catch-up splice.
    pub(super) async fn cold_start(&self) {
        let reg = &self.cfg.tuning.obs.registry;
        self.recovery_step(obskit::RecoveryPhase::MountStart, 0);
        reg.counter("mount_scans").inc();
        let report = self.core.backend.mount().await;
        reg.counter("torn_pages").add(report.torn_pages);
        self.recovery_step(obskit::RecoveryPhase::MountDone, report.torn_pages);
        // The durable floor was only stamped once every client had
        // promised no future prepare at or below it; client clocks are
        // monotone, so the promise holds across the power failure. Without
        // this, a later promotion of this replica would run its floor
        // fence against an empty tracker and could accept a straggler
        // prepare below an `AppliedFloor` other backups already served
        // reads against.
        self.state.borrow_mut().floors.rehydrate(report.floor);
        if self.cfg.tuning.fraud.get() == Fraud::SkipDurability {
            // Fault-injection hook (`--inject durability-skip`): trust the
            // mounted state as-is — no anti-entropy, the stale durable
            // floor is adopted as the applied watermark, and the replica
            // splices itself blindly into the live floor stream (see
            // `accept_floor`) as if the gap never happened. Commits acked
            // while this replica was down are silently missing; the
            // campaign checkers must catch the fraud.
            self.advance_floor(Some(report.floor));
            let primary = self
                .map
                .borrow()
                .group_opt(self.cfg.shard)
                .map(|g| g.primary);
            if let Some(p) = primary {
                let floor = self.state.borrow_mut().floor.rebase(p.node, 0);
                self.advance_floor(floor);
            }
            let serving = {
                let mut st = self.state.borrow_mut();
                st.role.serve_as_backup();
                st.role.is_serving()
            };
            if serving {
                self.recovery_step(obskit::RecoveryPhase::Serving, report.floor.as_nanos());
            }
            return;
        }
        self.catch_up().await;
        self.serve_if_cold();
    }

    /// A cold replica whose promotion gave up: it resumes its catch-up
    /// sweep, then serves.
    fn rejoin(&self) {
        let me = self.clone();
        self.core.handle.spawn_on(self.cfg.addr.node, async move {
            me.catch_up().await;
            me.serve_if_cold();
        });
    }

    /// The end of a cold replica's catch-up: it serves as a backup, unless
    /// a promotion took it meanwhile (`recover_as_primary` merged the logs
    /// majority-wide, superseding the sweep, and opens it itself).
    fn serve_if_cold(&self) {
        let floor = {
            let mut st = self.state.borrow_mut();
            if !matches!(st.role, Role::Cold) {
                return;
            }
            st.role.serve_as_backup();
            st.sendable_floor()
        };
        self.recovery_step(obskit::RecoveryPhase::Serving, floor.as_nanos());
    }

    fn recovery_step(&self, phase: obskit::RecoveryPhase, detail: u64) {
        self.trace(obskit::TraceEvent::RecoveryStep {
            node: self.cfg.addr.node.0 as u64,
            shard: self.cfg.shard.0 as u64,
            phase,
            detail,
        });
    }

    /// Anti-entropy catch-up: a cursored sweep of the current primary's
    /// transaction table, installing every record and applying committed
    /// writes this replica is missing (idempotent — the backend rejects
    /// duplicate versions). It runs after a cold restart, and whenever a
    /// backup's floor stream stops backing its chains (a lost envelope or a
    /// failed store write, see [`TxnServer::pull`]). The sweep walks the
    /// table in change order, so its final page has seen every record
    /// inserted or decided before that page was cut, whatever the live
    /// stream lost meanwhile; later changes ride envelopes at or after the
    /// final page's `floor_seq`. The stream is spliced there: the window
    /// (where floors wait while untrusted) is rebased at that seq and
    /// drains the floors that arrived since. The fetched floor itself never
    /// advances the applied watermark, because envelopes below the splice
    /// point may still be in flight with outcomes that floor claims to
    /// cover. A sweep in which a store write failed leaves the stream
    /// untrusted, so the watermark stops instead of claiming chains it
    /// cannot back.
    async fn catch_up(&self) {
        let keys_ctr = self.cfg.tuning.obs.registry.counter("catchup_keys");
        let limit = self.cfg.tuning.catchup_batch.max(1) as u64;
        let failures = self.stats.borrow().apply_failures;
        let mut cursor: Option<u64> = None;
        // The primary whose table the cursor walks: another one restarts
        // the sweep, its stamps being its own.
        let mut swept: Option<Addr> = None;
        let mut fetched = 0u64;
        loop {
            if self.state.borrow().role.is_primary() {
                return;
            }
            let primary = self
                .map
                .borrow()
                .group_opt(self.cfg.shard)
                .map(|g| g.primary)
                .filter(|p| *p != self.cfg.addr && !self.core.handle.is_dead(p.node));
            if primary.is_some() && primary != swept {
                (cursor, swept) = (None, primary);
            }
            let page = match primary {
                Some(p) => {
                    let fetch = TxnRequest::CatchUpFetch { cursor, limit };
                    let rpc = &self.core.rpc;
                    rpc.call::<TxnRequest, TxnResponse>(p, fetch, REPL_TIMEOUT * 4)
                        .await
                }
                None => Err(simkit::rpc::RpcError::Timeout),
            };
            let (
                Some(primary),
                Ok(TxnResponse::CatchUpRecords {
                    records,
                    next,
                    floor_seq,
                    floor,
                }),
            ) = (primary, page)
            else {
                // No reachable primary right now (mid-failover, or a
                // migration destination before cutover), or it is
                // mid-promotion (NotReady), deposed or unreachable: wait
                // for the map to settle, re-resolve and retry.
                self.core.handle.sleep(REPL_TIMEOUT).await;
                continue;
            };
            for r in records {
                let applied = self.catchup_install(r).await;
                fetched += applied;
                keys_ctr.add(applied);
            }
            self.recovery_step(obskit::RecoveryPhase::CatchUp, fetched);
            if next.is_some() {
                cursor = next;
                continue;
            }
            let healed = self.stats.borrow().apply_failures == failures;
            let mut st = self.state.borrow_mut();
            if st.role.is_primary() {
                return;
            }
            st.floors.rehydrate(floor);
            self.core.backend.note_floor(floor);
            // Never move a stream something trusted mid-sweep.
            if healed && st.floor.trusted.is_none() {
                let drained = st.floor.rebase(primary.node, floor_seq);
                drop(st);
                self.advance_floor(drained);
            }
            return;
        }
    }

    /// Installs one swept record, settling any outcome that raced ahead of
    /// it and applying committed writes not yet in the mounted backend.
    /// Returns the number of keys applied.
    async fn catchup_install(&self, r: TxnRecord) -> u64 {
        if r.status == TxnStatus::Prepared {
            self.backup_install_prepare(r).await;
            return 0;
        }
        let apply = r.status == TxnStatus::Committed && !self.table.borrow().is_applied(r.txid);
        self.table.borrow_mut().install(r.clone());
        if !apply {
            return 0;
        }
        let applied = self.apply_committed(&r).await;
        applied.map_or(0, |()| r.writes.len() as u64)
    }
}

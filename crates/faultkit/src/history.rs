//! Committed-history reconstruction and invariant checking.
//!
//! [`History::from_events`] rebuilds per-transaction views from an
//! [`obskit::Tracer`] event stream: each client runs one transaction at a
//! time, so its `TxnBegin` / `TxnRead` / `TxnWrite` / `Commit` / `Abort`
//! events partition cleanly into transactions. [`Checker`] then verifies:
//!
//! - **The read rule** (multi-version timestamp ordering, Algorithm 1):
//!   every read of a committed transaction — CTP-committed ones included,
//!   at their adopted stamp — returned the newest committed version of its
//!   key at or below the reader's commit stamp (`ts_begin` for a
//!   client-local read-only commit), the reader's own write left out. A
//!   miss is a lost ack when an acked reader missed a write acknowledged
//!   before it began (a failover dropped it, or, after a cold restart
//!   served, the power failure did), and a timestamp-order violation
//!   otherwise. If every read is exact and none is from the future, the
//!   commit stamps are a serial order of every committed transaction, so
//!   no conflict cycle can hide behind a clean run.
//! - **Future reads**: every committed read observed a version with
//!   `ver_ts <= ts_begin`.
//! - **Producers**: every observed version was declared by some traced
//!   transaction's `TxnWrite` (else a phantom), and that transaction's
//!   client was not told a definite abort (else an aborted write became
//!   visible).
//!
//! Every transaction declares its write set and commit stamp via
//! `TxnWrite` before the prepare fan-out, and `(ts_commit, client)` names
//! the version each write installs, so [`History`] indexes the exact
//! producer of every version, whatever its outcome, and resolves each
//! read to the transaction it read from. An unknown-outcome
//! transaction (`Abort` with class `unknown_outcome`) whose version a read
//! observed was committed by cooperative termination: it joins the key's
//! timeline at its declared stamp. An exact lookup cannot misattribute on
//! a truncated trace (the ring drops a prefix, so a traced write keeps its
//! whole transaction), but it does lack the writers of pre-truncation
//! versions: when the ring dropped events, phantoms and the read rule are
//! skipped, while the per-reader snapshot bound (`ver_ts <= ts_begin`) and
//! aborted writes made visible are still checked. Campaigns size the trace
//! ring to the fault schedule so real runs never drop.

use std::collections::BTreeMap;

use perfkit::{fast_map_with_capacity, FastMap};

use obskit::{AbortClass, RecoveryPhase, TraceEvent};

/// The preload version stamp installed by cluster bulk-loading.
const PRELOAD_TS: u64 = 1;
const PRELOAD_CLIENT: u64 = u32::MAX as u64;

/// One observed read: which version of which key a transaction saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ReadObs {
    /// Trace time the read was observed (ns).
    pub(crate) at: u64,
    /// Key id (`Key::trace_id`).
    pub(crate) key: u64,
    /// Commit timestamp of the observed version.
    pub(crate) ver_ts: u64,
    /// Writer client of the observed version.
    pub(crate) ver_client: u64,
    /// Index into [`History::txns`] of the transaction whose `TxnWrite`
    /// declared the observed version, whatever its outcome; `None` for the
    /// preload and for a version no traced transaction declared.
    pub(crate) from: Option<usize>,
}

/// How a transaction ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// Committed at `ts_commit` (acknowledged to the client at `at` ns).
    Committed {
        /// Commit timestamp (serialization point for read-write txns).
        ts_commit: u64,
        /// True for client-local read-only commits.
        local: bool,
        /// Virtual time of the commit acknowledgement.
        at: u64,
    },
    /// Aborted (any class except `unknown_outcome`).
    Aborted,
    /// The coordinator timed out mid-2PC; cooperative termination decides
    /// later. Writes may or may not be installed.
    Unknown,
}

/// One reconstructed transaction.
#[derive(Debug, Clone)]
pub(crate) struct TxnView {
    /// Coordinating client.
    pub(crate) client: u64,
    /// Begin timestamp (serialization point for read-only commits).
    pub(crate) ts_begin: u64,
    /// Virtual time of `TxnBegin`.
    pub(crate) begin_at: u64,
    /// Virtual time of the last event attributed to this transaction.
    pub(crate) end_at: u64,
    /// Reads in order.
    pub(crate) reads: Vec<ReadObs>,
    /// Keys written (declared before the prepare fan-out).
    pub(crate) writes: Vec<u64>,
    /// The commit stamp the writes were declared at (0 while none was).
    pub(crate) ts_declared: u64,
    /// Final outcome.
    pub(crate) outcome: Outcome,
}

/// One shard-ownership claim or release, as traced by the servers during
/// a live migration (`ShardOwned` / `ShardReleased` events).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OwnershipEvent {
    /// Trace time (ns).
    pub(crate) at: u64,
    /// The shard the claim is about.
    pub(crate) shard: u64,
    /// Map epoch carried by the claim.
    pub(crate) epoch: u64,
    /// Claiming / releasing node id.
    pub(crate) owner: u64,
    /// `true` for a claim, `false` for a release.
    pub(crate) owned: bool,
}

/// One snapshot read a backup replica served, as traced by the server
/// (`ReadServed` events).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ReadServedObs {
    /// Trace time (ns).
    pub(crate) at: u64,
    /// Serving replica's node id.
    pub(crate) replica: u64,
    /// The replica's applied watermark when it answered.
    pub(crate) watermark: u64,
    /// The snapshot timestamp it answered for.
    pub(crate) ts_begin: u64,
}

/// One recovery-lifecycle step a replica traced around a power failure
/// and cold restart (`RecoveryStep` events).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RecoveryObs {
    /// Trace time (ns).
    pub(crate) at: u64,
    /// Recovering replica's node id.
    pub(crate) node: u64,
    /// Shard the replica belongs to.
    pub(crate) shard: u64,
    /// The recovery phase entered.
    pub(crate) phase: RecoveryPhase,
    /// Phase-specific detail (torn pages, keys fetched, floor ns).
    pub(crate) detail: u64,
}

/// The reconstructed history plus the raw events it came from.
#[derive(Debug, Clone, Default)]
pub struct History {
    /// Transactions in trace order.
    pub(crate) txns: Vec<TxnView>,
    /// Shard-ownership claims in trace order (migrations only; empty for
    /// histories without resharding).
    pub(crate) ownership: Vec<OwnershipEvent>,
    /// Backup-served snapshot reads in trace order (read routing only;
    /// empty when every read went to a primary).
    pub(crate) reads_served: Vec<ReadServedObs>,
    /// Recovery steps in trace order (power-fail campaigns only; empty
    /// when no replica ever cold-restarted).
    pub(crate) recovery: Vec<RecoveryObs>,
    /// Ring evictions reported by the tracer; non-zero means the history
    /// is a suffix, so phantoms and the read rule are skipped.
    pub(crate) dropped: u64,
    /// The transaction whose `TxnWrite` declared each version, whatever
    /// its outcome.
    pub(crate) producers: FastMap<VersionId, usize>,
    events: Vec<(u64, TraceEvent)>,
}

/// Identity of a version: `(key, ts_commit, writer client)`; in MILANA
/// `(ts_commit, client)` names the transaction that installs it.
type VersionId = (u64, u64, u64);

impl History {
    /// Rebuilds transactions from a tracer event dump (see
    /// [`obskit::Tracer::events`]) and its drop count.
    pub fn from_events(events: Vec<(u64, TraceEvent)>, dropped: u64) -> History {
        // Per-client open transaction; clients run one txn at a time.
        let mut open: FastMap<u64, TxnView> = FastMap::default();
        let mut txns = Vec::new();
        let mut ownership = Vec::new();
        let mut reads_served = Vec::new();
        let mut recovery = Vec::new();
        let close = |open: &mut FastMap<u64, TxnView>,
                     txns: &mut Vec<TxnView>,
                     client: u64,
                     outcome: Outcome,
                     at: u64| {
            if let Some(mut t) = open.remove(&client) {
                t.outcome = outcome;
                t.end_at = at;
                txns.push(t);
            }
        };
        for &(at, ref ev) in &events {
            match *ev {
                TraceEvent::TxnBegin { client, ts_begin } => {
                    // A begin with a still-open txn means the previous one
                    // never finished (interrupted mid-flight). If it had
                    // declared writes it reached 2PC: outcome unknown.
                    if let Some(prev) = open.remove(&client) {
                        if !prev.writes.is_empty() {
                            let mut prev = prev;
                            prev.outcome = Outcome::Unknown;
                            txns.push(prev);
                        }
                    }
                    open.insert(
                        client,
                        TxnView {
                            client,
                            ts_begin,
                            begin_at: at,
                            end_at: at,
                            reads: Vec::new(),
                            writes: Vec::new(),
                            ts_declared: 0,
                            outcome: Outcome::Aborted,
                        },
                    );
                }
                TraceEvent::TxnRead {
                    client,
                    key,
                    ver_ts,
                    ver_client,
                    ..
                } => {
                    if let Some(t) = open.get_mut(&client) {
                        t.end_at = at;
                        t.reads.push(ReadObs {
                            at,
                            key,
                            ver_ts,
                            ver_client,
                            from: None,
                        });
                    }
                }
                TraceEvent::TxnWrite {
                    client,
                    key,
                    ts_commit,
                } => {
                    if let Some(t) = open.get_mut(&client) {
                        t.end_at = at;
                        t.writes.push(key);
                        t.ts_declared = ts_commit;
                    }
                }
                TraceEvent::Commit {
                    client,
                    ts_commit,
                    local,
                } => close(
                    &mut open,
                    &mut txns,
                    client,
                    Outcome::Committed {
                        ts_commit,
                        local,
                        at,
                    },
                    at,
                ),
                TraceEvent::Abort { client, reason } => {
                    let outcome = if reason == AbortClass::UnknownOutcome {
                        Outcome::Unknown
                    } else {
                        Outcome::Aborted
                    };
                    close(&mut open, &mut txns, client, outcome, at);
                }
                TraceEvent::ShardOwned {
                    shard,
                    epoch,
                    owner,
                } => ownership.push(OwnershipEvent {
                    at,
                    shard,
                    epoch,
                    owner,
                    owned: true,
                }),
                TraceEvent::ShardReleased {
                    shard,
                    epoch,
                    owner,
                } => ownership.push(OwnershipEvent {
                    at,
                    shard,
                    epoch,
                    owner,
                    owned: false,
                }),
                TraceEvent::ReadServed {
                    replica,
                    watermark,
                    ts_begin,
                } => reads_served.push(ReadServedObs {
                    at,
                    replica,
                    watermark,
                    ts_begin,
                }),
                TraceEvent::RecoveryStep {
                    node,
                    shard,
                    phase,
                    detail,
                } => recovery.push(RecoveryObs {
                    at,
                    node,
                    shard,
                    phase,
                    detail,
                }),
                _ => {}
            }
        }
        // Transactions still open at the end of the trace: only those that
        // reached the prepare fan-out matter (their writes may land).
        for (_, mut t) in open.drain() {
            if !t.writes.is_empty() {
                t.outcome = Outcome::Unknown;
                txns.push(t);
            }
        }
        txns.sort_by_key(|t| (t.begin_at, t.client));
        let mut producers = fast_map_with_capacity(txns.iter().map(|t| t.writes.len()).sum());
        for (i, t) in txns.iter().enumerate() {
            for &key in &t.writes {
                producers.insert((key, t.ts_declared, t.client), i);
            }
        }
        for r in txns.iter_mut().flat_map(|t| &mut t.reads) {
            r.from = producers.get(&(r.key, r.ver_ts, r.ver_client)).copied();
        }
        History {
            txns,
            ownership,
            reads_served,
            recovery,
            dropped,
            producers,
            events,
        }
    }

    /// Number of committed transactions.
    pub(crate) fn committed(&self) -> usize {
        self.txns
            .iter()
            .filter(|t| matches!(t.outcome, Outcome::Committed { .. }))
            .count()
    }

    /// Number of aborted transactions.
    pub(crate) fn aborted(&self) -> usize {
        self.txns
            .iter()
            .filter(|t| t.outcome == Outcome::Aborted)
            .count()
    }

    /// Number of unknown-outcome transactions.
    pub(crate) fn unknown(&self) -> usize {
        self.txns
            .iter()
            .filter(|t| t.outcome == Outcome::Unknown)
            .count()
    }

    /// The minimal trace slice for a violation: every event attributable
    /// to the involved transactions' clients within their combined time
    /// window, as JSON lines. This is what a campaign prints next to the
    /// offending seed.
    pub(crate) fn trace_slice(&self, txn_indices: &[usize]) -> String {
        let mut clients: Vec<u64> = Vec::new();
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for &i in txn_indices {
            let t = &self.txns[i];
            clients.push(t.client);
            lo = lo.min(t.begin_at);
            hi = hi.max(t.end_at);
        }
        let mut out = String::new();
        for &(at, ref ev) in &self.events {
            if at < lo || at > hi {
                continue;
            }
            let client = match *ev {
                TraceEvent::TxnBegin { client, .. }
                | TraceEvent::TxnRead { client, .. }
                | TraceEvent::TxnWrite { client, .. }
                | TraceEvent::ValidateLocal { client, .. }
                | TraceEvent::ValidateRemote { client, .. }
                | TraceEvent::Commit { client, .. }
                | TraceEvent::Abort { client, .. } => Some(client),
                _ => None,
            };
            if client.is_some_and(|c| clients.contains(&c)) {
                ev.to_json(at).write(&mut out);
                out.push('\n');
            }
        }
        out
    }
}

/// What kind of invariant a violation breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationClass {
    /// A committed read missed the newest committed version of its key at
    /// or below the reader's commit stamp (`ts_begin` for a local
    /// read-only commit), and no lost ack explains the miss. Multi-version
    /// timestamp ordering promises every read that version; without it
    /// the commit stamps are not a serial order of the history.
    TimestampOrder,
    /// A read observed a version with `ver_ts > ts_begin`.
    FutureRead,
    /// A read missed a newer committed version that was acknowledged to
    /// its writer before the reader began — an acked commit was lost. The
    /// campaigns' chain audit reports the same class for a backup that
    /// lacked an acked version below its applied watermark.
    ReplicationLostAck,
    /// A read observed a version no traced transaction declared.
    PhantomVersion,
    /// A read observed a version whose producer's client was told a
    /// definite abort: a write its transaction never committed, as far as
    /// its client knows, became visible.
    AbortedWriteVisible,
    /// Two nodes claimed ownership of the same shard at overlapping times
    /// — the epoch fence failed during a live migration.
    DualOwnership,
    /// A backup replica served a snapshot read at a timestamp its applied
    /// watermark did not cover — it should have answered `TooStale`.
    StaleBackupRead,
    /// A read missed an acknowledged commit *after* some replica finished
    /// a cold restart — the durability invariant: every commit acked
    /// under f-coverage must survive every subsequent power failure and
    /// cold restart of up to f replicas. The lost-ack shape is identical
    /// to [`ViolationClass::ReplicationLostAck`]; the cold restart
    /// preceding the reader pins the blame on the recovery path (a mount
    /// scan that resurrected stale state, or a catch-up that was skipped).
    /// The campaigns' chain audit reports it, reader or not, for a
    /// cold-restarted backup that lacked an acked version below its
    /// applied watermark.
    LostAckedWrite,
    /// Two remotely-committed transactions have commit timestamps out of
    /// order with real time by more than the server's promised clock
    /// uncertainty: T2 began after T1's commit was acknowledged, yet
    /// `ts_commit(T1) > ts_commit(T2) + 2ε`. The clock-health fence
    /// promises that no prepare more than ε ahead of server arrival time
    /// commits, so a larger inversion means a mis-timestamped transaction
    /// slipped past validation.
    ClockBoundBreach,
}

impl ViolationClass {
    /// Stable machine-readable name.
    pub fn as_str(self) -> &'static str {
        match self {
            ViolationClass::TimestampOrder => "ts_order_violation",
            ViolationClass::FutureRead => "future_read",
            ViolationClass::ReplicationLostAck => "replication_lost_ack",
            ViolationClass::PhantomVersion => "phantom_version",
            ViolationClass::AbortedWriteVisible => "aborted_write_visible",
            ViolationClass::DualOwnership => "dual_ownership",
            ViolationClass::StaleBackupRead => "stale_backup_read",
            ViolationClass::LostAckedWrite => "lost_acked_write",
            ViolationClass::ClockBoundBreach => "clock_bound_breach",
        }
    }
}

/// One detected invariant violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Violation class.
    pub class: ViolationClass,
    /// Human-readable account of what went wrong.
    pub description: String,
    /// Indices into [`History::txns`] of the transactions involved.
    pub(crate) txns: Vec<usize>,
}

/// Checks a [`History`] against the read rule and the replication invariants.
#[derive(Debug)]
pub struct Checker<'a> {
    history: &'a History,
    epsilon_ns: Option<u64>,
}

impl<'a> Checker<'a> {
    /// A checker over `history`.
    pub fn new(history: &'a History) -> Checker<'a> {
        Checker {
            history,
            epsilon_ns: None,
        }
    }

    /// Enables the clock-bound check: the cluster promised that no commit
    /// timestamp runs more than `epsilon_ns` ahead of server time (see
    /// `clockkit::ClockHealthConfig::promised_epsilon_ns`). Two
    /// real-time-ordered commits may then disagree with timestamp order by
    /// at most 2ε; anything larger is a [`ViolationClass::ClockBoundBreach`].
    pub(crate) fn with_epsilon(mut self, epsilon_ns: u64) -> Checker<'a> {
        self.epsilon_ns = Some(epsilon_ns);
        self
    }

    /// Runs every check and returns the violations found (empty = clean).
    pub fn check(&self) -> Vec<Violation> {
        let h = self.history;
        let mut violations = Vec::new();

        // -- Resolve the committed set ---------------------------------
        // Committed txns keep their traced ts_commit. An unknown-outcome
        // txn whose version some read observed was CTP-committed at its
        // declared stamp.
        let mut ts_of: Vec<Option<u64>> = h
            .txns
            .iter()
            .map(|t| match t.outcome {
                Outcome::Committed { ts_commit, .. } => Some(ts_commit),
                _ => None,
            })
            .collect();
        for r in h.txns.iter().flat_map(|t| &t.reads) {
            if let Some(p) = r.from.filter(|&p| h.txns[p].outcome == Outcome::Unknown) {
                ts_of[p] = Some(r.ver_ts);
            }
        }

        // -- Per-key writer timelines ----------------------------------
        // writers[key] = [(ts_commit, writer client, txn idx)] sorted.
        let mut writers: FastMap<u64, Vec<(u64, u64, usize)>> = FastMap::default();
        for (i, ts) in ts_of.iter().enumerate() {
            let Some(ts) = *ts else { continue };
            for &k in &h.txns[i].writes {
                writers
                    .entry(k)
                    .or_default()
                    .push((ts, h.txns[i].client, i));
            }
        }
        for list in writers.values_mut() {
            list.sort_unstable();
        }

        // -- The read rule ---------------------------------------------
        // Each committed read returned a version some traced transaction
        // wrote, at or below its `ts_begin`, and that version is the newest
        // committed one of its key at or below the reader's commit stamp
        // (`ts_begin` for a local read-only commit), its own write left out.
        // CTP-committed readers are held to it at their adopted stamp; only
        // acked readers are owed the writes acked before they began.
        for (ri, reader) in h.txns.iter().enumerate() {
            let Some(ts_commit) = ts_of[ri] else {
                continue;
            };
            let acked = matches!(reader.outcome, Outcome::Committed { .. });
            for r in &reader.reads {
                let read = (r.ver_ts, r.ver_client);
                let list = writers.get(&r.key).map_or(&[][..], Vec::as_slice);
                // Every unknown-outcome producer a read observed was adopted
                // above, so a producer left without a stamp is one whose
                // client was told it aborted. A version no committed (or
                // CTP-committed) write installed is reported once, and not
                // judged again by the rule.
                let committed = match r.from {
                    Some(p) => ts_of[p].is_some(),
                    None => read == (PRELOAD_TS, PRELOAD_CLIENT),
                };
                if let Some(p) = r.from.filter(|_| !committed) {
                    violations.push(Violation {
                        class: ViolationClass::AbortedWriteVisible,
                        description: format!(
                            "txn #{ri} (client {}) read key {} at version (ts {}, client {}) \
                             which txn #{p} wrote, whose client was told it aborted",
                            reader.client, r.key, r.ver_ts, r.ver_client
                        ),
                        txns: vec![ri, p],
                    });
                } else if !committed && h.dropped == 0 {
                    violations.push(Violation {
                        class: ViolationClass::PhantomVersion,
                        description: format!(
                            "txn #{ri} (client {}) read key {} at version \
                             (ts {}, client {}) which no traced transaction wrote",
                            reader.client, r.key, r.ver_ts, r.ver_client
                        ),
                        txns: vec![ri],
                    });
                }
                if r.ver_ts > reader.ts_begin {
                    violations.push(Violation {
                        class: ViolationClass::FutureRead,
                        description: format!(
                            "txn #{ri} (client {}) began at ts {} but read key {} \
                             at future version ts {}",
                            reader.client, reader.ts_begin, r.key, r.ver_ts
                        ),
                        txns: vec![ri],
                    });
                    continue;
                }
                if h.dropped > 0 || !committed {
                    continue;
                }
                let below = &list[..list.partition_point(|&(ts, _, _)| ts <= ts_commit)];
                let Some(&(wts, wclient, wi)) = below.iter().rev().find(|&&(_, _, wi)| wi != ri)
                else {
                    continue;
                };
                if (wts, wclient) == read {
                    continue;
                }
                // A missed write acknowledged before an acked reader began is
                // a lost ack: the newest such version at ts_begin is newer
                // than what the reader observed.
                let newest_acked = list
                    .iter()
                    .take_while(|&&(ts, _, _)| ts <= reader.ts_begin)
                    .filter(|&&(_, _, wi)| match h.txns[wi].outcome {
                        Outcome::Committed { at, .. } => acked && at < reader.begin_at,
                        // CTP-committed writes were never acked to their
                        // client; the reader owes them nothing.
                        _ => false,
                    })
                    .last();
                let Some(&(ats, aclient, ai)) = newest_acked.filter(|&&(ts, _, _)| ts > r.ver_ts)
                else {
                    violations.push(Violation {
                        class: ViolationClass::TimestampOrder,
                        description: format!(
                            "txn #{ri} (client {}) committed at ts {ts_commit} but read \
                             key {} at version (ts {}, client {}); the newest committed \
                             version at or below its stamp is txn #{wi}'s \
                             (ts {wts}, client {wclient})",
                            reader.client, r.key, r.ver_ts, r.ver_client
                        ),
                        txns: vec![ri, wi],
                    });
                    continue;
                };
                // A cold restart that finished (Serving) before the read was
                // observed pins the lost ack on the recovery path: the acked
                // write did not survive the power failure. Without one, it
                // is a plain replication lost-ack (e.g. a failover dropped
                // the commit).
                let cold_restarted = h
                    .recovery
                    .iter()
                    .any(|rs| rs.phase == RecoveryPhase::Serving && rs.at <= r.at);
                let class = if cold_restarted {
                    ViolationClass::LostAckedWrite
                } else {
                    ViolationClass::ReplicationLostAck
                };
                violations.push(Violation {
                    class,
                    description: format!(
                        "txn #{ri} (client {}) read key {} at version ts {} \
                         although txn #{ai} (client {aclient}) had its write \
                         at ts {ats} acknowledged before the reader began{}",
                        reader.client,
                        r.key,
                        r.ver_ts,
                        if cold_restarted {
                            " (a cold restart served before the read: the \
                             acked write did not survive the power failure)"
                        } else {
                            ""
                        }
                    ),
                    txns: vec![ri, ai],
                });
            }
        }

        // -- Clock-bound: commit order vs real time --------------------
        // With a promised uncertainty ε, a transaction T2 that began after
        // T1's commit was acknowledged may carry a smaller commit timestamp
        // only within 2ε (each clock at most ε from server time, promised
        // by the clock-health fence). Uses only each transaction's own
        // begin/ack instants, so it survives truncation. Client-local
        // read-only commits never cross the fence and are excluded.
        if let Some(eps) = self.epsilon_ns {
            // Remotely-committed txns by ack time, and all committed
            // non-local txns by begin time; one merged sweep tracks the
            // largest already-acked commit timestamp.
            let mut acked: Vec<(u64, u64, usize)> = h
                .txns
                .iter()
                .enumerate()
                .filter_map(|(i, t)| match t.outcome {
                    Outcome::Committed {
                        ts_commit,
                        local: false,
                        at,
                    } => Some((at, ts_commit, i)),
                    _ => None,
                })
                .collect();
            acked.sort_unstable();
            let mut next = 0usize;
            let mut max_acked: Option<(u64, usize)> = None;
            // h.txns is sorted by begin_at already.
            for (ri, t) in h.txns.iter().enumerate() {
                let Outcome::Committed {
                    ts_commit,
                    local: false,
                    ..
                } = t.outcome
                else {
                    continue;
                };
                while next < acked.len() && acked[next].0 < t.begin_at {
                    let (_, ts, wi) = acked[next];
                    if max_acked.is_none_or(|(m, _)| ts > m) {
                        max_acked = Some((ts, wi));
                    }
                    next += 1;
                }
                if let Some((prev_ts, wi)) = max_acked {
                    if wi != ri && prev_ts > ts_commit.saturating_add(2 * eps) {
                        violations.push(Violation {
                            class: ViolationClass::ClockBoundBreach,
                            description: format!(
                                "txn #{ri} (client {}) began after txn #{wi} \
                                 (client {}) was acknowledged, yet committed at \
                                 ts {} — more than 2ε={} behind txn #{wi}'s ts {}",
                                t.client,
                                h.txns[wi].client,
                                ts_commit,
                                2 * eps,
                                prev_ts
                            ),
                            txns: vec![ri, wi],
                        });
                    }
                }
            }
        }

        // -- Watermark-covered backup reads ----------------------------
        // A backup may serve a snapshot read only when its applied
        // watermark covers the snapshot. Each ReadServed event carries
        // both numbers, so the check is self-contained per event and —
        // like the per-reader snapshot bound — survives truncation.
        for (i, rs) in h.reads_served.iter().enumerate() {
            if rs.watermark < rs.ts_begin {
                violations.push(Violation {
                    class: ViolationClass::StaleBackupRead,
                    description: format!(
                        "replica {} served a snapshot read at ts {} with applied \
                         watermark {} (event #{i}) — should have answered TooStale",
                        rs.replica, rs.ts_begin, rs.watermark
                    ),
                    txns: Vec::new(),
                });
            }
        }

        // -- Single owner per shard ------------------------------------
        // Migration servers assert ShardOwned / ShardReleased around the
        // fence and cutover. Per shard, replaying claims in time order
        // must never find a second node claiming while another still
        // holds: that would mean the epoch fence let two primaries accept
        // prepares for the same keys. Unsound on a truncated history (a
        // dropped release fabricates overlap), so gated like provenance.
        if h.dropped == 0 {
            let mut by_shard: BTreeMap<u64, Vec<&OwnershipEvent>> = BTreeMap::new();
            for ev in &h.ownership {
                by_shard.entry(ev.shard).or_default().push(ev);
            }
            for (shard, mut evs) in by_shard {
                // A release at the same instant as a claim is ordered
                // first: cutover hands off release-then-own.
                evs.sort_by_key(|e| (e.at, e.owned));
                let mut holder: Option<(u64, u64)> = None;
                for ev in evs {
                    if ev.owned {
                        if let Some((owner, epoch)) = holder {
                            if owner != ev.owner {
                                violations.push(Violation {
                                    class: ViolationClass::DualOwnership,
                                    description: format!(
                                        "shard {shard}: node {} claimed ownership at epoch {} \
                                         while node {owner} still held it from epoch {epoch}",
                                        ev.owner, ev.epoch
                                    ),
                                    txns: Vec::new(),
                                });
                            }
                        }
                        holder = Some((ev.owner, ev.epoch));
                    } else if holder.map(|(o, _)| o) == Some(ev.owner) {
                        holder = None;
                    }
                }
            }
        }

        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn begin(client: u64, ts: u64) -> TraceEvent {
        TraceEvent::TxnBegin {
            client,
            ts_begin: ts,
        }
    }

    fn read(client: u64, key: u64, ver_ts: u64, ver_client: u64) -> TraceEvent {
        TraceEvent::TxnRead {
            client,
            key,
            prepared: false,
            ver_ts,
            ver_client,
        }
    }

    fn write(client: u64, key: u64, ts_commit: u64) -> TraceEvent {
        TraceEvent::TxnWrite {
            client,
            key,
            ts_commit,
        }
    }

    fn abort(client: u64, reason: AbortClass) -> TraceEvent {
        TraceEvent::Abort { client, reason }
    }

    fn commit(client: u64, ts: u64) -> TraceEvent {
        TraceEvent::Commit {
            client,
            ts_commit: ts,
            local: false,
        }
    }

    fn check(events: Vec<(u64, TraceEvent)>) -> Vec<Violation> {
        let h = History::from_events(events, 0);
        Checker::new(&h).check()
    }

    fn owned(shard: u64, epoch: u64, owner: u64) -> TraceEvent {
        TraceEvent::ShardOwned {
            shard,
            epoch,
            owner,
        }
    }

    fn released(shard: u64, epoch: u64, owner: u64) -> TraceEvent {
        TraceEvent::ShardReleased {
            shard,
            epoch,
            owner,
        }
    }

    fn served(replica: u64, watermark: u64, ts_begin: u64) -> TraceEvent {
        TraceEvent::ReadServed {
            replica,
            watermark,
            ts_begin,
        }
    }

    #[test]
    fn covered_backup_read_passes() {
        let violations = check(vec![(1, served(3, 50, 40))]);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn stale_backup_read_is_detected_even_on_truncated_traces() {
        let events = vec![(1, served(3, 30, 40))];
        let complete = History::from_events(events.clone(), 0);
        assert_eq!(
            Checker::new(&complete)
                .check()
                .iter()
                .filter(|v| v.class == ViolationClass::StaleBackupRead)
                .count(),
            1
        );
        let truncated = History::from_events(events, 9);
        assert!(Checker::new(&truncated)
            .check()
            .iter()
            .any(|v| v.class == ViolationClass::StaleBackupRead));
    }

    #[test]
    fn clean_ownership_handoff_passes() {
        // Source owns shard 2, releases at the fence, dest claims after
        // cutover — and the release/claim may share an instant.
        let violations = check(vec![
            (1, owned(2, 1, 10)),
            (5, released(2, 1, 10)),
            (5, owned(2, 2, 30)),
        ]);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn overlapping_ownership_is_detected() {
        // Dest claims before the source released: fence failure.
        let violations = check(vec![
            (1, owned(2, 1, 10)),
            (4, owned(2, 2, 30)),
            (6, released(2, 1, 10)),
        ]);
        assert_eq!(
            violations
                .iter()
                .filter(|v| v.class == ViolationClass::DualOwnership)
                .count(),
            1,
            "{violations:?}"
        );
    }

    #[test]
    fn reclaim_by_same_owner_is_not_dual() {
        // Retransmitted MigrationStart re-claims idempotently.
        let violations = check(vec![(1, owned(2, 1, 10)), (3, owned(2, 1, 10))]);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn clean_serial_history_passes() {
        // c1 writes k1@20; c2 reads it at ts_begin 30 and writes k1@40.
        let violations = check(vec![
            (1, begin(1, 10)),
            (2, read(1, 1, PRELOAD_TS, PRELOAD_CLIENT)),
            (3, write(1, 1, 20)),
            (4, commit(1, 20)),
            (10, begin(2, 30)),
            (11, read(2, 1, 20, 1)),
            (12, write(2, 1, 40)),
            (13, commit(2, 40)),
        ]);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn lost_update_cycle_is_detected() {
        // Both txns read the preload version of k1, then both write it:
        // t2 commits at ts 21 yet read the preload, not t1's k1@20. The
        // classic lost update (a 2-cycle in the conflict graph) is a read
        // that missed the newest version below its stamp.
        let violations = check(vec![
            (1, begin(1, 10)),
            (2, read(1, 1, PRELOAD_TS, PRELOAD_CLIENT)),
            (3, begin(2, 11)),
            (4, read(2, 1, PRELOAD_TS, PRELOAD_CLIENT)),
            (5, write(1, 1, 20)),
            (6, commit(1, 20)),
            (7, write(2, 1, 21)),
            (8, commit(2, 21)),
        ]);
        assert!(
            violations
                .iter()
                .any(|v| v.class == ViolationClass::TimestampOrder),
            "{violations:?}"
        );
    }

    #[test]
    fn a_snapshot_that_changes_after_it_was_served_is_flagged() {
        // c1 commits locally at ts 100 having read the preload of k1; c2
        // then commits k1 at ts 90, acked after c1 began. The history is
        // acyclic and no ack was lost, but c1's snapshot changed after it
        // was served: k1@90 is the newest version at or below its stamp.
        let violations = check(vec![
            (1, begin(2, 80)),
            (2, begin(1, 100)),
            (3, read(1, 1, PRELOAD_TS, PRELOAD_CLIENT)),
            (
                4,
                TraceEvent::Commit {
                    client: 1,
                    ts_commit: 100,
                    local: true,
                },
            ),
            (5, write(2, 1, 90)),
            (6, commit(2, 90)),
        ]);
        let classes: Vec<_> = violations.iter().map(|v| v.class).collect();
        assert_eq!(classes, [ViolationClass::TimestampOrder], "{violations:?}");
    }

    #[test]
    fn a_ctp_committed_reader_that_missed_a_version_is_flagged() {
        // A lost update across a coordinator timeout: c1 begins at 10 and
        // reads the preload of k1, c2 reads it too and commits k1@15, then
        // c1 writes k1 and times out. c3 later reads k1@(20, client 1), so
        // cooperative termination committed c1 at ts 20 — yet c1 missed
        // c2's k1@15, the newest version at or below its stamp.
        let violations = check(vec![
            (1, begin(1, 10)),
            (2, read(1, 1, PRELOAD_TS, PRELOAD_CLIENT)),
            (3, begin(2, 12)),
            (4, read(2, 1, PRELOAD_TS, PRELOAD_CLIENT)),
            (5, write(2, 1, 15)),
            (6, commit(2, 15)),
            (7, write(1, 1, 20)),
            (8, abort(1, AbortClass::UnknownOutcome)),
            (20, begin(3, 30)),
            (21, read(3, 1, 20, 1)),
            (22, commit(3, 30)),
        ]);
        let classes: Vec<_> = violations.iter().map(|v| v.class).collect();
        assert_eq!(classes, [ViolationClass::TimestampOrder], "{violations:?}");
    }

    #[test]
    fn future_read_is_detected() {
        let violations = check(vec![
            (1, begin(1, 10)),
            (2, write(1, 1, 50)),
            (3, commit(1, 50)),
            (4, begin(2, 30)),
            (5, read(2, 1, 50, 1)), // 50 > ts_begin 30
            (6, commit(2, 31)),
        ]);
        assert!(
            violations
                .iter()
                .any(|v| v.class == ViolationClass::FutureRead),
            "{violations:?}"
        );
    }

    #[test]
    fn lost_acked_commit_is_detected() {
        // c1's write of k1@20 is acked at virtual time 4; c2 begins at
        // time 10 with ts_begin 30 yet reads the preload version.
        let violations = check(vec![
            (1, begin(1, 10)),
            (2, write(1, 1, 20)),
            (4, commit(1, 20)),
            (10, begin(2, 30)),
            (11, read(2, 1, PRELOAD_TS, PRELOAD_CLIENT)),
            (12, commit(2, 30)),
        ]);
        assert!(
            violations
                .iter()
                .any(|v| v.class == ViolationClass::ReplicationLostAck),
            "{violations:?}"
        );
    }

    fn serving(node: u64) -> TraceEvent {
        TraceEvent::RecoveryStep {
            node,
            shard: 0,
            phase: RecoveryPhase::Serving,
            detail: 0,
        }
    }

    #[test]
    fn lost_ack_after_cold_restart_is_a_durability_violation() {
        // Identical shape to `lost_acked_commit_is_detected`, but a
        // replica finished a cold restart (Serving) before the reader
        // began: the lost ack is the recovery path's fault.
        let violations = check(vec![
            (1, begin(1, 10)),
            (2, write(1, 1, 20)),
            (4, commit(1, 20)),
            (6, serving(5)),
            (10, begin(2, 30)),
            (11, read(2, 1, PRELOAD_TS, PRELOAD_CLIENT)),
            (12, commit(2, 30)),
        ]);
        assert!(
            violations
                .iter()
                .any(|v| v.class == ViolationClass::LostAckedWrite),
            "{violations:?}"
        );
        assert!(
            violations
                .iter()
                .all(|v| v.class != ViolationClass::ReplicationLostAck),
            "{violations:?}"
        );
    }

    #[test]
    fn recovery_after_the_read_does_not_reclassify() {
        // The cold restart finished only after the reader began, so it
        // cannot have caused the miss: plain replication lost-ack.
        let violations = check(vec![
            (1, begin(1, 10)),
            (2, write(1, 1, 20)),
            (4, commit(1, 20)),
            (10, begin(2, 30)),
            (11, read(2, 1, PRELOAD_TS, PRELOAD_CLIENT)),
            (12, commit(2, 30)),
            (20, serving(5)),
        ]);
        assert!(
            violations
                .iter()
                .any(|v| v.class == ViolationClass::ReplicationLostAck),
            "{violations:?}"
        );
        assert!(
            violations
                .iter()
                .all(|v| v.class != ViolationClass::LostAckedWrite),
            "{violations:?}"
        );
    }

    #[test]
    fn phantom_version_is_detected_only_on_complete_traces() {
        let events = vec![
            (1, begin(2, 30)),
            (2, read(2, 1, 99, 7)), // nobody wrote (99, 7)
            (3, commit(2, 31)),
        ];
        let complete = History::from_events(events.clone(), 0);
        assert!(Checker::new(&complete)
            .check()
            .iter()
            .any(|v| v.class == ViolationClass::PhantomVersion));
        let truncated = History::from_events(events, 5);
        assert!(Checker::new(&truncated)
            .check()
            .iter()
            .all(|v| v.class != ViolationClass::PhantomVersion));
    }

    #[test]
    fn unknown_outcome_write_observed_by_reader_joins_history() {
        // c1 reaches 2PC (declares k1 at ts 20) then times out; c2 later
        // reads c1's version: CTP must have committed it at its declared
        // stamp. No violations.
        let violations = check(vec![
            (1, begin(1, 10)),
            (2, write(1, 1, 20)),
            (3, abort(1, AbortClass::UnknownOutcome)),
            (10, begin(2, 30)),
            (11, read(2, 1, 20, 1)),
            (12, commit(2, 31)),
        ]);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn a_visible_aborted_write_names_its_exact_producer() {
        // c3's first txn declares k1 at ts 20 and times out; its next one
        // declares k1 at ts 40 and is told it aborted. c2 reads k1@(40, 3):
        // its producer is the aborted txn, not the unknown-outcome one that
        // began before it.
        let events = vec![
            (1, begin(3, 10)),
            (2, write(3, 1, 20)),
            (3, abort(3, AbortClass::UnknownOutcome)),
            (4, begin(3, 30)),
            (5, write(3, 1, 40)),
            (6, abort(3, AbortClass::Validation)),
            (10, begin(2, 50)),
            (11, read(2, 1, 40, 3)),
            (12, commit(2, 51)),
        ];
        let h = History::from_events(events, 0);
        let violations = Checker::new(&h).check();
        let classes: Vec<_> = violations.iter().map(|v| v.class).collect();
        assert_eq!(
            classes,
            [ViolationClass::AbortedWriteVisible],
            "{violations:?}"
        );
        let producer = h.txns.iter().position(|t| t.ts_begin == 30);
        assert_eq!(
            violations[0].txns[1..],
            [producer.expect("the aborted txn")]
        );
    }

    #[test]
    fn a_read_of_an_aborted_write_is_reported_even_on_truncated_traces() {
        let events = vec![
            (1, begin(3, 10)),
            (2, write(3, 1, 20)),
            (3, abort(3, AbortClass::Validation)),
            (10, begin(2, 30)),
            (11, read(2, 1, 20, 3)),
            (12, commit(2, 31)),
        ];
        for dropped in [0, 5] {
            let h = History::from_events(events.clone(), dropped);
            let violations = Checker::new(&h).check();
            let classes: Vec<_> = violations.iter().map(|v| v.class).collect();
            assert_eq!(
                classes,
                [ViolationClass::AbortedWriteVisible],
                "{violations:?}"
            );
        }
    }

    #[test]
    fn a_version_no_write_declared_is_a_phantom() {
        // c3's unknown-outcome txn declared k1 at ts 20 only: neither
        // k1@(25, 3) nor k2@(20, 3) is a version it would install.
        let violations = check(vec![
            (1, begin(3, 10)),
            (2, write(3, 1, 20)),
            (3, abort(3, AbortClass::UnknownOutcome)),
            (10, begin(2, 30)),
            (11, read(2, 1, 25, 3)),
            (12, read(2, 2, 20, 3)),
            (13, commit(2, 31)),
        ]);
        let classes: Vec<_> = violations.iter().map(|v| v.class).collect();
        assert_eq!(
            classes,
            [
                ViolationClass::PhantomVersion,
                ViolationClass::PhantomVersion
            ],
            "{violations:?}"
        );
    }

    #[test]
    fn aborted_writes_never_enter_the_graph() {
        let events = vec![
            (1, begin(1, 10)),
            (2, write(1, 1, 20)),
            (3, abort(1, AbortClass::Validation)),
        ];
        let h = History::from_events(events, 0);
        assert_eq!(h.committed(), 0);
        assert_eq!(h.aborted(), 1);
        assert!(Checker::new(&h).check().is_empty());
    }

    #[test]
    fn trace_slice_covers_involved_clients_only() {
        let events = vec![
            (1, begin(1, 10)),
            (2, begin(2, 11)),
            (3, commit(1, 20)),
            (4, commit(2, 21)),
        ];
        let h = History::from_events(events, 0);
        let idx = h
            .txns
            .iter()
            .position(|t| t.client == 1)
            .expect("client 1 txn");
        let slice = h.trace_slice(&[idx]);
        assert!(slice.contains(r#""client":1"#));
        assert!(!slice.contains(r#""client":2"#));
    }

    #[test]
    fn clock_bound_breach_is_detected_with_epsilon() {
        // c1 commits at ts 10_000_000 (acked at virtual time 4); c2 then
        // begins and commits at ts 1_000 — 2ε = 2_000_000 behind. A clock
        // that far off should have been fenced, so flag it.
        let events = vec![
            (1, begin(1, 9_000_000)),
            (2, write(1, 1, 10_000_000)),
            (4, commit(1, 10_000_000)),
            (10, begin(2, 500)),
            (11, write(2, 2, 1_000)),
            (12, commit(2, 1_000)),
        ];
        let h = History::from_events(events, 0);
        let violations = Checker::new(&h).with_epsilon(1_000_000).check();
        assert!(
            violations
                .iter()
                .any(|v| v.class == ViolationClass::ClockBoundBreach),
            "{violations:?}"
        );
        // Without the promise, timestamp/real-time inversions are just
        // skew, not a violation.
        let unpromised = Checker::new(&h).check();
        assert!(
            unpromised
                .iter()
                .all(|v| v.class != ViolationClass::ClockBoundBreach),
            "{unpromised:?}"
        );
    }

    #[test]
    fn inversion_within_two_epsilon_passes() {
        let events = vec![
            (1, begin(1, 9_000_000)),
            (2, write(1, 1, 10_000_000)),
            (4, commit(1, 10_000_000)),
            (10, begin(2, 8_500_000)),
            (11, write(2, 2, 8_600_000)),
            (12, commit(2, 8_600_000)), // behind by 1.4ms < 2ε = 2ms
        ];
        let h = History::from_events(events, 0);
        let violations = Checker::new(&h).with_epsilon(1_000_000).check();
        assert!(
            violations
                .iter()
                .all(|v| v.class != ViolationClass::ClockBoundBreach),
            "{violations:?}"
        );
    }

    #[test]
    fn concurrent_commits_are_not_clock_bound_checked() {
        // c2 began before c1's commit was acked: no real-time order, any
        // timestamp inversion is legitimate.
        let events = vec![
            (1, begin(1, 9_000_000)),
            (2, write(1, 1, 10_000_000)),
            (3, begin(2, 500)),
            (4, commit(1, 10_000_000)),
            (5, write(2, 2, 1_000)),
            (6, commit(2, 1_000)),
        ];
        let h = History::from_events(events, 0);
        let violations = Checker::new(&h).with_epsilon(1_000_000).check();
        assert!(
            violations
                .iter()
                .all(|v| v.class != ViolationClass::ClockBoundBreach),
            "{violations:?}"
        );
    }

    #[test]
    fn local_commits_are_exempt_from_the_clock_bound() {
        let events = vec![
            (1, begin(1, 9_000_000)),
            (2, write(1, 1, 10_000_000)),
            (4, commit(1, 10_000_000)),
            (10, begin(2, 500)),
            (
                12,
                TraceEvent::Commit {
                    client: 2,
                    ts_commit: 1_000,
                    local: true,
                },
            ),
        ];
        let h = History::from_events(events, 0);
        let violations = Checker::new(&h).with_epsilon(1_000_000).check();
        assert!(
            violations
                .iter()
                .all(|v| v.class != ViolationClass::ClockBoundBreach),
            "{violations:?}"
        );
    }

    #[test]
    fn interrupted_txn_with_writes_is_unknown() {
        let events = vec![(1, begin(1, 10)), (2, write(1, 1, 20)), (5, begin(1, 30))];
        let h = History::from_events(events, 0);
        assert_eq!(h.unknown(), 1);
    }
}

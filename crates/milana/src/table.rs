//! The primary's transaction table and per-key concurrency metadata, with
//! the paper's validation procedure (Algorithm 1).
//!
//! Per active key the primary tracks, in DRAM (§4.1):
//!
//! - `ts_latestRead` — the largest read timestamp served (protects
//!   client-local validation of read-only transactions, §4.3);
//! - `prepared` — the prepared-but-undecided transaction holding the key;
//! - the latest *committed* version, read directly from the storage
//!   backend's in-DRAM mapping table.
//!
//! None of this is persisted; §4.5 recovers it (or shields it with leases).

use std::collections::BinaryHeap;

use perfkit::{FastMap, FastSet};

use flashsim::Key;
use timesync::{Timestamp, Version};

use crate::msg::{TxnId, TxnRecord, TxnStatus};

/// Per-key DRAM metadata.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct KeyMeta {
    /// Largest read timestamp served for this key.
    pub(crate) latest_read: Timestamp,
    /// The prepared transaction holding this key, if any, with its
    /// tentative commit timestamp.
    pub(crate) prepared: Option<(TxnId, Timestamp)>,
}

/// Validation verdict with the conflict that caused an abort, for
/// observability and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The transaction serializes; prepare it.
    Success,
    /// A read-set key is held by a prepared transaction.
    ReadSawPrepared(Key),
    /// A read-set key's latest committed version is not the one read.
    ReadStale(Key),
    /// A write-set key is held by a prepared transaction.
    WriteSawPrepared(Key),
    /// A write-set key was read at a timestamp at/after our commit stamp.
    WriteAfterRead(Key),
    /// A write-set key already has a committed version at/after our stamp.
    WriteStale(Key),
}

impl Verdict {
    /// True for [`Verdict::Success`].
    pub fn is_success(&self) -> bool {
        matches!(self, Verdict::Success)
    }
}

/// The transaction table plus key metadata for one shard primary.
#[derive(Debug, Default)]
pub struct TxnTable {
    records: FastMap<TxnId, TxnRecord>,
    keys: FastMap<Key, KeyMeta>,
    /// Committed transactions whose writes this replica has already made
    /// durable in its own backend. Lives in persistent memory with the
    /// records, so recovery and catch-up apply only the delta instead of
    /// replaying the whole committed history (which grows without bound
    /// and would make failover time scale with table size).
    applied: FastSet<TxnId>,
    /// Applied watermark: the highest timestamp below which this replica's
    /// version chains are known complete, so a snapshot read at any
    /// `at < applied_wm` can be served here (readkit). Monotone by
    /// construction, and stored with the records in persistent memory so
    /// it survives restarts instead of regressing.
    applied_wm: Timestamp,
    /// Each record's change stamp: the value of `last_stamp` when it was
    /// last inserted or changed status. A catch-up sweep pages in stamp
    /// order, so a record that appears or is decided mid-sweep comes after
    /// the cursor instead of behind it.
    stamps: FastMap<TxnId, u64>,
    /// The latest change stamp handed out.
    last_stamp: u64,
}

impl TxnTable {
    /// Creates an empty table.
    pub fn new() -> TxnTable {
        TxnTable::default()
    }

    /// Records a read at `ts`, returning whether a prepared version with
    /// timestamp `<= ts` exists (the flag piggybacked on gets, §4.3).
    pub(crate) fn note_read(&mut self, key: &Key, ts: Timestamp) -> bool {
        let meta = self.keys.entry(key.clone()).or_default();
        if ts > meta.latest_read {
            meta.latest_read = ts;
        }
        meta.prepared.is_some_and(|(_, pts)| pts <= ts)
    }

    /// Algorithm 1: validates `txid` against the table. `latest_committed`
    /// maps a key to its newest committed version (from the storage
    /// backend's mapping table).
    ///
    /// Does **not** mutate state; call [`TxnTable::prepare`] on success.
    pub fn validate(
        &self,
        reads: &[(Key, Version)],
        writes: &[Key],
        ts_commit: Timestamp,
        latest_committed: impl Fn(&Key) -> Option<Version>,
    ) -> Verdict {
        for (key, version) in reads {
            if let Some(meta) = self.keys.get(key) {
                if meta.prepared.is_some() {
                    return Verdict::ReadSawPrepared(key.clone());
                }
            }
            if latest_committed(key) != Some(*version) {
                return Verdict::ReadStale(key.clone());
            }
        }
        for key in writes {
            if let Some(meta) = self.keys.get(key) {
                if meta.prepared.is_some() {
                    return Verdict::WriteSawPrepared(key.clone());
                }
                if meta.latest_read >= ts_commit {
                    return Verdict::WriteAfterRead(key.clone());
                }
            }
            if let Some(v) = latest_committed(key) {
                if v.ts >= ts_commit {
                    return Verdict::WriteStale(key.clone());
                }
            }
        }
        Verdict::Success
    }

    /// Prepares `record` after it was validated on `reads`: leaves a read
    /// mark at its `ts_commit` on every key of `reads`, then
    /// [`TxnTable::prepare`]s it. Algorithm 1 alone lets a writer stamped
    /// below a validated read still prepare: it would serialize before a
    /// read that did not see its write (a write skew). The mark makes that
    /// writer fail with [`Verdict::WriteAfterRead`], MVTO's read-timestamp
    /// rule.
    ///
    /// # Panics
    ///
    /// Panics if the transaction is already in the table.
    pub(crate) fn prepare_validated(&mut self, record: TxnRecord, reads: &[(Key, Version)]) {
        for (key, _) in reads {
            self.note_read(key, record.ts_commit);
        }
        self.prepare(record);
    }

    /// Installs a prepared record and marks its write keys held.
    ///
    /// # Panics
    ///
    /// Panics if the transaction is already in the table.
    pub fn prepare(&mut self, record: TxnRecord) {
        assert_eq!(record.status, TxnStatus::Prepared);
        for (key, _) in record.writes.iter() {
            let meta = self.keys.entry(key.clone()).or_default();
            debug_assert!(meta.prepared.is_none(), "double prepare on {key}");
            meta.prepared = Some((record.txid, record.ts_commit));
        }
        let txid = record.txid;
        let prev = self.records.insert(txid, record);
        assert!(prev.is_none(), "transaction prepared twice");
        self.touch(txid);
    }

    /// Gives `txid` the next change stamp.
    fn touch(&mut self, txid: TxnId) {
        self.last_stamp += 1;
        self.stamps.insert(txid, self.last_stamp);
    }

    /// Applies a commit/abort decision, releasing the write keys. Returns
    /// the record (now with final status) if it was prepared here; `None`
    /// for unknown transactions (e.g. decision arrived before/without a
    /// prepare — the caller records it for idempotence).
    pub fn decide(&mut self, txid: TxnId, commit: bool) -> Option<TxnRecord> {
        let record = self.records.get_mut(&txid)?;
        if record.status != TxnStatus::Prepared {
            // Duplicate decision; idempotent.
            return Some(record.clone());
        }
        record.status = if commit {
            TxnStatus::Committed
        } else {
            TxnStatus::Aborted
        };
        let record = record.clone();
        for (key, _) in record.writes.iter() {
            if let Some(meta) = self.keys.get_mut(key) {
                if meta.prepared.map(|(t, _)| t) == Some(txid) {
                    meta.prepared = None;
                }
            }
        }
        self.touch(txid);
        Some(record)
    }

    /// Status of `txid` for recovery/CTP queries.
    pub fn status(&self, txid: TxnId) -> Option<TxnStatus> {
        self.records.get(&txid).map(|r| r.status)
    }

    /// Inserts or overwrites a record, maintaining the key `prepared`
    /// markers (used by backups and by the log and catch-up sweeps).
    /// Backups need the markers live — not just rebuilt at recovery —
    /// because backup snapshot reads piggyback the same prepared flag as
    /// primary gets.
    pub(crate) fn install(&mut self, record: TxnRecord) {
        match self.records.get_mut(&record.txid) {
            // Never regress a decided status back to Prepared.
            Some(existing) if existing.status != TxnStatus::Prepared => {}
            _ => {
                match record.status {
                    TxnStatus::Prepared => {
                        for (key, _) in record.writes.iter() {
                            self.keys.entry(key.clone()).or_default().prepared =
                                Some((record.txid, record.ts_commit));
                        }
                    }
                    _ => {
                        for (key, _) in record.writes.iter() {
                            if let Some(meta) = self.keys.get_mut(key) {
                                if meta.prepared.map(|(t, _)| t) == Some(record.txid) {
                                    meta.prepared = None;
                                }
                            }
                        }
                    }
                }
                let txid = record.txid;
                self.records.insert(txid, record);
                self.touch(txid);
            }
        }
    }

    /// This replica's applied watermark (see the field docs).
    pub fn applied_watermark(&self) -> Timestamp {
        self.applied_wm
    }

    /// Raises the applied watermark; lower values are ignored so the
    /// watermark never regresses (late or replayed floor records must not
    /// shrink the servable window).
    pub(crate) fn advance_applied_watermark(&mut self, ts: Timestamp) {
        if ts > self.applied_wm {
            self.applied_wm = ts;
        }
    }

    /// Marks `txid`'s committed writes as durably applied to this
    /// replica's backend. Call only *after* the backend apply completes —
    /// a crash in between re-applies the record at recovery, which is
    /// idempotent.
    pub(crate) fn mark_applied(&mut self, txid: TxnId) {
        self.applied.insert(txid);
    }

    /// Whether `txid`'s writes are already in this replica's backend.
    pub(crate) fn is_applied(&self, txid: TxnId) -> bool {
        self.applied.contains(&txid)
    }

    /// How many transactions writing a key `touches` accepts are not yet
    /// settled here: still prepared, or committed but not yet applied to
    /// this replica's backend. Counts in place, in no particular order.
    pub(crate) fn unsettled_writing(&self, touches: impl Fn(&Key) -> bool) -> u64 {
        self.records
            .values()
            .filter(|r| match r.status {
                TxnStatus::Prepared => true,
                TxnStatus::Committed => !self.applied.contains(&r.txid),
                TxnStatus::Aborted => false,
            })
            .filter(|r| r.writes.iter().any(|(k, _)| touches(k)))
            .count() as u64
    }

    /// Whether this replica still owes `version`'s writes: the record that
    /// wrote it is prepared here, or committed but not yet applied. A
    /// version below the applied watermark that is neither in the chains
    /// nor owed is lost. Scans every record: for audits, not the hot path.
    pub fn owes(&self, version: Version) -> bool {
        self.records.values().any(|r| {
            r.txid.client == version.client
                && r.ts_commit == version.ts
                && match r.status {
                    TxnStatus::Prepared => true,
                    TxnStatus::Committed => !self.applied.contains(&r.txid),
                    TxnStatus::Aborted => false,
                }
        })
    }

    /// The records `keep` accepts, in transaction-id order. Only those are
    /// cloned.
    pub(crate) fn records_where(&self, keep: impl Fn(&TxnRecord) -> bool) -> Vec<TxnRecord> {
        let mut v: Vec<TxnRecord> = self.records.values().filter(|r| keep(r)).cloned().collect();
        v.sort_by_key(|r| r.txid);
        v
    }

    /// Prepared transactions older than `than` (by commit stamp) — CTP
    /// candidates whose coordinator may have died (§4.5).
    pub fn stuck_prepared(&self, than: Timestamp) -> Vec<TxnRecord> {
        self.records_where(|r| r.status == TxnStatus::Prepared && r.ts_commit < than)
    }

    /// One page of a catch-up sweep: the `limit` records with the smallest
    /// change stamps above `after` (from the first when `None`), in stamp
    /// order, and the cursor for the next page (`None` when no record lies
    /// beyond this one). Paging in change order, not id order, means a page
    /// that ends the sweep has seen every record inserted or decided before
    /// it, wherever its id falls. One pass keeps the page in a heap of at
    /// most `limit`, and only the page is cloned, so a page costs O(N)
    /// rather than a sorted copy of the whole table.
    pub(crate) fn page_after(
        &self,
        after: Option<u64>,
        limit: usize,
    ) -> (Vec<TxnRecord>, Option<u64>) {
        let mut page: BinaryHeap<(u64, TxnId)> =
            BinaryHeap::with_capacity(limit.min(self.records.len()));
        let mut above = 0;
        for (&txid, &stamp) in &self.stamps {
            if after.is_some_and(|c| stamp <= c) {
                continue;
            }
            above += 1;
            if page.len() < limit {
                page.push((stamp, txid));
            } else if let Some(mut top) = page.peek_mut() {
                if stamp < top.0 {
                    *top = (stamp, txid);
                }
            }
        }
        let page = page.into_sorted_vec();
        let next = page
            .last()
            .filter(|_| above > limit)
            .map(|&(stamp, _)| stamp);
        let records = page
            .iter()
            .map(|(_, id)| self.records[id].clone())
            .collect();
        (records, next)
    }

    /// Rebuilds key `prepared` markers from the (merged) records — the
    /// final step of recovery before serving (§4.5).
    pub(crate) fn rebuild_key_meta(&mut self) {
        self.keys.clear();
        let prepared: Vec<(TxnId, Timestamp, Vec<Key>)> = self
            .records
            .values()
            .filter(|r| r.status == TxnStatus::Prepared)
            .map(|r| {
                (
                    r.txid,
                    r.ts_commit,
                    r.writes.iter().map(|(k, _)| k.clone()).collect(),
                )
            })
            .collect();
        for (txid, ts, keys) in prepared {
            for key in keys {
                self.keys.entry(key).or_default().prepared = Some((txid, ts));
            }
        }
    }

    /// Number of records in the table.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no transactions are recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semel::shard::ShardId;
    use timesync::ClientId;

    fn k(i: u64) -> Key {
        Key::from(i)
    }

    fn v(ts: u64) -> Version {
        Version::new(Timestamp(ts), ClientId(0))
    }

    fn txid(seq: u64) -> TxnId {
        TxnId {
            client: ClientId(1),
            seq,
        }
    }

    fn record(seq: u64, ts: u64, write_keys: &[u64]) -> TxnRecord {
        TxnRecord {
            txid: txid(seq),
            ts_commit: Timestamp(ts),
            writes: write_keys
                .iter()
                .map(|&i| (k(i), flashsim::value(&b"w"[..])))
                .collect::<Vec<_>>()
                .into(),
            participants: vec![ShardId(0)].into(),
            status: TxnStatus::Prepared,
        }
    }

    /// `latest_committed` stub: every key at version ts=10.
    fn lc10(_: &Key) -> Option<Version> {
        Some(v(10))
    }

    #[test]
    fn clean_read_write_validates() {
        let t = TxnTable::new();
        let verdict = t.validate(&[(k(1), v(10))], &[k(2)], Timestamp(20), lc10);
        assert_eq!(verdict, Verdict::Success);
    }

    #[test]
    fn stale_read_aborts() {
        let t = TxnTable::new();
        // The key's latest committed version (ts=10) is newer than what the
        // transaction read (ts=5): someone committed in between.
        let verdict = t.validate(&[(k(1), v(5))], &[], Timestamp(20), lc10);
        assert_eq!(verdict, Verdict::ReadStale(k(1)));
    }

    #[test]
    fn prepared_key_blocks_reads_and_writes() {
        let mut t = TxnTable::new();
        t.prepare(record(1, 15, &[7]));
        let verdict = t.validate(&[(k(7), v(10))], &[], Timestamp(20), lc10);
        assert_eq!(verdict, Verdict::ReadSawPrepared(k(7)));
        let verdict = t.validate(&[], &[k(7)], Timestamp(20), lc10);
        assert_eq!(verdict, Verdict::WriteSawPrepared(k(7)));
    }

    #[test]
    fn write_after_read_aborts() {
        let mut t = TxnTable::new();
        // Someone read key 3 at ts=25 (e.g. a read-only transaction that
        // will locally validate); a write with ts_commit=20 <= 25 must die.
        assert!(!t.note_read(&k(3), Timestamp(25)));
        let verdict = t.validate(&[], &[k(3)], Timestamp(20), lc10);
        assert_eq!(verdict, Verdict::WriteAfterRead(k(3)));
        // Equal timestamps also abort (Algorithm 1 line 13 uses >=).
        let verdict = t.validate(&[], &[k(3)], Timestamp(25), lc10);
        assert_eq!(verdict, Verdict::WriteAfterRead(k(3)));
        // A later write is fine.
        let verdict = t.validate(&[], &[k(3)], Timestamp(26), lc10);
        assert_eq!(verdict, Verdict::Success);
    }

    #[test]
    fn a_validated_read_blocks_a_writer_stamped_below_it() {
        let mut t = TxnTable::new();
        // T1 reads key 7 at its committed version and prepares at ts 20.
        let reads = [(k(7), v(10))];
        assert!(t
            .validate(&reads, &[k(8)], Timestamp(20), lc10)
            .is_success());
        t.prepare_validated(record(1, 20, &[8]), &reads);
        t.decide(txid(1), true);
        // T2 writes key 7 at ts 15 < 20: it would serialize before T1's
        // read, which did not see it.
        let verdict = t.validate(&[], &[k(7)], Timestamp(15), lc10);
        assert_eq!(verdict, Verdict::WriteAfterRead(k(7)));
        assert!(t.validate(&[], &[k(7)], Timestamp(21), lc10).is_success());
    }

    #[test]
    fn write_stale_aborts() {
        let t = TxnTable::new();
        // Key already committed at ts=10; writing at ts_commit=10 or 9 dies.
        assert_eq!(
            t.validate(&[], &[k(1)], Timestamp(10), lc10),
            Verdict::WriteStale(k(1))
        );
        assert_eq!(
            t.validate(&[], &[k(1)], Timestamp(9), lc10),
            Verdict::WriteStale(k(1))
        );
        assert!(t.validate(&[], &[k(1)], Timestamp(11), lc10).is_success());
    }

    #[test]
    fn decide_releases_keys() {
        let mut t = TxnTable::new();
        t.prepare(record(1, 15, &[7]));
        let rec = t.decide(txid(1), true).unwrap();
        assert_eq!(rec.status, TxnStatus::Committed);
        // Key free again.
        assert!(t.validate(&[], &[k(7)], Timestamp(20), lc10).is_success());
        // Duplicate decision is idempotent.
        let again = t.decide(txid(1), true).unwrap();
        assert_eq!(again.status, TxnStatus::Committed);
    }

    #[test]
    fn unsettled_counts_prepared_and_unapplied_commits_on_matching_keys() {
        let mut t = TxnTable::new();
        for seq in 1..=5 {
            t.prepare(record(seq, 15, &[seq]));
        }
        t.decide(txid(2), true); // committed, not yet applied
        t.decide(txid(3), true);
        t.mark_applied(txid(3)); // settled
        t.decide(txid(4), false); // settled
        assert_eq!(t.unsettled_writing(|key| *key != k(5)), 2);
        assert_eq!(t.unsettled_writing(|_| true), 3);
        assert_eq!(t.unsettled_writing(|_| false), 0);
    }

    #[test]
    fn note_read_reports_prepared_leq() {
        let mut t = TxnTable::new();
        t.prepare(record(1, 15, &[7]));
        assert!(!t.note_read(&k(7), Timestamp(10))); // prepared at 15 > 10
        assert!(t.note_read(&k(7), Timestamp(15))); // 15 <= 15
        assert!(t.note_read(&k(7), Timestamp(30)));
    }

    #[test]
    fn stuck_prepared_finds_old_transactions() {
        let mut t = TxnTable::new();
        t.prepare(record(1, 15, &[1]));
        t.prepare(record(2, 50, &[2]));
        t.decide(txid(1), false);
        t.prepare(record(3, 10, &[3]));
        let stuck = t.stuck_prepared(Timestamp(40));
        let ids: Vec<u64> = stuck.iter().map(|r| r.txid.seq).collect();
        assert_eq!(ids.len(), 1);
        assert!(ids.contains(&3));
    }

    #[test]
    fn rebuild_key_meta_restores_prepared_markers() {
        let mut t = TxnTable::new();
        t.install(record(1, 15, &[7]));
        let mut decided = record(2, 16, &[8]);
        decided.status = TxnStatus::Committed;
        t.install(decided);
        t.rebuild_key_meta();
        assert!(!t.validate(&[], &[k(7)], Timestamp(99), lc10).is_success());
        assert!(t.validate(&[], &[k(8)], Timestamp(99), lc10).is_success());
    }

    #[test]
    fn applied_watermark_is_monotone() {
        let mut t = TxnTable::new();
        assert_eq!(t.applied_watermark(), Timestamp::ZERO);
        t.advance_applied_watermark(Timestamp(40));
        assert_eq!(t.applied_watermark(), Timestamp(40));
        // A late, lower floor (replayed gossip, clock step) is ignored.
        t.advance_applied_watermark(Timestamp(25));
        assert_eq!(t.applied_watermark(), Timestamp(40));
        t.advance_applied_watermark(Timestamp(41));
        assert_eq!(t.applied_watermark(), Timestamp(41));
    }

    #[test]
    fn install_maintains_prepared_markers() {
        let mut t = TxnTable::new();
        // A replicated prepare marks the key held immediately (backup reads
        // must see the prepared flag without waiting for a recovery-time
        // rebuild) …
        t.install(record(1, 15, &[7]));
        assert!(t.note_read(&k(7), Timestamp(20)));
        // … and the replicated decision releases it.
        let mut decided = record(1, 15, &[7]);
        decided.status = TxnStatus::Committed;
        t.install(decided);
        assert!(!t.note_read(&k(7), Timestamp(20)));
    }

    #[test]
    fn install_never_regresses_decided_status() {
        let mut t = TxnTable::new();
        let mut committed = record(1, 15, &[1]);
        committed.status = TxnStatus::Committed;
        t.install(committed);
        t.install(record(1, 15, &[1])); // late Prepared replica record
        assert_eq!(t.status(txid(1)), Some(TxnStatus::Committed));
    }

    /// Every catch-up page equals the slice of the whole table sorted by
    /// change stamp, after the cursor, `limit` long. Cursors and limits are
    /// random, ids arrive out of order, and records are inserted and
    /// decided between pages, as live commits are during a sweep.
    #[test]
    fn catch_up_pages_equal_the_sorted_slice() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        fn sliced(t: &TxnTable, after: Option<u64>, limit: usize) -> (Vec<TxnId>, Option<u64>) {
            let mut all: Vec<(u64, TxnId)> = t.stamps.iter().map(|(&id, &s)| (s, id)).collect();
            all.sort();
            let start = after.map_or(0, |c| all.partition_point(|&(s, _)| s <= c));
            let end = start.saturating_add(limit).min(all.len());
            let next = (end < all.len()).then(|| all[end - 1].0);
            (all[start..end].iter().map(|&(_, id)| id).collect(), next)
        }
        let mut rng = StdRng::seed_from_u64(3);
        let mut t = TxnTable::default();
        let fresh = |t: &mut TxnTable, rng: &mut StdRng| {
            let mut r = record(
                rng.gen_range(0..400),
                rng.gen_range(1..50),
                &[rng.gen_range(0..9)],
            );
            r.txid.client = ClientId(rng.gen_range(0..4));
            t.install(r);
        };
        let mut after = None;
        let mut limit = 1;
        for _ in 0..2_000 {
            let (page, next) = t.page_after(after, limit);
            let ids: Vec<TxnId> = page.iter().map(|r| r.txid).collect();
            assert_eq!((ids, next), sliced(&t, after, limit));
            for r in &page {
                assert_eq!(r.ts_commit, t.records[&r.txid].ts_commit);
            }
            for _ in 0..rng.gen_range(0..4) {
                fresh(&mut t, &mut rng);
            }
            if let Some(r) = page.first() {
                // A decision restamps its record past the cursor.
                t.decide(r.txid, rng.gen());
            }
            limit = rng.gen_range(1..24);
            after = match rng.gen_range(0..8) {
                0 => None,
                1 => Some(rng.gen_range(0..t.last_stamp + 2)),
                // A sweep's last page: exactly `limit` records, or one more,
                // lie above the cursor.
                2 => {
                    let beyond = (limit + rng.gen_range(0..2usize)) as u64;
                    t.last_stamp.checked_sub(beyond)
                }
                _ => next,
            };
        }
        assert!(t.len() > 1_000, "table of {}", t.len());
    }

    /// A record inserted mid-sweep with an id below the cursor, and one
    /// decided there, still reach the sweep: a page that ends it has seen
    /// every change made before it.
    #[test]
    fn a_sweep_sees_records_that_change_behind_its_cursor() {
        let mut t = TxnTable::new();
        for seq in 10..14 {
            t.install(record(seq, 100 + seq, &[seq]));
        }
        let (page, next) = t.page_after(None, 2);
        assert_eq!(
            page.iter().map(|r| r.txid).collect::<Vec<_>>(),
            [txid(10), txid(11)]
        );
        // Live commits meanwhile: a new record with a smaller id, and a
        // decision on one already swept.
        t.install(record(1, 50, &[1]));
        t.decide(txid(10), true);
        let mut swept = Vec::new();
        let mut cursor = next;
        while cursor.is_some() {
            let (page, next) = t.page_after(cursor, 2);
            swept.extend(page.iter().map(|r| (r.txid, r.status)));
            cursor = next;
        }
        assert_eq!(
            swept,
            [
                (txid(12), TxnStatus::Prepared),
                (txid(13), TxnStatus::Prepared),
                (txid(1), TxnStatus::Prepared),
                (txid(10), TxnStatus::Committed),
            ]
        );
    }
}

//! Replica read-routing policy.
//!
//! The client keeps a [`ReplicaView`] per cluster: the last watermark and
//! queue depth each replica reported (piggybacked on read replies). A
//! [`ReadRoute`] policy then picks which backup — if any — should serve a
//! snapshot read at `ts_begin`. Replicas the client has never heard from,
//! or whose report is older than a staleness horizon, are *probe*
//! candidates: routing to them is how the client learns their watermark,
//! and the worst case is one extra hop ending in `TooStale` plus a primary
//! fallback.

use std::collections::BTreeMap;

use timesync::Timestamp;

/// Which replica serves snapshot reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadRoute {
    /// All reads go to the shard primary (the pre-readkit behavior).
    #[default]
    PrimaryOnly,
    /// Route to the covering backup with the highest known watermark.
    Freshest,
    /// Power-of-two-choices: draw two covering backups, pick the one with
    /// the smaller reported queue depth.
    PowerOfTwo,
}

/// What the client last heard from one replica.
#[derive(Debug, Clone, Copy)]
struct ReplicaStat {
    watermark: Timestamp,
    depth: u64,
    heard_at_ns: u64,
}

/// Client-side routing table: per-replica watermark / load metadata.
///
/// Keyed by an opaque replica address `A` (milana uses its RPC `Addr`).
/// `BTreeMap` keeps iteration deterministic under simulation.
#[derive(Debug, Clone, Default)]
pub struct ReplicaView<A: Ord + Clone> {
    stats: BTreeMap<A, ReplicaStat>,
}

impl<A: Ord + Clone> ReplicaView<A> {
    /// An empty view.
    pub fn new() -> ReplicaView<A> {
        ReplicaView {
            stats: BTreeMap::new(),
        }
    }

    /// Records metadata piggybacked on a reply from `addr`.
    pub fn observe(&mut self, addr: A, watermark: Timestamp, depth: u64, now_ns: u64) {
        let e = self.stats.entry(addr).or_insert(ReplicaStat {
            watermark,
            depth,
            heard_at_ns: now_ns,
        });
        // Watermarks are monotone per replica; keep the freshest report.
        e.watermark = e.watermark.max(watermark);
        e.depth = depth;
        e.heard_at_ns = now_ns;
    }

    /// The last watermark heard from `addr`, if any.
    pub fn watermark(&self, addr: &A) -> Option<Timestamp> {
        self.stats.get(addr).map(|s| s.watermark)
    }

    /// Drops everything cached about `addr`.
    ///
    /// For when the replica *explicitly refused* to serve (`NotReady`): a
    /// cold-restarting replica regressed its applied watermark to zero and
    /// will not serve again until anti-entropy catch-up re-promises its
    /// write floor. [`ReplicaView::observe`] keeps watermarks monotone (a
    /// defense against reordered gossip), so without this the pre-restart
    /// watermark would keep advertising coverage the replica no longer
    /// has, and every read would burn its routed attempt on a guaranteed
    /// `NotReady`. Forgetting demotes the replica to an unknown
    /// (probe-eligible) candidate; the first reply after recovery
    /// re-populates the entry.
    pub fn forget(&mut self, addr: &A) {
        self.stats.remove(addr);
    }

    /// Picks the backup that should serve a snapshot read at `at`, or
    /// `None` to use the primary.
    ///
    /// `backups` is the candidate set (primaries excluded by the caller);
    /// entries older than `stale_after_ns` — and replicas never heard from
    /// — count as *unknown* and stay eligible as probes. `rand` draws a
    /// uniform index in `[0, n)` for the power-of-two policy.
    pub fn pick(
        &self,
        route: ReadRoute,
        backups: &[A],
        at: Timestamp,
        stale_after_ns: u64,
        now_ns: u64,
        mut rand: impl FnMut(u64) -> u64,
    ) -> Option<A> {
        if route == ReadRoute::PrimaryOnly || backups.is_empty() {
            return None;
        }
        // (addr, known watermark if fresh, depth) for eligible replicas.
        let mut cands: Vec<(&A, Option<Timestamp>, u64)> = Vec::new();
        for b in backups {
            match self.stats.get(b) {
                None => cands.push((b, None, 0)),
                Some(s) => {
                    let elapsed = now_ns.saturating_sub(s.heard_at_ns);
                    if elapsed > stale_after_ns {
                        cands.push((b, None, s.depth));
                    } else if s.watermark >= at {
                        cands.push((b, Some(s.watermark), s.depth));
                    } else if Timestamp(s.watermark.0.saturating_add(elapsed)) >= at {
                        // The report proves the replica was stale *then*,
                        // but watermarks advance at roughly wall rate while
                        // clients report, so by now it plausibly covers
                        // `at`: probe it. A miss costs one TooStale hop.
                        cands.push((b, None, s.depth));
                    }
                    // Fresh and behind even after extrapolation: skip, the
                    // primary is faster than a guaranteed TooStale.
                }
            }
        }
        if cands.is_empty() {
            return None;
        }
        match route {
            ReadRoute::PrimaryOnly => None,
            ReadRoute::Freshest => {
                // Prefer known-covering replicas by watermark; probe
                // unknowns only when nothing is known to cover.
                cands
                    .iter()
                    .filter(|(_, wm, _)| wm.is_some())
                    .max_by_key(|(_, wm, _)| *wm)
                    .or_else(|| cands.first())
                    .map(|(a, _, _)| (*a).clone())
            }
            ReadRoute::PowerOfTwo => {
                let n = cands.len() as u64;
                let i = rand(n) as usize;
                let j = rand(n) as usize;
                let (a, b) = (&cands[i], &cands[j]);
                let pick = if b.2 < a.2 { b } else { a };
                Some(pick.0.clone())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(n: u64) -> Timestamp {
        Timestamp(n)
    }

    #[test]
    fn primary_only_never_routes() {
        let mut v: ReplicaView<u32> = ReplicaView::new();
        v.observe(1, ts(100), 0, 0);
        assert_eq!(
            v.pick(ReadRoute::PrimaryOnly, &[1], ts(10), 1000, 0, |_| 0),
            None
        );
    }

    #[test]
    fn unknown_replicas_are_probed() {
        let v: ReplicaView<u32> = ReplicaView::new();
        // Never heard from either backup: still routes (probe).
        let got = v.pick(ReadRoute::Freshest, &[1, 2], ts(50), 1000, 0, |_| 0);
        assert_eq!(got, Some(1));
    }

    #[test]
    fn freshest_prefers_highest_covering_watermark() {
        let mut v: ReplicaView<u32> = ReplicaView::new();
        v.observe(1, ts(80), 0, 0);
        v.observe(2, ts(120), 0, 0);
        v.observe(3, ts(40), 0, 0); // fresh but below `at`: ineligible
        let got = v.pick(ReadRoute::Freshest, &[1, 2, 3], ts(60), 1000, 10, |_| 0);
        assert_eq!(got, Some(2));
    }

    #[test]
    fn non_covering_fresh_replica_is_skipped() {
        let mut v: ReplicaView<u32> = ReplicaView::new();
        v.observe(1, ts(40), 0, 0);
        let got = v.pick(ReadRoute::Freshest, &[1], ts(60), 1000, 10, |_| 0);
        assert_eq!(got, None);
    }

    #[test]
    fn extrapolated_watermark_reopens_the_probe() {
        let mut v: ReplicaView<u32> = ReplicaView::new();
        v.observe(1, ts(40), 0, 0); // stale for `at = 60` when observed …
                                    // … but 30ns later the floor has plausibly advanced past 60.
        let got = v.pick(ReadRoute::Freshest, &[1], ts(60), 1000, 30, |_| 0);
        assert_eq!(got, Some(1));
    }

    #[test]
    fn stale_entries_become_probes_again() {
        let mut v: ReplicaView<u32> = ReplicaView::new();
        v.observe(1, ts(40), 0, 0); // not covering …
        let got = v.pick(ReadRoute::Freshest, &[1], ts(60), 1000, 5000, |_| 0);
        // … but the report has aged out, so it is probed anyway.
        assert_eq!(got, Some(1));
    }

    #[test]
    fn power_of_two_picks_lower_depth() {
        let mut v: ReplicaView<u32> = ReplicaView::new();
        v.observe(1, ts(100), 9, 0);
        v.observe(2, ts(100), 2, 0);
        let mut draws = [0u64, 1].into_iter();
        let got = v.pick(ReadRoute::PowerOfTwo, &[1, 2], ts(50), 1000, 0, |_| {
            draws.next().unwrap()
        });
        assert_eq!(got, Some(2));
    }

    #[test]
    fn forget_demotes_a_covering_replica_to_a_probe() {
        let mut v: ReplicaView<u32> = ReplicaView::new();
        v.observe(1, ts(120), 0, 0);
        v.observe(2, ts(80), 0, 0);
        // Replica 1 is the known-freshest pick …
        let got = v.pick(ReadRoute::Freshest, &[1, 2], ts(60), 1000, 10, |_| 0);
        assert_eq!(got, Some(1));
        // … until it answers NotReady and is forgotten: the monotone
        // observe max is gone, and 2 (known covering) wins over 1
        // (mere probe).
        v.forget(&1);
        assert_eq!(v.watermark(&1), None);
        let got = v.pick(ReadRoute::Freshest, &[1, 2], ts(60), 1000, 10, |_| 0);
        assert_eq!(got, Some(2));
        // A fresh post-recovery report repopulates the entry from scratch
        // — no resurrection of the pre-restart watermark.
        v.observe(1, ts(30), 0, 20);
        assert_eq!(v.watermark(&1), Some(ts(30)));
    }

    #[test]
    fn watermark_reports_never_regress() {
        let mut v: ReplicaView<u32> = ReplicaView::new();
        v.observe(1, ts(100), 0, 0);
        v.observe(1, ts(60), 3, 5); // late, lower report
        assert_eq!(v.watermark(&1), Some(ts(100)));
    }
}

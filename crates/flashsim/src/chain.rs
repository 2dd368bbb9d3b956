//! The per-key version chain every multi-version store keeps (Figure 3).
//!
//! A chain lists one key's mapped versions youngest first. What a version
//! maps *to* is the store's business — the value itself for DRAM, a
//! buffered-or-persisted tuple location for the flash stores — so the chain
//! is generic over that payload. Ordering, duplicate suppression, snapshot
//! visibility and watermark pruning live here, once.
//!
//! The chain lives in the mapping table (§1): its youngest entry is stored
//! inline in the table's value, and only older versions spill into a heap
//! vector. A key that never had two versions mapped at once — every
//! preloaded key until its first write — costs no allocation, and the
//! latest-version check, a recent snapshot read and the collector's lookup
//! of the newest tuple never leave the table entry.

use timesync::{Timestamp, Version};

/// One mapped version: its stamp and where (or what) it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Entry<L> {
    /// The version stamp.
    pub(crate) version: Version,
    /// The store's payload for this version.
    pub(crate) loc: L,
}

/// One key's versions in descending version order, no stamp twice.
#[derive(Debug, Clone)]
pub(crate) struct Chain<L> {
    /// The youngest version; `None` only for an empty chain.
    head: Option<Entry<L>>,
    /// The versions older than `head`, youngest first.
    older: Vec<Entry<L>>,
}

/// A chain's entries, youngest first.
pub(crate) type Iter<'a, L> =
    std::iter::Chain<std::option::Iter<'a, Entry<L>>, std::slice::Iter<'a, Entry<L>>>;

impl<L> Default for Chain<L> {
    fn default() -> Chain<L> {
        Chain {
            head: None,
            older: Vec::new(),
        }
    }
}

impl<L> Chain<L> {
    /// Maps `version` at its sorted position. A stamp already present keeps
    /// its first mapping (replicated writes and mount scans are idempotent);
    /// returns whether the entry was inserted.
    pub(crate) fn insert(&mut self, version: Version, loc: L) -> bool {
        let entry = Entry { version, loc };
        let Some(head) = &mut self.head else {
            self.head = Some(entry);
            return true;
        };
        if version > head.version {
            let was = std::mem::replace(head, entry);
            self.older.insert(0, was);
            return true;
        }
        if version == head.version {
            return false;
        }
        let pos = self
            .older
            .iter()
            .position(|e| e.version <= version)
            .unwrap_or(self.older.len());
        if self.older.get(pos).is_some_and(|e| e.version == version) {
            return false;
        }
        self.older.insert(pos, entry);
        true
    }

    /// The youngest version.
    pub(crate) fn latest(&self) -> Option<&Entry<L>> {
        self.head.as_ref()
    }

    /// The snapshot read rule: the youngest version with `ts <= at`.
    pub(crate) fn visible_at(&self, at: Timestamp) -> Option<&Entry<L>> {
        self.iter().find(|e| e.version.ts <= at)
    }

    /// The payload mapped for exactly `version`.
    pub(crate) fn get(&self, version: Version) -> Option<&L> {
        self.iter().find(|e| e.version == version).map(|e| &e.loc)
    }

    /// Mutable access to the payload mapped for exactly `version`.
    pub(crate) fn get_mut(&mut self, version: Version) -> Option<&mut L> {
        self.head
            .iter_mut()
            .chain(&mut self.older)
            .find(|e| e.version == version)
            .map(|e| &mut e.loc)
    }

    /// Unmaps `version` if it is still mapped to `loc`.
    pub(crate) fn remove(&mut self, version: Version, loc: &L)
    where
        L: PartialEq,
    {
        let hit = |e: &Entry<L>| e.version == version && e.loc == *loc;
        if self.head.as_ref().is_some_and(hit) {
            self.head = (!self.older.is_empty()).then(|| self.older.remove(0));
        } else {
            self.older.retain(|e| !hit(e));
        }
    }

    /// The entries, youngest first.
    pub(crate) fn iter(&self) -> Iter<'_, L> {
        self.head.iter().chain(&self.older)
    }

    /// The mapped stamps, youngest first.
    pub(crate) fn versions(&self) -> Vec<Version> {
        self.iter().map(|e| e.version).collect()
    }

    /// Drops dead history (§3.1): everything strictly older than the
    /// youngest version with `ts <= watermark`, which stays because
    /// snapshot reads at the watermark still resolve to it. The youngest
    /// version always stays, so only the older tail is ever drained.
    /// Yields the dropped entries so the store can release what they
    /// occupied.
    pub(crate) fn prune(&mut self, watermark: Timestamp) -> std::vec::Drain<'_, Entry<L>> {
        let keep = match &self.head {
            Some(head) if head.version.ts > watermark => self
                .older
                .iter()
                .position(|e| e.version.ts <= watermark)
                .map_or(self.older.len(), |youngest_visible| youngest_visible + 1),
            _ => 0,
        };
        self.older.drain(keep..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timesync::ClientId;

    fn v(ts: u64) -> Version {
        Version::new(Timestamp(ts), ClientId(0))
    }

    fn chain(stamps: &[u64]) -> Chain<&'static str> {
        let mut c = Chain::default();
        for &ts in stamps {
            c.insert(v(ts), "x");
        }
        c
    }

    #[test]
    fn insert_keeps_descending_order_whatever_the_arrival_order() {
        let c = chain(&[20, 40, 10, 30]);
        assert_eq!(c.versions(), vec![v(40), v(30), v(20), v(10)]);
        assert_eq!(c.latest().unwrap().version, v(40));
        // Same timestamp: the client id breaks the tie.
        let mut c = Chain::default();
        c.insert(Version::new(Timestamp(10), ClientId(1)), 'a');
        c.insert(Version::new(Timestamp(10), ClientId(2)), 'b');
        assert_eq!(c.latest().unwrap().loc, 'b');
    }

    #[test]
    fn duplicate_version_is_ignored_and_keeps_the_first_mapping() {
        let mut c = Chain::default();
        assert!(c.insert(v(10), "first"));
        assert!(c.insert(v(20), "other"));
        assert!(!c.insert(v(10), "second"));
        assert_eq!(c.versions(), vec![v(20), v(10)]);
        assert_eq!(c.get(v(10)), Some(&"first"));
        // The bulk-load case: loading the same `(key, version)` twice maps
        // it once, as the mount scan does for interrupted relocations.
        assert!(!c.insert(v(20), "again"));
        assert_eq!(c.iter().count(), 2);
    }

    #[test]
    fn visible_at_picks_youngest_not_newer() {
        let mut c = Chain::default();
        for (ts, tag) in [(30, "c"), (20, "b"), (10, "a")] {
            c.insert(v(ts), tag);
        }
        assert_eq!(c.visible_at(Timestamp(25)).unwrap().loc, "b");
        assert_eq!(c.visible_at(Timestamp(30)).unwrap().loc, "c");
        assert_eq!(c.visible_at(Timestamp(10)).unwrap().loc, "a");
        assert_eq!(c.visible_at(Timestamp(9)), None);
        assert_eq!(c.visible_at(Timestamp(u64::MAX)).unwrap().loc, "c");
        assert_eq!(Chain::<u8>::default().visible_at(Timestamp(5)), None);
    }

    #[test]
    fn prune_keeps_the_youngest_at_or_below_the_watermark() {
        let mut c = chain(&[40, 30, 20, 10]);
        let dropped: Vec<Version> = c.prune(Timestamp(25)).map(|e| e.version).collect();
        assert_eq!(dropped, vec![v(10)]);
        assert_eq!(c.versions(), vec![v(40), v(30), v(20)]);
        // A stamp exactly at the watermark is the survivor.
        let dropped: Vec<Version> = c.prune(Timestamp(30)).map(|e| e.version).collect();
        assert_eq!(dropped, vec![v(20)]);
        // Nothing at or below the watermark: nothing is dead yet.
        assert_eq!(chain(&[40, 30]).prune(Timestamp(5)).count(), 0);
        // Everything below it: only the head survives.
        let mut c = chain(&[40, 30, 20]);
        assert_eq!(c.prune(Timestamp(99)).count(), 2);
        assert_eq!(c.versions(), vec![v(40)]);
    }

    #[test]
    fn remove_needs_both_stamp_and_payload_to_match() {
        let mut c = Chain::default();
        c.insert(v(10), 1u8);
        c.insert(v(20), 2u8);
        c.remove(v(10), &9);
        assert_eq!(c.versions(), vec![v(20), v(10)]);
        c.remove(v(10), &1);
        assert_eq!(c.versions(), vec![v(20)]);
        *c.get_mut(v(20)).unwrap() = 7;
        assert_eq!(c.get(v(20)), Some(&7));
        assert_eq!(c.get(v(10)), None);
    }

    /// The chain against a plain sorted vector, op by op: random inserts
    /// (duplicate stamps included), removes with a matching or a stale
    /// payload, prunes, and `get_mut` writes, with every read compared
    /// after each step. The stamps come from a small range so chains keep
    /// growing past one entry and pruning back to one.
    #[test]
    fn matches_a_sorted_vec_model_through_one_to_many_and_back() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(7);
        let (mut grew, mut shrank) = (0, 0);
        for _ in 0..200 {
            let mut c: Chain<u32> = Chain::default();
            let mut model: Vec<Entry<u32>> = Vec::new();
            for step in 0..60u32 {
                let version = Version::new(
                    Timestamp(rng.gen_range(0..16)),
                    ClientId(rng.gen_range(0..2)),
                );
                let before = model.len();
                match rng.gen_range(0..10) {
                    0..=4 => {
                        let fresh = !model.iter().any(|e| e.version == version);
                        if fresh {
                            let pos = model
                                .iter()
                                .position(|e| e.version < version)
                                .unwrap_or(model.len());
                            model.insert(pos, Entry { version, loc: step });
                        }
                        assert_eq!(c.insert(version, step), fresh);
                    }
                    5 | 6 => {
                        // Half the time a mapped entry with its own payload,
                        // else a payload that no longer matches.
                        let target = match model.get(rng.gen_range(0..model.len().max(1))) {
                            Some(e) if rng.gen_bool(0.5) => *e,
                            _ => Entry {
                                version,
                                loc: u32::MAX,
                            },
                        };
                        model.retain(|e| *e != target);
                        c.remove(target.version, &target.loc);
                    }
                    7 | 8 => {
                        let wm = Timestamp(rng.gen_range(0..20));
                        let keep = model
                            .iter()
                            .position(|e| e.version.ts <= wm)
                            .map_or(model.len(), |i| i + 1);
                        let dropped: Vec<Entry<u32>> = model.drain(keep..).collect();
                        assert_eq!(c.prune(wm).collect::<Vec<_>>(), dropped);
                    }
                    _ => {
                        let want = model
                            .iter_mut()
                            .find(|e| e.version == version)
                            .map(|e| &mut e.loc);
                        let got = c.get_mut(version);
                        assert_eq!(got.is_some(), want.is_some());
                        if let (Some(got), Some(want)) = (got, want) {
                            *got += 1000;
                            *want += 1000;
                        }
                    }
                }
                grew += usize::from(before == 1 && model.len() > 1);
                shrank += usize::from(before > 1 && model.len() == 1);
                assert_eq!(c.iter().copied().collect::<Vec<_>>(), model);
                assert_eq!(c.latest(), model.first());
                for probe in 0..18 {
                    let at = Timestamp(probe);
                    assert_eq!(c.visible_at(at), model.iter().find(|e| e.version.ts <= at));
                    let exact = Version::new(at, ClientId(probe as u32 % 2));
                    let want = model.iter().find(|e| e.version == exact).map(|e| &e.loc);
                    assert_eq!(c.get(exact), want);
                }
            }
        }
        assert!(grew > 100 && shrank > 100, "grew {grew} shrank {shrank}");
    }
}

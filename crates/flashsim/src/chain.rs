//! The per-key version chain every multi-version store keeps (Figure 3).
//!
//! A chain lists one key's mapped versions youngest first. What a version
//! maps *to* is the store's business — the value itself for DRAM, a
//! buffered-or-persisted tuple location for the flash stores — so the chain
//! is generic over that payload. Ordering, duplicate suppression, snapshot
//! visibility and watermark pruning live here, once.

use timesync::{Timestamp, Version};

/// One mapped version: its stamp and where (or what) it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry<L> {
    /// The version stamp.
    pub version: Version,
    /// The store's payload for this version.
    pub loc: L,
}

/// One key's versions in descending version order, no stamp twice.
#[derive(Debug, Clone)]
pub struct Chain<L>(Vec<Entry<L>>);

impl<L> Default for Chain<L> {
    fn default() -> Chain<L> {
        Chain(Vec::new())
    }
}

impl<L> Chain<L> {
    /// Maps `version` at its sorted position. A stamp already present keeps
    /// its first mapping (replicated writes and mount scans are idempotent);
    /// returns whether the entry was inserted.
    pub fn insert(&mut self, version: Version, loc: L) -> bool {
        let pos = self
            .0
            .iter()
            .position(|e| e.version <= version)
            .unwrap_or(self.0.len());
        if self.0.get(pos).is_some_and(|e| e.version == version) {
            return false;
        }
        self.0.insert(pos, Entry { version, loc });
        true
    }

    /// The youngest version.
    pub fn latest(&self) -> Option<&Entry<L>> {
        self.0.first()
    }

    /// The snapshot read rule: the youngest version with `ts <= at`.
    pub fn visible_at(&self, at: Timestamp) -> Option<&Entry<L>> {
        self.0.iter().find(|e| e.version.ts <= at)
    }

    /// The payload mapped for exactly `version`.
    pub fn get(&self, version: Version) -> Option<&L> {
        self.0.iter().find(|e| e.version == version).map(|e| &e.loc)
    }

    /// Mutable access to the payload mapped for exactly `version`.
    pub fn get_mut(&mut self, version: Version) -> Option<&mut L> {
        self.0
            .iter_mut()
            .find(|e| e.version == version)
            .map(|e| &mut e.loc)
    }

    /// Unmaps `version` if it is still mapped to `loc`.
    pub fn remove(&mut self, version: Version, loc: &L)
    where
        L: PartialEq,
    {
        self.0.retain(|e| !(e.version == version && e.loc == *loc));
    }

    /// The entries, youngest first.
    pub fn iter(&self) -> std::slice::Iter<'_, Entry<L>> {
        self.0.iter()
    }

    /// The mapped stamps, youngest first.
    pub fn versions(&self) -> Vec<Version> {
        self.0.iter().map(|e| e.version).collect()
    }

    /// Drops dead history (§3.1): everything strictly older than the
    /// youngest version with `ts <= watermark`, which stays because
    /// snapshot reads at the watermark still resolve to it. Yields the
    /// dropped entries so the store can release what they occupied.
    pub fn prune(&mut self, watermark: Timestamp) -> std::vec::Drain<'_, Entry<L>> {
        let keep = self
            .0
            .iter()
            .position(|e| e.version.ts <= watermark)
            .map_or(self.0.len(), |youngest_visible| youngest_visible + 1);
        self.0.drain(keep..)
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
}

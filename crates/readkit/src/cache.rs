//! Client-side cache of immutable versions.
//!
//! A version `(ts, client)` of a key never changes once written — MVCC
//! writes only ever *add* versions — so caching `(key, version) → value`
//! is safe forever. What the cache must get right is *which snapshot* a
//! cached entry may answer: entry `v` answers a read at `at` only if `v`
//! is the newest version at or below `at`. Each entry therefore carries a
//! `known_upper` bound: a server confirmed `v` was the newest version
//! `≤ known_upper`, so any `at` in `[v.ts, known_upper]` is a sound hit.
//! New versions always carry stamps above every replica's applied
//! watermark at write time, so hits at or below the client's observed
//! watermark floor can never be stale; hits above it are validated by OCC
//! like any other read (the caller records the version in the read-set).

use perfkit::FastMap;
use std::hash::Hash;

use timesync::{Timestamp, Version};

/// One cached version and the snapshot window it may answer.
#[derive(Debug, Clone)]
pub struct CacheEntry<V> {
    /// The version stamp of the cached value.
    pub version: Version,
    /// The cached value (immutable for this version).
    pub value: V,
    /// Highest `at` for which a server confirmed `version` is the newest
    /// version `≤ at`.
    pub(crate) known_upper: Timestamp,
}

/// No node: the end of the recency list.
const NIL: u32 = u32::MAX;

/// One slab slot: a cached key and entry while in use, linked into the
/// recency list; `None` on the free list, so a freed slot keeps no value.
#[derive(Debug)]
struct Node<K, V> {
    item: Option<(K, CacheEntry<V>)>,
    prev: u32,
    next: u32,
}

/// A bounded LRU of key → newest-known version.
///
/// Capacity 0 disables the cache (lookups miss, inserts drop). Recency is
/// a doubly linked list threaded through a slab of nodes, least recent at
/// the head: a touch, an insert and an eviction are O(1), and the order is
/// deterministic under simulation.
#[derive(Debug)]
pub struct VersionCache<K: Hash + Eq + Clone, V> {
    cap: usize,
    index: FastMap<K, u32>,
    nodes: Vec<Node<K, V>>,
    free: Vec<u32>,
    /// Least recently used node, or `NIL`.
    head: u32,
    /// Most recently used node, or `NIL`.
    tail: u32,
    hits: u64,
    misses: u64,
}

impl<K: Hash + Eq + Clone, V> VersionCache<K, V> {
    /// A cache holding at most `cap` entries.
    pub fn new(cap: usize) -> VersionCache<K, V> {
        VersionCache {
            cap,
            index: FastMap::default(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
        }
    }

    fn unlink(&mut self, n: u32) {
        let Node { prev, next, .. } = self.nodes[n as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            x => self.nodes[x as usize].prev = prev,
        }
    }

    fn push_back(&mut self, n: u32) {
        let node = &mut self.nodes[n as usize];
        node.prev = self.tail;
        node.next = NIL;
        match self.tail {
            NIL => self.head = n,
            t => self.nodes[t as usize].next = n,
        }
        self.tail = n;
    }

    /// Makes node `n` the most recently used.
    fn touch(&mut self, n: u32) {
        if self.tail != n {
            self.unlink(n);
            self.push_back(n);
        }
    }

    fn entry(&self, n: u32) -> &CacheEntry<V> {
        &self.nodes[n as usize].item.as_ref().expect("linked node").1
    }

    fn entry_mut(&mut self, n: u32) -> &mut CacheEntry<V> {
        &mut self.nodes[n as usize].item.as_mut().expect("linked node").1
    }

    /// Unlinks node `n` and frees it with its value.
    fn release(&mut self, n: u32) -> K {
        self.unlink(n);
        self.free.push(n);
        let (key, _) = self.nodes[n as usize].item.take().expect("linked node");
        key
    }

    /// Looks up `key` for a snapshot read at `at`; a hit requires
    /// `version.ts ≤ at ≤ known_upper`.
    pub fn lookup(&mut self, key: &K, at: Timestamp) -> Option<&CacheEntry<V>> {
        let Some(n) = self.index.get(key).copied().filter(|&n| {
            let e = self.entry(n);
            e.version.ts <= at && at <= e.known_upper
        }) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        self.touch(n);
        Some(self.entry(n))
    }

    /// Records that a server confirmed `version` of `key` is the newest
    /// version `≤ known_upper`. Newer versions replace older ones; a
    /// re-confirmation of the cached version only widens its window.
    pub fn insert(&mut self, key: K, version: Version, value: V, known_upper: Timestamp) {
        if self.cap == 0 || known_upper < version.ts {
            return;
        }
        if let Some(&n) = self.index.get(&key) {
            let e = self.entry_mut(n);
            if version > e.version {
                e.version = version;
                e.value = value;
                e.known_upper = known_upper;
            } else if version == e.version {
                e.known_upper = e.known_upper.max(known_upper);
            }
            // An older version teaches us nothing: keep the newer entry.
            self.touch(n);
            return;
        }
        while self.index.len() >= self.cap && self.head != NIL {
            let victim = self.release(self.head);
            self.index.remove(&victim);
        }
        let item = Some((
            key.clone(),
            CacheEntry {
                version,
                value,
                known_upper,
            },
        ));
        let n = match self.free.pop() {
            Some(n) => {
                self.nodes[n as usize].item = item;
                n
            }
            None => {
                self.nodes.push(Node {
                    item,
                    prev: NIL,
                    next: NIL,
                });
                (self.nodes.len() - 1) as u32
            }
        };
        self.push_back(n);
        self.index.insert(key, n);
    }

    /// Drops entries whose window lies entirely below `floor` — the
    /// watermark-driven GC invalidation hook. Entries at or above the
    /// floor stay: their versions are still readable on every replica.
    pub fn invalidate_below(&mut self, floor: Timestamp) {
        let mut n = self.head;
        while n != NIL {
            let next = self.nodes[n as usize].next;
            if self.entry(n).known_upper < floor {
                let key = self.release(n);
                self.index.remove(&key);
            }
            n = next;
        }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timesync::ClientId;

    fn ver(ts: u64) -> Version {
        Version::new(Timestamp(ts), ClientId(1))
    }

    fn cache() -> VersionCache<u64, &'static str> {
        VersionCache::new(4)
    }

    #[test]
    fn hit_requires_window() {
        let mut c = cache();
        c.insert(1, ver(10), "a", Timestamp(20));
        assert!(c.lookup(&1, Timestamp(5)).is_none(), "below version");
        assert!(c.lookup(&1, Timestamp(25)).is_none(), "above known_upper");
        let e = c.lookup(&1, Timestamp(15)).expect("in window");
        assert_eq!(e.value, "a");
        assert_eq!((c.hits(), c.misses()), (1, 2));
    }

    #[test]
    fn newer_version_replaces_older() {
        let mut c = cache();
        c.insert(1, ver(10), "old", Timestamp(20));
        c.insert(1, ver(30), "new", Timestamp(30));
        assert!(c.lookup(&1, Timestamp(15)).is_none(), "old window gone");
        assert_eq!(c.lookup(&1, Timestamp(30)).unwrap().value, "new");
        // A late re-read of the old version must not clobber the new one.
        c.insert(1, ver(10), "old", Timestamp(20));
        assert_eq!(c.lookup(&1, Timestamp(30)).unwrap().value, "new");
    }

    #[test]
    fn reconfirmation_widens_window() {
        let mut c = cache();
        c.insert(1, ver(10), "a", Timestamp(20));
        c.insert(1, ver(10), "a", Timestamp(50));
        assert!(c.lookup(&1, Timestamp(40)).is_some());
        // Windows never shrink.
        c.insert(1, ver(10), "a", Timestamp(30));
        assert!(c.lookup(&1, Timestamp(50)).is_some());
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = cache();
        for k in 0..4u64 {
            c.insert(k, ver(10), "x", Timestamp(20));
        }
        c.lookup(&0, Timestamp(15)); // 0 is now most recent
        c.insert(9, ver(10), "x", Timestamp(20)); // evicts 1
        assert!(c.lookup(&1, Timestamp(15)).is_none());
        assert!(c.lookup(&0, Timestamp(15)).is_some());
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c: VersionCache<u64, &'static str> = VersionCache::new(0);
        c.insert(1, ver(10), "a", Timestamp(20));
        assert!(c.lookup(&1, Timestamp(15)).is_none());
        assert!(c.is_empty());
    }

    impl<K: Hash + Eq + Clone, V> VersionCache<K, V> {
        /// Cached keys, least recently used first.
        fn keys_by_recency(&self) -> Vec<K> {
            let mut keys = Vec::new();
            let mut n = self.head;
            while n != NIL {
                keys.push(self.nodes[n as usize].item.as_ref().unwrap().0.clone());
                n = self.nodes[n as usize].next;
            }
            keys
        }
    }

    /// The reference LRU: entries least recently used first, found by
    /// linear search.
    struct Model {
        cap: usize,
        lru: Vec<(u64, CacheEntry<u64>)>,
        hits: u64,
        misses: u64,
        evictions: u64,
    }

    impl Model {
        fn lookup(&mut self, key: u64, at: Timestamp) -> Option<u64> {
            let fits = |e: &CacheEntry<u64>| e.version.ts <= at && at <= e.known_upper;
            match self.lru.iter().position(|(k, e)| *k == key && fits(e)) {
                Some(i) => {
                    self.hits += 1;
                    let item = self.lru.remove(i);
                    let value = item.1.value;
                    self.lru.push(item);
                    Some(value)
                }
                None => {
                    self.misses += 1;
                    None
                }
            }
        }

        fn insert(&mut self, key: u64, version: Version, value: u64, upper: Timestamp) {
            if self.cap == 0 || upper < version.ts {
                return;
            }
            if let Some(i) = self.lru.iter().position(|(k, _)| *k == key) {
                let (k, mut e) = self.lru.remove(i);
                if version > e.version {
                    e = CacheEntry {
                        version,
                        value,
                        known_upper: upper,
                    };
                } else if version == e.version {
                    e.known_upper = e.known_upper.max(upper);
                }
                self.lru.push((k, e));
                return;
            }
            if self.lru.len() >= self.cap {
                self.lru.remove(0);
                self.evictions += 1;
            }
            let e = CacheEntry {
                version,
                value,
                known_upper: upper,
            };
            self.lru.push((key, e));
        }
    }

    #[test]
    fn matches_a_reference_lru_under_random_operations() {
        for seed in 0..8u64 {
            let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut next = |n: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % n
            };
            let cap = next(6) as usize;
            let mut c: VersionCache<u64, u64> = VersionCache::new(cap);
            let mut m = Model {
                cap,
                lru: Vec::new(),
                hits: 0,
                misses: 0,
                evictions: 0,
            };
            for _ in 0..5_000 {
                let key = next(10);
                let at = Timestamp(next(100));
                match next(10) {
                    0..=3 => {
                        let ts = next(60);
                        let version = ver(ts);
                        let upper = Timestamp(ts + next(50));
                        let value = next(1_000);
                        c.insert(key, version, value, upper);
                        m.insert(key, version, value, upper);
                    }
                    4..=8 => {
                        let got = c.lookup(&key, at).map(|e| e.value);
                        assert_eq!(got, m.lookup(key, at));
                    }
                    _ => {
                        c.invalidate_below(at);
                        m.lru.retain(|(_, e)| e.known_upper >= at);
                    }
                }
                // Same survivors in the same recency order after every step,
                // so the same evictions too.
                let survivors: Vec<u64> = m.lru.iter().map(|(k, _)| *k).collect();
                assert_eq!(c.keys_by_recency(), survivors, "seed {seed}");
                for (k, e) in &m.lru {
                    let got = &c.entry(c.index[k]);
                    assert_eq!(
                        (got.version, got.value, got.known_upper),
                        (e.version, e.value, e.known_upper)
                    );
                }
            }
            assert_eq!((c.hits(), c.misses()), (m.hits, m.misses), "seed {seed}");
            assert!(cap == 0 || m.evictions > 0, "seed {seed} never evicted");
            assert!(
                c.nodes.len() <= cap,
                "seed {seed}: the slab outgrew the cache"
            );
            // Freed slots hold no value.
            let freed = c.nodes.iter().filter(|n| n.item.is_none()).count();
            assert_eq!(freed, c.free.len());
        }
    }

    #[test]
    fn invalidate_below_drops_dead_windows() {
        let mut c = cache();
        c.insert(1, ver(10), "a", Timestamp(20));
        c.insert(2, ver(10), "b", Timestamp(90));
        c.invalidate_below(Timestamp(50));
        assert_eq!(c.len(), 1);
        assert!(c.lookup(&2, Timestamp(60)).is_some());
    }
}

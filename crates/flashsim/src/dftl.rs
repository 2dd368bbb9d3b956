//! Demand-paged mapping (DFTL-style) — the §3.1 extension the paper leaves
//! as future work.
//!
//! SEMEL SDF assumes the whole key → flash mapping fits in server DRAM.
//! When it does not, DFTL \[Gupta et al., ASPLOS'09\] keeps only hot
//! translations resident and pages the rest from flash-resident translation
//! pages. This module implements that cost model as a transparent wrapper
//! over [`UnifiedStore`]:
//!
//! - a bounded LRU of key translations lives "in DRAM";
//! - a miss charges one translation-page **read** (50 µs by default)
//!   before the data access proceeds;
//! - evicting a *dirty* translation (a key written since it was loaded)
//!   charges a translation-page **write** amortized over the batch of
//!   dirty entries that share a translation page.
//!
//! `repro ablations` sweeps the DRAM fraction to show what
//! the paper's all-in-DRAM assumption is worth.

use std::cell::RefCell;
use std::collections::BTreeMap;

use perfkit::FastMap;
use std::rc::Rc;

use simkit::SimHandle;
use timesync::{Timestamp, Version};

use crate::mftl::UnifiedStore;
use crate::nand::{PROGRAM_LATENCY, READ_LATENCY};
use crate::types::{Key, StoreError, Value, VersionedValue};

/// Translations per flash translation page (amortizes dirty evictions):
/// 4 KB page / 16 B per (key-hash, location) entry.
pub(crate) const ENTRIES_PER_TRANSLATION_PAGE: usize = 256;

/// Mapping-cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DftlStats {
    /// Lookups served from the resident table.
    pub hits: u64,
    /// Lookups that paged a translation in from flash.
    pub misses: u64,
    /// Translation-page writes caused by dirty evictions.
    pub translation_writes: u64,
}

impl DftlStats {
    /// Cache hit fraction.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct DftlState {
    /// key -> (lru sequence, dirty)
    resident: FastMap<Key, (u64, bool)>,
    /// lru sequence -> key (eviction order)
    order: BTreeMap<u64, Key>,
    next_seq: u64,
    /// Dirty evictions accumulated toward the next translation-page write.
    pending_dirty: usize,
    stats: DftlStats,
}

/// A [`UnifiedStore`] whose mapping table is demand-paged. Cloning shares
/// the store and its cache.
#[derive(Clone)]
pub struct DemandMappedStore {
    handle: SimHandle,
    inner: UnifiedStore,
    /// Key translations resident in DRAM.
    cached_entries: usize,
    state: Rc<RefCell<DftlState>>,
}

impl std::fmt::Debug for DemandMappedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DemandMappedStore")
            .field("resident", &self.state.borrow().resident.len())
            .field("capacity", &self.cached_entries)
            .finish()
    }
}

impl DemandMappedStore {
    /// Wraps `inner` with a demand-paged mapping that keeps
    /// `cached_entries` key translations resident.
    ///
    /// # Panics
    ///
    /// Panics if `cached_entries` is zero.
    pub fn new(handle: SimHandle, inner: UnifiedStore, cached_entries: usize) -> DemandMappedStore {
        assert!(cached_entries > 0, "need at least one resident entry");
        DemandMappedStore {
            handle,
            inner,
            cached_entries,
            state: Rc::new(RefCell::new(DftlState {
                resident: FastMap::default(),
                order: BTreeMap::new(),
                next_seq: 0,
                pending_dirty: 0,
                stats: DftlStats::default(),
            })),
        }
    }

    /// Mapping-cache counters.
    pub fn stats(&self) -> DftlStats {
        self.state.borrow().stats
    }

    /// Touches `key` in the mapping cache, charging flash time for a miss
    /// and for any dirty eviction it forces.
    async fn charge(&self, key: &Key, write: bool) {
        let (miss, flush) = {
            let mut st = self.state.borrow_mut();
            let seq = st.next_seq;
            st.next_seq += 1;
            let miss = match st.resident.get_mut(key) {
                Some((old_seq, dirty)) => {
                    let old = *old_seq;
                    *old_seq = seq;
                    *dirty |= write;
                    st.order.remove(&old);
                    st.order.insert(seq, key.clone());
                    st.stats.hits += 1;
                    false
                }
                None => {
                    st.stats.misses += 1;
                    st.resident.insert(key.clone(), (seq, write));
                    st.order.insert(seq, key.clone());
                    true
                }
            };
            // Evict beyond capacity (oldest first).
            let mut flush = false;
            while st.resident.len() > self.cached_entries {
                let (&old, victim) = st.order.iter().next().expect("order non-empty");
                let victim = victim.clone();
                st.order.remove(&old);
                if let Some((_, dirty)) = st.resident.remove(&victim) {
                    if dirty {
                        st.pending_dirty += 1;
                        if st.pending_dirty >= ENTRIES_PER_TRANSLATION_PAGE {
                            st.pending_dirty = 0;
                            st.stats.translation_writes += 1;
                            flush = true;
                        }
                    }
                }
            }
            (miss, flush)
        };
        if miss {
            self.handle.sleep(READ_LATENCY).await;
        }
        if flush {
            self.handle.sleep(PROGRAM_LATENCY).await;
        }
    }

    /// Snapshot read through the paged mapping.
    ///
    /// # Errors
    ///
    /// As [`UnifiedStore::get_at`].
    pub async fn get_at(&self, key: &Key, at: Timestamp) -> Result<VersionedValue, StoreError> {
        self.charge(key, false).await;
        self.inner.get_at(key, at).await
    }

    /// Write through the paged mapping (the translation becomes dirty).
    ///
    /// # Errors
    ///
    /// As [`UnifiedStore::put`].
    pub async fn put(&self, key: Key, value: Value, version: Version) -> Result<(), StoreError> {
        self.charge(&key, true).await;
        self.inner.put(key, value, version).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mftl::PACKING_WINDOW;
    use crate::nand::NandConfig;
    use crate::types::value;
    use simkit::Sim;
    use std::time::Duration;
    use timesync::ClientId;

    fn v(ts: u64) -> Version {
        Version::new(Timestamp(ts), ClientId(0))
    }

    fn build(sim: &Sim, cached: usize) -> DemandMappedStore {
        let h = sim.handle();
        let inner = UnifiedStore::new(
            h.clone(),
            NandConfig {
                // Room for a page per put of the longest test.
                blocks: 128,
                pages_per_block: 8,
                channels: 4,
                ..NandConfig::default()
            },
            PACKING_WINDOW,
        );
        for i in 0..64u64 {
            inner.bulk_load(Key::from(i), value(vec![1; 16]), v(1));
        }
        inner.finish_load();
        DemandMappedStore::new(h, inner, cached)
    }

    #[test]
    fn warm_cache_serves_hits_without_extra_latency() {
        let mut sim = Sim::new(1);
        let s = build(&sim, 16);
        let h = sim.handle();
        let hh = h.clone();
        let s2 = s.clone();
        sim.block_on(async move {
            let s = s2;
            // First access: miss (translation read + data read).
            let t0 = hh.now();
            s.get_at(&Key::from(1u64), Timestamp(1)).await.unwrap();
            let cold = hh.now() - t0;
            // Second access: hit (data read only).
            let t1 = hh.now();
            s.get_at(&Key::from(1u64), Timestamp(1)).await.unwrap();
            let warm = hh.now() - t1;
            assert!(cold > warm, "cold {cold:?} <= warm {warm:?}");
            assert_eq!(cold - warm, Duration::from_micros(50));
        });
        assert_eq!(s.stats().hits, 1);
        assert_eq!(s.stats().misses, 1);
    }

    #[test]
    fn working_set_within_capacity_stops_missing() {
        let mut sim = Sim::new(2);
        let s = build(&sim, 8);
        sim.block_on({
            let s = s.clone();
            async move {
                for round in 0..5 {
                    for i in 0..8u64 {
                        s.get_at(&Key::from(i), Timestamp(1)).await.unwrap();
                    }
                    let st = s.stats();
                    if round == 0 {
                        assert_eq!(st.misses, 8);
                    }
                }
            }
        });
        // 8 cold misses, then pure hits.
        assert_eq!(s.stats().misses, 8);
        assert_eq!(s.stats().hits, 32);
        assert!(s.stats().hit_rate() > 0.79);
    }

    #[test]
    fn thrashing_working_set_misses_every_time() {
        let mut sim = Sim::new(3);
        let s = build(&sim, 4);
        sim.block_on({
            let s = s.clone();
            async move {
                for _ in 0..3 {
                    for i in 0..16u64 {
                        s.get_at(&Key::from(i), Timestamp(1)).await.unwrap();
                    }
                }
            }
        });
        assert_eq!(s.stats().hits, 0, "LRU over a cyclic scan never hits");
        assert_eq!(s.stats().misses, 48);
    }

    #[test]
    fn dirty_evictions_charge_translation_writes() {
        let mut sim = Sim::new(4);
        let s = build(&sim, 4);
        sim.block_on({
            let s = s.clone();
            async move {
                // Write 772 distinct keys through a 4-entry cache: 768 dirty
                // evictions / 256 per translation page = 3 flushes.
                assert_eq!(ENTRIES_PER_TRANSLATION_PAGE, 256);
                for i in 0..772u64 {
                    s.put(Key::from(i), value(vec![2; 16]), v(100 + i))
                        .await
                        .unwrap();
                }
            }
        });
        assert_eq!(s.stats().translation_writes, 3);
    }

    #[test]
    fn reads_and_writes_still_correct_through_the_cache() {
        let mut sim = Sim::new(5);
        let s = build(&sim, 2); // pathologically small cache
        sim.block_on({
            let s = s.clone();
            async move {
                for i in 0..10u64 {
                    s.put(Key::from(i), value(vec![i as u8; 16]), v(100 + i))
                        .await
                        .unwrap();
                }
                for i in 0..10u64 {
                    let got = s.get_at(&Key::from(i), Timestamp(u64::MAX)).await.unwrap();
                    assert_eq!(got.version, v(100 + i));
                    assert_eq!(got.value[0], i as u8);
                }
            }
        });
    }
}

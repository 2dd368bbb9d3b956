//! DRAM (battery-backed / NVM) multi-version backend.
//!
//! The paper's fastest backend (§5.2, Figures 7–8): byte-addressable
//! persistent memory with ~100 ns access latency. Because writes land almost
//! instantly, this backend is the *most* sensitive to clock skew — under NTP
//! it shows the highest abort rates, which is exactly Figure 7's point.

use perfkit::FastMap;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use simkit::SimHandle;
use timesync::{Timestamp, Version};

use crate::chain::Chain;
use crate::types::{Key, StoreError, StoreStats, Value, VersionedValue};

/// Per-read latency (≤100 ns for NVM per §1).
pub const READ_LATENCY: Duration = Duration::from_nanos(100);
/// Per-write latency.
pub const WRITE_LATENCY: Duration = Duration::from_nanos(150);

#[derive(Debug, Default)]
struct DramInner {
    /// Per-key version chains, each version mapped to its value.
    map: FastMap<Key, Chain<Value>>,
    watermark: Timestamp,
    stats: StoreStats,
    /// Durable write-floor record (battery-protected register).
    floor: Timestamp,
}

/// Multi-version in-memory store; cloning shares it.
#[derive(Debug, Clone)]
pub struct DramStore {
    handle: SimHandle,
    inner: Rc<RefCell<DramInner>>,
}

impl DramStore {
    /// Creates an empty store.
    pub fn new(handle: SimHandle) -> DramStore {
        DramStore {
            handle,
            inner: Rc::new(RefCell::new(DramInner::default())),
        }
    }

    /// Store counters.
    pub fn stats(&self) -> StoreStats {
        self.inner.borrow().stats
    }

    /// Writes a new version of `key`.
    ///
    /// # Errors
    ///
    /// [`StoreError::StaleWrite`] if `version` is not newer than the latest.
    pub async fn put(&self, key: Key, value: Value, version: Version) -> Result<(), StoreError> {
        {
            let mut inner = self.inner.borrow_mut();
            if let Some(head) = inner.map.get(&key).and_then(Chain::latest) {
                if version <= head.version {
                    return Err(StoreError::StaleWrite(head.version));
                }
            }
            inner.apply(key, value, version);
        }
        self.handle.sleep(WRITE_LATENCY).await;
        Ok(())
    }

    /// Applies a possibly out-of-order replicated write (idempotent).
    pub async fn apply_unordered(&self, key: Key, value: Value, version: Version) {
        self.inner.borrow_mut().apply(key, value, version);
        self.handle.sleep(WRITE_LATENCY).await;
    }

    /// Applies a batch of unordered writes atomically (all visible at once),
    /// then charges one write latency.
    pub async fn apply_batch_unordered(&self, items: Vec<(Key, Value, Version)>) {
        {
            let mut inner = self.inner.borrow_mut();
            for (key, value, version) in items {
                inner.apply(key, value, version);
            }
        }
        self.handle.sleep(WRITE_LATENCY).await;
    }

    /// Snapshot read at `at`.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] if no version is visible.
    pub async fn get_at(&self, key: &Key, at: Timestamp) -> Result<VersionedValue, StoreError> {
        let out = {
            let mut inner = self.inner.borrow_mut();
            let chain = inner.map.get(key).ok_or(StoreError::NotFound)?;
            let e = chain.visible_at(at).ok_or(StoreError::NotFound)?;
            let out = VersionedValue {
                version: e.version,
                value: e.loc.clone(),
            };
            inner.stats.gets += 1;
            out
        };
        self.handle.sleep(READ_LATENCY).await;
        Ok(out)
    }

    /// Reads the latest version.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] if the key does not exist.
    pub async fn get_latest(&self, key: &Key) -> Result<VersionedValue, StoreError> {
        self.get_at(key, Timestamp::MAX).await
    }

    /// Removes all versions of `key`.
    pub fn delete(&self, key: &Key) {
        self.inner.borrow_mut().map.remove(key);
    }

    /// Raises the GC watermark (never moves backwards).
    pub fn set_watermark(&self, ts: Timestamp) {
        let mut inner = self.inner.borrow_mut();
        if ts > inner.watermark {
            inner.watermark = ts;
        }
    }

    /// All versions of `key`, youngest first.
    pub fn versions(&self, key: &Key) -> Vec<Version> {
        let inner = self.inner.borrow();
        inner.map.get(key).map(Chain::versions).unwrap_or_default()
    }

    /// The youngest version of `key`.
    pub fn latest_version(&self, key: &Key) -> Option<Version> {
        let inner = self.inner.borrow();
        inner.map.get(key)?.latest().map(|e| e.version)
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.inner.borrow().map.len()
    }

    /// All distinct keys, sorted by byte order (deterministic iteration
    /// for bulk copy / migration sweeps).
    pub fn keys(&self) -> Vec<Key> {
        let mut ks: Vec<Key> = self.inner.borrow().map.keys().cloned().collect();
        ks.sort();
        ks
    }

    /// Records the durable write floor (battery-protected, so it survives
    /// power failures as-is). Floors never move backwards.
    pub fn note_floor(&self, ts: Timestamp) {
        let mut inner = self.inner.borrow_mut();
        if ts > inner.floor {
            inner.floor = ts;
        }
    }

    /// Power failure on battery-backed DRAM/NVM: contents survive intact
    /// (§5's premise for this backend). Nothing is torn.
    pub fn power_fail(&self) -> u64 {
        0
    }

    /// Mount after a power failure: the battery preserved everything, so
    /// this only reports what is already resident. Zero-time.
    pub fn mount(&self) -> crate::backend::MountReport {
        let inner = self.inner.borrow();
        crate::backend::MountReport {
            pages_scanned: 0,
            torn_pages: 0,
            keys: inner.map.len() as u64,
            floor: inner.floor,
        }
    }

    /// Sizes the mapping table for `keys` more keys.
    pub(crate) fn reserve(&self, keys: usize) {
        self.inner.borrow_mut().map.reserve(keys);
    }

    /// Makes this fresh store a copy of `from`'s bulk-loaded map. Values are
    /// shared, as a load shares one payload across its keys.
    pub(crate) fn copy_loaded_from(&self, from: &DramStore) {
        let src = from.inner.borrow();
        self.inner.borrow_mut().map.clone_from(&src.map);
    }

    /// Zero-time bulk load.
    pub fn bulk_load(&self, key: Key, value: Value, version: Version) {
        let mut inner = self.inner.borrow_mut();
        inner.map.entry(key).or_default().insert(version, value);
    }
}

impl DramInner {
    /// Maps `version` of `key` (a version already present is kept as is)
    /// and drops the key's history below the watermark.
    fn apply(&mut self, key: Key, value: Value, version: Version) {
        let chain = self.map.entry(key).or_default();
        chain.insert(version, value);
        self.stats.versions_pruned += chain.prune(self.watermark).count() as u64;
        self.stats.puts += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::value;
    use simkit::Sim;
    use timesync::ClientId;

    fn v(ts: u64) -> Version {
        Version::new(Timestamp(ts), ClientId(0))
    }

    #[test]
    fn multi_version_reads() {
        let mut sim = Sim::new(1);
        let s = DramStore::new(sim.handle());
        sim.block_on(async move {
            let k = Key::from(1u64);
            s.put(k.clone(), value(&b"a"[..]), v(10)).await.unwrap();
            s.put(k.clone(), value(&b"b"[..]), v(20)).await.unwrap();
            assert_eq!(s.get_at(&k, Timestamp(15)).await.unwrap().version, v(10));
            assert_eq!(s.get_at(&k, Timestamp(20)).await.unwrap().version, v(20));
        });
    }

    #[test]
    fn writes_are_fast() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let s = DramStore::new(h.clone());
        let hh = h.clone();
        sim.block_on(async move {
            let t0 = hh.now();
            s.put(Key::from(1u64), value(&b"a"[..]), v(1))
                .await
                .unwrap();
            assert_eq!(hh.now() - t0, Duration::from_nanos(150));
            assert_eq!(WRITE_LATENCY, Duration::from_nanos(150));
            let t1 = hh.now();
            s.get_latest(&Key::from(1u64)).await.unwrap();
            assert_eq!(hh.now() - t1, Duration::from_nanos(100));
            assert_eq!(READ_LATENCY, Duration::from_nanos(100));
        });
    }

    #[test]
    fn watermark_prunes() {
        let mut sim = Sim::new(1);
        let s = DramStore::new(sim.handle());
        sim.block_on(async move {
            let k = Key::from(1u64);
            for ts in [10, 20, 30] {
                s.put(k.clone(), value(&b"x"[..]), v(ts)).await.unwrap();
            }
            s.set_watermark(Timestamp(25));
            s.put(k.clone(), value(&b"x"[..]), v(40)).await.unwrap();
            assert_eq!(s.versions(&k), vec![v(40), v(30), v(20)]);
        });
    }

    #[test]
    fn stale_write_rejected() {
        let mut sim = Sim::new(1);
        let s = DramStore::new(sim.handle());
        sim.block_on(async move {
            let k = Key::from(1u64);
            s.put(k.clone(), value(&b"a"[..]), v(20)).await.unwrap();
            assert_eq!(
                s.put(k.clone(), value(&b"b"[..]), v(10)).await.unwrap_err(),
                StoreError::StaleWrite(v(20))
            );
        });
    }
}

//! SFTL — a single-version KV store on a generic page-mapped FTL.
//!
//! This is the paper's single-version baseline (§5.2, Figure 6): a key maps
//! to one logical page on a standard FTL ([`crate::pftl`]); each put
//! overwrites the page in place (logically), so **old versions are gone the
//! moment a new one lands**. Snapshot reads older than the latest version
//! fail with [`StoreError::SnapshotUnavailable`], which is what forces tardy
//! read-only transactions to abort on this backend.

use perfkit::{FastMap, FastSet};
use std::cell::RefCell;
use std::rc::Rc;

use simkit::SimHandle;
use timesync::{Timestamp, Version};

use crate::nand::NandConfig;
use crate::pftl::{PageFtl, PageFtlConfig};
use crate::types::{Key, StoreError, StoreStats, TupleRecord, Value, VersionedValue};

type Page = Rc<TupleRecord>;

#[derive(Debug)]
struct SftlInner {
    /// key -> (LBA, latest version). The version lives in DRAM so staleness
    /// checks don't cost a flash read.
    map: FastMap<Key, (u32, Version)>,
    next_lba: u32,
    free_lbas: Vec<u32>,
    stats: StoreStats,
}

/// Single-version store; cloning shares it.
#[derive(Debug, Clone)]
pub struct SingleVersionStore {
    ftl: PageFtl<Page>,
    inner: Rc<RefCell<SftlInner>>,
}

impl SingleVersionStore {
    /// Creates an SFTL store over a fresh device.
    pub fn new(handle: SimHandle, nand: NandConfig, cfg: PageFtlConfig) -> SingleVersionStore {
        let ftl = PageFtl::new(handle, nand, cfg);
        SingleVersionStore {
            ftl,
            inner: Rc::new(RefCell::new(SftlInner {
                map: FastMap::default(),
                next_lba: 0,
                free_lbas: Vec::new(),
                stats: StoreStats::default(),
            })),
        }
    }

    /// Store-level counters.
    pub fn stats(&self) -> StoreStats {
        let mut s = self.inner.borrow().stats;
        let d = self.ftl.device().stats();
        s.pages_written = d.page_writes;
        s.pages_read = d.page_reads;
        s.gc_collections = d.block_erases;
        s
    }

    /// Attaches a trace sink to the underlying device (flash-op and GC
    /// events stamped with `node`).
    pub fn attach_tracer(&self, tracer: &obskit::Tracer, node: u64) {
        self.ftl.device().attach_tracer(tracer, node);
    }

    /// Injects media faults into the underlying device (fault campaigns).
    pub fn inject_media_faults(&self, cfg: crate::nand::MediaFaultConfig) {
        self.ftl.device().inject_media_faults(cfg);
    }

    fn lba_for(&self, key: &Key) -> Result<(u32, bool), StoreError> {
        let mut inner = self.inner.borrow_mut();
        if let Some(&(lba, _)) = inner.map.get(key) {
            return Ok((lba, true));
        }
        let lba = if let Some(l) = inner.free_lbas.pop() {
            l
        } else {
            let l = inner.next_lba;
            if l >= self.ftl.logical_pages() {
                return Err(StoreError::CapacityExhausted);
            }
            inner.next_lba += 1;
            l
        };
        Ok((lba, false))
    }

    /// Writes the (single) version of `key`, discarding any previous one.
    ///
    /// # Errors
    ///
    /// - [`StoreError::StaleWrite`] if `version` is not newer than the
    ///   current version.
    /// - [`StoreError::CapacityExhausted`] when out of logical space.
    pub async fn put(&self, key: Key, value: Value, version: Version) -> Result<(), StoreError> {
        {
            let inner = self.inner.borrow();
            if let Some(&(_, cur)) = inner.map.get(&key) {
                if version <= cur {
                    return Err(StoreError::StaleWrite(cur));
                }
            }
        }
        let (lba, existing) = self.lba_for(&key)?;
        let rec = Rc::new(TupleRecord {
            key: key.clone(),
            version,
            value,
        });
        if let Err(e) = self.ftl.write(lba, rec).await {
            if !existing {
                self.inner.borrow_mut().free_lbas.push(lba);
            }
            return Err(e);
        }
        let mut inner = self.inner.borrow_mut();
        // Keep the newest version if a concurrent put raced us.
        match inner.map.get(&key) {
            Some(&(_, cur)) if cur >= version => {}
            _ => {
                inner.map.insert(key, (lba, version));
            }
        }
        inner.stats.puts += 1;
        Ok(())
    }

    /// Applies a replicated write that may arrive out of order: writes that
    /// are older than the stored version are acknowledged but ignored (the
    /// single-version store only ever keeps the newest).
    ///
    /// # Errors
    ///
    /// [`StoreError::CapacityExhausted`] when out of logical space.
    pub async fn apply_unordered(
        &self,
        key: Key,
        value: Value,
        version: Version,
    ) -> Result<(), StoreError> {
        match self.put(key, value, version).await {
            Ok(()) => Ok(()),
            Err(StoreError::StaleWrite(_)) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Applies a batch of unordered writes. Version metadata becomes visible
    /// atomically up front; page contents land as the device completes each
    /// write (reads reconcile via a bounded retry).
    ///
    /// # Errors
    ///
    /// [`StoreError::CapacityExhausted`] when out of logical space.
    pub async fn apply_batch_unordered(
        &self,
        items: Vec<(Key, Value, Version)>,
    ) -> Result<(), StoreError> {
        let mut writes = Vec::new();
        for (key, value, version) in items {
            let (lba, _existing) = self.lba_for(&key)?;
            let newer = {
                let mut inner = self.inner.borrow_mut();
                match inner.map.get(&key) {
                    Some(&(_, cur)) if cur >= version => false,
                    _ => {
                        inner.map.insert(key.clone(), (lba, version));
                        true
                    }
                }
            };
            if newer {
                writes.push((
                    lba,
                    Rc::new(TupleRecord {
                        key,
                        version,
                        value,
                    }),
                ));
            }
        }
        for (lba, rec) in writes {
            self.ftl.write(lba, rec).await?;
            self.inner.borrow_mut().stats.puts += 1;
        }
        Ok(())
    }

    /// Snapshot read: succeeds only if the latest version is visible at `at`.
    ///
    /// # Errors
    ///
    /// - [`StoreError::NotFound`] for missing keys.
    /// - [`StoreError::SnapshotUnavailable`] if the key was overwritten
    ///   after `at` — the old version no longer exists on this backend.
    pub async fn get_at(&self, key: &Key, at: Timestamp) -> Result<VersionedValue, StoreError> {
        // An in-flight write may have announced its version in the map while
        // its page is still being programmed; retry briefly until the page
        // content matches the announced version.
        for _ in 0..8 {
            let (lba, version) = {
                let inner = self.inner.borrow();
                let &(lba, version) = inner.map.get(key).ok_or(StoreError::NotFound)?;
                (lba, version)
            };
            if version.ts > at {
                return Err(StoreError::SnapshotUnavailable(version));
            }
            let rec = self.ftl.read(lba).await?;
            if rec.version == version || rec.key != *key {
                self.inner.borrow_mut().stats.gets += 1;
                return Ok(VersionedValue {
                    version: rec.version,
                    value: rec.value.clone(),
                });
            }
        }
        // Fall back to whatever is on flash (version metadata races are
        // bounded by one page-program latency).
        let (lba, _) = *self
            .inner
            .borrow()
            .map
            .get(key)
            .ok_or(StoreError::NotFound)?;
        let rec = self.ftl.read(lba).await?;
        self.inner.borrow_mut().stats.gets += 1;
        Ok(VersionedValue {
            version: rec.version,
            value: rec.value.clone(),
        })
    }

    /// Reads the latest version.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] for missing keys.
    pub async fn get_latest(&self, key: &Key) -> Result<VersionedValue, StoreError> {
        self.get_at(key, Timestamp::MAX).await
    }

    /// Removes `key`.
    pub fn delete(&self, key: &Key) {
        let mut inner = self.inner.borrow_mut();
        if let Some((lba, _)) = inner.map.remove(key) {
            self.ftl.trim(lba);
            inner.free_lbas.push(lba);
        }
    }

    /// The latest version of `key`, if present (metadata only, no I/O).
    pub fn latest_version(&self, key: &Key) -> Option<Version> {
        self.inner.borrow().map.get(key).map(|&(_, v)| v)
    }

    /// Watermarks are meaningless for a single-version store; accepted for
    /// API uniformity.
    pub fn set_watermark(&self, _ts: Timestamp) {}

    /// Zero-time bulk load for experiment setup.
    ///
    /// # Panics
    ///
    /// Panics if the logical space fills during the load.
    pub fn bulk_load(&self, key: Key, value: Value, version: Version) {
        let (lba, _) = self.lba_for(&key).expect("bulk load overflow");
        let rec = Rc::new(TupleRecord {
            key: key.clone(),
            version,
            value,
        });
        self.ftl.install(lba, rec);
        self.inner.borrow_mut().map.insert(key, (lba, version));
    }

    /// Number of keys.
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

    /// Records the durable write floor (stamped into subsequent page OOB).
    pub fn note_floor(&self, ts: Timestamp) {
        self.ftl.note_floor(ts);
    }

    /// Injects a power failure: tears in-flight programs and drops the
    /// volatile key map. Returns the number of torn pages.
    pub fn power_fail(&self) -> u64 {
        let torn = self.ftl.power_fail();
        let mut inner = self.inner.borrow_mut();
        inner.map.clear();
        inner.next_lba = 0;
        inner.free_lbas.clear();
        torn
    }

    /// Mount scan: lets the FTL rebuild its LBA map from OOB, then rebuilds
    /// the key map by peeking each mapped page's record. A key present at
    /// two LBAs (an overwrite that changed LBA before the failure) keeps its
    /// newest version; the stale LBA is trimmed. Deletes are not durable:
    /// a key deleted since its last overwrite resurrects at mount.
    pub async fn mount(&self) -> crate::backend::MountReport {
        let mut report = self.ftl.mount().await;
        let mut inner = self.inner.borrow_mut();
        inner.map.clear();
        let mut stale = Vec::new();
        for lba in self.ftl.mapped_lbas() {
            let Some(rec) = self.ftl.peek_lba(lba) else {
                continue;
            };
            match inner.map.get(&rec.key) {
                Some(&(old_lba, old_v)) => {
                    if rec.version > old_v {
                        inner.map.insert(rec.key.clone(), (lba, rec.version));
                        stale.push(old_lba);
                    } else {
                        stale.push(lba);
                    }
                }
                None => {
                    inner.map.insert(rec.key.clone(), (lba, rec.version));
                }
            }
        }
        for lba in stale {
            self.ftl.trim(lba);
        }
        let used: FastSet<u32> = inner.map.values().map(|&(lba, _)| lba).collect();
        inner.next_lba = used.iter().max().map_or(0, |&m| m + 1);
        inner.free_lbas = (0..inner.next_lba)
            .rev()
            .filter(|l| !used.contains(l))
            .collect();
        report.keys = inner.map.len() as u64;
        report
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

    fn store(sim: &Sim) -> SingleVersionStore {
        SingleVersionStore::new(
            sim.handle(),
            NandConfig {
                blocks: 16,
                pages_per_block: 4,
                ..NandConfig::default()
            },
            PageFtlConfig::default(),
        )
    }

    #[test]
    fn put_get_round_trip() {
        let mut sim = Sim::new(1);
        let s = store(&sim);
        sim.block_on(async move {
            s.put(Key::from(1u64), value(&b"x"[..]), v(10))
                .await
                .unwrap();
            let got = s.get_at(&Key::from(1u64), Timestamp(10)).await.unwrap();
            assert_eq!(got.version, v(10));
        });
    }

    #[test]
    fn old_snapshots_are_gone() {
        let mut sim = Sim::new(1);
        let s = store(&sim);
        sim.block_on(async move {
            let k = Key::from(1u64);
            s.put(k.clone(), value(&b"a"[..]), v(10)).await.unwrap();
            s.put(k.clone(), value(&b"b"[..]), v(20)).await.unwrap();
            // A reader at ts=15 cannot get the old version anymore.
            assert_eq!(
                s.get_at(&k, Timestamp(15)).await.unwrap_err(),
                StoreError::SnapshotUnavailable(v(20))
            );
            assert_eq!(s.get_at(&k, Timestamp(20)).await.unwrap().version, v(20));
        });
    }

    #[test]
    fn stale_write_rejected_unordered_ignored() {
        let mut sim = Sim::new(1);
        let s = store(&sim);
        sim.block_on(async move {
            let k = Key::from(1u64);
            s.put(k.clone(), value(&b"b"[..]), v(20)).await.unwrap();
            assert_eq!(
                s.put(k.clone(), value(&b"a"[..]), v(10)).await.unwrap_err(),
                StoreError::StaleWrite(v(20))
            );
            s.apply_unordered(k.clone(), value(&b"a"[..]), v(10))
                .await
                .unwrap(); // acked, ignored
            assert_eq!(s.get_latest(&k).await.unwrap().version, v(20));
        });
    }

    #[test]
    fn delete_frees_lba_for_reuse() {
        let mut sim = Sim::new(1);
        let s = store(&sim);
        sim.block_on(async move {
            s.put(Key::from(1u64), value(&b"a"[..]), v(1))
                .await
                .unwrap();
            s.delete(&Key::from(1u64));
            assert_eq!(
                s.get_latest(&Key::from(1u64)).await.unwrap_err(),
                StoreError::NotFound
            );
            s.put(Key::from(2u64), value(&b"b"[..]), v(2))
                .await
                .unwrap();
            assert_eq!(s.key_count(), 1);
        });
    }

    #[test]
    fn bulk_load_visible() {
        let mut sim = Sim::new(1);
        let s = store(&sim);
        for i in 0..30u64 {
            s.bulk_load(Key::from(i), value(&b"z"[..]), v(1));
        }
        sim.block_on(async move {
            assert_eq!(s.get_latest(&Key::from(29u64)).await.unwrap().version, v(1));
        });
    }

    #[test]
    fn mount_recovers_keys_after_power_fail() {
        let mut sim = Sim::new(9);
        let h = sim.handle();
        let s = store(&sim);
        sim.block_on(async move {
            for i in 0..5u64 {
                s.put(Key::from(i), value(&b"a"[..]), v(i + 10))
                    .await
                    .unwrap();
            }
            // Overwrite key 2; newest version must win at mount.
            s.put(Key::from(2u64), value(&b"b"[..]), v(99))
                .await
                .unwrap();
            // Tear an in-flight overwrite of key 4.
            let s2 = s.clone();
            h.spawn(async move {
                let _ = s2.put(Key::from(4u64), value(&b"c"[..]), v(500)).await;
            });
            h.sleep(std::time::Duration::from_micros(10)).await;
            assert_eq!(s.power_fail(), 1);
            assert_eq!(s.key_count(), 0);
            let report = s.mount().await;
            assert_eq!(report.torn_pages, 1);
            assert_eq!(report.keys, 5);
            assert_eq!(s.get_latest(&Key::from(2u64)).await.unwrap().version, v(99));
            // The torn overwrite was never acked: old version survives.
            assert_eq!(s.get_latest(&Key::from(4u64)).await.unwrap().version, v(14));
            // The store keeps working after recovery.
            s.put(Key::from(7u64), value(&b"d"[..]), v(600))
                .await
                .unwrap();
            assert_eq!(
                s.get_latest(&Key::from(7u64)).await.unwrap().version,
                v(600)
            );
        });
    }

    #[test]
    fn capacity_bounded_by_logical_space() {
        let mut sim = Sim::new(1);
        let s = SingleVersionStore::new(
            sim.handle(),
            NandConfig {
                blocks: 2,
                pages_per_block: 4,
                ..NandConfig::default()
            },
            PageFtlConfig::default(),
        );
        sim.block_on(async move {
            // 8 phys pages, 7 logical. Distinct keys exceed logical space.
            let mut err = None;
            for i in 0..20u64 {
                if let Err(e) = s.put(Key::from(i), value(&b"x"[..]), v(i + 1)).await {
                    err = Some(e);
                    break;
                }
            }
            assert_eq!(err, Some(StoreError::CapacityExhausted));
        });
    }
}

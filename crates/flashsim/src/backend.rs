//! A uniform handle over the four storage backends the paper evaluates:
//! DRAM, SFTL (single-version), VFTL (split multi-version), and MFTL
//! (unified multi-version).
//!
//! SEMEL/MILANA servers hold a [`Backend`] so experiment configurations can
//! swap storage without touching protocol code, mirroring the backend sweep
//! of Figures 7–8.

use simkit::SimHandle;
use timesync::{Timestamp, Version};

use crate::dram::DramStore;
use crate::mftl::{UnifiedStore, PACKING_WINDOW};
use crate::nand::NandConfig;
use crate::sftl::SingleVersionStore;
use crate::types::{Key, StoreError, StoreStats, Value, VersionedValue};
use crate::vftl::SplitStore;

/// What a mount-time recovery scan reconstructed from the durable medium
/// (see [`Backend::mount`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MountReport {
    /// Pages whose OOB the scan read.
    pub pages_scanned: u64,
    /// Torn (checksum-mismatch) pages discarded.
    pub torn_pages: u64,
    /// Distinct keys reconstructed into the mapping table.
    pub keys: u64,
    /// Recovered durable write floor: the max floor record over intact
    /// pages. `Timestamp::ZERO` if the store never noted a floor.
    pub floor: Timestamp,
}

/// Which storage backend to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Battery-backed DRAM / NVM, multi-version.
    Dram,
    /// Single-version KV on a generic FTL.
    Sftl,
    /// Split multi-version KV layer on a generic FTL.
    Vftl,
    /// Unified multi-version FTL (SEMEL SDF).
    Mftl,
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BackendKind::Dram => "DRAM",
            BackendKind::Sftl => "SFTL",
            BackendKind::Vftl => "VFTL",
            BackendKind::Mftl => "MFTL",
        };
        write!(f, "{s}")
    }
}

impl BackendKind {
    /// True if the backend can serve snapshot reads of old versions.
    pub fn is_multi_version(self) -> bool {
        !matches!(self, BackendKind::Sftl)
    }
}

/// A storage backend instance; cloning shares it.
#[derive(Debug, Clone)]
pub enum Backend {
    /// See [`DramStore`].
    Dram(DramStore),
    /// See [`SingleVersionStore`].
    Sftl(SingleVersionStore),
    /// See [`SplitStore`].
    Vftl(SplitStore),
    /// See [`UnifiedStore`].
    Mftl(UnifiedStore),
}

impl Backend {
    /// Builds a backend of the given kind over a fresh simulated device;
    /// each flash store derives its GC levels from the device's size.
    pub fn new(kind: BackendKind, handle: &SimHandle, nand: NandConfig) -> Backend {
        let handle = handle.clone();
        match kind {
            BackendKind::Dram => Backend::Dram(DramStore::new(handle)),
            BackendKind::Sftl => Backend::Sftl(SingleVersionStore::new(handle, nand)),
            BackendKind::Vftl => Backend::Vftl(SplitStore::new(handle, nand)),
            BackendKind::Mftl => Backend::Mftl(UnifiedStore::new(handle, nand, PACKING_WINDOW)),
        }
    }

    /// This backend's kind.
    pub fn kind(&self) -> BackendKind {
        match self {
            Backend::Dram(_) => BackendKind::Dram,
            Backend::Sftl(_) => BackendKind::Sftl,
            Backend::Vftl(_) => BackendKind::Vftl,
            Backend::Mftl(_) => BackendKind::Mftl,
        }
    }

    /// Writes a new version of `key` (primary path; rejects stale versions).
    ///
    /// # Errors
    ///
    /// See the concrete stores — [`StoreError::StaleWrite`] and
    /// [`StoreError::CapacityExhausted`] are common to all.
    pub async fn put(&self, key: Key, value: Value, version: Version) -> Result<(), StoreError> {
        match self {
            Backend::Dram(s) => s.put(key, value, version).await,
            Backend::Sftl(s) => s.put(key, value, version).await,
            Backend::Vftl(s) => s.put(key, value, version).await,
            Backend::Mftl(s) => s.put(key, value, version).await,
        }
    }

    /// Applies a replicated write that may arrive out of order (backup path).
    ///
    /// # Errors
    ///
    /// [`StoreError::CapacityExhausted`] if the device fills.
    pub async fn apply_unordered(
        &self,
        key: Key,
        value: Value,
        version: Version,
    ) -> Result<(), StoreError> {
        match self {
            Backend::Dram(s) => {
                s.apply_unordered(key, value, version).await;
                Ok(())
            }
            Backend::Sftl(s) => s.apply_unordered(key, value, version).await,
            Backend::Vftl(s) => s.apply_unordered(key, value, version).await,
            Backend::Mftl(s) => s.apply_unordered(key, value, version).await,
        }
    }

    /// Applies a batch of replicated/committed writes with atomic
    /// visibility where the backend supports it (all multi-version
    /// backends; SFTL reconciles within one page-program latency).
    ///
    /// # Errors
    ///
    /// [`StoreError::CapacityExhausted`] if the device fills.
    pub async fn apply_batch_unordered(
        &self,
        items: Vec<(Key, Value, Version)>,
    ) -> Result<(), StoreError> {
        match self {
            Backend::Dram(s) => {
                s.apply_batch_unordered(items).await;
                Ok(())
            }
            Backend::Sftl(s) => s.apply_batch_unordered(items).await,
            Backend::Vftl(s) => s.apply_batch_unordered(items).await,
            Backend::Mftl(s) => s.apply_batch_unordered(items).await,
        }
    }

    /// Snapshot read: youngest version with timestamp `<= at`.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`]; on SFTL also
    /// [`StoreError::SnapshotUnavailable`] for overwritten snapshots.
    pub async fn get_at(&self, key: &Key, at: Timestamp) -> Result<VersionedValue, StoreError> {
        match self {
            Backend::Dram(s) => s.get_at(key, at).await,
            Backend::Sftl(s) => s.get_at(key, at).await,
            Backend::Vftl(s) => s.get_at(key, at).await,
            Backend::Mftl(s) => s.get_at(key, at).await,
        }
    }

    /// Reads the latest version of `key`.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] for missing keys.
    pub async fn get_latest(&self, key: &Key) -> Result<VersionedValue, StoreError> {
        match self {
            Backend::Dram(s) => s.get_latest(key).await,
            Backend::Sftl(s) => s.get_latest(key).await,
            Backend::Vftl(s) => s.get_latest(key).await,
            Backend::Mftl(s) => s.get_latest(key).await,
        }
    }

    /// Removes all versions of `key`.
    pub fn delete(&self, key: &Key) {
        match self {
            Backend::Dram(s) => s.delete(key),
            Backend::Sftl(s) => s.delete(key),
            Backend::Vftl(s) => s.delete(key),
            Backend::Mftl(s) => s.delete(key),
        }
    }

    /// Raises the GC watermark.
    pub fn set_watermark(&self, ts: Timestamp) {
        match self {
            Backend::Dram(s) => s.set_watermark(ts),
            Backend::Sftl(s) => s.set_watermark(ts),
            Backend::Vftl(s) => s.set_watermark(ts),
            Backend::Mftl(s) => s.set_watermark(ts),
        }
    }

    /// Attaches a trace sink: flash backends emit
    /// [`obskit::TraceEvent::FlashOp`] / [`obskit::TraceEvent::GcRun`]
    /// events stamped with `node`. DRAM has no device and stays silent.
    pub fn attach_tracer(&self, tracer: &obskit::Tracer, node: u64) {
        match self {
            Backend::Dram(_) => {}
            Backend::Sftl(s) => s.attach_tracer(tracer, node),
            Backend::Vftl(s) => s.attach_tracer(tracer, node),
            Backend::Mftl(s) => s.attach_tracer(tracer, node),
        }
    }

    /// Injects media faults (ECC-recovery retries, worn-block retirement)
    /// into the underlying flash device. DRAM has no media to degrade.
    pub fn inject_media_faults(&self, cfg: crate::nand::MediaFaultConfig) {
        match self {
            Backend::Dram(_) => {}
            Backend::Sftl(s) => s.inject_media_faults(cfg),
            Backend::Vftl(s) => s.inject_media_faults(cfg),
            Backend::Mftl(s) => s.inject_media_faults(cfg),
        }
    }

    /// Store counters.
    pub fn stats(&self) -> StoreStats {
        match self {
            Backend::Dram(s) => s.stats(),
            Backend::Sftl(s) => s.stats(),
            Backend::Vftl(s) => s.stats(),
            Backend::Mftl(s) => s.stats(),
        }
    }

    /// Sizes the mapping table for `keys` more keys. A bulk load that knows
    /// how many keys it routes here calls this once, before its first
    /// [`Backend::bulk_load`], so the table never grows one rehash at a
    /// time. Mapping tables are only iterated through sorted key lists, so
    /// their capacity cannot change what a run does.
    pub fn reserve(&self, keys: usize) {
        match self {
            Backend::Dram(s) => s.reserve(keys),
            Backend::Sftl(s) => s.reserve(keys),
            Backend::Vftl(s) => s.reserve(keys),
            Backend::Mftl(s) => s.reserve(keys),
        }
    }

    /// Zero-time bulk load for experiment setup; call
    /// [`Backend::finish_load`] when done.
    pub fn bulk_load(&self, key: Key, value: Value, version: Version) {
        match self {
            Backend::Dram(s) => s.bulk_load(key, value, version),
            Backend::Sftl(s) => s.bulk_load(key, value, version),
            Backend::Vftl(s) => s.bulk_load(key, value, version),
            Backend::Mftl(s) => s.bulk_load(key, value, version),
        }
    }

    /// Completes a bulk load (flushes partial pages on packed backends).
    pub fn finish_load(&self) {
        match self {
            Backend::Dram(_) | Backend::Sftl(_) => {}
            Backend::Vftl(s) => s.finish_load(),
            Backend::Mftl(s) => s.finish_load(),
        }
    }

    /// All distinct keys currently stored, sorted by byte order — the
    /// deterministic iteration order migration sweeps rely on.
    pub fn keys(&self) -> Vec<Key> {
        match self {
            Backend::Dram(s) => s.keys(),
            Backend::Sftl(s) => s.keys(),
            Backend::Vftl(s) => s.keys(),
            Backend::Mftl(s) => s.keys(),
        }
    }

    /// Records the replica's durable write floor; subsequently programmed
    /// pages carry it in their OOB so [`Backend::mount`] can recover it.
    /// DRAM is battery-backed: the floor survives in a protected register.
    pub fn note_floor(&self, ts: Timestamp) {
        match self {
            Backend::Dram(s) => s.note_floor(ts),
            Backend::Sftl(s) => s.note_floor(ts),
            Backend::Vftl(s) => s.note_floor(ts),
            Backend::Mftl(s) => s.note_floor(ts),
        }
    }

    /// Injects a power failure: in-flight page programs are torn and all
    /// volatile state (mapping tables, packer queues) is dropped. The store
    /// must be [`Backend::mount`]ed before use. DRAM is battery-backed and
    /// survives intact. Returns the number of torn pages.
    pub fn power_fail(&self) -> u64 {
        match self {
            Backend::Dram(s) => s.power_fail(),
            Backend::Sftl(s) => s.power_fail(),
            Backend::Vftl(s) => s.power_fail(),
            Backend::Mftl(s) => s.power_fail(),
        }
    }

    /// Deterministic mount scan: rebuilds mapping tables and version chains
    /// from per-page OOB metadata, discarding torn pages, and recovers the
    /// durable write floor. Charges scan time proportional to programmed
    /// pages at the device's `mount_scan_rate`.
    pub async fn mount(&self) -> MountReport {
        match self {
            Backend::Dram(s) => s.mount(),
            Backend::Sftl(s) => s.mount().await,
            Backend::Vftl(s) => s.mount().await,
            Backend::Mftl(s) => s.mount().await,
        }
    }

    /// The youngest version of `key`: what validation compares a read or a
    /// write against. Metadata only, no I/O and no allocation.
    pub fn latest_version(&self, key: &Key) -> Option<Version> {
        match self {
            Backend::Dram(s) => s.latest_version(key),
            Backend::Sftl(s) => s.latest_version(key),
            Backend::Vftl(s) => s.latest_version(key),
            Backend::Mftl(s) => s.latest_version(key),
        }
    }

    /// All versions of `key` currently visible, youngest first (SFTL reports
    /// at most one). For tests, migration and recovery; the hot path wants
    /// [`Backend::latest_version`].
    pub fn versions(&self, key: &Key) -> Vec<Version> {
        match self {
            Backend::Dram(s) => s.versions(key),
            Backend::Sftl(s) => s.latest_version(key).into_iter().collect(),
            Backend::Vftl(s) => s.versions(key),
            Backend::Mftl(s) => s.versions(key),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nand::NandStats;
    use crate::types::value;
    use simkit::Sim;
    use timesync::ClientId;

    fn v(ts: u64) -> Version {
        Version::new(Timestamp(ts), ClientId(0))
    }

    fn nand() -> NandConfig {
        NandConfig {
            blocks: 32,
            pages_per_block: 4,
            ..NandConfig::default()
        }
    }

    #[test]
    fn all_backends_round_trip() {
        for kind in [
            BackendKind::Dram,
            BackendKind::Sftl,
            BackendKind::Vftl,
            BackendKind::Mftl,
        ] {
            let mut sim = Sim::new(7);
            let h = sim.handle();
            let b = Backend::new(kind, &h, nand());
            assert_eq!(b.kind(), kind);
            sim.block_on(async move {
                let k = Key::from(5u64);
                b.put(k.clone(), value(&b"hello"[..]), v(10)).await.unwrap();
                let got = b.get_at(&k, Timestamp(10)).await.unwrap();
                assert_eq!(got.version, v(10), "{kind}");
                assert_eq!(&got.value[..], b"hello", "{kind}");
            });
        }
    }

    /// Bulk-loads `cold` keys, then overwrites `hot` keys concurrently for
    /// `rounds` rounds with the watermark a round behind — enough churn that
    /// the GC levels decide when collection starts. Returns the device's
    /// counters.
    fn churn(mut sim: Sim, b: Backend, cold: u64, hot: u64, rounds: u64) -> NandStats {
        let payload = value(vec![7u8; 472]);
        for i in 0..cold {
            b.bulk_load(Key::from(hot + i), payload.clone(), v(1));
        }
        b.finish_load();
        let h = sim.handle();
        let store = b.clone();
        sim.block_on(async move {
            for round in 1..=rounds {
                let mut joins = Vec::new();
                for i in 0..hot {
                    let (s, p) = (store.clone(), payload.clone());
                    let ts = round * 1_000 + i;
                    joins.push(h.spawn(async move { s.put(Key::from(i), p, v(ts)).await }));
                }
                for j in joins {
                    j.await.unwrap();
                }
                store.set_watermark(Timestamp((round - 1) * 1_000 + hot));
            }
        });
        match &b {
            Backend::Mftl(s) => s.device().stats(),
            Backend::Vftl(s) => s.device().stats(),
            _ => unreachable!("churn runs on the packed stores"),
        }
    }

    #[test]
    fn stores_built_directly_collect_like_backend_built_ones() {
        // The packing ablation's device (GC levels 30/7) and store_golden's
        // (207 VFTL segments, levels 12/4): both above the stores' floors.
        let raw = NandConfig {
            channels: 32,
            ..NandConfig::default()
        }
        .sized_for(10_000, 512, 0.08);
        assert_eq!(raw.blocks, 489);
        let split = NandConfig {
            blocks: 32,
            pages_per_block: 8,
            channels: 4,
            queue_depth: 16,
            ..NandConfig::default()
        };
        for (kind, nand, cold, hot, rounds) in [
            (BackendKind::Mftl, raw, 96_000, 64, 160),
            (BackendKind::Vftl, split, 0, 24, 100),
        ] {
            let sim = Sim::new(11);
            let h = sim.handle();
            let direct = match kind {
                BackendKind::Mftl => {
                    Backend::Mftl(UnifiedStore::new(h, nand.clone(), PACKING_WINDOW))
                }
                _ => Backend::Vftl(SplitStore::new(h, nand.clone())),
            };
            let direct = churn(sim, direct, cold, hot, rounds);
            let sim = Sim::new(11);
            let built = Backend::new(kind, &sim.handle(), nand);
            assert_eq!(direct, churn(sim, built, cold, hot, rounds), "{kind}");
            assert!(direct.block_erases > 0, "{kind}: GC never ran: {direct:?}");
        }
    }

    #[test]
    fn multi_version_flag_matches_snapshot_capability() {
        for kind in [
            BackendKind::Dram,
            BackendKind::Sftl,
            BackendKind::Vftl,
            BackendKind::Mftl,
        ] {
            let mut sim = Sim::new(3);
            let h = sim.handle();
            let b = Backend::new(kind, &h, nand());
            sim.block_on(async move {
                let k = Key::from(1u64);
                b.put(k.clone(), value(&b"a"[..]), v(10)).await.unwrap();
                assert_eq!(b.latest_version(&k), Some(v(10)), "{kind}");
                b.put(k.clone(), value(&b"b"[..]), v(20)).await.unwrap();
                assert_eq!(b.latest_version(&k), Some(v(20)), "{kind}");
                assert_eq!(b.latest_version(&k), b.versions(&k).first().copied());
                assert_eq!(b.latest_version(&Key::from(2u64)), None, "{kind}");
                let old = b.get_at(&k, Timestamp(15)).await;
                if kind.is_multi_version() {
                    assert_eq!(old.unwrap().version, v(10), "{kind}");
                } else {
                    assert_eq!(
                        old.unwrap_err(),
                        StoreError::SnapshotUnavailable(v(20)),
                        "{kind}"
                    );
                }
            });
        }
    }
}

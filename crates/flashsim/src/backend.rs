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

    /// Makes this freshly built backend a copy of `from`'s loaded image —
    /// what [`Backend::bulk_load`] of the same records would have built,
    /// after `from`'s [`Backend::finish_load`]. Flash pages are shared with
    /// `from` (a programmed page never changes); this backend's counters,
    /// tracer, media faults and GC task stay its own. Replicas of one shard
    /// hold identical data (§1), so a preload loads one and copies it.
    ///
    /// # Panics
    ///
    /// Panics if the kinds differ.
    pub fn copy_loaded_from(&self, from: &Backend) {
        match (self, from) {
            (Backend::Dram(s), Backend::Dram(f)) => s.copy_loaded_from(f),
            (Backend::Sftl(s), Backend::Sftl(f)) => s.copy_loaded_from(f),
            (Backend::Vftl(s), Backend::Vftl(f)) => s.copy_loaded_from(f),
            (Backend::Mftl(s), Backend::Mftl(f)) => s.copy_loaded_from(f),
            _ => panic!(
                "copy of a {} image into a {} backend",
                from.kind(),
                self.kind()
            ),
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
            (BackendKind::Mftl, raw, 96_000, 64, 480),
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

    /// Enough keys that a load fills blocks past its open append points.
    const COPY_KEYS: u64 = 80;
    const COPY_ROUNDS: u64 = 30;

    fn load(b: &Backend) {
        for i in 0..COPY_KEYS {
            b.bulk_load(Key::from(i), value(vec![i as u8; 472]), v(1));
        }
        b.finish_load();
    }

    /// Per-block `(pages programmed, erase count)` and the counters of a
    /// flash backend's device; `None` for DRAM.
    fn wear(b: &Backend) -> Option<(NandStats, Vec<(u32, u32)>)> {
        fn of<P: Clone + 'static>(d: &crate::nand::NandDevice<P>) -> (NandStats, Vec<(u32, u32)>) {
            let blocks = (0..d.config().blocks)
                .map(|b| (d.pages_programmed(b), d.erase_count(b)))
                .collect();
            (d.stats(), blocks)
        }
        match b {
            Backend::Dram(_) => None,
            Backend::Sftl(s) => Some(of(s.device())),
            Backend::Vftl(s) => Some(of(s.device())),
            Backend::Mftl(s) => Some(of(s.device())),
        }
    }

    /// Folds one operation's outcome into `fold`.
    fn fold_in(fold: &mut u64, got: Result<Option<VersionedValue>, StoreError>) {
        let x = match got {
            Ok(Some(vv)) => vv.version.ts.0 * 1_000 + vv.value[0] as u64,
            Ok(None) => 1,
            Err(e) => e.to_string().len() as u64,
        };
        *fold = fold.wrapping_mul(1_000_003).wrapping_add(x);
    }

    /// Fails power under an in-flight put of `key`, then mounts.
    async fn power_cycle(h: &simkit::SimHandle, store: &Backend, key: u64, ts: u64) -> MountReport {
        let s = store.clone();
        h.spawn(async move { s.put(Key::from(key), value(vec![9; 472]), v(ts)).await });
        h.sleep(std::time::Duration::from_micros(50)).await;
        store.power_fail();
        store.mount().await
    }

    /// Overwrites every loaded key and writes one fresh key for 30 rounds,
    /// with the watermark a round behind (past GC on every flash kind),
    /// failing power under an in-flight put halfway (after GC has run) and
    /// at the end; then reads snapshots. Returns the store's and the device's
    /// counters, both mount reports and a fold of every outcome.
    fn copy_script(
        sim: &mut Sim,
        b: &Backend,
    ) -> (StoreStats, Option<NandStats>, Vec<MountReport>, u64) {
        let h = sim.handle();
        let store = b.clone();
        let (reports, fold) = sim.block_on(async move {
            let (mut reports, mut fold) = (Vec::new(), 0u64);
            for round in 1..=COPY_ROUNDS {
                let joins: Vec<_> = (0..=COPY_KEYS)
                    .map(|i| {
                        let s = store.clone();
                        let p = value(vec![round as u8; 472]);
                        h.spawn(async move { s.put(Key::from(i), p, v(round * 1_000 + i)).await })
                    })
                    .collect();
                for j in joins {
                    fold_in(&mut fold, j.await.map(|()| None));
                }
                store.set_watermark(Timestamp((round - 1) * 1_000 + COPY_KEYS));
                if round == COPY_ROUNDS / 2 || round == COPY_ROUNDS {
                    reports.push(power_cycle(&h, &store, 0, round * 1_000 + 999).await);
                }
            }
            let last = COPY_ROUNDS * 1_000;
            for i in 0..=COPY_KEYS {
                for at in [1, last - 1_000 + 80, last + 80, u64::MAX] {
                    fold_in(
                        &mut fold,
                        store.get_at(&Key::from(i), Timestamp(at)).await.map(Some),
                    );
                }
            }
            (reports, fold)
        });
        (b.stats(), wear(b).map(|(stats, _)| stats), reports, fold)
    }

    #[test]
    fn a_copied_store_behaves_like_a_loaded_one() {
        // Devices small enough that GC must erase loaded blocks; SFTL spends
        // a page per key.
        for (kind, blocks) in [
            (BackendKind::Dram, 16),
            (BackendKind::Sftl, 64),
            (BackendKind::Vftl, 16),
            (BackendKind::Mftl, 16),
        ] {
            let nand = NandConfig {
                blocks,
                pages_per_block: 4,
                channels: 2,
                queue_depth: 16,
                ..NandConfig::default()
            };
            let mut twin = Sim::new(21);
            let (a, b) = (
                Backend::new(kind, &twin.handle(), nand.clone()),
                Backend::new(kind, &twin.handle(), nand.clone()),
            );
            load(&a);
            b.copy_loaded_from(&a);
            let copied = copy_script(&mut twin, &b);

            let mut sim = Sim::new(21);
            let c = Backend::new(kind, &sim.handle(), nand.clone());
            load(&c);
            assert_eq!(copied, copy_script(&mut sim, &c), "{kind}");

            // B's GC erased blocks that held pages it shared with A; A
            // still reads its whole load.
            if let (Some((_, a_blocks)), Some((stats, b_blocks))) = (wear(&a), wear(&b)) {
                assert!(stats.block_erases > 0, "{kind}: GC never ran");
                assert!(
                    a_blocks
                        .iter()
                        .zip(&b_blocks)
                        .any(|(a, b)| a.0 > 0 && b.1 > 0),
                    "{kind}: no shared block was erased"
                );
                assert!(a_blocks.iter().all(|&(_, erased)| erased == 0), "{kind}");
            }
            let reads = twin.block_on(async move {
                let mut reads = Vec::new();
                for i in 0..COPY_KEYS {
                    reads.push(a.get_latest(&Key::from(i)).await.unwrap());
                }
                reads
            });
            for (i, got) in (0..COPY_KEYS).zip(reads) {
                assert_eq!(
                    (got.version, &got.value[..]),
                    (v(1), &[i as u8; 472][..]),
                    "{kind}"
                );
            }
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

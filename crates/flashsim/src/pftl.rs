//! A generic single-level, page-mapped, log-structured FTL.
//!
//! This is the "standard FTL" of §2.2/Figure 2: it exposes a logical block
//! address (LBA) space, maps each LBA to a physical page, writes updates
//! out-of-place in log order, and garbage-collects erase blocks greedily.
//! 10 % of physical capacity is reserved as over-provisioning.
//!
//! The split multi-version store ([`crate::vftl`]) stacks its own KV layer on
//! top of this FTL — the configuration the paper calls **VFTL** — and the
//! single-version store ([`crate::sftl`]) uses it directly (**SFTL**).

use perfkit::FastMap;
use std::cell::RefCell;
use std::rc::Rc;

use simkit::sync::mpsc;
use simkit::SimHandle;

use crate::backend::MountReport;
use crate::nand::{NandConfig, NandDevice, PhysLoc};
use crate::oob::PageOob;
use crate::types::StoreError;
use crate::GcLevels;
use timesync::Timestamp;

/// Fraction of physical capacity hidden from the logical space.
pub const OVERPROVISION: f64 = 0.10;

/// Counters describing FTL-level activity (on top of raw device counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageFtlStats {
    /// User-visible LBA writes.
    pub lba_writes: u64,
    /// User-visible LBA reads.
    pub lba_reads: u64,
    /// Pages relocated by garbage collection.
    pub gc_relocated: u64,
    /// Blocks erased by garbage collection.
    pub gc_erases: u64,
}

#[derive(Debug)]
struct PftlInner {
    map: FastMap<u32, PhysLoc>,
    rmap: FastMap<PhysLoc, u32>,
    /// Parallel append points (super-page striping): consecutive writes
    /// rotate across points, whose blocks land on different channels.
    append: Vec<Option<(u32, u32)>>,
    next_append: usize,
    live: Vec<u32>,
    stats: PageFtlStats,
    gc_nudge: mpsc::Sender<()>,
    /// Monotone per-write sequence stamped into each page's OOB version
    /// field; mount orders duplicate LBA copies by it (newest wins).
    /// Recovered as `max + 1` at mount so stamps never regress.
    seq: u64,
    /// Mount epoch; bumped by power-fail and mount so surviving background
    /// work (GC, stacked-layer flushes) cannot corrupt rebuilt state.
    epoch: u64,
    /// Durable write-floor record stamped into each page's OOB.
    floor: u64,
}

/// A shareable page-mapped FTL over a [`NandDevice`].
#[derive(Debug)]
pub struct PageFtl<P> {
    handle: SimHandle,
    dev: NandDevice<P>,
    gc: GcLevels,
    logical_pages: u32,
    inner: Rc<RefCell<PftlInner>>,
    gc_lock: simkit::sync::Semaphore,
}

impl<P> Clone for PageFtl<P> {
    fn clone(&self) -> Self {
        PageFtl {
            handle: self.handle.clone(),
            dev: self.dev.clone(),
            gc: self.gc,
            logical_pages: self.logical_pages,
            inner: self.inner.clone(),
            gc_lock: self.gc_lock.clone(),
        }
    }
}

impl<P: Clone + 'static> PageFtl<P> {
    /// Creates an FTL over a fresh device and spawns its background GC task
    /// (owned by no node; it dies with the simulation).
    pub fn new(handle: SimHandle, nand: NandConfig) -> PageFtl<P> {
        let dev = NandDevice::new(handle.clone(), nand);
        Self::over(handle, dev)
    }

    /// Creates an FTL over an existing device.
    pub fn over(handle: SimHandle, dev: NandDevice<P>) -> PageFtl<P> {
        let total = dev.config().total_pages();
        let logical_pages = ((total as f64) * (1.0 - OVERPROVISION)).floor() as u32;
        let blocks = dev.config().blocks as usize;
        // One append point per channel where the device is big enough.
        let points = (dev.config().channels as usize).min((blocks / 8).max(1));
        let (tx, rx) = mpsc::channel();
        let ftl = PageFtl {
            handle: handle.clone(),
            dev,
            gc: GcLevels::scaled(blocks, 3, 1),
            logical_pages,
            inner: Rc::new(RefCell::new(PftlInner {
                map: FastMap::default(),
                rmap: FastMap::default(),
                append: vec![None; points],
                next_append: 0,
                live: vec![0; blocks],
                stats: PageFtlStats::default(),
                gc_nudge: tx,
                seq: 1,
                epoch: 0,
                floor: 0,
            })),
            gc_lock: simkit::sync::Semaphore::new(1),
        };
        let me = ftl.clone();
        handle.spawn(async move {
            while rx.recv().await.is_some() {
                while me.dev.free_blocks() <= me.gc.low_water {
                    if !me.collect_once().await {
                        break;
                    }
                }
            }
        });
        ftl
    }

    /// Number of logical pages exposed (physical minus over-provisioning).
    pub fn logical_pages(&self) -> u32 {
        self.logical_pages
    }

    /// The underlying device (for stats and shared-device setups).
    pub fn device(&self) -> &NandDevice<P> {
        &self.dev
    }

    /// FTL activity counters.
    pub fn stats(&self) -> PageFtlStats {
        self.inner.borrow().stats
    }

    /// Allocates the next append slot, rotating across the parallel append
    /// points. `for_gc` may dip into the reserve.
    fn alloc_slot(&self, for_gc: bool) -> Option<PhysLoc> {
        let mut inner = self.inner.borrow_mut();
        let pages_per_block = self.dev.config().pages_per_block;
        let point = inner.next_append;
        inner.next_append = (point + 1) % inner.append.len();
        if let Some((b, p)) = inner.append[point] {
            if p < pages_per_block {
                inner.append[point] = Some((b, p + 1));
                return Some(PhysLoc { block: b, page: p });
            }
        }
        let reserve = if for_gc { 0 } else { self.gc.reserve };
        if self.dev.free_blocks() <= reserve {
            return None;
        }
        let b = self.dev.alloc_block()?;
        inner.append[point] = Some((b, 1));
        Some(PhysLoc { block: b, page: 0 })
    }

    fn nudge_gc(&self) {
        if self.dev.free_blocks() <= self.gc.low_water {
            let inner = self.inner.borrow();
            let _ = inner.gc_nudge.send(());
        }
    }

    /// Writes `payload` to logical page `lba`, remapping it out-of-place.
    ///
    /// # Errors
    ///
    /// - [`StoreError::NotFound`] if `lba` is out of the logical range.
    /// - [`StoreError::CapacityExhausted`] if GC cannot free space.
    pub async fn write(&self, lba: u32, payload: P) -> Result<(), StoreError> {
        if lba >= self.logical_pages {
            return Err(StoreError::NotFound);
        }
        let loc = loop {
            if let Some(loc) = self.alloc_slot(false) {
                break loc;
            }
            if !self.collect_once().await {
                return Err(StoreError::CapacityExhausted);
            }
        };
        let (oob, epoch) = self.next_oob(lba);
        self.dev
            .program_with_oob(loc, payload, oob)
            .await
            .expect("FTL program invariant violated");
        {
            let mut inner = self.inner.borrow_mut();
            // A power failure reset the mapping table while this program was
            // in flight; the rebuilt state must not see it.
            if inner.epoch != epoch {
                return Err(StoreError::CapacityExhausted);
            }
            if let Some(old) = inner.map.insert(lba, loc) {
                inner.rmap.remove(&old);
                inner.live[old.block as usize] -= 1;
            }
            inner.rmap.insert(loc, lba);
            inner.live[loc.block as usize] += 1;
            inner.stats.lba_writes += 1;
        }
        self.nudge_gc();
        Ok(())
    }

    /// Stamps OOB for the next program of `lba` and returns it with the
    /// current mount epoch (for post-program staleness checks).
    fn next_oob(&self, lba: u32) -> (PageOob, u64) {
        let mut inner = self.inner.borrow_mut();
        let seq = inner.seq;
        inner.seq += 1;
        (
            PageOob::new(lba as u64, seq, inner.epoch, inner.floor),
            inner.epoch,
        )
    }

    /// Reads logical page `lba`.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] if the LBA is unmapped.
    pub async fn read(&self, lba: u32) -> Result<P, StoreError> {
        // GC may remap the LBA between lookup and device read; retry on a
        // fresh mapping. The device clones the payload synchronously, so a
        // successful read is never torn.
        for _ in 0..8 {
            let loc = {
                let inner = self.inner.borrow();
                match inner.map.get(&lba) {
                    Some(&loc) => loc,
                    None => return Err(StoreError::NotFound),
                }
            };
            match self.dev.read(loc).await {
                Ok(p) => {
                    self.inner.borrow_mut().stats.lba_reads += 1;
                    return Ok(p);
                }
                Err(_) => continue,
            }
        }
        unreachable!("LBA {lba} kept moving during read; GC livelock");
    }

    /// All currently mapped LBAs in ascending order (deterministic
    /// iteration for stacked-layer mount rebuilds).
    pub fn mapped_lbas(&self) -> Vec<u32> {
        let mut ls: Vec<u32> = self.inner.borrow().map.keys().copied().collect();
        ls.sort_unstable();
        ls
    }

    /// Zero-time payload peek of a mapped LBA (stacked layers rebuild their
    /// key maps from these after [`PageFtl::mount`]; the mount scan already
    /// charged the read time).
    pub fn peek_lba(&self, lba: u32) -> Option<P> {
        let loc = *self.inner.borrow().map.get(&lba)?;
        self.dev.peek(loc)
    }

    /// Unmaps `lba`, making its physical page garbage.
    pub fn trim(&self, lba: u32) {
        let mut inner = self.inner.borrow_mut();
        if let Some(old) = inner.map.remove(&lba) {
            inner.rmap.remove(&old);
            inner.live[old.block as usize] -= 1;
        }
    }

    /// True if `lba` is mapped.
    pub fn is_mapped(&self, lba: u32) -> bool {
        self.inner.borrow().map.contains_key(&lba)
    }

    /// Zero-time write for bulk-loading datasets.
    ///
    /// # Panics
    ///
    /// Panics if the device runs out of space during the load.
    pub fn install(&self, lba: u32, payload: P) {
        assert!(lba < self.logical_pages, "install outside logical range");
        let loc = self
            .alloc_slot(false)
            .expect("device full during bulk load");
        let (oob, _) = self.next_oob(lba);
        self.dev
            .install_with_oob(loc, payload, oob)
            .expect("install program order");
        let mut inner = self.inner.borrow_mut();
        if let Some(old) = inner.map.insert(lba, loc) {
            inner.rmap.remove(&old);
            inner.live[old.block as usize] -= 1;
        }
        inner.rmap.insert(loc, lba);
        inner.live[loc.block as usize] += 1;
    }

    /// Makes this fresh FTL a copy of `from`'s bulk-loaded image: the
    /// device's pages, the LBA map both ways, append points, live counts,
    /// the OOB sequence and the floor. Its counters, GC channel and mount
    /// epoch stay its own (a load counts nothing and bumps no epoch).
    pub(crate) fn copy_loaded_from(&self, from: &PageFtl<P>) {
        self.dev.copy_loaded_from(&from.dev);
        let src = from.inner.borrow();
        let mut inner = self.inner.borrow_mut();
        debug_assert_eq!((inner.epoch, src.epoch), (0, 0), "copy after a mount");
        inner.map.clone_from(&src.map);
        inner.rmap.clone_from(&src.rmap);
        inner.append.clone_from(&src.append);
        inner.next_append = src.next_append;
        inner.live.clone_from(&src.live);
        inner.seq = src.seq;
        inner.floor = src.floor;
    }

    /// Records the durable write floor; subsequent page programs stamp it
    /// into their OOB. Floors never move backwards.
    pub fn note_floor(&self, ts: Timestamp) {
        let mut inner = self.inner.borrow_mut();
        if ts.0 > inner.floor {
            inner.floor = ts.0;
        }
    }

    /// Injects a power failure: tears in-flight programs on the device and
    /// drops the volatile mapping table. Returns the number of torn pages.
    pub fn power_fail(&self) -> u64 {
        let torn = self.dev.power_fail();
        let mut inner = self.inner.borrow_mut();
        inner.epoch += 1;
        reset_volatile(&mut inner);
        torn
    }

    /// Deterministic mount scan: rebuilds the LBA mapping from per-page OOB
    /// (newest sequence stamp wins per LBA), discarding torn pages, and
    /// recovers the durable floor. `keys` in the report counts mapped LBAs.
    pub async fn mount(&self) -> MountReport {
        let _gc = self.gc_lock.acquire().await;
        {
            let mut inner = self.inner.borrow_mut();
            inner.epoch += 1;
            reset_volatile(&mut inner);
        }
        let scan = self.dev.mount_scan().await;
        let mut torn = 0u64;
        let mut floor = 0u64;
        let mut seq_max = 0u64;
        // Winner per LBA: highest (sequence stamp, location).
        let mut best: FastMap<u32, (u64, PhysLoc)> = FastMap::default();
        for sp in &scan {
            let Some(oob) = sp.oob.filter(|o| !o.is_torn()) else {
                torn += 1;
                continue;
            };
            floor = floor.max(oob.floor);
            seq_max = seq_max.max(oob.version);
            let lba = oob.key as u32;
            let cand = (oob.version, sp.loc);
            let e = best.entry(lba).or_insert(cand);
            if cand > *e {
                *e = cand;
            }
        }
        let mut inner = self.inner.borrow_mut();
        for (&lba, &(_, loc)) in &best {
            inner.map.insert(lba, loc);
            inner.rmap.insert(loc, lba);
            inner.live[loc.block as usize] += 1;
        }
        inner.seq = seq_max + 1;
        inner.floor = floor;
        MountReport {
            pages_scanned: scan.len() as u64,
            torn_pages: torn,
            keys: best.len() as u64,
            floor: Timestamp(floor),
        }
    }

    /// Collects the fullest-garbage block. Returns false if nothing is
    /// collectible (every candidate block is fully live). Only one
    /// collection runs at a time; concurrent callers queue on the GC lock.
    async fn collect_once(&self) -> bool {
        let _gc = self.gc_lock.acquire().await;
        let epoch = self.inner.borrow().epoch;
        let pages_per_block = self.dev.config().pages_per_block;
        let victim = {
            let inner = self.inner.borrow();
            let append_blocks: Vec<u32> = inner
                .append
                .iter()
                .filter_map(|a| a.map(|(b, _)| b))
                .collect();
            (0..inner.live.len() as u32)
                .filter(|&b| !append_blocks.contains(&b) && !self.dev.programming(b))
                .filter(|&b| self.dev.pages_programmed(b) > inner.live[b as usize])
                .max_by_key(|&b| self.dev.pages_programmed(b) - inner.live[b as usize])
        };
        // No block holds any garbage: erasing would free nothing.
        let Some(victim) = victim else { return false };
        let reclaimed = {
            let inner = self.inner.borrow();
            (self.dev.pages_programmed(victim) - inner.live[victim as usize]) as u64
        };
        // Relocate every still-mapped page, with reads and programs issued
        // concurrently across the device's channels.
        let mut jobs = Vec::new();
        for page in 0..pages_per_block {
            let loc = PhysLoc {
                block: victim,
                page,
            };
            let lba = match self.inner.borrow().rmap.get(&loc) {
                Some(&lba) => lba,
                None => continue,
            };
            let me = self.clone();
            jobs.push(self.handle.spawn(async move {
                let Some(payload) = me.dev.peek(loc) else {
                    return true;
                };
                // Charge a page read for the relocation.
                let _ = me.dev.read(loc).await;
                let new_loc = match me.alloc_slot(true) {
                    Some(l) => l,
                    None => return false, // reserve exhausted
                };
                let (oob, _) = me.next_oob(lba);
                me.dev
                    .program_with_oob(new_loc, payload, oob)
                    .await
                    .expect("GC program invariant");
                let mut inner = me.inner.borrow_mut();
                // Commit only if the mapping still points at the old
                // location (a concurrent user write may have superseded it).
                if inner.map.get(&lba) == Some(&loc) {
                    inner.map.insert(lba, new_loc);
                    inner.rmap.remove(&loc);
                    inner.rmap.insert(new_loc, lba);
                    inner.live[victim as usize] -= 1;
                    inner.live[new_loc.block as usize] += 1;
                    inner.stats.gc_relocated += 1;
                }
                true
            }));
        }
        let mut all_ok = true;
        for j in jobs {
            all_ok &= j.await;
        }
        if !all_ok {
            return false; // give up this round; space remains consistent
        }
        // A power failure interrupted this pass (possibly tearing relocated
        // copies): abort without erasing so the victim's intact originals
        // survive for the mount scan to recover.
        if self.inner.borrow().epoch != epoch {
            return false;
        }
        self.dev.erase(victim).await.expect("GC erase");
        debug_assert_eq!(self.inner.borrow().live[victim as usize], 0);
        self.inner.borrow_mut().stats.gc_erases += 1;
        self.dev.trace_gc(reclaimed);
        true
    }
}

/// Drops RAM-resident FTL state the way a power failure would. The
/// sequence counter is rebuilt by the mount scan.
fn reset_volatile(inner: &mut PftlInner) {
    inner.map.clear();
    inner.rmap.clear();
    for a in &mut inner.append {
        *a = None;
    }
    inner.next_append = 0;
    for b in &mut inner.live {
        *b = 0;
    }
    inner.floor = 0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::Sim;

    fn cfg(blocks: u32) -> NandConfig {
        NandConfig {
            blocks,
            pages_per_block: 4,
            channels: 2,
            queue_depth: 8,
            ..NandConfig::default()
        }
    }

    #[test]
    fn write_read_round_trip() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        sim.block_on(async move {
            let ftl: PageFtl<u32> = PageFtl::new(h, cfg(8));
            ftl.write(3, 30).await.unwrap();
            ftl.write(5, 50).await.unwrap();
            assert_eq!(ftl.read(3).await.unwrap(), 30);
            assert_eq!(ftl.read(5).await.unwrap(), 50);
        });
    }

    #[test]
    fn overwrite_returns_latest() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        sim.block_on(async move {
            let ftl: PageFtl<u32> = PageFtl::new(h, cfg(8));
            for i in 0..10 {
                ftl.write(1, i).await.unwrap();
            }
            assert_eq!(ftl.read(1).await.unwrap(), 9);
        });
    }

    #[test]
    fn unmapped_lba_not_found() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        sim.block_on(async move {
            let ftl: PageFtl<u32> = PageFtl::new(h, cfg(8));
            assert_eq!(ftl.read(0).await.unwrap_err(), StoreError::NotFound);
            ftl.write(0, 1).await.unwrap();
            ftl.trim(0);
            assert_eq!(ftl.read(0).await.unwrap_err(), StoreError::NotFound);
        });
    }

    #[test]
    fn gc_reclaims_overwritten_space() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        sim.block_on(async move {
            // 8 blocks * 4 pages = 32 phys pages, ~28 logical.
            let ftl: PageFtl<u32> = PageFtl::new(h, cfg(8));
            // Hammer one LBA far beyond raw capacity; GC must keep up.
            for i in 0..200 {
                ftl.write(0, i).await.unwrap();
            }
            assert_eq!(ftl.read(0).await.unwrap(), 199);
            assert!(ftl.stats().gc_erases > 10);
        });
    }

    #[test]
    fn capacity_exhausted_when_all_live() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        sim.block_on(async move {
            // 16 phys pages, a tenth of them hidden.
            let ftl: PageFtl<u32> = PageFtl::new(h, cfg(4));
            assert_eq!(OVERPROVISION, 0.10);
            assert_eq!(ftl.logical_pages(), 14);
            // Fill every logical page with live data.
            let mut failed = None;
            for lba in 0..ftl.logical_pages() {
                if let Err(e) = ftl.write(lba, lba).await {
                    failed = Some(e);
                    break;
                }
            }
            // The spare tenth is less than the block GC keeps for itself:
            // with all data live, late writes cannot proceed.
            assert_eq!(failed, Some(StoreError::CapacityExhausted));
        });
    }

    #[test]
    fn data_survives_heavy_mixed_traffic() {
        let mut sim = Sim::new(5);
        let h = sim.handle();
        sim.block_on(async move {
            let ftl: PageFtl<(u32, u32)> = PageFtl::new(h.clone(), cfg(16));
            let lbas = 40u32; // of ~57 logical
            let mut latest = vec![None; lbas as usize];
            let mut x = 1u64;
            for round in 0..400u32 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let lba = (x % lbas as u64) as u32;
                ftl.write(lba, (lba, round)).await.unwrap();
                latest[lba as usize] = Some(round);
            }
            for lba in 0..lbas {
                if let Some(round) = latest[lba as usize] {
                    assert_eq!(ftl.read(lba).await.unwrap(), (lba, round));
                }
            }
        });
    }

    #[test]
    fn mount_recovers_mapping_after_power_fail() {
        let mut sim = Sim::new(3);
        let h = sim.handle();
        sim.block_on(async move {
            let ftl: PageFtl<u32> = PageFtl::new(h.clone(), cfg(8));
            for lba in 0..6 {
                ftl.write(lba, lba + 100).await.unwrap();
            }
            // Overwrite leaves two copies of LBA 2; newest must win at mount.
            ftl.write(2, 999).await.unwrap();
            // Tear an in-flight overwrite of LBA 5.
            let f2 = ftl.clone();
            h.spawn(async move {
                let _ = f2.write(5, 777).await;
            });
            h.sleep(std::time::Duration::from_micros(10)).await;
            assert_eq!(ftl.power_fail(), 1);
            let report = ftl.mount().await;
            assert_eq!(report.torn_pages, 1);
            assert_eq!(report.keys, 6);
            assert_eq!(ftl.read(2).await.unwrap(), 999);
            // The torn overwrite was never acknowledged: old value survives.
            assert_eq!(ftl.read(5).await.unwrap(), 105);
            for lba in [0u32, 1, 3, 4] {
                assert_eq!(ftl.read(lba).await.unwrap(), lba + 100);
            }
        });
    }

    #[test]
    fn install_bulk_loads_without_time() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let ftl: PageFtl<u32> = PageFtl::new(h.clone(), cfg(8));
        for lba in 0..20 {
            ftl.install(lba, lba * 10);
        }
        assert_eq!(h.now(), simkit::SimTime::ZERO);
        sim.block_on(async move {
            assert_eq!(ftl.read(7).await.unwrap(), 70);
        });
    }
}

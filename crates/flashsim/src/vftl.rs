//! VFTL — a *split* multi-version KV store stacked on a generic FTL.
//!
//! The paper's main storage baseline (§5.1, Table 1): the same multi-version
//! KV layer as MFTL ([`crate::packed`]), but sitting above a standard
//! page-mapped FTL ([`crate::pftl`]) instead of on raw flash. The split
//! costs real resources:
//!
//! - **two mapping steps** — key → segment (LBA) → physical page;
//! - **two garbage collectors** — the KV layer compacts segments with dead
//!   tuples (rewriting live ones), *and* the FTL underneath relocates whole
//!   pages to free erase blocks;
//! - **two over-provisioning reserves** — 10 % of capacity is withheld at
//!   each level, so the same device holds less user data and collects more.
//!
//! Table 1's experiment measures exactly this overhead against MFTL.
//!
//! This module is the [`Space`] that makes a [`PackedStore`] split: packed
//! pages go to logical segments drawn from a free-LBA list, live data is
//! accounted and compacted per segment, reclaiming is a trim, and a mount
//! rebuilds from whatever the bottom FTL's own mount still maps.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Duration;

use simkit::SimHandle;
use timesync::Timestamp;

use crate::backend::MountReport;
use crate::mftl::PACKING_WINDOW;
use crate::nand::{NandConfig, NandDevice};
use crate::packed::{PackedStore, Page, Space};
use crate::pftl::PageFtl;
use crate::types::StoreError;
use crate::GcLevels;

/// One logical segment's payload: packed tuples (a 4 KB page worth).
pub type Segment = Page;

/// Fraction of *logical* space the KV layer reserves for its own GC — the
/// "10 % at a second level" of §5.1.
const TOP_OVERPROVISION: f64 = 0.10;

/// Per-operation software overhead: two mapping steps through a block
/// interface (key → LBA in the KV layer, LBA → physical in the FTL).
pub const OP_OVERHEAD: Duration = Duration::from_micros(8);

/// The split (VFTL) multi-version store. Cloning shares the store.
pub type SplitStore = PackedStore<OverFtl>;

impl PackedStore<OverFtl> {
    /// Creates a VFTL store: a KV layer over a fresh generic FTL, with GC
    /// tasks at both levels. It packs with MFTL's [`PACKING_WINDOW`].
    pub fn new(handle: SimHandle, nand: NandConfig) -> SplitStore {
        let segments = (nand.total_pages() as f64 * 0.81) as usize; // after both OPs
        let space = OverFtl {
            ftl: PageFtl::new(handle.clone(), nand),
            gc: GcLevels::scaled(segments, 8, 4),
            st: RefCell::new(SegState::default()),
        };
        space.st.borrow_mut().free_lbas = (0..space.usable()).rev().collect();
        PackedStore::over(handle, space, OP_OVERHEAD, PACKING_WINDOW)
    }

    /// The FTL underneath (for stats: its GC traffic is the split's cost).
    pub fn ftl(&self) -> &PageFtl<Segment> {
        &self.space().ftl
    }
}

#[derive(Default, Clone)]
struct SegState {
    free_lbas: Vec<u32>,
    /// Mapped tuples per written segment. Deterministically ordered so GC
    /// victim ties never depend on hash iteration order.
    live: BTreeMap<u32, u32>,
    /// Tuples written to each segment (live + garbage).
    written: BTreeMap<u32, u32>,
}

/// The split design's [`Space`]: the LBA space of a generic page-mapped FTL.
pub struct OverFtl {
    ftl: PageFtl<Segment>,
    gc: GcLevels,
    st: RefCell<SegState>,
}

impl OverFtl {
    /// Segments the KV layer may use: the FTL's logical pages minus the
    /// second-level over-provisioning.
    fn usable(&self) -> u32 {
        ((self.ftl.logical_pages() as f64) * (1.0 - TOP_OVERPROVISION)).floor() as u32
    }
}

impl Space for OverFtl {
    type Addr = u32;
    type Victim = u32;

    fn device(&self) -> &NandDevice<Page> {
        self.ftl.device()
    }

    /// Any free segment will do: the FTL underneath stripes the streams.
    fn alloc(&self, _stream: usize, for_gc: bool) -> Option<u32> {
        let mut st = self.st.borrow_mut();
        let reserve = if for_gc { 0 } else { self.gc.reserve };
        if st.free_lbas.len() <= reserve {
            return None;
        }
        st.free_lbas.pop()
    }

    fn release(&self, lba: u32) {
        self.st.borrow_mut().free_lbas.push(lba);
    }

    /// The bottom FTL stamps its own OOB (and mount epoch).
    async fn program(&self, lba: u32, seg: Segment, _epoch: u64) -> Result<(), StoreError> {
        let written = self.ftl.write(lba, seg).await;
        debug_assert!(matches!(
            written,
            Ok(()) | Err(StoreError::CapacityExhausted)
        ));
        written
    }

    fn install(&self, seg: Segment, _epoch: u64) -> u32 {
        let lba = self.alloc(0, false).expect("store full during bulk load");
        self.ftl.install(lba, seg);
        lba
    }

    async fn read(&self, lba: u32) -> Option<Segment> {
        self.ftl.read(lba).await.ok()
    }

    fn note_programmed(&self, lba: u32, tuples: u32) {
        let mut st = self.st.borrow_mut();
        *st.written.entry(lba).or_insert(0) += tuples;
        st.live.entry(lba).or_insert(0);
    }

    fn live_inc(&self, lba: u32) {
        *self.st.borrow_mut().live.get_mut(&lba).expect("live count") += 1;
    }

    fn live_dec(&self, lba: u32) {
        *self.st.borrow_mut().live.get_mut(&lba).expect("live count") -= 1;
    }

    fn low_on_space(&self) -> bool {
        self.st.borrow().free_lbas.len() <= self.gc.low_water
    }

    /// The segment with the most dead tuples.
    fn pick_victim(&self) -> Option<u32> {
        let st = self.st.borrow();
        let live = |lba: &u32| st.live.get(lba).copied().unwrap_or(0);
        st.written
            .iter()
            .filter(|&(lba, &w)| w > live(lba))
            .max_by_key(|&(lba, &w)| w - live(lba))
            .map(|(&lba, _)| lba)
    }

    async fn read_victim(&self, lba: u32) -> Option<Vec<(u32, Segment)>> {
        match self.ftl.read(lba).await {
            Ok(seg) => Some(vec![(lba, seg)]),
            Err(_) => {
                // Unmapped (race with another collection); drop the
                // bookkeeping.
                let mut st = self.st.borrow_mut();
                st.written.remove(&lba);
                st.live.remove(&lba);
                None
            }
        }
    }

    async fn reclaim(&self, lba: u32) -> u64 {
        self.ftl.trim(lba);
        let mut st = self.st.borrow_mut();
        debug_assert_eq!(st.live.get(&lba).copied().unwrap_or(0), 0);
        st.live.remove(&lba);
        st.free_lbas.push(lba);
        st.written.remove(&lba).unwrap_or(0) as u64
    }

    fn note_floor(&self, ts: Timestamp) {
        self.ftl.note_floor(ts);
    }

    fn power_fail(&self) -> u64 {
        self.ftl.power_fail()
    }

    fn reset(&self) {
        *self.st.borrow_mut() = SegState::default();
    }

    fn copy_loaded_from(&self, from: &OverFtl) {
        self.ftl.copy_loaded_from(&from.ftl);
        self.st.borrow_mut().clone_from(&from.st.borrow());
    }

    /// Two-level mount: the bottom FTL rebuilds its LBA map from OOB, then
    /// every surviving segment is handed back in ascending LBA order.
    async fn mount_scan(&self) -> (MountReport, Vec<(u32, Segment)>) {
        let report = self.ftl.mount().await;
        let mapped = self.ftl.mapped_lbas();
        let segments: Vec<(u32, Segment)> = mapped
            .iter()
            .filter_map(|&lba| Some((lba, self.ftl.peek_lba(lba)?)))
            .collect();
        for (lba, seg) in &segments {
            self.note_programmed(*lba, seg.len() as u32);
        }
        // `mapped` is sorted, so membership is a binary search.
        self.st.borrow_mut().free_lbas = (0..self.usable())
            .rev()
            .filter(|l| mapped.binary_search(l).is_err())
            .collect();
        (report, segments)
    }
}

#[cfg(test)]
mod tests {
    //! The split's own cost — two levels of GC; what both spaces share is
    //! tested once, over both, in [`crate::packed`].

    use super::*;
    use crate::types::{value, Key, Value};
    use simkit::Sim;
    use timesync::{ClientId, Version};

    fn v(ts: u64) -> Version {
        Version::new(Timestamp(ts), ClientId(0))
    }

    fn nand(blocks: u32) -> NandConfig {
        NandConfig {
            blocks,
            pages_per_block: 4,
            channels: 2,
            queue_depth: 16,
            ..NandConfig::default()
        }
    }

    fn val(n: usize) -> Value {
        value(vec![0xcdu8; n])
    }

    fn store(sim: &Sim, blocks: u32) -> SplitStore {
        SplitStore::new(sim.handle(), nand(blocks))
    }

    #[test]
    fn double_gc_reclaims_space() {
        let mut sim = Sim::new(3);
        let h = sim.handle();
        // Small device: 20 blocks * 4 pages = 80 pages; 72 logical after
        // bottom OP; ~64 segments after top OP.
        let s = store(&sim, 20);
        sim.block_on(async move {
            let keys = 30u64;
            for round in 0..40u64 {
                let mut joins = Vec::new();
                for i in 0..keys {
                    let ts = round * 100 + i + 1;
                    let s2 = s.clone();
                    joins.push(h.spawn(async move {
                        s2.put(Key::from(i), val(472), v(ts)).await.unwrap();
                    }));
                }
                for j in joins {
                    j.await;
                }
                s.set_watermark(Timestamp(round * 100));
            }
            let top = s.stats();
            assert!(top.gc_collections > 5, "top GC ran: {top:?}");
            for i in 0..keys {
                let got = s.get_latest(&Key::from(i)).await.unwrap();
                assert_eq!(got.version, v(39 * 100 + i + 1));
            }
        });
    }

    #[test]
    fn both_levels_of_gc_observable() {
        let mut sim = Sim::new(4);
        let h = sim.handle();
        let s = store(&sim, 16);
        sim.block_on(async move {
            let keys = 20u64;
            for round in 0..60u64 {
                let mut joins = Vec::new();
                for i in 0..keys {
                    let ts = round * 100 + i + 1;
                    let s2 = s.clone();
                    let h2 = h.clone();
                    joins.push(h.spawn(async move {
                        // Transient capacity backpressure is expected on a
                        // device this tight; retry like a real client.
                        loop {
                            match s2.put(Key::from(i), val(472), v(ts)).await {
                                Ok(()) => break,
                                Err(StoreError::CapacityExhausted) => {
                                    h2.sleep(Duration::from_millis(2)).await;
                                }
                                Err(e) => panic!("{e}"),
                            }
                        }
                    }));
                }
                for j in joins {
                    j.await;
                }
                s.set_watermark(Timestamp(round * 100));
            }
            // Top-level compactions happened...
            assert!(s.stats().gc_collections > 0);
            // ...and the bottom FTL erased blocks too.
            assert!(s.ftl().device().stats().block_erases > 0);
        });
    }
}

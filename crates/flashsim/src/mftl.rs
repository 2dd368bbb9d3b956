//! MFTL — the unified multi-version flash translation layer (SEMEL SDF, §3.1).
//!
//! The paper's third contribution: instead of stacking a KV store on a block
//! FTL (two mapping steps, two garbage collectors), MFTL maps each **key
//! directly to the physical flash location of each of its versions**, and
//! version management rides along with flash management:
//!
//! - the mapping table keeps a per-key chain of versions sorted by
//!   descending version stamp (Figure 3);
//! - writes are packed into pages by the shared packing logic of
//!   [`crate::packed`];
//! - old versions are *free*: flash's remap-on-write leaves them in place;
//! - one unified garbage collector relocates live tuples and discards
//!   versions that fell below the watermark (§3.1) in the same pass.
//!
//! This module is the [`Space`] that makes a [`PackedStore`] unified: packed
//! pages go straight to physical flash pages ([`PhysLoc`]), each packing
//! stream appends to its own open erase block, live data is accounted and
//! collected per erase block, and a mount reads the raw device's OOB scan.

use std::cell::RefCell;
use std::time::Duration;

use simkit::sync::join_all;
use simkit::SimHandle;
use timesync::Timestamp;

use crate::backend::MountReport;
use crate::nand::{NandConfig, NandDevice, PhysLoc};
use crate::oob::PageOob;
use crate::packed::{stream_count, PackedStore, Space};
use crate::types::{StoreError, TupleRecord};
use crate::GcLevels;

pub use crate::packed::Page;

/// Per-operation software overhead: one unified mapping-table access (§3.1
/// — SDF collapses the two-step translation into one).
pub const OP_OVERHEAD: Duration = Duration::from_micros(1);

/// The paper's packing delay: the longest a tuple waits in the packer before
/// a partial page is flushed (§5; the one store knob it calls tunable).
pub const PACKING_WINDOW: Duration = Duration::from_millis(1);

/// The unified multi-version FTL store. Cloning shares the store.
pub type UnifiedStore = PackedStore<RawFlash>;

impl PackedStore<RawFlash> {
    /// Creates an MFTL store over a fresh device and spawns its GC task.
    /// `packing_window` is normally [`PACKING_WINDOW`].
    pub fn new(handle: SimHandle, nand: NandConfig, packing_window: Duration) -> UnifiedStore {
        let dev = NandDevice::new(handle.clone(), nand);
        let blocks = dev.config().blocks as usize;
        let points = stream_count(dev.config());
        let space = RawFlash {
            handle: handle.clone(),
            dev,
            gc: GcLevels::scaled(blocks, 4, 2),
            st: RefCell::new(RawState {
                append: vec![None; points],
                load_append: vec![None; points],
                next_load_append: 0,
                live: vec![0; blocks],
                written: vec![0; blocks],
                floor: Timestamp::ZERO,
            }),
        };
        PackedStore::over(handle, space, OP_OVERHEAD, packing_window)
    }
}

/// An open erase block's append point: `(block, next page)`.
type AppendPoint = Option<(u32, u32)>;

struct RawState {
    /// One append point per packing stream.
    append: Vec<AppendPoint>,
    /// Append points used only by the zero-time bulk loader (striped across
    /// channels like the runtime packing streams).
    load_append: Vec<AppendPoint>,
    next_load_append: usize,
    /// Mapped tuples per block.
    live: Vec<u32>,
    /// Tuples ever written to each block since its last erase (live +
    /// garbage); the GC victim picker maximizes `written - live`.
    written: Vec<u32>,
    /// Durable write-floor record stamped into each programmed page's OOB;
    /// recovered at mount as the max over intact pages.
    floor: Timestamp,
}

/// The unified design's [`Space`]: the raw NAND device itself.
pub struct RawFlash {
    handle: SimHandle,
    dev: NandDevice<Page>,
    gc: GcLevels,
    st: RefCell<RawState>,
}

impl RawFlash {
    /// Advances `point` by one page, opening a fresh block (if more than
    /// `reserve` are free) when its block is full.
    fn append(&self, point: &mut AppendPoint, reserve: usize) -> Option<PhysLoc> {
        if let Some((block, page)) = *point {
            if page < self.dev.config().pages_per_block {
                *point = Some((block, page + 1));
                return Some(PhysLoc { block, page });
            }
        }
        if self.dev.free_blocks() <= reserve {
            return None;
        }
        let block = self.dev.alloc_block()?;
        *point = Some((block, 1));
        Some(PhysLoc { block, page: 0 })
    }

    fn oob(&self, page: &[TupleRecord], epoch: u64) -> PageOob {
        PageOob::new(
            page.first().map(|r| r.key.trace_id()).unwrap_or(0),
            page.iter().map(|r| r.version.ts.0).max().unwrap_or(0),
            epoch,
            self.st.borrow().floor.0,
        )
    }
}

impl Space for RawFlash {
    type Addr = PhysLoc;
    type Victim = u32;

    fn device(&self) -> &NandDevice<Page> {
        &self.dev
    }

    fn alloc(&self, stream: usize, for_gc: bool) -> Option<PhysLoc> {
        let reserve = if for_gc { 0 } else { self.gc.reserve };
        self.append(&mut self.st.borrow_mut().append[stream], reserve)
    }

    fn release(&self, _addr: PhysLoc) {
        unreachable!("raw flash programs cannot fail")
    }

    async fn program(&self, loc: PhysLoc, page: Page, epoch: u64) -> Result<(), StoreError> {
        let oob = self.oob(&page, epoch);
        self.dev
            .program_with_oob(loc, page, oob)
            .await
            .expect("MFTL program invariant");
        Ok(())
    }

    fn install(&self, page: Page, epoch: u64) -> PhysLoc {
        let loc = {
            let st = &mut *self.st.borrow_mut();
            let point = st.next_load_append;
            st.next_load_append = (point + 1) % st.load_append.len();
            self.append(&mut st.load_append[point], 0)
                .expect("device full during bulk load")
        };
        let oob = self.oob(&page, epoch);
        self.dev
            .install_with_oob(loc, page, oob)
            .expect("bulk load program order");
        loc
    }

    async fn read(&self, loc: PhysLoc) -> Option<Page> {
        self.dev.read(loc).await.ok()
    }

    fn note_programmed(&self, loc: PhysLoc, tuples: u32) {
        self.st.borrow_mut().written[loc.block as usize] += tuples;
    }

    fn live_inc(&self, loc: PhysLoc) {
        self.st.borrow_mut().live[loc.block as usize] += 1;
    }

    fn live_dec(&self, loc: PhysLoc) {
        self.st.borrow_mut().live[loc.block as usize] -= 1;
    }

    fn low_on_space(&self) -> bool {
        self.dev.free_blocks() <= self.gc.low_water
    }

    /// The emptiest full block: open append blocks are never victims.
    fn pick_victim(&self) -> Option<u32> {
        let st = self.st.borrow();
        let open: Vec<u32> = st
            .append
            .iter()
            .chain(&st.load_append)
            .filter_map(|a| a.map(|(b, _)| b))
            .collect();
        (0..st.live.len() as u32)
            .filter(|b| !open.contains(b))
            .filter(|&b| st.written[b as usize] > st.live[b as usize])
            .max_by_key(|&b| st.written[b as usize] - st.live[b as usize])
    }

    /// Reads every programmed page of the block concurrently (the device
    /// parallelism GC relies on in practice), side by side in one task.
    async fn read_victim(&self, block: u32) -> Option<Vec<(PhysLoc, Page)>> {
        let reads = (0..self.dev.config().pages_per_block)
            .map(|page| PhysLoc { block, page })
            .filter(|&loc| self.dev.peek(loc).is_some())
            .map(|loc| {
                let dev = self.dev.clone();
                async move { dev.read(loc).await.ok().map(|p| (loc, p)) }
            })
            .collect::<Vec<_>>();
        if reads.is_empty() {
            return Some(Vec::new());
        }
        let pages = self.handle.spawn(join_all(reads)).await;
        Some(pages.into_iter().flatten().collect())
    }

    async fn reclaim(&self, block: u32) -> u64 {
        self.dev.erase(block).await.expect("GC erase");
        let mut st = self.st.borrow_mut();
        debug_assert_eq!(st.live[block as usize], 0, "live data erased");
        st.live[block as usize] = 0;
        std::mem::take(&mut st.written[block as usize]) as u64
    }

    fn note_floor(&self, ts: Timestamp) {
        let mut st = self.st.borrow_mut();
        if ts > st.floor {
            st.floor = ts;
        }
    }

    fn power_fail(&self) -> u64 {
        self.dev.power_fail()
    }

    fn reset(&self) {
        let mut st = self.st.borrow_mut();
        st.append.fill(None);
        st.load_append.fill(None);
        st.next_load_append = 0;
        st.live.fill(0);
        st.written.fill(0);
        st.floor = Timestamp::ZERO;
    }

    /// Charges `pages / mount_scan_rate` of device time for the OOB scan.
    async fn mount_scan(&self) -> (MountReport, Vec<(PhysLoc, Page)>) {
        let scan = self.dev.mount_scan().await;
        let mut st = self.st.borrow_mut();
        let mut report = MountReport {
            pages_scanned: scan.len() as u64,
            ..MountReport::default()
        };
        let mut intact = Vec::new();
        for sp in &scan {
            let page = self.dev.peek(sp.loc);
            // The controller knows the page was programmed (write pointer),
            // so even discarded pages count toward `written`: GC can later
            // reclaim them as garbage.
            st.written[sp.loc.block as usize] += page.as_ref().map_or(1, |p| p.len() as u32).max(1);
            let Some(oob) = sp.oob.filter(|o| !o.is_torn()) else {
                report.torn_pages += 1;
                continue;
            };
            report.floor = report.floor.max(Timestamp(oob.floor));
            intact.extend(page.map(|p| (sp.loc, p)));
        }
        st.floor = report.floor;
        (report, intact)
    }
}

#[cfg(test)]
mod tests {
    //! MFTL-specific behaviour; what both spaces share is tested once, over
    //! both, in [`crate::packed`].

    use super::*;
    use crate::types::{value, Key, Value};
    use simkit::Sim;
    use timesync::{ClientId, Version};

    fn v(ts: u64) -> Version {
        Version::new(Timestamp(ts), ClientId(0))
    }

    fn vc(ts: u64, c: u32) -> Version {
        Version::new(Timestamp(ts), ClientId(c))
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
        value(vec![0xabu8; n])
    }

    fn store(sim: &Sim, blocks: u32) -> UnifiedStore {
        UnifiedStore::new(sim.handle(), nand(blocks), PACKING_WINDOW)
    }

    #[test]
    fn stale_writes_rejected_with_latest() {
        let mut sim = Sim::new(1);
        let s = store(&sim, 16);
        sim.block_on(async move {
            let k = Key::from(1u64);
            s.put(k.clone(), val(1), v(20)).await.unwrap();
            let err = s.put(k.clone(), val(2), v(10)).await.unwrap_err();
            assert_eq!(err, StoreError::StaleWrite(v(20)));
            // Equal version also rejected (same-client replay handled above).
            let err = s.put(k.clone(), val(2), v(20)).await.unwrap_err();
            assert_eq!(err, StoreError::StaleWrite(v(20)));
        });
    }

    #[test]
    fn client_id_breaks_ties() {
        let mut sim = Sim::new(1);
        let s = store(&sim, 16);
        sim.block_on(async move {
            let k = Key::from(1u64);
            s.put(k.clone(), val(1), vc(10, 1)).await.unwrap();
            s.put(k.clone(), val(2), vc(10, 2)).await.unwrap(); // later client wins
            let err = s.put(k.clone(), val(3), vc(10, 0)).await.unwrap_err();
            assert_eq!(err, StoreError::StaleWrite(vc(10, 2)));
        });
    }

    #[test]
    fn packing_window_bounds_put_latency() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let s = store(&sim, 16);
        let hh = h.clone();
        sim.block_on(async move {
            let t0 = hh.now();
            // One lonely small tuple: flushed by the 1ms window timer.
            s.put(Key::from(1u64), val(100), v(10)).await.unwrap();
            let lat = hh.now() - t0;
            assert!(
                lat >= Duration::from_millis(1) && lat < Duration::from_micros(1200),
                "latency {lat:?}"
            );
        });
    }

    #[test]
    fn a_zero_packing_window_closes_each_page_at_its_task_s_place() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let s = UnifiedStore::new(h.clone(), nand(16), Duration::ZERO);
        let hh = h.clone();
        let s2 = s.clone();
        sim.block_on(async move {
            // Three puts staged at one instant, round-robin over the two
            // packing streams. Each page is closed by a task spawned when
            // its first tuple arrived, before the next put's event: three
            // pages. A callback at that instant would fire after the third
            // put had joined the first page: two pages.
            let joins: Vec<_> = (0..3u64)
                .map(|i| {
                    let s = s2.clone();
                    hh.spawn(async move { s.put(Key::from(i), val(100), v(10)).await.unwrap() })
                })
                .collect();
            for j in joins {
                j.await;
            }
        });
        assert_eq!(s.stats().pages_written, 3);
        assert_eq!(
            h.timer_stats().armed,
            3 + 3,
            "three op sleeps, three programs"
        );
    }

    #[test]
    fn full_page_flushes_immediately() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let s = store(&sim, 16);
        let hh = h.clone();
        sim.block_on(async move {
            // The test device has 2 packing streams (one per channel); 16
            // tuples of 512 accounted bytes fill one 4 KB page per stream.
            let t0 = hh.now();
            let mut joins = Vec::new();
            for i in 0..16u64 {
                let s2 = s.clone();
                joins.push(hh.spawn(async move {
                    s2.put(Key::from(i), val(472), v(10 + i)).await.unwrap();
                }));
            }
            for j in joins {
                j.await;
            }
            let lat = hh.now() - t0;
            // No packing wait: just the 100us program (plus epsilon).
            assert!(lat < Duration::from_micros(300), "latency {lat:?}");
        });
    }

    #[test]
    fn watermark_prunes_old_versions() {
        let mut sim = Sim::new(1);
        let s = store(&sim, 16);
        sim.block_on(async move {
            let k = Key::from(1u64);
            for ts in [10, 20, 30, 40] {
                s.put(k.clone(), val(8), v(ts)).await.unwrap();
            }
            s.set_watermark(Timestamp(25));
            // Next write triggers pruning: versions older than the youngest
            // <= 25 (i.e. v20) die; v10 goes away.
            s.put(k.clone(), val(8), v(50)).await.unwrap();
            assert_eq!(s.versions(&k), vec![v(50), v(40), v(30), v(20)]);
            // Reads at/above the watermark still see a consistent snapshot.
            assert_eq!(s.get_at(&k, Timestamp(25)).await.unwrap().version, v(20));
        });
    }

    #[test]
    fn gc_reclaims_space_under_overwrites() {
        let mut sim = Sim::new(2);
        let h = sim.handle();
        let s = store(&sim, 12); // 12 blocks * 4 pages * 8 tuples = 384 slots
        sim.block_on(async move {
            let keys = 20u64;
            for round in 0..40u64 {
                // Concurrent puts within a round so pages pack well.
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
                // Watermark trails by one round, allowing pruning.
                s.set_watermark(Timestamp(round * 100));
            }
            // 800 writes through 384 slots: GC must have collected.
            assert!(s.stats().gc_collections > 5, "{:?}", s.stats());
            for i in 0..keys {
                let got = s.get_latest(&Key::from(i)).await.unwrap();
                assert_eq!(got.version, v(39 * 100 + i + 1));
            }
        });
    }

    #[test]
    fn delete_removes_all_versions() {
        let mut sim = Sim::new(1);
        let s = store(&sim, 16);
        sim.block_on(async move {
            let k = Key::from(1u64);
            s.put(k.clone(), val(8), v(10)).await.unwrap();
            s.put(k.clone(), val(8), v(20)).await.unwrap();
            s.delete(&k);
            assert_eq!(s.get_latest(&k).await.unwrap_err(), StoreError::NotFound);
            assert!(s.versions(&k).is_empty());
            // Key can be written again afterwards.
            s.put(k.clone(), val(8), v(30)).await.unwrap();
            assert_eq!(s.get_latest(&k).await.unwrap().version, v(30));
        });
    }

    #[test]
    fn buffered_reads_hit_the_packer() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let s = store(&sim, 16);
        let hh = h.clone();
        sim.block_on(async move {
            let k = Key::from(1u64);
            let s2 = s.clone();
            let k2 = k.clone();
            let put = hh.spawn(async move { s2.put(k2, val(9), v(10)).await });
            // Let the put enqueue, then read before the 1ms flush completes.
            hh.sleep(Duration::from_micros(10)).await;
            let t0 = hh.now();
            let got = s.get_at(&k, Timestamp(10)).await.unwrap();
            assert_eq!(got.version, v(10));
            // DRAM hit: only the mapping-table overhead, no flash read.
            assert_eq!(hh.now() - t0, OP_OVERHEAD);
            put.await.unwrap();
        });
    }

    #[test]
    fn reads_survive_concurrent_gc() {
        let mut sim = Sim::new(9);
        let s = store(&sim, 10);
        let h = sim.handle();
        let hh = h.clone();
        sim.block_on(async move {
            let keys = 16u64;
            for i in 0..keys {
                s.bulk_load(Key::from(i), val(472), v(1));
            }
            s.finish_load();
            // Writer hammers overwrites (GC churn), readers read everything.
            let s2 = s.clone();
            let h3 = hh.clone();
            let writer = hh.spawn(async move {
                for round in 1..30u64 {
                    let mut joins = Vec::new();
                    for i in 0..keys {
                        let ts = round * 1000 + i;
                        let s4 = s2.clone();
                        joins.push(h3.spawn(async move {
                            s4.put(Key::from(i), val(472), v(ts)).await.unwrap();
                        }));
                    }
                    for j in joins {
                        j.await;
                    }
                    s2.set_watermark(Timestamp((round - 1) * 1000 + keys));
                }
            });
            let s3 = s.clone();
            let reader = hh.spawn(async move {
                for _ in 0..200 {
                    for i in 0..keys {
                        let got = s3.get_latest(&Key::from(i)).await.unwrap();
                        assert_eq!(got.value, val(472));
                    }
                }
            });
            writer.await;
            reader.await;
        });
    }
}

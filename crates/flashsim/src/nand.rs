//! NAND flash device model (Open-Channel SSD style).
//!
//! Models the physical constraints the paper's FTLs are built around (§2.2):
//!
//! - **page-grained programs, block-grained erases** — a page can be written
//!   once after its block is erased (*erase-before-write*);
//! - **sequential programming** within a block (as real NAND requires, and as
//!   log-structured FTLs naturally do);
//! - **timing**: the §5 page-read / page-program / block-erase latencies
//!   ([`READ_LATENCY`], [`PROGRAM_LATENCY`], [`ERASE_LATENCY`]: 50 µs /
//!   100 µs / 1 ms), dispatched over parallel channels with a bounded
//!   hardware queue depth;
//! - **endurance accounting**: per-block erase counts; the free-block
//!   allocator hands out the least-worn block (wear leveling).
//!
//! Pages store typed payloads (`P`) rather than raw bytes so FTLs can keep
//! structured tuples without serialization overhead in the simulator; space
//! accounting uses the configured geometry, not `size_of::<P>()`.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::time::Duration;

use crate::oob::{PageOob, ScannedPage};

use simkit::sync::Semaphore;
use simkit::time::SimTime;
use simkit::SimHandle;

/// Page read latency (§5).
pub const READ_LATENCY: Duration = Duration::from_micros(50);
/// Page program latency (§5).
pub const PROGRAM_LATENCY: Duration = Duration::from_micros(100);
/// Block erase latency (§5).
pub const ERASE_LATENCY: Duration = Duration::from_millis(1);

/// Geometry of a simulated SSD; its timings are the §5 constants above.
#[derive(Debug, Clone)]
pub struct NandConfig {
    /// Bytes per flash page (accounting granularity).
    pub page_size: usize,
    /// Pages per erase block.
    pub pages_per_block: u32,
    /// Total erase blocks on the device.
    pub blocks: u32,
    /// Independent channels; ops on different channels proceed in parallel.
    pub channels: u32,
    /// Hardware queue depth (max outstanding ops device-wide).
    pub queue_depth: usize,
    /// Pages scanned per second by a mount-time recovery scan
    /// ([`NandDevice::mount_scan`]). Sequential OOB reads pipeline across
    /// all channels, so this is much faster than random page reads.
    pub mount_scan_rate: u64,
}

impl Default for NandConfig {
    /// The paper's evaluation device: 4 KB pages, 32 pages/block, 50 µs read,
    /// 100 µs write, 1 ms erase, queue depth 128 (§5), with 32 channels and a
    /// modest default capacity suitable for tests.
    fn default() -> NandConfig {
        NandConfig {
            page_size: 4096,
            pages_per_block: 32,
            blocks: 1024,
            channels: 32,
            queue_depth: 128,
            mount_scan_rate: 100_000,
        }
    }
}

impl NandConfig {
    /// Total pages on the device.
    pub fn total_pages(&self) -> u64 {
        self.blocks as u64 * self.pages_per_block as u64
    }

    /// Sizes the device to hold `tuples` records of `tuple_size` bytes at
    /// `utilization` (e.g. 0.5 = half full), keeping other parameters.
    ///
    /// # Panics
    ///
    /// Panics if `utilization` is not in `(0, 1]`.
    pub fn sized_for(mut self, tuples: u64, tuple_size: usize, utilization: f64) -> NandConfig {
        assert!(utilization > 0.0 && utilization <= 1.0);
        let per_page = (self.page_size / tuple_size).max(1) as u64;
        let data_pages = tuples.div_ceil(per_page);
        let need_pages = (data_pages as f64 / utilization).ceil() as u64;
        self.blocks = (need_pages.div_ceil(self.pages_per_block as u64)).max(4) as u32;
        self
    }
}

/// A physical page address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysLoc {
    /// Erase-block index.
    pub block: u32,
    /// Page index within the block.
    pub page: u32,
}

impl std::fmt::Display for PhysLoc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b{}p{}", self.block, self.page)
    }
}

/// Violations of the NAND programming contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NandError {
    /// Attempt to program a page that is not the block's next free page
    /// (out-of-order program or write to a non-erased page).
    ProgramOrder {
        /// The offending address.
        loc: PhysLoc,
        /// The page the block expects to be programmed next.
        expected_page: u32,
    },
    /// Read of a page that has never been programmed since its last erase.
    ReadUnwritten(PhysLoc),
    /// Address out of the device's range.
    OutOfRange(PhysLoc),
    /// Erase requested on a block currently in the free pool.
    EraseFreeBlock(u32),
}

impl std::fmt::Display for NandError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NandError::ProgramOrder { loc, expected_page } => write!(
                f,
                "out-of-order program at {loc}; block expects page {expected_page}"
            ),
            NandError::ReadUnwritten(loc) => write!(f, "read of unwritten page {loc}"),
            NandError::OutOfRange(loc) => write!(f, "address {loc} out of range"),
            NandError::EraseFreeBlock(b) => write!(f, "erase of free block b{b}"),
        }
    }
}

impl std::error::Error for NandError {}

/// Device activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NandStats {
    /// Pages read.
    pub page_reads: u64,
    /// Pages programmed.
    pub page_writes: u64,
    /// Blocks erased.
    pub block_erases: u64,
    /// Operations that needed an injected media-error recovery retry.
    pub media_retries: u64,
    /// Blocks retired as worn out instead of returning to the free pool.
    pub retired_blocks: u64,
    /// Pages whose in-flight program was torn by a power failure.
    pub torn_pages: u64,
}

/// Injectable flash media faults (see [`NandDevice::inject_media_faults`]).
///
/// Media errors model ECC-recoverable bit errors: the operation still
/// succeeds but pays `recovery_latency` extra device time (real controllers
/// retry with tuned read-reference voltages). Worn-block retirement models
/// end-of-life blocks: the next `retire_next_erases` erases complete but
/// permanently remove their block from the free pool, shrinking usable
/// capacity the way bad-block management does.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MediaFaultConfig {
    /// Probability a page read needs error recovery.
    pub read_error_prob: f64,
    /// Probability a page program needs error recovery.
    pub program_error_prob: f64,
    /// Extra device occupancy per recovery.
    pub recovery_latency: Duration,
    /// How many upcoming erases retire their block as worn out.
    pub retire_next_erases: u32,
}

impl MediaFaultConfig {
    fn is_noop(&self) -> bool {
        self.read_error_prob <= 0.0
            && self.program_error_prob <= 0.0
            && self.retire_next_erases == 0
    }
}

/// One erase block: the pages programmed since its last erase, in program
/// order (so the next page to program is `pages.len()`), each with its OOB.
/// An erased block owns no page slots.
#[derive(Debug, Clone)]
struct BlockState<P> {
    pages: Vec<(P, Option<PageOob>)>,
    erase_count: u32,
}

impl<P> BlockState<P> {
    fn next_page(&self) -> u32 {
        self.pages.len() as u32
    }

    /// The payload programmed at `page`, if any.
    fn page(&self, page: u32) -> Option<&P> {
        self.pages.get(page as usize).map(|(p, _)| p)
    }

    /// Appends `payload` at `loc`, which must be the block's next page.
    fn push(&mut self, loc: PhysLoc, payload: P, oob: Option<PageOob>) -> Result<(), NandError> {
        if self.next_page() != loc.page {
            return Err(NandError::ProgramOrder {
                loc,
                expected_page: self.next_page(),
            });
        }
        self.pages.push((payload, oob));
        Ok(())
    }
}

#[derive(Debug)]
struct NandInner<P> {
    blocks: Vec<BlockState<P>>,
    /// (erase_count, block) — allocation pops the least-worn block.
    free: BTreeSet<(u32, u32)>,
    channel_busy: Vec<SimTime>,
    stats: NandStats,
    /// Injected media faults; `None` = healthy device.
    faults: Option<MediaFaultConfig>,
    /// Trace sink for `FlashOp`/`GcRun` events; disabled by default.
    tracer: obskit::Tracer,
    /// Node id stamped on emitted trace events.
    node: u64,
    /// Pages whose program has been issued but not yet completed; a power
    /// failure tears exactly these (BTreeSet for deterministic iteration).
    in_flight: BTreeSet<PhysLoc>,
}

/// A simulated NAND device holding typed page payloads.
///
/// Cloning shares the device.
#[derive(Debug)]
pub struct NandDevice<P> {
    handle: SimHandle,
    cfg: Rc<NandConfig>,
    inner: Rc<RefCell<NandInner<P>>>,
    queue: Semaphore,
}

impl<P> Clone for NandDevice<P> {
    fn clone(&self) -> Self {
        NandDevice {
            handle: self.handle.clone(),
            cfg: self.cfg.clone(),
            inner: self.inner.clone(),
            queue: self.queue.clone(),
        }
    }
}

impl<P: Clone + 'static> NandDevice<P> {
    /// Creates a device; all blocks start erased (in the free pool).
    pub fn new(handle: SimHandle, cfg: NandConfig) -> NandDevice<P> {
        let blocks = (0..cfg.blocks)
            .map(|_| BlockState {
                pages: Vec::new(),
                erase_count: 0,
            })
            .collect();
        let free = (0..cfg.blocks).map(|b| (0, b)).collect();
        let queue = Semaphore::new(cfg.queue_depth);
        NandDevice {
            handle,
            inner: Rc::new(RefCell::new(NandInner {
                blocks,
                free,
                channel_busy: vec![SimTime::ZERO; cfg.channels as usize],
                stats: NandStats::default(),
                faults: None,
                tracer: obskit::Tracer::disabled(),
                node: 0,
                in_flight: BTreeSet::new(),
            })),
            cfg: Rc::new(cfg),
            queue,
        }
    }

    /// Device geometry.
    pub fn config(&self) -> &NandConfig {
        &self.cfg
    }

    /// Takes the least-worn erased block out of the free pool for appending.
    pub fn alloc_block(&self) -> Option<u32> {
        let mut inner = self.inner.borrow_mut();
        let first = *inner.free.iter().next()?;
        inner.free.remove(&first);
        Some(first.1)
    }

    /// Number of erased blocks in the free pool.
    pub fn free_blocks(&self) -> usize {
        self.inner.borrow().free.len()
    }

    /// Erase count of `block` (wear instrumentation).
    pub fn erase_count(&self, block: u32) -> u32 {
        self.inner.borrow().blocks[block as usize].erase_count
    }

    /// Number of pages programmed in `block` since its last erase.
    pub fn pages_programmed(&self, block: u32) -> u32 {
        self.inner.borrow().blocks[block as usize].next_page()
    }

    /// True while a program into `block` is still in flight. Its page is
    /// already in the block, but no FTL has mapped it yet, so the block
    /// must not be collected.
    pub(crate) fn programming(&self, block: u32) -> bool {
        let first = PhysLoc { block, page: 0 };
        let inner = self.inner.borrow();
        inner
            .in_flight
            .range(first..)
            .next()
            .is_some_and(|l| l.block == block)
    }

    /// Activity counters so far.
    pub fn stats(&self) -> NandStats {
        self.inner.borrow().stats
    }

    /// Installs media faults applied to subsequent operations. A no-op
    /// config uninstalls, same as [`NandDevice::clear_media_faults`]. All
    /// randomness comes from the simulation RNG, so faulty runs stay
    /// deterministic.
    pub fn inject_media_faults(&self, cfg: MediaFaultConfig) {
        self.inner.borrow_mut().faults = if cfg.is_noop() { None } else { Some(cfg) };
    }

    /// Removes any injected media faults.
    pub fn clear_media_faults(&self) {
        self.inner.borrow_mut().faults = None;
    }

    /// Extra device occupancy if a media-error recovery fires for an
    /// operation whose error probability is `prob_of`.
    fn media_recovery(&self, prob_of: impl Fn(&MediaFaultConfig) -> f64) -> Duration {
        let (prob, latency) = match &self.inner.borrow().faults {
            Some(f) => (prob_of(f), f.recovery_latency),
            None => return Duration::ZERO,
        };
        if prob > 0.0 && self.handle.rand_f64() < prob {
            self.inner.borrow_mut().stats.media_retries += 1;
            latency
        } else {
            Duration::ZERO
        }
    }

    /// Attaches a trace sink; subsequent operations emit
    /// [`obskit::TraceEvent::FlashOp`] events stamped with `node`.
    pub fn attach_tracer(&self, tracer: &obskit::Tracer, node: u64) {
        let mut inner = self.inner.borrow_mut();
        inner.tracer = tracer.clone();
        inner.node = node;
    }

    fn trace_op(&self, op: obskit::FlashOpKind) {
        let inner = self.inner.borrow();
        inner.tracer.record(
            self.handle.now().as_nanos(),
            obskit::TraceEvent::FlashOp {
                node: inner.node,
                op,
            },
        );
    }

    /// Records a [`obskit::TraceEvent::GcRun`] on behalf of the FTL layer
    /// driving garbage collection over this device.
    pub fn trace_gc(&self, reclaimed: u64) {
        let inner = self.inner.borrow();
        inner.tracer.record(
            self.handle.now().as_nanos(),
            obskit::TraceEvent::GcRun {
                node: inner.node,
                reclaimed,
            },
        );
    }

    fn check_range(&self, loc: PhysLoc) -> Result<(), NandError> {
        if loc.block >= self.cfg.blocks || loc.page >= self.cfg.pages_per_block {
            Err(NandError::OutOfRange(loc))
        } else {
            Ok(())
        }
    }

    /// Waits for a queue slot and a channel, occupying the channel for `dur`.
    async fn timed(&self, block: u32, dur: Duration) {
        let _permit = self.queue.acquire().await;
        let end = {
            let mut inner = self.inner.borrow_mut();
            let ch = (block % self.cfg.channels) as usize;
            let start = inner.channel_busy[ch].max(self.handle.now());
            let end = start + dur;
            inner.channel_busy[ch] = end;
            end
        };
        self.handle.sleep_until(end).await;
    }

    /// Programs `loc` with `payload`.
    ///
    /// # Errors
    ///
    /// [`NandError::ProgramOrder`] unless `loc.page` is exactly the block's
    /// next unwritten page — NAND cannot overwrite in place, which is the
    /// remap-on-write property SEMEL exploits.
    pub async fn program(&self, loc: PhysLoc, payload: P) -> Result<(), NandError> {
        self.program_inner(loc, payload, None).await
    }

    /// Programs `loc` with `payload` plus OOB metadata written atomically
    /// with the page, making it recoverable by [`NandDevice::mount_scan`].
    ///
    /// # Errors
    ///
    /// Same as [`NandDevice::program`].
    pub async fn program_with_oob(
        &self,
        loc: PhysLoc,
        payload: P,
        oob: PageOob,
    ) -> Result<(), NandError> {
        self.program_inner(loc, payload, Some(oob)).await
    }

    async fn program_inner(
        &self,
        loc: PhysLoc,
        payload: P,
        oob: Option<PageOob>,
    ) -> Result<(), NandError> {
        self.check_range(loc)?;
        {
            let mut inner = self.inner.borrow_mut();
            inner.blocks[loc.block as usize].push(loc, payload, oob)?;
            inner.stats.page_writes += 1;
            inner.in_flight.insert(loc);
        }
        self.trace_op(obskit::FlashOpKind::Write);
        let recovery = self.media_recovery(|f| f.program_error_prob);
        self.timed(loc.block, PROGRAM_LATENCY + recovery).await;
        self.inner.borrow_mut().in_flight.remove(&loc);
        Ok(())
    }

    /// Injects a power failure: every program still in flight is torn (its
    /// OOB checksum is corrupted, so [`NandDevice::mount_scan`] will report
    /// it torn and the FTL will discard it). Completed programs are durable.
    /// Returns the number of pages torn.
    pub fn power_fail(&self) -> u64 {
        let mut inner = self.inner.borrow_mut();
        let torn: Vec<PhysLoc> = inner.in_flight.iter().copied().collect();
        inner.in_flight.clear();
        let mut count = 0;
        for loc in torn {
            let pages = &mut inner.blocks[loc.block as usize].pages;
            // Raw programs (no OOB) need no marking: mount already treats
            // metadata-less pages as garbage. Neither does a page whose
            // block was erased under its program.
            if let Some((_, Some(oob))) = pages.get_mut(loc.page as usize) {
                oob.tear();
            }
            count += 1;
        }
        inner.stats.torn_pages += count;
        count
    }

    /// Sequentially scans every programmed page's OOB area, charging
    /// `pages / mount_scan_rate` of device time. Returns one record per
    /// programmed page in (block, page) order; the FTL rebuilds its mapping
    /// table from these plus zero-time [`NandDevice::peek`]s of the
    /// payloads the scan just read.
    pub async fn mount_scan(&self) -> Vec<ScannedPage> {
        let mut out = Vec::new();
        {
            let inner = self.inner.borrow();
            for (b, blk) in inner.blocks.iter().enumerate() {
                for (p, &(_, oob)) in blk.pages.iter().enumerate() {
                    out.push(ScannedPage {
                        loc: PhysLoc {
                            block: b as u32,
                            page: p as u32,
                        },
                        oob,
                    });
                }
            }
        }
        let rate = self.cfg.mount_scan_rate.max(1);
        let nanos = (out.len() as u64).saturating_mul(1_000_000_000) / rate;
        self.handle.sleep(Duration::from_nanos(nanos)).await;
        out
    }

    /// Reads the payload at `loc`.
    ///
    /// # Errors
    ///
    /// [`NandError::ReadUnwritten`] if the page was never programmed.
    pub async fn read(&self, loc: PhysLoc) -> Result<P, NandError> {
        self.check_range(loc)?;
        let payload = {
            let mut inner = self.inner.borrow_mut();
            let p = inner.blocks[loc.block as usize]
                .page(loc.page)
                .cloned()
                .ok_or(NandError::ReadUnwritten(loc))?;
            inner.stats.page_reads += 1;
            p
        };
        self.trace_op(obskit::FlashOpKind::Read);
        let recovery = self.media_recovery(|f| f.read_error_prob);
        self.timed(loc.block, READ_LATENCY + recovery).await;
        Ok(payload)
    }

    /// Erases `block`, returning it to the free pool.
    ///
    /// # Errors
    ///
    /// [`NandError::EraseFreeBlock`] if the block is already free.
    pub async fn erase(&self, block: u32) -> Result<(), NandError> {
        if block >= self.cfg.blocks {
            return Err(NandError::OutOfRange(PhysLoc { block, page: 0 }));
        }
        {
            let mut inner = self.inner.borrow_mut();
            let count = inner.blocks[block as usize].erase_count;
            if inner.free.contains(&(count, block)) {
                return Err(NandError::EraseFreeBlock(block));
            }
            let blk = &mut inner.blocks[block as usize];
            blk.pages.clear();
            blk.erase_count += 1;
            let count = blk.erase_count;
            // Worn-block retirement: the erase completes, but the block is
            // permanently withheld from the free pool (bad-block list).
            let retire = match &mut inner.faults {
                Some(f) if f.retire_next_erases > 0 => {
                    f.retire_next_erases -= 1;
                    true
                }
                _ => false,
            };
            if retire {
                inner.stats.retired_blocks += 1;
            } else {
                inner.free.insert((count, block));
            }
            inner.stats.block_erases += 1;
        }
        self.trace_op(obskit::FlashOpKind::Erase);
        self.timed(block, ERASE_LATENCY).await;
        Ok(())
    }

    /// Zero-time read for recovery scans and tests (no device timing, no
    /// stats).
    pub fn peek(&self, loc: PhysLoc) -> Option<P> {
        self.check_range(loc).ok()?;
        self.inner.borrow().blocks[loc.block as usize]
            .page(loc.page)
            .cloned()
    }

    /// Zero-time program used for bulk-loading experiment datasets. Enforces
    /// the same ordering contract as [`NandDevice::program`].
    ///
    /// # Errors
    ///
    /// Same as [`NandDevice::program`].
    pub fn install(&self, loc: PhysLoc, payload: P) -> Result<(), NandError> {
        self.install_inner(loc, payload, None)
    }

    /// Zero-time program with OOB metadata — the bulk-load counterpart of
    /// [`NandDevice::program_with_oob`], so preloaded datasets survive a
    /// mount scan.
    ///
    /// # Errors
    ///
    /// Same as [`NandDevice::program`].
    pub fn install_with_oob(
        &self,
        loc: PhysLoc,
        payload: P,
        oob: PageOob,
    ) -> Result<(), NandError> {
        self.install_inner(loc, payload, Some(oob))
    }

    fn install_inner(
        &self,
        loc: PhysLoc,
        payload: P,
        oob: Option<PageOob>,
    ) -> Result<(), NandError> {
        self.check_range(loc)?;
        self.inner.borrow_mut().blocks[loc.block as usize].push(loc, payload, oob)
    }

    /// Makes this fresh device a copy of `from`'s bulk-loaded image: every
    /// programmed page with its OOB, every block's erase count and the free
    /// pool. Payloads are shared, not cloned deep: a programmed page is
    /// never mutated (a power failure tears only the OOB, which each device
    /// holds by value). Nothing of this device's own is copied over — its
    /// counters, channels, media faults and tracer stay as built.
    ///
    /// # Panics
    ///
    /// Panics if the geometries differ or `from` has a program in flight.
    pub(crate) fn copy_loaded_from(&self, from: &NandDevice<P>) {
        let src = from.inner.borrow();
        assert_eq!(self.cfg.blocks, from.cfg.blocks, "copy across geometries");
        assert!(src.in_flight.is_empty(), "copy of a device mid-program");
        let mut inner = self.inner.borrow_mut();
        inner.blocks.clone_from(&src.blocks);
        inner.free.clone_from(&src.free);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::Sim;

    fn small_cfg() -> NandConfig {
        NandConfig {
            blocks: 8,
            pages_per_block: 4,
            channels: 2,
            queue_depth: 4,
            ..NandConfig::default()
        }
    }

    #[test]
    fn program_then_read_round_trips() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        sim.block_on(async move {
            let dev: NandDevice<u32> = NandDevice::new(h, small_cfg());
            let b = dev.alloc_block().unwrap();
            dev.program(PhysLoc { block: b, page: 0 }, 77)
                .await
                .unwrap();
            let v = dev.read(PhysLoc { block: b, page: 0 }).await.unwrap();
            assert_eq!(v, 77);
        });
    }

    #[test]
    fn out_of_order_program_rejected() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        sim.block_on(async move {
            let dev: NandDevice<u32> = NandDevice::new(h, small_cfg());
            let b = dev.alloc_block().unwrap();
            let err = dev
                .program(PhysLoc { block: b, page: 2 }, 1)
                .await
                .unwrap_err();
            assert!(matches!(
                err,
                NandError::ProgramOrder {
                    expected_page: 0,
                    ..
                }
            ));
        });
    }

    #[test]
    fn overwrite_requires_erase() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        sim.block_on(async move {
            let dev: NandDevice<u32> = NandDevice::new(h, small_cfg());
            let b = dev.alloc_block().unwrap();
            for p in 0..4 {
                dev.program(PhysLoc { block: b, page: p }, p).await.unwrap();
            }
            // Block full: next_page is past the end, any program fails.
            let err = dev
                .program(PhysLoc { block: b, page: 0 }, 9)
                .await
                .unwrap_err();
            assert!(matches!(err, NandError::ProgramOrder { .. }));
            dev.erase(b).await.unwrap();
            // An erased block keeps no page of its old contents.
            let p0 = PhysLoc { block: b, page: 0 };
            assert_eq!(dev.read(p0).await, Err(NandError::ReadUnwritten(p0)));
            assert_eq!(dev.pages_programmed(b), 0);
            assert_eq!(dev.peek(p0), None);
            assert!(dev.mount_scan().await.iter().all(|s| s.loc.block != b));
            // After erase, block is in the free pool again and writable.
            let b2 = dev.alloc_block().unwrap();
            dev.program(PhysLoc { block: b2, page: 0 }, 9)
                .await
                .unwrap();
        });
    }

    #[test]
    fn read_unwritten_rejected() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        sim.block_on(async move {
            let dev: NandDevice<u32> = NandDevice::new(h, small_cfg());
            let err = dev.read(PhysLoc { block: 0, page: 0 }).await.unwrap_err();
            assert_eq!(err, NandError::ReadUnwritten(PhysLoc { block: 0, page: 0 }));
        });
    }

    #[test]
    fn wear_leveling_prefers_least_worn() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        sim.block_on(async move {
            let dev: NandDevice<u32> = NandDevice::new(h, small_cfg());
            let b0 = dev.alloc_block().unwrap();
            dev.program(PhysLoc { block: b0, page: 0 }, 0)
                .await
                .unwrap();
            dev.erase(b0).await.unwrap();
            // b0 now has erase_count 1; allocator must prefer a 0-count block.
            let next = dev.alloc_block().unwrap();
            assert_ne!(next, b0);
            assert_eq!(dev.erase_count(b0), 1);
        });
    }

    #[test]
    fn operations_take_configured_time() {
        // The paper's device (§5): 50 µs read, 100 µs program, 1 ms erase.
        assert_eq!(READ_LATENCY, Duration::from_micros(50));
        assert_eq!(PROGRAM_LATENCY, Duration::from_micros(100));
        assert_eq!(ERASE_LATENCY, Duration::from_millis(1));
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let hh = h.clone();
        sim.block_on(async move {
            let dev: NandDevice<u32> = NandDevice::new(hh.clone(), small_cfg());
            let b = dev.alloc_block().unwrap();
            let t0 = hh.now();
            dev.program(PhysLoc { block: b, page: 0 }, 1).await.unwrap();
            assert_eq!(hh.now() - t0, PROGRAM_LATENCY);
            let t1 = hh.now();
            dev.read(PhysLoc { block: b, page: 0 }).await.unwrap();
            assert_eq!(hh.now() - t1, READ_LATENCY);
            let t2 = hh.now();
            dev.erase(b).await.unwrap();
            assert_eq!(hh.now() - t2, ERASE_LATENCY);
        });
    }

    #[test]
    fn same_channel_ops_serialize_different_channels_overlap() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let hh = h.clone();
        sim.block_on(async move {
            let dev: NandDevice<u32> = NandDevice::new(hh.clone(), small_cfg());
            // channels=2, so blocks 0 and 2 share channel 0; 1 is channel 1.
            for b in [0u32, 1, 2] {
                let got = dev.alloc_block().unwrap();
                assert_eq!(got, b, "expect in-order allocation of unworn blocks");
            }
            let t0 = hh.now();
            let d0 = dev.clone();
            let d1 = dev.clone();
            let d2 = dev.clone();
            let j0 = hh.spawn(async move { d0.program(PhysLoc { block: 0, page: 0 }, 0).await });
            let j1 = hh.spawn(async move { d1.program(PhysLoc { block: 1, page: 0 }, 0).await });
            let j2 = hh.spawn(async move { d2.program(PhysLoc { block: 2, page: 0 }, 0).await });
            j0.await.unwrap();
            j1.await.unwrap();
            j2.await.unwrap();
            // Two writes on channel 0 serialize (200us); channel 1 overlaps.
            assert_eq!(hh.now() - t0, Duration::from_micros(200));
        });
    }

    #[test]
    fn queue_depth_limits_outstanding_ops() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let hh = h.clone();
        sim.block_on(async move {
            let cfg = NandConfig {
                blocks: 8,
                pages_per_block: 4,
                channels: 8,
                queue_depth: 2,
                ..NandConfig::default()
            };
            let dev: NandDevice<u32> = NandDevice::new(hh.clone(), cfg);
            for _ in 0..4 {
                dev.alloc_block().unwrap();
            }
            let t0 = hh.now();
            let mut joins = Vec::new();
            for b in 0..4u32 {
                let d = dev.clone();
                joins.push(hh.spawn(async move {
                    d.program(PhysLoc { block: b, page: 0 }, 0).await.unwrap();
                }));
            }
            for j in joins {
                j.await;
            }
            // 4 writes on 4 distinct channels, but only 2 may be in flight:
            // two waves of 100us.
            assert_eq!(hh.now() - t0, Duration::from_micros(200));
        });
    }

    #[test]
    fn sized_for_allocates_enough_blocks() {
        let cfg = NandConfig::default().sized_for(10_000, 512, 0.5);
        // 8 tuples per 4KB page -> 1250 data pages -> 2500 total pages
        // -> ceil(2500/32) = 79 blocks.
        assert_eq!(cfg.blocks, 79);
        assert!(cfg.total_pages() >= 2500);
    }

    #[test]
    fn media_retry_adds_recovery_latency() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let hh = h.clone();
        sim.block_on(async move {
            let dev: NandDevice<u32> = NandDevice::new(hh.clone(), small_cfg());
            dev.inject_media_faults(MediaFaultConfig {
                read_error_prob: 1.0,
                recovery_latency: Duration::from_micros(400),
                ..MediaFaultConfig::default()
            });
            let b = dev.alloc_block().unwrap();
            // Writes are unaffected (program_error_prob = 0).
            let t0 = hh.now();
            dev.program(PhysLoc { block: b, page: 0 }, 1).await.unwrap();
            assert_eq!(hh.now() - t0, Duration::from_micros(100));
            // Every read hits ECC recovery: 50us + 400us.
            let t1 = hh.now();
            dev.read(PhysLoc { block: b, page: 0 }).await.unwrap();
            assert_eq!(hh.now() - t1, Duration::from_micros(450));
            assert_eq!(dev.stats().media_retries, 1);
            // Clearing faults restores nominal latency.
            dev.clear_media_faults();
            let t2 = hh.now();
            dev.read(PhysLoc { block: b, page: 0 }).await.unwrap();
            assert_eq!(hh.now() - t2, Duration::from_micros(50));
            assert_eq!(dev.stats().media_retries, 1);
        });
    }

    #[test]
    fn worn_block_retirement_shrinks_free_pool() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        sim.block_on(async move {
            let dev: NandDevice<u32> = NandDevice::new(h, small_cfg());
            let free0 = dev.free_blocks();
            dev.inject_media_faults(MediaFaultConfig {
                retire_next_erases: 1,
                ..MediaFaultConfig::default()
            });
            let b0 = dev.alloc_block().unwrap();
            let b1 = dev.alloc_block().unwrap();
            // First erase retires the block instead of returning it.
            dev.erase(b0).await.unwrap();
            assert_eq!(dev.free_blocks(), free0 - 2);
            assert_eq!(dev.stats().retired_blocks, 1);
            // Budget exhausted: the next erase recycles normally.
            dev.erase(b1).await.unwrap();
            assert_eq!(dev.free_blocks(), free0 - 1);
            assert_eq!(dev.stats().retired_blocks, 1);
        });
    }

    #[test]
    fn power_fail_tears_only_in_flight_programs() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let hh = h.clone();
        sim.block_on(async move {
            let dev: NandDevice<u32> = NandDevice::new(hh.clone(), small_cfg());
            let b = dev.alloc_block().unwrap();
            dev.program_with_oob(PhysLoc { block: b, page: 0 }, 10, PageOob::new(0, 1, 0, 0))
                .await
                .unwrap();
            let d = dev.clone();
            hh.spawn(async move {
                // This program is still in its 100us device time when the
                // power fails 10us in.
                let _ = d
                    .program_with_oob(PhysLoc { block: b, page: 1 }, 11, PageOob::new(1, 2, 0, 0))
                    .await;
            });
            hh.sleep(Duration::from_micros(10)).await;
            assert_eq!(dev.power_fail(), 1);
            assert_eq!(dev.stats().torn_pages, 1);
            let scan = dev.mount_scan().await;
            let torn: Vec<bool> = scan
                .iter()
                .filter(|s| s.loc.block == b)
                .map(|s| s.oob.map(|o| o.is_torn()).unwrap_or(true))
                .collect();
            assert_eq!(torn, vec![false, true]);
        });
    }

    #[test]
    fn mount_scan_charges_scan_time() {
        let mut sim = Sim::new(1);
        let h = sim.handle();
        let hh = h.clone();
        sim.block_on(async move {
            let cfg = NandConfig {
                mount_scan_rate: 1000, // 1ms per page
                ..small_cfg()
            };
            let dev: NandDevice<u32> = NandDevice::new(hh.clone(), cfg);
            let b = dev.alloc_block().unwrap();
            for p in 0..3 {
                dev.install_with_oob(
                    PhysLoc { block: b, page: p },
                    p,
                    PageOob::new(p as u64, 1, 0, 0),
                )
                .unwrap();
            }
            let t0 = hh.now();
            let scan = dev.mount_scan().await;
            assert_eq!(scan.len(), 3);
            assert_eq!(hh.now() - t0, Duration::from_millis(3));
            assert!(scan.iter().all(|s| !s.oob.unwrap().is_torn()));
        });
    }

    #[test]
    fn install_and_peek_bypass_timing() {
        let sim = Sim::new(1);
        let h = sim.handle();
        let dev: NandDevice<u32> = NandDevice::new(h.clone(), small_cfg());
        let b = dev.alloc_block().unwrap();
        dev.install(PhysLoc { block: b, page: 0 }, 5).unwrap();
        assert_eq!(dev.peek(PhysLoc { block: b, page: 0 }), Some(5));
        assert_eq!(h.now(), SimTime::ZERO);
        assert_eq!(dev.stats().page_writes, 0);
        drop(sim);
    }
}

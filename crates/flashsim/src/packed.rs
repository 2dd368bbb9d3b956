//! The packed multi-version store both flash backends are built from.
//!
//! MFTL and VFTL are the *same* multi-version KV layer (§3.1, §5.1): a
//! per-key chain of versions ([`crate::chain`]), a **packing logic** that
//! waits up to a bounded window (1 ms in §5) to fill a 4 KB page with 512 B
//! tuples — fresh puts and GC-relocated tuples share the same packer — and
//! one garbage-collection pass that prunes versions below the watermark and
//! relocates the live tuples of a victim in the same sweep. They differ only
//! in what a packed page is written *to*: MFTL maps keys straight to
//! physical flash pages, VFTL to logical block addresses of a generic FTL
//! that maps and collects a second time underneath. [`PackedStore`] is the
//! shared layer; a [`Space`] is that difference.

use perfkit::FastMap;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use simkit::sync::{mpsc, oneshot, Semaphore};
use simkit::SimHandle;
use timesync::{Timestamp, Version};

use crate::backend::MountReport;
use crate::chain::Chain;
use crate::nand::{NandConfig, NandDevice};
use crate::types::{Key, StoreError, StoreStats, TupleRecord, Value, VersionedValue};

/// One programmed unit's payload: the packed tuples of a flash page (MFTL)
/// or of a logical segment (VFTL).
pub type Page = Rc<Vec<TupleRecord>>;

/// Where a [`PackedStore`] puts its packed pages — everything the paper says
/// differs between the unified and the split design: the unit address, how
/// units are allocated, programmed and read, at what grain live data is
/// accounted and victims are chosen, how space is reclaimed, and where a
/// mount finds the surviving pages.
///
/// A space keeps its own volatile accounting behind `&self`; the store never
/// holds a borrow of its own state across a call into the space.
// The simulation is single-threaded, so no future here is ever `Send`.
#[allow(async_fn_in_trait)]
pub trait Space: 'static {
    /// Address of one programmed unit.
    type Addr: Copy + PartialEq + std::fmt::Debug;
    /// What one garbage-collection pass reclaims.
    type Victim: Copy;

    /// The NAND device at the bottom (geometry, counters, tracing).
    fn device(&self) -> &NandDevice<Page>;

    /// Allocates the unit the next page of packing stream `stream` goes to.
    /// Pages carrying GC relocations (`for_gc`) may use the reserve.
    fn alloc(&self, stream: usize, for_gc: bool) -> Option<Self::Addr>;
    /// Takes back an allocated unit whose program failed.
    fn release(&self, addr: Self::Addr);
    /// Programs `page` at `addr`, stamped with the store's mount `epoch`.
    ///
    /// # Errors
    ///
    /// [`StoreError::CapacityExhausted`] if a layer underneath is full.
    async fn program(&self, addr: Self::Addr, page: Page, epoch: u64) -> Result<(), StoreError>;
    /// Zero-time allocate-and-program for the bulk loader.
    ///
    /// # Panics
    ///
    /// Panics if the space is full.
    fn install(&self, page: Page, epoch: u64) -> Self::Addr;
    /// Reads the unit at `addr`; `None` if it was reclaimed under the reader.
    async fn read(&self, addr: Self::Addr) -> Option<Page>;

    /// Accounts `tuples` more tuples written to `addr`'s accounting unit.
    fn note_programmed(&self, addr: Self::Addr, tuples: u32);
    /// One more mapped tuple lives in `addr`'s accounting unit.
    fn live_inc(&self, addr: Self::Addr);
    /// One tuple in `addr`'s accounting unit became garbage.
    fn live_dec(&self, addr: Self::Addr);
    /// True when free space is at or below the background-GC trigger.
    fn low_on_space(&self) -> bool;

    /// The accounting unit holding the most garbage, if any holds some.
    fn pick_victim(&self) -> Option<Self::Victim>;
    /// Reads every programmed unit of `victim`; `None` if it vanished.
    async fn read_victim(&self, victim: Self::Victim) -> Option<Vec<(Self::Addr, Page)>>;
    /// Frees `victim` (no mapped tuple lives there any more) and returns
    /// the number of tuples that had been written to it.
    async fn reclaim(&self, victim: Self::Victim) -> u64;

    /// Records the durable write floor stamped into later programs.
    fn note_floor(&self, ts: Timestamp);
    /// Tears in-flight programs on the device; returns how many.
    fn power_fail(&self) -> u64;
    /// Drops the space's volatile accounting, as a power failure would.
    fn reset(&self);
    /// Scans the medium after a power failure: rebuilds allocation state
    /// and written-tuple accounting, and returns the report (the store
    /// fills in `keys`) with every intact unit in a deterministic order.
    async fn mount_scan(&self) -> (MountReport, Vec<(Self::Addr, Page)>);
}

/// Number of packing streams (and append points) for a device: one per
/// channel where the device is big enough to keep that many blocks open.
pub(crate) fn stream_count(nand: &NandConfig) -> usize {
    (nand.channels as usize).min((nand.blocks as usize / 8).max(1))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc<A> {
    /// Still in the packer (or an in-flight flush): generation + slot.
    Buffered { gen: u64, idx: usize },
    /// Persisted in the unit at `addr`, at tuple index `slot`.
    Stored { addr: A, slot: u16 },
}

#[derive(Debug, Clone, Copy)]
enum Origin<A> {
    /// A fresh put / replicated write.
    Fresh,
    /// GC relocation of a tuple previously at this location.
    Reloc { old: A, old_slot: u16 },
}

#[derive(Debug)]
struct Pending<A> {
    rec: TupleRecord,
    origin: Origin<A>,
}

type Waiter = oneshot::Sender<Result<(), StoreError>>;
type Waiting = oneshot::Receiver<Result<(), StoreError>>;

struct Batch<A> {
    gen: u64,
    /// Which packing stream (append channel) this page belongs to.
    stream: usize,
    /// Mount epoch the batch was packed under; a flush completing after a
    /// power failure (stale epoch) must not touch the rebuilt mapping table.
    epoch: u64,
    pendings: Vec<Pending<A>>,
    waiters: Vec<Waiter>,
    page: Page,
}

/// One packing stream: an open page buffer bound to its own append point.
/// Real SSDs program pages on many channels in parallel; modeling one
/// stream per channel reproduces the paper's put-latency behavior (partial
/// pages usually wait out the packing window; GC traffic fills them early).
#[derive(Debug)]
struct Stream<A> {
    open: Vec<Pending<A>>,
    open_bytes: usize,
    gen: u64,
    waiters: Vec<Waiter>,
}

struct Inner<A> {
    map: FastMap<Key, Chain<Loc<A>>>,
    streams: Vec<Stream<A>>,
    next_stream: usize,
    next_gen: u64,
    /// Pages taken from the packer whose program is still in flight,
    /// readable by generation.
    flushing: FastMap<u64, Page>,
    watermark: Timestamp,
    stats: StoreStats,
    gc_nudge: mpsc::Sender<()>,
    /// Packer state for zero-time bulk loading.
    load_buf: Vec<TupleRecord>,
    load_bytes: usize,
    /// Mount epoch: bumped by power-fail and mount so surviving background
    /// tasks (GC, in-flight flushes — spawned off-node, they outlive the
    /// server process) cannot corrupt freshly-mounted state.
    epoch: u64,
}

struct Shared<S: Space> {
    handle: SimHandle,
    space: S,
    op_overhead: Duration,
    packing_window: Duration,
    inner: RefCell<Inner<S::Addr>>,
    gc_lock: Semaphore,
}

/// A multi-version store that packs tuples into pages of a [`Space`].
/// Cloning shares the store.
pub struct PackedStore<S: Space> {
    sh: Rc<Shared<S>>,
}

impl<S: Space> Clone for PackedStore<S> {
    fn clone(&self) -> PackedStore<S> {
        PackedStore {
            sh: self.sh.clone(),
        }
    }
}

impl<S: Space> std::fmt::Debug for PackedStore<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedStore")
            .field("keys", &self.key_count())
            .field("free_blocks", &self.device().free_blocks())
            .finish()
    }
}

impl<S: Space> PackedStore<S> {
    /// Builds the store over `space` and spawns its GC task. `op_overhead`
    /// is the per-operation mapping cost, `packing_window` the longest a
    /// tuple waits in the packer before a partial page is flushed.
    pub(crate) fn over(
        handle: SimHandle,
        space: S,
        op_overhead: Duration,
        packing_window: Duration,
    ) -> PackedStore<S> {
        let n_streams = stream_count(space.device().config());
        let streams = (0..n_streams)
            .map(|i| Stream {
                open: Vec::new(),
                open_bytes: 0,
                gen: i as u64,
                waiters: Vec::new(),
            })
            .collect();
        let (tx, rx) = mpsc::channel();
        let store = PackedStore {
            sh: Rc::new(Shared {
                handle: handle.clone(),
                space,
                op_overhead,
                packing_window,
                inner: RefCell::new(Inner {
                    map: FastMap::default(),
                    streams,
                    next_stream: 0,
                    next_gen: n_streams as u64,
                    flushing: FastMap::default(),
                    watermark: Timestamp::ZERO,
                    stats: StoreStats::default(),
                    gc_nudge: tx,
                    load_buf: Vec::new(),
                    load_bytes: 0,
                    epoch: 0,
                }),
                gc_lock: Semaphore::new(1),
            }),
        };
        let gc = store.clone();
        handle.spawn(async move {
            while rx.recv().await.is_some() {
                while gc.sh.space.low_on_space() {
                    if !gc.collect_once().await {
                        break;
                    }
                }
            }
        });
        store
    }

    /// The space the store packs into.
    pub(crate) fn space(&self) -> &S {
        &self.sh.space
    }

    /// The underlying NAND device.
    pub fn device(&self) -> &NandDevice<Page> {
        self.sh.space.device()
    }

    /// Store-level counters; page counts are the device's (for VFTL they
    /// include the bottom FTL's own GC traffic — the split's cost).
    pub fn stats(&self) -> StoreStats {
        let mut s = self.sh.inner.borrow().stats;
        let d = self.device().stats();
        s.pages_written = d.page_writes;
        s.pages_read = d.page_reads;
        s
    }

    /// Attaches a trace sink to the device (flash-op and GC events stamped
    /// with `node`).
    pub fn attach_tracer(&self, tracer: &obskit::Tracer, node: u64) {
        self.device().attach_tracer(tracer, node);
    }

    /// Injects media faults into the underlying device (fault campaigns).
    pub fn inject_media_faults(&self, cfg: crate::nand::MediaFaultConfig) {
        self.device().inject_media_faults(cfg);
    }

    /// Writes a new version of `key`. Completes when the tuple is persisted
    /// (packed page programmed to flash).
    ///
    /// # Errors
    ///
    /// - [`StoreError::StaleWrite`] if `version` is not newer than the key's
    ///   latest version (at-most-once, §3.3).
    /// - [`StoreError::CapacityExhausted`] if the device is full of live data.
    pub async fn put(&self, key: Key, value: Value, version: Version) -> Result<(), StoreError> {
        self.sh.handle.sleep(self.sh.op_overhead).await;
        if let Some(head) = self.sh.inner.borrow().map.get(&key).and_then(Chain::latest) {
            if version <= head.version {
                return Err(StoreError::StaleWrite(head.version));
            }
        }
        self.write_one(key, value, version).await
    }

    /// Applies a replicated write that may arrive out of order (backup path
    /// of SEMEL's inconsistent replication, §3.2). Duplicate versions are
    /// acknowledged without rewriting (idempotence).
    ///
    /// # Errors
    ///
    /// [`StoreError::CapacityExhausted`] if the device is full of live data.
    pub async fn apply_unordered(
        &self,
        key: Key,
        value: Value,
        version: Version,
    ) -> Result<(), StoreError> {
        if self.is_mapped(&key, version) {
            return Ok(());
        }
        self.write_one(key, value, version).await
    }

    /// Applies a batch of unordered writes with **atomic visibility**: every
    /// entry is installed in the mapping table before the method first
    /// yields, so no reader can observe a prefix of a committed
    /// transaction's writes. Completes when all tuples are persisted.
    ///
    /// # Errors
    ///
    /// [`StoreError::CapacityExhausted`] if the device fills.
    pub async fn apply_batch_unordered(
        &self,
        items: Vec<(Key, Value, Version)>,
    ) -> Result<(), StoreError> {
        let mut waiters = Vec::new();
        let mut batches = Vec::new();
        for (key, value, version) in items {
            if self.is_mapped(&key, version) {
                continue; // duplicate
            }
            let (rx, to_flush) = self.stage(key, value, version);
            waiters.push(rx);
            batches.extend(to_flush);
        }
        for b in batches {
            self.spawn_flush(b);
        }
        for rx in waiters {
            rx.await.unwrap_or(Err(StoreError::CapacityExhausted))?;
        }
        Ok(())
    }

    fn is_mapped(&self, key: &Key, version: Version) -> bool {
        let inner = self.sh.inner.borrow();
        inner.map.get(key).is_some_and(|c| c.get(version).is_some())
    }

    async fn write_one(&self, key: Key, value: Value, version: Version) -> Result<(), StoreError> {
        let (rx, to_flush) = self.stage(key, value, version);
        if let Some(batch) = to_flush {
            self.spawn_flush(batch);
        }
        rx.await.unwrap_or(Err(StoreError::CapacityExhausted))
    }

    /// Packs a fresh tuple and maps it (still buffered) without yielding in
    /// between, pruning the key's dead history on the way. Returns the
    /// persistence waiter and a full page the caller must flush.
    fn stage(&self, key: Key, value: Value, version: Version) -> (Waiting, Option<Batch<S::Addr>>) {
        let rec = TupleRecord {
            key: key.clone(),
            version,
            value,
        };
        let (gen, idx, rx, to_flush) = self.enqueue(rec, Origin::Fresh);
        let inner = &mut *self.sh.inner.borrow_mut();
        let chain = inner.map.entry(key).or_default();
        chain.insert(version, Loc::Buffered { gen, idx });
        inner.stats.versions_pruned += release_dead(&self.sh.space, chain, inner.watermark);
        inner.stats.puts += 1;
        (rx, to_flush)
    }

    fn spawn_flush(&self, batch: Batch<S::Addr>) {
        let me = self.clone();
        self.sh.handle.spawn(async move { me.flush(batch).await });
    }

    /// Adds a tuple to the packer. Returns `(gen, idx, waiter, batch)` where
    /// `batch` is a full page that must be flushed by the caller.
    fn enqueue(
        &self,
        rec: TupleRecord,
        origin: Origin<S::Addr>,
    ) -> (u64, usize, Waiting, Option<Batch<S::Addr>>) {
        let page_size = self.device().config().page_size;
        let mut inner = self.sh.inner.borrow_mut();
        let len = rec.accounted_len();
        // Round-robin over the per-channel packing streams.
        let s = inner.next_stream;
        inner.next_stream = (s + 1) % inner.streams.len();
        let mut to_flush = None;
        if !inner.streams[s].open.is_empty() && inner.streams[s].open_bytes + len > page_size {
            to_flush = Some(take_open(&mut inner, s));
        }
        let gen = inner.streams[s].gen;
        let idx = inner.streams[s].open.len();
        let first = idx == 0;
        inner.streams[s].open.push(Pending { rec, origin });
        inner.streams[s].open_bytes += len;
        let (tx, rx) = oneshot::channel();
        inner.streams[s].waiters.push(tx);
        let full = inner.streams[s].open_bytes + crate::types::TUPLE_HEADER + 16 > page_size;
        if full && to_flush.is_none() {
            to_flush = Some(take_open(&mut inner, s));
        } else if full {
            // Rare: the tuple that forced the previous flush itself fills the
            // fresh page. Flush both: spawn the second here.
            let second = take_open(&mut inner, s);
            self.spawn_flush(second);
        } else if first {
            // First tuple of a fresh page: arm the packing-window timer.
            let me = self.clone();
            let deadline = self.sh.handle.now() + self.sh.packing_window;
            self.sh.handle.spawn(async move {
                me.sh.handle.sleep_until(deadline).await;
                let batch = {
                    let mut inner = me.sh.inner.borrow_mut();
                    if inner.streams[s].gen == gen && !inner.streams[s].open.is_empty() {
                        Some(take_open(&mut inner, s))
                    } else {
                        None
                    }
                };
                if let Some(b) = batch {
                    me.flush(b).await;
                }
            });
        }
        (gen, idx, rx, to_flush)
    }

    async fn flush(&self, batch: Batch<S::Addr>) {
        let sh = &*self.sh;
        let has_reloc = batch
            .pendings
            .iter()
            .any(|p| matches!(p.origin, Origin::Reloc { .. }));
        let addr = loop {
            if let Some(a) = sh.space.alloc(batch.stream, has_reloc) {
                break a;
            }
            // A batch carrying GC relocations must NEVER wait on the GC
            // lock: the collector may be blocked awaiting this very batch.
            // Fail fast; the collection aborts safely (old locations stay
            // valid) and retries when space frees up.
            if has_reloc || !self.collect_once().await {
                self.fail_batch(batch);
                return;
            }
        };
        let epoch = sh.inner.borrow().epoch;
        let programmed = sh.space.program(addr, batch.page.clone(), epoch).await;
        // A power failure while the program was in flight tore the page (or
        // let it survive for the mount scan to account) and reset the store;
        // the rebuilt mapping table and allocator must not see this batch.
        if sh.inner.borrow().epoch != batch.epoch {
            for w in batch.waiters {
                let _ = w.send(Err(StoreError::CapacityExhausted));
            }
            return;
        }
        if programmed.is_err() {
            // A layer underneath is out of space: hand the unit back.
            sh.space.release(addr);
            self.fail_batch(batch);
            return;
        }
        {
            let mut inner = sh.inner.borrow_mut();
            sh.space.note_programmed(addr, batch.page.len() as u32);
            for (slot, p) in batch.pendings.iter().enumerate() {
                let Some(loc) = inner
                    .map
                    .get_mut(&p.rec.key)
                    .and_then(|c| c.get_mut(p.rec.version))
                else {
                    continue; // pruned or deleted while buffered
                };
                let stored = Loc::Stored {
                    addr,
                    slot: slot as u16,
                };
                match p.origin {
                    Origin::Fresh => {
                        let buffered = Loc::Buffered {
                            gen: batch.gen,
                            idx: slot,
                        };
                        if *loc == buffered {
                            *loc = stored;
                            sh.space.live_inc(addr);
                        }
                    }
                    Origin::Reloc { old, old_slot } => {
                        let was = Loc::Stored {
                            addr: old,
                            slot: old_slot,
                        };
                        if *loc == was {
                            *loc = stored;
                            sh.space.live_dec(old);
                            sh.space.live_inc(addr);
                            inner.stats.gc_relocated += 1;
                        }
                    }
                }
            }
            inner.flushing.remove(&batch.gen);
        }
        for w in batch.waiters {
            let _ = w.send(Ok(()));
        }
        if sh.space.low_on_space() {
            let _ = sh.inner.borrow().gc_nudge.send(());
        }
    }

    fn fail_batch(&self, batch: Batch<S::Addr>) {
        {
            let mut inner = self.sh.inner.borrow_mut();
            for (slot, p) in batch.pendings.iter().enumerate() {
                // Relocations keep their old (still valid) location.
                if matches!(p.origin, Origin::Fresh) {
                    if let Some(chain) = inner.map.get_mut(&p.rec.key) {
                        let buffered = Loc::Buffered {
                            gen: batch.gen,
                            idx: slot,
                        };
                        chain.remove(p.rec.version, &buffered);
                    }
                }
            }
            inner.flushing.remove(&batch.gen);
        }
        for w in batch.waiters {
            let _ = w.send(Err(StoreError::CapacityExhausted));
        }
    }

    /// Reads the youngest version of `key` with timestamp `<= at` —
    /// MILANA's snapshot read primitive.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] if the key has no visible version at `at`.
    pub async fn get_at(&self, key: &Key, at: Timestamp) -> Result<VersionedValue, StoreError> {
        self.get_where(key, at).await
    }

    /// Reads the latest version of `key` regardless of timestamp.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] if the key does not exist.
    pub async fn get_latest(&self, key: &Key) -> Result<VersionedValue, StoreError> {
        self.get_where(key, Timestamp::MAX).await
    }

    async fn get_where(&self, key: &Key, at: Timestamp) -> Result<VersionedValue, StoreError> {
        let sh = &*self.sh;
        sh.handle.sleep(sh.op_overhead).await;
        for _ in 0..8 {
            let (version, addr, slot) = {
                let mut inner = sh.inner.borrow_mut();
                let Some(e) = inner.map.get(key).and_then(|c| c.visible_at(at)) else {
                    return Err(StoreError::NotFound);
                };
                let version = e.version;
                match e.loc {
                    Loc::Buffered { gen, idx } => {
                        // DRAM hit: serve from a packer stream or an
                        // in-flight page.
                        let rec = match inner.streams.iter().find(|st| st.gen == gen) {
                            Some(st) => st.open.get(idx).map(|p| p.rec.clone()),
                            None => inner.flushing.get(&gen).and_then(|pg| pg.get(idx).cloned()),
                        };
                        let Some(rec) = rec else {
                            continue; // committed between checks; retry
                        };
                        debug_assert_eq!(rec.key, *key);
                        inner.stats.gets += 1;
                        return Ok(VersionedValue {
                            version,
                            value: rec.value,
                        });
                    }
                    Loc::Stored { addr, slot } => (version, addr, slot),
                }
            };
            // `None`: reclaimed under us. A mismatching tuple: relocated
            // under us. Either way retry with the fresh map.
            if let Some(page) = sh.space.read(addr).await {
                if let Some(rec) = page.get(slot as usize) {
                    if rec.key == *key && rec.version == version {
                        sh.inner.borrow_mut().stats.gets += 1;
                        return Ok(VersionedValue {
                            version,
                            value: rec.value.clone(),
                        });
                    }
                }
            }
        }
        unreachable!("key {key} kept moving during read; GC livelock")
    }

    /// Removes all versions of `key` (§3 API). Metadata-only in this model.
    pub fn delete(&self, key: &Key) {
        if let Some(chain) = self.sh.inner.borrow_mut().map.remove(key) {
            for e in chain.iter() {
                if let Loc::Stored { addr, .. } = e.loc {
                    self.sh.space.live_dec(addr);
                }
            }
        }
    }

    /// Raises the GC watermark: versions superseded at or below `ts` become
    /// collectible (§3.1). Watermarks never move backwards.
    pub fn set_watermark(&self, ts: Timestamp) {
        let mut inner = self.sh.inner.borrow_mut();
        if ts > inner.watermark {
            inner.watermark = ts;
        }
    }

    /// Current watermark.
    pub fn watermark(&self) -> Timestamp {
        self.sh.inner.borrow().watermark
    }

    /// All versions currently mapped for `key`, youngest first (test /
    /// recovery instrumentation).
    pub fn versions(&self, key: &Key) -> Vec<Version> {
        let inner = self.sh.inner.borrow();
        inner.map.get(key).map(Chain::versions).unwrap_or_default()
    }

    /// The youngest version mapped for `key` (metadata only, no I/O).
    pub fn latest_version(&self, key: &Key) -> Option<Version> {
        let inner = self.sh.inner.borrow();
        inner.map.get(key)?.latest().map(|e| e.version)
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.sh.inner.borrow().map.len()
    }

    /// All distinct keys, sorted by byte order (deterministic iteration
    /// for bulk copy / migration sweeps).
    pub fn keys(&self) -> Vec<Key> {
        let mut ks: Vec<Key> = self.sh.inner.borrow().map.keys().cloned().collect();
        ks.sort();
        ks
    }

    /// Zero-time bulk load for experiment setup. Call
    /// [`PackedStore::finish_load`] after the last record.
    ///
    /// # Panics
    ///
    /// Panics if the space fills during the load.
    pub fn bulk_load(&self, key: Key, value: Value, version: Version) {
        let rec = TupleRecord {
            key,
            version,
            value,
        };
        let len = rec.accounted_len();
        let page_size = self.device().config().page_size;
        let overflows = {
            let inner = self.sh.inner.borrow();
            !inner.load_buf.is_empty() && inner.load_bytes + len > page_size
        };
        if overflows {
            self.install_load_page();
        }
        let mut inner = self.sh.inner.borrow_mut();
        inner.load_bytes += len;
        inner.load_buf.push(rec);
    }

    /// Flushes the bulk-load packer.
    pub fn finish_load(&self) {
        if !self.sh.inner.borrow().load_buf.is_empty() {
            self.install_load_page();
        }
    }

    fn install_load_page(&self) {
        let (page, epoch): (Page, u64) = {
            let mut inner = self.sh.inner.borrow_mut();
            inner.load_bytes = 0;
            (Rc::new(std::mem::take(&mut inner.load_buf)), inner.epoch)
        };
        let addr = self.sh.space.install(page.clone(), epoch);
        self.sh.space.note_programmed(addr, page.len() as u32);
        self.map_stored(addr, &page);
    }

    /// Maps every tuple of the persisted `page`; a `(key, version)` already
    /// mapped keeps its first location and the copy stays garbage.
    fn map_stored(&self, addr: S::Addr, page: &Page) {
        let mut inner = self.sh.inner.borrow_mut();
        for (slot, rec) in page.iter().enumerate() {
            let stored = Loc::Stored {
                addr,
                slot: slot as u16,
            };
            let chain = inner.map.entry(rec.key.clone()).or_default();
            if chain.insert(rec.version, stored) {
                self.sh.space.live_inc(addr);
            }
        }
    }

    /// Records the replica's durable write floor: every page programmed from
    /// now on carries `ts` in its OOB floor field, so a future
    /// [`PackedStore::mount`] recovers at least this floor. Floors never
    /// move backwards.
    pub fn note_floor(&self, ts: Timestamp) {
        self.sh.space.note_floor(ts);
    }

    /// Injects a power failure: tears in-flight page programs on the device
    /// and drops all RAM state (mapping table, packer queues, accounting) —
    /// the store is unusable until [`PackedStore::mount`]. Returns the
    /// number of torn pages.
    pub fn power_fail(&self) -> u64 {
        let torn = self.sh.space.power_fail();
        self.reset_volatile();
        torn
    }

    /// Deterministic mount scan (§4.5 recovery): rebuilds the mapping table
    /// and version chains from every intact unit the space's scan finds,
    /// discarding torn pages (their programs were never acknowledged, so no
    /// acked write is lost). A GC relocation interrupted before its reclaim
    /// leaves two identical copies; the first in scan order is mapped, the
    /// other stays unreferenced garbage for the next collection. Returns
    /// what the scan found, including the recovered durable floor.
    pub async fn mount(&self) -> MountReport {
        let _gc = self.sh.gc_lock.acquire().await;
        self.reset_volatile();
        let (mut report, units) = self.sh.space.mount_scan().await;
        for (addr, page) in &units {
            self.map_stored(*addr, page);
        }
        report.keys = self.key_count() as u64;
        report
    }

    /// Starts a new mount epoch and drops all RAM-resident state (mapping
    /// table, packer streams, in-flight pages, accounting) the way a power
    /// failure would. Dropped waiters resolve their callers to an error;
    /// generations stay monotone across resets so stale flushes can never
    /// alias fresh ones.
    fn reset_volatile(&self) {
        let inner = &mut *self.sh.inner.borrow_mut();
        inner.epoch += 1;
        inner.map.clear();
        for st in &mut inner.streams {
            st.open.clear();
            st.open_bytes = 0;
            st.waiters.clear();
            st.gen = inner.next_gen;
            inner.next_gen += 1;
        }
        inner.next_stream = 0;
        inner.flushing.clear();
        inner.watermark = Timestamp::ZERO;
        inner.load_buf.clear();
        inner.load_bytes = 0;
        self.sh.space.reset();
    }

    /// One GC pass: pick the victim holding the most garbage, prune dead
    /// versions, relocate live tuples through the packer, reclaim.
    async fn collect_once(&self) -> bool {
        let sh = &*self.sh;
        let _gc = sh.gc_lock.acquire().await;
        let epoch = sh.inner.borrow().epoch;
        // No unit holds any garbage tuples: collecting would free nothing.
        let Some(victim) = sh.space.pick_victim() else {
            return false;
        };
        let Some(units) = sh.space.read_victim(victim).await else {
            return false;
        };
        let mut waiters = Vec::new();
        let mut flush_batches = Vec::new();
        for (addr, page) in units {
            for (slot, rec) in page.iter().enumerate() {
                let here = Loc::Stored {
                    addr,
                    slot: slot as u16,
                };
                let live = {
                    let inner = &mut *sh.inner.borrow_mut();
                    inner.map.get_mut(&rec.key).is_some_and(|chain| {
                        // Prune this chain first so cold garbage dies here.
                        inner.stats.versions_pruned +=
                            release_dead(&sh.space, chain, inner.watermark);
                        chain.get(rec.version) == Some(&here)
                    })
                };
                if live {
                    let origin = Origin::Reloc {
                        old: addr,
                        old_slot: slot as u16,
                    };
                    let (_gen, _idx, rx, to_flush) = self.enqueue(rec.clone(), origin);
                    waiters.push(rx);
                    flush_batches.extend(to_flush);
                }
            }
        }
        // Force out partial pages holding relocation tails so the reclaim
        // below cannot outrun persistence.
        {
            let mut inner = sh.inner.borrow_mut();
            for s in 0..inner.streams.len() {
                let has_reloc = inner.streams[s]
                    .open
                    .iter()
                    .any(|p| matches!(p.origin, Origin::Reloc { .. }));
                if has_reloc {
                    let b = take_open(&mut inner, s);
                    flush_batches.push(b);
                }
            }
        }
        for b in flush_batches {
            // Boxed to break the flush -> collect_once -> flush async cycle.
            Box::pin(self.flush(b)).await;
        }
        let relocated = waiters.len() as u64;
        for rx in waiters {
            match rx.await {
                Ok(Ok(())) => {}
                _ => return false, // relocation failed; keep victim intact
            }
        }
        // A power failure reset the store while this pass ran: abort without
        // reclaiming. The victim's tuples (and any relocated copies) are
        // both on flash; the mount deduplicated them.
        if sh.inner.borrow().epoch != epoch {
            return false;
        }
        let written = sh.space.reclaim(victim).await;
        sh.inner.borrow_mut().stats.gc_collections += 1;
        sh.space
            .device()
            .trace_gc(written.saturating_sub(relocated));
        true
    }
}

/// Prunes `chain` below `watermark`, releasing what the dead versions
/// occupied in `space`. Returns how many versions died.
fn release_dead<S: Space>(space: &S, chain: &mut Chain<Loc<S::Addr>>, watermark: Timestamp) -> u64 {
    let mut pruned = 0;
    for dead in chain.prune(watermark) {
        if let Loc::Stored { addr, .. } = dead.loc {
            space.live_dec(addr);
        }
        pruned += 1;
    }
    pruned
}

fn take_open<A>(inner: &mut Inner<A>, s: usize) -> Batch<A> {
    let gen = inner.streams[s].gen;
    inner.streams[s].gen = inner.next_gen;
    inner.next_gen += 1;
    let pendings = std::mem::take(&mut inner.streams[s].open);
    let waiters = std::mem::take(&mut inner.streams[s].waiters);
    inner.streams[s].open_bytes = 0;
    let page: Page = Rc::new(pendings.iter().map(|p| p.rec.clone()).collect());
    inner.flushing.insert(gen, page.clone());
    Batch {
        gen,
        stream: s,
        epoch: inner.epoch,
        pendings,
        waiters,
        page,
    }
}

#[cfg(test)]
mod tests {
    //! Behaviour the two spaces share, checked once over both.

    use super::*;
    use crate::mftl::{MftlConfig, UnifiedStore};
    use crate::types::value;
    use crate::vftl::{SplitStore, VftlConfig};
    use simkit::time::SimTime;
    use simkit::Sim;
    use timesync::ClientId;

    fn v(ts: u64) -> Version {
        Version::new(Timestamp(ts), ClientId(0))
    }

    fn val(n: usize) -> Value {
        value(vec![0xabu8; n])
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

    /// Runs `$check(sim, store)` on an MFTL store of `$raw_blocks` blocks,
    /// then on a VFTL store of `$split_blocks` (which loses a fifth of its
    /// device to the two over-provisioning reserves).
    macro_rules! on_both_spaces {
        ($check:ident, $raw_blocks:expr, $split_blocks:expr) => {{
            let sim = Sim::new(13);
            let store = UnifiedStore::new(sim.handle(), nand($raw_blocks), MftlConfig::default());
            $check(sim, store);
            let sim = Sim::new(13);
            let store = SplitStore::new(sim.handle(), nand($split_blocks), VftlConfig::default());
            $check(sim, store);
        }};
    }

    #[test]
    fn put_get_round_trip() {
        fn check<S: Space>(mut sim: Sim, s: PackedStore<S>) {
            sim.block_on(async move {
                s.put(Key::from(1u64), val(100), v(10)).await.unwrap();
                let got = s.get_at(&Key::from(1u64), Timestamp(10)).await.unwrap();
                assert_eq!(got.version, v(10));
                assert_eq!(got.value, val(100));
            });
        }
        on_both_spaces!(check, 16, 32);
    }

    #[test]
    fn snapshot_reads_see_old_versions() {
        fn check<S: Space>(mut sim: Sim, s: PackedStore<S>) {
            sim.block_on(async move {
                let k = Key::from(1u64);
                for ts in [10, 20, 30] {
                    s.put(k.clone(), val(ts as usize), v(ts)).await.unwrap();
                }
                assert_eq!(s.get_at(&k, Timestamp(10)).await.unwrap().version, v(10));
                assert_eq!(s.get_at(&k, Timestamp(25)).await.unwrap().version, v(20));
                assert_eq!(s.get_at(&k, Timestamp(99)).await.unwrap().version, v(30));
                assert_eq!(
                    s.get_at(&k, Timestamp(5)).await.unwrap_err(),
                    StoreError::NotFound
                );
            });
        }
        on_both_spaces!(check, 16, 32);
    }

    #[test]
    fn apply_unordered_accepts_any_order_and_dups() {
        fn check<S: Space>(mut sim: Sim, s: PackedStore<S>) {
            sim.block_on(async move {
                let k = Key::from(1u64);
                s.apply_unordered(k.clone(), val(3), v(30)).await.unwrap();
                s.apply_unordered(k.clone(), val(1), v(10)).await.unwrap();
                s.apply_unordered(k.clone(), val(2), v(20)).await.unwrap();
                s.apply_unordered(k.clone(), val(2), v(20)).await.unwrap(); // dup
                assert_eq!(s.versions(&k), vec![v(30), v(20), v(10)]);
                assert_eq!(s.get_at(&k, Timestamp(20)).await.unwrap().version, v(20));
                assert_eq!(s.stats().puts, 3, "the duplicate was not rewritten");
            });
        }
        on_both_spaces!(check, 16, 32);
    }

    #[test]
    fn capacity_exhausted_when_everything_live() {
        // 4*4*8 = 128 tuple slots raw, 6*4 = 24 pages split; no watermark,
        // so nothing ever dies and GC has nothing to reclaim.
        fn check<S: Space>(mut sim: Sim, s: PackedStore<S>) {
            sim.block_on(async move {
                let mut err = None;
                for i in 0..400u64 {
                    if let Err(e) = s.put(Key::from(i), val(472), v(i + 1)).await {
                        err = Some(e);
                        break;
                    }
                }
                assert_eq!(err, Some(StoreError::CapacityExhausted));
            });
        }
        on_both_spaces!(check, 4, 6);
    }

    #[test]
    fn bulk_load_is_instant_and_readable() {
        fn check<S: Space>(mut sim: Sim, s: PackedStore<S>) {
            for i in 0..1000u64 {
                s.bulk_load(Key::from(i), val(472), v(1));
            }
            s.finish_load();
            assert_eq!(sim.handle().now(), SimTime::ZERO);
            assert_eq!(s.key_count(), 1000);
            sim.block_on(async move {
                let got = s.get_at(&Key::from(999u64), Timestamp(5)).await.unwrap();
                assert_eq!(got.version, v(1));
            });
        }
        on_both_spaces!(check, 64, 64);
    }

    #[test]
    fn mount_recovers_chains_and_floor_after_power_fail() {
        fn check<S: Space>(mut sim: Sim, s: PackedStore<S>) {
            let h = sim.handle();
            sim.block_on(async move {
                let k = Key::from(1u64);
                for ts in [10u64, 20, 30] {
                    s.put(k.clone(), val(100), v(ts)).await.unwrap();
                }
                for i in 2..6u64 {
                    s.put(Key::from(i), val(100), v(i + 50)).await.unwrap();
                }
                // The floor promise rides in the OOB of every later program.
                s.note_floor(Timestamp(25));
                s.put(Key::from(6u64), val(100), v(60)).await.unwrap();
                // Let the packing windows flush everything durably.
                h.sleep(Duration::from_millis(5)).await;
                // A write still buffered (past the operation overhead,
                // inside the 1 ms packing window) at the failure is lost —
                // it was never acked.
                let s2 = s.clone();
                h.spawn(async move {
                    let _ = s2.put(Key::from(9u64), val(100), v(900)).await;
                });
                h.sleep(s.sh.op_overhead + Duration::from_micros(1)).await;
                assert_eq!(s.versions(&Key::from(9u64)), vec![v(900)]);
                s.power_fail();
                assert!(s.keys().is_empty());
                let report = s.mount().await;
                assert_eq!(report.floor, Timestamp(25));
                assert_eq!(report.keys, 6);
                // Full version chain survives: snapshot reads still work.
                assert_eq!(s.versions(&k), vec![v(30), v(20), v(10)]);
                assert_eq!(s.get_at(&k, Timestamp(25)).await.unwrap().version, v(20));
                assert!(s.get_latest(&Key::from(9u64)).await.is_err());
                // The store keeps working after recovery.
                s.put(Key::from(7u64), val(100), v(700)).await.unwrap();
                assert_eq!(
                    s.get_latest(&Key::from(7u64)).await.unwrap().version,
                    v(700)
                );
            });
        }
        on_both_spaces!(check, 16, 32);
    }
}

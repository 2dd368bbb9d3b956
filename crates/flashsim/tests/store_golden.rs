//! Golden-constant oracle for the two packed multi-version flash stores.
//!
//! One fixed script — bulk load, GC churn on a hot key set, out-of-order and
//! duplicate replicated applies, batch applies, snapshot reads (buffered and
//! persisted), watermark raises, a delete, a power failure in the middle of
//! page programs and the mount that follows — runs against `UnifiedStore`
//! (MFTL) and `SplitStore` (VFTL). Every counter the simulation exposes,
//! the final virtual time and the executor's poll count are compared with
//! constants recorded before the two stores were merged onto
//! `flashsim::packed`: any change to what the stores do, or to when they
//! spawn, sleep or wake, moves at least one of them.
//!
//! The VFTL constants were re-recorded in PR 25, when every store began
//! deriving its GC levels from its own device: this 207-segment store now
//! starts collecting at 12 free segments (the level `Backend::new` always
//! gave it), not the old default 8. Nothing else moved; the MFTL device is
//! small enough that its levels stayed at their floors. `polls` alone was
//! re-recorded for both stores when packing windows became callbacks and
//! a GC victim's page reads began sharing one task.
//!
//! Every constant of both stores was re-recorded when the packer began
//! filling one page at a time (rotating pages, not tuples, over the
//! channels): pages carry up to 8 tuples instead of about 2, so pages
//! written, pages read, collections, relocations, prunes, erases, torn
//! pages, scanned pages, the outcome fold (snapshot reads at the pruned
//! edge), the final time and the poll count all moved. Each round's two
//! warm puts are now staged before its hot ones: staged after them they
//! filled a page of their own, no VFTL segment mixed live and dead
//! tuples, and the relocation check below saw none.

use std::time::Duration;

use flashsim::mftl::{self, Page, UnifiedStore};
use flashsim::pftl::PageFtlStats;
use flashsim::vftl::{self, SplitStore};
use flashsim::{
    value, Backend, Key, MountReport, NandConfig, NandDevice, StoreError, StoreStats, Value,
};
use simkit::{Sim, SimHandle};
use timesync::{ClientId, Timestamp, Version};

const SEED: u64 = 0x601d;
const HOT_KEYS: u64 = 24;
const COLD_KEYS: u64 = 64;
const WARM_KEYS: u64 = 40;
const ROUNDS: u64 = 160;

/// Everything the script observes, in one comparable value.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    stats: StoreStats,
    page_reads: u64,
    page_writes: u64,
    block_erases: u64,
    torn_pages: u64,
    ftl: Option<PageFtlStats>,
    torn_by_power_fail: u64,
    mount: MountReport,
    /// FNV-style fold of every read and write outcome the script saw.
    outcomes: u64,
    now_ns: u64,
    polls: u64,
}

fn nand() -> NandConfig {
    NandConfig {
        blocks: 32,
        pages_per_block: 8,
        channels: 4,
        queue_depth: 16,
        ..NandConfig::default()
    }
}

fn v(ts: u64, client: u32) -> Version {
    Version::new(Timestamp(ts), ClientId(client))
}

/// Payload sizes: mostly the paper's 472 B (8 tuples fill a page exactly),
/// some short ones so pages also close on the packing window.
fn payload(tag: u64) -> Value {
    let len = if tag.is_multiple_of(5) { 100 } else { 472 };
    value(vec![(tag % 251) as u8; len])
}

struct Fold(u64);

impl Fold {
    fn mix(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x100000001b3);
    }

    fn write(&mut self, r: Result<(), StoreError>) {
        self.mix(match r {
            Ok(()) => 1,
            Err(StoreError::CapacityExhausted) => 2,
            Err(StoreError::StaleWrite(at)) => 3 ^ at.ts.0,
            Err(_) => 4,
        });
    }

    fn read(&mut self, r: Result<flashsim::VersionedValue, StoreError>) {
        match r {
            Ok(vv) => {
                self.mix(vv.version.ts.0);
                self.mix(vv.version.client.0 as u64);
                self.mix(vv.value.len() as u64 ^ ((vv.value[0] as u64) << 32));
            }
            Err(StoreError::NotFound) => self.mix(5),
            Err(_) => self.mix(6),
        }
    }
}

/// The script. `slow` is the store's per-operation overhead: sleeps that
/// must land inside an operation are scaled by it so the MFTL (1 µs) and
/// VFTL (8 µs) runs exercise the same windows.
async fn script(h: SimHandle, store: Backend, slow: Duration) -> (Fold, u64, MountReport) {
    let mut fold = Fold(0xcbf29ce484222325);

    // Churn: every round overwrites the hot set concurrently (pages fill
    // and flush at once, relocations share them), the watermark trails by
    // two rounds, and the round's tail reads a snapshot of every third key.
    for round in 1..=ROUNDS {
        let mut joins = Vec::new();
        // Two warm keys per round, each rewritten every 20 rounds: they
        // outlive the hot tuples packed beside them, so GC must relocate.
        for j in 0..2 {
            let s = store.clone();
            let key = Key::from(200 + (round * 2 + j) % WARM_KEYS);
            let ts = round * 1_000 + 100 + j;
            joins.push(h.spawn(async move { s.put(key, payload(ts), v(ts, 1)).await }));
        }
        for i in 0..HOT_KEYS {
            let s = store.clone();
            let ts = round * 1_000 + i;
            joins.push(h.spawn(async move { s.put(Key::from(i), payload(ts), v(ts, 1)).await }));
        }
        if round.is_multiple_of(7) {
            // Read while the round's puts sit in the packer: buffered hits.
            h.sleep(slow + Duration::from_micros(2)).await;
            for i in (0..HOT_KEYS).step_by(5) {
                fold.read(store.get_latest(&Key::from(i)).await);
            }
        }
        for j in joins {
            fold.write(j.await);
        }
        if round > 2 {
            store.set_watermark(Timestamp((round - 2) * 1_000 + HOT_KEYS));
        }
        for i in (0..HOT_KEYS).step_by(3) {
            let at = Timestamp((round.saturating_sub(1)) * 1_000 + i + 500);
            fold.read(store.get_at(&Key::from(i), at).await);
        }
        if round.is_multiple_of(16) {
            // A cold key now and then, and a primary write that is stale.
            fold.read(store.get_latest(&Key::from(1_000 + round)).await);
            fold.write(
                store
                    .put(Key::from(0u64), payload(round), v(round, 1))
                    .await,
            );
        }
        if round == 40 {
            // Replicated applies: out of order, older than the head, and a
            // duplicate of a version already present.
            let k = Key::from(2_000u64);
            for ts in [900u64, 300, 600, 300, 900] {
                fold.write(
                    store
                        .apply_unordered(k.clone(), payload(ts), v(ts, 2))
                        .await,
                );
            }
            fold.mix(store.versions(&k).len() as u64);
            fold.read(store.get_at(&k, Timestamp(650)).await);
            // Older than a hot key's head: lands mid-chain or gets pruned.
            let hot = Key::from(3u64);
            fold.write(
                store
                    .apply_unordered(hot.clone(), payload(39), v(39_500, 2))
                    .await,
            );
            fold.mix(store.versions(&hot).len() as u64);
        }
        if round.is_multiple_of(25) {
            // One transaction's writes: atomic visibility, one duplicate.
            let ts = round * 1_000 + 700;
            let items = vec![
                (Key::from(3_000u64), payload(ts), v(ts, 3)),
                (Key::from(5u64), payload(ts + 1), v(ts, 3)),
                (Key::from(3_001u64), payload(ts + 2), v(ts, 3)),
                (Key::from(3_000u64), payload(ts), v(ts, 3)),
            ];
            fold.write(store.apply_batch_unordered(items).await);
            fold.read(store.get_at(&Key::from(3_000u64), Timestamp(ts)).await);
        }
        if round == 90 {
            store.delete(&Key::from(7u64));
            fold.read(store.get_latest(&Key::from(7u64)).await);
            store.note_floor(Timestamp(88_000));
        }
    }
    // Let the packing windows and the collectors drain.
    h.sleep(Duration::from_millis(5)).await;

    // Power failure with page programs in flight: two rounds' worth of puts
    // fill and flush a page on every stream; 30 µs past the operation
    // overhead those programs are in flight and later tuples still buffered.
    let mut doomed = Vec::new();
    for i in 0..2 * HOT_KEYS {
        let s = store.clone();
        let ts = 900_000 + i;
        doomed.push(h.spawn(async move { s.put(Key::from(i), payload(ts), v(ts, 1)).await }));
    }
    h.sleep(slow + Duration::from_micros(30)).await;
    let torn = store.power_fail();
    fold.mix(store.keys().len() as u64);
    for j in doomed {
        fold.write(j.await);
    }
    let report = store.mount().await;
    fold.mix(store.keys().len() as u64);

    // The mounted store serves old snapshots and takes new writes (enough
    // of them that the collector runs over the rebuilt accounting).
    for i in 0..HOT_KEYS {
        fold.read(store.get_latest(&Key::from(i)).await);
        fold.mix(store.versions(&Key::from(i)).len() as u64);
    }
    for i in (0..COLD_KEYS).step_by(9) {
        fold.read(store.get_at(&Key::from(100 + i), Timestamp(5)).await);
    }
    for round in 1..=30u64 {
        let mut joins = Vec::new();
        for i in 0..HOT_KEYS {
            let s = store.clone();
            let ts = 1_000_000 + round * 1_000 + i;
            joins.push(h.spawn(async move { s.put(Key::from(i), payload(ts), v(ts, 1)).await }));
        }
        for j in joins {
            fold.write(j.await);
        }
        store.set_watermark(Timestamp(1_000_000 + (round - 1) * 1_000 + HOT_KEYS));
    }
    h.sleep(Duration::from_millis(5)).await;
    for i in 0..HOT_KEYS {
        fold.read(store.get_latest(&Key::from(i)).await);
    }
    (fold, torn, report)
}

fn bulk_load(store: &Backend) {
    // Two versions of every hot key (so the first snapshot reads have
    // history) and one of every cold key, all below the churn's timestamps.
    for i in 0..HOT_KEYS {
        store.bulk_load(Key::from(i), payload(i), v(1, 0));
        store.bulk_load(Key::from(i), payload(i + 1), v(3, 0));
    }
    for i in 0..COLD_KEYS {
        store.bulk_load(Key::from(100 + i), payload(i), v(2, 0));
    }
    store.finish_load();
}

fn run(mut sim: Sim, store: Backend, dev: NandDevice<Page>, slow: Duration) -> Golden {
    let h = sim.handle();
    bulk_load(&store);
    assert_eq!(h.now().as_nanos(), 0, "bulk load is zero-time");
    let (fold, torn, mount) = sim.block_on(script(h.clone(), store.clone(), slow));
    let d = dev.stats();
    let got = Golden {
        stats: store.stats(),
        page_reads: d.page_reads,
        page_writes: d.page_writes,
        block_erases: d.block_erases,
        torn_pages: d.torn_pages,
        ftl: None,
        torn_by_power_fail: torn,
        mount,
        outcomes: fold.0,
        now_ns: h.now().as_nanos(),
        polls: h.polls(),
    };
    assert!(got.stats.gc_collections >= 20, "{got:?}");
    assert!(got.stats.gc_relocated > 0, "GC relocated nothing: {got:?}");
    assert!(got.torn_pages > 0, "power failure tore no page: {got:?}");
    got
}

#[test]
fn mftl_matches_recorded_constants() {
    let sim = Sim::new(SEED);
    let s = UnifiedStore::new(sim.handle(), nand(), mftl::PACKING_WINDOW);
    let got = run(
        sim,
        Backend::Mftl(s.clone()),
        s.device().clone(),
        mftl::OP_OVERHEAD,
    );
    let want = Golden {
        stats: StoreStats {
            gets: 1452,
            puts: 4951,
            pages_written: 597,
            pages_read: 1764,
            gc_collections: 53,
            gc_relocated: 55,
            versions_pruned: 6030,
        },
        page_reads: 1764,
        page_writes: 597,
        block_erases: 53,
        torn_pages: 5,
        ftl: None,
        torn_by_power_fail: 5,
        mount: MountReport {
            pages_scanned: 187,
            torn_pages: 5,
            keys: 131,
            floor: Timestamp(88_000),
        },
        outcomes: 5718528934079537180,
        now_ns: 318_000_000,
        polls: 19976,
    };
    assert_eq!(got, want);
}

#[test]
fn vftl_matches_recorded_constants() {
    let sim = Sim::new(SEED);
    let s = SplitStore::new(sim.handle(), nand());
    let mut got = run(
        sim,
        Backend::Vftl(s.clone()),
        s.ftl().device().clone(),
        vftl::OP_OVERHEAD,
    );
    got.ftl = Some(s.ftl().stats());
    let want = Golden {
        stats: StoreStats {
            gets: 1452,
            puts: 4951,
            pages_written: 1244,
            pages_read: 2523,
            gc_collections: 337,
            gc_relocated: 60,
            versions_pruned: 5362,
        },
        page_reads: 2523,
        page_writes: 1244,
        block_erases: 128,
        torn_pages: 5,
        ftl: Some(PageFtlStats {
            lba_writes: 514,
            lba_reads: 1687,
            gc_relocated: 723,
            gc_erases: 128,
        }),
        torn_by_power_fail: 5,
        mount: MountReport {
            pages_scanned: 225,
            torn_pages: 5,
            keys: 131,
            floor: Timestamp(88_000),
        },
        outcomes: 11479919174699341133,
        now_ns: 370_224_000,
        polls: 23028,
    };
    assert_eq!(got, want);
}

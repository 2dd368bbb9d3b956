//! A guided tour of the software-defined flash stack, bottom-up — the
//! substrate Contribution 3 is built on. No cluster, no transactions: just
//! the storage layers and their physics.
//!
//! ```sh
//! cargo run --example ftl_tour
//! ```

use std::time::Duration;

use flashsim::dftl::{DemandMappedStore, DftlConfig};
use flashsim::mftl::{MftlConfig, UnifiedStore};
use flashsim::nand::{NandConfig, NandDevice, PhysLoc};
use flashsim::{value, Key};
use simkit::Sim;
use timesync::{ClientId, Timestamp, Version};

fn v(ts: u64) -> Version {
    Version::new(Timestamp(ts), ClientId(1))
}

fn main() {
    let mut sim = Sim::new(1588); // the PTP standard's number, naturally
    let h = sim.handle();
    let hh = h.clone();
    sim.block_on(async move {
        // ------------------------------------------------------------------
        // Layer 0: raw NAND. Pages program once per erase cycle, in order.
        // ------------------------------------------------------------------
        let dev: NandDevice<u32> = NandDevice::new(
            hh.clone(),
            NandConfig {
                blocks: 16,
                pages_per_block: 4,
                channels: 4,
                ..NandConfig::default()
            },
        );
        let b = dev.alloc_block().unwrap();
        let t0 = hh.now();
        dev.program(PhysLoc { block: b, page: 0 }, 0xBEEF).await.unwrap();
        println!(
            "[nand] page program took {:?} (the paper's 100us)",
            hh.now() - t0
        );
        // Overwrite without erase? The device says no — that refusal is what
        // makes old versions free.
        let err = dev.program(PhysLoc { block: b, page: 0 }, 0xDEAD).await.unwrap_err();
        println!("[nand] in-place overwrite rejected: {err}");
        dev.erase(b).await.unwrap();
        println!(
            "[nand] block erased (1ms, wear count now {})",
            dev.erase_count(b)
        );

        // ------------------------------------------------------------------
        // Layer 1: the unified multi-version FTL (MFTL). Keys map straight
        // to flash tuples; versions accumulate by *not* erasing.
        // ------------------------------------------------------------------
        let store = UnifiedStore::new(
            hh.clone(),
            NandConfig {
                blocks: 128,
                pages_per_block: 8,
                channels: 4,
                ..NandConfig::default()
            },
            MftlConfig::default(),
        );
        let k = Key::from(42u64);
        for ts in [100u64, 200, 300] {
            store
                .put(k.clone(), value(format!("v@{ts}").into_bytes()), v(ts))
                .await
                .unwrap();
        }
        println!(
            "[mftl] key {k} now has versions {:?} — remap-on-write kept them all",
            store.versions(&k)
        );
        for at in [150u64, 250, 999] {
            let got = store.get_at(&k, Timestamp(at)).await.unwrap();
            println!(
                "[mftl] snapshot read at t={at}: {:?}",
                std::str::from_utf8(&got.value).unwrap()
            );
        }
        // The watermark: once every client has moved past t=250, history
        // below the youngest version <= 250 is garbage.
        store.set_watermark(Timestamp(250));
        store
            .put(k.clone(), value(&b"v@400"[..]), v(400))
            .await
            .unwrap();
        println!(
            "[mftl] after watermark(250) + one write, versions: {:?} (v@100 pruned)",
            store.versions(&k)
        );

        // ------------------------------------------------------------------
        // Layer 2: what GC actually costs. Hammer overwrites and watch the
        // collector relocate live tuples and erase blocks.
        // ------------------------------------------------------------------
        for round in 1..=30u64 {
            for i in 0..64u64 {
                let ts = 1_000 + round * 100 + i;
                store
                    .put(Key::from(i), value(vec![0u8; 472]), v(ts))
                    .await
                    .unwrap();
            }
            store.set_watermark(Timestamp(1_000 + (round.saturating_sub(1)) * 100 + 64));
        }
        let stats = store.stats();
        let dstats = store.device().stats();
        println!(
            "[gc]   {} puts -> {} pages programmed, {} blocks erased, {} tuples relocated, {} versions pruned",
            stats.puts, dstats.page_writes, dstats.block_erases, stats.gc_relocated, stats.versions_pruned
        );

        // ------------------------------------------------------------------
        // Layer 3: when the mapping table outgrows DRAM (§3.1 future work),
        // page it on demand — hits are free, misses cost a flash read.
        // ------------------------------------------------------------------
        let paged = DemandMappedStore::new(
            hh.clone(),
            store,
            DftlConfig {
                cached_entries: 8,
            },
        );
        // Touch 8 hot keys twice: second round is all hits.
        for _ in 0..2 {
            for i in 0..8u64 {
                let _ = paged.get_at(&Key::from(i), Timestamp::MAX).await;
            }
        }
        let ds = paged.stats();
        println!(
            "[dftl] 8-entry mapping cache over 64 keys: {} hits / {} misses ({:.0}% hit rate on the hot set)",
            ds.hits,
            ds.misses,
            ds.hit_rate() * 100.0
        );

        hh.sleep(Duration::from_millis(1)).await;
        println!("tour complete at virtual time {}", hh.now());
    });
}

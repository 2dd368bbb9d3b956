//! Property-based tests: every multi-version backend must behave like a
//! simple in-memory model of version chains under arbitrary operation
//! streams — including GC churn, watermark pruning, packing, out-of-order
//! replicated applies, and power failures followed by a mount.

use std::collections::BTreeMap;

use flashsim::{value, Backend, BackendKind, Key, NandConfig, StoreError};
use proptest::prelude::*;
use simkit::Sim;
use timesync::{ClientId, Timestamp, Version};

/// A scripted operation against the store.
#[derive(Debug, Clone)]
enum Op {
    /// Put key (index into a small key set) with the next timestamp.
    Put(u8),
    /// Snapshot read of key at a timestamp offset back in history.
    GetAt(u8, u8),
    /// Raise the watermark to "now - lag".
    Watermark(u8),
    /// Delete a key outright.
    Delete(u8),
    /// Replicated apply of key: an odd selector re-applies a version the
    /// key already has (a duplicate); an even one applies a fresh version
    /// stamped that many half-steps back in history (older than the head).
    ApplyUnordered(u8, u8),
    /// Power failure, then mount.
    PowerFailMount,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => any::<u8>().prop_map(Op::Put),
        4 => (any::<u8>(), any::<u8>()).prop_map(|(k, d)| Op::GetAt(k, d)),
        1 => any::<u8>().prop_map(Op::Watermark),
        1 => any::<u8>().prop_map(Op::Delete),
        3 => (any::<u8>(), any::<u8>()).prop_map(|(k, sel)| Op::ApplyUnordered(k, sel)),
        1 => Just(Op::PowerFailMount),
    ]
}

/// Reference model: per-key sorted version chains with the same watermark
/// pruning rule (keep the youngest version at-or-below the watermark).
#[derive(Default)]
struct Model {
    chains: BTreeMap<u64, Vec<(Version, u8)>>, // youngest first
    watermark: Timestamp,
    /// Every write ever acknowledged, pruned and deleted ones included:
    /// what a mount may legitimately find on the medium.
    history: BTreeMap<(u64, Version), u8>,
}

impl Model {
    /// Maps an acknowledged write; a version already present is a no-op.
    fn put(&mut self, key: u64, version: Version, tag: u8) {
        let chain = self.chains.entry(key).or_default();
        let pos = chain
            .iter()
            .position(|&(v, _)| v <= version)
            .unwrap_or(chain.len());
        if chain.get(pos).is_some_and(|&(v, _)| v == version) {
            return;
        }
        chain.insert(pos, (version, tag));
        self.history.insert((key, version), tag);
    }

    /// After a mount the store holds whatever survived on the medium. Flash
    /// keeps pruned and deleted versions until GC erases them, so they may
    /// come back; the contract is that nothing acknowledged and still
    /// mapped is lost and nothing is invented. Checks both, then adopts the
    /// store's chain as the model's.
    fn adopt_mounted(&mut self, key: u64, mounted: &[Version]) {
        for &(version, _) in self.chains.get(&key).into_iter().flatten() {
            assert!(
                mounted.contains(&version),
                "key {key}: mount lost mapped version {version}"
            );
        }
        let chain: Vec<(Version, u8)> = mounted
            .iter()
            .map(|&version| match self.history.get(&(key, version)) {
                Some(&tag) => (version, tag),
                None => panic!("key {key}: mount invented version {version}"),
            })
            .collect();
        assert!(chain.windows(2).all(|w| w[0].0 > w[1].0), "key {key}");
        self.chains.insert(key, chain);
    }

    fn prune(&mut self, key: u64) {
        let wm = self.watermark;
        if let Some(chain) = self.chains.get_mut(&key) {
            if let Some(keep) = chain.iter().position(|&(v, _)| v.ts <= wm) {
                chain.truncate(keep + 1);
            }
        }
    }

    fn get_at(&self, key: u64, at: Timestamp) -> Option<(Version, u8)> {
        self.chains
            .get(&key)?
            .iter()
            .find(|&&(v, _)| v.ts <= at)
            .copied()
    }

    fn delete(&mut self, key: u64) {
        self.chains.remove(&key);
    }
}

fn check_backend(kind: BackendKind, ops: Vec<Op>, seed: u64) {
    let mut sim = Sim::new(seed);
    let h = sim.handle();
    let nand = NandConfig {
        channels: 4,
        queue_depth: 32,
        ..NandConfig::default()
    }
    .sized_for(4_000, 512, 0.10);
    let store = Backend::new(kind, &h, nand);
    let store2 = store.clone();
    let hh = h.clone();
    sim.block_on(async move {
        let mut model = Model::default();
        let mut clock = 1_000u64; // model timestamps advance per op
        let client = ClientId(1);
        for op in ops {
            clock += 1_000;
            match op {
                Op::Put(k) => {
                    let key = (k % 16) as u64;
                    let version = Version::new(Timestamp(clock), client);
                    let tag = (clock % 251) as u8;
                    match store2
                        .put(Key::from(key), value(vec![tag; 24]), version)
                        .await
                    {
                        Ok(()) => {
                            model.put(key, version, tag);
                            model.prune(key);
                        }
                        Err(StoreError::CapacityExhausted) => {
                            // Backpressure is allowed; the model skips too.
                        }
                        Err(e) => panic!("unexpected put error: {e}"),
                    }
                }
                Op::GetAt(k, back) => {
                    let key = (k % 16) as u64;
                    let at = Timestamp(clock.saturating_sub(back as u64 * 500));
                    // Only timestamps at/above the watermark are contractually
                    // readable (GC may discard older history).
                    if at < model.watermark {
                        continue;
                    }
                    let got = store2.get_at(&Key::from(key), at).await;
                    let expect = model.get_at(key, at);
                    match (got, expect) {
                        (Ok(vv), Some((version, tag))) => {
                            assert_eq!(vv.version, version, "key {key} at {at:?}");
                            assert_eq!(vv.value[0], tag, "key {key} wrong payload");
                        }
                        (Err(StoreError::NotFound), None) => {}
                        (got, expect) => {
                            panic!("key {key} at {at:?}: store={got:?} model={expect:?}")
                        }
                    }
                }
                Op::Watermark(lag) => {
                    let wm = Timestamp(clock.saturating_sub(lag as u64 * 1_000));
                    if wm > model.watermark {
                        model.watermark = wm;
                        let keys: Vec<u64> = model.chains.keys().copied().collect();
                        for k in keys {
                            model.prune(k);
                        }
                    }
                    store2.set_watermark(wm);
                }
                Op::Delete(k) => {
                    let key = (k % 16) as u64;
                    store2.delete(&Key::from(key));
                    model.delete(key);
                }
                Op::ApplyUnordered(k, sel) => {
                    let key = (k % 16) as u64;
                    let chain = model.chains.get(&key).map_or(&[][..], |c| &c[..]);
                    let (version, tag) = if sel % 2 == 1 && !chain.is_empty() {
                        chain[(sel / 2) as usize % chain.len()]
                    } else {
                        // A second client, so a back-dated stamp never
                        // collides with a different payload's version.
                        let ts = clock.saturating_sub(sel as u64 * 500);
                        (Version::new(Timestamp(ts), ClientId(2)), (ts % 251) as u8)
                    };
                    match store2
                        .apply_unordered(Key::from(key), value(vec![tag; 24]), version)
                        .await
                    {
                        Ok(()) => {
                            model.put(key, version, tag);
                            model.prune(key);
                        }
                        Err(StoreError::CapacityExhausted) => {}
                        Err(e) => panic!("unexpected apply error: {e}"),
                    }
                }
                Op::PowerFailMount => {
                    store2.power_fail();
                    store2.mount().await;
                    for key in 0..16u64 {
                        model.adopt_mounted(key, &store2.versions(&Key::from(key)));
                    }
                }
            }
        }
        // Drain in-flight flushes/GC before the final audit.
        hh.sleep(std::time::Duration::from_millis(10)).await;
        for key in 0..16u64 {
            let got = store2.get_at(&Key::from(key), Timestamp(u64::MAX)).await;
            let expect = model.get_at(key, Timestamp(u64::MAX));
            match (got, expect) {
                (Ok(vv), Some((version, _))) => assert_eq!(vv.version, version),
                (Err(StoreError::NotFound), None) => {}
                (got, expect) => panic!("final key {key}: store={got:?} model={expect:?}"),
            }
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32, ..ProptestConfig::default()
    })]

    #[test]
    fn mftl_matches_version_chain_model(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        seed in 0u64..1_000,
    ) {
        check_backend(BackendKind::Mftl, ops, seed);
    }

    #[test]
    fn vftl_matches_version_chain_model(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        seed in 0u64..1_000,
    ) {
        check_backend(BackendKind::Vftl, ops, seed);
    }

    #[test]
    fn dram_matches_version_chain_model(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        seed in 0u64..1_000,
    ) {
        check_backend(BackendKind::Dram, ops, seed);
    }

    /// The NAND contract itself: any interleaving of writes through the
    /// unified FTL ends with every block either erased or holding
    /// sequentially-programmed pages, and the erase counters only grow.
    #[test]
    fn nand_wear_and_ordering_invariants(
        puts in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..200),
        seed in 0u64..1_000,
    ) {
        let mut sim = Sim::new(seed);
        let h = sim.handle();
        let nand = NandConfig {
            channels: 2,
            queue_depth: 16,
            blocks: 48,
            pages_per_block: 8,
            ..NandConfig::default()
        };
        let store = flashsim::mftl::UnifiedStore::new(
            h.clone(),
            nand,
            flashsim::mftl::PACKING_WINDOW,
        );
        let dev = store.device().clone();
        let store2 = store.clone();
        sim.block_on(async move {
            let mut ts = 0u64;
            for (k, _) in puts {
                ts += 1_000;
                let _ = store2
                    .put(
                        Key::from((k % 8) as u64),
                        value(vec![k; 400]),
                        Version::new(Timestamp(ts), ClientId(0)),
                    )
                    .await;
                if ts.is_multiple_of(16_000) {
                    store2.set_watermark(Timestamp(ts.saturating_sub(8_000)));
                }
            }
        });
        // All erase counters are sane and free accounting consistent.
        let cfg = dev.config().clone();
        for b in 0..cfg.blocks {
            let programmed = dev.pages_programmed(b);
            prop_assert!(programmed <= cfg.pages_per_block);
        }
        prop_assert!(dev.free_blocks() <= cfg.blocks as usize);
    }
}

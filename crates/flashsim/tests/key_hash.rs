//! Hash-quality oracle on the real key type.
//!
//! Every mapping table in the workspace is a `perfkit::FastMap<Key, _>`, and
//! hashbrown takes a hash's low bits for the probe start and its top seven
//! for the tag it compares before calling `Eq`. `Key::from(u64)` is eight
//! big-endian id bytes plus eight zeros — a shape whose entropy a
//! multiply-only fold leaves in the high bits — so the spread is checked
//! here on `Key` itself, by count (bucket loads and `Eq` calls), never by
//! timing.

use std::cell::Cell;
use std::hash::{BuildHasher, Hash, Hasher};

use flashsim::Key;
use perfkit::{fast_map_with_capacity, FxBuildHasher};

/// `retwis_mix`: 240 000 keys over three shards, so a replica maps 80 000.
const KEYSPACE: u64 = 240_000;
const REPLICA_SHARE: usize = 80_000;

#[test]
fn keys_spread_over_the_buckets_of_a_table_sized_for_them() {
    for n in [2_700u64, REPLICA_SHARE as u64, KEYSPACE] {
        let mask = ((n * 8 / 7).next_power_of_two() - 1) as usize;
        let mut load = vec![0u32; mask + 1];
        let mut tags = [false; 128];
        for i in 0..n {
            let hash = FxBuildHasher::default().hash_one(Key::from(i));
            load[hash as usize & mask] += 1;
            tags[(hash >> 57) as usize] = true;
        }
        let fullest = load.iter().max().expect("mask + 1 >= 1 buckets");
        let distinct = load.iter().filter(|&&c| c > 0).count();
        assert!(
            *fullest <= 16,
            "n = {n}: fullest of {} buckets holds {fullest} ({distinct} in use)",
            mask + 1
        );
        assert!(tags.iter().all(|&t| t), "n = {n}: unused tag values");
    }
}

thread_local! {
    static COMPARES: Cell<u64> = const { Cell::new(0) };
}

/// A `Key` that hashes exactly as `Key` does and counts its `Eq` calls.
struct Counted(Key);

impl Hash for Counted {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl PartialEq for Counted {
    fn eq(&self, other: &Counted) -> bool {
        COMPARES.with(|c| c.set(c.get() + 1));
        self.0 == other.0
    }
}

impl Eq for Counted {}

/// `Eq` calls per lookup over `ids`, all of which must hit (or all miss).
fn compares_per_lookup(
    map: &perfkit::FastMap<Counted, u64>,
    ids: impl Iterator<Item = u64>,
    hit: bool,
) -> f64 {
    COMPARES.with(|c| c.set(0));
    let mut lookups = 0u64;
    for id in ids {
        assert_eq!(map.get(&Counted(Key::from(id))).is_some(), hit, "id {id}");
        lookups += 1;
    }
    COMPARES.with(Cell::get) as f64 / lookups as f64
}

#[test]
fn a_lookup_in_a_replica_sized_table_compares_about_one_key() {
    // Every third id of the keyspace: a replica's share, spread over it.
    let mut map = fast_map_with_capacity(REPLICA_SHARE);
    for id in (0..KEYSPACE).step_by(3) {
        map.insert(Counted(Key::from(id)), id);
    }
    assert_eq!(map.len(), REPLICA_SHARE);
    let per_hit = compares_per_lookup(&map, (0..KEYSPACE).step_by(3), true);
    let per_miss = compares_per_lookup(&map, (1..KEYSPACE).step_by(3), false);
    assert!(per_hit <= 1.1, "{per_hit:.2} key compares per hit");
    assert!(per_miss <= 0.2, "{per_miss:.2} key compares per miss");
}

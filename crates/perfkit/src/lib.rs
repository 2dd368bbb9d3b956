//! # perfkit — the performance layer of the reproduction
//!
//! Three independent pieces, all dependency-free:
//!
//! - [`FastMap`] / [`FastSet`]: `HashMap`/`HashSet` aliases over a
//!   deterministic FxHash-style hasher ([`fxhash::FxHasher`]) for the
//!   `Key`/`TxnId` hot paths. The default SipHash `RandomState` both
//!   burns cycles on a keyed cryptographic hash the simulator does not
//!   need and randomizes iteration order per process; the fixed-seed
//!   multiply-rotate hash is several times faster on short keys and
//!   makes map iteration order reproducible across runs (no code may
//!   *depend* on that order, but reproducibility turns any accidental
//!   dependence into a deterministic bug instead of a flaky one).
//!   `finish` ends with an avalanche step, because hashbrown indexes by
//!   a hash's low bits and tags by its top seven and the fold alone
//!   leaves big-endian keys with constant low bits ([`fxhash`] has the
//!   details). Rule: hash quality is tested on the workspace's real key
//!   shapes at its real table sizes, not on a small generic sample.
//! - [`pool`]: a worker-pool runner for embarrassingly parallel
//!   deterministic simulations (one sim per thread, ordered merge), with
//!   the worker count `repro --threads` sets once per process
//!   (`pool::set_threads`). One worker reproduces the serial behavior
//!   exactly, and because each simulation is self-contained and seeded,
//!   the merged results — and therefore every `--json` artifact — are
//!   byte-identical at any thread count.
//! - [`alloc`] (feature `count-allocs`): a counting global allocator so
//!   `repro <experiment>` can report the allocations a run made as a
//!   deterministic counter.

pub mod fxhash;
pub mod pool;

#[cfg(feature = "count-allocs")]
pub mod alloc;

use std::collections::{HashMap, HashSet};
use std::hash::BuildHasherDefault;

pub use fxhash::FxHasher;

/// A `BuildHasher` producing [`FxHasher`]s; `Default`-constructible, so
/// `FastMap::default()` works everywhere `HashMap::new()` did.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Drop-in `HashMap` with the deterministic fast hasher.
pub type FastMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// Drop-in `HashSet` with the deterministic fast hasher.
pub type FastSet<T> = HashSet<T, FxBuildHasher>;

/// A [`FastMap`] with space for `cap` entries.
pub fn fast_map_with_capacity<K, V>(cap: usize) -> FastMap<K, V> {
    FastMap::with_capacity_and_hasher(cap, FxBuildHasher::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_map_behaves_like_hash_map() {
        let mut m: FastMap<u64, &str> = FastMap::default();
        m.insert(1, "a");
        m.insert(2, "b");
        assert_eq!(m.get(&1), Some(&"a"));
        assert_eq!(m.remove(&2), Some("b"));
        assert!(!m.contains_key(&2));
        let mut s: FastSet<u64> = FastSet::default();
        assert!(s.insert(7));
        assert!(!s.insert(7));
    }

    #[test]
    fn iteration_order_is_reproducible() {
        // Two maps built the same way iterate the same way — the property
        // SipHash's per-process random seed deliberately breaks.
        let build = || {
            let mut m = fast_map_with_capacity::<u64, u64>(0);
            for i in 0..1000 {
                m.insert(i * 2654435761, i);
            }
            m.keys().copied().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}

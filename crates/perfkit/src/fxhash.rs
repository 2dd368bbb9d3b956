//! A deterministic FxHash-style hasher with a finaliser.
//!
//! The classic Firefox/rustc word-at-a-time hash: fold each word into the
//! state with a rotate, an xor, and a multiply by a fixed odd constant.
//! Not collision-resistant against adversarial keys — every key here is
//! simulator-internal (`Key` digests, `TxnId`s, node ids), so speed and
//! determinism win. Hand-written because the build environment is offline
//! (no `rustc-hash` crate); the algorithm is the well-known public one.
//!
//! # Why `finish` mixes
//!
//! `std`'s `HashMap` (hashbrown) reads two bit ranges of a hash: the low
//! `log2(buckets)` bits choose where probing starts, and the top seven are
//! the tag compared before `Eq` is called. A multiply by an odd constant
//! only carries entropy *upward*, and the fold is little-endian, so an
//! input whose varying bytes sit high in a word — anything big-endian —
//! leaves the folded state's low bits constant. `flashsim::Key::from(u64)`
//! is exactly that shape (eight big-endian id bytes, eight zeros): without
//! a finaliser, 240 000 such keys start probing from 32 slots at every
//! table size and a lookup walks a collision chain of thousands, one
//! `memcmp` per tag match. `finish` therefore runs the state through
//! murmur3's `fmix64`, a fixed bijection after which every output bit
//! depends on every state bit. It is still seedless: same input, same
//! hash, in every process.
//!
//! Hash quality is tested on the shapes the workspace really hashes, at
//! the table sizes it really builds — the tests below, and
//! `crates/flashsim/tests/key_hash.rs` on `Key` itself — by bucket load
//! and `Eq` count, not by timing. A new key type on a hot `FastMap` gets a
//! row there.

use std::hash::Hasher;

/// Fixed odd multiplier (high-entropy, from the golden ratio).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// The hasher state. Zero-initialized: same input → same hash, every
/// process, every run.
#[derive(Default, Clone, Copy, Debug)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(&bytes[..8]);
            self.add_to_hash(u64::from_le_bytes(buf));
            bytes = &bytes[8..];
        }
        if bytes.len() >= 4 {
            let mut buf = [0u8; 4];
            buf.copy_from_slice(&bytes[..4]);
            self.add_to_hash(u64::from(u32::from_le_bytes(buf)));
            bytes = &bytes[4..];
        }
        if bytes.len() >= 2 {
            let mut buf = [0u8; 2];
            buf.copy_from_slice(&bytes[..2]);
            self.add_to_hash(u64::from(u16::from_le_bytes(buf)));
            bytes = &bytes[2..];
        }
        if let Some(&b) = bytes.first() {
            self.add_to_hash(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    /// The folded state through murmur3's `fmix64`, so every output bit
    /// depends on every state bit (see the module docs for why).
    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.hash;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of(bytes: &[u8]) -> u64 {
        let mut h = FxHasher::default();
        h.write(bytes);
        h.finish()
    }

    /// Hashes `n` inputs the way a `FastMap` holding them would and checks
    /// the two bit ranges hashbrown consumes: `hash & mask` picks the probe
    /// start (so the fullest bucket of a table sized for `n` must stay
    /// small) and `hash >> 57` is the tag compared before any `Eq` call (so
    /// all 128 values must be in use).
    fn assert_spreads<T: Hash>(shape: &str, n: u64, make: impl Fn(u64) -> T) {
        let mask = ((n * 8 / 7).next_power_of_two() - 1) as usize;
        let mut load = vec![0u32; mask + 1];
        let mut tags = [false; 128];
        for i in 0..n {
            let mut h = FxHasher::default();
            make(i).hash(&mut h);
            let hash = h.finish();
            load[hash as usize & mask] += 1;
            tags[(hash >> 57) as usize] = true;
        }
        let fullest = load.iter().max().expect("mask + 1 >= 1 buckets");
        let distinct = load.iter().filter(|&&c| c > 0).count();
        assert!(
            *fullest <= 16,
            "{shape}, n = {n}: fullest of {} buckets holds {fullest} ({distinct} in use)",
            mask + 1
        );
        let used = tags.iter().filter(|&&t| t).count();
        assert_eq!(used, 128, "{shape}, n = {n}: {used} of 128 tags in use");
    }

    /// The table sizes of the benchmark: `read_hot`'s and `retwis_mix`'s
    /// per-replica share, and `retwis_mix`'s whole keyspace.
    const SIZES: [u64; 3] = [2_700, 80_000, 240_000];

    #[test]
    fn key_shaped_bytes_spread() {
        // `flashsim::Key::from(u64)`: big-endian id, eight zero bytes, hashed
        // as `[u8]` (length prefix, then the bytes) — which is also how an
        // array hashes.
        for n in SIZES {
            assert_spreads("be-id key", n, |i| {
                let mut key = [0u8; 16];
                key[..8].copy_from_slice(&i.to_be_bytes());
                key
            });
        }
    }

    #[test]
    fn txn_id_and_addr_shaped_tuples_spread() {
        for n in SIZES {
            // `TxnId { client: ClientId(u32), seq: u64 }`, 16 clients.
            assert_spreads("(u32, u64)", n, |i| ((i % 16) as u32, i / 16));
            // `Addr { node: NodeId(u32), port: u16 }`, 4 ports a node.
            assert_spreads("(u32, u16)", n, |i| ((i / 4) as u32, (i % 4) as u16));
        }
    }

    #[test]
    fn small_integer_ids_spread() {
        for n in SIZES {
            assert_spreads("u64", n, |i| i);
            assert_spreads("u32", n, |i| i as u32);
        }
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_of(b"milana"), hash_of(b"milana"));
        assert_ne!(hash_of(b"milana"), hash_of(b"semel"));
        assert_ne!(hash_of(b"a"), hash_of(b"b"));
    }

    #[test]
    fn covers_every_tail_length() {
        // 0..=16 bytes exercises the 8/4/2/1 ladder; these distinct
        // non-zero inputs should hash distinctly (a smoke check, not a
        // guarantee — an all-zero word folded into zero state stays zero,
        // which is fine for a non-cryptographic hasher).
        let base: Vec<u8> = (1u8..18).collect();
        let mut seen = std::collections::BTreeSet::new();
        for n in 0..=16 {
            assert!(seen.insert(hash_of(&base[..n])), "collision at len {n}");
        }
    }

    #[test]
    fn integer_writes_match_manual_folds() {
        let mut a = FxHasher::default();
        a.write_u64(42);
        let mut b = FxHasher::default();
        b.write_u64(42);
        assert_eq!(a.finish(), b.finish());
        let mut c = FxHasher::default();
        c.write_u32(42);
        // u32 and u64 writes fold the same word, so they agree — fine for
        // a non-cryptographic hasher, but assert it so a refactor that
        // changes the folding is noticed.
        assert_eq!(c.finish(), a.finish());
    }
}

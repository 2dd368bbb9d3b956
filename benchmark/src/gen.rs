//! The benchmark's own seeded script generator.
//!
//! One [`ScriptGen`] per closed-loop instance. Its stream depends only on
//! `(seed, instance)` — never on the simulation RNG or on how the system
//! under test behaves — so the same seed always offers the same inputs and
//! a slower system simply consumes fewer of them. Only `retwis::mix::Mix`
//! and `simkit::rng::Zipf` are shared with `retwis::driver`.

use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use retwis::mix::Mix;
use simkit::rng::Zipf;

/// The key script of one logical transaction, fixed on the first attempt and
/// replayed verbatim on every retry (§5.2). Keys are ids in `0..keys`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Script {
    /// Keys read, in order.
    pub reads: Vec<u64>,
    /// Keys written after the reads (empty for a read-only script).
    pub writes: Vec<u64>,
}

/// Seeded script source for one instance.
#[derive(Debug)]
pub struct ScriptGen {
    mix: Rc<Mix>,
    zipf: Rc<Zipf>,
    rng: StdRng,
}

impl ScriptGen {
    /// The stream of instance number `instance` under `seed`.
    pub fn new(mix: Rc<Mix>, zipf: Rc<Zipf>, seed: u64, instance: u32) -> ScriptGen {
        // SplitMix-style spread so neighbouring (seed, instance) pairs do
        // not get neighbouring generator states.
        let stream = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((instance as u64 + 1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
        ScriptGen {
            mix,
            zipf,
            rng: StdRng::seed_from_u64(stream),
        }
    }

    /// Draws the next script: a transaction type from the mix, then distinct
    /// Zipf-ranked keys for its gets and puts.
    pub fn next_script(&mut self) -> Script {
        let t = self.mix.sample(&mut self.rng);
        let gets = t.gets.sample(&mut self.rng) as usize;
        let puts = t.puts as usize;
        let mut keys: Vec<u64> = Vec::with_capacity(gets + puts);
        while keys.len() < gets + puts {
            // Each key appears once per transaction. A handful of redraws
            // settles it even on the hot head of a Zipf 0.99 keyspace; past
            // that, fall back to a uniform draw so planning cannot spin.
            let mut id = self.zipf.sample(&mut self.rng) as u64;
            let mut tries = 0;
            while keys.contains(&id) {
                tries += 1;
                id = if tries < 16 {
                    self.zipf.sample(&mut self.rng) as u64
                } else {
                    self.rng.gen_range(0..self.zipf.len() as u64)
                };
            }
            keys.push(id);
        }
        let writes = keys.split_off(gets);
        Script {
            reads: keys,
            writes,
        }
    }
}

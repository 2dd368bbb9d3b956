//! The simulation's event queue: every armed timer and every packet in
//! flight, waiting for its instant.
//!
//! Entries leave in `(at, seq)` order, where `seq` counts pushes, so
//! same-instant entries fire in the order they were armed. The shape fits
//! what a run holds: mostly entries due within a millisecond (deliveries,
//! flash and batching timers), plus one 25-50 ms guard per RPC in flight,
//! which is nearly always cancelled long before it is due.
//!
//! - The fires live in a slab; a min-heap orders `(at, seq, slot)` triples
//!   over it. Cancelling frees the slot in O(1); the triple it leaves in
//!   the heap no longer matches its slot and is skipped when it surfaces.
//! - 256 unsorted *far buckets* of 2^20 ns (≈1.05 ms) each hold the
//!   entries due in the ≈268 ms from `near_end` on. Arming one is a
//!   `Vec::push`. A bucket moves into the heap, dropping whatever was
//!   cancelled meanwhile, before the heap can pop past its start, so a
//!   guard cancelled early never enters the heap at all.
//! - Entries due before `near_end` or past the last bucket go straight to
//!   the heap.
//!
//! Why the order is exact: every entry due before `near_end` is in the
//! heap and every bucketed one is due at or after it. [`EventQueue::pop`]
//! first moves buckets in until the heap's top is due before `near_end`
//! or no bucket holds anything, so that top is the `(at, seq)` minimum of
//! the whole queue.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

const BUCKET_SHIFT: u32 = 20;
const BUCKET_NS: u64 = 1 << BUCKET_SHIFT;
const BUCKETS: usize = 256;
const HORIZON_NS: u64 = BUCKET_NS * BUCKETS as u64;

/// Names one pushed entry: its slab slot and the `seq` it was pushed with
/// (a slot is reused, a `seq` never is).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EventKey {
    slot: u32,
    seq: u64,
}

/// An entry's place in the order: `(at in ns, seq, slot)`.
type Entry = (u64, u64, u32);

struct Slot<T> {
    seq: u64,
    /// `None` once the entry fired or was cancelled.
    fire: Option<T>,
}

fn bucket_of(at_ns: u64) -> usize {
    (at_ns >> BUCKET_SHIFT) as usize % BUCKETS
}

pub(crate) struct EventQueue<T> {
    next_seq: u64,
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    heap: BinaryHeap<Reverse<Entry>>,
    /// Bucket `bucket_of(t)` holds the entries due in `t`'s aligned 2^20 ns
    /// span, for spans in `near_end .. near_end + HORIZON_NS`.
    far: Vec<Vec<Entry>>,
    /// Entries in `far`, cancelled ones included.
    far_len: usize,
    /// A multiple of `BUCKET_NS`; see the module docs.
    near_end: u64,
}

impl<T> EventQueue<T> {
    pub(crate) fn new() -> EventQueue<T> {
        EventQueue {
            next_seq: 0,
            slots: Vec::new(),
            free: Vec::new(),
            heap: BinaryHeap::new(),
            far: (0..BUCKETS).map(|_| Vec::new()).collect(),
            far_len: 0,
            near_end: 0,
        }
    }

    /// Schedules `fire` at `at`, after every entry already due at `at`.
    pub(crate) fn push(&mut self, at: SimTime, fire: T) -> EventKey {
        let seq = self.next_seq;
        self.next_seq += 1;
        let fire = Some(fire);
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Slot { seq, fire };
                slot
            }
            None => {
                self.slots.push(Slot { seq, fire });
                (self.slots.len() - 1) as u32
            }
        };
        let at = at.as_nanos();
        if at >= self.near_end && at - self.near_end < HORIZON_NS {
            self.far[bucket_of(at)].push((at, seq, slot));
            self.far_len += 1;
        } else {
            self.heap.push(Reverse((at, seq, slot)));
        }
        EventKey { slot, seq }
    }

    /// The entry `key` names, while it is still pending.
    pub(crate) fn get_mut(&mut self, key: EventKey) -> Option<&mut T> {
        let slot = &mut self.slots[key.slot as usize];
        if slot.seq == key.seq {
            slot.fire.as_mut()
        } else {
            None
        }
    }

    /// Takes the entry `key` names out of the queue; `None` if it already
    /// fired or was removed.
    pub(crate) fn remove(&mut self, key: EventKey) -> Option<T> {
        let slot = &mut self.slots[key.slot as usize];
        if slot.seq != key.seq {
            return None;
        }
        let fire = slot.fire.take()?;
        self.free.push(key.slot);
        Some(fire)
    }

    /// Removes and returns the earliest pending entry, unless the queue is
    /// empty or that entry is due after `limit`.
    pub(crate) fn pop(&mut self, limit: Option<SimTime>) -> Option<(SimTime, T)> {
        loop {
            self.settle();
            let &Reverse((at, seq, slot)) = self.heap.peek()?;
            if limit.is_some_and(|l| at > l.as_nanos()) {
                return None;
            }
            self.heap.pop();
            if let Some(fire) = self.remove(EventKey { slot, seq }) {
                return Some((SimTime::from_nanos(at), fire));
            }
        }
    }

    /// Moves far buckets into the heap until its top is due before
    /// `near_end` or no bucket holds anything.
    fn settle(&mut self) {
        while self.far_len > 0
            && self
                .heap
                .peek()
                .is_none_or(|Reverse(top)| top.0 >= self.near_end)
        {
            let idx = bucket_of(self.near_end);
            let mut bucket = std::mem::take(&mut self.far[idx]);
            self.far_len -= bucket.len();
            for &(at, seq, slot) in &bucket {
                let s = &self.slots[slot as usize];
                if s.seq == seq && s.fire.is_some() {
                    self.heap.push(Reverse((at, seq, slot)));
                }
            }
            bucket.clear();
            self.far[idx] = bucket;
            self.near_end += BUCKET_NS;
        }
        // With no bucket in use every entry is in the heap, so the boundary
        // may jump: keep it at the clock so new entries bucket again.
        if self.far_len == 0 {
            if let Some(Reverse(top)) = self.heap.peek() {
                self.near_end = self.near_end.max(top.0 & !(BUCKET_NS - 1));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    #[test]
    fn matches_an_ordered_map_under_random_pushes_cancels_and_pops() {
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut q = EventQueue::new();
            let mut model = BTreeMap::new();
            let mut keys = Vec::new();
            let mut now = 0u64;
            let mut seq = 0u64;
            for _ in 0..4_000 {
                match rng.gen_range(0..10) {
                    0..=4 => {
                        // Near, far, past the horizon, and forced ties.
                        let delay = match rng.gen_range(0..4) {
                            0 => rng.gen_range(0..BUCKET_NS),
                            1 => rng.gen_range(0..HORIZON_NS),
                            2 => rng.gen_range(0..3 * HORIZON_NS),
                            _ => 0,
                        };
                        let at = SimTime::from_nanos(now + delay);
                        keys.push((q.push(at, seq), at, seq));
                        model.insert((at, seq), seq);
                        seq += 1;
                    }
                    5..=6 if !keys.is_empty() => {
                        let (key, at, s) = keys.swap_remove(rng.gen_range(0..keys.len()));
                        assert_eq!(q.remove(key), model.remove(&(at, s)));
                        assert_eq!(q.remove(key), None);
                    }
                    _ => {
                        let limit = SimTime::from_nanos(now + rng.gen_range(0..2 * BUCKET_NS));
                        let want = model
                            .first_key_value()
                            .filter(|((at, _), _)| *at <= limit)
                            .map(|(&(at, _), &v)| (at, v));
                        let got = q.pop(Some(limit));
                        assert_eq!(got, want, "seed {seed}");
                        if let Some((at, v)) = got {
                            model.remove(&(at, v));
                            now = at.as_nanos();
                        } else {
                            now = limit.as_nanos();
                        }
                    }
                }
            }
            while let Some((at, v)) = q.pop(None) {
                assert_eq!(model.pop_first(), Some(((at, v), v)));
            }
            assert!(model.is_empty());
        }
    }

    #[test]
    fn a_cancelled_far_entry_never_reaches_the_heap() {
        let mut q = EventQueue::new();
        let guard = q.push(SimTime::from_millis(50), "guard");
        q.push(SimTime::from_micros(25), "delivery");
        assert_eq!(q.remove(guard), Some("guard"));
        assert_eq!(q.pop(None), Some((SimTime::from_micros(25), "delivery")));
        assert!(q.heap.is_empty());
        assert_eq!(q.pop(None), None);
        assert_eq!(q.far_len, 0);
    }
}

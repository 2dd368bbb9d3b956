//! Key-space sharding: consistent hashing from keys to shards, and the
//! shard → replica-group map clients coordinate through (§3).
//!
//! The paper delegates this to "a global master ... using standard
//! techniques (e.g., consistent hashing)"; we implement a classic hash ring
//! with virtual nodes so shard assignment is stable under membership change.

use flashsim::Key;
use simkit::net::Addr;

/// Identifies a data shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(pub u32);

impl std::fmt::Display for ShardId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// FNV-1a — a small, dependency-free 64-bit hash for ring placement.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// One shard's replica set: a designated primary plus `2f` backups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaGroup {
    /// The primary replica's service address.
    pub primary: Addr,
    /// Backup replicas' service addresses.
    pub backups: Vec<Addr>,
}

impl ReplicaGroup {
    /// `f` — the number of simultaneous replica failures tolerated
    /// (`2f + 1` replicas total). The primary acks a write after `f` backup
    /// acknowledgements (majority including itself).
    pub fn f(&self) -> usize {
        self.backups.len() / 2
    }

    /// All replica addresses, primary first.
    pub fn all(&self) -> Vec<Addr> {
        let mut v = Vec::with_capacity(1 + self.backups.len());
        v.push(self.primary);
        v.extend(self.backups.iter().copied());
        v
    }
}

/// A key-range split applied after ring lookup: keys the ring assigns to
/// `from` whose hash has bit `bit` set belong to `to` instead. Splitting
/// by a hash bit (rather than moving virtual ring points) divides the
/// source shard's *key mass* roughly in half — FNV ring points for one
/// shard cluster tightly, so vnode reassignment would move almost nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SplitRule {
    from: ShardId,
    to: ShardId,
    bit: u8,
}

impl SplitRule {
    fn applies(&self, point: u64) -> bool {
        (point >> self.bit) & 1 == 1
    }
}

/// A pending shard migration carried by the map between `Prepare` and
/// `Cutover`: routing still targets the source shard, but the map already
/// records where the keys are headed so servers and the rebalance engine
/// can compute the moving-key predicate without a second map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Migrating {
    /// Source shard (current owner of the moving keys).
    pub from: ShardId,
    /// Destination shard (owner after cutover). Equal to `from` for a
    /// whole-shard move to a new replica group.
    pub to: ShardId,
    /// The split rule installed at cutover (`None` for a whole-shard move).
    rule: Option<SplitRule>,
    /// The destination's replica group (appended for a split, substituted
    /// for a move). Kept separate from the live groups so failover
    /// promotions that land mid-migration are not clobbered at cutover.
    dest_group: ReplicaGroup,
}

/// The cluster map: a consistent-hash ring over shards, plus each shard's
/// replica group. Carries an `epoch` so clients can detect staleness after
/// failover.
///
/// # Examples
///
/// ```
/// use semel::shard::{ReplicaGroup, ShardMap};
/// use simkit::net::{Addr, NodeId};
/// use flashsim::Key;
///
/// let map = ShardMap::new(vec![ReplicaGroup {
///     primary: Addr::new(NodeId(0), 0),
///     backups: vec![],
/// }]);
/// let shard = map.shard_for(&Key::from(42u64));
/// assert_eq!(map.group(shard).primary.node, NodeId(0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    /// Virtual nodes sorted by ring point, one entry per point.
    ring: Vec<(u64, ShardId)>,
    groups: Vec<ReplicaGroup>,
    epoch: u64,
    /// Post-ring split rules from completed splits, applied in order.
    splits: Vec<SplitRule>,
    migrating: Option<Migrating>,
}

/// Virtual ring points per shard; more points = smoother key spread.
const VNODES: u32 = 64;

impl ShardMap {
    /// Builds a map over the given replica groups (index = shard id).
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty.
    pub fn new(groups: Vec<ReplicaGroup>) -> ShardMap {
        assert!(!groups.is_empty(), "ShardMap needs at least one shard");
        let mut ring = Vec::with_capacity(groups.len() * VNODES as usize);
        for i in (0..groups.len()).rev() {
            for v in (0..VNODES).rev() {
                let point = fnv1a(format!("shard-{i}-vnode-{v}").as_bytes());
                ring.push((point, ShardId(i as u32)));
            }
        }
        // Built last vnode first, so the stable sort puts the vnode named
        // last first among equal points and the dedup keeps it: a point
        // shared by two vnodes belongs to the later one.
        ring.sort_by_key(|&(point, _)| point);
        ring.dedup_by_key(|&mut (point, _)| point);
        ShardMap {
            ring,
            groups,
            epoch: 0,
            splits: Vec::new(),
            migrating: None,
        }
    }

    /// The shard owning `key`: clockwise successor on the ring, then any
    /// split rules from completed shard splits, in install order.
    pub fn shard_for(&self, key: &Key) -> ShardId {
        let point = fnv1a(key.as_bytes());
        let next = self.ring.partition_point(|&(p, _)| p < point);
        // Past the last point the ring wraps to the first.
        let mut shard = self.ring.get(next).unwrap_or(&self.ring[0]).1;
        for rule in &self.splits {
            if shard == rule.from && rule.applies(point) {
                shard = rule.to;
            }
        }
        shard
    }

    /// The replica group of `shard`.
    ///
    /// # Panics
    ///
    /// Panics if the shard id is out of range.
    pub fn group(&self, shard: ShardId) -> &ReplicaGroup {
        &self.groups[shard.0 as usize]
    }

    /// The replica group of `shard`, or `None` for an id this map does not
    /// (yet) know — e.g. a heartbeat from a migration destination whose
    /// shard is installed only at cutover.
    pub fn group_opt(&self, shard: ShardId) -> Option<&ReplicaGroup> {
        self.groups.get(shard.0 as usize)
    }

    /// Iterator over `(ShardId, &ReplicaGroup)`.
    pub fn iter(&self) -> impl Iterator<Item = (ShardId, &ReplicaGroup)> {
        self.groups
            .iter()
            .enumerate()
            .map(|(i, g)| (ShardId(i as u32), g))
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Always false — maps hold at least one shard.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The map's configuration epoch (bumped on failover).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Promotes `new_primary` (one of the shard's backups) to primary and
    /// demotes the old primary into the backup list (it may be dead right
    /// now, but rejoins as a backup when restarted), bumping the epoch.
    /// Used by the master during failover (§4.5).
    ///
    /// Returns `true` on success (including the no-op case where
    /// `new_primary` already leads the shard) and `false` if `new_primary`
    /// is not a current replica — a request that raced a concurrent
    /// promotion; the map is left unchanged so the caller can re-read it
    /// and retry.
    #[must_use = "a false return means the shard map was not changed"]
    pub fn promote(&mut self, shard: ShardId, new_primary: Addr) -> bool {
        let g = &mut self.groups[shard.0 as usize];
        if g.primary == new_primary {
            return true;
        }
        let Some(pos) = g.backups.iter().position(|&a| a == new_primary) else {
            return false;
        };
        g.backups.remove(pos);
        g.backups.push(g.primary);
        g.primary = new_primary;
        self.epoch += 1;
        true
    }

    /// The pending migration, if one is in flight.
    pub fn migrating(&self) -> Option<(ShardId, ShardId)> {
        self.migrating.as_ref().map(|m| (m.from, m.to))
    }

    /// Begins splitting `from`: keys of `from` whose hash has a fresh bit
    /// set (roughly half the shard's key mass) are earmarked for a
    /// brand-new shard served by `dest`, and the epoch is bumped so
    /// clients refetch. Routing is unchanged until [`ShardMap::cutover`] —
    /// the marker only records where the keys are headed. Returns the new
    /// shard's id.
    ///
    /// # Panics
    ///
    /// Panics if a migration is already pending or `from` is out of range.
    pub fn begin_split(&mut self, from: ShardId, dest: ReplicaGroup) -> ShardId {
        assert!(self.migrating.is_none(), "migration already pending");
        assert!((from.0 as usize) < self.groups.len(), "unknown shard");
        let to = ShardId(self.groups.len() as u32);
        // A bit no earlier split used keeps successive splits independent.
        let bit = self.splits.len() as u8;
        assert!(bit < 64, "too many splits");
        self.migrating = Some(Migrating {
            from,
            to,
            rule: Some(SplitRule { from, to, bit }),
            dest_group: dest,
        });
        self.epoch += 1;
        to
    }

    /// Begins moving all of `shard`'s keys to a new replica group `dest`.
    /// Routing (and the shard id) are unchanged until cutover; only the
    /// owning group flips.
    ///
    /// # Panics
    ///
    /// Panics if a migration is already pending or `shard` is out of range.
    pub fn begin_move(&mut self, shard: ShardId, dest: ReplicaGroup) {
        assert!(self.migrating.is_none(), "migration already pending");
        assert!((shard.0 as usize) < self.groups.len(), "unknown shard");
        self.migrating = Some(Migrating {
            from: shard,
            to: shard,
            rule: None,
            dest_group: dest,
        });
        self.epoch += 1;
    }

    /// True if `key` belongs to the moving set of the pending migration:
    /// after cutover it will be served by the destination. False when no
    /// migration is pending.
    pub fn key_is_moving(&self, key: &Key) -> bool {
        let Some(m) = &self.migrating else {
            return false;
        };
        if self.shard_for(key) != m.from {
            return false;
        }
        match &m.rule {
            // Whole-shard move: every key of the shard moves.
            None => true,
            Some(rule) => rule.applies(fnv1a(key.as_bytes())),
        }
    }

    /// Completes the pending migration: the split rule (if any) becomes
    /// part of routing, the destination group is installed (appended for a
    /// split, substituted for a move), and the epoch is bumped. Promotions
    /// that landed on other shards mid-migration are preserved.
    ///
    /// # Panics
    ///
    /// Panics if no migration is pending.
    pub fn cutover(&mut self) {
        let m = self.migrating.take().expect("no migration pending");
        if m.from == m.to {
            self.groups[m.from.0 as usize] = m.dest_group;
        } else {
            debug_assert_eq!(m.to.0 as usize, self.groups.len());
            self.groups.push(m.dest_group);
        }
        if let Some(rule) = m.rule {
            self.splits.push(rule);
        }
        self.epoch += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::net::NodeId;

    fn group(n: u32) -> ReplicaGroup {
        ReplicaGroup {
            primary: Addr::new(NodeId(n * 10), 0),
            backups: vec![
                Addr::new(NodeId(n * 10 + 1), 0),
                Addr::new(NodeId(n * 10 + 2), 0),
            ],
        }
    }

    fn map(n: u32) -> ShardMap {
        ShardMap::new((0..n).map(group).collect())
    }

    #[test]
    fn deterministic_assignment() {
        let m = map(3);
        for i in 0..100u64 {
            let k = Key::from(i);
            assert_eq!(m.shard_for(&k), m.shard_for(&k));
        }
        // A hash past the last ring point wraps to the first vnode.
        let (last, _) = *m.ring.last().unwrap();
        let past = (0u64..)
            .map(Key::from)
            .find(|k| fnv1a(k.as_bytes()) > last)
            .unwrap();
        assert_eq!(m.shard_for(&past), m.ring[0].1);
    }

    #[test]
    fn keys_spread_across_shards() {
        let m = map(3);
        let mut counts = [0u32; 3];
        for i in 0..3000u64 {
            counts[m.shard_for(&Key::from(i)).0 as usize] += 1;
        }
        for c in counts {
            assert!(c > 400, "unbalanced: {counts:?}");
        }
    }

    #[test]
    fn single_shard_takes_everything() {
        let m = map(1);
        for i in 0..50u64 {
            assert_eq!(m.shard_for(&Key::from(i)), ShardId(0));
        }
    }

    #[test]
    fn f_is_minority_of_backups() {
        assert_eq!(group(0).f(), 1); // 2 backups -> f=1 (3 replicas)
        let g = ReplicaGroup {
            primary: Addr::new(NodeId(0), 0),
            backups: vec![],
        };
        assert_eq!(g.f(), 0);
    }

    #[test]
    fn promote_swaps_primary_and_bumps_epoch() {
        let mut m = map(2);
        let old_primary = m.group(ShardId(1)).primary;
        let backup = m.group(ShardId(1)).backups[0];
        let e0 = m.epoch();
        assert!(m.promote(ShardId(1), backup));
        assert_eq!(m.group(ShardId(1)).primary, backup);
        // The old primary is demoted, keeping the group at full strength.
        assert_eq!(m.group(ShardId(1)).backups.len(), 2);
        assert!(m.group(ShardId(1)).backups.contains(&old_primary));
        assert_eq!(m.epoch(), e0 + 1);
    }

    #[test]
    fn repeated_promotions_never_exhaust_the_group() {
        let mut m = map(1);
        for _ in 0..6 {
            let next = m.group(ShardId(0)).backups[0];
            assert!(m.promote(ShardId(0), next));
            assert_eq!(m.group(ShardId(0)).backups.len(), 2);
        }
        // Promoting the sitting primary is a no-op success; a stranger is
        // rejected without touching the map.
        let sitting = m.group(ShardId(0)).primary;
        let e = m.epoch();
        assert!(m.promote(ShardId(0), sitting));
        assert_eq!(m.epoch(), e);
        assert!(!m.promote(ShardId(0), Addr::new(NodeId(999), 0)));
        assert_eq!(m.group(ShardId(0)).primary, sitting);
    }

    #[test]
    fn split_moves_roughly_half_and_only_moving_keys_change_owner() {
        let mut m = map(2);
        let e0 = m.epoch();
        let pre: Vec<ShardId> = (0..2000u64).map(|i| m.shard_for(&Key::from(i))).collect();
        let to = m.begin_split(ShardId(0), group(9));
        assert_eq!(to, ShardId(2));
        assert_eq!(m.epoch(), e0 + 1, "prepare bumps the epoch");
        assert_eq!(m.migrating(), Some((ShardId(0), ShardId(2))));
        // Routing unchanged until cutover.
        for (i, &s) in pre.iter().enumerate() {
            assert_eq!(m.shard_for(&Key::from(i as u64)), s);
        }
        let moving: Vec<bool> = (0..2000u64)
            .map(|i| m.key_is_moving(&Key::from(i)))
            .collect();
        // Only keys of the split shard can move, and a decent fraction do.
        let mut moved = 0;
        for i in 0..2000usize {
            if moving[i] {
                assert_eq!(pre[i], ShardId(0), "only source keys move");
                moved += 1;
            }
        }
        let src_total = pre.iter().filter(|&&s| s == ShardId(0)).count();
        assert!(
            moved * 4 > src_total && moved < src_total,
            "split is a real partition: {moved}/{src_total}"
        );
        m.cutover();
        assert_eq!(m.epoch(), e0 + 2, "cutover bumps the epoch again");
        assert_eq!(m.migrating(), None);
        assert_eq!(m.len(), 3);
        for i in 0..2000usize {
            let now = m.shard_for(&Key::from(i as u64));
            if moving[i] {
                assert_eq!(now, ShardId(2));
            } else {
                assert_eq!(now, pre[i], "non-moving keys keep their owner");
            }
        }
    }

    #[test]
    fn move_marks_every_source_key_and_swaps_the_group() {
        let mut m = map(2);
        let dest = group(7);
        m.begin_move(ShardId(1), dest.clone());
        for i in 0..500u64 {
            let k = Key::from(i);
            assert_eq!(m.key_is_moving(&k), m.shard_for(&k) == ShardId(1));
        }
        let pre: Vec<ShardId> = (0..500u64).map(|i| m.shard_for(&Key::from(i))).collect();
        m.cutover();
        assert_eq!(m.len(), 2);
        assert_eq!(m.group(ShardId(1)), &dest);
        for (i, &s) in pre.iter().enumerate() {
            assert_eq!(m.shard_for(&Key::from(i as u64)), s, "routing unchanged");
        }
    }

    #[test]
    fn promotion_during_migration_survives_cutover() {
        let mut m = map(2);
        m.begin_split(ShardId(0), group(9));
        let backup = m.group(ShardId(1)).backups[0];
        assert!(m.promote(ShardId(1), backup));
        m.cutover();
        assert_eq!(m.group(ShardId(1)).primary, backup);
    }

    #[test]
    fn consistent_hashing_is_stable_under_shard_addition() {
        // Adding a shard must only move a fraction of keys.
        let m3 = map(3);
        let m4 = map(4);
        let total = 5000u64;
        let moved = (0..total)
            .filter(|&i| {
                let k = Key::from(i);
                m3.shard_for(&k) != m4.shard_for(&k)
            })
            .count();
        // With consistent hashing, expected movement ≈ 1/4 of keys;
        // naive modulo hashing would move ~3/4.
        assert!(
            (moved as f64) < total as f64 * 0.45,
            "moved {moved}/{total}"
        );
    }
}

//! Live migration (DESIGN §13): a source primary's state between
//! `MigrationStart` and `MigrationCutover`, the control requests the
//! rebalance engine sends, the bulk copy into a destination replica, and
//! dual-apply of committed writes on moving keys.

use flashsim::{Key, Value};
use semel::shard::{ShardId, ShardMap};
use simkit::net::Addr;
use timesync::Version;

use super::TxnServer;
use crate::msg::{TxnRecord, TxnRequest, TxnResponse};

/// Live-migration state held by a source primary between `MigrationStart`
/// and `MigrationCutover`. Idempotent: the engine may resend any control
/// message after a fault.
#[derive(Debug, Clone)]
pub(super) struct MigrationState {
    /// Shard gaining the moving keys (equals the source shard on a
    /// whole-shard move to a new replica group).
    pub(super) to: ShardId,
    /// Map epoch at which the migration began.
    pub(super) epoch: u64,
    /// Destination replica addresses (primary first) for dual-apply.
    pub(super) dest: Vec<Addr>,
    /// True once `MigrationFence` arrived: new prepares touching moving
    /// keys get a definite `StaleEpoch` no-vote so the undecided set can
    /// drain for cutover.
    pub(super) fenced: bool,
}

impl TxnServer {
    /// True while this replica is still a member of its shard's replica
    /// group in `map`. A completed whole-shard move removes the old group
    /// from the map, so a stale client reaching the old primary is told
    /// the key moved. (A mid-failover promotion keeps the promoted backup
    /// in the group, so failover never trips this.)
    fn in_group(&self, map: &ShardMap) -> bool {
        match map.group_opt(self.cfg.shard) {
            Some(g) => g.primary == self.cfg.addr || g.backups.contains(&self.cfg.addr),
            // Migration destination before cutover: its shard id enters
            // the map only when the cutover installs it.
            None => true,
        }
    }

    /// Rebalance routing check for a primary-path request: `true` if any
    /// of `keys` is no longer owned here per the (shared, newest) map.
    pub(super) fn moved_away<'a>(
        &self,
        map: &ShardMap,
        mut keys: impl Iterator<Item = &'a Key>,
    ) -> bool {
        !self.in_group(map) || keys.any(|k| map.shard_for(k) != self.cfg.shard)
    }

    /// [`TxnRequest::MigrationStart`]. Source primary: remember the
    /// destination for dual-apply and announce ownership of the moving
    /// range so the single-owner checker sees who holds it. Destination
    /// replicas just ack — bulk-copy records carry their own versions.
    /// Idempotent: a retried start only overwrites.
    pub(super) fn migration_start(
        &self,
        from: ShardId,
        to: ShardId,
        epoch: u64,
        dest: Vec<Addr>,
    ) -> TxnResponse {
        let first = match self.state.borrow_mut().role.primary_mut() {
            Some(p) if from == self.cfg.shard => {
                let m = MigrationState {
                    to,
                    epoch,
                    dest,
                    fenced: false,
                };
                p.migration.replace(m).is_none()
            }
            _ => false,
        };
        if first {
            self.trace(obskit::TraceEvent::ShardOwned {
                shard: to.0 as u64,
                epoch,
                owner: self.cfg.addr.node.0 as u64,
            });
        }
        TxnResponse::Ack
    }

    /// [`TxnRequest::MigrateRecords`]: bulk-copy records from the
    /// rebalance engine; stamps make application order-free. A store that
    /// refuses them answers `Capacity`, and the engine ships them again.
    pub(super) async fn migrate_records(&self, records: Vec<(Key, Value, Version)>) -> TxnResponse {
        match self.core.backend.apply_batch_unordered(records).await {
            Ok(()) => TxnResponse::Ack,
            Err(_) => TxnResponse::Capacity,
        }
    }

    /// [`TxnRequest::MigrationFence`]. Fenced = this primary no longer
    /// accepts new prepares for the moving range: ownership is released
    /// (the undecided set is frozen and only drains from here).
    pub(super) fn migration_fence(&self) -> TxnResponse {
        let released = {
            let mut st = self.state.borrow_mut();
            match st.role.primary_mut().and_then(|p| p.migration.as_mut()) {
                Some(m) if !m.fenced => {
                    m.fenced = true;
                    Some((m.to, m.epoch))
                }
                _ => None,
            }
        };
        if let Some((to, epoch)) = released {
            self.trace(obskit::TraceEvent::ShardReleased {
                shard: to.0 as u64,
                epoch,
                owner: self.cfg.addr.node.0 as u64,
            });
        }
        TxnResponse::Ack
    }

    /// [`TxnRequest::MigrationDrain`]. A moving-key transaction stays
    /// pending until it is both decided *and* (for commits) applied to the
    /// backend: `apply_outcome` flips the table status before awaiting the
    /// backend apply, and the engine's final cutover sweep reads the
    /// backend — a decided-but-unapplied write reported as drained could be
    /// missed by that sweep and lost to GC if its fire-and-forget
    /// dual-apply cast was also dropped.
    pub(super) fn migration_drain(&self) -> TxnResponse {
        let map = self.map.borrow();
        TxnResponse::Drained {
            pending: self
                .table
                .borrow()
                .unsettled_writing(|k| map.key_is_moving(k)),
        }
    }

    /// [`TxnRequest::MigrationCutover`]. Source side: the map has flipped;
    /// moved keys now answer `Moved` until GC. Destination side: announce
    /// ownership of the range. The destination is identified positively —
    /// the carried `to` shard id plus membership in its (flipped) map group
    /// — never by the absence of local migration state, which a source
    /// primary promoted mid-migration (the promoted backup saw no
    /// `MigrationStart`) also exhibits. Latched (`cutover_seen`) so engine
    /// retries cannot re-emit transitions the single-owner checker reads.
    pub(super) fn migration_cutover(&self, to: ShardId, epoch: u64) -> TxnResponse {
        let (is_dest, first) = {
            let mut st = self.state.borrow_mut();
            if let Some(p) = st.role.primary_mut() {
                p.migration = None;
            }
            let is_dest =
                st.role.is_primary() && self.cfg.shard == to && self.in_group(&self.map.borrow());
            (is_dest, !std::mem::replace(&mut st.cutover_seen, true))
        };
        if is_dest && first {
            self.trace(obskit::TraceEvent::ShardOwned {
                shard: to.0 as u64,
                epoch,
                owner: self.cfg.addr.node.0 as u64,
            });
        }
        TxnResponse::Ack
    }

    /// [`TxnRequest::MigrationGc`]. Forwarding term over: drop every key
    /// the flipped map no longer routes here. After a whole-shard move the
    /// shard id still matches but this replica left the serving group, so
    /// everything goes.
    pub(super) fn migration_gc(&self) -> TxnResponse {
        let map = self.map.borrow().clone();
        let evicted = !self.in_group(&map);
        let mut dropped = 0u64;
        for key in self.core.backend.keys() {
            if evicted || map.shard_for(&key) != self.cfg.shard {
                self.core.backend.delete(&key);
                dropped += 1;
            }
        }
        self.cfg
            .tuning
            .obs
            .registry
            .counter("migration_gc_records")
            .add(dropped);
        TxnResponse::Ack
    }

    /// Dual-apply during a migration: a committed record's writes on moving
    /// keys are forwarded to every destination replica as version-stamped
    /// records. Casts may be lost under faults — the engine's final acked
    /// catch-up sweep re-copies anything missing, so this only keeps the
    /// cutover delta small.
    pub(super) fn dual_apply(&self, record: &TxnRecord) {
        let Some(dest) = self.state.borrow().role.migration().map(|m| m.dest.clone()) else {
            return;
        };
        let mut moving = record.stamped_writes();
        {
            let map = self.map.borrow();
            moving.retain(|(k, _, _)| map.key_is_moving(k));
        }
        if moving.is_empty() {
            return;
        }
        self.cfg
            .tuning
            .obs
            .registry
            .counter("migration_dual_applies")
            .add(moving.len() as u64);
        for &d in &dest {
            self.core.rpc.cast(
                d,
                TxnRequest::MigrateRecords {
                    records: moving.clone(),
                },
            );
        }
    }
}

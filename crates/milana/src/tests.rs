//! End-to-end protocol tests for MILANA on a simulated cluster.

use std::time::Duration;

use flashsim::{value, BackendKind, Key, NandConfig};
use semel::shard::ShardId;
use simkit::Sim;
use timesync::{ClientId, ClockSpec, Timestamp};

use crate::client::{TxnOpts, ValidationMode};
use crate::cluster::{MilanaCluster, MilanaClusterConfig};
use crate::msg::{AbortReason, TxnError, TxnId, TxnRequest, TxnResponse};

fn nand() -> NandConfig {
    NandConfig {
        blocks: 128,
        pages_per_block: 8,
        ..NandConfig::default()
    }
}

fn base_cfg() -> MilanaClusterConfig {
    MilanaClusterConfig {
        shards: 2,
        replicas: 3,
        clients: 3,
        nand: nand(),
        preload_keys: 200,
        clock: ClockSpec::perfect(),
        ..MilanaClusterConfig::default()
    }
}

fn k(i: u64) -> Key {
    Key::from(i)
}

#[test]
fn read_write_transaction_commits() {
    let mut sim = Sim::new(21);
    let h = sim.handle();
    let cluster = MilanaCluster::build(&h, base_cfg());
    sim.block_on(async move {
        let c = &cluster.clients[0];
        let mut t = c.begin_with(TxnOpts::default());
        let _ = t.get(&k(1)).await.unwrap();
        t.put(k(1), value(&b"new"[..]));
        let info = t.commit().await.unwrap();
        assert!(info.ts_commit.is_some());
        assert!(!info.local);
        // A later transaction sees the write.
        let mut t2 = c.begin_with(TxnOpts::default());
        assert_eq!(&t2.get(&k(1)).await.unwrap()[..], b"new");
        t2.commit().await.unwrap();
    });
}

#[test]
fn read_only_transaction_validates_locally_with_zero_messages() {
    let mut sim = Sim::new(22);
    let h = sim.handle();
    let hh = h.clone();
    let cluster = MilanaCluster::build(&h, base_cfg());
    sim.block_on(async move {
        let c = &cluster.clients[0];
        let mut t = c.begin_with(TxnOpts::default());
        let _ = t.get(&k(1)).await.unwrap();
        let _ = t.get(&k(2)).await.unwrap();
        let sent_before = hh.net_stats().sent;
        let info = t.commit().await.unwrap();
        let sent_after = hh.net_stats().sent;
        assert!(info.local);
        assert_eq!(info.ts_commit, None);
        assert_eq!(sent_before, sent_after, "local commit sent messages");
        assert_eq!(c.stats().local_validations, 1);
    });
}

#[test]
fn own_writes_read_back_within_transaction() {
    let mut sim = Sim::new(23);
    let h = sim.handle();
    let cluster = MilanaCluster::build(&h, base_cfg());
    sim.block_on(async move {
        let c = &cluster.clients[0];
        let mut t = c.begin_with(TxnOpts::default());
        t.put(k(5), value(&b"mine"[..]));
        assert_eq!(&t.get(&k(5)).await.unwrap()[..], b"mine");
        t.commit().await.unwrap();
    });
}

#[test]
fn conflicting_writers_one_aborts() {
    let mut sim = Sim::new(24);
    let h = sim.handle();
    let hh = h.clone();
    let cluster = MilanaCluster::build(&h, base_cfg());
    sim.block_on(async move {
        let c0 = cluster.clients[0].clone();
        let c1 = cluster.clients[1].clone();
        // Both read key 1 then write it: classic write-write/read conflict.
        let run = |c: crate::client::TxnClient, tag: &'static [u8]| async move {
            let mut t = c.begin_with(TxnOpts::default());
            let _ = t.get(&k(1)).await.unwrap();
            t.put(k(1), value(tag));
            t.commit().await
        };
        let j0 = hh.spawn(run(c0, b"zero"));
        let j1 = hh.spawn(run(c1, b"one"));
        let r0 = j0.await;
        let r1 = j1.await;
        let commits = [&r0, &r1].iter().filter(|r| r.is_ok()).count();
        assert_eq!(commits, 1, "exactly one writer must win: {r0:?} {r1:?}");
    });
}

#[test]
fn snapshot_reads_ignore_later_commits() {
    let mut sim = Sim::new(25);
    let h = sim.handle();
    let hh = h.clone();
    let cluster = MilanaCluster::build(&h, base_cfg());
    sim.block_on(async move {
        let c0 = cluster.clients[0].clone();
        let c1 = cluster.clients[1].clone();
        // t_old begins, reads one key.
        let mut t_old = c0.begin_with(TxnOpts::default());
        let before = t_old.get(&k(1)).await.unwrap();
        // Meanwhile a writer commits a new version of both keys.
        let mut w = c1.begin_with(TxnOpts::default());
        let _ = w.get(&k(1)).await.unwrap();
        w.put(k(1), value(&b"later"[..]));
        w.put(k(2), value(&b"later"[..]));
        w.commit().await.unwrap();
        hh.sleep(Duration::from_millis(5)).await;
        // t_old keeps reading its snapshot: k2 must be the OLD value,
        // consistent with what it already read from k1.
        let after = t_old.get(&k(2)).await.unwrap();
        assert_eq!(before.len(), 472, "preloaded value");
        assert_eq!(after.len(), 472, "snapshot must predate the writer");
        // And it can still commit read-only, locally.
        let info = t_old.commit().await.unwrap();
        assert!(info.local);
    });
}

#[test]
fn stale_read_write_transaction_aborts() {
    let mut sim = Sim::new(26);
    let h = sim.handle();
    let hh = h.clone();
    let cluster = MilanaCluster::build(&h, base_cfg());
    sim.block_on(async move {
        let c0 = cluster.clients[0].clone();
        let c1 = cluster.clients[1].clone();
        let mut t = c0.begin_with(TxnOpts::default());
        let _ = t.get(&k(1)).await.unwrap();
        // Another client overwrites key 1 and commits.
        let mut w = c1.begin_with(TxnOpts::default());
        let _ = w.get(&k(1)).await.unwrap();
        w.put(k(1), value(&b"sneak"[..]));
        w.commit().await.unwrap();
        hh.sleep(Duration::from_millis(5)).await;
        // Now t tries to write based on its stale read: must abort.
        t.put(k(3), value(&b"doomed"[..]));
        let err = t.commit().await.unwrap_err();
        assert_eq!(err, TxnError::Aborted(AbortReason::Validation));
    });
}

#[test]
fn multi_shard_transaction_is_atomic() {
    let mut sim = Sim::new(27);
    let h = sim.handle();
    let hh = h.clone();
    let mut cfg = base_cfg();
    cfg.shards = 3;
    let cluster = MilanaCluster::build(&h, cfg);
    sim.block_on(async move {
        let c = &cluster.clients[0];
        // Find two keys on different shards.
        let map = cluster.map.borrow().clone();
        let key_a = k(1);
        let shard_a = map.shard_for(&key_a);
        let key_b = (2..100u64)
            .map(k)
            .find(|key| map.shard_for(key) != shard_a)
            .expect("a key on another shard");
        let mut t = c.begin_with(TxnOpts::default());
        let _ = t.get(&key_a).await.unwrap();
        let _ = t.get(&key_b).await.unwrap();
        t.put(key_a.clone(), value(&b"both"[..]));
        t.put(key_b.clone(), value(&b"both"[..]));
        t.commit().await.unwrap();
        hh.sleep(Duration::from_millis(5)).await;
        let mut t2 = c.begin_with(TxnOpts::default());
        assert_eq!(&t2.get(&key_a).await.unwrap()[..], b"both");
        assert_eq!(&t2.get(&key_b).await.unwrap()[..], b"both");
        t2.commit().await.unwrap();
    });
}

#[test]
fn read_only_aborts_when_prepared_version_visible() {
    let mut sim = Sim::new(28);
    let h = sim.handle();
    let hh = h.clone();
    let mut cfg = base_cfg();
    cfg.clients = 2;
    let cluster = MilanaCluster::build(&h, cfg);
    sim.block_on(async move {
        let writer = cluster.clients[0].clone();
        let reader = cluster.clients[1].clone();
        // The writer prepares (via a slow 2PC we interleave with) — emulate
        // by starting commit and reading in parallel.
        let hh2 = hh.clone();
        let wj = hh.spawn(async move {
            let mut w = writer.begin_with(TxnOpts::default());
            let _ = w.get(&k(1)).await.unwrap();
            w.put(k(1), value(&b"w"[..]));
            // Stretch the window a little so the reader lands mid-2PC.
            hh2.sleep(Duration::from_micros(200)).await;
            w.commit().await
        });
        // Give the writer time to reach the prepared state.
        hh.sleep(Duration::from_micros(400)).await;
        let mut r = reader.begin_with(TxnOpts::default());
        match r.get(&k(1)).await {
            Ok(_) => {
                // Either we read before the prepare (commit fine) or the
                // prepared flag poisons local validation.
                let _ = r.commit().await;
            }
            Err(e) => panic!("get failed: {e}"),
        }
        wj.await.unwrap();
        // The invariant that matters: the system never both committed the
        // reader at a snapshot that should have included the writer AND
        // later let the writer commit at an earlier timestamp. The server
        // guards this with ts_latestRead; if we got here, validation held.
    });
}

#[test]
fn single_version_backend_aborts_tardy_readers() {
    let mut sim = Sim::new(29);
    let h = sim.handle();
    let hh = h.clone();
    let mut cfg = base_cfg();
    cfg.backend = BackendKind::Sftl;
    cfg.clients = 2;
    cfg.shards = 1;
    let cluster = MilanaCluster::build(&h, cfg);
    sim.block_on(async move {
        let reader = cluster.clients[0].clone();
        let writer = cluster.clients[1].clone();
        // Reader begins (fixing ts_begin), writer then overwrites the key.
        let mut r = reader.begin_with(TxnOpts::default());
        let mut w = writer.begin_with(TxnOpts::default());
        let _ = w.get(&k(1)).await.unwrap();
        w.put(k(1), value(&b"clobber"[..]));
        w.commit().await.unwrap();
        hh.sleep(Duration::from_millis(5)).await;
        // Reader's snapshot is gone on a single-version FTL.
        let err = r.get(&k(1)).await.unwrap_err();
        assert_eq!(err, TxnError::Aborted(AbortReason::SnapshotUnavailable));
        let err = r.commit().await.unwrap_err();
        assert_eq!(err, TxnError::Aborted(AbortReason::SnapshotUnavailable));
    });
}

#[test]
fn primary_failover_preserves_committed_data() {
    let mut sim = Sim::new(30);
    let h = sim.handle();
    let hh = h.clone();
    let mut cfg = base_cfg();
    cfg.shards = 1;
    let cluster = MilanaCluster::build(&h, cfg);
    sim.block_on(async move {
        let c = cluster.clients[0].clone();
        let mut t = c.begin_with(TxnOpts::default());
        let _ = t.get(&k(1)).await.unwrap();
        t.put(k(1), value(&b"survives"[..]));
        t.commit().await.unwrap();
        hh.sleep(Duration::from_millis(10)).await; // let backups apply
        cluster.fail_primary(ShardId(0));
        cluster.promote_backup(ShardId(0)).await.expect("promotion");
        // New primary serves the committed value.
        let mut t2 = c.begin_with(TxnOpts::default());
        assert_eq!(&t2.get(&k(1)).await.unwrap()[..], b"survives");
        t2.commit().await.unwrap();
        // And accepts new writes.
        let mut t3 = c.begin_with(TxnOpts::default());
        let _ = t3.get(&k(2)).await.unwrap();
        t3.put(k(2), value(&b"post-failover"[..]));
        t3.commit().await.unwrap();
    });
}

#[test]
fn failover_commits_prepared_single_shard_transaction() {
    let mut sim = Sim::new(31);
    let h = sim.handle();
    let hh = h.clone();
    let mut cfg = base_cfg();
    cfg.shards = 1;
    let cluster = MilanaCluster::build(&h, cfg);
    sim.block_on(async move {
        // A coordinator prepares a single-shard transaction and then
        // vanishes without ever sending the outcome.
        let primary_addr = cluster.map.borrow().group(ShardId(0)).primary;
        let txid = crate::msg::TxnId {
            client: timesync::ClientId(0),
            seq: 999,
        };
        let vote = cluster
            .master_rpc
            .call::<crate::msg::TxnRequest, crate::msg::TxnResponse>(
                primary_addr,
                crate::msg::TxnRequest::Prepare {
                    txid,
                    ts_commit: timesync::Timestamp(1_000_000),
                    reads: Vec::new().into(),
                    writes: vec![(k(1), value(&b"limbo"[..]))].into(),
                    participants: vec![ShardId(0)].into(),
                    epoch: 0,
                },
                Duration::from_millis(50),
            )
            .await
            .unwrap();
        assert!(matches!(vote, crate::msg::TxnResponse::Vote { ok: true }));
        hh.sleep(Duration::from_millis(2)).await; // replication settles
        cluster.fail_primary(ShardId(0));
        cluster.promote_backup(ShardId(0)).await.expect("promotion");
        // Algorithm 2: a prepared single-shard transaction is committed by
        // the new primary (the coordinator could only have decided commit).
        let c = cluster.clients[0].clone();
        let mut t = c.begin_with(TxnOpts::default());
        let got = t.get(&k(1)).await.unwrap();
        t.commit().await.unwrap();
        assert_eq!(&got[..], b"limbo");
        // And the shard accepts new writes afterwards.
        let mut t2 = c.begin_with(TxnOpts::default());
        let _ = t2.get(&k(2)).await.unwrap();
        t2.put(k(2), value(&b"post-failover"[..]));
        t2.commit().await.unwrap();
    });
}

#[test]
fn ctp_resolves_transaction_after_client_crash() {
    let mut sim = Sim::new(32);
    let h = sim.handle();
    let hh = h.clone();
    let mut cfg = base_cfg();
    cfg.shards = 2;
    cfg.tuning.ctp_after = Duration::from_millis(20);
    cfg.tuning.ctp_scan_every = Duration::from_millis(10);
    let cluster = MilanaCluster::build(&h, cfg);
    sim.block_on(async move {
        // A cross-shard transaction prepares at BOTH shards; the coordinator
        // then dies without sending outcomes.
        let map = cluster.map.borrow().clone();
        let key_a = k(1);
        let shard_a = map.shard_for(&key_a);
        let key_b = (2..100u64)
            .map(k)
            .find(|key| map.shard_for(key) != shard_a)
            .unwrap();
        let shard_b = map.shard_for(&key_b);
        let txid = crate::msg::TxnId {
            client: timesync::ClientId(0),
            seq: 777,
        };
        let participants = {
            let mut p = vec![shard_a, shard_b];
            p.sort();
            p
        };
        for (shard, key) in [(shard_a, key_a.clone()), (shard_b, key_b.clone())] {
            let vote = cluster
                .master_rpc
                .call::<crate::msg::TxnRequest, crate::msg::TxnResponse>(
                    map.group(shard).primary,
                    crate::msg::TxnRequest::Prepare {
                        txid,
                        ts_commit: timesync::Timestamp(1_000_000),
                        reads: Vec::new().into(),
                        writes: vec![(key, value(&b"ctp"[..]))].into(),
                        participants: participants.clone().into(),
                        epoch: 0,
                    },
                    Duration::from_millis(50),
                )
                .await
                .unwrap();
            assert!(matches!(vote, crate::msg::TxnResponse::Vote { ok: true }));
        }
        // While prepared, the keys are blocked: a conflicting writer aborts.
        let other = cluster.clients[1].clone();
        let mut blocked = other.begin_with(TxnOpts::default());
        let _ = blocked.get(&key_a).await; // may see prepared flag
        blocked.put(key_a.clone(), value(&b"blocked"[..]));
        let err = blocked.commit().await.unwrap_err();
        assert_eq!(err, TxnError::Aborted(AbortReason::Validation));
        // CTP: the designated coordinator sees all participants prepared and
        // commits the transaction on both shards.
        hh.sleep(Duration::from_millis(200)).await;
        let mut t = other.begin_with(TxnOpts::default());
        let va = t.get(&key_a).await.unwrap();
        let vb = t.get(&key_b).await.unwrap();
        t.commit().await.unwrap();
        assert_eq!(&va[..], b"ctp");
        assert_eq!(&vb[..], b"ctp");
        // No shard still holds the transaction prepared.
        for shard in &cluster.replicas {
            for slot in shard {
                let stuck = slot
                    .server
                    .table()
                    .borrow()
                    .stuck_prepared(timesync::Timestamp::MAX);
                assert!(stuck.is_empty(), "prepared txn left behind");
            }
        }
        // And the keys accept new writes again.
        let mut t2 = other.begin_with(TxnOpts::default());
        let _ = t2.get(&key_a).await.unwrap();
        t2.put(key_a.clone(), value(&b"after"[..]));
        t2.commit().await.unwrap();
    });
}

#[test]
fn without_local_validation_read_only_goes_remote() {
    let mut sim = Sim::new(33);
    let h = sim.handle();
    let hh = h.clone();
    let mut cfg = base_cfg();
    cfg.client_cfg.validation = ValidationMode::Remote;
    let cluster = MilanaCluster::build(&h, cfg);
    sim.block_on(async move {
        let c = &cluster.clients[0];
        let mut t = c.begin_with(TxnOpts::default());
        let _ = t.get(&k(1)).await.unwrap();
        let sent_before = hh.net_stats().sent;
        let info = t.commit().await.unwrap();
        assert!(!info.local);
        assert!(hh.net_stats().sent > sent_before, "expected 2PC messages");
        assert_eq!(c.stats().local_validations, 0);
    });
}

#[test]
fn watermark_advances_and_prunes_under_transactions() {
    let mut sim = Sim::new(34);
    let h = sim.handle();
    let hh = h.clone();
    let mut cfg = base_cfg();
    cfg.shards = 1;
    cfg.clients = 1;
    let cluster = MilanaCluster::build(&h, cfg);
    sim.block_on(async move {
        let c = cluster.clients[0].clone();
        for i in 0..8u64 {
            let mut t = c.begin_with(TxnOpts::default());
            let _ = t.get(&k(1)).await.unwrap();
            t.put(k(1), value(vec![i as u8; 16]));
            t.commit().await.unwrap();
            hh.sleep(Duration::from_millis(30)).await;
        }
        hh.sleep(Duration::from_millis(300)).await;
        // One more write triggers pruning below the advanced watermark.
        let mut t = c.begin_with(TxnOpts::default());
        let _ = t.get(&k(1)).await.unwrap();
        t.put(k(1), value(&b"last"[..]));
        t.commit().await.unwrap();
        hh.sleep(Duration::from_millis(5)).await;
        let versions = cluster.primary(ShardId(0)).backend().versions(&k(1));
        assert!(
            versions.len() < 6,
            "version chain unpruned: {} entries",
            versions.len()
        );
    });
}

#[test]
fn skewed_clocks_still_serializable() {
    // With heavy NTP skew, aborts rise but committed results stay correct.
    let mut sim = Sim::new(35);
    let h = sim.handle();
    let hh = h.clone();
    let mut cfg = base_cfg();
    cfg.clock = ClockSpec::ntp();
    cfg.clients = 3;
    cfg.shards = 1;
    let cluster = MilanaCluster::build(&h, cfg);
    sim.block_on(async move {
        // Counter increment workload: each commit adds exactly 1.
        let mut commits = 0u64;
        for round in 0..30 {
            let c = cluster.clients[round % 3].clone();
            let mut t = c.begin_with(TxnOpts::default());
            let cur = t.get(&k(1)).await;
            let n = match cur {
                Ok(v) if v.len() == 8 => u64::from_be_bytes(v[..8].try_into().unwrap()),
                _ => 0,
            };
            t.put(k(1), value(Vec::from((n + 1).to_be_bytes())));
            if t.commit().await.is_ok() {
                commits += 1;
            }
            hh.sleep(Duration::from_millis(2)).await;
        }
        hh.sleep(Duration::from_millis(10)).await;
        let c = cluster.clients[0].clone();
        let mut t = c.begin_with(TxnOpts::default());
        let v = t.get(&k(1)).await.unwrap();
        t.commit().await.unwrap();
        let n = u64::from_be_bytes(v[..8].try_into().unwrap());
        assert_eq!(n, commits, "lost or duplicated increments");
        assert!(commits > 0);
    });
}

#[test]
fn long_running_reader_survives_watermark_churn() {
    // §4.4: an active long-running read-only transaction holds the client's
    // watermark report below its ts_begin, so the GC never discards the
    // versions its snapshot needs — no matter how much the key churns.
    let mut sim = Sim::new(36);
    let h = sim.handle();
    let hh = h.clone();
    let mut cfg = base_cfg();
    cfg.shards = 1;
    cfg.clients = 2;
    let cluster = MilanaCluster::build(&h, cfg);
    sim.block_on(async move {
        let reader = cluster.clients[0].clone();
        let writer = cluster.clients[1].clone();
        // The long-running transaction reads one key, fixing its snapshot.
        let mut long_txn = reader.begin_with(TxnOpts::default());
        let first = long_txn.get(&k(1)).await.unwrap();
        // While it dawdles, the writer overwrites keys 1 and 2 many times,
        // with plenty of watermark broadcasts in between.
        for round in 0..10u64 {
            for key in [1u64, 2] {
                loop {
                    let mut w = writer.begin_with(TxnOpts::default());
                    let _ = w.get(&k(key)).await.unwrap();
                    w.put(k(key), value(vec![round as u8; 16]));
                    match w.commit().await {
                        Ok(_) => break,
                        Err(TxnError::Aborted(_)) => continue,
                        Err(e) => panic!("{e}"),
                    }
                }
            }
            hh.sleep(Duration::from_millis(120)).await; // watermark rounds
        }
        // The reader's report stayed below its begin timestamp...
        assert!(reader.watermark_report() < long_txn.ts_begin());
        // ...so its snapshot of key 2 is still consistent with key 1.
        let second = long_txn.get(&k(2)).await.unwrap();
        assert_eq!(first.len(), 472, "snapshot value must be the preload");
        assert_eq!(second.len(), 472, "snapshot value must be the preload");
        let info = long_txn.commit().await.unwrap();
        assert!(info.local);
        // Once the reader finishes, the watermark report advances to its
        // decided timestamp (no active transactions hold it down).
        assert!(reader.watermark_report() >= timesync::Timestamp(1));
    });
}

#[test]
fn cached_transactions_skip_the_server_on_warm_keys() {
    // §4.3 future work: a transaction marked read-write in advance may read
    // from the client cache, but must then validate remotely.
    assert_eq!(crate::client::CACHE_ENTRIES, 4096, "the old default");
    let mut sim = Sim::new(37);
    let h = sim.handle();
    let hh = h.clone();
    let cluster = MilanaCluster::build(&h, base_cfg());
    sim.block_on(async move {
        let c = &cluster.clients[0];
        // Warm the cache with a normal transaction.
        let mut warm = c.begin_with(TxnOpts::default());
        let _ = warm.get(&k(1)).await.unwrap();
        let _ = warm.get(&k(2)).await.unwrap();
        warm.commit().await.unwrap();
        // A cached transaction now reads both keys without any messages.
        let sent_before = hh.net_stats().sent;
        let mut t = c.begin_with(TxnOpts::cached());
        let _ = t.get(&k(1)).await.unwrap();
        let _ = t.get(&k(2)).await.unwrap();
        assert_eq!(t.cache_hits(), 2);
        assert_eq!(hh.net_stats().sent, sent_before, "cached reads sent RPCs");
        // ...but the commit validates remotely even though it is read-only.
        let info = t.commit().await.unwrap();
        assert!(!info.local, "cached transactions must validate remotely");
        assert!(hh.net_stats().sent > sent_before);
    });
}

#[test]
fn stale_cache_aborts_then_recovers() {
    let mut sim = Sim::new(38);
    let h = sim.handle();
    let hh = h.clone();
    let cluster = MilanaCluster::build(&h, base_cfg());
    sim.block_on(async move {
        let reader = cluster.clients[0].clone();
        let writer = cluster.clients[1].clone();
        // Reader caches key 1.
        let mut warm = reader.begin_with(TxnOpts::default());
        let _ = warm.get(&k(1)).await.unwrap();
        warm.commit().await.unwrap();
        // Writer overwrites key 1 behind the reader's back.
        let mut w = writer.begin_with(TxnOpts::default());
        let _ = w.get(&k(1)).await.unwrap();
        w.put(k(1), value(&b"fresh"[..]));
        w.commit().await.unwrap();
        hh.sleep(Duration::from_millis(5)).await;
        // The reader's cached transaction reads the stale version and must
        // fail remote validation...
        let mut t = reader.begin_with(TxnOpts::cached());
        let _ = t.get(&k(1)).await.unwrap();
        assert_eq!(t.cache_hits(), 1);
        t.put(k(2), value(&b"dep"[..]));
        let err = t.commit().await.unwrap_err();
        assert_eq!(err, TxnError::Aborted(AbortReason::Validation));
        // ...which invalidates the stale entry, so the retry refetches and
        // succeeds.
        let mut t2 = reader.begin_with(TxnOpts::cached());
        let v1 = t2.get(&k(1)).await.unwrap();
        assert_eq!(t2.cache_hits(), 0, "stale entry must have been dropped");
        assert_eq!(&v1[..], b"fresh");
        t2.put(k(2), value(&b"dep"[..]));
        t2.commit().await.unwrap();
    });
}

#[test]
fn own_commits_refresh_the_client_cache() {
    let mut sim = Sim::new(39);
    let h = sim.handle();
    let cluster = MilanaCluster::build(&h, base_cfg());
    sim.block_on(async move {
        let c = &cluster.clients[0];
        let mut t = c.begin_with(TxnOpts::default());
        let _ = t.get(&k(5)).await.unwrap();
        t.put(k(5), value(&b"mine"[..]));
        t.commit().await.unwrap();
        // The cached read now returns our own committed write, serverlessly.
        let mut t2 = c.begin_with(TxnOpts::cached());
        let v = t2.get(&k(5)).await.unwrap();
        assert_eq!(&v[..], b"mine");
        assert_eq!(t2.cache_hits(), 1);
        t2.commit().await.unwrap();
    });
}

#[test]
fn automatic_failover_without_harness_intervention() {
    // Auto mode: the master detects the dead primary via missed heartbeats,
    // promotes a backup (driving the full §4.5 recovery), and clients find
    // the new primary by refreshing their maps — no test-harness surgery.
    let mut sim = Sim::new(40);
    let h = sim.handle();
    let hh = h.clone();
    let mut cfg = base_cfg();
    cfg.shards = 1;
    cfg.clients = 2;
    cfg.auto_failover = true;
    let cluster = MilanaCluster::build(&h, cfg);
    sim.block_on(async move {
        let c = cluster.clients[0].clone();
        // Commit something against the original primary.
        let mut t = c.begin_with(TxnOpts::default());
        let _ = t.get(&k(1)).await.unwrap();
        t.put(k(1), value(&b"pre-crash"[..]));
        t.commit().await.unwrap();
        hh.sleep(Duration::from_millis(10)).await;
        // Kill the primary. Nobody calls promote_backup.
        cluster.fail_primary(ShardId(0));
        // Within a heartbeat timeout + recovery (lease wait ~100ms), the
        // master must have failed over on its own.
        hh.sleep(Duration::from_millis(600)).await;
        let master = cluster.master.as_ref().expect("auto mode has a master");
        assert_eq!(master.stats().failovers, 1, "master drove the failover");
        assert!(master.map().epoch() >= 1);
        // Clients recover purely through map refresh + retries.
        let mut t2 = c.begin_with(TxnOpts::default());
        let got = t2.get(&k(1)).await.unwrap();
        assert_eq!(&got[..], b"pre-crash");
        t2.commit().await.unwrap();
        let mut t3 = c.begin_with(TxnOpts::default());
        let _ = t3.get(&k(2)).await.unwrap();
        t3.put(k(2), value(&b"post-crash"[..]));
        t3.commit().await.unwrap();
    });
}

#[test]
fn history_window_retains_old_versions_for_analytics() {
    // §3.1: with a GC history window configured, versions younger than the
    // window survive even after every client's watermark has passed them.
    let mut sim = Sim::new(41);
    let h = sim.handle();
    let hh = h.clone();
    let mut cfg = base_cfg();
    cfg.shards = 1;
    cfg.clients = 1;
    cfg.tuning.history_window = Some(Duration::from_secs(5));
    let cluster = MilanaCluster::build(&h, cfg);
    sim.block_on(async move {
        let c = cluster.clients[0].clone();
        for i in 0..6u64 {
            let mut t = c.begin_with(TxnOpts::default());
            let _ = t.get(&k(1)).await.unwrap();
            t.put(k(1), value(vec![i as u8; 16]));
            t.commit().await.unwrap();
            hh.sleep(Duration::from_millis(120)).await; // watermark rounds
        }
        // Force one more write so lazy pruning would run if allowed.
        let mut t = c.begin_with(TxnOpts::default());
        let _ = t.get(&k(1)).await.unwrap();
        t.put(k(1), value(&b"last"[..]));
        t.commit().await.unwrap();
        hh.sleep(Duration::from_millis(10)).await;
        // All seven writes (plus the preload) are younger than 5s: the
        // whole chain must still be there.
        let versions = cluster.primary(ShardId(0)).backend().versions(&k(1));
        assert!(
            versions.len() >= 8,
            "history pruned inside the window: {} versions",
            versions.len()
        );
    });
}

#[test]
fn replica_reads_spread_load_and_validate_remotely() {
    // §4.6: read-write transactions may read from any replica, then
    // validate at the primary before commit.
    let mut sim = Sim::new(42);
    let h = sim.handle();
    let hh = h.clone();
    let mut cfg = base_cfg();
    cfg.shards = 1;
    cfg.clients = 1;
    let cluster = MilanaCluster::build(&h, cfg);
    sim.block_on(async move {
        let c = cluster.clients[0].clone();
        // Many replica-read transactions: gets spread across all 3 replicas.
        for i in 0..12u64 {
            let mut t = c.begin_with(TxnOpts::default());
            let _ = t.get_any(&k(i % 4)).await.unwrap();
            t.put(k(i % 4), value(vec![i as u8; 8]));
            loop {
                match t.commit().await {
                    Ok(info) => {
                        assert!(!info.local, "replica reads force remote validation");
                        break;
                    }
                    Err(TxnError::Aborted(_)) => {
                        t = c.begin_with(TxnOpts::default());
                        let _ = t.get_any(&k(i % 4)).await.unwrap();
                        t.put(k(i % 4), value(vec![i as u8; 8]));
                    }
                    Err(e) => panic!("{e}"),
                }
            }
            hh.sleep(Duration::from_millis(3)).await;
        }
        // The backups actually served some of those reads.
        let backup_gets: u64 = cluster.replicas[0][1..]
            .iter()
            .map(|s| s.server.backend().stats().gets)
            .sum();
        assert!(backup_gets > 0, "no reads reached the backups");
        // And even a read-ONLY transaction using get_any validates remotely.
        let mut ro = c.begin_with(TxnOpts::default());
        let _ = ro.get_any(&k(1)).await.unwrap();
        let info = ro.commit().await.unwrap();
        assert!(!info.local);
    });
}

#[test]
fn partitioned_old_primary_stops_serving_after_lease_expiry() {
    // The §4.5 lease safety property: a deposed-but-alive primary that can
    // no longer renew its lease from the backups must refuse reads, or a
    // failover could serve writes that contradict reads the old primary
    // already served.
    let mut sim = Sim::new(43);
    let h = sim.handle();
    let hh = h.clone();
    let mut cfg = base_cfg();
    cfg.shards = 1;
    cfg.clients = 1;
    let cluster = MilanaCluster::build(&h, cfg);
    sim.block_on(async move {
        let c = cluster.clients[0].clone();
        // Warm up: normal reads succeed against the original primary.
        let mut t = c.begin_with(TxnOpts::default());
        let _ = t.get(&k(1)).await.unwrap();
        t.commit().await.unwrap();
        // Partition the primary from its backups (it stays reachable from
        // the client!). Its lease can no longer be renewed.
        let primary = cluster.map.borrow().group(ShardId(0)).primary;
        let backups: Vec<_> = cluster.map.borrow().group(ShardId(0)).backups.clone();
        let backup_nodes: Vec<_> = backups.iter().map(|a| a.node).collect();
        hh.partition(&[primary.node], &backup_nodes);
        // Wait out the lease (100ms default + margin).
        hh.sleep(Duration::from_millis(250)).await;
        // The client still routes to the old primary (map unchanged), but
        // the primary must answer NotReady — surfacing as a read timeout.
        let mut t2 = c.begin_with(TxnOpts::default());
        let err = t2.get(&k(1)).await.unwrap_err();
        assert_eq!(err, TxnError::Timeout, "stale primary served a read!");
    });
}

#[test]
fn install_log_catches_up_a_stale_backup() {
    // After failover, the merged transaction table (and its committed
    // writes) are pushed to backups — including one that was dead during
    // the commits and restarted later.
    let mut sim = Sim::new(44);
    let h = sim.handle();
    let hh = h.clone();
    let mut cfg = base_cfg();
    cfg.shards = 1;
    cfg.clients = 1;
    let mut cluster = MilanaCluster::build(&h, cfg);
    sim.block_on({
        let c = cluster.clients[0].clone();
        let hh2 = hh.clone();
        async move {
            // Commit once so everyone has data, then nothing more.
            let mut t = c.begin_with(TxnOpts::default());
            let _ = t.get(&k(1)).await.unwrap();
            t.put(k(1), value(&b"epoch-0"[..]));
            t.commit().await.unwrap();
            hh2.sleep(Duration::from_millis(10)).await;
        }
    });
    // Kill backup #2 — it will miss the next commits entirely.
    let lagging = cluster.replicas[0][2].addr;
    h.kill_node(lagging.node);
    sim.block_on({
        let c = cluster.clients[0].clone();
        let hh2 = hh.clone();
        async move {
            for i in 0..5u64 {
                loop {
                    let mut t = c.begin_with(TxnOpts::default());
                    let _ = t.get(&k(1)).await.unwrap();
                    t.put(k(1), value(format!("missed-{i}").into_bytes()));
                    match t.commit().await {
                        Ok(_) => break,
                        Err(TxnError::Aborted(_)) => {
                            hh2.sleep(Duration::from_millis(2)).await;
                        }
                        Err(e) => panic!("{e}"),
                    }
                }
            }
            hh2.sleep(Duration::from_millis(10)).await;
        }
    });
    // Restart the lagging backup, then fail the primary over: the new
    // primary's InstallLog must bring the stale backup's data forward.
    cluster.restart_replica_warm(ShardId(0), 2);
    cluster.fail_primary(ShardId(0));
    sim.block_on(cluster.promote_backup(ShardId(0)))
        .expect("promotion");
    sim.block_on({
        let hh2 = hh.clone();
        async move { hh2.sleep(Duration::from_millis(20)).await }
    });
    let restarted = &cluster.replicas[0][2].server;
    let latest = restarted.backend().versions(&k(1));
    // The stale backup now holds the final committed version.
    let new_primary_latest = cluster.primary(ShardId(0)).backend().versions(&k(1));
    assert_eq!(
        latest.first(),
        new_primary_latest.first(),
        "stale backup not caught up: {latest:?} vs {new_primary_latest:?}"
    );
}

#[test]
fn backup_reads_serve_covered_snapshots() {
    // readkit end-to-end: with a read route configured, snapshot reads
    // whose `ts_begin` falls under a backup's applied watermark are served
    // by that backup — correctly — and show up in the client stats.
    let mut sim = Sim::new(61);
    let h = sim.handle();
    let hh = h.clone();
    let mut cfg = base_cfg();
    cfg.shards = 1;
    cfg.clients = 2;
    cfg.client_cfg.read_route = readkit::ReadRoute::Freshest;
    cfg.client_cfg.watermark_interval = Duration::from_millis(2);
    cfg.tuning.gossip_every = Some(Duration::from_millis(2));
    let cluster = MilanaCluster::build(&h, cfg);
    sim.block_on(async move {
        let c = cluster.clients[0].clone();
        // Commit known values so reads have something to check.
        for i in 0..4u64 {
            let mut t = c.begin_with(TxnOpts::default());
            let _ = t.get(&k(i)).await.unwrap();
            t.put(k(i), value(vec![i as u8; 8]));
            t.commit().await.unwrap();
        }
        // Long-lived snapshots: while a transaction sleeps, the idle-tick
        // floor reports push every replica's applied watermark past its
        // `ts_begin`, so the later reads inside it route to backups.
        for _ in 0..8 {
            let mut t = c.begin_with(TxnOpts::default());
            hh.sleep(Duration::from_millis(12)).await;
            for i in 0..4u64 {
                let got = t.get(&k(i)).await.unwrap();
                assert_eq!(&got[..], &[i as u8; 8][..], "backup served wrong value");
            }
            t.commit().await.unwrap();
        }
        let stats = c.stats();
        assert!(
            stats.replica_reads > 0,
            "no snapshot read was ever served by a backup: {stats:?}"
        );
        // And the backups really did the work (server-side counters).
        let served: u64 = cluster.replicas[0][1..]
            .iter()
            .map(|s| s.server.stats().replica_reads)
            .sum();
        assert!(served > 0, "server-side replica_reads stayed zero");
    });
}

/// One primary with no backups and no clients, so the only traffic is the
/// raw envelopes a test sends from the harness endpoint.
fn lone_primary(h: &simkit::SimHandle, admission_capacity: u64) -> MilanaCluster {
    let mut cfg = base_cfg();
    cfg.shards = 1;
    cfg.replicas = 1;
    cfg.clients = 0;
    cfg.tuning.admission.capacity = admission_capacity;
    MilanaCluster::build(h, cfg)
}

const ENVELOPE_TIMEOUT: Duration = Duration::from_millis(5);

/// A blind single-key write by transaction `seq` of a client of its own.
fn prepare(seq: u64, key: u64) -> TxnRequest {
    TxnRequest::Prepare {
        txid: TxnId {
            client: ClientId(9),
            seq,
        },
        ts_commit: Timestamp(1_000_000 + seq),
        reads: Vec::new().into(),
        writes: vec![(k(key), value(&b"w"[..]))].into(),
        participants: vec![ShardId(0)].into(),
        epoch: 0,
    }
}

#[test]
fn batched_control_items_spawn_only_the_outcome_apply() {
    let mut sim = Sim::new(71);
    let h = sim.handle();
    let hh = h.clone();
    let cluster = lone_primary(&h, 256);
    sim.block_on(async move {
        let primary = cluster.replicas[0][0].addr;
        let client = ClientId(9);
        let items = vec![
            TxnRequest::Outcome {
                txid: TxnId { client, seq: 1 },
                commit: false,
            },
            TxnRequest::Watermark {
                client,
                ts: Timestamp(1_000),
            },
            TxnRequest::AppliedFloor {
                seq: 0,
                ts: Timestamp::ZERO,
            },
        ];
        let spawns = hh.spawns();
        let replies = cluster
            .master_rpc
            .call_batch::<TxnRequest, TxnResponse>(primary, items, ENVELOPE_TIMEOUT)
            .await
            .unwrap();
        assert!(
            replies.iter().all(|r| matches!(r, TxnResponse::Ack)),
            "{replies:?}"
        );
        // The envelope's task and the outcome's detached apply; the items
        // themselves were answered in the envelope's first poll.
        assert_eq!(hh.spawns() - spawns, 2);
    });
}

#[test]
fn batched_prepares_are_all_admitted_before_the_first_one_runs() {
    let mut sim = Sim::new(72);
    let h = sim.handle();
    // Room for exactly one prepare in flight.
    let cluster = lone_primary(&h, crate::server::COST_PREPARE);
    sim.block_on(async move {
        let primary = cluster.replicas[0][0].addr;
        let rpc = &cluster.master_rpc;
        let first = rpc
            .call::<TxnRequest, TxnResponse>(primary, prepare(1, 1), ENVELOPE_TIMEOUT)
            .await
            .unwrap();
        assert!(matches!(first, TxnResponse::Vote { ok: true }), "{first:?}");
        // The retransmitted prepare is answered from the table on its first
        // poll and drops its permit there — but the second prepare was
        // refused before that, when the whole envelope was admitted.
        let items = vec![
            prepare(1, 1),
            TxnRequest::Watermark {
                client: ClientId(9),
                ts: Timestamp(1_000),
            },
            prepare(2, 2),
        ];
        let replies = rpc
            .call_batch::<TxnRequest, TxnResponse>(primary, items, ENVELOPE_TIMEOUT)
            .await
            .unwrap();
        assert!(
            matches!(
                replies[..],
                [
                    TxnResponse::Vote { ok: true },
                    TxnResponse::Ack,
                    TxnResponse::Shed(_)
                ]
            ),
            "{replies:?}"
        );
    });
}

#[test]
fn batched_items_that_wait_overlap_and_reply_in_item_order() {
    let mut sim = Sim::new(73);
    let h = sim.handle();
    let hh = h.clone();
    let cluster = lone_primary(&h, 256);
    sim.block_on(async move {
        let primary = cluster.replicas[0][0].addr;
        // Both prepares wait for the same group-commit flush; the second
        // conflicts with the first (same key, prepared) and votes no at once.
        let items = vec![
            prepare(1, 7),
            prepare(2, 7),
            TxnRequest::FloorSync,
            prepare(3, 8),
        ];
        let spawns = hh.spawns();
        let replies = cluster
            .master_rpc
            .call_batch::<TxnRequest, TxnResponse>(primary, items, ENVELOPE_TIMEOUT)
            .await
            .unwrap();
        assert!(
            matches!(
                replies[..],
                [
                    TxnResponse::Vote { ok: true },
                    TxnResponse::Vote { ok: false },
                    TxnResponse::Ack,
                    TxnResponse::Vote { ok: true }
                ]
            ),
            "{replies:?}"
        );
        // The envelope's task and the replication batcher's deadline timer,
        // which both waiting prepares rode.
        assert_eq!(hh.spawns() - spawns, 2);
    });
}

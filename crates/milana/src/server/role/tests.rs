use std::rc::Rc;

use flashsim::{value, Key};
use semel::shard::ShardId;
use simkit::net::{Addr, NodeId};
use simkit::time::SimTime;
use timesync::{ClientId, Timestamp};

use super::super::migration::MigrationState;
use super::{PrimaryState, Role, SeqWindow, Start, FLOOR_AHEAD_MAX};
use crate::msg::{TxnId, TxnRecord, TxnRequest, TxnResponse, TxnStatus};

const A: NodeId = NodeId(1);
const B: NodeId = NodeId(2);

fn trusting(node: Option<NodeId>) -> SeqWindow {
    SeqWindow {
        trusted: node,
        ..SeqWindow::default()
    }
}

#[test]
fn out_of_order_floors_drain_once_contiguous_to_the_greatest() {
    let mut w = trusting(Some(A));
    assert_eq!(w.offer(A, 1, Timestamp(200)), None);
    assert_eq!(w.offer(A, 2, Timestamp(150)), None);
    assert_eq!(w.offer(A, 0, Timestamp(100)), Some(Timestamp(200)));
    assert_eq!(w.next, 3);
    assert!(w.ahead.is_empty());
}

#[test]
fn a_trusted_window_ignores_other_senders_and_old_seqs() {
    let mut w = trusting(Some(A));
    assert_eq!(w.offer(A, 0, Timestamp(100)), Some(Timestamp(100)));
    assert_eq!(w.offer(B, 1, Timestamp(300)), None, "another node");
    assert_eq!(w.offer(A, 0, Timestamp(300)), None, "below next");
    assert!(w.ahead.is_empty(), "neither was parked");
    assert_eq!(w.offer(A, 1, Timestamp(200)), Some(Timestamp(200)));
}

#[test]
fn parking_past_the_limit_distrusts_the_window_and_drops_the_oldest() {
    let mut w = trusting(Some(A));
    let limit = FLOOR_AHEAD_MAX as u64;
    for seq in 1..=limit {
        assert_eq!(w.offer(A, seq, Timestamp(seq)), None);
    }
    assert_eq!(w.trusted, Some(A), "the window holds {limit} floors");
    assert_eq!(w.offer(A, limit + 1, Timestamp(limit + 1)), None);
    assert_eq!(w.trusted, None, "one more is a lost envelope");
    assert_eq!(w.ahead.len(), FLOOR_AHEAD_MAX);
    assert!(!w.ahead.contains_key(&(A, 1)), "the oldest went");
    assert_eq!(
        w.offer(A, 0, Timestamp(0)),
        None,
        "untrusted: nothing drains"
    );
}

#[test]
fn a_rebase_drops_other_senders_floors_and_drains() {
    let mut w = trusting(None);
    assert_eq!(w.offer(B, 0, Timestamp(900)), None);
    assert_eq!(w.offer(A, 0, Timestamp(50)), None);
    assert_eq!(w.offer(A, 1, Timestamp(100)), None);
    assert_eq!(w.offer(A, 2, Timestamp(200)), None);
    assert_eq!(w.rebase(A, 1), Some(Timestamp(200)));
    assert_eq!((w.trusted, w.next), (Some(A), 3));
    assert!(w.ahead.is_empty(), "B's floor and A's seq 0 went");
}

fn k(i: u64) -> Key {
    Key::from(i)
}

/// One request of every `TxnRequest` variant.
fn every_request() -> Vec<TxnRequest> {
    let txid = TxnId {
        client: ClientId(0),
        seq: 1,
    };
    let record = TxnRecord {
        txid,
        ts_commit: Timestamp(5),
        writes: vec![(k(1), value(&b"v"[..]))].into(),
        participants: vec![ShardId(0)].into(),
        status: TxnStatus::Prepared,
    };
    let addr = Addr::new(A, 0);
    let (client, ts) = (ClientId(0), Timestamp(5));
    vec![
        TxnRequest::ReadAt {
            key: k(1),
            at: ts,
            client,
        },
        TxnRequest::AppliedFloor { seq: 0, ts },
        TxnRequest::FloorSync,
        TxnRequest::Prepare {
            txid,
            ts_commit: ts,
            reads: Rc::from(Vec::new()),
            writes: record.writes.clone(),
            participants: record.participants.clone(),
            epoch: 0,
        },
        TxnRequest::Outcome { txid, commit: true },
        TxnRequest::Watermark { client, ts },
        TxnRequest::FloorReport { client, ts },
        TxnRequest::ReplPrepare(record.clone()),
        TxnRequest::ReplOutcome { txid, commit: true },
        TxnRequest::QueryTxn { txid },
        TxnRequest::RequestLog,
        TxnRequest::InstallLog {
            records: vec![record],
        },
        TxnRequest::LeaseGrant {
            until: SimTime::ZERO,
        },
        TxnRequest::LeaseQuery,
        TxnRequest::Promote {
            backups: vec![addr],
        },
        TxnRequest::MigrationStart {
            from: ShardId(0),
            to: ShardId(1),
            epoch: 1,
            dest: vec![addr],
        },
        TxnRequest::MigrateRecords {
            records: Vec::new(),
        },
        TxnRequest::MigrationFence,
        TxnRequest::MigrationDrain,
        TxnRequest::MigrationCutover {
            to: ShardId(1),
            epoch: 1,
        },
        TxnRequest::MigrationGc,
        TxnRequest::CatchUpFetch {
            cursor: None,
            limit: 1,
        },
    ]
}

/// The variant name `Debug` prints first.
fn variant(req: &TxnRequest) -> String {
    let debug = format!("{req:?}");
    debug
        .split(|c: char| !c.is_ascii_alphanumeric())
        .next()
        .unwrap_or_default()
        .to_string()
}

#[test]
fn the_role_table_answers_every_request_in_every_role() {
    // (variant, what Cold, Backup, Promoting and Primary answer): `N` for
    // `NotReady`, `.` for handled. A read needs a serving replica, a
    // prepare and a catch-up page a serving primary; nothing else is
    // refused before it runs.
    const TABLE: &[(&str, &str)] = &[
        ("ReadAt", "N.N."),
        ("AppliedFloor", "...."),
        ("FloorSync", "...."),
        ("Prepare", "NNN."),
        ("Outcome", "...."),
        ("Watermark", "...."),
        ("FloorReport", "...."),
        ("ReplPrepare", "...."),
        ("ReplOutcome", "...."),
        ("QueryTxn", "...."),
        ("RequestLog", "...."),
        ("InstallLog", "...."),
        ("LeaseGrant", "...."),
        ("LeaseQuery", "...."),
        ("Promote", "...."),
        ("MigrationStart", "...."),
        ("MigrateRecords", "...."),
        ("MigrationFence", "...."),
        ("MigrationDrain", "...."),
        ("MigrationCutover", "...."),
        ("MigrationGc", "...."),
        ("CatchUpFetch", "NNN."),
    ];
    let roles = [
        Role::Cold,
        Role::Backup,
        Role::Promoting(PrimaryState::default()),
        Role::Primary(PrimaryState::default()),
    ];
    let requests = every_request();
    assert_eq!(requests.len(), TABLE.len());
    for (req, &(name, expect)) in requests.iter().zip(TABLE) {
        assert_eq!(variant(req), name);
        let got: String = roles
            .iter()
            .map(|role| match role.refuses(req) {
                None => '.',
                Some(TxnResponse::NotReady) => 'N',
                Some(other) => panic!("{name}: {other:?}"),
            })
            .collect();
        assert_eq!(got, expect, "{name} on Cold, Backup, Promoting, Primary");
    }
}

#[test]
fn each_start_gives_its_first_role_and_window() {
    let backups = vec![Addr::new(B, 0)];
    let (role, w) = Start::Primary {
        backups: backups.clone(),
    }
    .role();
    assert!(matches!(&role, Role::Primary(p) if p.backups == backups && p.floor_seq == 0));
    assert_eq!(w.trusted, None);
    let (role, w) = Start::Backup { primary: A }.role();
    assert!(matches!(role, Role::Backup));
    assert_eq!(w.trusted, Some(A), "trusts its primary's stream from birth");
    let (role, w) = Start::Warm.role();
    assert!(matches!(role, Role::Backup));
    assert_eq!(w.trusted, None);
    let (role, w) = Start::Cold.role();
    assert!(matches!(role, Role::Cold));
    assert_eq!(w.trusted, None);
    assert!(!role.is_serving() && !role.is_primary());
}

#[test]
fn a_retried_promotion_resets_only_the_backups_and_the_stream() {
    let mut p = PrimaryState {
        backups: vec![Addr::new(A, 0)],
        lease_until: SimTime::from_millis(7),
        floor_seq: 9,
        ..PrimaryState::default()
    };
    p.wm_relay.insert(ClientId(3), Timestamp(4));
    p.migration = Some(MigrationState {
        to: ShardId(1),
        epoch: 2,
        dest: Vec::new(),
        fenced: true,
    });
    let txid = TxnId {
        client: ClientId(3),
        seq: 1,
    };
    p.replicating.insert(txid);
    let mut role = Role::Primary(p);
    let new = vec![Addr::new(B, 0)];
    role.promote(new.clone());
    let Role::Promoting(p) = &role else {
        panic!("a promotion starts Promoting")
    };
    assert_eq!((&p.backups, p.floor_seq), (&new, 0));
    assert_eq!(p.lease_until, SimTime::from_millis(7));
    assert_eq!(p.wm_relay.len(), 1);
    assert!(p.migration.as_ref().is_some_and(|m| m.fenced));
    assert!(p.replicating.contains(&txid));
    assert!(role.is_primary() && !role.is_serving());
    role.open();
    assert!(matches!(role, Role::Primary(_)));
    role.open();
    assert!(matches!(role, Role::Primary(_)), "a second open keeps it");
}

#[test]
fn a_first_promotion_builds_a_fresh_primary_state() {
    for mut role in [Role::Cold, Role::Backup] {
        role.promote(vec![Addr::new(B, 0)]);
        let Role::Promoting(p) = &role else {
            panic!("a promotion starts Promoting")
        };
        assert_eq!(p.lease_until, SimTime::ZERO);
        assert!(p.wm_relay.is_empty() && p.migration.is_none() && p.replicating.is_empty());
    }
}

#[test]
fn only_a_cold_replica_turns_backup_when_it_recovers() {
    let mut role = Role::Cold;
    role.serve_as_backup();
    assert!(matches!(role, Role::Backup));
    let mut role = Role::Promoting(PrimaryState::default());
    role.serve_as_backup();
    assert!(matches!(role, Role::Promoting(_)));
}

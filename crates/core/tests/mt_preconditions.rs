//! `SmDb::run_epochs` preconditions surface as typed errors: a library
//! caller that hands the epoch scheduler an engine it cannot run gets
//! `DbError::Precondition` back instead of a panic, and nothing runs.

use smdb_core::{DbConfig, DbError, MtOp, MtTxn, ProtocolKind, SmDb};
use smdb_sim::NodeId;

const N0: NodeId = NodeId(0);

fn cfg() -> DbConfig {
    DbConfig::small(4, ProtocolKind::VolatileSelectiveRedo)
}

fn one_update(node: NodeId) -> Vec<MtTxn> {
    vec![MtTxn { node, ops: vec![MtOp::Update { slot: 0, data: b"mt".to_vec() }] }]
}

/// Run one update batch and expect the named precondition to refuse it
/// without advancing any clock.
fn assert_refused(db: &mut SmDb, txns: Vec<MtTxn>, what: &str) {
    let clock = db.max_clock();
    match db.run_epochs(txns, 2) {
        Err(DbError::Precondition { what: got }) => assert_eq!(got, what),
        other => panic!("expected precondition {what:?}, got {other:?}"),
    }
    assert_eq!(db.max_clock(), clock, "a refused call must not run anything");
}

/// Commit one update on N0, so a crash of N0 leaves recovery work.
fn commit_on_n0(db: &mut SmDb) {
    let t = db.begin(N0).unwrap();
    db.update(t, 3, b"n0").unwrap();
    db.commit(t).unwrap();
}

#[test]
fn early_lock_release_is_refused() {
    let mut db = SmDb::new(cfg().with_early_lock_release());
    assert_refused(&mut db, one_update(N0), "mt excludes early lock release");
}

#[test]
fn open_instant_restart_window_is_refused() {
    let mut db = SmDb::new(cfg().with_instant_restart());
    commit_on_n0(&mut db);
    db.crash_and_recover(&[N0]).unwrap();
    assert!(db.redo_pending() > 0);
    assert_refused(&mut db, one_update(NodeId(1)), "mt excludes instant restart");
}

#[test]
fn pending_recovery_is_refused() {
    let mut db = SmDb::new(cfg());
    db.crash(&[N0]);
    assert_refused(&mut db, one_update(NodeId(1)), "mt requires completed recovery");
}

#[test]
fn undrained_commit_pipeline_is_refused() {
    let mut db = SmDb::new(cfg());
    let t = db.begin(N0).unwrap();
    db.update(t, 3, b"piped").unwrap();
    db.commit_pipelined(t).unwrap();
    assert_eq!(db.pending_commit_count(), 1);
    assert_refused(&mut db, one_update(NodeId(1)), "mt requires drained commit pipeline");
}

#[test]
fn active_transaction_is_refused() {
    let mut db = SmDb::new(cfg());
    let t = db.begin(N0).unwrap();
    db.update(t, 3, b"open").unwrap();
    assert_refused(&mut db, one_update(NodeId(1)), "mt requires a quiescent engine");
}

#[test]
fn crashed_node_is_refused() {
    let mut db = SmDb::new(cfg());
    commit_on_n0(&mut db);
    db.crash_and_recover(&[N0]).unwrap();
    assert_refused(&mut db, one_update(NodeId(1)), "mt requires every node up");
}

#[test]
fn unknown_node_is_refused() {
    let mut db = SmDb::new(cfg());
    assert_refused(&mut db, one_update(NodeId(9)), "mt transaction on unknown node");
}

//! Instant restart: the engine opens for transactions right after the
//! analysis pass, with heap redo deferred to first access (on-demand)
//! and a background drain. These tests pin the contract: the open-early
//! database serves exactly the committed pre-crash values, the drained
//! end state is byte-identical to an eager recovery of the same history,
//! and the safety interlocks (checkpoint drain, oracle gate, total
//! failure) hold.

use smdb_core::fault::{CrashPoint, FaultInjector, FaultPlan};
use smdb_core::{DbConfig, DbError, ProtocolKind, SmDb, FAULT_REDO_BACKGROUND};
use smdb_sim::NodeId;

const N0: NodeId = NodeId(0);
const N1: NodeId = NodeId(1);
const N2: NodeId = NodeId(2);
const N3: NodeId = NodeId(3);

fn mk(p: ProtocolKind, instant: bool) -> SmDb {
    let cfg = DbConfig::small(4, p);
    SmDb::new(if instant { cfg.with_instant_restart() } else { cfg })
}

/// A fixed history whose committed effects live in N0's cache when N0
/// crashes: recovering them requires redo, which instant restart defers.
fn seed_history(db: &mut SmDb) {
    for (slot, val) in [(0u64, b"n0-commit-a" as &[u8]), (5, b"n0-commit-b"), (9, b"n0-commit-c")] {
        let t = db.begin(N0).unwrap();
        db.update(t, slot, val).unwrap();
        db.commit(t).unwrap();
    }
    // A committed update on a survivor too — its line is not lost, so it
    // must not be disturbed by the deferred plan.
    let t = db.begin(N1).unwrap();
    db.update(t, 20, b"n1-commit").unwrap();
    db.commit(t).unwrap();
}

/// An in-flight N0 transaction whose update of slot 30 was stolen into
/// the stable database: recovering N0 must undo it in place.
fn seed_stolen_doomed_update(db: &mut SmDb) {
    let t = db.begin(N0).unwrap();
    db.update(t, 30, b"doomed-stolen").unwrap();
    let page = db.record_layout().rec_of_global(30).page;
    db.flush_page(N0, page).unwrap();
}

/// A stolen doomed update (slot 30) plus one whose line a browser on N2
/// replicated (slot 40): the replica outlives N0's crash on a node that is
/// not the recovery node.
fn seed_doomed_updates(db: &mut SmDb) {
    seed_stolen_doomed_update(db);
    let t = db.begin(N0).unwrap();
    db.update(t, 40, b"doomed-replicated").unwrap();
    db.read_dirty(N2, 40).unwrap();
}

/// With no transaction active, every record must hold its committed value.
fn assert_committed_state(db: &SmDb, ctx: &str) {
    assert!(db.active_txns(None).is_empty(), "{ctx}: transactions still active");
    for slot in 0..db.record_count() as u64 {
        assert_eq!(
            db.current_value(slot).unwrap(),
            db.read_committed(slot).unwrap(),
            "{ctx}: slot {slot} does not hold its committed value"
        );
    }
}

fn drain_all(db: &mut SmDb, node: NodeId) {
    while db.redo_pending() > 0 {
        db.drain_redo(node, 2).unwrap();
    }
}

#[test]
fn instant_recovery_defers_redo_then_drains_to_eager_state() {
    for p in ProtocolKind::ifa_protocols() {
        let mut eager = mk(p, false);
        let mut instant = mk(p, true);
        for db in [&mut eager, &mut instant] {
            seed_history(db);
            seed_doomed_updates(db);
        }
        eager.crash_and_recover(&[N0]).unwrap();
        instant.crash_and_recover(&[N0]).unwrap();
        assert_eq!(eager.redo_pending(), 0, "{p:?}: eager must not defer");
        assert_eq!(eager.machine().unrecovered_count(), 0, "{p:?}: eager left a line marked");
        assert_eq!(eager.instant_redo_counters(), Default::default(), "{p:?}");
        assert!(
            instant.redo_pending() > 0,
            "{p:?}: instant recovery should leave deferred heap redo"
        );
        drain_all(&mut instant, N1);
        for slot in 0..instant.record_count() as u64 {
            assert_eq!(
                eager.current_value(slot).unwrap(),
                instant.current_value(slot).unwrap(),
                "{p:?}: slot {slot} diverged from eager recovery"
            );
        }
        eager.check_ifa(N1).assert_ok();
        instant.check_ifa(N1).assert_ok();
        let c = instant.instant_redo_counters();
        assert_eq!(
            c.planned,
            c.on_demand + c.background + c.skipped_stable,
            "{p:?}: every planned entry must retire exactly once"
        );
        assert!(c.background > 0, "{p:?}: the drain should have retired entries");
    }
}

#[test]
fn on_demand_redo_serves_committed_value_before_any_drain() {
    for p in ProtocolKind::ifa_protocols() {
        let mut db = mk(p, true);
        seed_history(&mut db);
        db.crash_and_recover(&[N0]).unwrap();
        assert!(db.redo_pending() > 0, "{p:?}");
        // First forward-path access: the record lock grant applies the
        // line's pending redo inline before the coherent read.
        let t = db.begin(N1).unwrap();
        let got = db.read(t, 0).unwrap();
        assert_eq!(&got[..11], b"n0-commit-a", "{p:?}");
        db.commit(t).unwrap();
        assert!(db.instant_redo_counters().on_demand > 0, "{p:?}");
        drain_all(&mut db, N1);
        db.check_ifa(N1).assert_ok();
    }
}

#[test]
fn dirty_read_applies_pending_redo_without_locks() {
    let mut db = mk(ProtocolKind::VolatileRedoAll, true);
    seed_history(&mut db);
    db.crash_and_recover(&[N0]).unwrap();
    assert!(db.redo_pending() > 0);
    let got = db.read_dirty(N1, 5).unwrap();
    assert_eq!(&got[..11], b"n0-commit-b");
    assert!(db.instant_redo_counters().on_demand > 0);
    drain_all(&mut db, N1);
    db.check_ifa(N1).assert_ok();
}

#[test]
fn degraded_read_stays_available_and_never_recovers_lines() {
    let mut db = mk(ProtocolKind::VolatileSelectiveRedo, true);
    seed_history(&mut db);
    db.crash_and_recover(&[N0]).unwrap();
    let before = db.redo_pending();
    assert!(before > 0);
    // Degraded reads trade freshness for availability: no inline redo.
    for slot in 0..db.record_count() as u64 {
        db.read_degraded(N1, slot).unwrap();
    }
    assert_eq!(db.redo_pending(), before, "degraded reads must not touch the plan");
    drain_all(&mut db, N1);
    db.check_ifa(N1).assert_ok();
}

#[test]
fn checkpoint_drains_all_pending_redo_first() {
    for p in ProtocolKind::ifa_protocols() {
        let mut db = mk(p, true);
        seed_history(&mut db);
        db.crash_and_recover(&[N0]).unwrap();
        assert!(db.redo_pending() > 0, "{p:?}");
        db.checkpoint(N1).unwrap();
        assert_eq!(db.redo_pending(), 0, "{p:?}: checkpoint must not orphan deferred redo");
        db.check_ifa(N1).assert_ok();
    }
}

#[test]
fn check_ifa_refuses_to_compare_while_redo_is_pending() {
    let mut db = mk(ProtocolKind::VolatileRedoAll, true);
    seed_history(&mut db);
    db.crash_and_recover(&[N0]).unwrap();
    assert!(db.redo_pending() > 0);
    let report = db.check_ifa(N1);
    assert!(
        report.violations.iter().any(|v| v.contains("redo entries pending")),
        "expected a pending-redo refusal, got {:?}",
        report.violations
    );
    drain_all(&mut db, N1);
    db.check_ifa(N1).assert_ok();
}

#[test]
fn total_failure_always_recovers_eagerly() {
    let mut db = mk(ProtocolKind::StableEager, true);
    seed_history(&mut db);
    db.crash_and_recover(&[N0, N1, N2, N3]).unwrap();
    assert_eq!(db.redo_pending(), 0, "total failure must not open early");
    assert_eq!(&db.current_value(0).unwrap()[..11], b"n0-commit-a");
    db.check_ifa(db.machine().surviving_nodes()[0]).assert_ok();
}

#[test]
fn crash_during_drain_window_replans_and_still_converges() {
    for p in ProtocolKind::ifa_protocols() {
        let mut eager = mk(p, false);
        let mut instant = mk(p, true);
        seed_history(&mut eager);
        seed_history(&mut instant);
        eager.crash_and_recover(&[N0]).unwrap();
        eager.crash_and_recover(&[N2]).unwrap();
        instant.crash_and_recover(&[N0]).unwrap();
        assert!(instant.redo_pending() > 0, "{p:?}");
        // Retire one batch, then lose another node mid-drain: the plan is
        // dropped and re-derived by the second recovery.
        instant.drain_redo(N1, 1).unwrap();
        instant.crash_and_recover(&[N2]).unwrap();
        drain_all(&mut instant, N1);
        for slot in 0..instant.record_count() as u64 {
            assert_eq!(
                eager.current_value(slot).unwrap(),
                instant.current_value(slot).unwrap(),
                "{p:?}: slot {slot} diverged after crash-mid-drain"
            );
        }
        instant.check_ifa(N1).assert_ok();
    }
}

#[test]
fn surviving_active_txn_commits_through_the_drain_window() {
    for p in ProtocolKind::ifa_protocols() {
        let mut db = mk(p, true);
        seed_history(&mut db);
        // An in-flight survivor txn holding an updated record across the
        // crash: its commit's tag clear must not bypass pending redo.
        let t = db.begin(N1).unwrap();
        db.update(t, 30, b"survivor-wip").unwrap();
        db.crash_and_recover(&[N0]).unwrap();
        db.commit(t).unwrap();
        // The committed update may itself still sit in the deferred plan
        // (non-tagging commits never touch the heap): a coherent read
        // must observe it regardless, via the on-demand hook.
        let r = db.begin(N2).unwrap();
        let got = db.read(r, 30).unwrap();
        assert_eq!(&got[..12], b"survivor-wip", "{p:?}");
        db.commit(r).unwrap();
        drain_all(&mut db, N1);
        assert_eq!(&db.current_value(30).unwrap()[..12], b"survivor-wip", "{p:?}");
        db.check_ifa(N1).assert_ok();
    }
}

#[test]
fn surviving_active_txn_aborts_through_the_drain_window() {
    for p in ProtocolKind::ifa_protocols() {
        let mut db = mk(p, true);
        let setup = db.begin(N1).unwrap();
        db.update(setup, 30, b"pre-crash").unwrap();
        db.commit(setup).unwrap();
        seed_history(&mut db);
        let t = db.begin(N1).unwrap();
        db.update(t, 30, b"wip-undone").unwrap();
        db.crash_and_recover(&[N0]).unwrap();
        db.abort(t).unwrap();
        assert_eq!(&db.current_value(30).unwrap()[..9], b"pre-crash", "{p:?}");
        drain_all(&mut db, N1);
        db.check_ifa(N1).assert_ok();
    }
}

#[test]
fn drain_refuses_crashed_nodes_and_noops_when_empty() {
    let mut db = mk(ProtocolKind::VolatileRedoAll, true);
    seed_history(&mut db);
    db.crash(&[N0]);
    db.recover().unwrap();
    assert!(matches!(db.drain_redo(N0, 8), Err(DbError::NodeDown { .. })));
    drain_all(&mut db, N1);
    assert_eq!(db.drain_redo(N1, 8).unwrap(), 0);
}

#[test]
fn instant_restart_reaches_first_txn_faster_than_eager() {
    // The availability claim at its smallest: on an identical history the
    // open point (recover() return) comes earlier in simulated time under
    // instant restart, because deferred redo cycles are not charged
    // before open. Measured with the engine's own availability timeline.
    let mut eager = mk(ProtocolKind::VolatileRedoAll, false);
    let mut instant = mk(ProtocolKind::VolatileRedoAll, true);
    for db in [&mut eager, &mut instant] {
        db.enable_observability(0);
        // Symmetric load: every node's clock advances comparably, so the
        // makespan-based timeline sees the recovery work (TTFT markers
        // are taken at max-clock; skewed load would hide it).
        for round in 0..6u64 {
            for (n, node) in [N0, N1, N2, N3].into_iter().enumerate() {
                let slot = (n as u64) * 20 + round * 3;
                let t = db.begin(node).unwrap();
                db.update(t, slot, format!("r{round}n{n}").as_bytes()).unwrap();
                db.commit(t).unwrap();
            }
        }
        db.crash_and_recover(&[N0]).unwrap();
        let t = db.begin(N1).unwrap();
        db.read(t, 0).unwrap();
        db.commit(t).unwrap();
    }
    let ttft_eager = eager
        .observability()
        .timeline
        .time_to_first_txn()
        .expect("eager timeline records a first txn");
    let ttft_instant = instant
        .observability()
        .timeline
        .time_to_first_txn()
        .expect("instant timeline records a first txn");
    assert!(
        ttft_instant < ttft_eager,
        "instant TTFT {ttft_instant} should beat eager TTFT {ttft_eager}"
    );
    drain_all(&mut instant, N1);
    eager.check_ifa(N1).assert_ok();
    instant.check_ifa(N1).assert_ok();
}

/// Without instant restart `recover` drains the plan before returning.
/// Kill the recovery node partway through that drain, recover again from
/// a fresh survivor, and the end state must still be IFA-consistent and
/// committed — including the undo of the doomed updates whose plan
/// entries the interrupted attempt never applied.
#[test]
fn crash_mid_in_recover_drain_recovers_again() {
    for p in ProtocolKind::ifa_protocols() {
        let run = |plan: Option<FaultPlan>| {
            let mut db = mk(p, false);
            seed_history(&mut db);
            seed_doomed_updates(&mut db);
            let f = FaultInjector::new();
            db.set_fault_injector(f.clone());
            db.crash(&[N0]);
            match plan {
                Some(plan) => f.arm(plan),
                None => f.start_counting(),
            }
            let result = db.recover();
            (db, f, result)
        };
        let (mut db, f, result) = run(None);
        result.unwrap();
        let drain_visits = f
            .take_visits()
            .iter()
            .find(|v| v.site == FAULT_REDO_BACKGROUND)
            .map_or(0, |v| v.nodes.len() as u64);
        assert!(drain_visits >= 2, "{p:?}: the drain visited its crash point {drain_visits}x");
        db.check_ifa(N1).assert_ok();
        assert_committed_state(&db, &format!("{p:?}"));

        // Undo entries retire first: die after the first one (slot 30's),
        // before the replicated slot 40's under Stable LBM.
        let plan = FaultPlan::single(CrashPoint::new(FAULT_REDO_BACKGROUND, 1));
        let (mut db, f, result) = run(Some(plan));
        let crash = *result.unwrap_err().fault_crash().expect("the drain crash point fired");
        assert_eq!(f.fired().len(), 1, "{p:?}");
        db.crash(&[NodeId(crash.node)]);
        db.recover().unwrap();
        assert_eq!(db.redo_pending(), 0, "{p:?}");
        let survivor = db.machine().surviving_nodes()[0];
        db.check_ifa(survivor).assert_ok();
        assert_committed_state(&db, &format!("{p:?} after a mid-drain crash"));
    }
}

/// A stolen update of a doomed transaction is undone in the stable image
/// by recovery itself, under both restart modes: the undone copy first
/// lives only in the recovery node's cache, and once the transaction is
/// settled as aborted no later recovery re-derives its undo — so losing
/// that node before any checkpoint must not resurrect the stolen value.
#[test]
fn stolen_update_stays_undone_across_a_second_crash() {
    for p in ProtocolKind::ifa_protocols() {
        for instant in [false, true] {
            let mut db = mk(p, instant);
            let t = db.begin(N0).unwrap();
            db.update(t, 30, b"committed").unwrap();
            db.commit(t).unwrap();
            db.checkpoint(N0).unwrap();
            seed_stolen_doomed_update(&mut db);
            let first = db.crash_and_recover(&[N0]).unwrap();
            assert!(first.stable_undo_patches > 0, "{p:?} instant={instant}");
            drain_all(&mut db, first.recovery_node);
            db.crash_and_recover(&[first.recovery_node]).unwrap();
            let survivor = db.machine().surviving_nodes()[0];
            drain_all(&mut db, survivor);
            assert_eq!(&db.current_value(30).unwrap()[..9], b"committed", "{p:?} {instant}");
            db.check_ifa(survivor).assert_ok();
        }
    }
}

/// Instant restart opens with the plan pending, after the doomed
/// transactions are settled as aborted — from then on no recovery
/// re-derives their undo. A doomed update whose line a survivor
/// replicated must therefore be undone before the open: losing another
/// node in the window must not leave the replica's uncommitted value.
#[test]
fn crash_in_instant_window_keeps_doomed_updates_undone() {
    for p in ProtocolKind::ifa_protocols() {
        let mut db = mk(p, true);
        seed_history(&mut db);
        seed_doomed_updates(&mut db);
        db.crash_and_recover(&[N0]).unwrap();
        assert!(db.redo_pending() > 0, "{p:?}: the window should be open");
        db.crash_and_recover(&[N1]).unwrap();
        drain_all(&mut db, N3);
        db.check_ifa(N3).assert_ok();
        assert_committed_state(&db, &format!("{p:?}"));
    }
}

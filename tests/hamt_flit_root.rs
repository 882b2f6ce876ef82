//! The HAMT's root cell is a p-word of the database's policy (`flit-hamt` ×
//! `flit`): FliT's Algorithm 4 governs the trie's one mutable word.
//!
//! 1. **Settled root, no instructions** — under flit-HT, lookups and failed
//!    updates issue no `pwb` and no `pfence`; a successful update costs
//!    exactly the publishing p-CAS's two fences and its root write-back;
//! 2. **The tagged window is honoured** — while a publisher's deferred
//!    (`Batched(k)`) store is open, another handle's lookup helps with one
//!    `pwb`; once the publisher drained, it issues nothing;
//! 3. **The policy is honoured** — `PlainPolicy` flushes on every lookup, the
//!    paper's baseline;
//! 4. **Crash sweeps** — every-event sweeps clean for every policy in both
//!    elision modes, snapshot consistency clean, and the all-volatile-root
//!    control caught under every policy (plain included: its p-loads would
//!    repair the missing write-back if the control's loads were not volatile).

use flit::{presets, CommitMode, FlightEventKind, FlitDb, Policy};
use flit_crashtest::{
    run_case, run_hamt_snapshot_case, HistorySpec, MethodKind, PolicyKind, StructureKind,
    SweepSettings,
};
use flit_datastructs::ConcurrentMap;
use flit_hamt::HamtExt;
use flit_pmem::{cache_line_of, ElisionMode, LatencyModel, SimNvram, StatsSnapshot};

fn quiet() -> SimNvram {
    SimNvram::builder().latency(LatencyModel::none()).build()
}

fn stats<P: Policy>(db: &FlitDb<P>) -> StatsSnapshot {
    db.stats_snapshot().expect("SimNvram keeps statistics")
}

#[test]
fn clean_lookups_and_failed_updates_issue_nothing_under_flit_ht() {
    let db = FlitDb::flit_ht(quiet());
    let map = db.hamt(256);
    let h = db.handle();
    for k in 0..100u64 {
        assert!(map.insert(&h, k, k + 1));
    }
    assert!(!h.is_dirty(), "a completed update leaves its handle clean");

    let before = stats(&db);
    for k in 0..200u64 {
        assert_eq!(map.get(&h, k), (k < 100).then_some(k + 1));
    }
    assert!(!map.insert(&h, 7, 0), "key present: nothing to publish");
    assert!(!map.remove(&h, 1000), "key absent: nothing to publish");
    let delta = stats(&db).delta_since(&before);
    assert_eq!((delta.pwbs, delta.pfences), (0, 0));
    assert_eq!(delta.read_side_pwbs, 0);
}

#[test]
fn a_successful_insert_costs_two_fences_and_its_root_write_back() {
    let nvram = SimNvram::for_crash_testing();
    let db = FlitDb::flit_ht(nvram.clone());
    let map = db.hamt(64);
    let h = db.handle();
    h.arm_flight_recorder();

    // Into the empty trie: one one-pair bucket to write back, then the root.
    let before = stats(&db);
    assert!(map.insert(&h, 5, 50));
    let delta = stats(&db).delta_since(&before);
    assert_eq!(delta.pwbs, 2, "the bucket and the root word");
    assert_eq!(
        delta.pfences, 2,
        "pre-publish fence + the p-CAS's trailing fence"
    );
    assert!(
        !h.is_dirty(),
        "the completion fence had nothing left to commit"
    );

    // The root write-back sits between the two fences...
    let kinds: Vec<_> = h
        .flight_events()
        .into_iter()
        .filter(|e| matches!(e.kind, FlightEventKind::Pwb | FlightEventKind::Pfence))
        .map(|e| (e.kind, e.word))
        .collect();
    let root_line = cache_line_of(map.root_cell_addr());
    assert_eq!(kinds.len(), 4);
    assert_eq!(kinds[1].0, FlightEventKind::Pfence);
    assert_eq!(kinds[2], (FlightEventKind::Pwb, root_line));
    assert_eq!(kinds[3].0, FlightEventKind::Pfence);
    // ...so the update is durable when it returns.
    let rec = map.recover(&nvram.tracker().unwrap().crash_image());
    assert_eq!(rec.sorted_pairs(), vec![(5, 50)]);
    assert!(!rec.truncated);
}

#[test]
fn a_lookup_helps_only_inside_the_publishers_tagged_window() {
    let db = FlitDb::builder(presets::flit_ht(quiet()))
        .commit_mode(CommitMode::Batched(8))
        .build();
    let map = db.hamt(64);
    let (a, b) = (db.handle(), db.handle());

    // A publishes and does not drain: its trailing fence — and with it the
    // root's untag — is deferred to A's next fence point.
    assert!(map.insert(&a, 1, 10));
    assert_eq!(a.committed_obligations(), 0);

    let before = stats(&db);
    assert_eq!(map.get(&b, 1), Some(10));
    let delta = stats(&db).delta_since(&before);
    assert_eq!(
        (delta.pwbs, delta.read_side_pwbs),
        (1, 1),
        "the helping flush"
    );
    assert_eq!(delta.pfences, 0, "batched: the fence is B's obligation");
    assert!(b.is_dirty());
    assert_eq!(b.enqueued_obligations(), 1);

    // Once A drained, the root is untagged and durable: nothing to help.
    a.flush();
    assert_eq!(a.committed_obligations(), 1);
    let before = stats(&db);
    assert_eq!(map.get(&b, 1), Some(10));
    let delta = stats(&db).delta_since(&before);
    assert_eq!((delta.pwbs, delta.pfences), (0, 0));
}

#[test]
fn contended_publishers_leave_the_root_untagged() {
    // Four writers fight over sixteen keys, so root CASes are lost and
    // lookups run inside other threads' tagged windows. Every tag must be
    // paired with its untag on both the won and the lost path: once the
    // writers are done, a lookup is free again.
    const THREADS: u64 = 4;
    let db = FlitDb::flit_ht(quiet());
    let map = db.hamt(64);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (db, map) = (&db, &map);
            s.spawn(move || {
                let h = db.handle();
                for i in 0..2_000u64 {
                    let k = (i * 7 + t) % 16;
                    if i % 2 == 0 {
                        map.insert(&h, k, i);
                    } else {
                        map.remove(&h, k);
                    }
                    map.get(&h, (k + 1) % 16);
                }
            });
        }
    });

    let h = db.handle();
    let before = stats(&db);
    for k in 0..16u64 {
        map.get(&h, k);
    }
    let delta = stats(&db).delta_since(&before);
    assert_eq!((delta.pwbs, delta.pfences), (0, 0));
}

#[test]
fn the_plain_policy_still_flushes_on_every_lookup() {
    let db = FlitDb::create(presets::plain(quiet()));
    let map = db.hamt(64);
    let h = db.handle();
    for k in 0..10u64 {
        assert!(map.insert(&h, k, k));
    }
    let before = stats(&db);
    for k in 0..50u64 {
        map.get(&h, k);
    }
    let delta = stats(&db).delta_since(&before);
    assert_eq!((delta.pwbs, delta.read_side_pwbs), (50, 50));
    assert_eq!(delta.pfences, 50, "each flush is fenced at completion");
}

fn exhaustive(elision: ElisionMode) -> SweepSettings {
    SweepSettings {
        budget: 0,
        elision,
        ..Default::default()
    }
}

/// A seeded mixed history, short enough that ten every-event sweeps fit a
/// debug-profile test run (`tests/hamt_crash.rs` sweeps the long scripted one
/// under flit-HT and plain).
const HISTORY: HistorySpec = HistorySpec::Random {
    seed: 0xf117,
    ops: 16,
    key_range: 6,
};

fn every_event_sweeps_are_clean(elision: ElisionMode) {
    let settings = exhaustive(elision);
    for policy in PolicyKind::ALL {
        let sweep = run_case(
            StructureKind::Hamt,
            MethodKind::Automatic,
            policy,
            HISTORY,
            &settings,
        )
        .expect("the HAMT supports every policy");
        let snapshot = run_hamt_snapshot_case(policy, HISTORY, &settings);
        for report in [sweep, snapshot] {
            assert!(
                report.clean(),
                "{}: first violation: {}",
                report.case.id(),
                report.violations[0]
            );
            assert_eq!(report.points_tested as u64, report.events_total + 1);
        }
    }
}

#[test]
fn every_event_sweeps_are_clean_for_every_policy_with_elision() {
    every_event_sweeps_are_clean(ElisionMode::Enabled);
}

#[test]
fn every_event_sweeps_are_clean_for_every_policy_paper_literal() {
    every_event_sweeps_are_clean(ElisionMode::Disabled);
}

#[test]
fn the_volatile_root_control_is_caught_under_every_policy() {
    for policy in PolicyKind::ALL {
        let report = run_case(
            StructureKind::Hamt,
            MethodKind::VolatileBroken,
            policy,
            HistorySpec::Scripted,
            &SweepSettings {
                budget: 64,
                ..Default::default()
            },
        )
        .expect("supported");
        assert!(
            !report.clean(),
            "HARNESS BUG: the volatile-root control swept clean ({})",
            report.case.id()
        );
    }
}

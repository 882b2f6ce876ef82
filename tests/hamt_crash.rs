//! HAMT crash-consistency (`flit-hamt` × `flit-crashtest`):
//!
//! 1. **Every-event sweeps** in both elision modes are clean — the MOD
//!    copy-on-write discipline (pwbs only along the new path, one pre-publish
//!    fence, one p-CAS on the recovery root) is durably linearizable at
//!    every persistence event, construction window included;
//! 2. **Construction-window crashes recover to empty** — an image frozen
//!    before the root cell became durable must yield the empty trie;
//! 3. **Snapshot consistency** — a snapshot taken mid-history and held across
//!    the crash replays to *exactly* its frozen contents from the persisted
//!    retained-root table, at every crash point past its completion fence;
//! 4. **The broken control fails** — `BrokenHamt` publishes and loads its
//!    root with `PFlag::Volatile` (no write-back, no helping), so its sweeps
//!    must report lost operations with complete repro strings. A control that
//!    passes means the harness can no longer see the one flush MOD's
//!    correctness hinges on.
//!
//! (`tests/hamt_flit_root.rs` covers the root word's FliT protocol itself:
//! instruction counts, the tagged window, and the sweeps under every policy.)

use flit::CommitMode;
use flit_crashtest::{
    run_case, run_hamt_snapshot_case, HistorySpec, MethodKind, PolicyKind, StructureKind,
    SweepSettings, SNAPSHOT_STRUCTURE,
};
use flit_pmem::ElisionMode;

/// The scripted history: ten inserts, interleaved removes, re-insertion over a
/// removed key, drain, then a fresh batch — it exercises split, contraction
/// and COW re-insertion, and (because inserts *accumulate*) leaves no crash
/// point where the empty trie is an admissible prefix state. That last
/// property is what gives the broken control teeth: a remove-heavy history can
/// let a structure that loses everything pass, because `state(n)` is empty for
/// some admissible `n` at every point.
const SPEC: HistorySpec = HistorySpec::Scripted;

/// A seeded random history (mixed inserts/removes/gets) for stream diversity.
const RANDOM_SPEC: HistorySpec = HistorySpec::Random {
    seed: 0x4a37,
    ops: 12,
    key_range: 6,
};

fn exhaustive(elision: ElisionMode) -> SweepSettings {
    SweepSettings {
        budget: 0,
        elision,
        ..Default::default()
    }
}

#[test]
fn every_event_sweep_is_clean_in_both_elision_modes() {
    for elision in [ElisionMode::Enabled, ElisionMode::Disabled] {
        for (policy, spec) in [
            (PolicyKind::Plain, SPEC),
            (PolicyKind::FlitHt, SPEC),
            (PolicyKind::FlitHt, RANDOM_SPEC),
        ] {
            let report = run_case(
                StructureKind::Hamt,
                MethodKind::Automatic,
                policy,
                spec,
                &exhaustive(elision),
            )
            .expect("the HAMT supports every policy");
            assert!(
                report.clean(),
                "{}: first violation: {}",
                report.case.id(),
                report.violations[0]
            );
            // The sweep covered every absolute event index, construction
            // window included — nothing was skipped.
            assert!(report.events_construction > 0);
            assert_eq!(report.points_tested as u64, report.events_total + 1);
        }
    }
}

/// The traversal-phase durability methods do not apply to the HAMT (it has its
/// own discipline); the matrix must skip them like an unsupported policy.
#[test]
fn traversal_methods_do_not_apply() {
    for method in [MethodKind::NvTraverse, MethodKind::Manual] {
        assert!(run_case(
            StructureKind::Hamt,
            method,
            PolicyKind::FlitHt,
            SPEC,
            &exhaustive(ElisionMode::Enabled),
        )
        .is_none());
    }
}

/// Pin single crash points inside the construction window: recovery must yield
/// the empty trie (the engine's construction-window check admits only that).
#[test]
fn construction_window_crashes_recover_to_empty() {
    let probe = run_case(
        StructureKind::Hamt,
        MethodKind::Automatic,
        PolicyKind::FlitHt,
        SPEC,
        &SweepSettings {
            budget: 1,
            ..Default::default()
        },
    )
    .expect("supported");
    assert!(probe.events_construction > 0);
    for k in [
        0,
        probe.events_construction / 2,
        probe.events_construction - 1,
    ] {
        let report = run_case(
            StructureKind::Hamt,
            MethodKind::Automatic,
            PolicyKind::FlitHt,
            SPEC,
            &SweepSettings {
                crash_at: Some(k),
                ..Default::default()
            },
        )
        .expect("supported");
        assert!(
            report.clean(),
            "construction-window crash at {k}: {}",
            report.violations[0]
        );
    }
}

/// The snapshot-consistency acceptance check: a snapshot taken before the crash point must
/// replay to exactly its frozen contents — under both elision modes, and under
/// a batched commit (where the weaker if-present-then-exact contract applies).
#[test]
fn snapshot_taken_before_the_crash_replays_to_its_frozen_contents() {
    for elision in [ElisionMode::Enabled, ElisionMode::Disabled] {
        let report = run_hamt_snapshot_case(PolicyKind::FlitHt, SPEC, &exhaustive(elision));
        assert!(
            report.clean(),
            "{}: first violation: {}",
            report.case.id(),
            report.violations[0]
        );
        assert_eq!(report.case.structure, SNAPSHOT_STRUCTURE);
        assert_eq!(report.points_tested as u64, report.events_total + 1);
    }
    let batched = run_hamt_snapshot_case(
        PolicyKind::Plain,
        SPEC,
        &SweepSettings {
            budget: 0,
            commit: CommitMode::Batched(4),
            ..Default::default()
        },
    );
    assert!(
        batched.clean(),
        "batched: first violation: {}",
        batched.violations[0]
    );
}

/// The in-process half of the snapshot kill harness: run the HAMT kill-child
/// workload to completion here (no fork) and verify the pool exactly as the
/// parent does after a SIGKILL — recovery walk, prefix scan, retained-root
/// table, GC idempotence. A clean run must leave the table empty; a pool
/// abandoned while a snapshot is still live must replay that snapshot to
/// exactly its frozen contents.
#[cfg(unix)]
#[test]
fn killtest_harness_verifies_hamt_pools_in_process() {
    use flit_crashtest::kill::{
        child_main_hamt, kill_history, kill_policy, verify_hamt_pool, KillHamt, KillViolation,
    };
    use flit_workload::MapOp;

    let dir = std::env::temp_dir();
    let pool = dir.join(format!("flit-hamt-kill-{}.pool", std::process::id()));
    let sidecar = dir.join(format!("flit-hamt-kill-{}.floor", std::process::id()));
    let _ = std::fs::remove_file(&pool);
    let _ = std::fs::remove_file(&sidecar);

    // Clean completion: the child drops its snapshot, so the reopened table
    // must be empty and the full 600-op prefix must match.
    for commit in [CommitMode::Immediate, CommitMode::Batched(8)] {
        child_main_hamt(&pool, &sidecar, 600, commit, 200).unwrap();
        // The child drains and acknowledges everything *before* it releases
        // the snapshot: a sidecar floor still lagging by the open batch (599
        // under batched-8) would make a kill in the exit path, right after the
        // release, look like a mid-run kill that lost its snapshot.
        let side = std::fs::read(&sidecar).unwrap();
        let floor = u64::from_le_bytes(side[..8].try_into().unwrap());
        assert_eq!(floor, 600, "{commit:?}: sidecar floor must reach ops");
        let report = verify_hamt_pool(&pool, 600, 600, 200, true).unwrap();
        assert_eq!(report.matched_prefix, 600);
        assert_eq!(report.acked_floor, 600);
    }

    // Abandoned snapshot: apply the child's history, take the snapshot at
    // op 200 and *leak* it (no release), keep mutating to op 600, then drop
    // the pool as-is. The reopened table must hold exactly one snapshot and
    // it must replay to the model state after 200 ops — the COW paths the
    // later 400 operations superseded stay pinned.
    {
        let db = flit::FlitDb::builder(kill_policy())
            .create_pool(&pool)
            .unwrap();
        let map = KillHamt::with_config(
            &db,
            600,
            flit_alloc::ArenaConfig::with_slots_per_chunk(2048),
        );
        let h = db.handle();
        for (j, op) in (1..).zip(kill_history(600)) {
            match op {
                MapOp::Insert(k, v) => assert!(map.insert(&h, k, v)),
                MapOp::Remove(k) => assert!(map.remove(&h, k)),
                MapOp::Get(_) => unreachable!("the kill history only updates"),
            }
            if j == 200 {
                std::mem::forget(map.snapshot(&h));
            }
        }
    }
    let report = verify_hamt_pool(&pool, 600, 0, 200, false).unwrap();
    assert_eq!(report.matched_prefix, 600);
    // The same pool fails verification when told the snapshot should have
    // been released — the check has teeth in both directions.
    match verify_hamt_pool(&pool, 600, 0, 200, true) {
        Err(KillViolation::Inconsistent(details)) => assert!(
            details.len() == 1 && details[0].ends_with("recovered although it was released"),
            "{details:?}"
        ),
        other => panic!("expected a snapshot that outlived its release, got {other:?}"),
    }

    let _ = std::fs::remove_file(&pool);
    let _ = std::fs::remove_file(&sidecar);
}

/// The control that must fail: a volatile root CAS makes every published
/// update volatile, and the sweep must see completed operations
/// vanish — with a complete repro string naming the hamt case.
#[test]
fn skipping_the_root_flush_is_caught_with_a_repro_string() {
    for elision in [ElisionMode::Enabled, ElisionMode::Disabled] {
        let report = run_case(
            StructureKind::Hamt,
            MethodKind::VolatileBroken,
            PolicyKind::FlitHt,
            SPEC,
            &exhaustive(elision),
        )
        .expect("supported");
        assert!(
            !report.clean(),
            "HARNESS BUG: the missing-root-flush control swept clean ({})",
            report.case.id()
        );
        let v = &report.violations[0];
        assert!(
            v.repro.contains("--structures hamt") && v.repro.contains("--crash-at"),
            "repro string must replay the hamt case: {}",
            v.repro
        );
    }
}

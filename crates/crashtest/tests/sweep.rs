//! End-to-end sweeps: every-event crash injection over the scripted histories must
//! find zero violations for the correct durability methods across every structure
//! and policy, and the deliberately broken control must fail with a repro string.

use flit_crashtest::{
    run_case, run_hamt_snapshot_case, run_matrix, HistorySpec, MethodKind, PolicyKind,
    StructureKind, SweepSettings,
};
use flit_pmem::{CommitMode, ElisionMode};

fn exhaustive() -> SweepSettings {
    SweepSettings {
        budget: 0,
        ..Default::default()
    }
}

fn budgeted(budget: usize) -> SweepSettings {
    SweepSettings {
        budget,
        ..Default::default()
    }
}

fn with_elision(settings: SweepSettings, elision: ElisionMode) -> SweepSettings {
    SweepSettings {
        elision,
        ..settings
    }
}

/// The core acceptance sweep: every structure × every correct method × flit-HT,
/// crashing at every single absolute event of the run — the construction window
/// included.
#[test]
fn scripted_every_event_sweep_is_clean_under_flit_ht() {
    let reports = run_matrix(
        &StructureKind::ALL,
        &MethodKind::CORRECT,
        &[PolicyKind::FlitHt],
        HistorySpec::Scripted,
        &exhaustive(),
    );
    // The HAMT brings its own durability discipline, so of the correct
    // methods only `Automatic` applies to it — the matrix skips the rest.
    assert_eq!(
        reports.len(),
        (StructureKind::ALL.len() - 1) * MethodKind::CORRECT.len() + 1
    );
    for report in &reports {
        assert!(
            report.clean(),
            "{}: {} violations, first: {}",
            report.case.id(),
            report.violations.len(),
            report.violations[0]
        );
        // Every absolute event (index 0 through the nothing-lost control at
        // `events_total`) was injected, construction window included.
        assert_eq!(report.points_tested as u64, report.events_total + 1);
        assert!(
            report.events_construction > 0,
            "construction generates events; the sweep must cover them"
        );
    }
}

/// Policy coverage: the remaining policies on the two list-shaped structures with a
/// budget (their event streams are the longest; semantics identical across points).
#[test]
fn scripted_sweep_is_clean_under_every_policy() {
    let reports = run_matrix(
        &[StructureKind::List, StructureKind::MsQueue],
        &[MethodKind::Automatic, MethodKind::Manual],
        &PolicyKind::ALL,
        HistorySpec::Scripted,
        &budgeted(160),
    );
    for report in &reports {
        assert!(
            report.clean(),
            "{}: first violation: {}",
            report.case.id(),
            report.violations[0]
        );
    }
}

/// Seeded random histories across the map structures and the queue.
#[test]
fn random_histories_sweep_clean() {
    for seed in [0x2a, 0xf117] {
        let spec = HistorySpec::Random {
            seed,
            ops: 48,
            key_range: 12,
        };
        let reports = run_matrix(
            &StructureKind::ALL,
            &[MethodKind::Automatic],
            &[PolicyKind::FlitHt, PolicyKind::Plain],
            spec,
            &budgeted(120),
        );
        for report in &reports {
            assert!(
                report.clean(),
                "{}: first violation: {}",
                report.case.id(),
                report.violations[0]
            );
        }
    }
}

/// The harness must be able to catch durability bugs: the all-volatile control
/// loses completed operations, and the sweep must say so with a usable repro.
#[test]
fn broken_control_fails_with_a_repro_string() {
    for structure in StructureKind::ALL {
        let report = run_case(
            structure,
            MethodKind::VolatileBroken,
            PolicyKind::FlitHt,
            HistorySpec::Scripted,
            &budgeted(40),
        )
        .expect("combination supported");
        assert!(
            !report.clean(),
            "{}: the broken control found no violations — the harness cannot catch bugs",
            report.case.id()
        );
        let v = &report.violations[0];
        assert!(
            v.repro.contains("--crash-at") && v.repro.contains("volatile-broken"),
            "repro not reproducible: {}",
            v.repro
        );
    }
}

/// Violations carry the flight-recorder tail leading into their crash point:
/// deep crash points (≥ half the ring) embed at least 32 events, each stamped
/// with the event index the crash plan counted, and the rendered report shows
/// them.
#[test]
fn violations_embed_the_flight_recorder_tail() {
    let report = run_case(
        StructureKind::List,
        MethodKind::VolatileBroken,
        PolicyKind::FlitHt,
        HistorySpec::Scripted,
        &budgeted(40),
    )
    .expect("combination supported");
    assert!(
        !report.clean(),
        "the broken control must produce violations"
    );
    let deep = report
        .violations
        .iter()
        .filter(|v| v.crash_event >= 32)
        .max_by_key(|v| v.crash_event)
        .expect("budget 40 spans crash points past event 32");
    assert!(
        deep.flight.len() >= 32,
        "a deep violation embeds at least half the ring, got {} events at crash point {}",
        deep.flight.len(),
        deep.crash_event
    );
    // The tail ends at (or just before) the crash point, in order.
    for (a, b) in deep.flight.iter().zip(deep.flight.iter().skip(1)) {
        assert_eq!(b.index, a.index + 1, "flight tail is contiguous");
    }
    let rendered = deep.to_string();
    assert!(
        rendered.contains("flight recorder ("),
        "the rendered violation shows the flight tail: {rendered}"
    );
}

/// Repro mode: re-running a single crash point from a violation's coordinates
/// reproduces exactly that violation.
#[test]
fn single_crash_point_repro_reproduces_the_violation() {
    let sweep = run_case(
        StructureKind::List,
        MethodKind::VolatileBroken,
        PolicyKind::FlitHt,
        HistorySpec::Scripted,
        &budgeted(25),
    )
    .unwrap();
    let first = &sweep.violations[0];
    let repro = run_case(
        StructureKind::List,
        MethodKind::VolatileBroken,
        PolicyKind::FlitHt,
        HistorySpec::Scripted,
        &SweepSettings {
            crash_at: Some(first.crash_event),
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(repro.points_tested, 1);
    assert_eq!(repro.violations.len(), 1);
    assert_eq!(repro.violations[0].crash_event, first.crash_event);
    assert_eq!(repro.violations[0].detail, first.detail);
}

/// The elision dimension: the default sweeps above already exercise the elided
/// instruction stream (it is the default); this sweep pins the *paper-literal*
/// stream and must be equally clean, and the two streams must actually differ
/// (the literal one carries the fence events elision removes).
#[test]
fn literal_stream_sweeps_clean_and_differs_from_elided() {
    let structures = [StructureKind::List, StructureKind::MsQueue];
    let literal = run_matrix(
        &structures,
        &[MethodKind::Automatic],
        &[PolicyKind::FlitHt],
        HistorySpec::Scripted,
        &with_elision(exhaustive(), ElisionMode::Disabled),
    );
    let elided = run_matrix(
        &structures,
        &[MethodKind::Automatic],
        &[PolicyKind::FlitHt],
        HistorySpec::Scripted,
        &exhaustive(),
    );
    for (lit, eli) in literal.iter().zip(&elided) {
        assert!(
            lit.clean(),
            "{}: first violation: {}",
            lit.case.id(),
            lit.violations[0]
        );
        assert!(eli.clean(), "{}: not clean", eli.case.id());
        assert!(lit.case.id().contains("elision-off"));
        assert!(eli.case.id().contains("elision-on"));
        let lit_span = lit.events_total - lit.events_construction;
        let eli_span = eli.events_total - eli.events_construction;
        assert!(
            eli_span < lit_span,
            "{}: elision must shrink the event span ({eli_span} vs {lit_span})",
            eli.case.id()
        );
    }
}

/// The group-commit dimension: every structure swept under `Batched(4)` must be
/// clean under the weaker acked-floor contract — acknowledged operations
/// survive every crash, the unacknowledged tail recovers to a consistent prefix.
#[test]
fn batched_commit_sweeps_clean_for_every_structure() {
    let reports = run_matrix(
        &StructureKind::ALL,
        &MethodKind::CORRECT,
        &[PolicyKind::FlitHt],
        HistorySpec::Scripted,
        &SweepSettings {
            budget: 120,
            commit: CommitMode::Batched(4),
            ..Default::default()
        },
    );
    // As above: the HAMT supports only `Automatic` of the correct methods.
    assert_eq!(
        reports.len(),
        (StructureKind::ALL.len() - 1) * MethodKind::CORRECT.len() + 1
    );
    for report in &reports {
        assert!(
            report.clean(),
            "{}: {} violations, first: {}",
            report.case.id(),
            report.violations.len(),
            report.violations[0]
        );
        assert!(report.case.id().contains("commit-batched-4"));
    }
}

/// The batched contract's own broken control: acknowledging obligations *without*
/// fencing claims durability for operations whose writes are still pending, and an
/// every-event sweep must catch the lie for every structure.
#[test]
fn acknowledge_before_fence_control_fails_for_every_structure() {
    let spec = HistorySpec::Random {
        seed: 0x2a,
        ops: 24,
        key_range: 8,
    };
    for structure in StructureKind::ALL {
        let report = run_case(
            structure,
            MethodKind::Automatic,
            PolicyKind::FlitHt,
            spec,
            &SweepSettings {
                commit: CommitMode::Batched(8),
                broken_acks: true,
                ..Default::default()
            },
        )
        .expect("combination supported");
        assert!(
            !report.clean(),
            "{}: acknowledge-before-fence swept clean — the acked-floor check is toothless",
            report.case.id()
        );
        let v = &report.violations[0];
        assert!(
            v.repro.contains("--broken-acks") && v.repro.contains("--commit batched-8"),
            "repro not reproducible: {}",
            v.repro
        );
    }
}

/// The broken control must keep failing under the elided instruction stream: fewer
/// fence events must not blind the harness to lost operations.
#[test]
fn broken_control_still_fails_with_elision_on() {
    for elision in [ElisionMode::Enabled, ElisionMode::Disabled] {
        let report = run_case(
            StructureKind::List,
            MethodKind::VolatileBroken,
            PolicyKind::FlitHt,
            HistorySpec::Scripted,
            &with_elision(budgeted(40), elision),
        )
        .expect("combination supported");
        assert!(
            !report.clean(),
            "{}: broken control swept clean",
            report.case.id()
        );
        assert!(report.violations[0]
            .repro
            .contains(&format!("--elision {}", elision.name())));
    }
}

/// The snapshot sweep rides the same driver as every other subject, so it
/// compares each live `insert`/`remove`/`get` return value with the sequential
/// model (its own replay loop used to discard them). The history below makes
/// that comparison non-trivial — it contains failing inserts, failing removes,
/// hits and misses — and the sweep must report no `live-run` violation for it,
/// under either commit mode. (That a diverging return value *is* reported, by
/// any subject, is proven on the toy subject in `engine.rs`.)
#[test]
fn snapshot_sweep_checks_live_return_values_against_the_model() {
    use flit_workload::MapOp;
    let spec = HistorySpec::Random {
        seed: 0x11fe,
        ops: 40,
        key_range: 5,
    };
    let mut model = std::collections::BTreeMap::new();
    let mut outcomes = std::collections::BTreeSet::new();
    for op in spec.map_history() {
        outcomes.insert(match op {
            MapOp::Insert(k, v) => ("insert", model.insert(k, v).is_none()),
            MapOp::Remove(k) => ("remove", model.remove(&k).is_some()),
            MapOp::Get(k) => ("get", model.contains_key(&k)),
        });
    }
    assert_eq!(outcomes.len(), 6, "every operation both succeeds and fails");
    for commit in [CommitMode::Immediate, CommitMode::Batched(4)] {
        let report = run_hamt_snapshot_case(
            PolicyKind::FlitHt,
            spec,
            &SweepSettings {
                budget: 64,
                commit,
                ..Default::default()
            },
        );
        assert!(
            report.clean(),
            "{}: first violation: {}",
            report.case.id(),
            report.violations[0]
        );
        assert!(report.points_tested > 1);
    }
}

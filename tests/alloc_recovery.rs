//! Arena-recovery invariants (`flit-alloc` × `flit-crashtest`):
//!
//! 1. **Construction-window sweeps** — crash at *every* event during construction
//!    of each structure recovers to a consistent prefix (the empty structure),
//!    purely from the frozen image + the arena's recovery-root table;
//! 2. **Absolute-index stability** — two identical runs produce byte-identical
//!    event spans and repro strings, because arena slots make every flush's
//!    cache-line count layout-independent;
//! 3. **Image-only recovery** — recovery works from the arena + image alone, with
//!    the structure's root absent (mid-construction) yielding the empty state and
//!    the arena header reachable at every point, and it needs no more thread
//!    stack for a deep tree than for a shallow one.

use flit::{FlitDb, FlitPolicy, HashedScheme};
use flit_crashtest::{run_case, HistorySpec, MethodKind, PolicyKind, StructureKind, SweepSettings};
use flit_datastructs::{Automatic, ConcurrentMap, HarrisList, NatarajanTree, RecoverInImage};
use flit_pmem::{CrashPlan, ElisionMode, SimNvram};

type HtPolicy = FlitPolicy<HashedScheme, SimNvram>;

/// A short seeded history: enough churn to cross every state transition, short
/// enough that an every-event sweep (construction included) stays fast.
const SPEC: HistorySpec = HistorySpec::Random {
    seed: 0xa110c,
    ops: 6,
    key_range: 4,
};

fn exhaustive() -> SweepSettings {
    SweepSettings {
        budget: 0,
        ..Default::default()
    }
}

/// Crash at every event — construction window included — for every structure:
/// zero violations, and the sweep demonstrably covered the construction window.
#[test]
fn construction_window_sweep_is_clean_for_every_structure() {
    for structure in StructureKind::ALL {
        let report = run_case(
            structure,
            MethodKind::Automatic,
            PolicyKind::FlitHt,
            SPEC,
            &exhaustive(),
        )
        .expect("supported combination");
        assert!(
            report.clean(),
            "{}: first violation: {}",
            report.case.id(),
            report.violations[0]
        );
        assert!(
            report.events_construction > 0,
            "{}: construction generates persistence events (arena header, roots, sentinels)",
            report.case.id()
        );
        // Every absolute index 0..=total was injected: the construction window
        // (0..events_construction) is part of the sweep, not skipped.
        assert_eq!(report.points_tested as u64, report.events_total + 1);
    }
}

/// Two identical runs of one seeded case must agree byte-for-byte: same event
/// span, same construction count, and identical repro strings for every tested
/// crash index. This is the property that makes repro strings portable across
/// runs and machines (ROADMAP "event-stream stability", closed by arena
/// allocation).
#[test]
fn identical_runs_produce_byte_identical_repro_strings() {
    let run = || {
        let report = run_case(
            StructureKind::List,
            MethodKind::Automatic,
            PolicyKind::FlitHt,
            SPEC,
            &exhaustive(),
        )
        .expect("supported combination");
        assert!(report.clean(), "first violation: {}", report.violations[0]);
        // Render the complete repro-string set of this sweep.
        let repros: Vec<String> = (0..=report.events_total)
            .map(|k| report.case.repro(k))
            .collect();
        (
            report.events_construction,
            report.events_total,
            report.points_tested,
            repros.join("\n"),
        )
    };
    let (constr_a, total_a, points_a, repros_a) = run();
    let (constr_b, total_b, points_b, repros_b) = run();
    assert_eq!(constr_a, constr_b, "construction event count drifted");
    assert_eq!(total_a, total_b, "total event count drifted");
    assert_eq!(points_a, points_b);
    assert_eq!(repros_a, repros_b, "repro strings are not byte-identical");
}

/// Stability across structures and the paper-literal stream too: the absolute
/// event span of every (structure, elision) combination is a pure function of the
/// case, not of allocator layout.
#[test]
fn event_spans_are_stable_for_every_structure_and_stream() {
    for structure in StructureKind::ALL {
        for elision in [ElisionMode::Enabled, ElisionMode::Disabled] {
            let settings = SweepSettings {
                budget: 1, // spans come from the counting pass; one point suffices
                elision,
                ..Default::default()
            };
            let spans = |_: ()| {
                let r = run_case(
                    structure,
                    MethodKind::Automatic,
                    PolicyKind::FlitHt,
                    SPEC,
                    &settings,
                )
                .expect("supported combination");
                (r.events_construction, r.events_total)
            };
            assert_eq!(
                spans(()),
                spans(()),
                "{}/elision-{} span drifted between runs",
                structure.name(),
                elision.name()
            );
        }
    }
}

/// Direct image-only recovery through a mid-construction crash: the frozen image
/// holds a valid arena header (reachable from offset 0) but no recovery root yet,
/// so recovery yields the empty structure — the exact contract the engine's
/// construction-window check relies on.
#[test]
fn mid_construction_image_recovers_to_the_empty_structure() {
    // Crash three events into construction: the arena header is being written.
    let plan = CrashPlan::armed_at(3);
    let nvram = SimNvram::for_crash_testing_with_plan(plan.clone());
    let db = FlitDb::flit_ht(nvram.clone());
    let list: HarrisList<HtPolicy, Automatic> = HarrisList::new(&db);
    assert!(plan.triggered(), "construction generates > 3 events");
    let image = plan.crash_image().expect("image frozen mid-construction");

    let rec = HarrisList::<HtPolicy, Automatic>::recover_arena_image(list.arena(), &image);
    assert!(rec.pairs.is_empty(), "nothing durable yet: empty list");
    assert!(!rec.truncated, "an absent root is not a truncation");

    // After the run the full construction is durable: the header is initialised
    // and the root resolves in the final image.
    let final_image = nvram.tracker().unwrap().crash_image();
    assert!(list.arena().image_header(&final_image).initialised);
    let rec = HarrisList::<HtPolicy, Automatic>::recover_arena_image(list.arena(), &final_image);
    assert!(rec.pairs.is_empty() && !rec.truncated);

    // And a populated list recovers image-only, no live reads.
    let h = db.handle();
    assert!(list.insert(&h, 9, 90));
    assert!(list.insert(&h, 2, 20));
    let image = nvram.tracker().unwrap().crash_image();
    let rec = HarrisList::<HtPolicy, Automatic>::recover_arena_image(list.arena(), &image);
    assert_eq!(rec.sorted_pairs(), vec![(2, 20), (9, 90)]);
}

/// A tree built from descending keys is a left spine as deep as it is large.
/// Recovery descends it with an explicit stack, so 2 000 keys recover on a
/// 64 KiB thread stack, in key order; a recursive descent overflows that stack
/// and aborts the process, in debug and release builds alike.
#[test]
fn a_deep_bst_recovers_on_a_small_stack() {
    const KEYS: u64 = 2_000;
    let nvram = SimNvram::for_crash_testing();
    let db = FlitDb::flit_ht(nvram.clone());
    let tree: NatarajanTree<HtPolicy, Automatic> = NatarajanTree::new(&db);
    let h = db.handle();
    for k in (1..=KEYS).rev() {
        assert!(tree.insert(&h, k, k + 1));
    }
    let image = nvram.tracker().unwrap().crash_image();
    let rec = std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(64 * 1024)
            .spawn_scoped(s, || {
                NatarajanTree::<HtPolicy, Automatic>::recover_arena_image(tree.arena(), &image)
            })
            .expect("spawn the small-stack recovery thread")
            .join()
            .expect("recovery thread panicked")
    });
    assert!(!rec.truncated);
    let expected: Vec<(u64, u64)> = (1..=KEYS).map(|k| (k, k + 1)).collect();
    assert_eq!(rec.pairs, expected, "in-order walk, no pair lost");
}

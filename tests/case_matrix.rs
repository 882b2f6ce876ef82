//! The case matrix's key space, pinned: the keys round-trip, the
//! applicability rule admits exactly the subjects the ledger and the sweeps
//! run, every one of them resolves and runs, and the ledger's labels keep
//! their spellings.

use flit_bench::LedgerRow;
use flit_crashtest::{run_case, HistorySpec, SweepSettings};
use flit_datastructs::Durability;
use flit_pmem::CommitMode;
use flit_workload::{
    applicable, MethodKind, PolicyKind, StructureKind, Subject, VolatileStores, FLIT_HT_SWEEP_BYTES,
};

#[test]
fn keys_parse_and_round_trip() {
    for s in StructureKind::ALL {
        assert_eq!(StructureKind::parse(s.key()), Some(s));
    }
    for p in PolicyKind::ALL {
        assert_eq!(PolicyKind::parse(p.key()), Some(p));
    }
    for m in MethodKind::ALL {
        assert_eq!(MethodKind::parse(m.key()), Some(m));
    }
    assert_eq!(StructureKind::parse("nope"), None);
    assert_eq!(PolicyKind::FlitHt.key(), "flit-ht");
    assert_eq!(PolicyKind::LinkPersist.key(), "link-persist");
}

#[test]
fn ledger_labels_keep_their_spellings() {
    assert_eq!(PolicyKind::FlitHt.label(1 << 20), "flit-HT (1MB)");
    assert_eq!(PolicyKind::FlitHt.label(64 << 10), "flit-HT (64KB)");
    assert_eq!(PolicyKind::LinkPersist.label(1 << 20), "link-and-persist");
    assert_eq!(PolicyKind::FlitAdjacent.label(64), "flit-adjacent");
    let row = |structure| {
        let subject = Subject::new(structure, MethodKind::Automatic, PolicyKind::Plain);
        LedgerRow::measure(subject, 1 << 20, CommitMode::Immediate, 64, 20, 100).unwrap()
    };
    assert_eq!(row(StructureKind::List).durability(), "automatic");
    assert_eq!(row(StructureKind::Hamt).durability(), "cow");
}

#[test]
fn bst_cannot_run_link_and_persist() {
    assert!(!applicable(
        StructureKind::Bst,
        MethodKind::Automatic,
        PolicyKind::LinkPersist
    ));
    assert!(applicable(
        StructureKind::List,
        MethodKind::Automatic,
        PolicyKind::LinkPersist
    ));
    assert!(run_case(
        StructureKind::Bst,
        MethodKind::Automatic,
        PolicyKind::LinkPersist,
        HistorySpec::Scripted,
        &SweepSettings::default(),
    )
    .is_none());
}

#[test]
fn hamt_skips_traversal_phase_methods() {
    for method in [MethodKind::NvTraverse, MethodKind::Manual] {
        assert!(!applicable(StructureKind::Hamt, method, PolicyKind::Plain));
        assert!(run_case(
            StructureKind::Hamt,
            method,
            PolicyKind::Plain,
            HistorySpec::Scripted,
            &SweepSettings::default(),
        )
        .is_none());
        let subject = Subject::new(StructureKind::Hamt, method, PolicyKind::FlitHt);
        let row = LedgerRow::measure(subject, 1 << 20, CommitMode::Immediate, 64, 20, 100);
        assert!(row.is_none(), "both sides answer None for {subject:?}");
    }
}

#[test]
fn broken_method_is_flagged_as_expecting_violations() {
    assert!(MethodKind::VolatileBroken.expects_violations());
    for m in MethodKind::CORRECT {
        assert!(!m.expects_violations());
    }
}

#[test]
fn volatile_stores_persists_nothing() {
    assert!(VolatileStores::TRAVERSAL_LOAD.is_volatile());
    assert!(VolatileStores::CRITICAL_LOAD.is_volatile());
    assert!(VolatileStores::STORE.is_volatile());
    assert!(VolatileStores::INDEX_STORE.is_volatile());
    assert_eq!(VolatileStores::TRANSITION_DEPTH, 0);
}

/// The subjects the sweeps admit: 106, 77 with a correct method and 29
/// controls. The ledger measures the 62 correct map subjects
/// (`tests/paper_ledger.rs` checks it measures exactly those) and the queue
/// under two methods.
#[test]
fn the_key_space_has_106_subjects() {
    let all: Vec<Subject> = Subject::all().collect();
    let correct = |s: &&Subject| !s.method.expects_violations();
    let queue = |s: &&Subject| s.structure == StructureKind::MsQueue;
    assert_eq!(all.len(), 106);
    assert_eq!(all.iter().filter(correct).count(), 77);
    assert_eq!(all.iter().filter(|s| !correct(s)).count(), 29);
    assert_eq!(all.iter().filter(correct).filter(queue).count(), 15);
    let product = StructureKind::ALL.len() * MethodKind::ALL.len() * PolicyKind::ALL.len();
    let mut applicable_count = 0;
    for structure in StructureKind::ALL {
        for method in MethodKind::ALL {
            for policy in PolicyKind::ALL {
                applicable_count += usize::from(applicable(structure, method, policy));
            }
        }
    }
    assert_eq!((product, applicable_count), (120, 106));

    let ledger_maps = all.iter().filter(correct).filter(|s| !queue(s)).count();
    assert_eq!(ledger_maps, 77 - 15);
}

/// Every applicable subject resolves to a type pair and runs the ledger's
/// single-handle workload; every correct one fences.
#[test]
fn every_combination_runs() {
    for subject in Subject::all() {
        let row = LedgerRow::measure(
            subject,
            FLIT_HT_SWEEP_BYTES,
            CommitMode::Immediate,
            128,
            20,
            400,
        )
        .expect("Subject::all yields applicable subjects");
        assert_eq!(row.ops, 400, "{subject:?}");
        if !subject.method.expects_violations() {
            assert!(row.pfences > 0, "{subject:?}");
        }
    }
}

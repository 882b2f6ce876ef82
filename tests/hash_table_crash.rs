//! Crash-recovery coverage for the hash table — previously the only map without a
//! dedicated crash test. The table is the structurally interesting case for
//! recovery: its abstract state is the union of 64+ Harris-list buckets, each a
//! word of one persisted directory whose chain ends at the table's one shared
//! tail, and all sharing the database's EBR collector, so a single crash image
//! must reconstruct *every* bucket consistently.

use flit::{FlitDb, FlitPolicy, HashedScheme};
use flit_crashtest::{run_case, HistorySpec, MethodKind, PolicyKind, StructureKind, SweepSettings};
use flit_datastructs::{Automatic, ConcurrentMap, HashTable};
use flit_pmem::SimNvram;

type HtPolicy = FlitPolicy<HashedScheme, SimNvram>;

/// Direct recovery at quiescence: after a mixed insert/remove run, the recovered
/// pairs must equal the table's live contents exactly.
#[test]
fn quiescent_crash_image_recovers_the_exact_table() {
    let nvram = SimNvram::for_crash_testing();
    let db = FlitDb::flit_ht(nvram.clone());
    let h = db.handle();
    let table: HashTable<HtPolicy, Automatic> = HashTable::new(&db, 64);

    for k in 0..100u64 {
        assert!(table.insert(&h, k, 1000 + k));
    }
    for k in (0..100u64).step_by(3) {
        assert!(table.remove(&h, k));
    }
    // Re-insert over a removed key with a fresh value.
    assert!(table.insert(&h, 3, 7777));

    let image = nvram.tracker().unwrap().crash_image();
    // Image-only: recovery needs nothing from the live structure but its arena.
    let recovered = table.recover(&image);
    assert!(
        !recovered.truncated,
        "every bucket walk must stay persisted"
    );

    let expected: Vec<(u64, u64)> = (0..100u64)
        .filter(|k| k % 3 != 0 || *k == 3)
        .map(|k| (k, if k == 3 { 7777 } else { 1000 + k }))
        .collect();
    assert_eq!(recovered.sorted_pairs(), expected);
    assert_eq!(recovered.pairs.len(), table.len());
}

/// The sweep: crash at every persistence event of the scripted history, under all
/// three correct durability methods. The recovered union-of-buckets must be a
/// prefix-consistent linearization at every point.
#[test]
fn hash_table_survives_a_crash_at_every_event() {
    for method in MethodKind::CORRECT {
        let report = run_case(
            StructureKind::HashTable,
            method,
            PolicyKind::FlitHt,
            HistorySpec::Scripted,
            &SweepSettings {
                budget: 0,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            report.clean(),
            "{}: first violation: {}",
            report.case.id(),
            report.violations[0]
        );
    }
}

/// Seeded random histories under a budget, across two policies (the plain
/// transformation is the slowest but also the most conservatively persisted).
#[test]
fn random_histories_recover_under_plain_and_flit() {
    for policy in [PolicyKind::Plain, PolicyKind::FlitHt] {
        let report = run_case(
            StructureKind::HashTable,
            MethodKind::NvTraverse,
            policy,
            HistorySpec::Random {
                seed: 0xbeef,
                ops: 48,
                key_range: 24,
            },
            &SweepSettings {
                budget: 100,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            report.clean(),
            "{}: first violation: {}",
            report.case.id(),
            report.violations[0]
        );
    }
}

/// The broken all-volatile control through the hash table specifically: losing
/// completed inserts across bucket boundaries must be detected.
#[test]
fn broken_durability_is_caught_on_the_hash_table() {
    let report = run_case(
        StructureKind::HashTable,
        MethodKind::VolatileBroken,
        PolicyKind::FlitHt,
        HistorySpec::Scripted,
        &SweepSettings {
            budget: 30,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(
        !report.clean(),
        "the volatile-broken control must produce durability violations"
    );
    assert!(report.violations[0]
        .repro
        .contains("--structures hashtable"));
}

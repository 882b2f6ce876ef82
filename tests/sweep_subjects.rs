//! Tier-1 umbrella over `flit-crashtest`'s one sweep driver: every subject it
//! sweeps — map, queue, HAMT, HAMT snapshot, one shard of a service — runs once
//! at a budget of eight crash points and must be clean, and each subject's
//! must-fail control must be caught by the same eight points. The exhaustive
//! versions live next to the subjects (`tests/*_crash.rs`,
//! `crates/crashtest/tests`, `crates/server/tests`); this file only proves
//! that plain `cargo test` at the root still drives all of them.

use flit::{presets, CommitMode, FlitPolicy, HashedScheme};
use flit_crashtest::{
    run_case, run_hamt_snapshot_case, sweep_hamt_snapshot, sweep_server_crash, CaseMeta,
    HistorySpec, MethodKind, PolicyKind, StructureKind, SweepSettings, VolatileStores,
    SNAPSHOT_STRUCTURE,
};
use flit_datastructs::{Automatic, HashTable};
use flit_pmem::{LatencyModel, SimNvram};

type P = FlitPolicy<HashedScheme, SimNvram>;

const SPEC: HistorySpec = HistorySpec::Random {
    seed: 0x5b,
    ops: 24,
    key_range: 8,
};

fn budget8() -> SweepSettings {
    SweepSettings {
        budget: 8,
        ..Default::default()
    }
}

/// `(violations, points tested)` of one structure × method case under flit-HT.
fn case(structure: StructureKind, method: MethodKind) -> (usize, usize) {
    let report = run_case(structure, method, PolicyKind::FlitHt, SPEC, &budget8())
        .expect("flit-HT supports every structure");
    (report.violations.len(), report.points_tested)
}

/// The snapshot sweep's control: a policy that persists to a device other
/// than the one being crashed, so nothing — the retained-root entry
/// included — is ever durable where recovery looks.
fn snapshot_on_the_wrong_device() -> (usize, usize) {
    let history = SPEC.map_history();
    let report = sweep_hamt_snapshot(
        CaseMeta {
            structure: SNAPSHOT_STRUCTURE,
            method: "automatic",
            policy: "flit-ht",
            history: SPEC,
            elision: Default::default(),
            commit: CommitMode::Immediate,
            broken_acks: false,
        },
        |_crashed| {
            let elsewhere = SimNvram::builder().latency(LatencyModel::none()).build();
            presets::flit_ht_sized(elsewhere, 1 << 12)
        },
        &history,
        history.len() / 3,
        &budget8(),
    );
    (report.violations.len(), report.points_tested)
}

/// One shard of a two-shard service, under `settings`, with durability `D`.
fn service<D: flit_datastructs::Durability>(settings: SweepSettings) -> (usize, usize) {
    let report = sweep_server_crash::<P, HashTable<P, D>, _>(
        D::NAME,
        |b| presets::flit_ht_sized(b, 1 << 12),
        2,
        0,
        &SPEC.map_history(),
        &settings,
    );
    assert!(report.requests_crashed_shard > 0 && report.requests_crashed_shard < 24);
    (report.violations.len(), report.points_tested)
}

#[test]
fn every_subject_sweeps_clean_and_every_control_is_caught() {
    use MethodKind::{Automatic as Good, VolatileBroken as Broken};
    type Sweep = Box<dyn Fn() -> (usize, usize)>;
    let unfenced_acks = SweepSettings {
        commit: CommitMode::Batched(8),
        broken_acks: true,
        ..budget8()
    };
    let table: Vec<(&str, bool, Sweep)> = vec![
        (
            "map",
            true,
            Box::new(|| case(StructureKind::HashTable, Good)),
        ),
        (
            "map control",
            false,
            Box::new(|| case(StructureKind::HashTable, Broken)),
        ),
        (
            "queue",
            true,
            Box::new(|| case(StructureKind::MsQueue, Good)),
        ),
        (
            "queue control",
            false,
            Box::new(|| case(StructureKind::MsQueue, Broken)),
        ),
        ("hamt", true, Box::new(|| case(StructureKind::Hamt, Good))),
        (
            "hamt control",
            false,
            Box::new(|| case(StructureKind::Hamt, Broken)),
        ),
        (
            "hamt-snapshot",
            true,
            Box::new(|| {
                let report = run_hamt_snapshot_case(PolicyKind::FlitHt, SPEC, &budget8());
                (report.violations.len(), report.points_tested)
            }),
        ),
        (
            "hamt-snapshot control",
            false,
            Box::new(snapshot_on_the_wrong_device),
        ),
        ("server", true, Box::new(|| service::<Automatic>(budget8()))),
        (
            "server control",
            false,
            Box::new(|| service::<VolatileStores>(budget8())),
        ),
        (
            "server unfenced acks",
            false,
            Box::new(move || service::<Automatic>(unfenced_acks)),
        ),
    ];
    for (name, clean, sweep) in table {
        let (violations, points) = sweep();
        assert!((1..=8).contains(&points), "{name}: {points} points");
        assert_eq!(
            violations == 0,
            clean,
            "{name}: {violations} violations over {points} points"
        );
    }
}

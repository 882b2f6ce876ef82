//! The crash half of the correctness gate: once per run, a 48-point crash
//! sweep of the workload's structure, which must be clean, and the same sweep
//! over its deliberately broken control, which must be caught. Numbers from a
//! run whose structure loses acknowledged operations mean nothing.

use flit::presets;
use flit_crashtest::{
    run_case, sweep_server_crash, HistorySpec, MethodKind, PolicyKind, StructureKind,
    SweepSettings, VolatileStores,
};
use flit_datastructs::HashTable;
use flit_pmem::SimNvram;
use flit_workload::random_map_history;

use crate::spec::{Subject, SWEEP_CONTROL_POINTS, SWEEP_POINTS};
use crate::subjects::{Ht, P, SERVICE_FLIT_HT_BYTES, SHARDS};

/// Operations and key range of the swept history.
const SWEEP_OPS: usize = 60;
const SWEEP_KEYS: u64 = 24;

/// Outcome of the gate: two checks (clean sweep, caught control).
pub struct Gate {
    /// Checks made.
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
    /// One line per sweep for the report.
    pub lines: Vec<String>,
}

fn settings(budget: usize) -> SweepSettings {
    SweepSettings {
        budget,
        ..SweepSettings::default()
    }
}

/// Sweep `subject`'s structure with a history drawn from `seed`.
pub fn crash_gate(subject: Subject, seed: u64) -> Gate {
    let (clean, caught, lines) = match subject {
        Subject::HashTable => map_sweeps(StructureKind::HashTable, seed),
        Subject::Hamt => map_sweeps(StructureKind::Hamt, seed),
        Subject::KvService => service_sweeps(seed),
    };
    Gate {
        attempted: 2,
        failed: u64::from(!clean) + u64::from(!caught),
        lines,
    }
}

fn map_sweeps(structure: StructureKind, seed: u64) -> (bool, bool, Vec<String>) {
    let history = HistorySpec::Random {
        seed,
        ops: SWEEP_OPS,
        key_range: SWEEP_KEYS,
    };
    let sweep = |method, budget| {
        run_case(
            structure,
            method,
            PolicyKind::FlitHt,
            history,
            &settings(budget),
        )
        .expect("flit-HT supports every structure")
    };
    let good = sweep(MethodKind::Automatic, SWEEP_POINTS);
    let broken = sweep(MethodKind::VolatileBroken, SWEEP_CONTROL_POINTS);
    (
        good.clean() && good.points_tested > 0,
        !broken.clean(),
        vec![good.summary_line(), broken.summary_line()],
    )
}

fn service_sweeps(seed: u64) -> (bool, bool, Vec<String>) {
    let history = random_map_history(seed, SWEEP_OPS, SWEEP_KEYS);
    let factory = |b: SimNvram| presets::flit_ht_sized(b, SERVICE_FLIT_HT_BYTES);
    let good = sweep_server_crash::<P, Ht, _>(
        "flit-ht",
        factory,
        SHARDS,
        0,
        &history,
        &settings(SWEEP_POINTS),
    );
    let broken = sweep_server_crash::<P, HashTable<P, VolatileStores>, _>(
        "volatile-broken",
        factory,
        SHARDS,
        0,
        &history,
        &settings(SWEEP_CONTROL_POINTS),
    );
    (
        good.clean() && good.points_tested > 0,
        !broken.clean(),
        vec![good.summary(), broken.summary()],
    )
}

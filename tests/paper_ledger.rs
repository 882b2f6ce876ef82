//! The paper's evaluation as asserted counts: every claim of
//! `flit_bench::experiments::ledger` must hold, and the ledger must measure the
//! same numbers twice.
//!
//! The claims are defined once, in `flit-bench`; `repro -- ledger` prints the
//! same rows and verdicts at the quick scale. Each row is one handle on its own
//! database with a fixed seed and no modelled latency, so its `pwb`/`pfence`
//! counts are exact. The scale below keeps a debug build of this file within
//! a few seconds.

use std::sync::OnceLock;

use flit_bench::{ledger, Ledger, Scale};
use flit_pmem::CommitMode;

const SCALE: Scale = Scale {
    threads: 1,
    ops_per_thread: 2_000,
    small_keys: 1_000,
    large_keys: 1_000,
    list_small_keys: 128,
};

fn measured() -> &'static Ledger {
    static LEDGER: OnceLock<Ledger> = OnceLock::new();
    LEDGER.get_or_init(|| ledger(&SCALE))
}

#[test]
fn every_claim_of_the_paper_holds() {
    let broken: Vec<String> = measured()
        .claims()
        .into_iter()
        .filter(|c| !c.broken.is_empty())
        .map(|c| {
            format!(
                "[{}] {}:\n  {}",
                c.figure,
                c.statement,
                c.broken.join("\n  ")
            )
        })
        .collect();
    assert!(broken.is_empty(), "broken claims:\n{}", broken.join("\n"));
}

/// A single-handle `Immediate` run issues the same instruction stream every
/// time, so its row is bit-identical across runs. (`Batched` rows read tagged
/// words through the hashed counter table, whose collisions depend on
/// addresses; their claim is a direction only.)
#[test]
fn immediate_rows_are_bit_identical_across_runs() {
    let again = ledger(&SCALE);
    let first = measured();
    assert_eq!(first.rows.len(), again.rows.len());
    for (a, b) in first.rows.iter().zip(&again.rows) {
        if a.commit == CommitMode::Immediate {
            assert_eq!(a, b, "{} drifted between runs", a.label());
        }
    }
}

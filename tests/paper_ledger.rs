//! The paper's evaluation as asserted counts: every claim of
//! `flit_bench::experiments::ledger` must hold, and the ledger must measure the
//! same numbers twice.
//!
//! The claims are defined once, in `flit-bench`; `repro` prints the same rows
//! and verdicts at its own scale and commits them as `BENCH_flit.json` and
//! `BENCH_server.json`. Each row is one handle (one worker on the request path)
//! on its own database with a fixed seed and no modelled latency, so its
//! `pwb`/`pfence` counts are exact. The scale below keeps a debug build of this
//! file within a few seconds; its large key range is above the small one, so
//! the depth claim compares two trie depths.

use std::sync::OnceLock;

use flit_bench::{ledger, Counts, Ledger, RequestRow, Scale};
use flit_pmem::CommitMode;
use flit_workload::{StructureKind, Subject};

const SCALE: Scale = Scale {
    ops: 2_000,
    small_keys: 1_000,
    large_keys: 8_000,
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
/// time, so its row — and every `Immediate` request-path row — is
/// bit-identical across runs.
///
/// A `Batched` map row's pfences are asserted too, but not its pwbs. A batch
/// leaves words tagged across operations, and whether a later p-load meets one
/// of those tags through the hashed counter table depends on heap addresses:
/// across four processes the hash table's 64 B `Batched(8)` row read 49–60
/// read-side pwbs per 4 000 operations, and it was stable only with address
/// randomisation off (`setarch -R`). Such a pwb moves a pfence only if it
/// lands on a clean epoch, and in the map rows it cannot: every update's
/// leading fence and every batch drain close all open tags as they clean the
/// epoch, and the one fence that cleans without closing — a new node's
/// persist — is followed by the publishing CAS with no p-load between, on
/// every structure the batched rows run (the automatic method adds no
/// transition loads). An instrumented build counted no read-side pwb on a
/// clean epoch in any map row.
///
/// The `Batched` request-path row is different: the mailbox's enqueue p-loads
/// the tail between its node's persist and the linking CAS, so its pfences
/// moved by one in one of six processes. Only its case is compared; the
/// request-path claim checks its pfences by direction.
#[test]
fn immediate_rows_are_bit_identical_across_runs() {
    let again = ledger(&SCALE);
    let first = measured();
    assert_eq!(first.rows.len(), again.rows.len());
    for (a, b) in first.rows.iter().zip(&again.rows) {
        if a.commit == CommitMode::Immediate {
            assert_eq!(a, b, "drifted between runs");
        } else {
            assert_eq!(
                (a.policy, a.pfences),
                (b.policy, b.pfences),
                "{a:?} drifted"
            );
        }
    }
    assert_eq!(first.requests.len(), again.requests.len());
    for (a, b) in first.requests.iter().zip(&again.requests) {
        if a.commit == CommitMode::Immediate {
            assert_eq!(a, b, "drifted between runs");
        } else {
            let case = |r: &RequestRow| RequestRow {
                pump: Counts::default(),
                ..r.clone()
            };
            assert_eq!(case(a), case(b));
        }
    }
}

/// The ledger's map rows measure exactly the case matrix's correct map
/// subjects, 62 of them, and its queue rows two methods under every policy.
#[test]
fn rows_cover_the_correct_subjects_of_the_case_matrix() {
    let is_queue = |s: &Subject| s.structure == StructureKind::MsQueue;
    let mut measured_subjects: Vec<Subject> = Vec::new();
    for r in &measured().rows {
        let subject = Subject::new(r.structure, r.method, r.policy);
        if !measured_subjects.contains(&subject) {
            measured_subjects.push(subject);
        }
    }
    let maps: Vec<Subject> = Subject::all()
        .filter(|s| !s.method.expects_violations() && !is_queue(s))
        .collect();
    let (queues, ledger_maps): (Vec<Subject>, Vec<Subject>) =
        measured_subjects.into_iter().partition(is_queue);
    assert_eq!((maps.len(), ledger_maps.len()), (62, 62));
    assert!(ledger_maps.iter().all(|s| maps.contains(s)));
    assert_eq!(queues.len(), 10);
}

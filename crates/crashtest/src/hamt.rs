//! HAMT snapshot-consistency sweep.
//!
//! [`sweep_map`](crate::engine::sweep_map) already proves the HAMT's *main*
//! trie is prefix-consistent at every crash point. This module proves a
//! stronger property: a **snapshot taken before the crash point must replay
//! to exactly its frozen contents** — not a prefix, not a nearby state, the
//! exact map the snapshot froze, even though the live trie kept mutating (and
//! retiring the snapshot's unshared nodes into the pinned backlog) between
//! the snapshot and the crash.
//!
//! The sweep replays a history, takes one snapshot after `snap_at` operations,
//! keeps it alive for the rest of the replay, and at every crash point `k`
//! recovers the retained-root table from the frozen
//! [`CrashImage`](flit_pmem::CrashImage) via
//! [`Hamt::recover_snapshots_in_image`]:
//!
//! * **at most one** retained snapshot may ever be recovered (the replay takes
//!   exactly one);
//! * a recovered snapshot's walk must not be truncated — its whole frozen path
//!   must be in the image (this is what the pre-publish fence in
//!   `Hamt::publish` buys: a root can only become visible, and hence
//!   retainable, after its path is durable);
//! * a recovered snapshot's pairs must equal **exactly** the model state after
//!   `snap_at` operations;
//! * under [`CommitMode::Immediate`], once `k` passes the snapshot's own
//!   completion boundary the snapshot **must** be recovered — its table entry
//!   (root, version, refcount) commits atomically at the snapshot's completion
//!   fence. Under a batched commit the entry may legally be lost until a later
//!   drain covers it, so only the exactness checks apply.
//!
//! Crash points inside the construction window (and any point before the
//! snapshot's completion fence) must recover an **empty** retained table: the
//! three entry words are pwb'd together and covered by the same fence, so the
//! loss model makes the entry all-or-nothing.
//!
//! These rules are one function, `check_retained`, with the "must be
//! present" decision passed in as a `Retained` rule. The snapshot kill
//! rounds ([`crate::kill::verify_hamt_pool`]) judge a reopened pool with it
//! too, adding the rule that a snapshot the child released must be absent.

use flit::{CommitMode, Policy};
use flit_hamt::{Hamt, RetainedSnapshot};
use flit_pmem::SimNvram;
use flit_workload::{MapOp, PolicyVisitor, FLIT_HT_SWEEP_BYTES};

use crate::engine::{
    map_state, map_step, sweep, CrashWindow, Finding, MapModel, Run, SweepSettings,
};
use crate::report::{CaseMeta, HistorySpec, SweepReport};
use crate::PolicyKind;

/// The structure key the `crashtest` CLI uses for this sweep (it is not a
/// [`StructureKind`](crate::StructureKind) — the snapshot sweep has its own
/// entry point), so [`CaseMeta::repro`] strings stay replayable.
pub const SNAPSHOT_STRUCTURE: &str = "hamt-snapshot";

/// Where the sweep takes its snapshot: one third of the way through the
/// history (at least one operation in, so the frozen contents are non-trivial).
/// A convention rather than a parameter so repro strings don't need to carry
/// it.
pub fn default_snap_at(history_len: usize) -> usize {
    (history_len / 3).clamp(1, history_len.max(1))
}

/// Sweep crash points across `history`, holding a snapshot taken after
/// `snap_at` operations, and verify the retained-root table recovered from
/// every frozen image replays the snapshot to exactly its frozen contents.
///
/// The snapshot call belongs to operation `snap_at`'s step (it precedes
/// operation 1 when `snap_at` is 0), so "the snapshot had completed" is "that
/// operation had completed".
pub fn sweep_hamt_snapshot<P, F>(
    case: CaseMeta,
    factory: F,
    history: &[MapOp],
    snap_at: usize,
    settings: &SweepSettings,
) -> SweepReport
where
    P: Policy<Backend = SimNvram>,
    F: Fn(SimNvram) -> P,
{
    let frozen = map_state(history, snap_at);
    let replay = |run: &mut Run<'_>| {
        let db = run.db(&factory, run.backend.clone());
        let map: Hamt<P> = Hamt::new(&db, 64);
        let h = db.handle();
        let mut model = MapModel::new();
        let mut snapshot = None;
        let image = run.drive(std::slice::from_ref(&h), 0, history.len(), |i| {
            if snap_at == 0 && i == 0 {
                snapshot = Some(map.snapshot(&h));
            }
            let step = map_step(&map, &h, &mut model, i, history[i]);
            if i + 1 == snap_at {
                snapshot = Some(map.snapshot(&h));
            }
            step
        })?;
        let retained = Hamt::<P>::recover_snapshots_in_image(map.arena(), &image);
        // Only now may the snapshot go: dropping it writes refcount 0, which at
        // the nothing-lost control point would have made the tracker's final
        // image legitimately snapshot-free.
        drop(snapshot);
        Some(retained)
    };
    let check = |retained: &Vec<RetainedSnapshot>, window: &CrashWindow| {
        // The entry commits atomically at the snapshot's completion fence —
        // which only an immediate commit issues before the call returns — so
        // it must then be in any image frozen at or past the boundary of the
        // operation the snapshot call rode on.
        let rule = if matches!(settings.commit, CommitMode::Immediate)
            && window.in_flight
            && window.completed >= snap_at.max(1)
        {
            Retained::Present(format!(
                "the snapshot call completed with operation {} and {} operations had \
                 completed at the crash: its table entry must have been durable",
                snap_at.max(1),
                window.completed
            ))
        } else {
            Retained::Either
        };
        check_retained(retained, &frozen, snap_at, rule)
    };
    sweep(settings, replay, check).into_report(case)
}

/// What a crash check demands of the one snapshot a history retained.
pub(crate) enum Retained {
    /// Its table entry must be durable; the text says why.
    Present(String),
    /// It may or may not have survived.
    Either,
    /// It was released, and the release must be durable.
    Absent,
}

/// Everything wrong with the `retained` snapshots recovered from one image:
/// at most one may be present, and `rule` says whether it must be; one that is
/// present (and not released) must replay, untruncated, to exactly `frozen`,
/// the model state after `snap_at` operations. The snapshot sweep and the
/// snapshot kill rounds both judge with this.
pub(crate) fn check_retained(
    retained: &[RetainedSnapshot],
    frozen: &[(u64, u64)],
    snap_at: usize,
    rule: Retained,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    if retained.len() > 1 {
        findings.push(Finding::crashed(format!(
            "recovered {} retained snapshots but the replay took exactly one",
            retained.len()
        )));
    }
    match (retained.first(), rule) {
        (Some(snap), Retained::Absent) => findings.push(Finding::crashed(format!(
            "retained snapshot (slot {}, version {}) recovered although it was released",
            snap.slot, snap.version
        ))),
        (Some(snap), _) if snap.rec.truncated => findings.push(Finding::crashed(
            "retained snapshot's recovery walk truncated: its root was durably \
             retained but part of its frozen path was not in the image \
             (persist-before-publish violated for a pinned root)"
                .to_string(),
        )),
        (Some(snap), _) if snap.rec.sorted_pairs() != frozen => {
            findings.push(Finding::crashed(format!(
                "retained snapshot (slot {}, version {}) recovered {:?} but its frozen \
                 contents (model after {} ops) are {:?}",
                snap.slot,
                snap.version,
                snap.rec.sorted_pairs(),
                snap_at,
                frozen
            )))
        }
        (None, Retained::Present(why)) => findings.push(Finding::crashed(format!(
            "no retained snapshot recovered, but {why}"
        ))),
        _ => {}
    }
    findings
}

/// [`sweep_hamt_snapshot`] for a named policy and history spec, with the
/// snapshot taken at [`default_snap_at`] — the form the `crashtest` CLI and the
/// integration tests drive.
pub fn run_hamt_snapshot_case(
    policy: PolicyKind,
    history: HistorySpec,
    settings: &SweepSettings,
) -> SweepReport {
    let case = CaseMeta {
        structure: SNAPSHOT_STRUCTURE,
        method: "automatic",
        policy: policy.key(),
        history,
        elision: settings.elision,
        commit: settings.commit,
        broken_acks: settings.broken_acks,
    };
    policy.visit(FLIT_HT_SWEEP_BYTES, SnapshotSweep(case, settings))
}

/// [`run_hamt_snapshot_case`]'s sweep, once the policy type is known.
struct SnapshotSweep<'a>(CaseMeta, &'a SweepSettings);

impl PolicyVisitor for SnapshotSweep<'_> {
    type Output = SweepReport;

    fn visit<P: Policy<Backend = SimNvram>>(self, make: impl Fn(SimNvram) -> P) -> SweepReport {
        let ops = self.0.history.map_history();
        let snap_at = default_snap_at(ops.len());
        sweep_hamt_snapshot(self.0, make, &ops, snap_at, self.1)
    }
}

//! The crash-point sweep driver — `sweep`, the one replay loop in the crate —
//! and its two simplest subjects, maps ([`sweep_map`]) and the queue
//! ([`sweep_queue`]). The snapshot and service subjects live in
//! [`crate::hamt`] and [`crate::server`].
//!
//! For one *case* (subject × policy × history) the driver:
//!
//! 1. runs a **counting pass**: replay the history against a fresh tracking backend
//!    with a counting [`CrashPlan`], recording how many persistence events
//!    construction generates, where every operation boundary falls, and the total
//!    event count;
//! 2. selects crash points across the **full absolute event span** `0..=total` —
//!    *including the construction window* `0..construction` — every event, or an
//!    evenly spaced subset under a budget;
//! 3. for each absolute index `k`, replays the identical history against a fresh
//!    backend with a plan armed at `k` — the plan freezes the adversarial image
//!    the instant that event would have applied — recovers the structure **purely
//!    from the frozen [`CrashImage`] + the arena's recovery-root table** (no live
//!    pointer, no live-memory reads), and checks **prefix consistency**: with `c`
//!    operations completed before the crash and at most one in flight, the
//!    recovered abstract state must equal the model state after `c` or after
//!    `c + 1` operations — and the recovery walk must not be truncated. A crash
//!    inside the construction window must recover to exactly the empty structure
//!    (either "no durable root yet" or the empty, fully-constructed skeleton).
//!
//! Under [`CommitMode::Batched`] (a sweep dimension next to elision) the contract
//! weakens to the watermark/ticket contract: the recovered state must be the
//! model state after `n` operations for some `n` between the `acked_floor` —
//! the operations whose completion obligations a drain had acknowledged — and
//! `c + 1`. Under [`CommitMode::Immediate`] the floor always equals `c`, so the
//! same check degenerates to the strict two-state contract above. The
//! deliberately broken [`SweepSettings::broken_acks`] mode acknowledges without
//! fencing and must make batched sweeps fail.
//!
//! Crash points are **stable absolute event indices**: arena allocation
//! (`flit-alloc`) makes every object flush cover a layout-independent number of
//! cache lines, so two replays of one history produce byte-identical event
//! streams — across runs, processes and machines. A repro string is therefore a
//! complete, portable reproduction recipe. The index `k = total` (nothing lost)
//! is always included as a control: there the recovered state must equal the full
//! history's final state. Replays that crash inside the construction window skip
//! the (irrelevant) history for speed: the image was frozen before any operation
//! began.

use std::collections::{BTreeMap, VecDeque};

use flit::{CommitMode, FlitDb, FlitHandle, Policy};
use flit_datastructs::{ConcurrentMap, Durability, RecoverInImage, RecoveredMap};
use flit_pmem::{CrashImage, CrashPlan, ElisionMode, LatencyModel, SimNvram};
use flit_queues::{ConcurrentQueue, MsQueue, RecoveredQueue};
use flit_workload::{MapOp, QueueOp};

use crate::report::{CaseMeta, SweepReport, Violation};

/// How much of the event span a sweep covers. The default (`budget: 0`, no pinned
/// crash point) sweeps every absolute event of the elision-enabled instruction
/// stream, construction included.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepSettings {
    /// Maximum number of crash points to inject (`0` = every event in the span).
    pub budget: usize,
    /// Inject exactly this one absolute crash index instead of sweeping
    /// (repro mode).
    pub crash_at: Option<u64>,
    /// Persist-epoch elision mode of the replayed backend. The default
    /// ([`ElisionMode::Enabled`]) sweeps the elided instruction stream — the one
    /// production runs execute; [`ElisionMode::Disabled`] sweeps the
    /// paper-literal stream. Note the two streams have different event spans
    /// (elision removes fence events), so crash indices are not comparable
    /// across modes.
    pub elision: ElisionMode,
    /// Commit mode of the replayed [`FlitDb`]. Under [`CommitMode::Batched`] the
    /// completion fence is amortized over batches, so the crash contract weakens
    /// to the watermark/ticket contract: the recovered state must be a consistent
    /// prefix containing at least every *acknowledged* operation (see
    /// `acked_floor`). Batching removes fence events from the stream, so — as
    /// with elision — crash indices are not comparable across commit modes.
    pub commit: CommitMode,
    /// Deliberately broken-acknowledgment mode: after every operation the replay
    /// acknowledges all enqueued completion obligations *without fencing*
    /// (`FlitHandle::ack_obligations_without_fence`). Under a batched commit mode
    /// this claims durability for operations whose writes are still pending, so
    /// sweeps with this flag **must** find violations — the control proving the
    /// acked-floor check can catch a broken group-commit implementation.
    pub broken_acks: bool,
}

/// A zero-latency tracking backend in the given elision mode, observed by
/// `plan` when there is one — the only kind of backend the harness builds:
/// armed or counting for the crashed party, plan-free for a service's
/// survivors, logging for the round-robin traces.
pub(crate) fn tracking_backend(plan: Option<CrashPlan>, elision: ElisionMode) -> SimNvram {
    let builder = SimNvram::builder()
        .latency(LatencyModel::none())
        .tracking(true)
        .elision(elision);
    match plan {
        Some(plan) => builder.crash_plan(plan),
        None => builder,
    }
    .build()
}

/// Evenly spaced crash points over `base..=total`, at most `budget` of them
/// (`budget == 0` selects every point). The first and last points are always
/// included.
pub(crate) fn select_points(base: u64, total: u64, budget: usize) -> Vec<u64> {
    let span = total - base + 1;
    if budget == 0 || budget as u64 >= span {
        return (base..=total).collect();
    }
    if budget == 1 {
        return vec![total];
    }
    let mut points: Vec<u64> = (0..budget as u64)
        .map(|i| base + i * (span - 1) / (budget as u64 - 1))
        .collect();
    points.dedup();
    points
}

/// The label used for the nothing-lost control point (`k == total`).
const END_EVENT: &str = "end";
/// The label of a functional violation: a live return value diverged from the
/// sequential model (linearizability, not durability — the injected crash
/// never perturbs execution, so any mismatch is a real structure/policy bug).
const LIVE_RUN: &str = "live-run";
/// The label of a finding about a party that never crashed.
const SURVIVOR: &str = "survivor";

/// What one step of a history did.
pub(crate) struct Step {
    /// The party that performed it: `0` for a single structure, the routed
    /// shard for a service. Only the crashed party's steps are operation
    /// boundaries of the swept stream.
    pub party: usize,
    /// Set when the live return value diverged from the sequential model.
    pub mismatch: Option<String>,
}

/// Where a crash point fell in the crashed party's history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CrashWindow {
    /// The [`acked_floor`]: leading operations a drain had acknowledged.
    pub acked: usize,
    /// Operations whose completion boundary lies at or before the crash.
    pub completed: usize,
    /// `false` when no operation beyond `completed` can have reached the
    /// image: inside the construction window (nothing completed either, so
    /// only the empty structure is admissible), and for a killed process,
    /// whose `completed` is every operation it attempted.
    pub in_flight: bool,
}

/// One thing a subject's check found wrong with a recovered state.
pub(crate) struct Finding {
    /// Human-readable description of the divergence.
    pub detail: String,
    /// `None` for the crashed party: the driver stamps the event kind the
    /// crash landed on, the completed-operation count and the flight tail.
    /// `Some((party, completed))` for a party that never crashed.
    pub survivor: Option<(usize, usize)>,
}

impl Finding {
    /// A finding about the crashed party.
    pub(crate) fn crashed(detail: String) -> Self {
        Finding {
            detail,
            survivor: None,
        }
    }
}

/// One replay: what a subject builds on, and everything [`Run::drive`]
/// measured. Boundaries are *absolute event indices* recorded by this very
/// run; arena allocation makes them identical across replays of one history,
/// which is what lets crash points be absolute in the first place.
pub(crate) struct Run<'a> {
    /// The sweep's settings (commit mode and elision are the subject's to apply).
    pub settings: &'a SweepSettings,
    /// The crashed party's backend: it carries the crash plan.
    pub backend: SimNvram,
    plan: CrashPlan,
    crash_at: Option<u64>,
    /// False for construction-window replays, where the image is frozen before
    /// any operation begins and the history cannot affect it.
    run_history: bool,
    crashed: usize,
    base: u64,
    boundaries: Vec<u64>,
    /// Per-boundary `(enqueued, committed)` obligation counters of the crashed
    /// party's handle, sampled right after each of its operations. Under
    /// [`CommitMode::Immediate`] both stay 0; under a batched mode they drive
    /// the [`acked_floor`] computation for the weaker ticket contract.
    marks: Vec<(u64, u64)>,
    total: u64,
    /// First step whose live return value diverged from the model, and the
    /// party that performed it.
    functional: Option<(usize, String)>,
    /// The crashed party's flight-recorder tail, sampled at its first operation
    /// boundary at or past the armed crash index (so it holds the persistence
    /// events leading *into* the crash, not the whole replay's tail). Empty for
    /// counting passes.
    flight: Vec<flit::FlightEvent>,
    /// The event kind the crash landed on.
    on: &'static str,
}

impl Run<'_> {
    /// The database a replay builds on `backend`: `factory`'s policy under the
    /// sweep's commit mode.
    pub(crate) fn db<P, F>(&self, factory: &F, backend: SimNvram) -> FlitDb<P>
    where
        P: Policy<Backend = SimNvram>,
        F: Fn(SimNvram) -> P,
    {
        FlitDb::builder(factory(backend))
            .commit_mode(self.settings.commit)
            .build()
    }

    /// **The** replay loop. Construction is over: apply `step(0..steps)` with
    /// `handles` (one per party, `crashed` the one on [`Run::backend`]; opening
    /// them must not have generated persistence events), sampling the crashed
    /// party's boundaries, obligation marks and flight tail, and return the
    /// image the crash froze — `None` on a counting pass.
    pub(crate) fn drive<P: Policy>(
        &mut self,
        handles: &[FlitHandle<'_, P>],
        crashed: usize,
        steps: usize,
        mut step: impl FnMut(usize) -> Step,
    ) -> Option<CrashImage> {
        self.base = self.plan.events_seen();
        self.crashed = crashed;
        // The harness is the flight recorder's consumer, so arm the ring up front.
        handles[crashed].arm_flight_recorder();
        let steps = if self.run_history { steps } else { 0 };
        for i in 0..steps {
            let Step { party, mismatch } = step(i);
            let h = &handles[party];
            if self.settings.broken_acks {
                h.ack_obligations_without_fence();
            }
            if self.functional.is_none() {
                self.functional = mismatch.map(|detail| (party, detail));
            }
            if party != crashed {
                continue;
            }
            let seen = self.plan.events_seen();
            self.boundaries.push(seen);
            self.marks
                .push((h.enqueued_obligations(), h.committed_obligations()));
            if self.flight.is_empty() && self.crash_at.is_some_and(|k| seen >= k) {
                self.flight = h.flight_events();
            }
        }
        self.total = self.plan.events_seen();
        self.crash_at?;
        if self.flight.is_empty() {
            // Construction-window or past-the-end crash: no boundary crossed the
            // armed index, so the tail at replay end is the closest sample.
            self.flight = handles[crashed].flight_events();
        }
        // The plan's capture when the armed index fell inside this run's event
        // span; the tracker's final (nothing lost) state when it fell at or
        // past the end — the always-included full-history control point.
        Some(match self.plan.crash_image() {
            Some(image) => {
                self.on = self.plan.triggered_on().map_or("?", |e| e.name());
                image
            }
            None => self
                .backend
                .tracker()
                .expect("crash backend tracks")
                .crash_image(),
        })
    }
}

/// One replay of a subject on a fresh backend; when `crash_at` is set, the
/// image is frozen the instant that absolute event would have applied and the
/// subject recovers from it.
fn replay_once<'a, T>(
    subject: &impl Fn(&mut Run<'_>) -> Option<T>,
    crash_at: Option<u64>,
    run_history: bool,
    settings: &'a SweepSettings,
) -> (Run<'a>, Option<T>) {
    let plan = match crash_at {
        Some(k) => CrashPlan::armed_at(k),
        None => CrashPlan::counting(),
    };
    let mut run = Run {
        settings,
        backend: tracking_backend(Some(plan.clone()), settings.elision),
        plan,
        crash_at,
        run_history,
        crashed: 0,
        base: 0,
        boundaries: Vec::new(),
        marks: Vec::new(),
        total: 0,
        functional: None,
        flight: Vec::new(),
        on: END_EVENT,
    };
    let recovered = subject(&mut run);
    (run, recovered)
}

/// One violation as the driver records it: a [`Violation`] minus the repro
/// string, plus the party it blames.
pub(crate) struct Hit {
    pub crash_event: u64,
    pub party: usize,
    pub on: &'static str,
    pub completed_ops: usize,
    pub detail: String,
    pub flight: Vec<flit::FlightEvent>,
}

/// What [`sweep`] measured and found.
pub(crate) struct Sweep {
    pub events_construction: u64,
    pub events_total: u64,
    pub points_tested: usize,
    pub hits: Vec<Hit>,
}

impl Sweep {
    /// The public report of a `crashtest`-addressable case: every hit becomes a
    /// [`Violation`] carrying the invocation that replays exactly its crash
    /// point.
    pub(crate) fn into_report(self, case: CaseMeta) -> SweepReport {
        let violations = self
            .hits
            .into_iter()
            .map(|hit| Violation {
                crash_event: hit.crash_event,
                triggered_on: hit.on,
                completed_ops: hit.completed_ops,
                detail: hit.detail,
                repro: case.repro(hit.crash_event),
                flight: hit.flight,
            })
            .collect();
        SweepReport {
            case,
            events_construction: self.events_construction,
            events_total: self.events_total,
            points_tested: self.points_tested,
            violations,
        }
    }
}

/// **The** sweep: counting pass, crash-point selection, one armed replay per
/// point, and the check of every recovered state.
///
/// A *subject* is the pair of closures. `replay` is one replay: construct on
/// [`Run::backend`] (a service puts its crashed party there), hand the handles
/// and the history to [`Run::drive`], and recover purely from the image it
/// returns and the arena root tables — no live pointer, no live-memory reads.
/// Everything `drive` was lent is still alive at that point, so the subject
/// decides what outlives the recovery. `check` lists everything wrong with a
/// recovered state given where the crash fell. See the crate docs ("Adding a
/// subject").
pub(crate) fn sweep<T, F: IntoIterator<Item = Finding>>(
    settings: &SweepSettings,
    replay: impl Fn(&mut Run<'_>) -> Option<T>,
    check: impl Fn(&T, &CrashWindow) -> F,
) -> Sweep {
    let (counting, _) = replay_once(&replay, None, true, settings);
    let points = match settings.crash_at {
        Some(k) => vec![k.min(counting.total)],
        None => select_points(0, counting.total, settings.budget),
    };
    let mut hits = Vec::new();
    let mut hit = |crash_event, party, on, completed_ops, detail, flight| {
        hits.push(Hit {
            crash_event,
            party,
            on,
            completed_ops,
            detail,
            flight,
        })
    };
    if let Some((party, detail)) = counting.functional {
        // The live return values diverged from the sequential model even without a
        // crash: a linearizability bug, reported before any durability verdicts.
        hit(0, party, LIVE_RUN, 0, detail, Vec::new());
    }
    for &k in &points {
        let in_flight = k >= counting.base;
        let (run, recovered) = replay_once(&replay, Some(k), in_flight, settings);
        // The core invariant, asserted rather than assumed: every replay of one
        // case reproduces the counting pass's absolute event stream exactly (a
        // drift would silently misclassify construction-window points).
        assert_eq!(
            run.base, counting.base,
            "event-stream determinism broke: construction span drifted between replays"
        );
        if in_flight {
            assert_eq!(
                run.total, counting.total,
                "event-stream determinism broke: total span drifted between replays"
            );
            assert_eq!(
                run.boundaries, counting.boundaries,
                "event-stream determinism broke: operation boundaries drifted between replays"
            );
        }
        let recovered = recovered.expect("crash point was armed");
        let completed = completed_before(&run.boundaries, k);
        let window = CrashWindow {
            acked: acked_floor(&run.marks, completed),
            completed,
            in_flight,
        };
        if let Some((party, detail)) = run.functional {
            hit(k, party, LIVE_RUN, completed, detail, run.flight.clone());
        }
        for Finding { detail, survivor } in check(&recovered, &window) {
            match survivor {
                None => hit(
                    k,
                    run.crashed,
                    run.on,
                    completed,
                    detail,
                    run.flight.clone(),
                ),
                Some((party, completed)) => hit(k, party, SURVIVOR, completed, detail, Vec::new()),
            }
        }
    }
    Sweep {
        events_construction: counting.base,
        events_total: counting.total,
        points_tested: points.len(),
        hits,
    }
}

/// What a map operation returns, from a structure or from the model.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// `insert` / `remove`: whether it took effect.
    Flag(bool),
    /// `get`: the value found.
    Value(Option<u64>),
}

/// Apply `op` to `map` through `h`.
pub(crate) fn apply_map_op<P: Policy, M: ConcurrentMap<P>>(
    map: &M,
    h: &FlitHandle<'_, P>,
    op: MapOp,
) -> Outcome {
    match op {
        MapOp::Insert(k, v) => Outcome::Flag(map.insert(h, k, v)),
        MapOp::Remove(k) => Outcome::Flag(map.remove(h, k)),
        MapOp::Get(k) => Outcome::Value(map.get(h, k)),
    }
}

/// Apply `op` to the sequential map model (insert does not overwrite,
/// mirroring `ConcurrentMap`).
pub(crate) fn apply_model(model: &mut BTreeMap<u64, u64>, op: MapOp) -> Outcome {
    match op {
        MapOp::Insert(k, v) => {
            let fresh = !model.contains_key(&k);
            if fresh {
                model.insert(k, v);
            }
            Outcome::Flag(fresh)
        }
        MapOp::Remove(k) => Outcome::Flag(model.remove(&k).is_some()),
        MapOp::Get(k) => Outcome::Value(model.get(&k).copied()),
    }
}

/// Step `i` of a single map's history: `op` on the structure and on the model.
pub(crate) fn map_step<P: Policy, M: ConcurrentMap<P>>(
    map: &M,
    h: &FlitHandle<'_, P>,
    model: &mut MapModel,
    i: usize,
    op: MapOp,
) -> Step {
    let (got, want) = (apply_map_op(map, h, op), apply_model(model, op));
    Step {
        party: 0,
        mismatch: (got != want)
            .then(|| format!("op {i} ({op:?}) returned {got:?} but the model says {want:?}")),
    }
}

/// A sequential model: the abstract state a history reaches, one operation
/// at a time, so that [`check_prefix`] walks a history forward only once.
pub(crate) trait Model: Default {
    /// One operation of a history.
    type Op: Copy;
    /// One element of the abstract state, in the order recovery reports it.
    type Item: PartialEq + std::fmt::Debug;
    /// What the structure's operation must return.
    type Reply: PartialEq + std::fmt::Debug;
    /// Apply `op`.
    fn apply(&mut self, op: Self::Op) -> Self::Reply;
    /// The abstract state.
    fn items(&self) -> impl ExactSizeIterator<Item = Self::Item> + '_;
}

/// The sequential map model.
pub(crate) type MapModel = BTreeMap<u64, u64>;

impl Model for MapModel {
    type Op = MapOp;
    type Item = (u64, u64);
    type Reply = Outcome;
    fn apply(&mut self, op: MapOp) -> Outcome {
        apply_model(self, op)
    }
    fn items(&self) -> impl ExactSizeIterator<Item = (u64, u64)> + '_ {
        self.iter().map(|(k, v)| (*k, *v))
    }
}

impl Model for VecDeque<u64> {
    type Op = QueueOp;
    type Item = u64;
    /// A dequeue returns what it popped.
    type Reply = Option<u64>;
    fn apply(&mut self, op: QueueOp) -> Option<u64> {
        match op {
            QueueOp::Enqueue(v) => {
                self.push_back(v);
                None
            }
            QueueOp::Dequeue => self.pop_front(),
        }
    }
    fn items(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        self.iter().copied()
    }
}

/// The map model state after the first `n` operations of `history`, as
/// sorted `(key, value)` pairs.
pub(crate) fn map_state(history: &[MapOp], n: usize) -> Vec<(u64, u64)> {
    let mut model = MapModel::new();
    history[..n].iter().for_each(|&op| _ = model.apply(op));
    model.items().collect()
}

/// Bounded rendering of an abstract state for violation messages.
fn digest<T: std::fmt::Debug>(items: &[T]) -> String {
    const SHOWN: usize = 12;
    if items.len() <= SHOWN {
        format!("{items:?}")
    } else {
        format!("{:?}… ({} total)", &items[..SHOWN], items.len())
    }
}

/// Number of operations whose completion boundary lies at or before event `k`
/// (the plan captures *before* event `k` applies, so a boundary of exactly `k`
/// means every event of that operation applied).
pub(crate) fn completed_before(boundaries: &[u64], k: u64) -> usize {
    boundaries.partition_point(|&b| b <= k)
}

/// The **acknowledged floor**: the number of leading operations whose completion
/// obligations were acknowledged (covered by a drain, i.e. by the durability
/// watermark) by the last completed operation boundary. The ticket contract says
/// these operations *must* survive a crash; operations between the floor and
/// `completed` were executed but never acknowledged, so a crash may legally drop
/// any suffix of them.
///
/// `marks[i]` is the replay handle's `(enqueued, committed)` obligation pair right
/// after operation `i`. Both counters are monotone, so the floor is the partition
/// point of `enqueued <= committed_at_crash`. Under [`CommitMode::Immediate`]
/// every mark is `(0, 0)`, the predicate is vacuously true, and the floor equals
/// `completed` — the check degenerates to the strict exact-prefix contract. In
/// broken-acknowledgment mode (`SweepSettings::broken_acks`) `committed` is
/// forcibly kept equal to `enqueued`, so the floor again equals `completed` and
/// any operation whose writes were still pending at the crash is a violation.
pub(crate) fn acked_floor(marks: &[(u64, u64)], completed: usize) -> usize {
    if completed == 0 {
        return 0;
    }
    let committed = marks[completed - 1].1;
    marks[..completed].partition_point(|&(enqueued, _)| enqueued <= committed)
}

/// Prefix-consistency check shared by maps, queues, the service's crashed
/// shard and the kill rounds: the recovered state must equal the model state
/// after `n` operations of `history` for some `n` in `acked..=completed` — or
/// `completed + 1` when an operation may have been in flight at the crash
/// (`in_flight`). `acked` is the [`acked_floor`]: under
/// [`CommitMode::Immediate`] it equals `completed` and the window collapses
/// to the strict two-state check; under a batched commit mode the window
/// widens to the unacknowledged tail, which a crash may legally lose.
///
/// Returns the first matching `n`. The model is walked forward once and
/// compared only where its length equals the recovered state's, so even a
/// failing check over a long history costs one pass.
pub(crate) fn check_prefix<M: Model>(
    actual: &[M::Item],
    truncated: bool,
    history: &[M::Op],
    window: &CrashWindow,
) -> Result<usize, Finding> {
    let CrashWindow {
        acked,
        completed,
        in_flight,
    } = *window;
    if truncated {
        return Err(Finding::crashed(
            "recovery walk truncated: a node was reachable through persisted links but its own \
             recovery words were not in the image (persist-before-publish violated)"
                .to_string(),
        ));
    }
    let hi = if in_flight {
        (completed + 1).min(history.len())
    } else {
        completed
    };
    let lo = acked.min(hi);
    let mut model = M::default();
    history[..lo].iter().for_each(|&op| _ = model.apply(op));
    let at_lo: Vec<_> = model.items().collect();
    for n in lo..=hi {
        if n > lo {
            model.apply(history[n - 1]);
        }
        let items = model.items();
        if items.len() == actual.len() && items.zip(actual).all(|(m, a)| m == *a) {
            return Ok(n);
        }
    }
    Err(Finding::crashed(format!(
        "recovered {} but expected the state after n ops for some n in {}..={} \
         (acked floor {}, {} completed{}); state({}) is {}, state({}) is {}{}",
        digest(actual),
        lo,
        hi,
        acked,
        completed,
        if in_flight { ", one in flight" } else { "" },
        lo,
        digest(&at_lo),
        hi,
        digest(&model.items().collect::<Vec<_>>()),
        if in_flight || completed > 0 {
            ""
        } else {
            " (crash inside the construction window: only the empty structure is admissible)"
        }
    )))
}

/// Sweep crash points across `history` for a map structure `M` built by
/// `factory` (any [`ConcurrentMap`] with image-only recovery, the HAMT and its
/// broken control included): prefix consistency against the sequential map model.
pub fn sweep_map<P, M, F>(
    case: CaseMeta,
    factory: F,
    history: &[MapOp],
    settings: &SweepSettings,
) -> SweepReport
where
    P: Policy<Backend = SimNvram>,
    M: ConcurrentMap<P> + RecoverInImage,
    F: Fn(SimNvram) -> P,
{
    let replay = |run: &mut Run<'_>| {
        let db = run.db(&factory, run.backend.clone());
        let map = M::with_capacity(&db, 64);
        let h = db.handle();
        let mut model = MapModel::new();
        let image = run.drive(std::slice::from_ref(&h), 0, history.len(), |i| {
            map_step(&map, &h, &mut model, i, history[i])
        })?;
        Some(M::recover_arenas(&db.arenas(), &image))
    };
    let check = |recovered: &RecoveredMap, window: &CrashWindow| {
        check_prefix::<MapModel>(
            &recovered.sorted_pairs(),
            recovered.truncated,
            history,
            window,
        )
        .err()
    };
    sweep(settings, replay, check).into_report(case)
}

/// Sweep crash points across `history` for the Michael–Scott queue under durability
/// method `D` and the policy built by `factory`: prefix consistency against
/// the sequential queue model.
pub fn sweep_queue<P, D, F>(
    case: CaseMeta,
    factory: F,
    history: &[QueueOp],
    settings: &SweepSettings,
) -> SweepReport
where
    P: Policy<Backend = SimNvram>,
    D: Durability,
    F: Fn(SimNvram) -> P,
{
    let replay = |run: &mut Run<'_>| {
        let db = run.db(&factory, run.backend.clone());
        let queue: MsQueue<P, D> = MsQueue::new(&db);
        let h = db.handle();
        let mut model = VecDeque::new();
        let image = run.drive(std::slice::from_ref(&h), 0, history.len(), |i| {
            let op = history[i];
            let got = match op {
                QueueOp::Enqueue(v) => {
                    queue.enqueue(&h, v);
                    None
                }
                QueueOp::Dequeue => queue.dequeue(&h),
            };
            let want = model.apply(op);
            Step {
                party: 0,
                mismatch: (got != want).then(|| {
                    format!("op {i} ({op:?}) returned {got:?} but the model says {want:?}")
                }),
            }
        })?;
        Some(queue.recover(&image))
    };
    let check = |recovered: &RecoveredQueue, window: &CrashWindow| {
        check_prefix::<VecDeque<u64>>(&recovered.values, recovered.truncated, history, window).err()
    };
    sweep(settings, replay, check).into_report(case)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`check_prefix`]'s verdict over a map `history` for one window, as
    /// the finding's detail.
    fn prefix_verdict(
        actual: &[(u64, u64)],
        truncated: bool,
        history: &[MapOp],
        acked: usize,
        completed: usize,
        in_flight: bool,
    ) -> Option<String> {
        let window = CrashWindow {
            acked,
            completed,
            in_flight,
        };
        let verdict = check_prefix::<MapModel>(actual, truncated, history, &window);
        verdict.err().map(|f| {
            assert!(f.survivor.is_none());
            f.detail
        })
    }

    /// What the toy subject saw, per replay and per check.
    #[derive(Default)]
    struct ToyLog {
        /// Steps each replay applied, in replay order (counting pass first).
        steps_run: Vec<usize>,
        /// Absolute event index after each step of the latest full replay.
        boundaries: Vec<u64>,
        windows: Vec<CrashWindow>,
    }

    const TOY_STEPS: usize = 5;

    /// Sweep a toy subject — five list inserts whose "recovery" ignores the
    /// image and whose check is scripted: a finding exactly when three
    /// operations had completed. `lie_at` scripts a live-run mismatch at that
    /// step; `drift` makes every construction after the first one longer.
    fn toy_sweep(settings: &SweepSettings, lie_at: Option<usize>, drift: bool) -> (Sweep, ToyLog) {
        use flit_datastructs::{Automatic, HarrisList};
        use std::cell::{Cell, RefCell};
        type P = flit::FlitPolicy<flit::HashedScheme, SimNvram>;
        let factory = |b| flit::presets::flit_ht_sized(b, 1 << 12);
        let log = RefCell::new(ToyLog::default());
        let builds = Cell::new(0);
        let replay = |run: &mut Run<'_>| {
            let db = run.db(&factory, run.backend.clone());
            let list: HarrisList<P, Automatic> = HarrisList::with_capacity(&db, 64);
            let h = db.handle();
            if drift && builds.replace(builds.get() + 1) > 0 {
                list.insert(&h, 99, 99);
            }
            let plan = run
                .backend
                .crash_plan()
                .expect("the driver armed one")
                .clone();
            let mut boundaries = Vec::new();
            let image = run.drive(std::slice::from_ref(&h), 0, TOY_STEPS, |i| {
                list.insert(&h, i as u64, 0);
                boundaries.push(plan.events_seen());
                Step {
                    party: 0,
                    mismatch: (lie_at == Some(i)).then(|| format!("scripted lie at {i}")),
                }
            });
            let mut log = log.borrow_mut();
            log.steps_run.push(boundaries.len());
            if boundaries.len() == TOY_STEPS {
                log.boundaries = boundaries;
            }
            image.map(|_| ())
        };
        let check = |_: &(), window: &CrashWindow| {
            log.borrow_mut().windows.push(*window);
            match window.completed {
                3 => vec![Finding::crashed("scripted loss".to_string())],
                _ => Vec::new(),
            }
        };
        let found = sweep(settings, replay, check);
        (found, log.into_inner())
    }

    fn toy_case() -> CaseMeta {
        CaseMeta {
            structure: "list",
            method: "automatic",
            policy: "flit-ht",
            history: crate::HistorySpec::Scripted,
            elision: ElisionMode::Enabled,
            commit: CommitMode::Immediate,
            broken_acks: false,
        }
    }

    #[test]
    fn driver_reports_scripted_findings_at_their_absolute_indices() {
        let (found, log) = toy_sweep(&SweepSettings::default(), None, false);
        assert_eq!(found.points_tested as u64, found.events_total + 1);
        // Three operations had completed exactly for the crash points from the
        // third boundary up to (not including) the fourth.
        let expected: Vec<u64> = (log.boundaries[2]..log.boundaries[3]).collect();
        assert!(!expected.is_empty() && expected[0] > found.events_construction);
        let report = found.into_report(toy_case());
        let got: Vec<u64> = report.violations.iter().map(|v| v.crash_event).collect();
        assert_eq!(got, expected);
        for v in &report.violations {
            assert_eq!(v.completed_ops, 3);
            assert!(["store", "pwb", "pfence"].contains(&v.triggered_on));
            assert!(!v.flight.is_empty(), "crash point {}", v.crash_event);
            assert_eq!(v.repro, toy_case().repro(v.crash_event));
            assert!(v.repro.starts_with("crashtest --structures list"));
            assert!(v.repro.ends_with(&format!("--crash-at {}", v.crash_event)));
        }
    }

    #[test]
    fn construction_window_points_skip_the_history_and_are_not_in_flight() {
        let (found, log) = toy_sweep(&SweepSettings::default(), None, false);
        let construction = found.events_construction as usize;
        assert!(construction > 0);
        // One counting pass, then one replay per point in index order.
        let mut steps = vec![TOY_STEPS];
        steps.extend(vec![0; construction]);
        steps.extend(vec![TOY_STEPS; found.points_tested - construction]);
        assert_eq!(log.steps_run, steps);
        let quiet = CrashWindow {
            acked: 0,
            completed: 0,
            in_flight: false,
        };
        assert!(log.windows[..construction].iter().all(|w| *w == quiet));
        assert!(log.windows[construction..].iter().all(|w| w.in_flight));
        assert_eq!(log.windows.last().unwrap().completed, TOY_STEPS);
    }

    #[test]
    fn live_run_mismatches_are_reported_by_every_replay_that_ran_the_history() {
        let (found, _) = toy_sweep(&SweepSettings::default(), Some(1), false);
        let live: Vec<&Hit> = found.hits.iter().filter(|h| h.on == LIVE_RUN).collect();
        // The counting pass reports it at index 0 with no flight tail...
        assert_eq!((live[0].crash_event, live[0].completed_ops), (0, 0));
        assert!(live[0].flight.is_empty());
        // ...and so does every armed replay past the construction window.
        let armed: Vec<u64> = live[1..].iter().map(|h| h.crash_event).collect();
        let expected: Vec<u64> = (found.events_construction..=found.events_total).collect();
        assert_eq!(armed, expected);
        assert!(live.iter().all(|h| h.detail == "scripted lie at 1"));
    }

    #[test]
    #[should_panic(expected = "event-stream determinism broke")]
    fn event_span_drift_between_counting_pass_and_replay_panics() {
        toy_sweep(&SweepSettings::default(), None, true);
    }

    #[test]
    fn point_selection_covers_the_span_or_respects_the_budget() {
        assert_eq!(select_points(3, 7, 0), vec![3, 4, 5, 6, 7]);
        assert_eq!(select_points(3, 7, 100), vec![3, 4, 5, 6, 7]);
        let pts = select_points(0, 1000, 5);
        assert_eq!(pts.len(), 5);
        assert_eq!(*pts.first().unwrap(), 0);
        assert_eq!(*pts.last().unwrap(), 1000);
        assert!(pts.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(select_points(10, 10, 0), vec![10]);
        assert_eq!(select_points(0, 9, 1), vec![9]);
    }

    #[test]
    fn model_states_apply_map_semantics() {
        let hist = vec![
            MapOp::Insert(1, 10),
            MapOp::Insert(1, 99), // no overwrite
            MapOp::Insert(2, 20),
            MapOp::Remove(1),
            MapOp::Get(2),
        ];
        assert_eq!(map_state(&hist, 0), vec![]);
        assert_eq!(map_state(&hist, 2), vec![(1, 10)]);
        assert_eq!(map_state(&hist, 3), vec![(1, 10), (2, 20)]);
        assert_eq!(map_state(&hist, 5), vec![(2, 20)]);
    }

    #[test]
    fn model_states_apply_queue_semantics() {
        let hist = [
            QueueOp::Enqueue(1),
            QueueOp::Enqueue(2),
            QueueOp::Dequeue,
            QueueOp::Dequeue,
            QueueOp::Dequeue, // empty
            QueueOp::Enqueue(3),
        ];
        let state = |n| {
            let mut model = VecDeque::new();
            hist[..n].iter().for_each(|&op| _ = model.apply(op));
            model
        };
        assert_eq!(state(2), [1, 2]);
        assert_eq!(state(4), []);
        assert_eq!(state(6), [3]);
    }

    #[test]
    fn completed_before_uses_the_capture_before_semantics() {
        let boundaries = vec![4, 9, 9, 15];
        assert_eq!(completed_before(&boundaries, 0), 0);
        assert_eq!(completed_before(&boundaries, 4), 1, "boundary == k counts");
        assert_eq!(completed_before(&boundaries, 8), 1);
        assert_eq!(completed_before(&boundaries, 9), 3);
        assert_eq!(completed_before(&boundaries, 99), 4);
    }

    #[test]
    fn check_prefix_accepts_both_adjacent_states() {
        let hist = [MapOp::Insert(1, 10), MapOp::Insert(2, 20)];
        let state = |n| map_state(&hist, n);
        // Strict (immediate) contract: acked == completed.
        assert!(prefix_verdict(&state(1), false, &hist, 1, 1, true).is_none());
        assert!(prefix_verdict(&state(2), false, &hist, 1, 1, true).is_none());
        assert!(prefix_verdict(&state(0), false, &hist, 1, 1, true).is_some());
        assert!(prefix_verdict(&state(1), true, &hist, 1, 1, true).is_some());
        // The match is the prefix length itself.
        let window = CrashWindow {
            acked: 0,
            completed: 2,
            in_flight: false,
        };
        assert_eq!(
            check_prefix::<MapModel>(&state(1), false, &hist, &window).ok(),
            Some(1)
        );
    }

    #[test]
    fn check_prefix_widens_to_the_acked_floor_under_batching() {
        let hist: Vec<MapOp> = (0..3).map(|k| MapOp::Insert(k, k)).collect();
        let state = |n| map_state(&hist, n);
        // Batched contract: 3 ops completed, only the first acknowledged — any
        // prefix of the unacknowledged tail may be lost...
        for n in 1..=3 {
            assert!(prefix_verdict(&state(n), false, &hist, 1, 3, true).is_none());
        }
        // ...but the acknowledged prefix itself must survive.
        assert!(prefix_verdict(&state(0), false, &hist, 1, 3, true).is_some());
        // Broken-ack control shape: everything claimed acknowledged, tail lost.
        let verdict = prefix_verdict(&state(1), false, &hist, 3, 3, true);
        assert!(verdict.unwrap().contains("acked floor 3"));
    }

    #[test]
    fn acked_floor_counts_acknowledged_leading_ops() {
        // Immediate mode: counters never move, floor == completed.
        assert_eq!(acked_floor(&[(0, 0), (0, 0), (0, 0)], 3), 3);
        assert_eq!(acked_floor(&[], 0), 0);
        // Batched(2): drain after op 1 committed ops 0-1; op 2 unacknowledged.
        assert_eq!(acked_floor(&[(1, 0), (2, 2), (3, 2)], 3), 2);
        // Crash one op earlier: the drain at op 1's end already covered both.
        assert_eq!(acked_floor(&[(1, 0), (2, 2), (3, 2)], 2), 2);
        assert_eq!(acked_floor(&[(1, 0), (2, 2), (3, 2)], 1), 0);
        // Broken acks: committed forced equal to enqueued, floor == completed.
        assert_eq!(acked_floor(&[(1, 1), (2, 2), (3, 3)], 3), 3);
    }

    #[test]
    fn construction_window_points_admit_only_the_empty_state() {
        let hist = [MapOp::Insert(1, 10), MapOp::Get(1)];
        let state = |n| map_state(&hist, n);
        // No operation can be in flight during construction: state(1) is a bug.
        assert!(prefix_verdict(&state(0), false, &hist, 0, 0, false).is_none());
        let verdict = prefix_verdict(&state(1), false, &hist, 0, 0, false);
        assert!(verdict.is_some());
        assert!(verdict.unwrap().contains("construction window"));
    }
}

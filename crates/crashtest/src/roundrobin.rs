//! Controlled-scheduler replays: N explicit [`flit::FlitHandle`]s stepped round-robin
//! by the engine on **one OS thread**.
//!
//! This is the proof-of-concept the explicit-handle redesign exists for. With
//! persistence state in thread-locals, "thread A's next persistence event" was
//! not a steppable notion — thread identity was ambient and interleavings were
//! whatever the OS scheduler produced. With handles, a logical thread is a
//! *value*: the engine owns N of them and decides, deterministically, which one
//! performs the next operation of a scripted history. Each handle keeps its own
//! persist epoch, so its fence elisions and flush dedups are decided exactly as
//! they would be for a real thread executing that subsequence — interleaved with
//! the other handles' events in one global, reproducible stream.
//!
//! The global stream is captured by a logging
//! [`CrashPlan`] ([`CrashPlan::counting_logged`]): every
//! store/`pwb`/`pfence` event kind in observation order, plus the per-step event
//! boundaries. Two replays of the same script must produce **byte-identical**
//! serialised traces ([`RoundRobinTrace::stream_string`]) — the property the
//! `round_robin` integration test asserts, and the seed of the ROADMAP's
//! deterministic multi-threaded crash sweep: with the stream stable, a future
//! sweep can crash at any absolute index of a *multi-handle* history and replay
//! it exactly.
//!
//! Steps are interleaved at operation granularity: an operation's persistence
//! events are contiguous in the stream, attributed to the stepping handle. (Finer,
//! event-granularity stepping would require suspending an operation mid-flight —
//! a coroutine transform of the structures this redesign does not attempt.)

use flit::{FlitDb, Policy};
use flit_datastructs::ConcurrentMap;
use flit_pmem::{CrashEventKind, CrashPlan, ElisionMode, SimNvram};
use flit_workload::MapOp;

use crate::engine::{apply_map_op, tracking_backend};

/// A logging [`CrashPlan`] and the tracking backend it observes: the complete
/// event-kind stream of whatever runs on the backend, in observation order.
pub(crate) fn logged_backend(elision: ElisionMode) -> (CrashPlan, SimNvram) {
    let plan = CrashPlan::counting_logged();
    let backend = tracking_backend(Some(plan.clone()), elision);
    (plan, backend)
}

/// One character per persistence event: `S`tore, p`W`b, p`F`ence.
pub(crate) fn kinds_string(kinds: &[CrashEventKind]) -> String {
    kinds
        .iter()
        .map(|k| match k {
            CrashEventKind::Store => 'S',
            CrashEventKind::Pwb => 'W',
            CrashEventKind::Pfence => 'F',
        })
        .collect()
}

/// One step of a multi-handle scripted history: handle `handle` performs `op`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScriptedStep {
    /// Index of the logical thread (handle) performing the step.
    pub handle: usize,
    /// The map operation it performs.
    pub op: MapOp,
}

/// Assign the operations of `history` to `handles` logical threads round-robin:
/// operation `i` is performed by handle `i % handles`.
pub fn round_robin_script(history: &[MapOp], handles: usize) -> Vec<ScriptedStep> {
    assert!(handles > 0, "at least one handle");
    history
        .iter()
        .enumerate()
        .map(|(i, &op)| ScriptedStep {
            handle: i % handles,
            op,
        })
        .collect()
}

/// The trace of one controlled round-robin replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundRobinTrace {
    /// Number of logical threads (handles) the engine stepped.
    pub handles: usize,
    /// Events generated by construction (before the first step).
    pub construction_events: u64,
    /// Total events at the end of the replay.
    pub events_total: u64,
    /// The complete global event-kind stream, in order.
    pub kinds: Vec<CrashEventKind>,
    /// Per step: `(handle index, events_seen after the step completed)`.
    pub step_boundaries: Vec<(usize, u64)>,
}

impl RoundRobinTrace {
    /// Serialise the trace into a single comparable string: the construction
    /// span, every step's `(handle, boundary)`, and the full event-kind stream.
    /// Two runs of one script are required to produce **byte-identical** results.
    pub fn stream_string(&self) -> String {
        let steps: Vec<String> = self
            .step_boundaries
            .iter()
            .map(|(h, b)| format!("h{h}@{b}"))
            .collect();
        format!(
            "handles={} construction={} total={} steps=[{}] stream={}",
            self.handles,
            self.construction_events,
            self.events_total,
            steps.join(","),
            kinds_string(&self.kinds)
        )
    }

    /// Events contributed by step `i` (its operation's contiguous slice of the
    /// global stream).
    pub fn step_events(&self, i: usize) -> u64 {
        let end = self.step_boundaries[i].1;
        let start = if i == 0 {
            self.construction_events
        } else {
            self.step_boundaries[i - 1].1
        };
        end - start
    }
}

/// Replay `script` against a fresh `M` built by `factory`, stepping `handles`
/// explicit sessions under the engine's control on the calling thread. Returns
/// the full deterministic trace. See the module docs.
pub fn round_robin_map<P, M, F>(
    factory: &F,
    handles: usize,
    script: &[ScriptedStep],
    elision: ElisionMode,
) -> RoundRobinTrace
where
    P: Policy<Backend = SimNvram>,
    M: ConcurrentMap<P>,
    F: Fn(SimNvram) -> P,
{
    assert!(handles > 0, "at least one handle");
    let (plan, backend) = logged_backend(elision);
    let db = FlitDb::create(factory(backend));
    let map = M::with_capacity(&db, 64);
    // The controlled scheduler's thread pool: N logical threads, zero OS threads.
    let sessions: Vec<_> = (0..handles).map(|_| db.handle()).collect();
    let construction_events = plan.events_seen();
    let mut step_boundaries = Vec::with_capacity(script.len());
    for step in script {
        apply_map_op(&map, &sessions[step.handle], step.op);
        step_boundaries.push((step.handle, plan.events_seen()));
    }
    drop(sessions); // any dirty handle fences here, inside the trace
    let events_total = plan.events_seen();
    RoundRobinTrace {
        handles,
        construction_events,
        events_total,
        kinds: plan.event_log(),
        step_boundaries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flit::presets;
    use flit::{FlitPolicy, HashedScheme};
    use flit_datastructs::{Automatic, HarrisList};

    type P = FlitPolicy<HashedScheme, SimNvram>;

    fn factory(b: SimNvram) -> P {
        presets::flit_ht_sized(b, 1 << 12)
    }

    #[test]
    fn script_assignment_is_round_robin() {
        let hist = vec![MapOp::Insert(1, 1), MapOp::Get(1), MapOp::Remove(1)];
        let script = round_robin_script(&hist, 2);
        assert_eq!(
            script.iter().map(|s| s.handle).collect::<Vec<_>>(),
            vec![0, 1, 0]
        );
    }

    #[test]
    fn trace_accounts_for_every_step() {
        let hist = vec![
            MapOp::Insert(1, 10),
            MapOp::Insert(2, 20),
            MapOp::Get(1),
            MapOp::Remove(2),
        ];
        let script = round_robin_script(&hist, 2);
        let trace = round_robin_map::<P, HarrisList<P, Automatic>, _>(
            &factory,
            2,
            &script,
            ElisionMode::Enabled,
        );
        assert_eq!(trace.step_boundaries.len(), 4);
        assert_eq!(trace.kinds.len() as u64, trace.events_total);
        assert_eq!(
            trace.step_boundaries.last().unwrap().1,
            trace.events_total,
            "clean handles add no trailing events on drop"
        );
        let summed: u64 = (0..4).map(|i| trace.step_events(i)).sum();
        assert_eq!(summed, trace.events_total - trace.construction_events);
    }

    #[test]
    fn interleaved_reader_handle_stays_free_under_flit() {
        // Handle 1 only reads (untagged words), interleaved with handle 0's
        // inserts: handle 1's epoch stays clean throughout, so its steps
        // contribute ZERO persistence events even though the global stream is
        // full of handle 0's. This is per-handle elision — impossible to even
        // state when epochs were keyed by OS thread.
        let script = vec![
            ScriptedStep {
                handle: 0,
                op: MapOp::Insert(1, 10),
            },
            ScriptedStep {
                handle: 1,
                op: MapOp::Get(1),
            },
            ScriptedStep {
                handle: 0,
                op: MapOp::Insert(2, 20),
            },
            ScriptedStep {
                handle: 1,
                op: MapOp::Get(2),
            },
        ];
        let trace = round_robin_map::<P, HarrisList<P, Automatic>, _>(
            &factory,
            2,
            &script,
            ElisionMode::Enabled,
        );
        assert!(trace.step_events(0) > 0, "an insert persists");
        assert_eq!(trace.step_events(1), 0, "clean reader: zero events");
        assert!(trace.step_events(2) > 0);
        assert_eq!(trace.step_events(3), 0);
    }
}

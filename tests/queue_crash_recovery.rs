//! Adversarial crash-recovery tests for the durable Michael–Scott queue.
//!
//! The single-threaded cases are driven by the `flit-crashtest` engine, which is
//! strictly stronger than the hand-rolled op-boundary checks it replaced: it
//! injects a simulated crash at **every persistence event** (store/pwb/pfence) of
//! the history — including mid-operation windows — rebuilds the queue from the
//! frozen [`CrashImage`](flit_pmem::CrashImage), and checks the recovered state is
//! a prefix-consistent linearization of the issued history.
//!
//! The multi-threaded case keeps its direct tracker usage: the sweep engine is
//! deliberately single-threaded (that is what makes event indices deterministic),
//! so concurrent traffic is validated at quiescence instead.

use std::sync::Arc;

use flit::{presets, CommitMode, FlitDb, FlitPolicy, HashedScheme};
use flit_crashtest::{run_case, HistorySpec, MethodKind, PolicyKind, StructureKind, SweepSettings};
use flit_pmem::SimNvram;
use flit_queues::{Automatic, ConcurrentQueue, MsQueue};

type HtPolicy = FlitPolicy<HashedScheme, SimNvram>;

const EVERY_EVENT: SweepSettings = SweepSettings {
    budget: 0,
    crash_at: None,
    elision: flit_pmem::ElisionMode::Enabled,
    commit: flit_pmem::CommitMode::Immediate,
    broken_acks: false,
};

/// Single-threaded, fully deterministic: crash at *every* persistence event of the
/// scripted grow/drain/regrow history. At each point the recovered queue must equal
/// the model queue after the completed operations (± the one in flight), i.e. the
/// persisted prefix is the linearized history at every boundary — and inside every
/// operation.
#[test]
fn persisted_prefix_matches_the_linearized_history_at_every_crash_point() {
    for method in MethodKind::CORRECT {
        let report = run_case(
            StructureKind::MsQueue,
            method,
            PolicyKind::FlitHt,
            HistorySpec::Scripted,
            &EVERY_EVENT,
        )
        .expect("supported combination");
        assert!(
            report.clean(),
            "{}: first violation: {}",
            report.case.id(),
            report.violations[0]
        );
        // The sweep really covered the whole absolute event span (construction
        // window included) plus the end control.
        assert_eq!(report.points_tested as u64, report.events_total + 1);
    }
}

/// The same every-event sweep through seeded random histories: different seeds
/// exercise different enqueue/dequeue interleavings, and each failure (if any)
/// would print a `(seed, crash offset)` repro string.
#[test]
fn random_histories_recover_at_every_crash_point() {
    for seed in [1u64, 0xdead] {
        let report = run_case(
            StructureKind::MsQueue,
            MethodKind::Automatic,
            PolicyKind::FlitHt,
            HistorySpec::Random {
                seed,
                ops: 40,
                key_range: 8,
            },
            &EVERY_EVENT,
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

/// The manual p-marking variant persists only the linearization-point stores; the
/// tail swings stay volatile. The every-event sweep proves a crash image taken at
/// any moment still recovers every completed enqueue by walking the persisted
/// `next` chain from `head`.
#[test]
fn manual_variant_survives_without_a_persisted_tail() {
    let report = run_case(
        StructureKind::MsQueue,
        MethodKind::Manual,
        PolicyKind::FlitHt,
        HistorySpec::Random {
            seed: 7,
            ops: 64,
            key_range: 8,
        },
        &EVERY_EVENT,
    )
    .unwrap();
    assert!(
        report.clean(),
        "{}: first violation: {}",
        report.case.id(),
        report.violations[0]
    );
}

/// Multi-threaded producer/consumer traffic, then quiescence: the recovered queue
/// must equal the volatile queue exactly (every surviving operation was completed),
/// preserve per-producer FIFO order, and contain no value any consumer dequeued.
/// Under `Batched(8)` every handle also counts one obligation per operation: each
/// enqueue and dequeue, an empty dequeue included, completes exactly once.
#[test]
fn recovered_queue_is_linearizable_after_concurrent_producer_consumer_run() {
    for commit in [CommitMode::Immediate, CommitMode::Batched(8)] {
        producer_consumer_round(commit);
    }
}

fn producer_consumer_round(commit: CommitMode) {
    const PRODUCERS: u64 = 2;
    const CONSUMERS: usize = 2;
    const PER_PRODUCER: u64 = 500;

    let nvram = SimNvram::for_crash_testing();
    let db = FlitDb::builder(presets::flit_ht(nvram.clone()))
        .commit_mode(commit)
        .build();
    let per_op = u64::from(commit != CommitMode::Immediate);
    let queue: Arc<MsQueue<HtPolicy, Automatic>> = Arc::new(MsQueue::new(&db));
    // Pin a main-thread handle before any operation so no retired node is
    // reclaimed and recovery can safely dereference stale persisted pointers.
    let main_handle = db.handle();
    let _guard = main_handle.pin();

    let dequeued = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for t in 0..PRODUCERS {
            let queue = Arc::clone(&queue);
            let db = &db;
            s.spawn(move || {
                let h = db.handle();
                for i in 0..PER_PRODUCER {
                    queue.enqueue(&h, (t << 32) | i);
                }
                assert_eq!(h.enqueued_obligations(), per_op * PER_PRODUCER);
            });
        }
        for _ in 0..CONSUMERS {
            let queue = Arc::clone(&queue);
            let dequeued = &dequeued;
            let db = &db;
            s.spawn(move || {
                let h = db.handle();
                // Consume only part of the stream so the final queue is non-empty.
                // Producers enqueue far more than the combined consumer quota, so
                // this terminates.
                let quota = (PER_PRODUCER / 4) as usize;
                let (mut local, mut calls) = (Vec::new(), 0);
                while local.len() < quota {
                    calls += 1;
                    match queue.dequeue(&h) {
                        Some(v) => local.push(v),
                        None => std::thread::yield_now(),
                    }
                }
                assert_eq!(h.enqueued_obligations(), per_op * calls);
                dequeued.lock().unwrap().extend(local);
            });
        }
    });

    let image = nvram.tracker().unwrap().crash_image();
    let recovered = queue.recover(&image);
    assert!(!recovered.truncated);

    // (1) Quiescence: recovery equals the volatile queue exactly.
    assert_eq!(recovered.values, queue.volatile_contents());

    // (2) No completed dequeue resurfaces.
    let dequeued = dequeued.into_inner().unwrap();
    for v in &dequeued {
        assert!(
            !recovered.values.contains(v),
            "dequeued value {v:#x} reappeared after the crash"
        );
    }

    // (3) Conservation + per-producer FIFO order within the recovered suffix.
    assert_eq!(
        recovered.values.len() + dequeued.len(),
        (PRODUCERS * PER_PRODUCER) as usize
    );
    for t in 0..PRODUCERS {
        let seqs: Vec<u64> = recovered
            .values
            .iter()
            .filter(|v| (*v >> 32) == t)
            .map(|v| v & 0xFFFF_FFFF)
            .collect();
        assert!(
            seqs.windows(2).all(|w| w[0] < w[1]),
            "producer {t} out of FIFO order after recovery: {seqs:?}"
        );
        // The recovered values of each producer are a contiguous tail of its stream:
        // everything before them was dequeued, nothing in the middle is missing.
        if let Some(&first) = seqs.first() {
            assert_eq!(
                seqs,
                (first..first + seqs.len() as u64).collect::<Vec<_>>(),
                "producer {t} lost interior values"
            );
        }
    }
}

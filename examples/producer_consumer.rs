//! Producer/consumer pipeline over the durable Michael–Scott queue: the second
//! workload family of the suite.
//!
//! ```text
//! cargo run --release --example producer_consumer
//! ```
//!
//! Three producer threads and one consumer thread, each with its own handle,
//! share one queue under two policy presets; the example prints the
//! persistence-instruction cost per operation, checks that the consumer saw
//! each producer's values in order, then demonstrates crash recovery from an
//! adversarial crash image.

use flit::{presets, FlitDb, FlitPolicy, HashedScheme, Policy};
use flit_pmem::{SimNvram, StatsSnapshot};
use flit_queues::{Automatic, ConcurrentQueue, MsQueue};

const PRODUCERS: u64 = 3;
const OPS_PER_THREAD: u64 = 20_000;

/// Run the pipeline once; returns the instruction counts and the values left
/// in the queue.
fn pipeline<P: Policy>(policy: P) -> (StatsSnapshot, usize) {
    let db = FlitDb::builder(policy).build();
    let queue: MsQueue<P, Automatic> = MsQueue::new(&db);
    let before = db.stats_snapshot().unwrap_or_default();
    std::thread::scope(|s| {
        for tid in 0..PRODUCERS {
            let (db, queue) = (&db, &queue);
            s.spawn(move || {
                let h = db.handle();
                for seq in 0..OPS_PER_THREAD {
                    // Producer id in the high half, bit 63 clear.
                    queue.enqueue(&h, (tid << 32) | seq);
                }
            });
        }
        s.spawn(|| {
            let h = db.handle();
            let mut next = [0u64; PRODUCERS as usize];
            for _ in 0..OPS_PER_THREAD {
                if let Some(v) = queue.dequeue(&h) {
                    let (tid, seq) = ((v >> 32) as usize, v & 0xFFFF_FFFF);
                    assert_eq!(seq, next[tid], "producer {tid}'s values lost or reordered");
                    next[tid] += 1;
                }
            }
        });
    });
    let after = db.stats_snapshot().unwrap_or_default();
    (after.delta_since(&before), queue.len())
}

fn main() {
    println!(
        "Durable FIFO queue: {PRODUCERS} producers : 1 consumer, {OPS_PER_THREAD} ops per thread\n"
    );
    println!(
        "{:<18} {:>10} {:>12} {:>12}",
        "policy", "pwbs/op", "pfences/op", "queue-left"
    );
    let ops = (PRODUCERS + 1) * OPS_PER_THREAD;
    let rows = [
        ("plain", pipeline(presets::plain(SimNvram::for_counting()))),
        (
            "flit-HT (1MB)",
            pipeline(presets::flit_ht(SimNvram::for_counting())),
        ),
    ];
    for (name, (stats, queue_left)) in rows {
        println!(
            "{:<18} {:>10.3} {:>12.3} {:>12}",
            name,
            stats.pwbs_per_op(ops),
            stats.pfences_per_op(ops),
            queue_left,
        );
    }

    // Crash recovery: run a little traffic on a tracking backend, "crash", recover.
    println!("\nCrash recovery from an adversarial image (flushed-and-fenced stores only):");
    let nvram = SimNvram::for_crash_testing();
    let db = FlitDb::flit_ht(nvram.clone());
    let queue: MsQueue<FlitPolicy<HashedScheme, SimNvram>, Automatic> = MsQueue::new(&db);
    // One explicit session for this thread.
    let h = db.handle();
    let _guard = h.pin();
    for v in 1..=8u64 {
        queue.enqueue(&h, v * 11);
    }
    queue.dequeue(&h);
    queue.dequeue(&h);
    let image = nvram.tracker().unwrap().crash_image();
    let recovered = queue.recover(&image);
    println!("  enqueued 11,22,...,88 then dequeued twice");
    println!(
        "  recovered after crash: {:?} (truncated: {})",
        recovered.values, recovered.truncated
    );
    assert_eq!(recovered.values, vec![33, 44, 55, 66, 77, 88]);
    println!("  recovery matches the durably linearized queue.");
}

//! Producer/consumer pipeline over the durable Michael–Scott queue: the second
//! workload family of the suite.
//!
//! ```text
//! cargo run --release --example producer_consumer
//! ```
//!
//! Runs the same bursty producer:consumer traffic under three policy presets and
//! prints throughput plus the persistence-instruction cost per operation, then
//! demonstrates crash recovery from an adversarial crash image.

use flit::{FlitDb, FlitPolicy, HashedScheme};
use flit_pmem::{ElisionMode, LatencyModel, SimNvram};
use flit_queues::{Automatic, ConcurrentQueue, MsQueue};
use flit_workload::{run_queue_case, PolicyKind, QueueCase, QueueWorkloadConfig};

fn main() {
    println!("Durable FIFO queue: bursty producer/consumer traffic (3 producers : 1 consumer)\n");
    println!(
        "{:<18} {:>10} {:>10} {:>12} {:>12}",
        "policy", "Mops/s", "pwbs/op", "pfences/op", "queue-left"
    );
    for policy in [
        PolicyKind::NoPersist,
        PolicyKind::Plain,
        PolicyKind::FlitHt(1 << 20),
    ] {
        let case = QueueCase {
            dur: flit_workload::DurKind::Automatic,
            policy,
            config: QueueWorkloadConfig::producer_consumer(3, 1, 50_000)
                .with_burst(32)
                .with_prefill(1_000),
            latency: LatencyModel::optane(),
            elision: ElisionMode::default(),
            commit: flit_pmem::CommitMode::Immediate,
        };
        let r = run_queue_case(&case);
        // Remaining length counts the prefilled values too (dequeues drain them
        // first, so this never underflows).
        let queue_left = case.config.prefill + r.enqueues - r.dequeues_hit;
        println!(
            "{:<18} {:>10.3} {:>10.3} {:>12.3} {:>12}",
            policy.name(),
            r.mops,
            r.pwbs_per_op(),
            r.pfences_per_op(),
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

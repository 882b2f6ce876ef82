//! The queue workload and its driver: one handle on the calling thread mixing
//! enqueues and dequeues from a seeded stream.

use flit::Policy;
use flit_pmem::StatsSnapshot;
use flit_queues::ConcurrentQueue;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One queue workload: each operation enqueues with probability
/// `enqueue_percent` %, otherwise it dequeues.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueWorkloadConfig {
    /// Percentage of operations that enqueue (50 = balanced mix, 0 =
    /// dequeue-only).
    pub enqueue_percent: u32,
    /// Operations in the measured interval.
    pub ops: u64,
}

/// The seed of every queue workload's operation stream.
const SEED: u64 = 0xF1F0_5EED;

impl QueueWorkloadConfig {
    /// A mix with `enqueue_percent` % enqueues.
    pub fn new(enqueue_percent: u32, ops: u64) -> Self {
        assert!(enqueue_percent <= 100);
        Self {
            enqueue_percent,
            ops,
        }
    }
}

/// The outcome of one queue workload run.
#[derive(Debug, Clone)]
pub struct QueueRunResult {
    /// Operations executed.
    pub ops: u64,
    /// Persistence-instruction counts during the measured interval.
    pub pmem: StatsSnapshot,
    /// Enqueue operations executed.
    pub enqueues: u64,
    /// Dequeues that returned a value.
    pub dequeues_hit: u64,
    /// Dequeues that observed an empty queue.
    pub dequeues_empty: u64,
}

/// Run `cfg` against `queue` on one handle and count what it issued, the
/// handle's closing drain included. Dequeues of an empty queue count as
/// operations (they are real work, and the cheapest place to see FliT's
/// read-side flush elision). Enqueued values are sequence numbers, so bit 63
/// stays clear for link-and-persist's dirty flag.
pub fn run_queue_workload<P: Policy, Q: ConcurrentQueue<P>>(
    queue: &Q,
    cfg: &QueueWorkloadConfig,
) -> QueueRunResult {
    let before = queue.policy().stats_snapshot().unwrap_or_default();
    let (mut enqueues, mut dequeues_hit) = (0, 0);
    let h = queue.db().handle();
    let mut rng = SmallRng::seed_from_u64(SEED);
    for _ in 0..cfg.ops {
        if rng.gen_range(0..100u32) < cfg.enqueue_percent {
            queue.enqueue(&h, enqueues);
            enqueues += 1;
        } else {
            dequeues_hit += u64::from(queue.dequeue(&h).is_some());
        }
    }
    drop(h);
    let after = queue.policy().stats_snapshot().unwrap_or_default();
    QueueRunResult {
        ops: cfg.ops,
        pmem: after.delta_since(&before),
        enqueues,
        dequeues_hit,
        dequeues_empty: cfg.ops - enqueues - dequeues_hit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flit::{FlitDb, FlitPolicy, HashedScheme};
    use flit_datastructs::Automatic;
    use flit_pmem::SimNvram;
    use flit_queues::MsQueue;

    type Queue_ = MsQueue<FlitPolicy<HashedScheme, SimNvram>, Automatic>;

    fn queue() -> Queue_ {
        MsQueue::new(&FlitDb::flit_ht(SimNvram::for_counting()))
    }

    #[test]
    fn mixed_run_accounts_for_every_operation() {
        let q = queue();
        let r = run_queue_workload(&q, &QueueWorkloadConfig::new(50, 3_000));
        assert_eq!(r.ops, 3_000);
        assert!(r.enqueues > 0 && r.dequeues_hit > 0);
        // Conservation: whatever was enqueued is either dequeued or still queued.
        assert_eq!(r.enqueues, r.dequeues_hit + q.len() as u64);
        assert!(r.pmem.pwbs > 0, "updates must flush");
    }

    #[test]
    fn dequeue_only_workload_on_empty_queue_elides_all_flushes_with_flit() {
        // enqueue_percent 0: every operation is a dequeue-of-empty.
        let r = run_queue_workload(&queue(), &QueueWorkloadConfig::new(0, 1_000));
        assert_eq!(r.dequeues_empty, 1_000);
        assert_eq!(r.pmem.pwbs, 0, "FliT pays no pwbs on read-only traffic");
        assert_eq!(
            r.pmem.pfences, 0,
            "clean completion fences are elided: read-only traffic is free"
        );
        assert_eq!(r.pmem.elided_pfences, 1_000, "one elided fence per op");
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = QueueWorkloadConfig::new(60, 400);
        let run = || {
            let r = run_queue_workload(&queue(), &cfg);
            (r.enqueues, r.dequeues_hit, r.pmem.pwbs, r.pmem.pfences)
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic]
    fn enqueue_percent_must_be_a_percentage() {
        let _ = QueueWorkloadConfig::new(101, 1);
    }
}

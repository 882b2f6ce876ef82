//! The multi-threaded queue throughput runner.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use flit::Policy;
use flit_pmem::StatsSnapshot;
use flit_queues::ConcurrentQueue;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::queue_config::{QueueShape, QueueWorkloadConfig};

/// The outcome of one measured queue workload run.
#[derive(Debug, Clone)]
pub struct QueueRunResult {
    /// Total operations executed across all threads.
    pub total_ops: u64,
    /// Wall-clock time of the measured interval.
    pub elapsed: Duration,
    /// Throughput in million operations per second.
    pub mops: f64,
    /// Persistence-instruction counts during the measured interval.
    pub pmem: StatsSnapshot,
    /// Enqueue operations executed.
    pub enqueues: u64,
    /// Dequeues that returned a value.
    pub dequeues_hit: u64,
    /// Dequeues that observed an empty queue.
    pub dequeues_empty: u64,
}

impl QueueRunResult {
    /// `pwb` instructions per operation.
    pub fn pwbs_per_op(&self) -> f64 {
        self.pmem.pwbs_per_op(self.total_ops)
    }

    /// `pfence` instructions per operation.
    pub fn pfences_per_op(&self) -> f64 {
        self.pmem.pfences_per_op(self.total_ops)
    }
}

/// Pre-fill `queue` with `cfg.prefill` values before the measured interval.
///
/// The tag keeps bit 63 clear so prefill values work with every policy, including
/// link-and-persist (which reserves the top bit as its dirty flag).
pub fn prefill_queue<P: Policy, Q: ConcurrentQueue<P>>(queue: &Q, cfg: &QueueWorkloadConfig) {
    let h = queue.db().handle();
    for i in 0..cfg.prefill {
        queue.enqueue(&h, 0x7EED_0000_0000_0000 | i);
    }
}

/// Values are tagged with the producing thread in the top 32 bits so correctness
/// checks can verify per-producer FIFO order.
#[inline]
fn tagged(tid: usize, seq: u64) -> u64 {
    ((tid as u64) << 32) | (seq & 0xFFFF_FFFF)
}

/// Run one queue workload configuration against `queue` and measure it.
///
/// Threads are spawned for the measured interval only; use [`prefill_queue`] first if
/// a warm queue is wanted. Dequeues of an empty queue count as operations (they are
/// real work — and the cheapest place to see FliT's read-side flush elision).
pub fn run_queue_workload<P: Policy, Q: ConcurrentQueue<P>>(
    queue: &Q,
    cfg: &QueueWorkloadConfig,
) -> QueueRunResult {
    let before = queue.policy().stats_snapshot().unwrap_or_default();
    let enqueues = AtomicU64::new(0);
    let dequeues_hit = AtomicU64::new(0);
    let dequeues_empty = AtomicU64::new(0);

    let start = Instant::now();
    std::thread::scope(|scope| {
        for tid in 0..cfg.threads() {
            let enqueues = &enqueues;
            let dequeues_hit = &dequeues_hit;
            let dequeues_empty = &dequeues_empty;
            let queue = &queue;
            scope.spawn(move || {
                // One explicit session per worker thread: its persist epoch is what
                // the elision decisions of this thread's operations consult.
                let h = queue.db().handle();
                let mut rng = SmallRng::seed_from_u64(cfg.seed.wrapping_add(tid as u64 * 0x9E37));
                let mut local_enq = 0u64;
                let mut local_hit = 0u64;
                let mut local_empty = 0u64;
                let mut seq = 0u64;

                match cfg.shape {
                    QueueShape::Mixed {
                        enqueue_percent, ..
                    } => {
                        let mut burst_left = 0u64;
                        let mut enqueueing = true;
                        for _ in 0..cfg.ops_per_thread {
                            if burst_left == 0 {
                                enqueueing = rng.gen_range(0..100u32) < enqueue_percent;
                                burst_left = cfg.burst;
                            }
                            burst_left -= 1;
                            if enqueueing {
                                queue.enqueue(&h, tagged(tid, seq));
                                seq += 1;
                                local_enq += 1;
                            } else if queue.dequeue(&h).is_some() {
                                local_hit += 1;
                            } else {
                                local_empty += 1;
                            }
                        }
                    }
                    QueueShape::ProducerConsumer { producers, .. } => {
                        let is_producer = tid < producers;
                        let mut burst_left = cfg.burst;
                        for _ in 0..cfg.ops_per_thread {
                            if is_producer {
                                queue.enqueue(&h, tagged(tid, seq));
                                seq += 1;
                                local_enq += 1;
                            } else if queue.dequeue(&h).is_some() {
                                local_hit += 1;
                            } else {
                                local_empty += 1;
                            }
                            // Bursty pacing: yield between bursts so the roles
                            // interleave rather than running in two solid phases.
                            burst_left -= 1;
                            if burst_left == 0 {
                                burst_left = cfg.burst;
                                std::thread::yield_now();
                            }
                        }
                    }
                }

                enqueues.fetch_add(local_enq, Ordering::Relaxed);
                dequeues_hit.fetch_add(local_hit, Ordering::Relaxed);
                dequeues_empty.fetch_add(local_empty, Ordering::Relaxed);
            });
        }
    });
    let elapsed = start.elapsed();

    let after = queue.policy().stats_snapshot().unwrap_or_default();
    let total_ops = cfg.total_ops();
    QueueRunResult {
        total_ops,
        elapsed,
        mops: total_ops as f64 / elapsed.as_secs_f64() / 1e6,
        pmem: after.delta_since(&before),
        enqueues: enqueues.into_inner(),
        dequeues_hit: dequeues_hit.into_inner(),
        dequeues_empty: dequeues_empty.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue_config::QueueWorkloadConfig;
    use flit::{FlitDb, FlitPolicy, HashedScheme};
    use flit_datastructs::Automatic;
    use flit_pmem::{LatencyModel, SimNvram};
    use flit_queues::MsQueue;

    fn backend() -> SimNvram {
        SimNvram::builder().latency(LatencyModel::none()).build()
    }

    type Policy_ = FlitPolicy<HashedScheme, SimNvram>;
    type Queue_ = MsQueue<Policy_, Automatic>;

    #[test]
    fn prefill_reaches_the_requested_size() {
        let cfg = QueueWorkloadConfig::mixed(2, 50, 100).with_prefill(37);
        let q: Queue_ = MsQueue::new(&FlitDb::flit_ht(backend()));
        prefill_queue(&q, &cfg);
        assert_eq!(q.len() as u64, 37);
    }

    #[test]
    fn mixed_run_accounts_for_every_operation() {
        let cfg = QueueWorkloadConfig::mixed(3, 50, 1_000).with_burst(4);
        let q: Queue_ = MsQueue::new(&FlitDb::flit_ht(backend()));
        let r = run_queue_workload(&q, &cfg);
        assert_eq!(r.total_ops, 3_000);
        assert_eq!(r.enqueues + r.dequeues_hit + r.dequeues_empty, 3_000);
        // Conservation: whatever was enqueued is either dequeued or still queued.
        assert_eq!(r.enqueues, r.dequeues_hit + q.len() as u64);
        assert!(r.mops > 0.0);
        assert!(r.pmem.pwbs > 0, "updates must flush");
    }

    #[test]
    fn producer_consumer_roles_are_exclusive() {
        let cfg = QueueWorkloadConfig::producer_consumer(2, 2, 500).with_burst(16);
        let q: Queue_ = MsQueue::new(&FlitDb::flit_ht(backend()));
        let r = run_queue_workload(&q, &cfg);
        assert_eq!(r.total_ops, 2_000);
        assert_eq!(r.enqueues, 1_000, "producers only enqueue");
        assert_eq!(
            r.dequeues_hit + r.dequeues_empty,
            1_000,
            "consumers only dequeue"
        );
        assert_eq!(r.enqueues, r.dequeues_hit + q.len() as u64);
    }

    #[test]
    fn dequeue_only_workload_on_empty_queue_elides_all_flushes_with_flit() {
        // enqueue_percent 0, no prefill: every operation is a dequeue-of-empty.
        let cfg = QueueWorkloadConfig::mixed(2, 0, 500);
        let q: Queue_ = MsQueue::new(&FlitDb::flit_ht(backend()));
        let r = run_queue_workload(&q, &cfg);
        assert_eq!(r.dequeues_empty, 1_000);
        assert_eq!(r.pmem.pwbs, 0, "FliT pays no pwbs on read-only traffic");
        assert_eq!(
            r.pmem.pfences, 0,
            "clean completion fences are elided: read-only traffic is free"
        );
        assert_eq!(r.pmem.elided_pfences, 1_000, "one elided fence per op");
    }

    #[test]
    fn results_are_reproducible_with_one_thread() {
        let cfg = QueueWorkloadConfig::mixed(1, 60, 400)
            .with_seed(99)
            .with_burst(2);
        let run = || {
            let q: Queue_ = MsQueue::new(&FlitDb::flit_ht(backend()));
            let r = run_queue_workload(&q, &cfg);
            (r.enqueues, r.dequeues_hit, r.dequeues_empty)
        };
        assert_eq!(run(), run());
    }
}

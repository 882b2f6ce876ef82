//! The multi-threaded throughput runner.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use flit::Policy;
use flit_datastructs::ConcurrentMap;
use flit_pmem::StatsSnapshot;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::config::WorkloadConfig;

/// The outcome of one measured workload run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Total operations executed across all threads.
    pub total_ops: u64,
    /// Wall-clock time of the measured interval.
    pub elapsed: Duration,
    /// Throughput in million operations per second.
    pub mops: f64,
    /// Persistence-instruction counts during the measured interval (zero for the
    /// non-persistent baseline).
    pub pmem: StatsSnapshot,
    /// Lookups that found their key (sanity signal that the prefill worked: around
    /// half the lookups should hit for the paper's workloads).
    pub hits: u64,
    /// Successful insert operations.
    pub inserts_ok: u64,
    /// Successful remove operations.
    pub removes_ok: u64,
}

impl RunResult {
    /// `pwb` instructions per operation (Figure 9's metric).
    pub fn pwbs_per_op(&self) -> f64 {
        self.pmem.pwbs_per_op(self.total_ops)
    }

    /// `pfence` instructions per operation.
    pub fn pfences_per_op(&self) -> f64 {
        self.pmem.pfences_per_op(self.total_ops)
    }
}

/// Pre-fill `map` with `cfg.prefill` distinct keys drawn from the key range, as the
/// paper does before each measured run.
pub fn prefill<P: Policy, M: ConcurrentMap<P>>(map: &M, cfg: &WorkloadConfig) {
    let h = map.db().handle();
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x5EED_F111);
    let mut inserted = 0u64;
    while inserted < cfg.prefill.min(cfg.key_range) {
        let key = rng.gen_range(0..cfg.key_range);
        if map.insert(&h, key, key.wrapping_mul(3)) {
            inserted += 1;
        }
    }
}

/// Run one workload configuration against `map` and measure it.
///
/// Threads are spawned for the measured interval only; the map must already be
/// prefilled (see [`prefill`]) if a warm structure is wanted.
pub fn run_workload<P: Policy, M: ConcurrentMap<P>>(map: &M, cfg: &WorkloadConfig) -> RunResult {
    let before = map.policy().stats_snapshot().unwrap_or_default();
    let hits = AtomicU64::new(0);
    let inserts_ok = AtomicU64::new(0);
    let removes_ok = AtomicU64::new(0);

    let start = Instant::now();
    std::thread::scope(|scope| {
        for tid in 0..cfg.threads {
            let hits = &hits;
            let inserts_ok = &inserts_ok;
            let removes_ok = &removes_ok;
            let map = &map;
            scope.spawn(move || {
                // One explicit session per worker thread: its persist epoch is what
                // the elision decisions of this thread's operations consult.
                let h = map.db().handle();
                let mut rng = SmallRng::seed_from_u64(cfg.seed.wrapping_add(tid as u64 * 0x9E37));
                let mut local_hits = 0u64;
                let mut local_ins = 0u64;
                let mut local_rem = 0u64;
                for _ in 0..cfg.ops_per_thread {
                    let key = rng.gen_range(0..cfg.key_range);
                    let roll = rng.gen_range(0..100u32);
                    if roll < cfg.update_percent {
                        // Updates split 50/50 between inserts and deletes.
                        if roll % 2 == 0 {
                            if map.insert(&h, key, key ^ 0xABCD) {
                                local_ins += 1;
                            }
                        } else if map.remove(&h, key) {
                            local_rem += 1;
                        }
                    } else if map.get(&h, key).is_some() {
                        local_hits += 1;
                    }
                }
                hits.fetch_add(local_hits, Ordering::Relaxed);
                inserts_ok.fetch_add(local_ins, Ordering::Relaxed);
                removes_ok.fetch_add(local_rem, Ordering::Relaxed);
            });
        }
    });
    let elapsed = start.elapsed();

    let after = map.policy().stats_snapshot().unwrap_or_default();
    let total_ops = cfg.total_ops();
    RunResult {
        total_ops,
        elapsed,
        mops: total_ops as f64 / elapsed.as_secs_f64() / 1e6,
        pmem: after.delta_since(&before),
        hits: hits.into_inner(),
        inserts_ok: inserts_ok.into_inner(),
        removes_ok: removes_ok.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flit::{FlitDb, FlitPolicy, HashedScheme};
    use flit_datastructs::{Automatic, HarrisList, HashTable, NatarajanTree};
    use flit_pmem::{LatencyModel, SimNvram};

    fn backend() -> SimNvram {
        SimNvram::builder().latency(LatencyModel::none()).build()
    }

    type Policy_ = FlitPolicy<HashedScheme, SimNvram>;

    #[test]
    fn prefill_reaches_the_requested_size() {
        let cfg = WorkloadConfig::new(1_000, 5, 2, 100);
        let map: NatarajanTree<Policy_, Automatic> =
            NatarajanTree::with_capacity(&FlitDb::flit_ht(backend()), 1_000);
        prefill(&map, &cfg);
        assert_eq!(map.len() as u64, cfg.prefill);
    }

    #[test]
    fn read_only_workload_reports_zero_read_side_pwbs() {
        let cfg = WorkloadConfig::new(256, 0, 2, 2_000);
        let map: HashTable<Policy_, Automatic> =
            HashTable::with_capacity(&FlitDb::flit_ht(backend()), 256);
        prefill(&map, &cfg);
        let result = run_workload(&map, &cfg);
        assert_eq!(result.total_ops, 4_000);
        assert_eq!(
            result.pmem.pwbs, 0,
            "0% updates must execute no pwbs with FliT"
        );
        assert!(result.hits > 0, "prefilled keys should be found");
        assert!(result.mops > 0.0);
    }

    #[test]
    fn update_workload_counts_pwbs_and_mutations() {
        let cfg = WorkloadConfig::new(128, 50, 2, 1_000);
        let map: HarrisList<Policy_, Automatic> =
            HarrisList::with_capacity(&FlitDb::flit_ht(backend()), 128);
        prefill(&map, &cfg);
        let result = run_workload(&map, &cfg);
        assert!(result.pmem.pwbs > 0);
        assert!(result.pmem.pfences > 0);
        assert!(result.inserts_ok + result.removes_ok > 0);
        assert!(result.pwbs_per_op() > 0.0);
        assert!(result.pfences_per_op() > 0.0);
    }

    #[test]
    fn results_are_reproducible_in_structure() {
        // Same seed, same config: the number of successful mutations must match
        // between runs on a freshly prefilled structure (the interleaving differs, but
        // with one thread the run is deterministic).
        let cfg = WorkloadConfig::new(64, 20, 1, 500);
        let run = |_: ()| {
            let map: HarrisList<Policy_, Automatic> =
                HarrisList::with_capacity(&FlitDb::flit_ht(backend()), 64);
            prefill(&map, &cfg);
            let r = run_workload(&map, &cfg);
            (r.hits, r.inserts_ok, r.removes_ok)
        };
        assert_eq!(run(()), run(()));
    }
}

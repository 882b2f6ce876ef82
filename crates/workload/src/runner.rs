//! The map workload and its driver: one handle on the calling thread, a seeded
//! operation stream, exact instruction counts.

use flit::Policy;
use flit_datastructs::ConcurrentMap;
use flit_pmem::StatsSnapshot;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One map workload, mirroring the parameters of the paper's evaluation setup
/// (§6.1): key range and update percentage (split 50/50 between inserts and
/// deletes) over a structure prefilled to half its key range.
///
/// The paper runs each configuration for 5 wall-clock seconds on 48 threads;
/// this reproduction counts instructions instead, so a fixed operation count on
/// one handle makes every run issue the same `pwb`/`pfence` stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadConfig {
    /// Keys are drawn uniformly from `0..key_range`.
    pub key_range: u64,
    /// Percentage of operations that are updates (0, 5 and 50 in the paper); updates
    /// are split evenly between inserts and removes.
    pub update_percent: u32,
    /// Operations in the measured interval.
    pub ops: u64,
}

/// The seed of every map workload's operation stream.
const SEED: u64 = 0xF117_5EED;

impl WorkloadConfig {
    /// A configuration over `0..key_range` with `update_percent` % updates.
    pub fn new(key_range: u64, update_percent: u32, ops: u64) -> Self {
        assert!(update_percent <= 100);
        assert!(key_range > 0);
        Self {
            key_range,
            update_percent,
            ops,
        }
    }
}

/// The outcome of one workload run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Operations executed.
    pub ops: u64,
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
        self.pmem.pwbs_per_op(self.ops)
    }

    /// `pfence` instructions per operation.
    pub fn pfences_per_op(&self) -> f64 {
        self.pmem.pfences_per_op(self.ops)
    }
}

/// Pre-fill `map` with `cfg.key_range / 2` distinct keys drawn from the key
/// range, as the paper does before each measured run.
pub fn prefill<P: Policy, M: ConcurrentMap<P>>(map: &M, cfg: &WorkloadConfig) {
    let h = map.db().handle();
    let mut rng = SmallRng::seed_from_u64(SEED ^ 0x5EED_F111);
    let mut inserted = 0u64;
    while inserted < cfg.key_range / 2 {
        let key = rng.gen_range(0..cfg.key_range);
        if map.insert(&h, key, key.wrapping_mul(3)) {
            inserted += 1;
        }
    }
}

/// Run `cfg` against `map` on one handle and count what it issued, the handle's
/// closing drain included. Call [`prefill`] first if a warm structure is wanted.
pub fn run_workload<P: Policy, M: ConcurrentMap<P>>(map: &M, cfg: &WorkloadConfig) -> RunResult {
    let before = map.policy().stats_snapshot().unwrap_or_default();
    let (mut hits, mut inserts_ok, mut removes_ok) = (0, 0, 0);
    let h = map.db().handle();
    let mut rng = SmallRng::seed_from_u64(SEED);
    for _ in 0..cfg.ops {
        let key = rng.gen_range(0..cfg.key_range);
        let roll = rng.gen_range(0..100u32);
        if roll < cfg.update_percent {
            // Updates split 50/50 between inserts and deletes.
            if roll % 2 == 0 {
                inserts_ok += u64::from(map.insert(&h, key, key ^ 0xABCD));
            } else {
                removes_ok += u64::from(map.remove(&h, key));
            }
        } else {
            hits += u64::from(map.get(&h, key).is_some());
        }
    }
    drop(h);
    let after = map.policy().stats_snapshot().unwrap_or_default();
    RunResult {
        ops: cfg.ops,
        pmem: after.delta_since(&before),
        hits,
        inserts_ok,
        removes_ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flit::{FlitDb, FlitPolicy, HashedScheme};
    use flit_datastructs::{Automatic, HarrisList, HashTable, NatarajanTree};
    use flit_pmem::SimNvram;

    type Policy_ = FlitPolicy<HashedScheme, SimNvram>;

    fn db() -> FlitDb<Policy_> {
        FlitDb::flit_ht(SimNvram::for_counting())
    }

    #[test]
    fn prefill_reaches_half_the_key_range() {
        let cfg = WorkloadConfig::new(1_000, 5, 100);
        let map: NatarajanTree<Policy_, Automatic> = NatarajanTree::with_capacity(&db(), 1_000);
        prefill(&map, &cfg);
        assert_eq!(map.len(), 500);
    }

    #[test]
    fn read_only_workload_reports_zero_read_side_pwbs() {
        let cfg = WorkloadConfig::new(256, 0, 4_000);
        let map: HashTable<Policy_, Automatic> = HashTable::with_capacity(&db(), 256);
        prefill(&map, &cfg);
        let result = run_workload(&map, &cfg);
        assert_eq!(result.ops, 4_000);
        assert_eq!(
            result.pmem.pwbs, 0,
            "0% updates must execute no pwbs with FliT"
        );
        assert!(result.hits > 0, "prefilled keys should be found");
    }

    #[test]
    fn update_workload_counts_pwbs_and_mutations() {
        let cfg = WorkloadConfig::new(128, 50, 2_000);
        let map: HarrisList<Policy_, Automatic> = HarrisList::with_capacity(&db(), 128);
        prefill(&map, &cfg);
        let result = run_workload(&map, &cfg);
        assert!(result.pmem.pwbs > 0);
        assert!(result.pmem.pfences > 0);
        assert!(result.inserts_ok + result.removes_ok > 0);
        assert!(result.pwbs_per_op() > 0.0);
        assert!(result.pfences_per_op() > 0.0);
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = WorkloadConfig::new(64, 20, 500);
        let run = || {
            let map: HarrisList<Policy_, Automatic> = HarrisList::with_capacity(&db(), 64);
            prefill(&map, &cfg);
            let r = run_workload(&map, &cfg);
            (r.hits, r.inserts_ok, r.removes_ok, r.pmem.pwbs)
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic]
    fn update_percent_must_be_a_percentage() {
        let _ = WorkloadConfig::new(100, 101, 1);
    }
}

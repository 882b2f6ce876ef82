//! End-to-end integration tests: every data structure, under every durability method
//! and persistence policy, behaves like a map — sequentially against a model, and
//! without losing keys under concurrency.

use flit::{presets, FlitDb, Policy};
use flit_datastructs::{
    Automatic, ConcurrentMap, Durability, HarrisList, HashTable, Manual, NatarajanTree, NvTraverse,
    SequentialMap, SkipList,
};
use flit_pmem::{LatencyModel, SimNvram};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn backend() -> SimNvram {
    SimNvram::builder().latency(LatencyModel::none()).build()
}

/// Random mixed workload against the sequential model.
fn model_check<P: Policy, M: ConcurrentMap<P>>(db: &FlitDb<P>, seed: u64) {
    let map = M::with_capacity(db, 128);
    let h = db.handle();
    let model = SequentialMap::new();
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..3_000 {
        let key = rng.gen_range(0..96u64);
        match rng.gen_range(0..3u32) {
            0 => assert_eq!(map.insert(&h, key, key * 7), model.insert(key, key * 7)),
            1 => assert_eq!(map.remove(&h, key), model.remove(key)),
            _ => assert_eq!(map.get(&h, key), model.get(key)),
        }
    }
    assert_eq!(map.len(), model.len());
}

fn model_check_all_durabilities<P: Policy>(mk: impl Fn() -> FlitDb<P>) {
    fn for_dur<P: Policy, D: Durability>(db: FlitDb<P>) {
        model_check::<P, HarrisList<P, D>>(&db, 1);
        model_check::<P, HashTable<P, D>>(&db, 2);
        model_check::<P, NatarajanTree<P, D>>(&db, 3);
        model_check::<P, SkipList<P, D>>(&db, 4);
    }
    for_dur::<P, Automatic>(mk());
    for_dur::<P, NvTraverse>(mk());
    for_dur::<P, Manual>(mk());
}

#[test]
fn all_structures_match_the_model_with_flit_ht() {
    model_check_all_durabilities(|| FlitDb::flit_ht(backend()));
}

#[test]
fn all_structures_match_the_model_with_flit_adjacent() {
    model_check_all_durabilities(|| FlitDb::create(presets::flit_adjacent(backend())));
}

#[test]
fn all_structures_match_the_model_with_plain() {
    model_check_all_durabilities(|| FlitDb::create(presets::plain(backend())));
}

#[test]
fn all_structures_match_the_model_with_cacheline_counters() {
    model_check_all_durabilities(|| FlitDb::create(presets::flit_cacheline(backend())));
}

#[test]
fn all_structures_match_the_model_with_no_persist() {
    model_check_all_durabilities(|| FlitDb::create(presets::no_persist()));
}

#[test]
fn list_skiplist_hashtable_match_the_model_with_link_and_persist() {
    // The BST is excluded, as in the paper: it needs both low pointer bits.
    let mk = || FlitDb::create(presets::link_and_persist(backend()));
    model_check::<_, HarrisList<_, Automatic>>(&mk(), 11);
    model_check::<_, SkipList<_, Automatic>>(&mk(), 12);
    model_check::<_, HashTable<_, Automatic>>(&mk(), 13);
    model_check::<_, HarrisList<_, Manual>>(&mk(), 14);
}

/// Concurrency: disjoint key ranges per thread must never lose or invent keys.
fn concurrent_check<P: Policy, M: ConcurrentMap<P> + 'static>(db: &FlitDb<P>) {
    let map = std::sync::Arc::new(M::with_capacity(db, 4096));
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let map = std::sync::Arc::clone(&map);
            s.spawn(move || {
                let h = map.db().handle();
                let base = t * 1_000;
                for k in base..base + 250 {
                    assert!(map.insert(&h, k, k + 1));
                }
                for k in (base..base + 250).step_by(5) {
                    assert!(map.remove(&h, k));
                }
            });
        }
    });
    let h = db.handle();
    assert_eq!(map.len(), 4 * 200);
    for t in 0..4u64 {
        let base = t * 1_000;
        assert_eq!(map.get(&h, base), None);
        assert_eq!(map.get(&h, base + 1), Some(base + 2));
    }
}

#[test]
fn concurrent_consistency_across_structures() {
    concurrent_check::<_, HarrisList<_, Automatic>>(&FlitDb::flit_ht(backend()));
    concurrent_check::<_, HashTable<_, NvTraverse>>(&FlitDb::flit_ht(backend()));
    concurrent_check::<_, NatarajanTree<_, Manual>>(&FlitDb::create(presets::flit_adjacent(
        backend(),
    )));
    concurrent_check::<_, SkipList<_, Automatic>>(&FlitDb::create(presets::link_and_persist(
        backend(),
    )));
}

//! End-to-end integration tests: every applicable map subject of the case
//! matrix (every structure, the HAMT included, under every durability method
//! and persistence policy) behaves like a map — sequentially against a model,
//! and without losing keys under concurrency.

use flit::{presets, CommitMode, FlitDb, Policy};
use flit_datastructs::{
    Automatic, ConcurrentMap, Durability, HarrisList, HashTable, Manual, NatarajanTree, NvTraverse,
    RecoverInImage, SequentialMap, SkipList,
};
use flit_pmem::{LatencyModel, SimNvram};
use flit_workload::{PolicyKind, StructureKind, Subject, SubjectVisitor};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn backend() -> SimNvram {
    SimNvram::builder().latency(LatencyModel::none()).build()
}

/// Operations in one [`model_check`] run.
const OPS: u64 = 3_000;

/// Random mixed workload against the sequential model. Returns the obligations
/// the handle enqueued: one per operation under `Batched`, none under
/// `Immediate`.
fn model_check<P: Policy, M: ConcurrentMap<P>>(db: &FlitDb<P>, seed: u64) -> u64 {
    let map = M::with_capacity(db, 128);
    let h = db.handle();
    let model = SequentialMap::new();
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..OPS {
        let key = rng.gen_range(0..96u64);
        match rng.gen_range(0..3u32) {
            0 => assert_eq!(map.insert(&h, key, key * 7), model.insert(key, key * 7)),
            1 => assert_eq!(map.remove(&h, key), model.remove(key)),
            _ => assert_eq!(map.get(&h, key), model.get(key)),
        }
    }
    assert_eq!(map.len(), model.len());
    h.enqueued_obligations()
}

/// [`model_check`] on a subject's map, on a fresh database, once per commit
/// mode. The `Batched(8)` run counts the handle's obligations: every
/// operation, a read or a failed update included, completes exactly once.
struct ModelCheck(u64);

impl SubjectVisitor for ModelCheck {
    type Output = ();

    fn map<P: Policy<Backend = SimNvram>, M: ConcurrentMap<P> + RecoverInImage>(
        self,
        make: impl Fn(SimNvram) -> P,
    ) {
        model_check::<P, M>(&FlitDb::create(make(backend())), self.0);
        let batched = FlitDb::builder(make(backend()))
            .commit_mode(CommitMode::Batched(8))
            .build();
        assert_eq!(model_check::<P, M>(&batched, self.0), OPS, "{}", M::NAME);
    }

    fn queue<P: Policy<Backend = SimNvram>, D: Durability>(self, _make: impl Fn(SimNvram) -> P) {
        unreachable!("only map subjects are model-checked");
    }
}

/// Model-check every applicable map subject under `policy`, the broken
/// control included (it is linearizable; it only fails to persist), and
/// return how many there were.
fn model_check_every_map(policy: PolicyKind) -> usize {
    let subjects = Subject::all()
        .filter(|s| s.policy == policy && s.structure != StructureKind::MsQueue)
        .zip(1..);
    let mut checked = 0;
    for (subject, seed) in subjects {
        subject
            .visit(1 << 20, ModelCheck(seed))
            .expect("Subject::all yields applicable subjects");
        checked += 1;
    }
    checked
}

#[test]
fn all_structures_match_the_model_with_flit_ht() {
    assert_eq!(model_check_every_map(PolicyKind::FlitHt), 18);
}

#[test]
fn all_structures_match_the_model_with_flit_adjacent() {
    assert_eq!(model_check_every_map(PolicyKind::FlitAdjacent), 18);
}

#[test]
fn all_structures_match_the_model_with_plain() {
    assert_eq!(model_check_every_map(PolicyKind::Plain), 18);
}

#[test]
fn all_structures_match_the_model_with_cacheline_counters() {
    assert_eq!(model_check_every_map(PolicyKind::FlitCacheLine), 18);
}

/// `no_persist` is FliT over `NullPmem`, and every subject of the case matrix
/// runs over `SimNvram`, so it is not a subject: its model check is a direct
/// call per structure and method.
#[test]
fn all_structures_match_the_model_with_no_persist() {
    fn for_dur<D: Durability>() {
        let db = FlitDb::create(presets::no_persist());
        model_check::<_, HarrisList<_, D>>(&db, 1);
        model_check::<_, HashTable<_, D>>(&db, 2);
        model_check::<_, NatarajanTree<_, D>>(&db, 3);
        model_check::<_, SkipList<_, D>>(&db, 4);
    }
    for_dur::<Automatic>();
    for_dur::<NvTraverse>();
    for_dur::<Manual>();
}

/// Every structure but the BST, as in the paper (it needs both low pointer
/// bits), under every method; the HAMT included.
#[test]
fn list_skiplist_hashtable_match_the_model_with_link_and_persist() {
    assert_eq!(model_check_every_map(PolicyKind::LinkPersist), 14);
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

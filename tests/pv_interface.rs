//! Integration tests for the P-V Interface guarantees, exercised through the public
//! API exactly as a library user would.

use flit::{presets, FlitDb, FlitPolicy, HashedScheme, PFlag, PersistWord, Policy};
use flit_datastructs::{Automatic, ConcurrentMap, HarrisList, HashTable, NatarajanTree};
use flit_pmem::{LatencyModel, SimNvram};

fn backend() -> SimNvram {
    SimNvram::builder().latency(LatencyModel::none()).build()
}

type HtPolicy = FlitPolicy<HashedScheme, SimNvram>;

/// Condition 2/4: a completed p-store is durable before its operation completes.
#[test]
fn completed_p_stores_are_durable() {
    let nvram = SimNvram::for_crash_testing();
    let db = FlitDb::flit_ht(nvram.clone());
    let h = db.handle();
    let word = <HtPolicy as Policy>::Word::<u64>::new(0);
    for i in 1..=50u64 {
        word.store(&h, i, PFlag::Persisted);
        h.operation_completion();
        assert_eq!(
            nvram.tracker().unwrap().persisted_value(word.addr()),
            Some(i),
            "value {i} must be durable once the operation completed"
        );
    }
}

/// V-stores stay volatile until something forces them (they add no dependencies).
#[test]
fn v_stores_are_not_forced_to_persist() {
    let nvram = SimNvram::for_crash_testing();
    let db = FlitDb::flit_ht(nvram.clone());
    let h = db.handle();
    let word = <HtPolicy as Policy>::Word::<u64>::new(0);
    word.store(&h, 7, PFlag::Volatile);
    h.operation_completion();
    assert_eq!(nvram.tracker().unwrap().persisted_value(word.addr()), None);
    assert_eq!(
        nvram.tracker().unwrap().volatile_value(word.addr()),
        Some(7)
    );
}

/// Condition 3: a p-load that observes a concurrent p-store's value flushes the
/// location, so the reader's later operations can never depend on a lost value.
#[test]
fn tagged_p_load_flushes_the_location() {
    let nvram = SimNvram::for_crash_testing();
    let db = FlitDb::flit_ht(nvram.clone());
    let h = db.handle();
    let scheme = db.policy().scheme().clone();
    let word = <HtPolicy as Policy>::Word::<u64>::new(5);

    // Simulate a writer paused between its store and its flush: the location is
    // tagged and the new value is only in volatile memory.
    scheme.begin_store(&(), word.addr());
    word.store_direct(9);
    nvram.record_store(word.addr() as *const u8, 9);
    assert_eq!(nvram.tracker().unwrap().persisted_value(word.addr()), None);

    // The reader must flush on its own; after its fence the value is durable.
    use flit::TagScheme;
    use flit_pmem::PmemBackend;
    let observed = word.load(&h, PFlag::Persisted);
    h.pmem().pfence();
    assert_eq!(observed, 9);
    assert_eq!(
        nvram.tracker().unwrap().persisted_value(word.addr()),
        Some(9)
    );
    scheme.end_store(&(), word.addr());
}

/// The read-side elision claim in miniature: a read-only workload on a FliT structure
/// performs no pwbs at all, while the plain transformation flushes on every p-load.
#[test]
fn zero_update_workloads_flush_nothing_with_flit() {
    let flit_backend = backend();
    let plain_backend = backend();
    let flit_db = FlitDb::flit_ht(flit_backend.clone());
    let plain_db = FlitDb::create(presets::plain(plain_backend.clone()));
    let hf = flit_db.handle();
    let hp = plain_db.handle();
    let flit_map: NatarajanTree<_, Automatic> = NatarajanTree::with_capacity(&flit_db, 1024);
    let plain_map: NatarajanTree<_, Automatic> = NatarajanTree::with_capacity(&plain_db, 1024);
    for k in 0..512u64 {
        flit_map.insert(&hf, k, k);
        plain_map.insert(&hp, k, k);
    }
    let flit_before = flit_backend.stats().snapshot();
    let plain_before = plain_backend.stats().snapshot();
    for k in 0..512u64 {
        assert_eq!(flit_map.get(&hf, k), Some(k));
        assert_eq!(plain_map.get(&hp, k), Some(k));
    }
    let flit_delta = flit_backend.stats().snapshot().delta_since(&flit_before);
    let plain_delta = plain_backend.stats().snapshot().delta_since(&plain_before);
    assert_eq!(flit_delta.pwbs, 0, "FliT lookups must not flush");
    assert!(
        plain_delta.pwbs >= 512,
        "plain lookups flush every p-load (got {})",
        plain_delta.pwbs
    );
}

/// Lemma 5.1 at system level: after any amount of concurrent work, every flit-counter
/// is back to zero.
#[test]
fn flit_counters_return_to_zero_after_concurrent_work() {
    let scheme = HashedScheme::with_bytes(1 << 16);
    let db = FlitDb::create(FlitPolicy::new(scheme.clone(), backend()));
    let map: std::sync::Arc<HashTable<_, Automatic>> =
        std::sync::Arc::new(HashTable::with_capacity(&db, 256));
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let map = std::sync::Arc::clone(&map);
            let db = &db;
            s.spawn(move || {
                let h = db.handle();
                for i in 0..2_000u64 {
                    let k = (t * 131 + i * 17) % 256;
                    match i % 3 {
                        0 => {
                            map.insert(&h, k, i);
                        }
                        1 => {
                            map.remove(&h, k);
                        }
                        _ => {
                            map.get(&h, k);
                        }
                    }
                }
            });
        }
    });
    assert_eq!(scheme.table().tagged_count(), 0);
}

/// Operations completed on a tracked backend leave a durable footprint proportional to
/// the updates performed (no update is left entirely volatile).
#[test]
fn data_structure_updates_leave_durable_state() {
    let nvram = SimNvram::builder()
        .latency(LatencyModel::none())
        .tracking(true)
        .build();
    let db = FlitDb::flit_ht(nvram.clone());
    let h = db.handle();
    let list: HarrisList<_, Automatic> = HarrisList::with_capacity(&db, 64);
    for k in 0..64u64 {
        assert!(list.insert(&h, k, k));
    }
    let image = nvram.tracker().unwrap().crash_image();
    // Every inserted node published at least its link word durably (plus the node
    // contents flushed before publication).
    assert!(
        image.len() >= 64,
        "expected at least one durable word per insert, got {}",
        image.len()
    );
}

//! Criterion benchmarks of single-threaded map operations per structure and policy.
//!
//! Latency model set to zero so the numbers isolate the instrumentation overhead of
//! each persistence variant on real data-structure code paths.

use criterion::{criterion_group, criterion_main, Criterion};
use flit::{FlitDb, FlitPolicy, HashedScheme, PlainScheme};
use flit_datastructs::{Automatic, ConcurrentMap, HarrisList, HashTable, NatarajanTree, SkipList};
use flit_pmem::SimNvram;
use std::hint::black_box;

const KEYS: u64 = 1024;

fn bench_map<M: ConcurrentMap<FlitPolicy<HashedScheme, SimNvram>>>(c: &mut Criterion, label: &str) {
    let db = FlitDb::flit_ht(SimNvram::for_counting());
    let h = db.handle();
    let map = M::with_capacity(&db, KEYS as usize);
    for k in (0..KEYS).step_by(2) {
        map.insert(&h, k, k);
    }
    let mut group = c.benchmark_group(format!("maps/{label}/flit-HT"));
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(500));
    let mut key = 0u64;
    group.bench_function("get", |b| {
        b.iter(|| {
            key = (key + 7) % KEYS;
            black_box(map.get(&h, key))
        })
    });
    group.bench_function("insert-remove", |b| {
        b.iter(|| {
            key = (key + 13) % KEYS;
            if !map.insert(&h, key, key) {
                map.remove(&h, key);
            }
        })
    });
    group.finish();
}

fn bench_plain_bst(c: &mut Criterion) {
    // The same BST under the plain policy, to show the read-path flush overhead on
    // real traversals even with a free latency model removed (counter accesses only).
    let db = FlitDb::plain(SimNvram::for_counting());
    let h = db.handle();
    let map: NatarajanTree<FlitPolicy<PlainScheme, SimNvram>, Automatic> =
        NatarajanTree::with_capacity(&db, KEYS as usize);
    for k in (0..KEYS).step_by(2) {
        map.insert(&h, k, k);
    }
    let mut group = c.benchmark_group("maps/bst/plain");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(500));
    let mut key = 0u64;
    group.bench_function("get", |b| {
        b.iter(|| {
            key = (key + 7) % KEYS;
            black_box(map.get(&h, key))
        })
    });
    group.finish();
}

fn bench_maps(c: &mut Criterion) {
    bench_map::<HarrisList<_, Automatic>>(c, "list");
    bench_map::<HashTable<_, Automatic>>(c, "hashtable");
    bench_map::<NatarajanTree<_, Automatic>>(c, "bst");
    bench_map::<SkipList<_, Automatic>>(c, "skiplist");
    bench_plain_bst(c);
}

criterion_group!(benches, bench_maps);
criterion_main!(benches);

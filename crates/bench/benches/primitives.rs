//! Criterion micro-benchmarks of the primitive flit-instructions and of single queue
//! operations.
//!
//! These measure the library's own overhead (tag check, counter update), so the
//! simulated-NVRAM latency is set to zero: what remains is exactly the cost a data
//! structure pays per instrumented instruction on top of the raw atomic. The
//! `queue-ops` group measures one enqueue+dequeue pair and the dequeue-of-empty
//! read-only path per policy preset.

use criterion::{criterion_group, criterion_main, Criterion};
use flit::{presets, FlitDb, FlitPolicy, HashedScheme, PFlag, PersistWord, PlainPolicy, Policy};
use flit_datastructs::Automatic;
use flit_pmem::SimNvram;
use flit_queues::{ConcurrentQueue, MsQueue};
use std::hint::black_box;

fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("primitives");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(500));

    // flit-HT
    let ht_db = FlitDb::flit_ht(SimNvram::for_counting());
    let ht = ht_db.handle();
    let w_ht = <FlitPolicy<HashedScheme, SimNvram> as Policy>::Word::<u64>::new(1);
    group.bench_function("flit-HT/p-load-untagged", |b| {
        b.iter(|| black_box(w_ht.load(&ht, PFlag::Persisted)))
    });
    group.bench_function("flit-HT/v-load", |b| {
        b.iter(|| black_box(w_ht.load(&ht, PFlag::Volatile)))
    });
    group.bench_function("flit-HT/p-store", |b| {
        b.iter(|| w_ht.store(&ht, black_box(7), PFlag::Persisted))
    });

    // flit-adjacent
    let adj_db = FlitDb::create(presets::flit_adjacent(SimNvram::for_counting()));
    let adj = adj_db.handle();
    let w_adj = <flit::FlitPolicy<flit::AdjacentScheme, SimNvram> as Policy>::Word::<u64>::new(1);
    group.bench_function("flit-adjacent/p-load-untagged", |b| {
        b.iter(|| black_box(w_adj.load(&adj, PFlag::Persisted)))
    });
    group.bench_function("flit-adjacent/p-store", |b| {
        b.iter(|| w_adj.store(&adj, black_box(7), PFlag::Persisted))
    });

    // plain
    let plain_db = FlitDb::create(presets::plain(SimNvram::for_counting()));
    let plain = plain_db.handle();
    let w_plain = <PlainPolicy<SimNvram> as Policy>::Word::<u64>::new(1);
    group.bench_function("plain/p-load", |b| {
        b.iter(|| black_box(w_plain.load(&plain, PFlag::Persisted)))
    });
    group.bench_function("plain/p-store", |b| {
        b.iter(|| w_plain.store(&plain, black_box(7), PFlag::Persisted))
    });

    // link-and-persist
    let lp_db = FlitDb::create(presets::link_and_persist(SimNvram::for_counting()));
    let lp = lp_db.handle();
    let w_lp = <flit::LinkAndPersistPolicy<SimNvram> as Policy>::Word::<u64>::new(1);
    group.bench_function("link-and-persist/p-load-clean", |b| {
        b.iter(|| black_box(w_lp.load(&lp, PFlag::Persisted)))
    });
    group.bench_function("link-and-persist/p-store", |b| {
        b.iter(|| w_lp.store(&lp, black_box(7), PFlag::Persisted))
    });

    // non-persistent baseline
    let np_db = FlitDb::create(presets::no_persist());
    let np = np_db.handle();
    let w_np = <flit::NoPersistPolicy as Policy>::Word::<u64>::new(1);
    group.bench_function("non-persistent/load", |b| {
        b.iter(|| black_box(w_np.load(&np, PFlag::Persisted)))
    });
    group.bench_function("non-persistent/store", |b| {
        b.iter(|| w_np.store(&np, black_box(7), PFlag::Persisted))
    });

    group.finish();
}

fn bench_queue_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("queue-ops");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(500));

    // Enqueue+dequeue pair: the steady-state cost of one value through the queue.
    let ht_db = FlitDb::flit_ht(SimNvram::for_counting());
    let h_ht = ht_db.handle();
    let ht: MsQueue<FlitPolicy<HashedScheme, SimNvram>, Automatic> = MsQueue::in_db(&ht_db);
    group.bench_function("flit-HT/enqueue-dequeue", |b| {
        b.iter(|| {
            ht.enqueue(&h_ht, black_box(7));
            black_box(ht.dequeue(&h_ht))
        })
    });

    let plain_db = FlitDb::create(presets::plain(SimNvram::for_counting()));
    let h_plain = plain_db.handle();
    let plain: MsQueue<PlainPolicy<SimNvram>, Automatic> = MsQueue::in_db(&plain_db);
    group.bench_function("plain/enqueue-dequeue", |b| {
        b.iter(|| {
            plain.enqueue(&h_plain, black_box(7));
            black_box(plain.dequeue(&h_plain))
        })
    });

    let np_db = FlitDb::create(presets::no_persist());
    let h_np = np_db.handle();
    let np: MsQueue<flit::NoPersistPolicy, Automatic> = MsQueue::in_db(&np_db);
    group.bench_function("non-persistent/enqueue-dequeue", |b| {
        b.iter(|| {
            np.enqueue(&h_np, black_box(7));
            black_box(np.dequeue(&h_np))
        })
    });

    // Dequeue-of-empty: pure read-side path, where FliT elides every flush and the
    // plain transformation pays a pwb per p-load.
    let ht_empty_db = FlitDb::flit_ht(SimNvram::for_counting());
    let h_ht_empty = ht_empty_db.handle();
    let ht_empty: MsQueue<FlitPolicy<HashedScheme, SimNvram>, Automatic> =
        MsQueue::in_db(&ht_empty_db);
    group.bench_function("flit-HT/dequeue-empty", |b| {
        b.iter(|| black_box(ht_empty.dequeue(&h_ht_empty)))
    });
    let plain_empty_db = FlitDb::create(presets::plain(SimNvram::for_counting()));
    let h_plain_empty = plain_empty_db.handle();
    let plain_empty: MsQueue<PlainPolicy<SimNvram>, Automatic> = MsQueue::in_db(&plain_empty_db);
    group.bench_function("plain/dequeue-empty", |b| {
        b.iter(|| black_box(plain_empty.dequeue(&h_plain_empty)))
    });

    group.finish();
}

criterion_group!(benches, bench_primitives, bench_queue_ops);
criterion_main!(benches);

//! End-to-end group-commit semantics through the public API: the handle's
//! obligation counts ([`FlitHandle::enqueued_obligations`] /
//! [`FlitHandle::committed_obligations`]) as the record of acknowledgment,
//! [`FlitHandle::flush`] as the explicit drain, and the acknowledged-operations
//! half of the weaker crash contract — all driven through a real structure,
//! not raw words. (The crash half of the contract — what an *unacknowledged*
//! suffix may lose — is swept exhaustively by the `flit-crashtest` engine; see
//! `tests/sweep.rs` in that crate.)

use flit::{FlitDb, FlitHandle, FlitPolicy, HashedScheme};
use flit_datastructs::{Automatic, ConcurrentMap, HashTable};
use flit_pmem::{CommitMode, SimNvram};

type HtPolicy = FlitPolicy<HashedScheme, SimNvram>;

fn batched_db(nvram: SimNvram, k: usize) -> FlitDb<HtPolicy> {
    FlitDb::builder(FlitPolicy::new(HashedScheme::with_bytes(1 << 14), nvram))
        .commit_mode(CommitMode::Batched(k))
        .build()
}

/// Batch drains across every handle of `db` (the `flit_handle_drains_total`
/// counter).
fn drains(db: &FlitDb<HtPolicy>) -> u64 {
    db.metrics_snapshot()
        .value("flit_handle_drains_total", &[])
        .expect("drain counter")
}

/// `(enqueued, committed)` obligations of `h`.
fn counts(h: &FlitHandle<'_, HtPolicy>) -> (u64, u64) {
    (h.enqueued_obligations(), h.committed_obligations())
}

/// `flush` drains the handle's queue before returning: every completed
/// operation is acknowledged at once, by one drain.
#[test]
fn flush_drains_the_batch_at_once() {
    let nvram = SimNvram::for_crash_testing();
    let db = batched_db(nvram, 64);
    let map: HashTable<HtPolicy, Automatic> = HashTable::with_capacity(&db, 64);
    let h = db.handle();
    for k in 0..10u64 {
        assert!(map.insert(&h, k, k * 2));
    }
    assert_eq!(
        counts(&h),
        (10, 0),
        "a batch of 64 never overflowed on 10 operations"
    );
    let before = drains(&db);
    h.flush();
    assert_eq!(counts(&h), (10, 10));
    assert_eq!(drains(&db), before + 1, "one drain for the whole batch");
}

/// Batch overflow acknowledges mid-stream without any explicit flush: the
/// committed count moves in whole batches.
#[test]
fn batch_overflow_acknowledges_mid_stream() {
    let nvram = SimNvram::for_crash_testing();
    let db = batched_db(nvram, 4);
    let map: HashTable<HtPolicy, Automatic> = HashTable::with_capacity(&db, 64);
    let h = db.handle();
    for k in 0..6u64 {
        assert!(map.insert(&h, k, k));
    }
    assert_eq!(
        counts(&h),
        (6, 4),
        "only the first batch of 4 is acknowledged so far"
    );
    for k in 6..8u64 {
        assert!(map.insert(&h, k, k));
    }
    assert_eq!(
        counts(&h),
        (8, 8),
        "the second overflow acknowledged the rest"
    );
}

/// Under the default `Immediate` mode completions are synchronously durable:
/// nothing is ever enqueued, so there is nothing to acknowledge or drain.
#[test]
fn immediate_mode_enqueues_nothing() {
    let db = FlitDb::flit_ht(SimNvram::for_crash_testing());
    let map: HashTable<HtPolicy, Automatic> = HashTable::with_capacity(&db, 64);
    let h = db.handle();
    assert!(map.insert(&h, 1, 2));
    assert_eq!(counts(&h), (0, 0), "immediate mode enqueues no obligations");
    h.flush();
    assert_eq!(counts(&h), (0, 0));
    assert_eq!(drains(&db), 0);
}

/// The acknowledged half of the group-commit contract, tracker-verified: once
/// `flush` has acknowledged the handle's operations, a crash image cut at that
/// moment recovers every one of them.
#[test]
fn acknowledged_inserts_survive_the_crash_image() {
    let nvram = SimNvram::for_crash_testing();
    let db = batched_db(nvram.clone(), 8);
    let map: HashTable<HtPolicy, Automatic> = HashTable::with_capacity(&db, 64);
    let h = db.handle();
    // Pin so no retired node is reclaimed while we walk the crash image.
    let _guard = h.pin();
    for k in 0..5u64 {
        assert!(map.insert(&h, k, k + 50));
    }
    h.flush();
    assert_eq!(counts(&h), (5, 5));
    let image = nvram.tracker().unwrap().crash_image();
    let recovered = map.recover(&image);
    assert!(!recovered.truncated);
    let expected: Vec<(u64, u64)> = (0..5u64).map(|k| (k, k + 50)).collect();
    assert_eq!(
        recovered.sorted_pairs(),
        expected,
        "every acknowledged insert must be in the image"
    );
}

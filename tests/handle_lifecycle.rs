//! Lifecycle invariants of the explicit-handle API ([`FlitDb`]/[`FlitHandle`]),
//! exercised through the public interface:
//!
//! * dropping a *dirty* handle issues the trailing `pfence` (nothing a handle
//!   flushed is ever left un-committed);
//! * two handles on one OS thread keep independent dirty counts (elision
//!   decisions are per handle, not per thread);
//! * a handle outliving its spawning thread stays sound: it can be created on
//!   one thread, moved, used and dropped on another;
//! * dropped handles return their EBR slots, so short-lived workers no longer
//!   exhaust the participant table (the handle-retirement leak fix);
//! * a hash table is built under one construction handle, not one per bucket.

use flit::{FlitDb, FlitPolicy, HashedScheme, PFlag, PersistWord, Policy};
use flit_datastructs::{Automatic, ConcurrentMap, HarrisList, HashTable};
use flit_pmem::{CommitMode, LatencyModel, PmemBackend, SimNvram};

type HtPolicy = FlitPolicy<HashedScheme, SimNvram>;
type Word = <HtPolicy as Policy>::Word<u64>;

fn counting() -> SimNvram {
    SimNvram::builder().latency(LatencyModel::none()).build()
}

/// A handle abandoned mid-operation (flush issued, no fence yet) must commit its
/// pending write-backs on drop: the tracker shows the value durable only after
/// the drop.
#[test]
fn dropping_a_dirty_handle_issues_the_trailing_pfence() {
    let nvram = SimNvram::for_crash_testing();
    let db = FlitDb::flit_ht(nvram.clone());
    let word = Word::new(0);
    {
        let h = db.handle();
        let pm = h.pmem();
        pm.record_store(word.addr() as *const u8, 123);
        pm.pwb(word.addr() as *const u8);
        assert!(h.is_dirty(), "an unfenced pwb leaves the handle dirty");
        assert_eq!(
            nvram.tracker().unwrap().persisted_value(word.addr()),
            None,
            "no fence yet: the flush is still pending"
        );
    } // <- drop: the trailing fence
    assert_eq!(
        nvram.tracker().unwrap().persisted_value(word.addr()),
        Some(123),
        "the dirty handle's drop must commit its pending flush"
    );
    // A clean handle's drop, by contrast, fences nothing.
    let fences_before = nvram.stats().pfences();
    drop(db.handle());
    assert_eq!(nvram.stats().pfences(), fences_before);
}

/// Group commit: a dirty batched handle dropped mid-batch must drain its
/// obligation queue — the drop runs one batch drain (counted by
/// `flit_handle_drains_total`), and the tracker shows the batch's last store
/// durable only after the drop.
#[test]
fn dropping_a_batched_handle_mid_batch_drains_its_obligations() {
    let nvram = SimNvram::for_crash_testing();
    let db = FlitDb::builder(FlitPolicy::new(
        HashedScheme::with_bytes(1 << 12),
        nvram.clone(),
    ))
    .commit_mode(CommitMode::Batched(8))
    .build();
    let drains = || {
        db.metrics_snapshot()
            .value("flit_handle_drains_total", &[])
            .expect("drain counter")
    };
    let word = Word::new(0);
    {
        let h = db.handle();
        for i in 1..=3u64 {
            word.store(&h, 10 + i, PFlag::Persisted);
            h.operation_completion();
        }
        assert_eq!(
            (h.enqueued_obligations(), h.committed_obligations()),
            (3, 0),
            "mid-batch (3 of 8 obligations): nothing is acknowledged yet"
        );
        assert_eq!(drains(), 0);
        // The trailing fence of the *last* store is deferred: its predecessor
        // was committed by the leading fence of store 3, but 13 itself is only
        // in volatile memory.
        assert_eq!(
            nvram.tracker().unwrap().persisted_value(word.addr()),
            Some(12),
            "the deferred trailing fence leaves the batch's last store pending"
        );
    } // <- drop: one drain fence commits and acknowledges the whole batch
    assert_eq!(drains(), 1, "the drop must drain the open batch");
    assert_eq!(
        nvram.tracker().unwrap().persisted_value(word.addr()),
        Some(13),
        "the drop's drain fence made the last store durable"
    );
}

/// Two handles on one OS thread: each owns its own persist epoch, so dirtiness
/// never leaks between them — one handle's completion fence fires while the
/// other's is elided, on the same thread, against the same backend.
#[test]
fn two_handles_on_one_thread_keep_independent_dirty_counts() {
    let nvram = counting();
    let db = FlitDb::flit_ht(nvram.clone());
    let h1 = db.handle();
    let h2 = db.handle();
    let word = Word::new(0);

    h1.pmem().pwb(word.addr() as *const u8);
    assert!(h1.is_dirty());
    assert!(!h2.is_dirty(), "h2 must not inherit h1's pwb");
    assert_eq!(h1.epoch().pending_pwbs(), 1);
    assert_eq!(h2.epoch().pending_pwbs(), 0);

    h2.operation_completion(); // clean: elided
    assert_eq!(nvram.stats().pfences(), 0);
    assert!(h1.is_dirty(), "h2's elided fence must not clean h1");

    h1.operation_completion(); // dirty: fences
    assert_eq!(nvram.stats().pfences(), 1);
    assert!(!h1.is_dirty());
    assert_eq!(nvram.stats().elided_pfences(), 1);
}

/// A handle created on a worker thread, moved back to the main thread, and used
/// there (map operations, pinning, drop) stays sound — nothing about a handle is
/// keyed to the OS thread that created it.
#[test]
fn a_handle_outlives_its_spawning_thread() {
    let nvram = counting();
    let db = FlitDb::flit_ht(nvram.clone());
    let list: HarrisList<HtPolicy, Automatic> = HarrisList::new(&db);

    std::thread::scope(|s| {
        // The worker registers the handle, dirties it, and sends it back.
        let h = s
            .spawn(|| {
                let h = db.handle();
                assert!(list.insert(&h, 1, 10));
                h.pmem().pwb(&list as *const _ as *const u8);
                assert!(h.is_dirty());
                h
            })
            .join()
            .expect("worker thread");
        // The spawning thread is gone; the handle keeps working here.
        assert!(h.is_dirty(), "dirtiness travelled with the handle");
        assert!(list.insert(&h, 2, 20));
        assert!(!h.is_dirty(), "the insert's completion fence cleaned it");
        assert_eq!(list.get(&h, 1), Some(10));
        assert_eq!(list.get(&h, 2), Some(20));
        drop(h);
    });
    assert_eq!(list.len(), 2);
}

/// The handle-retirement fix, end to end: spawning (and dropping) far more
/// short-lived worker handles than `MAX_PARTICIPANTS` must neither panic nor
/// grow the participant table — every dropped handle's slot is reused.
#[test]
fn short_lived_workers_recycle_their_slots() {
    let db = FlitDb::flit_ht(counting());
    let list: HarrisList<HtPolicy, Automatic> = HarrisList::new(&db);
    for round in 0..4 * flit_ebr::MAX_PARTICIPANTS as u64 {
        let h = db.handle();
        let k = round % 32;
        if round % 2 == 0 {
            list.insert(&h, k, round);
        } else {
            list.remove(&h, k);
        }
    }
    assert_eq!(
        db.collector().participants(),
        0,
        "every worker handle returned its slot"
    );
    assert!(db.handles_created() >= 4 * flit_ebr::MAX_PARTICIPANTS as u64);
}

/// A hash table is built under one construction handle, and what it builds is
/// its directory. An N-bucket table allocates ⌈(N+2)·w / slot⌉ directory slots
/// plus one tail slot, and writes back each directory line plus the tail's one
/// line. Every other instruction is the allocator's: the arena header (2 pwbs,
/// 2 fences), the directory block's high-water mark (1 pwb) and the root entry
/// (2 pwbs, 2 fences), whose first fence commits the table. The table itself
/// fences nothing.
#[test]
fn a_hash_table_is_built_under_one_handle() {
    const ARENA_HEADER: u64 = 2;
    const HIGH_WATER: u64 = 1;
    const ROOT_ENTRY: u64 = 2;
    let nvram = counting();
    let db = FlitDb::flit_ht(nvram.clone());
    let before = db.handles_created();
    let stats = nvram.stats().snapshot();
    let table: HashTable<HtPolicy, Automatic> = HashTable::new(&db, 4096);
    let built = nvram.stats().snapshot().delta_since(&stats);
    let n = table.bucket_count();
    assert_eq!(n, 4096);
    assert_eq!(db.handles_created() - before, 1);
    let dir_bytes = (n + 2) * std::mem::size_of::<<HtPolicy as Policy>::Word<usize>>();
    let slot = table.arena().slot_size();
    assert_eq!(table.arena().high_water(), dir_bytes.div_ceil(slot) + 1);
    let lines = dir_bytes.div_ceil(64) as u64;
    assert_eq!(
        built.pwbs,
        lines + 1 + ARENA_HEADER + HIGH_WATER + ROOT_ENTRY
    );
    assert_eq!(built.pfences, ARENA_HEADER + ROOT_ENTRY);
}

/// Handle sessions honour the structure operations end to end: interleaving two
/// handles' operations on one thread yields the same abstract state as one
/// handle performing them all.
#[test]
fn interleaved_handles_preserve_map_semantics() {
    let db = FlitDb::flit_ht(counting());
    let list: HarrisList<HtPolicy, Automatic> = HarrisList::new(&db);
    let h1 = db.handle();
    let h2 = db.handle();
    for k in 0..50u64 {
        let h = if k % 2 == 0 { &h1 } else { &h2 };
        assert!(list.insert(h, k, k * 3));
    }
    for k in (0..50u64).step_by(5) {
        assert!(list.remove(&h2, k));
    }
    for k in 0..50u64 {
        assert_eq!(list.get(&h1, k).is_some(), k % 5 != 0, "key {k}");
    }
    assert_eq!(list.len(), 40);
}

/// Only an armed handle owns a flight ring, and the database lists those
/// rings alone: structures create handles by the thousand, and a ring per
/// handle ever made was a 1.6 KB allocation each.
#[test]
fn only_armed_handles_register_a_flight_ring() {
    let db = FlitDb::flit_ht(counting());
    for _ in 0..10_000 {
        let h = db.handle();
        assert!(
            h.epoch().flight().is_none(),
            "an unarmed handle has no ring"
        );
    }
    assert_eq!(db.flight_snapshots().len(), 0, "no ring without arming");

    let h = db.handle();
    h.arm_flight_recorder();
    h.arm_flight_recorder(); // idempotent: one ring, registered once
    assert!(h.epoch().flight().is_some());
    let listed = vec![h.id()];
    let ids = |db: &FlitDb<HtPolicy>| -> Vec<u64> {
        db.flight_snapshots()
            .into_iter()
            .map(|(id, _)| id)
            .collect()
    };
    assert_eq!(ids(&db), listed);
    // An armed handle's tail outlives the handle.
    drop(h);
    assert_eq!(ids(&db), listed);
}

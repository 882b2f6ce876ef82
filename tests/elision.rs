//! Invariants of persist-epoch elision (redundant-fence and duplicate-flush
//! elision), exercised through the public API end to end.
//!
//! These are the acceptance checks of the elision work:
//! * a clean thread's shared p-store costs exactly one `pfence` (trailing only),
//!   a dirty thread's still costs two;
//! * `operation_completion` after an untagged read-only operation costs zero
//!   fences;
//! * the plain baseline's `pwb` stream (the Figure 9 quantity) is identical with
//!   and without elision;
//! * epoch state is keyed per *handle*, so two handles driven by one OS thread
//!   never cross-contaminate;
//! * elision adds no per-word layout cost: `FlitAtomic` with a table scheme stays
//!   exactly one machine word.

use flit::{presets, FlitAtomic, FlitDb, FlitPolicy, HashedScheme, PFlag, PersistWord, Policy};
use flit_datastructs::{Automatic, ConcurrentMap, HarrisList, HashTable, NatarajanTree, SkipList};
use flit_pmem::{ElisionMode, LatencyModel, PersistEpoch, PmemBackend, PmemSession, SimNvram};
use flit_workload::runner::prefill;
use flit_workload::{run_workload, WorkloadConfig};

type HtPolicy = FlitPolicy<HashedScheme, SimNvram>;

fn backend_with(elision: ElisionMode) -> SimNvram {
    SimNvram::builder()
        .latency(LatencyModel::none())
        .elision(elision)
        .build()
}

#[test]
fn clean_handle_p_store_pays_one_fence_dirty_handle_two() {
    let nvram = backend_with(ElisionMode::Enabled);
    let db = FlitDb::flit_ht(nvram.clone());
    let h = db.handle();
    let word = <HtPolicy as Policy>::Word::<u64>::new(0);

    // Clean handle: the leading fence of Algorithm 4 would persist nothing.
    word.store(&h, 1, PFlag::Persisted);
    let clean = nvram.stats().snapshot();
    assert_eq!(clean.pwbs, 1);
    assert_eq!(clean.pfences, 1, "trailing fence only");
    assert_eq!(clean.elided_pfences, 1, "the leading fence was elided");

    // Dirty handle (an unfenced pwb outstanding): the leading fence must fire.
    h.pmem().pwb(&word as *const _ as *const u8);
    word.store(&h, 2, PFlag::Persisted);
    let dirty = nvram.stats().snapshot().delta_since(&clean);
    assert_eq!(dirty.pfences, 2, "leading + trailing");
}

#[test]
fn untagged_read_only_operation_completes_with_zero_fences() {
    let nvram = backend_with(ElisionMode::Enabled);
    let db = FlitDb::flit_ht(nvram.clone());
    let h = db.handle();
    let word = <HtPolicy as Policy>::Word::<u64>::new(7);
    h.operation_completion(); // settle anything construction did
    let before = nvram.stats().snapshot();
    for _ in 0..10 {
        assert_eq!(word.load(&h, PFlag::Persisted), 7);
        h.operation_completion();
    }
    let delta = nvram.stats().snapshot().delta_since(&before);
    assert_eq!(delta.pwbs, 0, "untagged loads never flush");
    assert_eq!(delta.pfences, 0, "clean completion fences are elided");
    assert_eq!(delta.elided_pfences, 10);
}

/// Figure 9 invariance: plain opts out of read-flush dedup, so its `pwb` stream is
/// bit-identical across elision modes. Driven on bare words for a closed-form
/// expected count (map runs go through arena slots and `operation_completion`,
/// whose fence elision is exactly what the next test measures).
#[test]
fn plain_pwbs_per_op_are_unchanged_by_elision() {
    let run = |elision| {
        let nvram = backend_with(elision);
        let db = FlitDb::create(presets::plain(nvram.clone()));
        let h = db.handle();
        let words: Vec<_> = (0..8u64)
            .map(<flit::PlainPolicy<SimNvram> as Policy>::Word::<u64>::new)
            .collect();
        for round in 0..100u64 {
            for w in &words {
                // Repeated p-loads of the same unchanged word: exactly the pattern
                // the FliT schemes dedup — plain must keep flushing every time.
                let _ = w.load(&h, PFlag::Persisted);
                let _ = w.load(&h, PFlag::Persisted);
                if round % 10 == 0 {
                    w.store(&h, round, PFlag::Persisted);
                }
                h.operation_completion();
            }
        }
        nvram.stats().snapshot().pwbs
    };
    let pwbs_on = run(ElisionMode::Enabled);
    let pwbs_off = run(ElisionMode::Disabled);
    assert_eq!(
        pwbs_on, pwbs_off,
        "plain's pwb stream (the Figure 9 quantity) must not change under elision"
    );
    // 2 read flushes per word per round + 1 store flush per word every 10th round.
    assert_eq!(pwbs_on, 8 * (2 * 100 + 10));
}

/// And the counterpart: flit-HT's *fence* stream does change — that is the point.
#[test]
fn flit_ht_pfences_per_op_drop_under_elision() {
    let run = |elision| {
        let nvram = backend_with(elision);
        let db = FlitDb::flit_ht(nvram.clone());
        let map: HashTable<_, Automatic> = HashTable::with_capacity(&db, 256);
        // Read-mostly (95/5), the workload where elision shines.
        let cfg = WorkloadConfig::new(256, 5, 4_000);
        prefill(&map, &cfg);
        let r = run_workload(&map, &cfg);
        r.pfences_per_op()
    };
    let on = run(ElisionMode::Enabled);
    let off = run(ElisionMode::Disabled);
    assert!(
        on < off / 2.0,
        "expected a large drop in pfences/op: elision {on:.3} vs literal {off:.3}"
    );
}

#[test]
fn epoch_state_is_keyed_per_handle() {
    // Two handles on one database, one OS thread: each owns its own epoch, so
    // dirtiness and elision decisions never cross-contaminate — the invariant
    // that used to be (approximately) per backend instance is now exactly per
    // explicit session.
    let nvram = backend_with(ElisionMode::Enabled);
    let db = FlitDb::flit_ht(nvram.clone());
    let ha = db.handle();
    let hb = db.handle();
    let wa = <HtPolicy as Policy>::Word::<u64>::new(0);

    // Dirty handle A on this thread (a tagged-read flush with no fence yet).
    ha.pmem().pwb(&wa as *const _ as *const u8);
    // Handle B is clean: its completion fence must elide…
    hb.operation_completion();
    assert_eq!(nvram.stats().pfences(), 0, "B must not see A's pwb");
    // …while A's must fire.
    ha.operation_completion();
    assert_eq!(nvram.stats().pfences(), 1);
    // And B's fence must not have cleaned A's epoch before A fenced.
    assert_eq!(
        nvram.stats().elided_pfences(),
        1,
        "only B's completion elided"
    );

    // Two databases on one thread keep separate epochs too (separate handles by
    // construction).
    let b2 = backend_with(ElisionMode::Enabled);
    let db2 = FlitDb::flit_ht(b2.clone());
    let h2 = db2.handle();
    h2.operation_completion();
    assert_eq!(b2.stats().pfences(), 0, "fresh handle on fresh db is clean");
}

/// The dedup ABA window is closed (ROADMAP, PR 3): every dedup entry carries the
/// backend's store version at flush time, and a hit requires the version to be
/// unchanged. Any store recorded in between — such as a remote thread's
/// overwrite-and-restore of the very word being deduped — invalidates the entry,
/// so the stale-snapshot elision can no longer happen. Unconditionally sound.
#[test]
fn dedup_entries_are_invalidated_by_any_intervening_store() {
    let nvram = backend_with(ElisionMode::Enabled);
    let epoch = PersistEpoch::new();
    let s = PmemSession::for_backend(&nvram, &epoch);
    let x = 7u64;
    let addr = &x as *const u64 as *const u8;

    assert!(s.pwb_dedup(addr, 7), "first flush is real");
    assert!(
        !s.pwb_dedup(addr, 7),
        "same epoch, no intervening store: dedup hit"
    );

    // A "remote" overwrite-and-restore: two stores recorded through the backend
    // without any fence on this handle. The observed value is unchanged, but the
    // store version is not — the dedup entry must be dead.
    let y = 0u64;
    s.record_store(&y as *const u64 as *const u8, 1);
    s.record_store(&y as *const u64 as *const u8, 7);
    assert!(
        s.pwb_dedup(addr, 7),
        "a version bump must force a re-flush: the ABA window is closed"
    );
    assert_eq!(nvram.stats().elided_pwbs(), 1, "exactly one (sound) dedup");

    // Version stamping composes with tracking backends too: there the stamp is
    // the tracker's own store counter.
    let tracked = SimNvram::for_crash_testing();
    let te = PersistEpoch::new();
    let ts = PmemSession::for_backend(&tracked, &te);
    let z = 3u64;
    let zaddr = &z as *const u64 as *const u8;
    assert!(ts.pwb_dedup(zaddr, 3));
    assert!(!ts.pwb_dedup(zaddr, 3));
    ts.record_store(&y as *const u64 as *const u8, 9);
    assert!(ts.pwb_dedup(zaddr, 3), "tracker version bump re-flushes");
}

#[test]
fn elision_adds_no_per_word_layout_cost() {
    assert_eq!(
        std::mem::size_of::<FlitAtomic<u64, HashedScheme, SimNvram>>(),
        8,
        "table-scheme FliT words must stay exactly one machine word"
    );
}

/// The exact instruction stream of one handle, pinned: a seeded 4 000-op
/// 50 %-update history on every map under flit-HT, elision on and off, asserting
/// all five counters the session can bump. A single immediate
/// handle never observes a tagged word, so the read-side counters are pinned by
/// two more runs under `Batched(8)` (words stay tagged until the drain, so the
/// handle helps itself) on a tracking backend, where the helping decisions are
/// address-independent.
#[test]
fn instruction_stream_is_pinned() {
    use flit::CommitMode;
    use flit_hamt::Hamt;
    use flit_pmem::StatsSnapshot;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn drive<M: ConcurrentMap<HtPolicy>>(
        nvram: SimNvram,
        commit: CommitMode,
        build: impl FnOnce(&FlitDb<HtPolicy>) -> M,
    ) -> [u64; 5] {
        let db = FlitDb::builder(presets::flit_ht(nvram.clone()))
            .commit_mode(commit)
            .build();
        let map = build(&db);
        let h = db.handle();
        let mut rng = SmallRng::seed_from_u64(0xF117_0018);
        for _ in 0..4_000 {
            let key = rng.gen_range(0..256u64);
            match rng.gen_range(0..4u32) {
                0 => drop(map.insert(&h, key, key ^ 0xABCD)),
                1 => drop(map.remove(&h, key)),
                _ => drop(map.get(&h, key)),
            }
        }
        drop(h);
        let StatsSnapshot {
            pwbs,
            pfences,
            read_side_pwbs,
            elided_pfences,
            elided_pwbs,
        } = nvram.stats().snapshot();
        [pwbs, pfences, read_side_pwbs, elided_pfences, elided_pwbs]
    }
    let tracked = |elision| {
        SimNvram::builder()
            .latency(LatencyModel::none())
            .tracking(true)
            .elision(elision)
            .build()
    };
    let table = |db: &FlitDb<HtPolicy>| HashTable::<_, Automatic>::with_capacity(db, 256);
    let hamt = |db: &FlitDb<HtPolicy>| Hamt::new(db, 256);
    let (on, off) = (ElisionMode::Enabled, ElisionMode::Disabled);
    let (now, batched) = (CommitMode::Immediate, CommitMode::Batched(8));

    // [pwbs, pfences, read_side_pwbs, elided_pfences, elided_pwbs], recorded at
    // the commit before the elision API moved from `PmemBackend` to `PmemSession`.
    // The HAMT's pwbs were re-recorded when its nodes lost their bitmap header
    // word (each copied node flushes ⌈8·children/64⌉ lines, not
    // ⌈8·(children + 1)/64⌉): 957 fewer in each of its four streams, every
    // other counter unchanged. They moved again when one-pair leaves became
    // buckets of up to eight pairs: the stream's 986 successful updates write
    // back 4 800 node and root lines, not 4 828 (construction's 32 are
    // unchanged), so 28 fewer in each of the four streams. A bucket rewrite
    // flushes up to two lines where a new leaf flushed one, and ~128 live keys
    // leave few interior levels for buckets to remove.
    // The table's four streams were re-recorded when its buckets became words
    // of its directory. Only construction moved. The 256 buckets' 2 × 256
    // sentinel persists (one line and one fence each) went, and the one tail
    // line came: pwbs −512 + 1 = −511. The directory gained one word (258,
    // was 257) and still spans 33 lines, but its persist's own fence went: the
    // root registration's first fence commits it. So pfences −512 − 1 = −513.
    // Read-side pwbs and elisions are unchanged in each stream.
    assert_eq!(
        drive(backend_with(on), now, table),
        [2011, 1976, 0, 5410, 0]
    );
    assert_eq!(drive(backend_with(off), now, table), [2011, 7386, 0, 0, 0]);
    assert_eq!(drive(backend_with(on), now, hamt), [4832, 1980, 0, 4000, 0]);
    assert_eq!(drive(backend_with(off), now, hamt), [4832, 5980, 0, 0, 0]);
    assert_eq!(drive(tracked(on), batched, table), [2020, 1669, 9, 807, 0]);
    assert_eq!(drive(tracked(off), batched, table), [2020, 2476, 9, 0, 0]);
    assert_eq!(
        drive(tracked(on), batched, hamt),
        [5692, 1444, 860, 50, 1304]
    );
    assert_eq!(drive(tracked(off), batched, hamt), [6996, 1494, 2164, 0, 0]);
    let list = |db: &FlitDb<HtPolicy>| HarrisList::<_, Automatic>::with_capacity(db, 256);
    let skip = |db: &FlitDb<HtPolicy>| SkipList::<_, Automatic>::with_capacity(db, 256);
    let bst = |db: &FlitDb<HtPolicy>| NatarajanTree::<_, Automatic>::with_capacity(db, 256);
    // The other three maps under `Immediate`, recorded at the commit before the
    // trait wrappers took over operation completion. With elision off every
    // completion is one `pfence`, so a missing or doubled one on any return path
    // moves the count.
    assert_eq!(drive(backend_with(on), now, list), [1978, 1978, 0, 5410, 0]);
    assert_eq!(drive(backend_with(off), now, list), [1978, 7388, 0, 0, 0]);
    assert_eq!(drive(backend_with(on), now, skip), [3434, 3413, 0, 6846, 0]);
    assert_eq!(drive(backend_with(off), now, skip), [3434, 10259, 0, 0, 0]);
    assert_eq!(drive(backend_with(on), now, bst), [2967, 2967, 0, 5834, 0]);
    assert_eq!(drive(backend_with(off), now, bst), [2967, 8801, 0, 0, 0]);
}

//! File-backed pool lifecycle (`flit-pmem` pool × `flit-core` open pipeline):
//!
//! 1. **Roundtrip** — create a pool, run real map traffic, drop the process's
//!    view, re-open: the validate → adopt → recover → GC pipeline rebuilds the
//!    exact key→value state, reclaims leaked slots, and a second GC pass
//!    reclaims nothing (idempotence);
//! 2. **Graceful corruption handling** — every targeted clobber of a persisted
//!    field (superblock magic/version, truncation, commit-mode compat word,
//!    arena slot size, root-table entry) surfaces as the matching typed
//!    [`OpenError`] variant, never a panic;
//! 3. **Liveness** — a re-opened pool accepts new traffic; a pool mapped by a
//!    live database cannot be double-opened ([`OpenError::MappingConflict`]);
//!    [`FlitDb::create`] keeps the heap-backed path intact;
//! 4. **The image is a view** — [`OpenReport::image`](flit::OpenReport) reads
//!    exactly the adopted arenas' words, in place; it outlives the database
//!    and pins the mapping; and hostile pointers in the data area end a
//!    recovery walk as `truncated`, never as a panic or a fault.
//! 5. **A clean close needs no GC** — for every structure, dropping the
//!    database marks the pool clean, the reopen skips GC, and a GC pass run
//!    anyway finds nothing; a pool copied while live (what a SIGKILL leaves)
//!    or dropped during a panic reads dirty, and a clean word forged over a
//!    live copy only leaks.

#![cfg(unix)]

use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::Duration;

use flit::{CommitMode, FlitDb, FlitPolicy, HashedScheme, OpenError};
use flit_alloc::{post_crash_gc, roots};
use flit_datastructs::{
    Automatic, ConcurrentMap, HarrisList, HashTable, NatarajanTree, RecoverInImage, SkipList,
};
use flit_hamt::Hamt;
use flit_pmem::pool::{direntry, superblock, CLEAN_CLOSE_MAGIC, DATA_OFFSET, DIR_OFFSET};
use flit_pmem::{LatencyModel, SimNvram, WORD_SIZE};
use flit_queues::{ConcurrentQueue, MsQueue};

type HtPolicy = FlitPolicy<HashedScheme, SimNvram>;
type Map = HashTable<HtPolicy, Automatic>;

fn policy() -> HtPolicy {
    FlitPolicy::new(
        HashedScheme::with_bytes(1 << 12),
        SimNvram::builder().latency(LatencyModel::none()).build(),
    )
}

fn temp_path(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("flit-pool-open-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// Build a pool with one hash table holding keys 1..=40 (evens removed again)
/// plus one deliberately leaked slot, and unmap it. Returns the expected pairs.
fn build_pool(path: &Path, commit: CommitMode) -> Vec<(u64, u64)> {
    let db = FlitDb::builder(policy())
        .commit_mode(commit)
        .create_pool(path)
        .unwrap();
    let map = Map::new(&db, 64);
    let h = db.handle();
    for k in 1..=40u64 {
        assert!(map.insert(&h, k, 100 + k));
    }
    for k in (2..=40u64).step_by(2) {
        assert!(map.remove(&h, k));
    }
    // A slot allocated but never published anywhere: a leak the clean close
    // cannot see, for the GC of a reopen after `mark_dirty` to find.
    let arena = &db.arenas()[0];
    assert!(!arena.alloc(&h.pmem()).is_null());
    drop(h);
    db.sync_pool().unwrap();
    (1..=40u64)
        .filter(|k| k % 2 == 1)
        .map(|k| (k, 100 + k))
        .collect()
}

fn recover_map(db: &FlitDb<HtPolicy>, report: &flit::OpenReport) -> Vec<(u64, u64)> {
    Map::recover_arenas(&db.arenas(), &report.image).sorted_pairs()
}

fn write_word(path: &Path, offset: u64, value: u64) {
    let f = std::fs::OpenOptions::new().write(true).open(path).unwrap();
    f.write_at(&value.to_le_bytes(), offset).unwrap();
    f.sync_all().unwrap();
}

fn read_word(path: &Path, offset: u64) -> u64 {
    let f = std::fs::File::open(path).unwrap();
    let mut buf = [0u8; 8];
    f.read_exact_at(&mut buf, offset).unwrap();
    u64::from_le_bytes(buf)
}

/// Arena 0's header base offset in the file, via its directory entry.
fn header_off(path: &Path) -> u64 {
    read_word(path, (DIR_OFFSET + direntry::HEADER_OFF) as u64)
}

/// Model a crash of the pool's last writer: clear its clean-close word, so
/// the next open runs GC as it would after a SIGKILL.
fn mark_dirty(path: &Path) {
    write_word(path, superblock::CLEAN_CLOSE as u64, 0);
}

#[test]
fn create_then_reopen_recovers_pairs_and_reclaims_the_leak() {
    let path = temp_path("roundtrip");
    let expected = build_pool(&path, CommitMode::Immediate);
    mark_dirty(&path);

    let (db, report) = FlitDb::open(&path, policy()).unwrap();
    assert_eq!(recover_map(&db, &report), expected);
    assert!(!report.clean_close);
    assert!(
        report.leaked_slots() >= 1,
        "the unpublished slot (and any recycle-list remnants) must be reclaimed"
    );
    // Idempotence: the open-time pass closed every leak.
    assert_eq!(post_crash_gc(&db.arenas()).total_reclaimed(), 0);

    // The re-opened pool accepts new traffic through the adopted arenas.
    let map = Map::new(&db, 64); // a second table in the same pool
    let h = db.handle();
    assert!(map.insert(&h, 7_000, 1));
    assert_eq!(map.get(&h, 7_000), Some(1));
    drop(h);
    drop((map, db));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn reopening_twice_is_stable() {
    let path = temp_path("twice");
    let expected = build_pool(&path, CommitMode::Immediate);
    mark_dirty(&path);
    {
        let (db, report) = FlitDb::open(&path, policy()).unwrap();
        assert_eq!(recover_map(&db, &report), expected);
        assert!(report.leaked_slots() >= 1);
        db.sync_pool().unwrap();
    }
    // Second open, dirty again: the first open's GC already ran; nothing
    // further leaks.
    mark_dirty(&path);
    let (db, report) = FlitDb::open(&path, policy()).unwrap();
    assert_eq!(recover_map(&db, &report), expected);
    assert_eq!(report.leaked_slots(), 0, "GC across reopen is idempotent");
    drop(db);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn double_open_of_a_live_pool_is_a_mapping_conflict() {
    let path = temp_path("double");
    let _ = build_pool(&path, CommitMode::Immediate);
    let (_db, _report) = FlitDb::open(&path, policy()).unwrap();
    // The pool is mapped at its recorded base by `_db`; a second map of the
    // same file in the same process must refuse, not corrupt.
    match FlitDb::open(&path, policy()) {
        Err(OpenError::MappingConflict { .. }) => {}
        other => panic!("expected MappingConflict, got {:?}", other.map(|_| ())),
    }
    drop(_db);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupted_pools_yield_typed_errors_not_panics() {
    let path = temp_path("corrupt-src");
    let _ = build_pool(&path, CommitMode::Immediate);

    let case = |name: &str, clobber: &dyn Fn(&Path), check: &dyn Fn(&OpenError) -> bool| {
        let copy = temp_path(&format!("corrupt-{name}"));
        std::fs::copy(&path, &copy).unwrap();
        clobber(&copy);
        match FlitDb::open(&copy, policy()) {
            Err(e) if check(&e) => {}
            Err(e) => panic!("case {name}: wrong error: {e}"),
            Ok(_) => panic!("case {name}: opened successfully"),
        }
        let _ = std::fs::remove_file(&copy);
    };

    case(
        "bad-magic",
        &|p| write_word(p, superblock::MAGIC as u64, 0x1BAD_1BAD),
        &|e| matches!(e, OpenError::BadMagic { found: 0x1BAD_1BAD }),
    );
    case(
        "bad-version",
        &|p| write_word(p, superblock::VERSION as u64, 42),
        &|e| matches!(e, OpenError::BadVersion { found: 42, .. }),
    );
    // A version-1 pool keeps each HAMT node's bitmap inside the node; this
    // build reads it from the entry, so the old layout is refused, not misread.
    case(
        "version-1",
        &|p| write_word(p, superblock::VERSION as u64, 1),
        &|e| {
            matches!(
                e,
                OpenError::BadVersion {
                    found: 1,
                    supported: 4
                }
            )
        },
    );
    // A version-2 pool's hash directory holds head-sentinel `offset + 1`s;
    // this build reads node addresses there, so it is refused too.
    case(
        "version-2",
        &|p| write_word(p, superblock::VERSION as u64, 2),
        &|e| {
            matches!(
                e,
                OpenError::BadVersion {
                    found: 2,
                    supported: 4
                }
            )
        },
    );
    // A version-3 pool's HAMT leaf entries are bare addresses; this build
    // reads a pair count above the address and finds zero pairs there.
    case(
        "version-3",
        &|p| write_word(p, superblock::VERSION as u64, 3),
        &|e| {
            matches!(
                e,
                OpenError::BadVersion {
                    found: 3,
                    supported: 4
                }
            )
        },
    );
    case(
        "truncated",
        &|p| {
            let f = std::fs::OpenOptions::new().write(true).open(p).unwrap();
            f.set_len(4096).unwrap();
        },
        &|e| matches!(e, OpenError::Truncated { .. }),
    );
    case(
        "commit-compat-word",
        &|p| write_word(p, superblock::COMMIT as u64, 0x77),
        &|e| matches!(e, OpenError::CommitModeMismatch { pool: None, .. }),
    );
    case(
        "slot-size-mismatch",
        &|p| {
            let h = header_off(p);
            write_word(p, h + flit_alloc::SLOT_SIZE_OFFSET as u64, 128);
        },
        &|e| matches!(e, OpenError::SlotSizeMismatch { arena: 0, .. }),
    );
    case(
        "torn-root-entry",
        &|p| {
            let h = header_off(p);
            let table = h + flit_alloc::ROOT_TABLE_OFFSET as u64;
            let mut torn = false;
            for i in 0..flit_alloc::ROOT_CAPACITY as u64 {
                let key_off = table + i * flit_alloc::ROOT_ENTRY_BYTES as u64;
                if read_word(p, key_off) != 0 {
                    write_word(p, key_off + 8, 0);
                    torn = true;
                    break;
                }
            }
            assert!(torn, "the built pool must have a live root to tear");
        },
        &|e| matches!(e, OpenError::TornRootEntry { arena: 0, .. }),
    );
    case(
        "arena-magic",
        &|p| {
            let h = header_off(p);
            write_word(p, h + flit_alloc::MAGIC_OFFSET as u64, 0);
        },
        &|e| matches!(e, OpenError::ArenaHeader { arena: 0, .. }),
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn the_open_image_reads_exactly_the_adopted_arenas_words() {
    let path = temp_path("view");
    let expected = build_pool(&path, CommitMode::Immediate);
    let (db, report) = FlitDb::open(&path, policy()).unwrap();
    let pool = db.pool().unwrap();
    let (base, end) = (pool.base_addr(), pool.base_addr() + pool.len());
    drop(pool);
    let image = &report.image;

    let mut ranges: Vec<(usize, usize)> =
        db.arenas().iter().flat_map(|a| a.image_ranges()).collect();
    ranges.sort_unstable();
    assert!(ranges.len() >= 2, "a header region and at least one chunk");
    // Inside: every word of every header region and chunk, with the value the
    // file holds right now (the mapping is shared with the page cache).
    let file = std::fs::File::open(&path).unwrap();
    for &(start, len) in &ranges {
        let mut bytes = vec![0u8; len];
        file.read_exact_at(&mut bytes, (start - base) as u64)
            .unwrap();
        for (i, word) in bytes.chunks_exact(WORD_SIZE).enumerate() {
            let live = u64::from_le_bytes(word.try_into().unwrap());
            assert_eq!(image.read(start + i * WORD_SIZE), Some(live));
        }
        assert_eq!(image.read(start + 3), image.read(start), "containing word");
    }
    let words: usize = ranges.iter().map(|&(_, len)| len / WORD_SIZE).sum();
    assert_eq!(image.len(), words);

    // Outside: everything else, mapped or not.
    let (lowest, highest) = (ranges[0], ranges[ranges.len() - 1]);
    let mut outside = vec![
        lowest.0 - WORD_SIZE,
        highest.0 + highest.1,
        base + superblock::MAGIC,
        base + superblock::BASE,
        base + DIR_OFFSET + direntry::STATE,
        base + DIR_OFFSET + direntry::CHUNKS,
        base + DATA_OFFSET - WORD_SIZE,
        end,
        0,
        usize::MAX - 7,
    ];
    for pair in ranges.windows(2) {
        let gap = pair[0].0 + pair[0].1;
        if gap < pair[1].0 {
            outside.extend([gap, pair[1].0 - WORD_SIZE]);
        }
    }
    for addr in outside {
        assert_eq!(image.read(addr), None, "{addr:#x} is outside every arena");
    }

    // The report outlives the database: it still reads the pool, and it is
    // what keeps the pool's base address taken.
    drop(db);
    assert_eq!(image.read(lowest.0), Some(flit_alloc::ARENA_MAGIC));
    match FlitDb::open(&path, policy()) {
        Err(OpenError::MappingConflict { .. }) => {}
        other => panic!("expected MappingConflict, got {:?}", other.map(|_| ())),
    }
    drop(report);
    let (db, report) = FlitDb::open(&path, policy()).unwrap();
    assert_eq!(recover_map(&db, &report), expected);
    drop((db, report));
    let _ = std::fs::remove_file(&path);
}

/// Corrupt data-area words of a copy of `src` — `(file offset, value)`
/// writes — open the copy (GC included) and run map `M`'s recovery walk over it on a
/// watched thread. Open may refuse with a typed error; if it accepts, the walk
/// must come back within 10 s — reporting `truncated`, or at least not the
/// clean state — instead of panicking, faulting or hanging.
fn recover_corrupted<M: RecoverInImage + 'static>(
    src: &Path,
    name: &str,
    writes: &[(u64, u64)],
    clean: &[(u64, u64)],
    must_truncate: bool,
) {
    let copy = temp_path(&format!("hostile-{name}"));
    std::fs::copy(src, &copy).unwrap();
    for &(offset, value) in writes {
        write_word(&copy, offset, value);
    }
    // Dirty, so the open's GC pass walks the hostile bytes too.
    mark_dirty(&copy);
    let (tx, rx) = mpsc::channel();
    let path = copy.clone();
    std::thread::spawn(move || {
        let rec = FlitDb::open(&path, policy())
            .ok()
            .map(|(db, report)| M::recover_arenas(&db.arenas(), &report.image));
        let _ = tx.send(rec);
    });
    let rec = rx
        .recv_timeout(Duration::from_secs(10))
        .unwrap_or_else(|e| panic!("case {name}: the recovery walk did not return: {e}"));
    if let Some(rec) = rec {
        assert!(
            rec.truncated || (!must_truncate && rec.sorted_pairs() != clean),
            "case {name}: the walk accepted a corrupt pool: {rec:?}"
        );
    }
    let _ = std::fs::remove_file(&copy);
}

/// The file offsets of a pool's hash directory (`[count, tail, link₀, …]`,
/// one word each under flit-HT), and the first address past its arena's
/// chunks, read on a clean open.
struct DirWords {
    count: u64,
    tail: u64,
    links: Vec<u64>,
    past_the_chunks: u64,
    base: usize,
}

impl DirWords {
    fn read(path: &Path) -> Self {
        let (db, _) = FlitDb::open(path, policy()).unwrap();
        let base = db.pool().unwrap().base_addr();
        let arena = &db.arenas()[0];
        let dir = (arena.root(roots::HASH_DIRECTORY).unwrap() - base) as u64;
        let word = WORD_SIZE as u64;
        let buckets = read_word(path, dir);
        // Chunks are disjoint, so the highest chunk end lies in none of them.
        let past_the_chunks = arena.image_ranges()[1..]
            .iter()
            .map(|&(start, len)| start + len)
            .max()
            .unwrap() as u64;
        Self {
            count: dir,
            tail: dir + word,
            links: (0..buckets).map(|i| dir + (2 + i) * word).collect(),
            past_the_chunks,
            base,
        }
    }

    /// The file offset of the `next` word of the node at address `node`: its
    /// one word that points back into the pool (key and value do not).
    fn next_of(&self, path: &Path, node: u64) -> u64 {
        let slot = node - self.base as u64;
        (slot..slot + 64)
            .step_by(WORD_SIZE)
            .find(|&w| read_word(path, w) >= self.base as u64)
            .expect("a node links to its successor or the tail")
    }
}

#[test]
fn hostile_hash_table_words_truncate_the_walk() {
    let path = temp_path("hostile-ht-src");
    let expected = build_pool(&path, CommitMode::Immediate);
    let dir = DirWords::read(&path);
    let tail = read_word(&path, dir.tail);
    // A non-empty bucket's first node, that node's link, and the last link of
    // its chain (the one naming the tail).
    let first = dir
        .links
        .iter()
        .map(|&l| read_word(&path, l))
        .find(|&node| node != tail)
        .expect("20 keys over 64 buckets leave some bucket non-empty");
    let next_link = dir.next_of(&path, first);
    let mut last_link = next_link;
    while read_word(&path, last_link) != tail {
        last_link = dir.next_of(&path, read_word(&path, last_link));
    }
    // Every bucket is that bucket, and its chain closes back on its first
    // node instead of ending at the one tail: a walk that budgets per bucket
    // visits the cycle once per bucket.
    let mut one_cycle: Vec<(u64, u64)> = dir.links.iter().map(|&l| (l, first)).collect();
    one_cycle.push((last_link, first));
    let head0 = dir.links[0];
    for (name, writes) in [
        // Panicked in `Arena::addr_of_offset` when the word was a slot offset.
        ("dir-head-max", vec![(head0, u64::MAX)]),
        (
            "dir-head-past-high-water",
            vec![(head0, dir.past_the_chunks)],
        ),
        ("dir-len-max", vec![(dir.count, u64::MAX)]),
        // Chains end on the tail unvisited: naming a live node would cut the
        // chain through it short.
        ("dir-tail-names-a-node", vec![(dir.tail, first)]),
        ("next-into-superblock", vec![(next_link, dir.base as u64)]),
        ("every-bucket-one-cycle", one_cycle),
    ] {
        recover_corrupted::<Map>(&path, name, &writes, &expected, true);
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn hostile_hamt_roots_truncate_the_walk() {
    let path = temp_path("hostile-hamt-src");
    let expected: Vec<(u64, u64)> = (1..=40u64).map(|k| (k, 100 + k)).collect();
    let (root_word, base, pool_len, chunk_end) = {
        let db = FlitDb::builder(policy()).create_pool(&path).unwrap();
        let map = Hamt::new(&db, 64);
        let h = db.handle();
        for &(k, v) in &expected {
            assert!(map.insert(&h, k, v));
        }
        drop(h);
        db.sync_pool().unwrap();
        let pool = db.pool().unwrap();
        let (chunk, len) = *map.arena().image_ranges().last().unwrap();
        (
            (map.root_cell_addr() - pool.base_addr()) as u64,
            pool.base_addr() as u64,
            pool.len() as u64,
            (chunk + len) as u64,
        )
    };
    const INTERIOR: u64 = 1;
    // An interior entry carries its node's 16-bit bitmap in bits 47–62, a
    // bucket entry its pair count in bits 47–50.
    const FULL: u64 = (0xFFFF << 47) | INTERIOR;
    let pairs = |count: u64| count << 47;
    let root = |value: u64| vec![(root_word, value)];
    // The root node claiming a full bitmap whose every child is the root
    // itself: bounded only by depth, that is 16^16 visits.
    let root_enc = read_word(&path, root_word);
    assert_eq!(
        root_enc & INTERIOR,
        INTERIOR,
        "40 keys need an interior root"
    );
    let node = (root_enc & ((1 << 47) - 1)) - INTERIOR - base;
    let full_root = (node + base) | FULL;
    let mut self_loops = vec![(root_word, full_root)];
    self_loops
        .extend((0..flit_hamt::FANOUT as u64).map(|i| (node + i * WORD_SIZE as u64, full_root)));
    for (name, writes, must_truncate) in [
        ("root-into-superblock", root(base), true),
        ("root-node-in-superblock", root(base | FULL), true),
        ("root-past-the-mapping", root(base + pool_len + 64), true),
        // A bucket whose pairs, and a node whose children, would lie past
        // the end of the chunk: whatever follows is not this arena's to read.
        (
            "root-bucket-at-chunk-end",
            root((chunk_end - 2 * WORD_SIZE as u64) | pairs(8)),
            true,
        ),
        // A bucket claiming more pairs than a slot holds.
        ("root-bucket-of-9", root((node + base) | pairs(9)), true),
        ("root-bucket-of-15", root((node + base) | pairs(15)), true),
        (
            "root-node-at-chunk-end",
            root((chunk_end - WORD_SIZE as u64) | FULL),
            false,
        ),
        ("root-node-children-are-itself", self_loops, true),
    ] {
        recover_corrupted::<Hamt<HtPolicy>>(&path, name, &writes, &expected, must_truncate);
    }
    let _ = std::fs::remove_file(&path);
}

/// Every slot the HAMT entry `enc` reaches in `image`, read with the entry
/// encoding: bit 0 tags an interior node, whose bitmap is bits 47–62 and whose
/// address is bits 3–46; an untagged entry names a bucket at bits 3–46.
fn hamt_slots(image: &flit_pmem::CrashImage, enc: u64, slots: &mut Vec<usize>) {
    if enc == 0 {
        return;
    }
    let addr = (enc & ((1 << 47) - 1) & !1) as usize;
    slots.push(addr);
    if enc & 1 == 1 {
        for i in 0..((enc >> 47) & 0xFFFF).count_ones() as usize {
            hamt_slots(image, image.read(addr + i * WORD_SIZE).unwrap(), slots);
        }
    }
}

/// A 4 096-key HAMT has full 16-child nodes at its top levels, whose entries
/// carry all 16 bitmap bits. A leaked snapshot makes the close leave the pool
/// dirty, so the reopen runs the conservative GC over those entries: it must
/// see through the bitmap bits to the node address, or it frees live nodes.
#[test]
fn a_dirty_reopen_keeps_every_hamt_node_the_walk_reaches() {
    let path = temp_path("hamt-dirty");
    let (live, frozen) = {
        let db = FlitDb::builder(policy()).create_pool(&path).unwrap();
        let map = Hamt::new(&db, 4096);
        let h = db.handle();
        for k in 0..4096u64 {
            assert!(map.insert(&h, k, k + 1));
        }
        let snapshot = map.snapshot(&h);
        for k in (0..4096u64).step_by(4) {
            assert!(map.remove(&h, k));
        }
        for k in 4096..4608u64 {
            assert!(map.insert(&h, k, k + 1));
        }
        // Leaked: the retired paths stay parked, so the close leaves the pool
        // to post-crash GC.
        std::mem::forget(snapshot);
        let live: Vec<(u64, u64)> = (0..4608u64)
            .filter(|k| k % 4 != 0 || *k >= 4096)
            .map(|k| (k, k + 1))
            .collect();
        (live, (0..4096u64).map(|k| (k, k + 1)).collect::<Vec<_>>())
    };
    let (db, report) = FlitDb::open(&path, policy()).unwrap();
    assert!(
        !report.clean_close,
        "a leaked snapshot leaves the pool dirty"
    );
    assert!(
        report.leaked_slots() > 0,
        "GC ran and found the parked paths"
    );
    let arenas = db.arenas();
    let arena = &arenas[0];
    let rec = Hamt::<HtPolicy>::recover_arenas(&arenas, &report.image);
    assert!(!rec.truncated);
    assert_eq!(rec.sorted_pairs(), live);
    let retained = Hamt::<HtPolicy>::recover_snapshots_in_image(arena, &report.image);
    assert_eq!(retained.len(), 1);
    assert_eq!(retained[0].rec.sorted_pairs(), frozen);

    // The flit-HT root word is bare at the start of its cell.
    let image = &report.image;
    let root = image.read(arena.root(roots::HAMT_ROOT).unwrap()).unwrap();
    assert_eq!((root >> 47) & 0xFFFF, 0xFFFF, "a full root node");
    let table = arena.root(roots::HAMT_RETAINED).unwrap();
    let mut slots = Vec::new();
    hamt_slots(image, root, &mut slots);
    let entry = table + retained[0].slot * flit_hamt::RETAINED_ENTRY_WORDS * WORD_SIZE;
    hamt_slots(image, image.read(entry).unwrap(), &mut slots);
    let free: std::collections::HashSet<usize> = arena.durable_free_offsets().into_iter().collect();
    let freed: Vec<usize> = slots
        .iter()
        .map(|&a| arena.offset_of_addr(a).unwrap())
        .filter(|off| free.contains(off))
        .collect();
    assert!(
        freed.is_empty(),
        "GC freed {} reachable node(s)",
        freed.len()
    );
    assert_eq!(post_crash_gc(&arenas).total_reclaimed(), 0);
    drop((db, report));
    let _ = std::fs::remove_file(&path);
}

/// A pool copied while live is what a SIGKILL leaves: the hash table's 100
/// removed nodes are on no free list. The reopen's GC must keep every slot
/// the directory reaches — the directory block, the tail and the live nodes,
/// read out of the image — and reclaim exactly the rest, and a second pass
/// reclaims nothing. Inserting keys 1..=200 in order puts key `k`'s node in
/// slot 9 + k (slot 0 is the tail, slots 1–9 the directory), so removed key
/// 54's node sits in slot 63: a GC that still read directory words as
/// `offset + 1` would take the bucket count, 64, for a reference to it.
#[test]
fn a_dirty_reopen_keeps_every_hash_node_the_directory_reaches() {
    let path = temp_path("ht-dirty-src");
    let crashed = temp_path("ht-dirty");
    {
        let db = FlitDb::builder(policy()).create_pool(&path).unwrap();
        let map = Map::new(&db, 64);
        let h = db.handle();
        for k in 1..=200u64 {
            assert!(map.insert(&h, k, k + 1));
        }
        for k in (2..=200u64).step_by(2) {
            assert!(map.remove(&h, k));
        }
        db.sync_pool().unwrap();
        std::fs::copy(&path, &crashed).unwrap();
    }
    let (db, report) = FlitDb::open(&crashed, policy()).unwrap();
    assert!(!report.clean_close);
    let arenas = db.arenas();
    let arena = &arenas[0];
    let rec = Map::recover_arenas(&arenas, &report.image);
    assert!(!rec.truncated);
    let live: Vec<(u64, u64)> = (1..=200u64).step_by(2).map(|k| (k, k + 1)).collect();
    assert_eq!(rec.sorted_pairs(), live);

    // What the directory reaches: its own slots, the tail, every chain node.
    let image = &report.image;
    let dir = arena.root(roots::HASH_DIRECTORY).unwrap();
    let buckets = image.read(dir).unwrap() as usize;
    let tail = image.read(dir + WORD_SIZE).unwrap() as usize;
    let dir_bytes = (2 + buckets) * WORD_SIZE;
    let mut reached: Vec<usize> = (dir..dir + dir_bytes).step_by(arena.slot_size()).collect();
    reached.push(tail);
    for i in 0..buckets {
        let mut node = image.read(dir + (2 + i) * WORD_SIZE).unwrap() as usize;
        while node != tail {
            reached.push(node);
            // The one word of a node that names an arena slot is its `next`.
            node = (node..node + arena.slot_size())
                .step_by(WORD_SIZE)
                .filter_map(|w| image.read(w))
                .map(|w| w as usize)
                .find(|&w| arena.contains(w))
                .unwrap();
        }
    }
    assert_eq!(reached.len(), 9 + 1 + 100);
    let free: std::collections::HashSet<usize> = arena.durable_free_offsets().into_iter().collect();
    let freed = reached
        .iter()
        .filter(|&&a| free.contains(&arena.offset_of_addr(a).unwrap()))
        .count();
    assert_eq!(freed, 0, "GC freed {freed} reachable slot(s)");
    assert_eq!(arena.high_water(), 210);
    assert_eq!(
        report.leaked_slots(),
        arena.high_water() - reached.len(),
        "GC reclaims exactly the removed nodes"
    );
    assert_eq!(post_crash_gc(&arenas).total_reclaimed(), 0);
    drop((db, report));
    for p in [path, crashed] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn commit_mode_is_recorded_and_enforced() {
    let path = temp_path("commit");
    let _ = build_pool(&path, CommitMode::Batched(4));
    {
        let (db, _) = FlitDb::open(&path, policy()).unwrap();
        assert_eq!(db.commit_mode(), CommitMode::Batched(4));
    }
    match FlitDb::builder(policy())
        .commit_mode(CommitMode::Batched(9))
        .open_pool(&path)
    {
        Err(OpenError::CommitModeMismatch {
            pool: Some(CommitMode::Batched(4)),
            requested: CommitMode::Batched(9),
        }) => {}
        other => panic!("expected CommitModeMismatch, got {:?}", other.map(|_| ())),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn create_volatile_smoke() {
    let db = FlitDb::create(policy());
    assert!(!db.is_pool_backed());
    let map = Map::new(&db, 16);
    let h = db.handle();
    assert!(map.insert(&h, 1, 2));
    assert_eq!(map.get(&h, 1), Some(2));
    h.operation_completion();
    db.sync_pool().unwrap(); // no-op without a pool
}

#[test]
fn killed_process_pools_verify_against_the_prefix_model() {
    // The in-process half of the kill harness: run the child workload to
    // completion here (no fork), then verify the pool exactly as the parent
    // does after a SIGKILL — same recovery walk, same prefix check, same GC
    // idempotence check.
    use flit_crashtest::kill::{child_main, verify_pool, KillViolation};
    let pool = temp_path("killmodel");
    let sidecar = temp_path("killmodel-floor");
    for commit in [CommitMode::Immediate, CommitMode::Batched(8)] {
        child_main(&pool, &sidecar, 600, commit).unwrap();
        let report = verify_pool(&pool, 600, 600).unwrap();
        assert_eq!(report.matched_prefix, 600);
        assert_eq!(report.acked_floor, 600);
    }
    // The same pool read as a kill of a 700-op run that had acknowledged 650:
    // its 600-op state is a prefix of the run, but below the acked floor.
    match verify_pool(&pool, 700, 650) {
        Err(KillViolation::Inconsistent(details)) => assert!(
            details.len() == 1 && details[0].contains("some n in 650..=700 (acked floor 650"),
            "{details:?}"
        ),
        other => panic!("expected a lost acknowledged operation, got {other:?}"),
    }
    let _ = std::fs::remove_file(&pool);
    let _ = std::fs::remove_file(&sidecar);
}

#[test]
fn a_truncated_walk_fails_the_kill_verdict() {
    // Bucket 0's directory word links past the arena's chunks, so the walk
    // stops before its first pair. An empty recovery is the model after 0
    // ops, so with floor 0 only the truncation itself can fail the round.
    use flit_crashtest::kill::{verify_pool, KillViolation};
    let path = temp_path("kill-truncated");
    let _ = build_pool(&path, CommitMode::Immediate);
    let dir = DirWords::read(&path);
    write_word(&path, dir.links[0], dir.past_the_chunks);
    match verify_pool(&path, 40, 0) {
        Err(KillViolation::Inconsistent(details)) => assert!(
            details.len() == 1 && details[0].starts_with("recovery walk truncated"),
            "{details:?}"
        ),
        other => panic!("expected a truncated walk, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

/// Reopen a pool whose writer closed it in order: the open must read it
/// clean, clear the word, skip GC and report no leak. The caller checks the
/// recovered contents, then [`assert_nothing_left_for_gc`].
fn reopen_clean(path: &Path) -> (FlitDb<HtPolicy>, flit::OpenReport) {
    let word = superblock::CLEAN_CLOSE as u64;
    assert_eq!(
        read_word(path, word),
        CLEAN_CLOSE_MAGIC,
        "the drop marks it"
    );
    let (db, report) = FlitDb::open(path, policy()).unwrap();
    assert!(report.clean_close);
    assert_eq!(report.timings.gc_ns, 0);
    assert_eq!(report.leaked_slots(), 0);
    assert_eq!(read_word(path, word), 0, "open clears the word");
    (db, report)
}

/// A GC pass the clean open skipped would have reclaimed nothing, and the
/// close put the slots EBR had recycled on the durable free lists.
fn assert_nothing_left_for_gc(name: &str, db: &FlitDb<HtPolicy>) {
    let gc = post_crash_gc(&db.arenas());
    assert_eq!(gc.total_reclaimed(), 0, "{name}");
    let free: usize = gc.arenas.iter().map(|a| a.free_listed).sum();
    assert!(
        free > 0,
        "{name}: retired slots reach the durable free list"
    );
}

#[test]
fn a_close_during_a_panic_leaves_the_pool_dirty() {
    let path = temp_path("panic");
    let db = FlitDb::builder(policy()).create_pool(&path).unwrap();
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        let _db = db;
        panic!("an operation cut short");
    }));
    assert!(unwound.is_err());
    assert_eq!(read_word(&path, superblock::CLEAN_CLOSE as u64), 0);
    let (db, report) = FlitDb::open(&path, policy()).unwrap();
    assert!(!report.clean_close);
    drop((db, report));
    let _ = std::fs::remove_file(&path);
}

/// Inserts 1..=200 then removes the evens from a fresh `M` on a pool, drops
/// everything, and requires a clean reopen with the exact pairs.
fn clean_close_round_trip<M: ConcurrentMap<HtPolicy> + RecoverInImage>() {
    let path = temp_path(&format!("clean-{}", M::NAME));
    {
        let db = FlitDb::builder(policy()).create_pool(&path).unwrap();
        let map = M::with_capacity(&db, 64);
        let h = db.handle();
        for k in 1..=200u64 {
            assert!(map.insert(&h, k, 100 + k));
        }
        for k in (2..=200u64).step_by(2) {
            assert!(map.remove(&h, k));
        }
    }
    let expected: Vec<(u64, u64)> = (1..=200u64).step_by(2).map(|k| (k, 100 + k)).collect();
    let (db, report) = reopen_clean(&path);
    let rec = M::recover_arenas(&db.arenas(), &report.image);
    assert!(!rec.truncated);
    assert_eq!(rec.sorted_pairs(), expected, "{}", M::NAME);
    assert_nothing_left_for_gc(M::NAME, &db);
    drop((db, report));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_clean_close_leaves_nothing_for_gc_on_every_structure() {
    clean_close_round_trip::<HarrisList<HtPolicy, Automatic>>();
    clean_close_round_trip::<Map>();
    clean_close_round_trip::<SkipList<HtPolicy, Automatic>>();
    clean_close_round_trip::<NatarajanTree<HtPolicy, Automatic>>();
    clean_close_round_trip::<Hamt<HtPolicy>>();

    // The HAMT with a snapshot that pins a backlog until its release.
    let path = temp_path("clean-hamt-snapshot");
    {
        let db = FlitDb::builder(policy()).create_pool(&path).unwrap();
        let map = Hamt::new(&db, 64);
        let h = db.handle();
        for k in 1..=100u64 {
            assert!(map.insert(&h, k, k));
        }
        let snapshot = map.snapshot(&h);
        for k in 1..=50u64 {
            assert!(map.remove(&h, k));
        }
        assert_eq!(snapshot.iter().count(), 100);
        drop(snapshot);
        for k in 51..=60u64 {
            assert!(map.remove(&h, k));
        }
    }
    let (db, report) = reopen_clean(&path);
    let arenas = db.arenas();
    let rec = Hamt::<HtPolicy>::recover_arenas(&arenas, &report.image);
    let expected: Vec<(u64, u64)> = (61..=100u64).map(|k| (k, k)).collect();
    assert_eq!(rec.sorted_pairs(), expected);
    assert!(Hamt::<HtPolicy>::recover_snapshots_in_image(&arenas[0], &report.image).is_empty());
    assert_nothing_left_for_gc("hamt with a released snapshot", &db);
    drop((db, report));
    let _ = std::fs::remove_file(&path);

    // The MS queue: 100 enqueued, 60 dequeued.
    let path = temp_path("clean-msqueue");
    {
        let db = FlitDb::builder(policy()).create_pool(&path).unwrap();
        let queue = MsQueue::<HtPolicy, Automatic>::new(&db);
        let h = db.handle();
        for v in 1..=100u64 {
            queue.enqueue(&h, v);
        }
        for v in 1..=60u64 {
            assert_eq!(queue.dequeue(&h), Some(v));
        }
    }
    let (db, report) = reopen_clean(&path);
    let rec = MsQueue::<HtPolicy, Automatic>::recover_in_image(&db.arenas()[0], &report.image);
    assert_eq!(rec.values, (61..=100u64).collect::<Vec<_>>());
    assert_nothing_left_for_gc("msqueue", &db);
    drop((db, report));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_forged_clean_word_skips_gc_and_only_leaks() {
    let path = temp_path("forged-src");
    let crashed = temp_path("forged");
    // Copied while the database is live, the file is what a SIGKILL leaves:
    // the recycle list, the EBR backlog and one never-published slot are all
    // on no free list, and the clean-close word is 0.
    let expected = {
        let db = FlitDb::builder(policy()).create_pool(&path).unwrap();
        let map = Map::new(&db, 64);
        let h = db.handle();
        for k in 1..=200u64 {
            assert!(map.insert(&h, k, 100 + k));
        }
        for k in (2..=200u64).step_by(2) {
            assert!(map.remove(&h, k));
        }
        assert!(!db.arenas()[0].alloc(&h.pmem()).is_null());
        db.sync_pool().unwrap();
        std::fs::copy(&path, &crashed).unwrap();
        (1..=200u64)
            .step_by(2)
            .map(|k| (k, 100 + k))
            .collect::<Vec<_>>()
    };

    // Any word but the magic reads dirty, and the open's GC finds the leak.
    let hostile = temp_path("forged-hostile");
    std::fs::copy(&crashed, &hostile).unwrap();
    write_word(
        &hostile,
        superblock::CLEAN_CLOSE as u64,
        CLEAN_CLOSE_MAGIC ^ 1,
    );
    let leaked = {
        let (db, report) = FlitDb::open(&hostile, policy()).unwrap();
        assert!(!report.clean_close);
        assert_eq!(recover_map(&db, &report), expected);
        report.leaked_slots()
    };
    assert!(leaked > 1, "the unpublished slot and the recycled ones");

    // Forged clean: the open skips GC, recovers exactly, and the leak stays
    // a leak until a GC pass reclaims exactly it.
    write_word(&crashed, superblock::CLEAN_CLOSE as u64, CLEAN_CLOSE_MAGIC);
    let (db, report) = FlitDb::open(&crashed, policy()).unwrap();
    assert!(report.clean_close);
    assert_eq!(report.leaked_slots(), 0);
    assert_eq!(recover_map(&db, &report), expected);
    assert_eq!(post_crash_gc(&db.arenas()).total_reclaimed(), leaked);
    drop((db, report));
    for p in [path, crashed, hostile] {
        let _ = std::fs::remove_file(p);
    }
}

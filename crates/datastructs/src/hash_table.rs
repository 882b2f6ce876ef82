//! Lock-free hash table: a fixed array of buckets, each a Harris linked list —
//! exactly the construction benchmarked in the paper ("a hash table which uses
//! Harris's linked list to implement each bucket").
//!
//! The bucket array is sized once at construction (there is no resizing, matching the
//! evaluated implementation); every bucket shares the owning [`FlitDb`]'s policy and
//! collector, so all statistics, counter tables and reclamation are global to the
//! structure, and every operation takes the calling thread's
//! [`flit::FlitHandle`].
//!
//! ## Directory layout and recovery
//!
//! The bucket array *is* the table's persisted **directory** block, allocated
//! in the same arena as the nodes and registered in its root table under
//! [`roots::HASH_DIRECTORY`]:
//!
//! ```text
//! [bucket_count, tail, link₀, link₁, …, link_{N-1}]    one P::Word<usize> each
//! ```
//!
//! A bucket is its link word: the packed address of its first node, or of the
//! table's **one tail sentinel**, where every bucket's chain ends. The Harris
//! algorithm starts from that word and CASes it like any node's `next`, so a
//! lookup loads the link straight out of the directory, and an N-bucket table
//! is ⌈(N+2)·w / slot⌉ directory slots plus one tail slot. Construction records
//! every directory word, writes back the tail and the directory's lines, and
//! registers the root, whose first fence commits them all before the key that
//! makes the table recoverable (persist-before-publish). The root entry's two
//! fences are the only ones construction adds to the new arena's own.
//!
//! The [`RecoverInImage`] walk rebuilds the durable map purely from a
//! [`CrashImage`]: root table → directory → every bucket's chain, under one
//! bounded walker. Each directory word costs the walk one visit, and a chain
//! ends on the recorded tail address without visiting the tail again, so a
//! hostile bucket count spends the budget instead of iterating past the image.
//! The tail word must name a node with the sentinel key; any other tail would
//! cut short every chain through the node it names, so the walk truncates.
//!
//! Under the table-based FliT schemes a directory word is one machine word, so
//! eight buckets share a cache line. With [`flit::CacheLineScheme`]
//! (`flit-cacheline`) they also share one counter: a p-store to one bucket tags
//! the line, and a concurrent reader of any of its seven neighbours help-flushes
//! it. `flit-HT`, the benchmark's policy, counts per word.

use std::marker::PhantomData;
use std::mem::size_of;
use std::sync::Arc;

use flit::{FlitDb, FlitHandle, PFlag, PersistWord, Policy};
use flit_alloc::{roots, Arena, ArenaConfig, Truncated};
use flit_ebr::Guard;
use flit_pmem::CrashImage;

use crate::durability::Durability;
use crate::harris_list::{Chain, HarrisList, Node};
use crate::map::ConcurrentMap;
use crate::marked::pack;
use crate::recovery::{recover_from_root, RecoverInImage, RecoveredMap};

/// Directory words before the first bucket link: the bucket count and the tail.
const DIR_HEADER_WORDS: usize = 2;

/// Fixed-size lock-free hash table with Harris-list buckets.
pub struct HashTable<P: Policy, D: Durability> {
    /// Bucket `i`'s link: word `DIR_HEADER_WORDS + i` of the directory block.
    links: *const P::Word<usize>,
    tail: *mut Node<P>,
    arena: Arc<Arena>,
    db: FlitDb<P>,
    mask: u64,
    _durability: PhantomData<D>,
}

// SAFETY: as for `HarrisList` — shared state is accessed through atomic
// persist-words, nodes are reclaimed through EBR, and the raw directory and
// tail pointers are written only during construction. The arena held here
// keeps both alive.
unsafe impl<P: Policy, D: Durability> Send for HashTable<P, D> {}
unsafe impl<P: Policy, D: Durability> Sync for HashTable<P, D> {}

impl<P: Policy, D: Durability> HashTable<P, D> {
    /// Create a table in `db` with roughly one bucket per expected key
    /// (`capacity_hint`), rounded up to a power of two and at least 64 buckets.
    pub fn new(db: &FlitDb<P>, capacity_hint: usize) -> Self {
        Self::with_config(db, capacity_hint, db.arena_defaults())
    }

    /// [`HashTable::new`] with an explicit node-arena [`ArenaConfig`], so a
    /// shard-sized table can grow its arena in shard-sized steps. The requested
    /// chunk slot-count is raised when needed: a chunk must fit the directory
    /// contiguously.
    pub fn with_config(db: &FlitDb<P>, capacity_hint: usize, config: ArenaConfig) -> Self {
        let buckets_len = capacity_hint.next_power_of_two().max(64);
        let dir_bytes = (DIR_HEADER_WORDS + buckets_len) * size_of::<P::Word<usize>>();
        let node_slot = Arena::slot_size_for::<Node<P>>();
        let chunk_slots = config
            .slots_per_chunk
            .max(2 * dir_bytes.div_ceil(node_slot));
        let arena = db.new_arena(config.sized(node_slot).chunked(chunk_slots));
        let h = db.handle();
        let pm = h.pmem();
        let tail = Node::alloc(&h, &arena, u64::MAX, 0, 0);
        let dir = arena.alloc_block(&pm, dir_bytes) as *mut P::Word<usize>;
        let links = std::iter::repeat(pack(tail)).take(buckets_len);
        for (i, val) in [buckets_len, tail as usize]
            .into_iter()
            .chain(links)
            .enumerate()
        {
            // SAFETY: in-bounds write inside the freshly allocated, exclusively
            // owned directory block.
            let word = unsafe {
                dir.add(i).write(P::Word::<usize>::new(val));
                &*dir.add(i)
            };
            word.store_private(&h, val, PFlag::Volatile);
        }
        // Written back here, committed by the root registration's first fence,
        // which precedes the key that makes the table recoverable.
        h.write_back(tail as *const u8, size_of::<Node<P>>());
        h.write_back(dir as *const u8, dir_bytes);
        arena.register_root(&pm, roots::HASH_DIRECTORY, dir as usize);

        Self {
            links: unsafe { dir.add(DIR_HEADER_WORDS) },
            tail,
            arena,
            db: db.clone(),
            mask: (buckets_len - 1) as u64,
            _durability: PhantomData,
        }
    }

    /// Number of buckets in the table.
    pub fn bucket_count(&self) -> usize {
        self.mask as usize + 1
    }

    /// The shared arena every bucket allocates from.
    pub fn arena(&self) -> &Arc<Arena> {
        &self.arena
    }

    /// Image-only recovery through this table's own arena; see
    /// [`RecoverInImage`].
    pub fn recover(&self, image: &CrashImage) -> RecoveredMap {
        Self::recover_arena_image(&self.arena, image)
    }

    /// Bucket `i`'s chain.
    #[inline]
    fn chain(&self, i: usize) -> Chain<'_, P, D> {
        // SAFETY: callers pass `i` below the bucket count, and the directory
        // lives in the arena this table holds.
        Chain::new(unsafe { &*self.links.add(i) }, self.tail, &self.arena)
    }

    #[inline]
    fn bucket(&self, key: u64) -> Chain<'_, P, D> {
        // Fibonacci hashing spreads consecutive keys (the benchmark uses dense key
        // ranges) across buckets.
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17;
        self.chain((h & self.mask) as usize)
    }
}

impl<P: Policy, D: Durability> ConcurrentMap<P> for HashTable<P, D> {
    const NAME: &'static str = "hashtable";

    fn with_capacity(db: &FlitDb<P>, capacity_hint: usize) -> Self {
        Self::new(db, capacity_hint)
    }

    fn with_capacity_cfg(db: &FlitDb<P>, capacity_hint: usize, config: ArenaConfig) -> Self {
        Self::with_config(db, capacity_hint, config)
    }

    fn get_op(&self, h: &FlitHandle<'_, P>, key: u64, guard: &Guard<'_>) -> Option<u64> {
        self.bucket(key).get(h, key, guard)
    }

    fn insert_op(&self, h: &FlitHandle<'_, P>, key: u64, value: u64, guard: &Guard<'_>) -> bool {
        self.bucket(key).insert(h, key, value, guard)
    }

    fn remove_op(&self, h: &FlitHandle<'_, P>, key: u64, guard: &Guard<'_>) -> bool {
        self.bucket(key).remove(h, key, guard)
    }

    fn len(&self) -> usize {
        (0..self.bucket_count()).map(|i| self.chain(i).len()).sum()
    }

    fn db(&self) -> &FlitDb<P> {
        &self.db
    }
}

impl<P: Policy, D: Durability> RecoverInImage for HashTable<P, D> {
    const ROOT_KEY: u64 = roots::HASH_DIRECTORY;

    /// Read the directory block (bucket count, tail, then one link per bucket)
    /// out of the image, check that the tail word names a sentinel, and walk
    /// every bucket's chain under one walker. Each
    /// bucket's directory word costs a visit, so a hostile count spends the
    /// walk's budget instead of iterating past the image.
    fn recover_arena_image(arena: &Arena, image: &CrashImage) -> RecoveredMap {
        let probe = P::Word::<usize>::new(0);
        let value = probe.addr() - &probe as *const P::Word<usize> as usize;
        recover_from_root(arena, image, Self::ROOT_KEY, |walk, dir, pairs| {
            let word = |i: usize| dir + i * size_of::<P::Word<usize>>() + value;
            let buckets = walk.read(word(0))? as usize;
            let tail = walk.visit(walk.read(word(1))? as usize)?;
            // Chains end on this address unvisited, so it must be the sentinel:
            // a tail word naming a live node would cut every chain through it.
            if walk.read(tail + Node::<P>::layout().key)? != u64::MAX {
                return Err(Truncated);
            }
            for i in 0..buckets {
                let link = walk.visit(word(DIR_HEADER_WORDS + i))?;
                HarrisList::<P, D>::walk_chain(walk, link, Some(tail), pairs)?;
            }
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability::{Automatic, Manual, NvTraverse};
    use flit::{FlitPolicy, HashedScheme};
    use flit_pmem::{LatencyModel, SimNvram};

    fn backend() -> SimNvram {
        SimNvram::builder().latency(LatencyModel::none()).build()
    }

    fn ht_db() -> FlitDb<FlitPolicy<HashedScheme, SimNvram>> {
        FlitDb::flit_ht(backend())
    }

    type Ht<D> = HashTable<FlitPolicy<HashedScheme, SimNvram>, D>;

    #[test]
    fn bucket_count_is_a_power_of_two_with_a_floor() {
        let db = ht_db();
        let t: Ht<Automatic> = HashTable::new(&db, 1000);
        assert_eq!(t.bucket_count(), 1024);
        let t: Ht<Automatic> = HashTable::new(&db, 1);
        assert_eq!(t.bucket_count(), 64);
    }

    #[test]
    fn basic_map_semantics() {
        let db = ht_db();
        let h = db.handle();
        let t: Ht<Automatic> = HashTable::new(&db, 256);
        assert!(t.is_empty());
        assert!(t.insert(&h, 1, 10));
        assert!(t.insert(&h, 2, 20));
        assert!(!t.insert(&h, 1, 99));
        assert_eq!(t.get(&h, 1), Some(10));
        assert_eq!(t.get(&h, 3), None);
        assert!(t.remove(&h, 1));
        assert!(!t.remove(&h, 1));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn many_keys_spread_over_buckets() {
        let db = ht_db();
        let h = db.handle();
        let t: Ht<NvTraverse> = HashTable::new(&db, 128);
        for k in 0..2000u64 {
            assert!(t.insert(&h, k, k * 2));
        }
        assert_eq!(t.len(), 2000);
        for k in 0..2000u64 {
            assert_eq!(t.get(&h, k), Some(k * 2));
        }
        for k in (0..2000u64).step_by(3) {
            assert!(t.remove(&h, k));
        }
        assert_eq!(t.len(), 2000 - 2000u64.div_ceil(3) as usize);
    }

    #[test]
    fn buckets_share_one_arena_and_the_directory_is_recoverable() {
        let sim = SimNvram::for_crash_testing();
        let db = FlitDb::flit_ht(sim.clone());
        let h = db.handle();
        let t: Ht<Automatic> = HashTable::new(&db, 64);
        for k in 0..40u64 {
            assert!(t.insert(&h, k, k + 7));
        }
        assert!(t.remove(&h, 3));
        let image = sim.tracker().unwrap().crash_image();
        let rec = t.recover(&image);
        assert!(!rec.truncated);
        let expected: Vec<(u64, u64)> =
            (0..40u64).filter(|k| *k != 3).map(|k| (k, k + 7)).collect();
        assert_eq!(rec.sorted_pairs(), expected);
        // The associated form needs only the arena + the image.
        let rec2 = Ht::<Automatic>::recover_arena_image(t.arena(), &image);
        assert_eq!(rec2.sorted_pairs(), expected);
    }

    #[test]
    fn concurrent_mixed_workload() {
        let db = ht_db();
        let t: Arc<Ht<Manual>> = Arc::new(HashTable::new(&db, 512));
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                let t = Arc::clone(&t);
                let db = &db;
                s.spawn(move || {
                    let h = db.handle();
                    let base = tid * 1000;
                    for k in base..base + 500 {
                        assert!(t.insert(&h, k, k));
                    }
                    for k in base..base + 500 {
                        assert_eq!(t.get(&h, k), Some(k));
                    }
                    for k in (base..base + 500).step_by(2) {
                        assert!(t.remove(&h, k));
                    }
                });
            }
        });
        assert_eq!(t.len(), 4 * 250);
    }

    #[test]
    fn policies_share_statistics_across_buckets() {
        let sim = backend();
        let db = FlitDb::flit_ht(sim.clone());
        let h = db.handle();
        let t: Ht<Automatic> = HashTable::new(&db, 64);
        for k in 0..100u64 {
            t.insert(&h, k, k);
        }
        // Every insert is a p-store somewhere in some bucket; the shared backend must
        // have seen them all.
        assert!(sim.stats().pwbs() >= 100);
    }
}

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
//! ## Arena layout and recovery
//!
//! All buckets allocate their nodes from **one shared arena**, and the table
//! publishes a persisted **bucket directory** block in that arena:
//! `[bucket_count, head-slot-offset+1 of bucket 0, …]`. The directory is persisted
//! after every bucket's sentinels (persist-before-publish at construction scale)
//! and registered in the arena's root table under
//! [`roots::HASH_DIRECTORY`], so
//! its [`RecoverInImage`] walk rebuilds the durable map purely from a
//! [`CrashImage`]: root table → directory → every bucket's chain, under one
//! bounded walker.

use std::sync::Arc;

use flit::{FlitDb, FlitHandle, PFlag, Policy};
use flit_alloc::{roots, Arena, ArenaConfig};
use flit_pmem::{CrashImage, PmemBackend, WORD_SIZE};

use crate::durability::Durability;
use crate::harris_list::{HarrisList, Node};
use crate::map::ConcurrentMap;
use crate::recovery::{recover_from_root, RecoverInImage, RecoveredMap};

/// Fixed-size lock-free hash table with Harris-list buckets.
pub struct HashTable<P: Policy, D: Durability> {
    buckets: Vec<HarrisList<P, D>>,
    arena: Arc<Arena>,
    db: FlitDb<P>,
    mask: u64,
}

impl<P: Policy, D: Durability> HashTable<P, D> {
    /// Create a table in `db` with roughly one bucket per expected key
    /// (`capacity_hint`), rounded up to a power of two and at least 64 buckets.
    pub fn new(db: &FlitDb<P>, capacity_hint: usize) -> Self {
        Self::with_config(db, capacity_hint, db.arena_defaults())
    }

    /// [`HashTable::new`] with an explicit node-arena [`ArenaConfig`], so a
    /// shard-sized table can grow its arena in shard-sized steps. The requested
    /// chunk slot-count is raised when needed: a chunk must fit the bucket
    /// directory contiguously.
    pub fn with_config(db: &FlitDb<P>, capacity_hint: usize, config: ArenaConfig) -> Self {
        let buckets_len = capacity_hint.next_power_of_two().max(64);
        // One shared arena for every bucket's nodes plus the directory block. The
        // chunk size must fit the directory contiguously.
        let dir_bytes = (buckets_len + 1) * WORD_SIZE;
        let node_slot = Arena::slot_size_for::<Node<P>>();
        let chunk_slots = config
            .slots_per_chunk
            .max(2 * dir_bytes.div_ceil(node_slot));
        let arena = db.new_arena(config.sized(node_slot).chunked(chunk_slots));
        // One construction handle for the whole table: every bucket's
        // construction ends in a fence, so `h` enters each bucket clean and
        // no bucket's elision decisions depend on the buckets before it.
        let h = db.handle();
        let buckets: Vec<HarrisList<P, D>> = (0..buckets_len)
            .map(|_| HarrisList::with_arena(&h, Arc::clone(&arena), None))
            .collect();

        // Publish the directory: bucket count, then each bucket's head-slot offset
        // (+1, so 0 stays "absent"). Every word is recorded with the backend and
        // the whole block is flushed + fenced *before* the root that makes the
        // table recoverable is registered. Runs under the same construction
        // handle as the buckets above.
        let pm = h.pmem();
        let dir = arena.alloc_block(&pm, dir_bytes) as *mut u64;
        let write_word = |i: usize, val: u64| {
            // SAFETY: in-bounds write inside the freshly allocated, exclusively
            // owned directory block.
            unsafe { dir.add(i).write(val) };
            pm.record_store(unsafe { dir.add(i) } as *const u8, val);
        };
        write_word(0, buckets_len as u64);
        for (i, bucket) in buckets.iter().enumerate() {
            let offset = arena
                .offset_of_addr(bucket.head_addr())
                .expect("bucket heads live in the shared arena");
            write_word(i + 1, (offset + 1) as u64);
        }
        h.persist_range(dir as *const u8, dir_bytes, PFlag::Persisted);
        arena.register_root(&pm, roots::HASH_DIRECTORY, dir as usize);

        Self {
            buckets,
            arena,
            db: db.clone(),
            mask: (buckets_len - 1) as u64,
        }
    }

    /// Number of buckets in the table.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
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

    #[inline]
    fn bucket(&self, key: u64) -> &HarrisList<P, D> {
        // Fibonacci hashing spreads consecutive keys (the benchmark uses dense key
        // ranges) across buckets.
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17;
        &self.buckets[(h & self.mask) as usize]
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

    fn get(&self, h: &FlitHandle<'_, P>, key: u64) -> Option<u64> {
        self.bucket(key).get(h, key)
    }

    fn insert(&self, h: &FlitHandle<'_, P>, key: u64, value: u64) -> bool {
        self.bucket(key).insert(h, key, value)
    }

    fn remove(&self, h: &FlitHandle<'_, P>, key: u64) -> bool {
        self.bucket(key).remove(h, key)
    }

    fn len(&self) -> usize {
        self.buckets.iter().map(|b| b.len()).sum()
    }

    fn db(&self) -> &FlitDb<P> {
        &self.db
    }
}

impl<P: Policy, D: Durability> RecoverInImage for HashTable<P, D> {
    const ROOT_KEY: u64 = roots::HASH_DIRECTORY;

    /// Read the directory block (bucket count, then per-bucket head
    /// `offset + 1` words) out of the image and walk every bucket's chain
    /// under one walker. Each bucket head costs a visit, so a hostile count
    /// spends the walk's budget instead of iterating past the image.
    fn recover_arena_image(arena: &Arena, image: &CrashImage) -> RecoveredMap {
        recover_from_root(arena, image, Self::ROOT_KEY, |walk, dir, pairs| {
            for i in 1..=walk.read(dir)? as usize {
                let head = walk.slot(walk.read(dir + i * WORD_SIZE)?)?;
                HarrisList::<P, D>::walk_chain(walk, head, pairs)?;
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

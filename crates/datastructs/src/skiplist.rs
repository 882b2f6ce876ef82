//! Lock-free skiplist (Fraser / Herlihy–Shavit style), made durable through FliT.
//!
//! The skiplist is a tower of sorted linked lists; membership is defined solely by the
//! bottom level, which is why the optimised durability methods treat upper-level link
//! updates as v-instructions ([`Durability::INDEX_STORE`]). Removal marks the tower
//! from the top down and linearizes at the bottom-level mark; physical unlinking is
//! done by `find`, exactly as in the Harris list. Every operation takes the calling
//! thread's [`FlitHandle`], exactly as in the other structures.
//!
//! This is the structure where the paper observes the layout cost of the adjacent
//! counter placement (§6.6): a tower node stores one next-pointer per level, so
//! doubling every word can overflow a cache line. That effect is reproduced
//! structurally here (`FlitAtomic` with `AdjacentScheme` is 16 bytes instead of 8),
//! even though the microarchitectural penalty is not modelled by the simulated
//! backend.
//!
//! ## Arena allocation and image-only recovery
//!
//! Tower links used to live in a heap `Vec` beside the node, which made the node's
//! recovery words unreachable by address arithmetic. Nodes are now single
//! cache-line-aligned arena slots with the tower **inline** (`[P::Word; MAX_LEVEL]`,
//! `repr(C)`, tower last): only the occupied prefix `0..=top_level` is recorded and
//! persisted, and the bottom-level word sits at a fixed offset from the slot base.
//! The head tower is registered under [`roots::SKIPLIST_HEAD`], so
//! its [`RecoverInImage`] walk reads the persisted bottom level purely from the
//! [`CrashImage`] + root table.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use flit::{FlitDb, FlitHandle, PFlag, PersistWord, Policy};
use flit_alloc::{roots, Arena};
use flit_ebr::Guard;
use flit_pmem::{CrashImage, PmemBackend, WORD_SIZE};

use crate::durability::Durability;
use crate::map::ConcurrentMap;
use crate::marked::{address, is_marked, pack, unmark, with_mark};
use crate::recovery::{recover_from_root, RecoverInImage, RecoveredMap};

/// Maximum tower height. 2^20 expected elements per probability 1/2 level is ample for
/// the evaluation sizes.
pub const MAX_LEVEL: usize = 20;

/// A tower node. `repr(C)` with the tower last, so the occupied prefix
/// `..=top_level` is a contiguous range from the slot base (persisted as one
/// `persist_range`) and every recovery word sits at a layout-probed offset.
#[repr(C)]
struct Node<P: Policy> {
    key: u64,
    value: u64,
    top_level: usize,
    next: [P::Word<usize>; MAX_LEVEL],
}

/// Byte offsets of the recovery-relevant words within a node slot.
struct NodeLayout {
    key: usize,
    value: usize,
    next0: usize,
}

impl<P: Policy> Node<P> {
    fn layout() -> NodeLayout {
        let probe = Node::<P> {
            key: 0,
            value: 0,
            top_level: 0,
            next: std::array::from_fn(|_| P::Word::<usize>::new(0)),
        };
        let base = &probe as *const Node<P> as usize;
        NodeLayout {
            key: &probe.key as *const u64 as usize - base,
            value: &probe.value as *const u64 as usize - base,
            next0: probe.next[0].addr() - base,
        }
    }
}

/// Lock-free skiplist over persistence policy `P` and durability method `D`.
pub struct SkipList<P: Policy, D: Durability> {
    head: *mut Node<P>,
    arena: Arc<Arena>,
    db: FlitDb<P>,
    /// Cheap xorshift state for tower-height selection (splittable per call site).
    rng: AtomicU64,
    _durability: PhantomData<D>,
}

// SAFETY: standard lock-free structure; see `HarrisList`.
unsafe impl<P: Policy, D: Durability> Send for SkipList<P, D> {}
unsafe impl<P: Policy, D: Durability> Sync for SkipList<P, D> {}

impl<P: Policy, D: Durability> SkipList<P, D> {
    /// Create an empty skiplist in `db` with its own arena, registered under
    /// [`roots::SKIPLIST_HEAD`].
    pub fn new(db: &FlitDb<P>) -> Self {
        let arena = db.new_arena_for::<Node<P>>(db.arena_defaults());
        let list = Self {
            head: std::ptr::null_mut(),
            arena,
            db: db.clone(),
            rng: AtomicU64::new(0x9E3779B97F4A7C15),
            _durability: PhantomData,
        };
        // Persist-before-publish at construction: the full head tower becomes
        // durable, then the root registration makes the (empty) list recoverable.
        let h = db.handle();
        let head = list.alloc_node(&h, 0, 0, MAX_LEVEL - 1, &[]);
        list.persist_new_node(&h, head, PFlag::Persisted);
        list.arena
            .register_root(&h.pmem(), roots::SKIPLIST_HEAD, head as usize);
        drop(h);
        Self { head, ..list }
    }

    /// The database this skiplist lives in.
    pub fn db(&self) -> &FlitDb<P> {
        &self.db
    }

    /// The arena this skiplist allocates towers from.
    pub fn arena(&self) -> &Arc<Arena> {
        &self.arena
    }

    /// Allocate a tower node from the arena and record its key/value and occupied
    /// tower words with the backend through `h`.
    fn alloc_node(
        &self,
        h: &FlitHandle<'_, P>,
        key: u64,
        value: u64,
        top_level: usize,
        succs: &[usize],
    ) -> *mut Node<P> {
        let pm = h.pmem();
        let node: *mut Node<P> = self.arena.alloc_init(
            &pm,
            Node {
                key,
                value,
                top_level,
                next: std::array::from_fn(|lvl| {
                    P::Word::<usize>::new(succs.get(lvl).copied().unwrap_or(0))
                }),
            },
        );
        let node_ref = unsafe { &*node };
        pm.record_store(&node_ref.key as *const u64 as *const u8, key);
        pm.record_store(&node_ref.value as *const u64 as *const u8, value);
        for word in &node_ref.next[..=top_level] {
            word.store_private(h, word.load_direct(), PFlag::Volatile);
        }
        node
    }

    /// Retire `node` through the guard's collector: its slot returns to the
    /// arena's recycle list once no pinned participant can still reach it.
    fn retire(&self, guard: &Guard<'_>, node: *mut Node<P>) {
        // SAFETY: the node was unlinked from level 0 before retirement and is
        // retired once.
        unsafe { self.arena.defer_recycle(guard, node as usize) };
    }

    /// Geometric tower height in `0..MAX_LEVEL` (p = 1/2).
    fn random_level(&self) -> usize {
        let mut x = self.rng.fetch_add(0x2545F4914F6CDD1D, Ordering::Relaxed);
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let r = x.wrapping_mul(0x2545F4914F6CDD1D);
        (r.trailing_ones() as usize).min(MAX_LEVEL - 1)
    }

    /// Persist a freshly created node: the contiguous slot prefix from the node
    /// base through its highest occupied tower word (the unoccupied tail of the
    /// inline tower is dead space — flushing it would only add layout-independent
    /// but pointless `pwb`s).
    fn persist_new_node(&self, h: &FlitHandle<'_, P>, node: *mut Node<P>, flag: PFlag) {
        let node_ref = unsafe { &*node };
        let base = node as usize;
        let len = node_ref.next[node_ref.top_level].addr() + WORD_SIZE - base;
        h.persist_range(base as *const u8, len, flag);
    }

    /// Find the insertion window at every level: `preds[l]` is the last node with key
    /// < `key` at level `l`, `succs[l]` the following node (null = end of level).
    /// Physically unlinks marked nodes it passes. Returns `true` when an unmarked node
    /// with the exact key is present at the bottom level.
    fn find(
        &self,
        h: &FlitHandle<'_, P>,
        key: u64,
        preds: &mut [*mut Node<P>; MAX_LEVEL],
        succs: &mut [*mut Node<P>; MAX_LEVEL],
        guard: &Guard<'_>,
    ) -> bool {
        'retry: loop {
            let mut pred = self.head;
            for level in (0..MAX_LEVEL).rev() {
                let mut curr =
                    address::<Node<P>>(unsafe { &*pred }.next[level].load(h, D::TRAVERSAL_LOAD));
                loop {
                    if curr.is_null() {
                        break;
                    }
                    let mut succ_word = unsafe { &*curr }.next[level].load(h, D::TRAVERSAL_LOAD);
                    while is_marked(succ_word) {
                        // `curr` is logically deleted at this level: unlink it.
                        if unsafe { &*pred }.next[level]
                            .compare_exchange(
                                h,
                                pack(curr),
                                unmark(succ_word),
                                if level == 0 { D::STORE } else { D::INDEX_STORE },
                            )
                            .is_err()
                        {
                            continue 'retry;
                        }
                        if level == 0 {
                            // The bottom-level unlink is what makes the node
                            // unreachable; only then may it be retired.
                            self.retire(guard, curr);
                        }
                        curr = address::<Node<P>>(unmark(succ_word));
                        if curr.is_null() {
                            break;
                        }
                        succ_word = unsafe { &*curr }.next[level].load(h, D::TRAVERSAL_LOAD);
                    }
                    if curr.is_null() {
                        break;
                    }
                    if unsafe { &*curr }.key < key {
                        pred = curr;
                        curr = address::<Node<P>>(unmark(succ_word));
                    } else {
                        break;
                    }
                }
                preds[level] = pred;
                succs[level] = curr;
            }
            return !succs[0].is_null() && unsafe { &*succs[0] }.key == key;
        }
    }

    /// Image-only recovery through this skiplist's own arena; see
    /// [`RecoverInImage`].
    pub fn recover(&self, image: &CrashImage) -> RecoveredMap {
        Self::recover_arena_image(&self.arena, image)
    }
}

impl<P: Policy, D: Durability> ConcurrentMap<P> for SkipList<P, D> {
    const NAME: &'static str = "skiplist";

    fn with_capacity(db: &FlitDb<P>, _capacity_hint: usize) -> Self {
        Self::new(db)
    }

    fn get_op(&self, h: &FlitHandle<'_, P>, key: u64, guard: &Guard<'_>) -> Option<u64> {
        let mut preds = [std::ptr::null_mut(); MAX_LEVEL];
        let mut succs = [std::ptr::null_mut(); MAX_LEVEL];
        let found = self.find(h, key, &mut preds, &mut succs, guard);
        if found {
            let node = unsafe { &*succs[0] };
            if D::TRANSITION_DEPTH > 0 {
                let _ = node.next[0].load(h, PFlag::Persisted);
            }
            Some(node.value)
        } else {
            None
        }
    }

    fn insert_op(&self, h: &FlitHandle<'_, P>, key: u64, value: u64, guard: &Guard<'_>) -> bool {
        assert!(key < u64::MAX);
        let top_level = self.random_level();
        let mut preds = [std::ptr::null_mut(); MAX_LEVEL];
        let mut succs = [std::ptr::null_mut(); MAX_LEVEL];
        loop {
            if self.find(h, key, &mut preds, &mut succs, guard) {
                return false;
            }
            // Build the tower pointing at the successors observed by find().
            let succ_words: Vec<usize> = (0..=top_level).map(|l| pack(succs[l])).collect();
            let node = self.alloc_node(h, key, value, top_level, &succ_words);
            self.persist_new_node(h, node, D::STORE);

            // Transition: persist the bottom-level link we are about to modify.
            if D::TRANSITION_DEPTH >= 1 {
                let _ = unsafe { &*preds[0] }.next[0].load(h, PFlag::Persisted);
            }
            if D::TRANSITION_DEPTH >= 2 && !succs[0].is_null() {
                let _ = unsafe { &*succs[0] }.next[0].load(h, PFlag::Persisted);
            }

            // Linking the bottom level is the linearization point.
            if unsafe { &*preds[0] }.next[0]
                .compare_exchange(h, pack(succs[0]), pack(node), D::STORE)
                .is_err()
            {
                // Never published: return the slot to the durable free list.
                // SAFETY: `node` was allocated above and never became reachable.
                unsafe { self.arena.free(&h.pmem(), node as *mut u8) };
                continue;
            }

            // Link the index levels (best-effort; failures only cost search speed).
            for level in 1..=top_level {
                loop {
                    let pred = preds[level];
                    let succ = succs[level];
                    let cur_tower = unsafe { &*node }.next[level].load_direct();
                    if is_marked(cur_tower) {
                        // A concurrent remove already started dismantling the tower.
                        break;
                    }
                    // Point the tower at the current successor if it changed.
                    if address::<Node<P>>(cur_tower) != succ
                        && unsafe { &*node }.next[level]
                            .compare_exchange(h, cur_tower, pack(succ), D::INDEX_STORE)
                            .is_err()
                    {
                        break;
                    }
                    if unsafe { &*pred }.next[level]
                        .compare_exchange(h, pack(succ), pack(node), D::INDEX_STORE)
                        .is_ok()
                    {
                        break;
                    }
                    // The window moved: recompute it and retry this level.
                    self.find(h, key, &mut preds, &mut succs, guard);
                    if succs[0] != node {
                        // Our node has already been removed; stop linking.
                        return true;
                    }
                }
            }
            return true;
        }
    }

    fn remove_op(&self, h: &FlitHandle<'_, P>, key: u64, guard: &Guard<'_>) -> bool {
        let mut preds = [std::ptr::null_mut(); MAX_LEVEL];
        let mut succs = [std::ptr::null_mut(); MAX_LEVEL];
        if !self.find(h, key, &mut preds, &mut succs, guard) {
            return false;
        }
        let node = succs[0];
        let node_ref = unsafe { &*node };

        // Mark the index levels top-down (auxiliary state: INDEX_STORE).
        for level in (1..=node_ref.top_level).rev() {
            loop {
                let w = node_ref.next[level].load(h, D::CRITICAL_LOAD);
                if is_marked(w) {
                    break;
                }
                if node_ref.next[level]
                    .compare_exchange(h, w, with_mark(w), D::INDEX_STORE)
                    .is_ok()
                {
                    break;
                }
            }
        }

        // Marking the bottom level is the linearization point of a successful remove.
        loop {
            let w = node_ref.next[0].load(h, D::CRITICAL_LOAD);
            if is_marked(w) {
                // Another thread won the removal race.
                return false;
            }
            if D::TRANSITION_DEPTH >= 1 {
                let _ = unsafe { &*preds[0] }.next[0].load(h, PFlag::Persisted);
            }
            if node_ref.next[0]
                .compare_exchange(h, w, with_mark(w), D::STORE)
                .is_ok()
            {
                // Physically unlink (and retire) through find().
                let _ = self.find(h, key, &mut preds, &mut succs, guard);
                return true;
            }
        }
    }

    fn len(&self) -> usize {
        let mut count = 0;
        let mut cur = address::<Node<P>>(unsafe { &*self.head }.next[0].load_direct());
        while !cur.is_null() {
            let next = unsafe { &*cur }.next[0].load_direct();
            if !is_marked(next) {
                count += 1;
            }
            cur = address::<Node<P>>(next);
        }
        count
    }

    fn db(&self) -> &FlitDb<P> {
        &self.db
    }
}

impl<P: Policy, D: Durability> RecoverInImage for SkipList<P, D> {
    const ROOT_KEY: u64 = roots::SKIPLIST_HEAD;

    /// Read the head tower's slot from the root table, then walk the persisted
    /// bottom-level chain to its null link, reading every key/value out of the
    /// image (the bottom level alone defines membership; upper levels are
    /// volatile index state under the optimised durability methods).
    fn recover_arena_image(arena: &Arena, image: &CrashImage) -> RecoveredMap {
        let layout = Node::<P>::layout();
        recover_from_root(arena, image, Self::ROOT_KEY, |walk, head, pairs| {
            let mut next = walk.read(head + layout.next0)? as usize;
            while unmark(next) != 0 {
                let cur = walk.visit(unmark(next))?;
                next = walk.read(cur + layout.next0)? as usize;
                if !is_marked(next) {
                    pairs.push((walk.read(cur + layout.key)?, walk.read(cur + layout.value)?));
                }
            }
            Ok(())
        })
    }
}

// No `Drop` impl: towers are plain data in arena slots, reclaimed wholesale when
// the last `Arc<Arena>` goes away.

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability::{Automatic, Manual, NvTraverse};
    use flit::{presets, FlitPolicy, HashedScheme};
    use flit_pmem::{LatencyModel, SimNvram};

    fn backend() -> SimNvram {
        SimNvram::builder().latency(LatencyModel::none()).build()
    }

    fn ht_db() -> FlitDb<FlitPolicy<HashedScheme, SimNvram>> {
        FlitDb::flit_ht(backend())
    }

    type Sl<D> = SkipList<FlitPolicy<HashedScheme, SimNvram>, D>;

    #[test]
    fn empty_and_basic_ops() {
        let db = ht_db();
        let h = db.handle();
        let s: Sl<Automatic> = SkipList::new(&db);
        assert!(s.is_empty());
        assert_eq!(s.get(&h, 3), None);
        assert!(s.insert(&h, 3, 30));
        assert!(!s.insert(&h, 3, 31));
        assert_eq!(s.get(&h, 3), Some(30));
        assert!(s.remove(&h, 3));
        assert!(!s.remove(&h, 3));
        assert!(s.is_empty());
    }

    #[test]
    fn many_sequential_keys() {
        let db = ht_db();
        let h = db.handle();
        let s: Sl<Automatic> = SkipList::new(&db);
        for k in 0..1000u64 {
            assert!(s.insert(&h, k, k * 3));
        }
        assert_eq!(s.len(), 1000);
        for k in 0..1000u64 {
            assert_eq!(s.get(&h, k), Some(k * 3));
        }
        for k in (0..1000u64).step_by(2) {
            assert!(s.remove(&h, k));
        }
        assert_eq!(s.len(), 500);
        for k in 0..1000u64 {
            assert_eq!(s.get(&h, k).is_some(), k % 2 == 1);
        }
    }

    /// Walk the physical bottom level of a skiplist and return the keys in order
    /// (generic helper so the persist-word trait methods resolve without annotations).
    fn bottom_level_keys<P: Policy, D: Durability>(s: &SkipList<P, D>) -> Vec<u64> {
        let mut keys = Vec::new();
        let mut cur = address::<Node<P>>(unsafe { &*s.head }.next[0].load_direct());
        while !cur.is_null() {
            let n = unsafe { &*cur };
            keys.push(n.key);
            cur = address::<Node<P>>(unmark(n.next[0].load_direct()));
        }
        keys
    }

    #[test]
    fn bottom_level_is_sorted() {
        let db = ht_db();
        let h = db.handle();
        let s: Sl<NvTraverse> = SkipList::new(&db);
        for k in [9u64, 2, 7, 4, 1, 8, 3] {
            s.insert(&h, k, k);
        }
        let seen = bottom_level_keys(&s);
        assert!(
            seen.windows(2).all(|w| w[0] <= w[1]),
            "not sorted: {seen:?}"
        );
        assert_eq!(seen, vec![1, 2, 3, 4, 7, 8, 9]);
    }

    #[test]
    fn random_levels_are_bounded_and_varied() {
        let db = ht_db();
        let s: Sl<Automatic> = SkipList::new(&db);
        let mut heights = std::collections::HashSet::new();
        for _ in 0..512 {
            let h = s.random_level();
            assert!(h < MAX_LEVEL);
            heights.insert(h);
        }
        assert!(heights.len() > 2, "tower heights should vary: {heights:?}");
    }

    #[test]
    fn towers_are_inline_single_arena_slots() {
        let db = ht_db();
        let h = db.handle();
        let s: Sl<Automatic> = SkipList::new(&db);
        s.insert(&h, 5, 50);
        let node = address::<Node<FlitPolicy<HashedScheme, SimNvram>>>(
            unsafe { &*s.head }.next[0].load_direct(),
        );
        assert!(s.arena().contains(node as usize));
        assert_eq!(node as usize % flit_pmem::CACHE_LINE_SIZE, 0);
        // The bottom-level word must live inside the same slot as the node.
        let n = unsafe { &*node };
        assert!(n.next[0].addr() - (node as usize) < s.arena().slot_size());
    }

    #[test]
    fn image_only_recovery_matches_the_quiescent_set() {
        let sim = SimNvram::for_crash_testing();
        let db = FlitDb::flit_ht(sim.clone());
        let h = db.handle();
        let s: Sl<Automatic> = SkipList::new(&db);
        for k in [5u64, 1, 8, 3] {
            assert!(s.insert(&h, k, k + 100));
        }
        assert!(s.remove(&h, 8));
        let image = sim.tracker().unwrap().crash_image();
        let rec = s.recover(&image);
        assert!(!rec.truncated);
        assert_eq!(rec.sorted_pairs(), vec![(1, 101), (3, 103), (5, 105)]);
        let rec2 = Sl::<Automatic>::recover_arena_image(s.arena(), &image);
        assert_eq!(rec2.sorted_pairs(), rec.sorted_pairs());
    }

    #[test]
    fn works_with_every_durability_method() {
        fn exercise<D: Durability>() {
            let db = FlitDb::flit_ht(SimNvram::builder().latency(LatencyModel::none()).build());
            let h = db.handle();
            let s: Sl<D> = SkipList::new(&db);
            for k in 0..200u64 {
                assert!(s.insert(&h, k, k + 1));
            }
            for k in 0..200u64 {
                assert_eq!(s.get(&h, k), Some(k + 1));
            }
            for k in (0..200u64).step_by(3) {
                assert!(s.remove(&h, k));
            }
            assert_eq!(s.len(), 200 - 200usize.div_ceil(3));
        }
        exercise::<Automatic>();
        exercise::<NvTraverse>();
        exercise::<Manual>();
    }

    #[test]
    fn works_with_link_and_persist_and_baseline() {
        let db = FlitDb::create(presets::link_and_persist(backend()));
        let h = db.handle();
        let s: SkipList<_, Automatic> = SkipList::new(&db);
        for k in 0..100u64 {
            assert!(s.insert(&h, k, k));
        }
        assert_eq!(s.len(), 100);
        let db = FlitDb::create(presets::no_persist());
        let h = db.handle();
        let s: SkipList<_, Automatic> = SkipList::new(&db);
        for k in 0..100u64 {
            assert!(s.insert(&h, k, k));
        }
        assert_eq!(s.len(), 100);
    }

    #[test]
    fn concurrent_disjoint_ranges() {
        let db = ht_db();
        let s: Arc<Sl<Automatic>> = Arc::new(SkipList::new(&db));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let s = Arc::clone(&s);
                let db = &db;
                scope.spawn(move || {
                    let h = db.handle();
                    let base = t * 1000;
                    for k in base..base + 300 {
                        assert!(s.insert(&h, k, k));
                    }
                    for k in (base..base + 300).step_by(2) {
                        assert!(s.remove(&h, k));
                    }
                    for k in base..base + 300 {
                        assert_eq!(s.get(&h, k).is_some(), k % 2 == 1);
                    }
                });
            }
        });
        assert_eq!(s.len(), 4 * 150);
    }

    #[test]
    fn concurrent_contended_stress() {
        let db = ht_db();
        let s: Arc<Sl<Manual>> = Arc::new(SkipList::new(&db));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let s = Arc::clone(&s);
                let db = &db;
                scope.spawn(move || {
                    let h = db.handle();
                    for i in 0..800u64 {
                        let k = (t * 31 + i * 7) % 32;
                        match i % 3 {
                            0 => {
                                s.insert(&h, k, i);
                            }
                            1 => {
                                s.remove(&h, k);
                            }
                            _ => {
                                s.get(&h, k);
                            }
                        }
                    }
                });
            }
        });
        assert!(s.len() <= 32);
    }
}

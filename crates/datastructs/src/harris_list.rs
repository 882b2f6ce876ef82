//! Harris's lock-free linked list (DISC 2001), made durable through FliT.
//!
//! This is the sorted-set linked list used directly in the paper's evaluation
//! (the "Linked List, 128 / 4K keys" plots) and as the bucket implementation of the
//! hash table. Deletion is two-phase: a node is first *logically* deleted by setting
//! the mark bit of its `next` pointer, then *physically* unlinked (by the deleter or by
//! any later traversal that encounters it).
//!
//! Persistence is injected entirely through the [`Policy`] / [`Durability`] type
//! parameters; the algorithm itself is textbook Harris. Every operation takes the
//! calling thread's [`FlitHandle`]: loads/stores are issued through the handle (so
//! fence/flush elision is per handle), EBR pinning goes through the handle's
//! participant, and the completion fence is [`FlitHandle::operation_completion`].
//! In the `Automatic` method every load and store below is a p-instruction; in
//! `NvTraverse`/`Manual` the search loop issues v-loads and the links touched by
//! the critical phase are persisted via the transition (see
//! [`Durability::TRANSITION_DEPTH`]).
//!
//! The algorithm runs on a *chain*: the link word it starts from and the tail
//! sentinel that ends it. `left` is always a link — the head link or an unmarked
//! node's `next` — so the list needs no head node to CAS. A standalone list's
//! head link is its head sentinel's `next`; a hash-table bucket's is one word of
//! the table's directory, and all its buckets end at one shared tail.
//!
//! ## Arena allocation and image-only recovery
//!
//! Nodes live in cache-line-aligned slots of a [`Arena`] — one arena per
//! standalone list (created through the owning [`FlitDb`]), or the owning hash
//! table's shared arena for its buckets' nodes. Every node word
//! (including the immutable `key`/`value`) is recorded with the backend before
//! the node is persisted and published, and a standalone list registers its head
//! sentinel in the arena's recovery-root table under [`roots::LIST_HEAD`].
//! Recovery ([`RecoverInImage`]) therefore walks **purely from the
//! `CrashImage` plus the root table**: it never reads live memory, needs no
//! pointer into the live structure, and yields the empty list for a crash that
//! predates durable construction.

use std::marker::PhantomData;
use std::sync::Arc;

use flit::{FlitDb, FlitHandle, PFlag, PersistWord, Policy};
use flit_alloc::{roots, Arena, ImageWalk, Truncated};
use flit_ebr::Guard;
use flit_pmem::{CrashImage, PmemBackend};

use crate::durability::Durability;
use crate::map::ConcurrentMap;
use crate::marked::{address, is_marked, pack, unmark, with_mark};
use crate::recovery::{recover_from_root, RecoverInImage, RecoveredMap};

/// A node of the list. `key` and `value` are immutable after construction (the node is
/// persisted wholesale before being published), so only the `next` link is a
/// persist-word.
pub(crate) struct Node<P: Policy> {
    pub(crate) key: u64,
    pub(crate) value: u64,
    pub(crate) next: P::Word<usize>,
}

/// Byte offsets of a node's recovery-relevant words within its arena slot, obtained
/// by probing a stack dummy (field layout depends on the policy's word type, and the
/// MSRV predates `offset_of!`).
pub(crate) struct NodeLayout {
    pub(crate) key: usize,
    pub(crate) value: usize,
    pub(crate) next: usize,
}

impl<P: Policy> Node<P> {
    /// Allocate a node from `arena` and record **all** of its words (key, value,
    /// link) with the backend through `h`, so the node is fully reconstructible
    /// from a crash image. The caller persists and publishes it.
    pub(crate) fn alloc(
        h: &FlitHandle<'_, P>,
        arena: &Arena,
        key: u64,
        value: u64,
        next: usize,
    ) -> *mut Self {
        let pm = h.pmem();
        let node: *mut Self = arena.alloc_init(
            &pm,
            Node {
                key,
                value,
                next: P::Word::<usize>::new(next),
            },
        );
        let node_ref = unsafe { &*node };
        pm.record_store(&node_ref.key as *const u64 as *const u8, key);
        pm.record_store(&node_ref.value as *const u64 as *const u8, value);
        node_ref.next.store_private(h, next, PFlag::Volatile);
        node
    }

    pub(crate) fn layout() -> NodeLayout {
        let probe = Node::<P> {
            key: 0,
            value: 0,
            next: P::Word::<usize>::new(0),
        };
        let base = &probe as *const Node<P> as usize;
        NodeLayout {
            key: &probe.key as *const u64 as usize - base,
            value: &probe.value as *const u64 as usize - base,
            next: probe.next.addr() - base,
        }
    }
}

/// Harris's lock-free sorted linked list over persistence policy `P` and durability
/// method `D`.
pub struct HarrisList<P: Policy, D: Durability> {
    head: *mut Node<P>,
    tail: *mut Node<P>,
    arena: Arc<Arena>,
    db: FlitDb<P>,
    _durability: PhantomData<D>,
}

// SAFETY: the list is a standard lock-free structure — all shared mutable state is
// accessed through atomic persist-words, and node lifetime is managed by the db's
// EBR collector + the shared arena. The raw sentinel pointers are only written
// during construction.
unsafe impl<P: Policy, D: Durability> Send for HarrisList<P, D> {}
unsafe impl<P: Policy, D: Durability> Sync for HarrisList<P, D> {}

impl<P: Policy, D: Durability> HarrisList<P, D> {
    /// Create an empty list in `db` with its own arena, registered under
    /// [`roots::LIST_HEAD`].
    pub fn new(db: &FlitDb<P>) -> Self {
        let arena = db.new_arena_for::<Node<P>>(db.arena_defaults());
        let h = db.handle();
        // Persist-before-publish at construction: both sentinels become durable
        // (including their key/value words) before the root that makes the list
        // recoverable is registered, so a crash at *any* construction event
        // recovers to either "no list yet" or the empty list — never garbage.
        let tail = Node::alloc(&h, &arena, u64::MAX, 0, 0);
        let head = Node::alloc(&h, &arena, 0, 0, pack(tail));
        for node in [tail, head] {
            h.persist_object(unsafe { &*node }, PFlag::Persisted);
        }
        arena.register_root(&h.pmem(), roots::LIST_HEAD, head as usize);
        Self {
            head,
            tail,
            arena,
            db: db.clone(),
            _durability: PhantomData,
        }
    }

    /// The database this list lives in.
    pub fn db(&self) -> &FlitDb<P> {
        &self.db
    }

    /// The arena this list allocates nodes from.
    pub fn arena(&self) -> &Arc<Arena> {
        &self.arena
    }

    /// The list's one chain, starting at the head sentinel's `next`.
    #[inline]
    fn chain(&self) -> Chain<'_, P, D> {
        Chain::new(&unsafe { &*self.head }.next, self.tail, &self.arena)
    }

    /// Image-only walk of one persisted chain, starting from the link word at
    /// `link` (a head sentinel's `next`, or a hash-table directory word). A node
    /// whose own persisted `next` carries the deletion mark is skipped. The
    /// chain ends at `tail` when the caller recorded it — the hash table's one
    /// tail ends every bucket without being visited again — and otherwise at
    /// the node whose persisted key is the tail sentinel's.
    pub(crate) fn walk_chain(
        walk: &mut ImageWalk<'_>,
        link: usize,
        tail: Option<usize>,
        pairs: &mut Vec<(u64, u64)>,
    ) -> Result<(), Truncated> {
        let layout = Node::<P>::layout();
        let mut next = walk.read(link)? as usize;
        loop {
            if Some(unmark(next)) == tail {
                return Ok(());
            }
            let cur = walk.visit(unmark(next))?;
            next = walk.read(cur + layout.next)? as usize;
            let key = walk.read(cur + layout.key)?;
            if key == u64::MAX {
                return Ok(());
            }
            if !is_marked(next) {
                pairs.push((key, walk.read(cur + layout.value)?));
            }
        }
    }

    /// Image-only recovery through this list's own arena; see
    /// [`RecoverInImage`].
    pub fn recover(&self, image: &CrashImage) -> RecoveredMap {
        Self::recover_arena_image(&self.arena, image)
    }
}

/// One Harris chain: the link word it starts from, the tail sentinel that ends
/// it and the arena its nodes come from. A standalone list's head link is its
/// head sentinel's `next`; a hash-table bucket's is its word of the table's
/// directory. The algorithm only ever reads and CASes links, so it never
/// needs a head node.
pub(crate) struct Chain<'a, P: Policy, D: Durability> {
    head: &'a P::Word<usize>,
    tail: *mut Node<P>,
    arena: &'a Arc<Arena>,
    _durability: PhantomData<D>,
}

impl<'a, P: Policy, D: Durability> Chain<'a, P, D> {
    #[inline]
    pub(crate) fn new(head: &'a P::Word<usize>, tail: *mut Node<P>, arena: &'a Arc<Arena>) -> Self {
        Self {
            head,
            tail,
            arena,
            _durability: PhantomData,
        }
    }

    /// Retire `node` through the guard's collector: its slot returns to the
    /// arena's recycle list once no pinned participant can still reach it.
    fn retire(&self, guard: &Guard<'_>, node: *mut Node<P>) {
        // SAFETY: the node was unlinked before retirement and is retired once.
        unsafe { self.arena.defer_recycle(guard, node as usize) };
    }

    /// NVTraverse-style transition: re-read the links the critical phase depends on
    /// as p-loads, so they are flushed (if tagged) before the update CAS.
    #[inline]
    fn transition(&self, h: &FlitHandle<'_, P>, left: &P::Word<usize>, right: *mut Node<P>) {
        if D::TRANSITION_DEPTH >= 1 {
            let _ = left.load(h, PFlag::Persisted);
        }
        if D::TRANSITION_DEPTH >= 2 && right != self.tail {
            let _ = unsafe { &*right }.next.load(h, PFlag::Persisted);
        }
    }

    /// Harris's `search`: returns `(left, right)` such that `left` is the link
    /// naming `right`, every node before it has a key `< key` and `right.key >=
    /// key`; `left` and `right` are adjacent and unmarked at some point during
    /// the call, and any marked nodes between them are physically unlinked.
    fn search(
        &self,
        h: &FlitHandle<'_, P>,
        key: u64,
        guard: &Guard<'_>,
    ) -> (&'a P::Word<usize>, *mut Node<P>) {
        'retry: loop {
            let mut link = self.head;
            let mut next = link.load(h, D::TRAVERSAL_LOAD);
            let mut left = link;
            let mut left_next = next;

            // Phase 1: find left (the link out of the last unmarked node with key
            // < `key`, or the head link) and right (first unmarked node with key
            // >= `key`).
            let right = loop {
                if !is_marked(next) {
                    left = link;
                    left_next = next;
                }
                let t = address::<Node<P>>(next);
                if t == self.tail {
                    break t;
                }
                let t_ref: &'a Node<P> = unsafe { &*t };
                link = &t_ref.next;
                next = link.load(h, D::TRAVERSAL_LOAD);
                if !is_marked(next) && t_ref.key >= key {
                    break t;
                }
            };

            // Phase 2: if left and right are adjacent we are done (unless right got
            // marked in the meantime, in which case start over).
            if address::<Node<P>>(left_next) == right {
                if right != self.tail
                    && is_marked(unsafe { &*right }.next.load(h, D::TRAVERSAL_LOAD))
                {
                    continue 'retry;
                }
                return (left, right);
            }

            // Phase 3: unlink the chain of marked nodes between left and right.
            if left
                .compare_exchange(h, left_next, pack(right), D::STORE)
                .is_ok()
            {
                // The unlinked nodes are no longer reachable; retire them.
                let mut cur = address::<Node<P>>(left_next);
                while cur != right {
                    let next = unmark(unsafe { &*cur }.next.load_direct());
                    self.retire(guard, cur);
                    cur = address::<Node<P>>(next);
                }
                if right != self.tail
                    && is_marked(unsafe { &*right }.next.load(h, D::TRAVERSAL_LOAD))
                {
                    continue 'retry;
                }
                return (left, right);
            }
        }
    }

    pub(crate) fn get(&self, h: &FlitHandle<'_, P>, key: u64, guard: &Guard<'_>) -> Option<u64> {
        let (_left, right) = self.search(h, key, guard);
        if right == self.tail {
            return None;
        }
        let right_ref = unsafe { &*right };
        if right_ref.key != key {
            return None;
        }
        // NVTraverse: a read-only operation persists the node that determines its
        // result before returning.
        if D::TRANSITION_DEPTH > 0 {
            let _ = right_ref.next.load(h, PFlag::Persisted);
        }
        Some(right_ref.value)
    }

    pub(crate) fn insert(
        &self,
        h: &FlitHandle<'_, P>,
        key: u64,
        value: u64,
        guard: &Guard<'_>,
    ) -> bool {
        assert!(key < u64::MAX, "key space reserved for the tail sentinel");
        loop {
            let (left, right) = self.search(h, key, guard);
            if right != self.tail && unsafe { &*right }.key == key {
                return false;
            }
            self.transition(h, left, right);
            // Allocate, record and persist the new node's contents before it
            // becomes reachable: the publishing CAS below depends on them, and
            // recovery walks the persisted words.
            let node = Node::alloc(h, self.arena, key, value, pack(right));
            h.persist_object(unsafe { &*node }, D::STORE);
            match left.compare_exchange(h, pack(right), pack(node), D::STORE) {
                Ok(_) => return true,
                Err(_) => {
                    // Never published: return the slot to the durable free list.
                    // SAFETY: `node` was allocated above and never became reachable.
                    unsafe { self.arena.free(&h.pmem(), node as *mut u8) };
                }
            }
        }
    }

    pub(crate) fn remove(&self, h: &FlitHandle<'_, P>, key: u64, guard: &Guard<'_>) -> bool {
        loop {
            let (left, right) = self.search(h, key, guard);
            if right == self.tail || unsafe { &*right }.key != key {
                return false;
            }
            let right_ref = unsafe { &*right };
            let right_next = right_ref.next.load(h, D::CRITICAL_LOAD);
            if is_marked(right_next) {
                // Another deleter is ahead of us; re-run the search (which will help
                // unlink) and re-evaluate.
                continue;
            }
            self.transition(h, left, right);
            if right_ref
                .next
                .compare_exchange(h, right_next, with_mark(right_next), D::STORE)
                .is_ok()
            {
                // Logical deletion succeeded (linearization point). Try to unlink
                // physically; if that fails, a later search will do it.
                if left
                    .compare_exchange(h, pack(right), unmark(right_next), D::STORE)
                    .is_ok()
                {
                    self.retire(guard, right);
                } else {
                    let _ = self.search(h, key, guard);
                }
                return true;
            }
        }
    }

    /// Quiescent-state traversal: counts the unmarked nodes before the tail.
    pub(crate) fn len(&self) -> usize {
        let mut count = 0;
        let mut cur = address::<Node<P>>(self.head.load_direct());
        while cur != self.tail {
            let next = unsafe { &*cur }.next.load_direct();
            if !is_marked(next) {
                count += 1;
            }
            cur = address::<Node<P>>(next);
        }
        count
    }
}

impl<P: Policy, D: Durability> ConcurrentMap<P> for HarrisList<P, D> {
    const NAME: &'static str = "list";

    fn with_capacity(db: &FlitDb<P>, _capacity_hint: usize) -> Self {
        Self::new(db)
    }

    fn get_op(&self, h: &FlitHandle<'_, P>, key: u64, guard: &Guard<'_>) -> Option<u64> {
        self.chain().get(h, key, guard)
    }

    fn insert_op(&self, h: &FlitHandle<'_, P>, key: u64, value: u64, guard: &Guard<'_>) -> bool {
        self.chain().insert(h, key, value, guard)
    }

    fn remove_op(&self, h: &FlitHandle<'_, P>, key: u64, guard: &Guard<'_>) -> bool {
        self.chain().remove(h, key, guard)
    }

    fn len(&self) -> usize {
        self.chain().len()
    }

    fn db(&self) -> &FlitDb<P> {
        &self.db
    }
}

impl<P: Policy, D: Durability> RecoverInImage for HarrisList<P, D> {
    const ROOT_KEY: u64 = roots::LIST_HEAD;

    /// Read the head sentinel's slot from the root table, then walk the
    /// persisted `next` chain, reading every key/value out of the image.
    fn recover_arena_image(arena: &Arena, image: &CrashImage) -> RecoveredMap {
        recover_from_root(arena, image, Self::ROOT_KEY, |walk, head, pairs| {
            let head = walk.visit(head)?;
            Self::walk_chain(walk, head + Node::<P>::layout().next, None, pairs)
        })
    }
}

// No `Drop` impl: nodes are plain data in arena slots, reclaimed wholesale when the
// last `Arc<Arena>` (and the collector, whose deferred recycles hold clones of it)
// goes away.

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

    type HtList<D> = HarrisList<FlitPolicy<HashedScheme, SimNvram>, D>;

    #[test]
    fn empty_list_behaviour() {
        let db = ht_db();
        let h = db.handle();
        let list: HtList<Automatic> = HarrisList::new(&db);
        assert!(list.is_empty());
        assert_eq!(list.get(&h, 5), None);
        assert!(!list.remove(&h, 5));
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let db = ht_db();
        let h = db.handle();
        let list: HtList<Automatic> = HarrisList::new(&db);
        assert!(list.insert(&h, 10, 100));
        assert!(list.insert(&h, 5, 50));
        assert!(list.insert(&h, 20, 200));
        assert!(!list.insert(&h, 10, 999), "duplicate insert must fail");
        assert_eq!(list.len(), 3);
        assert_eq!(list.get(&h, 10), Some(100));
        assert_eq!(list.get(&h, 5), Some(50));
        assert_eq!(list.get(&h, 20), Some(200));
        assert_eq!(list.get(&h, 15), None);
        assert!(list.remove(&h, 10));
        assert!(!list.remove(&h, 10));
        assert_eq!(list.get(&h, 10), None);
        assert_eq!(list.len(), 2);
    }

    #[test]
    fn keys_stay_sorted_and_unique() {
        let db = ht_db();
        let h = db.handle();
        let list: HtList<Automatic> = HarrisList::new(&db);
        for k in [5u64, 3, 9, 1, 7, 3, 9] {
            list.insert(&h, k, k * 10);
        }
        assert_eq!(list.len(), 5);
        // Walk the physical list and check ordering.
        let mut prev = 0u64;
        let mut cur = address::<Node<_>>(unsafe { &*list.head }.next.load_direct());
        while cur != list.tail {
            let node = unsafe { &*cur };
            assert!(node.key > prev || prev == 0);
            prev = node.key;
            cur = address::<Node<_>>(unmark(node.next.load_direct()));
        }
    }

    #[test]
    fn nodes_live_in_cache_line_aligned_arena_slots() {
        let db = ht_db();
        let h = db.handle();
        let list: HtList<Automatic> = HarrisList::new(&db);
        list.insert(&h, 1, 10);
        let head_next = unsafe { &*list.head }.next.load_direct();
        let node = address::<Node<FlitPolicy<HashedScheme, SimNvram>>>(head_next) as usize;
        assert_eq!(node % flit_pmem::CACHE_LINE_SIZE, 0, "slot misaligned");
        assert!(list.arena().contains(node));
        assert!(list.arena().contains(list.head as usize));
        assert_eq!(db.arenas().len(), 1, "the list registered its arena");
    }

    #[test]
    fn works_with_every_durability_method() {
        fn exercise<D: Durability>() {
            let db = FlitDb::flit_ht(SimNvram::builder().latency(LatencyModel::none()).build());
            let h = db.handle();
            let list: HtList<D> = HarrisList::new(&db);
            for k in 0..50u64 {
                assert!(list.insert(&h, k, k));
            }
            for k in 0..50u64 {
                assert_eq!(list.get(&h, k), Some(k));
            }
            for k in (0..50u64).step_by(2) {
                assert!(list.remove(&h, k));
            }
            assert_eq!(list.len(), 25);
        }
        exercise::<Automatic>();
        exercise::<NvTraverse>();
        exercise::<Manual>();
    }

    #[test]
    fn works_with_every_policy() {
        fn exercise<P: Policy>(db: FlitDb<P>) {
            let h = db.handle();
            let list: HarrisList<P, Automatic> = HarrisList::new(&db);
            assert!(list.insert(&h, 1, 11));
            assert!(list.insert(&h, 2, 22));
            assert!(list.remove(&h, 1));
            assert_eq!(list.get(&h, 2), Some(22));
            assert_eq!(list.len(), 1);
        }
        exercise(FlitDb::create(presets::plain(backend())));
        exercise(FlitDb::create(presets::flit_adjacent(backend())));
        exercise(FlitDb::flit_ht(backend()));
        exercise(FlitDb::create(presets::flit_cacheline(backend())));
        exercise(FlitDb::create(presets::link_and_persist(backend())));
        exercise(FlitDb::create(presets::no_persist()));
    }

    #[test]
    fn read_only_workload_performs_no_flushes_with_flit() {
        // Paper §6.5: with 0% updates FliT executes no pwbs at all, because nothing
        // is ever tagged — and with persist-epoch elision (the default) the clean
        // reader's completion fences are elided too, so a lookup costs *zero*
        // persistence instructions.
        let sim = backend();
        let db = FlitDb::flit_ht(sim.clone());
        let h = db.handle();
        let list: HtList<Automatic> = HarrisList::new(&db);
        for k in 0..100u64 {
            list.insert(&h, k, k);
        }
        let before = sim.stats().snapshot();
        for k in 0..100u64 {
            let _ = list.get(&h, k);
        }
        let delta = sim.stats().snapshot().delta_since(&before);
        assert_eq!(delta.pwbs, 0);
        assert_eq!(delta.pfences, 0, "clean completion fences are elided");
        assert_eq!(delta.elided_pfences, 100, "one elided fence per operation");
    }

    #[test]
    fn image_only_recovery_matches_the_quiescent_list() {
        let sim = SimNvram::for_crash_testing();
        let db = FlitDb::flit_ht(sim.clone());
        let h = db.handle();
        let list: HtList<Automatic> = HarrisList::new(&db);
        for k in [4u64, 1, 9, 6] {
            assert!(list.insert(&h, k, k * 10));
        }
        assert!(list.remove(&h, 9));
        let image = sim.tracker().unwrap().crash_image();
        let rec = list.recover(&image);
        assert!(!rec.truncated);
        assert_eq!(rec.sorted_pairs(), vec![(1, 10), (4, 40), (6, 60)]);
        // The associated form needs only the arena + the image.
        let rec2 = HtList::<Automatic>::recover_arena_image(list.arena(), &image);
        assert_eq!(rec2.sorted_pairs(), rec.sorted_pairs());
        // And the arena's root table holds the head durably.
        assert!(list
            .arena()
            .root_in_image(&image, roots::LIST_HEAD)
            .is_some());
    }

    #[test]
    fn concurrent_inserts_and_removes() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 200;
        let db = ht_db();
        let list: Arc<HtList<Automatic>> = Arc::new(HarrisList::new(&db));
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let list = Arc::clone(&list);
                let db = &db;
                s.spawn(move || {
                    let h = db.handle();
                    let base = t * PER_THREAD;
                    for k in base..base + PER_THREAD {
                        assert!(list.insert(&h, k, k + 1));
                    }
                    for k in (base..base + PER_THREAD).step_by(2) {
                        assert!(list.remove(&h, k));
                    }
                });
            }
        });
        let h = db.handle();
        assert_eq!(list.len() as u64, THREADS * PER_THREAD / 2);
        for t in 0..THREADS {
            let base = t * PER_THREAD;
            assert_eq!(list.get(&h, base), None);
            assert_eq!(list.get(&h, base + 1), Some(base + 2));
        }
    }

    #[test]
    fn contended_same_keys_stress() {
        // All threads fight over a tiny key range to exercise marking/helping (and,
        // through the arena, failed-CAS frees and slot recycling).
        let db = ht_db();
        let list: Arc<HtList<NvTraverse>> = Arc::new(HarrisList::new(&db));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let list = Arc::clone(&list);
                let db = &db;
                s.spawn(move || {
                    let h = db.handle();
                    for i in 0..500u64 {
                        let k = (t + i) % 8;
                        if i % 2 == 0 {
                            list.insert(&h, k, i);
                        } else {
                            list.remove(&h, k);
                        }
                        let _ = list.get(&h, k);
                    }
                });
            }
        });
        // The list must still be structurally sound: len() terminates and every key is
        // in range.
        assert!(list.len() <= 8);
    }
}

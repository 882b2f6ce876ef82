//! The Natarajan–Mittal lock-free external binary search tree (PPoPP 2014), made
//! durable through FliT.
//!
//! This is the BST used throughout the paper's evaluation (its Figure 5/6 experiments
//! are all run on this structure). It is *leaf-oriented*: internal nodes only route,
//! every key in the set lives in a leaf. Updates never lock; deletion coordinates
//! through two bits stored in the child-edge words:
//!
//! * the **flag** bit (here [`MARK_BIT`](crate::marked::MARK_BIT)) set on the edge
//!   `parent → leaf` announces that the leaf is being deleted;
//! * the **tag** bit set on the sibling edge prevents new insertions below the parent
//!   while it is being spliced out.
//!
//! Because both low-order pointer bits are in use, the link-and-persist technique
//! (which needs a spare bit *and* CAS-only updates) cannot be applied to this
//! structure — exactly the limitation the paper uses it to illustrate (§6.6). FliT,
//! whose counters live outside the word, works unchanged. Every operation takes the
//! calling thread's [`FlitHandle`], exactly as in the other structures.

use std::marker::PhantomData;
use std::sync::Arc;

use flit::{FlitDb, FlitHandle, PFlag, PersistWord, Policy};
use flit_alloc::{roots, Arena};
use flit_ebr::Guard;
use flit_pmem::{CrashImage, PmemBackend};

use crate::durability::Durability;
use crate::map::ConcurrentMap;
use crate::marked::{address, is_marked, is_tagged, pack, pack_with, with_tag};
use crate::recovery::{recover_from_root, RecoverInImage, RecoveredMap};

/// Sentinel keys, all larger than any user key (paper notation ∞₀ < ∞₁ < ∞₂).
const INF0: u64 = u64::MAX - 2;
const INF1: u64 = u64::MAX - 1;
const INF2: u64 = u64::MAX;

/// A tree node. Leaves have both child words equal to zero.
struct Node<P: Policy> {
    key: u64,
    value: u64,
    left: P::Word<usize>,
    right: P::Word<usize>,
}

/// Byte offsets of a node's recovery-relevant words within its arena slot.
struct NodeLayout {
    key: usize,
    value: usize,
    left: usize,
    right: usize,
}

impl<P: Policy> Node<P> {
    fn layout() -> NodeLayout {
        let probe = Node::<P> {
            key: 0,
            value: 0,
            left: P::Word::<usize>::new(0),
            right: P::Word::<usize>::new(0),
        };
        let base = &probe as *const Node<P> as usize;
        NodeLayout {
            key: &probe.key as *const u64 as usize - base,
            value: &probe.value as *const u64 as usize - base,
            left: probe.left.addr() - base,
            right: probe.right.addr() - base,
        }
    }
}

/// The result of a traversal: the four nodes the update protocol needs.
struct SeekRecord<P: Policy> {
    ancestor: *mut Node<P>,
    successor: *mut Node<P>,
    parent: *mut Node<P>,
    leaf: *mut Node<P>,
}

/// Which phase a delete operation is in.
#[derive(PartialEq, Eq, Clone, Copy)]
enum DeleteMode {
    Injection,
    Cleanup,
}

/// Natarajan–Mittal lock-free external BST over policy `P` and durability method `D`.
pub struct NatarajanTree<P: Policy, D: Durability> {
    root: *mut Node<P>,
    arena: Arc<Arena>,
    db: FlitDb<P>,
    _durability: PhantomData<D>,
}

// SAFETY: standard lock-free structure; see `HarrisList`.
unsafe impl<P: Policy, D: Durability> Send for NatarajanTree<P, D> {}
unsafe impl<P: Policy, D: Durability> Sync for NatarajanTree<P, D> {}

impl<P: Policy, D: Durability> NatarajanTree<P, D> {
    /// Create an empty tree (the three-sentinel initial shape of the original
    /// paper) in `db`, with its own arena, registered under [`roots::BST_ROOT`].
    pub fn new(db: &FlitDb<P>) -> Self {
        let arena = db.new_arena_for::<Node<P>>(db.arena_defaults());
        // Persist-before-publish at construction: the sentinel skeleton becomes
        // durable before the root registration makes the tree recoverable.
        let h = db.handle();
        let leaf_inf0 = Self::alloc_node(&h, &arena, INF0, 0, 0, 0);
        let leaf_inf1 = Self::alloc_node(&h, &arena, INF1, 0, 0, 0);
        let leaf_inf2 = Self::alloc_node(&h, &arena, INF2, 0, 0, 0);
        let s = Self::alloc_node(&h, &arena, INF1, 0, pack(leaf_inf0), pack(leaf_inf1));
        let r = Self::alloc_node(&h, &arena, INF2, 0, pack(s), pack(leaf_inf2));
        for node in [leaf_inf0, leaf_inf1, leaf_inf2, s, r] {
            h.persist_object(unsafe { &*node }, PFlag::Persisted);
        }
        arena.register_root(&h.pmem(), roots::BST_ROOT, r as usize);
        drop(h);
        Self {
            root: r,
            arena,
            db: db.clone(),
            _durability: PhantomData,
        }
    }

    /// The database this tree lives in.
    pub fn db(&self) -> &FlitDb<P> {
        &self.db
    }

    /// The arena this tree allocates nodes from.
    pub fn arena(&self) -> &Arc<Arena> {
        &self.arena
    }

    /// Allocate a node from the arena and record **all** of its words (key, value,
    /// both child edges) with the backend through `h`, so the node is fully
    /// reconstructible from a crash image. The caller persists and publishes it.
    fn alloc_node(
        h: &FlitHandle<'_, P>,
        arena: &Arena,
        key: u64,
        value: u64,
        left: usize,
        right: usize,
    ) -> *mut Node<P> {
        let pm = h.pmem();
        let node: *mut Node<P> = arena.alloc_init(
            &pm,
            Node {
                key,
                value,
                left: P::Word::<usize>::new(left),
                right: P::Word::<usize>::new(right),
            },
        );
        let node_ref = unsafe { &*node };
        pm.record_store(&node_ref.key as *const u64 as *const u8, key);
        pm.record_store(&node_ref.value as *const u64 as *const u8, value);
        node_ref.left.store_private(h, left, PFlag::Volatile);
        node_ref.right.store_private(h, right, PFlag::Volatile);
        node
    }

    /// Retire `node` through the guard's collector: its slot returns to the
    /// arena's recycle list once no pinned participant can still reach it.
    fn retire(&self, guard: &Guard<'_>, node: *mut Node<P>) {
        // SAFETY: the node was unlinked before retirement and is retired once.
        unsafe { self.arena.defer_recycle(guard, node as usize) };
    }

    #[inline]
    fn s_node(&self) -> *mut Node<P> {
        address(unsafe { &*self.root }.left.load_direct())
    }

    /// The child-edge word of `node` on the side `key` would descend to.
    #[inline]
    fn child_edge(&self, node: *mut Node<P>, key: u64) -> &P::Word<usize> {
        let node_ref = unsafe { &*node };
        if key < node_ref.key {
            &node_ref.left
        } else {
            &node_ref.right
        }
    }

    /// The child-edge word of `node` on the *opposite* side of `key`.
    #[inline]
    fn sibling_edge(&self, node: *mut Node<P>, key: u64) -> &P::Word<usize> {
        let node_ref = unsafe { &*node };
        if key < node_ref.key {
            &node_ref.right
        } else {
            &node_ref.left
        }
    }

    /// Traverse from the root towards `key` (paper's `seek`), recording ancestor,
    /// successor, parent and leaf.
    fn seek(&self, h: &FlitHandle<'_, P>, key: u64) -> SeekRecord<P> {
        let r = self.root;
        let s = self.s_node();
        let mut record = SeekRecord {
            ancestor: r,
            successor: s,
            parent: s,
            leaf: address(unsafe { &*s }.left.load(h, D::TRAVERSAL_LOAD)),
        };
        // The edge we followed to reach `record.leaf`.
        let mut parent_field = unsafe { &*s }.left.load(h, D::TRAVERSAL_LOAD);
        let mut current_field = unsafe { &*record.leaf }.left.load(h, D::TRAVERSAL_LOAD);
        let mut current = address::<Node<P>>(current_field);
        // Leaves have null children, so the loop stops at a leaf.
        while !current.is_null() {
            if !is_tagged(parent_field) {
                record.ancestor = record.parent;
                record.successor = record.leaf;
            }
            record.parent = record.leaf;
            record.leaf = current;
            parent_field = current_field;
            let current_ref = unsafe { &*current };
            current_field = if key < current_ref.key {
                current_ref.left.load(h, D::TRAVERSAL_LOAD)
            } else {
                current_ref.right.load(h, D::TRAVERSAL_LOAD)
            };
            current = address(current_field);
        }
        record
    }

    /// Set the tag bit of `edge`, preserving the flag bit (the original algorithm uses
    /// an atomic bit-test-and-set; emulated here with a CAS loop).
    fn tag_edge(&self, h: &FlitHandle<'_, P>, edge: &P::Word<usize>) {
        loop {
            let w = edge.load(h, D::CRITICAL_LOAD);
            if is_tagged(w) {
                return;
            }
            if edge.compare_exchange(h, w, with_tag(w), D::STORE).is_ok() {
                return;
            }
        }
    }

    /// Splice the flagged leaf (and its parent) out of the tree (paper's `cleanup`).
    /// Returns `true` when this call performed the splice.
    fn cleanup(
        &self,
        h: &FlitHandle<'_, P>,
        key: u64,
        record: &SeekRecord<P>,
        guard: &Guard<'_>,
    ) -> bool {
        let ancestor = record.ancestor;
        let successor = record.successor;
        let parent = record.parent;

        let successor_edge = self.child_edge(ancestor, key);
        let child_edge = self.child_edge(parent, key);
        let sibling_edge = self.sibling_edge(parent, key);

        // If the edge towards our key is not flagged, we are helping a delete whose
        // flag sits on the other child; in that case the subtree that survives is the
        // one on our side.
        let child_word = child_edge.load(h, D::CRITICAL_LOAD);
        let (surviving_edge, removed_edge) = if is_marked(child_word) {
            (sibling_edge, child_edge)
        } else {
            (child_edge, sibling_edge)
        };

        // Prevent further updates below the parent on the surviving side.
        self.tag_edge(h, surviving_edge);
        let surviving_word = surviving_edge.load(h, D::CRITICAL_LOAD);

        if D::TRANSITION_DEPTH >= 1 {
            let _ = self.child_edge(ancestor, key).load(h, PFlag::Persisted);
        }

        // Splice: the ancestor's edge to `successor` now points at the surviving
        // subtree. The surviving subtree's flag bit is carried over (a pending delete
        // of that leaf must not be lost); the tag bit is cleared.
        let new_word = pack_with(
            address::<Node<P>>(surviving_word),
            is_marked(surviving_word),
            false,
        );
        let result = successor_edge
            .compare_exchange(h, pack(successor), new_word, D::STORE)
            .is_ok();
        if result {
            // The spliced-out parent and the removed leaf are now unreachable. The
            // `successor` subtree root equals `parent` except when helping an older
            // splice; retiring `parent` (reachable only through the removed edge
            // chain) is safe in both cases because it is no longer reachable.
            let removed_leaf = address::<Node<P>>(removed_edge.load_direct());
            if !removed_leaf.is_null() {
                self.retire(guard, removed_leaf);
            }
            self.retire(guard, parent);
        }
        result
    }

    /// Image-only recovery through this tree's own arena; see
    /// [`RecoverInImage`].
    pub fn recover(&self, image: &CrashImage) -> RecoveredMap {
        Self::recover_arena_image(&self.arena, image)
    }

    /// Count the leaves holding a user key. The descent keeps an explicit
    /// stack, as recovery does: a tree built from sorted keys is as deep as it
    /// is large.
    fn count_leaves(&self) -> usize {
        let mut count = 0;
        let mut stack = vec![self.root];
        while let Some(node) = stack.pop() {
            if node.is_null() {
                continue;
            }
            // SAFETY: `len` is a quiescent-state count (see
            // `ConcurrentMap::len`): every node reachable from the root is a
            // live arena slot that no concurrent remove can retire.
            let node_ref = unsafe { &*node };
            let left = address::<Node<P>>(node_ref.left.load_direct());
            let right = address::<Node<P>>(node_ref.right.load_direct());
            if left.is_null() && right.is_null() {
                count += usize::from(node_ref.key < INF0);
            } else {
                stack.extend([left, right]);
            }
        }
        count
    }
}

impl<P: Policy, D: Durability> ConcurrentMap<P> for NatarajanTree<P, D> {
    const NAME: &'static str = "bst";

    fn with_capacity(db: &FlitDb<P>, _capacity_hint: usize) -> Self {
        Self::new(db)
    }

    fn get_op(&self, h: &FlitHandle<'_, P>, key: u64, _guard: &Guard<'_>) -> Option<u64> {
        let record = self.seek(h, key);
        let leaf = unsafe { &*record.leaf };
        if leaf.key == key {
            if D::TRANSITION_DEPTH > 0 {
                let _ = self
                    .child_edge(record.parent, key)
                    .load(h, PFlag::Persisted);
            }
            Some(leaf.value)
        } else {
            None
        }
    }

    fn insert_op(&self, h: &FlitHandle<'_, P>, key: u64, value: u64, guard: &Guard<'_>) -> bool {
        assert!(key < INF0, "key space reserved for sentinels");
        loop {
            let record = self.seek(h, key);
            let leaf = record.leaf;
            let leaf_key = unsafe { &*leaf }.key;
            if leaf_key == key {
                return false;
            }
            let parent = record.parent;
            let child_edge = self.child_edge(parent, key);

            // Build the replacement subtree: a new internal node whose children are
            // the existing leaf and a new leaf holding the key.
            let new_leaf = Self::alloc_node(h, &self.arena, key, value, 0, 0);
            let internal = if key < leaf_key {
                Self::alloc_node(h, &self.arena, leaf_key, 0, pack(new_leaf), pack(leaf))
            } else {
                Self::alloc_node(h, &self.arena, key, 0, pack(leaf), pack(new_leaf))
            };
            h.persist_object(unsafe { &*new_leaf }, D::STORE);
            h.persist_object(unsafe { &*internal }, D::STORE);

            if D::TRANSITION_DEPTH >= 1 {
                let _ = child_edge.load(h, PFlag::Persisted);
            }

            match child_edge.compare_exchange(h, pack(leaf), pack(internal), D::STORE) {
                Ok(_) => return true,
                Err(actual) => {
                    // Never published: return both slots to the durable free list.
                    // SAFETY: neither node became reachable.
                    unsafe {
                        self.arena.free(&h.pmem(), new_leaf as *mut u8);
                        self.arena.free(&h.pmem(), internal as *mut u8);
                    }
                    // Help an in-progress delete of this very leaf before retrying.
                    if address::<Node<P>>(actual) == leaf
                        && (is_marked(actual) || is_tagged(actual))
                    {
                        let _ = self.cleanup(h, key, &record, guard);
                    }
                }
            }
        }
    }

    fn remove_op(&self, h: &FlitHandle<'_, P>, key: u64, guard: &Guard<'_>) -> bool {
        let mut mode = DeleteMode::Injection;
        let mut target_leaf: *mut Node<P> = std::ptr::null_mut();
        loop {
            let record = self.seek(h, key);
            let parent = record.parent;
            let child_edge = self.child_edge(parent, key);

            match mode {
                DeleteMode::Injection => {
                    let leaf = record.leaf;
                    if unsafe { &*leaf }.key != key {
                        return false;
                    }
                    if D::TRANSITION_DEPTH >= 1 {
                        let _ = child_edge.load(h, PFlag::Persisted);
                    }
                    // Flag the edge to the leaf: this is the linearization point of a
                    // successful delete.
                    match child_edge.compare_exchange(
                        h,
                        pack(leaf),
                        pack_with(leaf, true, false),
                        D::STORE,
                    ) {
                        Ok(_) => {
                            mode = DeleteMode::Cleanup;
                            target_leaf = leaf;
                            if self.cleanup(h, key, &record, guard) {
                                return true;
                            }
                        }
                        Err(actual) => {
                            if address::<Node<P>>(actual) == leaf
                                && (is_marked(actual) || is_tagged(actual))
                            {
                                let _ = self.cleanup(h, key, &record, guard);
                            }
                        }
                    }
                }
                DeleteMode::Cleanup => {
                    if record.leaf != target_leaf {
                        // Some helper finished the physical removal for us.
                        return true;
                    }
                    if self.cleanup(h, key, &record, guard) {
                        return true;
                    }
                }
            }
        }
    }

    fn len(&self) -> usize {
        self.count_leaves()
    }

    fn db(&self) -> &FlitDb<P> {
        &self.db
    }
}

impl<P: Policy, D: Durability> RecoverInImage for NatarajanTree<P, D> {
    const ROOT_KEY: u64 = roots::BST_ROOT;

    /// Read the root sentinel's slot from the root table, then descend the
    /// persisted child-edge words, collecting every reachable leaf holding a
    /// user key whose incoming edge does not carry the deletion flag (the flag
    /// CAS is the linearization point of a successful remove). Tag bits only
    /// protect in-flight splices and are ignored. The descent keeps an explicit
    /// stack: a tree built from sorted keys is as deep as it is large, far
    /// deeper than a thread's stack could recurse.
    fn recover_arena_image(arena: &Arena, image: &CrashImage) -> RecoveredMap {
        let layout = Node::<P>::layout();
        recover_from_root(arena, image, Self::ROOT_KEY, |walk, root, pairs| {
            // Each entry carries the flag bit of the edge that led to it.
            let mut stack = vec![(root, false)];
            while let Some((node, deleted)) = stack.pop() {
                // A persisted edge to null never occurs in this tree: leaves
                // are recognised by their two null children, never followed.
                let node = walk.visit(node)?;
                let left = walk.read(node + layout.left)? as usize;
                let right = walk.read(node + layout.right)? as usize;
                let (l, r) = (address::<Node<P>>(left), address::<Node<P>>(right));
                if l.is_null() && r.is_null() {
                    if !deleted {
                        let key = walk.read(node + layout.key)?;
                        let value = walk.read(node + layout.value)?;
                        if key < INF0 {
                            pairs.push((key, value));
                        }
                    }
                } else {
                    // Right below left, so pairs come out in key order.
                    stack.push((r as usize, is_marked(right)));
                    stack.push((l as usize, is_marked(left)));
                }
            }
            Ok(())
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
    use std::sync::Arc;

    fn backend() -> SimNvram {
        SimNvram::builder().latency(LatencyModel::none()).build()
    }

    fn ht_db() -> FlitDb<FlitPolicy<HashedScheme, SimNvram>> {
        FlitDb::flit_ht(backend())
    }

    type Bst<D> = NatarajanTree<FlitPolicy<HashedScheme, SimNvram>, D>;

    #[test]
    fn empty_tree() {
        let db = ht_db();
        let h = db.handle();
        let t: Bst<Automatic> = NatarajanTree::new(&db);
        assert!(t.is_empty());
        assert_eq!(t.get(&h, 1), None);
        assert!(!t.remove(&h, 1));
    }

    #[test]
    fn insert_lookup_remove() {
        let db = ht_db();
        let h = db.handle();
        let t: Bst<Automatic> = NatarajanTree::new(&db);
        assert!(t.insert(&h, 50, 500));
        assert!(t.insert(&h, 30, 300));
        assert!(t.insert(&h, 70, 700));
        assert!(!t.insert(&h, 50, 999));
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(&h, 50), Some(500));
        assert_eq!(t.get(&h, 30), Some(300));
        assert_eq!(t.get(&h, 70), Some(700));
        assert_eq!(t.get(&h, 60), None);
        assert!(t.remove(&h, 50));
        assert!(!t.remove(&h, 50));
        assert_eq!(t.get(&h, 50), None);
        assert_eq!(t.get(&h, 30), Some(300));
        assert_eq!(t.get(&h, 70), Some(700));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn ascending_and_descending_insertions() {
        let db = ht_db();
        let h = db.handle();
        let t: Bst<Automatic> = NatarajanTree::new(&db);
        for k in 0..200u64 {
            assert!(t.insert(&h, k, k));
        }
        for k in (200..400u64).rev() {
            assert!(t.insert(&h, k, k));
        }
        assert_eq!(t.len(), 400);
        for k in 0..400u64 {
            assert_eq!(t.get(&h, k), Some(k));
        }
        for k in 0..400u64 {
            assert!(t.remove(&h, k), "failed to remove {k}");
        }
        assert!(t.is_empty());
    }

    #[test]
    fn remove_then_reinsert() {
        let db = ht_db();
        let h = db.handle();
        let t: Bst<NvTraverse> = NatarajanTree::new(&db);
        for round in 0..5 {
            for k in 0..50u64 {
                assert!(t.insert(&h, k, k + round), "round {round}, key {k}");
            }
            for k in 0..50u64 {
                assert!(t.remove(&h, k));
            }
            assert!(t.is_empty());
        }
    }

    #[test]
    fn works_with_every_durability_method() {
        fn exercise<D: Durability>() {
            let db = FlitDb::flit_ht(SimNvram::builder().latency(LatencyModel::none()).build());
            let h = db.handle();
            let t: Bst<D> = NatarajanTree::new(&db);
            for k in [5u64, 2, 8, 1, 3, 7, 9, 4, 6] {
                assert!(t.insert(&h, k, k * 10));
            }
            assert_eq!(t.len(), 9);
            for k in 1..=9u64 {
                assert_eq!(t.get(&h, k), Some(k * 10));
            }
            for k in [2u64, 8, 5] {
                assert!(t.remove(&h, k));
            }
            assert_eq!(t.len(), 6);
        }
        exercise::<Automatic>();
        exercise::<NvTraverse>();
        exercise::<Manual>();
    }

    #[test]
    fn works_with_plain_and_baseline_policies() {
        let db = FlitDb::create(presets::plain(backend()));
        let h = db.handle();
        let t: NatarajanTree<_, Automatic> = NatarajanTree::new(&db);
        for k in 0..64u64 {
            assert!(t.insert(&h, k, k));
        }
        assert_eq!(t.len(), 64);
        let db = FlitDb::create(presets::no_persist());
        let h = db.handle();
        let t: NatarajanTree<_, Automatic> = NatarajanTree::new(&db);
        for k in 0..64u64 {
            assert!(t.insert(&h, k, k));
        }
        for k in 0..64u64 {
            assert!(t.remove(&h, k));
        }
        assert!(t.is_empty());
    }

    #[test]
    fn image_only_recovery_matches_the_quiescent_tree() {
        let sim = SimNvram::for_crash_testing();
        let db = FlitDb::flit_ht(sim.clone());
        let h = db.handle();
        let t: Bst<Automatic> = NatarajanTree::new(&db);
        for k in [4u64, 1, 9, 6] {
            assert!(t.insert(&h, k, k * 11));
        }
        assert!(t.remove(&h, 9));
        let image = sim.tracker().unwrap().crash_image();
        let rec = t.recover(&image);
        assert!(!rec.truncated);
        assert_eq!(rec.sorted_pairs(), vec![(1, 11), (4, 44), (6, 66)]);
    }

    #[test]
    fn concurrent_disjoint_inserts_and_removes() {
        let db = ht_db();
        let t: Arc<Bst<Automatic>> = Arc::new(NatarajanTree::new(&db));
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                let t = Arc::clone(&t);
                let db = &db;
                s.spawn(move || {
                    let h = db.handle();
                    let base = tid * 10_000;
                    for k in base..base + 400 {
                        assert!(t.insert(&h, k, k));
                    }
                    for k in (base..base + 400).step_by(2) {
                        assert!(t.remove(&h, k));
                    }
                    for k in base..base + 400 {
                        assert_eq!(t.get(&h, k).is_some(), k % 2 == 1, "key {k}");
                    }
                });
            }
        });
        assert_eq!(t.len(), 4 * 200);
    }

    #[test]
    fn concurrent_contended_stress() {
        let db = ht_db();
        let t: Arc<Bst<Manual>> = Arc::new(NatarajanTree::new(&db));
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                let t = Arc::clone(&t);
                let db = &db;
                s.spawn(move || {
                    let h = db.handle();
                    for i in 0..600u64 {
                        let k = (tid * 17 + i * 5) % 24;
                        match i % 3 {
                            0 => {
                                t.insert(&h, k, i);
                            }
                            1 => {
                                t.remove(&h, k);
                            }
                            _ => {
                                t.get(&h, k);
                            }
                        }
                    }
                });
            }
        });
        assert!(t.len() <= 24);
        // The sentinel skeleton must be intact.
        assert_eq!(unsafe { &*t.root }.key, INF2);
        assert_eq!(unsafe { &*t.s_node() }.key, INF1);
    }
}

//! The Michael–Scott lock-free FIFO queue (PODC 1996), made durable through FliT.
//!
//! The queue is the canonical producer/consumer structure of the persistent-memory
//! literature ("Highly-Efficient Persistent FIFO Queues", Fatourou et al.; the
//! log-free durable queue of Friedman et al., PPoPP 2018). This implementation is
//! textbook Michael–Scott — a singly linked list with a permanent sentinel, a `head`
//! pointer for dequeuers and a lazily swung `tail` pointer for enqueuers — with
//! persistence injected entirely through the [`Policy`] / [`Durability`] type
//! parameters, exactly like the map structures of [`flit_datastructs`].
//!
//! ## P-marking
//!
//! | instruction | flag | why |
//! |---|---|---|
//! | node initialisation | [`Durability::STORE`], private path | the publishing CAS depends on the node's contents |
//! | link CAS (`tail.next`: null → node) | [`Durability::STORE`] | the linearization point of enqueue: the persisted `next` chain *is* the durable queue |
//! | `tail` swings (publish + helping) | [`Durability::INDEX_STORE`] | auxiliary index state — after a crash `tail` is recoverable by walking `next` links from `head`, so the optimised methods leave it volatile |
//! | `head` CAS (dequeue) | [`Durability::STORE`] | the linearization point of dequeue: a completed dequeue must not resurrect its value after a crash |
//! | `head`/`tail` reads | [`Durability::TRAVERSAL_LOAD`] | positioning reads |
//! | `next`/value reads | [`Durability::CRITICAL_LOAD`] | the reads the operation's result depends on |
//!
//! Under [`Automatic`](flit_datastructs::Automatic) every one of these is a
//! p-instruction (Theorem 3.1); under
//! [`Manual`](flit_datastructs::Manual) only the two linearization-point CASes and
//! the node initialisation are persisted, which matches the hand-tuned durable
//! queues of the literature. In every variant, dequeue-of-empty is a read-only
//! operation — with FliT its p-loads flush nothing (no store is pending), while the
//! plain transformation pays a `pwb` per p-load; that asymmetry is the queue-shaped
//! version of the paper's read-elision headline.
//!
//! ## Crash recovery
//!
//! Recovery is **image-only**: nodes and the queue's root-pointer pair live in a
//! [`Arena`], the root pair is registered in the arena's recovery-root
//! table under [`roots::QUEUE_ROOTS`], and
//! [`MsQueue::recover_in_image`] reads the persisted `head` word and walks
//! persisted `next`/value words straight out of the adversarial [`CrashImage`],
//! under one bounded [`ImageWalk`] — no live-structure pointer, no live-memory
//! reads. The queue is not a map, so it keeps this pair of inherent methods
//! rather than implementing `RecoverInImage`. For any variant whose `STORE`
//! flag is persisted, the recovered sequence is exactly the durably linearized
//! queue contents at the crash point; a crash before the root registration
//! recovers to the empty queue.

use std::marker::PhantomData;
use std::sync::Arc;

use flit::{FlitDb, FlitHandle, PFlag, PersistWord, Policy};
use flit_alloc::{roots, Arena, ArenaConfig, ImageWalk, Truncated};
use flit_datastructs::Durability;
use flit_ebr::Guard;
use flit_pmem::CrashImage;

use crate::queue::ConcurrentQueue;

/// A node of the queue. Both fields are written once through the private-store path
/// before the node is published, so they are recorded with the persistence tracker
/// and recoverable from a crash image; `next` is additionally CAS-ed by enqueuers.
pub(crate) struct Node<P: Policy> {
    pub(crate) value: P::Word<u64>,
    pub(crate) next: P::Word<usize>,
}

/// Byte offsets of a node's recovery words within its arena slot.
struct NodeLayout {
    value: usize,
    next: usize,
}

impl<P: Policy> Node<P> {
    fn layout() -> NodeLayout {
        let probe = Node::<P> {
            value: P::Word::<u64>::new(0),
            next: P::Word::<usize>::new(0),
        };
        let base = &probe as *const Node<P> as usize;
        NodeLayout {
            value: probe.value.addr() - base,
            next: probe.next.addr() - base,
        }
    }

    /// Allocate a node from the arena and persist its initial contents (value +
    /// null `next`) according to `flag`, so the publishing CAS can depend on them.
    fn alloc(h: &FlitHandle<'_, P>, arena: &Arena, value: u64, flag: PFlag) -> *mut Self {
        let node: *mut Self = arena.alloc_init(
            &h.pmem(),
            Node {
                value: P::Word::<u64>::new(value),
                next: P::Word::<usize>::new(0),
            },
        );
        let node_ref = unsafe { &*node };
        // The node is still private: volatile private stores record the words with
        // the backend (for crash tracking) without flushing, then one persist of the
        // whole node (a single flush + fence — the slot is cache-line aligned, so
        // both words always share one line) makes it durable before the publishing
        // CAS can depend on it.
        node_ref.value.store_private(h, value, PFlag::Volatile);
        node_ref.next.store_private(h, 0, PFlag::Volatile);
        h.persist_object(node_ref, flag);
        node
    }
}

/// The queue's root pointers, allocated in their own arena slot so recovery can
/// find them through the root table.
struct Roots<P: Policy> {
    head: P::Word<usize>,
    tail: P::Word<usize>,
}

/// Byte offsets of the root words within the roots slot.
struct RootsLayout {
    head: usize,
}

impl<P: Policy> Roots<P> {
    fn layout() -> RootsLayout {
        let probe = Roots::<P> {
            head: P::Word::<usize>::new(0),
            tail: P::Word::<usize>::new(0),
        };
        RootsLayout {
            head: probe.head.addr() - &probe as *const Roots<P> as usize,
        }
    }
}

/// Michael–Scott lock-free FIFO queue over persistence policy `P` and durability
/// method `D`.
pub struct MsQueue<P: Policy, D: Durability> {
    roots: *mut Roots<P>,
    arena: Arc<Arena>,
    db: FlitDb<P>,
    _durability: PhantomData<D>,
}

// SAFETY: all shared mutable state is accessed through atomic persist-words, and node
// lifetime is managed by the EBR collector, as in the map structures.
unsafe impl<P: Policy, D: Durability> Send for MsQueue<P, D> {}
unsafe impl<P: Policy, D: Durability> Sync for MsQueue<P, D> {}

/// What [`MsQueue::recover`] reconstructs from a [`CrashImage`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredQueue {
    /// The queue contents in FIFO order, head first.
    pub values: Vec<u64>,
    /// `true` when a node was reachable through a persisted `next` link but its value
    /// word was missing from the image. For any durability method whose `STORE` flag
    /// is persisted this indicates a durability bug: nodes are persisted before the
    /// link that publishes them.
    pub truncated: bool,
}

impl<P: Policy, D: Durability> MsQueue<P, D> {
    /// Create an empty queue in `db`, with its own arena. The sentinel node and
    /// the root-pointer slot are persisted — and the roots registered under
    /// [`roots::QUEUE_ROOTS`] — before the constructor returns, so a crash at
    /// *any* construction event recovers to either "no queue yet" or the empty
    /// queue, never garbage. Construction runs under a temporary handle of `db`.
    pub fn new(db: &FlitDb<P>) -> Self {
        Self::with_config(db, db.arena_defaults())
    }

    /// [`MsQueue::new`] with an explicit node-arena [`ArenaConfig`], so a queue
    /// expected to stay short (a per-shard request mailbox, say) grows its arena
    /// in small steps instead of the default chunk size.
    pub fn with_config(db: &FlitDb<P>, config: ArenaConfig) -> Self {
        let arena = db.new_arena_for::<Node<P>>(config);
        let h = db.handle();
        let sentinel = Node::<P>::alloc(&h, &arena, 0, PFlag::Persisted) as usize;
        let roots: *mut Roots<P> = arena.alloc_init(
            &h.pmem(),
            Roots {
                head: P::Word::<usize>::new(sentinel),
                tail: P::Word::<usize>::new(sentinel),
            },
        );
        let roots_ref = unsafe { &*roots };
        roots_ref.head.store_private(&h, sentinel, PFlag::Volatile);
        roots_ref.tail.store_private(&h, sentinel, PFlag::Volatile);
        h.persist_object(roots_ref, PFlag::Persisted);
        arena.register_root(&h.pmem(), roots::QUEUE_ROOTS, roots as usize);
        drop(h);
        Self {
            roots,
            arena,
            db: db.clone(),
            _durability: PhantomData,
        }
    }

    #[inline]
    fn roots(&self) -> &Roots<P> {
        // SAFETY: the roots slot is allocated in `new` and lives as long as the
        // arena, which `self` keeps alive.
        unsafe { &*self.roots }
    }

    /// The database this queue lives in.
    pub fn db(&self) -> &FlitDb<P> {
        &self.db
    }

    /// The arena this queue allocates nodes from.
    pub fn arena(&self) -> &Arc<Arena> {
        &self.arena
    }

    /// The address of the persisted `head` root word (used by crash tests).
    pub fn head_addr(&self) -> usize {
        self.roots().head.addr()
    }

    /// The address of the persisted `tail` root word (used by crash tests).
    pub fn tail_addr(&self) -> usize {
        self.roots().tail.addr()
    }

    /// Retire the old sentinel through the collector: its slot returns to the
    /// arena's recycle list once no pinned thread can still reach it.
    fn retire(&self, guard: &Guard<'_>, node: *mut Node<P>) {
        // SAFETY: the node was unlinked by the head CAS before retirement and is
        // retired once.
        unsafe { self.arena.defer_recycle(guard, node as usize) };
    }

    /// The queue contents in FIFO order, read from volatile memory. Quiescent states
    /// only; used by tests to compare against [`recover`](Self::recover).
    pub fn volatile_contents(&self) -> Vec<u64> {
        let mut values = Vec::new();
        let mut cur = unsafe { &*(self.roots().head.load_direct() as *const Node<P>) }
            .next
            .load_direct();
        while cur != 0 {
            let node = unsafe { &*(cur as *const Node<P>) };
            values.push(node.value.load_direct());
            cur = node.next.load_direct();
        }
        values
    }

    /// Reconstruct the durable queue **purely from the crash image and the
    /// arena's root table**: find the root-pointer slot through
    /// [`roots::QUEUE_ROOTS`], read the persisted `head` word, then walk persisted
    /// `next` links collecting persisted value words, stopping at the first link
    /// the image does not contain (the end of the persisted prefix). No live
    /// memory is touched. An absent root means the queue was not durably
    /// constructed at the crash point: empty queue.
    pub fn recover_in_image(arena: &Arena, image: &CrashImage) -> RecoveredQueue {
        let mut walk = ImageWalk::new(arena, image);
        let mut values = Vec::new();
        let truncated = match walk.root(roots::QUEUE_ROOTS) {
            Some(roots_slot) => Self::walk_values(&mut walk, roots_slot, &mut values).is_err(),
            None => false,
        };
        RecoveredQueue { values, truncated }
    }

    /// The walk of [`recover_in_image`](Self::recover_in_image) from the
    /// registered roots slot. The slot is persisted before its registration,
    /// so its head word must be in the image; a value word missing behind a
    /// persisted link violates persist-before-publish.
    fn walk_values(
        walk: &mut ImageWalk<'_>,
        roots_slot: usize,
        values: &mut Vec<u64>,
    ) -> Result<(), Truncated> {
        let layout = Node::<P>::layout();
        let mut cur = walk.visit(walk.read(roots_slot + Roots::<P>::layout().head)? as usize)?;
        // A link that never persisted (or persisted as null) ends the prefix.
        while let Some(next) = walk.get(cur + layout.next).filter(|&next| next != 0) {
            cur = walk.visit(next as usize)?;
            values.push(walk.read(cur + layout.value)?);
        }
        Ok(())
    }

    /// Image-only recovery through this queue's own arena; see
    /// [`recover_in_image`](Self::recover_in_image).
    pub fn recover(&self, image: &CrashImage) -> RecoveredQueue {
        Self::recover_in_image(&self.arena, image)
    }
}

impl<P: Policy, D: Durability> ConcurrentQueue<P> for MsQueue<P, D> {
    const NAME: &'static str = "msqueue";

    fn in_db(db: &FlitDb<P>) -> Self {
        Self::new(db)
    }

    fn enqueue_op(&self, h: &FlitHandle<'_, P>, value: u64, _guard: &Guard<'_>) {
        let node = Node::<P>::alloc(h, &self.arena, value, D::STORE) as usize;
        loop {
            let tail = self.roots().tail.load(h, D::TRAVERSAL_LOAD);
            let tail_node = unsafe { &*(tail as *const Node<P>) };
            let next = tail_node.next.load(h, D::CRITICAL_LOAD);
            if tail != self.roots().tail.load(h, D::TRAVERSAL_LOAD) {
                continue;
            }
            if next != 0 {
                // Tail is lagging: help swing it forward and retry.
                let _ = self
                    .roots()
                    .tail
                    .compare_exchange(h, tail, next, D::INDEX_STORE);
                continue;
            }
            if tail_node
                .next
                .compare_exchange(h, 0, node, D::STORE)
                .is_ok()
            {
                // Linearization point. The tail swing is best-effort index
                // maintenance; any thread can complete it.
                let _ = self
                    .roots()
                    .tail
                    .compare_exchange(h, tail, node, D::INDEX_STORE);
                return;
            }
        }
    }

    fn dequeue_op(&self, h: &FlitHandle<'_, P>, guard: &Guard<'_>) -> Option<u64> {
        loop {
            let head = self.roots().head.load(h, D::TRAVERSAL_LOAD);
            let head_node = unsafe { &*(head as *const Node<P>) };
            let next = head_node.next.load(h, D::CRITICAL_LOAD);
            if head != self.roots().head.load(h, D::TRAVERSAL_LOAD) {
                continue;
            }
            if next == 0 {
                // Empty: a read-only operation. NVTraverse-style methods re-read the
                // link that determines the result as a p-load before returning.
                if D::TRANSITION_DEPTH > 0 {
                    let _ = head_node.next.load(h, PFlag::Persisted);
                }
                return None;
            }
            let tail = self.roots().tail.load(h, D::TRAVERSAL_LOAD);
            if head == tail {
                // Tail is lagging behind the node we are about to expose: help.
                let _ = self
                    .roots()
                    .tail
                    .compare_exchange(h, tail, next, D::INDEX_STORE);
                continue;
            }
            let next_node = unsafe { &*(next as *const Node<P>) };
            let value = next_node.value.load(h, D::CRITICAL_LOAD);
            if self
                .roots()
                .head
                .compare_exchange(h, head, next, D::STORE)
                .is_ok()
            {
                // Linearization point: `next` is the new sentinel, the old one is
                // unreachable for new operations.
                self.retire(guard, head as *mut Node<P>);
                return Some(value);
            }
        }
    }

    fn len(&self) -> usize {
        // Quiescent-state traversal: counts nodes after the sentinel.
        let mut count = 0;
        let mut cur = unsafe { &*(self.roots().head.load_direct() as *const Node<P>) }
            .next
            .load_direct();
        while cur != 0 {
            count += 1;
            cur = unsafe { &*(cur as *const Node<P>) }.next.load_direct();
        }
        count
    }

    fn db(&self) -> &FlitDb<P> {
        &self.db
    }
}

// No `Drop` impl: nodes and the roots slot are plain data in arena slots,
// reclaimed wholesale when the last `Arc<Arena>` (and the collector, whose
// deferred recycles hold clones of it) goes away.

#[cfg(test)]
mod tests {
    use super::*;
    use flit::{presets, FlitPolicy, HashedScheme, PlainPolicy};
    use flit_datastructs::{Automatic, Manual, NvTraverse};
    use flit_pmem::{LatencyModel, SimNvram};
    use std::sync::Arc;

    fn backend() -> SimNvram {
        SimNvram::builder().latency(LatencyModel::none()).build()
    }

    fn ht_db() -> FlitDb<FlitPolicy<HashedScheme, SimNvram>> {
        FlitDb::flit_ht(backend())
    }

    type HtQueue<D> = MsQueue<FlitPolicy<HashedScheme, SimNvram>, D>;

    #[test]
    fn empty_queue_behaviour() {
        let db = ht_db();
        let h = db.handle();
        let q: HtQueue<Automatic> = MsQueue::new(&db);
        assert!(q.is_empty());
        assert_eq!(q.dequeue(&h), None);
        assert_eq!(q.len(), 0);
        assert!(q.volatile_contents().is_empty());
    }

    #[test]
    fn fifo_round_trip() {
        let db = ht_db();
        let h = db.handle();
        let q: HtQueue<Automatic> = MsQueue::new(&db);
        for v in 10..20u64 {
            q.enqueue(&h, v);
        }
        assert_eq!(q.len(), 10);
        assert_eq!(q.volatile_contents(), (10..20).collect::<Vec<_>>());
        for v in 10..20u64 {
            assert_eq!(q.dequeue(&h), Some(v));
        }
        assert_eq!(q.dequeue(&h), None);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_enqueue_dequeue() {
        let db = ht_db();
        let h = db.handle();
        let q: HtQueue<Automatic> = MsQueue::new(&db);
        q.enqueue(&h, 1);
        q.enqueue(&h, 2);
        assert_eq!(q.dequeue(&h), Some(1));
        q.enqueue(&h, 3);
        assert_eq!(q.dequeue(&h), Some(2));
        assert_eq!(q.dequeue(&h), Some(3));
        assert_eq!(q.dequeue(&h), None);
        q.enqueue(&h, 4);
        assert_eq!(q.dequeue(&h), Some(4));
    }

    #[test]
    fn works_with_every_durability_method() {
        fn exercise<D: Durability>() {
            let db = FlitDb::flit_ht(SimNvram::builder().latency(LatencyModel::none()).build());
            let h = db.handle();
            let q: HtQueue<D> = MsQueue::new(&db);
            for v in 0..100u64 {
                q.enqueue(&h, v);
            }
            for v in 0..50u64 {
                assert_eq!(q.dequeue(&h), Some(v));
            }
            assert_eq!(q.len(), 50);
        }
        exercise::<Automatic>();
        exercise::<NvTraverse>();
        exercise::<Manual>();
    }

    #[test]
    fn works_with_every_policy() {
        fn exercise<P: Policy>(db: FlitDb<P>) {
            let h = db.handle();
            let q: MsQueue<P, Automatic> = MsQueue::new(&db);
            q.enqueue(&h, 7);
            q.enqueue(&h, 8);
            assert_eq!(q.dequeue(&h), Some(7));
            assert_eq!(q.len(), 1);
            assert_eq!(q.dequeue(&h), Some(8));
            assert_eq!(q.dequeue(&h), None);
        }
        exercise(FlitDb::create(presets::plain(backend())));
        exercise(FlitDb::create(presets::flit_adjacent(backend())));
        exercise(FlitDb::flit_ht(backend()));
        exercise(FlitDb::create(presets::flit_cacheline(backend())));
        exercise(FlitDb::create(presets::link_and_persist(backend())));
        exercise(FlitDb::create(presets::no_persist()));
    }

    #[test]
    fn dequeue_of_empty_flushes_under_plain_but_not_flit() {
        // The queue-shaped version of the paper's read-elision headline: a dequeue of
        // an empty queue is read-only, so FliT pays no pwbs while the plain
        // transformation pays one per p-load.
        let plain_sim = backend();
        let plain_db: FlitDb<PlainPolicy<SimNvram>> =
            FlitDb::create(presets::plain(plain_sim.clone()));
        let hp = plain_db.handle();
        let plain: MsQueue<PlainPolicy<SimNvram>, Automatic> = MsQueue::new(&plain_db);
        let flit_sim = backend();
        let flit_db = FlitDb::flit_ht(flit_sim.clone());
        let hf = flit_db.handle();
        let flit: HtQueue<Automatic> = MsQueue::new(&flit_db);

        let plain_before = plain_sim.stats().snapshot();
        let flit_before = flit_sim.stats().snapshot();
        for _ in 0..100 {
            assert_eq!(plain.dequeue(&hp), None);
            assert_eq!(flit.dequeue(&hf), None);
        }
        let plain_delta = plain_sim.stats().snapshot().delta_since(&plain_before);
        let flit_delta = flit_sim.stats().snapshot().delta_since(&flit_before);

        assert_eq!(flit_delta.pwbs, 0, "FliT must elide all read-side flushes");
        assert!(
            plain_delta.pwbs >= 300,
            "plain pays a pwb per p-load (3 per empty dequeue), got {}",
            plain_delta.pwbs
        );
        // With persist-epoch elision (the default), the handle stays clean through
        // a read-only dequeue of untagged words, so even the completion fence goes:
        // an empty dequeue costs zero persistence instructions under FliT.
        assert_eq!(
            flit_delta.pfences, 0,
            "completion fences of clean read-only ops are elided"
        );
        assert_eq!(flit_delta.elided_pfences, 100, "one elided fence per op");
    }

    #[test]
    fn dequeue_of_empty_pays_completion_fences_in_literal_mode() {
        use flit_pmem::ElisionMode;
        let sim = SimNvram::builder()
            .latency(flit_pmem::LatencyModel::none())
            .elision(ElisionMode::Disabled)
            .build();
        let db = FlitDb::flit_ht(sim.clone());
        let h = db.handle();
        let flit: HtQueue<Automatic> = MsQueue::new(&db);
        let before = sim.stats().snapshot();
        for _ in 0..100 {
            assert_eq!(flit.dequeue(&h), None);
        }
        let delta = sim.stats().snapshot().delta_since(&before);
        assert_eq!(
            delta.pfences, 100,
            "paper-literal: one completion fence per operation"
        );
    }

    #[test]
    fn mpmc_stress_conserves_values() {
        const PRODUCERS: u64 = 3;
        const CONSUMERS: usize = 3;
        const PER_PRODUCER: u64 = 2_000;
        let db = ht_db();
        let q: Arc<HtQueue<Automatic>> = Arc::new(MsQueue::new(&db));
        let popped = std::sync::Mutex::new(Vec::new());

        std::thread::scope(|s| {
            for t in 0..PRODUCERS {
                let q = Arc::clone(&q);
                let db = &db;
                s.spawn(move || {
                    let h = db.handle();
                    for i in 0..PER_PRODUCER {
                        q.enqueue(&h, (t << 32) | i);
                    }
                });
            }
            for _ in 0..CONSUMERS {
                let q = Arc::clone(&q);
                let popped = &popped;
                let db = &db;
                s.spawn(move || {
                    let h = db.handle();
                    let mut local = Vec::new();
                    let mut misses = 0u32;
                    // Keep consuming until producers are clearly done and the queue
                    // stays empty.
                    while misses < 1_000 {
                        match q.dequeue(&h) {
                            Some(v) => {
                                local.push(v);
                                misses = 0;
                            }
                            None => {
                                misses += 1;
                                std::thread::yield_now();
                            }
                        }
                    }
                    popped.lock().unwrap().extend(local);
                });
            }
        });

        let h = db.handle();
        let mut drained = popped.into_inner().unwrap();
        while let Some(v) = q.dequeue(&h) {
            drained.push(v);
        }
        assert_eq!(drained.len() as u64, PRODUCERS * PER_PRODUCER);

        // Every value appears exactly once, and each producer's values are popped in
        // FIFO order relative to each other.
        let mut sorted = drained.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len() as u64, PRODUCERS * PER_PRODUCER);
        for t in 0..PRODUCERS {
            let seqs: Vec<u64> = drained
                .iter()
                .filter(|v| (*v >> 32) == t)
                .map(|v| v & 0xFFFF_FFFF)
                .collect();
            // NOTE: `drained` concatenates per-consumer pops, so global order is not
            // FIFO; but the multiset must be complete. FIFO order per producer is
            // checked in the single-consumer test below.
            assert_eq!(seqs.len() as u64, PER_PRODUCER);
        }
    }

    #[test]
    fn single_consumer_sees_each_producer_in_order() {
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 1_000;
        let db = ht_db();
        let q: Arc<HtQueue<Manual>> = Arc::new(MsQueue::new(&db));
        let mut popped = Vec::new();

        std::thread::scope(|s| {
            for t in 0..PRODUCERS {
                let q = Arc::clone(&q);
                let db = &db;
                s.spawn(move || {
                    let h = db.handle();
                    for i in 0..PER_PRODUCER {
                        q.enqueue(&h, (t << 32) | i);
                    }
                });
            }
            let h = db.handle();
            let total = (PRODUCERS * PER_PRODUCER) as usize;
            while popped.len() < total {
                if let Some(v) = q.dequeue(&h) {
                    popped.push(v);
                } else {
                    std::thread::yield_now();
                }
            }
        });

        for t in 0..PRODUCERS {
            let seqs: Vec<u64> = popped
                .iter()
                .filter(|v| (*v >> 32) == t)
                .map(|v| v & 0xFFFF_FFFF)
                .collect();
            assert_eq!(seqs, (0..PER_PRODUCER).collect::<Vec<_>>(), "producer {t}");
        }
    }

    #[test]
    fn crash_image_recovers_the_exact_queue_when_quiescent() {
        let nvram = SimNvram::for_crash_testing();
        let db = FlitDb::flit_ht(nvram.clone());
        let h = db.handle();
        let q: HtQueue<Automatic> = MsQueue::new(&db);
        let _guard = h.pin();
        for v in [3u64, 1, 4, 1, 5, 9, 2, 6] {
            q.enqueue(&h, v);
        }
        assert_eq!(q.dequeue(&h), Some(3));
        assert_eq!(q.dequeue(&h), Some(1));

        let image = nvram.tracker().unwrap().crash_image();
        let recovered = q.recover(&image);
        assert!(!recovered.truncated);
        assert_eq!(recovered.values, vec![4, 1, 5, 9, 2, 6]);
        assert_eq!(recovered.values, q.volatile_contents());
    }

    #[test]
    fn manual_variant_recovers_despite_volatile_tail() {
        // Manual leaves the tail swings volatile (INDEX_STORE); the persisted next
        // chain alone must still recover every completed enqueue.
        let nvram = SimNvram::for_crash_testing();
        let db = FlitDb::flit_ht(nvram.clone());
        let h = db.handle();
        let q: HtQueue<Manual> = MsQueue::new(&db);
        let _guard = h.pin();
        for v in 100..150u64 {
            q.enqueue(&h, v);
        }
        let image = nvram.tracker().unwrap().crash_image();
        let recovered = q.recover(&image);
        assert!(!recovered.truncated);
        assert_eq!(recovered.values, (100..150).collect::<Vec<_>>());
        // The tail root may well be stale in the image — that is the point of
        // treating it as index state. Head must be present.
        assert!(image.read(q.head_addr()).is_some());
    }
}

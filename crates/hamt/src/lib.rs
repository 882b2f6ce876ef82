//! A copy-on-write persistent **hash array mapped trie** — the workspace's second
//! persistence *discipline*: MOD ("Minimally Ordered Durable Datastructures for
//! Persistent Memory") for the nodes, FliT for the one word that ever mutates.
//!
//! ## Two persistence disciplines
//!
//! Every other structure in this workspace persists **in place**: each shared
//! word is a `FlitAtomic` whose tagging counter tells racing readers when a
//! store is still in flight so they can help flush it (the FliT protocol). That
//! buys in-place CAS designs durable linearizability at the cost of a flush +
//! fence discipline on *every* shared word.
//!
//! The HAMT inverts the deal. Interior nodes are **immutable once published**:
//! an update builds its whole new path *off to the side* in fresh arena slots,
//! writes the nodes with plain stores, issues `pwb`s for their cache lines
//! (no fence per node), then issues **one** fence and publishes the new trie
//! with a single CAS on the durable **root cell**. Unreachable-until-published
//! nodes need no helping and no tagging — they are plain words — and the fence
//! count per update is **O(1) in the path length**: the publishing p-CAS's
//! leading and trailing fence, however deep the trie is. (The `pwb` count still
//! grows with depth — copying is not free — but `pwb`s are asynchronous; fences
//! are the serialising cost the paper's model charges for.)
//!
//! The single mutable persistent word is the root cell, and it is a real p-word
//! of the database's policy (a `P::Word<u64>`: a `FlitAtomic` under the FliT
//! policies). Every operation p-loads it and an update publishes with one
//! p-CAS, so Algorithm 4 applies verbatim: the word is tagged only from the
//! publishing CAS until the publisher's fence, a reader flushes it only inside
//! that window, and a lookup (or a failed insert/remove) under a settled root
//! issues **no `pwb` and no fence**. The policy decides the rest: plain flushes
//! on every p-load (the paper's baseline), `Batched(k)` defers the untag.
//!
//! ## Layout
//!
//! Nodes live in one [`flit_alloc::Arena`] with
//! [`ArenaConfig::hamt_nodes`]-shaped slots ([`flit_alloc::HAMT_NODE_SLOT_BYTES`]):
//!
//! * **interior node** — `[header, child₀, …, childₙ₋₁]`: the header's low 16
//!   bits are an occupancy bitmap over the 16 nibble values; children are
//!   packed by popcount rank (bitmap compression), so a node costs
//!   `1 + popcount` words to write and flush.
//! * **leaf** — `[key, value]`.
//! * **entry encoding** — `0` = absent, bit 0 set = interior node at
//!   `enc & !1`, otherwise a leaf at `enc` (slot addresses are word-aligned, so
//!   bit 0 is free).
//!
//! Keys are mixed through a **bijective** finaliser ([`mix_key`], the
//! splitmix64 finaliser), so distinct `u64` keys have distinct 64-bit hashes:
//! with 4-bit branching the trie is at most [`MAX_DEPTH`] levels deep and
//! needs no collision buckets at all.
//!
//! ## Snapshots and retained roots
//!
//! Copy-on-write makes snapshots O(1): [`Hamt::snapshot`] records the current
//! root in a **retained-root table** — a persisted arena block of
//! `(root, refcount, version)` entries registered under
//! [`roots::HAMT_RETAINED`] — so a snapshot *survives crashes*:
//! [`Hamt::recover_snapshots_in_image`] replays each retained entry to exactly
//! its frozen contents, and `post_crash_gc`'s conservative mark (seeded from
//! every registered root, block words included) keeps the pinned paths alive
//! across reopen. [`Snapshot::iter`] and [`Snapshot::range`] walk the frozen
//! trie; iteration order is the deterministic trie order of the mixed hash, so
//! it is stable within one snapshot (and `range` is a filtered full walk —
//! the trie is hash-ordered, not key-ordered).
//!
//! Old paths are reclaimed through EBR ([`Guard::defer`]-based
//! [`Arena::defer_recycle`]) — **unless a snapshot is live**, in which case
//! retired nodes park on a backlog that drains only when the live-snapshot
//! count returns to zero. A snapshot taken after a node was unlinked can never
//! reach it (new roots only share still-linked subtrees), so the conservative
//! backlog policy is safe. Releasing a snapshot (drop) durably zeroes its
//! refcount lazily — best-effort, because a crashed process's snapshots are
//! *supposed* to persist.
//!
//! ## Why the pre-publish fence exists
//!
//! The fence between the path `pwb`s and the publishing CAS is what makes the
//! root cell's value self-certifying across threads: any root another thread
//! can observe points at a fully-durable path. Without it, a concurrent
//! snapshotter could durably retain a root whose nodes were still pending in
//! the *publisher's* persist epoch, and a crash would recover a retained
//! snapshot pointing into nothing. It is the p-CAS's *leading* fence (P-V
//! Condition 4: a handle's earlier `pwb`s are durable before its next shared
//! store linearizes). Two fences per update, O(1) in depth, both elision-aware.
//!
//! ## Recovery
//!
//! Recovery is image-only, like every structure here ([`RecoverInImage`]):
//! root table → [`roots::HAMT_ROOT`] cell → persisted root word (at the
//! policy's layout offset inside the cell) → node walk entirely through the
//! [`CrashImage`], under one bounded [`ImageWalk`]. A reachable word missing
//! from the image flags `truncated` — the persist-before-publish argument is
//! *checked*, not assumed. Depth past [`MAX_DEPTH`] is layout logic: only a
//! cycle or hostile bytes reach it, and it ends the walk as `truncated` too;
//! the walker's budget bounds a cyclic trie of any shape to O(`image.len()`)
//! visits. Each retained snapshot root is walked with a walker of its own,
//! because snapshots share nodes with each other and with the live trie. The
//! broken control ([`BrokenHamt`]) accesses the root with [`PFlag::Volatile`]:
//! every path node is still persisted, but no CAS writes the root back and no
//! load helps, so the structure recovers to its construction-time (empty)
//! state and the crash sweep must flag every acknowledged update as lost.
//!
//! ## Scope
//!
//! The retained-root table holds at most [`RETAINED_CAPACITY`] live snapshots.
//! Under `CommitMode::Batched` the pre-publish fence still runs eagerly (it
//! orders publication, not acknowledgment); the trailing fence is deferred
//! where the policy's scheme allows it, and the root stays tagged until then.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::ops::RangeBounds;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use flit::{FlitDb, FlitHandle, PFlag, PersistWord, Policy};
use flit_alloc::{roots, Arena, ArenaConfig, ImageWalk, Truncated, HAMT_NODE_SLOT_BYTES};
use flit_datastructs::{ConcurrentMap, RecoverInImage, RecoveredMap};
use flit_ebr::Guard;
use flit_pmem::{cache_line_of, CrashImage, PmemBackend, PmemSession, CACHE_LINE_SIZE, WORD_SIZE};
use parking_lot::Mutex;

/// Branching factor: one 4-bit nibble of the mixed hash per level.
pub const FANOUT: usize = 16;
const NIBBLE_BITS: u32 = 4;
const BITMAP_MASK: u64 = (1 << FANOUT) - 1;
/// Maximum trie depth: 64 hash bits / 4 bits per level. Because [`mix_key`] is
/// bijective, two distinct keys always diverge at some level above this.
pub const MAX_DEPTH: usize = (u64::BITS / NIBBLE_BITS) as usize;
/// Capacity of the retained-root (snapshot) table.
pub const RETAINED_CAPACITY: usize = 64;
/// Words per retained-root entry: `[root, refcount, version]`.
pub const RETAINED_ENTRY_WORDS: usize = 3;
const RETAINED_BYTES: usize = RETAINED_CAPACITY * RETAINED_ENTRY_WORDS * WORD_SIZE;
const INTERIOR_TAG: u64 = 0b1;

/// The bijective splitmix64 finaliser used to spread keys over the trie.
/// Distinct keys map to distinct hashes, so the trie needs no collision
/// handling and its depth is bounded by [`MAX_DEPTH`].
#[inline]
pub fn mix_key(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[inline]
fn nibble(hash: u64, depth: usize) -> usize {
    ((hash >> (NIBBLE_BITS as usize * depth)) & 0xF) as usize
}

#[inline]
fn is_interior(enc: u64) -> bool {
    enc & INTERIOR_TAG != 0
}

#[inline]
fn addr_of(enc: u64) -> usize {
    (enc & !INTERIOR_TAG) as usize
}

/// Popcount rank of `nib` within `bitmap`: the packed index of that child.
#[inline]
fn rank(bitmap: u64, nib: usize) -> usize {
    (bitmap & ((1u64 << nib) - 1)).count_ones() as usize
}

#[inline]
fn read_word(addr: usize) -> u64 {
    // SAFETY: callers pass word-aligned addresses inside published (immutable)
    // nodes of an arena kept alive by the owning `Hamt`/`Snapshot`.
    unsafe { *(addr as *const u64) }
}

/// Write one word of an *unpublished* node and notify the crash tracker.
#[inline]
fn write_word<B: PmemBackend>(pm: &B, base: *mut u64, idx: usize, val: u64) {
    // SAFETY: in-bounds write inside a freshly allocated, exclusively owned
    // node slot that no other thread can reach before the publishing CAS.
    let p = unsafe { base.add(idx) };
    unsafe { p.write(val) };
    pm.record_store(p as *const u8, val);
}

/// `pwb` every cache line of `[start, start + bytes)` — **no fence**: the MOD
/// discipline persists a whole path with write-backs only and fences once.
#[inline]
fn pwb_range<B: PmemBackend>(pm: &B, start: usize, bytes: usize) {
    let first = cache_line_of(start);
    let last = cache_line_of(start + bytes - 1);
    let mut line = first;
    loop {
        pm.pwb(line as *const u8);
        if line == last {
            break;
        }
        line += CACHE_LINE_SIZE;
    }
}

/// Node addresses of one copied path. A path is at most [`MAX_DEPTH`]
/// interior nodes plus a leaf, so the buffer lives on the stack.
#[derive(Default)]
struct NodeBuf {
    len: usize,
    addrs: [usize; MAX_DEPTH + 1],
}

impl NodeBuf {
    #[inline]
    fn push(&mut self, addr: usize) {
        self.addrs[self.len] = addr;
        self.len += 1;
    }

    fn as_slice(&self) -> &[usize] {
        &self.addrs[..self.len]
    }
}

/// What one update attempt touches: the nodes it allocated (`fresh`, recycled
/// if the publishing CAS loses) and the nodes the new path supersedes
/// (`stale`, retired once it wins).
#[derive(Default)]
struct Path {
    fresh: NodeBuf,
    stale: NodeBuf,
}

/// Reclamation bookkeeping shared by updates and snapshots.
struct SnapState {
    /// Live (unreleased) snapshots.
    live: usize,
    /// Node addresses retired while a snapshot was live; drained to the
    /// arena's deferred-recycle path when `live` returns to zero.
    backlog: Vec<usize>,
    /// Monotone version stamped into retained-root entries.
    next_version: u64,
}

/// A copy-on-write hash array mapped trie over `u64` keys and values, durable
/// through the MOD discipline (see the crate docs). All operations take the
/// calling thread's [`FlitHandle`]; the structure shares the owning
/// [`FlitDb`]'s backend and EBR collector.
pub struct Hamt<P: Policy> {
    arena: Arc<Arena>,
    db: FlitDb<P>,
    /// Address of the root cell, registered under [`roots::HAMT_ROOT`]: one
    /// slot holding the `P::Word<u64>` root (entry encoding, 0 = empty).
    root_cell: usize,
    /// Address of the retained-root table block, registered under
    /// [`roots::HAMT_RETAINED`].
    retained: usize,
    len: AtomicUsize,
    snaps: Mutex<SnapState>,
    /// The p-flag of every root-word access: [`PFlag::Persisted`], except in
    /// the crash-sweep broken control ([`BrokenHamt`]), whose volatile CAS
    /// never writes the root back and whose volatile loads never help.
    root_flag: PFlag,
}

impl<P: Policy> Hamt<P> {
    /// Create a trie in `db` sized for roughly `capacity_hint` keys.
    pub fn new(db: &FlitDb<P>, capacity_hint: usize) -> Self {
        Self::with_config(db, capacity_hint, db.arena_defaults())
    }

    /// [`Hamt::new`] with an explicit node-arena [`ArenaConfig`]. The slot size
    /// is forced to the HAMT node shape and the chunk slot-count is raised when
    /// needed: a chunk must fit the retained-root table contiguously, and
    /// copy-on-write churns through roughly `depth + 1` slots per update, so
    /// the capacity-derived [`ArenaConfig::hamt_nodes`] floor also applies.
    pub fn with_config(db: &FlitDb<P>, capacity_hint: usize, config: ArenaConfig) -> Self {
        Self::build(db, capacity_hint, config, PFlag::Persisted)
    }

    fn build(db: &FlitDb<P>, capacity_hint: usize, config: ArenaConfig, root_flag: PFlag) -> Self {
        let chunk_slots = config
            .slots_per_chunk
            .max(ArenaConfig::hamt_nodes(capacity_hint).slots_per_chunk)
            .max(2 * RETAINED_BYTES.div_ceil(HAMT_NODE_SLOT_BYTES));
        let arena = db.new_arena(config.sized(HAMT_NODE_SLOT_BYTES).chunked(chunk_slots));

        // Construction window: persist the (empty) root cell and the zeroed
        // retained table first, then register the roots — persist before
        // publish at construction scale. A crash anywhere in here recovers to
        // the empty trie (absent root) or the empty trie (persisted zero).
        let h = db.handle();
        let pm = h.pmem();
        let cell: *mut P::Word<u64> = arena.alloc_init(&pm, P::Word::<u64>::new(0));
        // SAFETY: a freshly initialised slot that lives as long as the arena.
        let root = unsafe { &*cell };
        // Volatile private store: records the word with the crash tracker.
        root.store_private(&h, 0, PFlag::Volatile);
        let table = arena.alloc_block(&pm, RETAINED_BYTES) as *mut u64;
        for i in 0..RETAINED_CAPACITY * RETAINED_ENTRY_WORDS {
            write_word(&pm, table, i, 0);
        }
        h.persist_object(root, PFlag::Persisted);
        h.persist_range(table as *const u8, RETAINED_BYTES, PFlag::Persisted);
        arena.register_root(&pm, roots::HAMT_ROOT, cell as usize);
        arena.register_root(&pm, roots::HAMT_RETAINED, table as usize);
        drop(h);

        Self {
            arena,
            db: db.clone(),
            root_cell: cell as usize,
            retained: table as usize,
            len: AtomicUsize::new(0),
            snaps: Mutex::new(SnapState {
                live: 0,
                backlog: Vec::new(),
                next_version: 1,
            }),
            root_flag,
        }
    }

    /// The arena every node (and the retained-root table) lives in.
    pub fn arena(&self) -> &Arc<Arena> {
        &self.arena
    }

    /// Address of the root word (diagnostics / observability).
    pub fn root_cell_addr(&self) -> usize {
        self.root().addr()
    }

    /// The root word: the trie's one mutable persistent word.
    #[inline]
    fn root(&self) -> &P::Word<u64> {
        // SAFETY: the root cell is a live arena slot initialised in `build`
        // and owned by this structure for its whole lifetime.
        unsafe { &*(self.root_cell as *const P::Word<u64>) }
    }

    /// Byte offset of the root word inside the root cell (the adjacent scheme
    /// pads the word with its counter; the table schemes lay it out bare).
    fn root_word_offset() -> usize {
        let probe = P::Word::<u64>::new(0);
        probe.addr() - &probe as *const P::Word<u64> as usize
    }

    /// Look up `key` in the trie rooted at `enc` (volatile walk over
    /// published — hence immutable — nodes).
    fn lookup(mut enc: u64, hash: u64, key: u64) -> Option<u64> {
        let mut depth = 0;
        while enc != 0 {
            let addr = addr_of(enc);
            if !is_interior(enc) {
                return (read_word(addr) == key).then(|| read_word(addr + WORD_SIZE));
            }
            let bitmap = read_word(addr) & BITMAP_MASK;
            let nib = nibble(hash, depth);
            if bitmap & (1 << nib) == 0 {
                return None;
            }
            enc = read_word(addr + (1 + rank(bitmap, nib)) * WORD_SIZE);
            depth += 1;
        }
        None
    }

    /// Read `key`'s value. The root is a p-load: it flushes only while a
    /// publish is in flight, so a lookup under a settled root issues no
    /// persistence instruction at all.
    pub fn get(&self, h: &FlitHandle<'_, P>, key: u64) -> Option<u64> {
        let _guard = h.pin();
        let root = self.root().load(h, self.root_flag);
        let res = Self::lookup(root, mix_key(key), key);
        h.operation_completion();
        res
    }

    fn alloc_node<B: PmemBackend>(&self, pm: &B, fresh: &mut NodeBuf) -> *mut u64 {
        let node = self.arena.alloc(pm) as *mut u64;
        fresh.push(node as usize);
        node
    }

    fn new_leaf<B: PmemBackend>(&self, pm: &B, key: u64, value: u64, fresh: &mut NodeBuf) -> u64 {
        let leaf = self.alloc_node(pm, fresh);
        write_word(pm, leaf, 0, key);
        write_word(pm, leaf, 1, value);
        pwb_range(pm, leaf as usize, 2 * WORD_SIZE);
        leaf as u64
    }

    /// Replace a colliding leaf with the interior chain that separates the two
    /// hashes, sharing the existing leaf by address (structural sharing).
    #[allow(clippy::too_many_arguments)]
    fn split<B: PmemBackend>(
        &self,
        pm: &B,
        old_leaf: u64,
        old_hash: u64,
        key: u64,
        value: u64,
        new_hash: u64,
        depth: usize,
        fresh: &mut NodeBuf,
    ) -> u64 {
        let new_leaf = self.new_leaf(pm, key, value, fresh);
        let mut d = depth;
        while nibble(old_hash, d) == nibble(new_hash, d) {
            d += 1;
        }
        debug_assert!(d < MAX_DEPTH, "bijective hashes diverge within 16 nibbles");
        // Two-child node at the diverging level…
        let (no, nn) = (nibble(old_hash, d), nibble(new_hash, d));
        let node = self.alloc_node(pm, fresh);
        write_word(pm, node, 0, (1u64 << no) | (1u64 << nn));
        let (first, second) = if no < nn {
            (old_leaf, new_leaf)
        } else {
            (new_leaf, old_leaf)
        };
        write_word(pm, node, 1, first);
        write_word(pm, node, 2, second);
        pwb_range(pm, node as usize, 3 * WORD_SIZE);
        let mut enc = node as u64 | INTERIOR_TAG;
        // …wrapped in single-entry nodes for every shared level above it.
        for dd in (depth..d).rev() {
            let wrap = self.alloc_node(pm, fresh);
            write_word(pm, wrap, 0, 1u64 << nibble(new_hash, dd));
            write_word(pm, wrap, 1, enc);
            pwb_range(pm, wrap as usize, 2 * WORD_SIZE);
            enc = wrap as u64 | INTERIOR_TAG;
        }
        enc
    }

    /// Build the copy-on-write path for inserting `(key, value)` under `enc`.
    /// Returns the new entry encoding, or `None` when the key is already
    /// present (inserts never overwrite). Every allocated node is fully
    /// written, recorded, and `pwb`-ed before this returns; no fence is
    /// issued.
    #[allow(clippy::too_many_arguments)]
    fn cow_insert<B: PmemBackend>(
        &self,
        pm: &B,
        enc: u64,
        hash: u64,
        key: u64,
        value: u64,
        depth: usize,
        path: &mut Path,
    ) -> Option<u64> {
        if enc == 0 {
            return Some(self.new_leaf(pm, key, value, &mut path.fresh));
        }
        let addr = addr_of(enc);
        if !is_interior(enc) {
            let k0 = read_word(addr);
            if k0 == key {
                return None;
            }
            let fresh = &mut path.fresh;
            return Some(self.split(pm, enc, mix_key(k0), key, value, hash, depth, fresh));
        }
        let bitmap = read_word(addr) & BITMAP_MASK;
        let nib = nibble(hash, depth);
        let bit = 1u64 << nib;
        let child = if bitmap & bit != 0 {
            read_word(addr + (1 + rank(bitmap, nib)) * WORD_SIZE)
        } else {
            0
        };
        let new_child = self.cow_insert(pm, child, hash, key, value, depth + 1, path)?;
        let node = self.alloc_node(pm, &mut path.fresh);
        let new_bitmap = bitmap | bit;
        write_word(pm, node, 0, new_bitmap);
        let mut w = 1;
        for i in 0..FANOUT {
            if new_bitmap & (1 << i) == 0 {
                continue;
            }
            let v = if i == nib {
                new_child
            } else {
                read_word(addr + (1 + rank(bitmap, i)) * WORD_SIZE)
            };
            write_word(pm, node, w, v);
            w += 1;
        }
        pwb_range(pm, node as usize, w * WORD_SIZE);
        path.stale.push(addr);
        Some(node as u64 | INTERIOR_TAG)
    }

    /// Build the copy-on-write path for removing `key` under `enc`. Returns
    /// the new entry encoding (`0` when the subtree vanishes), or `None` when
    /// the key is absent. Single-leaf interiors contract to the leaf itself.
    fn cow_remove<B: PmemBackend>(
        &self,
        pm: &B,
        enc: u64,
        hash: u64,
        key: u64,
        depth: usize,
        path: &mut Path,
    ) -> Option<u64> {
        if enc == 0 {
            return None;
        }
        let addr = addr_of(enc);
        if !is_interior(enc) {
            if read_word(addr) != key {
                return None;
            }
            path.stale.push(addr);
            return Some(0);
        }
        let bitmap = read_word(addr) & BITMAP_MASK;
        let nib = nibble(hash, depth);
        let bit = 1u64 << nib;
        if bitmap & bit == 0 {
            return None;
        }
        let child = read_word(addr + (1 + rank(bitmap, nib)) * WORD_SIZE);
        let new_child = self.cow_remove(pm, child, hash, key, depth + 1, path)?;
        path.stale.push(addr);
        if new_child == 0 {
            let new_bitmap = bitmap & !bit;
            let count = new_bitmap.count_ones() as usize;
            if count == 0 {
                return Some(0);
            }
            if count == 1 {
                let only_nib = new_bitmap.trailing_zeros() as usize;
                let only = read_word(addr + (1 + rank(bitmap, only_nib)) * WORD_SIZE);
                if !is_interior(only) {
                    // Contract: hoist the sole remaining leaf (interiors
                    // cannot hoist — their children are indexed by depth).
                    return Some(only);
                }
            }
            let node = self.alloc_node(pm, &mut path.fresh);
            write_word(pm, node, 0, new_bitmap);
            let mut w = 1;
            for i in 0..FANOUT {
                if new_bitmap & (1 << i) == 0 {
                    continue;
                }
                write_word(
                    pm,
                    node,
                    w,
                    read_word(addr + (1 + rank(bitmap, i)) * WORD_SIZE),
                );
                w += 1;
            }
            pwb_range(pm, node as usize, (1 + count) * WORD_SIZE);
            Some(node as u64 | INTERIOR_TAG)
        } else {
            if bitmap.count_ones() == 1 && !is_interior(new_child) {
                // The child contracted to a leaf and it is our only entry:
                // keep contracting.
                return Some(new_child);
            }
            let node = self.alloc_node(pm, &mut path.fresh);
            write_word(pm, node, 0, bitmap);
            let mut w = 1;
            for i in 0..FANOUT {
                if bitmap & (1 << i) == 0 {
                    continue;
                }
                let v = if i == nib {
                    new_child
                } else {
                    read_word(addr + (1 + rank(bitmap, i)) * WORD_SIZE)
                };
                write_word(pm, node, w, v);
                w += 1;
            }
            pwb_range(
                pm,
                node as usize,
                (1 + bitmap.count_ones() as usize) * WORD_SIZE,
            );
            Some(node as u64 | INTERIOR_TAG)
        }
    }

    /// Retire the replaced path nodes: straight to the arena's deferred
    /// recycle when no snapshot is live, onto the backlog otherwise.
    fn retire(&self, guard: &Guard<'_>, old_nodes: &[usize]) {
        if old_nodes.is_empty() {
            return;
        }
        let mut st = self.snaps.lock();
        if st.live == 0 {
            for &a in old_nodes {
                // SAFETY: `a` was just unlinked from the published trie by a
                // successful root CAS; only EBR-pinned traversals of older
                // roots can still reach it, which `defer_recycle` waits out.
                unsafe { self.arena.defer_recycle(guard, a) };
            }
        } else {
            st.backlog.extend_from_slice(old_nodes);
        }
    }

    /// The shared update loop: p-load the root, let `build` copy the path
    /// aside (`None` = nothing to change), then publish with **one** p-CAS on
    /// the root word. The CAS's leading fence *is* MOD's pre-publish fence —
    /// it commits every path `pwb` before the new root can be observed — and
    /// its tag → CAS → `pwb` → fence → untag *is* the root flush. A lost CAS
    /// recycles the never-published nodes and rebuilds.
    fn update(
        &self,
        h: &FlitHandle<'_, P>,
        build: impl Fn(&PmemSession<'_, P::Backend>, u64, &mut Path) -> Option<u64>,
    ) -> bool {
        let guard = h.pin();
        let pm = h.pmem();
        let published = loop {
            let root = self.root().load(h, self.root_flag);
            let mut path = Path::default();
            let Some(new_root) = build(&pm, root, &mut path) else {
                break false;
            };
            let cas = self
                .root()
                .compare_exchange(h, root, new_root, self.root_flag);
            if cas.is_ok() {
                self.retire(&guard, path.stale.as_slice());
                break true;
            }
            for &n in path.fresh.as_slice() {
                // SAFETY: the CAS lost, so these freshly built nodes were
                // never published; no other thread can hold a reference.
                unsafe { self.arena.recycle(n as *mut u8) };
            }
        };
        h.operation_completion();
        published
    }

    /// Insert `(key, value)`; returns `false` (and stores nothing) when the
    /// key is already present.
    pub fn insert(&self, h: &FlitHandle<'_, P>, key: u64, value: u64) -> bool {
        let hash = mix_key(key);
        let inserted = self.update(h, |pm, root, path| {
            self.cow_insert(pm, root, hash, key, value, 0, path)
        });
        if inserted {
            self.len.fetch_add(1, Ordering::Relaxed);
        }
        inserted
    }

    /// Remove `key`; returns `false` when it was absent.
    pub fn remove(&self, h: &FlitHandle<'_, P>, key: u64) -> bool {
        let hash = mix_key(key);
        let removed = self.update(h, |pm, root, path| {
            self.cow_remove(pm, root, hash, key, 0, path)
        });
        if removed {
            self.len.fetch_sub(1, Ordering::Relaxed);
        }
        removed
    }

    /// Quiescent size (volatile counter, like the other structures).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// `true` when [`len`](Self::len) is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn retained_entry(&self, slot: usize) -> usize {
        self.retained + slot * RETAINED_ENTRY_WORDS * WORD_SIZE
    }

    /// Freeze the current trie: claim a retained-root entry, persist it, and
    /// return a [`Snapshot`] over the frozen contents. The entry — and with it
    /// the pinned path, through the conservative post-crash GC mark — survives
    /// a crash until explicitly released.
    ///
    /// # Panics
    /// When all [`RETAINED_CAPACITY`] entries are live.
    pub fn snapshot<'t>(&'t self, h: &FlitHandle<'_, P>) -> Snapshot<'t, P> {
        let pm = h.pmem();
        let mut st = self.snaps.lock();
        let root = self.root().load(h, self.root_flag);
        let slot = (0..RETAINED_CAPACITY)
            .find(|&i| read_word(self.retained_entry(i) + WORD_SIZE) == 0)
            .expect("retained-root table full: release a snapshot before taking another");
        let version = st.next_version;
        st.next_version += 1;
        let base = self.retained_entry(slot) as *mut u64;
        // Entry becomes durable atomically at our completion fence: root and
        // version are flushed alongside the refcount that validates them.
        write_word(&pm, base, 0, root);
        write_word(&pm, base, 2, version);
        write_word(&pm, base, 1, 1);
        pwb_range(&pm, base as usize, RETAINED_ENTRY_WORDS * WORD_SIZE);
        st.live += 1;
        drop(st);
        h.operation_completion();
        Snapshot {
            hamt: self,
            root,
            slot,
            version,
        }
    }

    /// Release the retained entry behind a dropped snapshot and drain the
    /// reclamation backlog when this was the last live snapshot.
    fn release_slot(&self, slot: usize) {
        let mut st = self.snaps.lock();
        let rc = (self.retained_entry(slot) + WORD_SIZE) as *mut u64;
        // SAFETY: in-bounds word of the retained table, mutated only under
        // the `snaps` lock.
        unsafe { rc.write(0) };
        let b = self.db.backend();
        b.record_store(rc as *const u8, 0);
        // Best-effort durability: the zero rides to persistence on whichever
        // fence next commits this line. A crash that loses it merely leaves a
        // stale retained entry pinning a dead trie until released post-reopen.
        b.pwb(rc as *const u8);
        st.live -= 1;
        if st.live == 0 && !st.backlog.is_empty() {
            let local = self.db.collector().register();
            let guard = local.pin();
            for a in st.backlog.drain(..) {
                // SAFETY: backlogged nodes were unlinked from the published
                // trie before being parked; the last pinning snapshot is gone.
                unsafe { self.arena.defer_recycle(&guard, a) };
            }
        }
    }

    /// Live retained-root entries `(slot, version, root_encoding)` — the
    /// volatile view of what [`Hamt::recover_snapshots_in_image`] would
    /// recover (diagnostics / observability).
    pub fn retained_roots(&self) -> Vec<(usize, u64, u64)> {
        let _st = self.snaps.lock();
        (0..RETAINED_CAPACITY)
            .filter_map(|slot| {
                let base = self.retained_entry(slot);
                (read_word(base + WORD_SIZE) != 0)
                    .then(|| (slot, read_word(base + 2 * WORD_SIZE), read_word(base)))
            })
            .collect()
    }

    /// Image-only recovery through this trie's own arena; see
    /// [`RecoverInImage`].
    pub fn recover(&self, image: &CrashImage) -> RecoveredMap {
        Self::recover_arena_image(&self.arena, image)
    }

    /// Replay every durably retained snapshot out of the crash image: each
    /// entry of the [`roots::HAMT_RETAINED`] table with a persisted non-zero
    /// refcount yields its frozen contents. This is the crash-surviving half
    /// of the snapshot contract. Snapshots legitimately share nodes, so each
    /// retained root gets a walker (and a budget) of its own.
    pub fn recover_snapshots_in_image(arena: &Arena, image: &CrashImage) -> Vec<RetainedSnapshot> {
        let table_walk = ImageWalk::new(arena, image);
        let Some(table) = table_walk.root(roots::HAMT_RETAINED) else {
            return Vec::new();
        };
        (0..RETAINED_CAPACITY)
            .filter_map(|slot| {
                let base = table + slot * RETAINED_ENTRY_WORDS * WORD_SIZE;
                let root = table_walk.get(base)?;
                if table_walk.get(base + WORD_SIZE)? == 0 {
                    return None;
                }
                let version = table_walk.get(base + 2 * WORD_SIZE)?;
                let mut rec = RecoveredMap::default();
                let mut walk = ImageWalk::new(arena, image);
                rec.truncated = walk_enc(&mut walk, root, 0, &mut rec.pairs).is_err();
                Some(RetainedSnapshot { slot, version, rec })
            })
            .collect()
    }
}

/// A durably retained snapshot replayed from a crash image by
/// [`Hamt::recover_snapshots_in_image`].
#[derive(Debug, Clone)]
pub struct RetainedSnapshot {
    /// Index of the retained-root table entry.
    pub slot: usize,
    /// The version stamped when the snapshot was taken.
    pub version: u64,
    /// The frozen contents (with `truncated` flagging an unpersisted path —
    /// a durability bug, since retained entries are only durable after the
    /// pinned path is).
    pub rec: RecoveredMap,
}

/// Image-only walk of the trie under entry `enc` at `depth`. The trie is at
/// most [`MAX_DEPTH`] levels deep, so the recursion is shallow; a deeper
/// entry is a cycle or hostile bytes.
fn walk_enc(
    walk: &mut ImageWalk<'_>,
    enc: u64,
    depth: usize,
    pairs: &mut Vec<(u64, u64)>,
) -> Result<(), Truncated> {
    if enc == 0 {
        return Ok(());
    }
    if depth > MAX_DEPTH {
        return Err(Truncated);
    }
    let addr = walk.visit(addr_of(enc))?;
    if !is_interior(enc) {
        pairs.push((walk.read(addr)?, walk.read(addr + WORD_SIZE)?));
        return Ok(());
    }
    let count = (walk.read(addr)? & BITMAP_MASK).count_ones() as usize;
    for i in 1..=count {
        let child = walk.read(addr + i * WORD_SIZE)?;
        walk_enc(walk, child, depth + 1, pairs)?;
    }
    Ok(())
}

/// A frozen view of the trie pinned by a retained-root entry. Reads cost no
/// fences; iteration order is the deterministic trie order, stable for the
/// snapshot's lifetime. Dropping releases the entry and un-pins the frozen
/// path.
pub struct Snapshot<'t, P: Policy> {
    hamt: &'t Hamt<P>,
    root: u64,
    slot: usize,
    version: u64,
}

impl<'t, P: Policy> Snapshot<'t, P> {
    /// The monotone version stamped when this snapshot was taken.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Index of the retained-root table entry pinning this snapshot.
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// Read `key` out of the frozen trie.
    pub fn get(&self, key: u64) -> Option<u64> {
        Hamt::<P>::lookup(self.root, mix_key(key), key)
    }

    /// Walk the frozen trie in trie (mixed-hash) order.
    pub fn iter(&self) -> SnapshotIter<'_> {
        SnapshotIter::new(self.root)
    }

    /// All `(key, value)` pairs whose key lies in `bounds`, in trie order.
    /// The trie is hash-ordered, so this is a filtered full walk — O(n), not
    /// O(log n + k).
    pub fn range<R: RangeBounds<u64> + 'static>(
        &self,
        bounds: R,
    ) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.iter().filter(move |(k, _)| bounds.contains(k))
    }
}

impl<P: Policy> Drop for Snapshot<'_, P> {
    fn drop(&mut self) {
        self.hamt.release_slot(self.slot);
    }
}

impl<'s, P: Policy> IntoIterator for &'s Snapshot<'_, P> {
    type Item = (u64, u64);
    type IntoIter = SnapshotIter<'s>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Iterator over a [`Snapshot`]'s frozen pairs in trie order.
pub struct SnapshotIter<'s> {
    /// `(node address, entry count, next entry index)` per open interior node.
    stack: Vec<(usize, usize, usize)>,
    /// Set when the snapshot root is itself a leaf (or empty).
    root_leaf: Option<u64>,
    _snapshot: std::marker::PhantomData<&'s ()>,
}

impl SnapshotIter<'_> {
    fn new(root: u64) -> Self {
        let mut it = SnapshotIter {
            stack: Vec::new(),
            root_leaf: None,
            _snapshot: std::marker::PhantomData,
        };
        if root == 0 {
            return it;
        }
        if is_interior(root) {
            let addr = addr_of(root);
            let count = (read_word(addr) & BITMAP_MASK).count_ones() as usize;
            it.stack.push((addr, count, 0));
        } else {
            it.root_leaf = Some(root);
        }
        it
    }
}

impl Iterator for SnapshotIter<'_> {
    type Item = (u64, u64);

    fn next(&mut self) -> Option<(u64, u64)> {
        if let Some(leaf) = self.root_leaf.take() {
            let addr = addr_of(leaf);
            return Some((read_word(addr), read_word(addr + WORD_SIZE)));
        }
        loop {
            let (addr, count, idx) = self.stack.last_mut()?;
            if idx == count {
                self.stack.pop();
                continue;
            }
            let entry = read_word(*addr + (1 + *idx) * WORD_SIZE);
            *idx += 1;
            if is_interior(entry) {
                let child = addr_of(entry);
                let ccount = (read_word(child) & BITMAP_MASK).count_ones() as usize;
                self.stack.push((child, ccount, 0));
                continue;
            }
            let leaf = entry as usize;
            return Some((read_word(leaf), read_word(leaf + WORD_SIZE)));
        }
    }
}

impl<P: Policy> ConcurrentMap<P> for Hamt<P> {
    const NAME: &'static str = "hamt";

    fn with_capacity(db: &FlitDb<P>, capacity_hint: usize) -> Self {
        Self::new(db, capacity_hint)
    }

    fn with_capacity_cfg(db: &FlitDb<P>, capacity_hint: usize, config: ArenaConfig) -> Self {
        Self::with_config(db, capacity_hint, config)
    }

    fn get(&self, h: &FlitHandle<'_, P>, key: u64) -> Option<u64> {
        Hamt::get(self, h, key)
    }

    fn insert(&self, h: &FlitHandle<'_, P>, key: u64, value: u64) -> bool {
        Hamt::insert(self, h, key, value)
    }

    fn remove(&self, h: &FlitHandle<'_, P>, key: u64) -> bool {
        Hamt::remove(self, h, key)
    }

    fn len(&self) -> usize {
        Hamt::len(self)
    }

    fn db(&self) -> &FlitDb<P> {
        &self.db
    }

    /// Served from a real [`Snapshot`]: take one, walk the frozen trie, keep
    /// the matching pairs, release the retained root on return.
    fn snapshot_scan(
        &self,
        h: &FlitHandle<'_, P>,
        prefix: u64,
        mask: u64,
    ) -> Option<Vec<(u64, u64)>> {
        let snap = self.snapshot(h);
        let mut pairs: Vec<(u64, u64)> = snap
            .iter()
            .filter(|(k, _)| k & mask == prefix & mask)
            .collect();
        pairs.sort_unstable();
        Some(pairs)
    }
}

impl<P: Policy> RecoverInImage for Hamt<P> {
    const ROOT_KEY: u64 = roots::HAMT_ROOT;

    /// [`roots::HAMT_ROOT`] cell → persisted root word (at the policy's
    /// layout offset inside the cell) → node walk, every word read from the
    /// image.
    fn recover_arena_image(arena: &Arena, image: &CrashImage) -> RecoveredMap {
        let mut rec = RecoveredMap::default();
        let mut walk = ImageWalk::new(arena, image);
        if let Some(cell) = walk.root(Self::ROOT_KEY) {
            rec.truncated = walk
                .read(cell + Self::root_word_offset())
                .and_then(|root| walk_enc(&mut walk, root, 0, &mut rec.pairs))
                .is_err();
        }
        rec
    }
}

/// The crash-sweep **broken control**: a [`Hamt`] whose root accesses are all
/// [`PFlag::Volatile`]. Every node of every path is still persisted, but the
/// root word never becomes durable, so the structure always recovers to its
/// construction-time (empty) state and the sweep must flag every acknowledged
/// update as lost.
pub struct BrokenHamt<P: Policy>(Hamt<P>);

impl<P: Policy> BrokenHamt<P> {
    /// The underlying (sabotaged) trie.
    pub fn inner(&self) -> &Hamt<P> {
        &self.0
    }
}

impl<P: Policy> ConcurrentMap<P> for BrokenHamt<P> {
    const NAME: &'static str = "hamt-noflush";

    fn with_capacity(db: &FlitDb<P>, capacity_hint: usize) -> Self {
        Self::with_capacity_cfg(db, capacity_hint, db.arena_defaults())
    }

    fn with_capacity_cfg(db: &FlitDb<P>, capacity_hint: usize, config: ArenaConfig) -> Self {
        BrokenHamt(Hamt::build(db, capacity_hint, config, PFlag::Volatile))
    }

    fn get(&self, h: &FlitHandle<'_, P>, key: u64) -> Option<u64> {
        self.0.get(h, key)
    }

    fn insert(&self, h: &FlitHandle<'_, P>, key: u64, value: u64) -> bool {
        self.0.insert(h, key, value)
    }

    fn remove(&self, h: &FlitHandle<'_, P>, key: u64) -> bool {
        self.0.remove(h, key)
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn db(&self) -> &FlitDb<P> {
        &self.0.db
    }
}

impl<P: Policy> RecoverInImage for BrokenHamt<P> {
    const ROOT_KEY: u64 = roots::HAMT_ROOT;

    fn recover_arena_image(arena: &Arena, image: &CrashImage) -> RecoveredMap {
        Hamt::<P>::recover_arena_image(arena, image)
    }
}

/// Extension constructor on [`FlitDb`]: `db.hamt(capacity)`. (A trait rather
/// than an inherent method because `flit` cannot depend on this crate.)
pub trait HamtExt<P: Policy> {
    /// Create a [`Hamt`] in this database sized for roughly `capacity_hint`
    /// keys.
    fn hamt(&self, capacity_hint: usize) -> Hamt<P>;
}

impl<P: Policy> HamtExt<P> for FlitDb<P> {
    fn hamt(&self, capacity_hint: usize) -> Hamt<P> {
        Hamt::new(self, capacity_hint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flit::{FlitPolicy, HashedScheme};
    use flit_pmem::{LatencyModel, SimNvram};

    type P = FlitPolicy<HashedScheme, SimNvram>;

    fn backend() -> SimNvram {
        SimNvram::builder().latency(LatencyModel::none()).build()
    }

    fn db() -> FlitDb<P> {
        FlitDb::flit_ht(backend())
    }

    #[test]
    fn mix_is_bijective_on_a_sample() {
        let mut seen = std::collections::HashSet::new();
        for k in 0..10_000u64 {
            assert!(seen.insert(mix_key(k)));
        }
    }

    #[test]
    fn basic_map_semantics() {
        let db = db();
        let h = db.handle();
        let t = db.hamt(256);
        assert!(t.is_empty());
        assert!(t.insert(&h, 1, 10));
        assert!(t.insert(&h, 2, 20));
        assert!(!t.insert(&h, 1, 99), "inserts never overwrite");
        assert_eq!(t.get(&h, 1), Some(10));
        assert_eq!(t.get(&h, 3), None);
        assert!(t.remove(&h, 1));
        assert!(!t.remove(&h, 1));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn many_keys_and_contraction() {
        let db = db();
        let h = db.handle();
        let t = db.hamt(128);
        for k in 0..2000u64 {
            assert!(t.insert(&h, k, 3 * k + 1));
        }
        assert_eq!(t.len(), 2000);
        for k in 0..2000u64 {
            assert_eq!(t.get(&h, k), Some(3 * k + 1));
        }
        // Remove everything: contraction must keep lookups correct all the
        // way down to the empty trie.
        for k in 0..2000u64 {
            assert!(t.remove(&h, k));
            assert_eq!(t.get(&h, k), None);
        }
        assert!(t.is_empty());
        assert_eq!(t.root().load_direct(), 0);
    }

    #[test]
    fn durable_state_recovers_from_the_image() {
        let sim = SimNvram::for_crash_testing();
        let db = FlitDb::flit_ht(sim.clone());
        let h = db.handle();
        let t = db.hamt(64);
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
        let rec2 = Hamt::<P>::recover_arena_image(t.arena(), &image);
        assert_eq!(rec2.sorted_pairs(), expected);
    }

    #[test]
    fn broken_control_recovers_to_empty() {
        let sim = SimNvram::for_crash_testing();
        let db = FlitDb::flit_ht(sim.clone());
        let h = db.handle();
        let t: BrokenHamt<P> = BrokenHamt::with_capacity(&db, 64);
        for k in 0..20u64 {
            assert!(t.insert(&h, k, k));
        }
        let image = sim.tracker().unwrap().crash_image();
        let rec = t.inner().recover(&image);
        assert!(rec.pairs.is_empty(), "unflushed root must not recover");
        assert!(!rec.truncated);
    }

    #[test]
    fn snapshots_freeze_contents_and_iterate_stably() {
        let db = db();
        let h = db.handle();
        let t = db.hamt(64);
        for k in 0..50u64 {
            t.insert(&h, k, k * 2);
        }
        let snap = t.snapshot(&h);
        // Mutate after the snapshot: the frozen view must not move.
        for k in 50..80u64 {
            t.insert(&h, k, k * 2);
        }
        for k in (0..50u64).step_by(5) {
            t.remove(&h, k);
        }
        let first: Vec<(u64, u64)> = snap.iter().collect();
        let second: Vec<(u64, u64)> = snap.iter().collect();
        assert_eq!(first, second, "iteration order is stable within a snapshot");
        let mut sorted = first.clone();
        sorted.sort_unstable();
        let expected: Vec<(u64, u64)> = (0..50u64).map(|k| (k, k * 2)).collect();
        assert_eq!(sorted, expected);
        assert_eq!(snap.get(5), Some(10), "frozen read ignores later remove");
        let in_range: Vec<(u64, u64)> = {
            let mut v: Vec<_> = snap.range(10..20).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(
            in_range,
            (10..20u64).map(|k| (k, k * 2)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn snapshot_slots_recycle_after_release() {
        let db = db();
        let h = db.handle();
        let t = db.hamt(16);
        t.insert(&h, 1, 1);
        for _ in 0..3 * RETAINED_CAPACITY {
            let s = t.snapshot(&h);
            assert_eq!(s.get(1), Some(1));
        }
        assert!(t.retained_roots().is_empty());
    }

    #[test]
    fn retained_snapshots_survive_in_the_image() {
        let sim = SimNvram::for_crash_testing();
        let db = FlitDb::flit_ht(sim.clone());
        let h = db.handle();
        let t = db.hamt(64);
        for k in 0..30u64 {
            t.insert(&h, k, k + 1);
        }
        let snap = t.snapshot(&h);
        let frozen: Vec<(u64, u64)> = {
            let mut v: Vec<_> = snap.iter().collect();
            v.sort_unstable();
            v
        };
        // Keep mutating past the snapshot; the retained entry must replay to
        // exactly the frozen contents.
        for k in 30..60u64 {
            t.insert(&h, k, k + 1);
        }
        for k in 0..10u64 {
            t.remove(&h, k);
        }
        let image = sim.tracker().unwrap().crash_image();
        let retained = Hamt::<P>::recover_snapshots_in_image(t.arena(), &image);
        assert_eq!(retained.len(), 1);
        assert_eq!(retained[0].slot, snap.slot());
        assert_eq!(retained[0].version, snap.version());
        assert!(!retained[0].rec.truncated);
        assert_eq!(retained[0].rec.sorted_pairs(), frozen);
        // A released snapshot disappears from later images.
        drop(snap);
        let h2 = db.handle();
        t.insert(&h2, 1000, 1);
        drop(h2);
        let image2 = sim.tracker().unwrap().crash_image();
        assert!(Hamt::<P>::recover_snapshots_in_image(t.arena(), &image2).is_empty());
    }

    #[test]
    fn concurrent_mixed_workload() {
        let db = db();
        let t = Arc::new(db.hamt(512));
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                let t = Arc::clone(&t);
                let db = &db;
                s.spawn(move || {
                    let h = db.handle();
                    let base = tid * 1000;
                    for k in base..base + 300 {
                        assert!(t.insert(&h, k, k));
                    }
                    for k in base..base + 300 {
                        assert_eq!(t.get(&h, k), Some(k));
                    }
                    for k in (base..base + 300).step_by(2) {
                        assert!(t.remove(&h, k));
                    }
                });
            }
        });
        assert_eq!(t.len(), 4 * 150);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum MapOp {
            Insert(u64, u64),
            Remove(u64),
            Get(u64),
        }

        fn op_strategy() -> impl Strategy<Value = MapOp> {
            // A small key universe provokes collisions on low nibbles, splits
            // and contractions.
            prop_oneof![
                (0u64..32, 0u64..1000).prop_map(|(k, v)| MapOp::Insert(k, v)),
                (0u64..32).prop_map(MapOp::Remove),
                (0u64..32).prop_map(MapOp::Get),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn hamt_matches_std_hashmap(ops in proptest::collection::vec(op_strategy(), 1..120)) {
                let db = db();
                let h = db.handle();
                let t = db.hamt(32);
                let mut model = std::collections::HashMap::new();
                for op in ops {
                    match op {
                        MapOp::Insert(k, v) => {
                            let inserted = t.insert(&h, k, v);
                            let expected = !model.contains_key(&k);
                            if expected {
                                model.insert(k, v);
                            }
                            prop_assert_eq!(inserted, expected);
                        }
                        MapOp::Remove(k) => {
                            prop_assert_eq!(t.remove(&h, k), model.remove(&k).is_some());
                        }
                        MapOp::Get(k) => {
                            prop_assert_eq!(t.get(&h, k), model.get(&k).copied());
                        }
                    }
                }
                prop_assert_eq!(t.len(), model.len());
                // A snapshot's iteration agrees with the model and is stable.
                let snap = t.snapshot(&h);
                let mut pairs: Vec<(u64, u64)> = snap.iter().collect();
                let again: Vec<(u64, u64)> = snap.iter().collect();
                prop_assert_eq!(&pairs, &again);
                pairs.sort_unstable();
                let mut expected: Vec<(u64, u64)> = model.into_iter().collect();
                expected.sort_unstable();
                prop_assert_eq!(pairs, expected);
            }
        }
    }
}

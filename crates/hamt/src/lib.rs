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
//! * **interior node** — `[child₀, …, childₙ₋₁]`: children packed by
//!   popcount rank over the 16 nibble values (bitmap compression), so a node
//!   is `8·popcount` bytes to write and flush — a full node is two cache
//!   lines. The node holds no header: its occupancy bitmap travels in the
//!   entry that points at it.
//! * **bucket** — `[key₀, value₀, …, keyₙ₋₁, valueₙ₋₁]`: 1 to
//!   [`BUCKET_PAIRS`] (8) pairs in one slot, in trie order of their mixed
//!   hashes, so a snapshot iterates in trie order. The pairs of a bucket at
//!   depth `d` share their first `d` nibbles. An insert copies the bucket
//!   with its pair; a 9th pair splits it into an interior node over fresh
//!   buckets, one level at a time until the pairs diverge. A remove copies it
//!   without the pair. A bottom subtree of up to eight keys is thus one slot,
//!   not a slot per key.
//! * **entry encoding** — the word that names a node (a parent's child slot,
//!   the root word, a retained-root entry): `0` = absent; bit 0 set = an
//!   interior node at bits 3–46, with its 16-bit bitmap in bits 47–62;
//!   otherwise a bucket at bits 3–46, with its pair count in bits 47–50.
//!   Bit 63 stays clear for link-and-persist's dirty flag. Node addresses
//!   must fit in 47 bits, which holds for x86-64 Linux user space and is
//!   asserted at allocation. A lookup therefore reads one word per level
//!   (the bitmap and the child's rank come with the entry) and then scans one
//!   bucket, whose length comes with its entry too.
//!
//! Keys are mixed through a **bijective** finaliser ([`mix_key`], the
//! splitmix64 finaliser), so distinct `u64` keys have distinct 64-bit hashes:
//! with 4-bit branching any nine keys diverge within [`MAX_DEPTH`] levels,
//! so a bucket never needs to hold more than eight pairs.
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
//! *supposed* to persist. A trie dropped with its backlog still parked (a
//! snapshot was leaked) flags its arena, so the database's close leaves the
//! pool to post-crash GC instead of marking it clean.
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
/// bijective, two distinct keys always diverge at some level above this, so a
/// full bucket always splits.
pub const MAX_DEPTH: usize = (u64::BITS / NIBBLE_BITS) as usize;
/// Capacity of the retained-root (snapshot) table.
pub const RETAINED_CAPACITY: usize = 64;
/// Words per retained-root entry: `[root, refcount, version]`.
pub const RETAINED_ENTRY_WORDS: usize = 3;
const RETAINED_BYTES: usize = RETAINED_CAPACITY * RETAINED_ENTRY_WORDS * WORD_SIZE;
/// Pairs per bucket: a node slot of `(key, value)` pairs.
pub const BUCKET_PAIRS: usize = HAMT_NODE_SLOT_BYTES / PAIR_BYTES;
const PAIR_BYTES: usize = 2 * WORD_SIZE;
const INTERIOR_TAG: u64 = 0b1;
/// An interior entry's bitmap, or a bucket entry's pair count, sits from bit
/// 47 up, above every node address.
const BITMAP_SHIFT: u32 = 47;
const ADDR_MASK: u64 = (1 << BITMAP_SHIFT) - 1;

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

/// The entry of the interior node at `node` whose children `bitmap` names.
#[inline]
fn encode(node: *mut u64, bitmap: u64) -> u64 {
    node as u64 | bitmap << BITMAP_SHIFT | INTERIOR_TAG
}

/// `(node address, occupancy bitmap)` of an interior entry, `(node address,
/// pair count)` of a bucket entry.
#[inline]
fn decode(enc: u64) -> (usize, u64) {
    (
        (enc & ADDR_MASK & !INTERIOR_TAG) as usize,
        (enc >> BITMAP_SHIFT) & BITMAP_MASK,
    )
}

/// The child of the node at `addr` (occupancy `bitmap`) under nibble `nib`:
/// children are packed by popcount rank.
#[inline]
fn child(addr: usize, bitmap: u64, nib: usize) -> u64 {
    read_word(addr + rank(bitmap, nib) * WORD_SIZE)
}

/// `BYTE_ONES[b]` is the number of set bits of byte `b`.
const BYTE_ONES: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = (b as u32).count_ones() as u8;
        b += 1;
    }
    table
};

/// The number of bits of the 16-bit `bitmap` below nibble `nib`: two byte
/// lookups. `count_ones` lowers to an 18-instruction SWAR sequence on the
/// baseline x86-64 target, once per trie level of every lookup.
#[inline]
fn rank(bitmap: u64, nib: usize) -> usize {
    let below = (bitmap & ((1u64 << nib) - 1)) as usize;
    (BYTE_ONES[below & 0xFF] + BYTE_ONES[(below >> 8) & 0xFF]) as usize
}

#[inline]
fn read_word(addr: usize) -> u64 {
    // SAFETY: callers pass word-aligned addresses inside published (immutable)
    // nodes of an arena kept alive by the owning `Hamt`/`Snapshot`.
    unsafe { *(addr as *const u64) }
}

/// Pair `i` of the bucket at `addr`.
#[inline]
fn read_pair(addr: usize, i: usize) -> (u64, u64) {
    let p = addr + i * PAIR_BYTES;
    (read_word(p), read_word(p + WORD_SIZE))
}

/// Whether hash `a` comes before the distinct hash `b` in trie order: lower
/// nibble at the first level where they differ.
#[inline]
fn trie_before(a: u64, b: u64) -> bool {
    let shift = (a ^ b).trailing_zeros() & !(NIBBLE_BITS - 1);
    (a >> shift & 0xF) < (b >> shift & 0xF)
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

/// Node addresses of one copied path: at most [`MAX_DEPTH`] interior nodes
/// plus the buckets a 9th pair splits into, so the buffer lives on the stack.
#[derive(Default)]
struct NodeBuf {
    len: usize,
    addrs: [usize; MAX_DEPTH + BUCKET_PAIRS + 1],
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
            let (addr, bitmap) = decode(enc);
            if !is_interior(enc) {
                return (0..bitmap as usize)
                    .map(|i| read_pair(addr, i))
                    .find_map(|(k, v)| (k == key).then_some(v));
            }
            let nib = nibble(hash, depth);
            if bitmap & (1 << nib) == 0 {
                return None;
            }
            enc = child(addr, bitmap, nib);
            depth += 1;
        }
        None
    }

    fn alloc_node<B: PmemBackend>(&self, pm: &B, fresh: &mut NodeBuf) -> *mut u64 {
        let node = self.arena.alloc(pm) as *mut u64;
        assert!(
            node as u64 & !ADDR_MASK == 0,
            "HAMT node {node:p} lies above the 47-bit address space its entries encode"
        );
        fresh.push(node as usize);
        node
    }

    /// Copy the node at `addr` (occupancy `bitmap`) into a fresh node holding
    /// the children `new_bitmap` names, with the child under `nib` replaced
    /// by `new_child`; `pwb` the copy (no fence) and return its entry.
    #[allow(clippy::too_many_arguments)]
    fn copy_node<B: PmemBackend>(
        &self,
        pm: &B,
        addr: usize,
        bitmap: u64,
        new_bitmap: u64,
        nib: usize,
        new_child: u64,
        fresh: &mut NodeBuf,
    ) -> u64 {
        let node = self.alloc_node(pm, fresh);
        let mut w = 0;
        for i in (0..FANOUT).filter(|i| new_bitmap & (1 << i) != 0) {
            let v = if i == nib {
                new_child
            } else {
                child(addr, bitmap, i)
            };
            write_word(pm, node, w, v);
            w += 1;
        }
        pwb_range(pm, node as usize, w * WORD_SIZE);
        encode(node, new_bitmap)
    }

    /// Lay `pairs` (distinct keys in trie order, sharing their first `depth`
    /// nibbles) out at `depth`: one bucket when they fit, otherwise an
    /// interior node over one subtree per nibble value. Every node is written
    /// and `pwb`-ed (no fence); returns the subtree's entry.
    fn subtree<B: PmemBackend>(
        &self,
        pm: &B,
        pairs: &[(u64, u64)],
        depth: usize,
        fresh: &mut NodeBuf,
    ) -> u64 {
        let node = self.alloc_node(pm, fresh);
        if pairs.len() <= BUCKET_PAIRS {
            for (i, &(k, v)) in pairs.iter().enumerate() {
                write_word(pm, node, 2 * i, k);
                write_word(pm, node, 2 * i + 1, v);
            }
            pwb_range(pm, node as usize, pairs.len() * PAIR_BYTES);
            // A bucket's entry is untagged, its pair count above the address.
            return node as u64 | (pairs.len() as u64) << BITMAP_SHIFT;
        }
        debug_assert!(depth < MAX_DEPTH, "distinct hashes diverge in 16 nibbles");
        // Trie order groups the pairs by their nibble at `depth`.
        let (mut rest, mut bitmap, mut w) = (pairs, 0, 0);
        while let Some(&(k, _)) = rest.first() {
            let nib = nibble(mix_key(k), depth);
            let run = rest.partition_point(|&(k, _)| nibble(mix_key(k), depth) == nib);
            let child = self.subtree(pm, &rest[..run], depth + 1, fresh);
            write_word(pm, node, w, child);
            bitmap |= 1 << nib;
            w += 1;
            rest = &rest[run..];
        }
        pwb_range(pm, node as usize, w * WORD_SIZE);
        encode(node, bitmap)
    }

    /// The pairs of the bucket at `addr`, with room for one more, and their
    /// `count`.
    fn bucket_pairs(addr: usize, count: u64) -> ([(u64, u64); BUCKET_PAIRS + 1], usize) {
        let mut pairs = [(0, 0); BUCKET_PAIRS + 1];
        for (i, pair) in pairs[..count as usize].iter_mut().enumerate() {
            *pair = read_pair(addr, i);
        }
        (pairs, count as usize)
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
            return Some(self.subtree(pm, &[(key, value)], depth, &mut path.fresh));
        }
        let (addr, bitmap) = decode(enc);
        if !is_interior(enc) {
            // Copy the bucket with the pair in trie order; a 9th pair splits it.
            let (mut pairs, n) = Self::bucket_pairs(addr, bitmap);
            if pairs[..n].iter().any(|&(k, _)| k == key) {
                return None;
            }
            let at = pairs[..n].partition_point(|&(k, _)| trie_before(mix_key(k), hash));
            pairs.copy_within(at..n, at + 1);
            pairs[at] = (key, value);
            path.stale.push(addr);
            return Some(self.subtree(pm, &pairs[..=n], depth, &mut path.fresh));
        }
        let nib = nibble(hash, depth);
        let bit = 1u64 << nib;
        let old = if bitmap & bit != 0 {
            child(addr, bitmap, nib)
        } else {
            0
        };
        let new_child = self.cow_insert(pm, old, hash, key, value, depth + 1, path)?;
        path.stale.push(addr);
        let fresh = &mut path.fresh;
        Some(self.copy_node(pm, addr, bitmap, bitmap | bit, nib, new_child, fresh))
    }

    /// Build the copy-on-write path for removing `key` under `enc`. Returns
    /// the new entry encoding (`0` when the subtree vanishes), or `None` when
    /// the key is absent. An interior left with one child that is a bucket
    /// contracts to that bucket.
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
        let (addr, bitmap) = decode(enc);
        if !is_interior(enc) {
            let (mut pairs, n) = Self::bucket_pairs(addr, bitmap);
            let at = pairs[..n].iter().position(|&(k, _)| k == key)?;
            path.stale.push(addr);
            if n == 1 {
                return Some(0);
            }
            pairs.copy_within(at + 1..n, at);
            return Some(self.subtree(pm, &pairs[..n - 1], depth, &mut path.fresh));
        }
        let nib = nibble(hash, depth);
        let bit = 1u64 << nib;
        if bitmap & bit == 0 {
            return None;
        }
        let new_child =
            self.cow_remove(pm, child(addr, bitmap, nib), hash, key, depth + 1, path)?;
        path.stale.push(addr);
        let new_bitmap = if new_child == 0 {
            bitmap & !bit
        } else {
            bitmap
        };
        if new_bitmap == 0 {
            return Some(0);
        }
        if new_bitmap.count_ones() == 1 {
            // Contract: hoist a sole remaining bucket (interiors cannot hoist
            // — their children are indexed by depth).
            let only = match new_child {
                0 => child(addr, bitmap, new_bitmap.trailing_zeros() as usize),
                c => c,
            };
            if !is_interior(only) {
                return Some(only);
            }
        }
        let fresh = &mut path.fresh;
        Some(self.copy_node(pm, addr, bitmap, new_bitmap, nib, new_child, fresh))
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
        guard: &Guard<'_>,
        build: impl Fn(&PmemSession<'_, P::Backend>, u64, &mut Path) -> Option<u64>,
    ) -> bool {
        let pm = h.pmem();
        loop {
            let root = self.root().load(h, self.root_flag);
            let mut path = Path::default();
            let Some(new_root) = build(&pm, root, &mut path) else {
                break false;
            };
            let cas = self
                .root()
                .compare_exchange(h, root, new_root, self.root_flag);
            if cas.is_ok() {
                self.retire(guard, path.stale.as_slice());
                break true;
            }
            for &n in path.fresh.as_slice() {
                // SAFETY: the CAS lost, so these freshly built nodes were
                // never published; no other thread can hold a reference.
                unsafe { self.arena.recycle(n as *mut u8) };
            }
        }
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

impl<P: Policy> Drop for Hamt<P> {
    /// A backlog left behind (an unreleased, leaked snapshot) holds slots that
    /// are neither reachable nor recycled: only post-crash GC can find them,
    /// so the arena is flagged and the database's close leaves the pool dirty.
    fn drop(&mut self) {
        if !self.snaps.get_mut().backlog.is_empty() {
            self.arena.flag_unaccounted();
        }
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
    let (addr, bitmap) = decode(enc);
    let addr = walk.visit(addr)?;
    if !is_interior(enc) {
        // Only hostile bytes name an empty bucket or one past its slot.
        if !(1..=BUCKET_PAIRS as u64).contains(&bitmap) {
            return Err(Truncated);
        }
        for p in (0..bitmap as usize).map(|i| addr + i * PAIR_BYTES) {
            pairs.push((walk.read(p)?, walk.read(p + WORD_SIZE)?));
        }
        return Ok(());
    }
    // At most 16 words: a hostile bitmap cannot read past a node's slot.
    for i in 0..bitmap.count_ones() as usize {
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
    /// `(entry, next index)` per open node: an interior node's next child or
    /// a bucket's next pair.
    stack: Vec<(u64, usize)>,
    _snapshot: std::marker::PhantomData<&'s ()>,
}

impl SnapshotIter<'_> {
    fn new(root: u64) -> Self {
        SnapshotIter {
            stack: if root == 0 {
                Vec::new()
            } else {
                vec![(root, 0)]
            },
            _snapshot: std::marker::PhantomData,
        }
    }
}

impl Iterator for SnapshotIter<'_> {
    type Item = (u64, u64);

    fn next(&mut self) -> Option<(u64, u64)> {
        loop {
            let (enc, idx) = self.stack.last_mut()?;
            let (addr, field) = decode(*enc);
            let interior = is_interior(*enc);
            let len = if interior {
                field.count_ones() as usize
            } else {
                field as usize
            };
            if *idx == len {
                self.stack.pop();
                continue;
            }
            let i = *idx;
            *idx += 1;
            if !interior {
                return Some(read_pair(addr, i));
            }
            self.stack.push((read_word(addr + i * WORD_SIZE), 0));
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

    /// Read `key`'s value. The root is a p-load: it flushes only while a
    /// publish is in flight, so a lookup under a settled root issues no
    /// persistence instruction at all.
    fn get_op(&self, h: &FlitHandle<'_, P>, key: u64, _guard: &Guard<'_>) -> Option<u64> {
        let root = self.root().load(h, self.root_flag);
        Self::lookup(root, mix_key(key), key)
    }

    /// Insert `(key, value)`; returns `false` (and stores nothing) when the
    /// key is already present.
    fn insert_op(&self, h: &FlitHandle<'_, P>, key: u64, value: u64, guard: &Guard<'_>) -> bool {
        let hash = mix_key(key);
        let inserted = self.update(h, guard, |pm, root, path| {
            self.cow_insert(pm, root, hash, key, value, 0, path)
        });
        if inserted {
            self.len.fetch_add(1, Ordering::Relaxed);
        }
        inserted
    }

    /// Remove `key`; returns `false` when it was absent.
    fn remove_op(&self, h: &FlitHandle<'_, P>, key: u64, guard: &Guard<'_>) -> bool {
        let hash = mix_key(key);
        let removed = self.update(h, guard, |pm, root, path| {
            self.cow_remove(pm, root, hash, key, 0, path)
        });
        if removed {
            self.len.fetch_sub(1, Ordering::Relaxed);
        }
        removed
    }

    /// Quiescent size (volatile counter, like the other structures).
    fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
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

    fn get_op(&self, h: &FlitHandle<'_, P>, key: u64, guard: &Guard<'_>) -> Option<u64> {
        self.0.get_op(h, key, guard)
    }

    fn insert_op(&self, h: &FlitHandle<'_, P>, key: u64, value: u64, guard: &Guard<'_>) -> bool {
        self.0.insert_op(h, key, value, guard)
    }

    fn remove_op(&self, h: &FlitHandle<'_, P>, key: u64, guard: &Guard<'_>) -> bool {
        self.0.remove_op(h, key, guard)
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
        assert!(
            first
                .windows(2)
                .all(|w| trie_before(mix_key(w[0].0), mix_key(w[1].0))),
            "buckets keep their pairs in trie order"
        );
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
    fn rank_agrees_with_count_ones_on_every_bitmap_and_nibble() {
        for bitmap in 0..=0xFFFFu64 {
            for nib in 0..16 {
                let expected = (bitmap & ((1u64 << nib) - 1)).count_ones() as usize;
                assert_eq!(rank(bitmap, nib), expected, "{bitmap:#06x} nib {nib}");
            }
        }
    }

    #[test]
    fn entries_round_trip_at_the_extremes() {
        let top = ((1u64 << BITMAP_SHIFT) - 128) as *mut u64;
        let enc = encode(top, BITMAP_MASK);
        assert!(is_interior(enc));
        assert_eq!(decode(enc), (top as usize, BITMAP_MASK));
        assert_eq!(enc >> 63, 0, "bit 63 is link-and-persist's");
        let low = encode(0x1000 as *mut u64, 1);
        assert_eq!(decode(low), (0x1000, 1));
        // A bucket is its untagged address under its pair count.
        let bucket = top as u64 | (BUCKET_PAIRS as u64) << BITMAP_SHIFT;
        assert!(!is_interior(bucket));
        assert_eq!(decode(bucket), (top as usize, BUCKET_PAIRS as u64));
    }

    /// Keys whose mixed hashes start with `nibbles`, one per nibble value.
    fn keys_with_prefix(nibbles: &[usize], count: usize) -> Vec<u64> {
        let depth = nibbles.len();
        let mut seen = [false; FANOUT];
        (0u64..)
            .filter(|&k| {
                let h = mix_key(k);
                (0..depth).all(|d| nibble(h, d) == nibbles[d])
                    && !std::mem::replace(&mut seen[nibble(h, depth)], true)
            })
            .take(count)
            .collect()
    }

    #[test]
    fn a_full_top_bitmap_leaves_bit_63_to_link_and_persist() {
        let db = FlitDb::create(flit::presets::link_and_persist(backend()));
        let h = db.handle();
        let t = db.hamt(64);
        let keys = keys_with_prefix(&[], FANOUT);
        for &k in &keys {
            assert!(t.insert(&h, k, k + 1));
        }
        let root = t.root().load_direct();
        assert_eq!(decode(root).1, BITMAP_MASK, "a full 16-child root");
        assert_ne!(root & 1 << 62, 0, "nibble 15's bit is the entry's bit 62");
        assert_eq!(root & 1 << 63, 0);
        for &k in &keys {
            assert_eq!(t.get(&h, k), Some(k + 1));
        }
    }

    #[test]
    fn a_hostile_full_bitmap_stays_inside_the_slot_and_truncates() {
        let sim = SimNvram::for_crash_testing();
        let db = FlitDb::flit_ht(sim.clone());
        let h = db.handle();
        let (buckets, t) = (db.hamt(64), db.hamt(64));
        // Two keys make a root bucket whose other 6 pairs were never written.
        for k in keys_with_prefix(&[], 2) {
            assert!(buckets.insert(&h, k, k));
        }
        // Nine keys split the root: a fresh nine-child node whose other 7
        // words were never written.
        for k in keys_with_prefix(&[], BUCKET_PAIRS + 1) {
            assert!(t.insert(&h, k, k));
        }
        let (bucket, count) = decode(buckets.root().load_direct());
        assert_eq!(count, 2);
        let (node, bitmap) = decode(t.root().load_direct());
        assert_eq!(bitmap.count_ones(), 9);
        assert_eq!(FANOUT * WORD_SIZE, HAMT_NODE_SLOT_BYTES);
        let image = sim.tracker().unwrap().crash_image();
        let walk = |arena, forged| {
            let mut walk = ImageWalk::new(arena, &image);
            let mut pairs = Vec::new();
            (walk_enc(&mut walk, forged, 0, &mut pairs), pairs.len())
        };
        let full = encode(node as *mut u64, BITMAP_MASK);
        // The walk stops at the first unwritten word…
        assert_eq!(walk(t.arena(), full), (Err(Truncated), 9));
        let full = bucket as u64 | (BUCKET_PAIRS as u64) << BITMAP_SHIFT;
        assert_eq!(walk(buckets.arena(), full), (Err(Truncated), 2));
        // …and reads no pair of a bucket that would run past its slot.
        for count in BUCKET_PAIRS as u64 + 1..=15 {
            let forged = bucket as u64 | count << BITMAP_SHIFT;
            assert_eq!(walk(buckets.arena(), forged), (Err(Truncated), 0));
        }
    }

    /// One successful insert pays ⌈c·16/64⌉ `pwb`s per written c-pair bucket,
    /// ⌈8·c/64⌉ per written c-child interior node and one for the root word;
    /// two fences.
    #[test]
    fn a_successful_insert_pays_one_pwb_per_copied_line() {
        let db = db();
        let h = db.handle();
        let cost = |t: &Hamt<P>, k: u64| {
            let before = db.stats_snapshot().unwrap();
            assert!(t.insert(&h, k, k));
            let d = db.stats_snapshot().unwrap().delta_since(&before);
            (d.pwbs, d.pfences)
        };
        // A 7-pair root bucket gains an 8th pair: bucket copy ⌈128/64⌉ = 2 +
        // root word 1.
        let keys = keys_with_prefix(&[], FANOUT);
        let t = db.hamt(64);
        for &k in &keys[..7] {
            assert!(t.insert(&h, k, k));
        }
        assert_eq!(cost(&t, keys[7]), (3, 2));
        // A 9th pair with a fresh top nibble splits the root: nine one-pair
        // buckets 9 + a nine-child root ⌈72/64⌉ = 2 + root word 1.
        assert_eq!(cost(&t, keys[8]), (12, 2));
        // A full 16-child root of one-pair buckets, and a key sharing nibble 0
        // with one of them: two-pair bucket ⌈32/64⌉ = 1 + root copy
        // ⌈128/64⌉ = 2 + root word 1.
        for &k in &keys[9..] {
            assert!(t.insert(&h, k, k));
        }
        let sibling = mix_key(keys[3]);
        let near = keys_with_prefix(&[nibble(sibling, 0)], FANOUT)
            .into_iter()
            .find(|&k| k != keys[3])
            .unwrap();
        assert_eq!(cost(&t, near), (4, 2));
        assert_eq!(t.get(&h, near), Some(near));
        assert_eq!(t.get(&h, keys[3]), Some(keys[3]));
        // Nine keys sharing nibbles 0 and 1 split a root bucket two levels
        // down: nine buckets 9 + the nine-child node 2 + two one-child wraps
        // 2 + root word 1.
        let deep = keys_with_prefix(&[5, 9], BUCKET_PAIRS + 1);
        let t = db.hamt(64);
        for &k in &deep[..BUCKET_PAIRS] {
            assert!(t.insert(&h, k, k));
        }
        assert_eq!(cost(&t, deep[BUCKET_PAIRS]), (14, 2));
        assert!(deep.iter().all(|&k| t.get(&h, k) == Some(k)));
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

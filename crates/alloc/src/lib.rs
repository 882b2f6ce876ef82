//! # `flit-alloc` — persistent arena allocation with recovery roots
//!
//! FliT persists individual *words*; it deliberately says nothing about where those
//! words live. The seed reproduction allocated every data-structure node on the
//! volatile Rust heap, which left three structural holes (ROADMAP):
//!
//! * **Event-stream drift.** `Policy::persist_object` flushes every cache line an
//!   object touches, so its `pwb` count depends on whether the allocator happened
//!   to straddle a line. Absolute persistence-event indices therefore differed
//!   between two replays of the *same* history, and crash points had to be
//!   expressed as fragile construction-relative offsets.
//! * **Live-memory recovery.** Node keys and values were plain fields the tracker
//!   never saw, so crash recovery had to read them from live memory, walking from
//!   a pointer into the *live* structure — impossible after a real crash, and
//!   impossible to even simulate for a crash *during construction*.
//! * **Straddle flushes.** An unaligned node occupying two cache lines costs two
//!   `pwb`s where one would do (MOD — Haria et al., ASPLOS 2019 — identifies
//!   layout control as a first-order persistence-cost lever).
//!
//! This crate closes all three with the standard companion of a persistence
//! library (Memento builds on exactly such a layer): a **persistent arena** that
//! carves fixed-size, cache-line-aligned slots out of reserved
//! [`PmemRegion`] address ranges, plus a small named
//! **recovery-root table** through which structures publish where their durable
//! state begins.
//!
//! ## Arena layout
//!
//! ```text
//! header region (5 cache lines, reserved at construction)
//! ┌──────────┬───────────┬────────────┬───────────┬─────────────────────────────┐
//! │ magic    │ slot size │ high-water │ free head │ root table (16 × key,off+1) │
//! │ +0       │ +8        │ +16        │ +24       │ +64 .. +320                 │
//! └──────────┴───────────┴────────────┴───────────┴─────────────────────────────┘
//! chunk 0, chunk 1, ... (appended on demand, never moved)
//! ┌────────┬────────┬────────┬─── slot_size bytes each, 64-aligned
//! │ slot 0 │ slot 1 │ slot 2 │ ...
//! └────────┴────────┴────────┴───
//! ```
//!
//! Every header and root-table word is written **through the normal
//! store/`pwb`/`pfence` interface** of the owning structure's
//! [`PmemBackend`] — so the crashtest tracker sees every allocator event, the
//! event stream stays deterministic, and a frozen
//! [`CrashImage`] contains the allocator's own metadata
//! exactly as far as it had durably progressed.
//!
//! A slot is identified by its **offset** (a global slot index, stable under the
//! append-only chunk list); the root table stores offsets rather than addresses,
//! which is what a DAX-remapped recovery would need and what keeps the table's
//! *contents* machine-independent.
//!
//! ## Image-only recovery
//!
//! Because nodes live in arena slots and structures record every node word
//! (including keys and values) with the backend, recovery after a crash needs
//! exactly two things: the frozen `CrashImage` and this arena. The root table is
//! reachable from the arena header (offset 0 of the header region), each root
//! names the slot where a structure's durable state begins, and every word the
//! recovery walk reads comes out of the image — **no live-structure pointer and no
//! live-memory reads**. A structure whose root is absent from the image simply was
//! not durably constructed yet: recovery yields the empty structure, which is what
//! makes construction-window crash sweeps possible at all.
//!
//! The image has two sources and the walks cannot tell them apart. A simulated
//! crash hands them the tracker's sparse snapshot (only fenced words exist). A
//! reopened pool hands them a view of the mapping itself: every word of every
//! adopted arena's [`Arena::image_ranges`] reads in place, nothing is copied,
//! and a pointer that leaves those ranges reads as absent — the same
//! "truncated" a sweep would report — whatever bytes the file holds.
//!
//! Every walk runs through one [`ImageWalk`]: it resolves the root, checks that
//! each visited node lies inside the arena, turns a missing word into
//! [`Truncated`], and bounds the whole walk by one budget of `image.len() + 2`
//! visits, so a cyclic image ends in O(`image.len()`) instead of hanging. A
//! structure's walk is its layout logic plus `?`.
//!
//! ## Free lists and reuse
//!
//! Two free lists feed allocation before the bump pointer:
//!
//! * the **durable free list** — freed slots threaded through their first word,
//!   with the head in the persisted header. [`Arena::free`] links a slot here; it
//!   is used for nodes that were never published (failed CAS), where the freeing
//!   thread still holds the backend.
//! * the **volatile recycle list** — [`Arena::recycle`], used by epoch-based
//!   reclamation callbacks that run without backend context
//!   ([`Arena::defer_recycle_all`] retires several slots as one callback). It
//!   holds slot addresses, so reusing one takes no chunk lookup. An orderly close
//!   moves it onto the durable free list ([`Arena::persist_recycled`]); after a
//!   crash these slots are unreachable garbage below the high-water mark, which
//!   the root-walk GC pass ([`post_crash_gc`]) reclaims.
//!
//! ## Determinism contract
//!
//! Slots are cache-line aligned and slot sizes are multiples of the line size, so
//! the number of lines an object flush touches is a pure function of its type —
//! never of where the arena landed in the address space. Single-threaded replays
//! of one history therefore produce *identical absolute event streams* across
//! runs, processes and machines; `flit-crashtest` relies on this to express crash
//! points as stable absolute event indices and to make repro strings portable.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use flit_ebr::Guard;
use parking_lot::{Mutex, RwLock};

use flit_pmem::{
    CrashImage, OpenError, PmemBackend, PmemRegion, PoolArenaSlot, PoolFile, CACHE_LINE_SIZE,
    WORD_SIZE,
};

pub mod gc;
pub use gc::{post_crash_gc, ArenaGc, GcOutcome};
mod walk;
pub use walk::{ImageWalk, Truncated};

/// Arena header magic ("FLITARNA"): a persisted header whose first word does not
/// read back as this value is uninitialised or torn.
pub const ARENA_MAGIC: u64 = 0x464C_4954_4152_4E41;

/// Number of named recovery roots an arena can hold.
pub const ROOT_CAPACITY: usize = 16;

/// Byte offset of the root table inside the header region. Public so the
/// crash harness can locate (and deliberately corrupt) root entries in a pool
/// file without going through the arena.
pub const ROOT_TABLE_OFFSET: usize = CACHE_LINE_SIZE;

/// Bytes per root-table entry: a key word and an offset word.
pub const ROOT_ENTRY_BYTES: usize = 2 * WORD_SIZE;

/// Total header-region bytes: one line of header words + the root table.
pub const HEADER_BYTES: usize = ROOT_TABLE_OFFSET + ROOT_CAPACITY * ROOT_ENTRY_BYTES;

/// Byte offset of the magic word from the header-region base. The header word
/// offsets are public so the corruption-injection harness can clobber specific
/// persisted fields in a pool file and assert the typed error each produces.
pub const MAGIC_OFFSET: usize = 0;
/// Byte offset of the persisted slot-size word from the header-region base.
pub const SLOT_SIZE_OFFSET: usize = 8;
/// Byte offset of the persisted high-water word from the header-region base.
pub const HIGH_WATER_OFFSET: usize = 16;
/// Byte offset of the durable free-list head from the header-region base.
pub const FREE_HEAD_OFFSET: usize = 24;

/// Well-known root keys used by the workspace's data structures. Any `u64` except
/// `0` (the empty-entry sentinel) is a valid key; these constants only prevent
/// collisions between the structures that share an arena.
pub mod roots {
    /// Head sentinel of a standalone Harris list.
    pub const LIST_HEAD: u64 = 0x6C69_7374_5F68_6561; // "list_hea"
    /// Bucket directory block of a hash table.
    pub const HASH_DIRECTORY: u64 = 0x6874_5F64_6972_6563; // "ht_direc"
    /// Root sentinel of a Natarajan–Mittal BST.
    pub const BST_ROOT: u64 = 0x6273_745F_726F_6F74; // "bst_root"
    /// Head tower of a skiplist.
    pub const SKIPLIST_HEAD: u64 = 0x736B_6970_5F68_6564; // "skip_hed"
    /// Head/tail root-pointer slot of an MS queue.
    pub const QUEUE_ROOTS: u64 = 0x715F_726F_6F74_7321; // "q_roots!"
    /// Root cell of a copy-on-write HAMT (`flit-hamt`): one slot whose first
    /// word is the flushed-CAS publication point of the whole trie.
    pub const HAMT_ROOT: u64 = 0x6861_6D74_5F72_6F6F; // "hamt_roo"
    /// Retained-root (snapshot) table of a copy-on-write HAMT: a persisted
    /// block of `(root, refcount, version)` entries pinning frozen tries so
    /// snapshots survive crashes.
    pub const HAMT_RETAINED: u64 = 0x6861_6D74_5F72_6574; // "hamt_ret"
}

/// The chunk slot-count every arena uses unless a caller overrides it.
///
/// Historically this was a per-call-site constant (the queue's node arena, the
/// hash table's floor); [`ArenaConfig`] makes it a construction parameter so
/// multi-arena systems — one arena per shard of `flit-server`, say — can size
/// each arena to its *share* of the load instead of the full-load size.
pub const DEFAULT_SLOTS_PER_CHUNK: usize = 1024;

/// Construction-time sizing knobs for an [`Arena`]: the slot size and how many
/// slots each lazily-mapped chunk holds.
///
/// This is the single construction surface — `FlitDb::new_arena(cfg)` /
/// `new_arena_for::<T>(cfg)` take one of these instead of positional
/// arguments, and the defaults match the historical constants. Chunk size
/// changes *when* the lazy high-water write-backs happen (they are
/// chunk-boundary triggered), so two arenas with different configs produce
/// different — but individually still deterministic — persistence-event
/// streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaConfig {
    /// Bytes per slot, rounded up to whole cache lines at construction. Must be
    /// non-zero. Ignored by the typed constructors (`new_arena_for::<T>` /
    /// [`Arena::for_slots_of_config`]), which derive the slot size from `T`.
    pub slot_size: usize,
    /// Slots added per chunk when the arena grows. Must be non-zero.
    pub slots_per_chunk: usize,
}

impl Default for ArenaConfig {
    fn default() -> Self {
        Self {
            slot_size: CACHE_LINE_SIZE,
            slots_per_chunk: DEFAULT_SLOTS_PER_CHUNK,
        }
    }
}

impl ArenaConfig {
    /// A config with the given chunk slot-count (default slot size).
    pub fn with_slots_per_chunk(slots_per_chunk: usize) -> Self {
        Self {
            slots_per_chunk,
            ..Self::default()
        }
    }

    /// A config with the given slot size in bytes (default chunk slot-count).
    pub fn with_slot_size(slot_size: usize) -> Self {
        Self {
            slot_size,
            ..Self::default()
        }
    }

    /// This config with its slot size replaced (chainable).
    pub fn sized(self, slot_size: usize) -> Self {
        Self { slot_size, ..self }
    }

    /// This config with its chunk slot-count replaced (chainable).
    pub fn chunked(self, slots_per_chunk: usize) -> Self {
        Self {
            slots_per_chunk,
            ..self
        }
    }

    /// A config sized for an arena expected to hold about `capacity` live slots:
    /// the chunk count is clamped to `[64, DEFAULT_SLOTS_PER_CHUNK]` and rounded
    /// up to a power of two, so small shards grow in small steps while large ones
    /// keep the default granularity.
    pub fn for_capacity(capacity: usize) -> Self {
        Self {
            slots_per_chunk: capacity
                .clamp(64, DEFAULT_SLOTS_PER_CHUNK)
                .next_power_of_two()
                .min(DEFAULT_SLOTS_PER_CHUNK),
            ..Self::default()
        }
    }

    /// The small-slot preset for the nodes of a copy-on-write HAMT
    /// (`flit-hamt`): [`HAMT_NODE_SLOT_BYTES`]-byte slots — an interior node
    /// is a bitmap-compressed array of at most 16 entries and a bucket at most
    /// 8 `(key, value)` pairs, each node's bitmap or pair count travelling in
    /// the entry that points at it — with a chunk count derived from
    /// `capacity` via [`ArenaConfig::for_capacity`]. Copy-on-write churns
    /// through slots faster than in-place structures (every update allocates a
    /// whole path), so HAMT arenas want small slots and capacity-proportional
    /// chunks rather than the default cache-line slot geometry.
    pub fn hamt_nodes(capacity: usize) -> Self {
        Self::for_capacity(capacity).sized(HAMT_NODE_SLOT_BYTES)
    }
}

/// Slot size of [`ArenaConfig::hamt_nodes`]: 16 words, so two cache lines.
/// An interior node packs at most 16 entry words and a bucket at most 8
/// `(key, value)` pairs, with no header: the 16-bit occupancy bitmap or the
/// pair count lives from bit 47 up in the entry naming the node.
pub const HAMT_NODE_SLOT_BYTES: usize = 16 * WORD_SIZE;

/// What the persisted arena header looks like inside a [`CrashImage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImageHeader {
    /// `true` when the magic word was durably written — i.e. the arena itself
    /// completed construction before the crash.
    pub initialised: bool,
    /// The persisted slot size, if the header word reached the image.
    pub slot_size: Option<u64>,
    /// The persisted high-water mark (slots ever bump-allocated). Every update is
    /// recorded with the backend, but the write-back is lazy (chunk-boundary
    /// granularity) and unfenced until the allocating thread's next fence, so the
    /// persisted mark may lag the true value; recovery treats it as a lower bound
    /// — reachability is defined by the root table, never by the mark.
    pub high_water: Option<u64>,
    /// The persisted durable-free-list head (offset + 1; `0` = empty list).
    pub free_head: Option<u64>,
}

/// Free-list and root-registration state, serialised under one lock (allocation
/// itself is mostly lock-free via the bump counter).
#[derive(Default)]
struct AllocState {
    /// Mirror of the durable free-list head word (offset + 1; 0 = empty).
    durable_free: usize,
    /// Volatile recycle list (EBR-freed slots; lost on crash), as slot base
    /// addresses, so reusing one needs no chunk lookup.
    recycled: Vec<usize>,
    /// Multi-slot blocks handed out by [`Arena::alloc_block`], as
    /// `(first_slot, slot_count)` spans. Pool-backed arenas persist these in
    /// the pool directory too; post-crash GC treats each span as one object.
    blocks: Vec<(usize, usize)>,
    /// Some slot is neither reachable nor on a free list, so only GC can
    /// account for it (see [`Arena::flag_unaccounted`]).
    unaccounted: bool,
}

/// Where an arena's regions come from — and therefore how it grows.
enum Backing {
    /// Heap reservations (the simulated substrate).
    Heap,
    /// Ranges carved from a mapped [`PoolFile`]; growth publishes chunk
    /// offsets in the pool's arena directory so a reopen can re-adopt them.
    Pool(PoolArenaSlot),
}

/// A persistent arena of fixed-size, cache-line-aligned slots with a persisted
/// header and a named recovery-root table. See the crate docs.
pub struct Arena {
    header: PmemRegion,
    slot_size: usize,
    chunk_slots: usize,
    chunks: RwLock<Vec<PmemRegion>>,
    /// Bump pointer: the next never-allocated slot index (the high-water mark).
    next_slot: AtomicUsize,
    state: Mutex<AllocState>,
    backing: Backing,
}

impl Arena {
    /// Create an arena whose slots hold `slot_size` bytes (rounded up to whole
    /// cache lines), growing `chunk_slots` slots at a time. The header (magic,
    /// slot size, zero high-water, empty free list) is persisted through `backend`
    /// before the call returns.
    pub fn new<B: PmemBackend>(backend: &B, slot_size: usize, chunk_slots: usize) -> Self {
        assert!(slot_size > 0, "slot size must be non-zero");
        assert!(chunk_slots > 0, "chunks must hold at least one slot");
        let slot_size = slot_size.div_ceil(CACHE_LINE_SIZE) * CACHE_LINE_SIZE;
        let arena = Self {
            header: PmemRegion::reserve(HEADER_BYTES).expect("arena header reservation failed"),
            slot_size,
            chunk_slots,
            chunks: RwLock::new(Vec::new()),
            next_slot: AtomicUsize::new(0),
            state: Mutex::new(AllocState::default()),
            backing: Backing::Heap,
        };
        arena.init_header(backend);
        arena
    }

    /// Create an arena whose header and chunks live in `pool`, claiming the
    /// pool's next directory entry. The header is persisted through `backend`
    /// exactly as in [`Arena::new`]; the directory entry is published before
    /// this returns, so a crash any time after sees a structurally valid
    /// (possibly still magic-less) arena.
    pub fn create_on_pool<B: PmemBackend>(
        backend: &B,
        pool: &Arc<PoolFile>,
        config: ArenaConfig,
    ) -> Result<Self, OpenError> {
        assert!(config.slot_size > 0, "slot size must be non-zero");
        assert!(
            config.slots_per_chunk > 0,
            "chunks must hold at least one slot"
        );
        let slot_size = config.slot_size.div_ceil(CACHE_LINE_SIZE) * CACHE_LINE_SIZE;
        let slot = PoolArenaSlot::create(pool, slot_size, config.slots_per_chunk, HEADER_BYTES)?;
        let arena = Self {
            header: slot.header_region(),
            slot_size,
            chunk_slots: config.slots_per_chunk,
            chunks: RwLock::new(Vec::new()),
            next_slot: AtomicUsize::new(0),
            state: Mutex::new(AllocState::default()),
            backing: Backing::Pool(slot),
        };
        arena.init_header(backend);
        Ok(arena)
    }

    /// Adopt arena `index` of an opened pool: bind its directory entry, map its
    /// chunks, and validate the persisted header — magic, slot size against the
    /// directory, high water against the mapped capacity, the durable free
    /// list, and every root-table entry. Every inconsistency is a typed
    /// [`OpenError`]; nothing panics on a corrupt pool.
    pub fn adopt_from_pool(pool: &Arc<PoolFile>, index: usize) -> Result<Self, OpenError> {
        let slot = PoolArenaSlot::adopt(pool, index, HEADER_BYTES)?;
        let header = slot.header_region();
        let header_base = header.base_addr();
        let read = move |off: usize| -> u64 {
            // SAFETY: in-bounds word of the header region, which outlives this
            // call; atomic view for defined shared access.
            unsafe { (*((header_base + off) as *const AtomicU64)).load(Ordering::SeqCst) }
        };
        let bad = |reason: String| OpenError::ArenaHeader {
            arena: index,
            reason,
        };

        let magic = read(MAGIC_OFFSET);
        if magic != ARENA_MAGIC {
            return Err(bad(format!(
                "arena magic {magic:#018x} (expected {ARENA_MAGIC:#018x})"
            )));
        }
        let header_slot_size = read(SLOT_SIZE_OFFSET);
        if header_slot_size != slot.slot_size() as u64 {
            return Err(OpenError::SlotSizeMismatch {
                arena: index,
                header: header_slot_size,
                directory: slot.slot_size() as u64,
            });
        }
        let chunks = slot.chunk_regions();
        let capacity = chunks.len() * slot.chunk_slots();
        let high_water = read(HIGH_WATER_OFFSET);
        if high_water > capacity as u64 {
            return Err(bad(format!(
                "high-water {high_water} beyond the {capacity} mapped slots"
            )));
        }
        let free_head = read(FREE_HEAD_OFFSET);

        let arena = Self {
            header,
            slot_size: slot.slot_size(),
            chunk_slots: slot.chunk_slots(),
            chunks: RwLock::new(chunks),
            next_slot: AtomicUsize::new(high_water as usize),
            state: Mutex::new(AllocState {
                durable_free: free_head as usize,
                blocks: slot.blocks(),
                ..AllocState::default()
            }),
            backing: Backing::Pool(slot),
        };

        // The durable free list must be walkable to its end.
        if let Some(reason) = arena.walk_durable_free(free_head as usize, |_| {}) {
            return Err(bad(reason));
        }

        // Validate the root table: a non-zero key whose offset word is null or
        // out of range is a torn (or corrupted) entry.
        for i in 0..ROOT_CAPACITY {
            let key_off = ROOT_TABLE_OFFSET + i * ROOT_ENTRY_BYTES;
            let key = read(key_off);
            if key == 0 {
                continue;
            }
            let off = read(key_off + WORD_SIZE);
            if off == 0 || off > high_water {
                return Err(OpenError::TornRootEntry {
                    arena: index,
                    entry: i,
                });
            }
        }
        Ok(arena)
    }

    /// Persist the header of a freshly created arena: content words first,
    /// magic last, each batch fenced, so a durably-visible magic implies a
    /// durably-visible header (the same persist-before-publish discipline the
    /// data structures follow).
    fn init_header<B: PmemBackend>(&self, backend: &B) {
        self.write_header_word(backend, SLOT_SIZE_OFFSET, self.slot_size as u64);
        self.write_header_word(backend, HIGH_WATER_OFFSET, 0);
        self.write_header_word(backend, FREE_HEAD_OFFSET, 0);
        backend.pwb(self.header_addr(SLOT_SIZE_OFFSET) as *const u8);
        backend.pfence();
        self.write_header_word(backend, MAGIC_OFFSET, ARENA_MAGIC);
        backend.pwb(self.header_addr(MAGIC_OFFSET) as *const u8);
        backend.pfence();
    }

    /// The slot size an arena would use for values of type `T`: the type's size
    /// (at least one word), rounded up to whole cache lines. The single source of
    /// truth for callers that need to size chunks or blocks before construction.
    pub fn slot_size_for<T>() -> usize {
        assert!(
            std::mem::align_of::<T>() <= CACHE_LINE_SIZE,
            "slot types must not require more than cache-line alignment"
        );
        std::mem::size_of::<T>()
            .max(WORD_SIZE)
            .div_ceil(CACHE_LINE_SIZE)
            * CACHE_LINE_SIZE
    }

    /// Create an arena sized for slots of type `T` (one `T` per slot, padded to
    /// whole cache lines).
    pub fn for_slots_of<T, B: PmemBackend>(backend: &B, chunk_slots: usize) -> Self {
        Self::new(backend, Self::slot_size_for::<T>(), chunk_slots)
    }

    /// Create an arena from an [`ArenaConfig`]; equivalent to [`Arena::new`]
    /// with the config's slot size and chunk slot-count.
    pub fn with_config<B: PmemBackend>(backend: &B, config: ArenaConfig) -> Self {
        Self::new(backend, config.slot_size, config.slots_per_chunk)
    }

    /// Create an arena for slots of type `T` with an explicit [`ArenaConfig`].
    pub fn for_slots_of_config<T, B: PmemBackend>(backend: &B, config: ArenaConfig) -> Self {
        Self::for_slots_of::<T, B>(backend, config.slots_per_chunk)
    }

    /// The slot size in bytes (a multiple of the cache-line size).
    #[inline]
    pub fn slot_size(&self) -> usize {
        self.slot_size
    }

    /// Number of slots ever bump-allocated (the live high-water mark).
    #[inline]
    pub fn high_water(&self) -> usize {
        self.next_slot.load(Ordering::Relaxed)
    }

    /// The address of the arena header's base (the magic word) — "offset 0" of
    /// the recovery story: everything durable is reachable from here.
    #[inline]
    pub fn header_base(&self) -> usize {
        self.header.base_addr()
    }

    #[inline]
    fn header_addr(&self, byte_offset: usize) -> usize {
        debug_assert!(byte_offset < HEADER_BYTES);
        self.header.base_addr() + byte_offset
    }

    /// Header/root words are shared mutable state: go through `AtomicU64` views so
    /// live reads never race the raw region memory.
    #[inline]
    fn header_word(&self, byte_offset: usize) -> &AtomicU64 {
        // SAFETY: the offset is in bounds (debug-asserted), 8-aligned (all callers
        // use word offsets), and the region memory outlives `self`.
        unsafe { &*(self.header_addr(byte_offset) as *const AtomicU64) }
    }

    /// Store a header word and record it with the backend (no flush — callers
    /// batch their own `pwb`/`pfence`).
    fn write_header_word<B: PmemBackend>(&self, backend: &B, byte_offset: usize, val: u64) {
        self.header_word(byte_offset).store(val, Ordering::SeqCst);
        backend.record_store(self.header_addr(byte_offset) as *const u8, val);
    }

    // ---- offsets ----------------------------------------------------------

    /// The base address of the slot at `offset`, which must have been allocated.
    pub fn addr_of_offset(&self, offset: usize) -> usize {
        self.addr_in(&self.chunks.read(), offset)
    }

    /// [`addr_of_offset`](Self::addr_of_offset) against a chunk table the
    /// caller already holds.
    fn addr_in(&self, chunks: &[PmemRegion], offset: usize) -> usize {
        let chunk = offset / self.chunk_slots;
        assert!(chunk < chunks.len(), "offset {offset} beyond the arena");
        chunks[chunk].base_addr() + (offset % self.chunk_slots) * self.slot_size
    }

    /// The slot offset containing `addr`, or `None` when `addr` is outside every
    /// chunk of this arena.
    pub fn offset_of_addr(&self, addr: usize) -> Option<usize> {
        self.offset_in(&self.chunks.read(), addr)
    }

    /// [`offset_of_addr`](Self::offset_of_addr) against a chunk table the
    /// caller already holds.
    fn offset_in(&self, chunks: &[PmemRegion], addr: usize) -> Option<usize> {
        let (i, chunk) = chunks.iter().enumerate().find(|(_, c)| c.contains(addr))?;
        Some(i * self.chunk_slots + (addr - chunk.base_addr()) / self.slot_size)
    }

    /// `true` when `addr` falls inside this arena's slot storage.
    pub fn contains(&self, addr: usize) -> bool {
        self.chunks.read().iter().any(|c| c.contains(addr))
    }

    // ---- allocation -------------------------------------------------------

    /// Allocate one slot. Reuses recycled/freed slots first, then bumps the
    /// high-water mark. The new mark is always *recorded* with the backend (a
    /// store event: the crash tracker sees every allocator event), but its
    /// write-back is **lazy** — flushed only when the mark crosses a chunk
    /// boundary — so steady-state allocation costs zero `pwb`s. Recovery already
    /// treats the persisted mark as a lower bound (roots, not the mark, define
    /// reachability), and the lazy flush is what keeps cache-line alignment a net
    /// `pwbs/op` win on single-line-node structures.
    pub fn alloc<B: PmemBackend>(&self, backend: &B) -> *mut u8 {
        {
            let mut state = self.state.lock();
            if let Some(addr) = state.recycled.pop() {
                return addr as *mut u8;
            }
            if state.durable_free != 0 {
                let offset = state.durable_free - 1;
                let addr = self.addr_of_offset(offset);
                // SAFETY: a freed slot's first word holds the next free offset + 1
                // (written by `free`), and the slot is not in use.
                let next = unsafe { *(addr as *const u64) };
                state.durable_free = next as usize;
                self.write_header_word(backend, FREE_HEAD_OFFSET, next);
                backend.pwb(self.header_addr(FREE_HEAD_OFFSET) as *const u8);
                return addr as *mut u8;
            }
        }
        let index = self.next_slot.fetch_add(1, Ordering::Relaxed);
        self.ensure_chunk(index);
        self.write_header_word(backend, HIGH_WATER_OFFSET, (index + 1) as u64);
        if (index + 1) % self.chunk_slots == 0 {
            // Chunk boundary: flush the durable mark (fenced by the caller's next
            // fence — every allocation is followed by a node persist).
            backend.pwb(self.header_addr(HIGH_WATER_OFFSET) as *const u8);
        }
        self.addr_of_offset(index) as *mut u8
    }

    /// Allocate one slot and move `value` into it. The write is raw
    /// initialisation: callers record the node's words with the backend and
    /// persist them before publishing, exactly as with heap allocation.
    pub fn alloc_init<T, B: PmemBackend>(&self, backend: &B, value: T) -> *mut T {
        assert!(
            std::mem::size_of::<T>() <= self.slot_size,
            "{} does not fit a {}-byte slot",
            std::any::type_name::<T>(),
            self.slot_size
        );
        debug_assert!(std::mem::align_of::<T>() <= CACHE_LINE_SIZE);
        let ptr = self.alloc(backend) as *mut T;
        // SAFETY: `ptr` is a freshly allocated, exclusively owned, cache-line
        // aligned slot of at least `size_of::<T>()` bytes.
        unsafe { ptr.write(value) };
        ptr
    }

    /// Allocate `bytes` of *contiguous* slots (for blocks larger than one slot,
    /// e.g. a hash table's bucket directory). Always bump-allocated; if the block
    /// does not fit the current chunk's remainder, it starts at the next chunk
    /// and the skipped slots go to the recycle list.
    pub fn alloc_block<B: PmemBackend>(&self, backend: &B, bytes: usize) -> *mut u8 {
        let nslots = bytes.div_ceil(self.slot_size).max(1);
        assert!(
            nslots <= self.chunk_slots,
            "block of {nslots} slots exceeds the chunk size {}",
            self.chunk_slots
        );
        loop {
            let cur = self.next_slot.load(Ordering::Relaxed);
            // If the block would straddle a chunk boundary, start it at the next
            // chunk instead.
            let index = if cur % self.chunk_slots + nslots > self.chunk_slots {
                (cur / self.chunk_slots + 1) * self.chunk_slots
            } else {
                cur
            };
            if self
                .next_slot
                .compare_exchange(cur, index + nslots, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
            {
                continue;
            }
            self.ensure_chunk(index + nslots - 1);
            self.write_header_word(backend, HIGH_WATER_OFFSET, (index + nslots) as u64);
            backend.pwb(self.header_addr(HIGH_WATER_OFFSET) as *const u8);
            // Record the span before returning (and before any caller can
            // publish a root that reaches it): post-crash GC must treat the
            // whole block as one object. The skipped gap, if any, is free like
            // any recycled slot.
            let gap = self.addrs_of_offsets(cur..index);
            let mut state = self.state.lock();
            state.blocks.push((index, nslots));
            state.recycled.extend(gap);
            drop(state);
            if let Backing::Pool(slot) = &self.backing {
                slot.note_block(index, nslots)
                    .expect("pool block directory full");
            }
            return self.addr_of_offset(index) as *mut u8;
        }
    }

    /// Materialise chunks so that slot `index` is addressable. Growth failure
    /// is fatal here by design: an arena that cannot grow mid-operation has no
    /// useful recovery (`open` callers get typed errors; allocators panic).
    fn ensure_chunk(&self, index: usize) {
        let needed = index / self.chunk_slots + 1;
        if self.chunks.read().len() >= needed {
            return;
        }
        let mut chunks = self.chunks.write();
        while chunks.len() < needed {
            let region = match &self.backing {
                Backing::Heap => PmemRegion::reserve(self.chunk_slots * self.slot_size)
                    .expect("arena chunk reservation failed"),
                Backing::Pool(slot) => slot
                    .add_chunk()
                    .expect("pool exhausted while growing an arena"),
            };
            chunks.push(region);
        }
    }

    /// Return a slot to the **durable** free list: the slot's first word becomes
    /// the next-free link and the header's free-list head points at it, both
    /// recorded and flushed through `backend`. A fence orders the link before
    /// the head, so no crash image holds a head naming a slot whose link still
    /// holds a dead node's field; the head itself is committed by the freeing
    /// thread's next fence.
    ///
    /// # Safety
    /// `ptr` must be the base of a slot previously returned by
    /// [`alloc`](Self::alloc)/[`alloc_init`](Self::alloc_init) of this arena, the
    /// slot must be unreachable from any live or durable structure state, and it
    /// must not be freed (or recycled) again.
    pub unsafe fn free<B: PmemBackend>(&self, backend: &B, ptr: *mut u8) {
        let offset = self
            .offset_of_addr(ptr as usize)
            .expect("freed pointer belongs to this arena");
        let mut state = self.state.lock();
        let old_head = state.durable_free as u64;
        // SAFETY: caller guarantees the slot is dead; its first word is ours.
        unsafe { (ptr as *mut u64).write(old_head) };
        backend.record_store(ptr as *const u8, old_head);
        backend.pwb(ptr as *const u8);
        backend.pfence();
        state.durable_free = offset + 1;
        self.write_header_word(backend, FREE_HEAD_OFFSET, (offset + 1) as u64);
        backend.pwb(self.header_addr(FREE_HEAD_OFFSET) as *const u8);
    }

    /// Return a slot to the **volatile** recycle list (no backend required; used
    /// by reclamation callbacks). The slot is reused by later allocations of this
    /// process but leaks across a crash until a GC pass reclaims it.
    ///
    /// # Safety
    /// Same contract as [`free`](Self::free).
    pub unsafe fn recycle(&self, ptr: *mut u8) {
        // SAFETY: forwarded contract.
        unsafe { self.recycle_all(&[ptr as usize]) };
    }

    /// [`recycle`](Self::recycle) every slot base in `addrs`: one chunk-table
    /// read for the ownership checks, one state lock for the pushes.
    ///
    /// # Safety
    /// Same contract as [`free`](Self::free), for each address.
    pub unsafe fn recycle_all(&self, addrs: &[usize]) {
        {
            let chunks = self.chunks.read();
            for &addr in addrs {
                self.offset_in(&chunks, addr)
                    .expect("recycled pointer belongs to this arena");
            }
        }
        self.state.lock().recycled.extend_from_slice(addrs);
    }

    /// Retire the slot at `addr` through an EBR guard: once the two-epoch rule
    /// proves quiescence, the slot is [`recycle`](Self::recycle)d. This is the
    /// one reclamation hook every arena-allocated structure uses in place of
    /// dropping a `Box`.
    ///
    /// # Safety
    /// `addr` must be the base of a slot of this arena that has been unlinked
    /// from all shared (and durable-reachable) state before this call, and it
    /// must be retired exactly once.
    pub unsafe fn defer_recycle(self: &Arc<Self>, guard: &Guard<'_>, addr: usize) {
        // SAFETY: forwarded contract.
        unsafe { self.defer_recycle_all(guard, [addr]) };
    }

    /// Retire every slot in `addrs` through an EBR guard as **one** deferred
    /// action (one closure, one garbage-bag push), which recycles them
    /// with [`recycle_all`](Self::recycle_all) once quiescence is proved: a
    /// structure that unlinks several slots at once (a copy-on-write path)
    /// pays for one retirement.
    ///
    /// # Safety
    /// [`defer_recycle`](Self::defer_recycle)'s contract, for each address.
    pub unsafe fn defer_recycle_all<A>(self: &Arc<Self>, guard: &Guard<'_>, addrs: A)
    where
        A: AsRef<[usize]> + Send + 'static,
    {
        let arena = Arc::clone(self);
        guard.defer(move || {
            // SAFETY: caller's contract (unlinked + unique retirement) plus EBR
            // quiescence make the slots dead by the time this runs.
            unsafe { arena.recycle_all(addrs.as_ref()) };
        });
    }

    // ---- recovery roots ---------------------------------------------------

    /// Register (or update) the named recovery root `key` to point at the slot
    /// containing `addr`. The offset word is persisted *before* the key word
    /// (each with its own fence), so an image containing the key always contains
    /// the offset. Panics when the table is full or `key` is zero.
    pub fn register_root<B: PmemBackend>(&self, backend: &B, key: u64, addr: usize) {
        assert_ne!(key, 0, "root key 0 is the empty-entry sentinel");
        let offset = self
            .offset_of_addr(addr)
            .expect("root address belongs to this arena");
        let _state = self.state.lock(); // serialise table scans + writes
        let mut slot = None;
        for i in 0..ROOT_CAPACITY {
            let key_off = ROOT_TABLE_OFFSET + i * ROOT_ENTRY_BYTES;
            match self.header_word(key_off).load(Ordering::SeqCst) {
                k if k == key => {
                    slot = Some(i);
                    break;
                }
                0 if slot.is_none() => slot = Some(i),
                _ => {}
            }
        }
        let i = slot.expect("recovery-root table is full");
        let key_off = ROOT_TABLE_OFFSET + i * ROOT_ENTRY_BYTES;
        let val_off = key_off + WORD_SIZE;
        self.write_header_word(backend, val_off, (offset + 1) as u64);
        backend.pwb(self.header_addr(val_off) as *const u8);
        backend.pfence();
        self.write_header_word(backend, key_off, key);
        backend.pwb(self.header_addr(key_off) as *const u8);
        backend.pfence();
    }

    /// The live root registered under `key`, as a slot base address.
    pub fn root(&self, key: u64) -> Option<usize> {
        for i in 0..ROOT_CAPACITY {
            let key_off = ROOT_TABLE_OFFSET + i * ROOT_ENTRY_BYTES;
            if self.header_word(key_off).load(Ordering::SeqCst) == key {
                let off = self.header_word(key_off + WORD_SIZE).load(Ordering::SeqCst);
                return (off != 0).then(|| self.addr_of_offset(off as usize - 1));
            }
        }
        None
    }

    /// The root registered under `key` **as persisted in `image`**, as a slot
    /// base address. `None` when the key (or its offset) never became durable —
    /// the structure was not durably constructed at the crash point, and recovery
    /// must treat it as empty.
    pub fn root_in_image(&self, image: &CrashImage, key: u64) -> Option<usize> {
        for i in 0..ROOT_CAPACITY {
            let key_off = ROOT_TABLE_OFFSET + i * ROOT_ENTRY_BYTES;
            if image.read(self.header_addr(key_off)) == Some(key) {
                let off = image.read(self.header_addr(key_off + WORD_SIZE))?;
                return (off != 0).then(|| self.addr_of_offset(off as usize - 1));
            }
        }
        None
    }

    /// The arena header as persisted in `image`. The header is reachable from
    /// offset 0 unconditionally, so this view is meaningful at *every* crash
    /// point, including mid-construction.
    pub fn image_header(&self, image: &CrashImage) -> ImageHeader {
        ImageHeader {
            initialised: image.read(self.header_addr(MAGIC_OFFSET)) == Some(ARENA_MAGIC),
            slot_size: image.read(self.header_addr(SLOT_SIZE_OFFSET)),
            high_water: image.read(self.header_addr(HIGH_WATER_OFFSET)),
            free_head: image.read(self.header_addr(FREE_HEAD_OFFSET)),
        }
    }

    // ---- pool adoption and post-crash GC support --------------------------

    /// Slots added per growth chunk.
    #[inline]
    pub fn chunk_slots(&self) -> usize {
        self.chunk_slots
    }

    /// `true` when this arena's regions live in a mapped pool file.
    pub fn is_pool_backed(&self) -> bool {
        matches!(self.backing, Backing::Pool(_))
    }

    /// Every live root-table entry as `(key, slot offset)` pairs in table
    /// order. After adoption the live table *is* the durable table (the header
    /// is mapped file memory), so this is what post-crash GC seeds from.
    pub fn live_roots(&self) -> Vec<(u64, usize)> {
        let mut out = Vec::new();
        for i in 0..ROOT_CAPACITY {
            let key_off = ROOT_TABLE_OFFSET + i * ROOT_ENTRY_BYTES;
            let key = self.header_word(key_off).load(Ordering::SeqCst);
            if key == 0 {
                continue;
            }
            let off = self.header_word(key_off + WORD_SIZE).load(Ordering::SeqCst);
            if off != 0 {
                out.push((key, off as usize - 1));
            }
        }
        out
    }

    /// The slot offsets currently threaded on the durable free list (a
    /// corrupt list yields a truncated walk, not a hang).
    pub fn durable_free_offsets(&self) -> Vec<usize> {
        let state = self.state.lock();
        let mut out = Vec::new();
        self.walk_durable_free(state.durable_free, |off| out.push(off));
        out
    }

    /// Walk the durable free list from `head` (a slot offset plus one; 0 ends
    /// the list), handing each slot to `visit`; returns why the walk stopped
    /// early if it did — a link at or above the high-water mark, or a cycle.
    /// Open validates the list through it without collecting the slots.
    fn walk_durable_free(&self, head: usize, mut visit: impl FnMut(usize)) -> Option<String> {
        let hw = self.high_water();
        let mut seen = std::collections::HashSet::new();
        let mut cur = head;
        while cur != 0 {
            let off = cur - 1;
            if off >= hw {
                return Some(format!("free-list entry {off} at or above high-water {hw}"));
            }
            if !seen.insert(off) {
                return Some(format!("free list cycles through slot {off}"));
            }
            visit(off);
            // SAFETY: `off` is below the high-water mark, so its slot is inside
            // a mapped chunk; a freed slot's first word is the free-list link.
            cur =
                unsafe { (*(self.addr_of_offset(off) as *const AtomicU64)).load(Ordering::SeqCst) }
                    as usize;
        }
        None
    }

    /// Snapshot of the volatile recycle list, as slot offsets.
    pub fn recycled_offsets(&self) -> Vec<usize> {
        let addrs = self.state.lock().recycled.clone();
        self.offsets_of_addrs(&addrs)
    }

    /// The slot offsets of the recycled slot bases `addrs`, under one
    /// chunk-table read.
    fn offsets_of_addrs(&self, addrs: &[usize]) -> Vec<usize> {
        let chunks = self.chunks.read();
        addrs
            .iter()
            .map(|&addr| {
                self.offset_in(&chunks, addr)
                    .expect("recycled pointer belongs to this arena")
            })
            .collect()
    }

    /// The base addresses of the slots at `offsets`, under one chunk-table read.
    fn addrs_of_offsets(&self, offsets: impl IntoIterator<Item = usize>) -> Vec<usize> {
        let chunks = self.chunks.read();
        offsets
            .into_iter()
            .map(|off| self.addr_in(&chunks, off))
            .collect()
    }

    /// Multi-slot block spans handed out by [`alloc_block`](Self::alloc_block),
    /// as `(first_slot, slot_count)` pairs.
    pub fn recorded_blocks(&self) -> Vec<(usize, usize)> {
        self.state.lock().blocks.clone()
    }

    /// Hand slots that post-crash GC proved unreachable back to the allocator.
    ///
    /// Pool-backed arenas push them onto the **durable** free list so the
    /// reclamation survives the next unmap — a reopened pool reports zero
    /// leaks instead of re-discovering the same garbage every open. GC runs
    /// single-threaded before any handle exists and the mapped file *is* the
    /// durable state, so plain atomic stores suffice (no P-V events to
    /// record). Heap arenas have no durable file; their slots go to the
    /// volatile recycle list for in-process reuse.
    pub fn reclaim_leaked(&self, offsets: &[usize]) {
        let addrs = self.addrs_of_offsets(offsets.iter().copied());
        let mut state = self.state.lock();
        match &self.backing {
            Backing::Heap => state.recycled.extend(addrs),
            Backing::Pool(_) => {
                for (&off, addr) in offsets.iter().zip(addrs) {
                    let old_head = state.durable_free as u64;
                    // SAFETY: GC (or, for a recycled slot, EBR) proved the
                    // slot unreachable; its first word is the allocator's to
                    // use as a link.
                    unsafe { (*(addr as *mut AtomicU64)).store(old_head, Ordering::SeqCst) };
                    state.durable_free = off + 1;
                    self.header_word(FREE_HEAD_OFFSET)
                        .store((off + 1) as u64, Ordering::SeqCst);
                }
            }
        }
    }

    /// Record that some slot of this arena is neither reachable from a root
    /// nor on a free list, and only a GC pass can find it: a structure that
    /// drops with retired slots it never recycled calls this, so the clean
    /// close leaves the pool dirty.
    pub fn flag_unaccounted(&self) {
        self.state.lock().unaccounted = true;
    }

    /// The clean-close half of reclamation: move the volatile recycle list
    /// onto the durable free list (the same stores as
    /// [`reclaim_leaked`](Self::reclaim_leaked), no P-V events). Returns
    /// `false` when the arena was [flagged](Self::flag_unaccounted), so its
    /// slots are not all accounted for.
    pub fn persist_recycled(&self) -> bool {
        let (recycled, unaccounted) = {
            let mut state = self.state.lock();
            (std::mem::take(&mut state.recycled), state.unaccounted)
        };
        self.reclaim_leaked(&self.offsets_of_addrs(&recycled));
        !unaccounted
    }

    /// The `(base address, byte length)` of every region holding this arena's
    /// durable words: the [`HEADER_BYTES`] header region, then each chunk in
    /// growth order. For a pool-backed arena the file *is* the durable state,
    /// so these ranges of the mapping are its crash image
    /// ([`CrashImage::mapped`]) — which is what lets `FlitDb::open` run the
    /// image-only recovery walks on a real pool without copying a word.
    pub fn image_ranges(&self) -> Vec<(usize, usize)> {
        let chunks = self.chunks.read();
        std::iter::once((self.header.base_addr(), HEADER_BYTES))
            .chain(chunks.iter().map(|c| (c.base_addr(), c.len())))
            .collect()
    }
}

impl std::fmt::Debug for Arena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Arena")
            .field("slot_size", &self.slot_size)
            .field("chunk_slots", &self.chunk_slots)
            .field("chunks", &self.chunks.read().len())
            .field("high_water", &self.high_water())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flit_pmem::{LatencyModel, NullPmem, PoolOptions, SimNvram};

    fn tracking() -> SimNvram {
        SimNvram::for_crash_testing()
    }

    fn counting() -> SimNvram {
        SimNvram::builder().latency(LatencyModel::none()).build()
    }

    #[test]
    fn slots_are_aligned_disjoint_and_stable() {
        let b = counting();
        let arena = Arena::new(&b, 24, 4); // rounds to 64-byte slots
        assert_eq!(arena.slot_size(), 64);
        let mut seen = std::collections::HashSet::new();
        let mut addrs = Vec::new();
        for _ in 0..10 {
            let p = arena.alloc(&b) as usize;
            assert_eq!(p % CACHE_LINE_SIZE, 0);
            assert!(seen.insert(p), "slot handed out twice");
            addrs.push(p);
        }
        assert_eq!(arena.high_water(), 10);
        // Growth must not move earlier slots.
        for (i, &a) in addrs.iter().enumerate() {
            assert_eq!(arena.offset_of_addr(a), Some(i));
            assert_eq!(arena.addr_of_offset(i), a);
            assert!(arena.contains(a));
        }
        assert!(!arena.contains(arena.header_base()));
    }

    #[test]
    fn header_is_persisted_and_always_reachable() {
        let b = tracking();
        let arena = Arena::new(&b, 64, 8);
        let image = b.tracker().unwrap().crash_image();
        let header = arena.image_header(&image);
        assert!(header.initialised);
        assert_eq!(header.slot_size, Some(64));
        assert_eq!(header.high_water, Some(0));
        assert_eq!(header.free_head, Some(0));
    }

    #[test]
    fn high_water_is_flushed_lazily_at_chunk_boundaries() {
        let b = tracking();
        let arena = Arena::new(&b, 64, 4);
        for _ in 0..3 {
            let _ = arena.alloc(&b);
        }
        b.pfence();
        // Mid-chunk allocations record the mark but do not flush it.
        let header = arena.image_header(&b.tracker().unwrap().crash_image());
        assert_eq!(
            header.high_water,
            Some(0),
            "lazy: mid-chunk marks unflushed"
        );
        // Crossing the chunk boundary flushes; the caller's next fence commits.
        let _ = arena.alloc(&b);
        let header = arena.image_header(&b.tracker().unwrap().crash_image());
        assert_eq!(header.high_water, Some(0), "flushed but not yet fenced");
        b.pfence();
        let header = arena.image_header(&b.tracker().unwrap().crash_image());
        assert_eq!(header.high_water, Some(4));
        assert_eq!(arena.high_water(), 4);
    }

    #[test]
    fn root_registration_round_trips_live_and_in_image() {
        let b = tracking();
        let arena = Arena::new(&b, 64, 8);
        let node = arena.alloc(&b) as usize;
        assert_eq!(arena.root(roots::LIST_HEAD), None);
        arena.register_root(&b, roots::LIST_HEAD, node);
        assert_eq!(arena.root(roots::LIST_HEAD), Some(node));
        let image = b.tracker().unwrap().crash_image();
        assert_eq!(arena.root_in_image(&image, roots::LIST_HEAD), Some(node));
        assert_eq!(arena.root_in_image(&image, roots::BST_ROOT), None);
        // Re-registration updates in place.
        let other = arena.alloc(&b) as usize;
        arena.register_root(&b, roots::LIST_HEAD, other);
        assert_eq!(arena.root(roots::LIST_HEAD), Some(other));
    }

    #[test]
    fn root_registration_persists_the_offset_before_the_key_at_every_crash_point() {
        // The ordering contract `register_root` documents, checked mechanically:
        // arm a crash at *every* event of construction + registration, and in each
        // frozen image a durable key word must come with a durable non-zero offset
        // word (scanned raw in the header region, because `root_in_image` maps the
        // broken state to `None` and would mask the regression).
        let total = {
            let plan = flit_pmem::CrashPlan::counting();
            let b = SimNvram::for_crash_testing_with_plan(plan.clone());
            let arena = Arena::new(&b, 64, 8);
            let node = arena.alloc(&b) as usize;
            arena.register_root(&b, roots::LIST_HEAD, node);
            plan.events_seen()
        };
        for k in 0..=total {
            let plan = flit_pmem::CrashPlan::armed_at(k);
            let b = SimNvram::for_crash_testing_with_plan(plan.clone());
            let arena = Arena::new(&b, 64, 8);
            let node = arena.alloc(&b) as usize;
            arena.register_root(&b, roots::LIST_HEAD, node);
            let image = plan
                .crash_image()
                .unwrap_or_else(|| b.tracker().unwrap().crash_image());
            let base = arena.header_base();
            for off in (ROOT_TABLE_OFFSET..HEADER_BYTES).step_by(ROOT_ENTRY_BYTES) {
                if image.read(base + off) == Some(roots::LIST_HEAD) {
                    let offset_word = image.read(base + off + WORD_SIZE);
                    assert!(
                        matches!(offset_word, Some(v) if v != 0),
                        "crash at event {k}: root key durable without its offset"
                    );
                }
            }
            // And through the public API the entry is all-or-nothing.
            match arena.root_in_image(&image, roots::LIST_HEAD) {
                None => {}
                Some(addr) => assert_eq!(addr, node),
            }
        }
    }

    #[test]
    fn durable_free_list_reuses_slots_lifo() {
        let b = tracking();
        let arena = Arena::new(&b, 64, 8);
        let a = arena.alloc(&b);
        let c = arena.alloc(&b);
        // SAFETY: both slots are unreachable test allocations.
        unsafe {
            arena.free(&b, a);
            arena.free(&b, c);
        }
        b.pfence();
        let header = arena.image_header(&b.tracker().unwrap().crash_image());
        assert_eq!(header.free_head, Some(2), "head = offset of `c` + 1");
        assert_eq!(arena.alloc(&b), c, "LIFO reuse");
        assert_eq!(arena.alloc(&b), a);
        assert_eq!(arena.high_water(), 2, "no new slots were bumped");
    }

    /// A backend that logs every store, write-back and fence it is handed.
    #[derive(Default)]
    struct EventLog(std::sync::Mutex<Vec<Event>>);

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Event {
        Store(usize, u64),
        Pwb(usize),
        Pfence,
    }

    impl PmemBackend for EventLog {
        fn pwb(&self, addr: *const u8) {
            self.0.lock().unwrap().push(Event::Pwb(addr as usize));
        }
        fn pfence(&self) {
            self.0.lock().unwrap().push(Event::Pfence);
        }
        fn record_store(&self, addr: *const u8, val: u64) {
            self.0
                .lock()
                .unwrap()
                .push(Event::Store(addr as usize, val));
        }
    }

    #[test]
    fn free_fences_the_link_before_storing_the_head() {
        let b = EventLog::default();
        let arena = Arena::new(&b, 64, 8);
        let a = arena.alloc(&b);
        let c = arena.alloc(&b);
        // SAFETY: unreachable test allocation.
        unsafe { arena.free(&b, a) };
        b.0.lock().unwrap().clear();
        // SAFETY: unreachable test allocation.
        unsafe { arena.free(&b, c) };
        let head = arena.header_addr(FREE_HEAD_OFFSET);
        let link = c as usize;
        // `a` is slot 0 and `c` slot 1: the link holds 0 + 1, the head 1 + 1.
        assert_eq!(
            *b.0.lock().unwrap(),
            [
                Event::Store(link, 1),
                Event::Pwb(link),
                Event::Pfence,
                Event::Store(head, 2),
                Event::Pwb(head),
            ]
        );
    }

    #[test]
    fn recycle_reuses_without_backend_events() {
        let b = counting();
        let arena = Arena::new(&b, 64, 8);
        let a = arena.alloc(&b);
        let before = b.stats().snapshot();
        // SAFETY: unreachable test allocation.
        unsafe { arena.recycle(a) };
        assert_eq!(arena.alloc(&b), a);
        let delta = b.stats().snapshot().delta_since(&before);
        assert_eq!(delta.pwbs, 0, "recycling is free of persistence events");
    }

    #[test]
    fn chunks_grow_on_demand() {
        let b = counting();
        let arena = Arena::new(&b, 64, 2);
        let addrs: Vec<usize> = (0..7).map(|_| arena.alloc(&b) as usize).collect();
        for (i, &a) in addrs.iter().enumerate() {
            assert_eq!(arena.offset_of_addr(a), Some(i));
        }
        assert_eq!(arena.addr_of_offset(6), addrs[6]);
    }

    #[test]
    fn blocks_are_contiguous_and_chunk_local() {
        let b = counting();
        let arena = Arena::new(&b, 64, 8);
        let _ = arena.alloc(&b); // misalign the bump pointer
        let block = arena.alloc_block(&b, 64 * 3) as usize;
        assert_eq!(arena.offset_of_addr(block), Some(1));
        assert!(arena.contains(block + 64 * 3 - 1));
        // A block that cannot fit the current chunk's remainder skips the gap.
        let _ = arena.alloc(&b);
        let big = arena.alloc_block(&b, 64 * 6) as usize;
        let off = arena.offset_of_addr(big).unwrap();
        assert_eq!(off % 8, 0, "skipped to the next chunk boundary");
    }

    #[test]
    fn a_block_skip_recycles_the_gap_slots() {
        let b = counting();
        let arena = Arena::new(&b, 64, 8);
        for _ in 0..5 {
            let _ = arena.alloc(&b);
        }
        // Slots 5..8 cannot hold a 6-slot block: it starts at slot 8, and the
        // three skipped slots are reused before the bump pointer moves.
        let block = arena.alloc_block(&b, 64 * 6) as usize;
        assert_eq!(arena.offset_of_addr(block), Some(8));
        let mut gap = arena.recycled_offsets();
        gap.sort_unstable();
        assert_eq!(gap, vec![5, 6, 7]);
        let reused: Vec<usize> = (0..3)
            .map(|_| arena.offset_of_addr(arena.alloc(&b) as usize).unwrap())
            .collect();
        assert!(reused.iter().all(|o| (5..8).contains(o)), "{reused:?}");
        assert_eq!(arena.high_water(), 14, "no slot bumped past the block");
        // An aligned block skips nothing.
        let _ = arena.alloc_block(&b, 64 * 2);
        assert!(arena.recycled_offsets().is_empty());
    }

    #[test]
    fn typed_allocation_round_trips() {
        #[repr(C)]
        struct Node {
            key: u64,
            value: u64,
        }
        let b = counting();
        let arena = Arena::for_slots_of::<Node, _>(&b, 8);
        assert_eq!(arena.slot_size(), 64);
        let n = arena.alloc_init(&b, Node { key: 7, value: 70 });
        // SAFETY: just allocated and initialised.
        unsafe {
            assert_eq!((*n).key, 7);
            assert_eq!((*n).value, 70);
        }
    }

    #[test]
    fn works_over_a_null_backend() {
        // The non-persistent baseline must be able to use the arena as a plain
        // allocator: no tracker, no stats, no panic.
        let b = NullPmem;
        let arena = Arena::new(&b, 64, 4);
        let p = arena.alloc(&b);
        arena.register_root(&b, roots::LIST_HEAD, p as usize);
        assert_eq!(arena.root(roots::LIST_HEAD), Some(p as usize));
    }

    #[test]
    fn allocation_event_stream_is_deterministic() {
        // Two identical allocation sequences against fresh backends must generate
        // identical persistence-event counts — the property that makes absolute
        // crash indices stable.
        let run = || {
            let plan = flit_pmem::CrashPlan::counting();
            let backend = SimNvram::for_crash_testing_with_plan(plan.clone());
            let arena = Arena::new(&backend, 128, 4);
            for _ in 0..9 {
                let _ = arena.alloc(&backend);
            }
            arena.register_root(&backend, roots::BST_ROOT, arena.addr_of_offset(3));
            plan.events_seen()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn concurrent_allocation_is_disjoint() {
        let b = std::sync::Arc::new(counting());
        let arena = std::sync::Arc::new(Arena::new(&*b, 64, 16));
        let seen = std::sync::Mutex::new(std::collections::HashSet::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let arena = std::sync::Arc::clone(&arena);
                let b = std::sync::Arc::clone(&b);
                let seen = &seen;
                s.spawn(move || {
                    for _ in 0..200 {
                        let p = arena.alloc(&*b) as usize;
                        assert!(seen.lock().unwrap().insert(p), "slot {p:#x} reused");
                    }
                });
            }
        });
        assert_eq!(arena.high_water(), 800);
    }

    #[test]
    fn a_batched_recycle_of_a_foreign_address_panics_before_pushing_any() {
        let b = counting();
        let arena = Arena::new(&b, 64, 8);
        let other = Arena::new(&b, 64, 8);
        let mine = arena.alloc(&b) as usize;
        let foreign = other.alloc(&b) as usize;
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // SAFETY: `mine` is an unreachable test allocation; `foreign` is
            // the contract violation under test, caught before any push.
            unsafe { arena.recycle_all(&[mine, foreign]) };
        }))
        .expect_err("a foreign address must not be recycled");
        let message = panicked
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panicked.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(
            message.contains("recycled pointer belongs to this arena"),
            "{message:?}"
        );
        assert!(arena.recycled_offsets().is_empty(), "no slot was pushed");
    }

    /// The recycle list holds addresses; every reader of it still speaks slot
    /// offsets, in list order, across chunk boundaries.
    #[test]
    fn recycled_slots_report_as_offsets() {
        let b = counting();
        let recycle_in_order = |arena: &Arena| {
            let addrs: Vec<usize> = (0..10).map(|_| arena.alloc(&b) as usize).collect();
            // SAFETY: unreachable test allocations, each recycled once.
            unsafe {
                arena.recycle(addrs[9] as *mut u8);
                arena.recycle_all(&[addrs[2], addrs[5]]);
            }
        };

        let arena = Arc::new(Arena::new(&b, 64, 4)); // three chunks
        recycle_in_order(&arena);
        assert_eq!(arena.recycled_offsets(), [9, 2, 5]);
        let gc = crate::post_crash_gc(&[Arc::clone(&arena)]);
        assert_eq!(gc.arenas[0].recycled, 3);
        assert_eq!(gc.arenas[0].reclaimed, 7, "the other slots are leaks");
        let mut after_gc = arena.recycled_offsets();
        assert_eq!(after_gc[..3], [9, 2, 5]);
        after_gc[3..].sort_unstable();
        assert_eq!(
            after_gc[3..],
            [0, 1, 3, 4, 6, 7, 8],
            "GC skipped the recycled set"
        );
        // A heap arena's clean close keeps its slots on the volatile list.
        assert!(arena.persist_recycled());
        assert_eq!(arena.recycled_offsets().len(), 10);

        let dir = std::env::temp_dir().join("flit-alloc-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("recycled-{}.pool", std::process::id()));
        let pool = PoolFile::create(&path, &PoolOptions::with_capacity(1 << 20), 1).unwrap();
        let config = ArenaConfig {
            slot_size: 64,
            slots_per_chunk: 4,
        };
        let pooled = Arena::create_on_pool(&b, &pool, config).unwrap();
        recycle_in_order(&pooled);
        assert!(pooled.persist_recycled());
        assert!(pooled.recycled_offsets().is_empty());
        assert_eq!(
            pooled.durable_free_offsets(),
            [5, 2, 9],
            "pushed in list order"
        );
        drop((pooled, pool));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_path_retired_in_one_action_recycles_each_slot_once() {
        let b = counting();
        let arena = Arc::new(Arena::new(&b, 64, 4));
        let mut path: Vec<usize> = (0..6).map(|_| arena.alloc(&b) as usize).collect();
        let collector = flit_ebr::Collector::new();
        let local = collector.register();
        {
            let guard = local.pin();
            // SAFETY: the slots are unreachable test allocations, retired once.
            unsafe { arena.defer_recycle_all(&guard, path.clone()) };
            assert_eq!(collector.garbage_len(), 1, "one deferred action");
            assert!(arena.recycled_offsets().is_empty(), "pinned: not yet");
        }
        assert!(collector.drain());
        let mut recycled = arena.recycled_offsets();
        recycled.sort_unstable();
        assert_eq!(recycled, [0, 1, 2, 3, 4, 5]);
        let mut reused: Vec<usize> = (0..6).map(|_| arena.alloc(&b) as usize).collect();
        reused.sort_unstable();
        path.sort_unstable();
        assert_eq!(reused, path);
        assert_eq!(arena.high_water(), 6, "every slot came back exactly once");
    }
}
